//! Per-stage engine instrumentation for the workspace metrics registry.
//!
//! [`StageMetrics`] is one shared bundle of counters and histograms for
//! the engine's hot stages — query encoding, the shard/bucket walk, the
//! Levenshtein filter, language-model candidate scoring, and the
//! Perturbation choice-list build. The handles are plain
//! [`cryptext_common::metrics`] cells: cloning is an `Arc` bump,
//! recording is a relaxed atomic op, and a bundle that was never
//! attached to a scratch costs the hot path nothing at all (the
//! `Option<Arc<StageMetrics>>` on [`crate::LookupScratch`] stays `None`
//! and every instrumentation site is a single branch).
//!
//! Timing granularity is deliberately per *call*, not per candidate: a
//! candidate filter step runs in tens of nanoseconds, so wrapping each
//! one in an `Instant` pair would cost more than the work being measured
//! and blow the bench-smoke overhead gate. Candidate-level visibility
//! comes from volume counters instead (`lookup_filter_candidates`,
//! `lookup_hits`, `normalize_scored`), which combine with the per-call
//! histograms into per-candidate averages offline.

use std::sync::Arc;

use cryptext_common::metrics::{Counter, Histogram, MetricsRegistry};

/// The engine's per-stage instrument bundle. One instance per service
/// (shared across worker threads through `Arc`); every field also works
/// standalone in tests.
#[derive(Debug, Default)]
pub struct StageMetrics {
    /// Query encoding (Soundex code set + hashes + case fold), µs per call.
    pub lookup_encode_us: Histogram,
    /// Bucket/shard walk incl. the inline Levenshtein filter, µs per call.
    pub lookup_walk_us: Histogram,
    /// Candidates examined by the SMS filter (sound-mates fed to
    /// `hit_distance`).
    pub lookup_filter_candidates: Counter,
    /// Candidates that survived the filter and reached the visitor.
    pub lookup_hits: Counter,
    /// Normalization candidate collection (retrieval + LM scoring +
    /// ranking), µs per cold call. The nested retrieval runs with its
    /// encode/walk timers detached — this histogram already spans it,
    /// and a normalize call fans out to one retrieval per token, so
    /// `lookup_encode_us`/`lookup_walk_us` sample direct Look Up calls
    /// only. The scorer runs inline in the retrieval visitor, so timing
    /// it separately would mean per-candidate clock reads.
    pub normalize_collect_us: Histogram,
    /// Re-scoring of memoized candidate pairs on the candidate-cache
    /// replay path, µs per call.
    pub normalize_rescore_us: Histogram,
    /// Candidate pairs scored by the language model (both paths).
    pub normalize_scored: Counter,
    /// Perturbation choice-list build on a choice-list cache miss (Look
    /// Up walk, choice filter, hit-order sort and pack), µs per built
    /// list. A cache hit records nothing. The walk runs with its
    /// encode/walk timers detached, as Normalization's nested retrieval
    /// does.
    pub perturb_collect_us: Histogram,
}

impl StageMetrics {
    /// Fresh unregistered bundle (all cells at zero).
    pub fn new() -> Self {
        StageMetrics::default()
    }

    /// Register every stage instrument with `registry` under the
    /// workspace naming scheme (`cryptext_lookup_*` /
    /// `cryptext_normalize_*` / `cryptext_perturb_*`). Call once per
    /// registry; re-registering the same bundle panics on the duplicate
    /// names.
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.register_histogram(
            "cryptext_lookup_encode_us",
            "Look Up query encoding time per call (microseconds)",
            &[],
            &self.lookup_encode_us,
        );
        registry.register_histogram(
            "cryptext_lookup_walk_us",
            "Look Up bucket/shard walk time per call, filter inclusive (microseconds)",
            &[],
            &self.lookup_walk_us,
        );
        registry.register_counter(
            "cryptext_lookup_filter_candidates_total",
            "Sound-mate candidates examined by the SMS Levenshtein filter",
            &[],
            &self.lookup_filter_candidates,
        );
        registry.register_counter(
            "cryptext_lookup_hits_total",
            "Candidates that passed the SMS filter and were visited",
            &[],
            &self.lookup_hits,
        );
        registry.register_histogram(
            "cryptext_normalize_collect_us",
            "Normalization candidate collection time per cold call (microseconds)",
            &[],
            &self.normalize_collect_us,
        );
        registry.register_histogram(
            "cryptext_normalize_rescore_us",
            "Normalization candidate-cache replay re-scoring time per call (microseconds)",
            &[],
            &self.normalize_rescore_us,
        );
        registry.register_counter(
            "cryptext_normalize_scored_total",
            "Candidate pairs scored by the coherency language model",
            &[],
            &self.normalize_scored,
        );
        registry.register_histogram(
            "cryptext_perturb_collect_us",
            "Perturbation choice-list build time per cache miss (microseconds)",
            &[],
            &self.perturb_collect_us,
        );
    }
}

/// Attachable handle: `None` (the default) keeps every instrumentation
/// site on its no-op branch.
pub type Stages = Option<Arc<StageMetrics>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_all_stage_instruments() {
        let registry = MetricsRegistry::new();
        let stages = StageMetrics::new();
        stages.register(&registry);
        stages.lookup_encode_us.observe(3);
        stages.lookup_filter_candidates.add(7);
        stages.normalize_scored.inc();
        stages.perturb_collect_us.observe(5);
        let snap = registry.snapshot();
        assert_eq!(snap.histogram_count("cryptext_lookup_encode_us"), 1);
        assert_eq!(
            snap.counter_total("cryptext_lookup_filter_candidates_total"),
            7
        );
        assert_eq!(snap.counter_total("cryptext_normalize_scored_total"), 1);
        assert_eq!(snap.histogram_count("cryptext_normalize_collect_us"), 0);
        assert_eq!(snap.histogram_count("cryptext_perturb_collect_us"), 1);
    }

    #[test]
    fn unregistered_bundle_still_records() {
        let stages = StageMetrics::new();
        stages.lookup_hits.inc();
        stages.lookup_walk_us.observe(12);
        assert_eq!(stages.lookup_hits.get(), 1);
        assert_eq!(stages.lookup_walk_us.count(), 1);
    }
}
