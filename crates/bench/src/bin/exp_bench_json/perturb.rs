//! `BENCH_perturb.json`: Perturbation over the Normalization texts at the
//! paper's GUI ratios and a few fixed seeds. The service's fast path (the
//! per-token choice-list tier) must return `Perturber::perturb`'s outcome
//! on every text, cold (just after a generation bump) and warm. The
//! pinned counts and digest fix the outcomes themselves across commits:
//! both paths share the choice rule, so comparing them alone would not
//! notice a change to it.

use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;

use cryptext_bench::build_db;
use cryptext_common::{FxHasher, SimClock};
use cryptext_core::perturb::{PerturbParams, PerturbationOutcome, Perturber};
use cryptext_core::service::{CryptextService, ServiceConfig};
use cryptext_core::CrypText;

use crate::doc::{Doc, Obj};
use crate::{micros_since, p50_p99, Corpus, NORM_TEXTS};

/// The manipulation ratios the paper's GUI offers.
const RATIOS: [f64; 3] = [0.15, 0.25, 0.5];
/// Perturbation seeds; each text is perturbed once per seed and ratio.
const SEEDS: RangeInclusive<u64> = 1..=3;

/// Hash every field of `outcome` into `h`.
fn hash_outcome(h: &mut FxHasher, outcome: &PerturbationOutcome) {
    outcome.text.hash(h);
    outcome.misses.hash(h);
    outcome.replacements.len().hash(h);
    for r in &outcome.replacements {
        r.original.hash(h);
        r.replacement.hash(h);
        r.span.hash(h);
    }
}

pub fn run(corpus: &Corpus) -> Result<Doc, String> {
    // The service owns its system, so it gets its own build of the same
    // seeded feed; the reference reads the service's store.
    let svc = CryptextService::new(
        CrypText::new(build_db(&corpus.platform)),
        ServiceConfig::default(),
        Arc::new(SimClock::new(0)),
    );
    let reference = Perturber::new(svc.system().database());
    let texts = corpus.norm_texts();
    let mut rows = Vec::with_capacity(RATIOS.len());
    for ratio in RATIOS {
        let (mut replacements, mut misses) = (0, 0);
        let mut digest = FxHasher::default();
        let (mut slow, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
        for seed in SEEDS {
            let params = PerturbParams::with_ratio(ratio).seeded(seed);
            for text in &texts {
                let start = Instant::now();
                let want = reference.perturb(text, params).map_err(|e| e.to_string())?;
                slow.push(micros_since(start));
                svc.bump_generation();
                for samples in [&mut cold, &mut warm] {
                    let start = Instant::now();
                    let got = svc
                        .perturb_prechecked(text, params)
                        .map_err(|e| e.to_string())?;
                    samples.push(micros_since(start));
                    if got != want {
                        return Err(format!(
                            "the served perturbation of {text:?} at ratio {ratio}, seed {seed} \
                             differs from Perturber::perturb's"
                        ));
                    }
                }
                replacements += want.replacements.len();
                misses += want.misses;
                hash_outcome(&mut digest, &want);
            }
        }
        rows.push(
            Obj::inline()
                .pin("ratio", ratio)
                .pin("replacements_total", replacements)
                .pin("misses_total", misses)
                .pin("digest", format_args!("\"{:016x}\"", digest.finish()))
                .float("reference_p50_us", p50_p99(slow).0, 2)
                .float("cold_p50_us", p50_p99(cold).0, 2)
                .float("warm_p50_us", p50_p99(warm).0, 2),
        );
    }
    Ok(Doc::new(
        "perturb",
        Obj::block()
            .obj(
                "corpus",
                Corpus::echo()
                    .info("texts", NORM_TEXTS)
                    .info("perturb_seeds", format_args!("\"{SEEDS:?}\"")),
            )
            .list("ratios", rows),
    ))
}
