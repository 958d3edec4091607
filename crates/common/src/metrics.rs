//! Workspace-wide metrics: lock-free counters, gauges, and log-scale
//! latency histograms behind one [`MetricsRegistry`].
//!
//! Every layer of the stack records into handles from this module, and
//! both operator surfaces read them back through one [`MetricsSnapshot`]:
//! `GET /metrics` renders the full registry as Prometheus text, and
//! `GET /stats` renders the gateway and cache counters as one JSON
//! document.
//!
//! # Contract
//!
//! * **Naming.** `cryptext_<subsystem>_<what>[_<unit>][_total]`, e.g.
//!   `cryptext_gateway_admitted_total`, `cryptext_lookup_walk_us`,
//!   `cryptext_cache_hits_total`. Counters end in `_total`; histogram
//!   names carry their unit suffix (`_us` for microseconds).
//! * **Labels.** Label *keys* are `&'static str` by construction; label
//!   *values* are interned to `&'static str` via [`label_value`] (a
//!   bounded, deduplicated leak — use only for small closed sets such
//!   as route names, cache tiers, or HTTP status codes, never for
//!   request-derived strings).
//! * **Zero overhead when unused.** [`Counter`], [`Gauge`], and
//!   [`Histogram`] are standalone handles over atomics: they work
//!   without a registry, recording is a handful of relaxed atomic ops,
//!   and nothing allocates on the hot path. Registration
//!   (cold path) shares the same cells with the registry, so snapshots
//!   observe live values; an unregistered handle costs exactly the
//!   same to record into and is simply invisible to exports.
//! * **Snapshots.** [`MetricsRegistry::snapshot`] reads every cell with
//!   relaxed loads under the registration lock: the *set* of metrics is
//!   consistent, individual values are each atomically read (recorders
//!   are never blocked).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::clock::{Clock, Timestamp};
use crate::hash::FxHashSet;

// ---------------------------------------------------------------------
// label interning
// ---------------------------------------------------------------------

/// One label: interned static key and value.
pub type Label = (&'static str, &'static str);

fn label_pool() -> &'static Mutex<FxHashSet<&'static str>> {
    static POOL: OnceLock<Mutex<FxHashSet<&'static str>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(FxHashSet::default()))
}

/// Intern a dynamic label value into the process-wide static pool.
///
/// The pool deduplicates, so the leak is bounded by the number of
/// *distinct* values ever interned — use it for small closed sets
/// (status codes, route names), never for request-derived strings.
pub fn label_value(s: &str) -> &'static str {
    let mut pool = label_pool().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------
// instruments
// ---------------------------------------------------------------------

/// A monotonically increasing counter (relaxed atomic increments).
///
/// Cloning shares the cell; a standalone counter works without a
/// registry and costs nothing extra when registered.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (e.g. `active_now`).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: powers of two `2^0 .. 2^26` plus the
/// overflow (`+Inf`) bucket. In microseconds that spans 1µs to ~67s,
/// which covers every latency this workspace records.
pub const HISTOGRAM_BUCKETS: usize = 28;

#[derive(Debug, Default)]
struct HistogramCells {
    /// Per-bucket observation counts (NOT cumulative; rendering
    /// accumulates them into Prometheus' cumulative `le` form).
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log-scale histogram for latency-style values.
///
/// `observe` is unit-agnostic — production timers record microseconds
/// via [`Histogram::start_timer`], `SimClock`-driven tests record
/// simulated milliseconds via [`Histogram::start_clock_timer`] or call
/// `observe` with any delta directly.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

/// Index of the bucket whose upper bound (`2^i`) first covers `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the overflow bucket reuses the
/// next power of two as a finite stand-in for estimation).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    1u64 << i
}

/// Exclusive lower bound of bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (relaxed atomics; no allocation).
    #[inline]
    pub fn observe(&self, v: u64) {
        self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// A real-time timer recording elapsed **microseconds** on drop.
    #[inline]
    pub fn start_timer(&self) -> Timer {
        Timer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// A timer against the workspace [`Clock`] abstraction, recording
    /// elapsed **milliseconds of clock time** on drop — under a
    /// [`crate::SimClock`] that is simulated time, so tests stay
    /// deterministic.
    #[inline]
    pub fn start_clock_timer<'a>(&self, clock: &'a dyn Clock) -> ClockTimer<'a> {
        ClockTimer {
            hist: self.clone(),
            clock,
            start_ms: clock.now(),
        }
    }

    /// Point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(self.cells.buckets.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// Guard from [`Histogram::start_timer`]: records elapsed µs on drop.
#[derive(Debug)]
pub struct Timer {
    hist: Histogram,
    start: Instant,
}

impl Timer {
    /// Stop early and record (equivalent to dropping).
    pub fn observe(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_micros() as u64);
    }
}

/// Guard from [`Histogram::start_clock_timer`]: records elapsed clock
/// milliseconds on drop.
pub struct ClockTimer<'a> {
    hist: Histogram,
    clock: &'a dyn Clock,
    start_ms: Timestamp,
}

impl Drop for ClockTimer<'_> {
    fn drop(&mut self) {
        self.hist
            .observe(self.clock.now().saturating_sub(self.start_ms));
    }
}

/// Point-in-time histogram state with percentile estimation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by rank-walking the
    /// buckets with linear interpolation inside the target bucket.
    /// Estimates are monotone in `q` by construction; an empty
    /// histogram estimates `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = bucket_lower(i) as f64;
                let upper = bucket_upper(i) as f64;
                let frac = (target - cum) as f64 / c as f64;
                return lower + frac * (upper - lower);
            }
            cum += c;
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1) as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Registration {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    handle: Handle,
}

/// The registry: an ordered set of named, labelled instrument handles.
///
/// Registration is the cold path (a mutex push); recording always goes
/// through the handles and never touches the registry. One registry is
/// created per service instance and shared down the stack — gateway and
/// HTTP layers adopt the service's registry rather than creating their
/// own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Registration>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &'static str, help: &'static str, labels: &[Label], handle: Handle) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(prior) = inner.iter().find(|r| r.name == name && r.labels == labels) {
            panic!(
                "metric {name:?} with labels {labels:?} registered twice \
                 (first as a {})",
                prior.handle.kind()
            );
        }
        inner.push(Registration {
            name,
            help,
            labels: labels.to_vec(),
            handle,
        });
    }

    /// Create and register an unlabelled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Create and register a labelled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
    ) -> Counter {
        let c = Counter::new();
        self.register_counter(name, help, labels, &c);
        c
    }

    /// Register an existing counter handle (shares the cell: the
    /// registry sees every increment the owner records).
    pub fn register_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
        counter: &Counter,
    ) {
        self.register(name, help, labels, Handle::Counter(counter.clone()));
    }

    /// Create and register an unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let g = Gauge::new();
        self.register_gauge(name, help, &[], &g);
        g
    }

    /// Register an existing gauge handle.
    pub fn register_gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
        gauge: &Gauge,
    ) {
        self.register(name, help, labels, Handle::Gauge(gauge.clone()));
    }

    /// Create and register an unlabelled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Create and register a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
    ) -> Histogram {
        let h = Histogram::new();
        self.register_histogram(name, help, labels, &h);
        h
    }

    /// Register an existing histogram handle.
    pub fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
        histogram: &Histogram,
    ) {
        self.register(name, help, labels, Handle::Histogram(histogram.clone()));
    }

    /// Read every registered metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            samples: inner
                .iter()
                .map(|r| Sample {
                    name: r.name,
                    labels: r.labels.clone(),
                    value: match &r.handle {
                        Handle::Counter(c) => SampleValue::Counter(c.get()),
                        Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                        Handle::Histogram(h) => SampleValue::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }

    /// Render the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` per family, cumulative `le`
    /// buckets plus `_sum`/`_count` series per histogram.
    pub fn render_prometheus(&self) -> String {
        let snapshot = self.snapshot();
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let help: Vec<(&'static str, &'static str)> =
            inner.iter().map(|r| (r.name, r.help)).collect();
        drop(inner);
        snapshot.render_prometheus(&help)
    }
}

fn push_labels(out: &mut String, labels: &[Label], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    // `le` values are ASCII digits / "+Inf"; label values are interned
    // operator-chosen strings — neither needs escaping, which is
    // exactly the label rule this module's docs state.
    for (k, v) in labels.iter().copied().chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

/// One metric's point-in-time value.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric family name.
    pub name: &'static str,
    /// Label set (possibly empty).
    pub labels: Vec<Label>,
    /// The value.
    pub value: SampleValue,
}

/// A snapshot value, by instrument kind.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state (boxed: the fixed bucket array dwarfs the scalar
    /// variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A consistent listing of every registered metric's value, with query
/// helpers used by tests and the `/stats` renderer.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All samples, in registration order.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    fn matching<'a>(
        &'a self,
        name: &'a str,
        label: Option<(&'a str, &'a str)>,
    ) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| {
            s.name == name
                && label.is_none_or(|(k, v)| s.labels.iter().any(|&(lk, lv)| lk == k && lv == v))
        })
    }

    /// Sum of a counter family across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.matching(name, None)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// One labelled counter's value (summed if several match).
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> u64 {
        self.matching(name, Some((key, value)))
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// A gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.matching(name, None).find_map(|s| match s.value {
            SampleValue::Gauge(v) => Some(v),
            _ => None,
        })
    }

    /// Total observation count of a histogram family across label sets.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.matching(name, None)
            .filter_map(|s| match &s.value {
                SampleValue::Histogram(h) => Some(h.count),
                _ => None,
            })
            .sum()
    }

    /// Observation count of the histogram series carrying `key=value`.
    pub fn histogram_count_labeled(&self, name: &str, key: &str, value: &str) -> u64 {
        self.matching(name, Some((key, value)))
            .filter_map(|s| match &s.value {
                SampleValue::Histogram(h) => Some(h.count),
                _ => None,
            })
            .sum()
    }

    /// One histogram snapshot (first matching series), if registered.
    pub fn histogram<'a>(&'a self, name: &'a str) -> Option<&'a HistogramSnapshot> {
        self.matching(name, None).find_map(|s| match &s.value {
            SampleValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        })
    }

    /// Render this snapshot as Prometheus text; `help` maps family
    /// names to help strings (first entry per name wins).
    pub fn render_prometheus(&self, help: &[(&str, &str)]) -> String {
        let mut out = String::with_capacity(4096);
        let mut emitted_type: Vec<&str> = Vec::new();
        // Group families by first-appearance order so each `# TYPE`
        // heads every series of its name.
        for sample in &self.samples {
            if emitted_type.contains(&sample.name) {
                continue;
            }
            emitted_type.push(sample.name);
            if let Some((_, h)) = help.iter().find(|(n, _)| *n == sample.name) {
                out.push_str("# HELP ");
                out.push_str(sample.name);
                out.push(' ');
                out.push_str(h);
                out.push('\n');
            }
            out.push_str("# TYPE ");
            out.push_str(sample.name);
            out.push(' ');
            out.push_str(match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            });
            out.push('\n');
            for s in self.samples.iter().filter(|s| s.name == sample.name) {
                match &s.value {
                    SampleValue::Counter(v) => {
                        out.push_str(s.name);
                        push_labels(&mut out, &s.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(s.name);
                        push_labels(&mut out, &s.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SampleValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, &c) in h.buckets.iter().enumerate() {
                            cum += c;
                            let le = if i == HISTOGRAM_BUCKETS - 1 {
                                "+Inf".to_string()
                            } else {
                                bucket_upper(i).to_string()
                            };
                            out.push_str(s.name);
                            out.push_str("_bucket");
                            push_labels(&mut out, &s.labels, Some(("le", &le)));
                            out.push(' ');
                            out.push_str(&cum.to_string());
                            out.push('\n');
                        }
                        out.push_str(s.name);
                        out.push_str("_sum");
                        push_labels(&mut out, &s.labels, None);
                        out.push(' ');
                        out.push_str(&h.sum.to_string());
                        out.push('\n');
                        out.push_str(s.name);
                        out.push_str("_count");
                        push_labels(&mut out, &s.labels, None);
                        out.push(' ');
                        out.push_str(&h.count.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimClock;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn counters_and_gauges_record_through_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(-3);
        assert_eq!(g.clone().get(), -3);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 26), HISTOGRAM_BUCKETS - 2);
        assert_eq!(bucket_index((1 << 26) + 1), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_are_sane() {
        let h = Histogram::new();
        // 90 fast observations, 10 slow: p50 lands in the fast band,
        // p99 in the slow band.
        for _ in 0..90 {
            h.observe(3);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 3 + 10 * 1000);
        assert!(s.p50() <= 4.0, "p50 {} in the fast bucket", s.p50());
        assert!(s.p99() > 512.0, "p99 {} in the slow bucket", s.p99());
    }

    #[test]
    fn empty_histogram_estimates_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p99(), 0.0);
    }

    #[test]
    fn clock_timer_records_simulated_milliseconds() {
        let h = Histogram::new();
        let clock = SimClock::new(1_000);
        {
            let _t = h.start_clock_timer(&clock);
            clock.advance(37);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 37);
    }

    #[test]
    fn real_timer_records_microseconds() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 1_000, "2ms sleep observed as {}µs", s.sum);
    }

    #[test]
    fn label_values_intern_to_one_allocation() {
        let a = label_value("route-lookup-test");
        let b = label_value(&String::from("route-lookup-test"));
        assert!(std::ptr::eq(a, b), "same value, same interned pointer");
    }

    #[test]
    fn registry_snapshot_sees_live_handles() {
        let r = MetricsRegistry::new();
        let c = Counter::new();
        r.register_counter("cryptext_test_total", "pre-owned handle", &[], &c);
        let h = r.histogram_with(
            "cryptext_test_us",
            "latency",
            &[("route", label_value("lookup"))],
        );
        c.add(7);
        h.observe(5);
        h.observe(4096);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("cryptext_test_total"), 7);
        assert_eq!(snap.histogram_count("cryptext_test_us"), 2);
        assert_eq!(
            snap.histogram_count_labeled("cryptext_test_us", "route", "lookup"),
            2
        );
        assert_eq!(
            snap.histogram_count_labeled("cryptext_test_us", "route", "other"),
            0
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let r = MetricsRegistry::new();
        r.counter("cryptext_dup_total", "a");
        r.counter("cryptext_dup_total", "b");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = MetricsRegistry::new();
        r.counter("cryptext_reqs_total", "requests").add(3);
        let g = r.gauge("cryptext_active", "in flight");
        g.set(2);
        let h = r.histogram_with("cryptext_wait_us", "wait", &[("route", "lookup")]);
        h.observe(3);
        h.observe(3);
        h.observe(100);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE cryptext_reqs_total counter\n"));
        assert!(text.contains("cryptext_reqs_total 3\n"));
        assert!(text.contains("# TYPE cryptext_active gauge\n"));
        assert!(text.contains("cryptext_active 2\n"));
        assert!(text.contains("# TYPE cryptext_wait_us histogram\n"));
        // Buckets are cumulative: both 3s are <= 4, all three <= 128.
        assert!(text.contains("cryptext_wait_us_bucket{route=\"lookup\",le=\"4\"} 2\n"));
        assert!(text.contains("cryptext_wait_us_bucket{route=\"lookup\",le=\"128\"} 3\n"));
        assert!(text.contains("cryptext_wait_us_bucket{route=\"lookup\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("cryptext_wait_us_sum{route=\"lookup\"} 106\n"));
        assert!(text.contains("cryptext_wait_us_count{route=\"lookup\"} 3\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "malformed line {line:?}");
        }
    }

    #[test]
    fn eight_racing_recorders_lose_no_increments() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Histogram::new();
        let c = Counter::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Spread observations across buckets so the race
                        // covers distinct cells, not one hot cacheline.
                        h.observe((t as u64 * PER_THREAD + i) % 5_000);
                        c.inc();
                    }
                });
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(c.get(), total, "counter lost increments");
        let s = h.snapshot();
        assert_eq!(s.count, total, "histogram count lost increments");
        assert_eq!(
            s.buckets.iter().sum::<u64>(),
            total,
            "bucket cells lost increments"
        );
    }

    proptest! {
        #[test]
        fn histogram_buckets_sum_to_count_and_percentiles_are_monotone(
            values in vec(0u64..200_000_000, 1..400)
        ) {
            let h = Histogram::new();
            let mut expected_sum = 0u64;
            for &v in &values {
                h.observe(v);
                expected_sum += v;
            }
            let s = h.snapshot();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.sum, expected_sum);
            prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
            let (p50, p90, p99) = (s.p50(), s.p90(), s.p99());
            prop_assert!(p50 <= p90, "p50 {} > p90 {}", p50, p90);
            prop_assert!(p90 <= p99, "p90 {} > p99 {}", p90, p99);
            // The estimate never exceeds the largest bucket bound and
            // never undershoots the smallest observation's bucket floor.
            let max = *values.iter().max().unwrap();
            prop_assert!(p99 <= bucket_upper(bucket_index(max)) as f64);
            let min = *values.iter().min().unwrap();
            prop_assert!(p50 >= bucket_lower(bucket_index(min)) as f64);
        }
    }
}
