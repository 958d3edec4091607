//! The crawler's write path: a seeded feed streamed in fixed-size batches
//! into a `DurableTokenStore` that already holds a base DB, compacted
//! after a fixed number of batches, then reopened.
//!
//! Every cycle starts from a fresh copy of the same base store, so every
//! compaction and every recovery handles the same amount of data and a
//! run's cycles are samples of one operation; a growing store made the
//! cost of its last compactions triple its first.
//!
//! Flush policy: `DurableOptions::default()` — one shard, no per-batch
//! fsync (a committed batch survives process death, not power loss);
//! compaction fsyncs its snapshot.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cryptext::common::Result;
use cryptext::core::database::TokenDatabase;
use cryptext::core::durable::{DurableOptions, DurableTokenStore};
use cryptext::docstore::{Database, DbOptions};
use cryptext::tokenizer::tokenize_spans;

use crate::gen::feed_texts;
use crate::procstat::written_bytes;
use crate::report::{mean, median, quantile, ratio, Context, Metrics, Tally};
use crate::speed::{factor, Probe};

/// Posts per ingest batch.
pub const BATCH_POSTS: usize = 32;
/// Batches before a cycle's compaction.
pub const BATCHES_PER_CYCLE: usize = 40;
/// Batches after it: left in the delta log, so every recovery replays
/// them on top of the snapshot.
pub const TAIL_BATCHES: usize = 10;
const CYCLE_POSTS: usize = BATCH_POSTS * (BATCHES_PER_CYCLE + TAIL_BATCHES);
/// Posts in the base DB every cycle starts from (fixed feed seed).
pub const BASE_POSTS: usize = 10_000;
pub const BASE_FEED_SEED: u64 = 0xBA5E_2023;
const BASE_BATCH_POSTS: usize = 500;
const MIN_CYCLES: usize = 3;
/// Wall time of one cycle on the reference host, copy and reopen
/// included: a phase runs `budget / NOMINAL_CYCLE` cycles, so every run
/// does the same work whatever the host's speed.
const NOMINAL_CYCLE: Duration = Duration::from_millis(250);
/// Cycles the traced run replays in memory.
const TRACE_CYCLES: usize = 4;

/// A scratch directory under `OUT_DIR`, removed on drop.
pub struct Workdir(pub PathBuf);

impl Workdir {
    pub fn new(name: &str) -> Self {
        let path = Path::new(crate::OUT_DIR).join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Workdir(path)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

pub fn base_feed() -> Vec<String> {
    feed_texts(BASE_FEED_SEED, BASE_POSTS)
}

/// The ingest workload's set-up: a durable store at `dir` holding the
/// lexicon and the base feed, compacted into its first snapshot and
/// closed. Returns the snapshot's epoch.
pub fn build_base(dir: &Path) -> Result<u64> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = DurableTokenStore::<TokenDatabase>::open(dir, DurableOptions::default())?;
    store.try_seed_lexicon()?;
    for chunk in base_feed().chunks(BASE_BATCH_POSTS) {
        store.try_ingest_texts(chunk)?;
    }
    store.compact()?;
    Ok(store.epoch())
}

/// Everything one ingest phase measured. Per-cycle figures are scaled to
/// reference speed by the cycle's speed probes; the rest are raw.
#[derive(Default)]
pub struct IngestRun {
    pub batch_us: Vec<f64>,
    pub compact_bytes: Vec<f64>,
    pub cycle_posts_per_s: Vec<f64>,
    pub cycle_batch_p50_us: Vec<f64>,
    pub cycle_batch_mean_us: Vec<f64>,
    pub cycle_compact_ms: Vec<f64>,
    pub cycle_recovery_ms: Vec<f64>,
    /// Each cycle's posts, in ingest order.
    pub cycles: Vec<Vec<String>>,
    pub written_bytes: u64,
    pub tally: Tally,
    /// The store the last cycle's reopen recovered.
    pub store: Option<DurableTokenStore<TokenDatabase>>,
}

impl IngestRun {
    pub fn posts(&self) -> usize {
        self.cycles.iter().map(Vec::len).sum()
    }

    pub fn input_bytes(&self) -> usize {
        self.cycles.iter().flatten().map(String::len).sum()
    }
}

fn count<T>(tally: &mut Tally, result: Result<T>) -> Option<T> {
    tally.attempted += 1;
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("ingest error: {e}");
            tally.failed += 1;
            None
        }
    }
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `budget / NOMINAL_CYCLE` cycles (at least `MIN_CYCLES`). A cycle
/// copies the base store at `base` to `work`, opens it, streams
/// `BATCHES_PER_CYCLE` batches, compacts, streams `TAIL_BATCHES` more,
/// then drops the store and reopens it, as a restarted crawler would.
pub fn run_ingest(base: &Path, work: &Path, seed: u64, budget: Duration) -> IngestRun {
    let mut run = IngestRun::default();
    let n_cycles =
        ((budget.as_secs_f64() / NOMINAL_CYCLE.as_secs_f64()).round() as usize).max(MIN_CYCLES);
    let feeds: Vec<Vec<String>> = (1..=n_cycles as u64)
        .map(|c| feed_texts(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15), CYCLE_POSTS))
        .collect();
    let mut probe = match Probe::start() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("speed probe: {e}");
            run.tally.failed += 1;
            return run;
        }
    };
    for posts in feeds {
        drop(run.store.take());
        let _ = std::fs::remove_dir_all(work);
        if count(&mut run.tally, copy_dir(base, work).map_err(Into::into)).is_none() {
            break;
        }
        let opened = DurableTokenStore::<TokenDatabase>::open(work, DurableOptions::default());
        let Some(mut store) = count(&mut run.tally, opened) else {
            break;
        };
        probe.reset(Instant::now());
        probe.run();
        let (first_batch, w0) = (run.batch_us.len(), written_bytes());
        let (mut busy, mut compact) = (0.0, 0.0);
        for (i, batch) in posts.chunks(BATCH_POSTS).enumerate() {
            if i == BATCHES_PER_CYCLE {
                probe.run();
                let (t0, w0) = (Instant::now(), written_bytes());
                if count(&mut run.tally, store.compact()).is_some() {
                    compact = secs_since(t0);
                    run.compact_bytes.push((written_bytes() - w0) as f64);
                }
                probe.run();
            }
            let t0 = Instant::now();
            if count(&mut run.tally, store.try_ingest_texts(batch)).is_some() {
                let secs = secs_since(t0);
                busy += secs;
                run.batch_us.push(secs * 1e6);
            }
        }
        run.written_bytes += written_bytes() - w0;
        drop(store);
        probe.run();
        let t0 = Instant::now();
        let reopened = DurableTokenStore::open(work, DurableOptions::default());
        let recovery = secs_since(t0);
        probe.run();
        if let Some(s) = count(&mut run.tally, reopened) {
            run.store = Some(s);
        }
        let f = factor(&probe.readings);
        let batches = &run.batch_us[first_batch..];
        run.cycle_posts_per_s
            .push(posts.len() as f64 / (busy + compact) / f);
        run.cycle_batch_p50_us.push(quantile(batches, 0.5) * f);
        run.cycle_batch_mean_us.push(mean(batches) * f);
        run.cycle_compact_ms.push(compact * 1e3 * f);
        run.cycle_recovery_ms.push(recovery * 1e3 * f);
        run.cycles.push(posts);
    }
    run
}

/// The in-memory `TokenDatabase` built from the same batches as the last
/// cycle's durable store.
pub fn reference_db(run: &IngestRun) -> TokenDatabase {
    let mut db = TokenDatabase::in_memory();
    db.seed_lexicon();
    db.ingest_texts(&base_feed());
    if let Some(posts) = run.cycles.last() {
        for batch in posts.chunks(BATCH_POSTS) {
            db.ingest_texts(batch);
        }
    }
    db
}

/// Does the reopened store hold exactly what the reference built?
pub fn matches_reference(run: &IngestRun, reference: &TokenDatabase) -> bool {
    let Some(store) = &run.store else {
        return false;
    };
    let ok = store.inner().records() == reference.records()
        && store.inner().stats() == reference.stats();
    if !ok {
        eprintln!(
            "ingest mismatch: reopened {:?} vs reference {:?}",
            store.inner().stats(),
            reference.stats()
        );
    }
    ok
}

/// The ingest end-to-end metrics: medians over cycles.
pub struct IngestFigures {
    pub posts_per_s: f64,
    pub batch_p50_us: f64,
    pub compact_ms: f64,
    pub recovery_ms: f64,
}

pub fn ingest_figures(run: &IngestRun, ctx: &mut Context) -> IngestFigures {
    ctx.put("ingest_cycles", run.cycles.len() as f64);
    ctx.put("ingest_posts", run.posts() as f64);
    ctx.put("ingest_batch_p50_us_raw", median(&run.batch_us));
    IngestFigures {
        posts_per_s: median(&run.cycle_posts_per_s),
        batch_p50_us: median(&run.cycle_batch_p50_us),
        compact_ms: median(&run.cycle_compact_ms),
        recovery_ms: median(&run.cycle_recovery_ms),
    }
}

/// The `durable` layer's per-layer metrics: the first `TRACE_CYCLES`
/// cycles replayed in memory on the base DB (`ingest_texts` per batch,
/// `persist_to` at the compaction point, into `scratch`), the
/// tokenize + Soundex share, `load_from` of the last cycle's snapshot,
/// and bytes written. Timings are scaled like the run's.
pub fn trace_ingest(
    run: &IngestRun,
    base: &Path,
    base_epoch: u64,
    work: &Path,
    scratch: &Path,
    m: &mut Metrics,
) -> Result<()> {
    let base_snapshots = Database::open(&base.join("snapshots"), DbOptions::default())?;
    let base_collection = format!("tokens__e{base_epoch}");
    let persist_store = Database::open(scratch, DbOptions::default())?;
    let mut probe = Probe::start()?;
    let (mut apply_us, mut persist_ms) = (Vec::new(), Vec::new());
    for posts in run.cycles.iter().take(TRACE_CYCLES) {
        let mut db = TokenDatabase::load_from(&base_snapshots, &base_collection)?;
        probe.reset(Instant::now());
        probe.run();
        let (mut apply, mut persist) = (Vec::new(), 0.0);
        for (i, batch) in posts.chunks(BATCH_POSTS).enumerate() {
            if i == BATCHES_PER_CYCLE {
                probe.run();
                let t0 = Instant::now();
                db.persist_to(&persist_store, "tokens__persist")?;
                persist = secs_since(t0) * 1e3;
                probe.run();
            }
            let t0 = Instant::now();
            db.ingest_texts(batch);
            apply.push(secs_since(t0) * 1e6);
        }
        probe.run();
        let f = factor(&probe.readings);
        apply_us.push(mean(&apply) * f);
        persist_ms.push(persist * f);
    }
    let apply = median(&apply_us);
    m.put("ingest.apply_us", apply, "us");
    m.put(
        "durable.self_us",
        median(&run.cycle_batch_mean_us) - apply,
        "us",
    );

    // Tokenize + Soundex, the per-post preparation every batch starts with.
    let reference = TokenDatabase::load_from(&base_snapshots, &base_collection)?;
    let soundex = reference.soundex(0)?;
    let (coded, prepare) = probe.timed(|| {
        let mut coded = 0usize;
        for post in run.cycles.iter().flatten() {
            for tok in tokenize_spans(post) {
                if tok.is_word() && std::hint::black_box(soundex.encode(tok.text(post))).is_some() {
                    coded += 1;
                }
            }
        }
        coded
    });
    std::hint::black_box(coded);
    let posts = run.posts().max(1) as f64;
    m.put("ingest.prepare_us_per_post", prepare * 1e6 / posts, "us");

    m.put("compact.persist_ms", median(&persist_ms), "ms");
    m.put(
        "compact.bytes_rewritten",
        median(&run.compact_bytes),
        "bytes",
    );
    m.put(
        "disk.bytes_per_input_byte",
        ratio(run.written_bytes as f64, run.input_bytes() as f64),
        "ratio",
    );

    let snapshots = Database::open(&work.join("snapshots"), DbOptions::default())?;
    let collection = format!("tokens__e{}", base_epoch + 1);
    let mut load_ms = Vec::new();
    for _ in 0..MIN_CYCLES {
        let (loaded, secs) = probe.timed(|| TokenDatabase::load_from(&snapshots, &collection));
        drop(loaded?);
        load_ms.push(secs * 1e3);
    }
    m.put("recovery.load_ms", median(&load_ms), "ms");
    m.put("recovery.replayed_batches", TAIL_BATCHES as f64, "count");
    Ok(())
}
