//! `BENCH_ingest.json`: durable streaming ingest — the per-batch delta-log
//! append latency vs the full `persist_to` it replaces as the durability
//! point, compaction wall time, and the recovered database shape.

use std::time::Instant;

use cryptext_core::durable::{DurableOptions, DurableTokenStore};
use cryptext_core::TokenDatabase;
use cryptext_docstore::Database;

use crate::doc::{Doc, Obj};
use crate::{micros_since, p50_p99, Corpus};

/// This many one-post batches stream through a durable store, compacting
/// every [`COMPACT_EVERY`] batches.
const INGEST_BATCHES: usize = 2_000;
const COMPACT_EVERY: usize = 500;

pub fn run(texts: &[String]) -> Result<Doc, String> {
    let batches = &texts[..INGEST_BATCHES.min(texts.len())];
    let dir = std::env::temp_dir().join(format!("cryptext-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut dur = DurableTokenStore::<TokenDatabase>::open(&dir, DurableOptions::default())
        .expect("open durable store");
    let mut append_us = Vec::with_capacity(batches.len());
    let mut compact_ms: Vec<f64> = Vec::new();
    let wall = Instant::now();
    for (i, t) in batches.iter().enumerate() {
        let start = Instant::now();
        dur.try_ingest_text(t).expect("durable ingest");
        append_us.push(micros_since(start));
        if (i + 1) % COMPACT_EVERY == 0 {
            let start = Instant::now();
            dur.compact().expect("compaction");
            compact_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let batches_per_sec = batches.len() as f64 / wall.elapsed().as_secs_f64();
    let stats = dur.inner().stats();
    let final_epoch = dur.epoch();

    let start = Instant::now();
    dur.inner()
        .persist_to(&Database::in_memory(), "tokens")
        .expect("full persist");
    let full_persist_ms = start.elapsed().as_secs_f64() * 1e3;

    // Reopening replays snapshot + logs to the same state.
    drop(dur);
    let reopened = DurableTokenStore::<TokenDatabase>::open(&dir, DurableOptions::default())
        .expect("recovery open");
    let recovered = reopened.inner().stats();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(recovered, stats, "recovered state must be identical");

    // The durable shape is a pure function of the seeded corpus: the plain
    // in-memory ingest of the same posts must reach it too.
    let mut plain = TokenDatabase::in_memory();
    for t in batches {
        plain.ingest_text(t);
    }
    if plain.stats() != stats {
        return Err(format!(
            "durable ingest reached {stats:?}, the in-memory ingest {:?}",
            plain.stats()
        ));
    }

    let (append_p50_us, append_p99_us) = p50_p99(append_us);
    let compact_mean_ms = compact_ms.iter().sum::<f64>() / compact_ms.len() as f64;
    let compact_max_ms = compact_ms.iter().copied().fold(0.0, f64::max);
    let cost_ratio = full_persist_ms * 1e3 / append_p50_us;
    Ok(Doc::new(
        "ingest",
        Obj::block()
            .obj("corpus", Corpus::echo())
            .obj(
                "durable",
                Obj::block()
                    .pin("batches", batches.len())
                    .float("append_p50_us", append_p50_us, 2)
                    .float("append_p99_us", append_p99_us, 2)
                    .float("batches_per_sec", batches_per_sec, 1)
                    .pin("unique_tokens", stats.unique_tokens)
                    .pin("total_occurrences", stats.total_occurrences),
            )
            .obj(
                "compaction",
                Obj::inline()
                    .pin("compactions", compact_ms.len())
                    .float("wall_ms_mean", compact_mean_ms, 1)
                    .float("wall_ms_max", compact_max_ms, 1)
                    .pin("final_epoch", final_epoch),
            )
            .float("full_persist_ms", full_persist_ms, 1)
            .float(
                "durability_cost_ratio_full_persist_over_append_p50",
                cost_ratio,
                1,
            ),
    ))
}
