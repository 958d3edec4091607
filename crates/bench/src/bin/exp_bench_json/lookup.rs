//! `BENCH_lookup.json`: Look Up at the paper default, optimized vs naive,
//! plus the database shape and ingest time.

use std::time::Instant;

use cryptext_core::{look_up_naive, look_up_with, LookupParams, LookupScratch, TokenDatabase};

use crate::doc::{Doc, Obj};
use crate::{measure, Corpus, Measured, MEASURE_ROUNDS, QUERIES, WARMUP_ROUNDS};

/// `norm_opt` is the Normalization measurement, echoed in this file's
/// `normalize_default` block.
pub fn run(corpus: &Corpus, norm_opt: &Measured) -> Doc {
    let db = corpus.cx.database();
    let stats = db.stats();
    let params = LookupParams::paper_default();
    let threads = cryptext_common::par::max_threads();

    // Ingest timing: the same corpus sequentially and in one parallel batch.
    let start = Instant::now();
    let mut db_seq = TokenDatabase::with_lexicon();
    for t in &corpus.texts {
        db_seq.ingest_text(t);
    }
    let ingest_seq_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut db_par = TokenDatabase::with_lexicon();
    db_par.ingest_texts(&corpus.texts);
    let ingest_par_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(db_seq.stats(), db_par.stats(), "parallel ingest must agree");

    let mut scratch = LookupScratch::new();
    let mut optimized = |q: &str| look_up_with(db, q, params, &mut scratch).unwrap().len();
    let mut naive = |q: &str| look_up_naive(db, q, params).unwrap().len();
    measure(&QUERIES, WARMUP_ROUNDS, &mut optimized);
    measure(&QUERIES, WARMUP_ROUNDS, &mut naive);
    let optimized = measure(&QUERIES, MEASURE_ROUNDS, optimized);
    let naive = measure(&QUERIES, MEASURE_ROUNDS, naive);
    assert_eq!(
        optimized.total_hits, naive.total_hits,
        "engines must retrieve identical result sets"
    );

    Doc::new(
        "lookup",
        Obj::block()
            .obj("corpus", Corpus::echo())
            .obj(
                "db",
                Obj::inline()
                    .info("unique_tokens", stats.unique_tokens)
                    .info("sounds_k1", stats.unique_sounds[1])
                    .info("total_occurrences", stats.total_occurrences),
            )
            .obj(
                "ingest",
                Obj::inline()
                    .float("sequential_ms", ingest_seq_ms, 1)
                    .float("parallel_batch_ms", ingest_par_ms, 1)
                    .info("threads", threads),
            )
            .obj(
                "lookup_k1_d3",
                Obj::block()
                    .obj("optimized", optimized.block("total_hits"))
                    .obj("naive", naive.block("total_hits"))
                    .float(
                        "speedup_p50_naive_over_optimized",
                        naive.p50_us / optimized.p50_us,
                        2,
                    ),
            )
            .obj(
                "normalize_default",
                Obj::block()
                    .float("texts_per_sec", norm_opt.queries_per_sec, 1)
                    .float("p50_us", norm_opt.p50_us, 2)
                    .float("p99_us", norm_opt.p99_us, 2),
            ),
    )
}
