//! `BENCH_normalize.json`: default Normalization, the zero-copy
//! scratch-reusing engine vs the kept naive reference, on identical texts.

use cryptext_core::{NormalizeParams, NormalizeScratch, Normalizer};

use crate::doc::{Doc, Obj};
use crate::{measure, Corpus, Measured, NORM_ROUNDS, NORM_TEXTS};

/// The file, and the optimized engine's measurement for `BENCH_lookup.json`.
pub fn run(corpus: &Corpus) -> (Doc, Measured) {
    let db = corpus.cx.database();
    let texts = corpus.norm_texts();
    let params = NormalizeParams::default();
    let normalizer = Normalizer::new(corpus.cx.language_model());
    let mut scratch = NormalizeScratch::new();
    let mut optimized = |t: &str| normalizer.normalize_with(db, t, params, &mut scratch);
    let naive = |t: &str| normalizer.normalize_naive(db, t, params);
    for t in &texts {
        let (fast, slow) = (optimized(t).unwrap(), naive(t).unwrap());
        assert_eq!(fast, slow, "normalization engines must agree on {t:?}");
    }

    let optimized = measure(&texts, NORM_ROUNDS, |t| {
        optimized(t).unwrap().corrections.len()
    });
    let naive = measure(&texts, NORM_ROUNDS, |t| naive(t).unwrap().corrections.len());
    assert_eq!(
        optimized.total_hits, naive.total_hits,
        "engines must produce identical corrections"
    );

    let doc = Doc::new(
        "normalize",
        Obj::block()
            .obj(
                "corpus",
                Corpus::echo()
                    .info("texts", NORM_TEXTS)
                    .info("rounds", NORM_ROUNDS),
            )
            .obj(
                "normalize_default",
                Obj::block()
                    .obj("optimized", optimized.block("corrections_total"))
                    .obj("naive", naive.block("corrections_total"))
                    .float(
                        "speedup_p50_naive_over_optimized",
                        naive.p50_us / optimized.p50_us,
                        2,
                    ),
            ),
    );
    (doc, optimized)
}
