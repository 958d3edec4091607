//! Phonetic-encoding microbenchmarks: classic vs customized Soundex.
//! The encoder sits on the ingest hot path (every token, every level).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cryptext_phonetics::{classic_soundex, CustomSoundex};

const TOKENS: &[&str] = &[
    "the",
    "democrats",
    "repubLIEcans",
    "republic@@ns",
    "suic1de",
    "internationalization",
    "dem0cr@ts",
    "porrrrn",
    "mus-lim",
    "vãccine",
];

fn bench_soundex(c: &mut Criterion) {
    let mut group = c.benchmark_group("soundex");

    group.bench_function("classic", |b| {
        b.iter(|| {
            for t in TOKENS {
                black_box(classic_soundex(black_box(t)));
            }
        })
    });

    for k in 0..=2usize {
        let sx = CustomSoundex::new(k);
        group.bench_function(format!("custom_k{k}_encode"), |b| {
            b.iter(|| {
                for t in TOKENS {
                    black_box(sx.encode(black_box(t)));
                }
            })
        });
    }

    let sx = CustomSoundex::new(1);
    group.bench_function("custom_k1_encode_all", |b| {
        b.iter(|| {
            for t in TOKENS {
                black_box(sx.encode_all(black_box(t)));
            }
        })
    });

    // What the token database runs per new record: every level at once.
    let levels = [0, 1, 2].map(CustomSoundex::new);
    group.bench_function("custom_all_levels", |b| {
        b.iter(|| {
            for t in TOKENS {
                black_box(CustomSoundex::encode_all_levels(&levels, black_box(t)));
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_soundex);
criterion_main!(benches);
