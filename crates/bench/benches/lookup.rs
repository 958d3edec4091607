//! Look Up latency: cold queries against the database vs cache-served
//! queries through the service facade (the Redis-role measurement that
//! justifies Fig. 5's cache box).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cryptext_bench::{build_db, build_platform};
use cryptext_core::lookup::hits_of;
use cryptext_core::service::{CryptextService, ServiceConfig};
use cryptext_core::{look_up, look_up_naive, look_up_with, CrypText, LookupParams, LookupScratch};

fn bench_lookup(c: &mut Criterion) {
    let platform = build_platform(4_000, 7);
    let db = build_db(&platform);
    let queries = ["democrats", "republicans", "vaccine", "suicide", "muslim"];

    let mut group = c.benchmark_group("lookup");
    group.bench_function("db_cold_k1_d3", |b| {
        b.iter(|| {
            for q in queries {
                black_box(look_up(&db, black_box(q), LookupParams::paper_default()).unwrap());
            }
        })
    });
    // The pre-optimization path, kept as the regression baseline: the
    // read-optimized engine above must beat this by a wide margin in the
    // same run (see BENCH_lookup.json for the tracked ratio).
    group.bench_function("db_cold_k1_d3_naive", |b| {
        b.iter(|| {
            for q in queries {
                black_box(look_up_naive(&db, black_box(q), LookupParams::paper_default()).unwrap());
            }
        })
    });
    group.bench_function("db_cold_k1_d3_scratch_reuse", |b| {
        let mut scratch = LookupScratch::new();
        b.iter(|| {
            for q in queries {
                black_box(
                    look_up_with(
                        &db,
                        black_box(q),
                        LookupParams::paper_default(),
                        &mut scratch,
                    )
                    .unwrap(),
                );
            }
        })
    });
    group.bench_function("db_cold_k0_d4_worstcase", |b| {
        b.iter(|| {
            for q in queries {
                black_box(look_up(&db, black_box(q), LookupParams::new(0, 4)).unwrap());
            }
        })
    });

    let platform2 = build_platform(4_000, 7);
    let service = CryptextService::new(
        CrypText::new(build_db(&platform2)),
        ServiceConfig {
            rate_limit_per_minute: u32::MAX,
            ..ServiceConfig::default()
        },
        cryptext_common::system_clock(),
    );
    let token = service.issue_token("bench");
    // One served Look Up: the token gate, the tier-1 entry, its owned hits.
    let params = LookupParams::paper_default();
    let served = |q: &str| {
        service.authorize_request(&token).unwrap();
        let (entry, _) = service.look_up_shared(q, params, &mut || None).unwrap();
        hits_of(service.system().database(), entry.hits())
    };
    // Warm the cache.
    for q in queries {
        served(q);
    }
    group.bench_function("service_cached", |b| {
        b.iter(|| {
            for q in queries {
                black_box(served(black_box(q)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
