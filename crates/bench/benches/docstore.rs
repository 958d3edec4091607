//! Embedded document-store benchmarks: insert throughput (with and
//! without WAL) and recovery time.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use cryptext_docstore::{Database, DbOptions, Document};

fn seed_doc(i: usize) -> Document {
    Document::new()
        .with("token", format!("token{i}"))
        .with("codes", vec![format!("C{:03}", i % 97)])
        .with("count", (i % 13) as i64)
}

fn bench_docstore(c: &mut Criterion) {
    let mut group = c.benchmark_group("docstore");
    group.sample_size(20);

    group.bench_function("insert_1k_memory", |b| {
        b.iter_batched(
            || {
                let db = Database::in_memory();
                db.create_collection("t").unwrap();
                db
            },
            |db| {
                for i in 0..1_000 {
                    db.insert("t", seed_doc(i)).unwrap();
                }
                black_box(db.len("t").unwrap())
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("insert_1k_wal", |b| {
        let dir = std::env::temp_dir().join(format!("cxbench-wal-{}", std::process::id()));
        b.iter_batched(
            || {
                let _ = std::fs::remove_dir_all(&dir);
                let db = Database::open(&dir, DbOptions::default()).unwrap();
                db.create_collection("t").unwrap();
                db
            },
            |db| {
                for i in 0..1_000 {
                    db.insert("t", seed_doc(i)).unwrap();
                }
                black_box(db.len("t").unwrap())
            },
            BatchSize::SmallInput,
        );
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Recovery: replay a 5k-op WAL.
    let dir = std::env::temp_dir().join(format!("cxbench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir, DbOptions::default()).unwrap();
        db.create_collection("t").unwrap();
        for i in 0..5_000 {
            db.insert("t", seed_doc(i)).unwrap();
        }
    }
    group.bench_function("recover_5k_wal", |b| {
        b.iter(|| {
            let db = Database::open(&dir, DbOptions::default()).unwrap();
            black_box(db.len("t").unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_docstore);
criterion_main!(benches);
