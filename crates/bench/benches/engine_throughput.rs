//! Pipelined-engine scaling: the same mixed workload across worker counts.
//!
//! The paper's claim is that concurrency emerges from data dependencies
//! alone; this measures how much real wall-clock parallelism the lenient
//! engine extracts on a workload over several independent relations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fundb_bench::txn;
use fundb_core::PipelinedEngine;
use fundb_query::Transaction;
use fundb_relational::{Database, Repr};

fn workload() -> (Database, Vec<Transaction>) {
    let mut db = Database::empty();
    for r in 0..4 {
        db = db
            .create_relation(format!("R{r}").as_str(), Repr::List)
            .expect("fresh names");
    }
    let txns = (0..400)
        .map(|i| {
            let rel = format!("R{}", i % 4);
            if i % 5 == 0 {
                txn(&format!("insert {i} into {rel}"))
            } else {
                txn(&format!("find {} in {rel}", i / 2))
            }
        })
        .collect();
    (db, txns)
}

fn engine_throughput(c: &mut Criterion) {
    let (db, txns) = workload();
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("mixed_400", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let engine = PipelinedEngine::new(workers, &db);
                    engine.run(txns.clone()).len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
