//! Persistent-structure operation costs: the list the paper measured vs the
//! tree it projected (Section 2.2's `(log n)/n` copying bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fundb_persist::{BTree, PList};

fn bench_persist(c: &mut Criterion) {
    // Print the copying fractions the structures actually achieve.
    let n = 4096u32;
    let list: PList<u32> = (0..n).collect();
    println!("copying fraction for one insert at n = {n}:");
    println!("  list  : {}", list.insert_sorted_counted(n / 2).1);
    // A B-tree insert is a one-effect merge_batch. Bulk loading fills every
    // page, so the insert splits its degree-16 leaf and every full page
    // above it, each split repaired in place.
    let full: BTree<u32, u32> = BTree::from_sorted_entries(16, (0..n).map(|k| (k * 2, k)));
    println!(
        "  B-tree: {} (degree 16, height {}, into a full leaf)",
        full.insert_counted(1, 0).1,
        full.height()
    );

    let mut group = c.benchmark_group("persist_insert");
    for size in [256u32, 4096] {
        let list: PList<u32> = (0..size).collect();
        group.bench_with_input(BenchmarkId::new("list_mid", size), &list, |b, l| {
            b.iter(|| l.insert_sorted(size / 2).len());
        });
        let bt: BTree<u32, u32> = (0..size).map(|k| (k, k)).collect();
        group.bench_with_input(BenchmarkId::new("btree", size), &bt, |b, t| {
            b.iter(|| t.insert(size / 2, 0).len());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("persist_lookup");
    let size = 4096u32;
    let list: PList<u32> = (0..size).collect();
    group.bench_function("list_scan", |b| {
        b.iter(|| list.iter().position(|&x| x == size - 1));
    });
    let bt: BTree<u32, u32> = (0..size).map(|k| (k, k)).collect();
    group.bench_function("btree_get", |b| b.iter(|| *bt.get(&(size - 1)).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
