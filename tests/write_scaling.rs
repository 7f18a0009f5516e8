//! Writes cost what they copy: the time of a single-key write, of a short
//! batch and of an indexed write must not grow with the relation.
//!
//! A tree write rebuilds one root-to-leaf path (§2.2), so the same writes
//! on a relation 64 times larger should take O(log n) longer plus cache
//! misses — a factor of 2–4. Any O(rows) step on a write path (a walk that
//! measures sharing, a recount, a rebuild) shows as a factor of 30 or more.
//! The bound sits between the two.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fundb::relational::batch::BatchOp;
use fundb::relational::{Relation, Repr, Tuple};

const SMALL_ROWS: i64 = 4_000;
const LARGE_ROWS: i64 = 256_000;
const WRITES: i64 = 2_000;
const MAX_RATIO: f64 = 12.0;

/// Row `i` of a relation: an even key, and a group shared by four
/// neighbouring rows, so an index posting stays four keys long whatever
/// the relation's size.
fn row(i: i64, tag: i64) -> Tuple {
    Tuple::new(vec![(2 * i).into(), (i / 4).into(), tag.into()])
}

/// `rows` rows, loaded through the bulk path, with an index on the group.
fn loaded(repr: Repr, rows: i64) -> (Relation, Relation) {
    let ops: Vec<BatchOp> = (0..rows).map(|i| BatchOp::Insert(row(i, 0))).collect();
    let (plain, _, _) = Relation::empty(repr).apply_batch(&ops);
    let indexed = plain.create_index("by_group", 1).expect("fresh name");
    (plain, indexed)
}

/// The rows the `WRITES` writes address: the same sequence on every
/// relation size, spread over the whole key space, no row twice.
fn targets(rows: i64) -> impl Iterator<Item = i64> {
    let stride = rows / SMALL_ROWS;
    (0..WRITES).map(move |w| (w * 7_919 % SMALL_ROWS) * stride)
}

fn best_of_three(mut run: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .expect("three runs")
}

/// Times each kind of write against the loaded state (every write sees
/// exactly `rows` rows; the successor value is dropped).
fn timings(repr: Repr, rows: i64) -> Vec<(&'static str, Duration)> {
    let (plain, indexed) = loaded(repr, rows);
    let fresh = |i: i64| Tuple::new(vec![(2 * i + 1).into(), (i / 4).into(), 1.into()]);
    let replace = |rel: &Relation, i: i64| {
        let (gone, _, _) = rel.delete(&(2 * i).into());
        black_box(gone.insert(row(i, 1)));
    };
    let batches: Vec<Vec<BatchOp>> = targets(rows)
        .map(|i| match i % 3 {
            0 => BatchOp::Insert(fresh(i)),
            1 => BatchOp::Delete((2 * i).into()),
            _ => BatchOp::Replace(row(i, 1)),
        })
        .collect::<Vec<_>>()
        .chunks(8)
        .map(<[BatchOp]>::to_vec)
        .collect();
    vec![
        (
            "insert",
            best_of_three(|| targets(rows).for_each(|i| drop(black_box(plain.insert(fresh(i)))))),
        ),
        (
            "delete",
            best_of_three(|| {
                targets(rows).for_each(|i| drop(black_box(plain.delete(&(2 * i).into()))))
            }),
        ),
        (
            "replace",
            best_of_three(|| targets(rows).for_each(|i| replace(&plain, i))),
        ),
        (
            "apply_batch of 8",
            best_of_three(|| {
                batches
                    .iter()
                    .for_each(|ops| drop(black_box(plain.apply_batch(ops))))
            }),
        ),
        (
            "indexed replace",
            best_of_three(|| targets(rows).for_each(|i| replace(&indexed, i))),
        ),
    ]
}

#[test]
fn write_time_does_not_grow_with_the_relation() {
    let repr = Repr::TREE;
    let small = timings(repr, SMALL_ROWS);
    let large = timings(repr, LARGE_ROWS);
    for ((kind, small), (_, large)) in small.into_iter().zip(large) {
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        println!(
            "{repr}: {kind}: {small:?} at {SMALL_ROWS} rows, {large:?} at {LARGE_ROWS} rows, ratio {ratio:.1}"
        );
        assert!(
            ratio < MAX_RATIO,
            "{repr}: {WRITES} x {kind} took {large:?} on {LARGE_ROWS} rows against {small:?} \
             on {SMALL_ROWS} rows ({ratio:.1} times as long; a path copy stays under \
             {MAX_RATIO})"
        );
    }
}
