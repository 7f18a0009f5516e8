//! Randomized equivalence tests for the structural batch-merge kernels.
//!
//! `Relation::apply_batch` must be observationally identical to a model
//! built from std types that applies the same operations one at a time,
//! for every representation: same final contents in the same iteration
//! order, and the same per-op outcome (inserted / number of tuples a
//! delete removed). The generated runs deliberately include duplicate
//! keys, deletes of absent keys, and `Replace` ops (the engine's
//! delete-then-insert pairs) mixed into one batch.
//!
//! Separately, the copy-bound acceptance check: at k=256 ops into an
//! n=10 000-key relation, the one-pass kernel must copy at most half the
//! nodes that k single-tuple inserts copy, on a small- and a larger-degree
//! B-tree.

use fundb::relational::batch::{BatchOp, BatchOutcome};
use fundb::relational::{Relation, Repr, Store, Tuple, Value};
use proptest::prelude::*;

fn all_reprs() -> Vec<Repr> {
    vec![Repr::List, Repr::BTree(4)]
}

fn tup(k: i64, tag: u8) -> Tuple {
    Tuple::new(vec![k.into(), (tag as i64).into()])
}

/// Reference semantics from std types alone: `base`'s rows in a `Vec`, ops
/// applied one at a time (a delete drops every row of its key, an insert
/// appends), then laid out in `repr`'s scan order — key order keeping
/// arrival order within a key on the B-tree, row order on the list.
fn model(repr: Repr, base: &Relation, ops: &[BatchOp]) -> (Vec<Tuple>, Vec<BatchOutcome>) {
    let mut rows = base.scan();
    let mut outcomes = Vec::new();
    for op in ops {
        let held = rows.len();
        if !matches!(op, BatchOp::Insert(_)) {
            rows.retain(|t| t.key() != op.key());
        }
        match op {
            BatchOp::Delete(_) => outcomes.push(BatchOutcome::Deleted(held - rows.len())),
            BatchOp::Insert(t) | BatchOp::Replace(t) => {
                rows.push(t.clone());
                outcomes.push(BatchOutcome::Inserted);
            }
        }
    }
    match repr {
        Repr::List => rows.sort(),
        Repr::BTree(_) => rows.sort_by(|a, b| a.key().cmp(b.key())),
    }
    (rows, outcomes)
}

/// A B-tree store's pages are legal; the other stores have no page
/// invariant to break.
fn store_is_legal(rel: &Relation) -> bool {
    match rel.store() {
        Store::BTree(t) => t.check_invariants(),
        _ => true,
    }
}

#[derive(Debug, Clone)]
enum OpKind {
    Insert,
    Delete,
    Replace,
}

fn batch_ops() -> impl Strategy<Value = Vec<(OpKind, i64, u8)>> {
    // Keys drawn from a small space so duplicate keys (several ops against
    // one key in a single batch) are common, not rare.
    prop::collection::vec(
        (
            prop_oneof![
                Just(OpKind::Insert),
                Just(OpKind::Delete),
                Just(OpKind::Replace),
            ],
            0i64..24,
            any::<u8>(),
        ),
        0..60,
    )
}

fn to_ops(raw: &[(OpKind, i64, u8)]) -> Vec<BatchOp> {
    raw.iter()
        .map(|(kind, k, tag)| match kind {
            OpKind::Insert => BatchOp::Insert(tup(*k, *tag)),
            OpKind::Delete => BatchOp::Delete(Value::from(*k)),
            OpKind::Replace => BatchOp::Replace(tup(*k, *tag)),
        })
        .collect()
}

proptest! {
    #[test]
    fn apply_batch_matches_the_sequential_model(
        seed_keys in prop::collection::vec(0i64..24, 0..40),
        raw in batch_ops(),
    ) {
        let ops = to_ops(&raw);
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, seed_keys.iter().map(|&k| tup(k, 0)));
            let (batched, outcomes, _) = base.apply_batch(&ops);
            let (rows, model_outcomes) = model(repr, &base, &ops);
            prop_assert_eq!(&outcomes, &model_outcomes, "{} outcomes", repr);
            // scan() exposes iteration order (key order, arrival order
            // within a key on the B-tree), so equality here covers
            // contents AND order.
            prop_assert_eq!(batched.scan(), rows.clone(), "{} contents", repr);
            prop_assert_eq!(batched.len(), rows.len(), "{} len", repr);
            prop_assert!(store_is_legal(&batched), "{} pages", repr);
            // The base version is untouched (persistence).
            prop_assert_eq!(base.len(), seed_keys.len(), "{} persistence", repr);
        }
    }

    #[test]
    fn replace_pairs_and_duplicates_in_one_batch(
        key in 0i64..8,
        tags in prop::collection::vec(any::<u8>(), 2..10),
    ) {
        // Every op targets ONE key: the worst case for per-key fold order.
        let mut ops = Vec::new();
        for (i, tag) in tags.iter().enumerate() {
            match i % 3 {
                0 => ops.push(BatchOp::Insert(tup(key, *tag))),
                1 => ops.push(BatchOp::Replace(tup(key, *tag))),
                _ => ops.push(BatchOp::Delete(Value::from(key))),
            }
        }
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, vec![tup(key, 255)]);
            let (batched, outcomes, _) = base.apply_batch(&ops);
            let (rows, model_outcomes) = model(repr, &base, &ops);
            prop_assert_eq!(&outcomes, &model_outcomes, "{} outcomes", repr);
            prop_assert_eq!(batched.scan(), rows, "{} contents", repr);
        }
    }
}

/// merge_batch's CopyReport shows at least 2x fewer copied nodes than k
/// one-insert batches at k=256, n=10_000, on small-degree B-trees and
/// on the language's `tree` (degree 16), whose full bulk-loaded pages split
/// under the run.
#[test]
fn batch_copy_bound_at_k256_n10k() {
    for repr in [Repr::BTree(2), Repr::BTree(4), Repr::TREE] {
        // n = 10_000 even keys, bulk-loaded.
        let base = Relation::from_tuples(repr, (0..10_000).map(|k| tup(k * 2, 0)));
        // k = 256 fresh odd keys in one contiguous region — the shape of a
        // coalesced write run, where neighbouring ops share spine paths.
        let ops: Vec<BatchOp> = (0..256)
            .map(|i| BatchOp::Insert(tup(8_000 + i * 2 + 1, 1)))
            .collect();
        let (batched, _, report) = base.apply_batch(&ops);

        let mut singles = 0u64;
        let mut cur = base.clone();
        for op in &ops {
            if let BatchOp::Insert(t) = op {
                let (next, r) = cur.insert(t.clone());
                singles += r.copied;
                cur = next;
            }
        }
        assert_eq!(batched.scan(), cur.scan(), "{repr}: same result");
        assert!(
            report.copied * 2 <= singles,
            "{repr}: batch copied {} nodes, singles copied {} — need >= 2x reduction",
            report.copied,
            singles
        );
    }
}
