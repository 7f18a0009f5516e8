//! Property tests for incrementally-maintained views: after any random
//! interleaving of write batches to the base relations, on every one of
//! the three backends, a differentially-maintained view equals a full
//! recomputation of its definition — and the O(1) `Relation::len`
//! counter stays equal to a full scan's count through it all.

use fundb_relational::{
    batch_transitions, derive_delta, eval_view, BatchOp, Relation, RelationName, Repr, Tuple,
    ViewDef, ViewFilter,
};
use proptest::prelude::*;

fn row(k: i64, g: i64, x: i64) -> Tuple {
    Tuple::new(vec![k.into(), g.into(), x.into()])
}

fn repr_strategy() -> impl Strategy<Value = Repr> {
    prop_oneof![
        Just(Repr::List),
        (2usize..9).prop_map(Repr::BTree),
        (2usize..9).prop_map(Repr::Paged),
    ]
}

fn op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0i64..30, 0i64..5, -20i64..20).prop_map(|(k, g, x)| BatchOp::Insert(row(k, g, x))),
        (0i64..30).prop_map(|k| BatchOp::Delete(k.into())),
        (0i64..30, 0i64..5, -20i64..20).prop_map(|(k, g, x)| BatchOp::Replace(row(k, g, x))),
    ]
}

/// A random interleaving: each batch targets the left or the right base.
fn batches_strategy() -> impl Strategy<Value = Vec<(bool, Vec<BatchOp>)>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec(op_strategy(), 1..6)),
        1..12,
    )
}

/// One of every view kind, over bases `L` (and `R` for the joins). Two
/// join shapes: the key-key join (affected left keys found by key
/// lookup) and the nonkey-nonkey join (found by scanning the left side).
fn all_defs() -> Vec<ViewDef> {
    vec![
        ViewDef::Select {
            base: "L".into(),
            filter: Some(ViewFilter::And(
                Box::new(ViewFilter::Gt(2, 0.into())),
                Box::new(ViewFilter::Ne(1, 3.into())),
            )),
        },
        ViewDef::GroupCount {
            base: "L".into(),
            group: 1,
        },
        ViewDef::GroupSum {
            base: "L".into(),
            field: 2,
            group: 1,
        },
        ViewDef::Join {
            left: "L".into(),
            right: "R".into(),
            left_field: 0,
            right_field: 2,
        },
        ViewDef::Join {
            left: "L".into(),
            right: "R".into(),
            left_field: 1,
            right_field: 1,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Maintain every view kind differentially through a random batch
    /// interleaving; after every batch, each view must equal a fresh
    /// evaluation of its definition over the current bases, on every
    /// backend, with an exact length counter.
    #[test]
    fn views_track_recompute_across_backends(
        repr in repr_strategy(),
        batches in batches_strategy(),
    ) {
        let mut left = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 4, k)));
        let mut right = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 3, 2 * k)));
        let defs = all_defs();
        let mut views: Vec<Relation> = defs
            .iter()
            .map(|d| {
                let r = matches!(d, ViewDef::Join { .. }).then_some(&right);
                Relation::from_tuples(repr, eval_view(d, &left, r))
            })
            .collect();
        for (is_left, ops) in batches {
            let name: RelationName = if is_left { "L" } else { "R" }.into();
            let base = if is_left { &left } else { &right };
            let ts = batch_transitions(base, &ops);
            let (next, _, _) = base.apply_batch(&ops);
            // Derive deltas against the *pre-batch* view values and the
            // other side's current (unchanged) value — the same contract
            // the engine's commit path upholds.
            for (d, v) in defs.iter().zip(views.iter_mut()) {
                if !d.depends_on(&name) {
                    continue;
                }
                let other = match d {
                    ViewDef::Join { .. } => Some(if is_left { &right } else { &left }),
                    _ => None,
                };
                let delta = derive_delta(d, &name, v, &ts, other);
                *v = v.apply_transitions(&delta);
            }
            if is_left {
                left = next;
            } else {
                right = next;
            }
            for (d, v) in defs.iter().zip(views.iter()) {
                let r = matches!(d, ViewDef::Join { .. }).then_some(&right);
                let mut want = eval_view(d, &left, r);
                let mut got = v.scan();
                want.sort();
                got.sort();
                prop_assert_eq!(&got, &want, "{:?}: view diverged from recompute after a batch", repr);
                prop_assert_eq!(v.len(), got.len(), "{:?}: view length counter drifted", repr);
            }
        }
    }

    /// The O(1) length counter equals a full scan's count after every
    /// batch, for every backend — inserts of duplicate keys, deletes of
    /// absent keys, and replaces included.
    #[test]
    fn len_counter_matches_scan_on_every_backend(
        repr in repr_strategy(),
        batches in prop::collection::vec(prop::collection::vec(op_strategy(), 1..8), 1..10),
    ) {
        let mut rel = Relation::from_tuples(repr, (0..10).map(|k| row(k, k % 4, k)));
        prop_assert_eq!(rel.len(), rel.scan().len());
        for ops in batches {
            let (next, _, _) = rel.apply_batch(&ops);
            rel = next;
            prop_assert_eq!(rel.len(), rel.scan().len(), "{:?}", repr);
        }
    }
}
