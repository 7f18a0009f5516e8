//! Property tests for incrementally-maintained views: after any random
//! interleaving of write batches to the base relations, on each of the
//! three backends, a differentially-maintained view equals a full
//! recomputation of its definition — and the O(1) `Relation::len`
//! counter stays equal to a full scan's count through it all.

use fundb_relational::{
    batch_transitions, derive_delta, eval_view, BatchOp, Relation, RelationName, Repr, Tuple,
    ViewDef, ViewFilter,
};
use proptest::prelude::*;

/// A base row. The last field sits near `i64::MAX`, so a sum over it
/// wraps as soon as a group holds two rows.
fn row(k: i64, g: i64, x: i64) -> Tuple {
    Tuple::new(vec![
        k.into(),
        g.into(),
        x.into(),
        (i64::MAX - 32 + x).into(),
    ])
}

fn repr_strategy() -> impl Strategy<Value = Repr> {
    prop_oneof![Just(Repr::List), (2usize..9).prop_map(Repr::BTree),]
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

/// One of every view kind, over bases `L` (and `R` for the joins). The
/// join shapes cover each way a delta finds its matches: the key-key join
/// (key lookup), the nonkey-nonkey join (a scan), the join on `L`'s
/// indexed field (an index probe), and the self-join (both deltas at
/// once). The second sum wraps on overflow.
fn all_defs() -> Vec<ViewDef> {
    let join = |left: &str, right: &str, left_field, right_field| ViewDef::Join {
        left: left.into(),
        right: right.into(),
        left_field,
        right_field,
    };
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
        ViewDef::GroupSum {
            base: "L".into(),
            field: 3,
            group: 1,
        },
        join("L", "R", 0, 2),
        join("L", "R", 1, 1),
        join("L", "R", L_INDEX, 2),
        join("L", "L", 1, 1),
    ]
}

/// `L`'s secondary index, on the field the indexed-left join reads.
const L_INDEX: usize = 2;

/// The relations a definition reads, as [`eval_view`] takes them.
fn operands<'a>(def: &ViewDef, left: &'a Relation, right: &'a Relation) -> Option<&'a Relation> {
    match def {
        ViewDef::Join { right: r, .. } if r.as_str() == "L" => Some(left),
        ViewDef::Join { .. } => Some(right),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Maintain every view kind differentially through a random batch
    /// interleaving; after every batch, each view must equal a fresh
    /// evaluation of its definition over the current bases, on each
    /// backend, with an exact length counter.
    #[test]
    fn views_track_recompute_across_backends(
        degree in 2usize..9,
        batches in batches_strategy(),
    ) {
        for repr in [Repr::List, Repr::BTree(degree)] {
            let mut left = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 4, k)))
                .create_index("l_by_x", L_INDEX)
                .unwrap();
            let mut right = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 3, 2 * k)));
            let defs = all_defs();
            let mut views: Vec<Relation> = defs
                .iter()
                .map(|d| Relation::from_tuples(repr, eval_view(d, &left, operands(d, &left, &right))))
                .collect();
            for (is_left, ops) in &batches {
                let name: RelationName = if *is_left { "L" } else { "R" }.into();
                let base = if *is_left { &left } else { &right };
                let ts = batch_transitions(base, ops);
                let (next, _, _) = base.apply_batch(ops);
                if *is_left {
                    left = next;
                } else {
                    right = next;
                }
                // Derive deltas against the *pre-batch* view values and the
                // join's other side at its post-write value — for a
                // self-join the new base — the contract `Database::write`
                // upholds.
                for (d, v) in defs.iter().zip(views.iter_mut()) {
                    if !d.depends_on(&name) {
                        continue;
                    }
                    let other = match d {
                        ViewDef::Join { left: l, right: r, .. } => {
                            let side = if *l == name { r } else { l };
                            Some(if side.as_str() == "L" { &left } else { &right })
                        }
                        _ => None,
                    };
                    let delta = derive_delta(d, &name, v, &ts, other);
                    *v = v.apply_transitions(&delta);
                }
                for (d, v) in defs.iter().zip(views.iter()) {
                    let mut want = eval_view(d, &left, operands(d, &left, &right));
                    let mut got = v.scan();
                    want.sort();
                    got.sort();
                    prop_assert_eq!(&got, &want, "{:?} {}: view diverged from recompute after a batch", repr, d);
                    prop_assert_eq!(v.len(), got.len(), "{:?} {}: view length counter drifted", repr, d);
                }
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
