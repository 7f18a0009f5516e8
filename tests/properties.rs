//! Property-based tests on the system's core invariants.

use std::collections::BTreeMap;

use fundb::persist::{BTree, PList};
use fundb::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Persistent structures vs a std reference model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u16),
    Remove(u16),
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k % 64, v)),
            any::<u16>().prop_map(|k| MapOp::Remove(k % 64)),
        ],
        0..120,
    )
}

proptest! {
    #[test]
    fn btree_batches_match_btreemap(
        ops in map_ops(),
        sizes in prop::collection::vec(1usize..17, 1..121),
        degree in prop_oneof![2usize..6, Just(16usize)],
    ) {
        // The ops land as ascending, deduplicated `merge_batch` runs of
        // 1–16 effects; a key's last op in a run is the one that counts.
        let mut model = BTreeMap::new();
        let mut tree: BTree<u16, u16> = BTree::new(degree);
        let mut ops = ops.into_iter();
        for size in sizes.into_iter().cycle() {
            let mut run: BTreeMap<u16, Option<u16>> = BTreeMap::new();
            for op in ops.by_ref().take(size) {
                match op {
                    MapOp::Insert(k, v) => run.insert(k, Some(v)),
                    MapOp::Remove(k) => run.insert(k, None),
                };
            }
            if run.is_empty() {
                break;
            }
            for (k, eff) in &run {
                match eff {
                    Some(v) => model.insert(*k, *v),
                    None => model.remove(k),
                };
            }
            let batch: Vec<(u16, Option<u16>)> = run.into_iter().collect();
            tree = tree.merge_batch(&batch).0;
            prop_assert!(tree.check_invariants());
            prop_assert_eq!(tree.len(), model.len());
            let got: Vec<(u16, u16)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u16, u16)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn btree_matches_btreemap(ops in map_ops(), degree in 2usize..6) {
        let mut model = BTreeMap::new();
        let mut tree: BTree<u16, u16> = BTree::new(degree);
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    tree = tree.insert(k, v);
                    model.insert(k, v);
                }
                MapOp::Remove(k) => {
                    let got = tree.remove(&k);
                    let want = model.remove(&k);
                    prop_assert_eq!(got.as_ref().map(|(_, v)| *v), want);
                    if let Some((t, _)) = got {
                        tree = t;
                    }
                }
            }
        }
        prop_assert!(tree.check_invariants());
        let got: Vec<(u16, u16)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u16)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn plist_insert_sorted_keeps_order_and_persistence(
        initial in prop::collection::vec(any::<i32>(), 0..60),
        extra in prop::collection::vec(any::<i32>(), 0..20),
    ) {
        let mut sorted = initial.clone();
        sorted.sort();
        let base: PList<i32> = sorted.iter().cloned().collect();
        let mut cur = base.clone();
        for x in &extra {
            let (next, report) = cur.insert_sorted_counted(*x);
            prop_assert!(next.is_sorted());
            prop_assert_eq!(next.len(), cur.len() + 1);
            prop_assert_eq!(report.total() as usize, next.len());
            cur = next;
        }
        // The base version never changed.
        prop_assert_eq!(base.iter().cloned().collect::<Vec<_>>(), sorted);
    }
}

// ---------------------------------------------------------------------------
// Relation/database semantics vs a reference model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DbOp {
    Insert(u8, i64),
    Delete(u8, i64),
    Find(u8, i64),
}

fn db_ops() -> impl Strategy<Value = Vec<DbOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), 0i64..30).prop_map(|(r, k)| DbOp::Insert(r % 3, k)),
            (any::<u8>(), 0i64..30).prop_map(|(r, k)| DbOp::Delete(r % 3, k)),
            (any::<u8>(), 0i64..30).prop_map(|(r, k)| DbOp::Find(r % 3, k)),
        ],
        0..80,
    )
}

/// One step of an index-maintenance interleaving: the op, plus whether it
/// runs alone as a one-op write (`true`) or accumulates into a run flushed
/// as one batch (`false`).
#[derive(Debug, Clone)]
enum IxOp {
    Insert(i64, i64),
    Delete(i64),
    Replace(i64, i64),
}

fn ix_ops() -> impl Strategy<Value = Vec<(IxOp, bool)>> {
    prop::collection::vec(
        (
            prop_oneof![
                (0i64..24, 0i64..6).prop_map(|(k, g)| IxOp::Insert(k, g)),
                (0i64..24).prop_map(IxOp::Delete),
                (0i64..24, 0i64..6).prop_map(|(k, g)| IxOp::Replace(k, g)),
            ],
            any::<bool>(),
        ),
        0..60,
    )
}

/// Like [`IxOp`], with a third attribute so a composite index over
/// `(#1, #2)` and an equi-join over `#1` have real work to do.
#[derive(Debug, Clone)]
enum PlanOp {
    Insert(i64, i64, i64),
    Delete(i64),
    Replace(i64, i64, i64),
}

fn plan_ops() -> impl Strategy<Value = Vec<(PlanOp, bool)>> {
    prop::collection::vec(
        (
            prop_oneof![
                (0i64..24, 0i64..5, 0i64..3).prop_map(|(k, g, h)| PlanOp::Insert(k, g, h)),
                (0i64..24).prop_map(PlanOp::Delete),
                (0i64..24, 0i64..5, 0i64..3).prop_map(|(k, g, h)| PlanOp::Replace(k, g, h)),
            ],
            any::<bool>(),
        ),
        0..60,
    )
}

proptest! {
    #[test]
    fn database_matches_multiset_model(ops in db_ops(), use_tree in any::<bool>()) {
        let repr = if use_tree { Repr::BTree(2) } else { Repr::List };
        let mut db = Database::empty();
        for r in 0..3 {
            db = db.create_relation(format!("R{r}").as_str(), repr).unwrap();
        }
        let mut model: Vec<BTreeMap<i64, usize>> = vec![BTreeMap::new(); 3];
        for op in ops {
            match op {
                DbOp::Insert(r, k) => {
                    let name: RelationName = format!("R{r}").as_str().into();
                    let (next, _) = db.insert(&name, Tuple::of_key(k)).unwrap();
                    db = next;
                    *model[r as usize].entry(k).or_insert(0) += 1;
                }
                DbOp::Delete(r, k) => {
                    let name: RelationName = format!("R{r}").as_str().into();
                    let (next, removed) = db.delete(&name, &k.into()).unwrap();
                    db = next;
                    let expected = model[r as usize].remove(&k).unwrap_or(0);
                    prop_assert_eq!(removed.len(), expected);
                }
                DbOp::Find(r, k) => {
                    let name: RelationName = format!("R{r}").as_str().into();
                    let found = db.find(&name, &k.into()).unwrap();
                    let expected = model[r as usize].get(&k).copied().unwrap_or(0);
                    prop_assert_eq!(found.len(), expected);
                }
            }
        }
        let total: usize = model.iter().map(|m| m.values().sum::<usize>()).sum();
        prop_assert_eq!(db.tuple_count(), total);
    }

    #[test]
    fn apply_stream_equals_left_fold(keys in prop::collection::vec(0i64..50, 0..40)) {
        let db = Database::empty().create_relation("R", Repr::List).unwrap();
        let txns: Vec<Transaction> = keys
            .iter()
            .map(|k| translate(parse(&format!("insert {k} into R")).unwrap()))
            .collect();
        // Left fold.
        let mut folded = db.clone();
        let mut expected = Vec::new();
        for t in &txns {
            let (r, next) = t.apply(&folded);
            expected.push(r);
            folded = next;
        }
        // apply-stream.
        let stream: Stream<Transaction> = txns.into_iter().collect();
        let (responses, versions) = apply_stream(stream, db);
        prop_assert_eq!(responses.collect_vec(), expected);
        let last = versions.collect_vec().into_iter().last();
        if let Some(last) = last {
            prop_assert_eq!(last.tuple_count(), folded.tuple_count());
        }
    }

    #[test]
    fn query_display_parse_round_trip(key in 0i64..1000, name in "[A-Za-z][A-Za-z0-9]{0,6}") {
        for q in [
            format!("insert {key} into {name}"),
            format!("find {key} in {name}"),
            format!("delete {key} from {name}"),
            format!("count {name}"),
            format!("select from {name} where #0 = {key}"),
        ] {
            // Keywords are reserved only at the head; a relation named e.g.
            // "insert" is legal, so any generated name round-trips.
            let ast = parse(&q).unwrap();
            prop_assert_eq!(parse(&ast.to_string()).unwrap(), ast);
        }
    }

    #[test]
    fn index_assisted_select_equals_full_scan_on_every_backend(
        ops in ix_ops(),
    ) {
        use fundb::query::{apply_select, execute_select, FieldRef, Predicate};
        use fundb::relational::BatchOp;

        for repr in [Repr::List, Repr::BTree(3)] {
            let mut indexed = Relation::empty(repr)
                .create_index("by_group", 1)
                .expect("fresh relation has no index yet");
            let mut plain = Relation::empty(repr);
            let mut pending: Vec<BatchOp> = Vec::new();

            let flush = |indexed: &mut Relation,
                         plain: &mut Relation,
                         pending: &mut Vec<BatchOp>| {
                if pending.is_empty() {
                    return;
                }
                let (next, _, _) = indexed.apply_batch(pending);
                *indexed = next;
                let (next, _, _) = plain.apply_batch(pending);
                *plain = next;
                pending.clear();
            };

            for (op, boundary) in &ops {
                let bop = match op {
                    IxOp::Insert(k, g) => {
                        BatchOp::Insert(Tuple::new(vec![(*k).into(), (*g).into()]))
                    }
                    IxOp::Delete(k) => BatchOp::Delete((*k).into()),
                    IxOp::Replace(k, g) => {
                        BatchOp::Replace(Tuple::new(vec![(*k).into(), (*g).into()]))
                    }
                };
                if *boundary {
                    // Tuple-at-a-time path: insert/delete maintain indexes.
                    flush(&mut indexed, &mut plain, &mut pending);
                    let (i2, _, _) = indexed.apply_batch(std::slice::from_ref(&bop));
                    let (p2, _, _) = plain.apply_batch(&[bop]);
                    indexed = i2;
                    plain = p2;
                } else {
                    pending.push(bop);
                }
            }
            flush(&mut indexed, &mut plain, &mut pending);

            // Index maintenance must never perturb the store itself.
            prop_assert_eq!(indexed.scan(), plain.scan(), "{:?}", repr);

            let mut predicates: Vec<Predicate> = (0..6)
                .map(|g| Predicate::FieldEq(FieldRef::Index(1), Value::from(g)))
                .collect();
            predicates.push(Predicate::And(
                Box::new(Predicate::FieldGt(FieldRef::Index(1), Value::from(0))),
                Box::new(Predicate::FieldLt(FieldRef::Index(1), Value::from(4))),
            ));
            for pred in predicates {
                let pred = Some(pred);
                let fast = execute_select(&indexed, None, &None, &pred).unwrap();
                let slow = apply_select(plain.scan(), None, &None, &pred).unwrap();
                // Every store scans in key order, as the index yields it:
                // the same sequence, not only the same multiset.
                prop_assert_eq!(fast, slow, "{:?} on {:?}", &pred, repr);
            }
        }
    }

    #[test]
    fn planned_access_paths_equal_full_scan_on_every_backend(
        ops in plan_ops(),
    ) {
        use fundb::query::plan::execute_join_explained;
        use fundb::query::{apply_select, execute_select, FieldRef, Predicate};
        use fundb::relational::BatchOp;

        // A fixed outer relation for the join: one tuple per group value,
        // so `on #1 = #1` exercises every posting the index may hold.
        let left = Relation::from_tuples(
            Repr::TREE,
            (0..5i64).map(|g| Tuple::new(vec![(100 + g).into(), g.into()])),
        );
        let sorted = |mut ts: Vec<Tuple>| {
            ts.sort_by_key(|t| format!("{t:?}"));
            ts
        };

        for repr in [Repr::List, Repr::BTree(3)] {
            // `indexed` carries a single-column and a composite index, so
            // the planner has real paths to pick; `plain` forces the scan
            // semantics the plans must reproduce.
            let mut indexed = Relation::empty(repr)
                .create_index("by_g", 1)
                .and_then(|r| r.create_index_multi("by_gh", &[1, 2]))
                .expect("fresh relation has no index yet");
            let mut plain = Relation::empty(repr);
            let mut pending: Vec<BatchOp> = Vec::new();

            let flush = |indexed: &mut Relation,
                         plain: &mut Relation,
                         pending: &mut Vec<BatchOp>| {
                if pending.is_empty() {
                    return;
                }
                let (next, _, _) = indexed.apply_batch(pending);
                *indexed = next;
                let (next, _, _) = plain.apply_batch(pending);
                *plain = next;
                pending.clear();
            };

            for (op, boundary) in &ops {
                let bop = match op {
                    PlanOp::Insert(k, g, h) => BatchOp::Insert(Tuple::new(vec![
                        (*k).into(),
                        (*g).into(),
                        (*h).into(),
                    ])),
                    PlanOp::Delete(k) => BatchOp::Delete((*k).into()),
                    PlanOp::Replace(k, g, h) => BatchOp::Replace(Tuple::new(vec![
                        (*k).into(),
                        (*g).into(),
                        (*h).into(),
                    ])),
                };
                if *boundary {
                    flush(&mut indexed, &mut plain, &mut pending);
                    let (i2, _, _) = indexed.apply_batch(std::slice::from_ref(&bop));
                    let (p2, _, _) = plain.apply_batch(&[bop]);
                    indexed = i2;
                    plain = p2;
                } else {
                    pending.push(bop);
                }
            }
            flush(&mut indexed, &mut plain, &mut pending);

            // Composite point predicates: whatever path the planner picks
            // must answer exactly like the reference scan.
            for g in 0..5i64 {
                for h in 0..3i64 {
                    let pred = Some(Predicate::And(
                        Box::new(Predicate::FieldEq(FieldRef::Index(1), Value::from(g))),
                        Box::new(Predicate::FieldEq(FieldRef::Index(2), Value::from(h))),
                    ));
                    let fast = execute_select(&indexed, None, &None, &pred).unwrap();
                    let slow = apply_select(plain.scan(), None, &None, &pred).unwrap();
                    prop_assert_eq!(
                        fast,
                        slow,
                        "{:?} #1={} #2={}",
                        repr,
                        g,
                        h
                    );
                }
            }

            // Non-key equi-join: the indexed side may run the index
            // nested loop, the plain side always scan-builds — same
            // multiset either way.
            let (fast, _) = execute_join_explained(&left, &indexed, Some((1, 1)));
            let (slow, _) = execute_join_explained(&left, &plain, Some((1, 1)));
            prop_assert_eq!(sorted(fast), sorted(slow), "join on {:?}", repr);
        }
    }

    #[test]
    fn merge_preserves_subsequences(
        a in prop::collection::vec(any::<u16>(), 0..40),
        b in prop::collection::vec(any::<u16>(), 0..40),
    ) {
        use fundb::lenient::merge;
        let sa: Stream<(u8, u16)> = a.iter().map(|&x| (0u8, x)).collect();
        let sb: Stream<(u8, u16)> = b.iter().map(|&x| (1u8, x)).collect();
        let merged = merge(vec![sa, sb]).collect_vec();
        prop_assert_eq!(merged.len(), a.len() + b.len());
        let got_a: Vec<u16> = merged.iter().filter(|(t, _)| *t == 0).map(|(_, x)| *x).collect();
        let got_b: Vec<u16> = merged.iter().filter(|(t, _)| *t == 1).map(|(_, x)| *x).collect();
        prop_assert_eq!(got_a, a);
        prop_assert_eq!(got_b, b);
    }
}

// ---------------------------------------------------------------------------
// Durability: a recovered engine answers indexed queries like the original.
// ---------------------------------------------------------------------------

proptest! {
    // Each case opens a store, fsyncs a WAL, checkpoints, and recovers —
    // a handful of cases covers the state space (checkpoint position ×
    // op mix) without minutes of disk traffic.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovered_engine_answers_indexed_queries_identically(
        ops in prop::collection::vec((0i64..40, 0i64..5, any::<bool>()), 1..25),
        checkpoint_at in any::<u16>(),
    ) {
        use fundb::durable::engine::DurableEngine;
        use fundb::durable::scratch::ScratchDir;

        let tmp = ScratchDir::new("prop-index-recovery");
        let mut probes: Vec<String> = (0..5)
            .map(|g| format!("select from R where #1 = {g}"))
            .collect();
        // Composite probes: the recovered engine must rebuild the
        // multi-column definition, not just single-attribute ones.
        for g in 0..5 {
            probes.push(format!("select from R where #1 = {g} and #2 = {}", g % 2));
        }
        let before = {
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([
                translate(parse("create relation R as btree(4)").unwrap()),
                translate(parse("create index by_group on R (#1)").unwrap()),
            ]);
            let cut = checkpoint_at as usize % ops.len();
            // The composite index lands before or after the checkpoint,
            // covering both the manifest-carried and the WAL-replayed
            // definition path.
            let composite_at = (checkpoint_at >> 8) as usize % ops.len();
            for (i, (k, g, delete)) in ops.iter().enumerate() {
                if i == composite_at {
                    engine.run([translate(
                        parse("create index by_gh on R (#1, #2)").unwrap(),
                    )]);
                }
                let q = if *delete {
                    format!("delete {k} from R")
                } else {
                    format!("insert ({k}, {g}, {}) into R", g % 2)
                };
                engine.run([translate(parse(&q).unwrap())]);
                if i == cut {
                    engine.checkpoint().unwrap();
                }
            }
            engine.run(probes.iter().map(|q| translate(parse(q).unwrap())))
        };
        // "Crash": reopen with no final checkpoint — the post-checkpoint
        // tail (possibly including the index definition) replays from the
        // log, the rest loads from the manifest.
        let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
        let after = engine.run(probes.iter().map(|q| translate(parse(q).unwrap())));
        prop_assert_eq!(after, before);
    }
}
