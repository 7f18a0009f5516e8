//! Crash-recovery properties, driven by fault injection.
//!
//! The invariant under test, from every angle the fault harness can reach:
//! after a crash, recovery rebuilds exactly the fold of the longest valid
//! prefix of the log over the latest checkpoint — which for tail faults
//! (torn frames, garbage, short writes) means **every acknowledged
//! transaction survives**, and for mid-log corruption means the damage is
//! *detected* and the state is still a clean acknowledged-history prefix,
//! never a half-applied mess.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use fundb_durable::fault::{append_garbage, flip_bit, truncate_at};
use fundb_durable::{replay_records, DurableEngine, ScratchDir, Wal, WalRecord};
use fundb_query::{parse, translate, Transaction};
use fundb_relational::{eval_view, Database, ViewDef};
use proptest::prelude::*;

const CREATES: [&str; 4] = [
    "create relation R as tree",
    "create relation S as btree(3)",
    "create relation L as list",
    "create relation P as tree",
];

/// One view of every kind, over list and B-tree bases.
const VIEWS: [&str; 4] = [
    "create view VR as select from R where #0 > 10",
    "create view VC as count S by #2",
    "create view VS as sum #1 of P by #1",
    "create view VJ as join L with P on #0 = #0",
];

fn tx(q: &str) -> Transaction {
    translate(parse(q).expect("test query parses"))
}

/// A random mixed workload over all four backends.
fn workload() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..40).prop_map(|k| format!("insert ({k}, 'r{k}') into R")),
            (0u32..40).prop_map(|k| format!("insert ({k}, 's{k}', true) into S")),
            (0u32..40).prop_map(|k| format!("insert {k} into L")),
            (0u32..40).prop_map(|k| format!("insert ({k}, {k}) into P")),
            (0u32..40).prop_map(|k| format!("delete {k} from R")),
            (0u32..40, 0u32..5).prop_map(|(k, g)| format!("replace ({k}, 's{g}', false) in S")),
            (0u32..40).prop_map(|k| format!("delete {k} from P")),
            (0u32..40).prop_map(|k| format!("delete {k} from L")),
        ],
        1..40,
    )
}

/// Replays records exactly as recovery does (no checkpoint, so every
/// record applies, in log order).
fn fold_records(records: impl IntoIterator<Item = WalRecord>) -> Database {
    let mut db = Database::empty();
    for rec in records {
        let q = match rec {
            WalRecord::Create { query } => query,
            WalRecord::Write { query, .. } => query,
        };
        let (_, next) = tx(&q).apply(&db);
        db = next;
    }
    db
}

fn db_equal(a: &Database, b: &Database) -> bool {
    a.relation_names() == b.relation_names()
        && a.relation_names().iter().all(|n| {
            let (ra, rb) = (a.relation(n).unwrap(), b.relation(n).unwrap());
            ra.repr() == rb.repr() && ra.scan() == rb.scan()
        })
}

/// Runs `CREATES` then `ops` against a fresh durable engine in `dir`
/// (single WAL segment so faults address one file), returning the final
/// acknowledged state.
fn run_workload(dir: &Path, ops: &[String]) -> Database {
    let (engine, _) = DurableEngine::open_with_segment_bytes(dir, 2, u64::MAX).unwrap();
    engine.run(CREATES.map(tx));
    engine.run(ops.iter().map(|q| tx(q)));
    engine.snapshot()
}

fn only_segment(dir: &Path) -> PathBuf {
    dir.join("wal").join("wal-000001.log")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash at *any* byte offset: the recovered state is the fold of
    /// exactly the records that fully fit below the crash point.
    #[test]
    fn crash_at_any_offset_recovers_longest_valid_prefix(
        ops in workload(),
        frac in 0u64..1001,
    ) {
        let tmp = ScratchDir::new("prop-crash");
        run_workload(tmp.path(), &ops);

        let intact = Wal::scan(&tmp.path().join("wal")).unwrap();
        prop_assert!(intact.stop.is_none());
        let seg = only_segment(tmp.path());
        let len = fs::metadata(&seg).unwrap().len();
        let cut = len * frac / 1000;
        truncate_at(&seg, cut).unwrap();

        let surviving: Vec<WalRecord> = intact
            .records
            .iter()
            .filter(|r| r.end_offset <= cut)
            .map(|r| r.record.clone())
            .collect();
        let at_boundary =
            cut == 0 || intact.records.iter().any(|r| r.end_offset == cut);

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        prop_assert_eq!(report.wal_stop.is_some(), !at_boundary);
        let expected = fold_records(surviving);
        prop_assert!(
            db_equal(&engine.snapshot(), &expected),
            "recovered state must equal the fold of fully-persisted records"
        );
    }

    /// A flipped bit anywhere in synced history is detected, and recovery
    /// yields the clean prefix before the damaged frame.
    #[test]
    fn bit_flip_is_detected_and_clean_prefix_recovered(
        ops in workload(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let tmp = ScratchDir::new("prop-flip");
        run_workload(tmp.path(), &ops);

        let intact = Wal::scan(&tmp.path().join("wal")).unwrap();
        let seg = only_segment(tmp.path());
        let len = fs::metadata(&seg).unwrap().len();
        prop_assume!(len > 0);
        let offset = pos % len;
        flip_bit(&seg, offset, bit).unwrap();

        // The damaged frame is the first whose byte range contains
        // `offset`; everything before it survives, nothing after does.
        let surviving: Vec<WalRecord> = intact
            .records
            .iter()
            .filter(|r| r.end_offset <= offset)
            .map(|r| r.record.clone())
            .collect();

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        prop_assert!(report.wal_stop.is_some(), "damage must be detected");
        let expected = fold_records(surviving);
        prop_assert!(db_equal(&engine.snapshot(), &expected));
    }

    /// Trailing garbage past the last complete frame (a crash mid-append)
    /// loses *nothing* acknowledged.
    #[test]
    fn garbage_tail_never_loses_acknowledged_writes(
        ops in workload(),
        junk in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let tmp = ScratchDir::new("prop-junk");
        let expected = run_workload(tmp.path(), &ops);
        append_garbage(&only_segment(tmp.path()), &junk).unwrap();

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        prop_assert!(report.wal_stop.is_some());
        prop_assert!(
            db_equal(&engine.snapshot(), &expected),
            "acknowledged transactions survive a torn tail"
        );
    }

    /// A checkpoint at an arbitrary point in the stream, a crash with a
    /// dirty tail, and recovery still reproduces the full acknowledged
    /// history — checkpoint marks and log replay compose exactly.
    #[test]
    fn checkpoint_plus_replay_reproduces_full_history(
        ops in workload(),
        split_pct in 0u64..101,
    ) {
        let tmp = ScratchDir::new("prop-ckpt");
        let split = ops.len() * split_pct as usize / 100;
        let expected = {
            let (engine, _) =
                DurableEngine::open_with_segment_bytes(tmp.path(), 2, u64::MAX).unwrap();
            engine.run(CREATES.map(tx));
            engine.run(ops[..split].iter().map(|q| tx(q)));
            engine.checkpoint().unwrap();
            engine.run(ops[split..].iter().map(|q| tx(q)));
            engine.snapshot()
        };
        // Crash with a torn tail on the newest segment.
        let newest = fs::read_dir(tmp.path().join("wal"))
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .max()
            .unwrap();
        append_garbage(&newest, &[0xBA, 0xD1]).unwrap();

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        prop_assert!(report.checkpoint_manifest.is_some());
        prop_assert!(db_equal(&engine.snapshot(), &expected));
        let marks: HashMap<String, u64> = engine
            .consistent_cut()
            .seq_marks
            .iter()
            .map(|(n, m)| (n.as_str().to_string(), *m))
            .collect();
        drop(engine);

        // Recovery is idempotent: a second restart sees the same state
        // and the same per-relation write numbering.
        let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
        prop_assert!(db_equal(&engine.snapshot(), &expected));
        for (n, m) in &engine.consistent_cut().seq_marks {
            prop_assert_eq!(marks.get(n.as_str()), Some(m));
        }
    }

    /// Views created mid-stream (optionally checkpointed) survive a crash
    /// with a torn tail: the recovered *maintained* contents — read through
    /// the engine's view path, which serves the differentially-maintained
    /// state rather than a recompute — equal a fresh evaluation of each
    /// definition over the recovered bases, and maintenance resumes live.
    #[test]
    fn recovered_views_equal_recompute_over_recovered_bases(
        ops in workload(),
        split_pct in 0u64..101,
        checkpoint in any::<bool>(),
    ) {
        let tmp = ScratchDir::new("prop-views");
        let split = ops.len() * split_pct as usize / 100;
        let expected = {
            let (engine, _) =
                DurableEngine::open_with_segment_bytes(tmp.path(), 2, u64::MAX).unwrap();
            engine.run(CREATES.map(tx));
            engine.run(ops[..split].iter().map(|q| tx(q)));
            engine.run(VIEWS.map(tx));
            if checkpoint {
                engine.checkpoint().unwrap();
            }
            engine.run(ops[split..].iter().map(|q| tx(q)));
            engine.snapshot()
        };
        let newest = fs::read_dir(tmp.path().join("wal"))
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .max()
            .unwrap();
        append_garbage(&newest, &[0xBA, 0xD1]).unwrap();

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        prop_assert!(report.wal_stop.is_some());
        prop_assert_eq!(report.checkpoint_manifest.is_some(), checkpoint);
        let recovered = engine.snapshot();
        prop_assert!(db_equal(&recovered, &expected));
        prop_assert_eq!(recovered.views().len(), VIEWS.len());
        for (name, def) in recovered.views() {
            let left = recovered.relation(def.bases()[0]).unwrap();
            let right = match def.as_ref() {
                ViewDef::Join { right, .. } => Some(recovered.relation(right).unwrap()),
                _ => None,
            };
            let mut want = eval_view(&def, left, right);
            let rs = engine.run([tx(&format!("select from {name}"))]);
            let mut got = rs[0].tuples().expect("view select answers tuples").to_vec();
            want.sort();
            got.sort();
            prop_assert_eq!(got, want, "view {} diverged after recovery", name);
        }
        // The recovered handles keep tracking writes issued after recovery:
        // key 90 is outside the workload's range, so the join gains exactly
        // one row for it.
        engine.run([tx("insert 90 into L"), tx("insert (90, 90) into P")]);
        let rs = engine.run([tx("find 90 in VJ")]);
        prop_assert_eq!(rs[0].tuples().expect("view find answers tuples").len(), 1);
    }
}

/// A view's name is taken: `create relation` over it is refused before it
/// reaches the log, so no base relation shadows the view, writes aimed at
/// the name are refused rather than acknowledged and lost, and the state
/// before and after a restart is the sequential model's.
#[test]
fn create_relation_over_a_view_is_refused_and_restart_matches_the_model() {
    let statements = [
        "create relation R as tree",
        "insert (1, 10) into R",
        "create view V as select from R where #1 > 5",
        "create relation V as tree",
        "insert (99, 99) into V",
        "insert (2, 20) into R",
        "find 99 in V",
        "relations",
    ];
    let (mut model, mut want) = (Database::empty(), Vec::new());
    for q in statements {
        let (response, next) = tx(q).apply(&model);
        want.push(response);
        model = next;
    }
    assert_eq!(want[3].to_string(), "error: relation already exists: V");

    let tmp = ScratchDir::new("create-over-view");
    let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
    for (q, want) in statements.iter().zip(&want) {
        assert_eq!(&engine.run([tx(q)])[0], want, "{q}");
    }
    assert!(db_equal(&engine.snapshot(), &model));
    drop(engine);

    let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
    assert!(db_equal(&engine.snapshot(), &model));
    for (q, want) in statements.iter().zip(&want).skip(6) {
        assert_eq!(&engine.run([tx(q)])[0], want, "after restart: {q}");
    }
}

/// Replay lands runs of data writes through the batch kernel. DDL in the
/// middle of a run — an index build, a view, another relation's writes, a
/// write the relation refuses — must take effect exactly where the log has
/// it: the state, the index and the view are the record-by-record fold's.
#[test]
fn replay_batches_write_runs_around_ddl_like_the_sequential_fold() {
    let mut seqs: HashMap<&str, u64> = HashMap::new();
    let mut write = |relation: &'static str, query: String| {
        let seq = seqs.entry(relation).or_insert(0);
        *seq += 1;
        WalRecord::Write {
            relation: relation.to_string(),
            seq: *seq - 1,
            query,
        }
    };
    let create = |query: &str| WalRecord::Create {
        query: query.to_string(),
    };
    let mut records = vec![
        create("create relation R as btree(3)"),
        create("create relation S as tree"),
    ];
    for k in 0..30 {
        records.push(write("R", format!("insert ({k}, 't{}') into R", k % 4)));
    }
    records.push(write("R", "insert (7, 'dup') into R".into()));
    records.push(write("R", "delete 3 from R".into()));
    records.push(write("R", "create index by_tag on R (#1)".into()));
    for k in 10..20 {
        records.push(write("R", format!("replace ({k}, 't{}') in R", k % 3)));
        records.push(write("R", format!("delete {} from R", k + 10)));
    }
    records.push(create("create view V as select from R where #0 > 10"));
    for k in 25..45 {
        records.push(write("R", format!("insert ({k}, 't{}') into R", k % 5)));
        if k % 4 == 0 {
            records.push(write("S", format!("insert ({k}, {k}) into S")));
        }
    }
    // Writes no engine acknowledges, so none logs — to a view, and to a
    // relation created only later. They tell a run that stops at the
    // `create` from one that does not: replay must refuse them as the fold
    // does.
    records.push(write("V", "insert (99, 'x') into V".into()));
    records.push(write("T", "insert 1 into T".into()));
    records.push(create("create relation T as list"));
    records.push(write("T", "insert 2 into T".into()));
    records.push(write("R", "delete 40 from R".into()));
    records.push(write("R", "replace (41, 't9') in R".into()));

    let model = fold_records(records.clone());
    let state = replay_records(Database::empty(), HashMap::new(), &records).unwrap();
    assert_eq!(state.applied.len(), records.len());
    assert_eq!(state.skipped, 0);
    for (relation, next) in &seqs {
        assert_eq!(state.seq_marks.get(&(*relation).into()), Some(next));
    }
    let got = &state.database;
    assert!(db_equal(got, &model));
    assert!(got.relation_names().contains(&"V".into()));
    let (ix, want) = (
        got.relation(&"R".into()).unwrap().index_on(1).unwrap(),
        model.relation(&"R".into()).unwrap().index_on(1).unwrap(),
    );
    for tag in (0..10).map(|t| format!("t{t}")).chain(["dup".to_string()]) {
        assert_eq!(
            ix.keys_eq(&tag.as_str().into()),
            want.keys_eq(&tag.as_str().into())
        );
    }

    // A checkpoint that already holds a prefix: the marks skip it, and the
    // rest lands on top of it as the fold of the rest does.
    let split = 40;
    let prefix = replay_records(Database::empty(), HashMap::new(), &records[..split]).unwrap();
    let resumed = replay_records(prefix.database, prefix.seq_marks, &records).unwrap();
    assert_eq!(resumed.skipped, split);
    assert_eq!(resumed.applied, (split..records.len()).collect::<Vec<_>>());
    assert!(db_equal(&resumed.database, &model));
}

/// Records alternating between two relations — a sharded cluster's
/// set-up shape — replay as one run per relation per barrier; the bases,
/// a join view over both, a count view, the marks and the applied set are
/// those of applying the records one at a time.
#[test]
fn replay_of_an_interleaved_log_lands_one_run_per_relation() {
    let create = |query: &str| WalRecord::Create {
        query: query.to_string(),
    };
    let write = |relation: &str, seq: u64, query: String| WalRecord::Write {
        relation: relation.to_string(),
        seq,
        query,
    };
    let mut records = vec![
        create("create relation A as tree"),
        create("create relation B as list"),
        create("create view J as join A with B on #1 = #1"),
        create("create view C as count A by #1"),
    ];
    let (mut a, mut b) = (0u64, 0u64);
    for k in 0..60u64 {
        records.push(write("A", a, format!("insert ({k}, {}) into A", k % 7)));
        records.push(write(
            "B",
            b,
            format!("insert ({}, {}) into B", 100 + k, k % 5),
        ));
        (a, b) = (a + 1, b + 1);
        if k % 9 == 4 {
            records.push(write("A", a, format!("delete {} from A", k / 2)));
            records.push(write("B", b, format!("replace ({}, 3) in B", 100 + k / 3)));
            (a, b) = (a + 1, b + 1);
        }
        if k == 30 {
            // An index build is a barrier: both pending runs land first.
            records.push(write("A", a, "create index by_g on A (#1)".into()));
            a += 1;
        }
    }

    let model = fold_records(records.clone());
    let state = replay_records(Database::empty(), HashMap::new(), &records).unwrap();
    assert_eq!(state.applied, (0..records.len()).collect::<Vec<_>>());
    assert_eq!(state.skipped, 0);
    assert_eq!(state.seq_marks.get(&"A".into()), Some(&a));
    assert_eq!(state.seq_marks.get(&"B".into()), Some(&b));
    let got = &state.database;
    assert!(db_equal(got, &model));
    assert!(db_equal(got, &got.recompute_views()));
    for name in ["A", "B", "J", "C"] {
        let (g, m) = (
            got.relation(&name.into()).unwrap(),
            model.relation(&name.into()).unwrap(),
        );
        assert_eq!(g.len(), m.len(), "{name}");
    }
    assert!(!got.relation(&"J".into()).unwrap().is_empty());

    // A checkpoint holding a prefix that ends mid-interleave: the marks
    // skip it, and the rest lands as the fold of the rest does.
    let split = 33;
    let prefix = replay_records(Database::empty(), HashMap::new(), &records[..split]).unwrap();
    let resumed = replay_records(prefix.database, prefix.seq_marks, &records).unwrap();
    assert_eq!(resumed.skipped, split);
    assert_eq!(resumed.applied, (split..records.len()).collect::<Vec<_>>());
    assert!(db_equal(&resumed.database, &model));
}

/// A log written when relations could be paged is refused with a typed
/// error: the `create` no longer parses, and recovery reports it as
/// invalid data rather than panicking or guessing a representation.
#[test]
fn a_log_creating_a_paged_relation_is_refused_as_invalid_data() {
    let tmp = ScratchDir::new("wal-retired-paged");
    let wal_dir = tmp.path().join("wal");
    let mut wal = Wal::open(&wal_dir, u64::MAX).unwrap();
    wal.append_batch(&[
        WalRecord::Create {
            query: "create relation P as paged(4)".into(),
        },
        WalRecord::Write {
            relation: "P".into(),
            seq: 0,
            query: "insert 1 into P".into(),
        },
    ])
    .unwrap();
    drop(wal);
    let err = fundb_durable::recover_state(tmp.path()).expect_err("paged is no representation");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("list, tree, btree(n)"), "{err}");
}
