//! The durable engine: the pipelined engine with its write path hooked to
//! the log and its cuts hooked to the checkpoint store.
//!
//! **Commit protocol.** The pipelined engine coalesces same-relation writes
//! into batches; [`DurableStore`] (the engine's [`CommitSink`]) makes each
//! claimed batch durable with one WAL append and one fsync *before* any of
//! the batch's responses are filled. A transaction whose response has
//! arrived is therefore on disk — the ack is the durability receipt. One
//! fsync per batch, not per transaction, is the group commit: under load,
//! fsync latency grows the next batch, so the log keeps up with the
//! pipeline instead of serializing it.
//!
//! **Recovery invariant.** [`recover_state`] rebuilds the state stored in a
//! directory: the newest valid checkpoint, plus the replay of every log
//! record not already folded into it (write-sequence marks decide), with a
//! torn log tail truncated. The result is a *prefix* of the acknowledged
//! history containing **every** acknowledged transaction — nothing
//! acknowledged is lost, nothing half-applied appears. It is the only way
//! a state comes back from disk: [`DurableEngine::open`] starts its engine
//! from it, and a replica starts from it and returns to it after importing
//! a shipped checkpoint.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fundb_core::engine::ConsistentCut;
use fundb_core::{CommitSink, FanoutSink, PipelinedEngine};
use fundb_lenient::Lenient;
use fundb_query::{exec, parse, translate, Query, Response, Transaction};
use fundb_relational::{BatchOp, Database, RelationName};
use parking_lot::Mutex;

use crate::checkpoint::{self, CheckpointStats, CheckpointWriter};
use crate::wal::{self, ScanStop, Wal, WalRecord};

/// Where a store directory keeps its write-ahead log.
pub fn wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// Where a store directory keeps its checkpoints (node store and
/// manifests).
pub fn checkpoint_dir(dir: &Path) -> PathBuf {
    dir.join("checkpoints")
}

/// The durable store: one write-ahead log behind a mutex, so batches from
/// different relations serialize their fsyncs into one tail.
#[derive(Debug)]
pub struct DurableStore {
    wal: Mutex<Wal>,
}

impl DurableStore {
    /// Opens the log under `dir` (repairing nothing — pair with
    /// [`Wal::recover`] first, as [`recover_state`] does).
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<DurableStore> {
        Ok(DurableStore {
            wal: Mutex::new(Wal::open(dir, segment_bytes)?),
        })
    }

    /// The segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.wal.lock().current_segment()
    }
}

impl CommitSink for DurableStore {
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        self.wal
            .lock()
            .append_batch(&WalRecord::write_run(relation, writes))
    }

    fn commit_create(&self, query: &Query) -> io::Result<()> {
        self.wal.lock().append_batch(&[WalRecord::Create {
            query: query.to_string(),
        }])
    }
}

/// What [`recover_state`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Manifest index of the checkpoint the state started from, if any.
    pub checkpoint_manifest: Option<u64>,
    /// Log records applied on top of the checkpoint.
    pub replayed: usize,
    /// Log records skipped because the checkpoint already folded them in
    /// (or a logged `create` found its relation already present).
    pub skipped: usize,
    /// How the log scan ended, if not cleanly: a torn tail (repaired,
    /// expected after a crash) or mid-log corruption (repaired to the
    /// longest valid prefix, but acknowledged work after the damage is
    /// gone — callers should surface this).
    pub wal_stop: Option<ScanStop>,
}

/// Rebuilds the state stored under `dir`: loads the newest valid
/// checkpoint, repairs the log to its longest valid prefix, and replays
/// every record the checkpoint does not cover ([`replay_records`]). The
/// returned cut's marks are where each relation's write numbering resumes.
pub fn recover_state(dir: &Path) -> io::Result<(ConsistentCut, RecoveryReport)> {
    let (db, marks, checkpoint_manifest) = match checkpoint::load_latest(&checkpoint_dir(dir))? {
        Some(l) => (l.database, l.seq_marks, Some(l.manifest)),
        None => (Database::empty(), HashMap::new(), None),
    };
    let outcome = Wal::recover(&wal_dir(dir))?;
    let records: Vec<WalRecord> = outcome.records.into_iter().map(|s| s.record).collect();
    let state = replay_records(db, marks, &records)?;
    let report = RecoveryReport {
        checkpoint_manifest,
        replayed: state.applied.len(),
        skipped: state.skipped,
        wal_stop: outcome.stop,
    };
    let cut = ConsistentCut {
        database: state.database,
        seq_marks: state.seq_marks,
    };
    Ok((cut, report))
}

/// The state rebuilt by [`replay_records`]: a database plus the marks at
/// which each relation's write numbering resumes.
#[derive(Debug)]
pub struct ReplayedState {
    /// The database after applying every fresh record.
    pub database: Database,
    /// Per relation, the next expected write sequence number.
    pub seq_marks: HashMap<RelationName, u64>,
    /// Positions, in input order, of the records applied.
    pub applied: Vec<usize>,
    /// Records skipped as already folded in (below a mark, or a `create`
    /// whose relation already exists).
    pub skipped: usize,
}

/// Replays log records on top of `(db, marks)` — the shared core of crash
/// recovery and replica apply. `Create` records are idempotent (skipped
/// when the relation exists); `Write` records below their relation's mark
/// are skipped, and applying one advances the mark to `seq + 1`, so
/// overlapping sources (a checkpoint plus a log tail, or a snapshot plus a
/// shipped stream) fold to the same state. The result says which records
/// were applied — what a replica appends to its own log, so the log holds
/// each record once even when a shipped batch overlaps applied history.
///
/// Consecutive data writes on one relation go through the batch kernel as
/// one run, as the engine that logged them committed them; DDL, an index
/// build or a write on another relation ends the run. The state is the
/// one the record-by-record fold gives.
pub fn replay_records<'a>(
    db: Database,
    marks: HashMap<RelationName, u64>,
    records: impl IntoIterator<Item = &'a WalRecord>,
) -> io::Result<ReplayedState> {
    let mut db = db;
    let mut marks = marks;
    let mut applied = Vec::new();
    let mut skipped = 0usize;
    let mut run = WriteRun::default();
    for (i, record) in records.into_iter().enumerate() {
        match record {
            WalRecord::Create { query } => {
                let (q, target) = parse_create(query)?;
                db = run.land(db);
                // Idempotent: the crash may have been after the create
                // reached a checkpoint but before log GC. A replayed
                // `create view` re-materializes from the bases as replayed
                // so far; later write records maintain it differentially.
                if db.relation(&target).is_ok() {
                    skipped += 1;
                    continue;
                }
                let (_, next) = translate(q).apply(&db);
                db = next;
            }
            WalRecord::Write {
                relation,
                seq,
                query,
            } => {
                let name = RelationName::new(relation);
                let mark = marks.get(&name).copied().unwrap_or(0);
                if *seq < mark {
                    skipped += 1;
                    continue;
                }
                let q = parse(query).map_err(invalid_data)?;
                match (exec::batch_op(&q), q.relation()) {
                    (Some(op), Some(target)) => {
                        if run.relation.as_ref() != Some(target) {
                            db = run.land(db);
                            run.relation = Some(target.clone());
                        }
                        run.ops.push(op);
                    }
                    _ => {
                        db = run.land(db);
                        let (_, next) = translate(q).apply(&db);
                        db = next;
                    }
                }
                marks.insert(name, seq + 1);
            }
        }
        applied.push(i);
    }
    Ok(ReplayedState {
        database: run.land(db),
        seq_marks: marks,
        applied,
        skipped,
    })
}

/// Parses a logged `create` query and names the relation or view it
/// creates.
fn parse_create(query: &str) -> io::Result<(Query, RelationName)> {
    let q = parse(query).map_err(invalid_data)?;
    let target = match &q {
        Query::Create { relation, .. } => relation.clone(),
        Query::CreateView { name, .. } => name.clone(),
        _ => return Err(invalid_data("create record holds a non-create query")),
    };
    Ok((q, target))
}

/// The data writes of consecutive log records on one relation, not yet
/// applied.
#[derive(Default)]
struct WriteRun {
    relation: Option<RelationName>,
    ops: Vec<BatchOp>,
}

impl WriteRun {
    /// Applies the run to `db` as one batch and empties it. A relation
    /// that is missing or is a view refuses the run, as it refuses each
    /// write alone.
    fn land(&mut self, db: Database) -> Database {
        let Some(relation) = self.relation.take() else {
            return db;
        };
        let landed = db.write(&relation, &self.ops);
        self.ops.clear();
        match landed {
            Ok((next, _, _)) => next,
            Err(_) => db,
        }
    }
}

/// A [`PipelinedEngine`] whose acknowledgements are durability receipts.
#[derive(Debug)]
pub struct DurableEngine {
    engine: PipelinedEngine,
    store: Arc<DurableStore>,
    /// The engine's actual sink: the store first, then any sinks attached
    /// later (a replication sender) — which therefore only ever observe
    /// batches the local log accepted.
    fanout: Arc<FanoutSink>,
    checkpoints: Mutex<CheckpointWriter>,
    wal_dir: PathBuf,
    ckpt_dir: PathBuf,
}

impl DurableEngine {
    /// Opens (or creates) the store under `dir` and recovers
    /// ([`recover_state`]), then starts a live engine resuming the
    /// per-relation write numbering.
    pub fn open(dir: &Path, workers: usize) -> io::Result<(DurableEngine, RecoveryReport)> {
        Self::open_with_segment_bytes(dir, workers, Wal::DEFAULT_SEGMENT_BYTES)
    }

    /// [`open`](Self::open) with a custom WAL segment-rotation threshold
    /// (small segments make log GC observable in tests and benches).
    pub fn open_with_segment_bytes(
        dir: &Path,
        workers: usize,
        segment_bytes: u64,
    ) -> io::Result<(DurableEngine, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let (cut, report) = recover_state(dir)?;
        let wal_dir = wal_dir(dir);
        let ckpt_dir = checkpoint_dir(dir);
        let store = Arc::new(DurableStore::open(&wal_dir, segment_bytes)?);
        let fanout = Arc::new(FanoutSink::new(vec![store.clone() as Arc<dyn CommitSink>]));
        let engine = PipelinedEngine::with_sink(
            workers,
            &cut.database,
            fanout.clone() as Arc<dyn CommitSink>,
            &cut.seq_marks,
        );
        let checkpoints = Mutex::new(CheckpointWriter::open(&ckpt_dir)?);
        Ok((
            DurableEngine {
                engine,
                store,
                fanout,
                checkpoints,
                wal_dir,
                ckpt_dir,
            },
            report,
        ))
    }

    /// Submits one transaction to the pipeline. The returned cell fills
    /// only after the transaction's batch is on disk.
    pub fn submit(&self, tx: Transaction) -> Lenient<Response> {
        self.engine.submit(tx)
    }

    /// Submits a stream and waits for every (durable) response.
    pub fn run(&self, txns: impl IntoIterator<Item = Transaction>) -> Vec<Response> {
        self.engine.run(txns)
    }

    /// A consistent snapshot of the current frontier.
    pub fn snapshot(&self) -> Database {
        self.engine.snapshot()
    }

    /// A consistent cut (snapshot plus write-sequence marks).
    pub fn consistent_cut(&self) -> ConsistentCut {
        self.engine.consistent_cut()
    }

    /// The underlying pipelined engine.
    pub fn engine(&self) -> &PipelinedEngine {
        &self.engine
    }

    /// Attaches another commit observer *after* the durable store in the
    /// fan-out: it sees every batch from the next commit on, and only
    /// batches the local log accepted. This is how a replication sender
    /// taps the group-commit stream.
    pub fn attach_sink(&self, sink: Arc<dyn CommitSink>) {
        self.fanout.push(sink);
    }

    /// A bootstrap package for a catching-up replica: the newest exported
    /// checkpoint (if any) plus the frame-encoded log records currently on
    /// disk. Together they cover everything this engine committed before
    /// the call that is no longer observable any other way; overlap with
    /// shipped batches is harmless (sequence marks dedup on apply).
    ///
    /// The log is read like recovery reads it ([`Wal::scan`]): an
    /// incomplete frame at the very end is an append still in flight and
    /// ends the tail, but damaged history is an error — shipping the
    /// prefix before it would silently drop acknowledged records.
    ///
    /// Holds the checkpoint guard across both reads so a concurrent
    /// [`checkpoint`](Self::checkpoint)'s log GC cannot remove a covered
    /// segment between the export and the tail scan, which would leave a
    /// gap neither piece covers.
    pub fn replication_snapshot(&self) -> io::Result<(Option<Vec<u8>>, Vec<u8>)> {
        let _guard = self.checkpoints.lock();
        let checkpoint = checkpoint::export_latest(&self.ckpt_dir)?;
        let outcome = Wal::scan(&self.wal_dir)?;
        if let Some(ScanStop::Corruption { segment, .. }) = outcome.stop {
            return Err(invalid_data(format!(
                "damaged wal frame in segment {segment}"
            )));
        }
        let records: Vec<WalRecord> = outcome.records.into_iter().map(|s| s.record).collect();
        Ok((checkpoint, wal::encode_records(&records)))
    }

    /// Writes a checkpoint of the current consistent cut, then garbage-
    /// collects every closed log segment the checkpoint fully covers.
    ///
    /// Sharing makes this incremental: only nodes the store has never seen
    /// are appended, so a checkpoint after `k` updates to an `n`-tuple
    /// tree costs `O(k · log n)` bytes (see the returned stats).
    pub fn checkpoint(&self) -> io::Result<CheckpointStats> {
        let cut = self.engine.consistent_cut();
        // The guard is held through the log GC below, not just the write:
        // two concurrent checkpoints racing to delete the same covered
        // segment would turn one caller's success into a spurious error.
        let mut writer = self.checkpoints.lock();
        let stats = writer.write(&cut)?;

        // Covered: a write the cut's marks fold in, or a create whose
        // relation the cut carries. The live tail segment is always kept.
        let marks: HashMap<&str, u64> = cut
            .seq_marks
            .iter()
            .map(|(n, m)| (n.as_str(), *m))
            .collect();
        let names: HashSet<RelationName> = cut.database.relation_names().into_iter().collect();
        let keep_from = self.store.current_segment();
        Wal::remove_covered_segments(&self.wal_dir, keep_from, |rec| match rec {
            WalRecord::Write { relation, seq, .. } => {
                marks.get(relation.as_str()).is_some_and(|m| seq < m)
            }
            WalRecord::Create { query } => {
                parse_create(query).is_ok_and(|(_, target)| names.contains(&target))
            }
        })?;
        Ok(stats)
    }
}

fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn tx(q: &str) -> Transaction {
        translate(parse(q).expect("test query parses"))
    }

    fn db_equal(a: &Database, b: &Database) -> bool {
        a.relation_names() == b.relation_names()
            && a.relation_names().iter().all(|n| {
                a.relation(n).unwrap().scan() == b.relation(n).unwrap().scan()
                    && a.relation(n).unwrap().repr() == b.relation(n).unwrap().repr()
            })
    }

    #[test]
    fn acknowledged_writes_survive_restart() {
        let tmp = ScratchDir::new("dur-restart");
        let expected = {
            let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
            assert_eq!(report.replayed, 0);
            engine.run([
                tx("create relation R as tree"),
                tx("create relation S as btree(4)"),
            ]);
            let txns: Vec<Transaction> = (0..40)
                .map(|i| {
                    let rel = if i % 2 == 0 { "R" } else { "S" };
                    tx(&format!("insert ({i}, 'row-{i}') into {rel}"))
                })
                .collect();
            // `run` returns only after every response — every write is
            // acknowledged, hence fsynced.
            engine.run(txns);
            engine.snapshot()
        };

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(report.checkpoint_manifest.is_none());
        assert_eq!(report.replayed, 42, "2 creates + 40 writes");
        assert!(db_equal(&engine.snapshot(), &expected));
    }

    #[test]
    fn checkpoint_skips_replay_and_gc_trims_log() {
        let tmp = ScratchDir::new("dur-ckpt");
        let expected = {
            // Tiny segments so GC has closed segments to collect.
            let (engine, _) = DurableEngine::open_with_segment_bytes(tmp.path(), 2, 256).unwrap();
            engine.run([tx("create relation R as tree")]);
            engine.run((0..100).map(|i| tx(&format!("insert ({i}, 'x') into R"))));
            let stats = engine.checkpoint().unwrap();
            assert!(stats.nodes_written > 0);
            // Post-checkpoint writes land in the log only.
            engine.run((100..110).map(|i| tx(&format!("insert ({i}, 'x') into R"))));
            engine.snapshot()
        };

        // GC removed the covered early segments.
        let segments = fs::read_dir(tmp.path().join("wal")).unwrap().count();
        assert!(
            segments < 10,
            "log GC should have trimmed covered segments, found {segments}"
        );

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(report.checkpoint_manifest.is_some());
        assert!(
            report.replayed >= 10,
            "the 10 post-checkpoint writes must replay, got {}",
            report.replayed
        );
        assert!(db_equal(&engine.snapshot(), &expected));

        // And a fresh checkpoint of the recovered state is near-free in
        // node bytes for the shared prefix (content addressing survives
        // the restart even though in-memory sharing does not).
        let stats = engine.checkpoint().unwrap();
        assert!(stats.nodes_deduped > 0);
    }

    #[test]
    fn a_tree_relation_comes_back_from_a_checkpoint_as_the_default_b_tree() {
        let tmp = ScratchDir::new("dur-as-tree");
        let expected = {
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([tx("create relation R as tree")]);
            engine.run((0..50).map(|i| tx(&format!("insert ({i}, 'row-{i}') into R"))));
            engine.checkpoint().unwrap();
            engine.snapshot()
        };
        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(report.checkpoint_manifest.is_some());
        assert_eq!(report.replayed, 0, "the checkpoint covers every write");
        let name: RelationName = "R".into();
        let recovered = engine.snapshot();
        let r = recovered.relation(&name).unwrap();
        assert_eq!(r.repr(), fundb_relational::Repr::BTree(16));
        assert_eq!(r.scan(), expected.relation(&name).unwrap().scan());
        assert_eq!(r.len(), 50);
    }

    #[test]
    fn torn_log_tail_is_recovered_without_acked_loss() {
        let tmp = ScratchDir::new("dur-torn");
        let expected = {
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([tx("create relation R as list")]);
            engine.run((0..8).map(|i| tx(&format!("insert {i} into R"))));
            engine.snapshot()
        };

        // A crash mid-append: garbage bytes at the tail of the newest
        // segment.
        let wal_dir = tmp.path().join("wal");
        let newest = fs::read_dir(&wal_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .max()
            .unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        fs::write(&newest, &bytes).unwrap();

        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(matches!(report.wal_stop, Some(ScanStop::TornTail { .. })));
        assert!(
            db_equal(&engine.snapshot(), &expected),
            "every acknowledged write survives; only the torn garbage is dropped"
        );
    }

    #[test]
    fn indexes_survive_restart_via_checkpoint_and_log() {
        let tmp = ScratchDir::new("dur-index");
        let (probe_before, expected) = {
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([tx("create relation R as tree")]);
            engine.run((0..20).map(|i| tx(&format!("insert ({i}, 'g{}', {i}) into R", i % 4))));
            engine.run([tx("create index by_group on R (#1)")]);
            // The checkpoint carries the definition; its WAL record is now
            // GC-eligible, so recovery must rebuild from the manifest.
            engine.checkpoint().unwrap();
            engine.run((20..30).map(|i| tx(&format!("insert ({i}, 'g{}', {i}) into R", i % 4))));
            // Post-checkpoint index: recovered from the log only.
            engine.run([tx("create index by_val on R (#2)")]);
            let probe = engine.run([tx("select from R where #1 = 'g1'")]);
            (probe, engine.snapshot())
        };

        let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(db_equal(&engine.snapshot(), &expected));
        let snap = engine.snapshot();
        let rel = snap.relation(&"R".into()).unwrap();
        assert_eq!(
            rel.indexes().len(),
            2,
            "checkpointed and replayed index definitions both recovered"
        );
        let probe_after = engine.run([tx("select from R where #1 = 'g1'")]);
        assert_eq!(
            probe_after, probe_before,
            "indexed query answers identically"
        );
        // And the recovered indexes keep following new writes.
        engine.run([tx("insert (30, 'g1', 30) into R")]);
        let grown = engine.run([tx("select from R where #1 = 'g1'")]);
        assert_eq!(
            grown[0].tuples().unwrap().len(),
            probe_before[0].tuples().unwrap().len() + 1
        );
    }

    #[test]
    fn views_survive_restart_via_log_replay() {
        let tmp = ScratchDir::new("dur-views-log");
        let expected = {
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([
                tx("create relation R as tree"),
                tx("insert (1, 'eng', 10) into R"),
                tx("create view Eng as select from R where #1 = 'eng'"),
                tx("create view Spend as sum #2 of R by #1"),
                tx("insert (2, 'ops', 20) into R"),
                tx("insert (3, 'eng', 30) into R"),
            ]);
            engine.snapshot()
        };
        // Crash before any checkpoint: the definitions and their bases
        // rebuild from the log alone, with post-create write records
        // maintaining the views differentially during replay.
        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(report.checkpoint_manifest.is_none());
        assert!(db_equal(&engine.snapshot(), &expected));
        // And the recovered engine keeps maintaining them live.
        engine.run([tx("insert (4, 'eng', 40) into R")]);
        let rs = engine.run([tx("count Eng"), tx("select from Spend")]);
        assert_eq!(rs[0], Response::Count(3));
        let mut sums: Vec<String> = rs[1]
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.to_string())
            .collect();
        sums.sort();
        assert_eq!(sums, vec!["('eng', 80, 3)", "('ops', 20, 1)"]);
    }

    #[test]
    fn views_survive_checkpoint_and_log_gc() {
        let tmp = ScratchDir::new("dur-views-ckpt");
        {
            let (engine, _) = DurableEngine::open_with_segment_bytes(tmp.path(), 2, 256).unwrap();
            engine.run([tx("create relation R as tree")]);
            engine.run((0..30).map(|i| tx(&format!("insert ({i}, 'g{}', {i}) into R", i % 3))));
            engine.run([tx("create view PerTag as count R by #1")]);
            // The checkpoint carries the definition; its WAL record is now
            // GC-eligible, so recovery must rebuild from the manifest.
            engine.checkpoint().unwrap();
            engine.run((30..40).map(|i| tx(&format!("insert ({i}, 'g{}', {i}) into R", i % 3))));
        }
        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(report.checkpoint_manifest.is_some());
        // Definition from the manifest, contents advanced by the ten
        // replayed post-checkpoint writes.
        let rs = engine.run([tx("select from PerTag")]);
        let mut rows: Vec<String> = rs[0]
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.to_string())
            .collect();
        rows.sort();
        assert_eq!(rows, vec!["('g0', 14)", "('g1', 13)", "('g2', 13)"]);
        // Still maintained after recovery.
        engine.run([tx("insert (40, 'g0', 40) into R")]);
        let rs = engine.run([tx("select from PerTag where #0 = 'g0'")]);
        assert_eq!(rs[0].tuples().unwrap()[0].to_string(), "('g0', 15)");
    }

    #[test]
    fn a_checkpoint_after_one_delete_shares_the_view() {
        // The view is kept by the same `Database::write` as its base, so
        // one delete path-copies a few nodes of each and the next
        // checkpoint stores only those — not a rebuilt view. A self-join
        // is maintained by the same delta rule as any other view.
        for view in [
            "create view Big as select from R where #1 > 2",
            "create view Big as join R with R on #0 = #0",
        ] {
            let tmp = ScratchDir::new("dur-view-sharing");
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([tx("create relation R as tree")]);
            engine.run((0..5000).map(|i| tx(&format!("insert ({i}, {}) into R", i % 5))));
            engine.run([tx(view)]);
            engine.checkpoint().unwrap();
            engine.run([tx("delete 2503 from R")]);
            let stats = engine.checkpoint().unwrap();
            assert!(
                stats.nodes_written <= 10,
                "{view}: a one-row delete re-stored {} nodes",
                stats.nodes_written
            );
        }
    }

    #[test]
    fn replication_snapshot_ships_the_log_and_refuses_damaged_history() {
        let tmp = ScratchDir::new("dur-repl-snapshot");
        // Tiny segments: the log spans several, all but the last closed.
        let (engine, _) = DurableEngine::open_with_segment_bytes(tmp.path(), 2, 64).unwrap();
        engine.run([tx("create relation R as list")]);
        engine.run((0..6).map(|i| tx(&format!("insert {i} into R"))));
        let (checkpoint, tail) = engine.replication_snapshot().unwrap();
        assert!(checkpoint.is_none());
        assert_eq!(wal::decode_records(&tail).unwrap().len(), 7);

        // A bit-flip inside the first (closed) segment's first record:
        // shipping the prefix before it would drop acknowledged writes.
        let first = wal_dir(tmp.path()).join("wal-000001.log");
        crate::fault::flip_bit(&first, 10, 0).unwrap();
        let err = engine.replication_snapshot().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn create_after_checkpoint_replays_and_numbering_resumes() {
        let tmp = ScratchDir::new("dur-resume");
        {
            let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
            engine.run([tx("create relation R as tree")]);
            engine.run((0..5).map(|i| tx(&format!("insert ({i}, 'a') into R"))));
            engine.checkpoint().unwrap();
            // After the checkpoint: a new relation and more writes to R.
            engine.run([tx("create relation Late as list")]);
            engine.run([tx("insert 100 into Late"), tx("insert (5, 'b') into R")]);
        }
        let (engine, _) = DurableEngine::open(tmp.path(), 2).unwrap();
        let cut = engine.consistent_cut();
        assert_eq!(cut.seq_marks[&"R".into()], 6, "5 checkpointed + 1 replayed");
        assert_eq!(cut.seq_marks[&"Late".into()], 1);
        assert_eq!(
            cut.database.relation(&"Late".into()).unwrap().len(),
            1,
            "post-checkpoint create and its write both recovered"
        );

        // Numbering resumes: new writes append after the recovered marks,
        // so a second recovery sees one monotone sequence per relation.
        engine.run([tx("insert (6, 'c') into R")]);
        drop(engine);
        let (engine, report) = DurableEngine::open(tmp.path(), 2).unwrap();
        assert!(report.wal_stop.is_none());
        assert_eq!(engine.consistent_cut().seq_marks[&"R".into()], 7);
    }
}
