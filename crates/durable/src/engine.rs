//! The durable engine: the pipelined engine with its write path hooked to
//! the log and its cuts hooked to the checkpoint store.
//!
//! **Commit protocol.** The pipelined engine coalesces same-relation writes
//! into batches; [`DurableStore`] (the engine's [`CommitSink`]) queues each
//! claimed batch's encoded records, and one *flush* makes every queued
//! batch — of every relation — durable with one WAL append and one fsync
//! *before* any of their responses are filled. A transaction whose
//! response has arrived is therefore on disk — the ack is the durability
//! receipt. One fsync per flush, not per transaction nor per relation, is
//! the group commit: under load, fsync latency grows the next batches, so
//! the log keeps up with the pipeline instead of serializing it.
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
use std::fmt;
use std::fs;
use std::io;
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use fundb_core::engine::ConsistentCut;
use fundb_core::{CommitSink, Landed, PipelinedEngine};
use fundb_lenient::{spawn_deferred, Lenient};
use fundb_query::{exec, parse, translate, Query, Response, Transaction};
use fundb_relational::{BatchOp, Database, RelationName};
use parking_lot::{Mutex, RwLock};

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

/// The durable store: one write-ahead log fed by a group-commit queue.
///
/// A committing batch encodes its records on its own thread and queues the
/// frames with its continuation ([`CommitSink::commit_writes_then`]). One
/// *flush* takes every queued frame — of every relation — and writes them
/// with one `write` and one fsync ([`Wal::append_frames`]), holding the
/// log's lock for that alone; then it runs the queued batches'
/// continuations, in queue order, with its outcome. A failed flush fails
/// every batch in it, and the log quarantines its tail (see
/// [`Wal::append_batch`]). Observers [`attach`](Self::attach)ed to the
/// store — a replication sender — see each batch after its flush returned
/// `Ok` and before its continuation answers it.
///
/// Who flushes: a committer on a pool worker queues the flush as a pool
/// job ([`spawn_deferred`]) behind the jobs already waiting — another
/// relation's batch among them, which then joins the flush — and runs it
/// itself at the latest when it is about to block; with no job waiting,
/// or an idle worker to take it, it flushes at once. A committer off the pool (a bypass write, a `create`,
/// on its submitting thread) flushes at once, taking along whatever is
/// queued.
pub struct DurableStore {
    log: Arc<Log>,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("flushes", &self.flushes())
            .field("batches", &self.batches())
            .finish()
    }
}

/// The store's shared state: what a flush job holds on to.
struct Log {
    wal: Mutex<Wal>,
    queue: Mutex<Queue>,
    /// Sinks told about every flushed batch, in attach order.
    observers: RwLock<Vec<Arc<dyn CommitSink>>>,
    flushes: AtomicU64,
    batches: AtomicU64,
    /// Test hook: the next committing batch fills the first cell and then
    /// waits on the second before it queues its frames.
    #[cfg(test)]
    gate: Mutex<Option<(Lenient<()>, Lenient<()>)>>,
}

/// The batches waiting for the next flush.
#[derive(Default)]
struct Queue {
    /// Their frames, concatenated in queue order.
    frames: Vec<u8>,
    batches: Vec<Queued>,
}

/// One queued batch: its records, kept when observers must see them, and
/// its continuation.
struct Queued {
    writes: Option<(RelationName, Vec<(u64, Query)>)>,
    landed: Landed,
}

impl Log {
    /// Writes every queued frame with one append and one fsync, then runs
    /// the queued continuations with the outcome — after the log's lock is
    /// released, so the next flush can start meanwhile.
    fn flush(&self) {
        // A flush job whose batch an earlier flush took finds nothing
        // here, and must not wait for the log's lock to learn it.
        if self.queue.lock().batches.is_empty() {
            return;
        }
        let mut wal = self.wal.lock();
        let (frames, batches) = {
            let mut queue = self.queue.lock();
            (mem::take(&mut queue.frames), mem::take(&mut queue.batches))
        };
        if batches.is_empty() {
            return;
        }
        let outcome = wal.append_frames(&frames);
        drop(wal);
        self.flushes.fetch_add(1, Relaxed);
        self.batches.fetch_add(batches.len() as u64, Relaxed);
        for Queued { writes, landed } in batches {
            landed(match (&outcome, writes) {
                (Ok(()), Some((relation, writes))) => self.observe(&relation, &writes),
                (Ok(()), None) => Ok(()),
                (Err(e), _) => Err(io::Error::new(e.kind(), e.to_string())),
            });
        }
    }

    /// Tells every observer about a flushed batch; the first that fails
    /// fails the batch, and later ones do not see it.
    fn observe(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        self.observers
            .read()
            .iter()
            .try_for_each(|o| o.commit_writes(relation, writes))
    }
}

impl DurableStore {
    /// Opens the log under `dir` (repairing nothing — pair with
    /// [`Wal::recover`] first, as [`recover_state`] does).
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<DurableStore> {
        Ok(DurableStore {
            log: Arc::new(Log {
                wal: Mutex::new(Wal::open(dir, segment_bytes)?),
                queue: Mutex::new(Queue::default()),
                observers: RwLock::new(Vec::new()),
                flushes: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                #[cfg(test)]
                gate: Mutex::new(None),
            }),
        })
    }

    /// The segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.log.wal.lock().current_segment()
    }

    /// Attaches a commit observer: it sees every batch queued from now on,
    /// once its flush succeeded, and every later `create` — only what the
    /// log accepted. This is how a replication sender taps the
    /// group-commit stream.
    pub fn attach(&self, observer: Arc<dyn CommitSink>) {
        self.log.observers.write().push(observer);
    }

    /// Flushes so far: appends, each one `write` and one fsync, failed
    /// ones included.
    pub fn flushes(&self) -> u64 {
        self.log.flushes.load(Relaxed)
    }

    /// Batches the flushes so far carried — claimed write batches, bypass
    /// writes and `create`s.
    pub fn batches(&self) -> u64 {
        self.log.batches.load(Relaxed)
    }

    /// Queues one batch's frames and sees them flushed: by a flush job
    /// deferred behind the jobs waiting on the pool when the caller is a
    /// pool worker and `wait` is off, otherwise right here. Each deferred
    /// job flushes whatever is queued when it runs, so a job whose batch
    /// an earlier flush took does nothing.
    fn enqueue(&self, frames: Vec<u8>, queued: Queued, wait: bool) {
        {
            let mut queue = self.log.queue.lock();
            if queue.frames.is_empty() {
                queue.frames = frames;
            } else {
                queue.frames.extend_from_slice(&frames);
            }
            queue.batches.push(queued);
        }
        let deferred = !wait && {
            let log = Arc::clone(&self.log);
            spawn_deferred(move || log.flush())
        };
        if !deferred {
            self.log.flush();
        }
    }

    /// Queues one batch's frames and returns the outcome of the flush
    /// that carried them.
    fn commit_now(&self, frames: Vec<u8>) -> io::Result<()> {
        let done: Lenient<io::Result<()>> = Lenient::new();
        let filled = done.clone();
        let landed = Box::new(move |outcome| {
            filled.fill(outcome).ok();
        });
        self.enqueue(
            frames,
            Queued {
                writes: None,
                landed,
            },
            true,
        );
        match done.wait() {
            Ok(()) => Ok(()),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

impl CommitSink for DurableStore {
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        self.commit_now(wal::encode_records(&WalRecord::write_run(relation, writes)))?;
        self.log.observe(relation, writes)
    }

    fn commit_create(&self, query: &Query) -> io::Result<()> {
        let record = WalRecord::Create {
            query: query.to_string(),
        };
        self.commit_now(wal::encode_records(&[record]))?;
        self.log
            .observers
            .read()
            .iter()
            .try_for_each(|o| o.commit_create(query))
    }

    fn commit_writes_then(
        &self,
        relation: &RelationName,
        writes: Vec<(u64, Query)>,
        landed: Landed,
    ) {
        #[cfg(test)]
        if let Some((entered, open)) = self.log.gate.lock().take() {
            entered.fill(()).ok();
            open.wait_timeout(std::time::Duration::from_secs(20));
        }
        // Encoded here, on the committing thread: the flush holds the
        // log's lock for the write and the fsync only.
        let frames = wal::encode_records(&WalRecord::write_run(relation, &writes));
        let observed = !self.log.observers.read().is_empty();
        let queued = Queued {
            writes: observed.then(|| (relation.clone(), writes)),
            landed,
        };
        self.enqueue(frames, queued, false);
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
/// Data writes go through the batch kernel as one run per relation, held
/// until a barrier — a `create`, a write that is not a data write (an
/// index build) or the end of input — and then landed relation by
/// relation. Writes to different relations commute, and a view's contents
/// depend only on its bases, so the state is the one the record-by-record
/// fold gives.
pub fn replay_records<'a>(
    db: Database,
    marks: HashMap<RelationName, u64>,
    records: impl IntoIterator<Item = &'a WalRecord>,
) -> io::Result<ReplayedState> {
    let mut db = db;
    let mut marks = marks;
    let mut applied = Vec::new();
    let mut skipped = 0usize;
    let mut runs = WriteRuns::default();
    for (i, record) in records.into_iter().enumerate() {
        match record {
            WalRecord::Create { query } => {
                let (q, target) = parse_create(query)?;
                db = runs.land(db);
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
                    (Some(op), Some(target)) => runs.push(target, op),
                    _ => {
                        db = runs.land(db);
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
        database: runs.land(db),
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

/// The data writes read since the last barrier, one run per relation in
/// order of first appearance, not yet applied.
#[derive(Default)]
struct WriteRuns(Vec<(RelationName, Vec<BatchOp>)>);

impl WriteRuns {
    /// Adds `op` to `relation`'s run.
    fn push(&mut self, relation: &RelationName, op: BatchOp) {
        match self.0.iter_mut().find(|(r, _)| r == relation) {
            Some((_, ops)) => ops.push(op),
            None => self.0.push((relation.clone(), vec![op])),
        }
    }

    /// Applies each run to `db` as one batch and empties the set. A
    /// relation that is missing or is a view refuses its run, as it
    /// refuses each write alone.
    fn land(&mut self, db: Database) -> Database {
        self.0
            .drain(..)
            .fold(db, |db, (relation, ops)| match db.write(&relation, &ops) {
                Ok((next, _, _)) => next,
                Err(_) => db,
            })
    }
}

/// A [`PipelinedEngine`] whose acknowledgements are durability receipts.
#[derive(Debug)]
pub struct DurableEngine {
    engine: PipelinedEngine,
    /// The engine's sink; sinks attached later (a replication sender)
    /// observe through it, so they only ever see batches the local log
    /// accepted.
    store: Arc<DurableStore>,
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
        let engine = PipelinedEngine::with_sink(
            workers,
            &cut.database,
            store.clone() as Arc<dyn CommitSink>,
            &cut.seq_marks,
        );
        let checkpoints = Mutex::new(CheckpointWriter::open(&ckpt_dir)?);
        Ok((
            DurableEngine {
                engine,
                store,
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

    /// The durable store: the log and its flush counters.
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Attaches another commit observer to the durable store
    /// ([`DurableStore::attach`]): it sees every batch from the next
    /// commit on, once its flush succeeded, before the batch's answers.
    /// This is how a replication sender taps the group-commit stream.
    pub fn attach_sink(&self, sink: Arc<dyn CommitSink>) {
        self.store.attach(sink);
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

    /// Arms the store's gate: the next committing batch signals the first
    /// cell once computed and queues its frames only once the second is
    /// filled, holding its worker until then.
    fn arm_gate(engine: &DurableEngine) -> (Lenient<()>, Lenient<()>) {
        let (entered, open) = (Lenient::new(), Lenient::new());
        *engine.store.log.gate.lock() = Some((entered.clone(), open.clone()));
        (entered, open)
    }

    const PATIENCE: std::time::Duration = std::time::Duration::from_secs(20);

    /// Submits a burst of uninterrupted writes to `relation` (keys from
    /// 100 on), so its slot leaves the bypass regime a fresh slot starts
    /// in and later writes go to batches on the pool.
    fn warm_to_batches(engine: &DurableEngine, relation: &str) {
        let burst = (100..116).map(|k| tx(&format!("insert ({k}, 'w') into {relation}")));
        assert!(engine.run(burst).iter().all(|a| !a.is_error()));
    }

    #[test]
    fn concurrent_writers_on_four_relations_share_flushes() {
        for workers in [1, 2] {
            let tmp = ScratchDir::new("dur-group");
            let acked: Vec<Vec<u64>> = {
                let (engine, _) = DurableEngine::open(tmp.path(), workers).unwrap();
                engine.run((0..4).map(|r| tx(&format!("create relation R{r} as tree"))));
                let (flushes, batches) = (engine.store().flushes(), engine.store().batches());
                let acked = std::thread::scope(|scope| {
                    let writers: Vec<_> = (0..4)
                        .map(|r| {
                            let engine = &engine;
                            scope.spawn(move || {
                                (0..150u64)
                                    .filter(|k| {
                                        let q = format!("insert ({k}, 'w{r}') into R{r}");
                                        !engine.submit(tx(&q)).wait().is_error()
                                    })
                                    .collect::<Vec<u64>>()
                            })
                        })
                        .collect();
                    writers.into_iter().map(|w| w.join().unwrap()).collect()
                });
                let flushes = engine.store().flushes() - flushes;
                let batches = engine.store().batches() - batches;
                assert!(
                    flushes < batches,
                    "{workers} worker(s): {flushes} flushes for {batches} batches"
                );
                acked
            };
            let (cut, report) = recover_state(tmp.path()).unwrap();
            assert!(report.wal_stop.is_none());
            for (r, keys) in acked.iter().enumerate() {
                assert_eq!(keys.len(), 150, "R{r}: every write was acknowledged");
                let relation = cut
                    .database
                    .relation(&RelationName::new(&format!("R{r}")))
                    .unwrap();
                for k in keys {
                    let found = relation.find(&fundb_relational::Value::Int(*k as i64));
                    assert_eq!(found.len(), 1, "R{r}: acknowledged key {k} recovered");
                }
            }
        }
    }

    #[test]
    fn a_failed_flush_fails_every_batch_it_carries() {
        let tmp = ScratchDir::new("dur-failed-group");
        let (engine, _) = DurableEngine::open(tmp.path(), 1).unwrap();
        engine.run([
            tx("create relation R as tree"),
            tx("create relation S as tree"),
            tx("insert (1, 'r') into R"),
            tx("insert (1, 's') into S"),
        ]);
        warm_to_batches(&engine, "R");
        warm_to_batches(&engine, "S");
        let before = engine.snapshot();
        let (flushes, batches) = (engine.store().flushes(), engine.store().batches());
        // The one worker stops at R's commit; S's batch job queues behind
        // it, ahead of the flush R's commit defers, so one flush takes both
        // — and fails.
        let (entered, open) = arm_gate(&engine);
        let r = engine.submit(tx("insert (2, 'r') into R"));
        assert!(entered.wait_timeout(PATIENCE).is_some());
        let s = engine.submit(tx("insert (2, 's') into S"));
        engine.store.log.wal.lock().fail_appends = 1;
        open.fill(()).unwrap();
        for answer in [&r, &s] {
            let answer = answer.wait_timeout(PATIENCE).expect("answered");
            assert!(
                matches!(answer, Response::Error(e) if e.starts_with("commit failed")),
                "{answer:?}"
            );
        }
        assert_eq!(engine.store().flushes() - flushes, 1, "one flush");
        assert_eq!(
            engine.store().batches() - batches,
            2,
            "carried both batches"
        );
        assert!(db_equal(&engine.snapshot(), &before), "prior versions kept");
        let next = engine.run([tx("insert (3, 'r') into R"), tx("insert (3, 's') into S")]);
        assert!(next.iter().all(|a| !a.is_error()), "{next:?}");
        let expected = engine.snapshot();
        drop(engine);
        let (cut, report) = recover_state(tmp.path()).unwrap();
        assert!(report.wal_stop.is_none(), "{:?}", report.wal_stop);
        assert!(db_equal(&cut.database, &expected));
        for name in ["R", "S"] {
            let relation = cut.database.relation(&name.into()).unwrap();
            assert!(relation.find(&fundb_relational::Value::Int(2)).is_empty());
        }
        assert_eq!(
            report.replayed, 38,
            "2 creates + 36 writes; the failed group is gone"
        );
    }

    #[test]
    fn a_promoted_chained_batch_ahead_of_the_deferred_flush_completes() {
        let tmp = ScratchDir::new("dur-promoted-chain");
        let (engine, _) = DurableEngine::open(tmp.path(), 1).unwrap();
        engine.run([tx("create relation R as tree")]);
        warm_to_batches(&engine, "R");
        // The one worker claims A = {1} and stops before queuing its
        // frames. Behind A's pending output, 2 opens a chained batch B; the
        // read seals B and promotes it, so B's job is queued ahead of the
        // flush A's commit then defers. B waits on A's output, which only
        // that flush fills: the worker must run it before it blocks.
        let (entered, open) = arm_gate(&engine);
        let a = engine.submit(tx("insert (1, 'a') into R"));
        assert!(entered.wait_timeout(PATIENCE).is_some());
        let b = engine.submit(tx("insert (2, 'b') into R"));
        let read = engine.submit(tx("find 2 in R"));
        open.fill(()).unwrap();
        let answers: Option<Vec<&Response>> = [&a, &b, &read]
            .iter()
            .map(|c| c.wait_timeout(PATIENCE))
            .collect();
        let Some(answers) = answers else {
            // The stalled worker would hang the pool's drop as well.
            std::mem::forget(engine);
            panic!("a batch queued ahead of the deferred flush stalled the one worker");
        };
        assert!(answers.iter().all(|a| !a.is_error()), "{answers:?}");
        assert_eq!(answers[2].tuples().unwrap().len(), 1);
    }

    /// Counts the batches it observes and fails them when told to.
    #[derive(Default)]
    struct Observer {
        writes: std::sync::atomic::AtomicUsize,
        creates: std::sync::atomic::AtomicUsize,
        fail: bool,
    }

    impl CommitSink for Observer {
        fn commit_writes(&self, _: &RelationName, _: &[(u64, Query)]) -> io::Result<()> {
            self.writes.fetch_add(1, Relaxed);
            if self.fail {
                return Err(io::Error::other("injected"));
            }
            Ok(())
        }

        fn commit_create(&self, _: &Query) -> io::Result<()> {
            self.creates.fetch_add(1, Relaxed);
            Ok(())
        }
    }

    #[test]
    fn observers_see_flushed_batches_in_attach_order_from_their_attach_on() {
        let tmp = ScratchDir::new("dur-observers");
        let (engine, _) = DurableEngine::open(tmp.path(), 1).unwrap();
        let first = Arc::new(Observer::default());
        engine.attach_sink(first.clone());
        engine.run([tx("create relation R as tree")]);
        engine.run([tx("insert (1, 'x') into R")]);
        let (bad, after) = (
            Arc::new(Observer {
                fail: true,
                ..Observer::default()
            }),
            Arc::new(Observer::default()),
        );
        engine.attach_sink(bad.clone());
        engine.attach_sink(after.clone());
        let refused = engine.run([tx("insert (2, 'x') into R")]);
        assert!(refused[0].is_error(), "a failing observer fails the batch");
        assert_eq!(first.creates.load(Relaxed), 1);
        assert_eq!(first.writes.load(Relaxed), 2);
        assert_eq!(bad.creates.load(Relaxed), 0, "attached after the create");
        assert_eq!(bad.writes.load(Relaxed), 1);
        assert_eq!(
            after.writes.load(Relaxed),
            0,
            "observers after the failing one do not see the batch"
        );
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
