//! Replicated log shipping over the shared medium — the paper's Section 3
//! distribution story on top of the durable commit path.
//!
//! The primary site's group-commit WAL "is exactly the per-site stream a
//! replicated log would ship" (DESIGN.md §12): a [`ReplicationSender`]
//! observes the durable store's flushes and mails each committed batch
//! — in the WAL's own frame encoding — to every replica site as a
//! [`Replicate`](DbPayload::Replicate) message. A [`ReplicaSite`] applies
//! the batches to its *own* log and database value, and serves read-only
//! queries locally, so a read-mostly workload scales with the replica
//! count while writes still serialize through one primary.
//!
//! **Why the medium makes this easy.** A `choose` inbox is persistent and
//! starts at the medium's first message: a replica reading from the
//! beginning observes *every* batch the primary ever shipped to it, in
//! merge order, no matter when it starts paying attention. The
//! only history a replica can miss is what the primary committed before
//! this medium existed (its recovered disk state) — which is exactly what
//! the catch-up handshake ships: the newest checkpoint, exported as one
//! blob, plus the uncovered WAL tail. A replica's state always comes from
//! the durable crate's one recovery function, `recover_state`: at startup
//! over its own directory, and again after importing a shipped checkpoint
//! (the import becomes its newest manifest; replay above the manifest's
//! marks restores whatever its own log holds past it). Overlap between
//! snapshot and stream is harmless because per-relation write sequence
//! numbers make apply idempotent (records below a relation's mark are
//! skipped).
//!
//! **Read-your-writes.** A batch's `Replicate` hits the medium *before*
//! any of its transactions are acknowledged (the sender observes the
//! store's flush, after the local log and before the batch's answers). A client that saw an ack and then reads
//! from a replica therefore finds its write already in the replica's inbox
//! prefix — the merge order of the medium doubles as the consistency
//! argument, with no extra synchronization.
//!
//! **A replica is a fold, not a thread.** Its state is folded over its
//! inbox one message per step ([`Stream::drive`]), by whichever thread
//! fills the next inbox position: a `Replicate` is queued on the primary's
//! committing thread, and a read is applied and answered on the thread of
//! the client that sends it — the deferred apply of queued batches
//! included — so a read routed to an idle replica is answered before
//! `submit` returns. Each step still sees the messages in inbox order, so
//! the consistency argument above is untouched.
//!
//! **Failover.** [`ShardedCluster::kill_primary`] halts a shard's primary
//! (joining it, so every admitted commit is shipped and answered first);
//! [`ShardedCluster::promote`] then orders a replica to take over. The
//! replica drains what it has buffered, reopens its local store as a full
//! [`DurableEngine`] — its log holds every record it applied, so recovery
//! reproduces its in-memory state exactly — and continues serving from the
//! same inbox position in primary mode, running the same loop every
//! primary runs (`primary::run_primary_loop`) on a thread the promotion
//! starts. The promoted state is a
//! prefix of acknowledged history containing every acknowledged
//! transaction.
//!
//! The cluster that wires primaries, replicas and clients together is
//! [`ShardedCluster`]; with one shard it is the plain replicated cluster.
//!
//! [`ShardedCluster`]: crate::ShardedCluster
//! [`ShardedCluster::kill_primary`]: crate::ShardedCluster::kill_primary
//! [`ShardedCluster::promote`]: crate::ShardedCluster::promote

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fundb_core::CommitSink;
use fundb_durable::{
    checkpoint_dir, decode_records, encode_records, import, recover_state, replay_records, wal_dir,
    DurableEngine, Wal, WalRecord,
};
use fundb_lenient::stream::Node;
use fundb_lenient::{Lenient, Stream};
use fundb_query::{translate, Query, Response};
use fundb_relational::{Database, RelationName};

use crate::medium::SharedMedium;
use crate::message::{DbPayload, Message, SiteId};
use crate::primary::run_primary_loop;

/// The site id cluster-control messages (`Halt`, `Promote`, `SyncPing`)
/// originate from. No running site serves it — but the cluster's `sync`
/// reads its `choose` stream to collect ping answers.
pub(crate) const CONTROL_SITE: SiteId = SiteId(u32::MAX - 1);

/// A [`CommitSink`] that ships every committed batch to the replica sites.
///
/// Attached to the durable store, which tells it each batch after the
/// flush carrying it succeeded and before the batch's answers, so it
/// only observes batches the local log accepted; and it never fails the
/// commit — replication is asynchronous, off the ack path, so group-commit
/// latency is untouched (the Didona et al. trade: replicas acknowledge
/// later, via [`ReplicateAck`](DbPayload::ReplicateAck)).
pub struct ReplicationSender {
    medium: SharedMedium<DbPayload>,
    from: SiteId,
    peers: Vec<SiteId>,
    seq: AtomicU64,
    /// Cumulative batches shipped — shared with the cluster so `sync` can
    /// compare it against replica acks, and carried across promotions.
    batches: Arc<AtomicU64>,
}

impl fmt::Debug for ReplicationSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReplicationSender[{} -> {} peers]",
            self.from,
            self.peers.len()
        )
    }
}

impl ReplicationSender {
    /// A sender shipping from `from` to `peers`, counting batches into the
    /// shared `batches` counter.
    pub fn new(
        medium: SharedMedium<DbPayload>,
        from: SiteId,
        peers: Vec<SiteId>,
        batches: Arc<AtomicU64>,
    ) -> ReplicationSender {
        ReplicationSender {
            medium,
            from,
            peers,
            seq: AtomicU64::new(0),
            batches,
        }
    }

    fn ship(&self, records: &[WalRecord]) {
        if self.peers.is_empty() {
            return;
        }
        // One unicast send per replica, not a broadcast: a broadcast is
        // admitted by *every* site's inbox, so each batch would needlessly
        // wake every client receiver on the medium. Addressed sends touch
        // only the replicas, and the commit path's added cost stays at a
        // few constant-time enqueues.
        let frames = encode_records(records);
        for &peer in &self.peers {
            let seq = self.seq.fetch_add(1, Ordering::SeqCst);
            self.medium.send(Message::new(
                self.from,
                peer,
                seq,
                DbPayload::Replicate {
                    frames: frames.clone(),
                },
            ));
        }
        self.batches.fetch_add(1, Ordering::SeqCst);
    }
}

impl CommitSink for ReplicationSender {
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        self.ship(&WalRecord::write_run(relation, writes));
        Ok(())
    }

    fn commit_create(&self, query: &Query) -> io::Result<()> {
        self.ship(&[WalRecord::Create {
            query: query.to_string(),
        }]);
        Ok(())
    }
}

/// A replica's outcome: requests served as a promoted primary (0 for a
/// never-promoted replica), or the I/O error that stopped it. Filled
/// once; dropped unfilled — a panic unwound the step holding the state —
/// it fills with an error, so [`ReplicaSite::join`] never waits on a
/// replica that is gone.
struct Done(Lenient<io::Result<u64>>);

impl Done {
    fn fill(&self, outcome: io::Result<u64>) {
        let _ = self.0.fill(outcome);
    }
}

impl Drop for Done {
    fn drop(&mut self) {
        self.fill(Err(io::Error::other(
            "replica stopped without an outcome: a step panicked",
        )));
    }
}

/// The state a replica folds its inbox into, one [`step`](Self::step)
/// per message.
struct ReplicaState {
    dir: PathBuf,
    medium: SharedMedium<DbPayload>,
    site: SiteId,
    /// The shard this replica belongs to (0 on an unsharded cluster).
    shard: u32,
    wal: Wal,
    db: Database,
    marks: HashMap<RelationName, u64>,
    /// Shipped batches received but not yet folded in, oldest first.
    pending: Vec<Vec<u8>>,
    /// Replicate batches applied, cumulatively — the value acked back.
    applied: u64,
    /// Broadcast [`Sequenced`](DbPayload::Sequenced) transactions with a
    /// sub-batch for our shard whose primary ack we have *not* seen yet,
    /// in arrival order. The primary's ack copy always follows the
    /// `Replicate` that ships the same writes (the copy leaves when the
    /// commit fills the sub-batch's cells, and the store's observers ship
    /// first), so an entry still here at promotion is precisely a
    /// transaction the dead primary never applied — the promoted primary
    /// replays this buffer as its backlog.
    seq_buf: Vec<Message<DbPayload>>,
    send_seq: u64,
    /// Whether the catch-up `Snapshot` has landed. Until it does, live
    /// traffic waits in `buffered`, in arrival order: serving a read early
    /// could miss history the snapshot carries.
    caught_up: bool,
    buffered: Vec<Message<DbPayload>>,
    /// What a promotion needs: the engine's worker count and the shard's
    /// shipped-batch counter.
    workers: usize,
    batches: Arc<AtomicU64>,
    done: Done,
}

impl ReplicaState {
    fn send(&mut self, to: SiteId, payload: DbPayload) {
        let seq = self.send_seq;
        self.send_seq += 1;
        self.medium.send(Message::new(self.site, to, seq, payload));
    }

    /// Replays `records` over our state, logs exactly the records the
    /// replay applied, then installs the result. Append-before-install is
    /// the promotion invariant: everything visible in `db` is in our log
    /// (or an imported checkpoint), so reopening the store recovers
    /// exactly this state.
    fn apply_records(&mut self, records: &[WalRecord]) -> io::Result<()> {
        let state = replay_records(self.db.clone(), self.marks.clone(), records)?;
        if !state.applied.is_empty() {
            let applied: Vec<WalRecord> =
                state.applied.iter().map(|&i| records[i].clone()).collect();
            self.wal.append_batch(&applied)?;
        }
        self.db = state.database;
        self.marks = state.seq_marks;
        Ok(())
    }

    /// Imports a shipped checkpoint as our newest manifest, then recovers
    /// again: the checkpoint's state plus whatever our own log holds past
    /// its marks. Nothing is applied before the snapshot lands, so the log
    /// is as startup recovery left it and the second recovery only
    /// re-reads it.
    fn install_checkpoint(&mut self, blob: &[u8]) -> io::Result<()> {
        import(&checkpoint_dir(&self.dir), blob)?;
        let (cut, _) = recover_state(&self.dir)?;
        self.db = cut.database;
        self.marks = cut.seq_marks;
        Ok(())
    }

    /// Folds in every batch queued by [`handle_live`], oldest first.
    ///
    /// Applying is deferred to the next point that actually needs the
    /// state. This is what keeps the primary's ack path clean: receiving
    /// a batch is a queue push on the committing thread, and the
    /// decode/log/apply work runs only once a read (or probe) lands here,
    /// on the thread that sent it — by which time the commit that shipped
    /// the batch has long been acknowledged. The queued batches are
    /// replayed and logged as one: replay is a fold over the records, so
    /// their concatenation lands the same state as one batch at a time.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut records = Vec::new();
        for frames in &self.pending {
            records.extend(decode_records(frames)?);
        }
        self.apply_records(&records)?;
        self.applied += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// One live message: queue a shipped batch, answer a sync probe,
    /// track sequenced transactions for our shard, or answer a read-only
    /// query from the local database value.
    fn handle_live(&mut self, msg: Message<DbPayload>) -> io::Result<()> {
        match msg.payload {
            // Buffer participant broadcasts until the primary's ack copy
            // confirms they were applied (and shipped to us as ordinary
            // `Replicate` traffic). Non-participant broadcasts are other
            // shards' business.
            DbPayload::Sequenced { ref subs, .. } if subs.iter().any(|(s, _)| *s == self.shard) => {
                self.seq_buf.push(msg);
            }
            DbPayload::Sequenced { .. } => {}
            DbPayload::SequencedAck {
                origin,
                in_reply_to,
                shard,
                ..
            } if shard == self.shard => {
                self.seq_buf.retain(|m| {
                    !matches!(
                        &m.payload,
                        DbPayload::Sequenced { origin: o, txn, .. }
                            if *o == origin && *txn == in_reply_to
                    )
                });
            }
            DbPayload::SequencedAck { .. } => {}
            DbPayload::Replicate { frames } => {
                self.pending.push(frames);
                // No per-batch ack: progress is only reported when a
                // SyncPing asks — steady-state shipping costs the medium
                // exactly one message per batch.
            }
            DbPayload::SyncPing { token } => {
                // Processing the ping means everything shipped before it
                // is already queued here (inboxes preserve merge order);
                // flush,
                // and that positional fact, echoed, is the sync barrier.
                self.flush_pending()?;
                let ack = DbPayload::ReplicateAck {
                    token,
                    batches: self.applied,
                };
                self.send(msg.from, ack);
            }
            DbPayload::Request { client, query } => {
                self.flush_pending()?;
                // A `result-on` pin can still send a write here.
                let response = if query.is_read_only() {
                    translate(query).apply(&self.db).0
                } else {
                    Response::Error(
                        "replica serves read-only queries; send writes to the primary".into(),
                    )
                };
                let reply = DbPayload::Reply {
                    client,
                    in_reply_to: msg.seq,
                    response,
                };
                self.send(msg.from, reply);
            }
            _ => {}
        }
        Ok(())
    }

    /// Local recovery — the function `DurableEngine::open` runs — over
    /// `dir`, and the replica's log.
    fn open(
        dir: PathBuf,
        medium: SharedMedium<DbPayload>,
        site: SiteId,
        shard: u32,
        workers: usize,
        batches: Arc<AtomicU64>,
        done: Lenient<io::Result<u64>>,
    ) -> io::Result<ReplicaState> {
        let (recovered, _) = recover_state(&dir)?;
        // The replica's log skips the per-batch fsync: the primary's log
        // is the authoritative copy and catch-up re-ships whatever an OS
        // crash tears off this tail. Promotion syncs once before the log
        // becomes authoritative. Keeps log shipping off the disk's fsync
        // queue — the primary's commit latency must not feel the replicas.
        let wal = Wal::open(&wal_dir(&dir), Wal::DEFAULT_SEGMENT_BYTES)?.without_sync();
        Ok(ReplicaState {
            dir,
            medium,
            site,
            shard,
            wal,
            db: recovered.database,
            marks: recovered.seq_marks,
            pending: Vec::new(),
            applied: 0,
            seq_buf: Vec::new(),
            send_seq: 0,
            caught_up: false,
            buffered: Vec::new(),
            workers,
            batches,
            done: Done(done),
        })
    }

    /// The replica as a function of its inbox: takes one node, returns
    /// the state for the next, or `None` once the fold is over — at
    /// `Halt`, at the end of the medium, on an I/O error, or at `Promote`,
    /// whose thread carries the state on as a primary.
    fn step(mut self, node: &Node<Message<DbPayload>>) -> Option<Self> {
        let Node::Cons(msg, rest) = node else {
            return self.stop();
        };
        let msg = msg.clone();
        let outcome = match msg.payload {
            DbPayload::Promote { peers } => {
                let inbox = rest.clone();
                std::thread::spawn(move || self.promote(inbox, peers));
                return None;
            }
            DbPayload::Halt => return self.stop(),
            DbPayload::Snapshot { .. } if self.caught_up => Ok(()), // duplicate
            DbPayload::Snapshot { checkpoint, tail } => self.catch_up(checkpoint.as_deref(), &tail),
            DbPayload::Replicate { .. }
            | DbPayload::Request { .. }
            | DbPayload::SyncPing { .. }
            | DbPayload::Sequenced { .. }
            | DbPayload::SequencedAck { .. } => {
                if self.caught_up {
                    self.handle_live(msg)
                } else {
                    self.buffered.push(msg);
                    Ok(())
                }
            }
            _ => Ok(()),
        };
        match outcome {
            Ok(()) => Some(self),
            Err(e) => {
                self.done.fill(Err(e));
                None
            }
        }
    }

    /// Installs the catch-up snapshot, then serves what waited for it.
    fn catch_up(&mut self, checkpoint: Option<&[u8]>, tail: &[u8]) -> io::Result<()> {
        if let Some(blob) = checkpoint {
            self.install_checkpoint(blob)?;
        }
        self.apply_records(&decode_records(tail)?)?;
        self.caught_up = true;
        self.drain_buffered()
    }

    fn drain_buffered(&mut self) -> io::Result<()> {
        for m in std::mem::take(&mut self.buffered) {
            self.handle_live(m)?;
        }
        Ok(())
    }

    /// `Halt` or the end of the medium: folds any still-queued batches
    /// into the local log, so a restart has the longest possible local
    /// prefix.
    fn stop(mut self) -> Option<Self> {
        let outcome = self.flush_pending().map(|()| 0);
        self.done.fill(outcome);
        None
    }

    /// The promoted primary's driver thread: reopens the local store as a
    /// durable engine (its log replays to exactly the replica's state),
    /// attaches a sender for the surviving peers, and serves `inbox` — the
    /// stream right after the `Promote` — with the same loop every primary
    /// runs. The primary keeps a thread: its step would put bypass-write
    /// fsyncs on the senders' threads.
    fn promote(mut self, inbox: Stream<Message<DbPayload>>, peers: Vec<SiteId>) {
        // The kill-then-promote protocol guarantees every batch the dead
        // primary acked precedes the `Promote` in our inbox: drain what is
        // buffered, fold in what is queued, and force the log — about to
        // be the cluster's authoritative history — to media.
        let drained = self
            .drain_buffered()
            .and_then(|()| self.flush_pending())
            .and_then(|()| self.wal.sync());
        let ReplicaState {
            dir,
            medium,
            site,
            shard,
            wal,
            seq_buf,
            workers,
            batches,
            done,
            ..
        } = self;
        drop(wal); // released for the engine to reopen
        done.fill(drained.and_then(|()| {
            let (engine, _report) = DurableEngine::open(&dir, workers)?;
            let engine = Arc::new(engine);
            if !peers.is_empty() {
                engine.attach_sink(Arc::new(ReplicationSender::new(
                    medium.clone(),
                    site,
                    peers.clone(),
                    batches,
                )));
            }
            // `seq_buf` holds exactly the sequenced transactions the dead
            // primary admitted to the medium but never applied (applied
            // ones were struck off by its ack copies, which the clean halt
            // flushed out before the promotion was sent). Apply them first
            // — their origins are still waiting on this shard's receipt.
            Ok(run_primary_loop(
                inbox, medium, site, engine, shard, peers, seq_buf,
            ))
        }));
    }
}

/// A running replica site: a fold over its inbox, stepped by whichever
/// thread fills the next inbox position — no thread of its own until a
/// promotion starts the primary's.
pub struct ReplicaSite {
    site: SiteId,
    done: Lenient<io::Result<u64>>,
}

impl fmt::Debug for ReplicaSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReplicaSite[{}]", self.site)
    }
}

impl ReplicaSite {
    /// Starts a replica at `site`, storing under `dir`, bootstrapping
    /// from `primary0` and tracking `shard`'s sequenced traffic (0 on an
    /// unsharded cluster): recovers the local store here, asks `primary0`
    /// for the history the medium cannot show, and folds the inbox from
    /// the medium's first message on. Failures surface at
    /// [`join`](Self::join).
    pub fn start(
        dir: PathBuf,
        medium: SharedMedium<DbPayload>,
        site: SiteId,
        primary0: SiteId,
        shard: u32,
        workers: usize,
        batches: Arc<AtomicU64>,
    ) -> ReplicaSite {
        let done = Lenient::new();
        let inbox = medium.choose(site);
        match ReplicaState::open(dir, medium, site, shard, workers, batches, done.clone()) {
            Ok(mut state) => {
                state.send(primary0, DbPayload::CatchUp);
                inbox.drive(state, ReplicaState::step);
            }
            Err(e) => {
                let _ = done.fill(Err(e));
            }
        }
        ReplicaSite { site, done }
    }

    /// This replica's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Waits until the replica is done (close the medium, or promote and
    /// halt, first). Returns requests served while acting as primary (0
    /// for a never-promoted replica); panics on an I/O failure inside the
    /// replica — a simulation harness wants that loud.
    pub fn join(self) -> u64 {
        match self.done.wait() {
            Ok(served) => *served,
            Err(e) => panic!("replica I/O failure: {e}"),
        }
    }
}

impl Drop for ReplicaSite {
    fn drop(&mut self) {
        self.done.wait();
    }
}
