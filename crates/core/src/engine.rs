//! The pipelined multi-thread execution engine.
//!
//! Section 2.3: "Each transaction yields a new database, which is
//! represented by a new pair. Thus, if a transaction following the insert
//! in S depends only on the R component, it can proceed immediately without
//! waiting for the S component to be completely established. We are here
//! relying on the 'lenient' aspect of the tupling constructor."
//!
//! [`PipelinedEngine`] realizes that sentence with threads: each database
//! version is a tuple of per-*component* [`Lenient`] cells. A component is
//! one base relation, or a set of bases tied together by views, plus those
//! views; its cell holds a [`Database`] value, so every write lands through
//! [`Database::write`] — the call `translate`, log replay and replica apply
//! make — which maintains the component's views in the same step.
//! Submitting a transaction (under a brief slot lock — the paper's
//! "momentary locking effect" where streams merge) allocates fresh cells
//! for the components it writes and captures the previous cells for the
//! components it reads; a worker then blocks only on those captured cells.
//! Readers of `R` overtake a slow writer of `S` automatically, and the
//! submission order is by construction a serialization order.
//!
//! # Hot path
//!
//! The submission path is kept short by a sharded frontier plus an
//! *adaptive* per-slot choice between three regimes (see `DESIGN.md` for
//! the full argument). All of it is scheduling: what a statement *means*
//! is [`fundb_query::exec`]'s, the same code `translate` runs, so this
//! module decides only which component version a statement sees and when
//! it runs:
//!
//! * **Sharded frontier** — the frontier is a map of independent slots,
//!   one lock per component, behind an `RwLock` catalog that only `create`
//!   takes exclusively. Submissions against different components never
//!   contend. Multi-component captures (join, cut, view merge) take the
//!   involved slot locks together in slot order, so the captured version
//!   vector is an atomic cut and lock acquisition cannot cycle.
//! * **Coalesce regime** — under write bursts or queue pressure,
//!   consecutive writes to the same relation join one open *batch* that
//!   waits on a single input cell, applies the whole run in submission
//!   order, and answers each transaction individually. N writes cost one
//!   component cell instead of N. A read *seals* the open batch, because
//!   it pins the batch's output cell as its version: sealing guarantees
//!   that cell contains exactly the writes submitted before the read, and
//!   later writes start a new batch against it; so does a write to another
//!   relation of the component. A batch opened while its predecessor is
//!   still computing is *chained* — it gets no pool job of its own; the
//!   predecessor's worker claims it when the input arrives, so a whole
//!   multi-batch run costs one pool handoff.
//! * **Bypass regime** — when the slot's [`TrafficTracker`] says recent
//!   traffic is read-interleaved (so a batch would be sealed after ~1 op
//!   and amortize nothing) and the head version is ready, a write applies
//!   inline under the slot lock: no batch, no cell, no job, no wakeup —
//!   and the same submission-order sequence numbers, so serializability
//!   is untouched by regime switches.
//! * **Lock-free read frontier** — each slot publishes its newest *ready*
//!   version in an [`AtomicArc`] alongside a `submitted` write counter.
//!   Every read runs as one [`exec::read`] over the versions its names are
//!   pinned to. A read whose names all live in one component loads both
//!   without the slot mutex; if the published version covers every
//!   submitted write, the answer is computed right there — no lock, no
//!   seal, no job. Otherwise a `find` or `count` answers from a filled head
//!   under the lock — *repairing* the frontier in passing, so publication
//!   is demand-driven and writers never pay for it — and every other read
//!   pins the heads it names and runs on the pool.
//!
//! `create view` merges the slots of its bases into the first base's slot;
//! a merged-away slot records where its component went, and every path
//! that locks a slot follows that record.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fundb_lenient::{spawn_on_current_pool, AtomicArc, Lenient, Spawner, WorkerPool};
use fundb_query::exec::{self, Entry, Trace};
use fundb_query::{FieldRef, Query, Response, Transaction};
use fundb_relational::{BatchOp, BatchOutcome, Database, RelationName, ViewDef};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::commit::CommitSink;
use crate::fasthash::BuildFnv;
use crate::schedule::{BatchRegime, TrafficTracker};
use crate::stats::{EngineStats, EngineStatsSnapshot};

/// An open coalescing batch: writes to one relation accumulated for one
/// claimed run.
///
/// `sealed` flips exactly once — set by whoever claims the run (the
/// batch's own pool job, a predecessor's chain drain, claiming as late as
/// possible so the run keeps growing until its input arrives), or at
/// submission by a reader pinning the batch's output as its version (or a
/// write to another relation of the component). Either way, once sealed no
/// submission may append, and the batch's output cell is the fold of
/// precisely the ops recorded here.
struct BatchOps {
    /// The component version the batch folds from.
    input: Lenient<Database>,
    /// The component version the batch fills: the slot's head while the
    /// batch is the newest.
    output: Lenient<Database>,
    /// The relation every op of the run writes.
    relation: RelationName,
    /// The run, in application order, each op with its per-component
    /// sequence number (assigned at submission under the slot lock).
    ops: Vec<(u64, Query, Lenient<Response>)>,
    sealed: bool,
    /// Whether a pool job exists (or a drain has committed) to run this
    /// batch. A batch opened behind a pending predecessor starts with
    /// `false` — *chained* — and is claimed by the predecessor's worker
    /// when its input fills; the first reader to seal a chained batch
    /// promotes it by spawning the job itself (under the slot lock, so
    /// enqueue order still matches version-capture order).
    has_job: bool,
}

/// What a slot's lock-free frontier publishes: the newest *ready*
/// component value, stamped with how many submitted writes it folds in.
struct FrontierEntry {
    /// Sequence numbers `0..covers` are folded into `value` (burned
    /// numbers from failed commits included).
    covers: u64,
    /// The ready component value.
    value: Database,
}

/// Publishes `(covers, value)` on a slot's frontier, monotonically: a
/// late publisher (a batch worker finishing after a reader already
/// repaired the frontier past it) never regresses the published version.
///
/// Publication is demand-driven: batch claimers publish once per claimed
/// run (amortized over the whole batch), and readers that answer under
/// the slot lock repair the frontier in passing. Bypass writers publish
/// nothing — paying an allocation per write to pre-warm a frontier no
/// reader may ever probe is exactly the coalescing tax the bypass regime
/// exists to avoid.
fn publish_frontier(frontier: &AtomicArc<FrontierEntry>, covers: u64, value: &Database) {
    frontier.store_if(
        |current| current.covers >= covers,
        || {
            Arc::new(FrontierEntry {
                covers,
                value: value.clone(),
            })
        },
    );
}

/// The answer to every statement whose durable commit failed.
fn commit_failed(e: &std::io::Error) -> Response {
    Response::Error(format!("commit failed: {e}"))
}

/// The engine's durable commit hook, with a handle to the engine's pool:
/// a batch that lands on a thread off the pool (a submitter's flush) still
/// hands its chained successor to the pool.
struct Durable {
    sink: Arc<dyn CommitSink>,
    pool: Spawner,
}

/// What a computed run's answers are made from.
enum Answers {
    /// A data batch's per-op outcomes, in run order.
    Outcomes(Vec<BatchOutcome>),
    /// The answer of a statement that ran alone: index DDL, or a bypass
    /// write.
    One(Response),
}

/// A claimed run, applied to its input: what it publishes once its
/// commit — if it has one — returns.
struct Computed {
    slot: Arc<Slot>,
    /// The run's input version, published again if the commit fails.
    first: Database,
    next: Database,
    /// The run in application order: each op's sequence number, statement
    /// and response cell.
    claimed: Vec<(u64, Query, Lenient<Response>)>,
    answers: Answers,
    output: Lenient<Database>,
}

impl Computed {
    /// Applies a claimed run to `first`. A data run lands as one commit:
    /// `Database::write` derives the per-key transitions once (grouped
    /// stably — submission order within a key is preserved, so the result
    /// equals applying the ops one at a time in submission order), lands
    /// them copying each touched node once, and advances the component's
    /// views from the same runs. Index DDL always runs alone and changes
    /// no rows: it is no batch.
    fn apply(
        slot: &Arc<Slot>,
        first: &Database,
        claimed: Vec<(u64, Query, Lenient<Response>)>,
        output: &Lenient<Database>,
    ) -> Computed {
        let ops: Option<Vec<BatchOp>> = claimed.iter().map(|(_, q, _)| exec::batch_op(q)).collect();
        let (next, answers) = match ops {
            Some(ops) => {
                let relation = claimed[0].1.relation().expect("a write names its relation");
                let (next, outcomes, _) = first
                    .write(relation, &ops)
                    .expect("writes to views are refused at submission");
                (next, Answers::Outcomes(outcomes))
            }
            None => {
                let [(_, q, _)] = &claimed[..] else {
                    unreachable!("only data writes coalesce; index DDL runs alone")
                };
                let (answer, next) = exec::write(first, q);
                (next, Answers::One(answer))
            }
        };
        Computed {
            slot: Arc::clone(slot),
            first: first.clone(),
            next,
            claimed,
            answers,
            output: output.clone(),
        }
    }

    /// Publishes the run: on `Ok` the successor and the answers; on `Err`
    /// the unchanged input, every statement answered with the error (its
    /// sequence numbers are burned). The frontier entry covers the whole
    /// run and goes up *before* the output cell fills: a successor batch
    /// starts applying only once this output is filled, so batch
    /// publications are ordered along each slot's version chain and
    /// `publish_frontier`'s monotonic guard only ever resolves races with
    /// readers repairing the frontier from a newer head.
    fn publish(self, outcome: std::io::Result<()>) {
        let covers = self
            .claimed
            .last()
            .map(|(s, _, _)| s + 1)
            .expect("nonempty run");
        let frontier = &self.slot.frontier;
        let Err(e) = outcome else {
            publish_frontier(frontier, covers, &self.next);
            match self.answers {
                Answers::Outcomes(outcomes) => {
                    for ((_, q, cell), outcome) in self.claimed.into_iter().zip(outcomes) {
                        cell.fill(exec::batch_response(q, outcome)).ok();
                    }
                }
                Answers::One(answer) => {
                    self.claimed[0].2.fill(answer).ok();
                }
            }
            self.output.fill(self.next).ok();
            return;
        };
        publish_frontier(frontier, covers, &self.first);
        for (_, _, cell) in &self.claimed {
            cell.fill(commit_failed(&e)).ok();
        }
        self.output.fill(self.first).ok();
    }

    /// Hands the run's records to the sink; the run publishes once they
    /// are durable, and then gives the pool the batch chained behind it —
    /// unless it landed inline, for a runner that drains the chain next.
    fn commit(self, durable: &Arc<Durable>, stats: &Arc<EngineStats>) {
        let relation = self.claimed[0]
            .1
            .relation()
            .expect("a write names its relation");
        let relation = relation.clone();
        let records = self
            .claimed
            .iter()
            .map(|(s, q, _)| (*s, q.clone()))
            .collect();
        let (owner, stats) = (Arc::clone(durable), Arc::clone(stats));
        let landed = Box::new(move |outcome| {
            let slot = Arc::clone(&self.slot);
            self.publish(outcome);
            if DRAINING.with(Cell::get) != slot.id {
                promote_chained(&slot, &owner, &stats);
            }
        });
        durable.sink.commit_writes_then(&relation, records, landed);
    }
}

/// Applies a claimed run and fills every response plus the batch's output
/// cell — at once without a sink; with one, once the run is durable.
///
/// This is the group-commit point. The run is computed first — its
/// successor and its answers — and only then committed: one
/// `commit_writes_then` call covers the whole run, and the frontier, the
/// responses and the output fill only after the sink reports the commit,
/// so an answered write is a durable write and nothing is visible before
/// it is durable. A durable store queues the run's frames and lands them
/// with every other queued batch's in one flush. On commit failure every
/// transaction is answered with an error and the output version is the
/// *unchanged* input: the run's sequence numbers are burned. The sink
/// contract makes this safe: a failing commit leaves none of the run's
/// records in the log's valid prefix and either repairs its tail or
/// refuses all later commits (see `Wal::append_batch`), so recovery still
/// sees a clean prefix of acknowledged history. The successor is never an
/// input to another batch before it is durable — the next batch waits on
/// the output cell — so a failed flush has no descendants to unwind.
fn commit_and_apply(
    durable: Option<&Arc<Durable>>,
    first: &Database,
    claimed: Vec<(u64, Query, Lenient<Response>)>,
    output: &Lenient<Database>,
    slot: &Arc<Slot>,
    stats: &Arc<EngineStats>,
) {
    EngineStats::bump(&stats.batches_claimed);
    EngineStats::add(&stats.ops_claimed, claimed.len() as u64);
    let run = Computed::apply(slot, first, claimed, output);
    match durable {
        None => run.publish(Ok(())),
        Some(durable) => {
            DRAINING.with(|d| d.set(slot.id));
            run.commit(durable, stats);
            DRAINING.with(|d| d.set(u64::MAX));
        }
    }
}

thread_local! {
    /// The slot whose claimed run this thread is committing in
    /// `commit_and_apply`. Every caller of that drains the slot's chain
    /// once the commit returns, so a run that lands right here — its flush
    /// ran inline — leaves its chained successor to that drain, on this
    /// thread, instead of handing it to the pool.
    static DRAINING: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Gives the pool the batch chained behind a run that just landed off its
/// runner's commit call: one opened while the run was in flight, so it
/// got no job, and whose input — the landed output — is now filled. The job is spawned under the slot
/// lock, like every batch job, so enqueue order follows version order; it
/// claims the batch when it runs, so the batch keeps growing until then.
/// A merge (`create view`) seals and promotes an open batch itself, so a
/// merged-away slot has none left here.
fn promote_chained(slot: &Arc<Slot>, durable: &Arc<Durable>, stats: &Arc<EngineStats>) {
    let state = slot.state.lock();
    let Some(batch) = &state.open else {
        return;
    };
    {
        let mut guard = batch.lock();
        if guard.has_job || !guard.input.is_filled() {
            return;
        }
        guard.has_job = true;
    }
    EngineStats::bump(&stats.chained_claims);
    let (slot, batch) = (Arc::clone(slot), Arc::clone(batch));
    let (owner, stats) = (Arc::clone(durable), Arc::clone(stats));
    durable
        .pool
        .spawn(move || run_batch_job(&slot, &batch, Some(&owner), &stats));
}

/// The body of a batch's pool job: wait for the input version, claim and
/// apply the run, then drain any chained successors.
fn run_batch_job(
    slot: &Arc<Slot>,
    batch: &Arc<Mutex<BatchOps>>,
    durable: Option<&Arc<Durable>>,
    stats: &Arc<EngineStats>,
) {
    let (input, output) = {
        let guard = batch.lock();
        (guard.input.clone(), guard.output.clone())
    };
    // Wait for the input *before* claiming the run: every write submitted
    // while the predecessor version was still being computed or committed
    // coalesces into this claim, so commit latency grows batches instead
    // of stalling submitters. A batch with a job is claimed by that job
    // alone, so the run is never empty here.
    let first = input.wait();
    let claimed = {
        let mut guard = batch.lock();
        if !guard.sealed {
            guard.sealed = true;
            EngineStats::bump(&stats.seals_by_worker);
        }
        std::mem::take(&mut guard.ops)
    };
    commit_and_apply(durable, first, claimed, &output, slot, stats);
    drain_chain(slot, durable, stats);
}

/// Claims and applies chained batches — successors opened while this
/// worker's run was still computing, which got no pool job of their own —
/// until the slot quiesces or another runner takes over. With a sink a
/// run's output fills only once it is durable: a run whose flush ran
/// inline has landed when its commit returns, and the drain goes on;
/// otherwise the probe finds the successor's input pending and stops, and
/// the successor goes to the pool when the run lands (`promote_chained`).
///
/// After `MAX_DRAIN` batches the rest of the drain is re-enqueued at the
/// pool's tail, so one component's write storm cannot monopolize a narrow
/// pool. Liveness: a chained batch is only ever created while its
/// predecessor's runner is active (the open happens under the slot lock,
/// and so does this probe), so every chained batch is eventually claimed
/// here, promoted when its predecessor lands, or promoted by a sealing
/// submission.
fn drain_chain(slot: &Arc<Slot>, durable: Option<&Arc<Durable>>, stats: &Arc<EngineStats>) {
    const MAX_DRAIN: u32 = 64;
    let mut drained = 0u32;
    loop {
        let work = {
            let state = slot.state.lock();
            state.open.as_ref().and_then(|batch| {
                let mut guard = batch.lock();
                if !guard.has_job && guard.input.is_filled() && !guard.ops.is_empty() {
                    guard.has_job = true;
                    guard.sealed = true;
                    EngineStats::bump(&stats.seals_by_worker);
                    EngineStats::bump(&stats.chained_claims);
                    Some((
                        guard.input.clone(),
                        std::mem::take(&mut guard.ops),
                        guard.output.clone(),
                    ))
                } else {
                    None
                }
            })
        };
        let Some((input, claimed, output)) = work else {
            return;
        };
        let first = input.try_map(Database::clone).expect("probed filled above");
        commit_and_apply(durable, &first, claimed, &output, slot, stats);
        drained += 1;
        if drained >= MAX_DRAIN {
            let slot = Arc::clone(slot);
            let durable = durable.cloned();
            let stats = Arc::clone(stats);
            if spawn_on_current_pool(move || {
                drain_chain(&slot, durable.as_ref(), &stats);
            }) {
                return;
            }
            // Not on a pool thread: keep draining inline — correctness
            // over fairness.
            drained = 0;
        }
    }
}

/// A slot's newest version: either a settled value held inline, or a cell
/// that may still be pending.
///
/// The inline form is the bypass regime's steady state — each bypass write
/// replaces the value wholesale, allocating nothing. A cell appears only
/// when a version is genuinely deferred (an open batch's output, a view
/// merge) or when a consumer needs a shareable handle (a batch input, a
/// join pin), at which point [`share`](Head::share) converts the inline
/// value into a ready cell *once* and keeps it, so repeated shares don't
/// re-allocate.
enum Head {
    /// Settled, held inline; replaced by the next bypass write.
    Ready(Database),
    /// Deferred or shared: the usual lenient cell.
    Cell(Lenient<Database>),
}

impl Head {
    /// The value, if settled — without blocking.
    fn try_get(&self) -> Option<&Database> {
        match self {
            Head::Ready(db) => Some(db),
            Head::Cell(cell) => cell.try_get(),
        }
    }

    /// Whether the newest version has been computed.
    fn is_filled(&self) -> bool {
        match self {
            Head::Ready(_) => true,
            Head::Cell(cell) => cell.is_filled(),
        }
    }

    /// A shareable handle to this version, materializing a cell on first
    /// demand. `Database` clones are one `Arc` bump.
    fn share(&mut self) -> Lenient<Database> {
        match self {
            Head::Cell(cell) => cell.clone(),
            Head::Ready(db) => {
                let cell = Lenient::ready(db.clone());
                *self = Head::Cell(cell.clone());
                cell
            }
        }
    }
}

/// Per-component mutable state: one shard of the frontier.
struct SlotState {
    /// The newest version (the open batch's output while one exists).
    head: Head,
    /// The batch currently accepting writes, if any.
    open: Option<Arc<Mutex<BatchOps>>>,
    /// The next write sequence number: how many writes (including failed
    /// commits, whose numbers are burned) have been submitted against this
    /// component. Checkpoints record it as the replay mark of every base
    /// of the component.
    next_seq: u64,
    /// Recent read/write interleaving; decides bypass vs coalesce.
    tracker: TrafficTracker,
    /// The slot a `create view` merged this component into. Set once,
    /// under the lock; whoever locks a moved slot follows it instead.
    moved: Option<Arc<Slot>>,
}

/// One component's slot: the locked frontier shard and the lock-free
/// read-side publications.
struct Slot {
    /// Engine-unique; multi-slot locks are taken in this order.
    id: u64,
    state: Mutex<SlotState>,
    /// The newest *ready* version, readable without the slot lock.
    frontier: AtomicArc<FrontierEntry>,
    /// Mirror of `next_seq`, stored (Release) at every submission while
    /// the slot lock is held; the lock-free read path compares it against
    /// the frontier's `covers` to prove no submitted write is missing. A
    /// merged-away slot stores `u64::MAX`, so the probe always misses.
    submitted: AtomicU64,
    /// Read traffic flag, set (Relaxed) by every read — including frontier
    /// hits, which never take the slot lock; writers sample-and-clear it
    /// into the slot's [`TrafficTracker`]. A flag instead of a counter
    /// keeps the read side to a plain store (no RMW); a mark lost to the
    /// load/clear race only nudges the regime heuristic, never correctness.
    read_seen: AtomicBool,
}

/// Slot identities: the lock order of multi-slot captures.
static SLOT_IDS: AtomicU64 = AtomicU64::new(0);

impl Slot {
    /// A slot whose frontier starts at `value`, covering `start_seq`
    /// already-accounted writes (nonzero after recovery).
    fn new(value: Database, start_seq: u64) -> Self {
        Slot {
            id: SLOT_IDS.fetch_add(1, Ordering::Relaxed),
            frontier: AtomicArc::new(Arc::new(FrontierEntry {
                covers: start_seq,
                value: value.clone(),
            })),
            submitted: AtomicU64::new(start_seq),
            read_seen: AtomicBool::new(false),
            state: Mutex::new(SlotState {
                head: Head::Ready(value),
                open: None,
                next_seq: start_seq,
                tracker: TrafficTracker::new(),
                moved: None,
            }),
        }
    }
}

/// What a relation or view name is bound to: what it is, and the slot of
/// its component (as of binding; a later merge is followed through
/// [`SlotState::moved`]).
#[derive(Clone)]
struct Bound {
    slot: Arc<Slot>,
    entry: Entry,
}

/// The catalog: name resolution and creation order. Only `create` takes
/// this exclusively; data operations resolve through the per-thread cache
/// and read it only on a cache miss.
struct Catalog {
    names: HashMap<RelationName, Bound, BuildFnv>,
    /// Creation order (relations and views), so a cut can rebuild a
    /// `Database` with stable spine positions.
    order: Vec<RelationName>,
    /// Names claimed by an in-flight `create` whose durable commit is
    /// still running outside the lock: they collide like existing
    /// relations but are not yet visible.
    reserved: HashSet<RelationName>,
}

/// Adds `name`'s entry of `from` — relation value, schema and view
/// definition, all shared — to `db`.
fn with_entry(db: &Database, from: &Database, name: &RelationName) -> Database {
    let relation = from
        .relation(name)
        .expect("name from this database")
        .clone();
    let schema = from.schema(name).expect("name from this database").cloned();
    match from.view_def(name).expect("name from this database") {
        None => db.with_relation_value(name.clone(), relation, schema),
        Some(def) => db.with_view_value(name.clone(), relation, schema, def.clone()),
    }
    .expect("names are unique")
}

/// An atomic cut of the engine's frontier: a database value plus, for each
/// base relation, the number of writes the cut folds in (its replay mark).
///
/// Produced by [`PipelinedEngine::consistent_cut`]. A checkpoint of the
/// `database` paired with the `seq_marks` is exactly enough for recovery:
/// replay the log, skipping each relation's records below its mark.
#[derive(Debug, Clone)]
pub struct ConsistentCut {
    /// The cut's database value — the engine's actual relation and view
    /// values, so structure is physically shared with neighbouring cuts.
    pub database: Database,
    /// Per base relation, how many writes (sequence numbers `0..mark`)
    /// the database value accounts for. Bases of one component share one
    /// numbering, hence one mark.
    pub seq_marks: HashMap<RelationName, u64>,
}

/// Where [`PipelinedEngine::place_write`] left a write.
enum Placed {
    /// Coalesced, batched, or bypassed without a sink: its response cell.
    Answered(Lenient<Response>),
    /// Bypassed with a sink: the one-op run, to commit once the slot lock
    /// is released.
    Computed(Computed),
}

/// A multi-threaded executor with implicit, dependency-only synchronization.
///
/// # Example
///
/// ```
/// use fundb_core::PipelinedEngine;
/// use fundb_query::{parse, translate};
/// use fundb_relational::{Database, Repr};
///
/// let db = Database::empty().create_relation("R", Repr::List)?;
/// let engine = PipelinedEngine::new(4, &db);
/// let r1 = engine.submit(translate(parse("insert 7 into R")?));
/// let r2 = engine.submit(translate(parse("find 7 in R")?));
/// assert_eq!(r2.wait().tuples().unwrap().len(), 1);
/// assert!(!r1.wait().is_error());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PipelinedEngine {
    pool: WorkerPool,
    catalog: RwLock<Catalog>,
    /// The durable commit hook, if any: called once per claimed write
    /// batch (group commit) and once per `create`, before responses fill.
    durable: Option<Arc<Durable>>,
    /// Hot-path event counters (relaxed atomics; see [`EngineStats`]).
    stats: Arc<EngineStats>,
    /// Identity for the per-thread name cache (see [`Self::resolve`]).
    id: u64,
}

/// Monotonic engine identities, so the per-thread name cache can tell two
/// engines' names apart.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(0);

/// One engine's name → binding memo (keyed by the owning engine's id).
type NameMemo = (u64, HashMap<RelationName, Bound, BuildFnv>);

thread_local! {
    /// One engine's name → binding memo for this thread; reset whenever
    /// the thread submits to a different engine (see
    /// [`PipelinedEngine::resolve`]).
    static SLOT_CACHE: RefCell<NameMemo> = RefCell::new((u64::MAX, HashMap::default()));
}

impl fmt::Debug for PipelinedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedEngine")
            .field("workers", &self.pool.worker_count())
            .finish()
    }
}

/// An already-answered submission: the statement was refused.
fn refused(message: String) -> Lenient<Response> {
    Lenient::ready(Response::Error(message))
}

/// The names a read statement reads, left operand first: one for a
/// single-relation read, two for a join, none for an `explain` that
/// [`exec::read`] refuses on sight.
fn operands(query: &Query) -> (Option<&RelationName>, Option<&RelationName>) {
    match query {
        Query::Join { left, right, .. } => (Some(left), Some(right)),
        Query::Explain(inner) if inner.is_explainable() => operands(inner),
        Query::Explain(_) => (None, None),
        read => (read.relation(), None),
    }
}

/// Runs the read `query` over `left` for its left operand and `right` —
/// when given — for every other name it reads.
fn read_over(query: &Query, left: &Database, right: Option<&Database>) -> (Response, Trace) {
    match (operands(query).0, right) {
        (Some(name), Some(right)) => exec::read(query, |n| if n == name { left } else { right }),
        _ => exec::read(query, |_| left),
    }
}

impl PipelinedEngine {
    /// An engine with `workers` threads, starting from `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, initial: &Database) -> Self {
        Self::build(workers, initial, None, &HashMap::new())
    }

    /// An engine whose write path is hooked to a durable [`CommitSink`]:
    /// every claimed write batch is computed and then committed (one sink
    /// call per batch; a durable store shares one fsync among the batches
    /// it has queued) before any of its transactions are answered or its
    /// successor is visible, and every `create` is committed before it
    /// enters the catalog.
    ///
    /// `seq_marks` gives each relation's starting write sequence number —
    /// `0` for a fresh store, or the recovered next-sequence values after a
    /// restart, so that replayed history and new writes never share a
    /// number. Relations absent from the map start at `0`; a component
    /// starts at the largest mark among its bases.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_sink(
        workers: usize,
        initial: &Database,
        sink: Arc<dyn CommitSink>,
        seq_marks: &HashMap<RelationName, u64>,
    ) -> Self {
        Self::build(workers, initial, Some(sink), seq_marks)
    }

    fn build(
        workers: usize,
        initial: &Database,
        sink: Option<Arc<dyn CommitSink>>,
        seq_marks: &HashMap<RelationName, u64>,
    ) -> Self {
        let order = initial.relation_names();
        // Components: every name starts alone; a view joins its bases'
        // components into one and itself to it.
        let mut group: Vec<usize> = (0..order.len()).collect();
        for (i, n) in order.iter().enumerate() {
            let def = initial.view_def(n).expect("name from this database");
            for base in def.map(ViewDef::bases).unwrap_or_default() {
                let from = group[initial.position(base).expect("view bases exist")];
                let into = group[i];
                group
                    .iter_mut()
                    .filter(|g| **g == from)
                    .for_each(|g| *g = into);
            }
        }
        let mut names: HashMap<RelationName, Bound, BuildFnv> = HashMap::default();
        let mut groups = group.clone();
        groups.sort_unstable();
        groups.dedup();
        for g in groups {
            let members: Vec<&RelationName> = (0..order.len())
                .filter(|&i| group[i] == g)
                .map(|i| &order[i])
                .collect();
            let db = members
                .iter()
                .fold(Database::empty(), |db, n| with_entry(&db, initial, n));
            let start = members
                .iter()
                .filter_map(|n| seq_marks.get(*n).copied())
                .max()
                .unwrap_or(0);
            let slot = Arc::new(Slot::new(db, start));
            for n in members {
                let bound = Bound {
                    slot: Arc::clone(&slot),
                    entry: exec::entry(initial, n),
                };
                names.insert(n.clone(), bound);
            }
        }
        let pool = WorkerPool::new(workers);
        let durable = sink.map(|sink| {
            Arc::new(Durable {
                sink,
                pool: pool.spawner(),
            })
        });
        PipelinedEngine {
            pool,
            catalog: RwLock::new(Catalog {
                names,
                order,
                reserved: HashSet::new(),
            }),
            durable,
            stats: Arc::new(EngineStats::default()),
            id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A snapshot of the engine's hot-path counters.
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
    }

    /// Runs `f` on what `name` is bound to, resolved through a per-thread
    /// cache, so the data hot paths skip both the catalog `RwLock` and a
    /// SipHash probe on every hit.
    ///
    /// Sound because what a name *is* never changes — names are only ever
    /// added, never dropped or rebound — and a binding's slot that a view
    /// merge has since retired says where its component went. Misses are
    /// not cached (a later `create` must become visible), and the cache
    /// belongs to one engine at a time — a thread that submits to a
    /// different engine resets it wholesale.
    fn resolve<T>(&self, name: &RelationName, f: impl FnOnce(&Bound) -> T) -> Option<T> {
        SLOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let (owner, map) = &mut *cache;
            if *owner != self.id {
                *owner = self.id;
                map.clear();
            }
            if let Some(bound) = map.get(name) {
                return Some(f(bound));
            }
            let bound = self.catalog.read().names.get(name)?.clone();
            let out = f(&bound);
            map.insert(name.clone(), bound);
            Some(out)
        })
    }

    /// The slot `name` is bound to, if it names anything.
    fn slot(&self, name: &RelationName) -> Option<Arc<Slot>> {
        self.resolve(name, |b| Arc::clone(&b.slot))
    }

    /// What `name` resolves to, for `exec`'s resolution steps.
    fn entry(&self, name: &RelationName) -> Entry {
        self.resolve(name, |b| b.entry.clone())
            .unwrap_or(Entry::Missing)
    }

    /// Records, for this thread, that `name`'s component now lives in
    /// `slot`.
    fn remember(&self, name: &RelationName, slot: &Arc<Slot>) {
        SLOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let (owner, map) = &mut *cache;
            if let Some(bound) = map.get_mut(name).filter(|_| *owner == self.id) {
                bound.slot = Arc::clone(slot);
            }
        });
    }

    /// Locks the slot that holds `name`'s component now — starting from
    /// `slot`, the one it was bound to, and following merges — and runs
    /// `f` under the lock.
    fn with_slot<T>(
        &self,
        name: &RelationName,
        mut slot: Arc<Slot>,
        f: impl FnOnce(&Arc<Slot>, &mut SlotState) -> T,
    ) -> T {
        loop {
            let mut state = slot.state.lock();
            if let Some(next) = &state.moved {
                let next = Arc::clone(next);
                drop(state);
                self.remember(name, &next);
                slot = next;
                continue;
            }
            return f(&slot, &mut state);
        }
    }

    /// Locks the slots holding the components of `names` as one atomic
    /// cut — following merges, each distinct slot once, acquired in slot
    /// order so concurrent multi-slot locks cannot form a cycle — and runs
    /// `f` while every lock is held. `f` sees the locked slots, their
    /// states, and for each name the position of its slot among them.
    fn with_slots<T>(
        &self,
        names: &[&RelationName],
        f: impl FnOnce(&[Arc<Slot>], &mut [MutexGuard<'_, SlotState>], &[usize]) -> T,
    ) -> T {
        let mut bound: Vec<Arc<Slot>> = names
            .iter()
            .map(|n| self.slot(n).expect("resolved before locking"))
            .collect();
        loop {
            let mut slots = bound.clone();
            slots.sort_by_key(|s| s.id);
            slots.dedup_by(|a, b| Arc::ptr_eq(a, b));
            let mut guards: Vec<MutexGuard<'_, SlotState>> =
                slots.iter().map(|s| s.state.lock()).collect();
            let at: Vec<usize> = bound
                .iter()
                .map(|b| {
                    slots
                        .iter()
                        .position(|s| Arc::ptr_eq(s, b))
                        .expect("locked above")
                })
                .collect();
            let mut moved = false;
            for ((name, b), &i) in names.iter().zip(bound.iter_mut()).zip(&at) {
                if let Some(next) = &guards[i].moved {
                    *b = Arc::clone(next);
                    self.remember(name, next);
                    moved = true;
                }
            }
            if !moved {
                return f(&slots, &mut guards, &at);
            }
        }
    }

    /// Enqueues the pool job for `batch`. Must be called while the slot's
    /// state lock is held: enqueue order must respect version-capture
    /// order, or a FIFO worker could stall behind a job whose producer
    /// sits after it in the queue.
    fn spawn_batch_job(&self, slot: &Arc<Slot>, batch: &Arc<Mutex<BatchOps>>) {
        let slot = Arc::clone(slot);
        let batch = Arc::clone(batch);
        let durable = self.durable.clone();
        let stats = Arc::clone(&self.stats);
        self.pool
            .spawn(move || run_batch_job(&slot, &batch, durable.as_ref(), &stats));
    }

    /// Seals the open batch (if any): no further writes may coalesce into
    /// it, so the slot's head cell is the fold of exactly the writes
    /// submitted so far. A *chained* batch (one with no pool job) is
    /// promoted here — its job is spawned under the slot lock — because
    /// the sealer is about to queue work that waits on the batch's
    /// output (or to replace it as the open batch), and the FIFO
    /// deadlock-freedom argument needs the producer job enqueued first.
    fn seal_and_promote(
        &self,
        slot: &Arc<Slot>,
        state: &mut SlotState,
    ) -> Option<Arc<Mutex<BatchOps>>> {
        let batch = state.open.take()?;
        {
            let mut guard = batch.lock();
            if !guard.sealed {
                guard.sealed = true;
                EngineStats::bump(&self.stats.seals_by_reader);
                if !guard.has_job {
                    guard.has_job = true;
                    drop(guard);
                    self.spawn_batch_job(slot, &batch);
                }
            }
        }
        Some(batch)
    }

    /// Seals the open batch and shares the head: the version that folds
    /// exactly the writes submitted so far.
    fn pin(&self, slot: &Arc<Slot>, state: &mut SlotState) -> Lenient<Database> {
        self.seal_and_promote(slot, state);
        state.head.share()
    }

    /// Submits a read statement — `find`, `find … to …`, `select`,
    /// `count`, an aggregate, `join`, or `explain` of any of them — as one
    /// [`exec::read`] over the component versions its names are pinned
    /// to: the versions that fold every write submitted before it.
    /// `explain` pins exactly as its read would, so a plan's estimates
    /// come from the value the read would run on.
    fn submit_read(&self, query: Query) -> Lenient<Response> {
        let nothing = Database::empty();
        let (Some(left), right) = operands(&query) else {
            return Lenient::ready(exec::read(&query, |_| &nothing).0);
        };
        // 1. A missing left operand is refused at once. A missing right
        // operand reads as absent from the empty database, so a join's
        // operand refusal — left operand first — answers from the left's
        // pinned value, like a select's unresolvable field.
        let Some(l) = self.slot(left) else {
            return refused(exec::no_such_relation(left));
        };
        let r = right.and_then(|n| self.slot(n));
        let missing = right.is_some() && r.is_none();
        // Every read marks its slots' traffic trackers, so writers learn
        // their bursts are being interrupted.
        l.read_seen.store(true, Ordering::Relaxed);
        if let Some(r) = &r {
            r.read_seen.store(true, Ordering::Relaxed);
        }
        let point = query.is_point_read();
        let one = r.as_ref().is_none_or(|r| Arc::ptr_eq(&l, r));
        // 2. A read within one component answers inline when the
        // component's published frontier covers every submitted write: that
        // version *is* the one the read must observe (submission order
        // positions the read after exactly those writes). `submitted` is
        // stored before any write's response fills, so a client that saw a
        // write acknowledged cannot hit a frontier that misses it. A `find`
        // or `count` borrows the entry while registered on the publication
        // side, skipping the `Arc` clone a `load` pays; a longer read runs
        // on a loaded entry.
        if one {
            let covers =
                |entry: &FrontierEntry| entry.covers == l.submitted.load(Ordering::Acquire);
            let hit = if point {
                l.frontier
                    .with(|entry| covers(entry).then(|| exec::read(&query, |_| &entry.value)))
            } else {
                let entry = l.frontier.load();
                covers(&entry).then(|| read_over(&query, &entry.value, missing.then_some(&nothing)))
            };
            if let Some((answer, trace)) = hit {
                EngineStats::bump(&self.stats.frontier_hits);
                self.stats.record(&trace);
                return Lenient::ready(answer);
            }
            EngineStats::bump(&self.stats.frontier_misses);
        }
        let pinned = match (one, right) {
            (false, Some(right)) => self.with_slots(&[left, right], |slots, states, at| {
                // 4. A read over two components pins both heads as one
                // atomic cut.
                let heads: Vec<Lenient<Database>> = slots
                    .iter()
                    .zip(states.iter_mut())
                    .map(|(slot, state)| self.pin(slot, state))
                    .collect();
                Ok((heads[at[0]].clone(), Some(heads[at[1]].clone())))
            }),
            _ => self.with_slot(left, l, |slot, state| {
                // 3. A `find` or `count` that missed the frontier gets a
                // second chance under the lock: a filled head already folds
                // every write submitted so far (an unsealed open batch's
                // output *is* the head and would still be pending), so it
                // answers inline — and *repairs* the frontier while it is
                // here. Publication is demand-driven: writers never pay for
                // readers that may not come; the first read after a write
                // run publishes once and every read until the next write
                // takes the lock-free path.
                if let Some(db) = state.head.try_get().filter(|_| point) {
                    let answer = exec::read(&query, |_| db).0;
                    publish_frontier(&slot.frontier, state.next_seq, db);
                    return Err(answer);
                }
                // 4. Any other read pins the head and runs on the pool.
                Ok((self.pin(slot, state), None))
            }),
        };
        let (l, r) = match pinned {
            Ok(heads) => heads,
            Err(answer) => return Lenient::ready(answer),
        };
        let response = Lenient::new();
        let out = response.clone();
        let stats = Arc::clone(&self.stats);
        self.pool.spawn(move || {
            // Intra-transaction flooding: both sides' availability is
            // awaited, but each was produced independently.
            let (ldb, rdb) = (l.wait(), r.as_ref().map(Lenient::wait));
            let (answer, trace) = read_over(&query, ldb, rdb.or(missing.then_some(&nothing)));
            stats.record(&trace);
            response.fill(answer).ok();
        });
        out
    }

    /// Reserves `name` for a `create` — relations and views share one
    /// namespace — and runs the statement's durable commit with the
    /// catalog lock *released*: an fsync here must not stall every other
    /// relation's submissions. Durable-before-visible still holds — until
    /// the caller inserts the name, no statement against it can be
    /// accepted, so in the log a create precedes its first use. On success
    /// the reservation stands until the caller publishes the name.
    fn reserve_and_commit(&self, name: &RelationName, query: &Query) -> Result<(), Response> {
        {
            let mut catalog = self.catalog.write();
            if catalog.names.contains_key(name) || !catalog.reserved.insert(name.clone()) {
                return Err(Response::Error(exec::relation_exists(name)));
            }
        }
        if let Some(durable) = &self.durable {
            if let Err(e) = durable.sink.commit_create(query) {
                self.catalog.write().reserved.remove(name);
                return Err(commit_failed(&e));
            }
        }
        Ok(())
    }

    /// `create view`: merges the components of the view's bases into the
    /// first base's slot, whose next version is their union plus the view.
    ///
    /// Under all the bases' slot locks, each slot is sealed and its head
    /// pinned; a pool job (spawned under the locks, so FIFO order still
    /// follows version capture) waits for the pinned heads, unites them
    /// and materializes the view with [`Database::create_view`], filling
    /// the merged slot's new head — then, like a batch job, drains the
    /// writes chained behind it. The merged numbering continues past the
    /// largest merged counter, and the merge takes one number of it: no
    /// version published before the merge can then cover the merged
    /// counter, so the lock-free read path never answers from a database
    /// that lacks the view or an absorbed base. Absorbed slots record
    /// where their component went and stop matching any frontier probe.
    fn submit_create_view(
        &self,
        query: &Query,
        name: &RelationName,
        def: ViewDef,
    ) -> Lenient<Response> {
        if let Err(refusal) = self.reserve_and_commit(name, query) {
            return Lenient::ready(refusal);
        }
        let response = Lenient::new();
        let bases = def.bases();
        let (target, absorbed) = self.with_slots(&bases, |slots, states, at| {
            let target = Arc::clone(&slots[at[0]]);
            let mut heads: Vec<Lenient<Database>> = slots
                .iter()
                .zip(states.iter_mut())
                .map(|(slot, state)| self.pin(slot, state))
                .collect();
            heads.swap(0, at[0]);
            let next_seq = 1 + states.iter().map(|s| s.next_seq).max().expect("a base");
            let head = Lenient::new();
            {
                let (name, def) = (name.clone(), def.clone());
                let (head, response, target) = (head.clone(), response.clone(), target.clone());
                let (durable, stats) = (self.durable.clone(), Arc::clone(&self.stats));
                self.pool.spawn(move || {
                    let mut db = heads[0].wait_cloned();
                    for other in &heads[1..] {
                        let other = other.wait();
                        for n in other.relation_names() {
                            db = with_entry(&db, other, &n);
                        }
                    }
                    let db = db
                        .create_view(name.clone(), def)
                        .expect("the spec resolved against these bases");
                    let rows = db.relation(&name).expect("created above").len();
                    publish_frontier(&target.frontier, next_seq, &db);
                    head.fill(db).ok();
                    response.fill(Response::ViewCreated { name, rows }).ok();
                    // Writes submitted behind the merge chained onto it.
                    drain_chain(&target, durable.as_ref(), &stats);
                });
            }
            let mut absorbed = Vec::new();
            for (slot, state) in slots.iter().zip(states.iter_mut()) {
                if Arc::ptr_eq(slot, &target) {
                    state.head = Head::Cell(head.clone());
                    state.next_seq = next_seq;
                    slot.submitted.store(next_seq, Ordering::Release);
                } else {
                    state.moved = Some(Arc::clone(&target));
                    slot.submitted.store(u64::MAX, Ordering::Release);
                    absorbed.push(Arc::clone(slot));
                }
            }
            (target, absorbed)
        });
        let mut catalog = self.catalog.write();
        catalog.reserved.remove(name);
        for bound in catalog.names.values_mut() {
            if absorbed.iter().any(|a| Arc::ptr_eq(a, &bound.slot)) {
                bound.slot = Arc::clone(&target);
            }
        }
        let bound = Bound {
            slot: target,
            entry: Entry::View,
        };
        catalog.names.insert(name.clone(), bound);
        catalog.order.push(name.clone());
        response
    }

    /// Stamps one write submission on a locked slot: its sequence number,
    /// the mirror the lock-free read path compares against, and the
    /// traffic tracker's read-interleaving sample.
    fn stamp_write(slot: &Slot, state: &mut SlotState) -> u64 {
        let seq = state.next_seq;
        state.next_seq += 1;
        // Mirror the submission mark for the lock-free read path
        // *before* this write can be answered: a client that saw
        // the acknowledgement cannot then hit a frontier entry that
        // predates the write.
        slot.submitted.store(state.next_seq, Ordering::Release);
        let interrupted = slot.read_seen.load(Ordering::Relaxed);
        if interrupted {
            slot.read_seen.store(false, Ordering::Relaxed);
        }
        state.tracker.on_write(interrupted);
        seq
    }

    /// Opens a batch holding `query` as the slot's new head, sealing the
    /// open one first. With `has_job` its pool job is spawned here, still
    /// under the slot lock: enqueue order must respect version order, or a
    /// concurrent submitter could enqueue a job that waits on the new head
    /// ahead of this one, and a FIFO worker would stall behind it forever.
    /// Without, the batch is *chained*: the predecessor's runner claims it.
    fn open_batch(
        &self,
        slot: &Arc<Slot>,
        state: &mut SlotState,
        seq: u64,
        query: Query,
        sealed: bool,
        has_job: bool,
    ) -> Lenient<Response> {
        self.seal_and_promote(slot, state);
        let output = Lenient::new();
        let response = Lenient::new();
        let batch = Arc::new(Mutex::new(BatchOps {
            input: state.head.share(),
            output: output.clone(),
            relation: query
                .relation()
                .expect("a write names its relation")
                .clone(),
            ops: vec![(seq, query, response.clone())],
            sealed,
            has_job,
        }));
        state.head = Head::Cell(output);
        state.open = Some(Arc::clone(&batch));
        EngineStats::bump(&self.stats.batches_opened);
        if has_job {
            self.spawn_batch_job(slot, &batch);
        }
        response
    }

    /// Submits a data write to a base relation; views are refused here, so
    /// nothing is stamped or logged for them.
    fn submit_write(&self, query: Query) -> Lenient<Response> {
        let relation = query
            .relation()
            .expect("a write names its relation")
            .clone();
        let base = |b: &Bound| match b.entry {
            Entry::View => None,
            _ => Some(Arc::clone(&b.slot)),
        };
        let slot = match self.resolve(&relation, base) {
            Some(Some(slot)) => slot,
            Some(None) => return refused(exec::view_is_read_only(&relation)),
            None => return refused(exec::no_such_relation(&relation)),
        };
        match self.with_slot(&relation, slot, |slot, state| {
            self.place_write(slot, state, query)
        }) {
            Placed::Answered(response) => response,
            Placed::Computed(run) => {
                // A durable bypass write commits with the slot lock
                // released: its flush may land other batches, whose
                // publication takes their own slots' locks.
                let durable = self.durable.as_ref().expect("only a sink defers");
                let response = run.claimed[0].2.clone();
                run.commit(durable, &self.stats);
                response
            }
        }
    }

    /// Places a data write on its locked slot: coalesce, bypass or open a
    /// batch.
    fn place_write(&self, slot: &Arc<Slot>, state: &mut SlotState, query: Query) -> Placed {
        let seq = Self::stamp_write(slot, state);
        let relation = query.relation().expect("a write names its relation");

        // Coalesce: join the open batch if it is still accepting and
        // writes the same relation.
        if let Some(batch) = &state.open {
            let mut ops = batch.lock();
            if !ops.sealed && ops.relation == *relation {
                let response = Lenient::new();
                let out = response.clone();
                ops.ops.push((seq, query, response));
                EngineStats::bump(&self.stats.coalesced_writes);
                return Placed::Answered(out);
            }
            // Sealed mid-flight by its worker, or another relation's
            // run: open a successor.
        }

        // Adaptive regime decision. Queue pressure (a pending head:
        // the predecessor version is still being computed) always
        // coalesces — piling writes into a batch behind the pending
        // version is exactly where batching wins. A quiescent slot
        // with read-interleaved history bypasses instead — unless it
        // holds a view: there one write also advances every view of the
        // component, and paid alone under the slot lock that cost stalls
        // every submitter queued behind it, where a batch amortizes it.
        let pressure = !state.head.is_filled();
        if state.tracker.regime(pressure) == BatchRegime::Bypass
            && state
                .head
                .try_get()
                .is_some_and(|db| db.view_defs().next().is_none())
        {
            // Bypass: apply inline under the slot lock. No cell, no
            // batch, no pool job, no worker handoff — mixed workloads
            // pay one lock and one structural update per write, while
            // keeping the engine-wide submission-order serialization.
            EngineStats::bump(&self.stats.bypass_writes);
            state.open = None;
            let first = state
                .head
                .try_get()
                .expect("bypass regime requires a filled head");
            let (answer, next) = exec::write(first, &query);
            if self.durable.is_none() {
                state.head = Head::Ready(next);
                return Placed::Answered(Lenient::ready(answer));
            }
            // With a sink the write is a one-op run computed here: the
            // head is its output, pending until the run is durable, so a
            // write behind it chains and a read pins it — nothing sees
            // the successor before its commit.
            let run = Computed {
                slot: Arc::clone(slot),
                first: first.clone(),
                next,
                claimed: vec![(seq, query, Lenient::new())],
                answers: Answers::One(answer),
                output: Lenient::new(),
            };
            state.head = Head::Cell(run.output.clone());
            return Placed::Computed(run);
        }

        // Coalesce: open a new batch for this write and every
        // unsealed write that follows it. Under queue pressure the
        // batch is *chained* — it gets no pool job of its own; the
        // predecessor's runner claims it when that version fills,
        // so a claimed multi-batch run costs one pool job total.
        Placed::Answered(self.open_batch(slot, state, seq, query, false, !pressure))
    }

    /// Submits a transaction; the call returns immediately with the cell
    /// its response will appear in. Submission order is the serialization
    /// order.
    ///
    /// Dependency discipline: a job waits only on cells produced by
    /// *earlier* submissions, and the worker pool is FIFO, so the earliest
    /// unfinished job always has every input available — the engine cannot
    /// deadlock regardless of pool width.
    ///
    /// Response cells are made lazily, per path: one that resolves its
    /// answer inline (fast reads, bypass writes, refusals) returns an
    /// already-filled cell and skips the empty-cell handshake — the
    /// allocation, the clone, and the fill's lock-and-notify — entirely.
    pub fn submit(&self, tx: Transaction) -> Lenient<Response> {
        let query = tx.into_query();
        match query {
            Query::Find { .. }
            | Query::FindRange { .. }
            | Query::Select { .. }
            | Query::Count { .. }
            | Query::Aggregate { .. }
            | Query::Join { .. }
            | Query::Explain(_) => self.submit_read(query),
            Query::Insert { .. } | Query::Delete { .. } | Query::Replace { .. } => {
                self.submit_write(query)
            }
            Query::CreateIndex {
                ref relation,
                ref name,
                ref fields,
            } => {
                // Resolve every field against the relation's schema at
                // submission, so the logged record and the apply step agree
                // on positions regardless of how the schema is spelled.
                let resolved = match exec::resolve_index(relation, fields, |n| self.entry(n)) {
                    Ok(positions) => Query::CreateIndex {
                        relation: relation.clone(),
                        name: name.clone(),
                        fields: positions.into_iter().map(FieldRef::Index).collect(),
                    },
                    Err(e) => return refused(e),
                };
                let slot = self.slot(relation).expect("resolved as a base above");
                // DDL never coalesces with data writes: it runs in its own
                // already-sealed single-op batch. The batch kernel folds
                // data writes only, and the sealed run keeps the WAL
                // record at this exact sequence position — logged before
                // visibility, the same rule as `create relation`.
                self.with_slot(relation, slot, |slot, state| {
                    let seq = Self::stamp_write(slot, state);
                    self.open_batch(slot, state, seq, resolved, true, true)
                })
            }
            Query::Create {
                ref relation,
                ref schema,
                repr,
            } => {
                // Catalog updates are resolved at submission (the catalog is
                // the spine; relation *contents* stay lenient).
                let schema = match exec::parse_schema(schema) {
                    Ok(schema) => schema,
                    Err(e) => return refused(e),
                };
                if let Err(refusal) = self.reserve_and_commit(relation, &query) {
                    return Lenient::ready(refusal);
                }
                let db = Database::empty()
                    .create_relation_with_schema(relation.clone(), repr.to_repr(), schema.clone())
                    .expect("an empty database has no names");
                let bound = Bound {
                    slot: Arc::new(Slot::new(db, 0)),
                    entry: Entry::Base(schema),
                };
                let mut catalog = self.catalog.write();
                catalog.reserved.remove(relation);
                catalog.names.insert(relation.clone(), bound);
                catalog.order.push(relation.clone());
                Lenient::ready(Response::Created(relation.clone()))
            }
            Query::CreateView { ref name, ref spec } => {
                // Resolve the spec against the catalog up front, so
                // rejected specs never reach the log.
                match exec::resolve_view_spec(spec, |n| self.entry(n)) {
                    Ok(def) => self.submit_create_view(&query, name, def),
                    Err(e) => refused(e),
                }
            }
            Query::Names => Lenient::ready(Response::Names(self.catalog.read().order.clone())),
        }
    }

    /// Submits a batch and blocks for all responses, in submission order.
    pub fn run(&self, txns: impl IntoIterator<Item = Transaction>) -> Vec<Response> {
        let cells: Vec<Lenient<Response>> = txns.into_iter().map(|t| self.submit(t)).collect();
        cells.into_iter().map(|c| c.wait_cloned()).collect()
    }

    /// Waits for every in-flight write and assembles the current database
    /// value (a barrier; the paper's "complete archive" snapshot).
    pub fn snapshot(&self) -> Database {
        self.consistent_cut().database
    }

    /// Captures an atomic cut of the frontier: the database value made of
    /// every component's current head, plus each base relation's write
    /// sequence mark (how many writes the cut folds in).
    ///
    /// All slot locks are held at once (one `with_slots` call) while
    /// heads are pinned and marks read, so the cut is a consistent prefix
    /// of every component's history and the marks align exactly with the
    /// contents. The assembled database holds the engine's *actual*
    /// relation and view values — physical sharing with prior cuts is
    /// preserved, which is what makes checkpointing a cut incremental.
    pub fn consistent_cut(&self) -> ConsistentCut {
        let names = self.catalog.read().order.clone();
        let refs: Vec<&RelationName> = names.iter().collect();
        let (heads, marks, at) = self.with_slots(&refs, |slots, states, at| {
            let heads: Vec<Lenient<Database>> = slots
                .iter()
                .zip(states.iter_mut())
                .map(|(slot, state)| self.pin(slot, state))
                .collect();
            let marks: Vec<u64> = states.iter().map(|s| s.next_seq).collect();
            (heads, marks, at.to_vec())
        });
        let mut database = Database::empty();
        let mut seq_marks = HashMap::new();
        for (name, i) in names.iter().zip(at) {
            let component = heads[i].wait();
            database = with_entry(&database, component, name);
            if let Ok(None) = component.view_def(name) {
                seq_marks.insert(name.clone(), marks[i]);
            }
        }
        ConsistentCut {
            database,
            seq_marks,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_stream::apply_stream;
    use fundb_lenient::Stream;
    use fundb_query::{parse, translate};
    use fundb_relational::Repr;
    use std::time::Duration;

    fn txn(q: &str) -> Transaction {
        translate(parse(q).unwrap())
    }

    fn base() -> Database {
        Database::empty()
            .create_relation("R", Repr::List)
            .unwrap()
            .create_relation("S", Repr::List)
            .unwrap()
    }

    #[test]
    fn basic_insert_find() {
        let engine = PipelinedEngine::new(2, &base());
        let rs = engine.run(vec![txn("insert (1, 'a') into R"), txn("find 1 in R")]);
        assert!(!rs[0].is_error());
        assert_eq!(rs[1].tuples().unwrap().len(), 1);
    }

    #[test]
    fn matches_sequential_apply_stream() {
        // Serializability: the engine's responses equal sequential
        // processing of the same (merged) order.
        let queries: Vec<String> = (0..60)
            .map(|i| match i % 5 {
                0 => format!("insert ({i}, 'v{i}') into R"),
                1 => format!("insert ({i}, 'w{i}') into S"),
                2 => format!("find {} in R", i - 2),
                3 => "count S".to_string(),
                _ => format!("delete {} from R", i - 4),
            })
            .collect();
        let txns: Vec<Transaction> = queries.iter().map(|q| txn(q)).collect();

        let stream: Stream<Transaction> = txns.clone().into_iter().collect();
        let (expected, _) = apply_stream(stream, base());
        let expected = expected.collect_vec();

        for workers in [1, 4, 8] {
            let engine = PipelinedEngine::new(workers, &base());
            let got = engine.run(txns.clone());
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn reader_completes_under_writer_churn() {
        // A read of S is never gated on R's long write chain: its input
        // cell is S's (ready) frontier, so it completes promptly.
        let engine = PipelinedEngine::new(2, &base());
        // Occupy R with a chain of writes to keep its cells churning.
        for i in 0..100 {
            engine.submit(txn(&format!("insert {i} into R")));
        }
        let s = engine.submit(txn("count S"));
        let got = s
            .wait_timeout(Duration::from_secs(5))
            .expect("S reader must not be blocked behind R writers");
        assert_eq!(*got, Response::Count(0));
    }

    #[test]
    fn single_worker_cannot_deadlock() {
        // With one FIFO worker, dependency order = execution order.
        let engine = PipelinedEngine::new(1, &base());
        let rs = engine.run((0..50).map(|i| {
            if i % 2 == 0 {
                txn(&format!("insert {i} into R"))
            } else {
                txn(&format!("find {} in R", i - 1))
            }
        }));
        assert_eq!(rs.len(), 50);
        for (i, r) in rs.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(r.tuples().unwrap().len(), 1, "query {i}");
            }
        }
    }

    #[test]
    fn create_and_missing_relation_paths() {
        let engine = PipelinedEngine::new(2, &Database::empty());
        let rs = engine.run(vec![
            txn("create relation T as tree"),
            txn("create relation T"),
            txn("insert 1 into T"),
            txn("insert 1 into Missing"),
            txn("find 1 in T"),
            txn("relations"),
        ]);
        assert_eq!(rs[0], Response::Created("T".into()));
        assert!(rs[1].is_error());
        assert!(!rs[2].is_error());
        assert!(rs[3].is_error());
        assert_eq!(rs[4].tuples().unwrap().len(), 1);
        assert_eq!(rs[5], Response::Names(vec!["T".into()]));
    }

    #[test]
    fn join_through_engine() {
        let engine = PipelinedEngine::new(2, &base());
        engine.submit(txn("insert (1, 'a') into R"));
        engine.submit(txn("insert (1, 'x') into S"));
        engine.submit(txn("insert (2, 'y') into S"));
        let j = engine.submit(txn("join R with S"));
        assert_eq!(j.wait().tuples().unwrap().len(), 1);
        let bad = engine.submit(txn("join R with Nope"));
        assert!(bad.wait().is_error());
    }

    #[test]
    fn explain_through_engine() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 'a') into R"),
            txn("insert (2, 'b') into R"),
            txn("create index by_val on R (#1)"),
        ]);
        let rs = engine.run(vec![
            txn("explain find 1 in R"),
            txn("explain select from R where #1 = 'a'"),
            txn("explain join R with R on #0 = #1"),
            txn("explain count R"),
        ]);
        match &rs[0] {
            Response::Plan {
                plan,
                estimated_rows,
            } => {
                assert!(plan.contains("key eq find"), "{plan}");
                assert_eq!(*estimated_rows, 1);
            }
            other => panic!("expected a plan, got {other}"),
        }
        match &rs[1] {
            Response::Plan { plan, .. } => {
                assert!(plan.contains("index eq probe on by_val"), "{plan}")
            }
            other => panic!("expected a plan, got {other}"),
        }
        match &rs[2] {
            Response::Plan { plan, .. } => assert!(plan.contains("join"), "{plan}"),
            other => panic!("expected a plan, got {other}"),
        }
        // Only select, join and find are explainable.
        assert!(rs[3].is_error());
        // Explaining must not execute: no path counters recorded.
        assert_eq!(engine.stats().path_index_eq, 0);
    }

    #[test]
    fn range_find_through_engine() {
        let engine = PipelinedEngine::new(2, &base());
        let mut cells = Vec::new();
        for k in [1, 3, 5, 7, 9] {
            cells.push(engine.submit(txn(&format!("insert {k} into R"))));
        }
        let r = engine.submit(txn("find 3 to 7 in R"));
        assert_eq!(r.wait().tuples().unwrap().len(), 3);
    }

    #[test]
    fn snapshot_reflects_all_writes() {
        let engine = PipelinedEngine::new(4, &base());
        engine.run((0..20).map(|i| txn(&format!("insert {i} into R"))));
        let db = engine.snapshot();
        assert_eq!(db.tuple_count(), 20);
        assert_eq!(db.relation_names(), vec!["R".into(), "S".into()]);
    }

    #[test]
    fn heavy_concurrent_load_is_serializable() {
        // Interleave writes to two relations and verify final counts.
        let engine = PipelinedEngine::new(8, &base());
        let mut cells = Vec::new();
        for i in 0..200 {
            let rel = if i % 2 == 0 { "R" } else { "S" };
            cells.push(engine.submit(txn(&format!("insert {i} into {rel}"))));
        }
        for c in &cells {
            assert!(!c.wait().is_error());
        }
        let counts = engine.run(vec![txn("count R"), txn("count S")]);
        assert_eq!(counts[0], Response::Count(100));
        assert_eq!(counts[1], Response::Count(100));
    }

    #[test]
    fn read_fast_path_answers_inline() {
        // On a quiescent relation the input cell is filled, so find/count
        // answer before submit() returns — no pool round-trip.
        let engine = PipelinedEngine::new(2, &base());
        let c = engine.submit(txn("count R"));
        assert!(c.is_filled(), "count fast-path must answer inline");
        assert_eq!(*c.wait(), Response::Count(0));
        let f = engine.submit(txn("find 1 in R"));
        assert!(f.is_filled(), "find fast-path must answer inline");
        assert_eq!(f.wait().tuples().unwrap().len(), 0);
    }

    #[test]
    fn coalesced_writes_fill_every_response() {
        // A burst of writes against one relation coalesces into few jobs;
        // every transaction still gets its own correct answer.
        let engine = PipelinedEngine::new(1, &base());
        let cells: Vec<_> = (0..300)
            .map(|i| engine.submit(txn(&format!("insert ({i}, 'v{i}') into R"))))
            .collect();
        for (i, c) in cells.iter().enumerate() {
            match c.wait() {
                Response::Inserted { tuple, .. } => {
                    assert_eq!(tuple.key().as_int(), Some(i as i64));
                }
                other => panic!("write {i} answered {other}"),
            }
        }
        let count = engine.submit(txn("count R"));
        assert_eq!(*count.wait(), Response::Count(300));
    }

    #[test]
    fn interleaved_reads_observe_exact_prefix() {
        // Every count interleaved into a write burst sees precisely the
        // writes submitted before it — the seal-on-read rule.
        let engine = PipelinedEngine::new(4, &base());
        let mut counts = Vec::new();
        for i in 0..120 {
            engine.submit(txn(&format!("insert {i} into R")));
            counts.push(engine.submit(txn("count R")));
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(*c.wait(), Response::Count(i + 1), "read {i}");
        }
    }

    /// The responses of applying `txns` one after another to `base()` —
    /// the sequential model every engine run must reproduce.
    fn sequential(txns: &[Transaction]) -> Vec<Response> {
        let stream: Stream<Transaction> = txns.iter().cloned().collect();
        apply_stream(stream, base()).0.collect_vec()
    }

    #[test]
    fn batches_and_reads_match_sequential_application() {
        // Coalesced batches answer each transaction exactly as applying
        // them one at a time would.
        let queries: Vec<String> = (0..80)
            .map(|i| match i % 7 {
                0..=2 => format!("insert ({i}, 'x{i}') into R"),
                3 => format!("replace ({}, 'y') in R", i - 1),
                4 => format!("delete {} from R", i - 4),
                5 => "count R".to_string(),
                _ => format!("find {} in R", i - 5),
            })
            .collect();
        let txns: Vec<Transaction> = queries.iter().map(|q| txn(q)).collect();
        let expected = sequential(&txns);
        let current = PipelinedEngine::new(4, &base()).run(txns);
        assert_eq!(current, expected);
    }

    /// A sink that records every committed record and can be switched to
    /// fail, for exercising the commit protocol without a disk.
    struct RecordingSink {
        committed: Mutex<Vec<(String, u64, String)>>,
        creates: Mutex<Vec<String>>,
        fail: std::sync::atomic::AtomicBool,
        batch_sizes: Mutex<Vec<usize>>,
    }

    impl RecordingSink {
        fn new() -> Self {
            RecordingSink {
                committed: Mutex::new(Vec::new()),
                creates: Mutex::new(Vec::new()),
                fail: std::sync::atomic::AtomicBool::new(false),
                batch_sizes: Mutex::new(Vec::new()),
            }
        }
    }

    impl CommitSink for RecordingSink {
        fn commit_writes(
            &self,
            relation: &RelationName,
            writes: &[(u64, Query)],
        ) -> std::io::Result<()> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("injected commit failure"));
            }
            self.batch_sizes.lock().push(writes.len());
            let mut log = self.committed.lock();
            for (seq, q) in writes {
                log.push((relation.to_string(), *seq, q.to_string()));
            }
            Ok(())
        }

        fn commit_create(&self, query: &Query) -> std::io::Result<()> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(std::io::Error::other("injected commit failure"));
            }
            self.creates.lock().push(query.to_string());
            Ok(())
        }
    }

    #[test]
    fn sink_sees_every_acknowledged_write_in_sequence_order() {
        let sink = Arc::new(RecordingSink::new());
        let engine =
            PipelinedEngine::with_sink(2, &base(), Arc::clone(&sink) as _, &HashMap::new());
        let rs = engine.run((0..50).map(|i| {
            let rel = if i % 2 == 0 { "R" } else { "S" };
            txn(&format!("insert {i} into {rel}"))
        }));
        assert!(rs.iter().all(|r| !r.is_error()));

        // Every acked write is in the log, and each relation's records
        // carry consecutive sequence numbers 0..25 in order.
        let log = sink.committed.lock();
        assert_eq!(log.len(), 50);
        for rel in ["R", "S"] {
            let seqs: Vec<u64> = log
                .iter()
                .filter(|(r, _, _)| r == rel)
                .map(|(_, s, _)| *s)
                .collect();
            assert_eq!(seqs, (0..25).collect::<Vec<u64>>(), "{rel}");
        }
    }

    #[test]
    fn sink_commits_whole_batches() {
        // One worker guarantees writes pile into few batches; the sink
        // must see one commit call per batch, not per transaction.
        let sink = Arc::new(RecordingSink::new());
        let engine =
            PipelinedEngine::with_sink(1, &base(), Arc::clone(&sink) as _, &HashMap::new());
        let rs = engine.run((0..100).map(|i| txn(&format!("insert {i} into R"))));
        assert!(rs.iter().all(|r| !r.is_error()));
        let sizes = sink.batch_sizes.lock();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(
            sizes.len() < 100,
            "writes must coalesce into group commits, got {} calls",
            sizes.len()
        );
    }

    #[test]
    fn create_commits_before_it_is_visible() {
        let sink = Arc::new(RecordingSink::new());
        let engine = PipelinedEngine::with_sink(
            2,
            &Database::empty(),
            Arc::clone(&sink) as _,
            &HashMap::new(),
        );
        let r = engine.submit(txn("create relation T as tree"));
        assert_eq!(*r.wait(), Response::Created("T".into()));
        assert_eq!(sink.creates.lock().len(), 1);

        // A failing sink vetoes creation entirely: not durable, not visible.
        sink.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let r = engine.submit(txn("create relation U"));
        assert!(r.wait().is_error());
        let names = engine.submit(txn("relations"));
        assert_eq!(*names.wait(), Response::Names(vec!["T".into()]));

        // The failed create released its name reservation: once the sink
        // recovers, the same name can be created.
        sink.fail.store(false, std::sync::atomic::Ordering::SeqCst);
        let r = engine.submit(txn("create relation U"));
        assert_eq!(*r.wait(), Response::Created("U".into()));
    }

    /// A sink whose `commit_create` stalls, exposing the window where the
    /// create's durable commit runs outside the catalog lock.
    struct SlowCreateSink;

    impl CommitSink for SlowCreateSink {
        fn commit_writes(&self, _: &RelationName, _: &[(u64, Query)]) -> std::io::Result<()> {
            Ok(())
        }

        fn commit_create(&self, _: &Query) -> std::io::Result<()> {
            std::thread::sleep(Duration::from_millis(50));
            Ok(())
        }
    }

    #[test]
    fn concurrent_duplicate_creates_collide_and_other_relations_proceed() {
        let engine = Arc::new(PipelinedEngine::with_sink(
            2,
            &base(),
            Arc::new(SlowCreateSink) as _,
            &HashMap::new(),
        ));
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || {
                        engine
                            .submit(txn("create relation T as tree"))
                            .wait_cloned()
                    })
                })
                .collect();
            // While a create's fsync is in flight, traffic on existing
            // relations must not be stalled behind the catalog lock.
            let r = engine.submit(txn("insert 1 into R"));
            assert!(!r.wait().is_error());
            let results: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let created = results.iter().filter(|r| !r.is_error()).count();
            assert_eq!(created, 1, "exactly one duplicate create wins: {results:?}");
        });
    }

    #[test]
    fn failed_commit_answers_error_and_publishes_unchanged_version() {
        let sink = Arc::new(RecordingSink::new());
        let engine =
            PipelinedEngine::with_sink(2, &base(), Arc::clone(&sink) as _, &HashMap::new());
        engine.run(vec![txn("insert 1 into R")]);
        sink.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let rs = engine.run(vec![txn("insert 2 into R"), txn("count R")]);
        assert!(rs[0].is_error(), "unacknowledged write must report failure");
        assert_eq!(
            rs[1],
            Response::Count(1),
            "failed write must not be visible"
        );
        // Durability resumes once the sink recovers; burned sequence
        // numbers leave a gap, which recovery tolerates (the records never
        // reached the log).
        sink.fail.store(false, std::sync::atomic::Ordering::SeqCst);
        let rs = engine.run(vec![txn("insert 3 into R"), txn("count R")]);
        assert!(!rs[0].is_error());
        assert_eq!(rs[1], Response::Count(2));
        let log = sink.committed.lock();
        let r_seqs: Vec<u64> = log
            .iter()
            .filter(|(r, _, _)| r == "R")
            .map(|(_, s, _)| *s)
            .collect();
        assert_eq!(r_seqs, vec![0, 2], "seq 1 burned by the failed commit");
    }

    #[test]
    fn consistent_cut_reports_marks_and_shares_structure() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run((0..10).map(|i| txn(&format!("insert {i} into R"))));
        let cut1 = engine.consistent_cut();
        assert_eq!(cut1.seq_marks[&"R".into()], 10);
        assert_eq!(cut1.seq_marks[&"S".into()], 0);
        assert_eq!(cut1.database.tuple_count(), 10);

        engine.run(vec![txn("insert 10 into R")]);
        let cut2 = engine.consistent_cut();
        assert_eq!(cut2.seq_marks[&"R".into()], 11);
        // S untouched between cuts: the two cut databases share its value
        // physically (which is what checkpointing exploits).
        assert!(cut1
            .database
            .shares_relation_with(&cut2.database, &"S".into()));
    }

    #[test]
    fn seq_marks_resume_numbering_after_restart() {
        let sink = Arc::new(RecordingSink::new());
        let marks: HashMap<RelationName, u64> = [("R".into(), 7u64)].into_iter().collect();
        let engine = PipelinedEngine::with_sink(2, &base(), Arc::clone(&sink) as _, &marks);
        engine.run(vec![txn("insert 99 into R"), txn("insert 1 into S")]);
        let log = sink.committed.lock();
        assert!(log.contains(&("R".to_string(), 7, "insert (99) into R".to_string())));
        assert!(log.contains(&("S".to_string(), 0, "insert (1) into S".to_string())));
    }

    #[test]
    fn create_index_through_engine() {
        let sink = Arc::new(RecordingSink::new());
        let engine =
            PipelinedEngine::with_sink(2, &base(), Arc::clone(&sink) as _, &HashMap::new());
        let rs = engine.run(vec![
            txn("insert (1, 'eng', 10) into R"),
            txn("insert (2, 'ops', 20) into R"),
            txn("insert (3, 'eng', 30) into R"),
            txn("create index by_tag on R (#1)"),
            txn("select from R where #1 = 'eng'"),
            txn("create index by_tag on R (#1)"),
            txn("create index nope on Missing (#1)"),
        ]);
        assert_eq!(
            rs[3],
            Response::IndexCreated {
                relation: "R".into(),
                name: "by_tag".into()
            }
        );
        assert_eq!(rs[4].tuples().unwrap().len(), 2);
        assert_eq!(
            rs[5],
            Response::Error("index already exists on R: by_tag".into())
        );
        assert_eq!(rs[6], Response::Error("no such relation: Missing".into()));
        {
            // The create rode the write path: one logged record at its own
            // sequence position, field normalized to a position.
            let log = sink.committed.lock();
            assert!(log.contains(&(
                "R".to_string(),
                3,
                "create index by_tag on R (#1)".to_string()
            )));
        }
        // Writes after the create keep the index current.
        engine.run(vec![txn("insert (4, 'eng', 40) into R")]);
        let r = engine.submit(txn("select from R where #1 = 'eng'"));
        assert_eq!(r.wait().tuples().unwrap().len(), 3);
    }

    #[test]
    fn create_index_matches_sequential_application() {
        let queries = [
            "insert (1, 'a') into R",
            "insert (2, 'b') into R",
            "create index by_val on R (#1)",
            "select from R where #1 = 'b'",
            "create index by_val on R (#1)",
            "create index nope on Missing (#0)",
        ];
        let txns: Vec<Transaction> = queries.iter().map(|q| txn(q)).collect();
        let current = PipelinedEngine::new(2, &base()).run(txns.to_vec());
        assert_eq!(current, sequential(&txns));
    }

    #[test]
    fn concurrent_submitters_cannot_deadlock_a_narrow_pool() {
        // Regression: job spawn must stay inside the slot critical
        // section. If two submitters could enqueue in an order inverting
        // version-capture order, a one-worker pool would stall forever on
        // a cell whose producer sits behind it in the queue. Four threads
        // of interleaved reads and writes against a single worker must
        // complete, and every client's writes must land.
        let engine = std::sync::Arc::new(PipelinedEngine::new(1, &base()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let engine = std::sync::Arc::clone(&engine);
                s.spawn(move || {
                    let mut cells = Vec::new();
                    for i in 0..200u64 {
                        let key = t * 1000 + i;
                        cells.push(engine.submit(txn(&format!("insert {key} into R"))));
                        if i % 3 == 0 {
                            cells.push(engine.submit(txn("count R")));
                        }
                    }
                    for c in cells {
                        assert!(!c.wait().is_error());
                    }
                });
            }
        });
        assert_eq!(engine.snapshot().tuple_count(), 800);
    }

    #[test]
    fn view_maintenance_through_engine() {
        let engine = PipelinedEngine::new(2, &base());
        let rs = engine.run(vec![
            txn("insert (1, 'eng', 10) into R"),
            txn("insert (2, 'ops', 20) into R"),
            txn("create view Eng as select from R where #1 = 'eng'"),
        ]);
        assert_eq!(
            rs[2],
            Response::ViewCreated {
                name: "Eng".into(),
                rows: 1
            }
        );
        // Writes after creation land through `Database::write`, which
        // advances the view in the same step as its base.
        let rs = engine.run(vec![
            txn("insert (3, 'eng', 30) into R"),
            txn("insert (4, 'ops', 40) into R"),
            txn("delete 1 from R"),
            txn("count Eng"),
            txn("select from Eng"),
        ]);
        assert_eq!(rs[3], Response::Count(1));
        let tuples = rs[4].tuples().unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].key(), &3.into());
    }

    #[test]
    fn view_ddl_and_write_rejections() {
        let engine = PipelinedEngine::new(2, &base());
        let rs = engine.run(vec![
            txn("create view V as select from R"),
            txn("create view V as select from R"),
            txn("create view W as select from V"),
            txn("insert 1 into V"),
            txn("create index i on V (#0)"),
            txn("create view J as join V with S on #0 = #0"),
            txn("create view M as select from Missing"),
        ]);
        assert!(!rs[0].is_error());
        assert_eq!(rs[1], Response::Error("relation already exists: V".into()));
        assert_eq!(
            rs[2],
            Response::Error("views over views are not supported: V".into())
        );
        assert_eq!(
            rs[3],
            Response::Error("cannot write to materialized view: V".into())
        );
        assert_eq!(
            rs[4],
            Response::Error("indexes on materialized views are not supported: V".into())
        );
        assert_eq!(
            rs[5],
            Response::Error("views over views are not supported: V".into())
        );
        assert_eq!(rs[6], Response::Error("no such relation: Missing".into()));
        let rs = engine.run(vec![txn("join V with S")]);
        assert_eq!(
            rs[0],
            Response::Error(
                "joins over materialized views are not supported: join V with S".into()
            )
        );
    }

    #[test]
    fn select_substitution_and_explain_use_the_view() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 'eng') into R"),
            txn("insert (2, 'ops') into R"),
            txn("create view Eng as select from R where #1 = 'eng'"),
            txn("insert (3, 'eng') into R"),
        ]);
        let rs = engine.run(vec![
            txn("select from R where #1 = 'eng'"),
            txn("explain select from R where #1 = 'eng'"),
        ]);
        assert_eq!(rs[0].tuples().unwrap().len(), 2);
        match &rs[1] {
            Response::Plan {
                plan,
                estimated_rows,
            } => {
                assert!(plan.contains("materialized view scan on Eng"), "{plan}");
                assert_eq!(*estimated_rows, 2);
            }
            other => panic!("expected a plan, got {other}"),
        }
        assert!(engine.stats().view_substitutions >= 1);
    }

    #[test]
    fn join_view_tracks_both_sides() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 'a') into R"),
            txn("insert (1, 'x') into S"),
            txn("create view RS as join R with S on #0 = #0"),
        ]);
        // A view read sees exactly the writes submitted before it, so the
        // whole sequence is pipelined without waiting in between.
        let rs = engine.run(vec![
            txn("insert (2, 'b') into R"), // no right partner yet
            txn("count RS"),
            txn("insert (2, 'y') into S"), // completes the pair
            txn("count RS"),
            txn("delete 1 from S"), // right-side retraction
            txn("count RS"),
        ]);
        assert_eq!(rs[1], Response::Count(1));
        assert_eq!(rs[3], Response::Count(2));
        assert_eq!(rs[5], Response::Count(1));
        // A matching ad-hoc join is substituted with the view.
        let rs = engine.run(vec![txn("explain join R with S on #0 = #0")]);
        match &rs[0] {
            Response::Plan { plan, .. } => {
                assert!(plan.contains("materialized view scan on RS"), "{plan}")
            }
            other => panic!("expected a plan, got {other}"),
        }
    }

    #[test]
    fn group_views_maintain_counts_and_sums() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 'eng', 10) into R"),
            txn("insert (2, 'ops', 20) into R"),
            txn("insert (3, 'eng', 30) into R"),
            txn("create view ByTag as count R by #1"),
            txn("create view Spend as sum #2 of R by #1"),
        ]);
        let rs = engine.run(vec![
            txn("insert (4, 'eng', 5) into R"),
            txn("replace (2, 'ops', 25) in R"),
            txn("delete 3 from R"),
            txn("select from ByTag"),
            txn("select from Spend"),
        ]);
        let mut counts: Vec<String> = rs[3]
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.to_string())
            .collect();
        counts.sort();
        assert_eq!(counts, vec!["('eng', 2)", "('ops', 1)"]);
        let mut sums: Vec<String> = rs[4]
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.to_string())
            .collect();
        sums.sort();
        assert_eq!(sums, vec!["('eng', 15, 2)", "('ops', 25, 1)"]);
    }

    #[test]
    fn self_join_view_is_maintained_like_recompute() {
        use fundb_relational::eval_view;

        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 1) into R"),
            txn("create view RR as join R with R on #0 = #1"),
        ]);
        let rs = engine.run(vec![
            txn("insert (2, 1) into R"),
            txn("insert (3, 2) into R"),
            txn("replace (1, 3) in R"),
            txn("delete 2 from R"),
            txn("count RR"),
            txn("select from RR"),
        ]);
        let db = engine.snapshot();
        let def = db.view_def(&"RR".into()).unwrap().unwrap().clone();
        let r = db.relation(&"R".into()).unwrap();
        let mut expected = eval_view(&def, r, Some(r));
        expected.sort();
        let mut got = rs[5].tuples().unwrap().to_vec();
        got.sort();
        assert_eq!(rs[4], Response::Count(expected.len()));
        assert_eq!(got, expected);
    }

    #[test]
    fn every_read_of_one_covered_component_answers_inline() {
        // R and S share one component through the view RS; T is a
        // component of its own.
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("create relation T"),
            txn("create view RS as join R with S on #1 = #1"),
            txn("insert (1, 'a') into R"),
            txn("insert (2, 'b') into R"),
            txn("insert (1, 'x') into S"),
            txn("insert (1, 't') into T"),
        ]);
        // A count answers from the filled head and repairs the frontier:
        // from here it covers every submitted write.
        assert_eq!(*engine.submit(txn("count R")).wait(), Response::Count(2));
        for q in [
            "select from R where #1 = 'a'",
            "sum #0 of R",
            "explain select from R where #0 = 1",
            "join R with S",
            "explain join R with S",
        ] {
            let hits = engine.stats().frontier_hits;
            let answer = engine.submit(txn(q));
            assert!(answer.is_filled(), "{q} must answer before submit returns");
            assert!(!answer.wait().is_error(), "{q}: {}", answer.wait());
            assert_eq!(engine.stats().frontier_hits, hits + 1, "{q}");
        }
        // A join across two components pins both heads and runs on the
        // pool.
        let hits = engine.stats().frontier_hits;
        let joined = engine.submit(txn("join R with T"));
        assert_eq!(joined.wait().tuples().unwrap().len(), 1);
        assert_eq!(engine.stats().frontier_hits, hits);
    }

    #[test]
    fn views_stay_exact_where_bypass_would_engage() {
        // The insert/read/wait loop drives the traffic tracker into the
        // bypass regime on a plain relation…
        let plain = PipelinedEngine::new(2, &base());
        for i in 0..60 {
            plain.submit(txn(&format!("insert {i} into R")));
            plain.submit(txn("count R")).wait();
        }
        assert!(plain.stats().bypass_writes > 0, "loop must trigger bypass");

        // …but a slot holding a view keeps coalescing (a lone write there
        // pays every view's upkeep under the slot lock), and every count
        // through the view stays exact.
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![txn("create view All as select from R")]);
        for i in 0..60 {
            engine.submit(txn(&format!("insert {i} into R")));
            let c = engine.submit(txn("count All"));
            assert_eq!(*c.wait(), Response::Count(i + 1));
        }
        assert_eq!(engine.stats().bypass_writes, 0);
    }

    #[test]
    fn concurrent_writers_keep_views_equal_to_recompute() {
        use fundb_relational::eval_view;

        let engine = Arc::new(PipelinedEngine::new(4, &base()));
        engine.run(vec![
            txn("create view Big as select from R where #0 > 100"),
            txn("create view RS as join R with S on #0 = #0"),
            txn("create view PerTag as count R by #1"),
        ]);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let mut cells = Vec::new();
                    for i in 0..100u64 {
                        let key = t * 1000 + i;
                        cells.push(engine.submit(txn(&format!("insert ({key}, 't{t}') into R"))));
                        if i % 2 == 0 {
                            cells.push(engine.submit(txn(&format!("insert ({key}, 's') into S"))));
                        }
                        if i % 7 == 3 {
                            cells.push(
                                engine.submit(txn(&format!("delete {} from R", t * 1000 + i - 3))),
                            );
                        }
                    }
                    for c in cells {
                        c.wait();
                    }
                });
            }
        });
        // All writers joined: reading each view through the engine hits the
        // differentially-maintained state, which must equal a from-scratch
        // evaluation over the final bases.
        let db = engine.snapshot();
        for name in ["Big", "RS", "PerTag"] {
            let def = db.view_def(&name.into()).unwrap().unwrap().clone();
            let bases = def.bases();
            let left = db.relation(bases[0]).unwrap();
            let right = bases.get(1).map(|b| db.relation(b).unwrap());
            let mut expected = eval_view(&def, left, right);
            expected.sort();
            let resp = engine
                .run(vec![txn(&format!("select from {name}"))])
                .remove(0);
            let mut got = resp.tuples().unwrap().to_vec();
            got.sort();
            assert_eq!(got, expected, "view {name} diverged from recompute");
        }
    }

    /// One writer's statements against its own key stripe of R and S,
    /// each view read answered by that writer's writes alone: its select
    /// view `T{t}`, its rows of the join view `RS` and its group of the
    /// count view `PerTag`.
    fn writer_statements(t: u64, n: u64) -> Vec<String> {
        let mut stmts = Vec::new();
        for i in 0..n {
            let key = t * 1000 + i;
            stmts.push(format!("insert ({key}, 't{t}') into R"));
            if i % 2 == 0 {
                stmts.push(format!("insert ({key}, 's') into S"));
            }
            if i % 5 == 3 {
                stmts.push(format!("delete {} from R", key - 3));
            }
            if i % 7 == 4 {
                stmts.push(format!("delete {} from S", key - 4));
            }
            stmts.push(format!("count T{t}"));
            stmts.push(format!("find {} in RS", key - i % 3));
            stmts.push(format!("select from PerTag where #0 = 't{t}'"));
            if i % 10 == 9 {
                stmts.push(format!("select from T{t}"));
            }
        }
        stmts
    }

    #[test]
    fn view_reads_are_exact_under_concurrent_writers() {
        // Every view read sees exactly the writes submitted before it:
        // each writer pipelines all its statements without waiting, and
        // each answer must equal the sequential model at its position.
        // Writers touch disjoint keys and read only what their own writes
        // decide, so one writer's model is its own statements applied in
        // order to the views' starting state.
        const WRITERS: u64 = 3;
        let ddl: Vec<String> = (0..WRITERS)
            .map(|t| format!("create view T{t} as select from R where #1 = 't{t}'"))
            .chain([
                "create view RS as join R with S on #0 = #0".to_string(),
                "create view PerTag as count R by #1".to_string(),
            ])
            .collect();
        for workers in [1, 2, 4] {
            let engine = PipelinedEngine::new(workers, &base());
            engine.run(ddl.iter().map(|q| txn(q)));
            std::thread::scope(|s| {
                for t in 0..WRITERS {
                    let (engine, ddl) = (&engine, &ddl);
                    s.spawn(move || {
                        let stmts = writer_statements(t, 60);
                        let txns: Vec<Transaction> = stmts.iter().map(|q| txn(q)).collect();
                        let cells: Vec<_> =
                            txns.iter().map(|tx| engine.submit(tx.clone())).collect();
                        let mut model: Vec<Transaction> = ddl.iter().map(|q| txn(q)).collect();
                        model.extend(txns);
                        let expected = sequential(&model);
                        for (i, cell) in cells.iter().enumerate() {
                            assert_eq!(
                                *cell.wait(),
                                expected[ddl.len() + i],
                                "workers={workers}, writer {t}, #{i}: {}",
                                stmts[i]
                            );
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn consistent_cuts_share_every_view() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run((0..200).map(|i| txn(&format!("insert ({i}, {}) into R", i % 5))));
        engine.run(vec![
            txn("insert (1, 'x') into S"),
            txn("create view Big as select from R where #1 > 2"),
            txn("create view RS as join R with S on #0 = #0"),
            txn("create view PerVal as count R by #1"),
            txn("delete 7 from R"),
        ]);
        let (a, b) = (engine.consistent_cut(), engine.consistent_cut());
        for view in ["Big", "RS", "PerVal"] {
            assert!(
                a.database.shares_relation_with(&b.database, &view.into()),
                "{view} was rebuilt between two cuts with no writes"
            );
        }
    }

    #[test]
    fn cut_views_equal_recompute_under_concurrent_writers() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("create view Big as select from R where #0 > 100"),
            txn("create view RS as join R with S on #0 = #0"),
            txn("create view PerTag as count R by #1"),
        ]);
        let sorted = |db: &Database, name: &str| {
            let mut rows = db.relation(&name.into()).unwrap().scan();
            rows.sort();
            rows
        };
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let engine = &engine;
                s.spawn(move || {
                    for i in 0..150u64 {
                        let key = t * 1000 + i;
                        engine.submit(txn(&format!("insert ({key}, 't{t}') into R")));
                        if i % 2 == 0 {
                            engine.submit(txn(&format!("insert ({key}, 's') into S")));
                        }
                        if i % 5 == 3 {
                            engine.submit(txn(&format!("delete {} from R", key - 3)));
                        }
                    }
                });
            }
            for _ in 0..20 {
                let cut = engine.consistent_cut();
                let reference = cut.database.recompute_views();
                for view in ["Big", "RS", "PerTag"] {
                    assert_eq!(
                        sorted(&cut.database, view),
                        sorted(&reference, view),
                        "{view} differs from its bases within one cut"
                    );
                }
            }
        });
    }

    #[test]
    fn view_merge_redirects_writers_holding_the_old_slots() {
        // Writers start on R and S — so their per-thread caches hold the
        // unmerged slots — then `create view RS` merges the two while
        // they keep writing and reading, RS included.
        const WRITERS: u64 = 2;
        let view = "create view RS as join R with S on #0 = #0";
        let phase = |t: u64, range: std::ops::Range<u64>, rs: bool| -> Vec<String> {
            let mut stmts = Vec::new();
            for i in range {
                let key = t * 1000 + i;
                stmts.push(format!("insert ({key}, 'r') into R"));
                stmts.push(format!("insert ({key}, 's{t}') into S"));
                if i % 3 == 2 {
                    stmts.push(format!("delete {} from S", key - 1));
                }
                stmts.push(format!("find {key} in R"));
                if rs {
                    stmts.push(format!("find {} in RS", key - 1));
                }
            }
            stmts
        };
        for workers in [1, 2, 4] {
            let engine = PipelinedEngine::new(workers, &base());
            let started = std::sync::Barrier::new(WRITERS as usize + 1);
            let merged = std::sync::Barrier::new(WRITERS as usize + 1);
            std::thread::scope(|s| {
                for t in 0..WRITERS {
                    let (engine, started, merged) = (&engine, &started, &merged);
                    s.spawn(move || {
                        let (before, after) = (phase(t, 0..40, false), phase(t, 40..80, true));
                        let mut cells: Vec<_> =
                            before.iter().map(|q| engine.submit(txn(q))).collect();
                        started.wait();
                        merged.wait();
                        cells.extend(after.iter().map(|q| engine.submit(txn(q))));
                        let stmts: Vec<&String> = before.iter().chain(&after).collect();
                        let mut model: Vec<Transaction> = before.iter().map(|q| txn(q)).collect();
                        model.push(txn(view));
                        model.extend(after.iter().map(|q| txn(q)));
                        let mut expected = sequential(&model);
                        expected.remove(before.len());
                        for (i, cell) in cells.iter().enumerate() {
                            assert_eq!(
                                *cell.wait(),
                                expected[i],
                                "workers={workers}, writer {t}, #{i}: {}",
                                stmts[i]
                            );
                        }
                    });
                }
                started.wait();
                let created = engine.submit(txn(view));
                merged.wait();
                assert!(!created.wait().is_error());
            });
            let db = engine.snapshot();
            let mut got = db.relation(&"RS".into()).unwrap().scan();
            let mut want = db.recompute_views().relation(&"RS".into()).unwrap().scan();
            got.sort();
            want.sort();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn join_view_linking_components_with_views_answers_like_the_model() {
        let stmts = [
            "insert (1, 'a') into R",
            "insert (2, 'b') into R",
            "insert (1, 'x') into S",
            "create view RA as select from R where #1 = 'a'",
            "create view PerS as count S by #1",
            "insert (3, 'a') into R",
            "insert (2, 'x') into S",
            // Links the {R, RA} and {S, PerS} components into one.
            "create view RS as join R with S on #0 = #0",
            "insert (3, 'y') into S",
            "delete 1 from R",
            "count RA",
            "select from PerS",
            "count RS",
            "join R with S on #0 = #0",
            "select from R where #1 = 'a'",
            "insert (4, 'a') into R",
            "insert (4, 'x') into S",
            "count RS",
            "count RA",
            "select from PerS where #0 = 'x'",
        ];
        let txns: Vec<Transaction> = stmts.iter().map(|q| txn(q)).collect();
        let expected = sequential(&txns);
        for workers in [1, 2, 4] {
            let got = PipelinedEngine::new(workers, &base()).run(txns.clone());
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn snapshot_and_rebuild_preserve_views() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 'eng') into R"),
            txn("create view Eng as select from R where #1 = 'eng'"),
            txn("insert (2, 'eng') into R"),
        ]);
        let db = engine.snapshot();
        assert_eq!(db.relation(&"Eng".into()).unwrap().len(), 2);
        assert!(db.view_def(&"Eng".into()).unwrap().is_some());

        // A new engine built from the snapshot re-registers the view on its
        // base slots and keeps maintaining it.
        let engine2 = PipelinedEngine::new(2, &db);
        let rs = engine2.run(vec![
            txn("count Eng"),
            txn("insert (3, 'eng') into R"),
            txn("insert (4, 'ops') into R"),
            txn("count Eng"),
        ]);
        assert_eq!(rs[0], Response::Count(2));
        assert_eq!(rs[3], Response::Count(3));
    }

    #[test]
    fn create_view_commits_before_it_is_visible() {
        let sink = Arc::new(RecordingSink::new());
        let engine =
            PipelinedEngine::with_sink(2, &base(), Arc::clone(&sink) as _, &HashMap::new());
        let rs = engine.run(vec![txn("create view V as select from R")]);
        assert_eq!(
            rs[0],
            Response::ViewCreated {
                name: "V".into(),
                rows: 0
            }
        );
        assert!(sink
            .creates
            .lock()
            .contains(&"create view V as select from R".to_string()));

        // A failing sink vetoes creation: not durable, not visible, and the
        // name stays free for a retry.
        sink.fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let rs = engine.run(vec![txn("create view W as select from S")]);
        assert!(rs[0].is_error());
        sink.fail.store(false, std::sync::atomic::Ordering::SeqCst);
        let rs = engine.run(vec![txn("create view W as select from S")]);
        assert!(!rs[0].is_error());
    }
}
