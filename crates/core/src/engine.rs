//! The pipelined multi-thread execution engine.
//!
//! Section 2.3: "Each transaction yields a new database, which is
//! represented by a new pair. Thus, if a transaction following the insert
//! in S depends only on the R component, it can proceed immediately without
//! waiting for the S component to be completely established. We are here
//! relying on the 'lenient' aspect of the tupling constructor."
//!
//! [`PipelinedEngine`] realizes that sentence with threads: each database
//! version is a tuple of per-relation [`Lenient`] cells. Submitting a
//! transaction (under a brief slot lock — the paper's "momentary locking
//! effect" where streams merge) allocates fresh cells for the relations it
//! writes and captures the previous cells for the relations it reads; a
//! worker then blocks only on those captured cells. Readers of `R` overtake
//! a slow writer of `S` automatically, and the submission order is by
//! construction a serialization order.
//!
//! # Hot path
//!
//! The submission path is kept short by a sharded frontier plus an
//! *adaptive* per-slot choice between three regimes (see `DESIGN.md` for
//! the full argument). All of it is scheduling: what a statement *means*
//! is [`fundb_query::exec`]'s, the same code `translate` runs, so this
//! module decides only which relation version a statement sees and when
//! it runs:
//!
//! * **Sharded frontier** — the frontier is a map of independent slots,
//!   one lock per relation, behind an `RwLock` catalog that only `create`
//!   takes exclusively. Submissions against different relations never
//!   contend. Multi-relation captures (join, snapshot) take the involved
//!   slot locks together in name order, so the captured version vector is
//!   an atomic cut and lock acquisition cannot cycle.
//! * **Coalesce regime** — under write bursts or queue pressure,
//!   consecutive writes to the same relation join one open *batch* that
//!   waits on a single input cell, applies the whole run in submission
//!   order, and answers each transaction individually. N writes cost one
//!   relation cell instead of N. A read *seals* the open batch, because
//!   it pins the batch's output cell as its version: sealing guarantees
//!   that cell contains exactly the writes submitted before the read, and
//!   later writes start a new batch against it. A batch opened while its
//!   predecessor is still computing is *chained* — it gets no pool job of
//!   its own; the predecessor's worker claims it when the input arrives,
//!   so a whole multi-batch run costs one pool handoff.
//! * **Bypass regime** — when the slot's [`TrafficTracker`] says recent
//!   traffic is read-interleaved (so a batch would be sealed after ~1 op
//!   and amortize nothing) and the head version is ready, a write applies
//!   inline under the slot lock: no batch, no cell, no job, no wakeup —
//!   and the same submission-order sequence numbers, so serializability
//!   is untouched by regime switches.
//! * **Lock-free read frontier** — each slot publishes its newest *ready*
//!   version in an [`AtomicArc`] alongside a `submitted` write counter.
//!   A cheap read (`find`/`count`) loads both without the slot mutex; if
//!   the published version covers every submitted write, the answer is
//!   computed right there — no lock, no seal, no job. Otherwise it falls
//!   back to the slow path (answer from a filled head under the lock —
//!   *repairing* the frontier in passing, so publication is demand-driven
//!   and writers never pay for it — then pin-and-force).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fundb_lenient::{spawn_on_current_pool, AtomicArc, Lenient, WorkerPool};
use fundb_query::exec::{self, Entry};
use fundb_query::{FieldRef, Predicate, Query, Response, Transaction};
use fundb_relational::{
    advance_view, materialize_view, BatchOp, Database, KeyTransition, Relation, RelationName,
    Schema, ViewDef,
};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::commit::CommitSink;
use crate::fasthash::BuildFnv;
use crate::schedule::{BatchRegime, TrafficTracker};
use crate::stats::{EngineStats, EngineStatsSnapshot};

/// An open coalescing batch: writes accumulated for one claimed run.
///
/// `sealed` flips exactly once — set by whoever claims the run (the
/// batch's own pool job, a predecessor's chain drain, claiming as late as
/// possible so the run keeps growing until its input arrives), or by a
/// reader pinning the batch's output as its version. Either way, once
/// sealed no submission may append, and the batch's output cell is the
/// fold of precisely the ops recorded here.
struct BatchOps {
    /// The version cell the batch folds from.
    input: Lenient<Relation>,
    /// The version cell the batch fills: the slot's head while the batch
    /// is the newest.
    output: Lenient<Relation>,
    /// The run, in application order, each op with its per-relation
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

/// Which side of a view's definition a base relation feeds: the single
/// base of a select/aggregate view, or one side of a join view (the side
/// decides which delta-derivation rule a transition run goes through).
#[derive(Clone, Copy, PartialEq, Eq)]
enum DepRole {
    /// The only base of a select or grouped-aggregate view.
    Base,
    /// The left (driving) side of a join view.
    JoinLeft,
    /// The right (probed) side of a join view.
    JoinRight,
}

/// A registration on a base relation's slot: every claimed run committed
/// against the slot forwards its per-key transitions to `view` — the
/// differential maintenance pass. Runs whose sequence numbers lie below
/// `from_seq` were already folded into the view's initial materialization
/// (their batch was sealed when the view registered) and are skipped.
#[derive(Clone)]
struct Dependent {
    view: Arc<ViewHandle>,
    role: DepRole,
    from_seq: u64,
}

/// A materialized view's contents plus the cached last-committed values of
/// its base relations. The caches are what makes join maintenance safe
/// under concurrency: a left-side delta probes the *right base as of its
/// last propagated commit* (and vice versa), both read and replaced under
/// the one `inner` lock, so interleaved left/right commits converge to the
/// join of the final bases regardless of propagation order.
struct ViewState {
    /// The view's current contents — a full [`Relation`].
    current: Relation,
    /// The single base (select/aggregate) or join-left base, as of the
    /// last commit propagated from it.
    left: Relation,
    /// The join-right base likewise; mirrors `left` for one-base views.
    right: Relation,
}

/// One materialized view: its definition, schema, and state. `inner` is
/// `None` between the view's registration on its base slots and the end of
/// its initial materialization (which runs on the creating client's
/// thread); a propagation arriving in that window blocks on `init_cv` —
/// never the other way round, since materialization waits only on base
/// head cells, which fill independently.
struct ViewHandle {
    name: RelationName,
    def: ViewDef,
    schema: Option<Schema>,
    inner: Mutex<Option<ViewState>>,
    init_cv: Condvar,
}

impl ViewHandle {
    /// Runs `f` on the view's state under its lock, blocking until the
    /// initial materialization has filled it.
    fn with_state<T>(&self, f: impl FnOnce(&mut ViewState) -> T) -> T {
        let mut guard = self.inner.lock();
        while guard.is_none() {
            self.init_cv.wait(&mut guard);
        }
        f(guard.as_mut().expect("waited for init above"))
    }

    /// Advances the view by one base commit's transition runs (see
    /// [`advance_view`]) — O(touched · log n), never a rescan, except for
    /// a self-join, which is re-evaluated.
    fn apply_delta(
        &self,
        role: DepRole,
        base: &RelationName,
        runs: &[KeyTransition],
        base_after: &Relation,
        stats: &EngineStats,
    ) {
        self.with_state(|st| {
            let other = match role {
                DepRole::JoinLeft => Some(&st.right),
                DepRole::JoinRight => Some(&st.left),
                DepRole::Base => None,
            };
            st.current = advance_view(&self.def, base, &st.current, runs, base_after, other);
            match role {
                DepRole::Base | DepRole::JoinLeft => st.left = base_after.clone(),
                DepRole::JoinRight => st.right = base_after.clone(),
            }
            EngineStats::bump(&stats.view_updates);
        })
    }
}

/// Forwards a committed run's transitions — the runs the batch kernel
/// derived and landed, not a second derivation — to every dependent view
/// registered on `slot`. Runs inside the commit, *before* any response or
/// the output cell fills, so an acknowledged base write is already visible
/// in its views — which is what lets a view read prove freshness by
/// waiting on base head cells alone.
fn propagate_to_views(
    slot: &RelationSlot,
    next: &Relation,
    first_seq: u64,
    runs: &[KeyTransition],
    stats: &EngineStats,
) {
    // Snapshot the registration list, then apply outside its lock: a
    // propagation may block briefly on a view's initial materialization,
    // and that wait must not hold up concurrent view creation.
    let deps: Vec<Dependent> = slot.dependents.lock().clone();
    for dep in &deps {
        if first_seq < dep.from_seq {
            // This run was sealed when the view registered: its effects
            // are part of the initial materialization already.
            continue;
        }
        dep.view
            .apply_delta(dep.role, &slot.name, runs, next, stats);
    }
}

/// What a slot's lock-free frontier publishes: the newest *ready*
/// relation value, stamped with how many submitted writes it folds in.
struct FrontierEntry {
    /// Sequence numbers `0..covers` are folded into `value` (burned
    /// numbers from failed commits included).
    covers: u64,
    /// The ready relation value.
    value: Relation,
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
fn publish_frontier(frontier: &AtomicArc<FrontierEntry>, covers: u64, value: &Relation) {
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

/// Commits a claimed run through the sink (if any), then applies it and
/// fills every response plus the batch's output cell.
///
/// This is the group-commit point: one `commit_writes` call — hence one
/// fsync in a durable sink — covers the whole run, and responses are
/// filled only afterwards, so an answered write is a durable write. On
/// commit failure every transaction is answered with an error and the
/// output version is the *unchanged* input: the run's sequence numbers are
/// burned. The sink contract makes this safe: a failing `commit_writes`
/// leaves none of the run's records in the log's valid prefix and either
/// repairs its tail or refuses all later commits (see `Wal::append_batch`),
/// so recovery still sees a clean prefix of acknowledged history.
fn commit_and_apply(
    sink: Option<&Arc<dyn CommitSink>>,
    first: &Relation,
    claimed: Vec<(u64, Query, Lenient<Response>)>,
    output: &Lenient<Relation>,
    slot: &RelationSlot,
    stats: &EngineStats,
) {
    let frontier = &slot.frontier;
    // Sampled once per run: registration happens under the slot's state
    // lock before any post-registration batch can open, so a run that
    // must propagate always sees the flag.
    let wants_views = slot.has_dependents.load(Ordering::Acquire);
    EngineStats::bump(&stats.batches_claimed);
    EngineStats::add(&stats.ops_claimed, claimed.len() as u64);
    // The run's sequence numbers end here; the frontier entry published
    // below covers them all (burned on failure, folded on success). The
    // publish happens *before* the output cell fills: a successor batch
    // starts applying only once this output is filled, so batch
    // publications are ordered along each slot's version chain and
    // `publish_frontier`'s monotonic guard only ever resolves races with
    // readers repairing the frontier from a newer head.
    let first_seq = claimed.first().map(|(s, _, _)| *s).expect("nonempty run");
    let covers = claimed.last().map(|(s, _, _)| s + 1).expect("nonempty run");
    if let Some(sink) = sink {
        let records: Vec<(u64, Query)> = claimed.iter().map(|(s, q, _)| (*s, q.clone())).collect();
        if let Err(e) = sink.commit_writes(&slot.name, &records) {
            publish_frontier(frontier, covers, first);
            for (_, _, resp_cell) in claimed {
                resp_cell.fill(commit_failed(&e)).ok();
            }
            output.fill(first.clone()).ok();
            return;
        }
    }
    // Index DDL always runs alone and changes no rows: it is no batch.
    let ops: Option<Vec<BatchOp>> = claimed.iter().map(|(_, q, _)| exec::batch_op(q)).collect();
    let Some(ops) = ops else {
        let Ok([(_, q, resp_cell)]) = <[_; 1]>::try_from(claimed) else {
            unreachable!("only data writes coalesce; index DDL runs alone")
        };
        let (next, resp) = exec::write(first, q);
        publish_frontier(frontier, covers, &next);
        resp_cell.fill(resp).ok();
        output.fill(next).ok();
        return;
    };
    // Apply the whole run as one commit: the batch kernel derives the
    // per-key transitions once (grouped stably — submission order within a
    // key is preserved, so the result equals applying the ops one at a
    // time in submission order), lands them copying each touched node
    // once, and hands the same runs on to the views.
    let (next, outcomes, _, runs) = first.apply_batch_with_runs(&ops);
    if wants_views {
        propagate_to_views(slot, &next, first_seq, &runs, stats);
    }
    publish_frontier(frontier, covers, &next);
    for ((_, q, resp_cell), outcome) in claimed.into_iter().zip(outcomes) {
        resp_cell.fill(exec::batch_response(q, outcome)).ok();
    }
    output.fill(next).ok();
}

/// Claims and applies a sealed batch *if* its input version is already
/// available, filling the batch's output cell and every transaction's
/// response. Returns `false` without blocking otherwise.
///
/// This is demand-driven evaluation of a pending version: a reader that
/// pinned the batch's output forces the suspension on its own thread
/// instead of waiting for a pool worker to be scheduled. Claiming is
/// exactly-once — whoever `mem::take`s the non-empty op list owns the
/// fill; the pool job that finds the list empty simply returns.
fn force(
    batch: &Mutex<BatchOps>,
    slot: &RelationSlot,
    sink: Option<&Arc<dyn CommitSink>>,
    stats: &EngineStats,
) -> bool {
    let (current, ops, output) = {
        let mut guard = batch.lock();
        let Some(rel) = guard.input.try_map(Relation::clone) else {
            return false;
        };
        if guard.ops.is_empty() {
            // Already claimed (the pool job got there first); its owner
            // fills the output.
            return false;
        }
        guard.sealed = true;
        (rel, std::mem::take(&mut guard.ops), guard.output.clone())
    };
    commit_and_apply(sink, &current, ops, &output, slot, stats);
    true
}

/// The body of a batch's pool job: wait for the input version, claim and
/// apply the run (or, if a forcing reader claimed it first, wait for the
/// reader's fill), then drain any chained successors.
fn run_batch_job(
    slot: &Arc<RelationSlot>,
    batch: &Arc<Mutex<BatchOps>>,
    sink: Option<&Arc<dyn CommitSink>>,
    stats: &Arc<EngineStats>,
) {
    let (input, output) = {
        let guard = batch.lock();
        (guard.input.clone(), guard.output.clone())
    };
    // Wait for the input *before* claiming the run: every write submitted
    // while the predecessor version was still being computed coalesces
    // into this claim. In a durable engine the previous batch's fsync
    // happens in that window, so commit latency grows batches instead of
    // stalling submitters.
    let first = input.wait();
    let claimed = {
        let mut guard = batch.lock();
        if !guard.sealed {
            guard.sealed = true;
            EngineStats::bump(&stats.seals_by_worker);
        }
        std::mem::take(&mut guard.ops)
    };
    if claimed.is_empty() {
        // A reader forced this batch; the claimer fills the output and
        // every response. Wait for the fill (the reader is a live client
        // thread mid-`force`, not a queued job, so this cannot stall the
        // FIFO queue) — the chain drain below must start from a filled
        // head.
        output.wait();
    } else {
        commit_and_apply(sink, first, claimed, &output, slot.as_ref(), stats);
    }
    drain_chain(slot, sink, stats);
}

/// Claims and applies chained batches — successors opened while this
/// worker's run was still computing, which got no pool job of their own —
/// until the slot quiesces or another runner takes over.
///
/// After `MAX_DRAIN` batches the rest of the drain is re-enqueued at the
/// pool's tail, so one relation's write storm cannot monopolize a narrow
/// pool. Liveness: a chained batch is only ever created while its
/// predecessor's runner is active (the open happens under the slot lock,
/// and so does this probe), so every chained batch is eventually claimed
/// here or promoted by a sealing reader.
fn drain_chain(
    slot: &Arc<RelationSlot>,
    sink: Option<&Arc<dyn CommitSink>>,
    stats: &Arc<EngineStats>,
) {
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
        let first = input.try_map(Relation::clone).expect("probed filled above");
        commit_and_apply(sink, &first, claimed, &output, slot.as_ref(), stats);
        drained += 1;
        if drained >= MAX_DRAIN {
            let slot = Arc::clone(slot);
            let sink = sink.cloned();
            let stats = Arc::clone(stats);
            if spawn_on_current_pool(move || {
                drain_chain(&slot, sink.as_ref(), &stats);
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
/// when a version is genuinely deferred (an open batch's output) or when a
/// consumer needs a shareable handle (a batch input, a join pin), at which
/// point [`share`](Head::share) converts the inline value into a ready
/// cell *once* and keeps it, so repeated shares don't re-allocate.
enum Head {
    /// Settled, held inline; replaced by the next bypass write.
    Ready(Relation),
    /// Deferred or shared: the usual lenient cell.
    Cell(Lenient<Relation>),
}

impl Head {
    /// The value, if settled — without blocking.
    fn try_get(&self) -> Option<&Relation> {
        match self {
            Head::Ready(rel) => Some(rel),
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
    /// demand. `Relation` clones are a handful of `Arc` bumps.
    fn share(&mut self) -> Lenient<Relation> {
        match self {
            Head::Cell(cell) => cell.clone(),
            Head::Ready(rel) => {
                let cell = Lenient::ready(rel.clone());
                *self = Head::Cell(cell.clone());
                cell
            }
        }
    }
}

/// Per-relation mutable state: one shard of the frontier.
struct SlotState {
    /// The newest version (the open batch's output while one exists).
    head: Head,
    /// The batch currently accepting writes, if any.
    open: Option<Arc<Mutex<BatchOps>>>,
    /// The next write sequence number: how many writes (including failed
    /// commits, whose numbers are burned) have been submitted against this
    /// relation. Checkpoints record this as their replay mark.
    next_seq: u64,
    /// Recent read/write interleaving; decides bypass vs coalesce.
    tracker: TrafficTracker,
}

/// One relation's slot: static name and schema plus the locked frontier
/// shard and the lock-free read-side publications.
struct RelationSlot {
    name: RelationName,
    schema: Option<Schema>,
    state: Mutex<SlotState>,
    /// The newest *ready* version, readable without the slot lock.
    frontier: AtomicArc<FrontierEntry>,
    /// Mirror of `next_seq`, stored (Release) at every submission while
    /// the slot lock is held; the lock-free read path compares it against
    /// the frontier's `covers` to prove no submitted write is missing.
    submitted: AtomicU64,
    /// Read traffic flag, set (Relaxed) by every read — including frontier
    /// hits, which never take the slot lock; writers sample-and-clear it
    /// into the slot's [`TrafficTracker`]. A flag instead of a counter
    /// keeps the read side to a plain store (no RMW); a mark lost to the
    /// load/clear race only nudges the regime heuristic, never correctness.
    read_seen: AtomicBool,
    /// Materialized views registered on this relation: every claimed run
    /// forwards its transitions to each of them. A leaf lock — taken under
    /// the slot's state lock during registration, and alone during
    /// propagation — so it cannot participate in a lock cycle.
    dependents: Mutex<Vec<Dependent>>,
    /// Mirror of `!dependents.is_empty()`, so the common no-views commit
    /// path pays one relaxed load instead of a lock. Also disables the
    /// bypass regime: bypass writes skip [`commit_and_apply`], which is
    /// where propagation lives.
    has_dependents: AtomicBool,
}

impl RelationSlot {
    /// A slot whose frontier starts at `value`, covering `start_seq`
    /// already-accounted writes (nonzero after recovery).
    fn new(name: RelationName, schema: Option<Schema>, value: Relation, start_seq: u64) -> Self {
        RelationSlot {
            name,
            schema,
            frontier: AtomicArc::new(Arc::new(FrontierEntry {
                covers: start_seq,
                value: value.clone(),
            })),
            submitted: AtomicU64::new(start_seq),
            read_seen: AtomicBool::new(false),
            dependents: Mutex::new(Vec::new()),
            has_dependents: AtomicBool::new(false),
            state: Mutex::new(SlotState {
                head: Head::Ready(value),
                open: None,
                next_seq: start_seq,
                tracker: TrafficTracker::new(),
            }),
        }
    }

    /// Registers `view` on this slot, the `i`-th of its bases: every run
    /// numbered `from_seq` or later propagates to it. Called under the
    /// slot's state lock (or before the engine is shared), so `from_seq`
    /// draws a sharp line through the slot's history.
    fn register(&self, view: &Arc<ViewHandle>, i: usize, from_seq: u64) {
        let role = match (&view.def, i) {
            (ViewDef::Join { .. }, 0) => DepRole::JoinLeft,
            (ViewDef::Join { .. }, _) => DepRole::JoinRight,
            _ => DepRole::Base,
        };
        self.dependents.lock().push(Dependent {
            view: Arc::clone(view),
            role,
            from_seq,
        });
        self.has_dependents.store(true, Ordering::Release);
    }
}

/// The catalog: relation name resolution and creation order. Only
/// `create relation` takes this exclusively; data operations resolve
/// through the per-thread slot cache and read it only on a cache miss.
struct Catalog {
    slots: HashMap<RelationName, Arc<RelationSlot>, BuildFnv>,
    /// Materialized views by name. Views have no slot — they are never
    /// written directly; their contents live in the [`ViewHandle`] and
    /// advance only through base-commit propagation.
    views: HashMap<RelationName, Arc<ViewHandle>, BuildFnv>,
    /// Creation order (relations and views), so a barrier can rebuild a
    /// `Database` with stable spine positions.
    order: Vec<RelationName>,
    /// Names claimed by an in-flight `create` whose durable commit is
    /// still running outside the lock: they collide like existing
    /// relations but are not yet visible.
    reserved: HashSet<RelationName>,
}

impl Catalog {
    /// Every view with its definition, in creation order — the order the
    /// sequential model's database lists them in, so a substitution probe
    /// picks the same view here as there.
    fn view_defs(&self) -> impl Iterator<Item = (&RelationName, &ViewDef)> {
        self.order
            .iter()
            .filter_map(|n| self.views.get(n).map(|v| (&v.name, &v.def)))
    }
}

/// An atomic cut of the engine's frontier: a database value plus, for each
/// relation, the number of writes the cut folds in (its replay mark).
///
/// Produced by [`PipelinedEngine::consistent_cut`]. A checkpoint of the
/// `database` paired with the `seq_marks` is exactly enough for recovery:
/// replay the log, skipping each relation's records below its mark.
#[derive(Debug, Clone)]
pub struct ConsistentCut {
    /// The cut's database value — the engine's actual relation values, so
    /// structure is physically shared with neighbouring cuts.
    pub database: Database,
    /// Per relation, how many writes (sequence numbers `0..mark`) the
    /// database value accounts for.
    pub seq_marks: HashMap<RelationName, u64>,
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
    sink: Option<Arc<dyn CommitSink>>,
    /// Hot-path event counters (relaxed atomics; see [`EngineStats`]).
    stats: Arc<EngineStats>,
    /// `true` once any view exists — gates the per-select/join view
    /// substitution probe so engines without views pay nothing for it.
    views_exist: AtomicBool,
    /// Identity for the per-thread slot cache (see [`Self::slot`]).
    id: u64,
}

/// Monotonic engine identities, so the per-thread slot cache can tell two
/// engines' relations apart.
static ENGINE_IDS: AtomicU64 = AtomicU64::new(0);

/// One engine's name → slot memo (keyed by the owning engine's id).
type SlotMemo = (u64, HashMap<RelationName, Arc<RelationSlot>, BuildFnv>);

thread_local! {
    /// One engine's name → slot memo for this thread; reset whenever the
    /// thread submits to a different engine (see [`PipelinedEngine::slot`]).
    static SLOT_CACHE: RefCell<SlotMemo> = RefCell::new((u64::MAX, HashMap::default()));
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

/// Evaluates a single-relation read — or, under `explain`, plans it —
/// against the version pinned for it, recording the access path a select
/// actually ran on. `substituted` marks a view standing in for the
/// relation the statement was written against.
fn evaluate(
    explain: bool,
    substituted: bool,
    rel: &Relation,
    schema: Option<&Schema>,
    query: &Query,
    stats: &EngineStats,
) -> Response {
    if explain {
        return exec::explain_read(rel, schema, query, substituted);
    }
    let (response, path) = exec::read(rel, schema, query);
    if let Some(path) = &path {
        stats.record_path(path);
    }
    response
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
    /// every claimed write batch is committed (one sink call — one fsync —
    /// per batch) before any of its transactions are answered, and every
    /// `create` is committed before it enters the catalog.
    ///
    /// `seq_marks` gives each relation's starting write sequence number —
    /// `0` for a fresh store, or the recovered next-sequence values after a
    /// restart, so that replayed history and new writes never share a
    /// number. Relations absent from the map start at `0`.
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
        let view_defs: HashMap<RelationName, Arc<ViewDef>> = initial.views().into_iter().collect();
        let mut slots: HashMap<RelationName, Arc<RelationSlot>, BuildFnv> = HashMap::default();
        let mut views: HashMap<RelationName, Arc<ViewHandle>, BuildFnv> = HashMap::default();
        for n in &order {
            let rel = initial
                .relation(n)
                .expect("name from this database")
                .clone();
            let schema = initial.schema(n).expect("name from this database").cloned();
            match view_defs.get(n) {
                None => {
                    slots.insert(
                        n.clone(),
                        Arc::new(RelationSlot::new(
                            n.clone(),
                            schema,
                            rel,
                            seq_marks.get(n).copied().unwrap_or(0),
                        )),
                    );
                }
                Some(def) => {
                    // A recovered view: contents come in with the initial
                    // database (rebuilt from its bases by recovery); the
                    // base caches are those bases' initial values.
                    let bases = def.bases();
                    let left = initial
                        .relation(bases[0])
                        .expect("view bases precede the view")
                        .clone();
                    let right = bases
                        .get(1)
                        .map(|b| {
                            initial
                                .relation(b)
                                .expect("view bases precede the view")
                                .clone()
                        })
                        .unwrap_or_else(|| left.clone());
                    views.insert(
                        n.clone(),
                        Arc::new(ViewHandle {
                            name: n.clone(),
                            def: def.as_ref().clone(),
                            schema,
                            inner: Mutex::new(Some(ViewState {
                                current: rel,
                                left,
                                right,
                            })),
                            init_cv: Condvar::new(),
                        }),
                    );
                }
            }
        }
        for handle in views.values() {
            for (i, base) in handle.def.bases().into_iter().enumerate() {
                let slot = slots.get(base).expect("view bases exist as relations");
                slot.register(handle, i, slot.state.lock().next_seq);
            }
        }
        let views_exist = !views.is_empty();
        PipelinedEngine {
            pool: WorkerPool::new(workers),
            catalog: RwLock::new(Catalog {
                slots,
                views,
                order,
                reserved: HashSet::new(),
            }),
            sink,
            stats: Arc::new(EngineStats::default()),
            views_exist: AtomicBool::new(views_exist),
            id: ENGINE_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A snapshot of the engine's hot-path counters.
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
    }

    /// Resolves a relation name to its slot through a per-thread cache, so
    /// the data hot paths skip both the catalog `RwLock` and a SipHash
    /// probe on every hit.
    ///
    /// Sound because a name's binding is immutable: relations are only
    /// ever *added* to the catalog, never dropped or rebound, so a cached
    /// `Arc` can never point at the wrong slot. Misses are not cached (a
    /// later `create` must become visible), and the cache belongs to one
    /// engine at a time — a thread that submits to a different engine
    /// resets it wholesale.
    fn slot(&self, name: &RelationName) -> Option<Arc<RelationSlot>> {
        SLOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let (owner, map) = &mut *cache;
            if *owner != self.id {
                *owner = self.id;
                map.clear();
            }
            if let Some(slot) = map.get(name) {
                return Some(Arc::clone(slot));
            }
            let slot = Arc::clone(self.catalog.read().slots.get(name)?);
            map.insert(name.clone(), Arc::clone(&slot));
            Some(slot)
        })
    }

    /// Resolves a name to its materialized-view handle, if it names one.
    fn view(&self, name: &RelationName) -> Option<Arc<ViewHandle>> {
        if !self.views_exist.load(Ordering::Acquire) {
            return None;
        }
        self.catalog.read().views.get(name).cloned()
    }

    /// What `name` resolves to in the catalog, for `exec`'s resolution
    /// steps (slots carry their static schema).
    fn entry(&self, name: &RelationName) -> Entry {
        match self.slot(name) {
            Some(slot) => Entry::Base(slot.schema.clone()),
            None if self.view(name).is_some() => Entry::View,
            None => Entry::Missing,
        }
    }

    /// The view that materializes exactly `select from relation [where
    /// predicate]`, if any.
    fn select_view(
        &self,
        relation: &RelationName,
        predicate: &Option<Predicate>,
    ) -> Option<Arc<ViewHandle>> {
        if !self.views_exist.load(Ordering::Acquire) {
            return None;
        }
        let slot = self.slot(relation)?;
        let catalog = self.catalog.read();
        let name = exec::matching_select_view(
            catalog.view_defs(),
            relation,
            predicate,
            slot.schema.as_ref(),
        )?;
        catalog.views.get(name).cloned()
    }

    /// The view that materializes exactly `join left with right` on the
    /// resolved positions, if any.
    fn join_view(
        &self,
        left: &RelationName,
        right: &RelationName,
        on: Option<(usize, usize)>,
    ) -> Option<Arc<ViewHandle>> {
        if !self.views_exist.load(Ordering::Acquire) {
            return None;
        }
        let catalog = self.catalog.read();
        let name = exec::matching_join_view(catalog.view_defs(), left, right, on)?;
        catalog.views.get(name).cloned()
    }

    /// Enqueues the pool job for `batch`. Must be called while the slot's
    /// state lock is held: enqueue order must respect version-capture
    /// order, or a FIFO worker could stall behind a job whose producer
    /// sits after it in the queue.
    fn spawn_batch_job(&self, slot: &Arc<RelationSlot>, batch: &Arc<Mutex<BatchOps>>) {
        let slot = Arc::clone(slot);
        let batch = Arc::clone(batch);
        let sink = self.sink.clone();
        let stats = Arc::clone(&self.stats);
        self.pool
            .spawn(move || run_batch_job(&slot, &batch, sink.as_ref(), &stats));
    }

    /// Seals the open batch (if any): no further writes may coalesce into
    /// it, so the slot's head cell is the fold of exactly the writes
    /// submitted so far. A *chained* batch (one with no pool job) is
    /// promoted here — its job is spawned under the slot lock — because
    /// the sealer is about to queue work that waits on the batch's
    /// output, and the FIFO deadlock-freedom argument needs the producer
    /// job enqueued first.
    fn seal_and_promote(
        &self,
        slot: &Arc<RelationSlot>,
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

    /// Pins the current versions of several relations as one atomic cut:
    /// every slot lock is held at once — acquired in name order, so
    /// concurrent multi-relation pins cannot form a lock cycle — while
    /// each open batch is sealed and each head shared, so the pinned
    /// versions are a consistent prefix of every relation's history.
    /// `under_lock` sees each slot's state (by position in `slots`) while
    /// all the locks are still held. `slots` must be distinct.
    fn pin_many(
        &self,
        slots: &[Arc<RelationSlot>],
        mut under_lock: impl FnMut(usize, &SlotState),
    ) -> Vec<Lenient<Relation>> {
        let mut by_name: Vec<usize> = (0..slots.len()).collect();
        by_name.sort_by(|&a, &b| slots[a].name.as_str().cmp(slots[b].name.as_str()));
        let mut guards: Vec<Option<MutexGuard<'_, SlotState>>> =
            slots.iter().map(|_| None).collect();
        for &i in &by_name {
            guards[i] = Some(slots[i].state.lock());
        }
        let mut heads = Vec::with_capacity(slots.len());
        for (i, (slot, guard)) in slots.iter().zip(guards.iter_mut()).enumerate() {
            let state = guard.as_mut().expect("guard acquired above");
            self.seal_and_promote(slot, state);
            heads.push(state.head.share());
            under_lock(i, state);
        }
        heads
    }

    /// Submits a read answered from a materialized view's contents.
    ///
    /// Freshness protocol: seal and pin every base's head as one cut.
    /// Once those heads fill, every base write submitted before this read
    /// has committed, and commits propagate to dependent views *before*
    /// filling their output cells — so by then the view covers at least
    /// this read's prefix. (It may additionally include concurrently
    /// submitted writes; an equivalent serial order simply places them
    /// before the read.) Fast path: if every base's published frontier
    /// covers all its submitted writes, that proof has already happened
    /// and the read answers inline.
    fn submit_view_read(
        &self,
        view: Arc<ViewHandle>,
        query: Query,
        explain: bool,
        substituted: bool,
    ) -> Lenient<Response> {
        let bases: Vec<Arc<RelationSlot>> = view
            .def
            .bases()
            .into_iter()
            .filter_map(|b| self.slot(b))
            .collect();
        for slot in &bases {
            slot.read_seen.store(true, Ordering::Relaxed);
        }
        let quiescent = bases.iter().all(|slot| {
            slot.frontier
                .with(|e| e.covers == slot.submitted.load(Ordering::Acquire))
        });
        if quiescent {
            EngineStats::bump(&self.stats.frontier_hits);
            let schema = view.schema.as_ref();
            return Lenient::ready(view.with_state(|st| {
                evaluate(
                    explain,
                    substituted,
                    &st.current,
                    schema,
                    &query,
                    &self.stats,
                )
            }));
        }
        EngineStats::bump(&self.stats.frontier_misses);
        let heads = self.pin_many(&bases, |_, _| {});
        let response = Lenient::new();
        let out = response.clone();
        let stats = Arc::clone(&self.stats);
        self.pool.spawn(move || {
            for h in &heads {
                h.wait();
            }
            let rel = view.with_state(|st| st.current.clone());
            let answer = evaluate(
                explain,
                substituted,
                &rel,
                view.schema.as_ref(),
                &query,
                &stats,
            );
            response.fill(answer).ok();
        });
        out
    }

    /// Submits a single-relation read (`find`, `find … to …`, `select`,
    /// `count`, aggregate) or, under `explain`, its plan: planning pins a
    /// version exactly as the read would, so estimates come from the same
    /// relation value the read would have run against.
    fn submit_read(&self, query: Query, explain: bool) -> Lenient<Response> {
        // View substitution: a select whose shape matches a view's
        // definition is answered from the view instead of its base — and
        // shows up as such in its plan.
        if let Query::Select {
            relation,
            projection,
            predicate,
        } = &query
        {
            if let Some(view) = self.select_view(relation, predicate) {
                if !explain {
                    EngineStats::bump(&self.stats.view_substitutions);
                }
                let scan = exec::view_scan(&view.name, projection.clone());
                return self.submit_view_read(view, scan, explain, true);
            }
        }
        let relation = query.relation().expect("single-relation read");
        let Some(slot) = self.slot(relation) else {
            return match self.view(relation) {
                Some(view) => self.submit_view_read(view, query, explain, false),
                None => refused(exec::no_such_relation(relation)),
            };
        };
        let schema = slot.schema.as_ref();
        let fast = !explain && query.is_point_read();
        // Every read marks the slot's traffic tracker, so writers
        // learn their bursts are being interrupted.
        slot.read_seen.store(true, Ordering::Relaxed);
        // Lock-free fast path: if the published frontier entry
        // covers every submitted write, it *is* the version this
        // read must observe (submission order positions the read
        // after exactly those writes), and cheap queries answer
        // from it without the slot mutex, a seal, or a job.
        // `submitted` is stored before any write's response fills,
        // so a client that saw a write acknowledged cannot hit a
        // frontier that misses it.
        if fast {
            // Borrow-only probe: answer while registered on the
            // publication side, skipping the `Arc` clone a `load`
            // would pay.
            let hit = slot.frontier.with(|entry| {
                (entry.covers == slot.submitted.load(Ordering::Acquire))
                    .then(|| exec::read(&entry.value, schema, &query).0)
            });
            if let Some(resp) = hit {
                EngineStats::bump(&self.stats.frontier_hits);
                return Lenient::ready(resp);
            }
            EngineStats::bump(&self.stats.frontier_misses);
        }
        let (input, sealed_batch) = {
            let mut state = slot.state.lock();
            // Second chance under the lock: a filled head already
            // reflects every write submitted so far (an unsealed
            // open batch's output *is* the head and would still be
            // pending), so a cheap query that missed the frontier
            // can still answer inline — and it *repairs* the
            // frontier while it is here. Publication is
            // demand-driven: writers never pay for readers that
            // may not come; the first read after a write run
            // publishes once and every read until the next write
            // takes the lock-free path.
            if fast {
                if let Some(rel) = state.head.try_get() {
                    let resp = exec::read(rel, schema, &query).0;
                    publish_frontier(&slot.frontier, state.next_seq, rel);
                    return Lenient::ready(resp);
                }
            }
            let batch = self.seal_and_promote(&slot, &mut state);
            (state.head.share(), batch)
        };

        // The pinned version is still pending. If its own input has
        // arrived, force the sealed batch here (demand-driven
        // evaluation) rather than waiting on a worker to be
        // scheduled.
        if fast {
            if let Some(batch) = &sealed_batch {
                if force(batch, &slot, self.sink.as_ref(), &self.stats) {
                    if let Some(resp) = input.try_map(|rel| exec::read(rel, schema, &query).0) {
                        return Lenient::ready(resp);
                    }
                }
            }
        }

        let response = Lenient::new();
        let out = response.clone();
        let stats = Arc::clone(&self.stats);
        self.pool.spawn(move || {
            let rel = input.wait();
            let answer = evaluate(explain, false, rel, slot.schema.as_ref(), &query, &stats);
            response.fill(answer).ok();
        });
        out
    }

    /// Submits a join or, under `explain`, its plan.
    fn submit_join(
        &self,
        left: &RelationName,
        right: &RelationName,
        on: &Option<(FieldRef, FieldRef)>,
        explain: bool,
    ) -> Lenient<Response> {
        // Operands and join attributes resolve against the static schemas
        // at submission — refusals answer before any version is pinned,
        // like every other schema failure.
        let on = match exec::resolve_join(left, right, on, |n| self.entry(n)) {
            Ok(on) => on,
            Err(e) => return refused(e),
        };
        // View substitution: a join a view materializes is answered
        // by scanning the view instead of probing either base.
        if let Some(view) = self.join_view(left, right, on) {
            if !explain {
                EngineStats::bump(&self.stats.view_substitutions);
            }
            let scan = exec::view_scan(&view.name, None);
            return self.submit_view_read(view, scan, explain, true);
        }
        let mut slots: Vec<Arc<RelationSlot>> = Vec::with_capacity(2);
        for name in [left, right] {
            if slots.first().is_none_or(|s| s.name != *name) {
                slots.push(self.slot(name).expect("resolved as a base above"));
            }
        }
        for slot in &slots {
            slot.read_seen.store(true, Ordering::Relaxed);
        }
        let heads = self.pin_many(&slots, |_, _| {});
        let response = Lenient::new();
        let out = response.clone();
        let stats = Arc::clone(&self.stats);
        self.pool.spawn(move || {
            // Intra-transaction flooding: both sides' availability
            // is awaited, but each was produced independently.
            let left_rel = heads[0].wait();
            let right_rel = heads[heads.len() - 1].wait();
            let answer = if explain {
                exec::explain_join(left_rel, right_rel, on)
            } else {
                let (answer, strategy) = exec::join(left_rel, right_rel, on);
                stats.record_join(&strategy);
                answer
            };
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
            if catalog.slots.contains_key(name)
                || catalog.views.contains_key(name)
                || !catalog.reserved.insert(name.clone())
            {
                return Err(Response::Error(exec::relation_exists(name)));
            }
        }
        if let Some(sink) = &self.sink {
            if let Err(e) = sink.commit_create(query) {
                self.catalog.write().reserved.remove(name);
                return Err(commit_failed(&e));
            }
        }
        Ok(())
    }

    /// `create view`: register on the bases, then materialize once.
    fn submit_create_view(
        &self,
        query: &Query,
        name: &RelationName,
        def: ViewDef,
    ) -> Lenient<Response> {
        let base_slots: Vec<Arc<RelationSlot>> = def
            .bases()
            .into_iter()
            .map(|b| self.slot(b).expect("resolved as a base"))
            .collect();
        let schema = match &def {
            ViewDef::Select { .. } => base_slots[0].schema.clone(),
            _ => None,
        };
        if let Err(refusal) = self.reserve_and_commit(name, query) {
            return Lenient::ready(refusal);
        }
        let handle = Arc::new(ViewHandle {
            name: name.clone(),
            def,
            schema,
            inner: Mutex::new(None),
            init_cv: Condvar::new(),
        });

        // Register on every base under all their slot locks at once.
        // Sealing each open batch and recording `next_seq` at the same
        // instant draws a sharp line through each base's history:
        // everything at or below the pinned head folds into the initial
        // materialization, everything after flows through the dependent
        // registration — no commit is lost or double-applied.
        let heads = self.pin_many(&base_slots, |i, state| {
            base_slots[i].register(&handle, i, state.next_seq);
        });

        {
            let mut catalog = self.catalog.write();
            catalog.reserved.remove(name);
            catalog.views.insert(name.clone(), Arc::clone(&handle));
            catalog.order.push(name.clone());
        }
        self.views_exist.store(true, Ordering::Release);

        // Initial materialization on this client's thread: wait for
        // the pinned base heads, evaluate the definition once, fill
        // `inner`. A propagation from a commit past the pinned
        // prefix blocks on `init_cv` until the fill — never the
        // other way round, since head cells fill independently.
        let left = heads[0].wait_cloned();
        let right = heads.get(1).map(Lenient::wait_cloned);
        let current = materialize_view(&handle.def, &left, right.as_ref());
        let rows = current.len();
        {
            let mut guard = handle.inner.lock();
            let right = right.unwrap_or_else(|| left.clone());
            *guard = Some(ViewState {
                current,
                left,
                right,
            });
        }
        handle.init_cv.notify_all();
        Lenient::ready(Response::ViewCreated {
            name: name.clone(),
            rows,
        })
    }

    /// Stamps one write submission on a locked slot: its sequence number,
    /// the mirror the lock-free read path compares against, and the
    /// traffic tracker's read-interleaving sample.
    fn stamp_write(slot: &RelationSlot, state: &mut SlotState) -> u64 {
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

    /// Opens a batch holding `query` as the slot's new head. With
    /// `has_job` its pool job is spawned here, still under the slot lock:
    /// enqueue order must respect version order, or a concurrent submitter
    /// could enqueue a job that waits on the new head ahead of this one,
    /// and a FIFO worker would stall behind it forever. Without, the batch
    /// is *chained*: the predecessor's runner claims it.
    fn open_batch(
        &self,
        slot: &Arc<RelationSlot>,
        state: &mut SlotState,
        seq: u64,
        query: Query,
        sealed: bool,
        has_job: bool,
    ) -> Lenient<Response> {
        let output = Lenient::new();
        let response = Lenient::new();
        let batch = Arc::new(Mutex::new(BatchOps {
            input: state.head.share(),
            output: output.clone(),
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

    /// Submits a data write: coalesce, bypass or open a batch.
    fn submit_write(&self, slot: &Arc<RelationSlot>, query: Query) -> Lenient<Response> {
        let mut state = slot.state.lock();
        let seq = Self::stamp_write(slot, &mut state);

        // Coalesce: join the open batch if it is still accepting.
        if let Some(batch) = &state.open {
            let mut ops = batch.lock();
            if !ops.sealed {
                let response = Lenient::new();
                let out = response.clone();
                ops.ops.push((seq, query, response));
                EngineStats::bump(&self.stats.coalesced_writes);
                return out;
            }
            // Sealed mid-flight by its worker: open a successor.
        }

        // Adaptive regime decision. Queue pressure (a pending head:
        // the predecessor version is still being computed) always
        // coalesces — piling writes into a batch behind the pending
        // version is exactly where batching wins. A quiescent slot
        // with read-interleaved history bypasses instead.
        let pressure = !state.head.is_filled();
        // Bypass is off for relations feeding views: propagation
        // lives in `commit_and_apply`, which bypass skips.
        if state.tracker.regime(pressure) == BatchRegime::Bypass
            && !slot.has_dependents.load(Ordering::Acquire)
        {
            // Bypass: apply inline under the slot lock. No cell, no
            // batch, no pool job, no worker handoff — mixed workloads
            // pay one lock and one structural update per write, while
            // keeping the engine-wide submission-order serialization.
            EngineStats::bump(&self.stats.bypass_writes);
            state.open = None;
            if let Some(sink) = &self.sink {
                if let Err(e) = sink.commit_writes(&slot.name, &[(seq, query.clone())]) {
                    // The sequence number is burned: the head keeps
                    // the unchanged value, which covers it.
                    return Lenient::ready(commit_failed(&e));
                }
            }
            let first = state
                .head
                .try_get()
                .expect("bypass regime requires a filled head");
            let (next, resp) = exec::write(first, query);
            state.head = Head::Ready(next);
            return Lenient::ready(resp);
        }

        // Coalesce: open a new batch for this write and every
        // unsealed write that follows it. Under queue pressure the
        // batch is *chained* — it gets no pool job of its own; the
        // predecessor's runner claims it when that version fills,
        // so a claimed multi-batch run costs one pool job total.
        self.open_batch(slot, &mut state, seq, query, false, !pressure)
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
            | Query::Aggregate { .. } => self.submit_read(query, false),
            Query::Insert { ref relation, .. }
            | Query::Delete { ref relation, .. }
            | Query::Replace { ref relation, .. } => match self.slot(relation) {
                Some(slot) => self.submit_write(&slot, query),
                None if self.view(relation).is_some() => refused(exec::view_is_read_only(relation)),
                None => refused(exec::no_such_relation(relation)),
            },
            Query::Join {
                ref left,
                ref right,
                ref on,
            } => self.submit_join(left, right, on, false),
            Query::Explain(inner) => match *inner {
                Query::Join {
                    ref left,
                    ref right,
                    ref on,
                } => self.submit_join(left, right, on, true),
                read if read.is_explainable() => self.submit_read(read, true),
                ref other => Lenient::ready(exec::explain_unsupported(other)),
            },
            Query::CreateIndex {
                ref relation,
                ref name,
                ref fields,
            } => {
                // Resolve every field against the slot's static schema at
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
                let mut state = slot.state.lock();
                let seq = Self::stamp_write(&slot, &mut state);
                // DDL never coalesces with data writes: seal the open batch
                // and run the create in its own already-sealed single-op
                // batch. The batch kernel folds data writes only, and the
                // sealed run keeps the WAL record at this exact sequence
                // position — logged before visibility, the same rule as
                // `create relation`.
                self.seal_and_promote(&slot, &mut state);
                self.open_batch(&slot, &mut state, seq, resolved, true, true)
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
                let slot =
                    RelationSlot::new(relation.clone(), schema, Relation::empty(repr.to_repr()), 0);
                let mut catalog = self.catalog.write();
                catalog.reserved.remove(relation);
                catalog.slots.insert(relation.clone(), Arc::new(slot));
                catalog.order.push(relation.clone());
                Lenient::ready(Response::Created(relation.clone()))
            }
            Query::CreateView { ref name, ref spec } => {
                // Resolve the spec against the slots' static schemas up
                // front, so rejected specs never reach the log.
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
    /// every relation's current head, plus each relation's write sequence
    /// mark (how many writes the cut folds in).
    ///
    /// All slot locks are held at once (see [`Self::pin_many`]) while
    /// heads are pinned and marks read, so the cut is a consistent prefix
    /// of every relation's history and the marks align exactly with the
    /// contents. The assembled database holds the engine's *actual*
    /// relation values — physical sharing with prior cuts is preserved,
    /// which is what makes checkpointing a cut incremental.
    pub fn consistent_cut(&self) -> ConsistentCut {
        let (slots, views) = {
            let catalog = self.catalog.read();
            let pick = |n: &RelationName| catalog.slots.get(n).map(Arc::clone);
            let slots: Vec<Arc<RelationSlot>> = catalog.order.iter().filter_map(pick).collect();
            let views: Vec<Arc<ViewHandle>> = catalog
                .order
                .iter()
                .filter_map(|n| catalog.views.get(n).map(Arc::clone))
                .collect();
            (slots, views)
        };

        let mut marks = vec![0u64; slots.len()];
        let heads = self.pin_many(&slots, |i, state| marks[i] = state.next_seq);

        let mut db = Database::empty();
        let mut seq_marks = HashMap::new();
        for ((slot, head), mark) in slots.iter().zip(heads).zip(marks) {
            db = db
                .with_relation_value(slot.name.as_str(), head.wait_cloned(), slot.schema.clone())
                .expect("cut names are unique");
            seq_marks.insert(slot.name.clone(), mark);
        }
        // Views ride along with their definitions, then one recompute pins
        // their contents to exactly the cut's base values — a propagation
        // mid-flight when the cut was taken cannot leave the snapshot
        // internally inconsistent. Views carry no sequence marks; recovery
        // re-derives them from their bases.
        if !views.is_empty() {
            for handle in &views {
                let value = handle.with_state(|st| st.current.clone());
                db = db
                    .with_view_value(
                        handle.name.as_str(),
                        value,
                        handle.schema.clone(),
                        handle.def.clone(),
                    )
                    .expect("cut names are unique");
            }
            db = db.recompute_views();
        }
        ConsistentCut {
            database: db,
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
        // Writes after creation flow through the differential pass, not a
        // recompute; every acknowledged base write is already in the view.
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
        assert!(engine.stats().view_updates >= 1);
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
        // A view read is at-least-fresh, not an atomic cut: it may also see
        // writes submitted after it, so each count is awaited before the
        // next write goes in.
        let mut cells = Vec::new();
        for q in [
            "insert (2, 'b') into R", // no right partner yet
            "count RS",
            "insert (2, 'y') into S", // completes the pair
            "count RS",
            "delete 1 from S", // right-side retraction
            "count RS",
        ] {
            let cell = engine.submit(txn(q));
            if q.starts_with("count") {
                cell.wait();
            }
            cells.push(cell);
        }
        let rs: Vec<Response> = cells.iter().map(Lenient::wait_cloned).collect();
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
    fn self_join_view_falls_back_to_recompute() {
        let engine = PipelinedEngine::new(2, &base());
        engine.run(vec![
            txn("insert (1, 1) into R"),
            txn("create view RR as join R with R on #0 = #0"),
        ]);
        let rs = engine.run(vec![txn("insert (2, 2) into R"), txn("count RR")]);
        assert_eq!(rs[1], Response::Count(2));
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

        // …but with a dependent view the gate holds bypass off (bypass
        // skips the commit path that carries propagation) and every count
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
