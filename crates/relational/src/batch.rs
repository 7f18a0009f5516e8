//! Batch application of write operations against a relation.
//!
//! The pipelined engine claims a run of consecutive same-relation writes and
//! commits it as one unit. Applying that run tuple-at-a-time copies the
//! structure's spine once per operation — O(k·log n) node copies for k ops.
//! [`Relation::apply_batch`] instead groups the run per key (stably, so
//! submission order within each key is preserved), folds every key's
//! operations into one final *bucket effect*, and hands the ascending effect
//! run to the backend's one-pass `merge_batch` kernel, copying each touched
//! node once — O(k + touched·log n).
//!
//! The fold is exact, not approximate: each op's individual outcome
//! (inserted / how many tuples a delete removed) is recorded while folding,
//! so the engine can still answer every transaction individually.
//!
//! For large batches on tree representations the per-key folds are
//! independent of one another, so [`Relation::apply_batch_scattered`] offers
//! them to a caller-supplied runner as parallel tasks (the engine passes the
//! lenient pool's `scatter`); the single-pass structural merge itself stays
//! on the calling thread.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fundb_persist::{CopyReport, PList, PagedStore};

use crate::index::KeyTransition;
use crate::relation::{Relation, Store};
use crate::tuple::Tuple;
use crate::value::Value;

/// A single write in a batch, mirroring the engine's write queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Add a tuple.
    Insert(Tuple),
    /// Remove every tuple with this key.
    Delete(Value),
    /// Remove every tuple with the new tuple's key, then add it.
    Replace(Tuple),
}

impl BatchOp {
    /// The key this operation addresses.
    pub fn key(&self) -> &Value {
        match self {
            BatchOp::Insert(t) | BatchOp::Replace(t) => t.key(),
            BatchOp::Delete(k) => k,
        }
    }
}

/// What one [`BatchOp`] did, positionally aligned with the submitted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The op added its tuple (`Insert` and `Replace`).
    Inserted,
    /// The op removed this many tuples (`Delete`).
    Deleted(usize),
}

/// A unit of fold work handed to [`Relation::apply_batch_scattered`]'s
/// runner.
pub type BatchTask = Box<dyn FnOnce() + Send + 'static>;

/// Distinct-key count above which tree representations offer the per-key
/// bucket folds to the runner as parallel tasks. Below this, task setup
/// costs more than the folds.
const SCATTER_MIN_KEYS: usize = 64;

/// How many tasks a scattered fold is split into.
const SCATTER_CHUNKS: usize = 8;

/// Batches at or below this size are applied tuple-at-a-time: the claimed
/// run is too short for the structural merge to amortize its setup
/// (index sort, per-key folds, effect-run and outcome allocations).
///
/// Re-measured once no write path walked its result (µs/op for runs of
/// 1/2/3 ops on scattered keys of a 20 000-row `BTree(16)` relation, best
/// of five, tuple-at-a-time vs merge path): insert 2.1/2.1/2.1 vs
/// 4.0/3.9/3.6, delete 4.1/4.2/4.1 vs 6.6/6.7/6.5, replace 7.2/7.4/8.0 vs
/// 3.9/3.7/3.5; with one index, insert 7.6/6.2/6.0 vs 7.9/7.6/7.2, delete
/// 7.4/7.5/8.5 vs 10.7/10.3/10.0, replace 13.9/13.9/14.3 vs 4.5/4.2/3.8.
/// The merge path loses on inserts and deletes, so the short-run path
/// stays; it wins on `replace` (one descent and no index churn instead of
/// a delete and an insert) at every length.
const SMALL_BATCH_MAX: usize = 3;

/// Tuple-at-a-time application for short runs — identical observable
/// semantics to the merge path (the reference semantics the proptests
/// check the merge path against), minus the batch setup.
fn apply_small_batch(rel: &Relation, ops: &[BatchOp]) -> (Relation, Vec<BatchOutcome>, CopyReport) {
    let mut cur = rel.clone();
    let mut outcomes = Vec::with_capacity(ops.len());
    let (mut copied, mut shared) = (0u64, 0u64);
    for op in ops {
        let report = match op {
            BatchOp::Insert(t) => {
                let (next, r) = cur.insert(t.clone());
                cur = next;
                outcomes.push(BatchOutcome::Inserted);
                r
            }
            BatchOp::Delete(k) => {
                let (next, removed, r) = cur.delete(k);
                cur = next;
                outcomes.push(BatchOutcome::Deleted(removed.len()));
                r
            }
            BatchOp::Replace(t) => {
                let (mid, _, r1) = cur.delete(t.key());
                let (next, r2) = mid.insert(t.clone());
                cur = next;
                outcomes.push(BatchOutcome::Inserted);
                copied += r1.copied;
                shared += r1.shared;
                r2
            }
        };
        copied += report.copied;
        shared += report.shared;
    }
    (cur, outcomes, CopyReport::new(copied, shared))
}

/// Groups op indices by key; `BTreeMap` iteration gives the strictly
/// ascending key order `merge_batch` requires, and the index vectors keep
/// submission order within each key.
fn group_ops(ops: &[BatchOp]) -> BTreeMap<Value, Vec<usize>> {
    let mut grouped: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        grouped.entry(op.key().clone()).or_default().push(i);
    }
    grouped
}

/// Folds one key's ops (in submission order) over its existing bucket,
/// producing the final bucket effect (`None` = key ends up absent), each
/// op's outcome, and the key's net tuple-count change (feeding the
/// relation's cached length).
fn fold_bucket<'a, I>(
    existing: PList<Tuple>,
    ops: I,
) -> (Option<PList<Tuple>>, Vec<(usize, BatchOutcome)>, isize)
where
    I: IntoIterator<Item = (usize, &'a BatchOp)>,
{
    let mut bucket = existing;
    let mut count = bucket.len();
    let before = count;
    let mut outcomes = Vec::new();
    for (i, op) in ops {
        match op {
            BatchOp::Insert(t) => {
                bucket = PList::cons(t.clone(), bucket);
                count += 1;
                outcomes.push((i, BatchOutcome::Inserted));
            }
            BatchOp::Delete(_) => {
                outcomes.push((i, BatchOutcome::Deleted(count)));
                bucket = PList::nil();
                count = 0;
            }
            BatchOp::Replace(t) => {
                bucket = PList::cons(t.clone(), PList::nil());
                count = 1;
                outcomes.push((i, BatchOutcome::Inserted));
            }
        }
    }
    let effect = (count > 0).then_some(bucket);
    (effect, outcomes, count as isize - before as isize)
}

/// The ascending per-key effect run handed to a tree backend's
/// `merge_batch`: `None` means the key ends up absent.
type EffectRun = Vec<(Value, Option<PList<Tuple>>)>;

/// Op indices stably sorted by key: runs of equal keys are contiguous and
/// each run keeps submission order. Cheaper than a key→indices map on the
/// hot path — no key clones, one allocation.
fn sorted_indices(ops: &[BatchOp]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ops.len()).collect();
    idx.sort_by(|&a, &b| ops[a].key().cmp(ops[b].key()));
    idx
}

/// The half-open index ranges of `idx` holding equal keys, in ascending
/// key order.
fn key_runs(ops: &[BatchOp], idx: &[usize]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < idx.len() {
        let key = ops[idx[start]].key();
        let mut end = start + 1;
        while end < idx.len() && ops[idx[end]].key() == key {
            end += 1;
        }
        runs.push((start, end));
        start = end;
    }
    runs
}

/// Computes the ascending effect run and per-op outcomes for a tree-backed
/// relation. Large batches are folded in parallel chunks via `run`; the
/// chunks partition the ascending key sequence, so concatenating their
/// effect runs in chunk order keeps it ascending.
fn tree_effects<T, G>(
    tree: &T,
    get: G,
    ops: &[BatchOp],
    run: &dyn Fn(Vec<BatchTask>),
) -> (EffectRun, Vec<BatchOutcome>, isize)
where
    T: Clone + Send + Sync + 'static,
    G: Fn(&T, &Value) -> PList<Tuple> + Copy + Send + Sync + 'static,
{
    let idx = sorted_indices(ops);
    let runs = key_runs(ops, &idx);
    let mut outcomes: Vec<Option<BatchOutcome>> = vec![None; ops.len()];
    let mut effects = Vec::with_capacity(runs.len());
    let mut delta = 0isize;
    if runs.len() < SCATTER_MIN_KEYS {
        for &(start, end) in &runs {
            let key = ops[idx[start]].key();
            let existing = get(tree, key);
            let (effect, outs, d) =
                fold_bucket(existing, idx[start..end].iter().map(|&i| (i, &ops[i])));
            for (i, o) in outs {
                outcomes[i] = Some(o);
            }
            delta += d;
            effects.push((key.clone(), effect));
        }
    } else {
        type ChunkOut = (EffectRun, Vec<(usize, BatchOutcome)>, isize);
        let entries: Vec<(Value, Vec<(usize, BatchOp)>)> = runs
            .iter()
            .map(|&(start, end)| {
                (
                    ops[idx[start]].key().clone(),
                    idx[start..end]
                        .iter()
                        .map(|&i| (i, ops[i].clone()))
                        .collect(),
                )
            })
            .collect();
        let chunk_size = entries.len().div_ceil(SCATTER_CHUNKS);
        let mut slots: Vec<Arc<Mutex<Option<ChunkOut>>>> = Vec::new();
        let mut tasks: Vec<BatchTask> = Vec::new();
        let mut rest = entries;
        while !rest.is_empty() {
            let tail = rest.split_off(chunk_size.min(rest.len()));
            let chunk = std::mem::replace(&mut rest, tail);
            let slot: Arc<Mutex<Option<ChunkOut>>> = Arc::new(Mutex::new(None));
            slots.push(Arc::clone(&slot));
            let tree = tree.clone();
            tasks.push(Box::new(move || {
                let mut effs = Vec::with_capacity(chunk.len());
                let mut outs = Vec::new();
                let mut d = 0isize;
                for (key, kops) in chunk {
                    let existing = get(&tree, &key);
                    let (effect, mut key_outs, key_d) =
                        fold_bucket(existing, kops.iter().map(|(i, op)| (*i, op)));
                    effs.push((key, effect));
                    outs.append(&mut key_outs);
                    d += key_d;
                }
                *slot.lock().expect("chunk slot lock") = Some((effs, outs, d));
            }));
        }
        run(tasks);
        for slot in slots {
            let (effs, outs, d) = slot
                .lock()
                .expect("chunk slot lock")
                .take()
                .expect("batch fold task must complete before the runner returns");
            effects.extend(effs);
            delta += d;
            for (i, o) in outs {
                outcomes[i] = Some(o);
            }
        }
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every op belongs to exactly one key group"))
        .collect();
    (effects, outcomes, delta)
}

/// The per-key before/after transitions a multi-op batch induces, in the
/// ascending key order secondary-index maintenance requires. Reuses the same
/// stable sort + key-run decomposition as the structural merge, so the index
/// deltas are derived from exactly the per-key folds the kernels commit.
///
/// Public because materialized-view maintenance consumes the same runs: the
/// engine derives each dependent view's delta from the transitions of the
/// base batch it just claimed (see [`crate::view`]).
pub fn batch_transitions(rel: &Relation, ops: &[BatchOp]) -> Vec<KeyTransition> {
    let idx = sorted_indices(ops);
    let runs = key_runs(ops, &idx);
    let mut out = Vec::with_capacity(runs.len());
    for &(start, end) in &runs {
        let key = ops[idx[start]].key();
        let before = rel.store.key_group(key);
        let mut after = before.clone();
        for &i in &idx[start..end] {
            match &ops[i] {
                BatchOp::Insert(t) => after.push(t.clone()),
                BatchOp::Delete(_) => after.clear(),
                BatchOp::Replace(t) => {
                    after.clear();
                    after.push(t.clone());
                }
            }
        }
        out.push(KeyTransition::new(key.clone(), before, after));
    }
    out
}

/// One transition's bucket effect for the tree kernels: `None` when the key
/// ends up absent, otherwise the `after` run consed so that a scan (which
/// reverses the bucket) replays it in order.
fn transition_effect(tr: &KeyTransition) -> (Value, Option<PList<Tuple>>) {
    if tr.after.is_empty() {
        (tr.key.clone(), None)
    } else {
        let bucket = tr
            .after
            .iter()
            .fold(PList::nil(), |acc, t| PList::cons(t.clone(), acc));
        (tr.key.clone(), Some(bucket))
    }
}

impl Relation {
    /// Applies a run of per-key [`KeyTransition`]s — each key's bucket is
    /// replaced wholesale by its `after` tuples — returning the new
    /// relation. This is how materialized views commit their deltas: the
    /// engine derives view transitions from a base batch's transitions and
    /// lands them with the same one-pass merge kernels ordinary batches use,
    /// so a view commit costs O(touched · log n) regardless of view size.
    ///
    /// `runs` must be strictly ascending by key and each `before` must be
    /// the key's current bucket (as a multiset) — the contract every delta
    /// derivation in [`crate::view`] upholds. Attached indexes are
    /// maintained from the same runs.
    pub fn apply_transitions(&self, runs: &[KeyTransition]) -> Relation {
        if runs.is_empty() {
            return self.clone();
        }
        debug_assert!(
            runs.windows(2).all(|w| w[0].key < w[1].key),
            "transition runs must be strictly ascending by key"
        );
        #[cfg(debug_assertions)]
        for tr in runs {
            let mut cur = self.store.key_group(&tr.key);
            let mut before = tr.before.clone();
            cur.sort();
            before.sort();
            debug_assert_eq!(
                before, cur,
                "transition 'before' must match the current bucket for key {:?}",
                tr.key
            );
        }
        let indexes = if self.indexes.is_empty() {
            self.indexes.clone()
        } else {
            self.indexes.apply_transitions(runs)
        };
        let delta: isize = runs
            .iter()
            .map(|tr| tr.after.len() as isize - tr.before.len() as isize)
            .sum();
        let store = match &self.store {
            Store::List(l) => {
                let effects: Vec<(Value, Option<Vec<Tuple>>)> = runs
                    .iter()
                    .map(|tr| {
                        // List buckets live in full-tuple sorted order.
                        let mut run = tr.after.clone();
                        run.sort();
                        (tr.key.clone(), (!run.is_empty()).then_some(run))
                    })
                    .collect();
                let (l2, _) = l.merge_runs_by(|t| t.key().clone(), &effects);
                Store::List(l2)
            }
            Store::Tree(t) => {
                let effects: EffectRun = runs.iter().map(transition_effect).collect();
                let (t2, _) = t.merge_batch(&effects);
                Store::Tree(t2)
            }
            Store::BTree(t) => {
                let effects: EffectRun = runs.iter().map(transition_effect).collect();
                let (t2, _) = t.merge_batch(&effects);
                Store::BTree(t2)
            }
            Store::Paged(p) => {
                // Arrival order: keep untouched tuples in place, append every
                // touched key's new bucket, rebuild in one pass.
                let touched: BTreeMap<&Value, ()> = runs.iter().map(|tr| (&tr.key, ())).collect();
                let mut tuples: Vec<Tuple> = p
                    .iter()
                    .filter(|t| !touched.contains_key(t.key()))
                    .cloned()
                    .collect();
                for tr in runs {
                    tuples.extend(tr.after.iter().cloned());
                }
                Store::Paged(PagedStore::with_capacity(p.page_capacity(), tuples))
            }
        };
        let len = (self.len as isize + delta) as usize;
        Relation {
            store,
            indexes,
            len,
        }
    }
}

fn tree23_bucket(t: &fundb_persist::Tree23<Value, PList<Tuple>>, key: &Value) -> PList<Tuple> {
    t.get(key).cloned().unwrap_or_default()
}

fn btree_bucket(t: &fundb_persist::BTree<Value, PList<Tuple>>, key: &Value) -> PList<Tuple> {
    t.get(key).cloned().unwrap_or_default()
}

/// Batch application for the key-ordered list: one spine walk collects the
/// existing run of every touched key, the folds simulate each run as a
/// vector, and `merge_runs_by` splices all final runs back in a second
/// single walk.
fn apply_list_batch(
    list: &PList<Tuple>,
    ops: &[BatchOp],
) -> (PList<Tuple>, Vec<BatchOutcome>, CopyReport, isize) {
    let grouped = group_ops(ops);
    let mut runs: BTreeMap<&Value, Vec<Tuple>> = grouped.keys().map(|k| (k, Vec::new())).collect();
    for t in list.iter() {
        if let Some(run) = runs.get_mut(t.key()) {
            run.push(t.clone());
        }
    }
    let mut outcomes: Vec<Option<BatchOutcome>> = vec![None; ops.len()];
    let mut effects: Vec<(Value, Option<Vec<Tuple>>)> = Vec::with_capacity(grouped.len());
    let mut delta = 0isize;
    for (key, indices) in &grouped {
        let mut run = runs.remove(key).expect("runs seeded from grouped keys");
        let before = run.len();
        for &i in indices {
            match &ops[i] {
                BatchOp::Insert(t) => {
                    // Insert before equal tuples, matching `insert_sorted`.
                    let at = run.partition_point(|x| x < t);
                    run.insert(at, t.clone());
                    outcomes[i] = Some(BatchOutcome::Inserted);
                }
                BatchOp::Delete(_) => {
                    outcomes[i] = Some(BatchOutcome::Deleted(run.len()));
                    run.clear();
                }
                BatchOp::Replace(t) => {
                    run.clear();
                    run.push(t.clone());
                    outcomes[i] = Some(BatchOutcome::Inserted);
                }
            }
        }
        delta += run.len() as isize - before as isize;
        let effect = (!run.is_empty()).then_some(run);
        effects.push((key.clone(), effect));
    }
    let (l2, report) = list.merge_runs_by(|t| t.key().clone(), &effects);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every op belongs to exactly one key group"))
        .collect();
    (l2, outcomes, report, delta)
}

/// Batch application for the arrival-order paged store. Operations do NOT
/// commute across keys here (a delete only removes tuples inserted before
/// it, and scan order is arrival order), so there is no per-key grouping:
/// pure-insert batches take the `append_batch` fast path, anything else is
/// simulated sequentially and rebuilt in one pass.
fn apply_paged_batch(
    store: &PagedStore<Tuple>,
    ops: &[BatchOp],
) -> (PagedStore<Tuple>, Vec<BatchOutcome>, CopyReport) {
    if ops.iter().all(|op| matches!(op, BatchOp::Insert(_))) {
        let items = ops.iter().map(|op| match op {
            BatchOp::Insert(t) => t.clone(),
            _ => unreachable!("checked all-insert above"),
        });
        let (p2, report) = store.append_batch(items);
        return (p2, vec![BatchOutcome::Inserted; ops.len()], report);
    }
    let mut tuples: Vec<Tuple> = store.iter().cloned().collect();
    let mut outcomes = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            BatchOp::Insert(t) => {
                tuples.push(t.clone());
                outcomes.push(BatchOutcome::Inserted);
            }
            BatchOp::Delete(k) => {
                let before = tuples.len();
                tuples.retain(|t| t.key() != k);
                outcomes.push(BatchOutcome::Deleted(before - tuples.len()));
            }
            BatchOp::Replace(t) => {
                tuples.retain(|x| x.key() != t.key());
                tuples.push(t.clone());
                outcomes.push(BatchOutcome::Inserted);
            }
        }
    }
    let p2 = PagedStore::with_capacity(store.page_capacity(), tuples);
    let copied = p2.page_count() as u64;
    (p2, outcomes, CopyReport::new(copied, 0))
}

impl Relation {
    /// Applies a batch of writes as one structural merge, returning the new
    /// relation, one outcome per op (in batch order), and the aggregate copy
    /// report: `copied` is every node the batch allocated in the store;
    /// `shared` is filled for the list and the paged store only (see
    /// [`CopyReport`]) — nothing is walked to measure it.
    ///
    /// Equivalent to applying the ops one at a time in batch order — same
    /// final contents, same per-op results — but each touched node is copied
    /// once instead of once per op.
    pub fn apply_batch(&self, ops: &[BatchOp]) -> (Relation, Vec<BatchOutcome>, CopyReport) {
        self.apply_batch_scattered(ops, &|tasks| {
            for task in tasks {
                task();
            }
        })
    }

    /// Like [`apply_batch`](Self::apply_batch), but large per-key fold work
    /// on tree representations is offered to `run` as independent tasks.
    ///
    /// `run` must execute every task to completion before returning (inline,
    /// on a pool, in any order — the tasks are mutually independent). The
    /// engine passes the lenient pool's work-stealing `scatter` here;
    /// [`apply_batch`](Self::apply_batch) passes an inline runner.
    pub fn apply_batch_scattered(
        &self,
        ops: &[BatchOp],
        run: &dyn Fn(Vec<BatchTask>),
    ) -> (Relation, Vec<BatchOutcome>, CopyReport) {
        if ops.is_empty() {
            return (self.clone(), Vec::new(), CopyReport::default());
        }
        // A run this small gains nothing from the one-pass merge: sorting,
        // bucket folds, and the effect-run allocation cost more than the
        // spine copies they would save. The mixed workload's read-sealed
        // one-op batches live on this path.
        if ops.len() <= SMALL_BATCH_MAX {
            return apply_small_batch(self, ops);
        }
        // Index maintenance rides the same per-key decomposition: the
        // ascending before/after transitions become one `merge_batch` pass
        // per index. Computed against the pre-batch store, before it moves.
        let indexes = if self.indexes.is_empty() {
            self.indexes.clone()
        } else {
            self.indexes
                .apply_transitions(&batch_transitions(self, ops))
        };
        let (store, outcomes, report, delta) = match &self.store {
            Store::List(l) => {
                let (l2, outcomes, report, delta) = apply_list_batch(l, ops);
                (Store::List(l2), outcomes, report, delta)
            }
            Store::Tree(t) => {
                let (effects, outcomes, delta) = tree_effects(t, tree23_bucket, ops, run);
                let (t2, copied) = t.merge_batch(&effects);
                (Store::Tree(t2), outcomes, CopyReport::new(copied, 0), delta)
            }
            Store::BTree(t) => {
                let (effects, outcomes, delta) = tree_effects(t, btree_bucket, ops, run);
                let (t2, copied) = t.merge_batch(&effects);
                (
                    Store::BTree(t2),
                    outcomes,
                    CopyReport::new(copied, 0),
                    delta,
                )
            }
            Store::Paged(p) => {
                let (p2, outcomes, report) = apply_paged_batch(p, ops);
                let delta = p2.len() as isize - p.len() as isize;
                (Store::Paged(p2), outcomes, report, delta)
            }
        };
        let len = (self.len as isize + delta) as usize;
        (
            Relation {
                store,
                indexes,
                len,
            },
            outcomes,
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Repr;

    fn all_reprs() -> Vec<Repr> {
        vec![Repr::List, Repr::Tree23, Repr::BTree(4), Repr::Paged(4)]
    }

    /// Reference semantics: ops applied one at a time via the existing
    /// tuple-level API.
    fn apply_sequentially(rel: &Relation, ops: &[BatchOp]) -> (Relation, Vec<BatchOutcome>) {
        let mut cur = rel.clone();
        let mut outcomes = Vec::new();
        for op in ops {
            match op {
                BatchOp::Insert(t) => {
                    cur = cur.insert(t.clone()).0;
                    outcomes.push(BatchOutcome::Inserted);
                }
                BatchOp::Delete(k) => {
                    let (next, removed, _) = cur.delete(k);
                    cur = next;
                    outcomes.push(BatchOutcome::Deleted(removed.len()));
                }
                BatchOp::Replace(t) => {
                    let (next, _, _) = cur.delete(t.key());
                    cur = next.insert(t.clone()).0;
                    outcomes.push(BatchOutcome::Inserted);
                }
            }
        }
        (cur, outcomes)
    }

    fn tup(k: i64, tag: &str) -> Tuple {
        Tuple::new(vec![k.into(), tag.into()])
    }

    #[test]
    fn batch_matches_sequential_all_reprs() {
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, (0..30).map(|k| tup(k * 2, "seed")));
            let ops = vec![
                BatchOp::Insert(tup(5, "a")),
                BatchOp::Insert(tup(5, "b")),
                BatchOp::Delete(4.into()),
                BatchOp::Replace(tup(10, "r")),
                BatchOp::Delete(99.into()),
                BatchOp::Insert(tup(61, "z")),
                BatchOp::Delete(5.into()),
                BatchOp::Insert(tup(5, "c")),
            ];
            let (batched, outcomes, _) = base.apply_batch(&ops);
            let (seq, seq_outcomes) = apply_sequentially(&base, &ops);
            assert_eq!(outcomes, seq_outcomes, "{repr}");
            assert_eq!(batched.scan(), seq.scan(), "{repr}");
            assert_eq!(batched.len(), seq.len(), "{repr}");
        }
    }

    #[test]
    fn empty_batch_shares_everything() {
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, (0..10).map(|k| tup(k, "seed")));
            let (out, outcomes, report) = base.apply_batch(&[]);
            assert!(out.ptr_eq(&base), "{repr}");
            assert!(outcomes.is_empty());
            assert_eq!(report, CopyReport::default());
        }
    }

    #[test]
    fn delete_outcome_counts_batch_local_inserts() {
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, vec![tup(7, "old")]);
            let ops = vec![
                BatchOp::Insert(tup(7, "new1")),
                BatchOp::Insert(tup(7, "new2")),
                BatchOp::Delete(7.into()),
            ];
            let (out, outcomes, _) = base.apply_batch(&ops);
            assert_eq!(
                outcomes,
                vec![
                    BatchOutcome::Inserted,
                    BatchOutcome::Inserted,
                    BatchOutcome::Deleted(3),
                ],
                "{repr}"
            );
            assert!(out.find(&7.into()).is_empty(), "{repr}");
        }
    }

    #[test]
    fn replace_resets_the_bucket() {
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, vec![tup(1, "x"), tup(1, "y"), tup(2, "keep")]);
            let ops = vec![BatchOp::Replace(tup(1, "only"))];
            let (out, outcomes, _) = base.apply_batch(&ops);
            assert_eq!(outcomes, vec![BatchOutcome::Inserted], "{repr}");
            let found = out.find(&1.into());
            assert_eq!(found.len(), 1, "{repr}");
            assert_eq!(found[0].get(1), Some(&Value::from("only")));
            assert_eq!(out.len(), 2, "{repr}");
        }
    }

    #[test]
    fn large_batch_scatters_and_matches_sequential() {
        // Above SCATTER_MIN_KEYS distinct keys, the tree path hands fold
        // tasks to the runner; verify the runner actually receives tasks
        // and results stay identical.
        for repr in [Repr::Tree23, Repr::BTree(4)] {
            let base = Relation::from_tuples(repr, (0..200).map(|k| tup(k, "seed")));
            let ops: Vec<BatchOp> = (0..150)
                .map(|i| {
                    let k = i * 2 + 1;
                    match i % 3 {
                        0 => BatchOp::Insert(tup(k, "new")),
                        1 => BatchOp::Delete((k - 2).into()),
                        _ => BatchOp::Replace(tup(k, "rep")),
                    }
                })
                .collect();
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let (batched, outcomes, _) = base.apply_batch_scattered(&ops, &|tasks| {
                ran.fetch_add(tasks.len(), std::sync::atomic::Ordering::SeqCst);
                for task in tasks {
                    task();
                }
            });
            assert!(
                ran.load(std::sync::atomic::Ordering::SeqCst) > 1,
                "{repr}: expected parallel fold tasks"
            );
            let (seq, seq_outcomes) = apply_sequentially(&base, &ops);
            assert_eq!(outcomes, seq_outcomes, "{repr}");
            assert_eq!(batched.scan(), seq.scan(), "{repr}");
        }
    }

    #[test]
    fn batch_maintains_indexes_like_sequential() {
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, (0..30).map(|k| tup(k * 2, "seed")))
                .create_index("by_tag", 1)
                .unwrap();
            let ops = vec![
                BatchOp::Insert(tup(5, "a")),
                BatchOp::Insert(tup(5, "b")),
                BatchOp::Delete(4.into()),
                BatchOp::Replace(tup(10, "r")),
                BatchOp::Insert(tup(61, "z")),
                BatchOp::Delete(5.into()),
                BatchOp::Insert(tup(5, "c")),
            ];
            assert!(ops.len() > SMALL_BATCH_MAX, "must exercise the merge path");
            let (batched, _, _) = base.apply_batch(&ops);
            let (seq, _) = apply_sequentially(&base, &ops);
            let bix = batched.index_on(1).expect("index survives batches");
            let six = seq.index_on(1).expect("index survives singles");
            for tag in ["seed", "a", "b", "c", "r", "z"] {
                assert_eq!(
                    bix.keys_eq(&tag.into()),
                    six.keys_eq(&tag.into()),
                    "{repr}: posting for {tag:?}"
                );
            }
            // The index answers must agree with a scan of the new store.
            for t in batched.scan() {
                assert!(
                    bix.keys_eq(t.get(1).unwrap()).contains(t.key()),
                    "{repr}: {t:?} missing from index"
                );
            }
        }
    }

    #[test]
    fn batch_copies_less_than_tuple_at_a_time() {
        for repr in [Repr::Tree23, Repr::BTree(4)] {
            let base = Relation::from_tuples(repr, (0..1000).map(|k| tup(k * 2, "seed")));
            let ops: Vec<BatchOp> = (0..64)
                .map(|i| BatchOp::Insert(tup(i * 2 + 1, "n")))
                .collect();
            let (_, _, report) = base.apply_batch(&ops);
            let mut singles = 0u64;
            let mut cur = base.clone();
            for op in &ops {
                if let BatchOp::Insert(t) = op {
                    let (next, r) = cur.insert(t.clone());
                    singles += r.copied;
                    cur = next;
                }
            }
            assert!(
                report.copied * 2 <= singles,
                "{repr}: batch copied {} vs {} for singles",
                report.copied,
                singles
            );
        }
    }
}
