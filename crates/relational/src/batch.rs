//! Batch application of write operations against a relation.
//!
//! The pipelined engine claims a run of consecutive same-relation writes and
//! commits it as one unit. A commit is a set of per-key bucket changes —
//! §2.2's full logical update by partial physical update — so the run is
//! derived exactly once: a stable per-key fold (submission order kept
//! within each key) turns it into a strictly ascending run of
//! [`KeyTransition`]s, each touched key's tuples before and after, and
//! records every op's [`BatchOutcome`] on the way. Everything the commit
//! changes reads that one derivation:
//!
//! * the store — the backend's one-pass `merge_batch` / `merge_runs_by`
//!   kernel copies each touched node once, O(k + touched·log n) instead of
//!   the O(k·log n) of landing the ops one at a time;
//! * the secondary indexes ([`crate::index::IndexSet::apply_transitions`]);
//! * the relation's cached length (each run's `after.len() - before.len()`);
//! * every dependent materialized view: [`Relation::apply_batch_with_runs`]
//!   hands the runs back, and [`crate::Database::write`] — every
//!   executor's write — maps them to each view's transitions
//!   ([`crate::view::derive_delta`]) instead of deriving them again.
//!
//! Every data write is such a batch: a single-key write
//! ([`Relation::insert`], [`Relation::delete`], the executor's statement)
//! is a batch of one op, landed by the same kernel call.
//! [`Relation::apply_transitions`] lands a run through that call too,
//! which is how views commit their own deltas. A key whose bucket comes
//! out as it went in yields no transition, so a no-op write shares the
//! whole relation. Every store scans in key order, so ops on different
//! keys commute and the per-key grouping holds for every relation.

use fundb_persist::{CopyReport, PList};

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

/// Each key's current tuples, in scan order, for a strictly ascending key
/// run: a probe per key on the B-tree, one pass on the list (stopping past
/// the last key).
fn key_groups(store: &Store, keys: &[&Value]) -> Vec<Vec<Tuple>> {
    let l = match store {
        Store::BTree(_) => return keys.iter().map(|k| store.find(k)).collect(),
        Store::List(l) => l,
    };
    let last = keys.last().copied();
    let mut groups = vec![Vec::new(); keys.len()];
    for t in l.iter().take_while(|t| Some(t.key()) <= last) {
        if let Ok(i) = keys.binary_search(&t.key()) {
            groups[i].push(t.clone());
        }
    }
    groups
}

/// The one fold of a batch: the per-key transitions it induces against
/// `store`, strictly ascending by key, and each op's outcome in batch
/// order. A stable sort groups the ops per key, so each key's ops fold in
/// submission order — which is why landing the runs equals applying the
/// ops one at a time. A key whose tuples end as they began gets no
/// transition: indexes, views and the length never see a no-op.
fn derive(store: &Store, ops: &[BatchOp]) -> (Vec<KeyTransition>, Vec<BatchOutcome>) {
    let mut idx: Vec<usize> = (0..ops.len()).collect();
    idx.sort_by(|&a, &b| ops[a].key().cmp(ops[b].key()));
    let same_key = |a: &usize, b: &usize| ops[*a].key() == ops[*b].key();
    let keys: Vec<&Value> = idx.chunk_by(same_key).map(|g| ops[g[0]].key()).collect();
    let mut outcomes = vec![BatchOutcome::Inserted; ops.len()];
    let mut runs = Vec::with_capacity(keys.len());
    let befores = key_groups(store, &keys);
    for ((group, key), before) in idx.chunk_by(same_key).zip(&keys).zip(befores) {
        let mut after = Vec::with_capacity(before.len() + group.len());
        after.extend_from_slice(&before);
        for &i in group {
            match &ops[i] {
                BatchOp::Insert(t) => after.push(t.clone()),
                BatchOp::Delete(_) => {
                    outcomes[i] = BatchOutcome::Deleted(after.len());
                    after.clear();
                }
                BatchOp::Replace(t) => {
                    after.clear();
                    after.push(t.clone());
                }
            }
        }
        if before != after {
            runs.push(KeyTransition::new((*key).clone(), before, after));
        }
    }
    (runs, outcomes)
}

/// The per-key before/after transitions a batch induces against `rel`, in
/// the ascending key order index maintenance and the view delta rule
/// require (see [`crate::view`]) — the same runs
/// [`Relation::apply_batch_with_runs`] lands and returns. No write path
/// calls it (each takes the runs its batch landed); it is for tests and
/// measurements that need the runs without the write.
pub fn batch_transitions(rel: &Relation, ops: &[BatchOp]) -> Vec<KeyTransition> {
    derive(&rel.store, ops).0
}

/// One transition's bucket effect for the B-tree kernel: `None` when the key
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

/// Lands a strictly ascending transition run in `store` — each key's
/// bucket replaced wholesale by its `after` tuples — through the
/// representation's one-pass kernel, returning the kernel's copy report.
fn land(store: &Store, runs: &[KeyTransition]) -> (Store, CopyReport) {
    if runs.is_empty() {
        return (store.clone(), CopyReport::default());
    }
    match store {
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
            let (l2, report) = l.merge_runs_by(|t| t.key().clone(), &effects);
            (Store::List(l2), report)
        }
        Store::BTree(t) => {
            let effects: Vec<_> = runs.iter().map(transition_effect).collect();
            let (t2, copied) = t.merge_batch(&effects);
            (Store::BTree(t2), CopyReport::new(copied, 0))
        }
    }
}

impl Relation {
    /// This relation with `store` — which already reflects `runs` — in
    /// place of its own: the indexes and the length counter advance from
    /// the same runs.
    fn with_landed(&self, store: Store, runs: &[KeyTransition]) -> Relation {
        let indexes = if self.indexes.is_empty() {
            self.indexes.clone()
        } else {
            self.indexes.apply_transitions(runs)
        };
        let delta: isize = runs
            .iter()
            .map(|tr| tr.after.len() as isize - tr.before.len() as isize)
            .sum();
        Relation {
            store,
            indexes,
            len: (self.len as isize + delta) as usize,
        }
    }

    /// Applies a run of per-key [`KeyTransition`]s — each key's bucket is
    /// replaced wholesale by its `after` tuples — returning the new
    /// relation. This is how materialized views commit their deltas, with
    /// the same one-pass kernels ordinary batches use, so a view commit
    /// costs O(touched · log n) regardless of view size.
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
            let mut cur = self.store.find(&tr.key);
            let mut before = tr.before.clone();
            cur.sort();
            before.sort();
            debug_assert_eq!(
                before, cur,
                "transition 'before' must match the current bucket for key {:?}",
                tr.key
            );
        }
        self.with_landed(land(&self.store, runs).0, runs)
    }

    /// Applies a batch of writes, returning the new relation, one outcome
    /// per op (in batch order), and the aggregate copy report: `copied` is
    /// every node the batch allocated in the store; `shared` is filled for
    /// the list only (see [`CopyReport`]) — nothing is walked to measure
    /// it.
    ///
    /// Equivalent to applying the ops one at a time in batch order — same
    /// final contents, same per-op results — but each touched node is copied
    /// once instead of once per op. The projection of
    /// [`apply_batch_with_runs`](Self::apply_batch_with_runs) without its
    /// runs.
    pub fn apply_batch(&self, ops: &[BatchOp]) -> (Relation, Vec<BatchOutcome>, CopyReport) {
        let (rel, outcomes, report, _) = self.apply_batch_with_runs(ops);
        (rel, outcomes, report)
    }

    /// [`apply_batch`](Self::apply_batch), also returning the batch's
    /// per-key transitions ([`batch_transitions`]) — the one derivation the
    /// store, the indexes, the length counter and the outcomes were all
    /// read from, handed on so a dependent view advances from the same
    /// runs instead of deriving them again.
    pub fn apply_batch_with_runs(
        &self,
        ops: &[BatchOp],
    ) -> (Relation, Vec<BatchOutcome>, CopyReport, Vec<KeyTransition>) {
        if ops.is_empty() {
            return (self.clone(), Vec::new(), CopyReport::default(), Vec::new());
        }
        let (runs, outcomes) = derive(&self.store, ops);
        let (store, report) = land(&self.store, &runs);
        (self.with_landed(store, &runs), outcomes, report, runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Repr;
    use proptest::prelude::*;

    fn all_reprs() -> Vec<Repr> {
        vec![Repr::List, Repr::BTree(4)]
    }

    /// Reference semantics from std types alone: `base`'s rows in a `Vec`,
    /// ops applied one at a time (a delete drops every row of its key, an
    /// insert appends), then laid out in `repr`'s scan order — key order
    /// keeping arrival order within a key on the B-tree, row order on the
    /// list.
    fn model(repr: Repr, base: &Relation, ops: &[BatchOp]) -> (Vec<Tuple>, Vec<BatchOutcome>) {
        let mut rows = base.scan();
        let mut outcomes = Vec::new();
        for op in ops {
            let held = rows.len();
            if !matches!(op, BatchOp::Insert(_)) {
                rows.retain(|t| t.key() != op.key());
            }
            match op {
                BatchOp::Delete(_) => outcomes.push(BatchOutcome::Deleted(held - rows.len())),
                BatchOp::Insert(t) | BatchOp::Replace(t) => {
                    rows.push(t.clone());
                    outcomes.push(BatchOutcome::Inserted);
                }
            }
        }
        match repr {
            Repr::List => rows.sort(),
            Repr::BTree(_) => rows.sort_by(|a, b| a.key().cmp(b.key())),
        }
        (rows, outcomes)
    }

    /// For every tag in `tags`, the keys of the model rows carrying it —
    /// what the `by_tag` index's posting must hold.
    fn model_postings(rows: &[Tuple], tags: &[&str]) -> Vec<Vec<Value>> {
        tags.iter()
            .map(|tag| {
                let tag = Value::from(*tag);
                let mut keys: Vec<Value> = rows
                    .iter()
                    .filter(|t| t.get(1) == Some(&tag))
                    .map(|t| t.key().clone())
                    .collect();
                keys.sort();
                keys.dedup();
                keys
            })
            .collect()
    }

    /// A B-tree store's pages are legal; the other stores have no
    /// page invariant to break.
    fn store_is_legal(rel: &Relation) -> bool {
        match rel.store() {
            Store::BTree(t) => t.check_invariants(),
            _ => true,
        }
    }

    fn tup(k: i64, tag: &str) -> Tuple {
        Tuple::new(vec![k.into(), tag.into()])
    }

    /// The `by_tag` index's posting for every tag in `tags`.
    fn postings(rel: &Relation, tags: &[&str]) -> Vec<Vec<Value>> {
        let ix = rel.index_on(1).expect("index survives every write path");
        tags.iter().map(|t| ix.keys_eq(&(*t).into())).collect()
    }

    #[test]
    fn batch_matches_the_model_all_reprs() {
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
            let (rows, model_outcomes) = model(repr, &base, &ops);
            assert_eq!(outcomes, model_outcomes, "{repr}");
            assert_eq!(batched.scan(), rows, "{repr}");
            assert_eq!(batched.len(), rows.len(), "{repr}");
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
    fn wide_batch_matches_the_model_with_and_without_an_index() {
        // 150 ops over 100 distinct keys: inserts of fresh keys, deletes of
        // seeded keys and of keys inserted earlier in the same batch, and
        // replaces — on every representation, bare and indexed.
        let ops: Vec<BatchOp> = (0..150)
            .map(|i| {
                let k = i * 2 + 1;
                match i % 3 {
                    0 => BatchOp::Insert(tup(k, "new")),
                    1 if i % 2 == 0 => BatchOp::Delete((k - 2).into()),
                    1 => BatchOp::Delete((k - 1).into()),
                    _ => BatchOp::Replace(tup(k, "rep")),
                }
            })
            .collect();
        let mut keys: Vec<&Value> = ops.iter().map(BatchOp::key).collect();
        keys.sort();
        keys.dedup();
        assert!(keys.len() >= 64, "{} distinct keys", keys.len());
        let tags = ["seed", "new", "rep"];
        for repr in all_reprs() {
            for indexed in [false, true] {
                let mut base = Relation::from_tuples(repr, (0..200).map(|k| tup(k, "seed")));
                if indexed {
                    base = base.create_index("by_tag", 1).unwrap();
                }
                let (batched, outcomes, _) = base.apply_batch(&ops);
                let (rows, model_outcomes) = model(repr, &base, &ops);
                assert!(
                    outcomes.contains(&BatchOutcome::Deleted(1)),
                    "{repr}: deletes must hit rows"
                );
                assert_eq!(outcomes, model_outcomes, "{repr} indexed={indexed}");
                assert_eq!(batched.scan(), rows, "{repr} indexed={indexed}");
                assert_eq!(batched.len(), rows.len(), "{repr} indexed={indexed}");
                if indexed {
                    let want = model_postings(&rows, &tags);
                    assert_eq!(postings(&batched, &tags), want, "{repr}");
                }
            }
        }
    }

    #[test]
    fn batch_maintains_indexes_like_the_model() {
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
            let (batched, _, _) = base.apply_batch(&ops);
            let (rows, _) = model(repr, &base, &ops);
            let tags = ["seed", "a", "b", "c", "r", "z"];
            assert_eq!(
                postings(&batched, &tags),
                model_postings(&rows, &tags),
                "{repr}"
            );
            // The index answers must agree with a scan of the new store.
            let bix = batched.index_on(1).unwrap();
            for t in batched.scan() {
                assert!(
                    bix.keys_eq(t.get(1).unwrap()).contains(t.key()),
                    "{repr}: {t:?} missing from index"
                );
            }
        }
    }

    #[test]
    fn batch_copies_less_than_one_op_batches() {
        for repr in [Repr::BTree(2), Repr::BTree(4)] {
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

    #[test]
    fn no_op_writes_share_everything() {
        for repr in all_reprs() {
            for indexed in [false, true] {
                let mut base = Relation::from_tuples(repr, (0..50).map(|k| tup(k * 2, "seed")));
                if indexed {
                    base = base.create_index("by_tag", 1).unwrap();
                }
                let what = format!("{repr} indexed={indexed}");
                let (out, removed, report) = base.delete(&7.into());
                assert!(out.ptr_eq(&base), "{what}: delete of an absent key");
                assert!(removed.is_empty(), "{what}");
                assert_eq!(report, CopyReport::default(), "{what}");
                let (out, outcomes, _) = base.apply_batch(&[BatchOp::Delete(7.into())]);
                assert!(out.ptr_eq(&base), "{what}: one-op batch");
                assert_eq!(outcomes, vec![BatchOutcome::Deleted(0)], "{what}");
                // Key order is untouched by a write that puts back what
                // it took.
                let ops = [
                    BatchOp::Replace(tup(4, "seed")),
                    BatchOp::Insert(tup(7, "x")),
                    BatchOp::Delete(7.into()),
                ];
                let (out, _, _) = base.apply_batch(&ops);
                assert!(out.ptr_eq(&base), "{what}: net no-op batch");
            }
        }
    }

    /// The pages one-op batches copy in a bulk-loaded 20 000-row
    /// `BTree(16)` relation: a replace rebuilds at most the path to its
    /// key, and an insert into a leaf with room exactly the path.
    #[test]
    fn a_single_key_write_copies_one_path() {
        let base = Relation::from_tuples(Repr::TREE, (0..20_000).map(|k| tup(k * 2, "seed")));
        let height = |rel: &Relation| match &rel.store {
            Store::BTree(t) => t.height() as u64,
            _ => unreachable!("a tree relation"),
        };
        let h = height(&base);
        assert_eq!(h, 3);
        for k in (0..20_000).step_by(97) {
            let (_, _, report) = base.apply_batch(&[BatchOp::Replace(tup(k * 2, "new"))]);
            assert!(
                report.copied <= h,
                "a replace of key {} copied {} pages, height {h}",
                k * 2,
                report.copied
            );
        }
        // Bulk loading fills every leaf: key 1 splits the first one, and
        // key 3 lands in the left half, which has room.
        let (split, _) = base.insert(tup(1, "new"));
        assert_eq!(height(&split), h);
        let (_, report) = split.insert(tup(3, "new"));
        assert_eq!(report.copied, h, "an insert into a leaf with room");
    }

    const TAGS: [&str; 4] = ["a", "b", "c", "d"];

    fn op_strategy() -> impl Strategy<Value = BatchOp> {
        prop_oneof![
            (0i64..24, 0usize..4).prop_map(|(k, t)| BatchOp::Insert(tup(k, TAGS[t]))),
            (0i64..24).prop_map(|k| BatchOp::Delete(k.into())),
            (0i64..24, 0usize..4).prop_map(|(k, t)| BatchOp::Replace(tup(k, TAGS[t]))),
        ]
    }

    proptest! {
        /// On every representation with an index: `apply_batch` is the
        /// model's one-at-a-time fold (scan, length, postings, outcomes),
        /// and exactly "land the batch's transitions".
        #[test]
        fn apply_batch_is_the_model_fold_and_lands_its_runs(
            seed in prop::collection::vec((0i64..24, 0usize..4), 0..40),
            ops in prop::collection::vec(op_strategy(), 0..40),
        ) {
            for repr in all_reprs() {
                let base = Relation::from_tuples(repr, seed.iter().map(|&(k, t)| tup(k, TAGS[t])))
                    .create_index("by_tag", 1)
                    .unwrap();
                let (batched, outcomes, _) = base.apply_batch(&ops);
                let (rows, model_outcomes) = model(repr, &base, &ops);
                prop_assert_eq!(&outcomes, &model_outcomes, "{} outcomes", repr);
                prop_assert_eq!(batched.scan(), rows.clone(), "{} contents", repr);
                prop_assert_eq!(batched.len(), rows.len(), "{} len", repr);
                prop_assert!(store_is_legal(&batched), "{} pages", repr);
                prop_assert_eq!(
                    postings(&batched, &TAGS),
                    model_postings(&rows, &TAGS),
                    "{} postings",
                    repr
                );
                let landed = base.apply_transitions(&batch_transitions(&base, &ops));
                prop_assert_eq!(landed.scan(), batched.scan(), "{} landed contents", repr);
                prop_assert_eq!(landed.len(), batched.len(), "{} landed len", repr);
                prop_assert_eq!(
                    postings(&landed, &TAGS),
                    postings(&batched, &TAGS),
                    "{} landed postings",
                    repr
                );
            }
        }
    }
}
