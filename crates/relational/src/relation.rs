//! Relations: persistent multisets of tuples keyed by their first field.
//!
//! "In the same way that we view a transaction as creating a new database,
//! we also view the insertion of a tuple into a relation as the creation of
//! a new relation." (Section 2.2.) A [`Relation`] value is immutable; every
//! update returns the new relation plus a [`CopyReport`] whose `copied` is
//! how little of it was physically rebuilt. A write costs what it copies:
//! no write path here walks the result to count what it shares (the
//! `_counted` operations of `fundb_persist` do that, for measurement).
//!
//! Two representations are provided (the [`Store`]), both scanning in key
//! order. The paper's experiments used linked lists and projected better
//! results for trees; benches compare them. A relation additionally
//! carries an [`IndexSet`] of secondary indexes — persistent derived
//! structures maintained incrementally by every write path (see
//! [`crate::index`]); a relation with no indexes pays nothing for the
//! capability.

use std::fmt;

use fundb_persist::{BTree, CopyReport, PList};

use crate::batch::BatchOp;
use crate::index::{IndexSet, PostingEntry, SecondaryIndex};
use crate::tuple::{concat_on, Tuple};
use crate::value::Value;

/// Which physical representation a relation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repr {
    /// Key-ordered persistent linked list (the paper's experimental setup).
    List,
    /// Persistent B-tree of key → tuple bucket, with the given minimum
    /// degree.
    BTree(usize),
}

impl Repr {
    /// The tree a relation gets when it asks for one without naming a
    /// degree: the query language's `tree`.
    pub const TREE: Repr = Repr::BTree(16);
}

impl fmt::Display for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Repr::List => write!(f, "list"),
            Repr::BTree(t) => write!(f, "B-tree(t={t})"),
        }
    }
}

/// The physical tuple store behind a [`Relation`]: one of the persistent
/// representations of `fundb_persist`. Both scan in key order, so ops on
/// different keys commute and two stores merge-join. Cloning is O(1) for
/// every variant.
#[derive(Clone)]
pub enum Store {
    /// Key-ordered linked list.
    List(PList<Tuple>),
    /// B-tree of key → bucket of tuples with that key.
    BTree(BTree<Value, PList<Tuple>>),
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Store[{}; {} tuples]", self.repr(), self.len())
    }
}

/// A tree bucket is consed newest-first; scanning restores arrival order.
fn bucket_in_arrival_order(b: &PList<Tuple>) -> Vec<Tuple> {
    let mut bucket: Vec<Tuple> = b.iter().cloned().collect();
    bucket.reverse();
    bucket
}

impl Store {
    /// An empty store with the chosen representation.
    pub fn empty(repr: Repr) -> Self {
        match repr {
            Repr::List => Store::List(PList::nil()),
            Repr::BTree(t) => Store::BTree(BTree::new(t)),
        }
    }

    /// The representation in use.
    pub fn repr(&self) -> Repr {
        match self {
            Store::List(_) => Repr::List,
            Store::BTree(b) => Repr::BTree(b.min_degree()),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            Store::List(l) => l.len(),
            Store::BTree(t) => t.iter().map(|(_, b)| b.len()).sum(),
        }
    }

    /// `true` if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        match self {
            Store::List(l) => l.is_empty(),
            Store::BTree(t) => t.is_empty(),
        }
    }

    /// Every tuple whose key equals `key`, in this store's scan order (a
    /// tree bucket is consed newest-first; this restores arrival order), so
    /// a key's group reads the same through `find`, an index probe, a join
    /// and a full scan.
    pub fn find(&self, key: &Value) -> Vec<Tuple> {
        match self {
            Store::List(l) => {
                // Key-ordered: stop as soon as keys pass the target.
                let mut out = Vec::new();
                for t in l.iter() {
                    match t.key().cmp(key) {
                        std::cmp::Ordering::Less => continue,
                        std::cmp::Ordering::Equal => out.push(t.clone()),
                        std::cmp::Ordering::Greater => break,
                    }
                }
                out
            }
            Store::BTree(t) => t.get(key).map(bucket_in_arrival_order).unwrap_or_default(),
        }
    }

    /// Like [`find`](Self::find), but also reports how many stored cells the
    /// probe examined — the instrumented form behind the sublinear-probe
    /// guarantees.
    ///
    /// For the key-ordered list this counts visited list cells: the scan
    /// stops at the first key past the probe, so a miss "early" in key space
    /// touches far fewer cells than the relation holds. Tree representations
    /// count the entries compared along the root-to-leaf descent plus the
    /// matched bucket's length.
    pub fn find_counted(&self, key: &Value) -> (Vec<Tuple>, usize) {
        match self {
            Store::List(l) => {
                let mut out = Vec::new();
                let mut visited = 0usize;
                for t in l.iter() {
                    visited += 1;
                    match t.key().cmp(key) {
                        std::cmp::Ordering::Less => continue,
                        std::cmp::Ordering::Equal => out.push(t.clone()),
                        std::cmp::Ordering::Greater => break,
                    }
                }
                (out, visited)
            }
            Store::BTree(t) => {
                let visited = (2 * t.min_degree() - 1) * t.height();
                let out = t.get(key).map(bucket_in_arrival_order).unwrap_or_default();
                let visited = visited + out.len();
                (out, visited)
            }
        }
    }

    /// Every tuple whose key lies in `lo..=hi`, in key order.
    ///
    /// List stores stop scanning once keys pass `hi`; tree stores prune
    /// subtrees (O(log n + answer)).
    pub fn find_range(&self, lo: &Value, hi: &Value) -> Vec<Tuple> {
        if lo > hi {
            return Vec::new();
        }
        match self {
            Store::List(l) => {
                let mut out = Vec::new();
                for t in l.iter() {
                    if t.key() > hi {
                        break;
                    }
                    if t.key() >= lo {
                        out.push(t.clone());
                    }
                }
                out
            }
            Store::BTree(t) => t
                .range(lo, hi)
                .into_iter()
                .flat_map(|(_, bucket)| bucket_in_arrival_order(bucket))
                .collect(),
        }
    }

    /// `true` if any tuple has this key.
    pub fn contains_key(&self, key: &Value) -> bool {
        match self {
            Store::BTree(t) => t.contains_key(key),
            _ => !self.find(key).is_empty(),
        }
    }

    /// Streams every tuple in key order (within a key: arrival order on the
    /// B-tree, row order on the list) without materializing the whole
    /// relation; at most one tree bucket is buffered at a time.
    pub fn scan_iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        match self {
            Store::List(l) => Box::new(l.iter().cloned()),
            Store::BTree(t) => Box::new(t.iter().flat_map(|(_, b)| bucket_in_arrival_order(b))),
        }
    }

    /// All tuples, in key order (see [`scan_iter`](Self::scan_iter)).
    pub fn scan(&self) -> Vec<Tuple> {
        self.scan_iter().collect()
    }

    /// `true` if `self` and `other` are physically the same store value
    /// (same root/spine pointer).
    pub fn ptr_eq(&self, other: &Store) -> bool {
        match (self, other) {
            (Store::List(a), Store::List(b)) => a.ptr_eq(b),
            (Store::BTree(a), Store::BTree(b)) => a.ptr_eq(b),
            _ => false,
        }
    }
}

/// A persistent relation: a multiset of tuples addressed by key (first
/// field). Duplicated keys are allowed; `find` returns every match.
///
/// Copy reports use representation-specific units (list cells or tree
/// nodes) — they compare *within* a representation, which is how the
/// sharing benches use them.
///
/// # Example
///
/// ```
/// use fundb_relational::{Relation, Repr, Tuple};
///
/// let r0 = Relation::empty(Repr::List);
/// let (r1, _) = r0.insert(Tuple::new(vec![1.into(), "ada".into()]));
/// let (r2, _) = r1.insert(Tuple::new(vec![2.into(), "bob".into()]));
/// assert_eq!(r2.len(), 2);
/// assert_eq!(r2.find(&1.into()).len(), 1);
/// assert_eq!(r1.len(), 1); // old version intact
/// ```
#[derive(Clone)]
pub struct Relation {
    pub(crate) store: Store,
    pub(crate) indexes: IndexSet,
    /// Cached tuple count. The tree stores' `len` is a full iteration
    /// (their O(1) lengths count distinct keys, not bucket contents), so
    /// the relation tracks its own — the planner's cardinality estimates
    /// ask for it on every query.
    pub(crate) len: usize,
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation[{}; {} tuples]", self.repr(), self.len())?;
        if !self.indexes.is_empty() {
            write!(f, " + {} indexes", self.indexes.len())?;
        }
        Ok(())
    }
}

impl From<Store> for Relation {
    /// Wraps a bare store as an unindexed relation — the constructor the
    /// checkpoint loader uses after materializing a store shape.
    fn from(store: Store) -> Self {
        let len = store.len();
        Relation {
            store,
            indexes: IndexSet::empty(),
            len,
        }
    }
}

impl Relation {
    /// An empty relation with the chosen representation.
    pub fn empty(repr: Repr) -> Self {
        Relation::from(Store::empty(repr))
    }

    /// Builds a relation of the chosen representation from tuples, landed
    /// as one batch of inserts (one kernel pass, not one insert per tuple).
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(repr: Repr, tuples: I) -> Self {
        let ops: Vec<BatchOp> = tuples.into_iter().map(BatchOp::Insert).collect();
        Relation::empty(repr).apply_batch(&ops).0
    }

    /// The physical tuple store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The secondary indexes attached to this relation.
    pub fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    /// The first index covering attribute `field`, if any.
    pub fn index_on(&self, field: usize) -> Option<&SecondaryIndex> {
        self.indexes.on_field(field)
    }

    /// Attaches (and builds, with one full pass) a secondary index named
    /// `name` on attribute position `field`. Returns `None` if an index
    /// with that name already exists. The store is shared, not copied.
    pub fn create_index(&self, name: &str, field: usize) -> Option<Relation> {
        self.create_index_multi(name, &[field])
    }

    /// Attaches a (possibly composite) secondary index over `fields` in
    /// lexicographic order (see [`SecondaryIndex::build_multi`]). Returns
    /// `None` if an index with that name already exists.
    pub fn create_index_multi(&self, name: &str, fields: &[usize]) -> Option<Relation> {
        if self.indexes.get(name).is_some() {
            return None;
        }
        let ix = SecondaryIndex::build_multi(name, fields, self.store.scan_iter());
        let indexes = self.indexes.with(ix).expect("duplicate name checked above");
        Some(Relation {
            store: self.store.clone(),
            indexes,
            len: self.len,
        })
    }

    /// The representation in use.
    pub fn repr(&self) -> Repr {
        self.store.repr()
    }

    /// Number of tuples. O(1): the count is carried through every write
    /// rather than recounted from the store.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a tuple, returning the new relation and a copy report: a
    /// batch of one insert (see [`apply_batch`](Self::apply_batch)), so
    /// attached indexes take one posting-list touch each.
    pub fn insert(&self, tuple: Tuple) -> (Relation, CopyReport) {
        let (rel, _, report) = self.apply_batch(&[BatchOp::Insert(tuple)]);
        (rel, report)
    }

    /// Every tuple whose key equals `key`, in scan order (see
    /// [`Store::find`]).
    pub fn find(&self, key: &Value) -> Vec<Tuple> {
        self.store.find(key)
    }

    /// The rows behind one of this relation's index probes (entries
    /// ascending by key, as [`SecondaryIndex::probe_prefix`] and
    /// [`SecondaryIndex::probe_range`] return them): an entry's carried
    /// tuple is used as is, and a multi-tuple bucket (`None`) is read with
    /// [`find`](Self::find). The result is exactly the entries' keys mapped
    /// through `find`, with no store descent for any single-tuple key.
    pub fn index_rows(&self, entries: &[&PostingEntry]) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(entries.len());
        for (key, row) in entries.iter().copied() {
            match row {
                Some(t) => out.push(t.clone()),
                None => out.extend(self.store.find(key)),
            }
        }
        out
    }

    /// Like [`find`](Self::find), but also reports how many stored cells
    /// the probe examined (see [`Store::find_counted`]).
    pub fn find_counted(&self, key: &Value) -> (Vec<Tuple>, usize) {
        self.store.find_counted(key)
    }

    /// Every tuple whose key lies in `lo..=hi`, in key order (see
    /// [`Store::find_range`]).
    pub fn find_range(&self, lo: &Value, hi: &Value) -> Vec<Tuple> {
        self.store.find_range(lo, hi)
    }

    /// `true` if any tuple has this key.
    pub fn contains_key(&self, key: &Value) -> bool {
        self.store.contains_key(key)
    }

    /// Streams every tuple without materializing the relation (see
    /// [`Store::scan_iter`]).
    pub fn scan_iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        self.store.scan_iter()
    }

    /// All tuples, in key order (see [`Store::scan_iter`]).
    pub fn scan(&self) -> Vec<Tuple> {
        self.store.scan()
    }

    /// The tuples satisfying `pred`, filtered while streaming — no full
    /// materialized copy of the relation is built first.
    pub fn select<F: Fn(&Tuple) -> bool>(&self, pred: F) -> Vec<Tuple> {
        self.scan_iter().filter(|t| pred(t)).collect()
    }

    /// Natural join on keys: for every pair of tuples (one from `self`, one
    /// from `other`) with equal keys, emits their concatenation (the key
    /// appears once, followed by the remaining fields of both sides).
    /// Output follows `self`'s scan order.
    ///
    /// Both sides scan in key order, so this is a single merge pass over the
    /// two scan streams — O(n + m + output) with no per-tuple lookups.
    pub fn join_by_key(&self, other: &Relation) -> Vec<Tuple> {
        let mut out = Vec::new();
        let mut left = self.scan_iter().peekable();
        let mut right = other.scan_iter().peekable();
        while let (Some(l), Some(r)) = (left.peek(), right.peek()) {
            match l.key().cmp(r.key()) {
                std::cmp::Ordering::Less => {
                    left.next();
                }
                std::cmp::Ordering::Greater => {
                    right.next();
                }
                std::cmp::Ordering::Equal => {
                    let key = left.peek().expect("peeked above").key().clone();
                    let mut group: Vec<Tuple> = Vec::new();
                    while right.peek().is_some_and(|t| *t.key() == key) {
                        group.push(right.next().expect("peeked above"));
                    }
                    while left.peek().is_some_and(|t| *t.key() == key) {
                        let l = left.next().expect("peeked above");
                        for r in &group {
                            out.push(concat_on(&l, r, 0));
                        }
                    }
                }
            }
        }
        out
    }

    /// `true` if `self` and `other` are physically the same relation value
    /// (same store pointer and same index set). Used to *prove* the
    /// paper's sharing claims across database versions.
    pub fn ptr_eq(&self, other: &Relation) -> bool {
        self.store.ptr_eq(&other.store) && self.indexes.ptr_eq(&other.indexes)
    }

    /// Removes every tuple with key `key`, returning the new relation, the
    /// removed tuples (in scan order), and a copy report: a batch of one
    /// delete, whose one transition holds the removed tuples. Returns this
    /// relation itself and no tuples if the key is absent.
    pub fn delete(&self, key: &Value) -> (Relation, Vec<Tuple>, CopyReport) {
        let (rel, _, report, runs) = self.apply_batch_with_runs(&[BatchOp::Delete(key.clone())]);
        let removed = runs
            .into_iter()
            .next()
            .map(|tr| tr.before)
            .unwrap_or_default();
        (rel, removed, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![3.into(), "c".into()]),
            Tuple::new(vec![1.into(), "a".into()]),
            Tuple::new(vec![2.into(), "b".into()]),
        ]
    }

    fn all_reprs() -> Vec<Repr> {
        vec![Repr::List, Repr::BTree(4)]
    }

    #[test]
    fn empty_relations() {
        for repr in all_reprs() {
            let r = Relation::empty(repr);
            assert!(r.is_empty(), "{repr}");
            assert_eq!(r.len(), 0);
            assert!(r.find(&1.into()).is_empty());
            assert!(r.scan().is_empty());
            assert_eq!(r.repr(), repr);
        }
    }

    #[test]
    fn insert_find_all_reprs() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(repr, tuples());
            assert_eq!(r.len(), 3, "{repr}");
            let found = r.find(&2.into());
            assert_eq!(found.len(), 1, "{repr}");
            assert_eq!(found[0].get(1), Some(&Value::from("b")));
            assert!(r.find(&9.into()).is_empty());
            assert!(r.contains_key(&1.into()));
            assert!(!r.contains_key(&9.into()));
        }
    }

    #[test]
    fn duplicate_keys_all_found() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(
                repr,
                vec![
                    Tuple::new(vec![1.into(), "x".into()]),
                    Tuple::new(vec![1.into(), "y".into()]),
                    Tuple::new(vec![2.into(), "z".into()]),
                ],
            );
            assert_eq!(r.len(), 3, "{repr}");
            assert_eq!(r.find(&1.into()).len(), 2, "{repr}");
        }
    }

    #[test]
    fn scan_orders() {
        let list = Relation::from_tuples(Repr::List, tuples());
        let keys: Vec<i64> = list
            .scan()
            .iter()
            .map(|t| t.key().as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]); // key order

        let tree = Relation::from_tuples(Repr::TREE, tuples());
        let keys: Vec<i64> = tree
            .scan()
            .iter()
            .map(|t| t.key().as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn scan_iter_matches_scan() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(repr, tuples());
            let streamed: Vec<Tuple> = r.scan_iter().collect();
            assert_eq!(streamed, r.scan(), "{repr}");
        }
    }

    #[test]
    fn find_follows_scan_order() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(
                repr,
                vec![
                    Tuple::new(vec![1.into(), "first".into()]),
                    Tuple::new(vec![1.into(), "second".into()]),
                ],
            );
            let in_scan: Vec<Tuple> = r
                .scan()
                .into_iter()
                .filter(|t| t.key() == &1.into())
                .collect();
            assert_eq!(r.find(&1.into()), in_scan, "{repr}");
        }
    }

    #[test]
    fn persistence_all_reprs() {
        for repr in all_reprs() {
            let v1 = Relation::from_tuples(repr, tuples());
            let (v2, _) = v1.insert(Tuple::of_key(10));
            assert_eq!(v1.len(), 3, "{repr}");
            assert_eq!(v2.len(), 4, "{repr}");
            assert!(v1.find(&10.into()).is_empty());
        }
    }

    #[test]
    fn delete_all_reprs() {
        for repr in all_reprs() {
            let v1 = Relation::from_tuples(
                repr,
                vec![
                    Tuple::new(vec![1.into(), "x".into()]),
                    Tuple::new(vec![1.into(), "y".into()]),
                    Tuple::new(vec![2.into(), "z".into()]),
                ],
            );
            let (v2, removed, _) = v1.delete(&1.into());
            assert_eq!(removed.len(), 2, "{repr}");
            assert_eq!(v2.len(), 1, "{repr}");
            assert!(v2.find(&1.into()).is_empty(), "{repr}");
            assert_eq!(v1.len(), 3, "{repr} old version");
            // Deleting an absent key changes nothing.
            let (v3, removed, report) = v2.delete(&42.into());
            assert!(removed.is_empty());
            assert_eq!(v3.len(), 1);
            assert_eq!(report, fundb_persist::CopyReport::default());
        }
    }

    #[test]
    fn list_insert_sharing() {
        let v1 = Relation::from_tuples(Repr::List, (0..20).map(|i| Tuple::of_key(i * 2)));
        // Key 1 sorts near the front: nearly everything shared.
        let (_v2, report) = v1.insert(Tuple::of_key(1));
        assert!(report.shared >= 18, "{report}");
        assert!(report.copied <= 2, "{report}");
    }

    #[test]
    fn find_range_all_reprs() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(repr, (0..20).map(|k| Tuple::of_key(k * 2)));
            let got: Vec<i64> = r
                .find_range(&5.into(), &13.into())
                .iter()
                .map(|t| t.key().as_int().unwrap())
                .collect();
            assert_eq!(got, vec![6, 8, 10, 12], "{repr}");
            assert!(r.find_range(&13.into(), &5.into()).is_empty(), "{repr}");
            assert_eq!(r.find_range(&0.into(), &100.into()).len(), 20, "{repr}");
        }
    }

    #[test]
    fn list_miss_probe_is_sublinear_in_cell_visits() {
        // 2000 tuples with even keys; probing an absent odd key near the
        // front must terminate at the first greater key rather than walk the
        // whole list.
        let n = 2000i64;
        let r = Relation::from_tuples(Repr::List, (0..n).map(|k| Tuple::of_key(k * 2)));
        let (found, visited) = r.find_counted(&31.into());
        assert!(found.is_empty());
        // Keys 0..=30 (16 cells) plus the terminating cell holding 32.
        assert_eq!(visited, 17);
        assert!(
            visited * 10 < n as usize,
            "miss probe visited {visited} of {n} cells"
        );
        // A hit probe also stops at the first greater key.
        let (found, visited) = r.find_counted(&30.into());
        assert_eq!(found.len(), 1);
        assert_eq!(visited, 17);
        // Tree probes visit O(log n) entries.
        let tree = Relation::from_tuples(Repr::TREE, (0..n).map(|k| Tuple::of_key(k * 2)));
        let (_, visited) = tree.find_counted(&31.into());
        assert!(visited * 10 < n as usize, "tree probe visited {visited}");
    }

    #[test]
    fn select_with_predicate() {
        let r = Relation::from_tuples(Repr::List, (0..10).map(Tuple::of_key));
        let evens = r.select(|t| t.key().as_int().unwrap() % 2 == 0);
        assert_eq!(evens.len(), 5);
    }

    #[test]
    fn join_by_key_all_reprs() {
        for left_repr in all_reprs() {
            let left = Relation::from_tuples(
                left_repr,
                vec![
                    Tuple::new(vec![1.into(), "a".into()]),
                    Tuple::new(vec![2.into(), "b".into()]),
                    Tuple::new(vec![3.into(), "c".into()]),
                ],
            );
            let right = Relation::from_tuples(
                Repr::TREE,
                vec![
                    Tuple::new(vec![2.into(), "x".into()]),
                    Tuple::new(vec![2.into(), "y".into()]),
                    Tuple::new(vec![3.into(), "z".into()]),
                ],
            );
            let joined = left.join_by_key(&right);
            assert_eq!(joined.len(), 3, "{left_repr}");
            for t in &joined {
                assert_eq!(t.arity(), 3, "{left_repr}");
            }
            // Key 1 has no partner; key 2 joins twice.
            let keys: Vec<i64> = joined.iter().map(|t| t.key().as_int().unwrap()).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(sorted, vec![2, 2, 3], "{left_repr}");
        }
    }

    #[test]
    fn merge_join_matches_probe_join() {
        // The merge join produces exactly the scan-and-probe loop's
        // sequence on every pairing of representations.
        let pairs: Vec<(i64, &str)> = vec![(1, "a"), (2, "b"), (2, "c"), (5, "d"), (9, "e")];
        let rights: Vec<(i64, &str)> = vec![(2, "x"), (2, "y"), (5, "z"), (7, "w")];
        let mk = |repr, data: &[(i64, &str)]| {
            Relation::from_tuples(
                repr,
                data.iter()
                    .map(|(k, s)| Tuple::new(vec![(*k).into(), (*s).into()])),
            )
        };
        let reference = {
            let left = mk(Repr::List, &pairs);
            let right = mk(Repr::List, &rights);
            let mut out = Vec::new();
            for l in left.scan() {
                for r in right.find(l.key()) {
                    out.push(concat_on(&l, &r, 0));
                }
            }
            out
        };
        let reprs = [Repr::List, Repr::BTree(2), Repr::BTree(4)];
        for left_repr in reprs {
            for right_repr in reprs {
                let left = mk(left_repr, &pairs);
                let right = mk(right_repr, &rights);
                assert_eq!(
                    left.join_by_key(&right),
                    reference,
                    "{left_repr} ⋈ {right_repr}"
                );
            }
        }
    }

    #[test]
    fn join_with_empty_is_empty() {
        let left = Relation::from_tuples(Repr::List, (0..3).map(Tuple::of_key));
        let empty = Relation::empty(Repr::List);
        assert!(left.join_by_key(&empty).is_empty());
        assert!(empty.join_by_key(&left).is_empty());
    }

    #[test]
    fn indexes_follow_single_tuple_writes() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(
                repr,
                vec![
                    Tuple::new(vec![1.into(), "red".into()]),
                    Tuple::new(vec![2.into(), "blue".into()]),
                ],
            );
            let r = r.create_index("by_color", 1).unwrap();
            let ix = r.index_on(1).unwrap();
            assert_eq!(ix.keys_eq(&"red".into()), vec![1.into()], "{repr}");

            // Insert: a new key joins its value's posting.
            let (r2, _) = r.insert(Tuple::new(vec![3.into(), "red".into()]));
            assert_eq!(
                r2.index_on(1).unwrap().keys_eq(&"red".into()),
                vec![1.into(), 3.into()],
                "{repr}"
            );
            // The old version's index is untouched (persistence).
            assert_eq!(r.index_on(1).unwrap().keys_eq(&"red".into()).len(), 1);

            // Delete: the key leaves every posting it was in.
            let (r3, removed, _) = r2.delete(&1.into());
            assert_eq!(removed.len(), 1, "{repr}");
            assert_eq!(
                r3.index_on(1).unwrap().keys_eq(&"red".into()),
                vec![3.into()],
                "{repr}"
            );
        }
    }

    fn t3(key: i64, g: i64, h: i64) -> Tuple {
        Tuple::new(vec![key.into(), g.into(), h.into()])
    }

    /// Every full-width, strict-prefix and range probe of both indexes
    /// on `r` — a single-column one on `#1` and a composite on `(#1, #2)`
    /// — yields exactly the rows `find` gives for its keys.
    fn assert_index_rows_are_finds(r: &Relation, what: &str) {
        let single = r.indexes().get("g").expect("single-column index");
        let composite = r.indexes().get("gh").expect("composite index");
        let per_key =
            |keys: Vec<Value>| -> Vec<Tuple> { keys.iter().flat_map(|k| r.find(k)).collect() };
        for g in 0..4i64 {
            let g = Value::from(g);
            for (ix, values) in [
                (single, vec![g.clone()]),
                (composite, vec![g.clone()]),
                (composite, vec![g.clone(), 0.into()]),
                (composite, vec![g.clone(), 1.into()]),
            ] {
                assert_eq!(
                    r.index_rows(&ix.probe_prefix(&values)),
                    per_key(ix.keys_prefix(&values)),
                    "{what}: {} prefix {values:?}",
                    ix.name()
                );
            }
            for ix in [single, composite] {
                for (lo, hi) in [
                    (Some(&g), None),
                    (None, Some(&g)),
                    (Some(&g), Some(&3.into())),
                ] {
                    assert_eq!(
                        r.index_rows(&ix.probe_range(lo, hi)),
                        per_key(ix.keys_in_range(lo, hi)),
                        "{what}: {} range {lo:?}..{hi:?}",
                        ix.name()
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Index rows are the probed keys mapped through `find` — what
        /// a probe fetched before postings carried rows — on every
        /// representation, under inserts onto existing keys (buckets past
        /// one tuple), deletes and replaces, landed one at a time and in
        /// batches.
        #[test]
        fn index_rows_equal_finds_of_probed_keys(
            ops in proptest::collection::vec((0u8..6, 0i64..12, 0i64..4, 0i64..2), 0..48),
        ) {
            use crate::batch::BatchOp;
            for repr in all_reprs() {
                let mut r = Relation::empty(repr)
                    .create_index("g", 1)
                    .and_then(|r| r.create_index_multi("gh", &[1, 2]))
                    .expect("fresh relation");
                let mut pending: Vec<BatchOp> = Vec::new();
                for &(kind, k, g, h) in &ops {
                    // Kinds 3..6 land on their own, 0..3 join the batch.
                    let op = match kind % 3 {
                        0 => BatchOp::Insert(t3(k, g, h)),
                        1 => BatchOp::Delete(k.into()),
                        _ => BatchOp::Replace(t3(k, g, h)),
                    };
                    if kind >= 3 {
                        r = r.apply_batch(&pending).0;
                        pending.clear();
                        r = match op {
                            BatchOp::Insert(t) => r.insert(t).0,
                            BatchOp::Delete(k) => r.delete(&k).0,
                            BatchOp::Replace(t) => r.delete(t.key()).0.insert(t).0,
                        };
                    } else {
                        pending.push(op);
                    }
                }
                r = r.apply_batch(&pending).0;
                assert_index_rows_are_finds(&r, &repr.to_string());
                // A fresh build of the same contents agrees too.
                let rebuilt = Relation::from(r.store().clone())
                    .create_index("g", 1)
                    .and_then(|r| r.create_index_multi("gh", &[1, 2]))
                    .expect("fresh relation");
                assert_index_rows_are_finds(&rebuilt, &format!("{repr} rebuilt"));
            }
        }
    }

    #[test]
    fn replace_of_a_non_indexed_field_moves_the_carried_row() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(repr, [t3(1, 7, 0), t3(2, 7, 0)])
                .create_index("g", 1)
                .unwrap();
            for batch in [1, 4] {
                // Same indexed value, new third field.
                let mut ops = vec![crate::batch::BatchOp::Replace(t3(1, 7, 99))];
                ops.extend((0..batch - 1).map(|i| crate::batch::BatchOp::Insert(t3(10 + i, 8, 0))));
                let (r2, _, _) = r.apply_batch(&ops);
                let ix = r2.index_on(1).unwrap();
                assert_eq!(
                    r2.index_rows(&ix.probe_prefix(&[7.into()])),
                    vec![t3(1, 7, 99), t3(2, 7, 0)],
                    "{repr}, batch of {batch}"
                );
            }
        }
    }

    #[test]
    fn a_bucket_growing_past_one_tuple_falls_back_to_the_store() {
        for repr in all_reprs() {
            let r = Relation::from_tuples(repr, [t3(1, 5, 0)])
                .create_index("g", 1)
                .unwrap();
            let entry = |r: &Relation| -> PostingEntry {
                let ix = r.index_on(1).unwrap();
                let probed = ix.probe_prefix(&[5.into()]);
                assert_eq!(probed.len(), 1, "{repr}");
                probed[0].clone()
            };
            assert_eq!(entry(&r), (1.into(), Some(t3(1, 5, 0))), "{repr}");
            // 1 → 2 tuples under the same value: the entry drops its row.
            let (r2, _) = r.insert(t3(1, 5, 1));
            assert_eq!(entry(&r2), (1.into(), None), "{repr}");
            let ix = r2.index_on(1).unwrap();
            assert_eq!(
                r2.index_rows(&ix.probe_prefix(&[5.into()])),
                r2.find(&1.into()),
                "{repr}"
            );
            // 2 → 1: the sole survivor is carried again.
            let (r3, _, _) = r2.apply_batch(&[crate::batch::BatchOp::Replace(t3(1, 5, 2))]);
            assert_eq!(entry(&r3), (1.into(), Some(t3(1, 5, 2))), "{repr}");
        }
    }

    #[test]
    fn create_index_multi_attaches_composite() {
        let r = Relation::from_tuples(
            Repr::TREE,
            vec![
                Tuple::new(vec![1.into(), "a".into(), 10.into()]),
                Tuple::new(vec![2.into(), "a".into(), 20.into()]),
                Tuple::new(vec![3.into(), "b".into(), 10.into()]),
            ],
        );
        let r = r.create_index_multi("by_gs", &[1, 2]).unwrap();
        let ix = r.index_on(1).unwrap();
        assert_eq!(ix.fields(), &[1, 2]);
        assert_eq!(ix.keys_prefix(&["a".into(), 20.into()]), vec![2.into()]);
        assert!(r.create_index_multi("by_gs", &[2]).is_none());
        // Composite indexes follow single-tuple writes too.
        let (r2, _) = r.insert(Tuple::new(vec![4.into(), "a".into(), 20.into()]));
        assert_eq!(
            r2.index_on(1)
                .unwrap()
                .keys_prefix(&["a".into(), 20.into()]),
            vec![2.into(), 4.into()]
        );
    }

    #[test]
    fn create_index_rejects_duplicates_and_shares_store() {
        let r = Relation::from_tuples(Repr::TREE, tuples());
        let r1 = r.create_index("ix", 1).unwrap();
        assert!(r1.create_index("ix", 0).is_none());
        // The store itself is shared, not copied.
        assert!(r.store().ptr_eq(r1.store()));
        // But the relation values differ (index set changed).
        assert!(!r.ptr_eq(&r1));
    }

    #[test]
    fn unindexed_relation_ptr_eq_unchanged() {
        let r = Relation::from_tuples(Repr::List, tuples());
        let same = r.clone();
        assert!(r.ptr_eq(&same));
    }

    #[test]
    fn debug_format() {
        let r = Relation::empty(Repr::List);
        assert_eq!(format!("{r:?}"), "Relation[list; 0 tuples]");
    }
}
