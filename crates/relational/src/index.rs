//! Secondary indexes: persistent derived access paths.
//!
//! An index is "just another relation" in the paper's sense — a persistent
//! function of the database version, rebuilt path-by-path with everything
//! else shared (§2.2's full logical update by partial physical update
//! applies to *derived* structures too). Concretely, a [`SecondaryIndex`]
//! is a persistent B-tree ([`BTree`], the tree relations are stored in)
//! from attribute value to a *posting list* (a shared [`PList`],
//! copy-on-write like everything else), and an [`IndexSet`] is the cheaply
//! clonable collection of them a `Relation` carries.
//!
//! The map's keys are composite values behind one `Arc`, so a copied page
//! clones a pointer per key, not a value vector; probes look keys up by
//! the borrowed slice and build no `Arc`.
//!
//! A posting entry ([`PostingEntry`]) is a primary key plus, when that
//! key's bucket holds exactly one tuple, the tuple itself — the index
//! shares the row with the store instead of only naming it. A probe then
//! hands back rows without descending the primary store once per key
//! ([`Relation::index_rows`](crate::Relation::index_rows)). A key whose
//! bucket holds several tuples carries `None`: those tuples may sit under
//! different indexed values, so no single posting can own them, and the
//! reader takes the bucket from the store instead.
//!
//! Maintenance is batch-shaped: every write path reduces to a strictly
//! ascending run of per-key [`KeyTransition`]s (the tuples a key held
//! before and after), and [`IndexSet::apply_transitions`] folds the run
//! into every index with one `merge_batch` pass each — so an indexed write
//! stays `O(k + touched·log n)` per structure, and a relation with no
//! indexes pays nothing. Each touched posting is rebuilt by one merge of
//! the old posting with its sorted changes, sharing the old posting's
//! tail past the last change. Unsorted or duplicate-key runs are rejected
//! with the same panic discipline as the `merge_batch` kernels themselves.

use std::fmt;
use std::sync::Arc;

use fundb_persist::batch::assert_ascending_by;
use fundb_persist::{BTree, PList};

use crate::tuple::Tuple;
use crate::value::Value;

/// One per-key write effect: the tuples the key held before the write and
/// the tuples it holds after. A commit's run of these — strictly ascending
/// by `key` — is what the store, the indexes, the length counter and the
/// views all read (see [`crate::batch`]).
#[derive(Debug, Clone)]
pub struct KeyTransition {
    /// The primary key whose bucket changed.
    pub key: Value,
    /// The key's tuples before the write (any order; treated as a set of
    /// attribute values per indexed field).
    pub before: Vec<Tuple>,
    /// The key's tuples after the write.
    pub after: Vec<Tuple>,
}

impl KeyTransition {
    /// Builds a transition for `key` from its old and new buckets.
    pub fn new(key: Value, before: Vec<Tuple>, after: Vec<Tuple>) -> Self {
        KeyTransition { key, before, after }
    }
}

/// One component of a composite index key: an attribute value, or the
/// supremum sentinel. `Sup` is declared after `Val` so the derived order
/// places it above every value — appending it to a prefix yields an upper
/// bound covering every full key with that prefix.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum IxVal {
    /// An actual attribute value.
    Val(Value),
    /// Greater than every value (prefix-range upper bound).
    Sup,
}

/// The index map's page degree: a copied page holds at most `2 * 4 - 1`
/// keys. Chosen by measured index upkeep per transition among 4, 8 and 16
/// (DESIGN.md §13).
const MAP_DEGREE: usize = 4;

/// A composite index key: one value per indexed field, shared so that a
/// copied page clones a pointer per key.
type IxKey = Arc<[IxVal]>;

/// `t`'s attributes at `fields`, compared in place of its composite key.
fn indexed_values<'a>(
    fields: &'a [usize],
    t: &'a Tuple,
) -> impl Iterator<Item = Option<&'a Value>> + 'a {
    fields.iter().map(move |&f| t.get(f))
}

/// The composite key a tuple contributes to an index over `fields`, or
/// `None` when the tuple is too narrow for any indexed attribute.
fn composite_key(fields: &[usize], t: &Tuple) -> Option<IxKey> {
    fields
        .iter()
        .map(|&f| t.get(f).cloned().map(IxVal::Val))
        .collect()
}

/// One posting entry: a primary key holding at least one tuple with the
/// posting's values, and that key's tuple when its bucket holds exactly
/// one. `None` marks a bucket of several tuples — they may sit under
/// different indexed values, so the reader takes the bucket from the store.
pub type PostingEntry = (Value, Option<Tuple>);

/// The entry `key` gets for a bucket holding `bucket`: the tuple itself
/// when it is the only one.
fn sole(bucket: &[Tuple]) -> Option<&Tuple> {
    match bucket {
        [t] => Some(t),
        _ => None,
    }
}

/// The union of `postings`, ascending by key and deduplicated. A key in
/// several postings has a multi-tuple bucket, so all its entries are the
/// same `None` and any one of them stands for the rest.
fn union<'a>(postings: impl IntoIterator<Item = &'a PList<PostingEntry>>) -> Vec<&'a PostingEntry> {
    let mut out: Vec<&PostingEntry> = postings.into_iter().flat_map(PList::iter).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

/// A persistent secondary index on one or more attributes: a lexicographic
/// value tuple → posting list of [`PostingEntry`]s, ascending by primary
/// key, one per key holding at least one tuple with those values. An entry
/// carries the key's tuple when the key's bucket holds only that tuple, so
/// a probe yields rows, not just keys, for every single-tuple bucket.
#[derive(Clone)]
pub struct SecondaryIndex {
    name: Arc<str>,
    fields: Arc<[usize]>,
    map: BTree<IxKey, PList<PostingEntry>>,
    /// Total posting entries (sum of posting-list lengths): together with
    /// [`distinct_values`](Self::distinct_values) this gives the planner
    /// an average-fanout hint without an O(n) walk.
    entries: usize,
}

impl fmt::Debug for SecondaryIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols: Vec<String> = self.fields.iter().map(|f| format!("#{f}")).collect();
        write!(
            f,
            "SecondaryIndex[{} on {}; {} values]",
            self.name,
            cols.join(","),
            self.map.len()
        )
    }
}

impl SecondaryIndex {
    /// Builds an index named `name` on attribute `field` from a full pass
    /// over `tuples` — the path used by `create index` DDL and by crash
    /// recovery, which rebuilds contents from the recovered relation.
    pub fn build<I: IntoIterator<Item = Tuple>>(name: &str, field: usize, tuples: I) -> Self {
        Self::build_multi(name, &[field], tuples)
    }

    /// Builds a (possibly composite) index over `fields` in lexicographic
    /// order. Tuples missing *any* indexed attribute are unindexed.
    ///
    /// One sorted pass: the tuples are grouped by key (a key-ordered scan
    /// already is), each indexed tuple is paired with its entry's row, and
    /// a stable sort of the pairs by indexed values leaves every posting's
    /// keys ascending. Values are compared in place; a composite key is
    /// built once per distinct value, not once per tuple.
    ///
    /// # Panics
    ///
    /// Panics when `fields` is empty.
    pub fn build_multi<I: IntoIterator<Item = Tuple>>(
        name: &str,
        fields: &[usize],
        tuples: I,
    ) -> Self {
        assert!(!fields.is_empty(), "an index needs at least one field");
        let mut rows: Vec<Tuple> = tuples.into_iter().collect();
        rows.sort_by(|a, b| a.key().cmp(b.key()));
        let mut pairs: Vec<(&Tuple, Option<&Tuple>)> = Vec::with_capacity(rows.len());
        for bucket in rows.chunk_by(|a, b| a.key() == b.key()) {
            let row = sole(bucket);
            let indexed = bucket
                .iter()
                .filter(|t| indexed_values(fields, t).all(|v| v.is_some()));
            pairs.extend(indexed.map(|t| (t, row)));
        }
        pairs.sort_by(|a, b| indexed_values(fields, a.0).cmp(indexed_values(fields, b.0)));
        // Cons each posting from its last entry; the values come out
        // descending, so the effect list is reversed once at the end.
        let mut effects: Vec<(IxKey, Option<PList<PostingEntry>>)> = Vec::new();
        let mut posting: PList<PostingEntry> = PList::nil();
        let mut entries = 0usize;
        let mut pairs = pairs.into_iter().rev().peekable();
        while let Some((t, row)) = pairs.next() {
            // A bucket's tuples sharing one value make one entry.
            if posting.head().is_none_or(|(k, _)| k != t.key()) {
                posting = PList::cons((t.key().clone(), row.cloned()), posting);
                entries += 1;
            }
            if pairs
                .peek()
                .is_none_or(|(next, _)| indexed_values(fields, next).ne(indexed_values(fields, t)))
            {
                let value = composite_key(fields, t).expect("only indexed tuples are paired");
                effects.push((value, Some(std::mem::take(&mut posting))));
            }
        }
        effects.reverse();
        let (map, _) = BTree::new(MAP_DEGREE).merge_batch(&effects);
        SecondaryIndex {
            name: Arc::from(name),
            fields: fields.into(),
            map,
            entries,
        }
    }

    /// The index's name (unique within its relation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The first (or only) attribute position the index covers.
    pub fn field(&self) -> usize {
        self.fields[0]
    }

    /// The attribute positions the index covers, in key order.
    pub fn fields(&self) -> &[usize] {
        &self.fields
    }

    /// Number of indexed columns.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Number of distinct (composite) attribute values currently indexed.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Total posting entries across all values (≥ `distinct_values`);
    /// `entries / distinct_values` is the average posting fanout.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The posting entries matching `values` against the leading index
    /// columns, ascending by key and deduplicated. A full-width match is
    /// one tree descent to a single posting, already in key order; a
    /// strict prefix is a range probe over the contiguous run of postings
    /// sharing the prefix, merged by one sort.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or wider than the index.
    pub fn probe_prefix(&self, values: &[Value]) -> Vec<&PostingEntry> {
        assert!(
            !values.is_empty() && values.len() <= self.fields.len(),
            "prefix width {} outside 1..={}",
            values.len(),
            self.fields.len()
        );
        let mut lo: Vec<IxVal> = values.iter().cloned().map(IxVal::Val).collect();
        if values.len() == self.fields.len() {
            return self
                .map
                .get(&lo[..])
                .map(|p| p.iter().collect())
                .unwrap_or_default();
        }
        // The prefix followed by `Sup` bounds every full key sharing it.
        lo.push(IxVal::Sup);
        let (lo, hi) = (&lo[..values.len()], &lo[..]);
        union(self.map.range(lo, hi).into_iter().map(|(_, p)| p))
    }

    /// The posting entries whose first indexed attribute lies in the
    /// (inclusive) range, ascending by key and deduplicated. Open bounds
    /// default to the smallest/largest indexed value.
    pub fn probe_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<&PostingEntry> {
        // A bare prefix sorts below every full key sharing it; the prefix
        // followed by `Sup` above every one.
        let lo_bound;
        let lo_key: &[IxVal] = match lo {
            Some(v) => {
                lo_bound = [IxVal::Val(v.clone())];
                &lo_bound
            }
            None => match self.map.min() {
                Some((k, _)) => k,
                None => return Vec::new(),
            },
        };
        let hi_bound;
        let hi_key: &[IxVal] = match hi {
            Some(v) => {
                hi_bound = [IxVal::Val(v.clone()), IxVal::Sup];
                &hi_bound
            }
            None => match self.map.max() {
                Some((k, _)) => k,
                None => return Vec::new(),
            },
        };
        union(self.map.range(lo_key, hi_key).into_iter().map(|(_, p)| p))
    }

    /// The primary keys holding at least one tuple whose first indexed
    /// attribute equals `value`, in ascending key order. On a composite
    /// index this is a width-1 prefix probe.
    pub fn keys_eq(&self, value: &Value) -> Vec<Value> {
        self.keys_prefix(std::slice::from_ref(value))
    }

    /// The keys of [`probe_prefix`](Self::probe_prefix).
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or wider than the index.
    pub fn keys_prefix(&self, values: &[Value]) -> Vec<Value> {
        keys_of(self.probe_prefix(values))
    }

    /// The keys of [`probe_range`](Self::probe_range).
    pub fn keys_in_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<Value> {
        keys_of(self.probe_range(lo, hi))
    }

    /// `true` when both indexes are physically the same value.
    pub fn ptr_eq(&self, other: &SecondaryIndex) -> bool {
        Arc::ptr_eq(&self.name, &other.name)
            && self.fields == other.fields
            && self.map.ptr_eq(&other.map)
    }

    /// The distinct composite values `bucket` contributes, ascending.
    fn values_of(&self, bucket: &[Tuple]) -> Vec<IxKey> {
        let mut values: Vec<IxKey> = bucket
            .iter()
            .filter_map(|t| composite_key(&self.fields, t))
            .collect();
        if values.len() > 1 {
            values.sort();
            values.dedup();
        }
        values
    }

    /// Folds one ascending transition run into the index with a single
    /// `merge_batch` pass; the tree shares every untouched path.
    ///
    /// Each transition yields per-value changes to its key's entry: a drop
    /// for every value the key leaves, and a put for every value it joins
    /// — or keeps, when the bucket's single tuple changed (a carried row
    /// must follow the store even when the indexed values did not move).
    /// A stable sort groups the changes by value with keys still ascending,
    /// and each touched posting is one merge of the old posting with its
    /// changes.
    fn apply_transitions(&self, runs: &[KeyTransition]) -> SecondaryIndex {
        let mut changes: Vec<PostingChange<'_>> = Vec::new();
        for run in runs {
            let before = self.values_of(&run.before);
            let after = self.values_of(&run.after);
            let row = sole(&run.after);
            let row_changed = sole(&run.before) != row;
            for v in &before {
                if after.binary_search(v).is_err() {
                    changes.push((v.clone(), &run.key, None));
                }
            }
            for v in after {
                if row_changed || before.binary_search(&v).is_err() {
                    changes.push((v, &run.key, Some(row)));
                }
            }
        }
        if changes.is_empty() {
            return self.clone();
        }
        changes.sort_by(|a, b| a.0.cmp(&b.0));
        let mut entries = self.entries as isize;
        let effects: Vec<(IxKey, Option<PList<PostingEntry>>)> = changes
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let value = &group[0].0;
                let (posting, delta) = merge_posting(self.map.get(value), group);
                entries += delta;
                (value.clone(), (!posting.is_empty()).then_some(posting))
            })
            .collect();
        let (map, _) = self.map.merge_batch(&effects);
        SecondaryIndex {
            name: self.name.clone(),
            fields: self.fields.clone(),
            map,
            entries: entries as usize,
        }
    }
}

/// One change to the posting of composite value `.0`: key `.1` gets an
/// entry carrying `row` (`Some(row)`, replacing any entry it had), or
/// leaves the posting (`None`).
type PostingChange<'a> = (IxKey, &'a Value, Option<Option<&'a Tuple>>);

/// `old` with `changes` (one value's, strictly ascending by key) applied,
/// and the change in its entry count. One walk: entries below the last
/// change are copied, the rest of `old` is shared as the new tail.
fn merge_posting(
    old: Option<&PList<PostingEntry>>,
    changes: &[PostingChange<'_>],
) -> (PList<PostingEntry>, isize) {
    let mut rest = old.cloned().unwrap_or_default();
    let mut copied: Vec<PostingEntry> = Vec::new();
    let mut delta = 0isize;
    for (_, key, change) in changes {
        while let Some(e) = rest.head().filter(|e| e.0 < **key) {
            copied.push(e.clone());
            rest = rest.tail().expect("a list with a head has a tail");
        }
        if rest.head().is_some_and(|e| e.0 == **key) {
            rest = rest.tail().expect("a list with a head has a tail");
            delta -= 1;
        }
        if let Some(row) = change {
            copied.push(((*key).clone(), row.cloned()));
            delta += 1;
        }
    }
    let posting = copied
        .into_iter()
        .rev()
        .fold(rest, |tail, e| PList::cons(e, tail));
    (posting, delta)
}

/// The keys of a probe's entries.
fn keys_of(entries: Vec<&PostingEntry>) -> Vec<Value> {
    entries.into_iter().map(|(k, _)| k.clone()).collect()
}

/// The secondary indexes attached to one relation. Cloning is O(1): the
/// set is an `Arc` slice, and each index is a persistent tree.
#[derive(Clone, Default)]
pub struct IndexSet {
    indexes: Arc<[SecondaryIndex]>,
}

impl fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.indexes.iter()).finish()
    }
}

impl IndexSet {
    /// The empty index set.
    pub fn empty() -> Self {
        IndexSet::default()
    }

    /// `true` when no indexes are attached (the common case — an
    /// unindexed relation pays nothing on writes).
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Number of attached indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Iterates over the attached indexes in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &SecondaryIndex> {
        self.indexes.iter()
    }

    /// The index named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|ix| ix.name() == name)
    }

    /// The first index covering attribute `field`, if any.
    pub fn on_field(&self, field: usize) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|ix| ix.field() == field)
    }

    /// Adds `index` to the set; `None` if the name is already taken.
    pub fn with(&self, index: SecondaryIndex) -> Option<IndexSet> {
        if self.get(index.name()).is_some() {
            return None;
        }
        let mut v: Vec<SecondaryIndex> = self.indexes.to_vec();
        v.push(index);
        Some(IndexSet { indexes: v.into() })
    }

    /// Applies one batch of per-key bucket transitions to every index,
    /// one `merge_batch` pass each.
    ///
    /// `runs` must be strictly ascending by primary key — the same
    /// discipline (and the same panic, via
    /// [`fundb_persist::batch::assert_ascending_by`]) as the `merge_batch`
    /// kernels this feeds.
    pub fn apply_transitions(&self, runs: &[KeyTransition]) -> IndexSet {
        assert_ascending_by(runs, |r| &r.key);
        if self.indexes.is_empty() || runs.is_empty() {
            return self.clone();
        }
        let indexes: Vec<SecondaryIndex> = self
            .indexes
            .iter()
            .map(|ix| ix.apply_transitions(runs))
            .collect();
        IndexSet {
            indexes: indexes.into(),
        }
    }

    /// `true` when both sets are physically the same value (including the
    /// shared empty set).
    pub fn ptr_eq(&self, other: &IndexSet) -> bool {
        (self.indexes.is_empty() && other.indexes.is_empty())
            || Arc::ptr_eq(&self.indexes, &other.indexes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: i64, group: &str) -> Tuple {
        Tuple::new(vec![key.into(), group.into()])
    }

    #[test]
    fn build_and_point_lookup() {
        let ix = SecondaryIndex::build("by_group", 1, vec![t(1, "a"), t(2, "b"), t(3, "a")]);
        assert_eq!(ix.keys_eq(&"a".into()), vec![1.into(), 3.into()]);
        assert_eq!(ix.keys_eq(&"b".into()), vec![2.into()]);
        assert!(ix.keys_eq(&"z".into()).is_empty());
        assert_eq!(ix.distinct_values(), 2);
    }

    #[test]
    fn range_lookup_dedups_and_sorts() {
        let ix = SecondaryIndex::build(
            "by_group",
            1,
            vec![t(4, "c"), t(1, "a"), t(2, "b"), t(3, "a")],
        );
        assert_eq!(
            ix.keys_in_range(Some(&"a".into()), Some(&"b".into())),
            vec![1.into(), 2.into(), 3.into()]
        );
        // Open bounds cover everything.
        assert_eq!(ix.keys_in_range(None, None).len(), 4);
        assert!(ix
            .keys_in_range(Some(&"x".into()), Some(&"a".into()))
            .is_empty());
    }

    #[test]
    fn transitions_add_move_and_remove() {
        let set = IndexSet::empty()
            .with(SecondaryIndex::build("by_group", 1, vec![t(1, "a")]))
            .unwrap();
        // Key 2 arrives in group b; key 1 moves from a to c.
        let set = set.apply_transitions(&[
            KeyTransition::new(1.into(), vec![t(1, "a")], vec![t(1, "c")]),
            KeyTransition::new(2.into(), vec![], vec![t(2, "b")]),
        ]);
        let ix = set.get("by_group").unwrap();
        assert!(ix.keys_eq(&"a".into()).is_empty());
        assert_eq!(ix.keys_eq(&"b".into()), vec![2.into()]);
        assert_eq!(ix.keys_eq(&"c".into()), vec![1.into()]);
        // Key 2 deleted entirely.
        let set = set.apply_transitions(&[KeyTransition::new(2.into(), vec![t(2, "b")], vec![])]);
        assert!(set.get("by_group").unwrap().keys_eq(&"b".into()).is_empty());
    }

    #[test]
    fn missing_field_tuples_are_unindexed() {
        let narrow = Tuple::new(vec![7.into()]);
        let ix = SecondaryIndex::build("by_group", 1, vec![narrow.clone(), t(1, "a")]);
        assert_eq!(ix.distinct_values(), 1);
        // And transitions on narrow tuples are no-ops.
        let set = IndexSet::empty().with(ix).unwrap();
        let set2 = set.apply_transitions(&[KeyTransition::new(8.into(), vec![], vec![narrow])]);
        assert_eq!(set2.get("by_group").unwrap().distinct_values(), 1);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let set = IndexSet::empty()
            .with(SecondaryIndex::build("ix", 1, vec![]))
            .unwrap();
        assert!(set.with(SecondaryIndex::build("ix", 2, vec![])).is_none());
    }

    #[test]
    #[should_panic(expected = "merge_batch requires strictly ascending keys (violated at index 1)")]
    fn unsorted_transition_run_panics_like_merge_batch() {
        let set = IndexSet::empty()
            .with(SecondaryIndex::build("ix", 1, vec![]))
            .unwrap();
        set.apply_transitions(&[
            KeyTransition::new(5.into(), vec![], vec![t(5, "a")]),
            KeyTransition::new(3.into(), vec![], vec![t(3, "b")]),
        ]);
    }

    #[test]
    #[should_panic(expected = "merge_batch requires strictly ascending keys")]
    fn duplicate_transition_keys_panic_like_merge_batch() {
        let set = IndexSet::empty()
            .with(SecondaryIndex::build("ix", 1, vec![]))
            .unwrap();
        set.apply_transitions(&[
            KeyTransition::new(3.into(), vec![], vec![t(3, "a")]),
            KeyTransition::new(3.into(), vec![], vec![t(3, "b")]),
        ]);
    }

    fn t3(key: i64, group: &str, score: i64) -> Tuple {
        Tuple::new(vec![key.into(), group.into(), score.into()])
    }

    #[test]
    fn composite_point_and_prefix_lookup() {
        let ix = SecondaryIndex::build_multi(
            "by_gs",
            &[1, 2],
            vec![
                t3(1, "a", 10),
                t3(2, "a", 20),
                t3(3, "b", 10),
                t3(4, "a", 10),
            ],
        );
        assert_eq!(ix.width(), 2);
        assert_eq!(ix.field(), 1);
        assert_eq!(ix.fields(), &[1, 2]);
        // Full-width: one posting lookup.
        assert_eq!(
            ix.keys_prefix(&["a".into(), 10.into()]),
            vec![1.into(), 4.into()]
        );
        assert!(ix.keys_prefix(&["b".into(), 99.into()]).is_empty());
        // Width-1 prefix: range probe over the contiguous run.
        assert_eq!(
            ix.keys_prefix(&["a".into()]),
            vec![1.into(), 2.into(), 4.into()]
        );
        assert_eq!(ix.keys_eq(&"b".into()), vec![3.into()]);
        // First-column range still works on a composite index.
        assert_eq!(
            ix.keys_in_range(Some(&"a".into()), Some(&"b".into())).len(),
            4
        );
        assert_eq!(ix.distinct_values(), 3);
        assert_eq!(ix.entries(), 4);
    }

    #[test]
    fn composite_transitions_maintain_entries() {
        let set = IndexSet::empty()
            .with(SecondaryIndex::build_multi(
                "by_gs",
                &[1, 2],
                vec![t3(1, "a", 10)],
            ))
            .unwrap();
        // Key 2 arrives at (a, 10); key 1 moves to (b, 10).
        let set = set.apply_transitions(&[
            KeyTransition::new(1.into(), vec![t3(1, "a", 10)], vec![t3(1, "b", 10)]),
            KeyTransition::new(2.into(), vec![], vec![t3(2, "a", 10)]),
        ]);
        let ix = set.get("by_gs").unwrap();
        assert_eq!(ix.keys_prefix(&["a".into(), 10.into()]), vec![2.into()]);
        assert_eq!(ix.keys_prefix(&["b".into(), 10.into()]), vec![1.into()]);
        assert_eq!(ix.entries(), 2);
        // Deleting key 2 drops its posting and the entry count.
        let set =
            set.apply_transitions(&[KeyTransition::new(2.into(), vec![t3(2, "a", 10)], vec![])]);
        let ix = set.get("by_gs").unwrap();
        assert!(ix.keys_prefix(&["a".into(), 10.into()]).is_empty());
        assert_eq!(ix.entries(), 1);
        assert_eq!(ix.distinct_values(), 1);
    }

    #[test]
    fn composite_skips_narrow_tuples() {
        let narrow = Tuple::new(vec![7.into(), "g".into()]);
        let ix = SecondaryIndex::build_multi("by_gs", &[1, 2], vec![narrow, t3(1, "a", 10)]);
        assert_eq!(ix.distinct_values(), 1);
    }

    #[test]
    fn untouched_values_share_structure() {
        let keys: Vec<Tuple> = (0..64).map(|k| t(k, &format!("g{}", k % 8))).collect();
        let set = IndexSet::empty()
            .with(SecondaryIndex::build("ix", 1, keys))
            .unwrap();
        // A transition that changes nothing returns a physically equal map.
        let same = set.apply_transitions(&[KeyTransition::new(
            0.into(),
            vec![t(0, "g0")],
            vec![t(0, "g0")],
        )]);
        assert!(set.get("ix").unwrap().ptr_eq(same.get("ix").unwrap()));
    }
}
