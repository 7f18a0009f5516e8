//! Secondary indexes: persistent derived access paths.
//!
//! An index is "just another relation" in the paper's sense — a persistent
//! function of the database version, rebuilt path-by-path with everything
//! else shared (§2.2's full logical update by partial physical update
//! applies to *derived* structures too). Concretely, a [`SecondaryIndex`]
//! is a persistent 2-3 tree from attribute value to a *posting list* of
//! primary keys (a shared [`PList`], copy-on-write like everything else),
//! and an [`IndexSet`] is the cheaply clonable collection of them a
//! `Relation` carries.
//!
//! Maintenance is batch-shaped: every write path reduces to a strictly
//! ascending run of per-key [`KeyTransition`]s (the tuples a key held
//! before and after), and [`IndexSet::apply_transitions`] folds the run
//! into every index with one `merge_batch` pass each — so an indexed write
//! stays `O(k + touched·log n)` per structure, and a relation with no
//! indexes pays nothing. Unsorted or duplicate-key runs are rejected with
//! the same panic discipline as the `merge_batch` kernels themselves.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use fundb_persist::batch::assert_ascending_by;
use fundb_persist::{PList, Tree23};

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

/// The composite key a tuple contributes to an index over `fields`, or
/// `None` when the tuple is too narrow for any indexed attribute.
fn composite_key(fields: &[usize], t: &Tuple) -> Option<Vec<IxVal>> {
    fields
        .iter()
        .map(|&f| t.get(f).cloned().map(IxVal::Val))
        .collect()
}

/// A persistent secondary index on one or more attributes: a lexicographic
/// value tuple → ascending posting list of primary keys holding at least
/// one tuple with those values.
#[derive(Clone)]
pub struct SecondaryIndex {
    name: Arc<str>,
    fields: Arc<[usize]>,
    map: Tree23<Vec<IxVal>, PList<Value>>,
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
    /// # Panics
    ///
    /// Panics when `fields` is empty.
    pub fn build_multi<I: IntoIterator<Item = Tuple>>(
        name: &str,
        fields: &[usize],
        tuples: I,
    ) -> Self {
        assert!(!fields.is_empty(), "an index needs at least one field");
        let mut grouped: BTreeMap<Vec<IxVal>, BTreeSet<Value>> = BTreeMap::new();
        for t in tuples {
            if let Some(k) = composite_key(fields, &t) {
                grouped.entry(k).or_default().insert(t.key().clone());
            }
        }
        let mut entries = 0usize;
        let effects: Vec<(Vec<IxVal>, Option<PList<Value>>)> = grouped
            .into_iter()
            .map(|(v, keys)| {
                entries += keys.len();
                (v, Some(posting_from(&keys)))
            })
            .collect();
        let (map, _) = Tree23::new().merge_batch(&effects);
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

    /// The primary keys holding at least one tuple whose first indexed
    /// attribute equals `value`, in ascending key order. On a composite
    /// index this is a width-1 prefix probe.
    pub fn keys_eq(&self, value: &Value) -> Vec<Value> {
        self.keys_prefix(std::slice::from_ref(value))
    }

    /// The primary keys matching `values` against the leading index
    /// columns. A full-width match is one tree descent to a single
    /// posting; a strict prefix is a range probe over the contiguous run
    /// of keys sharing the prefix, deduplicated and ascending.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty or wider than the index.
    pub fn keys_prefix(&self, values: &[Value]) -> Vec<Value> {
        assert!(
            !values.is_empty() && values.len() <= self.fields.len(),
            "prefix width {} outside 1..={}",
            values.len(),
            self.fields.len()
        );
        let lo: Vec<IxVal> = values.iter().cloned().map(IxVal::Val).collect();
        if values.len() == self.fields.len() {
            return self
                .map
                .get(&lo)
                .map(|p| p.iter().cloned().collect())
                .unwrap_or_default();
        }
        let mut hi = lo.clone();
        hi.push(IxVal::Sup);
        let mut keys: BTreeSet<Value> = BTreeSet::new();
        for (_, posting) in self.map.range(&lo, &hi) {
            keys.extend(posting.iter().cloned());
        }
        keys.into_iter().collect()
    }

    /// The primary keys holding at least one tuple whose first indexed
    /// attribute lies in the (inclusive) range, deduplicated and
    /// ascending. Open bounds default to the smallest/largest indexed
    /// value.
    pub fn keys_in_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<Value> {
        let lo_key: Vec<IxVal> = match lo {
            // A bare prefix sorts below every full key sharing it.
            Some(v) => vec![IxVal::Val(v.clone())],
            None => match self.map.min() {
                Some((k, _)) => k.clone(),
                None => return Vec::new(),
            },
        };
        let hi_key: Vec<IxVal> = match hi {
            Some(v) => vec![IxVal::Val(v.clone()), IxVal::Sup],
            None => match self.map.max() {
                Some((k, _)) => k.clone(),
                None => return Vec::new(),
            },
        };
        if lo_key > hi_key {
            return Vec::new();
        }
        let mut keys: BTreeSet<Value> = BTreeSet::new();
        for (_, posting) in self.map.range(&lo_key, &hi_key) {
            keys.extend(posting.iter().cloned());
        }
        keys.into_iter().collect()
    }

    /// `true` when both indexes are physically the same value.
    pub fn ptr_eq(&self, other: &SecondaryIndex) -> bool {
        Arc::ptr_eq(&self.name, &other.name)
            && self.fields == other.fields
            && self.map.ptr_eq(&other.map)
    }

    /// Folds one ascending transition run into the index with a single
    /// `merge_batch` pass. Postings are rebuilt per touched attribute
    /// value (they are short); the tree shares every untouched path.
    fn apply_transitions(&self, runs: &[KeyTransition]) -> SecondaryIndex {
        // composite value → (keys gaining the value, keys losing it)
        let mut delta: BTreeMap<Vec<IxVal>, (BTreeSet<&Value>, BTreeSet<&Value>)> = BTreeMap::new();
        for run in runs {
            let before: BTreeSet<Vec<IxVal>> = run
                .before
                .iter()
                .filter_map(|t| composite_key(&self.fields, t))
                .collect();
            let after: BTreeSet<Vec<IxVal>> = run
                .after
                .iter()
                .filter_map(|t| composite_key(&self.fields, t))
                .collect();
            for v in after.difference(&before) {
                delta.entry(v.clone()).or_default().0.insert(&run.key);
            }
            for v in before.difference(&after) {
                delta.entry(v.clone()).or_default().1.insert(&run.key);
            }
        }
        if delta.is_empty() {
            return self.clone();
        }
        let mut entries = self.entries;
        let mut effects: Vec<(Vec<IxVal>, Option<PList<Value>>)> = Vec::with_capacity(delta.len());
        for (value, (add, del)) in delta {
            let mut keys: BTreeSet<Value> = self
                .map
                .get(&value)
                .map(|p| p.iter().cloned().collect())
                .unwrap_or_default();
            let old_len = keys.len();
            for k in &del {
                keys.remove(*k);
            }
            let mut changed = keys.len() != old_len;
            for k in add {
                changed |= keys.insert(k.clone());
            }
            if !changed {
                continue;
            }
            entries = entries - old_len + keys.len();
            let effect = if keys.is_empty() {
                None
            } else {
                Some(posting_from(&keys))
            };
            effects.push((value, effect));
        }
        if effects.is_empty() {
            return self.clone();
        }
        let (map, _) = self.map.merge_batch(&effects);
        SecondaryIndex {
            name: self.name.clone(),
            fields: self.fields.clone(),
            map,
            entries,
        }
    }
}

/// An ascending posting list from a sorted key set.
fn posting_from(keys: &BTreeSet<Value>) -> PList<Value> {
    let mut p = PList::nil();
    for k in keys.iter().rev() {
        p = PList::cons(k.clone(), p);
    }
    p
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
