//! Incrementally-maintained materialized views.
//!
//! A view is an ordinary [`Relation`] whose contents are *derived* from one
//! or two base relations by a [`ViewDef`]. Instead of recomputing the
//! derivation per query, the write path turns each commit's per-key
//! [`KeyTransition`] runs (the same runs secondary-index maintenance
//! already derives) into view transitions — a differential pass — and
//! applies them with the existing merge kernels, so a commit costs
//! O(touched · log n) regardless of the base or view size.
//!
//! Delta derivation rules, per operator:
//!
//! * **Selection** — a base transition `(k, before, after)` becomes the
//!   view transition `(k, filter(before), filter(after))`: the four-way
//!   old-in/new-in case split (enter, leave, stay, never-in) collapses
//!   into filtering both sides of the transition.
//! * **Join** (`L ⋈ R on #lf = #rf`, rows keyed by the left key) — a
//!   left-side transition re-derives its key's joined bucket by probing
//!   `R` with each `after` tuple's join value (primary key, secondary
//!   index, or scan — whatever `R` offers). A right-side transition first
//!   collects the join *values* whose matches changed, probes `L` for the
//!   affected left keys, and reconstructs exactly those buckets from
//!   their current view rows plus the departed/arrived right rows the
//!   transition itself carries — `R` (the typically-large fact side) is
//!   never consulted, let alone rescanned.
//! * **Grouped aggregates** (`count`/`sum` per group) — transitions fold
//!   into signed per-group diffs (`-1`/`-x` for departing tuples, `+1`/
//!   `+x` for arriving ones) which are added onto the group's current
//!   slot; a count reaching zero deletes the group row.
//!
//! Every function here is pure: deltas are derived from values and applied
//! functionally, so views inherit the persistence story of their bases.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::database::RelationName;
use crate::index::KeyTransition;
use crate::relation::{Relation, Repr};
use crate::tuple::{concat_on, Tuple};
use crate::value::Value;

/// A position-resolved predicate for a `select` view definition.
///
/// The query layer's predicates may reference attributes by name; a view
/// definition lives in the relational layer (below schemas' name
/// resolution) and must survive checkpoints, so it stores positions only.
/// Evaluation mirrors the query layer exactly: an out-of-range field
/// matches nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewFilter {
    /// `#field = value`
    Eq(usize, Value),
    /// `#field != value`
    Ne(usize, Value),
    /// `#field < value`
    Lt(usize, Value),
    /// `#field > value`
    Gt(usize, Value),
    /// Both sides must hold.
    And(Box<ViewFilter>, Box<ViewFilter>),
    /// Either side must hold.
    Or(Box<ViewFilter>, Box<ViewFilter>),
}

impl ViewFilter {
    /// Whether `tuple` satisfies the filter. Out-of-range fields fail the
    /// comparison (same semantics as the query layer's predicates).
    pub fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            ViewFilter::Eq(f, v) => tuple.get(*f) == Some(v),
            ViewFilter::Ne(f, v) => matches!(tuple.get(*f), Some(x) if x != v),
            ViewFilter::Lt(f, v) => matches!(tuple.get(*f), Some(x) if x < v),
            ViewFilter::Gt(f, v) => matches!(tuple.get(*f), Some(x) if x > v),
            ViewFilter::And(a, b) => a.eval(tuple) && b.eval(tuple),
            ViewFilter::Or(a, b) => a.eval(tuple) || b.eval(tuple),
        }
    }
}

impl fmt::Display for ViewFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewFilter::Eq(i, v) => write!(f, "#{i} = {v}"),
            ViewFilter::Ne(i, v) => write!(f, "#{i} != {v}"),
            ViewFilter::Lt(i, v) => write!(f, "#{i} < {v}"),
            ViewFilter::Gt(i, v) => write!(f, "#{i} > {v}"),
            ViewFilter::And(a, b) => write!(f, "({a} and {b})"),
            ViewFilter::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

/// What a view computes, with every field reference resolved to a
/// position. This is what checkpoints persist and the write path consults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewDef {
    /// `select from base [where filter]` — rows are the base rows that
    /// pass the filter, keyed like the base.
    Select {
        /// The base relation.
        base: RelationName,
        /// The row filter; `None` keeps every row.
        filter: Option<ViewFilter>,
    },
    /// `join left with right on #left_field = #right_field` — rows are
    /// [`concat_on`]`(l, r, right_field)` (all of `l`, then `r` minus its
    /// join attribute), keyed by the left tuple's key.
    Join {
        /// The left (driving) base relation.
        left: RelationName,
        /// The right (probed) base relation.
        right: RelationName,
        /// The left join attribute position.
        left_field: usize,
        /// The right join attribute position.
        right_field: usize,
    },
    /// `count base by #group` — one row `(group_value, count)` per
    /// nonempty group, keyed by the group value.
    GroupCount {
        /// The base relation.
        base: RelationName,
        /// The grouping attribute position.
        group: usize,
    },
    /// `sum #field of base by #group` — one row
    /// `(group_value, sum, count)` per nonempty group; the count makes
    /// group emptiness detectable so sums can go negative or zero without
    /// deleting the row. Non-integer summands contribute 0.
    GroupSum {
        /// The base relation.
        base: RelationName,
        /// The summed attribute position.
        field: usize,
        /// The grouping attribute position.
        group: usize,
    },
}

impl ViewDef {
    /// The base relations the view reads, left first.
    pub fn bases(&self) -> Vec<&RelationName> {
        match self {
            ViewDef::Select { base, .. }
            | ViewDef::GroupCount { base, .. }
            | ViewDef::GroupSum { base, .. } => vec![base],
            ViewDef::Join { left, right, .. } => {
                if left == right {
                    vec![left]
                } else {
                    vec![left, right]
                }
            }
        }
    }

    /// Whether the view reads `name`.
    pub fn depends_on(&self, name: &RelationName) -> bool {
        self.bases().contains(&name)
    }
}

impl fmt::Display for ViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewDef::Select { base, filter: None } => write!(f, "select from {base}"),
            ViewDef::Select {
                base,
                filter: Some(p),
            } => write!(f, "select from {base} where {p}"),
            ViewDef::Join {
                left,
                right,
                left_field,
                right_field,
            } => write!(
                f,
                "join {left} with {right} on #{left_field} = #{right_field}"
            ),
            ViewDef::GroupCount { base, group } => write!(f, "count {base} by #{group}"),
            ViewDef::GroupSum { base, field, group } => {
                write!(f, "sum #{field} of {base} by #{group}")
            }
        }
    }
}

/// Every `right` tuple whose join attribute equals `value`, probed through
/// whatever structure `right` offers: the primary key when the join
/// attribute *is* the key, a secondary index on it when one exists, a scan
/// otherwise.
fn probe_matches(right: &Relation, rf: usize, value: &Value) -> Vec<Tuple> {
    if rf == 0 {
        return right.find(value);
    }
    if let Some(ix) = right.index_on(rf) {
        return right
            .index_rows(&ix.probe_prefix(std::slice::from_ref(value)))
            .into_iter()
            // Residual: a key group can hold tuples whose join attribute
            // differs from the posting's value.
            .filter(|t| t.get(rf) == Some(value))
            .collect();
    }
    right.select(|t| t.get(rf) == Some(value))
}

/// The integer value of `t[field]`, counting non-integers (and missing
/// fields) as 0 so a malformed tuple cannot fail a commit mid-batch.
fn summand(t: &Tuple, field: usize) -> i64 {
    t.get(field).and_then(Value::as_int).unwrap_or(0)
}

/// Full recompute of a view's rows. Used for initial materialization,
/// recovery, and as the reference the incremental path is tested against.
/// `right` must be `Some` exactly for join definitions (`left` is the
/// single base otherwise).
pub fn eval_view(def: &ViewDef, left: &Relation, right: Option<&Relation>) -> Vec<Tuple> {
    match def {
        ViewDef::Select { filter, .. } => match filter {
            None => left.scan(),
            Some(p) => left.select(|t| p.eval(t)),
        },
        ViewDef::Join {
            left_field,
            right_field,
            ..
        } => {
            let right = right.expect("join views have a right base");
            // One build-and-probe pass: O(|L| + |R|) regardless of indexes.
            let mut built: BTreeMap<Value, Vec<Tuple>> = BTreeMap::new();
            for r in right.scan_iter() {
                if let Some(v) = r.get(*right_field) {
                    built.entry(v.clone()).or_default().push(r);
                }
            }
            let mut out = Vec::new();
            for l in left.scan_iter() {
                if let Some(v) = l.get(*left_field) {
                    if let Some(matches) = built.get(v) {
                        for r in matches {
                            out.push(concat_on(&l, r, *right_field));
                        }
                    }
                }
            }
            out
        }
        ViewDef::GroupCount { group, .. } => {
            let mut counts: BTreeMap<Value, i64> = BTreeMap::new();
            for t in left.scan_iter() {
                if let Some(g) = t.get(*group) {
                    *counts.entry(g.clone()).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .map(|(g, n)| Tuple::new(vec![g, Value::Int(n)]))
                .collect()
        }
        ViewDef::GroupSum { field, group, .. } => {
            let mut slots: BTreeMap<Value, (i64, i64)> = BTreeMap::new();
            for t in left.scan_iter() {
                if let Some(g) = t.get(*group) {
                    let slot = slots.entry(g.clone()).or_insert((0, 0));
                    slot.0 += summand(&t, *field);
                    slot.1 += 1;
                }
            }
            slots
                .into_iter()
                .map(|(g, (s, n))| Tuple::new(vec![g, Value::Int(s), Value::Int(n)]))
                .collect()
        }
    }
}

/// A new view's first materialization: `def` evaluated over its bases and
/// stored like the primary base `left` — except over an arrival-order paged
/// base, which gets [`Repr::TREE`] (paged stores rebuild wholesale on keyed
/// replacement, which would defeat the differential pass). A join given no
/// `right` is a self-join and probes `left` on both sides.
pub fn materialize_view(def: &ViewDef, left: &Relation, right: Option<&Relation>) -> Relation {
    let repr = match left.repr() {
        Repr::Paged(_) => Repr::TREE,
        r => r,
    };
    let right = match def {
        ViewDef::Join { .. } => Some(right.unwrap_or(left)),
        _ => None,
    };
    Relation::from_tuples(repr, eval_view(def, left, right))
}

/// Rebuilds a relation from `rows`, keeping `old`'s representation and
/// re-creating its index definitions — full-recompute fallback that
/// preserves everything but the contents.
pub fn rebuilt_like(old: &Relation, rows: Vec<Tuple>) -> Relation {
    let mut rel = Relation::from_tuples(old.repr(), rows);
    for ix in old.indexes().iter() {
        rel = rel
            .create_index_multi(ix.name(), ix.fields())
            .expect("fresh relation has no index names");
    }
    rel
}

/// Derives a selection view's transitions from its base's: filter both
/// sides of each transition, keeping only keys whose filtered bucket
/// actually changed. `view` supplies nothing here — selection transitions
/// are self-contained — but the ascending-key order of `transitions` is
/// preserved, as [`Relation::apply_transitions`] requires.
pub fn select_delta(
    filter: &Option<ViewFilter>,
    transitions: &[KeyTransition],
) -> Vec<KeyTransition> {
    let keep = |t: &Tuple| filter.as_ref().is_none_or(|p| p.eval(t));
    let mut out = Vec::new();
    for tr in transitions {
        let before: Vec<Tuple> = tr.before.iter().filter(|t| keep(t)).cloned().collect();
        let after: Vec<Tuple> = tr.after.iter().filter(|t| keep(t)).cloned().collect();
        if before != after {
            out.push(KeyTransition::new(tr.key.clone(), before, after));
        }
    }
    out
}

/// Derives a join view's transitions from *left*-side base transitions:
/// each changed left key's joined bucket is re-derived by probing `right`
/// (the right base's current, unchanged value) with the `after` tuples.
pub fn join_delta_left(
    view: &Relation,
    transitions: &[KeyTransition],
    right: &Relation,
    left_field: usize,
    right_field: usize,
) -> Vec<KeyTransition> {
    let mut out = Vec::new();
    for tr in transitions {
        let before = view.find(&tr.key);
        let mut after = Vec::new();
        for l in &tr.after {
            if let Some(v) = l.get(left_field) {
                for r in probe_matches(right, right_field, v) {
                    after.push(concat_on(l, &r, right_field));
                }
            }
        }
        if before != after {
            out.push(KeyTransition::new(tr.key.clone(), before, after));
        }
    }
    out
}

/// Derives a join view's transitions from *right*-side base transitions
/// without touching the right base at all: the transitions themselves
/// carry exactly which right rows left each join value's match set
/// (`before`) and which arrived (`after`), so each affected left key's
/// bucket is reconstructed from its current view rows plus those signed
/// changes. Finding the affected left keys costs one key lookup per
/// touched join value when the join attribute *is* the left key, an
/// index probe when `left` has one, and a scan of the (small,
/// dimension-side) `left` otherwise — the large right side is never
/// rescanned, which is what keeps maintenance O(touched · log n) on a
/// fact table with no index on the join attribute.
pub fn join_delta_right(
    view: &Relation,
    transitions: &[KeyTransition],
    left: &Relation,
    left_field: usize,
    right_field: usize,
) -> Vec<KeyTransition> {
    // Right rows leaving and entering each touched join value's match set.
    let mut removed: BTreeMap<&Value, Vec<&Tuple>> = BTreeMap::new();
    let mut added: BTreeMap<&Value, Vec<&Tuple>> = BTreeMap::new();
    for tr in transitions {
        for t in &tr.before {
            if let Some(v) = t.get(right_field) {
                removed.entry(v).or_default().push(t);
            }
        }
        for t in &tr.after {
            if let Some(v) = t.get(right_field) {
                added.entry(v).or_default().push(t);
            }
        }
    }
    // Affected left keys, ascending (BTreeSet dedups across values).
    let touched: BTreeSet<&Value> = removed.keys().chain(added.keys()).copied().collect();
    let mut keys: BTreeSet<Value> = BTreeSet::new();
    for v in touched {
        if left_field == 0 {
            if left.contains_key(v) {
                keys.insert(v.clone());
            }
        } else if let Some(ix) = left.index_on(left_field) {
            keys.extend(ix.keys_eq(v));
        } else {
            for l in left.scan_iter() {
                if l.get(left_field) == Some(v) {
                    keys.insert(l.key().clone());
                }
            }
        }
    }
    let mut out = Vec::new();
    for k in keys {
        let before = view.find(&k);
        // Reconstruct: drop one bucket row per departed right match (the
        // view reflected the pre-commit base exactly, so the row is
        // present), append one per arrival, then canonicalize the order
        // so reconstructed buckets compare and store deterministically.
        let mut after = before.clone();
        for l in left.find(&k) {
            let Some(v) = l.get(left_field) else { continue };
            if let Some(rs) = removed.get(v) {
                for r in rs {
                    let t = concat_on(&l, r, right_field);
                    if let Some(pos) = after.iter().position(|x| *x == t) {
                        after.remove(pos);
                    }
                }
            }
            if let Some(rs) = added.get(v) {
                for r in rs {
                    after.push(concat_on(&l, r, right_field));
                }
            }
        }
        after.sort();
        if before != after {
            out.push(KeyTransition::new(k, before, after));
        }
    }
    out
}

/// Derives a grouped aggregate view's transitions: fold the base
/// transitions into signed per-group diffs, then add each diff onto the
/// group's current slot in `view`. Works for both [`ViewDef::GroupCount`]
/// (`sum_field = None`) and [`ViewDef::GroupSum`] rows.
pub fn group_delta(
    view: &Relation,
    transitions: &[KeyTransition],
    group: usize,
    sum_field: Option<usize>,
) -> Vec<KeyTransition> {
    // Signed (count, sum) diffs per group value; BTreeMap iteration gives
    // the ascending-key order the apply kernel requires.
    let mut diffs: BTreeMap<Value, (i64, i64)> = BTreeMap::new();
    for tr in transitions {
        for t in &tr.before {
            if let Some(g) = t.get(group) {
                let d = diffs.entry(g.clone()).or_insert((0, 0));
                d.0 -= 1;
                d.1 -= sum_field.map_or(0, |f| summand(t, f));
            }
        }
        for t in &tr.after {
            if let Some(g) = t.get(group) {
                let d = diffs.entry(g.clone()).or_insert((0, 0));
                d.0 += 1;
                d.1 += sum_field.map_or(0, |f| summand(t, f));
            }
        }
    }
    let mut out = Vec::new();
    for (g, (dcount, dsum)) in diffs {
        if dcount == 0 && dsum == 0 {
            continue;
        }
        let before = view.find(&g);
        // Current slot: (count, sum) parsed from the group's single row.
        let (cur_count, cur_sum) = match before.first() {
            None => (0, 0),
            Some(row) => match sum_field {
                None => (row.get(1).and_then(Value::as_int).unwrap_or(0), 0),
                Some(_) => (
                    row.get(2).and_then(Value::as_int).unwrap_or(0),
                    row.get(1).and_then(Value::as_int).unwrap_or(0),
                ),
            },
        };
        let count = cur_count + dcount;
        let sum = cur_sum + dsum;
        debug_assert!(count >= 0, "group count went negative");
        let after = if count <= 0 {
            Vec::new()
        } else {
            match sum_field {
                None => vec![Tuple::new(vec![g.clone(), Value::Int(count)])],
                Some(_) => vec![Tuple::new(vec![
                    g.clone(),
                    Value::Int(sum),
                    Value::Int(count),
                ])],
            }
        };
        if before != after {
            out.push(KeyTransition::new(g, before, after));
        }
    }
    out
}

/// Derives the view transitions a base commit induces, dispatching on the
/// definition and which side `base` feeds. `other` is the join's *other*
/// side at its last-committed value — left transitions probe it (the old
/// right) for matches; right transitions consult it only to find the
/// affected left keys and reconstruct their buckets from the transitions
/// themselves. A self-join (`left == right`) has no rule here;
/// [`advance_view`] re-evaluates it instead.
pub fn derive_delta(
    def: &ViewDef,
    base: &RelationName,
    view: &Relation,
    transitions: &[KeyTransition],
    other: Option<&Relation>,
) -> Vec<KeyTransition> {
    match def {
        ViewDef::Select { filter, .. } => select_delta(filter, transitions),
        ViewDef::GroupCount { group, .. } => group_delta(view, transitions, *group, None),
        ViewDef::GroupSum { field, group, .. } => {
            group_delta(view, transitions, *group, Some(*field))
        }
        ViewDef::Join {
            left,
            left_field,
            right_field,
            ..
        } => {
            let other = other.expect("join delta needs the other side");
            if base == left {
                join_delta_left(view, transitions, other, *left_field, *right_field)
            } else {
                join_delta_right(view, transitions, other, *left_field, *right_field)
            }
        }
    }
}

/// Advances `view` by one commit to its base `base`: `runs` are the
/// commit's transitions, `base_after` the base's new value, and `other`
/// the join's other side as [`derive_delta`] takes it. A self-join changes
/// both of its sides at once, which no delta rule covers, so it is
/// re-evaluated from `base_after`; every other definition lands
/// [`derive_delta`]'s transitions.
pub fn advance_view(
    def: &ViewDef,
    base: &RelationName,
    view: &Relation,
    runs: &[KeyTransition],
    base_after: &Relation,
    other: Option<&Relation>,
) -> Relation {
    match def {
        ViewDef::Join { left, right, .. } if left == right => {
            rebuilt_like(view, eval_view(def, base_after, Some(base_after)))
        }
        _ => view.apply_transitions(&derive_delta(def, base, view, runs, other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_transitions;
    use crate::batch::BatchOp;

    fn all_reprs() -> Vec<Repr> {
        vec![Repr::List, Repr::BTree(4), Repr::Paged(4)]
    }

    fn row(k: i64, g: i64, x: i64) -> Tuple {
        Tuple::new(vec![k.into(), g.into(), x.into()])
    }

    /// Applies `ops` to `base` and advances `view` under `def` from the
    /// batch's own runs, returning (new base, new view).
    fn step(
        def: &ViewDef,
        base: &Relation,
        other: Option<&Relation>,
        view: &Relation,
        ops: &[BatchOp],
        base_is_left: bool,
    ) -> (Relation, Relation) {
        let (base2, _, _, runs) = base.apply_batch_with_runs(ops);
        let name: RelationName = if base_is_left { "L".into() } else { "R".into() };
        let view2 = advance_view(def, &name, view, &runs, &base2, other);
        (base2, view2)
    }

    /// The view's rows and a recompute's, each sorted.
    fn sorted_pair(view: &Relation, mut expect: Vec<Tuple>) -> (Vec<Tuple>, Vec<Tuple>) {
        let mut got = view.scan();
        got.sort();
        expect.sort();
        (got, expect)
    }

    #[test]
    fn select_view_tracks_base_incrementally() {
        for repr in all_reprs() {
            let def = ViewDef::Select {
                base: "L".into(),
                filter: Some(ViewFilter::Gt(2, 25.into())),
            };
            let base = Relation::from_tuples(repr, (0..20).map(|k| row(k, k % 3, k * 5)));
            let mut view = Relation::from_tuples(repr, eval_view(&def, &base, None));
            let ops = vec![
                BatchOp::Insert(row(3, 0, 99)),
                BatchOp::Delete(6.into()),
                BatchOp::Replace(row(7, 1, 0)),
                BatchOp::Insert(row(40, 2, 11)),
            ];
            let ts = batch_transitions(&base, &ops);
            let (base2, _, _) = base.apply_batch(&ops);
            view = view.apply_transitions(&select_delta(&Some(ViewFilter::Gt(2, 25.into())), &ts));
            let (got, expect) = sorted_pair(&view, eval_view(&def, &base2, None));
            assert_eq!(got, expect, "{repr}");
            assert_eq!(view.len(), expect.len(), "{repr} len counter");
        }
    }

    #[test]
    fn join_view_tracks_both_sides() {
        for repr in all_reprs() {
            let def = ViewDef::Join {
                left: "L".into(),
                right: "R".into(),
                left_field: 1,
                right_field: 1,
            };
            let left = Relation::from_tuples(repr, (0..10).map(|k| row(k, k % 4, k)));
            let right = Relation::from_tuples(repr, (100..130).map(|k| row(k, k % 4, k * 2)));
            let mut view = Relation::from_tuples(repr, eval_view(&def, &left, Some(&right)));

            // Left-side batch.
            let lops = vec![
                BatchOp::Insert(row(3, 2, 77)),
                BatchOp::Delete(5.into()),
                BatchOp::Insert(row(50, 1, 1)),
            ];
            let left2;
            (left2, view) = step(&def, &left, Some(&right), &view, &lops, true);
            let (got, expect) = sorted_pair(&view, eval_view(&def, &left2, Some(&right)));
            assert_eq!(got, expect, "{repr} left step");

            // Right-side batch on top.
            let rops = vec![
                BatchOp::Delete(104.into()),
                BatchOp::Insert(row(200, 2, 9)),
                BatchOp::Replace(row(101, 0, 8)),
            ];
            let right2;
            (right2, view) = step(&def, &right, Some(&left2), &view, &rops, false);
            let (got, expect) = sorted_pair(&view, eval_view(&def, &left2, Some(&right2)));
            assert_eq!(got, expect, "{repr} right step");
            assert_eq!(view.len(), expect.len(), "{repr} len counter");
        }
    }

    #[test]
    fn self_join_view_is_re_evaluated_from_the_new_base() {
        for repr in all_reprs() {
            let def = ViewDef::Join {
                left: "L".into(),
                right: "L".into(),
                left_field: 1,
                right_field: 1,
            };
            let base = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 3, k)));
            let view = Relation::from_tuples(repr, eval_view(&def, &base, Some(&base)));
            let ops = vec![
                BatchOp::Insert(row(40, 1, 0)),
                BatchOp::Delete(3.into()),
                BatchOp::Replace(row(5, 0, 9)),
                BatchOp::Insert(row(41, 2, 1)),
            ];
            let (base2, view2) = step(&def, &base, None, &view, &ops, true);
            let (got, expect) = sorted_pair(&view2, eval_view(&def, &base2, Some(&base2)));
            assert_eq!(got, expect, "{repr}");
        }
    }

    #[test]
    fn materialize_view_follows_its_base_and_self_joins_probe_it_twice() {
        let def = ViewDef::Join {
            left: "L".into(),
            right: "L".into(),
            left_field: 1,
            right_field: 1,
        };
        for repr in all_reprs() {
            let base = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 3, k)));
            let view = materialize_view(&def, &base, None);
            let stored = if matches!(repr, Repr::Paged(_)) {
                Repr::TREE
            } else {
                repr
            };
            assert_eq!(view.repr(), stored, "{repr}");
            let (got, expect) = sorted_pair(&view, eval_view(&def, &base, Some(&base)));
            assert_eq!(got, expect, "{repr}");
        }
    }

    #[test]
    fn join_delta_uses_left_index_to_find_affected_keys() {
        let def = ViewDef::Join {
            left: "L".into(),
            right: "R".into(),
            left_field: 1,
            right_field: 1,
        };
        let left = Relation::from_tuples(Repr::TREE, (0..50).map(|k| row(k, k % 10, k)))
            .create_index("l_by_g", 1)
            .unwrap();
        let right = Relation::from_tuples(Repr::TREE, (0..50).map(|k| row(k, k % 10, k)))
            .create_index("r_by_g", 1)
            .unwrap();
        let view = Relation::from_tuples(Repr::TREE, eval_view(&def, &left, Some(&right)));
        let ops = vec![BatchOp::Replace(row(7, 3, 0))];
        let (right2, view2) = step(&def, &right, Some(&left), &view, &ops, false);
        let (got, expect) = sorted_pair(&view2, eval_view(&def, &left, Some(&right2)));
        assert_eq!(got, expect);
    }

    #[test]
    fn group_views_fold_signed_diffs() {
        for repr in all_reprs() {
            let count_def = ViewDef::GroupCount {
                base: "L".into(),
                group: 1,
            };
            let sum_def = ViewDef::GroupSum {
                base: "L".into(),
                field: 2,
                group: 1,
            };
            let base = Relation::from_tuples(repr, (0..30).map(|k| row(k, k % 5, k)));
            let mut counts = Relation::from_tuples(repr, eval_view(&count_def, &base, None));
            let mut sums = Relation::from_tuples(repr, eval_view(&sum_def, &base, None));
            let ops = vec![
                BatchOp::Delete(0.into()),
                BatchOp::Delete(5.into()),
                BatchOp::Delete(10.into()),
                BatchOp::Delete(15.into()),
                BatchOp::Delete(20.into()),
                BatchOp::Delete(25.into()),
                BatchOp::Insert(row(100, 9, -4)),
                BatchOp::Replace(row(1, 1, 1000)),
            ];
            let ts = batch_transitions(&base, &ops);
            let (base2, _, _) = base.apply_batch(&ops);
            counts = counts.apply_transitions(&group_delta(&counts, &ts, 1, None));
            sums = sums.apply_transitions(&group_delta(&sums, &ts, 1, Some(2)));
            // Group 0 is now empty: its rows must be gone entirely.
            assert!(counts.find(&0.into()).is_empty(), "{repr}");
            let (got, expect) = sorted_pair(&counts, eval_view(&count_def, &base2, None));
            assert_eq!(got, expect, "{repr} counts");
            let (got, expect) = sorted_pair(&sums, eval_view(&sum_def, &base2, None));
            assert_eq!(got, expect, "{repr} sums");
        }
    }

    #[test]
    fn view_filter_eval_and_display() {
        let p = ViewFilter::And(
            Box::new(ViewFilter::Gt(1, 2.into())),
            Box::new(ViewFilter::Ne(0, 9.into())),
        );
        assert!(p.eval(&row(1, 5, 0)));
        assert!(!p.eval(&row(9, 5, 0)));
        assert!(!p.eval(&row(1, 1, 0)));
        // Out-of-range fields match nothing.
        assert!(!ViewFilter::Eq(7, 1.into()).eval(&row(1, 1, 1)));
        assert!(!ViewFilter::Lt(7, 1.into()).eval(&row(1, 1, 1)));
        assert_eq!(p.to_string(), "(#1 > 2 and #0 != 9)");
        let o = ViewFilter::Or(
            Box::new(ViewFilter::Eq(0, 1.into())),
            Box::new(ViewFilter::Lt(1, 0.into())),
        );
        assert!(o.eval(&row(1, 9, 0)));
        assert_eq!(o.to_string(), "(#0 = 1 or #1 < 0)");
    }

    #[test]
    fn view_def_display_and_bases() {
        let d = ViewDef::Select {
            base: "R".into(),
            filter: None,
        };
        assert_eq!(d.to_string(), "select from R");
        assert_eq!(d.bases(), vec![&RelationName::from("R")]);
        let d = ViewDef::Join {
            left: "L".into(),
            right: "R".into(),
            left_field: 1,
            right_field: 2,
        };
        assert_eq!(d.to_string(), "join L with R on #1 = #2");
        assert!(d.depends_on(&"L".into()));
        assert!(d.depends_on(&"R".into()));
        assert!(!d.depends_on(&"X".into()));
        assert_eq!(
            ViewDef::GroupCount {
                base: "R".into(),
                group: 1
            }
            .to_string(),
            "count R by #1"
        );
        assert_eq!(
            ViewDef::GroupSum {
                base: "R".into(),
                field: 2,
                group: 1
            }
            .to_string(),
            "sum #2 of R by #1"
        );
    }

    #[test]
    fn rebuilt_like_preserves_repr_and_indexes() {
        let old = Relation::from_tuples(Repr::BTree(4), (0..5).map(|k| row(k, k, k)))
            .create_index_multi("ix", &[1, 2])
            .unwrap();
        let rebuilt = rebuilt_like(&old, (10..20).map(|k| row(k, 1, k)).collect());
        assert_eq!(rebuilt.repr(), Repr::BTree(4));
        assert_eq!(rebuilt.len(), 10);
        let ix = rebuilt.indexes().get("ix").expect("index re-created");
        assert_eq!(ix.fields(), &[1, 2]);
        assert_eq!(ix.entries(), 10);
    }
}
