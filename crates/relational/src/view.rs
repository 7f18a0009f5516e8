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
//! One rule, [`derive_delta`], covers every definition, in the `(data,
//! diff)` form of differential dataflow:
//!
//! 1. **Signed rows.** Each transition gives `(t, −1)` for every tuple its
//!    key held before and `(t, +1)` for every tuple it holds after.
//! 2. **Per-kind map** to signed view rows:
//!    * *select* keeps the rows that pass the filter;
//!    * *join* (`L ⋈ R on #lf = #rf`, rows keyed by the left key) is
//!      `ΔV = ΔL ⋈ R + L ⋈ ΔR − ΔL ⋈ ΔR` with `L` and `R` at their
//!      post-write values. Only the written side has a delta, so the other
//!      side is probed (primary key, secondary index or scan — whatever
//!      it offers) once per distinct join value; a write to the right
//!      (fact) side never reads the right base. A self-join has both
//!      deltas, and the third term makes it incremental too;
//!    * *count/sum* fold the signed rows per group; each changed group
//!      retracts its current slot row and asserts the new one, none once
//!      its count reaches 0.
//! 3. **One consolidation.** The signed view rows are sorted, so grouped
//!    by view key in ascending order; each distinct row's multiplicities
//!    are netted; each key's bucket starts from its current rows, drops
//!    one occurrence per net retraction and adds net assertions, and a
//!    key gets a transition only when its bucket changed.
//!
//! A view's buckets hold their rows in ascending row order, freshly
//! materialized ([`eval_view`]) or after any commit, so a view's contents
//! — order included — depend only on its bases, not on how their writes
//! were grouped into commits.
//!
//! Every function here is pure: deltas are derived from values and applied
//! functionally, so views inherit the persistence story of their bases.

use std::collections::BTreeMap;
use std::fmt;

use crate::database::RelationName;
use crate::index::KeyTransition;
use crate::relation::Relation;
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
    /// deleting the row. Non-integer summands contribute 0. A view cannot
    /// fail a commit, so sums wrap on `i64` overflow, in the first
    /// materialization and the incremental rule alike: wrapping addition
    /// is a group, so the maintained sum still equals a recompute.
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

/// Full recompute of a view's rows. Used for a view's first
/// materialization (also when recovery replays its `create view`), by
/// [`Database::recompute_views`](crate::Database::recompute_views), and
/// as the reference the incremental path is tested against.
/// `right` must be `Some` exactly for join definitions (`left` is the
/// single base otherwise).
/// The rows come in ascending row order — the order a view keeps.
pub fn eval_view(def: &ViewDef, left: &Relation, right: Option<&Relation>) -> Vec<Tuple> {
    let mut rows = match def {
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
                    slot.0 = slot.0.wrapping_add(summand(&t, *field));
                    slot.1 += 1;
                }
            }
            slots
                .into_iter()
                .map(|(g, (s, n))| Tuple::new(vec![g, Value::Int(s), Value::Int(n)]))
                .collect()
        }
    };
    rows.sort();
    rows
}

/// A new view's first materialization: `def` evaluated over its bases and
/// stored like the primary base `left`. A join given no `right` is a
/// self-join and probes `left` on both sides.
pub fn materialize_view(def: &ViewDef, left: &Relation, right: Option<&Relation>) -> Relation {
    let right = match def {
        ViewDef::Join { .. } => Some(right.unwrap_or(left)),
        _ => None,
    };
    Relation::from_tuples(left.repr(), eval_view(def, left, right))
}

/// Rebuilds a relation from `rows`, keeping `old`'s representation and
/// re-creating its index definitions — how
/// [`Database::recompute_views`](crate::Database::recompute_views)
/// replaces everything but a view's contents.
pub fn rebuilt_like(old: &Relation, rows: Vec<Tuple>) -> Relation {
    let mut rel = Relation::from_tuples(old.repr(), rows);
    for ix in old.indexes().iter() {
        rel = rel
            .create_index_multi(ix.name(), ix.fields())
            .expect("fresh relation has no index names");
    }
    rel
}

/// A commit's base rows with their multiplicity changes: `-1` for every
/// tuple a transition's key held before, `+1` for every tuple it holds
/// after.
fn signed_rows(transitions: &[KeyTransition]) -> Vec<(&Tuple, i64)> {
    let n = transitions
        .iter()
        .map(|tr| tr.before.len() + tr.after.len());
    let mut rows = Vec::with_capacity(n.sum());
    for tr in transitions {
        rows.extend(tr.before.iter().map(|t| (t, -1)));
        rows.extend(tr.after.iter().map(|t| (t, 1)));
    }
    rows
}

/// Signed rows grouped by their value at `field`; rows without the field
/// join nothing and are dropped.
fn by_value<'a>(
    rows: &[(&'a Tuple, i64)],
    field: usize,
) -> BTreeMap<&'a Value, Vec<(&'a Tuple, i64)>> {
    let mut groups: BTreeMap<&Value, Vec<(&Tuple, i64)>> = BTreeMap::new();
    for &(t, s) in rows {
        if let Some(v) = t.get(field) {
            groups.entry(v).or_default().push((t, s));
        }
    }
    groups
}

/// `ΔV = ΔL ⋈ R + L ⋈ ΔR − ΔL ⋈ ΔR` with `L` and `R` at their post-write
/// values. Only the written side carries a delta, so `other` — the side
/// that was not written, or for a self-join the base's new value — is the
/// only relation probed, once per distinct join value of each delta.
fn join_rows(
    dl: &[(&Tuple, i64)],
    dr: &[(&Tuple, i64)],
    other: &Relation,
    lf: usize,
    rf: usize,
) -> Vec<(Tuple, i64)> {
    let mut out = Vec::new();
    let dl = by_value(dl, lf);
    for (v, ls) in &dl {
        let rs = probe_matches(other, rf, v);
        for &(l, s) in ls {
            out.extend(rs.iter().map(|r| (concat_on(l, r, rf), s)));
        }
    }
    for (v, rs) in by_value(dr, rf) {
        let ls = probe_matches(other, lf, v);
        let both = dl.get(v).map_or(&[][..], Vec::as_slice);
        for &(r, s) in &rs {
            out.extend(ls.iter().map(|l| (concat_on(l, r, rf), s)));
            out.extend(both.iter().map(|&(l, sl)| (concat_on(l, r, rf), -sl * s)));
        }
    }
    out
}

/// A grouped aggregate's signed slot rows: the signed base rows fold into
/// per-group `(count, sum)` diffs, and each changed group retracts its
/// current slot row and asserts the new one — none once its count is 0.
/// Sums wrap, as in [`eval_view`] (see [`ViewDef::GroupSum`]). Each
/// group's bucket, once read, goes into `read` for the consolidation.
fn group_rows(
    view: &Relation,
    rows: &[(&Tuple, i64)],
    group: usize,
    sum_field: Option<usize>,
    read: &mut BTreeMap<Value, Vec<Tuple>>,
) -> Vec<(Tuple, i64)> {
    let mut diffs: BTreeMap<&Value, (i64, i64)> = BTreeMap::new();
    for &(t, s) in rows {
        if let Some(g) = t.get(group) {
            let d = diffs.entry(g).or_insert((0, 0));
            d.0 += s;
            let x = sum_field.map_or(0, |f| summand(t, f));
            d.1 = d.1.wrapping_add(x.wrapping_mul(s));
        }
    }
    let mut out = Vec::with_capacity(2 * diffs.len());
    for (g, (dcount, dsum)) in diffs {
        if dcount == 0 && dsum == 0 {
            continue;
        }
        let current = view.find(g);
        let field = |row: &Tuple, i| row.get(i).and_then(Value::as_int).unwrap_or(0);
        let (count, sum) = match (current.first(), sum_field) {
            (None, _) => (0, 0),
            (Some(row), None) => (field(row, 1), 0),
            (Some(row), Some(_)) => (field(row, 2), field(row, 1)),
        };
        let (count, sum) = (count + dcount, sum.wrapping_add(dsum));
        debug_assert!(count >= 0, "group count went negative");
        out.extend(current.iter().map(|row| (row.clone(), -1)));
        read.insert(g.clone(), current);
        if count > 0 {
            let slot = match sum_field {
                None => vec![g.clone(), Value::Int(count)],
                Some(_) => vec![g.clone(), Value::Int(sum), Value::Int(count)],
            };
            out.push((Tuple::new(slot), 1));
        }
    }
    out
}

/// Lands signed view rows on `view` as ascending per-key transitions: the
/// rows are sorted (so grouped by view key, the first field), each
/// distinct row's multiplicities are netted, and each key's bucket starts
/// from `view.find(k)` — or the bucket the map step already `read` —
/// drops one occurrence per net retraction, adds net assertions and is
/// kept in ascending row order. A key whose bucket did not change gets no
/// transition.
fn consolidate(
    view: &Relation,
    mut rows: Vec<(Tuple, i64)>,
    mut read: BTreeMap<Value, Vec<Tuple>>,
) -> Vec<KeyTransition> {
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::new();
    let mut rows = rows.into_iter().peekable();
    while let Some((first, s)) = rows.next() {
        let key = first.key().clone();
        let before = read.remove(&key).unwrap_or_else(|| view.find(&key));
        let mut after = before.clone();
        let mut changed = false;
        let (mut row, mut net) = (first, s);
        loop {
            while let Some((_, s)) = rows.next_if(|(t, _)| *t == row) {
                net += s;
            }
            for _ in net..0 {
                if let Some(pos) = after.iter().position(|t| *t == row) {
                    after.remove(pos);
                    changed = true;
                }
            }
            if net > 0 {
                changed = true;
                after.extend(std::iter::repeat_n(row, net as usize));
            }
            match rows.next_if(|(t, _)| *t.key() == key) {
                Some((next, s)) => (row, net) = (next, s),
                None => break,
            }
        }
        if changed {
            after.sort();
            out.push(KeyTransition::new(key, before, after));
        }
    }
    out
}

/// Derives the view transitions a commit to `base` induces: its runs
/// become signed rows, the definition maps them to signed view rows, and
/// one consolidation lands those on `view` (the pre-commit view), as the
/// [module docs](self) set out. `other` is a join's side that `base` is
/// not, at its current value — for a self-join, the base's new value;
/// other definitions ignore it.
///
/// # Panics
///
/// Panics if `def` is a join and `other` is `None`.
pub fn derive_delta(
    def: &ViewDef,
    base: &RelationName,
    view: &Relation,
    transitions: &[KeyTransition],
    other: Option<&Relation>,
) -> Vec<KeyTransition> {
    let signed = signed_rows(transitions);
    let mut read = BTreeMap::new();
    let rows = match def {
        ViewDef::Select { filter, .. } => signed
            .into_iter()
            .filter(|(t, _)| filter.as_ref().is_none_or(|p| p.eval(t)))
            .map(|(t, s)| (t.clone(), s))
            .collect(),
        ViewDef::GroupCount { group, .. } => group_rows(view, &signed, *group, None, &mut read),
        ViewDef::GroupSum { field, group, .. } => {
            group_rows(view, &signed, *group, Some(*field), &mut read)
        }
        ViewDef::Join {
            left,
            right,
            left_field,
            right_field,
        } => {
            let other = other.expect("join delta needs the other side");
            let delta = |side: &RelationName| if side == base { &signed[..] } else { &[] };
            join_rows(delta(left), delta(right), other, *left_field, *right_field)
        }
    };
    consolidate(view, rows, read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOp;
    use crate::relation::Repr;

    fn all_reprs() -> Vec<Repr> {
        vec![Repr::List, Repr::BTree(4)]
    }

    fn row(k: i64, g: i64, x: i64) -> Tuple {
        Tuple::new(vec![k.into(), g.into(), x.into()])
    }

    /// Applies `ops` to `base` and advances `view` under `def` from the
    /// batch's own runs as [`Database::write`](crate::Database::write)
    /// does, returning (new base, new view). `other` is a join's unwritten
    /// side; `None` stands for the new base (a self-join, or a definition
    /// that reads no other side).
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
        let delta = derive_delta(def, &name, view, &runs, Some(other.unwrap_or(&base2)));
        (base2, view.apply_transitions(&delta))
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
            let view = Relation::from_tuples(repr, eval_view(&def, &base, None));
            let ops = vec![
                BatchOp::Insert(row(3, 0, 99)),
                BatchOp::Delete(6.into()),
                BatchOp::Replace(row(7, 1, 0)),
                BatchOp::Insert(row(40, 2, 11)),
            ];
            let (base2, view) = step(&def, &base, None, &view, &ops, true);
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
    fn self_join_view_is_maintained_incrementally() {
        for repr in all_reprs() {
            for (lf, rf) in [(1, 1), (0, 0), (1, 2)] {
                let def = ViewDef::Join {
                    left: "L".into(),
                    right: "L".into(),
                    left_field: lf,
                    right_field: rf,
                };
                let mut base = Relation::from_tuples(repr, (0..12).map(|k| row(k, k % 3, k)));
                let mut view = Relation::from_tuples(repr, eval_view(&def, &base, Some(&base)));
                let batches = [
                    vec![
                        BatchOp::Insert(row(40, 1, 0)),
                        BatchOp::Delete(3.into()),
                        BatchOp::Replace(row(5, 0, 9)),
                        BatchOp::Insert(row(41, 2, 1)),
                    ],
                    // A key joining itself, and a duplicate-key bucket.
                    vec![BatchOp::Insert(row(7, 7, 7)), BatchOp::Insert(row(7, 2, 2))],
                    vec![BatchOp::Delete(7.into()), BatchOp::Replace(row(0, 2, 2))],
                ];
                for ops in batches {
                    (base, view) = step(&def, &base, None, &view, &ops, true);
                    let (got, expect) = sorted_pair(&view, eval_view(&def, &base, Some(&base)));
                    assert_eq!(got, expect, "{repr} on #{lf} = #{rf}");
                    assert_eq!(view.len(), expect.len(), "{repr} len counter");
                }
            }
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
            assert_eq!(view.repr(), repr, "{repr}");
            let (got, expect) = sorted_pair(&view, eval_view(&def, &base, Some(&base)));
            assert_eq!(got, expect, "{repr}");
        }
    }

    #[test]
    fn a_right_write_probes_the_left_index() {
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
            let counts = Relation::from_tuples(repr, eval_view(&count_def, &base, None));
            let sums = Relation::from_tuples(repr, eval_view(&sum_def, &base, None));
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
            let (base2, counts) = step(&count_def, &base, None, &counts, &ops, true);
            let (_, sums) = step(&sum_def, &base, None, &sums, &ops, true);
            // Group 0 is now empty: its rows must be gone entirely.
            assert!(counts.find(&0.into()).is_empty(), "{repr}");
            let (got, expect) = sorted_pair(&counts, eval_view(&count_def, &base2, None));
            assert_eq!(got, expect, "{repr} counts");
            let (got, expect) = sorted_pair(&sums, eval_view(&sum_def, &base2, None));
            assert_eq!(got, expect, "{repr} sums");
        }
    }

    #[test]
    fn sums_wrap_on_overflow_and_still_equal_a_recompute() {
        let def = ViewDef::GroupSum {
            base: "L".into(),
            field: 2,
            group: 1,
        };
        let base = Relation::from_tuples(Repr::TREE, [row(0, 1, i64::MAX), row(1, 1, i64::MAX)]);
        let view = Relation::from_tuples(Repr::TREE, eval_view(&def, &base, None));
        assert_eq!(
            view.scan(),
            vec![Tuple::new(vec![1.into(), (-2).into(), 2.into()])]
        );
        let ops = vec![BatchOp::Insert(row(2, 1, 3)), BatchOp::Delete(0.into())];
        let (base2, view2) = step(&def, &base, None, &view, &ops, true);
        assert_eq!(view2.scan(), eval_view(&def, &base2, None));
        assert_eq!(view2.scan()[0].get(1), Some(&Value::Int(i64::MIN + 2)));
    }

    #[test]
    fn a_commit_keeps_bucket_rows_in_ascending_row_order() {
        let def = ViewDef::Join {
            left: "L".into(),
            right: "R".into(),
            left_field: 0,
            right_field: 1,
        };
        let left = Relation::from_tuples(Repr::TREE, [row(1, 0, 0)]);
        let right =
            Relation::from_tuples(Repr::TREE, [row(30, 1, 0), row(10, 1, 0), row(20, 1, 0)]);
        let view = Relation::from_tuples(Repr::TREE, eval_view(&def, &left, Some(&right)));
        let ops = vec![
            BatchOp::Insert(row(15, 1, 0)),
            BatchOp::Insert(row(5, 1, 0)),
            BatchOp::Delete(20.into()),
        ];
        let (_, view) = step(&def, &right, Some(&left), &view, &ops, false);
        let right_keys: Vec<Value> = view
            .find(&1.into())
            .iter()
            .map(|t| t.get(3).unwrap().clone())
            .collect();
        // The kept rows 10 and 30 and the arrivals 5 and 15, in row order:
        // what a fresh evaluation over the written bases gives.
        assert_eq!(right_keys, vec![5.into(), 10.into(), 15.into(), 30.into()]);
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
