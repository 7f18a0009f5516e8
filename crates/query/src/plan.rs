//! Cost-based access-path selection, index-aware select execution, and
//! join-strategy planning.
//!
//! Every executor used to run `select` the same way: scan the whole
//! relation, then filter. This module classifies the (resolved) predicate,
//! estimates the candidate-row count of every access path the relation's
//! structure supports, and picks the cheapest:
//!
//! 1. **Key equality** (`#0 = v`) — a primary `find`, O(log n). Always
//!    wins when available: one probe, ~1 row.
//! 2. **Composite-index equality** (`#i = v and #j = w` with an index on
//!    `(i, j)`) — one posting lookup over the lexicographic value tuple;
//!    a shorter conjunct prefix (`#i = v` alone) becomes a posting-range
//!    probe on the same index.
//! 3. **Indexed equality** (`#i = v` with a single-column index on `i`) —
//!    one posting-list lookup, whose entries carry the rows.
//! 4. **Key range** (`#0 > lo and #0 < hi`) — a primary `find_range`.
//! 5. **Indexed range** (`#i > lo` / `#i < hi` with an index on `i`) — a
//!    posting-range union, whose entries carry the rows.
//! 6. **Scan** — the streaming fallback ([`Relation::scan_iter`]); nothing
//!    is materialized before the filter runs.
//!
//! Estimates come from [`Relation::len`], each index's
//! [`distinct_values`](fundb_relational::SecondaryIndex::distinct_values)
//! and total posting [`entries`](fundb_relational::SecondaryIndex::entries):
//! an equality prefix of width `p` over a `w`-column index is assumed to
//! select `entries / distinct^(p/w)` rows (uniformity), a bounded range a
//! quarter of the relation. Ties break toward the earlier (more precise)
//! path, which preserves the old fixed priority on small relations.
//!
//! The classifier only decomposes `and` conjunctions; any `or` at the top
//! level forces a scan (a disjunct might match anything). The *full*
//! predicate is always re-applied to the candidates as a residual filter,
//! so a path only has to produce a superset of the matching tuples — a
//! wrong estimate can cost time but never change results.
//!
//! Index paths take their candidate tuples from the index itself: a
//! posting entry carries its key's tuple whenever that key's bucket holds
//! exactly one, and [`Relation::index_rows`] reads only multi-tuple
//! buckets from the primary store. Probes return entries in ascending key
//! order and every representation scans in key order, so an index-assisted
//! select returns exactly the sequence a full scan-and-filter would.
//!
//! Joins get the same treatment via [`choose_join_strategy`]: key-key
//! joins keep the merge pass, a non-key equi-join probes a secondary
//! index on the inner join attribute when the fanout estimate beats a
//! build-and-probe pass over the whole inner relation.

use std::collections::BTreeMap;
use std::fmt;

use fundb_relational::{concat_on, Relation, Schema, SecondaryIndex, Tuple, Value};

use crate::ast::{apply_select, FieldRef, Predicate};

/// The chosen way to fetch candidate tuples for a select.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Primary-key equality: `find(value)`.
    KeyEq(Value),
    /// Primary-key range: `find_range(lo, hi)` (inclusive superset of the
    /// strict predicate bounds).
    KeyRange(Value, Value),
    /// Secondary-index equality on `field` via the named single-column
    /// index.
    IndexEq {
        /// Index used.
        index: String,
        /// Attribute position it covers.
        field: usize,
        /// The probed attribute value.
        value: Value,
    },
    /// Equality over a prefix of a composite index's columns, probed as
    /// one lexicographic posting lookup.
    CompositeEq {
        /// Index used.
        index: String,
        /// The matched attribute positions (a prefix of the index's).
        fields: Vec<usize>,
        /// The probed values, parallel to `fields`.
        values: Vec<Value>,
    },
    /// A full-width equality probe whose index key holds every projected
    /// field: answered from the posting walk alone, with no primary-store
    /// probes (a "covering" read). Only chosen when the posting cardinality
    /// provably equals the row cardinality and the probe absorbs the whole
    /// predicate — see [`execute_select_explained`].
    CoveredEq {
        /// Index used.
        index: String,
        /// The matched attribute positions (all of the index's).
        fields: Vec<usize>,
        /// The probed values, parallel to `fields`.
        values: Vec<Value>,
    },
    /// Secondary-index range on `field`; `None` bounds are open.
    IndexRange {
        /// Index used.
        index: String,
        /// Attribute position it covers.
        field: usize,
        /// Lower bound, if the predicate supplies one.
        lo: Option<Value>,
        /// Upper bound, if the predicate supplies one.
        hi: Option<Value>,
    },
    /// Full streaming scan with inline filtering.
    Scan,
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::KeyEq(v) => write!(f, "key eq find (#0 = {v})"),
            AccessPath::KeyRange(lo, hi) => write!(f, "key range find (#0 in {lo}..{hi})"),
            AccessPath::IndexEq {
                index,
                field,
                value,
            } => write!(f, "index eq probe on {index} (#{field} = {value})"),
            AccessPath::CompositeEq {
                index,
                fields,
                values,
            } => {
                write!(f, "composite eq probe on {index} (")?;
                for (i, (fi, v)) in fields.iter().zip(values).enumerate() {
                    write!(f, "{}#{fi} = {v}", if i == 0 { "" } else { " and " })?;
                }
                f.write_str(")")
            }
            AccessPath::CoveredEq {
                index,
                fields,
                values,
            } => {
                write!(f, "covering eq probe on {index} (")?;
                for (i, (fi, v)) in fields.iter().zip(values).enumerate() {
                    write!(f, "{}#{fi} = {v}", if i == 0 { "" } else { " and " })?;
                }
                f.write_str("), no primary fetch")
            }
            AccessPath::IndexRange {
                index,
                field,
                lo,
                hi,
            } => {
                write!(f, "index range probe on {index} (#{field} in ")?;
                match lo {
                    Some(v) => write!(f, "{v}..")?,
                    None => f.write_str("..")?,
                }
                match hi {
                    Some(v) => write!(f, "{v})"),
                    None => f.write_str(")"),
                }
            }
            AccessPath::Scan => f.write_str("full scan"),
        }
    }
}

/// Flattens nested `and`s into a conjunct list; any other node (including
/// `or`) is a single conjunct.
fn conjuncts(p: &Predicate) -> Vec<&Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        _ => vec![p],
    }
}

/// Estimated candidate rows for an equality prefix of width `p` over
/// index `ix`: uniformity says a full-width match selects
/// `entries / distinct` rows (the average posting size), and each dropped
/// trailing column widens the match by `distinct^(1/w)`.
fn eq_prefix_estimate(ix: &SecondaryIndex, p: usize) -> usize {
    let w = ix.width() as f64;
    let d = (ix.distinct_values() as f64).powf(p as f64 / w).max(1.0);
    ((ix.entries() as f64 / d).ceil() as usize).max(1)
}

/// Picks the access path for a *resolved* (positional-only) predicate
/// against `rel`, comparing estimated candidate-row counts.
/// Classification happens at execution time, not at translate time: the
/// relation's indexes (and their statistics) may have changed since the
/// query was translated, and each database version carries its own.
pub fn choose_access_path(rel: &Relation, predicate: Option<&Predicate>) -> AccessPath {
    choose_access_path_with_estimate(rel, predicate).0
}

/// [`choose_access_path`] plus the estimated candidate-row count the
/// winner was chosen on — the number `explain` reports.
pub fn choose_access_path_with_estimate(
    rel: &Relation,
    predicate: Option<&Predicate>,
) -> (AccessPath, usize) {
    let n = rel.len();
    let Some(p) = predicate else {
        return (AccessPath::Scan, n);
    };
    let cs = conjuncts(p);
    // Key equality beats everything: one O(log n) probe, ~1 row.
    for c in &cs {
        if let Predicate::FieldEq(FieldRef::Index(0), v) = c {
            return (AccessPath::KeyEq(v.clone()), 1);
        }
    }
    // Candidates in tiebreak order: equality probes (per index), then
    // ranges, then the scan. First minimum wins.
    let mut candidates: Vec<(AccessPath, usize)> = Vec::new();
    // Equality conjuncts, first binding per field.
    let mut eqs: Vec<(usize, &Value)> = Vec::new();
    for c in &cs {
        if let Predicate::FieldEq(FieldRef::Index(i), v) = c {
            if !eqs.iter().any(|(f, _)| f == i) {
                eqs.push((*i, v));
            }
        }
    }
    for ix in rel.indexes().iter() {
        let mut values: Vec<Value> = Vec::new();
        for &f in ix.fields() {
            match eqs.iter().find(|(i, _)| *i == f) {
                Some((_, v)) => values.push((*v).clone()),
                None => break,
            }
        }
        if values.is_empty() {
            continue;
        }
        let est = eq_prefix_estimate(ix, values.len());
        let path = if ix.width() == 1 {
            AccessPath::IndexEq {
                index: ix.name().to_string(),
                field: ix.field(),
                value: values.into_iter().next().expect("one value"),
            }
        } else {
            AccessPath::CompositeEq {
                index: ix.name().to_string(),
                fields: ix.fields()[..values.len()].to_vec(),
                values,
            }
        };
        candidates.push((path, est));
    }
    // Key range: needs both bounds (an open-ended primary range saves
    // nothing over the ordered scan it would become).
    let (mut key_lo, mut key_hi) = (None, None);
    for c in &cs {
        match c {
            Predicate::FieldGt(FieldRef::Index(0), v) => key_lo = Some(v),
            Predicate::FieldLt(FieldRef::Index(0), v) => key_hi = Some(v),
            _ => {}
        }
    }
    if let (Some(lo), Some(hi)) = (key_lo, key_hi) {
        candidates.push((AccessPath::KeyRange(lo.clone(), hi.clone()), (n / 4).max(1)));
    }
    // Indexed range: any bound on an indexed non-key field qualifies
    // (the posting tree serves open ends directly).
    let mut bounds: Vec<(usize, Option<&Value>, Option<&Value>)> = Vec::new();
    for c in &cs {
        let (i, v, is_lo) = match c {
            Predicate::FieldGt(FieldRef::Index(i), v) => (*i, v, true),
            Predicate::FieldLt(FieldRef::Index(i), v) => (*i, v, false),
            _ => continue,
        };
        if i == 0 || rel.index_on(i).is_none() {
            continue;
        }
        match bounds.iter_mut().find(|(f, _, _)| *f == i) {
            Some((_, lo, hi)) => {
                if is_lo {
                    *lo = Some(v);
                } else {
                    *hi = Some(v);
                }
            }
            None if is_lo => bounds.push((i, Some(v), None)),
            None => bounds.push((i, None, Some(v))),
        }
    }
    if let Some((field, lo, hi)) = bounds.into_iter().next() {
        let ix = rel
            .index_on(field)
            .expect("bound only recorded when indexed");
        candidates.push((
            AccessPath::IndexRange {
                index: ix.name().to_string(),
                field,
                lo: lo.cloned(),
                hi: hi.cloned(),
            },
            (n / 4).max(1),
        ));
    }
    candidates.push((AccessPath::Scan, n));
    candidates
        .into_iter()
        .reduce(|best, c| if c.1 < best.1 { c } else { best })
        .expect("scan is always a candidate")
}

/// Fetches the candidate tuples `path` denotes, without filtering.
fn fetch_candidates(rel: &Relation, path: &AccessPath) -> Vec<Tuple> {
    match path {
        AccessPath::Scan => rel.scan(),
        AccessPath::KeyEq(v) => rel.find(v),
        AccessPath::KeyRange(lo, hi) => rel.find_range(lo, hi),
        AccessPath::IndexEq { field, value, .. } => {
            let ix = rel.index_on(*field).expect("path chosen from this index");
            rel.index_rows(&ix.probe_prefix(std::slice::from_ref(value)))
        }
        AccessPath::CompositeEq { index, values, .. }
        | AccessPath::CoveredEq { index, values, .. } => {
            let ix = rel
                .indexes()
                .get(index)
                .expect("path chosen from this index");
            rel.index_rows(&ix.probe_prefix(values))
        }
        AccessPath::IndexRange { field, lo, hi, .. } => {
            let ix = rel.index_on(*field).expect("path chosen from this index");
            rel.index_rows(&ix.probe_range(lo.as_ref(), hi.as_ref()))
        }
    }
}

/// Upgrades a full-width equality probe to a covering read when the
/// posting walk alone can answer the select, skipping every primary-store
/// probe. Three gates, all required for correctness:
///
/// 1. the probe binds **every** index column (a prefix probe admits rows
///    whose unbound trailing columns the output could not reconstruct);
/// 2. `entries() == len()` — postings are deduplicated per
///    `(value, key)` pair, so this makes tuple → posting entry a
///    bijection: the posting's length *is* the matching row count, and no
///    key group hides a second tuple with different indexed values;
/// 3. the resolved predicate is exactly the probed equalities — any other
///    conjunct would need the full tuple as a residual filter.
///
/// Under those gates every output row is the projected slice of the
/// probed constants, repeated once per posting entry.
fn try_covering(
    rel: &Relation,
    path: &AccessPath,
    schema: Option<&Schema>,
    projection: &Option<Vec<FieldRef>>,
    resolved: Option<&Predicate>,
) -> Option<AccessPath> {
    let (index, fields, values) = match path {
        AccessPath::CompositeEq {
            index,
            fields,
            values,
        } => (index, fields.clone(), values.clone()),
        AccessPath::IndexEq {
            index,
            field,
            value,
        } => (index, vec![*field], vec![value.clone()]),
        _ => return None,
    };
    let ix = rel.indexes().get(index)?;
    if fields.len() != ix.width() || ix.entries() != rel.len() {
        return None;
    }
    let proj = projection.as_ref()?;
    if proj.is_empty() {
        return None;
    }
    for fr in proj {
        if !fields.contains(&fr.resolve(schema).ok()?) {
            return None;
        }
    }
    for c in conjuncts(resolved?) {
        match c {
            Predicate::FieldEq(FieldRef::Index(i), v)
                if fields.iter().zip(&values).any(|(f, w)| f == i && w == v) => {}
            _ => return None,
        }
    }
    Some(AccessPath::CoveredEq {
        index: index.clone(),
        fields,
        values,
    })
}

/// Executes a select against one relation: resolves the predicate, picks
/// an access path by estimated cost, fetches candidates (index paths read
/// the rows their posting entries carry), then applies the full predicate
/// as a residual filter plus the projection. Shared by every executor
/// (the sequential `translate` closure and the pipelined engine) so plans
/// cannot drift between them.
///
/// # Errors
///
/// The same messages as [`apply_select`]: unresolvable named references
/// or out-of-range projected fields.
pub fn execute_select(
    rel: &Relation,
    schema: Option<&Schema>,
    projection: &Option<Vec<FieldRef>>,
    predicate: &Option<Predicate>,
) -> Result<Vec<Tuple>, String> {
    execute_select_explained(rel, schema, projection, predicate).map(|(tuples, _)| tuples)
}

/// [`execute_select`] that also reports which access path ran, for
/// per-path statistics in the engines.
///
/// # Errors
///
/// The same messages as [`apply_select`].
pub fn execute_select_explained(
    rel: &Relation,
    schema: Option<&Schema>,
    projection: &Option<Vec<FieldRef>>,
    predicate: &Option<Predicate>,
) -> Result<(Vec<Tuple>, AccessPath), String> {
    let resolved = match predicate {
        None => None,
        Some(p) => Some(p.resolve(schema)?),
    };
    let mut path = choose_access_path(rel, resolved.as_ref());
    if let Some(covered) = try_covering(rel, &path, schema, projection, resolved.as_ref()) {
        path = covered;
    }
    if let AccessPath::CoveredEq {
        index,
        fields,
        values,
    } = &path
    {
        let ix = rel
            .indexes()
            .get(index)
            .expect("covering chosen from this index");
        let matched = ix.probe_prefix(values).len();
        let row = Tuple::new(
            projection
                .as_ref()
                .expect("covering requires a projection")
                .iter()
                .map(|fr| {
                    let pos = fr.resolve(schema).expect("resolved by try_covering");
                    let at = fields
                        .iter()
                        .position(|f| *f == pos)
                        .expect("projection within index fields");
                    values[at].clone()
                })
                .collect(),
        );
        return Ok((vec![row; matched], path));
    }
    let result = if path == AccessPath::Scan {
        // Stream-and-filter: the full relation is never materialized.
        let candidates: Vec<Tuple> = match &resolved {
            None => rel.scan_iter().collect(),
            Some(p) => rel.scan_iter().filter(|t| p.eval(t)).collect(),
        };
        apply_select(candidates, schema, projection, &None)?
    } else {
        apply_select(fetch_candidates(rel, &path), schema, projection, &resolved)?
    };
    Ok((result, path))
}

/// Plans a select without running it: the chosen path and its estimated
/// candidate-row count, as `explain select` reports them. The projection
/// participates because it decides covering-read eligibility.
///
/// # Errors
///
/// A message when a named reference cannot be resolved.
pub fn explain_select(
    rel: &Relation,
    schema: Option<&Schema>,
    projection: &Option<Vec<FieldRef>>,
    predicate: &Option<Predicate>,
) -> Result<(AccessPath, usize), String> {
    let resolved = match predicate {
        None => None,
        Some(p) => Some(p.resolve(schema)?),
    };
    let (path, est) = choose_access_path_with_estimate(rel, resolved.as_ref());
    match try_covering(rel, &path, schema, projection, resolved.as_ref()) {
        Some(covered) => Ok((covered, est)),
        None => Ok((path, est)),
    }
}

/// The chosen way to execute an equi-join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Key-key join: the synchronized merge pass of
    /// [`Relation::join_by_key`].
    MergeKeys,
    /// Left attribute against the right relation's *key*: one primary
    /// probe per left tuple.
    KeyProbe,
    /// Left attribute against a secondary index on the right join
    /// attribute: one posting lookup per left tuple, whose entries carry
    /// the matching rows, instead of touching the whole inner relation.
    IndexNestedLoop {
        /// The inner relation's index used for probing.
        index: String,
        /// The inner join attribute it covers.
        field: usize,
    },
    /// No useful inner structure: one pass builds a value→tuples map over
    /// the inner relation, then each left tuple probes it.
    ScanBuild,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStrategy::MergeKeys => f.write_str("merge join on keys"),
            JoinStrategy::KeyProbe => f.write_str("key probe join"),
            JoinStrategy::IndexNestedLoop { index, field } => {
                write!(f, "index nested-loop join via {index} (#{field})")
            }
            JoinStrategy::ScanBuild => f.write_str("scan-and-build join"),
        }
    }
}

/// Picks the join strategy for `join left with right on (lf = rf)`
/// (`None` = both keys) and estimates the output cardinality.
///
/// An index nested loop is chosen over the build-and-probe pass when its
/// probe cost — per left tuple, one posting lookup plus the index's
/// average fanout in rows — undercuts touching every inner tuple once.
pub fn choose_join_strategy(
    left: &Relation,
    right: &Relation,
    on: Option<(usize, usize)>,
) -> (JoinStrategy, usize) {
    let (nl, nr) = (left.len(), right.len());
    let rf = match on {
        None | Some((0, 0)) => return (JoinStrategy::MergeKeys, nl.min(nr)),
        Some((_, rf)) => rf,
    };
    if rf == 0 {
        return (JoinStrategy::KeyProbe, nl);
    }
    if let Some(ix) = right.index_on(rf) {
        let fanout = ix.entries() / ix.distinct_values().max(1);
        let log_r = (usize::BITS - nr.max(1).leading_zeros()) as usize;
        let inl_cost = nl.saturating_mul(fanout + log_r);
        let build_cost = nl + nr;
        if inl_cost < build_cost {
            return (
                JoinStrategy::IndexNestedLoop {
                    index: ix.name().to_string(),
                    field: rf,
                },
                nl.saturating_mul(fanout.max(1)),
            );
        }
    }
    (JoinStrategy::ScanBuild, nl.max(nr))
}

/// Executes an equi-join under the strategy [`choose_join_strategy`]
/// picks, returning the joined tuples in left-driving order. Left tuples
/// missing the join attribute simply match nothing (the same semantics as
/// predicate evaluation). Shared by `translate` and the engines.
pub fn execute_join(left: &Relation, right: &Relation, on: Option<(usize, usize)>) -> Vec<Tuple> {
    execute_join_explained(left, right, on).0
}

/// [`execute_join`] that also reports which strategy ran.
pub fn execute_join_explained(
    left: &Relation,
    right: &Relation,
    on: Option<(usize, usize)>,
) -> (Vec<Tuple>, JoinStrategy) {
    let (strategy, _) = choose_join_strategy(left, right, on);
    let (lf, rf) = on.unwrap_or((0, 0));
    let out = match &strategy {
        JoinStrategy::MergeKeys => left.join_by_key(right),
        JoinStrategy::KeyProbe => {
            let mut out = Vec::new();
            for l in left.scan_iter() {
                if let Some(v) = l.get(lf) {
                    for r in right.find(v) {
                        out.push(concat_on(&l, &r, 0));
                    }
                }
            }
            out
        }
        JoinStrategy::IndexNestedLoop { index, .. } => {
            let ix = right
                .indexes()
                .get(index)
                .expect("strategy chosen from this index");
            let mut out = Vec::new();
            for l in left.scan_iter() {
                if let Some(v) = l.get(lf) {
                    for r in right.index_rows(&ix.probe_prefix(std::slice::from_ref(v))) {
                        // Residual: a key group can hold tuples whose join
                        // attribute differs from the posting's value.
                        if r.get(rf) == Some(v) {
                            out.push(concat_on(&l, &r, rf));
                        }
                    }
                }
            }
            out
        }
        JoinStrategy::ScanBuild => {
            let mut built: BTreeMap<Value, Vec<Tuple>> = BTreeMap::new();
            for r in right.scan_iter() {
                if let Some(v) = r.get(rf) {
                    built.entry(v.clone()).or_default().push(r);
                }
            }
            let mut out = Vec::new();
            for l in left.scan_iter() {
                if let Some(v) = l.get(lf) {
                    if let Some(matches) = built.get(v) {
                        for r in matches {
                            out.push(concat_on(&l, r, rf));
                        }
                    }
                }
            }
            out
        }
    };
    (out, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_relational::Repr;

    fn rel() -> Relation {
        // (id, group, score)
        Relation::from_tuples(
            Repr::TREE,
            (0..50).map(|k| {
                Tuple::new(vec![
                    k.into(),
                    format!("g{}", k % 5).as_str().into(),
                    (k * 10).into(),
                ])
            }),
        )
        .create_index("by_group", 1)
        .unwrap()
    }

    fn eq(i: usize, v: Value) -> Predicate {
        Predicate::FieldEq(FieldRef::Index(i), v)
    }

    #[test]
    fn path_priorities() {
        let r = rel();
        assert_eq!(
            choose_access_path(&r, Some(&eq(0, 7.into()))),
            AccessPath::KeyEq(7.into())
        );
        // Key equality wins even when an indexed conjunct is present.
        let both = Predicate::And(Box::new(eq(1, "g1".into())), Box::new(eq(0, 7.into())));
        assert_eq!(
            choose_access_path(&r, Some(&both)),
            AccessPath::KeyEq(7.into())
        );
        assert_eq!(
            choose_access_path(&r, Some(&eq(1, "g1".into()))),
            AccessPath::IndexEq {
                index: "by_group".into(),
                field: 1,
                value: "g1".into()
            }
        );
        // Unindexed non-key equality scans.
        assert_eq!(
            choose_access_path(&r, Some(&eq(2, 10.into()))),
            AccessPath::Scan
        );
        // Or forces a scan.
        let or = Predicate::Or(Box::new(eq(0, 1.into())), Box::new(eq(1, "g1".into())));
        assert_eq!(choose_access_path(&r, Some(&or)), AccessPath::Scan);
        assert_eq!(choose_access_path(&r, None), AccessPath::Scan);
    }

    #[test]
    fn range_paths() {
        let r = rel();
        let key_range = Predicate::And(
            Box::new(Predicate::FieldGt(FieldRef::Index(0), 10.into())),
            Box::new(Predicate::FieldLt(FieldRef::Index(0), 20.into())),
        );
        assert_eq!(
            choose_access_path(&r, Some(&key_range)),
            AccessPath::KeyRange(10.into(), 20.into())
        );
        // One-sided key range: scan (ordered scan is as good).
        let half = Predicate::FieldGt(FieldRef::Index(0), 10.into());
        assert_eq!(choose_access_path(&r, Some(&half)), AccessPath::Scan);
        // One-sided indexed range is worth it.
        let ixr = Predicate::FieldGt(FieldRef::Index(1), "g2".into());
        assert_eq!(
            choose_access_path(&r, Some(&ixr)),
            AccessPath::IndexRange {
                index: "by_group".into(),
                field: 1,
                lo: Some("g2".into()),
                hi: None
            }
        );
    }

    #[test]
    fn composite_prefix_beats_single_column() {
        // (id, group, score mod 10): both a single-column index on group
        // and a composite on (group, bucket).
        let r = Relation::from_tuples(
            Repr::TREE,
            (0..100).map(|k| {
                Tuple::new(vec![
                    k.into(),
                    format!("g{}", k % 5).as_str().into(),
                    (k % 10).into(),
                ])
            }),
        )
        .create_index("by_group", 1)
        .unwrap()
        .create_index_multi("by_group_bucket", &[1, 2])
        .unwrap();
        // Two-column equality: the composite's full-width probe is the
        // tighter estimate (10 groups of 10 vs 5 groups of 20).
        let two = Predicate::And(Box::new(eq(1, "g3".into())), Box::new(eq(2, 3.into())));
        let (path, est) = choose_access_path_with_estimate(&r, Some(&two));
        assert_eq!(
            path,
            AccessPath::CompositeEq {
                index: "by_group_bucket".into(),
                fields: vec![1, 2],
                values: vec!["g3".into(), 3.into()],
            }
        );
        assert!(est <= 20, "composite estimate too loose: {est}");
        // Single-column equality on group: the dedicated index estimates
        // tighter than a width-1 prefix of the composite.
        let one = eq(1, "g3".into());
        assert_eq!(
            choose_access_path(&r, Some(&one)),
            AccessPath::IndexEq {
                index: "by_group".into(),
                field: 1,
                value: "g3".into()
            }
        );
        // Drop the single-column index: the same predicate rides the
        // composite's prefix range probe.
        let only_composite = Relation::from_tuples(
            Repr::TREE,
            (0..100).map(|k| {
                Tuple::new(vec![
                    k.into(),
                    format!("g{}", k % 5).as_str().into(),
                    (k % 10).into(),
                ])
            }),
        )
        .create_index_multi("by_group_bucket", &[1, 2])
        .unwrap();
        assert_eq!(
            choose_access_path(&only_composite, Some(&one)),
            AccessPath::CompositeEq {
                index: "by_group_bucket".into(),
                fields: vec![1],
                values: vec!["g3".into()],
            }
        );
    }

    #[test]
    fn composite_select_matches_scan_select() {
        for repr in [Repr::List, Repr::BTree(4)] {
            let r = Relation::from_tuples(
                repr,
                (0..80).map(|k| {
                    Tuple::new(vec![
                        k.into(),
                        format!("g{}", k % 4).as_str().into(),
                        (k % 5).into(),
                    ])
                }),
            )
            .create_index_multi("cx", &[1, 2])
            .unwrap();
            for pred in [
                Predicate::And(Box::new(eq(1, "g2".into())), Box::new(eq(2, 4.into()))),
                eq(1, "g1".into()),
            ] {
                let planned = execute_select(&r, None, &None, &Some(pred.clone())).unwrap();
                let scanned: Vec<Tuple> = r.scan().into_iter().filter(|t| pred.eval(t)).collect();
                assert_eq!(planned, scanned, "{repr:?} {pred}");
            }
        }
    }

    #[test]
    fn indexed_select_matches_scan_select() {
        let r = rel();
        for pred in [
            eq(1, "g3".into()),
            Predicate::And(
                Box::new(eq(1, "g3".into())),
                Box::new(Predicate::FieldGt(FieldRef::Index(2), 100.into())),
            ),
            Predicate::FieldGt(FieldRef::Index(1), "g3".into()),
            Predicate::And(
                Box::new(Predicate::FieldGt(FieldRef::Index(0), 5.into())),
                Box::new(Predicate::FieldLt(FieldRef::Index(0), 25.into())),
            ),
            eq(0, 12.into()),
        ] {
            let planned = execute_select(&r, None, &None, &Some(pred.clone())).unwrap();
            let scanned: Vec<Tuple> = r.scan().into_iter().filter(|t| pred.eval(t)).collect();
            assert_eq!(planned, scanned, "{pred}");
        }
    }

    #[test]
    fn residual_filters_strict_bounds() {
        // find_range is inclusive; the residual must trim the endpoints.
        let r = rel();
        let pred = Predicate::And(
            Box::new(Predicate::FieldGt(FieldRef::Index(0), 10.into())),
            Box::new(Predicate::FieldLt(FieldRef::Index(0), 13.into())),
        );
        let got = execute_select(&r, None, &None, &Some(pred)).unwrap();
        let keys: Vec<i64> = got.iter().map(|t| t.key().as_int().unwrap()).collect();
        assert_eq!(keys, vec![11, 12]);
    }

    #[test]
    fn projection_and_errors_pass_through() {
        let r = rel();
        let got = execute_select(
            &r,
            None,
            &Some(vec![FieldRef::Index(2)]),
            &Some(eq(1, "g0".into())),
        )
        .unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|t| t.arity() == 1));
        // Named refs without a schema error the same way apply_select does.
        let err = execute_select(
            &r,
            None,
            &None,
            &Some(Predicate::FieldEq(
                FieldRef::Name("group".into()),
                "g0".into(),
            )),
        )
        .unwrap_err();
        assert!(err.contains("no schema"), "{err}");
    }

    #[test]
    fn index_created_after_translate_is_still_used() {
        // Classification is per-execution: the same predicate scans on an
        // unindexed version and probes on an indexed one.
        let plain = Relation::from_tuples(
            Repr::List,
            (0..10).map(|k| Tuple::new(vec![k.into(), (k % 2).into()])),
        );
        let pred = eq(1, 1.into());
        assert_eq!(choose_access_path(&plain, Some(&pred)), AccessPath::Scan);
        let indexed = plain.create_index("parity", 1).unwrap();
        assert!(matches!(
            choose_access_path(&indexed, Some(&pred)),
            AccessPath::IndexEq { .. }
        ));
        assert_eq!(
            execute_select(&plain, None, &None, &Some(pred.clone())).unwrap(),
            execute_select(&indexed, None, &None, &Some(pred)).unwrap()
        );
    }

    #[test]
    fn explain_reports_path_and_estimate() {
        let r = rel();
        let (path, est) = explain_select(&r, None, &None, &Some(eq(1, "g1".into()))).unwrap();
        assert!(matches!(path, AccessPath::IndexEq { .. }));
        assert_eq!(est, 10);
        assert_eq!(path.to_string(), "index eq probe on by_group (#1 = 'g1')");
        let (path, est) = explain_select(&r, None, &None, &None).unwrap();
        assert_eq!(path, AccessPath::Scan);
        assert_eq!(est, 50);
        assert_eq!(path.to_string(), "full scan");
        assert_eq!(
            AccessPath::KeyRange(1.into(), 9.into()).to_string(),
            "key range find (#0 in 1..9)"
        );
        assert_eq!(
            AccessPath::CompositeEq {
                index: "cx".into(),
                fields: vec![1, 2],
                values: vec!["a".into(), 3.into()],
            }
            .to_string(),
            "composite eq probe on cx (#1 = 'a' and #2 = 3)"
        );
        assert_eq!(
            AccessPath::IndexRange {
                index: "rx".into(),
                field: 2,
                lo: None,
                hi: Some(9.into()),
            }
            .to_string(),
            "index range probe on rx (#2 in ..9)"
        );
    }

    #[test]
    fn covering_read_skips_primary_probe() {
        // Every tuple is indexed and (group, score) pairs are unique per
        // key, so entries() == len() and full-width probes can cover.
        let r = Relation::from_tuples(
            Repr::TREE,
            (0..60).map(|k| {
                Tuple::new(vec![
                    k.into(),
                    format!("g{}", k % 3).as_str().into(),
                    (k % 4).into(),
                ])
            }),
        )
        .create_index_multi("cx", &[1, 2])
        .unwrap();
        let pred = Predicate::And(Box::new(eq(1, "g1".into())), Box::new(eq(2, 2.into())));
        let proj = Some(vec![FieldRef::Index(1), FieldRef::Index(2)]);
        // Explain reports the covering upgrade.
        let (path, _) = explain_select(&r, None, &proj, &Some(pred.clone())).unwrap();
        assert!(
            matches!(path, AccessPath::CoveredEq { .. }),
            "expected covering, got {path}"
        );
        assert_eq!(
            path.to_string(),
            "covering eq probe on cx (#1 = 'g1' and #2 = 2), no primary fetch"
        );
        // Execution agrees with the scan-and-project reference.
        let (got, ran) = execute_select_explained(&r, None, &proj, &Some(pred.clone())).unwrap();
        assert!(matches!(ran, AccessPath::CoveredEq { .. }));
        let mut reference: Vec<Tuple> = r
            .scan()
            .into_iter()
            .filter(|t| pred.eval(t))
            .map(|t| Tuple::new(vec![t.get(1).unwrap().clone(), t.get(2).unwrap().clone()]))
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_by_key(|t| format!("{t:?}"));
        reference.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(got_sorted, reference);
        assert!(!got.is_empty());
    }

    #[test]
    fn covering_gates_hold() {
        let r = Relation::from_tuples(
            Repr::TREE,
            (0..60).map(|k| {
                Tuple::new(vec![
                    k.into(),
                    format!("g{}", k % 3).as_str().into(),
                    (k % 4).into(),
                ])
            }),
        )
        .create_index_multi("cx", &[1, 2])
        .unwrap();
        let full = Predicate::And(Box::new(eq(1, "g1".into())), Box::new(eq(2, 2.into())));
        // No projection: the whole tuple is needed, no covering.
        let (path, _) = explain_select(&r, None, &None, &Some(full.clone())).unwrap();
        assert!(matches!(path, AccessPath::CompositeEq { .. }), "{path}");
        // Projection outside the index fields: no covering.
        let wide = Some(vec![FieldRef::Index(0)]);
        let (path, _) = explain_select(&r, None, &wide, &Some(full.clone())).unwrap();
        assert!(matches!(path, AccessPath::CompositeEq { .. }), "{path}");
        // Prefix probe (one of two columns bound): no covering.
        let proj = Some(vec![FieldRef::Index(1)]);
        let (path, _) = explain_select(&r, None, &proj, &Some(eq(1, "g1".into()))).unwrap();
        assert!(matches!(path, AccessPath::CompositeEq { .. }), "{path}");
        // An extra non-equality conjunct needs the full tuple: no covering.
        let extra = Predicate::And(
            Box::new(full.clone()),
            Box::new(Predicate::FieldGt(FieldRef::Index(0), 10.into())),
        );
        let proj2 = Some(vec![FieldRef::Index(1), FieldRef::Index(2)]);
        let (path, _) = explain_select(&r, None, &proj2, &Some(extra)).unwrap();
        assert!(matches!(path, AccessPath::CompositeEq { .. }), "{path}");
        // A narrow tuple (missing an indexed field) breaks the
        // entries() == len() bijection: no covering, and the plain probe
        // still answers correctly.
        let with_narrow = {
            let base = Relation::from_tuples(
                Repr::TREE,
                (0..10)
                    .map(|k| {
                        Tuple::new(vec![
                            k.into(),
                            format!("g{}", k % 3).as_str().into(),
                            (k % 4).into(),
                        ])
                    })
                    .chain(std::iter::once(Tuple::new(vec![99.into()]))),
            );
            base.create_index_multi("cx", &[1, 2]).unwrap()
        };
        let (path, _) = explain_select(&with_narrow, None, &proj2, &Some(full)).unwrap();
        assert!(matches!(path, AccessPath::CompositeEq { .. }), "{path}");
    }

    #[test]
    fn covering_single_column_index() {
        let r = Relation::from_tuples(
            Repr::List,
            (0..30).map(|k| Tuple::new(vec![k.into(), (k % 5).into()])),
        )
        .create_index("by_mod", 1)
        .unwrap();
        let proj = Some(vec![FieldRef::Index(1)]);
        let (got, path) =
            execute_select_explained(&r, None, &proj, &Some(eq(1, 3.into()))).unwrap();
        assert!(matches!(path, AccessPath::CoveredEq { .. }), "{path}");
        assert_eq!(got.len(), 6);
        assert!(got.iter().all(|t| t == &Tuple::new(vec![3.into()])));
    }

    fn join_fixture(repr: Repr) -> (Relation, Relation) {
        // left: (order, customer); right: (line, customer, qty). The
        // inner side is big and selective enough that probing an index on
        // #1 (fanout 8) beats building over all 2000 tuples.
        let left = Relation::from_tuples(
            repr,
            (0..20).map(|k| Tuple::new(vec![k.into(), (k % 7).into()])),
        );
        let right = Relation::from_tuples(
            repr,
            (0..2000).map(|k| Tuple::new(vec![k.into(), (k % 250).into(), (k * 2).into()])),
        );
        (left, right)
    }

    #[test]
    fn join_strategy_choice() {
        let (left, right) = join_fixture(Repr::TREE);
        assert_eq!(
            choose_join_strategy(&left, &right, None).0,
            JoinStrategy::MergeKeys
        );
        assert_eq!(
            choose_join_strategy(&left, &right, Some((0, 0))).0,
            JoinStrategy::MergeKeys
        );
        assert_eq!(
            choose_join_strategy(&left, &right, Some((1, 0))).0,
            JoinStrategy::KeyProbe
        );
        // No index on the inner join attribute: build-and-probe.
        assert_eq!(
            choose_join_strategy(&left, &right, Some((1, 1))).0,
            JoinStrategy::ScanBuild
        );
        let indexed = right.create_index("by_cust", 1).unwrap();
        let (strategy, _) = choose_join_strategy(&left, &indexed, Some((1, 1)));
        assert_eq!(
            strategy,
            JoinStrategy::IndexNestedLoop {
                index: "by_cust".into(),
                field: 1
            }
        );
        assert_eq!(
            strategy.to_string(),
            "index nested-loop join via by_cust (#1)"
        );
    }

    #[test]
    fn join_strategies_agree() {
        for repr in [Repr::List, Repr::BTree(4)] {
            let (left, right) = join_fixture(repr);
            let indexed = right.create_index("by_cust", 1).unwrap();
            // Reference: the naive build-and-probe on the unindexed right.
            let (mut reference, s) = execute_join_explained(&left, &right, Some((1, 1)));
            assert_eq!(s, JoinStrategy::ScanBuild);
            let (mut inl, s) = execute_join_explained(&left, &indexed, Some((1, 1)));
            assert_eq!(
                s,
                JoinStrategy::IndexNestedLoop {
                    index: "by_cust".into(),
                    field: 1
                }
            );
            reference.sort_by_key(|t| format!("{t:?}"));
            inl.sort_by_key(|t| format!("{t:?}"));
            assert_eq!(reference, inl, "{repr:?}");
            // Key-key `on` matches the dedicated merge path.
            let by_key = execute_join(&left, &right, Some((0, 0)));
            assert_eq!(by_key, left.join_by_key(&right), "{repr:?}");
        }
    }

    #[test]
    fn join_on_drops_right_join_attribute() {
        let left = Relation::from_tuples(Repr::TREE, [Tuple::new(vec![1.into(), "a".into()])]);
        let right = Relation::from_tuples(
            Repr::TREE,
            [Tuple::new(vec![9.into(), "a".into(), 42.into()])],
        );
        let joined = execute_join(&left, &right, Some((1, 1)));
        assert_eq!(joined.len(), 1);
        // left fields, then right minus its #1.
        assert_eq!(
            joined[0],
            Tuple::new(vec![1.into(), "a".into(), 9.into(), 42.into()])
        );
    }
}
