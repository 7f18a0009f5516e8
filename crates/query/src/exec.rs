//! The one executor: every statement of the query language is evaluated
//! here, over relation *values*.
//!
//! The paper's cut is between computation and coordination: `translate`
//! makes a query into one pure function, and pipelining, merging and
//! distribution only decide *when* that function runs. This module is the
//! computation. [`translate`](crate::translate()) looks the relations up in
//! a `Database` and calls it; the pipelined engine pins relation versions
//! and calls it; the primary-copy engine runs `translate` over a database
//! assembled from its workspace. No scheduler interprets a statement
//! itself, so the spec and the engines cannot answer differently — response
//! text included.
//!
//! Everything is a plain function over borrowed relation values: no trait
//! object, no boxed closure, nothing allocated beyond the answer itself.
//! Name resolution is the scheduler's job (it owns the catalog); the steps
//! that need a schema take a lookup closure returning an [`Entry`].

use fundb_relational::{
    BatchOp, BatchOutcome, DatabaseError, Relation, RelationName, Schema, Tuple, ViewDef,
};

use crate::ast::{apply_select, compute_aggregate, AggOp, FieldRef, Predicate, Query, ViewSpec};
use crate::plan::{
    choose_join_strategy, execute_join_explained, execute_select_explained, explain_select,
    AccessPath, JoinStrategy,
};
use crate::response::Response;

/// What a name resolves to in a scheduler's catalog, as the resolution
/// steps need to see it.
#[derive(Debug)]
pub enum Entry {
    /// No relation or view has this name.
    Missing,
    /// A materialized view: readable, but not a legal write, index, join
    /// or view-definition target.
    View,
    /// A base relation, with its schema if it declared one.
    Base(Option<Schema>),
}

impl Entry {
    /// The schema of a base relation; `no such relation` for a missing
    /// name and `refusal()` for a view.
    fn base(
        self,
        name: &RelationName,
        refusal: impl FnOnce() -> String,
    ) -> Result<Option<Schema>, String> {
        match self {
            Entry::Base(schema) => Ok(schema),
            Entry::View => Err(refusal()),
            Entry::Missing => Err(no_such_relation(name)),
        }
    }
}

/// The answer to any statement naming a relation that does not exist.
pub fn no_such_relation(name: &RelationName) -> String {
    DatabaseError::NoSuchRelation(name.clone()).to_string()
}

/// The answer to a `create` whose name is taken — by a relation *or* a
/// view: they share one namespace.
pub fn relation_exists(name: &RelationName) -> String {
    DatabaseError::DuplicateRelation(name.clone()).to_string()
}

/// The answer to `insert`/`delete`/`replace` against a view.
pub fn view_is_read_only(name: &RelationName) -> String {
    DatabaseError::WriteToView(name.clone()).to_string()
}

/// Evaluates a single-relation read — `find`, `find … to …`, `select`,
/// `count` or an aggregate — against the relation value the scheduler
/// resolved (and, in an engine, pinned) for it. A `select` also reports
/// the access path it took.
///
/// # Panics
///
/// Panics if `q` is not one of the five read statements.
pub fn read(rel: &Relation, schema: Option<&Schema>, q: &Query) -> (Response, Option<AccessPath>) {
    let resp = match q {
        Query::Find { key, .. } => Response::Tuples(rel.find(key)),
        Query::FindRange { lo, hi, .. } => Response::Tuples(rel.find_range(lo, hi)),
        Query::Count { .. } => Response::Count(rel.len()),
        Query::Aggregate { op, field, .. } => aggregate(&rel.scan(), schema, *op, field),
        Query::Select {
            projection,
            predicate,
            ..
        } => {
            return match execute_select_explained(rel, schema, projection, predicate) {
                Ok((tuples, path)) => (Response::Tuples(tuples), Some(path)),
                Err(e) => (Response::Error(e), None),
            }
        }
        other => unreachable!("not a single-relation read: {other}"),
    };
    (resp, None)
}

/// `sum|min|max` over rows an executor already holds.
pub fn aggregate(rows: &[Tuple], schema: Option<&Schema>, op: AggOp, field: &FieldRef) -> Response {
    match compute_aggregate(rows, schema, op, field) {
        Ok(value) => Response::Aggregate {
            op: op.to_string(),
            value,
        },
        Err(e) => Response::Error(e),
    }
}

/// `select` as filter-and-project over rows an executor already holds —
/// for executors whose storage is not a [`Relation`] and so has no access
/// path to plan.
pub fn select_rows(
    rows: Vec<Tuple>,
    schema: Option<&Schema>,
    projection: &Option<Vec<FieldRef>>,
    predicate: &Option<Predicate>,
) -> Response {
    match apply_select(rows, schema, projection, predicate) {
        Ok(tuples) => Response::Tuples(tuples),
        Err(e) => Response::Error(e),
    }
}

/// Plans the single-relation read `q` against `rel` without running it.
/// `substituted` says `rel` is a view standing in for the relation the
/// statement was written against (see [`view_scan`]); the plan is then the
/// view scan itself.
pub fn explain_read(
    rel: &Relation,
    schema: Option<&Schema>,
    q: &Query,
    substituted: bool,
) -> Response {
    let (plan, estimated_rows) = match q {
        Query::Select { relation, .. } if substituted => {
            (format!("materialized view scan on {relation}"), rel.len())
        }
        Query::Select {
            projection,
            predicate,
            ..
        } => match explain_select(rel, schema, projection, predicate) {
            Ok((path, est)) => (path.to_string(), est),
            Err(e) => return Response::Error(e),
        },
        Query::Find { key, .. } => (format!("key eq find (#0 = {key})"), 1),
        Query::FindRange { lo, hi, .. } => (
            format!("key range find (#0 in {lo}..{hi})"),
            (rel.len() / 4).max(1),
        ),
        other => return explain_unsupported(other),
    };
    Response::Plan {
        plan,
        estimated_rows,
    }
}

/// The answer to `explain` of anything but a select, a join or a find.
pub fn explain_unsupported(q: &Query) -> Response {
    Response::Error(format!("explain supports select, join and find, not '{q}'"))
}

/// Evaluates an equi-join of two relation values on resolved positions
/// (`None` = key with key), reporting the strategy it ran.
pub fn join(
    left: &Relation,
    right: &Relation,
    on: Option<(usize, usize)>,
) -> (Response, JoinStrategy) {
    let (tuples, strategy) = execute_join_explained(left, right, on);
    (Response::Tuples(tuples), strategy)
}

/// Plans the join [`join`] would run, without running it.
pub fn explain_join(left: &Relation, right: &Relation, on: Option<(usize, usize)>) -> Response {
    let (strategy, estimated_rows) = choose_join_strategy(left, right, on);
    Response::Plan {
        plan: strategy.to_string(),
        estimated_rows,
    }
}

/// The statement that answers a read from the view substituted for it:
/// the view's rows are exactly the original's matches (a select view) or
/// its output (a join view), so only a projection remains to apply.
pub fn view_scan(view: &RelationName, projection: Option<Vec<FieldRef>>) -> Query {
    Query::Select {
        relation: view.clone(),
        projection,
        predicate: None,
    }
}

/// Evaluates a single-relation write — `insert`, `delete`, `replace`, or a
/// `create index` whose fields [`resolve_index`] already made positions —
/// returning the successor relation value and the response. A data write
/// is a batch of its one [`batch_op`]. A refused write (duplicate index)
/// returns the input value.
///
/// # Panics
///
/// Panics if `q` is not one of the four write statements.
pub fn write(rel: &Relation, q: Query) -> (Relation, Response) {
    if let Some(op) = batch_op(&q) {
        let (next, outcomes, _) = rel.apply_batch(&[op]);
        let [outcome] = <[_; 1]>::try_from(outcomes).expect("one outcome per op");
        return (next, batch_response(q, outcome));
    }
    let Query::CreateIndex {
        relation,
        name,
        fields,
    } = q
    else {
        unreachable!("not a single-relation write: {q}")
    };
    let positions: Result<Vec<usize>, String> = fields.iter().map(|f| f.resolve(None)).collect();
    let built = positions.and_then(|p| {
        rel.create_index_multi(&name, &p).ok_or_else(|| {
            DatabaseError::DuplicateIndex(relation.clone(), name.clone()).to_string()
        })
    });
    match built {
        Ok(next) => (next, Response::IndexCreated { relation, name }),
        Err(e) => (rel.clone(), Response::Error(e)),
    }
}

/// The batch-kernel operation a data write stands for; `None` for index
/// DDL, which changes no rows (so there is nothing to fold into a batch
/// or to propagate to a view).
pub fn batch_op(q: &Query) -> Option<BatchOp> {
    match q {
        Query::Insert { tuple, .. } => Some(BatchOp::Insert(tuple.clone())),
        Query::Replace { tuple, .. } => Some(BatchOp::Replace(tuple.clone())),
        Query::Delete { key, .. } => Some(BatchOp::Delete(key.clone())),
        _ => None,
    }
}

/// The response to a data write that ran as [`batch_op`] inside a batch
/// kernel.
///
/// # Panics
///
/// Panics if `outcome` is not the outcome of `q`'s own batch operation.
pub fn batch_response(q: Query, outcome: BatchOutcome) -> Response {
    match (q, outcome) {
        (
            Query::Insert { relation, tuple } | Query::Replace { relation, tuple },
            BatchOutcome::Inserted,
        ) => Response::Inserted { relation, tuple },
        (Query::Delete { .. }, BatchOutcome::Deleted(n)) => Response::Deleted(n),
        (q, outcome) => unreachable!("outcome {outcome:?} does not belong to '{q}'"),
    }
}

/// The declared schema of a `create relation`, checked.
///
/// # Errors
///
/// The schema's own complaint: empty, unnamed or duplicate attributes.
pub fn parse_schema(attrs: &Option<Vec<String>>) -> Result<Option<Schema>, String> {
    match attrs {
        None => Ok(None),
        Some(attrs) => Schema::new(attrs).map(Some).map_err(|e| e.to_string()),
    }
}

/// Resolves a join's operands and `on` clause: both sides must be base
/// relations (a view's freshness rule is not an atomic cut, so views are
/// not pinned inside joins), and each field resolves against its own
/// side's schema. `None` is the key-with-key join.
///
/// # Errors
///
/// The refusal or resolution message, left operand first.
pub fn resolve_join(
    left: &RelationName,
    right: &RelationName,
    on: &Option<(FieldRef, FieldRef)>,
    lookup: impl Fn(&RelationName) -> Entry,
) -> Result<Option<(usize, usize)>, String> {
    let refusal =
        || format!("joins over materialized views are not supported: join {left} with {right}");
    let ls = lookup(left).base(left, refusal)?;
    let rs = lookup(right).base(right, refusal)?;
    match on {
        None => Ok(None),
        Some((lf, rf)) => Ok(Some((lf.resolve(ls.as_ref())?, rf.resolve(rs.as_ref())?))),
    }
}

/// Resolves a `create index`'s fields against its relation's schema into
/// attribute positions — what the index is built over, and (as
/// [`FieldRef::Index`]es) the form [`write()`] evaluates and a log
/// records, so replay needs no schema.
///
/// # Errors
///
/// A message when the relation is missing, is a view, or a field cannot
/// be resolved.
pub fn resolve_index(
    relation: &RelationName,
    fields: &[FieldRef],
    lookup: impl Fn(&RelationName) -> Entry,
) -> Result<Vec<usize>, String> {
    let schema = lookup(relation).base(relation, || {
        format!("indexes on materialized views are not supported: {relation}")
    })?;
    fields.iter().map(|f| f.resolve(schema.as_ref())).collect()
}

/// Resolves a `create view` spec against its bases' schemas, producing the
/// positional [`ViewDef`] the relational layer maintains. Resolution
/// happens when the DDL runs (like predicate resolution): the schemas
/// belong to the catalog version the statement executes against.
///
/// # Errors
///
/// A message when a base is missing, is itself a view, or a field cannot
/// be resolved.
pub fn resolve_view_spec(
    spec: &ViewSpec,
    lookup: impl Fn(&RelationName) -> Entry,
) -> Result<ViewDef, String> {
    let schema_of =
        |n: &RelationName| lookup(n).base(n, || DatabaseError::ViewOnView(n.clone()).to_string());
    match spec {
        ViewSpec::Select {
            relation,
            predicate,
        } => {
            let schema = schema_of(relation)?;
            let filter = match predicate {
                None => None,
                Some(p) => Some(p.to_view_filter(schema.as_ref())?),
            };
            Ok(ViewDef::Select {
                base: relation.clone(),
                filter,
            })
        }
        ViewSpec::Join {
            left,
            right,
            on: (lf, rf),
        } => {
            let ls = schema_of(left)?;
            let rs = schema_of(right)?;
            Ok(ViewDef::Join {
                left: left.clone(),
                right: right.clone(),
                left_field: lf.resolve(ls.as_ref())?,
                right_field: rf.resolve(rs.as_ref())?,
            })
        }
        ViewSpec::Count { relation, group } => {
            let s = schema_of(relation)?;
            Ok(ViewDef::GroupCount {
                base: relation.clone(),
                group: group.resolve(s.as_ref())?,
            })
        }
        ViewSpec::Sum {
            relation,
            field,
            group,
        } => {
            let s = schema_of(relation)?;
            Ok(ViewDef::GroupSum {
                base: relation.clone(),
                field: field.resolve(s.as_ref())?,
                group: group.resolve(s.as_ref())?,
            })
        }
    }
}

/// The view whose definition is exactly `select from relation [where
/// predicate]`, if there is one: the select can then be answered from the
/// view's contents without re-filtering (the view holds whole base rows,
/// so any projection still applies). `None` rather than an error when the
/// predicate cannot be lowered — substitution is an optimization, never a
/// requirement.
pub fn matching_select_view<'a>(
    views: impl IntoIterator<Item = (&'a RelationName, &'a ViewDef)>,
    relation: &RelationName,
    predicate: &Option<Predicate>,
    schema: Option<&Schema>,
) -> Option<&'a RelationName> {
    let mut views = views.into_iter().peekable();
    views.peek()?;
    let want = match predicate {
        None => None,
        Some(p) => Some(p.to_view_filter(schema).ok()?),
    };
    views.find_map(|(name, def)| match def {
        ViewDef::Select { base, filter } if base == relation && *filter == want => Some(name),
        _ => None,
    })
}

/// The view whose definition is exactly `join left with right` on the
/// given resolved positions, if there is one. `None` positions mean the
/// key-with-key join, which a view on `#0 = #0` covers.
pub fn matching_join_view<'a>(
    views: impl IntoIterator<Item = (&'a RelationName, &'a ViewDef)>,
    left: &RelationName,
    right: &RelationName,
    on: Option<(usize, usize)>,
) -> Option<&'a RelationName> {
    let on = on.unwrap_or((0, 0));
    views.into_iter().find_map(|(name, def)| match def {
        ViewDef::Join {
            left: l,
            right: r,
            left_field,
            right_field,
        } if l == left && r == right && (*left_field, *right_field) == on => Some(name),
        _ => None,
    })
}
