//! The one executor: every statement of the query language is evaluated
//! here, over database and relation *values*.
//!
//! The paper's cut is between computation and coordination: `translate`
//! makes a query into one pure function, and pipelining, merging and
//! distribution only decide *when* that function runs. This module is the
//! computation. [`translate`](crate::translate()) calls [`read`] and
//! [`write()`] on the database it is applied to; the pipelined engine calls
//! the same two on the component databases it pinned; the primary-copy
//! engine and the 2PL baseline run `translate` over a database assembled
//! from their per-relation copies — one from a workspace of snapshots, the
//! other under locks. No scheduler interprets a statement itself, so the
//! spec and the engines cannot answer differently — response text
//! included.
//!
//! Everything is a plain function over borrowed values: no trait object,
//! no boxed closure, nothing allocated beyond the answer itself. A read
//! takes the value each name was pinned to through a lookup closure;
//! name resolution against a scheduler's own catalog takes a lookup
//! closure returning an [`Entry`].

use fundb_relational::{
    BatchOp, BatchOutcome, Database, DatabaseError, Relation, RelationName, Schema, Tuple, ViewDef,
};

use crate::ast::{compute_aggregate, AggOp, FieldRef, Query, ViewSpec};
use crate::plan::{
    choose_join_strategy, execute_join_explained, execute_select_explained, explain_select,
    AccessPath, JoinStrategy,
};
use crate::response::Response;

/// What a name resolves to in a scheduler's catalog, as the resolution
/// steps need to see it.
#[derive(Debug, Clone)]
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

/// What `name` resolves to in `db`'s catalog.
pub fn entry(db: &Database, name: &RelationName) -> Entry {
    match db.view_def(name) {
        Err(_) => Entry::Missing,
        Ok(Some(_)) => Entry::View,
        Ok(None) => Entry::Base(db.schema(name).ok().flatten().cloned()),
    }
}

/// What evaluating a read did, as an engine counts it.
#[derive(Debug, Default)]
pub struct Trace {
    /// The access path a select ran on.
    pub path: Option<AccessPath>,
    /// The strategy a join ran on.
    pub join: Option<JoinStrategy>,
    /// Whether a view answered in place of the relations the statement
    /// names.
    pub substituted: bool,
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

/// Evaluates — or, under `explain`, plans — the read statement `q` over the
/// databases its names were pinned to: `db(name)` is the value `name` is
/// read from. `translate` passes its one database for every name; an engine
/// passes the component versions it pinned. The reads are `find`,
/// `find … to …`, `select`, `count`, an aggregate, `join` and `explain` of
/// any of them; `explain` plans a select, a find or a join, and its trace
/// is empty.
///
/// A select or join that a view materializes exactly is answered from the
/// view's maintained contents, so its filter or join never runs again. A
/// join resolves its operands and `on` clause against the values it reads,
/// left operand first: what a name is never changes, so the refusal is the
/// same whichever version answers.
///
/// # Panics
///
/// Panics if `q` is not a read statement.
pub fn read<'a>(q: &Query, db: impl Fn(&RelationName) -> &'a Database) -> (Response, Trace) {
    let (q, explain) = match q {
        Query::Explain(inner) if inner.is_explainable() => (inner.as_ref(), true),
        Query::Explain(other) => {
            let refusal = format!("explain supports select, join and find, not '{other}'");
            return (Response::Error(refusal), Trace::default());
        }
        read => (read, false),
    };
    let Query::Join { left, right, on } = q else {
        let db = db(q.relation().expect("a read names its relation"));
        return match substitute(db, q) {
            Some(scan) => answer(db, &scan, explain, true),
            None => answer(db, q, explain, false),
        };
    };
    match resolve_join(left, right, on, |n| entry(db(n), n)) {
        Ok(on) => join(db(left), db(right), left, right, on, explain),
        Err(e) => (Response::Error(e), Trace::default()),
    }
}

/// The scan of the view of `db` that materializes exactly the select `q`
/// (`select from relation [where predicate]`), if there is one: the view
/// holds whole base rows, so only the select's projection remains to
/// apply. `None` too when the predicate cannot be lowered to a view filter
/// — substitution is an optimization, never a requirement.
fn substitute(db: &Database, q: &Query) -> Option<Query> {
    let Query::Select {
        relation,
        projection,
        predicate,
    } = q
    else {
        return None;
    };
    let mut views = db.view_defs().peekable();
    views.peek()?;
    let schema = db.schema(relation).ok().flatten();
    let want = match predicate {
        None => None,
        Some(p) => Some(p.to_view_filter(schema).ok()?),
    };
    let view = views.find_map(|(name, def)| match def {
        ViewDef::Select { base, filter } if base == relation && *filter == want => Some(name),
        _ => None,
    })?;
    Some(view_scan(view, projection.clone()))
}

/// Evaluates or plans the read `q` against the relation of `db` it names.
/// `substituted` marks a view standing in for the relation the statement
/// was written against.
fn answer(db: &Database, q: &Query, explain: bool, substituted: bool) -> (Response, Trace) {
    let mut trace = Trace {
        substituted,
        ..Trace::default()
    };
    let source = q.relation().expect("single-relation read");
    let Ok(rel) = db.relation(source) else {
        return (Response::Error(no_such_relation(source)), trace);
    };
    // Looked up only where a field name may need it.
    let schema = || db.schema(source).ok().flatten();
    if explain {
        let plan = explain_read(rel, schema(), q, substituted);
        return (plan, Trace::default());
    }
    let resp = match q {
        Query::Find { key, .. } => Response::Tuples(rel.find(key)),
        Query::FindRange { lo, hi, .. } => Response::Tuples(rel.find_range(lo, hi)),
        Query::Count { .. } => Response::Count(rel.len()),
        Query::Aggregate { op, field, .. } => aggregate(&rel.scan(), schema(), *op, field),
        Query::Select {
            projection,
            predicate,
            ..
        } => match execute_select_explained(rel, schema(), projection, predicate) {
            Ok((tuples, path)) => {
                trace.path = Some(path);
                Response::Tuples(tuples)
            }
            Err(e) => Response::Error(e),
        },
        other => unreachable!("not a single-relation read: {other}"),
    };
    (resp, trace)
}

/// `sum|min|max` over `rows`.
fn aggregate(rows: &[Tuple], schema: Option<&Schema>, op: AggOp, field: &FieldRef) -> Response {
    match compute_aggregate(rows, schema, op, field) {
        Ok(value) => Response::Aggregate {
            op: op.to_string(),
            value,
        },
        Err(e) => Response::Error(e),
    }
}

/// Plans the single-relation read `q` against `rel` without running it.
/// `substituted` says `rel` is a view standing in for the relation the
/// statement was written against (see [`view_scan`]); the plan is then the
/// view scan itself.
fn explain_read(rel: &Relation, schema: Option<&Schema>, q: &Query, substituted: bool) -> Response {
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
        other => unreachable!("not an explainable read: {other}"),
    };
    Response::Plan {
        plan,
        estimated_rows,
    }
}

/// Evaluates — or, under `explain`, plans — the equi-join of `left` in
/// `left_db` with `right` in `right_db` on resolved positions (`None` =
/// key with key; see [`resolve_join`]). A view of `left_db` materializing
/// exactly this join is already the answer (a join view ties its bases
/// into one component, so it is found in either side's database).
///
/// # Panics
///
/// Panics if either relation is missing from its database.
fn join(
    left_db: &Database,
    right_db: &Database,
    left: &RelationName,
    right: &RelationName,
    on: Option<(usize, usize)>,
    explain: bool,
) -> (Response, Trace) {
    if let Some(view) = join_view(left_db, left, right, on) {
        return answer(left_db, &view_scan(view, None), explain, true);
    }
    let l = left_db.relation(left).expect("join operand resolved");
    let r = right_db.relation(right).expect("join operand resolved");
    if explain {
        let (strategy, estimated_rows) = choose_join_strategy(l, r, on);
        let plan = Response::Plan {
            plan: strategy.to_string(),
            estimated_rows,
        };
        return (plan, Trace::default());
    }
    let (tuples, strategy) = execute_join_explained(l, r, on);
    let trace = Trace {
        join: Some(strategy),
        ..Trace::default()
    };
    (Response::Tuples(tuples), trace)
}

/// The statement that answers a read from the view substituted for it:
/// the view's rows are exactly the original's matches (a select view) or
/// its output (a join view), so only a projection remains to apply.
fn view_scan(view: &RelationName, projection: Option<Vec<FieldRef>>) -> Query {
    Query::Select {
        relation: view.clone(),
        projection,
        predicate: None,
    }
}

/// Evaluates a single-relation write over `db`: a data write is one
/// [`batch_op`] landed by [`Database::write`], which advances the views
/// over its relation in the same step; a `create index` is resolved
/// ([`resolve_index`]) and built. A refused write answers an error and
/// returns `db` itself.
///
/// # Panics
///
/// Panics if `q` is not one of the four write statements.
pub fn write(db: &Database, q: &Query) -> (Response, Database) {
    let relation = q.relation().expect("single-relation write");
    let landed = match (q, batch_op(q)) {
        (_, Some(op)) => db
            .write(relation, &[op])
            .map(|(next, mut outcomes, _)| (batch_response(q.clone(), outcomes.remove(0)), next))
            .map_err(|e| e.to_string()),
        (Query::CreateIndex { name, fields, .. }, None) => {
            resolve_index(relation, fields, |n| entry(db, n)).and_then(|positions| {
                let next = db
                    .create_index_multi(relation, name, &positions)
                    .map_err(|e| e.to_string())?;
                let created = Response::IndexCreated {
                    relation: relation.clone(),
                    name: name.clone(),
                };
                Ok((created, next))
            })
        }
        (other, None) => unreachable!("not a single-relation write: {other}"),
    };
    landed.unwrap_or_else(|e| (Response::Error(e), db.clone()))
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
/// relations (a join over a view is refused), and each field resolves
/// against its own side's schema. `None` is the key-with-key join.
///
/// # Errors
///
/// The refusal or resolution message, left operand first.
fn resolve_join(
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
/// [`FieldRef::Index`]es) the form an engine logs, so replay needs no
/// schema.
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

/// The view of `db` whose definition is exactly `join left with right` on
/// the given resolved positions, if there is one. `None` positions mean
/// the key-with-key join, which a view on `#0 = #0` covers.
fn join_view<'a>(
    db: &'a Database,
    left: &RelationName,
    right: &RelationName,
    on: Option<(usize, usize)>,
) -> Option<&'a RelationName> {
    let on = on.unwrap_or((0, 0));
    db.view_defs().find_map(|(name, def)| match def {
        ViewDef::Join {
            left: l,
            right: r,
            left_field,
            right_field,
        } if l == left && r == right && (*left_field, *right_field) == on => Some(name),
        _ => None,
    })
}
