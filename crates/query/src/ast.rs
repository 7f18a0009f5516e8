//! The query abstract syntax.

use std::fmt;

use fundb_relational::{RelationName, Repr, Schema, Tuple, Value, ViewFilter};

/// A reference to a tuple field: by position (`#0`) or, when the relation
/// has a schema, by attribute name (`name`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldRef {
    /// Positional reference, `#i`.
    Index(usize),
    /// Named reference, resolved against the relation's schema.
    Name(String),
}

impl FieldRef {
    /// Resolves to a field position, consulting `schema` for named refs.
    ///
    /// # Errors
    ///
    /// A human-readable message when the name is unknown or the relation
    /// has no schema.
    pub fn resolve(&self, schema: Option<&Schema>) -> Result<usize, String> {
        match self {
            FieldRef::Index(i) => Ok(*i),
            FieldRef::Name(n) => match schema {
                None => Err(format!("relation has no schema; use #i instead of '{n}'")),
                Some(s) => s
                    .position(n)
                    .ok_or_else(|| format!("no attribute '{n}' in schema {s}")),
            },
        }
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldRef::Index(i) => write!(f, "#{i}"),
            FieldRef::Name(n) => f.write_str(n),
        }
    }
}

/// A representation choice in a `create relation … as` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprSpec {
    /// Key-ordered linked list (the default, as in the paper's experiments).
    List,
    /// The default tree, [`Repr::TREE`] (a B-tree of degree 16).
    Tree,
    /// B-tree with the given minimum degree.
    BTree(usize),
}

impl ReprSpec {
    /// The concrete representation this spec denotes.
    pub fn to_repr(self) -> Repr {
        match self {
            ReprSpec::List => Repr::List,
            ReprSpec::Tree => Repr::TREE,
            ReprSpec::BTree(t) => Repr::BTree(t),
        }
    }
}

impl fmt::Display for ReprSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReprSpec::List => f.write_str("list"),
            ReprSpec::Tree => f.write_str("tree"),
            ReprSpec::BTree(t) => write!(f, "btree({t})"),
        }
    }
}

/// An aggregate operation over one field of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of integer fields.
    Sum,
    /// Minimum by value order.
    Min,
    /// Maximum by value order.
    Max,
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggOp::Sum => f.write_str("sum"),
            AggOp::Min => f.write_str("min"),
            AggOp::Max => f.write_str("max"),
        }
    }
}

/// Computes an aggregate over scanned tuples, resolving the field against
/// `schema`. Returns `None` for an empty input.
///
/// # Errors
///
/// A message when the field cannot be resolved, is missing from a tuple,
/// or (for `sum`) is not an integer or the total overflows.
///
/// # Example
///
/// ```
/// use fundb_query::{compute_aggregate, AggOp, FieldRef};
/// use fundb_relational::{Tuple, Value};
///
/// let tuples = vec![Tuple::new(vec![1.into(), 10.into()]),
///                   Tuple::new(vec![2.into(), 32.into()])];
/// let total = compute_aggregate(&tuples, None, AggOp::Sum, &FieldRef::Index(1))?;
/// assert_eq!(total, Some(Value::Int(42)));
/// # Ok::<(), String>(())
/// ```
pub fn compute_aggregate(
    tuples: &[Tuple],
    schema: Option<&Schema>,
    op: AggOp,
    field: &FieldRef,
) -> Result<Option<Value>, String> {
    let i = field.resolve(schema)?;
    let mut acc: Option<Value> = None;
    for t in tuples {
        let v = t
            .get(i)
            .ok_or_else(|| format!("no field #{i} in tuple {t}"))?;
        acc = Some(match (op, acc) {
            (AggOp::Sum, prev) => {
                let x = v
                    .as_int()
                    .ok_or_else(|| format!("sum needs integer fields, got {v}"))?;
                let base = prev.as_ref().and_then(Value::as_int).unwrap_or(0);
                let sum = base.checked_add(x).ok_or("sum overflows i64")?;
                Value::Int(sum)
            }
            (AggOp::Min, None) | (AggOp::Max, None) => v.clone(),
            (AggOp::Min, Some(prev)) => {
                if *v < prev {
                    v.clone()
                } else {
                    prev
                }
            }
            (AggOp::Max, Some(prev)) => {
                if *v > prev {
                    v.clone()
                } else {
                    prev
                }
            }
        });
    }
    Ok(acc)
}

/// A predicate over tuples, used by `select … where`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `<field> = v`
    FieldEq(FieldRef, Value),
    /// `<field> != v`
    FieldNe(FieldRef, Value),
    /// `<field> < v`
    FieldLt(FieldRef, Value),
    /// `<field> > v`
    FieldGt(FieldRef, Value),
    /// Both sides hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either side holds.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for positional equality (`#i = v`).
    pub fn index_eq(i: usize, v: Value) -> Self {
        Predicate::FieldEq(FieldRef::Index(i), v)
    }

    /// Resolves every named field reference against `schema`, yielding a
    /// positional-only predicate.
    ///
    /// # Errors
    ///
    /// A message naming the first unresolvable attribute.
    pub fn resolve(&self, schema: Option<&Schema>) -> Result<Predicate, String> {
        let fix = |f: &FieldRef| f.resolve(schema).map(FieldRef::Index);
        Ok(match self {
            Predicate::FieldEq(f, v) => Predicate::FieldEq(fix(f)?, v.clone()),
            Predicate::FieldNe(f, v) => Predicate::FieldNe(fix(f)?, v.clone()),
            Predicate::FieldLt(f, v) => Predicate::FieldLt(fix(f)?, v.clone()),
            Predicate::FieldGt(f, v) => Predicate::FieldGt(fix(f)?, v.clone()),
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.resolve(schema)?), Box::new(b.resolve(schema)?))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.resolve(schema)?), Box::new(b.resolve(schema)?))
            }
        })
    }

    /// Lowers the predicate to the relational layer's positional
    /// [`ViewFilter`], resolving named references against `schema` — the
    /// form a `create view … where` clause persists.
    ///
    /// # Errors
    ///
    /// A message naming the first unresolvable attribute.
    pub fn to_view_filter(&self, schema: Option<&Schema>) -> Result<ViewFilter, String> {
        let fix = |f: &FieldRef| f.resolve(schema);
        Ok(match self {
            Predicate::FieldEq(f, v) => ViewFilter::Eq(fix(f)?, v.clone()),
            Predicate::FieldNe(f, v) => ViewFilter::Ne(fix(f)?, v.clone()),
            Predicate::FieldLt(f, v) => ViewFilter::Lt(fix(f)?, v.clone()),
            Predicate::FieldGt(f, v) => ViewFilter::Gt(fix(f)?, v.clone()),
            Predicate::And(a, b) => ViewFilter::And(
                Box::new(a.to_view_filter(schema)?),
                Box::new(b.to_view_filter(schema)?),
            ),
            Predicate::Or(a, b) => ViewFilter::Or(
                Box::new(a.to_view_filter(schema)?),
                Box::new(b.to_view_filter(schema)?),
            ),
        })
    }

    /// Evaluates the predicate on a tuple. Out-of-range field references
    /// are simply false (a tuple without the field cannot match), and
    /// *unresolved named references never match* — call
    /// [`resolve`](Self::resolve) first when a schema is in play.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        let field = |f: &FieldRef| match f {
            FieldRef::Index(i) => tuple.get(*i),
            FieldRef::Name(_) => None,
        };
        match self {
            Predicate::FieldEq(f, v) => field(f) == Some(v),
            Predicate::FieldNe(f, v) => field(f).is_some_and(|x| x != v),
            Predicate::FieldLt(f, v) => field(f).is_some_and(|x| x < v),
            Predicate::FieldGt(f, v) => field(f).is_some_and(|x| x > v),
            Predicate::And(a, b) => a.eval(tuple) && b.eval(tuple),
            Predicate::Or(a, b) => a.eval(tuple) || b.eval(tuple),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::FieldEq(i, v) => write!(f, "{i} = {v}"),
            Predicate::FieldNe(i, v) => write!(f, "{i} != {v}"),
            Predicate::FieldLt(i, v) => write!(f, "{i} < {v}"),
            Predicate::FieldGt(i, v) => write!(f, "{i} > {v}"),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

/// Applies a select's predicate and projection to scanned tuples, with
/// named references resolved against `schema`. Shared by every executor
/// (the sequential `translate` closure, the pipelined engine, the 2PL
/// baseline and the primary-copy engine) so they cannot drift.
///
/// # Errors
///
/// A message when a named reference cannot be resolved or a projected
/// field is out of range for some tuple.
///
/// # Example
///
/// ```
/// use fundb_query::{apply_select, FieldRef, Predicate};
/// use fundb_relational::Tuple;
///
/// let tuples = vec![Tuple::new(vec![1.into(), "ada".into()]),
///                   Tuple::new(vec![2.into(), "bob".into()])];
/// let picked = apply_select(
///     tuples,
///     None,
///     &Some(vec![FieldRef::Index(1)]),                      // project name
///     &Some(Predicate::index_eq(0, 2.into())),              // where #0 = 2
/// )?;
/// assert_eq!(picked.len(), 1);
/// assert_eq!(picked[0].key().as_str(), Some("bob"));
/// # Ok::<(), String>(())
/// ```
pub fn apply_select(
    tuples: Vec<Tuple>,
    schema: Option<&Schema>,
    projection: &Option<Vec<FieldRef>>,
    predicate: &Option<Predicate>,
) -> Result<Vec<Tuple>, String> {
    let predicate = match predicate {
        None => None,
        Some(p) => Some(p.resolve(schema)?),
    };
    let projection = match projection {
        None => None,
        Some(fields) => Some(
            fields
                .iter()
                .map(|f| f.resolve(schema))
                .collect::<Result<Vec<usize>, String>>()?,
        ),
    };
    let mut out = Vec::new();
    for t in tuples {
        if let Some(p) = &predicate {
            if !p.eval(&t) {
                continue;
            }
        }
        match &projection {
            None => out.push(t),
            Some(cols) => {
                let fields = cols
                    .iter()
                    .map(|&i| {
                        t.get(i)
                            .cloned()
                            .ok_or_else(|| format!("no field #{i} in tuple {t}"))
                    })
                    .collect::<Result<Vec<Value>, String>>()?;
                out.push(Tuple::new(fields));
            }
        }
    }
    Ok(out)
}

/// What a `create view … as` clause derives — the query-layer form of a
/// view definition, still carrying unresolved field references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewSpec {
    /// `select from <rel> [where <pred>]` (no projection: a view holds
    /// whole base rows so it stays keyed like its base).
    Select {
        /// The base relation.
        relation: RelationName,
        /// Optional row filter.
        predicate: Option<Predicate>,
    },
    /// `join <left> with <right> on <field> = <field>` (the `on` clause is
    /// required: view rows are keyed by the left tuple's key).
    Join {
        /// Left (driving) base relation.
        left: RelationName,
        /// Right (probed) base relation.
        right: RelationName,
        /// Join attributes `(left field, right field)`.
        on: (FieldRef, FieldRef),
    },
    /// `count <rel> by <field>` — one `(group, count)` row per group.
    Count {
        /// The base relation.
        relation: RelationName,
        /// The grouping attribute.
        group: FieldRef,
    },
    /// `sum <field> of <rel> by <field>` — one `(group, sum, count)` row
    /// per group.
    Sum {
        /// The base relation.
        relation: RelationName,
        /// The summed attribute.
        field: FieldRef,
        /// The grouping attribute.
        group: FieldRef,
    },
}

impl ViewSpec {
    /// The base relations the view reads, left first.
    pub fn reads(&self) -> Vec<RelationName> {
        match self {
            ViewSpec::Select { relation, .. }
            | ViewSpec::Count { relation, .. }
            | ViewSpec::Sum { relation, .. } => vec![relation.clone()],
            ViewSpec::Join { left, right, .. } => {
                if left == right {
                    vec![left.clone()]
                } else {
                    vec![left.clone(), right.clone()]
                }
            }
        }
    }
}

impl fmt::Display for ViewSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewSpec::Select {
                relation,
                predicate: None,
            } => write!(f, "select from {relation}"),
            ViewSpec::Select {
                relation,
                predicate: Some(p),
            } => write!(f, "select from {relation} where {p}"),
            ViewSpec::Join {
                left,
                right,
                on: (l, r),
            } => write!(f, "join {left} with {right} on {l} = {r}"),
            ViewSpec::Count { relation, group } => write!(f, "count {relation} by {group}"),
            ViewSpec::Sum {
                relation,
                field,
                group,
            } => write!(f, "sum {field} of {relation} by {group}"),
        }
    }
}

/// A parsed query: the symbolic form of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `insert <tuple> into <rel>`
    Insert {
        /// Target relation.
        relation: RelationName,
        /// Tuple to insert.
        tuple: Tuple,
    },
    /// `find <key> in <rel>` — all tuples with this key.
    Find {
        /// Relation searched.
        relation: RelationName,
        /// Key value to match.
        key: Value,
    },
    /// `find <lo> to <hi> in <rel>` — all tuples with `lo <= key <= hi`.
    FindRange {
        /// Relation searched.
        relation: RelationName,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// `delete <key> from <rel>` — removes all tuples with this key.
    Delete {
        /// Target relation.
        relation: RelationName,
        /// Key to remove.
        key: Value,
    },
    /// `replace <tuple> in <rel>` — delete the tuple's key, then insert.
    Replace {
        /// Target relation.
        relation: RelationName,
        /// Replacement tuple.
        tuple: Tuple,
    },
    /// `select [<fields>] from <rel> [where <pred>]`
    Select {
        /// Relation scanned.
        relation: RelationName,
        /// Fields to project, in output order (`None` = all fields).
        projection: Option<Vec<FieldRef>>,
        /// Optional filter.
        predicate: Option<Predicate>,
    },
    /// `create relation <rel>[(attr, …)] [as <repr>]`
    Create {
        /// Name of the new relation.
        relation: RelationName,
        /// Attribute names, if declared.
        schema: Option<Vec<String>>,
        /// Physical representation.
        repr: ReprSpec,
    },
    /// `create index <name> on <rel> (<field>, …)` — attaches a persistent
    /// secondary index over one or more attributes (lexicographic order for
    /// composites). DDL, routed like any other write: logged before
    /// visibility, applied in sequence order.
    CreateIndex {
        /// Relation the index covers.
        relation: RelationName,
        /// Name of the new index.
        name: String,
        /// The indexed attributes, in significance order.
        fields: Vec<FieldRef>,
    },
    /// `create view <name> as <spec>` — defines a materialized view: a
    /// persistent relation maintained differentially from its bases on
    /// every commit. DDL, routed like any other write.
    CreateView {
        /// Name of the new view.
        name: RelationName,
        /// What the view derives.
        spec: ViewSpec,
    },
    /// `join <left> with <right> [on <field> = <field>]` — equi-join: the
    /// paper's intra-transaction *flooding* case ("the search of several
    /// relations within one transaction"). Without `on`, a natural join on
    /// tuple keys; with it, arbitrary attributes on either side.
    Join {
        /// Left relation (drives output order).
        left: RelationName,
        /// Right relation (probed by key or index).
        right: RelationName,
        /// Join attributes `(left field, right field)`; `None` = both keys.
        on: Option<(FieldRef, FieldRef)>,
    },
    /// `explain <query>` — plan the inner read without executing it,
    /// answering with the chosen access path / join strategy and its
    /// estimated cardinality.
    Explain(Box<Query>),
    /// `count <rel>`
    Count {
        /// Relation counted.
        relation: RelationName,
    },
    /// `sum|min|max <field> of <rel>`
    Aggregate {
        /// Relation scanned.
        relation: RelationName,
        /// The operation.
        op: AggOp,
        /// The field aggregated.
        field: FieldRef,
    },
    /// `relations` — list all relation names.
    Names,
}

impl Query {
    /// Relations this query reads ("syntactically derivable from the
    /// query", Section 2.2). `Names` reads the catalog, i.e. everything.
    pub fn reads(&self) -> Vec<RelationName> {
        match self {
            Query::Find { relation, .. }
            | Query::FindRange { relation, .. }
            | Query::Select { relation, .. }
            | Query::Count { relation }
            | Query::Aggregate { relation, .. } => vec![relation.clone()],
            Query::Join { left, right, .. } => vec![left.clone(), right.clone()],
            // An `explain` of anything else is refused on sight.
            Query::Explain(inner) if inner.is_explainable() => inner.reads(),
            Query::Explain(_) => Vec::new(),
            Query::Insert { relation, .. }
            | Query::Delete { relation, .. }
            | Query::Replace { relation, .. } => vec![relation.clone()],
            Query::CreateView { spec, .. } => spec.reads(),
            Query::Create { .. } | Query::CreateIndex { .. } | Query::Names => Vec::new(),
        }
    }

    /// The relation a single-relation statement names: the five reads,
    /// the three data writes and `create index`. `None` for joins,
    /// `explain` and the catalog statements, which a scheduler places by
    /// other means.
    pub fn relation(&self) -> Option<&RelationName> {
        match self {
            Query::Find { relation, .. }
            | Query::FindRange { relation, .. }
            | Query::Select { relation, .. }
            | Query::Count { relation }
            | Query::Aggregate { relation, .. }
            | Query::Insert { relation, .. }
            | Query::Delete { relation, .. }
            | Query::Replace { relation, .. }
            | Query::CreateIndex { relation, .. } => Some(relation),
            Query::Join { .. }
            | Query::Explain(_)
            | Query::Create { .. }
            | Query::CreateView { .. }
            | Query::Names => None,
        }
    }

    /// `true` for the statements `explain` can plan: `select`, `find`,
    /// `find … to …` and `join`.
    pub fn is_explainable(&self) -> bool {
        matches!(
            self,
            Query::Select { .. }
                | Query::Find { .. }
                | Query::FindRange { .. }
                | Query::Join { .. }
        )
    }

    /// `true` for the reads that cost one probe or less — `find` is one
    /// descent, `count` a stored counter — which a scheduler may answer
    /// while it holds a lock instead of queueing.
    pub fn is_point_read(&self) -> bool {
        matches!(self, Query::Find { .. } | Query::Count { .. })
    }

    /// Relations this query writes.
    pub fn writes(&self) -> Vec<RelationName> {
        match self {
            Query::Insert { relation, .. }
            | Query::Delete { relation, .. }
            | Query::Replace { relation, .. } => vec![relation.clone()],
            Query::Create { relation, .. } | Query::CreateIndex { relation, .. } => {
                vec![relation.clone()]
            }
            Query::CreateView { name, .. } => vec![name.clone()],
            _ => Vec::new(),
        }
    }

    /// `true` if the query returns the database unchanged — the paper's
    /// read-only transactions, for which "no physical modification is
    /// necessary".
    pub fn is_read_only(&self) -> bool {
        self.writes().is_empty()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Insert { relation, tuple } => write!(f, "insert {tuple} into {relation}"),
            Query::Find { relation, key } => write!(f, "find {key} in {relation}"),
            Query::FindRange { relation, lo, hi } => {
                write!(f, "find {lo} to {hi} in {relation}")
            }
            Query::Delete { relation, key } => write!(f, "delete {key} from {relation}"),
            Query::Replace { relation, tuple } => write!(f, "replace {tuple} in {relation}"),
            Query::Select {
                relation,
                projection,
                predicate,
            } => {
                write!(f, "select")?;
                if let Some(fields) = projection {
                    for (i, fr) in fields.iter().enumerate() {
                        write!(f, "{}{fr}", if i == 0 { " " } else { ", " })?;
                    }
                }
                write!(f, " from {relation}")?;
                if let Some(p) = predicate {
                    write!(f, " where {p}")?;
                }
                Ok(())
            }
            Query::Create {
                relation,
                schema,
                repr,
            } => {
                write!(f, "create relation {relation}")?;
                if let Some(attrs) = schema {
                    write!(f, "({})", attrs.join(", "))?;
                }
                write!(f, " as {repr}")
            }
            Query::CreateIndex {
                relation,
                name,
                fields,
            } => {
                write!(f, "create index {name} on {relation} (")?;
                for (i, fr) in fields.iter().enumerate() {
                    write!(f, "{}{fr}", if i == 0 { "" } else { ", " })?;
                }
                f.write_str(")")
            }
            Query::CreateView { name, spec } => write!(f, "create view {name} as {spec}"),
            Query::Join { left, right, on } => {
                write!(f, "join {left} with {right}")?;
                if let Some((l, r)) = on {
                    write!(f, " on {l} = {r}")?;
                }
                Ok(())
            }
            Query::Explain(inner) => write!(f, "explain {inner}"),
            Query::Count { relation } => write!(f, "count {relation}"),
            Query::Aggregate {
                relation,
                op,
                field,
            } => write!(f, "{op} {field} of {relation}"),
            Query::Names => f.write_str("relations"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn predicate_eval() {
        let tup = t(vec![1.into(), "ada".into()]);
        assert!(Predicate::index_eq(0, 1.into()).eval(&tup));
        assert!(!Predicate::index_eq(0, 2.into()).eval(&tup));
        assert!(Predicate::FieldNe(FieldRef::Index(1), "bob".into()).eval(&tup));
        assert!(Predicate::FieldLt(FieldRef::Index(0), 5.into()).eval(&tup));
        assert!(Predicate::FieldGt(FieldRef::Index(1), "a".into()).eval(&tup));
        // Out-of-range field: never matches, even negatively.
        assert!(!Predicate::index_eq(7, 1.into()).eval(&tup));
        assert!(!Predicate::FieldNe(FieldRef::Index(7), 1.into()).eval(&tup));
    }

    #[test]
    fn predicate_connectives() {
        let tup = t(vec![1.into()]);
        let yes = Predicate::index_eq(0, 1.into());
        let no = Predicate::index_eq(0, 2.into());
        assert!(Predicate::And(Box::new(yes.clone()), Box::new(yes.clone())).eval(&tup));
        assert!(!Predicate::And(Box::new(yes.clone()), Box::new(no.clone())).eval(&tup));
        assert!(Predicate::Or(Box::new(no.clone()), Box::new(yes.clone())).eval(&tup));
        assert!(!Predicate::Or(Box::new(no.clone()), Box::new(no)).eval(&tup));
    }

    #[test]
    fn named_refs_resolve_against_schema() {
        let schema = Schema::new(&["id", "name"]).unwrap();
        let p = Predicate::FieldEq(FieldRef::Name("name".into()), "ada".into());
        // Unresolved named refs never match.
        let tup = t(vec![1.into(), "ada".into()]);
        assert!(!p.eval(&tup));
        // Resolution turns them positional.
        let resolved = p.resolve(Some(&schema)).unwrap();
        assert!(resolved.eval(&tup));
        assert!(p.resolve(None).is_err());
        let bad = Predicate::FieldEq(FieldRef::Name("salary".into()), 1.into());
        assert!(bad.resolve(Some(&schema)).unwrap_err().contains("salary"));
        // Index refs resolve to themselves regardless of schema.
        assert_eq!(
            Predicate::index_eq(0, 1.into()).resolve(None).unwrap(),
            Predicate::index_eq(0, 1.into())
        );
    }

    #[test]
    fn field_ref_display() {
        assert_eq!(FieldRef::Index(3).to_string(), "#3");
        assert_eq!(FieldRef::Name("dept".into()).to_string(), "dept");
    }

    #[test]
    fn read_write_sets() {
        let q = Query::Insert {
            relation: "R".into(),
            tuple: t(vec![1.into()]),
        };
        assert_eq!(q.writes(), vec![RelationName::from("R")]);
        assert!(!q.is_read_only());

        let q = Query::Find {
            relation: "S".into(),
            key: 1.into(),
        };
        assert_eq!(q.reads(), vec![RelationName::from("S")]);
        assert!(q.writes().is_empty());
        assert!(q.is_read_only());

        assert!(Query::Names.is_read_only());
        assert!(!Query::Create {
            relation: "T".into(),
            schema: None,
            repr: ReprSpec::List
        }
        .is_read_only());
    }

    #[test]
    fn aggregates_compute() {
        let tuples: Vec<Tuple> = vec![
            t(vec![1.into(), 10.into()]),
            t(vec![2.into(), 30.into()]),
            t(vec![3.into(), 20.into()]),
        ];
        let f = FieldRef::Index(1);
        assert_eq!(
            compute_aggregate(&tuples, None, AggOp::Sum, &f).unwrap(),
            Some(Value::Int(60))
        );
        assert_eq!(
            compute_aggregate(&tuples, None, AggOp::Min, &f).unwrap(),
            Some(Value::Int(10))
        );
        assert_eq!(
            compute_aggregate(&tuples, None, AggOp::Max, &f).unwrap(),
            Some(Value::Int(30))
        );
        assert_eq!(compute_aggregate(&[], None, AggOp::Sum, &f).unwrap(), None);
        // Summing strings errors.
        let strs = vec![t(vec![1.into(), "x".into()])];
        assert!(compute_aggregate(&strs, None, AggOp::Sum, &f).is_err());
        // Min over strings works (value order).
        assert_eq!(
            compute_aggregate(&strs, None, AggOp::Min, &f).unwrap(),
            Some(Value::from("x"))
        );
        // Missing field errors.
        assert!(compute_aggregate(&tuples, None, AggOp::Sum, &FieldRef::Index(9)).is_err());
        // A total past i64::MAX errors rather than wrapping.
        let big = vec![
            t(vec![1.into(), i64::MAX.into()]),
            t(vec![2.into(), i64::MAX.into()]),
        ];
        assert_eq!(
            compute_aggregate(&big, None, AggOp::Sum, &f),
            Err("sum overflows i64".to_string())
        );
        // Named field resolution.
        let schema = Schema::new(&["id", "qty"]).unwrap();
        assert_eq!(
            compute_aggregate(
                &tuples,
                Some(&schema),
                AggOp::Sum,
                &FieldRef::Name("qty".into())
            )
            .unwrap(),
            Some(Value::Int(60))
        );
    }

    #[test]
    fn aggregate_query_shape() {
        let q = Query::Aggregate {
            relation: "Emp".into(),
            op: AggOp::Sum,
            field: FieldRef::Name("salary".into()),
        };
        assert_eq!(q.to_string(), "sum salary of Emp");
        assert!(q.is_read_only());
        assert_eq!(q.reads(), vec![RelationName::from("Emp")]);
    }

    #[test]
    fn find_range_reads_and_displays() {
        let q = Query::FindRange {
            relation: "R".into(),
            lo: 1.into(),
            hi: 9.into(),
        };
        assert_eq!(q.to_string(), "find 1 to 9 in R");
        assert_eq!(q.reads(), vec![RelationName::from("R")]);
        assert!(q.is_read_only());
    }

    #[test]
    fn join_reads_both_sides() {
        let q = Query::Join {
            left: "R".into(),
            right: "S".into(),
            on: None,
        };
        assert_eq!(q.to_string(), "join R with S");
        assert_eq!(q.reads().len(), 2);
        assert!(q.is_read_only());

        let q = Query::Join {
            left: "R".into(),
            right: "S".into(),
            on: Some((FieldRef::Index(2), FieldRef::Index(1))),
        };
        assert_eq!(q.to_string(), "join R with S on #2 = #1");
        assert_eq!(q.reads().len(), 2);
        assert!(q.is_read_only());
    }

    #[test]
    fn explain_wraps_reads_and_stays_read_only() {
        let q = Query::Explain(Box::new(Query::Select {
            relation: "R".into(),
            projection: None,
            predicate: Some(Predicate::index_eq(1, 7.into())),
        }));
        assert_eq!(q.to_string(), "explain select from R where #1 = 7");
        assert_eq!(q.reads(), vec![RelationName::from("R")]);
        assert!(q.writes().is_empty());
        assert!(q.is_read_only());
    }

    #[test]
    fn display_round_trip_shapes() {
        let q = Query::Insert {
            relation: "R".into(),
            tuple: t(vec![1.into(), "x".into()]),
        };
        assert_eq!(q.to_string(), "insert (1, 'x') into R");
        let q = Query::Select {
            relation: "R".into(),
            projection: None,
            predicate: Some(Predicate::And(
                Box::new(Predicate::index_eq(0, 1.into())),
                Box::new(Predicate::FieldLt(FieldRef::Index(1), "m".into())),
            )),
        };
        assert_eq!(q.to_string(), "select from R where (#0 = 1 and #1 < 'm')");
        let q = Query::Select {
            relation: "Emp".into(),
            projection: Some(vec![FieldRef::Name("name".into()), FieldRef::Index(0)]),
            predicate: None,
        };
        assert_eq!(q.to_string(), "select name, #0 from Emp");
        let q = Query::Create {
            relation: "Emp".into(),
            schema: Some(vec!["id".into(), "name".into()]),
            repr: ReprSpec::Tree,
        };
        assert_eq!(q.to_string(), "create relation Emp(id, name) as tree");
        let q = Query::CreateIndex {
            relation: "Emp".into(),
            name: "by_dept".into(),
            fields: vec![FieldRef::Index(2)],
        };
        assert_eq!(q.to_string(), "create index by_dept on Emp (#2)");
        let q = Query::CreateIndex {
            relation: "Emp".into(),
            name: "by_dept_name".into(),
            fields: vec![FieldRef::Index(2), FieldRef::Name("name".into())],
        };
        assert_eq!(q.to_string(), "create index by_dept_name on Emp (#2, name)");
    }

    #[test]
    fn create_index_is_a_write() {
        let q = Query::CreateIndex {
            relation: "Emp".into(),
            name: "ix".into(),
            fields: vec![FieldRef::Name("dept".into())],
        };
        assert_eq!(q.writes(), vec![RelationName::from("Emp")]);
        assert!(q.reads().is_empty());
        assert!(!q.is_read_only());
    }

    #[test]
    fn create_view_shapes_and_sets() {
        let q = Query::CreateView {
            name: "V".into(),
            spec: ViewSpec::Select {
                relation: "R".into(),
                predicate: Some(Predicate::index_eq(1, 7.into())),
            },
        };
        assert_eq!(q.to_string(), "create view V as select from R where #1 = 7");
        assert_eq!(q.reads(), vec![RelationName::from("R")]);
        assert_eq!(q.writes(), vec![RelationName::from("V")]);
        assert!(!q.is_read_only());

        let q = Query::CreateView {
            name: "J".into(),
            spec: ViewSpec::Join {
                left: "L".into(),
                right: "R".into(),
                on: (FieldRef::Index(1), FieldRef::Index(2)),
            },
        };
        assert_eq!(q.to_string(), "create view J as join L with R on #1 = #2");
        assert_eq!(q.reads().len(), 2);

        let q = Query::CreateView {
            name: "C".into(),
            spec: ViewSpec::Count {
                relation: "R".into(),
                group: FieldRef::Index(1),
            },
        };
        assert_eq!(q.to_string(), "create view C as count R by #1");

        let q = Query::CreateView {
            name: "S".into(),
            spec: ViewSpec::Sum {
                relation: "R".into(),
                field: FieldRef::Name("qty".into()),
                group: FieldRef::Index(1),
            },
        };
        assert_eq!(q.to_string(), "create view S as sum qty of R by #1");
        // A self-join view reads its base once.
        let q = ViewSpec::Join {
            left: "R".into(),
            right: "R".into(),
            on: (FieldRef::Index(1), FieldRef::Index(1)),
        };
        assert_eq!(q.reads(), vec![RelationName::from("R")]);
    }

    #[test]
    fn predicate_lowers_to_view_filter() {
        let p = Predicate::And(
            Box::new(Predicate::index_eq(0, 1.into())),
            Box::new(Predicate::Or(
                Box::new(Predicate::FieldLt(FieldRef::Index(1), 5.into())),
                Box::new(Predicate::FieldNe(FieldRef::Index(2), "x".into())),
            )),
        );
        let vf = p.to_view_filter(None).unwrap();
        assert_eq!(
            vf,
            ViewFilter::And(
                Box::new(ViewFilter::Eq(0, 1.into())),
                Box::new(ViewFilter::Or(
                    Box::new(ViewFilter::Lt(1, 5.into())),
                    Box::new(ViewFilter::Ne(2, "x".into())),
                )),
            )
        );
        // Named refs resolve via the schema, or fail without one.
        let schema = Schema::new(&["id", "qty"]).unwrap();
        let p = Predicate::FieldGt(FieldRef::Name("qty".into()), 3.into());
        assert_eq!(
            p.to_view_filter(Some(&schema)).unwrap(),
            ViewFilter::Gt(1, 3.into())
        );
        assert!(p.to_view_filter(None).is_err());
    }

    #[test]
    fn repr_spec_maps_to_repr() {
        assert_eq!(ReprSpec::List.to_repr(), Repr::List);
        assert_eq!(ReprSpec::Tree.to_repr(), Repr::BTree(16));
        assert_eq!(ReprSpec::BTree(4).to_repr(), Repr::BTree(4));
        assert_eq!(ReprSpec::BTree(4).to_string(), "btree(4)");
    }
}
