//! `translate : queries -> transactions`.
//!
//! "`translate` must parse the query and produce a function which is the
//! transaction itself. Here is where a language capability for
//! 'higher-order' (or function-producing) functions is very useful."
//! (Section 2.1.) The produced function is [`Transaction::apply`] with the
//! query bound: applying it to a database yields `(response, database')`
//! without touching the input value. It does nothing itself but hand the
//! statement and the [`Database`] to [`exec`] — a read reads every name
//! from that one database — whose evaluation (reads, joins, `explain`,
//! view substitution, writes through [`Database::write`]) is the same
//! code every engine calls.

use std::fmt;
use std::sync::Arc;

use fundb_relational::{Database, RelationName};

use crate::ast::Query;
use crate::exec;
use crate::response::Response;

/// The catalog statements, which change (or list) the name space itself.
fn catalog(db: &Database, q: &Query) -> Result<(Response, Database), String> {
    match q {
        Query::Create {
            relation,
            schema,
            repr,
        } => {
            let schema = exec::parse_schema(schema)?;
            let next = db
                .create_relation_with_schema(relation.clone(), repr.to_repr(), schema)
                .map_err(|e| e.to_string())?;
            Ok((Response::Created(relation.clone()), next))
        }
        Query::CreateView { name, spec } => {
            let def = exec::resolve_view_spec(spec, |n| exec::entry(db, n))?;
            let next = db
                .create_view(name.clone(), def)
                .map_err(|e| e.to_string())?;
            let rows = next.relation(name).map(|r| r.len()).unwrap_or(0);
            Ok((
                Response::ViewCreated {
                    name: name.clone(),
                    rows,
                },
                next,
            ))
        }
        Query::Names => Ok((Response::Names(db.relation_names()), db.clone())),
        other => unreachable!("not a catalog statement: {other}"),
    }
}

/// `database -> (response, database)` for one statement.
fn run(db: &Database, q: &Query) -> (Response, Database) {
    match q {
        Query::Find { .. }
        | Query::FindRange { .. }
        | Query::Select { .. }
        | Query::Count { .. }
        | Query::Aggregate { .. }
        | Query::Join { .. }
        | Query::Explain(_) => (exec::read(q, |_| db).0, db.clone()),
        Query::Insert { .. }
        | Query::Delete { .. }
        | Query::Replace { .. }
        | Query::CreateIndex { .. } => exec::write(db, q),
        Query::Create { .. } | Query::CreateView { .. } | Query::Names => {
            catalog(db, q).unwrap_or_else(|e| (Response::Error(e), db.clone()))
        }
    }
}

/// A transaction: a pure function `database -> (response, database)`,
/// packaged with the read/write sets derived from its source query.
///
/// Cloning is cheap; transactions are freely shared between threads,
/// streams and simulator passes.
///
/// # Example
///
/// ```
/// use fundb_query::{parse, translate};
/// use fundb_relational::{Database, Repr};
///
/// let db = Database::empty().create_relation("R", Repr::List)?;
/// let tx = translate(parse("insert 7 into R")?);
/// let (_resp, db2) = tx.apply(&db);
/// assert_eq!(db.tuple_count(), 0);  // input version untouched
/// assert_eq!(db2.tuple_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Transaction {
    query: Query,
    reads: Arc<[RelationName]>,
    writes: Arc<[RelationName]>,
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Transaction[{}]", self.query)
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.query)
    }
}

impl Transaction {
    /// Applies the transaction, producing the response and the successor
    /// database version. The input database is not modified (it cannot be:
    /// it is immutable); failed transactions return it as the successor.
    pub fn apply(&self, db: &Database) -> (Response, Database) {
        run(db, &self.query)
    }

    /// The source query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Consumes the transaction, returning the source query without a
    /// clone — what an engine, which schedules the statement itself and
    /// evaluates it through [`exec`], keeps.
    pub fn into_query(self) -> Query {
        self.query
    }

    /// Relations the transaction reads (syntactically derived).
    pub fn reads(&self) -> &[RelationName] {
        &self.reads
    }

    /// Relations the transaction writes (syntactically derived).
    pub fn writes(&self) -> &[RelationName] {
        &self.writes
    }

    /// `true` if the transaction returns its argument database unchanged.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

/// Produces the transaction function for a query — the paper's `translate`.
pub fn translate(query: Query) -> Transaction {
    Transaction {
        reads: query.reads().into(),
        writes: query.writes().into(),
        query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use fundb_relational::{Repr, Tuple};

    fn db() -> Database {
        Database::empty()
            .create_relation("R", Repr::List)
            .unwrap()
            .create_relation("S", Repr::List)
            .unwrap()
    }

    fn run(db: &Database, q: &str) -> (Response, Database) {
        translate(parse(q).unwrap()).apply(db)
    }

    #[test]
    fn insert_then_find() {
        let d0 = db();
        let (r, d1) = run(&d0, "insert (1, 'ada') into R");
        assert_eq!(r.to_string(), "inserted (1, 'ada') into R");
        let (r, d2) = run(&d1, "find 1 in R");
        assert_eq!(r.tuples().unwrap().len(), 1);
        // Read-only: successor database is the same value.
        assert_eq!(d2.tuple_count(), d1.tuple_count());
        // And d0 is untouched.
        assert_eq!(d0.tuple_count(), 0);
    }

    #[test]
    fn find_on_missing_relation_is_error_not_panic() {
        let (r, d1) = run(&db(), "find 1 in Nope");
        assert!(r.is_error());
        assert_eq!(d1.tuple_count(), 0);
    }

    #[test]
    fn delete_and_replace() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 'a') into R");
        let (_, d) = run(&d, "insert (1, 'b') into R");
        let (r, d) = run(&d, "delete 1 from R");
        assert_eq!(r, Response::Deleted(2));
        assert_eq!(d.tuple_count(), 0);

        let (_, d) = run(&d, "insert (2, 'x') into R");
        let (r, d) = run(&d, "replace (2, 'y') in R");
        assert!(!r.is_error());
        let (r, _) = run(&d, "find 2 in R");
        let tuples = r.tuples().unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].get(1).unwrap().as_str(), Some("y"));
    }

    #[test]
    fn find_range_end_to_end() {
        let d = db();
        let mut d = d;
        for k in [1, 3, 5, 7, 9] {
            let (_, next) = run(&d, &format!("insert {k} into R"));
            d = next;
        }
        let (r, _) = run(&d, "find 3 to 7 in R");
        let keys: Vec<i64> = r
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.key().as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![3, 5, 7]);
        let (r, _) = run(&d, "find 3 to 7 in Nope");
        assert!(r.is_error());
    }

    #[test]
    fn select_where() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 'a') into R");
        let (_, d) = run(&d, "insert (2, 'b') into R");
        let (_, d) = run(&d, "insert (3, 'c') into R");
        let (r, _) = run(&d, "select from R where #0 > 1 and #1 != 'c'");
        assert_eq!(r.tuples().unwrap().len(), 1);
        let (r, _) = run(&d, "select from R");
        assert_eq!(r.tuples().unwrap().len(), 3);
    }

    #[test]
    fn aggregates_end_to_end() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 10) into R");
        let (_, d) = run(&d, "insert (2, 30) into R");
        let (r, _) = run(&d, "sum #1 of R");
        assert_eq!(r.to_string(), "sum = 40");
        let (r, _) = run(&d, "min #0 of R");
        assert_eq!(r.to_string(), "min = 1");
        let (r, _) = run(&d, "max #1 of S");
        assert_eq!(r.to_string(), "max = none (empty relation)");
        let (r, _) = run(&d, "sum #1 of Nope");
        assert!(r.is_error());
    }

    #[test]
    fn join_end_to_end() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 'ada') into R");
        let (_, d) = run(&d, "insert (2, 'bob') into R");
        let (_, d) = run(&d, "insert (2, 'eng') into S");
        let (r, _) = run(&d, "join R with S");
        let tuples = r.tuples().unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].as_slice().len(), 3);
        assert_eq!(tuples[0].get(1).unwrap().as_str(), Some("bob"));
        assert_eq!(tuples[0].get(2).unwrap().as_str(), Some("eng"));
        let (r, _) = run(&d, "join R with Nope");
        assert!(r.is_error());
    }

    #[test]
    fn create_count_names() {
        let d = Database::empty();
        let (r, d) = run(&d, "create relation Emp as tree");
        assert_eq!(r, Response::Created("Emp".into()));
        let (r, d) = run(&d, "create relation Emp");
        assert!(r.is_error(), "duplicate create must fail");
        let (_, d) = run(&d, "insert 1 into Emp");
        let (r, d) = run(&d, "count Emp");
        assert_eq!(r, Response::Count(1));
        let (r, _) = run(&d, "relations");
        assert_eq!(r, Response::Names(vec!["Emp".into()]));
    }

    #[test]
    fn create_index_end_to_end() {
        let d = Database::empty();
        let (_, d) = run(&d, "create relation Emp(id, dept) as tree");
        let (_, d) = run(&d, "insert (1, 'eng') into Emp");
        let (_, d) = run(&d, "insert (2, 'ops') into Emp");
        let (r, d) = run(&d, "create index by_dept on Emp (dept)");
        assert_eq!(r.to_string(), "created index by_dept on Emp");
        // Subsequent writes maintain it; selects can use it.
        let (_, d) = run(&d, "insert (3, 'eng') into Emp");
        let (r, d) = run(&d, "select from Emp where dept = 'eng'");
        assert_eq!(r.tuples().unwrap().len(), 2);
        // Duplicate index and bad field/relation are errors, not panics.
        let (r, d) = run(&d, "create index by_dept on Emp (dept)");
        assert_eq!(r.to_string(), "error: index already exists on Emp: by_dept");
        let (r, d) = run(&d, "create index other on Emp (salary)");
        assert!(r.is_error());
        let (r, _) = run(&d, "create index ix on Nope (#1)");
        assert_eq!(r.to_string(), "error: no such relation: Nope");
    }

    #[test]
    fn composite_index_end_to_end() {
        let d = Database::empty();
        let (_, d) = run(&d, "create relation Emp(id, dept, grade) as tree");
        let (_, d) = run(&d, "insert (1, 'eng', 3) into Emp");
        let (_, d) = run(&d, "insert (2, 'eng', 4) into Emp");
        let (_, d) = run(&d, "insert (3, 'ops', 3) into Emp");
        let (_, d) = run(&d, "insert (4, 'eng', 3) into Emp");
        let (r, d) = run(&d, "create index by_dept_grade on Emp (dept, grade)");
        assert_eq!(r.to_string(), "created index by_dept_grade on Emp");
        let (r, d) = run(&d, "select from Emp where dept = 'eng' and grade = 3");
        assert_eq!(r.tuples().unwrap().len(), 2);
        // A prefix probe serves dept alone.
        let (r, d) = run(&d, "select from Emp where dept = 'eng'");
        assert_eq!(r.tuples().unwrap().len(), 3);
        // Subsequent writes maintain the composite postings.
        let (_, d) = run(&d, "insert (5, 'eng', 3) into Emp");
        let (r, d) = run(&d, "select from Emp where dept = 'eng' and grade = 3");
        assert_eq!(r.tuples().unwrap().len(), 3);
        let (r, _) = run(
            &d,
            "explain select from Emp where dept = 'eng' and grade = 3",
        );
        assert!(
            r.to_string()
                .contains("composite eq probe on by_dept_grade"),
            "{r}"
        );
    }

    #[test]
    fn create_view_end_to_end() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 10) into R");
        let (_, d) = run(&d, "insert (2, 20) into R");
        let (r, d) = run(&d, "create view Big as select from R where #1 > 15");
        assert_eq!(r.to_string(), "created view Big (1 rows)");
        // The view is a relation: find/select/count all work against it.
        let (r, d) = run(&d, "count Big");
        assert_eq!(r, Response::Count(1));
        // Writes to the base flow through; writes to the view are rejected.
        let (_, d) = run(&d, "insert (3, 30) into R");
        let (r, d) = run(&d, "count Big");
        assert_eq!(r, Response::Count(2));
        let (r, d) = run(&d, "insert (9, 90) into Big");
        assert_eq!(
            r.to_string(),
            "error: cannot write to materialized view: Big"
        );
        // Matching selects and explains substitute the view.
        let (r, d) = run(&d, "select from R where #1 > 15");
        assert_eq!(r.tuples().unwrap().len(), 2);
        let (r, d) = run(&d, "explain select from R where #1 > 15");
        assert_eq!(
            r.to_string(),
            "plan: materialized view scan on Big (~2 rows)"
        );
        // A different predicate does not match the view.
        let (r, _) = run(&d, "explain select from R where #1 > 25");
        assert_eq!(r.to_string(), "plan: full scan (~3 rows)");
    }

    #[test]
    fn join_view_end_to_end() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 7) into R");
        let (_, d) = run(&d, "insert (2, 8) into R");
        let (_, d) = run(&d, "insert (10, 7, 'x') into S");
        let (r, d) = run(&d, "create view J as join R with S on #1 = #1");
        assert_eq!(r.to_string(), "created view J (1 rows)");
        // The join query substitutes the view and matches direct execution.
        let (r, d) = run(&d, "join R with S on #1 = #1");
        assert_eq!(
            r.tuples().unwrap(),
            &[Tuple::new(vec![1.into(), 7.into(), 10.into(), "x".into()])]
        );
        let (r, d) = run(&d, "explain join R with S on #1 = #1");
        assert_eq!(r.to_string(), "plan: materialized view scan on J (~1 rows)");
        // Both sides propagate.
        let (_, d) = run(&d, "insert (11, 8, 'y') into S");
        let (r, d) = run(&d, "count J");
        assert_eq!(r, Response::Count(2));
        // Views over views and bad specs are errors, not panics.
        let (r, d) = run(&d, "create view K as select from J");
        assert_eq!(
            r.to_string(),
            "error: views over views are not supported: J"
        );
        let (r, _) = run(&d, "create view K as count Nope by #1");
        assert!(r.is_error());
    }

    #[test]
    fn substituted_join_view_answers_like_recompute_under_writes() {
        // A star: the join below matches Dim's even keys against Fact#1.
        let mut plain = Database::empty();
        for q in [
            "create relation Dim as tree",
            "create relation Fact as tree",
        ] {
            plain = run(&plain, q).1;
        }
        for d in (0..10).step_by(2) {
            plain = run(&plain, &format!("insert ({d}, 'd{d}') into Dim")).1;
        }
        for id in 0..40 {
            let q = format!(
                "insert ({id}, {}, {}, {}) into Fact",
                id % 10,
                id % 4,
                id % 7
            );
            plain = run(&plain, &q).1;
        }
        let join = "join Dim with Fact on #0 = #1";
        let (created, mut viewed) = run(&plain, &format!("create view Standing as {join}"));
        assert!(!created.is_error(), "{created}");
        let sorted = |r: Response| {
            let mut ts = r.tuples().expect("join answers tuples").to_vec();
            ts.sort();
            ts
        };
        // Every transition shape: replaces that move a fact in and out of
        // the join, fresh inserts, and deletes of those inserts.
        for i in 0..30i64 {
            let write = match i % 5 {
                0..=2 => format!("replace ({i}, {}, {}, 1) in Fact", (i * 3) % 10, i % 4),
                3 => format!("insert ({}, {}, 2, 2) into Fact", 100 + i, i % 10),
                _ => format!("delete {} from Fact", 100 + i - 1),
            };
            plain = run(&plain, &write).1;
            viewed = run(&viewed, &write).1;
            let (recomputed, _) = run(&plain, join);
            let (substituted, _) = run(&viewed, join);
            assert_eq!(sorted(substituted), sorted(recomputed), "after {write}");
        }
        let (plan, _) = run(&viewed, &format!("explain {join}"));
        assert!(
            plan.to_string()
                .contains("materialized view scan on Standing"),
            "{plan}"
        );
    }

    #[test]
    fn aggregate_views_end_to_end() {
        let d = Database::empty();
        let (_, d) = run(&d, "create relation Sales(id, region, qty) as tree");
        let (_, d) = run(&d, "insert (1, 'w', 5) into Sales");
        let (_, d) = run(&d, "insert (2, 'e', 3) into Sales");
        let (_, d) = run(&d, "insert (3, 'w', 2) into Sales");
        // Named field refs resolve against the base schema at DDL time.
        let (r, d) = run(&d, "create view ByRegion as sum qty of Sales by region");
        assert_eq!(r.to_string(), "created view ByRegion (2 rows)");
        let (r, d) = run(&d, "find 'w' in ByRegion");
        assert_eq!(
            r.tuples().unwrap(),
            &[Tuple::new(vec!["w".into(), 7.into(), 2.into()])]
        );
        let (_, d) = run(&d, "delete 1 from Sales");
        let (r, d) = run(&d, "find 'w' in ByRegion");
        assert_eq!(
            r.tuples().unwrap(),
            &[Tuple::new(vec!["w".into(), 2.into(), 1.into()])]
        );
        let (r, _) = run(&d, "create view C as count Sales by nope");
        assert!(r.is_error());
    }

    #[test]
    fn covering_read_end_to_end() {
        let d = Database::empty();
        let (_, d) = run(&d, "create relation Emp(id, dept, grade)");
        let (_, d) = run(&d, "insert (1, 'eng', 3) into Emp");
        let (_, d) = run(&d, "insert (2, 'eng', 4) into Emp");
        let (_, d) = run(&d, "create index dg on Emp (dept, grade)");
        let (r, d) = run(
            &d,
            "select dept, grade from Emp where dept = 'eng' and grade = 3",
        );
        assert_eq!(
            r.tuples().unwrap(),
            &[Tuple::new(vec!["eng".into(), 3.into()])]
        );
        let (r, _) = run(
            &d,
            "explain select dept, grade from Emp where dept = 'eng' and grade = 3",
        );
        assert!(r.to_string().contains("covering eq probe on dg"), "{r}");
    }

    #[test]
    fn join_on_end_to_end() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 7) into R");
        let (_, d) = run(&d, "insert (2, 8) into R");
        let (_, d) = run(&d, "insert (10, 7, 'x') into S");
        let (_, d) = run(&d, "insert (11, 9, 'y') into S");
        let (r, d) = run(&d, "join R with S on #1 = #1");
        let tuples = r.tuples().unwrap();
        assert_eq!(tuples.len(), 1);
        assert_eq!(
            tuples[0],
            Tuple::new(vec![1.into(), 7.into(), 10.into(), "x".into()])
        );
        let (r, _) = run(&d, "join R with Nope on #1 = #1");
        assert!(r.is_error());
    }

    #[test]
    fn explain_end_to_end() {
        let d = db();
        let (_, d) = run(&d, "insert (1, 'a') into R");
        let (r, d) = run(&d, "explain select from R where #0 = 1");
        assert_eq!(r.to_string(), "plan: key eq find (#0 = 1) (~1 rows)");
        let (r, d) = run(&d, "explain join R with S");
        assert!(matches!(r, Response::Plan { .. }), "{r}");
        assert!(r.to_string().starts_with("plan: merge join on keys"), "{r}");
        let (r, d) = run(&d, "explain find 5 in R");
        assert_eq!(r.to_string(), "plan: key eq find (#0 = 5) (~1 rows)");
        let (r, d) = run(&d, "explain count R");
        assert!(r.is_error());
        let (r, _) = run(&d, "explain select from Nope");
        assert!(r.is_error());
    }

    #[test]
    fn read_write_sets_exposed() {
        let tx = translate(parse("insert 1 into R").unwrap());
        assert_eq!(tx.writes(), &[RelationName::from("R")]);
        assert!(!tx.is_read_only());
        let tx = translate(parse("find 1 in R").unwrap());
        assert_eq!(tx.reads(), &[RelationName::from("R")]);
        assert!(tx.is_read_only());
    }

    #[test]
    fn failed_transaction_returns_input_db() {
        let d = db();
        let (_, d1) = run(&d, "insert 1 into R");
        let (r, d2) = run(&d1, "insert 1 into Missing");
        assert!(r.is_error());
        assert_eq!(d2.tuple_count(), d1.tuple_count());
    }

    #[test]
    fn transaction_debug_and_display() {
        let tx = translate(parse("count R").unwrap());
        assert_eq!(format!("{tx:?}"), "Transaction[count R]");
        assert_eq!(tx.to_string(), "count R");
        assert_eq!(tx.query().to_string(), "count R");
    }

    #[test]
    fn into_query_returns_the_source_ast() {
        let tx = translate(parse("find 1 in R").unwrap());
        let q = tx.into_query();
        assert_eq!(q.to_string(), "find 1 in R");
    }

    #[test]
    fn transactions_are_reusable_values() {
        // The same transaction applied to different versions gives
        // independent results — it is a function, not a cursor.
        let tx = translate(parse("insert 9 into R").unwrap());
        let d0 = db();
        let (_, d1) = tx.apply(&d0);
        let (_, d2) = tx.apply(&d1);
        assert_eq!(d1.tuple_count(), 1);
        assert_eq!(d2.tuple_count(), 2);
        let (_, d1b) = tx.apply(&d0);
        assert_eq!(d1b.tuple_count(), 1);
    }

    #[test]
    fn tuple_key_semantics() {
        let d = db();
        let t = Tuple::new(vec![5.into(), "x".into()]);
        let (_, d) = translate(Query::Insert {
            relation: "S".into(),
            tuple: t,
        })
        .apply(&d);
        let (r, _) = run(&d, "find 5 in S");
        assert_eq!(r.tuples().unwrap().len(), 1);
    }
}
