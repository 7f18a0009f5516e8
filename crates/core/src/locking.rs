//! The conventional lock-based executor (baseline).
//!
//! Section 2.3: "Conventional methods for accomplishing concurrent updates
//! to a database required the systems programmer to program locks,
//! semaphores, etc. In contrast, the functional approach … performs all
//! necessary synchronization implicitly." To make that comparison
//! measurable, this module is the conventional side: per-relation
//! reader/writer locks under strict two-phase locking (all locks acquired
//! in a global order before the body runs, released after).
//!
//! Only the concurrency control is its own. The copies, the footprint and
//! the evaluation are the primary-copy engine's: a statement runs through
//! `translate` over a [`Database`] assembled from the copies it locked,
//! like every other scheduler, so the baseline answers like the sequential
//! model and benches comparing it with
//! [`PipelinedEngine`](crate::PipelinedEngine) compare locks against
//! lenient cells, not two interpreters.

use std::fmt;

use fundb_query::{Query, Response, Transaction};
use fundb_relational::{Database, RelationName};

use crate::primary_copy::{changed, PrimaryCopies};

/// A lock-based database: each relation and view is a primary copy behind
/// an `RwLock`.
pub struct LockingDb {
    copies: PrimaryCopies,
}

impl fmt::Debug for LockingDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockingDb[{} relations]", self.copies.len())
    }
}

impl LockingDb {
    /// Builds lock-guarded copies of every relation and view of `db`.
    pub fn from_database(db: &Database) -> Self {
        LockingDb {
            copies: PrimaryCopies::new(db),
        }
    }

    /// Total tuples, views included (takes read locks).
    pub fn tuple_count(&self) -> usize {
        self.copies.current().tuple_count()
    }

    /// Executes one transaction under strict two-phase locking: every
    /// relation of its footprint locked in global (name) order before the
    /// body runs — write locks if the statement writes, read locks
    /// otherwise — and each value it changed stored back under its write
    /// lock. The catalog is fixed, so `create` is rejected.
    pub fn execute(&self, tx: &Transaction) -> Response {
        if matches!(
            tx.query(),
            Query::Create { .. } | Query::CreateIndex { .. } | Query::CreateView { .. }
        ) {
            return Response::Error("locking baseline has a fixed catalog".into());
        }
        let footprint = self.copies.footprint([tx.query()]);
        let slots = footprint.iter().map(|n| self.copies.slot(n));
        let at = |n: &RelationName| footprint.binary_search(n).ok();
        if tx.is_read_only() {
            let guards: Vec<_> = slots.map(|s| s.read()).collect();
            let db = self.copies.assemble(|n| at(n).map(|i| guards[i].0.clone()));
            return tx.apply(&db).0;
        }
        let mut guards: Vec<_> = slots.map(|s| s.write()).collect();
        let db = self.copies.assemble(|n| at(n).map(|i| guards[i].0.clone()));
        let (response, after) = tx.apply(&db);
        for (i, value) in changed(&after, &footprint, |i| &guards[i].0) {
            guards[i].0 = value;
        }
        response
    }

    /// Runs a batch across `threads` OS threads (round-robin partition),
    /// returning responses in submission order. Unlike the functional
    /// engine this provides no serialization *order* guarantee between
    /// threads — only lock-level isolation, which is all 2PL gives without
    /// a global coordinator.
    pub fn run_concurrent(&self, txns: &[Transaction], threads: usize) -> Vec<Response> {
        assert!(threads > 0, "need at least one thread");
        let mut out: Vec<Option<Response>> = vec![None; txns.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mine = txns.iter().enumerate().skip(t).step_by(threads);
                        mine.map(|(i, tx)| (i, self.execute(tx)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("worker panicked") {
                    out[i] = Some(r);
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("every index produced"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_query::{parse, translate};
    use fundb_relational::{Repr, Tuple};

    fn txn(q: &str) -> Transaction {
        translate(parse(q).unwrap())
    }

    fn base() -> Database {
        Database::empty()
            .create_relation("R", Repr::List)
            .unwrap()
            .create_relation("S", Repr::List)
            .unwrap()
    }

    /// `stmts` applied in order through the sequential model.
    fn model(stmts: &[&str]) -> Database {
        stmts
            .iter()
            .fold(Database::empty(), |db, q| txn(q).apply(&db).1)
    }

    #[test]
    fn mirrors_initial_content() {
        let mut db = base();
        for i in 0..5 {
            let (d2, _) = db.insert(&"R".into(), Tuple::of_key(i)).unwrap();
            db = d2;
        }
        let ldb = LockingDb::from_database(&db);
        assert_eq!(ldb.tuple_count(), 5);
    }

    #[test]
    fn all_query_kinds() {
        let ldb = LockingDb::from_database(&base());
        assert!(!ldb.execute(&txn("insert (1, 'a') into R")).is_error());
        assert_eq!(ldb.execute(&txn("find 1 in R")).tuples().unwrap().len(), 1);
        assert_eq!(ldb.execute(&txn("count R")), Response::Count(1));
        assert_eq!(
            ldb.execute(&txn("select from R where #0 = 1"))
                .tuples()
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            ldb.execute(&txn("find 0 to 5 in R"))
                .tuples()
                .unwrap()
                .len(),
            1
        );
        assert!(!ldb.execute(&txn("replace (1, 'b') in R")).is_error());
        assert!(!ldb.execute(&txn("insert (1, 's') into S")).is_error());
        assert_eq!(
            ldb.execute(&txn("join R with S")).tuples().unwrap().len(),
            1
        );
        assert_eq!(
            ldb.execute(&txn("join R with Nope")).to_string(),
            "error: no such relation: Nope"
        );
        assert_eq!(ldb.execute(&txn("delete 1 from S")), Response::Deleted(1));
        assert_eq!(ldb.execute(&txn("delete 1 from R")), Response::Deleted(1));
        assert_eq!(
            ldb.execute(&txn("relations")),
            Response::Names(vec!["R".into(), "S".into()])
        );
        assert!(ldb.execute(&txn("create relation T")).is_error());
        assert!(ldb.execute(&txn("create index ix on R (#1)")).is_error());
        assert!(ldb.execute(&txn("find 1 in Missing")).is_error());
    }

    /// The statements the baseline once answered on its own: each now gets
    /// the sequential model's response, text included.
    #[test]
    fn answers_like_the_sequential_model() {
        let setup = [
            "create relation T as list",
            "create relation B as btree(4)",
            "create relation P as tree",
            "insert (1, 'b') into B",
            "insert (1, 'a') into B",
            "insert (3, 20) into P",
            "insert (2, 10) into P",
            "insert (5, 40) into T",
            "create view Big as select from T where #1 > 10",
        ];
        let stmts = [
            "find 1 in B",
            "select from P",
            "relations",
            "insert (7, 30) into Big",
            "insert (8, 50) into T",
            "select from Big",
            "join T with Nope",
            "explain find 1 in B",
            "explain select from T where #1 > 10",
            "sum #1 of P",
        ];
        let mut db = model(&setup);
        let ldb = LockingDb::from_database(&db);
        for q in stmts {
            let (expected, next) = txn(q).apply(&db);
            db = next;
            assert_eq!(ldb.execute(&txn(q)), expected, "{q}");
        }
        assert_eq!(ldb.tuple_count(), db.tuple_count());
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let ldb = LockingDb::from_database(&base());
        let txns: Vec<Transaction> = (0..200)
            .map(|i| {
                let rel = if i % 2 == 0 { "R" } else { "S" };
                txn(&format!("insert {i} into {rel}"))
            })
            .collect();
        let rs = ldb.run_concurrent(&txns, 8);
        assert_eq!(rs.len(), 200);
        assert!(rs.iter().all(|r| !r.is_error()));
        assert_eq!(ldb.tuple_count(), 200);
        // Every insert landed exactly once.
        let scan = ldb.execute(&txn("select from R"));
        let mut keys: Vec<i64> = scan
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.key().as_int().unwrap())
            .collect();
        keys.sort();
        assert_eq!(keys, (0..200).step_by(2).collect::<Vec<i64>>());
    }

    /// Writers to both bases of a join view and to a select view's base,
    /// on many threads: the views stay equal to their recomputation.
    #[test]
    fn concurrent_writers_keep_views_exact() {
        let db = model(&[
            "create relation R as list",
            "create relation S as list",
            "create view J as join R with S on #0 = #0",
            "create view V as select from R where #1 > 5",
        ]);
        let ldb = LockingDb::from_database(&db);
        let txns: Vec<Transaction> = (0..120)
            .map(|i| match i % 3 {
                0 => txn(&format!("insert ({}, {}) into R", i % 20, i % 11)),
                1 => txn(&format!("insert ({}, {i}) into S", i % 20)),
                _ => txn(&format!("delete {} from R", i % 7)),
            })
            .collect();
        assert!(ldb.run_concurrent(&txns, 4).iter().all(|r| !r.is_error()));
        let rows = |q: &str| {
            let mut rows = ldb.execute(&txn(q)).tuples().unwrap().to_vec();
            rows.sort();
            rows
        };
        assert_eq!(rows("select from J"), rows("join R with S on #0 = #0"));
        assert_eq!(rows("select from V"), rows("select from R where #1 > 5"));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let ldb = LockingDb::from_database(&base());
        let _ = ldb.run_concurrent(&[], 0);
    }

    #[test]
    fn debug_format() {
        let ldb = LockingDb::from_database(&base());
        assert_eq!(format!("{ldb:?}"), "LockingDb[2 relations]");
    }
}
