//! The conventional lock-based executor (baseline).
//!
//! Section 2.3: "Conventional methods for accomplishing concurrent updates
//! to a database required the systems programmer to program locks,
//! semaphores, etc. In contrast, the functional approach … performs all
//! necessary synchronization implicitly." To make that comparison
//! measurable, this module is the conventional side: a mutable in-place
//! database protected by per-relation reader/writer locks under strict
//! two-phase locking (all locks acquired in a global order before the body
//! runs, released after).
//!
//! Benches run the same workloads through [`LockingDb`] and
//! [`PipelinedEngine`](crate::PipelinedEngine) and compare.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use fundb_query::{exec, Query, Response, Transaction};
use fundb_relational::{Database, RelationName, Schema, Tuple};
use parking_lot::RwLock;

/// A mutable, lock-based database: each relation is a key-sorted `Vec`
/// behind an `RwLock`.
pub struct LockingDb {
    relations: BTreeMap<RelationName, Arc<RwLock<Vec<Tuple>>>>,
    schemas: BTreeMap<RelationName, Option<Schema>>,
}

impl fmt::Debug for LockingDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LockingDb[{} relations]", self.relations.len())
    }
}

impl LockingDb {
    /// Builds the mutable mirror of a persistent database.
    pub fn from_database(db: &Database) -> Self {
        let relations = db
            .relation_names()
            .into_iter()
            .map(|n| {
                let mut tuples = db.relation(&n).expect("name from this database").scan();
                tuples.sort();
                (n, Arc::new(RwLock::new(tuples)))
            })
            .collect();
        let schemas = db
            .relation_names()
            .into_iter()
            .map(|n| {
                let s = db.schema(&n).expect("name from this database").cloned();
                (n, s)
            })
            .collect();
        LockingDb { relations, schemas }
    }

    /// Total tuples (takes read locks).
    pub fn tuple_count(&self) -> usize {
        self.relations.values().map(|r| r.read().len()).sum()
    }

    /// Executes one transaction under strict two-phase locking: write locks
    /// for written relations, read locks for read ones, acquired in global
    /// (name) order; the catalog itself is immutable here, so `create` is
    /// rejected.
    pub fn execute(&self, tx: &Transaction) -> Response {
        match tx.query() {
            Query::Create { .. } | Query::CreateIndex { .. } | Query::CreateView { .. } => {
                Response::Error("locking baseline has a fixed catalog".into())
            }
            Query::Explain(_) => Response::Error("locking baseline does not plan queries".into()),
            Query::Names => Response::Names(self.relations.keys().cloned().collect()),
            Query::Find { relation, key } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let guard = r.read();
                    Response::Tuples(guard.iter().filter(|t| t.key() == key).cloned().collect())
                }
            },
            Query::FindRange { relation, lo, hi } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let guard = r.read();
                    Response::Tuples(
                        guard
                            .iter()
                            .filter(|t| t.key() >= lo && t.key() <= hi)
                            .cloned()
                            .collect(),
                    )
                }
            },
            Query::Select {
                relation,
                projection,
                predicate,
            } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let schema = self.schemas.get(relation).and_then(Option::as_ref);
                    exec::select_rows(r.read().clone(), schema, projection, predicate)
                }
            },
            Query::Join { left, right, on } => {
                match (self.relations.get(left), self.relations.get(right)) {
                    (Some(l), Some(r)) => {
                        let ls = self.schemas.get(left).and_then(Option::as_ref);
                        let rs = self.schemas.get(right).and_then(Option::as_ref);
                        // `on` resolves to tuple positions; absent means the
                        // key-key join, i.e. positions (0, 0).
                        let resolved = match on {
                            None => Ok((0usize, 0usize)),
                            Some((lf, rf)) => {
                                lf.resolve(ls).and_then(|a| rf.resolve(rs).map(|b| (a, b)))
                            }
                        };
                        match resolved {
                            Err(e) => Response::Error(e),
                            Ok((lp, rp)) => {
                                // 2PL: acquire read locks in global (name)
                                // order to stay deadlock-free.
                                let (_first, _second, lg, rg);
                                if left <= right {
                                    lg = l.read();
                                    rg = r.read();
                                    _first = &lg;
                                    _second = &rg;
                                } else {
                                    rg = r.read();
                                    lg = l.read();
                                    _first = &rg;
                                    _second = &lg;
                                }
                                let mut out = Vec::new();
                                for lt in lg.iter() {
                                    let Some(lv) = lt.get(lp) else { continue };
                                    for rt in rg.iter().filter(|t| t.get(rp) == Some(lv)) {
                                        // The joined tuple drops the right
                                        // side's join attribute, matching the
                                        // planner's concatenation.
                                        let fields: Vec<fundb_relational::Value> = lt
                                            .iter()
                                            .cloned()
                                            .chain(
                                                rt.iter()
                                                    .enumerate()
                                                    .filter(|&(i, _)| i != rp)
                                                    .map(|(_, v)| v.clone()),
                                            )
                                            .collect();
                                        out.push(Tuple::new(fields));
                                    }
                                }
                                Response::Tuples(out)
                            }
                        }
                    }
                    _ => Response::Error(format!("no such relation in: join {left} with {right}")),
                }
            }
            Query::Count { relation } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => Response::Count(r.read().len()),
            },
            Query::Aggregate {
                relation,
                op,
                field,
            } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let schema = self.schemas.get(relation).and_then(Option::as_ref);
                    exec::aggregate(&r.read(), schema, *op, field)
                }
            },
            Query::Insert { relation, tuple } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let mut guard = r.write();
                    let pos = guard.partition_point(|t| t < tuple);
                    guard.insert(pos, tuple.clone());
                    Response::Inserted {
                        relation: relation.clone(),
                        tuple: tuple.clone(),
                    }
                }
            },
            Query::Delete { relation, key } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let mut guard = r.write();
                    let before = guard.len();
                    guard.retain(|t| t.key() != key);
                    Response::Deleted(before - guard.len())
                }
            },
            Query::Replace { relation, tuple } => match self.relations.get(relation) {
                None => Response::Error(format!("no such relation: {relation}")),
                Some(r) => {
                    let mut guard = r.write();
                    guard.retain(|t| t.key() != tuple.key());
                    let pos = guard.partition_point(|t| t < tuple);
                    guard.insert(pos, tuple.clone());
                    Response::Inserted {
                        relation: relation.clone(),
                        tuple: tuple.clone(),
                    }
                }
            },
        }
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
            let chunks: Vec<Vec<(usize, Transaction)>> = (0..threads)
                .map(|t| {
                    txns.iter()
                        .enumerate()
                        .filter(|(i, _)| i % threads == t)
                        .map(|(i, tx)| (i, tx.clone()))
                        .collect()
                })
                .collect();
            let mut handles = Vec::new();
            for chunk in chunks {
                handles.push(scope.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|(i, tx)| (i, self.execute(&tx)))
                        .collect::<Vec<_>>()
                }));
            }
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
    use fundb_relational::Repr;

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
        assert!(ldb.execute(&txn("join R with Nope")).is_error());
        assert_eq!(ldb.execute(&txn("delete 1 from S")), Response::Deleted(1));
        assert_eq!(ldb.execute(&txn("delete 1 from R")), Response::Deleted(1));
        assert_eq!(
            ldb.execute(&txn("relations")),
            Response::Names(vec!["R".into(), "S".into()])
        );
        assert!(ldb.execute(&txn("create relation T")).is_error());
        assert!(ldb.execute(&txn("find 1 in Missing")).is_error());
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
        // Relations stay key-sorted under concurrency.
        let scan = ldb.execute(&txn("select from R"));
        let keys: Vec<i64> = scan
            .tuples()
            .unwrap()
            .iter()
            .map(|t| t.key().as_int().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
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
