//! The primary-copy model (Section 3.1's deferred future work).
//!
//! "In the primary-copy model, a transaction simply proceeds without
//! initial coordination, all required coordination being done at a 'primary
//! copy' of each database object. … Functional representations for the
//! primary-copy model also appear possible \[but\] are more complicated, due
//! to the need to retain the ability to abort transactions. We leave the
//! handling of such behavior to a future exposition."
//!
//! This module is that exposition, made easy by persistence: each relation
//! has a *primary copy* — a versioned slot holding an immutable
//! [`Relation`] value. A transaction proceeds with **no initial
//! coordination**: it snapshots the primary copies it touches (O(1) clones,
//! thanks to persistence), computes new relation values purely, then
//! validates-and-installs under a brief commit lock. A conflicting
//! concurrent commit makes validation fail; the transaction **aborts** and
//! re-runs its pure body against fresh snapshots. Because the body is a
//! pure function of its snapshots, aborting is free — there is nothing to
//! undo, which is exactly why the functional approach suits this model.
//!
//! Deadlock is impossible by construction (the only lock is the one commit
//! mutex), so aborts here resolve *conflicts*, not deadlocks.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use fundb_query::{translate, Query, Response};
use fundb_relational::{Database, Relation, RelationName, Schema, Tuple, ViewDef};
use parking_lot::{Mutex, RwLock};

/// One name of the fixed catalog: its schema and, for a materialized view,
/// its definition.
struct CatalogEntry {
    name: RelationName,
    schema: Option<Schema>,
    view: Option<ViewDef>,
}

/// A fixed catalog and one primary copy per name — what the optimistic
/// engine and the 2PL baseline ([`LockingDb`](crate::LockingDb)) both
/// hold. They pick a statement's footprint, assemble its copies into a
/// [`Database`] for `translate` and store the changed values back with the
/// same code here, and differ only in how they guard the copies.
pub(crate) struct PrimaryCopies {
    /// In the initial database's order.
    catalog: Vec<CatalogEntry>,
    /// Each name's primary copy: its current value and a commit counter.
    copies: HashMap<RelationName, RwLock<(Relation, u64)>>,
}

impl PrimaryCopies {
    /// Primary copies of every relation and view of `initial`.
    pub(crate) fn new(initial: &Database) -> Self {
        let catalog: Vec<CatalogEntry> = initial
            .relation_names()
            .into_iter()
            .map(|name| CatalogEntry {
                schema: initial.schema(&name).expect("own name").cloned(),
                view: initial.view_def(&name).expect("own name").cloned(),
                name,
            })
            .collect();
        let copies = catalog
            .iter()
            .map(|e| {
                let rel = initial.relation(&e.name).expect("own name").clone();
                (e.name.clone(), RwLock::new((rel, 0)))
            })
            .collect();
        PrimaryCopies { catalog, copies }
    }

    /// Names in the catalog, relations and views alike.
    pub(crate) fn len(&self) -> usize {
        self.catalog.len()
    }

    /// `name`'s copy: its value and commit counter behind one lock.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog.
    pub(crate) fn slot(&self, name: &RelationName) -> &RwLock<(Relation, u64)> {
        (self.copies.get(name)).unwrap_or_else(|| panic!("no such relation: {name}"))
    }

    /// The copies `queries` touch, sorted by name: the relations they
    /// name, every view reading one of them and those views' bases — so a
    /// write maintains its views as the sequential model does. `relations`
    /// reads the whole catalog. A name outside the catalog stays out, so
    /// `translate` over the assembled database refuses it exactly as the
    /// model does.
    pub(crate) fn footprint<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q Query>,
    ) -> Vec<RelationName> {
        let mut named = Vec::new();
        for q in queries {
            if matches!(q, Query::Names) {
                named.extend(self.catalog.iter().map(|e| e.name.clone()));
            }
            named.extend(q.reads().into_iter().chain(q.writes()));
        }
        named.retain(|n| self.copies.contains_key(n));
        let mut footprint = named.clone();
        for e in &self.catalog {
            let Some(def) = &e.view else { continue };
            if named.contains(&e.name) || def.bases().into_iter().any(|b| named.contains(b)) {
                footprint.push(e.name.clone());
                footprint.extend(def.bases().into_iter().cloned());
            }
        }
        footprint.sort();
        footprint.dedup();
        footprint
    }

    /// Every copy's current value, each read under its own lock.
    pub(crate) fn current(&self) -> Database {
        self.assemble(|n| Some(self.slot(n).read().0.clone()))
    }

    /// The catalog entries `value` admits, in catalog order, each holding
    /// the value it returns.
    pub(crate) fn assemble(&self, value: impl Fn(&RelationName) -> Option<Relation>) -> Database {
        self.catalog.iter().fold(Database::empty(), |db, e| {
            let Some(rel) = value(&e.name) else {
                return db;
            };
            let (name, schema) = (e.name.clone(), e.schema.clone());
            match &e.view {
                None => db.with_relation_value(name, rel, schema),
                Some(def) => db.with_view_value(name, rel, schema, def.clone()),
            }
            .expect("catalog names are unique")
        })
    }
}

/// The values of `footprint` that `after` holds in place of `before(i)`
/// (compared with `ptr_eq`, so an untouched relation is never stored
/// back), as `(footprint index, new value)`.
pub(crate) fn changed<'b>(
    after: &Database,
    footprint: &[RelationName],
    before: impl Fn(usize) -> &'b Relation,
) -> Vec<(usize, Relation)> {
    let after = footprint
        .iter()
        .map(|n| after.relation(n).expect("the catalog is fixed"));
    let changed = after
        .enumerate()
        .filter(|(i, value)| !value.ptr_eq(before(*i)));
    changed.map(|(i, value)| (i, value.clone())).collect()
}

/// A transaction's private workspace: snapshots to read, replacements to
/// install on commit.
pub struct TxnWorkspace {
    snapshots: HashMap<RelationName, (Relation, u64)>,
    writes: HashMap<RelationName, Relation>,
}

impl fmt::Debug for TxnWorkspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TxnWorkspace[{} snapshots, {} writes]",
            self.snapshots.len(),
            self.writes.len()
        )
    }
}

impl TxnWorkspace {
    /// The relation as this transaction sees it: its own pending write if
    /// any, else the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared in the transaction's footprint.
    pub fn relation(&self, name: &RelationName) -> &Relation {
        self.writes.get(name).unwrap_or_else(|| {
            &self
                .snapshots
                .get(name)
                .unwrap_or_else(|| panic!("relation {name} not in transaction footprint"))
                .0
        })
    }

    /// Stages a replacement value for `name`, visible to later reads in
    /// this transaction and installed on commit.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared in the transaction's footprint.
    pub fn set_relation(&mut self, name: &RelationName, value: Relation) {
        assert!(
            self.snapshots.contains_key(name),
            "relation {name} not in transaction footprint"
        );
        self.writes.insert(name.clone(), value);
    }

    /// Convenience: inserts a tuple into `name` within this transaction.
    pub fn insert(&mut self, name: &RelationName, tuple: Tuple) {
        let (next, _) = self.relation(name).insert(tuple);
        self.set_relation(name, next);
    }
}

/// Commit/abort statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OccStats {
    /// Successfully committed transactions.
    pub commits: u64,
    /// Validation failures (each followed by a retry).
    pub aborts: u64,
}

/// The primary-copy executor: optimistic transactions over versioned
/// primary copies, with abort-and-retry on conflict.
///
/// # Example
///
/// ```
/// use fundb_core::primary_copy::OptimisticEngine;
/// use fundb_relational::{Database, Repr, Tuple};
///
/// let db = Database::empty().create_relation("Acct", Repr::List)?;
/// let engine = OptimisticEngine::new(&db);
/// let footprint = ["Acct".into()];
/// engine.execute(&footprint, |ws| {
///     ws.insert(&"Acct".into(), Tuple::new(vec![1.into(), 100.into()]));
/// });
/// assert_eq!(engine.snapshot().tuple_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct OptimisticEngine {
    copies: PrimaryCopies,
    commit_lock: Mutex<()>,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl fmt::Debug for OptimisticEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "OptimisticEngine[{} relations, {} commits, {} aborts]",
            self.copies.len(),
            stats.commits,
            stats.aborts
        )
    }
}

impl OptimisticEngine {
    /// Builds primary copies for every relation and view of `initial`.
    /// The catalog is fixed.
    pub fn new(initial: &Database) -> Self {
        OptimisticEngine {
            copies: PrimaryCopies::new(initial),
            commit_lock: Mutex::new(()),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// Runs `body` as one atomic transaction over the relations in
    /// `footprint`. The body is a *pure* function of its workspace; on
    /// validation conflict it is re-run against fresh snapshots (so side
    /// effects inside `body` would be observed once per attempt — keep it
    /// pure). Returns the body's result and the number of aborts suffered.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` names an unknown relation.
    pub fn execute<T>(
        &self,
        footprint: &[RelationName],
        body: impl Fn(&mut TxnWorkspace) -> T,
    ) -> (T, u64) {
        let mut retries = 0;
        loop {
            // Read phase: no coordination, just O(1) snapshots.
            let snapshots: HashMap<RelationName, (Relation, u64)> = footprint
                .iter()
                .map(|n| {
                    let guard = self.copies.slot(n).read();
                    (n.clone(), (guard.0.clone(), guard.1))
                })
                .collect();
            let mut ws = TxnWorkspace {
                snapshots,
                writes: HashMap::new(),
            };
            // Compute phase: pure.
            let result = body(&mut ws);
            // Validate-and-install phase.
            let _commit = self.commit_lock.lock();
            let valid = ws
                .snapshots
                .iter()
                .all(|(n, (_, seen))| self.copies.slot(n).read().1 == *seen);
            if valid {
                for (n, new_rel) in ws.writes {
                    let mut guard = self.copies.slot(&n).write();
                    guard.0 = new_rel;
                    guard.1 += 1;
                }
                self.commits.fetch_add(1, Ordering::SeqCst);
                return (result, retries);
            }
            self.aborts.fetch_add(1, Ordering::SeqCst);
            retries += 1;
        }
    }

    /// Convenience: runs a batch of queries as one atomic transaction,
    /// each statement through [`translate()`] over a database assembled from
    /// the workspace — so views are refused as write targets, maintained
    /// from their bases' writes and substituted for matching reads exactly
    /// as the sequential model does. The footprint is the queries'
    /// relations, every view reading one of them, and those views' bases;
    /// a name that does not exist gets the model's refusal.
    /// `create relation`, `create view`, `create index` and `relations`
    /// are rejected — the catalog is fixed.
    pub fn execute_queries(&self, queries: &[Query]) -> (Vec<Response>, u64) {
        let catalog_op = |q: &Query| {
            matches!(
                q,
                Query::Create { .. }
                    | Query::CreateIndex { .. }
                    | Query::CreateView { .. }
                    | Query::Names
            )
        };
        if queries.iter().any(catalog_op) {
            let why = "primary-copy engine has a fixed catalog";
            return (
                queries
                    .iter()
                    .map(|_| Response::Error(why.into()))
                    .collect(),
                0,
            );
        }
        let footprint = self.copies.footprint(queries);
        self.execute(&footprint, |ws| {
            let value = |n: &RelationName| {
                let included = footprint.binary_search(n).is_ok();
                included.then(|| ws.relation(n).clone())
            };
            let mut db = self.copies.assemble(value);
            let responses: Vec<Response> = queries
                .iter()
                .map(|q| {
                    let (response, next) = translate(q.clone()).apply(&db);
                    db = next;
                    response
                })
                .collect();
            for (i, value) in changed(&db, &footprint, |i| ws.relation(&footprint[i])) {
                ws.set_relation(&footprint[i], value);
            }
            responses
        })
    }

    /// A consistent snapshot of all primary copies as a [`Database`]:
    /// the relation values themselves (shared, not copied), with their
    /// schemas, indexes and view definitions.
    pub fn snapshot(&self) -> Database {
        let _commit = self.commit_lock.lock();
        self.copies.current()
    }

    /// Commit/abort counters so far.
    pub fn stats(&self) -> OccStats {
        OccStats {
            commits: self.commits.load(Ordering::SeqCst),
            aborts: self.aborts.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_query::parse;
    use fundb_relational::{Repr, Value};

    fn base() -> Database {
        Database::empty()
            .create_relation("A", Repr::List)
            .unwrap()
            .create_relation("B", Repr::List)
            .unwrap()
    }

    fn balance(rel: &Relation, key: i64) -> i64 {
        rel.find(&key.into())
            .first()
            .and_then(|t| t.get(1))
            .and_then(Value::as_int)
            .expect("account exists")
    }

    #[test]
    fn single_transaction_commits() {
        let engine = OptimisticEngine::new(&base());
        let fp = ["A".into()];
        let ((), retries) = engine.execute(&fp, |ws| {
            ws.insert(&"A".into(), Tuple::of_key(1));
        });
        assert_eq!(retries, 0);
        assert_eq!(engine.snapshot().tuple_count(), 1);
        assert_eq!(engine.stats().commits, 1);
        assert_eq!(engine.stats().aborts, 0);
    }

    #[test]
    fn workspace_reads_see_own_writes() {
        let engine = OptimisticEngine::new(&base());
        let fp = ["A".into()];
        let (count, _) = engine.execute(&fp, |ws| {
            ws.insert(&"A".into(), Tuple::of_key(7));
            ws.relation(&"A".into()).len()
        });
        assert_eq!(count, 1);
    }

    #[test]
    #[should_panic(expected = "not in transaction footprint")]
    fn out_of_footprint_access_panics() {
        let engine = OptimisticEngine::new(&base());
        let fp = ["A".into()];
        engine.execute(&fp, |ws| ws.relation(&"B".into()).len());
    }

    #[test]
    fn concurrent_rmw_conserves_invariants() {
        // The canonical OCC test: concurrent read-modify-write increments
        // must not lose updates.
        let mut db = base();
        let (d2, _) = db
            .insert(&"A".into(), Tuple::new(vec![1.into(), 0.into()]))
            .unwrap();
        db = d2;
        let engine = OptimisticEngine::new(&db);
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        let fp = ["A".into()];
                        engine.execute(&fp, |ws| {
                            let name: RelationName = "A".into();
                            let old = balance(ws.relation(&name), 1);
                            let (next, _, _) = ws.relation(&name).delete(&1.into());
                            let (next, _) =
                                next.insert(Tuple::new(vec![1.into(), (old + 1).into()]));
                            ws.set_relation(&name, next);
                        });
                    }
                });
            }
        });
        let snap = engine.snapshot();
        let rel = snap.relation(&"A".into()).unwrap();
        assert_eq!(balance(rel, 1), (threads * per_thread) as i64);
        let stats = engine.stats();
        assert_eq!(stats.commits, (threads * per_thread) as u64);
    }

    #[test]
    fn conflicting_commit_forces_abort_and_retry() {
        // Deterministic conflict: T1 snapshots, then T2 commits a write to
        // the same relation, then T1 tries to commit — T1 must abort once
        // and succeed on retry.
        use fundb_lenient::Lenient;
        use std::sync::atomic::AtomicU64;
        let mut db = base();
        let (d2, _) = db
            .insert(&"A".into(), Tuple::new(vec![1.into(), 0.into()]))
            .unwrap();
        db = d2;
        let engine = std::sync::Arc::new(OptimisticEngine::new(&db));
        let snapshot_taken: Lenient<()> = Lenient::new();
        let conflict_done: Lenient<()> = Lenient::new();
        let attempts = std::sync::Arc::new(AtomicU64::new(0));

        let e1 = engine.clone();
        let (st, cd, at) = (
            snapshot_taken.clone(),
            conflict_done.clone(),
            attempts.clone(),
        );
        let t1 = std::thread::spawn(move || {
            let fp = ["A".into()];
            e1.execute(&fp, |ws| {
                let name: RelationName = "A".into();
                let old = balance(ws.relation(&name), 1);
                if at.fetch_add(1, Ordering::SeqCst) == 0 {
                    // First attempt: let the conflicting writer go first.
                    let _ = st.fill(());
                    cd.wait();
                }
                let (next, _, _) = ws.relation(&name).delete(&1.into());
                let (next, _) = next.insert(Tuple::new(vec![1.into(), (old + 1).into()]));
                ws.set_relation(&name, next);
            })
        });

        snapshot_taken.wait();
        // T2 commits while T1's snapshot is stale.
        let fp = ["A".into()];
        engine.execute(&fp, |ws| {
            let name: RelationName = "A".into();
            let old = balance(ws.relation(&name), 1);
            let (next, _, _) = ws.relation(&name).delete(&1.into());
            let (next, _) = next.insert(Tuple::new(vec![1.into(), (old + 100).into()]));
            ws.set_relation(&name, next);
        });
        conflict_done.fill(()).unwrap();

        let ((), retries) = t1.join().unwrap();
        assert_eq!(retries, 1, "T1 must abort exactly once");
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let snap = engine.snapshot();
        // Both effects present: no lost update.
        assert_eq!(balance(snap.relation(&"A".into()).unwrap(), 1), 101);
        assert_eq!(engine.stats().aborts, 1);
        assert_eq!(engine.stats().commits, 2);
    }

    #[test]
    fn transfers_between_relations_are_atomic() {
        let mut db = base();
        for (rel, key, amount) in [("A", 1i64, 1000i64), ("B", 1, 0)] {
            let (d2, _) = db
                .insert(&rel.into(), Tuple::new(vec![key.into(), amount.into()]))
                .unwrap();
            db = d2;
        }
        let engine = OptimisticEngine::new(&db);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let fp: [RelationName; 2] = ["A".into(), "B".into()];
                        engine.execute(&fp, |ws| {
                            let a: RelationName = "A".into();
                            let b: RelationName = "B".into();
                            let from = balance(ws.relation(&a), 1);
                            let to = balance(ws.relation(&b), 1);
                            let (na, _, _) = ws.relation(&a).delete(&1.into());
                            let (na, _) = na.insert(Tuple::new(vec![1.into(), (from - 10).into()]));
                            ws.set_relation(&a, na);
                            let (nb, _, _) = ws.relation(&b).delete(&1.into());
                            let (nb, _) = nb.insert(Tuple::new(vec![1.into(), (to + 10).into()]));
                            ws.set_relation(&b, nb);
                        });
                    }
                });
            }
        });
        let snap = engine.snapshot();
        let a = balance(snap.relation(&"A".into()).unwrap(), 1);
        let b = balance(snap.relation(&"B".into()).unwrap(), 1);
        // Money conserved: 100 transfers of 10 out of 1000.
        assert_eq!(a + b, 1000);
        assert_eq!(a, 0);
        assert_eq!(b, 1000);
    }

    #[test]
    fn read_only_transactions_never_abort() {
        let engine = OptimisticEngine::new(&base());
        for _ in 0..20 {
            let fp = ["A".into()];
            let (len, retries) = engine.execute(&fp, |ws| ws.relation(&"A".into()).len());
            assert_eq!(len, 0);
            assert_eq!(retries, 0);
        }
        assert_eq!(engine.stats().aborts, 0);
    }

    #[test]
    fn query_batches_run_atomically() {
        let engine = OptimisticEngine::new(&base());
        let batch: Vec<Query> = [
            "insert (1, 'x') into A",
            "insert (2, 'y') into A",
            "find 1 in A",
            "count A",
        ]
        .iter()
        .map(|q| parse(q).unwrap())
        .collect();
        let (responses, _) = engine.execute_queries(&batch);
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[2].tuples().unwrap().len(), 1);
        assert_eq!(responses[3], Response::Count(2));
    }

    #[test]
    fn query_batch_rejects_unknown_relations_and_catalog_ops() {
        let engine = OptimisticEngine::new(&base());
        let (rs, _) = engine.execute_queries(&[parse("insert 1 into Nope").unwrap()]);
        assert_eq!(rs[0].to_string(), "error: no such relation: Nope");
        let (rs, _) = engine.execute_queries(&[parse("create relation C").unwrap()]);
        assert!(rs[0].is_error());
        // The unknown name ran a transaction that wrote nothing; the
        // catalog refusal ran none.
        assert_eq!(engine.snapshot().tuple_count(), 0);
        assert_eq!(engine.stats().commits, 1);
    }

    #[test]
    fn snapshot_keeps_schemas_indexes_and_views() {
        let db = [
            "create relation R(id, v) as btree(4)",
            "create relation S",
            "insert (1, 5) into R",
            "insert (2, -1) into R",
            "create index by_v on R (v)",
            "create view V as select from R where v > 0",
        ]
        .iter()
        .fold(Database::empty(), |db, q| {
            let (resp, next) = translate(parse(q).unwrap()).apply(&db);
            assert!(!resp.is_error(), "{q}: {resp}");
            next
        });
        let engine = OptimisticEngine::new(&db);
        let (rs, _) = engine.execute_queries(&[parse("replace (2, 7) in R").unwrap()]);
        assert!(!rs[0].is_error(), "{}", rs[0]);
        let snap = engine.snapshot();
        assert_eq!(snap.relation_names(), db.relation_names());
        assert_eq!(
            snap.schema(&"R".into()).unwrap(),
            db.schema(&"R".into()).unwrap()
        );
        let r = snap.relation(&"R".into()).unwrap();
        assert_eq!(r.repr(), Repr::BTree(4));
        assert!(r.indexes().get("by_v").is_some());
        assert_eq!(
            snap.view_def(&"V".into()).unwrap(),
            db.view_def(&"V".into()).unwrap()
        );
        assert_eq!(snap.relation(&"V".into()).unwrap().len(), 2);
        // Relation values are shared with the primary copies, not rebuilt.
        assert!(snap.shares_relation_with(&db, &"S".into()));
        assert!(snap.shares_relation_with(&engine.snapshot(), &"R".into()));
    }

    #[test]
    fn views_are_maintained_refused_and_substituted() {
        let db = [
            "create relation R",
            "insert (1, 5) into R",
            "insert (2, -1) into R",
            "create view V as select from R where #1 > 0",
        ]
        .iter()
        .fold(Database::empty(), |db, q| {
            translate(parse(q).unwrap()).apply(&db).1
        });
        let engine = OptimisticEngine::new(&db);
        let run = |q: &str| engine.execute_queries(&[parse(q).unwrap()]).0.remove(0);
        assert_eq!(
            run("insert (9, 9) into V").to_string(),
            "error: cannot write to materialized view: V"
        );
        run("replace (2, 7) in R");
        assert_eq!(
            run("select from V").to_string(),
            "found 2 tuples: (1, 5), (2, 7)"
        );
        assert_eq!(
            run("explain select from R where #1 > 0").to_string(),
            "plan: materialized view scan on V (~2 rows)"
        );
    }

    #[test]
    fn debug_format_mentions_stats() {
        let engine = OptimisticEngine::new(&base());
        assert!(format!("{engine:?}").contains("commits"));
    }
}
