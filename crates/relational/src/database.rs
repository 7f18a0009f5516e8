//! The database value: a persistent mapping from names to relations.
//!
//! Mirrors the paper exactly: the database of the Section 4 experiments is
//! a linked list of relations, so [`Database`] is a persistent association
//! list. Updating relation `S` in `D0 = [R0, S0]` produces `D1 = [R0, S1]`
//! — a fresh spine cell for `S`, the `R` entry shared — which is the
//! `D0`/`D1`/`D2` example of Section 2.2.

use std::fmt;
use std::sync::Arc;

use fundb_persist::{CopyReport, PList};

use crate::batch::{BatchOp, BatchOutcome};
use crate::index::KeyTransition;
use crate::relation::{Relation, Repr};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::{derive_delta, eval_view, materialize_view, rebuilt_like, ViewDef};

/// The name of a relation (cheap to clone and compare).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationName(Arc<str>);

impl RelationName {
    /// Wraps a name.
    pub fn new(name: &str) -> Self {
        RelationName(Arc::from(name))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for RelationName {
    fn from(s: &str) -> Self {
        RelationName::new(s)
    }
}

impl fmt::Display for RelationName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    /// The named relation does not exist.
    NoSuchRelation(RelationName),
    /// A relation with this name already exists.
    DuplicateRelation(RelationName),
    /// The relation already has an index with this name.
    DuplicateIndex(RelationName, String),
    /// The named relation is a materialized view; views are maintained by
    /// the database, not written directly.
    WriteToView(RelationName),
    /// A view definition referenced another view as its base.
    ViewOnView(RelationName),
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::NoSuchRelation(n) => write!(f, "no such relation: {n}"),
            DatabaseError::DuplicateRelation(n) => write!(f, "relation already exists: {n}"),
            DatabaseError::DuplicateIndex(n, ix) => {
                write!(f, "index already exists on {n}: {ix}")
            }
            DatabaseError::WriteToView(n) => {
                write!(f, "cannot write to materialized view: {n}")
            }
            DatabaseError::ViewOnView(n) => {
                write!(f, "views over views are not supported: {n}")
            }
        }
    }
}

impl std::error::Error for DatabaseError {}

/// One catalog entry: a named relation with an optional schema. A `view`
/// definition marks the relation as derived: its contents are maintained
/// by the database from its bases, and direct writes are rejected.
#[derive(Clone)]
struct Entry {
    name: RelationName,
    relation: Relation,
    schema: Option<Schema>,
    view: Option<Arc<ViewDef>>,
}

/// A persistent database: `names -> relations` as an association list.
///
/// Every operation is functional: updates return a new [`Database`] sharing
/// all untouched relation entries (and all untouched structure *within* the
/// updated relation) with the receiver. Cloning is O(1).
///
/// # Example
///
/// ```
/// use fundb_relational::{Database, Repr, Tuple};
///
/// let d0 = Database::empty().create_relation("R", Repr::List)?;
/// let (d1, _) = d0.insert(&"R".into(), Tuple::of_key(7))?;
/// assert_eq!(d1.find(&"R".into(), &7.into())?.len(), 1);
/// assert_eq!(d0.find(&"R".into(), &7.into())?.len(), 0); // D0 unchanged
/// # Ok::<(), fundb_relational::DatabaseError>(())
/// ```
#[derive(Clone)]
pub struct Database {
    entries: PList<Entry>,
}

impl Default for Database {
    fn default() -> Self {
        Self::empty()
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("{}({})", e.name, e.relation.len()))
            .collect();
        write!(f, "Database[{}]", names.join(", "))
    }
}

impl Database {
    /// A database with no relations.
    pub fn empty() -> Self {
        Database {
            entries: PList::nil(),
        }
    }

    /// Adds an empty relation named `name` with the given representation.
    ///
    /// New relations go to the *end* of the association list, preserving the
    /// positions (and thus the spine-sharing behaviour) of existing ones.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::DuplicateRelation`] if the name is taken.
    pub fn create_relation<N: Into<RelationName>>(
        &self,
        name: N,
        repr: Repr,
    ) -> Result<Database, DatabaseError> {
        self.create_relation_with_schema(name, repr, None)
    }

    /// Like [`create_relation`](Self::create_relation), attaching named
    /// attributes that queries may reference instead of field indices.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::DuplicateRelation`] if the name is taken.
    pub fn create_relation_with_schema<N: Into<RelationName>>(
        &self,
        name: N,
        repr: Repr,
        schema: Option<Schema>,
    ) -> Result<Database, DatabaseError> {
        self.with_relation_value(name, Relation::empty(repr), schema)
    }

    /// Adds relation `name` holding the given relation *value* (rather
    /// than an empty one), preserving whatever structure that value
    /// physically shares with other versions.
    ///
    /// This is how an engine cut or a checkpoint loader reassembles a
    /// database: re-inserting tuples one by one would rebuild every node
    /// and destroy the sharing that makes incremental checkpoints (and the
    /// paper's Section 2.2 claim) work.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::DuplicateRelation`] if the name is taken.
    pub fn with_relation_value<N: Into<RelationName>>(
        &self,
        name: N,
        relation: Relation,
        schema: Option<Schema>,
    ) -> Result<Database, DatabaseError> {
        self.append(Entry {
            name: name.into(),
            relation,
            schema,
            view: None,
        })
    }

    /// Like [`with_relation_value`](Self::with_relation_value), but marking
    /// the entry as a materialized view with the given definition — how a
    /// checkpoint loader or engine cut reassembles a database whose views
    /// keep being maintained.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::DuplicateRelation`] if the name is taken.
    pub fn with_view_value<N: Into<RelationName>>(
        &self,
        name: N,
        relation: Relation,
        schema: Option<Schema>,
        def: ViewDef,
    ) -> Result<Database, DatabaseError> {
        self.append(Entry {
            name: name.into(),
            relation,
            schema,
            view: Some(Arc::new(def)),
        })
    }

    /// Appends `entry` at the end of the spine, sharing every existing
    /// cell's contents; the one place a name's uniqueness is checked.
    fn append(&self, entry: Entry) -> Result<Database, DatabaseError> {
        if self.position(&entry.name).is_some() {
            return Err(DatabaseError::DuplicateRelation(entry.name));
        }
        let entries: Vec<Entry> = self
            .entries
            .iter()
            .cloned()
            .chain(std::iter::once(entry))
            .collect();
        Ok(Database {
            entries: entries.into_iter().collect(),
        })
    }

    /// The schema attached to relation `name`, if any.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent.
    pub fn schema(&self, name: &RelationName) -> Result<Option<&Schema>, DatabaseError> {
        self.entries
            .iter()
            .find(|e| &e.name == name)
            .map(|e| e.schema.as_ref())
            .ok_or_else(|| DatabaseError::NoSuchRelation(name.clone()))
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.entries.len()
    }

    /// The names of all relations, in spine order.
    pub fn relation_names(&self) -> Vec<RelationName> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Index of `name` in the association list, if present. The index is
    /// exactly the number of spine cells a lookup traverses — the quantity
    /// the dataflow model charges for relation lookup.
    pub fn position(&self, name: &RelationName) -> Option<usize> {
        self.entries.iter().position(|e| &e.name == name)
    }

    /// The relation named `name`.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent.
    pub fn relation(&self, name: &RelationName) -> Result<&Relation, DatabaseError> {
        self.entries
            .iter()
            .find(|e| &e.name == name)
            .map(|e| &e.relation)
            .ok_or_else(|| DatabaseError::NoSuchRelation(name.clone()))
    }

    /// Total tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.entries.iter().map(|e| e.relation.len()).sum()
    }

    /// `insert-in-db`: a new database in which `tuple` has been inserted
    /// into relation `name`. The copy report covers the relation-internal
    /// copying; the database spine additionally re-conses `position(name)+1`
    /// cells (and shares the rest), exactly as in the paper's example.
    ///
    /// Materialized views depending on `name` are maintained in the same
    /// step (one differential pass each), so the returned database is
    /// internally consistent.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent,
    /// [`DatabaseError::WriteToView`] if `name` is a view.
    pub fn insert(
        &self,
        name: &RelationName,
        tuple: Tuple,
    ) -> Result<(Database, CopyReport), DatabaseError> {
        let (db, _, report) = self.write(name, &[BatchOp::Insert(tuple)])?;
        Ok((db, report))
    }

    /// `find`: every tuple in relation `name` whose key is `key`.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent.
    pub fn find(&self, name: &RelationName, key: &Value) -> Result<Vec<Tuple>, DatabaseError> {
        Ok(self.relation(name)?.find(key))
    }

    /// Every tuple in relation `name` whose key lies in `lo..=hi`.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent.
    pub fn find_range(
        &self,
        name: &RelationName,
        lo: &Value,
        hi: &Value,
    ) -> Result<Vec<Tuple>, DatabaseError> {
        Ok(self.relation(name)?.find_range(lo, hi))
    }

    /// Natural key-join of two relations.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if either is absent.
    pub fn join(
        &self,
        left: &RelationName,
        right: &RelationName,
    ) -> Result<Vec<Tuple>, DatabaseError> {
        Ok(self.relation(left)?.join_by_key(self.relation(right)?))
    }

    /// Removes every tuple with `key` from relation `name`, returning the
    /// new database and the removed tuples. Dependent materialized views
    /// are maintained in the same step.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent,
    /// [`DatabaseError::WriteToView`] if `name` is a view.
    pub fn delete(
        &self,
        name: &RelationName,
        key: &Value,
    ) -> Result<(Database, Vec<Tuple>), DatabaseError> {
        let removed = self.find(name, key)?;
        let (db, _, _) = self.write(name, &[BatchOp::Delete(key.clone())])?;
        Ok((db, removed))
    }

    /// Attaches (and builds) a secondary index named `index` on attribute
    /// position `field` of relation `name`. The relation's store is shared
    /// with the receiver; only the index set (and the spine up to the entry)
    /// is new. The report covers the index build.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if the relation is absent,
    /// [`DatabaseError::DuplicateIndex`] if it already has an index with
    /// this name.
    pub fn create_index(
        &self,
        name: &RelationName,
        index: &str,
        field: usize,
    ) -> Result<Database, DatabaseError> {
        self.create_index_multi(name, index, &[field])
    }

    /// Attaches (and builds) a composite secondary index over `fields` in
    /// lexicographic order (see [`Relation::create_index_multi`]).
    ///
    /// # Errors
    ///
    /// Same as [`create_index`](Self::create_index).
    pub fn create_index_multi(
        &self,
        name: &RelationName,
        index: &str,
        fields: &[usize],
    ) -> Result<Database, DatabaseError> {
        let (db, _, ok) =
            self.update_relation(name, |rel| match rel.create_index_multi(index, fields) {
                Some(r2) => (r2, CopyReport::default(), true),
                None => (rel.clone(), CopyReport::default(), false),
            })?;
        if !ok {
            return Err(DatabaseError::DuplicateIndex(
                name.clone(),
                index.to_string(),
            ));
        }
        Ok(db)
    }

    /// Applies `ops` to base relation `name` as one batch
    /// ([`Relation::apply_batch_with_runs`]) and advances every dependent
    /// view from the same per-key runs, so the batch is derived once.
    /// Returns the new database, each op's outcome in batch order and the
    /// relation's copy report. Every statement-level write lands here:
    /// `translate`'s insert/delete/replace, durable log replay and replica
    /// apply.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent,
    /// [`DatabaseError::WriteToView`] if `name` is a view.
    pub fn write(
        &self,
        name: &RelationName,
        ops: &[BatchOp],
    ) -> Result<(Database, Vec<BatchOutcome>, CopyReport), DatabaseError> {
        self.reject_view_write(name)?;
        let (db, report, (outcomes, runs)) = self.update_relation(name, |rel| {
            let (next, outcomes, report, runs) = rel.apply_batch_with_runs(ops);
            (next, report, (outcomes, runs))
        })?;
        Ok((db.propagate_to_views(name, &runs), outcomes, report))
    }

    /// Applies a functional update to one relation, re-consing the spine up
    /// to its entry (the paper's partial physical reconstruction).
    fn update_relation<T>(
        &self,
        name: &RelationName,
        f: impl FnOnce(&Relation) -> (Relation, CopyReport, T),
    ) -> Result<(Database, CopyReport, T), DatabaseError> {
        // Walk the spine, collecting the prefix to re-cons.
        let mut prefix: Vec<Entry> = Vec::new();
        let mut cur = self.entries.clone();
        loop {
            match cur.head() {
                None => return Err(DatabaseError::NoSuchRelation(name.clone())),
                Some(entry) if &entry.name == name => {
                    let (r2, report, extra) = f(&entry.relation);
                    let schema = entry.schema.clone();
                    let view = entry.view.clone();
                    let suffix = cur.tail().expect("nonempty list has a tail");
                    let mut entries = PList::cons(
                        Entry {
                            name: name.clone(),
                            relation: r2,
                            schema,
                            view,
                        },
                        suffix,
                    );
                    for e in prefix.into_iter().rev() {
                        entries = PList::cons(e, entries);
                    }
                    return Ok((Database { entries }, report, extra));
                }
                Some(entry) => {
                    prefix.push(entry.clone());
                    cur = cur.tail().expect("nonempty list has a tail");
                }
            }
        }
    }

    /// Defines (and fully materializes, once) the view `name`. After this,
    /// every write to a base relation maintains the view differentially.
    ///
    /// A `select` view inherits its base's schema (it holds base rows);
    /// join and aggregate views produce new shapes and carry none. The
    /// view is stored as [`materialize_view`] lays it out: like its
    /// primary base.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::DuplicateRelation`] if the name is taken,
    /// [`DatabaseError::NoSuchRelation`] if a base is absent,
    /// [`DatabaseError::ViewOnView`] if a base is itself a view.
    pub fn create_view<N: Into<RelationName>>(
        &self,
        name: N,
        def: ViewDef,
    ) -> Result<Database, DatabaseError> {
        for base in def.bases() {
            let entry = self
                .entries
                .iter()
                .find(|e| &e.name == base)
                .ok_or_else(|| DatabaseError::NoSuchRelation(base.clone()))?;
            if entry.view.is_some() {
                return Err(DatabaseError::ViewOnView(base.clone()));
            }
        }
        let schema = match &def {
            ViewDef::Select { base, .. } => self.schema(base)?.cloned(),
            _ => None,
        };
        let (left, right) = self.view_bases(&def);
        let relation = materialize_view(&def, left, right);
        self.with_view_value(name, relation, schema, def)
    }

    /// The view definition behind `name`, or `None` for a base relation.
    ///
    /// # Errors
    ///
    /// [`DatabaseError::NoSuchRelation`] if absent.
    pub fn view_def(&self, name: &RelationName) -> Result<Option<&ViewDef>, DatabaseError> {
        self.entries
            .iter()
            .find(|e| &e.name == name)
            .map(|e| e.view.as_deref())
            .ok_or_else(|| DatabaseError::NoSuchRelation(name.clone()))
    }

    /// Every view with its definition, in spine order, borrowed — what a
    /// per-statement substitution probe walks without allocating.
    pub fn view_defs(&self) -> impl Iterator<Item = (&RelationName, &ViewDef)> {
        self.entries
            .iter()
            .filter_map(|e| e.view.as_deref().map(|v| (&e.name, v)))
    }

    /// Every view in the database, in spine order, with its definition.
    pub fn views(&self) -> Vec<(RelationName, Arc<ViewDef>)> {
        self.entries
            .iter()
            .filter_map(|e| e.view.as_ref().map(|v| (e.name.clone(), Arc::clone(v))))
            .collect()
    }

    /// `true` if any view reads relation `name`.
    pub fn has_dependent_views(&self, name: &RelationName) -> bool {
        self.entries
            .iter()
            .any(|e| e.view.as_ref().is_some_and(|v| v.depends_on(name)))
    }

    fn reject_view_write(&self, name: &RelationName) -> Result<(), DatabaseError> {
        match self.view_def(name)? {
            Some(_) => Err(DatabaseError::WriteToView(name.clone())),
            None => Ok(()),
        }
    }

    /// A view definition's base relations as [`eval_view`] takes them: the
    /// primary base, and the right side of a join.
    fn view_bases(&self, def: &ViewDef) -> (&Relation, Option<&Relation>) {
        let bases = def.bases();
        let left = self
            .relation(bases[0])
            .expect("view bases are validated at creation");
        let right = match def {
            ViewDef::Join { right, .. } => Some(
                self.relation(right)
                    .expect("view bases are validated at creation"),
            ),
            _ => None,
        };
        (left, right)
    }

    /// Advances every dependent view by `base`'s per-key transitions: one
    /// [`derive_delta`] each, landed by [`Relation::apply_transitions`].
    /// The receiver is the *post-write* database, so a join's other side —
    /// for a self-join, the base itself — is read at its new value, as the
    /// delta rule expects.
    fn propagate_to_views(&self, base: &RelationName, transitions: &[KeyTransition]) -> Database {
        let mut db = self.clone();
        if transitions.is_empty() {
            return db;
        }
        for (vname, def) in self.view_defs() {
            if !def.depends_on(base) {
                continue;
            }
            let other = match def {
                ViewDef::Join { left, right, .. } => {
                    let other = if base == left { right } else { left };
                    Some(self.relation(other).expect("join base exists"))
                }
                _ => None,
            };
            db = db
                .update_relation(vname, |view| {
                    let delta = derive_delta(def, base, view, transitions, other);
                    (view.apply_transitions(&delta), CopyReport::default(), ())
                })
                .expect("view exists")
                .0;
        }
        db
    }

    /// Replaces every view's contents with a fresh evaluation from the
    /// current base relations, preserving definitions, schemas, reprs and
    /// index definitions — the reference tests hold incrementally
    /// maintained views to (`view = f(bases)`).
    pub fn recompute_views(&self) -> Database {
        let entries: Vec<Entry> = self
            .entries
            .iter()
            .map(|e| match &e.view {
                None => e.clone(),
                Some(def) => Entry {
                    name: e.name.clone(),
                    relation: {
                        let (left, right) = self.view_bases(def);
                        rebuilt_like(&e.relation, eval_view(def, left, right))
                    },
                    schema: e.schema.clone(),
                    view: e.view.clone(),
                },
            })
            .collect();
        Database {
            entries: entries.into_iter().collect(),
        }
    }

    /// `true` if this database and `other` physically share the relation
    /// value named `name` (same root pointer). Lets tests *prove* the
    /// paper's D0/D1 sharing claim rather than assume it.
    pub fn shares_relation_with(&self, other: &Database, name: &RelationName) -> bool {
        match (self.relation(name), other.relation(name)) {
            (Ok(a), Ok(b)) => a.ptr_eq(b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_rs() -> Database {
        Database::empty()
            .create_relation("R", Repr::List)
            .unwrap()
            .create_relation("S", Repr::List)
            .unwrap()
    }

    #[test]
    fn empty_database() {
        let db = Database::empty();
        assert_eq!(db.relation_count(), 0);
        assert_eq!(db.tuple_count(), 0);
        assert!(db.relation_names().is_empty());
        assert_eq!(
            db.relation(&"R".into()).err(),
            Some(DatabaseError::NoSuchRelation("R".into()))
        );
    }

    #[test]
    fn create_preserves_order_and_rejects_duplicates() {
        let db = db_rs();
        assert_eq!(db.relation_names(), vec!["R".into(), "S".into()]);
        assert_eq!(db.position(&"R".into()), Some(0));
        assert_eq!(db.position(&"S".into()), Some(1));
        assert_eq!(
            db.create_relation("R", Repr::List).err(),
            Some(DatabaseError::DuplicateRelation("R".into()))
        );
    }

    #[test]
    fn insert_and_find() {
        let db = db_rs();
        let (db, _) = db.insert(&"R".into(), Tuple::of_key(1)).unwrap();
        let (db, _) = db.insert(&"S".into(), Tuple::of_key(2)).unwrap();
        assert_eq!(db.find(&"R".into(), &1.into()).unwrap().len(), 1);
        assert_eq!(db.find(&"S".into(), &2.into()).unwrap().len(), 1);
        assert_eq!(db.find(&"R".into(), &2.into()).unwrap().len(), 0);
        assert_eq!(db.tuple_count(), 2);
        assert!(db.insert(&"T".into(), Tuple::of_key(0)).is_err());
        assert!(db.find(&"T".into(), &0.into()).is_err());
    }

    #[test]
    fn paper_sharing_example() {
        // D0 = [R0, S0]; D1 = insert into R; D2 = insert into S.
        // "DO and D1 both share the relation SO, while D1 and D2 share R1."
        let d0 = db_rs();
        let (d1, _) = d0.insert(&"R".into(), Tuple::of_key(1)).unwrap();
        let (d2, _) = d1.insert(&"S".into(), Tuple::of_key(2)).unwrap();
        assert!(d0.shares_relation_with(&d1, &"S".into()));
        assert!(d1.shares_relation_with(&d2, &"R".into()));
        assert!(!d0.shares_relation_with(&d1, &"R".into()));
        assert!(!d1.shares_relation_with(&d2, &"S".into()));
        // And the old versions answer old queries.
        assert_eq!(d0.tuple_count(), 0);
        assert_eq!(d1.tuple_count(), 1);
        assert_eq!(d2.tuple_count(), 2);
    }

    #[test]
    fn find_range_via_database() {
        let db = db_rs();
        let mut db = db;
        for k in 0..10 {
            let (d2, _) = db.insert(&"R".into(), Tuple::of_key(k)).unwrap();
            db = d2;
        }
        let got = db.find_range(&"R".into(), &3.into(), &6.into()).unwrap();
        assert_eq!(got.len(), 4);
        assert!(db.find_range(&"T".into(), &0.into(), &1.into()).is_err());
    }

    #[test]
    fn join_via_database() {
        let mut db = db_rs();
        for (rel, key) in [("R", 1i64), ("R", 2), ("S", 2), ("S", 3)] {
            let (d2, _) = db.insert(&rel.into(), Tuple::of_key(key)).unwrap();
            db = d2;
        }
        let joined = db.join(&"R".into(), &"S".into()).unwrap();
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].key().as_int(), Some(2));
        assert!(db.join(&"R".into(), &"Nope".into()).is_err());
    }

    #[test]
    fn delete_via_database() {
        let db = db_rs();
        let (db, _) = db.insert(&"R".into(), Tuple::of_key(1)).unwrap();
        let (db2, removed) = db.delete(&"R".into(), &1.into()).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(db2.tuple_count(), 0);
        assert_eq!(db.tuple_count(), 1);
        let (db3, removed) = db2.delete(&"R".into(), &1.into()).unwrap();
        assert!(removed.is_empty());
        assert_eq!(db3.tuple_count(), 0);
    }

    #[test]
    fn mixed_representations() {
        let db = Database::empty()
            .create_relation("L", Repr::List)
            .unwrap()
            .create_relation("T", Repr::TREE)
            .unwrap()
            .create_relation("B", Repr::BTree(4))
            .unwrap();
        let mut cur = db;
        for name in ["L", "T", "B"] {
            for k in 0..10 {
                let (next, _) = cur.insert(&name.into(), Tuple::of_key(k)).unwrap();
                cur = next;
            }
        }
        assert_eq!(cur.tuple_count(), 30);
        for name in ["L", "T", "B"] {
            assert_eq!(
                cur.find(&name.into(), &5.into()).unwrap().len(),
                1,
                "{name}"
            );
        }
    }

    #[test]
    fn schemas_attach_and_survive_updates() {
        let schema = Schema::new(&["id", "name"]).unwrap();
        let db = Database::empty()
            .create_relation_with_schema("Emp", Repr::List, Some(schema.clone()))
            .unwrap()
            .create_relation("Raw", Repr::List)
            .unwrap();
        assert_eq!(db.schema(&"Emp".into()).unwrap(), Some(&schema));
        assert_eq!(db.schema(&"Raw".into()).unwrap(), None);
        assert!(db.schema(&"Nope".into()).is_err());
        // Updates preserve the schema.
        let (db2, _) = db
            .insert(&"Emp".into(), Tuple::new(vec![1.into(), "ada".into()]))
            .unwrap();
        assert_eq!(db2.schema(&"Emp".into()).unwrap(), Some(&schema));
    }

    #[test]
    fn with_relation_value_preserves_physical_sharing() {
        let db = db_rs();
        let (db, _) = db.insert(&"R".into(), Tuple::of_key(1)).unwrap();
        let rel = db.relation(&"R".into()).unwrap().clone();
        let rebuilt = Database::empty()
            .with_relation_value("R", rel, None)
            .unwrap();
        // The rebuilt database holds the very same relation value.
        assert!(rebuilt.shares_relation_with(&db, &"R".into()));
        assert_eq!(rebuilt.find(&"R".into(), &1.into()).unwrap().len(), 1);
        // Duplicate names are still rejected.
        let rel2 = db.relation(&"S".into()).unwrap().clone();
        assert!(rebuilt.with_relation_value("R", rel2, None).is_err());
    }

    #[test]
    fn a_no_op_write_shares_the_relation() {
        for indexed in [false, true] {
            let mut db = Database::empty().create_relation("R", Repr::TREE).unwrap();
            db = db
                .insert(&"R".into(), Tuple::new(vec![1.into(), "red".into()]))
                .unwrap()
                .0;
            if indexed {
                db = db.create_index(&"R".into(), "by_color", 1).unwrap();
            }
            let (db2, outcomes, _) = db.write(&"R".into(), &[BatchOp::Delete(2.into())]).unwrap();
            assert_eq!(outcomes, vec![BatchOutcome::Deleted(0)]);
            assert!(
                db.shares_relation_with(&db2, &"R".into()),
                "indexed={indexed}"
            );
        }
    }

    #[test]
    fn create_index_via_database() {
        let db = db_rs();
        let (db, _) = db
            .insert(&"R".into(), Tuple::new(vec![1.into(), "red".into()]))
            .unwrap();
        let db2 = db.create_index(&"R".into(), "by_color", 1).unwrap();
        let ix = db2
            .relation(&"R".into())
            .unwrap()
            .index_on(1)
            .expect("index attached");
        assert_eq!(ix.keys_eq(&"red".into()), vec![1.into()]);
        // The store is shared with the pre-index version; "S" is untouched.
        assert!(db2
            .relation(&"R".into())
            .unwrap()
            .store()
            .ptr_eq(db.relation(&"R".into()).unwrap().store()));
        assert!(db.shares_relation_with(&db2, &"S".into()));
        // Duplicates and missing relations are rejected.
        assert_eq!(
            db2.create_index(&"R".into(), "by_color", 0).err(),
            Some(DatabaseError::DuplicateIndex("R".into(), "by_color".into()))
        );
        assert_eq!(
            db2.create_index(&"Nope".into(), "ix", 0).err(),
            Some(DatabaseError::NoSuchRelation("Nope".into()))
        );
        // Subsequent writes through the database maintain the index.
        let (db3, _) = db2
            .insert(&"R".into(), Tuple::new(vec![2.into(), "red".into()]))
            .unwrap();
        let ix = db3.relation(&"R".into()).unwrap().index_on(1).unwrap();
        assert_eq!(ix.keys_eq(&"red".into()), vec![1.into(), 2.into()]);
    }

    #[test]
    fn create_view_materializes_and_maintains() {
        let mut db = db_rs();
        for k in 0..10i64 {
            let t = Tuple::new(vec![k.into(), (k % 3).into()]);
            db = db.insert(&"R".into(), t).unwrap().0;
        }
        let db = db
            .create_view(
                "V",
                ViewDef::Select {
                    base: "R".into(),
                    filter: Some(crate::view::ViewFilter::Eq(1, 0.into())),
                },
            )
            .unwrap();
        assert_eq!(db.relation(&"V".into()).unwrap().len(), 4); // 0,3,6,9
        assert!(db.view_def(&"V".into()).unwrap().is_some());
        assert_eq!(db.view_def(&"R".into()).unwrap(), None);
        assert!(db.has_dependent_views(&"R".into()));
        assert!(!db.has_dependent_views(&"S".into()));

        // Writes to the base maintain the view; writes to the view fail.
        let (db, _) = db
            .insert(&"R".into(), Tuple::new(vec![30.into(), 0.into()]))
            .unwrap();
        assert_eq!(db.relation(&"V".into()).unwrap().len(), 5);
        let (db, _) = db.delete(&"R".into(), &0.into()).unwrap();
        assert_eq!(db.relation(&"V".into()).unwrap().len(), 4);
        assert_eq!(
            db.insert(&"V".into(), Tuple::of_key(1)).err(),
            Some(DatabaseError::WriteToView("V".into()))
        );
        assert_eq!(
            db.delete(&"V".into(), &3.into()).err(),
            Some(DatabaseError::WriteToView("V".into()))
        );

        // The maintained contents equal a recompute from scratch.
        let recomputed = db.recompute_views();
        let mut want = recomputed.relation(&"V".into()).unwrap().scan();
        let mut got = db.relation(&"V".into()).unwrap().scan();
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn create_view_validations() {
        let db = db_rs();
        let sel = |base: &str| ViewDef::Select {
            base: base.into(),
            filter: None,
        };
        assert_eq!(
            db.create_view("R", sel("S")).err(),
            Some(DatabaseError::DuplicateRelation("R".into()))
        );
        assert_eq!(
            db.create_view("V", sel("Nope")).err(),
            Some(DatabaseError::NoSuchRelation("Nope".into()))
        );
        let db = db.create_view("V", sel("R")).unwrap();
        assert_eq!(
            db.create_view("W", sel("V")).err(),
            Some(DatabaseError::ViewOnView("V".into()))
        );
    }

    #[test]
    fn join_view_maintained_through_database_writes() {
        let mut db = Database::empty()
            .create_relation("L", Repr::BTree(2))
            .unwrap()
            .create_relation("R", Repr::BTree(2))
            .unwrap();
        for k in 0..6i64 {
            let t = Tuple::new(vec![k.into(), (k % 2).into()]);
            db = db.insert(&"L".into(), t).unwrap().0;
            let t = Tuple::new(vec![(100 + k).into(), (k % 2).into()]);
            db = db.insert(&"R".into(), t).unwrap().0;
        }
        let def = ViewDef::Join {
            left: "L".into(),
            right: "R".into(),
            left_field: 1,
            right_field: 1,
        };
        let mut db = db.create_view("J", def).unwrap();
        // Mutate both sides and compare against recompute each step.
        let writes: Vec<(&str, Tuple)> = vec![
            ("L", Tuple::new(vec![50.into(), 1.into()])),
            ("R", Tuple::new(vec![200.into(), 0.into()])),
            ("L", Tuple::new(vec![2.into(), 1.into()])),
        ];
        for (rel, t) in writes {
            db = db.insert(&rel.into(), t).unwrap().0;
            let mut got = db.relation(&"J".into()).unwrap().scan();
            let mut want = db.recompute_views().relation(&"J".into()).unwrap().scan();
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
        db = db.delete(&"R".into(), &101.into()).unwrap().0;
        let mut got = db.relation(&"J".into()).unwrap().scan();
        let mut want = db.recompute_views().relation(&"J".into()).unwrap().scan();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(db.relation(&"J".into()).unwrap().len(), want.len());
    }

    #[test]
    fn list_base_gets_list_view_and_select_inherits_schema() {
        let schema = Schema::new(&["id", "color"]).unwrap();
        let db = Database::empty()
            .create_relation_with_schema("P", Repr::List, Some(schema.clone()))
            .unwrap();
        let db = db
            .create_view(
                "V",
                ViewDef::Select {
                    base: "P".into(),
                    filter: None,
                },
            )
            .unwrap();
        assert_eq!(
            db.relation(&"V".into()).unwrap().repr(),
            db.relation(&"P".into()).unwrap().repr()
        );
        assert_eq!(db.schema(&"V".into()).unwrap(), Some(&schema));
        // Aggregate views carry no schema.
        let db = db
            .create_view(
                "C",
                ViewDef::GroupCount {
                    base: "P".into(),
                    group: 1,
                },
            )
            .unwrap();
        assert_eq!(db.schema(&"C".into()).unwrap(), None);
        assert_eq!(
            db.views().len(),
            2,
            "both views enumerated: {:?}",
            db.views()
        );
    }

    #[test]
    fn relation_name_display_and_conversion() {
        let n: RelationName = "Emp".into();
        assert_eq!(n.as_str(), "Emp");
        assert_eq!(n.to_string(), "Emp");
        assert_eq!(RelationName::new("Emp"), n);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DatabaseError::NoSuchRelation("X".into()).to_string(),
            "no such relation: X"
        );
        assert_eq!(
            DatabaseError::DuplicateRelation("X".into()).to_string(),
            "relation already exists: X"
        );
        assert_eq!(
            DatabaseError::DuplicateIndex("X".into(), "ix".into()).to_string(),
            "index already exists on X: ix"
        );
        assert_eq!(
            DatabaseError::WriteToView("X".into()).to_string(),
            "cannot write to materialized view: X"
        );
        assert_eq!(
            DatabaseError::ViewOnView("X".into()).to_string(),
            "views over views are not supported: X"
        );
    }

    #[test]
    fn debug_format() {
        let db = db_rs();
        let (db, _) = db.insert(&"R".into(), Tuple::of_key(1)).unwrap();
        assert_eq!(format!("{db:?}"), "Database[R(1), S(0)]");
    }
}
