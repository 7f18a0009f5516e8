//! The relational model over persistent structures.
//!
//! Following Section 2.1 of Keller & Lindstrom: "a relational database is a
//! set of relations, along with a mapping `names -> relations` … each
//! relation is a set of tuples of data items." Both levels are persistent
//! values:
//!
//! * a [`Relation`] is a multiset of [`Tuple`]s keyed by their first
//!   attribute, represented by one of the structures of `fundb_persist`
//!   (linked list as in the paper's experiments, B-tree, paged store);
//! * a [`Database`] is a persistent association list from [`RelationName`]
//!   to [`Relation`] — exactly the linked-list database of Section 4 — so
//!   updating one relation re-conses the spine up to its entry and shares
//!   the rest (the `D0`/`D1`/`D2` sharing example of Section 2.2).
//!
//! Nothing here mutates: every update returns a new value, and the old
//! version remains a fully usable database.
//!
//! Derived state is a value too: a materialized [`view`] is an ordinary
//! [`Relation`] kept consistent by mapping each write's [`KeyTransition`]
//! runs through the view's definition ([`derive_delta`]) instead of
//! recomputing it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod database;
pub mod index;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod view;

pub use batch::{batch_transitions, BatchOp, BatchOutcome};
pub use database::{Database, DatabaseError, RelationName};
pub use index::{IndexSet, KeyTransition, PostingEntry, SecondaryIndex};
pub use relation::{Relation, Repr, Store};
pub use schema::{Schema, SchemaError};
pub use tuple::{concat_on, Tuple};
pub use value::Value;
pub use view::{derive_delta, eval_view, materialize_view, rebuilt_like, ViewDef, ViewFilter};
