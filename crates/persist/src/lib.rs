//! Persistent (immutable, structurally shared) data structures.
//!
//! Section 2.2 of Keller & Lindstrom: "each transaction reads a database and
//! conceptually produces a new instance of it … only selected components are
//! created anew, with references to components of previously constructed
//! data objects achieving a sharing effect." This crate provides the
//! representations the paper discusses, each update returning a *new* value
//! that shares all unaffected structure with its predecessor:
//!
//! * [`PList`] — the linked-list representation used in the paper's actual
//!   experiments (Section 4): key-ordered insert copies the prefix spine.
//! * [`BTree`] — a persistent B-tree of configurable order, the "tree node
//!   is one physical page" strategy of Section 3.3: the one tree, holding
//!   relations and every secondary index's value → posting map. An update
//!   copies one root-to-leaf path of pages.
//! * [`paged`] — the data-page/directory-page organization of Figure 2-2,
//!   with a sharing report that regenerates the figure's claim.
//!
//! A write costs what it copies. The B-tree's one write operation,
//! `merge_batch`, returns the new value and the number of nodes it
//! allocated — a count the path copy keeps anyway — and `insert`/`remove`
//! are one-effect batches with the count dropped. The
//! `_counted` forms are, literally, the same operation followed by
//! `node_count()`: an O(n) walk of the result that fills a [`CopyReport`]'s
//! `shared`, which is how the benches and tests quantify the paper's
//! "(log n)/n of a relation is copied" argument. Nothing on a write path
//! calls them.
//!
//! The list and the B-tree provide batch kernels that fold a strictly
//! ascending run of per-key effects (`Some(v)` sets, `None` removes) into
//! the structure in one structural pass, copying each touched node once —
//! the batch-level form of the paper's partial-physical-update bound. The
//! B-tree's `merge_batch` repairs a page it overfills or underfills where
//! it sits, so a split or a fuse copies only the pages it writes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod btree;
pub mod list;
pub mod paged;
pub mod report;

pub use btree::BTree;
pub use list::PList;
pub use paged::{PageSharingReport, PagedStore};
pub use report::CopyReport;
