//! The functional distributed database core (Keller & Lindstrom, ICDCS '85).
//!
//! This crate assembles the substrates into the paper's system:
//!
//! * [`apply_stream()`] — Figure 2-1: a stream of transactions applied
//!   one-by-one to a stream of database versions, producing the stream of
//!   responses and the stream of successor databases, lazily.
//! * [`serializer`] — Section 2.4: multi-user processing. Client query
//!   streams are tagged and combined by the pseudo-functional merge; the
//!   merged stream is processed "sequentially" (logically), and responses
//!   are routed back by tag with a `choose` filter. Includes the
//!   merge-order optimizer the paper flags as future work.
//! * [`engine`] — the execution mechanism "capable of evaluating
//!   independent stream components concurrently": a pipelined multi-thread
//!   engine in which each database version is a tuple of per-component
//!   lenient cells — a component is one relation, or bases tied together
//!   by views plus those views — so a transaction blocks only on the
//!   components it actually touches. The frontier is sharded per
//!   component, consecutive writes coalesce into one job, and cheap reads
//!   of settled versions answer inline (see `DESIGN.md`).
//! * [`locking`] — the conventional two-phase-locking executor the paper
//!   argues against, as a measurable baseline: locks around the same
//!   copies and `translate` the primary-copy engine runs.
//! * [`archive`] — complete version archives (Section 3.3): time-travel
//!   queries over the retained version stream, with optional bounded
//!   retention.
//! * [`commit`] — the durable commit hook: a [`CommitSink`] observes the
//!   engine's coalesced write batches as group-commit units (the
//!   disk-backed implementation lives in the `fundb-durable` crate).
//! * [`primary_copy`] — the paper's deferred primary-copy model: optimistic
//!   transactions over versioned primary copies with abort-and-retry, which
//!   persistence makes cheap (aborting a pure computation undoes nothing).
//! * [`schedule`] — Figure 2-3: the transaction-level de-facto parallel
//!   execution schedule extracted from a merged stream.
//! * [`dataflow`] — the bridge to the Rediflow simulator: compiles a merged
//!   transaction stream into the unit-task dataflow graph its FEL evaluation
//!   would unfold into, under a documented cost model.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apply_stream;
pub mod archive;
pub mod commit;
pub mod dataflow;
pub mod engine;
pub mod fasthash;
pub mod locking;
pub mod primary_copy;
pub mod schedule;
pub mod serializer;
pub mod stats;

pub use apply_stream::{apply_stream, apply_stream_pairs, apply_stream_responses};
pub use archive::VersionArchive;
pub use commit::{CommitSink, Landed};
pub use dataflow::{AccessShape, CostModel, DataflowCompiler};
pub use engine::{ConsistentCut, PipelinedEngine};
pub use locking::LockingDb;
pub use primary_copy::OptimisticEngine;
pub use schedule::{BatchRegime, TrafficTracker, TxnSchedule};
pub use serializer::{process_tagged, route_responses, ClientId};
pub use stats::{EngineStats, EngineStatsSnapshot};
