//! # fundb — a functional distributed database
//!
//! A Rust reproduction of **Keller & Lindstrom, "Approaching Distributed
//! Database Implementations through Functional Programming Concepts"
//! (ICDCS 1985)**: transactions as pure functions over persistent database
//! values, lenient data constructors for implicit synchronization, a single
//! pseudo-functional `merge` for multi-user serialization, primary-site
//! distribution over a broadcast medium, and a Rediflow-style dataflow
//! simulator that reproduces the paper's concurrency and speedup tables.
//!
//! This crate is the facade: it re-exports the public API of every
//! workspace crate under topical modules.
//!
//! ## Quickstart
//!
//! ```
//! use fundb::prelude::*;
//!
//! // A database is an immutable value.
//! let db = Database::empty().create_relation("Emp", Repr::List)?;
//!
//! // translate : queries -> transactions (higher-order, as in the paper).
//! let tx = translate(parse("insert (1, 'ada') into Emp")?);
//! let (response, db2) = tx.apply(&db);
//! assert_eq!(response.to_string(), "inserted (1, 'ada') into Emp");
//!
//! // The old version is untouched; the new one sees the tuple.
//! assert_eq!(db.tuple_count(), 0);
//! assert_eq!(db2.tuple_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`lenient`] | write-once cells, lazy streams, the nondeterministic merge |
//! | [`persist`] | persistent lists, the B-tree (relations and secondary indexes), the paged store of Figure 2-2 |
//! | [`relational`] | values, tuples, relations, the persistent database |
//! | [`query`] | the symbolic query language and `translate` |
//! | [`core`] | `apply-stream`, the serializer, the pipelined engine, the 2PL baseline, the dataflow compiler |
//! | [`durable`] | group-commit WAL, sharing-aware checkpoints, crash recovery |
//! | [`net`] | sites, the broadcast medium, `choose`, the primary site, site pragmas |
//! | [`rediflow`] | task graphs, ply analysis, topologies, the mode-2 scheduler |
//! | [`workload`] | workload generation and the Table I–III experiment battery |

#![warn(missing_docs)]

/// Lenient cells, lazy streams, merge (re-export of `fundb-lenient`).
pub mod lenient {
    pub use fundb_lenient::*;
}

/// Persistent data structures (re-export of `fundb-persist`).
pub mod persist {
    pub use fundb_persist::*;
}

/// The relational model (re-export of `fundb-relational`).
pub mod relational {
    pub use fundb_relational::*;
}

/// Query language and translation (re-export of `fundb-query`).
pub mod query {
    pub use fundb_query::*;
}

/// Transactions, streams, engines (re-export of `fundb-core`).
pub mod core {
    pub use fundb_core::*;
}

/// Durability: WAL, checkpoints, recovery (re-export of `fundb-durable`).
pub mod durable {
    pub use fundb_durable::*;
}

/// Distribution substrate (re-export of `fundb-net`).
pub mod net {
    pub use fundb_net::*;
}

/// The dataflow simulator (re-export of `fundb-rediflow`).
pub mod rediflow {
    pub use fundb_rediflow::*;
}

/// Workloads and experiments (re-export of `fundb-workload`).
pub mod workload {
    pub use fundb_workload::*;
}

/// Interactive session logic (the `fundb` REPL binary).
pub mod repl;

/// The types most programs need, in one import.
pub mod prelude {
    pub use fundb_core::{
        apply_stream, process_tagged, route_responses, ClientId, CostModel, DataflowCompiler,
        PipelinedEngine, VersionArchive,
    };
    pub use fundb_lenient::{merge, merge_tagged, Lenient, Stream, Tagged};
    pub use fundb_net::ShardedCluster;
    pub use fundb_query::{parse, translate, Query, Response, Transaction};
    pub use fundb_relational::{Database, Relation, RelationName, Repr, Tuple, Value};
}
