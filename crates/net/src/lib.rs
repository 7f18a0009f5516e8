//! The physical-distribution substrate of Section 3.
//!
//! "An important observation is that the network medium acts as one large
//! merge pseudo-function. The stream of messages which appear on it over
//! time … will consist of an interleaving of messages generated at
//! different nodes. … A site effectively selects the messages directed to
//! it by applying a `choose` function to the entire message stream."
//! (Section 3.1, Figure 3-1.)
//!
//! This crate simulates that picture:
//!
//! * [`SiteId`] / [`Message`] — destination-tagged messages between PEs.
//! * [`SharedMedium`] — the Ethernet-like broadcast medium: every send is
//!   merged (arrival order) onto one persistent message stream; a site's
//!   inbox is literally `choose` = a lazy filter over that stream.
//! * [`Router`] — multi-hop paths over the simulator topologies, for
//!   accounting message distance on non-broadcast networks.
//! * [`primary`] — the primary-site model: every transaction passes
//!   through one coordinating site, which runs the pipelined functional
//!   engine and mails responses back to their origin sites. It holds the
//!   one serving loop every primary runs, initial or promoted.
//! * [`pragma`] — the `RESULT-ON` / `MY-SITE` site pragmas of Section 3.2.
//! * [`ClientHandle`] — a client site: a terminal that submits queries
//!   over the medium and `choose`s its own replies.
//! * [`replica`] — log shipping: a durable primary's [`ReplicationSender`]
//!   mails its commit log over the medium to [`ReplicaSite`]s, which serve
//!   read-only queries locally and can be promoted on primary failure.
//! * [`ShardedCluster`] — the one topology: hash-partitioned shard
//!   groups (each a durable primary plus its replicas) behind shard-aware
//!   clients; the medium's merge order doubles as the sequencer for
//!   cross-shard transactions, gathers and DDL. With one shard and no
//!   replicas it is Figure 3-1 itself; with replicas, the replicated
//!   cluster.
//! * [`chaos`] — deterministic fault injection for the medium: a seeded
//!   [`FaultPlan`] of per-edge drop/duplicate/delay/reorder rules and
//!   partitions, run inside the medium's `send` so every run replays
//!   from `(seed, plan)`.
//! * [`history`] — the [`HistoryChecker`]: records client-visible
//!   acks/reads with logical timestamps and checks read-your-writes,
//!   acked-prefix-under-promotion, and cross-shard all-or-nothing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod cluster;
pub mod history;
pub mod medium;
pub mod message;
pub mod pragma;
pub mod primary;
pub mod replica;
pub mod router;
pub mod shard;

pub use chaos::{ChaosSnapshot, EdgeRule, FaultPlan, Partition, SiteSel};
pub use cluster::ClientHandle;
pub use history::{HistoryChecker, HistoryEvent};
pub use medium::SharedMedium;
pub use message::{DbPayload, Message, SiteId};
pub use pragma::{my_site, result_on_prefix, strip_result_on, SitePool};
pub use replica::{ReplicaSite, ReplicationSender};
pub use router::{combine_gather, plan_route, GatherKind, RoutePlan, Router};
pub use shard::{ClusterStats, ClusterStatsSnapshot, NetworkLoad, ShardMap, ShardedCluster};
