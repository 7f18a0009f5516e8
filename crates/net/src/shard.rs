//! Horizontal sharding: a partitioned multi-primary cluster.
//!
//! The paper's primary site is "a bottleneck which is temporary" — but at
//! millions of users it is permanent, and it is the WAL's fsync queue.
//! [`ShardedCluster`] removes it by hash-partitioning every relation's
//! tuples by primary key over N *shard groups*, each a full replication
//! group ([`crate::replica`]): its own durable primary (own WAL, own
//! checkpoints), its own replicas, its own catch-up and failover. Two
//! shards means two independent fsync queues; on commit-latency-bound
//! write traffic the groups overlap their disk waits and throughput
//! scales. It is the crate's only topology: with `shards = 1` it *is*
//! Figure 3-1 — one durable primary at site 0, every key on shard 0,
//! every transaction single-shard — and with replicas at `1..=R`, the
//! replicated cluster of its distributed case.
//!
//! **Routing** ([`ShardMap`] + the shard-aware
//! [`ClientHandle`]): a single-key read or write goes
//! *directly* to the owning shard — no global hop of any kind, per Didona
//! et al.'s observation that fast distributed transactions must keep
//! single-partition work off global coordination. Reads round-robin over
//! the owning shard's replicas only (read-your-writes holds per shard,
//! because each shard ships its batches before acking — see
//! [`crate::replica`]). Scans, aggregates and DDL go to every shard the
//! way a cross-shard transaction does (below): one broadcast, which every
//! shard's primary answers at the same merge position, so a gather sees
//! a cross-shard transaction on every shard or on none, and DDL leaves
//! each shard with the full catalog.
//!
//! **Cross-shard transactions** reuse the paper's deepest idea — "the
//! network medium acts as one large merge pseudo-function" — as a
//! sequencer. A multi-shard write set is broadcast once as a
//! [`Sequenced`](crate::DbPayload::Sequenced) message; the medium's merge
//! order assigns it a single position relative to *all* direct traffic,
//! and every participant shard applies its sub-batch at that position in
//! its own inbox. No lock manager, no two-phase dance on the write path:
//! the ack fills only after every participant's fsync receipt
//! ([`SequencedAck`](crate::DbPayload::SequencedAck)), so an acknowledged
//! transaction is durable on every shard it touched.
//!
//! **Failover is shard-local.** [`ShardedCluster::kill_primary`] and
//! [`ShardedCluster::promote`] act on one group; the others never notice.
//! Replicas buffer participant broadcasts until the primary's ack copy
//! confirms them, so a promoted replica knows exactly which sequenced
//! transactions, gathers and DDL the dead primary never applied and
//! replays them first — every *acknowledged* transaction survives, and
//! unacked broadcasts complete instead of vanishing. See DESIGN.md §14 for the full
//! argument and its scope (per-shard sub-batch atomicity).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fundb_core::fasthash::Fnv1a;
use fundb_core::ClientId;
use fundb_durable::DurableEngine;
use fundb_lenient::stream::Node;
use fundb_relational::Value;
use parking_lot::Mutex;

use crate::chaos::{ChaosSnapshot, FaultPlan};
use crate::cluster::ClientHandle;
use crate::medium::SharedMedium;
use crate::message::{DbPayload, Message, SiteId};
use crate::primary::run_primary_loop;
use crate::replica::{ReplicaSite, ReplicationSender, CONTROL_SITE};
use crate::router::Router;

/// Hash partitioning of primary keys over a fixed number of shards.
///
/// Every relation is partitioned by the same function of its primary key,
/// so equal keys of different relations are co-resident: a key-join is
/// shard-local and needs no data movement — the scattered partial joins
/// just concatenate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> ShardMap {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: &Value) -> u32 {
        if self.shards == 1 {
            return 0;
        }
        (hash_key(key) % u64::from(self.shards)) as u32
    }
}

/// FNV-1a over the key's tagged canonical bytes, finished with a
/// splitmix64-style mixer. FNV alone is too regular for modulo placement
/// (consecutive integer keys would stripe), and tuple keys are
/// client-supplied — the mixer spreads every input bit over the low bits
/// the modulo looks at.
fn hash_key(key: &Value) -> u64 {
    let mut h = Fnv1a::default();
    match key {
        Value::Int(i) => {
            h.write(&[0]);
            h.write(&i.to_le_bytes());
        }
        Value::Str(s) => {
            h.write(&[1]);
            h.write(s.as_bytes());
        }
        Value::Bool(b) => {
            h.write(&[2, u8::from(*b)]);
        }
    }
    let mut x = h.finish();
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The client-side routing table: the [`ShardMap`] plus each shard's
/// current primary (an atomic, so one promotion re-points every handle)
/// and replica read set.
pub(crate) struct ShardRoutes {
    map: ShardMap,
    routes: Vec<ShardRoute>,
}

/// One shard's sites, from the client's point of view.
pub(crate) struct ShardRoute {
    pub(crate) primary: Arc<AtomicU32>,
    pub(crate) replicas: Vec<SiteId>,
}

impl ShardRoutes {
    pub(crate) fn new(map: ShardMap, routes: Vec<ShardRoute>) -> ShardRoutes {
        assert_eq!(map.shards() as usize, routes.len());
        ShardRoutes { map, routes }
    }

    pub(crate) fn shard_count(&self) -> u32 {
        self.map.shards()
    }

    pub(crate) fn shard_of(&self, key: &Value) -> u32 {
        self.map.shard_of(key)
    }

    pub(crate) fn primary_of(&self, shard: u32) -> SiteId {
        SiteId(self.routes[shard as usize].primary.load(Ordering::SeqCst))
    }

    pub(crate) fn replicas_of(&self, shard: u32) -> &[SiteId] {
        &self.routes[shard as usize].replicas
    }

    /// Whether `site` answers queries: some shard's current primary or one
    /// of its replicas.
    pub(crate) fn serves(&self, site: SiteId) -> bool {
        (0..self.shard_count())
            .any(|s| self.primary_of(s) == site || self.replicas_of(s).contains(&site))
    }

    /// Where shard `shard` serves a read for round-robin ticket `ticket`:
    /// one of *its own* replicas, or its primary when it has none.
    pub(crate) fn read_site(&self, shard: u32, ticket: u64) -> SiteId {
        let route = &self.routes[shard as usize];
        if route.replicas.is_empty() {
            self.primary_of(shard)
        } else {
            route.replicas[ticket as usize % route.replicas.len()]
        }
    }
}

impl fmt::Debug for ShardRoutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardRoutes[{} shards]", self.shard_count())
    }
}

/// Cluster-level traffic counters, in the mold of `EngineStats`: relaxed
/// atomics bumped on the client's routing path and its receiving step,
/// snapshot on demand. One instance is shared by every
/// [`ClientHandle`] of a cluster.
/// The route counters classify each unpinned statement by its
/// [`RoutePlan`](crate::RoutePlan), on one shard too.
#[derive(Debug)]
pub struct ClusterStats {
    /// Single-key writes routed directly to an owning primary.
    pub single_shard_writes: AtomicU64,
    /// Single-key reads routed to an owning shard's read set.
    pub single_shard_reads: AtomicU64,
    /// Reads that touch every partition (scans, counts, aggregates).
    pub gather_reads: AtomicU64,
    /// DDL statements (with more than one shard, sequenced to every
    /// primary as one broadcast).
    pub ddl_broadcasts: AtomicU64,
    /// Queries pinned to an explicit site by a `RESULT-ON` pragma prefix.
    pub pragma_pinned: AtomicU64,
    /// Sequenced transactions whose keys all lived on one shard (direct).
    pub single_shard_txns: AtomicU64,
    /// Sequenced transactions spanning shards (broadcast).
    pub cross_shard_txns: AtomicU64,
    /// Participant fsync receipts awaited, cumulatively (one per
    /// participant shard per sequenced transaction; a sequenced gather or
    /// DDL statement counts under its route instead).
    pub sequencer_waits: AtomicU64,
    /// Participant fsync receipts received for transactions.
    pub sequencer_acks: AtomicU64,
    /// Per-shard replication progress recorded at the last `sync`:
    /// batches shipped by the primary vs. applied by its replicas.
    lag: Vec<ShardLag>,
}

#[derive(Debug)]
struct ShardLag {
    shipped: AtomicU64,
    applied: AtomicU64,
}

impl ClusterStats {
    /// Fresh counters for a cluster of `shards` shards.
    pub fn new(shards: usize) -> ClusterStats {
        ClusterStats {
            single_shard_writes: AtomicU64::new(0),
            single_shard_reads: AtomicU64::new(0),
            gather_reads: AtomicU64::new(0),
            ddl_broadcasts: AtomicU64::new(0),
            pragma_pinned: AtomicU64::new(0),
            single_shard_txns: AtomicU64::new(0),
            cross_shard_txns: AtomicU64::new(0),
            sequencer_waits: AtomicU64::new(0),
            sequencer_acks: AtomicU64::new(0),
            lag: (0..shards)
                .map(|_| ShardLag {
                    shipped: AtomicU64::new(0),
                    applied: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    pub(crate) fn record_shipped(&self, shard: usize, shipped: u64) {
        self.lag[shard]
            .shipped
            .fetch_max(shipped, Ordering::Relaxed);
    }

    pub(crate) fn record_applied(&self, shard: usize, applied: u64) {
        self.lag[shard]
            .applied
            .fetch_max(applied, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ClusterStatsSnapshot {
        ClusterStatsSnapshot {
            single_shard_writes: self.single_shard_writes.load(Ordering::Relaxed),
            single_shard_reads: self.single_shard_reads.load(Ordering::Relaxed),
            gather_reads: self.gather_reads.load(Ordering::Relaxed),
            ddl_broadcasts: self.ddl_broadcasts.load(Ordering::Relaxed),
            pragma_pinned: self.pragma_pinned.load(Ordering::Relaxed),
            single_shard_txns: self.single_shard_txns.load(Ordering::Relaxed),
            cross_shard_txns: self.cross_shard_txns.load(Ordering::Relaxed),
            sequencer_waits: self.sequencer_waits.load(Ordering::Relaxed),
            sequencer_acks: self.sequencer_acks.load(Ordering::Relaxed),
            shard_lag: self
                .lag
                .iter()
                .map(|l| {
                    (
                        l.shipped.load(Ordering::Relaxed),
                        l.applied.load(Ordering::Relaxed),
                    )
                })
                .collect(),
            chaos: ChaosSnapshot::default(),
        }
    }
}

/// A point-in-time copy of [`ClusterStats`]; `Display` renders the
/// one-line form the benchmarks print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatsSnapshot {
    /// Single-key writes routed directly to an owning primary.
    pub single_shard_writes: u64,
    /// Single-key reads routed to an owning shard's read set.
    pub single_shard_reads: u64,
    /// Reads that touch every partition (scans, counts, aggregates).
    pub gather_reads: u64,
    /// DDL statements (with more than one shard, sequenced to every
    /// primary as one broadcast).
    pub ddl_broadcasts: u64,
    /// Queries pinned to an explicit site by a `RESULT-ON` prefix.
    pub pragma_pinned: u64,
    /// Sequenced transactions that stayed on one shard.
    pub single_shard_txns: u64,
    /// Sequenced transactions spanning shards.
    pub cross_shard_txns: u64,
    /// Transactions' participant fsync receipts awaited, cumulatively.
    pub sequencer_waits: u64,
    /// Transactions' participant fsync receipts received.
    pub sequencer_acks: u64,
    /// Per shard, at the last `sync`: (batches shipped, batches applied).
    pub shard_lag: Vec<(u64, u64)>,
    /// Fault-injection counters from the medium (all zero without a
    /// [`FaultPlan`]). Filled by [`ShardedCluster::stats`];
    /// [`ClusterStats::snapshot`] has no medium and reports zeros.
    pub chaos: ChaosSnapshot,
}

impl fmt::Display for ClusterStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routes {}w/{}r direct, {} gather, {} ddl, {} pinned · txns {} single-shard, \
             {} cross-shard · seq acks {}/{} · lag",
            self.single_shard_writes,
            self.single_shard_reads,
            self.gather_reads,
            self.ddl_broadcasts,
            self.pragma_pinned,
            self.single_shard_txns,
            self.cross_shard_txns,
            self.sequencer_acks,
            self.sequencer_waits,
        )?;
        for (shard, (shipped, applied)) in self.shard_lag.iter().enumerate() {
            write!(f, " s{shard}:{applied}/{shipped}")?;
        }
        write!(f, " · {}", self.chaos)
    }
}

/// Network load observed on a cluster mapped onto a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkLoad {
    /// Messages counted.
    pub messages: u64,
    /// Total hops those messages traversed (greedy shortest paths).
    pub hops: u64,
}

/// How long [`ShardedCluster::sync`] waits for an echo under a fault plan
/// before it ticks.
const SYNC_TICK: Duration = Duration::from_millis(1);

/// Ticks in a row without an echo after which [`ShardedCluster::sync`]
/// gives up under a fault plan: more than a partition in the chaos
/// harness's strategy space holds a message.
const SYNC_PATIENCE: usize = 256;

/// One shard group: a durable primary and its replicas, plus the shared
/// routing/progress cells the cluster needs to steer and observe it.
struct ShardGroup {
    shard: u32,
    /// Current primary site — the same atomic the clients route by.
    primary: Arc<AtomicU32>,
    driver: Option<JoinHandle<u64>>,
    replicas: Vec<ReplicaSite>,
    /// Batches shipped by this shard's primaries, cumulatively.
    batches: Arc<AtomicU64>,
    /// Replicas still applying the shipped stream (promotion removes the
    /// promoted site — it is the stream's source now).
    active: Mutex<Vec<SiteId>>,
}

/// A hash-partitioned cluster of replication groups (durable primary +
/// log-shipping replicas) behind shard-aware clients — see the module
/// docs for the architecture. One shard is the plain replicated cluster.
///
/// Site layout with `R` replicas per shard: shard `g`'s primary sits at
/// site `g*(R+1)`, its replicas right after it, and the client sites
/// after every group. Storage lives under `dir/shard-<g>/primary` and
/// `dir/shard-<g>/replica-<site>`.
///
/// # Example
///
/// Figure 3-1 — client sites and one primary on one medium — is one shard
/// with no replicas:
///
/// ```
/// use fundb_durable::ScratchDir;
/// use fundb_net::ShardedCluster;
///
/// let dir = ScratchDir::new("sharded-cluster-doc");
/// let cluster = ShardedCluster::start(dir.path(), 1, 2, 4, 0)?;
/// let c0 = cluster.client(0);
/// c0.submit("create relation R as list");
/// c0.submit("insert 1 into R");
/// let found = c0.submit("find 1 in R");
/// assert_eq!(found.wait().tuples().unwrap().len(), 1);
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedCluster {
    medium: SharedMedium<DbPayload>,
    groups: Vec<ShardGroup>,
    clients: Vec<ClientHandle>,
    routes: Arc<ShardRoutes>,
    stats: Arc<ClusterStats>,
    map: ShardMap,
    ctl_seq: AtomicU64,
}

impl fmt::Debug for ShardedCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardedCluster[{} shards, {} clients]",
            self.groups.len(),
            self.clients.len()
        )
    }
}

impl ShardedCluster {
    /// Starts a cluster of `shards` shard groups over `dir` (created if
    /// needed; reopening a previous run's directory recovers every
    /// shard), with `replicas_per_shard` replicas and a
    /// `workers`-thread engine per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `clients` is zero.
    pub fn start(
        dir: &Path,
        shards: u32,
        clients: usize,
        workers: usize,
        replicas_per_shard: usize,
    ) -> io::Result<ShardedCluster> {
        Self::start_with_faults(
            dir,
            shards,
            clients,
            workers,
            replicas_per_shard,
            FaultPlan::none(),
        )
    }

    /// Like [`start`](Self::start), but the medium runs every message
    /// through `plan` — the chaos harness's entry point. Fault counters
    /// surface through [`stats`](Self::stats).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `clients` is zero.
    pub fn start_with_faults(
        dir: &Path,
        shards: u32,
        clients: usize,
        workers: usize,
        replicas_per_shard: usize,
        plan: FaultPlan,
    ) -> io::Result<ShardedCluster> {
        assert!(shards > 0, "cluster needs at least one shard");
        assert!(clients > 0, "cluster needs at least one client");
        let medium: SharedMedium<DbPayload> = SharedMedium::with_faults(plan);
        let map = ShardMap::new(shards);
        let stride = replicas_per_shard as u32 + 1;
        let mut groups = Vec::with_capacity(shards as usize);
        let mut route_vec = Vec::with_capacity(shards as usize);
        for g in 0..shards {
            let primary_site = SiteId(g * stride);
            let replica_sites: Vec<SiteId> = (1..=replicas_per_shard as u32)
                .map(|i| SiteId(g * stride + i))
                .collect();
            let shard_dir = dir.join(format!("shard-{g}"));
            let batches = Arc::new(AtomicU64::new(0));
            let (engine, _report) = DurableEngine::open(&shard_dir.join("primary"), workers)?;
            let engine = Arc::new(engine);
            if !replica_sites.is_empty() {
                engine.attach_sink(Arc::new(ReplicationSender::new(
                    medium.clone(),
                    primary_site,
                    replica_sites.clone(),
                    Arc::clone(&batches),
                )));
            }
            let driver = {
                let inbox = medium.choose(primary_site);
                let medium = medium.clone();
                let peers = replica_sites.clone();
                std::thread::spawn(move || {
                    run_primary_loop(inbox, medium, primary_site, engine, g, peers, Vec::new())
                })
            };
            let replicas: Vec<ReplicaSite> = replica_sites
                .iter()
                .map(|&site| {
                    ReplicaSite::start(
                        shard_dir.join(format!("replica-{}", site.0)),
                        medium.clone(),
                        site,
                        primary_site,
                        g,
                        workers,
                        Arc::clone(&batches),
                    )
                })
                .collect();
            let primary = Arc::new(AtomicU32::new(primary_site.0));
            route_vec.push(ShardRoute {
                primary: Arc::clone(&primary),
                replicas: replica_sites.clone(),
            });
            groups.push(ShardGroup {
                shard: g,
                primary,
                driver: Some(driver),
                replicas,
                batches,
                active: Mutex::new(replica_sites),
            });
        }
        let routes = Arc::new(ShardRoutes::new(map, route_vec));
        let stats = Arc::new(ClusterStats::new(shards as usize));
        let base = shards * stride;
        let clients = (0..clients)
            .map(|i| {
                ClientHandle::spawn(
                    &medium,
                    SiteId(base + i as u32),
                    ClientId(i as u32),
                    Arc::clone(&routes),
                    Arc::clone(&stats),
                )
            })
            .collect();
        Ok(ShardedCluster {
            medium,
            groups,
            clients,
            routes,
            stats,
            map,
            ctl_seq: AtomicU64::new(0),
        })
    }

    /// Handle for client `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client(&self, i: usize) -> ClientHandle {
        self.clients[i].clone()
    }

    /// Number of shard groups.
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    /// The partitioning function, for callers that want to co-locate
    /// work with data.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: &Value) -> u32 {
        self.map.shard_of(key)
    }

    /// The current primary site of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn primary_site(&self, shard: u32) -> SiteId {
        SiteId(self.groups[shard as usize].primary.load(Ordering::SeqCst))
    }

    /// The site that currently owns `key`: the owning shard's primary.
    /// Useful with [`pragma::result_on_prefix`](crate::pragma::result_on_prefix)
    /// to pin a query's execution where its data lives.
    pub fn owning_site(&self, key: &Value) -> SiteId {
        self.primary_site(self.shard_of(key))
    }

    /// Replica sites of `shard`, in site order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn replica_sites(&self, shard: u32) -> Vec<SiteId> {
        self.routes.replicas_of(shard).to_vec()
    }

    /// Total messages that crossed the medium so far.
    pub fn message_count(&self) -> u64 {
        self.medium.message_count()
    }

    /// Maps the cluster onto `topology` (site ids = node indices) and
    /// accounts the network load so far: total messages and total hops the
    /// messages traversed under greedy routing. Consumes the broadcast
    /// history non-destructively (persistent streams allow any number of
    /// readers).
    ///
    /// # Panics
    ///
    /// Panics if a site id is out of range for the topology.
    pub fn network_load(&self, topology: &dyn fundb_rediflow::Topology) -> NetworkLoad {
        let router = Router::new(topology);
        let mut messages = 0u64;
        let mut hops = 0u64;
        // Snapshot: count what has been broadcast so far without waiting
        // for more (the medium may still be open).
        let mut cur = self.medium.broadcast_stream();
        while let Some(node) = cur.try_node() {
            match node {
                Node::Nil => break,
                Node::Cons(m, rest) => {
                    messages += 1;
                    hops += u64::from(router.hops(m.from, m.to));
                    cur = rest.clone();
                }
            }
        }
        NetworkLoad { messages, hops }
    }

    /// Advances the fault plan's logical clock one step, delivering what
    /// comes due before returning (see
    /// [`SharedMedium::tick`]). No-op without a fault plan.
    pub fn tick(&self) {
        self.medium.tick();
    }

    /// A snapshot of the cluster's traffic counters, with each shard's
    /// shipped count refreshed (applied counts refresh at [`sync`]).
    ///
    /// [`sync`]: Self::sync
    pub fn stats(&self) -> ClusterStatsSnapshot {
        for g in &self.groups {
            self.stats
                .record_shipped(g.shard as usize, g.batches.load(Ordering::SeqCst));
        }
        let mut snap = self.stats.snapshot();
        snap.chaos = self.medium.chaos_stats();
        snap
    }

    fn ctl(&self, to: SiteId, payload: DbPayload) {
        let seq = self.ctl_seq.fetch_add(1, Ordering::SeqCst);
        self.medium
            .send(Message::new(CONTROL_SITE, to, seq, payload));
    }

    /// Blocks until every still-replicating replica of every shard has
    /// applied all batches shipped so far, and records each shard's apply
    /// progress into the stats: sends each a
    /// [`SyncPing`](DbPayload::SyncPing) and waits for the echoes. Inboxes
    /// preserve the medium's merge order, so a replica *answering* the
    /// probe has necessarily processed every `Replicate` shipped to it
    /// before the probe. Returns early if the medium closes mid-sync.
    ///
    /// Under a fault plan it ticks the medium between waits, so a held
    /// probe or echo is released, and gives up after
    /// `SYNC_PATIENCE` ticks in a row bring no echo — a replica whose
    /// catch-up snapshot a fault holds buffers its probes — leaving that
    /// shard's lag in [`stats`](Self::stats).
    pub fn sync(&self) {
        let mut targets: HashMap<SiteId, u32> = HashMap::new();
        for g in &self.groups {
            self.stats
                .record_shipped(g.shard as usize, g.batches.load(Ordering::SeqCst));
            for &site in g.active.lock().iter() {
                targets.insert(site, g.shard);
            }
        }
        if targets.is_empty() {
            return;
        }
        let token = self.ctl_seq.fetch_add(1, Ordering::SeqCst);
        let mut cur = self.medium.choose(CONTROL_SITE);
        // A probe's step — the replica's queued apply — runs on the thread
        // that sends it: one sending thread per replica lets independent
        // replicas apply side by side.
        std::thread::scope(|s| {
            let sends: Vec<_> = targets
                .keys()
                .map(|&site| s.spawn(move || self.ctl(site, DbPayload::SyncPing { token })))
                .collect();
            for send in sends {
                send.join().expect("a replica's sync probe step panicked");
            }
        });
        let faulty = self.medium.has_faults();
        let mut idle = 0;
        while !targets.is_empty() {
            let node = if faulty {
                cur.wait_node_timeout(SYNC_TICK)
            } else {
                Some(cur.wait_node())
            };
            let Some(node) = node else {
                if idle == SYNC_PATIENCE {
                    return;
                }
                idle += 1;
                self.medium.tick();
                continue;
            };
            let Node::Cons(msg, rest) = node else {
                return; // medium closed; nothing more is coming
            };
            if let DbPayload::ReplicateAck { token: t, batches } = msg.payload {
                if t == token {
                    if let Some(shard) = targets.remove(&msg.from) {
                        self.stats.record_applied(shard as usize, batches);
                        idle = 0;
                    }
                }
            }
            cur = rest.clone();
        }
    }

    /// Simulates a crash of `shard`'s primary: halts it and waits for its
    /// serving loop to exit. The loop returns only once every reply and
    /// sequenced ack it admitted is on the medium, so every transaction
    /// the dead primary admitted is committed, shipped to the replicas,
    /// and answered by the time this returns — later messages to
    /// the dead site go unanswered until [`promote`](Self::promote)
    /// re-points the shard; the *other shards keep serving throughout*.
    ///
    /// Returns the number of requests the dead primary served.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, or its primary was already
    /// killed and not yet replaced.
    pub fn kill_primary(&mut self, shard: u32) -> u64 {
        self.ctl(self.primary_site(shard), DbPayload::Halt);
        self.groups[shard as usize]
            .driver
            .take()
            .expect("no primary is running for this shard")
            .join()
            .expect("shard primary loop panicked")
    }

    /// Promotes replica `site` to primary of `shard`: sends `Promote`
    /// (with the shard's surviving replica set), re-points client routing
    /// for that shard, and fails the in-flight requests the dead primary
    /// will never answer — except broadcasts (cross-shard transactions,
    /// gathers and DDL), which the promoted primary replays and answers
    /// itself. The order matters —
    /// the promotion message is on the medium *before* any client can
    /// address the new primary, so the replica sees it before the first
    /// re-routed write.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `site` is not one of its
    /// replicas.
    pub fn promote(&mut self, shard: u32, site: SiteId) {
        let group = &self.groups[shard as usize];
        let mut active = group.active.lock();
        assert!(
            group.replicas.iter().any(|r| r.site() == site),
            "{site} is not a replica of shard {shard}"
        );
        active.retain(|&s| s != site);
        let peers = active.clone();
        drop(active);
        self.ctl(site, DbPayload::Promote { peers });
        let old = SiteId(group.primary.swap(site.0, Ordering::SeqCst));
        for client in &self.clients {
            client.fail_pending_to(old, "shard primary halted before a reply arrived");
        }
        // The promotion's own thread now drives this shard's primary; a
        // later shutdown waits for it through the ReplicaSite handle.
    }

    /// Closes the medium and waits for every site; returns the number of
    /// requests served by all primaries over the cluster's lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.medium.close();
        let mut served = 0;
        for g in &mut self.groups {
            if let Some(driver) = g.driver.take() {
                served += driver.join().expect("shard primary loop panicked");
            }
        }
        for g in &mut self.groups {
            for replica in g.replicas.drain(..) {
                served += replica.join();
            }
        }
        served
    }
}

impl Drop for ShardedCluster {
    fn drop(&mut self) {
        self.medium.close();
        for g in &mut self.groups {
            if let Some(driver) = g.driver.take() {
                let _ = driver.join();
            }
            // ReplicaSite::drop waits for each replica to finish.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_durable::ScratchDir;
    use fundb_lenient::Lenient;
    use fundb_query::Response;

    /// A one-shard cluster with no replicas over `dir` — Figure 3-1's
    /// primary at site 0 and client `i` at site `i + 1` — with relations
    /// `R` and `S` created through client 0.
    fn figure_3_1(dir: &ScratchDir, clients: usize, workers: usize) -> ShardedCluster {
        let cluster = ShardedCluster::start(dir.path(), 1, clients, workers, 0).unwrap();
        let c = cluster.client(0);
        for rel in ["R", "S"] {
            let created = c
                .submit(&format!("create relation {rel} as list"))
                .wait_cloned();
            assert!(!created.is_error(), "{created:?}");
        }
        cluster
    }

    #[test]
    fn single_client_round_trip() {
        let tmp = ScratchDir::new("shard-round-trip");
        let cluster = figure_3_1(&tmp, 1, 2);
        let c = cluster.client(0);
        assert!(!c.submit("insert (1, 'a') into R").wait().is_error());
        let r = c.submit("find 1 in R");
        assert_eq!(r.wait().tuples().unwrap().len(), 1);
        // Two creates, the insert and the find.
        assert_eq!(cluster.shutdown(), 4);
    }

    #[test]
    fn responses_in_submission_order_per_client() {
        let tmp = ScratchDir::new("shard-submission-order");
        let cluster = figure_3_1(&tmp, 1, 4);
        let c = cluster.client(0);
        let cells: Vec<_> = (0..30)
            .map(|i| c.submit(&format!("insert {i} into R")))
            .collect();
        let count = c.submit("count R");
        for cell in &cells {
            assert!(!cell.wait().is_error());
        }
        assert_eq!(*count.wait(), Response::Count(30));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_serialize() {
        let tmp = ScratchDir::new("shard-concurrent-clients");
        let cluster = figure_3_1(&tmp, 3, 4);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let c = cluster.client(i);
                std::thread::spawn(move || {
                    let cells: Vec<_> = (0..20)
                        .map(|k| {
                            let rel = if i == 2 { "S" } else { "R" };
                            c.submit(&format!("insert {} into {rel}", i * 100 + k))
                        })
                        .collect();
                    cells.iter().all(|c| !c.wait().is_error())
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
        let c = cluster.client(0);
        assert_eq!(*c.submit("count R").wait(), Response::Count(40));
        assert_eq!(*c.submit("count S").wait(), Response::Count(20));
        // Two creates, 60 inserts and two counts.
        assert_eq!(cluster.shutdown(), 64);
    }

    #[test]
    fn parse_errors_come_back_as_errors() {
        let tmp = ScratchDir::new("shard-parse-error");
        let cluster = figure_3_1(&tmp, 1, 1);
        let c = cluster.client(0);
        let submissions: [&dyn Fn() -> Lenient<Response>; 3] = [
            &|| c.submit("gibberish"),
            &|| c.submit("result-on site0: gibberish"),
            &|| c.submit_txn(&["insert 1 into R", "gibberish"]),
        ];
        for (i, submit) in submissions.iter().enumerate() {
            let before = cluster.message_count();
            assert!(submit().wait().is_error(), "submission {i}");
            // Answered at the client: the text never reached the medium.
            assert_eq!(cluster.message_count(), before, "submission {i}");
        }
        cluster.shutdown();
    }

    #[test]
    fn network_load_on_topology() {
        use fundb_rediflow::Hypercube;
        let tmp = ScratchDir::new("shard-network-load");
        let cluster = figure_3_1(&tmp, 3, 2);
        let topo = Hypercube::new(3);
        let before = cluster.network_load(&topo);
        let c = cluster.client(2); // site 3
        c.submit("count R").wait();
        let after = cluster.network_load(&topo);
        // One request site3 -> site0 (2 hops on the 3-cube: 011 ^ 000) and
        // one reply back (2 hops).
        assert_eq!(after.messages - before.messages, 2);
        assert_eq!(after.hops - before.hops, 4);
        cluster.shutdown();
    }

    #[test]
    fn message_accounting() {
        let tmp = ScratchDir::new("shard-message-count");
        let cluster = figure_3_1(&tmp, 1, 1);
        let before = cluster.message_count();
        cluster.client(0).submit("count R").wait();
        // One request + one reply.
        assert_eq!(cluster.message_count() - before, 2);
        cluster.shutdown();
    }

    #[test]
    fn shutdown_fails_stranded_requests_instead_of_hanging() {
        let tmp = ScratchDir::new("shard-stranded");
        let cluster = figure_3_1(&tmp, 1, 1);
        let c = cluster.client(0);
        // Close the medium out from under an in-flight submission path: the
        // request may or may not reach the primary before the close wins
        // the race; either way the caller must not block forever.
        let cell = c.submit("count R");
        cluster.shutdown();
        let got = cell
            .wait_timeout(Duration::from_secs(10))
            .expect("cell must resolve after shutdown");
        // Either a real reply (request won the race) or the shutdown error.
        match got {
            Response::Count(0) => {}
            Response::Error(e) => assert!(e.contains("shut down"), "{e}"),
            other => panic!("unexpected response: {other}"),
        }
    }

    #[test]
    fn threads_sharing_a_handle_get_their_own_replies() {
        // Regression: submit() used to push a pending cell and send the
        // request as two unsynchronized steps, so two threads could
        // interleave (push A, push B, send B, send A) and the FIFO receiver
        // would fill the wrong cells. Replies are now matched by seq tag.
        let tmp = ScratchDir::new("shard-shared-handle");
        let cluster = figure_3_1(&tmp, 1, 4);
        let loaded: Vec<_> = (0..40i64)
            .map(|k| {
                cluster
                    .client(0)
                    .submit(&format!("insert ({k}, {}) into R", k * 10))
            })
            .collect();
        assert!(loaded.iter().all(|cell| !cell.wait().is_error()));
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let c = cluster.client(0);
                std::thread::spawn(move || {
                    for round in 0..60 {
                        let k = (t * 20 + round % 20) as i64;
                        let got = c.submit(&format!("find {k} in R")).wait_cloned();
                        let tuples = got.tuples().expect("find succeeds");
                        assert_eq!(tuples.len(), 1);
                        assert_eq!(
                            tuples[0],
                            fundb_relational::Tuple::from(vec![
                                Value::from(k),
                                Value::from(k * 10),
                            ]),
                            "reply for key {k} filled the wrong cell"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn shutdown_resolves_every_in_flight_cell() {
        let tmp = ScratchDir::new("shard-in-flight");
        let cluster = figure_3_1(&tmp, 2, 2);
        let cells: Vec<_> = (0..2)
            .flat_map(|i| {
                let c = cluster.client(i);
                (0..50)
                    .map(move |k| c.submit(&format!("insert {k} into R")))
                    .collect::<Vec<_>>()
            })
            .collect();
        cluster.shutdown();
        for cell in cells {
            // Every cell resolves — a real reply or the shutdown error —
            // and no waiter is stranded.
            let got = cell
                .wait_timeout(Duration::from_secs(10))
                .expect("cell must resolve after shutdown");
            if let Response::Error(e) = got {
                assert!(e.contains("shut down"), "{e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let tmp = ScratchDir::new("shard-zero-clients");
        let _ = ShardedCluster::start(tmp.path(), 1, 0, 1, 0);
    }

    #[test]
    fn every_shard_gets_a_fair_share_of_integer_keys() {
        let map = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for k in 0..1000i64 {
            counts[map.shard_of(&Value::from(k)) as usize] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&n),
                "shard {shard} got {n} of 1000 keys — placement is striping"
            );
        }
    }

    #[test]
    fn string_and_bool_keys_place_in_range() {
        let map = ShardMap::new(3);
        for k in 0..50 {
            assert!(map.shard_of(&Value::from(format!("user-{k}").as_str())) < 3);
        }
        assert!(map.shard_of(&Value::from(true)) < 3);
        assert!(map.shard_of(&Value::from(false)) < 3);
    }

    #[test]
    fn placement_is_deterministic_and_one_shard_is_total() {
        let map = ShardMap::new(8);
        let one = ShardMap::new(1);
        for k in -100..100i64 {
            let v = Value::from(k);
            assert_eq!(map.shard_of(&v), map.shard_of(&v));
            assert_eq!(one.shard_of(&v), 0);
        }
    }

    /// The satellite's miswire test: a read for a key must round-robin
    /// over the *owning* shard's replicas and never a sibling shard's.
    /// (The historical bug shape: one global read set round-robined over
    /// every replica in the cluster, so half the keyed reads landed on a
    /// shard that had never seen the key and answered from empty state.)
    #[test]
    fn keyed_reads_round_robin_only_over_the_owning_shards_replicas() {
        let routes = ShardRoutes::new(
            ShardMap::new(2),
            vec![
                ShardRoute {
                    primary: Arc::new(AtomicU32::new(0)),
                    replicas: vec![SiteId(1), SiteId(2)],
                },
                ShardRoute {
                    primary: Arc::new(AtomicU32::new(3)),
                    replicas: vec![SiteId(4), SiteId(5)],
                },
            ],
        );
        for k in 0..200i64 {
            let key = Value::from(k);
            let shard = routes.shard_of(&key);
            let own: Vec<SiteId> = routes.replicas_of(shard).to_vec();
            for ticket in 0..7u64 {
                let dest = routes.read_site(shard, ticket);
                assert!(
                    own.contains(&dest),
                    "key {k} (shard {shard}) read routed to {dest}, outside {own:?}"
                );
            }
        }
        // Both replicas of a shard actually take turns.
        assert_ne!(routes.read_site(0, 0), routes.read_site(0, 1));

        // One shard with replicas: point reads take turns over them, the
        // rest goes to the primary, and each statement is counted under
        // the kind its plan names.
        let (c, stats, medium) = one_shard_client(vec![SiteId(1), SiteId(2)]);
        let script = [
            "find 1 in R",
            "find 2 in R",
            "count R",
            "select from R",
            "insert 1 into R",
        ];
        assert_eq!(
            routed(&c, &medium, &script),
            [1, 2, 1, 0, 0].map(SiteId).to_vec()
        );
        assert_eq!(route_counts(&stats), (1, 2, 2, 0));
        medium.close();
    }

    /// A client of a one-shard cluster whose primary is site 0 and whose
    /// read set is `replicas`, with the cluster's counters, on a medium no
    /// site serves: its requests stay there for the test to read.
    fn one_shard_client(
        replicas: Vec<SiteId>,
    ) -> (ClientHandle, Arc<ClusterStats>, SharedMedium<DbPayload>) {
        let medium = SharedMedium::new();
        let routes = ShardRoutes::new(
            ShardMap::new(1),
            vec![ShardRoute {
                primary: Arc::new(AtomicU32::new(0)),
                replicas,
            }],
        );
        let stats = Arc::new(ClusterStats::new(1));
        let routes = Arc::new(routes);
        let c = ClientHandle::spawn(&medium, SiteId(9), ClientId(0), routes, Arc::clone(&stats));
        (c, stats, medium)
    }

    /// Submits `script` through `c` and returns where each request went.
    fn routed(c: &ClientHandle, medium: &SharedMedium<DbPayload>, script: &[&str]) -> Vec<SiteId> {
        for q in script {
            c.submit(q);
        }
        let sent = medium.broadcast_stream().take(script.len()).collect_vec();
        sent.iter().map(|m| m.to).collect()
    }

    /// `(writes, keyed reads, gathers, ddl)` as `stats` counted them.
    fn route_counts(stats: &ClusterStats) -> (u64, u64, u64, u64) {
        let s = stats.snapshot();
        (
            s.single_shard_writes,
            s.single_shard_reads,
            s.gather_reads,
            s.ddl_broadcasts,
        )
    }

    #[test]
    fn replicaless_shard_reads_from_its_primary() {
        let routes = ShardRoutes::new(
            ShardMap::new(2),
            vec![
                ShardRoute {
                    primary: Arc::new(AtomicU32::new(0)),
                    replicas: Vec::new(),
                },
                ShardRoute {
                    primary: Arc::new(AtomicU32::new(1)),
                    replicas: Vec::new(),
                },
            ],
        );
        assert_eq!(routes.read_site(0, 9), SiteId(0));
        assert_eq!(routes.read_site(1, 9), SiteId(1));

        // One shard without replicas: everything goes to the primary, and
        // each statement is counted under the kind its plan names.
        let (c, stats, medium) = one_shard_client(Vec::new());
        let script = [
            "find 1 in R",
            "insert 1 into R",
            "count R",
            "select from R",
            "create relation T",
            "explain find 1 in R",
        ];
        assert_eq!(routed(&c, &medium, &script), vec![SiteId(0); 6]);
        assert_eq!(route_counts(&stats), (1, 1, 2, 1));
        medium.close();
    }

    /// Sequenced gathers and DDL count under their routes only, never as
    /// transactions or their receipts: a two-shard cluster's acks per
    /// cross-shard transaction stay at one per participant — what
    /// `bench_stack` reports as `net.seq_acks_per_txn` (2.0).
    #[test]
    fn sequenced_gathers_and_ddl_count_under_their_routes_only() {
        let tmp = ScratchDir::new("shard-sequenced-counters");
        let cluster = ShardedCluster::start(tmp.path(), 2, 1, 2, 1).unwrap();
        let c = cluster.client(0);
        let ok = |r: Lenient<Response>| assert!(!r.wait().is_error(), "{:?}", r.wait());
        ok(c.submit("create relation R"));
        let map = cluster.shard_map();
        let keys = |shard| (0..).filter(move |&k| map.shard_of(&Value::from(k)) == shard);
        for (a, b) in keys(0).zip(keys(1)).take(5) {
            ok(c.submit_txn(&[&format!("insert {a} into R"), &format!("insert {b} into R")]));
            ok(c.submit("count R"));
            ok(c.submit("select from R"));
        }
        ok(c.submit("create relation S"));
        assert_eq!(*c.submit("count R").wait(), Response::Count(10));
        let s = cluster.stats();
        assert_eq!((s.gather_reads, s.ddl_broadcasts), (11, 2), "{s}");
        assert_eq!((s.cross_shard_txns, s.single_shard_txns), (5, 0), "{s}");
        assert_eq!((s.sequencer_waits, s.sequencer_acks), (10, 10), "{s}");
        cluster.shutdown();
    }

    #[test]
    fn stats_snapshot_displays_one_line() {
        let stats = ClusterStats::new(2);
        stats.single_shard_writes.fetch_add(10, Ordering::Relaxed);
        stats.cross_shard_txns.fetch_add(3, Ordering::Relaxed);
        stats.sequencer_waits.fetch_add(6, Ordering::Relaxed);
        stats.sequencer_acks.fetch_add(6, Ordering::Relaxed);
        stats.record_shipped(0, 5);
        stats.record_applied(0, 5);
        stats.record_shipped(1, 4);
        stats.record_applied(1, 3);
        let snap = stats.snapshot();
        assert_eq!(snap.shard_lag, vec![(5, 5), (4, 3)]);
        let line = snap.to_string();
        assert!(line.contains("10w"), "{line}");
        assert!(line.contains("3 cross-shard"), "{line}");
        assert!(line.contains("acks 6/6"), "{line}");
        assert!(line.contains("s1:3/4"), "{line}");
    }

    #[test]
    fn lag_counters_keep_their_maximum() {
        let stats = ClusterStats::new(1);
        stats.record_applied(0, 7);
        stats.record_applied(0, 3); // a stale replica's echo can't regress it
        assert_eq!(stats.snapshot().shard_lag[0].1, 7);
    }
}
