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
//! scales. It is the crate's only durable topology: with `shards = 1`
//! it *is* the replicated cluster of Figure 3-1's distributed case — one
//! durable primary at site 0, its replicas at `1..=R`, every key on
//! shard 0, every transaction single-shard.
//!
//! **Routing** ([`ShardMap`] + the shard-aware
//! [`ClientHandle`]): a single-key read or write goes
//! *directly* to the owning shard — no global hop of any kind, per Didona
//! et al.'s observation that fast distributed transactions must keep
//! single-partition work off global coordination. Reads round-robin over
//! the owning shard's replicas only (read-your-writes holds per shard,
//! because each shard ships its batches before acking — see
//! [`crate::replica`]). Scans and aggregates scatter to every shard and
//! gather; DDL broadcasts to every primary so each shard holds the full
//! catalog.
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
//! transactions the dead primary never applied and replays them first —
//! every *acknowledged* transaction survives, and unacked broadcasts
//! complete instead of vanishing. See DESIGN.md §14 for the full
//! argument and its scope (per-shard sub-batch atomicity).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fundb_core::fasthash::Fnv1a;
use fundb_core::ClientId;
use fundb_durable::DurableEngine;
use fundb_relational::Value;
use parking_lot::Mutex;

use crate::chaos::{ChaosSnapshot, FaultPlan};
use crate::cluster::ClientHandle;
use crate::medium::SharedMedium;
use crate::message::{DbPayload, Message, SiteId};
use crate::primary::{run_primary_loop, PrimaryRole};
use crate::replica::{ReplicaSite, ReplicationSender, CONTROL_SITE};

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

    /// The one-shard, no-replica table of the in-memory
    /// [`Cluster`](crate::Cluster): same routing code, degenerate
    /// partitioning.
    pub(crate) fn single(primary: Arc<AtomicU32>, replicas: Vec<SiteId>) -> ShardRoutes {
        ShardRoutes::new(ShardMap::new(1), vec![ShardRoute { primary, replicas }])
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

    pub(crate) fn all_primaries(&self) -> Vec<SiteId> {
        (0..self.shard_count())
            .map(|s| self.primary_of(s))
            .collect()
    }
}

impl fmt::Debug for ShardRoutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardRoutes[{} shards]", self.shard_count())
    }
}

/// Cluster-level traffic counters, in the mold of `EngineStats`: relaxed
/// atomics bumped on the client's routing path and the receiver thread,
/// snapshot on demand. One instance is shared by every
/// [`ClientHandle`] of a cluster.
#[derive(Debug)]
pub struct ClusterStats {
    /// Single-key writes routed directly to an owning primary.
    pub single_shard_writes: AtomicU64,
    /// Single-key reads routed to an owning shard's read set.
    pub single_shard_reads: AtomicU64,
    /// Scatter-gather reads (scans, aggregates) fanned out to every shard.
    pub gather_reads: AtomicU64,
    /// DDL statements broadcast to every shard primary.
    pub ddl_broadcasts: AtomicU64,
    /// Queries pinned to an explicit site by a `RESULT-ON` pragma prefix.
    pub pragma_pinned: AtomicU64,
    /// Sequenced transactions whose keys all lived on one shard (direct).
    pub single_shard_txns: AtomicU64,
    /// Sequenced transactions spanning shards (broadcast).
    pub cross_shard_txns: AtomicU64,
    /// Participant fsync receipts awaited, cumulatively (one per
    /// participant shard per sequenced transaction).
    pub sequencer_waits: AtomicU64,
    /// Participant fsync receipts received.
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
    /// Scatter-gather reads fanned out to every shard.
    pub gather_reads: u64,
    /// DDL statements broadcast to every shard primary.
    pub ddl_broadcasts: u64,
    /// Queries pinned to an explicit site by a `RESULT-ON` prefix.
    pub pragma_pinned: u64,
    /// Sequenced transactions that stayed on one shard.
    pub single_shard_txns: u64,
    /// Sequenced transactions spanning shards.
    pub cross_shard_txns: u64,
    /// Participant fsync receipts awaited, cumulatively.
    pub sequencer_waits: u64,
    /// Participant fsync receipts received.
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

/// One shard group: a durable primary and its replicas, plus the shared
/// routing/progress cells the cluster needs to steer and observe it.
struct ShardGroup {
    shard: u32,
    /// Current primary site — the same atomic the clients route by.
    primary: Arc<AtomicU32>,
    pump: Option<JoinHandle<u64>>,
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
            let pump = {
                let inbox = medium.choose(primary_site);
                let medium = medium.clone();
                let role = PrimaryRole {
                    shard: g,
                    ack_peers: replica_sites.clone(),
                };
                std::thread::spawn(move || {
                    run_primary_loop(inbox, medium, primary_site, engine, role, Vec::new())
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
                pump: Some(pump),
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

    /// Advances the fault plan's logical clock one pump step (see
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
        for &site in targets.keys() {
            self.ctl(site, DbPayload::SyncPing { token });
        }
        while !targets.is_empty() {
            let Some((msg, rest)) = cur.uncons() else {
                return; // medium closed; nothing more is coming
            };
            cur = rest;
            if let DbPayload::ReplicateAck { token: t, batches } = msg.payload {
                if t == token {
                    if let Some(shard) = targets.remove(&msg.from) {
                        self.stats.record_applied(shard as usize, batches);
                    }
                }
            }
        }
    }

    /// Simulates a crash of `shard`'s primary: halts it and waits for its
    /// serving loop to exit. Because the join drains the responder, every
    /// transaction the dead primary admitted is committed, shipped to the
    /// replicas, and answered by the time this returns — later messages to
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
        let old = self.primary_site(shard);
        let seq = self.ctl_seq.fetch_add(1, Ordering::SeqCst);
        self.medium
            .send(Message::new(CONTROL_SITE, old, seq, DbPayload::Halt));
        self.groups[shard as usize]
            .pump
            .take()
            .expect("no primary is running for this shard")
            .join()
            .expect("shard primary loop panicked")
    }

    /// Promotes replica `site` to primary of `shard`: sends `Promote`
    /// (with the shard's surviving replica set), re-points client routing
    /// for that shard, and fails the in-flight requests the dead primary
    /// will never answer — except broadcast sequenced transactions, which
    /// the promoted primary replays and acks itself. The order matters —
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
        // The promoted replica's serving loop is now this shard's pump; a
        // later shutdown joins it through the ReplicaSite handle.
    }

    /// Closes the medium and waits for every site; returns the number of
    /// requests served by all primaries over the cluster's lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.medium.close();
        let mut served = 0;
        for g in &mut self.groups {
            if let Some(pump) = g.pump.take() {
                served += pump.join().expect("shard primary loop panicked");
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
            if let Some(pump) = g.pump.take() {
                let _ = pump.join();
            }
            // ReplicaSite::drop joins each replica thread.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
