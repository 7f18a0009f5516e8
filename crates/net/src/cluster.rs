//! A cluster's client sites: the terminals of Figure 3-1.
//!
//! Terminals at several sites submit symbolic queries; the medium merges
//! them; the primary site serializes and executes them; replies travel
//! back over the medium and each client site `choose`s its own. A
//! [`ClientHandle`] is one terminal; [`ShardedCluster`](crate::ShardedCluster)
//! wires the terminals, the medium and the primaries together.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fundb_core::ClientId;
use fundb_lenient::stream::{after_steps, Node};
use fundb_lenient::Lenient;
use fundb_query::{parse, Query, Response};
use parking_lot::Mutex;

use crate::medium::SharedMedium;
use crate::message::{DbPayload, Message, SiteId};
use crate::pragma;
use crate::router::{combine_gather, plan_route, GatherKind, RoutePlan};
use crate::shard::{ClusterStats, ShardRoutes};

/// One in-flight submission, keyed in the pending map by message `seq`.
enum Pending {
    /// An ordinary request with a single serving site.
    Single {
        dest: SiteId,
        cell: Lenient<Response>,
    },
    /// A scattered read/DDL: one request per shard under a shared `seq`,
    /// replies told apart by their sending site.
    Gather {
        kind: GatherKind,
        waiting: HashSet<SiteId>,
        partials: Vec<(SiteId, Response)>,
        cell: Lenient<Response>,
    },
    /// A sequenced transaction: fsync receipts outstanding per shard.
    /// `direct` is the owning primary for the single-shard fast path
    /// (`None` = broadcast; a promoted primary will answer for a dead
    /// one, so broadcasts survive failover and must not be failed).
    Txn {
        waiting: HashSet<u32>,
        direct: Option<SiteId>,
        ops: usize,
        shards: usize,
        error: Option<String>,
        cell: Lenient<Response>,
    },
}

impl Pending {
    fn cell(self) -> Lenient<Response> {
        match self {
            Pending::Single { cell, .. }
            | Pending::Gather { cell, .. }
            | Pending::Txn { cell, .. } => cell,
        }
    }

    /// Whether the halt of `dest` makes this entry unanswerable.
    fn doomed_by(&self, dest: SiteId) -> bool {
        match self {
            Pending::Single { dest: d, .. } => *d == dest,
            Pending::Gather { waiting, .. } => waiting.contains(&dest),
            Pending::Txn { direct, .. } => *direct == Some(dest),
        }
    }
}

/// A client site's submission handle.
///
/// Each submitted query returns a lenient cell its response will appear
/// in. Replies are matched to their cells by the request's message `seq`
/// tag (carried back as `in_reply_to`), so cloned handles may submit from
/// several threads concurrently, and replies may arrive out of submission
/// order — as they do when reads are served by replicas and writes by the
/// primary.
///
/// On a sharded cluster the handle routes by key: single-key reads and
/// writes go directly to the owning shard (reads round-robin over that
/// shard's — and only that shard's — replicas), scans scatter-gather, and
/// [`submit_txn`](Self::submit_txn) sequences multi-shard writes through
/// the medium.
pub struct ClientHandle {
    site: SiteId,
    client: ClientId,
    medium: SharedMedium<DbPayload>,
    seq: Arc<AtomicU64>,
    /// In-flight submissions by message `seq`.
    pending: Arc<Mutex<HashMap<u64, Pending>>>,
    /// Shard partitioning + per-shard primaries and read sets. With one
    /// shard it is the routing of the replicated cluster.
    routes: Arc<ShardRoutes>,
    stats: Arc<ClusterStats>,
    rr: Arc<AtomicU64>,
}

impl Clone for ClientHandle {
    fn clone(&self) -> Self {
        ClientHandle {
            site: self.site,
            client: self.client,
            medium: self.medium.clone(),
            seq: Arc::clone(&self.seq),
            pending: Arc::clone(&self.pending),
            routes: Arc::clone(&self.routes),
            stats: Arc::clone(&self.stats),
            rr: Arc::clone(&self.rr),
        }
    }
}

impl fmt::Debug for ClientHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClientHandle[{} as {}]", self.site, self.client)
    }
}

impl ClientHandle {
    /// Starts a client site: builds the handle and drives its inbox as a
    /// fold with no thread of its own — whichever thread delivers a reply
    /// or sequenced ack steps it, matching it to its pending entry by
    /// `in_reply_to` and filling the cell there; the end of the medium
    /// fails whatever is still pending. A reply sent inside
    /// [`submit`](Self::submit) — a replica read — has filled its cell
    /// when `submit` returns.
    pub(crate) fn spawn(
        medium: &SharedMedium<DbPayload>,
        site: SiteId,
        client: ClientId,
        routes: Arc<ShardRoutes>,
        stats: Arc<ClusterStats>,
    ) -> ClientHandle {
        let handle = ClientHandle {
            site,
            client,
            medium: medium.clone(),
            seq: Arc::new(AtomicU64::new(0)),
            pending: Arc::new(Mutex::new(HashMap::new())),
            routes,
            stats,
            rr: Arc::new(AtomicU64::new(0)),
        };
        let receiver = ClientSite {
            pending: Arc::clone(&handle.pending),
            stats: Arc::clone(&handle.stats),
        };
        medium.choose(site).drive(receiver, receive);
        handle
    }

    /// Submits a symbolic query; returns the cell its response will fill.
    ///
    /// A `result-on siteN:` prefix ([`pragma::result_on_prefix`]) pins
    /// the query to that site; a site that is neither a shard's current
    /// primary nor one of its replicas is refused without a message sent.
    /// Otherwise, on one shard: point reads
    /// (`find`, `count`) go round-robin to the read set when one is
    /// configured, everything else to the primary. On a sharded cluster
    /// the query routes by [`plan_route`]: keyed operations to the
    /// owning shard, scans as a scatter-gather over every shard's read
    /// set, DDL to every primary; a statement no shard can answer from its
    /// own partition is refused without a message sent.
    pub fn submit(&self, query: &str) -> Lenient<Response> {
        if let Some((pinned, rest)) = pragma::strip_result_on(query) {
            if !self.routes.serves(pinned) {
                return Lenient::ready(Response::Error(format!(
                    "result-on {pinned}: not a primary or replica of any shard"
                )));
            }
            self.stats.pragma_pinned.fetch_add(1, Ordering::Relaxed);
            return self.send_single(pinned, rest);
        }
        if self.routes.shard_count() == 1 {
            let dest = self.route_one_shard(query);
            return self.send_single(dest, query);
        }
        let Ok(parsed) = parse(query) else {
            // Unparsable text: shard 0's primary answers with the error.
            return self.send_single(self.routes.primary_of(0), query);
        };
        match plan_route(&parsed) {
            RoutePlan::WriteKey(key) => {
                self.stats
                    .single_shard_writes
                    .fetch_add(1, Ordering::Relaxed);
                let shard = self.routes.shard_of(&key);
                self.send_single(self.routes.primary_of(shard), query)
            }
            RoutePlan::ReadKey(key) => {
                self.stats
                    .single_shard_reads
                    .fetch_add(1, Ordering::Relaxed);
                let shard = self.routes.shard_of(&key);
                let ticket = self.rr.fetch_add(1, Ordering::SeqCst);
                self.send_single(self.routes.read_site(shard, ticket), query)
            }
            RoutePlan::GatherRead(kind) => {
                self.stats.gather_reads.fetch_add(1, Ordering::Relaxed);
                let ticket = self.rr.fetch_add(1, Ordering::SeqCst);
                let dests: Vec<SiteId> = (0..self.routes.shard_count())
                    .map(|s| self.routes.read_site(s, ticket))
                    .collect();
                self.send_gather(kind, dests, query)
            }
            RoutePlan::AllPrimaries(kind) => {
                self.stats.ddl_broadcasts.fetch_add(1, Ordering::Relaxed);
                self.send_gather(kind, self.routes.all_primaries(), query)
            }
            RoutePlan::AnyShard => self.send_single(self.routes.primary_of(0), query),
            RoutePlan::Refuse(why) => Lenient::ready(Response::Error(why)),
        }
    }

    /// Submits a multi-write transaction: every query must be a
    /// single-key write (`insert`, `delete`, `replace`). The writes are
    /// partitioned by owning shard and sequenced through the medium —
    /// sent directly to the owning primary when one shard holds every
    /// key, broadcast otherwise, with each participant applying its
    /// sub-batch at the broadcast's merge position. The returned cell
    /// fills with [`Response::Applied`] only after *every* participant's
    /// fsync receipt (or with the first error).
    pub fn submit_txn(&self, queries: &[&str]) -> Lenient<Response> {
        if queries.is_empty() {
            return Lenient::ready(Response::Error("empty transaction".into()));
        }
        let mut subs: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for q in queries {
            let parsed = match parse(q) {
                Ok(p) => p,
                Err(e) => return Lenient::ready(Response::Error(e.to_string())),
            };
            match plan_route(&parsed) {
                RoutePlan::WriteKey(key) => subs
                    .entry(self.routes.shard_of(&key))
                    .or_default()
                    .push((*q).to_string()),
                _ => {
                    return Lenient::ready(Response::Error(format!(
                        "transactions sequence single-key writes only; `{q}` is not one"
                    )))
                }
            }
        }
        let ops = queries.len();
        let shards = subs.len();
        let waiting: HashSet<u32> = subs.keys().copied().collect();
        let (dest, direct) = if shards == 1 {
            // Didona et al.'s rule: a transaction whose keys live on one
            // shard must not touch any global path — direct unicast.
            self.stats.single_shard_txns.fetch_add(1, Ordering::Relaxed);
            let d = self
                .routes
                .primary_of(*waiting.iter().next().expect("one shard"));
            (d, Some(d))
        } else {
            self.stats.cross_shard_txns.fetch_add(1, Ordering::Relaxed);
            (SiteId::BROADCAST, None)
        };
        self.stats
            .sequencer_waits
            .fetch_add(shards as u64, Ordering::Relaxed);
        let cell = Lenient::new();
        let entry = Pending::Txn {
            waiting,
            direct,
            ops,
            shards,
            error: None,
            cell: cell.clone(),
        };
        let seq = self.register(entry, direct.as_slice());
        self.medium.send(Message::new(
            self.site,
            dest,
            seq,
            DbPayload::Sequenced {
                origin: self.site,
                client: self.client,
                txn: seq,
                subs: subs.into_iter().collect(),
            },
        ));
        cell
    }

    /// Registers `entry` under a fresh seq tag *before* its request is
    /// sent, so a racing reply finds the cell. A promotion may have swept
    /// the pending map between this request's routing and now, so each of
    /// `dests` that no longer serves is swept again.
    fn register(&self, entry: Pending, dests: &[SiteId]) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.pending.lock().insert(seq, entry);
        for &dest in dests.iter().filter(|&&d| !self.routes.serves(d)) {
            self.fail_pending_to(dest, "shard primary halted before a reply arrived");
        }
        seq
    }

    /// Registers a [`Pending::Single`] and sends the request.
    fn send_single(&self, dest: SiteId, query: &str) -> Lenient<Response> {
        let cell = Lenient::new();
        let entry = Pending::Single {
            dest,
            cell: cell.clone(),
        };
        let seq = self.register(entry, &[dest]);
        self.medium.send(Message::new(
            self.site,
            dest,
            seq,
            DbPayload::Request {
                client: self.client,
                query: query.to_string(),
            },
        ));
        cell
    }

    /// Registers a [`Pending::Gather`] and sends one request per site,
    /// all under the same seq tag (replies are told apart by sender).
    fn send_gather(&self, kind: GatherKind, dests: Vec<SiteId>, query: &str) -> Lenient<Response> {
        let cell = Lenient::new();
        let entry = Pending::Gather {
            kind,
            waiting: dests.iter().copied().collect(),
            partials: Vec::new(),
            cell: cell.clone(),
        };
        let seq = self.register(entry, &dests);
        for dest in dests {
            self.medium.send(Message::new(
                self.site,
                dest,
                seq,
                DbPayload::Request {
                    client: self.client,
                    query: query.to_string(),
                },
            ));
        }
        cell
    }

    /// The one-shard routing rule — the replicated cluster's: point reads
    /// round-robin over the read set; everything else — writes, creates,
    /// scans whose cost is in the engine anyway — goes to the primary.
    /// Unparsable text goes to the primary, whose reply carries the parse
    /// error.
    fn route_one_shard(&self, query: &str) -> SiteId {
        let replicas = self.routes.replicas_of(0);
        if !replicas.is_empty() {
            if let Ok(Query::Find { .. } | Query::FindRange { .. } | Query::Count { .. }) =
                parse(query)
            {
                self.stats
                    .single_shard_reads
                    .fetch_add(1, Ordering::Relaxed);
                let i = self.rr.fetch_add(1, Ordering::SeqCst) as usize % replicas.len();
                return replicas[i];
            }
        }
        self.stats
            .single_shard_writes
            .fetch_add(1, Ordering::Relaxed);
        self.routes.primary_of(0)
    }

    /// Fails every in-flight submission that the halt of `dest` leaves
    /// unanswerable — used at promotion, when the halted old primary will
    /// never reply. Broadcast transactions survive: the promoted primary
    /// replays and acks whatever the dead one left unapplied.
    ///
    /// Scope is exactly the dead site: single requests are doomed by
    /// their destination, gathers by still awaiting `dest`'s partial.
    /// Requests in flight to *other* sites — another shard's primary, a
    /// replica read — are untouched, however delayed they are (pinned by
    /// `tests/sharding.rs::promotion_fails_only_requests_bound_for_the_dead_primary`).
    pub(crate) fn fail_pending_to(&self, dest: SiteId, reason: &str) {
        let mut pending = self.pending.lock();
        let doomed: Vec<u64> = pending
            .iter()
            .filter(|(_, entry)| entry.doomed_by(dest))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in doomed {
            if let Some(entry) = pending.remove(&seq) {
                let _ = entry.cell().fill(Response::Error(reason.to_string()));
            }
        }
    }

    /// This client's site.
    pub fn site(&self) -> SiteId {
        self.site
    }
}

/// The state a client site folds its inbox into: the handle's in-flight
/// submissions and the cluster's counters.
struct ClientSite {
    pending: Arc<Mutex<HashMap<u64, Pending>>>,
    stats: Arc<ClusterStats>,
}

/// One step of a client site's fold: a reply or sequenced ack fills its
/// pending entry's cell; the end of the medium fails every cell still
/// pending.
fn receive(site: ClientSite, node: &Node<Message<DbPayload>>) -> Option<ClientSite> {
    let ClientSite { pending, stats } = &site;
    let Node::Cons(msg, _) = node else {
        // Medium closed: no reply is coming for anything still pending —
        // fail the cells rather than strand waiters.
        for (_, entry) in pending.lock().drain() {
            answer(
                entry.cell(),
                Response::Error("cluster shut down before a reply arrived".into()),
            );
        }
        return None;
    };
    match &msg.payload {
        DbPayload::Reply {
            in_reply_to,
            response,
            ..
        } => {
            let mut p = pending.lock();
            // Entries may be absent: a promotion can fail a cell whose
            // (raced) reply arrives afterwards.
            match p.get_mut(in_reply_to) {
                Some(Pending::Single { .. }) => {
                    let cell = p.remove(in_reply_to).expect("just matched").cell();
                    drop(p);
                    answer(cell, response.clone());
                }
                Some(Pending::Gather {
                    waiting, partials, ..
                }) => {
                    if waiting.remove(&msg.from) {
                        partials.push((msg.from, response.clone()));
                    }
                    if waiting.is_empty() {
                        if let Some(Pending::Gather {
                            kind,
                            partials,
                            cell,
                            ..
                        }) = p.remove(in_reply_to)
                        {
                            drop(p);
                            answer(cell, combine_gather(kind, partials));
                        }
                    }
                }
                _ => {}
            }
        }
        DbPayload::SequencedAck {
            in_reply_to,
            shard,
            response,
            ..
        } => {
            let mut p = pending.lock();
            if let Some(Pending::Txn { waiting, error, .. }) = p.get_mut(in_reply_to) {
                if waiting.remove(shard) {
                    stats.sequencer_acks.fetch_add(1, Ordering::Relaxed);
                    if error.is_none() {
                        if let Response::Error(e) = response {
                            *error = Some(e.clone());
                        }
                    }
                }
                if waiting.is_empty() {
                    if let Some(Pending::Txn {
                        ops,
                        shards,
                        error,
                        cell,
                        ..
                    }) = p.remove(in_reply_to)
                    {
                        drop(p);
                        let response = match error {
                            Some(e) => Response::Error(e),
                            None => Response::Applied { ops, shards },
                        };
                        answer(cell, response);
                    }
                }
            }
        }
        _ => {}
    }
    Some(site)
}

/// Fills a submitter's cell once the steps running on this thread have
/// parked, so the submitter it wakes does not find this client's fold
/// still held here.
fn answer(cell: Lenient<Response>, response: Response) {
    after_steps(move || {
        let _ = cell.fill(response);
    });
}
