//! The primary-site coordinator (Section 3.1).
//!
//! "At every instant of time, some site plays the role of the primary site,
//! through which all transactions must pass for coordination, regardless of
//! origin. This creates a bottleneck which is temporary, in the sense that
//! once a transaction passes through the site, finer grain actions
//! associated with it may be done concurrently."
//!
//! [`PrimarySite`] is that site: it reads its `choose` stream off the
//! medium (arrival order = the merge = the serialization order), feeds each
//! request through the pipelined functional engine — so the "finer grain
//! actions" of successive transactions do overlap — and mails each response
//! back to the site it came from, tagged with the originating client.
//!
//! The paper has one coordination model, so the crate has one serving
//! loop: `run_primary_loop` here is what [`PrimarySite`] runs over an
//! in-memory engine, what each shard of a
//! [`ShardedCluster`](crate::ShardedCluster) runs over a durable one, and
//! what a promoted replica continues in. It is generic over the two things
//! it needs from an engine — submit a transaction, export a catch-up
//! snapshot — and is the only place in the crate where a query text is
//! handed to an engine.

use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

use fundb_core::{ClientId, PipelinedEngine};
use fundb_durable::DurableEngine;
use fundb_lenient::{Lenient, Stream};
use fundb_query::{parse, translate, Response, Transaction};
use fundb_relational::Database;

use crate::medium::SharedMedium;
use crate::message::{DbPayload, Message, SiteId};

/// The two things the serving loop needs from an engine: admit a
/// transaction, and export the history a bootstrapping replica cannot read
/// off the medium.
pub(crate) trait PrimaryEngine: Send + 'static {
    /// Admits `tx`; the cell fills when the engine considers it committed.
    fn submit(&self, tx: Transaction) -> Lenient<Response>;

    /// `(newest checkpoint blob, encoded WAL tail)` — what this engine
    /// committed before the medium existed.
    fn catch_up(&self) -> (Option<Vec<u8>>, Vec<u8>);
}

impl PrimaryEngine for PipelinedEngine {
    fn submit(&self, tx: Transaction) -> Lenient<Response> {
        PipelinedEngine::submit(self, tx)
    }

    /// An in-memory engine starts with the medium: the stream is complete.
    fn catch_up(&self) -> (Option<Vec<u8>>, Vec<u8>) {
        (None, Vec::new())
    }
}

impl PrimaryEngine for Arc<DurableEngine> {
    fn submit(&self, tx: Transaction) -> Lenient<Response> {
        DurableEngine::submit(self, tx)
    }

    /// On export failure fall back to an empty snapshot: the replica then
    /// converges from the shipped stream alone, which is complete whenever
    /// this primary started fresh on this medium.
    fn catch_up(&self) -> (Option<Vec<u8>>, Vec<u8>) {
        self.replication_snapshot().unwrap_or((None, Vec::new()))
    }
}

/// Which shard a primary serves, and who gets copies of its sequenced
/// acks. An unsharded primary is shard 0 of a one-shard cluster — same
/// loop, same protocol.
#[derive(Debug)]
pub(crate) struct PrimaryRole {
    /// The shard this primary owns: it applies exactly the sub-batches
    /// tagged with this id in [`Sequenced`](DbPayload::Sequenced) traffic.
    pub shard: u32,
    /// Replica peers that receive [`SequencedAck`](DbPayload::SequencedAck)
    /// copies (so a later promotion knows what was already applied).
    pub ack_peers: Vec<SiteId>,
}

/// One sequenced transaction's local work, handed from a primary's pump
/// to its acker thread: the response cells of the sub-batch the shard
/// applied (in sub-batch order), plus the identity the fsync receipt must
/// carry back.
struct SequencedWork {
    /// Site the transaction originated at — where the receipt goes.
    origin: SiteId,
    /// The submitting client.
    client: ClientId,
    /// The origin's transaction tag, echoed as `in_reply_to`.
    txn: u64,
    /// One cell per write of this shard's sub-batch; each fills only when
    /// its write is durable (committed through the engine's WAL).
    cells: Vec<Lenient<Response>>,
}

/// Spawns a primary's acker: for each [`SequencedWork`], waits out every
/// cell (i.e. the whole sub-batch's fsync), then mails a
/// [`SequencedAck`](DbPayload::SequencedAck) to the transaction's origin
/// and a copy to each replica peer of this shard.
///
/// The peer copies are what make failover exact: the engine's commit
/// fan-out puts a sub-batch's `Replicate` on the medium *before* its
/// cells fill, so in merge order every copy follows the shipped writes it
/// acknowledges — a replica that processes the copy has the corresponding
/// data already queued, and can strike the transaction off its
/// might-need-replay buffer.
///
/// Every ack is also idempotent at its receiver — the client removes the
/// pending entry, the replica's strike is a no-op the second time — so a
/// duplicating or reordering link (the chaos harness's stock faults,
/// DESIGN.md §15) cannot double-apply a sequenced transaction.
fn spawn_acker(
    medium: SharedMedium<DbPayload>,
    site: SiteId,
    role: PrimaryRole,
) -> (crossbeam::channel::Sender<SequencedWork>, JoinHandle<()>) {
    let (tx, rx) = crossbeam::channel::unbounded::<SequencedWork>();
    let handle = std::thread::spawn(move || {
        // Own seq range, far from the responder's, for trace readability.
        let mut seq = u64::MAX / 4;
        for work in rx {
            let mut ops = 0usize;
            let mut err: Option<Response> = None;
            for cell in &work.cells {
                let r = cell.wait_cloned();
                if r.is_error() {
                    if err.is_none() {
                        err = Some(r);
                    }
                } else {
                    ops += 1;
                }
            }
            let response = err.unwrap_or(Response::Applied { ops, shards: 1 });
            for dest in std::iter::once(work.origin).chain(role.ack_peers.iter().copied()) {
                medium.send(Message::new(
                    site,
                    dest,
                    seq,
                    DbPayload::SequencedAck {
                        origin: work.origin,
                        client: work.client,
                        in_reply_to: work.txn,
                        shard: role.shard,
                        response: response.clone(),
                    },
                ));
                seq += 1;
            }
        }
    });
    (tx, handle)
}

/// The one place a query text becomes a transaction in an engine: parse,
/// translate, submit — or a ready error cell when it does not parse.
fn submit_text(engine: &impl PrimaryEngine, text: &str) -> Lenient<Response> {
    match parse(text) {
        Ok(q) => engine.submit(translate(q)),
        Err(e) => Lenient::ready(Response::Error(e.to_string())),
    }
}

/// The serving loop of a primary: requests through the engine, sequenced
/// sub-batches for its shard, catch-up snapshots for bootstrapping
/// replicas. Runs until `Halt` or end-of-medium; returns the number of
/// requests served.
///
/// Every primary runs this — [`PrimarySite`] over a [`PipelinedEngine`],
/// a shard's initial primary and a promoted replica over a
/// [`DurableEngine`]. A promoted replica enters with its inbox already
/// advanced past the `Promote`, and hands in as `backlog` the sequenced
/// transactions the dead primary never applied (buffered broadcasts with
/// no observed ack); they are applied and acked before any newly-routed
/// traffic.
pub(crate) fn run_primary_loop<E: PrimaryEngine>(
    inbox: Stream<Message<DbPayload>>,
    medium: SharedMedium<DbPayload>,
    site: SiteId,
    engine: E,
    role: PrimaryRole,
    backlog: Vec<Message<DbPayload>>,
) -> u64 {
    let outbound = medium.clone();
    // (reply destination, client, request seq, response cell) — one entry
    // per admitted request, in admission order.
    let (resp_tx, resp_rx) =
        crossbeam::channel::unbounded::<(SiteId, ClientId, u64, Lenient<Response>)>();
    // Replies go out in admission order, each waiting on its lenient cell —
    // independent of whether more requests are arriving, so replies stream
    // out as they complete. Under a durable engine a cell fills only after
    // the transaction's batch is on disk (and, via the fan-out, already
    // shipped to every replica).
    let responder = std::thread::spawn(move || {
        for (seq, (dest, client, request_seq, cell)) in resp_rx.into_iter().enumerate() {
            outbound.send(Message::new(
                site,
                dest,
                seq as u64,
                DbPayload::Reply {
                    client,
                    in_reply_to: request_seq,
                    response: cell.wait_cloned(),
                },
            ));
        }
    });
    let shard = role.shard;
    let (ack_tx, acker) = spawn_acker(medium.clone(), site, role);
    let mut served = 0u64;
    // Control replies (snapshots) are sent from this thread, on a seq
    // range far from the responder's, purely to keep traces readable.
    let mut ctl_seq = u64::MAX / 2;
    for msg in backlog.into_iter().chain(inbox.iter()) {
        let (from, seq) = (msg.from, msg.seq);
        match msg.payload {
            DbPayload::Request { client, query } => {
                let cell = submit_text(&engine, &query);
                if resp_tx.send((from, client, seq, cell)).is_err() {
                    break; // responder gone; shutting down
                }
                served += 1;
            }
            DbPayload::Sequenced {
                origin,
                client,
                txn,
                subs,
            } => {
                // Apply our sub-batch — if we are a participant — right
                // here, at this message's position in the inbox: the
                // medium's merge order is the sequence, so these writes
                // land exactly between the direct traffic that precedes
                // and follows the broadcast.
                if let Some((_, queries)) = subs.iter().find(|(s, _)| *s == shard) {
                    let cells = queries.iter().map(|q| submit_text(&engine, q)).collect();
                    let work = SequencedWork {
                        origin,
                        client,
                        txn,
                        cells,
                    };
                    if ack_tx.send(work).is_err() {
                        break; // acker gone; shutting down
                    }
                    served += 1;
                }
            }
            DbPayload::CatchUp => {
                let (checkpoint, tail) = engine.catch_up();
                medium.send(Message::new(
                    site,
                    from,
                    ctl_seq,
                    DbPayload::Snapshot { checkpoint, tail },
                ));
                ctl_seq += 1;
            }
            // A simulated crash: stop serving; the medium stays open so
            // the survivors can take over.
            DbPayload::Halt => break,
            _ => {}
        }
    }
    drop(resp_tx);
    drop(ack_tx);
    let _ = responder.join();
    let _ = acker.join();
    served
}

/// A running primary site.
pub struct PrimarySite {
    site: SiteId,
    pump: Option<JoinHandle<u64>>,
}

impl fmt::Debug for PrimarySite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrimarySite[{}]", self.site)
    }
}

impl PrimarySite {
    /// Starts a primary site at `site` over `medium`, serving `initial`
    /// with a `workers`-thread engine.
    ///
    /// The site holds its own medium handle, so it runs until the medium is
    /// explicitly [`close`](SharedMedium::close)d; then
    /// [`join`](Self::join) returns the number of transactions served.
    pub fn start(
        medium: &SharedMedium<DbPayload>,
        site: SiteId,
        initial: &Database,
        workers: usize,
    ) -> Self {
        let inbox = medium.choose(site);
        let medium = medium.clone();
        let engine = PipelinedEngine::new(workers, initial);
        // An unsharded primary is shard 0 of a one-shard cluster with no
        // replica peers; sequenced transactions still work (every sub goes
        // to shard 0), so `submit_txn` is exercisable without durability.
        let role = PrimaryRole {
            shard: 0,
            ack_peers: Vec::new(),
        };
        let pump = std::thread::spawn(move || {
            run_primary_loop(inbox, medium, site, engine, role, Vec::new())
        });
        PrimarySite {
            site,
            pump: Some(pump),
        }
    }

    /// This coordinator's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Waits for the site to shut down (call
    /// [`SharedMedium::close`] first); returns transactions served.
    pub fn join(mut self) -> u64 {
        self.pump
            .take()
            .expect("join consumes the only pump handle")
            .join()
            .expect("primary site panicked")
    }
}

impl Drop for PrimarySite {
    fn drop(&mut self) {
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fundb_core::ClientId;
    use fundb_relational::Repr;

    fn base() -> Database {
        Database::empty()
            .create_relation("R", Repr::List)
            .unwrap()
            .create_relation("S", Repr::List)
            .unwrap()
    }

    #[test]
    fn serves_requests_and_routes_replies() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let primary = PrimarySite::start(&medium, SiteId(0), &base(), 2);

        let client_site = SiteId(1);
        let inbox = medium.choose(client_site);
        for (i, q) in ["insert 5 into R", "find 5 in R"].iter().enumerate() {
            medium.send(Message::new(
                client_site,
                SiteId(0),
                i as u64,
                DbPayload::Request {
                    client: ClientId(0),
                    query: (*q).to_string(),
                },
            ));
        }
        let replies = inbox.take(2).collect_vec();
        assert_eq!(replies.len(), 2);
        match &replies[1].payload {
            DbPayload::Reply { response, .. } => {
                assert_eq!(response.tuples().unwrap().len(), 1);
            }
            other => panic!("expected reply, got {other:?}"),
        }
        medium.close();
        assert_eq!(primary.join(), 2);
    }

    #[test]
    fn malformed_queries_get_error_replies() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let _primary = PrimarySite::start(&medium, SiteId(0), &base(), 1);
        let inbox = medium.choose(SiteId(7));
        medium.send(Message::new(
            SiteId(7),
            SiteId(0),
            0,
            DbPayload::Request {
                client: ClientId(3),
                query: "frobnicate everything".into(),
            },
        ));
        let reply = inbox.first().unwrap();
        match reply.payload {
            DbPayload::Reply {
                client, response, ..
            } => {
                assert_eq!(client, ClientId(3));
                assert!(response.is_error());
            }
            other => panic!("expected reply, got {other:?}"),
        }
        medium.close();
    }

    #[test]
    fn requests_from_many_sites_serialize() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let primary = PrimarySite::start(&medium, SiteId(0), &base(), 4);
        // Three "terminals" all insert into R concurrently.
        let senders: Vec<_> = (1..=3u32)
            .map(|s| {
                let m = medium.clone();
                std::thread::spawn(move || {
                    for i in 0..20 {
                        m.send(Message::new(
                            SiteId(s),
                            SiteId(0),
                            i,
                            DbPayload::Request {
                                client: ClientId(s),
                                query: format!("insert {} into R", s * 1000 + i as u32),
                            },
                        ));
                    }
                })
            })
            .collect();
        for h in senders {
            h.join().unwrap();
        }
        // One more request to observe the final count.
        let inbox = medium.choose(SiteId(9));
        medium.send(Message::new(
            SiteId(9),
            SiteId(0),
            0,
            DbPayload::Request {
                client: ClientId(9),
                query: "count R".into(),
            },
        ));
        let reply = inbox.first().unwrap();
        match reply.payload {
            DbPayload::Reply { response, .. } => {
                assert_eq!(response, Response::Count(60));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        medium.close();
        assert_eq!(primary.join(), 61);
    }
}
