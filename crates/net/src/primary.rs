//! The primary-site coordinator (Section 3.1).
//!
//! "At every instant of time, some site plays the role of the primary site,
//! through which all transactions must pass for coordination, regardless of
//! origin. This creates a bottleneck which is temporary, in the sense that
//! once a transaction passes through the site, finer grain actions
//! associated with it may be done concurrently."
//!
//! `Primary` is that site: it reads its `choose` stream off the medium
//! (arrival order = the merge = the serialization order), feeds each
//! request through the pipelined functional engine — so the "finer grain
//! actions" of successive transactions do overlap — and mails each response
//! back to the site it came from, tagged with the originating client.
//!
//! The paper has one coordination model, so the crate has one primary, a
//! function of its inbox, and one loop that feeds it: `run_primary_loop`
//! is what each shard of a [`ShardedCluster`](crate::ShardedCluster) runs
//! over its durable engine, and what a promoted replica continues in. It
//! is generic over the two things it needs from an engine — submit a
//! transaction, export a catch-up snapshot. Requests arrive parsed (the
//! client parses each statement once), so the primary's serial point
//! only translates each query and hands the transaction to the engine.

use std::sync::Arc;

use fundb_durable::DurableEngine;
use fundb_lenient::{Lenient, Stream};
use fundb_query::{translate, Response, Transaction};

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

/// Where a primary's replies and receipts leave from. Each registered
/// answer holds an `Arc` of it until sent; when the last `Arc` drops — the
/// primary's own at shutdown, then each answer's — `all_sent` fills.
struct Outbox {
    medium: SharedMedium<DbPayload>,
    site: SiteId,
    all_sent: Lenient<()>,
}

impl Drop for Outbox {
    fn drop(&mut self) {
        self.all_sent.fill(()).ok();
    }
}

/// Calls `then` with a sub-batch's receipt — its first error, else its
/// last statement's response, folded into `receipt` — on the thread that
/// fills the last of `cells` (inline if all are filled). A gather's
/// partial is thus its one statement's answer.
fn when_applied(
    mut cells: std::vec::IntoIter<Lenient<Response>>,
    receipt: Response,
    then: impl FnOnce(Response) + Send + 'static,
) {
    match cells.next() {
        None => then(receipt),
        Some(cell) => cell.on_fill(move |r| {
            let receipt = if receipt.is_error() {
                receipt
            } else {
                r.clone()
            };
            when_applied(cells, receipt, then);
        }),
    }
}

/// A primary as a function of its inbox: [`step`](Self::step) admits one
/// message's work into the engine and registers its answer on the work's
/// response cells, so each answer leaves on the thread that fills its
/// cell, not behind earlier admissions — the replies are a merge of the
/// cells. Every answer's `seq` is fixed at admission, so a fault plan's
/// fate for it does not depend on which cell fills first.
pub(crate) struct Primary<E> {
    out: Arc<Outbox>,
    engine: E,
    /// The shard this primary owns: it applies exactly the sub-batches
    /// tagged with this id in [`Sequenced`](DbPayload::Sequenced) traffic.
    /// An unsharded primary is shard 0 of a one-shard cluster.
    shard: u32,
    /// Replica peers that receive [`SequencedAck`](DbPayload::SequencedAck)
    /// copies (so a later promotion knows what was already applied).
    ack_peers: Vec<SiteId>,
    /// Next seqs: replies, acks and control replies each on their own
    /// range, for trace readability.
    reply_seq: u64,
    ack_seq: u64,
    ctl_seq: u64,
    served: u64,
}

impl<E: PrimaryEngine> Primary<E> {
    pub(crate) fn new(
        medium: SharedMedium<DbPayload>,
        site: SiteId,
        engine: E,
        shard: u32,
        ack_peers: Vec<SiteId>,
    ) -> Self {
        Primary {
            out: Arc::new(Outbox {
                medium,
                site,
                all_sent: Lenient::new(),
            }),
            engine,
            shard,
            ack_peers,
            reply_seq: 0,
            ack_seq: u64::MAX / 4,
            ctl_seq: u64::MAX / 2,
            served: 0,
        }
    }

    /// Handles one inbox message; `false` at `Halt`, a simulated crash
    /// (the medium stays open so the survivors can take over).
    pub(crate) fn step(&mut self, msg: Message<DbPayload>) -> bool {
        let (from, seq) = (msg.from, msg.seq);
        match msg.payload {
            DbPayload::Request { client, query } => {
                let cell = self.engine.submit(translate(query));
                let (out, reply_seq) = (Arc::clone(&self.out), self.reply_seq);
                self.reply_seq += 1;
                cell.on_fill(move |r| {
                    let reply = DbPayload::Reply {
                        client,
                        in_reply_to: seq,
                        response: r.clone(),
                    };
                    out.medium
                        .send(Message::new(out.site, from, reply_seq, reply));
                });
                self.served += 1;
            }
            DbPayload::Sequenced {
                origin,
                client,
                txn,
                subs,
            } => {
                // Apply our sub-batch — if we are a participant — right
                // here, at this message's position in the inbox: the
                // medium's merge order is the sequence, so its statements
                // — a transaction's writes, a gather's read, DDL — land
                // exactly between the direct traffic that precedes and
                // follows the broadcast.
                let shard = self.shard;
                let Some((_, queries)) = subs.into_iter().find(|(s, _)| *s == shard) else {
                    return true;
                };
                let cells: Vec<_> = queries
                    .into_iter()
                    .map(|q| self.engine.submit(translate(q)))
                    .collect();
                // The receipt goes to the origin, a copy to each replica
                // peer: the commit ships a sub-batch's `Replicate` before
                // its cells fill, so every copy follows the writes it
                // acknowledges. Receipts are idempotent at every receiver,
                // so a duplicating link (DESIGN.md §15) cannot double-apply.
                let dests: Vec<SiteId> = std::iter::once(origin)
                    .chain(self.ack_peers.iter().copied())
                    .collect();
                let (out, first_seq) = (Arc::clone(&self.out), self.ack_seq);
                self.ack_seq += dests.len() as u64;
                // An empty sub-batch, which no client sends, applied nothing.
                let nothing = Response::Applied { ops: 0, shards: 1 };
                when_applied(cells.into_iter(), nothing, move |response| {
                    for (dest, seq) in dests.into_iter().zip(first_seq..) {
                        let ack = DbPayload::SequencedAck {
                            origin,
                            client,
                            in_reply_to: txn,
                            shard,
                            response: response.clone(),
                        };
                        out.medium.send(Message::new(out.site, dest, seq, ack));
                    }
                });
                self.served += 1;
            }
            DbPayload::CatchUp => {
                let (checkpoint, tail) = self.engine.catch_up();
                let snapshot = DbPayload::Snapshot { checkpoint, tail };
                let reply = Message::new(self.out.site, from, self.ctl_seq, snapshot);
                self.out.medium.send(reply);
                self.ctl_seq += 1;
            }
            DbPayload::Halt => return false,
            _ => {}
        }
        true
    }

    /// Waits until every answer admitted so far is on the medium, then
    /// drops the engine and returns the number of requests served — what
    /// lets [`ShardedCluster::kill_primary`](crate::ShardedCluster::kill_primary)
    /// promise every admitted transaction committed, shipped and answered.
    pub(crate) fn finish(self) -> u64 {
        let all_sent = self.out.all_sent.clone();
        drop(self.out);
        all_sent.wait();
        self.served
    }
}

/// The serving loop of a primary: steps a [`Primary`] through `backlog`,
/// then its inbox, until `Halt` or end-of-medium, and waits out its last
/// sends; returns the number of requests served.
///
/// Every primary runs this over a [`DurableEngine`] — a shard's initial
/// primary and a promoted replica alike. A promoted replica enters with
/// its inbox already advanced past the `Promote`, and hands in as
/// `backlog` the sequenced transactions the dead primary never applied
/// (buffered broadcasts with no observed ack); they are applied and acked
/// before any newly-routed traffic.
pub(crate) fn run_primary_loop<E: PrimaryEngine>(
    inbox: Stream<Message<DbPayload>>,
    medium: SharedMedium<DbPayload>,
    site: SiteId,
    engine: E,
    shard: u32,
    ack_peers: Vec<SiteId>,
    backlog: Vec<Message<DbPayload>>,
) -> u64 {
    let mut primary = Primary::new(medium, site, engine, shard, ack_peers);
    for msg in backlog.into_iter().chain(inbox.iter()) {
        if !primary.step(msg) {
            break;
        }
    }
    primary.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{self, Receiver, Sender};
    use fundb_core::ClientId;
    use fundb_durable::ScratchDir;
    use fundb_lenient::stream::Node;
    use fundb_query::parse;

    /// An engine whose response cells the test fills by hand, in any
    /// order: every submission hands its (unfilled) cell to the test.
    struct Manual(Sender<Lenient<Response>>);

    impl PrimaryEngine for Manual {
        fn submit(&self, _tx: Transaction) -> Lenient<Response> {
            let cell = Lenient::new();
            self.0.send(cell.clone()).expect("test holds the receiver");
            cell
        }

        fn catch_up(&self) -> (Option<Vec<u8>>, Vec<u8>) {
            (None, Vec::new())
        }
    }

    fn manual() -> (Manual, Receiver<Lenient<Response>>) {
        let (tx, rx) = channel::unbounded();
        (Manual(tx), rx)
    }

    fn request(from: u32, seq: u64, query: &str) -> Message<DbPayload> {
        let query = parse(query).expect("test queries parse");
        let payload = DbPayload::Request {
            client: ClientId(from),
            query,
        };
        Message::new(SiteId(from), SiteId(0), seq, payload)
    }

    /// Every message delivered so far, without waiting for more.
    fn delivered(medium: &SharedMedium<DbPayload>) -> Vec<Message<DbPayload>> {
        let mut out = Vec::new();
        let stream = medium.broadcast_stream();
        let mut at = &stream;
        while let Some(Node::Cons(m, rest)) = at.try_node() {
            out.push(m.clone());
            at = rest;
        }
        out
    }

    #[test]
    fn a_ready_reply_does_not_wait_behind_an_earlier_unfilled_cell() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let (engine, cells) = manual();
        let mut primary = Primary::new(medium.clone(), SiteId(0), engine, 0, Vec::new());
        let inbox = medium.choose(SiteId(1));
        assert!(primary.step(request(1, 0, "insert 1 into R")));
        assert!(primary.step(request(1, 1, "find 1 in R")));
        let (slow, fast) = (cells.recv().unwrap(), cells.recv().unwrap());
        fast.fill(Response::Count(1)).unwrap();
        // The fill sent the reply: it is in the inbox already, while the
        // earlier request's cell is still unfilled.
        match inbox.try_node() {
            Some(Node::Cons(m, _)) => match &m.payload {
                DbPayload::Reply { in_reply_to, .. } => assert_eq!(*in_reply_to, 1),
                other => panic!("expected a reply, got {other:?}"),
            },
            _ => panic!("the ready reply waited behind the unfilled cell"),
        }
        slow.fill(Response::Count(0)).unwrap();
        assert_eq!(primary.finish(), 2);
    }

    #[test]
    fn halt_returns_only_after_every_admitted_reply_and_receipt_is_sent() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let (engine, cells) = manual();
        let inbox = medium.choose(SiteId(0));
        let driver = {
            let medium = medium.clone();
            std::thread::spawn(move || {
                run_primary_loop(
                    inbox,
                    medium,
                    SiteId(0),
                    engine,
                    0,
                    vec![SiteId(2)],
                    Vec::new(),
                )
            })
        };
        medium.send(request(1, 0, "insert 1 into R"));
        let writes = ["insert 2 into R", "insert 3 into R"].map(|q| parse(q).unwrap());
        let subs = vec![(0, writes.to_vec())];
        let sequenced = DbPayload::Sequenced {
            origin: SiteId(3),
            client: ClientId(3),
            txn: 7,
            subs,
        };
        medium.send(Message::new(SiteId(3), SiteId::BROADCAST, 0, sequenced));
        medium.send(Message::new(SiteId(9), SiteId(0), 0, DbPayload::Halt));
        let admitted: Vec<_> = (0..3).map(|_| cells.recv().unwrap()).collect();
        // Fill late, in reverse admission order.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!driver.is_finished(), "returned with sends outstanding");
        for (i, cell) in admitted.iter().enumerate().rev() {
            cell.fill(Response::Count(i)).unwrap();
        }
        assert_eq!(driver.join().unwrap(), 2);
        let sent: Vec<_> = delivered(&medium)
            .into_iter()
            .filter(|m| m.from == SiteId(0))
            .collect();
        assert!(sent
            .iter()
            .any(|m| m.to == SiteId(1)
                && matches!(m.payload, DbPayload::Reply { in_reply_to: 0, .. })));
        for dest in [SiteId(3), SiteId(2)] {
            assert!(
                sent.iter().any(|m| m.to == dest
                    && matches!(
                        &m.payload,
                        DbPayload::SequencedAck {
                            in_reply_to: 7,
                            // The sub-batch's last statement's answer.
                            response: Response::Count(2),
                            ..
                        }
                    )),
                "no receipt for {dest}: {sent:?}"
            );
        }
    }

    /// A durable engine over `dir` holding an empty relation `R`, serving
    /// at site 0 of `medium` on a thread of its own; the thread returns the
    /// number of requests served once the medium closes.
    fn serve(
        medium: &SharedMedium<DbPayload>,
        dir: &ScratchDir,
        workers: usize,
    ) -> std::thread::JoinHandle<u64> {
        let (engine, _) = DurableEngine::open(dir.path(), workers).unwrap();
        let created = engine.submit(translate(parse("create relation R as list").unwrap()));
        assert!(!created.wait().is_error());
        let inbox = medium.choose(SiteId(0));
        let medium = medium.clone();
        let engine = Arc::new(engine);
        std::thread::spawn(move || {
            run_primary_loop(inbox, medium, SiteId(0), engine, 0, Vec::new(), Vec::new())
        })
    }

    #[test]
    fn serves_requests_and_routes_replies() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let tmp = ScratchDir::new("primary-serves");
        let primary = serve(&medium, &tmp, 2);

        let client_site = SiteId(1);
        let inbox = medium.choose(client_site);
        for (i, q) in ["insert 5 into R", "find 5 in R"].iter().enumerate() {
            medium.send(request(client_site.0, i as u64, q));
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
        assert_eq!(primary.join().unwrap(), 2);
    }

    #[test]
    fn error_replies_echo_the_requests_client() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let tmp = ScratchDir::new("primary-error-reply");
        let primary = serve(&medium, &tmp, 1);
        let inbox = medium.choose(SiteId(7));
        // The client id differs from the sending site: the reply must echo
        // the request's client, not derive one from the sender.
        let payload = DbPayload::Request {
            client: ClientId(3),
            query: parse("insert 1 into Missing").unwrap(),
        };
        medium.send(Message::new(SiteId(7), SiteId(0), 0, payload));
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
        assert_eq!(primary.join().unwrap(), 1);
    }

    #[test]
    fn requests_from_many_sites_serialize() {
        let medium: SharedMedium<DbPayload> = SharedMedium::new();
        let tmp = ScratchDir::new("primary-many-sites");
        let primary = serve(&medium, &tmp, 4);
        // Three "terminals" all insert into R concurrently.
        let senders: Vec<_> = (1..=3u32)
            .map(|s| {
                let m = medium.clone();
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let query = format!("insert {} into R", s * 1000 + i as u32);
                        m.send(request(s, i, &query));
                    }
                })
            })
            .collect();
        for h in senders {
            h.join().unwrap();
        }
        // One more request to observe the final count.
        let inbox = medium.choose(SiteId(9));
        medium.send(request(9, 0, "count R"));
        let reply = inbox.first().unwrap();
        match reply.payload {
            DbPayload::Reply { response, .. } => {
                assert_eq!(response, Response::Count(60));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        medium.close();
        assert_eq!(primary.join().unwrap(), 61);
    }
}
