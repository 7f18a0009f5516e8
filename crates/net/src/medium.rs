//! The shared broadcast medium: one large merge pseudo-function.
//!
//! Every send from any site is interleaved, in arrival order, onto a single
//! persistent message stream (the "Ethernet model" of Section 3.1). The
//! stream is an ordinary lenient stream, so any number of sites can read it
//! concurrently, each at its own pace; a site's inbox is the `choose`
//! filter over it.
//!
//! The merge is a lock: [`SharedMedium::send`] runs in the sender's own
//! thread and places the message under the medium's one exchange lock, so
//! the order in which senders take that lock *is* the merge order, and a
//! message is in every inbox it is addressed to before `send` returns.
//!
//! `choose` *means* `filter(|m| m.to == site || m.to == BROADCAST)` over
//! the merge, but delivery computes that filter incrementally: each site
//! gets its own persistent inbox stream and `send` appends every message
//! to exactly the inboxes whose filter admits it, in merge order. The
//! observable streams are identical to the lazy formulation; the difference
//! is mechanical — delivering a message touches only the sites it is
//! addressed to, not every reader of the shared stream: it wakes a site
//! that waits on its inbox (a primary's driver thread), and runs the next
//! step of a site whose inbox is driven as a fold
//! ([`Stream::drive`](fundb_lenient::Stream::drive): replicas and client
//! sites), on the sender's thread. A subscriber that
//! arrives late is seeded from the broadcast stream's filled prefix first,
//! so an inbox always covers the full history from the medium's first
//! message.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use fundb_lenient::stream::{Node, Reserved};
use fundb_lenient::{Stream, StreamWriter};
use parking_lot::Mutex;

use crate::chaos::{ChaosSnapshot, FaultPlan, Injector};
use crate::message::{Message, SiteId};

/// One site's inbox: the writer delivery feeds, and the persistent
/// stream `choose` hands out (cloned — any number of readers share one).
type Inbox<P> = (StreamWriter<Message<P>>, Stream<Message<P>>);

/// An inbox position taken under the lock, and the message to put there.
type Delivery<P> = (Reserved<Message<P>>, Message<P>);

/// The medium, behind its one lock. Every message is placed under it, so
/// the broadcast stream's filled prefix is exactly the history delivered
/// so far — the seed of a late subscriber.
struct Exchange<P> {
    /// Feeds `broadcast`: the merge itself.
    writer: StreamWriter<Message<P>>,
    broadcast: Stream<Message<P>>,
    /// Messages delivered onto the merge so far.
    sent: u64,
    /// The fault plan's state; `None` without a plan.
    injector: Option<Injector<P>>,
    /// One inbox per subscribed site, fed in merge order.
    subs: HashMap<SiteId, Inbox<P>>,
    /// Set by `close`: later sends are lost, later inboxes end after their
    /// seed.
    closed: bool,
    /// `close` for this `P`, run when the last handle drops: a `Drop` impl
    /// cannot ask for the `P: Clone` that delivery needs.
    close_fn: fn(&mut Exchange<P>) -> Closing<P>,
}

/// Does `site`'s choose filter admit a message addressed `to`?
fn admits(site: SiteId, to: SiteId) -> bool {
    to == site || to == SiteId::BROADCAST
}

impl<P: Clone> Exchange<P> {
    /// Puts `msgs` on the merge, in order: count each, push it on the
    /// broadcast stream, and take its position in every inbox that admits
    /// it. The caller [`fill`]s those positions once the lock is released,
    /// so no reader is woken under it; the broadcast push comes first, so
    /// no inbox ever holds a message the broadcast stream lacks.
    fn deliver(&mut self, msgs: Vec<Message<P>>) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        for msg in msgs {
            self.sent += 1;
            self.writer.push(msg.clone());
            if msg.to == SiteId::BROADCAST {
                for (w, _) in self.subs.values_mut() {
                    out.push((w.reserve(), msg.clone()));
                }
            } else if let Some((w, _)) = self.subs.get_mut(&msg.to) {
                out.push((w.reserve(), msg));
            }
        }
        out
    }

    /// Puts what the injector holds on the merge and takes every stream's
    /// open end, for [`finish`] to deliver and end once the lock
    /// is released: an inbox fill may run a driven site's step, which
    /// sends. Idempotent: a second close finds nothing to finish.
    fn close(&mut self) -> Closing<P> {
        if self.closed {
            return (Vec::new(), Vec::new());
        }
        self.closed = true;
        let held = self.injector.as_mut().map(Injector::drain);
        let out = self.deliver(held.unwrap_or_default());
        let mut ends: Vec<_> = self.subs.values_mut().map(|(w, _)| w.detach()).collect();
        ends.push(self.writer.detach());
        (out, ends)
    }

    /// One step of the medium: `msg` (or, without one, a tick) through the
    /// fault plan and onto the merge under the lock, then the wake-ups.
    fn step(exchange: &Mutex<Self>, msg: Option<Message<P>>) {
        let mut ex = exchange.lock();
        if ex.closed {
            return;
        }
        let due = match (ex.injector.as_mut(), msg) {
            (Some(inj), Some(msg)) => inj.admit(msg),
            (Some(inj), None) => inj.tick(),
            (None, msg) => msg.into_iter().collect(),
        };
        let out = ex.deliver(due);
        drop(ex);
        fill(out);
    }
}

/// Puts each message at the inbox position taken for it, waking readers.
fn fill<P>(out: Vec<Delivery<P>>) {
    for (at, msg) in out {
        at.fill(msg);
    }
}

/// What `close` leaves for after the lock: the held messages' deliveries,
/// then the open ends of every inbox and of the broadcast stream.
type Closing<P> = (Vec<Delivery<P>>, Vec<StreamWriter<Message<P>>>);

/// Delivers the held messages, then ends the streams (dropping a writer
/// ends its stream).
fn finish<P>((out, ends): Closing<P>) {
    fill(out);
    drop(ends);
}

impl<P> Drop for Exchange<P> {
    fn drop(&mut self) {
        finish((self.close_fn)(self));
    }
}

/// The broadcast medium. Cloning yields another handle to the same medium.
///
/// The medium stays open until [`close`](Self::close) is called or the last
/// handle is dropped; either ends the broadcast stream, so readers see
/// end-of-stream rather than blocking forever. Components like the primary
/// site hold their own handles, so clusters shut down with an explicit
/// `close()`.
///
/// # Example
///
/// ```
/// use fundb_net::{Message, SharedMedium, SiteId};
///
/// let medium: SharedMedium<&str> = SharedMedium::new();
/// medium.send(Message::new(SiteId(0), SiteId(1), 0, "hello"));
/// let inbox = medium.choose(SiteId(1));
/// assert_eq!(inbox.first().unwrap().payload, "hello");
/// # drop(medium);
/// ```
pub struct SharedMedium<P> {
    exchange: Arc<Mutex<Exchange<P>>>,
}

impl<P> Clone for SharedMedium<P> {
    fn clone(&self) -> Self {
        SharedMedium {
            exchange: Arc::clone(&self.exchange),
        }
    }
}

impl<P> fmt::Debug for SharedMedium<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedMedium[{} messages]", self.exchange.lock().sent)
    }
}

impl<P: Clone + Send + Sync + 'static> SharedMedium<P> {
    /// Creates a medium.
    pub fn new() -> Self {
        Self::with_faults(FaultPlan::none())
    }

    /// Creates a medium that runs every sent message through `plan`
    /// before inbox delivery. A faulted message never reaches the merge
    /// (drop), reaches it twice (duplicate), or reaches it at a later step
    /// than it was sent (delay, reorder, partition) — so late subscribers
    /// seeded from the merge see exactly the post-fault history, gapless
    /// and in delivered order. An empty plan adds no overhead. Held
    /// messages still in flight when the medium closes are delivered, in
    /// order, before end-of-stream ("links heal at shutdown").
    pub fn with_faults(plan: FaultPlan) -> Self {
        let (writer, broadcast) = Stream::channel();
        SharedMedium {
            exchange: Arc::new(Mutex::new(Exchange {
                writer,
                broadcast,
                sent: 0,
                injector: (!plan.is_empty()).then(|| Injector::new(plan)),
                subs: HashMap::new(),
                closed: false,
                close_fn: Exchange::close,
            })),
        }
    }

    /// Point-in-time fault counters (all zero without a fault plan).
    pub fn chaos_stats(&self) -> ChaosSnapshot {
        let ex = self.exchange.lock();
        let stats = ex.injector.as_ref().map(|inj| inj.stats.snapshot());
        stats.unwrap_or_default()
    }

    /// Whether this medium runs a fault plan.
    pub(crate) fn has_faults(&self) -> bool {
        self.exchange.lock().injector.is_some()
    }

    /// Advances the fault plan's logical clock by one step without sending
    /// a message, and delivers any held message that comes due before
    /// returning. A quiesced system — every client blocked on a reply a
    /// fault is holding — sends nothing, so the clock would never advance;
    /// a waiting driver calls `tick` to make logical time pass instead.
    /// No-op without a fault plan.
    pub fn tick(&self) {
        Exchange::step(&self.exchange, None);
    }

    /// Puts a message on the medium and delivers it to its inboxes before
    /// returning (under a fault plan: whatever the plan lets through at
    /// this step). Arrival order on the broadcast stream is the merge
    /// order: the order in which senders take the medium's lock. Messages
    /// sent after [`close`](Self::close) are silently lost, as on a
    /// powered-down segment, and are *not* counted by
    /// [`message_count`](Self::message_count).
    pub fn send(&self, message: Message<P>) {
        Exchange::step(&self.exchange, Some(message));
    }

    /// Shuts the medium down: held messages are delivered, then the
    /// broadcast stream and every inbox end — after the exchange lock is
    /// released, since a delivery may run a driven site's step, and a
    /// step sends. Idempotent.
    pub fn close(&self) {
        let closing = self.exchange.lock().close();
        finish(closing);
    }

    /// The entire broadcast stream, from the first message ever sent.
    /// Multiple readers may consume it independently.
    pub fn broadcast_stream(&self) -> Stream<Message<P>> {
        self.exchange.lock().broadcast.clone()
    }

    /// The paper's `choose`: the sub-stream of messages destined for
    /// `site` — plus anything addressed to [`SiteId::BROADCAST`], which
    /// every inbox admits. The stream always starts at the medium's first
    /// message: the first `choose` for a site seeds its inbox from the
    /// broadcast stream up to its filled end, later ones share the same
    /// persistent stream.
    pub fn choose(&self, site: SiteId) -> Stream<Message<P>> {
        let mut ex = self.exchange.lock();
        if let Some((_, stream)) = ex.subs.get(&site) {
            return stream.clone();
        }
        let (mut w, stream) = Stream::channel();
        let mut delivered = &ex.broadcast;
        while let Some(Node::Cons(m, rest)) = delivered.try_node() {
            if admits(site, m.to) {
                w.push(m.clone());
            }
            delivered = rest;
        }
        if ex.closed {
            w.close();
        }
        // Register even when closed, so repeat subscribers share the seed.
        ex.subs.insert(site, (w, stream.clone()));
        stream
    }

    /// Messages delivered onto the merge so far. Under a fault plan a
    /// dropped message is never counted and a duplicated one counts twice;
    /// without faults this is exactly the number of accepted sends.
    pub fn message_count(&self) -> u64 {
        self.exchange.lock().sent
    }
}

impl<P: Clone + Send + Sync + 'static> Default for SharedMedium<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn choose_filters_by_destination() {
        let medium: SharedMedium<u32> = SharedMedium::new();
        for i in 0..10 {
            medium.send(Message::new(SiteId(0), SiteId(i % 3), i as u64, i));
        }
        let inbox1 = medium.choose(SiteId(1));
        let got: Vec<u32> = inbox1
            .take(3)
            .collect_vec()
            .iter()
            .map(|m| m.payload)
            .collect();
        assert_eq!(got, vec![1, 4, 7]);
    }

    #[test]
    fn broadcast_preserves_per_sender_order() {
        let medium: SharedMedium<u64> = SharedMedium::new();
        let handles: Vec<_> = (0..4)
            .map(|s| {
                let m = medium.clone();
                thread::spawn(move || {
                    for i in 0..50 {
                        m.send(Message::new(SiteId(s), SiteId(99), i, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let inbox = medium.choose(SiteId(99));
        let msgs = inbox.take(200).collect_vec();
        assert_eq!(msgs.len(), 200);
        // For each sender, sequence numbers appear in order.
        for s in 0..4 {
            let seqs: Vec<u64> = msgs
                .iter()
                .filter(|m| m.from == SiteId(s))
                .map(|m| m.seq)
                .collect();
            assert_eq!(seqs, (0..50).collect::<Vec<_>>(), "sender {s}");
        }
        assert_eq!(medium.message_count(), 200);
    }

    #[test]
    fn broadcast_reaches_every_inbox() {
        let medium: SharedMedium<u8> = SharedMedium::new();
        medium.send(Message::new(SiteId(0), SiteId(1), 0, 1));
        medium.send(Message::new(SiteId(0), SiteId::BROADCAST, 1, 2));
        medium.send(Message::new(SiteId(0), SiteId(2), 2, 3));
        let at = |s: u32| -> Vec<u8> {
            medium
                .choose(SiteId(s))
                .take(2)
                .collect_vec()
                .iter()
                .map(|m| m.payload)
                .collect()
        };
        assert_eq!(at(1), vec![1, 2]);
        assert_eq!(at(2), vec![2, 3]);
    }

    #[test]
    fn multiple_readers_see_same_history() {
        let medium: SharedMedium<u8> = SharedMedium::new();
        medium.send(Message::new(SiteId(0), SiteId(1), 0, 7));
        let a = medium.choose(SiteId(1));
        let b = medium.choose(SiteId(1));
        assert_eq!(a.first().unwrap().payload, 7);
        assert_eq!(b.first().unwrap().payload, 7);
    }

    #[test]
    fn send_after_close_is_lost_and_uncounted() {
        let medium: SharedMedium<u8> = SharedMedium::new();
        let inbox = medium.choose(SiteId(1));
        medium.send(Message::new(SiteId(0), SiteId(1), 0, 1));
        medium.close();
        medium.send(Message::new(SiteId(0), SiteId(1), 1, 2));
        // Only the pre-close message arrives; the stream then ends.
        let got: Vec<u8> = inbox.collect_vec().iter().map(|m| m.payload).collect();
        assert_eq!(got, vec![1]);
        assert_eq!(
            medium.message_count(),
            1,
            "a message dropped by close() must not be counted"
        );
    }

    #[test]
    fn late_subscriber_seeding_races_concurrent_sends() {
        // Pins the `choose` seeding contract under contention: a subscriber
        // arriving while senders are mid-burst must see every already-delivered
        // message exactly once (seeded from the broadcast stream) followed by the rest
        // (live delivery), with no gap or duplicate at the handoff. The
        // seeding and `send`'s delivery hold the same exchange mutex, so
        // per-sender sequences must come out contiguous regardless of when
        // the subscription lands.
        let medium: SharedMedium<u64> = SharedMedium::new();
        let senders: Vec<_> = (0..4)
            .map(|s| {
                let m = medium.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        m.send(Message::new(SiteId(s), SiteId(5), i, i));
                    }
                })
            })
            .collect();
        // Subscribe repeatedly mid-flight; each subscription is an
        // independent late subscriber.
        let inboxes: Vec<_> = (0..8).map(|_| medium.choose(SiteId(5))).collect();
        for h in senders {
            h.join().unwrap();
        }
        for inbox in inboxes {
            let msgs = inbox.take(400).collect_vec();
            assert_eq!(msgs.len(), 400);
            for s in 0..4 {
                let seqs: Vec<u64> = msgs
                    .iter()
                    .filter(|m| m.from == SiteId(s))
                    .map(|m| m.seq)
                    .collect();
                assert_eq!(
                    seqs,
                    (0..100).collect::<Vec<_>>(),
                    "late subscriber lost or duplicated messages from sender {s}"
                );
            }
        }
    }

    #[test]
    fn choose_after_close_seeds_full_admitted_history() {
        // A subscriber that arrives only after the medium has closed still
        // gets the complete admitted history for its site — `choose` seeds
        // from the broadcast stream and the closed flag terminates the
        // stream after it.
        let medium: SharedMedium<u8> = SharedMedium::new();
        for i in 0..5 {
            medium.send(Message::new(SiteId(0), SiteId(7), i, i as u8));
        }
        medium.close();
        let inbox = medium.choose(SiteId(7));
        let got: Vec<u8> = inbox.collect_vec().iter().map(|m| m.payload).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn send_and_tick_deliver_before_they_return() {
        let payload = |inbox: &Stream<Message<u8>>| match inbox.try_node() {
            Some(Node::Cons(m, _)) => Some(m.payload),
            _ => None,
        };
        let medium: SharedMedium<u8> = SharedMedium::new();
        let inbox = medium.choose(SiteId(1));
        medium.send(Message::new(SiteId(0), SiteId(1), 0, 7));
        assert_eq!(payload(&inbox), Some(7), "send returned before delivery");

        let steps = 3;
        let edge = crate::chaos::EdgeRule::edge(SiteId(0), SiteId(1)).delay(1.0, steps);
        let medium: SharedMedium<u8> = SharedMedium::with_faults(FaultPlan::seeded(1).rule(edge));
        let inbox = medium.choose(SiteId(1));
        medium.send(Message::new(SiteId(0), SiteId(1), 0, 9));
        for tick in 0..steps {
            assert_eq!(payload(&inbox), None, "released after {tick} ticks");
            medium.tick();
        }
        assert_eq!(payload(&inbox), Some(9), "tick returned before delivery");
    }

    #[test]
    fn close_delivers_a_held_request_to_a_driven_replica_and_fails_the_cell() {
        use crate::chaos::Partition;
        use crate::cluster::ClientHandle;
        use crate::message::DbPayload;
        use crate::replica::ReplicaSite;
        use crate::shard::{ClusterStats, ShardMap, ShardRoute, ShardRoutes};
        use fundb_core::ClientId;
        use fundb_query::Response;
        use std::sync::atomic::{AtomicU32, AtomicU64};

        let (primary, replica, client) = (SiteId(0), SiteId(1), SiteId(2));
        let tmp = fundb_durable::ScratchDir::new("medium-close-held");
        let plan = FaultPlan::seeded(3).partition(Partition::between(vec![client], vec![replica]));
        let medium: SharedMedium<DbPayload> = SharedMedium::with_faults(plan);
        let batches = Arc::new(AtomicU64::new(0));
        let site = ReplicaSite::start(
            tmp.path().into(),
            medium.clone(),
            replica,
            primary,
            0,
            1,
            batches,
        );
        // Stand in for the primary's catch-up answer: empty history.
        let snapshot = DbPayload::Snapshot {
            checkpoint: None,
            tail: fundb_durable::encode_records(&[]),
        };
        medium.send(Message::new(primary, replica, 0, snapshot));
        let route = ShardRoute {
            primary: Arc::new(AtomicU32::new(primary.0)),
            replicas: vec![replica],
        };
        let routes = ShardRoutes::new(ShardMap::new(1), vec![route]);
        let stats = Arc::new(ClusterStats::new(1));
        let c = ClientHandle::spawn(&medium, client, ClientId(0), Arc::new(routes), stats);
        let cell = c.submit("find 1 in R");
        assert!(!cell.is_filled(), "the partition holds the request");
        // The held request reaches the replica inside `close`, whose step
        // answers it with a send: a send under the exchange lock would
        // never return.
        medium.close();
        assert!(
            matches!(cell.try_get(), Some(Response::Error(e)) if e.contains("shut down")),
            "{cell:?}"
        );
        assert_eq!(site.join(), 0);
    }

    #[test]
    fn dropping_all_handles_closes_stream() {
        let medium: SharedMedium<u8> = SharedMedium::new();
        let inbox = medium.choose(SiteId(1));
        medium.send(Message::new(SiteId(0), SiteId(2), 0, 1));
        drop(medium);
        // Message was for site 2; site 1's inbox ends cleanly.
        assert!(inbox.is_nil());
    }
}
