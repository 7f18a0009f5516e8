//! The shared broadcast medium: one large merge pseudo-function.
//!
//! Every send from any site is interleaved, in arrival order, onto a single
//! persistent message stream (the "Ethernet model" of Section 3.1). The
//! stream is an ordinary lenient stream, so any number of sites can read it
//! concurrently, each at its own pace; a site's inbox is the `choose`
//! filter over it.
//!
//! `choose` *means* `filter(|m| m.to == site || m.to == BROADCAST)` over
//! the merge, but the pump computes that filter incrementally: each site
//! gets its own persistent inbox stream and the pump appends every message
//! to exactly the inboxes whose filter admits it, in merge order. The
//! observable streams are identical to the lazy formulation; the difference
//! is mechanical — delivering a message wakes only the sites it is
//! addressed to, not every reader of the shared stream. A subscriber that
//! arrives late is seeded from the broadcast stream's filled prefix first,
//! so an inbox always covers the full history from the medium's first
//! message.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::{self, Sender};
use fundb_lenient::stream::Node;
use fundb_lenient::{Stream, StreamWriter};

use crate::chaos::{ChaosSnapshot, ChaosStats, FaultPlan, Injector};
use crate::message::{Message, SiteId};

enum Ctrl<P> {
    Msg(Message<P>),
    Tick,
    Close,
}

/// One site's inbox: the writer the pump feeds, and the persistent
/// stream `choose` hands out (cloned — any number of readers share one).
type Inbox<P> = (StreamWriter<Message<P>>, Stream<Message<P>>);

/// Pump-side delivery state: the live per-site inboxes. Its lock also
/// orders every push onto the broadcast stream, so under it the stream's
/// filled prefix is exactly the history delivered so far — the seed of a
/// late subscriber.
struct Exchange<P> {
    /// One inbox per subscribed site, fed by the pump in merge order.
    subs: HashMap<SiteId, Inbox<P>>,
    /// Set when the pump shuts down; inboxes created afterwards are closed
    /// immediately after seeding, so their readers see end-of-stream.
    closed: bool,
}

/// Does `site`'s choose filter admit a message addressed `to`?
fn admits(site: SiteId, to: SiteId) -> bool {
    to == site || to == SiteId::BROADCAST
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
    sender: Sender<Ctrl<P>>,
    broadcast: Stream<Message<P>>,
    exchange: Arc<Mutex<Exchange<P>>>,
    sent: Arc<AtomicU64>,
    chaos: Arc<ChaosStats>,
}

impl<P> Clone for SharedMedium<P> {
    fn clone(&self) -> Self {
        SharedMedium {
            sender: self.sender.clone(),
            broadcast: self.broadcast.clone(),
            exchange: Arc::clone(&self.exchange),
            sent: Arc::clone(&self.sent),
            chaos: Arc::clone(&self.chaos),
        }
    }
}

impl<P> fmt::Debug for SharedMedium<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedMedium[{} messages]",
            self.sent.load(Ordering::SeqCst)
        )
    }
}

/// Delivers one message onto the merge: bump the count, push the broadcast
/// stream, feed matching inboxes — all under the exchange lock, so no inbox
/// holds a message the broadcast stream lacks. Pump-thread only.
fn deliver_one<P: Clone>(
    ex: &Mutex<Exchange<P>>,
    writer: &mut StreamWriter<Message<P>>,
    counter: &AtomicU64,
    msg: Message<P>,
) {
    // Count in the pump, not in `send`: a message the pump never accepts
    // (sent after `close`, or dropped by a fault plan) must not inflate
    // `message_count`. Incrementing *before* the push keeps the old
    // guarantee that a reader who has observed a message also observes
    // its count.
    counter.fetch_add(1, Ordering::SeqCst);
    let mut ex = ex.lock().expect("exchange lock");
    writer.push(msg.clone());
    if msg.to == SiteId::BROADCAST {
        for (w, _) in ex.subs.values_mut() {
            w.push(msg.clone());
        }
    } else if let Some((w, _)) = ex.subs.get_mut(&msg.to) {
        w.push(msg);
    }
}

impl<P: Clone + Send + Sync + 'static> SharedMedium<P> {
    /// Creates a medium and starts its pump.
    pub fn new() -> Self {
        Self::with_faults(FaultPlan::none())
    }

    /// Creates a medium whose pump runs every accepted message through
    /// `plan` before inbox delivery. A faulted message never reaches the
    /// merge (drop), reaches it twice (duplicate), or reaches it at a
    /// later pump step than it arrived (delay, reorder, partition) — so
    /// late subscribers seeded from the merge see exactly the post-fault
    /// history, gapless and in delivered order. An empty plan adds no
    /// overhead. Held messages still in flight when the medium closes are
    /// flushed, in order, before end-of-stream ("links heal at shutdown").
    pub fn with_faults(plan: FaultPlan) -> Self {
        let (tx, rx) = channel::unbounded::<Ctrl<P>>();
        let (mut writer, broadcast) = Stream::channel();
        let sent = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&sent);
        let chaos = Arc::new(ChaosStats::default());
        let mut injector = (!plan.is_empty()).then(|| Injector::new(plan, Arc::clone(&chaos)));
        let exchange = Arc::new(Mutex::new(Exchange {
            subs: HashMap::new(),
            closed: false,
        }));
        let ex = Arc::clone(&exchange);
        std::thread::spawn(move || {
            for ctrl in rx {
                match ctrl {
                    Ctrl::Msg(msg) => match injector.as_mut() {
                        None => deliver_one(&ex, &mut writer, &counter, msg),
                        Some(inj) => {
                            for m in inj.admit(msg) {
                                deliver_one(&ex, &mut writer, &counter, m);
                            }
                        }
                    },
                    Ctrl::Tick => {
                        if let Some(inj) = injector.as_mut() {
                            for m in inj.tick() {
                                deliver_one(&ex, &mut writer, &counter, m);
                            }
                        }
                    }
                    Ctrl::Close => break,
                }
            }
            if let Some(inj) = injector.as_mut() {
                for m in inj.drain() {
                    deliver_one(&ex, &mut writer, &counter, m);
                }
            }
            let mut ex = ex.lock().expect("exchange lock");
            ex.closed = true;
            for (w, _) in ex.subs.values_mut() {
                w.close();
            }
            writer.close();
        });
        SharedMedium {
            sender: tx,
            broadcast,
            exchange,
            sent,
            chaos,
        }
    }

    /// Point-in-time fault counters (all zero without a fault plan).
    pub fn chaos_stats(&self) -> ChaosSnapshot {
        self.chaos.snapshot()
    }

    /// Advances the fault plan's logical clock by one pump step without
    /// sending a message, releasing any held message that comes due. A
    /// quiesced system — every client blocked on a reply a fault is
    /// holding — generates no traffic, so pump steps would never advance;
    /// a waiting driver calls `tick` to make logical time pass instead.
    /// No-op without a fault plan.
    pub fn tick(&self) {
        let _ = self.sender.send(Ctrl::Tick);
    }

    /// Puts a message on the medium. Arrival order on the broadcast stream
    /// is the merge order. Messages sent after [`close`](Self::close) are
    /// silently lost, as on a powered-down segment, and are *not* counted
    /// by [`message_count`](Self::message_count).
    pub fn send(&self, message: Message<P>) {
        let _ = self.sender.send(Ctrl::Msg(message));
    }

    /// Shuts the medium down: the broadcast stream ends after the messages
    /// already accepted. Idempotent.
    pub fn close(&self) {
        let _ = self.sender.send(Ctrl::Close);
    }

    /// The entire broadcast stream, from the first message ever sent.
    /// Multiple readers may consume it independently.
    pub fn broadcast_stream(&self) -> Stream<Message<P>> {
        self.broadcast.clone()
    }

    /// The paper's `choose`: the sub-stream of messages destined for
    /// `site` — plus anything addressed to [`SiteId::BROADCAST`], which
    /// every inbox admits. The stream always starts at the medium's first
    /// message: the first `choose` for a site seeds its inbox from the
    /// broadcast stream up to its filled end, later ones share the same
    /// persistent stream.
    pub fn choose(&self, site: SiteId) -> Stream<Message<P>> {
        let mut ex = self.exchange.lock().expect("exchange lock");
        if let Some((_, stream)) = ex.subs.get(&site) {
            return stream.clone();
        }
        let (mut w, stream) = Stream::channel();
        let mut delivered = &self.broadcast;
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
        self.sent.load(Ordering::SeqCst)
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
        // seeding and the pump's delivery hold the same exchange mutex, so
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
    fn dropping_all_handles_closes_stream() {
        let medium: SharedMedium<u8> = SharedMedium::new();
        let inbox = medium.choose(SiteId(1));
        medium.send(Message::new(SiteId(0), SiteId(2), 0, 1));
        drop(medium);
        // Message was for site 2; site 1's inbox ends cleanly.
        assert!(inbox.is_nil());
    }
}
