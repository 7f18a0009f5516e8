//! Deterministic fault injection for the shared medium.
//!
//! `durable::fault` damages bytes on disk; this module damages messages on
//! the wire. A [`FaultPlan`] is a pure description of what can go wrong —
//! per-edge drop / duplicate / delay / reorder rules and partitions between
//! site sets — plus a seed. The medium runs the plan inside `send`, under
//! its exchange lock and *before* inbox delivery, so a faulted message
//! never reaches the merge at all (drop), reaches it twice (duplicate), or
//! reaches it later than it was sent (delay, reorder, partition).
//!
//! # Replayability
//!
//! The fate of a message is a pure function of `(seed, rule, from, to,
//! seq)` — **not** of the order senders reach the medium. Two runs that
//! generate the same per-sender message sequences therefore fault the
//! same messages the same way, even if thread scheduling interleaves
//! senders differently. Time is logical: one *step* per message sent or
//! `tick`, so "delay by 3 steps" means "held until 3 further messages or
//! ticks", never a wall-clock sleep.
//!
//! # Ordering discipline
//!
//! The real medium preserves per-sender order, and most of the protocol
//! (notably WAL shipping, which skips records at-or-below a replica's seq
//! mark) relies on per-edge FIFO. The injector therefore distinguishes:
//!
//! * **delay** — models a slow link: later messages on the same edge queue
//!   *behind* a held one, so per-edge FIFO is preserved;
//! * **reorder** — models a misbehaving link: the held message may be
//!   overtaken by later messages on its own edge. This is the knob that
//!   demonstrates which reorderings the merge-order design does *not*
//!   tolerate (see DESIGN.md §15).
//!
//! Partitions hold every matching message and release them all, in
//! original order, at the heal step — modeling link-down plus faithful
//! retransmission. A partition with no heal step heals when the medium
//! closes ("heals at shutdown"), so clean-shutdown paths still drain.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::message::{Message, SiteId};

/// Which sites one end of an [`EdgeRule`] matches.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum SiteSel {
    /// Matches every site (including [`SiteId::BROADCAST`] destinations).
    #[default]
    Any,
    /// Matches exactly one site.
    One(SiteId),
    /// Matches any site in the set.
    Set(Vec<SiteId>),
}

impl SiteSel {
    fn matches(&self, s: SiteId) -> bool {
        match self {
            SiteSel::Any => true,
            SiteSel::One(x) => *x == s,
            SiteSel::Set(xs) => xs.contains(&s),
        }
    }
}

impl From<SiteId> for SiteSel {
    fn from(s: SiteId) -> Self {
        SiteSel::One(s)
    }
}

impl From<Vec<SiteId>> for SiteSel {
    fn from(s: Vec<SiteId>) -> Self {
        SiteSel::Set(s)
    }
}

/// One fault rule over a directed set of edges `(from → to)`.
///
/// Rules are evaluated in plan order; the first rule that decides a
/// terminal fate (drop, delay, reorder) wins. Probabilities of `0.0`
/// disable a clause, `1.0` makes it unconditional.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeRule {
    from: SiteSel,
    to: SiteSel,
    drop: f64,
    duplicate: f64,
    delay: Option<(f64, u64)>,
    reorder: Option<(f64, u64)>,
}

impl EdgeRule {
    /// A rule over the edges `from → to`. Pass [`SiteSel::Any`] (or build
    /// via [`EdgeRule::any`]) to match every site on one end.
    pub fn edge(from: impl Into<SiteSel>, to: impl Into<SiteSel>) -> Self {
        EdgeRule {
            from: from.into(),
            to: to.into(),
            drop: 0.0,
            duplicate: 0.0,
            delay: None,
            reorder: None,
        }
    }

    /// A rule matching every edge.
    pub fn any() -> Self {
        Self::edge(SiteSel::Any, SiteSel::Any)
    }

    /// Drop matching messages with probability `p`.
    pub fn drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Deliver matching messages twice (back to back) with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// With probability `p`, hold a matching message for `steps` medium
    /// steps. Later messages on the same edge queue behind it (FIFO).
    pub fn delay(mut self, p: f64, steps: u64) -> Self {
        self.delay = Some((p, steps));
        self
    }

    /// With probability `p`, hold a matching message for a uniform
    /// `1..=window` medium steps and let later same-edge messages overtake
    /// it. This breaks per-edge FIFO by design.
    pub fn reorder(mut self, p: f64, window: u64) -> Self {
        self.reorder = Some((p, window));
        self
    }

    fn matches(&self, from: SiteId, to: SiteId) -> bool {
        self.from.matches(from) && self.to.matches(to)
    }
}

/// A partition between two site sets, active over a window of steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    a: Vec<SiteId>,
    b: Vec<SiteId>,
    from_step: u64,
    heal_at: Option<u64>,
    symmetric: bool,
    include_broadcast: bool,
}

impl Partition {
    /// A symmetric partition: while active, no addressed message crosses
    /// between `a` and `b` in either direction.
    pub fn between(a: Vec<SiteId>, b: Vec<SiteId>) -> Self {
        Partition {
            a,
            b,
            from_step: 0,
            heal_at: None,
            symmetric: true,
            include_broadcast: false,
        }
    }

    /// Make the partition asymmetric: only `a → b` traffic is held; `b → a`
    /// still flows (a one-way link failure).
    pub fn one_way(mut self) -> Self {
        self.symmetric = false;
        self
    }

    /// The partition starts at medium step `step` (default: step 0).
    pub fn from_step(mut self, step: u64) -> Self {
        self.from_step = step;
        self
    }

    /// The partition heals at medium step `step`: held messages are
    /// released in original order once the medium reaches it. Without a
    /// heal step the partition heals when the medium closes.
    pub fn heal_at(mut self, step: u64) -> Self {
        self.heal_at = Some(step);
        self
    }

    /// Also hold broadcast messages whose *sender* is inside a partitioned
    /// set (both sets when symmetric, only `a` when one-way). Off by
    /// default, because a held broadcast stalls every site, not just the
    /// far side.
    pub fn include_broadcast(mut self) -> Self {
        self.include_broadcast = true;
        self
    }

    fn active(&self, step: u64) -> bool {
        step >= self.from_step && self.heal_at.is_none_or(|h| step < h)
    }

    fn blocks(&self, step: u64, from: SiteId, to: SiteId) -> bool {
        if !self.active(step) {
            return false;
        }
        if to == SiteId::BROADCAST {
            return self.include_broadcast
                && (self.a.contains(&from) || (self.symmetric && self.b.contains(&from)));
        }
        let a_to_b = self.a.contains(&from) && self.b.contains(&to);
        let b_to_a = self.b.contains(&from) && self.a.contains(&to);
        a_to_b || (self.symmetric && b_to_a)
    }

    fn release_step(&self) -> u64 {
        self.heal_at.unwrap_or(u64::MAX)
    }
}

/// A seeded, replayable description of wire faults. See the module docs.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<EdgeRule>,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead on `send`.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying `seed`; add rules with [`rule`](Self::rule)
    /// and partitions with [`partition`](Self::partition).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Append an edge rule (evaluated in insertion order).
    pub fn rule(mut self, r: EdgeRule) -> Self {
        self.rules.push(r);
        self
    }

    /// Append a partition.
    pub fn partition(mut self, p: Partition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Plan seed, for transcript labeling.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan can never fault anything.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.partitions.is_empty()
    }

    /// Drop the rule at `index` (used by the test-side plan shrinker).
    pub fn without_rule(mut self, index: usize) -> Self {
        if index < self.rules.len() {
            self.rules.remove(index);
        }
        self
    }

    /// Drop the partition at `index` (used by the test-side plan shrinker).
    pub fn without_partition(mut self, index: usize) -> Self {
        if index < self.partitions.len() {
            self.partitions.remove(index);
        }
        self
    }

    /// Number of edge rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }
}

/// Live fault counters, kept by the medium's injector. Read out via
/// [`SharedMedium::chaos_stats`](crate::SharedMedium::chaos_stats).
#[derive(Debug, Default)]
pub struct ChaosStats {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    partitioned: AtomicU64,
    released: AtomicU64,
    steps: AtomicU64,
}

impl ChaosStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            partitioned: self.partitioned.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time fault counters: how many messages each fault class hit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// Messages silently discarded.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held by a delay rule (including same-edge messages queued
    /// behind one, to preserve FIFO).
    pub delayed: u64,
    /// Messages held by a reorder rule (overtaking allowed).
    pub reordered: u64,
    /// Messages held by an active partition.
    pub partitioned: u64,
    /// Held messages eventually delivered (delay + reorder + partition).
    pub released: u64,
    /// Logical medium steps elapsed: one per message sent before close
    /// plus one per [`tick`](crate::SharedMedium::tick). Zero without a
    /// fault plan (the injector is bypassed entirely).
    pub steps: u64,
}

impl fmt::Display for ChaosSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos {}drop/{}dup/{}delay/{}reorder/{}part/{}rel@{}",
            self.dropped,
            self.duplicated,
            self.delayed,
            self.reordered,
            self.partitioned,
            self.released,
            self.steps
        )
    }
}

/// What the plan decided for one message.
enum Fate {
    Deliver {
        dup: bool,
    },
    Drop,
    /// Hold until `release_at`; `fifo` holds force later same-edge
    /// messages to queue behind them.
    Hold {
        release_at: u64,
        fifo: bool,
        dup: bool,
    },
}

struct Held<P> {
    release_at: u64,
    insert: u64,
    fifo: bool,
    msg: Message<P>,
}

/// The medium's fault state: the plan, the held-message queue, and the
/// logical step counter, run under the medium's lock.
pub(crate) struct Injector<P> {
    plan: FaultPlan,
    pub(crate) stats: ChaosStats,
    step: u64,
    insert: u64,
    held: Vec<Held<P>>,
    /// Per-edge bookkeeping for FIFO holds: (count currently held,
    /// latest release step). Present only while count > 0.
    edge_fifo: HashMap<(SiteId, SiteId), (usize, u64)>,
}

impl<P: Clone> Injector<P> {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            stats: ChaosStats::default(),
            step: 0,
            insert: 0,
            held: Vec::new(),
            edge_fifo: HashMap::new(),
        }
    }

    /// Derives the per-message RNG. Pure in `(seed, rule, from, to, seq)`
    /// so fates are independent of the order senders reach the medium.
    fn rng_for(seed: u64, rule: u64, from: SiteId, to: SiteId, seq: u64) -> ChaCha8Rng {
        let mut key = seed;
        for word in [rule, u64::from(from.0), u64::from(to.0), seq] {
            // splitmix64 finalizer per word: cheap, well-mixed.
            key = key.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
            key = (key ^ (key >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            key = (key ^ (key >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            key ^= key >> 31;
        }
        ChaCha8Rng::seed_from_u64(key)
    }

    fn fate(&self, msg: &Message<P>) -> Fate {
        for p in &self.plan.partitions {
            if p.blocks(self.step, msg.from, msg.to) {
                return Fate::Hold {
                    release_at: p.release_step(),
                    fifo: true,
                    dup: false,
                };
            }
        }
        let mut dup = false;
        for (i, r) in self.plan.rules.iter().enumerate() {
            if !r.matches(msg.from, msg.to) {
                continue;
            }
            let mut rng = Self::rng_for(self.plan.seed, i as u64, msg.from, msg.to, msg.seq);
            if r.drop > 0.0 && rng.gen_bool(r.drop) {
                return Fate::Drop;
            }
            if r.duplicate > 0.0 && rng.gen_bool(r.duplicate) {
                dup = true;
            }
            if let Some((p, steps)) = r.delay {
                if p > 0.0 && rng.gen_bool(p) {
                    return Fate::Hold {
                        release_at: self.step + steps,
                        fifo: true,
                        dup,
                    };
                }
            }
            if let Some((p, window)) = r.reorder {
                if window > 0 && p > 0.0 && rng.gen_bool(p) {
                    let steps = rng.gen_range(1..window + 1);
                    return Fate::Hold {
                        release_at: self.step + steps,
                        fifo: false,
                        dup,
                    };
                }
            }
        }
        Fate::Deliver { dup }
    }

    fn hold(&mut self, msg: Message<P>, mut release_at: u64, fifo: bool) {
        let edge = (msg.from, msg.to);
        if fifo {
            let entry = self.edge_fifo.entry(edge).or_insert((0, 0));
            release_at = release_at.max(entry.1);
            entry.0 += 1;
            entry.1 = release_at;
        }
        self.held.push(Held {
            release_at,
            insert: self.insert,
            fifo,
            msg,
        });
        self.insert += 1;
    }

    /// Pops every held message due at the current step, in
    /// `(release_at, insertion)` order.
    fn release_due(&mut self, out: &mut Vec<Message<P>>) {
        if self.held.is_empty() {
            return;
        }
        let step = self.step;
        let mut due: Vec<Held<P>> = Vec::new();
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].release_at <= step {
                due.push(self.held.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|h| (h.release_at, h.insert));
        for h in due {
            if h.fifo {
                let edge = (h.msg.from, h.msg.to);
                if let Some(entry) = self.edge_fifo.get_mut(&edge) {
                    entry.0 -= 1;
                    if entry.0 == 0 {
                        self.edge_fifo.remove(&edge);
                    }
                }
            }
            self.stats.released.fetch_add(1, Ordering::Relaxed);
            out.push(h.msg);
        }
    }

    /// Advances one step for a sent message and returns, in
    /// order, everything the medium should now deliver: previously held
    /// messages that just came due, then the message itself (possibly
    /// twice, held, or not at all).
    pub(crate) fn admit(&mut self, msg: Message<P>) -> Vec<Message<P>> {
        let mut out = self.tick();
        match self.fate(&msg) {
            Fate::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Fate::Hold {
                release_at,
                fifo,
                dup,
            } => {
                let class = if !fifo {
                    &self.stats.reordered
                } else if release_at == u64::MAX || self.partition_holds(&msg) {
                    &self.stats.partitioned
                } else {
                    &self.stats.delayed
                };
                class.fetch_add(1, Ordering::Relaxed);
                if dup {
                    self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                    self.hold(msg.clone(), release_at, fifo);
                }
                self.hold(msg, release_at, fifo);
            }
            Fate::Deliver { dup } => {
                // A FIFO hold pending on this edge means this message must
                // queue behind it, or shipping order would invert.
                let edge = (msg.from, msg.to);
                if let Some(&(_, tail)) = self.edge_fifo.get(&edge) {
                    self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                    if dup {
                        self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                        self.hold(msg.clone(), tail, true);
                    }
                    self.hold(msg, tail, true);
                } else {
                    if dup {
                        self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                        out.push(msg.clone());
                    }
                    out.push(msg);
                }
            }
        }
        out
    }

    /// Advances logical time without a message: one step, then whatever
    /// came due. Lets a quiesced system (every client blocked on a held
    /// reply) make progress — the driver ticks instead of deadlocking.
    pub(crate) fn tick(&mut self) -> Vec<Message<P>> {
        self.step += 1;
        self.stats.steps.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::new();
        self.release_due(&mut out);
        out
    }

    fn partition_holds(&self, msg: &Message<P>) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|p| p.blocks(self.step, msg.from, msg.to))
    }

    /// Flushes every held message at close ("links heal at shutdown"), in
    /// `(release_at, insertion)` order.
    pub(crate) fn drain(&mut self) -> Vec<Message<P>> {
        let mut held = std::mem::take(&mut self.held);
        self.edge_fifo.clear();
        held.sort_by_key(|h| (h.release_at, h.insert));
        let out: Vec<Message<P>> = held.into_iter().map(|h| h.msg).collect();
        self.stats
            .released
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: u32, to: u32, seq: u64) -> Message<u32> {
        Message::new(SiteId(from), SiteId(to), seq, seq as u32)
    }

    fn inj(plan: FaultPlan) -> Injector<u32> {
        Injector::new(plan)
    }

    #[test]
    fn empty_plan_passes_everything_through() {
        let mut i = inj(FaultPlan::none());
        for s in 0..20 {
            let out = i.admit(msg(0, 1, s));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].seq, s);
        }
        let snap = i.stats.snapshot();
        assert_eq!(snap.steps, 20);
        assert_eq!(ChaosSnapshot { steps: 0, ..snap }, ChaosSnapshot::default());
    }

    #[test]
    fn unconditional_drop_discards_matching_edge_only() {
        let plan = FaultPlan::seeded(1).rule(EdgeRule::edge(SiteId(0), SiteId(1)).drop(1.0));
        let mut i = inj(plan);
        assert!(i.admit(msg(0, 1, 0)).is_empty());
        assert_eq!(i.admit(msg(0, 2, 0)).len(), 1, "other edge unaffected");
        assert_eq!(i.admit(msg(2, 1, 0)).len(), 1, "other sender unaffected");
        assert_eq!(i.stats.snapshot().dropped, 1);
    }

    #[test]
    fn duplicate_delivers_back_to_back() {
        let plan = FaultPlan::seeded(2).rule(EdgeRule::any().duplicate(1.0));
        let mut i = inj(plan);
        let out = i.admit(msg(3, 4, 7));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 7);
        assert_eq!(out[1].seq, 7);
        assert_eq!(i.stats.snapshot().duplicated, 1);
    }

    #[test]
    fn delay_holds_for_n_steps_and_preserves_edge_fifo() {
        // Delay only seq 0 deterministically: drop probability on a
        // sub-rule is awkward, so delay everything on the edge and verify
        // FIFO: all three messages held, released in send order.
        let plan = FaultPlan::seeded(3).rule(EdgeRule::edge(SiteId(0), SiteId(1)).delay(1.0, 3));
        let mut i = inj(plan);
        assert!(i.admit(msg(0, 1, 0)).is_empty()); // step 1, due at 4
        assert!(i.admit(msg(0, 1, 1)).is_empty()); // step 2, due at 5
        assert!(i.admit(msg(2, 3, 0)).len() == 1); // step 3: other traffic flows
        let out = i.admit(msg(2, 3, 1)); // step 4: first delayed releases
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].from, out[0].seq), (SiteId(0), 0));
        let out = i.admit(msg(2, 3, 2)); // step 5: second releases
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].from, out[0].seq), (SiteId(0), 1));
        assert_eq!(i.stats.snapshot().delayed, 2);
        assert_eq!(i.stats.snapshot().released, 2);
    }

    #[test]
    fn partition_holds_until_heal_then_releases_in_order() {
        let plan = FaultPlan::seeded(4).partition(
            Partition::between(vec![SiteId(0)], vec![SiteId(1)])
                .from_step(0)
                .heal_at(5),
        );
        let mut i = inj(plan);
        assert!(i.admit(msg(0, 1, 0)).is_empty()); // step 1
        assert!(i.admit(msg(1, 0, 0)).is_empty()); // step 2, symmetric
        assert_eq!(i.admit(msg(0, 2, 0)).len(), 1); // step 3: outside partition
        assert_eq!(i.admit(msg(2, 2, 1)).len(), 1); // step 4
        let out = i.admit(msg(2, 2, 2)); // step 5: healed
        assert_eq!(out.len(), 3);
        assert_eq!((out[0].from, out[0].to), (SiteId(0), SiteId(1)));
        assert_eq!((out[1].from, out[1].to), (SiteId(1), SiteId(0)));
        assert_eq!(i.stats.snapshot().partitioned, 2);
        assert_eq!(i.stats.snapshot().released, 2);
    }

    #[test]
    fn one_way_partition_blocks_single_direction() {
        let plan = FaultPlan::seeded(5).partition(
            Partition::between(vec![SiteId(0)], vec![SiteId(1)])
                .one_way()
                .heal_at(100),
        );
        let mut i = inj(plan);
        assert!(i.admit(msg(0, 1, 0)).is_empty(), "a→b held");
        assert_eq!(i.admit(msg(1, 0, 0)).len(), 1, "b→a flows");
    }

    #[test]
    fn unhealed_partition_drains_at_close() {
        let plan =
            FaultPlan::seeded(6).partition(Partition::between(vec![SiteId(0)], vec![SiteId(1)]));
        let mut i = inj(plan);
        assert!(i.admit(msg(0, 1, 0)).is_empty());
        assert!(i.admit(msg(0, 1, 1)).is_empty());
        let out = i.drain();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[1].seq, 1);
        assert_eq!(i.stats.snapshot().released, 2);
    }

    #[test]
    fn fate_is_independent_of_arrival_order() {
        // Same plan, same messages, different interleavings: each message's
        // fate (dropped or not) must be identical.
        let plan = FaultPlan::seeded(7).rule(EdgeRule::any().drop(0.5));
        let survivors = |order: Vec<(u32, u64)>| -> Vec<(u32, u64)> {
            let mut i = inj(plan.clone());
            let mut out = Vec::new();
            for (from, seq) in order {
                for m in i.admit(msg(from, 9, seq)) {
                    out.push((m.from.0, m.seq));
                }
            }
            out.sort_unstable();
            out
        };
        let a = survivors(vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
        let b = survivors(vec![(2, 0), (1, 0), (2, 1), (1, 1)]);
        assert_eq!(a, b);
        assert!(
            !a.is_empty() && a.len() < 4,
            "p=0.5 over 4 msgs: some fate mix"
        );
    }

    #[test]
    fn broadcast_passes_partition_unless_included() {
        let part = Partition::between(vec![SiteId(0)], vec![SiteId(1)]).heal_at(100);
        let plan = FaultPlan::seeded(8).partition(part.clone());
        let mut i = inj(plan);
        assert_eq!(
            i.admit(msg(0, u32::MAX, 0)).len(),
            1,
            "broadcast flows by default"
        );
        let plan = FaultPlan::seeded(8).partition(part.include_broadcast());
        let mut i = inj(plan);
        assert!(
            i.admit(msg(0, u32::MAX, 0)).is_empty(),
            "held when included"
        );
    }

    #[test]
    fn chaos_snapshot_display_names_counters() {
        let s = ChaosSnapshot {
            dropped: 1,
            duplicated: 2,
            delayed: 3,
            reordered: 4,
            partitioned: 5,
            released: 6,
            steps: 7,
        };
        assert_eq!(
            s.to_string(),
            "chaos 1drop/2dup/3delay/4reorder/5part/6rel@7"
        );
    }
}
