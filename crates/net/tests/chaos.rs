//! Deterministic chaos: fault-injected runs of the sharded cluster with
//! client-visible invariants checked against the recorded history.
//!
//! Every run is parameterised by a [`FaultPlan`] — a seed plus per-edge
//! duplicate/delay/reorder rules and timed partitions — run inside the
//! shared medium's `send`. A message's fate is a pure function of
//! `(seed, rule, from, to, seq)`, so a failing `(seed, plan)` pair replays
//! exactly regardless of thread interleaving. The driver records every
//! client-visible ack and read into a [`HistoryChecker`] and checks, per
//! run:
//!
//! 1. read-your-writes per shard,
//! 2. the acked prefix survives failover (no acknowledged write ever
//!    disappears), and
//! 3. cross-shard sequenced transactions read all-or-nothing per shard.
//!
//! The drivers here only submit fault plans the design claims to tolerate
//! (see DESIGN.md §15): duplicates anywhere, FIFO delays, reply-edge
//! reorders, and partitions that start after replica catch-up and heal
//! before the final reads. `checker_flags_reads_through_an_active_partition`
//! demonstrates the converse — an *unhealed* partition visibly breaks
//! read-your-writes, and the checker says so.

use std::collections::BTreeMap;
use std::time::Duration;

use fundb_durable::ScratchDir;
use fundb_lenient::Lenient;
use fundb_net::{EdgeRule, FaultPlan, HistoryChecker, Partition, ShardedCluster, SiteId};
use fundb_query::Response;
use fundb_relational::{Repr, Value};
use fundb_workload::WorkloadSpec;
use proptest::prelude::*;

/// Iteration bound for a single response wait; each round is a 1 ms cell
/// wait plus one medium tick, so this is a generous hang detector, not a
/// pacing knob.
const WAIT_ROUNDS: usize = 60_000;

fn is_present(resp: &Response) -> bool {
    match resp {
        Response::Tuples(ts) => !ts.is_empty(),
        other => panic!("find answered {other:?}"),
    }
}

/// Waits on a response cell while ticking the medium, so fault-held
/// messages keep releasing even when this driver is the only traffic
/// source — without the ticks, a delayed reply would freeze the step
/// clock and deadlock the run.
fn try_wait(cluster: &ShardedCluster, cell: &Lenient<Response>) -> Result<Response, String> {
    for _ in 0..WAIT_ROUNDS {
        if let Some(r) = cell.wait_timeout(Duration::from_millis(1)) {
            return Ok(r.clone());
        }
        cluster.tick();
    }
    Err("response never arrived: the fault plan wedged the cluster".into())
}

fn wait_chaos(cluster: &ShardedCluster, cell: &Lenient<Response>) -> Response {
    try_wait(cluster, cell).unwrap()
}

/// Ticks until the injector's step clock passes `step`. Bounded, so a
/// plan without faults (no injector, clock frozen at zero) cannot spin
/// forever.
fn tick_past(cluster: &ShardedCluster, step: u64) {
    for _ in 0..200_000 {
        if cluster.stats().chaos.steps > step {
            return;
        }
        cluster.tick();
    }
}

/// Runs sync rounds — ticks so held messages release, then the blocking
/// `sync` barrier — until every listed shard reports applied == shipped.
fn sync_caught(cluster: &ShardedCluster, shards: &[usize], rounds: usize) -> Result<(), String> {
    for _ in 0..rounds {
        for _ in 0..16 {
            cluster.tick();
        }
        cluster.sync();
        let snap = cluster.stats();
        if shards.iter().all(|&s| {
            let (shipped, applied) = snap.shard_lag[s];
            applied >= shipped
        }) {
            return Ok(());
        }
    }
    Err(format!(
        "replicas never converged: lag {:?}",
        cluster.stats().shard_lag
    ))
}

fn write_key(cluster: &ShardedCluster, checker: &HistoryChecker, client: usize, k: i64) {
    let shard = cluster.shard_of(&Value::from(k));
    let resp = wait_chaos(
        cluster,
        &cluster.client(client).submit(&format!("insert {k} into R")),
    );
    assert!(!resp.is_error(), "insert {k} failed: {resp:?}");
    checker.write_acked(client as u32, shard, k.to_string(), true);
}

fn read_key(cluster: &ShardedCluster, checker: &HistoryChecker, client: usize, k: i64) {
    let shard = cluster.shard_of(&Value::from(k));
    let at = checker.now();
    let resp = wait_chaos(
        cluster,
        &cluster.client(client).submit(&format!("find {k} in R")),
    );
    checker.read(client as u32, shard, k.to_string(), at, is_present(&resp));
}

fn submit_txn_checked(
    cluster: &ShardedCluster,
    checker: &HistoryChecker,
    client: usize,
    keys: &[i64],
    rel: &str,
) {
    let queries: Vec<String> = keys
        .iter()
        .map(|k| format!("insert {k} into {rel}"))
        .collect();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let resp = wait_chaos(cluster, &cluster.client(client).submit_txn(&refs));
    assert!(!resp.is_error(), "sequenced txn {keys:?} failed: {resp:?}");
    let tagged = keys
        .iter()
        .map(|&k| (cluster.shard_of(&Value::from(k)), k.to_string()))
        .collect();
    checker.txn_acked(client as u32, tagged, true);
}

/// Probes one transaction's keys shard by shard, in write order, and
/// records each scan as an atomic-visibility group.
fn probe_txn(
    cluster: &ShardedCluster,
    checker: &HistoryChecker,
    client: usize,
    keys: &[i64],
    rel: &str,
) {
    let mut by_shard: BTreeMap<u32, Vec<i64>> = BTreeMap::new();
    for &k in keys {
        by_shard
            .entry(cluster.shard_of(&Value::from(k)))
            .or_default()
            .push(k);
    }
    for (shard, group) in by_shard {
        let mut seen = Vec::with_capacity(group.len());
        for k in group {
            let resp = wait_chaos(
                cluster,
                &cluster.client(client).submit(&format!("find {k} in {rel}")),
            );
            seen.push((k.to_string(), is_present(&resp)));
        }
        checker.read_group(client as u32, shard, seen);
    }
}

/// First `n` keys at or above `from` that hash to `shard`.
fn keys_on_shard(cluster: &ShardedCluster, shard: u32, from: i64, n: usize) -> Vec<i64> {
    (from..)
        .filter(|&k| cluster.shard_of(&Value::from(k)) == shard)
        .take(n)
        .collect()
}

/// A transaction key set interleaving both shards, guaranteeing the
/// sequencer takes the cross-shard broadcast path.
fn cross_shard_keys(cluster: &ShardedCluster, from: i64, per_shard: usize) -> Vec<i64> {
    let a = keys_on_shard(cluster, 0, from, per_shard);
    let b = keys_on_shard(cluster, 1, from, per_shard);
    a.into_iter().zip(b).flat_map(|(x, y)| [x, y]).collect()
}

/// Chaos smoke, fixed seed: duplicate-heavy replication plus delayed
/// client replies across a kill + promote of shard 0's primary. All
/// three invariants must hold and the fault counters must show the plan
/// actually fired.
///
/// Site layout (2 shards, 1 replica each, 2 clients): shard 0 = sites
/// 0/1, shard 1 = sites 2/3, clients = sites 4/5.
#[test]
fn chaos_smoke_kill_primary() {
    let tmp = ScratchDir::new("chaos-kill");
    let plan = FaultPlan::seeded(0x00C0_FFEE)
        .rule(EdgeRule::edge(SiteId(0), SiteId(1)).duplicate(0.4))
        .rule(EdgeRule::edge(SiteId(2), SiteId(3)).duplicate(0.4))
        .rule(
            EdgeRule::edge(vec![SiteId(0), SiteId(2)], vec![SiteId(4), SiteId(5)]).delay(0.25, 3),
        );
    let mut cluster = ShardedCluster::start_with_faults(tmp.path(), 2, 2, 2, 1, plan).unwrap();
    let checker = HistoryChecker::new();

    let resp = wait_chaos(&cluster, &cluster.client(0).submit("create relation R"));
    assert!(!resp.is_error(), "create failed: {resp:?}");
    sync_caught(&cluster, &[0, 1], 2_000).expect("initial catch-up");

    for k in 0..16 {
        write_key(&cluster, &checker, (k % 2) as usize, k);
    }
    let txn_before = cross_shard_keys(&cluster, 100, 2);
    submit_txn_checked(&cluster, &checker, 0, &txn_before, "R");

    checker.kill(0);
    cluster.kill_primary(0);
    cluster.promote(0, SiteId(1));
    checker.promote(0);

    for k in 16..32 {
        write_key(&cluster, &checker, (k % 2) as usize, k);
    }
    let txn_after = cross_shard_keys(&cluster, 200, 2);
    submit_txn_checked(&cluster, &checker, 1, &txn_after, "R");

    // Shard 0 lost its only replica to promotion; only shard 1 still
    // replicates. Shard 0's reads route to the promoted site itself.
    sync_caught(&cluster, &[1], 2_000).expect("shard 1 converges");
    for k in 0..32 {
        read_key(&cluster, &checker, 0, k);
    }
    probe_txn(&cluster, &checker, 0, &txn_before, "R");
    probe_txn(&cluster, &checker, 0, &txn_after, "R");

    checker.check().unwrap_or_else(|violations| {
        panic!(
            "invariant violations: {violations:#?}\nhistory:\n{}",
            checker.transcript()
        )
    });
    let snap = cluster.stats();
    assert!(snap.chaos.duplicated > 0, "duplicate rules never fired");
    assert!(snap.chaos.delayed > 0, "delay rule never fired");
    assert!(
        snap.to_string().contains("chaos"),
        "fault counters missing from stats display: {snap}"
    );
    cluster.shutdown();
}

/// Chaos smoke, fixed seed: a symmetric partition between the only
/// primary and its replica opens at step 6 — while the replica may still
/// be catching up — and heals at step 100. Writes keep acking throughout
/// (replication is asynchronous); after the heal and a sync barrier every
/// acked write must be readable through the replica.
#[test]
fn chaos_smoke_partition_heal() {
    let tmp = ScratchDir::new("chaos-part");
    let plan = FaultPlan::seeded(0xBEEF).partition(
        Partition::between(vec![SiteId(0)], vec![SiteId(1)])
            .from_step(6)
            .heal_at(100),
    );
    let cluster = ShardedCluster::start_with_faults(tmp.path(), 1, 1, 2, 1, plan).unwrap();
    let checker = HistoryChecker::new();

    // No sync barrier before the heal: the partition may be holding the
    // replica's catch-up snapshot, and a blocking sync would wait on a
    // replica that cannot answer until the link heals.
    let resp = wait_chaos(&cluster, &cluster.client(0).submit("create relation R"));
    assert!(!resp.is_error(), "create failed: {resp:?}");
    for k in 0..40 {
        write_key(&cluster, &checker, 0, k);
    }

    tick_past(&cluster, 110);
    sync_caught(&cluster, &[0], 2_000).expect("replica converges after heal");
    for k in 0..40 {
        read_key(&cluster, &checker, 0, k);
    }

    checker.check().unwrap_or_else(|violations| {
        panic!(
            "invariant violations: {violations:#?}\nhistory:\n{}",
            checker.transcript()
        )
    });
    let snap = cluster.stats();
    assert!(snap.chaos.partitioned > 0, "partition never held a message");
    assert!(snap.chaos.released > 0, "heal never released a message");
    cluster.shutdown();
}

/// Chaos smoke, fixed seed: fsync acknowledgements of sequenced
/// transactions (and ordinary replies) are delayed mid-flight, and
/// replication streams lag behind on a slow FIFO link, while a seeded
/// insert workload and cross-shard transactions interleave with atomic-
/// visibility probes. Delays never reorder within an edge, so probes may
/// see *nothing* of a transaction but never a strict subset.
#[test]
fn chaos_smoke_delay_sequenced() {
    let tmp = ScratchDir::new("chaos-delay");
    let plan = FaultPlan::seeded(0xD15C)
        .rule(EdgeRule::edge(vec![SiteId(0), SiteId(2)], vec![SiteId(4), SiteId(5)]).delay(0.5, 4))
        .rule(EdgeRule::edge(SiteId(0), SiteId(1)).delay(0.35, 3))
        .rule(EdgeRule::edge(SiteId(2), SiteId(3)).delay(0.35, 3))
        .rule(
            EdgeRule::edge(vec![SiteId(0), SiteId(2)], vec![SiteId(4), SiteId(5)]).duplicate(0.3),
        );
    let cluster = ShardedCluster::start_with_faults(tmp.path(), 2, 2, 2, 1, plan).unwrap();
    let checker = HistoryChecker::new();

    let resp = wait_chaos(&cluster, &cluster.client(0).submit("create relation R0"));
    assert!(!resp.is_error(), "create failed: {resp:?}");
    sync_caught(&cluster, &[0, 1], 2_000).expect("initial catch-up");

    // Seeded single-key insert stream: the workload generator's symbolic
    // queries drive the cluster directly.
    let workload = WorkloadSpec {
        transactions: 24,
        relations: 1,
        initial_tuples: 40,
        inserts: 24,
        repr: Repr::List,
        seed: 0xD15C,
    }
    .generate();
    let keys: Vec<i64> = workload
        .queries
        .iter()
        .map(|q| {
            q.strip_prefix("insert ")
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|k| k.parse().ok())
                .expect("insert-only workload")
        })
        .collect();

    // Interleave: batches of single writes, then a cross-shard sequenced
    // transaction, then an immediate all-or-nothing probe of its keys
    // while its acks and replica batches may still be in flight.
    let mut txn_keys = Vec::new();
    for (round, chunk) in keys.chunks(4).enumerate() {
        for (i, (&k, q)) in chunk
            .iter()
            .zip(workload.queries.iter().skip(round * 4))
            .enumerate()
        {
            let client = i % 2;
            let shard = cluster.shard_of(&Value::from(k));
            let resp = wait_chaos(&cluster, &cluster.client(client).submit(q));
            assert!(!resp.is_error(), "workload write {q:?} failed: {resp:?}");
            checker.write_acked(client as u32, shard, k.to_string(), true);
        }
        let group = cross_shard_keys(&cluster, 1_000 + round as i64 * 100, 2);
        submit_txn_checked(&cluster, &checker, 0, &group, "R0");
        probe_txn(&cluster, &checker, 1, &group, "R0");
        txn_keys.push(group);
    }

    sync_caught(&cluster, &[0, 1], 2_000).expect("replicas converge");
    for &k in keys.iter().collect::<std::collections::BTreeSet<_>>() {
        let shard = cluster.shard_of(&Value::from(k));
        let at = checker.now();
        let resp = wait_chaos(
            &cluster,
            &cluster.client(0).submit(&format!("find {k} in R0")),
        );
        checker.read(0, shard, k.to_string(), at, is_present(&resp));
    }
    for group in &txn_keys {
        probe_txn(&cluster, &checker, 0, group, "R0");
    }

    checker.check().unwrap_or_else(|violations| {
        panic!(
            "invariant violations: {violations:#?}\nhistory:\n{}",
            checker.transcript()
        )
    });
    assert!(cluster.stats().chaos.delayed > 0, "delay rules never fired");
    cluster.shutdown();
}

/// Replay contract: the same `(seed, plan)` pair produces a byte-identical
/// client-visible history across two runs in fresh directories — through
/// delays, duplicates, a mid-run partition, and a kill + promote.
#[test]
fn seeded_replay_determinism() {
    fn failover_scenario(tag: &str) -> String {
        let tmp = ScratchDir::new(tag);
        let plan = FaultPlan::seeded(42)
            .rule(EdgeRule::edge(vec![SiteId(0), SiteId(2)], vec![SiteId(4)]).delay(0.3, 3))
            .rule(EdgeRule::edge(SiteId(0), SiteId(1)).duplicate(0.5))
            .rule(EdgeRule::edge(SiteId(2), SiteId(3)).duplicate(0.5))
            .partition(
                Partition::between(vec![SiteId(2)], vec![SiteId(3)])
                    .from_step(64)
                    .heal_at(164),
            );
        let mut cluster = ShardedCluster::start_with_faults(tmp.path(), 2, 1, 2, 1, plan).unwrap();
        let checker = HistoryChecker::new();

        let resp = wait_chaos(&cluster, &cluster.client(0).submit("create relation R"));
        assert!(!resp.is_error(), "create failed: {resp:?}");
        sync_caught(&cluster, &[0, 1], 2_000).expect("initial catch-up");
        for k in 0..12 {
            write_key(&cluster, &checker, 0, k);
        }
        checker.kill(0);
        cluster.kill_primary(0);
        cluster.promote(0, SiteId(1));
        checker.promote(0);
        for k in 12..24 {
            write_key(&cluster, &checker, 0, k);
        }
        let txn = cross_shard_keys(&cluster, 500, 2);
        submit_txn_checked(&cluster, &checker, 0, &txn, "R");

        tick_past(&cluster, 180);
        sync_caught(&cluster, &[1], 2_000).expect("shard 1 converges after heal");
        for k in 0..24 {
            read_key(&cluster, &checker, 0, k);
        }
        probe_txn(&cluster, &checker, 0, &txn, "R");

        checker.check().unwrap_or_else(|violations| {
            panic!(
                "invariant violations: {violations:#?}\nhistory:\n{}",
                checker.transcript()
            )
        });
        cluster.shutdown();
        checker.transcript()
    }

    let first = failover_scenario("chaos-replay-a");
    let second = failover_scenario("chaos-replay-b");
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same (seed, plan) must replay to an identical history"
    );
}

/// The checker is not a rubber stamp: reads served through an *unhealed*
/// partition visibly lose acknowledged writes, and `check` must call it
/// read-your-writes. This doubles as the documentation test for what the
/// merge-order design does NOT tolerate — a replica cut off from its
/// primary serves stale reads until the link heals.
#[test]
fn checker_flags_reads_through_an_active_partition() {
    let tmp = ScratchDir::new("chaos-stale");
    let plan = FaultPlan::seeded(0x57A1E)
        .partition(Partition::between(vec![SiteId(0)], vec![SiteId(1)]).from_step(48));
    let cluster = ShardedCluster::start_with_faults(tmp.path(), 1, 1, 2, 1, plan).unwrap();
    let checker = HistoryChecker::new();

    let resp = wait_chaos(&cluster, &cluster.client(0).submit("create relation R"));
    assert!(!resp.is_error(), "create failed: {resp:?}");
    // 40 writes push the step clock far past 48, so the later replication
    // batches are certainly held when the replica answers the reads below.
    for k in 0..40 {
        write_key(&cluster, &checker, 0, k);
    }
    for k in 0..40 {
        read_key(&cluster, &checker, 0, k);
    }

    let violations = checker
        .check()
        .expect_err("reads through an active partition must violate read-your-writes");
    assert!(
        violations.iter().any(|v| v.contains("read-your-writes")),
        "expected a read-your-writes violation, got: {violations:#?}"
    );
    assert!(cluster.stats().chaos.partitioned > 0);
    cluster.shutdown();
}

/// `sync` is bounded under a fault plan. An unhealed partition holds the
/// replica's catch-up, so the replica buffers every probe and never
/// echoes: `sync` gives up instead of blocking, and the lag it leaves
/// makes `sync_caught` an error.
#[test]
fn sync_returns_when_a_partition_holds_the_catch_up() {
    let tmp = ScratchDir::new("chaos-sync-held");
    let plan =
        FaultPlan::seeded(0x5EED).partition(Partition::between(vec![SiteId(0)], vec![SiteId(1)]));
    let cluster = ShardedCluster::start_with_faults(tmp.path(), 1, 1, 2, 1, plan).unwrap();
    let resp = wait_chaos(&cluster, &cluster.client(0).submit("create relation R"));
    assert!(!resp.is_error(), "create failed: {resp:?}");
    let resp = wait_chaos(&cluster, &cluster.client(0).submit("insert 1 into R"));
    assert!(!resp.is_error(), "insert failed: {resp:?}");
    cluster.sync();
    let (shipped, applied) = cluster.stats().shard_lag[0];
    assert!(
        shipped > applied,
        "lag {shipped}/{applied}: nothing held back"
    );
    assert!(sync_caught(&cluster, &[0], 1).is_err());
    cluster.shutdown();
}

/// One bounded chaos run against a single-shard, single-replica cluster:
/// create, write, settle past every timed fault, converge the replica,
/// read everything back, and check the history. Every exit is an `Err`,
/// never a hang, so the shrinker can afford to re-run candidates.
fn run_plan(tag: &str, plan: &FaultPlan) -> Result<(), String> {
    let tmp = ScratchDir::new(tag);
    let cluster = ShardedCluster::start_with_faults(tmp.path(), 1, 1, 2, 1, plan.clone())
        .map_err(|e| format!("start: {e}"))?;
    let outcome = drive_plan(&cluster, plan);
    cluster.shutdown();
    outcome
}

fn drive_plan(cluster: &ShardedCluster, plan: &FaultPlan) -> Result<(), String> {
    let checker = HistoryChecker::new();
    let resp = try_wait(cluster, &cluster.client(0).submit("create relation R"))?;
    if resp.is_error() {
        return Err(format!("create failed: {resp:?}"));
    }
    // 40 writes are ~120 medium steps — enough traffic to be mid-stream
    // when a partition from the strategy space (steps 48..96) opens.
    for k in 0..40 {
        let resp = try_wait(
            cluster,
            &cluster.client(0).submit(&format!("insert {k} into R")),
        )?;
        if resp.is_error() {
            return Err(format!("insert {k} failed: {resp:?}"));
        }
        checker.write_acked(0, 0, k.to_string(), true);
    }
    if !plan.is_empty() {
        // Settle past every delay window and heal step in the strategy
        // space (delays ≤ 6 steps, heals ≤ 160).
        tick_past(cluster, 600);
    }
    sync_caught(cluster, &[0], 120)?;
    for k in 0..40 {
        let at = checker.now();
        let resp = try_wait(
            cluster,
            &cluster.client(0).submit(&format!("find {k} in R")),
        )?;
        checker.read(0, 0, k.to_string(), at, is_present(&resp));
    }
    checker.check().map(|_| ()).map_err(|v| v.join("; "))
}

/// Greedy plan shrinker (the proptest shim does not shrink): repeatedly
/// drop one rule or partition, keep any candidate that still fails, and
/// stop at a fixpoint — a locally minimal failing plan.
fn shrink_plan(plan: &FaultPlan, fails: &mut dyn FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut cur = plan.clone();
    loop {
        let mut progressed = false;
        for i in 0..cur.rule_count() {
            let candidate = cur.clone().without_rule(i);
            if fails(&candidate) {
                cur = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }
        for i in 0..cur.partition_count() {
            let candidate = cur.clone().without_partition(i);
            if fails(&candidate) {
                cur = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return cur;
        }
    }
}

/// Shrinker meta-test: a plan whose only real problem is an unhealed
/// partition (plus two harmless reply-edge rules) must shrink to exactly
/// the partition — the rules drop out, the counterexample stays.
#[test]
fn shrinker_reduces_failing_plan_to_the_partition_alone() {
    let plan = FaultPlan::seeded(7)
        .rule(EdgeRule::edge(SiteId(0), SiteId(2)).duplicate(0.5))
        .rule(EdgeRule::edge(SiteId(0), SiteId(2)).delay(0.3, 2))
        .partition(Partition::between(vec![SiteId(0)], vec![SiteId(1)]).from_step(48));
    assert!(
        run_plan("chaos-shrink", &plan).is_err(),
        "an unhealed primary/replica partition must fail the run"
    );
    let minimal = shrink_plan(&plan, &mut |p| run_plan("chaos-shrink", p).is_err());
    assert_eq!(minimal.rule_count(), 0, "harmless rules must shrink away");
    assert_eq!(minimal.partition_count(), 1, "the partition must remain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random tolerated fault plans — optional FIFO replication delay,
    /// replication duplicates, reply reorders, and a healing partition
    /// that opens only after catch-up — must all preserve the three
    /// invariants. A failure panics with the shrunk minimal plan, which
    /// replays by construction.
    #[test]
    fn tolerated_fault_plans_preserve_invariants(
        seed in 0u64..1 << 32,
        delay in prop::option::of((prop_oneof![Just(0.3f64), Just(1.0f64)], 1u64..6)),
        duplicate in prop::option::of(Just(0.5f64)),
        reorder in prop::option::of(1u64..4),
        partition in prop::option::of((48u64..96, 8u64..64)),
    ) {
        let mut plan = FaultPlan::seeded(seed);
        if let Some((p, steps)) = delay {
            plan = plan.rule(EdgeRule::edge(SiteId(0), SiteId(1)).delay(p, steps));
        }
        if let Some(p) = duplicate {
            plan = plan.rule(EdgeRule::edge(SiteId(0), SiteId(1)).duplicate(p));
        }
        if let Some(window) = reorder {
            plan = plan.rule(EdgeRule::edge(SiteId(0), SiteId(2)).reorder(0.5, window));
        }
        if let Some((from, span)) = partition {
            plan = plan.partition(
                Partition::between(vec![SiteId(0)], vec![SiteId(1)])
                    .from_step(from)
                    .heal_at(from + span),
            );
        }
        if let Err(e) = run_plan("chaos-prop", &plan) {
            let minimal = shrink_plan(&plan, &mut |p| run_plan("chaos-prop", p).is_err());
            panic!("fault plan violated invariants: {e}\nminimal failing plan: {minimal:#?}");
        }
    }
}
