//! End-to-end sharding properties: key-routed reads and writes, the
//! RESULT-ON pragma pinning execution to the owning site, scatter-gather
//! reads, sequenced transaction atomicity as observed from each shard's
//! read path, and shard-local failover under cross-shard load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fundb_durable::ScratchDir;
use fundb_net::{result_on_prefix, FaultPlan, Partition, ShardedCluster, SiteId};
use fundb_query::Response;
use fundb_relational::{Tuple, Value};
use proptest::prelude::*;

fn assert_found(resp: &Response, key: i64) {
    match resp {
        Response::Tuples(ts) => {
            assert_eq!(
                ts.as_slice(),
                &[Tuple::of_key(key)],
                "key {key} not present"
            );
        }
        other => panic!("find {key} answered {other:?}"),
    }
}

fn is_present(resp: &Response) -> bool {
    match resp {
        Response::Tuples(ts) => !ts.is_empty(),
        other => panic!("find answered {other:?}"),
    }
}

/// Writes route to the owning shard's primary and reads to the owning
/// shard's replicas — so every key written is found again without any
/// sync, the gathered count covers both shards, and a RESULT-ON pinned
/// query executes on the owning site.
#[test]
fn keyed_traffic_routes_to_owning_shards() {
    let tmp = ScratchDir::new("shard-routes");
    let cluster = ShardedCluster::start(tmp.path(), 2, 2, 2, 1).unwrap();
    let c = cluster.client(0);
    assert!(!c.submit("create relation R").wait().is_error());
    for k in 0..40 {
        assert!(!c.submit(&format!("insert {k} into R")).wait().is_error());
    }
    // Per-shard read-your-writes, bare: the owning shard ships before it
    // acks, so its replica has the write queued ahead of any later read.
    for k in 0..40 {
        assert_found(&c.submit(&format!("find {k} in R")).wait_cloned(), k);
    }
    // A scan must gather over every shard — no single shard holds all 40.
    assert_eq!(*c.submit("count R").wait(), Response::Count(40));

    // RESULT-ON: pin a query to the site that owns its key.
    let pinned = result_on_prefix(cluster.owning_site(&Value::from(7i64)), "find 7 in R");
    assert_found(&cluster.client(1).submit(&pinned).wait_cloned(), 7);
    // A write pinned to a replica is refused there: replicas serve reads.
    let to_replica = result_on_prefix(cluster.replica_sites(0)[0], "insert 99 into R");
    match cluster.client(1).submit(&to_replica).wait_cloned() {
        Response::Error(e) => assert!(e.contains("read-only"), "{e}"),
        other => panic!("a replica applied a pinned write: {other}"),
    }
    // A site that serves no shard — one that does not exist, or a client
    // site — is refused before `submit` returns, naming the site.
    for site in [SiteId(99), c.site()] {
        let answer = c.submit(&result_on_prefix(site, "find 7 in R"));
        assert!(answer.is_filled(), "result-on {site} must answer at once");
        match answer.wait() {
            Response::Error(e) => assert!(e.contains(&site.to_string()), "{e}"),
            other => panic!("result-on {site} answered {other}"),
        }
    }

    // Sanity on the partitioning: both shards actually own some keys.
    let on_shard_1 = (0..40i64)
        .filter(|&k| cluster.shard_of(&Value::from(k)) == 1)
        .count();
    assert!(on_shard_1 > 0 && on_shard_1 < 40, "degenerate partitioning");

    cluster.sync();
    let stats = cluster.stats();
    assert_eq!(stats.single_shard_writes, 40);
    assert_eq!(stats.single_shard_reads, 40);
    assert!(stats.gather_reads >= 1, "{stats}");
    assert_eq!(stats.ddl_broadcasts, 1);
    assert_eq!(stats.pragma_pinned, 2);
    for (shard, &(shipped, applied)) in stats.shard_lag.iter().enumerate() {
        assert!(shipped > 0, "shard {shard} never shipped");
        assert_eq!(applied, shipped, "shard {shard} lagging after sync");
    }
    cluster.shutdown();
}

/// `submit_txn` reports how many shards sequenced the writes, takes the
/// direct path when one shard owns every key, and rejects non-writes.
#[test]
fn transactions_classify_and_apply() {
    let tmp = ScratchDir::new("shard-txn");
    let cluster = ShardedCluster::start(tmp.path(), 2, 1, 2, 0).unwrap();
    let c = cluster.client(0);
    assert!(!c.submit("create relation R").wait().is_error());

    // Two keys on different shards → a broadcast, acked by both.
    let k0 = (0..)
        .find(|&k| cluster.shard_of(&Value::from(k)) == 0)
        .unwrap();
    let k1 = (0..)
        .find(|&k| cluster.shard_of(&Value::from(k)) == 1)
        .unwrap();
    let cross = c.submit_txn(&[
        &format!("insert {k0} into R"),
        &format!("insert {k1} into R"),
    ]);
    assert_eq!(*cross.wait(), Response::Applied { ops: 2, shards: 2 });

    // Two keys on one shard → unicast to the owning primary only.
    let k2 = (k0 + 1..)
        .find(|&k| cluster.shard_of(&Value::from(k)) == 0)
        .unwrap();
    let k3 = (k2 + 1..)
        .find(|&k| cluster.shard_of(&Value::from(k)) == 0)
        .unwrap();
    let single = c.submit_txn(&[
        &format!("insert {k2} into R"),
        &format!("insert {k3} into R"),
    ]);
    assert_eq!(*single.wait(), Response::Applied { ops: 2, shards: 1 });

    for k in [k0, k1, k2, k3] {
        assert_found(&c.submit(&format!("find {k} in R")).wait_cloned(), k);
    }

    // Only single-key writes may be sequenced.
    let bad = c.submit_txn(&["count R"]).wait_cloned();
    match bad {
        Response::Error(e) => assert!(e.contains("single-key writes only"), "{e}"),
        other => panic!("expected rejection, got {other}"),
    }
    let stats = cluster.stats();
    assert_eq!(stats.cross_shard_txns, 1);
    assert_eq!(stats.single_shard_txns, 1);
    assert_eq!(stats.sequencer_acks, stats.sequencer_waits);
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Atomicity as each shard's read path observes it: a sequenced
    /// transaction's sub-batch applies at one merge position, so a
    /// concurrent reader polling the transaction's keys on a shard may
    /// see none of them or all of them — never a strict subset. The
    /// reader reads each shard's keys in a fixed order; once any key of
    /// the group is present, every later read in that round must find
    /// its key too (presence is monotone: nothing deletes).
    #[test]
    fn sequenced_txns_read_all_or_nothing_per_shard(
        txn_sizes in prop::collection::vec(2usize..6, 1..4)
    ) {
        let tmp = ScratchDir::new("shard-atomic");
        let cluster = ShardedCluster::start(tmp.path(), 2, 2, 2, 0).unwrap();
        let c = cluster.client(0);
        prop_assert!(!c.submit("create relation R").wait().is_error());

        for (t, &size) in txn_sizes.iter().enumerate() {
            let keys: Vec<i64> = (0..size as i64).map(|j| t as i64 * 100 + j).collect();
            let queries: Vec<String> =
                keys.iter().map(|k| format!("insert {k} into R")).collect();
            let query_refs: Vec<&str> = queries.iter().map(String::as_str).collect();

            // Group the keys as the sequencer will: by owning shard.
            let mut by_shard: Vec<Vec<i64>> = vec![Vec::new(); 2];
            for &k in &keys {
                by_shard[cluster.shard_of(&Value::from(k)) as usize].push(k);
            }

            let done = Arc::new(AtomicBool::new(false));
            let reader = {
                let done = Arc::clone(&done);
                let r = cluster.client(1);
                let by_shard = by_shard.clone();
                std::thread::spawn(move || {
                    let mut rounds = 0u32;
                    while !done.load(Ordering::SeqCst) {
                        for group in by_shard.iter().filter(|g| !g.is_empty()) {
                            let mut seen_present = false;
                            for &k in group {
                                let present = is_present(
                                    &r.submit(&format!("find {k} in R")).wait_cloned(),
                                );
                                assert!(
                                    present || !seen_present,
                                    "shard applied a partial sub-batch: key {k} absent \
                                     while an earlier key of the same transaction is present"
                                );
                                seen_present |= present;
                            }
                        }
                        rounds += 1;
                    }
                    rounds
                })
            };

            let resp = c.submit_txn(&query_refs).wait_cloned();
            done.store(true, Ordering::SeqCst);
            let shards = by_shard.iter().filter(|g| !g.is_empty()).count();
            prop_assert_eq!(resp, Response::Applied { ops: keys.len(), shards });
            reader.join().unwrap();

            // Acked ⇒ durable and visible on every participant.
            for &k in &keys {
                assert_found(&c.submit(&format!("find {k} in R")).wait_cloned(), k);
            }
        }
        cluster.shutdown();
    }
}

/// Shard-local failover under cross-shard load: kill shard 0's primary
/// mid-stream, keep submitting broadcast transactions, promote the
/// replica — every broadcast transaction ever submitted still completes
/// (the promoted primary replays and acks the ones the dead primary
/// never applied), every acked key is present, and the *other* shard
/// never hiccups.
#[test]
fn killing_one_shard_primary_preserves_cross_shard_transactions() {
    let tmp = ScratchDir::new("shard-failover");
    let mut cluster = ShardedCluster::start(tmp.path(), 2, 2, 2, 1).unwrap();
    let c = cluster.client(0);
    assert!(!c.submit("create relation R").wait().is_error());

    // One key per shard per transaction, so every one is a broadcast.
    let shard0: Vec<i64> = (0..)
        .filter(|&k| cluster.shard_of(&Value::from(k)) == 0)
        .take(500)
        .collect();
    let shard1: Vec<i64> = (0..)
        .filter(|&k| cluster.shard_of(&Value::from(k)) == 1)
        .take(500)
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let c = cluster.client(0);
        let stop = Arc::clone(&stop);
        let (shard0, shard1) = (shard0.clone(), shard1.clone());
        std::thread::spawn(move || {
            let mut submitted = Vec::new();
            for i in 0.. {
                if stop.load(Ordering::SeqCst) || i >= shard0.len() {
                    break;
                }
                let (a, b) = (shard0[i], shard1[i]);
                let cell =
                    c.submit_txn(&[&format!("insert {a} into R"), &format!("insert {b} into R")]);
                submitted.push((cell, a, b));
                // Pace: leave the failover window some in-flight traffic
                // rather than one txn hogging the sequencer.
                std::thread::sleep(Duration::from_millis(1));
            }
            submitted
        })
    };

    std::thread::sleep(Duration::from_millis(50));
    cluster.kill_primary(0);
    // The medium is headless for shard 0: broadcasts buffer on its
    // replica while shard 1 keeps acking its halves.
    std::thread::sleep(Duration::from_millis(20));
    let replica = cluster.replica_sites(0)[0];
    cluster.promote(0, replica);
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let submitted = writer.join().unwrap();
    assert!(submitted.len() > 10, "writer barely ran");

    // Every broadcast transaction completes — before, across, and after
    // the failover — because the promoted primary answers for the dead
    // one.
    for (cell, a, b) in &submitted {
        let resp = cell
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("txn ({a},{b}) never resolved"));
        assert_eq!(
            *resp,
            Response::Applied { ops: 2, shards: 2 },
            "txn ({a},{b})"
        );
    }
    let reader = cluster.client(1);
    for (_, a, b) in &submitted {
        assert_found(&reader.submit(&format!("find {a} in R")).wait_cloned(), *a);
        assert_found(&reader.submit(&format!("find {b} in R")).wait_cloned(), *b);
    }

    // The cluster is live on both shards: a fresh cross-shard txn lands.
    let (a, b) = (shard0[499], shard1[499]);
    let resp = reader
        .submit_txn(&[&format!("insert {a} into R"), &format!("insert {b} into R")])
        .wait_cloned();
    assert_eq!(resp, Response::Applied { ops: 2, shards: 2 });

    let stats = cluster.stats();
    assert!(stats.cross_shard_txns > 10, "{stats}");
    assert_eq!(stats.sequencer_acks, stats.sequencer_waits, "{stats}");
    cluster.shutdown();
}

/// A sharded cluster reopened over the same directories recovers every
/// shard's durable state.
#[test]
fn sharded_cluster_recovers_all_shards_after_restart() {
    let tmp = ScratchDir::new("shard-restart");
    {
        let cluster = ShardedCluster::start(tmp.path(), 2, 1, 2, 0).unwrap();
        let c = cluster.client(0);
        assert!(!c.submit("create relation R").wait().is_error());
        for k in 0..30 {
            assert!(!c.submit(&format!("insert {k} into R")).wait().is_error());
        }
        cluster.shutdown();
    }
    let cluster = ShardedCluster::start(tmp.path(), 2, 1, 2, 0).unwrap();
    let c = cluster.client(0);
    for k in 0..30 {
        assert_found(&c.submit(&format!("find {k} in R")).wait_cloned(), k);
    }
    assert_eq!(*c.submit("count R").wait(), Response::Count(30));
    cluster.shutdown();
}

/// Pins the scope of `fail_pending_to` at promotion: only requests whose
/// destination is the *dead* primary are failed. A request in flight to a
/// healthy shard's primary — here held up by a one-way client partition,
/// the network equivalent of a slow link — must survive the other shard's
/// failover untouched and complete once the link heals.
///
/// Site layout (2 shards, 1 replica each): shard 0 = sites 0/1, shard 1 =
/// sites 2/3, clients = sites 4/5.
#[test]
fn promotion_fails_only_requests_bound_for_the_dead_primary() {
    let tmp = ScratchDir::new("shard-fail-scope");
    // Hold client 1's traffic toward shard 1's primary until step 600;
    // everything else flows normally.
    let plan = FaultPlan::seeded(0xFA11).partition(
        Partition::between(vec![SiteId(5)], vec![SiteId(2)])
            .one_way()
            .heal_at(600),
    );
    let mut cluster = ShardedCluster::start_with_faults(tmp.path(), 2, 2, 2, 1, plan).unwrap();
    let c0 = cluster.client(0);
    let c1 = cluster.client(1);
    assert!(!c0.submit("create relation R").wait().is_error());

    let k_shard1 = (0..)
        .find(|&k| cluster.shard_of(&Value::from(k)) == 1)
        .unwrap();
    let k_shard0 = (0..)
        .find(|&k| cluster.shard_of(&Value::from(k)) == 0)
        .unwrap();

    // Client 1's write to the *healthy* shard is admitted but held by the
    // partition — pending against site 2 when the failover happens.
    let held = c1.submit(&format!("insert {k_shard1} into R"));

    // Kill shard 0's primary, then submit a write that routes to the dead
    // site — pending against site 0 with no reply ever coming.
    cluster.kill_primary(0);
    let doomed = c0.submit(&format!("insert {k_shard0} into R"));
    assert!(
        doomed.try_get().is_none(),
        "nothing should answer for a dead primary"
    );

    cluster.promote(0, SiteId(1));

    // fail_pending_to(site 0) resolves the doomed request with an error...
    let resp = doomed
        .wait_timeout(Duration::from_secs(10))
        .expect("promotion must fail requests bound for the dead primary")
        .clone();
    assert!(
        matches!(&resp, Response::Error(e) if e.contains("halted")),
        "expected the promotion error, got {resp:?}"
    );
    // ...but must NOT touch client 1's request to the healthy shard: the
    // step clock is far from 600, so it is still pending, not failed.
    assert!(
        held.try_get().is_none(),
        "a request to a healthy primary was failed by an unrelated promotion: {:?}",
        held.try_get()
    );

    // Tick the fault clock past the heal; the held request is released,
    // shard 1's primary answers, and the write lands.
    let resp = loop {
        if let Some(r) = held.wait_timeout(Duration::from_millis(1)) {
            break r.clone();
        }
        cluster.tick();
    };
    assert!(
        !resp.is_error(),
        "the surviving request must complete after the heal: {resp:?}"
    );
    assert_found(
        &c0.submit(&format!("find {k_shard1} in R")).wait_cloned(),
        k_shard1,
    );
    cluster.shutdown();
}

/// `resp` with a tuple answer in value order — a gather's order.
fn sorted(resp: &Response) -> Response {
    match resp {
        Response::Tuples(ts) => {
            let mut ts = ts.clone();
            ts.sort();
            Response::Tuples(ts)
        }
        other => other.clone(),
    }
}

/// A sharded cluster answers a join or a view definition exactly as the
/// sequential model does, or refuses it: a join on anything but both keys,
/// or on a named field, and a `count`/`sum` view would otherwise gather
/// only the matches and groups inside each shard's partition. The key
/// joins and the select view are partition-local and must be answered.
#[test]
fn statements_a_shard_cannot_answer_locally_are_refused() {
    use fundb_query::{parse, translate};
    use fundb_relational::Database;
    let tmp = ScratchDir::new("shard-refusals");
    let cluster = ShardedCluster::start(tmp.path(), 2, 1, 2, 1).unwrap();
    let c = cluster.client(0);
    let mut spec = Database::empty();
    let mut run = |q: &str, local: bool| {
        let got = c.submit(q).wait_cloned();
        let refused = matches!(&got, Response::Error(e) if e.starts_with("a sharded cluster"));
        assert!(!(local && refused), "{q} is partition-local: {got}");
        if !refused {
            let (expected, next) = translate(parse(q).unwrap()).apply(&spec);
            spec = next;
            assert_eq!(sorted(&got), sorted(&expected), "{q}");
        }
    };
    run("create relation L(id, grp)", true);
    run("create relation R(id, grp)", true);
    for k in 0..8 {
        run(&format!("insert ({k}, {}) into L", k % 2), true);
        run(&format!("insert ({k}, {}) into R", k % 2), true);
    }
    for (q, local) in [
        ("join L with R", true),
        ("join L with R on #0 = #0", true),
        ("join L with R on #1 = #1", false),
        ("join L with R on #1 = #0", false),
        ("join L with R on id = id", false),
        ("join L with R on grp = grp", false),
        ("create view K as join L with R on #0 = #0", true),
        ("create view S as select from L where #1 = 1", true),
        ("create view J as join L with R on #1 = #1", false),
        ("create view N as join L with R on id = id", false),
        ("create view G as count L by #1", false),
        ("create view T as sum #0 of L by #1", false),
    ] {
        run(q, local);
    }
    for k in 8..12 {
        run(&format!("insert ({k}, {}) into L", k % 2), true);
        run(&format!("insert ({k}, 0) into R"), true);
    }
    run("delete 3 from L", true);
    for v in ["K", "S", "J", "N", "G", "T"] {
        run(&format!("select from {v}"), false);
    }
    cluster.shutdown();
}
