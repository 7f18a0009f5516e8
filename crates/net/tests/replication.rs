//! End-to-end replication properties: read routing, the failover
//! invariant (every acknowledged transaction survives promotion), and
//! replica catch-up from a torn local log and from a checkpointed primary
//! — on the replicated cluster, i.e. a [`ShardedCluster`] with one shard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fundb_durable::{fault, DurableEngine, ScratchDir};
use fundb_net::{ClientHandle, ShardedCluster, SiteId};
use fundb_query::{parse, translate, Response, Transaction};
use fundb_relational::{Database, Tuple};

fn tx(q: &str) -> Transaction {
    translate(parse(q).expect("test query parses"))
}

/// The answer to `query`, failing the test rather than hanging when the
/// site serving it never replies (a replica thread that died, say).
fn answer(c: &ClientHandle, query: &str) -> Response {
    c.submit(query)
        .wait_timeout(Duration::from_secs(5))
        .unwrap_or_else(|| panic!("no answer to `{query}` within 5 s"))
        .clone()
}

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

/// Writes ack on the primary; reads round-robin over the replicas and
/// still see every acknowledged write (the Replicate precedes the ack on
/// the medium, so it precedes any later read in every replica's inbox).
#[test]
fn reads_route_to_replicas_and_see_acked_writes() {
    let tmp = ScratchDir::new("repl-reads");
    let cluster = ShardedCluster::start(tmp.path(), 1, 2, 2, 2).unwrap();
    let c = cluster.client(0);
    assert!(!c.submit("create relation R").wait().is_error());
    for k in 0..50 {
        assert!(!c.submit(&format!("insert {k} into R")).wait().is_error());
    }
    // No sync() here on purpose: read-your-writes must hold bare.
    for k in 0..50 {
        assert_found(&c.submit(&format!("find {k} in R")).wait_cloned(), k);
    }
    assert_eq!(*c.submit("count R").wait(), Response::Count(50));
    // Writes may not target a replica.
    let c1 = cluster.client(1);
    assert_eq!(*c1.submit("count R").wait(), Response::Count(50));
    assert!(cluster.stats().shard_lag[0].0 > 0, "no batch was shipped");
    cluster.sync();
    cluster.shutdown();
}

/// A replica is a fold its senders step: once it is caught up and idle,
/// a `find` routed to it is applied, answered and matched to its cell
/// inside `submit`, so the cell is filled when `submit` returns.
#[test]
fn a_replica_read_is_answered_before_submit_returns() {
    let tmp = ScratchDir::new("repl-inline");
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 1).unwrap();
    let c = cluster.client(0);
    assert!(!c.submit("create relation R").wait().is_error());
    assert!(!c.submit("insert 7 into R").wait().is_error());
    cluster.sync();
    let cell = c.submit("find 7 in R");
    assert!(
        cell.is_filled(),
        "the replica read waited for another thread"
    );
    assert_found(cell.wait(), 7);
    cluster.shutdown();
}

/// The failover invariant: kill the primary mid-load, promote a replica,
/// and every transaction that was acknowledged — before or after the
/// failover — is present on the promoted node; the cluster keeps
/// accepting writes.
#[test]
fn promotion_preserves_every_acknowledged_transaction() {
    let tmp = ScratchDir::new("repl-promote");
    let mut cluster = ShardedCluster::start(tmp.path(), 1, 2, 2, 2).unwrap();
    let c = cluster.client(0);
    assert!(!c.submit("create relation R").wait().is_error());

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let c = cluster.client(0);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut acked = Vec::new();
            for k in 0i64.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // Failures are expected around the failover window (the
                // dead primary never answers); only acks count.
                if !c.submit(&format!("insert {k} into R")).wait().is_error() {
                    acked.push(k);
                }
            }
            acked
        })
    };

    std::thread::sleep(Duration::from_millis(50));
    cluster.kill_primary(0);
    cluster.promote(0, SiteId(1));
    // Let the writer run through the failover and land some writes on the
    // promoted primary before stopping it.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let acked = writer.join().unwrap();

    assert!(!acked.is_empty(), "writer never got an ack");
    // Reads round-robin over site 1 (now primary) and site 2 (still a
    // replica): both must hold every acknowledged key.
    let reader = cluster.client(1);
    for &k in &acked {
        assert_found(&reader.submit(&format!("find {k} in R")).wait_cloned(), k);
    }
    // The cluster is live: new writes commit on the promoted primary and
    // replicate onward.
    assert!(!reader.submit("insert 1000000 into R").wait().is_error());
    assert_found(&reader.submit("find 1000000 in R").wait_cloned(), 1_000_000);
    cluster.shutdown();
}

/// A replica whose local log lost its tail (simulated torn write at
/// crash) recovers what it can, and the catch-up snapshot restores the
/// rest: after restart every key is served, from the replica, correctly.
#[test]
fn replica_with_torn_log_catches_up_after_restart() {
    let tmp = ScratchDir::new("repl-torn");
    {
        let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 1).unwrap();
        let c = cluster.client(0);
        assert!(!c.submit("create relation R").wait().is_error());
        for k in 0..40 {
            assert!(!c.submit(&format!("insert {k} into R")).wait().is_error());
        }
        cluster.sync();
        cluster.shutdown();
    }

    // Tear the replica's newest log segment mid-frame.
    let wal_dir = tmp.path().join("shard-0/replica-1/wal");
    let newest = std::fs::read_dir(&wal_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .max()
        .expect("replica wrote no log segments");
    let len = std::fs::metadata(&newest).unwrap().len();
    assert!(len > 5, "segment too short to tear");
    fault::truncate_at(&newest, len - 5).unwrap();

    // Restart over the same directories. With a single replica, every
    // find routes to it — so these reads prove the replica recovered its
    // valid prefix and the snapshot filled in the torn-off suffix.
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 1).unwrap();
    let c = cluster.client(0);
    for k in 0..40 {
        assert_found(&c.submit(&format!("find {k} in R")).wait_cloned(), k);
    }
    assert_eq!(*c.submit("count R").wait(), Response::Count(40));
    assert!(!c.submit("insert 40 into R").wait().is_error());
    assert_found(&c.submit("find 40 in R").wait_cloned(), 40);
    cluster.shutdown();
}

/// A replica bootstrapped from a primary checkpoint that holds a view gets
/// the view back *as a view*: later base writes shipped to the replica
/// keep it maintained, so the replica's answers follow the primary's.
#[test]
fn replica_maintains_a_view_it_caught_up_from_a_checkpoint() {
    let tmp = ScratchDir::new("repl-ckpt-view");
    {
        let (engine, _) = DurableEngine::open(&tmp.path().join("shard-0/primary"), 2).unwrap();
        engine.run([
            tx("create relation R as tree"),
            tx("insert (1, 10) into R"),
            tx("insert (2, 20) into R"),
            tx("create view V as select from R where #1 > 15"),
        ]);
        engine.checkpoint().unwrap();
    }
    // With a single replica, every count and select routes to it.
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 1).unwrap();
    let c = cluster.client(0);
    assert_eq!(answer(&c, "count V"), Response::Count(1));
    assert!(!c.submit("insert (3, 30) into R").wait().is_error());
    assert_eq!(answer(&c, "count V"), Response::Count(2));
    assert_eq!(
        answer(&c, "select from V").tuples().map(|ts| ts.len()),
        Some(2)
    );
    cluster.shutdown();
}

/// A replica whose own log is older than the primary's newest checkpoint
/// restarts, imports the checkpoint and recovers again: it serves keys its
/// own log held, keys only the checkpoint holds, and keys only the
/// primary's log tail holds.
#[test]
fn lagging_replica_restarts_against_a_checkpointed_primary() {
    let tmp = ScratchDir::new("repl-ckpt-lag");
    {
        let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 1).unwrap();
        let c = cluster.client(0);
        assert!(!c.submit("create relation R").wait().is_error());
        for k in 0..20 {
            assert!(!c.submit(&format!("insert {k} into R")).wait().is_error());
        }
        cluster.sync();
        cluster.shutdown();
    }
    // The primary runs on without its replica: writes, a checkpoint, and
    // writes past the checkpoint.
    {
        let (engine, _) = DurableEngine::open(&tmp.path().join("shard-0/primary"), 2).unwrap();
        engine.run((20..40).map(|k| tx(&format!("insert {k} into R"))));
        engine.checkpoint().unwrap();
        engine.run((40..45).map(|k| tx(&format!("insert {k} into R"))));
    }
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 1).unwrap();
    let c = cluster.client(0);
    for k in 0..45 {
        assert_found(&answer(&c, &format!("find {k} in R")), k);
    }
    assert_eq!(answer(&c, "count R"), Response::Count(45));
    cluster.shutdown();
}

/// The one-shard cluster is the spec served over a medium: each query of
/// a client script — DDL, single-key writes and reads, a parse error, a
/// write to a relation that does not exist — draws the reply the
/// sequential fold `translate(parse(q)).apply(db)` from
/// `Database::empty()` gives, and a sequenced transaction applies its
/// writes in the fold's order.
///
/// A transaction is not atomic: the primary submits each of its writes
/// to the engine as a statement of its own, so a refused transaction (one
/// write names a missing relation) still lands its other writes, and the
/// fold takes every sub-write one at a time to match. `find 6 in R` after
/// the refused transaction pins that, so a move to atomic transactions
/// fails here as a deliberate change rather than passing unnoticed.
#[test]
fn one_shard_cluster_answers_a_script_like_the_sequential_fold() {
    enum Step {
        Query(&'static str),
        Txn(&'static [&'static str]),
    }
    use Step::{Query, Txn};
    let script = [
        Query("create relation R"),
        Query("create relation R"),
        Query("insert 1 into R"),
        Query("insert (2, 'two') into R"),
        Query("find 2 in R"),
        Query("find 9 in R"),
        Txn(&["insert 3 into R", "delete 1 from R", "insert 4 into R"]),
        Query("count R"),
        Query("frobnicate everything"),
        Query("insert 5 into Missing"),
        Txn(&["insert 6 into R", "insert 7 into Missing"]),
        Query("find 6 in R"),
        Query("find 1 in R"),
        Query("count R"),
    ];
    let mut db = Database::empty();
    let mut spec = |q: &str| match parse(q) {
        Ok(parsed) => {
            let (response, next) = translate(parsed).apply(&db);
            db = next;
            response
        }
        Err(e) => Response::Error(e.to_string()),
    };

    let tmp = ScratchDir::new("repl-differential");
    let cluster = ShardedCluster::start(tmp.path(), 1, 1, 2, 0).unwrap();
    let c = cluster.client(0);
    let mut got = Vec::new();
    for (i, step) in script.iter().enumerate() {
        match step {
            Query(q) => {
                let reply = c.submit(q).wait_cloned();
                assert_eq!(reply, spec(q), "step {i}: `{q}`");
                got.push(reply);
            }
            Txn(qs) => {
                for q in qs.iter() {
                    spec(q);
                }
                got.push(c.submit_txn(qs).wait_cloned());
            }
        }
    }
    cluster.shutdown();

    // The script did what it says: data, a miss, an applied transaction,
    // a refused one whose other write still landed, and the three kinds
    // of error all appear.
    assert_eq!(got[4].tuples().map(|ts| ts.len()), Some(1));
    assert_eq!(got[6], Response::Applied { ops: 3, shards: 1 });
    assert_eq!(got[7], Response::Count(3));
    for i in [1, 8, 9, 10] {
        assert!(got[i].is_error(), "step {i}: {:?}", got[i]);
    }
    assert_eq!(got[11].tuples().map(|ts| ts.len()), Some(1));
    assert_eq!(got[12], Response::Tuples(Vec::new()));
    assert_eq!(got[13], Response::Count(4));
}
