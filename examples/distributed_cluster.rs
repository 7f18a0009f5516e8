//! A distributed cluster: the primary-site model over a broadcast medium
//! (Section 3, Figure 3-1).
//!
//! Terminals at three sites submit symbolic queries onto the shared medium;
//! the medium *is* one large merge; the primary site at site 0 `choose`s
//! the requests addressed to it, serializes them through the pipelined
//! functional engine, and mails replies back; each terminal `choose`s its
//! own replies. Figure 3-1 is a one-shard cluster with no replicas.
//!
//! Run with: `cargo run --example distributed_cluster`

use fundb::durable::ScratchDir;
use fundb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One shard, three client sites, four engine workers, no replicas: the
    // primary at site 0, the terminals at sites 1..=3.
    let dir = ScratchDir::new("distributed-cluster-example");
    let cluster = ShardedCluster::start(dir.path(), 1, 3, 4, 0)?;
    let setup = cluster.client(0);
    for ddl in [
        "create relation Parts as list",
        "create relation Orders as list",
    ] {
        if let Response::Error(e) = setup.submit(ddl).wait() {
            return Err(format!("{ddl}: {e}").into());
        }
    }

    // Each site runs its own terminal thread.
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let client = cluster.client(i);
            std::thread::spawn(move || {
                let mut replies = Vec::new();
                match i {
                    0 => {
                        // Warehouse: stock parts.
                        for p in 0..10 {
                            replies.push(client.submit(&format!(
                                "insert ({p}, 'part-{p}', {}) into Parts",
                                p * 100
                            )));
                        }
                    }
                    1 => {
                        // Sales: record orders.
                        for o in 0..6 {
                            replies.push(
                                client.submit(&format!("insert ({o}, {}) into Orders", o % 3)),
                            );
                        }
                    }
                    _ => {
                        // Analyst: read-only queries.
                        replies.push(client.submit("count Parts"));
                        replies.push(client.submit("select from Orders where #1 = 0"));
                        replies.push(client.submit("find 4 in Parts"));
                    }
                }
                replies
                    .into_iter()
                    .map(|cell| cell.wait_cloned())
                    .collect::<Vec<Response>>()
            })
        })
        .collect();

    for (i, h) in handles.into_iter().enumerate() {
        println!("== site {} replies ==", i + 1);
        for r in h.join().expect("terminal thread") {
            println!("  {r}");
        }
    }

    // Final consistency check through a fresh request.
    let checker = cluster.client(0);
    println!("\nfinal: {}", checker.submit("count Parts").wait());
    println!("final: {}", checker.submit("count Orders").wait());
    println!("messages on the medium: {}", cluster.message_count());
    let served = cluster.shutdown();
    println!("primary site served {served} transactions");

    // Section 3.2's site pragmas: placement is a *pragma*, not semantics.
    // RESULT-ON evaluates an expression on a chosen site; MY-SITE tells the
    // expression where it is running.
    use fundb::net::{my_site, SiteId, SitePool};
    let sites = SitePool::new(4);
    let here = my_site(); // the main thread belongs to no site
    let on_site_2 = sites.result_on(SiteId(2), || {
        format!("computed on {}", my_site().expect("inside a site").0)
    });
    println!("\nRESULT-ON demo: main thread site = {here:?}; {on_site_2}");
    Ok(())
}
