//! Durability across restarts (Section 3.3 made operational).
//!
//! The engine's state is a persistent value; the durable layer writes that
//! value's *changes* to disk — every write batch goes to the write-ahead
//! log with one fsync (group commit), and checkpoints serialize the
//! version trees with content-addressed nodes so shared structure is
//! stored once. This example runs three "process lifetimes" against the
//! same directory:
//!
//! 1. create relations, insert, checkpoint, insert more, then "crash";
//! 2. reopen — recovery loads the checkpoint and replays the log tail —
//!    and keep working;
//! 3. reopen once more to show recovery is idempotent and numbering
//!    resumes.
//!
//! Each lifetime asserts the counts it expects, so a recovery that loses
//! or duplicates an acknowledged write fails the run.
//!
//! Run with: `cargo run --example durable_restart`

use fundb::durable::{DurableEngine, ScratchDir};
use fundb::prelude::*;

fn tx(q: &str) -> Transaction {
    translate(parse(q).expect("example query parses"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scratch directory standing in for the database's data dir.
    let dir = ScratchDir::new("durable-restart-example").keep();
    println!("data dir: {}\n", dir.display());

    // ---- lifetime 1: build state, checkpoint, write past it, crash ----
    {
        let (engine, report) = DurableEngine::open(&dir, 2)?;
        println!("first open: {report:?}");
        engine.run([
            tx("create relation Emp(id, name) as tree"),
            tx("create relation Log as list"),
        ]);
        engine.run((0..500).map(|i| tx(&format!("insert ({i}, 'emp-{i}') into Emp"))));

        let stats = engine.checkpoint()?;
        println!(
            "checkpoint #{}: {} nodes, {} bytes",
            stats.manifest,
            stats.nodes_written,
            stats.total_bytes()
        );

        // These land only in the log; the next recovery must replay them.
        engine.run([
            tx("insert (500, 'post-checkpoint hire') into Emp"),
            tx("insert (1, 'audit entry') into Log"),
        ]);
        // `run` returned, so every response arrived — and a response is
        // only sent after the transaction's batch is fsynced. Dropping
        // the engine here without another checkpoint is a "crash":
        // everything acknowledged must survive anyway.
    }

    // ---- lifetime 2: recover and verify ----
    let (engine, report) = DurableEngine::open(&dir, 2)?;
    println!(
        "\nsecond open: checkpoint #{}, replayed {} records, skipped {}",
        report.checkpoint_manifest.expect("lifetime 1 checkpointed"),
        report.replayed,
        report.skipped
    );
    let (resp, _) = tx("count Emp").apply(&engine.snapshot());
    println!("count Emp after recovery: {resp}");
    assert_eq!(resp, Response::Count(501), "lifetime 1 wrote 501 rows");
    let (resp, _) = tx("find 500 in Emp").apply(&engine.snapshot());
    println!("the post-checkpoint write survived: {resp}");
    assert_eq!(resp.tuples().map(|ts| ts.len()), Some(1));

    // An incremental checkpoint of the recovered state: content
    // addressing means the unchanged structure costs nothing new.
    let stats = engine.checkpoint()?;
    println!(
        "incremental checkpoint #{}: {} new nodes, {} shared, {} bytes",
        stats.manifest,
        stats.nodes_written,
        stats.nodes_deduped,
        stats.total_bytes()
    );
    engine.run([tx("insert (501, 'second-lifetime hire') into Emp")]);
    drop(engine);

    // ---- lifetime 3: idempotent recovery, numbering resumes ----
    let (engine, report) = DurableEngine::open(&dir, 2)?;
    let cut = engine.consistent_cut();
    println!(
        "\nthird open: replayed {} records; Emp write-sequence mark = {}",
        report.replayed,
        cut.seq_marks[&"Emp".into()]
    );
    let (resp, _) = tx("count Emp").apply(&cut.database);
    println!("count Emp: {resp}");
    assert_eq!(resp, Response::Count(502), "lifetime 2 added one row");
    assert_eq!(cut.seq_marks[&"Emp".into()], 502, "numbering resumes");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
