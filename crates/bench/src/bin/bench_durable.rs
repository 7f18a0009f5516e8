//! Durability benchmark: what group commit and sharing-aware checkpoints
//! actually buy.
//!
//! Two measurements, both against honest baselines:
//!
//! 1. **Group commit vs per-transaction fsync.** The same pipelined
//!    engine, the same write-ahead log, the same workload — the only
//!    difference is the commit sink: the naive sink fsyncs once per
//!    write record, the group sink (the real [`fundb_durable`] store)
//!    fsyncs once per claimed batch. Throughput counts acknowledged
//!    (hence durable) transactions per second.
//!
//! 2. **Incremental vs full checkpoint bytes.** For each relation
//!    backend, a database of `n` tuples is checkpointed from scratch
//!    (the full-snapshot cost), then `k` updates are applied and the
//!    successor version is checkpointed *into the same store*
//!    (the incremental cost — only nodes the store has never seen are
//!    appended). Structural sharing predicts `O(k · log n)` bytes for the
//!    tree backends and `O(pages touched + directory)` for the paged
//!    store; the sorted list copies its prefix on every insert (the
//!    representation the paper argues *against*), so its incremental
//!    checkpoint approaches a full copy — reported honestly as the
//!    baseline the trees beat.
//!
//! Run from the repository root to refresh the checked-in record:
//!
//! ```text
//! cargo run --release -p fundb-bench --bin bench_durable
//! ```
//!
//! Output: a table on stdout and `BENCH_durable.json`.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fundb_core::engine::ConsistentCut;
use fundb_core::{CommitSink, PipelinedEngine};
use fundb_durable::{CheckpointWriter, DurableStore, ScratchDir, Wal};
use fundb_lenient::Lenient;
use fundb_query::{parse, translate, Query, Response, Transaction};
use fundb_relational::{Database, RelationName, Repr, Tuple};

const CLIENTS: usize = 4;
const WRITES_PER_CLIENT: usize = 1000;
const WORKERS: usize = 2;
const REPETITIONS: usize = 3;
const CHECKPOINT_N: usize = 10_000;
const CHECKPOINT_K: usize = 64;

fn tx(q: &str) -> Transaction {
    translate(parse(q).expect("bench query parses"))
}

/// Counts sink calls and records so the table can report fsyncs directly
/// (the group store fsyncs once per `commit_writes` call).
struct CountingSink {
    inner: DurableStore,
    batches: AtomicUsize,
    records: AtomicUsize,
    per_record_fsync: bool,
}

impl CountingSink {
    fn fsyncs(&self) -> usize {
        if self.per_record_fsync {
            self.records.load(Ordering::Relaxed)
        } else {
            self.batches.load(Ordering::Relaxed)
        }
    }
}

impl CommitSink for CountingSink {
    fn commit_writes(&self, relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(writes.len(), Ordering::Relaxed);
        if self.per_record_fsync {
            // The naive protocol: each transaction is individually durable
            // before the next is logged — one fsync per transaction.
            for i in 0..writes.len() {
                self.inner.commit_writes(relation, &writes[i..i + 1])?;
            }
            Ok(())
        } else {
            self.inner.commit_writes(relation, writes)
        }
    }

    fn commit_create(&self, query: &Query) -> io::Result<()> {
        self.inner.commit_create(query)
    }
}

/// One timed run: every client submits its whole stream, then waits; the
/// clock covers first submission to last (durable) acknowledgement.
fn timed(per_record_fsync: bool) -> (f64, usize) {
    let tmp = ScratchDir::new("bench-durable-wal");
    let store = DurableStore::open(tmp.path(), Wal::DEFAULT_SEGMENT_BYTES).expect("open wal");
    let sink = Arc::new(CountingSink {
        inner: store,
        batches: AtomicUsize::new(0),
        records: AtomicUsize::new(0),
        per_record_fsync,
    });
    let initial = Database::empty()
        .create_relation("R", Repr::TREE)
        .expect("fresh database");
    let engine = PipelinedEngine::with_sink(
        WORKERS,
        &initial,
        sink.clone() as Arc<dyn CommitSink>,
        &HashMap::new(),
    );

    let streams: Vec<Vec<Transaction>> = (0..CLIENTS)
        .map(|c| {
            (0..WRITES_PER_CLIENT)
                .map(|i| {
                    tx(&format!(
                        "insert ({}, 'row') into R",
                        c * WRITES_PER_CLIENT + i
                    ))
                })
                .collect()
        })
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();

    let start = Instant::now();
    std::thread::scope(|s| {
        for ops in streams {
            let engine = &engine;
            s.spawn(move || {
                let cells: Vec<Lenient<Response>> =
                    ops.into_iter().map(|t| engine.submit(t)).collect();
                for cell in cells.iter().rev() {
                    cell.wait();
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (total as f64 / secs, sink.fsyncs())
}

fn measure_group_commit() -> GroupCommitResult {
    let (mut naive, mut group) = ((0.0f64, 0usize), (0.0f64, 0usize));
    // Interleaved so load epochs hit both protocols alike.
    for _ in 0..REPETITIONS {
        let n = timed(true);
        if n.0 > naive.0 {
            naive = n;
        }
        let g = timed(false);
        if g.0 > group.0 {
            group = g;
        }
    }
    GroupCommitResult {
        naive_ops_per_sec: naive.0,
        naive_fsyncs: naive.1,
        group_ops_per_sec: group.0,
        group_fsyncs: group.1,
    }
}

struct GroupCommitResult {
    naive_ops_per_sec: f64,
    naive_fsyncs: usize,
    group_ops_per_sec: f64,
    group_fsyncs: usize,
}

impl GroupCommitResult {
    fn speedup(&self) -> f64 {
        self.group_ops_per_sec / self.naive_ops_per_sec
    }
}

/// Full-vs-incremental checkpoint bytes for one backend.
struct CheckpointRow {
    backend: &'static str,
    full_bytes: u64,
    incremental_bytes: u64,
    nodes_written: usize,
    nodes_deduped: usize,
}

impl CheckpointRow {
    fn ratio(&self) -> f64 {
        self.incremental_bytes as f64 / self.full_bytes as f64
    }
}

fn cut_of(db: Database) -> ConsistentCut {
    ConsistentCut {
        database: db,
        seq_marks: HashMap::new(),
    }
}

fn measure_checkpoints() -> Vec<CheckpointRow> {
    let backends: [(&'static str, Repr); 3] = [
        ("btree4", Repr::BTree(4)),
        ("list", Repr::List),
        ("paged64", Repr::Paged(64)),
    ];
    let name = RelationName::new("R");
    backends
        .iter()
        .map(|(label, repr)| {
            let mut db = Database::empty()
                .create_relation("R", *repr)
                .expect("fresh database");
            for i in 0..CHECKPOINT_N {
                let t = Tuple::new(vec![(i as i64).into(), format!("row-{i}").into()]);
                let (next, _) = db.insert(&name, t).expect("insert");
                db = next;
            }

            // k updates on top, touching spread-out keys.
            let mut db2 = db.clone();
            for j in 0..CHECKPOINT_K {
                let key = (j * 157) % CHECKPOINT_N;
                let t = Tuple::new(vec![(key as i64).into(), format!("upd-{j}").into()]);
                let (next, _) = db2.insert(&name, t).expect("insert");
                db2 = next;
            }

            // The incremental cost: checkpoint v1, then v2 into the same
            // store — only the copied paths are appended.
            let shared = ScratchDir::new("bench-durable-ckpt");
            let mut w = CheckpointWriter::open(shared.path()).expect("open checkpoint dir");
            w.write(&cut_of(db)).expect("checkpoint v1");
            let incr = w.write(&cut_of(db2.clone())).expect("checkpoint v2");

            // The full-snapshot cost of the *same* final state, into a
            // fresh store with nothing to share against.
            let fresh = ScratchDir::new("bench-durable-full");
            let mut wf = CheckpointWriter::open(fresh.path()).expect("open fresh dir");
            let full = wf.write(&cut_of(db2)).expect("full checkpoint");

            CheckpointRow {
                backend: label,
                full_bytes: full.total_bytes(),
                incremental_bytes: incr.total_bytes(),
                nodes_written: incr.nodes_written,
                nodes_deduped: incr.nodes_deduped,
            }
        })
        .collect()
}

fn main() {
    println!(
        "group commit: {CLIENTS} clients x {WRITES_PER_CLIENT} durable writes, {WORKERS} workers"
    );
    let gc = measure_group_commit();
    println!(
        "  naive (fsync/txn):  {:>10.0} ops/s  ({} fsyncs)",
        gc.naive_ops_per_sec, gc.naive_fsyncs
    );
    println!(
        "  group (fsync/batch):{:>10.0} ops/s  ({} fsyncs)",
        gc.group_ops_per_sec, gc.group_fsyncs
    );
    println!("  speedup: {:.2}x", gc.speedup());

    println!("\ncheckpoints: n={CHECKPOINT_N} tuples, k={CHECKPOINT_K} updates");
    let rows = measure_checkpoints();
    for r in &rows {
        println!(
            "  {:<8} full={:>9} B  incremental={:>8} B  ratio={:>5.1}%  (+{} nodes, {} shared)",
            r.backend,
            r.full_bytes,
            r.incremental_bytes,
            r.ratio() * 100.0,
            r.nodes_written,
            r.nodes_deduped
        );
    }

    let json = render_json(&gc, &rows);
    std::fs::write("BENCH_durable.json", &json).expect("write BENCH_durable.json");
    println!("\nwrote BENCH_durable.json");
}

fn render_json(gc: &GroupCommitResult, rows: &[CheckpointRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"benchmark\": \"durability: group commit vs per-txn fsync; incremental vs full \
         checkpoint bytes per backend\",\n",
    );
    out.push_str("  \"regenerate\": \"cargo run --release -p fundb-bench --bin bench_durable\",\n");
    out.push_str(&format!(
        "  \"group_commit\": {{\n    \"clients\": {CLIENTS},\n    \"writes_per_client\": \
         {WRITES_PER_CLIENT},\n    \"workers\": {WORKERS},\n    \"repetitions\": {REPETITIONS},\n"
    ));
    out.push_str(&format!(
        "    \"naive_fsync_per_txn_ops_per_sec\": {:.0},\n    \"naive_fsyncs\": {},\n    \
         \"group_commit_ops_per_sec\": {:.0},\n    \"group_fsyncs\": {},\n    \"speedup\": \
         {:.2}\n  }},\n",
        gc.naive_ops_per_sec,
        gc.naive_fsyncs,
        gc.group_ops_per_sec,
        gc.group_fsyncs,
        gc.speedup()
    ));
    out.push_str(&format!(
        "  \"checkpoint\": {{\n    \"tuples\": {CHECKPOINT_N},\n    \"updates\": \
         {CHECKPOINT_K},\n    \"backends\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"backend\": \"{}\", \"full_bytes\": {}, \"incremental_bytes\": {}, \
             \"ratio\": {:.4}, \"incremental_nodes_written\": {}, \"nodes_shared\": {}}}{}\n",
            r.backend,
            r.full_bytes,
            r.incremental_bytes,
            r.ratio(),
            r.nodes_written,
            r.nodes_deduped,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}
