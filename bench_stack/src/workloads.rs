//! The four systems under test: set-up, the calls a request makes, the
//! counters read at window boundaries, and the end-state check.
//!
//! Everything here goes through public functions of the crates, the way a
//! user of the library would.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use fundb_core::{CommitSink, EngineStatsSnapshot, PipelinedEngine};
use fundb_durable::{CheckpointStats, DurableEngine};
use fundb_lenient::Lenient;
use fundb_net::{ClientHandle, ClusterStatsSnapshot, ShardedCluster};
use fundb_query::{parse, translate, Query, Response, Transaction};
use fundb_relational::{BatchOp, Database, Relation, RelationName, Repr, Tuple, Value};

use crate::driver::{Stamps, Target};
use crate::gen::{check, Expect, Op, Shared, Spec, Terminal, Workload};

/// B-tree minimum degree of every loaded relation.
const BTREE_DEGREE: usize = 16;
/// Model entries compared through a cluster client at the end of a run
/// (every entry is compared where a database value is at hand).
const CLUSTER_FIND_SAMPLE: usize = 4_000;
/// Loaded keys no terminal wrote, compared at the end of a run.
const UNTOUCHED_SAMPLE: i64 = 500;

/// Raw counters read at every window boundary; per-layer ratios are taken
/// from the difference over a window.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub engine: Option<EngineStatsSnapshot>,
    /// Group commits seen by the counting sink, and the writes in them.
    pub commits: u64,
    pub commit_ops: u64,
    pub messages: u64,
    pub cluster: Option<ClusterStatsSnapshot>,
}

/// One checkpoint taken at a window start.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSample {
    pub millis: f64,
    pub stats: CheckpointStats,
}

/// What the end-state check found.
#[derive(Debug, Default)]
pub struct Final {
    pub checks: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per relation: name, loaded rows, rows at the end.
    pub sizes: Vec<(String, u64, u64)>,
    /// Bytes in the data directory after a final checkpoint.
    pub disk_bytes: u64,
    /// Milliseconds `DurableEngine::open` took on the final state, and the
    /// log records it replayed (traced ingest run only).
    pub recover: Option<(f64, usize)>,
    /// Batches shipped but not applied by replicas after the final `sync`.
    pub replica_lag: u64,
}

impl Final {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }
}

/// What `finish` needs to judge the final state.
pub struct FinishCtx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub shared: &'a Shared,
    pub terminals: &'a mut [Terminal],
    /// Acknowledged writes to add after a final checkpoint and before the
    /// timed reopen (0 = no recovery probe).
    pub recovery_writes: usize,
}

pub trait System: Target {
    fn counters(&self) -> Counters;
    /// Runs on the coordinating thread at the start of every window.
    fn window_start(&self) -> Option<CheckpointSample> {
        None
    }
    /// The current database value, where the system can hand one out.
    fn snapshot(&self) -> Option<Database> {
        None
    }
    /// Median time of `consistent_cut()` on the live engine, in µs.
    fn cut_us(&self) -> Option<f64> {
        None
    }
    /// Checks the final state against the models, then tears down.
    fn finish(self: Box<Self>, ctx: &mut FinishCtx<'_>) -> Final;
}

pub fn tuple_of(key: i64, rest: &[i64; 3], arity: usize) -> Tuple {
    let mut fields = vec![Value::Int(key)];
    fields.extend(rest[..arity - 1].iter().map(|v| Value::Int(*v)));
    Tuple::new(fields)
}

fn tx(text: &str) -> Transaction {
    translate(
        parse(text).unwrap_or_else(|e| panic!("benchmark statement `{text}` does not parse: {e}")),
    )
}

fn apply_ddl(db: &Database, text: &str) -> Database {
    let (reply, next) = tx(text).apply(db);
    assert!(!reply.is_error(), "`{text}`: {reply}");
    next
}

/// Rows per `apply_batch` call of the in-process bulk load.
const LOAD_BATCH: usize = 4_096;

/// Bulk load through the batch-merge kernel (`Relation::insert` walks the
/// whole tree for its copy report, so one-by-one loading is quadratic).
fn relation_of(rows: impl Iterator<Item = Tuple>) -> Relation {
    let ops: Vec<BatchOp> = rows.map(BatchOp::Insert).collect();
    ops.chunks(LOAD_BATCH)
        .fold(Relation::empty(Repr::BTree(BTREE_DEGREE)), |rel, chunk| {
            rel.apply_batch(chunk).0
        })
}

pub fn loaded_relation(spec: &Spec, seed: u64, rel: u8) -> Relation {
    let arity = spec.arity();
    relation_of(
        (0..spec.rows)
            .map(|k| tuple_of(k, &spec.base_row(seed, rel, k).expect("loaded key"), arity)),
    )
}

/// The loaded state as a database value: what the embedded engines start
/// from, and what the layer probes of the cluster workload run against.
pub fn loaded_database(spec: &Spec, seed: u64) -> Database {
    let mut db = Database::empty();
    if spec.workload == Workload::AnalyticStanding {
        let dim = relation_of((0..spec.dims).map(|d| tuple_of(d, &Spec::dim_row(d), 3)));
        db = db
            .with_relation_value("Dim", dim, None)
            .expect("fresh name");
        db = db
            .with_relation_value("Fact", loaded_relation(spec, seed, 0), None)
            .expect("fresh name");
        for ddl in ANALYTIC_DDL {
            db = apply_ddl(&db, ddl);
        }
    } else {
        for rel in 0..spec.relations as u8 {
            db = db
                .with_relation_value(
                    spec.relation_name(rel),
                    loaded_relation(spec, seed, rel),
                    None,
                )
                .expect("fresh name");
        }
        if spec.workload == Workload::IngestDurable {
            db = apply_ddl(&db, INGEST_INDEX_DDL);
        }
    }
    db
}

/// Index and views of the analytic star: the composite index serves the
/// group select, `Standing` answers the join, `SpendByGroup` is a second
/// view every fact write has to maintain.
const ANALYTIC_DDL: [&str; 3] = [
    "create index by_group on Fact (#2, #3)",
    "create view Standing as join Dim with Fact on #0 = #1",
    "create view SpendByGroup as sum #3 of Fact by #2",
];
/// The ingest workload's second relation carries a secondary index.
const INGEST_INDEX_DDL: &str = "create index by_value on R1 (#1)";

fn time_cuts(engine: &PipelinedEngine) -> f64 {
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(engine.consistent_cut());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&times)
}

/// Compares `db` with the union of the terminal models.
fn verify_database(db: &Database, ctx: &FinishCtx<'_>, out: &mut Final) {
    let spec = ctx.spec;
    let arity = spec.arity();
    let rels: Vec<&Relation> = (0..spec.relations as u8)
        .map(|r| {
            db.relation(&RelationName::from(spec.relation_name(r)))
                .expect("loaded relation")
        })
        .collect();
    let row_ok = |rel: u8, key: i64, want: &Option<[i64; 3]>| {
        let found = rels[rel as usize].find(&Value::Int(key));
        match want {
            None => found.is_empty(),
            Some(rest) => found.len() == 1 && found[0] == tuple_of(key, rest, arity),
        }
    };
    for t in ctx.terminals.iter() {
        for ((rel, key), want) in &t.model {
            out.expect(row_ok(*rel, *key, want), || {
                format!(
                    "final state: {}[{key}] is not {want:?}",
                    spec.relation_name(*rel)
                )
            });
        }
    }
    let written = |rel: u8, key: i64| {
        ctx.terminals
            .iter()
            .any(|t| t.model.contains_key(&(rel, key)))
    };
    for rel in 0..spec.relations as u8 {
        let step = (spec.rows / UNTOUCHED_SAMPLE).max(1);
        for key in (0..spec.rows)
            .step_by(step as usize)
            .filter(|k| !written(rel, *k))
        {
            out.expect(row_ok(rel, key, &spec.base_row(ctx.seed, rel, key)), || {
                format!(
                    "final state: untouched {}[{key}] changed",
                    spec.relation_name(rel)
                )
            });
        }
        let (want, have) = (
            ctx.shared.settled_rows(rel as usize),
            rels[rel as usize].len() as u64,
        );
        out.expect(want == have, || {
            format!(
                "final state: {} holds {have} rows, the models say {want}",
                spec.relation_name(rel)
            )
        });
        out.sizes.push((
            spec.relation_name(rel).to_string(),
            ctx.shared.loaded[rel as usize],
            have,
        ));
    }
    if spec.workload == Workload::AnalyticStanding {
        let standing = db
            .relation(&RelationName::from("Standing"))
            .expect("view exists")
            .len() as u64;
        let want = ctx.shared.settled_join_rows();
        out.expect(standing == want, || {
            format!("final state: Standing holds {standing} rows, the models say {want}")
        });
        out.sizes
            .push(("Standing".into(), ctx.shared.loaded_join, standing));
        // The composite index must agree with the base: group selects
        // through the planner return exactly the model's group sizes.
        for g in (0..spec.groups).step_by((spec.groups / 20).max(1) as usize) {
            let (reply, _) = tx(&format!("select from Fact where #2 = {g}")).apply(db);
            let want = ctx.shared.loaded_group[g as usize]
                + ctx.shared.group_ins[g as usize].load(Relaxed)
                - ctx.shared.group_del[g as usize].load(Relaxed);
            let have = reply.tuples().map_or(u64::MAX, |t| t.len() as u64);
            out.expect(have == want, || {
                format!("final state: group {g} selects {have} rows, the models say {want}")
            });
        }
    }
}

// ---------------------------------------------------------------- embedded

/// `PipelinedEngine` in-process: `oltp_embedded` and `analytic_standing`.
pub struct Embedded {
    engine: PipelinedEngine,
}

impl Embedded {
    pub fn setup(spec: &Spec, seed: u64) -> Embedded {
        Embedded {
            engine: PipelinedEngine::new(2, &loaded_database(spec, seed)),
        }
    }
}

/// Parse and translate on the caller's thread, as an embedding program
/// would; the instants are taken only for traced requests.
fn to_transaction(op: &Op, stamps: Option<&mut Stamps>) -> Transaction {
    let query = parse(&op.text).unwrap_or_else(|e| panic!("`{}` does not parse: {e}", op.text));
    match stamps {
        None => translate(query),
        Some(stamps) => {
            stamps.parsed = Some(Instant::now());
            let tx = translate(query);
            stamps.translated = Some(Instant::now());
            tx
        }
    }
}

impl Target for Embedded {
    fn submit(&self, _thread: usize, op: &Op, stamps: Option<&mut Stamps>) -> Lenient<Response> {
        self.engine.submit(to_transaction(op, stamps))
    }
}

impl System for Embedded {
    fn counters(&self) -> Counters {
        Counters {
            engine: Some(self.engine.stats()),
            ..Counters::default()
        }
    }

    fn snapshot(&self) -> Option<Database> {
        Some(self.engine.snapshot())
    }

    fn cut_us(&self) -> Option<f64> {
        Some(time_cuts(&self.engine))
    }

    fn finish(self: Box<Self>, ctx: &mut FinishCtx<'_>) -> Final {
        let mut out = Final::default();
        verify_database(&self.engine.snapshot(), ctx, &mut out);
        out
    }
}

// ----------------------------------------------------------------- durable

/// Counts group commits from outside, through `attach_sink`.
#[derive(Debug, Default)]
struct CountingSink {
    commits: AtomicU64,
    ops: AtomicU64,
}

impl CommitSink for CountingSink {
    fn commit_writes(&self, _relation: &RelationName, writes: &[(u64, Query)]) -> io::Result<()> {
        self.commits.fetch_add(1, Relaxed);
        self.ops.fetch_add(writes.len() as u64, Relaxed);
        Ok(())
    }

    fn commit_create(&self, _query: &Query) -> io::Result<()> {
        Ok(())
    }
}

/// `DurableEngine` in-process: `ingest_durable`.
pub struct Durable {
    engine: DurableEngine,
    dir: PathBuf,
    sink: Arc<CountingSink>,
}

fn expect_ok(reply: &Response, what: &str) {
    assert!(!reply.is_error(), "set-up: {what}: {reply}");
}

impl Durable {
    pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> io::Result<Durable> {
        let (engine, _) = DurableEngine::open(dir, 2)?;
        for rel in 0..spec.relations as u8 {
            let ddl = format!(
                "create relation {} as btree({BTREE_DEGREE})",
                spec.relation_name(rel)
            );
            expect_ok(engine.submit(tx(&ddl)).wait(), &ddl);
        }
        // Pipelined load: every insert is in flight before the first
        // reply is awaited, so the log sees long group commits.
        let mut cells = Vec::with_capacity(spec.relations * spec.rows as usize);
        for key in 0..spec.rows {
            for rel in 0..spec.relations as u8 {
                let tuple = tuple_of(key, &spec.base_row(seed, rel, key).expect("loaded key"), 2);
                let query = Query::Insert {
                    relation: spec.relation_name(rel).into(),
                    tuple,
                };
                cells.push(engine.submit(translate(query)));
            }
        }
        for cell in &cells {
            expect_ok(cell.wait(), "load insert");
        }
        expect_ok(engine.submit(tx(INGEST_INDEX_DDL)).wait(), INGEST_INDEX_DDL);
        engine.checkpoint()?;
        let sink = Arc::new(CountingSink::default());
        engine.attach_sink(sink.clone());
        Ok(Durable {
            engine,
            dir: dir.to_path_buf(),
            sink,
        })
    }
}

impl Target for Durable {
    fn submit(&self, _thread: usize, op: &Op, stamps: Option<&mut Stamps>) -> Lenient<Response> {
        self.engine.submit(to_transaction(op, stamps))
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl System for Durable {
    fn counters(&self) -> Counters {
        Counters {
            engine: Some(self.engine.engine().stats()),
            commits: self.sink.commits.load(Relaxed),
            commit_ops: self.sink.ops.load(Relaxed),
            ..Counters::default()
        }
    }

    fn window_start(&self) -> Option<CheckpointSample> {
        let t = Instant::now();
        let stats = self.engine.checkpoint().expect("checkpoint during the run");
        Some(CheckpointSample {
            millis: t.elapsed().as_secs_f64() * 1e3,
            stats,
        })
    }

    fn snapshot(&self) -> Option<Database> {
        Some(self.engine.snapshot())
    }

    fn cut_us(&self) -> Option<f64> {
        Some(time_cuts(self.engine.engine()))
    }

    fn finish(self: Box<Self>, ctx: &mut FinishCtx<'_>) -> Final {
        let mut out = Final::default();
        self.engine.checkpoint().expect("final checkpoint");
        out.disk_bytes = dir_bytes(&self.dir);
        if ctx.recovery_writes > 0 {
            // Exactly this many acknowledged writes sit in the log beyond
            // the checkpoint when the store is reopened.
            let mut op = Op::empty();
            let mut pending: Vec<(Lenient<Response>, Expect)> =
                Vec::with_capacity(ctx.recovery_writes);
            let n = ctx.terminals.len();
            for i in 0..ctx.recovery_writes {
                ctx.terminals[i % n].next(ctx.shared, &mut op);
                pending.push((
                    self.engine.submit(to_transaction(&op, None)),
                    op.expect.clone(),
                ));
            }
            for (cell, expect) in &pending {
                let verdict = check(expect, cell.wait(), ctx.shared, ctx.spec.arity());
                out.expect(verdict.is_ok(), || {
                    format!("recovery probe write: {}", verdict.unwrap_err())
                });
            }
        }
        let Durable { engine, dir, .. } = *self;
        drop(engine);
        // The acknowledged state must be what a restart finds on disk.
        let t = Instant::now();
        let (reopened, report) = DurableEngine::open(&dir, 2).expect("reopen the data directory");
        if ctx.recovery_writes > 0 {
            out.recover = Some((t.elapsed().as_secs_f64() * 1e3, report.replayed));
        }
        out.expect(report.wal_stop.is_none(), || {
            format!("reopen: log scan stopped early: {:?}", report.wal_stop)
        });
        verify_database(&reopened.snapshot(), ctx, &mut out);
        out
    }
}

// ----------------------------------------------------------------- cluster

/// `ShardedCluster`: two shard groups, each a durable primary with one
/// replica, two client sites. `oltp_cluster`.
pub struct Clustered {
    cluster: ShardedCluster,
    clients: Vec<ClientHandle>,
    dir: PathBuf,
}

const CLUSTER_WORKERS: usize = 1;
const CLUSTER_REPLICAS: usize = 1;

impl Clustered {
    pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> io::Result<Clustered> {
        let cluster = ShardedCluster::start(
            dir,
            spec.shards,
            spec.threads,
            CLUSTER_WORKERS,
            CLUSTER_REPLICAS,
        )?;
        let clients: Vec<ClientHandle> = (0..spec.threads).map(|i| cluster.client(i)).collect();
        for rel in 0..spec.relations as u8 {
            let ddl = format!(
                "create relation {} as btree({BTREE_DEGREE})",
                spec.relation_name(rel)
            );
            expect_ok(clients[0].submit(&ddl).wait(), &ddl);
        }
        let mut cells = Vec::with_capacity(spec.relations * spec.rows as usize);
        for key in 0..spec.rows {
            for rel in 0..spec.relations as u8 {
                let [value, ..] = spec.base_row(seed, rel, key).expect("loaded key");
                let text = format!("insert ({key}, {value}) into {}", spec.relation_name(rel));
                cells.push(clients[key as usize % clients.len()].submit(&text));
            }
        }
        for cell in &cells {
            expect_ok(cell.wait(), "load insert");
        }
        cluster.sync();
        Ok(Clustered {
            cluster,
            clients,
            dir: dir.to_path_buf(),
        })
    }

    /// Exact row counts and sampled rows, read through a client.
    fn verify_through(client: &ClientHandle, ctx: &FinishCtx<'_>, finds: usize, out: &mut Final) {
        let spec = ctx.spec;
        for rel in 0..spec.relations as u8 {
            let name = spec.relation_name(rel);
            let reply = client.submit(&format!("count {name}")).wait_cloned();
            let want = ctx.shared.settled_rows(rel as usize);
            out.expect(reply == Response::Count(want as usize), || {
                format!("final state: `count {name}` gave {reply}, the models say {want}")
            });
        }
        let entries = ctx
            .terminals
            .iter()
            .flat_map(|t| t.model.iter().map(|((rel, key), row)| (*rel, *key, *row)));
        let untouched = (0..spec.relations as u8).flat_map(|rel| {
            let step = (spec.rows / UNTOUCHED_SAMPLE).max(1) as usize;
            (0..spec.rows).step_by(step).map(move |key| (rel, key))
        });
        let untouched = untouched
            .filter(|(rel, key)| {
                !ctx.terminals
                    .iter()
                    .any(|t| t.model.contains_key(&(*rel, *key)))
            })
            .map(|(rel, key)| (rel, key, spec.base_row(ctx.seed, rel, key)));
        let pending: Vec<_> = entries
            .take(finds)
            .chain(untouched)
            .map(|(rel, key, rest)| {
                let text = format!("find {key} in {}", spec.relation_name(rel));
                (client.submit(&text), Expect::Row { key, rest }, text)
            })
            .collect();
        for (cell, expect, text) in &pending {
            let verdict = check(expect, cell.wait(), ctx.shared, 2);
            out.expect(verdict.is_ok(), || {
                format!("final state: `{text}`: {}", verdict.unwrap_err())
            });
        }
    }
}

impl Target for Clustered {
    fn submit(&self, thread: usize, op: &Op, _stamps: Option<&mut Stamps>) -> Lenient<Response> {
        if op.text2.is_empty() {
            self.clients[thread].submit(&op.text)
        } else {
            self.clients[thread].submit_txn(&[&op.text, &op.text2])
        }
    }
}

impl System for Clustered {
    fn counters(&self) -> Counters {
        Counters {
            messages: self.cluster.message_count(),
            cluster: Some(self.cluster.stats()),
            ..Counters::default()
        }
    }

    fn finish(self: Box<Self>, ctx: &mut FinishCtx<'_>) -> Final {
        let mut out = Final::default();
        self.cluster.sync();
        let lag = self.cluster.stats().shard_lag;
        out.replica_lag = lag
            .iter()
            .map(|(shipped, applied)| shipped.saturating_sub(*applied))
            .sum();
        Self::verify_through(&self.clients[0], ctx, CLUSTER_FIND_SAMPLE, &mut out);
        for rel in 0..ctx.spec.relations {
            let name = ctx.spec.relation_name(rel as u8).to_string();
            out.sizes
                .push((name, ctx.shared.loaded[rel], ctx.shared.settled_rows(rel)));
        }
        let Clustered {
            cluster,
            clients,
            dir,
        } = *self;
        drop(clients);
        cluster.shutdown();
        out.disk_bytes = dir_bytes(&dir);
        // Every shard must recover the acknowledged state from its own
        // directory.
        let spec = ctx.spec;
        match ShardedCluster::start(&dir, spec.shards, 1, CLUSTER_WORKERS, CLUSTER_REPLICAS) {
            Ok(reopened) => {
                Self::verify_through(&reopened.client(0), ctx, CLUSTER_FIND_SAMPLE / 8, &mut out);
                reopened.shutdown();
            }
            Err(e) => out.expect(false, || {
                format!("reopen the cluster's data directory: {e}")
            }),
        }
        out
    }
}

/// Sets the named workload up under `dir` (unused by the embedded ones).
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> io::Result<Box<dyn System>> {
    Ok(match spec.workload {
        Workload::OltpEmbedded | Workload::AnalyticStanding => {
            Box::new(Embedded::setup(spec, seed))
        }
        Workload::IngestDurable => Box::new(Durable::setup(spec, seed, dir)?),
        Workload::OltpCluster => Box::new(Clustered::setup(spec, seed, dir)?),
    })
}
