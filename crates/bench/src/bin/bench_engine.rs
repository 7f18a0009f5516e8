//! Engine hot-path benchmark: absolute throughput and latency of the
//! pipelined engine, plus planner and view comparisons on that engine.
//!
//! Measures end-to-end throughput of [`fundb_core::PipelinedEngine`] —
//! sharded frontier, coalesced write batches, inline fast-path reads with
//! demand-driven forcing — on seeded workloads, in absolute terms: ops/s
//! per pool width and p50/p99 latency. (Whole request paths, per-layer
//! attribution and the regression bounds live in `bench_stack`; this
//! binary keeps the engine-only view of the same hot path.)
//!
//! Four client threads submit concurrently (the paper's multi-user
//! setting, and the scenario the sharded frontier exists for); each
//! client submits its transactions in order and then waits for every
//! response. Throughput counts all transactions over the wall-clock time
//! from first submission to last response. The workload (see
//! [`fundb_workload::HotPathSpec`]) keeps relation sizes flat so
//! per-transaction data work is constant: throughput differences measure
//! engine overhead, not relation-representation cost. A no-engine
//! sequential fold of the same transactions is printed as the floor.
//!
//! A fifth workload, `selective` ([`fundb_workload::SelectiveSpec`]),
//! measures the query planner rather than the engine: equality and range
//! selects on a non-key attribute of a 100k-tuple relation, run against
//! the same pipelined engine over a database without (full scan) and with
//! (index pushdown) a secondary index on that attribute.
//!
//! The `analytic` pair ([`fundb_workload::AnalyticSpec`]) extends that to
//! the cost-based planner's richer access paths over a TPC-H-flavored
//! order/lineitem schema: `analytic_join` measures the star join
//! (build-and-probe vs index nested loop over the join index) and
//! `analytic_point` measures composite point selections (single-column
//! index plus residual filter vs one composite-index probe). Both hold
//! the engine fixed and compare `baseline` vs `planned` databases.
//!
//! The `standing` workload ([`fundb_workload::StandingSpec`]) measures
//! incremental view maintenance: one analytic join repeated over a
//! million-tuple fact relation mutating under it, against the same
//! pipelined engine without (every query recomputes with a full
//! build-and-probe pass) and with (the query scans the differentially
//! maintained `Standing` view) the view materialized. It also measures
//! what maintenance costs the writers: p50/p99 write-path latency for a
//! pure-write fact stream with 0, 1 and 4 views attached, recorded in
//! the JSON as `view_write_overhead`.
//!
//! Run from the repository root to refresh the checked-in record:
//!
//! ```text
//! cargo run --release -p fundb-bench --bin bench_engine
//! ```
//!
//! Output: a table on stdout and `BENCH_engine.json` in the current
//! directory (ops/sec per workload × worker count — for the comparison
//! workloads per side, with the speedup — and a best-row summary per
//! workload).
//!
//! Pass `--smoke` for a fast correctness pass (tiny op counts, one
//! repetition, no JSON written) — this is what CI runs — and
//! `--only <workload>` to restrict the run to one workload.
//!
//! Besides throughput, every workload gets one *instrumented* repetition
//! per side at a fixed pool width: per-transaction submit→response
//! latency is recorded and reported as p50/p99 (µs). Waits happen in
//! submission order, so a response that filled while an earlier one was
//! being awaited is charged the wait-return time — the numbers are
//! observed-completion upper bounds, comparable across sides because
//! both are measured the same way. The engine's hot-path counters ([`fundb_core::EngineStats`]) are printed after the
//! instrumented run, which is how the adaptive regime decisions are
//! checked against real traffic.

use std::time::Instant;

use fundb_core::PipelinedEngine;
use fundb_lenient::Lenient;
use fundb_query::{Response, Transaction};
use fundb_relational::Database;
use fundb_workload::{AnalyticSpec, HotPathSpec, SelectiveSpec, StandingSpec};

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 8000;
const KEY_SPACE: u64 = 64;
/// `batch_heavy` spreads its writes over a much larger key space: claimed
/// runs then hold many distinct keys, which is what the batch's one
/// per-key derivation and the one-pass `merge_batch` kernels exist for.
const BATCH_KEY_SPACE: u64 = 1024;
/// `selective` probes a non-key attribute of one large relation: the scan
/// side pays a full pass per query, the indexed side a posting lookup.
const SELECTIVE_TUPLES: usize = 100_000;
const SELECTIVE_GROUPS: i64 = 1_000;
const SELECTIVE_OPS_PER_CLIENT: usize = 200;
/// `analytic` joins a 500-row order relation against a million-tuple fact
/// relation and point-probes composite attributes of the latter; the
/// baseline side pays a build-and-probe pass (joins) or a residual filter
/// over wide postings (points) per query, so per-query op counts stay
/// small.
const ANALYTIC_ORDERS: usize = 500;
const ANALYTIC_ORDER_SPAN: i64 = 50_000;
const ANALYTIC_LINEITEMS: usize = 1_000_000;
const ANALYTIC_PARTS: i64 = 1_000;
const ANALYTIC_SUPPS: i64 = 10;
const ANALYTIC_JOIN_OPS: usize = 4;
const ANALYTIC_POINT_OPS: usize = 200;
/// `standing` repeats one analytic join over a million-tuple fact
/// relation mutating under it: the recompute side pays a build-and-probe
/// pass over all of `Fact` per query, the view side scans the
/// incrementally-maintained `Standing` view. Per-query costs mirror the
/// analytic join's, so query counts stay small.
const STANDING_DIMS: usize = 500;
const STANDING_DIM_SPAN: i64 = 50_000;
const STANDING_FACTS: usize = 1_000_000;
const STANDING_GROUPS: i64 = 1_000;
const STANDING_ROUNDS: usize = 5;
const STANDING_WRITES: usize = 20;
/// Pure-write stream length per client for the 0/1/4-view write-path
/// overhead measurement.
const OVERHEAD_WRITES: usize = 1_000;
const REPETITIONS: usize = 7;
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];
/// Pool width for the instrumented latency repetition.
const LATENCY_WORKERS: usize = 4;

/// Sizing knobs, scaled down by `--smoke` for a fast CI correctness pass.
struct Config {
    ops_per_client: usize,
    selective_tuples: usize,
    selective_groups: i64,
    selective_ops_per_client: usize,
    analytic_orders: usize,
    analytic_order_span: i64,
    analytic_lineitems: usize,
    analytic_parts: i64,
    analytic_supps: i64,
    analytic_join_ops: usize,
    analytic_point_ops: usize,
    standing_dims: usize,
    standing_dim_span: i64,
    standing_facts: usize,
    standing_groups: i64,
    standing_rounds: usize,
    standing_writes: usize,
    overhead_writes: usize,
    repetitions: usize,
    smoke: bool,
    /// `--only <workload>`: restrict the run to one workload by name.
    only: Option<String>,
}

impl Config {
    fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        let only = args
            .iter()
            .position(|a| a == "--only")
            .and_then(|i| args.get(i + 1).cloned());
        Config {
            ops_per_client: if smoke { 300 } else { OPS_PER_CLIENT },
            selective_tuples: if smoke { 2_000 } else { SELECTIVE_TUPLES },
            selective_groups: if smoke { 50 } else { SELECTIVE_GROUPS },
            selective_ops_per_client: if smoke { 25 } else { SELECTIVE_OPS_PER_CLIENT },
            analytic_orders: if smoke { 50 } else { ANALYTIC_ORDERS },
            analytic_order_span: if smoke { 500 } else { ANALYTIC_ORDER_SPAN },
            analytic_lineitems: if smoke { 5_000 } else { ANALYTIC_LINEITEMS },
            analytic_parts: if smoke { 50 } else { ANALYTIC_PARTS },
            analytic_supps: if smoke { 5 } else { ANALYTIC_SUPPS },
            analytic_join_ops: if smoke { 3 } else { ANALYTIC_JOIN_OPS },
            analytic_point_ops: if smoke { 25 } else { ANALYTIC_POINT_OPS },
            standing_dims: if smoke { 50 } else { STANDING_DIMS },
            standing_dim_span: if smoke { 500 } else { STANDING_DIM_SPAN },
            standing_facts: if smoke { 5_000 } else { STANDING_FACTS },
            standing_groups: if smoke { 50 } else { STANDING_GROUPS },
            standing_rounds: if smoke { 2 } else { STANDING_ROUNDS },
            standing_writes: if smoke { 10 } else { STANDING_WRITES },
            overhead_writes: if smoke { 50 } else { OVERHEAD_WRITES },
            repetitions: if smoke { 1 } else { REPETITIONS },
            smoke,
            only,
        }
    }

    fn runs(&self, workload: &str) -> bool {
        match self.only.as_deref() {
            None => true,
            Some(w) => w == workload,
        }
    }
}

struct CaseSpec {
    relations: usize,
    write_pct: u32,
    replace_pct: u32,
    key_space: u64,
    seed: u64,
}

fn spec(name: &str, case: CaseSpec, ops_per_client: usize) -> (&str, HotPathSpec) {
    (
        name,
        HotPathSpec {
            clients: CLIENTS,
            ops_per_client,
            relations: case.relations,
            key_space: case.key_space,
            write_pct: case.write_pct,
            replace_pct: case.replace_pct,
            seed: case.seed,
        },
    )
}

fn cases(ops_per_client: usize) -> Vec<(&'static str, HotPathSpec)> {
    let case = |relations, write_pct, replace_pct, key_space, seed| CaseSpec {
        relations,
        write_pct,
        replace_pct,
        key_space,
        seed,
    };
    vec![
        // Every client hammers the same single relation with writes: the
        // coalescing stress case.
        spec(
            "write_heavy",
            case(1, 100, 0, KEY_SPACE, 0xbe51),
            ops_per_client,
        ),
        // 4% writes across two relations: the fast-path stress case.
        spec(
            "read_mostly",
            case(2, 4, 0, KEY_SPACE, 0xbe52),
            ops_per_client,
        ),
        spec("mixed", case(3, 50, 0, KEY_SPACE, 0xbe53), ops_per_client),
        // Pure writes (with replaces mixed in) over a wide key space: each
        // coalesced run carries many distinct keys, exercising the per-key
        // derivation and the one-pass merge_batch kernels.
        spec(
            "batch_heavy",
            case(1, 100, 25, BATCH_KEY_SPACE, 0xbe54),
            ops_per_client,
        ),
    ]
}

/// Submits every client's transactions from its own thread and waits for
/// all responses.
fn drive(engine: &PipelinedEngine, clients: Vec<Vec<Transaction>>) {
    std::thread::scope(|s| {
        for ops in clients {
            s.spawn(move || {
                let cells: Vec<Lenient<Response>> =
                    ops.into_iter().map(|tx| engine.submit(tx)).collect();
                // Wait tail-first: responses to one relation fill in
                // submission order, so blocking on the newest cell first
                // means one sleep per burst instead of one per response.
                for cell in cells.iter().rev() {
                    cell.wait();
                }
            });
        }
    });
}

/// One timed run: transaction clones happen off the clock; timing covers
/// submission through the last response only.
fn timed(engine: PipelinedEngine, clients: &[Vec<Transaction>]) -> f64 {
    let total: usize = clients.iter().map(Vec::len).sum();
    let batch = clients.to_vec();
    let start = Instant::now();
    drive(&engine, batch);
    total as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-N throughput for each side (each a fresh engine over its own
/// database), with repetitions interleaved across sides so machine-load
/// epochs (CPU steal on a shared host) hit all alike instead of skewing
/// a ratio.
fn measure<const N: usize>(
    workers: usize,
    sides: [&Database; N],
    clients: &[Vec<Transaction>],
    repetitions: usize,
) -> [f64; N] {
    let mut best = [0.0f64; N];
    for _ in 0..repetitions {
        for (best, db) in best.iter_mut().zip(sides) {
            *best = best.max(timed(PipelinedEngine::new(workers, db), clients));
        }
    }
    best
}

/// One instrumented repetition: per-transaction submit→response latency
/// in microseconds, waits taken in submission order per client (see the
/// module docs for why this is an observed-completion upper bound).
fn latency_side(engine: &PipelinedEngine, clients: &[Vec<Transaction>]) -> (f64, f64) {
    let batch = clients.to_vec();
    let mut lats: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = batch
            .into_iter()
            .map(|ops| {
                s.spawn(move || {
                    let submitted: Vec<(Instant, Lenient<Response>)> = ops
                        .into_iter()
                        .map(|tx| (Instant::now(), engine.submit(tx)))
                        .collect();
                    submitted
                        .into_iter()
                        .map(|(at, cell)| {
                            cell.wait();
                            at.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for h in handles {
            lats.extend(h.join().expect("latency client panicked"));
        }
    });
    lats.sort_by(f64::total_cmp);
    (percentile(&lats, 50.0), percentile(&lats, 99.0))
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The two sides a comparison workload measures — both on the pipelined
/// engine, over databases offering different access paths — or `None` for
/// the hot-path workloads, which report the engine in absolute terms.
fn side_labels_of(workload: &str) -> Option<(&'static str, &'static str)> {
    if workload == "selective" {
        Some(("scan", "indexed"))
    } else if workload.starts_with("analytic") {
        Some(("baseline", "planned"))
    } else if workload == "standing" {
        Some(("recompute", "view"))
    } else {
        None
    }
}

/// Write-path latency (µs) under the pure-write fact stream with 0, 1
/// and 4 maintained views ([`ViewOverhead::VIEW_COUNTS`]), best of the
/// instrumented repetitions per view count.
struct ViewOverhead {
    p50: [f64; 3],
    p99: [f64; 3],
}

impl ViewOverhead {
    const VIEW_COUNTS: [usize; 3] = [0, 1, 4];

    /// p99 write latency increase over the view-free side, in percent.
    fn p99_overhead_pct(&self, i: usize) -> f64 {
        (self.p99[i] - self.p99[0]) / self.p99[0] * 100.0
    }
}

/// The no-engine floor: one thread folding every transaction in sequence.
fn sequential_floor(db: &Database, clients: &[Vec<Transaction>], repetitions: usize) -> f64 {
    let total: usize = clients.iter().map(Vec::len).sum();
    let mut best = 0.0f64;
    for _ in 0..repetitions {
        let batch = clients.to_vec();
        let mut db = db.clone();
        let start = Instant::now();
        for ops in batch {
            for tx in ops {
                let (_, next) = tx.apply(&db);
                db = next;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        best = best.max(total as f64 / secs);
    }
    best
}

/// Throughput of one workload at one pool width: the engine's own ops/s
/// and, for a comparison workload, the baseline side's.
struct Row {
    workload: &'static str,
    workers: usize,
    baseline: Option<f64>,
    ops: f64,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.baseline.map(|b| self.ops / b)
    }
}

/// p50/p99 latency (µs) of one workload at [`LATENCY_WORKERS`] workers,
/// with the baseline side's for a comparison workload.
struct LatencyRow {
    workload: &'static str,
    baseline: Option<(f64, f64)>,
    p50: f64,
    p99: f64,
}

/// Everything one run records.
#[derive(Default)]
struct Results {
    rows: Vec<Row>,
    floors: Vec<(&'static str, f64)>,
    latencies: Vec<LatencyRow>,
}

impl Results {
    /// Measures `name` over `sides` — the measured database last, its
    /// baseline (if any) first — at every pool width, then runs the
    /// instrumented latency repetition per side and prints the measured
    /// side's hot-path counters.
    fn measure<const N: usize>(
        &mut self,
        name: &'static str,
        sides: [&Database; N],
        clients: &[Vec<Transaction>],
        floor_repetitions: usize,
        repetitions: usize,
    ) {
        let labels = side_labels_of(name);
        let floor = sequential_floor(sides[0], clients, floor_repetitions);
        println!("{name:<12} sequential floor: {floor:>12.0} ops/s");
        self.floors.push((name, floor));
        for &workers in &WORKER_COUNTS {
            let best = measure(workers, sides, clients, repetitions);
            let row = Row {
                workload: name,
                workers,
                baseline: labels.map(|_| best[0]),
                ops: best[N - 1],
            };
            match (labels, row.baseline, row.speedup()) {
                (Some((left, right)), Some(base), Some(speedup)) => println!(
                    "{name:<12} workers={workers} {left}={base:>12.0} ops/s  \
                     {right}={:>12.0} ops/s  speedup={speedup:.2}x",
                    row.ops
                ),
                _ => println!("{name:<12} workers={workers} {:>12.0} ops/s", row.ops),
            }
            self.rows.push(row);
        }
        let mut lat = [(0.0, 0.0); N];
        let mut stats = None;
        for (lat, db) in lat.iter_mut().zip(sides) {
            let engine = PipelinedEngine::new(LATENCY_WORKERS, db);
            *lat = latency_side(&engine, clients);
            stats = Some(engine.stats());
        }
        let (p50, p99) = lat[N - 1];
        match labels {
            Some((left, right)) => println!(
                "{name:<12} latency µs (p50/p99) {left}={:.0}/{:.0}  {right}={p50:.0}/{p99:.0}",
                lat[0].0, lat[0].1
            ),
            None => println!("{name:<12} latency µs (p50/p99) {p50:.0}/{p99:.0}"),
        }
        println!(
            "{name:<12} stats: {}",
            stats.expect("at least one side measured")
        );
        self.latencies.push(LatencyRow {
            workload: name,
            baseline: labels.map(|_| lat[0]),
            p50,
            p99,
        });
    }
}

fn main() {
    let config = Config::from_args();
    let mut results = Results::default();
    for (name, case) in cases(config.ops_per_client) {
        if config.runs(name) {
            let reps = config.repetitions;
            results.measure(name, [&case.initial()], &case.all_clients(), reps, reps);
        }
    }
    if config.runs("selective") {
        run_selective(&config, &mut results);
    }
    if config.runs("analytic") {
        run_analytic(&config, &mut results);
    }
    let mut overhead = None;
    if config.runs("standing") {
        overhead = Some(run_standing(&config, &mut results));
    }

    if config.smoke {
        println!(
            "\nsmoke run complete ({} cases); JSON not written",
            results.rows.len()
        );
        return;
    }
    let json = render_json(&results, overhead.as_ref(), &config);
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json ({} cases)", results.rows.len());
}

/// The `selective` workload: equality and range selects on a non-key
/// attribute of a large relation, measured against the same pipelined
/// engine twice — once over a database without an index (full-scan
/// fallback) and once with a secondary index on the probed attribute
/// (planner pushdown). The ratio is the index win, holding the engine
/// constant.
fn run_selective(config: &Config, results: &mut Results) {
    let spec = SelectiveSpec {
        clients: CLIENTS,
        ops_per_client: config.selective_ops_per_client,
        tuples: config.selective_tuples,
        groups: config.selective_groups,
        seed: 0xbe55,
    };
    let scan_db = spec.initial();
    let indexed_db = SelectiveSpec::index(&scan_db);
    let reps = config.repetitions;
    results.measure(
        "selective",
        [&scan_db, &indexed_db],
        &spec.all_clients(),
        reps,
        reps,
    );
}

/// The `analytic` pair: a TPC-H-flavored star join and composite point
/// selections, both run against the same pipelined engine over a
/// `baseline` database (single-column index on `Lineitem#2` only — joins
/// fall back to build-and-probe, composite selections to a residual
/// filter) and a `planned` database (join index plus composite index —
/// index-nested-loop joins and one-probe composite lookups). Each ratio
/// isolates one cost-based planner decision.
fn run_analytic(config: &Config, results: &mut Results) {
    let join_spec = AnalyticSpec {
        clients: CLIENTS,
        ops_per_client: config.analytic_join_ops,
        orders: config.analytic_orders,
        order_span: config.analytic_order_span,
        lineitems: config.analytic_lineitems,
        parts: config.analytic_parts,
        supps: config.analytic_supps,
        seed: 0xbe56,
    };
    let point_spec = AnalyticSpec {
        ops_per_client: config.analytic_point_ops,
        ..join_spec
    };
    let baseline_db = AnalyticSpec::baseline(&join_spec.initial());
    let planned_db = AnalyticSpec::planned(&baseline_db);
    // Baseline joins rebuild an inner map per query, so the whole pair is
    // capped at a few repetitions: best-of-3 is stable for queries this
    // long, and the floor (equally dominated by per-query work) runs once.
    let reps = config.repetitions.min(3);
    let sides = [&baseline_db, &planned_db];
    results.measure(
        "analytic_join",
        sides,
        &join_spec.all_join_clients(),
        1,
        reps,
    );
    results.measure(
        "analytic_point",
        sides,
        &point_spec.all_point_clients(),
        1,
        reps,
    );
}

/// The `standing` workload: the incremental-view-maintenance measurement.
///
/// Each client interleaves fact-relation writes with the standing join
/// query (see [`StandingSpec`]), against the same pipelined engine over
/// a `recompute` database (no view — every query pays a build-and-probe
/// pass over the whole fact relation) and a `view` database (the
/// `Standing` join view is materialized — each write pays one
/// differential maintenance pass over its own transitions, and the query
/// substitutes the view). The ratio is the incremental-maintenance win.
///
/// The returned [`ViewOverhead`] is the companion write-path cost: p50
/// and p99 submit→response latency of a pure-write fact stream with 0,
/// 1 and 4 views attached to the written relation.
fn run_standing(config: &Config, results: &mut Results) -> ViewOverhead {
    let spec = StandingSpec {
        clients: CLIENTS,
        rounds_per_client: config.standing_rounds,
        writes_per_round: config.standing_writes,
        dims: config.standing_dims,
        dim_span: config.standing_dim_span,
        facts: config.standing_facts,
        groups: config.standing_groups,
        seed: 0xbe57,
    };
    let recompute_db = spec.initial();
    let view_db = StandingSpec::materialize(&recompute_db);
    // Recompute-side queries pay a full pass over the fact relation per
    // query, so repetitions are capped like the analytic pair's.
    let reps = config.repetitions.min(3);
    results.measure(
        "standing",
        [&recompute_db, &view_db],
        &spec.all_clients(),
        1,
        reps,
    );

    // What maintenance costs the writers: the same fact relation hammered
    // by a pure-write stream with 0, 1 and 4 views attached. Best-of-reps
    // per view count — p99 on a shared host is noisy, and the overhead
    // ratio needs stable tails on both sides of the division.
    let write_spec = StandingSpec {
        rounds_per_client: 1,
        writes_per_round: config.overhead_writes,
        ..spec
    };
    let write_clients = write_spec.all_write_clients();
    let mut overhead = ViewOverhead {
        p50: [f64::INFINITY; 3],
        p99: [f64::INFINITY; 3],
    };
    for (i, &views) in ViewOverhead::VIEW_COUNTS.iter().enumerate() {
        let db = StandingSpec::maintenance_views(&recompute_db, views);
        for _ in 0..reps {
            let engine = PipelinedEngine::new(LATENCY_WORKERS, &db);
            let (p50, p99) = latency_side(&engine, &write_clients);
            overhead.p50[i] = overhead.p50[i].min(p50);
            overhead.p99[i] = overhead.p99[i].min(p99);
        }
        println!(
            "{:<12} write latency µs (p50/p99) views={views}: {:.0}/{:.0}",
            "standing", overhead.p50[i], overhead.p99[i]
        );
    }
    println!(
        "{:<12} write-path p99 overhead: 1 view {:+.1}%, 4 views {:+.1}%",
        "standing",
        overhead.p99_overhead_pct(1),
        overhead.p99_overhead_pct(2)
    );
    overhead
}

fn render_json(results: &Results, overhead: Option<&ViewOverhead>, config: &Config) -> String {
    let sep = |i: usize, len: usize| if i + 1 == len { "" } else { "," };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"benchmark\": \"pipelined engine hot path (sharded frontier, write coalescing, \
         read fast-path) in absolute ops/s and latency; the selective workload holds the \
         engine fixed and compares full-scan vs secondary-index access paths, the analytic \
         pair compares baseline vs planned access paths (build-and-probe vs \
         index-nested-loop joins, single-column-plus-residual vs composite point probes), \
         and the standing workload compares recomputing an analytic join per query vs \
         scanning an incrementally-maintained materialized view while the fact relation \
         mutates\",\n",
    );
    out.push_str("  \"regenerate\": \"cargo run --release -p fundb-bench --bin bench_engine\",\n");
    out.push_str(&format!(
        "  \"host\": {{\"available_parallelism\": {}}},\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    out.push_str(&format!(
        "  \"clients\": {CLIENTS},\n  \"transactions_per_client\": {},\n  \
         \"repetitions\": {},\n",
        config.ops_per_client, config.repetitions
    ));
    out.push_str("  \"summary\": [\n");
    for (i, (name, floor)) in results.floors.iter().enumerate() {
        let of_workload = results.rows.iter().filter(|r| r.workload == *name);
        let key = |r: &&Row| r.speedup().unwrap_or(r.ops);
        let best = of_workload
            .max_by(|a, b| key(a).total_cmp(&key(b)))
            .expect("each workload has rows");
        let headline = match best.speedup() {
            Some(speedup) => format!("\"best_speedup\": {speedup:.2}"),
            None => format!("\"best_ops_per_sec\": {:.0}", best.ops),
        };
        out.push_str(&format!(
            "    {{\"workload\": \"{name}\", {headline}, \"at_workers\": {}, \
             \"sequential_floor_ops_per_sec\": {floor:.0}}}{}\n",
            best.workers,
            sep(i, results.floors.len())
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"latency_note\": \"submit-to-response percentiles in µs from one instrumented \
         repetition at {LATENCY_WORKERS} workers; waits are taken in submission order, so \
         values are observed-completion upper bounds\",\n"
    ));
    out.push_str("  \"latency_us\": [\n");
    for (i, lat) in results.latencies.iter().enumerate() {
        let sides = match (side_labels_of(lat.workload), lat.baseline) {
            (Some((left, right)), Some((left_p50, left_p99))) => format!(
                "\"{left}_p50\": {left_p50:.1}, \"{left}_p99\": {left_p99:.1}, \
                 \"{right}_p50\": {:.1}, \"{right}_p99\": {:.1}",
                lat.p50, lat.p99
            ),
            _ => format!("\"p50\": {:.1}, \"p99\": {:.1}", lat.p50, lat.p99),
        };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", {sides}}}{}\n",
            lat.workload,
            sep(i, results.latencies.len())
        ));
    }
    out.push_str("  ],\n");
    if let Some(o) = overhead {
        out.push_str(&format!(
            "  \"view_write_overhead\": {{\n    \"note\": \"write-path submit-to-response \
             latency (µs) of a pure-write fact stream with 0, 1 and 4 materialized views \
             attached to the written relation; best of {} instrumented repetitions at {} \
             workers\",\n",
            config.repetitions.min(3),
            LATENCY_WORKERS
        ));
        out.push_str(&format!(
            "    \"p50_us\": {{\"views_0\": {:.1}, \"views_1\": {:.1}, \"views_4\": {:.1}}},\n",
            o.p50[0], o.p50[1], o.p50[2]
        ));
        out.push_str(&format!(
            "    \"p99_us\": {{\"views_0\": {:.1}, \"views_1\": {:.1}, \"views_4\": {:.1}}},\n",
            o.p99[0], o.p99[1], o.p99[2]
        ));
        out.push_str(&format!(
            "    \"p99_overhead_pct\": {{\"views_1\": {:.1}, \"views_4\": {:.1}}}\n  }},\n",
            o.p99_overhead_pct(1),
            o.p99_overhead_pct(2)
        ));
    }
    out.push_str("  \"cases\": [\n");
    for (i, row) in results.rows.iter().enumerate() {
        let sides = match (side_labels_of(row.workload), row.baseline, row.speedup()) {
            (Some((left, right)), Some(base), Some(speedup)) => format!(
                "\"{left}_ops_per_sec\": {base:.0}, \"{right}_ops_per_sec\": {:.0}, \
                 \"speedup\": {speedup:.2}",
                row.ops
            ),
            _ => format!("\"ops_per_sec\": {:.0}", row.ops),
        };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"workers\": {}, {sides}}}{}\n",
            row.workload,
            row.workers,
            sep(i, results.rows.len())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
