//! Metric names, units, directions and bounds, and how each is computed
//! from what a run recorded. `BENCHMARK.json` carries the same tables.

use crate::driver::{Plan, StageSums, ThreadLog};
use crate::gen::Class;
use crate::stats::{median, percentile, Summary};
use fundb_core::EngineStatsSnapshot;
use fundb_net::ClusterStatsSnapshot;

use crate::workloads::{CheckpointSample, Counters};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees, reported for every workload.
/// The 99th percentile is not among them: it did not repeat within any
/// bound the driver allows (README.md, "Why every bound is 25 %"), so it is
/// the per-layer metric `client.all.p99_us` of the traced run.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("p50_us", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run. A metric that does not apply to
/// a workload (no WAL, no medium, no view…) is reported as 0 there.
pub const PER_LAYER: [MetricDef; 68] = [
    layer("client.read.p50_us", "us", Lower),
    layer("client.read.p99_us", "us", Lower),
    layer("client.write.p50_us", "us", Lower),
    layer("client.write.p99_us", "us", Lower),
    layer("client.txn.p50_us", "us", Lower),
    layer("client.txn.p99_us", "us", Lower),
    layer("client.gather.p50_us", "us", Lower),
    layer("client.join.p50_us", "us", Lower),
    layer("client.join.p99_us", "us", Lower),
    layer("client.select.p50_us", "us", Lower),
    layer("client.select.p99_us", "us", Lower),
    layer("client.all.p99_us", "us", Lower),
    layer("client.submit_call_us", "us", Lower),
    layer("client.wait_us", "us", Lower),
    layer("client.gen_overhead_us", "us", Lower),
    layer("query.parse_ns", "ns", Lower),
    layer("query.translate_ns", "ns", Lower),
    layer("query.plan_ns", "ns", Lower),
    layer("query.path_scan_share", "ratio", Lower),
    layer("query.view_subst_per_join", "ratio", Higher),
    layer("relational.apply_write_ns", "ns", Lower),
    layer("relational.apply_read_ns", "ns", Lower),
    layer("relational.batch_ns_per_op", "ns", Lower),
    layer("relational.index_ns_per_transition", "ns", Lower),
    layer("relational.view_ns_per_transition", "ns", Lower),
    layer("relational.scan_ns_per_row", "ns", Lower),
    layer("persist.find_ns", "ns", Lower),
    layer("persist.nodes_copied_per_write", "count", Lower),
    layer("persist.nodes_copied_per_batched_write", "count", Lower),
    layer("lenient.pool_handoff_us", "us", Lower),
    layer("lenient.cell_wake_us", "us", Lower),
    layer("core.spec_ops_per_s", "1/s", Higher),
    layer("core.frontier_hit_ratio", "ratio", Higher),
    layer("core.avg_batch_len", "count", Higher),
    layer("core.bypass_share", "ratio", Higher),
    layer("core.chained_claim_share", "ratio", Higher),
    layer("core.seals_by_reader_per_read", "ratio", Lower),
    layer("core.cut_us", "us", Lower),
    layer("durable.ops_per_commit", "count", Higher),
    layer("durable.commits_per_s", "1/s", Higher),
    layer("durable.wal_bytes_per_op", "B", Lower),
    layer("durable.wal_encode_ns_per_record", "ns", Lower),
    layer("durable.wal_append_us.b1", "us", Lower),
    layer("durable.wal_append_us.b16", "us", Lower),
    layer("durable.wal_append_us.b256", "us", Lower),
    layer("durable.checkpoint_ms", "ms", Lower),
    layer("durable.checkpoint_bytes_per_write", "B", Lower),
    layer("durable.checkpoint_dedup_ratio", "ratio", Higher),
    layer("durable.disk_bytes_per_user_byte", "ratio", Lower),
    layer("durable.recover_ms", "ms", Lower),
    layer("durable.recover_records_per_s", "1/s", Higher),
    layer("net.msgs_per_op", "count", Lower),
    layer("net.medium_hop_us", "us", Lower),
    layer("net.route_ns", "ns", Lower),
    layer("net.read_replica_share", "ratio", Higher),
    layer("net.batches_shipped_per_write", "ratio", Lower),
    layer("net.replica_lag_batches", "count", Lower),
    layer("net.seq_acks_per_txn", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
    layer("trace.span_sum_error", "ratio", Lower),
    layer("fail_ratio", "ratio", Lower),
    layer("client.samples_per_window", "count", Higher),
    layer("client.harness_share", "ratio", Lower),
    layer("client.blocked_share", "ratio", Higher),
    layer("relational.bulk_load_ns_per_row.large", "ns", Lower),
    layer("persist.find_ns.large", "ns", Lower),
    layer("relational.batch_ns_per_op.large", "ns", Lower),
    layer("relational.apply_write_ns.large", "ns", Lower),
];

/// A window must hold this many samples, so that at least ten lie beyond
/// its 99th percentile.
pub const MIN_WINDOW_SAMPLES: usize = 1_000;
/// Harness time (generating, checking, sweeping) above this share of the
/// generator threads' time means the numbers measure the harness.
pub const MAX_HARNESS_SHARE: f64 = 0.25;
/// Relation sizes may drift this far from the loaded size during a run.
pub const MAX_SIZE_DRIFT: f64 = 0.02;
/// Span self-times must add up to the root span within this share.
pub const MAX_SPAN_SUM_ERROR: f64 = 0.01;
/// Traced windows should reach this share of the untraced windows'
/// throughput, else the spans are too fine. A run that misses it says so
/// and goes on.
pub const MIN_TRACE_RATIO: f64 = 0.95;

/// One reported value: the median of the metric's per-window values (of
/// the set-ups, for `setup_s`), so that a transient stall of a shared host
/// spoils one window and not the figure. The inter-quartile spread and the
/// count go with it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
    /// The per-window values the median was taken over.
    pub windows: Vec<f64>,
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

pub fn reported(name: &str, windows: Vec<f64>) -> Reported {
    let def = def_of(name);
    let summary = Summary::of(&windows);
    Reported {
        name: def.name,
        unit: def.unit,
        value: summary.median,
        summary,
        windows,
    }
}

/// Latencies of every window, all classes together and per class, sorted.
pub struct WindowLatencies {
    pub all: Vec<Vec<u32>>,
    pub by_class: Vec<[Vec<u32>; Class::COUNT]>,
}

impl WindowLatencies {
    pub fn collect(logs: &[ThreadLog], windows: usize) -> WindowLatencies {
        let mut all = vec![Vec::new(); windows];
        let mut by_class: Vec<[Vec<u32>; Class::COUNT]> =
            (0..windows).map(|_| Default::default()).collect();
        for log in logs {
            for s in &log.samples {
                all[s.window as usize].push(s.lat_ns);
                by_class[s.window as usize][s.class as usize].push(s.lat_ns);
            }
        }
        for w in 0..windows {
            all[w].sort_unstable();
            by_class[w].iter_mut().for_each(|v| v.sort_unstable());
        }
        WindowLatencies { all, by_class }
    }
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

/// Every window must hold enough samples for a 99th percentile; a run with
/// a starved window is no steady state.
fn check_window_samples(lat: &WindowLatencies) -> Result<(), String> {
    if lat.all.iter().any(|v| v.len() < MIN_WINDOW_SAMPLES) {
        let sizes: Vec<usize> = lat.all.iter().map(Vec::len).collect();
        return Err(format!(
            "a window holds fewer than the {MIN_WINDOW_SAMPLES} samples a 99th percentile needs: {sizes:?}"
        ));
    }
    Ok(())
}

/// `ops_per_s` and `p50_us`, each computed per window.
pub fn end_to_end(lat: &WindowLatencies, plan: &Plan) -> Result<Vec<Reported>, String> {
    check_window_samples(lat)?;
    let secs = plan.window.as_secs_f64();
    Ok(vec![
        reported(
            "ops_per_s",
            lat.all.iter().map(|v| v.len() as f64 / secs).collect(),
        ),
        reported(
            "p50_us",
            lat.all.iter().map(|v| us(percentile(v, 50.0))).collect(),
        ),
    ])
}

/// Per-window sums over all generator threads.
pub fn stage_sums(logs: &[ThreadLog], windows: usize) -> Vec<StageSums> {
    (0..windows)
        .map(|w| {
            let mut sum = StageSums::default();
            logs.iter().for_each(|log| sum.add(&log.stages[w]));
            sum
        })
        .collect()
}

/// Share of the generator threads' time that went into the harness itself.
pub fn harness_share(stages: &[StageSums], plan: &Plan, threads: usize) -> f64 {
    let spent: u64 = stages.iter().map(|s| s.gen_ns).sum();
    spent as f64 / (plan.measured().as_nanos() as f64 * threads as f64)
}

/// A metric with no window to report (a class the mix lacks, a counter the
/// system does not have) reads 0.
fn or_zero(values: Vec<f64>) -> Vec<f64> {
    if values.is_empty() {
        vec![0.0]
    } else {
        values
    }
}

/// `f(w, start, end)` over the counters at both ends of every window `w`;
/// windows for which it has no value (a denominator that did not move) are
/// left out.
fn per_window(
    counters: &[Counters],
    f: impl Fn(usize, &Counters, &Counters) -> Option<f64>,
) -> Vec<f64> {
    let pairs = counters.windows(2).enumerate();
    or_zero(pairs.filter_map(|(w, c)| f(w, &c[0], &c[1])).collect())
}

/// [`per_window`] over the engine's own counters.
fn per_window_engine(
    counters: &[Counters],
    f: impl Fn(usize, &EngineStatsSnapshot, &EngineStatsSnapshot) -> Option<f64>,
) -> Vec<f64> {
    per_window(counters, |w, a, b| {
        f(w, a.engine.as_ref()?, b.engine.as_ref()?)
    })
}

fn delta_ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Everything the traced run reports besides the probe pass.
pub struct TracedInput<'a> {
    pub plan: &'a Plan,
    pub threads: usize,
    pub lat: &'a WindowLatencies,
    pub stages: &'a [StageSums],
    /// Counters at the start of every window and at the end of the last.
    pub counters: &'a [Counters],
    pub checkpoints: &'a [CheckpointSample],
}

pub fn traced_metrics(input: &TracedInput<'_>) -> Result<Vec<Reported>, String> {
    let mut out = Vec::new();
    let TracedInput {
        plan,
        lat,
        stages,
        counters,
        ..
    } = input;
    let windows = plan.windows;

    // client: per-class latencies over all windows, traced or not.
    let class_pct = |class: Class, p: f64| -> Vec<f64> {
        let by_window = (0..windows).map(|w| &lat.by_class[w][class as usize]);
        or_zero(
            by_window
                .filter(|v| !v.is_empty())
                .map(|v| us(percentile(v, p)))
                .collect(),
        )
    };
    for (class, with_p99) in [
        (Class::Read, true),
        (Class::Write, true),
        (Class::Txn, true),
        (Class::Gather, false),
        (Class::Join, true),
        (Class::Select, true),
    ] {
        let name = |p: &str| format!("client.{}.{p}_us", class.name());
        out.push(reported(&name("p50"), class_pct(class, 50.0)));
        if with_p99 {
            out.push(reported(&name("p99"), class_pct(class, 99.0)));
        }
    }
    out.push(reported(
        "client.all.p99_us",
        lat.all.iter().map(|v| us(percentile(v, 99.0))).collect(),
    ));
    out.push(reported(
        "client.samples_per_window",
        lat.all.iter().map(|v| v.len() as f64).collect(),
    ));

    // client: span self-times of the traced windows. The children
    // partition the root span; their sum must meet it.
    // (A request issued in a traced window may retire in the untraced one
    // after it; those few are long ones and no sample of their window.)
    let traced: Vec<&StageSums> = (0..windows)
        .filter(|w| plan.window_is_traced(*w) && stages[*w].traced > 0)
        .map(|w| &stages[w])
        .collect();
    if traced.is_empty() {
        return Err("no traced request was recorded".into());
    }
    let mean_us = |f: fn(&StageSums) -> u64| {
        traced
            .iter()
            .map(|s| f(s) as f64 / s.traced as f64 / 1e3)
            .collect::<Vec<_>>()
    };
    out.push(reported(
        "client.submit_call_us",
        mean_us(|s| s.t_submit_ns),
    ));
    out.push(reported("client.wait_us", mean_us(|s| s.t_wait_ns)));
    out.push(reported("client.gen_overhead_us", mean_us(|s| s.t_gen_ns)));
    let span_error: Vec<f64> = traced
        .iter()
        .map(|s| {
            let parts = s.t_gen_ns + s.t_parse_ns + s.t_translate_ns + s.t_submit_ns + s.t_wait_ns;
            (parts as f64 - s.t_root_ns as f64).abs() / s.t_root_ns.max(1) as f64
        })
        .collect();
    let worst = span_error.iter().copied().fold(0.0, f64::max);
    if worst > MAX_SPAN_SUM_ERROR {
        return Err(format!(
            "span self-times miss the root span by {:.2} %; they must partition it",
            worst * 100.0
        ));
    }
    out.push(reported("trace.span_sum_error", span_error));
    let window_ns = plan.window.as_nanos() as f64 * input.threads as f64;
    out.push(reported(
        "client.harness_share",
        stages.iter().map(|s| s.gen_ns as f64 / window_ns).collect(),
    ));
    out.push(reported(
        "client.blocked_share",
        stages
            .iter()
            .map(|s| s.blocked_ns as f64 / window_ns)
            .collect(),
    ));

    // trace: throughput of traced against untraced windows of this run.
    let rate = |want: bool| -> Vec<f64> {
        (0..windows)
            .filter(|w| plan.window_is_traced(*w) == want)
            .map(|w| lat.all[w].len() as f64)
            .collect()
    };
    let overhead = median(&rate(true)) / median(&rate(false));
    out.push(reported("trace.overhead_ratio", vec![overhead]));

    // core and query: ratios of the engine's own counters, per window.
    let eng = |f: fn(&EngineStatsSnapshot, &EngineStatsSnapshot) -> Option<f64>| {
        per_window_engine(counters, |_, a, b| f(a, b))
    };
    out.push(reported(
        "core.frontier_hit_ratio",
        eng(|a, b| {
            let (hit, miss) = (
                b.frontier_hits - a.frontier_hits,
                b.frontier_misses - a.frontier_misses,
            );
            delta_ratio(hit, hit + miss)
        }),
    ));
    out.push(reported(
        "core.avg_batch_len",
        eng(|a, b| {
            delta_ratio(
                b.ops_claimed - a.ops_claimed,
                b.batches_claimed - a.batches_claimed,
            )
        }),
    ));
    out.push(reported(
        "core.bypass_share",
        eng(|a, b| delta_ratio(b.bypass_writes - a.bypass_writes, b.writes() - a.writes())),
    ));
    out.push(reported(
        "core.chained_claim_share",
        eng(|a, b| {
            delta_ratio(
                b.chained_claims - a.chained_claims,
                b.batches_claimed - a.batches_claimed,
            )
        }),
    ));
    let reads: Vec<u64> = (0..windows)
        .map(|w| {
            Class::ALL
                .iter()
                .filter(|c| c.is_read())
                .map(|c| lat.by_class[w][*c as usize].len() as u64)
                .sum()
        })
        .collect();
    let joins: Vec<u64> = (0..windows)
        .map(|w| lat.by_class[w][Class::Join as usize].len() as u64)
        .collect();
    out.push(reported(
        "core.seals_by_reader_per_read",
        per_window_engine(counters, |w, a, b| {
            delta_ratio(b.seals_by_reader - a.seals_by_reader, reads[w])
        }),
    ));
    out.push(reported(
        "query.view_subst_per_join",
        per_window_engine(counters, |w, a, b| {
            delta_ratio(b.view_substitutions - a.view_substitutions, joins[w])
        }),
    ));
    out.push(reported(
        "query.path_scan_share",
        eng(|a, b| {
            let paths = |s: &EngineStatsSnapshot| {
                s.path_key_eq
                    + s.path_composite_eq
                    + s.path_index_eq
                    + s.path_key_range
                    + s.path_index_range
                    + s.path_scan
                    + s.path_covered
            };
            delta_ratio(b.path_scan - a.path_scan, paths(b) - paths(a))
        }),
    ));

    // durable: group commits seen by the counting sink, and checkpoints.
    out.push(reported(
        "durable.ops_per_commit",
        per_window(counters, |_, a, b| {
            delta_ratio(b.commit_ops - a.commit_ops, b.commits - a.commits)
        }),
    ));
    let secs = plan.window.as_secs_f64();
    out.push(reported(
        "durable.commits_per_s",
        per_window(counters, |_, a, b| {
            Some((b.commits - a.commits) as f64 / secs)
        }),
    ));
    let ckpt = |f: &dyn Fn(usize, &CheckpointSample) -> Option<f64>| -> Vec<f64> {
        let samples = input.checkpoints.iter().enumerate();
        or_zero(samples.filter_map(|(w, c)| f(w, c)).collect())
    };
    out.push(reported(
        "durable.checkpoint_ms",
        ckpt(&|_, c| Some(c.millis)),
    ));
    // A checkpoint at the start of window w stores what window w-1 wrote
    // (the first one what the warm-up wrote, which is not counted).
    out.push(reported(
        "durable.checkpoint_bytes_per_write",
        ckpt(&|w, c| {
            let writes = counters[w].commit_ops - counters[w.checked_sub(1)?].commit_ops;
            delta_ratio(c.stats.total_bytes(), writes)
        }),
    ));
    out.push(reported(
        "durable.checkpoint_dedup_ratio",
        ckpt(&|_, c| {
            let nodes = c.stats.nodes_deduped + c.stats.nodes_written;
            delta_ratio(c.stats.nodes_deduped as u64, nodes as u64)
        }),
    ));

    // net: messages and routing counters per request.
    let ops: Vec<u64> = lat.all.iter().map(|v| v.len() as u64).collect();
    out.push(reported(
        "net.msgs_per_op",
        per_window(counters, |w, a, b| {
            delta_ratio(b.messages - a.messages, ops[w])
        }),
    ));
    let net = |f: fn(&ClusterStatsSnapshot, &ClusterStatsSnapshot) -> Option<f64>| {
        per_window(counters, |_, a, b| {
            f(a.cluster.as_ref()?, b.cluster.as_ref()?)
        })
    };
    out.push(reported(
        "net.read_replica_share",
        net(|a, b| {
            let routed = |s: &ClusterStatsSnapshot| {
                s.single_shard_writes
                    + s.single_shard_reads
                    + s.gather_reads
                    + s.single_shard_txns
                    + s.cross_shard_txns
            };
            let reads =
                (b.single_shard_reads + b.gather_reads) - (a.single_shard_reads + a.gather_reads);
            delta_ratio(reads, routed(b) - routed(a))
        }),
    ));
    out.push(reported(
        "net.batches_shipped_per_write",
        net(|a, b| {
            let shipped = |s: &ClusterStatsSnapshot| {
                s.shard_lag.iter().map(|(shipped, _)| shipped).sum::<u64>()
            };
            let writes = |s: &ClusterStatsSnapshot| {
                s.single_shard_writes + 2 * (s.single_shard_txns + s.cross_shard_txns)
            };
            delta_ratio(shipped(b) - shipped(a), writes(b) - writes(a))
        }),
    ));
    out.push(reported(
        "net.seq_acks_per_txn",
        net(|a, b| {
            let txns = |s: &ClusterStatsSnapshot| s.single_shard_txns + s.cross_shard_txns;
            delta_ratio(b.sequencer_acks - a.sequencer_acks, txns(b) - txns(a))
        }),
    ));
    Ok(out)
}
