//! `bench_stack`: the repository's benchmark — four workloads over whole
//! request paths, built to repeat. README.md beside `Cargo.toml` has the
//! metric and workload names, the reasons for every choice, and how to run
//! the modes; `BENCHMARK.json` at the repository root is its contract.
//!
//! ```text
//! bench_stack                         all four workloads, one process each
//! bench_stack --workload NAME         one workload
//!   --seed N --seconds S              inputs and measured time (default 1, 30)
//!   --trace [0|1]                     traced run: per-layer metrics
//!   --smoke                           tiny data, one 2 s window, all checks
//!   --runs N --out DIR                write DIR/run-<k>.json per full run
//!   --data-dir DIR                    durable data in DIR/fundb-bench-<pid>
//! bench_stack --compare A B           judge B against A (files or dirs)
//! ```

mod compare;
mod driver;
mod gen;
mod host;
mod json;
mod metrics;
mod probe;
mod rng;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use fundb_durable::set_modeled_flush_latency;

use driver::{Plan, ThreadLog};
use gen::{Class, Shared, Spec, Terminal, Workload};
use host::Host;
use json::Json;
use metrics::{reported, Reported, WindowLatencies, END_TO_END, PER_LAYER};
use workloads::{Counters, FinishCtx};

/// Every WAL commit is padded by this much after its real `sync_data`: a
/// modeled commit device, so that the drift of a shared disk is a small
/// part of a commit (README.md, "Flush policy").
const FLUSH_PAD: Duration = Duration::from_micros(200);
/// Set-up is repeated until this much time has gone into it, and at least
/// `MIN_SETUPS` times; `setup_s` is the median. A set-up takes 4 to 130 ms,
/// too short to time once: the median of five still moved by 15-25 % from
/// run to run, the median of some dozens does not (README.md, "Sizing").
const SETUP_BUDGET: Duration = Duration::from_secs(3);
const MIN_SETUPS: usize = 5;
/// Windows the measured time is cut into.
const WINDOWS: usize = 10;
/// Acknowledged writes between the last checkpoint and the timed reopen
/// (replay runs at about 3 000 records a second on the indexed relation,
/// so this is three seconds of recovery).
const RECOVERY_WRITES: usize = 10_000;
/// Stack of the thread a workload runs on (reserved, not touched, unless
/// a teardown recursion needs it).
const TEARDOWN_STACK: usize = 2 << 30;
/// Statements of the layer probe pass.
const PROBE_STATEMENTS: usize = 20_000;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    data_dir: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        data_dir: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                o.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => o.out = Some(value("a directory")?.into()),
            "--data-dir" => o.data_dir = Some(value("a directory")?.into()),
            "--smoke" => o.smoke = true,
            "--trace" => {
                // Bare `--trace`, or the driver's `--trace 0|1`.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => {
                o.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.seconds == 0 || o.runs == 0 {
        return Err("--seconds and --runs must be at least 1".into());
    }
    Ok(o)
}

/// Traces and durable data live next to the binary: inside the build's
/// target directory, and so inside the checkout.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().ok();
    let beside = exe
        .as_deref()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    beside.join("bench_stack-run")
}

/// The run's data directory: `fundb-bench-<pid>`, made by the harness under
/// `base` and removed when the run ends, however it ends. `base` itself —
/// with `--data-dir` a directory of the user's — is never emptied or removed.
struct DataDir(PathBuf);

impl DataDir {
    fn claim(base: &Path) -> Result<DataDir, String> {
        std::fs::create_dir_all(base).map_err(|e| format!("{}: {e}", base.display()))?;
        let dir = base.join(format!("fundb-bench-{}", std::process::id()));
        // `create_dir` fails if the name is taken: what is there was not
        // made by this run and is not this run's to delete.
        std::fs::create_dir(&dir)
            .map_err(|e| format!("cannot claim the data directory {}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one workload run produced.
struct Outcome {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
    filesystem: String,
}

impl Outcome {
    /// The run as JSON. Without `detail`: exactly what `BENCHMARK.json`
    /// promises for the last line. With it: also spreads, sample counts and
    /// per-window values — what result files keep and `--compare` reads.
    fn to_json(&self, detail: bool) -> Json {
        let metric = |m: &Reported| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if detail {
                fields.extend([
                    ("window_spread", Json::Num(m.summary.spread)),
                    ("n", Json::Num(m.summary.n as f64)),
                    (
                        "windows",
                        Json::Arr(m.windows.iter().map(|w| Json::Num(*w)).collect()),
                    ),
                ]);
            }
            (m.name.to_string(), Json::obj(fields))
        };
        let mut fields = vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(self.metrics.iter().map(metric).collect()),
            ),
        ];
        if detail {
            fields.insert(0, ("workload", Json::str(self.workload.name())));
            fields.insert(1, ("data_filesystem", Json::str(&self.filesystem)));
        }
        Json::obj(fields)
    }
}

fn write_trace(path: &Path, submit_span: &str, logs: &[ThreadLog]) -> std::io::Result<usize> {
    std::fs::create_dir_all(path.parent().expect("trace file has a directory"))?;
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let mut spans = 0;
    for s in logs.iter().flat_map(|l| &l.spans) {
        let class = Class::ALL[s.class as usize].name();
        writeln!(
            out,
            "{{\"name\": \"client.request\", \"start\": {}, \"end\": {}, \"parent\": null, \"request\": {}, \"class\": \"{class}\"}}",
            s.due, s.observed, s.request
        )?;
        spans += 1;
        for (name, start, end) in [
            ("query.parse", s.start, s.parsed),
            ("query.translate", s.parsed, s.translated),
            (submit_span, s.translated, s.submitted),
            ("client.wait", s.submitted, s.observed),
        ] {
            if end > start {
                writeln!(
                    out,
                    "{{\"name\": \"{name}\", \"start\": {start}, \"end\": {end}, \"parent\": \"client.request\", \"request\": {}}}",
                    s.request
                )?;
                spans += 1;
            }
        }
    }
    out.flush()?;
    Ok(spans)
}

/// Runs one workload in this process. `Err` is a tripped guard: the run
/// says why and reports no number.
fn run_workload(opts: &Options, workload: Workload) -> Result<Outcome, String> {
    let host = Host::detect();
    let mut spec = Spec::of(workload, opts.smoke);
    if host.nproc < spec.threads {
        // Never more generator threads than cores; the terminals (and so
        // the key stripes and the statement streams) stay the same.
        spec.terminals_per_thread *= spec.threads / host.nproc;
        spec.threads = host.nproc;
    }
    let plan = if opts.smoke {
        let windows = if opts.trace { 2 } else { 1 };
        Plan {
            warmup: Duration::from_millis(500),
            window: Duration::from_secs(2) / windows as u32,
            windows,
            trace: opts.trace,
        }
    } else {
        let window = Duration::from_secs(opts.seconds) / WINDOWS as u32;
        Plan {
            warmup: Duration::from_secs(opts.seconds) / 10,
            window,
            windows: WINDOWS,
            trace: opts.trace,
        }
    };
    if workload.is_durable() {
        set_modeled_flush_latency(Some(FLUSH_PAD));
    }

    let data = DataDir::claim(&opts.data_dir.clone().unwrap_or_else(work_dir))?;
    let (filesystem, device) = host::filesystem_of(&data.0);
    println!(
        "{}: seed {} · {} threads x {} terminals · {} windows of {:.1} s after {:.1} s warm-up · trace {}",
        workload.name(), opts.seed, spec.threads, spec.terminals_per_thread, plan.windows,
        plan.window.as_secs_f64(), plan.warmup.as_secs_f64(), if opts.trace { "on" } else { "off" }
    );
    println!(
        "  host: {} cores · {} · commit {} · data on {} ({}) · flush pad {} us",
        host.nproc,
        host.cpu_model,
        host.commit,
        filesystem,
        data.0.display(),
        if workload.is_durable() {
            FLUSH_PAD.as_micros()
        } else {
            0
        }
    );

    // Set-up, many times over where `setup_s` is reported; the last one
    // is measured against.
    let (budget, at_least) = if opts.smoke || opts.trace {
        (Duration::ZERO, 1)
    } else {
        (SETUP_BUDGET, MIN_SETUPS)
    };
    let began = Instant::now();
    let mut setups = Vec::new();
    let system = loop {
        let dir = data.0.join(format!("setup-{}", setups.len()));
        let t = Instant::now();
        let system =
            workloads::setup(&spec, opts.seed, &dir).map_err(|e| format!("set-up: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() >= at_least && began.elapsed() >= budget {
            break system;
        }
        drop(system);
        let _ = std::fs::remove_dir_all(&dir);
    };
    let setup_db = if !opts.trace {
        None
    } else {
        Some(
            system
                .snapshot()
                .unwrap_or_else(|| workloads::loaded_database(&spec, opts.seed)),
        )
    };

    // The measured run.
    let shared = Shared::new(&spec, opts.seed);
    let terminals: Vec<Vec<Terminal>> = (0..spec.threads)
        .map(|t| {
            (0..spec.terminals_per_thread)
                .map(|i| Terminal::new(spec, opts.seed, t * spec.terminals_per_thread + i))
                .collect()
        })
        .collect();
    let mut counters: Vec<Counters> = Vec::with_capacity(plan.windows + 1);
    let mut checkpoints = Vec::new();
    let mut logs = driver::run(&*system, &spec, &shared, &plan, terminals, |i| {
        counters.push(system.counters());
        if i < plan.windows {
            checkpoints.extend(system.window_start());
        }
    });

    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut failures: Vec<String> = logs
        .iter()
        .flat_map(|l| l.failures.iter().cloned())
        .collect();

    // Steady-state guards: a tripped one ends the run without a number.
    let lat = WindowLatencies::collect(&logs, plan.windows);
    let mut metrics = metrics::end_to_end(&lat, &plan)?;
    let stages = metrics::stage_sums(&logs, plan.windows);
    let harness = metrics::harness_share(&stages, &plan, spec.threads);
    if harness > metrics::MAX_HARNESS_SHARE {
        return Err(format!(
            "the generator threads spent {:.1} % of the run in the harness itself (limit {:.0} %)",
            harness * 100.0,
            metrics::MAX_HARNESS_SHARE * 100.0
        ));
    }
    if host::filesystem_of(&data.0) != (filesystem.clone(), device) {
        return Err(format!(
            "{} is no longer on the {filesystem} filesystem the run recorded",
            data.0.display()
        ));
    }

    // End state against the models (and, for durable data, a reopen).
    let cut_us = system.cut_us();
    let mut terminals: Vec<Terminal> = logs
        .iter_mut()
        .flat_map(|l| l.terminals.drain(..))
        .collect();
    let mut ctx = FinishCtx {
        spec: &spec,
        seed: opts.seed,
        shared: &shared,
        terminals: &mut terminals,
        recovery_writes: match (opts.trace, workload) {
            (true, Workload::IngestDurable) => RECOVERY_WRITES / if opts.smoke { 10 } else { 1 },
            _ => 0,
        },
    };
    let end = system.finish(&mut ctx);
    attempted += end.checks;
    failed += end.failed;
    failures.extend(end.failures.iter().cloned());
    for (name, loaded, now) in &end.sizes {
        let drift = (*now as f64 - *loaded as f64).abs() / (*loaded).max(1) as f64;
        if drift > metrics::MAX_SIZE_DRIFT {
            return Err(format!(
                "{name} drifted from {loaded} to {now} rows ({:.1} %)",
                drift * 100.0
            ));
        }
    }

    if opts.trace {
        let mut layer = metrics::traced_metrics(&metrics::TracedInput {
            plan: &plan,
            threads: spec.threads,
            lat: &lat,
            stages: &stages,
            counters: &counters,
            checkpoints: &checkpoints,
        })?;
        let probe = probe::run(&probe::ProbeInput {
            spec: &spec,
            seed: opts.seed,
            db: setup_db.as_ref().expect("taken for traced runs"),
            scratch: &data.0.join("probe-wal"),
            flush_pad: FLUSH_PAD,
            statements: if opts.smoke {
                PROBE_STATEMENTS / 10
            } else {
                PROBE_STATEMENTS
            },
        });
        attempted += probe.checks;
        failed += probe.failed;
        failures.extend(probe.failures);
        layer.extend(
            probe
                .metrics
                .into_iter()
                .map(|(name, v)| reported(name, vec![v])),
        );
        layer.push(reported("core.cut_us", vec![cut_us.unwrap_or(0.0)]));
        let user_bytes: u64 = (0..spec.relations)
            .map(|r| shared.settled_rows(r) * spec.arity() as u64 * 8)
            .sum();
        let disk = if workload.is_durable() {
            end.disk_bytes as f64 / user_bytes as f64
        } else {
            0.0
        };
        layer.push(reported("durable.disk_bytes_per_user_byte", vec![disk]));
        let (recover_ms, replayed) = end.recover.unwrap_or((0.0, 0));
        layer.push(reported("durable.recover_ms", vec![recover_ms]));
        let per_s = if recover_ms > 0.0 {
            replayed as f64 / (recover_ms / 1e3)
        } else {
            0.0
        };
        layer.push(reported("durable.recover_records_per_s", vec![per_s]));
        layer.push(reported(
            "net.replica_lag_batches",
            vec![end.replica_lag as f64],
        ));
        layer.push(reported(
            "fail_ratio",
            vec![failed as f64 / attempted as f64],
        ));
        let overhead = layer
            .iter()
            .find(|m| m.name == "trace.overhead_ratio")
            .expect("computed above")
            .value;
        if overhead < metrics::MIN_TRACE_RATIO {
            // Not a guard: five windows against five on a shared host can
            // miss by themselves, and the per-layer numbers still stand.
            eprintln!(
                "bench_stack: warning: traced windows ran at {overhead:.3} of the untraced ones; \
                 below {} across runs the spans are too fine",
                metrics::MIN_TRACE_RATIO
            );
        }
        // The traced run reports the per-layer table, in table order.
        metrics = PER_LAYER
            .iter()
            .map(|def| {
                layer
                    .iter()
                    .find(|m| m.name == def.name)
                    .cloned()
                    .unwrap_or_else(|| panic!("{} was not measured", def.name))
            })
            .collect();
        let submit_span = match workload {
            Workload::OltpCluster => "net.submit_call",
            Workload::IngestDurable => "durable.submit_call",
            _ => "core.submit_call",
        };
        let path = work_dir().join(format!("trace-{}.jsonl", workload.name()));
        match write_trace(&path, submit_span, &logs) {
            Ok(spans) => println!("  wrote {spans} spans to {}", path.display()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    } else {
        metrics.push(reported("setup_s", setups));
    }

    for m in &metrics {
        println!(
            "  {:<40} {:>16.4} {:<6} median of {}, iqr {:.1} %",
            m.name,
            m.value,
            m.unit,
            m.summary.n,
            m.summary.spread * 100.0
        );
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    println!(
        "  attempted {attempted} · failed {failed} · fail_ratio {}",
        failed as f64 / attempted as f64
    );
    for f in &failures {
        println!("  FAILED: {f}");
    }
    Ok(Outcome {
        workload,
        attempted,
        failed,
        metrics,
        filesystem,
    })
}

/// Runs every workload, each in a fresh process (a fresh heap), in the
/// fixed order; returns their detail objects.
fn run_all(opts: &Options) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut details = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name(),
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
        ]);
        cmd.args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &opts.data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let mut detail = None;
        for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
            let line = line.map_err(|e| e.to_string())?;
            match line.strip_prefix("detail: ") {
                Some(json) => detail = Some(Json::parse(json)?),
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        match detail {
            Some(d) if status.success() => details.push(d),
            _ => return Err(format!("{} did not finish cleanly ({status})", w.name())),
        }
    }
    Ok(details)
}

fn result_file(opts: &Options, host: &Host, details: Vec<Json>) -> Json {
    Json::obj(vec![
        ("bench", Json::str("bench_stack")),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("flush_pad_us", Json::Num(FLUSH_PAD.as_micros() as f64)),
        ("host", host.to_json()),
        (
            "workloads",
            Json::Obj(
                details
                    .into_iter()
                    .map(|d| {
                        (
                            d.get("workload")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_string(),
                            d,
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The end-to-end table of an untraced full run.
fn summarize(details: &[Json]) {
    let header: String = END_TO_END
        .iter()
        .map(|d| format!("{:>14}", d.name))
        .collect();
    println!("\n{:<18} {header}", "workload");
    for d in details {
        let cell = |def: &metrics::MetricDef| {
            let value = d.get("metrics")?.get(def.name)?.get("value")?.as_f64()?;
            Some(format!("{value:>14.3}"))
        };
        let row: String = END_TO_END
            .iter()
            .map(|def| cell(def).unwrap_or_else(|| format!("{:>14}", "-")))
            .collect();
        let name = d.get("workload").and_then(Json::as_str).unwrap_or("?");
        println!("{name:<18} {row}");
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;
    if let Some((a, b)) = &opts.compare {
        return compare::compare(a, b);
    }
    if let Some(workload) = opts.workload {
        // Tearing a cluster down drops the medium's message stream node by
        // node, recursively: a run's worth of messages needs a deep stack.
        let worker = std::thread::Builder::new()
            .stack_size(TEARDOWN_STACK)
            .spawn({
                let opts = opts.clone();
                move || run_workload(&opts, workload)
            })
            .map_err(|e| format!("spawn the run's thread: {e}"))?;
        let outcome = worker
            .join()
            .map_err(|_| "the run panicked".to_string())??;
        println!("detail: {}", outcome.to_json(true));
        println!("{}", outcome.to_json(false));
        return Ok(outcome.failed == 0);
    }
    let host = Host::detect();
    let mut ok = true;
    for run in 1..=opts.runs {
        // Each of several runs takes the next seed, as the acceptance
        // check asks: the spread then covers the inputs too.
        let opts = Options {
            seed: opts.seed + run as u64 - 1,
            ..opts.clone()
        };
        let details = run_all(&opts)?;
        if !opts.trace {
            summarize(&details);
        }
        ok &= details
            .iter()
            .all(|d| d.get("correct") == Some(&Json::Bool(true)));
        match &opts.out {
            Some(dir) if !opts.smoke => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let path = dir.join(format!("run-{run}.json"));
                std::fs::write(&path, format!("{}\n", result_file(&opts, &host, details)))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            _ => {}
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("bench_stack: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload oltp_cluster --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.workload, Some(Workload::OltpCluster));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20, true));
        let o = parse_args(&["--trace".into(), "0".into()]).unwrap();
        assert!(!o.trace);
        let o = parse_args(&["--trace".into(), "--smoke".into()]).unwrap();
        assert!(o.trace && o.smoke);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }

    /// `--data-dir /dev/shm` must not cost the user what else is in there.
    #[test]
    fn a_run_removes_only_the_directory_it_made() {
        let base = work_dir().join(format!("test-data-dir-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        std::fs::write(base.join("keep.txt"), "the user's").unwrap();
        let data = DataDir::claim(&base).unwrap();
        assert!(data.0.starts_with(&base) && data.0 != base && data.0.is_dir());
        // The name is taken now: a second claim does not reuse or wipe it.
        std::fs::write(data.0.join("wal"), "log").unwrap();
        assert!(DataDir::claim(&base).is_err());
        assert!(data.0.join("wal").exists());
        let made = data.0.clone();
        drop(data);
        assert!(!made.exists());
        assert_eq!(
            std::fs::read_to_string(base.join("keep.txt")).unwrap(),
            "the user's"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    /// `BENCHMARK.json` must promise exactly what the tables here deliver.
    #[test]
    fn contract_file_matches_the_tables() {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        }
        let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).unwrap();
        let contract = Json::parse(&text).unwrap();
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| -> Vec<Json> {
            match contract.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                _ => panic!("{key} is not a list"),
            }
        };
        let promised = |key: &str| -> Vec<(String, String, String, f64)> {
            let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            listed(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        field(m, "better"),
                        bound(m),
                    )
                })
                .collect()
        };
        let delivered = |defs: &[metrics::MetricDef]| -> Vec<(String, String, String, f64)> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == metrics::Better::Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        better.to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(promised("end_to_end"), delivered(&END_TO_END));
        assert_eq!(promised("per_layer"), delivered(&PER_LAYER));
        let names: Vec<String> = listed("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn metric_tables_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "metric names are used once"
        );
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
