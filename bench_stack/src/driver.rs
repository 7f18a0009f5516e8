//! The closed-loop load generator.
//!
//! Callers of `submit` each hold a reply cell and wait on it, so the load
//! is a closed loop: a generator thread multiplexes a fixed number of
//! logical terminals, each with one request in flight. After every wake the
//! thread sweeps *all* its outstanding cells and retires the filled ones,
//! then blocks on the oldest. A request's clock starts before `parse` (the
//! user hands over text) and stops when its reply is observed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fundb_lenient::Lenient;
use fundb_query::Response;

use crate::gen::{check, Op, Shared, Spec, Terminal};

/// Instants a target takes inside `submit` when asked to (traced requests
/// on targets that parse and translate on the caller's thread).
#[derive(Debug, Default)]
pub struct Stamps {
    pub parsed: Option<Instant>,
    pub translated: Option<Instant>,
}

/// The system under test, as a generator thread sees it.
pub trait Target: Sync {
    /// Hands one request over and returns its reply cell.
    fn submit(&self, thread: usize, op: &Op, stamps: Option<&mut Stamps>) -> Lenient<Response>;
}

/// Timeline of one measured run: warm-up, then consecutive windows.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
    /// Traced run: requests issued in odd windows record spans; even
    /// windows stay untraced, so one run yields the tracing overhead.
    pub trace: bool,
}

impl Plan {
    pub fn measured(&self) -> Duration {
        self.window * self.windows as u32
    }

    pub fn window_is_traced(&self, window: usize) -> bool {
        self.trace && window % 2 == 1
    }
}

/// One retired request of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub lat_ns: u32,
    pub window: u8,
    pub class: u8,
}

/// Per-window sums of where a generator thread's time went.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageSums {
    /// Harness time: generating statements, checking replies, sweeping.
    pub gen_ns: u64,
    /// Time inside `submit` calls (parse and translate included).
    pub busy_ns: u64,
    /// Time blocked in `wait` on the oldest outstanding reply.
    pub blocked_ns: u64,
    /// Traced requests only: span self-times, and the root span they must
    /// add up to.
    pub traced: u64,
    pub t_gen_ns: u64,
    pub t_parse_ns: u64,
    pub t_translate_ns: u64,
    pub t_submit_ns: u64,
    pub t_wait_ns: u64,
    pub t_root_ns: u64,
}

impl StageSums {
    pub fn add(&mut self, o: &StageSums) {
        self.gen_ns += o.gen_ns;
        self.busy_ns += o.busy_ns;
        self.blocked_ns += o.blocked_ns;
        self.traced += o.traced;
        self.t_gen_ns += o.t_gen_ns;
        self.t_parse_ns += o.t_parse_ns;
        self.t_translate_ns += o.t_translate_ns;
        self.t_submit_ns += o.t_submit_ns;
        self.t_wait_ns += o.t_wait_ns;
        self.t_root_ns += o.t_root_ns;
    }
}

/// The instants of one traced request, in nanoseconds since the run began.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub request: u64,
    pub class: u8,
    pub due: u64,
    pub start: u64,
    pub parsed: u64,
    pub translated: u64,
    pub submitted: u64,
    pub observed: u64,
}

/// Traced requests kept per thread for the trace file.
const SPAN_CAP: usize = 20_000;
/// A reply that takes longer than this is counted as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Default)]
pub struct ThreadLog {
    pub samples: Vec<Sample>,
    pub stages: Vec<StageSums>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    pub spans: Vec<RawSpan>,
    /// Final models of the thread's terminals, for the end-state check.
    pub terminals: Vec<Terminal>,
}

struct InFlight {
    id: u64,
    cell: Lenient<Response>,
    due: Instant,
    start: Instant,
    stamps: Option<Stamps>,
    submitted: Instant,
}

struct Slot {
    terminal: Terminal,
    op: Op,
    inflight: Option<InFlight>,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One generator thread's state.
struct Generator<'a> {
    thread: usize,
    target: &'a dyn Target,
    shared: &'a Shared,
    plan: &'a Plan,
    arity: usize,
    start: Instant,
    measure_start: Instant,
    end: Instant,
    window_ns: u64,
    slots: Vec<Slot>,
    log: ThreadLog,
    warmup_retired: u64,
    /// Set once a reply was observed after the last window ended.
    stopping: bool,
    /// The thread's most recent clock reading. The time from it to a
    /// request's start is harness time: the request's root-span self-time.
    last: Instant,
}

impl Generator<'_> {
    /// The measured window `t` falls into, if any.
    fn window_of(&self, t: Instant) -> Option<usize> {
        (t >= self.measure_start && t < self.end)
            .then(|| (ns(t - self.measure_start) / self.window_ns) as usize)
    }

    /// Generates and submits terminal `i`'s next request. Returns `false`
    /// when the reply was there on return and has been retired already.
    fn issue(&mut self, i: usize) -> bool {
        let traced = self
            .window_of(self.last)
            .is_some_and(|w| self.plan.window_is_traced(w));
        let slot = &mut self.slots[i];
        slot.terminal.next(self.shared, &mut slot.op);
        let mut stamps = traced.then(Stamps::default);
        let due = self.last;
        let start = Instant::now();
        let cell = self.target.submit(self.thread, &slot.op, stamps.as_mut());
        self.last = Instant::now();
        self.log.attempted += 1;
        let id = ((self.thread as u64) << 48) | self.log.attempted;
        let answered = cell.is_filled();
        slot.inflight = Some(InFlight {
            id,
            cell,
            due,
            start,
            stamps,
            submitted: self.last,
        });
        if answered {
            // An inline answer is observed as the call returns.
            self.retire(i, self.last);
        }
        !answered
    }

    /// Checks terminal `i`'s reply, observed at `now`, and records it.
    fn retire(&mut self, i: usize, now: Instant) {
        let window = self.window_of(now);
        let slot = &mut self.slots[i];
        let inflight = slot.inflight.take().expect("retired slot is in flight");
        let reply = inflight.cell.try_get().expect("retired cell is filled");
        let log = &mut self.log;
        self.last = now;
        if now >= self.end {
            self.stopping = true;
        }
        if let Err(reason) = check(&slot.op.expect, reply, self.shared, self.arity) {
            log.failed += 1;
            if log.failures.len() < 5 {
                log.failures.push(format!("`{}`: {reason}", slot.op.text));
            }
            return;
        }
        let Some(window) = window else {
            if now < self.measure_start {
                self.warmup_retired += 1;
            }
            return;
        };
        if log.samples.capacity() == 0 {
            // Sized once, from the warm-up rate, so that pushing a sample
            // never reallocates while requests are timed.
            let per_second = self.warmup_retired as f64 / self.plan.warmup.as_secs_f64().max(0.1);
            let expected = per_second * self.plan.measured().as_secs_f64();
            log.samples.reserve((expected * 2.0) as usize + (1 << 16));
        }
        log.samples.push(Sample {
            lat_ns: u32::try_from(ns(now - inflight.start)).unwrap_or(u32::MAX),
            window: window as u8,
            class: slot.op.class as u8,
        });
        let acc = &mut log.stages[window];
        let gen_ns = ns(inflight.start - inflight.due);
        acc.gen_ns += gen_ns;
        acc.busy_ns += ns(inflight.submitted - inflight.start);
        let Some(stamps) = &inflight.stamps else {
            return;
        };
        let parsed = stamps.parsed.unwrap_or(inflight.start);
        let translated = stamps.translated.unwrap_or(parsed);
        acc.traced += 1;
        acc.t_gen_ns += gen_ns;
        acc.t_parse_ns += ns(parsed - inflight.start);
        acc.t_translate_ns += ns(translated - parsed);
        acc.t_submit_ns += ns(inflight.submitted - translated);
        acc.t_wait_ns += ns(now - inflight.submitted);
        acc.t_root_ns += ns(now - inflight.due);
        if log.spans.len() < SPAN_CAP {
            let rel = |t: Instant| ns(t - self.start);
            log.spans.push(RawSpan {
                request: inflight.id,
                class: slot.op.class as u8,
                due: rel(inflight.due),
                start: rel(inflight.start),
                parsed: rel(parsed),
                translated: rel(translated),
                submitted: rel(inflight.submitted),
                observed: rel(now),
            });
        }
    }

    /// From `start` until every window has passed and the outstanding
    /// requests are answered.
    fn run(mut self) -> ThreadLog {
        let mut idle: Vec<usize> = (0..self.slots.len()).collect();
        let mut next_idle: Vec<usize> = Vec::with_capacity(idle.len());
        let mut outstanding: VecDeque<usize> = VecDeque::with_capacity(idle.len());
        if let Some(lead) = self.start.checked_duration_since(Instant::now()) {
            std::thread::sleep(lead);
        }
        self.last = Instant::now();
        loop {
            if !self.stopping {
                for i in idle.drain(..) {
                    if self.issue(i) {
                        outstanding.push_back(i);
                    } else {
                        next_idle.push(i);
                    }
                }
            }
            idle.clear();
            // Sweep every outstanding cell, not only the oldest: replies
            // of different relations and sites complete out of order.
            outstanding.retain(|&i| {
                let cell = &self.slots[i]
                    .inflight
                    .as_ref()
                    .expect("outstanding slot is in flight")
                    .cell;
                if !cell.is_filled() {
                    return true;
                }
                self.retire(i, Instant::now());
                next_idle.push(i);
                false
            });
            std::mem::swap(&mut idle, &mut next_idle);
            if !idle.is_empty() && !self.stopping {
                continue;
            }
            let Some(&oldest) = outstanding.front() else {
                if self.stopping {
                    break;
                }
                continue;
            };
            if !idle.is_empty() {
                // Stopping: nothing is issued any more; drain what is out.
                idle.clear();
                continue;
            }
            let cell = self.slots[oldest]
                .inflight
                .as_ref()
                .expect("in flight")
                .cell
                .clone();
            let before = Instant::now();
            let answered = cell.wait_timeout(REPLY_TIMEOUT).is_some();
            let woke = Instant::now();
            if let Some(w) = self.window_of(woke) {
                // A sweep that found nothing belongs to no request's root
                // span; it is harness time all the same.
                self.log.stages[w].gen_ns += ns(before - self.last);
                self.log.stages[w].blocked_ns += ns(woke - before);
            }
            self.last = woke;
            if !answered {
                let log = &mut self.log;
                let unanswered = outstanding.len() as u64;
                log.failed += unanswered;
                log.failures.push(format!(
                    "no reply to `{}` within {REPLY_TIMEOUT:?}; gave up on {} requests",
                    self.slots[oldest].op.text, unanswered
                ));
                break;
            }
        }
        self.log.terminals = self.slots.into_iter().map(|s| s.terminal).collect();
        self.log
    }
}

/// Runs the plan against `target` with `spec.threads` generator threads.
/// `at_boundary(i)` runs on the calling thread at the start of window `i`
/// (`i == plan.windows` is the end of the last window).
pub fn run(
    target: &dyn Target,
    spec: &Spec,
    shared: &Shared,
    plan: &Plan,
    terminals: Vec<Vec<Terminal>>,
    mut at_boundary: impl FnMut(usize),
) -> Vec<ThreadLog> {
    assert_eq!(terminals.len(), spec.threads);
    assert!(plan.windows > 0 && plan.windows <= usize::from(u8::MAX));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = terminals
            .into_iter()
            .enumerate()
            .map(|(thread, terms)| {
                scope.spawn(move || {
                    let measure_start = start + plan.warmup;
                    let generator = Generator {
                        thread,
                        target,
                        shared,
                        plan,
                        arity: spec.arity(),
                        start,
                        measure_start,
                        end: measure_start + plan.measured(),
                        window_ns: ns(plan.window),
                        slots: terms
                            .into_iter()
                            .map(|terminal| Slot {
                                terminal,
                                op: Op::empty(),
                                inflight: None,
                            })
                            .collect(),
                        log: ThreadLog {
                            stages: vec![StageSums::default(); plan.windows],
                            spans: Vec::with_capacity(if plan.trace { SPAN_CAP } else { 0 }),
                            ..ThreadLog::default()
                        },
                        warmup_retired: 0,
                        stopping: false,
                        last: start,
                    };
                    generator.run()
                })
            })
            .collect();
        for i in 0..=plan.windows {
            let boundary = start + plan.warmup + plan.window * i as u32;
            if let Some(wait) = boundary.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            at_boundary(i);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}
