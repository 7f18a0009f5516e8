//! Shim for `criterion` (see `shims/README.md`).
//!
//! Provides the group/`bench_with_input`/`iter` API shape the workspace's
//! benches use, measuring wall-clock means over a fixed number of timed
//! iterations and printing one line per benchmark. No statistics, plots,
//! or saved baselines — this repository's performance record is the
//! `bench_stack` benchmark (`BENCHMARK.json` at the root), not criterion
//! output.

use std::fmt::{self, Display};
use std::time::Instant;

/// Re-export point for the hint that defeats constant-folding.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifies one benchmark within a group: `name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new<P: Display>(name: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Passed to benchmark closures; [`iter`](Bencher::iter) runs and times the
/// measured routine.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: usize,
    /// Mean nanoseconds per iteration of the last `iter` call.
    last_mean_ns: f64,
}

impl Bencher {
    /// Times `routine` over `samples` iterations (after one warmup) and
    /// records the mean.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(routine());
        }
        self.last_mean_ns = start.elapsed().as_nanos() as f64 / self.samples as f64;
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    name: String,
    samples: usize,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed iterations each benchmark runs.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut bencher = Bencher {
            samples: self.samples,
            last_mean_ns: 0.0,
        };
        f(&mut bencher);
        println!(
            "bench {}/{}: {:.1} ns/iter (mean of {})",
            self.name, label, bencher.last_mean_ns, self.samples
        );
    }

    /// Benchmarks `f` against a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), |b| f(b, input));
        self
    }

    /// Benchmarks a closure with no external input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run(name, f);
        self
    }

    /// Ends the group (a no-op; exists for API parity).
    pub fn finish(self) {}
}

/// The top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            samples: 20,
            _criterion: self,
        }
    }
}

/// Declares a function that runs each listed bench target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_reports_positive_mean() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut ran = 0;
        group.bench_function("count", |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        group.finish();
        assert!(ran >= 3);
    }

    #[test]
    fn id_formats_name_slash_param() {
        assert_eq!(BenchmarkId::new("mixed", 4).to_string(), "mixed/4");
    }
}
