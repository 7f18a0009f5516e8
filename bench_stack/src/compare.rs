//! `--compare A B`: the two-set acceptance check, and the seed of a single
//! `bench_check`. A side is a result file, or a directory of them.

use std::path::Path;

use crate::gen::Workload;
use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// The spread of either side exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn judge(def: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    if a.spread > def.bound || b.spread > def.bound {
        Verdict::Unresolved
    } else if worsening(def, a.median, b.median) > def.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn load_side(path: &Path) -> Result<Vec<Json>, String> {
    let mut files: Vec<_> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// The sample one side offers for a metric: the value of every run.
pub fn sample(runs: &[Json], workload: &str, metric: &str) -> Option<Vec<f64>> {
    runs.iter()
        .map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed_of(runs: &[Json], workload: &str) -> f64 {
    runs.iter()
        .filter_map(|r| r.get("workloads")?.get(workload)?.get("failed")?.as_f64())
        .sum()
}

/// Prints the comparison; `Ok(true)` when nothing is worse.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (side_a, side_b) = (load_side(a)?, load_side(b)?);
    println!(
        "{:<18} {:<10} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound"
    );
    let mut all_ok = true;
    for w in Workload::ALL {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                sample(&side_a, w.name(), def.name),
                sample(&side_b, w.name(), def.name),
            ) else {
                continue;
            };
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let verdict = judge(def, &sa, &sb);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<18} {:<10} {:>14.3} {:>7.1}% {:>14.3} {:>7.1}% {:>+8.1}% {:>5.0}%  {}",
                w.name(),
                def.name,
                sa.median,
                sa.spread * 100.0,
                sb.median,
                sb.spread * 100.0,
                (sb.median - sa.median) / sa.median * 100.0,
                def.bound * 100.0,
                verdict.name()
            );
        }
        let (fa, fb) = (failed_of(&side_a, w.name()), failed_of(&side_b, w.name()));
        // Any increase in failed requests is a regression.
        let verdict = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Within
        };
        all_ok &= verdict != Verdict::Worse;
        println!(
            "{:<18} {:<10} {fa:>14} {:>8} {fb:>14} {:>8} {:>9} {:>6}  {}",
            w.name(),
            "failed",
            "",
            "",
            "",
            "any",
            verdict.name()
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Summary {
        Summary {
            median,
            spread,
            n: 5,
        }
    }

    #[test]
    fn each_verdict_on_hand_made_inputs() {
        let def = |better| MetricDef {
            better,
            bound: 0.10,
            ..END_TO_END[0]
        };
        let (ops, p50) = (&def(Better::Higher), &def(Better::Lower));
        assert_eq!(
            judge(ops, &s(1000.0, 0.01), &s(950.0, 0.02)),
            Verdict::Within
        );
        assert_eq!(
            judge(ops, &s(1000.0, 0.01), &s(1200.0, 0.02)),
            Verdict::Within
        );
        assert_eq!(
            judge(ops, &s(1000.0, 0.01), &s(880.0, 0.02)),
            Verdict::Worse
        );
        assert_eq!(judge(p50, &s(100.0, 0.01), &s(112.0, 0.01)), Verdict::Worse);
        assert_eq!(judge(p50, &s(100.0, 0.01), &s(80.0, 0.01)), Verdict::Within);
        assert_eq!(
            judge(p50, &s(100.0, 0.12), &s(100.0, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, &s(100.0, 0.01), &s(150.0, 0.2)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_side_offers_the_value_of_every_run() {
        let run = |value: f64| {
            Json::parse(&format!(
                "{{\"workloads\": {{\"w\": {{\"failed\": 0, \"metrics\": {{\"m\": {{\"value\": {value}}}}}}}}}}}"
            ))
            .unwrap()
        };
        let two = [run(2.0), run(4.0)];
        assert_eq!(sample(&two, "w", "m"), Some(vec![2.0, 4.0]));
        assert_eq!(sample(&two, "w", "absent"), None);
        assert_eq!(sample(&two, "absent", "m"), None);
    }
}
