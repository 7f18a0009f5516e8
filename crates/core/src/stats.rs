//! Engine observability: cheap relaxed-atomic counters for the hot path.
//!
//! [`EngineStats`] is a bag of monotonically increasing counters the
//! pipelined engine bumps with `Relaxed` atomics — a handful of
//! nanoseconds per event, never a lock — and
//! [`EngineStats::snapshot`] reads them into a plain
//! [`EngineStatsSnapshot`] for reporting. `bench_stack --trace` reads a
//! snapshot per window (`core.bypass_share`, `core.chained_claim_share`,
//! `core.avg_batch_len`, `core.frontier_hit_ratio`, `query.path_scan_share`,
//! `query.view_subst_per_join`), which is how the adaptive-batching regime
//! decisions (`DESIGN.md` §9.5) are verified against real traffic rather
//! than guessed at.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use fundb_query::exec::Trace;
use fundb_query::{AccessPath, JoinStrategy};

/// Hot-path event counters; every field is bumped with relaxed atomics.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Reads answered from the lock-free frontier (no slot mutex).
    pub frontier_hits: AtomicU64,
    /// Reads within one component that missed the frontier (a write was
    /// in flight) and fell back to the locked path.
    pub frontier_misses: AtomicU64,
    /// Writes applied inline under the slot lock (bypass regime).
    pub bypass_writes: AtomicU64,
    /// Writes appended to an already-open batch (coalesce regime).
    pub coalesced_writes: AtomicU64,
    /// Batches opened (each is the head of a coalescing run).
    pub batches_opened: AtomicU64,
    /// Batches claimed and applied (by their own pool job or a
    /// predecessor's chain drain).
    pub batches_claimed: AtomicU64,
    /// Write ops folded by claimed batches; `ops_claimed /
    /// batches_claimed` is the achieved batch length.
    pub ops_claimed: AtomicU64,
    /// Batches sealed at submission time — by a reader pinning the output,
    /// a join, a DDL barrier, a consistent cut, a view merge, or a write to
    /// another relation of the component.
    pub seals_by_reader: AtomicU64,
    /// Batches sealed by their claimer (worker job or chain drain): the
    /// run grew until its input arrived.
    pub seals_by_worker: AtomicU64,
    /// Batches that never got their own pool job: opened behind a pending
    /// predecessor and claimed by the predecessor's worker drain, so a
    /// multi-batch run costs one job.
    pub chained_claims: AtomicU64,
    /// Selects served by a primary-key equality probe.
    pub path_key_eq: AtomicU64,
    /// Selects served by a composite-index equality (or prefix) probe.
    pub path_composite_eq: AtomicU64,
    /// Selects served by a single-column secondary-index probe.
    pub path_index_eq: AtomicU64,
    /// Selects served by a primary-key range.
    pub path_key_range: AtomicU64,
    /// Selects served by a secondary-index range.
    pub path_index_range: AtomicU64,
    /// Selects that fell back to the full streaming scan.
    pub path_scan: AtomicU64,
    /// Selects answered entirely from a covering index's posting walk
    /// (no primary-store probe).
    pub path_covered: AtomicU64,
    /// Selects/joins answered from a matching materialized view instead
    /// of their base relations.
    pub view_substitutions: AtomicU64,
    /// Joins executed by the key-key merge pass.
    pub join_merge: AtomicU64,
    /// Joins executed by per-left-tuple primary-key probes.
    pub join_key_probe: AtomicU64,
    /// Joins executed as index nested loops over an inner secondary index.
    pub join_index_nested_loop: AtomicU64,
    /// Joins executed by building a value map over the inner relation.
    pub join_scan_build: AtomicU64,
}

/// A point-in-time copy of [`EngineStats`], plus derived ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on EngineStats
pub struct EngineStatsSnapshot {
    pub frontier_hits: u64,
    pub frontier_misses: u64,
    pub bypass_writes: u64,
    pub coalesced_writes: u64,
    pub batches_opened: u64,
    pub batches_claimed: u64,
    pub ops_claimed: u64,
    pub seals_by_reader: u64,
    pub seals_by_worker: u64,
    pub chained_claims: u64,
    pub path_key_eq: u64,
    pub path_composite_eq: u64,
    pub path_index_eq: u64,
    pub path_key_range: u64,
    pub path_index_range: u64,
    pub path_scan: u64,
    pub path_covered: u64,
    pub view_substitutions: u64,
    pub join_merge: u64,
    pub join_key_probe: u64,
    pub join_index_nested_loop: u64,
    pub join_scan_build: u64,
}

impl EngineStats {
    /// Bumps `counter` by one, relaxed: callers record events, never
    /// synchronize through them.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps `counter` by `n`, relaxed.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records what a read's evaluation did: the access path a select
    /// ran on, the strategy a join ran on, a view standing in.
    pub fn record(&self, trace: &Trace) {
        if let Some(path) = &trace.path {
            Self::bump(match path {
                AccessPath::KeyEq(_) => &self.path_key_eq,
                AccessPath::CompositeEq { .. } => &self.path_composite_eq,
                AccessPath::IndexEq { .. } => &self.path_index_eq,
                AccessPath::KeyRange(_, _) => &self.path_key_range,
                AccessPath::IndexRange { .. } => &self.path_index_range,
                AccessPath::Scan => &self.path_scan,
                AccessPath::CoveredEq { .. } => &self.path_covered,
            });
        }
        if let Some(strategy) = &trace.join {
            Self::bump(match strategy {
                JoinStrategy::MergeKeys => &self.join_merge,
                JoinStrategy::KeyProbe => &self.join_key_probe,
                JoinStrategy::IndexNestedLoop { .. } => &self.join_index_nested_loop,
                JoinStrategy::ScanBuild => &self.join_scan_build,
            });
        }
        if trace.substituted {
            Self::bump(&self.view_substitutions);
        }
    }

    /// Reads every counter (relaxed — values are advisory, not a cut).
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EngineStatsSnapshot {
            frontier_hits: get(&self.frontier_hits),
            frontier_misses: get(&self.frontier_misses),
            bypass_writes: get(&self.bypass_writes),
            coalesced_writes: get(&self.coalesced_writes),
            batches_opened: get(&self.batches_opened),
            batches_claimed: get(&self.batches_claimed),
            ops_claimed: get(&self.ops_claimed),
            seals_by_reader: get(&self.seals_by_reader),
            seals_by_worker: get(&self.seals_by_worker),
            chained_claims: get(&self.chained_claims),
            path_key_eq: get(&self.path_key_eq),
            path_composite_eq: get(&self.path_composite_eq),
            path_index_eq: get(&self.path_index_eq),
            path_key_range: get(&self.path_key_range),
            path_index_range: get(&self.path_index_range),
            path_scan: get(&self.path_scan),
            path_covered: get(&self.path_covered),
            view_substitutions: get(&self.view_substitutions),
            join_merge: get(&self.join_merge),
            join_key_probe: get(&self.join_key_probe),
            join_index_nested_loop: get(&self.join_index_nested_loop),
            join_scan_build: get(&self.join_scan_build),
        }
    }
}

impl EngineStatsSnapshot {
    /// Achieved ops per claimed batch (0.0 before any batch ran).
    pub fn avg_batch_len(&self) -> f64 {
        if self.batches_claimed == 0 {
            0.0
        } else {
            self.ops_claimed as f64 / self.batches_claimed as f64
        }
    }

    /// Total writes submitted, across both regimes. Writes that *opened* a
    /// batch are counted through `ops_claimed` alongside the coalesced
    /// joiners, so the sum avoids double counting.
    pub fn writes(&self) -> u64 {
        self.bypass_writes + self.ops_claimed
    }
}

impl fmt::Display for EngineStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frontier {}/{} hit/miss · writes {} bypass / {} batched in {} batches (avg {:.1}/batch) · seals {} reader / {} worker · {} chained claims · paths key:{} comp:{} ix:{} krange:{} ixrange:{} scan:{} cov:{} · joins merge:{} probe:{} inl:{} build:{} · views sub:{}",
            self.frontier_hits,
            self.frontier_misses,
            self.bypass_writes,
            self.ops_claimed,
            self.batches_claimed,
            self.avg_batch_len(),
            self.seals_by_reader,
            self.seals_by_worker,
            self.chained_claims,
            self.path_key_eq,
            self.path_composite_eq,
            self.path_index_eq,
            self.path_key_range,
            self.path_index_range,
            self.path_scan,
            self.path_covered,
            self.join_merge,
            self.join_key_probe,
            self.join_index_nested_loop,
            self.join_scan_build,
            self.view_substitutions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_bumped_counters() {
        let stats = EngineStats::default();
        EngineStats::bump(&stats.frontier_hits);
        EngineStats::bump(&stats.frontier_hits);
        EngineStats::add(&stats.ops_claimed, 7);
        EngineStats::bump(&stats.batches_claimed);
        let snap = stats.snapshot();
        assert_eq!(snap.frontier_hits, 2);
        assert_eq!(snap.ops_claimed, 7);
        assert!((snap.avg_batch_len() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn path_and_join_counters() {
        let stats = EngineStats::default();
        let path = |path| Trace {
            path: Some(path),
            ..Trace::default()
        };
        let join = |strategy| Trace {
            join: Some(strategy),
            ..Trace::default()
        };
        stats.record(&path(AccessPath::Scan));
        stats.record(&path(AccessPath::KeyEq(fundb_relational::Value::Int(1))));
        stats.record(&join(JoinStrategy::MergeKeys));
        stats.record(&join(JoinStrategy::IndexNestedLoop {
            index: "ix".into(),
            field: 1,
        }));
        stats.record(&path(AccessPath::CoveredEq {
            index: "cx".into(),
            fields: vec![1],
            values: vec![fundb_relational::Value::Int(3)],
        }));
        stats.record(&Trace {
            substituted: true,
            ..Trace::default()
        });
        let snap = stats.snapshot();
        assert_eq!(snap.path_scan, 1);
        assert_eq!(snap.path_key_eq, 1);
        assert_eq!(snap.path_covered, 1);
        assert_eq!(snap.view_substitutions, 1);
        assert!(snap.to_string().contains("cov:1"));
        assert!(snap.to_string().contains("views sub:1"));
        assert_eq!(snap.join_merge, 1);
        assert_eq!(snap.join_index_nested_loop, 1);
        assert!(snap.to_string().contains("inl:1"));
    }

    #[test]
    fn display_is_one_line() {
        let snap = EngineStats::default().snapshot();
        let line = snap.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("frontier"));
    }
}
