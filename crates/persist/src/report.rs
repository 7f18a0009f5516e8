//! Copy/sharing accounting for persistent updates.

use std::fmt;
use std::ops::Add;

/// How much structure an update created anew versus shared.
///
/// Returned by the `_counted` update operations across this crate. The
/// paper's space argument (Section 2.2) is that `copied / (copied + shared)`
/// tends to `O(log n / n)` for tree representations; the benches print
/// exactly this ratio.
///
/// `copied` is exact wherever a report appears. `shared` is exact from the
/// `_counted` operations, which walk the result to count it. The reports
/// of the relational layer's write paths (`Relation::insert`, `delete`,
/// `apply_batch`) fill it only where no tree walk is needed — the suffix
/// of a list behind the touched cells — and leave it 0 for the trees, so `total()` and `copied_fraction()` of
/// a tree-backed relation's report say nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CopyReport {
    /// Nodes (or pages) constructed by this update.
    pub copied: u64,
    /// Nodes (or pages) of the previous version reachable unchanged from the
    /// new version.
    pub shared: u64,
}

impl CopyReport {
    /// A report with the given counts.
    pub fn new(copied: u64, shared: u64) -> Self {
        CopyReport { copied, shared }
    }

    /// Total nodes reachable from the new version.
    pub fn total(&self) -> u64 {
        self.copied + self.shared
    }

    /// Fraction of the new version that had to be constructed, in `[0, 1]`.
    /// Returns 0.0 for an empty structure.
    pub fn copied_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.copied as f64 / total as f64
        }
    }
}

impl Add for CopyReport {
    type Output = CopyReport;

    fn add(self, rhs: CopyReport) -> CopyReport {
        CopyReport {
            copied: self.copied + rhs.copied,
            shared: self.shared + rhs.shared,
        }
    }
}

impl fmt::Display for CopyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} copied / {} shared ({:.1}% new)",
            self.copied,
            self.shared,
            self.copied_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_handles_empty() {
        assert_eq!(CopyReport::default().copied_fraction(), 0.0);
    }

    #[test]
    fn fraction_and_total() {
        let r = CopyReport::new(1, 3);
        assert_eq!(r.total(), 4);
        assert!((r.copied_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn add_accumulates() {
        let r = CopyReport::new(1, 2) + CopyReport::new(3, 4);
        assert_eq!(r, CopyReport::new(4, 6));
    }

    #[test]
    fn display_mentions_percentages() {
        let s = CopyReport::new(1, 3).to_string();
        assert!(s.contains("25.0% new"), "got: {s}");
    }
}
