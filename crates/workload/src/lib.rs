//! Workload generation and the paper's experiment battery.
//!
//! Section 4 of Keller & Lindstrom: "An experiment was performed which
//! processed 50 transactions on three versions of a database, with 1, 3,
//! and 5 relations respectively, having a total of 50 tuples among them
//! initially. The transactions were all either single-tuple inserts or
//! finds, and the percentage of inserts was varied through 4, 7, 14, 24,
//! and 38 percent."
//!
//! * [`WorkloadSpec`] / [`Workload`] — seeded, reproducible generation of
//!   exactly that shape (plus free parameters for scaling studies).
//! * [`experiment`] — the Table I / II / III sweeps, returning rows that
//!   pair our measured numbers with the paper's published ones.
//! * [`report`] — paper-style text tables.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod gen;
pub mod report;

pub use experiment::{
    run_scaling, run_table1, run_table2, run_table3, ScalingRow, SpeedupRow, Table1Row,
    PAPER_RELATION_COLUMNS, PAPER_UPDATE_PERCENTS,
};
pub use gen::{Phase, PhasedSpec, Workload, WorkloadSpec};
