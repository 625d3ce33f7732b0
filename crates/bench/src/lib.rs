//! # hus-bench — experiment harness
//!
//! Regenerates every table and figure of the HUS-Graph paper's
//! evaluation (§4) against the scaled synthetic datasets (see
//! `DESIGN.md` for the substitution rationale and the per-experiment
//! index). Each `src/bin/*.rs` binary reproduces one table/figure and
//! prints it in a paper-like layout. Performance is measured by
//! `husbench` (the standalone `benchmark/` package), not here.
//!
//! Common knobs (environment variables):
//!
//! * `HUS_SCALE` — dataset scale divisor (default 1000; smaller = bigger
//!   graphs).
//! * `HUS_P` — interval/grid partition count for all systems (default 8).
//! * `HUS_THREADS` — worker threads (default: all cores).

#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use harness::{
    build_stores, run_hus, run_system, workload, AlgoKind, Stores, SystemKind, Workload,
};
pub use report::{fmt_gb, fmt_secs, fmt_speedup, Table};
