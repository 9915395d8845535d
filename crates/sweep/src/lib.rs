//! A multi-threaded scenario-sweep engine for the cycle-stealing
//! analyzers and simulator — evaluate a declarative
//! `ρ_S × ρ_L × C² × policy` grid on a worker pool, with memoized
//! sub-solves and **bit-identical reports regardless of thread count or
//! input order**.
//!
//! * [`GridSpec`] declares the grid; [`run`] (or [`run_points`] for an
//!   explicit point list) evaluates it.
//! * Analysis points share a [`cyclesteal_core::cache::SolveCache`]
//!   (Coxian busy-period fits and whole CS-CQ reports, both keyed on
//!   quantized inputs), so a sweep computes each distinct sub-solve once.
//! * Simulation points derive their seeds from their own parameters, so
//!   replication aggregates don't depend on where a point sits in the
//!   grid.
//! * [`SweepReport::to_json`] emits a canonical JSON document in the xtest
//!   bench envelope; timings and cache-hit counters live in the separate
//!   [`SweepMetrics`].
//! * Failures are **isolated and attributed**: a panicking or
//!   non-converging point becomes a structured [`PointFailure`] record in
//!   its own row ([`FailureKind`] taxonomy, tallied in
//!   [`FailureCounts`]) while every other point completes normally.
//!
//! # Example
//!
//! ```
//! use cyclesteal_sweep::{run, GridSpec, SweepOptions};
//!
//! let spec = GridSpec::analysis("demo", vec![0.5, 1.0], vec![0.3, 0.5]);
//! let (serial, _) = run(&spec, &SweepOptions::threads(1));
//! let (parallel, metrics) = run(&spec, &SweepOptions::threads(8));
//! assert_eq!(serial.to_json(), parallel.to_json());
//! assert!(metrics.cache.hits + metrics.cache.misses > 0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod batch;
mod engine;
mod grid;
mod query;
mod report;

pub use batch::{presolve_points, presolve_points_on, BatchStats};
pub use engine::{run, run_points, SweepOptions};
pub use grid::{policy_name, Evaluator, GridSpec, LongLaw, Point};
pub use query::{run_queries, run_query, QueryOutcome};
pub use report::{FailureCounts, FailureKind, PointFailure, SweepMetrics, SweepReport, SweepRow};
