//! Hermetic verification stack for the cyclesteal workspace.
//!
//! Three independent layers, all dependency-free so the whole workspace
//! builds and tests offline from a cold cache:
//!
//! * [`rng`] — a deterministic PRNG (splitmix64-seeded xoshiro256++) with
//!   the object-safe [`rng::Rng`] trait the simulator and the distribution
//!   samplers are written against, plus exponential / uniform / Coxian
//!   samplers.
//! * [`prop`] — a minimal property-testing layer: composable generators,
//!   macro-driven case generation ([`props!`]), greedy shrinking on
//!   failure, and fixed-seed reproducibility (override with `XTEST_SEED`).
//! * [`bench`](mod@bench) — a criterion-free micro-benchmark harness: warmup,
//!   per-iteration timing, mean/p50/p99 summaries, and JSON emission to
//!   `BENCH_<name>.json` for perf-trajectory regression across PRs.
//!
//! # Seeding convention
//!
//! Everything is deterministic by default. Property tests derive their
//! seed from the test name and a fixed base so a failure reproduces by
//! rerunning the test; set `XTEST_SEED=<u64>` to explore other streams.
//! Simulation code takes explicit `u64` seeds and expands them through
//! [`rng::SplitMix64`], so any two distinct seeds give independent-looking
//! streams.

//! A fourth layer, [`fault`], supports robustness testing: seeded,
//! scope-keyed fault plans that production crates expose via the
//! [`fault_point!`] macro (compiled out of release builds); and a fifth,
//! [`clock`], provides scripted nanosecond clocks so deadline/budget
//! logic written against an injected time source tests deterministically.

pub mod bench;
pub mod clock;
pub mod fault;
pub mod prop;
pub mod rng;

pub use bench::Bench;
pub use prop::{forall, CaseResult, Gen};
pub use rng::{Rng, RngExt, SeedableRng, SmallRng};
