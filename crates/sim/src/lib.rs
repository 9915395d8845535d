//! Discrete-event simulation of task-assignment policies on `n` servers.
//!
//! This crate plays the role of the C simulator the paper validates its
//! analysis against (Section 4): Poisson or MAP arrivals of short and long
//! jobs, non-preemptive servers, and the policies under study. One event
//! engine runs every policy; a policy owns its queues and answers the
//! engine's arrival and departure callbacks. The 2-host policies:
//!
//! * [`PolicyKind::Dedicated`] — shorts to host 0, longs to host 1.
//! * [`PolicyKind::CsId`] — cycle stealing with immediate dispatch: an
//!   *arriving* short runs on the long host iff that host is idle.
//! * [`PolicyKind::CsCq`] — cycle stealing with a central queue and
//!   renamable hosts (at most one long ever in service; a freed host takes a
//!   waiting long only if the other host is not serving a long, otherwise
//!   the first short).
//! * [`PolicyKind::PriorityCentral`] — the M/G/2/SJF comparator from the
//!   paper's Section 6: both hosts serve any class, the smaller-mean class
//!   has non-preemptive priority.
//! * [`PolicyKind::CentralFcfs`] — both hosts, one FCFS queue, classes
//!   ignored (an M/G/2; used for M/M/2 validation).
//! * [`PolicyKind::RoundRobin`], [`PolicyKind::ShortestQueue`] and
//!   [`PolicyKind::Tags`] — the related-work dispatch baselines.
//!
//! [`PolicyKind::CsCqFleet`] runs CS-CQ on `k` short plus `m` stealing
//! servers, the fleet `cyclesteal_core::cs_cq_km` analyzes.
//!
//! # Determinism
//!
//! A run is a pure function of its seed. The draw order is part of the
//! contract: at an arrival the job size comes first, then whatever the
//! policy draws (a fleet long draws its slot), then the next interarrival
//! of the class. [`replicate_parallel`] shards replications across threads
//! and aggregates them in seed order, so results are bit-identical for
//! every thread count.
//!
//! # Example
//!
//! ```
//! use cyclesteal_dist::Exp;
//! use cyclesteal_sim::{PolicyKind, SimConfig, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let shorts = Exp::with_mean(1.0)?;
//! let longs = Exp::with_mean(1.0)?;
//! let params = SimParams::new(0.5, 0.3, &shorts, &longs)?;
//! let config = SimConfig { seed: 1, total_jobs: 50_000, ..SimConfig::default() };
//! let result = cyclesteal_sim::simulate(PolicyKind::CsCq, &params, &config);
//! assert!(result.short.mean > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod engine;
mod policy;
mod pool;
mod stats;

pub use engine::{simulate, Arrivals, SimConfig, SimParams, SimResult};
pub use policy::{JobClass, PolicyKind};
pub use pool::{parallel_map, parallel_map_isolated};
pub use stats::{replicate, replicate_parallel, ClassStats, Replicated};
