//! The overhead gate for the telemetry layer.
//!
//! The obs runtime is compiled into every build and starts off, so every
//! instrumented call site in a default run pays one relaxed atomic load
//! and a never-taken branch. This bench times an end-to-end sweep with
//! recording off and asserts that this cost stays under 1% of it:
//!
//! ```text
//! cargo bench --bench obs_overhead -- [--quick] [--out DIR]
//! ```
//!
//! The gate is computed inside this one binary, where code layout is
//! fixed: measure the per-call cost of a disabled record, count exactly
//! how many records the workload would emit (by running it once with
//! recording on), and assert `per_call_ns x records / workload_ns < 1%`.
//! A wall-clock comparison against some other binary would gate on link
//! layout, which alone moves this workload by several percent.

use std::hint::black_box;
use std::time::Instant;

use cyclesteal_sweep::{run_points, GridSpec, Point, SweepOptions};
use cyclesteal_xtest::Bench;

/// A 30-point CS-CQ analysis grid inside the Theorem-1 frontier: every
/// point runs the full fit → QBD → recovery → cache pipeline, so the
/// instrumented call sites are exercised end to end. Fresh cache per
/// call (`threads(1)` carries no shared cache), so every iteration
/// repeats all the work.
fn workload_points() -> Vec<Point> {
    let rho_s: Vec<f64> = (0..6).map(|i| 0.02 + 0.18 * i as f64).collect();
    let rho_l: Vec<f64> = (0..5).map(|j| 0.015 + 0.147 * j as f64).collect();
    let mut spec = GridSpec::analysis("obs_overhead", rho_s, rho_l);
    spec.policies = vec![cyclesteal_core::stability::Policy::CsCq];
    spec.points()
}

fn main() {
    let mut h = Bench::new("obs_overhead");
    let quick = h.is_quick();
    assert!(
        !cyclesteal_obs::is_active(),
        "the overhead gate measures the disabled runtime"
    );

    let points = workload_points();
    h.bench(&format!("obs_overhead/sweep_{}pt", points.len()), || {
        run_points(
            "obs_overhead",
            black_box(&points),
            &SweepOptions::threads(1),
        )
    });

    // The raw per-call cost of a disabled counter, 1,000 calls per
    // iteration (~0.3 ns each: one relaxed load + a never-taken branch).
    h.bench("obs_overhead/disabled_counter_x1000", || {
        for _ in 0..1_000 {
            // black_box stops LLVM from hoisting the active-flag check
            // out of the loop: we want 1,000 honest call sites.
            cyclesteal_obs::counter!(black_box("bench.noop"));
        }
    });

    h.finish();

    assert_overhead_under_one_percent(&points, quick);
}

/// The hard gate: disabled-record cost times the workload's exact record
/// volume must stay under 1% of the workload's own runtime.
/// Layout-stable because every number comes from one binary.
fn assert_overhead_under_one_percent(points: &[Point], quick: bool) {
    let (sweep_iters, call_iters) = if quick {
        (20, 200_000)
    } else {
        (100, 1_000_000)
    };

    let mut sweep_ns = u64::MAX;
    for _ in 0..sweep_iters {
        let t = Instant::now();
        black_box(run_points(
            "obs_overhead",
            black_box(points),
            &SweepOptions::threads(1),
        ));
        sweep_ns = sweep_ns.min(t.elapsed().as_nanos() as u64);
    }

    let t = Instant::now();
    for _ in 0..call_iters {
        cyclesteal_obs::counter!(black_box("bench.noop"));
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / f64::from(call_iters);

    // Count the records one workload iteration emits: run it once with
    // recording on. Counter values over-count calls (a `counter!(_, n)`
    // is one call), histogram counts are exact, spans record at enter
    // and at drop; the gauge slack covers the pool's schedule gauges.
    let session = cyclesteal_obs::Session::start();
    black_box(run_points(
        "obs_overhead",
        black_box(points),
        &SweepOptions::threads(1),
    ));
    let snap = session.snapshot();
    drop(session);
    let records: u64 = snap.counters.iter().map(|(_, v)| v).sum::<u64>()
        + snap.histograms.iter().map(|(_, h)| h.count).sum::<u64>()
        + snap.spans.iter().map(|e| 2 * e.count).sum::<u64>()
        + 16;

    let overhead_pct = per_call_ns * records as f64 / sweep_ns as f64 * 100.0;
    println!(
        "obs overhead gate: {records} records x {per_call_ns:.3} ns disabled cost \
         over a {:.2} ms workload = {overhead_pct:.4}% (< 1% required)",
        sweep_ns as f64 / 1e6,
    );
    assert!(
        overhead_pct < 1.0,
        "disabled telemetry overhead {overhead_pct:.4}% >= 1%"
    );
}
