//! Telemetry determinism: with the obs runtime recording, every sweep
//! report embeds a **counts-only** telemetry snapshot — and those counts
//! (counters, histogram contents, span close-counts) are bit-identical
//! across thread counts and input order, exactly like the rows they ride
//! with. Timing-class data (span nanoseconds, gauges) stays in
//! `SweepMetrics` and is never part of the comparison.

use cyclesteal_obs as obs;
use cyclesteal_sweep::{run, Evaluator, GridSpec, LongLaw, SweepOptions};

/// Deterministic Fisher–Yates on a splitmix64 stream (same scheme as the
/// row-determinism suite).
fn shuffle<T>(items: &mut [T], mut state: u64) {
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The 3,000-point CS-CQ analysis grid of the fault-injection suite:
/// every point inside the Theorem-1 frontier, so every row evaluates and
/// the whole solver stack (fits, QBD, recovery ladder, cache) records.
fn grid() -> GridSpec {
    let rho_s: Vec<f64> = (0..60).map(|i| 0.02 + 0.018 * i as f64).collect();
    let rho_l: Vec<f64> = (0..50).map(|j| 0.015 + 0.0147 * j as f64).collect();
    let mut spec = GridSpec::analysis("obs_determinism", rho_s, rho_l);
    spec.policies = vec![cyclesteal_core::stability::Policy::CsCq];
    spec
}

#[test]
fn embedded_counts_are_bit_identical_across_threads_and_input_order() {
    let spec = grid();
    let points = spec.points();
    assert_eq!(points.len(), 3_000);

    let _session = obs::Session::start();

    // Each run gets a fresh SolveCache (no shared cache in the options):
    // hit/miss counts are then a pure function of the point multiset.
    let (baseline, metrics) =
        cyclesteal_sweep::run_points("obs_determinism", &points, &SweepOptions::threads(1));
    let want = baseline.to_json();
    let counts = baseline.obs.as_ref().expect("recording: snapshot embedded");

    // Sanity: the embedded snapshot actually covers the whole pipeline.
    assert_eq!(counts.counter("sweep.points"), 3_000);
    assert_eq!(counts.span_count("sweep.point"), 3_000);
    // One pool task per point, plus one per question the presolve filed.
    assert_eq!(
        counts.counter("sim.pool.tasks"),
        3_000 + metrics.batch.unique as u64
    );
    assert!(counts.counter("core.cs_cq.analyze") > 0, "solver counters");
    assert!(counts.counter("markov.qbd.solve") > 0, "QBD counters");
    assert!(counts.counter("linalg.lu.factor") > 0, "linalg counters");
    assert!(counts.counter("dist.match3.fit_ph") > 0, "fit counters");
    assert!(
        counts.counter("core.cache.report.miss") > 0,
        "cache counters"
    );
    assert!(
        counts.histogram("core.recover.ladder_depth").is_some(),
        "ladder histogram"
    );
    // Counts-only contract: no gauges, no span nanoseconds.
    assert!(counts.gauges.is_empty(), "{:?}", counts.gauges);
    assert!(counts.spans.iter().all(|e| e.total_ns == 0));
    // The full (timing-class) snapshot rides in the metrics instead.
    let full = metrics.obs.expect("metrics carry the full snapshot");
    assert!(
        full.counter("sim.pool.queue_hwm") == 0,
        "gauge, not counter"
    );

    for threads in [2, 8] {
        let (rep, _) = cyclesteal_sweep::run_points(
            "obs_determinism",
            &points,
            &SweepOptions::threads(threads),
        );
        assert_eq!(want, rep.to_json(), "threads = {threads}");
    }

    let mut shuffled = points.clone();
    shuffle(&mut shuffled, 0x0B5_DE7);
    let (rep, _) =
        cyclesteal_sweep::run_points("obs_determinism", &shuffled, &SweepOptions::threads(8));
    assert_eq!(want, rep.to_json(), "shuffled input");
}

/// Satellite check: the engine logs every attributed failure through an
/// obs counter, and those counters agree with the `FailureCounts` tally
/// kind by kind.
#[test]
fn failure_counters_cross_check_the_failure_tally() {
    // `C² = 0.5 < 1` long laws have no balanced-means H₂ representative:
    // every simulation row carries an attributed `infeasible_fit` record.
    let spec = GridSpec {
        long_laws: vec![LongLaw::balanced(1.0, 0.5).expect("valid law")],
        evaluator: Evaluator::Simulation {
            total_jobs: 500,
            reps: 1,
            base_seed: 3,
        },
        ..GridSpec::analysis("low_scv", vec![0.5], vec![0.3])
    };

    let _session = obs::Session::start();
    let (rep, metrics) = run(&spec, &SweepOptions::threads(2));
    let counts = rep.obs.as_ref().expect("recording: snapshot embedded");

    assert_eq!(metrics.failures.infeasible_fit, 3);
    assert_eq!(
        counts.counter("sweep.failure.infeasible_fit"),
        metrics.failures.infeasible_fit
    );
    let obs_total: u64 = counts
        .counters_with_prefix("sweep.failure.")
        .map(|(_, v)| v)
        .sum();
    assert_eq!(obs_total, metrics.failures.total());
}

/// Satellite check: under an armed 5%-rate fault plan, every injected
/// fault surfaces as an `xtest.fault.injected:<site>` counter labeled
/// with the exact site the plan chose — cross-checked against the plan's
/// own `site_for` oracle, and deterministic across thread counts.
/// Fault sites compile away in release, hence the debug gate.
#[cfg(debug_assertions)]
#[test]
fn injected_faults_surface_as_labeled_obs_counters() {
    use cyclesteal_sweep::SweepRow;
    use cyclesteal_xtest::fault::{self, FaultPlan, QuietPanics};

    const SITES: [&str; 3] = ["sweep.point", "qbd.solve", "dist.busy.mg1"];

    // A 300-point sub-grid of the stable region (same shape, fewer
    // points: the oracle math is identical, the run is 10× cheaper).
    let rho_s: Vec<f64> = (0..20).map(|i| 0.02 + 0.054 * i as f64).collect();
    let rho_l: Vec<f64> = (0..15).map(|j| 0.015 + 0.049 * j as f64).collect();
    let mut spec = GridSpec::analysis("obs_faults", rho_s, rho_l);
    spec.policies = vec![cyclesteal_core::stability::Policy::CsCq];
    let points = spec.points();
    assert_eq!(points.len(), 300);

    // The per-point oracle: which site (if any) the plan injects at.
    let plan = FaultPlan::new(0x00C0_FFEE, 0.05, &SITES);
    let mut planned_per_site = std::collections::BTreeMap::<String, u64>::new();
    for point in &points {
        if let Some(site) = plan.site_for(&SweepRow::id_of(point)) {
            *planned_per_site.entry(site.to_string()).or_insert(0) += 1;
        }
    }
    let planned_total: u64 = planned_per_site.values().sum();
    assert!(planned_total > 0, "a 5% plan over 300 points must fire");

    let _quiet = QuietPanics::install();
    let _session = obs::Session::start();
    let armed = fault::arm(plan);
    let (rep1, _) = cyclesteal_sweep::run_points("obs_faults", &points, &SweepOptions::threads(1));
    let (rep8, _) = cyclesteal_sweep::run_points("obs_faults", &points, &SweepOptions::threads(8));
    drop(armed);

    assert_eq!(
        rep1.to_json(),
        rep8.to_json(),
        "fault telemetry is deterministic across thread counts"
    );

    let counts = rep1.obs.as_ref().expect("recording: snapshot embedded");
    for (site, &planned) in &planned_per_site {
        let injected = counts.counter(&format!("xtest.fault.injected:{site}"));
        // A site can be revisited within one point (the QBD fault fires on
        // the primary *and* fallback attempt of every ladder rung), so the
        // counter is bounded below by the per-point plan, never above 0
        // spuriously.
        assert!(
            injected >= planned,
            "site {site}: injected {injected} < planned {planned}"
        );
    }
    // No unplanned site ever appears.
    for (name, _) in counts.counters_with_prefix("xtest.fault.injected:") {
        let site = name.trim_start_matches("xtest.fault.injected:");
        assert!(
            planned_per_site.contains_key(site),
            "unplanned injection label {name}"
        );
    }
    // The panic site fires exactly once per planned point (the point dies
    // on first contact), and every such point carries a Panicked record.
    if let Some(&panics) = planned_per_site.get("sweep.point") {
        assert_eq!(counts.counter("xtest.fault.injected:sweep.point"), panics);
        assert_eq!(counts.counter("sweep.failure.panicked"), panics);
        assert_eq!(counts.counter("sim.pool.panics_isolated"), panics);
    }
}
