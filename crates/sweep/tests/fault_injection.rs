//! The headline robustness property: a large sweep with randomly injected
//! faults (panics, solver non-convergence, NaN taints) completes, every
//! injected fault surfaces as exactly the right structured failure record,
//! non-faulted rows are bit-identical to a clean run, and the report JSON
//! is bit-identical across thread counts.
//!
//! Fault sites only exist in debug builds (`fault_point!` folds away under
//! release), so this whole test file is debug-gated.
#![cfg(debug_assertions)]

use cyclesteal_core::stability::Policy;
use cyclesteal_sweep::{
    run, run_queries, FailureKind, GridSpec, SweepOptions, SweepReport, SweepRow,
};
use cyclesteal_xtest::fault::{self, FaultPlan, QuietPanics};

/// The armed sites, one per layer: the sweep worker itself (panic), the
/// QBD solver (non-convergence), and the busy-period moments (NaN taint).
const SITES: [&str; 3] = ["sweep.point", "qbd.solve", "dist.busy.mg1"];

// Clean baselines run inside an armed empty plan (rate 0): the plan is
// process-wide, so another test's armed section would leak into them.

/// A 3,000-point CS-CQ analysis grid, every point comfortably inside the
/// Theorem-1 frontier `ρ_S < 2 − ρ_L` (max `ρ_S` 1.08 vs. frontier ≥
/// 1.26), so a clean run evaluates every row and every armed site is
/// actually reached by every point.
fn grid() -> GridSpec {
    let rho_s: Vec<f64> = (0..60).map(|i| 0.02 + 0.018 * i as f64).collect();
    let rho_l: Vec<f64> = (0..50).map(|j| 0.015 + 0.0147 * j as f64).collect();
    let mut spec = GridSpec::analysis("fault_injection", rho_s, rho_l);
    spec.policies = vec![Policy::CsCq];
    spec
}

/// The scalar oracle of an armed sweep of `spec`: every point answered on
/// its own through `run_queries`, then each row that `plan` panics in the
/// sweep pool replaced by the pool's panic record. The pool's own site,
/// `sweep.point`, is the one site `run_query` never reaches.
fn armed_oracle(spec: &GridSpec, plan: &FaultPlan) -> SweepReport {
    let mut report = run_queries(&spec.name, &spec.points());
    let points = spec.points();
    for row in &mut report.rows {
        if plan.site_for(&row.id) == Some("sweep.point") {
            let point = points
                .iter()
                .find(|p| SweepRow::id_of(p) == row.id)
                .unwrap();
            *row = SweepRow::panicked(point, "injected fault: sweep.point".to_string());
        }
    }
    report
}

#[test]
fn injected_faults_are_attributed_and_reports_stay_deterministic() {
    let spec = grid();
    assert_eq!(spec.len(), 3_000);

    let quiet_section = fault::arm(FaultPlan::new(0, 0.0, &SITES));
    let (clean, clean_metrics) = run(&spec, &SweepOptions::threads(1));
    drop(quiet_section);
    assert_eq!(clean_metrics.failures.total(), 0, "clean run must be clean");
    for row in &clean.rows {
        assert!(row.short_response.is_some(), "{} must evaluate", row.id);
        assert!(row.failure.is_none(), "{}", row.id);
    }

    // The plan is a pure function of (seed, scope), so the per-row oracle
    // can be computed before arming — and is valid for every thread count.
    let plan = FaultPlan::new(0x00C0_FFEE, 0.05, &SITES);
    let oracle: Vec<Option<String>> = clean
        .rows
        .iter()
        .map(|r| plan.site_for(&r.id).map(str::to_string))
        .collect();

    let _quiet = QuietPanics::install();
    let armed = fault::arm(plan);
    let (rep1, metrics1) = run(&spec, &SweepOptions::threads(1));
    let (rep2, _) = run(&spec, &SweepOptions::threads(2));
    let (rep8, _) = run(&spec, &SweepOptions::threads(8));
    drop(armed);

    // Determinism under faults: the full JSON document — values, failure
    // records, attempt counts — is bit-identical at 1, 2, and 8 threads.
    let json1 = rep1.to_json();
    assert_eq!(json1, rep2.to_json(), "1 vs 2 threads");
    assert_eq!(json1, rep8.to_json(), "1 vs 8 threads");

    // Every point is present (isolation: no faulted point took others
    // down or got dropped), in the same canonical order as the clean run.
    assert_eq!(rep1.rows.len(), clean.rows.len());

    let mut fired = [0u64; 3];
    for ((clean_row, armed_row), planned) in clean.rows.iter().zip(&rep1.rows).zip(&oracle) {
        assert_eq!(clean_row.id, armed_row.id);
        let failure = || {
            armed_row
                .failure
                .as_ref()
                .unwrap_or_else(|| panic!("{} must carry a failure record", armed_row.id))
        };
        match planned.as_deref() {
            // Non-faulted rows are bit-identical to the clean run: the
            // faulted points around them perturbed nothing.
            None => assert_eq!(armed_row, clean_row, "{}", clean_row.id),
            Some("sweep.point") => {
                fired[0] += 1;
                assert!(
                    matches!(&failure().kind, FailureKind::Panicked { message }
                        if message.contains("injected")),
                    "{}: {:?}",
                    armed_row.id,
                    armed_row.failure
                );
                assert_eq!(armed_row.short_response, None);
                assert_eq!(armed_row.long_response, None);
            }
            Some("qbd.solve") => {
                fired[1] += 1;
                assert!(
                    matches!(failure().kind, FailureKind::NoConvergence { .. }),
                    "{}: {:?}",
                    armed_row.id,
                    armed_row.failure
                );
                // The recovery ladder must have walked all three fit
                // orders before giving up on the injected solver failure.
                assert_eq!(armed_row.attempts, 3, "{}", armed_row.id);
                assert!(armed_row.degraded, "{}", armed_row.id);
                assert_eq!(failure().attempts, 3, "{}", armed_row.id);
            }
            Some("dist.busy.mg1") => {
                fired[2] += 1;
                assert!(
                    matches!(&failure().kind, FailureKind::NonFinite { site }
                        if site == "dist.busy.mg1"),
                    "{}: {:?}",
                    armed_row.id,
                    armed_row.failure
                );
            }
            Some(other) => panic!("plan chose an unarmed site {other}"),
        }
    }

    // Rate shape: 5% of 3,000 = 150 expected faults; each site must fire
    // often enough to actually exercise its recovery path.
    let total: u64 = fired.iter().sum();
    assert!((60..=240).contains(&total), "faulted {total} of 3000");
    for (count, site) in fired.iter().zip(SITES) {
        assert!(*count >= 10, "site {site} fired only {count} times");
    }

    // The metrics tally agrees with the oracle, kind by kind.
    assert_eq!(metrics1.failures.total(), total);
    assert_eq!(metrics1.failures.panicked, fired[0]);
    assert_eq!(metrics1.failures.no_convergence, fired[1]);
    assert_eq!(metrics1.failures.non_finite, fired[2]);
    assert_eq!(metrics1.failures.unstable, 0);
    assert_eq!(metrics1.failures.infeasible_fit, 0);
}

/// A 900-point CS-CQ fleet grid over three non-paper shapes, every point
/// inside the `(k, m)` frontier (`ρ_S ≤ 1.0 < k + m − ρ_L` and
/// `ρ_L ≤ 0.75 < m` for every shape), so a clean run evaluates every row.
fn km_grid() -> GridSpec {
    let rho_s: Vec<f64> = (0..20).map(|i| 0.05 + 0.05 * i as f64).collect();
    let rho_l: Vec<f64> = (0..15).map(|j| 0.05 + 0.05 * j as f64).collect();
    let mut spec = GridSpec::analysis("fault_injection_km", rho_s, rho_l);
    spec.policies = vec![Policy::CsCq];
    spec.hosts = vec![(2, 1), (2, 2), (4, 2)];
    spec
}

/// Faults planned at `(k, m) > (1, 1)` points go through exactly the same
/// contract as 2-host points: each injection surfaces as the right
/// [`FailureKind`] on the right fleet row (the scope is the row id, which
/// carries the `hosts=KxM` suffix), faulted points bypass the shared
/// [`SolveCache`] (non-faulted rows stay bit-identical to a clean run)
/// and the batch presolve (`skipped_faulted` counts them), and the
/// batched armed report equals the scalar armed report byte for byte.
#[test]
fn fleet_faults_are_attributed_and_bypass_cache_and_batch() {
    let spec = km_grid();
    assert_eq!(spec.len(), 900);

    let quiet_section = fault::arm(FaultPlan::new(0, 0.0, &SITES));
    let (clean, clean_metrics) = run(&spec, &SweepOptions::threads(2));
    drop(quiet_section);
    assert_eq!(clean_metrics.failures.total(), 0, "clean fleet run");
    for row in &clean.rows {
        assert!(row.id.contains("|hosts="), "{} must be a fleet row", row.id);
        assert!(row.short_response.is_some(), "{} must evaluate", row.id);
    }

    let plan = FaultPlan::new(0x0F1E_E700, 0.05, &SITES);
    let oracle: Vec<Option<String>> = clean
        .rows
        .iter()
        .map(|r| plan.site_for(&r.id).map(str::to_string))
        .collect();
    let planned = oracle.iter().flatten().count();
    assert!(planned > 0, "the plan must actually fire on fleet scopes");

    let _quiet = QuietPanics::install();
    let armed = fault::arm(plan.clone());
    let (batched, bm) = run(&spec, &SweepOptions::threads(2));
    let scalar = armed_oracle(&spec, &plan);
    drop(armed);

    assert_eq!(
        batched.to_json(),
        scalar.to_json(),
        "batched vs scalar under fleet faults"
    );
    // The presolve planner screens fleet points on the same fault oracle.
    assert_eq!(bm.batch.skipped_faulted, planned, "{:?}", bm.batch);
    assert_eq!(bm.batch.eligible, spec.len() - planned, "{:?}", bm.batch);

    let mut fired = [0u64; 3];
    for ((clean_row, armed_row), planned) in clean.rows.iter().zip(&batched.rows).zip(&oracle) {
        assert_eq!(clean_row.id, armed_row.id);
        match planned.as_deref() {
            None => assert_eq!(armed_row, clean_row, "{}", clean_row.id),
            Some(site) => {
                let failure = armed_row
                    .failure
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} must carry a failure record", armed_row.id));
                match site {
                    "sweep.point" => {
                        fired[0] += 1;
                        assert!(
                            matches!(&failure.kind, FailureKind::Panicked { message }
                                if message.contains("injected")),
                            "{}: {:?}",
                            armed_row.id,
                            armed_row.failure
                        );
                    }
                    "qbd.solve" => {
                        fired[1] += 1;
                        assert!(
                            matches!(failure.kind, FailureKind::NoConvergence { .. }),
                            "{}: {:?}",
                            armed_row.id,
                            armed_row.failure
                        );
                        // The fleet path runs the same three-rung recovery
                        // ladder as the 2-host path.
                        assert_eq!(armed_row.attempts, 3, "{}", armed_row.id);
                        assert!(armed_row.degraded, "{}", armed_row.id);
                    }
                    "dist.busy.mg1" => {
                        fired[2] += 1;
                        assert!(
                            matches!(&failure.kind, FailureKind::NonFinite { site }
                                if site == "dist.busy.mg1"),
                            "{}: {:?}",
                            armed_row.id,
                            armed_row.failure
                        );
                    }
                    other => panic!("plan chose an unarmed site {other}"),
                }
            }
        }
    }
    // Each layer's injection must actually be exercised on fleet chains.
    for (count, site) in fired.iter().zip(SITES) {
        assert!(
            *count >= 3,
            "site {site} fired only {count} times on fleet rows"
        );
    }
}

/// The batched presolve under faults: the planner must skip exactly the
/// planned-faulted points — their solves then run inside the per-point
/// fault scope and attribute as usual, instead of being served a clean
/// answer seeded from outside the scope — batch the rest, and change no
/// bytes: the armed batched report equals the armed scalar one.
#[test]
fn faulted_points_bypass_the_batch_without_poisoning_their_mates() {
    let spec = grid();
    let plan = FaultPlan::new(0x00C0_FFEE, 0.05, &SITES);
    // `site_for` is a pure function of (seed, scope), so the skip oracle
    // can be computed before arming.
    let planned: usize = spec
        .points()
        .iter()
        .map(|p| usize::from(plan.site_for(&SweepRow::id_of(p)).is_some()))
        .sum();
    assert!(planned > 0, "the plan must actually fire");

    let _quiet = QuietPanics::install();
    let armed = fault::arm(plan.clone());
    let (batched, bm) = run(&spec, &SweepOptions::threads(2));
    let scalar = armed_oracle(&spec, &plan);
    drop(armed);

    assert_eq!(
        batched.to_json(),
        scalar.to_json(),
        "batched vs scalar under faults"
    );
    // Every grid point is CS-CQ, analysis-evaluated, and stable, so the
    // planner screens come down to the fault check alone.
    assert_eq!(bm.batch.skipped_faulted, planned, "{:?}", bm.batch);
    assert_eq!(bm.batch.eligible, spec.len() - planned, "{:?}", bm.batch);
    assert!(
        bm.batch.batched == 0 && bm.batch.seeded > 0,
        "the non-faulted mates must still presolve: {:?}",
        bm.batch
    );
}
