//! Golden regression for the presolved sweep path: the presolve must be
//! a pure performance transform of the evaluation. The Figure-4 grid
//! (exponential longs, `ρ_L = 0.5`) and a `C² = 8` grid run through
//! `run_points` at 1/2/8 worker threads and under input shuffling, and
//! through `run_queries`, each point answered on its own — every report
//! must be **byte-identical** JSON, the presolved run must demonstrably
//! seed reports (a non-vacuous `SweepMetrics::batch`), and the presolved
//! Figure-4 numbers must still sit on the golden curve.

use cyclesteal::core::stability::Policy;
use cyclesteal_sweep::{run_points, run_queries, Evaluator, LongLaw, Point, SweepOptions};

/// `(ρ_S, E[T_short])` under CS-CQ for the Figure 4 workload — the same
/// golden values `tests/golden_fig4.rs` freezes for the direct API.
const GOLDEN_FIG4_SHORT: [(f64, f64); 5] = [
    (0.10, 1.039622710593),
    (0.50, 1.325819327128),
    (1.00, 2.538424876478),
    (1.20, 4.253493239062),
    (1.40, 12.952169455238),
];

fn point(rho_s: f64, rho_l: f64, long: LongLaw) -> Point {
    Point {
        rho_s,
        rho_l,
        mean_s: 1.0,
        long,
        policy: Policy::CsCq,
        evaluator: Evaluator::Analysis,
        extend_longs: false,
        hosts: (1, 1),
    }
}

/// Figure-4 grid plus a `C² = 8` grid. (One chain shape: the
/// three-moment busy-period fit always produces two-phase PHs, so every
/// 2-host CS-CQ chain shares one shape regardless of workload — mixed
/// shapes are covered by `tests/batch_vs_scalar_props.rs` and
/// `tests/serving_counts.rs` instead.)
fn grids() -> Vec<Point> {
    let exp = LongLaw::exponential(1.0).unwrap();
    let scv8 = LongLaw::balanced(1.0, 8.0).unwrap();
    let mut points: Vec<Point> = GOLDEN_FIG4_SHORT
        .iter()
        .map(|&(rho_s, _)| point(rho_s, 0.5, exp))
        .collect();
    for rho_s in [0.3, 0.7, 1.1] {
        for rho_l in [0.3, 0.5] {
            points.push(point(rho_s, rho_l, scv8));
        }
    }
    points
}

#[test]
fn batched_sweep_is_byte_identical_to_scalar_across_threads_and_order() {
    let points = grids();
    let scalar_json = run_queries("golden_batched", &points).to_json();

    for threads in [1, 2, 8] {
        let (batched, bm) = run_points("golden_batched", &points, &SweepOptions::threads(threads));
        assert_eq!(
            batched.to_json(),
            scalar_json,
            "batched report diverged at {threads} threads"
        );
        assert!(
            bm.batch.seeded > 0 && bm.batch.batched == 0,
            "the presolve must seed, one chain at a time: {:?}",
            bm.batch
        );
        assert_eq!(
            bm.batch.seeded, bm.batch.unique,
            "every golden question is filed: {:?}",
            bm.batch
        );
    }

    // Input order must not leak into the report or the planner stats: a
    // deterministic shuffle (reverse + odd/even interleave) of the same
    // points produces the same bytes and the same batching decisions.
    let mut shuffled: Vec<Point> = points.iter().rev().copied().collect();
    let odds: Vec<Point> = shuffled.iter().skip(1).step_by(2).copied().collect();
    shuffled = shuffled
        .iter()
        .step_by(2)
        .chain(odds.iter())
        .copied()
        .collect();
    assert_ne!(
        shuffled.iter().map(|p| p.rho_s).collect::<Vec<_>>(),
        points.iter().map(|p| p.rho_s).collect::<Vec<_>>(),
        "shuffle must actually permute"
    );
    let (reordered, rm) = run_points("golden_batched", &shuffled, &SweepOptions::threads(2));
    assert_eq!(reordered.to_json(), scalar_json, "input order leaked");
    let (baseline, bm) = run_points("golden_batched", &points, &SweepOptions::threads(2));
    assert_eq!(baseline.to_json(), scalar_json);
    assert_eq!(rm.batch, bm.batch, "planner stats depend on input order");
}

#[test]
fn batched_sweep_stays_on_the_golden_figure4_curve() {
    let points = grids();
    let (report, _) = run_points("golden_batched", &points, &SweepOptions::threads(2));
    let exp = LongLaw::exponential(1.0).unwrap();
    for (rho_s, want_short) in GOLDEN_FIG4_SHORT {
        let row = report
            .get_point(&point(rho_s, 0.5, exp))
            .expect("figure-4 row");
        let got = row.short_response.expect("stable point");
        let rel = (got - want_short).abs() / want_short;
        assert!(
            rel < 0.01,
            "rho_s = {rho_s}: batched short response {got} vs golden {want_short} \
             (rel err {rel:.2e})"
        );
    }
}
