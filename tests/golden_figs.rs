//! Golden-value regression tests for the paper's Figures 2, 3, 5, and 6,
//! extending the Figure-4 suite (`golden_fig4.rs`) to every figure of the
//! paper. The Figure 5/6 curves are evaluated **through the sweep engine**
//! (`cyclesteal-sweep`), so the parallel grid machinery and its solver
//! cache sit on the verified path, not beside it.
//!
//! The tabulated values were produced by this repository's own analyzers
//! and cross-checked against the paper's graphs (shapes, asymptotes, and
//! crossing points). Tolerance is 1% — tight enough that any change to
//! the busy-period calculus, moment matching, QBD solver, or the sweep
//! engine's evaluation path fails loudly instead of silently redrawing a
//! curve.

use cyclesteal::core::cache::SolveCache;
use cyclesteal::core::stability::{max_rho_s, Policy};
use cyclesteal::core::{cs_cq, SystemParams};
use cyclesteal_sweep::{run_points, Evaluator, LongLaw, Point, SweepOptions};

fn assert_close(got: f64, want: f64, what: &str) {
    let rel = (got - want).abs() / want.abs();
    assert!(
        rel < 0.01,
        "{what}: {got} vs golden {want} (rel err {rel:.2e})"
    );
}

fn assert_cell(got: Option<f64>, want: Option<f64>, what: &str) {
    match (got, want) {
        (Some(g), Some(w)) => assert_close(g, w, what),
        (None, None) => {}
        _ => panic!("{what}: stability mismatch, got {got:?} vs golden {want:?}"),
    }
}

// ---------------------------------------------------------------------------
// Figure 2: the chain's region structure. Golden stationary probabilities
// of regions 1, 2, 5 and the setup probability at two reference points of
// the Figure-4 workload (exponential longs, rho_l = 0.5, means 1/1).
// ---------------------------------------------------------------------------

/// `(ρ_S, P(region 1), P(region 2), P(region 5), P(setup))`.
const GOLDEN_FIG2_REGIONS: [(f64, f64, f64, f64, f64); 2] = [
    (
        0.9,
        0.300545723192,
        0.159563421446,
        0.039890855362,
        0.346794718831,
    ),
    (
        1.2,
        0.164446942139,
        0.268442446289,
        0.067110611572,
        0.620117871828,
    ),
];

#[test]
fn fig2_region_probabilities_match_golden() {
    let cache = SolveCache::new();
    for (rho_s, p1, p2, p5, setup) in GOLDEN_FIG2_REGIONS {
        let params = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
        let r = cs_cq::analyze_cached(&params, Default::default(), &cache).unwrap();
        assert_close(r.p_region1, p1, &format!("fig2 p_region1 at {rho_s}"));
        assert_close(r.p_region2, p2, &format!("fig2 p_region2 at {rho_s}"));
        assert_close(r.p_region5, p5, &format!("fig2 p_region5 at {rho_s}"));
        assert_close(
            r.setup_probability,
            setup,
            &format!("fig2 setup at {rho_s}"),
        );
    }
    // More load in the system shifts mass from region 1 (idle-ish) toward
    // regions 2/5 and raises the setup probability — the figure's story.
    assert!(GOLDEN_FIG2_REGIONS[1].4 > GOLDEN_FIG2_REGIONS[0].4);
}

// ---------------------------------------------------------------------------
// Figure 3: the stability frontier rho_s_max(rho_l) for all three
// policies (Theorem 1). Closed-form, so the goldens are tight.
// ---------------------------------------------------------------------------

/// `(ρ_L, Dedicated, CS-ID, CS-CQ)`.
const GOLDEN_FIG3_FRONTIER: [(f64, f64, f64, f64); 5] = [
    (0.00, 1.0, 1.618033988750, 2.00),
    (0.25, 1.0, 1.443000468165, 1.75),
    (0.50, 1.0, 1.280776406404, 1.50),
    (0.75, 1.0, 1.132782218537, 1.25),
    (1.00, 1.0, 1.000000000000, 1.00),
];

#[test]
fn fig3_stability_frontier_matches_golden() {
    for (rho_l, ded, id, cq) in GOLDEN_FIG3_FRONTIER {
        assert!((max_rho_s(Policy::Dedicated, rho_l) - ded).abs() < 1e-9);
        assert!((max_rho_s(Policy::CsId, rho_l) - id).abs() < 1e-9);
        assert!((max_rho_s(Policy::CsCq, rho_l) - cq).abs() < 1e-9);
        // Theorem 1's ordering: Dedicated <= CS-ID <= CS-CQ everywhere.
        assert!(ded <= id + 1e-12 && id <= cq + 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: response-time curves for variable long jobs (C² = 8),
// evaluated through the sweep engine.
// ---------------------------------------------------------------------------

fn fig56_point(rho_s: f64, rho_l: f64, policy: Policy, extend_longs: bool) -> Point {
    Point {
        rho_s,
        rho_l,
        mean_s: 1.0,
        long: LongLaw::balanced(1.0, 8.0).unwrap(),
        policy,
        evaluator: Evaluator::Analysis,
        extend_longs,
        hosts: (1, 1),
    }
}

/// Figure 5 (C² = 8, ρ_L = 0.5): `(ρ_S, policy, short, long)`; `None`
/// marks a policy beyond its stability asymptote.
#[allow(clippy::type_complexity)]
const GOLDEN_FIG5: [(f64, Policy, Option<f64>, Option<f64>); 12] = [
    (
        0.3,
        Policy::Dedicated,
        Some(1.428571428571),
        Some(5.500000000000),
    ),
    (
        0.3,
        Policy::CsId,
        Some(1.195766123208),
        Some(5.730769230769),
    ),
    (
        0.3,
        Policy::CsCq,
        Some(1.163704708025),
        Some(5.525023666215),
    ),
    (
        0.7,
        Policy::Dedicated,
        Some(3.333333333333),
        Some(5.500000000000),
    ),
    (
        0.7,
        Policy::CsId,
        Some(1.952440017931),
        Some(5.911764705882),
    ),
    (
        0.7,
        Policy::CsCq,
        Some(1.737703032109),
        Some(5.619673631613),
    ),
    (1.0, Policy::Dedicated, None, None),
    (
        1.0,
        Policy::CsId,
        Some(4.465409936758),
        Some(6.000000000000),
    ),
    (
        1.0,
        Policy::CsCq,
        Some(3.263983934407),
        Some(5.731425587009),
    ),
    (1.3, Policy::Dedicated, None, None),
    (1.3, Policy::CsId, None, None),
    (
        1.3,
        Policy::CsCq,
        Some(10.686050836349),
        Some(5.882364882470),
    ),
];

#[test]
fn fig5_curves_match_golden_through_the_sweep_engine() {
    let points: Vec<Point> = GOLDEN_FIG5
        .iter()
        .map(|&(rho_s, policy, _, _)| fig56_point(rho_s, 0.5, policy, false))
        .collect();
    let (report, _) = run_points("golden_fig5", &points, &SweepOptions::threads(2));
    for (point, &(rho_s, policy, short, long)) in points.iter().zip(GOLDEN_FIG5.iter()) {
        let row = report.get_point(point).expect("point evaluated");
        let tag = format!("fig5 {policy:?} at rho_s = {rho_s}");
        assert_cell(row.short_response, short, &format!("{tag} (short)"));
        assert_cell(row.long_response, long, &format!("{tag} (long)"));
    }
}

/// Figure 6 shorts panel (ρ_S = 1.5, C² = 8): `(ρ_L, policy, short)`.
/// CS-ID's asymptote sits at ρ_L = 1/6 here; CS-CQ's at ρ_L = 0.5.
const GOLDEN_FIG6_SHORTS: [(f64, Policy, Option<f64>); 6] = [
    (0.10, Policy::CsId, Some(22.090547136601)),
    (0.10, Policy::CsCq, Some(3.211777753831)),
    (0.30, Policy::CsId, None),
    (0.30, Policy::CsCq, Some(8.494937316760)),
    (0.45, Policy::CsId, None),
    (0.45, Policy::CsCq, Some(44.489629657615)),
];

/// Figure 6 longs panel (extended past the short-class asymptote):
/// `(ρ_L, policy, long)`.
const GOLDEN_FIG6_LONGS: [(f64, Policy, f64); 9] = [
    (0.3, Policy::Dedicated, 2.928571428571),
    (0.3, Policy::CsId, 3.528571428571),
    (0.3, Policy::CsCq, 3.333757695023),
    (0.6, Policy::Dedicated, 7.750000000000),
    (0.6, Policy::CsId, 8.350000000000),
    (0.6, Policy::CsCq, 8.250000000000),
    (0.9, Policy::Dedicated, 41.500000000000),
    (0.9, Policy::CsId, 42.100000000000),
    (0.9, Policy::CsCq, 42.000000000000),
];

#[test]
fn fig6_curves_match_golden_through_the_sweep_engine() {
    let mut points: Vec<Point> = GOLDEN_FIG6_SHORTS
        .iter()
        .map(|&(rho_l, policy, _)| fig56_point(1.5, rho_l, policy, false))
        .collect();
    points.extend(
        GOLDEN_FIG6_LONGS
            .iter()
            .map(|&(rho_l, policy, _)| fig56_point(1.5, rho_l, policy, true)),
    );
    let (report, _) = run_points("golden_fig6", &points, &SweepOptions::threads(2));

    for &(rho_l, policy, short) in &GOLDEN_FIG6_SHORTS {
        let row = report
            .get_point(&fig56_point(1.5, rho_l, policy, false))
            .expect("point evaluated");
        let tag = format!("fig6 shorts {policy:?} at rho_l = {rho_l}");
        assert_cell(row.short_response, short, &tag);
    }
    for &(rho_l, policy, long) in &GOLDEN_FIG6_LONGS {
        let row = report
            .get_point(&fig56_point(1.5, rho_l, policy, true))
            .expect("point evaluated");
        let tag = format!("fig6 longs {policy:?} at rho_l = {rho_l}");
        assert_cell(row.long_response, Some(long), &tag);
    }
}

#[test]
fn fig6_long_curves_have_the_paper_shape() {
    // Structural reading of Figure 6's long panel: the donor's penalty
    // relative to Dedicated *shrinks* as its own load grows (a long
    // arriving to a busy long host pays no setup), and CS-CQ's penalty is
    // below CS-ID's everywhere.
    for window in GOLDEN_FIG6_LONGS.chunks(3) {
        let (ded, id, cq) = (window[0].2, window[1].2, window[2].2);
        assert!(ded < cq && cq < id, "{window:?}");
    }
    let penalty = |i: usize| GOLDEN_FIG6_LONGS[i + 2].2 / GOLDEN_FIG6_LONGS[i].2 - 1.0;
    assert!(penalty(0) > penalty(3) && penalty(3) > penalty(6));
}
