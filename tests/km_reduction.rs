//! The `(k, m)` fleet chain of `cs_cq_km` is the only CS-CQ builder, so
//! it is gated by **reduction to the paper's system**: at `(1, 1)` it must
//! reproduce the paper's 2-host chain *bit for bit* — the same QBD (same
//! signature), the same solution (same `π₀`, boundary vector, and `R`
//! matrix bits), the same report (every field), the same short-count
//! distribution, and therefore the same golden Figure-4 curve — for
//! Poisson and MAP short arrivals alike. The 2-host side is the
//! independent reference builder in `tests/support`, not the `cs_cq`
//! facade (which *is* the fleet chain at `(1, 1)`). On top of the
//! reduction, a `(k, m) ∈ {1, 2, 4}²` grid cross-validates the fleet
//! analysis against the fleet discrete-event simulator end-to-end through
//! the sweep engine, with zero failure rows and 5% agreement on the short
//! class at every shape.

use std::sync::Arc;

use cyclesteal::core::cache::SolveCache;
use cyclesteal::core::cs_cq::{self, BusyPeriodFit, CsCqReport};
use cyclesteal::core::cs_cq_km::{self, Hosts};
use cyclesteal::core::stability::Policy;
use cyclesteal::core::SystemParams;
use cyclesteal::dist::{Map, Moments3};
use cyclesteal::markov::Qbd;
use cyclesteal_sweep::{run_points, Evaluator, LongLaw, Point, SweepOptions};

mod support;
use support::two_host as oracle;

/// Workloads spanning the Figure-4 axis plus a high-variability law:
/// `(ρ_S, ρ_L, C²_L)` with unit mean sizes.
const WORKLOADS: [(f64, f64, f64); 5] = [
    (0.5, 0.5, 1.0),
    (0.9, 0.25, 1.0),
    (1.2, 0.5, 1.0),
    (1.45, 0.5, 1.0),
    (0.9, 0.9, 8.0),
];

fn params(rho_s: f64, rho_l: f64, scv: f64) -> SystemParams {
    let long = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
    SystemParams::from_loads(rho_s, 1.0, rho_l, long).unwrap()
}

fn poisson(p: &SystemParams) -> Map {
    Map::poisson(p.lambda_s()).unwrap()
}

fn assert_reports_bit_identical(a: &CsCqReport, b: &CsCqReport, what: &str) {
    for (field, x, y) in [
        ("short_response", a.short_response, b.short_response),
        ("long_response", a.long_response, b.long_response),
        (
            "mean_shorts",
            a.mean_shorts_in_system,
            b.mean_shorts_in_system,
        ),
        ("p_region1", a.p_region1, b.p_region1),
        ("p_region2", a.p_region2, b.p_region2),
        ("p_region5", a.p_region5, b.p_region5),
        (
            "setup_probability",
            a.setup_probability,
            b.setup_probability,
        ),
        ("total_mass", a.total_mass, b.total_mass),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field} {x} vs {y}");
    }
    assert_eq!(a.bl_match, b.bl_match, "{what}");
    assert_eq!(a.bn_match, b.bn_match, "{what}");
}

/// Same signature and dimensions, and a bit-identical solution.
fn assert_chains_bit_identical(reference: &Qbd, fleet: &Qbd, what: &str) {
    assert_eq!(reference.signature(), fleet.signature(), "{what}");
    assert_eq!(reference.boundary_dim(), fleet.boundary_dim(), "{what}");
    assert_eq!(reference.phase_dim(), fleet.phase_dim(), "{what}");

    let a = reference.solve().unwrap();
    let b = fleet.solve().unwrap();
    assert_eq!(a.pi0().len(), b.pi0().len(), "{what}");
    for (x, y) in a.pi0().iter().zip(b.pi0()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: pi0");
    }
    assert_eq!(a.boundary().len(), b.boundary().len(), "{what}");
    for (x, y) in a.boundary().iter().zip(b.boundary()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: boundary");
    }
    for (x, y) in a.r().as_slice().iter().zip(b.r().as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: R");
    }
}

/// The headline reduction: at every workload and every busy-period fit,
/// the `(1, 1)` fleet chain *is* the paper's chain — same QBD signature
/// and dimensions, bit-identical solution, bit-identical report, through
/// both the fleet API and the `cs_cq` facade.
#[test]
fn the_1x1_fleet_chain_is_the_paper_chain_bit_for_bit() {
    let paper = Hosts::paper();
    assert_eq!((paper.k(), paper.m()), (1, 1));
    for (rho_s, rho_l, scv) in WORKLOADS {
        let p = params(rho_s, rho_l, scv);
        for fit in [
            BusyPeriodFit::MeanOnly,
            BusyPeriodFit::TwoMoment,
            BusyPeriodFit::ThreeMoment,
        ] {
            let what = format!("(ρs={rho_s}, ρl={rho_l}, C²={scv}, {fit:?})");

            let reference = oracle::build_qbd_model(&p, fit, &poisson(&p)).unwrap();
            let fleet = cs_cq_km::build_qbd_model(paper, &p, fit).unwrap();
            assert_chains_bit_identical(&reference, &fleet, &what);

            let ra = oracle::analyze(&p, fit, &poisson(&p)).unwrap();
            let fleet_report = cs_cq_km::analyze_with(paper, &p, fit).unwrap();
            assert_reports_bit_identical(&ra, &fleet_report, &what);
            assert_reports_bit_identical(&ra, &cs_cq::analyze_with(&p, fit).unwrap(), &what);
        }
    }
}

/// The reduction with **MAP short arrivals**: the MAP phase is the
/// innermost factor of the fleet phase, exactly as the paper's product
/// chain interleaves it, so chain, solution and report stay bit-identical
/// for Poisson, a strongly bursty MMPP, and an asymmetric MMPP.
#[test]
fn the_1x1_map_chain_is_the_paper_map_chain_bit_for_bit() {
    let maps = [
        ("poisson", Map::poisson(0.9).unwrap()),
        ("bursty", Map::bursty(0.9, 9.0, 10.0).unwrap()),
        ("asymmetric", Map::mmpp2(0.05, 0.2, 0.4, 2.0).unwrap()),
    ];
    for (name, map) in &maps {
        for (rho_l, scv) in [(0.5, 1.0), (0.25, 1.0), (0.9, 8.0)] {
            let long = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
            let p = SystemParams::new(map.rate(), 1.0, rho_l, long).unwrap();
            let what = format!("({name}, ρl={rho_l}, C²={scv})");

            let reference = oracle::build_qbd_model(&p, BusyPeriodFit::ThreeMoment, map).unwrap();
            let fleet = cs_cq::build_qbd_model_map(&p, map).unwrap();
            assert_chains_bit_identical(&reference, &fleet, &what);

            let ra = oracle::analyze(&p, BusyPeriodFit::ThreeMoment, map).unwrap();
            assert_reports_bit_identical(&ra, &cs_cq::analyze_map(&p, map).unwrap(), &what);
        }
    }
}

/// The short-count distribution is read off the same boundary levels and
/// repeating masses as the paper's chain, bit for bit — at a comfortable
/// workload and near the stability frontier, where the tail is long.
#[test]
fn the_1x1_shorts_distribution_is_the_paper_distribution_bit_for_bit() {
    for (rho_s, n_max) in [(0.9, 200), (1.45, 2000)] {
        let p = params(rho_s, 0.5, 1.0);
        let reference = oracle::shorts_distribution(&p, n_max).unwrap();
        let fleet = cs_cq::shorts_distribution(&p, n_max).unwrap();
        assert_eq!(reference.len(), fleet.len(), "ρs={rho_s}");
        for (n, (x, y)) in reference.iter().zip(&fleet).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "ρs={rho_s}: P(N_S = {n})");
        }
    }
}

/// The golden Figure-4 curve survives the generalization verbatim: at
/// every tabulated `ρ_S` the fleet analysis at `(1, 1)` equals the
/// paper's chain bit for bit, and the anchor values stay within the 1%
/// golden band of `tests/golden_fig4.rs`.
#[test]
fn the_1x1_fleet_curve_is_the_golden_figure_4_curve() {
    // `(ρ_S, golden E[T_short])` anchors from the golden table.
    let anchors = [(1.0, 2.538424876478), (1.3, 6.421594906550)];
    for rho_s in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4] {
        let p = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
        let two_host = oracle::analyze(&p, BusyPeriodFit::ThreeMoment, &poisson(&p)).unwrap();
        let fleet = cs_cq_km::analyze(Hosts::paper(), &p).unwrap();
        assert_reports_bit_identical(&two_host, &fleet, &format!("fig4 ρs={rho_s}"));
        for (anchor, golden) in anchors {
            if rho_s == anchor {
                let rel = (fleet.short_response - golden).abs() / golden;
                assert!(
                    rel < 0.01,
                    "fig4 ρs={rho_s}: fleet short response {} vs golden {golden}",
                    fleet.short_response
                );
            }
        }
    }
}

/// The shared-cache protocol under the new dimension: a `(1, 1)` fleet
/// analysis is served entirely from entries a prior 2-host analysis
/// populated (the reduction makes key sharing sound), while shapes that
/// differ only in `(k, m)` never collide — same workload, different
/// hosts, zero hits.
#[test]
fn cache_keys_are_shared_at_1x1_and_disjoint_across_shapes() {
    let p = params(0.9, 0.5, 1.0);

    let shared = SolveCache::new();
    cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &shared).unwrap();
    let after_two_host = shared.stats();
    cs_cq_km::analyze_cached(Hosts::paper(), &p, BusyPeriodFit::ThreeMoment, &shared).unwrap();
    let after_fleet = shared.stats();
    assert_eq!(
        after_fleet.misses, after_two_host.misses,
        "the (1, 1) fleet analysis must add no cache entries"
    );
    assert!(after_fleet.hits > after_two_host.hits);

    let disjoint = SolveCache::new();
    let a = Hosts::new(1, 2).unwrap();
    let b = Hosts::new(2, 1).unwrap();
    cs_cq_km::analyze_cached(a, &p, BusyPeriodFit::ThreeMoment, &disjoint).unwrap();
    let after_a = disjoint.stats();
    cs_cq_km::analyze_cached(b, &p, BusyPeriodFit::ThreeMoment, &disjoint).unwrap();
    let after_b = disjoint.stats();
    assert_eq!(
        after_b.hits, after_a.hits,
        "(2, 1) must not be served from (1, 2) entries for the same workload"
    );
    assert!(after_b.misses > after_a.misses);
}

/// One grid point per fleet shape, loads scaled to the shape so every
/// point sits comfortably inside the `(k, m)` stability frontier
/// (`ρ_L < m`, `ρ_S < k + m − ρ_L`).
fn fleet_grid(evaluator: Evaluator) -> Vec<Point> {
    let mut points = Vec::new();
    for k in [1usize, 2, 4] {
        for m in [1usize, 2, 4] {
            points.push(Point {
                rho_s: 0.5 * (k + m) as f64,
                rho_l: 0.4 * m as f64,
                mean_s: 1.0,
                long: LongLaw::exponential(1.0).unwrap(),
                policy: Policy::CsCq,
                evaluator,
                extend_longs: false,
                hosts: (k, m),
            });
        }
    }
    points
}

/// The `{1, 2, 4}²` validation grid: every shape evaluated twice through
/// the sweep engine — fleet matrix-analytic analysis vs. the fleet
/// discrete-event simulator — with zero failure rows and ≤ 5% relative
/// disagreement on both classes at every shape.
#[test]
fn fleet_analysis_tracks_fleet_simulation_within_5_percent() {
    let analysis = fleet_grid(Evaluator::Analysis);
    let simulation = fleet_grid(Evaluator::Simulation {
        total_jobs: 400_000,
        reps: 2,
        base_seed: 0xF1EE7,
    });
    let mut points = analysis.clone();
    points.extend(simulation.iter().copied());

    let cache = Arc::new(SolveCache::new());
    let opts = SweepOptions::threads(4).with_cache(cache);
    let (report, metrics) = run_points("km_validation", &points, &opts);
    assert_eq!(
        metrics.failures.total(),
        0,
        "the fleet grid must have zero failure rows: {:?}",
        metrics.failures
    );

    for (ana_pt, sim_pt) in analysis.iter().zip(simulation.iter()) {
        let ana = report.get_point(ana_pt).expect("analysis row");
        let sim = report.get_point(sim_pt).expect("simulation row");
        for (class, a, s) in [
            ("short", ana.short_response, sim.short_response),
            ("long", ana.long_response, sim.long_response),
        ] {
            let (a, s) = (
                a.expect("stable fleet point"),
                s.expect("stable fleet point"),
            );
            let rel = (a - s).abs() / s;
            assert!(
                rel < 0.05,
                "(k, m) = {:?} {class}: analysis {a:.4} vs sim {s:.4} ({:.1}% apart)",
                ana_pt.hosts,
                100.0 * rel
            );
        }
    }
}
