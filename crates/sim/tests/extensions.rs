//! Validation of the simulator's extensions beyond the paper's base model:
//! MAP arrivals (the paper's stated generalization) and heterogeneous host
//! speeds (the paper's "may be extended to hosts of different speeds").

use cyclesteal_dist::{DistError, Exp, Map};
use cyclesteal_mg1::mm1;
use cyclesteal_sim::{simulate, Arrivals, PolicyKind, SimConfig, SimParams};

fn cfg(seed: u64, jobs: u64) -> SimConfig {
    SimConfig {
        seed,
        total_jobs: jobs,
        ..SimConfig::default()
    }
}

#[test]
fn map_poisson_equals_plain_poisson_statistically() {
    let d = Exp::with_mean(1.0).unwrap();
    let pmap = Map::poisson(0.7).unwrap();
    let as_map =
        SimParams::with_arrivals(Arrivals::Map(&pmap), Arrivals::Poisson(0.4), &d, &d).unwrap();
    let plain = SimParams::new(0.7, 0.4, &d, &d).unwrap();

    let r_map = simulate(PolicyKind::CsCq, &as_map, &cfg(1, 400_000));
    let r_plain = simulate(PolicyKind::CsCq, &plain, &cfg(2, 400_000));
    assert!(
        (r_map.short.mean - r_plain.short.mean).abs() / r_plain.short.mean < 0.03,
        "{} vs {}",
        r_map.short.mean,
        r_plain.short.mean
    );
}

#[test]
fn bursty_arrivals_increase_delay_at_equal_rate() {
    let d = Exp::with_mean(1.0).unwrap();
    let bursty = Map::bursty(0.8, 9.0, 10.0).unwrap();
    assert!((bursty.rate() - 0.8).abs() < 1e-12);
    let p_bursty =
        SimParams::with_arrivals(Arrivals::Map(&bursty), Arrivals::Poisson(0.4), &d, &d).unwrap();
    let p_poisson = SimParams::new(0.8, 0.4, &d, &d).unwrap();

    let r_b = simulate(PolicyKind::CsCq, &p_bursty, &cfg(3, 400_000));
    let r_p = simulate(PolicyKind::CsCq, &p_poisson, &cfg(4, 400_000));
    assert!(
        r_b.short.mean > 1.3 * r_p.short.mean,
        "bursty {} vs poisson {}",
        r_b.short.mean,
        r_p.short.mean
    );
}

#[test]
fn heterogeneous_speeds_match_mm1_closed_form() {
    // Dedicated with host 0 twice as fast: shorts see M/M/1 with service
    // rate 2.
    let d = Exp::with_mean(1.0).unwrap();
    let params = SimParams::new(0.9, 0.4, &d, &d)
        .unwrap()
        .with_speeds([2.0, 1.0])
        .unwrap();
    let r = simulate(PolicyKind::Dedicated, &params, &cfg(5, 400_000));
    let want_s = mm1::mean_response(0.9, 2.0).unwrap();
    let want_l = mm1::mean_response(0.4, 1.0).unwrap();
    assert!(
        (r.short.mean - want_s).abs() / want_s < 0.03,
        "{} vs {want_s}",
        r.short.mean
    );
    assert!((r.long.mean - want_l).abs() / want_l < 0.03);
}

#[test]
fn fast_donor_host_helps_stolen_shorts() {
    // CS-ID where the long host is 4x faster: stolen shorts finish quickly,
    // so short response improves over the homogeneous system at the same
    // *offered* loads.
    let d = Exp::with_mean(1.0).unwrap();
    let base = SimParams::new(0.8, 0.2, &d, &d).unwrap();
    let fast_donor = base.with_speeds([1.0, 4.0]).unwrap();
    let r_base = simulate(PolicyKind::CsId, &base, &cfg(6, 400_000));
    let r_fast = simulate(PolicyKind::CsId, &fast_donor, &cfg(7, 400_000));
    assert!(
        r_fast.short.mean < r_base.short.mean,
        "fast {} vs base {}",
        r_fast.short.mean,
        r_base.short.mean
    );
    assert!(r_fast.long.mean < r_base.long.mean);
}

#[test]
fn speed_validation() {
    let d = Exp::with_mean(1.0).unwrap();
    let p = SimParams::new(0.5, 0.5, &d, &d).unwrap();
    assert!(p.with_speeds([0.0, 1.0]).is_err());
    assert!(p.with_speeds([1.0, f64::NAN]).is_err());
}

#[test]
fn fleets_beyond_two_servers_reject_host_speeds() {
    let d = Exp::with_mean(1.0).unwrap();
    let unit = SimParams::new(0.5, 0.5, &d, &d).unwrap();
    let fast = unit.with_speeds([2.0, 1.0]).unwrap();
    // Two speeds name every server of the (1, 1) fleet, and unit speeds
    // suit any fleet.
    assert!(PolicyKind::cs_cq_fleet(1, 1, &fast).is_ok());
    assert!(PolicyKind::cs_cq_fleet(2, 2, &unit).is_ok());
    let explicit_unit = unit.with_speeds([1.0, 1.0]).unwrap();
    assert!(PolicyKind::cs_cq_fleet(4, 4, &explicit_unit).is_ok());
    for (k, m) in [(2, 1), (1, 2), (2, 2)] {
        let err = PolicyKind::cs_cq_fleet(k, m, &fast).unwrap_err();
        assert!(
            matches!(err, DistError::Inconsistent { .. }),
            "({k}, {m}): {err}"
        );
    }
    // simulate() refuses such a fleet instead of silently running it at
    // unit speed beyond host 1.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simulate(PolicyKind::CsCqFleet { k: 2, m: 2 }, &fast, &cfg(9, 1_000))
    }));
    assert!(run.is_err());
}

#[test]
fn map_arrivals_are_deterministic_per_seed() {
    let d = Exp::with_mean(1.0).unwrap();
    let m = Map::bursty(0.6, 4.0, 3.0).unwrap();
    let p = SimParams::with_arrivals(Arrivals::Map(&m), Arrivals::Poisson(0.3), &d, &d).unwrap();
    let a = simulate(PolicyKind::CsId, &p, &cfg(8, 100_000));
    let b = simulate(PolicyKind::CsId, &p, &cfg(8, 100_000));
    assert_eq!(a.short.mean, b.short.mean);
    assert_eq!(a.long.mean, b.long.mean);
}
