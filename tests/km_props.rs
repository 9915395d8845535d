//! Property tests for the `(k, m)` fleet generalization, on the in-tree
//! `cyclesteal_xtest` shrinking layer: the `(1, 1)` reduction identity
//! against the independent 2-host reference chain over random workloads, the `m = 0` collapse to an M/M/k of the
//! shorts, and the cross-shape monotonicity invariants that make the
//! fleet model physically plausible (more stealing hosts never hurt the
//! shorts; more short load never helps them; the stability frontier
//! widens with every stealing host). One more property guards the solve
//! cache, which keys QBD solutions by the report key: workloads that
//! share a key build the same chain.

use cyclesteal::core::cache::SolveCache;
use cyclesteal::core::cs_cq::BusyPeriodFit;
use cyclesteal::core::cs_cq_km::{self, Hosts};
use cyclesteal::core::stability::{self, Policy};
use cyclesteal::core::SystemParams;
use cyclesteal::dist::{Map, Moments3};
use cyclesteal::mg1::mmc;
use cyclesteal_xtest::{props, xassume};

mod support;
use support::two_host as oracle;

fn workload(rho_s: f64, rho_l: f64, scv: f64) -> SystemParams {
    let long = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
    SystemParams::from_loads(rho_s, 1.0, rho_l, long).unwrap()
}

/// `x` moved by `ulps` units in the last place (up for positive `ulps`).
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

props! {
    cases = 32;

    /// The reduction identity, randomized: at `(1, 1)` the fleet chain
    /// returns the 2-host reference chain's report *bit for bit* for any
    /// workload and any busy-period fit order.
    fn the_1x1_fleet_reduction_is_exact(
        rho_s in 0.05f64..1.4,
        rho_l in 0.05f64..0.9,
        scv in 1.0f64..16.0,
        fit_pick in 0u32..3,
    ) {
        xassume!(rho_s < 2.0 - rho_l - 0.05);
        let fit = [
            BusyPeriodFit::MeanOnly,
            BusyPeriodFit::TwoMoment,
            BusyPeriodFit::ThreeMoment,
        ][fit_pick as usize];
        let p = workload(rho_s, rho_l, scv);
        let poisson = Map::poisson(p.lambda_s()).unwrap();
        let a = oracle::analyze(&p, fit, &poisson).unwrap();
        let b = cs_cq_km::analyze_with(Hosts::paper(), &p, fit).unwrap();
        assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
        assert_eq!(a.long_response.to_bits(), b.long_response.to_bits());
        assert_eq!(
            a.mean_shorts_in_system.to_bits(),
            b.mean_shorts_in_system.to_bits()
        );
        assert_eq!(a.p_region5.to_bits(), b.p_region5.to_bits());
        assert_eq!(a.setup_probability.to_bits(), b.setup_probability.to_bits());
        assert_eq!(a.total_mass.to_bits(), b.total_mass.to_bits());
    }

    /// With no stealing hosts the long class vanishes and the fleet is a
    /// plain M/M/k of the shorts — the analysis must agree with the exact
    /// Erlang-C formula to near machine precision.
    fn a_fleet_with_no_stealing_hosts_is_an_mmk_of_the_shorts(
        k in 1usize..6,
        util in 0.1f64..0.95,
    ) {
        let p = workload(util * k as f64, 0.5, 1.0);
        let r = cs_cq_km::analyze(Hosts::new(k, 0).unwrap(), &p).unwrap();
        let want = mmc::mean_response(k as u32, p.lambda_s(), p.mu_s()).unwrap();
        assert!(
            (r.short_response - want).abs() / want < 1e-9,
            "k = {k}, util = {util}: {} vs M/M/{k} {want}",
            r.short_response
        );
        assert_eq!(r.long_response, 0.0);
        assert_eq!(r.setup_probability, 0.0);
    }

    /// Adding a stealing host never hurts the shorts: at fixed `(k, ρ_S,
    /// ρ_L)` the mean short response is non-increasing in `m`.
    fn short_response_is_non_increasing_in_stealing_hosts(
        k in 1usize..4,
        m in 1usize..3,
        frac in 0.1f64..0.9,
        rho_l in 0.05f64..0.9,
        scv in 1.0f64..8.0,
    ) {
        let rho_s = frac * ((k + m) as f64 - rho_l);
        let p = workload(rho_s, rho_l, scv);
        let fewer = cs_cq_km::analyze(Hosts::new(k, m).unwrap(), &p).unwrap();
        let more = cs_cq_km::analyze(Hosts::new(k, m + 1).unwrap(), &p).unwrap();
        assert!(
            more.short_response <= fewer.short_response * (1.0 + 1e-6),
            "(k={k}) m={m}: {} vs m={}: {}",
            fewer.short_response,
            m + 1,
            more.short_response
        );
    }

    /// More short load never helps the shorts: at a fixed fleet shape the
    /// mean short response is non-decreasing in `ρ_S`.
    fn short_response_is_non_decreasing_in_short_load(
        k in 1usize..4,
        m in 1usize..3,
        f1 in 0.05f64..0.9,
        f2 in 0.05f64..0.9,
        rho_l in 0.05f64..0.9,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        xassume!(hi - lo > 1e-3);
        let headroom = (k + m) as f64 - rho_l;
        let hosts = Hosts::new(k, m).unwrap();
        let light = cs_cq_km::analyze(hosts, &workload(lo * headroom, rho_l, 1.0)).unwrap();
        let heavy = cs_cq_km::analyze(hosts, &workload(hi * headroom, rho_l, 1.0)).unwrap();
        assert!(
            heavy.short_response >= light.short_response * (1.0 - 1e-6),
            "(k={k}, m={m}) rho_s {} -> {}: response {} -> {}",
            lo * headroom,
            hi * headroom,
            light.short_response,
            heavy.short_response
        );
    }

    /// The Theorem-1 frontier generalizes to `ρ_S < k + m − ρ_L` and
    /// widens with every stealing host; at `(1, 1)` the fleet stability
    /// decision is *exactly* the paper's 2-host decision.
    fn the_stability_frontier_widens_with_stealing_hosts(
        k in 1usize..5,
        m in 1usize..4,
        rho_l in 0.05f64..0.9,
        rho_s in 0.05f64..3.0,
    ) {
        let narrow = stability::max_rho_s_km(k, m, rho_l);
        let wide = stability::max_rho_s_km(k, m + 1, rho_l);
        assert!(wide > narrow, "k={k}, m={m}: {narrow} vs {wide}");
        assert!((wide - narrow - 1.0).abs() < 1e-12, "one host adds one unit of capacity");

        assert_eq!(
            stability::is_stable_km(1, 1, rho_s, rho_l),
            stability::is_stable(Policy::CsCq, rho_s, rho_l),
            "rho_s={rho_s}, rho_l={rho_l}"
        );
        // Just inside the (k, m) frontier is stable, just outside is not.
        assert!(stability::is_stable_km(k, m, narrow - 0.01, rho_l));
        assert!(!stability::is_stable_km(k, m, narrow + 0.01, rho_l));
    }

    /// One key, one chain: twin workloads a few ulps apart, below the
    /// cache's quantization grid, share a report key, and then the planner
    /// hook builds them the same chain (equal [`Qbd::signature`]) on fresh
    /// caches. This is what makes keying solutions by the question sound.
    ///
    /// [`Qbd::signature`]: cyclesteal::markov::Qbd::signature
    fn workloads_sharing_a_report_key_build_one_chain(
        shape in 0usize..4,
        util in 0.05f64..0.95,
        long_util in 0.05f64..0.9,
        scv in 1.0f64..16.0,
        ulps in 1i64..8,
        fit_pick in 0u32..3,
    ) {
        let (k, m) = [(1, 1), (1, 2), (2, 1), (2, 2)][shape];
        let hosts = Hosts::new(k, m).unwrap();
        let fit = [
            BusyPeriodFit::MeanOnly,
            BusyPeriodFit::TwoMoment,
            BusyPeriodFit::ThreeMoment,
        ][fit_pick as usize];
        let rho_l = long_util * m as f64;
        let rho_s = util * stability::max_rho_s_km(k, m, rho_l);
        let a = workload(rho_s, rho_l, scv);
        let b = workload(nudge(rho_s, ulps), nudge(rho_l, -ulps), nudge(scv, ulps));
        assert_ne!(a.lambda_s().to_bits(), b.lambda_s().to_bits(), "twins differ");
        let key = cs_cq_km::report_key(hosts, &a, fit);
        // A twin whose nudge crossed a grid line has a key of its own.
        xassume!(cs_cq_km::report_key(hosts, &b, fit) == key);
        let plan_a = cs_cq_km::plan_qbd_cached(hosts, &a, fit, &SolveCache::new()).unwrap();
        let plan_b = cs_cq_km::plan_qbd_cached(hosts, &b, fit, &SolveCache::new()).unwrap();
        assert_eq!((plan_a.key(), plan_b.key()), (key, key));
        assert_eq!(
            plan_a.build().unwrap().signature(),
            plan_b.build().unwrap().signature(),
            "({k}, {m}) rho_s={rho_s} rho_l={rho_l} scv={scv} {fit:?}: one key, two chains"
        );
    }
}
