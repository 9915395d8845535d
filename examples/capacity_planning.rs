//! Capacity planning with Theorem 1: how much short-job traffic can a
//! two-host system absorb before the short class destabilizes, and what does
//! the response time look like as the system approaches that frontier?
//!
//! The frontier-approach scan runs through the `cyclesteal-sweep` engine:
//! one grid over `ρ_S` per policy, sharded across the worker pool, with
//! the `B_L`/`B_{N+1}` busy-period fits memoized once for the whole scan
//! (they depend only on the long-class parameters).
//!
//! Run with: `cargo run --release --example capacity_planning`

use std::sync::Arc;

use cyclesteal::core::cache::SolveCache;
use cyclesteal::core::stability::{max_rho_s, Policy};
use cyclesteal_sweep::{run, GridSpec, SweepOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Stability frontier rho_s(rho_l) — the paper's Figure 3:\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "rho_l", "Dedicated", "CS-ID", "CS-CQ"
    );
    for i in 0..=10 {
        let rho_l = i as f64 / 10.0;
        println!(
            "{:>6.1} {:>12.4} {:>12.4} {:>12.4}",
            rho_l,
            max_rho_s(Policy::Dedicated, rho_l),
            max_rho_s(Policy::CsId, rho_l),
            max_rho_s(Policy::CsCq, rho_l)
        );
    }

    // How close to the frontier can we operate at a response-time SLO?
    // Sweep a fine rho_s grid up to each policy's frontier and read the
    // last point meeting the SLO off the report.
    let rho_l = 0.5;
    let slo = 10.0; // at most 10x a short service time
    println!(
        "\nOperating points meeting E[T_s] <= {slo} at rho_l = {rho_l} (means 1/1, exponential):"
    );
    let cache = Arc::new(SolveCache::new());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for policy in [Policy::CsId, Policy::CsCq] {
        let frontier = max_rho_s(policy, rho_l);
        let n = 400;
        let grid: Vec<f64> = (1..n).map(|i| frontier * i as f64 / n as f64).collect();
        let mut spec = GridSpec::analysis("capacity_planning", grid, vec![rho_l]);
        spec.policies = vec![policy];
        let (report, _) = run(
            &spec,
            &SweepOptions::threads(threads).with_cache(cache.clone()),
        );
        let best = report
            .rows
            .iter()
            .filter(|r| r.short_response.is_some_and(|t| t <= slo))
            .map(|r| r.rho_s)
            .fold(0.0f64, f64::max);
        println!(
            "  {:<6} frontier rho_s = {frontier:.4}; max rho_s meeting the SLO = {best:.4} \
             ({:.1}% of frontier)",
            cyclesteal_sweep::policy_name(policy),
            100.0 * best / frontier
        );
    }
    let stats = cache.stats();
    println!(
        "\nSolver cache over both scans: {} hits / {} misses ({:.0}% hit rate) — the\n\
         busy-period fits are computed once and shared across every rho_s point.",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate()
    );

    println!(
        "\nThe gap between the SLO point and the raw frontier is the 'soft capacity' the\n\
         operator can only use by accepting degraded latency — exactly the knee visible\n\
         in the paper's Figures 4-6 as each policy nears its asymptote."
    );
    Ok(())
}
