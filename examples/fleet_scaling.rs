//! Fleet scaling demo: what does cycle stealing buy a `k = 8, m = 8`
//! fleet? The `(k, m)` generalization of the CS-CQ analysis is walked up
//! the scaling path `(1, 1) → (2, 2) → (4, 4) → (8, 8)` at a fixed
//! per-host load, against the no-stealing baseline (shorts confined to
//! their own `k` hosts — an M/M/k), with a discrete-event fleet
//! simulation cross-checking the largest shape.
//!
//! Two regimes are shown:
//!
//! * **Inside the M/M/k region** (`ρ_S = 0.9 k`): stealing converts the
//!   long hosts' idle fraction into short-class capacity, cutting the
//!   short response time — more so at small fleets, where one extra
//!   server is a large relative gain.
//! * **Beyond it** (`ρ_S = 1.15 k`): the dedicated fleet is *unstable*
//!   (`ρ_S > k`), but cycle stealing widens the frontier to
//!   `ρ_S < k + m − ρ_L`, so the same workload is served with a finite
//!   short response — the paper's Theorem-1 effect, at fleet scale.
//!
//! Run with: `cargo run --release --example fleet_scaling`

use cyclesteal::core::cs_cq::BusyPeriodFit;
use cyclesteal::core::cs_cq_km::{self, Hosts};
use cyclesteal::core::SystemParams;
use cyclesteal::dist::Exp;
use cyclesteal::mg1::mmc;
use cyclesteal::sim::{replicate_parallel, PolicyKind, SimConfig, SimParams};

/// The biggest shape exactly analyzed with the paper's three-moment
/// busy-period fit; `m = 8` has 1287 phases under it, so the largest
/// fleet falls back to the mean-only fit (still exact in its busy-period
/// *means*, and cross-checked by simulation below).
const THREE_MOMENT_MAX_M: usize = 4;

fn analyze(k: usize, m: usize, rho_s: f64, rho_l: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let p = SystemParams::exponential(rho_s, 1.0, rho_l, 1.0)?;
    let fit = if m <= THREE_MOMENT_MAX_M {
        BusyPeriodFit::ThreeMoment
    } else {
        BusyPeriodFit::MeanOnly
    };
    Ok(cs_cq_km::analyze_with(Hosts::new(k, m)?, &p, fit)?.short_response)
}

fn simulate(k: usize, m: usize, rho_s: f64, rho_l: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let short = Exp::with_mean(1.0)?;
    let long = Exp::with_mean(1.0)?;
    let params = SimParams::new(rho_s, rho_l, &short, &long)?;
    let kind = PolicyKind::cs_cq_fleet(k, m, &params)?;
    let config = SimConfig {
        seed: 0x5CA1E,
        total_jobs: 400_000,
        ..SimConfig::default()
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok(replicate_parallel(kind, &params, &config, 2, threads)
        .short
        .mean)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shapes = [(1usize, 1usize), (2, 2), (4, 4), (8, 8)];

    println!("Cycle stealing at fleet scale (exponential sizes, mean 1, rho_l = 0.5 m).\n");
    println!("Regime 1: rho_s = 0.9 k — the dedicated fleet is stable; stealing still helps.");
    println!(
        "{:>6} {:>6} {:>6} | {:>12} {:>12} {:>7}",
        "(k,m)", "rho_s", "rho_l", "M/M/k shorts", "CS-CQ shorts", "gain%"
    );
    for (k, m) in shapes {
        let (rho_s, rho_l) = (0.9 * k as f64, 0.5 * m as f64);
        let baseline = mmc::mean_response(k as u32, rho_s, 1.0)?;
        let stealing = analyze(k, m, rho_s, rho_l)?;
        println!(
            "{:>6} {:>6.2} {:>6.2} | {:>12.4} {:>12.4} {:>7.1}",
            format!("{k}x{m}"),
            rho_s,
            rho_l,
            baseline,
            stealing,
            100.0 * (baseline - stealing) / baseline
        );
    }

    println!("\nRegime 2: rho_s = 1.15 k — beyond dedicated capacity; only stealing survives.");
    println!(
        "{:>6} {:>6} {:>6} | {:>12} {:>12} {:>12}",
        "(k,m)", "rho_s", "rho_l", "M/M/k shorts", "CS-CQ shorts", "CS-CQ sim"
    );
    for (k, m) in shapes {
        let (rho_s, rho_l) = (1.15 * k as f64, 0.5 * m as f64);
        let stealing = analyze(k, m, rho_s, rho_l)?;
        // Cross-check the analysis against the fleet simulator at the
        // smallest and largest shape (the latter exercises the mean-only
        // fit the 8x8 chain runs under).
        let sim = if k == 1 || k == 8 {
            format!("{:>12.4}", simulate(k, m, rho_s, rho_l)?)
        } else {
            format!("{:>12}", "-")
        };
        println!(
            "{:>6} {:>6.2} {:>6.2} | {:>12} {:>12.4} {sim}",
            format!("{k}x{m}"),
            rho_s,
            rho_l,
            "(unstable)",
            stealing,
        );
    }

    println!(
        "\nReading: every stealing host widens the short-class frontier by one full\n\
         server (Theorem 1 generalized: rho_s < k + m - rho_l), so an 8x8 fleet\n\
         serves 15% more short load than its dedicated half could ever absorb —\n\
         while the shapes with m <= {THREE_MOMENT_MAX_M} use the paper's three-moment busy-period\n\
         fit and the 8x8 chain (1287 phases under three moments) drops to the\n\
         mean-only fit, cross-checked by the simulator."
    );
    Ok(())
}
