//! Section-4-style validation demo: the approximate analysis against the
//! discrete-event simulator, side by side with confidence intervals —
//! both sides evaluated by the `cyclesteal-sweep` engine (analysis points
//! share the solver cache; simulation points run replications with
//! parameter-derived seeds).
//!
//! Run with: `cargo run --release --example analysis_vs_simulation`

use cyclesteal_sweep::{run_points, Evaluator, LongLaw, Point, SweepOptions};

use cyclesteal::core::stability::Policy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workloads: &[(f64, f64, f64)] = &[
        (0.5, 0.5, 1.0),
        (0.9, 0.5, 1.0),
        (1.2, 0.5, 1.0),
        (0.9, 0.5, 8.0),
        (1.2, 0.3, 8.0),
    ];

    let analysis = Evaluator::Analysis;
    let simulation = Evaluator::Simulation {
        total_jobs: 500_000,
        reps: 2,
        base_seed: 20030701, // ICDCS 2003
    };
    let mut points = Vec::new();
    for &(rho_s, rho_l, c2) in workloads {
        let long = if c2 == 1.0 {
            LongLaw::exponential(1.0)?
        } else {
            LongLaw::balanced(1.0, c2)?
        };
        for policy in [Policy::CsId, Policy::CsCq] {
            for evaluator in [analysis, simulation] {
                points.push(Point {
                    rho_s,
                    rho_l,
                    mean_s: 1.0,
                    long,
                    policy,
                    evaluator,
                    extend_longs: false,
                    hosts: (1, 1),
                });
            }
        }
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (report, metrics) = run_points(
        "analysis_vs_simulation",
        &points,
        &SweepOptions::threads(threads),
    );

    println!(
        "Analysis vs simulation (2 x 500k jobs/point, {threads} worker thread(s)).\n\
         Paper target: within a few percent.\n"
    );
    println!(
        "{:<14} {:>5} {:>5} {:>4} | {:>9} {:>16} {:>6}",
        "policy", "rho_s", "rho_l", "C2", "analysis", "simulation", "diff%"
    );
    for point in &points {
        if point.evaluator != analysis {
            continue;
        }
        let sim_point = Point {
            evaluator: simulation,
            ..*point
        };
        let ana = report.get_point(point).expect("analysis row");
        let sim = report.get_point(&sim_point).expect("simulation row");
        print_pair(
            point,
            "shorts",
            ana.short_response,
            sim.short_response,
            sim.short_ci,
        );
        print_pair(
            point,
            "longs",
            ana.long_response,
            sim.long_response,
            sim.long_ci,
        );
    }

    let spent_ms = metrics.elapsed_ns as f64 / 1e6;
    println!(
        "\nSweep wall-clock: {spent_ms:.0} ms; solver cache: {} hits / {} misses.\n\
         Note the paper's own caveat (Section 4): near saturation the *simulation*\n\
         confidence degrades much faster than the analysis — visible above as wider CIs\n\
         at the highest loads. The analysis rows cost microseconds each; virtually the\n\
         whole wall-clock above is simulation.",
        metrics.cache.hits, metrics.cache.misses
    );
    Ok(())
}

fn print_pair(point: &Point, class: &str, a: Option<f64>, s: Option<f64>, ci: Option<f64>) {
    let name = cyclesteal_sweep::policy_name(point.policy);
    let (Some(a), Some(s)) = (a, s) else {
        println!(
            "{:<14} {:>5.2} {:>5.2} {:>4.0} | (unstable)",
            format!("{name}/{class}"),
            point.rho_s,
            point.rho_l,
            point.long.scv().round(),
        );
        return;
    };
    println!(
        "{:<14} {:>5.2} {:>5.2} {:>4.0} | {:>9.4} {:>9.4} ±{:>5.3} {:>6.2}",
        format!("{name}/{class}"),
        point.rho_s,
        point.rho_l,
        point.long.scv().round(),
        a,
        s,
        ci.unwrap_or(0.0),
        100.0 * (a - s) / s
    );
}
