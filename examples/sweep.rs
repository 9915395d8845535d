//! The scenario-sweep CLI: evaluate a large `ρ_S × ρ_L × C² × policy`
//! analysis grid at several thread counts, verify the reports are
//! bit-identical, and record the wall-clock trajectory in
//! `BENCH_sweep.json` (xtest bench schema).
//!
//! Usage: `cargo run --release --example sweep --
//! [--quick] [--threads 1,8] [--out DIR] [--obs]`
//!
//! * `--quick`    small grid for CI smoke runs (90 points instead of 3,000)
//! * `--threads`  comma-separated worker counts to compare (default `1,8`)
//! * `--out`      directory for `BENCH_sweep.json` (default: cwd)
//! * `--obs`      record solver telemetry: print the span/counter summary
//!   and write a flamegraph-ready `obs_profile.collapsed` to the out dir

use std::time::Instant;

use cyclesteal_sweep::{run, GridSpec, LongLaw, SweepOptions};

fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut quick = false;
    let mut obs = false;
    let mut threads: Vec<usize> = vec![1, 8];
    let mut out_dir = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--obs" => obs = true,
            "--threads" => {
                if let Some(list) = args.next() {
                    threads = list
                        .split(',')
                        .filter_map(|s| s.trim().parse().ok())
                        .collect();
                }
            }
            "--out" => {
                if let Some(dir) = args.next() {
                    out_dir = dir;
                }
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    if threads.is_empty() {
        threads = vec![1];
    }
    if obs {
        cyclesteal_obs::enable();
    }

    // rho_s x rho_l x C^2 x 3 policies: 25*20*2*3 = 3,000 points
    // (quick: 6*5*1*3 = 90).
    let (n_s, n_l, scvs): (usize, usize, &[f64]) = if quick {
        (6, 5, &[1.0])
    } else {
        (25, 20, &[1.0, 8.0])
    };
    let mut spec = GridSpec::analysis(
        "sweep",
        linspace(0.05, 1.45, n_s),
        linspace(0.05, 0.95, n_l),
    );
    spec.long_laws = scvs
        .iter()
        .map(|&c2| LongLaw::balanced(1.0, c2))
        .collect::<Result<_, _>>()?;
    let n_points = spec.len();
    println!(
        "Sweeping {n_points} grid points ({n_s} rho_s x {n_l} rho_l x {} C^2 x {} policies)...\n",
        scvs.len(),
        spec.policies.len()
    );

    let mut json_reports: Vec<(usize, String, u64)> = Vec::new();
    for &t in &threads {
        // Fresh cache per run: each thread count does the full work, so
        // the timing comparison is honest.
        let start = Instant::now();
        let (report, metrics) = run(&spec, &SweepOptions::threads(t));
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        println!(
            "threads={t:<3} wall {:>8.1} ms   cache {:>6} hits / {:>5} misses ({:.0}% hit rate)",
            elapsed_ns as f64 / 1e6,
            metrics.cache.hits,
            metrics.cache.misses,
            100.0 * metrics.cache.hit_rate(),
        );
        json_reports.push((t, report.to_json(), elapsed_ns));
    }

    // The engine's headline guarantee, enforced on every run.
    let baseline = &json_reports[0].1;
    for (t, json, _) in &json_reports[1..] {
        assert_eq!(
            baseline, json,
            "sweep reports differ between {} and {t} threads",
            json_reports[0].0
        );
    }
    println!("\nreports are bit-identical across all thread counts: OK");

    if json_reports.len() > 1 {
        let (t0, _, ns0) = &json_reports[0];
        let (t1, _, ns1) = json_reports.last().unwrap();
        println!(
            "speedup {t1} threads vs {t0}: {:.2}x (on {} available core(s))",
            *ns0 as f64 / *ns1 as f64,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
    }

    if json_reports.len() > 1 {
        // The CS-CQ points alone: the presolve files their QBD solves
        // across the sweep's threads, so this ratio is what the thread
        // count buys the solver. Best of 5 fresh-cache runs per count;
        // a wall-clock ratio, so report-only.
        let mut cs_cq = spec.clone();
        cs_cq.policies = vec![cyclesteal_core::stability::Policy::CsCq];
        let best_ns = |t: usize| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    run(&cs_cq, &SweepOptions::threads(t));
                    start.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (t0, t1) = (threads[0], threads[threads.len() - 1]);
        println!(
            "CS-CQ grid ({} points) speedup {t1} threads vs {t0}: {:.2}x (best of 5, report-only)",
            cs_cq.len(),
            best_ns(t0) / best_ns(t1)
        );
    }

    if obs {
        // All runs record into one registry; the per-run (delta) counts are
        // embedded in each report's "obs" field and already checked
        // bit-identical above. This is the cumulative profile.
        let snap = cyclesteal_obs::snapshot();
        println!("\n-- solver telemetry (all runs combined) --");
        print!("{}", snap.summary_table());
        let profile = format!("{}/obs_profile.collapsed", out_dir.trim_end_matches('/'));
        std::fs::write(&profile, snap.collapsed_stacks())?;
        println!("wrote {profile} (flamegraph collapsed-stack format)");
    }

    // BENCH_sweep.json in the xtest bench schema: one result per thread
    // count, iters = 1, all percentiles = the single wall-clock sample.
    let path = format!("{}/BENCH_sweep.json", out_dir.trim_end_matches('/'));
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"harness\": \"cyclesteal-xtest\",\n  \"version\": 1,\n");
    json.push_str("  \"name\": \"sweep\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (t, _, ns)) in json_reports.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"sweep/analysis_grid_{n_points}pts/threads={t}\", \"iters\": 1, \
             \"mean_ns\": {ns}.0, \"p50_ns\": {ns}.0, \"p99_ns\": {ns}.0, \
             \"min_ns\": {ns}.0, \"max_ns\": {ns}.0}}{}\n",
            if i + 1 < json_reports.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&path, json)?;
    println!("wrote {path}");
    Ok(())
}
