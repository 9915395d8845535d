//! Benchmark of the CS-CQ sweep engine and the capacity-planning daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_grid|cold_mix|fleet_burst> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the workload untraced and traced, times the
//! layers from spans, and reports the per-layer metrics. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Scratch data, run records and span files go to
//! `.bench_out/`. See `perfbench/README.md` for what each workload and
//! metric means.

mod check;
mod daemon;
mod gen;
mod layers;
mod stats;
mod sweep_grid;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Output root, relative to the checkout the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("cpu_ms_per_answer", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Wall-clock figures every untraced run prints and records but does not
/// report as metrics: on a two-core VM with hypervisor steal they spread
/// too far between runs to gate on (see `STEADINESS.md`).
const REPORT_ONLY: [(&str, &str); 3] = [
    ("answers_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 26] = [
    ("svc.json.parse_us", "us"),
    ("svc.proto.frame_us", "us"),
    ("svc.admission.handoff_us", "us"),
    ("svc.wal.append_us", "us"),
    ("svc.wal.fsyncs_per_answer", "count"),
    ("svc.batch.width_mean", "count"),
    ("svc.batch.dedup_share", "share"),
    ("svc.batch.batched_share", "share"),
    ("svc.recovery.open_ms", "ms"),
    ("svc.conn.fds_after", "count"),
    ("svc.conn.threads_after", "count"),
    ("sweep.presolve_us_per_point", "us"),
    ("sweep.presolve.batched_share", "share"),
    ("sweep.query.hit_us", "us"),
    ("core.fit_us", "us"),
    ("core.build_us.h11", "us"),
    ("core.build_us.h22", "us"),
    ("core.report_us", "us"),
    ("core.cache.hit_share", "share"),
    ("core.cache.entries", "count"),
    ("markov.signature_us.h11", "us"),
    ("markov.signature_us.h22", "us"),
    ("markov.solve_us.h11", "us"),
    ("markov.solve_us.h22", "us"),
    ("markov.solve_batch_us_per_lane.h22", "us"),
    ("trace.overhead_share", "share"),
];

/// Settings shared by every part of one run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (data dirs, probe stores).
    pub work_dir: PathBuf,
    /// Time origin of every span of the run.
    pub epoch: Instant,
}

impl Ctx {
    /// Seconds of load per measured phase: the whole run untraced, or one
    /// half untraced and one half traced.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Time slices each measured phase is cut into. CPU per answer and the
/// answer rate are medians over slices, and the percentiles medians over at
/// most this many chunks of answers, so a host stall moves one slice or
/// chunk and not the run's figure.
pub const SLICES: usize = 20;

/// What the untraced run measured, before reduction to metrics.
pub struct EndToEnd {
    pub slices: Vec<stats::Slice>,
    /// Answer latencies, in completion order.
    pub latency_ns: Vec<u64>,
    pub setup_s: Vec<f64>,
    pub rss_peak_mib: f64,
}

impl EndToEnd {
    /// The [`END_TO_END`] metrics, in order.
    fn metrics(&self) -> Vec<f64> {
        let mut setup = self.setup_s.clone();
        vec![
            stats::slice_median(&self.slices, |s| {
                (s.answers > 0).then(|| s.cpu_ns as f64 / 1e6 / s.answers as f64)
            }),
            stats::median(&mut setup),
            self.rss_peak_mib,
        ]
    }

    /// The [`REPORT_ONLY`] figures, in order.
    fn report_only(&self) -> Vec<f64> {
        let lat = stats::ms(&self.latency_ns);
        vec![
            stats::slice_median(&self.slices, |s| Some(s.answers_per_s())),
            stats::chunked_percentile(&lat, SLICES, 0.50),
            stats::chunked_percentile(&lat, SLICES, 0.99),
        ]
    }
}

/// Per-layer readings of the traced run, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

pub fn empty_layers() -> Layers {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// The result of one run of one workload.
pub struct Outcome {
    /// Operations attempted: queries sent, sweep points evaluated, and
    /// connections opened.
    pub attempted: u64,
    /// Sheds, error frames, failure records, I/O errors and mismatches.
    pub failed: u64,
    /// Answers compared against a fresh in-process evaluation.
    pub checked: u64,
    /// Of those, answers that differed.
    pub mismatches: u64,
    pub end_to_end: Option<EndToEnd>,
    pub layers: Option<Layers>,
}

/// Writes a traced run's spans to `.bench_out/trace/<workload>-s<seed>.json`.
pub fn write_spans(ctx: &Ctx, tr: &trace::Tracer) -> Result<(), String> {
    let dir = PathBuf::from(OUT_DIR).join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating the trace dir: {e}"))?;
    let path = dir.join(format!("{}-s{}.json", ctx.workload, ctx.seed));
    tr.write_json(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    println!("spans {} written to {}", tr.spans().len(), path.display());
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A fixed floating-point kernel owned by the benchmark (not the program),
/// timed at the start of every run: when a set of runs reads slower, this
/// tells host slowdown apart from a slower program. Best of five, in ms.
fn host_probe_ms() -> f64 {
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25 + 1.0).collect();
    let mut c = vec![0.0f64; N * N];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..40 {
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] = c[i * N + j] * 0.5 + aik * a[k * N + j];
                    }
                }
            }
            std::hint::black_box(&mut c);
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn json_number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("metric value {x} is not a finite number"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    sys::raise_nofile_limit();
    let probe_ms = host_probe_ms();
    println!("host_probe_ms {probe_ms}");
    let jiffies_before = sys::cpu_jiffies();
    let out = PathBuf::from(OUT_DIR);
    let work_dir = out
        .join("data")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
        epoch: Instant::now(),
    };
    let result = match args.workload.as_str() {
        "sweep_grid" => sweep_grid::run(&ctx),
        "cold_mix" => daemon::cold(&ctx, daemon::COLD_MIX),
        "fleet_burst" => daemon::cold(&ctx, daemon::FLEET_BURST),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = result?;
    let jiffies_after = sys::cpu_jiffies();
    let steal_share = (jiffies_after.1 - jiffies_before.1) as f64
        / (jiffies_after.0 - jiffies_before.0).max(1) as f64;
    println!("host_steal_share {steal_share}");

    let mut metrics = String::new();
    let mut listed = Vec::new();
    let mut report_only = String::new();
    if let Some(e2e) = &outcome.end_to_end {
        let by_slice = |f: &dyn Fn(&stats::Slice) -> f64| {
            e2e.slices
                .iter()
                .map(|s| format!("{:.3}", f(s)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("steal_share by slice: {}", by_slice(&|s| s.steal_share));
        println!(
            "cpu_ms_per_answer by slice: {}",
            by_slice(&|s| s.cpu_ns as f64 / 1e6 / s.answers.max(1) as f64)
        );
        for ((name, unit), value) in END_TO_END.iter().zip(e2e.metrics()) {
            listed.push((*name, value, *unit));
        }
        for ((name, unit), value) in REPORT_ONLY.iter().zip(e2e.report_only()) {
            println!("report-only {name} {value} {unit}");
            let _ = write!(
                report_only,
                "{}\"{name}\": {}",
                if report_only.is_empty() { "" } else { ", " },
                json_number(value)?
            );
        }
    }
    if let Some(layers) = &outcome.layers {
        for (name, unit) in PER_LAYER {
            listed.push((name, layers[name], unit));
        }
    }
    for (name, value, unit) in &listed {
        println!("{name} {value} {unit}");
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if metrics.is_empty() { "" } else { ", " },
            json_number(*value)?
        );
    }
    println!(
        "checked {} answers against fresh evaluations, {} differed",
        outcome.checked, outcome.mismatches
    );
    let correct = outcome.failed == 0 && outcome.mismatches == 0 && outcome.checked > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_probe_ms\": {}, \"host_steal_share\": {}, \"report_only\": {{{report_only}}}, \"result\": {line}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_number(probe_ms)?,
        json_number(steal_share)?
    );
    let runs = out.join("runs");
    std::fs::create_dir_all(&runs).map_err(|e| e.to_string())?;
    let name = format!(
        "{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(runs.join(name), record).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}
