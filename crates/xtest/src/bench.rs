//! A criterion-free micro-benchmark harness.
//!
//! Each bench target (`harness = false`) builds a [`Bench`], registers
//! closures with [`Bench::bench`], and calls [`Bench::finish`], which
//! prints a human-readable table and writes `BENCH_<name>.json` with
//! mean/p50/p99 per benchmark — the machine-readable perf trajectory that
//! later PRs regress against.
//!
//! Command-line flags (unknown flags, e.g. cargo's `--bench`, are
//! ignored):
//!
//! * `--quick` — ~10x shorter warmup and measurement, for CI smoke runs;
//! * `--iters N` — fix the per-benchmark iteration count;
//! * `--filter S` — only run benchmarks whose id contains `S`;
//! * `--out DIR` — directory for the JSON report (default: cwd).

use std::hint::black_box;
use std::time::Instant;

use cyclesteal_obs::json_str;

#[derive(Debug, Clone)]
struct Entry {
    id: String,
    iters: u64,
    mean_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// The harness: collects timings, then reports.
#[derive(Debug)]
pub struct Bench {
    name: String,
    quick: bool,
    iters_override: Option<u64>,
    filter: Option<String>,
    out_dir: String,
    entries: Vec<Entry>,
    metrics: Vec<(String, f64)>,
}

impl Bench {
    /// Creates a harness named `name` (the JSON lands in
    /// `BENCH_<name>.json`), reading flags from `std::env::args`.
    pub fn new(name: &str) -> Self {
        Self::with_args(name, std::env::args().skip(1))
    }

    /// Like [`Bench::new`] with explicit arguments (for tests).
    pub fn with_args(name: &str, args: impl Iterator<Item = String>) -> Self {
        let mut bench = Bench {
            name: name.to_string(),
            quick: false,
            iters_override: None,
            filter: None,
            out_dir: ".".to_string(),
            entries: Vec::new(),
            metrics: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => bench.quick = true,
                "--iters" => bench.iters_override = args.next().and_then(|v| v.parse().ok()),
                "--filter" => bench.filter = args.next(),
                "--out" => {
                    if let Some(dir) = args.next() {
                        bench.out_dir = dir;
                    }
                }
                _ => {} // tolerate cargo's --bench and test-harness flags
            }
        }
        bench
    }

    /// Whether the harness is in `--quick` (smoke) mode.
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// Times `f`, recording per-iteration wall-clock samples.
    ///
    /// Warmup runs until a time budget is spent, the iteration count is
    /// sized from the warmup estimate (unless `--iters`), and every
    /// measured iteration is timed individually so percentiles are
    /// honest. The closure's result is passed through
    /// [`std::hint::black_box`] so the optimizer cannot delete the work.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let (warmup_ns, target_ns) = if self.quick {
            (10_000_000u128, 50_000_000f64)
        } else {
            (100_000_000u128, 500_000_000f64)
        };

        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed().as_nanos() < warmup_ns && warm_iters < 100_000 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter_ns = (start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64).max(1.0);

        let iters = self
            .iters_override
            .unwrap_or(((target_ns / per_iter_ns) as u64).clamp(10, 1_000_000));

        let mut samples_ns = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            samples_ns.push(t.elapsed().as_nanos() as f64);
        }
        samples_ns.sort_by(f64::total_cmp);

        let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let entry = Entry {
            id: id.to_string(),
            iters,
            mean_ns,
            p50_ns: percentile(&samples_ns, 0.50),
            p99_ns: percentile(&samples_ns, 0.99),
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().unwrap(),
        };
        println!(
            "{:<52} n={:<8} mean {:>10}  p50 {:>10}  p99 {:>10}",
            entry.id,
            entry.iters,
            fmt_ns(entry.mean_ns),
            fmt_ns(entry.p50_ns),
            fmt_ns(entry.p99_ns),
        );
        self.entries.push(entry);
    }

    /// Records a named scalar metric alongside the timings — counts the
    /// bench target measured itself (e.g. heap allocations per solve),
    /// which, unlike wall-clock, are exactly reproducible and therefore
    /// safe for CI to assert on. Metrics land in a `"metrics"` array in
    /// the JSON report and ignore `--filter`.
    pub fn metric(&mut self, id: &str, value: f64) {
        println!("{:<52} metric {value}", id);
        self.metrics.push((id.to_string(), value));
    }

    /// Prints the footer and writes `BENCH_<name>.json`.
    ///
    /// # Panics
    ///
    /// Panics if the JSON file cannot be written — a silent bench run
    /// would defeat the perf-trajectory record.
    pub fn finish(self) {
        let path = format!(
            "{}/BENCH_{}.json",
            self.out_dir.trim_end_matches('/'),
            self.name
        );
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"harness\": \"cyclesteal-xtest\",\n  \"version\": 1,\n");
        json.push_str(&format!("  \"name\": {},\n", json_str(&self.name)));
        json.push_str(&format!("  \"quick\": {},\n", self.quick));
        json.push_str("  \"results\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"id\": {}, \"iters\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {:.1}, \
                 \"p99_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
                json_str(&e.id),
                e.iters,
                e.mean_ns,
                e.p50_ns,
                e.p99_ns,
                e.min_ns,
                e.max_ns,
                if i + 1 < self.entries.len() { "," } else { "" },
            ));
        }
        json.push_str("  ],\n");
        json.push_str("  \"metrics\": [\n");
        for (i, (id, value)) in self.metrics.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"id\": {}, \"value\": {value}}}{}\n",
                json_str(id),
                if i + 1 < self.metrics.len() { "," } else { "" },
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write bench report {path}: {e}"));
        println!(
            "\n{} benchmark(s) -> {path}{}",
            self.entries.len(),
            if self.quick { " (quick mode)" } else { "" }
        );
    }
}

/// Nearest-rank percentile of pre-sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let b = Bench::with_args(
            "t",
            ["--bench", "--quick", "--iters", "25", "--filter", "abc"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(b.quick);
        assert_eq!(b.iters_override, Some(25));
        assert_eq!(b.filter.as_deref(), Some("abc"));
    }

    #[test]
    fn bench_records_and_writes_json() {
        let dir = std::env::temp_dir().join("xtest_bench_selftest");
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = Bench::with_args(
            "selftest",
            [
                "--quick".to_string(),
                "--iters".to_string(),
                "50".to_string(),
                "--out".to_string(),
                dir.to_str().unwrap().to_string(),
            ]
            .into_iter(),
        );
        b.bench("spin/small", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i) * 31);
            }
            acc
        });
        b.bench("skipped/by_filter_no", || 0u64);
        b.metric("allocs/selftest", 42.0);
        assert_eq!(b.entries.len(), 2);
        let e = &b.entries[0];
        assert_eq!(e.iters, 50);
        assert!(e.min_ns <= e.p50_ns && e.p50_ns <= e.p99_ns && e.p99_ns <= e.max_ns);
        assert!(e.mean_ns > 0.0);
        b.finish();
        let json = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        assert!(json.contains("\"mean_ns\""), "{json}");
        assert!(json.contains("\"p99_ns\""), "{json}");
        assert!(json.contains("spin/small"), "{json}");
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(
            json.contains("{\"id\": \"allocs/selftest\", \"value\": 42}"),
            "{json}"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench::with_args(
            "t",
            [
                "--filter".to_string(),
                "yes".to_string(),
                "--iters".to_string(),
                "10".to_string(),
            ]
            .into_iter(),
        );
        b.bench("no/match", || 1);
        assert!(b.entries.is_empty());
        b.bench("yes/match", || 1);
        assert_eq!(b.entries.len(), 1);
    }
}
