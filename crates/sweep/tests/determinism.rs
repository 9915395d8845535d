//! The sweep engine's headline guarantee, as a property: over random
//! grids, the `SweepReport` JSON is **bit-identical** for 1, 2, and 8
//! worker threads, for shuffled input order, and for warm shared caches.

use std::sync::Arc;

use cyclesteal_core::cache::SolveCache;
use cyclesteal_sweep::{run_points, Evaluator, GridSpec, LongLaw, SweepOptions};
use cyclesteal_xtest::props;

/// Inclusive linear axis with `n` points.
fn axis(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64)
        .collect()
}

/// Deterministic Fisher–Yates on a splitmix64 stream.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

props! {
    cases = 6;

    /// Analysis sweeps: every execution strategy yields the same bytes.
    fn analysis_sweep_is_bit_identical(
        (n_s, n_l, scv, shuffle_seed) in (2u32..5, 2u32..4, 1.0f64..10.0, 0u64..1_000_000)
    ) {
        let mut spec = GridSpec::analysis(
            "determinism",
            axis(0.1, 1.4, n_s as usize),
            axis(0.1, 0.8, n_l as usize),
        );
        spec.long_laws = vec![LongLaw::balanced(1.0, scv).unwrap()];
        let points = spec.points();

        let (baseline, _) = run_points("determinism", &points, &SweepOptions::threads(1));
        let want = baseline.to_json();
        for threads in [2, 8] {
            let (rep, _) = run_points("determinism", &points, &SweepOptions::threads(threads));
            assert_eq!(want, rep.to_json(), "threads = {threads}");
        }

        // Shuffled input order: same multiset of points, same bytes.
        let mut shuffled = points.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let (rep, _) = run_points("determinism", &shuffled, &SweepOptions::threads(8));
        assert_eq!(want, rep.to_json(), "shuffled input");

        // A warm shared cache changes wall-clock only, never the bytes.
        let cache = Arc::new(SolveCache::new());
        let opts = SweepOptions::threads(8).with_cache(cache.clone());
        let (cold, _) = run_points("determinism", &points, &opts);
        let (warm, metrics) = run_points("determinism", &points, &opts);
        assert_eq!(want, cold.to_json());
        assert_eq!(want, warm.to_json());
        assert!(metrics.cache.hits > 0, "{:?}", metrics.cache);
    }

    /// Simulation sweeps: seeds derive from point parameters, so thread
    /// count and input order cannot move a single sample.
    fn simulation_sweep_is_bit_identical(
        (rho_s, rho_l, shuffle_seed) in (0.2f64..0.9, 0.1f64..0.6, 0u64..1_000_000)
    ) {
        let spec = GridSpec {
            evaluator: Evaluator::Simulation {
                total_jobs: 1_500,
                reps: 2,
                base_seed: 42,
            },
            ..GridSpec::analysis("sim_det", vec![rho_s, rho_s / 2.0], vec![rho_l])
        };
        let mut points = spec.points();
        let (baseline, _) = run_points("sim_det", &points, &SweepOptions::threads(1));
        let want = baseline.to_json();
        for threads in [2, 8] {
            let (rep, _) = run_points("sim_det", &points, &SweepOptions::threads(threads));
            assert_eq!(want, rep.to_json(), "threads = {threads}");
        }
        shuffle(&mut points, shuffle_seed);
        let (rep, _) = run_points("sim_det", &points, &SweepOptions::threads(8));
        assert_eq!(want, rep.to_json(), "shuffled input");
    }
}

/// The LRU-bounded cache gate: eviction changes *retention* (and
/// therefore hit/miss counters), never *values* — a report is a pure
/// function of its quantized key, so a sweep over a pathologically tiny
/// cache must still emit byte-identical JSON at every thread count, in
/// shuffled order, and on a warm replay.
#[test]
fn lru_bounded_cache_keeps_sweeps_bit_identical() {
    let mut spec = GridSpec::analysis("evict_det", axis(0.2, 1.4, 5), axis(0.2, 0.7, 3));
    spec.long_laws = vec![LongLaw::balanced(1.0, 4.0).unwrap()];
    let points = spec.points();

    let (baseline, _) = run_points("evict_det", &points, &SweepOptions::threads(1));
    let want = baseline.to_json();

    for threads in [1, 2, 8] {
        for capacity in [1, 2, 7] {
            let cache = Arc::new(SolveCache::with_capacity(capacity));
            let opts = SweepOptions::threads(threads).with_cache(Arc::clone(&cache));
            let (cold, _) = run_points("evict_det", &points, &opts);
            assert_eq!(
                want,
                cold.to_json(),
                "threads={threads} capacity={capacity}"
            );
            // Replay on whatever survived eviction: still the same bytes.
            let mut shuffled = points.clone();
            shuffle(&mut shuffled, 0xE71C + capacity as u64);
            let (warm, _) = run_points("evict_det", &shuffled, &opts);
            assert_eq!(
                want,
                warm.to_json(),
                "warm threads={threads} capacity={capacity}"
            );
            if capacity == 1 {
                assert!(
                    cache.stats().evictions > 0,
                    "a 1-slot cache over {} points must evict",
                    points.len()
                );
            }
        }
    }
}
