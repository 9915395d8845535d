//! Restart-recovery and bounded-cache micro-benchmarks for the daemon's
//! durable store and report cache.
//!
//! Three ratios, each taken inside this one binary so code layout cancels:
//!
//! * **CRC throughput** — the table-driven `wal::crc32` against a bitwise
//!   CRC-32 (the loop it replaced, kept here as the reference) over one
//!   4096-answer snapshot image. Gate: the tables are at least 4x faster.
//! * **Bounded restore** — `DurableCache::open` of a 16384-answer snapshot
//!   into a cache bounded at 4096 reports, against the same open into an
//!   unbounded cache. Recovery evicts from the report layer's recency
//!   queue, so the bounded open costs about what the unbounded one does;
//!   an eviction scan of the whole map per insert made it 35-47x slower.
//!   Gate: at most 3x.
//! * **Serving misses on a full bounded cache** — never-seen cached (1, 1)
//!   analyses, each in its own `scope()` as a daemon drain answers it, on
//!   a report layer restored to 8192 answers: bounded at 8192, where every
//!   miss evicts one report, against the same misses unbounded. Serving
//!   evicts from the same recency queue as recovery; the whole-map scan
//!   it replaced made each miss about 5x slower. Gate: at most 1.5x.
//!
//! Ratios come from best-of-N minimum times, the run least disturbed by
//! the machine. Absolute times are printed and kept in
//! `BENCH_recovery.json` but are report-only. `ci.sh` re-checks all three
//! gates from the emitted metrics. `--quick` for smoke runs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cyclesteal_core::cache::{ReportKey, SolveCache};
use cyclesteal_core::cs_cq::{self, BusyPeriodFit, CsCqReport};
use cyclesteal_core::SystemParams;
use cyclesteal_dist::match3::MatchQuality;
use cyclesteal_svc::wal::{self, DurableCache};
use cyclesteal_xtest::Bench;

/// The bitwise CRC-32 (IEEE 802.3, polynomial `0xEDB88320`): one shift
/// per input bit, no tables.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// `n` distinct answers shaped like the daemon's: (1, 1) and (2, 2) keys
/// over varied workload bits.
fn answers(n: u64) -> Vec<(ReportKey, CsCqReport)> {
    (0..n)
        .map(|i| {
            let hosts = if i % 4 == 0 { (2, 2) } else { (1, 1) };
            let key = (
                [i, 0x3FF0_0000_0000_0000 ^ i, 7, i * 3, 11, 13],
                (i % 3) as u8 + 1,
                hosts,
            );
            let report = CsCqReport {
                short_response: 1.0 + i as f64 / n as f64,
                long_response: 4.5,
                mean_shorts_in_system: 0.75,
                p_region1: 0.5,
                p_region2: 0.25,
                p_region5: 0.125,
                setup_probability: 0.0625,
                bl_match: MatchQuality::ExactThree,
                bn_match: MatchQuality::ExactTwo,
                total_mass: 1.0,
            };
            (key, report)
        })
        .collect()
}

/// Writes a store in `dir` whose snapshot holds `n` answers.
fn write_store(dir: &Path, n: u64) {
    let _ = std::fs::remove_dir_all(dir);
    let (durable, _) = DurableCache::open(dir, &SolveCache::new()).expect("open a new store");
    durable.compact(&answers(n)).expect("write the snapshot");
}

fn best_of_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut h = Bench::new("recovery");
    let reps = if h.is_quick() { 3 } else { 9 };
    let tmp =
        std::env::temp_dir().join(format!("cyclesteal-bench-recovery-{}", std::process::id()));

    // --- CRC over one 4096-answer snapshot image. ---
    let image = wal::encode_snapshot(&answers(4096));
    assert_eq!(
        wal::crc32(&image),
        crc32_bitwise(&image),
        "the table CRC must equal the bitwise CRC"
    );
    let table_ms = best_of_ms(reps * 4, || {
        black_box(wal::crc32(black_box(&image)));
    });
    let bitwise_ms = best_of_ms(reps, || {
        black_box(crc32_bitwise(black_box(&image)));
    });
    let mib = image.len() as f64 / (1024.0 * 1024.0);
    h.metric("crc_mib_per_sec/table", mib / (table_ms / 1e3));
    h.metric("crc_mib_per_sec/bitwise", mib / (bitwise_ms / 1e3));
    println!(
        "crc32 of a {} byte image: table {table_ms:.3} ms, bitwise {bitwise_ms:.3} ms ({:.1}x, ms report-only)",
        image.len(),
        bitwise_ms / table_ms
    );
    assert!(
        bitwise_ms >= 4.0 * table_ms,
        "the table CRC must be at least 4x the bitwise throughput: \
         table {table_ms:.3} ms, bitwise {bitwise_ms:.3} ms"
    );

    // --- Opening a 4096-answer store: the daemon's usual restart. ---
    let store = tmp.join("store4096");
    write_store(&store, 4096);
    let open_ms = best_of_ms(reps, || {
        let cache = SolveCache::new();
        let (_, rec) = DurableCache::open(&store, &cache).expect("open");
        assert_eq!(rec.snapshot_entries, 4096);
    });
    h.metric("open_ms/4096/unbounded", open_ms);

    // --- A store four times the cache bound. ---
    let store = tmp.join("store16384");
    write_store(&store, 16384);
    let open = |capacity: usize| {
        let cache = SolveCache::with_capacity(capacity);
        let (_, rec) = DurableCache::open(&store, &cache).expect("open");
        assert_eq!(rec.snapshot_entries, 16384);
        let kept = if capacity == 0 { 16384 } else { capacity };
        assert_eq!(cache.report_len(), kept);
    };
    let unbounded_ms = best_of_ms(reps, || open(0));
    let bounded_ms = best_of_ms(reps, || open(4096));
    h.metric("open_ms/16384/unbounded", unbounded_ms);
    h.metric("open_ms/16384/capacity_4096", bounded_ms);
    println!(
        "open of a 16384-answer store: unbounded {unbounded_ms:.2} ms, capacity 4096 \
         {bounded_ms:.2} ms ({:.2}x, ms report-only); 4096 answers unbounded {open_ms:.2} ms",
        bounded_ms / unbounded_ms
    );
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(
        bounded_ms <= 3.0 * unbounded_ms,
        "restoring past the cache bound must stay within 3x of an unbounded \
         restore: capacity 4096 {bounded_ms:.2} ms, unbounded {unbounded_ms:.2} ms"
    );

    // --- Serving misses on a report layer full at its bound. ---
    const FULL: usize = 8192;
    let restored = answers(FULL as u64);
    let n = if h.is_quick() { 128 } else { 256 };
    let points: Vec<SystemParams> = (0..n)
        .map(|i| {
            let rho_s = 0.2 + 0.6 * i as f64 / n as f64;
            SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).expect("valid parameters")
        })
        .collect();
    // Best microseconds per miss, unbounded then bounded, alternating so
    // drift hits both sides alike. A round takes tens of milliseconds, so
    // it gets three times the repetitions of the opens.
    let mut miss_us = [f64::INFINITY; 2];
    for _ in 0..3 * reps {
        for (side, capacity) in [0, FULL].into_iter().enumerate() {
            let cache = SolveCache::with_capacity(capacity);
            cache.restore_reports(restored.clone());
            let t = Instant::now();
            for p in &points {
                let scope = cache.scope();
                let report = cs_cq::analyze_cached(p, BusyPeriodFit::ThreeMoment, &scope);
                black_box(report.expect("a stable point"));
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
            miss_us[side] = miss_us[side].min(us);
            let kept = if capacity == 0 { FULL + n } else { FULL };
            assert_eq!(cache.report_len(), kept, "every point must be a miss");
        }
    }
    let [unbounded_us, bounded_us] = miss_us;
    h.metric("miss_us/8192/unbounded", unbounded_us);
    h.metric("miss_us/8192/capacity_8192", bounded_us);
    println!(
        "never-seen (1, 1) miss on a full 8192-report layer: unbounded {unbounded_us:.1} us, \
         capacity 8192 {bounded_us:.1} us ({:.2}x, us report-only)",
        bounded_us / unbounded_us
    );
    assert!(
        bounded_us <= 1.5 * unbounded_us,
        "a miss on a full bounded cache must stay within 1.5x of an unbounded \
         miss: capacity 8192 {bounded_us:.1} us, unbounded {unbounded_us:.1} us"
    );

    h.finish();
}
