//! Heap gates measured by this binary's own allocator: the peak live
//! bytes of one presolve, the transient bytes of one store recovery and
//! one compaction, and exact allocation counts for one answer, one query
//! frame's read and parse, one response frame's write, one WAL append and
//! one snapshot image.
//!
//! The allocator keeps its counts per thread, so the test harness's own
//! threads never show in a figure, and every path measured here runs on
//! the calling thread. Every test still holds one lock, so no two
//! measurements share the process's other state (the armed fault plan,
//! the telemetry registry).
//!
//! The peak gate complements `a_daemon_keeps_only_reports_across_drains`
//! in `serving_counts.rs`, which bounds what a daemon keeps *across*
//! drains: this one bounds what one presolve holds *within* a drain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cyclesteal::core::cache::{ReportKey, SolveCache};
use cyclesteal::core::cs_cq::CsCqReport;
use cyclesteal::core::stability::{self, Policy};
use cyclesteal::dist::match3::MatchQuality;
use cyclesteal_svc::client::QueryRequest;
use cyclesteal_svc::wal::{encode_snapshot, DurableCache};
use cyclesteal_svc::{json, proto};
use cyclesteal_sweep::{presolve_points, run_query, Evaluator, LongLaw, Point};

/// Forwards to the system allocator, counting on the calling thread every
/// fresh block (`alloc` or `realloc`) and the bytes live, with their peak.
struct Tracking;

/// One thread's heap figures. Bytes freed on a thread other than the one
/// that allocated them count where they are freed, so a thread's live
/// figure can go negative; only differences are read.
struct Counts {
    allocs: Cell<u64>,
    live: Cell<isize>,
    peak: Cell<isize>,
}

thread_local! {
    static COUNTS: Counts = const {
        Counts {
            allocs: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Adds one fresh block (when `fresh`) and `delta` live bytes to the
/// calling thread's figures.
fn note(fresh: bool, delta: isize) {
    // `try_with`: a thread being torn down may still free memory.
    let _ = COUNTS.try_with(|c| {
        if fresh {
            c.allocs.set(c.allocs.get() + 1);
        }
        let live = c.live.get() + delta;
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
    });
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations `f` makes on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = COUNTS.with(|c| c.allocs.get());
    let out = f();
    (out, COUNTS.with(|c| c.allocs.get()) - before)
}

/// Bytes live on this thread now.
fn live_bytes() -> isize {
    COUNTS.with(|c| c.live.get())
}

/// The most bytes live on this thread while `f` ran, above the live bytes
/// when it started.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = COUNTS.with(|c| {
        c.peak.set(c.live.get());
        c.live.get()
    });
    let out = f();
    let peak = COUNTS.with(|c| c.peak.get());
    (out, (peak - start) as usize)
}

fn point(rho_s: f64, rho_l: f64, scv: f64, hosts: (usize, usize)) -> Point {
    let long = if scv == 1.0 {
        LongLaw::exponential(1.0)
    } else {
        LongLaw::balanced(1.0, scv)
    };
    Point {
        rho_s,
        rho_l,
        mean_s: 1.0,
        long: long.unwrap(),
        policy: Policy::CsCq,
        evaluator: Evaluator::Analysis,
        extend_longs: false,
        hosts,
    }
}

/// A 16-wide drain of distinct heavy (2, 2) questions.
fn heavy_drain() -> Vec<Point> {
    (0..16)
        .map(|i| point(2.0 + 0.005 * i as f64, 0.5, 1.0, (2, 2)))
        .collect()
}

/// A 64-point grid of distinct questions shaped like the benchmark's
/// `sweep_grid` grids: 48 (1, 1) points and 16 (2, 2) points, over three
/// long-job C² values.
fn mixed_grid() -> Vec<Point> {
    const SCV: [f64; 3] = [1.0, 4.0, 16.0];
    let mut points = Vec::new();
    for (i, rho_l) in [0.2, 0.5, 0.8].into_iter().enumerate() {
        let max = stability::max_rho_s(Policy::CsCq, rho_l);
        for j in 0..16 {
            let rho_s = (0.05 + 0.05 * j as f64) * max;
            points.push(point(rho_s, rho_l, SCV[(i + j) % 3], (1, 1)));
        }
    }
    for (i, rho_l) in [0.4, 1.2].into_iter().enumerate() {
        let max = stability::max_rho_s_km(2, 2, rho_l);
        for j in 0..8 {
            let rho_s = (0.1 + 0.1 * j as f64) * max;
            points.push(point(rho_s, rho_l, SCV[(i + j) % 3], (2, 2)));
        }
    }
    points
}

/// Peak live bytes allowed above the start of a presolve of
/// [`heavy_drain`] and of [`mixed_grid`]: about twice the 122,676 and
/// 202,600 bytes measured when the presolve held every question's plan
/// until its solve (82,286 and 107,970 since it holds only each
/// question's key and parameters), and under a third of what the
/// presolve held when it built every chain before solving the first
/// (1,091,036 and 1,283,472 bytes).
const DRAIN_BOUND: usize = 256 * 1024;
const GRID_BOUND: usize = 384 * 1024;

/// Presolves `points` into a fresh cache and returns the peak live bytes
/// above the start, after checking that every question was presolved.
/// A presolve of a heavy (2, 2) question first warms this thread's solve
/// workspace, as a serving worker's is after its first drain, so the
/// figure counts what the presolve itself holds.
fn presolve_peak(points: &[Point]) -> usize {
    presolve_points(&[point(1.9, 0.5, 1.0, (2, 2))], &SolveCache::new());
    let cache = SolveCache::new();
    let (stats, peak) = peak_bytes_during(|| presolve_points(points, &cache));
    assert_eq!(stats.unique, points.len(), "{stats:?}");
    assert_eq!(stats.seeded, stats.unique, "{stats:?}");
    peak
}

/// A presolve builds one chain at a time: its peak is about one (2, 2)
/// chain's blocks plus the filed reports, not the sum of every planned
/// chain's blocks.
#[test]
fn a_drain_presolve_holds_one_chain_at_a_time() {
    let _serial = serial();
    let peak = presolve_peak(&heavy_drain());
    println!("drain presolve peak: {peak} bytes");
    assert!(peak < DRAIN_BOUND, "{peak} bytes");
}

#[test]
fn a_grid_presolve_holds_one_chain_at_a_time() {
    let _serial = serial();
    let peak = presolve_peak(&mixed_grid());
    println!("grid presolve peak: {peak} bytes");
    assert!(peak < GRID_BOUND, "{peak} bytes");
}

/// Allocations of one cold answer of `p`, on a workspace that has already
/// solved a chain of the same shape.
fn cold_answer_allocs(p: &Point, warm_up: &Point) -> u64 {
    run_query(warm_up, &SolveCache::new(), None);
    let cache = SolveCache::new();
    let (answer, allocs) = allocs_during(|| run_query(p, &cache, None));
    assert!(answer.row.failure.is_none(), "{answer:?}");
    allocs
}

#[test]
fn a_cold_11_answer_makes_pinned_allocations() {
    let _serial = serial();
    let allocs = cold_answer_allocs(&point(0.7, 0.5, 1.0, (1, 1)), &point(0.6, 0.5, 1.0, (1, 1)));
    assert_eq!(allocs, 66);
}

#[test]
fn a_cold_22_answer_makes_pinned_allocations() {
    let _serial = serial();
    let allocs = cold_answer_allocs(&point(2.1, 0.5, 1.0, (2, 2)), &point(2.0, 0.5, 1.0, (2, 2)));
    assert_eq!(allocs, 67);
}

#[test]
fn a_report_hit_makes_pinned_allocations() {
    let _serial = serial();
    let p = point(0.7, 0.5, 1.0, (1, 1));
    let cache = SolveCache::new();
    let cold = run_query(&p, &cache, None);
    let (hit, allocs) = allocs_during(|| run_query(&p, &cache, None));
    assert_eq!(hit, cold);
    assert_eq!(allocs, 2);
}

#[test]
fn parsing_a_query_frame_makes_pinned_allocations() {
    let _serial = serial();
    let frame = QueryRequest {
        rho_s: 2.0,
        rho_l: 0.5,
        hosts: (2, 2),
        ..QueryRequest::default()
    }
    .to_json();
    let (doc, allocs) = allocs_during(|| json::parse(&frame));
    assert!(doc.is_ok(), "{frame}");
    assert_eq!(allocs, 15);
}

/// One query frame's bytes are read into one buffer.
#[test]
fn reading_a_query_frame_makes_pinned_allocations() {
    let _serial = serial();
    let query = QueryRequest {
        rho_s: 2.0,
        rho_l: 0.5,
        hosts: (2, 2),
        ..QueryRequest::default()
    }
    .to_json();
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, query.as_bytes()).unwrap();
    let (frame, allocs) = allocs_during(|| proto::read_frame(&mut wire.as_slice()));
    assert_eq!(frame.unwrap().as_deref(), Some(query.as_bytes()));
    assert_eq!(allocs, 1);
}

/// Writing a frame into a buffer with room for it allocates nothing.
#[test]
fn writing_a_frame_makes_pinned_allocations() {
    let _serial = serial();
    let payload = br#"{"ok": true, "short_response": 1.5}"#;
    let mut out = Vec::with_capacity(4 + payload.len());
    let (written, allocs) = allocs_during(|| proto::write_frame(&mut out, payload));
    written.unwrap();
    assert_eq!(out.len(), 4 + payload.len());
    assert_eq!(allocs, 0);
}

/// The reports of a few distinct (1, 1) questions, as a cache exports them.
fn some_reports(n: usize) -> Vec<(ReportKey, CsCqReport)> {
    let cache = SolveCache::new();
    for i in 0..n {
        run_query(
            &point(0.5 + 0.05 * i as f64, 0.5, 1.0, (1, 1)),
            &cache,
            None,
        );
    }
    let reports = cache.export_reports();
    assert_eq!(reports.len(), n);
    reports
}

/// A WAL append encodes its header and payload into one buffer.
#[test]
fn a_wal_append_makes_pinned_allocations() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!(
        "cyclesteal-presolve-memory-wal-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (durable, _) = DurableCache::open(&dir, &SolveCache::new()).unwrap();
    let reports = some_reports(2);
    durable.append(&reports[0].0, &reports[0].1).unwrap();
    let (appended, allocs) = allocs_during(|| durable.append(&reports[1].0, &reports[1].1));
    appended.unwrap();
    assert_eq!(durable.stats().appends, 2);
    assert_eq!(allocs, 1);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot image is encoded into one buffer, however many entries it
/// holds.
#[test]
fn a_snapshot_image_makes_pinned_allocations() {
    let _serial = serial();
    let reports = some_reports(8);
    let (image, allocs) = allocs_during(|| encode_snapshot(&reports));
    assert!(!image.is_empty());
    assert_eq!(allocs, 1);
}

/// Transient bytes allowed above what a recovery keeps, and above the
/// caller's entries during a compaction: the store streams through one
/// fixed buffer, so the figure does not grow with the store. Reading the
/// snapshot into one image and decoding it into a list before restoring
/// held 327 bytes per record (1.34 MB at 4096 records), and encoding the
/// whole image before writing it held 123 (0.50 MB).
const STORE_TRANSIENT_BOUND: usize = 128 * 1024;

/// `n` distinct synthetic entries with valid records, sorted by key as a
/// drain exports them.
fn synthetic_reports(n: u64) -> Vec<(ReportKey, CsCqReport)> {
    (0..n)
        .map(|i| {
            let key = (
                [i, 0x3FF0_0000_0000_0000 ^ i, 7, i * 3, 11, 13],
                (i % 3) as u8 + 1,
                if i % 4 == 0 { (2, 2) } else { (1, 1) },
            );
            let report = CsCqReport {
                short_response: 1.0 + i as f64 / n as f64,
                long_response: 4.5,
                mean_shorts_in_system: 0.75,
                p_region1: 0.5,
                p_region2: 0.25,
                p_region5: 0.125,
                setup_probability: 0.0625,
                total_mass: 1.0,
                bl_match: MatchQuality::ExactThree,
                bn_match: MatchQuality::ExactTwo,
            };
            (key, report)
        })
        .collect()
}

fn store_dir(name: &str, n: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cyclesteal-presolve-memory-{name}-{n}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Restarting on an `n`-record snapshot holds the recovered reports and a
/// fixed buffer, not a second copy of the store.
#[test]
fn recovering_a_store_holds_a_fixed_transient() {
    let _serial = serial();
    for n in [4096, 16384] {
        let dir = store_dir("open", n);
        let (durable, _) = DurableCache::open(&dir, &SolveCache::new()).unwrap();
        durable.compact(&synthetic_reports(n)).unwrap();
        drop(durable);

        let cache = SolveCache::new();
        let start = live_bytes();
        let ((durable, recovery), peak) =
            peak_bytes_during(|| DurableCache::open(&dir, &cache).unwrap());
        let kept = (live_bytes() - start) as usize;
        assert_eq!(recovery.snapshot_entries, n as usize, "{recovery:?}");
        assert_eq!(cache.report_len(), n as usize);
        let transient = peak - kept;
        println!("open of {n} records: peak {peak}, kept {kept}, transient {transient} bytes");
        assert!(
            transient <= STORE_TRANSIENT_BOUND,
            "{transient} bytes at {n} records"
        );
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A compaction streams its snapshot to disk: its peak does not grow with
/// the entries it writes.
#[test]
fn compacting_a_store_holds_a_fixed_transient() {
    let _serial = serial();
    for n in [4096, 16384] {
        let dir = store_dir("compact", n);
        let (durable, _) = DurableCache::open(&dir, &SolveCache::new()).unwrap();
        let entries = synthetic_reports(n);
        let (written, peak) = peak_bytes_during(|| durable.compact(&entries));
        written.unwrap();
        println!("compaction of {n} records: peak {peak} bytes");
        assert!(peak <= STORE_TRANSIENT_BOUND, "{peak} bytes at {n} records");
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
