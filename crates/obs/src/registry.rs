//! The global metric registry: thread-local aggregation buffers merged
//! into one process-wide table, behind a runtime on/off switch.
//!
//! # Why counts are deterministic
//!
//! Every recording primitive mutates only the calling thread's buffer;
//! buffers merge into the global table **additively** (counters, span
//! counts, histogram buckets) or by **max** (gauges), so the merged
//! result is independent of merge order, thread count, and scheduling.
//! Merges happen on explicit [`flush_thread`], when the recording thread
//! itself calls [`snapshot`], and as a backstop when a thread exits (TLS
//! destructor).
//!
//! **Worker threads must call [`flush_thread`] at the end of each unit of
//! work** before a snapshot can see their records: a persistent worker
//! never exits, and `std::thread::scope` signals completion when the
//! closure *returns*, before TLS destructors run, so a snapshot taken
//! right after the work can miss or race a Drop-based merge. The
//! workspace's pool (`cyclesteal_sim::pool`) flushes at the end of every
//! helper job; the TLS destructor still catches threads that forget, just
//! with no ordering guarantee against snapshots.
//!
//! # The runtime switch
//!
//! The runtime is compiled into every build and starts off. While off,
//! every `record_*` and span enter is one relaxed atomic load and a
//! never-taken branch, and the clock is never read (the `obs_overhead`
//! bench holds that cost under 1% of a sweep).

use crate::hist::Hist;
use crate::snapshot::{ObsSnapshot, SpanEntry};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Serializes tests (and any other user) that need the process-global
/// registry to themselves. Pattern matches `xtest::fault::arm`: hold the
/// guard for the whole enable→run→snapshot→reset section.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Locks the registry's exclusive test lock, riding through poisoning
/// (the lock guards no data, only mutual exclusion).
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

type Name = Cow<'static, str>;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanStat {
    count: u64,
    total_ns: u64,
}

/// One thread's (or the global) aggregation table.
#[derive(Debug, Default)]
struct Aggregates {
    counters: BTreeMap<Name, u64>,
    gauges: BTreeMap<Name, u64>,
    hists: BTreeMap<Name, Hist>,
    spans: BTreeMap<String, SpanStat>,
}

impl Aggregates {
    const fn new() -> Self {
        Aggregates {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
    }

    /// Order-independent merge: add counters/hists/span stats, max
    /// gauges.
    fn merge_from(&mut self, other: Aggregates) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            let g = self.gauges.entry(k).or_insert(0);
            *g = (*g).max(v);
        }
        for (k, h) in other.hists {
            self.hists.entry(k).or_default().merge_from(&h);
        }
        for (k, s) in other.spans {
            let t = self.spans.entry(k).or_default();
            t.count += s.count;
            t.total_ns += s.total_ns;
        }
    }
}

/// Runtime switch. Off by default: instrumented binaries stay inert
/// until someone calls [`enable`] (the `--obs` flag, a test, ...).
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The merged process-wide table.
static GLOBAL: Mutex<Aggregates> = Mutex::new(Aggregates::new());

fn lock_global() -> MutexGuard<'static, Aggregates> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A span-stack frame. `root` frames start a fresh trace: the path
/// recorded for spans above them ignores everything below, which is
/// what keeps per-task span paths identical whether the task runs on
/// a worker thread (empty ambient stack) or inline on the caller
/// (arbitrary ambient stack).
struct Frame {
    name: &'static str,
    root: bool,
}

struct ThreadBuf {
    agg: Aggregates,
    stack: Vec<Frame>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        let agg = std::mem::take(&mut self.agg);
        if !agg.is_empty() {
            lock_global().merge_from(agg);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            agg: Aggregates::new(),
            stack: Vec::new(),
        })
    };
}

/// Runs `f` on the thread buffer; silently drops the record during
/// TLS teardown (a metric lost at thread death is better than an
/// abort).
fn with_local<R: Default>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    LOCAL
        .try_with(|b| f(&mut b.borrow_mut()))
        .unwrap_or_default()
}

/// Turns recording on process-wide.
pub fn enable() {
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Turns recording off process-wide (already-buffered data survives
/// until [`reset`]).
pub fn disable() {
    ACTIVE.store(false, Ordering::SeqCst);
}

/// Is the runtime currently recording?
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Clears the global table and the calling thread's buffer. Call with
/// no other instrumented threads alive (e.g. between scoped parallel
/// sections); other threads' unflushed buffers cannot be reached and
/// would merge in later.
pub fn reset() {
    *lock_global() = Aggregates::new();
    with_local(|b| b.agg = Aggregates::new());
}

/// Merges the calling thread's buffer into the global table.
pub fn flush_thread() {
    with_local(|b| {
        let agg = std::mem::take(&mut b.agg);
        if !agg.is_empty() {
            lock_global().merge_from(agg);
        }
    });
}

/// Converts one aggregation table into a sorted snapshot (BTreeMap
/// iteration order is already the sort order).
fn to_snapshot(a: &Aggregates) -> ObsSnapshot {
    ObsSnapshot {
        counters: a
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        gauges: a.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        histograms: a
            .hists
            .iter()
            .map(|(k, h)| (k.to_string(), h.clone()))
            .collect(),
        spans: a
            .spans
            .iter()
            .map(|(k, s)| SpanEntry {
                path: k.clone(),
                count: s.count,
                total_ns: s.total_ns,
            })
            .collect(),
    }
}

/// Flushes the calling thread and snapshots the global table, sorted
/// by name/path.
pub fn snapshot() -> ObsSnapshot {
    flush_thread();
    to_snapshot(&lock_global())
}

/// In-flight request-scoped trace capture; see [`trace_begin`].
#[must_use = "finish() returns the captured trace"]
pub struct TraceGuard {
    baseline: Option<ObsSnapshot>,
}

/// Begins capturing everything the **calling thread** records between
/// now and [`TraceGuard::finish`] — the span tree and counters
/// attributable to the one piece of work (e.g. a daemon query) this
/// thread is about to run.
///
/// The capture is a baseline/delta over the thread-local buffer, so
/// it costs two local-table snapshots and no global locking, and
/// concurrent work on other threads never leaks into the trace. The
/// one caveat: calling [`flush_thread`] or [`snapshot`] *on the
/// capturing thread* mid-capture empties the local buffer and
/// truncates the trace (the delta saturates at zero) — flush after
/// `finish()`, not before.
pub fn trace_begin() -> TraceGuard {
    if !is_active() {
        return TraceGuard { baseline: None };
    }
    TraceGuard {
        baseline: Some(with_local(|b| to_snapshot(&b.agg))),
    }
}

impl TraceGuard {
    /// Ends the capture, returning only what this thread recorded
    /// since [`trace_begin`]. Empty when the runtime was off at begin.
    pub fn finish(self) -> ObsSnapshot {
        let Some(base) = self.baseline else {
            return ObsSnapshot::default();
        };
        let now = with_local(|b| to_snapshot(&b.agg));
        let mut d = now.delta_since(&base);
        // Gauges pass through delta_since as cumulative values; a
        // request trace has no meaningful high-water marks, drop them.
        d.gauges.clear();
        d
    }
}

/// [`snapshot`] when the runtime is recording, else `None`. The
/// sweep engine uses this so reports only embed telemetry when the
/// caller opted in.
pub fn snapshot_if_active() -> Option<ObsSnapshot> {
    if is_active() {
        Some(snapshot())
    } else {
        None
    }
}

// Every `record_*` splits into an `#[inline]` flag check and a
// `#[cold] #[inline(never)]` slow path. Call sites — some in hot
// numeric loops like the LU factorization — then inline only a
// relaxed load + branch; inlining the BTreeMap update code itself
// would bloat those loops and cost real time even with recording
// disabled (the `obs_overhead` gate measures exactly this).

/// Adds `n` to counter `name`.
#[inline]
pub fn record_counter(name: &'static str, n: u64) {
    if is_active() {
        counter_slow(name, n);
    }
}

#[cold]
#[inline(never)]
fn counter_slow(name: &'static str, n: u64) {
    with_local(|b| *b.agg.counters.entry(Cow::Borrowed(name)).or_insert(0) += n);
}

/// Adds `n` to a counter with a runtime-built name (e.g. a
/// per-fault-site label).
#[inline]
pub fn record_counter_owned(name: String, n: u64) {
    if is_active() {
        counter_owned_slow(name, n);
    }
}

#[cold]
#[inline(never)]
fn counter_owned_slow(name: String, n: u64) {
    with_local(|b| *b.agg.counters.entry(Cow::Owned(name)).or_insert(0) += n);
}

/// Raises gauge `name` to at least `v` (max-merge).
#[inline]
pub fn record_gauge_max(name: &'static str, v: u64) {
    if is_active() {
        gauge_slow(name, v);
    }
}

#[cold]
#[inline(never)]
fn gauge_slow(name: &'static str, v: u64) {
    with_local(|b| {
        let g = b.agg.gauges.entry(Cow::Borrowed(name)).or_insert(0);
        *g = (*g).max(v);
    });
}

/// Records `v` into histogram `name`.
#[inline]
pub fn record_histogram(name: &'static str, v: u64) {
    if is_active() {
        histogram_slow(name, v);
    }
}

#[cold]
#[inline(never)]
fn histogram_slow(name: &'static str, v: u64) {
    with_local(|b| {
        b.agg
            .hists
            .entry(Cow::Borrowed(name))
            .or_default()
            .record(v)
    });
}

/// RAII timer for one span. Created by [`span_enter`] /
/// [`span_enter_root`]; recording happens at drop.
pub struct SpanGuard {
    /// `None`: the runtime was off at enter — no frame was pushed,
    /// drop is a no-op. Crucially the disabled path never touches the
    /// clock: `Instant::now` can be a full syscall in sandboxed
    /// environments, which would make "disabled" spans measurably
    /// expensive (the `obs_overhead` gate caught exactly that).
    start: Option<Instant>,
}

#[inline]
fn enter(name: &'static str, root: bool) -> SpanGuard {
    if !is_active() {
        return SpanGuard { start: None };
    }
    enter_slow(name, root)
}

#[cold]
#[inline(never)]
fn enter_slow(name: &'static str, root: bool) -> SpanGuard {
    with_local(|b| b.stack.push(Frame { name, root }));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

/// Opens a span named `name` nested under the thread's current span
/// path.
#[inline]
pub fn span_enter(name: &'static str) -> SpanGuard {
    enter(name, false)
}

/// Opens a span that starts a **fresh trace root**: its recorded path
/// ignores any spans already open on this thread. Use for per-task
/// spans that must aggregate identically whether the task ran inline
/// or on a pool worker.
#[inline]
pub fn span_enter_root(name: &'static str) -> SpanGuard {
    enter(name, true)
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            span_close_slow(start);
        }
    }
}

#[cold]
#[inline(never)]
fn span_close_slow(start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    with_local(|b| {
        let Some(top) = b.stack.pop() else { return };
        // Path = frames since the innermost root (inclusive),
        // joined with ';', ending in the span being closed.
        let from = if top.root {
            b.stack.len()
        } else {
            b.stack.iter().rposition(|f| f.root).unwrap_or(0)
        };
        let mut path = String::new();
        for f in &b.stack[from..] {
            path.push_str(f.name);
            path.push(';');
        }
        path.push_str(top.name);
        let s = b.agg.spans.entry(path).or_default();
        s.count += 1;
        s.total_ns += ns;
    });
}

/// RAII session for tests and tools: takes the exclusive lock, resets the
/// registry, and enables recording; on drop, disables and resets again so
/// no telemetry leaks into the next session.
#[must_use = "recording stops when this guard drops"]
pub struct Session {
    _exclusive: MutexGuard<'static, ()>,
}

impl Session {
    /// Starts an exclusive recording session.
    pub fn start() -> Session {
        let guard = exclusive();
        reset();
        enable();
        Session { _exclusive: guard }
    }

    /// Snapshots the registry mid-session.
    pub fn snapshot(&self) -> ObsSnapshot {
        snapshot()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        disable();
        reset();
    }
}
