//! A persistent chunked work-stealing worker pool on `std::thread` — the
//! shared parallel substrate for simulator replications (this crate),
//! scenario sweeps and the sweep's presolve (`cyclesteal-sweep`), with no
//! external dependencies.
//!
//! The helper threads are spawned when a call first needs them and then
//! live for the life of the process: a call at `threads` workers grows the
//! pool to `threads − 1` helpers and keeps them, and the calling thread
//! works as worker 0. A helper's thread-locals (a solver workspace, the
//! allocator's arena) therefore stay warm from one call to the next.
//! Each helper takes jobs from a channel of its own; one job is one
//! helper's share of one call, and it ends by flushing the helper's
//! telemetry buffer (`obs::flush_thread`), so a snapshot taken after the
//! call sees every record it made.
//!
//! Work is claimed in chunks off a shared atomic cursor (cheap dynamic load
//! balancing: a worker stuck on an expensive item doesn't strand the rest
//! of its static share), results flow back over a channel tagged with their
//! input index, and the output is reassembled **in input order** — so the
//! result of [`parallel_map`] is a pure function of `(items, f)`,
//! independent of thread count and scheduling.
//!
//! A call made from inside a pool call (by an item running on a helper or
//! on the calling thread) runs serially on its thread: it never waits on
//! helpers that may be busy with the call around it.
//!
//! [`parallel_map_isolated`] is the panic-isolating primitive underneath:
//! each item runs under `catch_unwind`, a panicking item yields
//! `Err(message)` in its slot, and the worker keeps draining the queue —
//! one poisoned task cannot abort the batch, silently drop other results
//! or take a helper down. [`parallel_map`] is the strict wrapper that
//! re-raises the first (input-order) panic after every worker has
//! finished.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// One helper's share of one pool call.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The job channels of the pool's helper threads, in helper order.
static HELPERS: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

thread_local! {
    /// Whether this thread is working a pool call: always on a helper, and
    /// on a caller for the length of its call. A call made while it is set
    /// runs serially.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawns helper `index`, which runs the jobs sent on the returned channel
/// until the process ends; `None` when the OS refuses a thread.
fn spawn_helper(index: usize) -> Option<Sender<Job>> {
    let (tx, rx) = mpsc::channel::<Job>();
    thread::Builder::new()
        .name(format!("cyclesteal-pool-{index}"))
        .spawn(move || {
            IN_POOL.with(|flag| flag.set(true));
            for job in rx {
                job();
            }
        })
        .ok()?;
    Some(tx)
}

/// Counts the helper jobs of one call that have not been dropped yet.
#[derive(Default)]
struct Latch {
    pending: Mutex<usize>,
    zero: Condvar,
}

/// A helper job's hold on its call's [`Latch`], released when the job is
/// dropped: after it ran, while it unwinds, or unrun.
struct Hold(Arc<Latch>);

impl Drop for Hold {
    fn drop(&mut self) {
        let mut pending = lock(&self.0.pending);
        *pending -= 1;
        if *pending == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// The calling thread's side of one call. Dropping it, on return or while
/// unwinding, waits until every hold on the latch is released and then
/// clears the caller's [`IN_POOL`] flag.
struct Call(Arc<Latch>);

impl Drop for Call {
    fn drop(&mut self) {
        let mut pending = lock(&self.0.pending);
        while *pending > 0 {
            pending = self
                .0
                .zero
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
        IN_POOL.with(|flag| flag.set(false));
    }
}

/// Runs `work` on the calling thread and on `helpers` pool helpers at
/// once, growing the pool to `helpers` threads if it is smaller, and
/// returns once every helper's copy has returned. If the OS refuses a
/// thread, the call goes ahead on the helpers there are.
fn run_on_pool(helpers: usize, work: &(dyn Fn() + Sync)) {
    let call = Call(Arc::new(Latch::default()));
    IN_POOL.with(|flag| flag.set(true));
    // SAFETY: the jobs below are the only users of `shared`, and each
    // holds the latch until it is dropped: after `shared()` returns, while
    // it unwinds, or without ever running (a failed send). `call` was
    // created before any job went out, so it is dropped before this
    // function returns or finishes unwinding, and its drop blocks until
    // every hold is released. No job can therefore call `shared` after
    // `work`'s borrow ends.
    let shared: &'static (dyn Fn() + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync + 'static)>(work)
    };
    {
        let mut senders = lock(&HELPERS);
        while senders.len() < helpers {
            let Some(tx) = spawn_helper(senders.len() + 1) else {
                break;
            };
            senders.push(tx);
        }
        for tx in senders.iter().take(helpers) {
            *lock(&call.0.pending) += 1;
            let hold = Hold(Arc::clone(&call.0));
            let job: Job = Box::new(move || {
                shared();
                cyclesteal_obs::flush_thread();
                drop(hold);
            });
            // Items cannot take a helper down, so its channel stays open;
            // were it closed, the unsent job would drop its hold and the
            // calling thread would claim the helper's share.
            let _ = tx.send(job);
        }
    }
    work();
    drop(call);
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!("...")` carries `&str` or `String`; anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_isolated<T, R>(item: &T, f: &(impl Fn(&T) -> R + Sync)) -> Result<R, String> {
    cyclesteal_obs::counter!("sim.pool.tasks");
    let out = panic::catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    if out.is_err() {
        cyclesteal_obs::counter!("sim.pool.panics_isolated");
    }
    out
}

/// Maps `f` over `items` on `threads` workers — the calling thread and
/// `threads − 1` pool helpers — with **per-item panic isolation**,
/// returning `Ok(result)` or `Err(panic message)` per item, in input
/// order. `chunk` is the number of items a worker claims at a time
/// (clamped to at least 1). With `threads <= 1`, a single item, or a
/// call from inside a pool call, this degrades to a serial map on the
/// calling thread — still isolated.
///
/// A panicking item never takes its worker down: the unwind is caught at
/// the item boundary, recorded in that item's slot, and the worker moves
/// on to the next chunk. Determinism: the output depends only on
/// `(items, f)`; thread count, chunk size, and scheduling affect
/// wall-clock time only.
///
/// `f` is re-entered after a caught panic, so any state it shares across
/// items must tolerate a torn invocation (the `AssertUnwindSafe` here is
/// the caller's contract, matching `std::thread`'s own behavior of
/// continuing after a worker panic).
///
/// # Examples
///
/// ```
/// let got = cyclesteal_sim::parallel_map_isolated(&[1u64, 0, 3], 2, 1, |x| {
///     assert!(*x != 0, "zero is not allowed");
///     100 / x
/// });
/// assert_eq!(got[0], Ok(100));
/// assert!(got[1].as_ref().unwrap_err().contains("zero is not allowed"));
/// assert_eq!(got[2], Ok(33));
/// ```
pub fn parallel_map_isolated<T, R, F>(
    items: &[T],
    threads: usize,
    chunk: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let chunk = chunk.max(1);
    let workers = threads.min(n).max(1);
    // Batch size and worker counts are *gauges* (max-merged, timing-class):
    // they describe the schedule, which varies with thread count, so they
    // must stay out of the deterministic count-metrics. Per-item counters
    // live in `run_isolated`, whose totals depend only on `(items, f)`.
    cyclesteal_obs::gauge_max!("sim.pool.queue_hwm", n as u64);
    if workers <= 1 || IN_POOL.with(Cell::get) {
        return items.iter().map(|item| run_isolated(item, &f)).collect();
    }
    cyclesteal_obs::gauge_max!("sim.pool.workers_hwm", workers as u64);
    let fair_share = n.div_ceil(workers) as u64;

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    run_on_pool(workers - 1, &|| {
        let mut chunks_claimed = 0u64;
        let mut executed = 0u64;
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            chunks_claimed += 1;
            let end = (start + chunk).min(n);
            for (offset, item) in items[start..end].iter().enumerate() {
                executed += 1;
                // The receiver outlives every worker: a send cannot fail.
                let _ = tx.send((start + offset, run_isolated(item, &f)));
            }
        }
        cyclesteal_obs::gauge_max!("sim.pool.chunks_claimed_hwm", chunks_claimed);
        cyclesteal_obs::gauge_max!(
            "sim.pool.tasks_stolen_hwm",
            executed.saturating_sub(fair_share)
        );
    });
    drop(tx);

    let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect()
}

/// Maps `f` over `items` on `threads` worker threads, returning results in
/// input order. `chunk` is the number of items a worker claims at a time
/// (clamped to at least 1). With `threads <= 1` (or a single item) this
/// degrades to a plain serial map on the calling thread.
///
/// Determinism: the output vector depends only on `items` and `f`; thread
/// count, chunk size, and OS scheduling affect wall-clock time only.
///
/// # Panics
///
/// Re-raises the first (in input order) panic from `f` after all items
/// have run — use [`parallel_map_isolated`] to keep panicking items as
/// per-slot errors instead.
///
/// # Examples
///
/// ```
/// let squares = cyclesteal_sim::parallel_map(&[1u64, 2, 3, 4], 8, 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_isolated(items, threads, chunk, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(message) => panic!("worker task panicked: {message}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 8] {
            for chunk in [1, 7, 64, 1000] {
                let got = parallel_map(&items, threads, chunk, |x| x * 3 + 1);
                assert_eq!(got, serial, "threads={threads}, chunk={chunk}");
            }
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 8, 4, |x| *x).is_empty());
        assert_eq!(parallel_map(&[42u32], 8, 4, |x| *x + 1), vec![43]);
    }

    #[test]
    fn chunk_zero_is_clamped() {
        let items: Vec<usize> = (0..10).collect();
        let got = parallel_map(&items, 4, 0, |x| *x);
        assert_eq!(got, items);
    }

    #[test]
    fn uneven_item_costs_still_complete() {
        // Items with wildly different costs exercise the stealing cursor.
        let items: Vec<u64> = (0..40).collect();
        let got = parallel_map(&items, 4, 1, |x| {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            let mut acc = *x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (*x, acc)
        });
        for (i, (x, _)) in got.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn panicking_task_mid_queue_is_isolated() {
        let _quiet = cyclesteal_xtest::fault::QuietPanics::install();
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let got = parallel_map_isolated(&items, threads, 3, |x| {
                if *x == 37 {
                    panic!("boom at item {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len(), "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                if i == 37 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("boom at item 37"), "threads={threads}: {msg}");
                } else {
                    assert_eq!(*r, Ok(i as u64 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn several_panics_do_not_starve_the_pool() {
        let _quiet = cyclesteal_xtest::fault::QuietPanics::install();
        // More panicking items than workers: every worker survives at
        // least one unwind and keeps draining.
        let items: Vec<u64> = (0..64).collect();
        let got = parallel_map_isolated(&items, 4, 1, |x| {
            assert!(x % 5 != 0, "multiple of five");
            *x
        });
        let (errs, oks): (Vec<_>, Vec<_>) = got.iter().partition(|r| r.is_err());
        assert_eq!(errs.len(), 13); // 0, 5, ..., 60
        assert_eq!(oks.len(), 51);
    }

    #[test]
    fn strict_map_repanics_with_the_message() {
        let _quiet = cyclesteal_xtest::fault::QuietPanics::install();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&[1u64, 2, 3], 2, 1, |x| {
                if *x == 2 {
                    panic!("strict mode must not swallow this");
                }
                *x
            })
        });
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("strict mode must not swallow this"), "{msg}");
    }
}
