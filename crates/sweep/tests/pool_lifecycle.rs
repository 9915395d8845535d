//! The worker pool's lifecycle: its helper threads are spawned once and
//! reused, a call made from inside a pool call runs serially, concurrent
//! callers share the helpers, and a panicking item leaves its helper
//! serving.
//!
//! The checks count the process's OS threads, so they share one test in a
//! binary of their own: no other test can spawn threads meanwhile, and
//! they run in the order the counts assume.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use cyclesteal_sim::{parallel_map, parallel_map_isolated};
use cyclesteal_sweep::{run_points, GridSpec, SweepOptions};

/// The process's OS threads, from `/proc/self/task`.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("listing /proc/self/task")
        .count()
}

/// Items that meet in pairs: each waits (up to 10 s) until two items have
/// started, so a 2-item call completes quickly only when two threads work
/// it. Returns whether the meeting happened and the thread that ran it.
fn meet(arrived: &AtomicUsize) -> (bool, thread::ThreadId) {
    arrived.fetch_add(1, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    (arrived.load(Ordering::SeqCst) >= 2, thread::current().id())
}

/// Ends the process with a failure if the test is not done in `limit`: a
/// pool call that waits on its own helpers deadlocks, and this turns that
/// hang into a failed run. Dropping the returned sender stops the watch.
fn watchdog(limit: Duration) -> mpsc::Sender<()> {
    let (done, watch) = mpsc::channel::<()>();
    thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = watch.recv_timeout(limit) {
            eprintln!("pool_lifecycle: not done after {limit:?}; a pool call deadlocked");
            std::process::exit(1);
        }
    });
    done
}

#[test]
fn helpers_are_spawned_once_and_serve_every_call() {
    let _quiet = cyclesteal_xtest::fault::QuietPanics::install();
    // Spawned before the baseline count, so it is part of it.
    let _watch = watchdog(Duration::from_secs(120));
    let caller = thread::current().id();
    let base = os_threads();

    // Fifty 2-thread sweeps spawn one helper between them.
    let mut spec = GridSpec::analysis("pool_lifecycle", vec![0.3, 0.6, 0.9], vec![0.2, 0.5]);
    spec.policies = vec![cyclesteal_core::stability::Policy::CsCq];
    let points = spec.points();
    let (want, _) = run_points("pool_lifecycle", &points, &SweepOptions::threads(1));
    for _ in 0..50 {
        let (got, metrics) = run_points("pool_lifecycle", &points, &SweepOptions::threads(2));
        assert_eq!(got.to_json(), want.to_json());
        assert_eq!(metrics.batch.unique, points.len());
    }
    assert_eq!(os_threads(), base + 1, "one persistent helper");

    // A call inside a pool call runs serially: the 4-thread inner calls
    // return the serial map and spawn no helpers.
    let outer: Vec<u64> = (0..16).collect();
    let inner: Vec<u64> = (0..32).collect();
    let nested = parallel_map(&outer, 2, 1, |x| {
        parallel_map(&inner, 4, 1, |y| x * 1000 + y)
    });
    for (x, row) in outer.iter().zip(&nested) {
        let serial: Vec<u64> = inner.iter().map(|y| x * 1000 + y).collect();
        assert_eq!(row, &serial);
    }
    assert_eq!(os_threads(), base + 1, "nested calls spawn nothing");

    // An item that panics on the helper is isolated in its slot, and the
    // same helper serves the next call: its two items meet, so two
    // threads worked it.
    let arrived = AtomicUsize::new(0);
    let got = parallel_map_isolated(&[0u64, 1], 2, 1, |x| {
        let (met, on) = meet(&arrived);
        assert!(on == caller, "item {x} on the helper");
        (met, *x)
    });
    let (oks, errs): (Vec<_>, Vec<_>) = got.iter().partition(|r| r.is_ok());
    assert_eq!((oks.len(), errs.len()), (1, 1), "{got:?}");
    assert!(errs[0].as_ref().unwrap_err().contains("on the helper"));
    assert!(oks[0].as_ref().unwrap().0, "both items ran at once");
    let arrived = AtomicUsize::new(0);
    let got = parallel_map(&[0u64, 1], 2, 1, |x| (meet(&arrived), *x));
    assert!(
        got.iter().all(|((met, _), _)| *met),
        "the helper still serves"
    );
    assert_ne!(got[0].0 .1, got[1].0 .1, "two threads ran the items");
    assert_eq!(got.iter().map(|(_, x)| *x).collect::<Vec<_>>(), [0, 1]);
    assert_eq!(os_threads(), base + 1, "the helper was not replaced");

    // Two callers at 4 threads at once share the helpers (grown to 3)
    // and each gets its own results in input order.
    let start = Barrier::new(2);
    thread::scope(|s| {
        let callers: Vec<_> = (0..2u64)
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    let items: Vec<u64> = (0..500).map(|i| c * 1_000_000 + i).collect();
                    start.wait();
                    let got = parallel_map_isolated(&items, 4, 3, |x| x * 2);
                    let want: Vec<Result<u64, String>> = items.iter().map(|x| Ok(x * 2)).collect();
                    assert_eq!(got, want, "caller {c}");
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread");
        }
    });
    // A joined thread can stay listed for a moment after it exits.
    let deadline = Instant::now() + Duration::from_secs(2);
    while os_threads() > base + 3 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(os_threads(), base + 3, "three persistent helpers");
}
