//! Admission control: a bounded work queue with structured load-shedding,
//! and the one owner of the daemon's request accounting.
//!
//! The daemon never queues unboundedly. When the queue is full the client
//! gets an immediate, structured rejection carrying a *retry-after hint*
//! derived from the current backlog and an EWMA of recent service times —
//! the client can back off intelligently instead of guessing. A closed
//! queue (draining) sheds with a distinct reason so clients know not to
//! retry this instance at all.
//!
//! Every request count the daemon reports lives here and nowhere else:
//! admissions, completions, each shed reason (the connection cap's
//! included, through [`Admission::shed_inflight_cap`]) and the open or
//! draining state. `/metrics`, `/healthz` and `stats` all render one
//! [`Admission::snapshot`].
//!
//! # Accounting invariant
//!
//! Every count lives beside the queue, under its one mutex, and changes in
//! the same critical section as the queue change it accounts for: an admit
//! pushes the job and counts it, a dequeue pops jobs and claims them in
//! service, a completion counts the job done and drops its claim.
//! [`Admission::snapshot`] reads everything in one critical section, so
//! every snapshot satisfies `depth + in_service == admitted - completed`
//! exactly: a job admitted but not yet completed is always visible,
//! queued or claimed, and never counted twice. A health probe can never
//! watch the queue drain while the daemon "looks idle".

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity; retry after roughly this many ms.
    QueueFull {
        /// Backlog-derived backoff hint.
        retry_after_ms: u64,
    },
    /// The daemon is draining and accepts no new work.
    Draining,
    /// The job's connection already has its cap of queries in flight.
    InflightCap,
}

impl AdmitError {
    /// The shed reason on the wire and in the `svc_shed_total` label.
    pub fn reason(&self) -> &'static str {
        match self {
            AdmitError::QueueFull { .. } => "queue_full",
            AdmitError::Draining => "draining",
            AdmitError::InflightCap => "inflight_cap",
        }
    }
}

/// Sheds counted by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sheds {
    /// The queue was at capacity.
    pub queue_full: u64,
    /// The daemon was draining.
    pub draining: u64,
    /// The connection was at its in-flight cap.
    pub inflight_cap: u64,
}

impl Sheds {
    /// Sheds over every reason.
    pub fn total(&self) -> u64 {
        self.queue_full + self.draining + self.inflight_cap
    }
}

/// The queue and every count kept beside it (see the module docs).
struct Inner<T> {
    queue: VecDeque<T>,
    open: bool,
    sheds: Sheds,
    admitted: u64,
    completed: u64,
    /// Jobs dequeued by a worker but not yet completed.
    in_service: u64,
    /// Workers currently holding claimed jobs (claimed with the dequeue,
    /// released by `release_worker`).
    busy_workers: u64,
    /// EWMA of per-job service time in ns (`0` = no sample yet).
    ewma_service_ns: u64,
}

/// One consistent read of the admission accounting, taken by
/// [`Admission::snapshot`] in one critical section (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Jobs ever admitted to the queue.
    pub admitted: u64,
    /// Jobs currently queued, not yet claimed by a worker.
    pub depth: u64,
    /// Jobs claimed by workers and not yet completed.
    pub in_service: u64,
    /// Workers currently holding at least one claimed job.
    pub busy_workers: u64,
    /// Workers draining the queue: the pool size.
    pub workers: u64,
    /// Jobs completed by workers: every query answered, so this is also
    /// the daemon's served count.
    pub completed: u64,
    /// Jobs refused, by reason.
    pub sheds: Sheds,
    /// `false` once draining has begun.
    pub open: bool,
    /// EWMA of per-job service time in ns (`0` = no sample yet): the
    /// estimate that prices `retry_after_ms`.
    pub ewma_service_ns: u64,
}

/// A bounded MPMC job queue with admission accounting.
pub struct Admission<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    workers: u64,
}

impl<T> Admission<T> {
    /// A queue holding at most `capacity` jobs, drained by `workers`
    /// workers (the worker count scales the retry-after hint).
    pub fn new(capacity: usize, workers: usize) -> Self {
        Admission {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                open: true,
                sheds: Sheds::default(),
                admitted: 0,
                completed: 0,
                in_service: 0,
                busy_workers: 0,
                ewma_service_ns: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            workers: workers.max(1) as u64,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one shed under `err`'s reason.
    fn shed(inner: &mut Inner<T>, err: AdmitError) -> AdmitError {
        let s = &mut inner.sheds;
        let count = match err {
            AdmitError::QueueFull { .. } => &mut s.queue_full,
            AdmitError::Draining => &mut s.draining,
            AdmitError::InflightCap => &mut s.inflight_cap,
        };
        *count += 1;
        err
    }

    /// Admits `job` or sheds it with a structured reason.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Draining`] once [`Admission::close`] was called;
    /// [`AdmitError::QueueFull`] at capacity, with a retry hint.
    pub fn admit(&self, job: T) -> Result<(), AdmitError> {
        let mut inner = self.lock();
        if !inner.open {
            return Err(Self::shed(&mut inner, AdmitError::Draining));
        }
        if inner.queue.len() >= self.capacity {
            let retry_after_ms = self.retry_after_ms(&inner);
            return Err(Self::shed(
                &mut inner,
                AdmitError::QueueFull { retry_after_ms },
            ));
        }
        inner.queue.push_back(job);
        inner.admitted += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Sheds a job whose connection is at its in-flight cap, which the
    /// caller decides. Counted as `inflight_cap`, or as `draining` once
    /// the queue is closed, the reason [`Admission::admit`] would give.
    pub fn shed_inflight_cap(&self) -> AdmitError {
        let mut inner = self.lock();
        let err = if inner.open {
            AdmitError::InflightCap
        } else {
            AdmitError::Draining
        };
        Self::shed(&mut inner, err)
    }

    /// Blocks for work, then drains up to `max` queued jobs in one lock
    /// acquisition — the daemon's micro-batching seam. Returns the jobs
    /// in admission order; empty once the queue is closed *and* empty
    /// (workers drain the backlog before exiting).
    ///
    /// The worker-busy claim and the per-job in-service claims happen
    /// **inside** the same critical section that pops the jobs, so a
    /// concurrent [`Admission::snapshot`] never sees queue depth drop
    /// without the corresponding in-service work appearing. The caller
    /// must call [`Admission::release_worker`] after finishing the
    /// batch and [`Admission::record_service_ns`] once per job.
    pub fn next_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut inner = self.lock();
        loop {
            if !inner.queue.is_empty() {
                let n = inner.queue.len().min(max);
                let jobs: Vec<T> = inner.queue.drain(..n).collect();
                inner.in_service += n as u64;
                inner.busy_workers += 1;
                return jobs;
            }
            if !inner.open {
                return Vec::new();
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Releases the busy-worker claim taken by [`Admission::next_batch`].
    /// Called once per dequeue, after every job of the batch is finished.
    pub fn release_worker(&self) {
        let mut inner = self.lock();
        inner.busy_workers = inner.busy_workers.saturating_sub(1);
    }

    /// Stops admission and wakes every blocked worker. Already-queued jobs
    /// are still handed out. Returns `true` on the call that closed it.
    pub fn close(&self) -> bool {
        let was_open = std::mem::replace(&mut self.lock().open, false);
        self.ready.notify_all();
        was_open
    }

    /// Marks one claimed job complete and feeds its service time into the
    /// EWMA (`new = (7·old + sample) / 8`, seeded by the **whole** first
    /// sample so the very first retry hint already prices one full
    /// service time instead of an 8×-too-cheap warm-up estimate).
    pub fn record_service_ns(&self, ns: u64) {
        let mut inner = self.lock();
        inner.completed += 1;
        inner.in_service = inner.in_service.saturating_sub(1);
        let old = inner.ewma_service_ns;
        inner.ewma_service_ns = if old == 0 {
            ns.max(1)
        } else {
            (old / 8).saturating_mul(7).saturating_add(ns / 8).max(1)
        };
    }

    /// The backoff hint for a client seeing a full queue: the backlog's
    /// expected drain time across the worker pool, floored at 1 ms so
    /// clients never busy-spin.
    fn retry_after_ms(&self, inner: &Inner<T>) -> u64 {
        let ewma = inner.ewma_service_ns;
        if ewma == 0 {
            return 1;
        }
        let drain_ns = (inner.queue.len() as u64).saturating_mul(ewma) / self.workers;
        (drain_ns / 1_000_000).max(1)
    }

    /// One consistent snapshot of every count, read in one critical
    /// section: `depth + in_service == admitted - completed` holds
    /// exactly, however admits, dequeues and completions interleave.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let inner = self.lock();
        AdmissionSnapshot {
            admitted: inner.admitted,
            depth: inner.queue.len() as u64,
            in_service: inner.in_service,
            busy_workers: inner.busy_workers,
            workers: self.workers,
            completed: inner.completed,
            sheds: inner.sheds,
            open: inner.open,
            ewma_service_ns: inner.ewma_service_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admits_until_capacity_then_sheds_with_a_hint() {
        let q = Admission::new(2, 1);
        q.record_service_ns(4_000_000); // 4 ms EWMA seed
        assert!(q.admit(1).is_ok());
        assert!(q.admit(2).is_ok());
        match q.admit(3) {
            Err(AdmitError::QueueFull { retry_after_ms }) => {
                // 2 queued × 4 ms / 1 worker = 8 ms.
                assert_eq!(retry_after_ms, 8);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let s = q.snapshot();
        assert_eq!((s.admitted, s.sheds.queue_full, s.sheds.total()), (2, 1, 1));
    }

    #[test]
    fn every_shed_reason_is_counted_where_it_is_decided() {
        let q = Admission::new(1, 1);
        q.admit(1).unwrap();
        assert!(matches!(q.admit(2), Err(AdmitError::QueueFull { .. })));
        assert_eq!(q.shed_inflight_cap(), AdmitError::InflightCap);
        assert!(q.close());
        assert!(!q.close(), "only the closing call reports it");
        assert_eq!(q.admit(3), Err(AdmitError::Draining));
        // Once closed, a capped connection's query sheds as draining too.
        assert_eq!(q.shed_inflight_cap(), AdmitError::Draining);
        let s = q.snapshot();
        let want = Sheds {
            queue_full: 1,
            draining: 2,
            inflight_cap: 1,
        };
        assert_eq!((s.sheds, s.sheds.total()), (want, 4));
        assert_eq!((s.admitted, s.depth, s.open), (1, 1, false));
    }

    #[test]
    fn hint_floors_at_one_ms_without_samples() {
        let q = Admission::new(1, 4);
        q.admit(()).unwrap();
        match q.admit(()) {
            Err(AdmitError::QueueFull { retry_after_ms }) => assert_eq!(retry_after_ms, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn first_sample_seeds_the_whole_service_time_into_the_first_hint() {
        // Regression for the warm-up bug class where the first sample is
        // folded in at 1/8 EWMA weight: the very first shed hint must
        // already price one whole observed service time, not ns/8.
        let q = Admission::new(1, 1);
        q.record_service_ns(8_000_000); // one 8 ms observation, nothing else
        assert_eq!(
            q.snapshot().ewma_service_ns,
            8_000_000,
            "EWMA must seed at full weight"
        );
        q.admit(()).unwrap();
        match q.admit(()) {
            Err(AdmitError::QueueFull { retry_after_ms }) => {
                // depth 1 × 8 ms / 1 worker: the hint prices the full
                // first service time.
                assert_eq!(retry_after_ms, 8);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn sub_millisecond_backlog_never_hints_zero() {
        // depth 1 × 0.2 ms / 1 worker rounds to 0 ms in integer math; a
        // zero hint would tell shed clients to hammer a saturated daemon
        // immediately. The hint must clamp to >= 1 ms.
        let q = Admission::new(1, 1);
        q.record_service_ns(200_000); // 0.2 ms: a fast, warmed-up service
        q.admit(()).unwrap();
        match q.admit(()) {
            Err(AdmitError::QueueFull { retry_after_ms }) => {
                assert!(
                    retry_after_ms >= 1,
                    "hint must never be 0, got {retry_after_ms}"
                );
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn next_batch_drains_up_to_max_in_admission_order() {
        let q = Admission::new(8, 1);
        for i in 0..5 {
            q.admit(i).unwrap();
        }
        let batch = q.next_batch(3);
        assert_eq!(batch, vec![0, 1, 2]);
        let rest = q.next_batch(16);
        assert_eq!(rest, vec![3, 4], "a short queue drains whole");
        q.close();
        assert!(
            q.next_batch(4).is_empty(),
            "closed and empty ends the worker"
        );
    }

    #[test]
    fn claimed_work_is_never_invisible_to_snapshots() {
        let q = Admission::new(16, 2);
        for i in 0..6 {
            q.admit(i).unwrap();
        }
        let check = |q: &Admission<i32>, note: &str| {
            let s = q.snapshot();
            assert_eq!(
                s.depth + s.in_service,
                s.admitted - s.completed,
                "{note}: {s:?} miscounts admitted-but-unfinished work"
            );
            s
        };
        let s = check(&q, "all queued");
        assert_eq!((s.depth, s.in_service, s.busy_workers), (6, 0, 0));

        // The pop and the claims are one critical section: right after
        // next_batch returns, the jobs have moved columns, not vanished.
        let batch = q.next_batch(4);
        assert_eq!(batch.len(), 4);
        let s = check(&q, "batch claimed");
        assert_eq!((s.depth, s.in_service, s.busy_workers), (2, 4, 1));

        q.record_service_ns(1_000_000);
        let s = check(&q, "one completed");
        assert_eq!((s.depth, s.in_service, s.completed), (2, 3, 1));

        for _ in 1..4 {
            q.record_service_ns(1_000_000);
        }
        q.release_worker();
        let s = check(&q, "batch finished");
        assert_eq!((s.in_service, s.busy_workers, s.completed), (0, 0, 4));
    }

    /// Snapshots taken while a producer admits and two workers drain and
    /// complete always balance: every admitted job is queued, in service
    /// or completed, and in exactly one of them.
    #[test]
    fn snapshots_under_concurrent_traffic_always_balance() {
        const JOBS: u64 = 20_000;
        let q = Admission::new(64, 2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut sent = 0;
                while sent < JOBS {
                    if q.admit(sent).is_ok() {
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                q.close();
            });
            for _ in 0..2 {
                s.spawn(|| loop {
                    let jobs = q.next_batch(4);
                    if jobs.is_empty() {
                        break;
                    }
                    for _ in jobs {
                        q.record_service_ns(1_000);
                    }
                    q.release_worker();
                });
            }
            loop {
                let s = q.snapshot();
                assert_eq!(
                    s.depth + s.in_service + s.completed,
                    s.admitted,
                    "{s:?} does not balance"
                );
                if !s.open && s.completed == JOBS {
                    break;
                }
            }
        });
    }

    #[test]
    fn close_drains_the_backlog_then_releases_workers() {
        let q = Arc::new(Admission::new(8, 2));
        q.admit(10).unwrap();
        q.admit(11).unwrap();
        q.close();
        assert!(matches!(q.admit(12), Err(AdmitError::Draining)));
        // Queued jobs still come out, then None.
        assert_eq!(q.next_batch(1).pop(), Some(10));
        assert_eq!(q.next_batch(1).pop(), Some(11));
        assert_eq!(q.next_batch(1).pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_admit_and_on_close() {
        let q = Arc::new(Admission::<u32>::new(4, 2));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let first = q2.next_batch(1).pop();
            let second = q2.next_batch(1).pop();
            (first, second)
        });
        // Give the consumer a moment to block, then feed and close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.admit(99).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        let (first, second) = consumer.join().unwrap();
        assert_eq!(first, Some(99));
        assert_eq!(second, None);
    }

    #[test]
    fn ewma_tracks_recent_service_times() {
        let q = Admission::<()>::new(1, 1);
        q.record_service_ns(8_000_000);
        for _ in 0..50 {
            q.record_service_ns(1_000_000);
        }
        let ewma = q.snapshot().ewma_service_ns;
        assert!(
            (900_000..2_000_000).contains(&ewma),
            "EWMA should converge toward the recent 1 ms samples, got {ewma}"
        );
    }
}
