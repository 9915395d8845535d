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
//! A job admitted but not yet completed is *always* visible to probes: it
//! is either still queued (`depth`) or claimed by a worker
//! (`in_service`). The claim happens **inside** the dequeue's critical
//! section — there is no instant where a popped job has left the queue
//! but not yet been counted in service, so a health probe can never
//! watch the queue drain while the daemon "looks idle". [`Admission::snapshot`]
//! reads the counters in an order that preserves the
//! `depth + in_service >= admitted - completed` direction under
//! concurrent admits and completions.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
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

struct Inner<T> {
    queue: VecDeque<T>,
    open: bool,
    /// Counted under the lock that decides them.
    sheds: Sheds,
}

/// One consistent read of the admission accounting, taken by
/// [`Admission::snapshot`] in race-safe order (see the module docs).
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
    /// EWMA of per-job service time in ns (`0` = no sample yet).
    ewma_service_ns: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    /// Jobs dequeued by a worker but not yet completed. Incremented inside
    /// the dequeue critical section, decremented by `record_service_ns`
    /// *after* `completed` — both orderings keep a concurrent snapshot
    /// from undercounting live work.
    in_service: AtomicU64,
    /// Workers currently holding claimed jobs (claimed with the dequeue,
    /// released by `release_worker`).
    busy_workers: AtomicU64,
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
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            workers: workers.max(1) as u64,
            ewma_service_ns: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            in_service: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
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
            let retry_after_ms = self.retry_after_ms(inner.queue.len() as u64);
            return Err(Self::shed(&mut inner, AdmitError::QueueFull { retry_after_ms }));
        }
        inner.queue.push_back(job);
        drop(inner);
        // After the push: a snapshot reading `admitted` first and `depth`
        // second can only over-estimate live work, never under-estimate.
        self.admitted.fetch_add(1, Ordering::SeqCst);
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
    /// without the corresponding in-service work appearing — the fix for
    /// the probe race where a saturated daemon scraped as idle. The
    /// caller must call [`Admission::release_worker`] after finishing the
    /// batch and [`Admission::record_service_ns`] once per job.
    pub fn next_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut inner = self.lock();
        loop {
            if !inner.queue.is_empty() {
                let n = inner.queue.len().min(max);
                let jobs: Vec<T> = inner.queue.drain(..n).collect();
                // Claimed while still holding the queue lock: any probe
                // that no longer sees these jobs in `depth` already sees
                // them in `in_service`.
                self.in_service.fetch_add(n as u64, Ordering::SeqCst);
                self.busy_workers.fetch_add(1, Ordering::SeqCst);
                return jobs;
            }
            if !inner.open {
                return Vec::new();
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Releases the busy-worker claim taken by [`Admission::next_batch`].
    /// Called once per dequeue, after every job of the batch is finished.
    pub fn release_worker(&self) {
        self.busy_workers.fetch_sub(1, Ordering::SeqCst);
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
    ///
    /// `completed` is incremented *before* the in-service claim is
    /// dropped: a snapshot between the two sees the job on both sides
    /// (overcounting live work), never on neither.
    pub fn record_service_ns(&self, ns: u64) {
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.in_service.fetch_sub(1, Ordering::SeqCst);
        let _ = self
            .ewma_service_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(if old == 0 {
                    ns.max(1)
                } else {
                    (old / 8).saturating_mul(7).saturating_add(ns / 8).max(1)
                })
            });
    }

    /// The backoff hint for a client seeing a full queue of `depth` jobs:
    /// the backlog's expected drain time across the worker pool, floored
    /// at 1 ms so clients never busy-spin.
    fn retry_after_ms(&self, depth: u64) -> u64 {
        let ewma = self.ewma_service_ns.load(Ordering::Relaxed);
        if ewma == 0 {
            return 1;
        }
        let drain_ns = depth.saturating_mul(ewma) / self.workers;
        (drain_ns / 1_000_000).max(1)
    }

    /// One probe-consistent load snapshot. The read order is load-bearing:
    /// `admitted` first, then queue depth (under the lock), then
    /// `in_service`, then `completed` last. Together with the write
    /// orderings (push before `admitted`, claims inside the dequeue lock,
    /// `completed` before the in-service release) this guarantees
    /// `depth + in_service >= admitted - completed` for every snapshot,
    /// no matter how admits, dequeues, and completions interleave — a
    /// probe can overcount a job mid-handoff, but admitted-unfinished
    /// work is never invisible.
    ///
    /// The shed counts and the open flag are read with the depth, under
    /// the queue lock that decides them.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let admitted = self.admitted.load(Ordering::SeqCst);
        let (depth, sheds, open) = {
            let inner = self.lock();
            (inner.queue.len() as u64, inner.sheds, inner.open)
        };
        let in_service = self.in_service.load(Ordering::SeqCst);
        let busy_workers = self.busy_workers.load(Ordering::SeqCst);
        let completed = self.completed.load(Ordering::SeqCst);
        AdmissionSnapshot {
            admitted,
            depth,
            in_service,
            busy_workers,
            workers: self.workers,
            completed,
            sheds,
            open,
            ewma_service_ns: self.ewma_service_ns.load(Ordering::Relaxed),
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
        assert_eq!(q.snapshot().ewma_service_ns, 8_000_000, "EWMA must seed at full weight");
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
                assert!(retry_after_ms >= 1, "hint must never be 0, got {retry_after_ms}");
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
        assert!(q.next_batch(4).is_empty(), "closed and empty ends the worker");
    }

    #[test]
    fn claimed_work_is_never_invisible_to_snapshots() {
        let q = Admission::new(16, 2);
        for i in 0..6 {
            q.admit(i).unwrap();
        }
        let check = |q: &Admission<i32>, note: &str| {
            let s = q.snapshot();
            assert!(
                s.depth + s.in_service >= s.admitted - s.completed,
                "{note}: {s:?} undercounts admitted-but-unfinished work"
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
        let ewma = q.ewma_service_ns.load(Ordering::Relaxed);
        assert!(
            (900_000..2_000_000).contains(&ewma),
            "EWMA should converge toward the recent 1 ms samples, got {ewma}"
        );
    }
}
