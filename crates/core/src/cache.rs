//! A moment-keyed memo cache for the expensive sub-solves of the CS-CQ
//! analysis, shared safely across threads.
//!
//! Scenario sweeps (the `cyclesteal-sweep` engine, the figure harnesses)
//! evaluate thousands of nearby parameter points, and large parts of the
//! work repeat verbatim: the `B_L` and `B_{N+1}` busy-period fits depend
//! only on `(λ_L, long moments, μ_S)` — constant along a whole `ρ_S`
//! sweep — and identical grid points (re-runs, overlapping grids) repeat
//! the entire QBD `R`-matrix iteration. [`SolveCache`] memoizes two
//! layers:
//!
//! 1. **Coxian moment fits** (`dist::match3`), keyed by the bit pattern of
//!    the target moment triple and the fit order;
//! 2. **whole CS-CQ reports**, keyed by the [`ReportKey`] of the question
//!    they answer.
//!
//! One memo per question: every cached chain has Poisson arrivals at the
//! snapped `λ_S` (see `cs_cq_km`), so its report is a pure function of
//! its key, and the cached analysis builds and solves a chain only on a
//! report miss. The presolve files its answers in the same layer, through
//! the same cached analysis, so the evaluation that follows is a report
//! hit. [`SolveCache::seed_qbd_solution`] files a report read off a
//! solution of a planned chain instead; the benchmark harness in
//! `perfbench/` and tests call it.
//!
//! # Drain scopes versus the sweep memo
//!
//! A sweep keeps one cache for its whole run: both layers live as long as
//! the sweep, so overlapping points share fits and reports, and the
//! sweep's hit/miss counts are exact functions of its grid.
//!
//! A long-lived daemon cannot keep every fit it ever made. Only the report
//! is ever served or persisted, so the daemon answers each drained batch
//! of queries through a [`SolveCache::scope`]: a cache that shares the
//! long-lived report layer and its counters, and owns a fresh fit layer
//! and a journal of the reports it computed or presolved, which the
//! worker writes to its WAL. The worker drops the scope once the drain is
//! answered, so at most one drain's fits per worker are alive at any
//! time. Dropping a scope folds its counts into the shared totals, so
//! [`SolveCache::stats`] keeps counting both layers. A root cache
//! journals nothing, so a sweep keeps no copy of its reports. A scope
//! miss recomputes the same bits a long-lived entry would have held (see
//! below), so scoping moves memory, never answers.
//!
//! # One recency order for the bound
//!
//! Only the report layer can be bounded (`--cache-capacity` on the
//! daemon). Its LRU order is one queue of `(tick, key)` touches kept for
//! the cache's whole life: a serving lookup and a restart restore stamp,
//! insert and evict through the same code, so a miss on a full layer and
//! a restore past the bound each cost O(1) amortized, never a scan of the
//! map. Unbounded layers keep no queue.
//!
//! # Why determinism survives parallelism
//!
//! Every cached value is a **pure function of its key**: inputs are
//! *snapped* to the quantization grid ([`quantize`]) before any
//! computation, so whichever thread populates an entry first computes
//! exactly the value every other thread would have computed. Sweep results
//! are therefore bit-identical regardless of thread count, scheduling, or
//! input order — the property `crates/sweep/tests/determinism.rs` locks
//! in.
//!
//! # Once-per-key compute, deterministic hit/miss counts
//!
//! Each layer is a `Memo`: the first thread to ask for a key becomes its
//! *designated computer* and every concurrent asker blocks on the entry's
//! condvar until the value is ready. This upgrades the determinism story
//! from "same *values* at any thread count" to "same *telemetry* at any
//! thread count": a successful key is computed (and counted as a miss)
//! exactly once no matter how many threads race for it, so the per-family
//! hit/miss counters surfaced through `cyclesteal-obs` are bit-identical
//! across 1/2/8 worker threads. Errors are never cached — each caller
//! recomputes (and re-counts) the same deterministic error — and a
//! designated computer that *panics* marks the slot poisoned so waiting
//! threads recover by recomputing (counted in
//! [`CacheStats::poison_recoveries`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cyclesteal_dist::match3::MatchQuality;
use cyclesteal_dist::{Moments3, Ph};
use cyclesteal_markov::QbdSolution;
use cyclesteal_obs as obs;

use crate::cs_cq::CsCqReport;
use crate::AnalysisError;

pub use crate::cs_cq_km::PlannedChain;

/// Process-wide count of chain-signature hashes. Nothing on the analysis,
/// sweep or serving path hashes a chain; the count is the instrument the
/// serving gates read to prove it stays zero.
pub use cyclesteal_markov::qbd::signatures_hashed;

/// Snaps `x` onto the cache's quantization grid by zeroing the low 12
/// mantissa bits — a relative perturbation below `2⁻⁴⁰ ≈ 10⁻¹²`, far
/// inside every tolerance the analysis is validated to. Two inputs closer
/// than the grid spacing share cache entries *and produce bit-identical
/// results*, because the solver runs on the snapped value, not the
/// original.
pub fn quantize(x: f64) -> f64 {
    if x.is_finite() {
        f64::from_bits(x.to_bits() & !0xFFFu64)
    } else {
        x
    }
}

/// Running counters of a [`SolveCache`], for observability (sweep engines
/// surface these per run). With the once-per-key protocol these are
/// deterministic: a successful key misses exactly once process-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (both layers combined).
    pub hits: u64,
    /// Lookups that had to compute and insert.
    pub misses: u64,
    /// Lookups that found a slot abandoned by a panicking computer and
    /// recovered by recomputing (zero unless a fault was injected).
    pub poison_recoveries: u64,
    /// Entries evicted by the LRU bound (zero for an unbounded cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Adds another layer's or cache's counts.
    fn add(&mut self, o: CacheStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.poison_recoveries += o.poison_recoveries;
        self.evictions += o.evictions;
    }

    /// Hit fraction in `[0, 1]` (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type FitKey = (u64, u64, u64, u8);
/// The key of one question: quantized workload bits, fit tag, and the
/// `(k, m)` host counts. It keys the question's report. The host counts
/// are exact integers — never quantized — so two scenarios differing only
/// in fleet shape cannot collide; the paper's 2-host system is the
/// `(1, 1)` key.
///
/// Public because the persistence layer (`cyclesteal-svc`'s durable WAL)
/// serializes report entries by this key; the key is plain bits, so the
/// on-disk format is exactly as deterministic as the cache itself.
pub type ReportKey = ([u64; 6], u8, (u32, u32));

/// Locks a mutex, riding through poisoning. Memo state transitions are
/// single statements guarded by their own protocol (see [`Memo`]), so a
/// map abandoned by a panicking worker (the sweep engine catches
/// per-point panics) is still consistent; propagating the poison would
/// cascade one caught panic into every later lookup.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One memo entry's lifecycle. `Pending` while the designated computer
/// runs; terminal states notify the condvar.
enum SlotState<V> {
    /// The designated computer is running.
    Pending,
    /// Value available; waiters clone it and count a hit.
    Ready(V),
    /// The computer finished with an error. The entry is already removed
    /// from the map; waiters retry (recomputing the same deterministic
    /// error themselves, so errors are never served stale).
    Failed,
    /// The computer panicked. The entry is already removed; waiters
    /// count a poison recovery and retry.
    Poisoned,
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    cv: Condvar,
}

impl<V> Slot<V> {
    fn new(state: SlotState<V>) -> Self {
        Slot {
            state: Mutex::new(state),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, state: SlotState<V>) {
        *lock(&self.state) = state;
        self.cv.notify_all();
    }
}

/// A map entry: the compute slot plus the logical timestamp of its most
/// recent touch (insert or hit), which the LRU bound evicts by.
struct MemoEntry<V> {
    slot: Arc<Slot<V>>,
    last_used: u64,
}

/// Everything a [`Memo`]'s one lock guards: the entries, the logical
/// clock that stamps them, and the recency queue the LRU bound evicts
/// from.
struct Table<K, V> {
    entries: HashMap<K, MemoEntry<V>>,
    /// The next touch's timestamp.
    tick: u64,
    /// One `(tick, key)` pair per touch of a bounded memo, oldest first;
    /// always empty when unbounded. A pair whose tick is no longer its
    /// key's `last_used` (the key was touched again, evicted, or its
    /// compute failed) is stale: eviction drops it, and [`Table::compact`]
    /// sweeps stale pairs out before they outnumber the live ones.
    recency: VecDeque<(u64, K)>,
}

impl<K: Eq + Hash, V> Table<K, V> {
    /// The one eviction routine: pops the recency queue oldest first until
    /// the entries fit `capacity`, dropping stale pairs and evicting Ready
    /// entries, and returns how many it evicted. That is the choice a scan
    /// of the whole map would make, the least-recently-touched Ready entry,
    /// without the scan. Pending entries are never evicted (their
    /// designated computer and waiters hold the slot): their pairs go back
    /// to the front in order, and if only pending entries are left the map
    /// stays over capacity rather than stalling the insert. Slot state
    /// locks nest strictly inside the table lock everywhere in this module,
    /// so peeking a state here cannot deadlock.
    fn evict_over(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        let mut pending = Vec::new();
        while self.entries.len() > capacity {
            let Some((tick, key)) = self.recency.pop_front() else {
                break;
            };
            let ready = match self.entries.get(&key) {
                Some(e) if e.last_used == tick => {
                    matches!(*lock(&e.slot.state), SlotState::Ready(_))
                }
                _ => continue,
            };
            if ready {
                self.entries.remove(&key);
                evicted += 1;
            } else {
                pending.push((tick, key));
            }
        }
        for pair in pending.into_iter().rev() {
            self.recency.push_front(pair);
        }
        evicted
    }

    /// Drops the stale pairs once the queue holds more than twice the
    /// entries (plus slack), which leaves one pair per entry. The queue so
    /// stays within `2 × entries + 64` pairs at amortized O(1) per touch.
    fn compact(&mut self) {
        if self.recency.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.recency
                .retain(|(tick, key)| entries.get(key).is_some_and(|e| e.last_used == *tick));
        }
    }
}

/// Removes `key` from `table` only while it still points at `slot`; a
/// fresh slot inserted by a retrying caller must not be clobbered.
fn remove_if_current<K: Eq + Hash, V>(table: &Mutex<Table<K, V>>, key: &K, slot: &Arc<Slot<V>>) {
    let mut t = lock(table);
    if t.entries
        .get(key)
        .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
    {
        t.entries.remove(key);
        t.compact();
    }
}

/// Marks the slot poisoned if `compute` unwinds; disarmed on the normal
/// path. Runs *during* the unwind, before the per-point `catch_unwind`
/// in the sweep pool sees the panic, so waiters never deadlock on a
/// `Pending` slot whose computer died.
struct PoisonOnUnwind<'a, K: Eq + Hash, V> {
    table: &'a Mutex<Table<K, V>>,
    key: &'a K,
    slot: &'a Arc<Slot<V>>,
    armed: bool,
}

impl<K: Eq + Hash, V> Drop for PoisonOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            remove_if_current(self.table, self.key, self.slot);
            self.slot.finish(SlotState::Poisoned);
        }
    }
}

/// What one [`Memo::touch`] did: the caller's pick from the touched entry,
/// whether the key was new, and how many entries its insert evicted.
struct Touch<R> {
    picked: R,
    inserted: bool,
    evicted: u64,
}

/// One cache family: a keyed map of once-per-key compute slots with its
/// own hit/miss/poison/evict counters (mirrored into `cyclesteal-obs`
/// under the family's label, e.g. `core.cache.fit.hit`).
///
/// With `capacity > 0` the family is LRU-bounded: inserting past the
/// capacity evicts the least-recently-touched **Ready** entry (entries
/// still being computed are never evicted — their designated computer and
/// waiters hold the slot); [`Table::evict_over`] finds it. Eviction
/// changes only *where* a value lives, never what it is: every value is a
/// pure function of its key, so an evicted-and-recomputed entry is
/// bit-identical to the original. Reports
/// therefore stay deterministic with eviction enabled; only the hit/miss
/// *counters* become scheduling-dependent (a hit can turn into a
/// recompute-miss depending on eviction order), which is why the obs
/// determinism suites run on unbounded caches.
struct Memo<K, V> {
    table: Mutex<Table<K, V>>,
    /// Max Ready entries (`0` = unbounded).
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    poison_recoveries: AtomicU64,
    evictions: AtomicU64,
    hit_label: &'static str,
    miss_label: &'static str,
    poison_label: &'static str,
    evict_label: &'static str,
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("len", &lock(&self.table).entries.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    fn new(
        hit_label: &'static str,
        miss_label: &'static str,
        poison_label: &'static str,
        evict_label: &'static str,
        capacity: usize,
    ) -> Self {
        Memo {
            table: Mutex::new(Table {
                entries: HashMap::new(),
                tick: 0,
                recency: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hit_label,
            miss_label,
            poison_label,
            evict_label,
        }
    }

    fn len(&self) -> usize {
        lock(&self.table).entries.len()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// `true` when `key` has an entry (ready or pending); a pending entry
    /// counts because its designated computer will finish it.
    fn contains(&self, key: &K) -> bool {
        lock(&self.table).entries.contains_key(key)
    }

    /// Adds `n` to `counter` and to its obs series. A zero add records
    /// nothing, so a batch registers no series a lookup would not.
    fn count(&self, counter: &AtomicU64, label: &'static str, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
            obs::counter!(label, n);
        }
    }

    /// The one insert body, shared by [`Memo::get_or_compute`] and
    /// [`Memo::restore`], run under the table lock: stamps `key` with the
    /// next tick, inserts a slot in the `fresh()` state if the key is new,
    /// and returns `pick` of its entry. On a bounded memo it then evicts
    /// past the capacity (after an insert) and queues the touch. The pair
    /// is queued after those evictions, so a new entry is never its own
    /// insert's victim. An unbounded memo queues nothing and clones
    /// nothing.
    fn touch<R>(
        &self,
        table: &mut Table<K, V>,
        key: K,
        fresh: impl FnOnce() -> SlotState<V>,
        pick: impl FnOnce(&MemoEntry<V>) -> R,
    ) -> Touch<R> {
        let now = table.tick;
        table.tick += 1;
        let queued = (self.capacity > 0).then(|| (now, key.clone()));
        let (picked, inserted) = match table.entries.entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().last_used = now;
                (pick(e.get()), false)
            }
            Entry::Vacant(e) => {
                let entry = e.insert(MemoEntry {
                    slot: Arc::new(Slot::new(fresh())),
                    last_used: now,
                });
                (pick(entry), true)
            }
        };
        let mut evicted = 0;
        if let Some(pair) = queued {
            if inserted {
                evicted = table.evict_over(self.capacity);
            }
            table.recency.push_back(pair);
            table.compact();
        }
        Touch {
            picked,
            inserted,
            evicted,
        }
    }

    /// Seeds the memo with ready values in one pass under one table lock,
    /// through the same [`Memo::touch`] a lookup takes, so it counts
    /// exactly what one [`Memo::get_or_compute`] per entry would: one tick
    /// per entry, a miss per new key, a hit per key already present (whose
    /// value wins — every value is a pure function of its key), and the
    /// same LRU evictions. The counts are added once per call. Meant for a
    /// cache nothing else is using yet (restart recovery): a pending entry
    /// is counted as a hit without waiting for it. The map is sized once
    /// for the entries' size hint (at most the capacity of a bounded memo),
    /// so a large restore does not rehash through the growth doublings.
    fn restore(&self, entries: impl IntoIterator<Item = (K, V)>) {
        let entries = entries.into_iter();
        let mut table = lock(&self.table);
        let expected = entries.size_hint().0;
        table.entries.reserve(if self.capacity > 0 {
            expected.min(self.capacity)
        } else {
            expected
        });
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for (key, value) in entries {
            let t = self.touch(&mut table, key, || SlotState::Ready(value), |_| ());
            if t.inserted {
                misses += 1;
            } else {
                hits += 1;
            }
            evictions += t.evicted;
        }
        drop(table);
        self.count(&self.hits, self.hit_label, hits);
        self.count(&self.misses, self.miss_label, misses);
        self.count(&self.evictions, self.evict_label, evictions);
    }

    /// The once-per-key protocol: the caller that installs the slot
    /// computes (counting a miss); everyone else waits on the condvar and
    /// either clones the ready value (counting a hit) or retries after a
    /// failure/poisoning.
    fn get_or_compute<E>(&self, key: K, compute: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        let mut compute = Some(compute);
        loop {
            let touch = {
                let mut table = lock(&self.table);
                self.touch(
                    &mut table,
                    key.clone(),
                    || SlotState::Pending,
                    |e| Arc::clone(&e.slot),
                )
            };
            self.count(&self.evictions, self.evict_label, touch.evicted);
            let slot = touch.picked;
            if touch.inserted {
                self.count(&self.misses, self.miss_label, 1);
                let mut guard = PoisonOnUnwind {
                    table: &self.table,
                    key: &key,
                    slot: &slot,
                    armed: true,
                };
                let result = compute
                    .take()
                    .expect("the designated branch runs at most once")(
                );
                guard.armed = false;
                return match result {
                    Ok(v) => {
                        slot.finish(SlotState::Ready(v.clone()));
                        Ok(v)
                    }
                    Err(e) => {
                        // Errors are not cached: remove before notifying
                        // so retries start a fresh slot.
                        remove_if_current(&self.table, &key, &slot);
                        slot.finish(SlotState::Failed);
                        Err(e)
                    }
                };
            }
            let mut state = lock(&slot.state);
            while matches!(*state, SlotState::Pending) {
                state = slot.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            match &*state {
                SlotState::Ready(v) => {
                    let v = v.clone();
                    drop(state);
                    self.count(&self.hits, self.hit_label, 1);
                    return Ok(v);
                }
                SlotState::Failed => {
                    drop(state);
                    // The entry is gone; loop to compute the (pure,
                    // deterministic) error ourselves.
                }
                SlotState::Poisoned => {
                    drop(state);
                    self.count(&self.poison_recoveries, self.poison_label, 1);
                }
                SlotState::Pending => unreachable!("the wait loop exits on terminal states"),
            }
        }
    }
}

/// The thread-safe memo store. Create one per sweep (or keep one alive
/// across sweeps to reuse fits and reports); share it by reference or
/// `Arc`. A long-lived service answers through short-lived
/// [`SolveCache::scope`]s instead (see the module docs).
#[derive(Debug)]
pub struct SolveCache {
    fits: Memo<FitKey, (Ph, MatchQuality)>,
    /// The report layer and what goes with it, shared by this cache and
    /// every scope made from it.
    store: Arc<ReportStore>,
    /// A scope's reports *computed* through it (by a miss's analysis, the
    /// presolve's included, or by [`SolveCache::seed_qbd_solution`]) and
    /// not yet taken by [`SolveCache::take_new_reports`]; `None` for a
    /// root cache. Reports seeded by [`SolveCache::restore_reports`] are
    /// never journaled — they came from the persistence layer, which must
    /// not re-append its own records.
    journal: Option<Journal>,
}

type Journal = Mutex<Vec<(ReportKey, CsCqReport)>>;

/// The long-lived part of a [`SolveCache`].
#[derive(Debug)]
struct ReportStore {
    reports: Memo<ReportKey, CsCqReport>,
    /// The fit counts of dropped caches sharing this store (the daemon's
    /// drain scopes).
    retired: Mutex<CacheStats>,
}

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::with_capacity(0)
    }
}

impl Drop for SolveCache {
    fn drop(&mut self) {
        lock(&self.store.retired).add(self.fits.stats());
    }
}

impl SolveCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// An empty cache whose report layer is LRU-bounded at `capacity`
    /// entries; `0` means unbounded, same as [`SolveCache::new`]. The fit
    /// layer is never bounded: a sweep keeps it for its run, and a service
    /// bounds it by answering through [`SolveCache::scope`]s. Eviction
    /// never changes a served value (every report is a pure function of
    /// its key — an evicted entry is recomputed bit-identically), only the
    /// hit/miss counters, which become scheduling-dependent once eviction
    /// can race with lookups.
    pub fn with_capacity(capacity: usize) -> Self {
        let store = ReportStore {
            reports: Memo::new(
                "core.cache.report.hit",
                "core.cache.report.miss",
                "core.cache.report.poison_recovered",
                "core.cache.report.evicted",
                capacity,
            ),
            retired: Mutex::new(CacheStats::default()),
        };
        SolveCache::sharing(Arc::new(store), None)
    }

    /// A drain scope: a cache that shares this cache's report layer and
    /// counters, but owns a fresh fit layer and its own report journal.
    /// Reports it computes or seeds land in the shared layer and in its
    /// journal, for [`SolveCache::take_new_reports`]; the fits behind them
    /// go when the scope drops, which also adds the scope's counts to the
    /// totals that [`SolveCache::stats`] reports. A serving worker makes
    /// one per drained batch of queries, so solver memory is bounded by the
    /// drain width instead of growing with the query count.
    pub fn scope(&self) -> SolveCache {
        SolveCache::sharing(Arc::clone(&self.store), Some(Mutex::default()))
    }

    fn sharing(store: Arc<ReportStore>, journal: Option<Journal>) -> Self {
        SolveCache {
            fits: Memo::new(
                "core.cache.fit.hit",
                "core.cache.fit.miss",
                "core.cache.fit.poison_recovered",
                "core.cache.fit.evicted",
                0,
            ),
            store,
            journal,
        }
    }

    /// The report layer's LRU bound (`0` = unbounded), the only bound a
    /// cache has.
    pub fn capacity(&self) -> usize {
        self.store.reports.capacity
    }

    /// Current hit/miss/poison-recovery/eviction counters, all layers
    /// combined: this cache's own, the shared report layer's, and those
    /// of every dropped scope that shared it.
    pub fn stats(&self) -> CacheStats {
        let mut stats = *lock(&self.store.retired);
        stats.add(self.fits.stats());
        stats.add(self.store.reports.stats());
        stats
    }

    /// Number of memoized entries across both layers: this cache's fits
    /// plus the shared reports.
    pub fn len(&self) -> usize {
        self.fits.len() + self.report_len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memoized moment fit. `tag` discriminates the fit order.
    pub(crate) fn fit(
        &self,
        m: Moments3,
        tag: u8,
        compute: impl FnOnce() -> Result<(Ph, MatchQuality), AnalysisError>,
    ) -> Result<(Ph, MatchQuality), AnalysisError> {
        let key = (m.mean().to_bits(), m.m2().to_bits(), m.m3().to_bits(), tag);
        self.fits.get_or_compute(key, compute)
    }

    /// Finishes a planned question with a solution of its chain (the
    /// benchmark harness in `perfbench/` and tests call it): reads the
    /// question's report off `sol` and files it under the key the chain
    /// was planned for, through the same once-per-key protocol as a
    /// report miss, so a scope journals it and the counts stay
    /// deterministic. If the key is already present the existing report
    /// wins and `sol` is discarded (both are pure functions of the key,
    /// hence identical); if assembly fails nothing is filed. Returns
    /// whether the key's report is now filed.
    pub fn seed_qbd_solution(&self, plan: &PlannedChain, sol: QbdSolution) -> bool {
        self.report(plan.key(), || plan.report(&sol)).is_ok()
    }

    /// Memoized whole-report analysis: `compute` runs once per key even
    /// under concurrent lookups. In a scope, the designated compute's
    /// (successful) result is appended to the scope's journal.
    pub(crate) fn report(
        &self,
        key: ReportKey,
        compute: impl FnOnce() -> Result<CsCqReport, AnalysisError>,
    ) -> Result<CsCqReport, AnalysisError> {
        self.store.reports.get_or_compute(key, || {
            let report = compute()?;
            if let Some(journal) = &self.journal {
                lock(journal).push((key, report.clone()));
            }
            Ok(report)
        })
    }

    /// Takes the reports this scope computed since the last call, for the
    /// persistence layer to append. Always empty on a root cache, which
    /// journals nothing; [`SolveCache::export_reports`] gives the full
    /// state.
    pub fn take_new_reports(&self) -> Vec<(ReportKey, CsCqReport)> {
        self.journal
            .as_ref()
            .map_or_else(Vec::new, |j| std::mem::take(&mut *lock(j)))
    }

    /// The cached report for `key` if one is ready — a read-only peek
    /// that touches no hit/miss counters and never waits on a pending
    /// compute.
    pub fn peek_report(&self, key: &ReportKey) -> Option<CsCqReport> {
        let table = lock(&self.store.reports.table);
        let entry = table.entries.get(key)?;
        let peeked = match &*lock(&entry.slot.state) {
            SlotState::Ready(v) => Some(v.clone()),
            _ => None,
        };
        peeked
    }

    /// `true` when `key` has a report, ready or still being computed by
    /// another thread: the presolve's "already answered" test, which
    /// leaves a pending key to its designated computer. Touches no hit/miss
    /// counter and never waits.
    pub fn has_report(&self, key: &ReportKey) -> bool {
        self.store.reports.contains(key)
    }

    /// Seeds the report layer with externally persisted entries (a
    /// validated snapshot, or a WAL's valid prefix), in order, under one
    /// lock of the report map. The counts are those of one lookup per
    /// entry: a miss per new key, a hit per key already present — whose
    /// value wins, since both are pure functions of the key (a corrupted
    /// record is the persistence layer's job to reject before this) — and,
    /// on a bounded cache, the same LRU evictions: a restore takes the
    /// same insert-and-evict path as a lookup, off the layer's one recency
    /// queue. Restored entries are not journaled. The map is sized once
    /// from the entries' size hint, so give an iterator whose lower bound
    /// is the count when it is known.
    pub fn restore_reports(&self, entries: impl IntoIterator<Item = (ReportKey, CsCqReport)>) {
        self.store.reports.restore(entries);
    }

    /// Every ready report, sorted by key: the deterministic full-state
    /// snapshot the persistence layer writes at drain time. Pending
    /// entries are skipped — their designated computers' scopes journal
    /// them on completion.
    pub fn export_reports(&self) -> Vec<(ReportKey, CsCqReport)> {
        let table = lock(&self.store.reports.table);
        let mut out: Vec<(ReportKey, CsCqReport)> = table
            .entries
            .iter()
            .filter_map(|(k, e)| match &*lock(&e.slot.state) {
                SlotState::Ready(v) => Some((*k, v.clone())),
                _ => None,
            })
            .collect();
        drop(table);
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Number of report-layer entries (ready or pending): the figure a
    /// long-running service reports as its warm-cache size.
    pub fn report_len(&self) -> usize {
        self.store.reports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs_cq::{self, BusyPeriodFit};
    use crate::SystemParams;

    #[test]
    fn quantize_is_idempotent_and_close() {
        for x in [1.0, 0.3333333333333, 123456.789, 1e-9, 2.0 / 3.0] {
            let q = quantize(x);
            assert_eq!(quantize(q), q);
            assert!((q - x).abs() <= 1e-11 * x.abs(), "{x} -> {q}");
        }
        assert!(quantize(f64::INFINITY).is_infinite());
    }

    #[test]
    fn cached_analysis_matches_direct_on_snapped_params() {
        let cache = SolveCache::new();
        // Dyadic loads: every derived rate lies exactly on the grid.
        let p = SystemParams::exponential(0.875, 1.0, 0.5, 1.0).unwrap();
        let direct = cs_cq::analyze(&p).unwrap();
        let cached = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        // These params are exactly representable on the quantization grid,
        // so the cached path must agree to the bit.
        assert_eq!(
            direct.short_response.to_bits(),
            cached.short_response.to_bits()
        );
        assert_eq!(
            direct.long_response.to_bits(),
            cached.long_response.to_bits()
        );
    }

    #[test]
    fn second_lookup_hits_every_layer() {
        let cache = SolveCache::new();
        let p = SystemParams::exponential(1.1, 1.0, 0.5, 1.0).unwrap();
        let a = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let before = cache.stats();
        assert_eq!(before.hits, 0);
        assert!(before.misses >= 3, "{before:?}"); // report + 2 fits
        let b = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let after = cache.stats();
        assert!(after.hits >= 1, "{after:?}");
        assert_eq!(after.misses, before.misses);
        assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
        assert!(!cache.is_empty());
    }

    #[test]
    fn busy_fits_shared_across_a_rho_s_sweep() {
        // B_L and B_{N+1} depend only on (lambda_l, long moments, mu_s):
        // sweeping rho_s must hit the fit layer after the first point.
        let cache = SolveCache::new();
        for rho_s in [0.3, 0.6, 0.9, 1.2] {
            let p = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
            cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        }
        let stats = cache.stats();
        // 4 points: first misses everything; the other three hit both fits.
        assert!(stats.hits >= 6, "{stats:?}");
    }

    #[test]
    fn nearby_inputs_share_entries_and_results() {
        let cache = SolveCache::new();
        let p1 = SystemParams::exponential(0.9, 1.0, 0.5, 1.0).unwrap();
        // Perturb far below the quantization grid.
        let p2 = SystemParams::exponential(0.9 * (1.0 + 1e-14), 1.0, 0.5, 1.0).unwrap();
        let a = cs_cq::analyze_cached(&p1, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let b = cs_cq::analyze_cached(&p2, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
        assert!(cache.stats().hits >= 1);
    }

    #[test]
    fn seeded_qbd_solution_is_served_to_the_analysis_path() {
        let cache = SolveCache::new();
        // Dyadic loads: snapping is the identity, so the planner's chain is
        // exactly the chain the analysis path builds.
        let p = SystemParams::exponential(1.25, 1.0, 0.5, 1.0).unwrap();
        let plan = cs_cq::plan_qbd_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        let key = cs_cq::report_key(&p, BusyPeriodFit::ThreeMoment);
        assert_eq!(plan.key(), key);
        assert!(!cache.has_report(&plan.key()));
        let sol = plan.build().unwrap().solve().unwrap();
        assert!(cache.seed_qbd_solution(&plan, sol));
        assert!(cache.peek_report(&plan.key()).is_some());
        // Planner: 2 fit misses; seed: 1 report miss (the once-per-key
        // protocol counts the seed as the key's designated compute).
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 3), "{before:?}");

        let via_cache = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        // The analysis recomputes nothing the planner covered: one report
        // hit, no fit looked up, no chain built.
        let after = cache.stats();
        assert_eq!((after.hits, after.misses), (1, 3), "{after:?}");
        let direct = cs_cq::analyze(&p).unwrap();
        assert_eq!(
            via_cache.short_response.to_bits(),
            direct.short_response.to_bits(),
            "a seeded solve must not move the answer"
        );
        assert_eq!(
            via_cache.long_response.to_bits(),
            direct.long_response.to_bits()
        );
        // Seeding an already-present key is a no-op hit, not a new miss
        // (and replanning hits the fit layer).
        let again = cs_cq::plan_qbd_cached(&p, BusyPeriodFit::ThreeMoment, &cache).unwrap();
        assert!(cache.seed_qbd_solution(&again, again.build().unwrap().solve().unwrap()));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn racing_threads_compute_a_key_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 0);
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = memo
                        .get_or_compute(7, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: waiters must block,
                            // not double-compute.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<u64, ()>(42)
                        })
                        .unwrap();
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one computer");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (7, 1), "7 hits, 1 miss — deterministic");
    }

    #[test]
    fn errors_are_not_cached_and_every_caller_sees_one() {
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 0);
        for _ in 0..3 {
            let r = memo.get_or_compute(1, || Err::<u64, &str>("boom"));
            assert_eq!(r, Err("boom"));
        }
        assert_eq!(memo.len(), 0, "failed slots are removed");
        let s = memo.stats();
        assert_eq!(
            (s.hits, s.misses),
            (0, 3),
            "each failing call recounts its miss"
        );
        // The key still works once a compute succeeds.
        assert_eq!(memo.get_or_compute(1, || Ok::<u64, &str>(5)), Ok(5));
    }

    #[test]
    fn panicking_computer_poisons_the_slot_and_waiters_recover() {
        use std::sync::Barrier;
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 0);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_compute(9, || -> Result<u64, ()> {
                        barrier.wait(); // waiter is queued up behind us
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("injected");
                    })
                }));
            });
            s.spawn(|| {
                barrier.wait();
                let v = memo.get_or_compute(9, || Ok::<u64, ()>(11)).unwrap();
                assert_eq!(v, 11, "waiter recovers by recomputing");
            });
        });
        let p = memo.stats().poison_recoveries;
        // The waiter either queued behind the doomed slot (recovery
        // counted) or arrived after removal (clean recompute).
        assert!(p <= 1);
        assert_eq!(memo.get_or_compute(9, || Ok::<u64, ()>(99)), Ok(11));
    }

    #[test]
    fn lru_bound_evicts_least_recently_touched_ready_entry() {
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 2);
        memo.get_or_compute(1, || Ok::<u64, ()>(10)).unwrap();
        memo.get_or_compute(2, || Ok::<u64, ()>(20)).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        memo.get_or_compute(1, || Ok::<u64, ()>(999)).unwrap();
        memo.get_or_compute(3, || Ok::<u64, ()>(30)).unwrap();
        assert_eq!(memo.len(), 2);
        assert!(memo.contains(&1), "recently touched entry survives");
        assert!(!memo.contains(&2), "LRU entry is evicted");
        assert!(memo.contains(&3));
        assert_eq!(memo.stats().evictions, 1);
        // The evicted key recomputes to the same (pure) value.
        assert_eq!(memo.get_or_compute(2, || Ok::<u64, ()>(20)), Ok(20));
    }

    #[test]
    fn pending_entries_are_never_evicted() {
        use std::sync::Barrier;
        let memo: Memo<u32, u64> = Memo::new("t.hit", "t.miss", "t.poison", "t.evict", 1);
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_compute(1, || {
                    entered.wait();
                    release.wait();
                    Ok::<u64, ()>(1)
                })
                .unwrap();
            });
            entered.wait(); // key 1 is now Pending
                            // Over-capacity insert while the only other entry is pending:
                            // the map stays temporarily over capacity instead of evicting
                            // the in-flight slot.
            memo.get_or_compute(2, || Ok::<u64, ()>(2)).unwrap();
            let survived = memo.contains(&1);
            // Release before asserting: a failed assert must not leave the
            // computer thread parked on the barrier, hanging the scope.
            release.wait();
            assert!(survived, "pending slot must survive");
        });
        let v = memo.get_or_compute(1, || Ok::<u64, ()>(77)).unwrap();
        assert_eq!(v, 1, "the pending computer's value was kept");
    }

    #[test]
    fn bounded_cache_serves_bit_identical_reports_after_eviction() {
        // Report capacity 1: every new point evicts the previous report,
        // yet re-analyzing an evicted point reproduces the exact bits —
        // eviction moves values, never changes them.
        let unbounded = SolveCache::new();
        let bounded = SolveCache::with_capacity(1);
        assert_eq!(bounded.capacity(), 1);
        let points = [0.3, 0.6, 0.9, 0.3, 0.6, 0.9];
        for rho_s in points {
            let p = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
            let a = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &unbounded).unwrap();
            let b = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &bounded).unwrap();
            assert_eq!(a.short_response.to_bits(), b.short_response.to_bits());
            assert_eq!(a.long_response.to_bits(), b.long_response.to_bits());
        }
        let stats = bounded.stats();
        assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
        assert_eq!(unbounded.stats().evictions, 0);
    }

    #[test]
    fn export_insert_round_trip_restores_report_hits() {
        let warm = SolveCache::new();
        let p = SystemParams::exponential(0.7, 1.0, 0.5, 1.0).unwrap();
        let original = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &warm).unwrap();
        let exported = warm.export_reports();
        assert_eq!(exported.len(), 1);

        let restored = SolveCache::new();
        let (k, r) = &exported[0];
        assert!(restored.peek_report(k).is_none());
        restored.restore_reports(exported.clone());
        let peeked = restored.peek_report(k).unwrap();
        assert_eq!(peeked.short_response.to_bits(), r.short_response.to_bits());
        // The restored cache serves the report without re-solving: one
        // seed miss, then a pure report-layer hit.
        let before = restored.stats();
        let served = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &restored).unwrap();
        let after = restored.stats();
        assert_eq!(after.hits, before.hits + 1, "{after:?}");
        assert_eq!(after.misses, before.misses);
        assert_eq!(
            served.short_response.to_bits(),
            original.short_response.to_bits()
        );
        // Restoring an existing key is a hit (existing value wins).
        restored.restore_reports(exported.clone());
        assert_eq!(restored.report_len(), 1);
        assert_eq!(restored.stats().hits, after.hits + 1);
        assert_eq!(restored.stats().misses, after.misses);
    }

    fn restored_entry(i: u64) -> (ReportKey, CsCqReport) {
        let key = ([i, i ^ 0x55, 0, 0, 0, 0], 1, (1, 1));
        let report = CsCqReport {
            short_response: i as f64,
            long_response: 2.0,
            mean_shorts_in_system: 0.5,
            p_region1: 0.25,
            p_region2: 0.25,
            p_region5: 0.5,
            setup_probability: 0.0,
            bl_match: MatchQuality::ExactThree,
            bn_match: MatchQuality::ExactTwo,
            total_mass: 1.0,
        };
        (key, report)
    }

    /// The per-entry seeding a bulk restore must reproduce: one
    /// once-per-key lookup per entry, in order.
    fn insert_one_by_one(cache: &SolveCache, entries: &[(ReportKey, CsCqReport)]) {
        for (key, report) in entries {
            let seeded = cache
                .store
                .reports
                .get_or_compute(*key, || Ok::<_, ()>(report.clone()));
            assert!(seeded.is_ok());
        }
    }

    /// Every key with its LRU timestamp and the bits it serves.
    fn report_state(cache: &SolveCache) -> Vec<(ReportKey, u64, u64)> {
        let table = lock(&cache.store.reports.table);
        let mut state: Vec<_> = table
            .entries
            .iter()
            .map(|(k, e)| {
                let bits = match &*lock(&e.slot.state) {
                    SlotState::Ready(r) => r.short_response.to_bits(),
                    _ => panic!("a restored entry is ready"),
                };
                (*k, e.last_used, bits)
            })
            .collect();
        state.sort_unstable();
        state
    }

    #[test]
    fn a_restore_past_the_capacity_keeps_and_counts_what_per_entry_insertion_does() {
        let entries: Vec<_> = (0..4096).map(restored_entry).collect();
        let bulk = SolveCache::with_capacity(1024);
        bulk.restore_reports(entries.clone());
        let one_by_one = SolveCache::with_capacity(1024);
        insert_one_by_one(&one_by_one, &entries);

        assert_eq!(report_state(&bulk), report_state(&one_by_one));
        assert_eq!(bulk.report_len(), 1024);
        assert_eq!(bulk.report_len(), one_by_one.report_len());
        let stats = bulk.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 4096, 3072));
        assert_eq!(stats, one_by_one.stats());
        // The newest 1024 entries are the ones kept.
        assert!(bulk.peek_report(&entries[3071].0).is_none());
        assert!(bulk.peek_report(&entries[3072].0).is_some());
    }

    #[test]
    fn repeated_keys_restore_as_hits_exactly_as_per_entry_insertion() {
        // A snapshot, then a WAL that repeats some snapshot keys (a crash
        // between the snapshot rename and the WAL reset) and repeats its
        // own keys (a bounded daemon recomputing an evicted answer). Each
        // source is one restore call; hits, misses, evictions, the kept
        // keys and their LRU ticks all match one lookup per entry.
        let snapshot: Vec<_> = (0..300).map(restored_entry).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let wal: Vec<_> = (0..900)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                restored_entry(x % 600)
            })
            .collect();
        for capacity in [0, 1, 7, 64, 250, 450, 2000] {
            let bulk = SolveCache::with_capacity(capacity);
            bulk.restore_reports(snapshot.clone());
            bulk.restore_reports(wal.clone());
            let one_by_one = SolveCache::with_capacity(capacity);
            insert_one_by_one(&one_by_one, &snapshot);
            insert_one_by_one(&one_by_one, &wal);
            assert_eq!(bulk.stats(), one_by_one.stats(), "capacity {capacity}");
            assert_eq!(
                report_state(&bulk),
                report_state(&one_by_one),
                "capacity {capacity}"
            );
            if capacity == 0 || capacity >= 64 {
                assert!(bulk.stats().hits > 0, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn a_scope_shares_reports_and_takes_its_solver_layers_with_it() {
        let root = SolveCache::with_capacity(4);
        let p = SystemParams::exponential(0.9, 1.0, 0.5, 1.0).unwrap();

        let scope = root.scope();
        assert_eq!(scope.capacity(), 4, "the report bound is shared");
        let answer = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &scope).unwrap();
        // Two fits in the scope; the report in the shared layer, journaled
        // once, by the scope that computed it.
        assert_eq!(scope.len(), 3);
        assert_eq!((root.len(), root.report_len()), (1, 1));
        assert_eq!(scope.take_new_reports().len(), 1);
        assert!(
            root.take_new_reports().is_empty(),
            "a root journals nothing"
        );
        let in_scope = scope.stats();
        assert_eq!((in_scope.hits, in_scope.misses), (0, 3), "{in_scope:?}");
        assert_eq!(
            root.stats().misses,
            1,
            "the scope's solver counts come on drop"
        );
        drop(scope);
        assert_eq!(root.stats(), in_scope, "a dropped scope's counts are kept");
        assert_eq!(root.len(), 1);

        // A later scope answers from the shared report layer alone.
        let scope = root.scope();
        let again = cs_cq::analyze_cached(&p, BusyPeriodFit::ThreeMoment, &scope).unwrap();
        assert_eq!(
            again.short_response.to_bits(),
            answer.short_response.to_bits()
        );
        assert_eq!(scope.len(), 1);
        assert!(
            scope.take_new_reports().is_empty(),
            "a hit journals nothing"
        );
        drop(scope);
        let after = root.stats();
        assert_eq!((after.hits, after.misses), (1, 3), "{after:?}");
    }

    #[test]
    fn each_scope_journals_exactly_the_reports_it_computed() {
        let root = SolveCache::new();
        let p1 = SystemParams::exponential(0.4, 1.0, 0.5, 1.0).unwrap();
        let p2 = SystemParams::exponential(0.8, 1.0, 0.5, 1.0).unwrap();
        let key = |p: &SystemParams| cs_cq::report_key(p, BusyPeriodFit::ThreeMoment);

        // A root computes without journaling: a sweep keeps no copy.
        cs_cq::analyze_cached(&p1, BusyPeriodFit::ThreeMoment, &root).unwrap();
        assert!(root.take_new_reports().is_empty());

        // Two scopes alive at once, each computing one report: each
        // journal holds its own report and nothing of the other's.
        let (a, b) = (root.scope(), root.scope());
        let r2 = cs_cq::analyze_cached(&p2, BusyPeriodFit::ThreeMoment, &a).unwrap();
        let p3 = SystemParams::exponential(1.2, 1.0, 0.5, 1.0).unwrap();
        cs_cq::analyze_cached(&p3, BusyPeriodFit::ThreeMoment, &b).unwrap();
        // A report another cache computed is a hit here: nothing to own.
        cs_cq::analyze_cached(&p1, BusyPeriodFit::ThreeMoment, &b).unwrap();
        let taken = a.take_new_reports();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].0, key(&p2));
        assert_eq!(
            taken[0].1.short_response.to_bits(),
            r2.short_response.to_bits()
        );
        let taken = b.take_new_reports();
        assert_eq!(
            taken.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            [key(&p3)]
        );
        assert!(a.take_new_reports().is_empty(), "taking is destructive");
        assert!(root.take_new_reports().is_empty());

        // Seeding through restore_reports never journals.
        let fresh = SolveCache::new();
        let scope = fresh.scope();
        scope.restore_reports(root.export_reports());
        assert_eq!(fresh.report_len(), 3);
        assert!(scope.take_new_reports().is_empty());
    }

    /// The reference eviction rule: a scan of the whole map on every
    /// bounded insert for the least-recently-touched Ready entry, which is
    /// how `Memo` evicted before its recency queue. Plain data, mirroring
    /// the once-per-key protocol: `key -> (last_used, ready)`.
    struct ScanOracle {
        entries: HashMap<u32, (u64, bool)>,
        capacity: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl ScanOracle {
        fn new(capacity: usize) -> Self {
            ScanOracle {
                entries: HashMap::new(),
                capacity,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        /// One touch; `true` when it inserted a Pending entry, which the
        /// caller computes and then settles with [`ScanOracle::finish`].
        fn touch(&mut self, key: u32) -> bool {
            let now = self.tick;
            self.tick += 1;
            if let Some(e) = self.entries.get_mut(&key) {
                e.0 = now;
                self.stats.hits += 1;
                return false;
            }
            self.entries.insert(key, (now, false));
            self.stats.misses += 1;
            self.evict_over_capacity();
            true
        }

        fn finish(&mut self, key: u32, ok: bool) {
            if ok {
                self.entries.get_mut(&key).expect("a pending entry stays").1 = true;
            } else {
                self.entries.remove(&key);
            }
        }

        /// The Ready keys, sorted (held keys are Pending).
        fn ready_keys(&self) -> Vec<u32> {
            let mut keys: Vec<u32> = self
                .entries
                .iter()
                .filter(|(_, e)| e.1)
                .map(|(k, _)| *k)
                .collect();
            keys.sort_unstable();
            keys
        }

        fn evict_over_capacity(&mut self) {
            while self.entries.len() > self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(_, e)| e.1)
                    .min_by_key(|(_, e)| e.0)
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        self.entries.remove(&k);
                        self.stats.evictions += 1;
                    }
                    None => break,
                }
            }
        }
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn model_value(key: u32) -> u64 {
        u64::from(key) * 10 + 1
    }

    /// The memo and the oracle keep the same keys with the same ticks and
    /// states, count the same, and the recency queue stays compacted.
    fn assert_agrees(memo: &Memo<u32, u64>, oracle: &ScanOracle, context: &str) {
        let table = lock(&memo.table);
        let mut kept: Vec<(u32, u64, bool)> = table
            .entries
            .iter()
            .map(|(k, e)| {
                let ready = matches!(*lock(&e.slot.state), SlotState::Ready(_));
                (*k, e.last_used, ready)
            })
            .collect();
        kept.sort_unstable();
        let mut want: Vec<(u32, u64, bool)> =
            oracle.entries.iter().map(|(k, e)| (*k, e.0, e.1)).collect();
        want.sort_unstable();
        assert_eq!(kept, want, "{context}");
        assert_eq!(table.tick, oracle.tick, "{context}");
        assert!(
            table.recency.len() <= 2 * table.entries.len() + 64,
            "{context}: {} pairs for {} entries",
            table.recency.len(),
            table.entries.len()
        );
        drop(table);
        assert_eq!(memo.stats(), oracle.stats, "{context}");
    }

    /// Runs seeded ops on both until `budget` runs out (or, nested inside
    /// a compute, after a few ops). `held` lists the keys whose computes
    /// are on the stack: Pending, so a lookup of one would wait on itself.
    fn drive_model(
        memo: &Memo<u32, u64>,
        oracle: &mut ScanOracle,
        rng: &mut u64,
        held: &mut Vec<u32>,
        budget: &mut u32,
    ) {
        let keys = 2 * oracle.capacity as u64 + 4;
        while *budget > 0 {
            *budget -= 1;
            let op = xorshift(rng) % 10;
            let mut key = (xorshift(rng) % keys) as u32;
            while held.contains(&key) {
                key = (xorshift(rng) % keys) as u32;
            }
            if op >= 8 {
                // A touch of a kept key: hits leave stale pairs behind.
                let ready = oracle.ready_keys();
                if !ready.is_empty() {
                    key = ready[(xorshift(rng) % ready.len() as u64) as usize];
                }
            }
            let context = format!("capacity {}, op {op}, key {key}", oracle.capacity);
            match op {
                // A restore batch, repeats and held keys included.
                0 | 1 => {
                    let len = 1 + xorshift(rng) % 8;
                    let mut batch: Vec<u32> = Vec::new();
                    for _ in 0..len {
                        let r = xorshift(rng);
                        let k = if !batch.is_empty() && r.is_multiple_of(3) {
                            batch[(r / 3 % batch.len() as u64) as usize]
                        } else {
                            (r % keys) as u32
                        };
                        batch.push(k);
                    }
                    for &k in &batch {
                        if oracle.touch(k) {
                            oracle.finish(k, true);
                        }
                    }
                    memo.restore(batch.iter().map(|&k| (k, model_value(k))));
                }
                // A failing compute: a hit if the key is ready.
                2 => {
                    let inserted = oracle.touch(key);
                    let got = memo.get_or_compute(key, || Err::<u64, ()>(()));
                    if inserted {
                        oracle.finish(key, false);
                        assert_eq!(got, Err(()), "{context}");
                    } else {
                        assert_eq!(got, Ok(model_value(key)), "{context}");
                    }
                }
                // A compute that holds its entry Pending across nested
                // ops, then succeeds or fails.
                3 | 4 if held.len() < 3 => {
                    let ok = !xorshift(rng).is_multiple_of(4);
                    let inserted = oracle.touch(key);
                    let got = memo.get_or_compute(key, || {
                        assert!(inserted, "{context}: the memo missed where the scan hit");
                        held.push(key);
                        assert_agrees(memo, oracle, &context);
                        drive_model(memo, oracle, rng, held, budget);
                        held.pop();
                        if ok {
                            Ok(model_value(key))
                        } else {
                            Err(())
                        }
                    });
                    if inserted {
                        oracle.finish(key, ok);
                    }
                    assert_eq!(got.is_ok(), ok || !inserted, "{context}");
                }
                // A successful lookup: a hit or a computing miss.
                _ => {
                    let inserted = oracle.touch(key);
                    let got = memo.get_or_compute(key, || {
                        assert!(inserted, "{context}: the memo missed where the scan hit");
                        Ok::<u64, ()>(model_value(key))
                    });
                    if inserted {
                        oracle.finish(key, true);
                    }
                    assert_eq!(got, Ok(model_value(key)), "{context}");
                }
            }
            assert_agrees(memo, oracle, &context);
            if !held.is_empty() && xorshift(rng).is_multiple_of(4) {
                return;
            }
        }
    }

    #[test]
    fn the_recency_queue_evicts_what_a_whole_map_scan_would() {
        for capacity in [1, 2, 7, 64] {
            for seed in 1..=24u64 {
                let memo: Memo<u32, u64> =
                    Memo::new("t.hit", "t.miss", "t.poison", "t.evict", capacity);
                let mut oracle = ScanOracle::new(capacity);
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut budget = 400;
                drive_model(&memo, &mut oracle, &mut rng, &mut Vec::new(), &mut budget);
                // Hits alone, which only compaction keeps from growing the
                // queue.
                if oracle.ready_keys().is_empty() {
                    assert!(oracle.touch(0));
                    oracle.finish(0, true);
                    assert_eq!(memo.get_or_compute(0, || Ok::<u64, ()>(1)), Ok(1));
                }
                let kept = oracle.ready_keys();
                for i in 0..4 * capacity + 128 {
                    let key = kept[i % kept.len()];
                    assert!(!oracle.touch(key));
                    let got = memo.get_or_compute(key, || Ok::<u64, ()>(0));
                    assert_eq!(got, Ok(model_value(key)));
                    assert_agrees(&memo, &oracle, &format!("capacity {capacity}, hit {i}"));
                }
                let stats = memo.stats();
                assert!(
                    stats.evictions > 0,
                    "capacity {capacity}, seed {seed}: {stats:?}"
                );
            }
        }
    }
}
