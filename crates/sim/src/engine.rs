//! The discrete-event engine: one event heap, `n` servers, a policy.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cyclesteal_dist::{sample_exp, DistError, Distribution, Map};
use cyclesteal_xtest::rng::{SeedableRng, SmallRng};

use crate::policy::{self, Job, JobClass, PolicyKind, ServiceEnd};
use crate::stats::ClassStats;

/// An arrival process for one job class.
///
/// The paper assumes Poisson arrivals and notes the generalization to MAPs;
/// the simulator supports both (use [`Arrivals::None`] to switch a class
/// off entirely).
#[derive(Clone, Copy)]
pub enum Arrivals<'a> {
    /// No arrivals of this class.
    None,
    /// Poisson with the given rate.
    Poisson(f64),
    /// A Markovian Arrival Process.
    Map(&'a Map),
}

impl Arrivals<'_> {
    /// Long-run arrival rate.
    pub fn rate(&self) -> f64 {
        match self {
            Arrivals::None => 0.0,
            Arrivals::Poisson(r) => *r,
            Arrivals::Map(m) => m.rate(),
        }
    }

    fn validate(&self, what: &'static str) -> Result<(), DistError> {
        if let Arrivals::Poisson(r) = self {
            if !(*r > 0.0 && r.is_finite()) {
                return Err(DistError::NonPositive { what, value: *r });
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Arrivals<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arrivals::None => write!(f, "None"),
            Arrivals::Poisson(r) => write!(f, "Poisson({r})"),
            Arrivals::Map(m) => write!(f, "Map(rate={})", m.rate()),
        }
    }
}

/// Workload parameters of a two-class system.
///
/// Arrival processes may be Poisson (the paper's base model) or MAPs; host
/// speeds default to `[1, 1]` and can be made heterogeneous (the paper's
/// "hosts of different speeds" extension) via [`SimParams::with_speeds`].
/// The same workload runs on the two hosts of the 2-host policies or on
/// the `k + m` servers of a [`PolicyKind::CsCqFleet`].
#[derive(Clone, Copy)]
pub struct SimParams<'a> {
    pub(crate) arr_s: Arrivals<'a>,
    pub(crate) arr_l: Arrivals<'a>,
    pub(crate) short: &'a dyn Distribution,
    pub(crate) long: &'a dyn Distribution,
    pub(crate) speeds: [f64; 2],
}

impl<'a> SimParams<'a> {
    /// Creates the paper's base workload: Poisson arrivals, unit-speed
    /// hosts.
    ///
    /// # Errors
    ///
    /// [`DistError::NonPositive`] if a rate is negative, not finite, or both
    /// rates are zero.
    pub fn new(
        lambda_s: f64,
        lambda_l: f64,
        short: &'a dyn Distribution,
        long: &'a dyn Distribution,
    ) -> Result<Self, DistError> {
        for (what, v) in [("lambda_s", lambda_s), ("lambda_l", lambda_l)] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(DistError::NonPositive { what, value: v });
            }
        }
        let to_arrivals = |r: f64| {
            if r == 0.0 {
                Arrivals::None
            } else {
                Arrivals::Poisson(r)
            }
        };
        SimParams::with_arrivals(to_arrivals(lambda_s), to_arrivals(lambda_l), short, long)
    }

    /// Creates a workload with explicit arrival processes per class.
    ///
    /// # Errors
    ///
    /// [`DistError::NonPositive`] if a Poisson rate is invalid or both
    /// classes are [`Arrivals::None`].
    pub fn with_arrivals(
        arr_s: Arrivals<'a>,
        arr_l: Arrivals<'a>,
        short: &'a dyn Distribution,
        long: &'a dyn Distribution,
    ) -> Result<Self, DistError> {
        arr_s.validate("lambda_s")?;
        arr_l.validate("lambda_l")?;
        if arr_s.rate() == 0.0 && arr_l.rate() == 0.0 {
            return Err(DistError::NonPositive {
                what: "lambda_s + lambda_l",
                value: 0.0,
            });
        }
        Ok(SimParams {
            arr_s,
            arr_l,
            short,
            long,
            speeds: [1.0, 1.0],
        })
    }

    /// Sets heterogeneous host speeds (a job of size `x` takes `x/speed` on
    /// the host). Host 0 is the short host for the dispatch-based policies.
    /// A [`PolicyKind::CsCqFleet`] of more than two servers takes no
    /// speeds: [`PolicyKind::cs_cq_fleet`] rejects non-unit ones for it.
    ///
    /// # Errors
    ///
    /// [`DistError::NonPositive`] for nonpositive speeds.
    pub fn with_speeds(mut self, speeds: [f64; 2]) -> Result<Self, DistError> {
        for s in speeds {
            if !(s > 0.0 && s.is_finite()) {
                return Err(DistError::NonPositive {
                    what: "host speed",
                    value: s,
                });
            }
        }
        self.speeds = speeds;
        Ok(self)
    }

    /// Short-class load `ρ_S = λ_S · E[X_S]` (normalized to a unit-speed
    /// host).
    pub fn rho_s(&self) -> f64 {
        self.arr_s.rate() * self.short.mean()
    }

    /// Long-class load `ρ_L = λ_L · E[X_L]`.
    pub fn rho_l(&self) -> f64 {
        self.arr_l.rate() * self.long.mean()
    }
}

impl std::fmt::Debug for SimParams<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimParams")
            .field("arr_s", &self.arr_s)
            .field("arr_l", &self.arr_l)
            .field("rho_s", &self.rho_s())
            .field("rho_l", &self.rho_l())
            .field("speeds", &self.speeds)
            .finish()
    }
}

/// Run-length and measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed (deterministic runs).
    pub seed: u64,
    /// Total completions at which the run stops.
    pub total_jobs: u64,
    /// Fraction of completions discarded as warmup.
    pub warmup_fraction: f64,
    /// Number of batches for batch-means confidence intervals.
    pub batches: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5EED,
            total_jobs: 200_000,
            warmup_fraction: 0.2,
            batches: 20,
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Response-time statistics of the short class (empty if `λ_S = 0`).
    pub short: ClassStats,
    /// Response-time statistics of the long class (empty if `λ_L = 0`).
    pub long: ClassStats,
    /// Waiting-time (response minus own service) statistics of the shorts.
    pub short_wait: ClassStats,
    /// Waiting-time statistics of the longs.
    pub long_wait: ClassStats,
    /// Fraction of time each server was busy: two entries for the 2-host
    /// policies, `k + m` for a [`PolicyKind::CsCqFleet`].
    pub utilization: Vec<f64>,
    /// Simulated time at the end of the run.
    pub end_time: f64,
    /// Completions counted per class (after warmup).
    pub completions: [u64; 2],
    /// Jobs still waiting (not in service) when the run stopped — a quick
    /// instability telltale: it grows with `total_jobs` for overloaded
    /// configurations.
    pub queued_at_end: usize,
    /// Time-averaged number of jobs in system per class (whole run,
    /// including warmup). Together with the response means this lets
    /// callers check Little's law `E[N] = λ E[T]`.
    pub mean_in_system: [f64; 2],
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival(JobClass),
    Departure(usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn class_index(class: JobClass) -> usize {
    match class {
        JobClass::Short => 0,
        JobClass::Long => 1,
    }
}

/// One server: the job in service (the view policies dispatch against),
/// the start of its current busy interval, its accumulated busy time, and
/// its speed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Server {
    pub job: Option<Job>,
    busy_since: f64,
    busy_time: f64,
    speed: f64,
}

impl Server {
    pub(crate) fn idle(speed: f64) -> Self {
        Server {
            job: None,
            busy_since: 0.0,
            busy_time: 0.0,
            speed,
        }
    }
}

struct Engine<'a> {
    params: SimParams<'a>,
    policy: Box<dyn policy::Policy>,
    rng: SmallRng,
    heap: BinaryHeap<Event>,
    seq: u64,
    now: f64,
    map_phase: [usize; 2],
    servers: Vec<Server>,
    responses: [Vec<f64>; 2],
    waits: [Vec<f64>; 2],
    completions_total: u64,
    completions: [u64; 2],
    warmup_target: u64,
    /// Number in system per class plus the accumulated time-integral.
    in_system: [u64; 2],
    area: [f64; 2],
    last_event_time: f64,
}

impl<'a> Engine<'a> {
    fn schedule(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
    }

    fn schedule_next_arrival(&mut self, class: JobClass) {
        let idx = class_index(class);
        let arr = match class {
            JobClass::Short => self.params.arr_s,
            JobClass::Long => self.params.arr_l,
        };
        let dt = match arr {
            Arrivals::None => return,
            Arrivals::Poisson(rate) => sample_exp(rate, &mut self.rng),
            Arrivals::Map(map) => map.sample_interarrival(&mut self.map_phase[idx], &mut self.rng),
        };
        self.schedule(self.now + dt, EventKind::Arrival(class));
    }

    fn start(&mut self, server: usize, job: Job) {
        let demand = self.policy.service_demand(server, &job);
        let s = &mut self.servers[server];
        debug_assert!(s.job.is_none(), "server already busy");
        s.job = Some(job);
        s.busy_since = self.now;
        let service = demand / s.speed;
        self.schedule(self.now + service, EventKind::Departure(server));
    }

    fn record_completion(&mut self, server: usize, job: Job) {
        let idx = class_index(job.class);
        self.in_system[idx] -= 1;
        self.completions_total += 1;
        if self.completions_total > self.warmup_target {
            self.completions[idx] += 1;
            let response = self.now - job.arrival;
            self.responses[idx].push(response);
            let service = job.size / self.servers[server].speed;
            self.waits[idx].push((response - service).max(0.0));
        }
    }

    fn run(&mut self, total_jobs: u64) {
        while self.completions_total < total_jobs {
            let Some(ev) = self.heap.pop() else { break };
            self.now = ev.time;
            let dt = self.now - self.last_event_time;
            self.area[0] += dt * self.in_system[0] as f64;
            self.area[1] += dt * self.in_system[1] as f64;
            self.last_event_time = self.now;
            match ev.kind {
                EventKind::Arrival(class) => {
                    let size = match class {
                        JobClass::Short => self.params.short.sample(&mut self.rng),
                        JobClass::Long => self.params.long.sample(&mut self.rng),
                    };
                    let job = Job {
                        class,
                        size,
                        arrival: self.now,
                    };
                    self.in_system[class_index(class)] += 1;
                    // The draw order is the size, then whatever the policy
                    // draws, then the next interarrival of the class.
                    let start = self.policy.on_arrival(job, &self.servers, &mut self.rng);
                    self.schedule_next_arrival(class);
                    if let Some((server, job)) = start {
                        self.start(server, job);
                    }
                }
                EventKind::Departure(server) => {
                    let s = &mut self.servers[server];
                    let job = s.job.take().expect("departure from idle server");
                    s.busy_time += self.now - s.busy_since;
                    match self.policy.on_service_end(server, job, &self.servers) {
                        ServiceEnd::Completed(job) => self.record_completion(server, job),
                        ServiceEnd::Requeued(start) => {
                            // The job stays in system; a killed slice still
                            // counts toward the run-length budget so TAGS
                            // runs cannot stall on pathological cutoffs.
                            self.completions_total += 1;
                            if let Some((s, j)) = start {
                                self.start(s, j);
                            }
                        }
                    }
                    if let Some(next) = self.policy.on_departure(server, &self.servers) {
                        self.start(server, next);
                    }
                }
            }
        }
        // Close out open busy intervals.
        for s in &mut self.servers {
            if s.job.is_some() {
                s.busy_time += self.now - s.busy_since;
            }
        }
    }
}

/// Runs one simulation of `kind` on the given workload.
///
/// The run stops after `config.total_jobs` completions; the first
/// `warmup_fraction` of completions are discarded before statistics are
/// collected. Deterministic for a fixed `config.seed`.
///
/// # Panics
///
/// Panics if `config.total_jobs == 0`, or if `kind` is a
/// [`PolicyKind::CsCqFleet`] that [`PolicyKind::cs_cq_fleet`] rejects for
/// `params`.
pub fn simulate(kind: PolicyKind, params: &SimParams<'_>, config: &SimConfig) -> SimResult {
    assert!(config.total_jobs > 0, "total_jobs must be positive");
    let policy = policy::build(kind, params);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut map_phase = [0usize; 2];
    for (idx, arr) in [(0, params.arr_s), (1, params.arr_l)] {
        if let Arrivals::Map(m) = arr {
            map_phase[idx] = m.sample_stationary_phase(&mut rng);
        }
    }
    // Hosts 0 and 1 take the configured speeds. A fleet with more servers
    // was built with unit speeds (`PolicyKind::cs_cq_fleet` checks).
    let servers = (0..kind.servers())
        .map(|s| Server::idle(params.speeds.get(s).copied().unwrap_or(1.0)))
        .collect();
    let mut engine = Engine {
        params: *params,
        policy,
        rng,
        heap: BinaryHeap::new(),
        seq: 0,
        now: 0.0,
        map_phase,
        servers,
        responses: [Vec::new(), Vec::new()],
        waits: [Vec::new(), Vec::new()],
        completions_total: 0,
        completions: [0, 0],
        warmup_target: (config.total_jobs as f64 * config.warmup_fraction) as u64,
        in_system: [0, 0],
        area: [0.0, 0.0],
        last_event_time: 0.0,
    };
    engine.schedule_next_arrival(JobClass::Short);
    engine.schedule_next_arrival(JobClass::Long);
    engine.run(config.total_jobs);

    let end_time = engine.now.max(f64::MIN_POSITIVE);
    SimResult {
        short: ClassStats::from_samples(&engine.responses[0], config.batches),
        long: ClassStats::from_samples(&engine.responses[1], config.batches),
        short_wait: ClassStats::from_samples(&engine.waits[0], config.batches),
        long_wait: ClassStats::from_samples(&engine.waits[1], config.batches),
        utilization: engine
            .servers
            .iter()
            .map(|s| s.busy_time / end_time)
            .collect(),
        end_time: engine.now,
        completions: engine.completions,
        queued_at_end: engine.policy.queued(),
        mean_in_system: [engine.area[0] / end_time, engine.area[1] / end_time],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_dist::Exp;

    fn exp(mean: f64) -> Exp {
        Exp::with_mean(mean).unwrap()
    }

    #[test]
    fn params_validation() {
        let d = exp(1.0);
        assert!(SimParams::new(-1.0, 0.5, &d, &d).is_err());
        assert!(SimParams::new(0.0, 0.0, &d, &d).is_err());
        assert!(SimParams::new(f64::NAN, 0.5, &d, &d).is_err());
        let p = SimParams::new(0.5, 0.25, &d, &d).unwrap();
        assert!((p.rho_s() - 0.5).abs() < 1e-12);
        assert!((p.rho_l() - 0.25).abs() < 1e-12);
        assert!(format!("{p:?}").contains("rho_s"));
    }

    #[test]
    fn deterministic_given_seed() {
        let d = exp(1.0);
        let p = SimParams::new(0.5, 0.3, &d, &d).unwrap();
        let c = SimConfig {
            seed: 42,
            total_jobs: 20_000,
            ..SimConfig::default()
        };
        let a = simulate(PolicyKind::CsCq, &p, &c);
        let b = simulate(PolicyKind::CsCq, &p, &c);
        assert_eq!(a.short.mean, b.short.mean);
        assert_eq!(a.long.mean, b.long.mean);
    }

    #[test]
    fn zero_long_rate_runs_shorts_only() {
        let d = exp(1.0);
        let p = SimParams::new(0.5, 0.0, &d, &d).unwrap();
        let c = SimConfig {
            seed: 7,
            total_jobs: 20_000,
            ..SimConfig::default()
        };
        let r = simulate(PolicyKind::Dedicated, &p, &c);
        assert_eq!(r.completions[1], 0);
        assert_eq!(r.long.count, 0);
        assert!(r.short.mean > 0.0);
    }

    #[test]
    fn event_ordering_is_by_time_then_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(Event {
            time: 2.0,
            seq: 1,
            kind: EventKind::Arrival(JobClass::Short),
        });
        heap.push(Event {
            time: 1.0,
            seq: 2,
            kind: EventKind::Departure(0),
        });
        heap.push(Event {
            time: 1.0,
            seq: 3,
            kind: EventKind::Departure(1),
        });
        assert_eq!(heap.pop().unwrap().seq, 2);
        assert_eq!(heap.pop().unwrap().seq, 3);
        assert_eq!(heap.pop().unwrap().time, 2.0);
    }

    #[test]
    fn utilization_matches_load_for_stable_dedicated() {
        let d = exp(1.0);
        let p = SimParams::new(0.6, 0.4, &d, &d).unwrap();
        let c = SimConfig {
            seed: 11,
            total_jobs: 400_000,
            ..SimConfig::default()
        };
        let r = simulate(PolicyKind::Dedicated, &p, &c);
        assert!((r.utilization[0] - 0.6).abs() < 0.02, "{:?}", r.utilization);
        assert!((r.utilization[1] - 0.4).abs() < 0.02, "{:?}", r.utilization);
    }

    fn fleet<'a>(
        k: usize,
        m: usize,
        lambda_s: f64,
        lambda_l: f64,
        d: &'a Exp,
    ) -> Result<(PolicyKind, SimParams<'a>), DistError> {
        let params = SimParams::new(lambda_s, lambda_l, d, d)?;
        Ok((PolicyKind::cs_cq_fleet(k, m, &params)?, params))
    }

    #[test]
    fn fleet_params_validation() {
        let d = exp(1.0);
        assert!(fleet(0, 1, 0.5, 0.3, &d).is_err());
        assert!(fleet(1, 0, 0.5, 0.3, &d).is_err());
        assert!(fleet(1, 1, 0.0, 0.0, &d).is_err());
        assert!(fleet(1, 1, f64::NAN, 0.3, &d).is_err());
        // m = 0 is fine when the long class is off.
        let (kind, p) = fleet(2, 0, 0.9, 0.0, &d).unwrap();
        assert_eq!(kind, PolicyKind::CsCqFleet { k: 2, m: 0 });
        assert!((p.rho_s() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fleet_deterministic_given_seed() {
        let d = exp(1.0);
        let (kind, p) = fleet(2, 2, 1.5, 0.5, &d).unwrap();
        let c = SimConfig {
            seed: 42,
            total_jobs: 20_000,
            ..SimConfig::default()
        };
        let a = simulate(kind, &p, &c);
        let b = simulate(kind, &p, &c);
        assert_eq!(a.short.mean.to_bits(), b.short.mean.to_bits());
        assert_eq!(a.long.mean.to_bits(), b.long.mean.to_bits());
    }

    #[test]
    fn one_one_fleet_matches_the_2host_cscq_policy_statistically() {
        // Not bit-identity (the fleet draws a slot per long), but the same
        // system: means must agree within Monte-Carlo noise.
        let d = exp(1.0);
        let (kind, p) = fleet(1, 1, 1.0, 0.5, &d).unwrap();
        let c = SimConfig {
            seed: 9,
            total_jobs: 400_000,
            ..SimConfig::default()
        };
        let fleet = simulate(kind, &p, &c);
        let two = simulate(PolicyKind::CsCq, &p, &c);
        let rel = (fleet.short.mean - two.short.mean).abs() / two.short.mean;
        assert!(
            rel < 0.05,
            "fleet {} vs 2-host {}",
            fleet.short.mean,
            two.short.mean
        );
    }

    #[test]
    fn fleet_m_zero_runs_shorts_only() {
        let d = exp(1.0);
        let (kind, p) = fleet(2, 0, 1.2, 0.0, &d).unwrap();
        let c = SimConfig {
            seed: 5,
            total_jobs: 50_000,
            ..SimConfig::default()
        };
        let r = simulate(kind, &p, &c);
        assert_eq!(r.completions[1], 0);
        assert_eq!(r.long.count, 0);
        assert!(r.short.mean > 0.0);
        assert_eq!(r.utilization.len(), 2);
    }

    #[test]
    fn utilization_matches_total_load_for_a_stable_fleet() {
        let d = exp(1.0);
        // rho_s + rho_l = 2.4 over 4 servers: average utilization 0.6.
        let (kind, p) = fleet(2, 2, 1.8, 0.6, &d).unwrap();
        let c = SimConfig {
            seed: 11,
            total_jobs: 400_000,
            ..SimConfig::default()
        };
        let r = simulate(kind, &p, &c);
        let avg = r.utilization.iter().sum::<f64>() / r.utilization.len() as f64;
        assert!((avg - 0.6).abs() < 0.02, "{:?}", r.utilization);
    }

    #[test]
    fn fleet_replication_is_thread_count_invariant() {
        let d = exp(1.0);
        let (kind, p) = fleet(2, 1, 1.4, 0.4, &d).unwrap();
        let c = SimConfig {
            seed: 77,
            total_jobs: 10_000,
            ..SimConfig::default()
        };
        let one = crate::replicate_parallel(kind, &p, &c, 6, 1);
        let four = crate::replicate_parallel(kind, &p, &c, 6, 4);
        assert_eq!(one.short.mean.to_bits(), four.short.mean.to_bits());
        assert_eq!(one.long.mean.to_bits(), four.long.mean.to_bits());
    }
}
