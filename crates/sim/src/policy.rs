//! Task-assignment policies.
//!
//! Policies are written against a small functional interface: the engine
//! tells the policy about arrivals and departures, and the policy answers
//! with the job (if any) to start on an idle server. Queues live inside the
//! policy; servers live in the engine.

use std::collections::VecDeque;

use cyclesteal_dist::DistError;
use cyclesteal_xtest::rng::{RngExt, SmallRng};

use crate::engine::{Server, SimParams};

/// The class of a job: the paper's "short" (beneficiary) and "long" (donor)
/// classes. The analysis never requires shorts to actually be shorter —
/// column (c) of Figures 4–6 deliberately makes "shorts" ten times longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Beneficiary class (dispatched to the short host, may steal).
    Short,
    /// Donor class (owns the long host).
    Long,
}

/// Which policy a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Shorts to host 0, longs to host 1, no stealing.
    Dedicated,
    /// Cycle stealing with immediate dispatch: an arriving short runs on
    /// the long host iff that host is idle at the arrival instant.
    CsId,
    /// Cycle stealing with a central queue and renamable hosts.
    CsCq,
    /// Central queue, both hosts serve any class, the smaller-mean class has
    /// non-preemptive priority (the paper's M/G/2/SJF comparator).
    PriorityCentral,
    /// Central queue, both hosts, strict FCFS across classes (an M/G/2 —
    /// provably identical to Least-Work-Remaining dispatch, per the paper's
    /// related-work discussion).
    CentralFcfs,
    /// Alternating immediate dispatch, class-blind, per-host FCFS (the
    /// related-work baseline the paper calls "by far the most common").
    RoundRobin,
    /// Immediate dispatch to the host with fewer jobs in system,
    /// class-blind, per-host FCFS (Winston's Shortest-Queue policy).
    ShortestQueue,
    /// TAGS — Task Assignment by Guessing Size (Harchol-Balter, JACM 2002;
    /// cited by the paper as the unknown-size analogue of Dedicated). Every
    /// job starts at host 0; if it has not finished within `cutoff` it is
    /// killed and restarted from scratch at host 1.
    Tags {
        /// The host-0 processing limit.
        cutoff: f64,
    },
    /// The CS-CQ fleet: `k` short plus `m` stealing hosts under one
    /// central queue, the many-server system `cyclesteal_core::cs_cq_km`
    /// analyzes. Build it with [`PolicyKind::cs_cq_fleet`], which checks
    /// the shape against the workload.
    ///
    /// All `k + m` servers are renamable. Longs split uniformly at random
    /// over `m` slots; each slot serves its longs FIFO through at most one
    /// server at a time (the analysis collapses a slot's longs into one
    /// busy period). Shorts wait in one central FIFO. A long arriving at
    /// an empty slot starts iff a server is idle, else the slot pends; a
    /// long arriving at an occupied slot joins its queue. A freed server
    /// continues its slot's busy period with the slot's next long, else
    /// rescues the oldest pending slot, else takes the next short. Each
    /// long draws its slot after its size and before the next
    /// interarrival. At `(1, 1)` these are the paper's CS-CQ rules, but
    /// the slot draw moves the stream away from [`PolicyKind::CsCq`]'s.
    CsCqFleet {
        /// Short hosts.
        k: usize,
        /// Stealing (long) hosts, one long slot each.
        m: usize,
    },
}

impl PolicyKind {
    /// The `(k, m)` CS-CQ fleet for the workload `params`.
    ///
    /// # Errors
    ///
    /// [`DistError::NonPositive`] if `k == 0`, or if longs arrive with no
    /// stealing host to ever serve them (`m == 0`);
    /// [`DistError::Inconsistent`] if `params` sets host speeds
    /// ([`SimParams::with_speeds`](crate::SimParams::with_speeds)) other
    /// than `[1, 1]` for a fleet of more than two servers, where the two
    /// speeds cannot name every server.
    pub fn cs_cq_fleet(k: usize, m: usize, params: &SimParams<'_>) -> Result<Self, DistError> {
        if k == 0 {
            return Err(DistError::NonPositive {
                what: "k (short hosts)",
                value: 0.0,
            });
        }
        if params.arr_l.rate() > 0.0 && m == 0 {
            return Err(DistError::NonPositive {
                what: "m (stealing hosts, required when lambda_l > 0)",
                value: 0.0,
            });
        }
        if k + m > 2 && params.speeds != [1.0, 1.0] {
            return Err(DistError::Inconsistent {
                reason: "host speeds set only hosts 0 and 1; a fleet of more than two servers runs at unit speed",
            });
        }
        Ok(PolicyKind::CsCqFleet { k, m })
    }

    /// Number of servers the policy runs on.
    pub(crate) fn servers(self) -> usize {
        match self {
            PolicyKind::CsCqFleet { k, m } => k + m,
            _ => 2,
        }
    }
}

/// A job in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub class: JobClass,
    pub size: f64,
    pub arrival: f64,
}

/// Read-only queries on the servers that policies dispatch against.
pub(crate) trait ServerView {
    fn idle(&self, s: usize) -> bool;
    fn class(&self, s: usize) -> Option<JobClass>;
    /// The lowest-index idle server (keeps runs deterministic).
    fn any_idle(&self) -> Option<usize>;
    fn long_in_service(&self) -> bool;
}

impl ServerView for [Server] {
    fn idle(&self, s: usize) -> bool {
        self[s].job.is_none()
    }

    fn class(&self, s: usize) -> Option<JobClass> {
        self[s].job.map(|j| j.class)
    }

    fn any_idle(&self) -> Option<usize> {
        self.iter().position(|s| s.job.is_none())
    }

    fn long_in_service(&self) -> bool {
        self.iter()
            .any(|s| s.job.is_some_and(|j| j.class == JobClass::Long))
    }
}

/// A dispatch decision: start `job` on server `server` (which must be idle).
pub(crate) type Start = Option<(usize, Job)>;

/// What happened when a service slice ended.
pub(crate) enum ServiceEnd {
    /// The job is done; record its response time.
    Completed(Job),
    /// The job was killed and requeued by the policy; optionally start it
    /// immediately on an idle server.
    Requeued(Start),
}

/// The policy interface the engine drives.
pub(crate) trait Policy {
    /// A job has arrived; either claim an idle server for it or enqueue it.
    /// `rng` is the run's stream, positioned after the job's size draw and
    /// before the next interarrival draw.
    fn on_arrival(&mut self, job: Job, servers: &[Server], rng: &mut SmallRng) -> Start;

    /// Server `server` has just gone idle; pick its next job, if any.
    fn on_departure(&mut self, server: usize, servers: &[Server]) -> Option<Job>;

    /// Number of jobs currently waiting (not in service).
    fn queued(&self) -> usize;

    /// How much work server `server` performs on `job` before the service
    /// slice ends (the engine divides by the host speed). Defaults to the
    /// whole job; TAGS caps host 0 at its cutoff.
    fn service_demand(&self, server: usize, job: &Job) -> f64 {
        let _ = server;
        job.size
    }

    /// Called when a service slice ends; decides completion vs kill-and-
    /// requeue. `servers` already shows `server` idle.
    fn on_service_end(&mut self, server: usize, job: Job, servers: &[Server]) -> ServiceEnd {
        let _ = (server, servers);
        ServiceEnd::Completed(job)
    }
}

pub(crate) fn build(kind: PolicyKind, params: &SimParams<'_>) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Dedicated => Box::new(Dedicated::default()),
        PolicyKind::CsId => Box::new(CsId::default()),
        PolicyKind::CsCq => Box::new(CsCq::default()),
        PolicyKind::PriorityCentral => Box::new(PriorityCentral {
            prefer: if params.short.mean() <= params.long.mean() {
                JobClass::Short
            } else {
                JobClass::Long
            },
            queues: Default::default(),
        }),
        PolicyKind::CentralFcfs => Box::new(CentralFcfs::default()),
        PolicyKind::RoundRobin => Box::new(RoundRobin::default()),
        PolicyKind::ShortestQueue => Box::new(ShortestQueue::default()),
        PolicyKind::Tags { cutoff } => {
            assert!(
                cutoff > 0.0 && cutoff.is_finite(),
                "TAGS cutoff must be positive and finite"
            );
            Box::new(Tags {
                cutoff,
                queues: Default::default(),
            })
        }
        PolicyKind::CsCqFleet { k, m } => {
            if let Err(e) = PolicyKind::cs_cq_fleet(k, m, params) {
                panic!("invalid CS-CQ fleet: {e}");
            }
            Box::new(CsCqFleet {
                shorts: VecDeque::new(),
                slots: vec![VecDeque::new(); m],
                slot_busy: vec![false; m],
                pending: VecDeque::new(),
                slot_of: vec![None; k + m],
            })
        }
    }
}

/// Per-class FIFO queues used by several policies.
#[derive(Debug, Default)]
struct ClassQueues {
    short: VecDeque<Job>,
    long: VecDeque<Job>,
}

impl ClassQueues {
    fn push(&mut self, job: Job) {
        match job.class {
            JobClass::Short => self.short.push_back(job),
            JobClass::Long => self.long.push_back(job),
        }
    }

    fn pop(&mut self, class: JobClass) -> Option<Job> {
        match class {
            JobClass::Short => self.short.pop_front(),
            JobClass::Long => self.long.pop_front(),
        }
    }

    fn len(&self) -> usize {
        self.short.len() + self.long.len()
    }
}

/// Host 0 is the short host, host 1 the long host, no interaction.
#[derive(Debug, Default)]
struct Dedicated {
    queues: ClassQueues,
}

const SHORT_HOST: usize = 0;
const LONG_HOST: usize = 1;

fn home(class: JobClass) -> usize {
    match class {
        JobClass::Short => SHORT_HOST,
        JobClass::Long => LONG_HOST,
    }
}

impl Policy for Dedicated {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        let host = home(job.class);
        if servers.idle(host) {
            Some((host, job))
        } else {
            self.queues.push(job);
            None
        }
    }

    fn on_departure(&mut self, server: usize, _servers: &[Server]) -> Option<Job> {
        let class = if server == SHORT_HOST {
            JobClass::Short
        } else {
            JobClass::Long
        };
        self.queues.pop(class)
    }

    fn queued(&self) -> usize {
        self.queues.len()
    }
}

/// Cycle stealing with immediate dispatch (paper Figure 1(a)).
///
/// An arriving short first checks whether the long host is idle; if so it is
/// dispatched there, otherwise to the short host. Queued shorts never
/// migrate: only new arrivals can steal.
#[derive(Debug, Default)]
struct CsId {
    queues: ClassQueues,
}

impl Policy for CsId {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        match job.class {
            JobClass::Long => {
                if servers.idle(LONG_HOST) {
                    Some((LONG_HOST, job))
                } else {
                    self.queues.push(job);
                    None
                }
            }
            JobClass::Short => {
                if servers.idle(LONG_HOST) {
                    Some((LONG_HOST, job))
                } else if servers.idle(SHORT_HOST) {
                    Some((SHORT_HOST, job))
                } else {
                    self.queues.push(job);
                    None
                }
            }
        }
    }

    fn on_departure(&mut self, server: usize, _servers: &[Server]) -> Option<Job> {
        // The long host only ever pulls queued longs; queued shorts belong
        // to the short host.
        let class = if server == SHORT_HOST {
            JobClass::Short
        } else {
            JobClass::Long
        };
        self.queues.pop(class)
    }

    fn queued(&self) -> usize {
        self.queues.len()
    }
}

/// Cycle stealing with a central queue and renamable hosts
/// (paper Figure 1(b)).
///
/// Invariant: at most one long job is ever in service — the host serving a
/// long *is* the long host; the other host only takes shorts. A freed host
/// takes the first waiting long if the other host is not serving a long,
/// otherwise the first waiting short.
#[derive(Debug, Default)]
struct CsCq {
    queues: ClassQueues,
}

impl Policy for CsCq {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        match job.class {
            JobClass::Long => {
                if !servers.long_in_service() {
                    if let Some(s) = servers.any_idle() {
                        return Some((s, job));
                    }
                }
                self.queues.push(job);
                None
            }
            JobClass::Short => {
                if let Some(s) = servers.any_idle() {
                    Some((s, job))
                } else {
                    self.queues.push(job);
                    None
                }
            }
        }
    }

    fn on_departure(&mut self, server: usize, servers: &[Server]) -> Option<Job> {
        let other_serving_long = servers.class(1 - server) == Some(JobClass::Long);
        if !other_serving_long {
            if let Some(long) = self.queues.pop(JobClass::Long) {
                return Some(long);
            }
        }
        self.queues.pop(JobClass::Short)
    }

    fn queued(&self) -> usize {
        self.queues.len()
    }
}

/// Central queue, both hosts serve any class, non-preemptive priority to the
/// class with the smaller mean (M/G/2/SJF in the paper's Section 6).
#[derive(Debug)]
struct PriorityCentral {
    prefer: JobClass,
    queues: ClassQueues,
}

impl Policy for PriorityCentral {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        if let Some(s) = servers.any_idle() {
            Some((s, job))
        } else {
            self.queues.push(job);
            None
        }
    }

    fn on_departure(&mut self, _server: usize, _servers: &[Server]) -> Option<Job> {
        let other = match self.prefer {
            JobClass::Short => JobClass::Long,
            JobClass::Long => JobClass::Short,
        };
        self.queues
            .pop(self.prefer)
            .or_else(|| self.queues.pop(other))
    }

    fn queued(&self) -> usize {
        self.queues.len()
    }
}

/// Central queue, both hosts, strict FCFS across classes.
#[derive(Debug, Default)]
struct CentralFcfs {
    queue: VecDeque<Job>,
}

impl Policy for CentralFcfs {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        if let Some(s) = servers.any_idle() {
            Some((s, job))
        } else {
            self.queue.push_back(job);
            None
        }
    }

    fn on_departure(&mut self, _server: usize, _servers: &[Server]) -> Option<Job> {
        self.queue.pop_front()
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Class-blind alternating dispatch with per-host FCFS queues.
#[derive(Debug, Default)]
struct RoundRobin {
    queues: [VecDeque<Job>; 2],
    next: usize,
}

impl Policy for RoundRobin {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        let host = self.next;
        self.next = 1 - self.next;
        if servers.idle(host) {
            Some((host, job))
        } else {
            self.queues[host].push_back(job);
            None
        }
    }

    fn on_departure(&mut self, server: usize, _servers: &[Server]) -> Option<Job> {
        self.queues[server].pop_front()
    }

    fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }
}

/// Class-blind dispatch to the host with fewer jobs in system (in service
/// plus queued), ties to host 0; per-host FCFS queues.
#[derive(Debug, Default)]
struct ShortestQueue {
    queues: [VecDeque<Job>; 2],
}

impl Policy for ShortestQueue {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        let count = |h: usize| self.queues[h].len() + usize::from(!servers.idle(h));
        let host = if count(0) <= count(1) { 0 } else { 1 };
        if servers.idle(host) {
            Some((host, job))
        } else {
            self.queues[host].push_back(job);
            None
        }
    }

    fn on_departure(&mut self, server: usize, _servers: &[Server]) -> Option<Job> {
        self.queues[server].pop_front()
    }

    fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }
}

/// TAGS: all jobs start at host 0 and run at most `cutoff`; survivors of
/// the kill restart from scratch at host 1. Class-blind (the whole point of
/// TAGS is that sizes are unknown at dispatch time).
#[derive(Debug)]
struct Tags {
    cutoff: f64,
    queues: [VecDeque<Job>; 2],
}

impl Policy for Tags {
    fn on_arrival(&mut self, job: Job, servers: &[Server], _rng: &mut SmallRng) -> Start {
        if servers.idle(0) {
            Some((0, job))
        } else {
            self.queues[0].push_back(job);
            None
        }
    }

    fn on_departure(&mut self, server: usize, _servers: &[Server]) -> Option<Job> {
        self.queues[server].pop_front()
    }

    fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    fn service_demand(&self, server: usize, job: &Job) -> f64 {
        if server == 0 {
            job.size.min(self.cutoff)
        } else {
            job.size
        }
    }

    fn on_service_end(&mut self, server: usize, job: Job, servers: &[Server]) -> ServiceEnd {
        if server == 1 || job.size <= self.cutoff {
            return ServiceEnd::Completed(job);
        }
        // Killed at the cutoff: restart from scratch at host 1.
        if servers.idle(1) {
            ServiceEnd::Requeued(Some((1, job)))
        } else {
            self.queues[1].push_back(job);
            ServiceEnd::Requeued(None)
        }
    }
}

/// The `(k, m)` CS-CQ fleet (see [`PolicyKind::CsCqFleet`] for the rules).
#[derive(Debug)]
struct CsCqFleet {
    /// The central FIFO of waiting shorts.
    shorts: VecDeque<Job>,
    /// Per-slot FIFO of longs not yet in service.
    slots: Vec<VecDeque<Job>>,
    /// Whether a long of this slot is in service.
    slot_busy: Vec<bool>,
    /// Slots whose head long waits for a server, oldest first.
    pending: VecDeque<usize>,
    /// The slot of the long each server is serving.
    slot_of: Vec<Option<usize>>,
}

impl CsCqFleet {
    fn start_slot_head(&mut self, server: usize, slot: usize) -> Job {
        self.slot_busy[slot] = true;
        self.slot_of[server] = Some(slot);
        self.slots[slot]
            .pop_front()
            .expect("pending slot has a waiting long")
    }
}

impl Policy for CsCqFleet {
    fn on_arrival(&mut self, job: Job, servers: &[Server], rng: &mut SmallRng) -> Start {
        if job.class == JobClass::Short {
            // A pending slot would have grabbed any idle server already,
            // so an idle server here means no slot waits.
            let start = servers.any_idle().map(|s| (s, job));
            if start.is_none() {
                self.shorts.push_back(job);
            }
            return start;
        }
        let slot = rng.random_below(self.slots.len() as u64) as usize;
        if self.slot_busy[slot] || !self.slots[slot].is_empty() {
            // The slot's busy period is running (or it already pends).
            self.slots[slot].push_back(job);
            return None;
        }
        match servers.any_idle() {
            Some(s) => {
                self.slot_busy[slot] = true;
                self.slot_of[s] = Some(slot);
                Some((s, job))
            }
            None => {
                // Every server busy: the slot pends (the chain's region 5).
                self.slots[slot].push_back(job);
                self.pending.push_back(slot);
                None
            }
        }
    }

    fn on_departure(&mut self, server: usize, _servers: &[Server]) -> Option<Job> {
        if let Some(slot) = self.slot_of[server].take() {
            self.slot_busy[slot] = false;
            if !self.slots[slot].is_empty() {
                // The same server continues the slot's busy period.
                return Some(self.start_slot_head(server, slot));
            }
        }
        match self.pending.pop_front() {
            Some(slot) => Some(self.start_slot_head(server, slot)),
            None => self.shorts.pop_front(),
        }
    }

    fn queued(&self) -> usize {
        self.shorts.len() + self.slots.iter().map(VecDeque::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_dist::Exp;
    use cyclesteal_xtest::rng::SeedableRng;

    fn job(class: JobClass) -> Job {
        Job {
            class,
            size: 1.0,
            arrival: 0.0,
        }
    }

    fn view(s0: Option<JobClass>, s1: Option<JobClass>) -> [Server; 2] {
        [s0, s1].map(|class| {
            let mut server = Server::idle(1.0);
            server.job = class.map(job);
            server
        })
    }

    /// Offers a job of `class` to `p`; the 2-host policies draw nothing.
    fn arrive(p: &mut dyn Policy, class: JobClass, servers: &[Server]) -> Start {
        p.on_arrival(job(class), servers, &mut SmallRng::seed_from_u64(0))
    }

    #[test]
    fn dedicated_routes_by_class() {
        let mut p = Dedicated::default();
        let idle = view(None, None);
        assert_eq!(arrive(&mut p, JobClass::Short, &idle).unwrap().0, 0);
        assert_eq!(arrive(&mut p, JobClass::Long, &idle).unwrap().0, 1);
        // Busy home host queues even if the other host is idle.
        let busy0 = view(Some(JobClass::Short), None);
        assert!(arrive(&mut p, JobClass::Short, &busy0).is_none());
        assert_eq!(p.queued(), 1);
        assert!(p.on_departure(0, &view(None, None)).is_some());
    }

    #[test]
    fn cs_id_short_steals_idle_long_host() {
        let mut p = CsId::default();
        // Long host idle: the short goes there even if host 0 is also idle.
        assert_eq!(
            arrive(&mut p, JobClass::Short, &view(None, None))
                .unwrap()
                .0,
            LONG_HOST
        );
        // Long host busy: the short uses the short host.
        let v = view(None, Some(JobClass::Long));
        assert_eq!(arrive(&mut p, JobClass::Short, &v).unwrap().0, SHORT_HOST);
        // Both busy: queue.
        let v = view(Some(JobClass::Short), Some(JobClass::Short));
        assert!(arrive(&mut p, JobClass::Short, &v).is_none());
        // The freed long host never takes the queued short.
        assert!(p.on_departure(LONG_HOST, &view(None, None)).is_none());
        assert!(p.on_departure(SHORT_HOST, &view(None, None)).is_some());
    }

    #[test]
    fn cs_cq_at_most_one_long_in_service() {
        let mut p = CsCq::default();
        // A long arrives while another long is served: it waits even though
        // a server is idle (the idle server is the "short host").
        let v = view(None, Some(JobClass::Long));
        assert!(arrive(&mut p, JobClass::Long, &v).is_none());
        assert_eq!(p.queued(), 1);
        // When the other host serves a long, a freed host only takes shorts.
        assert!(p.on_departure(0, &v).is_none());
        // When the other host serves a short, a freed host takes the long
        // (renaming).
        let v = view(None, Some(JobClass::Short));
        let next = p.on_departure(0, &v).unwrap();
        assert_eq!(next.class, JobClass::Long);
    }

    #[test]
    fn cs_cq_shorts_use_any_idle_server() {
        let mut p = CsCq::default();
        let v = view(Some(JobClass::Short), None);
        assert_eq!(arrive(&mut p, JobClass::Short, &v).unwrap().0, 1);
    }

    #[test]
    fn cs_cq_prefers_long_over_short_on_free() {
        let mut p = CsCq::default();
        let both_busy = view(Some(JobClass::Short), Some(JobClass::Short));
        assert!(arrive(&mut p, JobClass::Short, &both_busy).is_none());
        assert!(arrive(&mut p, JobClass::Long, &both_busy).is_none());
        // Server 0 frees while server 1 serves a short: take the long first.
        let v = view(None, Some(JobClass::Short));
        assert_eq!(p.on_departure(0, &v).unwrap().class, JobClass::Long);
        // Next free server takes the waiting short.
        assert_eq!(
            p.on_departure(1, &view(None, Some(JobClass::Long)))
                .unwrap()
                .class,
            JobClass::Short
        );
    }

    #[test]
    fn priority_central_prefers_configured_class() {
        let mut p = PriorityCentral {
            prefer: JobClass::Long,
            queues: Default::default(),
        };
        let busy = view(Some(JobClass::Short), Some(JobClass::Short));
        assert!(arrive(&mut p, JobClass::Short, &busy).is_none());
        assert!(arrive(&mut p, JobClass::Long, &busy).is_none());
        assert_eq!(p.on_departure(0, &busy).unwrap().class, JobClass::Long);
        assert_eq!(p.on_departure(0, &busy).unwrap().class, JobClass::Short);
    }

    #[test]
    fn build_selects_sjf_preference_by_mean() {
        // shorts mean 10, longs mean 1 (column (c)): SJF prefers longs.
        let (shorts, longs) = (Exp::with_mean(10.0).unwrap(), Exp::with_mean(1.0).unwrap());
        let params = SimParams::new(0.1, 0.1, &shorts, &longs).unwrap();
        let mut p = build(PolicyKind::PriorityCentral, &params);
        let busy = view(Some(JobClass::Short), Some(JobClass::Short));
        assert!(arrive(&mut *p, JobClass::Short, &busy).is_none());
        assert!(arrive(&mut *p, JobClass::Long, &busy).is_none());
        assert_eq!(p.on_departure(0, &busy).unwrap().class, JobClass::Long);
    }

    #[test]
    fn round_robin_alternates_hosts() {
        let mut p = RoundRobin::default();
        let idle = view(None, None);
        assert_eq!(arrive(&mut p, JobClass::Short, &idle).unwrap().0, 0);
        assert_eq!(arrive(&mut p, JobClass::Long, &idle).unwrap().0, 1);
        assert_eq!(arrive(&mut p, JobClass::Short, &idle).unwrap().0, 0);
        // Next up is host 1 (idle here), then host 0 again — which is busy,
        // so the job queues at host 0 even though host 1 is idle.
        let busy0 = view(Some(JobClass::Short), None);
        assert_eq!(arrive(&mut p, JobClass::Long, &busy0).unwrap().0, 1);
        assert!(arrive(&mut p, JobClass::Short, &busy0).is_none());
        assert_eq!(p.queued(), 1);
        assert!(p.on_departure(1, &idle).is_none()); // queued at host 0
        assert!(p.on_departure(0, &idle).is_some());
    }

    #[test]
    fn shortest_queue_picks_the_lighter_host() {
        let mut p = ShortestQueue::default();
        let busy_both = view(Some(JobClass::Short), Some(JobClass::Short));
        // Both empty queues: tie goes to host 0.
        assert!(arrive(&mut p, JobClass::Short, &busy_both).is_none());
        assert_eq!(p.queues[0].len(), 1);
        // Now host 1 is lighter.
        assert!(arrive(&mut p, JobClass::Short, &busy_both).is_none());
        assert_eq!(p.queues[1].len(), 1);
        // An idle lighter host gets the job immediately.
        let idle1 = view(Some(JobClass::Short), None);
        let mut q = ShortestQueue::default();
        assert_eq!(arrive(&mut q, JobClass::Long, &idle1).unwrap().0, 1);
    }

    #[test]
    fn central_fcfs_is_order_preserving() {
        let mut p = CentralFcfs::default();
        let busy = view(Some(JobClass::Short), Some(JobClass::Long));
        assert!(arrive(&mut p, JobClass::Long, &busy).is_none());
        assert!(arrive(&mut p, JobClass::Short, &busy).is_none());
        assert_eq!(p.on_departure(0, &busy).unwrap().class, JobClass::Long);
        assert_eq!(p.on_departure(0, &busy).unwrap().class, JobClass::Short);
        assert!(p.on_departure(0, &busy).is_none());
    }

    #[test]
    fn cs_cq_fleet_continues_busy_periods_and_rescues_pending_slots() {
        // One slot (m = 1), so every long draws slot 0.
        let long = |size: f64| Job {
            class: JobClass::Long,
            size,
            arrival: 0.0,
        };
        let mut p = CsCqFleet {
            shorts: VecDeque::new(),
            slots: vec![VecDeque::new()],
            slot_busy: vec![false],
            pending: VecDeque::new(),
            slot_of: vec![None; 2],
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let busy = view(Some(JobClass::Short), Some(JobClass::Short));
        // Every server busy: the first long pends its slot, the second
        // joins the slot's queue, the short waits centrally.
        assert!(p.on_arrival(long(1.0), &busy, &mut rng).is_none());
        assert!(p.on_arrival(long(2.0), &busy, &mut rng).is_none());
        assert!(arrive(&mut p, JobClass::Short, &busy).is_none());
        assert_eq!((p.queued(), p.pending.len()), (3, 1));
        // A freed server rescues the pending slot before the short...
        let v = view(None, Some(JobClass::Short));
        assert_eq!(p.on_departure(0, &v).unwrap().size, 1.0);
        // ...then continues the slot's busy period with its next long...
        assert_eq!(p.on_departure(0, &v).unwrap().size, 2.0);
        // ...and only when the slot empties takes the short.
        assert_eq!(p.on_departure(0, &v).unwrap().class, JobClass::Short);
        assert_eq!(p.queued(), 0);
        assert!(!p.slot_busy[0]);
    }
}
