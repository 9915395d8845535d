//! The presolve: collects a sweep's or a drain's pending CS-CQ analysis
//! points and, **before** the per-point evaluation phase, files each
//! distinct question's report in the shared [`SolveCache`], so
//! evaluation finds every answer already there.
//!
//! # Why this cannot change a report
//!
//! Each distinct question is filed through
//! [`cs_cq_km::analyze_cached_in`] with the three-moment fit: the first
//! rung the evaluation's recovery ladder
//! ([`recover::analyze_cached_in`]) runs, under the same report key. A
//! presolved report is therefore the evaluation's own call, made earlier;
//! the presolve is a pure reordering of work. The chain is built just
//! before its solve and dropped right after it, so a presolve holds one
//! chain at a time. Errors are never cached, so a failing question
//! re-runs the whole ladder during evaluation and gets its ordinary
//! attributed failure record.
//!
//! Planning is serial; filing runs on the shared worker pool at the
//! caller's thread count, each question on whichever worker claims it,
//! out of that thread's workspace. A sweep files across all its threads.
//! A daemon drain files at 1 thread, in [`ReportKey`] order, which makes
//! the order of the reports it journals independent of the order its
//! points arrived in.
//!
//! Points with a planned fault on their scope are skipped wholesale:
//! faulted points bypass the shared cache during evaluation (see the
//! engine), so presolving them would be wasted work at best and at worst
//! would let a clean presolve mask an injection site.
//!
//! [`recover::analyze_cached_in`]: cyclesteal_core::recover::analyze_cached_in

use std::collections::HashSet;

use cyclesteal_core::cache::{ReportKey, SolveCache};
use cyclesteal_core::cs_cq::BusyPeriodFit;
use cyclesteal_core::cs_cq_km::{self, Hosts};
use cyclesteal_core::stability::Policy;
use cyclesteal_core::SystemParams;
use cyclesteal_sim::parallel_map_isolated;
use cyclesteal_xtest::fault;

use crate::grid::{Evaluator, Point};
use crate::report::SweepRow;

/// What the presolve did, surfaced through
/// [`SweepMetrics::batch`](crate::SweepMetrics::batch). Purely
/// informational — the report is bit-identical whether or not a presolve
/// ran at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// CS-CQ analysis points that passed the stability precheck and had
    /// no fault planned on their scope (the presolve's candidates,
    /// counted before deduplication).
    pub eligible: usize,
    /// Distinct questions filed. An eligible point whose three-moment
    /// report is already cached or being computed (say, recovered from
    /// the daemon's WAL, or filed by an earlier presolve), or whose key
    /// an earlier point of the same presolve carried, is not filed again,
    /// so it never counts here; the daemon's `svc_batch_dedup_hits`,
    /// computed as `points − unique`, counts it as a dedup hit.
    pub unique: usize,
    /// Always 0: no chains are solved in groups. Kept because the
    /// benchmark harness in `perfbench/` reads it as a share of `unique`.
    pub batched: usize,
    /// Questions whose report was filed: the filings that succeeded
    /// (errors are never cached; evaluation re-attributes them).
    pub seeded: usize,
    /// Otherwise-eligible points skipped because the armed fault plan
    /// targets their scope.
    pub skipped_faulted: usize,
}

impl std::ops::AddAssign for BatchStats {
    /// Sums two presolves' counts (a daemon adds one per drain).
    fn add_assign(&mut self, o: BatchStats) {
        self.eligible += o.eligible;
        self.unique += o.unique;
        self.batched += o.batched;
        self.seeded += o.seeded;
        self.skipped_faulted += o.skipped_faulted;
    }
}

/// Presolves the CS-CQ questions of `points` into `cache`, serially on
/// the calling thread, out of its scratch workspace (the same per-thread
/// workspace [`crate::run_query`] evaluates with): the presolve of one
/// worker, [`presolve_points_on`] at 1 thread.
///
/// A serving daemon calls it on the points of a drain, then answers each
/// query individually through [`crate::run_query`], which finds every
/// filed report in `cache`. In a drain scope those reports are journaled
/// here, in key order, before the first answer. A filed report is the
/// bits the per-query evaluation would have computed itself, deadline or
/// no deadline, so a presolve cannot move a byte of any response.
///
/// Fault-planned points are skipped (their ids are the same canonical
/// per-point fault scopes `run_query` enters), so injected failures
/// neither poison the shared cache nor get masked by a clean presolve.
pub fn presolve_points(points: &[Point], cache: &SolveCache) -> BatchStats {
    presolve_points_on(points, cache, 1)
}

/// Presolves the CS-CQ questions of `points` into `cache` on `threads`
/// workers of the shared pool (`cyclesteal_sim::parallel_map_isolated`):
/// the calling thread and `threads − 1` persistent helpers each claim
/// questions and file them out of their own thread's workspace.
///
/// The sweep engine calls it before its evaluation phase, at the sweep's
/// thread count. Planning (the filters, the dedupe, the key sort and
/// every tally) is serial, so the stats are independent of `threads`;
/// which thread files which question is not, and neither is the order
/// the reports land in, which only a journaling scope could see. At 1
/// thread the questions are filed in key order on the calling thread.
/// A question whose filing panics counts as not seeded, and evaluation
/// re-runs and attributes it.
pub fn presolve_points_on(points: &[Point], cache: &SolveCache, threads: usize) -> BatchStats {
    let mut stats = BatchStats::default();
    let questions = plan(points, cache, &mut stats);
    stats.unique = questions.len();
    let filed = parallel_map_isolated(&questions, threads, 1, |(_, hosts, params)| {
        // Root span: a question's spans aggregate under one path whichever
        // thread filed it.
        cyclesteal_obs::span_root!("sweep.presolve.question");
        let fit = BusyPeriodFit::ThreeMoment;
        crate::engine::WORKSPACE.with(|ws| {
            cs_cq_km::analyze_cached_in(*hosts, params, fit, cache, &mut ws.borrow_mut()).is_ok()
        })
    });
    stats.seeded = filed.into_iter().filter(|r| *r == Ok(true)).count();
    stats
}

/// The planning half of a presolve: filter to eligible points, skip each
/// whose report key is already answered or already planned, and return
/// the remaining questions in key order (tallying `stats`).
fn plan(
    points: &[Point],
    cache: &SolveCache,
    stats: &mut BatchStats,
) -> Vec<(ReportKey, Hosts, SystemParams)> {
    let mut seen = HashSet::new();
    let mut questions = Vec::new();
    for point in points {
        // Only what the evaluator would solve: CS-CQ analysis points with
        // a model on their fleet shape that pass the same Theorem-1
        // precheck (genuinely unstable points never reach the QBD solver).
        if point.evaluator != Evaluator::Analysis
            || point.policy != Policy::CsCq
            || !crate::engine::has_fleet_model(point)
            || !crate::engine::point_stable(point)
        {
            continue;
        }
        if fault::planned_site(&SweepRow::id_of(point)).is_some() {
            stats.skipped_faulted += 1;
            continue;
        }
        stats.eligible += 1;
        let (k, m) = point.hosts;
        let (Ok(hosts), Ok(params)) = (
            Hosts::new(k, m),
            SystemParams::from_loads(point.rho_s, point.mean_s, point.rho_l, point.long.moments()),
        ) else {
            // Evaluation attributes the failure; nothing to plan.
            continue;
        };
        // The first rung of the recovery ladder — the fit the evaluator
        // will try first; deeper rungs are rare and stay with evaluation.
        // A key already answered (or being answered) or planned needs no
        // filing.
        let key = cs_cq_km::report_key(hosts, &params, BusyPeriodFit::ThreeMoment);
        if cache.has_report(&key) || !seen.insert(key) {
            continue;
        }
        questions.push((key, hosts, params));
    }
    questions.sort_unstable_by_key(|(key, ..)| *key);
    questions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridSpec, LongLaw};
    use cyclesteal_xtest::fault::{Armed, FaultPlan};

    /// Holds a fault plan that never fires for the test's duration:
    /// `fault::arm` is process-wide, and a plan armed by a concurrently
    /// running test would otherwise make this test's points skip.
    fn quiet() -> Armed {
        fault::arm(FaultPlan::new(0, 0.0, &["qbd.solve"]))
    }

    fn cs_cq_points() -> Vec<Point> {
        let mut spec =
            GridSpec::analysis("batch_unit", vec![0.3, 0.5, 0.7, 0.9, 1.1], vec![0.3, 0.5]);
        spec.policies = vec![Policy::CsCq];
        spec.points()
    }

    #[test]
    fn presolve_seeds_every_eligible_chain_once() {
        let _quiet = quiet();
        let points = cs_cq_points();
        let cache = SolveCache::new();
        let stats = presolve_points(&points, &cache);
        assert_eq!(stats.eligible, points.len(), "all points stable and CS-CQ");
        assert!(stats.unique > 0);
        assert_eq!(stats.batched, 0);
        assert_eq!(
            stats.seeded, stats.unique,
            "every planned chain solves cleanly"
        );
        assert_eq!(stats.skipped_faulted, 0);
        // A second presolve over the same grid finds everything cached.
        let again = presolve_points(&points, &cache);
        assert_eq!(again.eligible, points.len());
        assert_eq!(again.unique, 0);
        assert_eq!(again.seeded, 0);
    }

    #[test]
    fn a_repeated_key_is_planned_once() {
        let _quiet = quiet();
        let points = cs_cq_points();
        let twice: Vec<Point> = points.iter().chain(&points).copied().collect();
        let stats = presolve_points(&twice, &SolveCache::new());
        assert_eq!(stats.eligible, twice.len());
        assert_eq!(stats.unique, points.len(), "{stats:?}");
    }

    /// A presolve files, and so journals, its questions in key order,
    /// each repeated key once, whatever the fleet shapes and the order the
    /// points arrive in.
    #[test]
    fn reports_are_journaled_in_key_order() {
        let _quiet = quiet();
        let mut spec = GridSpec::analysis("order", vec![0.3, 0.9, 1.1], vec![0.3, 0.6]);
        spec.policies = vec![Policy::CsCq];
        spec.long_laws = vec![
            LongLaw::exponential(1.0).unwrap(),
            LongLaw::balanced(1.0, 8.0).unwrap(),
        ];
        spec.hosts = vec![(2, 2), (1, 1)];
        let grid = spec.points();
        let points: Vec<Point> = grid.iter().chain(grid.iter().rev()).copied().collect();

        let mut keys: Vec<ReportKey> = grid
            .iter()
            .map(|point| {
                let hosts = Hosts::new(point.hosts.0, point.hosts.1).unwrap();
                let params = SystemParams::from_loads(
                    point.rho_s,
                    point.mean_s,
                    point.rho_l,
                    point.long.moments(),
                )
                .unwrap();
                cs_cq_km::report_key(hosts, &params, BusyPeriodFit::ThreeMoment)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), grid.len());
        let shapes: HashSet<_> = keys.iter().map(|&(.., hosts)| hosts).collect();
        assert_eq!(shapes.len(), 2, "two shapes");

        let root = SolveCache::new();
        let scope = root.scope();
        let stats = presolve_points(&points, &scope);
        assert_eq!(stats.unique, keys.len(), "{stats:?}");
        let filed: Vec<_> = scope
            .take_new_reports()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        assert_eq!(filed, keys);
    }

    #[test]
    fn non_cs_cq_and_unstable_points_are_not_planned() {
        let _quiet = quiet();
        let mut spec = GridSpec::analysis("filters", vec![0.5, 2.5], vec![0.5]);
        spec.policies = vec![Policy::Dedicated, Policy::CsId, Policy::CsCq];
        let stats = presolve_points(&spec.points(), &SolveCache::new());
        // Only the stable CS-CQ point (rho_s = 0.5) qualifies; rho_s = 2.5
        // is past the frontier at rho_l = 0.5.
        assert_eq!(stats.eligible, 1);
        assert_eq!(stats.unique, 1);
        assert_eq!(stats.batched, 0);
    }

    #[test]
    fn presolve_stats_are_input_order_independent() {
        let _quiet = quiet();
        let mut fwd = cs_cq_points();
        let a = presolve_points(&fwd, &SolveCache::new());
        fwd.reverse();
        let b = presolve_points(&fwd, &SolveCache::new());
        assert_eq!(a, b);
    }

    /// Regression: answers already in the cache (e.g. reports restored
    /// from a daemon's WAL, with no chain or solution beside them) used to
    /// be fitted, built, hashed and solved again by the planner.
    #[test]
    fn points_with_a_cached_report_are_not_planned() {
        let _quiet = quiet();
        let points = cs_cq_points();
        let warm = SolveCache::new();
        for point in &points {
            let params = SystemParams::from_loads(
                point.rho_s,
                point.mean_s,
                point.rho_l,
                point.long.moments(),
            )
            .unwrap();
            cs_cq_km::analyze_cached(Hosts::paper(), &params, BusyPeriodFit::ThreeMoment, &warm)
                .unwrap();
        }
        let restored = SolveCache::new();
        restored.restore_reports(warm.export_reports());
        let stats = presolve_points(&points, &restored);
        assert_eq!(stats.eligible, points.len());
        assert_eq!(stats.unique, 0, "{stats:?}");
        assert_eq!(stats.seeded, 0, "{stats:?}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn fault_planned_points_are_skipped() {
        let points = cs_cq_points();
        // Rate 1.0: every scope draws a fault, so every point is skipped.
        let plan = FaultPlan::new(7, 1.0, &["qbd.solve"]);
        let _armed = fault::arm(plan);
        let stats = presolve_points(&points, &SolveCache::new());
        assert_eq!(stats.skipped_faulted, points.len());
        assert_eq!(stats.eligible, 0);
        assert_eq!(stats.unique, 0);
        assert_eq!(stats.seeded, 0);
    }
}
