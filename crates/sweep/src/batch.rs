//! The presolve planner: collects a sweep's pending CS-CQ analysis
//! points, plans each distinct question once, and then, one question at a
//! time, builds its chain, solves it through [`Qbd::solve_in`] and drops
//! it, **before** the per-point evaluation phase, finishing each solution
//! into its question's report in the shared [`SolveCache`], so evaluation
//! finds every answer already there, under the report key it looks it up
//! by.
//!
//! A plan holds the question's busy-period fits and its phase layout,
//! which give the chain's dimensions without its blocks, so the planner
//! orders the questions by shape and at most one chain is built at a
//! time: a presolve of `n` questions holds `n` plans and one chain, not
//! `n` chains.
//!
//! # Why this cannot change a report
//!
//! The planner plans each question through [`cs_cq_km::plan_qbd_cached`]
//! and builds its chain through [`PlannedChain::build`], the exact
//! construction path the cached evaluation uses on a miss, for every
//! fleet shape alike, solves it with the same [`Qbd::solve_in`], and
//! reads the report off the solution by the same assembly body. A seeded
//! report is therefore the same bits evaluation would have computed
//! itself; the presolve phase is a pure reordering of work.
//! Error results are never seeded — a failing point re-runs the scalar
//! pipeline (recovery ladder included) during evaluation and gets its
//! ordinary attributed failure record.
//!
//! Points with a planned fault on their scope are skipped wholesale:
//! faulted points bypass the shared cache during evaluation (see the
//! engine), so presolving them would be wasted work at best and at worst
//! would let a clean presolve mask an injection site.
//!
//! [`Qbd::solve_in`]: cyclesteal_markov::Qbd::solve_in

use std::collections::HashSet;

use cyclesteal_core::cache::{PlannedChain, SolveCache};
use cyclesteal_core::cs_cq::BusyPeriodFit;
use cyclesteal_core::cs_cq_km::{self, Hosts};
use cyclesteal_core::stability::Policy;
use cyclesteal_core::SystemParams;
use cyclesteal_linalg::Workspace;
use cyclesteal_xtest::fault;

use crate::grid::{Evaluator, Point};
use crate::report::SweepRow;

/// What the batch presolve phase did, surfaced through
/// [`SweepMetrics::batch`](crate::SweepMetrics::batch). Purely
/// informational — the report is bit-identical whether or not a presolve
/// ran at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// CS-CQ analysis points that passed the stability precheck and had
    /// no fault planned on their scope (the planner's candidates,
    /// counted before deduplication).
    pub eligible: usize,
    /// Distinct report keys planned whose report was not already cached
    /// and whose chain built — the solves the presolve phase actually
    /// performed. An eligible
    /// point whose three-moment report is already cached or being computed
    /// (say, recovered from the daemon's WAL, or seeded by an earlier
    /// presolve), or whose key an earlier point of the same presolve
    /// carried, is not planned at all, so it never counts here; the
    /// daemon's `svc_batch_dedup_hits`, computed as `points − unique`,
    /// counts it as a dedup hit.
    pub unique: usize,
    /// Always 0: no chains are solved in groups any more.
    pub batches: usize,
    /// Always 0: every planned chain is solved on its own. Kept because
    /// the benchmark harness in `perfbench/` reads it as a share of
    /// `unique`.
    pub batched: usize,
    /// Chains solved, one by one, through
    /// [`Qbd::solve_in`](cyclesteal_markov::Qbd::solve_in): every planned
    /// chain that built, so this equals `unique`.
    pub scalar: usize,
    /// Reports filed from successful solves (failed solves are never
    /// seeded; evaluation re-attributes them scalar-side).
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
        self.batches += o.batches;
        self.batched += o.batched;
        self.scalar += o.scalar;
        self.seeded += o.seeded;
        self.skipped_faulted += o.skipped_faulted;
    }
}

/// Plans and presolves the CS-CQ questions of `points`, seeding `cache`.
///
/// Runs serially on the caller's thread (the engine invokes it before the
/// evaluation phase fans out), so the stats — like everything else about
/// the presolve — are independent of the sweep's thread count.
pub(crate) fn presolve(points: &[Point], cache: &SolveCache, ws: &mut Workspace) -> BatchStats {
    let mut stats = BatchStats::default();
    let planned = plan(points, cache, &mut stats);
    solve_and_seed(planned, cache, ws, &mut stats);
    stats
}

/// The query-stream presolve entry: plan, solve, and seed the
/// chains of `points` on the calling thread, using the calling thread's
/// scratch [`Workspace`] (the same per-thread workspace
/// [`crate::run_query`] evaluates with).
///
/// This is the seam a serving daemon shares with the sweep engine: a
/// worker that drained several compatible queries hands their points
/// here, then answers each query individually through the ordinary
/// scalar path — which now finds every planned question's report already
/// in `cache`. In a drain scope those reports are journaled here, before
/// the first answer. The bit-identity argument of the module docs applies
/// unchanged: a seeded report is the same bits the per-query evaluation
/// would have computed itself, deadline or no deadline, so batching can
/// coalesce a burst's factorizations without moving a byte of any
/// response.
///
/// Fault-planned points are skipped exactly as in a sweep presolve
/// (their ids are the same canonical per-point fault scopes `run_query`
/// enters), so injected failures neither poison the shared cache nor get
/// masked by a clean presolve.
pub fn presolve_points(points: &[Point], cache: &SolveCache) -> BatchStats {
    crate::engine::WORKSPACE.with(|ws| presolve(points, cache, &mut ws.borrow_mut()))
}

/// The planning half of a presolve: filter to batch-eligible points, skip
/// each whose report key is already answered or already planned, plan
/// each remaining question through the exact cached construction path
/// evaluation uses, building no chain, and return the plans in canonical
/// order (tallying `stats`).
fn plan(points: &[Point], cache: &SolveCache, stats: &mut BatchStats) -> Vec<PlannedChain> {
    let mut seen = HashSet::new();
    let mut planned = Vec::new();
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
        // will try first; deeper rungs are rare and stay scalar. A key
        // already answered (or being answered) or planned needs no chain.
        let fit = BusyPeriodFit::ThreeMoment;
        let key = cs_cq_km::report_key(hosts, &params, fit);
        if cache.has_report(&key) || !seen.insert(key) {
            continue;
        }
        if let Ok(plan) = cs_cq_km::plan_qbd_cached(hosts, &params, fit, cache) {
            planned.push(plan);
        }
    }
    // Canonical order: by shape, then by key within a shape. It makes the
    // order of the solves, and of the reports they file, independent of
    // the input permutation.
    planned.sort_by_key(|p| (p.boundary_dim(), p.phase_dim(), p.key()));
    planned
}

/// The solving half of a presolve: for each plan in turn, build its
/// chain, solve it, file the report of a successful solution, and drop
/// the chain before the next one is built.
fn solve_and_seed(
    planned: Vec<PlannedChain>,
    cache: &SolveCache,
    ws: &mut Workspace,
    stats: &mut BatchStats,
) {
    for plan in &planned {
        let Ok(chain) = plan.build() else {
            // Evaluation rebuilds it and attributes the failure.
            continue;
        };
        stats.unique += 1;
        stats.scalar += 1;
        if chain
            .solve_in(ws)
            .is_ok_and(|sol| cache.seed_qbd_solution(plan, sol))
        {
            stats.seeded += 1;
        }
    }
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
        let mut ws = Workspace::new();
        let stats = presolve(&points, &cache, &mut ws);
        assert_eq!(stats.eligible, points.len(), "all points stable and CS-CQ");
        assert!(stats.unique > 0);
        assert_eq!(stats.batched + stats.scalar, stats.unique);
        assert_eq!(
            stats.seeded, stats.unique,
            "every planned chain solves cleanly"
        );
        assert_eq!(stats.skipped_faulted, 0);
        // A second presolve over the same grid finds everything cached.
        let again = presolve(&points, &cache, &mut ws);
        assert_eq!(again.eligible, points.len());
        assert_eq!(again.unique, 0);
        assert_eq!(again.seeded, 0);
        assert_eq!(again.batches, 0);
    }

    #[test]
    fn a_repeated_key_is_planned_once() {
        let _quiet = quiet();
        let points = cs_cq_points();
        let twice: Vec<Point> = points.iter().chain(&points).copied().collect();
        let stats = presolve(&twice, &SolveCache::new(), &mut Workspace::new());
        assert_eq!(stats.eligible, twice.len());
        assert_eq!(stats.unique, points.len(), "{stats:?}");
    }

    /// Planning without building keeps the order of the presolve that
    /// built every chain before solving the first: by the built chain's
    /// shape, then by key, each repeated key once. The reports are filed,
    /// and so journaled, in that order.
    #[test]
    fn chains_are_solved_in_the_order_of_their_built_shapes() {
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

        let fit = BusyPeriodFit::ThreeMoment;
        let mut seen = HashSet::new();
        let mut built = Vec::new();
        for point in &points {
            let hosts = Hosts::new(point.hosts.0, point.hosts.1).unwrap();
            let params = SystemParams::from_loads(
                point.rho_s,
                point.mean_s,
                point.rho_l,
                point.long.moments(),
            )
            .unwrap();
            if seen.insert(cs_cq_km::report_key(hosts, &params, fit)) {
                let plan =
                    cs_cq_km::plan_qbd_cached(hosts, &params, fit, &SolveCache::new()).unwrap();
                let chain = plan.build().unwrap();
                built.push((chain.boundary_dim(), chain.phase_dim(), plan.key()));
            }
        }
        built.sort();
        assert_eq!(built.len(), grid.len());
        assert_ne!(built[0].0, built[built.len() - 1].0, "two shapes");

        let root = SolveCache::new();
        let scope = root.scope();
        let stats = presolve(&points, &scope, &mut Workspace::new());
        assert_eq!(stats.unique, built.len(), "{stats:?}");
        let filed: Vec<_> = scope
            .take_new_reports()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        let want: Vec<_> = built.into_iter().map(|(.., key)| key).collect();
        assert_eq!(filed, want);
    }

    #[test]
    fn non_cs_cq_and_unstable_points_are_not_planned() {
        let _quiet = quiet();
        let mut spec = GridSpec::analysis("filters", vec![0.5, 2.5], vec![0.5]);
        spec.policies = vec![Policy::Dedicated, Policy::CsId, Policy::CsCq];
        let cache = SolveCache::new();
        let mut ws = Workspace::new();
        let stats = presolve(&spec.points(), &cache, &mut ws);
        // Only the stable CS-CQ point (rho_s = 0.5) qualifies; rho_s = 2.5
        // is past the frontier at rho_l = 0.5.
        assert_eq!(stats.eligible, 1);
        assert_eq!(stats.unique, 1);
        assert_eq!(stats.scalar, 1, "a lone chain degenerates to scalar");
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn presolve_stats_are_input_order_independent() {
        let _quiet = quiet();
        let mut fwd = cs_cq_points();
        let cache_a = SolveCache::new();
        let cache_b = SolveCache::new();
        let mut ws = Workspace::new();
        let a = presolve(&fwd, &cache_a, &mut ws);
        fwd.reverse();
        let b = presolve(&fwd, &cache_b, &mut ws);
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
        let stats = presolve(&points, &restored, &mut Workspace::new());
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
        let cache = SolveCache::new();
        let mut ws = Workspace::new();
        let stats = presolve(&points, &cache, &mut ws);
        assert_eq!(stats.skipped_faulted, points.len());
        assert_eq!(stats.eligible, 0);
        assert_eq!(stats.unique, 0);
        assert_eq!(stats.seeded, 0);
    }
}
