//! The query-sized entry point: evaluate **one** scenario point under an
//! optional deadline budget.
//!
//! Batch sweeps ([`crate::run_points`]) amortize planning and fan out
//! across a pool; a long-running capacity-planning service instead fields
//! a *stream* of single scenario questions, each carrying its own time
//! budget. [`run_query`] is that seam: one point in, one [`SweepRow`] out,
//! through exactly the same evaluation pipeline the sweep engine uses —
//! the same quantized-key [`SolveCache`], the same recovery ladders, the
//! same failure taxonomy — so a query's answer is bit-identical to the
//! row a sweep would produce for the same point.
//!
//! # Deadline semantics
//!
//! The caller starts the [`Deadline`] at *admission* (when the request was
//! accepted), not when evaluation begins, so queue time counts against the
//! budget:
//!
//! * expired before evaluation starts → a [`FailureKind::Timeout`] record
//!   with `stage: "admission"`, and no solver work at all;
//! * expired mid-ladder → the deadline-steered ladder of
//!   [`cyclesteal_core::recover`] serves a degraded answer where it can
//!   afford one, or a `timeout` record naming the unaffordable stage;
//! * un-budgeted (`deadline: None`) → byte-for-byte the sweep engine's
//!   behaviour.

use cyclesteal_core::cache::SolveCache;
use cyclesteal_core::recover::Deadline;

use crate::engine;
use crate::grid::Point;
use crate::report::{FailureKind, SweepReport, SweepRow};

/// One answered query: the evaluated row plus deadline metadata the row
/// itself cannot express.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The evaluated row — values, attempts, `degraded`, and the
    /// attributed failure, exactly as a sweep would report this point.
    pub row: SweepRow,
    /// `true` when the deadline (not a numeric failure) steered the
    /// recovery ladder to a cheaper rung. A steered row is always also
    /// `degraded`.
    pub steered: bool,
}

/// Evaluates one point, optionally under a deadline started at admission.
///
/// The evaluation is the sweep engine's own per-point body: scoped for
/// fault injection under the row's canonical id, on the caller's thread,
/// reusing the calling thread's scratch workspace. Failure of any kind —
/// including a deadline timeout — is an attributed record in the returned
/// row, never a panic or a dropped answer.
pub fn run_query(
    point: &Point,
    cache: &SolveCache,
    deadline: Option<&Deadline<'_>>,
) -> QueryOutcome {
    cyclesteal_obs::span_root!("sweep.query");
    cyclesteal_obs::counter!("sweep.query.count");
    let (row, steered) = engine::evaluate_point(point, cache, deadline, |row| {
        if deadline.is_some_and(Deadline::expired) {
            // Spent its whole budget waiting in the queue: not even the
            // cheapest rung can start, and the admission layer (not a fit
            // stage) is the honest attribution.
            cyclesteal_obs::counter!("sweep.query.timeout");
            row.record_failure(FailureKind::Timeout {
                stage: "admission".to_string(),
            });
            return None;
        }
        // Separates evaluation proper from admission/cache plumbing in
        // per-query traces and the daemon's span series.
        Some(cyclesteal_obs::span_enter("sweep.query.evaluate"))
    });
    let Some(steered) = steered else {
        return QueryOutcome {
            row,
            steered: false,
        };
    };
    cyclesteal_obs::histogram!("sweep.query.attempts", u64::from(row.attempts));
    if row.degraded {
        cyclesteal_obs::counter!("sweep.query.degraded");
    }
    if matches!(
        row.failure,
        Some(crate::report::PointFailure {
            kind: FailureKind::Timeout { .. },
            ..
        })
    ) {
        cyclesteal_obs::counter!("sweep.query.timeout");
    }
    QueryOutcome { row, steered }
}

/// Answers each of `points` on its own through [`run_query`], un-budgeted,
/// on one fresh [`SolveCache`], and collects the rows, sorted by id, into
/// a report named `name`: the one evaluation body, with no presolve and
/// no pool. It is the oracle the tests hold a sweep's report to, byte for
/// byte.
pub fn run_queries(name: &str, points: &[Point]) -> SweepReport {
    let cache = SolveCache::new();
    let mut rows: Vec<SweepRow> = points
        .iter()
        .map(|point| run_query(point, &cache, None).row)
        .collect();
    rows.sort_by(|a, b| a.id.cmp(&b.id));
    SweepReport {
        name: name.to_string(),
        rows,
        obs: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Evaluator, LongLaw};
    use crate::{run_points, SweepOptions};
    use cyclesteal_core::recover::Deadline;
    use cyclesteal_core::stability::Policy;
    use cyclesteal_xtest::clock::StepClock;

    fn point(rho_s: f64) -> Point {
        Point {
            rho_s,
            rho_l: 0.5,
            mean_s: 1.0,
            long: LongLaw::exponential(1.0).unwrap(),
            policy: Policy::CsCq,
            evaluator: Evaluator::Analysis,
            extend_longs: false,
            hosts: (1, 1),
        }
    }

    #[test]
    fn unbudgeted_query_is_bit_identical_to_the_sweep_row() {
        let p = point(1.1);
        let cache = SolveCache::new();
        let outcome = run_query(&p, &cache, None);
        let (rep, _) = run_points("oracle", &[p], &SweepOptions::default());
        assert_eq!(outcome.row, rep.rows[0]);
        assert!(!outcome.steered);
    }

    #[test]
    fn expired_at_admission_times_out_without_solving() {
        let p = point(1.1);
        let cache = SolveCache::new();
        let clock = StepClock::new(0, 0);
        let f = clock.as_fn();
        let deadline = Deadline::start(&f, 100);
        clock.advance(100); // queue wait ate the whole budget
        let outcome = run_query(&p, &cache, Some(&deadline));
        let failure = outcome.row.failure.expect("must be attributed");
        assert_eq!(
            failure.kind,
            FailureKind::Timeout {
                stage: "admission".to_string()
            }
        );
        assert_eq!(outcome.row.short_response, None);
        assert!(cache.is_empty(), "no solver work may start");
    }

    #[test]
    fn ample_budget_matches_the_unbudgeted_answer_bitwise() {
        let p = point(1.1);
        let cache = SolveCache::new();
        let clock = StepClock::new(0, 0);
        let f = clock.as_fn();
        let deadline = Deadline::start(&f, u64::MAX);
        let budgeted = run_query(&p, &cache, Some(&deadline));
        let plain = run_query(&p, &SolveCache::new(), None);
        assert_eq!(budgeted.row, plain.row);
        assert!(!budgeted.steered);
    }

    #[test]
    fn unstable_point_is_null_data_even_with_a_deadline() {
        let p = point(1.8); // rho_s > 2 - rho_l: genuinely unstable
        let cache = SolveCache::new();
        let clock = StepClock::new(0, 0);
        let f = clock.as_fn();
        let deadline = Deadline::start(&f, u64::MAX);
        let outcome = run_query(&p, &cache, Some(&deadline));
        assert_eq!(outcome.row.short_response, None);
        assert!(outcome.row.failure.is_none(), "instability is data");
    }
}
