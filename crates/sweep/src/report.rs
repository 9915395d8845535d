//! Stable sweep reports: rows keyed by a canonical id, serialized to a
//! deterministic JSON document in the xtest bench envelope — including
//! **attributed failure records** for every point that could not be
//! evaluated for a reason other than genuine instability.

use cyclesteal_core::cache::CacheStats;
use cyclesteal_obs::json_str;

use crate::grid::{policy_name, Evaluator, Point};

/// Why a point failed, after every applicable recovery ladder was
/// exhausted. One variant per *root cause*, so report consumers can
/// aggregate and alert without parsing prose.
///
/// Genuine instability detected by the Theorem-1 precheck is **not** a
/// failure: those points are the off-the-curve cells of the paper's
/// figures and stay as silent `null`s. `Unstable` here marks the narrow
/// frontier band where the precheck passed but the solver still reported
/// instability (margin disagreement) — attributed, because it is
/// numerics, not workload.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The solver reported instability for a point the stability
    /// precheck accepted (roundoff-width frontier band).
    Unstable,
    /// A distribution query dropped more tail mass than tolerated even at
    /// the deepest truncation the escalation budget allowed.
    Truncated {
        /// Deepest truncation point attempted.
        n_max: usize,
        /// Tail mass that would have been silently lost there.
        tail_mass: f64,
    },
    /// Fixed-point iteration failed on every rung of the retry ladder.
    NoConvergence {
        /// The algorithm (or algorithm chain) that gave up.
        algorithm: String,
        /// Iterations performed by the final attempt.
        iterations: usize,
    },
    /// No distribution fit exists for the requested parameters (e.g. an
    /// infeasible moment triple, or `C² < 1` with no H₂ representative).
    InfeasibleFit {
        /// Human-readable reason from the fitting layer.
        reason: String,
    },
    /// A computation produced NaN/±∞ from finite inputs and was caught at
    /// a named taint boundary instead of contaminating the report.
    NonFinite {
        /// The boundary that caught the value (e.g. `"dist.busy.mg1"`).
        site: String,
    },
    /// A deadline-budgeted query ran out of time before any rung of the
    /// degradation ladder could produce an answer (the service layer's
    /// admission deadline, not a numeric failure — retrying with a larger
    /// budget would succeed).
    Timeout {
        /// The ladder stage the budget died at (a fit name such as
        /// `"three_moment"`, or `"admission"` when the query expired in
        /// the queue before evaluation started).
        stage: String,
    },
    /// The point's evaluation panicked; the worker caught the unwind at
    /// the point boundary and kept draining the queue.
    Panicked {
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
    },
    /// Any solver error outside the taxonomy above.
    Other {
        /// The error's display text.
        message: String,
    },
}

impl FailureKind {
    /// Stable snake_case tag of the variant (the JSON `"kind"` field).
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Unstable => "unstable",
            FailureKind::Truncated { .. } => "truncated",
            FailureKind::NoConvergence { .. } => "no_convergence",
            FailureKind::InfeasibleFit { .. } => "infeasible_fit",
            FailureKind::NonFinite { .. } => "non_finite",
            FailureKind::Timeout { .. } => "timeout",
            FailureKind::Panicked { .. } => "panicked",
            FailureKind::Other { .. } => "other",
        }
    }
}

/// The failure record attached to a row that could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// Root cause, post-recovery.
    pub kind: FailureKind,
    /// Ladder rungs tried before giving up (`1` = failed first try with
    /// no applicable recovery).
    pub attempts: u32,
}

impl PointFailure {
    /// The deterministic JSON object [`SweepReport::to_json`] embeds as a
    /// row's `"failure"` field — public so other serializers (the service
    /// layer's query responses) attribute failures byte-identically.
    pub fn to_json(&self) -> String {
        let detail = match &self.kind {
            FailureKind::Unstable => String::new(),
            FailureKind::Truncated { n_max, tail_mass } => {
                format!(", \"n_max\": {n_max}, \"tail_mass\": {tail_mass}")
            }
            FailureKind::NoConvergence {
                algorithm,
                iterations,
            } => format!(
                ", \"algorithm\": {}, \"iterations\": {iterations}",
                json_str(algorithm)
            ),
            FailureKind::InfeasibleFit { reason } => {
                format!(", \"reason\": {}", json_str(reason))
            }
            FailureKind::NonFinite { site } => format!(", \"site\": {}", json_str(site)),
            FailureKind::Timeout { stage } => format!(", \"stage\": {}", json_str(stage)),
            FailureKind::Panicked { message } | FailureKind::Other { message } => {
                format!(", \"message\": {}", json_str(message))
            }
        };
        format!(
            "{{\"kind\": {}{}, \"attempts\": {}}}",
            json_str(self.kind.name()),
            detail,
            self.attempts
        )
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Canonical id: a pure function of the point's parameters (never of
    /// its position in the input), so reports sort identically no matter
    /// how the grid was ordered or sharded.
    pub id: String,
    /// Policy display name (`dedicated` / `cs_id` / `cs_cq`).
    pub policy: &'static str,
    /// Short-class load.
    pub rho_s: f64,
    /// Long-class load.
    pub rho_l: f64,
    /// Mean short-job size.
    pub mean_s: f64,
    /// Mean long-job size.
    pub long_mean: f64,
    /// Long-job squared coefficient of variation.
    pub long_scv: f64,
    /// Mean short-class response time (`None` when unstable/undefined).
    pub short_response: Option<f64>,
    /// Mean long-class response time (`None` when unstable/undefined).
    pub long_response: Option<f64>,
    /// 95% CI half-width of the short mean (simulation rows only).
    pub short_ci: Option<f64>,
    /// 95% CI half-width of the long mean (simulation rows only).
    pub long_ci: Option<f64>,
    /// Solver attempts spent on this point (`1` = primary method,
    /// first try; `> 1` = a recovery ladder escalated).
    pub attempts: u32,
    /// `true` when the values come from a documented fallback method
    /// (e.g. a two-moment busy-period fit) rather than the primary one.
    pub degraded: bool,
    /// The attributed failure, when the point could not be evaluated for
    /// any reason other than genuine (precheck) instability.
    pub failure: Option<PointFailure>,
}

impl SweepRow {
    /// The canonical id of `point` — also the simulation seed material.
    pub fn id_of(point: &Point) -> String {
        let eval = match point.evaluator {
            Evaluator::Analysis => "analysis".to_string(),
            Evaluator::Simulation {
                total_jobs,
                reps,
                base_seed,
            } => format!("sim:j{total_jobs}:r{reps}:s{base_seed}"),
        };
        // Rust's f64 Display is shortest-round-trip and deterministic, so
        // the id (and everything keyed on it) is reproducible bit-for-bit.
        // The fleet suffix appears only for non-(1,1) shapes: the paper's
        // 2-host points keep their pre-fleet ids, so goldens and derived
        // simulation seeds are untouched.
        let hosts = if point.hosts == (1, 1) {
            String::new()
        } else {
            format!("|hosts={}x{}", point.hosts.0, point.hosts.1)
        };
        format!(
            "{}|rho_s={}|rho_l={}|mean_s={}|lmean={}|lscv={}|{}{}{}",
            policy_name(point.policy),
            point.rho_s,
            point.rho_l,
            point.mean_s,
            point.long.mean(),
            point.long.scv(),
            eval,
            if point.extend_longs { "|ext" } else { "" },
            hosts,
        )
    }

    /// An unevaluated row for `point`: all values `None`, one attempt, no
    /// failure. The engine fills it in.
    pub fn blank(point: &Point) -> SweepRow {
        SweepRow {
            id: SweepRow::id_of(point),
            policy: policy_name(point.policy),
            rho_s: point.rho_s,
            rho_l: point.rho_l,
            mean_s: point.mean_s,
            long_mean: point.long.mean(),
            long_scv: point.long.scv(),
            short_response: None,
            long_response: None,
            short_ci: None,
            long_ci: None,
            attempts: 1,
            degraded: false,
            failure: None,
        }
    }

    /// The row for a point whose evaluation panicked: values `None`, the
    /// caught message attributed as [`FailureKind::Panicked`].
    pub fn panicked(point: &Point, message: String) -> SweepRow {
        let mut row = SweepRow::blank(point);
        row.record_failure(FailureKind::Panicked { message });
        row
    }

    /// Attaches a failure record, snapshotting the row's current attempt
    /// count (so escalation metadata set before the final error survives
    /// into the record).
    pub fn record_failure(&mut self, kind: FailureKind) {
        self.failure = Some(PointFailure {
            kind,
            attempts: self.attempts,
        });
    }
}

/// A completed sweep: rows sorted by canonical id, independent of input
/// order, thread count, and scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (JSON header).
    pub name: String,
    /// Rows in canonical (id-sorted) order.
    pub rows: Vec<SweepRow>,
    /// The run's telemetry delta, **counts only** (counters, histogram
    /// contents, span close-counts — see [`cyclesteal_obs::ObsSnapshot::counts_only`]).
    /// `Some` exactly when the obs runtime was recording during the run;
    /// counts are pure functions of the evaluated points, so the report
    /// stays bit-identical across thread counts with telemetry embedded.
    pub obs: Option<cyclesteal_obs::ObsSnapshot>,
}

impl SweepReport {
    /// Looks a row up by its canonical id.
    pub fn get(&self, id: &str) -> Option<&SweepRow> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// Looks the row for `point` up.
    pub fn get_point(&self, point: &Point) -> Option<&SweepRow> {
        self.get(&SweepRow::id_of(point))
    }

    /// Serializes to deterministic JSON in the xtest bench envelope
    /// (`harness`/`version`/`name`/`results`), with sweep rows as the
    /// results, `null` marking unstable/undefined values, and failure
    /// records as per-row `"failure"` objects. Timings and cache counters
    /// deliberately live in [`SweepMetrics`], not here — this document is
    /// the *reproducible* artifact.
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x}"),
            _ => "null".to_string(),
        };
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"harness\": \"cyclesteal-xtest\",\n  \"version\": 1,\n");
        json.push_str("  \"kind\": \"sweep\",\n");
        json.push_str(&format!("  \"name\": {},\n", json_str(&self.name)));
        match &self.obs {
            Some(snap) => json.push_str(&format!("  \"obs\": {},\n", snap.counts_json())),
            None => json.push_str("  \"obs\": null,\n"),
        }
        json.push_str("  \"results\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"id\": {}, \"policy\": {}, \"rho_s\": {}, \"rho_l\": {}, \
                 \"mean_s\": {}, \"long_mean\": {}, \"long_scv\": {}, \
                 \"short\": {}, \"long\": {}, \"short_ci\": {}, \"long_ci\": {}, \
                 \"attempts\": {}, \"degraded\": {}, \"failure\": {}}}{}\n",
                json_str(&r.id),
                json_str(r.policy),
                r.rho_s,
                r.rho_l,
                r.mean_s,
                r.long_mean,
                r.long_scv,
                num(r.short_response),
                num(r.long_response),
                num(r.short_ci),
                num(r.long_ci),
                r.attempts,
                r.degraded,
                failure_json(&r.failure),
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// Serializes a failure record (`null` for a clean row). Deterministic:
/// every field is either a tag, an integer, or an f64 printed with Rust's
/// shortest-round-trip Display.
fn failure_json(failure: &Option<PointFailure>) -> String {
    match failure {
        Some(f) => f.to_json(),
        None => "null".to_string(),
    }
}

/// Per-kind failure totals of a sweep run — the at-a-glance health
/// summary surfaced through [`SweepMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureCounts {
    /// Frontier-band solver instability ([`FailureKind::Unstable`]).
    pub unstable: u64,
    /// Truncation budgets exhausted ([`FailureKind::Truncated`]).
    pub truncated: u64,
    /// Iteration ladders exhausted ([`FailureKind::NoConvergence`]).
    pub no_convergence: u64,
    /// Infeasible fits ([`FailureKind::InfeasibleFit`]).
    pub infeasible_fit: u64,
    /// Non-finite taints ([`FailureKind::NonFinite`]).
    pub non_finite: u64,
    /// Deadline budgets exhausted ([`FailureKind::Timeout`]).
    pub timeout: u64,
    /// Caught panics ([`FailureKind::Panicked`]).
    pub panicked: u64,
    /// Everything else ([`FailureKind::Other`]).
    pub other: u64,
}

impl FailureCounts {
    /// Tallies the failure records of `rows`.
    pub fn tally(rows: &[SweepRow]) -> Self {
        let mut c = FailureCounts::default();
        for row in rows {
            let Some(f) = &row.failure else { continue };
            match f.kind {
                FailureKind::Unstable => c.unstable += 1,
                FailureKind::Truncated { .. } => c.truncated += 1,
                FailureKind::NoConvergence { .. } => c.no_convergence += 1,
                FailureKind::InfeasibleFit { .. } => c.infeasible_fit += 1,
                FailureKind::NonFinite { .. } => c.non_finite += 1,
                FailureKind::Timeout { .. } => c.timeout += 1,
                FailureKind::Panicked { .. } => c.panicked += 1,
                FailureKind::Other { .. } => c.other += 1,
            }
        }
        c
    }

    /// Total failed points across all kinds.
    pub fn total(&self) -> u64 {
        self.unstable
            + self.truncated
            + self.no_convergence
            + self.infeasible_fit
            + self.non_finite
            + self.timeout
            + self.panicked
            + self.other
    }
}

/// Observability side-channel of a sweep run: wall-clock, per-point
/// timings, cache counters, and failure tallies. Kept out of
/// [`SweepReport::to_json`] so the report stays bit-identical across
/// thread counts.
#[derive(Debug, Clone)]
pub struct SweepMetrics {
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Total wall-clock nanoseconds.
    pub elapsed_ns: u64,
    /// Per-point `(canonical id, nanoseconds)` in input order.
    pub point_ns: Vec<(String, u64)>,
    /// Cache counters at the end of the run (cumulative when a shared
    /// cache was passed in).
    pub cache: CacheStats,
    /// Failure tallies over the report's rows (a pure function of the
    /// report; duplicated here so health checks don't re-scan rows).
    pub failures: FailureCounts,
    /// What the presolve phase did (all zeros when the run was
    /// configured scalar). Informational only: the presolve files the
    /// reports evaluation would have computed, so these counters never
    /// correlate with a report difference.
    pub batch: crate::batch::BatchStats,
    /// The run's **full** telemetry delta — counts *plus* the timing
    /// class (span `total_ns`, gauges) that the report's embedded
    /// [`SweepReport::obs`] deliberately strips. `Some` exactly when the
    /// obs runtime was recording.
    pub obs: Option<cyclesteal_obs::ObsSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LongLaw;
    use cyclesteal_core::stability::Policy;

    fn row(id: &str, short: Option<f64>) -> SweepRow {
        SweepRow {
            id: id.to_string(),
            policy: "cs_cq",
            rho_s: 1.0,
            rho_l: 0.5,
            mean_s: 1.0,
            long_mean: 1.0,
            long_scv: 1.0,
            short_response: short,
            long_response: Some(2.0),
            short_ci: None,
            long_ci: None,
            attempts: 1,
            degraded: false,
            failure: None,
        }
    }

    #[test]
    fn json_marks_missing_values_null() {
        let rep = SweepReport {
            name: "t".into(),
            rows: vec![row("a", Some(1.5)), row("b", None)],
            obs: None,
        };
        let json = rep.to_json();
        assert!(json.contains("\"kind\": \"sweep\""));
        assert!(json.contains("\"short\": 1.5"));
        assert!(json.contains("\"short\": null"));
        assert!(json.contains("\"failure\": null"));
        assert_eq!(json.matches("\"long\": 2").count(), 2);
    }

    #[test]
    fn failure_records_serialize_with_kind_specific_fields() {
        let mut nc = row("nc", None);
        nc.attempts = 3;
        nc.degraded = true;
        nc.record_failure(FailureKind::NoConvergence {
            algorithm: "logarithmic reduction".into(),
            iterations: 128,
        });
        let mut panicked = row("boom", None);
        panicked.record_failure(FailureKind::Panicked {
            message: "a \"quoted\" cause".into(),
        });
        let rep = SweepReport {
            name: "f".into(),
            rows: vec![nc, panicked],
            obs: None,
        };
        let json = rep.to_json();
        assert!(json.contains(
            "\"failure\": {\"kind\": \"no_convergence\", \"algorithm\": \
             \"logarithmic reduction\", \"iterations\": 128, \"attempts\": 3}"
        ));
        assert!(json.contains("\"attempts\": 3, \"degraded\": true"));
        assert!(json.contains("\"kind\": \"panicked\""));
        assert!(json.contains("a \\\"quoted\\\" cause"));
    }

    #[test]
    fn timeout_failures_serialize_and_tally() {
        let mut t = row("t", None);
        t.record_failure(FailureKind::Timeout {
            stage: "three_moment".into(),
        });
        assert_eq!(
            t.failure.as_ref().unwrap().to_json(),
            "{\"kind\": \"timeout\", \"stage\": \"three_moment\", \"attempts\": 1}"
        );
        let rep = SweepReport {
            name: "t".into(),
            rows: vec![t.clone()],
            obs: None,
        };
        assert!(rep
            .to_json()
            .contains("\"kind\": \"timeout\", \"stage\": \"three_moment\""));
        let counts = FailureCounts::tally(&[t]);
        assert_eq!(counts.timeout, 1);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn failure_counts_tally_by_kind() {
        let mut a = row("a", None);
        a.record_failure(FailureKind::Unstable);
        let mut b = row("b", None);
        b.record_failure(FailureKind::NonFinite {
            site: "dist.busy.mg1".into(),
        });
        let mut c = row("c", None);
        c.record_failure(FailureKind::NonFinite {
            site: "linalg.lu".into(),
        });
        let clean = row("d", Some(1.0));
        let counts = FailureCounts::tally(&[a, b, c, clean]);
        assert_eq!(counts.unstable, 1);
        assert_eq!(counts.non_finite, 2);
        assert_eq!(counts.panicked, 0);
        assert_eq!(counts.total(), 3);
    }

    #[test]
    fn id_is_a_pure_function_of_the_point() {
        let p = Point {
            rho_s: 0.9,
            rho_l: 0.5,
            mean_s: 1.0,
            long: LongLaw::exponential(1.0).unwrap(),
            policy: Policy::CsCq,
            evaluator: Evaluator::Analysis,
            extend_longs: false,
            hosts: (1, 1),
        };
        assert_eq!(SweepRow::id_of(&p), SweepRow::id_of(&p.clone()));
        let q = Point { rho_s: 1.0, ..p };
        assert_ne!(SweepRow::id_of(&p), SweepRow::id_of(&q));
        let s = Point {
            evaluator: Evaluator::Simulation {
                total_jobs: 100,
                reps: 2,
                base_seed: 7,
            },
            ..p
        };
        assert!(SweepRow::id_of(&s).contains("sim:j100:r2:s7"));
    }

    /// The fleet dimension must be invisible at `(1, 1)` — existing ids
    /// (and the simulation seeds derived from them) are frozen — and must
    /// distinguish every other shape.
    #[test]
    fn hosts_suffix_only_for_non_paper_shapes() {
        let p = Point {
            rho_s: 0.9,
            rho_l: 0.5,
            mean_s: 1.0,
            long: LongLaw::exponential(1.0).unwrap(),
            policy: Policy::CsCq,
            evaluator: Evaluator::Analysis,
            extend_longs: false,
            hosts: (1, 1),
        };
        let id = SweepRow::id_of(&p);
        assert!(!id.contains("hosts"), "(1,1) keeps the pre-fleet id: {id}");
        assert_eq!(
            id,
            "cs_cq|rho_s=0.9|rho_l=0.5|mean_s=1|lmean=1|lscv=1|analysis"
        );
        let f = Point { hosts: (2, 4), ..p };
        let fid = SweepRow::id_of(&f);
        assert!(fid.ends_with("|hosts=2x4"), "{fid}");
        assert_ne!(SweepRow::id_of(&Point { hosts: (4, 2), ..p }), fid);
    }
}
