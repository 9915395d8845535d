//! The answer check: a seeded sample of answers must equal, bit for bit,
//! an in-process `run_query` of the same point on a fresh cache.

use cyclesteal_core::cache::SolveCache;
use cyclesteal_svc::json::{self, Value};
use cyclesteal_sweep::{run_query, Point, SweepRow};

/// What a daemon response frame says, enough to route and count it.
pub struct Reply {
    /// The answered query's canonical id (`None` for sheds and errors).
    pub id: Option<String>,
    /// `true` for an answer with values and no failure record.
    pub good: bool,
}

pub fn read_reply(raw: &str) -> Reply {
    let Ok(doc) = json::parse(raw) else {
        return Reply {
            id: None,
            good: false,
        };
    };
    let id = doc.get("id").and_then(Value::as_str).map(str::to_string);
    let good = doc.get("ok").and_then(Value::as_bool) == Some(true)
        && doc.get("failure") == Some(&Value::Null)
        && doc.get("short_response").and_then(Value::as_f64).is_some();
    Reply { id, good }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn same_row(want: &SweepRow, got: &SweepRow) -> bool {
    want.id == got.id
        && bits(want.short_response) == bits(got.short_response)
        && bits(want.long_response) == bits(got.long_response)
        && want.attempts == got.attempts
        && want.degraded == got.degraded
        && want.failure == got.failure
}

/// A sweep row against the fresh in-process evaluation of its point.
pub fn row_matches(point: &Point, got: &SweepRow) -> bool {
    same_row(&run_query(point, &SolveCache::new(), None).row, got)
}

/// Two evaluations of the same grid, row by row and bit for bit.
pub fn rows_identical(a: &[SweepRow], b: &[SweepRow]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_row(x, y))
}

/// A daemon response against the fresh in-process evaluation of `point`.
pub fn response_matches(point: &Point, raw: &str) -> bool {
    let want = run_query(point, &SolveCache::new(), None);
    let Ok(doc) = json::parse(raw) else {
        return false;
    };
    let num = |key: &str| match doc.get(key) {
        Some(Value::Null) => Some(None),
        Some(v) => v.as_f64().map(|x| Some(x.to_bits())),
        None => None,
    };
    let row = &want.row;
    doc.get("ok").and_then(Value::as_bool) == Some(true)
        && doc.get("id").and_then(Value::as_str) == Some(row.id.as_str())
        && num("short_response") == Some(bits(row.short_response))
        && num("long_response") == Some(bits(row.long_response))
        && doc.get("attempts").and_then(Value::as_u64) == Some(u64::from(row.attempts))
        && doc.get("degraded").and_then(Value::as_bool) == Some(row.degraded)
        && doc.get("steered").and_then(Value::as_bool) == Some(want.steered)
        && row.failure.is_none()
        && doc.get("failure") == Some(&Value::Null)
}
