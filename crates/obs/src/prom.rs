//! Prometheus text-exposition rendering over [`ObsSnapshot`], plus the
//! matching parser/validator used by tests and the `svc_client metrics`
//! command.
//!
//! # Naming convention
//!
//! Registry names are dotted (`svc.drain.requested`); exposition names must
//! match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so every invalid character maps to
//! `_` (a leading digit gets a `_` prefix). A registry name may embed
//! labels after a `|` separator — `svc.drain.requested|via=signal`
//! renders as `svc_drain_requested_total{via="signal"}` — which is
//! how one logical metric fans out into labeled series while the registry
//! itself stays a flat name→value table.
//!
//! # Type mapping
//!
//! * **counters** → `<name>_total` counter series;
//! * **gauges** → `<name>` gauge series;
//! * **histograms** → `<name>` histogram: the bit-length buckets of
//!   [`Hist`] become *cumulative* `le` buckets (bucket `i` covers
//!   `[2^(i-1), 2^i)`, so its inclusive upper bound `2^i - 1` is the `le`
//!   value), `+Inf` equals `_count` (overflowed values are counted, just
//!   unbucketed), and `_sum`/`_count` come straight from the histogram;
//! * **spans** → `obs_span_total{path="..."}` (deterministic close
//!   counts) and `obs_span_seconds_total{path="..."}` (timing-class).
//!
//! Rendering is a pure function of the snapshot: scraping twice against
//! an unchanged registry yields byte-identical bodies, which is what the
//! daemon's scrape-vs-snapshot bit-match gate asserts.

use crate::hist::Hist;
use crate::snapshot::ObsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Label pairs of one series, in render order.
type Labels = Vec<(String, String)>;
/// Series of each final metric name, grouped so one `# TYPE` line covers
/// all of them.
type Grouped<V> = BTreeMap<String, Vec<(Labels, V)>>;

/// Maps an arbitrary registry name onto a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, a
/// leading digit is prefixed with `_`, and the empty string becomes `_`.
pub fn sanitize_metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' {
            out.push(c);
        } else if c.is_ascii_digit() {
            if out.is_empty() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Like [`sanitize_metric_name`] but for label names, which additionally
/// forbid `:`.
pub fn sanitize_label_name(raw: &str) -> String {
    sanitize_metric_name(raw).replace(':', "_")
}

/// Escapes a label value for the text exposition format: backslash,
/// double quote, and newline are the only characters that need escaping.
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry name into `(metric_name, labels)` under the `|`
/// convention: `base|k1=v1,k2=v2`. Label values are taken verbatim (they
/// are escaped at render time); label names are sanitized.
fn split_labels(raw: &str) -> (String, Labels) {
    match raw.split_once('|') {
        None => (sanitize_metric_name(raw), Vec::new()),
        Some((base, labels)) => {
            let mut out = Vec::new();
            for pair in labels.split(',') {
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                out.push((sanitize_label_name(k), v.to_string()));
            }
            (sanitize_metric_name(base), out)
        }
    }
}

fn fmt_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn fmt_labels_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut all: Vec<(String, String)> = labels.to_vec();
    all.push(("le".to_string(), le.to_string()));
    fmt_labels(&all)
}

/// Renders `snap` as Prometheus text exposition (format version 0.0.4).
///
/// Series of the same final metric name are grouped under a single
/// `# TYPE` line (required by the format even when distinct registry
/// names collapse onto one exposition name).
pub fn render_prometheus(snap: &ObsSnapshot) -> String {
    let mut out = String::new();

    // Counters, grouped by final metric name so every labeled series of
    // one metric sits under one TYPE line.
    let mut counters: Grouped<u64> = BTreeMap::new();
    for (raw, v) in &snap.counters {
        let (base, labels) = split_labels(raw);
        counters
            .entry(base + "_total")
            .or_default()
            .push((labels, *v));
    }
    for (name, series) in &counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (labels, v) in series {
            let _ = writeln!(out, "{name}{} {v}", fmt_labels(labels));
        }
    }

    let mut gauges: Grouped<u64> = BTreeMap::new();
    for (raw, v) in &snap.gauges {
        let (base, labels) = split_labels(raw);
        gauges.entry(base).or_default().push((labels, *v));
    }
    for (name, series) in &gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (labels, v) in series {
            let _ = writeln!(out, "{name}{} {v}", fmt_labels(labels));
        }
    }

    let mut hists: Grouped<&Hist> = BTreeMap::new();
    for (raw, h) in &snap.histograms {
        let (base, labels) = split_labels(raw);
        hists.entry(base).or_default().push((labels, h));
    }
    for (name, series) in &hists {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (labels, h) in series {
            // Cumulative buckets: every index up to the highest non-empty
            // one, so the `le` ladder has no gaps a consumer must infer.
            let max_idx = h.buckets.iter().rposition(|&n| n > 0);
            let mut cum = 0u64;
            if let Some(max_idx) = max_idx {
                for (i, &n) in h.buckets.iter().enumerate().take(max_idx + 1) {
                    cum += n;
                    let (_, hi) = Hist::bucket_bounds(i);
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cum}",
                        fmt_labels_with_le(labels, &hi.to_string())
                    );
                }
            }
            // +Inf includes overflowed values: they are counted, just not
            // resolvable to a finite bucket.
            let _ = writeln!(
                out,
                "{name}_bucket{} {}",
                fmt_labels_with_le(labels, "+Inf"),
                h.count
            );
            let _ = writeln!(out, "{name}_sum{} {}", fmt_labels(labels), h.sum);
            let _ = writeln!(out, "{name}_count{} {}", fmt_labels(labels), h.count);
        }
    }

    if !snap.spans.is_empty() {
        let _ = writeln!(out, "# TYPE obs_span_total counter");
        for e in &snap.spans {
            let _ = writeln!(
                out,
                "obs_span_total{{path=\"{}\"}} {}",
                escape_label_value(&e.path),
                e.count
            );
        }
        let _ = writeln!(out, "# TYPE obs_span_seconds_total counter");
        for e in &snap.spans {
            let _ = writeln!(
                out,
                "obs_span_seconds_total{{path=\"{}\"}} {}",
                escape_label_value(&e.path),
                e.total_ns as f64 / 1e9
            );
        }
    }
    out
}

/// One parsed sample line of an exposition body.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Labels in order of appearance.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` parse to the f64 specials).
    pub value: f64,
}

impl Series {
    /// The value of label `name`, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    is_metric_name(s) && !s.contains(':')
}

fn parse_sample_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok().filter(|v: &f64| v.is_finite()),
    }
}

/// Parses (and thereby syntax-checks) a text-exposition body into its
/// sample series. Comment lines are skipped, but `# TYPE` comments are
/// validated.
///
/// # Errors
///
/// A message naming the first offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Series>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let err = |m: &str| format!("line {}: {m}: {line:?}", idx + 1);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(t) = rest.strip_prefix("TYPE ") {
                let mut parts = t.split_whitespace();
                let name = parts.next().ok_or_else(|| err("TYPE without a name"))?;
                let kind = parts.next().ok_or_else(|| err("TYPE without a kind"))?;
                if !is_metric_name(name) {
                    return Err(err("invalid metric name in TYPE"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err("unknown TYPE kind"));
                }
                if parts.next().is_some() {
                    return Err(err("trailing tokens after TYPE"));
                }
            }
            continue;
        }
        out.push(parse_sample_line(line, &err)?);
    }
    Ok(out)
}

fn parse_sample_line(line: &str, err: &dyn Fn(&str) -> String) -> Result<Series, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return Err(err("invalid metric name"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(after_brace) = rest.strip_prefix('{') {
        let mut chars = after_brace.char_indices().peekable();
        loop {
            // Label name up to '='.
            let start = match chars.peek() {
                Some(&(i, '}')) => {
                    chars.next();
                    rest = &after_brace[i + 1..];
                    break;
                }
                Some(&(i, _)) => i,
                None => return Err(err("unterminated label block")),
            };
            let eq = loop {
                match chars.next() {
                    Some((i, '=')) => break i,
                    Some((_, c)) if c.is_ascii_alphanumeric() || c == '_' => {}
                    _ => return Err(err("malformed label name")),
                }
            };
            let lname = &after_brace[start..eq];
            if !is_label_name(lname) {
                return Err(err("invalid label name"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(err("label value must be quoted")),
            }
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        _ => return Err(err("bad escape in label value")),
                    },
                    Some((_, '"')) => break,
                    Some((_, c)) => value.push(c),
                    None => return Err(err("unterminated label value")),
                }
            }
            labels.push((lname.to_string(), value));
            match chars.next() {
                Some((_, ',')) => {}
                Some((i, '}')) => {
                    rest = &after_brace[i + 1..];
                    break;
                }
                _ => return Err(err("expected ',' or '}' after label")),
            }
        }
    }
    let mut tokens = rest.split_ascii_whitespace();
    let value_tok = tokens.next().ok_or_else(|| err("missing sample value"))?;
    let value = parse_sample_value(value_tok)
        .or_else(|| value_tok.parse::<f64>().ok())
        .ok_or_else(|| err("unparseable sample value"))?;
    // An optional integer timestamp is allowed by the format.
    if let Some(ts) = tokens.next() {
        if ts.parse::<i64>().is_err() {
            return Err(err("trailing token is not a timestamp"));
        }
    }
    if tokens.next().is_some() {
        return Err(err("trailing tokens after sample"));
    }
    Ok(Series {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `text` and checks the structural invariants the renderer
/// guarantees: no duplicate series, and every histogram's `le` buckets
/// non-decreasing in both bound and cumulative count with the `+Inf`
/// bucket equal to its `_count`.
///
/// Returns the number of sample series on success.
///
/// # Errors
///
/// The first violated invariant, with the offending series named.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    let series = parse_exposition(text)?;
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    for s in &series {
        let key = format!("{}{}", s.name, fmt_labels(&s.labels));
        if seen.insert(key.clone(), ()).is_some() {
            return Err(format!("duplicate series {key}"));
        }
    }
    // Group histogram buckets by (base name, labels minus le).
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for s in &series {
        let Some(base) = s.name.strip_suffix("_bucket") else {
            continue;
        };
        let le = s
            .label("le")
            .ok_or_else(|| format!("{} without an le label", s.name))?;
        let le = parse_sample_value(le)
            .or_else(|| le.parse().ok())
            .ok_or_else(|| format!("{}: unparseable le {le:?}", s.name))?;
        let mut rest: Vec<_> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        rest.sort();
        buckets
            .entry(format!("{base}{}", fmt_labels(&rest)))
            .or_default()
            .push((le, s.value));
    }
    for (key, ladder) in &buckets {
        let mut prev: Option<(f64, f64)> = None;
        for &(le, cum) in ladder {
            if let Some((ple, pcum)) = prev {
                if le < ple {
                    return Err(format!("{key}: le buckets out of order ({le} after {ple})"));
                }
                if cum < pcum {
                    return Err(format!(
                        "{key}: cumulative bucket count decreases ({cum} after {pcum})"
                    ));
                }
            }
            prev = Some((le, cum));
        }
        let Some((last_le, last_cum)) = prev else {
            continue;
        };
        if !last_le.is_infinite() {
            return Err(format!("{key}: histogram without a +Inf bucket"));
        }
        let base = key.split('{').next().unwrap_or(key);
        let labels_part = &key[base.len()..];
        let count = series.iter().find(|s| {
            if s.name != format!("{base}_count") {
                return false;
            }
            let mut rest: Vec<_> = s.labels.clone();
            rest.sort();
            fmt_labels(&rest) == *labels_part
        });
        match count {
            Some(c) if c.value == last_cum => {}
            Some(c) => {
                return Err(format!(
                    "{key}: +Inf bucket {last_cum} != _count {}",
                    c.value
                ))
            }
            None => return Err(format!("{key}: histogram without a _count series")),
        }
    }
    Ok(series.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SpanEntry;

    #[test]
    fn names_and_label_values_are_escaped() {
        let snap = ObsSnapshot {
            counters: vec![
                ("9weird name!".to_string(), 3),
                ("svc.shed|reason=queue\"full\\x,n=a\nb".to_string(), 2),
            ],
            ..ObsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("_9weird_name__total 3"), "{text}");
        assert!(
            text.contains("svc_shed_total{reason=\"queue\\\"full\\\\x\",n=\"a\\nb\"} 2"),
            "{text}"
        );
        check_exposition(&text).expect("escaped output must parse");
        let series = parse_exposition(&text).unwrap();
        let shed = series.iter().find(|s| s.name == "svc_shed_total").unwrap();
        assert_eq!(shed.label("reason"), Some("queue\"full\\x"));
        assert_eq!(shed.label("n"), Some("a\nb"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf_equal_to_count() {
        let mut h = Hist::new();
        h.record(0);
        h.record(3); // bucket 2, le 3
        h.record(3);
        h.record(300); // bucket 9, le 511
        h.record(u64::MAX); // overflow: counted, unbucketed
        let snap = ObsSnapshot {
            histograms: vec![("svc.query.service_us".to_string(), h)],
            ..ObsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        let series = parse_exposition(&text).unwrap();
        let les: Vec<(f64, f64)> = series
            .iter()
            .filter(|s| s.name == "svc_query_service_us_bucket")
            .map(|s| {
                let le = s.label("le").unwrap();
                (parse_sample_value(le).unwrap(), s.value)
            })
            .collect();
        // Ladder covers every index up to the last non-empty bucket.
        assert_eq!(les.len(), 11, "{text}");
        assert_eq!(les[0], (0.0, 1.0));
        assert_eq!(les[2], (3.0, 3.0));
        assert_eq!(les[9], (511.0, 4.0));
        assert_eq!(les[10].1, 5.0, "+Inf includes the overflow value");
        assert!(les[10].0.is_infinite());
        let count = series
            .iter()
            .find(|s| s.name == "svc_query_service_us_count")
            .unwrap();
        assert_eq!(count.value, 5.0);
        check_exposition(&text).expect("cumulative ladder is valid");
    }

    #[test]
    fn spans_render_as_labeled_series() {
        let snap = ObsSnapshot {
            spans: vec![SpanEntry {
                path: "sweep.query;core.analyze".to_string(),
                count: 4,
                total_ns: 2_500_000_000,
            }],
            ..ObsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        assert!(
            text.contains("obs_span_total{path=\"sweep.query;core.analyze\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("obs_span_seconds_total{path=\"sweep.query;core.analyze\"} 2.5"),
            "{text}"
        );
        check_exposition(&text).unwrap();
    }

    #[test]
    fn rendering_is_a_pure_function_of_the_snapshot() {
        let snap = ObsSnapshot {
            counters: vec![("a.b".to_string(), 1), ("a.c|k=v".to_string(), 2)],
            gauges: vec![("g".to_string(), 7)],
            ..ObsSnapshot::default()
        };
        assert_eq!(render_prometheus(&snap), render_prometheus(&snap.clone()));
    }

    #[test]
    fn validator_rejects_malformed_bodies() {
        assert!(check_exposition("1bad_name 3\n").is_err());
        assert!(check_exposition("name{unterminated=\"x} 3\n").is_err());
        assert!(check_exposition("name 3 not_a_timestamp\n").is_err());
        assert!(check_exposition("name 3\nname 4\n").is_err(), "duplicates");
        assert!(check_exposition("# TYPE x flavor\n").is_err());
        // Decreasing cumulative buckets.
        let bad =
            "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n";
        assert!(check_exposition(bad).is_err());
        // +Inf must equal _count.
        let bad = "h_bucket{le=\"+Inf\"} 5\nh_count 6\n";
        assert!(check_exposition(bad).is_err());
    }

    #[test]
    fn counters_of_one_metric_share_a_single_type_line() {
        let snap = ObsSnapshot {
            counters: vec![
                ("svc.shed|reason=draining".to_string(), 1),
                ("svc.shed|reason=queue_full".to_string(), 2),
            ],
            ..ObsSnapshot::default()
        };
        let text = render_prometheus(&snap);
        assert_eq!(text.matches("# TYPE svc_shed_total counter").count(), 1);
        assert_eq!(text.matches("svc_shed_total{").count(), 2, "{text}");
        check_exposition(&text).unwrap();
    }
}
