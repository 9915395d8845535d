//! The `/metrics` + `/healthz` plane: native daemon counters rendered as
//! Prometheus text exposition, plus the minimal HTTP/1.0 plumbing the
//! metrics listener and its scraping client share.
//!
//! # Two sources, one body
//!
//! A scrape body is the concatenation of
//!
//! 1. **native series** — rendered from one [`NativeMetrics`] read, the
//!    same read `/healthz` and the `stats` command render. These exist
//!    whether or not obs recording is on, so `/metrics` always answers;
//! 2. **the live obs registry** — `cyclesteal_obs::prom::render_prometheus`
//!    over the current snapshot, appended verbatim when recording is
//!    active. Appending the renderer's exact output is what makes the
//!    scrape *bit-match* the registry: a test can snapshot and assert
//!    `body.ends_with(render_prometheus(&snapshot))`.
//!
//! Each daemon event is counted once: admissions, sheds, served queries,
//! WAL appends and slow-log records are native series only, and the obs
//! registry keeps the daemon's spans, latency histograms and the events
//! no native series covers (`svc.drain.*`, `svc.conn.accepted`,
//! `svc.wal.compact`). Their rendered names (`svc.drain.requested` →
//! `svc_drain_requested_total`) stay disjoint from the native ones, so the
//! concatenation never emits duplicate series.
//!
//! # One owner per counter
//!
//! Each native series is kept in exactly one place and copied nowhere:
//!
//! * [`Admission`](crate::admission::Admission) owns request accounting:
//!   `svc_admitted_total`, `svc_completed_total`, every
//!   `svc_shed_total` reason (`draining` sheds included, whether the
//!   drain began before or after the query reached the daemon), the
//!   queue and worker gauges (`svc_workers` included), `svc_draining`
//!   and `svc_ewma_service_ns`.
//!   `svc_served_total` reads the same count as `svc_completed_total`:
//!   every admitted query a worker completes is answered;
//! * [`SolveCache`](cyclesteal_core::cache::SolveCache) owns
//!   `svc_cache_*` (a drain scope's fit counts join the
//!   totals when the scope drops);
//! * [`DurableCache`](crate::wal::DurableCache) owns `svc_wal_*`;
//! * the server's [`BatchTotals`] own `svc_batch_*`, added once per
//!   drain: a drain's presolve files each distinct question of the
//!   drain once, so `svc_batch_unique_total` counts questions filed,
//!   `svc_batch_seeded_total` those filed successfully, and
//!   `svc_batch_dedup_hits_total` is `presolved − unique`;
//! * the server owns `svc_slow_queries_total` and `svc_recovery_seconds`
//!   (the start-up store open, timed under the `svc.recovery.open` span);
//! * the [`RecoveryReport`] of that open owns the other `svc_recovery_*`
//!   gauges: `svc_recovery_entries{source="snapshot"|"wal"}`,
//!   `svc_recovery_wal_truncated` and `svc_recovery_snapshot_rejected`.
//!
//! # HTTP subset
//!
//! The listener speaks just enough HTTP/1.0 for `curl`, Prometheus, and
//! [`http_get`]: request line + headers in, `Connection: close` response
//! out, one request per connection. Anything else is a `404`/`400`.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cyclesteal_core::cache::CacheStats;
use cyclesteal_obs::ObsSnapshot;
use cyclesteal_sweep::BatchStats;

use crate::admission::AdmissionSnapshot;
use crate::wal::{RecoveryReport, WalStats};

/// What the daemon's micro-batch presolves did, summed over drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTotals {
    /// Worker wakeups that drained more than one job.
    pub drains: u64,
    /// High-water mark of jobs drained in a single worker wakeup.
    pub width_max: u64,
    /// Points handed to the presolve.
    pub presolved: u64,
    /// Jobs excluded from a presolve because their deadline had already
    /// expired at drain time (they still time out with `stage:
    /// "admission"`, spending no solver work).
    pub skipped_deadline: u64,
    /// The presolve's own counts, summed: `unique`, `seeded` and
    /// `skipped_faulted` feed the `svc_batch_*` series.
    pub presolve: BatchStats,
}

/// One read of every natively kept daemon metric, composed of each
/// owner's own snapshot (see the module docs). `/metrics`, `/healthz` and
/// `stats` all render from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeMetrics {
    /// Request accounting: admissions, completions, sheds, queue state.
    pub admission: AdmissionSnapshot,
    /// Solve-cache counters, both layers.
    pub cache: CacheStats,
    /// Reports resident in the long-lived cache. The daemon's root cache
    /// holds reports only (every drain solves in its own scope), so this
    /// is also its entry count.
    pub cache_reports: u64,
    /// WAL counters of this process (zeros when memory-only).
    pub wal: WalStats,
    /// Micro-batch presolve totals.
    pub batch: BatchTotals,
    /// Slow-query-log lines written.
    pub slow_queries: u64,
    /// What the start-up recovery found (zeros when memory-only).
    pub recovery: RecoveryReport,
    /// How long the start-up store open took, in nanoseconds.
    pub recovery_ns: u64,
}

impl NativeMetrics {
    /// Renders just the native series (no obs registry data).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(1536);
        let counter = |s: &mut String, name: &str, v: u64| {
            let _ = writeln!(s, "# TYPE {name} counter\n{name} {v}");
        };
        let gauge = |s: &mut String, name: &str, v: u64| {
            let _ = writeln!(s, "# TYPE {name} gauge\n{name} {v}");
        };
        let labeled =
            |s: &mut String, kind: &str, name: &str, label: &str, values: &[(&str, u64)]| {
                let _ = writeln!(s, "# TYPE {name} {kind}");
                for (value, v) in values {
                    let _ = writeln!(s, "{name}{{{label}=\"{value}\"}} {v}");
                }
            };
        let (adm, batch, presolve) = (&self.admission, &self.batch, &self.batch.presolve);
        counter(&mut s, "svc_served_total", adm.completed);
        counter(&mut s, "svc_admitted_total", adm.admitted);
        counter(&mut s, "svc_completed_total", adm.completed);
        labeled(
            &mut s,
            "counter",
            "svc_shed_total",
            "reason",
            &[
                ("queue_full", adm.sheds.queue_full),
                ("draining", adm.sheds.draining),
                ("inflight_cap", adm.sheds.inflight_cap),
            ],
        );
        counter(&mut s, "svc_slow_queries_total", self.slow_queries);
        counter(&mut s, "svc_cache_hits_total", self.cache.hits);
        counter(&mut s, "svc_cache_misses_total", self.cache.misses);
        counter(&mut s, "svc_cache_evictions_total", self.cache.evictions);
        counter(&mut s, "svc_wal_appends_total", self.wal.appends);
        counter(&mut s, "svc_wal_bytes_total", self.wal.bytes);
        counter(&mut s, "svc_wal_fsyncs_total", self.wal.fsyncs);
        labeled(
            &mut s,
            "counter",
            "svc_wal_errors_total",
            "op",
            &[("append", self.wal.append_errors)],
        );
        counter(&mut s, "svc_batch_drains_total", batch.drains);
        counter(&mut s, "svc_batch_presolved_total", batch.presolved);
        // Presolved points that needed no new solve: their report key was
        // already answered or solved, or came earlier in the same drain.
        let dedup_hits = batch.presolved - presolve.unique as u64;
        counter(&mut s, "svc_batch_dedup_hits_total", dedup_hits);
        counter(&mut s, "svc_batch_unique_total", presolve.unique as u64);
        counter(&mut s, "svc_batch_seeded_total", presolve.seeded as u64);
        labeled(
            &mut s,
            "counter",
            "svc_batch_skipped_total",
            "reason",
            &[
                ("deadline", batch.skipped_deadline),
                ("fault", presolve.skipped_faulted as u64),
            ],
        );
        gauge(&mut s, "svc_queue_depth", adm.depth);
        gauge(&mut s, "svc_busy_workers", adm.busy_workers);
        gauge(&mut s, "svc_in_service", adm.in_service);
        // Admitted-but-unfinished work. A batching worker can hold
        // several in-service jobs, so this sums jobs, not workers.
        gauge(&mut s, "svc_inflight", adm.depth + adm.in_service);
        // High-water mark, not a live value: a single post-burst scrape
        // can tell whether any wakeup ever coalesced multiple queries.
        gauge(&mut s, "svc_batch_width", batch.width_max);
        gauge(&mut s, "svc_workers", adm.workers);
        gauge(&mut s, "svc_draining", u64::from(!adm.open));
        gauge(&mut s, "svc_cache_reports", self.cache_reports);
        gauge(&mut s, "svc_ewma_service_ns", adm.ewma_service_ns);
        let rec = &self.recovery;
        let _ = writeln!(
            s,
            "# TYPE svc_recovery_seconds gauge\nsvc_recovery_seconds {}",
            self.recovery_ns as f64 / 1e9
        );
        labeled(
            &mut s,
            "gauge",
            "svc_recovery_entries",
            "source",
            &[
                ("snapshot", rec.snapshot_entries as u64),
                ("wal", rec.wal_entries as u64),
            ],
        );
        let truncated = u64::from(rec.wal_truncated_to.is_some());
        gauge(&mut s, "svc_recovery_wal_truncated", truncated);
        let rejected = u64::from(rec.snapshot_rejected);
        gauge(&mut s, "svc_recovery_snapshot_rejected", rejected);
        s
    }
}

/// The full `/metrics` body: native series, then — when the obs registry
/// is recording — its renderer output appended verbatim (see module
/// docs for why verbatim matters).
pub fn render(native: &NativeMetrics, obs: Option<&ObsSnapshot>) -> String {
    let mut body = native.render();
    if let Some(snap) = obs {
        body.push_str(&cyclesteal_obs::prom::render_prometheus(snap));
    }
    body
}

/// Reads one HTTP request head from `stream` and returns the request
/// path, or an error string suitable for a `400`. Headers are consumed
/// and discarded; bodies are not supported (GET only).
pub(crate) fn read_request_path(stream: &mut TcpStream) -> io::Result<Result<String, String>> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Ok(Err("malformed request line".to_string())),
    };
    // Drain headers up to the blank line so the client can read our
    // response without a connection reset mid-request.
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 || h == "\r\n" || h == "\n" {
            break;
        }
    }
    if method != "GET" {
        return Ok(Err(format!("method {method} not supported")));
    }
    Ok(Ok(path))
}

/// Writes a complete HTTP/1.0 response and flushes it.
pub(crate) fn write_http_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The content type `/metrics` responses carry (Prometheus text
/// exposition format 0.0.4).
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Issues a blocking `GET <path>` against `addr` (the metrics listener)
/// and returns the response body.
///
/// # Errors
///
/// Connection/read failures, or a non-`200` status (mapped to
/// [`io::ErrorKind::Other`] with the status line as the message).
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("response has no header/body separator"))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(io::Error::other(format!(
            "GET {path}: non-200 status {status_line:?}"
        )));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_obs::prom::{check_exposition, parse_exposition};

    #[test]
    fn native_render_is_valid_exposition_with_all_series() {
        let m = NativeMetrics {
            admission: AdmissionSnapshot {
                completed: 10,
                depth: 2,
                busy_workers: 1,
                in_service: 4,
                sheds: crate::admission::Sheds {
                    queue_full: 3,
                    ..Default::default()
                },
                open: true,
                ..AdmissionSnapshot::default()
            },
            batch: BatchTotals {
                width_max: 7,
                skipped_deadline: 5,
                presolved: 9,
                presolve: BatchStats {
                    unique: 4,
                    ..BatchStats::default()
                },
                ..BatchTotals::default()
            },
            recovery: RecoveryReport {
                snapshot_entries: 12,
                wal_entries: 3,
                wal_truncated_to: Some(400),
                snapshot_rejected: false,
            },
            recovery_ns: 2_500_000,
            ..NativeMetrics::default()
        };
        let text = m.render();
        let n = check_exposition(&text).expect("native series must be valid");
        assert!(n >= 30, "expected every native series, got {n}");
        let series = parse_exposition(&text).unwrap();
        let shed = series
            .iter()
            .find(|s| s.name == "svc_shed_total" && s.label("reason") == Some("queue_full"))
            .unwrap();
        assert_eq!(shed.value, 3.0);
        // A batching worker can hold several jobs, so the inflight gauge
        // sums jobs (depth + in_service), never workers.
        let inflight = series.iter().find(|s| s.name == "svc_inflight").unwrap();
        assert_eq!(inflight.value, 6.0, "queue_depth + in_service");
        let width = series.iter().find(|s| s.name == "svc_batch_width").unwrap();
        assert_eq!(width.value, 7.0, "drain-width high-water mark");
        let skipped = series
            .iter()
            .find(|s| s.name == "svc_batch_skipped_total" && s.label("reason") == Some("deadline"))
            .unwrap();
        assert_eq!(skipped.value, 5.0);
        let value = |name: &str| series.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(
            value("svc_batch_dedup_hits_total"),
            5.0,
            "presolved − unique"
        );
        assert_eq!(
            value("svc_served_total"),
            value("svc_completed_total"),
            "served and completed read one count"
        );
        assert_eq!(value("svc_draining"), 0.0);
        let source = |s: &str| {
            series
                .iter()
                .find(|x| x.name == "svc_recovery_entries" && x.label("source") == Some(s))
                .unwrap()
                .value
        };
        assert_eq!((source("snapshot"), source("wal")), (12.0, 3.0));
        assert_eq!(value("svc_recovery_seconds"), 0.0025);
        assert_eq!(value("svc_recovery_wal_truncated"), 1.0);
        assert_eq!(value("svc_recovery_snapshot_rejected"), 0.0);
    }

    #[test]
    fn obs_section_is_appended_verbatim() {
        let snap = ObsSnapshot {
            counters: vec![("sweep.query.count".to_string(), 4)],
            ..ObsSnapshot::default()
        };
        let body = render(&NativeMetrics::default(), Some(&snap));
        assert!(body.ends_with(&cyclesteal_obs::prom::render_prometheus(&snap)));
        check_exposition(&body).expect("combined body must stay valid");
    }

    #[test]
    fn native_and_obs_names_never_collide() {
        // Dotted registry names beside the native series they would
        // shadow if they rendered flat: labeled ones land under
        // svc_admission_shed_total, not svc_shed_total.
        let snap = ObsSnapshot {
            counters: vec![
                ("svc.admission.shed|reason=queue_full".to_string(), 1),
                ("svc.admission.shed|reason=draining".to_string(), 1),
                ("svc.admission.shed|reason=inflight_cap".to_string(), 1),
                ("svc.admission.admitted".to_string(), 1),
                ("svc.query.served".to_string(), 1),
                ("svc.wal.append".to_string(), 1),
            ],
            ..ObsSnapshot::default()
        };
        let body = render(&NativeMetrics::default(), Some(&snap));
        check_exposition(&body).expect("no duplicate series");
    }
}
