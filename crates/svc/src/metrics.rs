//! The `/metrics` + `/healthz` plane: native daemon counters rendered as
//! Prometheus text exposition, plus the minimal HTTP/1.0 plumbing the
//! metrics listener and its scraping client share.
//!
//! # Two sources, one body
//!
//! A scrape body is the concatenation of
//!
//! 1. **native series** — counters and gauges the daemon maintains in
//!    plain atomics (served, sheds by reason, queue depth, cache and WAL
//!    stats, the EWMA service estimate). These exist even when the `obs`
//!    feature is compiled out, so `/metrics` always answers;
//! 2. **the live obs registry** — `cyclesteal_obs::prom::render_prometheus`
//!    over the current snapshot, appended verbatim when recording is
//!    active. Appending the renderer's exact output is what makes the
//!    scrape *bit-match* the registry: a test can snapshot and assert
//!    `body.ends_with(render_prometheus(&snapshot))`.
//!
//! Native metric names are disjoint from obs registry names
//! (`svc_shed_total` vs `svc.admission.shed|reason=…` →
//! `svc_admission_shed_total`), so the concatenation never emits
//! duplicate series.
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

use cyclesteal_obs::ObsSnapshot;

/// Point-in-time values of every natively-maintained daemon metric.
/// Collected under the server's locks/atomics, rendered lock-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeMetrics {
    /// Queries evaluated and answered.
    pub served: u64,
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Queries completed by workers (admission accounting).
    pub completed: u64,
    /// Sheds because the queue was at capacity.
    pub shed_queue_full: u64,
    /// Sheds because the daemon was draining.
    pub shed_draining: u64,
    /// Sheds because the connection hit its in-flight cap.
    pub shed_inflight_cap: u64,
    /// Slow-query-log lines written.
    pub slow_queries: u64,
    /// Current admission-queue backlog.
    pub queue_depth: u64,
    /// Workers currently holding at least one claimed job.
    pub busy_workers: u64,
    /// Jobs claimed by workers but not yet completed. With batched
    /// drains a busy worker may hold several, so `queue_depth +
    /// in_service` (not `+ busy_workers`) is the true count of
    /// admitted-but-unfinished work.
    pub in_service: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// `1` while draining, else `0`.
    pub draining: u64,
    /// Solve-cache hits, all three layers. A drain's fit and solution
    /// lookups are added when the drain's scope is dropped.
    pub cache_hits: u64,
    /// Solve-cache misses.
    pub cache_misses: u64,
    /// Solve-cache evictions.
    pub cache_evictions: u64,
    /// Reports currently resident in the solve cache.
    pub cache_reports: u64,
    /// Chain-signature hashes computed by this process
    /// ([`cyclesteal_core::cache::signatures_hashed`]). Solutions are
    /// keyed by the question, so no serving path hashes a chain and this
    /// reads zero; anything else means a hash crept back in.
    pub qbd_signatures: u64,
    /// WAL records appended by this process.
    pub wal_appends: u64,
    /// WAL bytes appended by this process.
    pub wal_bytes: u64,
    /// Disk syncs issued by this process.
    pub wal_fsyncs: u64,
    /// EWMA of per-query service time in ns (prices `retry_after_ms`).
    pub ewma_service_ns: u64,
    /// Worker wakeups that drained more than one job.
    pub batch_drains: u64,
    /// High-water mark of jobs drained in a single worker wakeup.
    pub batch_width_max: u64,
    /// Points handed to the batch presolve planner.
    pub batch_presolved: u64,
    /// Presolved points that needed no new solve: their report key was
    /// already answered or solved, or came earlier in the same drain.
    pub batch_dedup_hits: u64,
    /// Distinct uncached chains the presolve planned.
    pub batch_unique: u64,
    /// Chains solved inside batched (≥ 8 lane) groups.
    pub batch_batched: u64,
    /// Chains whose shape group was too narrow to batch, solved scalar.
    pub batch_scalar: u64,
    /// Solutions seeded into the shared cache by presolves.
    pub batch_seeded: u64,
    /// Jobs excluded from a presolve because their deadline had already
    /// expired at drain time.
    pub batch_skipped_deadline: u64,
    /// Points excluded from a presolve because the armed fault plan
    /// targets their scope.
    pub batch_skipped_fault: u64,
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
        counter(&mut s, "svc_served_total", self.served);
        counter(&mut s, "svc_admitted_total", self.admitted);
        counter(&mut s, "svc_completed_total", self.completed);
        let _ = writeln!(s, "# TYPE svc_shed_total counter");
        let _ = writeln!(s, "svc_shed_total{{reason=\"queue_full\"}} {}", self.shed_queue_full);
        let _ = writeln!(s, "svc_shed_total{{reason=\"draining\"}} {}", self.shed_draining);
        let _ = writeln!(s, "svc_shed_total{{reason=\"inflight_cap\"}} {}", self.shed_inflight_cap);
        counter(&mut s, "svc_slow_queries_total", self.slow_queries);
        counter(&mut s, "svc_cache_hits_total", self.cache_hits);
        counter(&mut s, "svc_cache_misses_total", self.cache_misses);
        counter(&mut s, "svc_cache_evictions_total", self.cache_evictions);
        counter(&mut s, "svc_qbd_signatures_total", self.qbd_signatures);
        counter(&mut s, "svc_wal_appends_total", self.wal_appends);
        counter(&mut s, "svc_wal_bytes_total", self.wal_bytes);
        counter(&mut s, "svc_wal_fsyncs_total", self.wal_fsyncs);
        counter(&mut s, "svc_batch_drains_total", self.batch_drains);
        counter(&mut s, "svc_batch_presolved_total", self.batch_presolved);
        counter(&mut s, "svc_batch_dedup_hits_total", self.batch_dedup_hits);
        counter(&mut s, "svc_batch_unique_total", self.batch_unique);
        counter(&mut s, "svc_batch_batched_total", self.batch_batched);
        counter(&mut s, "svc_batch_scalar_total", self.batch_scalar);
        counter(&mut s, "svc_batch_seeded_total", self.batch_seeded);
        let _ = writeln!(s, "# TYPE svc_batch_skipped_total counter");
        let _ = writeln!(
            s,
            "svc_batch_skipped_total{{reason=\"deadline\"}} {}",
            self.batch_skipped_deadline
        );
        let _ = writeln!(
            s,
            "svc_batch_skipped_total{{reason=\"fault\"}} {}",
            self.batch_skipped_fault
        );
        gauge(&mut s, "svc_queue_depth", self.queue_depth);
        gauge(&mut s, "svc_busy_workers", self.busy_workers);
        gauge(&mut s, "svc_in_service", self.in_service);
        // Admitted-but-unfinished work. A batching worker can hold
        // several in-service jobs, so this sums jobs, not workers.
        gauge(&mut s, "svc_inflight", self.queue_depth + self.in_service);
        // High-water mark, not a live value: a single post-burst scrape
        // can tell whether any wakeup ever coalesced multiple queries.
        gauge(&mut s, "svc_batch_width", self.batch_width_max);
        gauge(&mut s, "svc_workers", self.workers);
        gauge(&mut s, "svc_draining", self.draining);
        gauge(&mut s, "svc_cache_reports", self.cache_reports);
        gauge(&mut s, "svc_ewma_service_ns", self.ewma_service_ns);
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
            served: 10,
            shed_queue_full: 3,
            queue_depth: 2,
            busy_workers: 1,
            in_service: 4,
            batch_width_max: 7,
            batch_skipped_deadline: 5,
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
        // The obs registry's labeled admission counters deliberately
        // render under svc_admission_shed_total, not svc_shed_total.
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
