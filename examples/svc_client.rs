//! The daemon's CLI driver — also the crash-recovery and overload
//! harness used by `ci.sh`.
//!
//! Usage: `cargo run --release --example svc_client -- --addr HOST:PORT
//! <command> [options]`
//!
//! Commands:
//!
//! * `ping` — liveness probe, prints `PONG`.
//! * `stream` — send the deterministic seeded query stream (`--count N`,
//!   default 12; `--budget-ns NS` optional) and print each raw response
//!   on its own line. With `--tolerate-crash`, a connection that dies
//!   mid-stream prints `CRASHED_AT_QUERY <i>` and exits 0 (the daemon
//!   was SIGKILLed on purpose); without it, that is a failure.
//! * `burst` — pipeline `--count N` identical queries on one connection
//!   and print `BURST ok=<n> shed=<n>`; every shed response must be a
//!   structured `queue_full`/`inflight_cap` rejection, and every
//!   `queue_full` hint must be at least 1 ms (a 0 ms hint would tell
//!   clients to hammer a congested daemon).
//! * `pipeline` — pipeline `--count N` *distinct* same-shape queries
//!   (`--hosts K,M` selects the fleet, default `1,1`; `--rho-base X`
//!   sets the lightest short load, default 0.55 — pick a heavier base,
//!   inside the fleet's stability region, when the benchmark should be
//!   dominated by solver work) on one connection,
//!   print each raw response on stdout, and print a
//!   `PIPELINE n=<n> ok=<n> elapsed_ns=<ns> pps=<rate>` timing summary
//!   on stderr. With `--sorted`, response lines are sorted before
//!   printing so multi-worker runs (which complete out of order) can be
//!   byte-compared against a single-worker baseline. Run the daemon
//!   with `--inflight >= N` so nothing sheds; the batched-vs-scalar
//!   byte-identity gate and the `BENCH_svc_batch` burst benchmark are
//!   both built on this command.
//! * `drain` — request a graceful drain, print `DRAINING`.
//! * `metrics` — scrape `GET /metrics` from `--addr` (the daemon's
//!   *metrics* address), validate the Prometheus exposition syntax, and
//!   print `METRICS_OK series=<n>` followed by the body.
//! * `health` — fetch `GET /healthz` and print one `HEALTH ...` line.
//!
//! The `stream` output is deterministic (responses carry no timings), so
//! harnesses byte-compare the output of a crashed-and-recovered daemon
//! against a never-crashed one.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use cyclesteal_obs::prom;
use cyclesteal_svc::client::{Client, QueryRequest};
use cyclesteal_svc::json::{self, Value};
use cyclesteal_svc::metrics;
use cyclesteal_svc::proto;

/// The seeded stream: query `i` asks `rho_s = 0.80 + 0.05 i` at
/// `rho_l = 0.5` — every point distinct, stable, and analysis-feasible.
fn stream_request(i: usize, budget_ns: Option<u64>) -> QueryRequest {
    QueryRequest {
        rho_s: 0.80 + 0.05 * i as f64,
        rho_l: 0.5,
        budget_ns,
        ..QueryRequest::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr = None;
    let mut command = None;
    let mut count = 12usize;
    let mut budget_ns = None;
    let mut tolerate_crash = false;
    let mut sorted = false;
    let mut hosts = (1usize, 1usize);
    let mut rho_base = 0.55f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--addr" => addr = Some(take()?),
            "--count" => count = take()?.parse()?,
            "--budget-ns" => budget_ns = Some(take()?.parse()?),
            "--tolerate-crash" => tolerate_crash = true,
            "--sorted" => sorted = true,
            "--hosts" => {
                let v = take()?;
                let (k, m) = v
                    .split_once(',')
                    .ok_or_else(|| format!("--hosts wants K,M, got {v:?}"))?;
                hosts = (k.trim().parse()?, m.trim().parse()?);
            }
            "--rho-base" => rho_base = take()?.parse()?,
            "ping" | "stream" | "burst" | "pipeline" | "drain" | "metrics" | "health" => {
                command = Some(arg)
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    let addr = addr.ok_or("--addr HOST:PORT is required")?;
    let command =
        command.ok_or("a command (ping|stream|burst|pipeline|drain|metrics|health) is required")?;

    match command.as_str() {
        "ping" => {
            let mut client = connect(&addr)?;
            if client.ping()? {
                println!("PONG");
                Ok(())
            } else {
                Err("daemon did not pong".into())
            }
        }
        "drain" => {
            let mut client = connect(&addr)?;
            client.drain()?;
            println!("DRAINING");
            Ok(())
        }
        "stream" => run_stream(&addr, count, budget_ns, tolerate_crash),
        "burst" => run_burst(&addr, count),
        "pipeline" => run_pipeline(&addr, count, hosts, rho_base, budget_ns, sorted),
        "metrics" => run_metrics(&addr),
        "health" => run_health(&addr),
        _ => unreachable!(),
    }
}

/// Scrapes `/metrics`, validates the exposition, and prints it. Exits
/// non-zero on a syntactically invalid body — this is the CI gate's
/// format check.
fn run_metrics(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let body = metrics::http_get(addr, "/metrics")?;
    let series = prom::check_exposition(&body).map_err(|e| format!("invalid exposition: {e}"))?;
    println!("METRICS_OK series={series}");
    print!("{body}");
    Ok(())
}

/// Fetches `/healthz` and prints the admission state as one line.
fn run_health(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let body = metrics::http_get(addr, "/healthz")?;
    let v = json::parse(&body)?;
    let field = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("healthz response missing {key:?}: {body}"))
    };
    let flag = |key: &str| -> Result<bool, String> {
        v.get(key)
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("healthz response missing {key:?}: {body}"))
    };
    let (queue_depth, in_service) = (field("queue_depth")?, field("in_service")?);
    let (admitted, completed) = (field("admitted")?, field("completed")?);
    // The probe-consistency invariant the admission accounting
    // guarantees: claimed-but-unfinished work is never invisible.
    if queue_depth + in_service < admitted.saturating_sub(completed) {
        return Err(format!(
            "healthz undercounts: queue_depth={queue_depth} + in_service={in_service} \
             < admitted={admitted} - completed={completed}"
        )
        .into());
    }
    println!(
        "HEALTH accepting={} draining={} queue_depth={queue_depth} busy_workers={} in_service={in_service} inflight={} admitted={admitted} completed={completed} workers={} served={}",
        flag("accepting")?,
        flag("draining")?,
        field("busy_workers")?,
        field("inflight")?,
        field("workers")?,
        field("served")?,
    );
    Ok(())
}

fn connect(addr: &str) -> Result<Client, Box<dyn std::error::Error>> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(60)))?;
    Ok(client)
}

fn run_stream(
    addr: &str,
    count: usize,
    budget_ns: Option<u64>,
    tolerate_crash: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = connect(addr)?;
    let mut stdout = std::io::stdout();
    for i in 0..count {
        let req = stream_request(i, budget_ns);
        match client.call_raw(&req.to_json()) {
            Ok(raw) => writeln!(stdout, "{raw}")?,
            Err(e) if tolerate_crash => {
                // The daemon died mid-stream — the crash gate's kill
                // hook. Report where and succeed; the harness restarts
                // the daemon and replays.
                writeln!(stdout, "CRASHED_AT_QUERY {i}")?;
                let _ = e;
                return Ok(());
            }
            Err(e) => return Err(format!("query {i} failed: {e}").into()),
        }
    }
    Ok(())
}

fn run_burst(addr: &str, count: usize) -> Result<(), Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    // All requests identical: the interesting output is the shed pattern.
    let req = stream_request(6, None).to_json();
    for _ in 0..count {
        proto::write_frame(&mut stream, req.as_bytes())?;
    }
    let mut ok = 0u32;
    let mut shed = 0u32;
    for i in 0..count {
        let frame = proto::read_frame(&mut stream)?
            .ok_or_else(|| format!("connection closed before response {i}"))?;
        let v = json::parse(std::str::from_utf8(&frame)?)?;
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            let reason = v
                .get("reason")
                .and_then(Value::as_str)
                .ok_or("shed response without a reason")?;
            if !matches!(reason, "queue_full" | "inflight_cap" | "draining") {
                return Err(format!("unexpected shed reason {reason:?}").into());
            }
            if reason == "queue_full" {
                let hint = v
                    .get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .ok_or("queue_full shed without a retry_after_ms hint")?;
                // A 0 ms hint invites an immediate retry storm; the
                // admission pricer floors every hint at 1 ms even when
                // the backlog drains in microseconds.
                if hint == 0 {
                    return Err("queue_full shed hinted retry_after_ms=0".into());
                }
            }
            shed += 1;
        }
    }
    println!("BURST ok={ok} shed={shed}");
    Ok(())
}

/// The pipelined query for slot `i`: distinct stable loads on one fleet
/// shape, so a drained batch shares QBD shapes (batchable) without ever
/// sharing report keys (no dedup shortcuts hiding solver work).
fn pipeline_request(
    i: usize,
    hosts: (usize, usize),
    rho_base: f64,
    budget_ns: Option<u64>,
) -> QueryRequest {
    QueryRequest {
        rho_s: rho_base + 0.005 * i as f64,
        rho_l: 0.5,
        hosts,
        budget_ns,
        ..QueryRequest::default()
    }
}

fn run_pipeline(
    addr: &str,
    count: usize,
    hosts: (usize, usize),
    rho_base: f64,
    budget_ns: Option<u64>,
    sorted: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let start = std::time::Instant::now();
    for i in 0..count {
        let req = pipeline_request(i, hosts, rho_base, budget_ns).to_json();
        proto::write_frame(&mut stream, req.as_bytes())?;
    }
    let mut lines = Vec::with_capacity(count);
    let mut ok = 0usize;
    for i in 0..count {
        let frame = proto::read_frame(&mut stream)?
            .ok_or_else(|| format!("connection closed before response {i}"))?;
        let raw = std::str::from_utf8(&frame)?.to_string();
        let v = json::parse(&raw)?;
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        }
        lines.push(raw);
    }
    let elapsed = start.elapsed();
    if sorted {
        lines.sort();
    }
    let mut stdout = std::io::stdout();
    for line in &lines {
        writeln!(stdout, "{line}")?;
    }
    // Timing on stderr so stdout stays a pure, byte-comparable response
    // transcript.
    eprintln!(
        "PIPELINE n={count} ok={ok} elapsed_ns={} pps={:.1}",
        elapsed.as_nanos(),
        count as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    Ok(())
}
