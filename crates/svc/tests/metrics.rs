//! End-to-end telemetry tests over real HTTP: `/healthz` state
//! transitions, scrape validity against observed traffic, counter
//! monotonicity, the registry bit-match contract, the slow-query log,
//! and the periodic obs-snapshot flush.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use cyclesteal_obs::prom;
use cyclesteal_svc::client::{Client, QueryRequest};
use cyclesteal_svc::json::{self, Value};
use cyclesteal_svc::metrics;
use cyclesteal_svc::proto;
use cyclesteal_svc::server::{Server, ServerConfig};

fn telemetry_config() -> ServerConfig {
    ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    }
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    c
}

fn scrape(server: &Server) -> String {
    let addr = server.metrics_addr().expect("metrics listener").to_string();
    metrics::http_get(&addr, "/metrics").expect("scrape")
}

fn healthz(server: &Server) -> Value {
    let addr = server.metrics_addr().expect("metrics listener").to_string();
    let body = metrics::http_get(&addr, "/healthz").expect("healthz");
    json::parse(&body).expect("healthz json")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cyclesteal-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Finds one series by name and exact label set in a parsed exposition.
fn series_value(series: &[prom::Series], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    series
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels.iter().all(|(k, v)| s.label(k) == Some(*v))
        })
        .map(|s| s.value)
}

#[test]
fn healthz_flips_from_accepting_to_draining() {
    let server = Server::start(ServerConfig {
        workers: 3,
        ..telemetry_config()
    })
    .expect("start");

    let v = healthz(&server);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("accepting").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("draining").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("workers").and_then(Value::as_u64), Some(3));
    assert_eq!(v.get("served").and_then(Value::as_u64), Some(0));

    server.drain();
    // Scrapes must keep answering during drain — that's when an operator
    // is looking hardest.
    let v = healthz(&server);
    assert_eq!(v.get("accepting").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("draining").and_then(Value::as_bool), Some(true));
    server.join().expect("join");
}

/// Floods a slowed single-worker daemon and checks the scrape tells the
/// same story the shed responses told: every rejection shows up under
/// `svc_shed_total{reason="queue_full"}` and every answer under
/// `svc_served_total`.
#[test]
fn scrape_matches_the_overload_the_client_observed() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        slow_ms: 40,
        ..telemetry_config()
    })
    .expect("start");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let req = QueryRequest {
        rho_s: 1.1,
        ..QueryRequest::default()
    }
    .to_json();
    const BURST: usize = 8;
    for _ in 0..BURST {
        proto::write_frame(&mut stream, req.as_bytes()).expect("send");
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..BURST {
        let frame = proto::read_frame(&mut stream)
            .expect("read")
            .expect("response");
        let v = json::parse(std::str::from_utf8(&frame).expect("utf8")).expect("json");
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(v.get("reason").and_then(Value::as_str), Some("queue_full"));
            shed += 1;
        }
    }
    assert!(ok >= 1 && shed >= 1, "the burst must both serve and shed");

    // `served` increments just after the response bytes go out, so poll
    // briefly instead of racing the last in-flight increment.
    let mut parsed = Vec::new();
    for _ in 0..200 {
        let body = scrape(&server);
        prom::check_exposition(&body).expect("valid exposition");
        parsed = prom::parse_exposition(&body).expect("parse");
        if series_value(&parsed, "svc_served_total", &[]) == Some(ok as f64) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        series_value(&parsed, "svc_served_total", &[]),
        Some(ok as f64),
        "scrape must account for every answered query"
    );
    assert_eq!(
        series_value(&parsed, "svc_shed_total", &[("reason", "queue_full")]),
        Some(shed as f64),
        "scrape must account for every queue_full rejection"
    );
    assert_eq!(series_value(&parsed, "svc_workers", &[]), Some(1.0));
    server.drain();
    server.join().expect("join");
}

/// Reads one response frame off `stream` as JSON.
fn read_response(stream: &mut TcpStream) -> Value {
    let frame = proto::read_frame(stream).expect("read").expect("response");
    json::parse(std::str::from_utf8(&frame).expect("utf8")).expect("json")
}

/// Sends `stats` on `stream` and returns its `shed` count.
fn stats_shed(stream: &mut TcpStream) -> u64 {
    proto::write_frame(stream, br#"{"cmd": "stats"}"#).expect("send stats");
    let v = read_response(stream);
    v.get("stats")
        .and_then(|s| s.get("shed"))
        .and_then(Value::as_u64)
        .expect("stats.shed")
}

fn shed_sum(series: &[prom::Series]) -> f64 {
    ["queue_full", "draining", "inflight_cap"]
        .iter()
        .map(|r| series_value(series, "svc_shed_total", &[("reason", r)]).expect("shed series"))
        .sum()
}

/// Queries that reach a draining daemon are shed, and every one of those
/// sheds is counted: on the scrape and in `stats`.
#[test]
fn draining_sheds_are_counted_on_the_scrape_and_in_stats() {
    let server = Server::start(telemetry_config()).expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // The connection is open before the drain: the accept loop takes no
    // new ones after it.
    assert_eq!(stats_shed(&mut stream), 0);
    server.drain();
    let req = QueryRequest::default().to_json();
    for _ in 0..3 {
        proto::write_frame(&mut stream, req.as_bytes()).expect("send");
        let v = read_response(&mut stream);
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("draining"));
    }
    let parsed = prom::parse_exposition(&scrape(&server)).expect("parse");
    assert_eq!(
        series_value(&parsed, "svc_shed_total", &[("reason", "draining")]),
        Some(3.0)
    );
    assert_eq!(stats_shed(&mut stream), 3);
    drop(stream);
    server.join().expect("join");
}

/// `stats.shed` counts every reason, the connection cap's included, and
/// agrees with the scrape's per-reason series.
#[test]
fn stats_shed_is_the_sum_of_every_shed_reason() {
    let server = Server::start(ServerConfig {
        workers: 1,
        per_conn_inflight: 1,
        slow_ms: 200,
        ..telemetry_config()
    })
    .expect("start");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let req = QueryRequest::default().to_json();
    for _ in 0..2 {
        proto::write_frame(&mut stream, req.as_bytes()).expect("send");
    }
    // The second query finds the first in flight: shed at once, then the
    // first is answered once its slowed evaluation finishes.
    let shed = read_response(&mut stream);
    assert_eq!(
        shed.get("reason").and_then(Value::as_str),
        Some("inflight_cap")
    );
    let answer = read_response(&mut stream);
    assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));

    let parsed = prom::parse_exposition(&scrape(&server)).expect("parse");
    assert_eq!(
        series_value(&parsed, "svc_shed_total", &[("reason", "inflight_cap")]),
        Some(1.0)
    );
    let stats = stats_shed(&mut stream);
    assert_eq!(stats, 1);
    assert_eq!(stats as f64, shed_sum(&parsed));
    drop(stream);
    server.drain();
    server.join().expect("join");
}

/// A restart's recovery is on the scrape: the series read what `stats`
/// reads, the body stays valid exposition, and `stats` keeps every field.
#[test]
fn a_restart_shows_its_recovery_on_the_scrape() {
    let dir = tmp_dir("recovery");
    let durable = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..telemetry_config()
    };
    let answers = [0.9, 1.05, 1.15];
    let server = Server::start(durable()).expect("start");
    let fresh = prom::parse_exposition(&scrape(&server)).expect("parse");
    for source in ["snapshot", "wal"] {
        assert_eq!(
            series_value(&fresh, "svc_recovery_entries", &[("source", source)]),
            Some(0.0),
            "a new store recovers nothing from the {source}"
        );
    }
    let mut client = connect(&server);
    for rho_s in answers {
        let req = QueryRequest {
            rho_s,
            ..QueryRequest::default()
        };
        client.query(&req).expect("query");
    }
    drop(client);
    server.drain();
    server.join().expect("join");

    // The drain compacted every answer into the snapshot.
    let session = cyclesteal_obs::Session::start();
    let server = Server::start(durable()).expect("restart");
    assert_eq!(session.snapshot().span_count("svc.recovery.open"), 1);
    let body = scrape(&server);
    prom::check_exposition(&body).expect("valid exposition");
    let parsed = prom::parse_exposition(&body).expect("parse");
    let n = answers.len() as f64;
    let value = |name: &str, labels: &[(&str, &str)]| {
        series_value(&parsed, name, labels).unwrap_or_else(|| panic!("no {name} {labels:?}"))
    };
    assert_eq!(value("svc_recovery_entries", &[("source", "snapshot")]), n);
    assert_eq!(value("svc_recovery_entries", &[("source", "wal")]), 0.0);
    assert_eq!(value("svc_recovery_wal_truncated", &[]), 0.0);
    assert_eq!(value("svc_recovery_snapshot_rejected", &[]), 0.0);
    let seconds = value("svc_recovery_seconds", &[]);
    assert!(
        seconds > 0.0 && seconds < 60.0,
        "svc_recovery_seconds {seconds}"
    );
    assert_eq!(value("svc_cache_reports", &[]), n);
    assert_eq!(
        value("svc_cache_misses_total", &[]),
        n,
        "one miss per restored answer"
    );

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    proto::write_frame(&mut stream, br#"{"cmd": "stats"}"#).expect("send stats");
    let v = read_response(&mut stream);
    let stats = v.get("stats").expect("stats");
    for field in ["served", "queue_depth", "admitted", "shed", "completed"] {
        assert!(
            stats.get(field).and_then(Value::as_u64).is_some(),
            "stats.{field}"
        );
    }
    let cache = stats.get("cache").expect("stats.cache");
    for field in ["hits", "misses", "evictions", "reports", "entries"] {
        assert!(
            cache.get(field).and_then(Value::as_u64).is_some(),
            "stats.cache.{field}"
        );
    }
    let rec = stats.get("recovery").expect("stats.recovery");
    assert_eq!(
        rec.get("snapshot_entries").and_then(Value::as_u64),
        Some(answers.len() as u64)
    );
    assert_eq!(rec.get("wal_entries").and_then(Value::as_u64), Some(0));
    assert_eq!(
        rec.get("wal_truncated").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(
        rec.get("snapshot_rejected").and_then(Value::as_bool),
        Some(false)
    );
    drop(stream);
    server.drain();
    server.join().expect("join");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counters never step backwards between scrapes: the scrape handler
/// reads live registries, not windowed deltas.
#[test]
fn counters_are_monotonic_across_scrapes() {
    let server = Server::start(telemetry_config()).expect("start");
    let mut client = connect(&server);

    let before = prom::parse_exposition(&scrape(&server)).expect("scrape 1");
    for rho_s in [1.05, 1.15] {
        let req = QueryRequest {
            rho_s,
            ..QueryRequest::default()
        };
        client.query(&req).expect("query");
    }
    let mut after = Vec::new();
    for _ in 0..200 {
        after = prom::parse_exposition(&scrape(&server)).expect("scrape 2");
        if series_value(&after, "svc_served_total", &[]) == Some(2.0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(series_value(&after, "svc_served_total", &[]), Some(2.0));

    for s in &before {
        if !s.name.ends_with("_total") {
            continue;
        }
        let labels: Vec<(&str, &str)> = s
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let now = series_value(&after, &s.name, &labels)
            .unwrap_or_else(|| panic!("series {} vanished between scrapes", s.name));
        assert!(
            now >= s.value,
            "counter {} went backwards: {} -> {now}",
            s.name,
            s.value
        );
    }
    server.drain();
    server.join().expect("join");
}

/// The acceptance contract: the obs section of a live scrape is the
/// byte-for-byte render of the registry snapshot. Polls for a quiescent
/// instant because other tests in this binary may record concurrently.
#[test]
fn scrape_obs_section_bit_matches_the_registry_snapshot() {
    let session = cyclesteal_obs::Session::start();
    let server = Server::start(telemetry_config()).expect("start");
    let mut client = connect(&server);
    let req = QueryRequest {
        rho_s: 1.1,
        ..QueryRequest::default()
    };
    client.query(&req).expect("query");

    // Workers flush their thread-local records *before* sending the
    // response, so the answered query above is already scrape-visible.
    let mut matched = false;
    for _ in 0..200 {
        let body = scrape(&server);
        let expect = prom::render_prometheus(&session.snapshot());
        assert!(!expect.is_empty(), "the served query must have recorded");
        if body.ends_with(&expect) {
            matched = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        matched,
        "scrape body must end with the verbatim registry render"
    );
    server.drain();
    server.join().expect("join");
    drop(session);
}

/// Probes sampled mid-burst never undercount admitted-but-unfinished
/// work: `queue_depth + in_service >= admitted - completed` at every
/// instant. This is the regression gate for the healthz race where a
/// worker popped a job *before* claiming busy — a probe landing in that
/// gap saw an idle daemon holding invisible work.
#[test]
fn probes_never_undercount_admitted_but_unfinished_work() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        slow_ms: 5,
        batch_max: 4,
        ..telemetry_config()
    })
    .expect("start");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    const BURST: usize = 16;
    for i in 0..BURST {
        let req = QueryRequest {
            rho_s: 0.55 + 0.01 * i as f64,
            ..QueryRequest::default()
        }
        .to_json();
        proto::write_frame(&mut stream, req.as_bytes()).expect("send");
    }

    // Hammer both probe surfaces while the slowed worker drains the
    // burst; every sample must satisfy the accounting invariant.
    let mut samples = 0u32;
    loop {
        let v = healthz(&server);
        let field = |k: &str| v.get(k).and_then(Value::as_u64).expect(k);
        let (depth, in_service) = (field("queue_depth"), field("in_service"));
        let (admitted, completed) = (field("admitted"), field("completed"));
        assert!(
            depth + in_service >= admitted.saturating_sub(completed),
            "healthz undercounts: depth={depth} in_service={in_service} \
             admitted={admitted} completed={completed}"
        );
        let parsed = prom::parse_exposition(&scrape(&server)).expect("scrape");
        let gauge = |name: &str| series_value(&parsed, name, &[]).expect(name);
        assert!(
            gauge("svc_inflight") >= gauge("svc_admitted_total") - gauge("svc_completed_total"),
            "scrape undercounts in-flight work"
        );
        samples += 1;
        if field("served") >= BURST as u64 {
            break;
        }
    }
    assert!(samples > 1, "the burst must have been probed mid-flight");

    for i in 0..BURST {
        proto::read_frame(&mut stream)
            .expect("read")
            .unwrap_or_else(|| panic!("no response {i}"));
    }
    server.drain();
    server.join().expect("join");
}

/// With a zero threshold every query lands in `slow_queries.jsonl` as
/// one parseable line carrying identity, stage timings, and the trace.
#[test]
fn slow_log_records_every_query_at_threshold_zero() {
    let dir = tmp_dir("slowlog");
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        slow_log_ms: Some(0),
        ..telemetry_config()
    })
    .expect("start");
    let mut client = connect(&server);
    client
        .query(&QueryRequest {
            rho_s: 1.05,
            ..QueryRequest::default()
        })
        .expect("plain query");
    client
        .query(&QueryRequest {
            rho_s: 1.15,
            budget_ns: Some(5_000_000_000),
            ..QueryRequest::default()
        })
        .expect("budgeted query");
    server.drain();
    server.join().expect("join");

    let text = std::fs::read_to_string(dir.join("slow_queries.jsonl")).expect("slow log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "threshold 0 must log every served query");
    for line in &lines {
        let v = json::parse(line).expect("each record is one JSON line");
        assert!(v.get("id").and_then(Value::as_str).is_some());
        for key in [
            "admission_wait_ns",
            "queue_wait_ns",
            "service_ns",
            "total_ns",
        ] {
            assert!(
                v.get(key).and_then(Value::as_u64).is_some(),
                "record must carry {key}: {line}"
            );
        }
        assert!(v.get("trace").is_some(), "record must embed the trace");
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));
    }
    let first = json::parse(lines[0]).expect("first");
    assert_eq!(first.get("budget_ns"), Some(&Value::Null));
    let second = json::parse(lines[1]).expect("second");
    assert_eq!(
        second.get("budget_ns").and_then(Value::as_u64),
        Some(5_000_000_000)
    );
    assert!(
        second.get("headroom_ns").and_then(Value::as_u64).is_some(),
        "a generous budget leaves positive headroom"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The periodic flusher writes `obs_snapshot.json` while the daemon is
/// still live — a kill after the first interval no longer loses all
/// telemetry to the drain-only flush.
#[test]
fn obs_snapshot_flushes_periodically_before_drain() {
    let session = cyclesteal_obs::Session::start();
    let dir = tmp_dir("periodic");
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        obs_flush_secs: 1,
        ..telemetry_config()
    })
    .expect("start");
    let mut client = connect(&server);
    client
        .query(&QueryRequest {
            rho_s: 1.1,
            ..QueryRequest::default()
        })
        .expect("query");

    let path = dir.join("obs_snapshot.json");
    let mut flushed = None;
    for _ in 0..200 {
        if let Ok(text) = std::fs::read_to_string(&path) {
            flushed = Some(text);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let text = flushed.expect("snapshot must appear within the flush interval");
    let v = json::parse(&text).expect("snapshot is whole, never torn");
    assert!(
        v.get("counters").is_some(),
        "flushed snapshot must carry counters: {text}"
    );

    server.drain();
    server.join().expect("join");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
