//! End-to-end daemon tests over real TCP: protocol behaviour, response
//! determinism, deadline budgets, admission overload, and the durable
//! drain/restart round-trip.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use cyclesteal_svc::client::{Client, QueryRequest};
use cyclesteal_svc::json::Value;
use cyclesteal_svc::proto;
use cyclesteal_svc::server::{Server, ServerConfig};

fn local_config() -> ServerConfig {
    ServerConfig::default()
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    c
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cyclesteal-daemon-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ping_query_and_stats_round_trip() {
    let server = Server::start(local_config()).expect("start");
    let mut client = connect(&server);
    assert!(client.ping().expect("ping"));

    let req = QueryRequest {
        rho_s: 1.1,
        ..QueryRequest::default()
    };
    let resp = client.query(&req).expect("query");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    let short = resp
        .get("short_response")
        .and_then(Value::as_f64)
        .expect("a stable point must have a short response");
    assert!(short.is_finite() && short > 0.0);
    assert_eq!(resp.get("failure"), Some(&Value::Null));

    let stats = client.stats().expect("stats");
    let served = stats
        .get("stats")
        .and_then(|s| s.get("served"))
        .and_then(Value::as_u64);
    assert_eq!(served, Some(1));

    server.drain();
    server.join().expect("join");
}

#[test]
fn responses_are_byte_identical_within_and_across_instances() {
    let req = QueryRequest {
        rho_s: 1.2,
        rho_l: 0.4,
        ..QueryRequest::default()
    }
    .to_json();

    let server_a = Server::start(local_config()).expect("start a");
    let mut client_a = connect(&server_a);
    let cold = client_a.call_raw(&req).expect("cold");
    let warm = client_a.call_raw(&req).expect("warm");
    assert_eq!(cold, warm, "cache state must not leak into responses");
    server_a.drain();
    server_a.join().expect("join a");

    let server_b = Server::start(local_config()).expect("start b");
    let mut client_b = connect(&server_b);
    let other = client_b.call_raw(&req).expect("other instance");
    assert_eq!(cold, other, "responses must not depend on the instance");
    server_b.drain();
    server_b.join().expect("join b");
}

#[test]
fn malformed_and_unknown_requests_get_structured_errors() {
    let server = Server::start(local_config()).expect("start");
    let mut client = connect(&server);

    let resp = client.call("{\"cmd\": \"query\"}").expect("missing fields");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Value::as_str),
        Some("bad_request")
    );

    let resp = client.call_raw("this is not json").expect("bad json");
    assert!(resp.contains("bad_request"));

    let resp = client.call("{\"cmd\": \"launch_missiles\"}").expect("cmd");
    assert_eq!(
        resp.get("error").and_then(Value::as_str),
        Some("bad_request")
    );

    // The connection stays usable after errors.
    assert!(client.ping().expect("ping after errors"));
    server.drain();
    server.join().expect("join");
}

/// A fleet whose chain passes `MAX_CHAIN_PHASES` is refused with a
/// structured `bad_request` before admission; every shape the test
/// suites, `ci.sh` and the benchmark send is answered.
#[test]
fn an_oversized_fleet_is_refused_before_admission() {
    let server = Server::start(local_config()).expect("start");
    let mut client = connect(&server);
    for hosts in ["[1, 16]", "[1, 5]", "[16, 16]"] {
        let resp = client
            .call(&format!(
                r#"{{"cmd": "query", "rho_s": 0.9, "rho_l": 0.5, "hosts": {hosts}}}"#
            ))
            .expect("oversized");
        assert_eq!(
            resp.get("error").and_then(Value::as_str),
            Some("bad_request"),
            "{hosts}: {resp:?}"
        );
        let detail = resp.get("detail").and_then(Value::as_str).unwrap_or("");
        assert!(
            detail.contains("hosts") && detail.contains("limit"),
            "{hosts}: {detail}"
        );
    }
    let shapes = [(1, 1), (1, 2), (2, 2)];
    for hosts in shapes {
        let resp = client
            .query(&QueryRequest {
                hosts,
                ..QueryRequest::default()
            })
            .expect("query");
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{hosts:?}"
        );
    }
    let stats = client.stats().expect("stats");
    let admitted = stats
        .get("stats")
        .and_then(|s| s.get("admitted"))
        .and_then(Value::as_u64);
    assert_eq!(
        admitted,
        Some(shapes.len() as u64),
        "refusals never reach admission"
    );
    server.drain();
    server.join().expect("join");
}

#[test]
fn a_hopeless_budget_times_out_with_an_attributed_stage() {
    let server = Server::start(local_config()).expect("start");
    let mut client = connect(&server);
    let req = QueryRequest {
        rho_s: 1.1,
        budget_ns: Some(1), // cannot even cover queue wait
        ..QueryRequest::default()
    };
    let resp = client.query(&req).expect("query");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("short_response"), Some(&Value::Null));
    let failure = resp.get("failure").expect("failure record");
    assert_eq!(failure.get("kind").and_then(Value::as_str), Some("timeout"));
    let stage = failure.get("stage").and_then(Value::as_str).expect("stage");
    assert!(
        ["admission", "three_moment", "two_moment", "mean_only"].contains(&stage),
        "unexpected stage {stage:?}"
    );

    // An ample budget on the same connection still answers normally.
    let ok = client
        .query(&QueryRequest {
            rho_s: 1.1,
            budget_ns: Some(u64::MAX),
            ..QueryRequest::default()
        })
        .expect("ample");
    assert_eq!(ok.get("failure"), Some(&Value::Null));
    server.drain();
    server.join().expect("join");
}

/// Floods one slowed-down worker: the bounded queue must shed with
/// structured `queue_full` responses carrying retry hints, while every
/// admitted query still completes.
#[test]
fn overload_sheds_structurally_instead_of_queueing_unboundedly() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        slow_ms: 40,
        ..local_config()
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
    let mut ok = 0;
    let mut shed = 0;
    for _ in 0..BURST {
        let frame = proto::read_frame(&mut stream)
            .expect("read")
            .expect("response");
        let text = String::from_utf8(frame).expect("utf8");
        let v = cyclesteal_svc::json::parse(&text).expect("json");
        if v.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            shed += 1;
            assert_eq!(v.get("error").and_then(Value::as_str), Some("shed"));
            assert_eq!(v.get("reason").and_then(Value::as_str), Some("queue_full"));
            let hint = v
                .get("retry_after_ms")
                .and_then(Value::as_u64)
                .expect("retry hint");
            assert!(hint >= 1);
        }
    }
    assert!(ok >= 1, "admitted queries must complete");
    assert!(shed >= 1, "an 8-burst into a 2-slot queue must shed");
    server.drain();
    server.join().expect("join");
}

#[test]
fn per_connection_inflight_cap_sheds_before_the_queue() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 64,
        per_conn_inflight: 1,
        slow_ms: 40,
        ..local_config()
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
    for _ in 0..4 {
        proto::write_frame(&mut stream, req.as_bytes()).expect("send");
    }
    let mut capped = 0;
    for _ in 0..4 {
        let frame = proto::read_frame(&mut stream)
            .expect("read")
            .expect("response");
        let text = String::from_utf8(frame).expect("utf8");
        if text.contains("\"inflight_cap\"") {
            capped += 1;
        }
    }
    assert!(capped >= 1, "the 1-query cap must shed a 4-burst");
    server.drain();
    server.join().expect("join");
}

/// The durability round-trip: serve, drain (snapshot), restart, and the
/// recovered instance answers byte-identically from its warm cache.
#[test]
fn drain_then_restart_recovers_and_answers_byte_identically() {
    let dir = tmp_dir("roundtrip");
    let reqs: Vec<String> = [1.05, 1.15, 1.25]
        .iter()
        .map(|&rho_s| {
            QueryRequest {
                rho_s,
                ..QueryRequest::default()
            }
            .to_json()
        })
        .collect();

    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..local_config()
    })
    .expect("start");
    let mut client = connect(&server);
    let first: Vec<String> = reqs
        .iter()
        .map(|r| client.call_raw(r).expect("first run"))
        .collect();
    // Client-driven drain: subsequent queries shed, then join completes.
    let resp = client.drain().expect("drain");
    assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(true));
    let shed = client.call(&reqs[0]).expect("post-drain query");
    assert_eq!(shed.get("reason").and_then(Value::as_str), Some("draining"));
    let report = server.join().expect("join");
    assert_eq!(report.served, 3);
    assert_eq!(report.compacted_entries, 3);

    let server2 = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..local_config()
    })
    .expect("restart");
    let rec = server2.recovery();
    assert_eq!(rec.snapshot_entries, 3, "snapshot must hold all reports");
    assert_eq!(rec.wal_entries, 0, "compaction must have emptied the WAL");
    assert!(!rec.snapshot_rejected);

    let mut client2 = connect(&server2);
    let misses_of = |stats: &Value| {
        stats
            .get("stats")
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get("misses"))
            .and_then(Value::as_u64)
            .expect("miss counter")
    };
    // Recovery seeding itself registers one miss per inserted entry;
    // what must NOT happen is further misses while serving.
    let misses_before = misses_of(&client2.stats().expect("stats before"));
    for (req, want) in reqs.iter().zip(&first) {
        let got = client2.call_raw(req).expect("recovered run");
        assert_eq!(&got, want, "recovered answers must be byte-identical");
    }
    let misses_after = misses_of(&client2.stats().expect("stats after"));
    assert_eq!(
        misses_after, misses_before,
        "every answer must come from the recovered cache"
    );
    server2.drain();
    server2.join().expect("join 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An LRU-bounded cache changes *retention*, never *answers*: with a
/// capacity of 1 the same queries still serve bit-identical responses.
#[test]
fn a_capacity_bounded_daemon_answers_bit_identically() {
    let req_a = QueryRequest {
        rho_s: 1.05,
        ..QueryRequest::default()
    }
    .to_json();
    let req_b = QueryRequest {
        rho_s: 1.25,
        ..QueryRequest::default()
    }
    .to_json();

    let unbounded = Server::start(local_config()).expect("start unbounded");
    let mut c0 = connect(&unbounded);
    let want_a = c0.call_raw(&req_a).expect("a");
    let want_b = c0.call_raw(&req_b).expect("b");
    unbounded.drain();
    unbounded.join().expect("join");

    let bounded = Server::start(ServerConfig {
        cache_capacity: 1,
        ..local_config()
    })
    .expect("start bounded");
    let mut c1 = connect(&bounded);
    // Alternate so the 1-slot report cache must evict between answers.
    for _ in 0..3 {
        assert_eq!(c1.call_raw(&req_a).expect("a"), want_a);
        assert_eq!(c1.call_raw(&req_b).expect("b"), want_b);
    }
    bounded.drain();
    bounded.join().expect("join bounded");
}
