//! Count gates on the serving path: what a presolve files and what the
//! evaluations after it recompute, what a daemon keeps after answering,
//! that it never hashes a chain, and what two drains racing on one
//! never-seen question leave in the journal and the WAL.
//!
//! [`signatures_hashed`] counts process-wide, so every test here holds
//! one lock: none of them runs while another one could hash.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use cyclesteal::core::cache::{signatures_hashed, SolveCache};
use cyclesteal::core::cs_cq::{BusyPeriodFit, CsCqReport};
use cyclesteal::core::cs_cq_km::{self, Hosts};
use cyclesteal::core::stability::Policy;
use cyclesteal::core::SystemParams;
use cyclesteal_svc::client::{Client, QueryRequest};
use cyclesteal_svc::json::{self, Value};
use cyclesteal_svc::metrics;
use cyclesteal_svc::proto;
use cyclesteal_svc::server::{Server, ServerConfig};
use cyclesteal_svc::wal::{decode_wal, DurableCache};
use cyclesteal_sweep::{presolve_points, run_query, Evaluator, LongLaw, Point};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cyclesteal-serving-counts-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn point(rho_s: f64, hosts: (usize, usize)) -> Point {
    Point {
        rho_s,
        rho_l: 0.5,
        mean_s: 1.0,
        long: LongLaw::exponential(1.0).unwrap(),
        policy: Policy::CsCq,
        evaluator: Evaluator::Analysis,
        extend_longs: false,
        hosts,
    }
}

/// A distinct heavy (2, 2) question for slot `i`.
fn heavy_22(i: usize) -> QueryRequest {
    QueryRequest {
        rho_s: 2.0 + 0.005 * i as f64,
        rho_l: 0.5,
        hosts: (2, 2),
        ..QueryRequest::default()
    }
}

/// Pipelines `reqs` on one connection and returns the raw responses in
/// arrival order.
fn pipelined(server: &Server, reqs: &[QueryRequest]) -> Vec<String> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    for req in reqs {
        proto::write_frame(&mut stream, req.to_json().as_bytes()).expect("send");
    }
    (0..reqs.len())
        .map(|_| {
            let frame = proto::read_frame(&mut stream)
                .expect("read")
                .expect("frame");
            String::from_utf8(frame).expect("utf8")
        })
        .collect()
}

fn cache_stat(server: &Server, field: &str) -> u64 {
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let stats = client.stats().expect("stats");
    stats
        .get("stats")
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats.cache.{field}"))
}

/// Ten (2, 2) questions and six (1, 1) questions: two chain shapes for
/// the planner, each chain solved on its own.
fn mixed_points() -> Vec<Point> {
    (0..10)
        .map(|i| point(2.0 + 0.01 * i as f64, (2, 2)))
        .chain((0..6).map(|i| point(0.5 + 0.05 * i as f64, (1, 1))))
        .collect()
}

/// A presolve into a drain scope files and journals every question's
/// report, so the evaluations that follow are report hits alone: no fit
/// is looked up, and no chain is built or solved.
#[test]
fn a_presolve_journals_every_answer_and_evaluation_only_hits_reports() {
    let _serial = serial();
    let points = mixed_points();
    let n = points.len() as u64;

    let root = SolveCache::new();
    let scope = root.scope();
    let stats = presolve_points(&points, &scope);
    assert_eq!(stats.unique as u64, n, "{stats:?}");
    assert_eq!(stats.batched, 0, "{stats:?}");
    assert_eq!(stats.seeded, stats.unique, "{stats:?}");
    assert_eq!(scope.take_new_reports().len(), stats.unique);

    let before = scope.stats();
    let answers: Vec<_> = points.iter().map(|p| run_query(p, &scope, None)).collect();
    let after = scope.stats();
    assert_eq!(after.hits - before.hits, n, "{before:?} -> {after:?}");
    assert_eq!(after.misses, before.misses, "{before:?} -> {after:?}");
    let journaled = scope.take_new_reports();
    assert!(journaled.is_empty(), "a report hit journals nothing");

    // The presolved answers are the bits a scalar evaluation computes.
    let fresh = SolveCache::new();
    for (p, presolved) in points.iter().zip(&answers) {
        assert_eq!(&run_query(p, &fresh, None), presolved);
    }
}

/// Two drain scopes plan and seed one never-seen question: the shared
/// report layer files it once, so one scope journals it, the other's seed
/// is a hit, and the filed bits are those of a scalar analysis.
#[test]
fn two_scopes_seeding_one_key_file_and_journal_it_once() {
    let _serial = serial();
    let (hosts, fit) = (Hosts::paper(), BusyPeriodFit::ThreeMoment);
    let params = SystemParams::exponential(0.6, 1.0, 0.5, 1.0).unwrap();
    let root = SolveCache::new();
    let (a, b) = (root.scope(), root.scope());
    let plan_a = cs_cq_km::plan_qbd_cached(hosts, &params, fit, &a).unwrap();
    let plan_b = cs_cq_km::plan_qbd_cached(hosts, &params, fit, &b).unwrap();
    assert_eq!(plan_a.key(), plan_b.key());
    assert!(a.seed_qbd_solution(&plan_a, plan_a.build().unwrap().solve().unwrap()));
    assert!(b.seed_qbd_solution(&plan_b, plan_b.build().unwrap().solve().unwrap()));

    // With both scopes alive the root counts the shared report layer
    // alone (each scope's fits join on drop): one miss, one hit.
    let reports = root.stats();
    assert_eq!((reports.misses, reports.hits), (1, 1), "{reports:?}");
    let journaled = a.take_new_reports();
    assert_eq!(journaled.len(), 1);
    assert!(b.take_new_reports().is_empty());

    let filed = root.peek_report(&plan_a.key()).unwrap();
    let scalar = cs_cq_km::analyze_cached(hosts, &params, fit, &SolveCache::new()).unwrap();
    for report in [&filed, &journaled[0].1] {
        let bits = |r: &CsCqReport| (r.short_response.to_bits(), r.long_response.to_bits());
        assert_eq!(bits(report), bits(&scalar));
    }
}

/// Reports are keyed by the question, so no path hashes a chain: not
/// the batched presolve, not the scalar evaluation, not a report hit.
#[test]
fn each_chain_is_hashed_once_and_a_report_hit_hashes_none() {
    let _serial = serial();
    let points = mixed_points();
    let n = points.len() as u64;

    let root = SolveCache::new();
    let scope = root.scope();
    let before = signatures_hashed();
    let stats = presolve_points(&points, &scope);
    assert_eq!(stats.unique as u64, n, "{stats:?}");
    assert_eq!(stats.batched, 0, "{stats:?}");
    assert_eq!(
        signatures_hashed() - before,
        0,
        "the planner hashes nothing"
    );
    let answers: Vec<_> = points.iter().map(|p| run_query(p, &scope, None)).collect();
    assert_eq!(
        signatures_hashed() - before,
        0,
        "a presolved evaluation hashes nothing"
    );
    drop(scope);

    // A later drain finds every answer in the report layer.
    let scope = root.scope();
    let before = signatures_hashed();
    assert_eq!(presolve_points(&points, &scope).unique, 0);
    for (p, first) in points.iter().zip(&answers) {
        assert_eq!(&run_query(p, &scope, None), first);
    }
    assert_eq!(
        signatures_hashed() - before,
        0,
        "a report hit hashes nothing"
    );

    // Without a presolve, the evaluation builds its own chains and still
    // hashes none of them.
    let fresh = SolveCache::new();
    let before = signatures_hashed();
    for (p, first) in points.iter().zip(&answers) {
        assert_eq!(&run_query(p, &fresh, None), first);
    }
    assert_eq!(
        signatures_hashed() - before,
        0,
        "a scalar evaluation hashes nothing"
    );
}

/// The memory gate: after 4 × `batch_max` never-seen (2, 2) questions at
/// one worker, the daemon holds exactly the reports it computed plus the
/// ones it recovered, and no fit, chain or solution.
#[test]
fn a_daemon_keeps_only_reports_across_drains() {
    let _serial = serial();
    let dir = tmp_dir("entries");
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 128,
        per_conn_inflight: 128,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let batch_max = config.batch_max;

    const RECOVERED: usize = 8;
    let warm = Server::start(config.clone()).expect("start");
    let seeded: Vec<QueryRequest> = (0..RECOVERED).map(heavy_22).collect();
    pipelined(&warm, &seeded);
    warm.drain();
    warm.join().expect("join");

    let server = Server::start(config).expect("restart");
    assert_eq!(server.recovery().snapshot_entries, RECOVERED);
    let n = 4 * batch_max;
    let reqs: Vec<QueryRequest> = (RECOVERED..RECOVERED + n).map(heavy_22).collect();
    let before = signatures_hashed();
    let responses = pipelined(&server, &reqs);
    let hashed = signatures_hashed() - before;
    assert!(responses.iter().all(|r| r.contains("\"ok\": true")));
    assert_eq!(hashed, 0, "{hashed} signature hashes for {n} answers");

    let reports = cache_stat(&server, "reports");
    assert_eq!(reports, (n + RECOVERED) as u64);
    assert_eq!(
        cache_stat(&server, "entries"),
        reports,
        "only reports outlive a drain"
    );
    server.drain();
    server.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two workers whose drains both hold one never-seen question: the shared
/// report layer files it once, whichever drain gets to it first, both
/// answers are the same bytes, and the WAL records it once.
#[test]
fn two_drains_racing_on_one_new_key_answer_identically_and_log_it_once() {
    let _serial = serial();
    let dir = tmp_dir("race");
    let server = Server::start(ServerConfig {
        workers: 2,
        batch_max: 2,
        slow_ms: 150,
        data_dir: Some(dir.clone()),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("start");
    let query = |rho_s: f64| {
        QueryRequest {
            rho_s,
            rho_l: 0.5,
            ..QueryRequest::default()
        }
        .to_json()
    };
    let connect = || {
        let s = TcpStream::connect(server.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        s
    };
    let send = |s: &mut TcpStream, q: &str| proto::write_frame(s, q.as_bytes()).expect("send");
    let recv = |s: &mut TcpStream| {
        String::from_utf8(proto::read_frame(s).expect("read").expect("frame")).expect("utf8")
    };
    let metrics_addr = server.metrics_addr().expect("metrics").to_string();
    // Polls `/healthz` until `n` queries are claimed by workers.
    let await_in_service = |n: u64| {
        for _ in 0..2000 {
            let body = metrics::http_get(&metrics_addr, "/healthz").expect("healthz");
            let health = json::parse(&body).expect("healthz json");
            if health.get("in_service").and_then(Value::as_u64) == Some(n) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("workers never claimed {n} queries");
    };
    let (mut a, mut b) = (connect(), connect());

    // Park each worker on a slowed query of its own, one at a time. The
    // four that follow queue up behind them, in order on one connection,
    // and drain as the pairs [K, X] and [K, Y], one per worker.
    send(&mut a, &query(0.40));
    await_in_service(1);
    send(&mut b, &query(0.45));
    await_in_service(2);
    let key = query(0.60);
    for q in [&key, &query(0.65), &key, &query(0.70)] {
        send(&mut a, q);
    }

    let answers: Vec<String> = (0..5).map(|_| recv(&mut a)).collect();
    assert!(recv(&mut b).contains("\"ok\": true"));
    assert!(answers.iter().all(|r| r.contains("\"ok\": true")));
    let mut by_id: BTreeMap<String, Vec<&String>> = BTreeMap::new();
    for r in &answers[1..] {
        let doc = json::parse(r).expect("json");
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .expect("id")
            .to_string();
        by_id.entry(id).or_default().push(r);
    }
    assert_eq!(by_id.len(), 3, "{by_id:?}");
    let shared = by_id
        .values()
        .find(|v| v.len() == 2)
        .expect("K answered twice");
    assert_eq!(shared[0], shared[1], "one key, one answer");

    // Five distinct questions, five records: the shared key is not
    // logged twice.
    let wal = std::fs::read(DurableCache::wal_path(&dir)).expect("read wal");
    let (records, _) = decode_wal(&wal);
    let mut keys: Vec<_> = records.iter().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!((records.len(), keys.len()), (5, 5));

    server.drain();
    server.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}
