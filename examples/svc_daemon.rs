//! The capacity-planning daemon binary: serve scenario queries over
//! length-prefixed JSON/TCP until `SIGTERM` (or a client `drain`), then
//! drain gracefully — finish in-flight work, compact the durable cache,
//! flush the obs snapshot.
//!
//! Usage: `cargo run --release --example svc_daemon -- [options]`
//!
//! * `--addr HOST:PORT`        bind address (default `127.0.0.1:0`)
//! * `--workers N`             worker threads (default 2)
//! * `--queue N`               admission queue bound (default 64)
//! * `--inflight N`            per-connection in-flight cap (default 32)
//! * `--cache-capacity N`      LRU bound on the long-lived report cache
//!   (default unbounded); fits live only for one worker
//!   drain, so this bounds the report layer alone
//! * `--data-dir DIR`          enable the durable WAL + snapshot in DIR
//! * `--default-budget-ns NS`  budget for queries that carry none
//! * `--batch N`               max jobs a worker wakeup drains (default
//!   16); a drain files each distinct question's report once, in key
//!   order, before it answers
//! * `--no-batch`              shorthand for `--batch 1`: every job is
//!   served on its own (the byte-identity comparison baseline)
//! * `--metrics-addr HOST:PORT` serve HTTP `GET /metrics` + `/healthz`
//! * `--slow-log-ms MS`        log queries slower than MS to
//!   `slow_queries.jsonl` in the data dir (`0` logs every query)
//! * `--obs`                   record telemetry (spans, counters, the
//!   `svc.query.*` histograms) from start-up; off by default, since
//!   recording costs CPU on every answer
//! * `--obs-flush-secs N`      seconds between periodic obs-snapshot
//!   flushes (default 5; `0` disables)
//! * `--slow-ms MS`            test hook: delay each evaluation
//! * `--kill-after-appends N`  test hook: torn-write + SIGKILL after N
//!   WAL appends (the crash-recovery gate)
//!
//! The daemon prints `LISTENING <addr>` on stdout once ready (harnesses
//! parse this to discover the `:0`-assigned port), `METRICS <addr>` when
//! a metrics listener is configured, and a drain summary on exit.

use std::time::Duration;

use cyclesteal_svc::server::{install_sigterm_handler, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ServerConfig::default();
    let mut obs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = take()?,
            "--workers" => config.workers = take()?.parse()?,
            "--queue" => config.queue_capacity = take()?.parse()?,
            "--inflight" => config.per_conn_inflight = take()?.parse()?,
            "--cache-capacity" => config.cache_capacity = take()?.parse()?,
            "--data-dir" => config.data_dir = Some(take()?.into()),
            "--default-budget-ns" => config.default_budget_ns = Some(take()?.parse()?),
            "--batch" => config.batch_max = take()?.parse()?,
            "--no-batch" => config.batch_max = 1,
            "--metrics-addr" => config.metrics_addr = Some(take()?),
            "--obs" => obs = true,
            "--slow-log-ms" => config.slow_log_ms = Some(take()?.parse()?),
            "--obs-flush-secs" => config.obs_flush_secs = take()?.parse()?,
            "--slow-ms" => config.slow_ms = take()?.parse()?,
            "--kill-after-appends" => config.kill_after_appends = Some(take()?.parse()?),
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }

    if obs {
        cyclesteal_obs::enable();
    }

    install_sigterm_handler();
    let server = Server::start(config)?;
    let rec = server.recovery();
    println!("LISTENING {}", server.addr());
    if let Some(metrics) = server.metrics_addr() {
        println!("METRICS {metrics}");
    }
    println!(
        "recovered: {} snapshot + {} wal entries{}{}",
        rec.snapshot_entries,
        rec.wal_entries,
        if rec.wal_truncated_to.is_some() {
            " (torn tail truncated)"
        } else {
            ""
        },
        if rec.snapshot_rejected {
            " (snapshot rejected)"
        } else {
            ""
        },
    );
    // Keep stdout line-buffered output flowing for harnesses.
    use std::io::Write as _;
    std::io::stdout().flush()?;

    // join() blocks in the accept loop until SIGTERM or a drain request.
    let report = server.join()?;
    println!(
        "drained: served {} queries, compacted {} entries",
        report.served, report.compacted_entries
    );
    // Give interleaved worker stderr a beat to flush under test harnesses.
    std::thread::sleep(Duration::from_millis(10));
    Ok(())
}
