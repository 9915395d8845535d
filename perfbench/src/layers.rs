//! The layer probes of the traced run: the benchmark replays a sample of
//! the workload's questions through each layer's public functions, in the
//! order the daemon's serving path calls them, with one span per call.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::mpsc;

use cyclesteal_core::cache::SolveCache;
use cyclesteal_core::cs_cq::{self, BusyPeriodFit};
use cyclesteal_core::cs_cq_km::{self, Hosts};
use cyclesteal_core::SystemParams;
use cyclesteal_dist::fit_ph;
use cyclesteal_linalg::Workspace;
use cyclesteal_markov::Qbd;
use cyclesteal_svc::admission::Admission;
use cyclesteal_svc::wal::DurableCache;
use cyclesteal_svc::{json, proto};
use cyclesteal_sweep::{presolve_points, run_query, Point};

use crate::gen::{Mix, Query, Stream};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, Layers};

/// Questions replayed per fleet shape.
const PER_SHAPE: usize = 24;
/// Admission hand-offs timed.
const HANDOFFS: u64 = 400;

/// Picks up to [`PER_SHAPE`] questions of each shape from the workload's
/// own; a shape the workload lacks is drawn like `sweep_grid`'s points
/// from the run's seed.
fn sample(ctx: &Ctx, workload: &[Query]) -> Vec<Query> {
    let mut h11: Vec<Query> = Vec::new();
    let mut h22: Vec<Query> = Vec::new();
    let offer = |q: Query, h11: &mut Vec<Query>, h22: &mut Vec<Query>| {
        let bucket = if q.point.hosts == (1, 1) { h11 } else { h22 };
        if bucket.len() < PER_SHAPE {
            bucket.push(q);
        }
    };
    for q in workload {
        offer(*q, &mut h11, &mut h22);
    }
    let mut fill = Stream::new(ctx.seed ^ 0x001A_7E55, Mix::Mixed);
    while h11.len() < PER_SHAPE || h22.len() < PER_SHAPE {
        offer(fill.next_query(), &mut h11, &mut h22);
    }
    h11.into_iter().chain(h22).collect()
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("layer probe {what}: {e}")
}

/// One question through every per-request layer, each call in its own
/// span under a `layers.request` root. Returns the unsolved chain (for the
/// batched-solve probe) when the question is a (2, 2) one.
fn replay(
    q: &Query,
    req: u64,
    tr: &mut Tracer,
    ws: &mut Workspace,
    wal: &DurableCache,
) -> Result<Option<Qbd>, String> {
    let p = &q.point;
    let h22 = p.hosts != (1, 1);
    let hosts = Hosts::new(p.hosts.0, p.hosts.1).map_err(|e| err("hosts", e))?;
    let fit = BusyPeriodFit::ThreeMoment;
    let root: SpanId = tr.enter("layers.request", None, req);

    let text = q.json();
    let framed = tr.time("svc.proto.frame", root, req, || {
        let mut buf = Vec::with_capacity(text.len() + 4);
        proto::write_frame(&mut buf, text.as_bytes())?;
        proto::read_frame(&mut Cursor::new(buf))
    });
    if framed.map_err(|e| err("frame", e))?.as_deref() != Some(text.as_bytes()) {
        return Err(err("frame", "payload changed in a round trip"));
    }
    tr.time("svc.json.parse", root, req, || json::parse(&text))
        .map_err(|e| err("parse", e))?;

    let params = SystemParams::from_loads(p.rho_s, p.mean_s, p.rho_l, p.long.moments())
        .map_err(|e| err("params", e))?;
    let fit_name = if h22 { "core.fit.h22" } else { "core.fit.h11" };
    tr.time(fit_name, root, req, || -> Result<(), String> {
        let (bl, bn) = if h22 {
            (
                cs_cq_km::bl_moments(hosts, &params),
                cs_cq_km::bn_moments(hosts, &params),
            )
        } else {
            (cs_cq::bl_moments(&params), cs_cq::bn_moments(&params))
        };
        fit_ph(bl.map_err(|e| err("fit", e))?).map_err(|e| err("fit", e))?;
        fit_ph(bn.map_err(|e| err("fit", e))?).map_err(|e| err("fit", e))?;
        Ok(())
    })?;

    let (build, signature, solve) = if h22 {
        ("core.build.h22", "markov.signature.h22", "markov.solve.h22")
    } else {
        ("core.build.h11", "markov.signature.h11", "markov.solve.h11")
    };
    let qbd = tr
        .time(build, root, req, || {
            if h22 {
                cs_cq_km::build_qbd_model(hosts, &params, fit)
            } else {
                cs_cq::build_qbd_model(&params, fit)
            }
        })
        .map_err(|e| err("build", e))?;
    std::hint::black_box(tr.time(signature, root, req, || qbd.signature()));
    tr.time(solve, root, req, || qbd.solve_in(ws))
        .map_err(|e| err("solve", e))?;

    // Report assembly alone: the chain is planned and its solution seeded
    // into the cache first, so the timed call finds every sub-solve cached.
    let cache = SolveCache::new();
    let plan = if h22 {
        cs_cq_km::plan_qbd_cached(hosts, &params, fit, &cache)
    } else {
        cs_cq::plan_qbd_cached(&params, fit, &cache)
    }
    .map_err(|e| err("plan", e))?;
    let solution = plan.solve_in(ws).map_err(|e| err("plan solve", e))?;
    cache.seed_qbd_solution(&plan, solution);
    let report = tr
        .time("core.report", root, req, || {
            if h22 {
                cs_cq_km::analyze_cached_in(hosts, &params, fit, &cache, ws)
            } else {
                cs_cq::analyze_cached_in(&params, fit, &cache, ws)
            }
        })
        .map_err(|e| err("report", e))?;
    let key = if h22 {
        cs_cq_km::report_key(hosts, &params, fit)
    } else {
        cs_cq::report_key(&params, fit)
    };
    let hit = tr.time("sweep.query.hit", root, req, || run_query(p, &cache, None));
    if hit.row.short_response.map(f64::to_bits) != Some(report.short_response.to_bits()) {
        return Err(err("query hit", "cached answer differs from the report"));
    }
    tr.time("svc.wal.append", root, req, || wal.append(&key, &report))
        .map_err(|e| err("wal append", e))?;
    tr.exit(root);
    Ok(h22.then_some(qbd))
}

/// `Admission::admit` on this thread to `next_batch` returning on another.
fn handoffs(tr: &mut Tracer) -> Result<(), String> {
    let admission: Admission<(u64, u64)> = Admission::new(64, 1);
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let mut consumer_tr = tr.sibling();
    let consumed = std::thread::scope(|s| {
        let admission = &admission;
        let consumer = s.spawn(move || {
            loop {
                let jobs = admission.next_batch(16);
                if jobs.is_empty() {
                    break;
                }
                let now = consumer_tr.now_ns();
                for (req, start) in jobs {
                    consumer_tr.record("svc.admission.handoff", start, now, None, req);
                    admission.record_service_ns(now.saturating_sub(start));
                }
                admission.release_worker();
                if ack_tx.send(()).is_err() {
                    break;
                }
            }
            consumer_tr
        });
        let mut sent = Ok(());
        for req in 0..HANDOFFS {
            if let Err(e) = admission.admit((req, tr.now_ns())) {
                sent = Err(err("admission", format!("{e:?}")));
                break;
            }
            if ack_rx.recv().is_err() {
                sent = Err(err("admission", "consumer stopped"));
                break;
            }
        }
        admission.close();
        let joined = consumer
            .join()
            .map_err(|_| err("admission", "consumer panicked"));
        sent.and(joined)
    })?;
    tr.merge(consumed);
    Ok(())
}

/// Runs every probe on `workload`'s questions and fills the probe-timed
/// per-layer metrics. `store` is a durable store holding the workload's
/// answers; opening it is the recovery probe.
pub fn probe(
    ctx: &Ctx,
    workload: &[Query],
    store: &Path,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let questions = sample(ctx, workload);
    let wal_dir = ctx.work_dir.join("probe-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (wal, _) =
        DurableCache::open(&wal_dir, &SolveCache::new()).map_err(|e| err("wal open", e))?;
    let mut ws = Workspace::new();
    let mut chains: Vec<Qbd> = Vec::new();
    for (req, q) in questions.iter().enumerate() {
        chains.extend(replay(q, req as u64, tr, &mut ws, &wal)?);
    }
    drop(wal);

    let points: Vec<Point> = questions.iter().map(|q| q.point).collect();
    let cache = SolveCache::new();
    let stats = tr.time("sweep.presolve", None, 0, || {
        presolve_points(&points, &cache)
    });

    let mut groups: BTreeMap<(usize, usize), Vec<&Qbd>> = BTreeMap::new();
    for q in &chains {
        groups
            .entry((q.boundary_dim(), q.phase_dim()))
            .or_default()
            .push(q);
    }
    let mut lanes = 0u64;
    for (g, group) in groups.values().filter(|g| g.len() >= 2).enumerate() {
        let solved = tr.time("markov.solve_batch.h22", None, g as u64, || {
            Qbd::solve_batch_in(group, &mut ws)
        });
        if solved.iter().any(Result::is_err) {
            return Err(err("batched solve", "a lane failed"));
        }
        lanes += group.len() as u64;
    }

    tr.time("svc.recovery.open", None, 0, || {
        DurableCache::open(store, &SolveCache::new())
    })
    .map_err(|e| err("recovery open", e))?;
    handoffs(tr)?;

    let s = tr.summary();
    let get = |name: &str| s.get(name).copied().unwrap_or_default();
    let set = |layers: &mut Layers, name: &'static str, v: f64| {
        layers.insert(name, v);
    };
    set(layers, "svc.json.parse_us", get("svc.json.parse").self_us());
    set(
        layers,
        "svc.proto.frame_us",
        get("svc.proto.frame").self_us(),
    );
    set(
        layers,
        "svc.admission.handoff_us",
        get("svc.admission.handoff").self_us(),
    );
    set(layers, "svc.wal.append_us", get("svc.wal.append").self_us());
    set(
        layers,
        "sweep.query.hit_us",
        get("sweep.query.hit").self_us(),
    );
    let (f11, f22) = (get("core.fit.h11"), get("core.fit.h22"));
    let fits = f11.count + f22.count;
    set(
        layers,
        "core.fit_us",
        (f11.self_ns + f22.self_ns) as f64 / fits.max(1) as f64 / 1e3,
    );
    set(
        layers,
        "core.build_us.h11",
        get("core.build.h11").self_us() - f11.self_us(),
    );
    set(
        layers,
        "core.build_us.h22",
        get("core.build.h22").self_us() - f22.self_us(),
    );
    set(layers, "core.report_us", get("core.report").self_us());
    set(
        layers,
        "markov.signature_us.h11",
        get("markov.signature.h11").self_us(),
    );
    set(
        layers,
        "markov.signature_us.h22",
        get("markov.signature.h22").self_us(),
    );
    set(
        layers,
        "markov.solve_us.h11",
        get("markov.solve.h11").self_us(),
    );
    set(
        layers,
        "markov.solve_us.h22",
        get("markov.solve.h22").self_us(),
    );
    let batch = get("markov.solve_batch.h22");
    set(
        layers,
        "markov.solve_batch_us_per_lane.h22",
        batch.total_ns as f64 / lanes.max(1) as f64 / 1e3,
    );
    set(
        layers,
        "sweep.presolve_us_per_point",
        get("sweep.presolve").mean_us() / points.len() as f64,
    );
    set(
        layers,
        "sweep.presolve.batched_share",
        stats.batched as f64 / stats.unique.max(1) as f64,
    );
    set(
        layers,
        "svc.recovery.open_ms",
        get("svc.recovery.open").mean_us() / 1e3,
    );
    Ok(())
}
