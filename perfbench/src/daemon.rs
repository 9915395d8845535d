//! The daemon workloads: an in-process `svc::Server` with its default
//! serving settings (2 workers, batch 16, queue 64, 32 in flight per
//! connection) and a durable data dir, driven over loopback by two client
//! threads with one connection each.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cyclesteal_core::cache::{ReportKey, SolveCache};
use cyclesteal_core::cs_cq::CsCqReport;
use cyclesteal_svc::metrics;
use cyclesteal_svc::proto;
use cyclesteal_svc::server::{Server, ServerConfig};
use cyclesteal_svc::wal::DurableCache;
use cyclesteal_sweep::{run_query, SweepRow};

use crate::check;
use crate::gen::{self, Mix, Query, Stream};
use crate::layers;
use crate::stats::{self, Mark, Slice};
use crate::sys;
use crate::trace::Tracer;
use crate::{empty_layers, write_spans, Ctx, EndToEnd, Layers, Outcome, SLICES};

/// One cold workload: which points, and how many queries each of the two
/// connections keeps in flight.
#[derive(Clone, Copy)]
pub struct ColdSpec {
    mix: Mix,
    window: usize,
    /// Peak RSS is read when this many answers have arrived, so a faster
    /// program is not charged for caching the extra answers it served.
    rss_after: u64,
}

/// Mixed never-seen points, 4 in flight per connection.
pub const COLD_MIX: ColdSpec = ColdSpec {
    mix: Mix::Mixed,
    window: 4,
    rss_after: 4000,
};

/// Heavy never-seen (2, 2) points, 24 in flight per connection: drains
/// fill to the batch width while 48 in flight stays under the queue bound
/// of 64 and 24 under the per-connection cap of 32.
pub const FLEET_BURST: ColdSpec = ColdSpec {
    mix: Mix::Heavy22,
    window: 24,
    rss_after: 1500,
};

/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Answered questions in the store the daemon restarts on.
const WORKING_SET: usize = 4096;
/// One answer in this many is checked against a fresh evaluation.
const CHECK_ONE_IN: u64 = 32;
const CHECK_CAP: usize = 160;
/// Issued questions kept for the layer probes.
const KEEP_ISSUED: usize = 512;

/// The daemon's default configuration plus a durable data dir. Traced runs
/// also open the `/metrics` listener, whose counters they read.
fn config(dir: &Path, traced: bool) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        metrics_addr: traced.then(|| "127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    }
}

/// Starts a daemon; the time is `Server::start` until it returns with the
/// listener bound, the store recovered and every thread running.
fn start(dir: &Path, traced: bool) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server =
        Server::start(config(dir, traced)).map_err(|e| format!("starting the daemon: {e}"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

fn stop(server: Server) -> Result<(), String> {
    server.drain();
    server
        .join()
        .map(|_| ())
        .map_err(|e| format!("draining the daemon: {e}"))
}

/// Starts the daemon on the store in `dir` [`SETUP_REPS`] times, keeping
/// the last instance. Returns it with every start-up time.
fn setup(dir: &Path, traced: bool) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let (server, secs) = start(dir, traced)?;
        times.push(secs);
        if times.len() == SETUP_REPS {
            return Ok((server, times));
        }
        stop(server)?;
    }
}

/// The never-seen questions shared by a phase's client threads.
struct Load {
    seed: u64,
    source: Mutex<(u64, Stream)>,
    issued: Mutex<Vec<Query>>,
    answered: AtomicU64,
    rss_after: u64,
    rss: Mutex<Option<f64>>,
}

impl Load {
    fn new(seed: u64, source: Stream, rss_after: u64) -> Load {
        Load {
            seed,
            source: Mutex::new((0, source)),
            issued: Mutex::new(Vec::new()),
            answered: AtomicU64::new(0),
            rss_after,
            rss: Mutex::new(None),
        }
    }

    /// The next question and its sequence number.
    fn next(&self) -> (u64, Query) {
        let mut guard = self.source.lock().expect("load generator lock");
        let (seq, stream) = &mut *guard;
        let q = stream.next_query();
        *seq += 1;
        let mut issued = self.issued.lock().expect("issued lock");
        if issued.len() < KEEP_ISSUED {
            issued.push(q);
        }
        (*seq, q)
    }

    fn answered_one(&self) {
        if self.answered.fetch_add(1, Ordering::Relaxed) + 1 == self.rss_after {
            *self.rss.lock().expect("rss lock") = Some(sys::rss_peak_mib());
        }
    }

    fn issued(&self) -> Vec<Query> {
        self.issued.lock().expect("issued lock").clone()
    }
}

#[derive(Default)]
struct ClientOut {
    /// Per answer: completion time since the phase start, and latency.
    done: Vec<(u64, u64)>,
    answered: u64,
    sent: u64,
    failed: u64,
    samples: Vec<(Query, String)>,
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One connection keeping `window` queries in flight until `stop_at`,
/// then collecting the outstanding answers. Answers may arrive out of
/// order (two workers serve one connection); the canonical id routes them.
fn pipelined(
    addr: SocketAddr,
    load: &Load,
    window: usize,
    (start, stop_at): (Instant, Instant),
    tr: &mut Tracer,
) -> Result<ClientOut, String> {
    let mut sock = TcpStream::connect(addr).map_err(io_err("connecting"))?;
    sock.set_nodelay(true).map_err(io_err("TCP_NODELAY"))?;
    let mut out = ClientOut::default();
    let mut pending: HashMap<String, (u64, Instant, Query, Option<usize>)> = HashMap::new();
    loop {
        while pending.len() < window && Instant::now() < stop_at {
            let (seq, q) = load.next();
            let text = q.json();
            let span = tr.enter("client.request", None, seq);
            let sent_at = Instant::now();
            proto::write_frame(&mut sock, text.as_bytes()).map_err(io_err("sending"))?;
            pending.insert(SweepRow::id_of(&q.point), (seq, sent_at, q, span));
            out.sent += 1;
        }
        if pending.is_empty() {
            return Ok(out);
        }
        let frame = proto::read_frame(&mut sock)
            .map_err(io_err("receiving"))?
            .ok_or("the daemon closed the connection mid-run")?;
        let received = Instant::now();
        let raw = String::from_utf8(frame).map_err(|_| "a response was not UTF-8".to_string())?;
        let reply = check::read_reply(&raw);
        let entry = reply.id.as_deref().and_then(|id| pending.remove(id));
        let Some((seq, sent_at, q, span)) = entry else {
            // A shed or an error frame answers one of the pending queries,
            // which one is not said: retire the oldest.
            out.failed += 1;
            let oldest = pending
                .iter()
                .min_by_key(|(_, v)| v.0)
                .map(|(k, _)| k.clone());
            if let Some(k) = oldest {
                pending.remove(&k);
            }
            continue;
        };
        tr.exit(span);
        out.done.push((
            (received - start).as_nanos() as u64,
            (received - sent_at).as_nanos() as u64,
        ));
        out.answered += 1;
        load.answered_one();
        if !reply.good {
            out.failed += 1;
        } else if out.samples.len() < CHECK_CAP && gen::sampled(load.seed, seq, CHECK_ONE_IN) {
            out.samples.push((q, raw));
        }
    }
}

/// One measured phase of load.
struct Phase {
    client: ClientOut,
    slices: Vec<Slice>,
}

/// Runs `clients` for `seconds` while this thread marks the time, CPU time
/// and answers at every slice boundary.
fn measure<F>(
    seconds: f64,
    answered: &AtomicU64,
    tr: &mut Tracer,
    clients: F,
) -> Result<Phase, String>
where
    F: FnOnce((Instant, Instant), &mut Tracer) -> Result<ClientOut, String>,
{
    let start = Instant::now();
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let mark = || {
        Mark::now(
            start.elapsed().as_nanos() as u64,
            answered.load(Ordering::Relaxed),
        )
    };
    let first = mark();
    let (result, marks) = std::thread::scope(|s| {
        let marker = s.spawn(|| {
            let mut marks = vec![first];
            for k in 1..=SLICES as u32 {
                let due = start + slice * k;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                marks.push(mark());
            }
            marks
        });
        let result = clients((start, start + slice * SLICES as u32), tr);
        (result, marker.join())
    });
    let client = result?;
    let marks = marks.map_err(|_| "the marker thread panicked".to_string())?;
    let slices = stats::slices(&marks, SLICES, slice.as_nanos() as u64);
    Ok(Phase { client, slices })
}

/// Both connections pipelining `window` queries each.
fn two_pipelines(
    addr: SocketAddr,
    load: &Load,
    window: usize,
    span: (Instant, Instant),
    tr: &mut Tracer,
) -> Result<ClientOut, String> {
    let mut trs = [tr.sibling(), tr.sibling()];
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = trs
            .iter_mut()
            .map(|t| s.spawn(move || pipelined(addr, load, window, span, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    for t in trs {
        tr.merge(t);
    }
    let mut all = ClientOut::default();
    for o in outs {
        all.done.extend(o.done);
        all.answered += o.answered;
        all.sent += o.sent;
        all.failed += o.failed;
        all.samples.extend(o.samples);
    }
    Ok(all)
}

/// Native `/metrics` series without labels, by name.
fn scrape(server: &Server) -> Result<BTreeMap<String, f64>, String> {
    let addr = server.metrics_addr().ok_or("the metrics listener is off")?;
    let body =
        metrics::http_get(&addr.to_string(), "/metrics").map_err(io_err("scraping /metrics"))?;
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics the daemon's own counters give.
fn scraped_layers(m: &BTreeMap<String, f64>, recovered: usize, layers: &mut Layers) {
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let served = g("svc_served_total");
    let presolved = g("svc_batch_presolved_total");
    // Every wakeup either drained several jobs (all presolved: these runs
    // carry no deadlines) or served one alone.
    let wakeups = g("svc_batch_drains_total") + (served - presolved);
    let (hits, misses) = (g("svc_cache_hits_total"), g("svc_cache_misses_total"));
    layers.insert(
        "svc.wal.fsyncs_per_answer",
        share(g("svc_wal_fsyncs_total"), served),
    );
    layers.insert("svc.batch.width_mean", share(served, wakeups));
    layers.insert(
        "svc.batch.dedup_share",
        share(g("svc_batch_dedup_hits_total"), presolved),
    );
    layers.insert(
        "svc.batch.batched_share",
        share(g("svc_batch_batched_total"), g("svc_batch_unique_total")),
    );
    layers.insert("core.cache.hit_share", share(hits, hits + misses));
    layers.insert("core.cache.entries", misses + recovered as f64);
}

/// Descriptors and threads above the pre-load baseline, once the clients
/// are gone and the daemon has seen them close.
fn leftovers(base_fds: u64, base_threads: u64, layers: &mut Layers) {
    std::thread::sleep(Duration::from_millis(100));
    layers.insert(
        "svc.conn.fds_after",
        sys::fds().saturating_sub(base_fds) as f64,
    );
    layers.insert(
        "svc.conn.threads_after",
        sys::threads().saturating_sub(base_threads) as f64,
    );
}

/// `cold_mix` and `fleet_burst`: the daemon restarts on a store of answered
/// questions, then serves never-seen questions on two pipelined
/// connections.
pub fn cold(ctx: &Ctx, spec: ColdSpec) -> Result<Outcome, String> {
    let store = ctx.work_dir.join("store");
    // The store and the load come from one stream when the mixes agree, so
    // no loaded question is ever in the store.
    let mut stream = Stream::new(ctx.seed, Mix::Mixed);
    prepare_store(&stream.take(WORKING_SET), &store)?;
    if spec.mix != Mix::Mixed {
        stream = Stream::new(ctx.seed, spec.mix);
    }
    let (server, setup_s) = setup(&store, ctx.trace)?;
    let recovered = server.recovery().snapshot_entries;
    if recovered != WORKING_SET {
        return Err(format!(
            "recovered {recovered} of {WORKING_SET} stored answers"
        ));
    }
    let addr = server.addr();
    let (base_fds, base_threads) = (sys::fds(), sys::threads());
    let load = Load::new(ctx.seed, stream, spec.rss_after);
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let mut phases = Vec::new();
    for traced in [false, true]
        .into_iter()
        .take(if ctx.trace { 2 } else { 1 })
    {
        let mut tr = Tracer::new(traced, ctx.epoch);
        phases.push(measure(
            ctx.phase_seconds(),
            &load.answered,
            &mut tr,
            |span, tr| two_pipelines(addr, &load, spec.window, span, tr),
        )?);
        tracer.merge(tr);
    }
    let rss_peak_mib = load
        .rss
        .lock()
        .expect("rss lock")
        .unwrap_or_else(sys::rss_peak_mib);
    let mut layers = empty_layers();
    if ctx.trace {
        scraped_layers(&scrape(&server)?, recovered, &mut layers);
    }
    leftovers(base_fds, base_threads, &mut layers);
    stop(server)?;

    let samples: Vec<(Query, String)> = phases
        .iter_mut()
        .flat_map(|p| std::mem::take(&mut p.client.samples))
        .collect();
    let bad = samples
        .iter()
        .filter(|(q, raw)| !check::response_matches(&q.point, raw))
        .count() as u64;
    let attempted = phases.iter().map(|p| p.client.sent).sum::<u64>();
    let failed = phases.iter().map(|p| p.client.failed).sum::<u64>() + bad;
    let end_to_end = (!ctx.trace).then(|| {
        let first = &phases[0];
        let mut done = first.client.done.clone();
        done.sort_unstable();
        EndToEnd {
            slices: first.slices.clone(),
            latency_ns: done.into_iter().map(|(_, ns)| ns).collect(),
            setup_s,
            rss_peak_mib,
        }
    });
    let layers = if ctx.trace {
        let rate = |p: &Phase| stats::slice_median(&p.slices, |s| Some(s.answers_per_s()));
        let (untraced, traced) = (rate(&phases[0]), rate(&phases[1]));
        layers.insert("trace.overhead_share", (untraced - traced) / untraced);
        layers::probe(ctx, &load.issued(), &store, &mut tracer, &mut layers)?;
        write_spans(ctx, &tracer)?;
        Some(layers)
    } else {
        None
    };
    Ok(Outcome {
        attempted,
        failed,
        checked: samples.len() as u64,
        mismatches: bad,
        end_to_end,
        layers,
    })
}

/// Answers for the store: each question evaluated on a fresh cache, so the
/// benchmark keeps no solver state.
fn store_entries(part: &[Query]) -> Result<Vec<(ReportKey, CsCqReport)>, String> {
    let mut out = Vec::with_capacity(part.len());
    for q in part {
        let cache = SolveCache::new();
        let row = run_query(&q.point, &cache, None).row;
        if row.failure.is_some() || row.short_response.is_none() {
            return Err(format!("stored point {} has no answer", row.id));
        }
        out.extend(cache.export_reports());
    }
    Ok(out)
}

/// Writes the answers to `questions` as the snapshot of the store in `dir`.
fn prepare_store(questions: &[Query], dir: &Path) -> Result<(), String> {
    let halves = questions.split_at(questions.len() / 2);
    let entries = std::thread::scope(|s| {
        let other = s.spawn(|| store_entries(halves.1));
        let mut entries = store_entries(halves.0)?;
        entries.extend(
            other
                .join()
                .map_err(|_| "a store thread panicked".to_string())??,
        );
        Ok::<_, String>(entries)
    })?;
    let (durable, _) =
        DurableCache::open(dir, &SolveCache::new()).map_err(io_err("opening the store"))?;
    durable
        .compact(&entries)
        .map_err(io_err("writing the store"))
}
