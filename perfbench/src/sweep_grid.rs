//! `sweep_grid`: the offline user. `sweep::run_points` on 2 threads over
//! seeded grids of distinct CS-CQ points, a fresh `SolveCache` per grid,
//! the batched presolve on (the default).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cyclesteal_core::cache::SolveCache;
use cyclesteal_svc::wal::DurableCache;
use cyclesteal_sweep::{run_points, Point, SweepOptions, SweepReport, SweepRow};

use crate::check;
use crate::gen::{self, Mix, Query, Stream};
use crate::layers;
use crate::stats::{self, Mark, Slice};
use crate::sys;
use crate::trace::Tracer;
use crate::{empty_layers, write_spans, Ctx, EndToEnd, Outcome, SLICES};

/// Distinct grids cycled through, and points per grid.
const GRIDS: usize = 8;
const GRID_POINTS: usize = 64;
/// Points of each fleet shape per grid: every grid has the same make-up,
/// so seeds differ in loads and C², not in how many heavy points a grid
/// holds.
const GRID_H11: usize = 48;
const GRID_H22: usize = GRID_POINTS - GRID_H11;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rows per grid checked against a fresh evaluation.
const CHECK_PER_GRID: u64 = 16;

/// [`GRIDS`] grids of distinct points, each [`GRID_H11`] (1, 1) points
/// and [`GRID_H22`] (2, 2) points, drawn from `seed`.
fn seeded_grids(seed: u64) -> Vec<Vec<Query>> {
    let mut stream = Stream::new(seed, Mix::Mixed);
    let (mut h11, mut h22) = (Vec::new(), Vec::new());
    while h11.len() < GRIDS * GRID_H11 || h22.len() < GRIDS * GRID_H22 {
        let q = stream.next_query();
        match q.point.hosts {
            (1, 1) if h11.len() < GRIDS * GRID_H11 => h11.push(q),
            (2, 2) if h22.len() < GRIDS * GRID_H22 => h22.push(q),
            _ => {}
        }
    }
    (0..GRIDS)
        .map(|g| {
            let ones = &h11[g * GRID_H11..(g + 1) * GRID_H11];
            let twos = &h22[g * GRID_H22..(g + 1) * GRID_H22];
            ones.iter().chain(twos).copied().collect()
        })
        .collect()
}

fn evaluate(points: &[Point]) -> (SweepReport, Arc<SolveCache>) {
    let cache = Arc::new(SolveCache::new());
    let opts = SweepOptions::threads(2).with_cache(Arc::clone(&cache));
    let (report, _) = run_points("sweep_grid", points, &opts);
    (report, cache)
}

/// Rows without an answer: a failure record or missing values (every
/// point is inside the stability region).
fn bad_rows(report: &SweepReport) -> u64 {
    report
        .rows
        .iter()
        .filter(|r| r.failure.is_some() || r.short_response.is_none() || r.long_response.is_none())
        .count() as u64
}

struct Phase {
    grids_run: u64,
    answers: u64,
    failed: u64,
    slices: Vec<Slice>,
    /// Grid latencies, in completion order.
    latency_ns: Vec<u64>,
    cache_hits: u64,
    cache_lookups: u64,
    cache_entries: u64,
}

/// Evaluates grids round-robin until `seconds` have passed. Each report
/// must repeat the first report of its grid row for row.
fn measure(
    grids: &[Vec<Point>],
    baselines: &mut [Option<Vec<SweepRow>>],
    seconds: f64,
    tr: &mut Tracer,
) -> Phase {
    let start = Instant::now();
    let slice_ns = (seconds / SLICES as f64 * 1e9) as u64;
    let stop_at = start + Duration::from_nanos(slice_ns * SLICES as u64);
    let mut marks = vec![Mark::now(0, 0)];
    let mut phase = Phase {
        grids_run: 0,
        answers: 0,
        failed: 0,
        slices: Vec::new(),
        latency_ns: Vec::new(),
        cache_hits: 0,
        cache_lookups: 0,
        cache_entries: 0,
    };
    while Instant::now() < stop_at {
        let g = phase.grids_run as usize % grids.len();
        let span = tr.enter("sweep.run_points", None, phase.grids_run);
        let t = Instant::now();
        let (report, cache) = evaluate(&grids[g]);
        let latency_ns = t.elapsed().as_nanos() as u64;
        tr.exit(span);
        phase.grids_run += 1;
        phase.answers += report.rows.len() as u64;
        let t_ns = start.elapsed().as_nanos() as u64;
        phase.latency_ns.push(latency_ns);
        marks.push(Mark::now(t_ns, phase.answers));
        phase.failed += bad_rows(&report);
        match &baselines[g] {
            None => baselines[g] = Some(report.rows),
            Some(first) if !check::rows_identical(first, &report.rows) => phase.failed += 1,
            Some(_) => {}
        }
        if tr.is_on() {
            let s = cache.stats();
            phase.cache_hits += s.hits;
            phase.cache_lookups += s.hits + s.misses;
            phase.cache_entries += cache.len() as u64;
        }
    }
    phase.slices = stats::slices(&marks, SLICES, slice_ns);
    phase
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up: expand the seeded grids and evaluate the first one.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut questions: Vec<Vec<Query>> = Vec::new();
    let mut grids: Vec<Vec<Point>> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        questions = seeded_grids(ctx.seed);
        grids = questions
            .iter()
            .map(|g| g.iter().map(|q| q.point).collect())
            .collect();
        std::hint::black_box(evaluate(&grids[0]));
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let (base_fds, base_threads) = (sys::fds(), sys::threads());
    let mut baselines: Vec<Option<Vec<SweepRow>>> = vec![None; GRIDS];
    let mut tracer = Tracer::new(ctx.trace, ctx.epoch);
    let mut phases = Vec::new();
    for traced in [false, true]
        .into_iter()
        .take(if ctx.trace { 2 } else { 1 })
    {
        let mut tr = Tracer::new(traced, ctx.epoch);
        phases.push(measure(
            &grids,
            &mut baselines,
            ctx.phase_seconds(),
            &mut tr,
        ));
        tracer.merge(tr);
    }
    let rss_peak_mib = sys::rss_peak_mib();

    // The answer check: a seeded sample of each grid's rows.
    let by_id: HashMap<String, Point> = grids
        .iter()
        .flatten()
        .map(|p| (SweepRow::id_of(p), *p))
        .collect();
    let (mut checked, mut mismatches) = (0u64, 0u64);
    for (g, rows) in baselines.iter().enumerate() {
        let Some(rows) = rows else { continue };
        for (i, row) in rows.iter().enumerate() {
            if !gen::sampled(
                ctx.seed,
                (g * GRID_POINTS + i) as u64,
                GRID_POINTS as u64 / CHECK_PER_GRID,
            ) {
                continue;
            }
            checked += 1;
            let ok = by_id
                .get(&row.id)
                .is_some_and(|p| check::row_matches(p, row));
            mismatches += u64::from(!ok);
        }
    }

    let attempted = phases.iter().map(|p| p.answers).sum::<u64>();
    let failed = phases.iter().map(|p| p.failed).sum::<u64>() + mismatches;
    let first = &phases[0];
    let end_to_end = (!ctx.trace).then(|| EndToEnd {
        slices: first.slices.clone(),
        latency_ns: first.latency_ns.clone(),
        setup_s,
        rss_peak_mib,
    });
    let layers = if ctx.trace {
        let mut layers = empty_layers();
        std::thread::sleep(Duration::from_millis(100));
        layers.insert(
            "svc.conn.fds_after",
            sys::fds().saturating_sub(base_fds) as f64,
        );
        layers.insert(
            "svc.conn.threads_after",
            sys::threads().saturating_sub(base_threads) as f64,
        );
        let traced = &phases[1];
        let rate = |p: &Phase| stats::slice_median(&p.slices, |s| Some(s.answers_per_s()));
        layers.insert(
            "trace.overhead_share",
            (rate(&phases[0]) - rate(traced)) / rate(&phases[0]),
        );
        layers.insert(
            "core.cache.hit_share",
            traced.cache_hits as f64 / traced.cache_lookups.max(1) as f64,
        );
        layers.insert(
            "core.cache.entries",
            traced.cache_entries as f64 / traced.grids_run.max(1) as f64,
        );
        // The recovery probe opens a store holding every grid's answers.
        let store = ctx.work_dir.join("store");
        let all: Vec<Point> = grids.iter().flatten().copied().collect();
        let (_, cache) = evaluate(&all);
        let (durable, _) = DurableCache::open(&store, &SolveCache::new())
            .map_err(|e| format!("opening the store: {e}"))?;
        durable
            .compact(&cache.export_reports())
            .map_err(|e| format!("writing the store: {e}"))?;
        let flat: Vec<Query> = questions.into_iter().flatten().collect();
        layers::probe(ctx, &flat, &store, &mut tracer, &mut layers)?;
        write_spans(ctx, &tracer)?;
        Some(layers)
    } else {
        None
    };
    Ok(Outcome {
        attempted,
        failed,
        checked,
        mismatches,
        end_to_end,
        layers,
    })
}
