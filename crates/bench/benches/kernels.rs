//! Allocation and latency micro-benchmarks for the workspace-backed QBD
//! kernels, on the Figure-4 CS-CQ chain (`λ_S = 1.2`, exponential longs,
//! `ρ_L = 0.5`).
//!
//! Two solver paths are compared on the *same* chain:
//!
//! * `reference` — the original allocating pipeline
//!   ([`Qbd::solve_reference`]): every matrix product, inverse, and
//!   iteration step builds fresh `Vec`s;
//! * `workspace` — the in-place kernels ([`Qbd::solve_in`]) drawing all
//!   scratch from one warm [`Workspace`].
//!
//! Heap-allocation counts come from a counting `#[global_allocator]`
//! probe. Unlike wall-clock they are exactly reproducible, so this bench
//! **asserts** them: the workspace path allocates at least 5x less per
//! solve and at most 4 times, and a chain build (fits, block assembly,
//! validation) allocates at most 42 times for the heavy (2, 2) fleet and
//! for the Figure-4 chain. The power steps the stability certificate
//! takes over a Figure-4 grid and a (2, 2) grid are counts too, and
//! asserted. CI re-checks every count on every run.
//!
//! Wall clock is report-only across binaries. One ratio inside this
//! binary is gated: the multi-RHS row sweep against the per-column
//! substitution it replaced (≥ 2x).
//!
//! Results land in `BENCH_kernels.json` (`results` for timings,
//! `metrics` for counts and ratios). `--quick` for smoke runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cyclesteal_core::cs_cq_km::{self, Hosts};
use cyclesteal_core::{cs_cq, SystemParams};
use cyclesteal_linalg::{lu_factor_into, lu_solve_cols_into, Matrix, SpectralBound, Workspace};
use cyclesteal_markov::qbd::{Qbd, STABILITY_MARGIN};
use cyclesteal_xtest::Bench;

/// Counts every `alloc`/`realloc` (i.e. every fresh heap block the solver
/// requests) and forwards to the system allocator. Frees are not counted:
/// the interesting number is how much heap traffic a solve *generates*.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations allowed per chain build.
const MAX_BUILD_ALLOCS_K2M2: u64 = 42;
const MAX_BUILD_ALLOCS_FIGURE4: u64 = 42;
/// Heap allocations allowed per warm workspace solve: the four owned
/// fields of the solution.
const MAX_SOLVE_ALLOCS_WORKSPACE: u64 = 4;
/// Power steps allowed over each grid's stability certificates: the
/// measured totals (85 over the 64 Figure-4 chains, 51 over the 32 (2, 2)
/// chains) with some headroom. The full estimates take 5930 and 5337.
const MAX_CERT_STEPS_FIGURE4: usize = 96;
const MAX_CERT_STEPS_K2M2: usize = 64;

fn allocs_during(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn figure4_qbd() -> Qbd {
    let params = SystemParams::exponential(1.2, 1.0, 0.5, 1.0).unwrap();
    cs_cq::build_qbd_model(&params, Default::default()).unwrap()
}

fn main() {
    let mut h = Bench::new("kernels");
    let qbd = figure4_qbd();

    // --- Allocation counts: deterministic, averaged, asserted. ---
    const PROBE_ITERS: u64 = 16;
    let ref_allocs = allocs_during(|| {
        for _ in 0..PROBE_ITERS {
            black_box(qbd.solve_reference().unwrap());
        }
    }) / PROBE_ITERS;

    let mut ws = Workspace::new();
    // One warm-up solve fills the buffer pool; steady-state sweeps run warm.
    black_box(qbd.solve_in(&mut ws).unwrap());
    let ws_allocs = allocs_during(|| {
        for _ in 0..PROBE_ITERS {
            black_box(qbd.solve_in(&mut ws).unwrap());
        }
    }) / PROBE_ITERS;

    h.metric("allocs/qbd_solve/reference", ref_allocs as f64);
    h.metric("allocs/qbd_solve/workspace", ws_allocs as f64);
    assert!(
        ws_allocs * 5 <= ref_allocs,
        "workspace path must allocate >= 5x less per Figure-4 solve: \
         workspace = {ws_allocs}, reference = {ref_allocs}"
    );
    assert!(
        ws_allocs <= MAX_SOLVE_ALLOCS_WORKSPACE,
        "a warm workspace solve must allocate at most {MAX_SOLVE_ALLOCS_WORKSPACE} times: \
         {ws_allocs}"
    );

    // --- Chain builds: heap allocations per build, asserted. A build is
    // the busy-period fits, the block assembly and `Qbd::new`'s checks;
    // the fits and the Poisson MAP account for 31 of the (2, 2) count.
    let fleet_hosts = Hosts::new(2, 2).unwrap();
    let heavy_k2m2 = SystemParams::exponential(2.0, 1.0, 0.8, 1.0).unwrap();
    let figure4 = SystemParams::exponential(1.2, 1.0, 0.5, 1.0).unwrap();
    let build_allocs = |build: &dyn Fn() -> Qbd| {
        black_box(build());
        allocs_during(|| {
            for _ in 0..PROBE_ITERS {
                black_box(build());
            }
        }) / PROBE_ITERS
    };
    let build_k2m2 =
        || cs_cq_km::build_qbd_model(fleet_hosts, &heavy_k2m2, Default::default()).unwrap();
    let allocs_k2m2 = build_allocs(&build_k2m2);
    let allocs_figure4 =
        build_allocs(&|| cs_cq::build_qbd_model(&figure4, Default::default()).unwrap());
    h.metric("allocs/build/k2m2", allocs_k2m2 as f64);
    h.metric("allocs/build/figure4", allocs_figure4 as f64);
    assert!(
        allocs_k2m2 <= MAX_BUILD_ALLOCS_K2M2,
        "a (2, 2) chain build must allocate at most {MAX_BUILD_ALLOCS_K2M2} times: {allocs_k2m2}"
    );
    assert!(
        allocs_figure4 <= MAX_BUILD_ALLOCS_FIGURE4,
        "a Figure-4 chain build must allocate at most {MAX_BUILD_ALLOCS_FIGURE4} times: \
         {allocs_figure4}"
    );

    // --- Wall clock: report-only (layout noise makes it unassertable). ---
    h.bench("qbd_solve/figure4/reference", || {
        qbd.solve_reference().unwrap()
    });
    h.bench("qbd_solve/figure4/workspace", || {
        qbd.solve_in(&mut ws).unwrap()
    });

    // --- Solve throughput, report-only: chain by chain over a Figure-4
    // grid (ρ_S varied below the ρ_L = 0.5 frontier) and a (k = 2, m = 2)
    // fleet grid, best of N passes.
    let grid: Vec<Qbd> = (0..64)
        .map(|i| {
            let rho_s = 0.05 + 1.35 * (i as f64) / 63.0;
            let params = SystemParams::exponential(rho_s, 1.0, 0.5, 1.0).unwrap();
            cs_cq::build_qbd_model(&params, Default::default()).unwrap()
        })
        .collect();
    let fleet_grid: Vec<Qbd> = (0..32)
        .map(|i| {
            let rho_s = 0.1 + 2.9 * (i as f64) / 31.0;
            let params = SystemParams::exponential(rho_s, 1.0, 0.8, 1.0).unwrap();
            cs_cq_km::build_qbd_model(fleet_hosts, &params, Default::default()).unwrap()
        })
        .collect();
    let reps = if h.is_quick() { 3 } else { 12 };
    for (name, chains) in [("qbd_scalar", &grid), ("qbd_scalar_k2m2", &fleet_grid)] {
        let secs = best_of(reps, || {
            for q in chains {
                black_box(q.solve_in(&mut ws).unwrap());
            }
        });
        h.metric(
            &format!("points_per_sec/{name}"),
            chains.len() as f64 / secs,
        );
    }

    // --- Stability certificate: power steps per grid, asserted. The
    // solve stops the power iteration on R as soon as a Collatz–Wielandt
    // bound is below the stability margin; the full estimate would run to
    // 1e-13 agreement or 200 steps. Both totals are exact counts.
    for (name, chains, max_steps) in [
        ("figure4", &grid, MAX_CERT_STEPS_FIGURE4),
        ("k2m2", &fleet_grid, MAX_CERT_STEPS_K2M2),
    ] {
        let (mut cert, mut full) = (0, 0);
        for q in chains {
            let r = q.r_logarithmic_reduction().unwrap();
            full += r.spectral_radius_estimate_in(200, &mut ws).1;
            cert += match r.spectral_radius_below_in(STABILITY_MARGIN, 200, &mut ws) {
                SpectralBound::Below { steps } => steps,
                SpectralBound::Estimate { iterations, .. } => iterations,
            };
        }
        h.metric(&format!("cert_steps/{name}/certificate"), cert as f64);
        h.metric(&format!("cert_steps/{name}/full_estimate"), full as f64);
        assert!(
            cert <= max_steps,
            "the {name} grid's certificates must take at most {max_steps} power steps \
             in all: {cert} (the full estimates take {full})"
        );
    }

    // --- Multi-RHS substitution: the row sweep against the per-column
    // loop it replaced, on the (2, 2) boundary factor `I − R` (21 × 21)
    // with `R` as the 21 right-hand sides. Both run in this binary on the
    // same factor, so the ratio is gated; the bits must agree too.
    let r = heavy_k2m2_r(fleet_hosts, &heavy_k2m2);
    let n = r.rows();
    let i_minus_r = Matrix::identity(n).sub(&r).unwrap();
    let (mut lu, mut piv) = (Matrix::zeros(0, 0), Vec::new());
    lu_factor_into(&i_minus_r, &mut lu, &mut piv).unwrap();
    let (mut swept, mut by_column) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    lu_solve_cols_into(&lu, &piv, &r, &mut swept).unwrap();
    let mut x = Vec::new();
    solve_cols_per_column(&lu, &piv, &r, &mut by_column, &mut x);
    assert!(
        swept
            .as_slice()
            .iter()
            .zip(by_column.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "the row sweep must reproduce the per-column solve bit for bit"
    );
    // Short timed runs, many of them in either mode: a best-of-30 minimum
    // is steady where three long runs are not.
    const SOLVES: usize = 40;
    const SOLVE_REPS: usize = 30;
    let (column_secs, sweep_secs) = best_of_pair(
        SOLVE_REPS,
        || {
            for _ in 0..SOLVES {
                solve_cols_per_column(&lu, &piv, black_box(&r), &mut by_column, &mut x);
            }
        },
        || {
            for _ in 0..SOLVES {
                lu_solve_cols_into(&lu, &piv, black_box(&r), &mut swept).unwrap();
            }
        },
    );
    let sweep_ratio = column_secs / sweep_secs;
    h.metric("multi_rhs_solve/k2m2/per_column_over_sweep", sweep_ratio);
    assert!(
        sweep_ratio >= 2.0,
        "the row sweep must clear 2x the per-column multi-RHS solve on a \
         {n} x {n} (2, 2) factor: ratio {sweep_ratio:.2}"
    );

    h.finish();
}

/// The least wall times of `reps` runs each of `f` and `g`, in seconds,
/// the runs alternating so that both sides meet the same machine. The
/// minimum is the run least disturbed by the machine, the right
/// statistic for a ratio gate.
fn best_of_pair(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    (0..reps).fold((f64::INFINITY, f64::INFINITY), |(bf, bg), _| {
        (bf.min(best_of(1, &mut f)), bg.min(best_of(1, &mut g)))
    })
}

/// The least wall time of `reps` runs of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The heavy (2, 2) chain's rate matrix `R`.
fn heavy_k2m2_r(hosts: Hosts, params: &SystemParams) -> Matrix {
    let qbd = cs_cq_km::build_qbd_model(hosts, params, Default::default()).unwrap();
    qbd.solve().unwrap().r().clone()
}

/// The multi-RHS solve as it ran before the row sweep: one column at a
/// time, each a gather, a forward and a back substitution over row
/// slices, and a scatter. The oracle and the baseline of the sweep gate.
fn solve_cols_per_column(
    lu: &Matrix,
    pivots: &[usize],
    b: &Matrix,
    out: &mut Matrix,
    x: &mut Vec<f64>,
) {
    let n = lu.rows();
    out.reshape(n, b.cols());
    x.clear();
    x.resize(n, 0.0);
    let rows = lu.as_slice().chunks_exact(n);
    for j in 0..b.cols() {
        for (xi, &p) in x.iter_mut().zip(pivots) {
            *xi = b[(p, j)];
        }
        for (i, row) in rows.clone().enumerate().skip(1) {
            let (done, rest) = x.split_at_mut(i);
            let mut xi = rest[0];
            for (&l, &xj) in row[..i].iter().zip(done.iter()) {
                xi -= l * xj;
            }
            rest[0] = xi;
        }
        for (i, row) in rows.clone().enumerate().rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let mut xi = head[i];
            for (&u, &xj) in row[i + 1..].iter().zip(tail.iter()) {
                xi -= u * xj;
            }
            head[i] = xi / row[i];
        }
        for (i, &xi) in x.iter().enumerate() {
            out[(i, j)] = xi;
        }
    }
}
