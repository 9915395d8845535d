//! Pins the QBD solver's output **bits** across commits.
//!
//! The golden suites allow 1% and the batch/daemon gates compare two
//! paths of the *same* build against each other, so neither notices a
//! kernel rewrite that moves the last bit of every answer. This suite
//! does: for a fixed set of chains it hashes the `to_bits` patterns of
//! every [`QbdSolution`] field (`boundary`, `pi0`, `R`, `phase_mass`,
//! `expected_level_index`, `normalization_pivot`) and of the
//! [`CsCqReport`] built from it (both response means, the mean short
//! count, the region probabilities, the setup probability and the total
//! mass), and compares the hashes with constants recorded once.
//!
//! Each chain is solved through [`Qbd::solve_in`] and through
//! [`Qbd::solve_batch_in`] at widths 1, 7, 16 and 40, with the chain in every
//! lane position among same-shape companions; all of them must produce
//! the pinned bits. The chains cover the Figure-4 operating points,
//! (1, 1) and (2, 2) fleets at C² = 4 and 16, heavy (2, 2) fleets with
//! ρ_S ≥ 2, MAP short arrivals, a chain whose boundary solve rejects the
//! default normalization pivot, a chain whose logarithmic reduction
//! diverges so the solve succeeds only through the functional-iteration
//! fallback, a Figure-4 chain solved by functional iteration alone
//! through [`Qbd::solve_with`], and an unstable chain. Errors are pinned
//! too (their message and spectral-radius bits — for the unstable chain,
//! the mean-drift ratio), so a path that starts failing cannot pass.
//!
//! A legitimate numerical change (new algorithm, different operation
//! order) must re-record the table; the failure message prints it.

use std::collections::BTreeMap;

use cyclesteal::core::cache::{PlannedChain, SolveCache};
use cyclesteal::core::cs_cq::{self, BusyPeriodFit, CsCqReport};
use cyclesteal::core::cs_cq_km::{self, Hosts};
use cyclesteal::core::SystemParams;
use cyclesteal::dist::{Map, Moments3};
use cyclesteal::linalg::{Matrix, Workspace};
use cyclesteal::markov::qbd::RAlgorithm;
use cyclesteal::markov::{MarkovError, Qbd, QbdSolution};

/// `(case, solution fingerprint, report fingerprint)`; a report
/// fingerprint of 0 means the case has no CS-CQ report.
const PINS: &[(&str, u64, u64)] = &[
    (
        "1x1 rho_s=0.1 rho_l=0.5 scv=1",
        0xa9bdda91b0c1d894,
        0xb6c95d6921f22d3e,
    ),
    (
        "1x1 rho_s=0.3 rho_l=0.5 scv=1",
        0x4044e7202a47c362,
        0x96661b8075557f48,
    ),
    (
        "1x1 rho_s=0.5 rho_l=0.5 scv=1",
        0x574cecb14935f0cc,
        0x1e16fd8c460ff5c4,
    ),
    (
        "1x1 rho_s=0.7 rho_l=0.5 scv=1",
        0x26883b0c34c4113c,
        0x7830d2176749fb96,
    ),
    (
        "1x1 rho_s=0.9 rho_l=0.5 scv=1",
        0x13e91ec85047a03a,
        0x8fbbcb1e69bf28a0,
    ),
    (
        "1x1 rho_s=1 rho_l=0.5 scv=1",
        0xf632b390bfdba684,
        0xeb452e3be14f5dd2,
    ),
    (
        "1x1 rho_s=1.1 rho_l=0.5 scv=1",
        0x685a848894dce815,
        0x328809060fc03f26,
    ),
    (
        "1x1 rho_s=1.2 rho_l=0.5 scv=1",
        0xacf8589603242761,
        0x45472a02a02897b4,
    ),
    (
        "1x1 rho_s=1.3 rho_l=0.5 scv=1",
        0x0cfaf88a62bc306f,
        0x195d95d27fdc9bac,
    ),
    (
        "1x1 rho_s=1.4 rho_l=0.5 scv=1",
        0x451187d3ed57c638,
        0xed03f76b1aa7517b,
    ),
    (
        "1x1 rho_s=0.5 rho_l=0.5 scv=4",
        0x0efd3b13b52ca262,
        0x6204e2fead47506e,
    ),
    (
        "1x1 rho_s=1 rho_l=0.5 scv=4",
        0xd0424a301b42d0f9,
        0x3a955a29a443957c,
    ),
    (
        "1x1 rho_s=1.3 rho_l=0.5 scv=4",
        0x78bdb2c24a4bf706,
        0xd1a728e12a60af83,
    ),
    (
        "2x2 rho_s=1 rho_l=0.8 scv=4",
        0x1c87fef2cd581a56,
        0x4c32f6b5037b9edc,
    ),
    (
        "2x2 rho_s=2.5 rho_l=0.8 scv=4",
        0xa2561da262a5695d,
        0x995c639a00d57d25,
    ),
    (
        "1x1 rho_s=0.5 rho_l=0.5 scv=16",
        0x574781b41f015a77,
        0x9ca29349fa6ae532,
    ),
    (
        "1x1 rho_s=1 rho_l=0.5 scv=16",
        0xa956cef91220d099,
        0x813913ccf2e6d8f5,
    ),
    (
        "1x1 rho_s=1.3 rho_l=0.5 scv=16",
        0x565a300529d81754,
        0x3e792d38fb1413df,
    ),
    (
        "2x2 rho_s=1 rho_l=0.8 scv=16",
        0xddddd1b0914534dd,
        0x03ed126fde3d8ca4,
    ),
    (
        "2x2 rho_s=2.5 rho_l=0.8 scv=16",
        0x9bb51910b36198cd,
        0x4468b469cb220813,
    ),
    (
        "2x2 rho_s=2 rho_l=0.8 scv=1",
        0xd2646c6a2ffca6f6,
        0x3537ec58ca9aae8e,
    ),
    (
        "2x2 rho_s=2.4 rho_l=0.8 scv=1",
        0xe0d4ab368c04d946,
        0x2cd5bc59e5f74afc,
    ),
    (
        "2x2 rho_s=2.8 rho_l=0.8 scv=1",
        0x3ee38bfd19306313,
        0xbe08870c505dee61,
    ),
    (
        "2x2 rho_s=3.1 rho_l=0.8 scv=1",
        0xd4c576a2cc340541,
        0x0a0c551a331d524f,
    ),
    ("map bursty", 0x3213dd2bac889b23, 0xd35aa1d02c7605f7),
    ("map asymmetric", 0x8645b1eb17dc2b4b, 0xccfbb4a35713216e),
    ("pivot 0", 0x7533fa22de43d592, 0x0000000000000000),
    ("unstable", 0x057730bad6cdfeb7, 0x0000000000000000),
    (
        "functional-iteration fallback",
        0xf46fdb36f01f8f08,
        0x0000000000000000,
    ),
    (
        "1x1 rho_s=0.9 rho_l=0.5 scv=1 functional iteration",
        0x0b23880458c6aca8,
        0x0000000000000000,
    ),
];

/// The batch widths every chain is pushed through; at 40 lanes the
/// (2, 2) boundary solves run in more than one group.
const WIDTHS: [usize; 4] = [1, 7, 16, 40];

/// FNV-1a over the bit patterns of `xs`, length-prefixed so adjacent
/// fields cannot trade entries without changing the hash.
fn eat(h: &mut u64, xs: &[f64]) {
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(xs.len() as u64);
    for x in xs {
        word(x.to_bits());
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn solution_fp(sol: &QbdSolution) -> u64 {
    let mut h = FNV_OFFSET;
    eat(&mut h, sol.boundary());
    eat(&mut h, sol.pi0());
    eat(&mut h, sol.r().as_slice());
    eat(&mut h, &sol.phase_mass());
    eat(&mut h, &[sol.expected_level_index()]);
    eat(&mut h, &[sol.normalization_pivot() as f64]);
    h
}

/// The fingerprint of a solve's outcome: the solution's, or for an error
/// its rendered message plus the bits of every spectral radius it carries.
fn outcome_fp(outcome: &Result<QbdSolution, MarkovError>) -> u64 {
    fn radii(e: &MarkovError, out: &mut Vec<f64>) {
        match e {
            MarkovError::Unstable { spectral_radius } => out.push(*spectral_radius),
            MarkovError::FallbackExhausted {
                primary, fallback, ..
            } => {
                radii(primary, out);
                radii(fallback, out);
            }
            _ => {}
        }
    }
    match outcome {
        Ok(sol) => solution_fp(sol),
        Err(e) => {
            let mut h = FNV_OFFSET;
            let text: Vec<f64> = e.to_string().bytes().map(f64::from).collect();
            eat(&mut h, &text);
            let mut sp = Vec::new();
            radii(e, &mut sp);
            eat(&mut h, &sp);
            h
        }
    }
}

fn report_fp(r: &CsCqReport) -> u64 {
    let mut h = FNV_OFFSET;
    eat(
        &mut h,
        &[
            r.short_response,
            r.long_response,
            r.mean_shorts_in_system,
            r.p_region1,
            r.p_region2,
            r.p_region5,
            r.setup_probability,
            r.total_mass,
        ],
    );
    h
}

/// Where a case's CS-CQ report comes from.
enum Report {
    /// The cached analysis (Poisson shorts); the batched path seeds the
    /// cache with the batch's solution first, under the planned chain's
    /// key, as the sweep presolve does.
    Cached(Hosts, SystemParams, Box<PlannedChain>),
    /// The MAP analysis, which solves on its own (scalar only).
    Map(SystemParams, Map),
    None,
}

struct Case {
    name: String,
    qbd: Qbd,
    report: Report,
    /// `Some` solves with that algorithm alone ([`Qbd::solve_with`], no
    /// batched path); `None` runs the full solver ladder.
    alg: Option<RAlgorithm>,
}

fn params(rho_s: f64, rho_l: f64, scv: f64) -> SystemParams {
    let long = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
    SystemParams::from_loads(rho_s, 1.0, rho_l, long).unwrap()
}

/// A CS-CQ case built exactly as the cached analysis builds it.
fn cs_cq_case(hosts: Hosts, rho_s: f64, rho_l: f64, scv: f64) -> Case {
    let p = params(rho_s, rho_l, scv);
    let plan = cs_cq_km::plan_qbd_cached(hosts, &p, BusyPeriodFit::ThreeMoment, &SolveCache::new())
        .unwrap();
    Case {
        name: format!(
            "{}x{} rho_s={rho_s} rho_l={rho_l} scv={scv}",
            hosts.k(),
            hosts.m()
        ),
        qbd: plan.build().unwrap(),
        report: Report::Cached(hosts, p, Box::new(plan)),
        alg: None,
    }
}

fn map_case(name: &str, map: Map) -> Case {
    let long = Moments3::from_mean_scv_balanced(1.0, 1.0).unwrap();
    let p = SystemParams::new(map.rate(), 1.0, 0.5, long).unwrap();
    Case {
        name: format!("map {name}"),
        qbd: cs_cq::build_qbd_model_map(&p, &map).unwrap(),
        report: Report::Map(p, map),
        alg: None,
    }
}

/// M/PH/1 with a two-stage Coxian service law and every rate explicit.
fn mph1(lambda: f64, c_mu1: f64, c_p: f64, c_mu2: f64) -> Qbd {
    let exit = [c_mu1 * (1.0 - c_p), c_mu2];
    let a0 = Matrix::from_diag(&[lambda, lambda]);
    let mut a1 = Matrix::from_rows(&[&[-c_mu1, c_p * c_mu1], &[0.0, -c_mu2]]).unwrap();
    let mut a2 = Matrix::zeros(2, 2);
    for i in 0..2 {
        a1[(i, i)] -= lambda;
        a2[(i, 0)] = exit[i];
    }
    let b00 = Matrix::from_vec(1, 1, vec![-lambda]);
    let b01 = Matrix::from_vec(1, 2, vec![lambda, 0.0]);
    let b10 = Matrix::from_vec(2, 1, vec![exit[0], exit[1]]);
    Qbd::new(b00, b01, b10, a0, a1, a2).unwrap()
}

/// A two-phase chain that alternates one level up (phase 1 → 0) and one
/// level down (phase 0 → 1) on rates eight decades apart, with a small
/// same-level escape from phase 1. It is positive recurrent, but
/// logarithmic reduction diverges to non-finite values on it, so the
/// solve succeeds only through the functional-iteration fallback.
fn fallback_chain() -> Qbd {
    let (down, up, escape) = (
        1.300_792_047_537_886_7e-5,
        15_479.119_362_655_953,
        1.382_183_119_889_792_3e-4,
    );
    let a0 = Matrix::from_rows(&[&[0.0, 0.0], &[up, 0.0]]).unwrap();
    let a1 = Matrix::from_rows(&[&[-down, 0.0], &[escape, -15_479.119_500_874_265]]).unwrap();
    let a2 = Matrix::from_rows(&[&[0.0, down], &[0.0, 0.0]]).unwrap();
    let b10 = Matrix::from_rows(&[&[down], &[0.0]]).unwrap();
    let b01 = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
    let b00 = Matrix::from_vec(1, 1, vec![-1.0]);
    Qbd::new(b00, b01, b10, a0, a1, a2).unwrap()
}

fn cases() -> Vec<Case> {
    let one = Hosts::paper();
    let fleet = Hosts::new(2, 2).unwrap();
    let mut cases = Vec::new();
    // Figure 4: exponential longs, ρ_L = 0.5, the golden ρ_S axis.
    for rho_s in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4] {
        cases.push(cs_cq_case(one, rho_s, 0.5, 1.0));
    }
    for scv in [4.0, 16.0] {
        for rho_s in [0.5, 1.0, 1.3] {
            cases.push(cs_cq_case(one, rho_s, 0.5, scv));
        }
        for rho_s in [1.0, 2.5] {
            cases.push(cs_cq_case(fleet, rho_s, 0.8, scv));
        }
    }
    // Heavy (2, 2) fleets: the daemon burst workload's regime.
    for rho_s in [2.0, 2.4, 2.8, 3.1] {
        cases.push(cs_cq_case(fleet, rho_s, 0.8, 1.0));
    }
    cases.push(map_case("bursty", Map::bursty(0.9, 9.0, 10.0).unwrap()));
    cases.push(map_case(
        "asymmetric",
        Map::mmpp2(0.05, 0.2, 0.4, 2.0).unwrap(),
    ));
    // Generator entries near 1e10 lift the default pivot's residual above
    // the acceptance threshold, so the boundary solve settles on pivot 0.
    cases.push(Case {
        name: "pivot 0".into(),
        qbd: mph1(1e9, 2e10, 0.6, 0.5e10),
        report: Report::None,
        alg: None,
    });
    // Mean drift above 1: the precheck's drift ratio is the error.
    cases.push(Case {
        name: "unstable".into(),
        qbd: mph1(0.7, 2.0, 0.6, 0.5),
        report: Report::None,
        alg: None,
    });
    cases.push(Case {
        name: "functional-iteration fallback".into(),
        qbd: fallback_chain(),
        report: Report::None,
        alg: None,
    });
    let mut fi = cs_cq_case(one, 0.9, 0.5, 1.0);
    fi.name = format!("{} functional iteration", fi.name);
    fi.report = Report::None;
    fi.alg = Some(RAlgorithm::FunctionalIteration);
    cases.push(fi);
    cases
}

/// One report per case, through the scalar path (`None` for cases
/// without a report).
fn scalar_report(case: &Case, ws: &mut Workspace) -> Option<CsCqReport> {
    match &case.report {
        Report::Cached(hosts, p, _) => Some(
            cs_cq_km::analyze_cached_in(
                *hosts,
                p,
                BusyPeriodFit::ThreeMoment,
                &SolveCache::new(),
                ws,
            )
            .unwrap(),
        ),
        Report::Map(p, map) => Some(cs_cq::analyze_map(p, map).unwrap()),
        Report::None => None,
    }
}

#[test]
fn solver_bits_are_pinned_across_commits() {
    let cases = cases();
    let mut ws = Workspace::new();
    // Scalar fingerprints: the values every other path must reproduce.
    let mut got: Vec<(u64, u64)> = Vec::new();
    for case in &cases {
        let outcome = match case.alg {
            None => case.qbd.solve_in(&mut ws),
            Some(alg) => case.qbd.solve_with(alg),
        };
        match (case.name.as_str(), &outcome) {
            ("pivot 0", Ok(sol)) => assert_eq!(sol.normalization_pivot(), 0),
            ("functional-iteration fallback", Ok(_)) => assert!(matches!(
                case.qbd.r_logarithmic_reduction(),
                Err(MarkovError::NoConvergence { .. })
            )),
            ("unstable", Err(MarkovError::Unstable { .. })) => {}
            _ => assert!(outcome.is_ok(), "{}: {outcome:?}", case.name),
        }
        let rep = scalar_report(case, &mut ws).map_or(0, |r| report_fp(&r));
        got.push((outcome_fp(&outcome), rep));
    }

    // Batched fingerprints: every chain in every lane of every width,
    // batched with the other chains of its shape.
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, case) in cases.iter().enumerate().filter(|(_, c)| c.alg.is_none()) {
        let shape = (case.qbd.boundary_dim(), case.qbd.phase_dim());
        groups.entry(shape).or_default().push(i);
    }
    let mut mismatches = Vec::new();
    for members in groups.values() {
        for width in WIDTHS {
            for start in 0..members.len() {
                let lanes: Vec<usize> = (0..width)
                    .map(|j| members[(start + j) % members.len()])
                    .collect();
                let refs: Vec<&Qbd> = lanes.iter().map(|&c| &cases[c].qbd).collect();
                let sols = Qbd::solve_batch_in(&refs, &mut ws);
                // A fresh cache seeded with this batch's solutions, as the
                // sweep presolve seeds it: reports read the batched bits.
                let cache = SolveCache::new();
                for (&c, sol) in lanes.iter().zip(&sols) {
                    if let (Report::Cached(_, _, plan), Ok(sol)) = (&cases[c].report, sol) {
                        cache.seed_qbd_solution(plan, sol.clone());
                    }
                }
                for (lane, (&c, sol)) in lanes.iter().zip(&sols).enumerate() {
                    let sol_fp = outcome_fp(sol);
                    let rep_fp = match &cases[c].report {
                        Report::Cached(hosts, p, plan) => {
                            assert!(cache.peek_report(&plan.key()).is_some());
                            let r = cs_cq_km::analyze_cached_in(
                                *hosts,
                                p,
                                BusyPeriodFit::ThreeMoment,
                                &cache,
                                &mut ws,
                            )
                            .unwrap();
                            report_fp(&r)
                        }
                        // The MAP analysis has no batched path.
                        Report::Map(..) => got[c].1,
                        Report::None => 0,
                    };
                    if (sol_fp, rep_fp) != got[c] {
                        mismatches.push(format!(
                            "{}: width {width} lane {lane} gave {sol_fp:#018x}/{rep_fp:#018x}, \
                             scalar {:#018x}/{:#018x}",
                            cases[c].name, got[c].0, got[c].1
                        ));
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "batched bits differ from scalar bits:\n{}",
        mismatches.join("\n")
    );

    let table: Vec<String> = cases
        .iter()
        .zip(&got)
        .map(|(case, (s, r))| format!("    ({:?}, {s:#018x}, {r:#018x}),", case.name))
        .collect();
    let now: Vec<(&str, u64, u64)> = cases
        .iter()
        .zip(&got)
        .map(|(case, &(s, r))| (case.name.as_str(), s, r))
        .collect();
    assert!(
        PINS == now.as_slice(),
        "solver bits moved; if the change is meant to move them, the new table is:\n{}",
        table.join("\n")
    );
}
