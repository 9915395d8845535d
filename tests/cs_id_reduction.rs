//! CS-ID has one chain builder — long-host state × short-arrival MAP
//! phase — and Poisson shorts are its one-phase case. This suite gates
//! that reduction two ways:
//!
//! * **Poisson oracle.** On a grid of 2,145 workloads (`ρ_S` 0.05–1.95,
//!   past the CS-ID frontier, `ρ_L` 0.1–1.0, long `C²` 0.5–64),
//!   `analyze`, `analyze_thinned_poisson` and `long_response` reproduce
//!   the Poisson decomposition in `tests/support/cs_id_poisson.rs` *bit for
//!   bit*, and where the oracle errs they err identically. `analyze_map` at
//!   a one-phase MAP is `analyze` bit for bit.
//! * **MAP pins.** `analyze_map` on bursty, asymmetric and near-overload
//!   MAPs reproduces values recorded from the separate MAP builder this
//!   chain replaced, to 1e-12 relative.

use cyclesteal::core::cs_id::{self, CsIdReport};
use cyclesteal::core::{AnalysisError, SystemParams};
use cyclesteal::dist::{Map, Moments3};

mod support;
use support::cs_id_poisson as oracle;

fn params(rho_s: f64, rho_l: f64, scv: f64) -> SystemParams {
    let long = Moments3::from_mean_scv_balanced(1.0, scv).unwrap();
    SystemParams::from_loads(rho_s, 1.0, rho_l, long).unwrap()
}

/// `(ρ_S, ρ_L, C²_L)` over the Figure 3–6 axes, extended past the CS-ID
/// short-class frontier and to `ρ_L = 1` so every error path is crossed.
fn grid() -> Vec<(f64, f64, f64)> {
    let rho_l = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0];
    let mut out = Vec::new();
    for i in 1..=39 {
        for &rl in &rho_l {
            for scv in [0.5, 1.0, 4.0, 16.0, 64.0] {
                out.push((0.05 * f64::from(i), rl, scv));
            }
        }
    }
    out
}

fn report_bits(r: &CsIdReport) -> [u64; 4] {
    [
        r.short_response.to_bits(),
        r.long_response.to_bits(),
        r.steal_probability.to_bits(),
        r.setup_probability.to_bits(),
    ]
}

/// Bit-identical values, or errors that print identically (same variant,
/// same field bits: `{:?}` prints the shortest round-trip float).
fn assert_same<T: std::fmt::Debug>(
    got: &Result<T, AnalysisError>,
    want: &Result<T, AnalysisError>,
    bits: impl Fn(&T) -> Vec<u64>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(bits(g), bits(w), "{what}: {g:?} vs oracle {w:?}"),
        (Err(g), Err(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}"),
        _ => panic!("{what}: {got:?} vs oracle {want:?}"),
    }
}

#[test]
fn poisson_chain_is_the_decomposition_bit_for_bit() {
    let points = grid();
    assert_eq!(points.len(), 2_145);
    let (mut solved, mut past_frontier) = (0, 0);
    for (rho_s, rho_l, scv) in points {
        let p = params(rho_s, rho_l, scv);
        let what = format!("rho_s={rho_s} rho_l={rho_l} scv={scv}");

        let full = cs_id::analyze(&p);
        assert_same(
            &full,
            &oracle::analyze(&p),
            |r| report_bits(r).to_vec(),
            &what,
        );
        let thinned = cs_id::analyze_thinned_poisson(&p);
        let thinned_want = oracle::analyze_thinned_poisson(&p);
        assert_same(&thinned, &thinned_want, |r| report_bits(r).to_vec(), &what);
        let long = cs_id::long_response(&p);
        assert_same(
            &long,
            &oracle::long_response(&p),
            |t| vec![t.to_bits()],
            &what,
        );

        if let Ok(r) = &full {
            solved += 1;
            let via_map = cs_id::analyze_map(&p, &Map::poisson(p.lambda_s()).unwrap()).unwrap();
            assert_eq!(report_bits(&via_map), report_bits(r), "{what}: analyze_map");
        } else if long.is_ok() {
            past_frontier += 1;
        }
    }
    // The grid must exercise both the full analysis and the Figure-6
    // long-only continuation, not just error agreement.
    assert!(solved >= 1_000, "{solved} stable points");
    assert!(
        past_frontier >= 200,
        "{past_frontier} points past the frontier"
    );
}

/// `analyze_map` values recorded from the MAP builder this chain replaced:
/// `(label, ρ_S, ρ_L, C²_L, MAP, [short, long, steal, setup])`.
#[allow(clippy::type_complexity)]
fn map_pins() -> Vec<(&'static str, SystemParams, Map, [f64; 4])> {
    vec![
        (
            "bursty 9x, sojourn 10",
            params(0.8, 0.4, 1.0),
            Map::bursty(0.8, 9.0, 10.0).unwrap(),
            [
                4.351695135281104,
                2.042812976062574,
                0.2821097320469304,
                0.30102747011429964,
            ],
        ),
        (
            "bursty 4x, sojourn 2",
            params(0.5, 0.5, 1.0),
            Map::bursty(0.5, 4.0, 2.0).unwrap(),
            [
                1.5711874045518401,
                2.3186147186147186,
                0.3186147186147188,
                0.23764933806909916,
            ],
        ),
        (
            "bursty 16x, Coxian longs C^2 = 8",
            params(0.9, 0.5, 8.0),
            Map::bursty(0.9, 16.0, 5.0).unwrap(),
            [
                6.999560888278788,
                5.890651286841141,
                0.21702849268952465,
                0.29942436200351785,
            ],
        ),
        (
            "asymmetric MMPP2",
            params(0.7, 0.3, 1.0),
            Map::mmpp2(0.5, 2.0, 0.5, 1.5).unwrap(),
            [
                1.6782856359848959,
                1.8290935580384065,
                0.40052212946697785,
                0.33947059639613825,
            ],
        ),
        (
            "interrupted Poisson (MMPP2 with a silent phase)",
            params(0.6, 0.6, 1.0),
            Map::mmpp2(1.0, 3.0, 0.0, 2.4).unwrap(),
            [
                2.453753109397116,
                2.8114493828272415,
                0.20763292188482785,
                0.22039677964059137,
            ],
        ),
        (
            "one-phase MAP",
            params(0.9, 0.5, 1.0),
            Map::poisson(0.9).unwrap(),
            [
                2.8183273906851163,
                2.473684210526316,
                0.26315789473684215,
                0.37500000000000006,
            ],
        ),
        (
            "near the overflow limit (overflow 0.973 mu_S)",
            params(1.25, 0.5, 1.0),
            Map::bursty(1.25, 1.5, 0.5).unwrap(),
            [
                36.31938508970678,
                2.553696399238778,
                0.22147855969551106,
                0.45268003453576494,
            ],
        ),
    ]
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs()
}

#[test]
fn map_chain_reproduces_pinned_values() {
    let pins = map_pins();
    assert!(pins.len() >= 6);
    for (label, p, map, want) in pins {
        let r = cs_id::analyze_map(&p, &map).unwrap();
        let got = [
            r.short_response,
            r.long_response,
            r.steal_probability,
            r.setup_probability,
        ];
        for (field, (g, w)) in ["short", "long", "steal", "setup"]
            .iter()
            .zip(got.iter().zip(&want))
        {
            assert!(close(*g, *w), "{label}: {field} {g:e} vs pinned {w:e}");
        }
    }
}

#[test]
fn map_overflow_past_the_limit_is_pinned() {
    // Bursty enough that too few shorts are stolen: the overflow stream
    // alone overloads the short host, which Theorem 1 (Poisson) admits.
    let p = params(1.25, 0.5, 1.0);
    assert!(cs_id::analyze(&p).is_ok());
    let map = Map::bursty(1.25, 16.0, 50.0).unwrap();
    match cs_id::analyze_map(&p, &map) {
        Err(AnalysisError::Unstable {
            policy: "CS-ID",
            rho_s,
            rho_l,
            rho_s_max,
        }) => {
            assert_eq!((rho_s, rho_l), (p.rho_s(), p.rho_l()));
            assert!(
                close(rho_s_max, 1.2021839903886684),
                "rho_s_max {rho_s_max:e}"
            );
        }
        other => panic!("expected overflow instability, got {other:?}"),
    }
}
