//! Seeded workload inputs. Everything here is a pure function of the seed,
//! so the same seed gives the same points in the same order.

use std::collections::HashSet;

use cyclesteal_core::stability::{self, Policy};
use cyclesteal_svc::client::QueryRequest;
use cyclesteal_sweep::{Evaluator, LongLaw, Point};

/// Long-job squared coefficients of variation on the workload's C² axis.
pub const C2: [f64; 3] = [1.0, 4.0, 16.0];

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A generator for an independent purpose, derived from this seed.
    pub fn fork(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }
}

/// Which points a [`Stream`] draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// About three quarters (1, 1) and one quarter (2, 2) points, loads
    /// spread over the stability region.
    Mixed,
    /// Heavy (2, 2) points with ρ_S ≥ 2.
    Heavy22,
}

/// An endless stream of distinct CS-CQ analysis points. Two points are
/// distinct when their loads differ after the solve cache's quantization,
/// so every point the stream yields is a cache miss for a fresh daemon.
pub struct Stream {
    rng: Rng,
    mix: Mix,
    seen: HashSet<(u64, u64, usize, usize)>,
}

impl Stream {
    pub fn new(seed: u64, mix: Mix) -> Stream {
        Stream {
            rng: Rng::fork(seed, mix as u64 + 1),
            mix,
            seen: HashSet::new(),
        }
    }

    pub fn next_query(&mut self) -> Query {
        loop {
            let (q, c2_index) = draw(&mut self.rng, self.mix);
            let key = (
                cyclesteal_core::cache::quantize(q.point.rho_s).to_bits(),
                cyclesteal_core::cache::quantize(q.point.rho_l).to_bits(),
                c2_index,
                q.point.hosts.0,
            );
            if self.seen.insert(key) {
                return q;
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// One scenario question: the evaluation point and the nominal C² it was
/// drawn with (the wire request carries the nominal value, so the daemon
/// rebuilds exactly `point`).
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub point: Point,
    pub c2: f64,
}

impl Query {
    pub fn new(rho_s: f64, rho_l: f64, c2: f64, hosts: (usize, usize)) -> Query {
        let long = if c2 == 1.0 {
            LongLaw::exponential(1.0)
        } else {
            LongLaw::balanced(1.0, c2)
        }
        .expect("the C² axis holds feasible balanced laws");
        let point = Point {
            rho_s,
            rho_l,
            mean_s: 1.0,
            long,
            policy: Policy::CsCq,
            evaluator: Evaluator::Analysis,
            extend_longs: false,
            hosts,
        };
        Query { point, c2 }
    }

    /// The daemon request for this question.
    pub fn json(&self) -> String {
        QueryRequest {
            rho_s: self.point.rho_s,
            rho_l: self.point.rho_l,
            mean_s: 1.0,
            long_mean: 1.0,
            long_scv: self.c2,
            policy: "cs_cq",
            hosts: self.point.hosts,
            extend_longs: false,
            budget_ns: None,
        }
        .to_json()
    }
}

fn draw(rng: &mut Rng, mix: Mix) -> (Query, usize) {
    let c2_index = rng.below(C2.len());
    let (hosts, rho_l, rho_s) = match mix {
        Mix::Mixed if rng.below(4) != 0 => {
            let rho_l = rng.range(0.1, 0.8);
            let max = stability::max_rho_s(Policy::CsCq, rho_l);
            ((1, 1), rho_l, rng.range(0.05, 0.9) * max)
        }
        Mix::Mixed => {
            let rho_l = rng.range(0.2, 1.6);
            let max = stability::max_rho_s_km(2, 2, rho_l);
            ((2, 2), rho_l, rng.range(0.05, 0.9) * max)
        }
        Mix::Heavy22 => {
            let rho_l = rng.range(0.2, 1.2);
            let max = stability::max_rho_s_km(2, 2, rho_l);
            ((2, 2), rho_l, rng.range(2.0, 0.9 * max))
        }
    };
    (Query::new(rho_s, rho_l, C2[c2_index], hosts), c2_index)
}

/// Whether the answer with sequence number `seq` belongs to the seeded
/// sample that is checked against a fresh in-process evaluation.
pub fn sampled(seed: u64, seq: u64, one_in: u64) -> bool {
    Rng::fork(seed, seq ^ 0x00C0_FFEE)
        .next_u64()
        .is_multiple_of(one_in)
}
