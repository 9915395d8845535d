//! Determinism guarantees of the simulator: a seed pins the *entire*
//! statistical output bit-for-bit, across runs and platforms (the PRNG is
//! in-tree, so no external crate can silently change the stream), and
//! distinct seeds give genuinely different sample paths.

use cyclesteal_dist::{Exp, HyperExp2, Map};
use cyclesteal_sim::{
    replicate_parallel, simulate, Arrivals, PolicyKind, Replicated, SimConfig, SimParams, SimResult,
};

fn run(policy: PolicyKind, seed: u64) -> SimResult {
    let short = Exp::with_mean(1.0).unwrap();
    let long = HyperExp2::balanced_means(2.0, 4.0).unwrap();
    let params = SimParams::new(0.9, 0.25, &short, &long).unwrap();
    simulate(
        policy,
        &params,
        &SimConfig {
            seed,
            total_jobs: 50_000,
            ..SimConfig::default()
        },
    )
}

/// Every observable statistic must agree exactly — not approximately —
/// between two runs with the same seed.
fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    for (x, y) in [
        (&a.short, &b.short),
        (&a.long, &b.long),
        (&a.short_wait, &b.short_wait),
        (&a.long_wait, &b.long_wait),
    ] {
        assert_eq!(x.count, y.count);
        assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        assert_eq!(x.variance.to_bits(), y.variance.to_bits());
        assert_eq!(x.ci_half.to_bits(), y.ci_half.to_bits());
        for (p, q) in x.percentiles.iter().zip(&y.percentiles) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }
    assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.queued_at_end, b.queued_at_end);
    for (u, v) in a.utilization.iter().zip(&b.utilization) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
    for (u, v) in a.mean_in_system.iter().zip(&b.mean_in_system) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

#[test]
fn same_seed_is_bit_identical_for_every_policy() {
    for policy in [
        PolicyKind::Dedicated,
        PolicyKind::CsId,
        PolicyKind::CsCq,
        PolicyKind::CentralFcfs,
    ] {
        let a = run(policy, 0xD5EED);
        let b = run(policy, 0xD5EED);
        assert_bit_identical(&a, &b);
    }
}

/// Replicated `(k, m)` fleet runs at a given thread count.
fn fleet_run(threads: usize, seed: u64) -> Replicated {
    let short = Exp::with_mean(1.0).unwrap();
    let long = HyperExp2::balanced_means(2.0, 4.0).unwrap();
    let params = SimParams::new(1.2, 0.4, &short, &long).unwrap();
    let kind = PolicyKind::cs_cq_fleet(2, 2, &params).unwrap();
    let config = SimConfig {
        seed,
        total_jobs: 20_000,
        ..SimConfig::default()
    };
    replicate_parallel(kind, &params, &config, 6, threads)
}

/// Fleet runs carry the same seeded-determinism contract as the 2-host
/// policies: replicated statistics are bit-identical at 1, 2, and 8
/// threads (replications shard across threads but aggregate in seed
/// order), run by run and in the pooled aggregates.
#[test]
fn fleet_replication_is_bit_identical_across_thread_counts() {
    let base = fleet_run(1, 0xF1EE7);
    for threads in [2, 8] {
        let other = fleet_run(threads, 0xF1EE7);
        assert_eq!(base.runs.len(), other.runs.len());
        for (a, b) in base.runs.iter().zip(&other.runs) {
            for (x, y) in [
                (&a.short, &b.short),
                (&a.long, &b.long),
                (&a.short_wait, &b.short_wait),
                (&a.long_wait, &b.long_wait),
            ] {
                assert_eq!(x.count, y.count, "{threads} threads");
                assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "{threads} threads");
                assert_eq!(x.variance.to_bits(), y.variance.to_bits());
            }
            assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
            assert_eq!(a.completions, b.completions);
            assert_eq!(a.queued_at_end, b.queued_at_end);
            for (u, v) in a.utilization.iter().zip(&b.utilization) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        assert_eq!(
            base.short.mean.to_bits(),
            other.short.mean.to_bits(),
            "{threads} threads"
        );
        assert_eq!(base.long.mean.to_bits(), other.long.mean.to_bits());
        assert_eq!(base.short.ci_half.to_bits(), other.short.ci_half.to_bits());
    }
}

/// Distinct fleet seeds give genuinely different sample paths that still
/// estimate the same system.
#[test]
fn fleet_seeds_differ() {
    let a = fleet_run(1, 11);
    let b = fleet_run(1, 22);
    assert_ne!(a.short.mean.to_bits(), b.short.mean.to_bits());
    assert_ne!(a.long.mean.to_bits(), b.long.mean.to_bits());
    assert!((a.short.mean - b.short.mean).abs() / a.short.mean < 0.2);
}

#[test]
fn different_seeds_differ() {
    let a = run(PolicyKind::CsCq, 1);
    let b = run(PolicyKind::CsCq, 2);
    // The sample paths must diverge: means are continuous statistics of
    // 50k draws, so an exact collision indicates seed plumbing is broken.
    assert_ne!(a.short.mean.to_bits(), b.short.mean.to_bits());
    assert_ne!(a.long.mean.to_bits(), b.long.mean.to_bits());
    assert_ne!(a.end_time.to_bits(), b.end_time.to_bits());
    // ...while both estimate the same underlying system.
    assert!((a.short.mean - b.short.mean).abs() / a.short.mean < 0.2);
}

/// One pinned run: the bits of the class means and the end time, every
/// per-server utilization, and the per-class completion and backlog counts.
struct Pin {
    short: u64,
    long: u64,
    end: u64,
    utilization: &'static [u64],
    completions: [u64; 2],
    queued: usize,
}

/// Values recorded before the fleet simulator became a policy of the one
/// engine; a change that moves any draw or any event breaks them.
const PINS: &[(&str, Pin)] = &[
    (
        "Dedicated",
        Pin {
            short: 0x4020_afac_6d22_3b56,
            long: 0x4021_ea97_f909_623f,
            end: 0x40d0_ec38_3413_c489,
            utilization: &[0x3fec_e036_78a7_9dbe, 0x3fe0_c10b_9e03_5f1c],
            completions: [12491, 3509],
            queued: 6,
        },
    ),
    (
        "CsId",
        Pin {
            short: 0x4007_4dbe_1422_9fdc,
            long: 0x401f_2585_a980_ec38,
            end: 0x40d1_1247_cb64_af19,
            utilization: &[0x3fe4_ed2f_30d6_e84b, 0x3fe7_a5ef_67c3_3796],
            completions: [12569, 3431],
            queued: 2,
        },
    ),
    (
        "CsCq",
        Pin {
            short: 0x4005_1984_64df_18cb,
            long: 0x4017_b279_9c6c_ce83,
            end: 0x40d0_fc8d_725e_8dd3,
            utilization: &[0x3fe8_241d_239e_38b9, 0x3fe4_36b6_06d8_bf87],
            completions: [12509, 3491],
            queued: 0,
        },
    ),
    (
        "PriorityCentral",
        Pin {
            short: 0x4000_40dc_a3e2_21a6,
            long: 0x4019_dba5_8301_bd9e,
            end: 0x40d0_f6fd_2ccc_d34f,
            utilization: &[0x3fe8_2f9b_d4a3_b183, 0x3fe4_ef0f_6652_873e],
            completions: [12483, 3517],
            queued: 9,
        },
    ),
    (
        "CentralFcfs",
        Pin {
            short: 0x4007_7d79_6228_5748,
            long: 0x400f_eeef_e1c3_fd20,
            end: 0x40d0_e338_1bcd_4a1d,
            utilization: &[0x3fe8_0157_49d4_31e2, 0x3fe4_af6e_49c6_3ac1],
            completions: [12521, 3479],
            queued: 0,
        },
    ),
    (
        "RoundRobin",
        Pin {
            short: 0x4017_5fbf_e722_aadc,
            long: 0x401a_70bc_4474_0b72,
            end: 0x40d0_f96d_0970_767d,
            utilization: &[0x3fe7_00a0_c21e_9b90, 0x3fe6_6b70_7c26_8e75],
            completions: [12551, 3449],
            queued: 9,
        },
    ),
    (
        "ShortestQueue",
        Pin {
            short: 0x400b_5de6_9334_9ce7,
            long: 0x4011_e21b_03c7_1226,
            end: 0x40d0_ba65_dc8b_aee1,
            utilization: &[0x3fe8_bbf2_38a5_69d2, 0x3fe4_6f05_cc37_3475],
            completions: [12458, 3542],
            queued: 1,
        },
    ),
    (
        "Tags { cutoff: 3.0 }",
        Pin {
            short: 0x409a_6314_6292_626f,
            long: 0x409a_a27e_19c4_390a,
            end: 0x40d2_773c_7e05_8a86,
            utilization: &[0x3fef_f969_1168_1667, 0x3fda_9dc0_6d59_0a64],
            completions: [11641, 3266],
            queued: 3186,
        },
    ),
    (
        "CsCq, MAP shorts",
        Pin {
            short: 0x4012_a5d4_7212_6e65,
            long: 0x4014_da00_76c4_5d5d,
            end: 0x40d0_eabf_77bc_730c,
            utilization: &[0x3fe7_f0af_2762_3c2c, 0x3fe3_dfce_f3af_660d],
            completions: [12704, 3296],
            queued: 2,
        },
    ),
    (
        "CsCq, speeds [2, 1]",
        Pin {
            short: 0x3fee_cfa9_51ea_22d5,
            long: 0x4007_675c_75c8_1c65,
            end: 0x40d0_e627_2034_4c57,
            utilization: &[0x3fde_d58f_0c3f_b0df, 0x3fdb_24d7_e6bc_bdd5],
            completions: [12531, 3469],
            queued: 0,
        },
    ),
    (
        "fleet (1, 1)",
        Pin {
            short: 0x3ff7_e3d6_e774_6187,
            long: 0x401e_c114_e361_baf4,
            end: 0x40d7_4d42_47bf_652f,
            utilization: &[0x3fe4_8889_e45d_e677, 0x3fdc_2385_6941_00ff],
            completions: [11282, 4718],
            queued: 0,
        },
    ),
    (
        "fleet (2, 1)",
        Pin {
            short: 0x3ff4_acee_fdf8_9ccc,
            long: 0x4021_0d49_464e_9130,
            end: 0x40ca_f2e6_8fb1_2078,
            utilization: &[
                0x3fe6_7cfb_92e6_d5a5,
                0x3fe2_d0b0_d3b4_267e,
                0x3fda_c6c7_bee3_cfe6,
            ],
            completions: [13157, 2843],
            queued: 0,
        },
    ),
    (
        "fleet (2, 2)",
        Pin {
            short: 0x3ff1_e0c9_0478_684c,
            long: 0x401a_ff72_3f0c_4c7d,
            end: 0x40c7_2b06_800b_5e7e,
            utilization: &[
                0x3fe7_910d_6bbd_677d,
                0x3fe4_172f_90ac_261a,
                0x3fde_f0ea_c243_562e,
                0x3fd5_720d_689e_95de,
            ],
            completions: [11263, 4737],
            queued: 16,
        },
    ),
    (
        "fleet (4, 4)",
        Pin {
            short: 0x3ff0_76d2_98f0_df89,
            long: 0x4023_4e41_f591_5b51,
            end: 0x40b7_068d_5990_7106,
            utilization: &[
                0x3fea_f1fd_7c29_8ba0,
                0x3fe9_6c10_1154_a2b0,
                0x3fe7_34c8_cbf3_4ad1,
                0x3fe4_4e49_87f3_cc15,
                0x3fe2_eeb6_5068_bf65,
                0x3fdc_aa32_b86d_6206,
                0x3fd2_21ee_f24f_e5f8,
                0x3fc8_8eed_3a8c_aaa2,
            ],
            completions: [11207, 4793],
            queued: 1,
        },
    ),
    (
        "fleet (2, 0)",
        Pin {
            short: 0x3ff8_8688_0d12_c84c,
            long: 0x0000_0000_0000_0000,
            end: 0x40d0_2010_d4bf_74f3,
            utilization: &[0x3fe5_5ef2_e6ae_123d, 0x3fe0_f441_3e9b_f551],
            completions: [16000, 0],
            queued: 0,
        },
    ),
];

fn pin_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        total_jobs: 20_000,
        ..SimConfig::default()
    }
}

/// Runs every pinned case, labelled as in [`PINS`]: each 2-host policy,
/// one MAP-arrival run, one heterogeneous-speed run, and five `(k, m)`
/// fleets (one with the long class off).
fn pinned_runs() -> Vec<(String, SimResult)> {
    let short = Exp::with_mean(1.0).unwrap();
    let long = HyperExp2::balanced_means(2.0, 4.0).unwrap();
    let params = SimParams::new(0.9, 0.25, &short, &long).unwrap();
    let mut runs = Vec::new();
    for (i, policy) in [
        PolicyKind::Dedicated,
        PolicyKind::CsId,
        PolicyKind::CsCq,
        PolicyKind::PriorityCentral,
        PolicyKind::CentralFcfs,
        PolicyKind::RoundRobin,
        PolicyKind::ShortestQueue,
        PolicyKind::Tags { cutoff: 3.0 },
    ]
    .into_iter()
    .enumerate()
    {
        let r = simulate(policy, &params, &pin_config(0x5717 + i as u64));
        runs.push((format!("{policy:?}"), r));
    }
    let bursty = Map::bursty(0.9, 9.0, 10.0).unwrap();
    let map_params = SimParams::with_arrivals(
        Arrivals::Map(&bursty),
        Arrivals::Poisson(0.25),
        &short,
        &long,
    )
    .unwrap();
    let r = simulate(PolicyKind::CsCq, &map_params, &pin_config(0x3A9));
    runs.push(("CsCq, MAP shorts".into(), r));
    let fast = params.with_speeds([2.0, 1.0]).unwrap();
    let r = simulate(PolicyKind::CsCq, &fast, &pin_config(0x5BEED));
    runs.push(("CsCq, speeds [2, 1]".into(), r));
    for (k, m) in [(1, 1), (2, 1), (2, 2), (4, 4), (2, 0)] {
        let fleet = SimParams::new(0.6 * k as f64, 0.25 * m as f64, &short, &long).unwrap();
        let kind = PolicyKind::cs_cq_fleet(k, m, &fleet).unwrap();
        let r = simulate(kind, &fleet, &pin_config(0xF1EE7 + (10 * k + m) as u64));
        runs.push((format!("fleet ({k}, {m})"), r));
    }
    runs
}

#[test]
fn seeded_streams_are_pinned_across_commits() {
    let runs = pinned_runs();
    assert_eq!(runs.len(), PINS.len());
    for ((label, r), (want_label, want)) in runs.iter().zip(PINS) {
        assert_eq!(label, want_label);
        assert_eq!(r.short.mean.to_bits(), want.short, "{label}: short mean");
        assert_eq!(r.long.mean.to_bits(), want.long, "{label}: long mean");
        assert_eq!(r.end_time.to_bits(), want.end, "{label}: end time");
        let utilization: Vec<u64> = r.utilization.iter().map(|u| u.to_bits()).collect();
        assert_eq!(utilization, want.utilization, "{label}: utilization");
        assert_eq!(r.completions, want.completions, "{label}: completions");
        assert_eq!(r.queued_at_end, want.queued, "{label}: queued at end");
    }
}
