//! Telemetry counts through the default build: a recording session
//! around a sweep must embed a counts snapshot in the report, and the
//! solver's analyze counter must equal the questions actually solved.
//!
//! The obs registry is process-global, so this test has a binary of its
//! own: nothing else in the process can record into its session.

use cyclesteal::core::stability::Policy;
use cyclesteal_obs as obs;
use cyclesteal_sweep::{GridSpec, SweepOptions, SweepRow};

#[test]
fn a_recording_sweep_counts_one_analyze_per_distinct_point() {
    // A repeated rho_S value gives 12 grid points over 9 distinct
    // questions; the sweep's per-run memo answers the repeats.
    let mut spec = GridSpec::analysis("obs_counts", vec![0.2, 0.5, 0.8, 0.5], vec![0.1, 0.3, 0.5]);
    spec.policies = vec![Policy::CsCq];
    let points = spec.points();
    assert_eq!(points.len(), 12);
    let mut distinct: Vec<String> = points.iter().map(SweepRow::id_of).collect();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 9);

    let session = obs::Session::start();
    let (report, _) = cyclesteal_sweep::run(&spec, &SweepOptions::threads(1));
    drop(session);

    let counts = report
        .obs
        .as_ref()
        .expect("a recording sweep embeds counts");
    assert_eq!(
        counts.counter("core.cs_cq.analyze"),
        distinct.len() as u64,
        "{:?}",
        counts.counters
    );
}
