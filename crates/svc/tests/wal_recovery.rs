//! Crash-recovery property suite (the PR's kill-restart gate, in vitro):
//! replay a seeded query stream into a WAL, then mutilate the log —
//! truncate at **every** byte offset, flip bits property-style — restart,
//! and check the recovery contract:
//!
//! 1. the recovered cache holds a *valid prefix* of the appended entries,
//!    bit-identical to the originals (no corrupted entry is ever served);
//! 2. re-serving the same query stream after recovery yields answers
//!    byte-identical to the never-crashed run;
//! 3. a defective snapshot is rejected wholesale — none of its records
//!    reaches the cache — and the WAL still replays in full.

use std::fs;
use std::path::{Path, PathBuf};

use cyclesteal_core::cache::{CacheStats, ReportKey, SolveCache};
use cyclesteal_core::cs_cq::CsCqReport;
use cyclesteal_core::stability::Policy;
use cyclesteal_svc::wal::{
    crc32, decode_wal, DurableCache, RECORD_HEADER, RECORD_LEN, SNAP_MAGIC, WAL_MAGIC,
};
use cyclesteal_sweep::{run_query, Evaluator, LongLaw, Point, SweepRow};
use cyclesteal_xtest::props;

fn point(rho_s: f64) -> Point {
    Point {
        rho_s,
        rho_l: 0.5,
        mean_s: 1.0,
        long: LongLaw::exponential(1.0).expect("valid law"),
        policy: Policy::CsCq,
        evaluator: Evaluator::Analysis,
        extend_longs: false,
        hosts: (1, 1),
    }
}

/// The seeded query stream every test replays.
fn query_stream() -> Vec<Point> {
    vec![point(0.9), point(1.1), point(1.3)]
}

struct Oracle {
    /// Entries in WAL append order (a daemon worker appends what its
    /// drain's scope computed, per query).
    appended: Vec<(ReportKey, CsCqReport)>,
    /// The never-crashed answers, in stream order.
    rows: Vec<SweepRow>,
}

/// Runs the stream through one drain scope of a fresh cache, as a
/// daemon worker does, capturing the scope's journal order and answers.
fn oracle() -> Oracle {
    let cache = SolveCache::new();
    let scope = cache.scope();
    let mut appended = Vec::new();
    let mut rows = Vec::new();
    for p in query_stream() {
        rows.push(run_query(&p, &scope, None).row);
        appended.extend(scope.take_new_reports());
    }
    assert!(
        cache.take_new_reports().is_empty(),
        "a root journals nothing"
    );
    Oracle { appended, rows }
}

/// Builds a WAL file in `dir` containing the oracle's appends, returning
/// its byte image.
fn build_wal(dir: &Path, oracle: &Oracle) -> Vec<u8> {
    let cache = SolveCache::new();
    let (durable, _) = DurableCache::open(dir, &cache).expect("open");
    for (k, r) in &oracle.appended {
        durable.append(k, r).expect("append");
    }
    drop(durable);
    fs::read(DurableCache::wal_path(dir)).expect("read wal")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cyclesteal-walprop-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn reports_bit_identical(a: &CsCqReport, b: &CsCqReport) -> bool {
    a.short_response.to_bits() == b.short_response.to_bits()
        && a.long_response.to_bits() == b.long_response.to_bits()
        && a.mean_shorts_in_system.to_bits() == b.mean_shorts_in_system.to_bits()
        && a.p_region1.to_bits() == b.p_region1.to_bits()
        && a.p_region2.to_bits() == b.p_region2.to_bits()
        && a.p_region5.to_bits() == b.p_region5.to_bits()
        && a.setup_probability.to_bits() == b.setup_probability.to_bits()
        && a.total_mass.to_bits() == b.total_mass.to_bits()
        && a.bl_match == b.bl_match
        && a.bn_match == b.bn_match
}

/// Asserts `entries` is a bit-identical prefix of the oracle's appends.
fn assert_valid_prefix(entries: &[(ReportKey, CsCqReport)], oracle: &Oracle) {
    assert!(
        entries.len() <= oracle.appended.len(),
        "recovered more entries than were ever appended"
    );
    for (got, want) in entries.iter().zip(&oracle.appended) {
        assert_eq!(got.0, want.0, "recovered a key never appended");
        assert!(
            reports_bit_identical(&got.1, &want.1),
            "recovered report differs bitwise from the appended one"
        );
    }
}

/// Truncation at *every* byte offset recovers the longest valid prefix —
/// exhaustive, because recovery itself is pure and cheap.
#[test]
fn truncation_at_every_byte_offset_recovers_the_longest_valid_prefix() {
    let oracle = oracle();
    assert_eq!(oracle.appended.len(), 3, "stream should journal 3 reports");
    let dir = tmp_dir("trunc");
    let image = build_wal(&dir, &oracle);
    let record = RECORD_HEADER + RECORD_LEN;
    assert_eq!(image.len(), WAL_MAGIC.len() + 3 * record);

    for cut in 0..=image.len() {
        let (entries, valid_len) = decode_wal(&image[..cut]);
        // Expected: every *complete* record before the cut survives.
        let expect = if cut < WAL_MAGIC.len() {
            0
        } else {
            (cut - WAL_MAGIC.len()) / record
        };
        assert_eq!(entries.len(), expect, "cut at byte {cut}");
        assert_valid_prefix(&entries, &oracle);
        if cut >= WAL_MAGIC.len() {
            assert_eq!(valid_len as usize, WAL_MAGIC.len() + expect * record);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Opening a truncated file on disk repairs it in place and re-serves the
/// surviving prefix bit-identically (sampled at each record boundary ± 1).
#[test]
fn on_disk_truncation_repairs_and_reserves_bit_identically() {
    let oracle = oracle();
    let dir = tmp_dir("repair");
    let image = build_wal(&dir, &oracle);
    let record = RECORD_HEADER + RECORD_LEN;
    let wal_path = DurableCache::wal_path(&dir);

    let mut cuts = vec![0, 3, WAL_MAGIC.len()];
    for i in 0..oracle.appended.len() {
        let boundary = WAL_MAGIC.len() + (i + 1) * record;
        cuts.extend([boundary - 1, boundary]);
    }
    for cut in cuts {
        fs::write(&wal_path, &image[..cut]).expect("write truncated wal");
        let cache = SolveCache::new();
        let (_durable, rec) = DurableCache::open(&dir, &cache).expect("recover");
        let survivors = if cut < WAL_MAGIC.len() {
            0
        } else {
            (cut - WAL_MAGIC.len()) / record
        };
        assert_eq!(rec.wal_entries, survivors, "cut at byte {cut}");
        // Re-serve the whole stream: answers must match the never-crashed
        // run byte-for-byte (recovered entries served from cache, the
        // rest recomputed — same bits either way).
        for (p, want) in query_stream().iter().zip(&oracle.rows) {
            let got = run_query(p, &cache, None).row;
            assert_eq!(&got, want, "cut at byte {cut}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

props! {
    cases = 48;

    /// A single flipped bit anywhere in the log truncates recovery at the
    /// record containing it — never a corrupted entry, never a lost
    /// predecessor. (Failures shrink toward offset/bit 0 via `props!`.)
    fn a_flipped_bit_truncates_exactly_at_its_record(
        offset_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        // One shared oracle/WAL image per process would be ideal; cases
        // are cheap enough that a thread-local build per case is fine.
        use std::cell::OnceCell;
        thread_local! {
            static FIXTURE: OnceCell<(Oracle, Vec<u8>)> = const { OnceCell::new() };
        }
        FIXTURE.with(|cell| {
            let (oracle, image) = cell.get_or_init(|| {
                let dir = tmp_dir("flip");
                let oracle = oracle();
                let image = build_wal(&dir, &oracle);
                let _ = fs::remove_dir_all(&dir);
                (oracle, image)
            });
            let record = RECORD_HEADER + RECORD_LEN;
            let offset = ((offset_frac * image.len() as f64) as usize).min(image.len() - 1);
            let mut mutated = image.clone();
            mutated[offset] ^= 1u8 << bit;

            let (entries, valid_len) = decode_wal(&mutated);
            let expect = if offset < WAL_MAGIC.len() {
                0 // magic damaged: the whole file is distrusted
            } else {
                (offset - WAL_MAGIC.len()) / record
            };
            assert_eq!(
                entries.len(),
                expect,
                "flip at byte {offset} bit {bit}: wrong surviving prefix"
            );
            assert_valid_prefix(&entries, oracle);
            if offset >= WAL_MAGIC.len() {
                assert_eq!(valid_len as usize, WAL_MAGIC.len() + expect * record);
            }
        });
    }
}

/// The torn-write shape the daemon's kill hook produces (header plus half
/// a payload) is recovered from cleanly, keeping all earlier records.
#[test]
fn a_torn_half_record_keeps_every_earlier_record() {
    let oracle = oracle();
    let dir = tmp_dir("torn");
    let image = build_wal(&dir, &oracle);
    let record = RECORD_HEADER + RECORD_LEN;
    let wal_path = DurableCache::wal_path(&dir);

    // Simulate the crash: 2 full records, then a torn half-record.
    let torn_end = WAL_MAGIC.len() + 2 * record + RECORD_HEADER + RECORD_LEN / 2;
    fs::write(&wal_path, &image[..torn_end]).expect("write torn wal");

    let cache = SolveCache::new();
    let (durable, rec) = DurableCache::open(&dir, &cache).expect("recover");
    assert_eq!(rec.wal_entries, 2);
    assert_eq!(
        rec.wal_truncated_to,
        Some((WAL_MAGIC.len() + 2 * record) as u64)
    );
    // The repaired log accepts new appends and a full round-trip.
    let (k, r) = &oracle.appended[2];
    durable.append(k, r).expect("append after repair");
    drop(durable);
    let cache2 = SolveCache::new();
    let (_d, rec2) = DurableCache::open(&dir, &cache2).expect("reopen");
    assert_eq!(rec2.wal_entries, 3);
    assert_eq!(rec2.wal_truncated_to, None);
    for (p, want) in query_stream().iter().zip(&oracle.rows) {
        let got = run_query(p, &cache2, None).row;
        assert_eq!(&got, want);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Opens `dir` with `snapshot` as its snapshot file and asserts that it is
/// rejected wholesale: no snapshot record reaches the cache, and the WAL's
/// `wal` records replay in full, each one a miss on an empty cache.
fn assert_rejected_wholesale(
    dir: &Path,
    snapshot: &[u8],
    snap_entries: &[(ReportKey, CsCqReport)],
    wal: &[(ReportKey, CsCqReport)],
    what: &str,
) {
    fs::write(DurableCache::snapshot_path(dir), snapshot).expect("write snapshot");
    let cache = SolveCache::new();
    let (_durable, rec) = DurableCache::open(dir, &cache).expect("recover");
    assert!(rec.snapshot_rejected, "{what}: {rec:?}");
    assert_eq!(rec.snapshot_entries, 0, "{what}");
    assert_eq!(
        rec.wal_entries,
        wal.len(),
        "{what}: the WAL replays in full"
    );
    assert_eq!(rec.wal_truncated_to, None, "{what}");
    assert_eq!(cache.report_len(), wal.len(), "{what}");
    assert_eq!(
        cache.stats(),
        CacheStats {
            misses: wal.len() as u64,
            ..CacheStats::default()
        },
        "{what}: only the WAL's records were restored, into an empty cache"
    );
    for (key, _) in snap_entries {
        assert!(
            !cache.has_report(key),
            "{what}: a snapshot record was restored"
        );
    }
    for (key, want) in wal {
        let got = cache.peek_report(key).expect("a WAL record was lost");
        assert!(reports_bit_identical(&got, want), "{what}");
    }
}

/// Rewrites a snapshot image's trailing CRC to match its body, so the
/// checksum passes whatever else is wrong with the image.
fn reseal(image: &mut [u8]) {
    let end = image.len() - 4;
    let crc = crc32(&image[SNAP_MAGIC.len()..end]);
    image[end..].copy_from_slice(&crc.to_le_bytes());
}

/// Every defect of a snapshot rejects it wholesale, whether the check that
/// catches it is the length, the CRC or a record's structure.
#[test]
fn a_defective_snapshot_is_rejected_wholesale_and_the_wal_replays() {
    let oracle = oracle();
    let (snap_entries, wal) = oracle.appended.split_at(2);
    let dir = tmp_dir("snapreject");
    let (durable, _) = DurableCache::open(&dir, &SolveCache::new()).expect("open");
    durable.compact(snap_entries).expect("compact");
    for (k, r) in wal {
        durable.append(k, r).expect("append");
    }
    drop(durable);
    let image = fs::read(DurableCache::snapshot_path(&dir)).expect("read snapshot");
    let count_at = SNAP_MAGIC.len();
    assert_eq!(image.len(), count_at + 4 + 2 * RECORD_LEN + 4);

    // The intact image restores both its records, then the WAL's.
    let cache = SolveCache::new();
    let (_durable, rec) = DurableCache::open(&dir, &cache).expect("recover");
    assert_eq!((rec.snapshot_entries, rec.wal_entries), (2, 1), "{rec:?}");
    assert!(!rec.snapshot_rejected);
    drop(_durable);

    for cut in 0..image.len() {
        assert_rejected_wholesale(
            &dir,
            &image[..cut],
            snap_entries,
            wal,
            &format!("cut at {cut}"),
        );
    }

    let mut flipped = image.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    assert_rejected_wholesale(&dir, &flipped, snap_entries, wal, "last CRC byte flipped");

    // An out-of-range match-quality byte in the last record, under a CRC
    // that matches: only decoding the record catches it.
    let mut undecodable = image.clone();
    undecodable[count_at + 4 + RECORD_LEN + RECORD_LEN - 2] = 0;
    reseal(&mut undecodable);
    assert_rejected_wholesale(&dir, &undecodable, snap_entries, wal, "undecodable record");

    for count in [1u32, 3] {
        let mut miscounted = image.clone();
        miscounted[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        reseal(&mut miscounted);
        assert_rejected_wholesale(
            &dir,
            &miscounted,
            snap_entries,
            wal,
            &format!("count {count}"),
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
