//! Durable [`SolveCache`] report persistence: checksummed snapshot plus
//! append-only write-ahead log.
//!
//! Only the *report* layer is persisted — a report is a pure function of
//! its quantized [`ReportKey`], so a recovered entry is byte-identical to
//! recomputing it, and the fit/QBD layers it was derived from can always
//! be rebuilt on demand.
//!
//! # On-disk formats (all integers little-endian)
//!
//! **WAL** (`wal.bin`): the 8-byte magic `CSWAL01\n`, then records
//!
//! ```text
//! [ len: u32 ][ crc32(payload): u32 ][ payload: len bytes ]
//! ```
//!
//! A v1 payload is exactly [`RECORD_LEN`] bytes: the 57-byte key (six
//! `u64` parameter bit patterns, the fit tag byte, `k` and `m` as `u32`)
//! followed by the 66-byte report (eight `f64` bit patterns and the two
//! match-quality bytes).
//!
//! **Snapshot** (`snapshot.bin`): the 8-byte magic `CSSNAP1\n`, an entry
//! count `u32`, `count` packed payloads, and a trailing `crc32` over
//! everything after the magic. Snapshots are written to a temp file and
//! atomically renamed into place.
//!
//! # Recovery contract
//!
//! * The WAL tail is **truncated to the last valid record**: a short
//!   header, an impossible length, a CRC mismatch, or an undecodable
//!   payload all mark the torn point; everything before it is kept,
//!   everything after is cut (a crash mid-append loses at most the entry
//!   being appended, which the daemon will simply recompute).
//! * A snapshot is all-or-nothing: any defect rejects it **wholesale**
//!   (the WAL plus recomputation repopulate the cache), because a
//!   half-trusted snapshot could serve a corrupted entry.
//! * Either way, **no corrupted entry is ever served**: every entry that
//!   survives recovery passed its CRC and structural validation.
//!
//! # Recovery cost
//!
//! A restart costs about what reading the store costs: the CRC is
//! table-driven ([`crc32`]), and each source — the validated snapshot,
//! then the WAL's valid prefix — is seeded into the cache with one
//! [`SolveCache::restore_reports`] call, which takes the report map's lock
//! once and evicts from a recency queue rather than rescanning the map,
//! so a store larger than a bounded cache also recovers in linear time.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cyclesteal_core::cache::{ReportKey, SolveCache};
use cyclesteal_core::cs_cq::CsCqReport;
use cyclesteal_dist::match3::MatchQuality;

/// First bytes of a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"CSWAL01\n";
/// First bytes of a snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"CSSNAP1\n";
/// Size of a v1 record payload (57-byte key + 66-byte report).
pub const RECORD_LEN: usize = 123;
/// Bytes of record header (length + CRC) preceding each payload.
pub const RECORD_HEADER: usize = 8;

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time: `CRC_TABLES[0][b]` is
/// the CRC register after shifting byte `b` through eight bit steps, and
/// `CRC_TABLES[k][b]` the same byte followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slice-by-8: every WAL
/// record, snapshot image and recovery check runs through it, so a
/// restart pays about one table lookup per byte of the store.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn quality_to_byte(q: MatchQuality) -> u8 {
    match q {
        MatchQuality::ExactThree => 3,
        MatchQuality::ExactTwo => 2,
        MatchQuality::MeanOnly => 1,
    }
}

fn quality_from_byte(b: u8) -> Option<MatchQuality> {
    match b {
        3 => Some(MatchQuality::ExactThree),
        2 => Some(MatchQuality::ExactTwo),
        1 => Some(MatchQuality::MeanOnly),
        _ => None,
    }
}

/// Packs one cache entry into a fixed-size record payload.
pub fn encode_record(key: &ReportKey, report: &CsCqReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_LEN);
    encode_record_into(&mut out, key, report);
    out
}

/// Appends the [`encode_record`] payload of one cache entry to `out`.
fn encode_record_into(out: &mut Vec<u8>, key: &ReportKey, report: &CsCqReport) {
    let start = out.len();
    let (params, tag, (k, m)) = key;
    for p in params {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out.push(*tag);
    out.extend_from_slice(&k.to_le_bytes());
    out.extend_from_slice(&m.to_le_bytes());
    for v in [
        report.short_response,
        report.long_response,
        report.mean_shorts_in_system,
        report.p_region1,
        report.p_region2,
        report.p_region5,
        report.setup_probability,
        report.total_mass,
    ] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.push(quality_to_byte(report.bl_match));
    out.push(quality_to_byte(report.bn_match));
    debug_assert_eq!(out.len() - start, RECORD_LEN);
}

/// Unpacks a record payload; `None` if it is structurally invalid.
pub fn decode_record(payload: &[u8]) -> Option<(ReportKey, CsCqReport)> {
    if payload.len() != RECORD_LEN {
        return None;
    }
    let u64_at = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[i..i + 8]);
        u64::from_le_bytes(b)
    };
    let u32_at = |i: usize| {
        let mut b = [0u8; 4];
        b.copy_from_slice(&payload[i..i + 4]);
        u32::from_le_bytes(b)
    };
    let params = [
        u64_at(0),
        u64_at(8),
        u64_at(16),
        u64_at(24),
        u64_at(32),
        u64_at(40),
    ];
    let tag = payload[48];
    if !(1..=3).contains(&tag) {
        return None;
    }
    let k = u32_at(49);
    let m = u32_at(53);
    if k == 0 || m == 0 || k.checked_add(m)? > 64 {
        return None;
    }
    let f64_at = |i: usize| f64::from_bits(u64_at(i));
    let report = CsCqReport {
        short_response: f64_at(57),
        long_response: f64_at(65),
        mean_shorts_in_system: f64_at(73),
        p_region1: f64_at(81),
        p_region2: f64_at(89),
        p_region5: f64_at(97),
        setup_probability: f64_at(105),
        total_mass: f64_at(113),
        bl_match: quality_from_byte(payload[121])?,
        bn_match: quality_from_byte(payload[122])?,
    };
    Some(((params, tag, (k, m)), report))
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Entries loaded from a valid snapshot.
    pub snapshot_entries: usize,
    /// Entries replayed from the WAL's valid prefix.
    pub wal_entries: usize,
    /// When the WAL had a torn/corrupt tail: the byte offset it was
    /// truncated back to.
    pub wal_truncated_to: Option<u64>,
    /// `true` when a snapshot file existed but failed validation and was
    /// discarded wholesale.
    pub snapshot_rejected: bool,
}

/// Decodes a WAL image: the valid-prefix entries and that prefix's length
/// in bytes (including the magic). A missing or mismatched magic yields
/// `(vec![], 0)` — the whole file is invalid.
pub fn decode_wal(bytes: &[u8]) -> (Vec<(ReportKey, CsCqReport)>, u64) {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return (Vec::new(), 0);
    }
    // Every record is a header and a fixed-length payload, so the bytes
    // after the magic hold at most this many: one allocation, however long
    // the log a killed daemon left to replay.
    let most = (bytes.len() - WAL_MAGIC.len()) / (RECORD_HEADER + RECORD_LEN);
    let mut entries = Vec::with_capacity(most);
    let mut pos = WAL_MAGIC.len();
    while let Some(header) = bytes.get(pos..pos + RECORD_HEADER) {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len != RECORD_LEN {
            break;
        }
        let Some(payload) = bytes.get(pos + RECORD_HEADER..pos + RECORD_HEADER + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(entry) = decode_record(payload) else {
            break;
        };
        entries.push(entry);
        pos += RECORD_HEADER + len;
    }
    (entries, pos as u64)
}

/// Encodes a snapshot image from `entries`: the magic, then a body of the
/// entry count and every record payload, then the body's CRC, written
/// into one buffer.
pub fn encode_snapshot(entries: &[(ReportKey, CsCqReport)]) -> Vec<u8> {
    let body_start = SNAP_MAGIC.len();
    let mut out = Vec::with_capacity(body_start + 4 + entries.len() * RECORD_LEN + 4);
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, report) in entries {
        encode_record_into(&mut out, key, report);
    }
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a snapshot image; `None` rejects it wholesale on any defect.
pub fn decode_snapshot(bytes: &[u8]) -> Option<Vec<(ReportKey, CsCqReport)>> {
    let body = bytes.strip_prefix(SNAP_MAGIC)?;
    if body.len() < 8 {
        return None;
    }
    let (body, crc_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != stored {
        return None;
    }
    let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let payloads = &body[4..];
    if payloads.len() != count.checked_mul(RECORD_LEN)? {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for chunk in payloads.chunks_exact(RECORD_LEN) {
        entries.push(decode_record(chunk)?);
    }
    Some(entries)
}

struct WalFile {
    file: File,
    /// What this handle wrote; [`DurableCache::stats`] reads it.
    stats: WalStats,
    /// Test hook: after this many successful appends, write a *partial*
    /// record and raw-`SIGKILL` the process — the crash-recovery gate.
    kill_after_appends: Option<u64>,
}

/// Write-side counters of one [`DurableCache`] handle, for the daemon's
/// `/metrics` endpoint. All exclude recovered history: they count what
/// *this process* wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Record bytes (header + payload) appended.
    pub bytes: u64,
    /// Disk syncs issued (appends and compactions).
    pub fsyncs: u64,
    /// Appends that failed to write or sync their record. The entry
    /// stays served from memory.
    pub append_errors: u64,
}

/// The persistence half of the daemon's [`SolveCache`]: owns the WAL file
/// handle and knows how to snapshot/compact.
pub struct DurableCache {
    dir: PathBuf,
    wal: Mutex<WalFile>,
}

impl DurableCache {
    /// The WAL file inside `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.bin")
    }

    /// The snapshot file inside `dir`.
    pub fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.bin")
    }

    /// Opens (creating if needed) the store in `dir`, recovers every valid
    /// entry into `cache`, and truncates any torn WAL tail.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or reading/repairing the
    /// files. Corruption is **not** an error — it is recovered from, and
    /// reported in the [`RecoveryReport`].
    pub fn open(dir: &Path, cache: &SolveCache) -> io::Result<(DurableCache, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        let snap_path = Self::snapshot_path(dir);
        match fs::read(&snap_path) {
            Ok(bytes) => match decode_snapshot(&bytes) {
                Some(entries) => {
                    report.snapshot_entries = entries.len();
                    cache.restore_reports(entries);
                }
                None => {
                    report.snapshot_rejected = true;
                    cyclesteal_obs::counter!("svc.wal.snapshot_rejected");
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(Self::wal_path(dir))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
        } else {
            let (entries, valid_len) = decode_wal(&bytes);
            if valid_len == 0 {
                // Unrecognizable file: start a fresh log rather than
                // appending records a future recovery would discard.
                report.wal_truncated_to = Some(0);
                cyclesteal_obs::counter!("svc.wal.truncated");
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(WAL_MAGIC)?;
                file.sync_data()?;
            } else {
                if valid_len < bytes.len() as u64 {
                    report.wal_truncated_to = Some(valid_len);
                    cyclesteal_obs::counter!("svc.wal.truncated");
                    file.set_len(valid_len)?;
                    file.sync_data()?;
                }
                file.seek(SeekFrom::End(0))?;
                report.wal_entries = entries.len();
                cache.restore_reports(entries);
            }
        }

        Ok((
            DurableCache {
                dir: dir.to_path_buf(),
                wal: Mutex::new(WalFile {
                    file,
                    stats: WalStats::default(),
                    kill_after_appends: None,
                }),
            },
            report,
        ))
    }

    /// Arms the crash hook: the `n+1`-th [`DurableCache::append`] writes a
    /// torn half-record and `SIGKILL`s the process instead of completing.
    pub fn set_kill_after_appends(&self, n: u64) {
        lock(&self.wal).kill_after_appends = Some(n);
    }

    /// Appends one entry to the WAL and syncs it to disk.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing. On error the in-memory cache is
    /// still correct; the worst on-disk outcome is a torn tail that the
    /// next recovery truncates.
    pub fn append(&self, key: &ReportKey, report: &CsCqReport) -> io::Result<()> {
        // The header (length, then the payload's CRC, filled in below) and
        // the payload, encoded into one buffer.
        let mut rec = Vec::with_capacity(RECORD_HEADER + RECORD_LEN);
        rec.extend_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        rec.extend_from_slice(&[0; 4]);
        encode_record_into(&mut rec, key, report);
        let crc = crc32(&rec[RECORD_HEADER..]);
        rec[4..RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());

        let mut wal = lock(&self.wal);
        if wal.kill_after_appends == Some(wal.stats.appends) {
            // The crash gate: leave a torn record (header + part of the
            // payload) on disk, then die without unwinding — exactly the
            // failure recovery must survive.
            let torn = &rec[..RECORD_HEADER + RECORD_LEN / 2];
            let _ = wal.file.write_all(torn);
            let _ = wal.file.sync_data();
            crate::raw_self_sigkill();
        }
        if let Err(e) = wal.file.write_all(&rec).and_then(|()| wal.file.sync_data()) {
            wal.stats.append_errors += 1;
            return Err(e);
        }
        wal.stats.appends += 1;
        wal.stats.bytes += rec.len() as u64;
        wal.stats.fsyncs += 1;
        Ok(())
    }

    /// Write-side counters of this handle (appends, bytes, fsyncs and
    /// failed appends).
    pub fn stats(&self) -> WalStats {
        lock(&self.wal).stats
    }

    /// Writes `entries` as a new snapshot (temp file + atomic rename) and
    /// resets the WAL to empty.
    ///
    /// # Errors
    ///
    /// Any I/O failure. The rename is the commit point: a crash before it
    /// leaves the old snapshot intact; a crash after it but before the WAL
    /// reset merely replays entries the snapshot already holds (inserts
    /// are idempotent — same key, bit-identical value).
    pub fn compact(&self, entries: &[(ReportKey, CsCqReport)]) -> io::Result<()> {
        let image = encode_snapshot(entries);
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, Self::snapshot_path(&self.dir))?;
        // Make the rename durable before truncating the WAL that the old
        // snapshot + log state depended on.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let mut wal = lock(&self.wal);
        wal.file.set_len(WAL_MAGIC.len() as u64)?;
        wal.file.seek(SeekFrom::End(0))?;
        wal.file.sync_data()?;
        // Snapshot sync + directory sync + WAL-reset sync.
        wal.stats.fsyncs += 3;
        cyclesteal_obs::counter!("svc.wal.compact");
        Ok(())
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked (the
/// protected file state is always consistent between operations).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(seed: u64) -> (ReportKey, CsCqReport) {
        let key = (
            [seed, seed + 1, seed + 2, seed + 3, seed + 4, seed + 5],
            ((seed % 3) as u8) + 1,
            (1, 1),
        );
        let report = CsCqReport {
            short_response: 1.5 + seed as f64,
            long_response: 4.25,
            mean_shorts_in_system: 0.75,
            p_region1: 0.5,
            p_region2: 0.25,
            p_region5: 0.125,
            setup_probability: 0.0625,
            total_mass: 1.0,
            bl_match: MatchQuality::ExactThree,
            bn_match: MatchQuality::ExactTwo,
        };
        (key, report)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cyclesteal-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The bitwise CRC-32 earlier binaries wrote every store with: the
    /// oracle the table-driven [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    cyclesteal_xtest::props! {
        cases = 256;

        /// The tables equal the bitwise oracle on random byte strings of
        /// every length up to 1 KiB, starting at every offset within an
        /// 8-byte word (the slice-by-8 loop and its tail both run).
        fn crc32_equals_the_bitwise_oracle(
            len in 0usize..1025,
            offset in 0usize..8,
            seed in 0u64..u64::MAX,
        ) {
            let mut x = seed;
            let buf: Vec<u8> = (0..offset + len)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    (x >> 56) as u8
                })
                .collect();
            let bytes = &buf[offset..];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} offset {offset}");
        }
    }

    #[test]
    fn stores_checksummed_by_the_bitwise_oracle_still_decode() {
        // Images built byte by byte with the oracle's checksums, as a
        // binary from before the table-driven CRC wrote them.
        let entries: Vec<_> = (0..5).map(sample_entry).collect();
        let mut body = (entries.len() as u32).to_le_bytes().to_vec();
        let mut wal = WAL_MAGIC.to_vec();
        for (key, report) in &entries {
            let payload = encode_record(key, report);
            body.extend_from_slice(&payload);
            wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wal.extend_from_slice(&crc32_bitwise(&payload).to_le_bytes());
            wal.extend_from_slice(&payload);
        }
        let mut snapshot = SNAP_MAGIC.to_vec();
        snapshot.extend_from_slice(&body);
        snapshot.extend_from_slice(&crc32_bitwise(&body).to_le_bytes());

        assert_eq!(encode_snapshot(&entries), snapshot, "same bytes as before");
        let decoded = decode_snapshot(&snapshot).expect("an oracle-checksummed snapshot decodes");
        assert_eq!(
            decoded.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            entries.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
        let (replayed, valid) = decode_wal(&wal);
        assert_eq!(replayed.len(), entries.len());
        assert_eq!(valid, wal.len() as u64, "no record is cut");
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let (key, report) = sample_entry(7);
        let payload = encode_record(&key, &report);
        assert_eq!(payload.len(), RECORD_LEN);
        let (k2, r2) = decode_record(&payload).unwrap();
        assert_eq!(k2, key);
        assert_eq!(r2.short_response.to_bits(), report.short_response.to_bits());
        assert_eq!(r2.total_mass.to_bits(), report.total_mass.to_bits());
        assert_eq!(r2.bl_match, report.bl_match);
        assert_eq!(r2.bn_match, report.bn_match);
    }

    #[test]
    fn structurally_invalid_records_are_rejected() {
        let (key, report) = sample_entry(1);
        let good = encode_record(&key, &report);
        let mut bad_tag = good.clone();
        bad_tag[48] = 7;
        assert!(decode_record(&bad_tag).is_none());
        let mut bad_quality = good.clone();
        bad_quality[121] = 0;
        assert!(decode_record(&bad_quality).is_none());
        let mut bad_hosts = good.clone();
        bad_hosts[49..53].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_record(&bad_hosts).is_none());
        assert!(decode_record(&good[..RECORD_LEN - 1]).is_none());
    }

    #[test]
    fn wal_round_trips_and_survives_a_torn_tail() {
        let dir = tmp_dir("torn");
        let cache = SolveCache::new();
        let (durable, rec) = DurableCache::open(&dir, &cache).unwrap();
        assert_eq!(rec, RecoveryReport::default());
        for s in 0..5 {
            let (k, r) = sample_entry(s * 100);
            durable.append(&k, &r).unwrap();
        }
        drop(durable);

        // Tear the last record in half.
        let path = DurableCache::wal_path(&dir);
        let bytes = fs::read(&path).unwrap();
        let torn_len = bytes.len() - RECORD_LEN / 2;
        let mut torn = bytes.clone();
        torn.truncate(torn_len);
        fs::write(&path, &torn).unwrap();

        let cache2 = SolveCache::new();
        let (_durable2, rec2) = DurableCache::open(&dir, &cache2).unwrap();
        assert_eq!(rec2.wal_entries, 4);
        let expected_valid = (WAL_MAGIC.len() + 4 * (RECORD_HEADER + RECORD_LEN)) as u64;
        assert_eq!(rec2.wal_truncated_to, Some(expected_valid));
        assert_eq!(fs::metadata(&path).unwrap().len(), expected_valid);
        // The four surviving entries are served bit-identically.
        for s in 0..4 {
            let (k, r) = sample_entry(s * 100);
            let got = cache2.peek_report(&k).unwrap();
            assert_eq!(got.short_response.to_bits(), r.short_response.to_bits());
        }
        let (k4, _) = sample_entry(400);
        assert!(cache2.peek_report(&k4).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bit_flip_truncates_at_the_flipped_record() {
        let dir = tmp_dir("flip");
        let cache = SolveCache::new();
        let (durable, _) = DurableCache::open(&dir, &cache).unwrap();
        for s in 0..3 {
            let (k, r) = sample_entry(s);
            durable.append(&k, &r).unwrap();
        }
        drop(durable);
        let path = DurableCache::wal_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit inside record 1 (0-indexed).
        let idx = WAL_MAGIC.len() + (RECORD_HEADER + RECORD_LEN) + RECORD_HEADER + 10;
        bytes[idx] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let cache2 = SolveCache::new();
        let (_d, rec) = DurableCache::open(&dir, &cache2).unwrap();
        assert_eq!(rec.wal_entries, 1, "only the prefix before the flip");
        assert!(rec.wal_truncated_to.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_are_atomic_and_rejected_wholesale_when_corrupt() {
        let dir = tmp_dir("snap");
        let cache = SolveCache::new();
        let (durable, _) = DurableCache::open(&dir, &cache).unwrap();
        let entries: Vec<_> = (0..4).map(sample_entry).collect();
        for (k, r) in &entries {
            durable.append(k, r).unwrap();
        }
        durable.compact(&entries).unwrap();
        // Compaction resets the WAL to just its magic.
        assert_eq!(
            fs::metadata(DurableCache::wal_path(&dir)).unwrap().len(),
            WAL_MAGIC.len() as u64
        );
        drop(durable);

        // Clean restart: everything comes from the snapshot.
        let cache2 = SolveCache::new();
        let (_d2, rec2) = DurableCache::open(&dir, &cache2).unwrap();
        assert_eq!(rec2.snapshot_entries, 4);
        assert_eq!(rec2.wal_entries, 0);
        assert!(!rec2.snapshot_rejected);

        // Flip one snapshot byte: the whole snapshot must be discarded.
        let snap = DurableCache::snapshot_path(&dir);
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        fs::write(&snap, &bytes).unwrap();
        let cache3 = SolveCache::new();
        let (_d3, rec3) = DurableCache::open(&dir, &cache3).unwrap();
        assert!(rec3.snapshot_rejected);
        assert_eq!(rec3.snapshot_entries, 0);
        assert!(cache3.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_stats_count_appends_bytes_and_fsyncs() {
        let dir = tmp_dir("stats");
        let cache = SolveCache::new();
        let (durable, _) = DurableCache::open(&dir, &cache).unwrap();
        assert_eq!(durable.stats(), WalStats::default());
        let (k, r) = sample_entry(1);
        durable.append(&k, &r).unwrap();
        let s = durable.stats();
        assert_eq!(s.appends, 1);
        assert_eq!(s.bytes, (RECORD_HEADER + RECORD_LEN) as u64);
        assert_eq!(s.fsyncs, 1);
        durable.compact(&[]).unwrap();
        assert_eq!(durable.stats().fsyncs, 4, "compact adds three syncs");
        assert_eq!(durable.stats().appends, 1, "compact is not an append");
        let _ = fs::remove_dir_all(&dir);
    }

    /// An append whose write fails is counted in `append_errors`, not
    /// in `appends`, and the report the cache holds stays there.
    #[test]
    fn a_failed_append_is_counted_and_the_entry_stays_in_memory() {
        let dir = tmp_dir("append-error");
        let cache = SolveCache::new();
        let (durable, _) = DurableCache::open(&dir, &cache).unwrap();
        let (k, r) = sample_entry(2);
        cache.restore_reports([(k, r.clone())]);
        // Writes through a read-only handle fail.
        lock(&durable.wal).file = File::open(DurableCache::wal_path(&dir)).unwrap();
        assert!(durable.append(&k, &r).is_err());
        assert!(durable.append(&k, &r).is_err());
        let s = durable.stats();
        assert_eq!(
            (s.append_errors, s.appends, s.bytes, s.fsyncs),
            (2, 0, 0, 0)
        );
        assert!(cache.has_report(&k));
        assert_eq!(cache.export_reports().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unrecognizable_wal_is_restarted_fresh() {
        let dir = tmp_dir("badmagic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(DurableCache::wal_path(&dir), b"not a wal at all").unwrap();
        let cache = SolveCache::new();
        let (durable, rec) = DurableCache::open(&dir, &cache).unwrap();
        assert_eq!(rec.wal_truncated_to, Some(0));
        assert_eq!(rec.wal_entries, 0);
        // And the fresh log is usable.
        let (k, r) = sample_entry(9);
        durable.append(&k, &r).unwrap();
        drop(durable);
        let cache2 = SolveCache::new();
        let (_d, rec2) = DurableCache::open(&dir, &cache2).unwrap();
        assert_eq!(rec2.wal_entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
