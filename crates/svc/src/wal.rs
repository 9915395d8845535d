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
//!
//! A restart also runs in a fixed amount of memory beyond the entries it
//! keeps. The snapshot is read twice through one 64 KiB buffer: the first
//! pass validates it (magic, count against length, running CRC, every
//! record decodes), and only then does the second decode each record
//! straight into the cache, whose report table is sized once from the
//! count. The WAL is one streaming pass. Reading the whole snapshot into
//! one buffer and decoding it into a list first held 327 bytes per record
//! (1.34 MB at 4096 records); the streaming reader holds 65.5 KB whatever
//! the store's size. [`DurableCache::compact`] streams the image to disk
//! through a small buffer as it checksums it, where it used to build the
//! whole image first (123 bytes per record).

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
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
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A running [`crc32`]: feeding a byte string in pieces gives the CRC of
/// the whole, so a snapshot is checksummed as it streams to or from disk.
struct Crc32(u32);

impl Crc32 {
    /// The CRC of no bytes yet.
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the register, eight at a time through the
    /// slice-by-8 tables.
    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
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
        self.0 = crc;
    }

    /// The CRC of every byte fed so far.
    fn finish(self) -> u32 {
        !self.0
    }
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

/// Packs one cache entry into a fixed-size record payload, on the stack.
pub fn encode_record(key: &ReportKey, report: &CsCqReport) -> [u8; RECORD_LEN] {
    let mut out = [0u8; RECORD_LEN];
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        out[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    let (params, tag, (k, m)) = key;
    for p in params {
        put(&p.to_le_bytes());
    }
    put(&[*tag]);
    put(&k.to_le_bytes());
    put(&m.to_le_bytes());
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
        put(&v.to_bits().to_le_bytes());
    }
    put(&[
        quality_to_byte(report.bl_match),
        quality_to_byte(report.bn_match),
    ]);
    debug_assert_eq!(at, RECORD_LEN);
    out
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

/// Bytes of the snapshot header after the magic: the entry count.
const SNAP_COUNT: usize = 4;
/// Bytes of the trailing snapshot CRC.
const SNAP_CRC: usize = 4;

/// Size of the buffer recovery reads each store file through, one file at
/// a time: what a restart holds beyond the entries it keeps.
const READ_BUF: usize = 64 * 1024;

/// The length of a snapshot image holding `count` entries (a `u32` count
/// cannot overflow it).
fn snapshot_len(count: u64) -> u64 {
    (SNAP_MAGIC.len() + SNAP_COUNT + SNAP_CRC) as u64 + count * RECORD_LEN as u64
}

/// Fills `buf` from `src`: `Ok(false)` when the source ends first (a
/// short or torn image), any other read error as is.
fn read_full(src: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match src.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Writes the snapshot image of `entries` to `out` as it checksums it:
/// the magic, then a body of the entry count and every record payload,
/// then the body's CRC. The one snapshot encoder: [`encode_snapshot`]
/// runs it into a buffer, [`DurableCache::compact`] into the file.
fn write_snapshot(out: &mut impl Write, entries: &[(ReportKey, CsCqReport)]) -> io::Result<()> {
    let count = u32::try_from(entries.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many snapshot entries"))?
        .to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&count);
    out.write_all(SNAP_MAGIC)?;
    out.write_all(&count)?;
    for (key, report) in entries {
        let payload = encode_record(key, report);
        crc.update(&payload);
        out.write_all(&payload)?;
    }
    out.write_all(&crc.finish().to_le_bytes())
}

/// Encodes a snapshot image from `entries` into one buffer.
pub fn encode_snapshot(entries: &[(ReportKey, CsCqReport)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(snapshot_len(entries.len() as u64) as usize);
    write_snapshot(&mut out, entries)
        .expect("a snapshot fits its count and a Vec takes every write");
    out
}

/// The records of a snapshot that [`read_snapshot`] accepted, decoded one
/// at a time from a source positioned at the first. Its size hint is the
/// count left, so the report table is sized once.
struct SnapshotRecords<R> {
    src: R,
    left: usize,
    /// Why the records stopped before the count: a read error, or a
    /// record that no longer decodes (the file changed between passes).
    error: Option<io::Error>,
}

impl<R: Read> Iterator for SnapshotRecords<R> {
    type Item = (ReportKey, CsCqReport);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let mut payload = [0u8; RECORD_LEN];
        let entry = self.src.read_exact(&mut payload).and_then(|()| {
            decode_record(&payload).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "the snapshot changed while it was recovered",
                )
            })
        });
        match entry {
            Ok(entry) => {
                self.left -= 1;
                Some(entry)
            }
            Err(e) => {
                self.error = Some(e);
                self.left = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Reads a snapshot image of `len` bytes from `src` in two passes through
/// the source's buffer, and returns the entry count, or `None` when the
/// image is rejected wholesale.
///
/// Pass 1 checks the magic and that the count agrees with `len`, feeds the
/// count and every record to a running CRC, checks that each record
/// decodes, and compares the stored CRC. Only if it accepts does pass 2
/// seek back to the first record and hand every record to `restore`, so
/// no record of a defective image is ever restored. `restore` must run
/// the records to their end.
///
/// # Errors
///
/// A read or seek error, or a pass 2 that finds what pass 1 accepted
/// changed.
fn read_snapshot<R: Read + Seek>(
    mut src: R,
    len: u64,
    restore: impl FnOnce(&mut SnapshotRecords<R>),
) -> io::Result<Option<usize>> {
    let mut head = [0u8; SNAP_MAGIC.len() + SNAP_COUNT];
    if !read_full(&mut src, &mut head)? || !head.starts_with(SNAP_MAGIC) {
        return Ok(None);
    }
    let count_bytes = &head[SNAP_MAGIC.len()..];
    let count = u32::from_le_bytes([
        count_bytes[0],
        count_bytes[1],
        count_bytes[2],
        count_bytes[3],
    ]);
    if snapshot_len(u64::from(count)) != len {
        return Ok(None);
    }
    let mut crc = Crc32::new();
    crc.update(count_bytes);
    let mut payload = [0u8; RECORD_LEN];
    for _ in 0..count {
        if !read_full(&mut src, &mut payload)? {
            return Ok(None);
        }
        crc.update(&payload);
        if decode_record(&payload).is_none() {
            return Ok(None);
        }
    }
    let mut stored = [0u8; SNAP_CRC];
    if !read_full(&mut src, &mut stored)? || u32::from_le_bytes(stored) != crc.finish() {
        return Ok(None);
    }

    src.seek(SeekFrom::Start(head.len() as u64))?;
    let mut records = SnapshotRecords {
        src,
        left: count as usize,
        error: None,
    };
    restore(&mut records);
    match records.error {
        Some(e) => Err(e),
        None => Ok(Some(count as usize)),
    }
}

/// Decodes a snapshot image; `None` rejects it wholesale on any defect.
pub fn decode_snapshot(bytes: &[u8]) -> Option<Vec<(ReportKey, CsCqReport)>> {
    let mut entries = Vec::new();
    read_snapshot(io::Cursor::new(bytes), bytes.len() as u64, |records| {
        entries.extend(records);
    })
    .expect("an in-memory image neither fails to read nor changes")?;
    Some(entries)
}

/// The valid prefix of a WAL's records, decoded one at a time from a
/// source positioned after the magic: each record's length, CRC and
/// structure are checked before it is yielded, and the first that fails
/// (a short header, an impossible length, a CRC mismatch, an undecodable
/// payload or the end of the source) ends it.
struct WalRecords<R> {
    src: R,
    /// Records yielded so far.
    entries: usize,
    /// Set once the prefix has ended.
    done: bool,
    /// A read error other than the source ending.
    error: Option<io::Error>,
}

impl<R: Read> WalRecords<R> {
    fn read_record(&mut self) -> io::Result<Option<(ReportKey, CsCqReport)>> {
        let mut header = [0u8; RECORD_HEADER];
        if !read_full(&mut self.src, &mut header)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len != RECORD_LEN {
            return Ok(None);
        }
        let mut payload = [0u8; RECORD_LEN];
        if !read_full(&mut self.src, &mut payload)? || crc32(&payload) != crc {
            return Ok(None);
        }
        Ok(decode_record(&payload))
    }
}

impl<R: Read> Iterator for WalRecords<R> {
    type Item = (ReportKey, CsCqReport);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let entry = self.read_record().unwrap_or_else(|e| {
            self.error = Some(e);
            None
        });
        match entry {
            Some(_) => self.entries += 1,
            None => self.done = true,
        }
        entry
    }
}

/// Replays a WAL image from `src` in one pass: hands its valid prefix to
/// `restore`, which must run the records to their end, and returns how
/// many records that prefix holds and its length in bytes, the magic
/// included. A missing or mismatched magic yields `(0, 0)`: the whole file
/// is invalid.
///
/// # Errors
///
/// A read error other than the source ending.
fn replay_wal<R: Read>(
    mut src: R,
    restore: impl FnOnce(&mut WalRecords<R>),
) -> io::Result<(usize, u64)> {
    let mut magic = [0u8; WAL_MAGIC.len()];
    if !read_full(&mut src, &mut magic)? || &magic != WAL_MAGIC {
        return Ok((0, 0));
    }
    let mut records = WalRecords {
        src,
        entries: 0,
        done: false,
        error: None,
    };
    restore(&mut records);
    match records.error {
        Some(e) => Err(e),
        None => {
            let valid = WAL_MAGIC.len() + records.entries * (RECORD_HEADER + RECORD_LEN);
            Ok((records.entries, valid as u64))
        }
    }
}

/// Decodes a WAL image: the valid-prefix entries and that prefix's length
/// in bytes (including the magic). A missing or mismatched magic yields
/// `(vec![], 0)` — the whole file is invalid.
pub fn decode_wal(bytes: &[u8]) -> (Vec<(ReportKey, CsCqReport)>, u64) {
    let mut entries = Vec::new();
    let (_, valid) = replay_wal(bytes, |records| entries.extend(records))
        .expect("an in-memory image never fails to read");
    (entries, valid)
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

        match File::open(Self::snapshot_path(dir)) {
            Ok(file) => {
                let len = file.metadata()?.len();
                let src = BufReader::with_capacity(READ_BUF, file);
                match read_snapshot(src, len, |records| cache.restore_reports(records))? {
                    Some(entries) => report.snapshot_entries = entries,
                    None => {
                        report.snapshot_rejected = true;
                        cyclesteal_obs::counter!("svc.wal.snapshot_rejected");
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(Self::wal_path(dir))?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
        } else {
            let src = BufReader::with_capacity(READ_BUF, &file);
            let (entries, valid_len) = replay_wal(src, |records| cache.restore_reports(records))?;
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
                if valid_len < len {
                    report.wal_truncated_to = Some(valid_len);
                    cyclesteal_obs::counter!("svc.wal.truncated");
                    file.set_len(valid_len)?;
                    file.sync_data()?;
                }
                file.seek(SeekFrom::End(0))?;
                report.wal_entries = entries;
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
        // The header (length, then the payload's CRC) and the payload, in
        // one buffer.
        let payload = encode_record(key, report);
        let mut rec = Vec::with_capacity(RECORD_HEADER + RECORD_LEN);
        rec.extend_from_slice(&(RECORD_LEN as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(&payload).to_le_bytes());
        rec.extend_from_slice(&payload);

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
    /// resets the WAL to empty. The image streams to the file through a
    /// small buffer as it is checksummed, so it is never held whole.
    ///
    /// # Errors
    ///
    /// Any I/O failure. The rename is the commit point: a crash before it
    /// leaves the old snapshot intact; a crash after it but before the WAL
    /// reset merely replays entries the snapshot already holds (inserts
    /// are idempotent — same key, bit-identical value).
    pub fn compact(&self, entries: &[(ReportKey, CsCqReport)]) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_snapshot(&mut out, entries)?;
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
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
        let mut bad_tag = good;
        bad_tag[48] = 7;
        assert!(decode_record(&bad_tag).is_none());
        let mut bad_quality = good;
        bad_quality[121] = 0;
        assert!(decode_record(&bad_quality).is_none());
        let mut bad_hosts = good;
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
