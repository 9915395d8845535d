//! Process-level readings from the kernel: CPU time, peak resident set,
//! open descriptors and live threads.

use std::fs;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RLIMIT_NOFILE: i32 = 7;

/// User plus system CPU time of the whole process, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel supports for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Raises the soft open-file limit to the hard limit: the churn workload
/// opens thousands of connections and the daemon keeps each one's socket.
pub fn raise_nofile_limit() {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable rlimit for both calls.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            lim.cur = lim.max;
            setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Open file descriptors of this process.
pub fn fds() -> u64 {
    fs::read_dir("/proc/self/fd").map_or(0, |d| d.count() as u64)
}

/// Machine-wide CPU jiffies from `/proc/stat`: all of them, and those the
/// hypervisor gave to other guests while this one wanted to run (steal).
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}
