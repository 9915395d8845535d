//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`, which it sorts.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Milliseconds from nanosecond samples.
pub fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// A reading taken during a measured phase: elapsed time, process CPU
/// time, answers so far, and the machine's jiffies (all, and stolen by the
/// hypervisor) from [`crate::sys::cpu_jiffies`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub t_ns: u64,
    pub cpu_ns: u64,
    pub answers: u64,
    pub jiffies: (u64, u64),
}

impl Mark {
    pub fn now(t_ns: u64, answers: u64) -> Mark {
        Mark {
            t_ns,
            cpu_ns: crate::sys::cpu_ns(),
            answers,
            jiffies: crate::sys::cpu_jiffies(),
        }
    }
}

/// One time slice of a measured phase.
#[derive(Debug, Clone)]
pub struct Slice {
    pub secs: f64,
    pub answers: u64,
    pub cpu_ns: u64,
    /// Share of the machine's jiffies the hypervisor stole in the slice.
    pub steal_share: f64,
}

impl Slice {
    pub fn answers_per_s(&self) -> f64 {
        self.answers as f64 / self.secs
    }
}

/// Cuts a phase into `n` slices of `slice_ns`. Each boundary is the first
/// mark at or after it (`marks[0]` is the phase start). Slices that no mark
/// separates are dropped.
pub fn slices(marks: &[Mark], n: usize, slice_ns: u64) -> Vec<Slice> {
    let bounds: Vec<Mark> = (0..=n as u64)
        .filter_map(|k| marks.iter().find(|m| m.t_ns >= k * slice_ns).copied())
        .collect();
    bounds
        .windows(2)
        .filter(|w| w[1].t_ns > w[0].t_ns)
        .map(|w| Slice {
            secs: (w[1].t_ns - w[0].t_ns) as f64 / 1e9,
            answers: w[1].answers - w[0].answers,
            cpu_ns: w[1].cpu_ns - w[0].cpu_ns,
            steal_share: (w[1].jiffies.1 - w[0].jiffies.1) as f64
                / (w[1].jiffies.0 - w[0].jiffies.0).max(1) as f64,
        })
        .collect()
}

/// The median of `f` over the calmer half of the slices: those whose steal
/// share is at most the median slice's. Hypervisor steal slows the guest
/// for seconds at a time and inflates even its CPU time per operation, so
/// the slices it hit do not describe the program. Slices where `f` is
/// undefined are skipped.
pub fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let mut steal: Vec<f64> = slices.iter().map(|s| s.steal_share).collect();
    let calm = median(&mut steal);
    let mut v: Vec<f64> = slices
        .iter()
        .filter(|s| s.steal_share <= calm)
        .filter_map(f)
        .collect();
    median(&mut v)
}

/// Samples per chunk of [`chunked_percentile`] at least, so a chunk's p99
/// has one sample beyond it.
const MIN_CHUNK: usize = 100;

/// A percentile robust to host stalls: `samples` (in completion order) are
/// cut into at most `max_chunks` contiguous chunks of at least
/// [`MIN_CHUNK`] samples, and the result is the median of the chunks'
/// `q` percentiles.
pub fn chunked_percentile(samples: &[f64], max_chunks: usize, q: f64) -> f64 {
    let chunks = (samples.len() / MIN_CHUNK).clamp(1, max_chunks.max(1));
    let size = samples.len().div_ceil(chunks).max(1);
    let mut per_chunk: Vec<f64> = samples
        .chunks(size)
        .map(|c| percentile(&mut c.to_vec(), q))
        .collect();
    median(&mut per_chunk)
}
