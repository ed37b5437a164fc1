//! Host-side measurement: wall clock, scheduler accounting and memory.
//!
//! Every figure here describes the machine running the simulator, never
//! simulated time. The scheduler numbers come from the kernel's per-thread
//! `schedstat` (time on a CPU and time runnable but waiting for one), read
//! around each timed window so that a slow window can be told apart from a
//! busy host.

use std::time::Instant;

/// On-CPU and run-queue-wait nanoseconds of the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds the thread ran on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds the thread was runnable but waited for a CPU.
    pub runq_wait_ns: u64,
}

impl SchedStat {
    /// Reads `/proc/thread-self/schedstat`; zeros where the kernel does not
    /// provide it (the window's wall time is still measured).
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| {
                let mut it = s.split_whitespace().map(|f| f.parse::<u64>().ok());
                Some(SchedStat {
                    cpu_ns: it.next()??,
                    runq_wait_ns: it.next()??,
                })
            })
            .unwrap_or_default()
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
        }
    }
}

/// Host cost of a set of timed windows.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds on a CPU (calling thread only).
    pub cpu_s: f64,
    /// Seconds runnable but waiting for a CPU.
    pub runq_wait_s: f64,
}

impl HostTime {
    /// Runs `f` as one timed window and adds its cost.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (sched0, t0) = (SchedStat::now(), Instant::now());
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let sched = SchedStat::now().since(sched0);
        self.wall_s += wall;
        self.cpu_s += sched.cpu_ns as f64 * 1e-9;
        self.runq_wait_s += sched.runq_wait_ns as f64 * 1e-9;
        out
    }

    /// Takes `part`, measured separately, out of these windows.
    pub fn remove(&mut self, part: HostTime) {
        self.wall_s -= part.wall_s;
        self.cpu_s -= part.cpu_s;
        self.runq_wait_s -= part.runq_wait_s;
    }
}

/// Seconds `f` took on the wall clock, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile `p` of `n` samples that leaves at least
/// `beyond` samples above it, and the nearest-rank value at `p`. `None`
/// when there are too few samples for any such percentile.
pub fn tail_percentile(xs: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the value at percentile p is v[ceil(p/100 * n) - 1], and
    // the samples strictly beyond it are n - ceil(p/100 * n).
    (1..100u32).rev().find_map(|p| {
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        (rank >= 1 && n - rank >= beyond).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs, 10).expect("enough samples");
        assert_eq!((p, v), (90, 90.0));
        assert!(tail_percentile(&xs[..10], 10).is_none());
        let (p, _) = tail_percentile(&xs[..20], 10).expect("enough samples");
        assert_eq!(p, 50);
    }

    #[test]
    fn host_time_accumulates() {
        let mut h = HostTime::default();
        let x = h.time(|| (0..1000u64).sum::<u64>());
        assert_eq!(x, 499_500);
        assert!(h.wall_s > 0.0);
    }
}
