//! Process counters read with `std` only, order statistics, and the fixed
//! host probe loop.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// reports them in `USER_HZ`, which is 100 on every architecture this
/// benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time of the whole process (all threads, including
/// threads that already exited), in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn now() -> Result<Self, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        // The command name (field 2) may hold spaces; fields after the last
        // ')' start at field 3, so utime (14) and stime (15) sit at 11, 12.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed /proc/self/stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / TICKS_PER_S)
                .ok_or_else(|| format!("missing field {} in /proc/self/stat", i + 3))
        };
        Ok(Self {
            user_s: ticks(11)?,
            sys_s: ticks(12)?,
        })
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run (the `steal` column of `/proc/stat`), summed over CPUs, in
/// seconds.
pub fn host_steal_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    stat.lines()
        .next()
        .filter(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|steal| steal.parse::<u64>().ok())
        .map(|ticks| ticks as f64 / TICKS_PER_S)
        .ok_or_else(|| "no steal column in /proc/stat".to_string())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Linearly interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `values` ascending in place and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// The host probe: a fixed loop over a 256 KiB (L2-resident) array that
/// does not touch the program under test. Returns its time in ms. Timed at
/// the start and the end of every run, so a drift of the host can be told
/// apart from a drift of the program.
pub fn host_probe_ms() -> f64 {
    let data: Vec<f64> = (0..1 << 15).map(|i| (i % 97) as f64 * 0.25).collect();
    let start = Instant::now();
    let mut acc = [0.0f64; 4];
    for _ in 0..96 {
        for quad in black_box(&data).chunks_exact(4) {
            for (a, x) in acc.iter_mut().zip(quad) {
                *a = *a * 0.999_999 + x;
            }
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` host probes.
pub fn host_probe_median_ms(reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| host_probe_ms()).collect();
    median(&mut samples)
}

/// The host's thread spawn cost: median time, in µs, to spawn and join two
/// scoped threads that do nothing, the pattern every parallel call of the
/// runtime shim pays. It tracks the host noise that the spawn-heavy
/// workloads amplify, which the L2 loop above does not see.
pub fn spawn_probe_us() -> f64 {
    let mut samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| black_box(0u64));
                }
            });
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}
