//! Small measurement helpers: quantiles, process CPU and memory from
//! `/proc`, a content hash, and the result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU of a whole process (all threads, reaped ones
/// included), in milliseconds. `/proc` reports it in USER_HZ ticks,
/// which Linux fixes at 100 per second for user space.
pub fn cpu_ms(pid: Option<u32>) -> f64 {
    let Ok(stat) = std::fs::read_to_string(proc_path(pid, "stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 * 10.0
}

/// CPU ticks of the whole machine, `(all, stolen)`, from `/proc/stat`:
/// time the hypervisor gave to other guests shows up as stolen, and
/// explains a slow run.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Stolen share of the machine's CPU time between two [`host_ticks`].
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / all as f64
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let status = std::fs::read_to_string(proc_path(pid, "status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's VmHWM to its current resident set, so a later
/// [`peak_rss_mb`] sees only the peak reached after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// FNV-1a, 64-bit: a compact stand-in for a response when two passes
/// over the same stream are compared byte for byte.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The run's verdict and numbers, printed as the last stdout line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Server health counters over the window (serve workloads).
    pub health: Option<crate::workloads::HealthDelta>,
}

/// Failure notes printed per run; the rest are only counted.
const MAX_FAILURE_NOTES: u64 = 10;

impl Outcome {
    /// Counts a failed op; the first [`MAX_FAILURE_NOTES`] keep a note.
    pub fn fail(&mut self, note: String) {
        if self.failed < MAX_FAILURE_NOTES {
            self.notes.push(note);
        }
        self.failed += 1;
    }

    /// The single-line JSON result.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no infinities; a failed op's latency is the
            // largest finite number instead.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
