//! The untraced run: a closed loop over a frozen number of whole rounds,
//! plus the process-level readings (CPU time, peak RSS).
//!
//! Noise controls: the op count is fixed (`manifest::WorkloadDef`), so
//! both sides of a comparison execute the identical statement sequence
//! and no clock decides when the phase ends; no sleeps or pacing timers;
//! the only clock reads are the per-op latency and one per segment.
//! The phase is `SEGMENTS` segments of equal op count; each yields one
//! sample of every timing metric (throughput, p50 and p90 over its ops,
//! CPU per op), and the metric is the **median over the segments** — a
//! disturbance that covers up to two of the five cannot move it, while a
//! regression that hits one op in ten of every segment is in each
//! segment's p90.  Percentiles over the whole phase are printed beside
//! them; on a shared host they are not steady enough to gate on.

use crate::manifest::SEGMENTS;
use std::time::{Duration, Instant};

/// One executed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Oracle key: which expected result this op must match (workload
    /// defined: probe index, root index, ...).
    pub key: u32,
    /// Order-independent checksum of the returned row set.
    pub checksum: u64,
    pub latency: Duration,
    /// False when the statement errored or an inline check failed.
    pub ok: bool,
}

/// A benchmark workload: a fixture plus a deterministic op sequence.
pub trait Workload {
    /// Execute round `index` (a fixed list of ops, the same on every
    /// commit for a given seed), appending one record per op.
    fn round(&mut self, index: u64, log: &mut Vec<OpRecord>);

    /// Check the logged ops against the oracle, computed independently
    /// of the executor; returns one line per failed op.
    fn verify(&mut self, log: &[OpRecord]) -> Vec<String>;
}

/// Process CPU time (user + system, all threads, including exited ones)
/// in seconds, from `/proc/self/stat` fields 14 and 15.  Linux reports
/// them in `USER_HZ` ticks, which is 100 on every supported platform.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are safe to split.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime/stime (14/15) are at 11/12.
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` in [0, 1] of an ascending-sorted slice, linearly
/// interpolated between the two nearest ranks.  A round is a fixed mix
/// of statement classes whose latencies differ by steps; interpolation
/// keeps a percentile that falls between two classes from flipping.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match sorted.get(lo + 1) {
        Some(hi) => sorted[lo] * (1.0 - frac) + hi * frac,
        None => sorted[lo],
    }
}

/// What one segment of the timed phase measured.
#[derive(Debug, Clone)]
pub struct Segment {
    pub ops: usize,
    pub wall_s: f64,
    /// Process user + sys CPU seconds.
    pub cpu_s: f64,
    /// Latency percentiles over the segment's ops.
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// Result of the timed phase.
pub struct Timed {
    pub log: Vec<OpRecord>,
    pub segments: Vec<Segment>,
    /// Latency of every timed op, ascending.
    lat_ms: Vec<f64>,
}

impl Timed {
    /// Median over the segments of `f`.
    fn segment_median(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        let values: Vec<f64> = self.segments.iter().map(f).collect();
        median(&values)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.segment_median(|s| s.ops as f64 / s.wall_s)
    }

    pub fn lat_p50_ms(&self) -> f64 {
        self.segment_median(|s| s.p50_ms)
    }

    pub fn lat_p90_ms(&self) -> f64 {
        self.segment_median(|s| s.p90_ms)
    }

    /// What an op costs in cores: process CPU time divided by ops.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.segment_median(|s| s.cpu_s * 1e3 / s.ops as f64)
    }

    /// Latency percentile over every timed op of the phase: printed next
    /// to the gated segment medians, not gated (see the README).
    pub fn phase_lat_ms(&self, p: f64) -> f64 {
        percentile(&self.lat_ms, p)
    }
}

fn sorted_ms(ops: &[OpRecord]) -> Vec<f64> {
    let mut lat: Vec<f64> = ops.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    lat
}

/// Run `SEGMENTS` segments of `segment_rounds` whole rounds each.
/// `first_round` continues the round numbering after warm-up.
pub fn run_timed(w: &mut dyn Workload, first_round: u64, segment_rounds: u64) -> Timed {
    let mut log = Vec::new();
    let mut segments = Vec::with_capacity(SEGMENTS as usize);
    let mut index = first_round;
    let mut cpu_before = cpu_seconds();
    for _ in 0..SEGMENTS {
        let (from, start) = (log.len(), Instant::now());
        for _ in 0..segment_rounds {
            w.round(index, &mut log);
            index += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        // Between segments, outside every op: one /proc read and a sort
        // of a few hundred latencies against seconds of work.
        let cpu_after = cpu_seconds();
        let lat = sorted_ms(&log[from..]);
        segments.push(Segment {
            ops: lat.len(),
            wall_s,
            cpu_s: cpu_after - cpu_before,
            p50_ms: percentile(&lat, 0.50),
            p90_ms: percentile(&lat, 0.90),
        });
        cpu_before = cpu_after;
    }
    let lat_ms = sorted_ms(&log);
    Timed {
        log,
        segments,
        lat_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.5);
        assert!((percentile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    /// A fixed-count phase: the op count is the argument's, whatever the
    /// clock says, and a burst over two of the five segments moves no
    /// metric.
    #[test]
    fn fixed_counts_and_segment_median() {
        struct Fixed(u64);
        impl Workload for Fixed {
            fn round(&mut self, index: u64, log: &mut Vec<OpRecord>) {
                assert_eq!(index, self.0, "rounds are numbered consecutively");
                self.0 += 1;
                for key in 0..4 {
                    log.push(OpRecord {
                        key,
                        checksum: 0,
                        latency: Duration::from_millis(u64::from(key) + 1),
                        ok: true,
                    });
                }
            }
            fn verify(&mut self, _: &[OpRecord]) -> Vec<String> {
                Vec::new()
            }
        }
        let mut t = run_timed(&mut Fixed(2), 2, 3);
        assert_eq!(t.log.len(), 5 * 3 * 4);
        assert!(t.segments.iter().all(|s| s.ops == 12));
        assert_eq!(t.lat_p50_ms(), 2.5);
        assert_eq!(t.phase_lat_ms(0.5), 2.5);

        for (i, s) in t.segments.iter_mut().enumerate() {
            let k = if i % 2 == 1 { 1.4 } else { 1.0 };
            (s.wall_s, s.cpu_s, s.p90_ms) = (1.2 * k, 2.4 * k, 4.0 * k);
        }
        assert_eq!(t.ops_per_s(), 10.0);
        assert_eq!(t.lat_p90_ms(), 4.0);
        assert!((t.cpu_ms_per_op() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_readings_are_positive() {
        // Burn a little CPU so the tick counter cannot read zero.
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = x.wrapping_mul(31).wrapping_add(7);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > 0.0);
        assert!(rss_peak_mb() > 0.0);
    }
}
