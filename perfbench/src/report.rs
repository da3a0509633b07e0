//! Metric records, order statistics and the result line.

use serde::Serialize;
use std::collections::BTreeMap;

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Record `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }
}

/// What one run produced: operations attempted and failed, and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed a check or were refused.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// One metric of the result line.
#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The result line.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

impl Outcome {
    /// The result as one JSON line. A non-finite metric makes the run
    /// incorrect and is written as 0, since JSON cannot carry it.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.0.iter().all(|m| m.1.is_finite());
        let line = ResultLine {
            correct: finite && self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .metrics
                .0
                .iter()
                .map(|(name, v, unit)| {
                    let value = if v.is_finite() { *v } else { 0.0 };
                    let unit = unit.clone();
                    (name.clone(), MetricValue { value, unit })
                })
                .collect(),
        };
        serde_json::to_string(&line).expect("the result line serializes")
    }
}

/// Median (mean of the middle pair for even counts); 0 for none.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of sorted samples by the nearest-rank rule.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Share of a run's rounds that the end-to-end figures hold for: a rate is
/// the one that many rounds reached, a latency the one that many rounds
/// stayed within.
///
/// On a shared host the speed of a core switches, for seconds to minutes
/// at a time, between a usual level and one about a third faster, as the
/// neighbours' load comes and goes. A median over rounds follows the mix
/// of the two levels within the run and so moves from run to run; a
/// quantile on the slow side reads the usual level unless nearly the whole
/// run was fast. The quartile, not a more extreme quantile: the per-round
/// p99 latency is itself a tail figure, and its 90th percentile over
/// rounds scattered more from run to run than its median did.
pub const STEADY_SHARE: f64 = 0.75;

/// The rate that [`STEADY_SHARE`] of the rounds reached; 0 for none.
pub fn steady_rate(rates: &[f64]) -> f64 {
    quantile(rates, 1.0 - STEADY_SHARE)
}

/// The latency that [`STEADY_SHARE`] of the rounds stayed within; 0 for
/// none.
pub fn steady_latency(latencies: &[f64]) -> f64 {
    quantile(latencies, STEADY_SHARE)
}

/// The `q`-quantile of unsorted samples by the nearest-rank rule; 0 for
/// none.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs rounds of identical work until `seconds` of rounds have passed,
/// and keeps each round's wall time.
#[derive(Debug, Default)]
pub struct RoundClock {
    seconds: f64,
    walls: Vec<f64>,
}

impl RoundClock {
    /// A clock for `seconds` of rounds.
    pub fn new(seconds: f64) -> RoundClock {
        RoundClock {
            seconds,
            walls: Vec::new(),
        }
    }

    /// Whether to take another round: always at least one.
    pub fn more(&self) -> bool {
        self.walls.is_empty() || self.total_s() < self.seconds
    }

    /// A round took `seconds`.
    pub fn record(&mut self, seconds: f64) {
        self.walls.push(seconds);
    }

    /// Rounds taken.
    pub fn rounds(&self) -> usize {
        self.walls.len()
    }

    /// Seconds of all rounds.
    pub fn total_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Median round wall time: a round slowed by a burst of host load
    /// moves it only if most rounds were slowed.
    pub fn median_s(&self) -> f64 {
        median(self.walls.clone())
    }
}

/// CPU time of this process, its ended threads included (user + system
/// time from `/proc/self/stat`, in clock ticks of 10 ms), seconds. On a
/// paravirtualized guest the kernel leaves out the time the host stole.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name, which may hold
            // spaces; utime and stime are fields 14 and 15.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// CPU time of the calling thread (`/proc/thread-self/schedstat`, in
/// nanoseconds), seconds; without the time the host stole, as above. The
/// kernel brings a running thread's count up to date only when it
/// schedules, so the thread yields first.
pub fn thread_cpu_s() -> f64 {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns * 1e-9)
}

/// The host's CPU time counters of this machine (`/proc/stat`), in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// The counters now; zero where `/proc/stat` cannot be read.
    pub fn now() -> HostTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let f: Vec<u64> = s
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal guest guest_nice;
                // guest time is already counted in user and nice.
                Some(HostTicks {
                    steal: *f.get(7)?,
                    total: f.iter().take(8).sum(),
                })
            })
            .unwrap_or_default()
    }

    /// Share of the CPU time since `earlier` that the host stole from
    /// this machine's CPUs.
    pub fn steal_share_since(self, earlier: HostTicks) -> f64 {
        ratio(
            self.steal.saturating_sub(earlier.steal) as f64,
            self.total.saturating_sub(earlier.total) as f64,
        )
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), Some(50));
        assert_eq!(quantile_sorted(&s, 0.99), Some(99));
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), None);
        let rounds: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(steady_rate(&rounds), 5.0, "the fifth slowest of 20");
        assert_eq!(steady_latency(&rounds), 15.0, "the sixth longest of 20");
        assert_eq!(steady_rate(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(steady_latency(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(steady_rate(&[]), 0.0);
    }

    #[test]
    fn round_clock_runs_for_its_seconds() {
        let mut c = RoundClock::new(2.0);
        assert!(c.more(), "takes a first round");
        for wall in [1.0, 9.0, 3.0] {
            c.record(wall);
        }
        assert!(!c.more());
        assert_eq!(c.rounds(), 3);
        assert_eq!(c.total_s(), 13.0);
        assert_eq!(c.median_s(), 3.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        while thread_cpu_s() - t0 < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_s() - p0 >= 0.02, "process CPU time advanced");
        assert!(process_cpu_s() > 0.0 && thread_cpu_s() > 0.0);
        let share = HostTicks::now().steal_share_since(HostTicks::default());
        assert!((0.0..1.0).contains(&share), "steal share {share}");
    }

    #[test]
    fn result_line_marks_failures_and_non_finite_values() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "s");
        let ok = Outcome {
            attempted: 2,
            failed: 0,
            metrics: m,
        };
        assert_eq!(
            ok.to_json(),
            r#"{"correct":true,"attempted":2,"failed":0,"metrics":{"a":{"value":1.5,"unit":"s"}}}"#
        );
        let mut m = Metrics::default();
        m.put("a", f64::NAN, "s");
        let bad = Outcome {
            attempted: 2,
            failed: 0,
            metrics: m,
        };
        assert!(bad.to_json().starts_with(r#"{"correct":false"#));
    }
}
