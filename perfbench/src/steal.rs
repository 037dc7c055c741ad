//! Host CPU steal: time the hypervisor gave this VM's vCPUs to other
//! guests. On a shared host it comes in bursts, and each burst stalls every
//! thread of the process at once. Latency taken during a burst then
//! measures the neighbours, not the program. The monitor samples
//! `/proc/stat` once a second during a session, so the end-to-end metrics
//! can keep only the seconds in which the host left the VM alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A second counts as calm when at most this share of its CPU time was
/// stolen, or when it is among the calmest third of the session's seconds.
/// `/proc/stat` counts steal in 10 ms ticks, and one stolen tick is a
/// 10 ms stall: enough to move the p99 of every request in flight. So a
/// calm second is one without a stolen tick.
pub const CALM_STEAL: f64 = 0.0;

const PERIOD: Duration = Duration::from_secs(1);

/// Aggregate `(steal, total)` jiffies of all CPUs.
fn read() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Waits for a calm second (see [`CALM_STEAL`]), or until `cap` has
/// passed, and returns how long it waited. Steal bursts on a shared 2-vCPU
/// Xeon VM lasted up to 30 s; a session that starts after one is over
/// needs less filtering.
pub fn wait_for_calm(cap: Duration) -> Duration {
    let start = Instant::now();
    let Some(mut prev) = read() else {
        return Duration::ZERO;
    };
    loop {
        std::thread::sleep(PERIOD);
        let Some(cur) = read() else {
            break;
        };
        let share =
            cur.0.saturating_sub(prev.0) as f64 / cur.1.saturating_sub(prev.1).max(1) as f64;
        if share <= CALM_STEAL || start.elapsed() >= cap {
            break;
        }
        prev = cur;
    }
    start.elapsed()
}

pub struct Monitor {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, u64, u64)>>,
}

impl Monitor {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                let at = Instant::now();
                if let Some((steal, total)) = read() {
                    samples.push((at, steal, total));
                }
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                while at.elapsed() < PERIOD && !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });
        Self { stop, thread }
    }

    pub fn finish(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        Steal::from_samples(&self.thread.join().expect("the steal monitor panicked"))
    }
}

impl Steal {
    /// Intervals between consecutive `(at, steal, total)` samples.
    fn from_samples(samples: &[(Instant, u64, u64)]) -> Self {
        let intervals: Vec<(Instant, Instant, f64)> = samples
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0], w[1]);
                let total = b.2.saturating_sub(a.2).max(1) as f64;
                (a.0, b.0, b.1.saturating_sub(a.1) as f64 / total)
            })
            .collect();
        let mut shares: Vec<f64> = intervals.iter().map(|i| i.2).collect();
        shares.sort_by(f64::total_cmp);
        let third = shares.get(shares.len().saturating_sub(1) / 3).copied();
        Steal {
            intervals,
            limit: third.map_or(CALM_STEAL, |s| s.max(CALM_STEAL)),
        }
    }
}

/// Per-interval steal shares of one session.
#[derive(Debug, Default)]
pub struct Steal {
    intervals: Vec<(Instant, Instant, f64)>,
    /// Largest steal share of a calm interval.
    limit: f64,
}

impl Steal {
    fn seconds(&self, keep: impl Fn(f64) -> bool) -> f64 {
        self.intervals
            .iter()
            .filter(|i| keep(i.2))
            .map(|i| (i.1 - i.0).as_secs_f64())
            .sum()
    }

    /// Steal share over the whole session (time-weighted).
    pub fn share(&self) -> f64 {
        let all = self.seconds(|_| true);
        let stolen: f64 = self
            .intervals
            .iter()
            .map(|i| (i.1 - i.0).as_secs_f64() * i.2)
            .sum();
        stolen / all.max(1e-9)
    }

    /// Seconds of the session that were calm.
    pub fn calm_seconds(&self) -> f64 {
        self.seconds(|s| s <= self.limit)
    }

    /// Largest steal share a calm second had.
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Share of the session's seconds that were calm (1 without samples).
    pub fn calm_share(&self) -> f64 {
        if self.intervals.is_empty() {
            return 1.0;
        }
        self.calm_seconds() / self.seconds(|_| true).max(1e-9)
    }

    /// Whether instant `t` fell in a calm interval.
    pub fn is_calm(&self, t: Instant) -> bool {
        let i = self.intervals.partition_point(|iv| iv.1 <= t);
        self.intervals
            .get(i)
            .is_some_and(|iv| iv.0 <= t && iv.2 <= self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-second intervals, interval `i` stealing `stolen[i]` of 100
    /// jiffies.
    fn session(stolen: &[u64]) -> (Steal, Vec<Instant>) {
        let t0 = Instant::now();
        let at: Vec<Instant> = (0..=stolen.len())
            .map(|i| t0 + Duration::from_secs(i as u64))
            .collect();
        let mut samples = vec![(at[0], 0, 0)];
        for (i, s) in stolen.iter().enumerate() {
            let (_, steal, total) = samples[i];
            samples.push((at[i + 1], steal + s, total + 100));
        }
        (Steal::from_samples(&samples), at)
    }

    #[test]
    fn calm_is_steal_free_or_the_calmest_third() {
        let mid = |at: &Instant| *at + Duration::from_millis(500);
        let (mostly_calm, at) = session(&[0, 0, 3, 0, 30, 0]);
        assert_eq!(mostly_calm.limit(), CALM_STEAL);
        assert!(mostly_calm.is_calm(mid(&at[0])));
        assert!(!mostly_calm.is_calm(mid(&at[2])));
        assert!((mostly_calm.calm_share() - 4.0 / 6.0).abs() < 1e-9);

        let (stormy, at) = session(&[1, 30, 2, 50, 20, 40, 45]);
        assert!((stormy.limit() - 0.20).abs() < 1e-9);
        let calm: Vec<bool> = at[..7].iter().map(|t| stormy.is_calm(mid(t))).collect();
        assert_eq!(calm, [true, false, true, false, true, false, false]);
        assert!((stormy.share() - 188.0 / 700.0).abs() < 1e-9);
    }
}
