//! Order statistics over timing samples and process memory.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule;
/// 0.0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample set in place (total order; timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// The 99th percentile, which needs at least 1000 samples to leave ten
/// beyond it.  Panics with a message naming `what` when it has fewer:
/// a p99 over too few samples is not a p99, and the sizes are fixed.
pub fn p99(sorted: &[f64], what: &str) -> f64 {
    assert!(
        sorted.len() >= 1000,
        "{what}: {} samples are too few for a p99 with ten samples beyond it",
        sorted.len()
    );
    quantile(sorted, 0.99)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's CPU time counters at one instant, in clock ticks summed
/// over every CPU: `(stolen, total)`.  Stolen time is time the
/// hypervisor ran other tenants while this machine's CPUs had work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    stolen: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the first line of `/proc/stat`; all zeros where it is
    /// unavailable, so every share reads 0.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user and nice).
        CpuTicks {
            stolen: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// The share of CPU time stolen from `self` until `later`, 0 to 1.
    pub fn stolen_share(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.stolen.saturating_sub(self.stolen) as f64 / total as f64
    }
}

/// The rate a run reached when undisturbed, from `(rate, stolen share)`
/// samples taken over the run: the upper quartile of the rates measured
/// while no more CPU time was stolen than in the median sample.  Other
/// tenants of a shared host only slow a run down, by stealing CPU time or
/// by contending for the cores, caches and memory it runs on, and that
/// comes and goes within seconds; so the figure comes from the faster
/// samples, and from the less robbed half of them.
pub fn undisturbed_rate(samples: &[(f64, f64)]) -> f64 {
    quantile(&less_robbed(samples), 0.75)
}

/// The latency a run reached when undisturbed: the lower quartile of the
/// `(latency, stolen share)` samples, chosen as in `undisturbed_rate`.
pub fn undisturbed_latency(samples: &[(f64, f64)]) -> f64 {
    quantile(&less_robbed(samples), 0.25)
}

/// The values, sorted, of the samples with no more stolen time than the
/// median sample.
fn less_robbed(samples: &[(f64, f64)]) -> Vec<f64> {
    let threshold = median(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    sorted(
        samples
            .iter()
            .filter(|s| s.1 <= threshold)
            .map(|s| s.0)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn disturbed_samples_are_left_out() {
        // Nothing stolen: the upper quartile.
        let quiet = [(1.0, 0.0), (5.0, 0.0), (3.0, 0.0), (4.0, 0.0)];
        assert_eq!(undisturbed_rate(&quiet), 4.0);
        // The two samples with the most stolen time do not count.
        let burst = [
            (10.0, 0.0),
            (20.0, 0.3),
            (9.0, 0.01),
            (30.0, 0.2),
            (11.0, 0.0),
        ];
        assert_eq!(undisturbed_rate(&burst), 11.0);
        assert_eq!(undisturbed_latency(&burst), 9.0);
        let a = CpuTicks {
            stolen: 10,
            total: 1000,
        };
        let b = CpuTicks {
            stolen: 30,
            total: 1200,
        };
        assert!((a.stolen_share(b) - 0.1).abs() < 1e-12);
        assert_eq!(a.stolen_share(a), 0.0);
    }
}
