//! Arithmetic shared by every workload: percentiles, one-second windows and
//! their medians, quartile spread, and the process's own CPU time and peak
//! memory.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`0 ≤ q ≤ 1`); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses for
/// the run-to-run spread. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the data; the
        // clamp can make `delta` negative (extrapolation), as in Python.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// What a run reports for a series of per-window readings: the mean of the
/// quarter of them ranked from one eighth to three eighths of the way from
/// the best end, centred on the best quartile.
///
/// Interference on a small shared box (SMT neighbours, host stalls) comes in
/// episodes of seconds and only ever slows a window down, so a run's better
/// windows show what the code does and its worse ones what the neighbours
/// did; a stall that recurs in most windows still counts at full value. The
/// best eighth is left out as luck, and a mean over a quarter of the windows
/// is steadier, and finer-grained, than any single one of them.
pub fn best_quartile(per_window: &[f64], higher_is_better: bool) -> f64 {
    if per_window.is_empty() {
        return 0.0;
    }
    let mut v = per_window.to_vec();
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    let lo = v.len() / 8;
    let hi = (3 * v.len()).div_ceil(8).max(lo + 1);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Per-window counts moved to where the hypervisor stole nothing: along the
/// least-squares line through the run's (stolen ticks, count) pairs.
///
/// For minutes at a time this box's hypervisor runs something else on a tenth
/// to a quarter of both CPUs, ten milliseconds at a go, and every stolen tick
/// takes completions out of its window — two ticks' worth on a closed loop
/// whose every hop waits for a frozen thread, less where queues absorb it —
/// so the line is fitted per run. Stolen time cannot add completions: a rising
/// line (chance, in a run with next to no steal) corrects nothing. Latency
/// medians and CPU time per operation need no such correction: a median
/// ignores the disturbed minority and CPU accounting leaves stolen time out.
pub fn zero_steal(counts: &[f64], steal_ticks: &[f64]) -> Vec<f64> {
    // A window without a reading counts as one nothing was stolen from.
    let steal: Vec<f64> = (0..counts.len())
        .map(|i| steal_ticks.get(i).copied().unwrap_or(0.0))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (mean_steal, mean_count) = (mean(&steal), mean(counts));
    let variance: f64 = steal.iter().map(|s| (s - mean_steal).powi(2)).sum();
    let covariance: f64 = steal
        .iter()
        .zip(counts)
        .map(|(s, c)| (s - mean_steal) * (c - mean_count))
        .sum();
    let slope = if variance > 0.0 {
        (covariance / variance).min(0.0)
    } else {
        0.0
    };
    steal
        .iter()
        .zip(counts)
        .map(|(s, c)| c - slope * s)
        .collect()
}

/// Completions of one kind of operation over the measured interval, in
/// one-second windows (enough samples for a p99 each). Every reported
/// throughput and latency is the [`best_quartile`] over the windows of the
/// window's own statistic.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    /// Latencies (ms) of the operations that completed in each window.
    pub windows: Vec<Vec<f64>>,
}

impl Windows {
    pub fn new(secs: u64) -> Self {
        Windows {
            windows: vec![Vec::new(); secs as usize],
        }
    }

    /// Records an operation that completed `at` after the interval started.
    /// Completions outside the interval are ignored.
    pub fn record(&mut self, at: Duration, latency: Duration) {
        if let Some(w) = self.windows.get_mut(at.as_secs() as usize) {
            w.push(latency.as_secs_f64() * 1e3);
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Operations completed inside the interval.
    pub fn count(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }

    /// Operations completed in each window.
    pub fn counts(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.len() as f64).collect()
    }

    /// Each non-empty window's `q`-percentile latency (ms).
    pub fn percentiles(&self, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut w = w.clone();
                sort(&mut w);
                percentile(&w, q)
            })
            .collect()
    }

    /// Operations per second: best quartile of the windows' counts, corrected
    /// for the ticks the hypervisor stole in each ([`zero_steal`]).
    pub fn throughput(&self, steal_ticks: &[f64]) -> f64 {
        best_quartile(&zero_steal(&self.counts(), steal_ticks), true)
    }

    /// `q`-percentile latency (ms): best quartile of the windows' own.
    pub fn latency(&self, q: f64) -> f64 {
        best_quartile(&self.percentiles(q), false)
    }

    /// Largest latency seen in the interval (ms).
    pub fn max(&self) -> f64 {
        self.windows.iter().flatten().copied().fold(0.0, f64::max)
    }
}

/// User + system CPU time of this process so far, in microseconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks; Linux exports them at
/// `USER_HZ` = 100 regardless of the kernel's own tick).
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let total = ticks(fields.next()) + ticks(fields.next());
    total * 10_000.0
}

/// Clock ticks (1/100 s) the hypervisor has so far run something else while a
/// virtual CPU of this machine had work to do: the `steal` column of
/// `/proc/stat`, summed over CPUs. 0 where the kernel does not account for it.
pub fn steal_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace()
        .nth(8)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// A memory figure of this process from `/proc/self/status`, in MiB:
/// `VmHWM` is the peak resident set size, `VmRSS` the current one.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0); // round(0.5 * 99) = 50 → v[50]
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }

    #[test]
    fn windows_report_the_best_quartile_of_one_second_buckets() {
        // Five windows holding 3, 1, 5, 4 and 2 operations of 2, 900, 4, 3
        // and 6 ms: one stalled window (900 ms) among normal ones.
        let mut w = Windows::new(5);
        for (window, (ops, ms)) in [(3, 2), (1, 900), (5, 4), (4, 3), (2, 6)]
            .iter()
            .enumerate()
        {
            for i in 0..*ops {
                let at = Duration::from_millis(1000 * window as u64 + 100 + i);
                w.record(at, Duration::from_millis(*ms));
            }
        }
        // Outside the interval: ignored.
        w.record(Duration::from_secs(5), Duration::from_millis(1));
        assert_eq!(w.count(), 15);
        assert_eq!(w.counts(), [3.0, 1.0, 5.0, 4.0, 2.0]);
        assert_eq!(w.percentiles(0.5), [2.0, 900.0, 4.0, 3.0, 6.0]);
        // Counts 5 4 3 2 1 from the best end: of five, the two best average.
        assert_eq!(w.throughput(&[0.0; 5]), 4.5);
        // Sorted latencies 2 3 4 6 900: of five, the two best are averaged.
        assert_eq!(w.latency(0.5), 2.5);
        assert_eq!(w.max(), 900.0);
        assert_eq!(best_quartile(&[], true), 0.0);
        // Sixteen windows: the best two are left out, the next four averaged.
        let sixteen: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(best_quartile(&sixteen, false), (3 + 4 + 5 + 6) as f64 / 4.0);
        assert_eq!(
            best_quartile(&sixteen, true),
            (14 + 13 + 12 + 11) as f64 / 4.0
        );
        assert_eq!(best_quartile(&[7.0], true), 7.0);
        let mut merged = Windows::new(5);
        merged.merge(&w);
        merged.merge(&w);
        assert_eq!(merged.count(), 30);
        assert_eq!(merged.counts()[2], 10.0);
    }

    #[test]
    fn stolen_ticks_are_taken_out_of_the_counts_along_the_fitted_line() {
        // 1,000 completions a window, 20 fewer for every stolen tick.
        let steal = [0.0, 10.0, 25.0, 5.0, 0.0, 40.0];
        let counts = steal.map(|s| 1000.0 - 20.0 * s);
        for c in zero_steal(&counts, &steal) {
            assert!((c - 1000.0).abs() < 1e-9, "{c}");
        }
        // Nothing stolen, or counts that rise with steal: nothing corrected.
        assert_eq!(zero_steal(&counts, &[0.0; 6]), counts);
        let rising = [1.0, 2.0, 3.0];
        assert_eq!(zero_steal(&rising, &[0.0, 1.0, 2.0]), rising);
        assert_eq!(zero_steal(&rising, &[]), rising);
        assert_eq!(zero_steal(&[], &[]), Vec::<f64>::new());
        // A run stolen from throughout reports what it would have done alone.
        let mut w = Windows::new(6);
        for (window, n) in counts.iter().enumerate() {
            for i in 0..*n as u64 {
                w.record(
                    Duration::from_micros(1_000_000 * window as u64 + i),
                    Duration::from_millis(1),
                );
            }
        }
        assert!((w.throughput(&steal) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn process_counters_read_from_proc() {
        let t0 = process_cpu_us();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us() >= t0);
        assert!(status_mb("VmHWM") > 0.5 && status_mb("VmRSS") > 0.5);
    }
}
