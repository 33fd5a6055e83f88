//! Statistics helpers: medians, quartiles, tail percentiles, ratios with
//! their base, and the process's peak resident memory.

use std::time::Instant;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the figures printed here match the spread the benchmark is judged on.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut q = [0.0; 3];
    for (k, out) in q.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *out = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(q)
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some([q1, _, q3]) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples above it, as `(percentile, value)` by nearest rank. `None`
/// below twenty samples, where not even the median qualifies.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    const LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let s = sorted(xs);
    let n = s.len();
    LEVELS.iter().find_map(|&p| {
        // Nearest rank: the smallest value with at least p% at or below it.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// `num / base`, 0 when the base is 0. Report the base next to it.
pub fn ratio(num: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        num as f64 / base as f64
    }
}

/// Peak resident set (`VmHWM`) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MiB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Runs `f` at least `min_iters` times, then again for as long as another
/// call, taking as long as the last one did, still ends inside `seconds`;
/// returns each call's result. Runs thus stay within their window even
/// when one call is a large share of it.
pub fn repeat_for<T>(seconds: f64, min_iters: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if out.len() >= min_iters && elapsed + last > seconds {
            return out;
        }
        out.push(f());
        last = t0.elapsed().as_secs_f64() - elapsed;
    }
}

/// Sets up at least `min_times` times and until `min_seconds` have been
/// spent, dropping each result before building the next (so set-up inputs
/// never coexist in memory); returns the last result and the median
/// set-up time. Cheap set-ups thus get enough samples for a steady median.
pub fn set_up<T>(min_times: usize, min_seconds: f64, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut secs = Vec::new();
    while secs.len() < min_times.max(1) || secs.iter().sum::<f64>() < min_seconds {
        drop(last.take());
        let (v, s) = timed(&mut f);
        secs.push(s);
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Below 20 samples no level has ten samples above it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None);
        // 20 samples: the median (rank 10) leaves exactly ten above.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) leaves ten; p95 would leave five.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) leaves ten.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn ratio_carries_a_zero_base() {
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(0, 8), 0.0);
        assert_eq!(ratio(5, 0), 0.0);
    }

    #[test]
    fn rss_reading_parses_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(512.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        // The live reading is positive on a system with /proc.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn set_up_repeats_to_the_minimum_count() {
        let mut n = 0;
        let (last, _) = set_up(3, 0.0, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let mut n = 0;
        let out = repeat_for(0.0, 3, || {
            n += 1;
            n
        });
        assert_eq!(out, vec![1, 2, 3]);
    }
}
