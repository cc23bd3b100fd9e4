//! Small numeric helpers: quantiles, medians, and the process's peak RSS.

/// The `q`-quantile of `values` (nearest rank on a sorted copy); `NaN` when
/// empty. Infinite entries (failed frames) sort last, so a failure always
/// lands beyond any percentile it outnumbers.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// The host's core count as the standard library reports it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank_and_sort_failures_last() {
        let values = [3.0, 1.0, f64::INFINITY, 2.0, 4.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 1.0), f64::INFINITY);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert!(median(&[]).is_nan());
    }
}
