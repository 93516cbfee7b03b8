//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending-sorted sample set.
///
/// # Panics
///
/// Panics on an empty sample set: every metric needs samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = sorted(values.to_vec());
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        let hi = v.swap_remove(n / 2);
        (v[n / 2 - 1] + hi) / 2.0
    }
}

/// The figure of the calm stretches of a run: the best tenth of
/// per-stretch figures, i.e. their 10th percentile where lower is
/// better (latency) and their 90th where higher is better (rate).
///
/// On a virtual machine whose host shares its cores with other guests,
/// the host takes a core away for milliseconds at a time (`steal` in
/// `/proc/stat`, 0–20% of a run, changing from minute to minute). Every
/// request in flight then waits out the pause, so the stretch it falls
/// in reads milliseconds where the program takes microseconds, and
/// answers fewer requests. A pause never makes the program faster, so
/// the best tenth of many short stretches measures the program rather
/// than the host, as long as a tenth of the run was calm.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn calm(values: &[f64], lower_is_better: bool) -> f64 {
    let p = if lower_is_better { 10.0 } else { 90.0 };
    percentile(&sorted(values.to_vec()), p)
}

/// `values` sorted ascending (NaN-free by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
