//! The benchmark's own arithmetic: exact percentiles over sorted samples,
//! quartile spread, and gaps between commit reports.

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub samples: usize,
}

/// Exact `p`-th percentile (0..=100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or
/// below it. `None` when there are no samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(Quantile {
        value: sorted[rank.clamp(1, sorted.len()) - 1] as f64,
        samples: sorted.len(),
    })
}

/// The `q`-quantile (0..=1) of unsorted values, interpolating linearly
/// between the two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `total / per`, and 0 when there was nothing to divide by: a layer
/// that did no work.
pub fn ratio(total: u64, per: u64) -> f64 {
    if per == 0 {
        0.0
    } else {
        total as f64 / per as f64
    }
}

/// The longest interval without a commit report inside `[from, to]`,
/// given the report times in ascending order: `(start, end)` of the gap.
/// The window's edges count as reports, so a silent window is one gap.
pub fn longest_gap(times: &[u64], from: u64, to: u64) -> (u64, u64) {
    let mut best = (from, from);
    let mut prev = from;
    for &t in times.iter().filter(|t| (from..=to).contains(*t)) {
        if t - prev > best.1 - best.0 {
            best = (prev, t);
        }
        prev = t;
    }
    if to - prev > best.1 - best.0 {
        best = (prev, to);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_and_carries_its_sample_count() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(
            percentile(&sorted, 50.0),
            Some(Quantile {
                value: 50.0,
                samples: 100
            })
        );
        assert_eq!(percentile(&sorted, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&sorted, 100.0).unwrap().value, 100.0);
        assert_eq!(percentile(&sorted, 0.0).unwrap().value, 1.0);
        // Nearest rank never interpolates between samples.
        assert_eq!(percentile(&[10, 20, 30], 50.0).unwrap().value, 20.0);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0).unwrap().value, 20.0);
        assert_eq!(percentile(&[7], 99.0).unwrap().samples, 1);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert_eq!(quantile(&v, 0.75), 40.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn longest_gap_finds_the_silence_after_a_failure() {
        // Reports every 10 until 100, silence until 260, then every 10.
        let mut times: Vec<u64> = (1..=10).map(|k| k * 10).collect();
        times.extend((26..=30).map(|k| k * 10));
        assert_eq!(longest_gap(&times, 0, 300), (100, 260));
        // Reports outside the window are ignored; its edges bound gaps.
        assert_eq!(longest_gap(&times, 120, 200), (120, 200));
        assert_eq!(longest_gap(&times, 250, 300), (250, 260));
        assert_eq!(longest_gap(&[], 5, 9), (5, 9));
    }
}
