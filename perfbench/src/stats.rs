//! Percentiles and medians.

/// Samples that must lie beyond a reported percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// A timing percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly past the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending): the value at
/// rank `ceil(p/100 * n)`. Fails unless at least [`MIN_BEYOND`] samples
/// lie beyond that rank, so a p99 needs at least 1000 samples.
pub fn percentile(sorted: &[f64], p: f64) -> Result<Percentile, String> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Sort a sample vector ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The smallest share of the CPU a slice is taken to have had, so that
/// a slice the hypervisor took whole cannot scale a figure without end.
const MIN_CPU_LEFT: f64 = 0.05;

/// The value of a figure at a steal share of zero, from one
/// `(steal share, value)` point per part of a window: the median over
/// the points of the value scaled by `(1 - steal)^exponent`, the share
/// of the CPU the hypervisor left raised to the workload's sensitivity
/// to it. A rate is divided by that factor; a figure that `rises` with
/// steal (a latency) is multiplied by it. An exponent of 0 gives the
/// plain median.
pub fn at_zero_steal(points: &[(f64, f64)], exponent: f64, rises: bool) -> f64 {
    let scaled: Vec<f64> = points
        .iter()
        .map(|&(steal, value)| {
            let left = (1.0 - steal).clamp(MIN_CPU_LEFT, 1.0).powf(exponent);
            if rises {
                value * left
            } else {
                value / left
            }
        })
        .collect();
    median(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50.0).expect("p50").value, 500.0);
        let p99 = percentile(&s, 99.0).expect("p99");
        assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(
            percentile(&ramp(999), 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        assert!(
            percentile(&ramp(19), 50.0).is_err(),
            "19 samples leave 9 beyond p50"
        );
        assert!(percentile(&ramp(20), 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_is_order_statistic_not_interpolated() {
        let s = sorted([5.0, 1.0, 4.0, 2.0, 3.0].repeat(10));
        let p = percentile(&s, 50.0).expect("p50");
        assert_eq!(p.value, 3.0);
        assert_eq!(p.beyond, 25);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn zero_steal_undoes_the_power_law_of_the_cpu_left() {
        // A rate of 1,000/s at no steal that falls as (1 - steal)^2, with
        // one wild slice that only moves the median by one rank.
        let mut points: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let steal = 0.03 * i as f64;
                (steal, 1000.0 * (1.0 - steal).powi(2))
            })
            .collect();
        points.push((0.05, 5000.0));
        assert!((at_zero_steal(&points, 2.0, false) - 1000.0).abs() < 1e-9);
        // A latency of 50 us at no steal that grows as 1 / (1 - steal)^1.5.
        let lat: Vec<(f64, f64)> = (0..5)
            .map(|i| {
                let steal = 0.05 * i as f64;
                (steal, 50.0 / (1.0 - steal).powf(1.5))
            })
            .collect();
        assert!((at_zero_steal(&lat, 1.5, true) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_steal_with_no_exponent_or_no_steal_is_the_median() {
        let points = [(0.1, 4.0), (0.2, 6.0), (0.3, 5.0)];
        assert_eq!(at_zero_steal(&points, 0.0, false), 5.0);
        assert_eq!(at_zero_steal(&points, 0.0, true), 5.0);
        let quiet = [(0.0, 4.0), (0.0, 6.0), (0.0, 5.0)];
        assert_eq!(at_zero_steal(&quiet, 2.5, false), 5.0);
    }

    #[test]
    fn a_slice_the_hypervisor_took_whole_stays_finite() {
        let v = at_zero_steal(&[(1.0, 10.0)], 2.0, false);
        assert!(v.is_finite() && v > 10.0, "{v}");
        let v = at_zero_steal(&[(1.0, 10.0)], 2.0, true);
        assert!(v > 0.0 && v < 10.0, "{v}");
    }
}
