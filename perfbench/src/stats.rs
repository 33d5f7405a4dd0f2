//! Order statistics for the reported timings.

/// The smallest number of samples that must lie beyond a reported
/// percentile, so that the figure rests on more than a few outliers.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) of `samples` by the nearest-rank
/// rule, or an error when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(sorted[rank - 1])
}

/// The median of `samples` (the mean of the two middle values for an even
/// count); `NaN` for no samples. Used for repeated set-up timings, which are
/// few by design.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert_eq!(percentile(&hundred, 50.0), Ok(50.0));
        // 99 samples: p90 is rank 90, with 9 beyond it.
        assert!(percentile(&hundred[..99], 90.0).is_err());
        // 20 samples carry a median (rank 10, 10 beyond) but 19 do not.
        assert_eq!(percentile(&hundred[..20], 50.0), Ok(10.0));
        assert!(percentile(&hundred[..19], 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        shuffled.swap(3, 17);
        assert_eq!(percentile(&shuffled, 50.0), Ok(20.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
