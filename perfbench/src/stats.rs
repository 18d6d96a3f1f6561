//! Order statistics for latency samples.

/// Fewest samples that must lie strictly above a reported percentile.
/// A tail percentile resting on fewer would be one or two outliers.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
///
/// # Errors
///
/// Refuses (with the counts in the message) when `samples` is empty, `p`
/// is out of range, or fewer than [`MIN_TAIL`] samples lie above the
/// percentile's rank — e.g. a p90 needs at least 100 samples and a p50
/// at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} is outside (0, 100]"));
    }
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{p} of an empty sample"));
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (need {MIN_TAIL})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0).unwrap(), 50.0);
        assert_eq!(percentile(&xs, 90.0).unwrap(), 90.0);
    }
}
