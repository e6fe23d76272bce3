//! Order statistics for the benchmark's summaries.
//!
//! Every timing is reported as a median and a 90th percentile; the
//! 90th needs at least 100 samples so that ten lie beyond it.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule
/// on the sorted data: index `round(q · (len − 1))`. Returns `0.0` for
/// an empty slice, so a workload that ran nothing reports nothing.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// The median: the middle sample, or the mean of the two middle samples
/// of an even-sized set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `num ÷ den`, or `0.0` when there is no denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_on_sorted_data() {
        let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.9), 91.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        // Ten samples lie beyond the p90 of 101.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.9)).count(), 10);
    }

    #[test]
    fn percentile_of_nothing_is_zero_and_of_one_is_itself() {
        assert_eq!(percentile(&[], 0.9), 0.0);
        assert_eq!(percentile(&[3.5], 0.9), 3.5);
        assert_eq!(percentile(&[2.0, 1.0], 2.0), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_guards_the_empty_denominator() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
