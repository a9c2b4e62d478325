//! Order statistics the metrics are made of.

/// The `p`-quantile (`0 < p ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `p` of the samples at or below it. 0 for an
/// empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by the usual rule (mean of the two middle samples when even).
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
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Cut `items` into `epochs` runs of equal count (the last takes the
/// remainder) and return `f` of each non-empty run.
pub fn per_epoch<T>(items: &[T], epochs: usize, f: impl Fn(&[T]) -> f64) -> Vec<f64> {
    let size = items.len() / epochs.max(1);
    if size == 0 {
        return if items.is_empty() {
            Vec::new()
        } else {
            vec![f(items)]
        };
    }
    (0..epochs)
        .map(|e| {
            let end = if e + 1 == epochs {
                items.len()
            } else {
                (e + 1) * size
            };
            f(&items[e * size..end])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_arrays() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Order of arrival does not matter.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 1000 samples leave exactly ten beyond p99.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 0.99), 990.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn epoch_median_ignores_one_bad_epoch() {
        // Five epochs of four samples; the fourth epoch stalls.
        let mut lat = vec![1.0; 20];
        for x in &mut lat[12..16] {
            *x = 50.0;
        }
        let rates = per_epoch(&lat, 5, |e| e.len() as f64 / e.iter().sum::<f64>());
        assert_eq!(rates, vec![1.0, 1.0, 1.0, 0.02, 1.0]);
        assert_eq!(median(&rates), 1.0);
        // The remainder goes to the last epoch.
        let sizes = per_epoch(&[0u8; 23], 5, |e| e.len() as f64);
        assert_eq!(sizes, vec![4.0, 4.0, 4.0, 4.0, 7.0]);
        // Fewer items than epochs: one epoch.
        assert_eq!(per_epoch(&[0u8; 3], 5, |e| e.len() as f64), vec![3.0]);
        assert!(per_epoch(&[0u8; 0], 5, |e| e.len() as f64).is_empty());
    }
}
