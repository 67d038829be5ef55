//! The estimators behind the end-to-end numbers.
//!
//! On a small shared host a step's wall time is its cost plus whatever
//! the hypervisor stole, and the stolen part is one-sided: it only ever
//! adds. The R repeats of a workload are bit-identical computations, so
//! for each step index the fastest of the R samples is the best
//! estimate of that step's cost, and the sum over indices estimates one
//! undisturbed pass. Means and whole-run totals carry the steal.

/// Median (mean of the two middle values for an even count). `None` for
/// an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// The `q`-quantile by nearest rank, reported only when at least
/// `min_beyond` samples lie strictly above it — a p90 needs ten samples
/// beyond it before it says anything about the tail.
pub fn percentile(samples: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let value = v[rank - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= min_beyond).then_some(value)
}

/// `Σ_i min_r wall[r][i]`: per step index, the fastest of the repeats.
/// Repeats may be cut short (a failed step ends one); an index counts
/// only if some repeat reached it. Returns the sum and the number of
/// indices summed.
pub fn best_of_repeats(wall: &[Vec<f64>]) -> (f64, usize) {
    let k = wall.iter().map(Vec::len).max().unwrap_or(0);
    let mut sum = 0.0;
    let mut counted = 0;
    for i in 0..k {
        let best = wall
            .iter()
            .filter_map(|r| r.get(i))
            .copied()
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            sum += best;
            counted += 1;
        }
    }
    (sum, counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 = the 90th, ten lie beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9, 10), Some(90.0));
        // 99 samples: only nine lie beyond the 90th.
        assert_eq!(percentile(&v[..99], 0.9, 10), None);
        // Ties in the tail are not "beyond".
        let mut tied = v.clone();
        for x in &mut tied[90..] {
            *x = 90.0;
        }
        assert_eq!(percentile(&tied, 0.9, 10), None);
        assert_eq!(percentile(&v, 0.5, 0), Some(50.0));
        assert_eq!(percentile(&[], 0.9, 0), None);
    }

    #[test]
    fn best_of_repeats_drops_one_sided_noise() {
        // True per-step cost 1, 2, 3; each repeat is disturbed on a
        // different index.
        let wall = vec![
            vec![1.0, 2.0, 9.0],
            vec![7.0, 2.0, 3.0],
            vec![1.0, 8.0, 3.0],
        ];
        assert_eq!(best_of_repeats(&wall), (6.0, 3));
        // The mean of whole-run totals would read 12.
        let mean: f64 = wall.iter().map(|r| r.iter().sum::<f64>()).sum::<f64>() / 3.0;
        assert_eq!(mean, 12.0);
    }

    #[test]
    fn best_of_repeats_handles_short_and_empty_repeats() {
        assert_eq!(best_of_repeats(&[]), (0.0, 0));
        assert_eq!(best_of_repeats(&[vec![2.0, 5.0], vec![3.0]]), (7.0, 2));
    }
}
