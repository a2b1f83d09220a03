//! Order statistics used for every reported figure.

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The largest value.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

/// Latency samples, each a `(latency_us, weight)` pair: a weight of `w`
/// stands for `w` results that became visible at the same instant.
#[derive(Debug, Default, Clone)]
pub struct Weighted {
    samples: Vec<(u64, u64)>,
}

impl Weighted {
    /// Record `weight` results observed `latency_us` after they were due.
    pub fn push(&mut self, latency_us: u64, weight: u64) {
        if weight > 0 {
            self.samples.push((latency_us, weight));
        }
    }

    /// Total weight recorded (the sample count).
    pub fn count(&self) -> u64 {
        self.samples.iter().map(|&(_, w)| w).sum()
    }

    /// The smallest latency at or below which at least `q` of the weight
    /// lies (nearest-rank percentile), in microseconds.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (latency, weight) in sorted {
            seen += weight;
            if seen >= rank {
                return Some(latency);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn weighted_quantiles_count_weight() {
        let mut w = Weighted::default();
        w.push(10, 98);
        w.push(500, 1);
        w.push(900, 1);
        assert_eq!(w.count(), 100);
        assert_eq!(w.quantile_us(0.5), Some(10));
        assert_eq!(w.quantile_us(0.98), Some(10));
        assert_eq!(w.quantile_us(0.99), Some(500));
        assert_eq!(w.quantile_us(1.0), Some(900));
    }
}
