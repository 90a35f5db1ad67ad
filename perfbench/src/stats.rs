//! Order statistics over latency samples.

/// Nearest-rank percentile (`p` in [0, 100]) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unordered sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency summary of one operation class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
}

impl Latency {
    pub fn of(mut ms: Vec<f64>) -> Latency {
        ms.sort_by(f64::total_cmp);
        Latency {
            samples: ms.len(),
            p50_ms: percentile(&ms, 50.0),
            p90_ms: percentile(&ms, 90.0),
            p99_ms: percentile(&ms, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
