//! Order statistics: nearest-rank percentiles, the tail-rank rule, and the
//! reduction of samples taken over a batch of inputs.

/// Sorts samples ascending. Every sample is a measured time, rate or count,
/// never NaN.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of the samples at or below it. An observed
/// value, never an interpolation, so exact counts stay exact; `q = 0.5` on
/// an even count is the lower median.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: Vec<f64>) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// The highest percentile with ten samples beyond it, as `(rank in percent,
/// value)`. `None` until that percentile lies above the median (21 samples):
/// below it the "tail" would be a body statistic.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n > 20).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// Samples of one quantity over a batch of inputs (a workload's descriptors
/// differ in cost, so their samples must not be pooled into one median).
#[derive(Debug, Clone)]
pub struct Batch {
    per_input: Vec<Vec<f64>>,
}

impl Batch {
    pub fn new(inputs: usize) -> Self {
        Batch {
            per_input: vec![Vec::new(); inputs],
        }
    }

    pub fn push(&mut self, input: usize, sample: f64) {
        self.per_input[input].push(sample);
    }

    pub fn of_input(&self, input: usize) -> &[f64] {
        &self.per_input[input]
    }

    /// Every sample, ascending — for the tail, which belongs to the whole
    /// distribution a user of the batch sees.
    pub fn pooled(&self) -> Vec<f64> {
        sorted(self.per_input.iter().flatten().copied().collect())
    }

    fn input_medians(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_input
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s.clone()))
    }

    /// The median over inputs of each input's median over repetitions: the
    /// cost of the typical input, robust against both a slow repetition and
    /// a costly input. 0 without samples.
    pub fn value(&self) -> f64 {
        let medians: Vec<f64> = self.input_medians().collect();
        if medians.is_empty() {
            0.0
        } else {
            median(medians)
        }
    }

    /// First and third quartile of the repetition-to-repetition scatter,
    /// scaled to [`Batch::value`]: each sample is divided by its own input's
    /// median, the ratios of inputs sampled at least twice are pooled, and
    /// their quartiles multiply the value. `(value, value)` when no input
    /// was sampled twice.
    pub fn quartiles(&self) -> (f64, f64) {
        let ratios: Vec<f64> = self
            .per_input
            .iter()
            .filter(|s| s.len() >= 2)
            .map(|s| (s, median(s.clone())))
            // a count that is 0 has no scatter to scale
            .filter(|(_, m)| *m != 0.0)
            .flat_map(|(s, m)| s.iter().map(move |v| v / m))
            .collect();
        let value = self.value();
        if ratios.is_empty() {
            return (value, value);
        }
        let ratios = sorted(ratios);
        (
            value * percentile(&ratios, 0.25),
            value * percentile(&ratios, 0.75),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // even count: the lower median, an observed sample
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![7.5]), 7.5);
        // fewer than 100 samples: p99 is the maximum
        assert_eq!(percentile(&[1.0, 2.0, 9.0], 0.99), 9.0);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond_it() {
        let s = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        assert_eq!(tail(&s(20)), None, "rank would sit at the median");
        assert_eq!(tail(&s(21)), Some((100.0 * 11.0 / 21.0, 11.0)));
        assert_eq!(tail(&s(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&s(1000)), Some((99.0, 990.0)));
        let (rank, value) = tail(&s(2000)).unwrap();
        assert_eq!((rank, value), (99.5, 1990.0));
        assert_eq!(s(2000).iter().filter(|v| **v > value).count(), 10);
    }

    #[test]
    fn batch_value_is_the_median_input_not_the_pooled_median() {
        let mut b = Batch::new(3);
        assert_eq!(b.value(), 0.0);
        for v in [10.0, 11.0, 12.0, 10.5, 11.5] {
            b.push(0, v);
        }
        b.push(1, 100.0);
        b.push(2, 50.0);
        b.push(2, 52.0);
        b.push(2, 51.0);
        // input medians 11, 100, 51: their median is 51, although five of
        // the nine pooled samples are near 11
        assert_eq!(b.value(), 51.0);
        assert_eq!(b.pooled().len(), 9);
        assert_eq!(b.pooled()[4], 12.0);
        // scatter: inputs 0 and 2 were sampled more than once
        let (q1, q3) = b.quartiles();
        assert!(q1 < 51.0 && q3 > 51.0, "{q1} {q3}");
        assert!((q3 - q1) / 51.0 < 0.1);
    }

    #[test]
    fn batch_quartiles_collapse_without_repeated_inputs_or_scale() {
        let mut b = Batch::new(2);
        b.push(0, 3.0);
        b.push(1, 5.0);
        assert_eq!(b.value(), 3.0);
        assert_eq!(b.quartiles(), (3.0, 3.0));
        let mut zeros = Batch::new(1);
        zeros.push(0, 0.0);
        zeros.push(0, 0.0);
        assert_eq!(zeros.quartiles(), (0.0, 0.0));
    }
}
