use rna_simnet::{SimDuration, SimRng};

/// Derives log-normal parameters `(mu, sigma)` of the *underlying normal*
/// such that the log-normal distribution has the given `mean` and `std_dev`.
///
/// Used to fit the UCF101 video-length distribution (mean 186 frames,
/// σ 97.7, Figure 2a) and the LSTM batch-time distribution (mean 1219 ms,
/// σ 760 ms, Figure 2b).
///
/// # Panics
///
/// Panics if `mean <= 0` or `std_dev < 0`.
///
/// # Examples
///
/// ```
/// let (mu, sigma) = rna_workload::lognormal_params_for(186.0, 97.7);
/// // mean of LN(mu, sigma) = exp(mu + sigma^2 / 2) == 186
/// assert!(((mu + sigma * sigma / 2.0).exp() - 186.0).abs() < 1e-6);
/// ```
pub fn lognormal_params_for(mean: f64, std_dev: f64) -> (f64, f64) {
    assert!(mean > 0.0, "log-normal mean must be positive");
    assert!(std_dev >= 0.0, "std dev must be non-negative");
    let cv2 = (std_dev / mean).powi(2);
    let sigma2 = (1.0 + cv2).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu, sigma2.sqrt())
}

/// The distribution of one iteration's computation time.
///
/// # Examples
///
/// ```
/// use rna_simnet::{SimDuration, SimRng};
/// use rna_workload::ComputeTimeModel;
///
/// let model = ComputeTimeModel::Uniform {
///     lo: SimDuration::from_millis(10),
///     hi: SimDuration::from_millis(20),
/// };
/// let mut rng = SimRng::seed(1);
/// let t = model.sample(&mut rng, None);
/// assert!(t >= SimDuration::from_millis(10) && t < SimDuration::from_millis(20));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeTimeModel {
    /// Every iteration takes exactly this long (balanced CNN workloads such
    /// as preprocessed ResNet50/VGG16, §8.1).
    Constant(SimDuration),
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: SimDuration,
        /// Upper bound (exclusive).
        hi: SimDuration,
    },
    /// Log-normal in milliseconds, clipped into `[min_ms, max_ms]` — the
    /// long-tail shape of dynamic neural networks (Figure 2b).
    LogNormalMs {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std dev of the underlying normal.
        sigma: f64,
        /// Clip floor in milliseconds.
        min_ms: f64,
        /// Clip ceiling in milliseconds.
        max_ms: f64,
    },
    /// `base + per_unit × units`, where `units` is supplied per batch
    /// (frames in a video batch, tokens in a sentence batch). Models the
    /// recurrent structure whose cost is proportional to input length
    /// (§2.3.1).
    PerUnit {
        /// Fixed per-iteration cost.
        base: SimDuration,
        /// Additional cost per input unit.
        per_unit: SimDuration,
    },
    /// Replay of recorded per-iteration durations, sampled uniformly with
    /// replacement — the trace-driven mode used to re-run measured
    /// workloads (see [`crate::trace`]).
    Empirical(Vec<SimDuration>),
}

impl ComputeTimeModel {
    /// Convenience constructor: a log-normal model with the given target
    /// mean/std in milliseconds, clipped to `[min_ms, max_ms]`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_ms <= 0`, `std_ms < 0`, or `max_ms < min_ms`.
    pub fn long_tail_ms(mean_ms: f64, std_ms: f64, min_ms: f64, max_ms: f64) -> Self {
        assert!(max_ms >= min_ms, "max must be >= min");
        let (mu, sigma) = lognormal_params_for(mean_ms, std_ms);
        ComputeTimeModel::LogNormalMs {
            mu,
            sigma,
            min_ms,
            max_ms,
        }
    }

    /// Samples one iteration's compute time.
    ///
    /// `units` is the input length for [`ComputeTimeModel::PerUnit`] and is
    /// ignored by the other variants; a `PerUnit` model with `units = None`
    /// returns just its base cost.
    pub fn sample(&self, rng: &mut SimRng, units: Option<u64>) -> SimDuration {
        match *self {
            ComputeTimeModel::Constant(d) => d,
            ComputeTimeModel::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    SimDuration::from_nanos(rng.uniform_u64(lo.as_nanos()..hi.as_nanos()))
                }
            }
            ComputeTimeModel::LogNormalMs {
                mu,
                sigma,
                min_ms,
                max_ms,
            } => {
                let ms = rng.log_normal(mu, sigma).clamp(min_ms, max_ms);
                SimDuration::from_millis_f64(ms)
            }
            ComputeTimeModel::PerUnit { base, per_unit } => base + per_unit * units.unwrap_or(0),
            ComputeTimeModel::Empirical(ref samples) => {
                assert!(!samples.is_empty(), "empty empirical trace");
                samples[rng.choose_one(samples.len())]
            }
        }
    }

    /// The model's expected value (exact for `Constant`/`Uniform`/`PerUnit`
    /// given `expected_units`; the unclipped analytic mean for the
    /// log-normal).
    pub fn mean(&self, expected_units: f64) -> SimDuration {
        match *self {
            ComputeTimeModel::Constant(d) => d,
            ComputeTimeModel::Uniform { lo, hi } => (lo + hi) / 2,
            ComputeTimeModel::LogNormalMs { mu, sigma, .. } => {
                SimDuration::from_millis_f64((mu + sigma * sigma / 2.0).exp())
            }
            ComputeTimeModel::PerUnit { base, per_unit } => base + per_unit * expected_units,
            ComputeTimeModel::Empirical(ref samples) => {
                if samples.is_empty() {
                    SimDuration::ZERO
                } else {
                    samples.iter().copied().sum::<SimDuration>() / samples.len() as u64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lognormal_fit_reproduces_moments() {
        let (mu, sigma) = lognormal_params_for(1219.0, 760.0);
        let mean = (mu + sigma * sigma / 2.0).exp();
        let var = ((sigma * sigma).exp() - 1.0) * (2.0 * mu + sigma * sigma).exp();
        assert!((mean - 1219.0).abs() < 1e-6);
        assert!((var.sqrt() - 760.0).abs() < 1e-6);
    }

    #[test]
    fn constant_is_constant() {
        let m = ComputeTimeModel::Constant(SimDuration::from_millis(5));
        let mut rng = SimRng::seed(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng, None), SimDuration::from_millis(5));
        }
        assert_eq!(m.mean(0.0), SimDuration::from_millis(5));
    }

    #[test]
    fn uniform_respects_bounds() {
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        let m = ComputeTimeModel::Uniform { lo, hi };
        let mut rng = SimRng::seed(1);
        for _ in 0..200 {
            let s = m.sample(&mut rng, None);
            assert!(s >= lo && s < hi);
        }
        assert_eq!(m.mean(0.0), SimDuration::from_millis(15));
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let lo = SimDuration::from_millis(10);
        let m = ComputeTimeModel::Uniform { lo, hi: lo };
        assert_eq!(m.sample(&mut SimRng::seed(0), None), lo);
    }

    #[test]
    fn long_tail_sample_statistics() {
        // Figure 2b: LSTM batches, mean 1219 ms, σ 760 ms, range [156, 8000].
        let m = ComputeTimeModel::long_tail_ms(1219.0, 760.0, 156.0, 8000.0);
        let mut rng = SimRng::seed(7);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| m.sample(&mut rng, None).as_millis_f64())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - 1219.0).abs() < 80.0,
            "sampled mean {mean} too far from 1219"
        );
        assert!(xs.iter().all(|&x| (156.0..=8000.0).contains(&x)));
        // Long tail: p95 well above the median.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        let p95 = sorted[(xs.len() as f64 * 0.95) as usize];
        assert!(p95 > 1.8 * median, "p95 {p95} vs median {median}");
    }

    #[test]
    fn per_unit_scales_with_units() {
        let m = ComputeTimeModel::PerUnit {
            base: SimDuration::from_millis(10),
            per_unit: SimDuration::from_millis(2),
        };
        let mut rng = SimRng::seed(0);
        assert_eq!(m.sample(&mut rng, Some(5)), SimDuration::from_millis(20));
        assert_eq!(m.sample(&mut rng, None), SimDuration::from_millis(10));
        assert_eq!(m.mean(5.0), SimDuration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn lognormal_fit_rejects_nonpositive_mean() {
        lognormal_params_for(0.0, 1.0);
    }

    proptest! {
        #[test]
        fn lognormal_fit_mean_always_matches(mean in 0.1f64..1e5, cv in 0.0f64..3.0) {
            let std = mean * cv;
            let (mu, sigma) = lognormal_params_for(mean, std);
            let recon = (mu + sigma * sigma / 2.0).exp();
            prop_assert!((recon - mean).abs() / mean < 1e-9);
        }

        #[test]
        fn samples_always_within_clip(seed: u64) {
            let m = ComputeTimeModel::long_tail_ms(100.0, 300.0, 20.0, 500.0);
            let mut rng = SimRng::seed(seed);
            let s = m.sample(&mut rng, None).as_millis_f64();
            prop_assert!((20.0..=500.0).contains(&s));
        }
    }
}
