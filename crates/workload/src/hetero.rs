use rna_simnet::{SimDuration, SimRng};

/// The per-iteration delay injected on one worker.
///
/// Composable via [`DelayModel::Compound`]; sampled once per iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DelayModel {
    /// No injected delay.
    #[default]
    None,
    /// A fixed delay every iteration (deterministic hardware slowdown).
    Fixed(SimDuration),
    /// Uniform random delay in `[lo, hi)` — the paper's dynamic
    /// heterogeneity (e.g. 0–50 ms, §8.1).
    Uniform {
        /// Lower bound (inclusive).
        lo: SimDuration,
        /// Upper bound (exclusive).
        hi: SimDuration,
    },
    /// With probability `p`, a burst of `delay` — transient multi-tenant
    /// interference (§2.3.1).
    Burst {
        /// Probability of a burst this iteration.
        p: f64,
        /// Delay added when the burst fires.
        delay: SimDuration,
    },
    /// The sum of several delay models.
    Compound(Vec<DelayModel>),
}

impl DelayModel {
    /// Uniform delay in `[lo_ms, hi_ms)` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `hi_ms < lo_ms` or either is negative.
    pub fn uniform_ms(lo_ms: u64, hi_ms: u64) -> Self {
        assert!(hi_ms >= lo_ms, "delay upper bound below lower bound");
        DelayModel::Uniform {
            lo: SimDuration::from_millis(lo_ms),
            hi: SimDuration::from_millis(hi_ms),
        }
    }

    /// Samples this iteration's delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            DelayModel::None => SimDuration::ZERO,
            DelayModel::Fixed(d) => *d,
            DelayModel::Uniform { lo, hi } => {
                if hi <= lo {
                    *lo
                } else {
                    SimDuration::from_nanos(rng.uniform_u64(lo.as_nanos()..hi.as_nanos()))
                }
            }
            DelayModel::Burst { p, delay } => {
                if rng.bernoulli(*p) {
                    *delay
                } else {
                    SimDuration::ZERO
                }
            }
            DelayModel::Compound(models) => models.iter().map(|m| m.sample(rng)).sum(),
        }
    }

    /// Expected delay per iteration.
    pub fn mean(&self) -> SimDuration {
        match self {
            DelayModel::None => SimDuration::ZERO,
            DelayModel::Fixed(d) => *d,
            DelayModel::Uniform { lo, hi } => (*lo + *hi) / 2,
            DelayModel::Burst { p, delay } => *delay * *p,
            DelayModel::Compound(models) => models.iter().map(|m| m.mean()).sum(),
        }
    }
}

/// The cluster-wide heterogeneity model: one [`DelayModel`] per worker plus
/// a compute-speed scale factor per worker (deterministic hardware tiers).
///
/// # Examples
///
/// ```
/// use rna_workload::HeterogeneityModel;
///
/// // The paper's §8.1 setup: every worker gets 0–50 ms of random delay.
/// let dynamic = HeterogeneityModel::dynamic_uniform(8, 0, 50);
/// assert_eq!(dynamic.num_workers(), 8);
///
/// // Mixed heterogeneity ("M"): the second half gets an extra 50–100 ms.
/// let mixed = HeterogeneityModel::mixed_groups(8, 0, 50, 50, 100);
/// assert!(mixed.delay_model(7).mean() > mixed.delay_model(0).mean());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityModel {
    delays: Vec<DelayModel>,
    /// Compute-time multiplier per worker (1.0 = nominal; 2.0 = half speed).
    speed_factors: Vec<f64>,
}

impl HeterogeneityModel {
    /// A homogeneous cluster of `n` workers: no delays, nominal speed.
    pub fn homogeneous(n: usize) -> Self {
        HeterogeneityModel {
            delays: vec![DelayModel::None; n],
            speed_factors: vec![1.0; n],
        }
    }

    /// Every worker receives uniform random delay in `[lo_ms, hi_ms)` each
    /// iteration (the paper's dynamic system heterogeneity).
    ///
    /// # Panics
    ///
    /// Panics if `hi_ms < lo_ms`.
    pub fn dynamic_uniform(n: usize, lo_ms: u64, hi_ms: u64) -> Self {
        HeterogeneityModel {
            delays: vec![DelayModel::uniform_ms(lo_ms, hi_ms); n],
            speed_factors: vec![1.0; n],
        }
    }

    /// Mixed heterogeneity (§8.1, the "M" configurations): workers are split
    /// into groups A (first half) and B (second half); group A gets
    /// `[a_lo, a_hi)` ms of random delay, group B gets an *additional*
    /// `[b_lo, b_hi)` ms on top.
    ///
    /// # Panics
    ///
    /// Panics if any upper bound is below its lower bound.
    pub fn mixed_groups(n: usize, a_lo: u64, a_hi: u64, b_lo: u64, b_hi: u64) -> Self {
        let half = n / 2;
        let delays = (0..n)
            .map(|i| {
                if i < half {
                    DelayModel::uniform_ms(a_lo, a_hi)
                } else {
                    DelayModel::Compound(vec![
                        DelayModel::uniform_ms(a_lo, a_hi),
                        DelayModel::uniform_ms(b_lo, b_hi),
                    ])
                }
            })
            .collect();
        HeterogeneityModel {
            delays,
            speed_factors: vec![1.0; n],
        }
    }

    /// Fixed per-worker delays (the motivation cluster of §2.3.1 injects
    /// 0 / 10 / 40 ms on its three nodes).
    pub fn deterministic(delays_ms: &[u64]) -> Self {
        HeterogeneityModel {
            delays: delays_ms
                .iter()
                .map(|&ms| {
                    if ms == 0 {
                        DelayModel::None
                    } else {
                        DelayModel::Fixed(SimDuration::from_millis(ms))
                    }
                })
                .collect(),
            speed_factors: vec![1.0; delays_ms.len()],
        }
    }

    /// Builds a model from an explicit per-worker delay list.
    pub fn from_delays(delays: Vec<DelayModel>) -> Self {
        let n = delays.len();
        HeterogeneityModel {
            delays,
            speed_factors: vec![1.0; n],
        }
    }

    /// Sets per-worker compute-speed factors (e.g. from
    /// [`crate::cluster::ClusterSpec`]).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the worker count or any factor is
    /// not positive.
    pub fn with_speed_factors(mut self, factors: Vec<f64>) -> Self {
        assert_eq!(
            factors.len(),
            self.delays.len(),
            "one speed factor per worker"
        );
        assert!(
            factors.iter().all(|&f| f.is_finite() && f > 0.0),
            "speed factors must be positive"
        );
        self.speed_factors = factors;
        self
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.delays.len()
    }

    /// The delay model for `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn delay_model(&self, worker: usize) -> &DelayModel {
        &self.delays[worker]
    }

    /// Applies heterogeneity to a nominal compute time: scales by the
    /// worker's speed factor and adds this iteration's sampled delay.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn apply(&self, worker: usize, nominal: SimDuration, rng: &mut SimRng) -> SimDuration {
        let scaled = nominal * self.speed_factors[worker];
        scaled + self.delays[worker].sample(rng)
    }

    /// Expected per-iteration time for `worker` given a nominal compute
    /// time — used by the hierarchical grouping condition (ζ > v, §4).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn expected(&self, worker: usize, nominal: SimDuration) -> SimDuration {
        nominal * self.speed_factors[worker] + self.delays[worker].mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_and_fixed() {
        let mut rng = SimRng::seed(0);
        assert_eq!(DelayModel::None.sample(&mut rng), SimDuration::ZERO);
        let f = DelayModel::Fixed(SimDuration::from_millis(10));
        assert_eq!(f.sample(&mut rng), SimDuration::from_millis(10));
        assert_eq!(f.mean(), SimDuration::from_millis(10));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let m = DelayModel::uniform_ms(10, 50);
        let mut rng = SimRng::seed(1);
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(10) && d < SimDuration::from_millis(50));
        }
        assert_eq!(m.mean(), SimDuration::from_millis(30));
    }

    #[test]
    fn burst_fires_with_probability() {
        let m = DelayModel::Burst {
            p: 0.25,
            delay: SimDuration::from_millis(100),
        };
        let mut rng = SimRng::seed(2);
        let fired = (0..4000).filter(|_| !m.sample(&mut rng).is_zero()).count();
        let rate = fired as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "burst rate {rate}");
        assert_eq!(m.mean(), SimDuration::from_millis(25));
    }

    #[test]
    fn compound_sums() {
        let m = DelayModel::Compound(vec![
            DelayModel::Fixed(SimDuration::from_millis(5)),
            DelayModel::Fixed(SimDuration::from_millis(7)),
        ]);
        let mut rng = SimRng::seed(0);
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(12));
        assert_eq!(m.mean(), SimDuration::from_millis(12));
    }

    #[test]
    fn homogeneous_has_no_delay() {
        let h = HeterogeneityModel::homogeneous(4);
        let mut rng = SimRng::seed(0);
        let nominal = SimDuration::from_millis(100);
        assert_eq!(h.apply(2, nominal, &mut rng), nominal);
        assert_eq!(h.expected(2, nominal), nominal);
    }

    #[test]
    fn mixed_groups_second_half_is_slower() {
        let h = HeterogeneityModel::mixed_groups(8, 0, 50, 50, 100);
        // Expected delay: A = 25ms, B = 25 + 75 = 100ms.
        let nominal = SimDuration::ZERO;
        assert_eq!(h.expected(0, nominal), SimDuration::from_millis(25));
        assert_eq!(h.expected(4, nominal), SimDuration::from_millis(100));
    }

    #[test]
    fn deterministic_matches_motivation_cluster() {
        let h = HeterogeneityModel::deterministic(&[0, 10, 40]);
        let mut rng = SimRng::seed(0);
        let nominal = SimDuration::from_millis(50);
        assert_eq!(h.apply(0, nominal, &mut rng), SimDuration::from_millis(50));
        assert_eq!(h.apply(1, nominal, &mut rng), SimDuration::from_millis(60));
        assert_eq!(h.apply(2, nominal, &mut rng), SimDuration::from_millis(90));
    }

    #[test]
    fn speed_factors_scale_compute() {
        let h = HeterogeneityModel::homogeneous(2).with_speed_factors(vec![1.0, 2.0]);
        let mut rng = SimRng::seed(0);
        let nominal = SimDuration::from_millis(100);
        assert_eq!(h.apply(1, nominal, &mut rng), SimDuration::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_speed_factor() {
        HeterogeneityModel::homogeneous(1).with_speed_factors(vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "per worker")]
    fn rejects_wrong_factor_count() {
        HeterogeneityModel::homogeneous(2).with_speed_factors(vec![1.0]);
    }
}
