//! Power-of-`d`-choices initiator sampling (§3.2, Figure 10).
//!
//! Two pieces live here:
//!
//! * [`ProbeRound`] — the bookkeeping for one probing attempt: which
//!   workers were probed, which reply wins, and when later replies are
//!   expired (the scheduling-conflict rule of §3.2). The one election of
//!   every world, [`crate::election::Election`], holds it.
//! * [`simulate_response_times`] — the closed-world microbenchmark behind
//!   Figure 10: `n` workers with uniformly skewed readiness, `d` probes per
//!   round, and a per-probe messaging overhead that makes oversampling
//!   counterproductive.

use rna_simnet::{SimDuration, SimRng};

/// Controller-side state for one probing round.
///
/// # Examples
///
/// ```
/// use rna_core::probe::ProbeRound;
/// use rna_simnet::SimRng;
///
/// let mut rng = SimRng::seed(1);
/// let round = ProbeRound::sample(7, 8, 2, &mut rng);
/// assert_eq!(round.round(), 7);
/// assert_eq!(round.probed().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRound {
    round: u64,
    probed: Vec<usize>,
    winner: Option<usize>,
}

impl ProbeRound {
    /// Samples `d` distinct workers out of `n` for round `round`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `d > n`.
    pub fn sample(round: u64, n: usize, d: usize, rng: &mut SimRng) -> Self {
        assert!(d > 0, "need at least one probe");
        assert!(d <= n, "cannot probe more workers than exist");
        ProbeRound {
            round,
            probed: rng.choose_distinct(n, d),
            winner: None,
        }
    }

    /// Builds a probe round from an explicit probe set: the ids
    /// [`crate::election::Election::draw`] admitted.
    ///
    /// # Panics
    ///
    /// Panics if `probed` is empty.
    pub fn from_probed(round: u64, probed: Vec<usize>) -> Self {
        assert!(!probed.is_empty(), "need at least one probe");
        ProbeRound {
            round,
            probed,
            winner: None,
        }
    }

    /// The round this probe set belongs to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The probed worker ids.
    pub fn probed(&self) -> &[usize] {
        &self.probed
    }

    /// The winning (initiator) worker, if a reply has been accepted.
    pub fn winner(&self) -> Option<usize> {
        self.winner
    }

    /// Offers a reply from `worker` for `round`. Returns `true` iff this
    /// reply is accepted (first matching reply from a probed worker); all
    /// later or mismatched replies are expired, implementing the two cases
    /// of §3.2.
    pub fn offer_reply(&mut self, worker: usize, round: u64) -> bool {
        if round != self.round || self.winner.is_some() || !self.probed.contains(&worker) {
            return false;
        }
        self.winner = Some(worker);
        true
    }
}

/// Figure 10 microbenchmark: per-iteration initiator response times.
///
/// Each of the `iterations` rounds: every one of `n` workers gets a task
/// whose completion skew is a shifted exponential clipped into
/// `[skew_lo, skew_hi)` — the queueing-system view of §3.1, where waiting
/// times are exponential-tailed rather than uniform (this is what makes
/// the second probe pay off so sharply: the minimum of `d` exponentials
/// has `1/d` of the mean). The controller probes `d` random workers; the
/// response time is the earliest probed completion plus messaging overhead
/// that grows with `d` (`per_probe_overhead × d` — issuing, tracking, and
/// expiring probes).
///
/// Returns the response time of every iteration in milliseconds.
///
/// # Panics
///
/// Panics if `d == 0`, `d > n`, or `skew_hi <= skew_lo`.
pub fn simulate_response_times(
    n: usize,
    d: usize,
    iterations: usize,
    skew_lo: SimDuration,
    skew_hi: SimDuration,
    per_probe_overhead: SimDuration,
    rng: &mut SimRng,
) -> Vec<f64> {
    assert!(d > 0 && d <= n, "invalid probe count");
    assert!(skew_hi > skew_lo, "empty skew range");
    let lo = skew_lo.as_millis_f64();
    let span = skew_hi.as_millis_f64() - lo;
    // Mean chosen so ~95% of the mass falls inside the configured range.
    let tail_mean = span / 3.0;
    (0..iterations)
        .map(|_| {
            let earliest = (0..d)
                .map(|_| lo + rng.exponential(tail_mean).min(span))
                .fold(f64::INFINITY, f64::min);
            earliest + (per_probe_overhead * d as u64).as_millis_f64()
        })
        .collect()
}

/// The expected-waiting-time bound quoted in §3.2: with `q` choices and
/// load `rho`, the waiting time is upper-bounded by
/// `Σ_{i≥1} rho^((q^i − q)/(q − 1))` (up to an additive constant). For
/// `q = 1` the geometric series `rho/(1−rho)` is returned.
///
/// # Panics
///
/// Panics if `rho` is not in `[0, 1)` or `q == 0`.
pub fn expected_wait_bound(rho: f64, q: u32) -> f64 {
    assert!((0.0..1.0).contains(&rho), "load must be in [0, 1)");
    assert!(q > 0, "need at least one choice");
    if rho == 0.0 {
        return 0.0;
    }
    if q == 1 {
        return rho / (1.0 - rho);
    }
    let qf = f64::from(q);
    let mut total = 0.0;
    for i in 1..60 {
        let exponent = (qf.powi(i) - qf) / (qf - 1.0);
        let term = rho.powf(exponent);
        total += term;
        if term < 1e-15 {
            break;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_tensor::stats::percentile;

    #[test]
    fn probes_are_distinct_and_in_range() {
        let mut rng = SimRng::seed(0);
        for _ in 0..50 {
            let r = ProbeRound::sample(0, 10, 3, &mut rng);
            let mut p = r.probed().to_vec();
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|&w| w < 10));
        }
    }

    #[test]
    fn first_reply_wins_second_expires() {
        let mut rng = SimRng::seed(1);
        let mut r = ProbeRound::sample(5, 4, 2, &mut rng);
        let (a, b) = (r.probed()[0], r.probed()[1]);
        assert!(r.offer_reply(a, 5));
        assert_eq!(r.winner(), Some(a));
        // The slower probed worker's reply is expired (case 1 of §3.2).
        assert!(!r.offer_reply(b, 5));
        assert_eq!(r.winner(), Some(a));
    }

    #[test]
    fn mismatched_round_or_unprobed_worker_is_rejected() {
        let mut rng = SimRng::seed(2);
        let mut r = ProbeRound::sample(3, 4, 2, &mut rng);
        let unprobed = (0..4).find(|w| !r.probed().contains(w)).unwrap();
        assert!(!r.offer_reply(unprobed, 3));
        let probed = r.probed()[0];
        assert!(!r.offer_reply(probed, 2)); // stale round id
        assert!(r.offer_reply(probed, 3));
    }

    #[test]
    #[should_panic(expected = "cannot probe")]
    fn sampling_more_probes_than_workers_panics() {
        ProbeRound::sample(0, 2, 3, &mut SimRng::seed(0));
    }

    #[test]
    fn two_choices_beat_one_choice() {
        // The headline of Figure 10.
        let mut rng = SimRng::seed(42);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(50);
        let overhead = SimDuration::from_micros(500);
        let one = simulate_response_times(100, 1, 500, lo, hi, overhead, &mut rng);
        let two = simulate_response_times(100, 2, 500, lo, hi, overhead, &mut rng);
        assert!(
            percentile(&two, 0.5) < percentile(&one, 0.5) * 0.85,
            "d=2 median {} vs d=1 median {}",
            percentile(&two, 0.5),
            percentile(&one, 0.5)
        );
        // Variance also shrinks (the paper's second observation).
        let spread = |xs: &[f64]| percentile(xs, 0.75) - percentile(xs, 0.25);
        assert!(spread(&two) < spread(&one));
    }

    #[test]
    fn oversampling_stops_helping() {
        // With per-probe overhead, large d loses to d=2 (§8.4).
        let mut rng = SimRng::seed(7);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(50);
        let overhead = SimDuration::from_millis(4);
        let median = |d: usize, rng: &mut SimRng| {
            let xs = simulate_response_times(100, d, 800, lo, hi, overhead, rng);
            percentile(&xs, 0.5)
        };
        let m2 = median(2, &mut rng);
        let m8 = median(8, &mut rng);
        assert!(m8 > m2, "d=8 median {m8} should exceed d=2 median {m2}");
    }

    #[test]
    fn wait_bound_decreases_in_q() {
        let rho = 0.9;
        let w1 = expected_wait_bound(rho, 1);
        let w2 = expected_wait_bound(rho, 2);
        let w3 = expected_wait_bound(rho, 3);
        assert!(w2 < w1);
        assert!(w3 < w2);
        // Exponential improvement: the gap 1→2 dwarfs 2→3 relatively.
        assert!(w1 / w2 > 2.0);
    }

    #[test]
    fn wait_bound_zero_load_is_zero() {
        assert_eq!(expected_wait_bound(0.0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "load")]
    fn wait_bound_rejects_full_load() {
        expected_wait_bound(1.0, 2);
    }
}
