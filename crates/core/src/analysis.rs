//! The §5 convergence analysis, as executable formulas.
//!
//! The paper bounds RNA's convergence under three standard assumptions
//! (unbiased gradients, bounded variance σ², L-Lipschitz gradients) plus
//! bounded delay `max τ_ij ≤ η`. This module implements the quantities of
//! Theorems 5.1 and 5.2 so experiments can check their configurations
//! against the theory:
//!
//! * [`constant_step_length`] — the constant γ of Eq. (4),
//! * [`step_condition_holds`] — the step-length condition of Eq. (1),
//! * [`convergence_rate_bound`] — the `4·√((f(x₁)−f*)·L·σ²/(B·K))` rate of
//!   Eq. (9),
//! * [`min_iterations_for_delay`] — the `K ≥ 4BL(f₁−f*)/σ² · (η+1)²`
//!   threshold of Eq. (3) beyond which the rate is independent of the
//!   staleness bound η.

/// Problem constants for the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemConstants {
    /// Initial suboptimality `f(x₁) − f(x*)`.
    pub initial_gap: f64,
    /// Lipschitz constant of the gradient.
    pub lipschitz: f64,
    /// Gradient-variance bound σ².
    pub sigma_sq: f64,
    /// Mini-batch/aggregation factor 𝔹 (the number of gradients averaged
    /// per update).
    pub batch_factor: f64,
}

impl ProblemConstants {
    /// Creates the constant set.
    ///
    /// # Panics
    ///
    /// Panics if any constant is non-positive or non-finite.
    pub fn new(initial_gap: f64, lipschitz: f64, sigma_sq: f64, batch_factor: f64) -> Self {
        for (name, v) in [
            ("initial gap", initial_gap),
            ("Lipschitz constant", lipschitz),
            ("variance bound", sigma_sq),
            ("batch factor", batch_factor),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive");
        }
        ProblemConstants {
            initial_gap,
            lipschitz,
            sigma_sq,
            batch_factor,
        }
    }
}

/// The constant step length of Eq. (4):
/// `γ = sqrt((f(x₁) − f*) / (B·L·K·σ²))`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn constant_step_length(c: &ProblemConstants, k: u64) -> f64 {
    assert!(k > 0, "need at least one iteration");
    (c.initial_gap / (c.batch_factor * c.lipschitz * k as f64 * c.sigma_sq)).sqrt()
}

/// Checks the Theorem 5.1 step condition (Eq. 1) for a *constant* step γ
/// and delay bound η:
/// `γ²(L/2 + L²·B·η²·γ) − γ/(2B) ≤ 0`.
pub fn step_condition_holds(c: &ProblemConstants, gamma: f64, eta: u64) -> bool {
    let l = c.lipschitz;
    let b = c.batch_factor;
    let eta = eta as f64;
    gamma * gamma * (l / 2.0 + l * l * b * eta * eta * gamma) - gamma / (2.0 * b) <= 0.0
}

/// The asymptotic convergence rate of Eq. (9):
/// `(1/K) Σ E‖∇f(x_k)‖² ≤ 4·sqrt((f(x₁) − f*)·L·σ² / (B·K))`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn convergence_rate_bound(c: &ProblemConstants, k: u64) -> f64 {
    assert!(k > 0, "need at least one iteration");
    4.0 * (c.initial_gap * c.lipschitz * c.sigma_sq / (c.batch_factor * k as f64)).sqrt()
}

/// The minimum iteration count of Eq. (3) above which the delay bound η no
/// longer affects the rate:
/// `K ≥ 4·B·L·(f(x₁) − f*)/σ² · (η + 1)²`.
pub fn min_iterations_for_delay(c: &ProblemConstants, eta: u64) -> u64 {
    let eta1 = (eta + 1) as f64;
    (4.0 * c.batch_factor * c.lipschitz * c.initial_gap / c.sigma_sq * eta1 * eta1).ceil() as u64
}

/// The largest delay bound η tolerated by a budget of `k` iterations
/// (inverse of [`min_iterations_for_delay`]); `None` when even η = 0 does
/// not fit.
pub fn max_tolerable_delay(c: &ProblemConstants, k: u64) -> Option<u64> {
    let base = 4.0 * c.batch_factor * c.lipschitz * c.initial_gap / c.sigma_sq;
    let eta1 = (k as f64 / base).sqrt();
    if eta1 < 1.0 {
        None
    } else {
        Some((eta1 - 1.0).floor() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts() -> ProblemConstants {
        ProblemConstants::new(2.0, 1.0, 0.5, 8.0)
    }

    #[test]
    fn rate_decays_as_inverse_sqrt_k() {
        let c = consts();
        let r1 = convergence_rate_bound(&c, 100);
        let r4 = convergence_rate_bound(&c, 400);
        assert!((r1 / r4 - 2.0).abs() < 1e-9, "{} vs {}", r1, r4);
    }

    #[test]
    fn rate_improves_with_batch_factor() {
        // The O(1/√(BK)) form: doubling 𝔹 at fixed K improves the bound —
        // the linear-speedup property decentralized SGD inherits.
        let a = ProblemConstants::new(2.0, 1.0, 0.5, 4.0);
        let b = ProblemConstants::new(2.0, 1.0, 0.5, 16.0);
        assert!(convergence_rate_bound(&b, 100) < convergence_rate_bound(&a, 100));
    }

    #[test]
    fn constant_step_shrinks_with_k() {
        let c = consts();
        assert!(constant_step_length(&c, 10_000) < constant_step_length(&c, 100));
    }

    #[test]
    fn prescribed_step_satisfies_condition_when_k_large_enough() {
        let c = consts();
        for eta in [0u64, 1, 2, 4, 8] {
            let k = min_iterations_for_delay(&c, eta);
            let gamma = constant_step_length(&c, k);
            assert!(
                step_condition_holds(&c, gamma, eta),
                "eta {eta}, k {k}, gamma {gamma}"
            );
        }
    }

    #[test]
    fn condition_fails_for_oversized_steps() {
        let c = consts();
        assert!(!step_condition_holds(&c, 10.0, 4));
    }

    #[test]
    fn min_iterations_grows_quadratically_in_delay() {
        let c = consts();
        let k0 = min_iterations_for_delay(&c, 0) as f64;
        let k3 = min_iterations_for_delay(&c, 3) as f64;
        // (3+1)²/(0+1)² = 16.
        assert!((k3 / k0 - 16.0).abs() < 0.1, "{k0} vs {k3}");
    }

    #[test]
    fn max_delay_inverts_min_iterations() {
        let c = consts();
        for eta in [0u64, 1, 3, 7] {
            let k = min_iterations_for_delay(&c, eta);
            let back = max_tolerable_delay(&c, k).unwrap();
            assert!(back >= eta, "eta {eta} → k {k} → {back}");
        }
        assert_eq!(max_tolerable_delay(&c, 1), None);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_constants() {
        ProblemConstants::new(0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        convergence_rate_bound(&consts(), 0);
    }
}
