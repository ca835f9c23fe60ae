//! SGD with momentum, weight decay, and learning-rate schedules.
//!
//! The schedule machinery includes the two paper-specific behaviours:
//! step decay at fixed epochs (ResNet50: ×0.1 at epochs 30/60/80, §7.2.1)
//! and the *dynamic* per-round scaling RNA applies — the Linear Scaling
//! Rule of §3.3, `γ_k = Σw_{k,i} · γ`, folded in via the `lr_scale`
//! argument of [`Sgd::step`].

use rna_tensor::Tensor;

/// A learning-rate schedule evaluated per iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// A constant rate.
    Constant(f32),
    /// `initial × factor^(number of passed milestones)` — the ResNet50
    /// recipe uses milestones at epochs 30/60/80 with factor 0.1.
    StepDecay {
        /// Starting learning rate.
        initial: f32,
        /// Multiplicative decay applied at each milestone.
        factor: f32,
        /// Iteration numbers at which decay fires (sorted ascending).
        milestones: Vec<u64>,
    },
}

impl LrSchedule {
    /// The learning rate at iteration `iter`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rna_training::LrSchedule;
    ///
    /// let s = LrSchedule::StepDecay {
    ///     initial: 0.1,
    ///     factor: 0.1,
    ///     milestones: vec![100, 200],
    /// };
    /// assert_eq!(s.lr_at(50), 0.1);
    /// assert!((s.lr_at(150) - 0.01).abs() < 1e-9);
    /// assert!((s.lr_at(250) - 0.001).abs() < 1e-9);
    /// ```
    pub fn lr_at(&self, iter: u64) -> f32 {
        match self {
            LrSchedule::Constant(lr) => *lr,
            LrSchedule::StepDecay {
                initial,
                factor,
                milestones,
            } => {
                let passed = milestones.iter().filter(|&&m| iter >= m).count() as i32;
                initial * factor.powi(passed)
            }
        }
    }
}

/// SGD with momentum and decoupled weight decay:
///
/// ```text
/// v ← μ v + g + λ x
/// x ← x − (lr_scale · γ) v
/// ```
///
/// One optimizer instance per worker; the momentum buffer lives here.
///
/// # Examples
///
/// ```
/// use rna_tensor::Tensor;
/// use rna_training::Sgd;
///
/// let mut opt = Sgd::new(0.1, 0.0, 0.0, 2);
/// let mut x = Tensor::from_vec(vec![1.0, 1.0]);
/// let g = Tensor::from_vec(vec![1.0, -1.0]);
/// opt.step(&mut x, &g, 1.0);
/// assert_eq!(x.as_slice(), &[0.9, 1.1]);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Tensor,
}

impl Sgd {
    /// Creates an optimizer for `num_params` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum` is outside `[0, 1)`, or
    /// `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, num_params: usize) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Tensor::zeros(num_params),
        }
    }

    /// The base learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the base learning rate (schedules call this per iteration).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update in place. `lr_scale` is RNA's dynamic Linear
    /// Scaling factor (`Σ w_{k,i}` — the number of live contributors this
    /// round); pass `1.0` for plain SGD.
    ///
    /// # Panics
    ///
    /// Panics if tensor lengths are inconsistent or `lr_scale` is negative.
    pub fn step(&mut self, params: &mut Tensor, grad: &Tensor, lr_scale: f32) {
        assert!(lr_scale >= 0.0, "lr scale must be non-negative");
        assert_eq!(params.len(), grad.len(), "params/grad length mismatch");
        assert_eq!(params.len(), self.velocity.len(), "optimizer size mismatch");
        let v = self.velocity.as_mut_slice();
        let p = params.as_mut_slice();
        let g = grad.as_slice();
        let eta = self.lr * lr_scale;
        for i in 0..p.len() {
            v[i] = self.momentum * v[i] + g[i] + self.weight_decay * p[i];
            p[i] -= eta * v[i];
        }
    }

    /// The momentum buffer (for checkpoints — the optimizer state that must
    /// survive a crash alongside the parameters).
    pub fn velocity(&self) -> &Tensor {
        &self.velocity
    }

    /// Overwrites the momentum buffer from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the optimizer's parameter count.
    pub fn set_velocity(&mut self, velocity: &Tensor) {
        assert_eq!(
            velocity.len(),
            self.velocity.len(),
            "optimizer size mismatch"
        );
        self.velocity.copy_from(velocity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_step_is_gradient_descent() {
        let mut opt = Sgd::new(0.5, 0.0, 0.0, 1);
        let mut x = Tensor::from_vec(vec![2.0]);
        opt.step(&mut x, &Tensor::from_vec(vec![1.0]), 1.0);
        assert_eq!(x.as_slice(), &[1.5]);
    }

    #[test]
    fn lr_scale_multiplies_step() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0, 1);
        let mut x = Tensor::from_vec(vec![1.0]);
        opt.step(&mut x, &Tensor::from_vec(vec![1.0]), 4.0);
        assert!((x[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn zero_scale_freezes_params_but_updates_velocity() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0, 1);
        let mut x = Tensor::from_vec(vec![1.0]);
        opt.step(&mut x, &Tensor::from_vec(vec![1.0]), 0.0);
        assert_eq!(x[0], 1.0);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(0.1, 0.5, 0.0, 1);
        let mut x = Tensor::from_vec(vec![0.0]);
        let g = Tensor::from_vec(vec![1.0]);
        opt.step(&mut x, &g, 1.0); // v=1,   x=-0.1
        opt.step(&mut x, &g, 1.0); // v=1.5, x=-0.25
        assert!((x[0] + 0.25).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::new(0.1, 0.0, 0.1, 1);
        let mut x = Tensor::from_vec(vec![1.0]);
        opt.step(&mut x, &Tensor::from_vec(vec![0.0]), 1.0);
        assert!((x[0] - 0.99).abs() < 1e-6);
    }

    #[test]
    fn minimizes_quadratic() {
        // f(x) = x², gradient 2x — momentum SGD should converge to 0.
        let mut opt = Sgd::new(0.1, 0.9, 0.0, 1);
        let mut x = Tensor::from_vec(vec![5.0]);
        for _ in 0..200 {
            let g = Tensor::from_vec(vec![2.0 * x[0]]);
            opt.step(&mut x, &g, 1.0);
        }
        assert!(x[0].abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn constant_schedule() {
        assert_eq!(LrSchedule::Constant(0.125).lr_at(0), 0.125);
        assert_eq!(LrSchedule::Constant(0.125).lr_at(1_000_000), 0.125);
    }

    #[test]
    fn step_decay_at_milestones() {
        let s = LrSchedule::StepDecay {
            initial: 1.0,
            factor: 0.5,
            milestones: vec![10, 20],
        };
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(19), 0.5);
        assert_eq!(s.lr_at(20), 0.25);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_lr() {
        Sgd::new(0.0, 0.0, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn rejects_bad_momentum() {
        Sgd::new(0.1, 1.0, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_grad() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0, 2);
        let mut x = Tensor::zeros(2);
        opt.step(&mut x, &Tensor::zeros(3), 1.0);
    }
}
