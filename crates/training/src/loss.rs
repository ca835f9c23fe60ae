//! Loss primitives shared by the models: numerically stable softmax
//! cross-entropy, mean-squared error, and the per-sample scoring every
//! evaluation runs on.
//!
//! Every `exp` here is [`exp_in_place`], the lane port of glibc's `expf`,
//! so a loss does not depend on which `expf` build the host's libm picks;
//! the one `ln` per sample is still the host's.

use rna_tensor::dense::{exp_in_place, LANES};

/// Numerically stable softmax of `logits` (log-sum-exp trick), written into
/// `probs`, which is as long as `logits`.
fn softmax_into(logits: &[f32], probs: &mut [f32]) {
    assert!(!logits.is_empty(), "softmax of empty logits");
    assert_eq!(probs.len(), logits.len(), "softmax output length");
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for (p, &l) in probs.iter_mut().zip(logits) {
        *p = l - max;
    }
    exp_in_place(probs);
    let sum: f32 = probs.iter().sum();
    for p in probs {
        *p /= sum;
    }
}

/// Numerically stable softmax of `logits` (log-sum-exp trick).
///
/// # Panics
///
/// Panics if `logits` is empty.
///
/// # Examples
///
/// ```
/// let p = rna_training::loss::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = vec![0.0; logits.len()];
    softmax_into(logits, &mut probs);
    probs
}

/// `-ln p` with `p` clamped away from zero for stability. A NaN probability
/// (a diverged replica) stays NaN instead of being clamped into a finite
/// loss.
fn neg_log(p: f32) -> f32 {
    -(if p < 1e-12 { 1e-12 } else { p }).ln()
}

/// Cross-entropy loss `-log p[label]` with probabilities clamped away from
/// zero for stability.
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn cross_entropy(probs: &[f32], label: usize) -> f32 {
    assert!(label < probs.len(), "label out of range");
    neg_log(probs[label])
}

/// Softmax cross-entropy and its gradient with respect to the logits:
/// returns `(loss, dL/dlogits)` where the gradient is `p - onehot(label)`.
/// The one-sample reference the models' tile pass
/// ([`rna_tensor::dense::softmax_xent`]) matches to the bit.
///
/// # Panics
///
/// Panics if `logits` is empty or `label` is out of range.
pub fn softmax_xent_grad(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    let mut dlogits = vec![0.0; logits.len()];
    softmax_into(logits, &mut dlogits);
    let loss = cross_entropy(&dlogits, label);
    dlogits[label] -= 1.0;
    (loss, dlogits)
}

/// Adds each sample's loss, the clamped `−ln p[label]`, to `total` in
/// sample order: the tile pass returns the `p[label]`s.
pub(crate) fn add_xent(total: &mut f32, p_label: &[f32]) {
    for &p in p_label {
        *total += neg_log(p);
    }
}

/// Running totals of one evaluation pass: summed loss and the samples
/// counted correct under the top-1 and top-`k` rules.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) loss: f32,
    pub(crate) top1: usize,
    pub(crate) top_k: usize,
}

impl Tally {
    /// Scores one sample from its logits alone — no probabilities stored, no
    /// sort, no allocation. The loss is [`softmax_xent_grad`]'s to the bit.
    ///
    /// Ranks are counts over the logits. Top-1: the label wins if no class
    /// scores higher and no *later* class ties it (`max_by` keeps the last
    /// maximum). Top-`k`: the label's position is the classes scoring higher
    /// plus the *earlier* classes tying it (a stable descending sort keeps
    /// index order among ties). A non-finite label score is wrong under
    /// both; its loss is NaN and nothing panics.
    pub(crate) fn score(&mut self, logits: &[f32], label: usize, k: usize) {
        let own = logits[label];
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // `exp(l − max)` up to a lane block of classes per call, summed in
        // class order from `-0.0` as `iter().sum()` adds.
        let (mut sum, mut own_exp) = (-0.0f32, 0.0f32);
        for (at, chunk) in (0..).step_by(LANES).zip(logits.chunks(LANES)) {
            let mut e = [0.0f32; LANES];
            let e = &mut e[..chunk.len()];
            for (e, &l) in e.iter_mut().zip(chunk) {
                *e = l - max;
            }
            exp_in_place(e);
            for &e in &*e {
                sum += e;
            }
            if let Some(&e) = label.checked_sub(at).and_then(|j| e.get(j)) {
                own_exp = e;
            }
        }
        self.loss += neg_log(own_exp / sum);
        if own.is_finite() {
            let ties = |side: &[f32]| side.iter().filter(|&&l| l == own).count();
            let above = logits.iter().filter(|&&l| l > own).count();
            self.top1 += usize::from(above + ties(&logits[label + 1..]) == 0);
            self.top_k += usize::from(above + ties(&logits[..label]) < k);
        }
    }
}

/// Squared error `0.5 (pred - target)²` and its gradient `pred - target`.
pub fn mse_grad(pred: f32, target: f32) -> (f32, f32) {
    let diff = pred - target;
    (0.5 * diff * diff, diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.5, 1.5, -2.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn cross_entropy_of_confident_correct_is_small() {
        assert!(cross_entropy(&[0.99, 0.01], 0) < 0.02);
        assert!(cross_entropy(&[0.01, 0.99], 0) > 4.0);
    }

    #[test]
    fn xent_grad_matches_finite_difference() {
        let logits = [0.3f32, -0.7, 1.1];
        let label = 2;
        let (_, grad) = softmax_xent_grad(&logits, label);
        let eps = 1e-3;
        for i in 0..3 {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let lp = cross_entropy(&softmax(&plus), label);
            let lm = cross_entropy(&softmax(&minus), label);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((grad[i] - fd).abs() < 1e-3, "dim {i}: {} vs {fd}", grad[i]);
        }
    }

    #[test]
    fn mse_grad_matches_finite_difference() {
        let (loss, grad) = mse_grad(2.0, 0.5);
        assert!((loss - 0.5 * 1.5 * 1.5).abs() < 1e-6);
        assert!((grad - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn softmax_empty_panics() {
        softmax(&[]);
    }

    proptest! {
        #[test]
        fn xent_grad_sums_to_zero(
            logits in proptest::collection::vec(-5.0f32..5.0, 2..8),
        ) {
            let (_, grad) = softmax_xent_grad(&logits, 0);
            let sum: f32 = grad.iter().sum();
            // p sums to 1, one-hot sums to 1 → gradient sums to 0.
            prop_assert!(sum.abs() < 1e-5);
        }

        #[test]
        fn xent_loss_nonnegative(
            logits in proptest::collection::vec(-5.0f32..5.0, 2..8),
        ) {
            let (loss, _) = softmax_xent_grad(&logits, logits.len() - 1);
            prop_assert!(loss >= 0.0);
        }
    }
}
