//! Element-wise reduction operators and multi-tensor averaging.
//!
//! The weighted-average helpers here implement Algorithm 2 of the paper: the
//! partial AllReduce sums the gradients of the workers that contributed
//! (weight `w = 1`) and rescales by `W = 1 / Σ w`, treating absent workers as
//! null contributions.
//!
//! Every multi-input reduction — [`ReduceOp::reduce_into`], the two
//! weighted averages here and `rna_collectives::partial_allreduce_pooled` —
//! runs one blocked fold, [`fold_into`]: instead of the naive
//! zero-the-accumulator → one `axpy` sweep per input → final `scale` sweep
//! (`N + 2` passes over memory for `N` inputs), each block of
//! [`FOLD_BLOCK`] output floats stays in L1 while every input is folded into
//! it, so each input is read once and each output element written back
//! once. The per-element arithmetic — accumulation order, the single
//! multiply by the precomputed `1 / Σ w` — is identical to the naive
//! sequence, so results are bit-for-bit the same.

use std::borrow::Borrow;

use crate::tensor::zip_apply;
use crate::Tensor;

/// An element-wise reduction operator applied across tensors.
///
/// # Examples
///
/// ```
/// use rna_tensor::{ReduceOp, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 5.0]);
/// let b = Tensor::from_vec(vec![3.0, 2.0]);
/// let max = ReduceOp::Max.reduce(&[&a, &b]).unwrap();
/// assert_eq!(max.as_slice(), &[3.0, 5.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceOp {
    /// Element-wise sum.
    #[default]
    Sum,
    /// Element-wise arithmetic mean.
    Mean,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Reduces `inputs` element-wise, or `None` when `inputs` is empty.
    ///
    /// Allocates the output; use [`ReduceOp::reduce_into`] on the hot path.
    ///
    /// # Panics
    ///
    /// Panics if the input tensors have differing lengths.
    pub fn reduce(&self, inputs: &[&Tensor]) -> Option<Tensor> {
        let first = inputs.first()?;
        let mut out = Tensor::zeros(first.len());
        self.reduce_into(&mut out, inputs);
        Some(out)
    }

    /// Fused reduction of `inputs` into `out` in one pass over memory.
    ///
    /// Returns `false` (leaving `out` untouched) when `inputs` is empty.
    /// Accepts both `&[&Tensor]` and `&[Tensor]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` or any input disagrees on length.
    pub fn reduce_into<T: Borrow<Tensor>>(&self, out: &mut Tensor, inputs: &[T]) -> bool {
        if inputs.is_empty() {
            return false;
        }
        for t in inputs {
            assert_eq!(
                out.len(),
                t.borrow().len(),
                "tensor length mismatch in reduce"
            );
        }
        let out = out.as_mut_slice();
        let first = Some(inputs[0].borrow().as_slice());
        let rest = inputs[1..].iter().map(|t| (t.borrow().as_slice(), ()));
        let inv = 1.0 / inputs.len() as f32;
        match self {
            ReduceOp::Sum => fold_into(out, first, rest, |a, x, ()| a + x, 1.0),
            ReduceOp::Mean => fold_into(out, first, rest, |a, x, ()| a + x, inv),
            ReduceOp::Max => fold_into(out, first, rest, |a, x, ()| a.max(x), 1.0),
            ReduceOp::Min => fold_into(out, first, rest, |a, x, ()| a.min(x), 1.0),
        }
        true
    }

    /// Combines a partial accumulator with one more input, for streaming
    /// reductions (ring reduce-scatter applies this per chunk per step).
    ///
    /// For [`ReduceOp::Mean`] this accumulates a *sum*; the caller divides at
    /// the end (matching how ring AllReduce defers the scale).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn accumulate(&self, acc: &mut Tensor, input: &Tensor) {
        self.accumulate_slice(acc.as_mut_slice(), input.as_slice());
    }

    /// Slice-level form of [`ReduceOp::accumulate`], usable on sub-ranges of
    /// a larger buffer (the ring collective reduces chunks in place this
    /// way). One implementation serves Sum/Mean/Max/Min.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn accumulate_slice(&self, acc: &mut [f32], input: &[f32]) {
        assert_eq!(
            acc.len(),
            input.len(),
            "tensor length mismatch in reduce accumulate"
        );
        match self {
            ReduceOp::Sum | ReduceOp::Mean => zip_apply(acc, input, |a, b| a + b),
            ReduceOp::Max => zip_apply(acc, input, f32::max),
            ReduceOp::Min => zip_apply(acc, input, f32::min),
        }
    }
}

/// Output floats per block of [`fold_into`]: 1 KiB, so one block of the
/// output and one of each of a handful of inputs fit in L1 together.
pub const FOLD_BLOCK: usize = 256;

/// The blocked fold every multi-input reduction runs.
///
/// Each block of `out` is seeded from `first` (`None` seeds it with `0.0`),
/// every `(input, weight)` of `rest` is folded into it in order as
/// `acc = step(acc, x, weight)`, and the block is then multiplied by `post`.
/// So element `i` is `step(..step(seed[i], x₁[i], w₁).., xₙ[i], wₙ) * post`,
/// exactly the expression a per-element loop computes; the callers choose
/// `step` (an unweighted input is added, never multiplied by `1.0`) and
/// skip zero weights by leaving them out of `rest`.
///
/// # Panics
///
/// Panics if `first` or an input of `rest` is shorter than `out`.
#[inline]
pub fn fold_into<'a, W: Copy>(
    out: &mut [f32],
    first: Option<&[f32]>,
    rest: impl Iterator<Item = (&'a [f32], W)> + Clone,
    step: impl Fn(f32, f32, W) -> f32,
    post: f32,
) {
    for (b, acc) in out.chunks_mut(FOLD_BLOCK).enumerate() {
        let at = b * FOLD_BLOCK..b * FOLD_BLOCK + acc.len();
        match first {
            Some(x) => acc.copy_from_slice(&x[at.clone()]),
            None => acc.fill(0.0),
        }
        // Two inputs per sweep halve the block's loads and stores; each
        // element still takes its inputs one at a time, in order.
        let mut rest = rest.clone();
        while let Some((x, w)) = rest.next() {
            let x = &x[at.clone()];
            match rest.next() {
                Some((y, v)) => {
                    for ((a, &x), &y) in acc.iter_mut().zip(x).zip(&y[at.clone()]) {
                        *a = step(step(*a, x, w), y, v);
                    }
                }
                None => {
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a = step(*a, x, w);
                    }
                }
            }
        }
        for a in acc {
            *a *= post;
        }
    }
}

/// Averages `inputs` with the given per-tensor `weights`:
/// `out = Σ wᵢ · gᵢ / Σ wᵢ`.
///
/// Returns `None` when the weight sum is zero (every contribution was null)
/// or when `inputs` is empty. Allocates the output; use
/// [`weighted_average_into`] on the hot path.
///
/// # Panics
///
/// Panics if `inputs` and `weights` have different lengths, if any weight is
/// negative or non-finite, or if the tensors have differing lengths.
///
/// # Examples
///
/// ```
/// use rna_tensor::{reduce::weighted_average, Tensor};
///
/// let g1 = Tensor::from_vec(vec![2.0]);
/// let g2 = Tensor::from_vec(vec![4.0]);
/// let avg = weighted_average(&[&g1, &g2], &[1.0, 1.0]).unwrap();
/// assert_eq!(avg.as_slice(), &[3.0]);
///
/// // A null contribution (weight 0) is excluded from the average.
/// let avg = weighted_average(&[&g1, &g2], &[1.0, 0.0]).unwrap();
/// assert_eq!(avg.as_slice(), &[2.0]);
/// ```
pub fn weighted_average(inputs: &[&Tensor], weights: &[f32]) -> Option<Tensor> {
    let mut out = Tensor::zeros(inputs.first().map_or(0, |t| t.len()));
    weighted_average_into(&mut out, inputs, weights).then_some(out)
}

/// Fused, single-pass form of [`weighted_average`] writing into `out`.
///
/// Returns `false` (leaving `out` untouched) when `inputs` is empty or the
/// weight sum is zero. Bit-identical to the naive zeros → `axpy` per input →
/// `scale(1/Σw)` sequence: elements accumulate in input order from 0.0,
/// zero-weight inputs are skipped, and the result is multiplied once by the
/// precomputed reciprocal.
///
/// # Panics
///
/// Same contract as [`weighted_average`], plus `out` must match the input
/// length.
pub fn weighted_average_into(out: &mut Tensor, inputs: &[&Tensor], weights: &[f32]) -> bool {
    assert_eq!(
        inputs.len(),
        weights.len(),
        "inputs and weights must pair up"
    );
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
    }
    let total: f32 = weights.iter().sum();
    if inputs.is_empty() || total == 0.0 {
        return false;
    }
    for t in inputs {
        assert_eq!(
            out.len(),
            t.len(),
            "tensor length mismatch in weighted average"
        );
    }
    let rest = inputs.iter().zip(weights).filter(|(_, &w)| w > 0.0);
    let rest = rest.map(|(t, &w)| (t.as_slice(), w));
    let inv = 1.0 / total;
    fold_into(out.as_mut_slice(), None, rest, |a, x, w| a + w * x, inv);
    true
}

/// Staleness-weighted local reduction of accumulated gradients
/// (paper §3.3): for gradients `g_t` obtained at iterations `t`, with `k` the
/// current iteration and `τ` the largest iteration gap among the accumulated
/// results,
///
/// ```text
/// g' = Σ [t − (k − τ) + 1] · g_t / Σ [t − (k − τ) + 1]
/// ```
///
/// i.e. the weight of an update grows linearly with how recent it is; the
/// oldest accumulated gradient gets weight 1.
///
/// Returns `None` when `grads` is empty. Allocates the output; use
/// [`staleness_weighted_average_into`] on the hot path.
///
/// # Panics
///
/// Panics if the tensor lengths differ. The weights themselves cannot
/// trigger a panic: by the definition of `τ`, the oldest entry sits exactly
/// at `base = k − τ`, so every weight `t − base + 1` is ≥ 1 — including for
/// "future" gradients with `t > k` (a faster peer's update), which simply
/// weigh more.
pub fn staleness_weighted_average(grads: &[(u64, &Tensor)], k: u64) -> Option<Tensor> {
    let mut out = Tensor::zeros(grads.first().map_or(0, |(_, g)| g.len()));
    staleness_weighted_average_into(&mut out, grads, k).then_some(out)
}

/// Fused, single-pass form of [`staleness_weighted_average`] writing into
/// `out`. Accepts both `&[(u64, &Tensor)]` and `&[(u64, Tensor)]`, so a
/// gradient cache can pass its entries without building a borrow vector.
///
/// Returns `false` (leaving `out` untouched) when `grads` is empty.
///
/// # Panics
///
/// Same contract as [`staleness_weighted_average`], plus `out` must match
/// the gradient length.
pub fn staleness_weighted_average_into<T: Borrow<Tensor>>(
    out: &mut Tensor,
    grads: &[(u64, T)],
    k: u64,
) -> bool {
    if grads.is_empty() {
        return false;
    }
    // Largest iteration gap τ among the accumulated results.
    let tau = grads
        .iter()
        .map(|(t, _)| k.saturating_sub(*t))
        .max()
        .unwrap();
    let base = k - tau; // oldest iteration present or older
    let mut total = 0.0_f32;
    for (t, g) in grads {
        assert_eq!(
            out.len(),
            g.borrow().len(),
            "tensor length mismatch in staleness average"
        );
        total += (t - base + 1) as f32;
    }
    let rest = grads
        .iter()
        .map(|(t, g)| (g.borrow().as_slice(), (t - base + 1) as f32));
    let inv = 1.0 / total;
    fold_into(out.as_mut_slice(), None, rest, |a, x, w| a + w * x, inv);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_and_mean() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0]);
        assert_eq!(
            ReduceOp::Sum.reduce(&[&a, &b]).unwrap().as_slice(),
            &[4.0, 6.0]
        );
        assert_eq!(
            ReduceOp::Mean.reduce(&[&a, &b]).unwrap().as_slice(),
            &[2.0, 3.0]
        );
    }

    #[test]
    fn max_min() {
        let a = Tensor::from_vec(vec![1.0, 5.0]);
        let b = Tensor::from_vec(vec![3.0, 2.0]);
        assert_eq!(
            ReduceOp::Max.reduce(&[&a, &b]).unwrap().as_slice(),
            &[3.0, 5.0]
        );
        assert_eq!(
            ReduceOp::Min.reduce(&[&a, &b]).unwrap().as_slice(),
            &[1.0, 2.0]
        );
    }

    #[test]
    fn reduce_empty_is_none() {
        assert!(ReduceOp::Sum.reduce(&[]).is_none());
    }

    #[test]
    fn reduce_single_is_identity() {
        let a = Tensor::from_vec(vec![1.5]);
        assert_eq!(ReduceOp::Mean.reduce(&[&a]).unwrap(), a);
    }

    #[test]
    fn reduce_into_accepts_owned_inputs() {
        let inputs = vec![
            Tensor::from_vec(vec![1.0, 2.0]),
            Tensor::from_vec(vec![3.0, 4.0]),
        ];
        let mut out = Tensor::zeros(2);
        assert!(ReduceOp::Sum.reduce_into(&mut out, &inputs));
        assert_eq!(out.as_slice(), &[4.0, 6.0]);
        assert!(!ReduceOp::Sum.reduce_into(&mut out, &Vec::<Tensor>::new()));
    }

    #[test]
    fn accumulate_streaming_matches_batch() {
        let inputs: Vec<Tensor> = (0..4)
            .map(|i| Tensor::from_vec(vec![i as f32, (i * i) as f32]))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            let batch = op.reduce(&refs).unwrap();
            let mut acc = inputs[0].clone();
            for t in &inputs[1..] {
                op.accumulate(&mut acc, t);
            }
            assert_eq!(acc, batch, "op {op:?}");
        }
    }

    #[test]
    fn weighted_average_excludes_nulls() {
        let g1 = Tensor::from_vec(vec![2.0]);
        let g2 = Tensor::from_vec(vec![6.0]);
        let out = weighted_average(&[&g1, &g2], &[1.0, 0.0]).unwrap();
        assert_eq!(out.as_slice(), &[2.0]);
    }

    #[test]
    fn weighted_average_all_null_is_none() {
        let g1 = Tensor::from_vec(vec![2.0]);
        assert!(weighted_average(&[&g1], &[0.0]).is_none());
        assert!(weighted_average(&[], &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn weighted_average_rejects_negative_weights() {
        let g = Tensor::from_vec(vec![1.0]);
        weighted_average(&[&g], &[-1.0]);
    }

    #[test]
    fn staleness_weights_are_linear_in_recency() {
        // k = 10; gradients from iterations 9 and 10 → τ = 1, base = 9,
        // weights 1 and 2.
        let old = Tensor::from_vec(vec![3.0]);
        let new = Tensor::from_vec(vec![9.0]);
        let out = staleness_weighted_average(&[(9, &old), (10, &new)], 10).unwrap();
        // (1*3 + 2*9) / 3 = 7
        assert_eq!(out.as_slice(), &[7.0]);
    }

    #[test]
    fn staleness_single_gradient_passthrough() {
        let g = Tensor::from_vec(vec![5.0]);
        let out = staleness_weighted_average(&[(3, &g)], 7).unwrap();
        assert_eq!(out.as_slice(), &[5.0]);
    }

    #[test]
    fn staleness_empty_is_none() {
        assert!(staleness_weighted_average(&[], 4).is_none());
    }

    #[test]
    fn staleness_future_gradients_weight_more() {
        // Slow worker at k=5 has a "future" gradient from iteration 6
        // (produced by a faster peer). Recency weighting still applies.
        let old = Tensor::from_vec(vec![0.0]);
        let fut = Tensor::from_vec(vec![4.0]);
        let out = staleness_weighted_average(&[(5, &old), (6, &fut)], 5).unwrap();
        // τ = 0, base = 5, weights 1 and 2 → (0 + 8)/3
        assert!((out.as_slice()[0] - 8.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn staleness_into_accepts_owned_entries() {
        let entries: Vec<(u64, Tensor)> = vec![
            (9, Tensor::from_vec(vec![3.0])),
            (10, Tensor::from_vec(vec![9.0])),
        ];
        let mut out = Tensor::zeros(1);
        assert!(staleness_weighted_average_into(&mut out, &entries, 10));
        assert_eq!(out.as_slice(), &[7.0]);
    }

    proptest! {
        #[test]
        fn weighted_average_equals_mean_when_uniform(
            vals in proptest::collection::vec(-10.0f32..10.0, 1..6),
        ) {
            let tensors: Vec<Tensor> =
                vals.iter().map(|&v| Tensor::from_vec(vec![v])).collect();
            let refs: Vec<&Tensor> = tensors.iter().collect();
            let weights = vec![1.0; refs.len()];
            let wavg = weighted_average(&refs, &weights).unwrap();
            let mean = ReduceOp::Mean.reduce(&refs).unwrap();
            prop_assert!(wavg.approx_eq(&mean, 1e-5));
        }

        #[test]
        fn staleness_average_stays_in_convex_hull(
            vals in proptest::collection::vec(-10.0f32..10.0, 1..6),
            k in 10u64..20,
        ) {
            let tensors: Vec<Tensor> =
                vals.iter().map(|&v| Tensor::from_vec(vec![v])).collect();
            let grads: Vec<(u64, &Tensor)> = tensors
                .iter()
                .enumerate()
                .map(|(i, t)| (k - (i as u64 % 5), t))
                .collect();
            let out = staleness_weighted_average(&grads, k).unwrap();
            let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out.as_slice()[0] >= lo - 1e-4);
            prop_assert!(out.as_slice()[0] <= hi + 1e-4);
        }
    }
}
