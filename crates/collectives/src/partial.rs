//! Partial AllReduce with null contributions (§3.3, Algorithm 2).
//!
//! When the initiator forces the collective, workers whose gradients are not
//! ready contribute a *null* tensor. The result is the weighted average over
//! the contributors only: `ḡ = W · Σ g_{k,i}` with `W = 1 / Σ w_{k,i}` where
//! `w_{k,i} ∈ {0, 1}` flags availability. The communication graph is
//! unchanged — nulls still travel the ring — which is what lets RNA keep
//! ring AllReduce's O(M) cost.
//!
//! The hot path is [`partial_allreduce_pooled`]: it draws the output from a
//! [`TensorPool`], never materializes null tensors, and accumulates every
//! contributor in the one blocked fold of `rna_tensor`
//! ([`fold_into`]) — bit-identical to the naive weighted-average sequence
//! (nulls carried weight 0 and were skipped, and `1.0 · x` is an identity),
//! but with one memory pass instead of `N + 2` and zero steady-state
//! allocations.

use rna_tensor::reduce::fold_into;
use rna_tensor::{Tensor, TensorPool};

/// The result of a partial AllReduce round.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialOutcome {
    /// The averaged gradient over the contributors.
    pub reduced: Tensor,
    /// Number of workers that contributed (`Σ w_{k,i}`), the Linear-Scaling
    /// factor applied to the learning rate.
    pub num_contributors: usize,
    /// Per-worker contribution flags, aligned with the input slice.
    pub contributed: Vec<bool>,
}

impl PartialOutcome {
    /// Fraction of workers that contributed.
    pub fn participation(&self) -> f64 {
        if self.contributed.is_empty() {
            0.0
        } else {
            self.num_contributors as f64 / self.contributed.len() as f64
        }
    }
}

/// Averages the available gradients; `None` entries are null contributions.
///
/// Returns `None` when *no* worker has a gradient (the initiator must have
/// one by construction, so protocol engines treat this as a skipped round).
///
/// Allocates the output tensor; protocol engines use
/// [`partial_allreduce_pooled`] to recycle round buffers instead.
///
/// # Panics
///
/// Panics if the available tensors have differing lengths.
///
/// # Examples
///
/// ```
/// use rna_collectives::partial_allreduce;
/// use rna_tensor::Tensor;
///
/// let g0 = Tensor::from_vec(vec![2.0]);
/// let g2 = Tensor::from_vec(vec![4.0]);
/// let out = partial_allreduce(&[Some(&g0), None, Some(&g2)]).unwrap();
/// assert_eq!(out.reduced.as_slice(), &[3.0]);
/// assert_eq!(out.num_contributors, 2);
/// assert_eq!(out.contributed, vec![true, false, true]);
/// ```
pub fn partial_allreduce(contributions: &[Option<&Tensor>]) -> Option<PartialOutcome> {
    // A cap-0 pool never retains buffers: this is exactly "allocate fresh".
    let mut pool = TensorPool::with_cap_per_len(0);
    partial_allreduce_pooled(contributions, &mut pool)
}

/// [`partial_allreduce`] drawing the output from `pool` and reducing in one
/// fused pass.
///
/// The caller owns the returned `PartialOutcome.reduced` and is expected to
/// release it back to the pool once applied; at that point a steady-state
/// round performs no tensor allocation at all.
///
/// # Panics
///
/// Panics if the available tensors have differing lengths.
pub fn partial_allreduce_pooled(
    contributions: &[Option<&Tensor>],
    pool: &mut TensorPool,
) -> Option<PartialOutcome> {
    let contributed: Vec<bool> = contributions.iter().map(Option::is_some).collect();
    let num_contributors = contributed.iter().filter(|&&c| c).count();
    if num_contributors == 0 {
        return None;
    }
    let dim = contributions.iter().flatten().next().unwrap().len();
    for t in contributions.iter().flatten() {
        assert_eq!(t.len(), dim, "tensor length mismatch in partial allreduce");
    }
    let mut reduced = pool.acquire(dim);
    let rest = contributions.iter().flatten().map(|t| (t.as_slice(), ()));
    let inv = 1.0 / num_contributors as f32;
    fold_into(reduced.as_mut_slice(), None, rest, |a, x, ()| a + x, inv);
    Some(PartialOutcome {
        reduced,
        num_contributors,
        contributed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_present_equals_mean() {
        let g0 = Tensor::from_vec(vec![1.0, 3.0]);
        let g1 = Tensor::from_vec(vec![3.0, 5.0]);
        let out = partial_allreduce(&[Some(&g0), Some(&g1)]).unwrap();
        assert_eq!(out.reduced.as_slice(), &[2.0, 4.0]);
        assert_eq!(out.num_contributors, 2);
        assert_eq!(out.participation(), 1.0);
    }

    #[test]
    fn nulls_are_excluded_not_zero_averaged() {
        // Crucial: a null must not drag the average toward zero.
        let g = Tensor::from_vec(vec![6.0]);
        let out = partial_allreduce(&[Some(&g), None, None]).unwrap();
        assert_eq!(out.reduced.as_slice(), &[6.0]);
        assert_eq!(out.num_contributors, 1);
        assert!((out.participation() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_null_is_none() {
        assert!(partial_allreduce(&[None, None]).is_none());
        assert!(partial_allreduce(&[]).is_none());
    }

    #[test]
    fn flags_align_with_inputs() {
        let g = Tensor::from_vec(vec![1.0]);
        let out = partial_allreduce(&[None, Some(&g), None, Some(&g)]).unwrap();
        assert_eq!(out.contributed, vec![false, true, false, true]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_contributions_panic() {
        let a = Tensor::zeros(2);
        let b = Tensor::zeros(3);
        partial_allreduce(&[Some(&a), Some(&b)]);
    }

    #[test]
    fn pooled_matches_unpooled_bit_exactly_and_recycles() {
        let mut pool = TensorPool::new();
        let tensors: Vec<Tensor> = (0..5)
            .map(|i| (0..19).map(|j| ((i * 31 + j) as f32).sin()).collect())
            .collect();
        for round in 0..4 {
            let refs: Vec<Option<&Tensor>> = tensors
                .iter()
                .enumerate()
                .map(|(i, t)| ((i + round) % 3 != 0).then_some(t))
                .collect();
            let plain = partial_allreduce(&refs);
            let pooled = partial_allreduce_pooled(&refs, &mut pool);
            match (plain, pooled) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.reduced.as_slice(), b.reduced.as_slice());
                    assert_eq!(a.num_contributors, b.num_contributors);
                    assert_eq!(a.contributed, b.contributed);
                    pool.release(b.reduced);
                }
                (None, None) => {}
                other => panic!("pooled/unpooled disagree: {other:?}"),
            }
        }
        assert!(
            pool.hits() >= 3,
            "later rounds must recycle the round buffer"
        );
    }

    proptest! {
        #[test]
        fn partial_equals_mean_of_present(
            vals in proptest::collection::vec(
                (any::<bool>(), -10.0f32..10.0), 1..10),
        ) {
            let tensors: Vec<Option<Tensor>> = vals
                .iter()
                .map(|&(present, v)| present.then(|| Tensor::from_vec(vec![v])))
                .collect();
            let refs: Vec<Option<&Tensor>> =
                tensors.iter().map(Option::as_ref).collect();
            let present: Vec<f32> = vals
                .iter()
                .filter(|(p, _)| *p)
                .map(|&(_, v)| v)
                .collect();
            match partial_allreduce(&refs) {
                None => prop_assert!(present.is_empty()),
                Some(out) => {
                    let mean = present.iter().sum::<f32>() / present.len() as f32;
                    prop_assert!((out.reduced.as_slice()[0] - mean).abs() < 1e-4);
                    prop_assert_eq!(out.num_contributors, present.len());
                }
            }
        }
    }
}
