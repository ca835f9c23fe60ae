//! The blocked fold (`rna_tensor::reduce::fold_into`) against a per-element
//! scalar reference, once for each of its four callers, each with the exact
//! per-element expression that caller promises: how the first input seeds
//! the accumulator, slot order, skipped zero weights and nulls, an
//! unweighted input added rather than multiplied by 1.0, and one final
//! multiply by the precomputed reciprocal.
//!
//! Lengths run past three fold blocks so every case crosses block edges and
//! ends in a partial block; −0.0, NaN and ±∞ are planted in the inputs.

use proptest::prelude::*;
use rna_collectives::partial_allreduce_pooled;
use rna_simnet::SimRng;
use rna_tensor::reduce::{
    staleness_weighted_average_into, weighted_average_into, ReduceOp, FOLD_BLOCK,
};
use rna_tensor::{Tensor, TensorPool};

const MAX_LEN: usize = 3 * FOLD_BLOCK + 7;

/// One `ReduceOp` step as the scalar reference spells it.
type Step = fn(f32, f32) -> f32;

/// `n` tensors of `len` floats drawn from `seed`, about one element in
/// sixteen replaced by −0.0, NaN, +∞ or −∞.
fn inputs(seed: u64, n: usize, len: usize) -> Vec<Tensor> {
    let mut rng = SimRng::seed(seed);
    let specials = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| match rng.uniform_usize(0..64) {
                    k @ 0..=3 => specials[k],
                    _ => rng.uniform_f64(-8.0..8.0) as f32,
                })
                .collect()
        })
        .collect()
}

/// Bit equality, except that any NaN matches any NaN (its payload is not
/// part of the contract).
fn assert_same(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.as_slice().iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} of {}: got {g:?}, want {w:?}",
            want.len()
        );
    }
}

proptest! {
    #[test]
    fn reduce_into_matches_the_scalar_fold(
        len in 0usize..MAX_LEN + 1,
        n in 1usize..10,
        seed: u64,
    ) {
        let xs = inputs(seed, n, len);
        let ops: [(ReduceOp, Step); 4] = [
            (ReduceOp::Sum, |a, b| a + b),
            (ReduceOp::Mean, |a, b| a + b),
            (ReduceOp::Max, f32::max),
            (ReduceOp::Min, f32::min),
        ];
        for (op, f) in ops {
            let post = if op == ReduceOp::Mean { 1.0 / n as f32 } else { 1.0 };
            let want: Vec<f32> = (0..len)
                .map(|i| xs[1..].iter().fold(xs[0][i], |acc, t| f(acc, t[i])) * post)
                .collect();
            let mut out = Tensor::filled(len, f32::NAN);
            prop_assert!(op.reduce_into(&mut out, &xs));
            assert_same(&out, &want, &format!("{op:?}"));
        }
    }

    #[test]
    fn weighted_average_into_matches_the_scalar_fold(
        len in 0usize..MAX_LEN + 1,
        n in 1usize..10,
        seed: u64,
    ) {
        let xs = inputs(seed, n, len);
        let refs: Vec<&Tensor> = xs.iter().collect();
        // Weights 0 (a null), 1, 2 or 3: about a quarter of slots skipped.
        let mut rng = SimRng::seed(!seed);
        let weights: Vec<f32> = (0..n).map(|_| rng.uniform_usize(0..4) as f32).collect();
        let total: f32 = weights.iter().sum();
        let mut out = Tensor::filled(len, f32::NAN);
        let ok = weighted_average_into(&mut out, &refs, &weights);
        prop_assert_eq!(ok, total > 0.0);
        if ok {
            let inv = 1.0 / total;
            let want: Vec<f32> = (0..len)
                .map(|i| {
                    let mut acc = 0.0f32;
                    for (t, &w) in xs.iter().zip(&weights) {
                        if w > 0.0 {
                            acc += w * t[i];
                        }
                    }
                    acc * inv
                })
                .collect();
            assert_same(&out, &want, "weighted average");
        }
    }

    #[test]
    fn staleness_average_into_matches_the_scalar_fold(
        len in 0usize..MAX_LEN + 1,
        n in 1usize..10,
        seed: u64,
        k in 4u64..12,
    ) {
        let xs = inputs(seed, n, len);
        // Iterations up to four behind `k` and one ahead of it.
        let mut rng = SimRng::seed(!seed);
        let entries: Vec<(u64, Tensor)> = xs
            .into_iter()
            .map(|t| (k + 1 - rng.uniform_u64(0..6), t))
            .collect();
        let base = entries.iter().map(|(t, _)| *t).min().unwrap().min(k);
        let weight = |t: u64| (t - base + 1) as f32;
        let inv = 1.0 / entries.iter().map(|(t, _)| weight(*t)).sum::<f32>();
        let want: Vec<f32> = (0..len)
            .map(|i| {
                let mut acc = 0.0f32;
                for (t, g) in &entries {
                    acc += weight(*t) * g[i];
                }
                acc * inv
            })
            .collect();
        let mut out = Tensor::filled(len, f32::NAN);
        prop_assert!(staleness_weighted_average_into(&mut out, &entries, k));
        assert_same(&out, &want, "staleness average");
    }

    #[test]
    fn partial_allreduce_matches_the_scalar_fold(
        len in 0usize..MAX_LEN + 1,
        n in 1usize..10,
        seed: u64,
    ) {
        let xs = inputs(seed, n, len);
        // About a third of the slots are nulls.
        let mut rng = SimRng::seed(!seed);
        let slots: Vec<Option<&Tensor>> =
            xs.iter().map(|t| (rng.uniform_usize(0..3) > 0).then_some(t)).collect();
        let present: Vec<&Tensor> = slots.iter().flatten().copied().collect();
        let mut pool = TensorPool::new();
        match partial_allreduce_pooled(&slots, &mut pool) {
            None => prop_assert!(present.is_empty()),
            Some(outcome) => {
                let inv = 1.0 / present.len() as f32;
                let want: Vec<f32> = (0..len)
                    .map(|i| {
                        let mut acc = 0.0f32;
                        for t in &present {
                            acc += t[i];
                        }
                        acc * inv
                    })
                    .collect();
                assert_same(&outcome.reduced, &want, "partial allreduce");
                prop_assert_eq!(outcome.num_contributors, present.len());
            }
        }
    }
}
