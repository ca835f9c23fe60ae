//! The per-worker gradient cache (§3.3 and §6, the `WriteOp`/`ReadOp`
//! analog).
//!
//! RNA separates computation from communication: the compute track deposits
//! each finished gradient into this cache ([`GradientCache::write`]); the
//! communication track drains it when a collective fires
//! ([`GradientCache::take_contribution`]). A worker that fell behind may
//! have several gradients pending — they are locally reduced with
//! staleness-linear weights; a worker that has none contributes null.
//! Bounded staleness caps the cache depth: when full, the oldest entry is
//! overwritten (the paper: "overwrite the stale data and only keep results
//! within the bound").

use rna_tensor::{
    reduce::{
        staleness_weighted_average, staleness_weighted_average_in_place,
        staleness_weighted_average_into,
    },
    ReduceOp, Tensor, TensorPool,
};

/// A bounded, staleness-aware gradient accumulator for one worker.
///
/// # Examples
///
/// ```
/// use rna_core::cache::GradientCache;
/// use rna_tensor::Tensor;
///
/// let mut cache = GradientCache::new(4, true);
/// assert!(cache.is_empty());
/// cache.write(0, Tensor::from_vec(vec![1.0]));
/// cache.write(1, Tensor::from_vec(vec![4.0]));
/// // Current round k=1: weights 1 (iter 0) and 2 (iter 1) → (1+8)/3 = 3.
/// let g = cache.take_contribution(1).unwrap();
/// assert_eq!(g.as_slice(), &[3.0]);
/// assert!(cache.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct GradientCache {
    entries: Vec<(u64, Tensor)>,
    bound: usize,
    weighted: bool,
    evicted: u64,
}

impl GradientCache {
    /// Creates a cache holding at most `bound` gradients.
    ///
    /// `weighted` selects staleness-linear local reduction (the paper's
    /// design); `false` reduces uniformly (ablation).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn new(bound: usize, weighted: bool) -> Self {
        assert!(bound > 0, "cache bound must be at least one");
        GradientCache {
            entries: Vec::new(),
            bound,
            weighted,
            evicted: 0,
        }
    }

    /// Whether no gradients are pending — the worker would contribute null.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pending gradients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total entries evicted by the staleness bound since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Deposits the gradient computed at local iteration `iter`. If the
    /// cache is at its bound, the oldest entry is overwritten and its
    /// tensor handed back, so a hot depositor (the process world's socket
    /// readers) can recycle the buffer instead of allocating.
    pub fn write(&mut self, iter: u64, grad: Tensor) -> Option<Tensor> {
        let evicted = if self.entries.len() == self.bound {
            self.evicted += 1;
            Some(self.entries.remove(0).1)
        } else {
            None
        };
        self.entries.push((iter, grad));
        evicted
    }

    /// Drains the cache into a single contribution for the collective at
    /// global round `k`, or `None` when empty (a null contribution).
    ///
    /// With weighting on, entries are combined by
    /// `g' = Σ [t − (k − τ) + 1]·g_t / Σ [t − (k − τ) + 1]`; otherwise they
    /// are averaged uniformly. The cache is reset to null afterwards
    /// ("the input gradients are overwritten by a null gradient so as to
    /// avoid using outdated gradients", §6).
    pub fn take_contribution(&mut self, k: u64) -> Option<Tensor> {
        if self.entries.is_empty() {
            return None;
        }
        let out = if self.weighted {
            let grads: Vec<(u64, &Tensor)> = self.entries.iter().map(|(t, g)| (*t, g)).collect();
            staleness_weighted_average(&grads, k)
        } else {
            let refs: Vec<&Tensor> = self.entries.iter().map(|(_, g)| g).collect();
            ReduceOp::Mean.reduce(&refs)
        };
        self.entries.clear();
        out
    }

    /// [`GradientCache::take_contribution`] on the pooled data path: the
    /// contribution buffer comes from `pool` and the drained entry buffers
    /// are released back to it, so a steady-state drain allocates nothing.
    /// A single entry, most drains, is drained in place instead and is the
    /// contribution itself, with no pool buffer, zero fill or copy: the
    /// weighted fold's `(0.0 + w·x)·(1/w)` is computed over its buffer, and
    /// the mean of one entry, `x·1.0`, is the entry unchanged.
    ///
    /// Bit-identical to the unpooled drain — the fused `*_into` reductions
    /// preserve per-element accumulation order, pooled buffers are zeroed
    /// on acquire, and the weighted in-place form shares the fold's step
    /// and post.
    pub fn take_contribution_pooled(&mut self, k: u64, pool: &mut TensorPool) -> Option<Tensor> {
        if self.entries.is_empty() {
            return None;
        }
        if self.entries.len() == 1 {
            let (t, mut g) = self.entries.pop().expect("one entry is pending");
            if self.weighted {
                staleness_weighted_average_in_place(&mut g, t, k);
            }
            return Some(g);
        }
        let mut out = pool.acquire(self.entries[0].1.len());
        let ok = if self.weighted {
            staleness_weighted_average_into(&mut out, &self.entries, k)
        } else {
            ReduceOp::Mean.reduce_into(&mut out, &self.entry_tensors())
        };
        debug_assert!(ok, "non-empty cache must produce a contribution");
        for (_, g) in self.entries.drain(..) {
            pool.release(g);
        }
        Some(out)
    }

    /// The pending gradients without their iteration tags (borrowed).
    fn entry_tensors(&self) -> Vec<&Tensor> {
        self.entries.iter().map(|(_, g)| g).collect()
    }

    /// The pending entries as `(iteration, gradient)` pairs, oldest first
    /// (for checkpoints — a crash-consistent snapshot must persist the
    /// cached gradients a worker has not yet contributed).
    pub fn entries(&self) -> &[(u64, Tensor)] {
        &self.entries
    }

    /// The configured staleness bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Whether staleness-linear weighting is enabled.
    pub fn weighted(&self) -> bool {
        self.weighted
    }

    /// Rebuilds a cache from checkpointed state, restoring the pending
    /// entries and the eviction counter exactly.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` or `entries.len() > bound` (an impossible
    /// state for a live cache — a corrupted checkpoint).
    pub fn from_checkpoint(
        bound: usize,
        weighted: bool,
        evicted: u64,
        entries: Vec<(u64, Tensor)>,
    ) -> Self {
        let mut cache = GradientCache::new(bound, weighted);
        assert!(entries.len() <= bound, "cache snapshot exceeds its bound");
        cache.entries = entries;
        cache.evicted = evicted;
        cache
    }

    /// The largest iteration gap among pending entries relative to round
    /// `k` (0 when empty).
    pub fn max_staleness(&self, k: u64) -> u64 {
        self.entries
            .iter()
            .map(|&(t, _)| k.saturating_sub(t))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_cache_contributes_null() {
        let mut c = GradientCache::new(2, true);
        assert!(c.take_contribution(5).is_none());
        assert_eq!(c.max_staleness(5), 0);
    }

    #[test]
    fn single_entry_passes_through() {
        let mut c = GradientCache::new(2, true);
        c.write(3, Tensor::from_vec(vec![2.5]));
        let g = c.take_contribution(3).unwrap();
        assert_eq!(g.as_slice(), &[2.5]);
        assert!(c.is_empty());
    }

    #[test]
    fn weighted_accumulation_favors_recent() {
        let mut c = GradientCache::new(4, true);
        c.write(8, Tensor::from_vec(vec![0.0]));
        c.write(9, Tensor::from_vec(vec![3.0]));
        // k=9: τ=1, weights 1 and 2 → 6/3 = 2.
        let g = c.take_contribution(9).unwrap();
        assert_eq!(g.as_slice(), &[2.0]);
    }

    #[test]
    fn unweighted_accumulation_is_uniform_mean() {
        let mut c = GradientCache::new(4, false);
        c.write(8, Tensor::from_vec(vec![0.0]));
        c.write(9, Tensor::from_vec(vec![3.0]));
        let g = c.take_contribution(9).unwrap();
        assert_eq!(g.as_slice(), &[1.5]);
    }

    #[test]
    fn bound_overwrites_oldest() {
        let mut c = GradientCache::new(2, false);
        c.write(0, Tensor::from_vec(vec![100.0]));
        c.write(1, Tensor::from_vec(vec![2.0]));
        c.write(2, Tensor::from_vec(vec![4.0]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evicted(), 1);
        // Entry from iter 0 is gone: mean of {2, 4}.
        let g = c.take_contribution(2).unwrap();
        assert_eq!(g.as_slice(), &[3.0]);
    }

    #[test]
    fn max_staleness_tracks_oldest_entry() {
        let mut c = GradientCache::new(4, true);
        c.write(2, Tensor::from_vec(vec![0.0]));
        c.write(5, Tensor::from_vec(vec![0.0]));
        assert_eq!(c.max_staleness(6), 4);
        // A "future" gradient (from a faster peer's round) gives zero gap.
        assert_eq!(c.max_staleness(1), 0);
    }

    #[test]
    fn take_resets_to_null() {
        let mut c = GradientCache::new(2, true);
        c.write(0, Tensor::from_vec(vec![1.0]));
        let _ = c.take_contribution(0);
        assert!(c.take_contribution(1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_bound_panics() {
        GradientCache::new(0, true);
    }

    #[test]
    fn pooled_drain_matches_unpooled_bit_exactly() {
        for weighted in [true, false] {
            let mut plain = GradientCache::new(4, weighted);
            let mut pooled = GradientCache::new(4, weighted);
            let mut pool = TensorPool::new();
            for k in 0..6u64 {
                for i in 0..3u64 {
                    let g: Tensor = (0..19)
                        .map(|j| ((k * 37 + i * 11 + j) as f32).sin())
                        .collect();
                    plain.write(k + i, g.clone());
                    pooled.write(k + i, g);
                }
                let a = plain.take_contribution(k + 2).unwrap();
                let b = pooled.take_contribution_pooled(k + 2, &mut pool).unwrap();
                assert_eq!(a.as_slice(), b.as_slice(), "weighted={weighted} k={k}");
                pool.release(b);
            }
            assert!(pool.hits() > 0, "drained entries must be recycled");
        }
    }

    /// Values the in-place drain must keep to the bit: both zeros,
    /// subnormals, the extremes, ±∞ and quiet NaNs with payloads and
    /// either sign. A signalling NaN is left out: whether the fold's
    /// `x · 1.0` quiets it is left unspecified by Rust, which may fold the
    /// product to `x`.
    fn edge_values() -> Vec<f32> {
        let mut xs = vec![
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0000),
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFC0_0001),
            f32::from_bits(0x7FFF_FFFF),
        ];
        xs.extend((0..19).map(|j| ((j * 37) as f32).sin() * 3.0));
        xs
    }

    /// The in-place drain of one entry against the pooled fold over that
    /// entry, bit for bit, weighted and not, for entries tagged before, at
    /// and after the round (weights 1, 1 and 4).
    #[test]
    fn one_entry_drain_in_place_matches_the_fold_to_the_bit() {
        let xs = Tensor::from_vec(edge_values());
        for weighted in [true, false] {
            for (t, k) in [(3, 7), (7, 7), (10, 7)] {
                let mut fold = Tensor::filled(xs.len(), 5.0);
                let entries = [(t, &xs)];
                if weighted {
                    assert!(staleness_weighted_average_into(&mut fold, &entries, k));
                } else {
                    assert!(ReduceOp::Mean.reduce_into(&mut fold, &[&xs]));
                }
                let mut cache = GradientCache::new(4, weighted);
                cache.write(t, xs.clone());
                let mut pool = TensorPool::new();
                let drained = cache.take_contribution_pooled(k, &mut pool).unwrap();
                let bits = |g: &Tensor| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let what = format!("weighted={weighted} t={t} k={k}");
                assert_eq!(bits(&drained), bits(&fold), "{what}");
                assert_eq!(pool.hits() + pool.misses(), 0, "{what}: no pool buffer");
                assert!(cache.is_empty(), "{what}");
            }
        }
        // A weight other than 1 reaches the values: ≠ x for -0.0 and for
        // large magnitudes, as the fold computes.
        let mut cache = GradientCache::new(4, true);
        cache.write(10, Tensor::from_vec(vec![-0.0, f32::MAX, 3.0]));
        let g = cache
            .take_contribution_pooled(7, &mut TensorPool::new())
            .unwrap();
        assert_eq!(
            g.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [0, f32::INFINITY.to_bits(), 3.0f32.to_bits()]
        );
    }

    /// Warm drains, one entry and several, fresh gradients coming from the
    /// pool as the simulator takes them: no tensor buffer is allocated
    /// (the debug-only counter behind `datapath_allocs`).
    #[test]
    fn steady_state_drains_allocate_nothing() {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut cache = GradientCache::new(4, true);
        let mut pool = TensorPool::new();
        let mut cycle = |pool: &mut TensorPool, k: u64| {
            for i in 0..(k % 3) + 1 {
                let mut g = pool.acquire_for_overwrite(33);
                g.as_mut_slice().fill((k + i) as f32);
                if let Some(evicted) = cache.write(k + i, g) {
                    pool.release(evicted);
                }
            }
            let out = cache.take_contribution_pooled(k + 2, pool).unwrap();
            pool.release(out);
        };
        for k in 0..6 {
            cycle(&mut pool, k);
        }
        let before = rna_tensor::alloc::count();
        for k in 6..60 {
            cycle(&mut pool, k);
        }
        assert_eq!(rna_tensor::alloc::count(), before);
    }

    proptest! {
        #[test]
        fn contribution_in_convex_hull(
            vals in proptest::collection::vec(-10.0f32..10.0, 1..6),
            weighted: bool,
        ) {
            let mut c = GradientCache::new(8, weighted);
            for (i, &v) in vals.iter().enumerate() {
                c.write(i as u64, Tensor::from_vec(vec![v]));
            }
            let g = c.take_contribution(vals.len() as u64).unwrap();
            let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(g.as_slice()[0] >= lo - 1e-4);
            prop_assert!(g.as_slice()[0] <= hi + 1e-4);
        }

        #[test]
        fn len_never_exceeds_bound(
            writes in 0usize..30,
            bound in 1usize..6,
        ) {
            let mut c = GradientCache::new(bound, true);
            for i in 0..writes {
                c.write(i as u64, Tensor::zeros(1));
                prop_assert!(c.len() <= bound);
            }
            prop_assert_eq!(c.evicted() as usize, writes.saturating_sub(bound));
        }
    }
}
