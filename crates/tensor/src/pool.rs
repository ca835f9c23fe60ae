//! A free-list buffer pool that makes steady-state reduce rounds
//! allocation-free.
//!
//! Every round of the RNA data path needs a handful of scratch tensors (one
//! accumulator per contributing cache, one reduced output, one parameter
//! snapshot). All of them have one of a small number of fixed lengths, so a
//! [`TensorPool`] keyed by length turns the per-round `Vec<f32>` churn into
//! pointer swaps: [`TensorPool::acquire`] pops a recycled buffer (zeroed, so
//! it is indistinguishable from `Tensor::zeros`) and
//! [`TensorPool::release`] pushes it back. A caller that overwrites every
//! element before reading any (a gradient computed into the buffer) takes
//! [`TensorPool::acquire_for_overwrite`] instead, which skips the zero fill
//! and hands back stale contents: "callers never observe stale contents"
//! holds for `acquire` only.
//!
//! The pool is deliberately std-only and single-threaded (`&mut self`
//! everywhere): the simulator is single-threaded by construction and the
//! threaded runtime only pools on the controller thread. Per-length free
//! lists are capped so a burst of releases (e.g. a gradient cache draining)
//! cannot grow the pool without bound.

use std::collections::HashMap;

use crate::Tensor;

/// Default cap on recycled buffers kept per distinct length.
const DEFAULT_CAP_PER_LEN: usize = 32;

/// A length-keyed free list of `Vec<f32>` tensor buffers.
///
/// # Examples
///
/// ```
/// use rna_tensor::TensorPool;
///
/// let mut pool = rna_tensor::TensorPool::new();
/// let t = pool.acquire(4); // miss: allocates
/// pool.release(t);
/// let t = pool.acquire(4); // hit: recycles, zeroed
/// assert_eq!(t.as_slice(), &[0.0; 4]);
/// assert_eq!(pool.hits(), 1);
/// let _ = pool;
/// ```
#[derive(Debug, Default)]
pub struct TensorPool {
    free: HashMap<usize, Vec<Vec<f32>>>,
    cap_per_len: usize,
    hits: u64,
    misses: u64,
}

impl TensorPool {
    /// Creates an empty pool with the default per-length cap.
    pub fn new() -> Self {
        Self::with_cap_per_len(DEFAULT_CAP_PER_LEN)
    }

    /// Creates an empty pool keeping at most `cap` recycled buffers per
    /// distinct length (a cap of 0 disables recycling entirely).
    pub fn with_cap_per_len(cap: usize) -> Self {
        TensorPool {
            free: HashMap::new(),
            cap_per_len: cap,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns a zeroed tensor of `len` elements, recycling a released
    /// buffer when one of the right length is available.
    ///
    /// The result is bit-identical to `Tensor::zeros(len)` — callers never
    /// observe stale contents.
    pub fn acquire(&mut self, len: usize) -> Tensor {
        match self.recycled(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                Tensor::from_vec(buf)
            }
            None => Tensor::zeros(len),
        }
    }

    /// Returns a tensor of `len` elements for a caller that overwrites
    /// every element before it reads any: a recycled buffer keeps whatever
    /// it last held, so no zero fill is paid. A miss allocates zeros.
    pub fn acquire_for_overwrite(&mut self, len: usize) -> Tensor {
        self.recycled(len)
            .map_or_else(|| Tensor::zeros(len), Tensor::from_vec)
    }

    /// A released buffer of `len` elements, if one is parked, counted as a
    /// hit; a miss is counted otherwise.
    fn recycled(&mut self, len: usize) -> Option<Vec<f32>> {
        let buf = self.free.get_mut(&len).and_then(Vec::pop);
        if buf.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        buf
    }

    /// Returns a tensor's buffer to the pool for later reuse.
    ///
    /// Empty tensors and buffers beyond the per-length cap are dropped.
    pub fn release(&mut self, t: Tensor) {
        let buf = t.into_vec();
        if buf.is_empty() {
            return;
        }
        let list = self.free.entry(buf.len()).or_default();
        if list.len() < self.cap_per_len {
            list.push(buf);
        }
    }

    /// Number of acquires served from the free list.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of acquires that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total buffers currently parked in the free lists.
    pub fn free_buffers(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip_recycles() {
        let mut pool = TensorPool::new();
        let mut t = pool.acquire(8);
        assert_eq!(pool.misses(), 1);
        t.as_mut_slice().fill(7.0);
        pool.release(t);
        assert_eq!(pool.free_buffers(), 1);
        let t = pool.acquire(8);
        assert_eq!(pool.hits(), 1);
        assert_eq!(t.as_slice(), &[0.0; 8], "recycled buffers are zeroed");
    }

    #[test]
    fn acquire_for_overwrite_skips_the_zero_fill() {
        let mut pool = TensorPool::new();
        let t = pool.acquire_for_overwrite(8);
        assert_eq!(pool.misses(), 1);
        assert_eq!(t.as_slice(), &[0.0; 8], "a miss allocates zeros");
        let mut t = t;
        t.as_mut_slice().fill(7.0);
        pool.release(t);
        let t = pool.acquire_for_overwrite(8);
        assert_eq!(pool.hits(), 1);
        assert_eq!(t.as_slice(), &[7.0; 8], "a hit keeps the stale contents");
    }

    #[test]
    fn lengths_are_segregated() {
        let mut pool = TensorPool::new();
        let a = pool.acquire(4);
        pool.release(a);
        let _b = pool.acquire(5);
        assert_eq!(pool.misses(), 2, "a 4-buffer cannot serve a 5-request");
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn cap_bounds_growth() {
        let mut pool = TensorPool::with_cap_per_len(2);
        for _ in 0..5 {
            let t = Tensor::zeros(3);
            pool.release(t);
        }
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn empty_tensors_are_not_pooled() {
        let mut pool = TensorPool::new();
        pool.release(Tensor::zeros(0));
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn debug_alloc_hook_sees_hits_as_free() {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut pool = TensorPool::new();
        let t = pool.acquire(16); // miss: counted
        pool.release(t);
        let before = crate::alloc::count();
        let t = pool.acquire(16); // hit: not counted
        assert_eq!(crate::alloc::count(), before);
        pool.release(t);
    }
}
