//! # rna-tensor
//!
//! Dense `f32` tensor math underpinning the RNA reproduction.
//!
//! The crate provides exactly what a collective-communication library needs
//! from its payload type and nothing more:
//!
//! * [`Tensor`] — a flat, heap-allocated `f32` buffer with in-place
//!   arithmetic (`add_assign`, `scale`, `axpy`, …) and reductions (`dot`,
//!   norms).
//! * [`chunks`] — the chunk partitioning used by ring reduce-scatter /
//!   all-gather ([`chunks::partition`]).
//! * [`reduce`] — element-wise reduction operators ([`reduce::ReduceOp`])
//!   and weighted averaging across many tensors.
//! * [`stats`] — scalar statistics (mean, stddev, percentiles, histograms)
//!   used by the experiment harness to summarize timing distributions.
//! * [`pool`] — a length-keyed free list ([`TensorPool`]) that makes
//!   steady-state reduce rounds allocation-free.
//! * [`alloc`] — a debug-only counter of fresh tensor-buffer allocations,
//!   used to *prove* the zero-allocation property in tests.
//! * [`wire`] — hand-rolled little-endian binary (de)serialization
//!   primitives for crash-recovery checkpoints.
//! * [`codec`] — pluggable gradient wire codecs ([`codec::Compression`]:
//!   lossless, fp16, int8 with stochastic rounding, top-k) plus the
//!   error-feedback recurrence that keeps the lossy ones convergent.
//! * [`simd`] — the codec hot loops, including the fused error-feedback
//!   bodies: plain safe Rust the compiler vectorises for int8 and top-k
//!   (the int8 ones also built for AVX2), F16C intrinsics beside a scalar
//!   reference for fp16, and the ChaCha8 keystream that fills int8's
//!   stochastic-rounding draws ([`simd::Draws`]) eight blocks at a time,
//!   picked at runtime; `RNA_FORCE_SCALAR=1` pins the portable builds.
//! * [`dense`] — the models' training kernels: the order-preserving dense
//!   layer forward and backward loops, the softmax cross-entropy tile pass,
//!   and lane ports of glibc's `tanhf` and `expf`, plain safe Rust built
//!   for the baseline, AVX2 and AVX-512 behind the same dispatch.
//!
//! # Examples
//!
//! ```
//! use rna_tensor::Tensor;
//!
//! let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
//! let b = Tensor::from_vec(vec![4.0, 5.0, 6.0]);
//! a.add_assign(&b);
//! assert_eq!(a.as_slice(), &[5.0, 7.0, 9.0]);
//! ```

#![deny(missing_docs)]
// `unsafe` is denied (not forbidden) so the `simd` module alone can opt in
// for `std::arch` intrinsics and byte-view casts; everything else stays safe.
#![deny(unsafe_code)]

pub mod alloc;
pub mod chunks;
pub mod codec;
pub mod dense;
pub mod pool;
pub mod reduce;
pub mod simd;
pub mod stats;
mod tensor;
pub mod wire;

pub use chunks::{partition, ChunkRange};
pub use codec::Compression;
pub use pool::TensorPool;
pub use reduce::ReduceOp;
pub use tensor::Tensor;
