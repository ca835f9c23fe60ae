//! Runtime-dispatched SIMD kernels for the wire-codec hot loops.
//!
//! Every dispatched kernel here has two implementations: an explicit
//! `std::arch` pipeline and a portable scalar reference (`*_scalar`).
//! Dispatch is decided once per process by [`active`]: the vector path runs
//! only when the CPU reports AVX2 *and* F16C (`is_x86_feature_detected!`;
//! the fp16 conversions are the F16C `vcvtps2ph` / `vcvtph2ps`
//! instructions) *and* `RNA_FORCE_SCALAR` is unset — exporting
//! `RNA_FORCE_SCALAR=1` pins the scalar reference, which CI uses to keep the
//! fallback covered. [`set_forced_scalar`] is the programmatic override
//! tests use to run both paths in one process.
//!
//! The contract is **bit-identity**: for the same inputs (and the same
//! stochastic-rounding draw stream) the vector and scalar paths produce
//! byte-identical frames, so same-seed replays do not depend on the host
//! CPU. The paper's CUDA kernels become these runtime-detected host
//! kernels; the property tests in `tensor/tests/simd_codecs.rs` pin the
//! identity across lane-remainder lengths.
//!
//! The error-feedback recurrence has one fused body per codec
//! (`feedback_*`): each element is compensated, encoded, dequantised and
//! its residual squared into the norm in a single pass, instead of six
//! sweeps over three buffers.
//!
//! Inputs are expected to be finite (gradients with NaN/∞ have already
//! diverged); the fp16 kernels are nevertheless total and bit-exact for
//! every input including NaN payloads.

// The one module allowed to use `unsafe`: `std::arch` intrinsics behind
// runtime feature detection, and byte-view casts over `f32` slices.
#![allow(unsafe_code)]

use crate::codec::{f16_bits_to_f32, f32_to_f16_bits, quantize_i8_sr};
use std::sync::atomic::{AtomicU8, Ordering};

/// Dispatch mode: 0 = undecided, 1 = auto (use SIMD when detected),
/// 2 = forced scalar.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Whether the scalar reference path is forced, by `RNA_FORCE_SCALAR` in
/// the environment (any value other than empty or `0`) or by
/// [`set_forced_scalar`]. Decided once and cached.
pub fn forced_scalar() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let forced = std::env::var("RNA_FORCE_SCALAR")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            MODE.store(if forced { 2 } else { 1 }, Ordering::Relaxed);
            forced
        }
    }
}

/// Programmatically forces (or un-forces) the scalar path, overriding the
/// environment. Tests use it to pin bit-identity across both paths in one
/// process.
pub fn set_forced_scalar(on: bool) {
    MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether the vector kernels are compiled in and the CPU supports them —
/// AVX2 and F16C — regardless of the force-scalar override.
pub fn vector_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the vector path will actually run: AVX2 and F16C detected and
/// the scalar override not engaged.
pub fn active() -> bool {
    vector_available() && !forced_scalar()
}

/// Detected CPU features relevant to the codec kernels, for report
/// headers (numbers are only comparable across machines with the same
/// vector width).
pub fn detected_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("f16c", std::arch::is_x86_feature_detected!("f16c")),
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("f16c", false), ("sse4.1", false)]
    }
}

// ---------------------------------------------------------------------------
// fp16
// ---------------------------------------------------------------------------

/// Encodes `xs` as little-endian IEEE binary16 into `out`
/// (`out.len() == 2 * xs.len()`), round-to-nearest-even, bit-identical to
/// [`f32_to_f16_bits`] per element (NaN included: the vector path
/// canonicalises it to `sign | 0x7E00` as the reference does).
///
/// # Panics
///
/// Panics if `out.len() != 2 * xs.len()`.
pub fn fp16_encode(xs: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), xs.len() * 2, "fp16 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 and F16C support at runtime.
        unsafe { avx2::fp16_encode(xs, out) };
        return;
    }
    fp16_encode_scalar(xs, out);
}

/// The portable reference for [`fp16_encode`].
pub fn fp16_encode_scalar(xs: &[f32], out: &mut [u8]) {
    for (o, &x) in out.chunks_exact_mut(2).zip(xs) {
        o.copy_from_slice(&f32_to_f16_bits(x).to_le_bytes());
    }
}

/// Decodes little-endian IEEE binary16 `bytes` (`bytes.len() == 2 *
/// out.len()`) into `out`, bit-identical to [`f16_bits_to_f32`] per
/// element (NaN payloads included: the vector path keeps a signalling
/// half's quiet bit clear, as the reference does).
///
/// # Panics
///
/// Panics if `bytes.len() != 2 * out.len()`.
pub fn fp16_decode(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 2, "fp16 payload length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 and F16C support at runtime.
        unsafe { avx2::fp16_decode(bytes, out) };
        return;
    }
    fp16_decode_scalar(bytes, out);
}

/// The portable reference for [`fp16_decode`].
pub fn fp16_decode_scalar(bytes: &[u8], out: &mut [f32]) {
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]]));
    }
}

// ---------------------------------------------------------------------------
// int8 stochastic rounding
// ---------------------------------------------------------------------------

/// Largest finite magnitude in `xs` (`0.0` for an empty slice), matching
/// the scalar fold `m.max(x.abs())` bit-for-bit on finite inputs.
pub fn abs_max(xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        return unsafe { avx2::abs_max(xs) };
    }
    abs_max_scalar(xs)
}

/// The portable reference for [`abs_max`].
pub fn abs_max_scalar(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantizes `xs` under `scale` with stochastic rounding into `out`
/// (`out.len() == xs.len()`, one `i8` stored as `u8` per element).
///
/// `draw` is consumed **exactly** as the scalar reference consumes it: one
/// uniform `u32` per element whose fractional part is strictly positive,
/// in element order — so the ChaCha codec stream advances identically on
/// both paths and same-seed replays stay bit-identical. The vector path
/// batches the surrounding arithmetic (divide, floor, compare, clamp)
/// eight lanes at a time and harvests the draws per block.
///
/// # Panics
///
/// Panics if `out.len() != xs.len()`.
pub fn int8_quantize(xs: &[f32], scale: f32, out: &mut [u8], draw: &mut impl FnMut() -> u32) {
    assert_eq!(out.len(), xs.len(), "int8 output length mismatch");
    if scale == 0.0 {
        out.fill(0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::int8_quantize(xs, scale, out, draw) };
        return;
    }
    int8_quantize_scalar(xs, scale, out, draw);
}

/// The portable reference for [`int8_quantize`].
pub fn int8_quantize_scalar(
    xs: &[f32],
    scale: f32,
    out: &mut [u8],
    draw: &mut impl FnMut() -> u32,
) {
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = quantize_i8_sr(x, scale, draw) as u8;
    }
}

/// Dequantizes signed bytes back to `f32` (`out[i] = bytes[i] as i8 as f32
/// * scale`), bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if `bytes.len() != out.len()`.
pub fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len(), "int8 payload length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::int8_dequantize(bytes, scale, out) };
        return;
    }
    int8_dequantize_scalar(bytes, scale, out);
}

/// The portable reference for [`int8_dequantize`].
pub fn int8_dequantize_scalar(bytes: &[u8], scale: f32, out: &mut [f32]) {
    for (o, &b) in out.iter_mut().zip(bytes) {
        *o = f32::from(b as i8) * scale;
    }
}

// ---------------------------------------------------------------------------
// top-k threshold scan
// ---------------------------------------------------------------------------

/// Magnitude sort keys for a top-k scan: `x.to_bits() & 0x7FFF_FFFF`.
///
/// For sign-cleared floats the IEEE total order coincides with unsigned
/// integer order on the bit patterns (NaN payloads sort above infinity,
/// exactly like `f32::total_cmp` on magnitudes), so selection and scanning
/// run on plain `u32`s.
pub fn magnitude_keys(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits() & 0x7FFF_FFFF).collect()
}

/// Threshold scan for top-k selection: appends to `gt` every index whose
/// key is strictly above `t` and to `ties` the first (lowest-index)
/// `tie_cap` indices whose key equals `t`, both in ascending index order.
///
/// The vector path compares eight keys per step and falls into per-lane
/// classification only when a block contains a candidate — for small keep
/// fractions almost every block is skipped with one compare.
pub fn topk_scan(keys: &[u32], t: u32, tie_cap: usize, gt: &mut Vec<u32>, ties: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::topk_scan(keys, t, tie_cap, gt, ties) };
        return;
    }
    topk_scan_scalar(keys, t, tie_cap, gt, ties);
}

/// The portable reference for [`topk_scan`].
pub fn topk_scan_scalar(
    keys: &[u32],
    t: u32,
    tie_cap: usize,
    gt: &mut Vec<u32>,
    ties: &mut Vec<u32>,
) {
    for (i, &k) in keys.iter().enumerate() {
        if k > t {
            gt.push(i as u32);
        } else if k == t && ties.len() < tie_cap {
            ties.push(i as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// lossless byte views
// ---------------------------------------------------------------------------

/// Appends the little-endian byte image of `xs` to `out` — the lossless
/// wire payload — at memcpy speed on little-endian hosts.
pub fn f32s_to_le_bytes(xs: &[f32], out: &mut Vec<u8>) {
    #[cfg(target_endian = "little")]
    {
        out.extend_from_slice(raw::f32s_as_bytes(xs));
    }
    #[cfg(not(target_endian = "little"))]
    {
        out.reserve(xs.len() * 4);
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Reads little-endian `f32` bit patterns from `bytes`
/// (`bytes.len() == 4 * out.len()`) into `out` at memcpy speed.
///
/// # Panics
///
/// Panics if `bytes.len() != 4 * out.len()`.
pub fn le_bytes_to_f32s(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        out.len() * 4,
        "lossless payload length mismatch"
    );
    #[cfg(target_endian = "little")]
    {
        raw::bytes_into_f32s(bytes, out);
    }
    #[cfg(not(target_endian = "little"))]
    {
        for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
}

/// Byte-view casts for the lossless payload path. `f32` has no invalid bit
/// patterns and no padding, so viewing a float slice as bytes (and copying
/// bytes over floats) is sound; endianness is handled by the callers.
#[cfg(target_endian = "little")]
mod raw {
    /// The raw little-endian byte image of a float slice.
    pub fn f32s_as_bytes(xs: &[f32]) -> &[u8] {
        // SAFETY: f32 and u8 have no padding or invalid representations;
        // the length covers exactly the same memory.
        unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), xs.len() * 4) }
    }

    /// Copies a byte image over a float slice (lengths already checked).
    pub fn bytes_into_f32s(bytes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(bytes.len(), out.len() * 4);
        // SAFETY: every 4-byte pattern is a valid f32; regions cannot
        // overlap (&mut out is exclusive).
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// fused error-feedback bodies
// ---------------------------------------------------------------------------
//
// One body per codec for `codec::encode_with_feedback_append`. On entry
// `grad` holds the fresh gradient and `residual` the carried error; each
// element is compensated (`c = grad + residual`), encoded into the wire
// payload, decoded again into `grad`, and its new residual `c − grad` is
// stored and — in element order — squared into the returned sum. The
// per-element arithmetic is exactly the six-sweep recurrence's, so frames,
// buffers, draw counts and the norm keep their bits.
//
// Lossless and fp16 bodies are lane-independent and take `norm: bool`: the
// chunk-parallel wire path runs them with `false` on disjoint chunks and
// folds the finished residual serially afterwards (same order, same bits).

/// The neutral element of `Sum for f32`. Every fused body folds its squared
/// residuals onto it, so an empty tensor's norm is −0.0 exactly as
/// [`crate::Tensor::norm_l2`] reports it.
const NORM_ZERO: f32 = -0.0;

/// Fused lossless feedback: the payload is the compensated values' byte
/// image, `grad` keeps them, and the residual is `c − c` (zero for finite
/// `c`). Portable only — the in-order norm chain, not the vector width,
/// bounds this loop. Returns the in-order sum of squared residuals, or
/// −0.0 when `norm` is false.
///
/// # Panics
///
/// Panics if the lengths disagree (`out.len() == 4 * grad.len()`).
pub fn feedback_lossless(
    grad: &mut [f32],
    residual: &mut [f32],
    out: &mut [u8],
    norm: bool,
) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len() * 4, "lossless output length mismatch");
    let mut acc = NORM_ZERO;
    for ((g, r), o) in grad.iter_mut().zip(residual).zip(out.chunks_exact_mut(4)) {
        let c = *g + *r;
        o.copy_from_slice(&c.to_le_bytes());
        *g = c;
        *r = c - *g;
        if norm {
            acc += *r * *r;
        }
    }
    acc
}

/// Fused fp16 feedback, one sweep: compensate, round to binary16, write
/// the wire lane, leave the half's value in `grad` and the rounding error
/// in `residual`. Returns the in-order sum of squared residuals, or −0.0
/// when `norm` is false.
///
/// # Panics
///
/// Panics if the lengths disagree (`out.len() == 2 * grad.len()`).
pub fn feedback_fp16(grad: &mut [f32], residual: &mut [f32], out: &mut [u8], norm: bool) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len() * 2, "fp16 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 and F16C support at runtime.
        return unsafe { avx2::feedback_fp16(grad, residual, out, norm) };
    }
    feedback_fp16_scalar(grad, residual, out, norm)
}

/// The portable reference for [`feedback_fp16`].
///
/// # Panics
///
/// Panics if the lengths disagree.
pub fn feedback_fp16_scalar(
    grad: &mut [f32],
    residual: &mut [f32],
    out: &mut [u8],
    norm: bool,
) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len() * 2, "fp16 output length mismatch");
    let mut acc = NORM_ZERO;
    for ((g, r), o) in grad.iter_mut().zip(residual).zip(out.chunks_exact_mut(2)) {
        let e = fp16_lane(g, r, o);
        if norm {
            acc += e * e;
        }
    }
    acc
}

/// One fp16 feedback element; returns the new residual.
#[inline(always)]
fn fp16_lane(g: &mut f32, r: &mut f32, o: &mut [u8]) -> f32 {
    let c = *g + *r;
    let h = f32_to_f16_bits(c);
    o.copy_from_slice(&h.to_le_bytes());
    *g = f16_bits_to_f32(h);
    *r = c - *g;
    *r
}

/// Int8 feedback, first sweep: `grad += residual` in place (leaving the
/// compensated values for [`feedback_int8`]) and the largest compensated
/// magnitude, which fixes the frame's scale. Matches [`abs_max`] over the
/// compensated values bit-for-bit on finite inputs.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn compensate_abs_max(grad: &mut [f32], residual: &[f32]) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        return unsafe { avx2::compensate_abs_max(grad, residual) };
    }
    compensate_abs_max_scalar(grad, residual)
}

/// The portable reference for [`compensate_abs_max`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn compensate_abs_max_scalar(grad: &mut [f32], residual: &[f32]) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    grad.iter_mut().zip(residual).fold(0.0f32, |m, (g, &r)| {
        *g += r;
        m.max(g.abs())
    })
}

/// Int8 feedback, second sweep: quantises the compensated values in `grad`
/// under `scale` with stochastic rounding into `out`, leaves the
/// dequantised values in `grad` and `compensated − dequantised` in
/// `residual`. Draws are consumed exactly as [`int8_quantize`] consumes
/// them (one per element with a positive fractional part, in element
/// order), so this sweep is serial at every thread count; it folds the
/// norm as it goes and returns the in-order sum of squared residuals.
///
/// # Panics
///
/// Panics if the lengths disagree (`out.len() == grad.len()`).
pub fn feedback_int8(
    grad: &mut [f32],
    residual: &mut [f32],
    scale: f32,
    out: &mut [u8],
    draw: &mut impl FnMut() -> u32,
) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len(), "int8 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() && scale != 0.0 {
        // SAFETY: `active()` verified AVX2 support at runtime.
        return unsafe { avx2::feedback_int8(grad, residual, scale, out, draw) };
    }
    feedback_int8_scalar(grad, residual, scale, out, draw)
}

/// The portable reference for [`feedback_int8`] (also the `scale == 0`
/// path: an all-zero payload, no draws).
///
/// # Panics
///
/// Panics if the lengths disagree.
pub fn feedback_int8_scalar(
    grad: &mut [f32],
    residual: &mut [f32],
    scale: f32,
    out: &mut [u8],
    draw: &mut impl FnMut() -> u32,
) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len(), "int8 output length mismatch");
    let mut acc = NORM_ZERO;
    for ((g, r), o) in grad.iter_mut().zip(residual).zip(out.iter_mut()) {
        let e = int8_lane(g, r, scale, o, draw);
        acc += e * e;
    }
    acc
}

/// One int8 feedback element (`g` holds the compensated value); returns
/// the new residual.
#[inline(always)]
fn int8_lane(
    g: &mut f32,
    r: &mut f32,
    scale: f32,
    o: &mut u8,
    draw: &mut impl FnMut() -> u32,
) -> f32 {
    let c = *g;
    let q = quantize_i8_sr(c, scale, draw);
    *o = q as u8;
    *g = f32::from(q) * scale;
    *r = c - *g;
    *r
}

/// Top-k feedback, first sweep: `grad += residual` in place and the
/// compensated values' [`magnitude_keys`], which the select pass ranks.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn compensate_keys(grad: &mut [f32], residual: &[f32]) -> Vec<u32> {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    grad.iter_mut()
        .zip(residual)
        .map(|(g, &r)| {
            *g += r;
            g.to_bits() & 0x7FFF_FFFF
        })
        .collect()
}

/// Top-k feedback, write-back sweep over the compensated values in `grad`:
/// every index in `kept` (ascending) is written to `out` as an
/// `(index, value)` pair and keeps its value, every other element becomes
/// zero, and `residual` gets `compensated − kept value`. Portable only —
/// the select pass, not this sweep, is top-k's cost. Returns the in-order
/// sum of squared residuals.
///
/// # Panics
///
/// Panics if the lengths disagree (`out.len() == 8 * kept.len()`) or
/// `kept` is not ascending within `grad`.
pub fn feedback_topk(grad: &mut [f32], residual: &mut [f32], kept: &[u32], out: &mut [u8]) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), kept.len() * 8, "top-k output length mismatch");
    let mut pairs = out.chunks_exact_mut(8);
    let mut next = kept.iter().peekable();
    let mut acc = NORM_ZERO;
    for (i, (g, r)) in grad.iter_mut().zip(residual).enumerate() {
        let c = *g;
        if next.next_if(|&&k| k as usize == i).is_some() {
            let pair = pairs.next().expect("one pair per kept index");
            pair[..4].copy_from_slice(&(i as u32).to_le_bytes());
            pair[4..].copy_from_slice(&c.to_le_bytes());
        } else {
            *g = 0.0;
        }
        *r = c - *g;
        acc += *r * *r;
    }
    assert!(
        next.next().is_none(),
        "kept indices must ascend within grad"
    );
    acc
}

// ---------------------------------------------------------------------------
// AVX2 + F16C kernels
// ---------------------------------------------------------------------------

/// Explicit AVX2 pipelines, F16C for the fp16 conversions. Every function
/// is `unsafe fn` gated on the caller having verified the features it
/// enables at runtime ([`active`] checks both); all are bit-identical to the
/// scalar references above (pinned by the crate's property tests).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Eight f32 lanes to binary16 with round-to-nearest-even
    /// (`vcvtps2ph`). The instruction keeps a NaN's top payload bits; the
    /// scalar reference canonicalises every NaN to `sign | 0x7E00`, so NaN
    /// lanes are rewritten to that.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and F16C support.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn f32x8_to_f16(x: __m256) -> __m128i {
        let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
        let nan = _mm_cmpgt_epi16(
            _mm_and_si128(h, _mm_set1_epi16(0x7FFF)),
            _mm_set1_epi16(0x7C00),
        );
        let canonical = _mm_or_si128(
            _mm_and_si128(h, _mm_set1_epi16(i16::MIN)),
            _mm_set1_epi16(0x7E00),
        );
        _mm_blendv_epi8(h, canonical, nan)
    }

    /// 8-lane fp16 encode on `vcvtps2ph`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and F16C support.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn fp16_encode(xs: &[f32], out: &mut [u8]) {
        let n = xs.len();
        let mut i = 0;
        while i + 8 <= n {
            let h = f32x8_to_f16(_mm256_loadu_ps(xs.as_ptr().add(i)));
            _mm_storeu_si128(out.as_mut_ptr().add(2 * i).cast::<__m128i>(), h);
            i += 8;
        }
        super::fp16_encode_scalar(&xs[i..], &mut out[2 * i..]);
    }

    /// 8-lane fp16 decode on `vcvtph2ps` (exact for every half, subnormals
    /// included). The instruction sets the quiet bit of a signalling NaN
    /// half; the scalar reference keeps the payload as it is, so blocks
    /// holding a NaN rebuild those lanes as `sign | 0x7F80_0000 | m << 13`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and F16C support.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn fp16_decode(bytes: &[u8], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            let h = _mm_loadu_si128(bytes.as_ptr().add(2 * i).cast::<__m128i>());
            let mut f = _mm256_castps_si256(_mm256_cvtph_ps(h));
            let nan = _mm_cmpgt_epi16(
                _mm_and_si128(h, _mm_set1_epi16(0x7FFF)),
                _mm_set1_epi16(0x7C00),
            );
            if _mm_movemask_epi8(nan) != 0 {
                let payload = _mm256_slli_epi32(
                    _mm256_and_si256(_mm256_cvtepu16_epi32(h), _mm256_set1_epi32(0x03FF)),
                    13,
                );
                let exact = _mm256_or_si256(
                    _mm256_and_si256(f, _mm256_set1_epi32(0xFF80_0000u32 as i32)),
                    payload,
                );
                f = _mm256_blendv_epi8(f, exact, _mm256_cvtepi16_epi32(nan));
            }
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast::<__m256i>(), f);
            i += 8;
        }
        super::fp16_decode_scalar(&bytes[2 * i..], &mut out[i..]);
    }

    /// Horizontal sum of `r²` onto `acc`, lane 0 first — the element order
    /// of the scalar fold.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_squares(acc: f32, r: __m256) -> f32 {
        let mut sq = [0.0f32; 8];
        _mm256_storeu_ps(sq.as_mut_ptr(), _mm256_mul_ps(r, r));
        sq.iter().fold(acc, |a, &s| a + s)
    }

    /// Fused fp16 feedback, eight lanes per step: the decoded value is
    /// `vcvtph2ps` of the canonical half just written, so it matches
    /// [`crate::codec::f16_bits_to_f32`] without the decode fix-up.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and F16C support, and the lengths
    /// (`residual.len() == grad.len()`, `out.len() == 2 * grad.len()`).
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn feedback_fp16(
        grad: &mut [f32],
        residual: &mut [f32],
        out: &mut [u8],
        norm: bool,
    ) -> f32 {
        let n = grad.len();
        let mut acc = super::NORM_ZERO;
        let mut i = 0;
        while i + 8 <= n {
            let c = _mm256_add_ps(
                _mm256_loadu_ps(grad.as_ptr().add(i)),
                _mm256_loadu_ps(residual.as_ptr().add(i)),
            );
            let h = f32x8_to_f16(c);
            _mm_storeu_si128(out.as_mut_ptr().add(2 * i).cast::<__m128i>(), h);
            let d = _mm256_cvtph_ps(h);
            let r = _mm256_sub_ps(c, d);
            _mm256_storeu_ps(grad.as_mut_ptr().add(i), d);
            _mm256_storeu_ps(residual.as_mut_ptr().add(i), r);
            if norm {
                acc = fold_squares(acc, r);
            }
            i += 8;
        }
        for ((g, r), o) in grad[i..]
            .iter_mut()
            .zip(&mut residual[i..])
            .zip(out[2 * i..].chunks_exact_mut(2))
        {
            let e = super::fp16_lane(g, r, o);
            if norm {
                acc += e * e;
            }
        }
        acc
    }

    /// Int8 feedback's first sweep: vector add, store, and absolute
    /// maximum (finite inputs).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn compensate_abs_max(grad: &mut [f32], residual: &[f32]) -> f32 {
        let n = grad.len();
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let c = _mm256_add_ps(
                _mm256_loadu_ps(grad.as_ptr().add(i)),
                _mm256_loadu_ps(residual.as_ptr().add(i)),
            );
            _mm256_storeu_ps(grad.as_mut_ptr().add(i), c);
            acc = _mm256_max_ps(acc, _mm256_and_ps(c, mask));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        m.max(super::compensate_abs_max_scalar(
            &mut grad[i..],
            &residual[i..],
        ))
    }

    /// Int8 feedback's second sweep: [`int8_quantize`]'s eight-lane
    /// stochastic rounding (same draws, same order), then the dequantise,
    /// residual and in-order norm of the same lanes before moving on.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support, the lengths
    /// (`residual.len() == out.len() == grad.len()`) and `scale != 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn feedback_int8(
        grad: &mut [f32],
        residual: &mut [f32],
        scale: f32,
        out: &mut [u8],
        draw: &mut impl FnMut() -> u32,
    ) -> f32 {
        let n = grad.len();
        let vscale = _mm256_set1_ps(scale);
        let inv24 = _mm256_set1_ps(f32::from_bits(0x3380_0000));
        let mut us = [0.0f32; 8];
        let mut acc = super::NORM_ZERO;
        let mut i = 0;
        while i + 8 <= n {
            let c = _mm256_loadu_ps(grad.as_ptr().add(i));
            let v = _mm256_div_ps(c, vscale);
            let lo = _mm256_floor_ps(v);
            let frac = _mm256_sub_ps(v, lo);
            let mut q = _mm256_cvttps_epi32(lo);
            let need = _mm256_cmp_ps::<_CMP_GT_OQ>(frac, _mm256_setzero_ps());
            let mask = _mm256_movemask_ps(need) as u32 & 0xFF;
            if mask != 0 {
                for (lane, u) in us.iter_mut().enumerate() {
                    *u = if mask & (1 << lane) != 0 {
                        (draw() >> 8) as f32
                    } else {
                        f32::INFINITY
                    };
                }
                let uv = _mm256_mul_ps(_mm256_loadu_ps(us.as_ptr()), inv24);
                let up = _mm256_cmp_ps::<_CMP_LT_OQ>(uv, frac);
                q = _mm256_sub_epi32(q, _mm256_castps_si256(up));
            }
            q = _mm256_min_epi32(q, _mm256_set1_epi32(127));
            q = _mm256_max_epi32(q, _mm256_set1_epi32(-127));
            // Narrow the eight in-range dwords to bytes: each 128-bit half
            // of the double pack starts with four of them, in order.
            let words = _mm256_packs_epi32(q, q);
            let bytes = _mm256_packs_epi16(words, words);
            let low = _mm_cvtsi128_si32(_mm256_castsi256_si128(bytes)) as u32;
            let high = _mm_cvtsi128_si32(_mm256_extracti128_si256::<1>(bytes)) as u32;
            let packed = u64::from(low) | u64::from(high) << 32;
            out[i..i + 8].copy_from_slice(&packed.to_le_bytes());
            let d = _mm256_mul_ps(_mm256_cvtepi32_ps(q), vscale);
            let r = _mm256_sub_ps(c, d);
            _mm256_storeu_ps(grad.as_mut_ptr().add(i), d);
            _mm256_storeu_ps(residual.as_mut_ptr().add(i), r);
            acc = fold_squares(acc, r);
            i += 8;
        }
        for ((g, r), o) in grad[i..]
            .iter_mut()
            .zip(&mut residual[i..])
            .zip(&mut out[i..])
        {
            let e = super::int8_lane(g, r, scale, o, draw);
            acc += e * e;
        }
        acc
    }

    /// Vector absolute maximum (finite inputs).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn abs_max(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            acc = _mm256_max_ps(acc, _mm256_and_ps(x, mask));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
        for &x in &xs[i..] {
            m = m.max(x.abs());
        }
        m
    }

    /// 8-lane stochastic-rounding quantizer. The divide/floor/compare/clamp
    /// arithmetic is vectorized; draws are harvested per block for exactly
    /// the lanes whose fractional part is positive, in lane order, so the
    /// draw stream matches the scalar reference element for element.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn int8_quantize(
        xs: &[f32],
        scale: f32,
        out: &mut [u8],
        draw: &mut impl FnMut() -> u32,
    ) {
        let n = xs.len();
        let vscale = _mm256_set1_ps(scale);
        // 2⁻²⁴ as a multiply: exact for 24-bit draws, same result as the
        // scalar division by 2²⁴.
        let inv24 = _mm256_set1_ps(f32::from_bits(0x3380_0000));
        let mut us = [0.0f32; 8];
        let mut lanes = [0i32; 8];
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            let v = _mm256_div_ps(x, vscale);
            let lo = _mm256_floor_ps(v);
            let frac = _mm256_sub_ps(v, lo);
            let mut q = _mm256_cvttps_epi32(lo);
            let need = _mm256_cmp_ps::<_CMP_GT_OQ>(frac, _mm256_setzero_ps());
            let mask = _mm256_movemask_ps(need) as u32 & 0xFF;
            if mask != 0 {
                if mask == 0xFF {
                    for u in &mut us {
                        *u = (draw() >> 8) as f32;
                    }
                } else {
                    for (lane, u) in us.iter_mut().enumerate() {
                        *u = if mask & (1 << lane) != 0 {
                            (draw() >> 8) as f32
                        } else {
                            f32::INFINITY
                        };
                    }
                }
                let uv = _mm256_mul_ps(_mm256_loadu_ps(us.as_ptr()), inv24);
                let up = _mm256_cmp_ps::<_CMP_LT_OQ>(uv, frac);
                q = _mm256_sub_epi32(q, _mm256_castps_si256(up));
            }
            q = _mm256_min_epi32(q, _mm256_set1_epi32(127));
            q = _mm256_max_epi32(q, _mm256_set1_epi32(-127));
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), q);
            for (lane, &v) in lanes.iter().enumerate() {
                *out.get_unchecked_mut(i + lane) = v as u8;
            }
            i += 8;
        }
        super::int8_quantize_scalar(&xs[i..], scale, &mut out[i..], draw);
    }

    /// 8-lane dequantizer: `out[i] = bytes[i] as i8 as f32 * scale`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
        let n = out.len();
        let vscale = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let b = _mm_loadl_epi64(bytes.as_ptr().add(i).cast::<__m128i>());
            let q = _mm256_cvtepi8_epi32(b);
            let f = _mm256_mul_ps(_mm256_cvtepi32_ps(q), vscale);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), f);
            i += 8;
        }
        super::int8_dequantize_scalar(&bytes[i..], scale, &mut out[i..]);
    }

    /// Vectorized threshold scan: one compare rejects eight keys at a time;
    /// only blocks containing a candidate fall into per-lane classification.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn topk_scan(
        keys: &[u32],
        t: u32,
        tie_cap: usize,
        gt: &mut Vec<u32>,
        ties: &mut Vec<u32>,
    ) {
        let n = keys.len();
        // Keys are sign-cleared (≤ 0x7FFF_FFFF), so signed compares agree
        // with unsigned order; `t - 1` makes `> t-1` mean `>= t`, and for
        // t = 0 the wrap to -1 correctly flags every lane.
        let ge_bound = _mm256_set1_epi32((t as i32).wrapping_sub(1));
        let mut i = 0;
        while i + 8 <= n {
            let k = _mm256_loadu_si256(keys.as_ptr().add(i).cast::<__m256i>());
            let ge = _mm256_cmpgt_epi32(k, ge_bound);
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(ge)) as u32 & 0xFF;
            if mask != 0 {
                for lane in 0..8 {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let key = *keys.get_unchecked(i + lane);
                    if key > t {
                        gt.push((i + lane) as u32);
                    } else if ties.len() < tie_cap {
                        ties.push((i + lane) as u32);
                    }
                }
            }
            i += 8;
        }
        for (off, &key) in keys[i..].iter().enumerate() {
            if key > t {
                gt.push((i + off) as u32);
            } else if key == t && ties.len() < tie_cap {
                ties.push((i + off) as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        }
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        let mut d = lcg(seed);
        (0..len)
            .map(|_| (d() as f32 / (1u32 << 24) as f32) - 128.0)
            .collect()
    }

    #[test]
    fn force_scalar_override_roundtrips() {
        let was = forced_scalar();
        set_forced_scalar(true);
        assert!(forced_scalar());
        assert!(!active());
        set_forced_scalar(false);
        assert!(!forced_scalar());
        set_forced_scalar(was);
    }

    #[test]
    fn detected_features_names_are_stable() {
        let names: Vec<&str> = detected_features().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["avx2", "f16c", "sse4.1"]);
    }

    #[test]
    fn lossless_byte_views_roundtrip() {
        let xs = pseudo(37, 5);
        let mut buf = Vec::new();
        f32s_to_le_bytes(&xs, &mut buf);
        assert_eq!(buf.len(), xs.len() * 4);
        let mut back = vec![0.0f32; xs.len()];
        le_bytes_to_f32s(&buf, &mut back);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&xs), bits(&back));
    }

    #[test]
    fn magnitude_keys_order_matches_total_cmp() {
        let xs = [0.0f32, -0.0, 1.5, -1.5, f32::INFINITY, f32::NAN, 1e-40];
        let keys = magnitude_keys(&xs);
        for (i, a) in xs.iter().enumerate() {
            for (j, b) in xs.iter().enumerate() {
                assert_eq!(
                    a.abs().total_cmp(&b.abs()),
                    keys[i].cmp(&keys[j]),
                    "key order must mirror magnitude total order ({a} vs {b})"
                );
            }
        }
    }
}
