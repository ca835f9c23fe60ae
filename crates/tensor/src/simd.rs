//! The wire-codec hot loops, each with one source for its bits.
//!
//! **Plain lanes.** [`abs_max`], [`compensate_abs_max`], [`topk_scan`], the
//! int8 quantize step behind [`int8_quantize`] and [`feedback_int8`], and
//! [`int8_dequantize`] are safe Rust the compiler vectorises, one body per
//! kernel. Rust never contracts `a * b + c` into an FMA, and `floor`,
//! compares and the conversions used are exact, so one source gives the
//! same bits on every instruction set. The int8 bodies are compiled twice,
//! for the baseline target and for AVX2 behind [`active`], because SSE2 has
//! neither a vector `floor` nor a byte sign-extend.
//!
//! **F16C.** Stable Rust has no `f16`, so [`fp16_encode`], [`fp16_decode`]
//! and [`feedback_fp16`] keep `std::arch` pipelines on `vcvtps2ph` /
//! `vcvtph2ps` beside portable references (`*_scalar`), with NaN fix-ups
//! that keep the references' bits.
//!
//! **Keystream.** Int8 stochastic rounding takes its draws through
//! [`Draws::fill`], a run at a time, and a fill must leave its source
//! exactly where that many single draws would. Any `FnMut() -> u32` is a
//! source (one call per draw). `rna_simnet::SimRng` fills from
//! [`chacha8_blocks`], eight ChaCha8 blocks per pass: its draw is the high
//! word of a word pair, and every `SimRng` method takes words in pairs, so
//! a stream position is always pair-aligned and a draw never straddles two
//! blocks. ChaCha is counter mode, so the eight blocks are the words
//! [`chacha8_block`] computes one at a time. The AVX2 body keeps one block
//! per lane in `std::arch` code, because a plain-lane body was fast only
//! when built as one codegen unit.
//!
//! **Training kernels.** [`crate::dense`]'s `matmat`, `outer_acc`, `back`
//! and `tanh_in_place` are plain-lane bodies too, kept in that safe module
//! and built here twice like the int8 ones: the baseline build runs them
//! four floats wide, and the tanh port, all selects and integer lanes, runs
//! 1.8× faster with AVX2's blends and 256-bit integer ops.
//!
//! [`active`] is decided once per process: the AVX2 + F16C builds run when
//! the CPU reports both and `RNA_FORCE_SCALAR` is unset (CI sets it to keep
//! the portable builds covered); [`set_forced_scalar`] overrides it so tests
//! run both dispatches in one process.
//!
//! The contract is **bit-identity**: the same inputs and draw stream give
//! byte-identical frames, buffers and draw counts under either dispatch, so
//! same-seed replays do not depend on the host CPU. Non-finite input
//! included: the abs-max scans skip NaN as `f32::max` does, and an int8
//! element whose quotient is NaN or ±∞ takes no draw and quantizes as
//! Rust's saturating cast would (NaN → 0, ±∞ → ±127).
//! `tensor/tests/simd_codecs.rs` pins it; the keystream's bits are pinned
//! in `simnet/tests/keystream.rs`, where `SimRng` can be named.
//!
//! The error-feedback recurrence has one fused body per codec
//! (`feedback_*`): each element is compensated, encoded, dequantised and
//! its residual squared into the norm in a single pass.

// The one module allowed `unsafe`: F16C and ChaCha intrinsics and
// `target_feature` builds behind runtime detection, and byte-view casts
// over `f32` slices.
#![allow(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use crate::codec::{f16_bits_to_f32, f32_to_f16_bits};
use crate::dense;
use std::sync::atomic::{AtomicU8, Ordering};

/// Elements per block of the plain-lane kernels: one AVX2 register of `f32`.
const LANES: usize = 8;

/// Elements per int8 quantize step: whole-tile passes get full-width code
/// from the loop vectoriser, where an eight-lane block got two-lane pieces
/// (1.5× slower). Larger tiles stop overlapping arithmetic with draws.
const TILE: usize = 64;

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

/// Runs `f` while no other unit test of this crate flips the dispatch
/// mode, and restores the mode afterwards.
#[cfg(test)]
pub(crate) fn with_dispatch_lock<T>(f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let was = forced_scalar();
    let out = f();
    set_forced_scalar(was);
    out
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
// keystream
// ---------------------------------------------------------------------------

/// A stream of uniform `u32` draws for stochastic rounding.
pub trait Draws {
    /// Writes the next `out.len()` draws into `out`, in stream order, and
    /// leaves the stream exactly where that many single draws would.
    fn fill(&mut self, out: &mut [u32]);
}

/// A closure is a stream of single draws.
impl<F: FnMut() -> u32> Draws for F {
    fn fill(&mut self, out: &mut [u32]) {
        for o in out {
            *o = self();
        }
    }
}

/// "expand 32-byte k", ChaCha's first four state words.
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Writes block `counter` of the ChaCha8 keystream under `key` into `out`:
/// the RFC 7539 state (constants, 256-bit key, 64-bit block counter in
/// words 12–13, zero nonce) after four double rounds, plus the state
/// itself. Inlined across crates and written in place: it is `SimRng`'s
/// refill, once every eight single draws, and returning the block by value
/// cost single draws 5 %.
#[inline]
pub fn chacha8_block(key: &[u32; 8], counter: u64, out: &mut [u32; 16]) {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    let mut working = state;
    for _ in 0..4 {
        // One double round: column round + diagonal round.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for ((o, w), s) in out.iter_mut().zip(working).zip(state) {
        *o = w.wrapping_add(s);
    }
}

/// Eight consecutive ChaCha8 blocks: `out[b]` is what [`chacha8_block`]
/// writes for `counter + b`, the counter wrapping as a `u64`.
/// The AVX2 build computes one block per lane.
pub fn chacha8_blocks(key: &[u32; 8], counter: u64, out: &mut [[u32; 16]; 8]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::chacha8_blocks(key, counter, out) };
        return;
    }
    for (b, block) in (0u64..).zip(out.iter_mut()) {
        chacha8_block(key, counter.wrapping_add(b), block);
    }
}

// ---------------------------------------------------------------------------
// int8 stochastic rounding
// ---------------------------------------------------------------------------

/// The larger of a running maximum `m` and a magnitude `a`, keeping `m`
/// when `a` is NaN — `f32::max`'s answer, as one compare-and-select the
/// compiler vectorises (`f32::max` itself measured 1.7–2× slower here).
#[inline(always)]
fn max_of(m: f32, a: f32) -> f32 {
    if a > m {
        a
    } else {
        m
    }
}

/// Largest magnitude in `xs` (`0.0` for an empty slice), skipping NaN: the
/// fold `m.max(x.abs())`, bit for bit.
pub fn abs_max(xs: &[f32]) -> f32 {
    let (blocks, rest) = xs.as_chunks::<LANES>();
    let mut acc = [0.0f32; LANES];
    for block in blocks {
        for (a, &x) in acc.iter_mut().zip(block) {
            *a = max_of(*a, x.abs());
        }
    }
    let m = acc.into_iter().fold(0.0, max_of);
    rest.iter().fold(m, |m, &x| max_of(m, x.abs()))
}

/// Quantizes `xs` under `scale` with stochastic rounding into `out`
/// (`out.len() == xs.len()`, one `i8` stored as `u8` per element).
///
/// `draws` gives **exactly** one draw per element whose fractional part
/// is strictly positive, in element order, so the ChaCha codec stream
/// advances identically under either dispatch. Each element becomes
/// `⌊x / scale⌋` plus a stochastic round-up, clamped to ±127.
///
/// # Panics
///
/// Panics if `out.len() != xs.len()`.
pub fn int8_quantize(xs: &[f32], scale: f32, out: &mut [u8], draws: &mut impl Draws) {
    assert_eq!(out.len(), xs.len(), "int8 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 and F16C support at runtime.
        unsafe { avx2::int8_quantize(xs, scale, out, draws) };
        return;
    }
    quantize_lanes(xs, scale, out, draws);
}

/// The body of [`int8_quantize`], one tile at a time.
#[inline(always)]
fn quantize_lanes(xs: &[f32], scale: f32, out: &mut [u8], draws: &mut impl Draws) {
    let mut q = [0.0; TILE];
    for (x, o) in xs.chunks(TILE).zip(out.chunks_mut(TILE)) {
        let q = &mut q[..x.len()];
        quantize_tile(x, scale, q, draws);
        for (o, &q) in o.iter_mut().zip(q.iter()) {
            *o = int8_byte(q);
        }
    }
}

/// Int8 stochastic rounding of one tile (`xs.len() == q.len() <= TILE`),
/// `E[q · scale] = x` for in-range finite `x`: `q = ⌊x / scale⌋`, plus one
/// when a 24-bit uniform in `[0, 1)` falls below the fraction, clamped to
/// ±127, as integer-valued floats. One draw per element with a positive
/// fraction, in element order; none for a zero `scale` (all zeros). A NaN
/// or ±∞ quotient draws nothing and becomes what Rust's saturating cast
/// makes of it: NaN → 0, ±∞ → ±127.
#[inline(always)]
fn quantize_tile(xs: &[f32], scale: f32, q: &mut [f32], draws: &mut impl Draws) {
    if scale == 0.0 {
        q.fill(0.0);
        return;
    }
    let mut frac = [0.0f32; TILE];
    let frac = &mut frac[..xs.len()];
    for ((q, f), &x) in q.iter_mut().zip(frac.iter_mut()).zip(xs) {
        let v = x / scale;
        *q = v.floor();
        *f = v - *q;
    }
    // The tile's draws arrive as one run; the j-th goes to the j-th element
    // with a positive fraction. That element's index is at least j, so the
    // spread runs back to front and moves every draw before its slot is
    // overwritten. An element without a draw has a zero or NaN fraction,
    // which no `u` falls below, whatever its slot holds.
    let mut bits = [0u32; TILE];
    let mut k = frac.iter().filter(|&&f| f > 0.0).count();
    draws.fill(&mut bits[..k]);
    if k < frac.len() {
        for (i, &f) in frac.iter().enumerate().rev() {
            if f > 0.0 {
                k -= 1;
                bits[i] = bits[k];
            }
        }
    }
    for ((q, &f), &b) in q.iter_mut().zip(frac.iter()).zip(&bits) {
        let u = (b >> 8) as f32 / (1u32 << 24) as f32;
        // Always adding (even 0.0) turns a −0.0 floor into +0.0.
        let v = *q + if u < f { 1.0 } else { 0.0 };
        let v = if v > 127.0 { 127.0 } else { v };
        let v = if v < -127.0 { -127.0 } else { v };
        *q = if v.is_nan() { 0.0 } else { v };
    }
}

/// The wire byte of a quantized value `q`, an integer in ±127: adding
/// 1.5 · 2²³ leaves `q` in two's complement in the low mantissa bits. It is
/// `q as i8 as u8`, but vectorises: LLVM scalarises every saturating
/// float-to-int cast on x86.
#[inline(always)]
fn int8_byte(q: f32) -> u8 {
    (q + 12_582_912.0).to_bits() as u8
}

/// Dequantizes signed bytes back to `f32`,
/// `out[i] = bytes[i] as i8 as f32 * scale`, for every byte a peer may send
/// (−128 included).
///
/// # Panics
///
/// Panics if `bytes.len() != out.len()`.
pub fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len(), "int8 payload length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 and F16C support at runtime.
        unsafe { avx2::int8_dequantize(bytes, scale, out) };
        return;
    }
    dequantize_lanes(bytes, scale, out);
}

/// The body of [`int8_dequantize`].
#[inline(always)]
fn dequantize_lanes(bytes: &[u8], scale: f32, out: &mut [f32]) {
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
/// One branch-free `>= t` test per block of eight keys; only a block
/// holding a candidate is classified key by key, so for small keep
/// fractions almost every block is skipped.
pub fn topk_scan(keys: &[u32], t: u32, tie_cap: usize, gt: &mut Vec<u32>, ties: &mut Vec<u32>) {
    let mut classify = |keys: &[u32], base: usize| {
        for (i, &k) in keys.iter().enumerate() {
            let i = (base + i) as u32;
            if k > t {
                gt.push(i);
            } else if k == t && ties.len() < tie_cap {
                ties.push(i);
            }
        }
    };
    let (blocks, rest) = keys.as_chunks::<LANES>();
    for (b, block) in blocks.iter().enumerate() {
        if block.iter().fold(false, |any, &k| any | (k >= t)) {
            classify(block, b * LANES);
        }
    }
    classify(rest, blocks.len() * LANES);
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
/// magnitude, which fixes the frame's scale — [`abs_max`] over the
/// compensated values, bit for bit.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn compensate_abs_max(grad: &mut [f32], residual: &[f32]) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    let (g_blocks, g_rest) = grad.as_chunks_mut::<LANES>();
    let (r_blocks, r_rest) = residual.as_chunks::<LANES>();
    let mut acc = [0.0f32; LANES];
    for (g, r) in g_blocks.iter_mut().zip(r_blocks) {
        for ((a, g), &r) in acc.iter_mut().zip(g).zip(r) {
            *g += r;
            *a = max_of(*a, g.abs());
        }
    }
    let m = acc.into_iter().fold(0.0, max_of);
    g_rest.iter_mut().zip(r_rest).fold(m, |m, (g, &r)| {
        *g += r;
        max_of(m, g.abs())
    })
}

/// Int8 feedback, second sweep: quantises the compensated values in `grad`
/// under `scale` into `out`, leaves the dequantised values in `grad` and
/// `compensated − dequantised` in `residual`. Draws are consumed exactly as
/// [`int8_quantize`] consumes them, so this sweep is serial at every thread
/// count. Returns the in-order sum of squared residuals.
///
/// # Panics
///
/// Panics if the lengths disagree (`out.len() == grad.len()`).
pub fn feedback_int8(
    grad: &mut [f32],
    residual: &mut [f32],
    scale: f32,
    out: &mut [u8],
    draws: &mut impl Draws,
) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len(), "int8 output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 and F16C support at runtime.
        return unsafe { avx2::feedback_int8(grad, residual, scale, out, draws) };
    }
    feedback_int8_lanes(grad, residual, scale, out, draws)
}

/// The body of [`feedback_int8`], one tile at a time.
#[inline(always)]
fn feedback_int8_lanes(
    grad: &mut [f32],
    residual: &mut [f32],
    scale: f32,
    out: &mut [u8],
    draws: &mut impl Draws,
) -> f32 {
    let mut q = [0.0; TILE];
    let mut acc = NORM_ZERO;
    for ((g, r), o) in grad
        .chunks_mut(TILE)
        .zip(residual.chunks_mut(TILE))
        .zip(out.chunks_mut(TILE))
    {
        let q = &mut q[..g.len()];
        quantize_tile(g, scale, q, draws);
        for (((g, r), o), &q) in g.iter_mut().zip(r.iter_mut()).zip(o).zip(q.iter()) {
            let c = *g;
            *o = int8_byte(q);
            *g = q * scale;
            *r = c - *g;
        }
        acc = r.iter().fold(acc, |acc, &r| acc + r * r);
    }
    acc
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
// training kernels
// ---------------------------------------------------------------------------
//
// Where `dense`'s public kernels pick a build of their body.

pub(crate) fn matmat<'a>(
    w: &[f32],
    dim: usize,
    xs: impl ExactSizeIterator<Item = &'a [f32]>,
    tile: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::matmat(w, dim, xs, tile, out) };
        return;
    }
    dense::matmat_lanes(w, dim, xs, tile, out);
}

pub(crate) fn outer_acc(g: &mut [f32], coef: &[f32], x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::outer_acc(g, coef, x) };
        return;
    }
    dense::outer_acc_lanes(g, coef, x);
}

pub(crate) fn back(dx: &mut Vec<f32>, coef: &[f32], w: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::back(dx, coef, w) };
        return;
    }
    dense::back_lanes(dx, coef, w);
}

pub(crate) fn tanh(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` verified AVX2 support at runtime.
        unsafe { avx2::tanh(xs) };
        return;
    }
    dense::tanh_lanes(xs);
}

// ---------------------------------------------------------------------------
// AVX2 + F16C builds
// ---------------------------------------------------------------------------

/// The F16C pipelines, the AVX2 builds of the plain int8 and training
/// bodies and the eight-lane ChaCha8 keystream. Each may run only once
/// [`active`] has verified AVX2 and F16C; all are bit-identical to the
/// portable builds above.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::dense;
    use std::arch::x86_64::*;

    /// [`dense::matmat`]'s body, built for AVX2.
    #[target_feature(enable = "avx2")]
    pub fn matmat<'a>(
        w: &[f32],
        dim: usize,
        xs: impl ExactSizeIterator<Item = &'a [f32]>,
        tile: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        dense::matmat_lanes(w, dim, xs, tile, out);
    }

    /// [`dense::outer_acc`]'s body, built for AVX2.
    #[target_feature(enable = "avx2")]
    pub fn outer_acc(g: &mut [f32], coef: &[f32], x: &[f32]) {
        dense::outer_acc_lanes(g, coef, x);
    }

    /// [`dense::back`]'s body, built for AVX2.
    #[target_feature(enable = "avx2")]
    pub fn back(dx: &mut Vec<f32>, coef: &[f32], w: &[f32]) {
        dense::back_lanes(dx, coef, w);
    }

    /// [`dense::tanh_in_place`]'s body, built for AVX2.
    #[target_feature(enable = "avx2")]
    pub fn tanh(xs: &mut [f32]) {
        dense::tanh_lanes(xs);
    }

    /// [`super::int8_quantize`]'s body, built for AVX2.
    #[target_feature(enable = "avx2,f16c")]
    pub fn int8_quantize(xs: &[f32], scale: f32, out: &mut [u8], draws: &mut impl super::Draws) {
        super::quantize_lanes(xs, scale, out, draws);
    }

    /// [`super::int8_dequantize`]'s body, built for AVX2.
    #[target_feature(enable = "avx2,f16c")]
    pub fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
        super::dequantize_lanes(bytes, scale, out);
    }

    /// [`super::feedback_int8`]'s body, built for AVX2.
    #[target_feature(enable = "avx2,f16c")]
    pub fn feedback_int8(
        grad: &mut [f32],
        residual: &mut [f32],
        scale: f32,
        out: &mut [u8],
        draws: &mut impl super::Draws,
    ) -> f32 {
        super::feedback_int8_lanes(grad, residual, scale, out, draws)
    }

    /// [`super::chacha8_blocks`] with block `b` in lane `b` of sixteen
    /// state vectors: `vpshufb` rotates by 16 and 8, shift-or by 12 and 7,
    /// and an 8×8 transpose per half turns the lanes back into blocks.
    #[target_feature(enable = "avx2")]
    pub fn chacha8_blocks(key: &[u32; 8], counter: u64, out: &mut [[u32; 16]; 8]) {
        let mut input = [_mm256_setzero_si256(); 16];
        for (v, &w) in input
            .iter_mut()
            .zip(super::CHACHA_CONSTANTS.iter().chain(key))
        {
            *v = _mm256_set1_epi32(w as i32);
        }
        // Lane b's counter is `counter + b`, its carry included.
        let lo = |b| counter.wrapping_add(b) as i32;
        let hi = |b| (counter.wrapping_add(b) >> 32) as i32;
        input[12] = _mm256_setr_epi32(lo(0), lo(1), lo(2), lo(3), lo(4), lo(5), lo(6), lo(7));
        input[13] = _mm256_setr_epi32(hi(0), hi(1), hi(2), hi(3), hi(4), hi(5), hi(6), hi(7));
        #[rustfmt::skip]
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        #[rustfmt::skip]
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        let mut x = input;
        macro_rules! quarter_round {
            ($a:literal, $b:literal, $c:literal, $d:literal) => {
                x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot16);
                x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                let t = _mm256_xor_si256(x[$b], x[$c]);
                x[$b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
                x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot8);
                x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                let t = _mm256_xor_si256(x[$b], x[$c]);
                x[$b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
            };
        }
        for _ in 0..4 {
            quarter_round!(0, 4, 8, 12);
            quarter_round!(1, 5, 9, 13);
            quarter_round!(2, 6, 10, 14);
            quarter_round!(3, 7, 11, 15);
            quarter_round!(0, 5, 10, 15);
            quarter_round!(1, 6, 11, 12);
            quarter_round!(2, 7, 8, 13);
            quarter_round!(3, 4, 9, 14);
        }
        for (x, i) in x.iter_mut().zip(input) {
            *x = _mm256_add_epi32(*x, i);
        }
        // Half `h` holds words 8h..8h+8: interleave 32-bit then 64-bit
        // pairs, then take 128-bit halves (blocks b and b + 4).
        let mut rows = [[_mm256_setzero_si256(); 2]; 8];
        for (h, a) in x.chunks_exact(8).enumerate() {
            let t0 = _mm256_unpacklo_epi32(a[0], a[1]);
            let t1 = _mm256_unpackhi_epi32(a[0], a[1]);
            let t2 = _mm256_unpacklo_epi32(a[2], a[3]);
            let t3 = _mm256_unpackhi_epi32(a[2], a[3]);
            let t4 = _mm256_unpacklo_epi32(a[4], a[5]);
            let t5 = _mm256_unpackhi_epi32(a[4], a[5]);
            let t6 = _mm256_unpacklo_epi32(a[6], a[7]);
            let t7 = _mm256_unpackhi_epi32(a[6], a[7]);
            let pairs = [
                (_mm256_unpacklo_epi64(t0, t2), _mm256_unpacklo_epi64(t4, t6)),
                (_mm256_unpackhi_epi64(t0, t2), _mm256_unpackhi_epi64(t4, t6)),
                (_mm256_unpacklo_epi64(t1, t3), _mm256_unpacklo_epi64(t5, t7)),
                (_mm256_unpackhi_epi64(t1, t3), _mm256_unpackhi_epi64(t5, t7)),
            ];
            for (b, (lo, hi)) in pairs.into_iter().enumerate() {
                rows[b][h] = _mm256_permute2x128_si256::<0x20>(lo, hi);
                rows[b + 4][h] = _mm256_permute2x128_si256::<0x31>(lo, hi);
            }
        }
        // SAFETY: each store writes eight words inside one half of a
        // `[u32; 16]` block; unaligned stores need no alignment.
        unsafe {
            for (block, row) in out.iter_mut().zip(rows) {
                let (lo, hi) = block.split_at_mut(8);
                _mm256_storeu_si256(lo.as_mut_ptr().cast(), row[0]);
                _mm256_storeu_si256(hi.as_mut_ptr().cast(), row[1]);
            }
        }
    }

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
        with_dispatch_lock(|| {
            set_forced_scalar(true);
            assert!(forced_scalar());
            assert!(!active());
            set_forced_scalar(false);
            assert!(!forced_scalar());
        });
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
