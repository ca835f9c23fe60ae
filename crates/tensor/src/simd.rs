//! The wire-codec hot loops, each with one source for its bits.
//!
//! **Tiers.** Each dispatched kernel has a build per [`Tier`]: portable
//! (the baseline target), AVX2 + F16C + FMA, and AVX-512 F + BW + VL. The active
//! tier is decided once per process: the widest the CPU reports, or the
//! portable one when `RNA_FORCE_SCALAR` is set (CI sets it to keep the
//! portable builds covered); [`set_tier`] overrides it so tests walk every
//! tier the host has ([`tiers`]) in one process. Each kernel is one
//! `dispatch!` declaration — checks, portable body, and which vector builds
//! run — so the `unsafe` calls into `#[target_feature]` builds are written
//! once.
//!
//! **Plain lanes.** [`abs_max`], [`compensate_abs_max`], [`topk_scan`], the
//! int8 quantize step behind [`int8_quantize`] and [`feedback_int8`], and
//! [`int8_dequantize`] are safe Rust the compiler vectorises, one body per
//! kernel. Rust never contracts `a * b + c` into an FMA, and `floor`,
//! compares and the conversions used are exact, so one source gives the
//! same bits on every instruction set. The int8 bodies are compiled three
//! times, once per tier, because SSE2 has neither a vector `floor` nor a
//! byte sign-extend, and AVX-512 runs sixteen lanes where AVX2 runs eight.
//!
//! **F16C.** Stable Rust has no `f16`, so [`fp16_encode`], [`fp16_decode`]
//! and [`feedback_fp16`] keep `std::arch` pipelines on `vcvtps2ph` /
//! `vcvtph2ps` beside portable references (`*_scalar`), with NaN fix-ups
//! that keep the references' bits. Both vector tiers run the AVX2 build.
//!
//! **Keystream.** Int8 stochastic rounding takes its draws through
//! [`Draws::fill`], a tile at a time, and a fill must leave its source
//! exactly where that many single draws would. Any `FnMut() -> u32` is a
//! source (one call per draw). `rna_simnet::SimRng` fills from
//! [`chacha8_high_words`]: its draw is the high word of a word pair, and
//! every `SimRng` method takes words in pairs, so a stream position is
//! always pair-aligned, a draw never straddles two blocks, and draw `j` of
//! a block is word `2j + 1`. ChaCha is counter mode, so a run of blocks
//! side by side gives the words [`chacha8_block`] computes one at a time.
//! The kernel writes only the high words, straight into the caller's
//! draws, plus the whole last block when a run ends part-way through it
//! (the generator's current block). The vector builds keep one block per
//! lane in `std::arch` code — eight per AVX2 pass, sixteen per AVX-512
//! pass with native rotates — and transpose only the eight odd-word
//! vectors, because a plain-lane body was fast only when built as one
//! codegen unit.
//!
//! **Training kernels.** [`crate::dense`]'s `matmat`, `outer_acc`, `back`,
//! the softmax tile pass (`linear_scores`, `linear_xent`, `softmax_xent`)
//! and the tanh and exp ports are plain-lane bodies too, kept in that safe
//! module and built here once per tier like the int8 ones: the baseline
//! build runs them four floats wide, and the tanh port, all selects and
//! integer lanes, runs 1.8× faster with AVX2's blends and 256-bit integer
//! ops. A softmax tile is one dispatched call. The vector tiers enable
//! FMA for the exp port's four `mul_add`s, the one place a body fuses
//! (glibc's FMA build fuses there); every other body is unchanged by it,
//! since Rust never contracts `a * b + c` on its own.
//!
//! The contract is **bit-identity**: the same inputs and draw stream give
//! byte-identical frames, buffers and draw counts under every tier, so
//! same-seed replays do not depend on the host CPU. Non-finite input
//! included: the abs-max scans skip NaN as `f32::max` does, and an int8
//! element whose quotient is NaN or ±∞ takes no draw and quantizes as
//! Rust's saturating cast would (NaN → 0, ±∞ → ±127).
//! `tensor/tests/simd_codecs.rs` pins it; the keystream's bits are pinned
//! in `simnet/tests/keystream.rs`, where `SimRng` can be named.
//!
//! The error-feedback recurrence has one fused body per lossy codec
//! (`feedback_*`; lossless carries no residual): each element is
//! compensated, encoded and dequantised in a single pass, and the
//! residual's norm is [`sum_squares`], one fixed eight-lane order.

// The one module allowed `unsafe`: F16C and ChaCha intrinsics and
// `target_feature` builds behind runtime detection, and byte-view casts
// over `f32` slices.
#![allow(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

use crate::codec::{f16_bits_to_f32, f32_to_f16_bits};
use crate::dense;
use std::sync::atomic::{AtomicU8, Ordering};

/// Elements per block of the plain-lane kernels: the fixed eight-lane order
/// the residual norm ([`sum_squares`]) is defined in, whatever the tier.
const LANES: usize = 8;

/// Elements per int8 quantize step. Whole-tile passes get full-width code
/// from the loop vectoriser, where an eight-lane block got two-lane pieces
/// (1.5× slower), and a tile's draws are one [`Draws::fill`]: 1 Ki draws
/// span eight whole keystream passes, where 64-element tiles paid a partial
/// pass and a call per tile (65 536 draws took 80–84 µs in one fill, 141–148
/// µs in 63-draw fills).
const TILE: usize = 1024;

/// A build of the dispatched kernels, in increasing vector width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The baseline target's builds, what every host runs (SSE2 on x86-64).
    Portable,
    /// AVX2 + F16C + FMA.
    Avx2,
    /// AVX-512 F + BW + VL, beside the AVX2 + F16C + FMA builds.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// The tier's name in reports and test messages.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// The active tier plus one; 0 = undecided.
static TIER: AtomicU8 = AtomicU8::new(0);

/// The widest tier this CPU runs, whatever the override.
pub fn best_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("f16c") && has!("fma") {
            return if has!("avx512f") && has!("avx512bw") && has!("avx512vl") {
                Tier::Avx512
            } else {
                Tier::Avx2
            };
        }
    }
    Tier::Portable
}

/// Every tier this CPU runs, portable first: what a bit-identity test walks.
pub fn tiers() -> impl Iterator<Item = Tier> {
    let best = best_tier();
    Tier::ALL.into_iter().filter(move |&t| t <= best)
}

/// The tier the kernels run: [`best_tier`], or [`Tier::Portable`] when
/// `RNA_FORCE_SCALAR` is set (to any value other than empty or `0`), until
/// [`set_tier`] overrides it. Decided once and cached.
pub fn tier() -> Tier {
    match TIER.load(Ordering::Relaxed) {
        0 => {
            let forced = std::env::var("RNA_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
            let tier = if forced { Tier::Portable } else { best_tier() };
            TIER.store(tier as u8 + 1, Ordering::Relaxed);
            tier
        }
        n => Tier::ALL[usize::from(n) - 1],
    }
}

/// Runs the kernels at `tier`, overriding the environment, so tests pin
/// bit-identity across every tier in one process.
///
/// # Panics
///
/// Panics if the CPU does not run `tier` (see [`tiers`]).
pub fn set_tier(tier: Tier) {
    assert!(tier <= best_tier(), "this CPU has no {} tier", tier.name());
    TIER.store(tier as u8 + 1, Ordering::Relaxed);
}

/// Detected CPU features relevant to the kernels, for report headers
/// (numbers are only comparable across machines of the same tier).
pub fn detected_features() -> Vec<(&'static str, bool)> {
    const NAMES: [&str; 6] = ["avx2", "f16c", "sse4.1", "avx512f", "avx512bw", "avx512vl"];
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        let on = [
            has!("avx2"),
            has!("f16c"),
            has!("sse4.1"),
            has!("avx512f"),
            has!("avx512bw"),
            has!("avx512vl"),
        ];
        NAMES.into_iter().zip(on).collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        NAMES.into_iter().map(|n| (n, false)).collect()
    }
}

/// Declares kernels that run the build of the active [`tier`], after the
/// checks (length asserts); the portable tier runs the body. The vector
/// builds are
/// - `avx2 { body }`: the same-named `mod avx2` function at both vector
///   tiers;
/// - `avx512 { body }`: the same-named `mod avx2` and `mod avx512` functions;
/// - `twin { body }`: the body built again as two `#[target_feature]` twins
///   in a module named after the kernel. Out of the dispatcher's codegen
///   unit, each build inlines its own copy of the body's generic helpers (a
///   copy they share is built without AVX2). `twin(wide) { body }` runs the
///   AVX-512 twin only where the expression `wide` holds, the AVX2 one
///   otherwise.
macro_rules! dispatch {
    (@emit $(#[$attr:meta])* $vis:vis fn $name:ident $(<$lt:lifetime>)?
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)? { $($check:expr;)* }
        $avx2:path, $avx512:path where $wide:expr; { $($twin:item)? } $body:block
    ) => {
        $($twin)?
        $(#[$attr])*
        $vis fn $name $(<$lt>)? ($($arg: $ty),*) $(-> $ret)? {
            $($check;)*
            #[cfg(target_arch = "x86_64")]
            match tier() {
                // SAFETY: `tier()` names a vector tier only once the CPU has
                // reported every feature its builds enable (AVX-512 F, BW
                // and VL on top of AVX2, F16C and FMA); the hand-written
                // builds' length contracts are the checks asserted above.
                Tier::Avx512 if $wide => return unsafe { $avx512($($arg),*) },
                // SAFETY: as above, AVX2, F16C and FMA.
                Tier::Avx2 | Tier::Avx512 => return unsafe { $avx2($($arg),*) },
                Tier::Portable => {}
            }
            $body
        }
    };
    ($($(#[$attr:meta])* $vis:vis fn $name:ident $(<$lt:lifetime>)?
        ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? { $($check:expr;)* }
        avx2 $body:block
    )+) => {$(
        dispatch! { @emit $(#[$attr])* $vis fn $name $(<$lt>)?
            ($($arg: $ty),*) $(-> $ret)? { $($check;)* }
            avx2::$name, avx2::$name where true; {} $body
        }
    )+};
    ($($(#[$attr:meta])* $vis:vis fn $name:ident $(<$lt:lifetime>)?
        ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? { $($check:expr;)* }
        avx512 $body:block
    )+) => {$(
        dispatch! { @emit $(#[$attr])* $vis fn $name $(<$lt>)?
            ($($arg: $ty),*) $(-> $ret)? { $($check;)* }
            avx2::$name, avx512::$name where true; {} $body
        }
    )+};
    ($($(#[$attr:meta])* $vis:vis fn $name:ident $(<$lt:lifetime>)?
        ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? { $($check:expr;)* }
        twin $(($wide:expr))? $body:block
    )+) => {$(
        dispatch! { @emit $(#[$attr])* $vis fn $name $(<$lt>)?
            ($($arg: $ty),*) $(-> $ret)? { $($check;)* }
            $name::avx2, $name::avx512 where true $(&& $wide)?; {
                #[cfg(target_arch = "x86_64")]
                mod $name {
                    use super::*;
                    #[target_feature(enable = "avx2,f16c,fma")]
                    pub(super) fn avx2 $(<$lt>)? ($($arg: $ty),*) $(-> $ret)? $body
                    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx2,f16c,fma")]
                    pub(super) fn avx512 $(<$lt>)? ($($arg: $ty),*) $(-> $ret)? $body
                }
            }
            $body
        }
    )+};
}

// ---------------------------------------------------------------------------
// fp16
// ---------------------------------------------------------------------------

dispatch! {
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
    } avx2 {
        fp16_encode_scalar(xs, out);
    }
}

/// The portable reference for [`fp16_encode`].
pub fn fp16_encode_scalar(xs: &[f32], out: &mut [u8]) {
    for (o, &x) in out.chunks_exact_mut(2).zip(xs) {
        o.copy_from_slice(&f32_to_f16_bits(x).to_le_bytes());
    }
}

dispatch! {
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
    } avx2 {
        fp16_decode_scalar(bytes, out);
    }
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

dispatch! {
    /// The high words of ChaCha8 blocks `counter`, `counter + 1`, … (the
    /// counter wrapping as a `u64`): `out[8b + j]` is word `2j + 1` of what
    /// [`chacha8_block`] writes for `counter + b`, over `⌈out.len() / 8⌉`
    /// blocks. When `out.len()` is not a multiple of eight the last block
    /// is used part-way, and it is also written whole into `partial`;
    /// otherwise `partial` is left as it was. The vector builds compute one
    /// block per lane, eight per AVX2 pass and sixteen per AVX-512 pass,
    /// and store the high words straight from the lanes.
    pub fn chacha8_high_words(
        key: &[u32; 8],
        counter: u64,
        out: &mut [u32],
        partial: &mut [u32; 16],
    ) {} avx512 {
        let (whole, tail) = out.as_chunks_mut::<8>();
        let used = whole.len() as u64;
        let mut block = [0u32; 16];
        for (b, o) in (0u64..).zip(whole) {
            chacha8_block(key, counter.wrapping_add(b), &mut block);
            high_words(&block, o);
        }
        if !tail.is_empty() {
            chacha8_block(key, counter.wrapping_add(used), partial);
            high_words(partial, tail);
        }
    }
}

/// Word `2j + 1` of `block` into `out[j]`, for the first `out.len()` pairs.
#[inline]
fn high_words(block: &[u32; 16], out: &mut [u32]) {
    for (o, pair) in out.iter_mut().zip(block.as_chunks::<2>().0) {
        *o = pair[1];
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

dispatch! {
    /// Quantizes `xs` under `scale` with stochastic rounding into `out`
    /// (`out.len() == xs.len()`, one `i8` stored as `u8` per element).
    ///
    /// `draws` gives **exactly** one draw per element whose fractional part
    /// is strictly positive, in element order, so the ChaCha codec stream
    /// advances identically under every tier. Each element becomes
    /// `⌊x / scale⌋` plus a stochastic round-up, clamped to ±127.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()`.
    pub fn int8_quantize(xs: &[f32], scale: f32, out: &mut [u8], draws: &mut impl Draws) {
        assert_eq!(out.len(), xs.len(), "int8 output length mismatch");
    } twin {
        quantize_lanes(xs, scale, out, draws);
    }
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

dispatch! {
    /// Dequantizes signed bytes back to `f32`,
    /// `out[i] = bytes[i] as i8 as f32 * scale`, for every byte a peer may send
    /// (−128 included).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != out.len()`.
    pub fn int8_dequantize(bytes: &[u8], scale: f32, out: &mut [f32]) {
        assert_eq!(bytes.len(), out.len(), "int8 payload length mismatch");
    } twin {
        dequantize_lanes(bytes, scale, out);
    }
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
// residual norm
// ---------------------------------------------------------------------------

/// The neutral element of `Sum for f32`. Every lane and the lane fold start
/// from it, so an empty slice's sum of squares is −0.0.
const NORM_ZERO: f32 = -0.0;

/// The sum of squares of `xs` in the one fixed order every residual norm
/// uses: element `i` of each whole block of eight is squared into lane
/// `i % 8`, the lanes are then added in order onto −0.0, and the tail's
/// squares follow in order. Eight independent add chains keep the fold off
/// a sweep's critical path; the fused feedback bodies fold in this order as
/// they sweep, so their norms keep the same bits under every tier and
/// at every thread count.
pub fn sum_squares(xs: &[f32]) -> f32 {
    let (blocks, tail) = xs.as_chunks::<LANES>();
    let mut lanes = [NORM_ZERO; LANES];
    for block in blocks {
        square_into(&mut lanes, block);
    }
    finish_squares(lanes, tail)
}

/// Squares block element `j` into lane `j`.
#[inline(always)]
fn square_into(lanes: &mut [f32; LANES], block: &[f32; LANES]) {
    for (l, &x) in lanes.iter_mut().zip(block) {
        *l += x * x;
    }
}

/// The end of [`sum_squares`]'s order: the lanes onto −0.0, then the
/// squares of the `tail` after the last whole block.
#[inline(always)]
fn finish_squares(lanes: [f32; LANES], tail: &[f32]) -> f32 {
    let sum = lanes.into_iter().fold(NORM_ZERO, |s, l| s + l);
    tail.iter().fold(sum, |s, &x| s + x * x)
}

// ---------------------------------------------------------------------------
// fused error-feedback bodies
// ---------------------------------------------------------------------------
//
// One body per lossy codec for `codec::encode_with_feedback_append`
// (lossless carries no residual and is a plain copy there). On entry
// `grad` holds the fresh gradient and `residual` the carried error; each
// element is compensated (`c = grad + residual`), encoded into the wire
// payload, decoded again into `grad`, and its new residual `c − grad` is
// stored. The per-element arithmetic is exactly the six-sweep recurrence's,
// so frames, buffers and draw counts keep their bits. Each body returns
// the residual's [`sum_squares`]: fp16 folds each block of eight into the
// lanes as it sweeps, int8 each tile once it is quantised, and top-k sums
// the finished residual.

dispatch! {
    /// Fused fp16 feedback, one sweep: compensate, round to binary16, write
    /// the wire lane, leave the half's value in `grad` and the rounding error
    /// in `residual`. Returns the residual's [`sum_squares`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree (`out.len() == 2 * grad.len()`).
    pub fn feedback_fp16(grad: &mut [f32], residual: &mut [f32], out: &mut [u8]) -> f32 {
        assert_eq!(residual.len(), grad.len(), "residual length mismatch");
        assert_eq!(out.len(), grad.len() * 2, "fp16 output length mismatch");
    } avx2 {
        feedback_fp16_scalar(grad, residual, out)
    }
}

/// The portable reference for [`feedback_fp16`].
///
/// # Panics
///
/// Panics if the lengths disagree.
pub fn feedback_fp16_scalar(grad: &mut [f32], residual: &mut [f32], out: &mut [u8]) -> f32 {
    assert_eq!(residual.len(), grad.len(), "residual length mismatch");
    assert_eq!(out.len(), grad.len() * 2, "fp16 output length mismatch");
    let (g_blocks, g_rest) = grad.as_chunks_mut::<LANES>();
    let (r_blocks, r_rest) = residual.as_chunks_mut::<LANES>();
    let (o_blocks, o_rest) = out.as_chunks_mut::<{ 2 * LANES }>();
    let mut lanes = [NORM_ZERO; LANES];
    for ((g, r), o) in g_blocks.iter_mut().zip(r_blocks).zip(o_blocks) {
        for (((l, g), r), o) in lanes.iter_mut().zip(g).zip(r).zip(o.chunks_exact_mut(2)) {
            let e = fp16_lane(g, r, o);
            *l += e * e;
        }
    }
    fp16_tail(lanes, g_rest, r_rest, o_rest)
}

/// Both fp16 builds' last step: the elements after the last whole block,
/// then [`finish_squares`] over the `lanes` the blocks filled.
#[inline(always)]
fn fp16_tail(lanes: [f32; LANES], grad: &mut [f32], residual: &mut [f32], out: &mut [u8]) -> f32 {
    for ((g, r), o) in grad
        .iter_mut()
        .zip(&mut *residual)
        .zip(out.chunks_exact_mut(2))
    {
        fp16_lane(g, r, o);
    }
    finish_squares(lanes, residual)
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

dispatch! {
    /// Int8 feedback, second sweep: quantises the compensated values in `grad`
    /// under `scale` into `out`, leaves the dequantised values in `grad` and
    /// `compensated − dequantised` in `residual`. Draws are consumed exactly as
    /// [`int8_quantize`] consumes them, so this sweep is serial at every thread
    /// count. Returns the residual's [`sum_squares`].
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
    } twin {
        feedback_int8_lanes(grad, residual, scale, out, draws)
    }
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
    const { assert!(TILE.is_multiple_of(LANES), "a tile holds whole blocks") };
    let mut q = [0.0; TILE];
    let mut lanes = [NORM_ZERO; LANES];
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
        for block in r.as_chunks::<LANES>().0 {
            square_into(&mut lanes, block);
        }
    }
    finish_squares(lanes, &residual[residual.len() / LANES * LANES..])
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
/// the select pass, not this sweep, is top-k's cost. Returns the residual's
/// [`sum_squares`].
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
    for (i, (g, r)) in grad.iter_mut().zip(&mut *residual).enumerate() {
        let c = *g;
        if next.next_if(|&&k| k as usize == i).is_some() {
            let pair = pairs.next().expect("one pair per kept index");
            pair[..4].copy_from_slice(&(i as u32).to_le_bytes());
            pair[4..].copy_from_slice(&c.to_le_bytes());
        } else {
            *g = 0.0;
        }
        *r = c - *g;
    }
    assert!(
        next.next().is_none(),
        "kept indices must ascend within grad"
    );
    sum_squares(residual)
}

// ---------------------------------------------------------------------------
// training kernels
// ---------------------------------------------------------------------------
//
// Where `dense`'s public kernels pick a build of their body.

/// The fewest weights a [`dense::matmat`] layer needs before the AVX-512
/// tier runs its 512-bit build; smaller layers run the AVX2 one. That build
/// stores each result lane to its sample with `vscatterqps`, which a
/// 240 × 256 layer amortises (47–50 µs per 16-sample tile, AVX2 57–63 µs)
/// and a 4 × 8 layer does not (390–1 380 ns, AVX2 210–240 ns).
const AVX512_MIN_WEIGHTS: usize = 4096;

dispatch! {
    pub(crate) fn matmat<'a>(
        w: &[f32],
        dim: usize,
        xs: impl ExactSizeIterator<Item = &'a [f32]>,
        tile: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {} twin(w.len() >= AVX512_MIN_WEIGHTS) {
        dense::matmat_lanes(w, dim, xs, tile, out);
    }

    pub(crate) fn outer_acc<'a>(
        g: &mut [f32],
        coefs: &[f32],
        xs: impl ExactSizeIterator<Item = &'a [f32]>,
    ) {} twin {
        dense::outer_acc_lanes(g, coefs, xs);
    }

    pub(crate) fn back(dx: &mut Vec<f32>, coef: &[f32], w: &[f32]) {} twin {
        dense::back_lanes(dx, coef, w);
    }

    pub(crate) fn tanh(xs: &mut [f32]) {} twin {
        dense::tanh_lanes(xs);
    }

    pub(crate) fn exp(xs: &mut [f32]) {} twin {
        dense::exp_lanes(xs);
    }

    pub(crate) fn linear_scores<'a>(
        w: &[f32],
        b: &[f32],
        xs: impl ExactSizeIterator<Item = &'a [f32]>,
        tile: &mut Vec<f32>,
        rows: &mut Vec<f32>,
        scores: &mut Vec<f32>,
    ) {} twin {
        dense::linear_scores_lanes(w, b, xs, tile, rows, scores);
    }

    pub(crate) fn linear_xent<'a>(
        w: &[f32],
        b: &[f32],
        xs: impl ExactSizeIterator<Item = &'a [f32]>,
        labels: impl Iterator<Item = usize>,
        grad: &mut [f32],
        tile: &mut Vec<f32>,
        rows: &mut Vec<f32>,
    ) -> [f32; dense::LANES] {} twin {
        dense::linear_xent_lanes(w, b, xs, labels, grad, tile, rows)
    }

    pub(crate) fn softmax_xent(
        logits: &[f32],
        classes: usize,
        labels: impl Iterator<Item = usize>,
        rows: &mut Vec<f32>,
        dlogits: &mut Vec<f32>,
    ) -> [f32; dense::LANES] {} twin {
        dense::softmax_xent_rows(logits, classes, labels, rows, dlogits)
    }
}

// ---------------------------------------------------------------------------
// AVX2 + F16C builds
// ---------------------------------------------------------------------------

/// The F16C pipelines and the eight-lane ChaCha8 keystream. Each may run
/// only once [`tier`] has verified AVX2 and F16C; all are bit-identical to
/// the portable builds above.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// [`super::chacha8_high_words`], eight blocks per pass: a whole pass
    /// stores its high words straight into `out`, a part-used last pass
    /// through a staging buffer.
    #[target_feature(enable = "avx2")]
    pub fn chacha8_high_words(
        key: &[u32; 8],
        mut counter: u64,
        out: &mut [u32],
        partial: &mut [u32; 16],
    ) {
        let (passes, rest) = out.as_chunks_mut::<64>();
        for pass in passes {
            let (x, input) = eight_blocks(key, counter);
            high_rows(&x, &input, pass);
            counter = counter.wrapping_add(8);
        }
        if !rest.is_empty() {
            let (x, input) = eight_blocks(key, counter);
            let mut staged = [0u32; 64];
            high_rows(&x, &input, &mut staged);
            rest.copy_from_slice(&staged[..rest.len()]);
            if !rest.len().is_multiple_of(8) {
                let mut words = [[0u32; 8]; 16];
                for ((w, x), i) in words.iter_mut().zip(x).zip(input) {
                    // SAFETY: one unaligned store of eight words into a
                    // `[u32; 8]`.
                    unsafe { _mm256_storeu_si256(w.as_mut_ptr().cast(), _mm256_add_epi32(x, i)) };
                }
                for (p, w) in partial.iter_mut().zip(words) {
                    *p = w[rest.len() / 8];
                }
            }
        }
    }

    /// The input state of blocks `counter..counter + 8` and the state
    /// after the rounds, without the feed-forward add, block `b` in lane
    /// `b` of sixteen vectors: `vpshufb` rotates by 16 and 8, shift-or by
    /// 12 and 7.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn eight_blocks(key: &[u32; 8], counter: u64) -> ([__m256i; 16], [__m256i; 16]) {
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
        (x, input)
    }

    /// The eight blocks' high words into `out`, block `b` at `8b`: the
    /// feed-forward add on the odd words only, then one 8×8 transpose of
    /// those eight vectors (32- then 64-bit interleaves, then 128-bit
    /// halves: blocks `b` and `b + 4`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn high_rows(x: &[__m256i; 16], input: &[__m256i; 16], out: &mut [u32; 64]) {
        let mut a = [_mm256_setzero_si256(); 8];
        for (j, a) in a.iter_mut().enumerate() {
            *a = _mm256_add_epi32(x[2 * j + 1], input[2 * j + 1]);
        }
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
        let (rows, _) = out.as_chunks_mut::<8>();
        let (front, back) = rows.split_at_mut(4);
        for ((f, b), (lo, hi)) in front.iter_mut().zip(back).zip(pairs) {
            // SAFETY: two unaligned stores of eight words, each into a
            // `[u32; 8]` row.
            unsafe {
                _mm256_storeu_si256(
                    f.as_mut_ptr().cast(),
                    _mm256_permute2x128_si256::<0x20>(lo, hi),
                );
                _mm256_storeu_si256(
                    b.as_mut_ptr().cast(),
                    _mm256_permute2x128_si256::<0x31>(lo, hi),
                );
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

    /// Fused fp16 feedback, eight lanes per step: the decoded value is
    /// `vcvtph2ps` of the canonical half just written, so it matches
    /// [`crate::codec::f16_bits_to_f32`] without the decode fix-up. The
    /// squared residuals go into one `__m256` of lanes, multiply then add
    /// (never an FMA), as the portable body's `[f32; 8]` takes them.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and F16C support, and the lengths
    /// (`residual.len() == grad.len()`, `out.len() == 2 * grad.len()`).
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn feedback_fp16(grad: &mut [f32], residual: &mut [f32], out: &mut [u8]) -> f32 {
        let n = grad.len();
        let mut acc = _mm256_set1_ps(super::NORM_ZERO);
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
            acc = _mm256_add_ps(acc, _mm256_mul_ps(r, r));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        super::fp16_tail(lanes, &mut grad[i..], &mut residual[i..], &mut out[2 * i..])
    }
}

/// The sixteen-block ChaCha8 keystream. It may run only once [`tier`] has
/// verified AVX-512 F; it is bit-identical to the portable build.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// [`super::chacha8_high_words`], sixteen blocks per pass: a whole
    /// pass stores its high words straight into `out`, a part-used last
    /// pass through a staging buffer.
    #[target_feature(enable = "avx512f")]
    pub fn chacha8_high_words(
        key: &[u32; 8],
        mut counter: u64,
        out: &mut [u32],
        partial: &mut [u32; 16],
    ) {
        let (passes, rest) = out.as_chunks_mut::<128>();
        for pass in passes {
            let (x, input) = sixteen_blocks(key, counter);
            high_rows(&x, &input, pass);
            counter = counter.wrapping_add(16);
        }
        if !rest.is_empty() {
            let (x, input) = sixteen_blocks(key, counter);
            let mut staged = [0u32; 128];
            high_rows(&x, &input, &mut staged);
            rest.copy_from_slice(&staged[..rest.len()]);
            if !rest.len().is_multiple_of(8) {
                let mut words = [[0u32; 16]; 16];
                for ((w, x), i) in words.iter_mut().zip(x).zip(input) {
                    // SAFETY: one unaligned store of sixteen words into a
                    // `[u32; 16]`.
                    unsafe { _mm512_storeu_si512(w.as_mut_ptr().cast(), _mm512_add_epi32(x, i)) };
                }
                for (p, w) in partial.iter_mut().zip(words) {
                    *p = w[rest.len() / 8];
                }
            }
        }
    }

    /// The input state of blocks `counter..counter + 16` and the state
    /// after the rounds, without the feed-forward add, block `b` in lane
    /// `b` of sixteen vectors: every rotate is one `vprold`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sixteen_blocks(key: &[u32; 8], counter: u64) -> ([__m512i; 16], [__m512i; 16]) {
        let mut input = [_mm512_setzero_si512(); 16];
        for (v, &w) in input
            .iter_mut()
            .zip(super::CHACHA_CONSTANTS.iter().chain(key))
        {
            *v = _mm512_set1_epi32(w as i32);
        }
        // Lane b's counter is `counter + b`, its carry included.
        let lo = |b| counter.wrapping_add(b) as i32;
        let hi = |b| (counter.wrapping_add(b) >> 32) as i32;
        #[rustfmt::skip]
        let (l, h) = (
            _mm512_setr_epi32(
                lo(0), lo(1), lo(2), lo(3), lo(4), lo(5), lo(6), lo(7),
                lo(8), lo(9), lo(10), lo(11), lo(12), lo(13), lo(14), lo(15),
            ),
            _mm512_setr_epi32(
                hi(0), hi(1), hi(2), hi(3), hi(4), hi(5), hi(6), hi(7),
                hi(8), hi(9), hi(10), hi(11), hi(12), hi(13), hi(14), hi(15),
            ),
        );
        input[12] = l;
        input[13] = h;
        let mut x = input;
        macro_rules! quarter_round {
            ($a:literal, $b:literal, $c:literal, $d:literal) => {
                x[$a] = _mm512_add_epi32(x[$a], x[$b]);
                x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[$d], x[$a]));
                x[$c] = _mm512_add_epi32(x[$c], x[$d]);
                x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[$b], x[$c]));
                x[$a] = _mm512_add_epi32(x[$a], x[$b]);
                x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[$d], x[$a]));
                x[$c] = _mm512_add_epi32(x[$c], x[$d]);
                x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[$b], x[$c]));
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
        (x, input)
    }

    /// The sixteen blocks' high words into `out`, block `b` at `8b`: the
    /// feed-forward add on the odd words only, then a transpose of those
    /// eight vectors. Interleaving 32- then 64-bit pairs leaves words
    /// `4g..4g + 4` of block `4k + r` in 128-bit lane `k` of `quad[r][g]`;
    /// a 4×4 transpose of 128-bit lanes over `quad[2p]` and `quad[2p + 1]`
    /// then gives blocks `4k + 2p` and `4k + 2p + 1` side by side, one
    /// sixteen-word store.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn high_rows(x: &[__m512i; 16], input: &[__m512i; 16], out: &mut [u32; 128]) {
        let mut a = [_mm512_setzero_si512(); 8];
        for (j, a) in a.iter_mut().enumerate() {
            *a = _mm512_add_epi32(x[2 * j + 1], input[2 * j + 1]);
        }
        let mut quad = [[_mm512_setzero_si512(); 2]; 4];
        for (g, a) in a.chunks_exact(4).enumerate() {
            let t0 = _mm512_unpacklo_epi32(a[0], a[1]);
            let t1 = _mm512_unpackhi_epi32(a[0], a[1]);
            let t2 = _mm512_unpacklo_epi32(a[2], a[3]);
            let t3 = _mm512_unpackhi_epi32(a[2], a[3]);
            quad[0][g] = _mm512_unpacklo_epi64(t0, t2);
            quad[1][g] = _mm512_unpackhi_epi64(t0, t2);
            quad[2][g] = _mm512_unpacklo_epi64(t1, t3);
            quad[3][g] = _mm512_unpackhi_epi64(t1, t3);
        }
        let (rows, _) = out.as_chunks_mut::<16>();
        for (p, pair) in quad.chunks_exact(2).enumerate() {
            let [a, b, c, d] = [pair[0][0], pair[0][1], pair[1][0], pair[1][1]];
            let ab01 = _mm512_shuffle_i32x4::<0x44>(a, b);
            let ab23 = _mm512_shuffle_i32x4::<0xEE>(a, b);
            let cd01 = _mm512_shuffle_i32x4::<0x44>(c, d);
            let cd23 = _mm512_shuffle_i32x4::<0xEE>(c, d);
            let lanes = [
                _mm512_shuffle_i32x4::<0x88>(ab01, cd01),
                _mm512_shuffle_i32x4::<0xDD>(ab01, cd01),
                _mm512_shuffle_i32x4::<0x88>(ab23, cd23),
                _mm512_shuffle_i32x4::<0xDD>(ab23, cd23),
            ];
            for (k, lane) in lanes.into_iter().enumerate() {
                // SAFETY: one unaligned store of sixteen words into a
                // `[u32; 16]` row.
                unsafe { _mm512_storeu_si512(rows[2 * k + p].as_mut_ptr().cast(), lane) };
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `f` while no other unit test of this crate changes the tier, and
    /// restores the tier afterwards.
    pub(crate) fn with_dispatch_lock<T>(f: impl FnOnce() -> T) -> T {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let was = tier();
        let out = f();
        set_tier(was);
        out
    }

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

    /// The element-order fold the norm used before [`sum_squares`].
    fn in_order(xs: &[f32]) -> f32 {
        xs.iter().fold(NORM_ZERO, |s, &x| s + x * x)
    }

    #[test]
    fn sum_squares_adds_eight_lanes_then_the_tail() {
        // 1.0 then 2^-12s, whose squares are half an ulp of 1.0. In element
        // order each one ties and rounds back to 1.0; in lanes, lane 0 does
        // the same, but lanes 1..7 hold 2^-23 each, which survive the fold.
        let mut xs = vec![2f32.powi(-12); 17];
        xs[0] = 1.0;
        assert_eq!(in_order(&xs[..16]), 1.0);
        assert_eq!(sum_squares(&xs[..16]), 1.0 + 7.0 * 2f32.powi(-23));
        // The tail comes after the lanes, where its half ulp ties with an
        // odd mantissa and rounds up; in lane 0 it would vanish.
        assert_eq!(sum_squares(&xs), 1.0 + 8.0 * 2f32.powi(-23));
        assert_eq!(sum_squares(&[]).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn fused_norms_are_the_residuals_sum_squares_under_both_dispatches() {
        for len in [0, 7, 8, 9, 65_541] {
            for tier in tiers() {
                let what = format!("len={len} tier={}", tier.name());
                let check = |codec: &str, norm: f32, residual: &[f32]| {
                    let want = sum_squares(residual);
                    assert_eq!(norm.to_bits(), want.to_bits(), "{codec} {what}");
                    if len == 65_541 {
                        assert_ne!(want, in_order(residual), "{codec} {what}");
                    }
                };
                with_dispatch_lock(|| {
                    set_tier(tier);
                    let mut grad = pseudo(len, 1);
                    let mut residual: Vec<f32> = pseudo(len, 2).iter().map(|r| r / 64.0).collect();
                    let mut out = vec![0; 2 * len];
                    let norm = feedback_fp16(&mut grad, &mut residual, &mut out);
                    check("fp16", norm, &residual);

                    let mut grad = pseudo(len, 3);
                    let scale = compensate_abs_max(&mut grad, &residual) / 127.0;
                    let mut out = vec![0; len];
                    let norm =
                        feedback_int8(&mut grad, &mut residual, scale, &mut out, &mut lcg(4));
                    check("int8", norm, &residual);
                });
            }
        }
    }

    /// The portable tier is what `RNA_FORCE_SCALAR` pins; every other tier
    /// the host has can be set and read back too.
    #[test]
    fn force_scalar_override_roundtrips() {
        with_dispatch_lock(|| {
            assert_eq!(tiers().next(), Some(Tier::Portable));
            for t in tiers() {
                set_tier(t);
                assert_eq!(tier(), t);
            }
            assert_eq!(tiers().last(), Some(best_tier()));
        });
    }

    /// Prints the tier this process runs (`--nocapture` shows it), so a log
    /// says which builds a benchmark or test pass measured.
    #[test]
    fn names_the_active_tier() {
        let active = with_dispatch_lock(tier);
        assert!(tiers().any(|t| t == active));
        println!("simd tier: {} (best {})", active.name(), best_tier().name());
    }

    #[test]
    fn detected_features_names_are_stable() {
        let names: Vec<&str> = detected_features().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["avx2", "f16c", "sse4.1", "avx512f", "avx512bw", "avx512vl"]
        );
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
