//! Pins the SIMD data path to the scalar reference, bit for bit.
//!
//! Every assertion here compares *frames* (and decoded bit patterns, and
//! stochastic-rounding draw counts) across the executions of the same
//! codec: the portable scalar reference, every vector tier the host has,
//! and the chunk-parallel path. Same-seed replays must not depend on the
//! host CPU or the thread count, so all must agree exactly — on every
//! codec, every lane-remainder length, and the error-feedback recurrence.
//!
//! The tier override is process-global, so tests that set it serialize on
//! a mutex.

use rna_tensor::codec::{self, Compression};
use rna_tensor::simd::{self, Tier};
use rna_tensor::Tensor;
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at `tier`, restoring the tier it found after.
fn with_tier<T>(tier: Tier, f: impl FnOnce() -> T) -> T {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was = simd::tier();
    simd::set_tier(tier);
    let out = f();
    simd::set_tier(was);
    out
}

/// Every vector tier the host has (none on a portable-only host, where
/// there is nothing to compare).
fn vector_tiers() -> impl Iterator<Item = Tier> {
    simd::tiers().filter(|&t| t > Tier::Portable)
}

/// Deterministic draw stream (SplitMix-ish LCG) that counts consumption.
fn counted_lcg(seed: u64) -> (impl FnMut() -> u32, std::rc::Rc<std::cell::Cell<u64>>) {
    let count = std::rc::Rc::new(std::cell::Cell::new(0u64));
    let c = count.clone();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (
        move || {
            c.set(c.get() + 1);
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        },
        count,
    )
}

/// Pseudo-random finite data with magnitude structure (mix of tiny, normal,
/// and large values, plus exact ties for the top-k selection path).
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    let (mut d, _) = counted_lcg(seed);
    (0..len)
        .map(|i| {
            let base = (d() as f32 / (1u32 << 24) as f32) - 128.0;
            match i % 7 {
                0 => 0.0,
                1 => base * 1e-6,
                2 => -base,
                3 => 42.5, // repeated exact value → magnitude ties
                _ => base,
            }
        })
        .collect()
}

/// Values that walk every branch of the fp16 encode pipeline: normals,
/// subnormals, flush-to-zero magnitudes, overflow, infinities, NaNs, and
/// signed zeros — repeated past one vector width.
fn fp16_specials() -> Vec<f32> {
    let core = [
        0.0f32,
        -0.0,
        1.0,
        -1.5,
        65504.0,  // largest finite half
        65520.0,  // rounds to half infinity
        131000.0, // overflow
        -70000.0, // negative overflow
        6.104e-5, // smallest normal half neighborhood
        6.0e-8,   // half subnormal
        5.9e-8,   // smallest half subnormal neighborhood
        2.9e-8,   // below half subnormal: flush to zero
        -2.0e-8,  // negative flush
        1e-40,    // f32 subnormal input
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001), // signaling-ish NaN payload
        0.333_333_34,
        -0.000_122_070_31, // exactly representable small half
        1234.567,
    ];
    core.iter().copied().cycle().take(3 * core.len()).collect()
}

/// Pseudo-random data of `len` elements with NaN, +∞ or −∞ (one input
/// each) planted at index 5, inside the first full lane block, and at the
/// last index, inside the lane remainder when `len` is not a multiple of
/// eight.
fn non_finite(len: usize, seed: u64) -> Vec<Vec<f32>> {
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
        .into_iter()
        .map(|special| {
            let mut xs = pseudo(len, seed);
            xs[5] = special;
            xs[len - 1] = special;
            xs
        })
        .collect()
}

fn all_codecs() -> Vec<Compression> {
    vec![
        Compression::Lossless,
        Compression::Fp16,
        Compression::Int8,
        Compression::TopK { permille: 200 },
    ]
}

/// Encodes then decodes at the given tier, returning the frame, the
/// decoded bit patterns, and how many draws were consumed.
fn run_roundtrip(
    codec: Compression,
    xs: &[f32],
    tier: Tier,
    seed: u64,
) -> (Vec<u8>, Vec<u32>, u64) {
    with_tier(tier, || {
        let (mut draw, count) = counted_lcg(seed);
        let mut frame = Vec::new();
        codec.encode_slice(xs, &mut frame, &mut draw);
        let mut out = vec![f32::NAN; xs.len()];
        codec.decode_slice(&frame, &mut out).expect("decode");
        let bits = out.iter().map(|x| x.to_bits()).collect();
        (frame, bits, count.get())
    })
}

#[test]
fn simd_matches_scalar_for_all_codecs_and_lane_remainders() {
    for (codec, tier) in all_codecs()
        .into_iter()
        .flat_map(|c| vector_tiers().map(move |t| (c, t)))
    {
        for len in 0..=33 {
            for seed in [1u64, 7, 1234] {
                let mut inputs = vec![pseudo(len, seed ^ (len as u64) << 8)];
                if len > 8 {
                    inputs.extend(non_finite(len, seed));
                }
                for xs in &inputs {
                    let (f_scalar, d_scalar, n_scalar) =
                        run_roundtrip(codec, xs, Tier::Portable, seed);
                    let (f_simd, d_simd, n_simd) = run_roundtrip(codec, xs, tier, seed);
                    let codec = format!("{} {}", codec.name(), tier.name());
                    assert_eq!(
                        f_scalar, f_simd,
                        "{} len={len} seed={seed}: frame bytes diverged",
                        codec
                    );
                    assert_eq!(
                        d_scalar, d_simd,
                        "{} len={len} seed={seed}: decoded bits diverged",
                        codec
                    );
                    assert_eq!(
                        n_scalar, n_simd,
                        "{} len={len} seed={seed}: draw streams advanced differently",
                        codec
                    );
                }
            }
        }
    }
}

#[test]
fn fp16_simd_matches_scalar_on_special_values() {
    let xs = fp16_specials();
    let (f_scalar, d_scalar, _) = run_roundtrip(Compression::Fp16, &xs, Tier::Portable, 0);
    for tier in vector_tiers() {
        let (f_simd, d_simd, _) = run_roundtrip(Compression::Fp16, &xs, tier, 0);
        let tier = tier.name();
        assert_eq!(f_scalar, f_simd, "fp16 specials {tier}: frames diverged");
        assert_eq!(
            d_scalar, d_simd,
            "fp16 specials {tier}: decoded bits diverged"
        );
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn chunk_parallel_matches_serial_for_every_thread_count() {
    for codec in all_codecs() {
        for len in [0usize, 1, 7, 31, 33, 1000] {
            let xs = pseudo(len, 99);
            let carried = pseudo(len, 98);
            // One feedback round from the same grad and residual: serial
            // with the scratch-buffer entry point, chunk-parallel with `_mt`.
            let feedback = |threads: usize| {
                let (mut draw, count) = counted_lcg(5);
                let mut grad = Tensor::from_vec(xs.clone());
                let mut residual = Tensor::from_vec(carried.clone());
                let mut frame = Vec::new();
                let (_, norm) = if threads == 1 {
                    codec::encode_with_feedback(
                        codec,
                        &mut grad,
                        &mut residual,
                        &mut frame,
                        &mut draw,
                    )
                } else {
                    codec::encode_with_feedback_mt(
                        codec,
                        &mut grad,
                        &mut residual,
                        &mut frame,
                        &mut draw,
                        threads,
                    )
                };
                let wire = (bits(grad.as_slice()), bits(residual.as_slice()));
                (frame, wire, norm.to_bits(), count.get())
            };
            let serial = feedback(1);
            let mut serial_out = vec![f32::NAN; len];
            codec
                .decode_slice(&serial.0, &mut serial_out)
                .expect("decode");
            assert_eq!(
                bits(&serial_out),
                serial.1 .0,
                "{} len={len}: the frame decodes to the grad left behind",
                codec.name()
            );
            for threads in [2usize, 3, 5] {
                let parallel = feedback(threads);
                assert_eq!(
                    serial,
                    parallel,
                    "{} len={len} threads={threads}: frame, buffers, norm or draws diverged",
                    codec.name()
                );
                let mut parallel_out = vec![f32::NAN; len];
                codec
                    .decode_slice_mt(&parallel.0, &mut parallel_out, threads)
                    .expect("decode_mt");
                assert_eq!(
                    bits(&serial_out),
                    bits(&parallel_out),
                    "{} len={len} threads={threads}: decoded bits diverged",
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn fp16_decode_matches_scalar_on_every_half() {
    // All 2^16 halves (NaN payloads, signalling ones included), plus five
    // to leave a lane remainder.
    let bytes: Vec<u8> = (0..=u16::MAX)
        .chain(0..5)
        .flat_map(u16::to_le_bytes)
        .collect();
    let mut scalar = vec![0.0f32; bytes.len() / 2];
    simd::fp16_decode_scalar(&bytes, &mut scalar);
    for tier in vector_tiers() {
        let mut vector = vec![0.0f32; bytes.len() / 2];
        with_tier(tier, || simd::fp16_decode(&bytes, &mut vector));
        for (h, (s, v)) in scalar.iter().zip(&vector).enumerate() {
            let tier = tier.name();
            assert_eq!(s.to_bits(), v.to_bits(), "half {:#06x} {tier}", h & 0xFFFF);
        }
    }
}

#[test]
fn int8_decode_matches_scalar_on_every_byte() {
    // All 256 bytes, −128 included: the encoder clamps to ±127 but a frame
    // read from a socket may carry any byte. Five more leave a lane
    // remainder.
    let bytes: Vec<u8> = (0..=u8::MAX).chain(0x7E..0x83).collect();
    let scale = 0.123_456_79f32;
    for tier in simd::tiers() {
        let mut out = vec![f32::NAN; bytes.len()];
        with_tier(tier, || simd::int8_dequantize(&bytes, scale, &mut out));
        for (&b, x) in bytes.iter().zip(&out) {
            assert_eq!(
                x.to_bits(),
                (f32::from(b as i8) * scale).to_bits(),
                "byte {b:#04x} tier={}",
                tier.name()
            );
        }
    }
}

#[test]
fn fp16_encode_matches_scalar_on_random_bit_patterns() {
    // 2^20 + 3 uniformly random f32 bit patterns (every class: NaN, ±∞,
    // subnormals, overflow), then every f32 in the overflow band from the
    // largest half (65504) to the first value rounding to ∞ (65520) and a
    // little past it.
    let (mut draw, _) = counted_lcg(2024);
    let mut xs: Vec<f32> = (0..(1 << 20) + 3).map(|_| f32::from_bits(draw())).collect();
    let (lo, hi) = (65504.0f32.to_bits(), 65520.0f32.to_bits() + 64);
    xs.extend((lo..=hi).flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)]));
    let mut scalar = vec![0u8; 2 * xs.len()];
    simd::fp16_encode_scalar(&xs, &mut scalar);
    for tier in vector_tiers() {
        let mut vector = vec![0u8; 2 * xs.len()];
        with_tier(tier, || simd::fp16_encode(&xs, &mut vector));
        for (i, (s, v)) in scalar.chunks(2).zip(vector.chunks(2)).enumerate() {
            let tier = tier.name();
            assert_eq!(s, v, "f32 bits {:#010x} {tier}", xs[i].to_bits());
        }
    }
}

#[test]
fn error_feedback_is_identical_across_scalar_simd_and_parallel() {
    let len = 133; // odd length: exercises lane remainders through two rounds
    let mut rounds = vec![(pseudo(len, 3), pseudo(len, 4))];
    // A non-finite element in the first round, carried by the residual.
    rounds.extend(non_finite(len, 3).into_iter().map(|g| (g, pseudo(len, 4))));
    for codec in all_codecs() {
        for (grad0, grad1) in &rounds {
            // One run = two feedback rounds sharing a residual, like a protocol
            // round sequence. Returns (frames, grad bits, residual bits, draws).
            let exec = |tier: Tier, threads: usize| {
                with_tier(tier, || {
                    let (mut draw, count) = counted_lcg(11);
                    let mut residual = Tensor::zeros(len);
                    let mut scratch = Vec::new();
                    let mut frames = Vec::new();
                    let mut grads = Vec::new();
                    for g0 in [grad0, grad1] {
                        let mut g = Tensor::from_vec(g0.clone());
                        if threads <= 1 {
                            codec::encode_with_feedback(
                                codec,
                                &mut g,
                                &mut residual,
                                &mut scratch,
                                &mut draw,
                            );
                        } else {
                            codec::encode_with_feedback_mt(
                                codec,
                                &mut g,
                                &mut residual,
                                &mut scratch,
                                &mut draw,
                                threads,
                            );
                        }
                        frames.push(scratch.clone());
                        grads.push(g.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                    }
                    let res: Vec<u32> = residual.as_slice().iter().map(|x| x.to_bits()).collect();
                    (frames, grads, res, count.get())
                })
            };
            // The portable serial run is the reference: every tier, serial
            // and chunk-parallel, must match it.
            let scalar = exec(Tier::Portable, 1);
            for tier in simd::tiers() {
                for threads in [1, 3] {
                    assert_eq!(
                        scalar,
                        exec(tier, threads),
                        "{} {} threads={threads}: feedback diverged from the scalar run",
                        codec.name(),
                        tier.name()
                    );
                }
            }
        }
    }
}

#[test]
fn wire_tensor_bulk_roundtrip_is_bit_exact() {
    use rna_tensor::wire::{put_tensor, Reader};
    let t = Tensor::from_vec(fp16_specials());
    let mut buf = Vec::new();
    put_tensor(&mut buf, &t);
    let mut r = Reader::new(&buf);
    let back = r.tensor().expect("tensor roundtrip");
    let a: Vec<u32> = t.as_slice().iter().map(|x| x.to_bits()).collect();
    let b: Vec<u32> = back.as_slice().iter().map(|x| x.to_bits()).collect();
    assert_eq!(a, b);
    assert_eq!(r.remaining(), 0);
}
