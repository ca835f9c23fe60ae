//! Property tests pinning every fused kernel to a scalar reference
//! implementation.
//!
//! The scalar references below are deliberately naive, un-unrolled loops —
//! the exact code the optimized kernels replaced. Sum-style accumulations
//! must match **bit-exactly** (the fused kernels perform the same
//! per-element operations in the same order); everything else must agree
//! within 1e-6. The fused error-feedback bodies are pinned to the six-sweep
//! recurrence they replaced, bit for bit.

use proptest::prelude::*;
use rna_tensor::codec::{self, Compression};
use rna_tensor::reduce::{
    staleness_weighted_average, staleness_weighted_average_into, weighted_average,
    weighted_average_into,
};
use rna_tensor::simd::{self, Tier};
use rna_tensor::{ReduceOp, Tensor, TensorPool};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Mutex;

fn scalar_axpy(x: &mut [f32], alpha: f32, y: &[f32]) {
    for (a, b) in x.iter_mut().zip(y) {
        *a += alpha * b;
    }
}

fn scalar_scale(x: &mut [f32], s: f32) {
    for a in x.iter_mut() {
        *a *= s;
    }
}

proptest! {
    #[test]
    fn add_assign_is_bit_exact(
        len in 0usize..40,
        seed in 0u64..1000,
    ) {
        let (x, y) = two_tensors(len, seed);
        let mut fused = Tensor::from_vec(x.clone());
        fused.add_assign(&Tensor::from_vec(y.clone()));
        let mut reference = x;
        for (a, b) in reference.iter_mut().zip(&y) { *a += b; }
        prop_assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn axpy_is_bit_exact(
        len in 0usize..40,
        alpha in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let (x, y) = two_tensors(len, seed);
        let mut fused = Tensor::from_vec(x.clone());
        fused.axpy(alpha, &Tensor::from_vec(y.clone()));
        let mut reference = x;
        scalar_axpy(&mut reference, alpha, &y);
        prop_assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn scale_is_bit_exact(
        len in 0usize..40,
        s in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let (x, _) = two_tensors(len, seed);
        let mut fused = Tensor::from_vec(x.clone());
        fused.scale(s);
        let mut reference = x;
        scalar_scale(&mut reference, s);
        prop_assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn axpy_scale_matches_two_pass_bit_exactly(
        len in 0usize..40,
        alpha in -4.0f32..4.0,
        s in -4.0f32..4.0,
        seed in 0u64..1000,
    ) {
        let (x, y) = two_tensors(len, seed);
        let mut fused = Tensor::from_vec(x.clone());
        fused.axpy_scale(alpha, &Tensor::from_vec(y.clone()), s);
        let mut reference = x;
        scalar_axpy(&mut reference, alpha, &y);
        scalar_scale(&mut reference, s);
        prop_assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn reduce_ops_match_scalar_reference(
        len in 0usize..40,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_vec(pseudo(len, seed.wrapping_add(i as u64))))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            let fused = op.reduce(&refs).unwrap();
            let mut reference = inputs[0].as_slice().to_vec();
            for t in &inputs[1..] {
                for (a, &b) in reference.iter_mut().zip(t.as_slice()) {
                    *a = match op {
                        ReduceOp::Sum => *a + b,
                        ReduceOp::Max => a.max(b),
                        ReduceOp::Min => a.min(b),
                        ReduceOp::Mean => unreachable!(),
                    };
                }
            }
            // Sum (and the order-insensitive max/min) are bit-exact.
            prop_assert_eq!(fused.as_slice(), reference.as_slice());
        }
        // Mean: same sum then one multiply by 1/n — also bit-exact.
        let fused = ReduceOp::Mean.reduce(&refs).unwrap();
        let mut reference = inputs[0].as_slice().to_vec();
        for t in &inputs[1..] {
            for (a, b) in reference.iter_mut().zip(t.as_slice()) { *a += b; }
        }
        scalar_scale(&mut reference, 1.0 / n as f32);
        prop_assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn weighted_average_into_matches_naive_bit_exactly(
        len in 0usize..40,
        n in 1usize..6,
        seed in 0u64..1000,
        weights in proptest::collection::vec(0.0f32..5.0, 1..6),
    ) {
        let n = n.min(weights.len());
        let weights = &weights[..n];
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_vec(pseudo(len, seed.wrapping_add(100 + i as u64))))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();

        // The naive seed implementation: zeros → axpy per input → scale.
        let total: f32 = weights.iter().sum();
        let naive = if total == 0.0 {
            None
        } else {
            let mut acc = vec![0.0f32; len];
            for (t, &w) in refs.iter().zip(weights) {
                if w > 0.0 {
                    scalar_axpy(&mut acc, w, t.as_slice());
                }
            }
            scalar_scale(&mut acc, 1.0 / total);
            Some(acc)
        };

        let alloc = weighted_average(&refs, weights);
        let mut pooled_out = TensorPool::new().acquire(len);
        let pooled_ok = weighted_average_into(&mut pooled_out, &refs, weights);

        match naive {
            Some(reference) => {
                prop_assert_eq!(alloc.unwrap().as_slice(), reference.as_slice());
                prop_assert!(pooled_ok);
                prop_assert_eq!(pooled_out.as_slice(), reference.as_slice());
            }
            None => {
                prop_assert!(alloc.is_none());
                prop_assert!(!pooled_ok);
            }
        }
    }

    #[test]
    fn staleness_average_into_matches_naive_bit_exactly(
        len in 0usize..40,
        n in 1usize..6,
        k in 10u64..30,
        seed in 0u64..1000,
    ) {
        let tensors: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_vec(pseudo(len, seed.wrapping_add(200 + i as u64))))
            .collect();
        let grads: Vec<(u64, &Tensor)> = tensors
            .iter()
            .enumerate()
            .map(|(i, t)| (k - (i as u64 % 7), t))
            .collect();

        // Naive seed implementation.
        let tau = grads.iter().map(|&(t, _)| k.saturating_sub(t)).max().unwrap();
        let base = k - tau;
        let mut acc = vec![0.0f32; len];
        let mut total = 0.0f32;
        for &(t, g) in &grads {
            let w = (t - base + 1) as f32;
            scalar_axpy(&mut acc, w, g.as_slice());
            total += w;
        }
        scalar_scale(&mut acc, 1.0 / total);

        let fused = staleness_weighted_average(&grads, k).unwrap();
        prop_assert_eq!(fused.as_slice(), acc.as_slice());

        let mut out = Tensor::zeros(len);
        prop_assert!(staleness_weighted_average_into(&mut out, &grads, k));
        prop_assert_eq!(out.as_slice(), acc.as_slice());
    }

    #[test]
    fn lerp_stays_within_tolerance_of_reference(
        len in 0usize..40,
        t in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        let (x, y) = two_tensors(len, seed);
        let mut fused = Tensor::from_vec(x.clone());
        fused.lerp(&Tensor::from_vec(y.clone()), t);
        for i in 0..len {
            let expect = (1.0 - t) * x[i] + t * y[i];
            prop_assert!((fused.as_slice()[i] - expect).abs() <= 1e-6 * expect.abs().max(1.0));
        }
    }
}

/// Quantizes `x` to a signed byte under `scale` with stochastic rounding,
/// one element at a time: the per-element reference for the library's
/// tiled int8 step. Draws once exactly when the fraction is positive.
fn quantize_i8_sr(x: f32, scale: f32, draw: &mut impl FnMut() -> u32) -> i8 {
    if scale == 0.0 {
        return 0;
    }
    let v = x / scale;
    let lo = v.floor();
    let frac = v - lo;
    let mut q = lo as i32;
    if frac > 0.0 {
        let u = (draw() >> 8) as f32 / (1u32 << 24) as f32;
        if u < frac {
            q += 1;
        }
    }
    q.clamp(-127, 127) as i8
}

/// An int8 frame built with [`quantize_i8_sr`]: header, the scale
/// `max |x| / 127` (NaN skipped), then one byte per element.
fn reference_int8_frame(xs: &[f32], draw: &mut impl FnMut() -> u32) -> Vec<u8> {
    let (tag, param) = Compression::Int8.wire_id();
    let max_abs = xs.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
    let mut frame = Vec::new();
    frame.extend(tag.to_le_bytes());
    frame.extend(param.to_le_bytes());
    frame.extend((xs.len() as u64).to_le_bytes());
    frame.extend(scale.to_le_bytes());
    frame.extend(xs.iter().map(|&x| quantize_i8_sr(x, scale, draw) as u8));
    frame
}

/// The error-feedback recurrence as six sweeps over whole buffers — the
/// body the fused per-codec kernels replaced — composed from public pieces
/// and run on the scalar references: compensate, encode, copy, decode,
/// subtract, norm. Int8 encodes through [`reference_int8_frame`], so its
/// frames and draw counts are checked against code the fused body does not
/// share. Returns the frame and the norm. Lossless carries no residual:
/// its oracle is the plain frame, with `grad` and `residual` untouched and
/// norm 0.
fn six_sweep_feedback(
    codec: Compression,
    grad: &mut Tensor,
    residual: &mut Tensor,
    draw: &mut impl FnMut() -> u32,
) -> (Vec<u8>, f64) {
    with_dispatch(Tier::Portable, || {
        let mut frame = Vec::new();
        if codec.is_lossless() {
            codec.encode_slice(grad.as_slice(), &mut frame, draw);
            return (frame, 0.0);
        }
        grad.add_assign(residual);
        if matches!(codec, Compression::Int8) {
            frame = reference_int8_frame(grad.as_slice(), draw);
        } else {
            codec.encode_slice(grad.as_slice(), &mut frame, draw);
        }
        residual.copy_from(grad);
        codec
            .decode_slice(&frame, grad.as_mut_slice())
            .expect("self-produced frame decodes");
        residual.sub_assign(grad);
        (frame, f64::from(residual.norm_l2()))
    })
}

/// The tier override is process-global: cases that pin it hold this lock.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Runs `f` at `tier`, restoring the tier it found after.
fn with_dispatch<T>(tier: Tier, f: impl FnOnce() -> T) -> T {
    let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let was = simd::tier();
    simd::set_tier(tier);
    let out = f();
    simd::set_tier(was);
    out
}

/// A counting LCG draw stream.
fn draws(seed: u64) -> (impl FnMut() -> u32, Rc<Cell<u64>>) {
    let count = Rc::new(Cell::new(0));
    let seen = count.clone();
    let mut s = seed | 1;
    let draw = move || {
        seen.set(seen.get() + 1);
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 32) as u32
    };
    (draw, count)
}

/// Bit equality, except that two NaNs match whatever their payloads (Rust
/// leaves the payload of an arithmetic NaN unspecified).
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Three rounds sharing one residual through the fused body and through
/// the six-sweep oracle; asserts frames, grad, residual, draw count and
/// norm agree bit for bit (NaN-ness only where a NaN arises).
fn pin_to_oracle(codec: Compression, inputs: &[Vec<f32>], threads: usize, tier: Tier) {
    let len = inputs[0].len();
    let what = format!(
        "{} len={len} threads={threads} tier={}",
        codec.name(),
        tier.name()
    );
    let (mut draw_fused, fused_draws) = draws(17);
    let (mut draw_oracle, oracle_draws) = draws(17);
    // A lossless encode must leave even a nonzero residual as it found it.
    let start = if codec.is_lossless() {
        pseudo(len, 5)
    } else {
        vec![0.0; len]
    };
    let mut res_fused = Tensor::from_vec(start.clone());
    let mut res_oracle = Tensor::from_vec(start);
    let mut out = Vec::new();
    for (round, input) in inputs.iter().enumerate() {
        let mut fused = Tensor::from_vec(input.clone());
        let (bytes, norm) = with_dispatch(tier, || {
            codec::encode_with_feedback_mt(
                codec,
                &mut fused,
                &mut res_fused,
                &mut out,
                &mut draw_fused,
                threads,
            )
        });
        let mut oracle = Tensor::from_vec(input.clone());
        let (frame, want_norm) =
            six_sweep_feedback(codec, &mut oracle, &mut res_oracle, &mut draw_oracle);
        assert_eq!(bytes, frame.len() as u64, "{what} round {round}: bytes");
        assert!(out == frame, "{what} round {round}: frame");
        for (i, (a, b)) in fused.iter().zip(oracle.iter()).enumerate() {
            assert!(
                same_bits(*a, *b),
                "{what} round {round}: grad[{i}] {a} vs {b}"
            );
        }
        for (i, (a, b)) in res_fused.iter().zip(res_oracle.iter()).enumerate() {
            assert!(
                same_bits(*a, *b),
                "{what} round {round}: residual[{i}] {a} vs {b}"
            );
        }
        assert_eq!(
            fused_draws.get(),
            oracle_draws.get(),
            "{what} round {round}: draws"
        );
        assert!(
            norm.to_bits() == want_norm.to_bits() || (norm.is_nan() && want_norm.is_nan()),
            "{what} round {round}: norm {norm} vs {want_norm}"
        );
    }
}

#[test]
fn fused_feedback_matches_the_six_sweep_recurrence() {
    for codec in [
        Compression::Lossless,
        Compression::Fp16,
        Compression::Int8,
        Compression::TopK { permille: 100 },
    ] {
        for len in [0usize, 1, 7, 8, 9, 133, 65_536] {
            let inputs: Vec<Vec<f32>> = (0..3)
                .map(|round| pseudo(len, 31 * len as u64 + round))
                .collect();
            for threads in [1, 3] {
                for tier in simd::tiers() {
                    pin_to_oracle(codec, &inputs, threads, tier);
                }
            }
        }
    }
}

#[test]
fn fused_fp16_feedback_matches_the_oracle_on_special_values() {
    // NaN, ±∞, overflow past the largest half, half subnormals and f32
    // subnormals: frames stay byte-exact (NaN is canonicalised on the
    // wire) while NaN residuals and norms only need to stay NaN.
    let specials = [
        0.0f32,
        -0.0,
        65504.0,
        65520.0,
        -70000.0,
        6.0e-8,
        2.9e-8,
        1e-40,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0xFF80_0001),
        f32::from_bits(0x7FA0_1000), // signalling, payload in the kept bits
        f32::from_bits(0xFFFF_FFFF),
        0.333_333_34,
    ];
    let input: Vec<f32> = specials.iter().copied().cycle().take(43).collect();
    let finite: Vec<f32> = input
        .iter()
        .map(|x| if x.is_finite() { *x } else { 1.5 })
        .collect();
    for inputs in [vec![finite.clone(); 3], vec![finite, input.clone(), input]] {
        for threads in [1, 3] {
            for tier in simd::tiers() {
                pin_to_oracle(Compression::Fp16, &inputs, threads, tier);
            }
        }
    }
}

#[test]
fn int8_encode_matches_the_per_element_reference() {
    // Short last blocks (7, 9, 133), sixteen-lane edges, whole tiles and
    // tile remainders; blocks where every element draws, blocks with zeros
    // that do not, and non-finite elements.
    for len in [
        1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 133, 1023, 1024, 1025,
    ] {
        let dense = pseudo(len, 5 + len as u64);
        let mut sparse = dense.clone();
        sparse.iter_mut().step_by(3).for_each(|x| *x = 0.0);
        let mut special = dense.clone();
        special[len / 2] = f32::NAN;
        special[len - 1] = f32::INFINITY;
        special[0] = f32::NEG_INFINITY;
        for xs in [dense, sparse, special] {
            let (mut draw, want_draws) = draws(23);
            let want = reference_int8_frame(&xs, &mut draw);
            for tier in simd::tiers() {
                let (mut draw, got_draws) = draws(23);
                let mut frame = Vec::new();
                with_dispatch(tier, || {
                    Compression::Int8.encode_slice(&xs, &mut frame, &mut draw)
                });
                let what = format!("len={len} tier={} xs[0]={}", tier.name(), xs[0]);
                assert_eq!(frame, want, "{what}: frame");
                assert_eq!(got_draws.get(), want_draws.get(), "{what}: draws");
            }
        }
    }
}

/// Deterministic pseudo-random buffer so every proptest case is cheap to
/// derive and reproducible without extra strategy plumbing.
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 200.0 - 100.0
        })
        .collect()
}

fn two_tensors(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    (pseudo(len, seed), pseudo(len, seed.wrapping_add(1)))
}
