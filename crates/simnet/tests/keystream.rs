//! Pins `SimRng`'s bulk draws to its single draws, bit for bit.
//!
//! `Draws::fill` has the keystream kernel write stochastic-rounding draws,
//! the high words of ChaCha8 blocks computed side by side; every draw,
//! every `SimRngState` and every int8 frame must be the ones that single
//! `uniform_u64(0..1 << 32)` calls give, under every tier of the keystream
//! kernel the host has. These tests live here because
//! `rna-tensor`'s own tests cannot name `SimRng` (a dev-dependency on this
//! crate would build a second copy of the `Draws` trait).
//!
//! The tier override is process-global, so tests that set it serialize on
//! a mutex.

use rna_simnet::{SimRng, SimRngState};
use rna_tensor::codec::{self, Compression};
use rna_tensor::simd::{self, Draws};
use rna_tensor::Tensor;
use std::sync::Mutex;

static DISPATCH: Mutex<()> = Mutex::new(());

/// Runs `f` once per tier the host has (portable first), restoring the
/// tier it found after.
fn each_dispatch(mut f: impl FnMut(&str)) {
    let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    let was = simd::tier();
    for tier in simd::tiers() {
        simd::set_tier(tier);
        f(tier.name());
    }
    simd::set_tier(was);
}

fn draw(rng: &mut SimRng) -> u32 {
    rng.uniform_u64(0..1 << 32) as u32
}

/// Generators at every pair-aligned word of a block: a fresh stream after
/// 0–8 draws, and positions 0, 2, …, 16 restored with `from_state` at a
/// plain counter and below a low-word carry and the `u64` wrap, both close
/// enough that an eight-block pass carries (`…FC`) and far enough that
/// only a sixteen-block pass does (`…F8`).
fn starts() -> Vec<(String, SimRng)> {
    let mut out = Vec::new();
    for pairs in 0..=8 {
        let mut rng = SimRng::seed(7);
        for _ in 0..pairs {
            draw(&mut rng);
        }
        out.push((format!("seed 7 after {pairs} draws"), rng));
    }
    for next_word in (0..=16).step_by(2) {
        for counter in [5, 0xFFFF_FFFC, 0xFFFF_FFF8, u64::MAX - 3, u64::MAX - 7] {
            let state = SimRngState {
                counter,
                next_word,
                ..SimRng::seed(11).state()
            };
            let what = format!("restored at counter {counter:#x}, word {next_word}");
            out.push((what, SimRng::from_state(&state)));
        }
    }
    out
}

#[test]
fn fill_matches_single_draws_from_every_start() {
    each_dispatch(|dispatch| {
        for (start, rng) in starts() {
            for len in [
                0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025,
                65_536, 65_537,
            ] {
                let what = format!("{dispatch}, {start}, len {len}");
                let mut bulk = rng.clone();
                let mut single = rng.clone();
                let mut got = vec![0u32; len];
                bulk.fill(&mut got);
                let want: Vec<u32> = (0..len).map(|_| draw(&mut single)).collect();
                assert!(got == want, "{what}: draws");
                assert_eq!(bulk.state(), single.state(), "{what}: state");
                // A second fill starts in the block the first one left.
                let mut got = [0u32; 9];
                bulk.fill(&mut got);
                let want: Vec<u32> = (0..9).map(|_| draw(&mut single)).collect();
                assert!(got[..] == want[..], "{what}: the next fill");
                assert_eq!(
                    bulk.state(),
                    single.state(),
                    "{what}: state after the next fill"
                );
                for step in 0..32 {
                    assert_eq!(draw(&mut bulk), draw(&mut single), "{what}: step {step}");
                }
            }
        }
    });
}

/// Every run length from none to past two sixteen-block passes, at
/// counters where a pass carries into the high word or wraps the `u64`:
/// the run is word `2j + 1` of each single block at `counter + b`, nothing
/// past `out.len()` is written, the block a run ends part-way through lands
/// whole in `partial`, and a run that ends on a block edge leaves `partial`
/// as it was.
#[test]
fn avx2_blocks_match_the_portable_block_function() {
    let key = SimRng::seed(3).state().key;
    for counter in [
        0,
        0xFFFF_FFFC,
        0xFFFF_FFF8,
        u64::MAX - 3,
        u64::MAX - 7,
        0x0123_4567_89AB_CDEF,
    ] {
        let mut blocks = [[0u32; 16]; 40];
        for (b, block) in (0u64..).zip(&mut blocks) {
            simd::chacha8_block(&key, counter.wrapping_add(b), block);
        }
        let want: Vec<u32> = blocks
            .iter()
            .flat_map(|block| block.chunks_exact(2).map(|pair| pair[1]))
            .collect();
        each_dispatch(|dispatch| {
            for len in 0..=want.len() {
                let mut got = vec![7u32; want.len()];
                let mut partial = [7u32; 16];
                simd::chacha8_high_words(&key, counter, &mut got[..len], &mut partial);
                let what = format!("{dispatch}, counter {counter:#x}, {len} words");
                assert!(got[..len] == want[..len], "{what}");
                assert!(got[len..].iter().all(|&w| w == 7), "{what}: past the end");
                let last = if len % 8 == 0 {
                    [7; 16]
                } else {
                    blocks[len / 8]
                };
                assert!(partial == last, "{what}: the part-used block");
            }
        });
    }
}

/// Gradient-like values from a seed, in four shapes: dense, every third
/// element zero (no draw), NaN every fifth (no draw, scale kept), and ±∞
/// planted (an infinite scale: nothing draws).
fn input(len: usize, seed: u64, shape: usize) -> Vec<f32> {
    let mut rng = SimRng::seed(seed);
    (0..len)
        .map(|i| {
            let x = rng.uniform_f64(-1.0..1.0) as f32;
            match shape {
                1 if i % 3 == 0 => 0.0,
                2 if i % 5 == 2 => f32::NAN,
                3 if i == len / 2 => f32::INFINITY,
                3 if i == len - 1 => f32::NEG_INFINITY,
                _ => x,
            }
        })
        .collect()
}

/// The int8 error-feedback recurrence one element at a time, one single
/// draw per positive fraction: the reference for the tiled body, which
/// takes a tile's draws as one run and spreads them to their elements.
/// Returns the frame; leaves the wire values in `grad` and the carry in
/// `residual`.
fn per_element_int8_feedback(
    grad: &mut Tensor,
    residual: &mut Tensor,
    draw: &mut impl FnMut() -> u32,
) -> Vec<u8> {
    let c: Vec<f32> = grad
        .iter()
        .zip(residual.iter())
        .map(|(g, r)| g + r)
        .collect();
    let max_abs = c.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
    let (tag, param) = Compression::Int8.wire_id();
    let mut frame = [tag.to_le_bytes(), param.to_le_bytes()].concat();
    frame.extend((c.len() as u64).to_le_bytes());
    frame.extend(scale.to_le_bytes());
    for &x in &c {
        let mut q = 0;
        if scale != 0.0 {
            let v = x / scale;
            let frac = v - v.floor();
            q = v.floor() as i32;
            if frac > 0.0 && ((draw() >> 8) as f32 / (1u32 << 24) as f32) < frac {
                q += 1;
            }
        }
        frame.push(q.clamp(-127, 127) as i8 as u8);
    }
    Compression::Int8
        .decode_slice(&frame, grad.as_mut_slice())
        .expect("reference frame decodes");
    for ((r, c), g) in residual.as_mut_slice().iter_mut().zip(c).zip(grad.iter()) {
        *r = c - g;
    }
    frame
}

/// Bit equality, except that two NaNs match whatever their payloads (Rust
/// leaves the payload of an arithmetic NaN unspecified).
fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
}

#[test]
fn int8_feedback_through_simrng_matches_per_draw_reference() {
    each_dispatch(|dispatch| {
        for len in (1..=133).chain([1023, 1024, 1025, 65_536, 65_537]) {
            for shape in 0..4 {
                let what = format!("{dispatch}, len {len}, shape {shape}");
                let mut bulk = SimRng::seed(len as u64);
                draw(&mut bulk);
                let mut single = bulk.clone();
                let mut res_bulk = Tensor::zeros(len);
                let mut res_single = Tensor::zeros(len);
                for round in 0..2 {
                    let x = input(len, 100 * len as u64 + round, shape);
                    let (mut g_bulk, mut g_single) =
                        (Tensor::from_vec(x.clone()), Tensor::from_vec(x));
                    let mut frame = Vec::new();
                    codec::encode_with_feedback_append(
                        Compression::Int8,
                        &mut g_bulk,
                        &mut res_bulk,
                        &mut frame,
                        &mut bulk,
                        1,
                    );
                    let want =
                        per_element_int8_feedback(&mut g_single, &mut res_single, &mut || {
                            draw(&mut single)
                        });
                    let what = format!("{what}, round {round}");
                    assert!(frame == want, "{what}: frame");
                    assert!(same_bits(&g_bulk, &g_single), "{what}: grad");
                    assert!(same_bits(&res_bulk, &res_single), "{what}: residual");
                    assert_eq!(bulk.state(), single.state(), "{what}: state");
                }
            }
        }
    });
}
