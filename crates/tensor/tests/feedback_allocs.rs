//! Steady-state allocation guarantee of the error-feedback encode: with a
//! warm residual and a warm frame buffer, no request the lossless, fp16 or
//! int8 body makes grows with the tensor — serial or chunk-parallel. (The
//! chunk-parallel int8 encode once allocated two 4-byte-per-element
//! buffers per call.)
//!
//! Measured by a wrapping global allocator that records the largest
//! request while armed. The recording is process-wide, because the
//! chunk-parallel path allocates on the threads it spawns; this binary
//! holds one test so nothing else allocates while it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rna_tensor::codec::{encode_with_feedback_append, Compression};
use rna_tensor::Tensor;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Largest;

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the recorder touches no heap memory.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// The largest single allocation `f` requests, on any thread.
fn largest_request(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn warm_feedback_encode_allocates_nothing_proportional_to_the_tensor() {
    const ELEMS: usize = 1 << 16;
    // Thread spawns allocate a few small bookkeeping blocks; a buffer
    // sized by the tensor would be ≥ ELEMS bytes.
    const BOUND: usize = 4096;
    let grad: Vec<f32> = (0..ELEMS).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut s = 7u64;
    let mut draw = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 32) as u32
    };
    for codec in [Compression::Lossless, Compression::Fp16, Compression::Int8] {
        for threads in [1, 3] {
            let mut residual = Tensor::zeros(ELEMS);
            let mut out = Vec::new();
            let mut g = Tensor::from_vec(grad.clone());
            // Warm-up: the frame buffer grows to its steady-state size.
            encode_with_feedback_append(codec, &mut g, &mut residual, &mut out, &mut draw, threads);
            let mut g = Tensor::from_vec(grad.clone());
            let largest = largest_request(|| {
                out.clear();
                encode_with_feedback_append(
                    codec,
                    &mut g,
                    &mut residual,
                    &mut out,
                    &mut draw,
                    threads,
                );
            });
            assert!(
                largest < BOUND,
                "{} threads={threads}: a {largest}-byte request in steady state",
                codec.name()
            );
        }
    }
}
