//! The simulator's compute path allocates no gradient once warm: each
//! iteration's gradient buffer comes from the engine's pool, into which the
//! drained caches release theirs, and replicas are updated and averaged in
//! place. So a 120-round run makes exactly as many large allocations as a
//! 20-round one; an engine that allocated one gradient per iteration would
//! make hundreds more.
//!
//! The workers' replicas are stored once while they are identical, so
//! building an engine makes as many large allocations at sixteen workers as
//! at four; one replica and one momentum buffer per worker would be 24 more.
//!
//! Counted by a wrapping global allocator with a per-thread counter of
//! allocations of at least [`LARGE`] bytes (every gradient and parameter
//! buffer of the model below; none of the engine's small bookkeeping).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TaskKind, TrainSpec};
use rna_core::RnaConfig;
use rna_workload::HeterogeneityModel;

/// 64 KiB; the MLP below has 17 544 parameters (68.5 KiB).
const LARGE: usize = 64 << 10;

thread_local! {
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    if size >= LARGE {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down.
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
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
static ALLOCATOR: Counting = Counting;

/// Large allocations `f` makes on this thread, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = LARGE_ALLOCS.with(Cell::get);
    let value = f();
    (LARGE_ALLOCS.with(Cell::get) - before, value)
}

/// A `rounds`-round RNA run of a 128-128-8 MLP on `n` workers, one of them
/// a dynamic straggler.
fn engine(n: usize, rounds: u64) -> Engine<RnaProtocol> {
    let mut spec = TrainSpec::smoke_test(n, 7)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 50))
        .with_max_rounds(rounds);
    spec.task = TaskKind::Classification {
        dim: 128,
        classes: 8,
        hidden: Some(128),
        samples: 256,
        spread: 4.0,
    };
    spec.eval_every = 10;
    Engine::new(spec, RnaProtocol::new(n, RnaConfig::default(), 0))
}

/// Large allocations of one `rounds`-round run on four workers, and its
/// iteration count.
fn large_allocations(rounds: u64) -> (u64, u64) {
    let (allocs, result) = counted(|| engine(4, rounds).run());
    assert_eq!(result.global_rounds, rounds, "the run must use its budget");
    (allocs, result.total_iterations())
}

#[test]
fn warm_iterations_allocate_no_gradient() {
    let (short, short_iters) = large_allocations(20);
    let (long, long_iters) = large_allocations(120);
    assert!(
        long_iters >= short_iters + 100,
        "the long run must compute at least 100 more gradients ({short_iters} vs {long_iters})"
    );
    assert_eq!(
        short, long,
        "a warm engine allocates no gradient or parameter buffer per iteration"
    );
}

#[test]
fn identical_replicas_are_allocated_once() {
    let (four, _) = counted(|| engine(4, 20));
    let (sixteen, _) = counted(|| engine(16, 20));
    assert_eq!(
        four, sixteen,
        "a new engine stores one replica and one momentum buffer for all its workers"
    );
}
