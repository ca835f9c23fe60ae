//! Steady-state allocation guarantee of the compute path: once the thread's
//! scratch has seen a model's shape, `evaluate` and `loss_and_grad_into`
//! perform **zero** heap allocations and `loss_and_grad` exactly one — the
//! gradient tensor it returns.
//!
//! Counted by a wrapping global allocator with a per-thread counter, so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rna_simnet::SimRng;
use rna_training::model::{ElmanRnn, LinearRegression, Mlp, SoftmaxClassifier};
use rna_training::{Dataset, Model};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
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

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_evaluate_allocates_nothing_and_loss_and_grad_only_its_gradient() {
    let mut rng = SimRng::seed(40);
    let blobs = Dataset::blobs(50, 12, 6, 0.5, &mut rng);
    // The 36-float softmax the 10 000-worker simulation trains.
    let smoke = Dataset::blobs(50, 8, 4, 0.4, &mut rng);
    let lens: Vec<usize> = (0..50).map(|i| 1 + i % 7).collect();
    let seqs = Dataset::sequences(&lens, 4, 6, 0.3, &mut rng);
    let line = Dataset::regression(50, 5, 0.1, &mut rng);
    let models: Vec<(Box<dyn Model>, &Dataset)> = vec![
        (Box::new(SoftmaxClassifier::new(12, 6, &mut rng)), &blobs),
        (Box::new(SoftmaxClassifier::new(8, 4, &mut rng)), &smoke),
        (Box::new(Mlp::new(12, 9, 6, &mut rng)), &blobs),
        (Box::new(ElmanRnn::new(4, 9, 6, &mut rng)), &seqs),
        (Box::new(LinearRegression::new(5)), &line),
    ];
    for (model, ds) in &models {
        let full = ds.full_batch();
        let mini = ds.batch((0..16).collect());
        // Warm-up: the thread's scratch grows to this model's shape here.
        model.evaluate(&full);
        model.loss_and_grad(&mini);

        let mut eval = None;
        assert_eq!(
            allocations(|| eval = Some(model.evaluate(&full))),
            0,
            "{}: evaluate",
            model.name()
        );
        assert!(eval.unwrap().loss.is_finite());

        let mut grad = None;
        assert_eq!(
            allocations(|| grad = Some(model.loss_and_grad(&mini))),
            1,
            "{}: loss_and_grad",
            model.name()
        );
        let (loss, grad) = grad.unwrap();
        assert_eq!(grad.len(), model.num_params());

        let mut into = grad;
        let mut loss_into = f32::NAN;
        assert_eq!(
            allocations(|| loss_into = model.loss_and_grad_into(&mini, &mut into)),
            0,
            "{}: loss_and_grad_into",
            model.name()
        );
        assert_eq!(loss_into.to_bits(), loss.to_bits());
    }
}
