//! UCF101-like video-length workload (Figure 2).
//!
//! The paper extracts Inception-V3 features for the 13,320 UCF101 videos and
//! observes frame counts ranging 29–1776 with mean 186 and σ 97.7
//! (Figure 2a). Training a recurrent model on such data makes per-batch
//! compute time proportional to input length, producing the long-tail batch
//! time distribution of Figure 2b. This module generates a synthetic corpus
//! with the same statistics.

use rna_simnet::{SimDuration, SimRng};
use rna_tensor::stats::Summary;

use crate::lognormal_params_for;

/// A generator of video frame counts matching the UCF101 statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoLengthModel {
    mu: f64,
    sigma: f64,
    min_len: u64,
    max_len: u64,
}

impl VideoLengthModel {
    /// The UCF101 fit: log-normal with mean 186 and σ 97.7, clipped to
    /// [29, 1776].
    pub fn ucf101() -> Self {
        let (mu, sigma) = lognormal_params_for(186.0, 97.7);
        VideoLengthModel {
            mu,
            sigma,
            min_len: 29,
            max_len: 1776,
        }
    }

    /// A custom fit.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`, `std < 0`, or `max_len < min_len`.
    pub fn new(mean: f64, std: f64, min_len: u64, max_len: u64) -> Self {
        assert!(max_len >= min_len, "max length below min length");
        let (mu, sigma) = lognormal_params_for(mean, std);
        VideoLengthModel {
            mu,
            sigma,
            min_len,
            max_len,
        }
    }

    /// Samples one video's frame count.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        (rng.log_normal(self.mu, self.sigma).round() as u64).clamp(self.min_len, self.max_len)
    }

    /// Generates a corpus of `n` videos (UCF101 has 13,320).
    pub fn corpus(&self, n: usize, rng: &mut SimRng) -> VideoCorpus {
        VideoCorpus {
            lengths: (0..n).map(|_| self.sample(rng)).collect(),
        }
    }
}

/// A generated corpus of video lengths.
///
/// # Examples
///
/// ```
/// use rna_simnet::SimRng;
/// use rna_workload::video::VideoLengthModel;
///
/// let mut rng = SimRng::seed(42);
/// let corpus = VideoLengthModel::ucf101().corpus(13_320, &mut rng);
/// let s = corpus.summary();
/// assert!((s.mean - 186.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VideoCorpus {
    lengths: Vec<u64>,
}

impl VideoCorpus {
    /// The per-video frame counts.
    pub fn lengths(&self) -> &[u64] {
        &self.lengths
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Distribution summary of the frame counts.
    pub fn summary(&self) -> Summary {
        let xs: Vec<f64> = self.lengths.iter().map(|&l| l as f64).collect();
        Summary::of(&xs)
    }

    /// Samples a batch of `batch_size` videos (with replacement) and returns
    /// the *maximum* frame count — recurrent training cost is bounded by the
    /// longest sequence in the padded batch.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty or `batch_size == 0`.
    pub fn sample_batch_units(&self, batch_size: usize, rng: &mut SimRng) -> u64 {
        assert!(!self.lengths.is_empty(), "empty corpus");
        assert!(batch_size > 0, "batch size must be positive");
        (0..batch_size)
            .map(|_| self.lengths[rng.choose_one(self.lengths.len())])
            .max()
            .unwrap()
    }

    /// Samples a *bucketed* batch: videos of similar length are batched
    /// together (the standard padding-minimizing strategy for recurrent
    /// training), so the whole batch's cost follows one video's length.
    /// This reproduces the coefficient of variation Figure 2b reports
    /// (σ/mean ≈ 0.62, close to the per-video 0.53) — random batching
    /// would average the tail away.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty.
    pub fn sample_bucketed_units(&self, rng: &mut SimRng) -> u64 {
        assert!(!self.lengths.is_empty(), "empty corpus");
        self.lengths[rng.choose_one(self.lengths.len())]
    }
}

/// Maps batch frame counts to compute time so the resulting per-batch time
/// distribution matches Figure 2b.
///
/// Calibrated so a batch whose longest video has the corpus-mean length
/// costs `target_mean`; time scales linearly with the longest video.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTimeModel {
    per_frame: SimDuration,
}

impl BatchTimeModel {
    /// Calibrates against a corpus and a batch size so the *expected* batch
    /// time is `target_mean` when batches are sampled randomly
    /// ([`VideoCorpus::sample_batch_units`]).
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty or `batch_size == 0`.
    pub fn calibrate(
        corpus: &VideoCorpus,
        batch_size: usize,
        target_mean: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        // Estimate E[max length in batch] by sampling.
        let trials = 256;
        let mean_max: f64 = (0..trials)
            .map(|_| corpus.sample_batch_units(batch_size, rng) as f64)
            .sum::<f64>()
            / trials as f64;
        BatchTimeModel {
            per_frame: SimDuration::from_secs_f64(target_mean.as_secs_f64() / mean_max),
        }
    }

    /// Calibrates for *bucketed* batches
    /// ([`VideoCorpus::sample_bucketed_units`]): the expected batch time is
    /// `target_mean` at the corpus's mean length.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty.
    pub fn calibrate_bucketed(corpus: &VideoCorpus, target_mean: SimDuration) -> Self {
        let mean_len = corpus.summary().mean.max(1.0);
        BatchTimeModel {
            per_frame: SimDuration::from_secs_f64(target_mean.as_secs_f64() / mean_len),
        }
    }

    /// Compute time for a batch whose longest video has `units` frames.
    pub fn batch_time(&self, units: u64) -> SimDuration {
        self.per_frame * units
    }

    /// The calibrated per-frame cost.
    pub fn per_frame(&self) -> SimDuration {
        self.per_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ucf101_statistics_match_figure_2a() {
        let mut rng = SimRng::seed(101);
        let corpus = VideoLengthModel::ucf101().corpus(13_320, &mut rng);
        let s = corpus.summary();
        assert!((s.mean - 186.0).abs() < 8.0, "mean {}", s.mean);
        assert!((s.stddev - 97.7).abs() < 15.0, "std {}", s.stddev);
        assert!(s.min >= 29.0);
        assert!(s.max <= 1776.0);
        assert_eq!(corpus.len(), 13_320);
        assert!(!corpus.is_empty());
    }

    #[test]
    fn lengths_clamped_to_range() {
        let model = VideoLengthModel::new(100.0, 500.0, 50, 200);
        let mut rng = SimRng::seed(5);
        for _ in 0..500 {
            let l = model.sample(&mut rng);
            assert!((50..=200).contains(&l));
        }
    }

    #[test]
    fn batch_max_at_least_single_sample() {
        let mut rng = SimRng::seed(7);
        let corpus = VideoLengthModel::ucf101().corpus(1000, &mut rng);
        let single = corpus.sample_batch_units(1, &mut rng);
        assert!(corpus.lengths().contains(&single));
        // Larger batches have stochastically larger maxima; check the mean.
        let m1: f64 = (0..200)
            .map(|_| corpus.sample_batch_units(1, &mut rng) as f64)
            .sum::<f64>()
            / 200.0;
        let m32: f64 = (0..200)
            .map(|_| corpus.sample_batch_units(32, &mut rng) as f64)
            .sum::<f64>()
            / 200.0;
        assert!(m32 > m1);
    }

    #[test]
    fn calibrated_batch_time_hits_target_mean() {
        let mut rng = SimRng::seed(9);
        let corpus = VideoLengthModel::ucf101().corpus(13_320, &mut rng);
        let target = SimDuration::from_millis(1219);
        let model = BatchTimeModel::calibrate(&corpus, 32, target, &mut rng);
        let trials = 2000;
        let mean_ms: f64 = (0..trials)
            .map(|_| {
                model
                    .batch_time(corpus.sample_batch_units(32, &mut rng))
                    .as_millis_f64()
            })
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean_ms - 1219.0).abs() < 120.0,
            "calibrated mean {mean_ms}"
        );
        assert!(!model.per_frame().is_zero());
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn batch_from_empty_corpus_panics() {
        let corpus = VideoCorpus { lengths: vec![] };
        corpus.sample_batch_units(4, &mut SimRng::seed(0));
    }
}
