//! Per-network workload profiles.
//!
//! Each profile carries the *real* parameter count reported in the paper
//! (which sets communication volume, and therefore the Table 5 transfer
//! overhead and the Figure 6 VGG16 communication dominance) together with a
//! compute-time model that reproduces the network's straggler behaviour.
//!
//! The simulation optimizes a much smaller tensor (`sim_dim` parameters) so
//! convergence runs are fast, but *bills* communication at the real model
//! size — the same trick used by network simulators everywhere: decouple the
//! payload carried from the payload charged.

use rna_simnet::SimDuration;

use crate::ComputeTimeModel;

/// A named workload profile for one of the paper's four networks.
///
/// # Examples
///
/// ```
/// let p = rna_workload::ModelProfile::resnet50();
/// assert_eq!(p.param_count, 25_559_081);
/// assert_eq!(p.grad_bytes(), 25_559_081 * 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Human-readable name, e.g. `"ResNet50"`.
    pub name: String,
    /// Trainable parameter count (the paper's reported figure).
    pub param_count: u64,
    /// Tensor length actually optimized in simulation.
    pub sim_dim: usize,
    /// Per-iteration compute time distribution (on the nominal-speed tier).
    pub compute: ComputeTimeModel,
    /// Mini-batch size used in the paper's experiments.
    pub batch_size: usize,
    /// Whether the workload is inherently imbalanced (dynamic network).
    pub imbalanced: bool,
}

impl ModelProfile {
    /// Gradient payload in bytes (`4 × param_count`, f32 wire format).
    pub fn grad_bytes(&self) -> u64 {
        self.param_count * 4
    }

    /// ResNet50 on ImageNet: 25,559,081 parameters, batch 128, balanced
    /// compute (~210 ms/iteration on the nominal tier).
    pub fn resnet50() -> Self {
        ModelProfile {
            name: "ResNet50".into(),
            param_count: 25_559_081,
            sim_dim: 512,
            compute: ComputeTimeModel::Constant(SimDuration::from_millis(210)),
            batch_size: 128,
            imbalanced: false,
        }
    }

    /// VGG16 on CIFAR-10: >138 million parameters (communication-dominated),
    /// batch 128, balanced compute (~140 ms/iteration).
    pub fn vgg16() -> Self {
        ModelProfile {
            name: "VGG16".into(),
            param_count: 138_344_128,
            sim_dim: 512,
            compute: ComputeTimeModel::Constant(SimDuration::from_millis(140)),
            batch_size: 128,
            imbalanced: false,
        }
    }

    /// ResNet-56 on CIFAR-10 (the §2.3.1 motivation cluster): 0.85 M
    /// parameters, ~55 ms/iteration.
    pub fn resnet56() -> Self {
        ModelProfile {
            name: "ResNet56".into(),
            param_count: 853_018,
            sim_dim: 256,
            compute: ComputeTimeModel::Constant(SimDuration::from_millis(55)),
            batch_size: 128,
            imbalanced: false,
        }
    }

    /// The 4096-wide LSTM over UCF101 video features: 34,663,525
    /// parameters, batch 128; per-batch time follows the long-tail
    /// distribution of Figure 2b (mean 1219 ms, σ 760 ms, clipped to
    /// [156 ms, 8000 ms]).
    pub fn lstm_ucf101() -> Self {
        ModelProfile {
            name: "LSTM".into(),
            param_count: 34_663_525,
            sim_dim: 512,
            compute: ComputeTimeModel::long_tail_ms(1219.0, 760.0, 156.0, 8000.0),
            batch_size: 128,
            imbalanced: true,
        }
    }

    /// Transformer on WMT17: 61,362,176 parameters, 4096-token batches;
    /// sentence-length variance gives a moderate long tail
    /// (mean 400 ms, σ 160 ms per iteration).
    pub fn transformer_wmt17() -> Self {
        ModelProfile {
            name: "Transformer".into(),
            param_count: 61_362_176,
            sim_dim: 512,
            compute: ComputeTimeModel::long_tail_ms(400.0, 160.0, 100.0, 2000.0),
            batch_size: 4096,
            imbalanced: true,
        }
    }

    /// All four evaluation profiles, in the paper's reporting order.
    pub fn evaluation_set() -> Vec<ModelProfile> {
        vec![
            ModelProfile::resnet50(),
            ModelProfile::vgg16(),
            ModelProfile::lstm_ucf101(),
            ModelProfile::transformer_wmt17(),
        ]
    }

    /// Returns a copy with a different simulated optimization dimension,
    /// for tests that want tiny tensors.
    pub fn with_sim_dim(mut self, dim: usize) -> Self {
        self.sim_dim = dim;
        self
    }

    /// Returns a copy with a different compute model (e.g. to disable the
    /// long tail in an ablation).
    pub fn with_compute(mut self, compute: ComputeTimeModel) -> Self {
        self.compute = compute;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameter_counts() {
        assert_eq!(ModelProfile::resnet50().param_count, 25_559_081);
        assert_eq!(ModelProfile::lstm_ucf101().param_count, 34_663_525);
        assert_eq!(ModelProfile::transformer_wmt17().param_count, 61_362_176);
        assert!(ModelProfile::vgg16().param_count > 138_000_000);
    }

    #[test]
    fn grad_bytes_is_4x_params() {
        for p in ModelProfile::evaluation_set() {
            assert_eq!(p.grad_bytes(), p.param_count * 4, "{}", p.name);
        }
    }

    #[test]
    fn dynamic_networks_are_marked_imbalanced() {
        assert!(!ModelProfile::resnet50().imbalanced);
        assert!(!ModelProfile::vgg16().imbalanced);
        assert!(ModelProfile::lstm_ucf101().imbalanced);
        assert!(ModelProfile::transformer_wmt17().imbalanced);
    }

    #[test]
    fn vgg_is_most_communication_heavy() {
        let set = ModelProfile::evaluation_set();
        let vgg = set.iter().find(|p| p.name == "VGG16").unwrap();
        for p in &set {
            assert!(p.grad_bytes() <= vgg.grad_bytes());
        }
    }

    #[test]
    fn builders_override_fields() {
        let p = ModelProfile::resnet50()
            .with_sim_dim(32)
            .with_compute(ComputeTimeModel::Constant(SimDuration::from_millis(1)));
        assert_eq!(p.sim_dim, 32);
        assert_eq!(
            p.compute,
            ComputeTimeModel::Constant(SimDuration::from_millis(1))
        );
        // Parameter count (and hence comm cost) is untouched.
        assert_eq!(p.param_count, 25_559_081);
    }
}
