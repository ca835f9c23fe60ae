//! The GPU↔CPU transfer-overhead model (Table 5, §8.5).
//!
//! RNA stages gradients in CPU memory: each iteration writes the freshly
//! computed gradient from GPU to CPU before the MPI AllReduce and reads the
//! reduced result back afterwards. Both copies cross PCIe, so the extra cost
//! per iteration is `2 × grad_bytes / pcie_bandwidth` (plus negligible
//! latency), and the *relative* overhead is that cost divided by the
//! iteration time. Models with more parameters (VGG16, Transformer) pay
//! proportionally more — the ordering Table 5 reports.

use rna_simnet::{LinkModel, SimDuration};

/// The per-iteration transfer cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModel {
    pcie: LinkModel,
}

impl TransferModel {
    /// A transfer model over the given GPU↔CPU link.
    pub fn new(pcie: LinkModel) -> Self {
        TransferModel { pcie }
    }

    /// Extra time RNA spends per iteration moving one gradient GPU→CPU and
    /// one reduced result CPU→GPU.
    pub fn per_iteration_cost(&self, grad_bytes: u64) -> SimDuration {
        self.pcie.transfer_time(grad_bytes) + self.pcie.transfer_time(grad_bytes)
    }

    /// The transfer cost as a percentage of total iteration time
    /// (`iteration_time` is compute + synchronization *without* the
    /// transfer).
    ///
    /// # Panics
    ///
    /// Panics if `iteration_time` is zero.
    pub fn overhead_percent(&self, grad_bytes: u64, iteration_time: SimDuration) -> f64 {
        assert!(!iteration_time.is_zero(), "iteration time must be nonzero");
        let extra = self.per_iteration_cost(grad_bytes).as_secs_f64();
        let total = extra + iteration_time.as_secs_f64();
        100.0 * extra / total
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel::new(LinkModel::pcie_gen3())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelProfile;

    #[test]
    fn cost_is_two_crossings() {
        let t = TransferModel::default();
        let one_way = LinkModel::pcie_gen3().transfer_time(1 << 20);
        assert_eq!(t.per_iteration_cost(1 << 20), one_way + one_way);
    }

    #[test]
    fn overhead_grows_with_model_size() {
        let t = TransferModel::default();
        let iter = SimDuration::from_millis(300);
        let small = t.overhead_percent(ModelProfile::resnet50().grad_bytes(), iter);
        let large = t.overhead_percent(ModelProfile::vgg16().grad_bytes(), iter);
        assert!(large > small);
    }

    #[test]
    fn overhead_shrinks_with_longer_iterations() {
        let t = TransferModel::default();
        let bytes = ModelProfile::lstm_ucf101().grad_bytes();
        let fast = t.overhead_percent(bytes, SimDuration::from_millis(100));
        let slow = t.overhead_percent(bytes, SimDuration::from_millis(1000));
        assert!(slow < fast);
    }

    #[test]
    fn overhead_is_a_percentage() {
        let t = TransferModel::default();
        let pct = t.overhead_percent(1 << 30, SimDuration::from_micros(1));
        assert!((0.0..100.0).contains(&pct));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_iteration_time_panics() {
        TransferModel::default().overhead_percent(1, SimDuration::ZERO);
    }

    #[test]
    fn table5_ordering_matches_paper() {
        // Paper: VGG16 23% > Transformer 18% > ResNet50 6.2% > LSTM 3.8%.
        // The ordering follows from bytes/iteration-time; use the paper's
        // per-iteration times implied by each profile.
        let t = TransferModel::default();
        let pct = |profile: ModelProfile, ms| {
            t.overhead_percent(profile.grad_bytes(), SimDuration::from_millis(ms))
        };
        let rows = [
            pct(ModelProfile::vgg16(), 140),
            pct(ModelProfile::transformer_wmt17(), 400),
            pct(ModelProfile::resnet50(), 210),
            pct(ModelProfile::lstm_ucf101(), 1219),
        ];
        assert!(rows[0] > rows[1]);
        assert!(rows[1] > rows[2]);
        assert!(rows[2] > rows[3]);
    }
}
