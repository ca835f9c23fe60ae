use rna_tensor::codec::Compression;

/// Configuration of the RNA protocol.
///
/// The defaults are the paper's operating point: two probes
/// (power-of-two-choices, §3.2), staleness-weighted local accumulation with
/// a bound of 4, dynamic learning-rate scaling (Linear Scaling Rule, §3.3),
/// and a bounded iteration lead so fast workers cannot run arbitrarily far
/// ahead of the global round.
///
/// # Examples
///
/// ```
/// use rna_core::RnaConfig;
///
/// let config = RnaConfig::default().with_probes(3).with_staleness_bound(2);
/// assert_eq!(config.probes, 3);
/// assert_eq!(config.staleness_bound, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RnaConfig {
    /// Number of workers probed per round (`d` in power-of-`d`-choices).
    /// `1` degenerates to pure random initiator selection.
    pub probes: usize,
    /// Maximum number of locally accumulated gradients a worker keeps;
    /// older entries are overwritten (bounded staleness, §3.3).
    pub staleness_bound: usize,
    /// Weight accumulated gradients linearly by recency (§3.3). When
    /// `false`, accumulated gradients are averaged uniformly (ablation).
    pub weighted_accumulation: bool,
    /// Scale the learning rate by the number of contributors each round
    /// (Linear Scaling Rule). When `false`, the base rate is used
    /// unchanged (ablation).
    pub dynamic_lr_scaling: bool,
    /// How many iterations a worker may run ahead of the global round
    /// before pausing.
    pub max_lead: u64,
    /// Gradient wire codec. The default, [`Compression::Lossless`], is
    /// bit-identical (values, bytes and virtual time) to the pre-codec wire
    /// path. Lossy codecs shrink every gradient exchange and carry their
    /// quantization error forward through per-worker error-feedback
    /// residuals, so training stays convergent.
    pub compression: Compression,
}

impl Default for RnaConfig {
    fn default() -> Self {
        RnaConfig {
            probes: 2,
            staleness_bound: 4,
            weighted_accumulation: true,
            dynamic_lr_scaling: true,
            max_lead: 8,
            compression: Compression::Lossless,
        }
    }
}

impl RnaConfig {
    /// Sets the probe count.
    ///
    /// # Panics
    ///
    /// Panics if `probes == 0`.
    pub fn with_probes(mut self, probes: usize) -> Self {
        assert!(probes > 0, "need at least one probe");
        self.probes = probes;
        self
    }

    /// Sets the bounded-staleness cache depth.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn with_staleness_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "staleness bound must be at least one");
        self.staleness_bound = bound;
        self
    }

    /// Enables or disables staleness-weighted accumulation.
    pub fn with_weighted_accumulation(mut self, on: bool) -> Self {
        self.weighted_accumulation = on;
        self
    }

    /// Enables or disables dynamic learning-rate scaling.
    pub fn with_dynamic_lr_scaling(mut self, on: bool) -> Self {
        self.dynamic_lr_scaling = on;
        self
    }

    /// Sets the maximum iteration lead.
    ///
    /// # Panics
    ///
    /// Panics if `lead == 0`.
    pub fn with_max_lead(mut self, lead: u64) -> Self {
        assert!(lead > 0, "max lead must be at least one");
        self.max_lead = lead;
        self
    }

    /// Selects the gradient wire codec.
    ///
    /// # Panics
    ///
    /// Panics if the codec is `TopK` with `permille` outside `1..=1000`.
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression
            .checked()
            .unwrap_or_else(|| panic!("TopK permille must be in 1..=1000, got {compression:?}"));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_operating_point() {
        let c = RnaConfig::default();
        assert_eq!(c.probes, 2);
        assert!(c.weighted_accumulation);
        assert!(c.dynamic_lr_scaling);
        assert!(c.staleness_bound >= 1);
        assert!(c.max_lead >= 1);
        assert_eq!(
            c.compression,
            Compression::Lossless,
            "lossless wire is the default — pre-codec runs stay bit-identical"
        );
    }

    #[test]
    fn compression_builder_sets_codec() {
        let c = RnaConfig::default().with_compression(Compression::Fp16);
        assert_eq!(c.compression, Compression::Fp16);
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn rejects_invalid_topk_fraction() {
        RnaConfig::default().with_compression(Compression::TopK { permille: 1001 });
    }

    #[test]
    fn builders_chain() {
        let c = RnaConfig::default()
            .with_probes(4)
            .with_staleness_bound(2)
            .with_weighted_accumulation(false)
            .with_dynamic_lr_scaling(false)
            .with_max_lead(3);
        assert_eq!(c.probes, 4);
        assert_eq!(c.staleness_bound, 2);
        assert!(!c.weighted_accumulation);
        assert!(!c.dynamic_lr_scaling);
        assert_eq!(c.max_lead, 3);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn rejects_zero_probes() {
        RnaConfig::default().with_probes(0);
    }

    #[test]
    #[should_panic(expected = "staleness bound")]
    fn rejects_zero_staleness() {
        RnaConfig::default().with_staleness_bound(0);
    }
}
