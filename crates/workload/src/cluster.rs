//! Hardware tiers and cluster composition (Table 2).
//!
//! The paper's physical cluster mixes three GPU generations. Deterministic
//! heterogeneity — some machines are simply slower — is the case RNA's
//! hierarchical synchronization targets (§4). [`ClusterSpec`] turns a tier
//! list into per-worker speed factors for
//! [`crate::HeterogeneityModel::with_speed_factors`].

/// A GPU hardware tier with a relative compute-speed factor
/// (compute-time multiplier; larger = slower).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuTier {
    /// NVIDIA Tesla K80 — the oldest tier (≈2.8× the 2080 Ti's time).
    TeslaK80,
    /// NVIDIA GTX 1080 Ti (≈1.4× the 2080 Ti's time).
    Gtx1080Ti,
    /// NVIDIA RTX 2080 Ti — the fastest tier (1.0×).
    Rtx2080Ti,
}

impl GpuTier {
    /// Compute-time multiplier relative to the fastest tier.
    pub fn slowdown_factor(&self) -> f64 {
        match self {
            GpuTier::TeslaK80 => 2.8,
            GpuTier::Gtx1080Ti => 1.4,
            GpuTier::Rtx2080Ti => 1.0,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            GpuTier::TeslaK80 => "K80",
            GpuTier::Gtx1080Ti => "1080Ti",
            GpuTier::Rtx2080Ti => "2080Ti",
        }
    }
}

/// A cluster described as one tier per worker (one GPU = one worker, the
/// paper's process model).
///
/// # Examples
///
/// ```
/// use rna_workload::cluster::{ClusterSpec, GpuTier};
///
/// let spec = ClusterSpec::uniform(GpuTier::Rtx2080Ti, 8);
/// assert_eq!(spec.num_workers(), 8);
/// assert!(spec.speed_factors().iter().all(|&f| f == 1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    tiers: Vec<GpuTier>,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` workers on `tier`.
    pub fn uniform(tier: GpuTier, n: usize) -> Self {
        ClusterSpec {
            tiers: vec![tier; n],
        }
    }

    /// An explicit tier list.
    pub fn from_tiers(tiers: Vec<GpuTier>) -> Self {
        ClusterSpec { tiers }
    }

    /// The paper's Table 2 testbed: 4 nodes × 2 Tesla K80, 2 nodes ×
    /// 8 GTX 1080 Ti, 4 nodes × 2 RTX 2080 Ti — 32 GPUs total.
    pub fn paper_testbed() -> Self {
        let mut tiers = Vec::with_capacity(32);
        tiers.extend(std::iter::repeat_n(GpuTier::TeslaK80, 8));
        tiers.extend(std::iter::repeat_n(GpuTier::Gtx1080Ti, 16));
        tiers.extend(std::iter::repeat_n(GpuTier::Rtx2080Ti, 8));
        ClusterSpec { tiers }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.tiers.len()
    }

    /// The tier of each worker.
    pub fn tiers(&self) -> &[GpuTier] {
        &self.tiers
    }

    /// Per-worker compute-time multipliers, for
    /// [`crate::HeterogeneityModel::with_speed_factors`].
    pub fn speed_factors(&self) -> Vec<f64> {
        self.tiers.iter().map(GpuTier::slowdown_factor).collect()
    }

    /// A sub-cluster of the first `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the cluster size.
    pub fn take(&self, n: usize) -> ClusterSpec {
        assert!(n <= self.tiers.len(), "sub-cluster larger than cluster");
        ClusterSpec {
            tiers: self.tiers[..n].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_factors_ordered() {
        assert!(GpuTier::TeslaK80.slowdown_factor() > GpuTier::Gtx1080Ti.slowdown_factor());
        assert!(GpuTier::Gtx1080Ti.slowdown_factor() > GpuTier::Rtx2080Ti.slowdown_factor());
        assert_eq!(GpuTier::Rtx2080Ti.slowdown_factor(), 1.0);
    }

    #[test]
    fn tier_names_nonempty() {
        for t in [GpuTier::TeslaK80, GpuTier::Gtx1080Ti, GpuTier::Rtx2080Ti] {
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn paper_testbed_has_32_gpus() {
        let spec = ClusterSpec::paper_testbed();
        assert_eq!(spec.num_workers(), 32);
        let k80 = spec
            .tiers()
            .iter()
            .filter(|t| **t == GpuTier::TeslaK80)
            .count();
        let g1080 = spec
            .tiers()
            .iter()
            .filter(|t| **t == GpuTier::Gtx1080Ti)
            .count();
        let r2080 = spec
            .tiers()
            .iter()
            .filter(|t| **t == GpuTier::Rtx2080Ti)
            .count();
        assert_eq!((k80, g1080, r2080), (8, 16, 8));
    }

    #[test]
    fn speed_factors_align_with_tiers() {
        let spec = ClusterSpec::from_tiers(vec![GpuTier::TeslaK80, GpuTier::Rtx2080Ti]);
        assert_eq!(spec.speed_factors(), vec![2.8, 1.0]);
    }

    #[test]
    fn take_prefix() {
        let spec = ClusterSpec::paper_testbed().take(4);
        assert_eq!(spec.num_workers(), 4);
        assert!(spec.tiers().iter().all(|t| *t == GpuTier::TeslaK80));
    }

    #[test]
    #[should_panic(expected = "larger than cluster")]
    fn take_too_many_panics() {
        ClusterSpec::uniform(GpuTier::Rtx2080Ti, 2).take(3);
    }
}
