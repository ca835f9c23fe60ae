//! Shared configuration for all experiments: the approach registry and the
//! mapping from the paper's four workloads onto [`TrainSpec`]s.

use rna_baselines::{AdPsgdProtocol, HorovodProtocol, SgpProtocol};
use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, TaskKind, TrainSpec};
use rna_core::{RnaConfig, RunResult, SyncMode};
use rna_simnet::{LinkModel, SimDuration};
use rna_training::LrSchedule;
use rna_workload::{HeterogeneityModel, ModelProfile};

/// The synchronization approaches compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Horovod (BSP ring AllReduce) — the paper's baseline.
    Horovod,
    /// eager-SGD with majority partial collectives.
    EagerSgd,
    /// AD-PSGD gossip averaging.
    AdPsgd,
    /// RNA (this paper).
    Rna,
    /// RNA with hierarchical synchronization (explicit two-group split,
    /// as in §8.1's mixed-heterogeneity configuration).
    RnaHier,
    /// Stochastic gradient push (related work, §9).
    Sgp,
    /// Synchronous SGD with one backup worker (related work, §9).
    BackupWorkers,
    /// Asynchronous centralized parameter server (§2.2's hotspot).
    AsyncPs,
}

impl Approach {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::Horovod => "Horovod",
            Approach::EagerSgd => "eager-SGD",
            Approach::AdPsgd => "AD-PSGD",
            Approach::Rna => "RNA",
            Approach::RnaHier => "RNA(H)",
            Approach::Sgp => "SGP",
            Approach::BackupWorkers => "Backup(b=1)",
            Approach::AsyncPs => "Async-PS",
        }
    }

    /// Every implemented approach (the extended comparison set).
    pub fn extended_set() -> [Approach; 7] {
        [
            Approach::Horovod,
            Approach::BackupWorkers,
            Approach::EagerSgd,
            Approach::AdPsgd,
            Approach::Sgp,
            Approach::AsyncPs,
            Approach::Rna,
        ]
    }

    /// The four approaches of the paper's headline comparison (Figure 6).
    pub fn paper_set() -> [Approach; 4] {
        [
            Approach::Horovod,
            Approach::EagerSgd,
            Approach::AdPsgd,
            Approach::Rna,
        ]
    }
}

/// How large to run the experiments.
///
/// `Paper` uses the full round budgets the reproduction was tuned on;
/// `Quick` shrinks budgets ~8× so tests and CI runs finish fast while
/// preserving every comparison's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Full budgets (the `repro` binary default).
    Paper,
    /// Reduced budgets for benches and tests.
    Quick,
}

impl ExperimentScale {
    /// Multiplier applied to virtual-time budgets.
    pub fn time_factor(&self) -> f64 {
        match self {
            ExperimentScale::Paper => 1.0,
            ExperimentScale::Quick => 0.125,
        }
    }

    fn budget(&self, base: SimDuration) -> SimDuration {
        base * self.time_factor()
    }
}

/// Runs one approach over a spec. RNA variants take `config`; the
/// hierarchical variant splits the cluster into an explicit fast/slow half
/// (the paper's mixed-heterogeneity grouping).
pub fn run_approach(approach: Approach, spec: &TrainSpec, config: &RnaConfig) -> RunResult {
    let n = spec.num_workers;
    match approach {
        Approach::Horovod => Engine::new(spec.clone(), HorovodProtocol::new(n)).run(),
        Approach::EagerSgd => Engine::new(
            spec.clone(),
            RnaProtocol::new(n, RnaConfig::default(), spec.seed)
                .with_election(SyncMode::EagerMajority),
        )
        .run(),
        Approach::AdPsgd => Engine::new(spec.clone(), AdPsgdProtocol::new(n)).run(),
        Approach::Rna => {
            Engine::new(spec.clone(), RnaProtocol::new(n, config.clone(), spec.seed)).run()
        }
        Approach::RnaHier => {
            let half = (n / 2).max(1);
            let groups = vec![(0..half).collect(), (half..n).collect()];
            // Amortize the inter-group PS exchange over a few rounds —
            // the frequency knob §6 leaves open.
            let protocol = RnaProtocol::grouped(groups, config.clone()).with_ps_every(4);
            Engine::new(spec.clone(), protocol).run()
        }
        Approach::Sgp => Engine::new(spec.clone(), SgpProtocol::new(n)).run(),
        Approach::BackupWorkers => {
            // One backup worker; a single worker has none to spare.
            let mode = if n > 1 {
                SyncMode::Backup(1)
            } else {
                SyncMode::Bsp
            };
            let protocol = RnaProtocol::new(n, RnaConfig::default(), spec.seed).with_election(mode);
            Engine::new(spec.clone(), protocol).run()
        }
        Approach::AsyncPs => Engine::new(spec.clone(), RnaProtocol::async_ps(n)).run(),
    }
}

/// The workloads of §7.2, keyed by the paper's names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// ResNet50 on ImageNet (balanced CNN).
    ResNet50,
    /// VGG16 on CIFAR-10 (communication-dominated CNN).
    Vgg16,
    /// 4096-wide LSTM on UCF101 features (long-tail recurrent).
    Lstm,
    /// Transformer on WMT17 (token-imbalanced attention).
    Transformer,
}

impl Workload {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::ResNet50 => "ResNet50",
            Workload::Vgg16 => "VGG16",
            Workload::Lstm => "LSTM",
            Workload::Transformer => "Transformer",
        }
    }

    /// The Figure 6 set.
    pub fn figure6_set() -> [Workload; 3] {
        [Workload::ResNet50, Workload::Vgg16, Workload::Lstm]
    }

    /// The communication/compute profile for this workload.
    pub fn profile(&self) -> ModelProfile {
        match self {
            Workload::ResNet50 => ModelProfile::resnet50(),
            Workload::Vgg16 => ModelProfile::vgg16(),
            Workload::Lstm => ModelProfile::lstm_ucf101(),
            Workload::Transformer => ModelProfile::transformer_wmt17(),
        }
    }

    /// The synthetic learnable task standing in for this workload (see the
    /// substitution ledger in DESIGN.md).
    pub fn task(&self) -> TaskKind {
        match self {
            Workload::ResNet50 => TaskKind::Classification {
                dim: 16,
                classes: 8,
                hidden: Some(16),
                samples: 512,
                spread: 0.6,
            },
            Workload::Vgg16 => TaskKind::Classification {
                dim: 12,
                classes: 6,
                hidden: Some(20),
                samples: 512,
                spread: 0.5,
            },
            Workload::Lstm => TaskKind::Sequence {
                input_dim: 4,
                classes: 4,
                hidden: 10,
                samples: 360,
                noise: 0.5,
                min_len: 3,
                max_len: 12,
            },
            Workload::Transformer => TaskKind::Sequence {
                input_dim: 4,
                classes: 4,
                hidden: 8,
                samples: 360,
                noise: 0.5,
                min_len: 2,
                max_len: 10,
            },
        }
    }

    /// Virtual-time budget (before scaling). Runs are bounded by time, not
    /// rounds: non-blocking approaches execute many more (cheaper) rounds
    /// than BSP in the same budget, which is exactly the comparison the
    /// paper makes.
    fn base_time(&self) -> SimDuration {
        match self {
            Workload::ResNet50 | Workload::Vgg16 => SimDuration::from_secs(400),
            Workload::Lstm | Workload::Transformer => SimDuration::from_secs(800),
        }
    }

    /// Builds the full [`TrainSpec`] for this workload under the given
    /// heterogeneity.
    pub fn spec(
        &self,
        n: usize,
        hetero: HeterogeneityModel,
        seed: u64,
        scale: ExperimentScale,
    ) -> TrainSpec {
        assert_eq!(hetero.num_workers(), n, "heterogeneity size mismatch");
        TrainSpec {
            num_workers: n,
            profile: self.profile(),
            hetero,
            link: LinkModel::infiniband_edr(),
            task: self.task(),
            seed,
            batch_size: 16,
            lr: LrSchedule::Constant(0.05),
            momentum: 0.0,
            weight_decay: 0.0,
            eval_every: 10,
            eval_every_iters: Some(8 * n as u64),
            max_time: scale.budget(self.base_time()),
            max_rounds: 200_000,
            target_loss: None,
            patience: None,
            charge_transfer_overhead: false,
            crashes: Vec::new(),
            fault_plan: rna_core::fault::FaultPlan::none(),
            net_fault_plan: rna_core::fault::NetFaultPlan::none(),
            churn_plan: rna_core::membership::ChurnPlan::none(),
        }
    }
}

/// The paper's §8.1 dynamic heterogeneity: 0–50 ms random delay per worker
/// per iteration.
pub fn dynamic_hetero(n: usize) -> HeterogeneityModel {
    HeterogeneityModel::dynamic_uniform(n, 0, 50)
}

/// The paper's §8.1 mixed heterogeneity ("M"): group B gets an extra
/// 50–100 ms on top of the dynamic delay.
pub fn mixed_hetero(n: usize) -> HeterogeneityModel {
    HeterogeneityModel::mixed_groups(n, 0, 50, 50, 100)
}

/// Computes `baseline / value` guarding against zero (reported as 0.0).
pub fn speedup(baseline: f64, value: f64) -> f64 {
    if value <= 0.0 {
        0.0
    } else {
        baseline / value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approaches_have_names() {
        for a in [
            Approach::Horovod,
            Approach::EagerSgd,
            Approach::AdPsgd,
            Approach::Rna,
            Approach::RnaHier,
            Approach::Sgp,
            Approach::BackupWorkers,
            Approach::AsyncPs,
        ] {
            assert!(!a.name().is_empty());
        }
        assert_eq!(Approach::paper_set().len(), 4);
        assert_eq!(Approach::extended_set().len(), 7);
    }

    #[test]
    fn every_workload_builds_a_valid_spec() {
        for w in [
            Workload::ResNet50,
            Workload::Vgg16,
            Workload::Lstm,
            Workload::Transformer,
        ] {
            let spec = w.spec(4, dynamic_hetero(4), 1, ExperimentScale::Quick);
            assert_eq!(spec.num_workers, 4);
            assert!(spec.max_time >= SimDuration::from_secs(10));
            assert!(!w.name().is_empty());
        }
    }

    #[test]
    fn quick_scale_shrinks_budget() {
        let paper = Workload::ResNet50.spec(4, dynamic_hetero(4), 1, ExperimentScale::Paper);
        let quick = Workload::ResNet50.spec(4, dynamic_hetero(4), 1, ExperimentScale::Quick);
        assert!(quick.max_time < paper.max_time);
    }

    #[test]
    fn run_approach_covers_every_variant() {
        // Tiny smoke runs across the full registry.
        let config = RnaConfig::default();
        for a in [
            Approach::Horovod,
            Approach::EagerSgd,
            Approach::AdPsgd,
            Approach::Rna,
            Approach::RnaHier,
            Approach::Sgp,
            Approach::BackupWorkers,
            Approach::AsyncPs,
        ] {
            let spec = TrainSpec::smoke_test(4, 3).with_max_rounds(25);
            let r = run_approach(a, &spec, &config);
            assert!(r.global_rounds > 0, "{} made no rounds", a.name());
        }
    }

    #[test]
    fn speedup_guards_zero() {
        assert_eq!(speedup(10.0, 0.0), 0.0);
        assert_eq!(speedup(10.0, 5.0), 2.0);
    }
}
