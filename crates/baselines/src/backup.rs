//! Checks of §9's backup workers (Chen et al. 2016), which are RNA's
//! driver under `SyncMode::Backup(b)`: each round proceeds with the
//! fastest `n − b` gradients and drops the rest.

mod tests {
    use rna_core::rna::RnaProtocol;
    use rna_core::sim::{Engine, TrainSpec};
    use rna_core::{RnaConfig, SyncMode};
    use rna_workload::HeterogeneityModel;

    fn backup_workers(n: usize, b: usize) -> RnaProtocol {
        RnaProtocol::new(n, RnaConfig::default(), 0).with_election(SyncMode::Backup(b))
    }

    #[test]
    fn trains_and_uses_quorum_participation() {
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 1)
            .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 30))
            .with_max_rounds(120);
        let r = Engine::new(spec, backup_workers(n, 1)).run();
        assert_eq!(r.global_rounds, 120);
        // Participation = (n - b)/n every round.
        assert!((r.mean_participation() - 0.75).abs() < 1e-9);
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
    }

    #[test]
    fn faster_rounds_than_full_barrier() {
        use crate::HorovodProtocol;
        let n = 4;
        let spec = |seed| {
            TrainSpec::smoke_test(n, seed)
                .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 40]))
                .with_max_rounds(60)
        };
        let bsp = Engine::new(spec(2), HorovodProtocol::new(n)).run();
        let backup = Engine::new(spec(2), backup_workers(n, 1)).run();
        // Dropping the 40 ms straggler's gradient removes it from the
        // critical path.
        assert!(
            backup.mean_round_time() < bsp.mean_round_time(),
            "backup {} vs bsp {}",
            backup.mean_round_time(),
            bsp.mean_round_time()
        );
    }

    #[test]
    fn straggler_gradients_are_discarded() {
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 3)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 25]))
            .with_max_rounds(50);
        let r = Engine::new(spec, backup_workers(n, 1)).run();
        // The slow worker's gradients land after their round fired and are
        // dropped: it computed fewer gradients than rounds passed.
        assert!(r.worker_iterations[3] < r.global_rounds);
    }
}
