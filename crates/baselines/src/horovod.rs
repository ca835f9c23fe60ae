//! Checks of Horovod's strict barrier, which is RNA's driver under
//! `SyncMode::Bsp` built by [`crate::HorovodProtocol`].

mod tests {
    use crate::HorovodProtocol;
    use rna_core::sim::{Engine, TrainSpec};
    use rna_core::StopReason;
    use rna_workload::HeterogeneityModel;

    #[test]
    fn bsp_trains_and_counts_full_participation() {
        let spec = TrainSpec::smoke_test(4, 1).with_max_rounds(100);
        let r = Engine::new(spec, HorovodProtocol::new(4)).run();
        assert_eq!(r.stop_reason, StopReason::MaxRounds);
        assert_eq!(r.global_rounds, 100);
        assert!((r.mean_participation() - 1.0).abs() < 1e-9);
        // Every worker executed exactly one iteration per round.
        assert!(r.worker_iterations.iter().all(|&i| i == 100));
        let pts = r.history.points();
        assert!(pts.last().unwrap().loss < pts[0].loss);
    }

    #[test]
    fn replicas_stay_identical() {
        // With a strict barrier all replicas apply identical updates, so a
        // second run must produce identical evaluation trajectories.
        let run = || {
            Engine::new(
                TrainSpec::smoke_test(3, 8).with_max_rounds(30),
                HorovodProtocol::new(3),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.wall_time, b.wall_time);
    }

    #[test]
    fn straggler_bounds_round_time() {
        // One worker with a fixed 40 ms delay drags every BSP round.
        let n = 4;
        let spec = TrainSpec::smoke_test(n, 3)
            .with_hetero(HeterogeneityModel::deterministic(&[0, 0, 0, 40]))
            .with_max_rounds(40);
        let r = Engine::new(spec, HorovodProtocol::new(n)).run();
        // Round = 5 ms compute + 40 ms straggler + collective.
        assert!(
            r.mean_round_time() >= rna_simnet::SimDuration::from_millis(45),
            "round time {}",
            r.mean_round_time()
        );
        // Fast workers show substantial Wait time; the straggler shows none
        // (it is always the last to arrive).
        let fast_wait = r.breakdown[0].wait;
        let slow_wait = r.breakdown[3].wait;
        assert!(fast_wait > slow_wait * 5);
    }

    #[test]
    fn single_worker_bsp_works() {
        let spec = TrainSpec::smoke_test(1, 2).with_max_rounds(20);
        let r = Engine::new(spec, HorovodProtocol::new(1)).run();
        assert_eq!(r.global_rounds, 20);
    }
}
