//! The discrete-event protocol harness.
//!
//! [`Engine`] owns the *training state* — one model replica, optimizer, and
//! seeded batch stream per worker (identical replicas stored once, see
//! [`Engine::stored_replicas`]), plus the virtual clock, network model,
//! and span accounting — and delegates all *synchronization policy* to a
//! [`Protocol`] implementation through [`Ctx`]. The same engine therefore
//! runs RNA, Horovod-style BSP, AD-PSGD, eager-SGD, and SGP, which is what
//! makes the paper's comparisons apples-to-apples: identical gradients,
//! identical timing models, different synchronization.
//!
//! ## Event model
//!
//! Two event kinds exist: `ComputeDone` (a worker finished an iteration's
//! forward/backward pass) and `Message` (a protocol-defined payload arrives
//! at a node). Gradients are computed *numerically* when an iteration
//! starts, from the worker's parameters at that instant — so a worker whose
//! parameters were updated mid-iteration trains on stale parameters, which
//! is precisely the cross-iteration semantics of §3.3/Figure 4.
//!
//! Node ids `0..n` are workers; [`Ctx::controller_id`] (`n`) is the central
//! scheduler on the root node and [`Ctx::ps_id`] (`n + 1`) the parameter
//! server.

use rna_collectives::CollectiveCost;
use rna_simnet::trace::{SpanKind, SpanTracker};
use rna_simnet::{EventQueue, LinkModel, NetworkModel, SimDuration, SimRng, SimTime};
use rna_tensor::reduce::fold_into;
use rna_tensor::{Tensor, TensorPool};
use rna_training::model::{ElmanRnn, LinearRegression, Mlp, SoftmaxClassifier};
use rna_training::{BatchSampler, Dataset, EarlyStopping, History, LrSchedule, Model, Sgd};
use rna_workload::trace::WorkloadTrace;
use rna_workload::{HeterogeneityModel, ModelProfile};

use crate::fault::{FaultPlan, FaultScript, IterDirective, NetFaultPlan, WorkerFate};
use crate::membership::{join_grant, ChurnPlan};
use crate::recovery::{self, CheckpointStore, RecoveryConfig, RecoveryError};
use crate::stats::{Counters, RunResult, StopReason};
use rna_tensor::wire::{self, Reader};

/// The learnable task a run optimizes.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Gaussian-blob classification; `hidden: None` selects the convex
    /// softmax classifier, `Some(h)` a one-hidden-layer MLP.
    Classification {
        /// Feature dimension.
        dim: usize,
        /// Number of classes.
        classes: usize,
        /// Hidden width (None = linear softmax).
        hidden: Option<usize>,
        /// Corpus size.
        samples: usize,
        /// Cluster spread (difficulty).
        spread: f32,
    },
    /// Variable-length sequence classification on an Elman RNN.
    Sequence {
        /// Per-step input dimension.
        input_dim: usize,
        /// Number of classes.
        classes: usize,
        /// RNN hidden width.
        hidden: usize,
        /// Corpus size.
        samples: usize,
        /// Observation noise.
        noise: f32,
        /// Minimum sequence length.
        min_len: usize,
        /// Maximum sequence length.
        max_len: usize,
    },
    /// Noisy linear regression (used by convergence sanity tests).
    Regression {
        /// Feature dimension.
        dim: usize,
        /// Corpus size.
        samples: usize,
        /// Label noise.
        noise: f32,
    },
}

impl TaskKind {
    /// The smoke task: 256 blobs in 8 dimensions over 4 classes, on the
    /// 36-parameter softmax. [`TrainSpec::smoke_test`] trains it, and so
    /// does every run of the real worlds.
    pub const SMOKE: TaskKind = TaskKind::Classification {
        dim: 8,
        classes: 4,
        hidden: None,
        samples: 256,
        spread: 0.4,
    };

    /// Draws the whole dataset, then the initial model, from `rng`: the one
    /// constructor of every world's task. The simulator splits off an
    /// evaluation set; the real worlds train and evaluate on all of it.
    pub fn build(&self, rng: &mut SimRng) -> (Dataset, Box<dyn Model>) {
        match *self {
            TaskKind::Classification {
                dim,
                classes,
                hidden,
                samples,
                spread,
            } => {
                let ds = Dataset::blobs(samples, dim, classes, spread, rng);
                let model: Box<dyn Model> = match hidden {
                    Some(h) => Box::new(Mlp::new(dim, h, classes, rng)),
                    None => Box::new(SoftmaxClassifier::new(dim, classes, rng)),
                };
                (ds, model)
            }
            TaskKind::Sequence {
                input_dim,
                classes,
                hidden,
                samples,
                noise,
                min_len,
                max_len,
            } => {
                let lengths: Vec<usize> = (0..samples)
                    .map(|_| rng.uniform_usize(min_len..max_len + 1))
                    .collect();
                let ds = Dataset::sequences(&lengths, input_dim, classes, noise, rng);
                let model = Box::new(ElmanRnn::new(input_dim, hidden, classes, rng));
                (ds, model)
            }
            TaskKind::Regression {
                dim,
                samples,
                noise,
            } => {
                let ds = Dataset::regression(samples, dim, noise, rng);
                (ds, Box::new(LinearRegression::new(dim)))
            }
        }
    }
}

/// Full specification of one training run.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Number of workers.
    pub num_workers: usize,
    /// Workload profile (compute model + communication volume).
    pub profile: ModelProfile,
    /// Injected heterogeneity.
    pub hetero: HeterogeneityModel,
    /// Network link model.
    pub link: LinkModel,
    /// The learnable task.
    pub task: TaskKind,
    /// Master seed; all randomness forks from it.
    pub seed: u64,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule (indexed by global round).
    pub lr: LrSchedule,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Evaluate every this many global rounds — or, when
    /// [`TrainSpec::eval_every_iters`] is set, this field is ignored.
    pub eval_every: u64,
    /// When set, evaluate each time the cluster-wide iteration count
    /// crosses another multiple of this value (a data-uniform "per epoch"
    /// cadence, like the paper's Keras callback). This keeps the
    /// early-stopping patience comparable across protocols whose *round*
    /// cadences differ wildly.
    pub eval_every_iters: Option<u64>,
    /// Virtual-time budget.
    pub max_time: SimDuration,
    /// Global-round budget.
    pub max_rounds: u64,
    /// Stop when evaluation loss reaches this value.
    pub target_loss: Option<f64>,
    /// Early-stopping patience (checked at each evaluation), if any.
    pub patience: Option<u32>,
    /// Charge RNA's GPU↔CPU staging cost (2 × gradient over PCIe) per
    /// round to protocols that ask for [`Ctx::transfer_overhead`].
    pub charge_transfer_overhead: bool,
    /// Fault injection: `(worker, at)` pairs — the worker crashes at the
    /// given instant, wherever it is in its iteration (mid-compute, with a
    /// gradient in flight, mid-probe), and never computes or communicates
    /// again. The simulator's own kill: the real worlds' counterpart is the
    /// process world's SIGKILL.
    pub crashes: Vec<(usize, SimDuration)>,
    /// Iteration-indexed fault injection shared with the real worlds (see
    /// [`crate::fault`]): crashes fire after a worker completes exactly
    /// `at_iter` iterations; hangs and slowdowns stretch the affected
    /// iterations' compute time in virtual time; restarts crash the worker
    /// then rejoin it after a virtual-time dwell.
    pub fault_plan: FaultPlan,
    /// Network fault injection shared with the threaded runtime: per-link
    /// drop probabilities, flaps, and partitions, applied by the fabric at
    /// delivery time ([`Ctx::send`]).
    pub net_fault_plan: NetFaultPlan,
    /// Elastic-membership script shared with the real runtimes:
    /// `num_workers` is the *capacity* (the largest membership the run
    /// ever holds); identities with a scheduled join start dormant and
    /// are admitted at their join round, retirees drain through their
    /// final round, evictees are dropped at theirs. Protocols that do not
    /// consult the plan simply run every identity from the start.
    pub churn_plan: ChurnPlan,
}

impl TrainSpec {
    /// A tiny, fast configuration for tests and examples: `n` homogeneous
    /// workers, 5 ms iterations, blob classification on a softmax model.
    pub fn smoke_test(n: usize, seed: u64) -> Self {
        use rna_workload::ComputeTimeModel;
        let profile = ModelProfile::resnet50()
            .with_sim_dim(64)
            .with_compute(ComputeTimeModel::Constant(SimDuration::from_millis(5)));
        TrainSpec {
            num_workers: n,
            profile,
            hetero: HeterogeneityModel::homogeneous(n),
            link: LinkModel::infiniband_edr(),
            task: TaskKind::SMOKE,
            seed,
            batch_size: 16,
            lr: LrSchedule::Constant(0.1),
            momentum: 0.0,
            weight_decay: 0.0,
            eval_every: 5,
            eval_every_iters: None,
            max_time: SimDuration::from_secs(10),
            max_rounds: 300,
            target_loss: None,
            patience: None,
            charge_transfer_overhead: false,
            crashes: Vec::new(),
            fault_plan: FaultPlan::none(),
            net_fault_plan: NetFaultPlan::none(),
            churn_plan: ChurnPlan::none(),
        }
    }

    /// Injects a crash: `worker` dies `at` after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn with_crash(mut self, worker: usize, at: SimDuration) -> Self {
        assert!(worker < self.num_workers, "crash target out of range");
        self.crashes.push((worker, at));
        self
    }

    /// Injects an iteration-indexed crash: `worker` dies after completing
    /// exactly `at_iter` local iterations, its final gradient discarded —
    /// the crash every world executes.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn with_crash_at_iter(mut self, worker: usize, at_iter: u64) -> Self {
        assert!(worker < self.num_workers, "crash target out of range");
        self.fault_plan = self.fault_plan.crash(worker, at_iter);
        self
    }

    /// Installs a whole [`FaultPlan`] (crashes, hangs, slowdowns). Crashes
    /// fire after the victim completes exactly `at_iter` iterations; a
    /// hang stretches the iteration it interrupts by its duration; a
    /// slowdown stretches every iteration from `from_iter` on.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a worker outside `0..num_workers`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if let Some(max) = plan.max_worker() {
            assert!(max < self.num_workers, "fault plan names worker {max}");
        }
        self.fault_plan = plan;
        self
    }

    /// Installs a [`ChurnPlan`] (joins, retirements, evictions at global
    /// rounds). `num_workers` stays the cluster *capacity*: identities
    /// with a scheduled join start dormant. The plan is validated against
    /// the capacity, as the runtimes validate it.
    ///
    /// # Panics
    ///
    /// Panics if the plan is malformed (see [`ChurnPlan::validate`]), e.g.
    /// it names a worker outside `0..num_workers`.
    pub fn with_churn_plan(mut self, plan: ChurnPlan) -> Self {
        if let Err(e) = plan.validate(self.num_workers) {
            panic!("invalid churn plan: {e}");
        }
        self.churn_plan = plan;
        self
    }

    /// Installs a [`NetFaultPlan`] (lossy links, flaps, partitions). The
    /// fabric applies it at delivery time: dropped messages are billed but
    /// never arrive.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node outside the cluster (see
    /// [`NetFaultPlan::validate`]).
    pub fn with_net_fault_plan(mut self, plan: NetFaultPlan) -> Self {
        plan.validate(self.num_workers);
        self.net_fault_plan = plan;
        self
    }

    /// Replaces the heterogeneity model.
    ///
    /// # Panics
    ///
    /// Panics if the worker counts disagree.
    pub fn with_hetero(mut self, hetero: HeterogeneityModel) -> Self {
        assert_eq!(
            hetero.num_workers(),
            self.num_workers,
            "heterogeneity model must cover every worker"
        );
        self.hetero = hetero;
        self
    }

    /// Sets the target loss.
    pub fn with_target_loss(mut self, target: f64) -> Self {
        self.target_loss = Some(target);
        self
    }

    /// Sets the virtual-time budget.
    pub fn with_max_time(mut self, t: SimDuration) -> Self {
        self.max_time = t;
        self
    }

    /// Sets the global-round budget.
    pub fn with_max_rounds(mut self, r: u64) -> Self {
        self.max_rounds = r;
        self
    }
}

/// A synchronization protocol plugged into the [`Engine`].
pub trait Protocol {
    /// The protocol's message payload.
    type Msg: Clone + std::fmt::Debug;

    /// Short protocol name used in reports.
    fn name(&self) -> &'static str;

    /// Called once before the event loop; typically starts every worker's
    /// first iteration and arms any initial probes.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// A worker finished computing local iteration `iter`; its gradient is
    /// claimable via [`Ctx::take_gradient`].
    fn on_compute_done(&mut self, ctx: &mut Ctx<'_, Self::Msg>, worker: usize, iter: u64);

    /// A protocol message arrived at node `to`.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: usize, to: usize, msg: Self::Msg);

    /// A worker crashed (fault injection). The engine has already marked
    /// it dead: it will never finish its in-flight iteration and
    /// [`Ctx::begin_compute`] on it is a no-op. Protocols that probe or
    /// gossip should stop selecting it.
    fn on_crash(&mut self, ctx: &mut Ctx<'_, Self::Msg>, worker: usize) {
        let _ = (ctx, worker);
    }

    /// A crashed worker rejoined (the rejoin half of
    /// [`FaultPlan::restart`]). The engine has already revived it: it is
    /// no longer crashed and may compute again, but its parameters are
    /// whatever they were at crash time — the protocol is responsible for
    /// re-seeding it with the current model and restarting its pipeline.
    /// The default keeps the worker out of the run (a barrier protocol
    /// with no rejoin story stays stalled, which is the paper's point).
    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, Self::Msg>, worker: usize) {
        let _ = (ctx, worker);
    }

    /// Restores protocol-private state from a checkpoint blob previously
    /// passed to [`Ctx::write_checkpoint`]. Returns `false` when the
    /// protocol does not support checkpointing or the blob is malformed
    /// (the default), which makes [`Engine::resume`] fail cleanly.
    fn restore(&mut self, blob: &[u8]) -> bool {
        let _ = blob;
        false
    }

    /// Called instead of [`Protocol::on_start`] when the engine was built
    /// by [`Engine::resume`]: the protocol must restart its pipelines from
    /// the restored (quiesced) state rather than from scratch. The default
    /// delegates to `on_start`, which is only correct for protocols whose
    /// start sequence is state-driven.
    fn on_resume(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.on_start(ctx);
    }
}

#[derive(Debug)]
enum Event<M> {
    ComputeDone { worker: usize, iter: u64 },
    Message { from: usize, to: usize, msg: M },
    Crash { worker: usize },
    Rejoin { worker: usize },
}

/// Engine-side crash-recovery state: where checkpoints go and how often.
struct EngineRecovery {
    store: CheckpointStore,
    config: RecoveryConfig,
    /// Round of the most recent checkpoint (so a cadence round is
    /// checkpointed once, not once per triggering event).
    last_round: u64,
}

/// Engine-side state shared with protocols through [`Ctx`].
pub struct SimState<M> {
    spec: TrainSpec,
    clock: SimTime,
    queue: EventQueue<Event<M>>,
    net: NetworkModel,
    cost: CollectiveCost,
    replicas: Replicas,
    eval_model: Box<dyn Model>,
    train_ds: Dataset,
    eval_ds: Dataset,
    samplers: Vec<BatchSampler>,
    workload_rngs: Vec<SimRng>,
    proto_rng: SimRng,
    codec_rng: SimRng,
    in_flight: Vec<Option<(u64, Tensor)>>,
    pending: Vec<Option<(u64, Tensor)>>,
    local_iter: Vec<u64>,
    next_iter: Vec<u64>,
    computing: Vec<bool>,
    spans: SpanTracker,
    comm_bytes: u64,
    global_round: u64,
    participation_sum: f64,
    history: History,
    early: Option<EarlyStopping>,
    stop: Option<StopReason>,
    evals_done: u64,
    crashed: Vec<bool>,
    last_top5: f64,
    workload_trace: WorkloadTrace,
    fates: Vec<WorkerFate>,
    /// Each worker's reading of `spec.fault_plan`.
    scripts: Vec<FaultScript>,
    counters: Counters,
    rejoin_at: Vec<Option<SimTime>>,
    recovery: Option<EngineRecovery>,
    resumed: bool,
    pool: TensorPool,
}

/// One stored replica: a model and its optimizer.
type Slot = (Box<dyn Model>, Sgd);

/// Every worker's model replica and optimizer, stored once per distinct
/// value (copy on write). A write that reaches only some workers of a slot
/// moves exactly those onto a fresh copy first, so each worker's parameters
/// and momentum are still its own, to the bit. Slots never merge during a
/// run; only a restore re-shares them. DESIGN.md, "One stored replica per
/// distinct value", gives the rules.
struct Replicas {
    /// The stored replicas; each has a holder.
    slots: Vec<Slot>,
    /// Worker → the slot holding its replica.
    slot_of: Vec<usize>,
    /// Per slot: how many workers it holds.
    holders: Vec<usize>,
    /// Per-slot scratch of `apply`: listed holders, and the slot they step
    /// (the slot itself between calls).
    listed: Vec<usize>,
    dest: Vec<usize>,
    /// Scratch of `apply`: the slots one call reaches.
    touched: Vec<usize>,
}

impl Replicas {
    /// `n` workers sharing one slot.
    fn new(model: Box<dyn Model>, opt: Sgd, n: usize) -> Self {
        Replicas {
            slots: vec![(model, opt)],
            slot_of: vec![0; n],
            holders: vec![n],
            listed: vec![0],
            dest: vec![0],
            touched: Vec::new(),
        }
    }

    fn model(&self, w: usize) -> &dyn Model {
        &*self.slots[self.slot_of[w]].0
    }

    fn opt(&self, w: usize) -> &Sgd {
        &self.slots[self.slot_of[w]].1
    }

    /// A new slot holding a copy of slot `s`, and no worker yet.
    fn copy_of(&mut self, s: usize) -> usize {
        let (model, opt) = &self.slots[s];
        let copy = (model.clone_model(), opt.clone());
        let t = self.slots.len();
        self.slots.push(copy);
        self.holders.push(0);
        self.listed.push(0);
        self.dest.push(t);
        t
    }

    fn move_worker(&mut self, w: usize, to: usize) {
        let from = std::mem::replace(&mut self.slot_of[w], to);
        self.holders[from] -= 1;
        self.holders[to] += 1;
        debug_assert!(self.holders[from] > 0, "slot {from} left without a holder");
    }

    /// The slot `w` holds alone, moving it onto a copy if it shares one.
    fn detach(&mut self, w: usize) -> usize {
        let s = self.slot_of[w];
        if self.holders[s] == 1 {
            return s;
        }
        let t = self.copy_of(s);
        self.move_worker(w, t);
        t
    }

    /// One optimizer step for every listed worker (each listed once), taken
    /// once per slot: in place when all its holders are listed, else on a
    /// fresh copy the listed holders move to together.
    fn apply(&mut self, workers: &[usize], grad: &Tensor, lr: f32, lr_scale: f32) {
        // Split or in place is decided from the counts the call began
        // with, before any worker moves.
        for &w in workers {
            let s = self.slot_of[w];
            if self.listed[s] == 0 {
                self.touched.push(s);
            }
            self.listed[s] += 1;
        }
        for i in 0..self.touched.len() {
            let s = self.touched[i];
            let listed = std::mem::take(&mut self.listed[s]);
            debug_assert!(listed <= self.holders[s], "a worker listed twice");
            if listed < self.holders[s] {
                self.dest[s] = self.copy_of(s);
            }
        }
        for &w in workers {
            let to = self.dest[self.slot_of[w]];
            if to != self.slot_of[w] {
                self.move_worker(w, to);
            }
        }
        for s in self.touched.drain(..) {
            let (model, opt) = &mut self.slots[std::mem::replace(&mut self.dest[s], s)];
            opt.set_lr(lr);
            opt.step(model.params_mut(), grad, lr_scale);
        }
    }

    /// Restores worker `w`'s checkpointed pair into a freshly built store,
    /// workers in order. Worker 0 writes the shared slot in place (every
    /// later worker is still to be restored); a worker whose pair is
    /// bit-identical to the previous worker's joins that worker's slot.
    fn restore(&mut self, w: usize, params: &Tensor, velocity: &Tensor) {
        let same = |a: &Tensor, b: &Tensor| {
            let (a, b) = (a.as_slice(), b.as_slice());
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        if let Some(prev) = w.checked_sub(1).map(|p| self.slot_of[p]) {
            let (model, opt) = &self.slots[prev];
            if same(model.params(), params) && same(opt.velocity(), velocity) {
                return self.move_worker(w, prev);
            }
        }
        debug_assert!(
            w > 0 || self.slots.len() == 1,
            "restore needs a fresh store"
        );
        let s = if w == 0 { 0 } else { self.detach(w) };
        let (model, opt) = &mut self.slots[s];
        model.set_params(params);
        opt.set_velocity(velocity);
    }
}

/// The protocol's handle onto the engine.
pub struct Ctx<'a, M>(&'a mut SimState<M>);

impl<M: Clone + std::fmt::Debug> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.0.clock
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.0.spec.num_workers
    }

    /// Node id of the central scheduler (the root node).
    pub fn controller_id(&self) -> usize {
        self.0.spec.num_workers
    }

    /// Node id of the parameter server.
    pub fn ps_id(&self) -> usize {
        self.0.spec.num_workers + 1
    }

    /// The run specification.
    pub fn spec(&self) -> &TrainSpec {
        &self.0.spec
    }

    /// Collective cost calculator over the run's link model.
    pub fn cost(&self) -> CollectiveCost {
        self.0.cost
    }

    /// Gradient payload in bytes (billed at the profile's real model size).
    pub fn grad_bytes(&self) -> u64 {
        self.0.spec.profile.grad_bytes()
    }

    /// RNA's per-round GPU↔CPU staging cost (zero when the spec does not
    /// charge it).
    pub fn transfer_overhead(&self) -> SimDuration {
        if self.0.spec.charge_transfer_overhead {
            rna_workload::transfer::TransferModel::default().per_iteration_cost(self.grad_bytes())
        } else {
            SimDuration::ZERO
        }
    }

    /// The protocol's private RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.0.proto_rng
    }

    /// The codec's private RNG stream (stochastic-rounding draws). Separate
    /// from [`Ctx::rng`] so switching codecs never perturbs probe/election
    /// randomness, and `Lossless` runs (which never draw from it) stay
    /// bit-identical to the pre-codec engine.
    pub fn codec_rng(&mut self) -> &mut SimRng {
        &mut self.0.codec_rng
    }

    /// The global synchronization round counter.
    pub fn global_round(&self) -> u64 {
        self.0.global_round
    }

    /// The learning rate the schedule prescribes for the current round.
    pub fn current_lr(&self) -> f32 {
        self.0.spec.lr.lr_at(self.0.global_round)
    }

    /// Local iterations completed by `worker`.
    pub fn local_iter(&self, worker: usize) -> u64 {
        self.0.local_iter[worker]
    }

    /// Whether `worker` currently has an iteration in flight.
    pub fn is_computing(&self, worker: usize) -> bool {
        self.0.computing[worker]
    }

    /// Number of live (non-crashed) workers.
    pub fn live_workers(&self) -> usize {
        self.0.crashed.iter().filter(|&&c| !c).count()
    }

    /// Whether the run has been stopped.
    pub fn stopped(&self) -> bool {
        self.0.stop.is_some()
    }

    /// Claims the gradient produced by `worker`'s most recently finished
    /// iteration, with its local iteration number.
    pub fn take_gradient(&mut self, worker: usize) -> Option<(u64, Tensor)> {
        self.0.pending[worker].take()
    }

    /// A copy of `worker`'s current parameters, read through the replica
    /// store (identical replicas may share one stored copy).
    pub fn params(&self, worker: usize) -> Tensor {
        self.0.replicas.model(worker).params().clone()
    }

    /// Overwrites `worker`'s parameters (hierarchical broadcast / gossip
    /// averaging). Momentum is preserved, matching the paper's
    /// implementation where `set_weight()` replaces variables only. A
    /// worker that shares its replica slot is first detached onto a copy
    /// of it (its own momentum included); the other holders keep theirs.
    pub fn set_params(&mut self, worker: usize, params: &Tensor) {
        let r = &mut self.0.replicas;
        let s = r.detach(worker);
        r.slots[s].0.set_params(params);
    }

    /// Starts `worker`'s next local iteration: samples a batch, computes
    /// the gradient from the worker's *current* parameters, and schedules
    /// `ComputeDone` after the workload + heterogeneity compute time.
    ///
    /// # Panics
    ///
    /// Panics if the worker already has an iteration in flight.
    pub fn begin_compute(&mut self, worker: usize) {
        let s = &mut *self.0;
        if s.crashed[worker] {
            return;
        }
        assert!(
            !s.computing[worker],
            "worker {worker} already has an iteration in flight"
        );
        if s.stop.is_some() {
            return;
        }
        let iter = s.next_iter[worker];
        // What the fault plan adds to this iteration: a hang stretches the
        // iteration it interrupts, slowdowns every iteration they cover.
        let mut extra_us = 0;
        let script = &mut s.scripts[worker];
        match script.on_iteration_start(iter) {
            IterDirective::Proceed => {}
            IterDirective::HangFor(us) => extra_us = us,
            IterDirective::Crash => {
                // The worker dies instead of starting its next iteration.
                s.queue.schedule(s.clock, Event::Crash { worker });
                return;
            }
            IterDirective::Restart(down_us) => {
                // Crash now, rejoin after the dwell. The rejoin instant is
                // remembered so a checkpoint cut during the dwell can
                // re-schedule it on resume.
                let rejoin = s.clock + SimDuration::from_micros(down_us);
                s.rejoin_at[worker] = Some(rejoin);
                s.queue.schedule(s.clock, Event::Crash { worker });
                s.queue.schedule(rejoin, Event::Rejoin { worker });
                return;
            }
        }
        extra_us += script.slowdown_us(iter);
        if !s.fates[worker].is_departed() {
            s.fates[worker] = script.fate();
        }
        let batch = s.samplers[worker].sample(&s.train_ds);
        // The buffer comes from the pool the drained caches release into,
        // so a steady-state iteration allocates no gradient, and
        // `loss_and_grad_into` overwrites every element, so it skips the
        // pool's zero fill.
        let model = s.replicas.model(worker);
        let mut grad = s.pool.acquire_for_overwrite(model.num_params());
        model.loss_and_grad_into(&batch, &mut grad);
        s.next_iter[worker] += 1;
        s.in_flight[worker] = Some((iter, grad));
        s.computing[worker] = true;
        let units = if s.train_ds.is_sequential() {
            Some(batch.max_units())
        } else {
            None
        };
        let nominal = s
            .spec
            .profile
            .compute
            .sample(&mut s.workload_rngs[worker], units);
        let dur = s
            .spec
            .hetero
            .apply(worker, nominal, &mut s.workload_rngs[worker])
            + SimDuration::from_micros(extra_us);
        s.workload_trace.record(worker, dur);
        s.spans.begin(worker, SpanKind::Compute, s.clock);
        s.queue
            .schedule(s.clock + dur, Event::ComputeDone { worker, iter });
    }

    /// Sends a protocol message across the network; delivery is delayed by
    /// the link's α–β cost for `bytes` and the bytes are accounted. Under
    /// a [`NetFaultPlan`] the fabric may eat the message: the bytes are
    /// still billed (the sender did transmit) but nothing arrives, and
    /// [`Counters::messages_dropped`] ticks.
    pub fn send(&mut self, from: usize, to: usize, bytes: u64, msg: M) {
        let s = &mut *self.0;
        if from != to {
            s.comm_bytes += bytes;
        }
        match s.net.try_delivery(from, to, bytes, s.clock) {
            Some(at) => s.queue.schedule(at, Event::Message { from, to, msg }),
            None => s.counters.messages_dropped += 1,
        }
    }

    /// Whether the `a`↔`b` link is structurally up right now (not inside a
    /// flap window or partition). Always `true` on a fault-free fabric;
    /// lossy-but-up links count as up. Protocols use this to model what a
    /// node can *observe* about its connectivity — e.g. a hierarchical
    /// group deciding whether the parameter server is reachable.
    pub fn link_up(&self, a: usize, b: usize) -> bool {
        self.0.net.link_up(a, b, self.0.clock)
    }

    /// Whether the run injects network faults at all. Retry machinery
    /// arms itself only when this is true, so fault-free runs stay
    /// event-for-event identical to the pre-fault engine.
    pub fn net_faults_enabled(&self) -> bool {
        self.0.net.has_faults()
    }

    /// The run's fault plan. Worker faults (crash/hang/slow/restart) are
    /// executed by the engine itself; *control-plane* faults (controller
    /// crashes) are consulted and executed by the protocol, which owns the
    /// control plane.
    pub fn fault_plan(&self) -> &crate::fault::FaultPlan {
        &self.0.spec.fault_plan
    }

    /// The run ledger. Protocols bump their own tallies in place
    /// (`ctx.counters_mut().probe_retries += 1`); the engine bumps the
    /// fabric's and checkpoints all of them.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.0.counters
    }

    /// The engine's tensor-buffer pool. Protocols route their reduce data
    /// path through it so steady-state rounds recycle buffers instead of
    /// allocating ([`rna_tensor::TensorPool`]).
    pub fn pool_mut(&mut self) -> &mut TensorPool {
        &mut self.0.pool
    }

    /// Returns a tensor's buffer to the engine's pool for reuse.
    pub fn pool_release(&mut self, t: Tensor) {
        self.0.pool.release(t);
    }

    /// Accounts one gradient exchange's encoded wire footprint: `actual`
    /// bytes really moved (codec frames, headers included) against the
    /// `baseline` a lossless wire would have moved for the same exchange.
    /// Feeds [`Counters::bytes_on_wire`] / [`Counters::bytes_saved`].
    pub fn note_wire_bytes(&mut self, actual: u64, baseline: u64) {
        self.0.counters.bytes_on_wire += actual;
        self.0.counters.bytes_saved += baseline.saturating_sub(actual);
    }

    /// Schedules a message to `to` after `delay` with no network charge —
    /// the idiom for completion timers (e.g. "the ring finishes in T").
    pub fn send_after(&mut self, to: usize, delay: SimDuration, msg: M) {
        let s = &mut *self.0;
        s.queue
            .schedule(s.clock + delay, Event::Message { from: to, to, msg });
    }

    /// Accounts `bytes` of traffic that the protocol modelled through a
    /// cost formula rather than individual messages (e.g. a whole ring
    /// AllReduce).
    pub fn charge_bytes(&mut self, bytes: u64) {
        self.0.comm_bytes += bytes;
    }

    /// Marks `worker`'s current span (e.g. `Wait` while blocked on a
    /// barrier, `Communicate` while its gradients are on the wire).
    pub fn set_span(&mut self, worker: usize, kind: SpanKind) {
        let s = &mut *self.0;
        s.spans.begin(worker, kind, s.clock);
    }

    /// Applies the reduced gradient to every listed worker (each listed
    /// once) with the given learning-rate scale (RNA passes the
    /// contributor count, BSP passes 1). Each worker's optimizer steps its
    /// replica's parameters and momentum in place, and workers that share
    /// a replica slot share the step: a slot whose holders are all listed
    /// steps once. A slot only some of whose holders are listed splits
    /// first — the listed ones move together onto one fresh copy, which
    /// steps — so the unlisted holders keep their parameters and momentum
    /// to the bit.
    pub fn apply_reduced(&mut self, workers: &[usize], grad: &Tensor, lr_scale: f32) {
        let s = &mut *self.0;
        let lr = s.spec.lr.lr_at(s.global_round);
        s.replicas.apply(workers, grad, lr, lr_scale);
    }

    /// Applies `worker`'s own gradient to its own replica (AD-PSGD's local
    /// step).
    pub fn apply_local(&mut self, worker: usize, grad: &Tensor, lr_scale: f32) {
        self.apply_reduced(&[worker], grad, lr_scale);
    }

    /// Atomically averages the parameters of two distinct workers
    /// (AD-PSGD's pairwise model averaging): `a`'s replica lerps toward
    /// `b`'s in place and `b` takes a copy of the result. Both are first
    /// detached from any replica slot they share (even with each other),
    /// so no third worker's replica moves; each keeps its own momentum.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is not a worker.
    pub fn average_pair(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "average_pair takes two distinct workers");
        let r = &mut self.0.replicas;
        let (sa, sb) = (r.detach(a), r.detach(b));
        let [(ma, _), (mb, _)] = r
            .slots
            .get_disjoint_mut([sa, sb])
            .expect("detached workers hold distinct slots");
        ma.params_mut().lerp(mb.params(), 0.5);
        mb.set_params(ma.params());
    }

    /// Completes one global synchronization round: bumps the round counter,
    /// records the participation fraction, and (on the evaluation cadence)
    /// evaluates the mean model, checking the target-loss and
    /// early-stopping criteria.
    pub fn finish_round(&mut self, participation: f64) {
        let s = &mut *self.0;
        s.global_round += 1;
        s.participation_sum += participation;
        match s.spec.eval_every_iters {
            Some(every) => {
                // Data-uniform cadence: evaluate when the cluster-wide
                // iteration count crosses another multiple of `every`.
                let iters: u64 = s.local_iter.iter().sum();
                if iters / every > s.evals_done {
                    s.evals_done = iters / every;
                    evaluate(s);
                }
            }
            None => {
                if s.global_round.is_multiple_of(s.spec.eval_every) {
                    evaluate(s);
                }
            }
        }
        if s.stop.is_none() && s.global_round >= s.spec.max_rounds {
            s.stop = Some(StopReason::MaxRounds);
        }
    }

    /// Requests a stop with the given reason (first reason wins).
    pub fn stop(&mut self, reason: StopReason) {
        if self.0.stop.is_none() {
            self.0.stop = Some(reason);
        }
    }

    /// Whether the run is due for a crash-consistent checkpoint: recovery
    /// is enabled, the current round sits on the cadence, and this round
    /// has not been checkpointed yet. Protocols that support checkpointing
    /// poll this after completing a round, quiesce their members, and then
    /// call [`Ctx::write_checkpoint`].
    pub fn checkpoint_due(&self) -> bool {
        match &self.0.recovery {
            Some(r) => {
                let round = self.0.global_round;
                round > 0 && round.is_multiple_of(r.config.every) && r.last_round != round
            }
            None => false,
        }
    }

    /// Writes a crash-consistent checkpoint: the engine's full training
    /// state (clock, counters, every worker's parameters, optimizer state,
    /// RNG stream positions, convergence history) plus the protocol's own
    /// `blob` (its caches, round state, and journal). A checkpoint write
    /// failure is reported on stderr and the run continues — losing a
    /// checkpoint must never kill training.
    ///
    /// The protocol must be quiesced when it calls this: no iteration in
    /// flight anywhere (every pending gradient drained into protocol state
    /// captured by `blob`), no protocol message in flight that cannot be
    /// safely lost. [`Engine::resume`] rebuilds exactly this state.
    pub fn write_checkpoint(&mut self, blob: &[u8]) {
        let s = &mut *self.0;
        debug_assert!(
            s.computing.iter().all(|&c| !c),
            "checkpoint cut while an iteration is in flight"
        );
        let mut payload = Vec::new();
        put_section(&mut payload, &s.encode_engine_section());
        put_section(&mut payload, blob);
        // Without a store (a protocol that never polled `checkpoint_due`)
        // there is nowhere to write.
        let Some(r) = &mut s.recovery else {
            return;
        };
        match r.store.save(&payload) {
            Ok(()) => {
                r.last_round = s.global_round;
                s.counters.checkpoints_written += 1;
            }
            Err(e) => eprintln!(
                "checkpoint write failed at round {}: {e} (continuing)",
                s.global_round
            ),
        }
    }

    /// The run's elastic-membership script. Protocols that honour it
    /// keep a joining worker dormant until its join round and process
    /// leaves at round edges; the engine itself never consults it.
    pub fn churn_plan(&self) -> &ChurnPlan {
        &self.0.spec.churn_plan
    }

    /// Records one mid-run admission: a worker joined and was streamed
    /// `snapshot_bytes` of model snapshot.
    pub fn note_worker_joined(&mut self, snapshot_bytes: u64) {
        self.0.counters.workers_joined += 1;
        self.0.counters.snapshot_bytes_streamed += snapshot_bytes;
    }

    /// Records one planned departure with the fate that names its round:
    /// `Retired` (left after contributing through that round, final
    /// gradient drained) or `Evicted` (removed as that round began,
    /// in-flight work discarded).
    pub fn note_worker_departed(&mut self, worker: usize, fate: WorkerFate) {
        self.0.counters.workers_retired += 1;
        self.0.fates[worker] = fate;
    }

    /// The compute duration of `worker`'s most recently scheduled
    /// iteration (the engine logs every workload draw into its trace at
    /// launch, and a worker has at most one iteration in flight, so inside
    /// a `ComputeDone` handler this is the duration of the iteration that
    /// just finished). Pure compute time — excludes waits and
    /// communication — which is what a speed estimator wants.
    pub fn last_compute_time(&self, worker: usize) -> Option<SimDuration> {
        self.0.workload_trace.durations(worker).last().copied()
    }
}

fn evaluate<M>(s: &mut SimState<M>) {
    // Evaluate the mean of the replicas — the standard metric for
    // decentralized training (all replicas coincide under BSP). The mean
    // is folded into the evaluation model's own parameters in one blocked
    // pass, in the order of a zeroed sum: from 0.0, add each replica in
    // worker order, scale once. All n workers are folded even when they
    // share one stored replica: the rounded mean of n equal values is not
    // always that value, and the reported loss must not move.
    let n = s.spec.num_workers;
    let replicas = (0..n).map(|w| (s.replicas.model(w).params().as_slice(), ()));
    let inv = 1.0 / n as f32;
    let mean = s.eval_model.params_mut().as_mut_slice();
    fold_into(mean, None, replicas, |a, x, ()| a + x, inv);
    let batch = s.eval_ds.full_batch();
    let eval = s.eval_model.evaluate(&batch);
    let (loss, acc) = (f64::from(eval.loss), f64::from(eval.top1));
    s.last_top5 = f64::from(eval.top5);
    s.history
        .record(s.clock.as_secs_f64(), s.global_round, loss, acc);
    if let Some(target) = s.spec.target_loss {
        if loss <= target && s.stop.is_none() {
            s.stop = Some(StopReason::TargetReached);
        }
    }
    if let Some(early) = &mut s.early {
        if early.update(loss) && s.stop.is_none() {
            s.stop = Some(StopReason::EarlyStopped);
        }
    }
}

/// The discrete-event engine driving one protocol over one [`TrainSpec`].
pub struct Engine<P: Protocol> {
    state: SimState<P::Msg>,
    protocol: P,
}

impl<P: Protocol> Engine<P> {
    /// Builds the engine: constructs the dataset, the workers' model
    /// replicas and optimizers (all start from identical parameters and
    /// zero momentum, so they are stored once, in one slot every worker
    /// shares), and forks the RNG streams.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero workers, heterogeneity
    /// model of the wrong size, zero batch).
    pub fn new(spec: TrainSpec, protocol: P) -> Self {
        assert!(spec.num_workers > 0, "need at least one worker");
        assert_eq!(
            spec.hetero.num_workers(),
            spec.num_workers,
            "heterogeneity model must cover every worker"
        );
        assert!(spec.batch_size > 0, "batch size must be positive");
        assert!(spec.eval_every > 0, "evaluation cadence must be positive");
        let mut root = SimRng::seed(spec.seed);
        let mut data_rng = root.fork(1);
        let (dataset, template) = spec.task.build(&mut data_rng);
        // The split draws nothing, so splitting after the model is drawn
        // leaves every stream where splitting first did.
        let (train_ds, eval_ds) = dataset.split(0.2);
        let n = spec.num_workers;
        let opt = Sgd::new(
            spec.lr.lr_at(0),
            spec.momentum,
            spec.weight_decay,
            template.num_params(),
        );
        let replicas = Replicas::new(template.clone_model(), opt, n);
        // Planned joins draw their streams from the disjoint grant
        // namespace every world shares (`join_grant`). `fork` consumes
        // exactly one parent draw regardless of the key, so handing a joiner
        // a different key leaves every original member's stream — and the
        // protocol/codec streams forked after this block — bit-identical to
        // a churn-free run of the same seed.
        let joins = |w| spec.churn_plan.tenure(w).join.is_some();
        let samplers = (0..n)
            .map(|w| {
                let key = if joins(w) {
                    join_grant(w)
                } else {
                    100 + w as u64
                };
                BatchSampler::new(root.fork(key), spec.batch_size)
            })
            .collect();
        let workload_rngs = (0..n)
            .map(|w| {
                let key = if joins(w) {
                    join_grant(w) + 1
                } else {
                    200 + w as u64
                };
                root.fork(key)
            })
            .collect();
        let proto_rng = root.fork(300);
        // Forked after every pre-existing stream: adding the codec stream
        // leaves data/sampler/workload/protocol draws untouched, so runs
        // that never use it (Lossless) replay the pre-codec engine exactly.
        let codec_rng = root.fork(400);
        // A small min-delta keeps noisy near-plateau evaluations from
        // resetting the patience counter forever.
        let early = spec.patience.map(|p| EarlyStopping::new(p, 1e-3));
        spec.net_fault_plan.validate(n);
        let state = SimState {
            net: NetworkModel::uniform(spec.link).with_faults(spec.net_fault_plan.compile(n)),
            cost: CollectiveCost::new(spec.link),
            eval_model: template,
            train_ds,
            eval_ds,
            replicas,
            samplers,
            workload_rngs,
            proto_rng,
            codec_rng,
            in_flight: vec![None; n],
            pending: vec![None; n],
            local_iter: vec![0; n],
            next_iter: vec![0; n],
            computing: vec![false; n],
            spans: SpanTracker::new(n),
            comm_bytes: 0,
            global_round: 0,
            participation_sum: 0.0,
            history: History::new(),
            early,
            stop: None,
            evals_done: 0,
            crashed: vec![false; n],
            last_top5: 0.0,
            workload_trace: WorkloadTrace::new(n),
            fates: vec![WorkerFate::Healthy; n],
            scripts: (0..n).map(|w| spec.fault_plan.script(w)).collect(),
            counters: Counters::default(),
            rejoin_at: vec![None; n],
            recovery: None,
            resumed: false,
            pool: TensorPool::new(),
            clock: SimTime::ZERO,
            // Steady state keeps a few events in flight per worker
            // (compute-done plus protocol messages); sizing the heap up
            // front keeps a 100k-worker run from rehoming it repeatedly.
            queue: EventQueue::with_capacity(4 * n + 64),
            spec,
        };
        Engine { state, protocol }
    }

    /// Enables crash-consistent checkpointing: every `config.every`
    /// completed rounds the protocol quiesces and the engine writes its
    /// full state to `store` (see [`Ctx::write_checkpoint`]). Only
    /// protocols that poll [`Ctx::checkpoint_due`] actually checkpoint —
    /// for others this is inert.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (zero cadence).
    pub fn with_recovery(mut self, store: CheckpointStore, config: RecoveryConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid recovery config: {e}");
        }
        self.state.recovery = Some(EngineRecovery {
            store,
            config,
            last_round: 0,
        });
        self
    }

    /// Rebuilds an engine from the latest intact checkpoint in `store` and
    /// prepares it to continue the run: engine state (clock, counters,
    /// parameters, optimizer state, RNG stream positions, history) is
    /// restored exactly, `protocol` is restored through
    /// [`Protocol::restore`], and [`Engine::run`] will enter via
    /// [`Protocol::on_resume`]. On a fault-free fabric the continuation is
    /// bit-identical to the uninterrupted run: same loss trajectory, wall
    /// time, iteration counts, and comm bytes. (Execution-side traces —
    /// span breakdowns, timelines, the workload trace, pool warm-up —
    /// restart at the checkpoint; and the drop-RNG position of a *faulty*
    /// fabric is not captured, so net-fault runs resume correctly but not
    /// bit-identically.)
    ///
    /// `spec` and `protocol` must be constructed with the same parameters
    /// as the original run; the checkpoint stores no spec and cannot
    /// detect a divergent one beyond size mismatches.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when no intact checkpoint generation exists or
    /// the payload does not match the spec (wrong worker count, wrong
    /// model size, or a protocol that cannot restore the blob).
    pub fn resume(
        spec: TrainSpec,
        protocol: P,
        store: CheckpointStore,
        config: RecoveryConfig,
    ) -> Result<Self, RecoveryError> {
        let loaded = store.load_latest()?;
        let mut engine = Engine::new(spec, protocol);
        let r = &mut Reader::new(&loaded.payload);
        let (Some(engine_bytes), Some(proto_bytes)) = (section(r), section(r)) else {
            return Err(corrupt("section length exceeds payload"));
        };
        engine
            .state
            .restore_engine_section(engine_bytes)
            .ok_or_else(|| corrupt("engine section is malformed or does not match the spec"))?;
        if !engine.protocol.restore(proto_bytes) {
            return Err(corrupt("protocol rejected its checkpoint blob"));
        }
        engine.state.resumed = true;
        let last_round = engine.state.global_round;
        engine.state.recovery = Some(EngineRecovery {
            store,
            config,
            last_round,
        });
        Ok(engine)
    }

    /// How many worker replicas (model and optimizer state) the engine
    /// stores. Workers with identical replicas can share one: a new engine
    /// stores one for all workers, a write that reaches only some workers
    /// of a stored replica splits it, and [`Engine::resume`] re-shares
    /// neighbouring workers whose checkpointed state is bit-identical.
    pub fn stored_replicas(&self) -> usize {
        self.state.replicas.slots.len()
    }

    /// Runs the event loop to completion and returns the results.
    pub fn run(mut self) -> RunResult {
        if self.state.resumed {
            // Re-arm only the fault events still in the future: time-based
            // crashes past the restored clock and the rejoin timers that
            // were pending when the checkpoint was cut. Every other fault
            // is re-read from the plan as the workers start iterations.
            let clock = self.state.clock;
            for (worker, at) in self.state.spec.crashes.clone() {
                if SimTime::ZERO + at > clock {
                    self.state
                        .queue
                        .schedule(SimTime::ZERO + at, Event::Crash { worker });
                }
            }
            for worker in 0..self.state.spec.num_workers {
                if let Some(at) = self.state.rejoin_at[worker] {
                    self.state.queue.schedule(at, Event::Rejoin { worker });
                }
            }
            self.protocol.on_resume(&mut Ctx(&mut self.state));
        } else {
            for (worker, at) in self.state.spec.crashes.clone() {
                self.state
                    .queue
                    .schedule(SimTime::ZERO + at, Event::Crash { worker });
            }
            self.protocol.on_start(&mut Ctx(&mut self.state));
        }
        let max_time = SimTime::ZERO + self.state.spec.max_time;
        let mut events: u64 = 0;
        const EVENT_BUDGET: u64 = 50_000_000;
        // Same-instant events are drained as one batch: when thousands of
        // workers finish a barrier on the same virtual nanosecond this
        // saves a heap sift-down per event, and anything a handler
        // schedules mid-batch sorts after the whole batch anyway (see
        // `EventQueue::pop_batch`), so delivery order — and therefore every
        // replay — is identical to the one-pop-at-a-time loop. The batch
        // buffer is reused across instants.
        let mut batch = Vec::new();
        'event_loop: while self.state.stop.is_none() {
            batch.clear();
            let Some(at) = self.state.queue.pop_batch(&mut batch) else {
                self.state.stop = Some(StopReason::Idle);
                break;
            };
            if at > max_time {
                self.state.clock = max_time;
                self.state.stop = Some(StopReason::MaxTime);
                break;
            }
            self.state.clock = at;
            for (_, ev) in batch.drain(..) {
                if self.state.stop.is_some() {
                    break 'event_loop;
                }
                events += 1;
                if events > EVENT_BUDGET {
                    self.state.stop = Some(StopReason::MaxTime);
                    break 'event_loop;
                }
                match ev {
                    Event::ComputeDone { worker, iter } => {
                        let s = &mut self.state;
                        if s.crashed[worker] {
                            continue;
                        }
                        s.computing[worker] = false;
                        s.local_iter[worker] = iter + 1;
                        s.pending[worker] = s.in_flight[worker].take();
                        // Default to Wait; the protocol overrides by starting
                        // the next compute or marking Communicate.
                        s.spans.begin(worker, SpanKind::Wait, s.clock);
                        self.protocol
                            .on_compute_done(&mut Ctx(&mut self.state), worker, iter);
                    }
                    Event::Message { from, to, msg } => {
                        self.protocol
                            .on_message(&mut Ctx(&mut self.state), from, to, msg);
                    }
                    Event::Crash { worker } => {
                        let s = &mut self.state;
                        if s.crashed[worker] {
                            continue;
                        }
                        s.crashed[worker] = true;
                        s.computing[worker] = false;
                        s.in_flight[worker] = None;
                        s.pending[worker] = None;
                        // A kill the script directed carries its fate; a
                        // time-indexed crash is a permanent crash at the
                        // iterations completed so far.
                        s.fates[worker] = match s.scripts[worker].fate() {
                            fate @ (WorkerFate::Crashed { .. }
                            | WorkerFate::Restarted {
                                rejoined: false, ..
                            }) => fate,
                            _ => WorkerFate::Crashed {
                                at_iter: s.local_iter[worker],
                            },
                        };
                        s.spans.end(worker, s.clock);
                        self.protocol.on_crash(&mut Ctx(&mut self.state), worker);
                    }
                    Event::Rejoin { worker } => {
                        let s = &mut self.state;
                        s.rejoin_at[worker] = None;
                        if !s.crashed[worker] {
                            continue;
                        }
                        s.crashed[worker] = false;
                        s.computing[worker] = false;
                        // Only a script's restart schedules a rejoin.
                        let script = &mut s.scripts[worker];
                        script.mark_rejoined();
                        if let WorkerFate::Restarted { .. } = s.fates[worker] {
                            s.fates[worker] = script.fate();
                        }
                        s.spans.begin(worker, SpanKind::Wait, s.clock);
                        self.protocol.on_rejoin(&mut Ctx(&mut self.state), worker);
                    }
                }
            }
        }
        // Final evaluation so every run ends with a fresh measurement.
        evaluate(&mut self.state);
        let mut s = self.state;
        let timeline =
            crate::timeline::Timeline::from_log(s.spec.num_workers, &s.spans.take_log(), s.clock);
        RunResult {
            protocol: self.protocol.name().to_string(),
            wall_time: s.clock - SimTime::ZERO,
            global_rounds: s.global_round,
            worker_iterations: s.local_iter,
            history: s.history,
            breakdown: s.spans.finish(s.clock),
            comm_bytes: s.comm_bytes,
            participation_sum: s.participation_sum,
            stop_reason: s.stop.unwrap_or(StopReason::Idle),
            final_top5: s.last_top5,
            workload_trace: s.workload_trace,
            timeline,
            worker_fates: s.fates,
            counters: s.counters,
        }
    }
}

fn corrupt(why: &str) -> RecoveryError {
    RecoveryError::Corrupt(why.into())
}

/// Appends one `u64`-length-prefixed section of a checkpoint payload.
fn put_section(out: &mut Vec<u8>, bytes: &[u8]) {
    wire::put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a section written by [`put_section`].
fn section<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = usize::try_from(r.u64()?).ok()?;
    r.bytes_exact(len)
}

impl<M> SimState<M> {
    /// Serializes the engine's training state at a quiesce point (the
    /// engine half of [`Ctx::write_checkpoint`]).
    fn encode_engine_section(&self) -> Vec<u8> {
        let mut section = Vec::new();
        let out = &mut section;
        wire::put_u64(out, self.clock.as_nanos());
        wire::put_u64(out, self.global_round);
        wire::put_f64(out, self.participation_sum);
        wire::put_u64(out, self.comm_bytes);
        wire::put_u64(out, self.evals_done);
        wire::put_f64(out, self.last_top5);
        // The checkpoint counts itself, so a resumed run ends with the
        // same tally as the uninterrupted one.
        Counters {
            checkpoints_written: self.counters.checkpoints_written + 1,
            ..self.counters
        }
        .encode_into(out);
        let n = self.spec.num_workers;
        wire::put_u64(out, n as u64);
        wire::put_u64(out, self.eval_model.num_params() as u64);
        // One params/velocity pair per worker, shared slots or not: the
        // format does not depend on how the replicas are stored.
        for w in 0..n {
            wire::put_u64(out, self.local_iter[w]);
            wire::put_u64(out, self.next_iter[w]);
            wire::put_bool(out, self.crashed[w]);
            wire::put_bool(out, self.scripts[w].restart_fired());
            wire::put_opt_u64(out, self.rejoin_at[w].map(|t| t.as_nanos()));
            self.fates[w].encode_into(out);
            wire::put_tensor(out, self.replicas.model(w).params());
            wire::put_tensor(out, self.replicas.opt(w).velocity());
            recovery::put_rng(out, &self.samplers[w].rng_state());
            recovery::put_rng(out, &self.workload_rngs[w].state());
        }
        recovery::put_rng(out, &self.proto_rng.state());
        recovery::put_rng(out, &self.codec_rng.state());
        wire::put_u64(out, self.history.points().len() as u64);
        for p in self.history.points() {
            wire::put_f64(out, p.time_s);
            wire::put_u64(out, p.iteration);
            wire::put_f64(out, p.loss);
            wire::put_f64(out, p.accuracy);
        }
        section
    }

    /// Restores a section written by [`SimState::encode_engine_section`]
    /// into a freshly built state. `None` when the bytes are truncated or
    /// malformed, or were written for another worker count or model size.
    fn restore_engine_section(&mut self, bytes: &[u8]) -> Option<()> {
        let r = &mut Reader::new(bytes);
        self.clock = SimTime::from_nanos(r.u64()?);
        self.global_round = r.u64()?;
        self.participation_sum = r.f64()?;
        self.comm_bytes = r.u64()?;
        self.evals_done = r.u64()?;
        self.last_top5 = r.f64()?;
        self.counters = Counters::decode(r)?;
        let num_params = self.eval_model.num_params();
        if r.u64()? != self.spec.num_workers as u64 || r.u64()? != num_params as u64 {
            return None;
        }
        for w in 0..self.spec.num_workers {
            self.local_iter[w] = r.u64()?;
            self.next_iter[w] = r.u64()?;
            self.crashed[w] = r.bool()?;
            let restart_fired = r.bool()?;
            self.rejoin_at[w] = r.opt_u64()?.map(SimTime::from_nanos);
            self.fates[w] = WorkerFate::decode(r)?;
            self.scripts[w].restore(restart_fired, self.fates[w]);
            let params = r.tensor()?;
            let velocity = r.tensor()?;
            if params.len() != num_params || velocity.len() != num_params {
                return None;
            }
            self.replicas.restore(w, &params, &velocity);
            self.samplers[w].restore_rng(&recovery::read_rng(r)?);
            self.workload_rngs[w] = SimRng::from_state(&recovery::read_rng(r)?);
            self.in_flight[w] = None;
            self.pending[w] = None;
            self.computing[w] = false;
        }
        self.proto_rng = SimRng::from_state(&recovery::read_rng(r)?);
        self.codec_rng = SimRng::from_state(&recovery::read_rng(r)?);
        let points = r.u64()?;
        if points > r.remaining() as u64 / 32 {
            return None; // more history claimed than bytes available
        }
        self.history = History::new();
        for _ in 0..points {
            self.history.record(r.f64()?, r.u64()?, r.f64()?, r.f64()?);
        }
        // Early stopping has no snapshot of its own: replaying the recorded
        // losses reproduces its best/strike state exactly (it is a pure fold
        // over the evaluation sequence).
        if let Some(early) = &mut self.early {
            let patience = self.spec.patience.expect("early implies patience");
            *early = EarlyStopping::new(patience, 1e-3);
            for p in self.history.points() {
                let _ = early.update(p.loss);
            }
        }
        self.stop = None;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal sequential protocol: one worker at a time computes, its
    /// gradient is applied to everyone, and the next round begins.
    struct RoundRobin {
        current: usize,
    }

    impl Protocol for RoundRobin {
        type Msg = ();

        fn name(&self) -> &'static str {
            "round-robin"
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.begin_compute(self.current);
        }

        fn on_compute_done(&mut self, ctx: &mut Ctx<'_, ()>, worker: usize, _iter: u64) {
            let (_, grad) = ctx.take_gradient(worker).expect("gradient pending");
            let all: Vec<usize> = (0..ctx.num_workers()).collect();
            ctx.apply_reduced(&all, &grad, 1.0);
            ctx.finish_round(1.0 / ctx.num_workers() as f64);
            if !ctx.stopped() {
                self.current = (self.current + 1) % ctx.num_workers();
                ctx.begin_compute(self.current);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _f: usize, _t: usize, _m: ()) {}
    }

    #[test]
    fn engine_runs_and_reduces_loss() {
        let spec = TrainSpec::smoke_test(3, 11).with_max_rounds(150);
        let result = Engine::new(spec, RoundRobin { current: 0 }).run();
        assert_eq!(result.stop_reason, StopReason::MaxRounds);
        assert_eq!(result.global_rounds, 150);
        let h = result.history.points();
        assert!(h.len() >= 2);
        assert!(
            h.last().unwrap().loss < h[0].loss,
            "loss should fall: {} -> {}",
            h[0].loss,
            h.last().unwrap().loss
        );
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            Engine::new(
                TrainSpec::smoke_test(3, 5).with_max_rounds(40),
                RoundRobin { current: 0 },
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.history.points().len(), b.history.points().len());
        assert_eq!(a.final_loss(), b.final_loss());
        assert_eq!(a.worker_iterations, b.worker_iterations);
    }

    #[test]
    fn target_loss_stops_run() {
        let spec = TrainSpec::smoke_test(2, 3)
            .with_target_loss(100.0) // trivially satisfied at first eval
            .with_max_rounds(1000);
        let result = Engine::new(spec, RoundRobin { current: 0 }).run();
        assert_eq!(result.stop_reason, StopReason::TargetReached);
        assert!(result.global_rounds <= 10);
    }

    #[test]
    fn max_time_stops_run() {
        let spec = TrainSpec::smoke_test(2, 3)
            .with_max_time(SimDuration::from_millis(40))
            .with_max_rounds(u64::MAX / 2);
        let result = Engine::new(spec, RoundRobin { current: 0 }).run();
        assert_eq!(result.stop_reason, StopReason::MaxTime);
        assert!(result.wall_time <= SimDuration::from_millis(40));
    }

    #[test]
    fn idle_protocol_stops_immediately() {
        struct Noop;
        impl Protocol for Noop {
            type Msg = ();
            fn name(&self) -> &'static str {
                "noop"
            }
            fn on_start(&mut self, _ctx: &mut Ctx<'_, ()>) {}
            fn on_compute_done(&mut self, _c: &mut Ctx<'_, ()>, _w: usize, _i: u64) {}
            fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _f: usize, _t: usize, _m: ()) {}
        }
        let result = Engine::new(TrainSpec::smoke_test(2, 0), Noop).run();
        assert_eq!(result.stop_reason, StopReason::Idle);
        assert_eq!(result.global_rounds, 0);
        assert_eq!(result.total_iterations(), 0);
    }

    #[test]
    fn replicas_stay_in_sync_under_shared_updates() {
        struct SyncCheck;
        impl Protocol for SyncCheck {
            type Msg = ();
            fn name(&self) -> &'static str {
                "sync-check"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.begin_compute(0);
            }
            fn on_compute_done(&mut self, ctx: &mut Ctx<'_, ()>, worker: usize, _iter: u64) {
                let (_, grad) = ctx.take_gradient(worker).unwrap();
                let all: Vec<usize> = (0..ctx.num_workers()).collect();
                ctx.apply_reduced(&all, &grad, 1.0);
                let p0 = ctx.params(0);
                for w in 1..ctx.num_workers() {
                    assert!(ctx.params(w).approx_eq(&p0, 1e-6));
                }
                ctx.finish_round(1.0);
                if ctx.global_round() < 5 {
                    ctx.begin_compute(0);
                }
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _f: usize, _t: usize, _m: ()) {}
        }
        let result = Engine::new(TrainSpec::smoke_test(3, 1), SyncCheck).run();
        assert_eq!(result.global_rounds, 5);
    }

    #[test]
    fn messages_pay_link_latency() {
        struct PingPong {
            hops: u32,
        }
        impl Protocol for PingPong {
            type Msg = u32;
            fn name(&self) -> &'static str {
                "ping"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.send(0, 1, 1000, 0);
            }
            fn on_compute_done(&mut self, _c: &mut Ctx<'_, u32>, _w: usize, _i: u64) {}
            fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _f: usize, to: usize, hop: u32) {
                self.hops = hop;
                if hop < 4 {
                    ctx.send(to, 1 - to, 1000, hop + 1);
                }
            }
        }
        let spec = TrainSpec::smoke_test(2, 0);
        let expected_latency = spec.link.transfer_time(1000) * 5;
        let result = Engine::new(spec, PingPong { hops: 0 }).run();
        assert_eq!(result.stop_reason, StopReason::Idle);
        assert_eq!(result.wall_time, expected_latency);
        assert_eq!(result.comm_bytes, 5000);
    }

    #[test]
    #[should_panic(expected = "already has an iteration in flight")]
    fn double_begin_compute_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = ();
            fn name(&self) -> &'static str {
                "bad"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.begin_compute(0);
                ctx.begin_compute(0);
            }
            fn on_compute_done(&mut self, _c: &mut Ctx<'_, ()>, _w: usize, _i: u64) {}
            fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _f: usize, _t: usize, _m: ()) {}
        }
        Engine::new(TrainSpec::smoke_test(1, 0), Bad).run();
    }

    #[test]
    #[should_panic(expected = "cover every worker")]
    fn spec_validates_hetero_size() {
        let spec = TrainSpec::smoke_test(3, 0).with_hetero(HeterogeneityModel::homogeneous(2));
        let _ = spec;
    }

    /// Every worker computes continuously; each completion counts a round.
    struct FreeRun;
    impl Protocol for FreeRun {
        type Msg = ();
        fn name(&self) -> &'static str {
            "free-run"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            for w in 0..ctx.num_workers() {
                ctx.begin_compute(w);
            }
        }
        fn on_compute_done(&mut self, ctx: &mut Ctx<'_, ()>, worker: usize, _iter: u64) {
            let _ = ctx.take_gradient(worker);
            ctx.finish_round(ctx.live_workers() as f64 / ctx.num_workers() as f64);
            if !ctx.stopped() {
                ctx.begin_compute(worker);
            }
        }
        fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _f: usize, _t: usize, _m: ()) {}
        fn on_rejoin(&mut self, ctx: &mut Ctx<'_, ()>, worker: usize) {
            ctx.begin_compute(worker);
        }
    }

    #[test]
    fn restart_revives_the_worker_and_reports_the_fate() {
        let plan = FaultPlan::none().restart(1, 4, 30_000);
        let spec = TrainSpec::smoke_test(3, 7)
            .with_max_rounds(60)
            .with_fault_plan(plan);
        let result = Engine::new(spec, FreeRun).run();
        assert_eq!(
            result.worker_fates[1],
            WorkerFate::Restarted {
                at_iter: 4,
                rejoined: true
            }
        );
        assert!(!result.worker_fates[1].is_dead());
        assert!(
            result.worker_iterations[1] > 4,
            "the rejoined worker iterates again: {:?}",
            result.worker_iterations
        );
        assert!(
            result.worker_iterations[1] < result.worker_iterations[0],
            "the 30 ms outage costs iterations: {:?}",
            result.worker_iterations
        );
    }

    #[test]
    fn restart_past_end_of_run_is_a_death() {
        // The rejoin lands after the virtual-time budget: the worker dies
        // at 4 iterations and the fate reports the rejoin never happened.
        let plan = FaultPlan::none().restart(1, 4, 60_000_000);
        let spec = TrainSpec::smoke_test(3, 7)
            .with_max_time(SimDuration::from_millis(200))
            .with_max_rounds(u64::MAX / 2)
            .with_fault_plan(plan);
        let result = Engine::new(spec, FreeRun).run();
        assert_eq!(result.worker_iterations[1], 4);
        assert_eq!(
            result.worker_fates[1],
            WorkerFate::Restarted {
                at_iter: 4,
                rejoined: false
            }
        );
        assert!(result.worker_fates[1].is_dead());
    }

    #[test]
    fn a_timed_crash_mid_iteration_discards_the_gradient_in_flight() {
        // Iterations take 5 ms: 2.5 ms in, worker 1 is computing its first
        // gradient, which never lands.
        let spec = TrainSpec::smoke_test(3, 7)
            .with_max_rounds(60)
            .with_crash(1, SimDuration::from_micros(2_500));
        let result = Engine::new(spec, FreeRun).run();
        assert_eq!(result.worker_iterations[1], 0);
        assert_eq!(result.worker_fates[1], WorkerFate::Crashed { at_iter: 0 });
        assert!(result.worker_iterations[0] > 10);
    }

    #[test]
    fn a_restarted_worker_that_dies_again_is_crashed() {
        // Worker 1's plan restarts it at 4 and crashes it at 8; worker 2
        // restarts at 4 and is killed by the clock after it rejoined. Both
        // end as permanent crashes, not as restarts that never rejoined.
        let plan = FaultPlan::none()
            .restart(1, 4, 30_000)
            .crash(1, 8)
            .restart(2, 4, 30_000);
        let spec = TrainSpec::smoke_test(3, 7)
            .with_max_rounds(60)
            .with_fault_plan(plan)
            .with_crash(2, SimDuration::from_micros(102_500));
        let result = Engine::new(spec, FreeRun).run();
        assert_eq!(result.worker_iterations[1], 8);
        assert_eq!(result.worker_fates[1], WorkerFate::Crashed { at_iter: 8 });
        let at_iter = result.worker_iterations[2];
        assert!(at_iter > 4, "worker 2 rejoined: {at_iter}");
        assert_eq!(result.worker_fates[2], WorkerFate::Crashed { at_iter });
    }

    #[test]
    fn lossy_fabric_drops_messages_and_counts_them() {
        struct Spray;
        impl Protocol for Spray {
            type Msg = u32;
            fn name(&self) -> &'static str {
                "spray"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                for i in 0..200 {
                    ctx.send(0, 1, 100, i);
                }
            }
            fn on_compute_done(&mut self, _c: &mut Ctx<'_, u32>, _w: usize, _i: u64) {}
            fn on_message(&mut self, _c: &mut Ctx<'_, u32>, _f: usize, _t: usize, _m: u32) {}
        }
        let spec = TrainSpec::smoke_test(2, 0)
            .with_net_fault_plan(NetFaultPlan::none().with_seed(5).drop_link(0, 1, 0.5));
        let result = Engine::new(spec, Spray).run();
        assert!(
            result.messages_dropped > 50 && result.messages_dropped < 150,
            "≈half of 200 sends drop: {}",
            result.messages_dropped
        );
        assert_eq!(
            result.comm_bytes, 20_000,
            "dropped messages still bill the sender's bytes"
        );
    }

    #[test]
    fn crash_at_iter_completes_exact_count() {
        let spec = TrainSpec::smoke_test(3, 7)
            .with_max_rounds(45)
            .with_crash_at_iter(1, 4);
        let result = Engine::new(spec, FreeRun).run();
        assert_eq!(
            result.worker_iterations[1], 4,
            "crashed worker must complete exactly its crash iteration count"
        );
        assert!(result.worker_iterations[0] > 4, "survivors keep training");
        assert!(result.worker_iterations[2] > 4, "survivors keep training");
    }

    #[test]
    fn crash_at_iter_zero_never_computes() {
        let spec = TrainSpec::smoke_test(2, 3)
            .with_max_rounds(20)
            .with_crash_at_iter(0, 0);
        let result = Engine::new(spec, FreeRun).run();
        assert_eq!(result.worker_iterations[0], 0);
        assert!(result.worker_iterations[1] > 0);
    }

    #[test]
    fn hang_and_slow_stretch_virtual_time() {
        use crate::fault::FaultPlan;
        // Healthy iterations take 5 ms; worker 0 is slowed +20 ms from
        // iteration 2 and worker 1 hangs 100 ms at iteration 1, so both
        // fall well behind worker 2 in a fixed virtual-time budget.
        let plan = FaultPlan::none().slow(0, 2, 20_000).hang(1, 1, 100_000);
        let spec = TrainSpec::smoke_test(3, 5)
            .with_max_time(SimDuration::from_millis(200))
            .with_max_rounds(u64::MAX / 2)
            .with_fault_plan(plan);
        let result = Engine::new(spec, FreeRun).run();
        let iters = &result.worker_iterations;
        assert!(iters[0] < iters[2], "slowed worker lags: {iters:?}");
        assert!(iters[1] < iters[2], "hung worker lags: {iters:?}");
        assert!(iters[1] > 0, "a hung worker resumes, unlike a crash");
    }

    #[test]
    #[should_panic(expected = "fault plan names worker")]
    fn fault_plan_validates_worker_range() {
        let _ = TrainSpec::smoke_test(2, 0).with_fault_plan(FaultPlan::none().crash(5, 1));
    }

    /// Runs `inner` and records the most replica slots the engine held
    /// after any of its callbacks.
    struct SlotWatch<P> {
        inner: P,
        most: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl<P: Protocol> SlotWatch<P> {
        fn note(&self, ctx: &Ctx<'_, P::Msg>) {
            self.most
                .set(self.most.get().max(ctx.0.replicas.slots.len()));
        }
    }

    impl<P: Protocol> Protocol for SlotWatch<P> {
        type Msg = P::Msg;
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
            self.inner.on_start(ctx);
            self.note(ctx);
        }
        fn on_compute_done(&mut self, ctx: &mut Ctx<'_, P::Msg>, worker: usize, iter: u64) {
            self.inner.on_compute_done(ctx, worker, iter);
            self.note(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, P::Msg>, from: usize, to: usize, msg: P::Msg) {
            self.inner.on_message(ctx, from, to, msg);
            self.note(ctx);
        }
        fn on_crash(&mut self, ctx: &mut Ctx<'_, P::Msg>, worker: usize) {
            self.inner.on_crash(ctx, worker);
            self.note(ctx);
        }
        fn on_rejoin(&mut self, ctx: &mut Ctx<'_, P::Msg>, worker: usize) {
            self.inner.on_rejoin(ctx, worker);
            self.note(ctx);
        }
    }

    /// The most replica slots a 40-round flat RNA run of `spec` holds.
    fn rna_slots(spec: TrainSpec) -> usize {
        let most = std::rc::Rc::new(std::cell::Cell::new(0));
        let inner = crate::rna::RnaProtocol::new(spec.num_workers, crate::RnaConfig::default(), 0);
        let watch = SlotWatch {
            inner,
            most: most.clone(),
        };
        let result = Engine::new(spec.with_max_rounds(40), watch).run();
        assert_eq!(result.global_rounds, 40);
        most.get()
    }

    #[test]
    fn a_fault_free_flat_rna_run_stores_one_replica() {
        let spec =
            TrainSpec::smoke_test(6, 3).with_hetero(HeterogeneityModel::dynamic_uniform(6, 0, 40));
        assert_eq!(rna_slots(spec), 1);
        // A partition keeps some updates from some workers: their
        // replicas split off.
        let plan = NetFaultPlan::none().partition(vec![0, 1], 30_000, 90_000);
        let spec = TrainSpec::smoke_test(6, 3).with_net_fault_plan(plan);
        assert!(rna_slots(spec) > 1);
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        let (a, b) = (a.as_slice(), b.as_slice());
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Asserts that every worker's stored replica equals its entry in a
    /// plain per-worker reference (params, velocity and lr, to the bit).
    fn assert_matches(r: &Replicas, reference: &[Slot]) {
        for (w, (model, opt)) in reference.iter().enumerate() {
            assert!(
                same_bits(r.model(w).params(), model.params()),
                "worker {w} params"
            );
            assert!(
                same_bits(r.opt(w).velocity(), opt.velocity()),
                "worker {w} velocity"
            );
            assert_eq!(r.opt(w).lr().to_bits(), opt.lr().to_bits(), "worker {w} lr");
        }
        let held: usize = r.holders.iter().sum();
        assert_eq!(held, reference.len());
        assert!(r.holders.iter().all(|&h| h > 0), "every slot has a holder");
    }

    /// A store of `n` workers on the smoke test's softmax, momentum 0.9,
    /// and the per-worker reference it must match.
    fn store_and_reference(n: usize) -> (Replicas, Vec<Slot>) {
        let mut rng = SimRng::seed(4);
        let model: Box<dyn Model> = Box::new(SoftmaxClassifier::new(8, 4, &mut rng));
        let opt = Sgd::new(0.1, 0.9, 1e-4, model.num_params());
        let reference = (0..n).map(|_| (model.clone_model(), opt.clone())).collect();
        (Replicas::new(model, opt, n), reference)
    }

    fn grad(seed: u64, len: usize) -> Tensor {
        let mut rng = SimRng::seed(seed);
        Tensor::from_vec(
            (0..len)
                .map(|_| rng.uniform_f64(-0.5..0.5) as f32)
                .collect(),
        )
    }

    fn step_reference(
        reference: &mut [Slot],
        workers: &[usize],
        g: &Tensor,
        lr: f32,
        lr_scale: f32,
    ) {
        for &w in workers {
            let (model, opt) = &mut reference[w];
            opt.set_lr(lr);
            opt.step(model.params_mut(), g, lr_scale);
        }
    }

    #[test]
    fn apply_on_a_strict_subset_moves_exactly_that_subset() {
        let (mut r, mut reference) = store_and_reference(5);
        let len = r.model(0).num_params();
        let all = [0, 1, 2, 3, 4];
        let g = grad(1, len);
        r.apply(&all, &g, 0.1, 5.0);
        step_reference(&mut reference, &all, &g, 0.1, 5.0);
        assert_eq!(
            r.slots.len(),
            1,
            "a step reaching every holder stays in place"
        );
        assert_matches(&r, &reference);

        // Four of five holders, listed out of order: all four leave
        // together (counts are taken before anyone moves), one stays.
        let subset = [4, 0, 2, 1];
        let g = grad(2, len);
        r.apply(&subset, &g, 0.05, 4.0);
        step_reference(&mut reference, &subset, &g, 0.05, 4.0);
        assert_eq!(r.slots.len(), 2);
        assert_eq!(r.slot_of, vec![1, 1, 1, 0, 1]);
        assert_eq!(r.holders, vec![1, 4]);
        assert_matches(&r, &reference);

        // One listed worker from each slot: the lone holder steps in
        // place, the shared slot splits off worker 2 alone.
        let mixed = [3, 2];
        let g = grad(3, len);
        r.apply(&mixed, &g, 0.02, 2.0);
        step_reference(&mut reference, &mixed, &g, 0.02, 2.0);
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.slot_of, vec![1, 1, 2, 0, 1]);
        assert_matches(&r, &reference);

        // Every holder of every slot, across slots: no split.
        r.apply(&all, &g, 0.1, 5.0);
        step_reference(&mut reference, &all, &g, 0.1, 5.0);
        assert_eq!(r.slots.len(), 3);
        assert_matches(&r, &reference);
    }

    /// An engine over the smoke test's softmax with momentum, its
    /// replicas given one shared step so the velocity is not zero.
    fn stepped_engine(n: usize) -> Engine<RoundRobin> {
        let mut spec = TrainSpec::smoke_test(n, 9);
        spec.momentum = 0.9;
        let mut engine = Engine::new(spec, RoundRobin { current: 0 });
        let ctx = &mut Ctx(&mut engine.state);
        let g = grad(5, ctx.params(0).len());
        let all: Vec<usize> = (0..n).collect();
        ctx.apply_reduced(&all, &g, 1.0);
        engine
    }

    /// Each worker's params and velocity, as stored.
    fn pairs(engine: &Engine<RoundRobin>) -> Vec<(Tensor, Tensor)> {
        let r = &engine.state.replicas;
        (0..r.slot_of.len())
            .map(|w| (r.model(w).params().clone(), r.opt(w).velocity().clone()))
            .collect()
    }

    #[test]
    fn set_params_and_average_pair_detach_only_their_workers() {
        let mut engine = stepped_engine(5);
        let before = pairs(&engine);
        let ctx = &mut Ctx(&mut engine.state);
        let target = grad(6, before[0].0.len());
        ctx.set_params(1, &target);
        ctx.set_params(3, &target);
        let r = &engine.state.replicas;
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.slot_of, vec![0, 1, 0, 2, 0]);
        let after = pairs(&engine);
        for w in [0, 2, 4] {
            assert!(same_bits(&after[w].0, &before[w].0), "worker {w} params");
        }
        for w in [1, 3] {
            assert!(
                same_bits(&after[w].0, &target),
                "worker {w} takes the write"
            );
        }
        for w in 0..5 {
            assert!(
                same_bits(&after[w].1, &before[w].1),
                "worker {w} momentum kept"
            );
        }

        // Workers 0 and 2 share a slot with worker 4: averaging them
        // detaches both, each onto its own slot, and leaves 4 alone.
        let ctx = &mut Ctx(&mut engine.state);
        ctx.average_pair(0, 2);
        let r = &engine.state.replicas;
        assert_eq!(r.slots.len(), 5);
        assert_eq!(r.holders, vec![1; 5]);
        let mut mean = before[0].0.clone();
        mean.lerp(&before[2].0, 0.5);
        let averaged = pairs(&engine);
        for w in [0, 2] {
            assert!(same_bits(&averaged[w].0, &mean), "worker {w} averaged");
        }
        assert_eq!(
            r.slot_of[4], 0,
            "the unaveraged holder keeps the original slot"
        );
        assert!(same_bits(&averaged[4].0, &before[4].0));
        for w in 0..5 {
            assert!(
                same_bits(&averaged[w].1, &before[w].1),
                "worker {w} momentum kept"
            );
        }
    }

    #[test]
    fn restore_gives_each_worker_its_checkpointed_pair() {
        // Workers 0-1 and 3-4 share slots; 2 holds its own, 4 shares
        // worker 3's values but not its neighbour 2's.
        let mut engine = stepped_engine(5);
        let ctx = &mut Ctx(&mut engine.state);
        let len = ctx.params(0).len();
        ctx.apply_reduced(&[3, 4], &grad(7, len), 2.0);
        ctx.apply_reduced(&[2], &grad(8, len), 1.0);
        assert_eq!(engine.stored_replicas(), 3);
        let saved = pairs(&engine);
        let section = engine.state.encode_engine_section();

        let mut spec = TrainSpec::smoke_test(5, 9);
        spec.momentum = 0.9;
        let mut fresh = Engine::new(spec, RoundRobin { current: 0 });
        fresh
            .state
            .restore_engine_section(&section)
            .expect("restores");
        assert_eq!(fresh.stored_replicas(), 3);
        assert_eq!(fresh.state.replicas.slot_of, vec![0, 0, 1, 2, 2]);
        for (w, ((p, v), (sp, sv))) in pairs(&fresh).iter().zip(&saved).enumerate() {
            assert!(same_bits(p, sp), "worker {w} params");
            assert!(same_bits(v, sv), "worker {w} velocity");
        }
    }
}
