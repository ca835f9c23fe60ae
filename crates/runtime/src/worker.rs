//! The worker role, written once: `Worker::run` is the loop every worker
//! executes — a thread of the threaded world or an `rna-worker` subprocess —
//! against a `WorkerLink` that hides the I/O that differs.
//!
//! [`run_worker`] is what the `rna-worker` binary calls after parsing its
//! command line: connect, prove key possession through the
//! `Hello`/`Challenge`/`Auth` exchange, receive and validate the `Setup`
//! frame, rebuild the run's task and this worker's RNG streams from the
//! seed (identical to the threaded world's), then run the loop over the
//! socket link. A dead socket does not end the incarnation: the worker
//! re-handshakes under capped exponential backoff and resumes where its
//! local state left off.
//!
//! Fault directives come down in the `Setup` frame and are read by the
//! same [`FaultScript`] as in the simulator, with one difference that is the
//! whole point of the process world: there a crash or crash-restart
//! directive calls [`std::process::abort`] — the process genuinely
//! vanishes mid-protocol, and rejoining is the *coordinator's* problem
//! (it respawns the binary with the next incarnation number and a `Setup`
//! that resumes from the checkpointed iteration).

use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rna_core::fault::{FaultScript, IterDirective, WorkerFate};
use rna_core::membership::{join_grant, Edge};
use rna_simnet::SimRng;
use rna_tensor::codec::FeedbackEncoder;
use rna_tensor::Tensor;
use rna_training::{BatchSampler, Dataset, Model};

use crate::process::still_pending;
use crate::proto::{
    compute_mac, read_msg, write_msg, AuthKey, GradBatch, Msg, ProtoError, WorkerSetup,
};
use crate::threaded::ThreadedConfig;
use crate::transport::{lock, task, worker_streams};

/// How long the worker keeps re-offering its first handshake: the
/// coordinator spawns the whole cluster before some listeners' backlogs
/// drain, and an address-book joiner may dial in before its join round.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-read timeout during the handshake, so a half-open connection (or a
/// fault proxy eating a Challenge/Setup frame) costs one bounded cycle
/// instead of wedging the worker on a read that will never complete.
const HANDSHAKE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// First backoff interval of the reconnect loop, microseconds.
const RECONNECT_BASE_US: u64 = 10_000;

/// Backoff ceiling of the reconnect loop, microseconds.
const RECONNECT_CAP_US: u64 = 640_000;

/// Total reconnect budget after a socket death. Generous: it must cover a
/// coordinator lease expiry plus a restart-from-disk, and a worker that
/// gives up early turns a survivable outage into a lost worker.
const RECONNECT_TIMEOUT: Duration = Duration::from_secs(20);

/// How a worker observes the run and reaches the controller — exactly the
/// I/O the loop must not know, failures included (a link whose I/O breaks
/// raises its own stop flag). The thread link reads and writes the shared
/// mirror; the socket link frames each gradient over TCP.
pub(crate) trait WorkerLink {
    /// The round counter as this worker last saw it.
    fn round(&self) -> u64;
    /// Raised when the run — or this connection — is over; it also cuts
    /// short the injected waits the loop sleeps through.
    fn stop(&self) -> &Stop;
    /// Blocks until the round counter moves off `seen`, the link stops, or
    /// `timeout` passes (a missed-wakeup backstop, and the heartbeat
    /// cadence of a parked worker).
    fn park(&mut self, seen: u64, timeout: Duration);
    /// A sign of life, `iter` iterations completed.
    fn beat(&mut self, iter: u64);
    /// Installs the newest published parameters, if any are new.
    fn refresh(&mut self, model: &mut dyn Model);
    /// Encodes iteration `iter`'s gradient and hands it to the controller
    /// before returning: nothing is held back, so nothing is unsent at a
    /// park, a hang or a death.
    fn deposit(&mut self, iter: u64, grad: Tensor);
    /// Executes a death: a crash, or with `down_for` a crash-restart. `true`
    /// once the same worker is back (a thread that slept out its down
    /// window), `false` if it stays dead; a subprocess aborts instead of
    /// returning — coming back is its coordinator's business.
    fn die(&mut self, down_for: Option<Duration>) -> bool;
}

/// A condition a thread parks on and whoever changes it wakes: the lead
/// gate, a `Stop`'s wait, the process world's supervision, the controller's
/// readiness. The lock guards the count of parked waiters.
#[derive(Default)]
pub(crate) struct Gate {
    parked: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    /// Wakes every parker; with none counted, notifies nobody. Taking the
    /// lock closes the window between a parker's last look at its condition
    /// and its wait: one not yet counted looks after this lock is released.
    /// Notifying after releasing it spares each woken thread a second sleep
    /// on the mutex.
    pub fn wake(&self) {
        let parked = *lock(&self.parked);
        if parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Waits until `pending`, evaluated under the lock at each wake-up,
    /// turns false or `timeout` passes; `true` if it turned false.
    pub fn wait_while(&self, timeout: Duration, pending: impl Fn() -> bool) -> bool {
        let mut parked = lock(&self.parked);
        *parked += 1;
        let (mut parked, waited) = self
            .cv
            .wait_timeout_while(parked, timeout, |_| pending())
            .unwrap_or_else(PoisonError::into_inner);
        *parked -= 1;
        !waited.timed_out()
    }
}

/// A run's (or a connection's) stop flag, and the wait it cuts short. Only
/// raising it wakes that wait, never a round or a parameter push, so a
/// worker sleeping out its compute pays no wake-up per round.
#[derive(Default)]
pub(crate) struct Stop {
    raised: AtomicBool,
    gate: Gate,
}

impl Stop {
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }

    pub fn raise(&self) {
        self.raised.store(true, Ordering::Release);
        self.gate.wake();
    }

    /// Sleeps `d` unless the flag is raised first; `false` when it was.
    pub fn sleep(&self, d: Duration) -> bool {
        !self.gate.wait_while(d, || !self.is_raised())
    }
}

impl WorkerSetup {
    /// What worker `w` of `config` is told when it starts — as a thread, or
    /// as incarnation `incarnation` of a subprocess resuming at `start_iter`.
    pub(crate) fn for_worker(
        config: &ThreadedConfig,
        w: usize,
        (start_iter, incarnation): (u64, u64),
        (round, high_water): (u64, u64),
        params: Tensor,
    ) -> WorkerSetup {
        let tenure = config.churn_plan.tenure(w);
        WorkerSetup {
            worker: w as u32,
            seed: config.seed,
            batch_size: config.batch_size as u64,
            // The barrier is the lead gate at its tightest: one iteration
            // per published round.
            max_lead: if config.mode.reports() {
                1
            } else {
                config.max_lead
            },
            compute_lo_us: config.compute_us[w].0,
            compute_hi_us: config.compute_us[w].1,
            liveness_timeout_us: config.tolerance.liveness_timeout_us,
            start_iter,
            round,
            high_water,
            // A joiner's sampler/compute streams come from the disjoint grant
            // namespace so original members replay their sequences unchanged.
            rng_grant: tenure.join.map_or(0, |_| join_grant(w)),
            leave: tenure.leave,
            compression: config.compression,
            faults: config
                .fault_plan
                .for_worker(w)
                .filter(|f| still_pending(f, start_iter, incarnation))
                .collect(),
            params,
        }
    }

    /// Checks the coordinator's numbers against this worker's own model and
    /// dataset before anything is built or sized from them.
    fn validate(&self, model: &dyn Model, dataset: &Dataset) -> Result<(), ProtoError> {
        let (model_len, samples) = (model.params().len(), dataset.len() as u64);
        // A worker can never have led the round counter by more.
        let furthest = self.high_water.saturating_add(self.max_lead);
        let what = if self.params.len() != model_len {
            "setup: wrong parameter count"
        } else if !(1..=samples).contains(&self.batch_size) {
            "setup: batch size out of range"
        } else if self.max_lead == 0 {
            "setup: zero lead bound"
        } else if self.compute_lo_us > self.compute_hi_us {
            "setup: inverted compute range"
        } else if self.liveness_timeout_us == 0 {
            "setup: zero liveness timeout"
        } else if self.start_iter > furthest {
            "setup: resumes beyond the lead bound"
        } else {
            return Ok(());
        };
        Err(ProtoError::Garbage { what })
    }
}

/// One worker's local state: everything that survives a reconnect and dies
/// with a respawn.
pub(crate) struct Worker {
    setup: WorkerSetup,
    dataset: Arc<Dataset>,
    model: Box<dyn Model>,
    sampler: BatchSampler,
    compute_rng: SimRng,
    pub faults: FaultScript,
    /// Completed local iterations.
    pub local_iter: u64,
}

impl Worker {
    pub fn new(
        setup: WorkerSetup,
        dataset: Arc<Dataset>,
        mut model: Box<dyn Model>,
        sampler_rng: SimRng,
        compute_rng: SimRng,
    ) -> Self {
        let batch_size = usize::try_from(setup.batch_size).unwrap_or(usize::MAX);
        let mut sampler = BatchSampler::new(sampler_rng, batch_size);
        // Fast-forward the sampler so a rejoined incarnation continues the
        // data stream instead of repeating its predecessor's batches.
        for _ in 0..setup.start_iter {
            let _ = sampler.sample(&dataset);
        }
        model.set_params(&setup.params);
        Worker {
            faults: FaultScript::new(setup.faults.clone()),
            local_iter: setup.start_iter,
            setup,
            dataset,
            model,
            sampler,
            compute_rng,
        }
    }

    /// The worker loop: departure check → fault directive → heartbeat →
    /// lead gate → parameters → sample → gradient → injected compute →
    /// deposit, until the link stops. A stop cuts the injected compute
    /// short and abandons that iteration: it is neither deposited nor
    /// counted. Returns the scheduled departure that ended it, if one did.
    pub fn run(&mut self, link: &mut impl WorkerLink) -> Option<WorkerFate> {
        // A parked worker beats every quarter of the liveness window.
        let beat_every = Duration::from_micros((self.setup.liveness_timeout_us / 4).max(1_000));
        while !link.stop().is_raised() {
            // A scheduled departure, observed on the round counter: the
            // worker leaves once the counter reaches the first round it is
            // no longer a member of — an evictee before contributing to its
            // eviction round (the controller purges whatever was left
            // behind), a retiree after working *through* its retirement
            // round (the controller drains that last contribution).
            if let Some((round, Edge::Leave(fate))) = self.setup.leave.map(|e| e.edge()) {
                if link.round() >= round {
                    return Some(fate);
                }
            }
            match self.faults.on_iteration_start(self.local_iter) {
                IterDirective::Crash => {
                    link.die(None);
                    return None;
                }
                IterDirective::Restart(down_us) => {
                    if !link.die(Some(Duration::from_micros(down_us))) {
                        return None;
                    }
                    self.faults.mark_rejoined();
                }
                IterDirective::HangFor(us) => {
                    // Frozen: no heartbeats until the hang lifts.
                    link.stop().sleep(Duration::from_micros(us));
                }
                IterDirective::Proceed => {}
            }
            link.beat(self.local_iter);
            // Bounded lead: park until the round counter catches up,
            // heartbeating so a parked worker is not presumed dead.
            loop {
                let seen = link.round();
                if link.stop().is_raised()
                    || self.local_iter.saturating_sub(seen) < self.setup.max_lead
                {
                    break;
                }
                link.park(seen, beat_every);
                link.beat(self.local_iter);
            }
            if link.stop().is_raised() {
                break;
            }
            link.refresh(self.model.as_mut());
            let batch = self.sampler.sample(&self.dataset);
            let (_, grad) = self.model.loss_and_grad(&batch);
            let (lo, hi) = (self.setup.compute_lo_us, self.setup.compute_hi_us);
            let drawn = (hi > lo).then(|| self.compute_rng.uniform_u64(lo..hi));
            let extra_us = self.faults.slowdown_us(self.local_iter);
            let injected_us = drawn.unwrap_or(lo).saturating_add(extra_us);
            if !link.stop().sleep(Duration::from_micros(injected_us)) {
                break;
            }
            link.deposit(self.local_iter, grad);
            self.local_iter += 1;
        }
        None
    }
}

/// What the socket reader thread shares with the compute loop.
#[derive(Default)]
struct Conn {
    /// The coordinator's round counter (drives the bounded-lead gate).
    round: AtomicU64,
    /// Freshest parameter snapshot not yet applied.
    fresh_params: Mutex<Option<Tensor>>,
    /// Set on `Stop`, socket death, or any protocol violation.
    stop: Stop,
    /// Set *only* on a `Stop` frame: the run ended on purpose. A halt
    /// without this flag is a dead socket, which the reconnect loop owns.
    graceful: AtomicBool,
    gate: Gate,
    /// Length every `Params` frame must have (the model's).
    param_len: usize,
}

impl Conn {
    fn new(round: u64, param_len: usize) -> Self {
        Conn {
            round: AtomicU64::new(round),
            param_len,
            ..Conn::default()
        }
    }

    fn halt(&self) {
        self.stop.raise();
        self.gate.wake();
    }
}

/// Consumes coordinator frames: parameter snapshots and round advances
/// update the connection state (waking the lead gate); `Stop`, a dead
/// socket, or a protocol violation — a `Params` frame of the wrong length
/// included — halts it.
fn reader_loop(mut stream: TcpStream, conn: &Conn) {
    loop {
        match read_msg(&mut stream) {
            Ok(Msg::Params { round: _, params }) if params.len() == conn.param_len => {
                *lock(&conn.fresh_params) = Some(params);
                conn.gate.wake();
            }
            Ok(Msg::Round { round }) => {
                // A plain store, not a max: a controller failover rolls
                // the counter back, and the lead gate must honor that.
                conn.round.store(round, Ordering::Release);
                conn.gate.wake();
            }
            Ok(Msg::Stop) => {
                conn.graceful.store(true, Ordering::Release);
                conn.halt();
                return;
            }
            Ok(_) | Err(_) => {
                conn.halt();
                return;
            }
        }
    }
}

/// [`WorkerLink`] over TCP. Owns what the loop must not know about the
/// wire: the outgoing frame each gradient is encoded straight into, which
/// is also the worker's heartbeat, and the current connection with its
/// reader thread.
struct SocketLink {
    stream: TcpStream,
    conn: Arc<Conn>,
    /// The encode leg and its stochastic-rounding stream: worker state, like
    /// the model, so it survives a reconnect and a controller failover.
    encoder: FeedbackEncoder,
    wire: SimRng,
    batch: GradBatch,
    /// Iteration count the coordinator last heard, so the standalone beat
    /// that follows a deposit is skipped: the coordinator's reader takes a
    /// gradient frame for iteration `i` as a beat at `i + 1`. Cleared by a
    /// park (time has passed) and a reconnect (a fresh socket owes fresh
    /// liveness).
    last_hb: Option<u64>,
    scratch: Vec<u8>,
}

impl SocketLink {
    fn spawn_reader(&self) -> io::Result<JoinHandle<()>> {
        let (read_half, conn) = (self.stream.try_clone()?, Arc::clone(&self.conn));
        Ok(std::thread::spawn(move || reader_loop(read_half, &conn)))
    }

    /// A failed write is a dead socket: halt, and let the reconnect loop
    /// take it from there.
    fn sent(&self, result: io::Result<()>) {
        if result.is_err() {
            self.conn.halt();
        }
    }

    /// Adopts a freshly re-handshaken socket. Frames the old socket ate are
    /// lost like any other in-flight write; the encoder's residual carries
    /// over.
    fn reattach(&mut self, stream: TcpStream, round: u64) {
        self.stream = stream;
        self.conn = Arc::new(Conn::new(round, self.conn.param_len));
        self.last_hb = None;
    }
}

impl WorkerLink for SocketLink {
    fn round(&self) -> u64 {
        self.conn.round.load(Ordering::Acquire)
    }

    fn stop(&self) -> &Stop {
        &self.conn.stop
    }

    fn park(&mut self, seen: u64, timeout: Duration) {
        let conn = &self.conn;
        conn.gate.wait_while(timeout, || {
            conn.round.load(Ordering::Acquire) == seen && !conn.stop.is_raised()
        });
        self.last_hb = None;
    }

    fn beat(&mut self, iter: u64) {
        if self.last_hb != Some(iter) {
            let beat = Msg::Heartbeat { iter };
            let sent = write_msg(&mut self.stream, &beat, &mut self.scratch);
            self.sent(sent);
        }
    }

    fn refresh(&mut self, model: &mut dyn Model) {
        if let Some(p) = lock(&self.conn.fresh_params).take() {
            model.set_params(&p);
        }
    }

    fn deposit(&mut self, iter: u64, mut grad: Tensor) {
        // Error-feedback encode straight into a one-entry frame, sent in one
        // write.
        self.batch.reset();
        let out = self.batch.begin_entry(iter);
        let (_, err) = self.encoder.encode(&mut grad, out, &mut self.wire);
        self.batch.finish_entry(err);
        let sent = self.stream.write_all(self.batch.frame());
        self.last_hb = Some(iter + 1);
        self.sent(sent);
    }

    fn die(&mut self, _down_for: Option<Duration>) -> bool {
        // A real death, not a simulated one: the process vanishes
        // mid-protocol exactly like `kill -9`. For a restart the
        // coordinator owns the rejoin (down window, respawn, checkpointed
        // Setup).
        std::process::abort()
    }
}

/// One connect + challenge–response + `Setup` exchange: `Hello` names the
/// worker, the coordinator answers with a fresh nonce and its term, the
/// worker proves key possession with the MAC, and the `Setup` frame
/// follows. Fails when the coordinator is unreachable, drops the
/// connection (it rejects Hellos it is not yet willing to admit, and
/// responses that fail verification), or answers with garbage.
fn try_handshake(
    addr: &str,
    worker: u32,
    key: &AuthKey,
    incarnation: u32,
) -> Result<(TcpStream, WorkerSetup), ProtoError> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_READ_TIMEOUT));
    let mut scratch = Vec::new();
    write_msg(
        &mut stream,
        &Msg::Hello {
            worker,
            incarnation,
        },
        &mut scratch,
    )?;
    let (nonce, term) = match read_msg(&mut stream)? {
        Msg::Challenge { nonce, term } => (nonce, term),
        _ => {
            return Err(ProtoError::Garbage {
                what: "expected a Challenge frame after Hello",
            })
        }
    };
    let mac = compute_mac(key, nonce, term, worker, incarnation);
    write_msg(&mut stream, &Msg::Auth { mac }, &mut scratch)?;
    let setup = match read_msg(&mut stream)? {
        Msg::Setup(s) => s,
        _ => {
            return Err(ProtoError::Garbage {
                what: "expected a Setup frame after Auth",
            })
        }
    };
    if setup.worker != worker {
        return Err(ProtoError::Garbage {
            what: "setup frame does not match this worker",
        });
    }
    let _ = stream.set_read_timeout(None);
    Ok((stream, setup))
}

/// Runs one worker incarnation against the coordinator at `addr`.
///
/// Returns when the coordinator sends `Stop` (after reporting the
/// worker's fate) or when the setup's churn schedule retires or evicts
/// this worker; a crash/restart directive never returns — it aborts the
/// process. A *dead socket* does not end the incarnation: the worker
/// re-handshakes under capped exponential backoff (jitter drawn from its
/// own deterministic RNG stream), keeping its model, sampler position,
/// and fired fault triggers — reconnection is a socket event, not a
/// respawn — and gives up only after the reconnect budget is spent.
///
/// # Errors
///
/// [`ProtoError`] when the coordinator cannot be reached, rejects the
/// handshake past the retry window, stays unreachable past the reconnect
/// budget, or sends a `Setup` whose numbers do not fit this worker's own
/// model and dataset ([`ProtoError::Garbage`], on the first handshake and
/// on every re-handshake alike).
pub fn run_worker(
    addr: &str,
    worker: u32,
    key: &AuthKey,
    incarnation: u32,
) -> Result<(), ProtoError> {
    // The coordinator may not be accepting yet, or — for an address-book
    // joiner dialing in before its join round — drops the Hello. Keep
    // re-offering the handshake until it is admitted or the budget runs out.
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let (stream, setup) = loop {
        match try_handshake(addr, worker, key, incarnation) {
            Ok(pair) => break pair,
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let (rng, dataset, model) = task(setup.seed);
    setup.validate(model.as_ref(), &dataset)?;
    let streams = worker_streams(&rng, u64::from(worker), setup.rng_grant);
    // Reconnect-backoff jitter comes from this worker's own stream, so a
    // soak with a fixed kill schedule replays the same backoff intervals.
    let mut reconnect_rng = streams.reconnect;
    let mut link = SocketLink {
        stream,
        conn: Arc::new(Conn::new(setup.round, setup.params.len())),
        encoder: FeedbackEncoder::new(setup.compression),
        wire: streams.wire,
        batch: GradBatch::new(),
        last_hb: None,
        scratch: Vec::new(),
    };
    let mut me = Worker::new(setup, dataset, model, streams.sampler, streams.compute);
    loop {
        let reader = link.spawn_reader()?;
        let departed = me.run(&mut link);
        if departed.is_some() || link.conn.graceful.load(Ordering::Acquire) {
            // Graceful exit: report the post-mortem. The socket may already
            // be gone (severed), in which case the coordinator composes the
            // fate itself — exactly the information a real network would
            // have. Every deposit is already on the wire, so a retiree's
            // final contribution reaches the coordinator before its fate.
            let fate = departed.unwrap_or_else(|| me.faults.fate());
            let _ = write_msg(&mut link.stream, &Msg::Fate(fate), &mut link.scratch);
            let _ = link.stream.shutdown(Shutdown::Both);
            let _ = reader.join();
            return Ok(());
        }
        // The socket died under us — severed, or the coordinator itself is
        // gone. Re-handshake under capped exponential backoff. The same
        // incarnation number is offered: nothing about this process changed,
        // and the coordinator counts the accepted re-handshake as a
        // reconnect, not a respawn.
        let _ = link.stream.shutdown(Shutdown::Both);
        let _ = reader.join();
        let reconnect_deadline = Instant::now() + RECONNECT_TIMEOUT;
        let mut backoff_us = RECONNECT_BASE_US;
        let (stream, setup) = loop {
            let jitter_us = reconnect_rng.uniform_u64(0..backoff_us / 2 + 1);
            std::thread::sleep(Duration::from_micros(backoff_us + jitter_us));
            match try_handshake(addr, worker, key, incarnation) {
                Ok(pair) => break pair,
                Err(e) => {
                    if Instant::now() >= reconnect_deadline {
                        return Err(e);
                    }
                    backoff_us = (backoff_us * 2).min(RECONNECT_CAP_US);
                }
            }
        };
        // Adopt the coordinator's current view — the published master and the
        // (possibly rolled-back) round counter — but keep the local iteration
        // count, sampler position, fired fault triggers, and the codec
        // residual: the Setup's start_iter and fault list describe a fresh
        // incarnation, and this is not one.
        setup.validate(me.model.as_ref(), &me.dataset)?;
        me.model.set_params(&setup.params);
        link.reattach(stream, setup.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{body_tag, read_frame_body, EncodedGradBatch, TAG_ENC_GRAD};
    use rna_core::fault::WorkerFault;
    use rna_core::membership::ChurnEvent;
    use rna_tensor::Compression;

    /// What a [`ScriptedLink`] saw, in order. Deposits carry the round
    /// counter at the moment they were made.
    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Beat(u64),
        Park(u64),
        Deposit(u64, u64),
        Die(Option<Duration>),
    }

    /// A [`WorkerLink`] with no threads, sockets or clocks: every call is
    /// logged, and `script` — run after each event — plays the controller by
    /// moving the round counter, and ends the run by returning `true`.
    struct ScriptedLink<F> {
        round: u64,
        stop: Stop,
        log: Vec<Ev>,
        script: F,
    }

    impl<F: FnMut(&Ev, &mut u64) -> bool> ScriptedLink<F> {
        fn new(script: F) -> Self {
            ScriptedLink {
                round: 0,
                stop: Stop::default(),
                log: Vec::new(),
                script,
            }
        }

        fn see(&mut self, ev: Ev) {
            if (self.script)(&ev, &mut self.round) {
                self.stop.raise();
            }
            self.log.push(ev);
        }

        fn deposits(&self) -> Vec<(u64, u64)> {
            let deposit = |ev: &Ev| match *ev {
                Ev::Deposit(iter, round) => Some((iter, round)),
                _ => None,
            };
            self.log.iter().filter_map(deposit).collect()
        }
    }

    impl<F: FnMut(&Ev, &mut u64) -> bool> WorkerLink for ScriptedLink<F> {
        fn round(&self) -> u64 {
            self.round
        }
        fn stop(&self) -> &Stop {
            &self.stop
        }
        fn park(&mut self, seen: u64, _timeout: Duration) {
            self.see(Ev::Park(seen));
        }
        fn beat(&mut self, iter: u64) {
            self.see(Ev::Beat(iter));
        }
        fn refresh(&mut self, _model: &mut dyn Model) {}
        fn deposit(&mut self, iter: u64, _grad: Tensor) {
            self.see(Ev::Deposit(iter, self.round));
        }
        fn die(&mut self, down_for: Option<Duration>) -> bool {
            self.see(Ev::Die(down_for));
            // A crash-restart comes back at once; a crash does not.
            down_for.is_some()
        }
    }

    /// A healthy setup for worker 0 with no injected compute time.
    fn setup_for(seed: u64) -> WorkerSetup {
        WorkerSetup {
            worker: 0,
            seed,
            batch_size: 4,
            max_lead: 8,
            compute_lo_us: 0,
            compute_hi_us: 0,
            liveness_timeout_us: 4_000,
            start_iter: 0,
            round: 0,
            high_water: 0,
            rng_grant: 0,
            leave: None,
            faults: Vec::new(),
            compression: Compression::Lossless,
            params: task(seed).2.params().clone(),
        }
    }

    fn worker_of(setup: WorkerSetup) -> Worker {
        let (rng, dataset, model) = task(setup.seed);
        let streams = worker_streams(&rng, 0, 0);
        Worker::new(setup, dataset, model, streams.sampler, streams.compute)
    }

    #[test]
    fn a_retiree_works_through_its_round_and_an_evictee_leaves_before_its_own() {
        // The controller closes one round per deposit.
        let per_deposit = |ev: &Ev, round: &mut u64| {
            *round += u64::from(matches!(ev, Ev::Deposit(..)));
            false
        };
        let mut retiree = worker_of(WorkerSetup {
            leave: Some(ChurnEvent::Retire { at_round: 2 }),
            ..setup_for(7)
        });
        let mut link = ScriptedLink::new(per_deposit);
        let fate = retiree.run(&mut link);
        assert_eq!(fate, Some(WorkerFate::Retired { at_round: 2 }));
        // Its last contribution was made *in* round 2; it left once the
        // counter passed it.
        assert_eq!(link.deposits(), [(0, 0), (1, 1), (2, 2)]);

        let mut evictee = worker_of(WorkerSetup {
            leave: Some(ChurnEvent::Evict { at_round: 2 }),
            ..setup_for(7)
        });
        let mut link = ScriptedLink::new(per_deposit);
        let fate = evictee.run(&mut link);
        assert_eq!(fate, Some(WorkerFate::Evicted { at_round: 2 }));
        // Nothing was deposited once round 2 had begun.
        assert_eq!(link.deposits(), [(0, 0), (1, 1)]);
    }

    #[test]
    fn the_lead_gate_parks_at_exactly_max_lead_flushed_and_beating() {
        // The counter never moves; the third park ends the run.
        let mut parks = 0;
        let mut link = ScriptedLink::new(|ev: &Ev, _: &mut u64| {
            parks += u32::from(matches!(ev, Ev::Park(_)));
            parks == 3
        });
        let mut me = worker_of(WorkerSetup {
            max_lead: 3,
            ..setup_for(7)
        });
        assert_eq!(me.run(&mut link), None);
        // Three iterations fit under the bound; the fourth never starts.
        assert_eq!(link.deposits(), [(0, 0), (1, 0), (2, 0)]);
        assert_eq!(me.local_iter, 3);
        let tail = &link.log[link.log.len() - 7..];
        // Every park is followed by a heartbeat, and none waits on a
        // gradient held back: each deposit was sent when made.
        let cycle = [Ev::Park(0), Ev::Beat(3)];
        assert_eq!(tail[0], cycle[1], "the top-of-iteration beat");
        assert_eq!(tail[1..], [&cycle[..], &cycle[..], &cycle[..]].concat());
    }

    #[test]
    fn lead_bound_one_is_one_deposit_per_published_round() {
        // The barrier's worker: the counter advances on every park, five
        // rounds are published in all.
        let mut link = ScriptedLink::new(|ev: &Ev, round: &mut u64| {
            *round += u64::from(matches!(ev, Ev::Park(_)));
            *round == 5
        });
        let mut me = worker_of(WorkerSetup {
            max_lead: 1,
            ..setup_for(7)
        });
        assert_eq!(me.run(&mut link), None);
        assert_eq!(link.deposits(), [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn hangs_and_deaths_find_the_coalesced_gradients_already_flushed() {
        let down = Duration::from_micros(11);
        let mut me = worker_of(WorkerSetup {
            faults: vec![
                WorkerFault::HangAt {
                    at_iter: 1,
                    for_us: 10,
                },
                WorkerFault::RestartAt {
                    at_iter: 2,
                    rejoin_after_us: 11,
                },
                WorkerFault::CrashAt { at_iter: 4 },
            ],
            ..setup_for(7)
        });
        let mut link = ScriptedLink::new(|_: &Ev, _: &mut u64| false);
        assert_eq!(me.run(&mut link), None);
        assert_eq!(
            link.log,
            [
                Ev::Beat(0),
                // Each deposit is sent when made, so the hang that follows
                // (silent: no beat) leaves nothing unsent.
                Ev::Deposit(0, 0),
                Ev::Beat(1),
                Ev::Deposit(1, 0),
                // The crash-restart: died with nothing unsent, came back
                // and carried on.
                Ev::Die(Some(down)),
                Ev::Beat(2),
                Ev::Deposit(2, 0),
                Ev::Beat(3),
                Ev::Deposit(3, 0),
                // The crash: the same, and final.
                Ev::Die(None),
            ]
        );
        assert_eq!(me.faults.fate(), WorkerFate::Crashed { at_iter: 4 });
    }

    #[test]
    fn a_waiter_parked_before_the_wake_is_not_lost() {
        let gate = Arc::new(Gate::default());
        let cleared = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (gate, cleared) = (Arc::clone(&gate), Arc::clone(&cleared));
            std::thread::spawn(move || {
                gate.wait_while(Duration::from_secs(60), || !cleared.load(Ordering::Acquire))
            })
        };
        // Counted means parked: the waiter holds the lock from its count
        // until its wait releases it.
        while *lock(&gate.parked) == 0 {
            std::thread::yield_now();
        }
        cleared.store(true, Ordering::Release);
        gate.wake();
        assert!(waiter.join().expect("the waiter"), "the wake was lost");
        assert_eq!(*lock(&gate.parked), 0);
    }

    #[test]
    fn a_wake_with_nobody_parked_leaves_a_cleared_waiter_free_to_return() {
        let gate = Gate::default();
        let cleared = AtomicBool::new(false);
        cleared.store(true, Ordering::Release);
        gate.wake();
        assert!(gate.wait_while(Duration::from_secs(60), || !cleared.load(Ordering::Acquire)));
        assert_eq!(*lock(&gate.parked), 0);
    }

    #[test]
    fn a_timed_out_wait_leaves_no_parked_waiter() {
        let gate = Gate::default();
        assert!(!gate.wait_while(Duration::from_millis(1), || true));
        assert_eq!(*lock(&gate.parked), 0);
    }

    #[test]
    fn a_socket_deposit_is_on_the_wire_when_it_returns() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("bound")).expect("dial");
        let (mut peer, _) = listener.accept().expect("accept");
        let g = Tensor::from_vec(vec![1.5, -0.75, f32::MIN_POSITIVE, 3.25e7]);
        let mut link = SocketLink {
            stream,
            conn: Arc::new(Conn::new(0, g.len())),
            encoder: FeedbackEncoder::new(Compression::Lossless),
            wire: SimRng::seed(1),
            batch: GradBatch::new(),
            last_hb: None,
            scratch: Vec::new(),
        };
        link.deposit(5, g.clone());
        // The gradient frame already told the coordinator iteration 6.
        link.beat(6);
        // A park (here one that returns at once: the counter is not at 1)
        // owes fresh liveness, so the next beat is a standalone frame.
        link.park(1, Duration::from_secs(60));
        link.beat(6);
        link.stream.shutdown(Shutdown::Write).expect("shutdown");

        let mut body = Vec::new();
        read_frame_body(&mut peer, &mut body).expect("the gradient frame");
        assert!(matches!(body_tag(&body), Ok(TAG_ENC_GRAD)));
        let entries: Vec<_> = EncodedGradBatch::parse(&body)
            .and_then(|b| b.collect::<Result<Vec<_>, _>>())
            .expect("one well-formed batch");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].iter, 5);
        let mut got = vec![0.0f32; g.len()];
        Compression::Lossless
            .decode_slice(entries[0].frame, &mut got)
            .expect("lossless payload");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(g.as_slice()));
        // Then the one standalone heartbeat after the park, and the end of
        // the stream: the deposit wrote one frame and the first beat(6)
        // none.
        let mut next = || read_msg(&mut peer);
        assert!(matches!(next(), Ok(Msg::Heartbeat { iter: 6 })));
        assert!(next().is_err());
    }

    /// The coordinator's half of one handshake, answered with `setup`. The
    /// worker's MAC is not checked — these tests are about what the *worker*
    /// believes.
    fn admit(listener: &std::net::TcpListener, setup: &WorkerSetup) -> TcpStream {
        let (mut s, _) = listener.accept().expect("the worker dials in");
        let mut scratch = Vec::new();
        assert!(matches!(read_msg(&mut s), Ok(Msg::Hello { worker: 0, .. })));
        let challenge = Msg::Challenge { nonce: 9, term: 0 };
        write_msg(&mut s, &challenge, &mut scratch).expect("challenge");
        assert!(matches!(read_msg(&mut s), Ok(Msg::Auth { .. })));
        write_msg(&mut s, &Msg::Setup(setup.clone()), &mut scratch).expect("setup");
        s
    }

    /// Runs a worker against `coordinator` (handed the bound listener) and
    /// returns how `run_worker` ended.
    fn run_against(
        coordinator: impl FnOnce(std::net::TcpListener) + Send + 'static,
    ) -> Result<(), ProtoError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound").to_string();
        let script = std::thread::spawn(move || coordinator(listener));
        let outcome = run_worker(&addr, 0, &AuthKey { k0: 1, k1: 2 }, 0);
        script.join().expect("the scripted coordinator panicked");
        outcome
    }

    /// Every way a `Setup` can contradict the worker's own model and dataset.
    fn hostile_setups() -> Vec<(&'static str, WorkerSetup)> {
        let good = || WorkerSetup {
            compute_lo_us: 500,
            compute_hi_us: 600,
            ..setup_for(7)
        };
        vec![
            (
                "short params",
                WorkerSetup {
                    params: Tensor::zeros(35),
                    ..good()
                },
            ),
            (
                "long params",
                WorkerSetup {
                    params: Tensor::zeros(37),
                    ..good()
                },
            ),
            (
                "empty params",
                WorkerSetup {
                    params: Tensor::zeros(0),
                    ..good()
                },
            ),
            (
                "zero batch",
                WorkerSetup {
                    batch_size: 0,
                    ..good()
                },
            ),
            (
                "batch beyond the dataset",
                WorkerSetup {
                    batch_size: 257,
                    ..good()
                },
            ),
            (
                "batch sized to exhaust memory",
                WorkerSetup {
                    batch_size: u64::MAX,
                    ..good()
                },
            ),
            (
                "zero lead bound",
                WorkerSetup {
                    max_lead: 0,
                    ..good()
                },
            ),
            (
                "inverted compute range",
                WorkerSetup {
                    compute_lo_us: 601,
                    ..good()
                },
            ),
            (
                "zero liveness timeout",
                WorkerSetup {
                    liveness_timeout_us: 0,
                    ..good()
                },
            ),
            (
                "unbounded fast-forward",
                WorkerSetup {
                    start_iter: u64::MAX,
                    ..good()
                },
            ),
            (
                "resume just past the lead bound",
                WorkerSetup {
                    round: 2,
                    high_water: 4,
                    start_iter: 4 + 8 + 1,
                    ..good()
                },
            ),
        ]
    }

    #[test]
    fn a_hostile_setup_is_garbage_never_a_panic_or_an_allocation() {
        for (case, setup) in hostile_setups() {
            let outcome = run_against(move |listener| drop(admit(&listener, &setup)));
            assert!(
                matches!(outcome, Err(ProtoError::Garbage { .. })),
                "{case}: {outcome:?}"
            );
        }
    }

    #[test]
    fn a_hostile_setup_on_the_re_handshake_is_refused_the_same_way() {
        for (case, hostile) in hostile_setups() {
            let outcome = run_against(move |listener| {
                // A clean admission, then the socket dies under the worker;
                // its reconnect is answered with the hostile frame.
                drop(admit(&listener, &setup_for(7)));
                drop(admit(&listener, &hostile));
            });
            assert!(
                matches!(outcome, Err(ProtoError::Garbage { .. })),
                "{case}: {outcome:?}"
            );
        }
    }

    #[test]
    fn a_wrong_length_params_frame_halts_the_link_like_any_violation() {
        let outcome = run_against(|listener| {
            let mut scratch = Vec::new();
            let mut first = admit(&listener, &setup_for(7));
            let bad = Msg::Params {
                round: 1,
                params: Tensor::zeros(5),
            };
            write_msg(&mut first, &bad, &mut scratch).expect("params");
            // The worker neither applies it nor dies: it drops the link and
            // re-handshakes, and a clean stop ends the run.
            let mut second = admit(&listener, &setup_for(7));
            write_msg(&mut second, &Msg::Stop, &mut scratch).expect("stop");
            while !matches!(read_msg(&mut second), Ok(Msg::Fate(_)) | Err(_)) {}
        });
        assert!(outcome.is_ok(), "{outcome:?}");
    }
}
