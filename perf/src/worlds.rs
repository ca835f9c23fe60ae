//! The workloads: what runs, on which inputs, and what must hold of the
//! outputs. Every input derives from the run's `--seed`; the programs
//! under test receive the generated spec or config, never a workload name.
//!
//! All workloads are closed loops: a worker starts its next iteration only
//! after it has the round's parameters. The client count is the worker
//! count.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use rna_core::rna::RnaProtocol;
use rna_core::sim::{Engine, Protocol, TaskKind, TrainSpec};
use rna_core::{Compression, RnaConfig, RunResult, StopReason};
use rna_runtime::proto::{append_msg, read_frame_body, read_msg, EncodedGradBatch, GradBatch, Msg};
use rna_runtime::{
    run_process, run_threaded, ProcessConfig, ProcessResult, SyncMode, ThreadedConfig,
    ThreadedResult, WorkerFate,
};
use rna_simnet::SimDuration;
use rna_tensor::codec::{encode_with_feedback, encode_with_feedback_append, wire_threads};
use rna_tensor::{ReduceOp, Tensor};
use rna_training::Sgd;
use rna_workload::HeterogeneityModel;

use crate::harness::{draws, seeded_tensor, Span, Tracer};

/// Mini-batch size of every training workload (samples per worker
/// iteration).
pub const BATCH: u64 = 16;
/// The 64 Ki-element gradient: the `Mlp` 256-240-16 has exactly this many
/// parameters, and `hop-64k` ships tensors of this length.
pub const ELEMS: usize = 65_536;

/// What one timed repetition yields — enough for every end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    pub rounds: u64,
    pub iterations: u64,
    pub wire_bytes: u64,
    pub contributions: u64,
}

/// Operations attempted (rounds requested) and failed (rounds degraded,
/// not completed, or belonging to a repetition whose check failed), with
/// one line per failed check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Books one repetition of `requested` rounds of which `bad` were
    /// degraded or never ran; any entry in `violations` fails all of it.
    pub fn book(&mut self, what: &str, requested: u64, bad: u64, violations: Vec<String>) {
        self.attempted += requested;
        if violations.is_empty() {
            self.failed += bad.min(requested);
        } else {
            self.failed += requested;
        }
        if bad > 0 {
            self.notes.push(format!(
                "{what}: {bad} of {requested} rounds degraded or missing"
            ));
        }
        self.notes
            .extend(violations.into_iter().map(|v| format!("{what}: {v}")));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }
}

fn require(violations: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        violations.push(what());
    }
}

// --- DES ------------------------------------------------------------------

/// Validation loss `des-mlp64k` trains to in the traced pass.
pub const MLP_TARGET_LOSS: f64 = 0.32;
/// Round cap of the to-target runs. A seed that needs more is reported at
/// the cap (seeds 1–8 need 80–640 rounds).
pub const MLP_ROUND_CAP: u64 = 1_000;
pub const MLP_WORKERS: usize = 8;
pub const SCALE_WORKERS: usize = 10_000;

/// `des-mlp64k`: 8 workers training the 65 536-parameter MLP under the
/// paper's §8.1 dynamic stragglers, evaluated every 10 rounds.
/// `target: true` stops at [`MLP_TARGET_LOSS`]; otherwise the run is
/// exactly `rounds` long, which is what the timed repetitions use — rounds
/// to the target swing 8× with the seed, a fixed budget does not.
pub fn mlp_spec(seed: u64, rounds: u64, target: bool) -> TrainSpec {
    let n = MLP_WORKERS;
    let mut spec = TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 50))
        .with_max_rounds(rounds)
        .with_max_time(SimDuration::from_secs(86_400));
    spec.task = TaskKind::Classification {
        dim: 256,
        classes: 16,
        hidden: Some(240),
        samples: 2048,
        spread: 4.0,
    };
    spec.eval_every = 10;
    if target {
        spec = spec.with_target_loss(MLP_TARGET_LOSS);
    }
    spec
}

/// The RNA protocol `des-mlp64k` runs: flat, int8 with stochastic rounding
/// and error feedback on the wire.
pub fn mlp_rna() -> RnaProtocol {
    RnaProtocol::new(
        MLP_WORKERS,
        RnaConfig::default().with_compression(Compression::Int8),
        0,
    )
}

/// `des-scale10k`: 10 000 workers on the 36-parameter softmax, lossless.
pub fn scale_spec(seed: u64, rounds: u64) -> TrainSpec {
    let n = SCALE_WORKERS;
    TrainSpec::smoke_test(n, seed)
        .with_hetero(HeterogeneityModel::dynamic_uniform(n, 0, 20))
        .with_max_rounds(rounds)
        .with_max_time(SimDuration::from_secs(86_400))
}

pub fn scale_rna() -> RnaProtocol {
    RnaProtocol::new(SCALE_WORKERS, RnaConfig::default(), 0)
}

/// One simulated run with its set-up (`Engine::new`) timed apart.
#[derive(Debug)]
pub struct DesRun {
    pub setup_s: f64,
    pub wall_s: f64,
    pub result: RunResult,
}

fn timed_engine<P: Protocol>(spec: TrainSpec, protocol: P) -> (Engine<P>, f64) {
    let t = Instant::now();
    let engine = Engine::new(spec, protocol);
    (engine, t.elapsed().as_secs_f64())
}

pub fn run_des<P: Protocol>(spec: TrainSpec, protocol: P) -> DesRun {
    let (engine, setup_s) = timed_engine(spec, protocol);
    let t = Instant::now();
    let result = engine.run();
    DesRun {
        setup_s,
        wall_s: t.elapsed().as_secs_f64(),
        result,
    }
}

/// `Engine::new` alone, timed: one more set-up sample.
pub fn des_setup<P: Protocol>(spec: TrainSpec, protocol: P) -> f64 {
    timed_engine(spec, protocol).1
}

impl DesRun {
    pub fn contributions(&self) -> u64 {
        let n = self.result.worker_iterations.len() as f64;
        (self.result.participation_sum * n).round() as u64
    }

    pub fn rep(&self) -> Rep {
        Rep {
            wall_s: self.wall_s,
            rounds: self.result.global_rounds,
            iterations: self.result.total_iterations(),
            wire_bytes: self.result.bytes_on_wire,
            contributions: self.contributions(),
        }
    }

    /// Everything a same-seed replay must reproduce to the bit.
    pub fn fingerprint(&self) -> [u64; 6] {
        let r = &self.result;
        [
            r.global_rounds,
            r.wall_time.as_secs_f64().to_bits(),
            r.bytes_on_wire,
            r.final_loss().map_or(u64::MAX, f64::to_bits),
            r.total_iterations(),
            r.participation_sum.to_bits(),
        ]
    }

    /// Books this run of `requested` rounds: it must stop for one of
    /// `allowed`, every worker healthy, and (when `reference` is given)
    /// replay it bit for bit.
    pub fn check(
        &self,
        checks: &mut Checks,
        what: &str,
        requested: u64,
        allowed: &[StopReason],
        reference: Option<&DesRun>,
    ) {
        let r = &self.result;
        let mut v = Vec::new();
        require(&mut v, allowed.contains(&r.stop_reason), || {
            format!("stopped for {:?}, expected {allowed:?}", r.stop_reason)
        });
        require(
            &mut v,
            r.worker_fates.iter().all(|f| *f == WorkerFate::Healthy),
            || "a worker fate is not Healthy".into(),
        );
        require(&mut v, r.final_loss().is_some_and(f64::is_finite), || {
            "no finite evaluation loss".into()
        });
        if let Some(first) = reference {
            require(&mut v, self.fingerprint() == first.fingerprint(), || {
                format!(
                    "same-seed replay diverged: {:?} vs {:?}",
                    self.fingerprint(),
                    first.fingerprint()
                )
            });
        }
        checks.book(
            what,
            requested,
            requested.saturating_sub(r.global_rounds),
            v,
        );
    }
}

// --- Threads and processes ------------------------------------------------

/// Injected compute of the two fast workers, and of the straggler.
pub const FAST_US: (u64, u64) = (100, 200);
/// Mean of [`FAST_US`]: what a fast worker sleeps per iteration.
pub const FAST_MEAN_US: f64 = (FAST_US.0 + FAST_US.1) as f64 / 2.0;
pub const SLOW_US: (u64, u64) = (2_000, 3_000);
/// `Compression::Lossless.frame_bytes(36)`: what each 36-parameter
/// contribution costs on the wire.
pub const SOFTMAX_FRAME_BYTES: u64 = 160;

/// Three workers on the runtimes' 36-parameter softmax, the last one a
/// 15–20× straggler — the paper's headline situation. Zero injected
/// compute was tried and rejected: five runnable threads on two cores
/// measure the scheduler.
pub fn straggler_config(seed: u64, mode: SyncMode, rounds: u64) -> ThreadedConfig {
    let mut c = ThreadedConfig::quick(3, mode);
    c.rounds = rounds;
    c.seed = seed;
    c.compute_us = vec![FAST_US, FAST_US, SLOW_US];
    c
}

fn check_threaded(
    r: &ThreadedResult,
    mode: SyncMode,
    requested: u64,
    max_loss: Option<f32>,
) -> Vec<String> {
    let mut v = Vec::new();
    require(&mut v, r.rounds == requested, || {
        format!("{} of {requested} rounds ran", r.rounds)
    });
    require(
        &mut v,
        r.worker_fates.iter().all(|f| *f == WorkerFate::Healthy),
        || format!("fates {:?}", r.worker_fates),
    );
    if let Some(max) = max_loss {
        require(&mut v, r.final_loss <= max, || {
            format!("final loss {} above {max}", r.final_loss)
        });
    }
    require(&mut v, r.bytes_saved == 0, || {
        format!("lossless run saved {} bytes", r.bytes_saved)
    });
    // The barrier hands gradients over in shared memory and tallies no
    // wire bytes; the partial collectives tally one frame per contribution.
    let frames_ok = match mode {
        SyncMode::Bsp => r.bytes_on_wire == 0,
        _ => r.bytes_on_wire > 0 && r.bytes_on_wire.is_multiple_of(SOFTMAX_FRAME_BYTES),
    };
    require(&mut v, frames_ok, || {
        format!(
            "{} wire bytes are not whole {SOFTMAX_FRAME_BYTES}-byte frames",
            r.bytes_on_wire
        )
    });
    v
}

/// The end-to-end view of one run. Under BSP every worker contributes to
/// every round and the runtime counts no wire bytes, so both are the
/// formula's: one lossless frame per contribution.
pub fn threaded_rep(r: &ThreadedResult, mode: SyncMode, wall_s: f64) -> Rep {
    let contributions = match mode {
        SyncMode::Bsp => r.rounds * r.worker_iterations.len() as u64,
        _ => r.bytes_on_wire / SOFTMAX_FRAME_BYTES,
    };
    Rep {
        wall_s,
        rounds: r.rounds,
        iterations: r.worker_iterations.iter().sum(),
        wire_bytes: contributions * SOFTMAX_FRAME_BYTES,
        contributions,
    }
}

/// One threaded run, booked. `max_loss` is checked only on runs long
/// enough to converge (the one-round set-up run passes `None`).
pub fn threaded(
    checks: &mut Checks,
    seed: u64,
    mode: SyncMode,
    rounds: u64,
    max_loss: Option<f32>,
) -> (ThreadedResult, f64) {
    let config = straggler_config(seed, mode, rounds);
    let t = Instant::now();
    let r = run_threaded(&config);
    let wall_s = t.elapsed().as_secs_f64();
    let v = check_threaded(&r, mode, rounds, max_loss);
    checks.book(
        &format!("threaded {mode:?} x{rounds}"),
        rounds,
        r.rounds_degraded,
        v,
    );
    (r, wall_s)
}

/// One process-world run (real subprocesses, real TCP, no faults, no
/// proxy), booked. The worker binary is found beside this executable.
pub fn process(
    checks: &mut Checks,
    seed: u64,
    rounds: u64,
    max_loss: Option<f32>,
) -> (ProcessResult, f64) {
    let config = ProcessConfig::new(straggler_config(seed, SyncMode::Rna, rounds));
    let t = Instant::now();
    let p = run_process(&config);
    let wall_s = t.elapsed().as_secs_f64();
    let mut v = check_threaded(&p.run, SyncMode::Rna, rounds, max_loss);
    require(&mut v, p.worker_respawns == 0, || {
        format!("{} worker respawns", p.worker_respawns)
    });
    require(&mut v, p.reconnect_attempts == 0, || {
        format!("{} reconnect attempts", p.reconnect_attempts)
    });
    require(&mut v, p.auth_rejects == 0, || {
        format!("{} auth rejects", p.auth_rejects)
    });
    checks.book(
        &format!("process Rna x{rounds}"),
        rounds,
        p.run.rounds_degraded,
        v,
    );
    (p, wall_s)
}

// --- The 64 Ki hop --------------------------------------------------------

/// Gradient contributions per round, as if four workers' flushes had been
/// coalesced into one frame.
pub const HOP_CONTRIBS: usize = 4;
/// Distinct seeded gradients the sender cycles through.
const HOP_SOURCES: usize = 8;
/// Untimed rounds that warm buffers, socket and page cache; part of
/// set-up.
pub const HOP_WARMUP: u64 = 8;
/// Leading rounds whose accumulator is kept and compared, bit for bit,
/// with a serial reference of the error-feedback recurrence.
const HOP_VERIFY: usize = 6;
const HOP_CODEC: Compression = Compression::Fp16;

/// Bytes one round's gradient frame occupies on the socket: length prefix,
/// magic, tag, count, then per entry iteration, error norm, length and the
/// codec frame.
pub fn hop_frame_bytes() -> u64 {
    13 + HOP_CONTRIBS as u64 * (20 + HOP_CODEC.frame_bytes(ELEMS))
}

#[derive(Debug)]
pub struct HopRun {
    /// Bind, connect, buffer allocation and the warm-up rounds.
    pub setup_s: f64,
    /// Wall of the timed rounds, measured by the receiver.
    pub wall_s: f64,
    pub rounds: u64,
    /// Gradient-frame bytes the receiver took off the socket.
    pub grad_bytes: u64,
    /// Sender and receiver spans on one clock (empty when untraced).
    pub spans: Vec<Span>,
}

impl HopRun {
    pub fn rep(&self) -> Rep {
        let contributions = self.rounds * HOP_CONTRIBS as u64;
        Rep {
            wall_s: self.wall_s,
            rounds: self.rounds,
            // Each contribution stands for one batch-16 worker iteration.
            iterations: contributions,
            wire_bytes: self.grad_bytes,
            contributions,
        }
    }
}

fn hop_source(sources: &[Tensor], round: u64, contrib: usize) -> &Tensor {
    &sources[(round as usize + contrib) % sources.len()]
}

/// The process world's data path at a realistic size, minus the
/// controller, built from public functions only. One sender thread, one
/// loopback connection, the receiver on the calling thread: two threads,
/// which is this host's core count.
pub fn hop(checks: &mut Checks, seed: u64, rounds: u64, traced: bool) -> HopRun {
    let epoch = Instant::now();
    let total = HOP_WARMUP + rounds;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let sources: Vec<Tensor> = (0..HOP_SOURCES)
        .map(|i| seeded_tensor(seed, 100 + i as u64, ELEMS))
        .collect();
    let sources = &sources;
    let (run, sent) = std::thread::scope(|s| {
        let sender = s.spawn(move || hop_sender(addr, sources, seed, total, traced, epoch));
        let (stream, _) = listener.accept().expect("sender connects");
        let run = hop_receiver(stream, seed, rounds, traced, epoch);
        (run, sender.join().expect("sender thread panicked"))
    });
    let (mut run, kept, mut v) = run;
    match sent {
        Ok(spans) => run.spans = crate::harness::merge(spans, std::mem::take(&mut run.spans)),
        Err(e) => v.push(format!("sender: {e}")),
    }
    require(&mut v, run.grad_bytes == total * hop_frame_bytes(), || {
        format!(
            "{} gradient bytes read, formula says {}",
            run.grad_bytes,
            total * hop_frame_bytes()
        )
    });
    // Only the timed rounds count toward the metric.
    run.grad_bytes = rounds * hop_frame_bytes();
    v.extend(hop_verify(sources, seed, &kept));
    checks.book(&format!("hop x{rounds}"), rounds, 0, v);
    run
}

fn hop_sender(
    addr: std::net::SocketAddr,
    sources: &[Tensor],
    seed: u64,
    total: u64,
    traced: bool,
    epoch: Instant,
) -> Result<Vec<Span>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut grads = vec![Tensor::zeros(ELEMS); HOP_CONTRIBS];
    let mut residuals = vec![Tensor::zeros(ELEMS); HOP_CONTRIBS];
    let mut batch = GradBatch::new();
    let mut draw = draws(seed, 7);
    let threads = wire_threads(ELEMS);
    let mut tr = Tracer::new(epoch, traced);
    for round in 0..total {
        tr.begin("sender.round", "runtime.hop", round);
        tr.span("input", "harness", round, || {
            for (c, g) in grads.iter_mut().enumerate() {
                g.copy_from(hop_source(sources, round, c));
            }
        });
        tr.span("encode", "tensor.codec", round, || {
            for (g, residual) in grads.iter_mut().zip(&mut residuals) {
                let out = batch.begin_entry(round);
                let (_, err) =
                    encode_with_feedback_append(HOP_CODEC, g, residual, out, &mut draw, threads);
                batch.finish_entry(err);
            }
        });
        let sent = tr.span("write", "socket", round, || stream.write_all(batch.frame()));
        sent.map_err(|e| e.to_string())?;
        batch.reset();
        let reply = tr.span("recv_params", "socket", round, || read_msg(&mut stream));
        match reply {
            Ok(Msg::Params { round: r, params }) if r == round && params.len() == ELEMS => {}
            Ok(other) => return Err(format!("round {round}: unexpected reply {other:?}")),
            Err(e) => return Err(format!("round {round}: {e}")),
        }
        tr.end();
    }
    Ok(tr.into_spans())
}

fn hop_receiver(
    mut stream: TcpStream,
    seed: u64,
    rounds: u64,
    traced: bool,
    epoch: Instant,
) -> (HopRun, Vec<Tensor>, Vec<String>) {
    let mut v = Vec::new();
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut params = seeded_tensor(seed, 99, ELEMS);
    let mut sgd = Sgd::new(1.0e-3, 0.0, 0.0, ELEMS);
    let mut bufs = vec![Tensor::zeros(ELEMS); HOP_CONTRIBS];
    let mut acc = Tensor::zeros(ELEMS);
    let mut body = Vec::new();
    let mut frame = Vec::new();
    let mut kept = Vec::with_capacity(HOP_VERIFY);
    let threads = wire_threads(ELEMS);
    let mut tr = Tracer::new(epoch, traced);
    let mut grad_bytes = 0u64;
    let mut setup_s = 0.0;
    let mut timed = Instant::now();
    for round in 0..HOP_WARMUP + rounds {
        if round == HOP_WARMUP {
            setup_s = epoch.elapsed().as_secs_f64();
            timed = Instant::now();
        }
        tr.begin("receiver.round", "runtime.hop", round);
        let got = tr.span("read", "socket", round, || {
            read_frame_body(&mut stream, &mut body)
        });
        if let Err(e) = got {
            v.push(format!("round {round}: read failed: {e}"));
            tr.end();
            break;
        }
        grad_bytes += 4 + body.len() as u64;
        tr.begin("parse", "runtime.proto", round);
        let entries = EncodedGradBatch::parse(&body).and_then(|b| b.collect::<Result<Vec<_>, _>>());
        tr.end();
        let entries = match entries {
            Ok(e) if e.len() == HOP_CONTRIBS && e.iter().all(|g| g.iter == round) => e,
            Ok(e) => {
                v.push(format!("round {round}: batch of {} entries", e.len()));
                tr.end();
                break;
            }
            Err(e) => {
                v.push(format!("round {round}: {e}"));
                tr.end();
                break;
            }
        };
        tr.span("decode", "tensor.codec", round, || {
            for (entry, buf) in entries.iter().zip(&mut bufs) {
                HOP_CODEC
                    .decode_slice_mt(entry.frame, buf.as_mut_slice(), threads)
                    .expect("a frame the sender just encoded decodes");
            }
        });
        tr.span("reduce", "tensor", round, || {
            ReduceOp::Mean.reduce_into(&mut acc, &bufs);
        });
        if kept.len() < HOP_VERIFY {
            kept.push(acc.clone());
        }
        tr.span("apply", "training", round, || {
            sgd.step(&mut params, &acc, 1.0);
        });
        let sent = tr.span("broadcast", "socket", round, || {
            frame.clear();
            append_msg(
                &mut frame,
                &Msg::Params {
                    round,
                    params: params.clone(),
                },
            );
            stream.write_all(&frame)
        });
        tr.end();
        if let Err(e) = sent {
            v.push(format!("round {round}: broadcast failed: {e}"));
            break;
        }
    }
    let run = HopRun {
        setup_s,
        wall_s: timed.elapsed().as_secs_f64(),
        rounds,
        grad_bytes,
        spans: tr.into_spans(),
    };
    (run, kept, v)
}

/// Replays the first rounds through the serial scratch-buffer recurrence —
/// `decode(encode(x + residual))`, then the mean — and compares with what
/// the receiver accumulated off the socket.
fn hop_verify(sources: &[Tensor], seed: u64, kept: &[Tensor]) -> Vec<String> {
    let mut v = Vec::new();
    let mut residuals = vec![Tensor::zeros(ELEMS); HOP_CONTRIBS];
    let mut scratch = Vec::new();
    let mut draw = draws(seed, 7);
    require(&mut v, kept.len() == HOP_VERIFY, || {
        format!("kept {} of {HOP_VERIFY} accumulators", kept.len())
    });
    for (round, got) in kept.iter().enumerate() {
        let wire: Vec<Tensor> = residuals
            .iter_mut()
            .enumerate()
            .map(|(c, residual)| {
                let mut g = hop_source(sources, round as u64, c).clone();
                encode_with_feedback(HOP_CODEC, &mut g, residual, &mut scratch, &mut draw);
                g
            })
            .collect();
        let want = ReduceOp::Mean
            .reduce(&wire.iter().collect::<Vec<_>>())
            .expect("four inputs reduce");
        let same = want
            .iter()
            .zip(got.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        require(&mut v, same, || {
            format!("round {round}: accumulator differs from the serial reference")
        });
    }
    v
}

/// Raw `write_all` / `read_exact` of 256 KiB messages over a loopback
/// connection set up like the hop's: the ceiling its socket stages chase.
/// Returns GB/s.
pub fn loopback_gbps(messages: usize) -> f64 {
    use std::io::Read as _;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let bytes = ELEMS * 4;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let buf = vec![0x5au8; bytes];
            for _ in 0..messages {
                stream.write_all(&buf).expect("loopback write");
            }
        });
        let (mut stream, _) = listener.accept().expect("writer connects");
        let mut buf = vec![0u8; bytes];
        stream.read_exact(&mut buf).expect("loopback read");
        let t = Instant::now();
        for _ in 1..messages {
            stream.read_exact(&mut buf).expect("loopback read");
        }
        ((messages - 1) * bytes) as f64 / t.elapsed().as_nanos() as f64
    })
}
