//! `perf` — the repo's benchmark: six workloads across the three worlds
//! (DES, threads, subprocesses over TCP), RNA beside BSP, with a layered
//! ledger. See `perf/README.md` for the tables; `BENCHMARK.json` at the
//! repo root is the contract this binary prints to.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! perf --seed <n> [--seconds <s>] [--out <results.json>]     every workload, both passes
//! perf --compare <a.json> <b.json>
//! ```
//!
//! The last line of a single-workload run is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0` (tracing off), the per-layer metrics with `--trace 1`.

mod compare;
mod harness;
mod layers;
mod worlds;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rna_baselines::HorovodProtocol;
use rna_core::StopReason;
use rna_runtime::SyncMode;

use harness::{median, percentile, self_times_ns, share, sub_seed, Json, Span, Stat};
use layers::{Costs, Ledger};
use worlds::{Checks, DesRun, Rep, BATCH};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric: every workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_contribution",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// The per-layer metrics, in report order: every traced pass reports
/// every one of them. Counters that must read zero (degraded rounds,
/// respawns, reconnects) are correctness checks, not ledger rows.
pub const PER_LAYER: [&str; 64] = [
    "training.grad_us",
    "training.eval_ms",
    "training.apply_ns_per_elem",
    "training.grad_small_us",
    "tensor.memcpy_gbps",
    "tensor.reduce_ns_per_elem",
    "tensor.wavg_ns_per_elem",
    "tensor.codec.lossless_encode_gbps",
    "tensor.codec.lossless_decode_gbps",
    "tensor.codec.fp16_encode_gbps",
    "tensor.codec.fp16_decode_gbps",
    "tensor.codec.int8_encode_gbps",
    "tensor.codec.int8_decode_gbps",
    "tensor.codec.topk_encode_gbps",
    "tensor.codec.topk_decode_gbps",
    "tensor.codec.int8_feedback_encode_gbps",
    "tensor.codec.fp16_decode_mt_gbps",
    "tensor.pool.hit_ratio",
    "collectives.partial_us",
    "collectives.ring_us",
    "collectives.cost_model_round_ms",
    "simnet.queue_ns_per_event",
    "simnet.rng_ns_per_draw",
    "workload.compute_sample_ns",
    "core.probe_sample_ns",
    "core.cache_cycle_ns",
    "core.cache_cycle_64k_ns",
    "core.sim.us_per_iter",
    "core.sim.iters_per_round",
    "core.sim.participation",
    "core.sim.wait_frac",
    "core.sim.unattributed_share",
    "core.sim.time_to_loss_s",
    "core.sim.virt_time_to_loss_s",
    "baselines.horovod_virt_time_to_loss_s",
    "baselines.horovod_rounds_per_s",
    "baselines.horovod_wait_frac",
    "runtime.threaded.round_us",
    "runtime.threaded.participation",
    "runtime.threaded.worker_wait_frac",
    "runtime.threaded.straggler_share",
    "runtime.threaded.bsp_wait_frac",
    "runtime.threaded.bsp_rounds_per_s",
    "runtime.process.round_us",
    "runtime.process.socket_tax_us",
    "runtime.process.participation",
    "runtime.process.wire_bytes_per_round",
    "runtime.process.spawn_handshake_ms",
    "runtime.proto.ctrl_msg_ns",
    "runtime.proto.frame_encode_gbps",
    "runtime.proto.batch_parse_ns",
    "runtime.proto.mac_ns",
    "runtime.hop.encode_us",
    "runtime.hop.write_us",
    "runtime.hop.read_us",
    "runtime.hop.parse_us",
    "runtime.hop.decode_us",
    "runtime.hop.reduce_us",
    "runtime.hop.apply_us",
    "runtime.hop.broadcast_us",
    "runtime.hop.round_us_p50",
    "runtime.hop.round_us_p99",
    "runtime.hop.loopback_gbps",
    "runtime.hop.trace_overhead_frac",
];

pub const WORKLOADS: [&str; 6] = [
    "des-mlp64k",
    "des-scale10k",
    "threaded-straggler",
    "threaded-straggler-bsp",
    "process-straggler",
    "hop-64k",
];

// Rounds per timed repetition. Fixed, not derived from `--seconds`, so a
// metric means the same at every run length; `--seconds` sets how many
// repetitions the median is taken over. Repetitions are short (about half a
// second in the real worlds) because this host slows a process down the
// longer it keeps both cores busy: many fresh short runs repeat better
// than a few long ones.
const MLP_ROUNDS: u64 = 50;
const SCALE_ROUNDS: u64 = 20;
const THREADED_RNA_ROUNDS: u64 = 2_500;
const THREADED_BSP_ROUNDS: u64 = 500;
const PROCESS_ROUNDS: u64 = 1_500;
const HOP_ROUNDS: u64 = 250;
/// Set-up is measured at least this often per run, and for at least this
/// share of `--seconds` (a 3 ms set-up is sampled some 160 times); the
/// median is reported.
const SETUP_SAMPLES: usize = 25;
const SETUP_SHARE: f64 = 0.05;
/// Repetitions `wire_bytes_per_contribution` is counted over.
const WIRE_REPS: usize = 8;
/// Final full-dataset loss the softmax must be under after a timed
/// repetition; it starts at ln 4 = 1.39. How far a repetition gets depends
/// on the seed's blobs: over seeds 1-40 the worst were 0.029 (RNA, 1 500
/// rounds) and 0.052 (BSP, 500 rounds).
const RNA_MAX_LOSS: f32 = 0.1;
const BSP_MAX_LOSS: f32 = 0.2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--spans" => a.spans = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", a.seconds));
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(workload) = &args.workload {
        let report = if args.trace {
            traced_pass(workload, args.seed, args.seconds, args.spans.as_deref())
        } else {
            untraced_pass(workload, args.seed, args.seconds)
        };
        report.print();
        report.checks.correct()
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// --- One pass of one workload ---------------------------------------------

struct Metric {
    name: String,
    unit: &'static str,
    stat: Stat,
}

struct Report {
    workload: String,
    metrics: Vec<Metric>,
    checks: Checks,
}

impl Report {
    /// Every metric by name with its unit, then a `DETAIL` line carrying
    /// the quartiles for `run_all`, then the contract's result line.
    fn print(&self) {
        for m in &self.metrics {
            println!(
                "{:<24} {:<44} {:>16.6} {:<8} (q1 {:.6}, q3 {:.6}, n={})",
                self.workload, m.name, m.stat.value, m.unit, m.stat.q1, m.stat.q3, m.stat.samples
            );
        }
        for note in &self.checks.notes {
            println!("CHECK FAILED {}: {note}", self.workload);
        }
        println!(
            "{:<24} ops_attempted {} ops_failed {}",
            self.workload, self.checks.attempted, self.checks.failed
        );
        let field = |f: fn(&Stat) -> Json| {
            Json::obj(self.metrics.iter().map(|m| (m.name.clone(), f(&m.stat))))
        };
        let detail = Json::obj([
            ("q1", field(|s| Json::Num(s.q1))),
            ("q3", field(|s| Json::Num(s.q3))),
            ("samples", field(|s| Json::Num(s.samples as f64))),
        ]);
        println!("DETAIL {}", detail.render());
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(m.stat.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        }));
        let line = Json::obj([
            ("correct", Json::Bool(self.checks.correct())),
            ("attempted", Json::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", metrics),
        ]);
        println!("{}", line.render());
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Repeats `rep` until `seconds` have passed, and at least `least` times.
fn repeat(seconds: f64, least: usize, mut rep: impl FnMut(usize)) {
    let t = Instant::now();
    let mut done = 0;
    while done < least || t.elapsed().as_secs_f64() < seconds {
        rep(done);
        done += 1;
    }
}

/// Tops `setup` up with samples of `one` set-up until there are
/// [`SETUP_SAMPLES`] and they have taken [`SETUP_SHARE`] of the run.
fn sample_setup(setup: &mut Vec<f64>, seconds: f64, mut one: impl FnMut() -> f64) {
    let mut spent = 0.0;
    while setup.len() < SETUP_SAMPLES || spent < SETUP_SHARE * seconds {
        let s = one();
        spent += s;
        setup.push(s);
    }
}

/// The end-to-end pass: tracing off, set-up sampled apart from the timed
/// repetitions.
fn untraced_pass(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut checks = Checks::default();
    let mut setup = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    // Whether the rates are totals over the repetitions, not their median.
    let mut pooled = false;
    match workload {
        "des-mlp64k" => {
            // How often a worker contributes is a coin the seed tosses, and
            // 50 rounds toss too few to settle what a contribution costs.
            // So every repetition gets a seed stream of its own and the
            // rates are taken over all of them; the second repetition
            // replays the first to hold the run to its bit-exact replay.
            pooled = true;
            let run = |stream: usize| {
                let spec = worlds::mlp_spec(sub_seed(seed, stream as u64), MLP_ROUNDS, false);
                worlds::run_des(spec, worlds::mlp_rna())
            };
            let mut first: Option<DesRun> = None;
            repeat(seconds, 2, |i| {
                let r = run(i.saturating_sub(1));
                let replayed = if i == 1 { first.as_ref() } else { None };
                r.check(
                    &mut checks,
                    workload,
                    MLP_ROUNDS,
                    &[StopReason::MaxRounds],
                    replayed,
                );
                setup.push(r.setup_s);
                if i != 1 {
                    reps.push(r.rep());
                }
                first.get_or_insert(r);
            });
            sample_setup(&mut setup, seconds, || {
                let spec = worlds::mlp_spec(seed, MLP_ROUNDS, false);
                worlds::des_setup(spec, worlds::mlp_rna())
            });
        }
        "des-scale10k" => {
            let spec = || worlds::scale_spec(seed, SCALE_ROUNDS);
            let mut first: Option<DesRun> = None;
            repeat(seconds, 2, |_| {
                let r = worlds::run_des(spec(), worlds::scale_rna());
                let stop = [StopReason::MaxRounds];
                r.check(&mut checks, workload, SCALE_ROUNDS, &stop, first.as_ref());
                setup.push(r.setup_s);
                reps.push(r.rep());
                first.get_or_insert(r);
            });
            sample_setup(&mut setup, seconds, || {
                worlds::des_setup(spec(), worlds::scale_rna())
            });
        }
        "threaded-straggler" | "threaded-straggler-bsp" | "process-straggler" => {
            let (mode, rounds, max_loss) = match workload {
                "threaded-straggler" => (SyncMode::Rna, THREADED_RNA_ROUNDS, RNA_MAX_LOSS),
                "threaded-straggler-bsp" => (SyncMode::Bsp, THREADED_BSP_ROUNDS, BSP_MAX_LOSS),
                _ => (SyncMode::Rna, PROCESS_ROUNDS, RNA_MAX_LOSS),
            };
            // Both worlds are opaque: a run's wall includes its set-up, so
            // set-up is the wall of a one-round run, and the timed rounds
            // are charged the rest.
            let mut run = |rounds: u64, max_loss: Option<f32>| {
                if workload == "process-straggler" {
                    let (p, wall_s) = worlds::process(&mut checks, seed, rounds, max_loss);
                    (p.run, wall_s)
                } else {
                    worlds::threaded(&mut checks, seed, mode, rounds, max_loss)
                }
            };
            sample_setup(&mut setup, seconds, || run(1, None).1);
            let setup_s = median(&setup);
            repeat(seconds, 2, |_| {
                let (r, wall_s) = run(rounds, Some(max_loss));
                reps.push(worlds::threaded_rep(&r, mode, wall_s - setup_s));
            });
        }
        "hop-64k" => {
            repeat(seconds, 2, |_| {
                let run = worlds::hop(&mut checks, seed, HOP_ROUNDS, false);
                setup.push(run.setup_s);
                reps.push(run.rep());
            });
            sample_setup(&mut setup, seconds, || {
                worlds::hop(&mut checks, seed, 1, false).setup_s
            });
        }
        other => unreachable!("parse_args admitted {other}"),
    }
    // Counted over a fixed number of repetitions, so that it repeats exactly
    // for a seed however many repetitions the run had time for.
    let counted = &reps[..reps.len().min(WIRE_REPS)];
    let wire_bytes = counted.iter().map(|r| r.wire_bytes).sum::<u64>() as f64;
    let contributions: u64 = counted.iter().map(|r| r.contributions).sum();
    let total = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let wall_s: f64 = reps.iter().map(|r| r.wall_s).sum();
    let rate = |f: fn(&Rep) -> u64| {
        let per_rep: Vec<f64> = reps.iter().map(|r| f(r) as f64 / r.wall_s).collect();
        let mut stat = Stat::of(&per_rep);
        if pooled {
            stat.value = total(f) / wall_s;
        }
        stat
    };
    let values = [
        Stat::of(&setup),
        rate(|r| r.rounds),
        rate(|r| r.iterations * BATCH),
        Stat::exact(wire_bytes / contributions.max(1) as f64),
        Stat::exact(peak_rss_mb()),
    ];
    Report {
        workload: workload.into(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, stat)| Metric {
                name: m.name.into(),
                unit: m.unit,
                stat,
            })
            .collect(),
        checks,
    }
}

// --- The traced pass --------------------------------------------------------

/// Share of `--seconds` the ledger's timed rows may spend measuring, split
/// evenly among roughly this many rows.
const LEDGER_SHARE: f64 = 0.30;
const LEDGER_ROWS: f64 = 40.0;

/// The traced pass: the layer ledger, then a short run of every world so
/// each per-layer metric is a measurement in every workload's report, then
/// the named workload's replay — its untraced call counts times the
/// ledger's per-call medians — whose remainder is the unattributed share.
fn traced_pass(workload: &str, seed: u64, seconds: f64, spans_path: Option<&str>) -> Report {
    let epoch = Instant::now();
    let mut checks = Checks::default();
    let budget = Duration::from_secs_f64(seconds * LEDGER_SHARE / LEDGER_ROWS);
    let mut l = Ledger::new(epoch, budget);
    let costs = layers::measure(&mut l, seed);
    l.value(
        "tensor.pool.hit_ratio",
        "ratio",
        layers::pool_hit_ratio(seed),
    );

    // Rounds of the short runs scale with the run length.
    let sized = |rounds: u64| ((rounds as f64 * seconds / 10.0) as u64).max(50);

    // DES: the to-target pair always runs (time-to-loss, RNA beside
    // Horovod); the 10 k-worker run only when it is the workload.
    let cap = worlds::MLP_ROUND_CAP;
    let to_target = [StopReason::TargetReached, StopReason::MaxRounds];
    let rna = worlds::run_des(worlds::mlp_spec(seed, cap, true), worlds::mlp_rna());
    rna.check(
        &mut checks,
        "des-mlp64k rna",
        rna.result.global_rounds,
        &to_target,
        None,
    );
    let hvd = worlds::run_des(
        worlds::mlp_spec(seed, cap, true),
        HorovodProtocol::new(worlds::MLP_WORKERS),
    );
    hvd.check(
        &mut checks,
        "des-mlp64k horovod",
        hvd.result.global_rounds,
        &to_target,
        None,
    );
    for (run, who) in [(&rna, "RNA"), (&hvd, "Horovod")] {
        if run.result.stop_reason != StopReason::TargetReached {
            println!(
                "note: {who} hit the {cap}-round cap before loss {}; its time-to-loss is the cap's",
                worlds::MLP_TARGET_LOSS
            );
        }
    }
    let scale_run = (workload == "des-scale10k").then(|| {
        let run = worlds::run_des(worlds::scale_spec(seed, SCALE_ROUNDS), worlds::scale_rna());
        run.check(
            &mut checks,
            workload,
            SCALE_ROUNDS,
            &[StopReason::MaxRounds],
            None,
        );
        run
    });
    let (sim, unattributed) = match &scale_run {
        Some(run) => (run, replay_scale(run, &costs)),
        None => (&rna, replay_mlp(&rna, &costs)),
    };
    des_rows(&mut l, sim, unattributed, &rna, &hvd);

    straggler_rows(&mut l, &mut checks, workload, seed, &sized, &costs);

    // The hop: tracing off, then on; the difference is the overhead.
    // Over a thousand traced rounds, so that p99 has ten samples beyond it.
    let hop_rounds = sized(1_200);
    let plain = worlds::hop(&mut checks, seed, hop_rounds, false);
    let traced = worlds::hop(&mut checks, seed, hop_rounds, true);
    let loopback = median(&[
        worlds::loopback_gbps(120),
        worlds::loopback_gbps(120),
        worlds::loopback_gbps(120),
    ]);
    hop_rows(&mut l, &plain, &traced, loopback);

    print_ceilings(&l);
    let rows = std::mem::take(&mut l.rows);
    if let Some(path) = spans_path {
        let spans = harness::merge(l.into_spans(), traced.spans);
        if let Err(e) = std::fs::write(path, harness::spans_jsonl(workload, &spans)) {
            checks.book("spans", 1, 1, vec![format!("cannot write {path}: {e}")]);
        }
    }
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for name in PER_LAYER {
        match rows.iter().find(|r| r.name == name) {
            Some(r) => metrics.push(Metric {
                name: name.into(),
                unit: r.unit,
                stat: r.stat,
            }),
            None => checks.book("ledger", 1, 1, vec![format!("{name} was not measured")]),
        }
    }
    Report {
        workload: workload.into(),
        metrics,
        checks,
    }
}

/// Threads, then processes, on the same straggler inputs: the ledger rows
/// of both real worlds and, for either straggler workload, its replay.
fn straggler_rows(
    l: &mut Ledger,
    checks: &mut Checks,
    workload: &str,
    seed: u64,
    sized: &dyn Fn(u64) -> u64,
    costs: &Costs,
) {
    // Threads: RNA and BSP on the same inputs.
    let (t_rna, t_rna_wall) = worlds::threaded(
        checks,
        seed,
        SyncMode::Rna,
        sized(THREADED_RNA_ROUNDS / 2),
        None,
    );
    let (t_bsp, t_bsp_wall) = worlds::threaded(
        checks,
        seed,
        SyncMode::Bsp,
        sized(THREADED_BSP_ROUNDS / 2),
        None,
    );
    let threaded_round_us = 1e6 * t_rna_wall / t_rna.rounds as f64;
    let fast_wait = |iters: &[u64], wall_s: f64| {
        1.0 - (iters[0] + iters[1]) as f64 * worlds::FAST_MEAN_US / (2.0 * wall_s * 1e6)
    };
    let iters: u64 = t_rna.worker_iterations.iter().sum();
    l.value("runtime.threaded.round_us", "us", threaded_round_us);
    l.value(
        "runtime.threaded.participation",
        "ratio",
        t_rna.mean_participation,
    );
    l.value(
        "runtime.threaded.worker_wait_frac",
        "ratio",
        fast_wait(&t_rna.worker_iterations, t_rna_wall),
    );
    l.value(
        "runtime.threaded.straggler_share",
        "ratio",
        t_rna.worker_iterations[2] as f64 / iters as f64,
    );
    l.value(
        "runtime.threaded.bsp_wait_frac",
        "ratio",
        fast_wait(&t_bsp.worker_iterations, t_bsp_wall),
    );
    l.value(
        "runtime.threaded.bsp_rounds_per_s",
        "1/s",
        t_bsp.rounds as f64 / t_bsp_wall,
    );
    println!(
        "runtime.threaded: degraded_rounds {} deadline_overshoot_us {} (must be 0; checked, not ledgered)",
        t_rna.rounds_degraded + t_bsp.rounds_degraded,
        t_rna.deadline_overshoot_us + t_bsp.deadline_overshoot_us
    );

    // Processes: the same inputs over sockets.
    let (_, spawn_s) = worlds::process(checks, seed, 1, None);
    let (p, p_wall) = worlds::process(checks, seed, sized(PROCESS_ROUNDS / 3), None);
    let process_round_us = 1e6 * p_wall / p.run.rounds as f64;
    l.value("runtime.process.round_us", "us", process_round_us);
    l.value(
        "runtime.process.socket_tax_us",
        "us",
        process_round_us - threaded_round_us,
    );
    l.value(
        "runtime.process.participation",
        "ratio",
        p.run.mean_participation,
    );
    l.value(
        "runtime.process.wire_bytes_per_round",
        "B",
        p.run.bytes_on_wire as f64 / p.run.rounds as f64,
    );
    l.value("runtime.process.spawn_handshake_ms", "ms", spawn_s * 1e3);
    println!(
        "runtime.process: respawns {} reconnects {} auth_rejects {} (must be 0; checked, not ledgered)",
        p.worker_respawns, p.reconnect_attempts, p.auth_rejects
    );
    if matches!(workload, "threaded-straggler" | "process-straggler") {
        let (round_us, run) = if workload == "threaded-straggler" {
            (threaded_round_us, &t_rna)
        } else {
            (process_round_us, &p.run)
        };
        let contributions = run.bytes_on_wire / worlds::SOFTMAX_FRAME_BYTES;
        replay_straggler(
            workload,
            round_us,
            contributions as f64 / run.rounds as f64,
            costs,
        );
    }
}

fn wait_frac(run: &DesRun) -> f64 {
    let (mut waiting, mut total) = (0.0, 0.0);
    for b in &run.result.breakdown {
        waiting += b.waiting().as_secs_f64();
        total += b.total().as_secs_f64();
    }
    waiting / total
}

fn des_rows(l: &mut Ledger, sim: &DesRun, unattributed: f64, rna: &DesRun, hvd: &DesRun) {
    let r = &sim.result;
    let iters = r.total_iterations() as f64;
    l.value("core.sim.us_per_iter", "us", 1e6 * sim.wall_s / iters);
    l.value(
        "core.sim.iters_per_round",
        "count",
        iters / r.global_rounds as f64,
    );
    l.value("core.sim.participation", "ratio", r.mean_participation());
    l.value("core.sim.wait_frac", "ratio", wait_frac(sim));
    l.value("core.sim.unattributed_share", "ratio", unattributed);
    l.value("core.sim.time_to_loss_s", "s", rna.wall_s);
    let virt = |run: &DesRun| run.result.wall_time.as_secs_f64();
    l.value("core.sim.virt_time_to_loss_s", "virt_s", virt(rna));
    l.value("baselines.horovod_virt_time_to_loss_s", "virt_s", virt(hvd));
    l.value(
        "baselines.horovod_rounds_per_s",
        "1/s",
        hvd.result.global_rounds as f64 / hvd.wall_s,
    );
    l.value("baselines.horovod_wait_frac", "ratio", wait_frac(hvd));
    println!(
        "des-mlp64k to loss {}: RNA round {} / {:.3} virtual s, Horovod round {} / {:.3} virtual s; speed-up {:.2}x on the virtual clock (base: Horovod)",
        worlds::MLP_TARGET_LOSS,
        rna.result.global_rounds,
        virt(rna),
        hvd.result.global_rounds,
        virt(hvd),
        virt(hvd) / virt(rna),
    );
}

/// Prints `share.<layer>` = calls × median ns ÷ wall for each replayed
/// layer and returns what they leave unexplained.
fn print_shares(workload: &str, wall_s: f64, layers: &[(&str, f64, f64)]) -> f64 {
    let mut covered = 0.0;
    for &(layer, calls, ns) in layers {
        let s = share(calls, ns, wall_s);
        covered += s;
        println!("{workload:<24} share.{layer:<28} {s:>8.4}  ({calls:.0} calls x {ns:.0} ns)");
    }
    println!("{workload:<24} share.unattributed {:>19.4}", 1.0 - covered);
    1.0 - covered
}

fn replay_mlp(run: &DesRun, c: &Costs) -> f64 {
    let r = &run.result;
    let iters = r.total_iterations() as f64;
    let contributions = run.contributions() as f64;
    let rounds = r.global_rounds as f64;
    print_shares(
        "des-mlp64k",
        run.wall_s,
        &[
            ("training.grad", iters, c.grad_mlp),
            ("training.eval", r.history.len() as f64, c.eval_mlp),
            (
                "training.apply",
                rounds * worlds::MLP_WORKERS as f64,
                c.apply_64k,
            ),
            ("core.cache", iters, c.cache_64k),
            ("tensor.codec", contributions, c.int8_feedback),
            ("collectives.partial", rounds, c.partial_64k),
            ("workload", iters, c.compute_sample),
            ("simnet.queue", iters + 6.0 * rounds, c.queue_event),
        ],
    )
}

fn replay_scale(run: &DesRun, c: &Costs) -> f64 {
    let r = &run.result;
    let iters = r.total_iterations() as f64;
    let contributions = run.contributions() as f64;
    let rounds = r.global_rounds as f64;
    print_shares(
        "des-scale10k",
        run.wall_s,
        &[
            ("training.grad_small", iters, c.grad_small),
            (
                "training.apply",
                rounds * worlds::SCALE_WORKERS as f64,
                c.apply_36,
            ),
            ("core.cache", iters, c.cache_36),
            ("core.probe", rounds, c.probe_10k),
            (
                "collectives.partial",
                contributions,
                c.partial_36_per_contrib,
            ),
            ("workload", iters, c.compute_sample),
            ("simnet.queue", iters + 6.0 * rounds, c.queue_event),
        ],
    )
}

/// The controller path of one straggler round against the layers that can
/// be replayed; the injected sleep of a fast worker is listed as itself.
fn replay_straggler(workload: &str, round_us: f64, contributions_per_round: f64, c: &Costs) {
    let mut layers = vec![
        ("injected.compute", 1.0, 1e3 * worlds::FAST_MEAN_US),
        ("training.grad_small", contributions_per_round, c.grad_small),
        ("core.cache", contributions_per_round, c.cache_36),
        (
            "collectives.partial",
            contributions_per_round,
            c.partial_36_per_contrib,
        ),
        ("training.apply", 1.0, c.apply_36),
    ];
    if workload == "process-straggler" {
        // Probe, reply, round advance and heartbeat per contribution.
        layers.push((
            "runtime.proto.ctrl",
            4.0 * contributions_per_round,
            c.ctrl_msg,
        ));
    }
    print_shares(workload, round_us * 1e-6, &layers);
}

/// Stage names on the round's blocking path, in order.
const HOP_STAGES: [&str; 8] = [
    "encode",
    "write",
    "read",
    "parse",
    "decode",
    "reduce",
    "apply",
    "broadcast",
];

/// Per-round stage times in µs from the sender's and receiver's spans.
/// The two threads alternate, so a round's blocking path is input →
/// encode → write ∥ read → parse → decode → reduce → apply → broadcast ∥
/// the sender's read: `write` ends when the frame has arrived, `read` is
/// what the receiver still reads after the sender's write returned,
/// `broadcast` runs until the sender has the parameters.
fn hop_stage_times(spans: &[Span]) -> (HashMap<&'static str, Vec<f64>>, Vec<f64>) {
    let by: HashMap<(&str, u64), &Span> = spans.iter().map(|s| ((s.name, s.round), s)).collect();
    let mut stages: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut rounds = Vec::new();
    for sender in spans.iter().filter(|s| s.name == "sender.round") {
        let r = sender.round;
        if r < worlds::HOP_WARMUP {
            continue;
        }
        let get = |name| by.get(&(name, r)).copied();
        let (Some(write), Some(read), Some(recv), Some(bcast)) = (
            get("write"),
            get("read"),
            get("recv_params"),
            get("broadcast"),
        ) else {
            continue;
        };
        rounds.push(sender.dur_ns() as f64 / 1e3);
        for stage in HOP_STAGES {
            let ns = match stage {
                // On one CPU the sender can lose the processor inside its
                // write until the receiver has finished the round; the
                // frame had arrived when the receiver's read returned.
                "write" => write.end_ns.min(read.end_ns).saturating_sub(write.start_ns),
                "read" => read.end_ns.saturating_sub(read.start_ns.max(write.end_ns)),
                "broadcast" => recv.end_ns.saturating_sub(bcast.start_ns),
                name => get(name).map_or(0, Span::dur_ns),
            };
            stages.entry(stage).or_default().push(ns as f64 / 1e3);
        }
    }
    (stages, rounds)
}

fn hop_rows(l: &mut Ledger, plain: &worlds::HopRun, traced: &worlds::HopRun, loopback: f64) {
    let (stages, rounds) = hop_stage_times(&traced.spans);
    let round_us = median(&rounds);
    let mut covered = 0.0;
    for stage in HOP_STAGES {
        let stat = Stat::of(&stages[stage]);
        covered += stat.value;
        println!(
            "hop-64k                  share.{stage:<28} {:>8.4}  ({:.1} us of a {round_us:.1} us round)",
            stat.value / round_us,
            stat.value
        );
        l.put(format!("runtime.hop.{stage}_us"), "us", stat);
    }
    // What the loops spend outside any stage span: the round spans' self
    // time. The rest of the remainder is the seeded input copy.
    let own = self_times_ns(&traced.spans);
    let loop_ns: Vec<f64> = traced
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name.ends_with(".round") && s.round >= worlds::HOP_WARMUP)
        .map(|(_, &ns)| ns as f64)
        .collect();
    println!(
        "hop-64k                  share.unattributed {:>19.4}  (round-span self time {:.1} us)",
        1.0 - covered / round_us,
        median(&loop_ns) / 1e3
    );
    l.value("runtime.hop.round_us_p50", "us", round_us);
    l.value("runtime.hop.round_us_p99", "us", percentile(&rounds, 99.0));
    l.value("runtime.hop.loopback_gbps", "GB/s", loopback);
    let rps = |run: &worlds::HopRun| run.rounds as f64 / run.wall_s;
    l.value(
        "runtime.hop.trace_overhead_frac",
        "ratio",
        1.0 - rps(traced) / rps(plain),
    );
}

/// Every GB/s and µs row beside the ceiling it chases.
fn print_ceilings(l: &Ledger) {
    let memcpy = l.get("tensor.memcpy_gbps").unwrap_or(f64::NAN);
    for row in l.rows.iter().filter(|r| r.unit == "GB/s") {
        println!(
            "ceiling: {:<44} {:>8.3} GB/s = {:.3} of tensor.memcpy_gbps",
            row.name,
            row.stat.value,
            row.stat.value / memcpy
        );
    }
    if let Some(loopback) = l.get("runtime.hop.loopback_gbps") {
        let wire_mb = worlds::hop_frame_bytes() as f64 / 1e3;
        for stage in ["write", "read", "broadcast"] {
            if let Some(us) = l.get(&format!("runtime.hop.{stage}_us")) {
                let kb = if stage == "broadcast" { 262.2 } else { wire_mb };
                println!(
                    "ceiling: runtime.hop.{stage}_us {us:.1} us; {kb:.0} kB at runtime.hop.loopback_gbps would take {:.1} us",
                    kb / loopback
                );
            }
        }
    }
    if let (Some(model_ms), Some(rounds), Some(virt)) = (
        l.get("collectives.cost_model_round_ms"),
        l.get("core.sim.iters_per_round"),
        l.get("core.sim.virt_time_to_loss_s"),
    ) {
        println!(
            "ceiling: collectives.cost_model_round_ms {model_ms:.4} virtual ms per des-mlp64k round (alpha-beta model; {rounds:.2} iterations per round, {virt:.3} virtual s to loss)"
        );
    }
}

// --- Every workload, both passes --------------------------------------------

/// Re-executes this binary once per workload and pass, so `peak_rss_mb` is
/// per workload, and collects the result lines into one report.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut entry = vec![];
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("re-execute perf");
            let text = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = text.lines().collect();
            let (body, tail) = lines.split_at(lines.len().saturating_sub(2));
            for line in body {
                println!("{line}");
            }
            let parsed = match tail {
                [detail, last] => detail
                    .strip_prefix("DETAIL ")
                    .and_then(|d| Json::parse(d).ok())
                    .zip(Json::parse(last).ok()),
                _ => None,
            };
            let Some((detail, last)) = parsed else {
                eprintln!(
                    "perf: {workload} --trace {trace} printed no result (exit {:?})",
                    out.status.code()
                );
                ok = false;
                continue;
            };
            ok &= out.status.success() && last.get("correct").and_then(Json::as_bool) == Some(true);
            let metrics = last
                .get("metrics")
                .map_or(&[][..], Json::fields)
                .iter()
                .map(|(name, m)| {
                    let mut fields = m.fields().to_vec();
                    for part in ["q1", "q3", "samples"] {
                        if let Some(v) = detail.get(part).and_then(|d| d.get(name)) {
                            fields.push((part.into(), v.clone()));
                        }
                    }
                    (name.clone(), Json::Obj(fields))
                });
            if trace == "0" {
                for part in ["correct", "attempted", "failed"] {
                    entry.push((
                        part.to_string(),
                        last.get(part).cloned().unwrap_or(Json::Null),
                    ));
                }
            } else if last.get("correct").and_then(Json::as_bool) != Some(true) {
                entry[0].1 = Json::Bool(false);
            }
            entry.push((key.to_string(), Json::obj(metrics)));
        }
        workloads.push((workload.to_string(), Json::Obj(entry)));
    }
    if let Some(path) = &args.out {
        let body = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("workloads", Json::Obj(workloads)),
        ])
        .render();
        // The commit + CPU features + thread count stamp is rna-bench's.
        let text = format!(
            "{{\n{}\n  {}\n}}\n",
            rna_bench::json_header("rna-perf-v1"),
            &body[1..body.len() - 1]
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perf: cannot write {path}: {e}");
            ok = false;
        } else {
            eprintln!("wrote {path}");
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            let better = if m.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
        }
        let mut declared = names("per_layer");
        let mut emitted: Vec<String> = PER_LAYER.iter().map(|s| s.to_string()).collect();
        declared.sort();
        emitted.sort();
        assert_eq!(declared, emitted);
    }
}
