//! The layered ledger: every layer timed from outside, through its public
//! functions, at the shapes the workloads use. Each timed sample is a span,
//! so the traced pass and the ledger are one recording.
//!
//! A row's value is the median over samples of (span ÷ calls in the span).
//! Rows that chase a ceiling are printed beside it: `tensor.memcpy_gbps`
//! for every GB/s row, `runtime.hop.loopback_gbps` for the socket stages,
//! `collectives.cost_model_round_ms` for the simulated round.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rna_collectives::{partial_allreduce_pooled, ring_allreduce_pooled, CollectiveCost};
use rna_core::cache::GradientCache;
use rna_core::probe::ProbeRound;
use rna_core::sim::TaskKind;
use rna_core::Compression;
use rna_runtime::proto::{
    compute_mac, decode_body, encode_body, verify_mac, AuthKey, EncodedGradBatch, GradBatch, Msg,
};
use rna_simnet::{EventQueue, SimDuration, SimRng, SimTime};
use rna_tensor::codec::{encode_with_feedback_mt, wire_threads};
use rna_tensor::reduce::staleness_weighted_average_into;
use rna_tensor::{ReduceOp, Tensor, TensorPool};
use rna_training::model::{Mlp, SoftmaxClassifier};
use rna_training::{BatchSampler, Dataset, Model, Sgd};
use rna_workload::HeterogeneityModel;

use crate::harness::{draws, seeded_tensor, Span, Stat, Tracer};
use crate::worlds::{mlp_spec, scale_spec, ELEMS, MLP_WORKERS};

/// Inputs to the 8-way reductions and slots of the partial collective.
const WAYS: usize = 8;
/// Bytes of one uncompressed 64 Ki gradient.
const RAW_BYTES: f64 = (ELEMS * 4) as f64;
/// Calls are batched until one sample lasts about this long, so the clock
/// read is noise and a sample is long enough to be a span.
const SAMPLE_NS: f64 = 400_000.0;

/// One reported per-layer metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub stat: Stat,
}

/// Collects rows and the spans they were measured in.
pub struct Ledger {
    tracer: Tracer,
    budget: Duration,
    pub rows: Vec<Row>,
}

impl Ledger {
    /// `budget` is the measuring time each timed row may spend.
    pub fn new(epoch: Instant, budget: Duration) -> Self {
        Ledger {
            tracer: Tracer::new(epoch, true),
            budget,
            rows: Vec::new(),
        }
    }

    /// Times `f`: ns per call, one span per sample.
    pub fn time(&mut self, name: &'static str, layer: &'static str, mut f: impl FnMut()) -> Stat {
        f();
        let t = Instant::now();
        f();
        let once = (t.elapsed().as_nanos() as f64).max(20.0);
        let calls = ((SAMPLE_NS / once).ceil() as u64).clamp(1, 1_000_000);
        let sample_ns = once * calls as f64;
        let samples = ((self.budget.as_nanos() as f64 / sample_ns) as usize).clamp(5, 41);
        let mut per_call = Vec::with_capacity(samples);
        for i in 0..samples {
            let t = Instant::now();
            self.tracer.span(name, layer, i as u64, || {
                for _ in 0..calls {
                    f();
                }
            });
            per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
        Stat::of(&per_call)
    }

    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, stat: Stat) {
        self.rows.push(Row {
            name: name.into(),
            unit,
            stat,
        });
    }

    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.put(name, unit, Stat::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.stat.value)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.tracer.into_spans()
    }
}

/// `ns` per call as a rate of `unit_per_call` per ns — a faster call is a
/// higher rate, so the quartiles swap.
fn rate(ns: Stat, unit_per_call: f64) -> Stat {
    Stat {
        value: unit_per_call / ns.value,
        q1: unit_per_call / ns.q3,
        q3: unit_per_call / ns.q1,
        samples: ns.samples,
    }
}

fn scaled(ns: Stat, factor: f64) -> Stat {
    Stat {
        value: ns.value * factor,
        q1: ns.q1 * factor,
        q3: ns.q3 * factor,
        samples: ns.samples,
    }
}

/// Median ns per call of each layer at a workload's own shapes — what the
/// replay multiplies by the untraced run's call counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// Batch draw + `loss_and_grad`, MLP 256-240-16 and softmax 8×4.
    pub grad_mlp: f64,
    pub grad_small: f64,
    /// Mean of the replicas + loss, accuracy and top-5 over the validation
    /// split.
    pub eval_mlp: f64,
    /// One replica's apply as `Ctx::apply_reduced` does it: copy out,
    /// `Sgd::step`, `set_params`.
    pub apply_64k: f64,
    pub apply_36: f64,
    /// `GradientCache::write` + `take_contribution_pooled`.
    pub cache_64k: f64,
    pub cache_36: f64,
    /// `encode_with_feedback_mt`, int8, 64 Ki.
    pub int8_feedback: f64,
    /// `partial_allreduce_pooled`, 8 slots with 4 null, 64 Ki.
    pub partial_64k: f64,
    /// The same at 36 elements, per contributing slot.
    pub partial_36_per_contrib: f64,
    /// Compute-time + straggler-delay sample for one iteration.
    pub compute_sample: f64,
    /// One event through the queue at a steady depth of 10 000.
    pub queue_event: f64,
    /// `ProbeRound::sample(n = 10 000, d = 2)`.
    pub probe_10k: f64,
    /// Encode + decode of one control message.
    pub ctrl_msg: f64,
}

/// Runs every fixed-shape layer benchmark and returns the per-call costs
/// the replays need.
pub fn measure(l: &mut Ledger, seed: u64) -> Costs {
    let mut costs = Costs::default();
    training(l, seed, &mut costs);
    tensor(l, seed, &mut costs);
    collectives(l, seed, &mut costs);
    simulator(l, seed, &mut costs);
    core_layers(l, seed, &mut costs);
    proto(l, seed, &mut costs);
    costs
}

fn build_task(task: &TaskKind, seed: u64) -> (Dataset, Dataset, Box<dyn Model>) {
    // `TaskKind::build` is private; this is its Classification arm.
    let TaskKind::Classification {
        dim,
        classes,
        hidden,
        samples,
        spread,
    } = *task
    else {
        unreachable!("both DES workloads classify")
    };
    let mut rng = SimRng::seed(seed).fork(1);
    let (train, val) = Dataset::blobs(samples, dim, classes, spread, &mut rng).split(0.2);
    let model: Box<dyn Model> = match hidden {
        Some(h) => Box::new(Mlp::new(dim, h, classes, &mut rng)),
        None => Box::new(SoftmaxClassifier::new(dim, classes, &mut rng)),
    };
    (train, val, model)
}

/// One replica's share of `Ctx::apply_reduced`.
fn time_apply(l: &mut Ledger, name: &'static str, model: &mut dyn Model, grad: &Tensor) -> Stat {
    let mut scratch = Tensor::zeros(grad.len());
    // The learning rate is tiny so thousands of applications stay finite.
    let mut sgd = Sgd::new(1.0e-7, 0.0, 0.0, grad.len());
    l.time(name, "training", || {
        scratch.copy_from(model.params());
        sgd.step(&mut scratch, black_box(grad), 3.0);
        model.set_params(&scratch);
    })
}

fn training(l: &mut Ledger, seed: u64, costs: &mut Costs) {
    let (train, val, mut mlp) = build_task(&mlp_spec(seed, 1, false).task, seed);
    let mut sampler = BatchSampler::new(SimRng::seed(seed).fork(2), 16);
    let grad = l.time("training.grad", "training", || {
        let batch = sampler.sample(&train);
        black_box(mlp.loss_and_grad(&batch));
    });
    costs.grad_mlp = grad.value;
    l.put("training.grad_us", "us", scaled(grad, 1e-3));

    let replicas: Vec<Tensor> = (0..MLP_WORKERS).map(|_| mlp.params().clone()).collect();
    let mut mean = Tensor::zeros(ELEMS);
    let mut eval_model = mlp.clone_model();
    let eval = l.time("training.eval", "training", || {
        mean.fill_zero();
        for p in &replicas {
            mean.add_assign(p);
        }
        mean.scale(1.0 / replicas.len() as f32);
        eval_model.set_params(&mean);
        let batch = val.full_batch();
        black_box(eval_model.loss(&batch));
        black_box(eval_model.accuracy(&batch));
        black_box(eval_model.top_k_accuracy(&batch, 5));
    });
    costs.eval_mlp = eval.value;
    l.put("training.eval_ms", "ms", scaled(eval, 1e-6));

    let g = seeded_tensor(seed, 10, ELEMS);
    let mut params = seeded_tensor(seed, 11, ELEMS);
    let mut sgd = Sgd::new(1.0e-7, 0.0, 0.0, ELEMS);
    let step = l.time("training.apply", "training", || {
        sgd.step(black_box(&mut params), black_box(&g), 1.0);
    });
    l.put(
        "training.apply_ns_per_elem",
        "ns",
        scaled(step, 1.0 / ELEMS as f64),
    );
    costs.apply_64k = time_apply(l, "training.apply_replica", mlp.as_mut(), &g).value;

    let (train, _, mut softmax) = build_task(&scale_spec(seed, 1).task, seed);
    let mut sampler = BatchSampler::new(SimRng::seed(seed).fork(3), 16);
    let small = l.time("training.grad_small", "training", || {
        let batch = sampler.sample(&train);
        black_box(softmax.loss_and_grad(&batch));
    });
    costs.grad_small = small.value;
    l.put("training.grad_small_us", "us", scaled(small, 1e-3));
    let g36 = seeded_tensor(seed, 12, softmax.num_params());
    costs.apply_36 = time_apply(l, "training.apply_replica_small", softmax.as_mut(), &g36).value;
}

fn tensor(l: &mut Ledger, seed: u64, costs: &mut Costs) {
    let inputs: Vec<Tensor> = (0..WAYS)
        .map(|i| seeded_tensor(seed, 20 + i as u64, ELEMS))
        .collect();
    let mut out = Tensor::zeros(ELEMS);

    let src = inputs[0].as_slice();
    let memcpy = l.time("tensor.memcpy", "tensor", || {
        out.as_mut_slice().copy_from_slice(black_box(src));
    });
    l.put("tensor.memcpy_gbps", "GB/s", rate(memcpy, RAW_BYTES));

    let reduce = l.time("tensor.reduce", "tensor", || {
        ReduceOp::Mean.reduce_into(black_box(&mut out), black_box(&inputs));
    });
    l.put(
        "tensor.reduce_ns_per_elem",
        "ns",
        scaled(reduce, 1.0 / ELEMS as f64),
    );

    let tagged: Vec<(u64, &Tensor)> = inputs
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u64 + 1, t))
        .collect();
    let wavg = l.time("tensor.wavg", "tensor", || {
        staleness_weighted_average_into(black_box(&mut out), black_box(&tagged), WAYS as u64);
    });
    l.put(
        "tensor.wavg_ns_per_elem",
        "ns",
        scaled(wavg, 1.0 / ELEMS as f64),
    );

    let x = &inputs[1];
    let mut frame = Vec::new();
    let mut draw = draws(seed, 30);
    let mut decoded = vec![0.0f32; ELEMS];
    for (codec, key) in [
        (Compression::Lossless, "lossless"),
        (Compression::Fp16, "fp16"),
        (Compression::Int8, "int8"),
        (Compression::top_k_10pct(), "topk"),
    ] {
        let enc = l.time("tensor.codec.encode", "tensor.codec", || {
            frame.clear();
            codec.encode_slice_append(black_box(x.as_slice()), &mut frame, &mut draw);
        });
        l.put(
            format!("tensor.codec.{key}_encode_gbps"),
            "GB/s",
            rate(enc, RAW_BYTES),
        );
        let dec = l.time("tensor.codec.decode", "tensor.codec", || {
            codec
                .decode_slice(black_box(&frame), &mut decoded)
                .expect("own frame decodes");
        });
        l.put(
            format!("tensor.codec.{key}_decode_gbps"),
            "GB/s",
            rate(dec, RAW_BYTES),
        );
    }

    let threads = wire_threads(ELEMS);
    let mut grad = Tensor::zeros(ELEMS);
    let mut residual = Tensor::zeros(ELEMS);
    let feedback = l.time("tensor.codec.int8_feedback", "tensor.codec", || {
        grad.copy_from(x);
        encode_with_feedback_mt(
            Compression::Int8,
            &mut grad,
            &mut residual,
            &mut frame,
            &mut draw,
            threads,
        );
    });
    costs.int8_feedback = feedback.value;
    l.put(
        "tensor.codec.int8_feedback_encode_gbps",
        "GB/s",
        rate(feedback, RAW_BYTES),
    );

    // Always two chunks, whatever the host: beside fp16_decode_gbps this is
    // what the fan-out buys, or on one CPU what it costs.
    Compression::Fp16.encode_slice(x.as_slice(), &mut frame, &mut draw);
    let dec_mt = l.time("tensor.codec.fp16_decode_mt", "tensor.codec", || {
        Compression::Fp16
            .decode_slice_mt(black_box(&frame), &mut decoded, 2)
            .expect("own frame decodes");
    });
    l.put(
        "tensor.codec.fp16_decode_mt_gbps",
        "GB/s",
        rate(dec_mt, RAW_BYTES),
    );
}

fn collectives(l: &mut Ledger, seed: u64, costs: &mut Costs) {
    let grads: Vec<Tensor> = (0..WAYS)
        .map(|i| seeded_tensor(seed, 40 + i as u64, ELEMS))
        .collect();
    let slots: Vec<Option<&Tensor>> = grads
        .iter()
        .enumerate()
        .map(|(i, g)| (i % 2 == 0).then_some(g))
        .collect();
    let mut pool = TensorPool::new();
    let partial = l.time("collectives.partial", "collectives", || {
        let out = partial_allreduce_pooled(black_box(&slots), &mut pool).expect("four contribute");
        pool.release(out.reduced);
    });
    costs.partial_64k = partial.value;
    l.put("collectives.partial_us", "us", scaled(partial, 1e-3));

    let small: Vec<Tensor> = (0..1000)
        .map(|i| seeded_tensor(seed, 60 + i as u64, 36))
        .collect();
    let small_slots: Vec<Option<&Tensor>> = small.iter().map(Some).collect();
    let per_1000 = l.time("collectives.partial_small", "collectives", || {
        let out =
            partial_allreduce_pooled(black_box(&small_slots), &mut pool).expect("all contribute");
        pool.release(out.reduced);
    });
    costs.partial_36_per_contrib = per_1000.value / small.len() as f64;

    let mut buffers = grads.clone();
    let ring = l.time("collectives.ring", "collectives", || {
        black_box(ring_allreduce_pooled(
            &mut buffers,
            ReduceOp::Mean,
            &mut pool,
        ));
    });
    l.put("collectives.ring_us", "us", scaled(ring, 1e-3));

    // What one des-mlp64k round is billed on the virtual clock: the
    // trigger plus the framed int8 ring at the profile's gradient size.
    let spec = mlp_spec(seed, 1, false);
    let cost = CollectiveCost::new(spec.link);
    let chunk =
        rna_tensor::chunks::max_chunk_len((spec.profile.grad_bytes() / 4) as usize, MLP_WORKERS);
    let round = cost.link().transfer_time(64)
        + cost.ring_allreduce_framed(MLP_WORKERS, Compression::Int8.frame_bytes(chunk));
    l.value(
        "collectives.cost_model_round_ms",
        "virt_ms",
        round.as_millis_f64(),
    );
}

fn simulator(l: &mut Ledger, seed: u64, costs: &mut Costs) {
    const DEPTH: u64 = 10_000;
    let mut rng = SimRng::seed(seed).fork(70);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(DEPTH as usize);
    let mut clock = 0u64;
    for i in 0..DEPTH {
        queue.schedule(SimTime::from_nanos(rng.uniform_u64(0..5_000_000)), i);
    }
    let mut drained = Vec::new();
    // One call moves one event through a queue that stays 10 000 deep.
    let event = l.time("simnet.queue", "simnet", || {
        drained.clear();
        let at = queue.pop_batch(&mut drained).expect("queue stays full");
        clock = at.as_nanos();
        for (_, payload) in drained.drain(..) {
            let later = clock + 1 + rng.uniform_u64(0..5_000_000);
            queue.schedule(SimTime::from_nanos(later), payload);
        }
    });
    costs.queue_event = event.value;
    l.put("simnet.queue_ns_per_event", "ns", event);

    let draw = l.time("simnet.rng", "simnet", || {
        black_box(rng.uniform_u64(0..1 << 32));
    });
    l.put("simnet.rng_ns_per_draw", "ns", draw);

    let spec = scale_spec(seed, 1);
    let hetero = HeterogeneityModel::dynamic_uniform(64, 0, 20);
    let mut w = 0usize;
    let sample = l.time("workload.compute_sample", "workload", || {
        let nominal: SimDuration = spec.profile.compute.sample(&mut rng, None);
        black_box(hetero.apply(w % 64, nominal, &mut rng));
        w += 1;
    });
    costs.compute_sample = sample.value;
    l.put("workload.compute_sample_ns", "ns", sample);
}

fn time_cache(l: &mut Ledger, name: &'static str, seed: u64, len: usize) -> Stat {
    let mut cache = GradientCache::new(4, true);
    let mut pool = TensorPool::new();
    pool.release(seeded_tensor(seed, 80, len));
    pool.release(Tensor::zeros(len));
    let mut iter = 0u64;
    l.time(name, "core.cache", || {
        let grad = pool.acquire(len);
        iter += 1;
        if let Some(evicted) = cache.write(iter, grad) {
            pool.release(evicted);
        }
        let out = cache
            .take_contribution_pooled(iter, &mut pool)
            .expect("one entry is cached");
        pool.release(black_box(out));
    })
}

fn core_layers(l: &mut Ledger, seed: u64, costs: &mut Costs) {
    let mut rng = SimRng::seed(seed).fork(81);
    let mut round = 0u64;
    let probe = l.time("core.probe", "core.probe", || {
        round += 1;
        black_box(ProbeRound::sample(round, 10_000, 2, &mut rng));
    });
    costs.probe_10k = probe.value;
    l.put("core.probe_sample_ns", "ns", probe);

    let small = time_cache(l, "core.cache", seed, 36);
    costs.cache_36 = small.value;
    l.put("core.cache_cycle_ns", "ns", small);
    let large = time_cache(l, "core.cache_64k", seed, ELEMS);
    costs.cache_64k = large.value;
    l.put("core.cache_cycle_64k_ns", "ns", large);
}

fn proto(l: &mut Ledger, seed: u64, costs: &mut Costs) {
    let msgs = [
        Msg::Heartbeat { iter: 123_456 },
        Msg::Round { round: 7_890 },
    ];
    let mut body = Vec::new();
    let mut i = 0usize;
    let ctrl = l.time("runtime.proto.ctrl_msg", "runtime.proto", || {
        body.clear();
        encode_body(black_box(&msgs[i % 2]), &mut body);
        black_box(decode_body(&body).expect("own body decodes"));
        i += 1;
    });
    costs.ctrl_msg = ctrl.value;
    l.put("runtime.proto.ctrl_msg_ns", "ns", ctrl);

    let x = seeded_tensor(seed, 90, ELEMS);
    let mut draw = draws(seed, 91);
    let mut batch = GradBatch::new();
    let frame_encode = l.time("runtime.proto.frame_encode", "runtime.proto", || {
        batch.reset();
        let out = batch.begin_entry(1);
        Compression::Fp16.encode_slice_append(black_box(x.as_slice()), out, &mut draw);
        batch.finish_entry(0.0);
        black_box(batch.frame());
    });
    l.put(
        "runtime.proto.frame_encode_gbps",
        "GB/s",
        rate(frame_encode, RAW_BYTES),
    );

    batch.reset();
    for iter in 0..4 {
        let out = batch.begin_entry(iter);
        Compression::Fp16.encode_slice_append(x.as_slice(), out, &mut draw);
        batch.finish_entry(0.0);
    }
    let wire = batch.frame()[4..].to_vec();
    let parse = l.time("runtime.proto.batch_parse", "runtime.proto", || {
        let entries = EncodedGradBatch::parse(black_box(&wire)).expect("own frame parses");
        for e in entries {
            black_box(e.expect("own entry parses").frame.len());
        }
    });
    l.put("runtime.proto.batch_parse_ns", "ns", parse);

    let key = AuthKey {
        k0: crate::harness::sub_seed(seed, 92),
        k1: crate::harness::sub_seed(seed, 93),
    };
    let mut nonce = 0u64;
    let mac = l.time("runtime.proto.mac", "runtime.proto", || {
        nonce += 1;
        let m = compute_mac(black_box(&key), nonce, 1, 2, 0);
        verify_mac(&key, nonce, 1, 2, 0, m).expect("own MAC verifies");
    });
    l.put("runtime.proto.mac_ns", "ns", mac);
}

/// `tensor.pool.hit_ratio`: hits ÷ acquires of a pool driven like the
/// pooled reduce path of one `des-mlp64k` round — cache drains, the
/// partial collective, release — for a few hundred rounds.
pub fn pool_hit_ratio(seed: u64) -> f64 {
    let mut pool = TensorPool::new();
    let mut caches: Vec<GradientCache> = (0..MLP_WORKERS)
        .map(|_| GradientCache::new(4, true))
        .collect();
    let src = seeded_tensor(seed, 95, ELEMS);
    let mut rng = SimRng::seed(seed).fork(96);
    for round in 1..=300u64 {
        for cache in &mut caches {
            if rng.bernoulli(0.4) {
                let mut g = pool.acquire(ELEMS);
                g.copy_from(&src);
                if let Some(evicted) = cache.write(round, g) {
                    pool.release(evicted);
                }
            }
        }
        let drained: Vec<Option<Tensor>> = caches
            .iter_mut()
            .map(|c| c.take_contribution_pooled(round, &mut pool))
            .collect();
        let refs: Vec<Option<&Tensor>> = drained.iter().map(Option::as_ref).collect();
        if let Some(out) = partial_allreduce_pooled(&refs, &mut pool) {
            pool.release(out.reduced);
        }
        for g in drained.into_iter().flatten() {
            pool.release(g);
        }
    }
    pool.hits() as f64 / (pool.hits() + pool.misses()) as f64
}
