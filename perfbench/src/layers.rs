//! Per-layer metrics shared by the workloads. Every workload reports the
//! same names; a layer a workload never enters reads 0.

use crate::probe::{Layers, Stopwatch, MEMBERS};
use crate::report::{ratio, Metrics};
use resemble_core::ResembleConfig;
use resemble_nn::{Activation, Matrix, Mlp, Sgd};
use std::sync::atomic::Ordering::Relaxed;

impl Layers {
    /// SGD steps recorded, scaled per round.
    pub fn train_steps_per(&self, per_round: f64) -> f64 {
        self.train_steps.load(Relaxed) as f64 * per_round
    }
}

/// Trace, sim counters, prefetch and core metrics from the spans, with
/// busy times and counts scaled to one round of the workload.
pub fn common(l: &Layers, per_round: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("trace.busy_s", l.trace.secs() * per_round, "s");
    m.put("trace.build_s", l.trace_build.secs() * per_round, "s");
    m.put(
        "trace.ns_per_access",
        ratio(l.trace.secs() * 1e9, l.trace.calls() as f64),
        "ns",
    );
    m.put(
        "sim.cache_events",
        l.cache_events.load(Relaxed) as f64 * per_round,
        "count",
    );
    let (issued, useful, misses) = (
        l.issued.load(Relaxed) as f64,
        l.useful.load(Relaxed) as f64,
        l.misses.load(Relaxed) as f64,
    );
    m.put("sim.accuracy", ratio(useful, issued), "ratio");
    m.put("sim.coverage", ratio(useful, useful + misses), "ratio");
    for (name, span) in MEMBERS.iter().zip(&l.members) {
        m.put(
            &format!("prefetch.{name}.busy_s"),
            span.secs() * per_round,
            "s",
        );
    }
    m.put(
        "prefetch.calls",
        l.member_calls() as f64 * per_round,
        "count",
    );
    m.put("core.replay_s", l.core_replay.secs() * per_round, "s");
    m.put(
        "core.preprocess_s",
        l.core_preprocess.secs() * per_round,
        "s",
    );
    m.put("core.act_s", l.core_act.secs() * per_round, "s");
    m.put("core.train_s", l.core_train.secs() * per_round, "s");
    m.put("core.train_steps", l.train_steps_per(per_round), "count");
    m.put("core.sbp_e.self_s", l.sbp_e_self_secs() * per_round, "s");
    m.put(
        "core.resemble_t.self_s",
        l.resemble_t_self_secs() * per_round,
        "s",
    );
    m
}

/// Engine and sweep metrics of a workload that simulates nothing.
pub fn sim_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("sim.self_s", "s"),
        ("sim.self_ns_per_access", "ns"),
        ("sim.ipc_gain_pct", "%"),
        ("runtime.busy_s", "s"),
        ("runtime.parallel_eff", "ratio"),
        ("runtime.tail_s", "s"),
        ("runtime.baseline_runs", "count"),
    ] {
        m.put(name, 0.0, unit);
    }
}

/// Serving metrics of a workload that serves nothing.
pub fn serve_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("serve.server_p50_us", "us"),
        ("serve.server_p99_us", "us"),
        ("serve.mean_batch", "count"),
        ("serve.pool_sessions_per_batch", "count"),
        ("serve.pooled_frac", "ratio"),
        ("serve.prepare_us", "us"),
        ("serve.forward_us", "us"),
        ("serve.commit_us", "us"),
        ("serve.frame_codec_ns", "ns"),
        ("serve.events_applied", "count"),
    ] {
        m.put(name, 0.0, unit);
    }
}

/// Per-call cost of the controller network's three training kernels at
/// the fast controller shapes (`forward_batch` over `forward_rows` rows;
/// `backward_batch` and `apply_grads` over a training batch), each timed
/// over the calls the traced run recorded, clamped to 1k..20k calls, plus
/// the arithmetic and memory traffic of one SGD step from the shapes.
///
/// `forward_calls` and `train_steps` are the per-round counts recorded;
/// `nn.forward_calls` reports the first, so a workload that never runs
/// the network shows 0 calls next to the cost it would pay per call.
pub fn nn_probe(m: &mut Metrics, forward_rows: usize, forward_calls: f64, train_steps: f64) {
    let cfg = ResembleConfig::fast();
    let sizes = [cfg.input_dim(), cfg.hidden_dim, cfg.action_dim];
    let batch = cfg.batch_size;
    let mut net = Mlp::new(&sizes, Activation::Relu, 7);
    let clamp = |calls: f64| (calls as usize).clamp(1_000, 20_000);
    let input =
        |rows: usize| Matrix::from_fn(rows, sizes[0], |r, c| ((r * 7 + c * 3) % 11) as f32 / 11.0);

    let xs = input(forward_rows.max(1));
    let mut scratch = net.make_batch_scratch(xs.rows());
    let fwd_calls = clamp(forward_calls);
    let t0 = Stopwatch::start();
    for _ in 0..fwd_calls {
        std::hint::black_box(net.forward_batch(std::hint::black_box(&xs), &mut scratch));
    }
    let fwd_us = t0.secs() * 1e6 / fwd_calls as f64;

    let xs = input(batch);
    let mut scratch = net.make_batch_scratch(batch);
    let mut grads = net.make_grad_buffer();
    let mut opt = Sgd::new(cfg.learning_rate);
    let out_grads = Matrix::from_fn(batch, sizes[2], |r, c| {
        f32::from(u8::from(r % sizes[2] == c)) * 0.01
    });
    let steps = clamp(train_steps);
    let (mut bwd_s, mut apply_s) = (0.0, 0.0);
    for _ in 0..steps {
        net.forward_batch(&xs, &mut scratch);
        let sw = Stopwatch::start();
        net.backward_batch(&mut scratch, &out_grads, &mut grads);
        bwd_s += sw.secs();
        let sw = Stopwatch::start();
        net.apply_grads(&mut grads, &mut opt);
        apply_s += sw.secs();
    }
    std::hint::black_box(&net);

    m.put("nn.forward_batch_us", fwd_us, "us");
    m.put("nn.backward_batch_us", bwd_s * 1e6 / steps as f64, "us");
    m.put("nn.apply_grads_us", apply_s * 1e6 / steps as f64, "us");
    m.put("nn.forward_calls", forward_calls, "count");
    let (flops, bytes) = train_step_cost(&sizes, batch);
    m.put("nn.flops_per_train_step", flops, "flop");
    m.put("nn.bytes_per_train_step", bytes, "B");
}

/// Arithmetic (flop) and f32 traffic (bytes, each operand read and each
/// result written once per kernel) of one batched SGD step: target and
/// policy forwards, one backward, one optimizer update.
pub fn train_step_cost(sizes: &[usize], batch: usize) -> (f64, f64) {
    let b = batch as f64;
    let (mut flops, mut words) = (0.0, 0.0);
    let mut params = 0.0;
    for (l, w) in sizes.windows(2).enumerate() {
        let (i, o) = (w[0] as f64, w[1] as f64);
        params += i * o + o;
        // two forwards: GEMM, bias add, activation
        flops += 2.0 * (2.0 * b * i * o + 2.0 * b * o);
        words += 2.0 * (i * o + o + b * i + b * o);
        // backward: weight-gradient GEMM and bias sums
        flops += 2.0 * b * i * o + b * o;
        words += b * o + b * i + 2.0 * (i * o + o);
        if l > 0 {
            // delta propagation GEMM and derivative mask
            flops += 2.0 * b * i * o + b * i;
            words += i * o + b * o + 2.0 * b * i;
        }
    }
    // update: scale, multiply by the rate, subtract; gather and scatter
    flops += 3.0 * params;
    words += 5.0 * params;
    (flops, words * 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_step_cost_counts_every_kernel() {
        // 1 → 1 → 1 network, batch 1: forwards 2·(2+2)·2 layers = 16,
        // backward dW 3 per layer + propagation 3 = 9, update 3·4 = 12.
        let (flops, bytes) = train_step_cost(&[1, 1, 1], 1);
        assert_eq!(flops, 16.0 + 9.0 + 12.0);
        assert!(bytes > 0.0);
    }
}
