//! Criterion micro-benchmarks of the hot components: controller inference
//! (the Table VII latency path), one training step, preprocessing hashes,
//! cache/DRAM access, replay operations, and each prefetcher's per-access
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use resemble_bench::factory;
use resemble_core::preprocess::fold_hash;
use resemble_core::{Datapath, DqnAgent, ReplayMemory, ResembleConfig};
use resemble_nn::simd;
use resemble_nn::{Activation, Matrix, Mlp, Sgd};
use resemble_prefetch::{
    BestOffset, Domino, Isb, NextLine, Prefetcher, Spp, StridePrefetcher, Vldp,
};
use resemble_sim::{Cache, Dram, DramConfig, Engine, ReferenceEngine, SimConfig};
use resemble_trace::gen::{app_by_name, StreamGen};
use resemble_trace::MemAccess;

fn bench_mlp(c: &mut Criterion) {
    let cfg = ResembleConfig::default();
    let net = Mlp::new(
        &[cfg.input_dim(), cfg.hidden_dim, cfg.action_dim],
        Activation::Relu,
        1,
    );
    let mut scratch = net.make_scratch();
    let x = [0.1f32, 0.7, 0.3, 0.9];
    c.bench_function("mlp/inference_4x100x5", |b| {
        b.iter(|| {
            let out = net.forward(black_box(&x), &mut scratch);
            black_box(out[0])
        })
    });

    let mut train_net = net.clone();
    let mut grads = train_net.make_grad_buffer();
    let mut opt = Sgd::new(0.05);
    c.bench_function("mlp/train_step_batch32", |b| {
        b.iter(|| {
            for _ in 0..32 {
                let y = train_net.forward(&x, &mut scratch)[2];
                train_net.backward(&mut scratch, &[0.0, 0.0, y - 1.0, 0.0, 0.0], &mut grads);
            }
            train_net.apply_grads(&mut grads, &mut opt);
        })
    });
}

fn bench_controller(c: &mut Criterion) {
    // The minibatch-GEMM datapath vs the scalar per-sample datapath, at
    // kernel level (forward over a 32-row batch) and at training-step
    // level (DqnAgent::train_once on a fully-valid replay, batch 256),
    // plus the fast config's training step (batch 32) and its kernels.
    let mut group = c.benchmark_group("controller");
    let cfg = ResembleConfig::default();
    let net = Mlp::new(
        &[cfg.input_dim(), cfg.hidden_dim, cfg.action_dim],
        Activation::Relu,
        1,
    );
    const B: usize = 32;
    let xs = Matrix::from_fn(B, cfg.input_dim(), |r, col| {
        ((r * 7 + col) as f32 * 0.13).sin()
    });
    let mut scratch = net.make_scratch();
    group.bench_function("forward32_per_sample", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for r in 0..B {
                acc += net.forward(xs.row(r), &mut scratch)[0];
            }
            black_box(acc)
        })
    });
    let mut bscratch = net.make_batch_scratch(B);
    group.bench_function("forward32_batched", |b| {
        b.iter(|| {
            let out = net.forward_batch(black_box(&xs), &mut bscratch);
            black_box(out.get(0, 0))
        })
    });
    // Full training batch: the two GEMM passes of one SGD step.
    const TB: usize = 256;
    let txs = Matrix::from_fn(TB, cfg.input_dim(), |r, col| {
        ((r * 7 + col) as f32 * 0.13).sin()
    });
    let mut tscratch = net.make_batch_scratch(TB);
    group.bench_function("forward256_batched", |b| {
        b.iter(|| {
            let out = net.forward_batch(black_box(&txs), &mut tscratch);
            black_box(out.get(0, 0))
        })
    });
    let tnet = net.clone();
    let mut tgrads = tnet.make_grad_buffer();
    let og = Matrix::from_fn(
        TB,
        cfg.action_dim,
        |r, col| {
            if col == r % 5 {
                0.3
            } else {
                0.0
            }
        },
    );
    tnet.forward_batch(&txs, &mut tscratch);
    group.bench_function("backward256_batched", |b| {
        b.iter(|| {
            tnet.backward_batch(&mut tscratch, black_box(&og), &mut tgrads);
            black_box(tgrads.samples)
        })
    });
    // Per-backend variants of the two full-training-batch kernels: each
    // available SIMD backend is forced for the measurement's duration so
    // the report attributes GEMM throughput to an ISA (the unsuffixed
    // names above measure whatever runtime dispatch selected).
    for &be in simd::available() {
        group.bench_function(format!("forward256_batched_{be}"), |b| {
            let _guard = simd::force(be);
            b.iter(|| {
                let out = net.forward_batch(black_box(&txs), &mut tscratch);
                black_box(out.get(0, 0))
            })
        });
        group.bench_function(format!("backward256_batched_{be}"), |b| {
            let _guard = simd::force(be);
            b.iter(|| {
                tnet.backward_batch(&mut tscratch, black_box(&og), &mut tgrads);
                black_box(tgrads.samples)
            })
        });
    }
    for (label, cfg, dp) in [
        ("train_once_batched", cfg, Datapath::Batched),
        ("train_once_per_sample", cfg, Datapath::PerSample),
        (
            "train_once_fast32",
            ResembleConfig::fast(),
            Datapath::Batched,
        ),
    ] {
        let mut agent = DqnAgent::new(cfg, 1);
        agent.set_datapath(dp);
        let replay = full_replay(&cfg);
        group.bench_function(label, |b| b.iter(|| agent.train_once(&replay)));
    }
    bench_fast_gemms(&mut group);
    group.finish();
}

/// A replay of `cfg`'s capacity in which every transition is valid.
fn full_replay(cfg: &ResembleConfig) -> ReplayMemory {
    let mut replay = ReplayMemory::new(cfg.replay_capacity, cfg.window, cfg.input_dim());
    for i in 0..cfg.replay_capacity as u64 {
        let v = (i as f32 * 0.37).sin();
        let s = [v, 1.0 - v, v * v, 0.5];
        let id = replay.push(&s, (i % 5) as usize, &[]);
        replay.set_next_state(id, &s);
    }
    replay
}

/// Each kernel of one training step at the `ResembleConfig::fast()`
/// shapes (4→100→5, batch 32): the two forward GEMMs, the two weight
/// gradients, the whole backward pass and the optimizer step.
fn bench_fast_gemms(group: &mut criterion::BenchmarkGroup<'_>) {
    let cfg = ResembleConfig::fast();
    let (s, h, a, b) = (
        cfg.input_dim(),
        cfg.hidden_dim,
        cfg.action_dim,
        cfg.batch_size,
    );
    let xs = Matrix::from_fn(b, s, |r, c| ((r * 7 + c) as f32 * 0.13).sin());
    let hs = Matrix::from_fn(b, h, |r, c| ((r * 13 + c) as f32 * 0.19).sin().max(0.0));
    let w1 = Matrix::from_fn(h, s, |r, c| ((r * 3 + c) as f32 * 0.07).cos());
    let w2 = Matrix::from_fn(a, h, |r, c| ((r * 5 + c) as f32 * 0.11).sin());
    let mut y1 = Matrix::zeros(b, h);
    let mut y2 = Matrix::zeros(b, a);
    group.bench_function("fast32/gemm_4x100", |bn| {
        bn.iter(|| w1.matmul_into(black_box(&xs), &mut y1))
    });
    group.bench_function("fast32/gemm_100x5", |bn| {
        bn.iter(|| w2.matmul_into(black_box(&hs), &mut y2))
    });
    // One-hot deltas, like the TD error; ReLU-sparse hidden deltas.
    let d2 = Matrix::from_fn(b, a, |r, c| if c == r % a { 0.3 } else { 0.0 });
    let d1 = Matrix::from_fn(b, h, |r, c| {
        if (r + c) % 3 == 0 {
            0.0
        } else {
            ((r * 7 + c) as f32 * 0.3).sin()
        }
    });
    let mut g2 = Matrix::zeros(a, h);
    let mut g1t = Matrix::zeros(s, h);
    group.bench_function("fast32/grad_5x100", |bn| {
        bn.iter(|| g2.add_outer_batch(1.0, black_box(&d2), &hs))
    });
    group.bench_function("fast32/grad_100x4", |bn| {
        bn.iter(|| g1t.add_outer_batch_t(1.0, black_box(&d1), &xs))
    });
    let mut net = Mlp::new(&[s, h, a], Activation::Relu, 1);
    let mut scratch = net.make_batch_scratch(b);
    let mut grads = net.make_grad_buffer();
    net.forward_batch(&xs, &mut scratch);
    group.bench_function("fast32/backward", |bn| {
        bn.iter(|| net.backward_batch(&mut scratch, black_box(&d2), &mut grads))
    });
    let mut opt = Sgd::new(1e-6);
    group.bench_function("fast32/apply_grads", |bn| {
        bn.iter(|| {
            grads.samples = b;
            net.apply_grads(&mut grads, &mut opt)
        })
    });
}

fn bench_preprocess(c: &mut Criterion) {
    c.bench_function("preprocess/fold_hash_16", |b| {
        b.iter(|| fold_hash(black_box(0xdead_beef_1234_5678), 16))
    });
}

fn bench_cache_and_dram(c: &mut Criterion) {
    let mut cache = Cache::new("llc", 1024 * 1024, 16);
    let mut i = 0u64;
    c.bench_function("sim/cache_access_miss_fill", |b| {
        b.iter(|| {
            i = i.wrapping_add(64);
            cache.access(black_box(i), false);
            cache.fill(i, false, false)
        })
    });
    // Hit path over a resident ring: the dominant probe in the engine's
    // hot loop (L1 hits are the bulk of every trace).
    let mut hit_cache = Cache::new("l1d", 64 * 1024, 12); // 85 sets: non-pow2 indexing
    for w in 0..128u64 {
        hit_cache.fill(0x10_0000 + w * 64, false, false);
    }
    let mut j = 0u64;
    c.bench_function("sim/cache_access_hit_85sets", |b| {
        b.iter(|| {
            j = (j + 1) % 128;
            black_box(hit_cache.access(0x10_0000 + j * 64, false))
        })
    });
    let mut dram = Dram::new(DramConfig::default());
    let mut block = 0u64;
    let mut cycle = 0u64;
    c.bench_function("sim/dram_access", |b| {
        b.iter(|| {
            block = block.wrapping_add(1);
            cycle += 4;
            dram.access(black_box(block), cycle)
        })
    });
}

fn bench_replay(c: &mut Criterion) {
    let mut replay = ReplayMemory::new(2000, 256, 4);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let mut assigned = Vec::new();
    let mut i = 0u64;
    c.bench_function("replay/push_access_cycle", |b| {
        b.iter(|| {
            i += 1;
            replay.on_access(black_box(i % 512), &mut assigned);
            let id = replay.push(&[0.1, 0.2, 0.3, 0.4], 0, &[i % 512 + 1]);
            replay.set_next_state(id, &[0.2, 0.3, 0.4, 0.5]);
        })
    });
    let mut ids = Vec::new();
    c.bench_function("replay/sample_batch32", |b| {
        b.iter(|| {
            replay.sample_into(32, &mut rng, &mut ids);
            black_box(ids.len())
        })
    });
}

fn bench_prefetchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefetcher_on_access");
    let mk: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        ("next_line", Box::new(NextLine::new(1))),
        ("stride", Box::new(StridePrefetcher::default())),
        ("bo", Box::new(BestOffset::new())),
        ("spp", Box::new(Spp::new())),
        ("isb", Box::new(Isb::new())),
        ("domino", Box::new(Domino::new())),
        ("vldp", Box::new(Vldp::new())),
    ];
    for (name, mut pf) in mk {
        let mut out = Vec::new();
        let mut i = 0u64;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                i += 1;
                // Mixed stream: mostly sequential with periodic jumps.
                let addr = if i.is_multiple_of(17) {
                    (i * 0x9E37) << 8
                } else {
                    0x10_0000 + i * 64
                };
                out.clear();
                pf.on_access(
                    &MemAccess::load(i, 0x400 + (i % 4) * 8, addr),
                    false,
                    &mut out,
                );
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    // Whole-engine throughput on a streaming workload, optimized vs seed
    // reference — the micro view of what perf_gate measures end to end.
    let mut group = c.benchmark_group("engine_run");
    group.sample_size(10);
    let cfg = SimConfig::harness();
    const N: usize = 20_000;
    group.bench_function("optimized_stream_20k", |b| {
        b.iter(|| {
            let mut e = Engine::new(cfg);
            let mut src = StreamGen::new(1, 4, 4096, 10);
            black_box(e.run(&mut src, None, 0, N))
        })
    });
    group.bench_function("reference_stream_20k", |b| {
        b.iter(|| {
            let mut e = ReferenceEngine::new(cfg);
            let mut src = StreamGen::new(1, 4, 4096, 10);
            black_box(e.run(&mut src, None, 0, N))
        })
    });
    // An irregular app stresses the MSHR/event-queue paths harder.
    group.bench_function("optimized_mcf_20k", |b| {
        b.iter(|| {
            let mut e = Engine::new(cfg);
            let mut src = app_by_name("429.mcf", 1).expect("app").source;
            black_box(e.run(&mut *src, None, 0, N))
        })
    });
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    // Full ensemble controllers on the engine: the per-access cost of the
    // RL machinery (bank observation + inference + replay + training).
    let mut group = c.benchmark_group("ensemble_on_engine");
    group.sample_size(10);
    let cfg = SimConfig::harness();
    const N: usize = 10_000;
    for name in ["sbp_e", "resemble_t", "resemble"] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut e = Engine::new(cfg);
                let mut src = app_by_name("433.milc", 1).expect("app").source;
                let mut pf = factory::make(name, 1, true);
                black_box(e.run(&mut *src, Some(&mut *pf), 0, N))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mlp,
    bench_controller,
    bench_preprocess,
    bench_cache_and_dram,
    bench_replay,
    bench_prefetchers,
    bench_engine,
    bench_ensemble
);
criterion_main!(benches);
