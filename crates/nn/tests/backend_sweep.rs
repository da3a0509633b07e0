//! Backend-sweep bit-equality tests.
//!
//! For random and for hand-picked network shapes, batch sizes,
//! activations, out-grads and inputs, every SIMD backend available on
//! this host must produce byte-for-byte the same forward activations and
//! backward gradient sums as the scalar backend *and* as the per-sample
//! path (`Mlp::forward`/`Mlp::backward`, the datapath the batched kernels
//! are defined against) — the "bit-identical by construction" contract
//! of `resemble_nn::simd`. Backends whose ISA the CPU lacks are skipped
//! at runtime and logged once, so a green run on (say) a pre-AVX2 host is
//! visibly narrower rather than silently complete.
//!
//! The shapes reach past the controller's: batches beyond the 32-row
//! training batch and the 64-row staging tile of the scalar backend,
//! hidden layers spanning several 16-lane vectors plus tails, outputs
//! below, at and above one vector. Out-grads are either dense (`dL/dy =
//! y`) or one-hot like the DQN's TD error, and inputs carry exact `±0.0`
//! so every exact-zero skip is taken.

use proptest::prelude::*;
use resemble_nn::simd::{self, KernelBackend};
use resemble_nn::{Activation, Matrix, Mlp};
use std::sync::Once;

/// Log once which backends this host cannot run, so CI output shows the
/// sweep's actual coverage instead of silently passing a narrower test.
/// Iterates `KernelBackend::ALL` so a newly added tier is reported
/// without touching this test.
fn log_coverage() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let avail = simd::available();
        for be in KernelBackend::ALL {
            if !avail.contains(&be) {
                eprintln!("backend_sweep: SKIPPING {be} (not available on this host)");
            }
        }
        eprintln!("backend_sweep: comparing backends {avail:?}");
    });
}

/// How the backward pass's `dL/dy` rows are formed from the outputs.
#[derive(Debug, Clone, Copy)]
enum OutGrad {
    /// `L = 0.5 · Σ y²`, so `dL/dy = y`: every entry nonzero.
    Dense,
    /// One action per row (`row % width`), `dL/dy_a = y_a - 0.25`: the
    /// single-action TD error of the DQN.
    OneHot,
}

/// `dL/dy` for output row `r` holding `y`.
fn out_grad_row(y: &[f32], r: usize, mode: OutGrad) -> Vec<f32> {
    let a = r % y.len();
    match mode {
        OutGrad::Dense => y.to_vec(),
        OutGrad::OneHot => (0..y.len())
            .map(|c| if c == a { y[c] - 0.25 } else { 0.0 })
            .collect(),
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// One forward + backward minibatch pass under `backend`, returning the
/// raw bit patterns of the batched outputs and of the accumulated
/// gradient sums (flattened in parameter order).
fn batched(backend: KernelBackend, net: &Mlp, xs: &Matrix, mode: OutGrad) -> (Vec<u32>, Vec<u32>) {
    let _guard = simd::force(backend);
    let mut scratch = net.make_batch_scratch(xs.rows());
    let mut grads = net.make_grad_buffer();
    let out = net.forward_batch(xs, &mut scratch).clone();
    let mut og = Matrix::zeros(out.rows(), out.cols());
    for r in 0..out.rows() {
        og.row_mut(r)
            .copy_from_slice(&out_grad_row(out.row(r), r, mode));
    }
    net.backward_batch(&mut scratch, &og, &mut grads);
    (bits(out.as_slice()), bits(&grads.flat_sums()))
}

/// The same pass through the per-sample path, one row at a time.
fn per_sample(net: &Mlp, xs: &Matrix, mode: OutGrad) -> (Vec<u32>, Vec<u32>) {
    let mut scratch = net.make_scratch();
    let mut grads = net.make_grad_buffer();
    let width = net.output_dim();
    let mut out = Matrix::zeros(xs.rows(), width);
    for r in 0..xs.rows() {
        let y = net.forward(xs.row(r), &mut scratch);
        out.row_mut(r).copy_from_slice(y);
        let og = out_grad_row(y, r, mode);
        net.backward(&mut scratch, &og, &mut grads);
    }
    (bits(out.as_slice()), bits(&grads.flat_sums()))
}

/// Check every available backend against the per-sample path (which the
/// scalar backend, included in `available()`, must match as well).
fn check_all(sizes: &[usize], act: Activation, seed: u64, xs: &Matrix, mode: OutGrad) {
    log_coverage();
    let net = Mlp::new(sizes, act, seed);
    let reference = per_sample(&net, xs, mode);
    for &be in simd::available() {
        let got = batched(be, &net, xs, mode);
        let what = format!(
            "{be} vs per-sample ({sizes:?}, {act:?}, {mode:?}, batch {})",
            xs.rows()
        );
        assert_eq!(got.0, reference.0, "{what}: forward bits differ");
        assert_eq!(got.1, reference.1, "{what}: gradient bits differ");
    }
}

/// Inputs from `data`, with `zeros[i]` turning entry `i` into `+0.0`
/// (code 0) or `-0.0` (code 1).
fn inputs(batch: usize, dim: usize, data: &[f32], zeros: &[u8]) -> Matrix {
    Matrix::from_fn(batch, dim, |r, c| {
        let i = r * dim + c;
        match zeros[i % zeros.len()] {
            0 => 0.0,
            1 => -0.0,
            _ => data[i % data.len()],
        }
    })
}

const ACTS: [Activation; 4] = [
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Identity,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every available backend matches the per-sample path bitwise on
    /// forward and backward, across random shapes, batch sizes,
    /// activations, out-grad forms and signed-zero inputs.
    #[test]
    fn all_backends_match_per_sample_bitwise(
        input_dim in 1usize..20,
        hidden in 1usize..=130,
        output_dim in 1usize..=17,
        batch in 1usize..=70,
        act_sel in 0usize..4,
        one_hot in any::<bool>(),
        seed in any::<u64>(),
        data in prop_vec(-2.5f32..2.5, 20 * 70),
        zeros in prop_vec(0u8..8, 20 * 70),
    ) {
        let mode = if one_hot { OutGrad::OneHot } else { OutGrad::Dense };
        let xs = inputs(batch, input_dim, &data, &zeros);
        check_all(&[input_dim, hidden, output_dim], ACTS[act_sel], seed, &xs, mode);
    }
}

/// The controller's shapes and the edges around them, exhaustively:
/// batches around the 32-row training batch and the 64-row scalar tile,
/// hidden widths around whole 16-lane vectors, outputs around one vector.
#[test]
fn controller_shapes_match_per_sample_bitwise() {
    let shapes: [&[usize]; 6] = [
        &[4, 100, 5],
        &[5, 100, 6],
        &[4, 16, 16],
        &[3, 130, 17],
        &[4, 65, 1],
        &[4, 100, 50, 5],
    ];
    let data: Vec<f32> = (0..4096)
        .map(|i| ((i * 37 % 101) as f32 / 20.0) - 2.5)
        .collect();
    let zeros: Vec<u8> = (0..97).map(|i| (i * 7 % 9) as u8).collect();
    for sizes in shapes {
        for batch in [1, 31, 32, 33, 64, 65, 70] {
            let xs = inputs(batch, sizes[0], &data, &zeros);
            for (i, act) in ACTS.into_iter().enumerate() {
                for mode in [OutGrad::Dense, OutGrad::OneHot] {
                    check_all(sizes, act, 11 + i as u64, &xs, mode);
                }
            }
        }
    }
}
