//! Runtime-dispatched SIMD kernels for the batched controller datapath,
//! bit-identical across backends *by construction*.
//!
//! Every batched kernel in this crate funnels through this module. The
//! backend is chosen once at startup by `dispatched` via runtime
//! feature detection, overridable with
//! `RESEMBLE_SIMD={avx512,avx2,sse2,neon,scalar}`; tests and benches can
//! pin a backend per thread with `force`. Five backends implement each
//! kernel: AVX-512 (16-lane), AVX2 (8-lane) and SSE2 (4-lane) on x86-64,
//! NEON (4-lane) on aarch64, and the portable scalar tier.
//!
//! # The f32 training and inference kernels
//!
//! The controller trains a 4→100→5 MLP on minibatches of 32, so no
//! GEMM it runs is compute-bound: what costs is moving accumulators and
//! activations through memory. The three batched GEMMs are therefore
//! **register-tiled** on the vector tiers (`tile`):
//!
//! - **Forward** (`gemm_nt`): the weights are staged transposed with
//!   the output dimension zero-padded to 16-lane tiles, so the narrow
//!   100→5 layer is one vector of output lanes and the wide 4→100 layer
//!   seven. Four samples share each weight-tile load; each accumulator
//!   stays in a register for its whole `k` loop; the bias add and ReLU
//!   run on the registers before the only store.
//! - **Narrow-row weight gradient** (`outer_t`, the 100×4 input
//!   layer): the gradient is held transposed inside `GradBuffer`, so a
//!   span of 64 delta-dimension lanes accumulates over the whole batch in
//!   registers.
//! - **Backward step** (`backprop`): per sample, the output delta,
//!   the `Wᵀ·delta` propagation (one nonzero entry for a single-action TD
//!   error) and the ReLU mask of the layer below, fused into one pass.
//!
//! No kernel transposes a per-call activation or gradient. Each kernel
//! is written once as portable Rust over fixed-size accumulator arrays
//! and instantiated per tier by a thin `#[target_feature]` wrapper that
//! inlines it, so LLVM lowers the arrays to that tier's registers. The
//! **scalar tier** keeps the original staged sweeps over the unchanged
//! `scalar` kernels (`staged`): it is the yardstick the vector tiers
//! are measured and bit-checked against. The wide-row weight gradient,
//! bias-gradient row sums and the standalone ReLU keep their per-row
//! vector loops (`outer_rows_sample`, `sum_rows`, `relu`).
//!
//! # Bit-identity by construction
//!
//! The repo's determinism gates compare f32 results bitwise, so the
//! vector paths must produce *byte-identical* output to the scalar
//! tier and to the per-sample path — not merely close. That is
//! guaranteed structurally, never by tolerance:
//!
//! - **One accumulator per output element.** Vectorization is only
//!   across independent output elements / batch lanes; no per-element
//!   sum is ever split across vector lanes, so there are no horizontal
//!   reductions and no reassociation.
//! - **Inner dimension in ascending scalar order per lane.** Each lane
//!   walks `k = 0, 1, 2, …` from the same start value exactly like the
//!   scalar loop, with the same exact-zero skips.
//! - **Non-fused `mul` + `add` only.** No FMA anywhere (Rust never
//!   contracts `a + w * x` on its own, and no intrinsic asks for it), so
//!   each lane performs the same two IEEE-754 rounding steps as the
//!   scalar code, in the same operand order.
//! - **Padding never reaches a result.** Zero-padded weight lanes and
//!   lanes loaded past a row's end feed only outputs that are never
//!   kept (see [`tile`]).
//! - **Compares and selects are bit-exact.** ReLU clamps through
//!   `andnot(x < 0, x)` (or the scalar `if x < 0.0 { x = 0.0 }` the
//!   tiled kernels compile to a select) rather than `max(0, x)`,
//!   preserving `-0.0` and NaN exactly; derivative masks multiply by a
//!   selected `{0.0, 1.0}`, reproducing the scalar `d * 0.0` / `d * 1.0`
//!   including the sign of a `±0.0` result.
//!
//! Consequently every tier agrees bit-for-bit on every input, which the
//! backend-sweep tests (`crates/nn/tests/backend_sweep.rs`, against the
//! per-sample path) and this module's unit tests (against the scalar
//! tier) pin.
//!
//! # Int8 kernels: exactness, not order
//!
//! The int8 GEMM ([`gemm_i8_i32`]) obeys a *different* — and simpler —
//! determinism argument. Every product of two i8 values and every partial
//! sum fits an i32 exactly (|Σ| ≤ k·127², and the wrapper asserts `k ≤
//! 130_000` so that bound stays below `i32::MAX`), and exact integer
//! addition is associative, so *any* summation order — including the
//! horizontal reductions the float kernels must avoid — yields the same
//! i32. Backends therefore agree byte-for-byte by arithmetic exactness
//! rather than by matching accumulation order; the cross-backend sweep in
//! `crates/nn/tests/int8_sweep.rs` pins it. [`gemm_i8p_lanes`] applies
//! the same argument to the small-`k`, wide-`fan_out` layer shape (the
//! wide frozen controller's input layer): the weights are pre-staged as
//! i16 `(k, k+1)` pairs interleaved across outputs so one `madd` yields
//! eight exact i32 partial sums, and again any accumulation order gives
//! identical bytes.
//!
//! The elementwise int8 helpers ([`max_abs_f32`] and [`quantize_i8`])
//! are dispatched too, with a third determinism argument: `max` over a
//! set is order-free, and a per-element map has no accumulation at all —
//! every backend evaluates the identical IEEE expression per element
//! (multiply by the reciprocal scale, round half away from zero computed
//! as exact truncate-plus-fraction-compare, clamp, narrow). The one
//! caveat, documented on [`quantize_i8`], is non-finite input: scalar
//! Rust saturating casts and x86 `cvttps2dq` disagree on NaN/±inf, so
//! cross-backend identity is promised for finite inputs only. The
//! dequant/bias/activation epilogue stays in `quant.rs` as shared
//! non-dispatched code, so the full quantized forward pass inherits the
//! same guarantee.
//!
//! # VNNI dot-product forms
//!
//! On VNNI-capable hosts the int8 GEMMs upgrade themselves within their
//! tier — the [`KernelBackend`] stays `Avx512`/`Avx2`, [`capabilities`]
//! picks the instruction form:
//!
//! - `avx512_vnni` (EVEX): [`gemm_i8_i32`] uses `vpdpbusd` — one fused
//!   u8×i8 dot per 64 bytes, made signed-exact by the classic offset
//!   trick (`x + 128` via sign-bit XOR, then subtract `128·Σw`, with the
//!   correction's `Σw` recovered from a `vpsadbw` running sum). The
//!   accumulator lanes may wrap in i32, but all arithmetic is mod 2³²
//!   and the true dot is bounded by the wrapper's `k ≤ 130_000` assert,
//!   so the corrected result is the exact i32 — the same exactness
//!   argument as above, extended to modular form. [`gemm_i8p_lanes`]
//!   uses `vpdpwssd`, which fuses the `madd`+`add` pair-sum step into
//!   one instruction with identical i32 results.
//! - `avx_vnni` (VEX, 256-bit): the same `vpdpwssd` fusion at AVX2
//!   width (`_mm256_dpwssd_avx_epi32`) for hosts with VNNI but no
//!   AVX-512 state.
//!
//! Because every form computes the identical exact i32s, VNNI needs no
//! new byte-equality argument — the existing int8 sweeps pin it.
//!
//! [`capabilities`] reports the feature bits backing this selection
//! (`avx512f`, `avx512bw`, `avx512-vnni`, `avx-vnni`, `neon`); the
//! `Avx512` tier requires `avx512f` *and* `avx512bw` (byte/word ops in
//! the int8 kernels), which every AVX-512 server core since Skylake-SP
//! provides.
//!
//! The `simd-outside-kernel` lint rule keeps all `std::arch` usage inside
//! this file; add new kernels here (see CONTRIBUTING.md).

use crate::activation::Activation;
use crate::align::AlignedVec;
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Environment variable that overrides backend selection
/// (`avx2`/`sse2`/`scalar`); unavailable or unknown values fall back to
/// the best detected backend with a warning on stderr.
pub const BACKEND_ENV: &str = "RESEMBLE_SIMD";

/// A kernel implementation the dispatcher can route to.
///
/// Safety invariant: non-`Scalar` values are only handed to the kernel
/// wrappers after the corresponding ISA was confirmed present —
/// [`dispatched`] detects before selecting, [`force`] asserts
/// [`KernelBackend::is_available`], and [`available`] lists only detected
/// backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// 16-lane f32 vectors via AVX-512F intrinsics (int8 kernels also
    /// need AVX-512BW, so availability requires both).
    Avx512,
    /// 8-lane f32 vectors via AVX2 intrinsics.
    Avx2,
    /// 4-lane f32 vectors via SSE2 intrinsics (x86-64 baseline).
    Sse2,
    /// 4-lane f32 vectors via NEON intrinsics (aarch64 baseline).
    Neon,
    /// The portable scalar fallback (always available).
    Scalar,
}

impl KernelBackend {
    /// Every backend the crate knows, widest first, scalar last. Names
    /// parse on every architecture (so `RESEMBLE_SIMD=neon` on x86 warns
    /// and clamps rather than reading as a typo); availability is what
    /// gates actual dispatch. Tests iterate this to log skipped ISAs.
    pub const ALL: [KernelBackend; 5] = [
        KernelBackend::Avx512,
        KernelBackend::Avx2,
        KernelBackend::Sse2,
        KernelBackend::Neon,
        KernelBackend::Scalar,
    ];

    /// Stable lowercase name, as accepted by [`BACKEND_ENV`] and reported
    /// in benchmark/telemetry output.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Neon => "neon",
            KernelBackend::Scalar => "scalar",
        }
    }

    /// Parse a [`KernelBackend::name`] string (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        Self::ALL
            .into_iter()
            .find(|b| s.eq_ignore_ascii_case(b.name()))
    }

    /// Whether this backend's ISA is present on the current host.
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            _ => false,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best backend the host supports, ignoring the environment override:
/// the first available entry of [`KernelBackend::ALL`] (widest first).
fn detect_best() -> KernelBackend {
    KernelBackend::ALL
        .into_iter()
        .find(|b| b.is_available())
        .unwrap_or(KernelBackend::Scalar)
}

/// All backends available on this host, best first (scalar is always
/// last). Use this to sweep backends in tests and benchmarks.
pub fn available() -> &'static [KernelBackend] {
    static LIST: OnceLock<Vec<KernelBackend>> = OnceLock::new();
    LIST.get_or_init(|| {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    })
}

/// The process-wide backend, chosen once on first use: the best detected
/// ISA, unless [`BACKEND_ENV`] requests another *available* backend.
pub fn dispatched() -> KernelBackend {
    static CHOSEN: OnceLock<KernelBackend> = OnceLock::new();
    *CHOSEN.get_or_init(|| {
        let best = detect_best();
        let Ok(req) = std::env::var(BACKEND_ENV) else {
            return best;
        };
        match KernelBackend::parse(&req) {
            Some(b) if b.is_available() => b,
            Some(b) => {
                eprintln!(
                    "resemble-nn: {BACKEND_ENV}={} is not available on this host \
                     (detected features: {}); using {}",
                    b.name(),
                    capabilities().summary(),
                    best.name()
                );
                best
            }
            None => {
                let expected = KernelBackend::ALL.map(KernelBackend::name).join("|");
                eprintln!(
                    "resemble-nn: unrecognized {BACKEND_ENV} value {req:?} \
                     (expected {expected}); using {}",
                    best.name()
                );
                best
            }
        }
    })
}

/// CPU feature bits backing kernel-lane selection, detected once per
/// process. The `Avx512` tier gates on `avx512f && avx512bw`; within a
/// tier the int8 GEMMs pick their VNNI instruction form from
/// `avx512_vnni`/`avx_vnni` (see the module docs). Telemetry and
/// benchmark reports echo [`CpuCaps::summary`] so skipped metrics can
/// name what the host lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCaps {
    /// Baseline 128-bit SIMD (architecturally guaranteed on x86-64).
    pub sse2: bool,
    /// 256-bit integer/float SIMD.
    pub avx2: bool,
    /// AVX-512 foundation, including the OS having enabled zmm state
    /// (XCR0 opmask/zmm bits) — false if the CPU has it but the OS
    /// doesn't save the registers.
    pub avx512f: bool,
    /// AVX-512 byte/word instructions — required alongside `avx512f` for
    /// the `Avx512` tier's int8 kernels (sign-extends, `vpsadbw`).
    pub avx512bw: bool,
    /// AVX-512 VNNI int8 dot-product instructions (`vpdpbusd`/`vpdpwssd`
    /// in EVEX form); implies usable AVX-512 state.
    pub avx512_vnni: bool,
    /// AVX-VNNI: the VEX-encoded (256-bit) dot-product subset, for CPUs
    /// with VNNI but without full AVX-512.
    pub avx_vnni: bool,
    /// aarch64 Advanced SIMD (architecturally baseline on aarch64).
    pub neon: bool,
}

impl CpuCaps {
    /// Space-separated list of the detected feature names, stable order,
    /// `"none"` when nothing beyond portable scalar is present — for
    /// telemetry snapshots and benchmark reports.
    pub fn summary(self) -> String {
        let mut names = Vec::new();
        if self.sse2 {
            names.push("sse2");
        }
        if self.avx2 {
            names.push("avx2");
        }
        if self.avx512f {
            names.push("avx512f");
        }
        if self.avx512bw {
            names.push("avx512bw");
        }
        if self.avx512_vnni {
            names.push("avx512-vnni");
        }
        if self.avx_vnni {
            names.push("avx-vnni");
        }
        if self.neon {
            names.push("neon");
        }
        if names.is_empty() {
            "none".to_owned()
        } else {
            names.join(" ")
        }
    }
}

/// The host's CPU feature bits, detected once (see [`CpuCaps`]).
pub fn capabilities() -> CpuCaps {
    static CAPS: OnceLock<CpuCaps> = OnceLock::new();
    *CAPS.get_or_init(detect_caps)
}

#[cfg(target_arch = "x86_64")]
fn detect_caps() -> CpuCaps {
    use core::arch::x86_64::{__cpuid, __cpuid_count, _xgetbv};

    /// `xgetbv(0)` reads XCR0, the OS-enabled extended-state mask.
    ///
    /// SAFETY: caller only invokes this after CPUID leaf 1 ECX reports
    /// both XSAVE (bit 26) and OSXSAVE (bit 27) — OSXSAVE set means the
    /// OS enabled CR4.OSXSAVE, which architecturally makes XGETBV(0)
    /// legal.
    #[target_feature(enable = "xsave")]
    unsafe fn xcr0() -> u64 {
        // SAFETY: target_feature-only unsafety; the caller contract above
        // guarantees the instruction is enabled.
        unsafe { _xgetbv(0) }
    }

    // CPUID leaf 0 is valid on every x86-64 CPU (the ISA guarantees the
    // instruction, leaf 0 reports the max leaf) and the intrinsic is safe
    // on this target; leaf 1 predates the 64-bit ISA.
    let max_leaf = __cpuid(0).eax;
    let leaf1 = __cpuid(1);
    let osxsave = leaf1.ecx & (1 << 26) != 0 && leaf1.ecx & (1 << 27) != 0;
    // SAFETY: xcr0() is guarded on XSAVE+OSXSAVE per its contract.
    let xcr0 = if osxsave { unsafe { xcr0() } } else { 0 };
    // AVX needs xmm+ymm state (XCR0 bits 1-2); AVX-512 additionally needs
    // opmask+zmm state (bits 5-7).
    let os_avx = xcr0 & 0x6 == 0x6;
    let os_avx512 = os_avx && xcr0 & 0xe0 == 0xe0;

    let (l7_0, l7_max_sub) = if max_leaf >= 7 {
        // Guarded on max_leaf >= 7, so leaf 7 subleaf 0 is valid.
        let r = __cpuid_count(7, 0);
        (Some(r), r.eax)
    } else {
        (None, 0)
    };
    let l7_1 = if max_leaf >= 7 && l7_max_sub >= 1 {
        // Guarded on leaf 7 existing and its EAX (max subleaf) covering
        // subleaf 1.
        Some(__cpuid_count(7, 1))
    } else {
        None
    };

    let ebx7 = l7_0.map_or(0, |r| r.ebx);
    let ecx7 = l7_0.map_or(0, |r| r.ecx);
    let eax7_1 = l7_1.map_or(0, |r| r.eax);
    CpuCaps {
        sse2: std::arch::is_x86_feature_detected!("sse2"),
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        avx512f: os_avx512 && ebx7 & (1 << 16) != 0,
        avx512bw: os_avx512 && ebx7 & (1 << 30) != 0,
        avx512_vnni: os_avx512 && ecx7 & (1 << 11) != 0,
        avx_vnni: os_avx && eax7_1 & (1 << 4) != 0,
        neon: false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_caps() -> CpuCaps {
    CpuCaps {
        sse2: false,
        avx2: false,
        avx512f: false,
        avx512bw: false,
        avx512_vnni: false,
        avx_vnni: false,
        #[cfg(target_arch = "aarch64")]
        neon: std::arch::is_aarch64_feature_detected!("neon"),
        #[cfg(not(target_arch = "aarch64"))]
        neon: false,
    }
}

thread_local! {
    static FORCED: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// The backend the kernels on this thread currently use: the innermost
/// [`force`] override, or else the process-wide [`dispatched`] choice.
/// Never panics.
pub fn active() -> KernelBackend {
    FORCED.with(Cell::get).unwrap_or_else(dispatched)
}

/// Pin `backend` as this thread's active backend until the returned
/// guard drops (restoring the previous state). Panics if the backend is
/// not available on this host — the availability check is what keeps the
/// unsafe ISA dispatch sound.
#[must_use = "the override ends when the guard is dropped"]
pub fn force(backend: KernelBackend) -> BackendGuard {
    assert!(
        backend.is_available(),
        "kernel backend {} is not available on this host",
        backend.name()
    );
    let prev = FORCED.with(|f| f.replace(Some(backend)));
    BackendGuard { prev }
}

/// RAII guard returned by [`force`]; restores the previous per-thread
/// backend override on drop.
pub struct BackendGuard {
    prev: Option<KernelBackend>,
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        FORCED.with(|f| f.set(prev));
    }
}

/// Route one kernel call to the backend's implementation. The second
/// form names the scalar-tier function explicitly, for entry points whose
/// scalar tier lives outside [`scalar`] (see [`staged`]).
///
/// SAFETY: the vector arms call `#[target_feature]` functions; this is
/// sound because of the module invariant that those variants only reach
/// the wrappers after runtime detection (see [`KernelBackend`]).
macro_rules! dispatch {
    ($be:expr, $name:ident ( $($arg:expr),* $(,)? )) => {
        dispatch!($be, $name($($arg),*) else scalar::$name)
    };
    ($be:expr, $name:ident ( $($arg:expr),* $(,)? ) else $fallback:path) => {
        match $be {
            // SAFETY: this arm is reached only when runtime detection
            // produced `Avx512` (module invariant — see `KernelBackend`),
            // so the target_feature fn's CPU requirement holds.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => unsafe { avx512::$name($($arg),*) },
            // SAFETY: this arm is reached only when runtime detection
            // produced `Avx2` (module invariant — see `KernelBackend`),
            // so the target_feature fn's CPU requirement holds.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => unsafe { avx2::$name($($arg),*) },
            // SAFETY: `Sse2` is only constructed on x86_64, where SSE2 is
            // architecturally guaranteed.
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Sse2 => unsafe { sse2::$name($($arg),*) },
            // SAFETY: `Neon` is only constructed after runtime detection
            // on aarch64, where NEON is architecturally baseline.
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => unsafe { neon::$name($($arg),*) },
            _ => $fallback($($arg),*),
        }
    };
}

/// A dense layer's epilogue: `(bias, f)` turning each GEMM output `y`
/// into `f(y + bias[o])`.
pub(crate) type Epilogue<'a> = (&'a [f32], Activation);

/// Minibatch forward GEMM `ys = xs · wᵀ`: `ys[s·r + o] = Σ_k w[o·c + k] ·
/// xs[s·c + k]` with `k` ascending from `+0.0` per element — the
/// accumulation of `Matrix::matvec_into`, for every sample row — then,
/// with an `epi`logue, `f(ys + bias)`: the bias add and activation of
/// `Mlp::forward`. `c` is the inner dimension (> 0); `r = w.len() / c`.
/// The vector tiers stage the weights zero-padded and transposed, keep
/// every accumulator in a register for its whole `k` loop and apply the
/// epilogue before the only store ([`tile::gemm_nt`]).
pub(crate) fn gemm_nt(
    be: KernelBackend,
    ys: &mut [f32],
    w: &[f32],
    xs: &[f32],
    c: usize,
    epi: Option<Epilogue<'_>>,
) {
    thread_local! {
        static STAGE: RefCell<AlignedVec> = const { RefCell::new(AlignedVec::new()) };
    }
    STAGE.with(|stage| {
        // Steady-state callers pay no allocation.
        let stage = &mut *stage.borrow_mut();
        dispatch!(be, gemm_nt(ys, w, xs, c, epi, stage) else staged::gemm_nt)
    });
}

/// Narrow-row minibatch gradient `dwt[j·r + i] += Σ_s alpha · b[s·c + j]
/// · a[s·r + i]` into a gradient held *transposed* (`c` rows of `r`),
/// each element receiving its contributions in sample order with the
/// exact-zero `b` skip — per sample, the arithmetic of
/// [`scalar::outer_lanes_sample`]. `c` (> 0) is the width of `b`'s rows.
pub(crate) fn outer_t(
    be: KernelBackend,
    dwt: &mut [f32],
    a: &[f32],
    b: &[f32],
    alpha: f32,
    c: usize,
) {
    dispatch!(be, outer_t(dwt, a, b, alpha, c) else staged::outer_t)
}

/// The output-layer delta of a backward pass: `(dL/dy, y, f)` feeding
/// `delta = dL/dy · f'(y)`.
pub(crate) type Head<'a> = (&'a [f32], &'a [f32], Activation);

/// The chain-rule mask of the layer below: `(y, f)` feeding `prev *=
/// f'(y)`.
pub(crate) type Mask<'a> = (&'a [f32], Activation);

/// `delta = dL/dy · f'(y)` elementwise (any number of rows) — the
/// output-layer delta of both the per-sample and the batched backward.
pub(crate) fn head_delta(delta: &mut [f32], og: &[f32], y: &[f32], act: Activation) {
    for (d, (&g, &yv)) in delta.iter_mut().zip(og.iter().zip(y)) {
        *d = g * act.derivative_from_output(yv);
    }
}

/// One backward step of a dense layer for a whole minibatch, fused per
/// sample: when `head` is given, first write this layer's output delta
/// ([`head_delta`]); then propagate `prev[s·c + j] = Σ_i w[i·c + j] ·
/// delta[s·r + i]` (`i` ascending from `+0.0`, exact-zero `delta` skip —
/// [`scalar::matvec_t_sample`]) and apply the layer below's `mask` (the
/// `mask` kernels' expressions). `c` (> 0) is the width of `prev`'s rows.
pub(crate) fn backprop(
    be: KernelBackend,
    prev: &mut [f32],
    w: &[f32],
    delta: &mut [f32],
    head: Option<Head<'_>>,
    mask: Option<Mask<'_>>,
    c: usize,
) {
    thread_local! {
        static STAGE: RefCell<AlignedVec> = const { RefCell::new(AlignedVec::new()) };
    }
    STAGE.with(|stage| {
        let stage = &mut *stage.borrow_mut();
        dispatch!(be, backprop(prev, w, delta, head, mask, c, stage) else staged::backprop)
    });
}

/// One sample of `dw += alpha · a ⊗ b`, row-major with the exact-zero
/// delta skip — the body of `Matrix::add_outer`.
pub(crate) fn outer_rows_sample(
    be: KernelBackend,
    dw: &mut [f32],
    a_row: &[f32],
    b_row: &[f32],
    alpha: f32,
) {
    dispatch!(be, outer_rows_sample(dw, a_row, b_row, alpha));
}

/// `acc[i] += Σ_s rows[s·n + i]`, sample-major — the batched
/// bias-gradient column sums, accumulating each element in sample order.
pub(crate) fn sum_rows(be: KernelBackend, acc: &mut [f32], rows: &[f32]) {
    dispatch!(be, sum_rows(acc, rows));
}

/// In-place ReLU over a flat batch: `x = if x < 0.0 { 0.0 } else { x }`,
/// preserving `-0.0` and NaN exactly like the scalar clamp.
pub(crate) fn relu(be: KernelBackend, xs: &mut [f32]) {
    dispatch!(be, relu(xs));
}

/// Int8 GEMM with exact i32 accumulation: `acc[r·cols + c] = Σ_k
/// x[r·k_dim + k] · w[c·k_dim + k]` where `rows = x.len() / k_dim` and
/// `cols = w.len() / k_dim` (both operands row-major with the shared
/// inner dimension contiguous — `w` rows are output neurons).
///
/// Bit-identity across backends holds by *exactness*, not order: with
/// inputs in `[-127, 127]` and `k_dim ≤ 130_000` (asserted), every
/// partial sum fits an i32 exactly and integer addition is associative,
/// so the vector lanes may reduce horizontally and still match the
/// scalar reference byte-for-byte (see the module docs).
pub(crate) fn gemm_i8_i32(be: KernelBackend, acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
    assert!(
        k_dim <= 130_000,
        "gemm_i8_i32: k_dim {k_dim} exceeds the exact-i32 headroom (k·127² must stay below i32::MAX)"
    );
    if k_dim == 0 {
        acc.fill(0);
        return;
    }
    assert!(
        x.len().is_multiple_of(k_dim) && w.len().is_multiple_of(k_dim),
        "gemm_i8_i32: operand lengths {}/{} not multiples of k_dim {k_dim}",
        x.len(),
        w.len()
    );
    assert_eq!(
        acc.len(),
        (x.len() / k_dim) * (w.len() / k_dim),
        "gemm_i8_i32: acc length mismatch"
    );
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`); the VNNI form additionally gates on the
        // detected `avx512_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe {
            if capabilities().avx512_vnni {
                i8x86::avx512vnni_gemm_i8_i32(acc, x, w, k_dim)
            } else {
                i8x86::avx512_gemm_i8_i32(acc, x, w, k_dim)
            }
        },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`), so the
        // target_feature fn's CPU requirement holds; the VEX-VNNI form
        // additionally gates on the detected `avx_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe {
            if capabilities().avx_vnni {
                i8x86::avxvnni_gemm_i8_i32(acc, x, w, k_dim)
            } else {
                i8x86::avx2_gemm_i8_i32(acc, x, w, k_dim)
            }
        },
        // SAFETY: `Sse2` is only constructed on x86_64, where SSE2 is
        // architecturally guaranteed.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => unsafe { i8x86::sse2_gemm_i8_i32(acc, x, w, k_dim) },
        // SAFETY: `Neon` is only constructed after runtime detection on
        // aarch64, where NEON is architecturally baseline.
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe { neon::neon_gemm_i8_i32(acc, x, w, k_dim) },
        _ => scalar::gemm_i8_i32(acc, x, w, k_dim),
    }
}

/// Pair-interleaved int8 matvec for small-`k`, wide-`fan_out` layers:
/// `acc[r] = Σ_p x0_p · wt[(p·fan_out + r)·2] + x1_p ·
/// wt[(p·fan_out + r)·2 + 1]`, overwriting `acc`.
///
/// `xpairs[p]` packs the quantized input pair `(x[2p], x[2p+1])` as two
/// little-endian i16 lanes of one i32 (see [`pack_i8_pairs`]); `wt` holds
/// the matching weight pairs interleaved across outputs so the vector
/// backends read eight consecutive outputs per 256-bit load and one
/// `madd` produces eight exact i32 pair-sums. Exactness, not order: each
/// i16·i16 pair-product sum is ≤ 2·127² and the wrapper bounds the pair
/// count, so any accumulation order matches the scalar reference
/// byte-for-byte.
pub(crate) fn gemm_i8p_lanes(
    be: KernelBackend,
    acc: &mut [i32],
    xpairs: &[i32],
    wt: &[i16],
    fan_out: usize,
) {
    assert!(
        xpairs.len() <= 65_000,
        "gemm_i8p_lanes: pair count {} exceeds the exact-i32 headroom",
        xpairs.len()
    );
    assert_eq!(acc.len(), fan_out, "gemm_i8p_lanes: acc length mismatch");
    assert_eq!(
        wt.len(),
        xpairs.len() * fan_out * 2,
        "gemm_i8p_lanes: weight layout mismatch"
    );
    if xpairs.is_empty() || fan_out == 0 {
        acc.fill(0);
        return;
    }
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`); the VNNI form additionally gates on the
        // detected `avx512_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe {
            if capabilities().avx512_vnni {
                i8x86::avx512vnni_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            } else {
                i8x86::avx512_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            }
        },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`), so the
        // target_feature fn's CPU requirement holds; the VEX-VNNI form
        // additionally gates on the detected `avx_vnni` capability bit.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe {
            if capabilities().avx_vnni {
                i8x86::avxvnni_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            } else {
                i8x86::avx2_gemm_i8p_lanes(acc, xpairs, wt, fan_out)
            }
        },
        // SAFETY: `Sse2` is only constructed on x86_64, where SSE2 is
        // architecturally guaranteed.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => unsafe { i8x86::sse2_gemm_i8p_lanes(acc, xpairs, wt, fan_out) },
        // SAFETY: `Neon` is only constructed after runtime detection on
        // aarch64, where NEON is architecturally baseline.
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe { neon::neon_gemm_i8p_lanes(acc, xpairs, wt, fan_out) },
        _ => scalar::gemm_i8p_lanes(acc, xpairs, wt, fan_out),
    }
}

/// Pack a quantized row into the little-endian i16-pair format
/// [`gemm_i8p_lanes`] consumes: `out[p]` holds `(x[2p], x[2p+1])` with an
/// implicit zero for the odd tail. Shared (non-dispatched) by
/// construction — it is pure bit shuffling.
pub(crate) fn pack_i8_pairs(x: &[i8], out: &mut Vec<i32>) {
    out.clear();
    let mut it = x.chunks_exact(2);
    for pair in &mut it {
        // lint:allow(lossy-cast): i16->u16 bit reinterpret packs the sign-extended lane
        let (l0, l1) = (i16::from(pair[0]) as u16, i16::from(pair[1]) as u16);
        out.push(i32::from(l0) | (i32::from(l1) << 16));
    }
    if let Some(&x0) = it.remainder().first() {
        // lint:allow(lossy-cast): i16->u16 bit reinterpret packs the sign-extended lane
        out.push(i32::from(i16::from(x0) as u16));
    }
}

/// Maximum absolute value of `x` (`0.0` when empty). `max` over a set is
/// order-free — every reduction tree yields the same f32 for finite
/// inputs — so the vector backends match the scalar fold byte-for-byte.
pub(crate) fn max_abs_f32(be: KernelBackend, x: &[f32]) -> f32 {
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { i8x86::avx512_max_abs_f32(x) },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe { i8x86::avx2_max_abs_f32(x) },
        // SAFETY: `Sse2` is only constructed on x86_64, where SSE2 is
        // architecturally guaranteed.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => unsafe { i8x86::sse2_max_abs_f32(x) },
        // SAFETY: `Neon` is only constructed after runtime detection on
        // aarch64, where NEON is architecturally baseline.
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe { neon::neon_max_abs_f32(x) },
        _ => scalar::max_abs_f32(x),
    }
}

/// Elementwise int8 quantization: `dst[i] =
/// clamp(round_half_away(src[i] · inv), -127, 127)` with round-half-away
/// computed as exact truncation plus a fraction compare (`t = trunc(x)`,
/// `r = x - t`, add ±1 when `|r| ≥ 0.5`) — both steps exact in f32 for
/// the `|x| ≲ 127` domain the reciprocal scale guarantees, so every
/// backend produces identical codes without needing a vector `round`.
///
/// Non-finite inputs are the one documented gap: Rust's saturating
/// float→int cast and x86 `cvttps2dq` disagree on NaN/±inf, so the
/// cross-backend byte-identity promise holds for finite `src` only
/// (callers in `quant.rs` derive `inv` from the same row, which keeps
/// finite rows in-domain).
pub(crate) fn quantize_i8(be: KernelBackend, src: &[f32], dst: &mut [i8], inv: f32) {
    assert_eq!(src.len(), dst.len(), "quantize_i8: length mismatch");
    match be {
        // SAFETY: `Avx512` only reaches the wrappers after runtime
        // detection of avx512f+avx512bw (module invariant — see
        // `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { i8x86::avx512_quantize_i8(src, dst, inv) },
        // SAFETY: `Avx2` only reaches the wrappers after runtime
        // detection (module invariant — see `KernelBackend`).
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => unsafe { i8x86::avx2_quantize_i8(src, dst, inv) },
        // SAFETY: `Sse2` is only constructed on x86_64, where SSE2 is
        // architecturally guaranteed.
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Sse2 => unsafe { i8x86::sse2_quantize_i8(src, dst, inv) },
        // SAFETY: `Neon` is only constructed after runtime detection on
        // aarch64, where NEON is architecturally baseline.
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe { neon::neon_quantize_i8(src, dst, inv) },
        _ => scalar::quantize_i8(src, dst, inv),
    }
}

/// The portable fallback: the original scalar kernels, moved here
/// verbatim from `matrix.rs`, `mlp.rs`, and `activation.rs`. These are
/// the reference semantics every vector backend must reproduce bitwise.
mod scalar {
    /// `acc[i] += w * xs[i]` over the overlapping prefix.
    ///
    /// Each lane is an independent accumulator, so vectorizing across `i`
    /// never reorders any per-element sum.
    #[inline]
    pub(super) fn axpy(acc: &mut [f32], xs: &[f32], w: f32) {
        for (a, &v) in acc.iter_mut().zip(xs) {
            *a += w * v;
        }
    }

    /// Two fused axpy passes: `acc[i] = (acc[i] + w0·x0[i]) + w1·x1[i]` —
    /// per element, the identical two sequential f32 adds of two [`axpy`]
    /// calls, with half the accumulator load/store traffic.
    #[inline]
    pub(super) fn axpy2(acc: &mut [f32], x0: &[f32], w0: f32, x1: &[f32], w1: f32) {
        for ((a, &v0), &v1) in acc.iter_mut().zip(x0).zip(x1) {
            *a = (*a + w0 * v0) + w1 * v1;
        }
    }

    /// See [`super::gemm_lanes`].
    ///
    /// `#[inline(never)]` is load-bearing here and on the helpers below:
    /// the staging buffers come from a thread-local `RefCell`, where the
    /// optimizer cannot prove disjointness and emits scalar code — and a
    /// plain `#[inline]` boundary is erased by MIR inlining before its
    /// noalias parameter guarantees reach codegen. A real call boundary
    /// keeps them, and the lane loops autovectorize.
    #[inline(never)]
    pub(super) fn gemm_lanes(acc: &mut [f32], wrow: &[f32], xt: &[f32]) {
        let tl = acc.len();
        if tl == 0 {
            return;
        }
        let mut ws = wrow.chunks_exact(2);
        let mut cols = xt.chunks_exact(2 * tl);
        for (wp, cp) in ws.by_ref().zip(cols.by_ref()) {
            let (c0, c1) = cp.split_at(tl);
            axpy2(acc, c0, wp[0], c1, wp[1]);
        }
        for (&w, col) in ws.remainder().iter().zip(cols.remainder().chunks_exact(tl)) {
            axpy(acc, col, w);
        }
    }

    /// See [`super::matvec_lanes`].
    #[inline(never)]
    pub(super) fn matvec_lanes(y: &mut [f32], wt: &[f32], x: &[f32]) {
        let r_dim = y.len();
        if r_dim == 0 {
            return;
        }
        y.fill(0.0);
        let mut xs = x.chunks_exact(2);
        let mut ws = wt.chunks_exact(2 * r_dim);
        for (xp, wp) in xs.by_ref().zip(ws.by_ref()) {
            let (w0, w1) = wp.split_at(r_dim);
            axpy2(y, w0, xp[0], w1, xp[1]);
        }
        for (&xv, wrow) in xs
            .remainder()
            .iter()
            .zip(ws.remainder().chunks_exact(r_dim))
        {
            axpy(y, wrow, xv);
        }
    }

    /// See [`super::matvec_t_sample`] — the loop body of
    /// `Matrix::matvec_transpose_into`, per sample.
    #[inline(never)]
    pub(super) fn matvec_t_sample(y: &mut [f32], w: &[f32], x: &[f32]) {
        y.fill(0.0);
        let cols = y.len();
        if cols == 0 {
            return;
        }
        for (&xv, row) in x.iter().zip(w.chunks_exact(cols)) {
            // lint:allow(float-eq): exact-zero sparsity skip; backprop deltas are assigned 0.0 exactly, and a false negative only costs speed
            if xv == 0.0 {
                continue;
            }
            for (yc, wv) in y.iter_mut().zip(row) {
                *yc += wv * xv;
            }
        }
    }

    /// See [`super::outer_rows_sample`].
    #[inline(never)]
    pub(super) fn outer_rows_sample(dw: &mut [f32], a_row: &[f32], b_row: &[f32], alpha: f32) {
        let cols = b_row.len();
        if cols == 0 {
            return;
        }
        for (&av, row) in a_row.iter().zip(dw.chunks_exact_mut(cols)) {
            // lint:allow(float-eq): exact-zero sparsity skip; ReLU masks and single-action TD errors assign 0.0 exactly, and a false negative only costs speed
            if av == 0.0 {
                continue;
            }
            axpy(row, b_row, alpha * av);
        }
    }

    /// See [`super::outer_lanes_sample`]. Bit-identity of the transposed
    /// store layout and the moved sparsity skip: element `(r, c)`
    /// receives the identical f32 add sequence as the row-major form —
    /// one contribution per sample in sample order; where it is *stored*
    /// during accumulation does not change rounding, and skipped/added
    /// `±0.0` products of finite operands satisfy `x + ±0.0 == x` bitwise
    /// for every `x` an accumulation starting at `+0.0` can reach.
    #[inline(never)]
    pub(super) fn outer_lanes_sample(dwt: &mut [f32], a_row: &[f32], b_row: &[f32], alpha: f32) {
        let rows = a_row.len();
        if rows == 0 {
            return;
        }
        for (&bv, drow) in b_row.iter().zip(dwt.chunks_exact_mut(rows)) {
            // lint:allow(float-eq): exact-zero sparsity skip, proven bit-identical above
            if bv == 0.0 {
                continue;
            }
            axpy(drow, a_row, alpha * bv);
        }
    }

    /// See [`super::add_bias_rows`].
    #[inline(never)]
    pub(super) fn add_bias_rows(out: &mut [f32], bias: &[f32]) {
        if bias.is_empty() {
            return;
        }
        for row in out.chunks_exact_mut(bias.len()) {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }

    /// See [`super::sum_rows`].
    #[inline(never)]
    pub(super) fn sum_rows(acc: &mut [f32], rows: &[f32]) {
        if acc.is_empty() {
            return;
        }
        for row in rows.chunks_exact(acc.len()) {
            for (g, &d) in acc.iter_mut().zip(row) {
                *g += d;
            }
        }
    }

    /// See [`super::relu`] — the `Activation::Relu` clamp over a flat
    /// batch.
    #[inline(never)]
    pub(super) fn relu(xs: &mut [f32]) {
        for x in xs {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// See [`super::relu_mask`]. The select-then-multiply form compiles
    /// branchless, and `d * 0.0 = ±0.0` keeps `d`'s sign exactly like
    /// the per-sample chain rule.
    #[inline(never)]
    pub(super) fn relu_mask(deltas: &mut [f32], ys: &[f32]) {
        for (d, &y) in deltas.iter_mut().zip(ys) {
            *d *= if y > 0.0 { 1.0 } else { 0.0 };
        }
    }

    /// See [`super::tanh_mask`].
    #[inline(never)]
    pub(super) fn tanh_mask(deltas: &mut [f32], ys: &[f32]) {
        for (d, &y) in deltas.iter_mut().zip(ys) {
            *d *= 1.0 - y * y;
        }
    }

    /// See [`super::sigmoid_mask`].
    #[inline(never)]
    pub(super) fn sigmoid_mask(deltas: &mut [f32], ys: &[f32]) {
        for (d, &y) in deltas.iter_mut().zip(ys) {
            *d *= y * (1.0 - y);
        }
    }

    /// See [`super::gemm_i8_i32`] — the exact-i32 reference. Widening
    /// through `i32::from` (infallible), no `as` casts.
    #[inline(never)]
    pub(super) fn gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let mut s = 0i32;
                for (&xv, &wv) in xrow.iter().zip(wrow) {
                    s += i32::from(xv) * i32::from(wv);
                }
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// See [`super::gemm_i8p_lanes`] — the exact-i32 reference over the
    /// pair-interleaved layout. Unpacks each packed i32 back into its two
    /// i16 lanes with infallible conversions.
    #[inline(never)]
    pub(super) fn gemm_i8p_lanes(acc: &mut [i32], xpairs: &[i32], wt: &[i16], fan_out: usize) {
        acc.fill(0);
        for (p, &xp) in xpairs.iter().enumerate() {
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x0 = i32::from((xp & 0xFFFF) as u16 as i16);
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x1 = i32::from((xp >> 16) as u16 as i16);
            let row = &wt[p * fan_out * 2..(p + 1) * fan_out * 2];
            for (slot, wp) in acc.iter_mut().zip(row.chunks_exact(2)) {
                *slot += x0 * i32::from(wp[0]) + x1 * i32::from(wp[1]);
            }
        }
    }

    /// See [`super::max_abs_f32`].
    #[inline(never)]
    pub(super) fn max_abs_f32(x: &[f32]) -> f32 {
        let mut m = 0.0f32;
        for &v in x {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// One element of [`super::quantize_i8`]: truncate, compare the exact
    /// fraction against ±0.5, clamp. Shared with the vector remainder
    /// loops so tails are identical by construction.
    #[inline]
    pub(super) fn quantize_one_i8(v: f32, inv: f32) -> i8 {
        let x = v * inv;
        // lint:allow(lossy-cast): saturating truncation is the documented rounding primitive
        let t = x as i32;
        let r = x - t as f32;
        let q = t + i32::from(r >= 0.5) - i32::from(r <= -0.5);
        // lint:allow(lossy-cast): clamped to the i8 range on the previous step
        q.clamp(-127, 127) as i8
    }

    /// See [`super::quantize_i8`].
    #[inline(never)]
    pub(super) fn quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = quantize_one_i8(v, inv);
        }
    }
}

/// The scalar tier of the register-tiled entry points: the original
/// staged sweeps over the unchanged [`scalar`] kernels. They are the
/// yardstick the vector tiers are measured and bit-checked against, so
/// they keep the per-call transposed stages the vector tiers avoid.
mod staged {
    use super::{head_delta, scalar, Epilogue, Head, Mask};
    use crate::activation::Activation;
    use crate::align::AlignedVec;

    /// See [`super::gemm_nt`]. Wide outputs (`r ≥ 16`) stage the weights
    /// transposed and sweep each sample output-major; narrow outputs
    /// stage the inputs transposed in 64-row tiles and sweep
    /// batch-lane-major, the batch itself being the vector. The epilogue
    /// is one bias sweep and one activation sweep.
    pub(super) fn gemm_nt(
        ys: &mut [f32],
        w: &[f32],
        xs: &[f32],
        c: usize,
        epi: Option<Epilogue<'_>>,
        buf: &mut AlignedVec,
    ) {
        gemm(ys, w, xs, c, buf);
        if let Some((bias, act)) = epi {
            scalar::add_bias_rows(ys, bias);
            match act {
                Activation::Relu => scalar::relu(ys),
                _ => act.apply(ys),
            }
        }
    }

    fn gemm(ys: &mut [f32], w: &[f32], xs: &[f32], c: usize, buf: &mut AlignedVec) {
        const TILE: usize = 64;
        const WIDE_OUT: usize = 16;
        let (r_dim, batch) = (w.len() / c, xs.len() / c);
        if r_dim >= WIDE_OUT {
            // wt[k][r] = w[r][k], staged once per call.
            buf.clear();
            buf.resize(c * r_dim, 0.0);
            for (r, row) in w.chunks_exact(c).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    buf[k * r_dim + r] = v;
                }
            }
            for (xrow, yrow) in xs.chunks_exact(c).zip(ys.chunks_exact_mut(r_dim)) {
                scalar::matvec_lanes(yrow, buf, xrow);
            }
            return;
        }
        let mut acc = [0.0f32; TILE];
        let mut t0 = 0;
        while t0 < batch {
            let tl = TILE.min(batch - t0);
            // xt[k][b] = xs[t0 + b][k] within the tile.
            buf.clear();
            buf.resize(c * tl, 0.0);
            for b in 0..tl {
                let row = &xs[(t0 + b) * c..(t0 + b + 1) * c];
                for (k, &v) in row.iter().enumerate() {
                    buf[k * tl + b] = v;
                }
            }
            for (r, wrow) in w.chunks_exact(c).enumerate() {
                let acc = &mut acc[..tl];
                acc.fill(0.0);
                scalar::gemm_lanes(acc, wrow, &buf[..c * tl]);
                for (b, &a) in acc.iter().enumerate() {
                    ys[(t0 + b) * r_dim + r] = a;
                }
            }
            t0 += tl;
        }
    }

    /// See [`super::outer_t`]: one [`scalar::outer_lanes_sample`] per
    /// sample.
    pub(super) fn outer_t(dwt: &mut [f32], a: &[f32], b: &[f32], alpha: f32, c: usize) {
        let r_dim = dwt.len() / c;
        if r_dim == 0 {
            return;
        }
        for (a_row, b_row) in a.chunks_exact(r_dim).zip(b.chunks_exact(c)) {
            scalar::outer_lanes_sample(dwt, a_row, b_row, alpha);
        }
    }

    /// See [`super::backprop`]: the head delta over the whole batch, one
    /// [`scalar::matvec_t_sample`] per sample, then one mask sweep.
    pub(super) fn backprop(
        prev: &mut [f32],
        w: &[f32],
        delta: &mut [f32],
        head: Option<Head<'_>>,
        mask: Option<Mask<'_>>,
        c: usize,
        _stage: &mut AlignedVec,
    ) {
        if let Some((og, y, act)) = head {
            head_delta(delta, og, y, act);
        }
        let r_dim = w.len() / c;
        if r_dim == 0 {
            prev.fill(0.0);
        } else {
            for (y, x) in prev.chunks_exact_mut(c).zip(delta.chunks_exact(r_dim)) {
                scalar::matvec_t_sample(y, w, x);
            }
        }
        match mask {
            Some((ys, Activation::Relu)) => scalar::relu_mask(prev, ys),
            Some((ys, Activation::Tanh)) => scalar::tanh_mask(prev, ys),
            Some((ys, Activation::Sigmoid)) => scalar::sigmoid_mask(prev, ys),
            Some((_, Activation::Identity)) | None => {}
        }
    }
}

/// Register-tiled f32 kernels, written once as portable Rust over
/// fixed-size accumulator arrays and instantiated per vector tier: each
/// kernel set's thin `#[target_feature]` wrapper inlines these bodies,
/// so LLVM lowers every `[f32; LANES]` tile to that tier's registers
/// (one zmm, two ymm, or four xmm/NEON q registers).
///
/// Every output element owns one accumulator lane that stays in a
/// register for its whole inner-dimension loop, several tiles or samples
/// are in flight per loop, and no kernel transposes a per-call activation
/// or gradient. Per element the arithmetic is the scalar tier's: inner
/// index ascending from the same start, separate `*` then `+` in the
/// same operand order, the same exact-zero skips, the same mask
/// expressions.
///
/// Rows are rarely a whole number of tiles (the hidden layer is 100
/// wide), so tiles are addressed in whole matrices:
///
/// - A **load** that runs past a row's end reads the start of the next
///   row. Those lanes belong to outputs past the row's end; they are
///   computed and never kept.
/// - A **store** into a write-only output ([`gemm_nt`], [`backprop`])
///   writes the whole tile, spilling junk lanes into the start of the
///   next row, and the kernels order their stores so that the next
///   row's own tiles overwrite that junk afterwards: each row's tiles go
///   out after those of every earlier row, and [`gemm_nt`] stores a
///   block's tiles from the last to the first. Accumulated gradients
///   ([`outer_t`]) are read back, so their stores stop at the row's end.
/// - Only rows whose tiles reach past the end of the whole matrix take
///   the clipped accessors (`CLIP = true`: zero-filled loads, clipped
///   stores, out of line); every other access is a plain vector move.
mod tile {
    use super::{head_delta, Epilogue, Head, Mask};
    use crate::activation::Activation;
    use crate::align::AlignedVec;

    /// Accumulator lanes per tile: one AVX-512 vector.
    const LANES: usize = 16;
    /// Tiles in flight along one row (gradients, backprop).
    const GROUP: usize = 4;
    /// Samples in flight per output tile (forward).
    const SAMPLES: usize = 4;
    /// Floats covered by one group of tiles.
    const SPAN: usize = GROUP * LANES;

    type Span = [f32; SPAN];

    /// `acc[l] += a · x[l]` over a span: the scalar kernels' `+= w * x`
    /// with the scalar operand first (gradient rows, `outer_t`).
    #[inline(always)]
    fn madd_sx(acc: &mut Span, a: f32, x: &Span) {
        for (acc, &xl) in acc.iter_mut().zip(x) {
            *acc += a * xl;
        }
    }

    /// `acc[l] += w[l] · x` over a span, the weight operand first
    /// (`matvec_t_sample`'s `*yc += wv * xv`).
    #[inline(always)]
    fn madd_xs(acc: &mut Span, w: &Span, x: f32) {
        for (acc, &wl) in acc.iter_mut().zip(w) {
            *acc += wl * x;
        }
    }

    /// `src[off..off + N]` as an array; with `CLIP`, copied into `pad`
    /// and zero past the end of `src`.
    #[inline(always)]
    fn read<'a, const N: usize, const CLIP: bool>(
        src: &'a [f32],
        off: usize,
        pad: &'a mut [f32; N],
    ) -> &'a [f32; N] {
        if CLIP {
            read_clipped(src, off, pad);
            return pad;
        }
        match <&[f32; N]>::try_from(&src[off..off + N]) {
            Ok(full) => full,
            Err(_) => pad,
        }
    }

    #[inline(never)]
    fn read_clipped(src: &[f32], off: usize, pad: &mut [f32]) {
        pad.fill(0.0);
        for (d, &v) in pad.iter_mut().zip(src.get(off..).unwrap_or_default()) {
            *d = v;
        }
    }

    /// `dst[off..off + N] = v`; with `CLIP`, only the part inside `dst`.
    #[inline(always)]
    fn write<const N: usize, const CLIP: bool>(dst: &mut [f32], off: usize, v: &[f32; N]) {
        if CLIP {
            write_clipped(dst, off, v);
        } else {
            dst[off..off + N].copy_from_slice(v);
        }
    }

    #[inline(never)]
    fn write_clipped(dst: &mut [f32], off: usize, v: &[f32]) {
        for (d, &x) in dst.get_mut(off..).unwrap_or_default().iter_mut().zip(v) {
            *d = x;
        }
    }

    /// Whether `reach` floats from `start` stay inside a matrix of `len`.
    #[inline(always)]
    fn inside(start: usize, reach: usize, len: usize) -> bool {
        start + reach <= len
    }

    /// `m` (rows of `cols`) restaged with rows zero-padded to `stride`
    /// (`stage[i·stride + j] = m[i·cols + j]`, or transposed when
    /// `transpose`: `stage[j·stride + i] = m[i·cols + j]`). Weights only:
    /// a few hundred floats per call.
    fn stage_padded(
        stage: &mut AlignedVec,
        m: &[f32],
        cols: usize,
        stride: usize,
        transpose: bool,
    ) {
        let rows = m.len() / cols;
        stage.clear();
        stage.resize(stride * if transpose { cols } else { rows }, 0.0);
        if transpose {
            for (i, row) in m.chunks_exact(cols).enumerate() {
                for (&v, dst) in row.iter().zip(stage[i..].iter_mut().step_by(stride)) {
                    *dst = v;
                }
            }
        } else {
            for (row, dst) in m.chunks_exact(cols).zip(stage.chunks_exact_mut(stride)) {
                dst[..cols].copy_from_slice(row);
            }
        }
    }

    /// See [`super::gemm_nt`]. The weights are staged transposed with
    /// their output dimension zero-padded to whole tiles (`wt[k][o]`), so
    /// a layer narrower than one tile (100→5) is one vector of output
    /// lanes; the bias follows them, padded alike. [`SAMPLES`] samples
    /// share every weight-tile load.
    #[inline(always)]
    pub(super) fn gemm_nt(
        ys: &mut [f32],
        w: &[f32],
        xs: &[f32],
        c: usize,
        epi: Option<Epilogue<'_>>,
        stage: &mut AlignedVec,
    ) {
        let r_dim = w.len() / c;
        let r_pad = r_dim.next_multiple_of(LANES);
        stage_padded(stage, w, c, r_pad, true);
        stage.resize((c + 1) * r_pad, 0.0);
        let (wt, bias) = stage.split_at_mut(c * r_pad);
        if let Some((b, _)) = epi {
            bias[..r_dim].copy_from_slice(b);
        }
        // Without an epilogue the bias stays zero: an accumulation from
        // `+0.0` never reaches `-0.0`, so adding `+0.0` changes no bit.
        match epi {
            Some((_, Activation::Relu)) => gemm_blocks::<true>(ys, wt, bias, xs, c, r_dim),
            _ => gemm_blocks::<false>(ys, wt, bias, xs, c, r_dim),
        }
        if let Some((_, act @ (Activation::Tanh | Activation::Sigmoid))) = epi {
            act.apply(ys);
        }
    }

    /// All samples, [`SAMPLES`] at a time, then one by one.
    #[inline(always)]
    fn gemm_blocks<const RELU: bool>(
        ys: &mut [f32],
        wt: &[f32],
        bias: &[f32],
        xs: &[f32],
        c: usize,
        r_dim: usize,
    ) {
        let r_pad = bias.len();
        let batch = xs.len() / c;
        let mut s0 = 0;
        while s0 + SAMPLES <= batch {
            if inside((s0 + SAMPLES - 1) * r_dim, r_pad, ys.len()) {
                gemm_block::<SAMPLES, false, RELU>(ys, wt, bias, xs, s0, c, r_dim);
            } else {
                gemm_block::<SAMPLES, true, RELU>(ys, wt, bias, xs, s0, c, r_dim);
            }
            s0 += SAMPLES;
        }
        for s in s0..batch {
            if inside(s * r_dim, r_pad, ys.len()) {
                gemm_block::<1, false, RELU>(ys, wt, bias, xs, s, c, r_dim);
            } else {
                gemm_block::<1, true, RELU>(ys, wt, bias, xs, s, c, r_dim);
            }
        }
    }

    /// Every output tile of samples `s0..s0 + S`, last tile first: the
    /// accumulators plus the bias, clamped like the scalar kernel when
    /// `RELU`, stored once.
    #[inline(always)]
    fn gemm_block<const S: usize, const CLIP: bool, const RELU: bool>(
        ys: &mut [f32],
        wt: &[f32],
        bias: &[f32],
        xs: &[f32],
        s0: usize,
        c: usize,
        r_dim: usize,
    ) {
        let r_pad = bias.len();
        let xrows: [&[f32]; S] = std::array::from_fn(|j| &xs[(s0 + j) * c..][..c]);
        let mut pad = [0.0f32; LANES];
        for o0 in (0..r_pad).step_by(LANES).rev() {
            let mut acc = [[0.0f32; LANES]; S];
            for (k, wrow) in wt.chunks_exact(r_pad).enumerate() {
                let wv = read::<LANES, false>(wrow, o0, &mut pad);
                for (a, x) in acc.iter_mut().zip(&xrows) {
                    let xv = x[k];
                    for (a, &wl) in a.iter_mut().zip(wv) {
                        *a += wl * xv;
                    }
                }
            }
            let bv = read::<LANES, false>(bias, o0, &mut pad);
            for (j, a) in acc.iter().enumerate() {
                let mut y = *a;
                for (y, &b) in y.iter_mut().zip(bv) {
                    *y += b;
                    if RELU && *y < 0.0 {
                        *y = 0.0;
                    }
                }
                write::<LANES, CLIP>(ys, (s0 + j) * r_dim + o0, &y);
            }
        }
    }

    /// See [`super::outer_t`]. Per gradient row `j`, a span of
    /// [`GROUP`] tiles stays in registers across the whole batch.
    #[inline(always)]
    pub(super) fn outer_t(dwt: &mut [f32], a: &[f32], b: &[f32], alpha: f32, c: usize) {
        let r_dim = dwt.len() / c;
        if r_dim == 0 {
            return;
        }
        for (j, drow) in dwt.chunks_exact_mut(r_dim).enumerate() {
            for g0 in (0..r_dim).step_by(SPAN) {
                if inside(g0, SPAN, r_dim) {
                    outer_t_span::<false>(drow, a, b, alpha, c, j, g0);
                } else {
                    outer_t_span::<true>(drow, a, b, alpha, c, j, g0);
                }
            }
        }
    }

    /// Span `g0..g0 + SPAN` of gradient row `j`, accumulated over the
    /// batch; `CLIP` when the span runs past the row.
    #[inline(always)]
    fn outer_t_span<const CLIP: bool>(
        drow: &mut [f32],
        a: &[f32],
        b: &[f32],
        alpha: f32,
        c: usize,
        j: usize,
        g0: usize,
    ) {
        let r_dim = drow.len();
        let mut pad = [0.0f32; SPAN];
        let mut acc = *read::<SPAN, CLIP>(drow, g0, &mut pad);
        for (s, b_row) in b.chunks_exact(c).enumerate() {
            let bv = b_row[j];
            // lint:allow(float-eq): exact-zero sparsity skip, identical to the scalar kernel
            if bv == 0.0 {
                continue;
            }
            let off = s * r_dim + g0;
            let av = if inside(off, SPAN, a.len()) {
                read::<SPAN, false>(a, off, &mut pad)
            } else {
                read::<SPAN, true>(a, off, &mut pad)
            };
            madd_sx(&mut acc, alpha * bv, av);
        }
        write::<SPAN, CLIP>(drow, g0, &acc);
    }

    /// See [`super::backprop`]. The head delta is written for the whole
    /// batch first and the weights are staged with rows zero-padded to
    /// whole spans. Per sample, a span of [`GROUP`] tiles of `prev`
    /// accumulates in registers over the nonzero delta entries (one, for
    /// a single-action TD error) and is masked before its only store.
    #[inline(always)]
    pub(super) fn backprop(
        prev: &mut [f32],
        w: &[f32],
        delta: &mut [f32],
        head: Option<Head<'_>>,
        mask: Option<Mask<'_>>,
        c: usize,
        wp: &mut AlignedVec,
    ) {
        if let Some((og, y, act)) = head {
            head_delta(delta, og, y, act);
        }
        let r_dim = w.len() / c;
        let c_pad = c.next_multiple_of(SPAN);
        stage_padded(wp, w, c, c_pad, false);
        for s in 0..prev.len() / c {
            let drow = &delta[s * r_dim..(s + 1) * r_dim];
            if inside(s * c, c_pad, prev.len()) {
                backprop_row::<false>(prev, wp, drow, mask, c, s);
            } else {
                backprop_row::<true>(prev, wp, drow, mask, c, s);
            }
        }
    }

    /// Row `s` of `prev` from its delta row, span by span.
    #[inline(always)]
    fn backprop_row<const CLIP: bool>(
        prev: &mut [f32],
        wp: &[f32],
        drow: &[f32],
        mask: Option<Mask<'_>>,
        c: usize,
        s: usize,
    ) {
        let c_pad = c.next_multiple_of(SPAN);
        let mut pad = [0.0f32; SPAN];
        for g0 in (0..c).step_by(SPAN) {
            let mut acc = [0.0f32; SPAN];
            for (&d, wrow) in drow.iter().zip(wp.chunks_exact(c_pad)) {
                // lint:allow(float-eq): exact-zero sparsity skip, identical to the scalar kernel
                if d == 0.0 {
                    continue;
                }
                madd_xs(&mut acc, read::<SPAN, false>(wrow, g0, &mut pad), d);
            }
            if let Some((ys, act)) = mask {
                apply_mask(&mut acc, read::<SPAN, CLIP>(ys, s * c + g0, &mut pad), act);
            }
            write::<SPAN, CLIP>(prev, s * c + g0, &acc);
        }
    }

    /// `d *= f'(y)` per lane, with the expressions of the scalar mask
    /// kernels (Identity skips the `* 1.0`, which changes no bit of a
    /// value f32 arithmetic produces, as the staged scalar tier does).
    #[inline(always)]
    fn apply_mask(acc: &mut Span, ys: &Span, act: Activation) {
        match act {
            Activation::Identity => {}
            Activation::Relu => {
                for (d, &y) in acc.iter_mut().zip(ys) {
                    *d *= if y > 0.0 { 1.0 } else { 0.0 };
                }
            }
            Activation::Tanh => {
                for (d, &y) in acc.iter_mut().zip(ys) {
                    *d *= 1.0 - y * y;
                }
            }
            Activation::Sigmoid => {
                for (d, &y) in acc.iter_mut().zip(ys) {
                    *d *= y * (1.0 - y);
                }
            }
        }
    }
}

/// AVX `_mm256_cmp_ps` takes its predicate as a const generic, unlike the
/// fixed-predicate SSE compare intrinsics; this wrapper gives both ISAs
/// the same two-argument shape for the kernel-set macro. The `_OQ`
/// (ordered, quiet) predicate matches scalar `<`: false on NaN.
#[cfg(target_arch = "x86_64")]
mod cmp256 {
    use core::arch::x86_64::*;

    // SAFETY: target_feature-only unsafety — called exclusively from the
    // avx2 kernel set, which itself runs only after runtime detection.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lt(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_LT_OQ>(a, b)
    }
}

/// AVX-512 compares produce opmask registers (`__mmask16`) rather than
/// vector masks, and AVX-512F has no float bitwise ops (`_mm512_andnot_ps`
/// is AVX-512DQ); these shims re-express both in the all-ones-lane vector
/// shape the kernel-set macro expects, so the 16-wide instantiation reads
/// identically to the 8- and 4-wide ones. `maskz_set1(-1)` expands an
/// opmask to the exact all-ones/all-zeros lanes a vector compare would
/// produce, and the bitwise op round-trips through `si512` — both are
/// pure bit moves, so the `andnot(x < 0, x)` ReLU identity keeps its
/// scalar semantics. The `_OQ` predicate as in [`cmp256`]: false on NaN,
/// matching scalar `<`.
#[cfg(target_arch = "x86_64")]
mod m512 {
    use core::arch::x86_64::*;

    // SAFETY: target_feature-only unsafety — called exclusively from the
    // avx512 kernel set, which itself runs only after runtime detection.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mask_lanes(m: __mmask16) -> __m512 {
        _mm512_castsi512_ps(_mm512_maskz_set1_epi32(m, -1))
    }

    // SAFETY: target_feature-only unsafety — called exclusively from the
    // avx512 kernel set, which itself runs only after runtime detection.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn lt(a: __m512, b: __m512) -> __m512 {
        mask_lanes(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b))
    }

    /// `(!a) & b`, matching `_mm_andnot_ps` / `_mm256_andnot_ps` operand
    /// order.
    // SAFETY: target_feature-only unsafety — called exclusively from the
    // avx512 kernel set, which itself runs only after runtime detection.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn andnot(a: __m512, b: __m512) -> __m512 {
        _mm512_castsi512_ps(_mm512_andnot_si512(
            _mm512_castps_si512(a),
            _mm512_castps_si512(b),
        ))
    }
}

/// One vector backend. Each kernel mirrors its scalar counterpart
/// statement for statement: the vector body processes `$w`-wide groups of
/// *independent lanes* with non-fused `$mul` + `$add`, and the remainder
/// falls through to the identical scalar expressions, so results are
/// byte-identical to `mod scalar` (see the module docs for the full
/// argument).
///
/// SAFETY: every function is `#[target_feature(enable = $feature)]` and
/// only reachable through `dispatch!`, which routes to this module solely
/// for backend values that passed runtime detection. Raw pointer
/// arithmetic stays within `i + $w <= len` bounds established on the
/// zipped slice prefix.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_kernel_set {
    ($modname:ident, $feature:literal, $w:literal,
     $loadu:ident, $storeu:ident, $set1:ident, $add:ident, $mul:ident,
     $andnot:path, $cmplt:path) => {
        mod $modname {
            #[allow(unused_imports)]
            use core::arch::x86_64::*;

            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; pointer
            // offsets stay below the `i + $w <= n` slice bound.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn axpy(acc: &mut [f32], xs: &[f32], w: f32) {
                let n = acc.len().min(xs.len());
                let wv = $set1(w);
                let mut i = 0usize;
                while i + $w <= n {
                    let x = $loadu(xs.as_ptr().add(i));
                    let a = $loadu(acc.as_ptr().add(i));
                    $storeu(acc.as_mut_ptr().add(i), $add(a, $mul(wv, x)));
                    i += $w;
                }
                for (a, &v) in acc[i..n].iter_mut().zip(&xs[i..n]) {
                    *a += w * v;
                }
            }

            /// `acc[i] += xs[i]` over the overlapping prefix.
            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; pointer
            // offsets stay below the `i + $w <= n` slice bound.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn add_assign(acc: &mut [f32], xs: &[f32]) {
                let n = acc.len().min(xs.len());
                let mut i = 0usize;
                while i + $w <= n {
                    let a = $loadu(acc.as_ptr().add(i));
                    let x = $loadu(xs.as_ptr().add(i));
                    $storeu(acc.as_mut_ptr().add(i), $add(a, x));
                    i += $w;
                }
                for (a, &v) in acc[i..n].iter_mut().zip(&xs[i..n]) {
                    *a += v;
                }
            }

            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; the body is the safe
            // portable kernel, compiled here for this tier.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn gemm_nt(
                ys: &mut [f32],
                w: &[f32],
                xs: &[f32],
                c: usize,
                epi: Option<super::Epilogue<'_>>,
                stage: &mut crate::align::AlignedVec,
            ) {
                super::tile::gemm_nt(ys, w, xs, c, epi, stage)
            }

            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; the body is the safe
            // portable kernel, compiled here for this tier.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn outer_t(
                dwt: &mut [f32],
                a: &[f32],
                b: &[f32],
                alpha: f32,
                c: usize,
            ) {
                super::tile::outer_t(dwt, a, b, alpha, c)
            }

            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; the body is the safe
            // portable kernel, compiled here for this tier.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn backprop(
                prev: &mut [f32],
                w: &[f32],
                delta: &mut [f32],
                head: Option<super::Head<'_>>,
                mask: Option<super::Mask<'_>>,
                c: usize,
                stage: &mut crate::align::AlignedVec,
            ) {
                super::tile::backprop(prev, w, delta, head, mask, c, stage)
            }

            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; pointer
            // offsets stay below the `i + $w <= n` slice bound.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn outer_rows_sample(
                dw: &mut [f32],
                a_row: &[f32],
                b_row: &[f32],
                alpha: f32,
            ) {
                let cols = b_row.len();
                if cols == 0 {
                    return;
                }
                for (&av, row) in a_row.iter().zip(dw.chunks_exact_mut(cols)) {
                    // lint:allow(float-eq): exact-zero sparsity skip, identical to the scalar kernel
                    if av == 0.0 {
                        continue;
                    }
                    axpy(row, b_row, alpha * av);
                }
            }

            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; pointer
            // offsets stay below the `i + $w <= n` slice bound.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sum_rows(acc: &mut [f32], rows: &[f32]) {
                if acc.is_empty() {
                    return;
                }
                for row in rows.chunks_exact(acc.len()) {
                    add_assign(acc, row);
                }
            }

            /// `andnot(x < 0, x)` zeroes exactly the lanes the scalar
            /// branch zeroes: `-0.0` is not `< 0.0` (kept, like scalar)
            /// and NaN compares false (kept bit-exactly, unlike `max`).
            // SAFETY: target_feature-only unsafety — reachable solely via
            // `dispatch!` after runtime detection of `$feature`; pointer
            // offsets stay below the `i + $w <= n` slice bound.
            #[target_feature(enable = $feature)]
            pub(super) unsafe fn relu(xs: &mut [f32]) {
                let n = xs.len();
                let zero = $set1(0.0);
                let mut i = 0usize;
                while i + $w <= n {
                    let x = $loadu(xs.as_ptr().add(i));
                    let neg = $cmplt(x, zero);
                    $storeu(xs.as_mut_ptr().add(i), $andnot(neg, x));
                    i += $w;
                }
                for x in &mut xs[i..] {
                    if *x < 0.0 {
                        *x = 0.0;
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_kernel_set!(
    avx512,
    "avx512f",
    16,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_add_ps,
    _mm512_mul_ps,
    super::m512::andnot,
    super::m512::lt
);

#[cfg(target_arch = "x86_64")]
x86_kernel_set!(
    avx2,
    "avx2",
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_add_ps,
    _mm256_mul_ps,
    _mm256_andnot_ps,
    super::cmp256::lt
);

#[cfg(target_arch = "x86_64")]
x86_kernel_set!(
    sse2,
    "sse2",
    4,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_add_ps,
    _mm_mul_ps,
    _mm_andnot_ps,
    _mm_cmplt_ps
);

/// Shared scalar remainder for the pair-interleaved kernels: the
/// outputs past the last full vector, computed with the reference
/// expressions so tails match `mod scalar` by construction.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn lanes_tail_i8p(tail: &mut [i32], xpairs: &[i32], wt: &[i16], fan_out: usize, base: usize) {
    for (j, slot) in tail.iter_mut().enumerate() {
        let r = base + j;
        let mut s = 0i32;
        for (p, &xp) in xpairs.iter().enumerate() {
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x0 = i32::from((xp & 0xFFFF) as u16 as i16);
            // lint:allow(lossy-cast): exact lane unpack of the 16-bit halves
            let x1 = i32::from((xp >> 16) as u16 as i16);
            let w0 = i32::from(wt[(p * fan_out + r) * 2]);
            let w1 = i32::from(wt[(p * fan_out + r) * 2 + 1]);
            s += x0 * w0 + x1 * w1;
        }
        *slot = s;
    }
}

/// Vector int8 dot-product kernels. Unlike the float kernel sets these
/// *do* reduce horizontally — exact i32 arithmetic makes any summation
/// order bit-identical (see the module docs), so the layout is chosen for
/// speed, not to mirror the scalar loop.
///
/// The AVX2 lane follows the `maddubs`-style two-step shape without the
/// u8×i8 saturation hazard: sign-extend 16 i8 to 16 i16
/// (`vpmovsxbw`), then `vpmaddwd` pairs into 8 exact i32 partials —
/// exact because i8-range products are ≤ 16129 and a pair sum ≤ 32258
/// can't overflow the *i32* madd output (i16 saturation inside madd only
/// occurs for both inputs = -32768, unreachable from i8). The AVX-512
/// lane doubles that to 32 bytes per `madd`; on VNNI hosts the dot
/// collapses further into `vpdpbusd`/`vpdpwssd` forms (see the module
/// docs for the offset-corrected exactness argument).
#[cfg(target_arch = "x86_64")]
mod i8x86 {
    use core::arch::x86_64::*;

    /// Exact i32 dot product of two i8 slices (overlapping prefix).
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2; pointer
    // offsets stay below the `i + 16 <= n` slice bound.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 16 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(i).cast());
            let wv = _mm_loadu_si128(w.as_ptr().add(i).cast());
            let xw = _mm256_cvtepi8_epi16(xv);
            let ww = _mm256_cvtepi8_epi16(wv);
            accv = _mm256_add_epi32(accv, _mm256_madd_epi16(xw, ww));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(accv);
        let hi = _mm256_extracti128_si256::<1>(accv);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_unpackhi_epi64(s4, s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<1>(s2));
        let mut sum = _mm_cvtsi128_si32(s1);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    /// Exact i32 dot product, SSE2 lane: sign-extension via the
    /// unpack-with-self + arithmetic-shift idiom (no `pmovsx` before
    /// SSE4.1), then the same exact `pmaddwd` reduction.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher (SSE2 is baseline on x86-64); pointer
    // offsets stay below the `i + 16 <= n` slice bound.
    #[target_feature(enable = "sse2")]
    unsafe fn sse2_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm_setzero_si128();
        let mut i = 0usize;
        while i + 16 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(i).cast());
            let wv = _mm_loadu_si128(w.as_ptr().add(i).cast());
            let xlo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(xv, xv));
            let xhi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(xv, xv));
            let wlo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(wv, wv));
            let whi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(wv, wv));
            accv = _mm_add_epi32(accv, _mm_madd_epi16(xlo, wlo));
            accv = _mm_add_epi32(accv, _mm_madd_epi16(xhi, whi));
            i += 16;
        }
        let s2 = _mm_add_epi32(accv, _mm_unpackhi_epi64(accv, accv));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<1>(s2));
        let mut sum = _mm_cvtsi128_si32(s1);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avx2_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher (SSE2 is baseline on x86-64).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sse2_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = sse2_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// Exact i32 dot product, AVX-512BW lane: sign-extend 32 i8 to one
    /// zmm of i16 (`vpmovsxbw`), `vpmaddwd` into 16 exact i32 partials,
    /// lane-reduce — the AVX2 shape at twice the width.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw; pointer offsets stay below the `i + 32 <= n`
    // slice bound.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn avx512_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 32 <= n {
            let xv = _mm256_loadu_si256(x.as_ptr().add(i).cast());
            let wv = _mm256_loadu_si256(w.as_ptr().add(i).cast());
            let xw = _mm512_cvtepi8_epi16(xv);
            let ww = _mm512_cvtepi8_epi16(wv);
            accv = _mm512_add_epi32(accv, _mm512_madd_epi16(xw, ww));
            i += 32;
        }
        let mut sum = _mm512_reduce_add_epi32(accv);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    /// Exact i32 dot product, AVX-512 VNNI lane: one `vpdpbusd` per 64
    /// bytes, signed-exact via the offset trick. `vpdpbusd` multiplies
    /// *unsigned* bytes by signed bytes, so the x operand is biased by
    /// +128 (a sign-bit XOR): the accumulator then holds `Σ (x+128)·w =
    /// dot + 128·Σw`, and `Σw` over the same prefix is recovered from a
    /// `vpsadbw` running sum of the biased w bytes (`Σ(w+128) − 128·len`,
    /// exact in u64). The i32 accumulator lanes may wrap, but every step
    /// is arithmetic mod 2³² and the true dot is within i32 by the
    /// wrapper's `k ≤ 130_000` bound, so the corrected difference is the
    /// exact dot — see the module docs.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw and the `avx512_vnni` capability bit; pointer
    // offsets stay below the `i + 64 <= n` slice bound.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn avx512vnni_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let sign = _mm512_set1_epi8(-128i8);
        let zero = _mm512_setzero_si512();
        let mut dp = _mm512_setzero_si512();
        let mut wu_acc = _mm512_setzero_si512();
        let mut chunks = 0i64;
        let mut i = 0usize;
        while i + 64 <= n {
            let xv = _mm512_loadu_si512(x.as_ptr().add(i).cast());
            let wv = _mm512_loadu_si512(w.as_ptr().add(i).cast());
            let xu = _mm512_xor_si512(xv, sign);
            dp = _mm512_dpbusd_epi32(dp, xu, wv);
            let wu = _mm512_xor_si512(wv, sign);
            wu_acc = _mm512_add_epi64(wu_acc, _mm512_sad_epu8(wu, zero));
            chunks += 1;
            i += 64;
        }
        let dpsum = _mm512_reduce_add_epi32(dp);
        // Σ(w+128) over the vector prefix, exact in i64; the correction
        // `128·Σw` is then applied mod 2³² (the truncation below is the
        // intended modular step, not a range assumption).
        let wu_total = _mm512_reduce_add_epi64(wu_acc);
        let w_signed_sum = wu_total - 128 * 64 * chunks;
        // lint:allow(lossy-cast): intentional mod-2^32 truncation of the correction term
        let corr = (128i64 * w_signed_sum) as i32;
        let mut sum = dpsum.wrapping_sub(corr);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    /// Exact i32 dot product, AVX-VNNI (VEX) lane: the AVX2 shape with
    /// `vpdpwssd` fusing the `madd`+`add` pair into one instruction —
    /// identical exact i32 lane sums, one fewer op per 16 bytes.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2 and the
    // `avx_vnni` capability bit; pointer offsets stay below the
    // `i + 16 <= n` slice bound.
    #[target_feature(enable = "avx2,avxvnni")]
    unsafe fn avxvnni_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 16 <= n {
            let xv = _mm_loadu_si128(x.as_ptr().add(i).cast());
            let wv = _mm_loadu_si128(w.as_ptr().add(i).cast());
            let xw = _mm256_cvtepi8_epi16(xv);
            let ww = _mm256_cvtepi8_epi16(wv);
            accv = _mm256_dpwssd_avx_epi32(accv, xw, ww);
            i += 16;
        }
        let lo = _mm256_castsi256_si128(accv);
        let hi = _mm256_extracti128_si256::<1>(accv);
        let s4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(s4, _mm_unpackhi_epi64(s4, s4));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<1>(s2));
        let mut sum = _mm_cvtsi128_si32(s1);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn avx512_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avx512_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of
    // avx512f+avx512bw and the `avx512_vnni` capability bit.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn avx512vnni_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avx512vnni_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of AVX2 and the
    // `avx_vnni` capability bit.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn avxvnni_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = avxvnni_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// Pair-interleaved matvec, AVX2 lane: broadcast one packed input
    /// pair, `pmaddwd` it against eight consecutive outputs' weight pairs
    /// per load. Each `madd` lane is one exact pair-sum (≤ 2·127²), so
    /// the i32 adds are the same integers the scalar reference computes.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of AVX2; the
    // wrapper's length asserts guarantee every pointer offset below is
    // in bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 8 <= fan_out {
            let mut accv = _mm256_setzero_si256();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm256_set1_epi32(xp);
                let wv = _mm256_loadu_si256(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm256_add_epi32(accv, _mm256_madd_epi16(xv, wv));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(r).cast(), accv);
            r += 8;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, SSE2 lane: identical structure 4-wide.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher (SSE2 is baseline on x86-64); the
    // wrapper's length asserts keep every offset in bounds.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sse2_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 4 <= fan_out {
            let mut accv = _mm_setzero_si128();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm_set1_epi32(xp);
                let wv = _mm_loadu_si128(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm_add_epi32(accv, _mm_madd_epi16(xv, wv));
            }
            _mm_storeu_si128(acc.as_mut_ptr().add(r).cast(), accv);
            r += 4;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, AVX-512BW lane: identical structure
    /// 16-wide — one `madd` covers sixteen consecutive outputs' weight
    /// pairs.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of
    // avx512f+avx512bw; the wrapper's length asserts keep every offset
    // in bounds.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn avx512_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 16 <= fan_out {
            let mut accv = _mm512_setzero_si512();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm512_set1_epi32(xp);
                let wv = _mm512_loadu_si512(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm512_add_epi32(accv, _mm512_madd_epi16(xv, wv));
            }
            _mm512_storeu_si512(acc.as_mut_ptr().add(r).cast(), accv);
            r += 16;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, AVX-512 VNNI lane: `vpdpwssd` fuses the
    /// `madd`+`add` pair into one instruction per sixteen outputs — the
    /// i16-pair layout is exactly the shape VNNI's word form consumes.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of
    // avx512f+avx512bw and the `avx512_vnni` capability bit; the
    // wrapper's length asserts keep every offset in bounds.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn avx512vnni_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 16 <= fan_out {
            let mut accv = _mm512_setzero_si512();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm512_set1_epi32(xp);
                let wv = _mm512_loadu_si512(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm512_dpwssd_epi32(accv, xv, wv);
            }
            _mm512_storeu_si512(acc.as_mut_ptr().add(r).cast(), accv);
            r += 16;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Pair-interleaved matvec, AVX-VNNI (VEX) lane: the AVX2 structure
    /// with the fused `vpdpwssd` accumulate.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of AVX2 and
    // the `avx_vnni` capability bit; the wrapper's length asserts keep
    // every offset in bounds.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn avxvnni_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 8 <= fan_out {
            let mut accv = _mm256_setzero_si256();
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = _mm256_set1_epi32(xp);
                let wv = _mm256_loadu_si256(wt.as_ptr().add((p * fan_out + r) * 2).cast());
                accv = _mm256_dpwssd_avx_epi32(accv, xv, wv);
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(r).cast(), accv);
            r += 8;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Max-|x| fold, AVX-512 lane: bitwise abs (`_mm512_abs_ps` clears
    /// the sign bit, exactly like the and-mask below), `maxps` fold,
    /// order-free horizontal reduce, scalar tail.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `max_abs_f32` dispatcher after runtime detection of
    // avx512f+avx512bw; offsets stay below the `i + 16 <= n` bound.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_max_abs_f32(x: &[f32]) -> f32 {
        let n = x.len();
        let mut mv = _mm512_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= n {
            let v = _mm512_abs_ps(_mm512_loadu_ps(x.as_ptr().add(i)));
            mv = _mm512_max_ps(mv, v);
            i += 16;
        }
        let mut m = _mm512_reduce_max_ps(mv);
        for &v in &x[i..] {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// Elementwise quantize, AVX-512 lane: same structure 16-wide; the
    /// ±0.5 compares land in opmask registers, so the adjustment uses
    /// mask-predicated add/sub of −1 instead of subtracting an all-ones
    /// vector mask — the resulting i32s are identical. After the
    /// [-127, 127] clamp the saturating narrow (`vpmovsdb`) is a plain
    /// truncation.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `quantize_i8` dispatcher after runtime detection of
    // avx512f+avx512bw; the wrapper asserts `src.len() == dst.len()` and
    // offsets stay below the `i + 16 <= n` bound.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        let n = src.len();
        let invv = _mm512_set1_ps(inv);
        let half = _mm512_set1_ps(0.5);
        let nhalf = _mm512_set1_ps(-0.5);
        let lo = _mm512_set1_epi32(-127);
        let hi = _mm512_set1_epi32(127);
        let negone = _mm512_set1_epi32(-1);
        let mut i = 0usize;
        while i + 16 <= n {
            let x = _mm512_mul_ps(_mm512_loadu_ps(src.as_ptr().add(i)), invv);
            let t = _mm512_cvttps_epi32(x);
            let r = _mm512_sub_ps(x, _mm512_cvtepi32_ps(t));
            let ge = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(r, half);
            let le = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(r, nhalf);
            // Subtracting -1 where `ge` adds 1; adding -1 where `le`
            // subtracts 1 — the round-half-away adjustment.
            let q = _mm512_mask_sub_epi32(t, ge, t, negone);
            let q = _mm512_mask_add_epi32(q, le, q, negone);
            let q = _mm512_max_epi32(lo, _mm512_min_epi32(hi, q));
            let b = _mm512_cvtsepi32_epi8(q);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), b);
            i += 16;
        }
        for (d, &v) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = super::scalar::quantize_one_i8(v, inv);
        }
    }

    /// Max-|x| fold, AVX2 lane: abs via sign-bit mask, `maxps` fold,
    /// horizontal max, scalar tail. `max` is order-free over finite
    /// floats, so the tree reduction equals the scalar left fold.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `max_abs_f32` dispatcher after runtime detection of AVX2; offsets
    // stay below the `i + 8 <= n` bound.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_max_abs_f32(x: &[f32]) -> f32 {
        let n = x.len();
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let mut mv = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_and_ps(mask, _mm256_loadu_ps(x.as_ptr().add(i)));
            mv = _mm256_max_ps(mv, v);
            i += 8;
        }
        let lo = _mm256_castps256_ps128(mv);
        let hi = _mm256_extractf128_ps::<1>(mv);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<1>(m2, m2));
        let mut m = _mm_cvtss_f32(m1);
        for &v in &x[i..] {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// Max-|x| fold, SSE2 lane: identical structure 4-wide.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `max_abs_f32` dispatcher (SSE2 is baseline on x86-64); offsets
    // stay below the `i + 4 <= n` bound.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sse2_max_abs_f32(x: &[f32]) -> f32 {
        let n = x.len();
        let mask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFF_FFFF));
        let mut mv = _mm_setzero_ps();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm_and_ps(mask, _mm_loadu_ps(x.as_ptr().add(i)));
            mv = _mm_max_ps(mv, v);
            i += 4;
        }
        let m2 = _mm_max_ps(mv, _mm_movehl_ps(mv, mv));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<1>(m2, m2));
        let mut m = _mm_cvtss_f32(m1);
        for &v in &x[i..] {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// Elementwise quantize, AVX2 lane: multiply by the reciprocal scale,
    /// truncate (`cvttps2dq`), recover the exact fraction, adjust by the
    /// ±0.5 compares (`_OQ`: false on NaN, matching the scalar compare),
    /// clamp in i32, then pack 8 lanes down to i8.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `quantize_i8` dispatcher after runtime detection of AVX2; the
    // wrapper asserts `src.len() == dst.len()` and offsets stay below the
    // `i + 8 <= n` bound.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        let n = src.len();
        let invv = _mm256_set1_ps(inv);
        let half = _mm256_set1_ps(0.5);
        let nhalf = _mm256_set1_ps(-0.5);
        let lo = _mm256_set1_epi32(-127);
        let hi = _mm256_set1_epi32(127);
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(i)), invv);
            let t = _mm256_cvttps_epi32(x);
            let r = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
            let ge = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(r, half));
            let le = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(r, nhalf));
            // Masks are all-ones (-1) where true: subtracting `ge` adds 1,
            // adding `le` subtracts 1 — the round-half-away adjustment.
            let q = _mm256_add_epi32(_mm256_sub_epi32(t, ge), le);
            let q = _mm256_max_epi32(lo, _mm256_min_epi32(hi, q));
            let qlo = _mm256_castsi256_si128(q);
            let qhi = _mm256_extracti128_si256::<1>(q);
            let w = _mm_packs_epi32(qlo, qhi);
            let b = _mm_packs_epi16(w, w);
            _mm_storel_epi64(dst.as_mut_ptr().add(i).cast(), b);
            i += 8;
        }
        for (d, &v) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = super::scalar::quantize_one_i8(v, inv);
        }
    }

    /// Elementwise quantize, SSE2 lane: same structure 4-wide; the i32
    /// clamp is a compare-and-blend (SSE2 has no `pminsd`/`pmaxsd`).
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `quantize_i8` dispatcher (SSE2 is baseline on x86-64); the wrapper
    // asserts `src.len() == dst.len()` and offsets stay below the
    // `i + 4 <= n` bound.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sse2_quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        let n = src.len();
        let invv = _mm_set1_ps(inv);
        let half = _mm_set1_ps(0.5);
        let nhalf = _mm_set1_ps(-0.5);
        let lo = _mm_set1_epi32(-127);
        let hi = _mm_set1_epi32(127);
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm_mul_ps(_mm_loadu_ps(src.as_ptr().add(i)), invv);
            let t = _mm_cvttps_epi32(x);
            let r = _mm_sub_ps(x, _mm_cvtepi32_ps(t));
            let ge = _mm_castps_si128(_mm_cmpge_ps(r, half));
            let le = _mm_castps_si128(_mm_cmple_ps(r, nhalf));
            // Masks are all-ones (-1) where true: subtracting `ge` adds 1,
            // adding `le` subtracts 1 — the round-half-away adjustment.
            let q = _mm_add_epi32(_mm_sub_epi32(t, ge), le);
            // min(hi, q): keep q where q < hi, else hi; then max(lo, ·).
            let qlt = _mm_cmplt_epi32(q, hi);
            let q = _mm_or_si128(_mm_and_si128(qlt, q), _mm_andnot_si128(qlt, hi));
            let qgt = _mm_cmpgt_epi32(q, lo);
            let q = _mm_or_si128(_mm_and_si128(qgt, q), _mm_andnot_si128(qgt, lo));
            let w = _mm_packs_epi32(q, q);
            let b = _mm_packs_epi16(w, w);
            // Four bytes of `b` are live; store via a scalar lane move to
            // avoid writing past `dst`.
            let quad = _mm_cvtsi128_si32(b);
            dst.as_mut_ptr().add(i).cast::<i32>().write_unaligned(quad);
            i += 4;
        }
        for (d, &v) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = super::scalar::quantize_one_i8(v, inv);
        }
    }
}

/// The aarch64/NEON backend: the complete kernel set — f32 and int8 — at
/// 128-bit width, mirroring the x86 kernel-set macro statement for
/// statement so the same bit-identity-by-construction argument applies:
/// independent 4-wide lanes, inner dimension ascending, separate
/// `vmulq`+`vaddq` (never `vfmaq` — no fusion), compares producing
/// all-ones `u32` lane masks combined with `vbicq`/`vandq` exactly like
/// the x86 `andnot`/`and` selects, and scalar tails running the reference
/// expressions. The int8 kernels use the exactness argument instead:
/// `vmull_s8` products pair-accumulated by `vpadalq_s16` are exact i32s,
/// so horizontal order is free (see the module docs).
#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::*;

    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON; pointer offsets stay
    // below the `i + 4 <= n` slice bound.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn axpy(acc: &mut [f32], xs: &[f32], w: f32) {
        let n = acc.len().min(xs.len());
        let wv = vdupq_n_f32(w);
        let mut i = 0usize;
        while i + 4 <= n {
            let x = vld1q_f32(xs.as_ptr().add(i));
            let a = vld1q_f32(acc.as_ptr().add(i));
            vst1q_f32(acc.as_mut_ptr().add(i), vaddq_f32(a, vmulq_f32(wv, x)));
            i += 4;
        }
        for (a, &v) in acc[i..n].iter_mut().zip(&xs[i..n]) {
            *a += w * v;
        }
    }

    /// `acc[i] += xs[i]` over the overlapping prefix.
    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON; pointer offsets stay
    // below the `i + 4 <= n` slice bound.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn add_assign(acc: &mut [f32], xs: &[f32]) {
        let n = acc.len().min(xs.len());
        let mut i = 0usize;
        while i + 4 <= n {
            let a = vld1q_f32(acc.as_ptr().add(i));
            let x = vld1q_f32(xs.as_ptr().add(i));
            vst1q_f32(acc.as_mut_ptr().add(i), vaddq_f32(a, x));
            i += 4;
        }
        for (a, &v) in acc[i..n].iter_mut().zip(&xs[i..n]) {
            *a += v;
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON; the body is the safe
    // portable kernel, compiled here for this tier.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn gemm_nt(
        ys: &mut [f32],
        w: &[f32],
        xs: &[f32],
        c: usize,
        epi: Option<super::Epilogue<'_>>,
        stage: &mut crate::align::AlignedVec,
    ) {
        super::tile::gemm_nt(ys, w, xs, c, epi, stage)
    }

    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON; the body is the safe
    // portable kernel, compiled here for this tier.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn outer_t(dwt: &mut [f32], a: &[f32], b: &[f32], alpha: f32, c: usize) {
        super::tile::outer_t(dwt, a, b, alpha, c)
    }

    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON; the body is the safe
    // portable kernel, compiled here for this tier.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn backprop(
        prev: &mut [f32],
        w: &[f32],
        delta: &mut [f32],
        head: Option<super::Head<'_>>,
        mask: Option<super::Mask<'_>>,
        c: usize,
        stage: &mut crate::align::AlignedVec,
    ) {
        super::tile::backprop(prev, w, delta, head, mask, c, stage)
    }

    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn outer_rows_sample(
        dw: &mut [f32],
        a_row: &[f32],
        b_row: &[f32],
        alpha: f32,
    ) {
        let cols = b_row.len();
        if cols == 0 {
            return;
        }
        for (&av, row) in a_row.iter().zip(dw.chunks_exact_mut(cols)) {
            // lint:allow(float-eq): exact-zero sparsity skip, identical to the scalar kernel
            if av == 0.0 {
                continue;
            }
            axpy(row, b_row, alpha * av);
        }
    }

    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sum_rows(acc: &mut [f32], rows: &[f32]) {
        if acc.is_empty() {
            return;
        }
        for row in rows.chunks_exact(acc.len()) {
            add_assign(acc, row);
        }
    }

    /// `bic(x, x < 0)` zeroes exactly the lanes the scalar branch zeroes:
    /// `-0.0` is not `< 0.0` (kept) and NaN compares false (kept
    /// bit-exactly) — `vbicq_u32(a, m)` is `a & !m`, the NEON spelling of
    /// the x86 `andnot(m, a)` select.
    // SAFETY: target_feature-only unsafety — reachable solely via
    // `dispatch!` after runtime detection of NEON; pointer offsets stay
    // below the `i + 4 <= n` slice bound.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn relu(xs: &mut [f32]) {
        let n = xs.len();
        let zero = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 4 <= n {
            let x = vld1q_f32(xs.as_ptr().add(i));
            let neg = vcltq_f32(x, zero);
            let kept = vreinterpretq_f32_u32(vbicq_u32(vreinterpretq_u32_f32(x), neg));
            vst1q_f32(xs.as_mut_ptr().add(i), kept);
            i += 4;
        }
        for x in &mut xs[i..] {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// Exact i32 dot product: `vmull_s8` widens i8×i8 to i16 products
    /// (exact, ≤ 127²), `vpadalq_s16` pair-accumulates them into i32
    /// lanes (exact), and `vaddvq_s32` reduces — order-free by the
    /// exactness argument.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of NEON; pointer
    // offsets stay below the `i + 16 <= n` slice bound.
    #[target_feature(enable = "neon")]
    unsafe fn neon_dot_i8(x: &[i8], w: &[i8]) -> i32 {
        let n = x.len().min(w.len());
        let mut accv = vdupq_n_s32(0);
        let mut i = 0usize;
        while i + 16 <= n {
            let xv = vld1q_s8(x.as_ptr().add(i));
            let wv = vld1q_s8(w.as_ptr().add(i));
            let plo = vmull_s8(vget_low_s8(xv), vget_low_s8(wv));
            let phi = vmull_s8(vget_high_s8(xv), vget_high_s8(wv));
            accv = vpadalq_s16(accv, plo);
            accv = vpadalq_s16(accv, phi);
            i += 16;
        }
        let mut sum = vaddvq_s32(accv);
        for (&xv, &wv) in x[i..n].iter().zip(&w[i..n]) {
            sum += i32::from(xv) * i32::from(wv);
        }
        sum
    }

    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8_i32` dispatcher after runtime detection of NEON.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_gemm_i8_i32(acc: &mut [i32], x: &[i8], w: &[i8], k_dim: usize) {
        if k_dim == 0 {
            acc.fill(0);
            return;
        }
        let mut out = acc.iter_mut();
        for xrow in x.chunks_exact(k_dim) {
            for wrow in w.chunks_exact(k_dim) {
                let s = neon_dot_i8(xrow, wrow);
                if let Some(slot) = out.next() {
                    *slot = s;
                }
            }
        }
    }

    /// Pair-interleaved matvec, NEON lane: broadcast one packed input
    /// pair as four i16 `(x0, x1)` copies, `vmull_s16` against four
    /// consecutive outputs' weight pairs, then `vpaddq_s32` folds
    /// adjacent products into the four exact pair-sums.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `gemm_i8p_lanes` dispatcher after runtime detection of NEON; the
    // wrapper's length asserts keep every offset in bounds.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_gemm_i8p_lanes(
        acc: &mut [i32],
        xpairs: &[i32],
        wt: &[i16],
        fan_out: usize,
    ) {
        let mut r = 0usize;
        while r + 4 <= fan_out {
            let mut accv = vdupq_n_s32(0);
            for (p, &xp) in xpairs.iter().enumerate() {
                let xv = vreinterpretq_s16_s32(vdupq_n_s32(xp));
                let wv = vld1q_s16(wt.as_ptr().add((p * fan_out + r) * 2));
                let plo = vmull_s16(vget_low_s16(xv), vget_low_s16(wv));
                let phi = vmull_s16(vget_high_s16(xv), vget_high_s16(wv));
                accv = vaddq_s32(accv, vpaddq_s32(plo, phi));
            }
            vst1q_s32(acc.as_mut_ptr().add(r), accv);
            r += 4;
        }
        super::lanes_tail_i8p(&mut acc[r..], xpairs, wt, fan_out, r);
    }

    /// Max-|x| fold: `vabsq` + `vmaxq` lanes, order-free horizontal
    /// `vmaxvq`, scalar tail.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `max_abs_f32` dispatcher after runtime detection of NEON; offsets
    // stay below the `i + 4 <= n` bound.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_max_abs_f32(x: &[f32]) -> f32 {
        let n = x.len();
        let mut mv = vdupq_n_f32(0.0);
        let mut i = 0usize;
        while i + 4 <= n {
            mv = vmaxq_f32(mv, vabsq_f32(vld1q_f32(x.as_ptr().add(i))));
            i += 4;
        }
        let mut m = vmaxvq_f32(mv);
        for &v in &x[i..] {
            let a = v.abs();
            if a > m {
                m = a;
            }
        }
        m
    }

    /// Round-half-away core of the NEON quantizer: truncate
    /// (`vcvtq_s32_f32` rounds toward zero, like the scalar `as i32`),
    /// recover the exact fraction, adjust via the ±0.5 compare masks
    /// (all-ones = −1 as i32, so subtracting the `ge` mask adds 1 and
    /// adding the `le` mask subtracts 1), clamp in i32.
    // SAFETY: target_feature-only unsafety — called exclusively from
    // `neon_quantize_i8` below, itself gated on runtime NEON detection.
    #[target_feature(enable = "neon")]
    unsafe fn quantize_lane_i32(x: float32x4_t) -> int32x4_t {
        let half = vdupq_n_f32(0.5);
        let nhalf = vdupq_n_f32(-0.5);
        let lo = vdupq_n_s32(-127);
        let hi = vdupq_n_s32(127);
        let t = vcvtq_s32_f32(x);
        let r = vsubq_f32(x, vcvtq_f32_s32(t));
        let ge = vcgeq_f32(r, half);
        let le = vcleq_f32(r, nhalf);
        let q = vsubq_s32(t, vreinterpretq_s32_u32(ge));
        let q = vaddq_s32(q, vreinterpretq_s32_u32(le));
        vmaxq_s32(lo, vminq_s32(hi, q))
    }

    /// Elementwise quantize, NEON lane: two 4-wide groups per iteration
    /// so the narrow chain (`vmovn_s32` → `vmovn_s16`) emits eight i8
    /// codes per store; values are clamped to [-127, 127] first, so the
    /// truncating narrows are exact.
    // SAFETY: target_feature-only unsafety — reachable solely via the
    // `quantize_i8` dispatcher after runtime detection of NEON; the
    // wrapper asserts `src.len() == dst.len()` and offsets stay below
    // the `i + 8 <= n` bound.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_quantize_i8(src: &[f32], dst: &mut [i8], inv: f32) {
        let n = src.len();
        let invv = vdupq_n_f32(inv);
        let mut i = 0usize;
        while i + 8 <= n {
            let x0 = vmulq_f32(vld1q_f32(src.as_ptr().add(i)), invv);
            let x1 = vmulq_f32(vld1q_f32(src.as_ptr().add(i + 4)), invv);
            let q0 = quantize_lane_i32(x0);
            let q1 = quantize_lane_i32(x1);
            let w = vcombine_s16(vmovn_s32(q0), vmovn_s32(q1));
            vst1_s8(dst.as_mut_ptr().add(i), vmovn_s16(w));
            i += 8;
        }
        for (d, &v) in dst[i..].iter_mut().zip(&src[i..]) {
            *d = super::scalar::quantize_one_i8(v, inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudorandom values with exact zeros and negative
    /// zeros sprinkled in (the cases the sparsity skips and sign rules
    /// care about).
    fn vals(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).max(3);
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                if i % 7 == 3 {
                    0.0
                } else if i % 11 == 5 {
                    -0.0
                } else {
                    (s % 2000) as f32 / 100.0 - 10.0
                }
            })
            .collect()
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Lengths that exercise full vectors and every tail size for both
    /// 4- and 8-wide backends.
    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67];

    fn non_scalar() -> impl Iterator<Item = KernelBackend> {
        available()
            .iter()
            .copied()
            .filter(|&b| b != KernelBackend::Scalar)
    }

    #[test]
    fn name_parse_roundtrip() {
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
            assert_eq!(KernelBackend::parse(&b.name().to_uppercase()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(KernelBackend::parse("avx1024"), None);
        assert_eq!(KernelBackend::parse(""), None);
    }

    #[test]
    fn all_is_ordered_widest_first_and_ends_with_scalar() {
        assert_eq!(KernelBackend::ALL.last(), Some(&KernelBackend::Scalar));
        assert!(KernelBackend::Scalar.is_available());
        // `available()` preserves ALL's preference order.
        let avail = available();
        let order: Vec<usize> = avail
            .iter()
            .map(|b| KernelBackend::ALL.iter().position(|a| a == b).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "order={order:?}");
    }

    #[test]
    fn available_ends_with_scalar_and_contains_dispatched() {
        let list = available();
        assert_eq!(list.last(), Some(&KernelBackend::Scalar));
        assert!(list.contains(&dispatched()));
        assert!(list.iter().all(|b| b.is_available()));
    }

    #[test]
    fn force_guard_nests_and_restores() {
        assert_eq!(active(), dispatched());
        {
            let _outer = force(KernelBackend::Scalar);
            assert_eq!(active(), KernelBackend::Scalar);
            {
                let best = available()[0];
                let _inner = force(best);
                assert_eq!(active(), best);
            }
            assert_eq!(active(), KernelBackend::Scalar);
        }
        assert_eq!(active(), dispatched());
    }

    /// Shapes around the 16-lane tile: narrow (< 1 tile), exact tiles,
    /// multi-tile groups with tails, and the 4→100→5 controller shapes.
    const DIMS: &[usize] = &[1, 2, 3, 4, 5, 7, 15, 16, 17, 33, 64, 65, 100];

    #[test]
    fn gemm_nt_matches_scalar_tier_bitwise() {
        for be in non_scalar() {
            for &r_dim in DIMS {
                for c in [1usize, 2, 3, 4, 5, 17, 100] {
                    for batch in [1usize, 3, 4, 5, 9, 32] {
                        let w = vals(r_dim * c, 1);
                        let xs = vals(batch * c, 2);
                        let mut want = vals(batch * r_dim, 3);
                        let mut got = want.clone();
                        super::gemm_nt(KernelBackend::Scalar, &mut want, &w, &xs, c, None);
                        super::gemm_nt(be, &mut got, &w, &xs, c, None);
                        assert_eq!(bits(&got), bits(&want), "{be} gemm {batch}x{c}->{r_dim}");
                        let bias = vals(r_dim, 4);
                        for act in [
                            Activation::Relu,
                            Activation::Tanh,
                            Activation::Sigmoid,
                            Activation::Identity,
                        ] {
                            let epi = Some((&bias[..], act));
                            super::gemm_nt(KernelBackend::Scalar, &mut want, &w, &xs, c, epi);
                            super::gemm_nt(be, &mut got, &w, &xs, c, epi);
                            let what = format!("{be} dense {batch}x{c}->{r_dim} {act:?}");
                            assert_eq!(bits(&got), bits(&want), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn outer_t_matches_scalar_tier_bitwise() {
        for be in non_scalar() {
            for &r_dim in DIMS {
                for c in [1usize, 2, 3, 4, 5, 15] {
                    for batch in [1usize, 3, 32] {
                        // Deltas and inputs both carry exact ±0.0.
                        let a = vals(batch * r_dim, 8);
                        let b = vals(batch * c, 9);
                        let mut want = vec![0.0f32; r_dim * c];
                        let mut got = want.clone();
                        for alpha in [1.0f32, -0.5] {
                            super::outer_t(KernelBackend::Scalar, &mut want, &a, &b, alpha, c);
                            super::outer_t(be, &mut got, &a, &b, alpha, c);
                        }
                        assert_eq!(bits(&got), bits(&want), "{be} outer_t {batch}x{r_dim}x{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn backprop_matches_scalar_tier_bitwise() {
        let acts = [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ];
        for be in non_scalar() {
            for r_dim in [1usize, 3, 5, 16, 17] {
                for &c in DIMS {
                    for batch in [1usize, 5, 32] {
                        let w = vals(r_dim * c, 6);
                        let ys = vals(batch * c, 7);
                        let og = vals(batch * r_dim, 10);
                        let y_out = vals(batch * r_dim, 11);
                        for (i, &act) in acts.iter().enumerate() {
                            let head = (i % 2 == 0).then_some((&og[..], &y_out[..], acts[3 - i]));
                            let mask = (i != 3).then_some((&ys[..], act));
                            let mut want_delta = vals(batch * r_dim, 12);
                            let mut got_delta = want_delta.clone();
                            let mut want = vals(batch * c, 13);
                            let mut got = want.clone();
                            let scalar = KernelBackend::Scalar;
                            super::backprop(scalar, &mut want, &w, &mut want_delta, head, mask, c);
                            super::backprop(be, &mut got, &w, &mut got_delta, head, mask, c);
                            let what = format!("{be} backprop {batch}x{r_dim}->{c} {act:?}");
                            assert_eq!(bits(&got_delta), bits(&want_delta), "{what} delta");
                            assert_eq!(bits(&got), bits(&want), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn outer_rows_sample_matches_scalar_bitwise() {
        for be in non_scalar() {
            for &cols in LENS {
                for rows in [0usize, 1, 2, 3, 5, 8] {
                    let a = vals(rows, 8);
                    let b = vals(cols, 9);
                    let mut want = vals(rows * cols, 10);
                    let mut got = want.clone();
                    scalar::outer_rows_sample(&mut want, &a, &b, 0.37);
                    super::outer_rows_sample(be, &mut got, &a, &b, 0.37);
                    assert_eq!(bits(&got), bits(&want), "{be} outer_rows {rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn row_sums_match_scalar_bitwise() {
        for be in non_scalar() {
            for &n in LENS {
                for samples in [0usize, 1, 3, 4] {
                    let rows = vals(samples * n, 14);
                    let mut want = vals(n, 15);
                    let mut got = want.clone();
                    scalar::sum_rows(&mut want, &rows);
                    super::sum_rows(be, &mut got, &rows);
                    assert_eq!(bits(&got), bits(&want), "{be} sums n={n} s={samples}");
                }
            }
        }
    }

    #[test]
    fn relu_matches_scalar_bitwise_including_signed_zero_and_nan() {
        for be in non_scalar() {
            for &n in LENS {
                let mut xs = vals(n, 16);
                if n > 2 {
                    xs[1] = f32::from_bits(0x7fc0_1234); // NaN with payload
                }
                let mut want = xs.clone();
                let mut got = xs;
                scalar::relu(&mut want);
                super::relu(be, &mut got);
                assert_eq!(bits(&got), bits(&want), "{be} relu n={n}");
            }
        }
    }

    #[test]
    fn relu_keeps_negative_zero_and_clamps_to_positive_zero() {
        for &be in available() {
            let mut xs = vec![-0.0f32, -3.5, 0.0, 2.0, -1e-30, f32::NAN];
            super::relu(be, &mut xs);
            assert_eq!(xs[0].to_bits(), (-0.0f32).to_bits(), "{be}: -0.0 kept");
            assert_eq!(xs[1].to_bits(), 0.0f32.to_bits(), "{be}: clamp is +0.0");
            assert_eq!(xs[4].to_bits(), 0.0f32.to_bits(), "{be}: tiny negative");
            assert!(xs[5].is_nan(), "{be}: NaN preserved");
        }
    }

    /// Deterministic pseudorandom i8 values covering the full ±127 range
    /// (and never -128 — the quantizer's symmetric range).
    fn i8_vals(n: usize, seed: u32) -> Vec<i8> {
        let mut s = seed.wrapping_mul(2654435761).max(3);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                ((s % 255) as i16 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn gemm_i8_matches_scalar_exactly_across_backends() {
        // Tail sizes around the 16-wide vector body, plus degenerate dims.
        for be in non_scalar() {
            for &k in &[0usize, 1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 100] {
                for (rows, cols) in [(0usize, 3usize), (1, 1), (2, 3), (3, 5), (4, 8)] {
                    let x = i8_vals(rows * k, 21);
                    let w = i8_vals(cols * k, 22);
                    let mut want = vec![7i32; rows * cols];
                    let mut got = want.clone();
                    scalar::gemm_i8_i32(&mut want, &x, &w, k);
                    super::gemm_i8_i32(be, &mut got, &x, &w, k);
                    assert_eq!(got, want, "{be} i8 gemm {rows}x{cols} k={k}");
                }
            }
        }
    }

    #[test]
    fn gemm_i8_extreme_magnitudes_do_not_overflow() {
        // All-|127| operands at a length big enough to cross the vector
        // body: partial sums reach k·127² and must remain exact.
        let k = 1024usize;
        let x = vec![127i8; k];
        let w = vec![-127i8; k];
        let mut want = vec![0i32; 1];
        scalar::gemm_i8_i32(&mut want, &x, &w, k);
        assert_eq!(want[0], -(k as i32) * 127 * 127);
        for be in non_scalar() {
            let mut got = vec![0i32; 1];
            super::gemm_i8_i32(be, &mut got, &x, &w, k);
            assert_eq!(got, want, "{be} extreme i8 gemm");
        }
    }

    #[test]
    fn pack_i8_pairs_round_trips_and_pads_odd_tails() {
        let x = i8_vals(17, 31);
        let mut packed = Vec::new();
        super::pack_i8_pairs(&x, &mut packed);
        assert_eq!(packed.len(), 9);
        for (p, &xp) in packed.iter().enumerate() {
            let x0 = (xp & 0xFFFF) as u16 as i16;
            let x1 = (xp >> 16) as u16 as i16;
            assert_eq!(x0, i16::from(x[2 * p]));
            let want1 = x.get(2 * p + 1).copied().map_or(0, i16::from);
            assert_eq!(x1, want1, "pair {p}");
        }
        // Reuse clears previous contents.
        super::pack_i8_pairs(&[], &mut packed);
        assert!(packed.is_empty());
    }

    #[test]
    fn gemm_i8p_lanes_matches_scalar_exactly_across_backends() {
        // fan_out values around the 4- and 8-wide vector bodies, and
        // fan_in values crossing the odd-tail padding.
        for be in non_scalar() {
            for &k in &[0usize, 1, 2, 3, 4, 5, 8, 64] {
                for &fan_out in &[0usize, 1, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64] {
                    let x = i8_vals(k, 41);
                    let mut xpairs = Vec::new();
                    super::pack_i8_pairs(&x, &mut xpairs);
                    let wt = i8_vals(xpairs.len() * fan_out * 2, 42)
                        .into_iter()
                        .map(i16::from)
                        .collect::<Vec<_>>();
                    let mut want = vec![7i32; fan_out];
                    let mut got = vec![-7i32; fan_out];
                    scalar::gemm_i8p_lanes(&mut want, &xpairs, &wt, fan_out);
                    super::gemm_i8p_lanes(be, &mut got, &xpairs, &wt, fan_out);
                    assert_eq!(got, want, "{be} i8p lanes k={k} fan_out={fan_out}");
                }
            }
        }
    }

    #[test]
    fn gemm_i8p_lanes_extreme_magnitudes_stay_exact() {
        // All-|127| pairs at the documented pair bound's working size:
        // per-output sums reach pairs·2·127² and must remain exact i32.
        let pairs = 32usize;
        let fan_out = 9usize;
        let xpairs = vec![
            {
                let b = i32::from(127u16);
                b | (b << 16)
            };
            pairs
        ];
        let wt = vec![-127i16; pairs * fan_out * 2];
        let mut want = vec![0i32; fan_out];
        scalar::gemm_i8p_lanes(&mut want, &xpairs, &wt, fan_out);
        assert!(want.iter().all(|&v| v == -(pairs as i32) * 2 * 127 * 127));
        for be in non_scalar() {
            let mut got = vec![0i32; fan_out];
            super::gemm_i8p_lanes(be, &mut got, &xpairs, &wt, fan_out);
            assert_eq!(got, want, "{be} extreme i8p lanes");
        }
    }

    /// The backend dispatchers pick the VNNI instruction form whenever
    /// the host has it, which would leave the plain madd forms untested
    /// on VNNI hosts (and vice versa). Pin every compiled-in x86 int8
    /// form directly against scalar, gated on its own ISA bits.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_x86_int8_form_matches_scalar_exactly() {
        type GemmFn = unsafe fn(&mut [i32], &[i8], &[i8], usize);
        type LanesFn = unsafe fn(&mut [i32], &[i32], &[i16], usize);
        let caps = capabilities();
        let avx512 = KernelBackend::Avx512.is_available();
        let gemms: &[(&str, bool, GemmFn)] = &[
            ("sse2", caps.sse2, i8x86::sse2_gemm_i8_i32),
            ("avx2", caps.avx2, i8x86::avx2_gemm_i8_i32),
            (
                "avx-vnni",
                caps.avx2 && caps.avx_vnni,
                i8x86::avxvnni_gemm_i8_i32,
            ),
            ("avx512", avx512, i8x86::avx512_gemm_i8_i32),
            (
                "avx512-vnni",
                avx512 && caps.avx512_vnni,
                i8x86::avx512vnni_gemm_i8_i32,
            ),
        ];
        for &(label, ok, f) in gemms {
            if !ok {
                continue;
            }
            for &k in &[0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 129] {
                let x = i8_vals(2 * k, 71);
                let w = i8_vals(3 * k, 72);
                let mut want = vec![7i32; 6];
                let mut got = want.clone();
                scalar::gemm_i8_i32(&mut want, &x, &w, k);
                // SAFETY: gated on the runtime ISA bits checked above.
                unsafe { f(&mut got, &x, &w, k) };
                assert_eq!(got, want, "{label} gemm form k={k}");
            }
        }
        let lanes: &[(&str, bool, LanesFn)] = &[
            ("sse2", caps.sse2, i8x86::sse2_gemm_i8p_lanes),
            ("avx2", caps.avx2, i8x86::avx2_gemm_i8p_lanes),
            (
                "avx-vnni",
                caps.avx2 && caps.avx_vnni,
                i8x86::avxvnni_gemm_i8p_lanes,
            ),
            ("avx512", avx512, i8x86::avx512_gemm_i8p_lanes),
            (
                "avx512-vnni",
                avx512 && caps.avx512_vnni,
                i8x86::avx512vnni_gemm_i8p_lanes,
            ),
        ];
        for &(label, ok, f) in lanes {
            if !ok {
                continue;
            }
            for &k in &[0usize, 1, 4, 64, 130] {
                for &fan_out in &[0usize, 1, 7, 8, 15, 16, 17, 33] {
                    let x = i8_vals(k, 73);
                    let mut xpairs = Vec::new();
                    super::pack_i8_pairs(&x, &mut xpairs);
                    let wt = i8_vals(xpairs.len() * fan_out * 2, 74)
                        .into_iter()
                        .map(i16::from)
                        .collect::<Vec<_>>();
                    let mut want = vec![7i32; fan_out];
                    let mut got = vec![-7i32; fan_out];
                    scalar::gemm_i8p_lanes(&mut want, &xpairs, &wt, fan_out);
                    // SAFETY: gated on the runtime ISA bits checked above.
                    unsafe { f(&mut got, &xpairs, &wt, fan_out) };
                    assert_eq!(got, want, "{label} lanes form k={k} fan_out={fan_out}");
                }
            }
        }
    }

    /// The vpdpbusd offset-corrected form relies on mod-2³² wrapping:
    /// hammer it with the extreme magnitudes the k ≤ 130_000 bound
    /// allows, where the biased intermediate genuinely wraps i32.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn vpdpbusd_offset_correction_survives_wrapping() {
        let caps = capabilities();
        if !(KernelBackend::Avx512.is_available() && caps.avx512_vnni) {
            return;
        }
        for &k in &[4096usize, 65_536, 130_000] {
            for (xv, wv) in [(127i8, 127i8), (127, -127), (-127, 127), (-127, -127)] {
                let x = vec![xv; k];
                let w = vec![wv; k];
                let mut want = vec![0i32; 1];
                let mut got = vec![0i32; 1];
                scalar::gemm_i8_i32(&mut want, &x, &w, k);
                // SAFETY: gated on avx512f+bw+vnni runtime detection above.
                unsafe { i8x86::avx512vnni_gemm_i8_i32(&mut got, &x, &w, k) };
                assert_eq!(got, want, "vnni wrap k={k} x={xv} w={wv}");
            }
        }
    }

    #[test]
    fn max_abs_matches_scalar_across_backends() {
        for be in non_scalar() {
            for &n in LENS {
                let x = vals(n, 51);
                let want = scalar::max_abs_f32(&x);
                let got = super::max_abs_f32(be, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "{be} max_abs n={n}");
            }
        }
        assert_eq!(scalar::max_abs_f32(&[]), 0.0);
    }

    #[test]
    fn quantize_i8_matches_scalar_across_backends() {
        // Exact ties (x.5 products), clamp-range extremes, and negative
        // zeros all land in `vals`-derived rows once scaled.
        for be in non_scalar() {
            for &n in LENS {
                let x = vals(n, 61);
                for &inv in &[12.7f32, 0.5, 1.0, 127.0 / 10.0] {
                    let mut want = vec![3i8; n];
                    let mut got = vec![-3i8; n];
                    scalar::quantize_i8(&x, &mut want, inv);
                    super::quantize_i8(be, &x, &mut got, inv);
                    assert_eq!(got, want, "{be} quantize n={n} inv={inv}");
                }
            }
        }
    }

    #[test]
    fn quantize_rounds_half_away_and_clamps() {
        // Hand-picked points: exact ties both signs, the clamp edges, and
        // the largest f32 strictly below 0.5 (the naive +0.5 trick fails
        // there; the fraction-compare formulation must not).
        let below_half = 0.5f32 - 2.0f32.powi(-25);
        let src = [0.5f32, -0.5, 1.5, -2.5, 126.6, -300.0, below_half, 0.0];
        let want: [i8; 8] = [1, -1, 2, -3, 127, -127, 0, 0];
        for &be in available() {
            let mut got = [0i8; 8];
            super::quantize_i8(be, &src, &mut got, 1.0);
            assert_eq!(got, want, "{be} rounding/clamp table");
        }
    }

    #[test]
    fn capabilities_are_consistent_with_dispatch() {
        let caps = capabilities();
        // The dispatched backends must agree with the reported bits.
        assert_eq!(caps.avx2, KernelBackend::Avx2.is_available());
        assert_eq!(caps.sse2, KernelBackend::Sse2.is_available());
        assert_eq!(
            caps.avx512f && caps.avx512bw,
            KernelBackend::Avx512.is_available()
        );
        assert_eq!(caps.neon, KernelBackend::Neon.is_available());
        // VNNI forms imply the matching OS-enabled vector state chain.
        if caps.avx512_vnni {
            assert!(caps.avx512f, "avx512-vnni without avx512f state");
        }
        let summary = caps.summary();
        assert!(!summary.is_empty());
        if caps.avx2 {
            assert!(summary.contains("avx2"), "summary={summary}");
        }
        // Detection is cached and stable.
        assert_eq!(capabilities(), caps);
    }
}
