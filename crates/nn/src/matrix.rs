//! Row-major `f32` matrix with the small set of BLAS-like kernels the MLP
//! needs. Kept dependency-free: the controller network is tiny (4→100→5).
//!
//! Two families of kernels live here. The per-sample methods
//! (`matvec_into`, `matvec_transpose_into`, `add_outer`, `add_outer_t`)
//! are plain scalar loops faithful to a fixed-function hardware datapath
//! and define the results. The minibatch methods (`matmul_into`,
//! `add_outer_batch`, `add_outer_batch_t`) reproduce them bit for bit
//! through [`crate::simd`]: at the controller's shapes (batch 32) they
//! are bound by memory traffic, not arithmetic, so the vector tiers keep
//! every accumulator in a register across its whole inner loop and
//! never transpose a per-call activation or gradient (see the
//! [`crate::simd`] module docs).

use crate::align::AlignedVec;
use crate::simd;
use serde::{Deserialize, Serialize};

/// Dense row-major matrix.
///
/// Storage is an [`AlignedVec`], so the flat buffer (and with it every
/// `BatchScratch` matrix) starts on a 64-byte boundary. The batched
/// kernels (`matmul_into`, `add_outer_batch`, `add_outer_batch_t`)
/// dispatch through [`crate::simd`] to the backend selected at startup;
/// the per-sample methods (`matvec_into`, `matvec_transpose_into`,
/// `add_outer`, `add_outer_t`) deliberately stay scalar — they are the
/// reference semantics the batched paths are measured and bit-checked
/// against.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: AlignedVec,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: AlignedVec::zeroed(rows * cols),
        }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Build from a flat row-major slice.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self {
            rows,
            cols,
            data: AlignedVec::from_slice(&data),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data view.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = W x` (rows × cols times cols) into a preallocated `y`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (w, xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            *yr = acc;
        }
    }

    /// `y = Wᵀ x` (length-rows `x` to length-cols `y`), used by backprop.
    pub fn matvec_transpose_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length");
        assert_eq!(y.len(), self.cols, "matvec_t: y length");
        y.fill(0.0);
        for (r, &xv) in x.iter().enumerate() {
            // lint:allow(float-eq): exact-zero sparsity skip; activations are assigned 0.0 exactly, and a false negative only costs speed
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, w) in y.iter_mut().zip(row) {
                *yc += w * xv;
            }
        }
    }

    /// Rank-1 update `self += alpha * a bᵀ`, used to accumulate weight grads.
    pub fn add_outer(&mut self, alpha: f32, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.rows);
        assert_eq!(b.len(), self.cols);
        for (r, &av) in a.iter().enumerate() {
            // lint:allow(float-eq): exact-zero sparsity skip; ReLU outputs are assigned 0.0 exactly, and a false negative only costs speed
            if av == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let s = alpha * av;
            for (w, &bv) in row.iter_mut().zip(b) {
                *w += s * bv;
            }
        }
    }

    /// Reshape in place, reusing the existing allocation. New elements are
    /// zero and the flat storage keeps its prefix, so shrinking the row
    /// count at a fixed column count keeps the leading rows; any other
    /// reshape leaves surviving elements meaningless. Steady-state
    /// callers that resize to the same shape pay nothing.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Minibatch forward GEMM: `ys = xs · selfᵀ`, i.e. row `b` of `ys` is
    /// `self · xs_b` — one call replaces `B` [`Matrix::matvec_into`] calls.
    ///
    /// Every output element keeps one accumulator running the inner
    /// dimension `k` in ascending order, so the result is
    /// **bit-identical** to per-sample `matvec_into` (the determinism
    /// contract the DQN batched datapath relies on): SIMD across
    /// independent elements never reassociates a per-element sum, and
    /// Rust does not contract `a += w * x` into an FMA. The vector tiers
    /// keep each accumulator in a register for its whole `k` loop against
    /// zero-padded transposed weights, so a layer narrower than one
    /// vector (the 100→5 output layer) is one vector of output lanes and
    /// no per-call activation stage exists; see `crate::simd::gemm_nt`.
    pub fn matmul_into(&self, xs: &Matrix, ys: &mut Matrix) {
        assert_eq!(xs.cols, self.cols, "matmul: inner dimension");
        assert_eq!(ys.rows, xs.rows, "matmul: batch rows");
        assert_eq!(ys.cols, self.rows, "matmul: output cols");
        if xs.rows == 0 || self.rows == 0 {
            return;
        }
        if self.cols == 0 {
            ys.data.fill(0.0);
            return;
        }
        simd::gemm_nt(
            simd::active(),
            &mut ys.data,
            &self.data,
            &xs.data,
            self.cols,
            None,
        );
    }

    /// Batched gradient accumulation `self += alpha · aᵀ b`: the
    /// `deltaᵀ · acts` GEMM of a minibatch backward pass, for wide rows
    /// (the 5×100 output-layer gradient). Per sample it sweeps the delta
    /// entries row-major with the exact-zero skip — the traversal of
    /// [`Matrix::add_outer`] — so each element receives its contributions
    /// in ascending sample order, bit-identical to `B` sequential
    /// `add_outer` calls.
    pub fn add_outer_batch(&mut self, alpha: f32, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_outer_batch: batch rows");
        assert_eq!(a.cols, self.rows, "add_outer_batch: rows");
        assert_eq!(b.cols, self.cols, "add_outer_batch: cols");
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let be = simd::active();
        for (a_row, b_row) in a.data.chunks_exact(a.cols).zip(b.data.chunks_exact(b.cols)) {
            simd::outer_rows_sample(be, &mut self.data, a_row, b_row, alpha);
        }
    }

    /// [`Matrix::add_outer_batch`] into a gradient held **transposed**:
    /// `self` is `b.cols × a.cols` and `self[c][r] += alpha · a_r · b_c`
    /// summed over samples — the narrow-row layout (the 100×4 input-layer
    /// gradient), where each sample becomes a few long sweeps across the
    /// delta dimension instead of ~`a.cols` tiny ones. Per element the
    /// contributions arrive in sample order, bit-identical to sequential
    /// [`Matrix::add_outer_t`] calls for finite operands and power-of-two
    /// `alpha` (backprop passes 1): the kernel forms `(alpha · b_c) · a_r`
    /// and skips exact-zero `b_c` instead, and an accumulation from
    /// `+0.0` never reaches `-0.0`, so `x + ±0.0 == x` for every `x` it
    /// can hold (see `crate::simd::outer_t`).
    pub fn add_outer_batch_t(&mut self, alpha: f32, a: &Matrix, b: &Matrix) {
        assert_eq!(a.rows, b.rows, "add_outer_batch_t: batch rows");
        assert_eq!(a.cols, self.cols, "add_outer_batch_t: rows");
        assert_eq!(b.cols, self.rows, "add_outer_batch_t: cols");
        if self.rows == 0 || self.cols == 0 || a.rows == 0 {
            return;
        }
        simd::outer_t(
            simd::active(),
            &mut self.data,
            &a.data,
            &b.data,
            alpha,
            b.cols,
        );
    }

    /// Per-sample rank-1 update into a transposed gradient: `self[c][r] +=
    /// (alpha · a_r) · b_c`, skipping exact-zero `a_r` — the arithmetic of
    /// [`Matrix::add_outer`] on the layout of
    /// [`Matrix::add_outer_batch_t`].
    pub fn add_outer_t(&mut self, alpha: f32, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), self.cols);
        assert_eq!(b.len(), self.rows);
        let rows = self.cols;
        for (r, &av) in a.iter().enumerate() {
            // lint:allow(float-eq): exact-zero sparsity skip of `add_outer`; ReLU outputs are assigned 0.0 exactly, and a false negative only costs speed
            if av == 0.0 {
                continue;
            }
            let s = alpha * av;
            for (c, &bv) in b.iter().enumerate() {
                self.data[c * rows + r] += s * bv;
            }
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Set all elements to zero.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_small() {
        let w = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [0.0; 2];
        w.matvec_into(&[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, [-2.0, -2.0]);
    }

    #[test]
    fn matvec_transpose_small() {
        let w = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [0.0; 3];
        w.matvec_transpose_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_consistent_with_forward() {
        // <Wx, y> == <x, Wᵀy> for random-ish values.
        let w = Matrix::from_fn(4, 5, |r, c| (r * 5 + c) as f32 * 0.3 - 2.0);
        let x: Vec<f32> = (0..5).map(|i| i as f32 - 2.0).collect();
        let y: Vec<f32> = (0..4).map(|i| 0.5 * i as f32 + 1.0).collect();
        let mut wx = vec![0.0; 4];
        w.matvec_into(&x, &mut wx);
        let mut wty = vec![0.0; 5];
        w.matvec_transpose_into(&y, &mut wty);
        let lhs: f32 = wx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&wty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn add_outer_accumulates() {
        let mut g = Matrix::zeros(2, 2);
        g.add_outer(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(g.as_slice(), &[8.0, 10.0, 24.0, 30.0]);
        g.add_outer(1.0, &[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(g.as_slice(), &[9.0, 11.0, 24.0, 30.0]);
    }

    #[test]
    fn add_scaled_and_clear() {
        let mut a = Matrix::zeros(1, 3);
        let b = Matrix::from_rows(1, 3, vec![1.0, 2.0, 3.0]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[0.5, 1.0, 1.5]);
        a.clear();
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_rows_checks_shape() {
        let _ = Matrix::from_rows(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_per_sample_matvec_bitwise() {
        // 7 batch rows exercises both the 4-wide block and the remainder.
        let w = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32).sin());
        let xs = Matrix::from_fn(7, 3, |r, c| ((r * 7 + c) as f32 * 0.37).cos());
        let mut batched = Matrix::zeros(7, 5);
        w.matmul_into(&xs, &mut batched);
        let mut single = vec![0.0f32; 5];
        for b in 0..7 {
            w.matvec_into(xs.row(b), &mut single);
            for (a, e) in batched.row(b).iter().zip(&single) {
                assert_eq!(a.to_bits(), e.to_bits(), "row {b}");
            }
        }
    }

    #[test]
    fn add_outer_batch_matches_sequential_bitwise() {
        let a = Matrix::from_fn(6, 3, |r, c| if c == r % 3 { 0.7 - r as f32 } else { 0.0 });
        let b = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32 * 0.11 - 1.0);
        let mut batched = Matrix::zeros(3, 4);
        batched.add_outer_batch(0.5, &a, &b);
        let mut seq = Matrix::zeros(3, 4);
        for s in 0..6 {
            seq.add_outer(0.5, a.row(s), b.row(s));
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched), bits(&seq));
    }

    #[test]
    fn add_outer_batch_t_matches_sequential_transposed_bitwise() {
        // 37 delta rows: two full 16-lane tiles plus a tail; exact zeros
        // in both operands exercise both skips.
        let a = Matrix::from_fn(9, 37, |r, c| {
            if (r + c) % 4 == 0 {
                0.0
            } else {
                0.3 * c as f32 - r as f32
            }
        });
        let b = Matrix::from_fn(9, 3, |r, c| {
            if (r * 3 + c) % 5 == 0 {
                0.0
            } else {
                (r + c) as f32 * 0.17 - 0.9
            }
        });
        let mut batched = Matrix::zeros(3, 37);
        let mut seq = Matrix::zeros(3, 37);
        for _ in 0..2 {
            batched.add_outer_batch_t(1.0, &a, &b);
            for s in 0..9 {
                seq.add_outer_t(1.0, a.row(s), b.row(s));
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batched), bits(&seq));
        let mut row_major = Matrix::zeros(37, 3);
        for _ in 0..2 {
            for s in 0..9 {
                row_major.add_outer(1.0, a.row(s), b.row(s));
            }
        }
        for r in 0..37 {
            for c in 0..3 {
                assert_eq!(seq.get(c, r).to_bits(), row_major.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn matmul_handles_empty_batch() {
        let w = Matrix::from_rows(2, 3, vec![1.0; 6]);
        let xs = Matrix::zeros(0, 3);
        let mut ys = Matrix::zeros(0, 2);
        w.matmul_into(&xs, &mut ys);
        assert!(ys.is_empty());
    }

    #[test]
    fn shrinking_rows_keeps_leading_rows() {
        let mut m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        m.resize(2, 3);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn resize_reuses_and_rezeroes_len() {
        let mut m = Matrix::zeros(2, 2);
        *m.get_mut(1, 1) = 5.0;
        m.resize(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.len(), 6);
        m.resize(1, 2);
        assert_eq!(m.len(), 2);
    }
}
