//! Row-major dense matrix.

use serde::{de, Deserialize, Deserializer, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// The workspace uses [`Matrix`] for layer weights, Jacobians and zonotope
/// generator matrices. Dimensions are validated eagerly: every constructor
/// and operation panics on mismatched shapes rather than returning garbage,
/// because a shape error here is always a programming error upstream.
///
/// ```
/// use napmon_tensor::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "from_rows: row {i} has length {} != {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix that owns `data`, interpreted row-major.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {} elements for {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `A * x`.
    ///
    /// Each `y[r]` starts at `0.0` and adds `A[r][c] * x[c]` for
    /// `c = 0, 1, …` in turn: no fused multiply-add, no reassociation. This
    /// plain loop is the reference order the dense kernel
    /// ([`Matrix::matvec_transposed_batch_into`]) keeps bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: input dimension");
        let dot = |row: &[f64]| row.iter().zip(x).fold(0.0, |acc, (w, xv)| acc + w * xv);
        (0..self.rows).map(|r| dot(self.row(r))).collect()
    }

    /// Transposed matrix-vector product `A^T * x`: the one-input, no-bias
    /// case of [`Matrix::matvec_transposed_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.matvec_transposed_batch_into(x, 1, None, &mut y);
        y
    }

    /// The dense kernel: `A^T x_i + b` over a batch. `xs` holds `n` inputs
    /// of `self.rows()` values each, row-major; `ys` (resized to
    /// `n * self.cols()`) receives the outputs in the same order, and
    /// `bias = None` leaves `b` out. A dense layer calls it on its
    /// transposed weights, where one input coordinate's weights for every
    /// output are contiguous.
    ///
    /// Output `j` starts at `0.0`, adds `A[c][j] * x_i[c]` for
    /// `c = 0, 1, …` in turn, then adds `b[j]`: the order of
    /// [`Matrix::matvec`] on `A^T`, with no fused multiply-add, so every
    /// batch size and batch position gives the same bits. The vector lanes
    /// run across outputs. The loop is compiled twice, each copy taking two
    /// inputs per pass: 8 lanes for any CPU, and 16 for AVX2, which runs
    /// where the CPU has it. Neither allocates once `ys` has grown.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n * self.rows()` or a bias does not have
    /// `self.cols()` entries.
    pub fn matvec_transposed_batch_into(
        &self,
        xs: &[f64],
        n: usize,
        bias: Option<&[f64]>,
        ys: &mut Vec<f64>,
    ) {
        self.transposed_affine(xs, n, bias, ys, true);
    }

    /// [`Matrix::matvec_transposed_batch_into`] on the AVX2 copy of the
    /// loop when `simd` is set and the CPU has AVX2, on the portable copy
    /// otherwise. The kernel tests pin each copy on its own.
    fn transposed_affine(
        &self,
        xs: &[f64],
        n: usize,
        bias: Option<&[f64]>,
        ys: &mut Vec<f64>,
        simd: bool,
    ) {
        let (rows, cols) = (self.rows, self.cols);
        let len = n.checked_mul(rows).expect("matvec: batch size overflow");
        assert_eq!(
            xs.len(),
            len,
            "matvec: input length {} != {n} x rows {rows}",
            xs.len()
        );
        if let Some(b) = bias {
            assert_eq!(
                b.len(),
                cols,
                "matvec: bias length {} != cols {cols}",
                b.len()
            );
        }
        ys.clear();
        ys.resize(
            n.checked_mul(cols).expect("matvec: output size overflow"),
            0.0,
        );
        if simd {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `affine_avx2` enables no target feature but
                // AVX2, and the check just above found AVX2 on this CPU.
                unsafe { affine_avx2(self, xs, n, bias, ys) };
                return;
            }
        }
        affine::<8, 2>(self, xs, n, bias, ys);
    }

    /// Matrix product `self * rhs`.
    ///
    /// Iterates i-k-j (row of `self`, then contraction index, then column
    /// of `rhs`) with both inner slices hoisted, so the innermost loop is a
    /// bounds-check-free axpy over contiguous memory.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return out; // degenerate shapes: chunks_exact needs width > 0
        }
        for (lhs_row, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(rhs.cols))
        {
            for (&a, rhs_row) in lhs_row.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Adds `rhs` scaled by `alpha` in place (`self += alpha * rhs`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "axpy: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }
}

/// The dense kernel's AVX2 copy: 16 lanes (four 256-bit registers) per
/// input, two inputs per pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn affine_avx2(m: &Matrix, xs: &[f64], n: usize, bias: Option<&[f64]>, ys: &mut [f64]) {
    affine::<16, 2>(m, xs, n, bias, ys);
}

/// The loop of [`Matrix::matvec_transposed_batch_into`], with `ys` already
/// at its final length: inputs `B` at a time and then one at a time, each
/// pass over outputs `L` at a time and then one at a time.
#[inline(always)]
fn affine<const L: usize, const B: usize>(
    m: &Matrix,
    xs: &[f64],
    n: usize,
    bias: Option<&[f64]>,
    ys: &mut [f64],
) {
    let inputs = n - n % B;
    let outputs = m.cols - m.cols % L;
    for i in (0..inputs).step_by(B) {
        for j in (0..outputs).step_by(L) {
            block::<L, B>(m, xs, i, j, bias, ys);
        }
        for j in outputs..m.cols {
            block::<1, B>(m, xs, i, j, bias, ys);
        }
    }
    for i in inputs..n {
        for j in (0..outputs).step_by(L) {
            block::<L, 1>(m, xs, i, j, bias, ys);
        }
        for j in outputs..m.cols {
            block::<1, 1>(m, xs, i, j, bias, ys);
        }
    }
}

/// One register block of the dense kernel: outputs `j..j + L` of inputs
/// `i..i + B`. Lane `l` owns output `j + l`, so each row's `L` weights load
/// as one contiguous run; each of the `B x L` accumulators starts at `0.0`
/// and adds its products in row order. Every slice is bounds-checked, so a
/// malformed operand panics.
#[inline(always)]
fn block<const L: usize, const B: usize>(
    m: &Matrix,
    xs: &[f64],
    i: usize,
    j: usize,
    bias: Option<&[f64]>,
    ys: &mut [f64],
) {
    let (rows, cols) = (m.rows, m.cols);
    // Slicing every input to one known length lets the loop below index
    // it without per-element bounds checks.
    let x: [&[f64]; B] = std::array::from_fn(|k| &xs[(i + k) * rows..][..rows]);
    let mut acc = [[0.0; L]; B];
    for c in 0..rows {
        let w = &m.data[c * cols + j..][..L];
        for (acc_k, x_k) in acc.iter_mut().zip(&x) {
            let xc = x_k[c];
            for (a, wl) in acc_k.iter_mut().zip(w) {
                *a += wl * xc;
            }
        }
    }
    for (k, acc_k) in acc.iter().enumerate() {
        let y = &mut ys[(i + k) * cols + j..][..L];
        for (l, (y, &a)) in y.iter_mut().zip(acc_k).enumerate() {
            *y = bias.map_or(a, |b| a + b[j + l]);
        }
    }
}

/// A matrix as it is serialized, checked before it becomes a [`Matrix`].
#[derive(Deserialize)]
struct MatrixFields {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Refuses a matrix whose `data` does not hold exactly `rows x cols`
/// values, so every [`Matrix`], loaded ones included, does.
impl<'de> Deserialize<'de> for Matrix {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let MatrixFields { rows, cols, data } = MatrixFields::deserialize(deserializer)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(de::Error::custom(format!(
                "matrix of {rows}x{cols} holds {} values",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self.data[r * self.cols + c])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;
    use proptest::prelude::*;

    /// The single-accumulator loop every dense output was computed with
    /// before the batch kernels: the reference they must match bit for bit.
    fn reference_affine(m: &Matrix, x: &[f64], bias: Option<&[f64]>) -> Vec<f64> {
        (0..m.rows())
            .map(|r| {
                let mut acc = 0.0;
                for (w, xv) in m.row(r).iter().zip(x) {
                    acc += w * xv;
                }
                bias.map_or(acc, |b| acc + b[r])
            })
            .collect()
    }

    /// Draws an entry: ordinary values, with one in `special_every` drawn
    /// from signed zeros, subnormals, infinities and NaN (never, for 0).
    fn entry(rng: &mut Prng, special_every: usize) -> f64 {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            -2.5e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        if special_every > 0 && rng.index(special_every) == 0 {
            SPECIAL[rng.index(SPECIAL.len())]
        } else {
            rng.uniform(-4.0, 4.0)
        }
    }

    /// Checks the dense kernel on `A^T` against [`reference_affine`] on a
    /// `rows x cols` matrix `A`, bit for bit: both copies of the loop (the
    /// portable one, and the AVX2 one where the CPU has it), with and
    /// without a bias, every input of the batch; then `matvec` and
    /// `matvec_transposed` on each input alone.
    fn check_bit_identity(rows: usize, cols: usize, n: usize, special_every: usize, seed: u64) {
        let mut rng = Prng::seed(seed);
        let mut draw =
            |len: usize| -> Vec<f64> { (0..len).map(|_| entry(&mut rng, special_every)).collect() };
        let m = Matrix::from_vec(rows, cols, draw(rows * cols));
        let t = m.transpose();
        let xs = draw(n * cols);
        let bias = draw(rows);
        // Bit patterns, with every NaN folded into one: Rust leaves the sign
        // and payload of a NaN result unspecified (the compiler may commute
        // an add or a multiply, and x86 then propagates the other operand's
        // NaN), and no consumer reads them, since every threshold
        // comparison is false for any NaN.
        let bits = |v: &[f64]| {
            v.iter()
                .map(|f| if f.is_nan() { u64::MAX } else { f.to_bits() })
                .collect::<Vec<_>>()
        };
        let mut ys = Vec::new();
        for simd in [false, true] {
            for b in [None, Some(bias.as_slice())] {
                t.transposed_affine(&xs, n, b, &mut ys, simd);
                assert_eq!(ys.len(), n * rows);
                for i in 0..n {
                    let x = &xs[i * cols..(i + 1) * cols];
                    assert_eq!(
                        bits(&ys[i * rows..(i + 1) * rows]),
                        bits(&reference_affine(&m, x, b)),
                        "{rows}x{cols}, batch of {n}, input {i}, bias {}, simd {simd}",
                        b.is_some()
                    );
                }
            }
        }
        for i in 0..n {
            let x = &xs[i * cols..(i + 1) * cols];
            let want = bits(&reference_affine(&m, x, None));
            assert_eq!(bits(&m.matvec(x)), want);
            assert_eq!(bits(&t.matvec_transposed(x)), want);
        }
    }

    #[test]
    fn batch_kernel_matches_reference_on_every_block_remainder() {
        // Every output count mod 8 and mod 16 (the two copies' lane
        // counts), every batch size mod 2, and the degenerate 0-column
        // matrix.
        for rows in 0..=67 {
            for cols in [0, 1, 3, 67] {
                for n in 0..=9 {
                    check_bit_identity(rows, cols, n, 16, (rows * 1000 + cols * 10 + n) as u64);
                }
            }
        }
    }

    #[test]
    fn batch_kernel_of_zero_columns_is_the_bias() {
        // `A` is 3x0, so the kernel reads its 0x3 transpose.
        let t = Matrix::zeros(0, 3);
        let mut ys = vec![9.0];
        for simd in [false, true] {
            t.transposed_affine(&[], 2, Some(&[1.0, -0.0, 2.0]), &mut ys, simd);
            assert_eq!(ys, vec![1.0, 0.0, 2.0, 1.0, 0.0, 2.0]);
            t.transposed_affine(&[], 0, None, &mut ys, simd);
            assert!(ys.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn batch_kernel_rejects_a_ragged_batch() {
        Matrix::zeros(3, 2).matvec_transposed_batch_into(&[1.0; 5], 2, None, &mut Vec::new());
    }

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_entries() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        assert_eq!(a.matvec(&[3.0, 4.0]), vec![-1.0, 8.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, -1.0, 0.5], &[2.0, 0.5, -3.0]]);
        let x = [3.0, 4.0];
        assert_eq!(a.matvec_transposed(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::identity(2);
        a.axpy(2.5, &b);
        assert_eq!(a[(0, 0)], 2.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_row_major_triples() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]
        );
    }

    proptest! {
        #[test]
        fn batch_kernel_is_bit_identical_to_single_accumulator_loop(
            rows in 0usize..=67,
            cols in 0usize..=67,
            n in 0usize..=9,
            special_every in 0usize..=8,
            seed in 0u64..u64::MAX,
        ) {
            check_bit_identity(rows, cols, n, special_every, seed);
        }

        #[test]
        fn matmul_associates_with_matvec(
            a in proptest::collection::vec(-10.0..10.0f64, 6),
            b in proptest::collection::vec(-10.0..10.0f64, 6),
            x in proptest::collection::vec(-10.0..10.0f64, 2),
        ) {
            // (A * B) x == A (B x) with A: 2x3, B: 3x2, x: len 2.
            let a = Matrix::from_vec(2, 3, a);
            let b = Matrix::from_vec(3, 2, b);
            let lhs = a.matmul(&b).matvec(&x);
            let rhs = a.matvec(&b.matvec(&x));
            for (l, r) in lhs.iter().zip(&rhs) {
                prop_assert!((l - r).abs() <= 1e-9 * (1.0 + l.abs().max(r.abs())));
            }
        }

        #[test]
        fn transpose_swaps_indices(
            data in proptest::collection::vec(-5.0..5.0f64, 12),
            r in 0usize..3,
            c in 0usize..4,
        ) {
            let m = Matrix::from_vec(3, 4, data);
            prop_assert_eq!(m.transpose()[(c, r)], m[(r, c)]);
        }
    }
}
