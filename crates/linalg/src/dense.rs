//! Row-major dense `f32` matrix.
//!
//! [`DenseMatrix`] is the one dense matrix type in the workspace. Its
//! elements are either owned, or an immutable buffer shared with other
//! matrices and with the graph store that deploys them: a decoded graph's
//! feature rows are read in place by every deployment of it, and the first
//! write to a shared matrix copies it. Feature matrices are tall (many
//! nodes) and skinny (small feature dim), classifier weights are small
//! squares, so the matmul kernel parallelises over left rows with an
//! `(i, k, j)` loop order that streams both operands sequentially.

use crate::parallel::par_rows_mut;
use crate::{LinalgError, Result};
use std::sync::Arc;

/// Where a matrix keeps its elements.
#[derive(Clone)]
enum Storage {
    /// A buffer the matrix owns and writes in place.
    Owned(Vec<f32>),
    /// An immutable buffer other holders may share; any write first
    /// copies it into an owned one.
    Shared(Arc<[f32]>),
}

/// Row-major dense matrix of `f32`.
///
/// [`Clone`] copies owned elements and shares shared ones; [`PartialEq`]
/// compares shape and contents, however either side stores them.
#[derive(Clone)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl PartialEq for DenseMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseMatrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Default for DenseMatrix {
    /// An empty `0 × 0` matrix (useful as a reusable buffer seed; see
    /// [`DenseMatrix::reset_zeroed`]).
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Builds a matrix over a shared row-major buffer, without copying
    /// it. The matrix never writes to `data`: its first write copies it.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_shared(rows: usize, cols: usize, data: Arc<[f32]>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Storage::Shared(data),
        }
    }

    /// The elements as one shared row-major buffer: this matrix's own
    /// when its storage is shared, else a copy.
    pub fn to_shared(&self) -> Arc<[f32]> {
        match &self.data {
            Storage::Owned(v) => Arc::from(v.as_slice()),
            Storage::Shared(s) => Arc::clone(s),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        match &self.data {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s,
        }
    }

    /// The owned buffer, copied out of a shared one first.
    #[inline]
    fn data_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared(s) = &self.data {
            self.data = Storage::Owned(s.to_vec());
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("copied out above"),
        }
    }

    /// Flat mutable row-major view of the data (copied out of shared
    /// storage first).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut()
    }

    /// Consumes the matrix, returning its buffer (a copy only when the
    /// storage is shared).
    pub fn into_vec(self) -> Vec<f32> {
        match self.data {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.to_vec(),
        }
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of {}", self.rows);
        &self.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of {}", self.rows);
        let cols = self.cols;
        &mut self.data_mut()[r * cols..(r + 1) * cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.as_slice()[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols;
        self.data_mut()[r * cols + c] = v;
    }

    /// Reshapes the matrix in place to `rows × cols`, zero-filling every
    /// element. Reuses the existing buffer capacity, so hot loops can
    /// recycle one matrix across iterations without reallocating; shared
    /// storage is let go, not copied.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        match &mut self.data {
            Storage::Owned(v) => {
                v.clear();
                v.resize(rows * cols, 0.0);
            }
            Storage::Shared(_) => self.data = Storage::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Reshapes the matrix in place to `rows × cols` **without** clearing
    /// retained elements (newly grown space is zeroed; anything else
    /// keeps its previous, now-stale value). For buffers whose every read
    /// row is unconditionally written first — skips
    /// [`Self::reset_zeroed`]'s full memset on the hot path. Shared
    /// storage is let go for a zeroed buffer, not copied.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        match &mut self.data {
            Storage::Owned(v) => v.resize(rows * cols, 0.0),
            Storage::Shared(_) => self.data = Storage::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Copies the given rows into a new matrix (gather).
    ///
    /// # Errors
    /// Returns [`LinalgError::IndexOutOfBounds`] if any index exceeds the
    /// row count.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: src,
                    len: self.rows,
                });
            }
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Errors
    /// Returns a shape mismatch if the row counts differ.
    pub fn hconcat(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hconcat",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Horizontal concatenation of several matrices with equal row counts.
    pub fn hconcat_all(parts: &[&DenseMatrix]) -> Result<DenseMatrix> {
        assert!(!parts.is_empty(), "hconcat_all needs at least one part");
        let rows = parts[0].rows;
        let total: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = DenseMatrix::zeros(rows, total);
        for p in parts {
            if p.rows != rows {
                return Err(LinalgError::ShapeMismatch {
                    op: "hconcat_all",
                    lhs: (rows, 0),
                    rhs: p.shape(),
                });
            }
        }
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                orow[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        let (src, dst) = (self.as_slice(), out.data_mut());
        // Block the transpose to stay cache-friendly for large matrices.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        dst[c * self.rows + r] = src[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self × rhs`, parallel over left rows.
    ///
    /// # Errors
    /// Returns a shape mismatch if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        let (lcols, rcols) = (self.cols, rhs.cols);
        let lhs_data = self.as_slice();
        let rhs_data = rhs.as_slice();
        par_rows_mut(
            out.as_mut_slice(),
            rcols.max(1),
            lcols * rcols,
            |row0, chunk| {
                for (r_off, orow) in chunk.chunks_mut(rcols).enumerate() {
                    let r = row0 + r_off;
                    let arow = &lhs_data[r * lcols..(r + 1) * lcols];
                    // (i, k, j): stream rhs rows sequentially, accumulate into orow.
                    for (k, &a) in arow.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let brow = &rhs_data[k * rcols..(k + 1) * rcols];
                        for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                            *o += a * b;
                        }
                    }
                }
            },
        );
        Ok(out)
    }

    /// `self × rhsᵀ` without materialising the transpose — used by backprop
    /// (`dX = dY × Wᵀ`).
    pub fn matmul_transpose_rhs(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_rhs",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.rows);
        let (inner, ocols) = (self.cols, rhs.rows);
        let lhs_data = self.as_slice();
        let rhs_data = rhs.as_slice();
        par_rows_mut(
            out.as_mut_slice(),
            ocols.max(1),
            inner * ocols,
            |row0, chunk| {
                for (r_off, orow) in chunk.chunks_mut(ocols).enumerate() {
                    let r = row0 + r_off;
                    let arow = &lhs_data[r * inner..(r + 1) * inner];
                    for (j, o) in orow.iter_mut().enumerate() {
                        let brow = &rhs_data[j * inner..(j + 1) * inner];
                        let mut acc = 0.0f32;
                        for (&a, &b) in arow.iter().zip(brow.iter()) {
                            acc += a * b;
                        }
                        *o = acc;
                    }
                }
            },
        );
        Ok(out)
    }

    /// `selfᵀ × rhs` without materialising the transpose — used by backprop
    /// (`dW = Xᵀ × dY`). Sequential: weight-gradient shapes are small.
    pub fn transpose_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = rhs.row(r);
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.as_mut_slice()[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Element-wise in-place addition.
    ///
    /// # Errors
    /// Returns a shape mismatch if dimensions differ.
    pub fn add_assign(&mut self, rhs: &DenseMatrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * rhs` (axpy).
    ///
    /// # Errors
    /// Returns a shape mismatch if dimensions differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &DenseMatrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        for v in self.as_mut_slice() {
            *v *= alpha;
        }
    }

    /// Adds a bias row vector to every row.
    ///
    /// # Panics
    /// Panics if `bias.len() != self.cols`.
    pub fn add_bias_row(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        let cols = self.cols;
        for row in self.as_mut_slice().chunks_mut(cols) {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (`0.0` for empty matrices).
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.as_slice().iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn approx_eq(a: &DenseMatrix, b: &DenseMatrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn matmul_matches_naive() {
        let a = DenseMatrix::from_fn(7, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 1.0);
        let b = DenseMatrix::from_fn(5, 3, |r, c| (r as f32 - c as f32) * 0.3);
        let got = a.matmul(&b).unwrap();
        assert!(approx_eq(&got, &naive_matmul(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_fn(4, 4, |r, c| (r + 2 * c) as f32);
        let got = a.matmul(&DenseMatrix::eye(4)).unwrap();
        assert!(approx_eq(&got, &a, 0.0));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_transpose_rhs_matches_explicit_transpose() {
        let a = DenseMatrix::from_fn(6, 4, |r, c| ((r * c) as f32).sin());
        let b = DenseMatrix::from_fn(5, 4, |r, c| ((r + c) as f32).cos());
        let got = a.matmul_transpose_rhs(&b).unwrap();
        let want = a.matmul(&b.transpose()).unwrap();
        assert!(approx_eq(&got, &want, 1e-5));
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = DenseMatrix::from_fn(6, 4, |r, c| (r as f32 * 0.5 - c as f32).tanh());
        let b = DenseMatrix::from_fn(6, 3, |r, c| ((r + 7 * c) % 5) as f32);
        let got = a.transpose_matmul(&b).unwrap();
        let want = a.transpose().matmul(&b).unwrap();
        assert!(approx_eq(&got, &want, 1e-5));
    }

    #[test]
    fn transpose_is_involution() {
        let a = DenseMatrix::from_fn(9, 13, |r, c| (r * 13 + c) as f32);
        assert!(approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = DenseMatrix::from_fn(5, 2, |r, _| r as f32);
        let g = a.gather_rows(&[4, 0, 2]).unwrap();
        assert_eq!(g.row(0), &[4.0, 4.0]);
        assert_eq!(g.row(1), &[0.0, 0.0]);
        assert_eq!(g.row(2), &[2.0, 2.0]);
    }

    #[test]
    fn gather_rows_out_of_bounds() {
        let a = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            a.gather_rows(&[3]),
            Err(LinalgError::IndexOutOfBounds { index: 3, len: 3 })
        ));
    }

    #[test]
    fn hconcat_concatenates_columns() {
        let a = DenseMatrix::from_fn(2, 2, |_, _| 1.0);
        let b = DenseMatrix::from_fn(2, 3, |_, _| 2.0);
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.row(0), &[1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn hconcat_all_matches_pairwise() {
        let a = DenseMatrix::from_fn(3, 1, |r, _| r as f32);
        let b = DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let c = DenseMatrix::from_fn(3, 1, |_, _| 9.0);
        let all = DenseMatrix::hconcat_all(&[&a, &b, &c]).unwrap();
        let pair = a.hconcat(&b).unwrap().hconcat(&c).unwrap();
        assert!(approx_eq(&all, &pair, 0.0));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = DenseMatrix::from_fn(2, 2, |_, _| 1.0);
        let b = DenseMatrix::from_fn(2, 2, |_, _| 2.0);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.row(0), &[2.0, 2.0]);
        a.scale(2.0);
        assert_eq!(a.row(1), &[4.0, 4.0]);
    }

    #[test]
    fn add_bias_row_adds_to_each_row() {
        let mut a = DenseMatrix::zeros(3, 2);
        a.add_bias_row(&[1.0, -1.0]);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn non_finite_detection() {
        let mut a = DenseMatrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    /// A 3 × 4 matrix over a shared buffer, and that buffer.
    fn shared_3x4() -> (DenseMatrix, Arc<[f32]>) {
        let buf: Arc<[f32]> = (0..12).map(|v| v as f32).collect();
        (DenseMatrix::from_shared(3, 4, Arc::clone(&buf)), buf)
    }

    /// The owned buffer's capacity, or `None` while storage is shared.
    fn owned_capacity(m: &DenseMatrix) -> Option<usize> {
        match &m.data {
            Storage::Owned(v) => Some(v.capacity()),
            Storage::Shared(_) => None,
        }
    }

    #[test]
    fn writes_to_a_shared_clone_copy_it_first() {
        let (original, buf) = shared_3x4();
        let ones = DenseMatrix::from_fn(3, 4, |_, _| 1.0);
        type Write = fn(&mut DenseMatrix, &DenseMatrix);
        let writes: [(&str, Write); 5] = [
            ("row_mut", |m, _| m.row_mut(1).fill(-1.0)),
            ("as_mut_slice", |m, _| m.as_mut_slice()[0] = 7.0),
            ("set", |m, _| m.set(2, 3, 0.5)),
            ("scale", |m, _| m.scale(2.0)),
            ("add_assign", |m, ones| m.add_assign(ones).unwrap()),
        ];
        for (name, write) in writes {
            let mut copy = original.clone();
            assert!(
                Arc::ptr_eq(&copy.to_shared(), &buf),
                "{name}: a clone shares"
            );
            write(&mut copy, &ones);
            assert!(owned_capacity(&copy).is_some(), "{name}: the write owns");
            assert_ne!(copy, original, "{name}");
            assert_eq!(original.as_slice(), &*buf, "{name}: original unchanged");
            assert!(Arc::ptr_eq(&original.to_shared(), &buf));
        }
    }

    #[test]
    fn resetting_a_shared_matrix_lets_it_go_without_a_copy() {
        for overwrite in [false, true] {
            let (mut m, buf) = shared_3x4();
            if overwrite {
                m.reset_for_overwrite(1, 2);
            } else {
                m.reset_zeroed(1, 2);
            }
            // A copy would have kept the 12 elements' capacity.
            assert_eq!(owned_capacity(&m), Some(2), "overwrite {overwrite}");
            assert_eq!(m.as_slice(), &[0.0, 0.0]);
            assert_eq!(Arc::strong_count(&buf), 1, "the shared buffer is let go");
        }
    }

    #[test]
    fn shared_and_owned_storage_compare_by_contents() {
        let (shared, buf) = shared_3x4();
        let owned = DenseMatrix::from_vec(3, 4, buf.to_vec());
        assert_eq!(shared, owned);
        assert_eq!(owned, shared);
        assert_ne!(shared, DenseMatrix::from_vec(4, 3, buf.to_vec()), "shape");
        assert_eq!(shared.row(2), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(shared.get(1, 1), 5.0);
    }

    #[test]
    fn into_vec_and_to_shared_copy_only_across_storage_kinds() {
        let v = vec![1.0f32; 6];
        let ptr = v.as_ptr();
        let owned = DenseMatrix::from_vec(2, 3, v);
        let as_shared = owned.to_shared();
        assert_ne!(as_shared.as_ptr(), ptr, "owned → shared copies");
        let back = owned.into_vec();
        assert_eq!(back.as_ptr(), ptr, "owned → Vec moves");
        let (shared, buf) = shared_3x4();
        assert!(Arc::ptr_eq(&shared.to_shared(), &buf), "shared → shared");
        assert_eq!(shared.into_vec(), buf.to_vec());
    }

    #[test]
    fn zero_sized_matmul() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (0, 2));
    }
}
