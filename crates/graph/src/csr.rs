//! Compressed sparse row matrix with the SpMM kernel that powers feature
//! propagation.

use crate::{GraphError, Result};
use nai_linalg::parallel::par_rows_mut;
use nai_linalg::DenseMatrix;
use std::ops::Range;
use std::sync::Arc;

/// Square sparse matrix in CSR form.
///
/// Immutable once built: its three arrays sit behind [`Arc`]s, so
/// [`Clone`] shares them (a deployed graph store reads a decoded graph's
/// adjacency in place).
///
/// Invariants (checked by constructors, relied on everywhere):
/// * `indptr.len() == n + 1`, `indptr[0] == 0`, monotonically non-decreasing;
/// * `indices[indptr[i]..indptr[i+1]]` sorted ascending, no duplicates,
///   all `< n`;
/// * `values.len() == indices.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    indptr: Arc<[usize]>,
    indices: Arc<[u32]>,
    values: Arc<[f32]>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO triplets, summing duplicates.
    ///
    /// # Errors
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn from_coo(n: usize, triplets: &[(u32, u32, f32)]) -> Result<Self> {
        let (indptr, indices, values) = Self::coo_arrays(n, triplets)?;
        Ok(Self::from_canonical(
            n,
            indptr.into(),
            indices.into(),
            values.into(),
        ))
    }

    /// [`Self::from_coo`]'s three arrays, before they are shared.
    fn coo_arrays(
        n: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<(Vec<usize>, Vec<u32>, Vec<f32>)> {
        for &(r, c, _) in triplets {
            if r as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: r,
                    num_nodes: n,
                });
            }
            if c as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: c,
                    num_nodes: n,
                });
            }
        }
        // Counting sort by row, then sort each row segment by column.
        let mut counts = vec![0usize; n + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0f32; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let slot = cursor[r as usize];
            cols[slot] = c;
            vals[slot] = v;
            cursor[r as usize] += 1;
        }
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut out_cols: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut out_vals: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for i in 0..n {
            scratch.clear();
            scratch.extend(
                cols[counts[i]..counts[i + 1]]
                    .iter()
                    .copied()
                    .zip(vals[counts[i]..counts[i + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut last: Option<u32> = None;
            for &(c, v) in scratch.iter() {
                if last == Some(c) {
                    // Duplicate entry: accumulate.
                    *out_vals.last_mut().expect("non-empty on duplicate") += v;
                } else {
                    out_cols.push(c);
                    out_vals.push(v);
                    last = Some(c);
                }
            }
            indptr.push(out_cols.len());
        }
        Ok((indptr, out_cols, out_vals))
    }

    /// Whether CSR arrays with `n` rows already hold this type's
    /// invariants, so that [`Self::from_coo`] would return them as they
    /// are.
    pub(crate) fn is_canonical(n: usize, indptr: &[usize], indices: &[u32]) -> bool {
        indptr.len() == n + 1
            && indptr[0] == 0
            && indptr[n] == indices.len()
            && Self::check_rows(n, indptr, indices, 0..n) == Ok(true)
    }

    /// Checks `rows` of CSR arrays with `n` columns: `Err` with the first
    /// row whose end pointer precedes its start or passes the last entry,
    /// else whether every row holds strictly increasing columns below
    /// `n`. Each row's start is the previous row's end, so the ranges of
    /// a split check the same rows as one whole.
    pub(crate) fn check_rows(
        n: usize,
        indptr: &[usize],
        indices: &[u32],
        rows: Range<usize>,
    ) -> std::result::Result<bool, usize> {
        let mut canonical = true;
        for r in rows {
            let (start, end) = (indptr[r], indptr[r + 1]);
            if end < start || end > indices.len() {
                return Err(r);
            }
            let row = &indices[start..end];
            canonical = canonical
                && row.windows(2).all(|p| p[0] < p[1])
                && row.last().is_none_or(|&c| (c as usize) < n);
        }
        Ok(canonical)
    }

    /// Adopts arrays for which [`Self::is_canonical`] holds, and
    /// `values.len() == indices.len()`.
    pub(crate) fn from_canonical(
        n: usize,
        indptr: Arc<[usize]>,
        indices: Arc<[u32]>,
        values: Arc<[f32]>,
    ) -> Self {
        debug_assert!(Self::is_canonical(n, &indptr, &indices));
        debug_assert_eq!(values.len(), indices.len());
        Self {
            n,
            indptr,
            indices,
            values,
        }
    }

    /// Builds an **undirected, unweighted** adjacency matrix from an edge
    /// list. Each `(u, v)` with `u != v` contributes entries in both
    /// directions with value `1.0`; self-edges and duplicates collapse to a
    /// single unit entry (simple-graph semantics).
    ///
    /// # Errors
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn undirected_adjacency(n: usize, edges: &[(u32, u32)]) -> Result<Self> {
        let mut trip = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u == v {
                continue; // simple graph: drop self loops
            }
            trip.push((u, v, 1.0));
            trip.push((v, u, 1.0));
        }
        let (indptr, indices, mut values) = Self::coo_arrays(n, &trip)?;
        // Duplicates were summed; clamp back to unit weights.
        values.fill(1.0);
        Ok(Self::from_canonical(
            n,
            indptr.into(),
            indices.into(),
            values.into(),
        ))
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (`n + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, concatenated per row.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Entry values, parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// `(column, value)` iterator over row `i`.
    #[inline]
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `i` (the node degree for adjacency
    /// matrices).
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Degrees of every node (row nnz), as f32.
    pub fn degrees(&self) -> Vec<f32> {
        (0..self.n).map(|i| self.row_nnz(i) as f32).collect()
    }

    /// Sparse × dense product `self × rhs`, parallel over output rows.
    ///
    /// This is the feature-propagation kernel: one call per propagation
    /// depth, `O(nnz · f)` multiply-accumulates.
    ///
    /// # Panics
    /// Panics if `rhs.rows() != self.n()`.
    pub fn spmm(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            rhs.rows(),
            self.n,
            "spmm: rhs has {} rows, matrix is {}x{}",
            rhs.rows(),
            self.n,
            self.n
        );
        let f = rhs.cols();
        let mut out = DenseMatrix::zeros(self.n, f);
        if f == 0 {
            return out;
        }
        let avg_nnz = self.nnz().div_ceil(self.n.max(1));
        let rhs_data = rhs.as_slice();
        par_rows_mut(out.as_mut_slice(), f, avg_nnz * f, |row0, chunk| {
            for (off, orow) in chunk.chunks_mut(f).enumerate() {
                let i = row0 + off;
                for (j, w) in self.row_iter(i) {
                    let src = &rhs_data[j as usize * f..(j as usize + 1) * f];
                    for (o, &x) in orow.iter_mut().zip(src.iter()) {
                        *o += w * x;
                    }
                }
            }
        });
        out
    }

    /// Sparse × dense restricted to a subset of output rows.
    ///
    /// `out_rows[t]` is the global row whose product lands in output row
    /// `t`; `col_map[j]` gives the row of `rhs` holding the value for global
    /// column `j` (or `u32::MAX` when absent — those columns are skipped,
    /// which the inference engine uses when boundary values are provably
    /// unneeded). Returns the dense result plus the number of
    /// multiply-accumulate operations actually performed.
    pub fn spmm_gather(
        &self,
        out_rows: &[u32],
        col_map: &[u32],
        rhs: &DenseMatrix,
    ) -> (DenseMatrix, u64) {
        let mut out = DenseMatrix::zeros(out_rows.len(), rhs.cols());
        let macs = self.spmm_gather_into(out_rows, col_map, rhs, &mut out, false);
        (out, macs)
    }

    /// [`Self::spmm_gather`] into a caller-owned output buffer (resized
    /// and zeroed in place), optionally parallel over output rows.
    ///
    /// Each output row depends only on its own adjacency row, so the
    /// parallel path is **bit-identical** with the serial one — `parallel`
    /// trades threads for wall-clock without perturbing results or the
    /// returned MAC count. Small frontiers fall back to the serial loop
    /// (see [`nai_linalg::parallel::thread_count`]).
    pub fn spmm_gather_into(
        &self,
        out_rows: &[u32],
        col_map: &[u32],
        rhs: &DenseMatrix,
        out: &mut DenseMatrix,
        parallel: bool,
    ) -> u64 {
        let f = rhs.cols();
        out.reset_zeroed(out_rows.len(), f);
        let rhs_data = rhs.as_slice();
        let avg_nnz = self.nnz().div_ceil(self.n.max(1));
        let threads = if parallel && f > 0 && !out_rows.is_empty() {
            nai_linalg::parallel::thread_count(out_rows.len() * avg_nnz.max(1) * f)
        } else {
            1
        };
        if threads <= 1 {
            let mut macs = 0u64;
            for (t, &gi) in out_rows.iter().enumerate() {
                let orow = out.row_mut(t);
                for (j, w) in self.row_iter(gi as usize) {
                    let local = col_map[j as usize];
                    if local == u32::MAX {
                        continue;
                    }
                    let src = &rhs_data[local as usize * f..(local as usize + 1) * f];
                    for (o, &x) in orow.iter_mut().zip(src.iter()) {
                        *o += w * x;
                    }
                    macs += f as u64;
                }
            }
            return macs;
        }
        // Parallel path: count MACs in a cheap index-only pre-pass, then
        // fill disjoint row chunks concurrently.
        let mut macs = 0u64;
        for &gi in out_rows {
            for &j in self.row_indices(gi as usize) {
                if col_map[j as usize] != u32::MAX {
                    macs += f as u64;
                }
            }
        }
        par_rows_mut(out.as_mut_slice(), f, avg_nnz.max(1) * f, |row0, chunk| {
            for (off, orow) in chunk.chunks_mut(f).enumerate() {
                let gi = out_rows[row0 + off];
                for (j, w) in self.row_iter(gi as usize) {
                    let local = col_map[j as usize];
                    if local == u32::MAX {
                        continue;
                    }
                    let src = &rhs_data[local as usize * f..(local as usize + 1) * f];
                    for (o, &x) in orow.iter_mut().zip(src.iter()) {
                        *o += w * x;
                    }
                }
            }
        });
        macs
    }

    /// Dense representation (tests / tiny graphs only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for (j, v) in self.row_iter(i) {
                out.set(i, j as usize, v);
            }
        }
        out
    }

    /// True when the matrix equals its transpose (within `tol`).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        for i in 0..self.n {
            for (j, v) in self.row_iter(i) {
                let back = self
                    .row_iter(j as usize)
                    .find(|&(c, _)| c as usize == i)
                    .map(|(_, w)| w);
                match back {
                    Some(w) if (w - v).abs() <= tol => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Extracts the induced submatrix on `nodes` (global ids, must be
    /// unique). Returns the submatrix; local ids follow the order of
    /// `nodes`.
    pub fn induced(&self, nodes: &[u32]) -> CsrMatrix {
        let mut local = vec![u32::MAX; self.n];
        for (t, &g) in nodes.iter().enumerate() {
            local[g as usize] = t as u32;
        }
        let mut indptr = Vec::with_capacity(nodes.len() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &g in nodes {
            for (j, v) in self.row_iter(g as usize) {
                let lj = local[j as usize];
                if lj != u32::MAX {
                    indices.push(lj);
                    values.push(v);
                }
            }
            // Keep each row sorted by local id.
            let lo = indptr[indptr.len() - 1];
            let mut row: Vec<(u32, f32)> = indices[lo..]
                .iter()
                .copied()
                .zip(values[lo..].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (k, (c, v)) in row.into_iter().enumerate() {
                indices[lo + k] = c;
                values[lo + k] = v;
            }
            indptr.push(indices.len());
        }
        Self::from_canonical(nodes.len(), indptr.into(), indices.into(), values.into())
    }

    /// Second-largest eigenvalue magnitude estimate via power iteration with
    /// deflation against the dominant eigenvector. Used by the Eq. (10)
    /// personalized-depth upper bound. Only meaningful for symmetric
    /// matrices; `iters` of 50–100 is plenty for the tests.
    pub fn lambda2_estimate(&self, iters: usize, seed: u64) -> f32 {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        if self.n < 2 {
            return 0.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let normalize = |v: &mut [f32]| {
            let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if n > 0.0 {
                for x in v.iter_mut() {
                    *x /= n;
                }
            }
        };
        let mat_vec = |v: &[f32], out: &mut [f32]| {
            out.fill(0.0);
            for (i, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (j, w) in self.row_iter(i) {
                    acc += w * v[j as usize];
                }
                *o = acc;
            }
        };
        // Dominant eigenvector.
        let mut v1: Vec<f32> = (0..self.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut tmp = vec![0.0f32; self.n];
        normalize(&mut v1);
        for _ in 0..iters {
            mat_vec(&v1, &mut tmp);
            std::mem::swap(&mut v1, &mut tmp);
            normalize(&mut v1);
        }
        // Deflated second vector.
        let mut v2: Vec<f32> = (0..self.n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut lambda2 = 0.0f32;
        for _ in 0..iters {
            let proj: f32 = v2.iter().zip(v1.iter()).map(|(a, b)| a * b).sum();
            for (x, &u) in v2.iter_mut().zip(v1.iter()) {
                *x -= proj * u;
            }
            mat_vec(&v2, &mut tmp);
            lambda2 = tmp.iter().map(|x| x * x).sum::<f32>().sqrt();
            std::mem::swap(&mut v2, &mut tmp);
            normalize(&mut v2);
        }
        lambda2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrMatrix {
        CsrMatrix::undirected_adjacency(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_coo_sorts_and_dedups() {
        let m = CsrMatrix::from_coo(3, &[(0, 2, 1.0), (0, 1, 2.0), (0, 2, 3.0)]).unwrap();
        assert_eq!(m.row_indices(0), &[1, 2]);
        let vals: Vec<f32> = m.row_iter(0).map(|(_, v)| v).collect();
        assert_eq!(vals, vec![2.0, 4.0]);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn from_coo_rejects_out_of_range() {
        assert!(matches!(
            CsrMatrix::from_coo(2, &[(0, 5, 1.0)]),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn undirected_adjacency_is_symmetric_unit() {
        let m = CsrMatrix::undirected_adjacency(4, &[(0, 1), (1, 0), (2, 3), (3, 3)]).unwrap();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.nnz(), 4); // (0,1),(1,0),(2,3),(3,2); self loop dropped
        assert!(m.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn degrees_of_triangle() {
        assert_eq!(triangle().degrees(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = triangle();
        let x = DenseMatrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let got = m.spmm(&x);
        let want = m.to_dense().matmul(&x).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn spmm_on_empty_rows_gives_zero() {
        let m = CsrMatrix::from_coo(3, &[]).unwrap();
        let x = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        let got = m.spmm(&x);
        assert!(got.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn spmm_gather_subset_matches_full() {
        let m = triangle();
        let x = DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let full = m.spmm(&x);
        let col_map: Vec<u32> = (0..3).collect::<Vec<u32>>();
        let (sub, macs) = m.spmm_gather(&[2, 0], &col_map, &x);
        assert_eq!(sub.row(0), full.row(2));
        assert_eq!(sub.row(1), full.row(0));
        assert_eq!(macs, (2 + 2) * 2); // two rows of degree 2, f = 2
    }

    #[test]
    fn spmm_gather_skips_unmapped_columns() {
        let m = triangle();
        let x = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        let mut col_map = vec![u32::MAX; 3];
        col_map[1] = 1; // only column 1 available
        let (sub, macs) = m.spmm_gather(&[0], &col_map, &x);
        assert_eq!(sub.row(0), &[1.0, 1.0]); // only neighbor 1 contributes
        assert_eq!(macs, 2);
    }

    #[test]
    fn induced_submatrix_keeps_internal_edges() {
        let m = CsrMatrix::undirected_adjacency(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let sub = m.induced(&[1, 2, 4]);
        assert_eq!(sub.n(), 3);
        // Edges inside {1,2,4}: only (1,2).
        assert_eq!(sub.nnz(), 2);
        assert_eq!(sub.row_indices(0), &[1]); // node 1 -> node 2 (local 1)
        assert_eq!(sub.row_indices(2), &[] as &[u32]); // node 4 isolated
    }

    #[test]
    fn lambda2_of_complete_graph_normalized() {
        // For K_n with symmetric normalization and self loops, spectrum is
        // known to have lambda_2 well below 1.
        let edges: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|i| ((i + 1)..6).map(move |j| (i, j)))
            .collect();
        let adj = CsrMatrix::undirected_adjacency(6, &edges).unwrap();
        let norm = crate::normalize::normalized_adjacency(&adj, crate::Convolution::Symmetric);
        let l2 = norm.lambda2_estimate(100, 3);
        assert!(l2 < 0.5, "lambda2 = {l2}");
    }

    #[test]
    fn row_iter_yields_sorted_columns() {
        let m = CsrMatrix::from_coo(4, &[(1, 3, 1.0), (1, 0, 1.0), (1, 2, 1.0)]).unwrap();
        let cols: Vec<u32> = m.row_iter(1).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 2, 3]);
    }
}
