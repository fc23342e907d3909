//! Binary graph serialization.
//!
//! A small, versioned little-endian format (magic `NAIG`) so generated
//! dataset proxies can be cached on disk between benchmark runs. Built on
//! the `bytes` crate; no serde format crate is available offline.

use crate::csr::CsrMatrix;
use crate::graph::Graph;
use crate::{GraphError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nai_linalg::parallel::{par_parts, thread_count};
use nai_linalg::DenseMatrix;
use std::mem::MaybeUninit;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"NAIG";
const VERSION: u32 = 1;

/// Encodes a graph into a byte buffer.
pub fn encode_graph(g: &Graph) -> Bytes {
    let n = g.num_nodes();
    let f = g.feature_dim();
    let nnz = g.adj.nnz();
    let mut buf = BytesMut::with_capacity(32 + nnz * 8 + n * f * 4 + n * 4);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(f as u64);
    buf.put_u64_le(g.num_classes as u64);
    buf.put_u64_le(nnz as u64);
    for &p in g.adj.indptr() {
        buf.put_u64_le(p as u64);
    }
    for &i in g.adj.indices() {
        buf.put_u32_le(i);
    }
    for &v in g.adj.values() {
        buf.put_f32_le(v);
    }
    for &x in g.features.as_slice() {
        buf.put_f32_le(x);
    }
    for &l in &g.labels {
        buf.put_u32_le(l);
    }
    buf.freeze()
}

/// Decodes a graph from bytes produced by [`encode_graph`].
///
/// Each section (row pointers, column indices, values, feature rows,
/// labels) is allocated once, uninitialised, and filled in place on
/// [`thread_count`] threads, each converting its share of every section.
/// As many threads then check the row pointers (and whether they frame
/// canonical rows), each over a range of rows. The CSR arrays and the
/// feature rows stay shared buffers, which a `DynamicGraph` deployed
/// from the graph reads in place.
///
/// # Errors
/// Returns [`GraphError::Decode`] on truncation, bad magic or version, or
/// a corrupt row pointer (the first such row).
pub fn decode_graph(data: &[u8]) -> Result<Graph> {
    decode_graph_on(thread_count(data.len() / 4), data)
}

/// [`decode_graph`] split over `threads` threads.
fn decode_graph_on(threads: usize, mut data: &[u8]) -> Result<Graph> {
    need(data, 8, "header")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::Decode(format!("bad magic {magic:?}")));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(GraphError::Decode(format!("unsupported version {version}")));
    }
    need(data, 32, "dimensions")?;
    let n = data.get_u64_le() as usize;
    let f = data.get_u64_le() as usize;
    let c = data.get_u64_le() as usize;
    let nnz = data.get_u64_le() as usize;
    // Corrupted dimension fields can be astronomically large; reject
    // anything whose byte requirements don't even fit in usize before any
    // multiplication can overflow or allocation can be attempted.
    let checked = |a: usize, b: usize, what: &str| -> Result<usize> {
        a.checked_mul(b)
            .ok_or_else(|| GraphError::Decode(format!("{what} size overflows")))
    };
    let indptr_bytes = checked(n.saturating_add(1), 8, "indptr")?;
    let entry_bytes = checked(nnz, 4, "entries")?;
    let feature_bytes = checked(checked(n, f, "features")?, 4, "features")?;
    let label_bytes = checked(n, 4, "labels")?;
    let src = Sections {
        indptr: section(&mut data, indptr_bytes, "indptr")?,
        indices: section(&mut data, entry_bytes, "indices")?,
        values: section(&mut data, entry_bytes, "values")?,
        features: section(&mut data, feature_bytes, "features")?,
        labels: section(&mut data, label_bytes, "labels")?,
    };

    // Uninitialised: a zeroed allocation is a serial memset whenever
    // the allocator hands back reused memory.
    let mut indptr = Arc::new_uninit_slice(n + 1);
    let mut indices = Arc::new_uninit_slice(nnz);
    let mut values = Arc::new_uninit_slice(nnz);
    let mut features = Arc::new_uninit_slice(n * f);
    let mut labels = Vec::with_capacity(n);
    let threads = threads.max(1);
    // Thread `t` fills the `t`-th piece of every section.
    let parts: Vec<Part<'_>> = {
        let mut ptrs = pieces::<8, _>(unique(&mut indptr), src.indptr, threads);
        let mut cols = pieces::<4, _>(unique(&mut indices), src.indices, threads);
        let mut vals = pieces::<4, _>(unique(&mut values), src.values, threads);
        let mut feats = pieces::<4, _>(unique(&mut features), src.features, threads);
        let mut labs = pieces::<4, _>(&mut labels.spare_capacity_mut()[..n], src.labels, threads);
        (0..threads)
            .map(|_| Part {
                ptrs: ptrs.next().unwrap_or_default(),
                cols: cols.next().unwrap_or_default(),
                vals: vals.next().unwrap_or_default(),
                feats: feats.next().unwrap_or_default(),
                labels: labs.next().unwrap_or_default(),
            })
            .collect()
    };
    par_parts(parts, |_, part| {
        fill(part.ptrs, |w| u64::from_le_bytes(w) as usize);
        fill(part.cols, u32::from_le_bytes);
        fill(part.vals, f32::from_le_bytes);
        fill(part.feats, f32::from_le_bytes);
        fill(part.labels, u32::from_le_bytes);
    });
    // SAFETY: `pieces` cuts each buffer into at most `threads` pieces,
    // all of them in `parts`, and `fill` wrote every element of each
    // piece (or panicked, and `par_parts` resumed the panic).
    let (indptr, indices, values, features) = unsafe {
        labels.set_len(n);
        (
            indptr.assume_init(),
            indices.assume_init(),
            values.assume_init(),
            features.assume_init(),
        )
    };
    // The rows' checks, over as many row ranges; the first range that
    // finds a corrupt row holds the first.
    let rows_per = n.div_ceil(threads).max(1);
    let ranges = (0..n).step_by(rows_per).map(|lo| lo..n.min(lo + rows_per));
    let checks = par_parts(ranges, |_, rows| {
        CsrMatrix::check_rows(n, &indptr, &indices, rows)
    });
    if let Some(row) = checks.iter().find_map(|c| c.err()) {
        return Err(GraphError::Decode(format!("corrupt indptr at row {row}")));
    }
    // What `encode_graph` writes is already canonical CSR; anything else
    // (unsorted or duplicate entries, skipped ranges) is rebuilt through
    // its triplets.
    let adj = if checks.iter().all(|&c| c == Ok(true)) && indptr[0] == 0 && indptr[n] == nnz {
        CsrMatrix::from_canonical(n, indptr, indices, values)
    } else {
        let mut triplets = Vec::with_capacity(nnz);
        for (row, w) in indptr.windows(2).enumerate() {
            for k in w[0]..w[1] {
                triplets.push((row as u32, indices[k], values[k]));
            }
        }
        CsrMatrix::from_coo(n, &triplets)?
    };
    let features = DenseMatrix::from_shared(n, f, features);
    Graph::new(adj, features, labels, c)
}

/// Fails unless `data` holds at least `n` more bytes.
fn need(data: &[u8], n: usize, what: &str) -> Result<()> {
    if data.remaining() < n {
        Err(GraphError::Decode(format!(
            "truncated while reading {what}: need {n} bytes, have {}",
            data.remaining()
        )))
    } else {
        Ok(())
    }
}

/// The next `bytes` bytes of `data`, which it advances past.
fn section<'a>(data: &mut &'a [u8], bytes: usize, what: &str) -> Result<&'a [u8]> {
    need(data, bytes, what)?;
    let (head, rest) = data.split_at(bytes);
    *data = rest;
    Ok(head)
}

/// The encoded sections of a graph file, past its header.
struct Sections<'a> {
    indptr: &'a [u8],
    indices: &'a [u8],
    values: &'a [u8],
    features: &'a [u8],
    labels: &'a [u8],
}

/// A piece of a section's buffer and the bytes it decodes from.
type Piece<'a, T> = (&'a mut [MaybeUninit<T>], &'a [u8]);

/// One thread's pieces of the five sections.
struct Part<'a> {
    ptrs: Piece<'a, usize>,
    cols: Piece<'a, u32>,
    vals: Piece<'a, f32>,
    feats: Piece<'a, f32>,
    labels: Piece<'a, u32>,
}

/// The contents of a buffer just allocated: nothing else holds it yet.
fn unique<T>(buf: &mut Arc<[MaybeUninit<T>]>) -> &mut [MaybeUninit<T>] {
    Arc::get_mut(buf).expect("a fresh allocation has one owner")
}

/// `out` and its `N`-byte source words cut into at most `parts` aligned
/// pieces of `ceil(len / parts)` elements.
fn pieces<'a, const N: usize, T>(
    out: &'a mut [MaybeUninit<T>],
    src: &'a [u8],
    parts: usize,
) -> impl Iterator<Item = Piece<'a, T>> {
    let per = out.len().div_ceil(parts).max(1);
    out.chunks_mut(per).zip(src.chunks(per * N))
}

/// Writes the little-endian `N`-byte words of a piece into its buffer,
/// which its source fills exactly; returns the buffer, initialised.
fn fill<'a, const N: usize, T>(
    (out, src): Piece<'a, T>,
    from: impl Fn([u8; N]) -> T,
) -> &'a mut [T] {
    let words = src.as_chunks::<N>().0;
    assert_eq!(words.len(), out.len(), "a piece's source fills it");
    for (o, &w) in out.iter_mut().zip(words) {
        o.write(from(w));
    }
    // SAFETY: every element was written just above.
    unsafe { out.assume_init_mut() }
}

/// The little-endian `N`-byte words of `bytes` (a multiple of `N`),
/// converted. A chunk map has an exact length, so collecting allocates
/// once and writes the words straight into the `Vec`.
fn take_le<const N: usize, T>(bytes: &[u8], from: impl Fn([u8; N]) -> T) -> Vec<T> {
    bytes.as_chunks::<N>().0.iter().map(|&w| from(w)).collect()
}

const SPLIT_MAGIC: &[u8; 4] = b"NAIS";

/// Encodes an inductive split (magic `NAIS`, same versioned LE format as
/// graphs).
pub fn encode_split(s: &crate::InductiveSplit) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + 4 * (s.train.len() + s.val.len() + s.test.len()));
    buf.put_slice(SPLIT_MAGIC);
    buf.put_u32_le(VERSION);
    for part in [&s.train, &s.val, &s.test] {
        buf.put_u64_le(part.len() as u64);
        for &v in part.iter() {
            buf.put_u32_le(v);
        }
    }
    buf.freeze()
}

/// Decodes a split produced by [`encode_split`].
///
/// # Errors
/// Returns [`GraphError::Decode`] on truncation, bad magic or version.
pub fn decode_split(mut data: &[u8]) -> Result<crate::InductiveSplit> {
    need(data, 8, "split header")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != SPLIT_MAGIC {
        return Err(GraphError::Decode(format!(
            "bad split magic {magic:?}, expected NAIS"
        )));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(GraphError::Decode(format!(
            "unsupported split version {version}"
        )));
    }
    let mut parts: [Vec<u32>; 3] = Default::default();
    for part in &mut parts {
        need(data, 8, "split part length")?;
        let len = data.get_u64_le();
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_mul(4))
            .ok_or_else(|| GraphError::Decode(format!("split part length {len} overflows")))?;
        *part = take_le(section(&mut data, bytes, "split part")?, u32::from_le_bytes);
    }
    if data.has_remaining() {
        return Err(GraphError::Decode(format!(
            "{} trailing bytes after split",
            data.remaining()
        )));
    }
    let [train, val, test] = parts;
    Ok(crate::InductiveSplit { train, val, test })
}

/// Writes a split to disk.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_split(s: &crate::InductiveSplit, path: &Path) -> Result<()> {
    std::fs::write(path, encode_split(s))?;
    Ok(())
}

/// Reads a split from disk.
///
/// # Errors
/// Propagates filesystem and decode errors.
pub fn load_split(path: &Path) -> Result<crate::InductiveSplit> {
    let data = std::fs::read(path)?;
    decode_split(&data)
}

/// Writes a graph to disk.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_graph(g: &Graph, path: &Path) -> Result<()> {
    std::fs::write(path, encode_graph(g))?;
    Ok(())
}

/// Reads a graph from disk.
///
/// # Errors
/// Propagates filesystem and decode errors.
pub fn load_graph(path: &Path) -> Result<Graph> {
    let data = std::fs::read(path)?;
    decode_graph(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_graph() {
        let g = generate(
            &GeneratorConfig {
                num_nodes: 200,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(3),
        );
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_classes, g.num_classes);
        assert_eq!(back.labels, g.labels);
        assert_eq!(back.adj, g.adj, "indptr, indices and values");
        assert_eq!(back.features.as_slice(), g.features.as_slice());
    }

    /// The body of a graph file with 3 nodes, 1 feature and 2 classes.
    fn raw_file(indptr: &[u64], indices: &[u32], values: &[f32]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        for dim in [3, 1, 2, indices.len() as u64] {
            buf.put_u64_le(dim);
        }
        indptr.iter().for_each(|&p| buf.put_u64_le(p));
        indices.iter().for_each(|&i| buf.put_u32_le(i));
        values.iter().for_each(|&v| buf.put_f32_le(v));
        [0.5, -1.0, 2.0].iter().for_each(|&x| buf.put_f32_le(x));
        [0, 1, 1].iter().for_each(|&l| buf.put_u32_le(l));
        buf.to_vec()
    }

    /// A file whose rows are unsorted, repeat an entry or skip part of
    /// the entry array decodes through its triplets: sorted, duplicates
    /// summed, skipped entries dropped.
    #[test]
    fn non_canonical_file_decodes_through_its_triplets() {
        // Entry 0 lies before row 0's range; row 0 holds 2, 1, 1; row 2
        // holds 0.
        let data = raw_file(&[1, 4, 4, 5], &[1, 2, 1, 1, 0], &[9.0, 1.0, 2.0, 3.0, 4.0]);
        let g = decode_graph(&data).unwrap();
        assert_eq!(g.adj.indptr(), &[0, 2, 2, 3]);
        assert_eq!(g.adj.indices(), &[1, 2, 0]);
        assert_eq!(g.adj.values(), &[5.0, 1.0, 4.0]);
        assert_eq!(g.features.as_slice(), &[0.5, -1.0, 2.0]);
        assert_eq!(g.labels, vec![0, 1, 1]);
        // An out-of-range column is reported, as before.
        let data = raw_file(&[0, 1, 1, 1], &[7], &[1.0]);
        assert!(matches!(
            decode_graph(&data),
            Err(GraphError::NodeOutOfRange { node: 7, .. })
        ));
        // A decreasing row pointer is corrupt.
        let data = raw_file(&[0, 2, 1, 2], &[1, 2], &[1.0, 1.0]);
        assert!(matches!(decode_graph(&data), Err(GraphError::Decode(_))));
    }

    #[test]
    fn split_roundtrip_preserves_parts() {
        let s = crate::InductiveSplit::random(100, 0.5, 0.2, &mut StdRng::seed_from_u64(4));
        let back = decode_split(&encode_split(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn split_decode_rejects_corruption() {
        let s = crate::InductiveSplit::random(50, 0.4, 0.3, &mut StdRng::seed_from_u64(5));
        let bytes = encode_split(&s);
        let mut bad = bytes.to_vec();
        bad[0] = b'Z';
        assert!(decode_split(&bad).is_err());
        for cut in [0, 4, 8, 12, bytes.len() - 1] {
            assert!(decode_split(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(decode_split(&long).is_err());
    }

    /// A part length whose byte count overflows is an error, not a
    /// capacity-overflow panic.
    #[test]
    fn split_decode_rejects_overflowing_length() {
        for len in [1u64 << 62, u64::MAX] {
            let mut buf = BytesMut::new();
            buf.put_slice(SPLIT_MAGIC);
            buf.put_u32_le(VERSION);
            buf.put_u64_le(len);
            buf.put_slice(&[0; 16]);
            assert!(
                matches!(decode_split(&buf), Err(GraphError::Decode(_))),
                "length {len}"
            );
        }
    }

    #[test]
    fn empty_split_roundtrips() {
        let s = crate::InductiveSplit {
            train: vec![],
            val: vec![],
            test: vec![],
        };
        let back = decode_split(&encode_split(&s)).unwrap();
        assert!(back.train.is_empty() && back.val.is_empty() && back.test.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let g = crate::generators::path_graph(3, 2);
        let mut data = encode_graph(&g).to_vec();
        data[0] = b'X';
        assert!(matches!(decode_graph(&data), Err(GraphError::Decode(_))));
    }

    #[test]
    fn truncation_rejected_not_panic() {
        let g = crate::generators::path_graph(5, 2);
        let data = encode_graph(&g).to_vec();
        for cut in [0, 3, 8, 20, data.len() - 1] {
            assert!(
                decode_graph(&data[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    /// Cutting a file just before, at or just after any section
    /// boundary is an error, never a panic, at every thread count.
    #[test]
    fn cut_at_every_section_boundary_is_an_error() {
        let (n, f) = (61, 3);
        let g = generate(
            &GeneratorConfig {
                num_nodes: n,
                feature_dim: f,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(6),
        );
        let data = encode_graph(&g).to_vec();
        let nnz = g.adj.nnz();
        // Magic, version, the four dimensions, then the five sections.
        let mut bounds = vec![0, 4, 8, 16, 24, 32, 40];
        for len in [(n + 1) * 8, nnz * 4, nnz * 4, n * f * 4, n * 4] {
            bounds.push(bounds[bounds.len() - 1] + len);
        }
        assert_eq!(bounds.pop(), Some(data.len()));
        for &b in &bounds {
            for cut in [b.saturating_sub(1), b, b + 1] {
                for threads in 1..=3 {
                    assert!(
                        matches!(
                            decode_graph_on(threads, &data[..cut]),
                            Err(GraphError::Decode(_))
                        ),
                        "cut {cut}, {threads} threads"
                    );
                }
            }
        }
        assert!(same_graph(&decode_graph(&data).unwrap(), &g));
    }

    /// Tiny graphs decode alike on up to 8 threads, with threads left over.
    #[test]
    fn more_threads_than_rows_decode_alike() {
        for n in 0..6 {
            let g = crate::generators::path_graph(n, 2);
            let data = encode_graph(&g);
            for threads in 1..=8 {
                let back = decode_graph_on(threads, &data).unwrap();
                assert!(same_graph(&back, &g), "{n} nodes, {threads} threads");
            }
        }
    }

    /// Every field of two graphs, features bit for bit.
    fn same_graph(a: &Graph, b: &Graph) -> bool {
        let bits =
            |g: &Graph| -> Vec<u32> { g.features.as_slice().iter().map(|x| x.to_bits()).collect() };
        a.adj == b.adj
            && a.labels == b.labels
            && a.num_classes == b.num_classes
            && a.features.cols() == b.features.cols()
            && bits(a) == bits(b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Decoding on 2 to 5 threads gives what one thread gives: the
        /// same graph from a well-formed file or one with an unsorted
        /// row, and the same first corrupt row from a file with two. Node
        /// counts are 1 (mod 60) and feature widths prime to 60, so the
        /// label and feature sections split unevenly at every count.
        #[test]
        fn parallel_decode_equals_serial(
            k in 1usize..30,
            f in prop_oneof![Just(1usize), Just(7), Just(11)],
            fault in 0u8..3,
            pick in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let n = 60 * k + 1;
            let g = generate(
                &GeneratorConfig {
                    num_nodes: n,
                    feature_dim: f,
                    ..Default::default()
                },
                &mut StdRng::seed_from_u64(seed),
            );
            let mut data = encode_graph(&g).to_vec();
            let ptr_at = |row: usize| 40 + row * 8;
            let col_at = |k: usize| 40 + (n + 1) * 8 + k * 4;
            let indptr = g.adj.indptr();
            let mut want_row = None;
            match fault {
                // Two rows end before they start; the first is reported.
                1 if n > 2 => {
                    let rows = [1 + pick as usize % (n - 1), 1 + (pick >> 32) as usize % (n - 1)];
                    for r in rows {
                        data[ptr_at(r)..][..8].copy_from_slice(&u64::MAX.to_le_bytes());
                    }
                    want_row = rows.iter().map(|r| r - 1).min();
                }
                // One row's first two columns swap: decoded through triplets.
                2 => {
                    if let Some(r) = (0..n).map(|r| (r + pick as usize) % n)
                        .find(|&r| indptr[r + 1] - indptr[r] >= 2)
                    {
                        let (a, b) = (col_at(indptr[r]), col_at(indptr[r] + 1));
                        for i in 0..4 {
                            data.swap(a + i, b + i);
                        }
                    }
                }
                _ => {}
            }
            let serial = decode_graph_on(1, &data);
            match (&serial, want_row) {
                (Err(GraphError::Decode(msg)), Some(row)) => {
                    prop_assert_eq!(msg, &format!("corrupt indptr at row {row}"));
                }
                (Ok(back), None) => prop_assert!(fault == 2 || same_graph(back, &g)),
                (other, _) => prop_assert!(false, "unexpected {:?}", other.as_ref().err()),
            }
            for threads in 2..=5 {
                match (&serial, decode_graph_on(threads, &data)) {
                    (Ok(a), Ok(b)) => prop_assert!(same_graph(a, &b), "{} threads", threads),
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    _ => prop_assert!(false, "{} threads disagree", threads),
                }
            }
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let g = crate::generators::path_graph(3, 2);
        let mut data = encode_graph(&g).to_vec();
        data[4] = 99;
        assert!(matches!(decode_graph(&data), Err(GraphError::Decode(_))));
    }

    #[test]
    fn file_roundtrip() {
        let g = crate::generators::star_graph(10, 4);
        let dir = std::env::temp_dir().join("nai_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.naig");
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.num_nodes(), 10);
        std::fs::remove_file(&path).ok();
    }
}
