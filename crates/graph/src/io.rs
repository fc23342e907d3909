//! Binary graph serialization.
//!
//! A small, versioned little-endian format (magic `NAIG`) so generated
//! dataset proxies can be cached on disk between benchmark runs. Built on
//! the `bytes` crate; no serde format crate is available offline.

use crate::csr::CsrMatrix;
use crate::graph::Graph;
use crate::{GraphError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nai_linalg::DenseMatrix;
use std::path::Path;

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
/// # Errors
/// Returns [`GraphError::Decode`] on truncation, bad magic or version.
pub fn decode_graph(mut data: &[u8]) -> Result<Graph> {
    let need = |data: &[u8], n: usize, what: &str| -> Result<()> {
        if data.remaining() < n {
            Err(GraphError::Decode(format!(
                "truncated while reading {what}: need {n} bytes, have {}",
                data.remaining()
            )))
        } else {
            Ok(())
        }
    };
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
    let feature_bytes = checked(checked(n, f, "features")?, 4, "features")?;
    let entry_bytes = checked(nnz, 4, "entries")?;

    need(data, indptr_bytes, "indptr")?;
    let indptr = take_le(&mut data, indptr_bytes, |b| u64::from_le_bytes(b) as usize);
    need(data, entry_bytes, "indices")?;
    let indices = take_le(&mut data, entry_bytes, u32::from_le_bytes);
    need(data, entry_bytes, "values")?;
    for (row, w) in indptr.windows(2).enumerate() {
        if w[1] < w[0] || w[1] > nnz {
            return Err(GraphError::Decode(format!("corrupt indptr at row {row}")));
        }
    }
    let vals = take_le(&mut data, entry_bytes, f32::from_le_bytes);
    // What `encode_graph` writes is already canonical CSR; anything else
    // (unsorted or duplicate entries, skipped ranges) is rebuilt through
    // its triplets.
    let adj = if CsrMatrix::is_canonical(n, &indptr, &indices) {
        CsrMatrix::from_canonical(n, indptr, indices, vals)
    } else {
        let mut triplets = Vec::with_capacity(nnz);
        for (row, w) in indptr.windows(2).enumerate() {
            for k in w[0]..w[1] {
                triplets.push((row as u32, indices[k], vals[k]));
            }
        }
        CsrMatrix::from_coo(n, &triplets)?
    };

    need(data, feature_bytes, "features")?;
    let features =
        DenseMatrix::from_vec(n, f, take_le(&mut data, feature_bytes, f32::from_le_bytes));

    let label_bytes = checked(n, 4, "labels")?;
    need(data, label_bytes, "labels")?;
    let labels = take_le(&mut data, label_bytes, u32::from_le_bytes);
    Graph::new(adj, features, labels, c)
}

/// Converts the first `bytes` bytes of `data` (present, a multiple of
/// `N`) from little-endian `N`-byte words, and advances past them.
fn take_le<const N: usize, T>(
    data: &mut &[u8],
    bytes: usize,
    from: impl Fn([u8; N]) -> T,
) -> Vec<T> {
    let (words, rest) = data.split_at(bytes);
    *data = rest;
    words
        .chunks_exact(N)
        .map(|w| {
            let mut word = [0; N];
            word.copy_from_slice(w);
            from(word)
        })
        .collect()
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
    let need = |data: &[u8], n: usize, what: &str| -> Result<()> {
        if data.remaining() < n {
            Err(GraphError::Decode(format!(
                "truncated while reading {what}: need {n} bytes, have {}",
                data.remaining()
            )))
        } else {
            Ok(())
        }
    };
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
    let mut parts: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, part) in parts.iter_mut().enumerate() {
        need(data, 8, "split part length")?;
        let len = data.get_u64_le() as usize;
        need(data, len * 4, "split part")?;
        part.reserve(len);
        for _ in 0..len {
            part.push(data.get_u32_le());
        }
        let _ = i;
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
