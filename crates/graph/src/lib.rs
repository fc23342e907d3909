//! Sparse graph substrate for the NAI reproduction.
//!
//! The paper's entire pipeline runs on top of five graph primitives, all
//! implemented here from scratch:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row matrix with parallel
//!   SpMM (`CSR × dense`), the kernel behind feature propagation
//!   `X^(l) = Â X^(l−1)` (Eq. 2 of the paper);
//! * [`normalize`] — the generalized convolution matrix
//!   `Â = D̃^(γ−1) Ã D̃^(−γ)` with self-loops (Eq. 1), for
//!   γ ∈ {0, ½, 1};
//! * [`frontier`] — k-hop supporting-node discovery (BFS with reusable
//!   stamp marks), the inductive-inference "sample supporting nodes" step
//!   of Algorithm 1;
//! * [`dynamic::DynamicGraph`] — the graph store a deployment serves
//!   from: the frozen seed's CSR read in place, copy-on-write rows for
//!   what mutations touch, and an append-only tail of arrivals;
//! * [`generators`] — degree-corrected stochastic block models with
//!   power-law degrees and class-correlated noisy features, used to build
//!   the dataset proxies of `nai-datasets`.
//!
//! [`Graph`] bundles adjacency + features + labels, and
//! [`split::InductiveSplit`] carves it into the inductive train/val/test
//! protocol of §II-A: models only ever see the subgraph induced on
//! train ∪ val nodes; test nodes stay unseen until inference.

pub mod csr;
pub mod dynamic;
pub mod frontier;
pub mod generators;
pub mod graph;
pub mod io;
pub mod normalize;
pub mod split;

pub use csr::CsrMatrix;
pub use dynamic::DynamicGraph;
pub use graph::Graph;
pub use normalize::{normalized_adjacency, Convolution};
pub use split::InductiveSplit;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge endpoint exceeded the declared node count.
    NodeOutOfRange {
        /// Offending node id.
        node: u32,
        /// Declared node count.
        num_nodes: usize,
    },
    /// Feature/label arrays disagree with the node count.
    InconsistentArrays(String),
    /// Binary decode failure.
    Decode(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (n = {num_nodes})")
            }
            GraphError::InconsistentArrays(msg) => write!(f, "inconsistent arrays: {msg}"),
            GraphError::Decode(msg) => write!(f, "decode error: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
