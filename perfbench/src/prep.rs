//! Untimed preparation: seed graph, inductive split and trained
//! checkpoint, all derived from the run seed.
//!
//! Preparation runs in a child process (`perfbench prepare ...`) so
//! that the measuring process's peak RSS never includes it. The split
//! and checkpoint are cached on disk per (graph family, seed), since
//! training is the slow part; the graph (about 27 MB) is rebuilt from
//! the seed every run, handed over in a file, and removed once read, so
//! the cache stays small however many seeds a campaign uses.

use crate::spec::{self, Family};
use nai::core::checkpoint::ModelCheckpoint;
use nai::core::config::PipelineConfig;
use nai::core::pipeline::NaiPipeline;
use nai::graph::io::{decode_graph, decode_split, encode_graph, encode_split};
use nai::graph::{Graph, InductiveSplit};
use nai::models::ModelKind;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Directory (relative to the working directory, the checkout root)
/// that holds prepared inputs.
pub const CACHE_DIR: &str = ".perfbench_cache";

/// Bumped whenever preparation changes, so stale files are not reused.
const FORMAT: u32 = 2;

/// The prepared inputs as raw bytes; decoding them is part of set-up.
pub struct Prepared {
    pub graph: Vec<u8>,
    pub split: Vec<u8>,
    pub checkpoint: Vec<u8>,
}

/// The decoded inputs.
pub struct Decoded {
    pub graph: Graph,
    pub split: InductiveSplit,
    pub checkpoint: ModelCheckpoint,
}

impl Prepared {
    /// Decodes the three files.
    pub fn decode(&self) -> Result<Decoded, String> {
        Ok(Decoded {
            graph: decode_graph(&self.graph).map_err(|e| format!("graph: {e}"))?,
            split: decode_split(&self.split).map_err(|e| format!("split: {e}"))?,
            checkpoint: ModelCheckpoint::decode(&self.checkpoint)
                .map_err(|e| format!("checkpoint: {e}"))?,
        })
    }
}

fn cached(family: Family, seed: u64, ext: &str) -> PathBuf {
    PathBuf::from(CACHE_DIR).join(format!("{}-{seed}-v{FORMAT}.{ext}", family.name()))
}

/// Prepares the inputs in a child process and reads them.
pub fn load_or_prepare(family: Family, seed: u64) -> Result<Prepared, String> {
    let graph_file = PathBuf::from(CACHE_DIR).join(format!("graph-{}.tmp", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("prepare")
        .arg(family.name())
        .arg(seed.to_string())
        .arg(&graph_file)
        .status()
        .map_err(|e| format!("spawn preparation: {e}"))?;
    if !status.success() {
        return Err(format!("preparation failed: {status}"));
    }
    let graph = std::fs::read(&graph_file).map_err(|e| format!("read graph: {e}"));
    let _ = std::fs::remove_file(&graph_file);
    let read =
        |ext| std::fs::read(cached(family, seed, ext)).map_err(|e| format!("read {ext}: {e}"));
    Ok(Prepared {
        graph: graph?,
        split: read("split")?,
        checkpoint: read("naic")?,
    })
}

/// Writes `bytes` to `dst` through a temporary file and a rename.
fn write_atomic(dst: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = dst.with_extension(format!("part{}", std::process::id()));
    std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, dst).map_err(|e| format!("rename {}: {e}", dst.display()))
}

/// The `prepare` subcommand: builds the graph and writes it to
/// `graph_out`; on a cache miss it also trains SGC with its per-depth
/// classifiers and caches the split and checkpoint.
pub fn prepare(family_name: &str, seed: u64, graph_out: &Path) -> Result<(), String> {
    let family = [Family::Rmat, Family::SmallWorld]
        .into_iter()
        .find(|f| f.name() == family_name)
        .ok_or_else(|| format!("unknown graph family `{family_name}`"))?;
    let scenario = family.topology(spec::derive_seed(seed, 1)).build();
    std::fs::create_dir_all(CACHE_DIR).map_err(|e| format!("create {CACHE_DIR}: {e}"))?;
    let (split, naic) = (cached(family, seed, "split"), cached(family, seed, "naic"));
    if !(split.is_file() && naic.is_file()) {
        let cfg = PipelineConfig {
            k: spec::K,
            hidden: Vec::new(),
            lr: 0.1,
            epochs: spec::EPOCHS,
            patience: spec::EPOCHS,
            use_multi_scale: false,
            gate_epochs: 0,
            seed: spec::derive_seed(seed, 2),
            ..PipelineConfig::default()
        };
        let trained =
            NaiPipeline::new(ModelKind::Sgc, cfg).train(&scenario.graph, &scenario.split, false);
        let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
        write_atomic(&split, &encode_split(&scenario.split))?;
        write_atomic(&naic, &ckpt.encode())?;
    }
    write_atomic(graph_out, &encode_graph(&scenario.graph))
}
