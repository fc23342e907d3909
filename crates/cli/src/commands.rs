//! Subcommand implementations.

use crate::args::{ArgError, ParsedArgs};
use nai_core::checkpoint::ModelCheckpoint;
use nai_core::config::{
    CacheConfig, DistillConfig, InferenceConfig, LoadShedPolicy, NapMode, PipelineConfig,
    ServeConfig,
};
use nai_core::engine::{StreamPrediction, StreamingEngine};
use nai_core::eval::ConfusionMatrix;
use nai_core::inference::InferenceResult;
use nai_core::pipeline::NaiPipeline;
use nai_datasets::{load, DatasetId, Scale};
use nai_graph::io::{load_graph, load_split, save_graph, save_split};
use nai_graph::{DynamicGraph, Graph, InductiveSplit};
use nai_models::ModelKind;
use nai_obs::LogHistogram;
use nai_serve::{NaiService, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// CLI failures with user-readable messages.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems (rendered with usage help).
    Args(ArgError),
    /// Anything else, already formatted.
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<nai_graph::GraphError> for CliError {
    fn from(e: nai_graph::GraphError) -> Self {
        CliError::Other(e.to_string())
    }
}

impl From<nai_core::checkpoint::CheckpointError> for CliError {
    fn from(e: nai_core::checkpoint::CheckpointError) -> Self {
        CliError::Other(e.to_string())
    }
}

/// Result alias for subcommands.
pub type CliResult = Result<(), CliError>;

/// Parses `--dataset` / `--scale` into a dataset id and scale.
pub fn dataset_of(args: &ParsedArgs) -> Result<(DatasetId, Scale), CliError> {
    let id = match args.get_or("dataset", "arxiv") {
        "flickr" => DatasetId::FlickrProxy,
        "arxiv" => DatasetId::ArxivProxy,
        "products" => DatasetId::ProductsProxy,
        other => {
            return Err(ArgError::BadValue {
                flag: "dataset".into(),
                value: other.into(),
                expected: "flickr | arxiv | products",
            }
            .into())
        }
    };
    let scale = match args.get_or("scale", "test") {
        "test" => Scale::Test,
        "bench" => Scale::Bench,
        other => {
            return Err(ArgError::BadValue {
                flag: "scale".into(),
                value: other.into(),
                expected: "test | bench",
            }
            .into())
        }
    };
    Ok((id, scale))
}

/// Parses `--model-kind`.
pub fn model_kind_of(args: &ParsedArgs) -> Result<ModelKind, CliError> {
    match args.get_or("model-kind", "sgc") {
        "sgc" => Ok(ModelKind::Sgc),
        "sign" => Ok(ModelKind::Sign),
        "s2gc" => Ok(ModelKind::S2gc),
        "gamlp" => Ok(ModelKind::Gamlp),
        other => Err(ArgError::BadValue {
            flag: "model-kind".into(),
            value: other.into(),
            expected: "sgc | sign | s2gc | gamlp",
        }
        .into()),
    }
}

/// Parses `--nap`/`--ts`/`--tmin`/`--tmax`/`--batch`/`--parallel-spmm`
/// into an [`InferenceConfig`].
pub fn inference_config_of(args: &ParsedArgs, k: usize) -> Result<InferenceConfig, CliError> {
    let t_min = args.get_parse_or("tmin", 1usize)?;
    let t_max = args.get_parse_or("tmax", k)?;
    let ts = args.get_parse_or("ts", 0.5f32)?;
    let batch_size = args.get_parse_or("batch", 500usize)?;
    let parallel_spmm = args.get_bool("parallel-spmm");
    let nap = match args.get_or("nap", "distance") {
        "fixed" => NapMode::Fixed,
        "distance" => NapMode::Distance { ts },
        "gate" => NapMode::Gate,
        "upper" => NapMode::UpperBound { ts },
        other => {
            return Err(ArgError::BadValue {
                flag: "nap".into(),
                value: other.into(),
                expected: "fixed | distance | gate | upper",
            }
            .into())
        }
    };
    let cfg = InferenceConfig {
        t_min: if matches!(nap, NapMode::Fixed) {
            t_max
        } else {
            t_min
        },
        t_max,
        nap,
        batch_size,
        parallel_spmm,
    };
    cfg.validate(k).map_err(CliError::Other)?;
    Ok(cfg)
}

/// Loads either a named proxy dataset or an on-disk graph+split pair.
pub fn load_data(args: &ParsedArgs) -> Result<(Graph, InductiveSplit, String), CliError> {
    if let (Ok(gpath), Ok(spath)) = (args.require("graph"), args.require("split")) {
        let graph = load_graph(Path::new(gpath))?;
        let split = load_split(Path::new(spath))?;
        split
            .validate(graph.num_nodes())
            .map_err(|e| CliError::Other(e.to_string()))?;
        return Ok((graph, split, format!("{gpath} + {spath}")));
    }
    let (id, scale) = dataset_of(args)?;
    let ds = load(id, scale);
    Ok((ds.graph, ds.split, ds.id.name().to_string()))
}

/// `nai generate`: materializes a dataset proxy to disk.
pub fn generate(args: &ParsedArgs) -> CliResult {
    args.finish(&["dataset", "scale", "out"])?;
    let (id, scale) = dataset_of(args)?;
    let out = args.require("out")?;
    let ds = load(id, scale);
    let gpath = format!("{out}.graph");
    let spath = format!("{out}.split");
    save_graph(&ds.graph, Path::new(&gpath))?;
    save_split(&ds.split, Path::new(&spath))?;
    println!(
        "wrote {} ({} nodes, {} edges, f={}, c={}) to {gpath} / {spath}",
        ds.id.name(),
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        ds.graph.feature_dim(),
        ds.graph.num_classes,
    );
    Ok(())
}

/// `nai train`: trains the NAI pipeline and saves a checkpoint.
pub fn train(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "dataset",
        "scale",
        "graph",
        "split",
        "model-kind",
        "k",
        "epochs",
        "hidden",
        "lr",
        "gates",
        "no-distill",
        "seed",
        "out",
    ])?;
    let (graph, split, name) = load_data(args)?;
    let kind = model_kind_of(args)?;
    let k = args.get_parse_or("k", 3usize)?;
    let epochs = args.get_parse_or("epochs", 50usize)?;
    let hidden = args.get_parse_or("hidden", 32usize)?;
    let lr = args.get_parse_or("lr", 0.01f32)?;
    let seed = args.get_parse_or("seed", 42u64)?;
    let distill = !args.get_bool("no-distill");
    let train_gates = args.get_bool("gates");
    let out = args.require("out")?;

    let cfg = PipelineConfig {
        k,
        hidden: vec![hidden],
        epochs,
        lr,
        seed,
        use_single_scale: distill,
        use_multi_scale: distill,
        distill: DistillConfig {
            epochs: epochs / 3 + 1,
            ensemble_r: DistillConfig::default().ensemble_r.min(k),
            ..DistillConfig::default()
        },
        ..PipelineConfig::default()
    };
    println!(
        "training {} (k={k}, hidden={hidden}, epochs={epochs}, gates={train_gates}) on {name} ...",
        kind.name()
    );
    let trained = NaiPipeline::new(kind, cfg).train(&graph, &split, train_gates);
    println!(
        "base f^({k}) best val acc {:.4}",
        trained.reports.base.best_val_acc
    );
    let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
    ckpt.save(Path::new(out))?;
    println!("checkpoint saved to {out}");
    Ok(())
}

fn print_report(label: &str, res: &InferenceResult, graph: &Graph, test: &[u32]) {
    let r = &res.report;
    let labels_view: Vec<u32> = test.iter().map(|&v| graph.labels[v as usize]).collect();
    let cm = ConfusionMatrix::from_predictions(&res.predictions, &labels_view, graph.num_classes);
    println!(
        "{label:>10} | acc {:.4} | macro-F1 {:.4} | mMACs/node {:.3} (fp {:.3}) | \
         ms/node {:.4} (fp {:.4}) | mean depth {:.2} | exits {:?}",
        r.accuracy,
        cm.macro_f1(),
        r.mmacs_per_node(),
        r.fp_mmacs_per_node(),
        r.time_ms_per_node(),
        r.fp_time_ms_per_node(),
        r.mean_depth(),
        r.depth_histogram,
    );
}

/// `nai infer`: deploys a checkpoint and runs one inference pass.
pub fn infer(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "dataset",
        "scale",
        "graph",
        "split",
        "model",
        "nap",
        "ts",
        "tmin",
        "tmax",
        "batch",
        "parallel-spmm",
    ])?;
    let (graph, split, name) = load_data(args)?;
    let ckpt = ModelCheckpoint::load(Path::new(args.require("model")?))?;
    let engine = ckpt.deploy(&graph);
    let cfg = inference_config_of(args, ckpt.k)?;
    println!(
        "{} (k={}) on {name}: {} test nodes, nap {:?}",
        ckpt.kind.name(),
        ckpt.k,
        split.test.len(),
        cfg.nap
    );
    let res = engine.infer(&split.test, &graph.labels, &cfg);
    print_report("result", &res, &graph, &split.test);
    Ok(())
}

/// `nai eval`: compares every NAP policy on one deployment.
pub fn eval(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "dataset", "scale", "graph", "split", "model", "ts", "tmin", "batch",
    ])?;
    let (graph, split, name) = load_data(args)?;
    let ckpt = ModelCheckpoint::load(Path::new(args.require("model")?))?;
    let engine = ckpt.deploy(&graph);
    let k = ckpt.k;
    let ts = args.get_parse_or("ts", 0.5f32)?;
    let t_min = args.get_parse_or("tmin", 1usize)?;
    let batch = args.get_parse_or("batch", 500usize)?;
    println!(
        "{} (k={k}) on {name}: {} test nodes, T_s={ts}",
        ckpt.kind.name(),
        split.test.len()
    );
    let mut configs = vec![
        ("fixed", InferenceConfig::fixed(k)),
        ("distance", InferenceConfig::distance(ts, t_min, k)),
        ("upper", InferenceConfig::upper_bound(ts, t_min, k)),
    ];
    if ckpt.has_gates() {
        configs.push(("gate", InferenceConfig::gate(t_min, k)));
    }
    for (label, mut cfg) in configs {
        cfg.batch_size = batch;
        let res = engine.infer(&split.test, &graph.labels, &cfg);
        print_report(label, &res, &graph, &split.test);
    }
    Ok(())
}

/// `nai stream`: streaming-arrival demo with latency percentiles.
pub fn stream(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "dataset",
        "scale",
        "graph",
        "split",
        "model",
        "nap",
        "ts",
        "tmin",
        "tmax",
        "arrivals",
        "batch",
        "degree",
        "seed",
        "parallel-spmm",
    ])?;
    let (graph, _, name) = load_data(args)?;
    let ckpt = ModelCheckpoint::load(Path::new(args.require("model")?))?;
    let cfg = inference_config_of(args, ckpt.k)?;
    let arrivals = args.get_parse_or("arrivals", 200usize)?;
    let degree = args.get_parse_or("degree", 3usize)?;
    let seed = args.get_parse_or("seed", 7u64)?;
    let mut engine = StreamingEngine::from_checkpoint(&ckpt, DynamicGraph::from_graph(&graph));
    let mut rng = StdRng::seed_from_u64(seed);
    let f = graph.feature_dim();
    println!(
        "streaming {arrivals} arrivals (≈{degree} edges each) into {name}, \
         micro-batch {} ...",
        cfg.batch_size
    );
    let run = RunSummary::default();
    let start = Instant::now();
    for _ in 0..arrivals {
        let feats: Vec<f32> = (0..f).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n = engine.graph().num_nodes();
        let nbrs: Vec<u32> = (0..degree).map(|_| rng.gen_range(0..n) as u32).collect();
        engine.ingest(&feats, &nbrs);
        if engine.pending().len() >= cfg.batch_size {
            run.record_all(&engine.flush(&cfg));
        }
    }
    run.record_all(&engine.flush(&cfg));
    println!(
        "served {} | {} | total MACs {:.1}M",
        run.count(),
        run.line(start.elapsed()),
        engine.macs_total() as f64 / 1e6,
    );
    Ok(())
}

/// What `nai stream` and `nai loadgen` report about a run: the latency
/// and exit depth of every completed prediction or op, in two
/// lock-free histograms (`loadgen`'s client threads share one).
#[derive(Default)]
struct RunSummary {
    latency_ns: LogHistogram,
    depth: LogHistogram,
}

impl RunSummary {
    fn record(&self, latency: Duration, depth: usize) {
        self.latency_ns
            .record(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        self.depth.record(depth as u64);
    }

    /// Each prediction's latency is that of the micro-batch it rode in.
    fn record_all(&self, preds: &[StreamPrediction]) {
        for p in preds {
            self.record(p.latency, p.depth);
        }
    }

    fn count(&self) -> u64 {
        self.latency_ns.snapshot().count()
    }

    /// `p50 … | p95 … | p99 … | max … | mean depth … | throughput …/s`.
    /// Throughput is completions per second of `wall`, the run's wall
    /// clock: recorded latencies overlap (a micro-batch's latency is
    /// recorded once per prediction in it, concurrent clients wait at
    /// the same time), so their sum is no measure of elapsed time.
    fn line(&self, wall: Duration) -> String {
        let lat = self.latency_ns.snapshot();
        let q = |q: f64| Duration::from_nanos(lat.quantile(q));
        let secs = wall.as_secs_f64();
        let throughput = if secs > 0.0 {
            lat.count() as f64 / secs
        } else {
            0.0
        };
        format!(
            "p50 {:?} | p95 {:?} | p99 {:?} | max {:?} | mean depth {:.2} | \
             throughput {throughput:.0}/s",
            q(0.5),
            q(0.95),
            q(0.99),
            Duration::from_nanos(lat.max()),
            self.depth.snapshot().mean(),
        )
    }
}

/// `nai serve`: boots the online inference service over a checkpoint.
///
/// Prints `nai-serve listening on HOST:PORT` once ready — with the
/// deploy time and whether λ₂ was estimated — then blocks
/// until a `POST /shutdown` arrives (scripts grep the line for the
/// ephemeral port when `--port 0`).
pub fn serve(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "dataset",
        "scale",
        "graph",
        "split",
        "model",
        "nap",
        "ts",
        "tmin",
        "tmax",
        "batch",
        "parallel-spmm",
        "port",
        "workers",
        "max-batch",
        "queue-cap",
        "shed-at",
        "shed-tmax",
        "cache",
        "cache-cap",
        "read-timeout-ms",
    ])?;
    let (graph, _, name) = load_data(args)?;
    let ckpt = ModelCheckpoint::load(Path::new(args.require("model")?))?;
    let infer_cfg = inference_config_of(args, ckpt.k)?;
    let port = args.get_parse_or("port", 8080u16)?;
    let serve_cfg = ServeConfig {
        workers: args.get_parse_or("workers", 2usize)?,
        max_batch: args.get_parse_or("max-batch", 64usize)?,
        queue_cap: args.get_parse_or("queue-cap", 1024usize)?,
        shed: LoadShedPolicy {
            trigger_fraction: args.get_parse_or("shed-at", 0.75f64)?,
            t_max_cap: args.get_parse_or("shed-tmax", 1usize)?,
        },
        cache: if args.get_bool("cache") {
            CacheConfig::on(args.get_parse_or("cache-cap", 4096usize)?)
        } else {
            CacheConfig::off()
        },
    };
    let read_timeout_ms = args.get_parse_or("read-timeout-ms", 30_000.0f64)?;
    if !read_timeout_ms.is_finite() || !(1.0..=600_000.0).contains(&read_timeout_ms) {
        return Err(CliError::Other(format!(
            "--read-timeout-ms must be a finite value in [1, 600000], got {read_timeout_ms}"
        )));
    }
    let transport_cfg = nai_serve::TransportConfig {
        read_timeout: Duration::from_secs_f64(read_timeout_ms / 1000.0),
        ..nai_serve::TransportConfig::default()
    };
    let deploy_start = Instant::now();
    let service = NaiService::from_checkpoint(
        &ckpt,
        &DynamicGraph::from_graph(&graph),
        infer_cfg,
        serve_cfg,
    )
    .map_err(CliError::Other)?;
    let deploy_ms = deploy_start.elapsed().as_secs_f64() * 1e3;
    // `NaiService` estimates λ₂ at deploy exactly when NAP_u reads it.
    let lambda2 = match infer_cfg.nap {
        NapMode::UpperBound { .. } => "estimated".to_string(),
        _ => format!("not read by {}", nap_name(&infer_cfg)),
    };
    let server = Server::start_with(
        std::sync::Arc::new(service),
        ("127.0.0.1", port),
        transport_cfg,
    )
    .map_err(|e| CliError::Other(format!("bind failed: {e}")))?;
    let cache_desc = if serve_cfg.cache.enabled {
        format!("cap {}", serve_cfg.cache.cap)
    } else {
        "off".to_string()
    };
    println!(
        "nai-serve listening on {} ({} k={} on {name}; shards {}, max_batch {}, \
         queue_cap {}, shed at {:.0}% → t_max {}, cache {cache_desc}; \
         deployed in {deploy_ms:.0} ms, λ₂ {lambda2})",
        server.local_addr(),
        ckpt.kind.name(),
        ckpt.k,
        serve_cfg.workers,
        serve_cfg.max_batch,
        serve_cfg.queue_cap,
        serve_cfg.shed.trigger_fraction * 100.0,
        serve_cfg.shed.t_max_cap,
    );
    server.join();
    println!("nai-serve stopped cleanly");
    Ok(())
}

/// The name `--nap` takes for `cfg`'s NAP mode.
fn nap_name(cfg: &InferenceConfig) -> &'static str {
    match cfg.nap {
        NapMode::Fixed => "fixed",
        NapMode::Distance { .. } => "distance",
        NapMode::Gate => "gate",
        NapMode::UpperBound { .. } => "upper",
    }
}

/// Builds the [`nai_serve::WorkloadSpec`] a loadgen invocation drives:
/// `--mode` picks the read/mutation mix, `--sampling`/`--zipf-s` the
/// node-id distribution, sampled by `nai_serve::WorkloadSampler` (no
/// loadgen-local RNG plumbing).
pub fn loadgen_workload(args: &ParsedArgs) -> Result<nai_serve::WorkloadSpec, CliError> {
    let mode = args.get_or("mode", "infer");
    let read_fraction = match mode {
        "infer" => 1.0,
        "ingest" => 0.0,
        "mixed" => 2.0 / 3.0,
        other => {
            return Err(ArgError::BadValue {
                flag: "mode".into(),
                value: other.into(),
                expected: "infer | ingest | mixed",
            }
            .into())
        }
    };
    let sampling = match args.get_or("sampling", "uniform") {
        "uniform" => nai_serve::Sampling::Uniform,
        "zipf" => nai_serve::Sampling::Zipf {
            exponent: args.get_parse_or("zipf-s", 1.1f64)?,
        },
        other => {
            return Err(ArgError::BadValue {
                flag: "sampling".into(),
                value: other.into(),
                expected: "uniform | zipf",
            }
            .into())
        }
    };
    let spec = nai_serve::WorkloadSpec {
        name: mode.to_string(),
        read_fraction,
        edge_fraction: 0.0,
        sampling,
        nodes_per_read: args.get_parse_or("nodes-per-request", 1usize)?.max(1),
        ingest_degree: 3,
    };
    spec.validate().map_err(CliError::Other)?;
    Ok(spec)
}

/// `nai loadgen`: closed-loop load driver against a running server.
///
/// Requests carry no `shard` routing — mutations are sequenced and
/// applied server-side to one engine, so each client simply reads back any node
/// id it has learned about, including the ids of its own ingests
/// (read-your-writes with no client routing contract).
pub fn loadgen(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "addr",
        "requests",
        "clients",
        "mode",
        "sampling",
        "zipf-s",
        "nodes-per-request",
        "seed",
        "cache",
        "shutdown",
        "pipeline",
        "per-request",
    ])?;
    let addr = args.require("addr")?.to_string();
    let total: usize = args.get_parse_or("requests", 200usize)?;
    let clients: usize = args.get_parse_or("clients", 4usize)?.max(1);
    let seed = args.get_parse_or("seed", 7u64)?;
    let pipeline: usize = args.get_parse_or("pipeline", 1usize)?.max(1);
    let per_request = args.get_bool("per-request");
    if per_request && pipeline > 1 {
        return Err(CliError::Other(
            "--per-request opens one connection per request; it cannot pipeline \
             (drop --pipeline or --per-request)"
                .into(),
        ));
    }
    let workload = loadgen_workload(args)?;

    // Discover deployment facts from the server itself.
    let (status, body) = nai_serve::http_call(addr.as_str(), "GET", "/healthz", None)
        .map_err(|e| CliError::Other(format!("healthz failed: {e}")))?;
    if status != 200 {
        return Err(CliError::Other(format!("healthz returned {status}")));
    }
    let health = nai_serve::Json::parse(body.trim())
        .map_err(|e| CliError::Other(format!("healthz parse: {e}")))?;
    let want = |field: &str| -> Result<u64, CliError> {
        health
            .get(field)
            .and_then(nai_serve::Json::as_u64)
            .ok_or_else(|| CliError::Other(format!("healthz missing `{field}`")))
    };
    let seed_nodes = want("seed_nodes")? as u32;
    let feature_dim = want("feature_dim")? as usize;
    if seed_nodes == 0 {
        return Err(CliError::Other("server has an empty seed graph".into()));
    }
    let transport = if per_request {
        "per-request connections".to_string()
    } else if pipeline > 1 {
        format!("keep-alive, pipeline depth {pipeline}")
    } else {
        "keep-alive".to_string()
    };
    println!(
        "loadgen: {total} {} requests ({clients} clients, {:?} sampling, {transport}) \
         against {addr} (seed_nodes {seed_nodes}, f {feature_dim})",
        workload.name, workload.sampling,
    );

    let run = RunSummary::default();
    let counters = std::sync::Mutex::new((0u64, 0u64, 0u64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let share = total / clients + usize::from(c < total % clients);
            let (addr, workload, counters, run) = (&addr, &workload, &counters, &run);
            scope.spawn(move || {
                let mut sampler = nai_serve::WorkloadSampler::new(
                    workload.clone(),
                    seed ^ (c as u64).wrapping_mul(0x9E37),
                );
                let (mut ok, mut overloaded, mut failed) = (0u64, 0u64, 0u64);
                let mut client = match nai_serve::HttpClient::connect(addr.as_str()) {
                    Ok(cl) => cl,
                    Err(_) => {
                        counters.lock().unwrap().2 += share as u64;
                        return;
                    }
                };
                // Exclusive bound of the node ids this client knows to
                // exist: the seed graph plus every ingest it has had
                // acknowledged — any worker must serve all of them.
                let mut known_nodes = seed_nodes;
                let mut sent = 0usize;
                while sent < share {
                    // Burst size: 1 closed-loop, `pipeline` when
                    // pipelining. Ops are sampled up front against the
                    // ids known *now*; acks inside the burst extend
                    // `known_nodes` for the next burst.
                    let window = if per_request {
                        1
                    } else {
                        pipeline.min(share - sent)
                    };
                    let bodies: Vec<String> = (0..window)
                        .map(|_| {
                            let op = sampler.next_op(known_nodes, feature_dim);
                            let line = nai_serve::proto::render_request(&nai_serve::Request {
                                op,
                                shard: None,
                            });
                            format!("{line}\n")
                        })
                        .collect();
                    let start = std::time::Instant::now();
                    let outcome: std::io::Result<Vec<(u16, String)>> = if per_request {
                        nai_serve::HttpClient::connect(addr.as_str())
                            .and_then(|mut c| c.request_closing("POST", "/v1", Some(&bodies[0])))
                            .map(|r| vec![r])
                    } else if window == 1 {
                        client
                            .request("POST", "/v1", Some(&bodies[0]))
                            .map(|r| vec![r])
                    } else {
                        let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
                        client.pipeline("POST", "/v1", &refs)
                    };
                    sent += window;
                    match outcome {
                        Ok(responses) => {
                            for (_, body) in responses {
                                // Pipelined latency is burst-relative:
                                // time from the burst's single write to
                                // this response's arrival.
                                let elapsed = start.elapsed();
                                match nai_serve::Json::parse(body.trim()) {
                                    Ok(v)
                                        if v.get("ok").and_then(nai_serve::Json::as_bool)
                                            == Some(true) =>
                                    {
                                        if let Some(node) =
                                            v.get("node").and_then(nai_serve::Json::as_u64)
                                        {
                                            // Ingest ack: the id is valid
                                            // service-wide from now on.
                                            known_nodes =
                                                known_nodes.max((node as u32).saturating_add(1));
                                        }
                                        let depth = v
                                            .get("depth")
                                            .or_else(|| {
                                                v.get("results")
                                                    .and_then(nai_serve::Json::as_arr)
                                                    .and_then(|r| r.first())
                                                    .and_then(|r| r.get("depth"))
                                            })
                                            .and_then(nai_serve::Json::as_u64)
                                            .unwrap_or(0);
                                        run.record(elapsed, depth as usize);
                                        ok += 1;
                                    }
                                    Ok(v)
                                        if v.get("error").and_then(nai_serve::Json::as_str)
                                            == Some("overloaded") =>
                                    {
                                        overloaded += 1;
                                    }
                                    _ => failed += 1,
                                }
                            }
                        }
                        Err(_) => {
                            failed += window as u64;
                            if !per_request {
                                // The connection is poisoned; reconnect.
                                match nai_serve::HttpClient::connect(addr.as_str()) {
                                    Ok(cl) => client = cl,
                                    Err(_) => {
                                        counters.lock().unwrap().2 += (share - sent) as u64;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                let mut agg = counters.lock().unwrap();
                agg.0 += ok;
                agg.1 += overloaded;
                agg.2 += failed;
            });
        }
    });
    let wall = start.elapsed();
    let (ok, overloaded, failed) = counters.into_inner().unwrap();
    println!(
        "ok {ok} | overloaded {overloaded} | failed {failed} | {}",
        run.line(wall)
    );
    // Server-side batch anatomy and stage spans for this deployment
    // (cumulative since boot, not per-run deltas). Best-effort: a
    // scrape failure doesn't fail the run the clients just finished.
    if let Ok((200, body)) = nai_serve::http_call(addr.as_str(), "GET", "/metrics", None) {
        if let Ok(metrics) = nai_serve::Json::parse(body.trim()) {
            let batch = |field: &str| {
                metrics
                    .get("batch")
                    .and_then(|b| b.get(field))
                    .and_then(nai_serve::Json::as_u64)
                    .unwrap_or(0)
            };
            println!(
                "batches: closed_on_max_batch {} | closed_on_idle {} | mean size {:.2}",
                batch("closed_on_max_batch"),
                batch("closed_on_idle"),
                metrics
                    .get("batch")
                    .and_then(|b| b.get("mean_size"))
                    .and_then(nai_serve::Json::as_f64)
                    .unwrap_or(0.0),
            );
            if let Some(stages) = metrics.get("stages") {
                let mean = |stage: &str| {
                    stages
                        .get(stage)
                        .and_then(|s| s.get("mean_us"))
                        .and_then(nai_serve::Json::as_f64)
                        .unwrap_or(0.0)
                };
                println!(
                    "stages (mean us): parse {:.1} | queue_wait {:.1} | batch_wait {:.1} \
                     | propagation {:.1} | nap {:.1} | classify {:.1} | serialize {:.1}",
                    mean("parse"),
                    mean("queue_wait"),
                    mean("batch_wait"),
                    mean("engine_propagation"),
                    mean("engine_nap"),
                    mean("engine_classify"),
                    mean("serialize"),
                );
            }
        }
    }
    if args.get_bool("cache") {
        // Report the server-side prediction-cache counters for this
        // deployment (cumulative since boot, not per-run deltas).
        let (status, body) = nai_serve::http_call(addr.as_str(), "GET", "/metrics", None)
            .map_err(|e| CliError::Other(format!("metrics failed: {e}")))?;
        if status != 200 {
            return Err(CliError::Other(format!("metrics returned {status}")));
        }
        let metrics = nai_serve::Json::parse(body.trim())
            .map_err(|e| CliError::Other(format!("metrics parse: {e}")))?;
        let counter = |field: &str| {
            metrics
                .get(field)
                .and_then(nai_serve::Json::as_u64)
                .unwrap_or(0)
        };
        println!(
            "cache: hits {} | misses {} | evicted {} | invalidated {}",
            counter("cache_hits"),
            counter("cache_misses"),
            counter("cache_evicted"),
            counter("cache_invalidated"),
        );
    }
    if args.get_bool("shutdown") {
        let (status, _) = nai_serve::http_call(addr.as_str(), "POST", "/shutdown", None)
            .map_err(|e| CliError::Other(format!("shutdown failed: {e}")))?;
        println!("shutdown requested (status {status})");
    }
    if ok == 0 {
        return Err(CliError::Other(
            "no request succeeded — is the server reachable?".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &[&str]) -> ParsedArgs {
        let v: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn dataset_parsing() {
        let p = parsed(&["x", "--dataset", "flickr", "--scale", "bench"]);
        let (id, scale) = dataset_of(&p).unwrap();
        assert_eq!(id, DatasetId::FlickrProxy);
        assert_eq!(scale, Scale::Bench);
        let bad = parsed(&["x", "--dataset", "reddit"]);
        assert!(dataset_of(&bad).is_err());
    }

    #[test]
    fn model_kind_parsing() {
        assert_eq!(
            model_kind_of(&parsed(&["x", "--model-kind", "gamlp"])).unwrap(),
            ModelKind::Gamlp
        );
        assert!(model_kind_of(&parsed(&["x", "--model-kind", "gcn"])).is_err());
    }

    #[test]
    fn inference_config_parsing() {
        let p = parsed(&["x", "--nap", "upper", "--ts", "0.3", "--tmax", "2"]);
        let cfg = inference_config_of(&p, 3).unwrap();
        assert_eq!(cfg.t_max, 2);
        assert!(matches!(cfg.nap, NapMode::UpperBound { ts } if (ts - 0.3).abs() < 1e-6));
        // The PR 2 knob is reachable from the binary.
        assert!(!cfg.parallel_spmm, "off by default");
        let par = parsed(&["x", "--parallel-spmm"]);
        assert!(inference_config_of(&par, 3).unwrap().parallel_spmm);
        let off = parsed(&["x", "--parallel-spmm", "false"]);
        assert!(!inference_config_of(&off, 3).unwrap().parallel_spmm);
        // fixed pins t_min to t_max.
        let f = inference_config_of(&parsed(&["x", "--nap", "fixed", "--tmax", "2"]), 3).unwrap();
        assert_eq!(f.t_min, 2);
        // t_max beyond k is rejected.
        assert!(inference_config_of(&parsed(&["x", "--tmax", "9"]), 3).is_err());
    }

    #[test]
    fn generate_train_infer_roundtrip_via_tempdir() {
        let dir = std::env::temp_dir().join("nai_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ds");
        let base_s = base.to_str().unwrap();

        generate(&parsed(&[
            "generate",
            "--dataset",
            "arxiv",
            "--scale",
            "test",
            "--out",
            base_s,
        ]))
        .unwrap();
        assert!(dir.join("ds.graph").exists());
        assert!(dir.join("ds.split").exists());

        let model = dir.join("m.naic");
        let model_s = model.to_str().unwrap();
        let gpath = format!("{base_s}.graph");
        let spath = format!("{base_s}.split");
        train(&parsed(&[
            "train", "--graph", &gpath, "--split", &spath, "--k", "2", "--epochs", "10",
            "--hidden", "8", "--out", model_s,
        ]))
        .unwrap();
        assert!(model.exists());

        infer(&parsed(&[
            "infer", "--graph", &gpath, "--split", &spath, "--model", model_s, "--nap", "distance",
            "--ts", "0.5",
        ]))
        .unwrap();

        eval(&parsed(&[
            "eval", "--graph", &gpath, "--split", &spath, "--model", model_s,
        ]))
        .unwrap();

        stream(&parsed(&[
            "stream",
            "--graph",
            &gpath,
            "--split",
            &spath,
            "--model",
            model_s,
            "--arrivals",
            "20",
            "--batch",
            "5",
        ]))
        .unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_workload_maps_modes_and_sampling_onto_one_spec() {
        let spec = loadgen_workload(&parsed(&["loadgen"])).unwrap();
        assert_eq!(spec.read_fraction, 1.0, "default mode is read-only");
        assert_eq!(spec.sampling, nai_serve::Sampling::Uniform);
        assert_eq!(spec.edge_fraction, 0.0);

        let spec = loadgen_workload(&parsed(&[
            "loadgen",
            "--mode",
            "mixed",
            "--sampling",
            "zipf",
            "--zipf-s",
            "1.4",
            "--nodes-per-request",
            "3",
        ]))
        .unwrap();
        assert!((spec.read_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(spec.nodes_per_read, 3);
        assert!(
            matches!(spec.sampling, nai_serve::Sampling::Zipf { exponent } if (exponent - 1.4).abs() < 1e-9)
        );
        assert_eq!(
            loadgen_workload(&parsed(&["loadgen", "--mode", "ingest"]))
                .unwrap()
                .read_fraction,
            0.0
        );
        assert!(loadgen_workload(&parsed(&["loadgen", "--mode", "chaos"])).is_err());
        assert!(loadgen_workload(&parsed(&["loadgen", "--sampling", "pareto"])).is_err());
        assert!(
            loadgen_workload(&parsed(&[
                "loadgen",
                "--sampling",
                "zipf",
                "--zipf-s",
                "-2"
            ]))
            .is_err(),
            "invalid exponent rejected by WorkloadSpec::validate"
        );
    }

    #[test]
    fn summary_throughput_counts_completions_per_wall_second() {
        // Two micro-batches of 32, each taking 1 ms, over 2 ms of wall
        // clock: 32,000 predictions per second. The sum of recorded
        // latencies (64 ms) would read 1,000/s.
        let run = RunSummary::default();
        for _ in 0..64 {
            run.record(Duration::from_millis(1), 2);
        }
        assert_eq!(run.count(), 64);
        let line = run.line(Duration::from_millis(2));
        assert!(line.contains("throughput 32000/s"), "{line}");
        assert!(line.contains("mean depth 2.00"), "{line}");
        let empty = RunSummary::default().line(Duration::ZERO);
        assert!(
            empty.contains("p50 0ns") && empty.contains("throughput 0/s"),
            "{empty}"
        );
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let p = parsed(&["generate", "--dataset", "arxiv", "--frobnicate", "1"]);
        assert!(matches!(generate(&p), Err(CliError::Args(_))));
    }
}
