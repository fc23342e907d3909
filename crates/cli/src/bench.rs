//! `nai bench` — the machine-readable scenario-matrix harness.
//!
//! Runs a (topology × workload) matrix: every [`TopologySpec`] is
//! built and quick-trained once, then every [`WorkloadSpec`] drives the
//! same deterministic op stream through **two** stacks —
//!
//! * the **serve stack** ([`NaiService`]: admission control, batching
//!   workers, sequenced replication over shard replicas), paced
//!   closed-loop over client threads or open-loop on the workload's
//!   burst schedule;
//! * the **offline engine** (one solo [`StreamingEngine`] replaying the
//!   stream single-threaded) — the raw algorithmic cost with no
//!   batching or queueing on top.
//!
//! The report lands at `--json PATH` with schema version
//! [`SCHEMA_VERSION`]. **Stability promise:** existing fields are never
//! renamed or removed under the same schema version — new fields may be
//! added; consumers must ignore unknown keys. The emitted file is
//! parsed back and checked against [`validate_report`]'s hard-coded
//! field list before the command exits, so emitter drift fails the run
//! (and CI) instead of silently breaking the perf trajectory in
//! `BENCH_scenarios.json`.

use crate::args::ParsedArgs;
use crate::commands::{inference_config_of, model_kind_of, CliError, CliResult};
use nai_core::checkpoint::ModelCheckpoint;
use nai_core::config::{
    CacheConfig, DistillConfig, InferenceConfig, LoadShedPolicy, NapMode, PipelineConfig,
    ServeConfig,
};
use nai_core::pipeline::NaiPipeline;
use nai_datasets::{Scale, Scenario, TopologySpec};
use nai_serve::{
    Arrivals, HttpClient, Json, NaiService, Op, Reply, Request, ServeError, Server, Ticket,
    WorkloadSampler, WorkloadSpec,
};
use nai_stream::{DynamicGraph, MacsBreakdown, StreamingEngine};
use std::time::{Duration, Instant};

/// Version of the emitted JSON schema; bumped only when an existing
/// field is renamed, removed, or changes meaning. v2: serve latencies
/// come from the log-bucketed observability histograms (quantiles
/// within ~2% relative error, `latency_us.mean` is now fractional) and
/// each cell gains additive `serve.stage_latency` and `serve.batch`
/// sections. Later additive v2 fields: `serve.latency_ns` (exact
/// nanosecond quantiles — `latency_us` clamps non-zero samples to
/// ≥1µs so sub-microsecond cache hits don't read as 0), the `parse`
/// stage, `batch.closed_on_idle`/`closed_on_shutdown`, and the
/// optional per-cell `transport` section emitted under `--transport`
/// (the same op stream replayed over real HTTP through the reactor,
/// pipelined keep-alive and/or per-request connections). v3: the
/// `max_wait` knob is gone, and with it `batch.closed_on_deadline` and
/// `batch.closed_on_shutdown`.
pub const SCHEMA_VERSION: u64 = 3;

/// Which HTTP transport modes to measure per cell (off by default:
/// the core matrix drives [`NaiService`] directly).
#[derive(Debug, Clone, Copy)]
struct TransportPlan {
    pipelined: bool,
    per_request: bool,
    depth: usize,
}

impl TransportPlan {
    fn none() -> Self {
        Self {
            pipelined: false,
            per_request: false,
            depth: 1,
        }
    }

    fn any(&self) -> bool {
        self.pipelined || self.per_request
    }
}

/// Client-observed outcome counts of one serve-stack run.
#[derive(Debug, Default)]
struct RunOutcome {
    ok: u64,
    overloaded: u64,
    errors: u64,
    wall: Duration,
}

/// Offline (solo-engine) replay results.
struct OfflineOutcome {
    predictions: u64,
    depth_histogram: Vec<u64>,
    macs: MacsBreakdown,
    wall: Duration,
}

/// `nai bench`: run the matrix and emit the JSON report.
pub fn bench(args: &ParsedArgs) -> CliResult {
    args.finish(&[
        "json",
        "scale",
        "topologies",
        "workloads",
        "requests",
        "clients",
        "workers",
        "model-kind",
        "k",
        "epochs",
        "hidden",
        "nap",
        "ts",
        "tmin",
        "tmax",
        "batch",
        "parallel-spmm",
        "seed",
        "queue-cap",
        "max-batch",
        "shed-at",
        "shed-tmax",
        "cache",
        "cache-cap",
        "transport",
        "pipeline",
    ])?;
    let json_path = args.require("json")?.to_string();
    let scale = match args.get_or("scale", "test") {
        "test" => Scale::Test,
        "bench" => Scale::Bench,
        other => {
            return Err(CliError::Other(format!(
                "bad --scale `{other}` (expected test | bench)"
            )))
        }
    };
    let topologies = match args.require("topologies") {
        Ok(list) => list
            .split(',')
            .map(|n| TopologySpec::named(n.trim(), scale))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CliError::Other)?,
        Err(_) => TopologySpec::matrix(scale),
    };
    let workloads = match args.require("workloads") {
        Ok(list) => list
            .split(',')
            .map(|n| WorkloadSpec::named(n.trim()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CliError::Other)?,
        Err(_) => WorkloadSpec::matrix(),
    };
    for w in &workloads {
        w.validate().map_err(CliError::Other)?;
    }
    let requests = args.get_parse_or("requests", 120usize)?.max(1);
    let clients = args.get_parse_or("clients", 2usize)?.max(1);
    let seed = args.get_parse_or("seed", 7u64)?;
    let kind = model_kind_of(args)?;
    let k = args.get_parse_or("k", 2usize)?;
    let epochs = args.get_parse_or("epochs", 8usize)?;
    let hidden = args.get_parse_or("hidden", 8usize)?;
    let infer_cfg = inference_config_of(args, k)?;
    let serve_cfg = ServeConfig {
        workers: args.get_parse_or("workers", 2usize)?,
        max_batch: args.get_parse_or("max-batch", 16usize)?,
        queue_cap: args.get_parse_or("queue-cap", 64usize)?,
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
    serve_cfg.validate().map_err(CliError::Other)?;
    let depth = args.get_parse_or("pipeline", 32usize)?.max(1);
    let transport = match args.get_or("transport", "none") {
        "none" => TransportPlan::none(),
        "pipelined" => TransportPlan {
            pipelined: true,
            per_request: false,
            depth,
        },
        "per-request" => TransportPlan {
            pipelined: false,
            per_request: true,
            depth,
        },
        "both" => TransportPlan {
            pipelined: true,
            per_request: true,
            depth,
        },
        other => {
            return Err(CliError::Other(format!(
                "bad --transport `{other}` (expected none | pipelined | per-request | both)"
            )))
        }
    };

    println!(
        "bench: {} topologies × {} workloads, {requests} requests/cell, {} shards, nap {:?}",
        topologies.len(),
        workloads.len(),
        serve_cfg.workers,
        infer_cfg.nap,
    );

    let mut cells: Vec<Json> = Vec::new();
    for topo in &topologies {
        let scenario = topo.build();
        println!(
            "  [{}] {} nodes, {} edges — training {} (k={k}, epochs={epochs}) ...",
            topo.name,
            scenario.graph.num_nodes(),
            scenario.graph.num_edges(),
            kind.name(),
        );
        let pcfg = PipelineConfig {
            k,
            hidden: vec![hidden],
            epochs,
            lr: 0.01,
            seed,
            distill: DistillConfig {
                epochs: epochs / 3 + 1,
                ensemble_r: DistillConfig::default().ensemble_r.min(k),
                ..DistillConfig::default()
            },
            ..PipelineConfig::default()
        };
        let needs_gates = matches!(infer_cfg.nap, NapMode::Gate);
        let trained =
            NaiPipeline::new(kind, pcfg).train(&scenario.graph, &scenario.split, needs_gates);
        let ckpt = ModelCheckpoint::from_engine(&trained.engine, 0.5);
        let seed_graph = DynamicGraph::from_graph(&scenario.graph);

        for workload in &workloads {
            let cell = run_cell(
                &scenario,
                &ckpt,
                &seed_graph,
                workload,
                &infer_cfg,
                serve_cfg,
                requests,
                clients,
                seed,
                transport,
            )?;
            cells.push(cell);
        }
    }

    let report = Json::obj(vec![
        ("schema_version", Json::uint(SCHEMA_VERSION)),
        ("harness", Json::str("nai bench")),
        (
            "scale",
            Json::str(match scale {
                Scale::Test => "test",
                Scale::Bench => "bench",
            }),
        ),
        ("model_kind", Json::str(kind.name())),
        ("nap", Json::str(nap_name(&infer_cfg))),
        ("k", Json::uint(k as u64)),
        ("workers", Json::uint(serve_cfg.workers as u64)),
        ("requests_per_cell", Json::uint(requests as u64)),
        ("clients", Json::uint(clients as u64)),
        ("seed", Json::uint(seed)),
        ("cache_enabled", Json::Bool(serve_cfg.cache.enabled)),
        ("cache_cap", Json::uint(serve_cfg.cache.cap as u64)),
        (
            "topologies",
            Json::Arr(topologies.iter().map(|t| Json::str(&t.name)).collect()),
        ),
        (
            "workloads",
            Json::Arr(workloads.iter().map(|w| Json::str(&w.name)).collect()),
        ),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::write(&json_path, format!("{report}\n"))
        .map_err(|e| CliError::Other(format!("writing {json_path}: {e}")))?;

    // Self-check: parse the file back and validate it against the
    // hard-coded schema, so emitter drift fails the run (and CI).
    let raw = std::fs::read_to_string(&json_path)
        .map_err(|e| CliError::Other(format!("re-reading {json_path}: {e}")))?;
    let parsed = Json::parse(raw.trim())
        .map_err(|e| CliError::Other(format!("emitted JSON does not parse: {e}")))?;
    let topo_names: Vec<String> = topologies.iter().map(|t| t.name.clone()).collect();
    let workload_names: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
    validate_report(&parsed, &topo_names, &workload_names)
        .map_err(|e| CliError::Other(format!("schema validation failed: {e}")))?;
    println!(
        "bench: wrote {} cells to {json_path} (schema v{SCHEMA_VERSION}, validated)",
        topo_names.len() * workload_names.len()
    );
    Ok(())
}

/// One (topology × workload) cell: offline replay + serve-stack run.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    scenario: &Scenario,
    ckpt: &ModelCheckpoint,
    seed_graph: &DynamicGraph,
    workload: &WorkloadSpec,
    infer_cfg: &InferenceConfig,
    serve_cfg: ServeConfig,
    requests: usize,
    clients: usize,
    seed: u64,
    transport: TransportPlan,
) -> Result<Json, CliError> {
    // One deterministic op stream per cell. Ops only reference the seed
    // population, so they are valid under any concurrent interleaving
    // (ingested ids are never read back here — `nai loadgen` covers
    // read-your-writes).
    let population = scenario.graph.num_nodes() as u32;
    let feature_dim = scenario.graph.feature_dim();
    let mut sampler = WorkloadSampler::new(workload.clone(), seed ^ 0xCE11);
    let ops: Vec<Op> = (0..requests)
        .map(|_| sampler.next_op(population, feature_dim))
        .collect();

    let offline = offline_run(ckpt, seed_graph, &ops, infer_cfg);

    let engines = StreamingEngine::shard_replicas(ckpt, seed_graph, serve_cfg.workers);
    let service = NaiService::new(engines, *infer_cfg, serve_cfg).map_err(CliError::Other)?;
    let outcome = match workload.arrivals {
        Arrivals::Closed => closed_loop(&service, &ops, clients),
        Arrivals::Open { burst, period } => open_loop(&service, &ops, burst, period),
    };
    service.shutdown();
    let metrics = service.metrics();

    let serve_throughput = if outcome.wall.as_secs_f64() > 0.0 {
        outcome.ok as f64 / outcome.wall.as_secs_f64()
    } else {
        0.0
    };
    let offline_throughput = if offline.wall.as_secs_f64() > 0.0 {
        offline.predictions as f64 / offline.wall.as_secs_f64()
    } else {
        0.0
    };
    let qs = metrics.latency.quantiles(&[0.5, 0.95, 0.99]);
    // Clamp non-zero samples to ≥1µs: sub-microsecond cache hits would
    // otherwise truncate to 0µs and read as "no latency". Exact values
    // live in the additive `latency_ns` section.
    let us = |ns: u64| Json::uint(if ns == 0 { 0 } else { (ns / 1_000).max(1) });
    println!(
        "    [{} × {}] serve {:.0} req/s (p99 {}us, shed {}), offline {:.0} preds/s",
        scenario.name,
        workload.name,
        serve_throughput,
        qs[2] / 1_000,
        metrics.shed_ops,
        offline_throughput,
    );
    // Per-stage lifecycle spans from the serve-side observability hub:
    // where a request's wall time actually went in this cell.
    let stage_latency = Json::Obj(
        nai_obs::Stage::ALL
            .iter()
            .map(|&s| {
                let h = &metrics.stages[s.index()];
                (
                    s.name().to_string(),
                    Json::obj(vec![
                        ("count", Json::uint(h.count())),
                        ("mean_us", Json::Num(h.mean() / 1_000.0)),
                        ("p99_us", us(h.quantile(0.99))),
                    ]),
                )
            })
            .collect(),
    );

    // Optional HTTP replay: the same op stream again, but over real
    // sockets through the event-driven reactor — what the transport
    // itself costs on top of the service stack. Each mode gets a fresh
    // service so mutations from the direct run don't skew it.
    let transport_section = if transport.any() {
        let mut entries: Vec<(String, Json)> = vec![(
            "pipeline_depth".to_string(),
            Json::uint(transport.depth as u64),
        )];
        for (name, per_request) in [("pipelined", false), ("per_request", true)] {
            if (per_request && !transport.per_request) || (!per_request && !transport.pipelined) {
                continue;
            }
            let engines = StreamingEngine::shard_replicas(ckpt, seed_graph, serve_cfg.workers);
            let service =
                NaiService::new(engines, *infer_cfg, serve_cfg).map_err(CliError::Other)?;
            let server = Server::start(std::sync::Arc::new(service), "127.0.0.1:0")
                .map_err(|e| CliError::Other(format!("transport server: {e}")))?;
            let http = http_run(
                server.local_addr(),
                &ops,
                clients,
                per_request,
                transport.depth,
            );
            server.shutdown();
            let rps = if http.wall.as_secs_f64() > 0.0 {
                http.ok as f64 / http.wall.as_secs_f64()
            } else {
                0.0
            };
            println!(
                "      transport {name}: {rps:.0} req/s (ok {}, overloaded {}, errors {})",
                http.ok, http.overloaded, http.errors,
            );
            entries.push((
                name.to_string(),
                Json::obj(vec![
                    ("ok", Json::uint(http.ok)),
                    ("overloaded", Json::uint(http.overloaded)),
                    ("errors", Json::uint(http.errors)),
                    ("wall_ms", Json::Num(http.wall.as_secs_f64() * 1e3)),
                    ("throughput_rps", Json::Num(rps)),
                ]),
            ));
        }
        Some(Json::Obj(entries))
    } else {
        None
    };

    let mut fields = vec![
        ("topology", Json::str(&scenario.name)),
        ("workload", Json::str(&workload.name)),
        (
            "graph",
            Json::obj(vec![
                ("nodes", Json::uint(scenario.graph.num_nodes() as u64)),
                ("edges", Json::uint(scenario.graph.num_edges() as u64)),
            ]),
        ),
        ("requests", Json::uint(requests as u64)),
        (
            "serve",
            Json::obj(vec![
                ("ok", Json::uint(outcome.ok)),
                ("overloaded", Json::uint(outcome.overloaded)),
                ("errors", Json::uint(outcome.errors)),
                ("wall_ms", Json::Num(outcome.wall.as_secs_f64() * 1e3)),
                ("throughput_rps", Json::Num(serve_throughput)),
                (
                    "latency_us",
                    Json::obj(vec![
                        ("p50", us(qs[0])),
                        ("p95", us(qs[1])),
                        ("p99", us(qs[2])),
                        ("max", us(metrics.latency.max())),
                        ("mean", Json::Num(metrics.latency.mean() / 1_000.0)),
                    ]),
                ),
                (
                    "latency_ns",
                    Json::obj(vec![
                        ("p50", Json::uint(qs[0])),
                        ("p95", Json::uint(qs[1])),
                        ("p99", Json::uint(qs[2])),
                        ("max", Json::uint(metrics.latency.max())),
                    ]),
                ),
                ("stage_latency", stage_latency),
                (
                    "batch",
                    Json::obj(vec![
                        (
                            "closed_on_max_batch",
                            Json::uint(metrics.closed_on_max_batch),
                        ),
                        ("closed_on_idle", Json::uint(metrics.closed_on_idle)),
                        ("mean_size", Json::Num(metrics.batch_sizes.mean())),
                    ]),
                ),
                ("shed_ops", Json::uint(metrics.shed_ops)),
                ("degraded_batches", Json::uint(metrics.degraded_batches)),
                ("cache_hits", Json::uint(metrics.cache_hits)),
                ("cache_misses", Json::uint(metrics.cache_misses)),
                ("mean_depth", Json::Num(metrics.mean_depth())),
                (
                    "depth_histogram",
                    histogram_json(&metrics.depths.exact_small_counts()),
                ),
                ("macs", macs_json(&metrics.macs)),
            ]),
        ),
        (
            "offline",
            Json::obj(vec![
                ("predictions", Json::uint(offline.predictions)),
                ("wall_ms", Json::Num(offline.wall.as_secs_f64() * 1e3)),
                ("throughput_rps", Json::Num(offline_throughput)),
                (
                    "mean_depth",
                    Json::Num(mean_depth(&offline.depth_histogram)),
                ),
                ("depth_histogram", histogram_json(&offline.depth_histogram)),
                ("macs", macs_json(&offline.macs)),
            ]),
        ),
    ];
    if let Some(t) = transport_section {
        fields.push(("transport", t));
    }
    Ok(Json::obj(fields))
}

/// Drives the op stream over HTTP against a running server —
/// closed-loop client threads, each either pipelining keep-alive
/// bursts of `depth` requests or opening one `Connection: close`
/// connection per request.
fn http_run(
    addr: std::net::SocketAddr,
    ops: &[Op],
    clients: usize,
    per_request: bool,
    depth: usize,
) -> RunOutcome {
    let counters = std::sync::Mutex::new((0u64, 0u64, 0u64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let my_lines: Vec<String> = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .map(|(_, op)| {
                    let line = nai_serve::proto::render_request(&Request {
                        op: op.clone(),
                        shard: None,
                    });
                    format!("{line}\n")
                })
                .collect();
            let counters = &counters;
            scope.spawn(move || {
                // 0 = ok, 1 = overloaded, 2 = error.
                let classify = |body: &str| -> usize {
                    match Json::parse(body.trim()) {
                        Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => 0,
                        Ok(v) if v.get("error").and_then(Json::as_str) == Some("overloaded") => 1,
                        _ => 2,
                    }
                };
                let mut tallies = [0u64; 3];
                if per_request {
                    for line in &my_lines {
                        match HttpClient::connect(addr)
                            .and_then(|mut c| c.request_closing("POST", "/v1", Some(line)))
                        {
                            Ok((_, body)) => tallies[classify(&body)] += 1,
                            Err(_) => tallies[2] += 1,
                        }
                    }
                } else {
                    let mut client = HttpClient::connect(addr).ok();
                    let mut sent = 0usize;
                    while sent < my_lines.len() {
                        let window = depth.min(my_lines.len() - sent);
                        let refs: Vec<&str> = my_lines[sent..sent + window]
                            .iter()
                            .map(String::as_str)
                            .collect();
                        match client
                            .as_mut()
                            .ok_or_else(|| {
                                std::io::Error::new(std::io::ErrorKind::NotConnected, "down")
                            })
                            .and_then(|c| c.pipeline("POST", "/v1", &refs))
                        {
                            Ok(responses) => {
                                for (_, body) in responses {
                                    tallies[classify(&body)] += 1;
                                }
                            }
                            Err(_) => {
                                tallies[2] += window as u64;
                                // Poisoned connection; reconnect or give
                                // up on the remainder of this share.
                                client = HttpClient::connect(addr).ok();
                                if client.is_none() {
                                    tallies[2] += (my_lines.len() - sent - window) as u64;
                                    sent = my_lines.len();
                                    continue;
                                }
                            }
                        }
                        sent += window;
                    }
                }
                let mut agg = counters.lock().unwrap();
                agg.0 += tallies[0];
                agg.1 += tallies[1];
                agg.2 += tallies[2];
            });
        }
    });
    let wall = start.elapsed();
    let (ok, overloaded, errors) = counters.into_inner().unwrap();
    RunOutcome {
        ok,
        overloaded,
        errors,
        wall,
    }
}

/// Replays the op stream on one solo engine, single-threaded — the raw
/// algorithmic cost of the cell with no serving layer on top.
fn offline_run(
    ckpt: &ModelCheckpoint,
    seed_graph: &DynamicGraph,
    ops: &[Op],
    cfg: &InferenceConfig,
) -> OfflineOutcome {
    let mut engine = StreamingEngine::from_checkpoint(ckpt, seed_graph.clone());
    let mut depth_histogram: Vec<u64> = Vec::new();
    let bump = |hist: &mut Vec<u64>, depth: usize| {
        if depth >= hist.len() {
            hist.resize(depth + 1, 0);
        }
        hist[depth] += 1;
    };
    let mut predictions = 0u64;
    let start = Instant::now();
    for op in ops {
        match op {
            Op::Infer { nodes } => {
                for (_, depth) in engine.infer_nodes(nodes, cfg) {
                    bump(&mut depth_histogram, depth);
                    predictions += 1;
                }
            }
            Op::Ingest {
                features,
                neighbors,
            } => {
                engine.ingest(features, neighbors);
                for p in engine.flush(cfg) {
                    bump(&mut depth_histogram, p.depth);
                    predictions += 1;
                }
            }
            Op::ObserveEdge { u, v } => {
                engine.observe_edge(*u, *v);
            }
        }
    }
    OfflineOutcome {
        predictions,
        depth_histogram,
        macs: engine.macs_breakdown(),
        wall: start.elapsed(),
    }
}

/// Closed loop: `clients` threads in lockstep, each waiting for its
/// reply before issuing the next request of its share.
fn closed_loop(service: &NaiService, ops: &[Op], clients: usize) -> RunOutcome {
    let counters = std::sync::Mutex::new((0u64, 0u64, 0u64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let my_ops: Vec<Op> = ops
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .map(|(_, op)| op.clone())
                .collect();
            let counters = &counters;
            scope.spawn(move || {
                let (mut ok, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
                for op in my_ops {
                    match service.call(Request { op, shard: None }) {
                        Ok(Reply::Error { .. }) => errors += 1,
                        Ok(_) => ok += 1,
                        Err(ServeError::Overloaded) => overloaded += 1,
                        Err(_) => errors += 1,
                    }
                }
                let mut agg = counters.lock().unwrap();
                agg.0 += ok;
                agg.1 += overloaded;
                agg.2 += errors;
            });
        }
    });
    let wall = start.elapsed();
    let (ok, overloaded, errors) = counters.into_inner().unwrap();
    RunOutcome {
        ok,
        overloaded,
        errors,
        wall,
    }
}

/// Open loop: requests fire on the burst schedule regardless of
/// replies (offered load does not back off), so admission control and
/// load shedding actually engage; replies are collected afterwards.
fn open_loop(service: &NaiService, ops: &[Op], burst: usize, period: Duration) -> RunOutcome {
    let mut outcome = RunOutcome::default();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(ops.len());
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = start + period * (i / burst.max(1)) as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match service.submit(Request {
            op: op.clone(),
            shard: None,
        }) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded) => outcome.overloaded += 1,
            Err(_) => outcome.errors += 1,
        }
    }
    for t in tickets {
        match t.wait(Duration::from_secs(30)) {
            Ok(Reply::Error { .. }) | Err(_) => outcome.errors += 1,
            Ok(_) => outcome.ok += 1,
        }
    }
    outcome.wall = start.elapsed();
    outcome
}

fn histogram_json(hist: &[u64]) -> Json {
    Json::Arr(hist.iter().map(|&c| Json::uint(c)).collect())
}

fn macs_json(m: &MacsBreakdown) -> Json {
    Json::obj(vec![
        ("propagation", Json::uint(m.propagation)),
        ("nap", Json::uint(m.nap)),
        ("classification", Json::uint(m.classification)),
        ("replication", Json::uint(m.replication)),
        ("total", Json::uint(m.total())),
    ])
}

fn mean_depth(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: u64 = hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    weighted as f64 / total as f64
}

pub(crate) fn nap_name(cfg: &InferenceConfig) -> &'static str {
    match cfg.nap {
        NapMode::Fixed => "fixed",
        NapMode::Distance { .. } => "distance",
        NapMode::Gate => "gate",
        NapMode::UpperBound { .. } => "upper",
    }
}

/// Validates a bench report against the **hard-coded** schema: version,
/// top-level fields, one cell per (topology × workload), and every
/// per-cell field `nai bench` promises. Lives apart from the emitter on
/// purpose — renaming or dropping a field there makes this fail, which
/// is exactly the schema-drift signal CI wants.
pub fn validate_report(
    report: &Json,
    topologies: &[String],
    workloads: &[String],
) -> Result<(), String> {
    match report.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "schema_version must be {SCHEMA_VERSION}, got {other:?}"
            ))
        }
    }
    for key in [
        "harness",
        "scale",
        "model_kind",
        "nap",
        "k",
        "workers",
        "requests_per_cell",
        "clients",
        "seed",
        "cache_enabled",
        "cache_cap",
        "topologies",
        "workloads",
        "cells",
    ] {
        if report.get(key).is_none() {
            return Err(format!("missing top-level field `{key}`"));
        }
    }
    let cells = report
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("`cells` must be an array")?;
    let field_str = |v: &Json, key: &str| -> Option<String> {
        v.get(key).and_then(Json::as_str).map(str::to_string)
    };
    for topology in topologies {
        for workload in workloads {
            let cell = cells
                .iter()
                .find(|c| {
                    field_str(c, "topology").as_deref() == Some(topology)
                        && field_str(c, "workload").as_deref() == Some(workload)
                })
                .ok_or_else(|| format!("missing cell ({topology} × {workload})"))?;
            let ctx = format!("cell ({topology} × {workload})");
            let graph = cell
                .get("graph")
                .ok_or_else(|| format!("{ctx}: no graph"))?;
            for key in ["nodes", "edges"] {
                if graph.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("{ctx}: graph.{key} missing or not a count"));
                }
            }
            if cell.get("requests").and_then(Json::as_u64).is_none() {
                return Err(format!("{ctx}: `requests` missing"));
            }
            for (side, counters) in [
                (
                    "serve",
                    &[
                        "ok",
                        "overloaded",
                        "errors",
                        "shed_ops",
                        "degraded_batches",
                        "cache_hits",
                        "cache_misses",
                    ][..],
                ),
                ("offline", &["predictions"][..]),
            ] {
                let section = cell
                    .get(side)
                    .ok_or_else(|| format!("{ctx}: `{side}` missing"))?;
                for key in counters {
                    if section.get(key).and_then(Json::as_u64).is_none() {
                        return Err(format!("{ctx}: {side}.{key} missing or not a count"));
                    }
                }
                for key in ["wall_ms", "throughput_rps", "mean_depth"] {
                    if section.get(key).and_then(Json::as_f64).is_none() {
                        return Err(format!("{ctx}: {side}.{key} missing or not a number"));
                    }
                }
                let hist = section
                    .get("depth_histogram")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("{ctx}: {side}.depth_histogram missing"))?;
                if hist.iter().any(|c| c.as_u64().is_none()) {
                    return Err(format!("{ctx}: {side}.depth_histogram holds non-counts"));
                }
                let macs = section
                    .get("macs")
                    .ok_or_else(|| format!("{ctx}: {side}.macs missing"))?;
                for key in [
                    "propagation",
                    "nap",
                    "classification",
                    "replication",
                    "total",
                ] {
                    if macs.get(key).and_then(Json::as_u64).is_none() {
                        return Err(format!("{ctx}: {side}.macs.{key} missing"));
                    }
                }
            }
            let serve = cell.get("serve").expect("checked above");
            let latency = serve
                .get("latency_us")
                .ok_or_else(|| format!("{ctx}: serve.latency_us missing"))?;
            for key in ["p50", "p95", "p99", "max"] {
                if latency.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("{ctx}: serve.latency_us.{key} missing"));
                }
            }
            if latency.get("mean").and_then(Json::as_f64).is_none() {
                return Err(format!("{ctx}: serve.latency_us.mean missing"));
            }
            // Exact-nanosecond counterpart: `latency_us` clamps non-zero
            // samples to ≥1µs, so sub-µs truth lives here.
            let latency_ns = serve
                .get("latency_ns")
                .ok_or_else(|| format!("{ctx}: serve.latency_ns missing"))?;
            for key in ["p50", "p95", "p99", "max"] {
                if latency_ns.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("{ctx}: serve.latency_ns.{key} missing"));
                }
            }
            // Additive observability fields (schema v2): per-stage
            // lifecycle spans and batch anatomy.
            let stages = serve
                .get("stage_latency")
                .ok_or_else(|| format!("{ctx}: serve.stage_latency missing"))?;
            for stage in [
                "parse",
                "queue_wait",
                "batch_wait",
                "engine_propagation",
                "engine_nap",
                "engine_classify",
                "serialize",
            ] {
                let entry = stages
                    .get(stage)
                    .ok_or_else(|| format!("{ctx}: serve.stage_latency.{stage} missing"))?;
                if entry.get("count").and_then(Json::as_u64).is_none()
                    || entry.get("p99_us").and_then(Json::as_u64).is_none()
                    || entry.get("mean_us").and_then(Json::as_f64).is_none()
                {
                    return Err(format!(
                        "{ctx}: serve.stage_latency.{stage} needs count/mean_us/p99_us"
                    ));
                }
            }
            let batch = serve
                .get("batch")
                .ok_or_else(|| format!("{ctx}: serve.batch missing"))?;
            for key in ["closed_on_max_batch", "closed_on_idle"] {
                if batch.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("{ctx}: serve.batch.{key} missing or not a count"));
                }
            }
            if batch.get("mean_size").and_then(Json::as_f64).is_none() {
                return Err(format!("{ctx}: serve.batch.mean_size missing"));
            }
            // The `transport` section is optional (emitted only under
            // `--transport`), but when present its modes must be whole.
            if let Some(t) = cell.get("transport") {
                if t.get("pipeline_depth").and_then(Json::as_u64).is_none() {
                    return Err(format!("{ctx}: transport.pipeline_depth missing"));
                }
                for mode in ["pipelined", "per_request"] {
                    let Some(section) = t.get(mode) else { continue };
                    for key in ["ok", "overloaded", "errors"] {
                        if section.get(key).and_then(Json::as_u64).is_none() {
                            return Err(format!("{ctx}: transport.{mode}.{key} missing"));
                        }
                    }
                    for key in ["wall_ms", "throughput_rps"] {
                        if section.get(key).and_then(Json::as_f64).is_none() {
                            return Err(format!("{ctx}: transport.{mode}.{key} missing"));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> Json {
        let raw = r#"{
            "schema_version": 3, "harness": "nai bench", "scale": "test",
            "model_kind": "SGC", "nap": "distance", "k": 2, "workers": 2,
            "requests_per_cell": 4, "clients": 1, "seed": 7,
            "cache_enabled": false, "cache_cap": 4096,
            "topologies": ["t"], "workloads": ["w"],
            "cells": [{
                "topology": "t", "workload": "w",
                "graph": {"nodes": 10, "edges": 20}, "requests": 4,
                "serve": {"ok": 4, "overloaded": 0, "errors": 0,
                          "wall_ms": 1.5, "throughput_rps": 100.0,
                          "latency_us": {"p50": 5, "p95": 9, "p99": 9, "max": 9, "mean": 6.2},
                          "latency_ns": {"p50": 5200, "p95": 9100, "p99": 9400, "max": 9800},
                          "stage_latency": {
                              "parse": {"count": 4, "mean_us": 0.3, "p99_us": 1},
                              "queue_wait": {"count": 4, "mean_us": 1.1, "p99_us": 2},
                              "batch_wait": {"count": 4, "mean_us": 0.5, "p99_us": 1},
                              "engine_propagation": {"count": 4, "mean_us": 2.0, "p99_us": 3},
                              "engine_nap": {"count": 4, "mean_us": 0.8, "p99_us": 1},
                              "engine_classify": {"count": 4, "mean_us": 1.0, "p99_us": 2},
                              "serialize": {"count": 4, "mean_us": 0.8, "p99_us": 1}},
                          "batch": {"closed_on_max_batch": 1, "closed_on_idle": 1,
                                    "mean_size": 2.0},
                          "shed_ops": 0, "degraded_batches": 0,
                          "cache_hits": 0, "cache_misses": 0, "mean_depth": 1.5,
                          "depth_histogram": [0, 2, 2],
                          "macs": {"propagation": 1, "nap": 1, "classification": 1,
                                   "replication": 0, "total": 3}},
                "offline": {"predictions": 4, "wall_ms": 1.0, "throughput_rps": 200.0,
                            "mean_depth": 1.5, "depth_histogram": [0, 2, 2],
                            "macs": {"propagation": 1, "nap": 1, "classification": 1,
                                     "replication": 0, "total": 3}},
                "transport": {"pipeline_depth": 32,
                              "pipelined": {"ok": 4, "overloaded": 0, "errors": 0,
                                            "wall_ms": 2.0, "throughput_rps": 80.0},
                              "per_request": {"ok": 4, "overloaded": 0, "errors": 0,
                                              "wall_ms": 4.0, "throughput_rps": 40.0}}
            }]
        }"#;
        Json::parse(raw).unwrap()
    }

    #[test]
    fn validator_accepts_a_complete_report() {
        validate_report(&tiny_report(), &["t".into()], &["w".into()]).unwrap();
    }

    #[test]
    fn validator_rejects_missing_cells_and_schema_drift() {
        let report = tiny_report();
        // A cell the matrix expects but the report lacks.
        let err = validate_report(&report, &["t".into(), "t2".into()], &["w".into()]);
        assert!(err.unwrap_err().contains("missing cell (t2 × w)"));
        // Version drift.
        let mut bumped = report.clone();
        if let Json::Obj(fields) = &mut bumped {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::uint(99);
                }
            }
        }
        assert!(validate_report(&bumped, &["t".into()], &["w".into()]).is_err());
        // Field drift: drop a promised per-cell field.
        let mut dropped = report.clone();
        if let Json::Obj(fields) = &mut dropped {
            for (k, v) in fields.iter_mut() {
                if k != "cells" {
                    continue;
                }
                let Json::Arr(cells) = v else { unreachable!() };
                let Json::Obj(cell) = &mut cells[0] else {
                    unreachable!()
                };
                for (ck, cv) in cell.iter_mut() {
                    if ck != "serve" {
                        continue;
                    }
                    let Json::Obj(serve) = cv else { unreachable!() };
                    serve.retain(|(sk, _)| sk != "shed_ops");
                }
            }
        }
        let err = validate_report(&dropped, &["t".into()], &["w".into()]).unwrap_err();
        assert!(err.contains("shed_ops"), "{err}");
    }
}
