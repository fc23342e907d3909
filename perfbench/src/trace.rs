//! The traced run (`--trace 1`): per-layer numbers, never used for the
//! end-to-end metrics.
//!
//! First it drives the paced and capacity phases of the workload's
//! traffic through the server (for `batch-large`, 500-node reads) and
//! reads the service's own counters around them. Then it replays a
//! prefix of the op stream at each rung of the stack, timing every call
//! from outside through the layer's public function:
//!
//! | rung | spans |
//! |---|---|
//! | kernel | `graph.hop_sets_into`, `graph.shrink_hop_sets`, `graph.spmm_gather_into`, `models.forward`, `linalg.matmul`, under one `kernel.op` root per op |
//! | core | `core.infer` |
//! | stream | `stream.infer_nodes`, `stream.ingest_flush`, `stream.observe_edge`, `stream.apply_replicated` |
//! | service | `service.call` (one request in flight) |
//! | proto | `transport.parse_request`, `transport.render_reply` |
//! | HTTP | `transport.request` (one request in flight) |
//!
//! The kernel rung repeats the engine's own kernel work for each op:
//! hop sets to `T_max`, one gather-SpMM per depth, and — using the exit
//! depths `core.infer` chose for the same op — the shrink of the later
//! hop sets and the exiting rows' classifier. So its total is the
//! kernel share of `core.infer`, and its predictions must equal the
//! engine's.
//!
//! Spans stay in memory and are written to
//! `.perfbench_out/trace-<workload>-<seed>.json` at the end, with each
//! layer's total and self time.

use crate::prep::{self, Decoded};
use crate::serve::{self, interval_mean, Live};
use crate::spec::{self, Drive, Workload};
use crate::stats;
use crate::wire;
use crate::{Metric, Outcome};
use nai::core::active::FrontierPlan;
use nai::core::inference::NaiEngine;
use nai::graph::frontier::BfsScratch;
use nai::graph::{normalized_adjacency, Convolution, CsrMatrix};
use nai::linalg::ops::argmax_rows;
use nai::linalg::DenseMatrix;
use nai::models::DepthClassifier;
use nai::serve::proto::{
    parse_request, render_reply, render_request, NodeResult, Op, Reply, Request,
};
use nai::stream::{DynamicGraph, StreamingEngine};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 29] = [
    ("graph.hop_sets_ns", "ns"),
    ("graph.support_rows_per_seed", "rows"),
    ("graph.spmm_gather_ns", "ns"),
    ("graph.spmm_gmacs_s", "GMAC/s"),
    ("linalg.matmul_ns", "ns"),
    ("models.forward_ns", "ns"),
    ("core.infer_ns", "ns"),
    ("core.non_kernel_share", "share"),
    ("core.macs_per_pred", "MAC"),
    ("core.mean_depth", "hops"),
    ("core.exit_share_d1", "share"),
    ("stream.infer_nodes_ns", "ns"),
    ("stream.ingest_flush_ns", "ns"),
    ("stream.observe_edge_ns", "ns"),
    ("stream.apply_replicated_ns", "ns"),
    ("service.call_ns", "ns"),
    ("service.handoff_ns", "ns"),
    ("service.queue_wait_us", "us"),
    ("service.batch_wait_us", "us"),
    ("service.batch_mean_size", "ops"),
    ("service.overloaded_share", "share"),
    ("cache.hit_ratio", "share"),
    ("proto.parse_request_ns", "ns"),
    ("proto.render_reply_ns", "ns"),
    ("transport.request_ns", "ns"),
    ("transport.overhead_ns", "ns"),
    ("client.gen_late_p99_us", "us"),
    ("client.server_gap_us", "us"),
    ("obs.trace_overhead_share", "share"),
];

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span log.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: `(calls, total_ns, self_ns)`, where self time is
    /// the span's duration minus that of its direct children.
    fn layers(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child[i]);
        }
        out
    }

    /// Mean duration of the spans named `name` whose request ids pass
    /// `keep`, in ns; 0 when there are none.
    fn mean_ns(&self, name: &str, keep: impl Fn(u64) -> bool) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s.request))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        stats::mean(&d)
    }

    fn total_ns(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::from("{\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}",
                if i == 0 { "" } else { ",\n" },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.request
            );
        }
        s.push_str("\n], \"layers\": {\n");
        let layers = self.layers();
        for (i, (name, (calls, total, own))) in layers.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{name}\": {{\"calls\": {calls}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                if i == 0 { "" } else { ",\n" }
            );
        }
        s.push_str("\n}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// The kernel rung's fixed state: the engine's own inputs, rebuilt
/// from the checkpoint outside any span.
struct Kernel {
    adj: CsrMatrix,
    norm_adj: CsrMatrix,
    features: DenseMatrix,
    classifiers: Vec<DepthClassifier>,
    bfs: BfsScratch,
    plan: FrontierPlan,
    h_prev: DenseMatrix,
    h_next: DenseMatrix,
    /// Rows propagated and MACs spent by the gather-SpMM.
    rows: u64,
    macs: u64,
}

impl Kernel {
    fn new(d: &Decoded) -> Self {
        let n = d.graph.num_nodes();
        let mut plan = FrontierPlan::default();
        plan.reset(n);
        Self {
            adj: d.graph.adj.clone(),
            norm_adj: normalized_adjacency(&d.graph.adj, Convolution::Symmetric),
            features: d.graph.features.clone(),
            classifiers: d.checkpoint.build_classifiers(),
            bfs: BfsScratch::new(n),
            plan,
            h_prev: DenseMatrix::zeros(0, 0),
            h_next: DenseMatrix::zeros(0, 0),
            rows: 0,
            macs: 0,
        }
    }

    /// Replays one op's kernel work with the exit depths the engine
    /// chose; returns the predictions the replay computes.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        req: u64,
        seeds: &[u32],
        depths: &[usize],
    ) -> Vec<usize> {
        let f = self.features.cols();
        let t_max = spec::T_MAX;
        let op = rec.open("kernel.op", None, req);
        let root = Some(op);
        let (bfs, adj, sets) = (&mut self.bfs, &self.adj, &mut self.plan.sets);
        rec.time("graph.hop_sets_into", root, req, || {
            bfs.hop_sets_into(adj, seeds, t_max, sets)
        });
        self.plan.init_support();
        self.h_prev
            .reset_for_overwrite(self.plan.support().len(), f);
        for (t, &g) in self.plan.support().iter().enumerate() {
            self.h_prev
                .row_mut(t)
                .copy_from_slice(self.features.row(g as usize));
        }
        let mut history: Vec<DenseMatrix> = vec![DenseMatrix::zeros(seeds.len(), f); t_max + 1];
        for (r, &v) in seeds.iter().enumerate() {
            history[0]
                .row_mut(r)
                .copy_from_slice(self.features.row(v as usize));
        }
        let mut preds = vec![usize::MAX; seeds.len()];
        let mut active: Vec<usize> = (0..seeds.len()).collect();
        for l in 1..=t_max {
            let support = std::mem::take(&mut self.plan.sets[l]);
            let (a, cm, hp, hn) = (
                &self.norm_adj,
                self.plan.col_map(),
                &self.h_prev,
                &mut self.h_next,
            );
            self.macs += rec.time("graph.spmm_gather_into", root, req, || {
                a.spmm_gather_into(&support, cm, hp, hn, false)
            });
            self.rows += support.len() as u64;
            self.plan.advance(support);
            for &r in &active {
                let local = self.plan.local(seeds[r]) as usize;
                history[l]
                    .row_mut(r)
                    .copy_from_slice(self.h_next.row(local));
            }
            let exiting: Vec<usize> = active.iter().copied().filter(|&r| depths[r] == l).collect();
            if !exiting.is_empty() {
                let feats: Vec<DenseMatrix> = history[..=l]
                    .iter()
                    .map(|m| m.gather_rows(&exiting).expect("exit rows are batch rows"))
                    .collect();
                let clf = &self.classifiers[l - 1];
                let logits = rec.time("models.forward", root, req, || clf.forward(&feats));
                let input = clf.combine_input(&feats);
                let w = &clf.mlp.layers()[0].w;
                rec.time("linalg.matmul", root, req, || {
                    input.matmul(w).expect("classifier input width")
                });
                for (&r, p) in exiting.iter().zip(argmax_rows(&logits)) {
                    preds[r] = p;
                }
                active.retain(|&r| depths[r] != l);
                if active.is_empty() {
                    break;
                }
                if l < t_max {
                    let survivors: Vec<u32> = active.iter().map(|&r| seeds[r]).collect();
                    let (bfs, adj, sets) =
                        (&mut self.bfs, &self.adj, &mut self.plan.sets[l + 1..=t_max]);
                    rec.time("graph.shrink_hop_sets", root, req, || {
                        bfs.shrink_hop_sets(adj, &survivors, sets, t_max - l - 1)
                    });
                }
            }
            std::mem::swap(&mut self.h_prev, &mut self.h_next);
        }
        self.plan.finish();
        rec.close(op);
        preds
    }
}

/// One op of the replayed prefix.
enum RungOp {
    Read(Vec<u32>),
    Mutate(Request),
}

impl RungOp {
    fn request(&self) -> Request {
        match self {
            RungOp::Read(nodes) => Request {
                op: Op::Infer {
                    nodes: nodes.clone(),
                },
                shard: None,
            },
            RungOp::Mutate(r) => r.clone(),
        }
    }
}

struct Run {
    rec: Recorder,
    m: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    mismatches: usize,
    notes: Vec<String>,
}

impl Run {
    fn fail(&mut self, what: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// The traced run of one workload.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let prepared = prep::load_or_prepare(w.family, seed)?;
    let (mut live, _) = serve::setup(&prepared, w)?;
    let mut run = Run {
        rec: Recorder::new(),
        m: LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect(),
        attempted: 0,
        failed: 0,
        mismatches: 0,
        notes: Vec::new(),
    };
    let mut info = Vec::new();

    let t = &w.traffic;
    let load = serve::load_phases(&mut live, t, seed, seconds)?;
    let v = serve::check(
        &load.ops,
        &load.replies,
        &live.decoded.graph.labels,
        live.svc.info().seed_nodes as u32,
        None,
    );
    run.attempted += load.ops.len() as u64;
    run.failed += v.ok.iter().filter(|&&ok| !ok).count() as u64;
    for n in v.notes {
        run.fail(n);
    }
    let [s0, s1, s2] = &load.snaps;
    let paced_ops = load.paced_len as f64;
    let updates = [
        (
            "service.queue_wait_us",
            interval_mean(&s0.stages[1], &s1.stages[1]) / 1e3,
        ),
        (
            "service.batch_wait_us",
            interval_mean(&s0.stages[2], &s1.stages[2]) / 1e3,
        ),
        (
            "service.batch_mean_size",
            interval_mean(&s1.batch_sizes, &s2.batch_sizes),
        ),
        (
            "service.overloaded_share",
            (s2.overloaded - s0.overloaded) as f64 / load.ops.len() as f64,
        ),
        (
            "client.gen_late_p99_us",
            stats::quantile(&load.gen_late_us, 0.99),
        ),
        // Client-observed p50 against the server's own p50 over the same
        // paced interval (the histogram also holds the set-up request,
        // one sample against `paced_ops`).
        (
            "client.server_gap_us",
            stats::median(&load.paced_lat_us) - s1.latency.quantile(0.5) as f64 / 1e3,
        ),
    ];
    run.m.extend(updates);
    let (hits, misses) = (
        s2.cache_hits - s0.cache_hits,
        s2.cache_misses - s0.cache_misses,
    );
    run.m.insert(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    info.push(format!(
        "load: {paced_ops} paced ops, {} capacity ops",
        load.ops.len() - load.paced_len
    ));

    // The rungs replay a prefix of the same op stream; batch-large
    // replays its own op sequence, the test split's batches.
    let ops: Vec<RungOp> = match w.drive {
        Drive::Batch { .. } => {
            let n = (seconds.round() as usize).max(6);
            crate::batch::batches(&live.decoded.split.test, n)
                .into_iter()
                .map(|b| RungOp::Read(b.to_vec()))
                .collect()
        }
        Drive::Serve => {
            let prefix = ((seconds * 1000.0).round() as usize).min(load.ops.len());
            load.ops[..prefix]
                .iter()
                .map(|r| match &r.op {
                    Op::Infer { nodes } => RungOp::Read(nodes.clone()),
                    _ => RungOp::Mutate(r.clone()),
                })
                .collect()
        }
    };
    drop(load);
    let read_only = ops.iter().all(|o| matches!(o, RungOp::Read(_)));
    let is_read = |req: u64| matches!(ops[req as usize], RungOp::Read(_));
    run.attempted += 6 * ops.len() as u64;

    rungs(&mut run, &mut live, &ops, read_only, seed)?;

    // Per-layer means over the prefix (reads only where mutations
    // would mix in other work).
    let rec = &run.rec;
    let reads = ops
        .iter()
        .filter(|o| matches!(o, RungOp::Read(_)))
        .count()
        .max(1) as f64;
    let seeds: usize = ops
        .iter()
        .map(|o| if let RungOp::Read(s) = o { s.len() } else { 0 })
        .sum();
    let hop = rec.total_ns(&["graph.hop_sets_into", "graph.shrink_hop_sets"]) as f64;
    let spmm = rec.total_ns(&["graph.spmm_gather_into"]) as f64;
    let fwd = rec.total_ns(&["models.forward"]) as f64;
    let core = rec.total_ns(&["core.infer"]) as f64;
    let stream = rec.mean_ns("stream.infer_nodes", |_| true);
    let call = rec.mean_ns("service.call", is_read);
    let request = rec.mean_ns("transport.request", is_read);
    let parse = rec.mean_ns("transport.parse_request", |_| true);
    let render = rec.mean_ns("transport.render_reply", |_| true);
    let updates = [
        ("graph.hop_sets_ns", hop / reads),
        ("graph.spmm_gather_ns", spmm / reads),
        (
            "linalg.matmul_ns",
            rec.total_ns(&["linalg.matmul"]) as f64 / reads,
        ),
        ("models.forward_ns", fwd / reads),
        ("core.infer_ns", core / reads),
        (
            "core.non_kernel_share",
            1.0 - (hop + spmm + fwd) / core.max(1.0),
        ),
        ("stream.infer_nodes_ns", stream),
        (
            "stream.ingest_flush_ns",
            rec.mean_ns("stream.ingest_flush", |_| true),
        ),
        (
            "stream.observe_edge_ns",
            rec.mean_ns("stream.observe_edge", |_| true),
        ),
        (
            "stream.apply_replicated_ns",
            rec.mean_ns("stream.apply_replicated", |_| true),
        ),
        ("service.call_ns", call),
        ("service.handoff_ns", call - stream),
        ("proto.parse_request_ns", parse),
        ("proto.render_reply_ns", render),
        ("transport.request_ns", request),
        ("transport.overhead_ns", request - call),
    ];
    run.m.extend(updates);
    let mean_seeds = seeds as f64 / reads;
    info.push(format!(
        "prefix: {} ops ({} reads, {mean_seeds:.0} seeds each); core.infer {:.1} us per read",
        ops.len(),
        reads,
        core / reads / 1e3
    ));

    // Trace checks.
    // The kernel rung does a subset of core.infer's work; the allowance
    // covers timer noise between two separately timed calls.
    if hop + spmm + fwd > core * (1.0 + spec::KERNEL_ALLOWANCE) {
        run.fail(format!(
            "kernel rung {:.0} ns exceeds core.infer {core:.0} ns",
            hop + spmm + fwd
        ));
    }
    if read_only && matches!(w.drive, Drive::Serve) {
        let terms = [
            ("stream.infer_nodes", stream),
            ("service.handoff", call - stream),
            (
                "transport.overhead - proto",
                request - call - parse - render,
            ),
        ];
        info.push(format!(
            "transport.request {request:.0} ns = stream {stream:.0} + handoff {:.0} + proto {:.0} + rest of transport {:.0}",
            call - stream,
            parse + render,
            request - call - parse - render
        ));
        for (name, v) in terms {
            if v < 0.0 {
                run.fail(format!(
                    "{name} is negative ({v:.0} ns): the rungs do not add up to transport.request"
                ));
            }
        }
    }

    let path =
        std::path::PathBuf::from(".perfbench_out").join(format!("trace-{}-{seed}.json", w.name));
    run.rec
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    info.push(format!("spans written to {}", path.display()));
    live.teardown();

    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        mismatches: run.mismatches,
        notes: run.notes,
        info,
        metrics: LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, run.m[name]))
            .collect(),
    })
}

/// Replays `ops` at every rung.
fn rungs(
    run: &mut Run,
    live: &mut Live,
    ops: &[RungOp],
    read_only: bool,
    seed: u64,
) -> Result<(), String> {
    let d = &live.decoded;
    let cfg = spec::infer_cfg();
    let labels = &d.graph.labels;

    let engine: NaiEngine = d.checkpoint.deploy(&d.graph);
    let reads: Vec<(u64, &[u32])> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| match o {
            RungOp::Read(seeds) => Some((i as u64, seeds.as_slice())),
            RungOp::Mutate(_) => None,
        })
        .collect();

    // Tracing overhead: each read is answered twice, once traced (into
    // a log that is then dropped) and once timed as a whole, in
    // alternating order. The traced answers give the kernel rung its
    // exit depths.
    let mut log = Recorder::new();
    let (mut plain_ns, mut traced_ns) = (0.0f64, 0.0f64);
    let mut first = Vec::with_capacity(reads.len());
    for (k, &(req, seeds)) in reads.iter().enumerate() {
        let plain = || {
            let t = Instant::now();
            std::hint::black_box(engine.infer(seeds, labels, &cfg));
            t.elapsed().as_nanos() as f64
        };
        if k % 2 == 0 {
            plain_ns += plain();
        }
        let t = Instant::now();
        first.push(log.time("core.infer", None, req, || {
            engine.infer(seeds, labels, &cfg)
        }));
        traced_ns += t.elapsed().as_nanos() as f64;
        if k % 2 == 1 {
            plain_ns += plain();
        }
    }
    run.m.insert(
        "obs.trace_overhead_share",
        traced_ns / plain_ns.max(1.0) - 1.0,
    );
    drop(log);

    // Core and kernel rungs, interleaved op by op in alternating order,
    // so both see the same machine state and neither always finds the
    // other's data in cache.
    let mut kernel = Kernel::new(d);
    let (mut macs, mut preds, mut depth_sum, mut d1) = (0u64, 0usize, 0usize, 0usize);
    for (k, (&(req, seeds), prior)) in reads.iter().zip(&first).enumerate() {
        let kernel_first = k % 2 == 1;
        let mut replayed = None;
        if kernel_first {
            replayed = Some(kernel.replay(&mut run.rec, req, seeds, &prior.depths));
        }
        let r = run.rec.time("core.infer", None, req, || {
            engine.infer(seeds, labels, &cfg)
        });
        let replayed =
            replayed.unwrap_or_else(|| kernel.replay(&mut run.rec, req, seeds, &prior.depths));
        if r.predictions != prior.predictions || r.depths != prior.depths {
            run.failed += 1;
            run.fail(format!(
                "op {req}: core.infer answered differently on a second call"
            ));
        }
        if replayed != r.predictions {
            run.failed += 1;
            run.fail(format!(
                "op {req}: kernel replay predictions differ from core.infer"
            ));
        }
        let m = &r.report.macs;
        macs += m.propagation + m.nap + m.classification;
        preds += r.predictions.len();
        depth_sum += r.depths.iter().sum::<usize>();
        d1 += r.report.depth_histogram[0];
    }
    let preds_f = preds.max(1) as f64;
    run.m.insert("core.macs_per_pred", macs as f64 / preds_f);
    run.m.insert("core.mean_depth", depth_sum as f64 / preds_f);
    run.m.insert("core.exit_share_d1", d1 as f64 / preds_f);
    let spmm_s = run.rec.total_ns(&["graph.spmm_gather_into"]) as f64 / 1e9;
    run.m.insert(
        "graph.spmm_gmacs_s",
        kernel.macs as f64 / 1e9 / spmm_s.max(1e-12),
    );
    let seeds: usize = reads.iter().map(|(_, s)| s.len()).sum();
    run.m.insert(
        "graph.support_rows_per_seed",
        kernel.rows as f64 / seeds.max(1) as f64,
    );
    drop((kernel, first, engine));

    // Stream rung: a solo engine, plus a second replica that applies
    // the mutations the way the service's other workers do. A read-only
    // workload has no mutations of its own; after its reads the rung
    // replays `spec::MUTATIONS` ops of the mixed traffic on this graph,
    // so the mutation seams are measured on every graph.
    let mut solo =
        StreamingEngine::from_checkpoint(&d.checkpoint, DynamicGraph::from_graph(&d.graph));
    let mut replica =
        StreamingEngine::from_checkpoint(&d.checkpoint, DynamicGraph::from_graph(&d.graph));
    let extra: Vec<RungOp> = if read_only {
        let mixed = spec::workload("serve-mixed")
            .expect("serve-mixed is a workload")
            .traffic;
        let all_mutations = spec::Traffic {
            mutation_share: 1.0,
            ..mixed
        };
        serve::op_stream(
            &all_mutations,
            spec::derive_seed(seed, 5),
            d.graph.num_nodes() as u32,
            spec::MUTATIONS,
        )
        .into_iter()
        .map(RungOp::Mutate)
        .collect()
    } else {
        Vec::new()
    };
    let mut stream_answers = Vec::with_capacity(ops.len());
    for (i, o) in ops.iter().chain(&extra).enumerate() {
        let req = i as u64;
        let rec = &mut run.rec;
        match o {
            RungOp::Read(seeds) => {
                stream_answers.push(rec.time("stream.infer_nodes", None, req, || {
                    solo.infer_nodes(seeds, &cfg)
                }));
            }
            RungOp::Mutate(Request {
                op:
                    Op::Ingest {
                        features,
                        neighbors,
                    },
                ..
            }) => {
                rec.time("stream.ingest_flush", None, req, || {
                    solo.ingest(features, neighbors);
                    solo.flush(&cfg)
                });
                let rep = &mut replica;
                rec.time("stream.apply_replicated", None, req, || {
                    rep.apply_replicated_ingest(features, neighbors)
                });
                stream_answers.push(Vec::new());
            }
            RungOp::Mutate(Request {
                op: Op::ObserveEdge { u, v },
                ..
            }) => {
                rec.time("stream.observe_edge", None, req, || {
                    solo.observe_edge(*u, *v)
                });
                let rep = &mut replica;
                rec.time("stream.apply_replicated", None, req, || {
                    rep.apply_replicated_edge(*u, *v)
                });
                stream_answers.push(Vec::new());
            }
            RungOp::Mutate(_) => return Err("reads are not mutations".to_string()),
        }
    }
    drop((solo, replica));

    // Service rung (in process, one request in flight) and proto rung.
    for (i, o) in ops.iter().enumerate() {
        let req = i as u64;
        let request = o.request();
        let line = render_request(&request);
        match run.rec.time("transport.parse_request", None, req, || {
            parse_request(&line)
        }) {
            Ok(parsed) if parsed == request => {}
            _ => {
                run.failed += 1;
                run.fail(format!("op {i}: proto round trip changed the request"));
            }
        }
        let svc = &live.svc;
        let reply = run
            .rec
            .time("service.call", None, req, || svc.call(request));
        let Ok(reply) = reply else {
            run.failed += 1;
            run.fail(format!("op {i}: service.call failed: {reply:?}"));
            continue;
        };
        run.rec
            .time("transport.render_reply", None, req, || render_reply(&reply));
        if read_only {
            if let (RungOp::Read(seeds), Reply::Infer { results, .. }) = (o, &reply) {
                let want: Vec<NodeResult> = seeds
                    .iter()
                    .zip(&stream_answers[i])
                    .map(|(&node, &(prediction, depth))| NodeResult {
                        node,
                        prediction,
                        depth,
                    })
                    .collect();
                if *results != want {
                    run.failed += 1;
                    run.fail(format!(
                        "op {i}: service reply differs from the solo stream engine"
                    ));
                }
            }
        }
    }

    // HTTP rung: one request in flight over the open connection.
    for (i, o) in ops.iter().enumerate() {
        let bytes = wire::post_v1(&render_request(&o.request()));
        let (wr, rd) = (&mut live.wr, &mut live.rd);
        let got = run
            .rec
            .time("transport.request", None, i as u64, || rd.call(wr, &bytes));
        match got {
            Ok((200, body)) if body.contains(r#""ok":true"#) => {}
            other => {
                run.failed += 1;
                run.fail(format!("op {i}: HTTP answered {other:?}"));
            }
        }
    }
    Ok(())
}
