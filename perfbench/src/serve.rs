//! `serve-light` and `serve-mixed`: the in-tree `Server` over a
//! small-world seed graph, driven over one loopback keep-alive
//! connection in two phases.
//!
//! * **paced** — open loop at a fixed rate: one thread writes each
//!   request when it is due, this thread reads. Latency runs from the
//!   due time, so a stall also charges the requests queued behind it;
//!   the writer records how late it ran.
//! * **capacity** — closed loop with a fixed window in flight.
//!
//! Both phases replay a fixed, seeded op stream whose length follows
//! from `--seconds`, so a faster build does the same work sooner.

use crate::prep::{self, Decoded, Prepared};
use crate::spec::{self, Traffic, Workload};
use crate::stats;
use crate::wire::{self, Reader, Writer};
use crate::{Metric, Outcome};
use nai::serve::json::Json;
use nai::serve::proto::{render_request, Op, Request};
use nai::serve::{MetricsSnapshot, NaiService, Server};
use nai::stream::{DynamicGraph, StreamingEngine};
use nai_obs::HistogramSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deployed server with one open client connection.
pub struct Live {
    pub svc: Arc<NaiService>,
    server: Server,
    pub wr: Writer,
    pub rd: Reader,
    pub decoded: Decoded,
}

impl Live {
    /// Stops the server and waits for its reactor and workers.
    pub fn teardown(self) -> Decoded {
        drop((self.wr, self.rd));
        self.server.shutdown();
        self.server.join();
        self.decoded
    }
}

/// One cold start: decode, build the replicas, the service and the
/// server, connect, and wait for the first OK answer. Returns the
/// deployment and its set-up time in seconds.
pub fn setup(prepared: &Prepared, w: &Workload) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let decoded = prepared.decode()?;
    let seed_graph = DynamicGraph::from_graph(&decoded.graph);
    let svc = NaiService::from_checkpoint(
        &decoded.checkpoint,
        &seed_graph,
        spec::infer_cfg(),
        w.serve_cfg(),
    )?;
    drop(seed_graph);
    let svc = Arc::new(svc);
    let server =
        Server::start(Arc::clone(&svc), "127.0.0.1:0").map_err(|e| format!("server start: {e}"))?;
    let (mut wr, mut rd) =
        wire::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = rd
        .call(&mut wr, &wire::post_v1(r#"{"op":"infer","nodes":[0]}"#))
        .map_err(|e| format!("first request: {e}"))?;
    if status != 200 || !body.contains(r#""ok":true"#) {
        return Err(format!("first request answered {status}: {body}"));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            svc,
            server,
            wr,
            rd,
            decoded,
        },
        secs,
    ))
}

/// The seeded op stream: reads of `read_nodes` distinct uniform seed
/// nodes, and (for the mixed traffic) ingests of a node with three
/// uniform neighbours and uniform edge arrivals.
pub fn op_stream(t: &Traffic, seed: u64, seed_nodes: u32, count: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let distinct = |rng: &mut StdRng, n: usize| {
        let mut picked = HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let v = rng.gen_range(0..seed_nodes);
            if picked.insert(v) {
                out.push(v);
            }
        }
        out
    };
    (0..count)
        .map(|_| {
            let op = if rng.gen_range(0.0..1.0) >= t.mutation_share {
                Op::Infer {
                    nodes: distinct(&mut rng, t.read_nodes),
                }
            } else if rng.gen_range(0.0..1.0) < t.ingest_share {
                Op::Ingest {
                    features: (0..spec::FEATURE_DIM)
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect(),
                    neighbors: distinct(&mut rng, 3),
                }
            } else {
                let e = distinct(&mut rng, 2);
                Op::ObserveEdge { u: e[0], v: e[1] }
            };
            Request { op, shard: None }
        })
        .collect()
}

/// Everything the two phases observed, kept raw for checking after
/// the clock stops.
pub struct Load {
    pub ops: Vec<Request>,
    /// `ops.len()`, kept after the ops are dropped.
    pub attempted: usize,
    /// Reply per op, `None` when unanswered (deadline or I/O failure).
    pub replies: Vec<Option<(u16, String)>>,
    pub paced_len: usize,
    /// Paced latency from due time to reply, µs.
    pub paced_lat_us: Vec<f64>,
    /// How late the generator sent each paced op, µs.
    pub gen_late_us: Vec<f64>,
    pub capacity_secs: f64,
    /// Peak RSS right after the capacity phase.
    pub peak_rss_mb: f64,
    /// Service counters before the paced phase, after it, and after
    /// the capacity phase.
    pub snaps: [MetricsSnapshot; 3],
    pub errors: Vec<String>,
}

impl Load {
    fn capacity_len(&self) -> usize {
        self.attempted - self.paced_len
    }
}

/// Wall-clock ceiling of the capacity phase: a much slower build is cut
/// off and its unanswered ops count as failed, rather than overrunning
/// the run's time limit. (The paced phase takes a fixed time.)
fn deadline(nominal_secs: f64) -> Duration {
    Duration::from_secs_f64((nominal_secs * 6.0).clamp(10.0, 60.0))
}

/// Runs the paced and capacity phases on `live`.
pub fn load_phases(live: &mut Live, t: &Traffic, seed: u64, seconds: f64) -> Result<Load, String> {
    let seed_nodes = live.svc.info().seed_nodes as u32;
    let paced_secs = seconds * t.paced_share;
    let paced_len = ((t.paced_rate * paced_secs).round() as usize).max(1);
    let cap_len = ((t.capacity_ops_per_s * (seconds - paced_secs)).round() as usize).max(1);
    let ops = op_stream(
        t,
        spec::derive_seed(seed, 3),
        seed_nodes,
        paced_len + cap_len,
    );
    let wires: Vec<Vec<u8>> = ops
        .iter()
        .map(|r| wire::post_v1(&render_request(r)))
        .collect();
    let mut errors = Vec::new();
    let mut replies: Vec<Option<(u16, String)>> = Vec::with_capacity(ops.len());

    let snap0 = live.svc.metrics();
    // Paced phase.
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| Duration::from_secs_f64(i as f64 / t.paced_rate);
    let mut paced_lat_us = Vec::with_capacity(paced_len);
    let (wr, rd) = (&mut live.wr, &mut live.rd);
    let gen_late_us = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<Vec<f64>, String> {
            let mut late = Vec::with_capacity(paced_len);
            let mut burst = Vec::new();
            let mut i = 0;
            while i < paced_len {
                let now = Instant::now().saturating_duration_since(start);
                burst.clear();
                while i < paced_len && due(i) <= now {
                    burst.extend_from_slice(&wires[i]);
                    late.push((now - due(i)).as_secs_f64() * 1e6);
                    i += 1;
                }
                if !burst.is_empty() {
                    wr.send(&burst).map_err(|e| format!("paced send: {e}"))?;
                }
                if i < paced_len {
                    let now = Instant::now().saturating_duration_since(start);
                    if due(i) > now {
                        std::thread::sleep(due(i) - now);
                    }
                }
            }
            Ok(late)
        });
        for i in 0..paced_len {
            match rd.recv() {
                Ok(reply) => {
                    let at = Instant::now().saturating_duration_since(start);
                    paced_lat_us.push(at.saturating_sub(due(i)).as_secs_f64() * 1e6);
                    replies.push(Some(reply));
                }
                Err(e) => {
                    errors.push(format!("paced recv: {e}"));
                    break;
                }
            }
        }
        writer.join().expect("paced writer thread panicked")
    })?;
    if replies.len() < paced_len {
        return Err(format!("paced phase broke off: {errors:?}"));
    }
    let snap1 = live.svc.metrics();

    // Capacity phase.
    let cap_wires = &wires[paced_len..];
    let limit = deadline(seconds - paced_secs);
    let t0 = Instant::now();
    let first = t.window.min(cap_len);
    let burst: Vec<u8> = cap_wires[..first].concat();
    let mut sent = first;
    let mut ok = live
        .wr
        .send(&burst)
        .map_err(|e| errors.push(format!("capacity send: {e}")));
    for _ in 0..cap_len {
        if ok.is_err() || t0.elapsed() > limit {
            break;
        }
        match live.rd.recv() {
            Ok(reply) => replies.push(Some(reply)),
            Err(e) => {
                errors.push(format!("capacity recv: {e}"));
                break;
            }
        }
        if sent < cap_len {
            ok = live
                .wr
                .send(&cap_wires[sent])
                .map_err(|e| errors.push(format!("capacity send: {e}")));
            sent += 1;
        }
    }
    let capacity_secs = t0.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb()?;
    let snap2 = live.svc.metrics();
    replies.resize(ops.len(), None);
    Ok(Load {
        attempted: ops.len(),
        ops,
        replies,
        paced_len,
        paced_lat_us,
        gen_late_us,
        capacity_secs,
        peak_rss_mb,
        snaps: [snap0, snap1, snap2],
        errors,
    })
}

/// Per-op verdicts of a load, checked after the clock stopped.
#[derive(Default)]
pub struct Verdict {
    /// `ok[i]`: op `i` was answered OK and passed every check.
    pub ok: Vec<bool>,
    /// Answers that contradict the oracle or the protocol.
    pub mismatches: usize,
    pub reads: usize,
    pub reads_correct: usize,
    pub notes: Vec<String>,
}

impl Verdict {
    fn mismatch(&mut self, i: usize, what: String) {
        self.mismatches += 1;
        if self.notes.len() < 5 {
            self.notes.push(format!("op {i}: {what}"));
        }
    }
}

/// Oracle answers `(prediction, depth)` for every node read in `ops`,
/// from a solo `StreamingEngine` over the unmutated seed graph.
pub fn read_oracle(decoded: &Decoded, ops: &[Request]) -> HashMap<u32, (usize, usize)> {
    let mut nodes: Vec<u32> = ops
        .iter()
        .filter_map(|r| match &r.op {
            Op::Infer { nodes } => Some(nodes.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut engine = StreamingEngine::from_checkpoint(
        &decoded.checkpoint,
        DynamicGraph::from_graph(&decoded.graph),
    );
    let cfg = spec::infer_cfg();
    let mut out = HashMap::with_capacity(nodes.len());
    for chunk in nodes.chunks(spec::BATCH) {
        for (&v, ans) in chunk.iter().zip(engine.infer_nodes(chunk, &cfg)) {
            out.insert(v, ans);
        }
    }
    out
}

/// Checks every reply: one answer per op, of the op's kind; reads name
/// their node and (with an oracle) equal it bit for bit; every ingest
/// names a new id in `[seed_nodes, seed_nodes + ingests so far)`.
pub fn check(
    ops: &[Request],
    replies: &[Option<(u16, String)>],
    labels: &[u32],
    seed_nodes: u32,
    oracle: Option<&HashMap<u32, (usize, usize)>>,
) -> Verdict {
    let mut v = Verdict::default();
    let mut ingests = 0u32;
    let mut ids = HashSet::new();
    for (i, (req, reply)) in ops.iter().zip(replies).enumerate() {
        if matches!(req.op, Op::Ingest { .. }) {
            ingests += 1;
        }
        let Some((status, body)) = reply else {
            v.ok.push(false);
            continue;
        };
        let parsed = Json::parse(body.trim());
        let Ok(j) = parsed else {
            v.mismatch(i, format!("unparsable reply {body:?}"));
            v.ok.push(false);
            continue;
        };
        if *status != 200 || j.get("ok").and_then(Json::as_bool) != Some(true) {
            v.ok.push(false);
            continue;
        }
        let u = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64);
        let want = match req.op {
            Op::Infer { .. } => "infer",
            Op::Ingest { .. } => "ingest",
            Op::ObserveEdge { .. } => "observe_edge",
        };
        if j.get("op").and_then(Json::as_str) != Some(want) {
            v.mismatch(i, format!("{want} answered by {body:?}"));
            v.ok.push(false);
            continue;
        }
        let good = match &req.op {
            Op::Infer { nodes } => {
                let results = j.get("results").and_then(Json::as_arr).unwrap_or(&[]);
                let mut bad = (results.len() != nodes.len())
                    .then(|| format!("malformed read reply {body:?}"));
                for (r, &node) in results.iter().zip(nodes) {
                    let (Some(served), Some(pred), Some(depth)) =
                        (u(r, "node"), u(r, "prediction"), u(r, "depth"))
                    else {
                        bad = Some(format!("malformed read reply {body:?}"));
                        break;
                    };
                    if served != u64::from(node) {
                        bad = Some(format!("read of node {node} answered for node {served}"));
                        break;
                    }
                    v.reads += 1;
                    v.reads_correct += usize::from(pred == u64::from(labels[node as usize]));
                    if let Some(&(p, d)) = oracle.map(|o| &o[&node]) {
                        if (p as u64, d as u64) != (pred, depth) {
                            bad = Some(format!(
                                "node {node}: served ({pred},{depth}) oracle ({p},{d})"
                            ));
                            break;
                        }
                    }
                }
                match bad {
                    Some(what) => {
                        v.mismatch(i, what);
                        false
                    }
                    None => true,
                }
            }
            Op::Ingest { .. } => match u(&j, "node") {
                Some(id)
                    if id >= u64::from(seed_nodes)
                        && id < u64::from(seed_nodes + ingests)
                        && ids.insert(id) =>
                {
                    true
                }
                _ => {
                    v.mismatch(i, format!("ingest reply names no new valid id: {body:?}"));
                    false
                }
            },
            Op::ObserveEdge { .. } => {
                let good = j.get("added").and_then(Json::as_bool).is_some();
                if !good {
                    v.mismatch(i, format!("malformed edge reply {body:?}"));
                }
                good
            }
        };
        v.ok.push(good);
    }
    v
}

/// Mean of a histogram over the interval between two snapshots.
pub fn interval_mean(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let n = after.count().saturating_sub(before.count());
    if n == 0 {
        0.0
    } else {
        after.sum().saturating_sub(before.sum()) as f64 / n as f64
    }
}

/// One end-to-end run of a serve workload: `spec::ROUNDS` rounds, each
/// a cold start followed by both phases over the same op stream. Each
/// round is checked, and its ops and replies dropped, before the next
/// cold start, so the benchmark's own buffers stay out of `peak_rss_mb`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let t = &w.traffic;
    let prepared = prep::load_or_prepare(w.family, seed)?;
    let mut oracle = None;
    let mut rounds = Vec::with_capacity(spec::ROUNDS);
    for _ in 0..spec::ROUNDS {
        let (mut live, setup_s) = setup(&prepared, w)?;
        let mut load = load_phases(&mut live, t, seed, seconds / spec::ROUNDS as f64)?;
        let decoded = live.teardown();
        if t.mutation_share == 0.0 && oracle.is_none() {
            oracle = Some(read_oracle(&decoded, &load.ops));
        }
        let v = check(
            &load.ops,
            &load.replies,
            &decoded.graph.labels,
            decoded.graph.num_nodes() as u32,
            oracle.as_ref(),
        );
        load.ops = Vec::new();
        load.replies = Vec::new();
        rounds.push((setup_s, load, v));
    }
    Ok(summarize(w, &rounds))
}

/// The end-to-end metrics of the checked rounds: set-up time, capacity,
/// paced p50 and the share within the latency limit are medians over
/// rounds, so a stretch of host contention that spoils a few rounds
/// does not move them; the other shares pool every op.
pub fn summarize(w: &Workload, rounds: &[(f64, Load, Verdict)]) -> Outcome {
    let mut info = Vec::new();
    let (mut attempted, mut ok) = (0usize, 0usize);
    let (mut p50, mut slo) = (Vec::new(), Vec::new());
    let (mut reads, mut reads_correct, mut mismatches) = (0usize, 0usize, 0usize);
    let (mut lat, mut late, mut capacity, mut notes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (_, load, v) in rounds {
        attempted += load.attempted;
        ok += v.ok.iter().filter(|&&ok| ok).count();
        let in_slo = v.ok[..load.paced_len]
            .iter()
            .zip(&load.paced_lat_us)
            .filter(|&(&ok, &lat)| ok && lat <= w.slo_limit_us)
            .count();
        slo.push(in_slo as f64 / load.paced_len as f64);
        p50.push(stats::median(&load.paced_lat_us));
        let cap_ok = v.ok[load.paced_len..].iter().filter(|&&ok| ok).count();
        capacity.push(cap_ok as f64 / load.capacity_secs);
        info.push(format!(
            "round: capacity {cap_ok} of {} ops OK in {:.3} s",
            load.capacity_len(),
            load.capacity_secs
        ));
        info.extend(load.errors.iter().cloned());
        reads += v.reads;
        reads_correct += v.reads_correct;
        mismatches += v.mismatches;
        notes.extend(v.notes.iter().cloned());
        lat.extend_from_slice(&load.paced_lat_us);
        late.extend_from_slice(&load.gen_late_us);
    }
    if let Some((label, tail)) = stats::supported_tail(&lat) {
        info.push(format!(
            "paced latency: p50 {:.1} us, {label} {tail:.1} us over {} samples; generator late p99 {:.1} us",
            stats::median(&lat),
            lat.len(),
            stats::quantile(&late, 0.99),
        ));
    }
    let setup: Vec<f64> = rounds.iter().map(|r| r.0).collect();
    let peak_rss_mb = rounds.iter().map(|r| r.1.peak_rss_mb).fold(0.0, f64::max);
    Outcome {
        attempted: attempted as u64,
        failed: (attempted - ok) as u64,
        mismatches,
        notes,
        info,
        metrics: vec![
            Metric::new("setup_s", "s", stats::median(&setup)),
            Metric::new("throughput_ops_s", "1/s", stats::median(&capacity)),
            Metric::new("lat_p50_us", "us", stats::median(&p50)),
            Metric::new("slo_ok_share", "share", stats::median(&slo)),
            Metric::new("ok_share", "share", ok as f64 / attempted as f64),
            Metric::new(
                "accuracy",
                "share",
                reads_correct as f64 / reads.max(1) as f64,
            ),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
        ],
    }
}
