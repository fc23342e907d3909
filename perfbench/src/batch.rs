//! `batch-large`: the paper's own setting — back-to-back
//! `NaiEngine::infer` calls on 500-node batches of unseen test nodes of
//! a 100k-node R-MAT graph, from one thread.

use crate::prep::{self, Decoded, Prepared};
use crate::spec::{self, Workload};
use crate::stats;
use crate::{Metric, Outcome};
use nai::core::inference::{InferenceResult, NaiEngine};
use std::time::{Duration, Instant};

/// One cold start: decode, deploy (normalised adjacency and stationary
/// state), and answer the first batch. Returns the deployment and its
/// set-up time in seconds.
pub fn setup(prepared: &Prepared) -> Result<(Decoded, NaiEngine, f64), String> {
    let t0 = Instant::now();
    let decoded = prepared.decode()?;
    let engine = decoded.checkpoint.deploy(&decoded.graph);
    let first = &decoded.split.test[..spec::BATCH.min(decoded.split.test.len())];
    let r = engine.infer(first, &decoded.graph.labels, &spec::infer_cfg());
    if r.predictions.len() != first.len() {
        return Err("first batch answered the wrong number of nodes".to_string());
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((decoded, engine, secs))
}

/// The fixed op sequence: the seeded test split cut into `BATCH`-node
/// batches, replayed in order and cycled until `count` batches.
pub fn batches(test: &[u32], count: usize) -> Vec<&[u32]> {
    let chunks: Vec<&[u32]> = test.chunks(spec::BATCH).collect();
    (0..count).map(|i| chunks[i % chunks.len()]).collect()
}

/// One measured round: the batches, back to back.
struct Round {
    setup_s: f64,
    lat_us: Vec<f64>,
    results: Vec<InferenceResult>,
    secs: f64,
}

/// One end-to-end run: `spec::ROUNDS` rounds, each a cold start
/// followed by the same fixed batch sequence. Set-up time, throughput,
/// p50 and the share within the latency limit are medians over rounds.
pub fn run(w: &Workload, batches_per_s: f64, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let prepared = prep::load_or_prepare(w.family, seed)?;
    let per_round = seconds / spec::ROUNDS as f64;
    let count = ((batches_per_s * per_round).round() as usize).max(1);
    let limit = Duration::from_secs_f64((per_round * 6.0).clamp(10.0, 50.0));
    let mut rounds = Vec::with_capacity(spec::ROUNDS);
    let mut last = None;
    for _ in 0..spec::ROUNDS {
        drop(last.take());
        let (decoded, engine, setup_s) = setup(&prepared)?;
        let cfg = spec::infer_cfg();
        let ops = batches(&decoded.split.test, count);
        let mut lat_us = Vec::with_capacity(ops.len());
        let mut results = Vec::with_capacity(ops.len());
        let t0 = Instant::now();
        for batch in &ops {
            if t0.elapsed() > limit {
                break;
            }
            let t = Instant::now();
            let r = engine.infer(batch, &decoded.graph.labels, &cfg);
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            results.push(r);
        }
        let secs = t0.elapsed().as_secs_f64();
        rounds.push(Round {
            setup_s,
            lat_us,
            results,
            secs,
        });
        last = Some((decoded, engine));
    }
    let peak_rss_mb = stats::peak_rss_mb()?;
    let (decoded, engine) = last.expect("ROUNDS > 0");
    let labels = &decoded.graph.labels;
    let test = &decoded.split.test;
    let ops = batches(test, count);

    // Oracle: one whole-sample call over the test split.
    let whole = engine.infer(test, labels, &spec::infer_cfg());
    let chunks = test.len().div_ceil(spec::BATCH);
    let (mut attempted, mut n_ok, mut mismatches) = (0usize, 0usize, 0usize);
    let (mut preds, mut correct) = (0usize, 0usize);
    let (mut notes, mut lat_all, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut slo) = (Vec::new(), Vec::new());
    for round in &rounds {
        attempted += ops.len();
        let (mut round_ok, mut in_slo) = (0usize, 0usize);
        for (i, (r, &lat)) in round.results.iter().zip(&round.lat_us).enumerate() {
            let at = (i % chunks) * spec::BATCH;
            let n = ops[i].len();
            let same = r.predictions == whole.predictions[at..at + n]
                && r.depths == whole.depths[at..at + n];
            if same {
                round_ok += 1;
                in_slo += usize::from(lat <= w.slo_limit_us);
            } else {
                mismatches += 1;
                if notes.len() < 5 {
                    notes.push(format!("batch {i} differs from the whole-sample run"));
                }
            }
            preds += n;
            correct += ops[i]
                .iter()
                .zip(&r.predictions)
                .filter(|&(&v, &p)| p == labels[v as usize] as usize)
                .count();
        }
        n_ok += round_ok;
        rate.push(round_ok as f64 / round.secs);
        slo.push(in_slo as f64 / ops.len() as f64);
        p50.push(stats::median(&round.lat_us));
        lat_all.extend_from_slice(&round.lat_us);
    }
    let rates: Vec<String> = rate.iter().map(|r| format!("{r:.2}")).collect();
    let mut info = vec![format!(
        "{} rounds of {} batches at {} batches/s; whole-sample accuracy {:.4}, mean depth {:.3}",
        rounds.len(),
        ops.len(),
        rates.join(" "),
        whole.report.accuracy,
        whole.report.mean_depth()
    )];
    if let Some((label, tail)) = stats::supported_tail(&lat_all) {
        info.push(format!(
            "batch latency: p50 {:.1} us, {label} {tail:.1} us over {} samples",
            stats::median(&lat_all),
            lat_all.len()
        ));
    }
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    Ok(Outcome {
        attempted: attempted as u64,
        failed: (attempted - n_ok) as u64,
        mismatches,
        notes,
        info,
        metrics: vec![
            Metric::new("setup_s", "s", stats::median(&setup)),
            Metric::new("throughput_ops_s", "1/s", stats::median(&rate)),
            Metric::new("lat_p50_us", "us", stats::median(&p50)),
            Metric::new("slo_ok_share", "share", stats::median(&slo)),
            Metric::new("ok_share", "share", n_ok as f64 / attempted as f64),
            Metric::new("accuracy", "share", correct as f64 / preds.max(1) as f64),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
        ],
    })
}
