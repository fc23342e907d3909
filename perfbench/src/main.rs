//! The repository benchmark. One run:
//!
//! ```text
//! perfbench --workload <batch-large|serve-light|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! prepares (untimed, cached) the seeded graph and checkpoint, measures,
//! checks every answer, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. See `README.md`.

mod batch;
mod prep;
mod serve;
mod spec;
mod stats;
mod trace;
mod wire;

use spec::Drive;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// What a run measured and how its checks went.
pub struct Outcome {
    pub attempted: u64,
    /// Ops not answered OK (mismatches included).
    pub failed: u64,
    /// Answers that contradict an oracle or the protocol, plus failed
    /// trace checks. Any makes the run incorrect.
    pub mismatches: usize,
    pub notes: Vec<String>,
    /// Human-readable lines printed before the result.
    pub info: Vec<String>,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = spec::workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}` (expected {})",
            args.workload,
            names.join(" | ")
        )
    })?;
    match (args.trace, w.drive) {
        (true, _) => trace::run(&w, args.seed, args.seconds),
        (false, Drive::Batch { batches_per_s }) => {
            batch::run(&w, batches_per_s, args.seed, args.seconds)
        }
        (false, Drive::Serve) => serve::run(&w, args.seed, args.seconds),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("prepare") {
        let result = match (
            argv.get(1),
            argv.get(2).and_then(|s| s.parse().ok()),
            argv.get(3),
        ) {
            (Some(family), Some(seed), Some(out)) => prep::prepare(family, seed, out.as_ref()),
            _ => Err("usage: perfbench prepare <family> <seed> <graph-file>".to_string()),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = parse_args(&argv).and_then(|a| run(&a));
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for line in o.info.iter().chain(&o.notes) {
        println!("# {line}");
    }
    for m in &o.metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            // Names and units are fixed identifiers: no escaping needed.
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = o.mismatches == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}
