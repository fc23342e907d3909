//! `nai` — command-line interface to the Node-Adaptive Inference library.
//!
//! ```text
//! nai generate --dataset arxiv --scale test --out data/arxiv
//! nai train    --graph data/arxiv.graph --split data/arxiv.split \
//!              --model-kind sgc --k 3 --gates --out model.naic
//! nai infer    --graph data/arxiv.graph --split data/arxiv.split \
//!              --model model.naic --nap distance --ts 0.5
//! nai eval     --graph data/arxiv.graph --split data/arxiv.split --model model.naic
//! nai stream   --graph data/arxiv.graph --split data/arxiv.split \
//!              --model model.naic --arrivals 500 --batch 16
//! ```

mod args;
mod commands;
mod lint;

use args::ParsedArgs;
use commands::CliError;

const USAGE: &str = "\
nai — Node-Adaptive Inference for Scalable GNNs

USAGE:
  nai <COMMAND> [--flag value ...]

COMMANDS:
  generate   Materialize a dataset proxy to disk
             --dataset flickr|arxiv|products  --scale test|bench  --out PATH
  train      Train the NAI pipeline, save a checkpoint
             --dataset/--scale or --graph/--split, --model-kind sgc|sign|s2gc|gamlp,
             --k N, --epochs N, --hidden N, --lr F, --gates, --no-distill,
             --seed N, --out PATH
  infer      Deploy a checkpoint, run one adaptive inference pass
             data flags, --model PATH, --nap fixed|distance|gate|upper,
             --ts F, --tmin N, --tmax N, --batch N, --parallel-spmm
  eval       Compare all NAP policies on one deployment
             data flags, --model PATH, --ts F, --tmin N, --batch N
  stream     Streaming-arrival demo with latency percentiles
             data flags, --model PATH, --nap ..., --arrivals N, --degree N,
             --batch N, --seed N, --parallel-spmm
  serve      Online inference service (HTTP + newline-JSON, batching workers)
             data flags, --model PATH, --nap ..., --port N (0 = ephemeral),
             --workers N, --max-batch N, --queue-cap N,
             --shed-at F, --shed-tmax N, --cache, --cache-cap N,
             --parallel-spmm
  loadgen    Closed-loop load driver against a running `nai serve`
             --addr HOST:PORT, --requests N, --clients N,
             --mode infer|ingest|mixed, --sampling uniform|zipf, --zipf-s F,
             --nodes-per-request N, --seed N, --cache (print server cache
             counters after the run), --shutdown
  lint       Token-aware static analysis of the project invariants
             --workspace (lint every member crate of the enclosing
             workspace), or bare PATHS (files, directories, or crate
             roots; paths go before flags). Nonzero exit on findings.

Data flags: either --dataset NAME --scale SCALE (generated proxy) or
--graph PATH --split PATH (files from `nai generate`).
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match ParsedArgs::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed),
        "train" => commands::train(&parsed),
        "infer" => commands::infer(&parsed),
        "eval" => commands::eval(&parsed),
        "stream" => commands::stream(&parsed),
        "serve" => commands::serve(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "lint" => lint::lint(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        match e {
            CliError::Args(e) => eprintln!("error: {e}\n\n{USAGE}"),
            CliError::Other(msg) => eprintln!("error: {msg}"),
        }
        std::process::exit(1);
    }
}
