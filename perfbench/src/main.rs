//! `pbitree-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! pbitree-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks every answer against ground
//! truth, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (see `BENCHMARK.json`); with
//! `--trace 1` a separate run attaches the engine's span tracer, times the
//! benchmark's own calls into single layers and prints the per-layer
//! metrics. The seed only reaches the engine as generated inputs.
//!
//! Workloads:
//! * `serve_query` — hot query service, two closed-loop TCP clients;
//! * `serve_batch` — batched shared scans over a corpus four times the
//!   pool, two shards;
//! * `join_cold` — the paper's seven joins from a cold pool;
//! * `update_mix` — durable writes, interleaved self-joins, crash and
//!   recovery.

mod alloc;
mod join_cold;
mod layers;
mod report;
mod serve;
mod update_mix;

use std::process::exit;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["serve_query", "serve_batch", "join_cold", "update_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: pbitree-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args;
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let mut out = match args.workload.as_str() {
        "serve_query" => serve::run(&serve::QUERY, seed, secs, traced),
        "serve_batch" => serve::run(&serve::BATCH, seed, secs, traced),
        "join_cold" => join_cold::run(seed, secs, traced),
        "update_mix" => update_mix::run(seed, secs, traced),
        _ => unreachable!("parse_args checks the workload"),
    };
    let attempted = out.attempted.max(1) as f64;
    out.set(
        "ok_share",
        (out.attempted - out.failed.min(out.attempted)) as f64 / attempted,
    );
    out.set("heap_peak_mb", alloc::peak_bytes() as f64 / 1e6);
    if !traced && pbitree_joins::trace::spans_recorded() != 0 {
        out.fail("an untraced run recorded spans".into());
    }
    // The exact counters go on a line of their own before the result, for
    // `run.py` to compare across runs of one seed.
    println!("exact {}", out.exact_json());
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.render(traced));
    if !out.correct() {
        exit(1);
    }
}
