//! The GraphQE benchmark: one command runs a seeded workload, checks every
//! verdict against its label, and prints every metric by name and unit.
//!
//! ```text
//! graphqe-benchmark --workload <cold-corpus|certified|serve-mixed> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! graphqe-benchmark --ablation --seed <n> --seconds <s>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The traced run also
//! writes its spans, one row per pair, to `out/trace-<workload>-<seed>.jsonl`
//! in the benchmark's directory. A definite verdict against a pair's label
//! makes the command exit non-zero. `--ablation` reruns `cold-corpus` and
//! `serve-mixed` with one cache off at a time and prints each cache's
//! marginal effect; it is not part of the gated runs.

mod calibrate;
mod client;
mod corpus;
mod layers;
mod measure;
mod trace;
mod variant;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use measure::Metric;
use workloads::{Knobs, RunOpts, RunResult};

const WORKLOADS: [&str; 3] = ["cold-corpus", "certified", "serve-mixed"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    ablation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10, trace: false, ablation: false };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--ablation" {
            args.ablation = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(workload: &str, opts: &RunOpts) -> Result<RunResult, String> {
    match workload {
        "cold-corpus" => Ok(workloads::cold_corpus(opts)),
        "certified" => Ok(workloads::certified(opts)),
        "serve-mixed" => workloads::serve_mixed(opts),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// The commit, compiler and machine a report was measured on.
fn provenance(workload: &str, args: &Args) -> String {
    let command = |program: &str, arg: &[&str]| {
        std::process::Command::new(program)
            .args(arg)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    // Only ask git inside a checkout of its own, never a repository above.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "workload={workload} seed={} seconds={} trace={} commit={commit} rustc=\"{rustc}\" machine_parallelism={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        graphqe::machine_parallelism()
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("graphqe-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.ablation {
        return ablation(&args);
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("graphqe-benchmark: --workload is required (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        knobs: Knobs::ALL_ON,
    };
    let result = match run(&workload, &opts) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("graphqe-benchmark: {message}");
            return ExitCode::FAILURE;
        }
    };
    let header = provenance(&workload, &args);
    let measure = &result.measure;
    let error_ratio = measure.failed() as f64 / measure.attempted() as f64;
    println!("# {header} {} error_ratio={error_ratio}", measure.samples());
    let metrics = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-{}.jsonl", args.seed));
        let header_json = format!(
            "{{\"provenance\": {}, \"samples\": {}}}",
            graphqe_serve::json::str(header.as_str()),
            graphqe_serve::json::str(measure.samples())
        );
        match result.tracer.write(&path, &header_json) {
            Ok(()) => println!("# trace: {} rows in {}", result.tracer.len(), path.display()),
            Err(error) => eprintln!("could not write {}: {error}", path.display()),
        }
        measure.per_layer(&result.counters, result.peak_arena_nodes, &result.tracer)
    } else {
        measure.end_to_end()
    };
    for m in &metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed = measure.failed();
    println!("{}", result_line(failed == 0, measure.attempted(), failed, &metrics));
    if measure.wrong_verdicts > 0 {
        eprintln!(
            "graphqe-benchmark: {} definite verdicts contradict their labels",
            measure.wrong_verdicts
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Reruns `cold-corpus` and `serve-mixed` with each cache off in turn and
/// reports its marginal effect on `pairs_per_s` and `latency_p99_ms`.
fn ablation(args: &Args) -> ExitCode {
    let off = |change: fn(&mut Knobs)| {
        let mut knobs = Knobs::ALL_ON;
        change(&mut knobs);
        knobs
    };
    let configs: [(&str, Knobs); 5] = [
        ("all-on", Knobs::ALL_ON),
        ("parse-cache-off", off(|k| k.parse_cache = false)),
        ("normalize-cache-off", off(|k| k.normalize_cache = false)),
        ("search-memo-off", off(|k| k.search_memo = false)),
        ("plan-cache-off", off(|k| k.plan_cache = false)),
    ];
    let mut rows = Vec::new();
    let mut failed = 0;
    for workload in ["cold-corpus", "serve-mixed"] {
        let mut baseline = None;
        for (name, knobs) in configs {
            let opts = RunOpts {
                seed: args.seed,
                seconds: Duration::from_secs(args.seconds),
                trace: false,
                knobs,
            };
            let result = match run(workload, &opts) {
                Ok(result) => result,
                Err(message) => {
                    eprintln!("graphqe-benchmark: {workload}/{name}: {message}");
                    return ExitCode::FAILURE;
                }
            };
            failed += result.measure.failed();
            let metrics = result.measure.end_to_end();
            let value = |key: &str| metrics.iter().find(|m| m.name == key).map_or(0.0, |m| m.value);
            let (rate, p99) = (value("pairs_per_s"), value("latency_p99_ms"));
            let (base_rate, base_p99) = *baseline.get_or_insert((rate, p99));
            // Marginal effect of the cache: how much the run loses without it.
            let rate_gain = base_rate / rate - 1.0;
            let p99_gain = p99 / base_p99 - 1.0;
            println!(
                "{workload:<12} {name:<20} pairs_per_s={rate:>10.1} latency_p99_ms={p99:>8.3} \
                 cache_throughput_gain={rate_gain:>+7.3} cache_p99_gain={p99_gain:>+7.3}"
            );
            rows.push(format!(
                "{{\"workload\": \"{workload}\", \"config\": \"{name}\", \"pairs_per_s\": {rate}, \
                 \"latency_p99_ms\": {p99}, \"cache_throughput_gain\": {rate_gain}, \
                 \"cache_p99_gain\": {p99_gain}}}"
            ));
        }
    }
    println!("# {}", provenance("ablation", args));
    println!("{{\"ablation\": [{}], \"failed\": {failed}}}", rows.join(", "));
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
