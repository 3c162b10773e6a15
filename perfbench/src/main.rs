//! The SlimSell pipeline benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kron-g500 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed, sets the system up
//! several times, measures for `--seconds` seconds, checks every output
//! against an oracle, and prints a table of every metric with its unit
//! and sample count. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run records a span around every call into a
//! layer, prints each layer's self time, and writes the spans to
//! `.bench_build/perfbench-traces/`.
//!
//! Only the default configuration is reported: if any `SLIMSELL_*`
//! variable is set, the table is printed marked as non-default and the
//! program exits with code 3 without a JSON line.

mod openloop;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::{Metric, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <kron-g500|road-nav|kron-serve> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: Workload::KronG500, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad value for {flag}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Host and configuration fingerprint; `Err` lists the `SLIMSELL_*`
/// variables that make this a non-default configuration.
fn fingerprint() -> (String, Result<(), Vec<String>>) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let set: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SLIMSELL_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let line = format!(
        "nproc={nproc} threads={} simd={} env={}",
        rayon::current_num_threads(),
        slimsell_simd::active_backend().name(),
        if set.is_empty() { "default".to_string() } else { set.join(",") }
    );
    (line, if set.is_empty() { Ok(()) } else { Err(set) })
}

fn print_table(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind:<6} {:<34} {:>14.6} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    // `{}` prints the shortest decimal that reads back as the same f64:
    // every digit that was measured, none that was not.
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (host, config) = fingerprint();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("# host {host}");

    let report = workload::run(args.workload, args.seed, args.seconds, args.trace);

    println!("# input {}", report.input.join(" "));
    print_table("e2e", &report.e2e);
    print_table("layer", &report.layers);
    for row in &report.layer_table {
        println!("# self {row}");
    }
    let led = &report.ledger;
    println!("# operations attempted={} failed={}", led.attempted, led.failed);
    for r in &led.reasons {
        println!("# failure {r}");
    }

    if let Err(set) = config {
        println!("# NON-DEFAULT configuration ({}): not a benchmark result", set.join(","));
        return ExitCode::from(3);
    }
    let metrics = if args.trace { &report.layers } else { &report.e2e };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a finite number", m.name);
        return ExitCode::from(1);
    }
    println!("{}", result_json(led.failed == 0, led.attempted, led.failed, metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = vec![Metric { name: "bfs_ms_p50", value: 1.25, unit: "ms", note: String::new() }];
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"bfs_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
