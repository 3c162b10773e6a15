//! `repro`: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p slimsell-bench --bin repro -- <experiment> [--key value]...
//!
//! experiments:
//!   table2 table3 table4 table5
//!   fig1 fig5a fig5b fig5c fig5d fig6a fig6b fig6c fig6d fig6e
//!   fig7 fig8 fig9 fig10
//!   prep bounds scaling frontier serve
//!   all                        run everything
//!
//! common options:
//!   --scale-log2 N    Kronecker scale (default 14; paper uses 20-28)
//!   --rho X           edges per vertex (default 16)
//!   --seed S          generator seed (default 42)
//!   --runs K          repetitions per timing point (default 3)
//!   --scale-shift N   real-world stand-in down-scaling (default 4)
//!   --results-dir D   CSV output directory (default results/)
//!
//! scaling options:
//!   --kernel K        kernel(s) for BENCH_scaling.json: bfs (default),
//!                     pagerank, sssp, msbfs, betweenness, or all
//!
//! frontier options:
//!   --adaptive {0,1}  include the adaptive sweep axis (default 1)
//!
//! serve options:
//!   --queries N       closed-loop queries per (B, clients) point
//!                     (default 64)
//!   --deadline-us N   per-query wall-clock deadline for the overload
//!                     sweep, microseconds (default 2000; 0 = none)
//!   --retries N       client retries after a QueueFull rejection,
//!                     with jittered exponential backoff (default 2)
//! ```
//!
//! The `scaling` experiment additionally writes the machine-readable
//! `results/BENCH_scaling.json` (threads × scale × kernel, plus the
//! semiring axis for BFS; median ns per stored arc) used to track
//! multicore perf across PRs; sweep the thread axis on any host with
//! `SLIMSELL_THREADS` unset. The `frontier` experiment writes
//! `results/BENCH_frontier.json`: full-sweep vs worklist vs adaptive
//! BFS over `{kronecker, geometric, smallworld} × scales
//! 10..=--scale-log2`, with exact column-step/visit/activation/
//! mode-switch counters. The `serve` experiment drives the batched BFS
//! query engine (`crates/serve`) with closed-loop clients and writes
//! `results/BENCH_serve.json`: qps, p50/p99 latency and batch-fill
//! counters over batch widths `B ∈ {1, 4, 8}` × client counts
//! `{1, 4, 16}`; the batch window is tunable via
//! `SLIMSELL_BATCH_WINDOW_US`. It then runs the overload sweep against
//! a deliberately under-provisioned server (one worker, bounded queue,
//! per-query deadlines) and writes `results/BENCH_serve_overload.json`:
//! goodput, served-query p99, shed fraction and queue-full reject
//! fraction per offered-load point, with client-side
//! retry-plus-jittered-backoff on `QueueFull`.

use slimsell_bench::experiments;
use slimsell_bench::harness::{Args, ExpContext};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print_help();
        return;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            print_help();
            std::process::exit(2);
        }
    };
    let ctx = ExpContext::new(args);
    if let Err(e) = experiments::run(&ctx) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn print_help() {
    println!("repro — regenerate the SlimSell paper's tables and figures");
    println!("usage: repro <experiment> [--key value]...");
    println!("experiments: {}", experiments::EXPERIMENTS.join(", "));
    println!(
        "options: --scale-log2 N  --rho X  --seed S  --runs K  --scale-shift N  --results-dir D"
    );
    println!("scaling only: --kernel {{bfs|pagerank|sssp|msbfs|betweenness|all}}");
    println!("frontier: sweeps scales 10..=--scale-log2 (full vs worklist vs adaptive;");
    println!("          --adaptive 0 drops the adaptive axis)");
    println!("serve: batched BFS query engine load test; --queries N per point (default 64),");
    println!("       batch window via SLIMSELL_BATCH_WINDOW_US (default 200);");
    println!("       overload sweep: --deadline-us N (default 2000, 0 = none), --retries N");
    println!("       (default 2, jittered backoff); restart budget via SLIMSELL_MAX_RESTARTS");
    println!("tableN/figN regenerate the paper's Table N/Fig. N; prep, bounds, scaling,");
    println!("frontier, masked, serve and ablate go beyond the paper");
}
