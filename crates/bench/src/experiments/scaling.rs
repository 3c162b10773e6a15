//! Strong and weak scaling over thread counts (§IV mentions both axes),
//! plus the machine-readable `BENCH_scaling.json` artifact that tracks
//! the multicore perf trajectory across PRs.
//!
//! Strong: fixed Kronecker graph, threads ∈ {1, 2, 4, …} up to twice the
//! host parallelism. Weak: n doubles with the thread count. The JSON
//! artifact records threads × scale × kernel (× semiring for BFS) with
//! the *median* ns per stored arc per run, and the speedup of each point
//! against the 1-thread run of the same configuration.
//!
//! The `--kernel` axis selects which kernels the artifact measures:
//! `bfs` (default; all four semirings), `pagerank`, `sssp`, `msbfs`,
//! `betweenness`, or `all`. All five ride the shared chunk tiling of
//! `slimsell_core::tiling`, so the same sweep tracks their multicore
//! trajectories.

use slimsell_analysis::report::TextTable;
use slimsell_core::{
    betweenness_from_sources, multi_bfs, pagerank, sssp, BfsOptions, PageRankOptions,
    SlimSellMatrix, WeightedSellCSigma,
};
use slimsell_graph::stats::sample_roots;
use slimsell_graph::weighted::synthetic_weighted_twin;
use slimsell_graph::{CsrGraph, VertexId};

use crate::dispatch::{prepare, RepKind, SemiringKind};
use crate::harness::{mean_time, median_time, ExpContext};

use super::{kron_at, kron_graph, roots};

/// Kernel names accepted by `--kernel` (besides `all`).
pub const KERNELS: &[&str] = &["bfs", "pagerank", "sssp", "msbfs", "betweenness"];

fn thread_points() -> Vec<usize> {
    let max = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);
    let mut v = vec![1usize];
    let mut t = 2;
    // Always sweep through 4 threads (the tracked speedup point) even
    // on small CI hosts; oversubscription is informative, not harmful.
    while t <= (2 * max).max(4) {
        v.push(t);
        t *= 2;
    }
    v
}

/// Runs both scaling experiments and writes `BENCH_scaling.json`.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    // Validate --kernel up front: a typo must fail in milliseconds, not
    // after the strong/weak sweeps have run for minutes.
    kernel_list(ctx)?;
    strong(ctx)?;
    weak(ctx)?;
    bench_json(ctx)
}

/// The kernels selected by `--kernel` (a single name or `all`).
fn kernel_list(ctx: &ExpContext) -> Result<Vec<&'static str>, String> {
    let arg = ctx.args.get_str("kernel", "bfs");
    if arg == "all" {
        return Ok(KERNELS.to_vec());
    }
    KERNELS
        .iter()
        .find(|&&k| k == arg)
        .map(|&k| vec![k])
        .ok_or_else(|| format!("unknown --kernel {arg:?}; available: all, {}", KERNELS.join(", ")))
}

/// Reusable timed configurations of one kernel on one graph: a semiring
/// label plus a boxed runner (built once, run at every thread count).
type KernelConfig = (&'static str, Box<dyn Fn() + Send + Sync>);

fn kernel_configs(g: &CsrGraph, root: VertexId, kernel: &str) -> Vec<KernelConfig> {
    let n = g.num_vertices();
    match kernel {
        "bfs" => SemiringKind::ALL
            .into_iter()
            .map(|sem| {
                let p = prepare(g, 8, n, RepKind::SlimSell, sem);
                let f: Box<dyn Fn() + Send + Sync> = Box::new(move || {
                    std::hint::black_box(p.run(root, &BfsOptions::default()));
                });
                (sem.name(), f)
            })
            .collect(),
        "pagerank" => {
            let m = SlimSellMatrix::<8>::build(g, n);
            vec![(
                SemiringKind::Real.name(),
                Box::new(move || {
                    std::hint::black_box(pagerank(&m, &PageRankOptions::default()));
                }),
            )]
        }
        "sssp" => {
            let m = WeightedSellCSigma::<8>::build(&synthetic_weighted_twin(g), n);
            vec![(
                SemiringKind::Tropical.name(),
                Box::new(move || {
                    std::hint::black_box(sssp(&m, root));
                }),
            )]
        }
        "msbfs" => {
            let m = SlimSellMatrix::<8>::build(g, n);
            let r = sample_roots(g, 8);
            let batch: [VertexId; 8] = std::array::from_fn(|b| r[b % r.len()]);
            vec![(
                SemiringKind::Tropical.name(),
                Box::new(move || {
                    std::hint::black_box(multi_bfs::<_, 8, 8>(&m, &batch));
                }),
            )]
        }
        "betweenness" => {
            let m = SlimSellMatrix::<8>::build(g, n);
            let sources = sample_roots(g, 4);
            vec![(
                SemiringKind::Real.name(),
                Box::new(move || {
                    std::hint::black_box(betweenness_from_sources(&m, &sources));
                }),
            )]
        }
        other => unreachable!("kernel_list admitted unknown kernel {other:?}"),
    }
}

/// Measures threads × scale × kernel (× semiring for BFS) and emits
/// `BENCH_scaling.json`.
fn bench_json(ctx: &ExpContext) -> Result<(), String> {
    let base_scale = ctx.scale_log2();
    let scales = [base_scale.saturating_sub(2), base_scale];
    let runs = ctx.runs();
    let threads_list = thread_points();
    let kernels = kernel_list(ctx)?;
    let mut points = String::new();
    for &scale in &scales {
        let g = kron_at(scale, ctx.rho(), ctx.seed());
        let root = roots(&g, 1)[0];
        let arcs = g.num_arcs() as f64;
        for &kernel in &kernels {
            for (semiring, runner) in kernel_configs(&g, root, kernel) {
                let mut t1 = None;
                for &threads in &threads_list {
                    let secs = with_pool(threads, || median_time(runs, &runner));
                    let base = *t1.get_or_insert(secs);
                    if !points.is_empty() {
                        points.push_str(",\n");
                    }
                    points.push_str(&format!(
                        "    {{\"threads\": {threads}, \"scale_log2\": {scale}, \
                         \"kernel\": \"{kernel}\", \"semiring\": \"{semiring}\", \
                         \"median_s\": {secs:.6}, \"median_ns_per_edge\": {:.3}, \
                         \"speedup_vs_1t\": {:.3}}}",
                        secs * 1e9 / arcs,
                        base / secs,
                    ));
                }
            }
        }
    }
    let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"representation\": \"SlimSell\",\n  \
         \"lanes\": 8,\n  \"host_parallelism\": {host},\n  \"runs\": {runs},\n  \
         \"rho\": {},\n  \"seed\": {},\n  \
         \"unit\": \"median ns per stored arc per kernel run\",\n  \
         \"note\": \"speedup_vs_1t is bounded by host_parallelism; on a 1-CPU host \
         threads time-share one core and ~1.0 is the honest ceiling\",\n  \
         \"points\": [\n{points}\n  ]\n}}\n",
        ctx.rho(),
        ctx.seed(),
    );
    ctx.emit_raw("BENCH_scaling.json", &json);
    Ok(())
}

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool").install(f)
}

fn strong(ctx: &ExpContext) -> Result<(), String> {
    let g = kron_graph(ctx);
    let n = g.num_vertices();
    let rts = roots(&g, 2);
    let runs = ctx.runs();
    let mut t = TextTable::new(["threads", "time [s]", "speedup vs 1T"]);
    let mut t1 = None;
    for threads in thread_points() {
        let secs = with_pool(threads, || {
            let p = prepare(&g, 8, n, RepKind::SlimSell, SemiringKind::Tropical);
            mean_time(runs, || {
                for &r in &rts {
                    std::hint::black_box(p.run(r, &BfsOptions::default()));
                }
            })
        });
        let base = *t1.get_or_insert(secs);
        t.row([format!("{threads}"), format!("{secs:.4}"), format!("{:.2}", base / secs)]);
    }
    ctx.emit("scaling_strong", "Strong scaling (Kronecker, tropical, C=8)", &t);
    Ok(())
}

fn weak(ctx: &ExpContext) -> Result<(), String> {
    let base_scale = ctx.args.get("scale-log2", 13u32);
    let runs = ctx.runs();
    let mut t = TextTable::new(["threads", "scale (log2 n)", "time [s]", "efficiency"]);
    let mut t1 = None;
    for (i, threads) in thread_points().into_iter().enumerate() {
        let scale = base_scale + i as u32;
        let g = kron_at(scale, ctx.rho(), ctx.seed());
        let rts = roots(&g, 1);
        let secs = with_pool(threads, || {
            let p = prepare(&g, 8, g.num_vertices(), RepKind::SlimSell, SemiringKind::Tropical);
            mean_time(runs, || {
                for &r in &rts {
                    std::hint::black_box(p.run(r, &BfsOptions::default()));
                }
            })
        });
        let base = *t1.get_or_insert(secs);
        t.row([
            format!("{threads}"),
            format!("{scale}"),
            format!("{secs:.4}"),
            format!("{:.2}", base / secs),
        ]);
    }
    ctx.emit("scaling_weak", "Weak scaling (n grows with threads, tropical, C=8)", &t);
    Ok(())
}
