//! Figure 1: per-iteration time of traditional BFS vs algebraic BFS with
//! SlimSell, with and without direction optimization, on a dense
//! Kronecker graph (paper: n = 2^20, ρ = 512, KNL C = 16).
//!
//! Default here: n = 2^13, ρ = 64 (`--scale-log2`/`--rho` to go larger);
//! the paper's shape to verify is (a) traditional BFS has one expensive
//! middle iteration, (b) SlimSell's SpMV iterations shrink monotonically
//! once SlimWork starts skipping, (c) direction optimization removes the
//! cost of the first/last sparse iterations.

use slimsell_analysis::report::{fmt_secs, TextTable};
use slimsell_baseline::trad_bfs;
use slimsell_core::matrix::SlimSellMatrix;
use slimsell_core::{run_descriptor, BfsOptions, Descriptor};

use crate::dispatch::{prepare, RepKind, SemiringKind};
use crate::harness::ExpContext;

use super::{kron_at, roots};

/// Runs the Figure 1 comparison.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    let scale = ctx.args.get("scale-log2", 13u32);
    let rho = ctx.args.get("rho", 64.0f64);
    let g = kron_at(scale, rho, ctx.seed());
    let root = roots(&g, 1)[0];
    let n = g.num_vertices();

    // Traditional BFS (Graph500-style).
    let trad = trad_bfs(&g, root);

    // Algebraic BFS with SlimSell (tropical, C = 16, SlimWork on).
    let spmv = prepare(&g, 16, n, RepKind::SlimSell, SemiringKind::Tropical)
        .run(root, &BfsOptions::default());

    // Algebraic BFS with SlimSell + direction optimization.
    let slim = SlimSellMatrix::<16>::build(&g, n);
    let dir = run_descriptor(&slim, root, &Descriptor::default());

    let iters = trad.level_times.len().max(spmv.stats.iters.len()).max(dir.bfs.stats.iters.len());
    let mut t = TextTable::new([
        "iteration",
        "Trad-BFS [s]",
        "SlimSell SpMV [s]",
        "SlimSell dir-opt [s]",
        "dir-opt mode",
        "SpMV chunks skipped",
    ]);
    for i in 0..iters {
        t.row([
            format!("{i}"),
            trad.level_times.get(i).map(|d| fmt_secs(d.as_secs_f64())).unwrap_or_default(),
            spmv.stats.iters.get(i).map(|s| fmt_secs(s.elapsed.as_secs_f64())).unwrap_or_default(),
            dir.bfs
                .stats
                .iters
                .get(i)
                .map(|s| fmt_secs(s.elapsed.as_secs_f64()))
                .unwrap_or_default(),
            dir.modes.get(i).map(|m| format!("{m:?}")).unwrap_or_default(),
            spmv.stats.iters.get(i).map(|s| s.chunks_skipped.to_string()).unwrap_or_default(),
        ]);
    }
    ctx.emit(
        "fig1",
        &format!("Figure 1: per-iteration BFS time, Kronecker n=2^{scale}, rho={rho}"),
        &t,
    );
    println!(
        "totals: trad {} | slimsell-spmv {} | slimsell-dirop {}",
        fmt_secs(trad.level_times.iter().map(|d| d.as_secs_f64()).sum()),
        fmt_secs(spmv.stats.total_time().as_secs_f64()),
        fmt_secs(dir.bfs.stats.total_time().as_secs_f64()),
    );
    Ok(())
}
