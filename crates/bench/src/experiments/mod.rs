//! One module per paper experiment, named after its table or figure
//! (`tables::table3` is Table III, `fig5` holds Figs. 5a–d). `prep`,
//! `bounds`, `scaling`, `frontier`, `masked`, `serve` and `ablate` go
//! beyond the paper.

pub mod ablate;
pub mod bounds;
pub mod fig1;
pub mod fig10;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod frontier;
pub mod masked;
pub mod prep;
pub mod scaling;
pub mod serve;
pub mod tables;

use slimsell_gen::kronecker::KroneckerParams;
use slimsell_graph::{stats::sample_roots, CsrGraph, VertexId};

use crate::harness::ExpContext;

/// Dispatches an experiment by name.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    match ctx.args.experiment.as_str() {
        "table2" => tables::table2(ctx),
        "table3" => tables::table3(ctx),
        "table4" => tables::table4(ctx),
        "table5" => tables::table5(ctx),
        "fig1" => fig1::run(ctx),
        "fig5a" => fig5::run_sigma_sweep(ctx, fig5::Variant::KroneckerDpStatic),
        "fig5b" => fig5::run_sigma_sweep(ctx, fig5::Variant::KroneckerNoDpDynamic),
        "fig5c" => fig5::run_sigma_sweep(ctx, fig5::Variant::ErdosRenyiDpDynamic),
        "fig5d" => fig5::run_slimwork(ctx),
        "fig6a" => fig6::run_sigma_sweep(ctx, /*erdos=*/ false),
        "fig6b" => fig6::run_sigma_sweep(ctx, /*erdos=*/ true),
        "fig6c" => fig6::run_per_iteration(ctx),
        "fig6d" => fig6::run_slimchunk_sweep(ctx),
        "fig6e" => fig6::run_slimchunk_per_iteration(ctx),
        "fig7" => fig7::run(ctx),
        "fig8" => fig8::run(ctx),
        "fig9" => fig9::run(ctx),
        "fig10" => fig10::run(ctx),
        "prep" => prep::run(ctx),
        "bounds" => bounds::run(ctx),
        "scaling" => scaling::run(ctx),
        "frontier" => frontier::run(ctx),
        "masked" => masked::run(ctx),
        "serve" => serve::run(ctx),
        "ablate" => ablate::run(ctx),
        "all" => {
            for name in EXPERIMENTS {
                if *name == "all" {
                    continue;
                }
                let mut args = ctx.args.clone();
                args.experiment = name.to_string();
                run(&ExpContext { args, results_dir: ctx.results_dir.clone() })?;
            }
            Ok(())
        }
        other => {
            Err(format!("unknown experiment {other:?}; available: {}", EXPERIMENTS.join(", ")))
        }
    }
}

/// All experiment names (for `--help` and `all`).
pub const EXPERIMENTS: &[&str] = &[
    "table2", "table3", "table4", "table5", "fig1", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a",
    "fig6b", "fig6c", "fig6d", "fig6e", "fig7", "fig8", "fig9", "fig10", "prep", "bounds",
    "scaling", "frontier", "masked", "serve", "ablate", "all",
];

/// Generates the context's default Kronecker graph.
pub(crate) fn kron_graph(ctx: &ExpContext) -> CsrGraph {
    slimsell_gen::kronecker(ctx.scale_log2(), ctx.rho(), KroneckerParams::GRAPH500, ctx.seed())
}

/// Generates a Kronecker graph at explicit (scale, ρ).
pub(crate) fn kron_at(scale: u32, rho: f64, seed: u64) -> CsrGraph {
    slimsell_gen::kronecker(scale, rho, KroneckerParams::GRAPH500, seed)
}

/// Generates the context's Erdős–Rényi twin: same n, average *degree*
/// matched to the paper's ER setting (ρ̄ ≈ 16 for Fig. 5c/6b means
/// `p·n ≈ 16`).
pub(crate) fn er_graph(ctx: &ExpContext) -> CsrGraph {
    let n = 1usize << ctx.scale_log2();
    let p = (ctx.rho() / n as f64).min(1.0);
    slimsell_gen::erdos_renyi_gnp(n, p, ctx.seed())
}

/// Deterministic non-isolated BFS roots.
pub(crate) fn roots(g: &CsrGraph, count: usize) -> Vec<VertexId> {
    sample_roots(g, count)
}

/// The σ sweep of Figs. 5/6: powers of two from 1 (log σ = 0) to n,
/// matching the paper's x-axis (σ a multiple of C once σ > C; smaller
/// values only reorder inside a chunk, the flat region of the plots).
pub(crate) fn sigma_sweep(n: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = 1usize;
    while s < n {
        v.push(s);
        s *= 4;
    }
    v.push(n);
    v
}
