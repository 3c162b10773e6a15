//! Ablation studies of SlimSell's design choices:
//!
//! * **tile width** — SlimChunk's only parameter (§III-D leaves it to
//!   "the dynamic nature of the partial chunk allocation"; we sweep it);
//! * **chunk height C** — the architecture axis (CPU 8 / KNL 16 / warp
//!   32) on one host;
//! * **scheduling** — `omp-s` vs `omp-d` at small and full σ (§IV-A1's
//!   static-scheduling imbalance);
//! * **gather cost** — SIMT cost-model sensitivity: how the SlimSell
//!   advantage over Sell-C-σ depends on the load/gather price (§IV-A3's
//!   bandwidth argument);
//! * **SIMD efficiency** — lane utilization vs σ (why sorting matters on
//!   wide units).

use slimsell_analysis::report::TextTable;
use slimsell_core::{BfsOptions, Schedule};
use slimsell_simt::{CostModel, SimtConfig, SimtOptions};

use crate::dispatch::{prepare, prepare_simt, RepKind, SemiringKind};
use crate::harness::{mean_time, ExpContext};

use super::{kron_graph, roots, sigma_sweep};

/// Runs all ablations.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    tile_width(ctx)?;
    chunk_height(ctx)?;
    schedule(ctx)?;
    gather_cost(ctx)?;
    simd_efficiency(ctx)
}

fn tile_width(ctx: &ExpContext) -> Result<(), String> {
    let g = kron_graph(ctx);
    let n = g.num_vertices();
    let root = roots(&g, 1)[0];
    let p = prepare_simt(&g, n, RepKind::SlimSell, SemiringKind::Tropical, SimtConfig::default());
    let mut t = TextTable::new(["tile width", "total cycles", "max imbalance"]);
    let baseline = p.run(root, &SimtOptions { slimchunk: None, slimwork: true });
    let imb = |r: &slimsell_simt::SimtBfsReport| {
        r.iters.iter().map(|i| i.imbalance).fold(0.0f64, f64::max)
    };
    t.row([
        "none".to_string(),
        baseline.total_cycles().to_string(),
        format!("{:.1}", imb(&baseline)),
    ]);
    for tile in [1usize, 2, 4, 8, 16, 32, 64, 256] {
        let r = p.run(root, &SimtOptions { slimchunk: Some(tile), slimwork: true });
        t.row([tile.to_string(), r.total_cycles().to_string(), format!("{:.1}", imb(&r))]);
    }
    ctx.emit("ablate_tile", "Ablation: SlimChunk tile width (GPU-sim, sigma=n)", &t);
    Ok(())
}

fn chunk_height(ctx: &ExpContext) -> Result<(), String> {
    let g = kron_graph(ctx);
    let n = g.num_vertices();
    let rts = roots(&g, 2);
    let runs = ctx.runs();
    let mut t = TextTable::new(["C", "time [s]", "padding cells"]);
    for c in [4usize, 8, 16, 32] {
        let p = prepare(&g, c, n, RepKind::SlimSell, SemiringKind::Tropical);
        let secs = mean_time(runs, || {
            for &r in &rts {
                std::hint::black_box(p.run(r, &BfsOptions::default()));
            }
        });
        t.row([c.to_string(), format!("{secs:.4}"), p.padding_cells().to_string()]);
    }
    ctx.emit("ablate_c", "Ablation: chunk height C (CPU, tropical, sigma=n)", &t);
    Ok(())
}

fn schedule(ctx: &ExpContext) -> Result<(), String> {
    let g = kron_graph(ctx);
    let n = g.num_vertices();
    let rts = roots(&g, 2);
    let runs = ctx.runs();
    let mut t = TextTable::new(["sigma", "static [s]", "dynamic [s]"]);
    for sigma in [8usize, n] {
        let p = prepare(&g, 8, sigma, RepKind::SlimSell, SemiringKind::Tropical);
        let mut row = vec![if sigma == n { "n".to_string() } else { sigma.to_string() }];
        for sched in [Schedule::Static, Schedule::Dynamic] {
            let opts = BfsOptions::default().schedule(sched);
            let secs = mean_time(runs, || {
                for &r in &rts {
                    std::hint::black_box(p.run(r, &opts));
                }
            });
            row.push(format!("{secs:.4}"));
        }
        t.row(row);
    }
    ctx.emit("ablate_schedule", "Ablation: omp-s vs omp-d scheduling (CPU, tropical)", &t);
    Ok(())
}

fn gather_cost(ctx: &ExpContext) -> Result<(), String> {
    let g = kron_graph(ctx);
    let n = g.num_vertices();
    let root = roots(&g, 1)[0];
    let mut t = TextTable::new([
        "load cost [cyc]",
        "SlimSell [cyc]",
        "Sell-C-sigma [cyc]",
        "Slim advantage",
    ]);
    for load in [1u64, 2, 4, 8, 16] {
        let cost = CostModel { load, ..CostModel::DEFAULT };
        let cfg = SimtConfig { cost, ..Default::default() };
        let slim = prepare_simt(&g, n, RepKind::SlimSell, SemiringKind::Tropical, cfg)
            .run(root, &SimtOptions::default());
        let sell = prepare_simt(&g, n, RepKind::SellCSigma, SemiringKind::Tropical, cfg)
            .run(root, &SimtOptions::default());
        t.row([
            load.to_string(),
            slim.total_cycles().to_string(),
            sell.total_cycles().to_string(),
            format!("{:.3}", sell.total_cycles() as f64 / slim.total_cycles() as f64),
        ]);
    }
    ctx.emit(
        "ablate_gather",
        "Ablation: memory-cost sensitivity of SlimSell vs Sell-C-sigma (GPU-sim)",
        &t,
    );
    Ok(())
}

fn simd_efficiency(ctx: &ExpContext) -> Result<(), String> {
    let g = kron_graph(ctx);
    let n = g.num_vertices();
    let root = roots(&g, 1)[0];
    let mut t = TextTable::new(["log2(sigma)", "SIMD efficiency (iter 0)", "padding cells"]);
    for sigma in sigma_sweep(n) {
        let p = prepare_simt(
            &g,
            sigma,
            RepKind::SlimSell,
            SemiringKind::Tropical,
            SimtConfig::default(),
        );
        let r = p.run(root, &SimtOptions { slimwork: false, slimchunk: None });
        let pad = prepare(&g, 32, sigma, RepKind::SlimSell, SemiringKind::Tropical).padding_cells();
        t.row([
            format!("{:.0}", (sigma as f64).log2()),
            format!("{:.3}", r.iters[0].simd_efficiency),
            pad.to_string(),
        ]);
    }
    ctx.emit("ablate_simd_eff", "Ablation: lane utilization vs sorting scope (C=32)", &t);
    Ok(())
}
