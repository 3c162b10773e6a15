//! `masked`: masked vs unmasked traversal work, plus the
//! machine-readable `BENCH_masked.json` artifact.
//!
//! The descriptor layer's promise is that restricting a sweep to a
//! vertex subset costs work proportional to the *surviving* subgraph —
//! no matrix rebuild, strictly fewer column steps than the unmasked
//! traversal. This experiment measures that claim: on each generator ×
//! scale it runs the tropical BFS engine unmasked and under a
//! half-graph mask (original ids `[0, n/2)` plus the root), under both
//! the full and adaptive sweeps, and repeats the pair through the
//! descriptor front door (`run_descriptor`, push–pull under the same
//! mask). The comparison lands as a table (via
//! [`slimsell_analysis::masked::MaskedComparison`]) and as
//! `BENCH_masked.json`; the run fails if masking was not strictly
//! cheaper on at least two generators at scale ≥ 12 — the acceptance
//! bar of the mask/descriptor PR.

use std::sync::Arc;

use slimsell_analysis::masked::MaskedComparison;
use slimsell_core::counters::RunStats;
use slimsell_core::matrix::ChunkMatrix;
use slimsell_core::{
    run_descriptor, BfsEngine, BfsOptions, Descriptor, SlimSellMatrix, SweepMode, TropicalSemiring,
    VertexMask,
};
use slimsell_gen::geometric::road_network;
use slimsell_graph::{CsrGraph, VertexId};

use super::{kron_at, roots};
use crate::harness::{median_time, ExpContext};

/// Average degree of the geometric (road-network stand-in) graphs.
const ROAD_RHO: f64 = 2.8;
/// σ-window of the sweep (the paper's locality-preserving default).
const SIGMA: usize = 32;

/// Runs the sweep and writes `BENCH_masked.json`.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    let hi = ctx.scale_log2().max(12);
    let runs = ctx.runs();
    let mut table = MaskedComparison::table();
    let mut points = String::new();
    // Generators (at scale >= 12, any sweep or driver) where masking
    // was *not* strictly cheaper — the acceptance predicate.
    let mut failed: Vec<String> = Vec::new();
    let mut passed_at_scale = 0usize;
    for scale in 12..=hi {
        let n = 1usize << scale;
        let er_p = (ctx.rho() / n as f64).min(1.0);
        let graphs: [(&str, CsrGraph); 3] = [
            ("kronecker", kron_at(scale, ctx.rho(), ctx.seed())),
            ("erdos-renyi", slimsell_gen::erdos_renyi_gnp(n, er_p, ctx.seed())),
            ("geometric", road_network(n, ROAD_RHO, ctx.seed())),
        ];
        for (name, g) in graphs {
            let root = roots(&g, 1)[0];
            let m = SlimSellMatrix::<8>::build(&g, SIGMA);
            // The half-graph mask: original ids [0, n/2) plus the root.
            let ids = (0..(n / 2) as VertexId).chain([root]);
            let mask = Arc::new(VertexMask::from_original(m.structure(), ids));
            let mask_len = mask.len();
            let mut strictly_cheaper_everywhere = true;
            let mut record = |driver: &str,
                              sweep: SweepMode,
                              unmasked: (RunStats, f64),
                              masked: (RunStats, f64),
                              table: &mut slimsell_analysis::report::TextTable,
                              points: &mut String| {
                let cmp = MaskedComparison::measure(&unmasked.0, &masked.0, mask_len, n);
                table.row(cmp.row(&format!("{name}@2^{scale} {driver}/{}", sweep.name())));
                strictly_cheaper_everywhere &= cmp.strictly_cheaper();
                if !points.is_empty() {
                    points.push_str(",\n");
                }
                points.push_str(&format!(
                    "    {{\"graph\": \"{name}\", \"scale_log2\": {scale}, \
                     \"driver\": \"{driver}\", \"sweep\": \"{}\", \
                     \"mask_fraction\": {:.4}, \
                     \"iterations_unmasked\": {}, \"iterations_masked\": {}, \
                     \"col_steps_unmasked\": {}, \"col_steps_masked\": {}, \
                     \"col_step_ratio\": {:.4}, \"strictly_cheaper\": {}, \
                     \"median_s_unmasked\": {:.6}, \"median_s_masked\": {:.6}}}",
                    sweep.name(),
                    cmp.mask_fraction,
                    cmp.unmasked_iterations,
                    cmp.masked_iterations,
                    cmp.unmasked_col_steps,
                    cmp.masked_col_steps,
                    cmp.col_step_ratio(),
                    cmp.strictly_cheaper(),
                    unmasked.1,
                    masked.1,
                ));
            };
            let time_engine = |mask: Option<&Arc<VertexMask>>, sweep: SweepMode| {
                let opts = BfsOptions::default().sweep(sweep).mask(mask.map(Arc::clone));
                let mut stats = None;
                let secs = median_time(runs, || {
                    let out = std::hint::black_box(BfsEngine::run::<_, TropicalSemiring, 8>(
                        &m, root, &opts,
                    ));
                    stats = Some(out.stats);
                });
                (stats.expect("runs >= 1"), secs)
            };
            let time_descriptor = |mask: Option<&Arc<VertexMask>>, sweep: SweepMode| {
                let mut desc = Descriptor::default().sweep(sweep);
                if let Some(mk) = mask {
                    desc = desc.mask(Arc::clone(mk));
                }
                let mut stats = None;
                let secs = median_time(runs, || {
                    let out = std::hint::black_box(run_descriptor(&m, root, &desc));
                    stats = Some(out.bfs.stats);
                });
                (stats.expect("runs >= 1"), secs)
            };
            for sweep in [SweepMode::Full, SweepMode::Adaptive] {
                record(
                    "engine",
                    sweep,
                    time_engine(None, sweep),
                    time_engine(Some(&mask), sweep),
                    &mut table,
                    &mut points,
                );
            }
            record(
                "descriptor",
                SweepMode::Adaptive,
                time_descriptor(None, SweepMode::Adaptive),
                time_descriptor(Some(&mask), SweepMode::Adaptive),
                &mut table,
                &mut points,
            );
            if strictly_cheaper_everywhere {
                passed_at_scale += 1;
            } else {
                failed.push(format!("{name}@2^{scale}"));
            }
        }
    }
    ctx.emit("masked", "Masked vs unmasked traversal work (tropical, C=8, sigma=32)", &table);
    let json = format!(
        "{{\n  \"bench\": \"masked\",\n  \"representation\": \"SlimSell\",\n  \
         \"lanes\": 8,\n  \"sigma\": {SIGMA},\n  \"semiring\": \"tropical\",\n  \
         \"runs\": {runs},\n  \"rho\": {},\n  \"seed\": {},\n  \
         \"mask\": \"original ids [0, n/2) plus the root\",\n  \
         \"unit\": \"col_steps are exact counters; times are medians in seconds\",\n  \
         \"note\": \"strictly_cheaper must hold on every generator at scale >= 12; \
         masked iteration counts may differ (the mask changes reachability)\",\n  \
         \"generators_strictly_cheaper\": {passed_at_scale},\n  \"points\": [\n{points}\n  ]\n}}\n",
        ctx.rho(),
        ctx.seed(),
    );
    ctx.emit_raw("BENCH_masked.json", &json);
    if passed_at_scale < 2 {
        return Err(format!(
            "masked acceptance failed: only {passed_at_scale} generator/scale points were \
             strictly cheaper under the mask (need >= 2); offenders: {failed:?}"
        ));
    }
    Ok(())
}
