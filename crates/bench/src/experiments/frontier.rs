//! `frontier`: full-sweep vs worklist vs adaptive BFS on high-diameter
//! generators, plus the machine-readable `BENCH_frontier.json`
//! artifact.
//!
//! SlimWork keeps a full sweep `O(n_chunks)` per iteration because
//! every chunk still runs the skip test (and unreached chunks run their
//! whole MV); the worklist engine is `O(|worklist|)`. The gap is
//! largest exactly where the paper found "small or no improvement from
//! SlimWork" (§IV-A5): road-network-like geometric graphs and
//! small-world ring lattices, whose diameters are in the hundreds — and
//! it inverts in Kronecker's flood regime, which is what the adaptive
//! gate (`SweepMode::Adaptive`, the default) is for. The sweep
//! crosses `{kronecker, geometric, smallworld} × {full, worklist,
//! adaptive}` over scales `10..=--scale-log2` (pass `--adaptive 0` to
//! drop the adaptive axis), records wall time and the exact work
//! counters (column steps, chunk visits, activation probes, mode
//! switches — identical on every host), and emits the comparison both
//! as tables (via `slimsell_analysis::frontier`) and as
//! `BENCH_frontier.json` with the same shape conventions as
//! `BENCH_scaling.json`.

use slimsell_analysis::frontier::{AdaptiveComparison, WorklistComparison};
use slimsell_core::counters::RunStats;
use slimsell_core::{BfsEngine, BfsOptions, Schedule, SlimSellMatrix, SweepMode, TropicalSemiring};
use slimsell_gen::geometric::road_network;
use slimsell_gen::smallworld::watts_strogatz;
use slimsell_graph::CsrGraph;

use super::{kron_at, roots};
use crate::harness::{median_time, ExpContext};

/// Average degree of the geometric (road-network stand-in) graphs.
const ROAD_RHO: f64 = 2.8;
/// Ring-lattice degree and rewiring probability of the small-world
/// graphs (low beta keeps the diameter large — the regime under test).
const SW_K: usize = 4;
const SW_BETA: f64 = 0.02;

/// Runs the sweep and writes `BENCH_frontier.json`.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    let hi = ctx.scale_log2().max(10);
    let runs = ctx.runs();
    // The adaptive axis is on by default; `--adaptive 0` reverts to the
    // pre-PR-5 two-mode sweep.
    let with_adaptive = ctx.args.get("adaptive", 1u32) != 0;
    let mut table = WorklistComparison::table();
    let mut ad_table = AdaptiveComparison::table();
    let mut points = String::new();
    for scale in 10..=hi {
        let n = 1usize << scale;
        let graphs: [(&str, CsrGraph); 3] = [
            ("kronecker", kron_at(scale, ctx.rho(), ctx.seed())),
            ("geometric", road_network(n, ROAD_RHO, ctx.seed())),
            ("smallworld", watts_strogatz(n, SW_K, SW_BETA, ctx.seed())),
        ];
        for (name, g) in graphs {
            let root = roots(&g, 1)[0];
            let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
            let arcs = g.num_arcs() as f64;
            let measure = |sweep: SweepMode| -> (RunStats, f64) {
                // Pin every knob explicitly so the artifact does not
                // depend on the SLIMSELL_SWEEP default.
                let opts = BfsOptions {
                    slimwork: true,
                    slimchunk: None,
                    max_iterations: None,
                    ..Default::default()
                }
                .sweep(sweep)
                .schedule(Schedule::Dynamic);
                // Work counters are deterministic across runs, so the
                // stats come from the timed runs themselves — no extra
                // untimed execution per point.
                let mut stats = None;
                let secs = median_time(runs, || {
                    let out = std::hint::black_box(BfsEngine::run::<_, TropicalSemiring, 8>(
                        &m, root, &opts,
                    ));
                    stats = Some(out.stats);
                });
                (stats.expect("runs >= 1"), secs)
            };
            let (full, full_s) = measure(SweepMode::Full);
            let (wl, wl_s) = measure(SweepMode::Worklist);
            let cmp = WorklistComparison::measure(&full, &wl);
            table.row(cmp.row(&format!("{name}@2^{scale}")));
            let mut modes: Vec<(SweepMode, &RunStats, f64, f64)> = vec![
                (SweepMode::Full, &full, full_s, 1.0),
                (SweepMode::Worklist, &wl, wl_s, cmp.col_step_ratio()),
            ];
            let adaptive = with_adaptive.then(|| measure(SweepMode::Adaptive));
            if let Some((ad, ad_s)) = &adaptive {
                let ac = AdaptiveComparison::measure(&full, &wl, ad);
                ad_table.row(ac.row(&format!("{name}@2^{scale}")));
                modes.push((SweepMode::Adaptive, ad, *ad_s, ac.ratio_vs_full()));
            }
            for (sweep, stats, secs, ratio) in modes {
                if !points.is_empty() {
                    points.push_str(",\n");
                }
                points.push_str(&format!(
                    "    {{\"graph\": \"{name}\", \"scale_log2\": {scale}, \
                     \"sweep\": \"{}\", \"iterations\": {}, \"col_steps\": {}, \
                     \"visited_chunks\": {}, \"activations\": {}, \"mode_switches\": {}, \
                     \"worklist_iters\": {}, \"median_s\": {secs:.6}, \
                     \"median_ns_per_edge\": {:.3}, \"col_step_ratio_vs_full\": {ratio:.4}}}",
                    sweep.name(),
                    stats.num_iterations(),
                    stats.total_col_steps(),
                    stats.total_visited(),
                    stats.total_activations(),
                    stats.mode_switches(),
                    stats.worklist_sweep_iterations(),
                    secs * 1e9 / arcs,
                ));
            }
        }
    }
    ctx.emit("frontier", "Full sweep vs worklist (tropical, C=8, SlimWork on)", &table);
    if with_adaptive {
        ctx.emit("frontier_adaptive", "Adaptive sweep vs both pure modes", &ad_table);
    }
    let json = format!(
        "{{\n  \"bench\": \"frontier\",\n  \"representation\": \"SlimSell\",\n  \
         \"lanes\": 8,\n  \"semiring\": \"tropical\",\n  \"runs\": {runs},\n  \
         \"rho\": {},\n  \"seed\": {},\n  \
         \"unit\": \"median ns per stored arc per BFS run; col_steps/visits/activations/mode_switches are exact counters\",\n  \
         \"note\": \"worklist col_steps < full col_steps is the frontier-proportional win; \
         adaptive must stay within max(full, worklist) everywhere and track the better mode; \
         counters are host-independent, times are not\",\n  \"points\": [\n{points}\n  ]\n}}\n",
        ctx.rho(),
        ctx.seed(),
    );
    ctx.emit_raw("BENCH_frontier.json", &json);
    Ok(())
}
