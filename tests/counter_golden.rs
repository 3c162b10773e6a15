//! Golden counter traces: one FNV-1a hash per (kernel, sweep mode,
//! graph) case over every iteration's exact work counters.
//!
//! The other counter suites compare sweep modes or thread counts against
//! each other; this one pins the *absolute* per-iteration trace, so a
//! refactor of the sweep machinery that shifts a single column step,
//! activation, changed-chunk count or frontier probe anywhere fails
//! here. Wall times (`elapsed`) are excluded; every hashed counter is
//! exact and independent of the thread count and schedule.
//!
//! Each case sets its sweep mode explicitly, so the `SLIMSELL_SWEEP`
//! matrix legs run the same cases. On a mismatch the test prints the
//! whole table in source form, ready to paste back after an intended
//! counter change.

use slimsell::core::{
    forward_sweep_with, multi_bfs_with, BetweennessOptions, IterStats, MsBfsOptions, RunStats,
};
use slimsell::gen::geometric::road_network;
use slimsell::graph::weighted::synthetic_weighted_twin;
use slimsell::prelude::*;
use std::sync::Arc;

/// Lanes per chunk for every case.
const C: usize = 8;

/// Expected trace hashes, keyed by `graph/kernel/sweep`.
const GOLDEN: &[(&str, u64)] = &[
    ("kron10/bfs-tropical/full", 0xc4196bf86fb13fbb),
    ("kron10/bfs-selmax/full", 0xc4196bf86fb13fbb),
    ("kron10/bfs-boolean/full", 0xc4196bf86fb13fbb),
    ("kron10/bfs-real/full", 0xc4196bf86fb13fbb),
    ("kron10/slimchunk-tropical/full", 0xc4196bf86fb13fbb),
    ("kron10/slimchunk-boolean/full", 0xc4196bf86fb13fbb),
    ("kron10/slimchunk-selmax/full", 0xc4196bf86fb13fbb),
    ("kron10/sssp/full", 0x28bd7c4a65e9bb08),
    ("kron10/msbfs-8/full", 0x4f0702fa0654e34b),
    ("kron10/pagerank/full", 0x3306f767e693f044),
    ("kron10/betweenness-forward/full", 0x8bfb1f6e2b8b087e),
    ("kron10/descriptor/full", 0x5e952a6e4e7317e0),
    ("kron10/descriptor-pull/full", 0xa72cd5727a9450ab),
    ("kron10/descriptor-push/full", 0x0d82c50f1876878c),
    ("kron10/descriptor-masked/full", 0x5546b220c2d2715b),
    ("kron10/bfs-tropical/worklist", 0xb3db59831efc5f39),
    ("kron10/bfs-selmax/worklist", 0xb3db59831efc5f39),
    ("kron10/bfs-boolean/worklist", 0xb3d126f954bcba2a),
    ("kron10/bfs-real/worklist", 0xb3d126f954bcba2a),
    ("kron10/slimchunk-tropical/worklist", 0xb3db59831efc5f39),
    ("kron10/slimchunk-boolean/worklist", 0xb3d126f954bcba2a),
    ("kron10/slimchunk-selmax/worklist", 0xb3db59831efc5f39),
    ("kron10/sssp/worklist", 0x65e3ae9845456927),
    ("kron10/msbfs-8/worklist", 0xdec7e72c36c6c6ea),
    ("kron10/pagerank/worklist", 0xa39f60a41f35f7d3),
    ("kron10/betweenness-forward/worklist", 0xb3d126f954bcba2a),
    ("kron10/descriptor/worklist", 0xc0fc8a205d7898ca),
    ("kron10/descriptor-pull/worklist", 0x82d25c9f080a3e31),
    ("kron10/descriptor-push/worklist", 0x0d82c50f1876878c),
    ("kron10/descriptor-masked/worklist", 0x537b75bf02773dbd),
    ("kron10/bfs-tropical/adaptive", 0xcb6b396443811545),
    ("kron10/bfs-selmax/adaptive", 0xcb6b396443811545),
    ("kron10/bfs-boolean/adaptive", 0x406ad2081e426301),
    ("kron10/bfs-real/adaptive", 0x406ad2081e426301),
    ("kron10/slimchunk-tropical/adaptive", 0xcb6b396443811545),
    ("kron10/slimchunk-boolean/adaptive", 0x406ad2081e426301),
    ("kron10/slimchunk-selmax/adaptive", 0xcb6b396443811545),
    ("kron10/sssp/adaptive", 0x068730ad96dcf330),
    ("kron10/msbfs-8/adaptive", 0x6700d900ab070f78),
    ("kron10/pagerank/adaptive", 0xfcfa137014087917),
    ("kron10/betweenness-forward/adaptive", 0x406ad2081e426301),
    ("kron10/descriptor/adaptive", 0x3fc953db75e24ca9),
    ("kron10/descriptor-pull/adaptive", 0xe9f189ca67562f35),
    ("kron10/descriptor-push/adaptive", 0x0d82c50f1876878c),
    ("kron10/descriptor-masked/adaptive", 0xe75506a4cdc67aec),
    ("road11/bfs-tropical/full", 0xb068cee66ad41728),
    ("road11/bfs-selmax/full", 0xb068cee66ad41728),
    ("road11/bfs-boolean/full", 0xb068cee66ad41728),
    ("road11/bfs-real/full", 0xb068cee66ad41728),
    ("road11/slimchunk-tropical/full", 0xb068cee66ad41728),
    ("road11/slimchunk-boolean/full", 0xb068cee66ad41728),
    ("road11/slimchunk-selmax/full", 0xb068cee66ad41728),
    ("road11/sssp/full", 0x24e86167ef26969c),
    ("road11/msbfs-8/full", 0xebf61ce3d36cff7c),
    ("road11/pagerank/full", 0xc25bafc79152ae65),
    ("road11/betweenness-forward/full", 0xf76a354470f2464b),
    ("road11/descriptor/full", 0x857f00e52c676d44),
    ("road11/descriptor-pull/full", 0x3b31efa27ee1aa30),
    ("road11/descriptor-push/full", 0x857f00e52c676d44),
    ("road11/descriptor-masked/full", 0x34ca7b6fe4d10ee5),
    ("road11/bfs-tropical/worklist", 0x3520d2339b4bbf4d),
    ("road11/bfs-selmax/worklist", 0x3520d2339b4bbf4d),
    ("road11/bfs-boolean/worklist", 0x5ea48b6fbfa1d417),
    ("road11/bfs-real/worklist", 0x5ea48b6fbfa1d417),
    ("road11/slimchunk-tropical/worklist", 0x3520d2339b4bbf4d),
    ("road11/slimchunk-boolean/worklist", 0x5ea48b6fbfa1d417),
    ("road11/slimchunk-selmax/worklist", 0x3520d2339b4bbf4d),
    ("road11/sssp/worklist", 0x08d7412c1b88e63d),
    ("road11/msbfs-8/worklist", 0x04f1aa273fe734bd),
    ("road11/pagerank/worklist", 0x4a63ef3f826aca8e),
    ("road11/betweenness-forward/worklist", 0x5ea48b6fbfa1d417),
    ("road11/descriptor/worklist", 0x857f00e52c676d44),
    ("road11/descriptor-pull/worklist", 0x935a51e4c26d168a),
    ("road11/descriptor-push/worklist", 0x857f00e52c676d44),
    ("road11/descriptor-masked/worklist", 0x34ca7b6fe4d10ee5),
    ("road11/bfs-tropical/adaptive", 0x3520d2339b4bbf4d),
    ("road11/bfs-selmax/adaptive", 0x3520d2339b4bbf4d),
    ("road11/bfs-boolean/adaptive", 0x63ddd7596ae99fb3),
    ("road11/bfs-real/adaptive", 0x63ddd7596ae99fb3),
    ("road11/slimchunk-tropical/adaptive", 0x3520d2339b4bbf4d),
    ("road11/slimchunk-boolean/adaptive", 0x63ddd7596ae99fb3),
    ("road11/slimchunk-selmax/adaptive", 0x3520d2339b4bbf4d),
    ("road11/sssp/adaptive", 0x3985192a15c5472e),
    ("road11/msbfs-8/adaptive", 0x8da0b5b4a4a8cf4a),
    ("road11/pagerank/adaptive", 0xa104022ac2bad345),
    ("road11/betweenness-forward/adaptive", 0x63ddd7596ae99fb3),
    ("road11/descriptor/adaptive", 0x857f00e52c676d44),
    ("road11/descriptor-pull/adaptive", 0x935a51e4c26d168a),
    ("road11/descriptor-push/adaptive", 0x857f00e52c676d44),
    ("road11/descriptor-masked/adaptive", 0x34ca7b6fe4d10ee5),
];

/// FNV-1a over the little-endian bytes of a run's counter tuples.
fn trace_hash(stats: &RunStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for it in &stats.iters {
        let IterStats {
            elapsed: _,
            sweep_mode,
            chunks_processed,
            chunks_skipped,
            chunks_not_on_worklist,
            worklist_len,
            activations,
            changed_chunks,
            col_steps,
            cells,
            active_cells,
            frontier_probes,
            changed,
        } = *it;
        for v in [
            (sweep_mode == ExecutedSweep::Worklist) as u64,
            worklist_len as u64,
            chunks_processed as u64,
            chunks_skipped as u64,
            chunks_not_on_worklist as u64,
            activations,
            changed_chunks as u64,
            col_steps,
            cells,
            active_cells,
            frontier_probes,
            changed as u64,
        ] {
            eat(v);
        }
    }
    h
}

fn config(sweep: SweepMode) -> SweepConfig {
    SweepConfig::new(sweep, Schedule::Dynamic)
}

/// Every case's trace hash on one graph, in a fixed order.
fn traces(graph: &str, g: &CsrGraph) -> Vec<(String, u64)> {
    let m = SlimSellMatrix::<C>::build(g, g.num_vertices());
    let w = WeightedSellCSigma::<C>::build(&synthetic_weighted_twin(g), g.num_vertices());
    let roots = slimsell::graph::stats::sample_roots(g, 8);
    let root = roots[0];
    let batch: [VertexId; 8] = std::array::from_fn(|b| roots[b % roots.len()]);
    // The lower half of the original ids, plus the root.
    let n = g.num_vertices() as VertexId;
    let half = Arc::new(VertexMask::from_original(
        m.structure(),
        (0..n).filter(|&v| v < n / 2 || v == root),
    ));
    let mut out = Vec::new();
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let bfs = BfsOptions::default().config(config(sweep));
        let tiled = BfsOptions { slimchunk: Some(4), ..bfs.clone() };
        let runs: Vec<(&str, RunStats)> = vec![
            ("bfs-tropical", BfsEngine::run::<_, TropicalSemiring, C>(&m, root, &bfs).stats),
            ("bfs-selmax", BfsEngine::run::<_, SelMaxSemiring, C>(&m, root, &bfs).stats),
            ("bfs-boolean", BfsEngine::run::<_, BooleanSemiring, C>(&m, root, &bfs).stats),
            ("bfs-real", BfsEngine::run::<_, RealSemiring, C>(&m, root, &bfs).stats),
            (
                "slimchunk-tropical",
                BfsEngine::run::<_, TropicalSemiring, C>(&m, root, &tiled).stats,
            ),
            ("slimchunk-boolean", BfsEngine::run::<_, BooleanSemiring, C>(&m, root, &tiled).stats),
            ("slimchunk-selmax", BfsEngine::run::<_, SelMaxSemiring, C>(&m, root, &tiled).stats),
            ("sssp", sssp_with(&w, root, &SsspOptions::default().config(config(sweep))).stats),
            (
                "msbfs-8",
                multi_bfs_with::<_, C, 8>(
                    &m,
                    &batch,
                    &MsBfsOptions::default().config(config(sweep)),
                )
                .stats,
            ),
            ("pagerank", pagerank(&m, &PageRankOptions::default().config(config(sweep))).stats),
            (
                "betweenness-forward",
                forward_sweep_with(&m, root, &BetweennessOptions::default().config(config(sweep)))
                    .stats,
            ),
            (
                "descriptor",
                run_descriptor(&m, root, &Descriptor::default().config(config(sweep))).bfs.stats,
            ),
            (
                "descriptor-pull",
                run_descriptor(
                    &m,
                    root,
                    &Descriptor::default().config(config(sweep)).direction(DirectionPolicy::Pull),
                )
                .bfs
                .stats,
            ),
            (
                "descriptor-push",
                run_descriptor(
                    &m,
                    root,
                    &Descriptor::default().config(config(sweep)).direction(DirectionPolicy::Push),
                )
                .bfs
                .stats,
            ),
            (
                "descriptor-masked",
                run_descriptor(
                    &m,
                    root,
                    &Descriptor::default().config(config(sweep)).mask(half.clone()),
                )
                .bfs
                .stats,
            ),
        ];
        for (kernel, stats) in runs {
            out.push((format!("{graph}/{kernel}/{}", sweep.name()), trace_hash(&stats)));
        }
    }
    out
}

#[test]
fn counter_traces_match_golden_hashes() {
    let graphs = [
        ("kron10", kronecker(10, 16.0, KroneckerParams::GRAPH500, 1)),
        ("road11", road_network(1 << 11, 2.8, 1)),
    ];
    let got: Vec<(String, u64)> = graphs.iter().flat_map(|(name, g)| traces(name, g)).collect();
    let table: String = got.iter().map(|(k, h)| format!("    (\"{k}\", 0x{h:016x}),\n")).collect();
    let mismatches: Vec<&str> = got
        .iter()
        .filter(|(k, h)| GOLDEN.iter().find(|(gk, _)| gk == k).map(|&(_, gh)| gh) != Some(*h))
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(GOLDEN.len(), got.len(), "golden table is stale; current table:\n{table}");
    assert!(
        mismatches.is_empty(),
        "counter traces changed: {mismatches:?}\ncurrent table:\n{table}"
    );
}
