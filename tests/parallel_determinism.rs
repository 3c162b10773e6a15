//! Parallel determinism: every kernel's outputs must be *byte-equal* —
//! not merely "same reachable set" — across thread counts. Covered: the
//! BFS engine (every semiring, with and without SlimChunk tiling, under
//! both schedules), direction-optimized BFS, and the four secondary
//! kernels riding the shared tiling module — PageRank, SSSP,
//! multi-source BFS, connected components and betweenness centrality.
//!
//! This holds by construction: every chunk's math is independent, tiles
//! write disjoint positional slabs, and the iteration-level reduce uses
//! commutative-associative merges — so scheduling can never reorder a
//! result. Ordered floating-point reductions (the PageRank residual,
//! the betweenness dependency accumulation) are computed per chunk and
//! merged in chunk order, never across tile boundaries. The 1-thread
//! run takes each kernel's sequential fallback path (no pool
//! interaction at all), which makes it the reference.
//!
//! Thread counts are pinned with `ThreadPoolBuilder::install`, the
//! in-process equivalent of running under `SLIMSELL_THREADS=1/2/8`
//! (which CI also exercises across the whole suite).

use slimsell::core::tiling::INLINE_SWEEP_CELLS;
use slimsell::core::{
    betweenness_from_sources_with, connected_components, multi_bfs_with, BetweennessOptions,
    IterStats, MsBfsOptions, RunStats,
};
use slimsell::prelude::*;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

fn graph() -> (CsrGraph, VertexId) {
    let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 7);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    (g, root)
}

/// Runs one configuration at every thread count and asserts the full
/// output (distances, parents, and per-iteration work counters) is
/// identical to the 1-thread sequential oracle.
fn check_engine<S: Semiring>(g: &CsrGraph, root: VertexId, opts: &BfsOptions, label: &str) {
    let slim = SlimSellMatrix::<8>::build(g, g.num_vertices());
    let reference = with_threads(1, || BfsEngine::run::<_, S, 8>(&slim, root, opts));
    // Sanity: the oracle itself is correct.
    assert_eq!(reference.dist, serial_bfs(g, root).dist, "{label}: oracle wrong");
    for threads in THREAD_COUNTS {
        let out = with_threads(threads, || BfsEngine::run::<_, S, 8>(&slim, root, opts));
        assert_eq!(out.dist, reference.dist, "{label}: dist diverged at {threads} threads");
        assert_eq!(out.parent, reference.parent, "{label}: parents diverged at {threads} threads");
        assert_eq!(
            out.stats.total_cells(),
            reference.stats.total_cells(),
            "{label}: work counters diverged at {threads} threads"
        );
        assert_eq!(
            out.stats.total_skipped(),
            reference.stats.total_skipped(),
            "{label}: skip counters diverged at {threads} threads"
        );
        assert_eq!(
            out.stats.total_col_steps(),
            reference.stats.total_col_steps(),
            "{label}: column-step counters diverged at {threads} threads"
        );
        assert_eq!(
            out.stats.total_not_on_worklist(),
            reference.stats.total_not_on_worklist(),
            "{label}: worklist exclusion counters diverged at {threads} threads"
        );
        assert_eq!(
            out.stats.total_activations(),
            reference.stats.total_activations(),
            "{label}: activation counters diverged at {threads} threads"
        );
        assert_eq!(
            out.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>(),
            reference.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>(),
            "{label}: sweep-mode trace diverged at {threads} threads"
        );
    }
}

#[test]
fn all_semirings_bit_identical_across_thread_counts() {
    let (g, root) = graph();
    let opts = BfsOptions::default();
    check_engine::<TropicalSemiring>(&g, root, &opts, "tropical");
    check_engine::<BooleanSemiring>(&g, root, &opts, "boolean");
    check_engine::<RealSemiring>(&g, root, &opts, "real");
    check_engine::<SelMaxSemiring>(&g, root, &opts, "sel-max");
}

#[test]
fn schedules_and_slimchunk_bit_identical() {
    let (g, root) = graph();
    for schedule in [Schedule::Static, Schedule::Dynamic] {
        for slimchunk in [None, Some(4)] {
            let opts = BfsOptions { slimchunk, ..Default::default() }.schedule(schedule);
            check_engine::<TropicalSemiring>(
                &g,
                root,
                &opts,
                &format!("{schedule:?}/{slimchunk:?}"),
            );
            check_engine::<SelMaxSemiring>(&g, root, &opts, &format!("{schedule:?}/{slimchunk:?}"));
        }
    }
}

#[test]
fn worklist_all_semirings_bit_identical_across_thread_counts() {
    // The worklist engine's seeding, tile partition and changed-chunk
    // harvest are position-deterministic; outputs and every work
    // counter (worklist sizes, activations, exclusions) must be
    // byte-equal at any thread count.
    let (g, root) = graph();
    let opts = BfsOptions::default().sweep(SweepMode::Worklist);
    check_engine::<TropicalSemiring>(&g, root, &opts, "tropical+worklist");
    check_engine::<BooleanSemiring>(&g, root, &opts, "boolean+worklist");
    check_engine::<RealSemiring>(&g, root, &opts, "real+worklist");
    check_engine::<SelMaxSemiring>(&g, root, &opts, "sel-max+worklist");
}

#[test]
fn worklist_schedules_and_slimchunk_bit_identical() {
    let (g, root) = graph();
    for schedule in [Schedule::Static, Schedule::Dynamic] {
        for slimchunk in [None, Some(4)] {
            let opts = BfsOptions { slimchunk, ..Default::default() }
                .sweep(SweepMode::Worklist)
                .schedule(schedule);
            let label = format!("worklist/{schedule:?}/{slimchunk:?}");
            check_engine::<TropicalSemiring>(&g, root, &opts, &label);
            check_engine::<SelMaxSemiring>(&g, root, &opts, &label);
        }
    }
}

#[test]
fn adaptive_all_semirings_bit_identical_across_thread_counts() {
    // The adaptive controller's decisions depend only on deterministic
    // counters (pending sizes, worklist lengths), so the full decision
    // trace — which iterations ran full vs worklist, checked via the
    // sweep_mode assertions in check_engine — and every output must be
    // byte-equal at any thread count.
    let (g, root) = graph();
    let opts = BfsOptions::default().sweep(SweepMode::Adaptive);
    check_engine::<TropicalSemiring>(&g, root, &opts, "tropical+adaptive");
    check_engine::<BooleanSemiring>(&g, root, &opts, "boolean+adaptive");
    check_engine::<RealSemiring>(&g, root, &opts, "real+adaptive");
    check_engine::<SelMaxSemiring>(&g, root, &opts, "sel-max+adaptive");
}

#[test]
fn adaptive_schedules_and_slimchunk_bit_identical() {
    let (g, root) = graph();
    for schedule in [Schedule::Static, Schedule::Dynamic] {
        for slimchunk in [None, Some(4)] {
            let opts = BfsOptions { slimchunk, ..Default::default() }
                .sweep(SweepMode::Adaptive)
                .schedule(schedule);
            let label = format!("adaptive/{schedule:?}/{slimchunk:?}");
            check_engine::<TropicalSemiring>(&g, root, &opts, &label);
            check_engine::<SelMaxSemiring>(&g, root, &opts, &label);
        }
    }
}

#[test]
fn adaptive_direction_optimized_bit_identical() {
    let (g, root) = graph();
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let opts = Descriptor::default().sweep(SweepMode::Adaptive);
    let reference = with_threads(1, || run_descriptor(&slim, root, &opts));
    let full_opts = Descriptor::default().sweep(SweepMode::Full);
    let full = with_threads(1, || run_descriptor(&slim, root, &full_opts));
    assert_eq!(reference.bfs.dist, full.bfs.dist, "adaptive diropt distances diverged");
    assert_eq!(reference.modes, full.modes, "adaptive diropt mode sequence diverged");
    for threads in THREAD_COUNTS {
        let out = with_threads(threads, || run_descriptor(&slim, root, &opts));
        assert_eq!(out.bfs.dist, reference.bfs.dist, "adaptive diropt dist at {threads} threads");
        assert_eq!(out.modes, reference.modes, "adaptive diropt modes at {threads} threads");
    }
}

#[test]
fn worklist_direction_optimized_bit_identical() {
    let (g, root) = graph();
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let opts = Descriptor::default().sweep(SweepMode::Worklist);
    let reference = with_threads(1, || run_descriptor(&slim, root, &opts));
    // The worklist must not perturb the heuristic: same distances and
    // mode sequence as the full-sweep diropt. Pin the sweep mode
    // explicitly — under the SLIMSELL_SWEEP=worklist CI leg the
    // default would silently be worklist mode and the comparison
    // vacuous.
    let full_opts = Descriptor::default().sweep(SweepMode::Full);
    let full = with_threads(1, || run_descriptor(&slim, root, &full_opts));
    assert_eq!(reference.bfs.dist, full.bfs.dist, "worklist diropt distances diverged");
    assert_eq!(reference.modes, full.modes, "worklist diropt mode sequence diverged");
    for threads in THREAD_COUNTS {
        let out = with_threads(threads, || run_descriptor(&slim, root, &opts));
        assert_eq!(out.bfs.dist, reference.bfs.dist, "wl diropt dist at {threads} threads");
        assert_eq!(out.modes, reference.modes, "wl diropt modes at {threads} threads");
    }
}

#[test]
fn direction_optimized_bit_identical() {
    let (g, root) = graph();
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let reference = with_threads(1, || run_descriptor(&slim, root, &Descriptor::default()));
    for threads in THREAD_COUNTS {
        let out = with_threads(threads, || run_descriptor(&slim, root, &Descriptor::default()));
        assert_eq!(out.bfs.dist, reference.bfs.dist, "diropt dist at {threads} threads");
        assert_eq!(out.modes, reference.modes, "diropt mode sequence at {threads} threads");
    }
}

#[test]
fn masked_engine_bit_identical_across_thread_counts() {
    // Masked sweeps ride the same positional-write machinery: a vertex
    // mask must not introduce any thread-count dependence, in any sweep
    // mode — distances, skip accounting and activation counts included.
    let (g, root) = graph();
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let mut keep: Vec<VertexId> = (0..g.num_vertices() as VertexId / 2).collect();
    keep.push(root);
    let mask = Arc::new(VertexMask::from_original(slim.structure(), keep));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let opts = BfsOptions::default().sweep(sweep).mask(Some(Arc::clone(&mask)));
        let reference =
            with_threads(1, || BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &opts));
        for threads in THREAD_COUNTS {
            let out = with_threads(threads, || {
                BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &opts)
            });
            assert_eq!(out.dist, reference.dist, "masked {sweep:?} dist at {threads} threads");
            assert_eq!(
                out.stats.total_col_steps(),
                reference.stats.total_col_steps(),
                "masked {sweep:?} column steps at {threads} threads"
            );
            assert_eq!(
                out.stats.total_skipped(),
                reference.stats.total_skipped(),
                "masked {sweep:?} skip counters at {threads} threads"
            );
            assert_eq!(
                out.stats.total_activations(),
                reference.stats.total_activations(),
                "masked {sweep:?} activations at {threads} threads"
            );
        }
    }
}

#[test]
fn masked_descriptor_bit_identical_across_thread_counts() {
    // Push steps walk the frontier in a fixed order and pull steps ride
    // the positional-write sweep under a fixed mask, so the whole trace
    // (distances, push/pull modes, work counters) must be byte-equal
    // at any thread count.
    let (g, root) = graph();
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let mut keep: Vec<VertexId> = (0..g.num_vertices() as VertexId / 2).collect();
    keep.push(root);
    let mask = Arc::new(VertexMask::from_original(slim.structure(), keep));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let desc = Descriptor::default().mask(Arc::clone(&mask)).sweep(sweep);
        let reference = with_threads(1, || run_descriptor(&slim, root, &desc));
        for threads in THREAD_COUNTS {
            let out = with_threads(threads, || run_descriptor(&slim, root, &desc));
            assert_eq!(
                out.bfs.dist, reference.bfs.dist,
                "masked descriptor {sweep:?} dist at {threads} threads"
            );
            assert_eq!(
                out.modes, reference.modes,
                "masked descriptor {sweep:?} modes at {threads} threads"
            );
            assert_eq!(
                out.bfs.stats.total_col_steps(),
                reference.bfs.stats.total_col_steps(),
                "masked descriptor {sweep:?} column steps at {threads} threads"
            );
            assert_eq!(
                out.bfs.stats.total_frontier_probes(),
                reference.bfs.stats.total_frontier_probes(),
                "masked descriptor {sweep:?} frontier probes at {threads} threads"
            );
        }
    }
}

/// f32 slice -> bit patterns, so `-0.0 != 0.0` and comparisons are
/// byte-exact rather than merely numerically equal.
fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// f64 slice -> bit patterns.
fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pagerank_bit_identical_across_thread_counts() {
    let (g, _) = graph();
    let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let opts = PageRankOptions::default();
    let reference = with_threads(1, || slimsell::core::pagerank::pagerank(&m, &opts));
    assert!(reference.iterations > 1, "graph converged trivially; test is vacuous");
    for threads in THREAD_COUNTS {
        let out = with_threads(threads, || slimsell::core::pagerank::pagerank(&m, &opts));
        assert_eq!(
            bits32(&out.scores),
            bits32(&reference.scores),
            "pagerank scores diverged at {threads} threads"
        );
        assert_eq!(
            out.residual.to_bits(),
            reference.residual.to_bits(),
            "pagerank residual diverged at {threads} threads"
        );
        assert_eq!(
            out.iterations, reference.iterations,
            "pagerank iteration count diverged at {threads} threads"
        );
    }
}

#[test]
fn sssp_bit_identical_across_thread_counts() {
    // Deterministic weights derived from the endpoints of a Kronecker
    // graph's edges; every thread count sees the same weighted graph
    // (the same twin the scaling bench measures).
    let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 11);
    let wg = slimsell::graph::weighted::synthetic_weighted_twin(&g);
    let m = WeightedSellCSigma::<8>::build(&wg, wg.num_vertices());
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    // The 1-thread full-sweep run is the oracle for every sweep mode:
    // worklist and adaptive SSSP must reproduce its labels to the bit
    // at every thread count (and their own counters must be
    // thread-count-invariant too).
    let full_opts = SsspOptions::default().sweep(SweepMode::Full);
    let oracle = with_threads(1, || sssp_with(&m, root, &full_opts));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let opts = SsspOptions::default().sweep(sweep);
        let reference = with_threads(1, || sssp_with(&m, root, &opts));
        assert_eq!(
            bits32(&reference.dist),
            bits32(&oracle.dist),
            "sssp {sweep:?} labels diverged from the full-sweep oracle"
        );
        assert_eq!(reference.iterations, oracle.iterations, "sssp {sweep:?} sweep count");
        for threads in THREAD_COUNTS {
            let out = with_threads(threads, || sssp_with(&m, root, &opts));
            assert_eq!(
                bits32(&out.dist),
                bits32(&reference.dist),
                "sssp {sweep:?} distances diverged at {threads} threads"
            );
            assert_eq!(
                out.iterations, reference.iterations,
                "sssp {sweep:?} sweep count diverged at {threads} threads"
            );
            assert_eq!(
                out.stats.total_col_steps(),
                reference.stats.total_col_steps(),
                "sssp {sweep:?} column steps diverged at {threads} threads"
            );
            assert_eq!(
                out.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>(),
                reference.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>(),
                "sssp {sweep:?} mode trace diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn msbfs_bit_identical_across_thread_counts() {
    // Multi-source BFS across every sweep mode: distances must match
    // the 1-thread full-sweep oracle, and within each mode every work
    // counter must be invariant to the thread count.
    let (g, _) = graph();
    let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let r = slimsell::graph::stats::sample_roots(&g, 4);
    let roots: [VertexId; 4] = [r[0], r[1 % r.len()], r[2 % r.len()], r[3 % r.len()]];
    let full_opts = MsBfsOptions::default().sweep(SweepMode::Full);
    let oracle = with_threads(1, || multi_bfs_with::<_, 8, 4>(&m, &roots, &full_opts));
    assert!(oracle.completed, "msbfs oracle hit its iteration cap");
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let opts = MsBfsOptions::default().sweep(sweep);
        let reference = with_threads(1, || multi_bfs_with::<_, 8, 4>(&m, &roots, &opts));
        assert_eq!(
            reference.dist, oracle.dist,
            "msbfs {sweep:?} distances diverged from the full-sweep oracle"
        );
        assert_eq!(reference.iterations, oracle.iterations, "msbfs {sweep:?} sweep count");
        for threads in THREAD_COUNTS {
            let out = with_threads(threads, || multi_bfs_with::<_, 8, 4>(&m, &roots, &opts));
            assert_eq!(
                out.dist, reference.dist,
                "msbfs {sweep:?} distances diverged at {threads} threads"
            );
            assert_eq!(
                out.iterations, reference.iterations,
                "msbfs {sweep:?} iteration count diverged at {threads} threads"
            );
            assert_eq!(
                out.stats.total_cells(),
                reference.stats.total_cells(),
                "msbfs {sweep:?} cell counters diverged at {threads} threads"
            );
            assert_eq!(
                out.stats.total_col_steps(),
                reference.stats.total_col_steps(),
                "msbfs {sweep:?} column steps diverged at {threads} threads"
            );
            assert_eq!(
                out.stats.total_activations(),
                reference.stats.total_activations(),
                "msbfs {sweep:?} activation counters diverged at {threads} threads"
            );
            assert_eq!(
                out.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>(),
                reference.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>(),
                "msbfs {sweep:?} mode trace diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn components_bit_identical_across_thread_counts() {
    // Connected components under the process-default sweep mode (CI
    // runs every `SLIMSELL_SWEEP`): labels, count, sweep count and every
    // per-iteration counter must equal the 1-thread run's. A sparse
    // Erdős–Rényi graph gives many components and a multi-sweep run.
    let g = erdos_renyi_gnp(2048, 1.5 / 2048.0, 11);
    let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let reference = with_threads(1, || connected_components(&m));
    assert!(reference.count > 1 && reference.iterations > 2, "components case is trivial");
    for threads in THREAD_COUNTS {
        let out = with_threads(threads, || connected_components(&m));
        assert_eq!(out.label, reference.label, "components labels diverged at {threads} threads");
        assert_eq!(out.count, reference.count, "components count diverged at {threads} threads");
        assert_eq!(
            out.iterations, reference.iterations,
            "components sweep count diverged at {threads} threads"
        );
        assert_eq!(
            counter_trace(&out.stats),
            counter_trace(&reference.stats),
            "components counters diverged at {threads} threads"
        );
    }
}

/// Every per-iteration counter of a run (all of [`IterStats`] but the
/// wall time), in iteration order.
fn counter_trace(stats: &RunStats) -> Vec<String> {
    stats
        .iters
        .iter()
        .map(|i| format!("{:?}", IterStats { elapsed: Default::default(), ..*i }))
        .collect()
}

/// Asserts the run swept worklists on both sides of the inline bound:
/// one whose cells are exactly below it (nothing skipped, so the
/// counted cells are the sweep's whole price) and one at or above it.
fn assert_straddles(label: &str, stats: &RunStats) {
    let worklist = || stats.iters.iter().filter(|i| i.sweep_mode == ExecutedSweep::Worklist);
    assert!(
        worklist().any(|i| i.chunks_skipped == 0 && i.cells < INLINE_SWEEP_CELLS),
        "{label}: no worklist sweep ran inline"
    );
    assert!(
        worklist().any(|i| i.cells >= INLINE_SWEEP_CELLS),
        "{label}: no worklist sweep was tiled"
    );
}

/// The thread counts of the straddling case, 1 (the oracle) included.
const STRADDLE_THREADS: [usize; 3] = [1, 2, 4];

/// The straddling case for one BFS semiring: worklist BFS from `root`.
fn straddling_bfs<S: Semiring>(g: &CsrGraph, m: &SlimSellMatrix<8>, root: VertexId, label: &str) {
    let opts = BfsOptions::default().sweep(SweepMode::Worklist);
    let reference = with_threads(1, || BfsEngine::run::<_, S, 8>(m, root, &opts));
    assert_eq!(reference.dist, serial_bfs(g, root).dist, "{label}: oracle wrong");
    assert_straddles(label, &reference.stats);
    for t in STRADDLE_THREADS {
        let out = with_threads(t, || BfsEngine::run::<_, S, 8>(m, root, &opts));
        assert_eq!(out.dist, reference.dist, "{label}: dist at {t} threads");
        assert_eq!(out.parent, reference.parent, "{label}: parents at {t} threads");
        assert_eq!(
            counter_trace(&out.stats),
            counter_trace(&reference.stats),
            "{label}: counters at {t} threads"
        );
    }
}

#[test]
fn sweeps_straddling_the_inline_bound_bit_identical() {
    // Worklist sweeps below INLINE_SWEEP_CELLS run inline and the rest
    // tile, so a run whose sweeps straddle the bound mixes both paths
    // within one traversal. Outputs and every per-iteration counter
    // must still match the 1-thread oracle at every thread count.
    let g = slimsell::gen::erdos_renyi_gnm(1 << 14, 1 << 16, 3);
    let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];

    straddling_bfs::<TropicalSemiring>(&g, &m, root, "tropical");
    straddling_bfs::<SelMaxSemiring>(&g, &m, root, "sel-max");

    let wg = slimsell::graph::weighted::synthetic_weighted_twin(&g);
    let wm = WeightedSellCSigma::<8>::build(&wg, wg.num_vertices());
    let opts = SsspOptions::default().sweep(SweepMode::Worklist);
    let reference = with_threads(1, || sssp_with(&wm, root, &opts));
    assert_straddles("sssp", &reference.stats);
    for t in STRADDLE_THREADS {
        let out = with_threads(t, || sssp_with(&wm, root, &opts));
        assert_eq!(bits32(&out.dist), bits32(&reference.dist), "sssp: dist at {t} threads");
        assert_eq!(out.iterations, reference.iterations, "sssp: sweeps at {t} threads");
        assert_eq!(
            counter_trace(&out.stats),
            counter_trace(&reference.stats),
            "sssp: counters at {t} threads"
        );
    }

    let roots: [VertexId; 8] =
        slimsell::graph::stats::sample_roots(&g, 8).try_into().expect("eight roots");
    let opts = MsBfsOptions::default().sweep(SweepMode::Worklist);
    let reference = with_threads(1, || multi_bfs_with::<_, 8, 8>(&m, &roots, &opts));
    assert!(reference.completed, "msbfs oracle hit its iteration cap");
    assert_straddles("msbfs", &reference.stats);
    for t in STRADDLE_THREADS {
        let out = with_threads(t, || multi_bfs_with::<_, 8, 8>(&m, &roots, &opts));
        assert_eq!(out.dist, reference.dist, "msbfs: dist at {t} threads");
        assert_eq!(
            counter_trace(&out.stats),
            counter_trace(&reference.stats),
            "msbfs: counters at {t} threads"
        );
    }
}

#[test]
fn betweenness_bit_identical_across_thread_counts() {
    // Sampled betweenness: forward sweeps are tiled, the backward
    // accumulation is sequential by design — f64 outputs must still be
    // byte-equal at every thread count.
    let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 5);
    let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let r = slimsell::graph::stats::sample_roots(&g, 4);
    let oracle = with_threads(1, || {
        betweenness_from_sources_with(&m, &r, &BetweennessOptions::default().sweep(SweepMode::Full))
    });
    assert!(oracle.iter().any(|&b| b > 0.0), "all-zero centralities; test is vacuous");
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let opts = BetweennessOptions::default().sweep(sweep);
        let reference = with_threads(1, || betweenness_from_sources_with(&m, &r, &opts));
        assert_eq!(
            bits64(&reference),
            bits64(&oracle),
            "betweenness {sweep:?} diverged from the full-sweep oracle"
        );
        for threads in THREAD_COUNTS {
            let out = with_threads(threads, || betweenness_from_sources_with(&m, &r, &opts));
            assert_eq!(
                bits64(&out),
                bits64(&reference),
                "betweenness {sweep:?} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn serve_concurrent_clients_bit_identical() {
    // The serving layer must not trade determinism for throughput: the
    // same root always yields the same distances no matter how many
    // client threads race to submit, how the admission queue slices the
    // stream into batches, or which lanes a query lands on. The kernel
    // thread-count axis is exercised by running this whole suite under
    // the SLIMSELL_THREADS CI matrix.
    let (g, _) = graph();
    let n = g.num_vertices();
    let m = Arc::new(SlimSellMatrix::<8>::build(&g, n));
    let roots: Vec<VertexId> =
        slimsell::graph::stats::sample_roots(&g, 8).into_iter().cycle().take(32).collect();
    // Standalone single-source oracle per distinct root.
    let oracle: Vec<Vec<u32>> = roots
        .iter()
        .map(|&r| BfsEngine::run::<_, TropicalSemiring, 8>(&*m, r, &BfsOptions::default()).dist)
        .collect();
    for clients in [2usize, 8] {
        let server = BfsServer::<_, 8, 4>::start(Arc::clone(&m), ServeOptions::default());
        let mut results: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = &server;
                    let roots = &roots;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for k in (c..roots.len()).step_by(clients) {
                            let out = server.submit(roots[k]).wait().expect("query failed");
                            got.push((k, out.dist));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let stats = server.shutdown().stats;
        results.sort_by_key(|(k, _)| *k);
        assert_eq!(results.len(), roots.len(), "{clients} clients: lost queries");
        for (k, dist) in &results {
            assert_eq!(
                dist, &oracle[*k],
                "{clients} clients: query {k} (root {}) diverged from standalone BFS",
                roots[*k]
            );
        }
        assert_eq!(stats.submitted, roots.len() as u64, "{clients} clients: submitted");
        assert_eq!(stats.served, roots.len() as u64, "{clients} clients: served");
        assert_eq!(stats.submitted, stats.resolved(), "{clients} clients: stats incoherent");
        assert_eq!(stats.coalesced, stats.submitted, "{clients} clients: coalesced");
        assert!(stats.batches >= roots.len() as u64 / 4, "{clients} clients: batch count");
    }
}

#[test]
fn generated_graphs_identical_across_thread_counts() {
    // Kronecker generation itself must not depend on the thread count
    // (fixed block seeding), or no cross-thread comparison makes sense.
    let reference = with_threads(1, || kronecker(9, 8.0, KroneckerParams::GRAPH500, 3));
    for threads in [2, 8] {
        let g = with_threads(threads, || kronecker(9, 8.0, KroneckerParams::GRAPH500, 3));
        assert_eq!(g, reference, "kronecker generation diverged at {threads} threads");
    }
}
