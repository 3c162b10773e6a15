//! Property-based invariants over random graphs.

use proptest::prelude::*;
use slimsell::core::storage::StorageComparison;
use slimsell::prelude::*;

/// Strategy: a random undirected simple graph with 1..=60 vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..=60).prop_flat_map(|n| {
        let max_edges = (n * n).min(400);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_edges)
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every semiring × representation matches the serial reference on
    /// arbitrary graphs from an arbitrary root.
    #[test]
    fn bfs_matches_reference(g in arb_graph(), root_sel in 0usize..60, sigma_sel in 0usize..3) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let sigma = [1, 8, n][sigma_sel].max(1);
        let reference = serial_bfs(&g, root);
        let slim = SlimSellMatrix::<4>::build(&g, sigma);
        macro_rules! check {
            ($sem:ty) => {{
                let out = BfsEngine::run::<_, $sem, 4>(&slim, root, &BfsOptions::default());
                prop_assert_eq!(&out.dist, &reference.dist, "{}", <$sem>::NAME);
                if let Some(p) = &out.parent {
                    prop_assert!(validate_parents(&g, root, &out.dist, p).is_ok());
                }
            }};
        }
        check!(TropicalSemiring);
        check!(BooleanSemiring);
        check!(RealSemiring);
        check!(SelMaxSemiring);
    }

    /// SlimWork and SlimChunk never change the output.
    #[test]
    fn slimwork_slimchunk_output_invariant(g in arb_graph(), root_sel in 0usize..60) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let slim = SlimSellMatrix::<8>::build(&g, n);
        let base = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &BfsOptions::plain());
        for opts in [
            BfsOptions::default(),
            BfsOptions { slimchunk: Some(2), ..BfsOptions::default() },
            BfsOptions { slimchunk: Some(3), slimwork: false, ..BfsOptions::default() },
        ] {
            let out = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &opts);
            prop_assert_eq!(&out.dist, &base.dist);
        }
    }

    /// Worklist BFS equals full-sweep BFS exactly on arbitrary graphs:
    /// same distances, parents, and iteration count for every semiring,
    /// with never more column steps, and the same again under
    /// SlimChunk. The worklist engine must be a pure work-avoidance
    /// transformation.
    #[test]
    fn worklist_equals_full_sweep(g in arb_graph(), root_sel in 0usize..60, sigma_sel in 0usize..3) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let sigma = [1, 8, n][sigma_sel].max(1);
        let slim = SlimSellMatrix::<4>::build(&g, sigma);
        let full_opts = BfsOptions::default().sweep(SweepMode::Full);
        let wl_opts = BfsOptions::default().sweep(SweepMode::Worklist);
        macro_rules! check {
            ($sem:ty) => {{
                let full = BfsEngine::run::<_, $sem, 4>(&slim, root, &full_opts);
                let wl = BfsEngine::run::<_, $sem, 4>(&slim, root, &wl_opts);
                prop_assert_eq!(&wl.dist, &full.dist, "{} dist", <$sem>::NAME);
                prop_assert_eq!(&wl.parent, &full.parent, "{} parents", <$sem>::NAME);
                prop_assert_eq!(wl.stats.num_iterations(), full.stats.num_iterations(),
                    "{} iterations", <$sem>::NAME);
                prop_assert!(wl.stats.total_col_steps() <= full.stats.total_col_steps(),
                    "{} did more work on the worklist", <$sem>::NAME);
            }};
        }
        check!(TropicalSemiring);
        check!(BooleanSemiring);
        check!(RealSemiring);
        check!(SelMaxSemiring);
        // SlimChunk + worklist composes the same way.
        let sc_full = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim, root, &BfsOptions { slimchunk: Some(2), ..full_opts });
        let sc_wl = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim, root, &BfsOptions { slimchunk: Some(2), ..wl_opts });
        prop_assert_eq!(&sc_wl.dist, &sc_full.dist, "slimchunk+worklist dist");
        prop_assert_eq!(sc_wl.stats.num_iterations(), sc_full.stats.num_iterations());
        prop_assert!(sc_wl.stats.total_col_steps() <= sc_full.stats.total_col_steps());
    }

    /// Adaptive BFS is bit-identical to the 1-thread full-sweep oracle
    /// on arbitrary graphs: same distances, parents, and iteration
    /// count for every semiring, with column steps bounded by the
    /// worse pure mode — the switching policy must be invisible in the
    /// outputs whatever the frontier shape does around the crossover.
    #[test]
    fn adaptive_equals_one_thread_full_sweep_oracle(
        g in arb_graph(), root_sel in 0usize..60, sigma_sel in 0usize..3
    ) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let sigma = [1, 8, n][sigma_sel].max(1);
        let slim = SlimSellMatrix::<4>::build(&g, sigma);
        let pin1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let full_opts = BfsOptions::default().sweep(SweepMode::Full);
        let wl_opts = BfsOptions::default().sweep(SweepMode::Worklist);
        let ad_opts = BfsOptions::default().sweep(SweepMode::Adaptive);
        macro_rules! check {
            ($sem:ty) => {{
                let oracle = pin1.install(||
                    BfsEngine::run::<_, $sem, 4>(&slim, root, &full_opts));
                let wl = BfsEngine::run::<_, $sem, 4>(&slim, root, &wl_opts);
                let ad = BfsEngine::run::<_, $sem, 4>(&slim, root, &ad_opts);
                prop_assert_eq!(&ad.dist, &oracle.dist, "{} dist", <$sem>::NAME);
                prop_assert_eq!(&ad.parent, &oracle.parent, "{} parents", <$sem>::NAME);
                prop_assert_eq!(ad.stats.num_iterations(), oracle.stats.num_iterations(),
                    "{} iterations", <$sem>::NAME);
                prop_assert!(
                    ad.stats.total_col_steps()
                        <= oracle.stats.total_col_steps().max(wl.stats.total_col_steps()),
                    "{} adaptive exceeded the worse pure mode", <$sem>::NAME);
            }};
        }
        check!(TropicalSemiring);
        check!(BooleanSemiring);
        check!(RealSemiring);
        check!(SelMaxSemiring);
        // SlimChunk + adaptive composes the same way.
        let sc_oracle = pin1.install(|| BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim, root, &BfsOptions { slimchunk: Some(2), ..full_opts }));
        let sc_ad = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim, root, &BfsOptions { slimchunk: Some(2), ..ad_opts });
        prop_assert_eq!(&sc_ad.dist, &sc_oracle.dist, "slimchunk+adaptive dist");
        prop_assert_eq!(sc_ad.stats.num_iterations(), sc_oracle.stats.num_iterations());
    }

    /// Worklist and adaptive SSSP reproduce the 1-thread full-sweep
    /// oracle's potentials *to the f32 bit* on arbitrary weighted
    /// graphs, in the same number of relaxation sweeps and never with
    /// more relaxation work — label-correcting convergence (labels
    /// improving after first becoming finite) must keep chunks listed
    /// until they truly settle.
    #[test]
    fn sssp_sweep_modes_equal_one_thread_full_oracle(
        g in arb_graph(), root_sel in 0usize..60, sigma_sel in 0usize..3
    ) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let sigma = [1, 8, n][sigma_sel].max(1);
        let wg = slimsell::graph::weighted::synthetic_weighted_twin(&g);
        let m = WeightedSellCSigma::<4>::build(&wg, sigma);
        let pin1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let full = SsspOptions::default().sweep(SweepMode::Full);
        let oracle = pin1.install(|| sssp_with(&m, root, &full));
        let oracle_bits: Vec<u32> = oracle.dist.iter().map(|x| x.to_bits()).collect();
        for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
            let out = sssp_with(&m, root, &SsspOptions::default().sweep(sweep));
            let bits: Vec<u32> = out.dist.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&bits, &oracle_bits, "{:?} potentials diverged", sweep);
            prop_assert_eq!(out.iterations, oracle.iterations, "{:?} sweep count", sweep);
            prop_assert!(out.stats.total_col_steps() <= oracle.stats.total_col_steps(),
                "{:?} did more relaxation work than the full sweep", sweep);
        }
    }

    /// The Sell structure stores exactly the graph's adjacency under any
    /// sorting scope (representation round-trip).
    #[test]
    fn structure_roundtrip(g in arb_graph(), sigma in 1usize..70) {
        let s = slimsell::core::SellStructure::<4>::build(&g, sigma);
        prop_assert!(s.verify_against(&g).is_ok());
    }

    /// Storage formulas of Table III match measured cells, and SlimSell
    /// is always at most half of Sell-C-σ plus the index arrays.
    #[test]
    fn storage_formulas(g in arb_graph(), sigma in 1usize..70) {
        let c = StorageComparison::measure::<8>(&g, sigma);
        let nc = g.num_vertices().div_ceil(8);
        prop_assert_eq!(c.slimsell, 2 * c.m + c.padding + 2 * nc);
        prop_assert_eq!(c.sell_c_sigma, 2 * (2 * c.m + c.padding) + 2 * nc);
        prop_assert_eq!(c.al, 2 * c.m + c.n);
        prop_assert_eq!(c.csr, 4 * c.m + c.n);
        // SlimSell saves exactly the val array (2m + P cells).
        prop_assert_eq!(c.sell_c_sigma - c.slimsell, 2 * c.m + c.padding);
    }

    /// Sorting (larger σ) never increases padding.
    #[test]
    fn sorting_monotone_padding(g in arb_graph()) {
        let n = g.num_vertices();
        let p1 = SlimSellMatrix::<4>::build(&g, 1).structure().padding_cells();
        let pn = SlimSellMatrix::<4>::build(&g, n).structure().padding_cells();
        prop_assert!(pn <= p1, "full sort increased padding: {} > {}", pn, p1);
    }

    /// DP produces a valid parent array from engine distances.
    #[test]
    fn dp_valid(g in arb_graph(), root_sel in 0usize..60) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let slim = SlimSellMatrix::<4>::build(&g, n);
        let out = BfsEngine::run::<_, BooleanSemiring, 4>(&slim, root, &BfsOptions::default());
        let p = dp_transform(&g, &out.dist, root);
        prop_assert!(validate_parents(&g, root, &out.dist, &p).is_ok());
    }

    /// Work accounting: measured cells equal C × column-steps, and the
    /// no-SlimWork engine touches every cell of the structure each
    /// iteration.
    #[test]
    fn work_accounting(g in arb_graph(), root_sel in 0usize..60) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let slim = SlimSellMatrix::<4>::build(&g, n);
        let out = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, root, &BfsOptions::plain());
        let per_iter = slim.structure().total_cells() as u64;
        for it in &out.stats.iters {
            prop_assert_eq!(it.cells, per_iter);
            prop_assert_eq!(it.cells, it.col_steps * 4);
        }
    }

    /// The SIMT engine is output-equivalent to the CPU engine.
    #[test]
    fn simt_equiv(g in arb_graph(), root_sel in 0usize..60) {
        let n = g.num_vertices();
        let root = (root_sel % n) as VertexId;
        let slim = SlimSellMatrix::<32>::build(&g, n);
        let cpu = BfsEngine::run::<_, SelMaxSemiring, 32>(&slim, root, &BfsOptions::default());
        let sim = run_simt_bfs::<_, SelMaxSemiring, 32>(&slim, root, &SimtConfig::default(), &SimtOptions::default());
        prop_assert_eq!(cpu.dist, sim.dist);
        prop_assert_eq!(cpu.parent, sim.parent);
    }

    /// The tiled (multithreaded) PageRank is bit-identical to the
    /// sequential fallback on arbitrary graphs: scores, the L1
    /// residual trajectory's final value, and the iteration count.
    /// The residual guards convergence, so any tile-boundary
    /// dependence would change `iterations` first.
    #[test]
    fn pagerank_tiled_matches_sequential(g in arb_graph()) {
        let m = SlimSellMatrix::<4>::build(&g, g.num_vertices());
        let opts = PageRankOptions::default();
        let pin = |n: usize| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap();
        let seq = pin(1).install(|| pagerank(&m, &opts));
        for threads in [2usize, 4, 8] {
            let par = pin(threads).install(|| pagerank(&m, &opts));
            let seq_bits: Vec<u32> = seq.scores.iter().map(|x| x.to_bits()).collect();
            let par_bits: Vec<u32> = par.scores.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(seq_bits, par_bits, "scores diverged at {} threads", threads);
            prop_assert_eq!(seq.residual.to_bits(), par.residual.to_bits(),
                "residual diverged at {} threads", threads);
            prop_assert_eq!(seq.iterations, par.iterations,
                "iteration count diverged at {} threads", threads);
        }
    }

    /// Seeding a worklist by walking the seed chunks' own columns gives
    /// exactly the lane-filtered expansion of the materialized
    /// dependency graph: the same sorted worklist and the same
    /// activation count, for every chunk height, arbitrary (duplicate,
    /// partial, stray-bit) changed-lane masks and an optional vertex
    /// mask. One `ActivationState` is reused across the chunk heights,
    /// so stale stamps from a previous shape must not leak.
    #[test]
    fn column_walk_seed_matches_dependency_graph_oracle(
        g in arb_graph(),
        sigma_sel in 0usize..3,
        seeds in proptest::collection::vec((0usize..64, 0u64..(1u64 << 32), 0usize..3), 0..12),
        masked in 0usize..2,
        members in proptest::collection::vec(0usize..60, 0..40),
    ) {
        use slimsell::core::worklist::{ActivationState, ChunkDepGraph};
        use slimsell::core::SellStructure;
        use std::collections::{BTreeMap, BTreeSet};
        let n = g.num_vertices();
        let sigma = [1, 8, n][sigma_sel].max(1);
        let mut act = ActivationState::new();
        macro_rules! check {
            ($c:literal) => {{
                let s = SellStructure::<$c>::build(&g, sigma);
                let nc = s.num_chunks();
                let dep = ChunkDepGraph::build(nc, s.cs(), s.cl(), s.col(), $c);
                let vmask = (masked == 1)
                    .then(|| VertexMask::from_permuted(n, $c, members.iter().map(|&v| v % n)));
                // Dense, single-lane and sparse changed-lane masks.
                let lanes = |m: u64, kind: usize| match kind {
                    0 => m as u32,
                    1 => 1u32 << (m % 32),
                    _ => (m as u32) & (m as u32).rotate_left(11) & (m as u32).rotate_left(19),
                };
                let mut list: Vec<(u32, u32)> =
                    seeds.iter().map(|&(j, m, k)| ((j % nc) as u32, lanes(m, k))).collect();
                let mut merged: BTreeMap<u32, u32> = BTreeMap::new();
                for &(j, m) in &list {
                    *merged.entry(j).or_default() |= m;
                }
                let (mut want, mut want_acts) = (BTreeSet::new(), 0u64);
                for (&j, &m) in &merged {
                    let deps = dep.dependents(j as usize).iter().zip(dep.edge_masks(j as usize));
                    for (&t, &em) in deps {
                        let masked_out = vmask.as_ref().is_some_and(|vm| vm.allowed_real(t as usize) == 0);
                        if em & m != 0 && (t == j || !masked_out) {
                            want_acts += 1;
                            want.insert(t);
                        }
                    }
                }
                let got = act.seed(s.column_slab(), &mut list, vmask.as_ref());
                let want: Vec<u32> = want.into_iter().collect();
                prop_assert_eq!(act.worklist(), &want[..], "C={} sigma={}", $c, sigma);
                prop_assert_eq!(got, want_acts, "C={} sigma={}", $c, sigma);
            }};
        }
        check!(4);
        check!(8);
        check!(16);
    }
}
