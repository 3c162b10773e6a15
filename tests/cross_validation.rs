//! Cross-validation: every BFS implementation in the workspace must
//! agree with the serial textbook reference on every graph family.

use slimsell::baseline::{dirop_bfs, spmspv_bfs, trad_bfs, Dedup, DirOptBfsOptions};
use slimsell::core::descriptor::StepMode;
use slimsell::prelude::*;

/// Debug builds run the identical configuration matrix on smaller
/// graphs (unoptimized matrix builds dominate the suite's runtime);
/// release builds keep the full sizes.
const DEBUG_SCALE: bool = cfg!(debug_assertions);

fn families() -> Vec<(&'static str, CsrGraph)> {
    let (kron_scale, shift, er_n) = if DEBUG_SCALE { (9, 10, 400) } else { (10, 8, 800) };
    vec![
        ("kronecker", kronecker(kron_scale, 8.0, KroneckerParams::GRAPH500, 1)),
        ("erdos-renyi", erdos_renyi_gnp(er_n, 10.0 / er_n as f64, 2)),
        ("road", standin("rca", shift, 3)),
        ("web-chain", standin("ndm", shift, 4)),
        ("social", standin("epi", shift - 1, 5)),
        ("path", GraphBuilder::new(100).edges((0..99u32).map(|v| (v, v + 1))).build()),
        ("star", GraphBuilder::new(65).edges((1..65u32).map(|v| (0, v))).build()),
    ]
}

fn root_of(g: &CsrGraph) -> VertexId {
    slimsell::graph::stats::sample_roots(g, 1)[0]
}

#[test]
fn engine_matrix_all_semirings_reps_lanes() {
    for (name, g) in families() {
        let root = root_of(&g);
        let reference = serial_bfs(&g, root);
        let n = g.num_vertices();
        macro_rules! check {
            ($sem:ty, $c:literal, $sigma:expr) => {{
                let slim = SlimSellMatrix::<$c>::build(&g, $sigma);
                let out = BfsEngine::run::<_, $sem, $c>(&slim, root, &BfsOptions::default());
                assert_eq!(
                    out.dist,
                    reference.dist,
                    "{name} slimsell {} C={} sigma={}",
                    <$sem>::NAME,
                    $c,
                    $sigma
                );
                if let Some(p) = &out.parent {
                    validate_parents(&g, root, &out.dist, p).unwrap();
                }
                let sell = SellCSigma::<$c>::build(&g, $sigma, <$sem>::PAD);
                let out = BfsEngine::run::<_, $sem, $c>(&sell, root, &BfsOptions::default());
                assert_eq!(out.dist, reference.dist, "{name} sellcs {} C={}", <$sem>::NAME, $c);
            }};
        }
        for sigma in [1usize, 32, n] {
            check!(TropicalSemiring, 4, sigma);
            check!(BooleanSemiring, 8, sigma);
            check!(RealSemiring, 16, sigma);
            check!(SelMaxSemiring, 32, sigma);
        }
        // Rotate semirings over lane widths for coverage.
        check!(TropicalSemiring, 32, n);
        check!(SelMaxSemiring, 4, n);
        check!(BooleanSemiring, 16, 32);
        check!(RealSemiring, 8, 1);
    }
}

#[test]
fn engine_option_combinations() {
    for (name, g) in families() {
        let root = root_of(&g);
        let reference = serial_bfs(&g, root);
        let n = g.num_vertices();
        let slim = SlimSellMatrix::<8>::build(&g, n);
        for slimwork in [false, true] {
            for slimchunk in [None, Some(1), Some(4)] {
                for schedule in [Schedule::Static, Schedule::Dynamic] {
                    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
                        let opts = BfsOptions { slimwork, slimchunk, ..Default::default() }
                            .sweep(sweep)
                            .schedule(schedule);
                        let out = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &opts);
                        assert_eq!(
                            out.dist, reference.dist,
                            "{name} slimwork={slimwork} slimchunk={slimchunk:?} {schedule:?} \
                             sweep={sweep:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn baselines_agree() {
    for (name, g) in families() {
        let root = root_of(&g);
        let reference = serial_bfs(&g, root);
        let trad = trad_bfs(&g, root);
        assert_eq!(trad.dist, reference.dist, "{name} trad");
        validate_parents(&g, root, &trad.dist, &trad.parent).unwrap();
        let dir = dirop_bfs(&g, root, &DirOptBfsOptions::default());
        assert_eq!(dir.dist, reference.dist, "{name} dirop");
        validate_parents(&g, root, &dir.dist, &dir.parent).unwrap();
        for dedup in [Dedup::NoSort, Dedup::MergeSort, Dedup::RadixSort] {
            assert_eq!(spmspv_bfs(&g, root, dedup).dist, reference.dist, "{name} spmspv {dedup:?}");
        }
    }
}

#[test]
fn algebraic_diropt_agrees() {
    for (name, g) in families() {
        let root = root_of(&g);
        let reference = serial_bfs(&g, root);
        let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let out = run_descriptor(&slim, root, &Descriptor::default());
        assert_eq!(out.bfs.dist, reference.dist, "{name} algebraic dirop");
    }
}

#[test]
fn descriptor_pull_reproduces_engine_counters() {
    // An unmasked all-pull descriptor run is the tropical BFS engine
    // with a frontier recovered after every step: distances, iteration
    // count and every per-iteration work and worklist counter must be
    // bit-identical on every family and in every sweep mode.
    for (name, g) in families() {
        let root = root_of(&g);
        let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let engine = BfsEngine::run::<_, TropicalSemiring, 8>(
                &slim,
                root,
                &BfsOptions::default().sweep(sweep),
            );
            let desc = Descriptor::default().direction(DirectionPolicy::Pull).sweep(sweep);
            let out = run_descriptor(&slim, root, &desc);
            assert_eq!(out.bfs.dist, engine.dist, "{name} {sweep:?} dist");
            assert!(out.modes.iter().all(|&m| m == StepMode::BottomUp), "{name} {sweep:?}");
            assert_eq!(
                out.bfs.stats.num_iterations(),
                engine.stats.num_iterations(),
                "{name} {sweep:?} iterations"
            );
            for (k, (a, b)) in out.bfs.stats.iters.iter().zip(&engine.stats.iters).enumerate() {
                let ctx = format!("{name} {sweep:?} iter {k}");
                assert_eq!(a.col_steps, b.col_steps, "{ctx} col_steps");
                assert_eq!(a.cells, b.cells, "{ctx} cells");
                assert_eq!(a.activations, b.activations, "{ctx} activations");
                assert_eq!(a.worklist_len, b.worklist_len, "{ctx} worklist_len");
                assert_eq!(a.chunks_processed, b.chunks_processed, "{ctx} chunks_processed");
                assert_eq!(a.changed_chunks, b.changed_chunks, "{ctx} changed_chunks");
            }
        }
    }
}

#[test]
fn sssp_is_the_tropical_engine() {
    // SSSP is the tropical engine with SlimWork off, run over a matrix
    // whose `val` holds the weights. On the unit-weight twin of every
    // family it must reproduce the engine's BFS over SlimSell exactly:
    // the same distances and every per-iteration counter, in every
    // sweep mode.
    use slimsell::core::IterStats;
    let counters = |it: &IterStats| {
        (
            it.sweep_mode,
            it.chunks_processed,
            it.chunks_skipped,
            it.chunks_not_on_worklist,
            it.worklist_len,
            it.activations,
            it.changed_chunks,
            it.col_steps,
            it.cells,
            it.active_cells,
            it.frontier_probes,
            it.changed,
        )
    };
    for (name, g) in families() {
        let root = root_of(&g);
        let n = g.num_vertices();
        let unit = WeightedCsrGraph::from_edges(n, g.edges().map(|(u, v)| (u, v, 1.0)));
        let w = WeightedSellCSigma::<8>::build(&unit, n);
        let slim = SlimSellMatrix::<8>::build(&g, n);
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let bfs = BfsOptions { slimwork: false, ..Default::default() }.sweep(sweep);
            let engine = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &bfs);
            let out = sssp_with(&w, root, &SsspOptions::default().sweep(sweep));
            let hops: Vec<u32> = out
                .dist
                .iter()
                .map(|&x| if x.is_finite() { x as u32 } else { UNREACHABLE })
                .collect();
            assert_eq!(hops, engine.dist, "{name} {sweep:?} dist");
            assert_eq!(out.iterations, engine.stats.num_iterations(), "{name} {sweep:?}");
            for (k, (a, b)) in out.stats.iters.iter().zip(&engine.stats.iters).enumerate() {
                assert_eq!(counters(a), counters(b), "{name} {sweep:?} iter {k}");
            }
        }
    }
}

#[test]
fn dp_transform_valid_on_all_families() {
    for (name, g) in families() {
        let root = root_of(&g);
        let r = serial_bfs(&g, root);
        let p = dp_transform(&g, &r.dist, root);
        validate_parents(&g, root, &r.dist, &p).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn msbfs_all_sweep_modes_agree() {
    // The batched multi-source kernel under every sweep strategy: each
    // lane must match the serial single-source reference for its root,
    // on every graph family.
    use slimsell::core::{multi_bfs_with, MsBfsOptions};
    for (name, g) in families() {
        let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let r = slimsell::graph::stats::sample_roots(&g, 4);
        let roots: [VertexId; 4] = [r[0], r[1 % r.len()], r[2 % r.len()], r[3 % r.len()]];
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let opts = MsBfsOptions::default().sweep(sweep);
            let out = multi_bfs_with::<_, 8, 4>(&slim, &roots, &opts);
            assert!(out.completed, "{name} msbfs {sweep:?} hit its iteration cap");
            for (lane, &root) in roots.iter().enumerate() {
                assert_eq!(
                    out.dist[lane],
                    serial_bfs(&g, root).dist,
                    "{name} msbfs {sweep:?} lane {lane} root {root}"
                );
            }
        }
    }
}

#[test]
fn betweenness_all_sweep_modes_agree() {
    // Betweenness forward sweeps ride the same sweep substrate; the
    // sampled centralities must be bit-identical across modes.
    use slimsell::core::{betweenness_from_sources_with, BetweennessOptions};
    let mut covered = 0usize;
    for (name, g) in families() {
        let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let sources = slimsell::graph::stats::sample_roots(&g, 4);
        // Families whose walk counts overflow the f32 exact-integer
        // range are rejected by the kernel (by design, for *every*
        // sweep mode equally); skip those and compare the rest.
        let Ok(full) = std::panic::catch_unwind(|| {
            betweenness_from_sources_with(
                &slim,
                &sources,
                &BetweennessOptions::default().sweep(SweepMode::Full),
            )
        }) else {
            continue;
        };
        covered += 1;
        for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
            let out = betweenness_from_sources_with(
                &slim,
                &sources,
                &BetweennessOptions::default().sweep(sweep),
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&full), "{name} betweenness {sweep:?}");
        }
    }
    assert!(covered >= 3, "only {covered} families fit exact BC; test is vacuous");
}

#[test]
fn served_queries_agree_with_serial_reference() {
    // The serving layer on every graph family: batched answers must
    // equal the serial reference, under both sweep strategies the
    // server can be configured with.
    use std::sync::Arc;
    for (name, g) in families() {
        let slim = Arc::new(SlimSellMatrix::<8>::build(&g, g.num_vertices()));
        for sweep in [SweepMode::Full, SweepMode::Adaptive] {
            let opts = ServeOptions::default().sweep(sweep);
            let server = BfsServer::<_, 8, 4>::start(Arc::clone(&slim), opts);
            let roots = slimsell::graph::stats::sample_roots(&g, 6);
            let handles: Vec<_> = roots.iter().map(|&r| server.submit(r)).collect();
            for (h, &root) in handles.into_iter().zip(&roots) {
                let out = h.wait().expect("serve query failed");
                assert_eq!(
                    out.dist,
                    serial_bfs(&g, root).dist,
                    "{name} serve {sweep:?} root {root}"
                );
            }
            let stats = server.shutdown().stats;
            assert_eq!(stats.served, roots.len() as u64, "{name} serve {sweep:?}");
            assert_eq!(stats.submitted, stats.resolved(), "{name} serve {sweep:?}");
        }
    }
}

#[test]
fn multiple_roots_per_graph() {
    let g = kronecker(if DEBUG_SCALE { 10 } else { 11 }, 8.0, KroneckerParams::GRAPH500, 9);
    let slim = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    for root in slimsell::graph::stats::sample_roots(&g, 8) {
        let reference = serial_bfs(&g, root);
        let out = BfsEngine::run::<_, BooleanSemiring, 8>(&slim, root, &BfsOptions::default());
        assert_eq!(out.dist, reference.dist, "root {root}");
    }
}
