//! Masked-kernel suite: mask-algebra laws, the full-mask ≡ unmasked
//! bit-identity (counters included), masked traversals checked against
//! filtered-subgraph references, and the frontier-probe accounting of
//! the direction-optimized driver.

use proptest::prelude::*;
use slimsell::core::descriptor::StepMode;
use slimsell::prelude::*;
use std::sync::Arc;

/// The filtered-subgraph reference: same vertex count, only edges with
/// both endpoints inside `keep`. Masked traversals must behave exactly
/// as if they ran on this graph.
fn filtered(g: &CsrGraph, keep: &[bool]) -> CsrGraph {
    GraphBuilder::new(g.num_vertices())
        .edges(g.edges().filter(|&(u, v)| keep[u as usize] && keep[v as usize]))
        .build()
}

fn half_mask(g: &CsrGraph, root: VertexId) -> (Vec<bool>, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut keep = vec![false; n];
    keep[..n / 2].fill(true);
    keep[root as usize] = true;
    let ids = (0..n as VertexId).filter(|&v| keep[v as usize]).collect();
    (keep, ids)
}

// ---------------------------------------------------------------- algebra

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mask laws over arbitrary vertex sets: complement involution and
    /// membership, `contains` and `len` agreeing with the per-vertex
    /// booleans, padding lanes always allowed, `allowed_real` exactly
    /// the real-lane restriction of `allowed`.
    #[test]
    fn mask_algebra_laws(
        n in 1usize..=90,
        lanes_sel in 0usize..3,
        a_raw in proptest::collection::vec(0u32..2, 90),
        b_raw in proptest::collection::vec(0u32..2, 90),
    ) {
        let lanes = [4usize, 8, 32][lanes_sel];
        let a_bits: Vec<bool> = a_raw.iter().map(|&x| x != 0).collect();
        let b_bits: Vec<bool> = b_raw.iter().map(|&x| x != 0).collect();
        let build = |bits: &[bool]| {
            let mut m = VertexMask::empty(n, lanes);
            for (v, &b) in bits.iter().enumerate().take(n) {
                if b {
                    m.insert(v);
                }
            }
            m
        };
        let a = build(&a_bits);
        let b = build(&b_bits);
        let words = |m: &VertexMask| (0..m.num_chunks()).map(|i| m.allowed(i)).collect::<Vec<_>>();

        // Involution: ¬¬a = a.
        prop_assert_eq!(words(&a.complement().complement()), words(&a));
        // Membership agrees with the per-vertex booleans.
        for (v, &bit) in a_bits.iter().enumerate().take(n) {
            prop_assert_eq!(a.contains(v), bit);
            prop_assert_eq!(a.complement().contains(v), !bit);
        }
        // Cardinality tracks membership.
        prop_assert_eq!(a.len(), a_bits[..n].iter().filter(|&&x| x).count());
        prop_assert_eq!(a.complement().len(), n - a.len());
        // Padding lanes (beyond n in the last chunk) stay allowed under
        // every operation, and allowed_real strips exactly them.
        let nc = a.num_chunks();
        for m in [&a, &b, &a.complement()] {
            for i in 0..nc {
                let mut real = 0u32;
                for l in 0..lanes {
                    if i * lanes + l < n {
                        real |= 1 << l;
                    }
                }
                let padding = full_pad(lanes) & !real;
                prop_assert_eq!(m.allowed(i) & padding, padding, "padding lane cleared");
                prop_assert_eq!(m.allowed_real(i), m.allowed(i) & real);
            }
        }
    }
}

/// All `lanes` low bits set — the full per-chunk word.
fn full_pad(lanes: usize) -> u32 {
    if lanes >= 32 {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

#[test]
fn insert_remove_round_trip() {
    let mut m = VertexMask::empty(23, 4);
    assert!(m.insert(7));
    assert!(!m.insert(7), "double insert must report no-op");
    assert!(m.contains(7));
    assert_eq!(m.iter().collect::<Vec<_>>(), [7]);
    let full = VertexMask::full(23, 4);
    assert!(full.is_full());
    assert_eq!(full.len(), 23);
    assert_eq!(full.iter().count(), 23);
}

// ------------------------------------------------- full mask ≡ no mask

#[test]
fn full_mask_is_bit_identical_to_unmasked() {
    // A full mask must reproduce the unmasked run bit-for-bit — outputs
    // AND every per-iteration work counter, in every sweep mode. This
    // is the contract that makes masking safe to thread through every
    // kernel unconditionally.
    let g = kronecker(9, 12.0, KroneckerParams::GRAPH500, 21);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let slim = SlimSellMatrix::<8>::build(&g, 64);
    let full = Arc::new(VertexMask::full(g.num_vertices(), 8));
    let trace = |o: &slimsell::core::BfsOutput| {
        o.stats
            .iters
            .iter()
            .map(|i| {
                (
                    i.sweep_mode,
                    i.chunks_processed,
                    i.chunks_skipped,
                    i.chunks_not_on_worklist,
                    i.worklist_len,
                    i.activations,
                    i.changed_chunks,
                    i.col_steps,
                    i.cells,
                    i.active_cells,
                    i.changed,
                )
            })
            .collect::<Vec<_>>()
    };
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let base = BfsOptions::default().sweep(sweep);
        let unmasked = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &base);
        let masked = BfsEngine::run::<_, TropicalSemiring, 8>(
            &slim,
            root,
            &base.clone().mask(Some(Arc::clone(&full))),
        );
        assert_eq!(masked.dist, unmasked.dist, "{sweep:?} dist");
        assert_eq!(masked.parent, unmasked.parent, "{sweep:?} parent");
        assert_eq!(trace(&masked), trace(&unmasked), "{sweep:?} counter trace");
    }
}

// ------------------------------------------- filtered-subgraph oracles

#[test]
fn masked_bfs_matches_filtered_subgraph() {
    for (name, g) in [
        ("kronecker", kronecker(9, 8.0, KroneckerParams::GRAPH500, 13)),
        ("erdos-renyi", erdos_renyi_gnp(500, 8.0 / 500.0, 14)),
        ("path", GraphBuilder::new(120).edges((0..119u32).map(|v| (v, v + 1))).build()),
    ] {
        let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
        let (keep, ids) = half_mask(&g, root);
        let reference = serial_bfs(&filtered(&g, &keep), root);
        let slim = SlimSellMatrix::<8>::build(&g, 32);
        let mask = Arc::new(VertexMask::from_original(slim.structure(), ids));
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let opts = BfsOptions::default().sweep(sweep).mask(Some(Arc::clone(&mask)));
            let out = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &opts);
            assert_eq!(out.dist, reference.dist, "{name} engine {sweep:?}");
            // The descriptor front door must agree on the same subgraph,
            // in both forced directions.
            for dir in [DirectionPolicy::Push, DirectionPolicy::Pull] {
                let desc =
                    Descriptor::default().mask(Arc::clone(&mask)).direction(dir).sweep(sweep);
                let out = run_descriptor(&slim, root, &desc);
                assert_eq!(out.bfs.dist, reference.dist, "{name} descriptor {dir:?} {sweep:?}");
            }
        }
    }
}

#[test]
fn masked_sssp_matches_filtered_subgraph() {
    // The min-plus relaxation under a mask must converge to the exact
    // shortest distances of the filtered subgraph. The synthetic weight
    // of an edge depends only on its endpoints, so the filtered twin
    // carries identical weights on the surviving edges.
    let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 17);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let (keep, ids) = half_mask(&g, root);
    let sub = filtered(&g, &keep);
    let wg = slimsell::graph::weighted::synthetic_weighted_twin(&g);
    let wsub = slimsell::graph::weighted::synthetic_weighted_twin(&sub);
    let m = WeightedSellCSigma::<8>::build(&wg, wg.num_vertices());
    let msub = WeightedSellCSigma::<8>::build(&wsub, wsub.num_vertices());
    let mask = Arc::new(VertexMask::from_original(m.structure(), ids));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let reference = sssp_with(&msub, root, &SsspOptions::default().sweep(sweep));
        let opts = SsspOptions::default().sweep(sweep).mask(Some(Arc::clone(&mask)));
        let out = sssp_with(&m, root, &opts);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.dist), bits(&reference.dist), "sssp {sweep:?}");
    }
}

#[test]
fn root_only_mask_converges_immediately() {
    // A mask containing only the root: no edge survives, the run must
    // terminate after the empty-frontier detection with every other
    // vertex unreachable — in every sweep mode and both directions.
    let g = kronecker(8, 8.0, KroneckerParams::GRAPH500, 19);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let slim = SlimSellMatrix::<8>::build(&g, 32);
    let mask = Arc::new(VertexMask::from_original(slim.structure(), [root]));
    for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
        let opts = BfsOptions::default().sweep(sweep).mask(Some(Arc::clone(&mask)));
        let out = BfsEngine::run::<_, TropicalSemiring, 8>(&slim, root, &opts);
        for (v, &d) in out.dist.iter().enumerate() {
            let expect = if v as VertexId == root { 0 } else { UNREACHABLE };
            assert_eq!(d, expect, "{sweep:?} vertex {v}");
        }
        for dir in [DirectionPolicy::Push, DirectionPolicy::Pull] {
            let desc = Descriptor::default().mask(Arc::clone(&mask)).direction(dir).sweep(sweep);
            let out = run_descriptor(&slim, root, &desc);
            assert!(
                out.bfs.dist.iter().enumerate().all(|(v, &d)| if v as VertexId == root {
                    d == 0
                } else {
                    d == UNREACHABLE
                }),
                "descriptor {dir:?} {sweep:?}"
            );
        }
    }
}

// -------------------------------------------------- frontier recovery

#[test]
fn bottom_up_frontier_probes_drop_on_road_network() {
    // The change-mask frontier recovery: on a high-diameter geometric
    // graph forced into pure bottom-up mode, worklist sweeps recover
    // each iteration's frontier from the harvested change masks
    // (O(|changed|) probes) where full sweeps scan all n vertices per
    // iteration. The probe counters must show the gap — under the
    // α/β heuristic pinned to bottom-up and under forced pull alike.
    let n = 1usize << 13;
    let g = slimsell::gen::geometric::road_network(n, 2.8, 77);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let slim = SlimSellMatrix::<8>::build(&g, 32);
    // alpha = ∞ flips to bottom-up after the first hop; beta = ∞ never
    // goes back.
    let probe = |sweep: SweepMode| {
        let opts = Descriptor::default()
            .direction(DirectionPolicy::Auto { alpha: f64::INFINITY, beta: f64::INFINITY })
            .sweep(sweep);
        let out = run_descriptor(&slim, root, &opts);
        assert!(
            out.modes[1..].iter().all(|&m| m == StepMode::BottomUp),
            "{sweep:?}: driver did not stay bottom-up"
        );
        (out.bfs.dist.clone(), out.bfs.stats.total_frontier_probes())
    };
    let (full_dist, full_probes) = probe(SweepMode::Full);
    let (wl_dist, wl_probes) = probe(SweepMode::Worklist);
    assert_eq!(wl_dist, full_dist);
    assert!(wl_probes > 0, "worklist recovery probed nothing");
    assert!(
        wl_probes * 4 < full_probes,
        "change-mask recovery did not pay off: worklist {wl_probes} vs full {full_probes} probes"
    );
    // Forced pull takes the same recovery path.
    let desc_probe = |sweep: SweepMode| {
        let desc = Descriptor::default().direction(DirectionPolicy::Pull).sweep(sweep);
        let out = run_descriptor(&slim, root, &desc);
        (out.bfs.dist.clone(), out.bfs.stats.total_frontier_probes())
    };
    let (dfull_dist, dfull_probes) = desc_probe(SweepMode::Full);
    let (dwl_dist, dwl_probes) = desc_probe(SweepMode::Worklist);
    assert_eq!(dwl_dist, dfull_dist);
    assert_eq!(dwl_dist, full_dist);
    assert!(
        dwl_probes * 4 < dfull_probes,
        "descriptor recovery did not pay off: worklist {dwl_probes} vs full {dfull_probes} probes"
    );
}
