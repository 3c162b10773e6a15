//! Single-source shortest paths over the tropical semiring with *real*
//! edge weights — the boundary case that motivates SlimSell's scoping.
//!
//! For weighted graphs the matrix values are the weights themselves, so
//! they cannot be re-derived from `col`: the explicit `val` array of
//! Sell-C-σ is mandatory (§III-B limits SlimSell to unweighted graphs).
//! [`WeightedSellCSigma`] is therefore a [`SellCSigma`] whose `val`
//! holds the weights (`+∞` in padding cells), on the same
//! [`SellStructure`] every other kernel runs on.
//! The tropical BFS engine's min-plus sweep `x' = MIN(ADD(rhs, vals), x)`
//! over that matrix, iterated until no label improves, is SSSP as a
//! Bellman–Ford-style fixpoint: [`sssp_with`] is that engine run.
//!
//! Unlike BFS, SSSP is label-*correcting*: a finite label can improve in
//! a later iteration, so the SlimWork skip criterion ("all labels
//! finite") is unsound here and always off — an instructive ablation of
//! where each optimization applies. The engine's worklist and adaptive
//! sweeps stay sound: a chunk's labels can only improve when a chunk it
//! gathers from (or the chunk itself) changed in the previous sweep, so
//! [`SsspOptions::config`] selects full sweeps, worklist sweeps, or (the
//! default) the adaptive gate of [`crate::sweep`], with distances
//! bit-identical in every mode and at any thread count.
//!
//! # Example
//!
//! ```
//! use slimsell_core::{sssp, WeightedSellCSigma};
//! use slimsell_graph::weighted::WeightedCsrGraph;
//!
//! // The cheap 2-hop route (0→1→2, cost 3) beats the direct edge (10).
//! let g = WeightedCsrGraph::from_edges(3, [(0, 2, 10.0), (0, 1, 1.0), (1, 2, 2.0)]);
//! let m = WeightedSellCSigma::<4>::build(&g, 3);
//! let out = sssp(&m, 0);
//! assert_eq!(out.dist, vec![0.0, 1.0, 3.0]);
//! ```

use std::sync::Arc;

use slimsell_graph::weighted::WeightedCsrGraph;
use slimsell_graph::VertexId;
use slimsell_simd::{SimdF32, SimdI32};

use crate::bfs::{run_state, BfsOptions};
use crate::counters::RunStats;
use crate::mask::VertexMask;
use crate::matrix::{ChunkMatrix, Representation, SellCSigma};
use crate::semiring::TropicalSemiring;
use crate::structure::SellStructure;
use crate::sweep::{SweepConfig, SweepMode};
use crate::tiling::Schedule;

/// Sell-C-σ with real-valued weights: a [`SellCSigma`] whose `val`
/// array holds each arc's weight (padding cells hold `+∞`, the min-plus
/// annihilator).
#[derive(Clone, Debug)]
pub struct WeightedSellCSigma<const C: usize>(SellCSigma<C>);

impl<const C: usize> WeightedSellCSigma<C> {
    /// Builds from a weighted graph with σ-scoped degree sorting (the
    /// layout of [`SellStructure::build`], weights filled in the same
    /// pass).
    ///
    /// # Panics
    /// As [`SellStructure::build`]: on an unsupported chunk height or
    /// an empty graph.
    pub fn build(g: &WeightedCsrGraph, sigma: usize) -> Self {
        let (structure, val) =
            SellStructure::build_with_weights(g.structure(), sigma, Some(g.weights()));
        Self(SellCSigma::from_parts(structure, val, f32::INFINITY))
    }

    /// The weight array, laid out like the structure's `col`.
    pub fn val(&self) -> &[f32] {
        self.0.val()
    }
}

impl<const C: usize> ChunkMatrix<C> for WeightedSellCSigma<C> {
    #[inline]
    fn structure(&self) -> &SellStructure<C> {
        self.0.structure()
    }

    #[inline(always)]
    fn vals(&self, index: usize, cols: SimdI32<C>, pad: f32) -> SimdF32<C> {
        self.0.vals(index, cols, pad)
    }

    fn representation(&self) -> Representation {
        Representation::SellCSigma
    }

    /// `val + col + cs + cl` — twice SlimSell's, necessarily.
    fn storage_cells(&self) -> usize {
        self.0.storage_cells()
    }
}

/// SSSP options: sweep strategy, scheduling and an optional vertex
/// mask. Unlike [`BfsOptions`] there is no SlimWork
/// knob — the skip criterion is unsound for label-correcting relaxation
/// (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct SsspOptions {
    /// Sweep strategy and chunk scheduling policy (defaults to the
    /// `SLIMSELL_SWEEP` env var, adaptive when unset, with dynamic
    /// scheduling). Distances are bit-identical in every mode.
    pub config: SweepConfig,
    /// Optional vertex mask over the matrix's structure (build it with
    /// [`VertexMask::from_original`]): relaxation only updates labels
    /// of vertices inside the mask; vertices outside stay at `+∞` and
    /// gathers from them contribute the min-plus identity — shortest
    /// paths in the induced subgraph.
    pub mask: Option<Arc<VertexMask>>,
}

impl SsspOptions {
    /// Sets the sweep mode, keeping the schedule (builder).
    #[must_use]
    pub fn sweep(mut self, sweep: SweepMode) -> Self {
        self.config.sweep = sweep;
        self
    }

    /// Sets the schedule, keeping the sweep mode (builder).
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Sets the full sweep configuration (builder).
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the vertex mask (builder).
    #[must_use]
    pub fn mask(mut self, mask: Option<Arc<VertexMask>>) -> Self {
        self.mask = mask;
        self
    }
}

/// SSSP result.
#[derive(Clone, Debug)]
pub struct SsspOutput {
    /// Shortest-path distances in original ids (`∞` = unreachable).
    pub dist: Vec<f32>,
    /// Relaxation sweeps executed (≤ n + 1; typically ≈ hop diameter).
    pub iterations: usize,
    /// Per-sweep statistics: sweep-mode trace, column steps, worklist
    /// sizes, activation probes.
    pub stats: RunStats,
}

/// Runs min-plus SSSP from `root` until the fixpoint, with the default
/// options (env-selected sweep mode, dynamic scheduling).
pub fn sssp<const C: usize>(m: &WeightedSellCSigma<C>, root: VertexId) -> SsspOutput {
    sssp_with(m, root, &SsspOptions::default())
}

/// Runs min-plus SSSP from `root` until the fixpoint, under the given
/// sweep policy and mask: the tropical BFS engine over the weighted
/// matrix, with SlimWork off.
///
/// # Panics
/// As [`BfsEngine::run`](crate::BfsEngine::run): if `root` is out of
/// range, the mask was built for another structure, or `root` is
/// outside the mask.
pub fn sssp_with<const C: usize>(
    m: &WeightedSellCSigma<C>,
    root: VertexId,
    opts: &SsspOptions,
) -> SsspOutput {
    let bfs = BfsOptions {
        slimwork: false,
        slimchunk: None,
        max_iterations: None,
        config: opts.config,
        mask: opts.mask.clone(),
    };
    let (cur, _, stats) = run_state::<_, TropicalSemiring, C>(m, root, &bfs, false, |_, _, _| {});
    let dist = m.structure().perm().unpermute(&cur.x);
    SsspOutput { dist, iterations: stats.num_iterations(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ExecutedSweep;
    use slimsell_gen::Xoshiro256pp;
    use slimsell_graph::weighted::{dijkstra, WeightedCsrGraph};

    fn assert_close(a: &[f32], b: &[f32]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if x.is_infinite() || y.is_infinite() {
                assert_eq!(x.is_infinite(), y.is_infinite(), "vertex {i}: {x} vs {y}");
            } else {
                assert!((x - y).abs() < 1e-4 * (1.0 + y.abs()), "vertex {i}: {x} vs {y}");
            }
        }
    }

    fn opts(sweep: SweepMode) -> SsspOptions {
        SsspOptions::default().sweep(sweep)
    }

    #[test]
    fn matches_dijkstra_on_sample() {
        let g = WeightedCsrGraph::from_edges(
            5,
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (2, 3, 1.0), (0, 4, 10.0), (3, 4, 1.0)],
        );
        let m = WeightedSellCSigma::<4>::build(&g, 5);
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let out = sssp_with(&m, 0, &opts(sweep));
            assert_close(&out.dist, &dijkstra(&g, 0));
            assert_eq!(out.dist, vec![0.0, 1.0, 3.0, 4.0, 5.0], "{sweep:?}");
        }
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        for case in 0..8 {
            let n = 40 + rng.bounded_usize(60);
            let m_edges = 2 * n;
            let edges: Vec<(u32, u32, f32)> = (0..m_edges)
                .map(|_| {
                    (
                        rng.bounded_usize(n) as u32,
                        rng.bounded_usize(n) as u32,
                        (rng.next_f64() * 10.0) as f32 + 0.1,
                    )
                })
                .collect();
            let g = WeightedCsrGraph::from_edges(n, edges);
            if g.num_edges() == 0 {
                continue;
            }
            let m = WeightedSellCSigma::<8>::build(&g, n);
            for root in [0u32, (n / 2) as u32] {
                let out = sssp(&m, root);
                assert_close(&out.dist, &dijkstra(&g, root));
                assert!(out.iterations <= n, "case {case}: {} iterations", out.iterations);
            }
        }
    }

    #[test]
    fn all_sweep_modes_bit_identical() {
        // The worklist/adaptive sweeps must be pure work-avoidance
        // transformations: same distances to the bit, same sweep count.
        let mut rng = Xoshiro256pp::seed_from_u64(4242);
        for _ in 0..6 {
            let n = 50 + rng.bounded_usize(80);
            let edges: Vec<(u32, u32, f32)> = (0..3 * n)
                .map(|_| {
                    (
                        rng.bounded_usize(n) as u32,
                        rng.bounded_usize(n) as u32,
                        (rng.next_f64() * 5.0) as f32 + 0.05,
                    )
                })
                .collect();
            let g = WeightedCsrGraph::from_edges(n, edges);
            let m = WeightedSellCSigma::<4>::build(&g, n);
            let root = (n / 3) as u32;
            let full = sssp_with(&m, root, &opts(SweepMode::Full));
            for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
                let out = sssp_with(&m, root, &opts(sweep));
                let full_bits: Vec<u32> = full.dist.iter().map(|x| x.to_bits()).collect();
                let out_bits: Vec<u32> = out.dist.iter().map(|x| x.to_bits()).collect();
                assert_eq!(out_bits, full_bits, "{sweep:?} labels diverged");
                assert_eq!(out.iterations, full.iterations, "{sweep:?} sweep count diverged");
                assert!(
                    out.stats.total_col_steps() <= full.stats.total_col_steps(),
                    "{sweep:?} did more relaxation work than the full sweep"
                );
            }
        }
    }

    #[test]
    fn worklist_reduces_relaxation_work_on_a_path() {
        // A long weighted path: the relaxing region is a wavefront, so
        // worklist sweeps must execute far fewer column steps than the
        // full Bellman-Ford re-run while agreeing bit-for-bit.
        let n = 512u32;
        let edges: Vec<(u32, u32, f32)> =
            (0..n - 1).map(|v| (v, v + 1, 1.0 + (v % 7) as f32 * 0.25)).collect();
        let g = WeightedCsrGraph::from_edges(n as usize, edges);
        let m = WeightedSellCSigma::<4>::build(&g, 1);
        let full = sssp_with(&m, 0, &opts(SweepMode::Full));
        let wl = sssp_with(&m, 0, &opts(SweepMode::Worklist));
        assert_eq!(
            wl.dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            full.dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(wl.iterations, full.iterations);
        assert!(
            wl.stats.total_col_steps() < full.stats.total_col_steps() / 4,
            "worklist {} not ≪ full {}",
            wl.stats.total_col_steps(),
            full.stats.total_col_steps()
        );
        assert!(wl.stats.total_not_on_worklist() > 0);
        assert!(wl.stats.total_activations() > 0);
        // Counter coherence per sweep.
        let nc = m.structure().num_chunks();
        for it in &wl.stats.iters {
            assert_eq!(it.chunks_processed, it.worklist_len);
            assert_eq!(it.chunks_not_on_worklist, nc - it.worklist_len);
            assert_eq!(it.sweep_mode, ExecutedSweep::Worklist);
        }
        // Adaptive stays in the worklist regime on a wavefront.
        let ad = sssp_with(&m, 0, &opts(SweepMode::Adaptive));
        assert_eq!(ad.stats.mode_switches(), 0);
        assert_eq!(ad.stats.total_col_steps(), wl.stats.total_col_steps());
    }

    #[test]
    fn label_correcting_beats_greedy_hop_order() {
        // Long cheap path vs short expensive edge: the min-plus fixpoint
        // must pick the cheap 3-hop route (cost 3) over the 1-hop edge
        // (cost 10) — labels improve after first becoming finite, the
        // reason SlimWork is unsound for SSSP. Every sweep mode must
        // get this right (the worklist must keep re-listing chunks
        // whose labels keep improving).
        let g =
            WeightedCsrGraph::from_edges(4, [(0, 3, 10.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let m = WeightedSellCSigma::<4>::build(&g, 4);
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let out = sssp_with(&m, 0, &opts(sweep));
            assert_eq!(out.dist[3], 3.0, "{sweep:?}");
            assert!(out.iterations >= 3, "{sweep:?}");
        }
    }

    #[test]
    fn weighted_storage_is_double_slimsell() {
        let g =
            WeightedCsrGraph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0), (4, 5, 2.0)]);
        let m = WeightedSellCSigma::<4>::build(&g, 6);
        let slim = crate::matrix::SlimSellMatrix::<4>::build(g.structure(), 6);
        // val duplicates the col-array footprint.
        assert_eq!(m.storage_cells(), slim.storage_cells() + m.structure().total_cells());
        assert_eq!(m.structure().col(), slim.structure().col());
    }

    #[test]
    fn sigma_does_not_change_distances() {
        let g = WeightedCsrGraph::from_edges(
            8,
            [
                (0, 1, 1.5),
                (1, 2, 0.5),
                (2, 3, 2.0),
                (0, 4, 4.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
                (3, 7, 0.5),
            ],
        );
        let a = sssp(&WeightedSellCSigma::<4>::build(&g, 1), 0);
        let b = sssp(&WeightedSellCSigma::<4>::build(&g, 8), 0);
        assert_close(&a.dist, &b.dist);
    }
}
