//! Single-source shortest paths over the tropical semiring with *real*
//! edge weights — the boundary case that motivates SlimSell's scoping.
//!
//! For weighted graphs the matrix values are the weights themselves, so
//! they cannot be re-derived from `col`: the explicit `val` array of
//! Sell-C-σ is mandatory (§III-B limits SlimSell to unweighted graphs).
//! The same min-plus kernel then computes SSSP as a Bellman–Ford-style
//! fixpoint: `x' = MIN(ADD(rhs, vals), x)` until no label improves.
//!
//! Unlike BFS, SSSP is label-*correcting*: a finite label can improve in
//! a later iteration, so the SlimWork skip criterion ("all labels
//! finite") is unsound here and deliberately absent — an instructive
//! ablation of where each optimization applies. What *is* sound is the
//! worklist machinery of [`crate::worklist`]: a chunk's labels can only
//! improve when a chunk it gathers from (or the chunk itself) changed
//! in the previous sweep, so the same dependency-graph + exact bit-wise
//! change detection that drives frontier-proportional BFS turns the
//! Bellman–Ford fixpoint from "re-run every chunk every sweep" into
//! sweeps proportional to the still-relaxing region —
//! [`SsspOptions::sweep`] selects full sweeps, worklist sweeps, or (the
//! default) the adaptive gate of [`crate::sweep`], with distances
//! bit-identical in every mode.
//!
//! Each relaxation sweep runs tile-parallel over the
//! [`ChunkSet`](crate::tiling::ChunkSet) the sweep policy picked (the
//! whole chunk range or the worklist), writing disjoint slabs of the
//! next label vector; the
//! per-chunk min-plus math is independent of tile boundaries, so
//! distances are bit-identical at any thread count.
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
use std::time::Instant;

use slimsell_graph::weighted::WeightedCsrGraph;
use slimsell_graph::{Permutation, VertexId};
use slimsell_simd::{SimdF32, SimdI32};

use crate::counters::{IterStats, RunStats};
use crate::mask::VertexMask;
use crate::semiring::lanes_ne_bits;
use crate::sweep::{resolve_sweep, SweepConfig, SweepMode};
use crate::tiling::{ChunkTiling, Schedule};
use crate::worklist::{full_lane_mask, ActivationState, ColumnSlab};

/// Sell-C-σ with real-valued weights: structure arrays plus a weight
/// `val` array (padding cells hold `+∞`, the min-plus annihilator).
#[derive(Clone, Debug)]
pub struct WeightedSellCSigma<const C: usize> {
    n: usize,
    n_padded: usize,
    cs: Vec<usize>,
    cl: Vec<u32>,
    col: Vec<i32>,
    val: Vec<f32>,
    perm: Permutation,
}

impl<const C: usize> WeightedSellCSigma<C> {
    /// Builds from a weighted graph with σ-scoped degree sorting (same
    /// layout rules as the unweighted structure).
    pub fn build(g: &WeightedCsrGraph, sigma: usize) -> Self {
        let n = g.num_vertices();
        assert!(n > 0, "empty graph");
        let sigma = sigma.clamp(1, n);
        let gs = g.structure();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        if sigma > 1 {
            for window in order.chunks_mut(sigma) {
                window.sort_by_key(|&v| (std::cmp::Reverse(gs.degree(v)), v));
            }
        }
        let perm = Permutation::from_new_to_old(order);
        let nc = n.div_ceil(C);
        let n_padded = nc * C;
        let mut cl = vec![0u32; nc];
        for (i, c) in cl.iter_mut().enumerate() {
            let hi = ((i + 1) * C).min(n);
            *c = (i * C..hi)
                .map(|r| gs.degree(perm.to_old(r as VertexId)) as u32)
                .max()
                .unwrap_or(0);
        }
        let mut cs = vec![0usize; nc];
        let mut total = 0usize;
        for (s, &l) in cs.iter_mut().zip(&cl) {
            *s = total;
            total += l as usize * C;
        }
        let mut col = vec![-1i32; total];
        let mut val = vec![f32::INFINITY; total];
        for (i, &base) in cs.iter().enumerate() {
            for lane in 0..C {
                let r = i * C + lane;
                if r >= n {
                    continue;
                }
                let old = perm.to_old(r as VertexId);
                for (j, (w, wt)) in g.neighbors(old).enumerate() {
                    col[base + j * C + lane] = perm.to_new(w) as i32;
                    val[base + j * C + lane] = wt;
                }
            }
        }
        Self { n, n_padded, cs, cl, col, val, perm }
    }

    /// Storage cells (`val` + `col` + `cs` + `cl`) — twice SlimSell's,
    /// necessarily.
    pub fn storage_cells(&self) -> usize {
        self.val.len() + self.col.len() + self.cs.len() + self.cl.len()
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.n_padded / C
    }

    /// Builds a [`VertexMask`] over this matrix's permuted chunk
    /// layout from *original* graph ids (each mapped through the
    /// σ-sort permutation), suitable for [`SsspOptions::mask`].
    pub fn mask_from_original(&self, ids: impl IntoIterator<Item = VertexId>) -> VertexMask {
        VertexMask::from_permuted(self.n, C, ids.into_iter().map(|v| self.perm.to_new(v) as usize))
    }

    /// The column slab the worklist and adaptive sweep modes seed from
    /// (see [`SellStructure::column_slab`](crate::SellStructure::column_slab)).
    pub fn column_slab(&self) -> ColumnSlab<'_> {
        ColumnSlab { cs: &self.cs, cl: &self.cl, col: &self.col, lanes: C }
    }
}

/// SSSP options: sweep strategy, scheduling and an optional vertex
/// mask. Unlike [`BfsOptions`](crate::BfsOptions) there is no SlimWork
/// knob — the skip criterion is unsound for label-correcting relaxation
/// (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct SsspOptions {
    /// Sweep strategy and chunk scheduling policy (defaults to the
    /// `SLIMSELL_SWEEP` env var, adaptive when unset, with dynamic
    /// scheduling). Distances are bit-identical in every mode.
    pub config: SweepConfig,
    /// Optional vertex mask (permuted chunk layout, `C` lanes):
    /// relaxation only updates labels of vertices inside the mask;
    /// vertices outside stay at `+∞` and gathers from them contribute
    /// the min-plus identity — shortest paths in the induced subgraph.
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
    /// Relaxation sweeps executed (≤ n; typically ≈ hop diameter).
    pub iterations: usize,
    /// Per-sweep statistics: sweep-mode trace, column steps, worklist
    /// sizes, activation probes.
    pub stats: RunStats,
}

/// One chunk of the min-plus relaxation: gathers the current labels,
/// folds `cl[i]` column steps, stores the chunk's next labels into
/// `out`. Returns whether any lane improved numerically (the
/// fixpoint-termination signal).
#[inline]
fn relax_chunk<const C: usize>(
    m: &WeightedSellCSigma<C>,
    cur: &[f32],
    i: usize,
    out: &mut [f32],
) -> bool {
    let mut acc = SimdF32::<C>::load(&cur[i * C..]);
    let before = acc;
    let mut index = m.cs[i];
    for _ in 0..m.cl[i] {
        let cols = SimdI32::<C>::load(&m.col[index..]);
        let vals = SimdF32::<C>::load(&m.val[index..]);
        let rhs = SimdF32::gather_or(cur, cols, f32::INFINITY);
        // ∞ + w = ∞ keeps unreached neighbors neutral.
        acc = rhs.add(vals).min(acc);
        index += C;
    }
    acc.store(out);
    acc.any_ne(before)
}

/// Masked wrapper around [`relax_chunk`]: a fully masked chunk forwards
/// its labels verbatim (no relaxation, returns `(false, true)` for
/// (changed, skipped)); under a partial mask the masked-out lanes are
/// patched back to their previous labels before the change test, so
/// masked vertices stay exactly at `+∞` (or wherever they started).
#[inline]
fn relax_chunk_masked<const C: usize>(
    m: &WeightedSellCSigma<C>,
    cur: &[f32],
    i: usize,
    out: &mut [f32],
    mask: Option<&VertexMask>,
) -> (bool, bool) {
    let Some(mk) = mask else {
        return (relax_chunk(m, cur, i, out), false);
    };
    if mk.allowed_real(i) == 0 {
        out.copy_from_slice(&cur[i * C..(i + 1) * C]);
        return (false, true);
    }
    let allowed = mk.allowed(i);
    if allowed == full_lane_mask(C) {
        return (relax_chunk(m, cur, i, out), false);
    }
    relax_chunk(m, cur, i, out);
    for (l, slot) in out.iter_mut().enumerate() {
        if allowed & (1 << l) == 0 {
            *slot = cur[i * C + l];
        }
    }
    (lanes_ne_bits::<C>(&cur[i * C..], out) != 0, false)
}

/// Runs min-plus SSSP from `root` until the fixpoint, with the default
/// options (env-selected sweep mode, dynamic scheduling).
pub fn sssp<const C: usize>(m: &WeightedSellCSigma<C>, root: VertexId) -> SsspOutput {
    sssp_with(m, root, &SsspOptions::default())
}

/// Runs min-plus SSSP from `root` until the fixpoint, under the given
/// sweep policy. The same correctness architecture as the BFS engine:
/// the label vector is double-buffered, worklist sweeps maintain the
/// invariant that outside the worklist `nxt` equals `cur` bit-for-bit
/// (established by the initial clone, preserved because a chunk leaves
/// the worklist only after writing back exactly its previous labels),
/// and adaptive full sweeps track per-chunk bit-exact change flags so
/// every full→worklist transition re-seeds correctly.
pub fn sssp_with<const C: usize>(
    m: &WeightedSellCSigma<C>,
    root: VertexId,
    opts: &SsspOptions,
) -> SsspOutput {
    let n = m.n;
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let root_p = m.perm.to_new(root) as usize;
    let mask = opts.mask.as_deref();
    if let Some(mk) = mask {
        assert_eq!(
            (mk.n(), mk.lanes()),
            (n, C),
            "mask built for n={} C={} used with a weighted structure of n={n} C={C}",
            mk.n(),
            mk.lanes(),
        );
        assert!(mk.contains(root_p), "root {root} is not in the vertex mask");
    }
    let mut cur = vec![f32::INFINITY; m.n_padded];
    cur[root_p] = 0.0;
    let mut nxt = cur.clone();

    let nc = m.num_chunks();
    let tiling = ChunkTiling::new(nc, opts.config.schedule);
    let mut act = ActivationState::new();
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut masks: Vec<u32> = Vec::new();
    // Worklist-capable modes record every sweep's change masks: the
    // harvest seeds the next worklist (see `crate::bfs::step`).
    let record = opts.config.sweep.uses_worklist();
    if record {
        // Only the root's label differs from +∞, so only dependents
        // gathering the root's lane can produce a different output.
        pending.push(((root_p / C) as u32, 1u32 << (root_p % C)));
    }

    let mut stats = RunStats::default();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let t0 = Instant::now();
        let (set, seeded) =
            resolve_sweep(opts.config.sweep, &mut act, m.column_slab(), &mut pending, mask);
        let cur_ref = &cur;
        let (changed, col_steps, skipped) = set.sweep(
            &tiling,
            C,
            [&mut nxt[..]],
            record.then_some(&mut masks),
            |_, i, [out], flag| {
                let (adv, skip) = relax_chunk_masked(m, cur_ref, i, out, mask);
                if let Some(f) = flag {
                    *f = lanes_ne_bits::<C>(&cur_ref[i * C..], out);
                }
                (adv, if skip { 0 } else { m.cl[i] as u64 }, usize::from(skip))
            },
            |a, b| (a.0 | b.0, a.1 + b.1, a.2 + b.2),
        );
        let changed_chunks = if record { set.harvest(&masks, &mut pending) } else { 0 };
        stats.iters.push(IterStats {
            elapsed: t0.elapsed(),
            activations: seeded.unwrap_or(0),
            changed_chunks,
            col_steps,
            cells: col_steps * C as u64,
            changed,
            ..IterStats::visited(&set, nc, skipped)
        });
        std::mem::swap(&mut cur, &mut nxt);
        if !changed || iterations > n {
            break;
        }
    }

    let dist = (0..n).map(|old| cur[m.perm.to_new(old as VertexId) as usize]).collect();
    SsspOutput { dist, iterations, stats }
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
        let nc = m.num_chunks();
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
    fn column_slab_seeds_match_the_dependency_oracle() {
        // The weighted matrix carries no dependency graph: its worklist
        // seeds come from its own column slab, which must reproduce the
        // materialized graph's lane-filtered dependents. sigma = 1 keeps
        // vertex ids equal to permuted positions.
        use crate::worklist::ChunkDepGraph;
        let g = WeightedCsrGraph::from_edges(16, [(0, 15, 1.0), (3, 8, 2.0), (8, 9, 0.5)]);
        let m = WeightedSellCSigma::<4>::build(&g, 1);
        let dep = ChunkDepGraph::build(m.num_chunks(), &m.cs, &m.cl, &m.col, 4);
        let mut act = ActivationState::new();
        for j in 0..m.num_chunks() {
            for lanes in 1..16u32 {
                let n = act.seed(m.column_slab(), &mut vec![(j as u32, lanes)], None);
                let want: Vec<u32> = dep
                    .dependents(j)
                    .iter()
                    .zip(dep.edge_masks(j))
                    .filter(|&(_, &em)| em & lanes != 0)
                    .map(|(&t, _)| t)
                    .collect();
                assert_eq!(act.worklist(), &want[..], "chunk {j} lanes {lanes:04b}");
                assert_eq!(n as usize, want.len(), "chunk {j} lanes {lanes:04b}");
            }
        }
        // 0-15 edge crosses chunks 0 and 3: mutual dependency.
        act.seed(m.column_slab(), &mut vec![(0, 0b0001)], None);
        assert_eq!(act.worklist(), &[0, 3]);
        act.seed(m.column_slab(), &mut vec![(3, 0b1000)], None);
        assert_eq!(act.worklist(), &[0, 3]);
    }

    #[test]
    fn weighted_storage_is_double_slimsell() {
        let g =
            WeightedCsrGraph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0), (4, 5, 2.0)]);
        let m = WeightedSellCSigma::<4>::build(&g, 6);
        let slim = crate::matrix::SlimSellMatrix::<4>::build(g.structure(), 6);
        use crate::matrix::ChunkMatrix;
        let slim_colside = slim.storage_cells();
        // val duplicates the col-array footprint.
        assert_eq!(m.storage_cells(), slim_colside + (m.col.len()));
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
