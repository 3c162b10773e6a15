//! Betweenness centrality on the SlimSell substrate — the paper's §VI
//! extension target ("We strongly believe that SlimSell can be used to
//! accelerate other graph algorithms, for example schemes for solving
//! Betweenness Centrality").
//!
//! Brandes' algorithm needs, per source `s`:
//!
//! 1. a *forward* sweep computing shortest-path counts `σ_s(v)` and BFS
//!    levels — which is exactly the **real-semiring** BFS of §III-A2
//!    (the frontier carries walk counts restricted to shortest paths);
//! 2. a *backward* sweep accumulating dependencies
//!    `δ_s(v) = Σ_{w: succ} σ(v)/σ(w) · (1 + δ(w))`.
//!
//! The forward sweep reuses the BFS engine's iteration step verbatim
//! ([`crate::bfs`]), so it rides the same [`SweepMode`] substrate as
//! every other kernel: full sweeps, frontier-proportional worklist
//! sweeps, or the adaptive gate ([`BetweennessOptions::sweep`],
//! defaulting to the `SLIMSELL_SWEEP` env var). Every sweep *records*
//! its change masks — the exact bit-wise changed-chunk list is
//! harvested each iteration as the deterministic frontier from which σ and levels are recorded, in
//! ascending chunk order in every mode, so the DAG (and hence the
//! centralities) is bit-identical across sweep modes and thread
//! counts. The backward sweep stays **sequential by design**: dependency
//! accumulation scatters `δ` contributions to predecessors, so
//! different vertices of one level may write the same `δ[v]` — there is
//! no chunk-disjoint write pattern to tile over without atomics or
//! per-thread accumulator arrays, and levels shrink too fast for either
//! to pay off at this scale. The per-level coefficient pass *is*
//! parallel (ordered collect), and the serial scatter keeps the `f64`
//! accumulation order — and therefore the centralities — bit-identical
//! at any thread count.
//!
//! Path counts run in `f32` inside the vector kernel (the engine's
//! native type) and are widened to `f64` for the dependency
//! accumulation; exact centralities therefore require
//! `σ_s(v) < 2^24`, which holds for the laptop-scale graphs used here —
//! the limitation is documented and asserted.
//!
//! # Example
//!
//! ```
//! use slimsell_core::{betweenness_exact, SlimSellMatrix};
//! use slimsell_graph::GraphBuilder;
//!
//! // On a 3-vertex path every 1↔3 shortest path crosses the middle.
//! let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
//! let m = SlimSellMatrix::<4>::build(&g, 3);
//! let bc = betweenness_exact(&m);
//! assert_eq!(bc, vec![0.0, 2.0, 0.0]); // both directions counted
//! ```

use std::time::Instant;

use rayon::prelude::*;
use slimsell_graph::VertexId;

use crate::bfs::{step, BfsOptions, EngineScratch};
use crate::counters::RunStats;
use crate::matrix::ChunkMatrix;
use crate::semiring::{RealSemiring, Semiring, StateVecs};
use crate::sweep::{SweepConfig, SweepMode};
use crate::tiling::Schedule;

/// Betweenness options: sweep strategy and scheduling for the forward
/// sweeps (the backward sweep is sequential by design and unaffected).
#[derive(Clone, Copy, Debug, Default)]
pub struct BetweennessOptions {
    /// Sweep strategy and chunk scheduling for the forward
    /// (real-semiring BFS) sweeps (sweep defaults to the
    /// `SLIMSELL_SWEEP` env var; adaptive when unset). The DAG — and
    /// hence the centralities — is bit-identical in every mode.
    pub config: SweepConfig,
}

impl BetweennessOptions {
    /// Sets the sweep strategy of the forward sweeps (builder).
    #[must_use]
    pub fn sweep(mut self, sweep: SweepMode) -> Self {
        self.config.sweep = sweep;
        self
    }

    /// Sets the chunk scheduling policy of the forward sweeps (builder).
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Sets the full sweep configuration of the forward sweeps (builder).
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }
}

/// Per-source forward-sweep result.
#[derive(Clone, Debug)]
pub struct ShortestPathDag {
    /// BFS level of each vertex in *permuted* space (`u32::MAX` =
    /// unreachable).
    pub level: Vec<u32>,
    /// Shortest-path counts `σ_s(v)` in permuted space.
    pub sigma: Vec<f64>,
    /// Vertices grouped by level, deepest last (permuted ids).
    pub levels: Vec<Vec<u32>>,
    /// Per-sweep statistics of the forward sweep: sweep-mode trace,
    /// column steps, worklist sizes, activation probes.
    pub stats: RunStats,
}

/// Forward sweep from `root` (original id): real-semiring BFS recording
/// `σ` and levels, with the default options (env-selected sweep mode,
/// dynamic scheduling).
pub fn forward_sweep<M, const C: usize>(matrix: &M, root: VertexId) -> ShortestPathDag
where
    M: ChunkMatrix<C>,
{
    forward_sweep_with(matrix, root, &BetweennessOptions::default())
}

/// Forward sweep from `root` under the given sweep policy.
///
/// Runs the BFS engine's iteration step with change recording forced
/// on in every mode: the exact bit-wise changed-chunk list of each
/// iteration (which the adaptive gate needs anyway) doubles as
/// the frontier from which new levels and σ values are harvested —
/// a superset of the chunks holding newly discovered vertices, scanned
/// in ascending chunk order, so the recorded DAG is deterministic
/// across sweep modes and thread counts while the harvest cost stays
/// proportional to the changed region instead of the chunk range.
pub fn forward_sweep_with<M, const C: usize>(
    matrix: &M,
    root: VertexId,
    opts: &BetweennessOptions,
) -> ShortestPathDag
where
    M: ChunkMatrix<C>,
{
    type S = RealSemiring;
    let s = matrix.structure();
    let n = s.n();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let root_p = s.perm().to_new(root) as usize;
    let np = s.n_padded();

    let mut cur = StateVecs::new(np);
    let mut nxt = StateVecs::new(np);
    let mut d = vec![0.0f32; np];
    S::init(&mut cur, &mut d, n, root_p);

    let mut level = vec![u32::MAX; np];
    let mut sigma = vec![0.0f64; np];
    let mut levels: Vec<Vec<u32>> = vec![vec![root_p as u32]];
    level[root_p] = 0;
    sigma[root_p] = 1.0;

    let bfs_opts = BfsOptions::default().config(opts.config);
    let mut scratch = EngineScratch::new();
    if opts.config.sweep.uses_worklist() {
        // Establish the worklist invariant once (nxt == cur outside the
        // worklist) and seed from the root's chunk/lane.
        S::clone_state(&cur, &mut nxt);
        scratch.pending.push(((root_p / C) as u32, 1u32 << (root_p % C)));
    }

    let mut stats = RunStats::default();
    let mut depth = 0u32;
    loop {
        depth += 1;
        let t0 = Instant::now();
        // record = true even in pure full mode: the changed-chunk list
        // is the harvest frontier, not just re-seeding state.
        let mut it = step::<M, S, C>(
            matrix,
            &cur,
            &mut nxt,
            &mut d,
            depth as f32,
            &bfs_opts,
            &mut scratch,
            true,
        );
        it.elapsed = t0.elapsed();
        let any = it.changed;
        stats.iters.push(it);
        // Record σ and level for the newly discovered frontier. After
        // either sweep kind, `scratch.pending` holds exactly this
        // iteration's bit-wise changed (chunk, lane-mask) pairs in
        // ascending chunk order — a newly counted vertex changed its
        // `x` lane, so its chunk (and lane bit) is always listed.
        let mut this_level = Vec::new();
        for &(chunk, mask) in scratch.pending.iter() {
            let base = chunk as usize * C;
            for lane in 0..C {
                if mask & (1 << lane) == 0 {
                    continue;
                }
                let v = base + lane;
                let count = nxt.x[v];
                if count != 0.0 && level[v] == u32::MAX {
                    assert!(
                        count.is_finite() && count < (1u32 << 24) as f32,
                        "σ overflowed f32 exact-integer range at vertex {v}; graph too dense for exact BC"
                    );
                    level[v] = depth;
                    sigma[v] = count as f64;
                    this_level.push(v as u32);
                }
            }
        }
        if !this_level.is_empty() {
            levels.push(this_level);
        }
        std::mem::swap(&mut cur, &mut nxt);
        if !any || depth as usize > n {
            break;
        }
    }
    ShortestPathDag { level, sigma, levels, stats }
}

/// Backward dependency accumulation over the Sell structure: returns
/// `δ_s(v)` in permuted space.
///
/// The per-level coefficient pass is parallel (ordered collect); the
/// scatter to predecessors is deliberately sequential — see the module
/// docs for why this sweep is not tiled.
pub fn backward_sweep<M, const C: usize>(matrix: &M, dag: &ShortestPathDag) -> Vec<f64>
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let mut delta = vec![0.0f64; s.n_padded()];
    // Deepest level first; the root level (index 0) contributes nothing.
    for lvl in dag.levels.iter().skip(1).rev() {
        let contributions: Vec<(u32, f64)> = lvl
            .par_iter()
            .map(|&w| {
                // δ(pred) += σ(pred)/σ(w) · (1 + δ(w)) for each
                // predecessor; computed pull-style from w's row.
                (w, (1.0 + delta[w as usize]) / dag.sigma[w as usize])
            })
            .collect();
        // Scatter to predecessors serially per level (rows are short and
        // levels shrink fast; this keeps the accumulation deterministic).
        for (w, coeff) in contributions {
            let lw = dag.level[w as usize];
            for v in s.row_neighbors(w as usize) {
                if dag.level[v as usize] + 1 == lw {
                    delta[v as usize] += dag.sigma[v as usize] * coeff;
                }
            }
        }
    }
    delta
}

/// Exact betweenness centrality (all sources) on the vectorized
/// substrate. Unreached pairs contribute nothing; endpoints are
/// excluded, and for undirected graphs every pair is counted twice (the
/// standard Brandes convention — halve if needed).
pub fn betweenness_exact<M, const C: usize>(matrix: &M) -> Vec<f64>
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let n = s.n();
    let sources: Vec<VertexId> = (0..n as VertexId).collect();
    betweenness_from_sources(matrix, &sources)
}

/// Sampled (approximate) betweenness from the given sources, with the
/// default options.
pub fn betweenness_from_sources<M, const C: usize>(matrix: &M, sources: &[VertexId]) -> Vec<f64>
where
    M: ChunkMatrix<C>,
{
    betweenness_from_sources_with(matrix, sources, &BetweennessOptions::default())
}

/// Sampled (approximate) betweenness from the given sources under the
/// given forward-sweep policy. Centralities are bit-identical in every
/// sweep mode.
pub fn betweenness_from_sources_with<M, const C: usize>(
    matrix: &M,
    sources: &[VertexId],
    opts: &BetweennessOptions,
) -> Vec<f64>
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let n = s.n();
    let mut bc = vec![0.0f64; n];
    for &src in sources {
        let dag = forward_sweep_with(matrix, src, opts);
        let delta = backward_sweep(matrix, &dag);
        let root_p = s.perm().to_new(src) as usize;
        for (old, b) in bc.iter_mut().enumerate() {
            let v = s.perm().to_new(old as VertexId) as usize;
            if v != root_p && dag.level[v] != u32::MAX {
                *b += delta[v];
            }
        }
    }
    bc
}

/// Textbook serial Brandes, used as the correctness reference.
pub fn brandes_reference(g: &slimsell_graph::CsrGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bc = vec![0.0f64; n];
    for s in 0..n as VertexId {
        let mut stack = Vec::new();
        let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        let mut q = std::collections::VecDeque::new();
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            stack.push(v);
            for &w in g.neighbors(v) {
                if dist[w as usize] == i64::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    q.push_back(w);
                }
                if dist[w as usize] == dist[v as usize] + 1 {
                    sigma[w as usize] += sigma[v as usize];
                    preds[w as usize].push(v);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SlimSellMatrix;
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::{CsrGraph, GraphBuilder};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()), "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn path_graph_centrality() {
        // On a path, the middle vertex lies on the most shortest paths.
        let g = GraphBuilder::new(5).edges((0..4u32).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 5);
        let bc = betweenness_exact(&m);
        assert_close(&bc, &brandes_reference(&g));
        assert!(bc[2] > bc[1] && bc[1] > bc[0]);
        assert_eq!(bc[0], 0.0);
    }

    #[test]
    fn star_center_dominates() {
        let g = GraphBuilder::new(6).edges((1..6u32).map(|v| (0, v))).build();
        let m = SlimSellMatrix::<4>::build(&g, 6);
        let bc = betweenness_exact(&m);
        assert_close(&bc, &brandes_reference(&g));
        assert!(bc[0] > 0.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matches_brandes_on_kronecker() {
        let g = kronecker(8, 4.0, KroneckerParams::GRAPH500, 3);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        assert_close(&betweenness_exact(&m), &brandes_reference(&g));
    }

    #[test]
    fn matches_brandes_with_multiple_shortest_paths() {
        // Diamond: two shortest paths 0→3, so σ splits.
        let g: CsrGraph = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 3), (2, 3)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 4);
        let bc = betweenness_exact(&m);
        assert_close(&bc, &brandes_reference(&g));
        // Each middle vertex carries half of the 0↔3 pair (×2 directions).
        assert!((bc[1] - 1.0).abs() < 1e-9, "bc[1] = {}", bc[1]);
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = GraphBuilder::new(6).edges([(0, 1), (1, 2), (4, 5)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 6);
        assert_close(&betweenness_exact(&m), &brandes_reference(&g));
    }

    #[test]
    fn sampling_subset_of_exact() {
        let g = kronecker(7, 4.0, KroneckerParams::GRAPH500, 9);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let exact = betweenness_exact(&m);
        let sampled = betweenness_from_sources(&m, &[0, 1, 2, 3]);
        // Sampled values are partial sums of the exact ones.
        for (s, e) in sampled.iter().zip(&exact) {
            assert!(s <= &(e + 1e-9));
        }
    }

    #[test]
    fn forward_sweep_sigma_and_levels() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 3), (2, 3)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 4);
        let dag = forward_sweep(&m, 0);
        let to_new = |v: u32| m.structure().perm().to_new(v) as usize;
        assert_eq!(dag.sigma[to_new(0)], 1.0);
        assert_eq!(dag.sigma[to_new(3)], 2.0); // two shortest paths
        assert_eq!(dag.level[to_new(3)], 2);
        assert_eq!(dag.levels.len(), 3);
    }

    #[test]
    fn forward_sweep_modes_produce_identical_dags() {
        use crate::sweep::SweepMode;
        let g = kronecker(8, 4.0, KroneckerParams::GRAPH500, 21);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        for root in [0u32, 17, 63] {
            let full =
                forward_sweep_with(&m, root, &BetweennessOptions::default().sweep(SweepMode::Full));
            for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
                let opts = BetweennessOptions::default().sweep(sweep);
                let dag = forward_sweep_with(&m, root, &opts);
                assert_eq!(dag.level, full.level, "{sweep:?} root {root}: levels diverged");
                let a: Vec<u64> = dag.sigma.iter().map(|x| x.to_bits()).collect();
                let b: Vec<u64> = full.sigma.iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "{sweep:?} root {root}: σ diverged");
                assert_eq!(dag.levels, full.levels, "{sweep:?} root {root}: level sets diverged");
                assert!(
                    dag.stats.total_col_steps() <= full.stats.total_col_steps(),
                    "{sweep:?} did more work than the full sweep"
                );
            }
        }
    }

    #[test]
    fn forward_sweep_worklist_reduces_work_on_a_path() {
        use crate::sweep::SweepMode;
        let n = 256u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 1);
        let full = forward_sweep_with(&m, 0, &BetweennessOptions::default().sweep(SweepMode::Full));
        let wl =
            forward_sweep_with(&m, 0, &BetweennessOptions::default().sweep(SweepMode::Worklist));
        assert_eq!(wl.level, full.level);
        assert_eq!(wl.levels, full.levels);
        assert!(
            wl.stats.total_col_steps() < full.stats.total_col_steps(),
            "worklist {} !< full {}",
            wl.stats.total_col_steps(),
            full.stats.total_col_steps()
        );
        assert!(wl.stats.total_not_on_worklist() > 0);
        assert!(wl.stats.total_activations() > 0);
    }

    #[test]
    fn centralities_bit_identical_across_sweep_modes() {
        use crate::sweep::SweepMode;
        let g = kronecker(7, 4.0, KroneckerParams::GRAPH500, 9);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let sources = [0u32, 3, 11, 29];
        let run = |sweep| {
            betweenness_from_sources_with(&m, &sources, &BetweennessOptions::default().sweep(sweep))
        };
        let full = run(SweepMode::Full);
        for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
            let bc = run(sweep);
            let a: Vec<u64> = bc.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = full.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "{sweep:?} centralities diverged");
        }
    }
}
