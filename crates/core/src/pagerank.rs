//! PageRank over the SlimSell structure — the paper's §VI observation
//! that "many algorithms (e.g., Pagerank) have identical communication
//! patterns in each superstep", making them *better* suited to the
//! SpMV-over-Sell approach than BFS (no SlimWork-style early-out is even
//! needed; every iteration touches the whole structure).
//!
//! The update is `x' = (1−d)/n + d · (Aᵀ D⁻¹ x + dangling/n)` with
//! `D` the degree matrix. Because the graph is undirected and the matrix
//! symmetric, `Aᵀ D⁻¹ x` is computed by pre-scaling (`y = x/deg`) and
//! one SpMV over the chunked structure — the same gather/accumulate
//! kernel as BFS with the real semiring's (+, ·) and implicit 1 values.
//!
//! The expensive `O(m)` SpMV pass rides the sweep-policy substrate of
//! [`crate::sweep`]: the per-vertex SpMV accumulator is persistent, the
//! pre-scale pass records which chunks of `y` changed bit-wise since
//! the previous iteration, and in worklist/adaptive mode only the
//! dependents of changed `y` chunks are recomputed — a chunk none of
//! whose gathered inputs changed would reproduce its cached accumulator
//! to the bit (the chunk SpMV is a pure function of the gathered
//! lanes). Mid-run the damping base mass shifts every iteration, so `y`
//! floods and the adaptive gate settles on full sweeps without paying a
//! single activation (only the `O(n)` bit compare and a seed-cell sum
//! that stops at the bound); the worklist pays off in the convergence tail, when
//! most of `y` has stopped moving. The cheap `O(n)` pre-scale and
//! output passes always sweep fully. Scores, residuals, and iteration
//! counts are bit-identical in every sweep mode and at any thread
//! count.
//!
//! The pre-scale pass is a full-range [`ChunkSet`] sweep, the SpMV a
//! sweep over whichever set the policy picked, and the output pass a
//! plain chunk-tiled loop; all write disjoint slabs. The L1
//! residual is made thread-count-independent by accumulating one
//! partial per chunk (fixed lane order) into a side slab and summing
//! that slab sequentially in chunk order — scores and residuals are
//! bit-identical at any thread count.
//!
//! # Example
//!
//! ```
//! use slimsell_core::{pagerank, PageRankOptions, SlimSellMatrix};
//! use slimsell_graph::GraphBuilder;
//!
//! // On a ring every vertex is symmetric: scores are uniform.
//! let g = GraphBuilder::new(8).edges((0..8u32).map(|v| (v, (v + 1) % 8))).build();
//! let m = SlimSellMatrix::<4>::build(&g, 8);
//! let out = pagerank(&m, &PageRankOptions::default());
//! assert!(out.scores.iter().all(|&s| (s - 0.125).abs() < 1e-5));
//! ```

use std::time::Instant;

use slimsell_graph::VertexId;
use slimsell_simd::SimdF32;

use crate::bfs::fold_from;
use crate::counters::{IterStats, RunStats};
use crate::matrix::ChunkMatrix;
use crate::semiring::RealSemiring;
use crate::sweep::{resolve_sweep, SweepConfig, SweepMode};
use crate::tiling::{ChunkSet, ChunkTiling, Schedule};
use crate::worklist::ActivationState;

/// PageRank options.
#[derive(Clone, Debug)]
pub struct PageRankOptions {
    /// Damping factor `d` (0.85 is the classic choice).
    pub damping: f32,
    /// L1 convergence tolerance.
    pub tolerance: f32,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Sweep strategy and scheduling for the SpMV pass (defaults to
    /// the `SLIMSELL_SWEEP` env var; adaptive when unset). Scores are
    /// bit-identical in every mode.
    pub config: SweepConfig,
    /// Personalization set (original vertex ids). `None` is classic
    /// PageRank with the uniform teleport vector — byte-identical to
    /// the pre-personalization behavior. `Some(seeds)` teleports (and
    /// routes dangling mass) to the seed set only: the restart
    /// distribution puts `1/|S|` on each seed and 0 elsewhere, so
    /// scores concentrate around the seeds (personalized PageRank).
    pub personalize: Option<Vec<VertexId>>,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tolerance: 1e-7,
            max_iterations: 200,
            config: SweepConfig::default(),
            personalize: None,
        }
    }
}

impl PageRankOptions {
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

    /// Sets the personalization seed set (builder; original ids).
    #[must_use]
    pub fn personalize(mut self, seeds: impl IntoIterator<Item = VertexId>) -> Self {
        self.personalize = Some(seeds.into_iter().collect());
        self
    }
}

/// PageRank result.
#[derive(Clone, Debug)]
pub struct PageRankOutput {
    /// Scores in original vertex ids; sums to 1.
    pub scores: Vec<f32>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final L1 residual.
    pub residual: f32,
    /// Per-iteration statistics of the SpMV pass: sweep-mode trace,
    /// column steps actually executed, worklist sizes, activations.
    pub stats: RunStats,
}

/// Runs PageRank on the chunked structure.
pub fn pagerank<M, const C: usize>(matrix: &M, opts: &PageRankOptions) -> PageRankOutput
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let n = s.n();
    let np = s.n_padded();
    assert!(n > 0);
    let d = opts.damping;

    let nc = np / C;
    let tiling = ChunkTiling::new(nc, opts.config.schedule);

    // Degrees in permuted space: a row's non-padding cells, counted one
    // chunk step (all `C` rows) at a time. Padding rows get degree 0.
    let mut deg = vec![0.0f32; np];
    ChunkSet::All(nc).sweep(
        &tiling,
        C,
        [&mut deg[..]],
        None,
        |_, i, [slot], _| {
            let mut len = [0u32; C];
            for step in s.col()[s.cs()[i]..].chunks_exact(C).take(s.cl()[i] as usize) {
                for (l, &c) in len.iter_mut().zip(step) {
                    *l += u32::from(c >= 0);
                }
            }
            for (d, l) in slot.iter_mut().zip(len) {
                *d = l as f32;
            }
        },
        |(), ()| (),
    );
    let inv_deg: Vec<f32> = deg.iter().map(|&x| if x > 0.0 { 1.0 / x } else { 0.0 }).collect();
    // Dangling rows in ascending order: every iteration sums their mass
    // in this fixed order (deterministic) without rescanning all rows.
    let dangling_rows: Vec<usize> = (0..n).filter(|&v| deg[v] == 0.0).collect();

    // Personalized restart distribution in permuted space: 1/|S| on
    // each seed, 0 elsewhere. The `None` arm below keeps the classic
    // uniform-teleport code path byte-identical to the
    // pre-personalization behavior.
    let tele: Option<Vec<f32>> = opts.personalize.as_ref().map(|seeds| {
        assert!(!seeds.is_empty(), "personalization seed set is empty");
        let mut uniq: Vec<VertexId> = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let w = 1.0 / uniq.len() as f32;
        let mut t = vec![0.0f32; np];
        for &v in &uniq {
            assert!((v as usize) < n, "personalization seed {v} out of range (n = {n})");
            t[s.perm().to_new(v) as usize] = w;
        }
        t
    });

    let mut x = match &tele {
        None => {
            let mut x = vec![0.0f32; np];
            x[..n].fill(1.0 / n as f32);
            x
        }
        // Personalized runs start from the restart distribution.
        Some(t) => t.clone(),
    };
    let mut y = vec![0.0f32; np]; // pre-scaled x/deg
    let mut nxt = vec![0.0f32; np];
    // Per-chunk residual partials; summed in chunk order so the L1
    // residual does not depend on tile boundaries (thread count).
    let mut chunk_res = vec![0.0f32; nc];
    // Persistent SpMV accumulator: `acc[v] = (A ⊗ y)[v]` at all times.
    // The all-zero start is exactly the SpMV of the all-zero initial
    // `y`, so the change-driven update below is correct from the first
    // iteration with no special casing.
    let mut acc = vec![0.0f32; np];
    // Which lanes of which chunks of `y` changed bit-wise this
    // iteration (the SpMV worklist seeds, one lane mask per chunk),
    // rebuilt by the pre-scale pass every iteration.
    let mut y_changed: Vec<u32> = Vec::new();
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut act = ActivationState::new();
    // Change detection (the bit compares in the pre-scale pass and the
    // seed-list rebuild) is paid only by worklist-capable modes.
    let track = opts.config.sweep.uses_worklist();

    let mut stats = RunStats::default();
    let mut iterations = 0;
    let mut residual = f32::INFINITY;
    while iterations < opts.max_iterations && residual > opts.tolerance {
        iterations += 1;
        let t0 = Instant::now();
        // Dangling vertices spread their mass uniformly.
        let dangling: f32 = dangling_rows.iter().map(|&v| x[v]).sum();
        let base_mass = (1.0 - d) / n as f32 + d * dangling / n as f32;
        // Pre-scale pass: y = x / deg over the whole chunk range — with
        // per-chunk bit-exact change masks for the SpMV worklist when a
        // worklist-capable mode is active; pure full-sweep runs never
        // pay for change detection.
        let (x_ref, inv_ref) = (&x, &inv_deg);
        let all = ChunkSet::All(nc);
        all.sweep(
            &tiling,
            C,
            [&mut y[..]],
            track.then_some(&mut y_changed),
            |_, i, [slot], flag| {
                let mut changed = 0u32;
                for (lane, yv) in slot.iter_mut().enumerate() {
                    let new = x_ref[i * C + lane] * inv_ref[i * C + lane];
                    if flag.is_some() && new.to_bits() != yv.to_bits() {
                        changed |= 1u32 << (lane & 31);
                    }
                    *yv = new;
                }
                if let Some(f) = flag {
                    *f = changed;
                }
            },
            |(), ()| (),
        );
        let changed_chunks = if track { all.harvest(&y_changed, &mut pending) } else { 0 };

        // SpMV pass under the sweep policy: recompute the accumulator
        // for every chunk (full) or for the dependents of changed `y`
        // chunks only (worklist) — elsewhere the cached values are
        // already bit-exact. The next seed list comes from the
        // pre-scale pass's `y` compare, so this sweep records nothing.
        let (set, seeded) =
            resolve_sweep(opts.config.sweep, &mut act, s.column_slab(), &mut pending, None);
        let y_ref = &y;
        let col_steps = set.sweep(
            &tiling,
            C,
            [&mut acc[..]],
            None,
            |_, i, [slot], _| {
                // Unlike the BFS kernel, PageRank must not fold the old
                // value in: each chunk of `A ⊗_R y` starts from zero.
                let acc = SimdF32::zero();
                fold_from::<M, RealSemiring, C>(matrix, y_ref, s.cs()[i], s.cl()[i], acc)
                    .store(slot);
                s.cl()[i] as u64
            },
            |a, b| a + b,
        );

        // Output + residual pass: each tile owns its slab of `nxt` and
        // the matching slab of per-chunk residual partials. The
        // personalized restart teleports (and routes dangling mass) to
        // the seed distribution instead of the uniform one.
        {
            let (x_ref, acc_ref) = (&x, &acc);
            let tele_ref = tele.as_deref();
            let tiles: Vec<_> = tiling
                .split(C, &mut nxt)
                .into_iter()
                .zip(tiling.split(1, &mut chunk_res))
                .collect();
            tiling.for_each(tiles, |(out, res)| {
                for (k, (slot, r)) in out.data.chunks_mut(C).zip(res.data.iter_mut()).enumerate() {
                    let i = out.c0 + k;
                    let mut partial = 0.0f32;
                    for (lane, o) in slot.iter_mut().enumerate() {
                        let v = i * C + lane;
                        *o = if v >= n {
                            0.0
                        } else {
                            match tele_ref {
                                None => base_mass + d * acc_ref[v],
                                Some(t) => (1.0 - d) * t[v] + d * (acc_ref[v] + dangling * t[v]),
                            }
                        };
                        partial += (*o - x_ref[v]).abs();
                    }
                    *r = partial;
                }
            });
        }
        residual = chunk_res.iter().sum();
        std::mem::swap(&mut x, &mut nxt);
        stats.iters.push(IterStats {
            elapsed: t0.elapsed(),
            activations: seeded.unwrap_or(0),
            changed_chunks,
            col_steps,
            cells: col_steps * C as u64,
            changed: residual > opts.tolerance,
            ..IterStats::visited(&set, nc, 0)
        });
    }

    let perm = s.perm();
    let scores = (0..n).map(|old| x[perm.to_new(old as VertexId) as usize]).collect();
    PageRankOutput { scores, iterations, residual, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SlimSellMatrix;
    use crate::sweep::ExecutedSweep;
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::{CsrGraph, GraphBuilder};

    fn reference_pagerank(g: &CsrGraph, opts: &PageRankOptions) -> Vec<f32> {
        let n = g.num_vertices();
        let d = opts.damping;
        let mut x = vec![1.0 / n as f32; n];
        for _ in 0..opts.max_iterations {
            let dangling: f32 =
                (0..n as u32).filter(|&v| g.degree(v) == 0).map(|v| x[v as usize]).sum();
            let mut nxt = vec![(1.0 - d) / n as f32 + d * dangling / n as f32; n];
            for v in 0..n as u32 {
                let share = x[v as usize] / g.degree(v).max(1) as f32;
                for &w in g.neighbors(v) {
                    nxt[w as usize] += d * share;
                }
            }
            let res: f32 = nxt.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
            x = nxt;
            if res < opts.tolerance {
                break;
            }
        }
        x
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn ring_is_uniform() {
        let n = 12;
        let g = GraphBuilder::new(n).edges((0..n as u32).map(|v| (v, (v + 1) % n as u32))).build();
        let m = SlimSellMatrix::<4>::build(&g, n);
        let out = pagerank(&m, &PageRankOptions::default());
        let expect = 1.0 / n as f32;
        assert_close(&out.scores, &vec![expect; n], 1e-5);
    }

    #[test]
    fn star_center_ranks_highest() {
        let g = GraphBuilder::new(9).edges((1..9u32).map(|v| (0, v))).build();
        let m = SlimSellMatrix::<4>::build(&g, 9);
        let out = pagerank(&m, &PageRankOptions::default());
        assert!(out.scores[0] > 3.0 * out.scores[1]);
        let sum: f32 = out.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
    }

    #[test]
    fn matches_reference_on_kronecker() {
        let g = kronecker(8, 4.0, KroneckerParams::GRAPH500, 6);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let opts = PageRankOptions::default();
        let out = pagerank(&m, &opts);
        let reference = reference_pagerank(&g, &opts);
        assert_close(&out.scores, &reference, 1e-4);
        assert!(out.residual <= opts.tolerance);
    }

    #[test]
    fn all_sweep_modes_bit_identical() {
        // The SpMV worklist must be a pure work-avoidance
        // transformation: scores, residual, and iteration count equal
        // to the bit under every sweep mode — including the skipped
        // chunks whose cached accumulators stand in for a recompute.
        let g = kronecker(8, 4.0, KroneckerParams::GRAPH500, 9);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let full = pagerank(&m, &PageRankOptions::default().sweep(SweepMode::Full));
        assert!(full.iterations > 2, "trivial convergence makes this test vacuous");
        for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
            let out = pagerank(&m, &PageRankOptions::default().sweep(sweep));
            assert_eq!(
                out.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                full.scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{sweep:?} scores diverged"
            );
            assert_eq!(out.residual.to_bits(), full.residual.to_bits(), "{sweep:?} residual");
            assert_eq!(out.iterations, full.iterations, "{sweep:?} iterations");
            assert!(
                out.stats.total_col_steps() <= full.stats.total_col_steps(),
                "{sweep:?} recomputed more than the full sweep"
            );
        }
    }

    #[test]
    fn worklist_skips_settled_chunks_in_the_convergence_tail() {
        // Two far-apart components settle at different speeds; once one
        // side's y stops moving bit-wise, its chunks must drop off the
        // SpMV worklist. The savings show up as strictly fewer total
        // column steps than iterations × full-sweep steps.
        let mut b = GraphBuilder::new(64);
        for v in 0..31u32 {
            b.edge(v, v + 1);
        }
        for v in 32..63u32 {
            b.edge(v, v + 1);
        }
        let g = b.build();
        let m = SlimSellMatrix::<4>::build(&g, 1);
        let opts = PageRankOptions::default().sweep(SweepMode::Worklist);
        let out = pagerank(&m, &opts);
        let full_steps_per_iter: u64 = {
            let s = m.structure();
            (0..s.num_chunks()).map(|i| s.cl()[i] as u64).sum()
        };
        assert!(
            out.stats.total_col_steps() < out.iterations as u64 * full_steps_per_iter,
            "worklist never skipped anything: {} vs {}",
            out.stats.total_col_steps(),
            out.iterations as u64 * full_steps_per_iter
        );
        assert!(out.stats.iters.iter().all(|i| i.sweep_mode == ExecutedSweep::Worklist));
    }

    fn reference_personalized(g: &CsrGraph, opts: &PageRankOptions, seeds: &[u32]) -> Vec<f32> {
        let n = g.num_vertices();
        let d = opts.damping;
        let w = 1.0 / seeds.len() as f32;
        let mut t = vec![0.0f32; n];
        for &v in seeds {
            t[v as usize] = w;
        }
        let mut x = t.clone();
        for _ in 0..opts.max_iterations {
            let dangling: f32 =
                (0..n as u32).filter(|&v| g.degree(v) == 0).map(|v| x[v as usize]).sum();
            let mut nxt: Vec<f32> =
                t.iter().map(|&tv| (1.0 - d) * tv + d * dangling * tv).collect();
            for v in 0..n as u32 {
                let share = x[v as usize] / g.degree(v).max(1) as f32;
                for &w2 in g.neighbors(v) {
                    nxt[w2 as usize] += d * share;
                }
            }
            let res: f32 = nxt.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
            x = nxt;
            if res < opts.tolerance {
                break;
            }
        }
        x
    }

    #[test]
    fn personalized_matches_dense_oracle() {
        let g = kronecker(8, 4.0, KroneckerParams::GRAPH500, 11);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let seeds = [3u32, 17, 42];
        let opts = PageRankOptions::default().personalize(seeds);
        let out = pagerank(&m, &opts);
        let reference = reference_personalized(&g, &opts, &seeds);
        assert_close(&out.scores, &reference, 1e-4);
        let sum: f32 = out.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "personalized mass not conserved: {sum}");
    }

    #[test]
    fn personalized_concentrates_mass_on_the_seed_component() {
        // Two disconnected paths; seeding the first component must
        // leave the second with zero score.
        let mut b = GraphBuilder::new(16);
        for v in 0..7u32 {
            b.edge(v, v + 1);
        }
        for v in 8..15u32 {
            b.edge(v, v + 1);
        }
        let g = b.build();
        let m = SlimSellMatrix::<4>::build(&g, 16);
        let out = pagerank(&m, &PageRankOptions::default().personalize([0u32, 3]));
        assert!(out.scores[..8].iter().sum::<f32>() > 0.999);
        assert!(out.scores[8..].iter().all(|&s| s == 0.0));
    }

    #[test]
    fn personalized_is_bit_identical_across_sweep_modes() {
        let g = kronecker(7, 4.0, KroneckerParams::GRAPH500, 5);
        let m = SlimSellMatrix::<4>::build(&g, g.num_vertices());
        let runs: Vec<Vec<u32>> = [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive]
            .into_iter()
            .map(|sweep| {
                pagerank(&m, &PageRankOptions::default().personalize([1u32, 9]).sweep(sweep))
                    .scores
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn personalized_seed_out_of_range_rejected() {
        let g = GraphBuilder::new(4).edges([(0, 1)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 4);
        pagerank(&m, &PageRankOptions::default().personalize([9u32]));
    }

    #[test]
    fn dangling_vertices_conserve_mass() {
        // Vertex 3 is isolated (dangling).
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 4);
        let out = pagerank(&m, &PageRankOptions::default());
        let sum: f32 = out.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        assert!(out.scores[3] > 0.0);
    }

    #[test]
    fn sorting_scope_does_not_change_scores() {
        let g = kronecker(7, 4.0, KroneckerParams::GRAPH500, 8);
        let a = pagerank(&SlimSellMatrix::<4>::build(&g, 1), &PageRankOptions::default());
        let b = pagerank(
            &SlimSellMatrix::<4>::build(&g, g.num_vertices()),
            &PageRankOptions::default(),
        );
        assert_close(&a.scores, &b.scores, 1e-5);
    }
}
