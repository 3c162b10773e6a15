//! SlimChunk: two-dimensional chunk tiling (§III-D).
//!
//! With large sorting scopes the first chunks hold all the high-degree
//! rows, so a handful of chunks dominate the iteration ("the first chunk
//! contains all of the longest rows and consequently the corresponding
//! thread performs the majority of work, causing imbalance", §IV-A1).
//! SlimChunk splits each chunk *vertically* into tiles of at most
//! `tile_w` column steps; tiles are independent parallel tasks whose
//! partial accumulators are merged with the semiring's `op1` (which is
//! associative and commutative, making the split sound).
//!
//! SlimChunk is a tiling strategy over the chunk set a sweep visits
//! ([`ChunkSet`]: the whole range or the active worklist), so full and
//! worklist sweeps share one code path. The execution is two-phase:
//! phase 1 computes the partial accumulator of every vertical tile of
//! the set's chunks into a task-indexed buffer (parallel over tasks);
//! phase 2 sweeps the set, merging each chunk's partials, starting from
//! the chunk's previous values, and running the semiring
//! post-processing (parallel over chunks).
//!
//! Both phases follow the engine's tiled execution model
//! ([`crate::tiling`]): the task list and the chunk set are partitioned
//! into contiguous per-worker tiles whose output slabs are disjoint
//! `&mut [f32]` carved out with `split_at_mut`, with a sequential
//! fallback at one effective thread.
//!
//! # Example
//!
//! ```
//! use slimsell_core::{BfsEngine, BfsOptions, SlimSellMatrix, TropicalSemiring};
//! use slimsell_graph::GraphBuilder;
//!
//! // A star graph: one long row — the load-imbalance case SlimChunk
//! // attacks. Tile width 2 splits the hub row into parallel tasks.
//! let g = GraphBuilder::new(9).edges((1..9u32).map(|v| (0, v))).build();
//! let m = SlimSellMatrix::<4>::build(&g, 9);
//! let opts = BfsOptions { slimchunk: Some(2), ..Default::default() };
//! let out = BfsEngine::run::<_, TropicalSemiring, 4>(&m, 1, &opts);
//! assert_eq!(out.dist, vec![1, 0, 2, 2, 2, 2, 2, 2, 2]);
//! ```

use slimsell_simd::SimdF32;

use crate::bfs::{fold_from, restore_masked_lanes, ChunkKernel, ChunkWork, SemiringKernel};
use crate::matrix::ChunkMatrix;
use crate::semiring::{copy_forward, state_changed_mask, Semiring, StateVecs};
use crate::tiling::{ChunkSet, ChunkTiling, Schedule};
use crate::worklist::full_lane_mask;

/// Builds the vertical tile tasks for one chunk into `tasks`.
#[inline]
fn push_tasks(tasks: &mut Vec<(usize, usize, usize)>, i: usize, cl: usize, tile_w: usize) {
    let mut j = 0;
    while j < cl {
        tasks.push((i, j, (j + tile_w).min(cl)));
        j += tile_w;
    }
}

/// Phase 1: tile partials, parallel over contiguous task ranges with
/// disjoint slabs of the (reused) partials buffer — the "chunks" of
/// this tiling are the vertical tile tasks.
fn phase1<M, S, const C: usize>(
    matrix: &M,
    cur: &StateVecs,
    tasks: &[(usize, usize, usize)],
    partials: &mut Vec<f32>,
    schedule: Schedule,
) where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    partials.clear();
    partials.resize(tasks.len() * C, S::OP1_IDENTITY);
    let task_tiling = ChunkTiling::new(tasks.len(), schedule);
    let slabs = task_tiling.split(C, partials);
    task_tiling.for_each(slabs, |slab| {
        for (off, buf) in slab.data.chunks_mut(C).enumerate() {
            let (i, j0, j1) = tasks[slab.c0 + off];
            // Each tile starts from the `op1` identity; the chunk's
            // previous values are merged in phase 2.
            let index = matrix.structure().cs()[i] + j0 * C;
            let acc = SimdF32::splat(S::OP1_IDENTITY);
            fold_from::<M, S, C>(matrix, &cur.x, index, (j1 - j0) as u32, acc).store(buf);
        }
    });
}

/// Phase 2 for one unskipped chunk: folds its tile partials (starting
/// from the chunk's previous values) with `op1` and runs the semiring
/// post-processing. Under a partial vertex mask, masked-out lanes are
/// blended back to their previous state before post-processing, so
/// masked vertices stay exactly at rest (same contract as the untiled
/// engine). Returns whether the chunk advanced.
#[inline]
fn merge_chunk<S, const C: usize>(
    cur: &StateVecs,
    i: usize,
    partials: &[f32],
    out: (&mut [f32], &mut [f32], &mut [f32], &mut [f32]),
    depth: f32,
    allowed: u32,
) -> bool
where
    S: Semiring,
{
    let (nx, ng, np, dd) = out;
    let base = i * C;
    let mut acc = SimdF32::<C>::load(&cur.x[base..]);
    for part in partials.chunks_exact(C) {
        acc = S::op1(acc, SimdF32::<C>::load(part));
    }
    if allowed != full_lane_mask(C) {
        acc = restore_masked_lanes(acc, &cur.x[base..], allowed);
    }
    S::post_chunk(acc, cur, base, nx, ng, np, dd, depth)
}

/// SlimChunk's per-phase buffers, reused across iterations.
#[derive(Default)]
struct TaskBuffers {
    /// Task list: (chunk id, first column step, last column step).
    tasks: Vec<(usize, usize, usize)>,
    /// Per-position task-range offsets (one past each set position).
    task_start: Vec<usize>,
    /// Per-position mask / SlimWork skip flags.
    skip: Vec<bool>,
    /// Tile partial accumulators (`tasks.len() * C`).
    partials: Vec<f32>,
}

/// The 2-D tiled kernel: the semiring engine's kernel with each sweep
/// split in two. [`prepare`](ChunkKernel::prepare) generates tasks for
/// the swept set's chunks only (the whole range or the worklist the
/// policy layer seeded) and computes their partials (phase 1);
/// [`chunk`](ChunkKernel::chunk) merges a chunk's partials and
/// post-processes it (phase 2). All per-phase buffers are reused across
/// iterations.
pub(crate) struct TiledKernel<'a, M, S, const C: usize> {
    engine: SemiringKernel<'a, M, S, C>,
    tile_w: usize,
    schedule: Schedule,
    bufs: TaskBuffers,
}

impl<'a, M, S, const C: usize> TiledKernel<'a, M, S, C> {
    /// Tiles `engine`'s chunks `tile_w` column steps wide, running the
    /// tasks under `schedule`.
    ///
    /// # Panics
    /// Panics if `tile_w` is 0.
    pub(crate) fn new(
        engine: SemiringKernel<'a, M, S, C>,
        tile_w: usize,
        schedule: Schedule,
    ) -> Self {
        assert!(tile_w >= 1, "tile width must be at least 1");
        Self { engine, tile_w, schedule, bufs: TaskBuffers::default() }
    }
}

impl<M: ChunkMatrix<C>, S: Semiring, const C: usize> ChunkKernel<C, 4>
    for TiledKernel<'_, M, S, C>
{
    type State = StateVecs;
    type Kept = Vec<f32>;
    const WIDTH: usize = C;

    fn init(&self, roots: &[usize], worklist: bool) -> (StateVecs, StateVecs, Vec<f32>) {
        self.engine.init(roots, worklist)
    }

    fn slabs<'b>(nxt: &'b mut StateVecs, d: &'b mut Vec<f32>) -> [&'b mut [f32]; 4] {
        SemiringKernel::<M, S, C>::slabs(nxt, d)
    }

    /// Builds the task list over set positions, then phase 1. Fully
    /// masked chunks and SlimWork skips are applied here so skipped
    /// chunks generate no tiles at all.
    fn prepare(&mut self, cur: &StateVecs, set: ChunkSet<'_>) {
        let SemiringKernel { matrix, slimwork, mask, .. } = self.engine;
        let TaskBuffers { tasks, task_start, skip, partials } = &mut self.bufs;
        tasks.clear();
        task_start.clear();
        skip.clear();
        for pos in 0..set.len() {
            let i = set.chunk(pos);
            task_start.push(tasks.len());
            let skipped = mask.is_some_and(|m| m.allowed_real(i) == 0)
                || (slimwork && S::should_skip(cur, i * C..(i + 1) * C));
            skip.push(skipped);
            if !skipped {
                push_tasks(tasks, i, matrix.structure().cl()[i] as usize, self.tile_w);
            }
        }
        task_start.push(tasks.len());
        phase1::<M, S, C>(matrix, cur, tasks, partials, self.schedule);
    }

    #[inline]
    fn chunk(
        &self,
        cur: &StateVecs,
        pos: usize,
        i: usize,
        [nx, ng, np, dd]: [&mut [f32]; 4],
        flag: Option<&mut u32>,
        depth: f32,
    ) -> ChunkWork {
        let TaskBuffers { task_start, skip, partials, .. } = &self.bufs;
        if skip[pos] {
            copy_forward::<S>(cur, i * C, nx, ng, np);
            return (false, 0, 0, 1);
        }
        let allowed = self.engine.mask.map_or_else(|| full_lane_mask(C), |m| m.allowed(i));
        let parts = &partials[task_start[pos] * C..task_start[pos + 1] * C];
        let out = (&mut *nx, &mut *ng, &mut *np, dd);
        let adv = merge_chunk::<S, C>(cur, i, parts, out, depth, allowed);
        if let Some(f) = flag {
            *f = state_changed_mask::<S, C>(cur, i * C, nx, ng, np);
        }
        let s = self.engine.matrix.structure();
        (adv, s.cl()[i] as u64, s.chunk_arcs()[i], 0)
    }
}

/// Maximum number of column steps any single task executes — the measure
/// of load imbalance SlimChunk attacks. Exposed for the Fig. 6d/e
/// analyses.
pub fn max_task_height<const C: usize>(cl: &[u32], tile_w: Option<usize>) -> usize {
    match tile_w {
        None => cl.iter().copied().max().unwrap_or(0) as usize,
        Some(w) => cl.iter().map(|&c| (c as usize).min(w)).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{BfsEngine, BfsOptions};
    use crate::matrix::SlimSellMatrix;
    use crate::semiring::{BooleanSemiring, RealSemiring, SelMaxSemiring, TropicalSemiring};
    use slimsell_graph::{serial_bfs, GraphBuilder};

    #[test]
    fn tiled_matches_untiled_all_semirings() {
        // Star graph: one huge row, many tiny ones — the SlimChunk case.
        let n = 40u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 1..n {
            b.edge(0, v);
        }
        for v in 1..n - 1 {
            b.edge(v, v + 1);
        }
        let g = b.build();
        let slim = SlimSellMatrix::<4>::build(&g, n as usize);
        let reference = serial_bfs(&g, 5);
        for tile_w in [1, 3, 8, 100] {
            let opts = BfsOptions { slimchunk: Some(tile_w), ..Default::default() };
            macro_rules! check {
                ($sem:ty) => {
                    let out = BfsEngine::run::<_, $sem, 4>(&slim, 5, &opts);
                    assert_eq!(out.dist, reference.dist, "{} tile_w={tile_w}", <$sem>::NAME);
                };
            }
            check!(TropicalSemiring);
            check!(BooleanSemiring);
            check!(RealSemiring);
            check!(SelMaxSemiring);
        }
    }

    #[test]
    fn max_task_height_shrinks_with_tiling() {
        let cl = [100u32, 3, 2, 1];
        assert_eq!(max_task_height::<4>(&cl, None), 100);
        assert_eq!(max_task_height::<4>(&cl, Some(8)), 8);
        assert_eq!(max_task_height::<4>(&cl, Some(256)), 100);
    }

    #[test]
    fn slimwork_composes_with_slimchunk() {
        let n = 64u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        let opts = BfsOptions { slimchunk: Some(2), slimwork: true, ..Default::default() };
        let out = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &opts);
        assert_eq!(out.dist, serial_bfs(&g, 0).dist);
        assert!(out.stats.total_skipped() > 0);
    }

    #[test]
    #[should_panic(expected = "tile width")]
    fn zero_tile_width_rejected() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        let opts = BfsOptions { slimchunk: Some(0), ..Default::default() };
        BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &opts);
    }
}
