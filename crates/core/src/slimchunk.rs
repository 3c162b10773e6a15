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

use crate::bfs::{fold_from, restore_masked_lanes, BfsOptions};
use crate::counters::IterStats;
use crate::matrix::ChunkMatrix;
use crate::semiring::{copy_forward, state_changed_mask, Semiring, StateVecs};
use crate::tiling::{ChunkSet, ChunkTiling};
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
    opts: &BfsOptions,
) where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    partials.clear();
    partials.resize(tasks.len() * C, S::OP1_IDENTITY);
    let task_tiling = ChunkTiling::new(tasks.len(), opts.config.schedule);
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

/// Phase 2 for one chunk: SlimWork carry-forward if the chunk was
/// skipped, otherwise fold its tile partials (starting from the
/// chunk's previous values) with `op1` and run the semiring
/// post-processing. Under a partial vertex mask, masked-out lanes are
/// blended back to their previous state before post-processing, so
/// masked vertices stay exactly at rest (same contract as the untiled
/// engine). Returns (advanced, column steps).
#[allow(clippy::too_many_arguments)]
#[inline]
fn merge_chunk<S, const C: usize>(
    cur: &StateVecs,
    i: usize,
    cl_i: u64,
    skipped: bool,
    tasks: std::ops::Range<usize>,
    partials: &[f32],
    out: (&mut [f32], &mut [f32], &mut [f32], &mut [f32]),
    depth: f32,
    allowed: u32,
) -> (bool, u64)
where
    S: Semiring,
{
    let (nx, ng, np, dd) = out;
    let base = i * C;
    if skipped {
        copy_forward::<S>(cur, base, nx, ng, np);
        return (false, 0);
    }
    let mut acc = SimdF32::<C>::load(&cur.x[base..]);
    for t in tasks {
        acc = S::op1(acc, SimdF32::<C>::load(&partials[t * C..]));
    }
    if allowed != full_lane_mask(C) {
        acc = restore_masked_lanes(acc, &cur.x[base..], allowed);
    }
    (S::post_chunk(acc, cur, base, nx, ng, np, dd, depth), cl_i)
}

/// SlimChunk's per-phase buffers, owned by the run's engine scratch and
/// reused across iterations.
#[derive(Default)]
pub(crate) struct TaskBuffers {
    /// Task list: (chunk id, first column step, last column step).
    tasks: Vec<(usize, usize, usize)>,
    /// Per-position task-range offsets (one past each set position).
    task_start: Vec<usize>,
    /// Per-position mask / SlimWork skip flags.
    skip: Vec<bool>,
    /// Tile partial accumulators (`tasks.len() * C`).
    partials: Vec<f32>,
}

/// The 2-D tiled iteration over one [`ChunkSet`] (the whole range or
/// the worklist the policy layer seeded in [`crate::bfs::step`]): tasks
/// are generated for the set's chunks only, phase 2 sweeps the set and,
/// with `masks`, records each chunk's exact bit-wise changed lane mask
/// for the harvest. One frontier expansion; all per-phase buffers live
/// in `bufs` and are reused across iterations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn iterate_tiled<M, S, const C: usize>(
    matrix: &M,
    cur: &StateVecs,
    nxt: &mut StateVecs,
    d: &mut [f32],
    depth: f32,
    opts: &BfsOptions,
    tile_w: usize,
    set: ChunkSet<'_>,
    full: &ChunkTiling,
    masks: Option<&mut Vec<u32>>,
    bufs: &mut TaskBuffers,
) -> IterStats
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    assert!(tile_w >= 1, "tile width must be at least 1");
    let s = matrix.structure();
    let mask = opts.mask.as_deref();
    let TaskBuffers { tasks, task_start, skip, partials } = bufs;

    // Task list over set positions. Fully masked chunks and SlimWork
    // skips are applied here so skipped chunks generate no tiles at all.
    tasks.clear();
    task_start.clear();
    skip.clear();
    for pos in 0..set.len() {
        let i = set.chunk(pos);
        task_start.push(tasks.len());
        let skipped = mask.is_some_and(|m| m.allowed_real(i) == 0)
            || (opts.slimwork && S::should_skip(cur, i * C..(i + 1) * C));
        skip.push(skipped);
        if !skipped {
            push_tasks(tasks, i, s.cl()[i] as usize, tile_w);
        }
    }
    task_start.push(tasks.len());
    let skipped = skip.iter().filter(|&&k| k).count();

    phase1::<M, S, C>(matrix, cur, tasks, partials, opts);

    // Phase 2: merge partials per chunk and post-process, one sweep
    // over the set like the untiled engine.
    let (task_start, skip, partials) = (&*task_start, &*skip, &*partials);
    let (changed, col_steps, active_cells) = set.sweep(
        full,
        C,
        [&mut nxt.x[..], &mut nxt.g[..], &mut nxt.p[..], d],
        masks,
        |pos, i, [nx, ng, np, dd], flag| {
            let allowed = mask.map_or_else(|| full_lane_mask(C), |m| m.allowed(i));
            let tasks = task_start[pos]..task_start[pos + 1];
            let out = (&mut *nx, &mut *ng, &mut *np, dd);
            let cl_i = s.cl()[i] as u64;
            let (adv, steps) =
                merge_chunk::<S, C>(cur, i, cl_i, skip[pos], tasks, partials, out, depth, allowed);
            if skip[pos] {
                return (adv, steps, 0);
            }
            if let Some(f) = flag {
                *f = state_changed_mask::<S, C>(cur, i * C, nx, ng, np);
            }
            (adv, steps, s.chunk_arcs()[i])
        },
        |a, b| (a.0 | b.0, a.1 + b.1, a.2 + b.2),
    );
    IterStats {
        col_steps,
        cells: col_steps * C as u64,
        active_cells,
        changed,
        ..IterStats::visited(&set, s.num_chunks(), skipped)
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
    use crate::bfs::BfsEngine;
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
