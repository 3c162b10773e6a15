//! The parallel BFS-SpMV driver.
//!
//! One generic engine serves all four semirings and both representations:
//! each iteration expands the frontier by one hop with a chunk-parallel
//! MV product (Listing 5/6), optionally skipping finished chunks
//! (SlimWork, §III-C) and optionally tiling chunks in two dimensions
//! (SlimChunk, §III-D). Chunks are distributed over threads with either
//! static or dynamic scheduling, modeling the paper's `omp-s`/`omp-d`
//! configurations (§IV-A1).
//!
//! Data-parallel safety: iteration `k` reads the previous iteration's
//! vectors (`cur`) and writes chunk-disjoint slices of the next vectors
//! (`nxt`) and of the persistent distance vector `d`, so the rayon loop
//! is race-free by construction.
//!
//! Parallel execution model: each iteration sweeps one [`ChunkSet`] —
//! the whole chunk range or the active worklist — through
//! [`ChunkSet::sweep`], which partitions the set into contiguous
//! per-worker tiles whose output slabs are carved out of the state
//! vectors with `split_at_mut` — disjoint `&mut [f32]` ownership, no
//! locks, no atomics on the frontier. Static scheduling makes exactly
//! one tile per thread (OpenMP static); dynamic scheduling
//! over-partitions so fast threads steal leftover tiles (OpenMP
//! dynamic). When the effective thread count is 1 the engine takes a
//! plain sequential loop over chunks — the reference oracle the
//! determinism tests compare parallel runs against. Outputs are
//! bit-identical across thread counts and schedules because every
//! chunk's math is independent and writes are positional. The same
//! sweep (shared via [`crate::tiling`]) drives SlimChunk, PageRank,
//! multi-source BFS and the betweenness forward sweep, and one span
//! runner serves full and worklist sweeps alike. Weighted SSSP is this
//! engine's tropical loop over a weighted matrix ([`mod@crate::sssp`]).
//!
//! Worklist sweeps ([`SweepMode::Worklist`]) replace the full sweep
//! with frontier-proportional sweeps over an active-chunk worklist:
//! each iteration's exactly-detected changed chunks and lanes are
//! walked in the matrix's own column slab ([`crate::worklist`]) — the
//! chunks their rows point into are the only chunks whose output can
//! differ next iteration — and an epoch-stamped activation array turns
//! them into the next sorted worklist. No dependency graph is built.
//! The invariant making this sound with double buffering:
//! outside the worklist, `nxt` already equals `cur` bit-for-bit (a
//! chunk leaves the list only after an iteration in which its output
//! did not change), so untouched chunks need no copy-forward and the
//! buffer swap is safe. Distances, parents, iteration count and the
//! work each *processed* chunk does are bit-identical to the full
//! sweep; only the visit/skip accounting differs (see
//! [`IterStats::chunks_not_on_worklist`]).
//!
//! Which chunk set runs is decided by the [`SweepMode`] policy layer
//! ([`crate::sweep`]): [`BfsOptions::config`] selects pure full sweeps,
//! pure worklist sweeps, or — the default — the adaptive gate, which
//! sweeps the worklist while the seed chunks hold under 1/3 of the
//! matrix's cells. Adaptive full sweeps *record* per-chunk bit-exact
//! change masks, like every worklist sweep, so the worklist can be
//! re-seeded correctly on every full→worklist transition; see the
//! `sweep` module docs for the re-seeding invariant. The 1-thread
//! full-sweep run remains the oracle the equivalence suite compares
//! every mode against.

use std::sync::Arc;
use std::time::Instant;

use slimsell_graph::{VertexId, UNREACHABLE};
use slimsell_simd::SimdF32;

use crate::counters::{IterStats, RunStats};
use crate::mask::VertexMask;
use crate::matrix::ChunkMatrix;
use crate::semiring::{clone_state, copy_forward, state_changed_mask, Semiring, StateVecs};
use crate::slimchunk;
use crate::sweep::{resolve_sweep, SweepConfig, SweepMode};
use crate::tiling::{ChunkSet, ChunkTiling};
use crate::worklist::{full_lane_mask, ActivationState};

pub use crate::tiling::Schedule;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct BfsOptions {
    /// Enable SlimWork chunk skipping (§III-C).
    pub slimwork: bool,
    /// Enable SlimChunk 2-D tiling with the given tile width in column
    /// steps (§III-D). `None` disables tiling.
    pub slimchunk: Option<usize>,
    /// Safety cap on iterations (defaults to `n + 1`).
    pub max_iterations: Option<usize>,
    /// Sweep strategy and tile schedule (shared by every kernel's
    /// options). The sweep modes: full-range sweeps,
    /// frontier-proportional worklist sweeps (per-iteration cost
    /// `O(|worklist|)` instead of `O(n_chunks)`, the big win on
    /// high-diameter graphs), or the default adaptive gate that
    /// switches between them per iteration. Outputs are bit-identical
    /// in every mode. Defaults to the `SLIMSELL_SWEEP` env var
    /// (adaptive when unset).
    pub config: SweepConfig,
    /// Restrict the sweep to a vertex subset: vertices outside the
    /// mask keep their initial (rest) state forever and the traversal
    /// behaves as if they were deleted from the graph. Fully masked
    /// chunks are skipped before the SlimWork probe and before any
    /// worklist activation probe; partially masked chunks blend the
    /// masked-out lanes back to their previous values after the MV, so
    /// a full mask is bit-for-bit identical to `None` — counters
    /// included. `None` sweeps the whole graph.
    pub mask: Option<Arc<VertexMask>>,
}

impl Default for BfsOptions {
    fn default() -> Self {
        Self {
            slimwork: true,
            slimchunk: None,
            max_iterations: None,
            config: SweepConfig::default(),
            mask: None,
        }
    }
}

impl BfsOptions {
    /// The paper's baseline configuration: SlimWork off, full sweeps,
    /// dynamic scheduling (corresponds to "No SlimWork" in Fig. 5d).
    pub fn plain() -> Self {
        Self { slimwork: false, ..Self::default() }.sweep(SweepMode::Full)
    }

    /// Returns the options with the sweep mode replaced.
    #[must_use]
    pub fn sweep(mut self, sweep: SweepMode) -> Self {
        self.config.sweep = sweep;
        self
    }

    /// Returns the options with the tile schedule replaced.
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Returns the options with the whole sweep config replaced.
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Returns the options with the vertex mask replaced.
    #[must_use]
    pub fn mask(mut self, mask: Option<Arc<VertexMask>>) -> Self {
        self.mask = mask;
        self
    }
}

/// BFS output in original (un-permuted) vertex ids.
#[derive(Clone, Debug)]
pub struct BfsOutput {
    /// Hop distances; [`UNREACHABLE`] for vertices not reached.
    pub dist: Vec<u32>,
    /// BFS-tree parents if the semiring computes them (sel-max); the root
    /// is its own parent, unreachable vertices get [`UNREACHABLE`].
    pub parent: Option<Vec<VertexId>>,
    /// Per-iteration statistics.
    pub stats: RunStats,
}

/// Per-run reusable buffers, made by [`init_run`] for the engine loop
/// and the direction-optimized driver and threaded through every
/// iteration so the hot loop allocates nothing proportional to the
/// graph: the run's full-range tiling, the worklist activation
/// machinery, the sweep's change masks and SlimChunk's per-phase
/// buffers all persist across hops.
pub(crate) struct EngineScratch {
    /// The full-range tiling of the run's chunks under its schedule.
    pub(crate) tiling: ChunkTiling,
    /// Worklist activation machinery (stamps, worklist).
    pub(crate) act: ActivationState,
    /// Seeds for the next worklist: `(chunk, lane mask)` pairs for
    /// chunks whose state changed this iteration, with the mask naming
    /// the changed rows (the direction-optimized driver also appends
    /// the lanes its top-down steps labeled).
    pub(crate) pending: Vec<(u32, u32)>,
    /// Per-position changed lane masks recorded by the current sweep.
    pub(crate) masks: Vec<u32>,
    /// SlimChunk's task list, offsets, skip flags and tile partials.
    pub(crate) tasks: slimchunk::TaskBuffers,
}

/// The BFS-SpMV engine. Stateless; methods are entry points.
pub struct BfsEngine;

impl BfsEngine {
    /// Runs BFS from `root` (original vertex id) over `matrix` with
    /// semiring `S`. When [`BfsOptions::mask`] is set the traversal is
    /// confined to the masked subgraph: edges into or out of masked
    /// vertices are never taken and masked vertices come back
    /// unreached.
    ///
    /// # Panics
    /// Panics if `root` is out of range, if a mask was built for a
    /// different structure, or if `root` is outside the mask (a masked
    /// root's seeded state would leak distance 0 to its neighbors, so
    /// it is rejected loudly rather than answered wrongly).
    pub fn run<M, S, const C: usize>(matrix: &M, root: VertexId, opts: &BfsOptions) -> BfsOutput
    where
        M: ChunkMatrix<C>,
        S: Semiring,
    {
        let (cur, d, stats) = run_state::<M, S, C>(matrix, root, opts, false, |_, _, _| {});
        let s = matrix.structure();
        let perm = s.perm();
        let dist_f = S::distances(&cur, &d);
        let dist: Vec<u32> = (0..s.n())
            .map(|old| {
                let v = dist_f[perm.to_new(old as VertexId) as usize];
                if v.is_finite() {
                    v as u32
                } else {
                    UNREACHABLE
                }
            })
            .collect();
        let parent = S::parents(&cur).map(|p| {
            (0..s.n())
                .map(|old| {
                    let pv = p[perm.to_new(old as VertexId) as usize];
                    if pv == 0.0 {
                        UNREACHABLE
                    } else {
                        perm.to_old(pv as VertexId - 1)
                    }
                })
                .collect()
        });
        BfsOutput { dist, parent, stats }
    }
}

/// The setup every engine run shares: checks `root` (range, mask
/// layout, mask membership), initializes `cur` and `d` with `S`, tiles
/// the chunks once for the run's full sweeps and, when the run may
/// sweep a worklist, establishes the worklist
/// invariant (`nxt` equals `cur` on the vectors `S` declares) and seeds
/// the pending list with the root's lane. Returns (`cur`, `nxt`, `d`,
/// scratch, permuted root).
pub(crate) fn init_run<M, S, const C: usize>(
    matrix: &M,
    root: VertexId,
    opts: &BfsOptions,
) -> (StateVecs, StateVecs, Vec<f32>, EngineScratch, usize)
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    let s = matrix.structure();
    let n = s.n();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let root_p = s.perm().to_new(root) as usize;
    if let Some(m) = opts.mask.as_deref() {
        m.check_layout(s);
        assert!(m.contains(root_p), "root {root} is not in the resolved vertex mask");
    }
    let np = s.n_padded();
    let mut cur = StateVecs::new(np);
    let mut nxt = StateVecs::new(np);
    let mut d = vec![0.0f32; np];
    S::init(&mut cur, &mut d, n, root_p);
    let mut scratch = EngineScratch {
        tiling: ChunkTiling::new(s.num_chunks(), opts.config.schedule),
        act: ActivationState::new(),
        pending: Vec::new(),
        masks: Vec::new(),
        tasks: slimchunk::TaskBuffers::default(),
    };
    if opts.config.sweep.uses_worklist() {
        clone_state::<S>(&cur, &mut nxt);
        scratch.pending.push(((root_p / C) as u32, 1u32 << (root_p % C)));
    }
    (cur, nxt, d, scratch, root_p)
}

/// The engine loop behind [`BfsEngine::run`], SSSP and the betweenness
/// forward sweep: iterates [`step`] from `root` until no chunk changes
/// (or the iteration cap), and returns the final state and distance
/// vectors in permuted ids with the run's statistics.
///
/// `record` forces change recording in pure full-sweep runs too (runs
/// that may sweep a worklist always record; see [`step`]). After each
/// step, before the buffer swap, `observe` sees the next state, the
/// step's harvested `(chunk, lane mask)` change list (empty unless
/// recording) and the depth.
pub(crate) fn run_state<M, S, const C: usize>(
    matrix: &M,
    root: VertexId,
    opts: &BfsOptions,
    record: bool,
    mut observe: impl FnMut(&StateVecs, &[(u32, u32)], u32),
) -> (StateVecs, Vec<f32>, RunStats)
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    let (mut cur, mut nxt, mut d, mut scratch, _) = init_run::<M, S, C>(matrix, root, opts);
    let record = record || opts.config.sweep.uses_worklist();
    let mut stats = RunStats::default();
    let max_iters = opts.max_iterations.unwrap_or(matrix.structure().n() + 1);
    let mut depth = 0u32;
    loop {
        depth += 1;
        let t0 = Instant::now();
        let mut it = step::<M, S, C>(
            matrix,
            &cur,
            &mut nxt,
            &mut d,
            depth as f32,
            opts,
            &mut scratch,
            record,
        );
        it.elapsed = t0.elapsed();
        let changed = it.changed;
        stats.iters.push(it);
        observe(&nxt, &scratch.pending, depth);
        std::mem::swap(&mut cur, &mut nxt);
        if !changed || depth as usize >= max_iters {
            break;
        }
    }
    (cur, d, stats)
}

/// The MV fold every chunk kernel runs: folds `$steps` column steps of
/// semiring `$S`, starting at cell `$index` of chunk-major `col`/`vals`,
/// into the accumulator `$acc` (`acc = op1(acc, op2(vals, rhs))` with
/// `rhs` gathered from `$x`), and evaluates to the result. [`chunk_mv`]
/// starts from the chunk's previous values; [`fold_from`] takes the
/// start accumulator of SlimChunk tiles (the `op1` identity) and
/// PageRank (zero). A macro, not an `#[inline(always)]` function,
/// because the expanded loop compiles exactly as if written at each
/// call site: through the inlined function, `chunk_mv` compiled
/// differently and weighted SSSP on Kronecker 2^16 ran ~8% slower
/// (2-CPU x86-64 host, SSE2 build).
macro_rules! mv_fold {
    ($matrix:expr, $S:ty, $C:ident, $x:expr, $index:expr, $steps:expr, $acc:expr) => {{
        let matrix = $matrix;
        let col = matrix.structure().col();
        let mut acc = $acc;
        let mut index = $index;
        for _ in 0..$steps {
            let cols = ::slimsell_simd::SimdI32::<$C>::load(&col[index..]);
            let vals = matrix.vals(index, cols, <$S as $crate::semiring::Semiring>::PAD);
            let rhs = ::slimsell_simd::SimdF32::gather_or($x, cols, 0.0);
            acc = <$S as $crate::semiring::Semiring>::combine(acc, vals, rhs);
            index += $C;
        }
        acc
    }};
}

/// [`mv_fold!`] from a caller-given start accumulator, behind an
/// `#[inline]` function boundary: expanded directly inside PageRank's
/// sweep closure, LLVM compiled the real-semiring lane adds as scalar
/// `addss` instead of packed `addps`.
#[inline]
pub(crate) fn fold_from<M, S, const C: usize>(
    matrix: &M,
    x: &[f32],
    index: usize,
    steps: u32,
    acc: SimdF32<C>,
) -> SimdF32<C>
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    mv_fold!(matrix, S, C, x, index, steps, acc)
}

/// The per-chunk MV kernel (Listing 5 lines 3–21 / Listing 6): starts the
/// accumulator from the chunk's previous values, then folds `cl[i]`
/// column steps. Public so alternative execution engines (e.g. the SIMT
/// simulator in `slimsell-simt`) run bit-identical chunk math.
#[inline]
pub fn chunk_mv<M, S, const C: usize>(matrix: &M, x: &[f32], i: usize) -> SimdF32<C>
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    let s = matrix.structure();
    mv_fold!(matrix, S, C, x, s.cs()[i], s.cl()[i], SimdF32::<C>::load(&x[i * C..]))
}

/// The partial-mask lane blend: lanes of `acc` outside `allowed` take
/// their previous values `prev[l]` back, so the post-processing sees
/// them as not having run.
#[inline]
pub(crate) fn restore_masked_lanes<const C: usize>(
    acc: SimdF32<C>,
    prev: &[f32],
    allowed: u32,
) -> SimdF32<C> {
    SimdF32::from_fn(|l| if allowed & (1 << l) != 0 { acc.0[l] } else { prev[l] })
}

/// One chunk of one iteration: mask/SlimWork skip tests, MV kernel,
/// per-lane mask blend, semiring post-processing. Returns (changed,
/// column steps, active cells, skipped) — active cells are the chunk's
/// non-padding cells (its stored arcs), the numerator of the measured
/// lane utilization.
///
/// Masking happens at two points. A chunk with no allowed real lane is
/// skipped outright (one `u32` test, before the SlimWork probe — same
/// copy-forward, same `chunks_skipped` accounting). A partially masked
/// chunk runs the full MV, then the masked-out lanes of the
/// accumulator are blended back to their *previous* values before the
/// semiring post-processing: with `acc[lane] == cur.x[lane]` every
/// shipped semiring's post-processing leaves that lane's entire state
/// (x, g, p, d) bit-identical and reports it unchanged — exactly "this
/// lane did not run", without any per-semiring masking hooks. A full
/// mask therefore reproduces the unmasked path bit-for-bit.
#[inline]
fn do_chunk<M, S, const C: usize>(
    matrix: &M,
    cur: &StateVecs,
    i: usize,
    out: (&mut [f32], &mut [f32], &mut [f32], &mut [f32]),
    depth: f32,
    slimwork: bool,
    mask: Option<&VertexMask>,
) -> (bool, u64, u64, usize)
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    let (nx, ng, np, dd) = out;
    let base = i * C;
    let allowed = mask.map_or_else(|| full_lane_mask(C), |m| m.allowed(i));
    if let Some(m) = mask {
        if m.allowed_real(i) == 0 {
            // Fully masked (no allowed real lane): forward verbatim.
            copy_forward::<S>(cur, base, nx, ng, np);
            return (false, 0, 0, 1);
        }
    }
    if slimwork && S::should_skip(cur, base..base + C) {
        copy_forward::<S>(cur, base, nx, ng, np);
        return (false, 0, 0, 1);
    }
    // The unmasked arm keeps its own `chunk_mv` call: sharing one with
    // the blend arm costs the hot loop registers.
    let acc = if allowed == full_lane_mask(C) {
        chunk_mv::<M, S, C>(matrix, &cur.x, i)
    } else {
        restore_masked_lanes(chunk_mv::<M, S, C>(matrix, &cur.x, i), &cur.x[base..], allowed)
    };
    let changed = S::post_chunk(acc, cur, base, nx, ng, np, dd, depth);
    let s = matrix.structure();
    (changed, s.cl()[i] as u64, s.chunk_arcs()[i], 0)
}

/// One frontier expansion: the sweep-policy decision
/// ([`resolve_sweep`] picks this iteration's [`ChunkSet`], seeding the
/// worklist when one is due), one sweep over that set (untiled or
/// SlimChunk) and, when `record` is set, the harvest of the sweep's
/// change masks into the pending seed list. The shared entry point of
/// the engine loop ([`run_state`]) and the direction-optimized driver.
///
/// `record` is the caller's change-tracking rule. Runs that may sweep a
/// worklist ([`SweepMode::uses_worklist`]) record every sweep: worklist
/// sweeps seed the next worklist from their masks, and adaptive full
/// sweeps keep the pending list current for the next full→worklist
/// transition (see [`crate::sweep`]). Pure full-sweep runs never pay
/// for change detection. The betweenness forward sweep records in every
/// mode, because the harvest is its frontier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step<M, S, const C: usize>(
    matrix: &M,
    cur: &StateVecs,
    nxt: &mut StateVecs,
    d: &mut [f32],
    depth: f32,
    opts: &BfsOptions,
    scratch: &mut EngineScratch,
    record: bool,
) -> IterStats
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    let s = matrix.structure();
    let EngineScratch { tiling: full, act, pending, masks, tasks } = scratch;
    let mask = opts.mask.as_deref();
    let (set, seeded) = resolve_sweep(opts.config.sweep, act, s.column_slab(), pending, mask);
    let recorded = record.then_some(&mut *masks);
    let mut it = match opts.slimchunk {
        None => iterate::<M, S, C>(matrix, cur, nxt, d, depth, opts, set, full, recorded),
        Some(w) => slimchunk::iterate_tiled::<M, S, C>(
            matrix, cur, nxt, d, depth, opts, w, set, full, recorded, tasks,
        ),
    };
    if record {
        it.changed_chunks = set.harvest(masks, pending);
    }
    it.activations = seeded.unwrap_or(0);
    it
}

/// One frontier expansion over `set`: the span runner. Each chunk runs
/// [`do_chunk`] on its slots of the next state vectors and the distance
/// vector; with `masks`, it also records the chunk's exact bit-wise
/// changed lane mask (a skipped chunk forwarded its state verbatim, so
/// its mask stays 0).
#[allow(clippy::too_many_arguments)]
fn iterate<M, S, const C: usize>(
    matrix: &M,
    cur: &StateVecs,
    nxt: &mut StateVecs,
    d: &mut [f32],
    depth: f32,
    opts: &BfsOptions,
    set: ChunkSet<'_>,
    full: &ChunkTiling,
    masks: Option<&mut Vec<u32>>,
) -> IterStats
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    let (slimwork, mask) = (opts.slimwork, opts.mask.as_deref());
    let (changed, col_steps, active_cells, skipped) = set.sweep(
        full,
        C,
        [&mut nxt.x[..], &mut nxt.g[..], &mut nxt.p[..], d],
        masks,
        |_, i, [nx, ng, np, dd], flag| {
            let out = (&mut *nx, &mut *ng, &mut *np, dd);
            let (c, steps, arcs, skip) =
                do_chunk::<M, S, C>(matrix, cur, i, out, depth, slimwork, mask);
            if let (Some(f), 0) = (flag, skip) {
                *f = state_changed_mask::<S, C>(cur, i * C, nx, ng, np);
            }
            (c, steps, arcs, skip)
        },
        |a, b| (a.0 | b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3),
    );
    IterStats {
        col_steps,
        cells: col_steps * C as u64,
        active_cells,
        changed,
        ..IterStats::visited(&set, matrix.structure().num_chunks(), skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{SellCSigma, SlimSellMatrix};
    use crate::semiring::{BooleanSemiring, RealSemiring, SelMaxSemiring, TropicalSemiring};
    use crate::sweep::ExecutedSweep;
    use slimsell_graph::{serial_bfs, validate_parents, CsrGraph, GraphBuilder};

    fn sample() -> CsrGraph {
        // Two components; varied degrees.
        GraphBuilder::new(11)
            .edges([
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 4),
                (4, 5),
                (5, 6),
                (3, 6),
                (8, 9),
                (9, 10),
            ])
            .build()
    }

    fn check_dist<S: Semiring>(g: &CsrGraph, sigma: usize, root: VertexId, opts: &BfsOptions) {
        let reference = serial_bfs(g, root);
        let slim = SlimSellMatrix::<4>::build(g, sigma);
        let out = BfsEngine::run::<_, S, 4>(&slim, root, opts);
        assert_eq!(out.dist, reference.dist, "{} sigma={sigma} slimsell", S::NAME);
        if let Some(p) = &out.parent {
            validate_parents(g, root, &out.dist, p).unwrap();
        }
        let sell = SellCSigma::<4>::build(g, sigma, S::PAD);
        let out2 = BfsEngine::run::<_, S, 4>(&sell, root, opts);
        assert_eq!(out2.dist, reference.dist, "{} sigma={sigma} sell-c-sigma", S::NAME);
    }

    #[test]
    fn all_semirings_match_reference() {
        let g = sample();
        for sigma in [1, 4, 11] {
            for root in [0u32, 6, 8] {
                check_dist::<TropicalSemiring>(&g, sigma, root, &BfsOptions::default());
                check_dist::<BooleanSemiring>(&g, sigma, root, &BfsOptions::default());
                check_dist::<RealSemiring>(&g, sigma, root, &BfsOptions::default());
                check_dist::<SelMaxSemiring>(&g, sigma, root, &BfsOptions::default());
            }
        }
    }

    #[test]
    fn slimwork_off_matches() {
        let g = sample();
        check_dist::<TropicalSemiring>(&g, 11, 0, &BfsOptions::plain());
        check_dist::<SelMaxSemiring>(&g, 11, 0, &BfsOptions::plain());
    }

    #[test]
    fn static_schedule_matches() {
        let g = sample();
        let opts = BfsOptions::default().schedule(Schedule::Static);
        check_dist::<BooleanSemiring>(&g, 4, 0, &opts);
    }

    #[test]
    fn slimchunk_matches() {
        let g = sample();
        let opts = BfsOptions { slimchunk: Some(2), ..Default::default() };
        check_dist::<TropicalSemiring>(&g, 11, 0, &opts);
        check_dist::<BooleanSemiring>(&g, 11, 0, &opts);
        check_dist::<RealSemiring>(&g, 11, 0, &opts);
        check_dist::<SelMaxSemiring>(&g, 11, 0, &opts);
    }

    #[test]
    fn unreachable_vertices_marked() {
        let g = sample();
        let slim = SlimSellMatrix::<4>::build(&g, 11);
        let out = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &BfsOptions::default());
        assert_eq!(out.dist[8], UNREACHABLE);
        assert_eq!(out.dist[7], UNREACHABLE); // isolated
    }

    #[test]
    fn selmax_root_is_own_parent() {
        let g = sample();
        let slim = SlimSellMatrix::<4>::build(&g, 11);
        let out = BfsEngine::run::<_, SelMaxSemiring, 4>(&slim, 3, &BfsOptions::default());
        let p = out.parent.unwrap();
        assert_eq!(p[3], 3);
        assert_eq!(p[7], UNREACHABLE);
    }

    #[test]
    fn slimwork_reduces_work() {
        // On a path graph most chunks finish early; SlimWork must skip.
        let n = 64u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        let with = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &BfsOptions::default());
        let without = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &BfsOptions::plain());
        assert_eq!(with.dist, without.dist);
        assert!(with.stats.total_skipped() > 0, "no chunks skipped");
        assert!(with.stats.total_cells() < without.stats.total_cells());
    }

    #[test]
    fn worklist_matches_reference_all_semirings() {
        let g = sample();
        let opts = BfsOptions::default().sweep(SweepMode::Worklist);
        for sigma in [1, 4, 11] {
            for root in [0u32, 6, 8] {
                check_dist::<TropicalSemiring>(&g, sigma, root, &opts);
                check_dist::<BooleanSemiring>(&g, sigma, root, &opts);
                check_dist::<RealSemiring>(&g, sigma, root, &opts);
                check_dist::<SelMaxSemiring>(&g, sigma, root, &opts);
            }
        }
    }

    #[test]
    fn worklist_composes_with_slimwork_off_slimchunk_and_static() {
        let g = sample();
        for slimwork in [false, true] {
            for slimchunk in [None, Some(2)] {
                for schedule in [Schedule::Static, Schedule::Dynamic] {
                    let opts = BfsOptions { slimwork, slimchunk, ..Default::default() }
                        .sweep(SweepMode::Worklist)
                        .schedule(schedule);
                    check_dist::<TropicalSemiring>(&g, 11, 0, &opts);
                    check_dist::<BooleanSemiring>(&g, 11, 0, &opts);
                    check_dist::<SelMaxSemiring>(&g, 11, 0, &opts);
                }
            }
        }
    }

    #[test]
    fn worklist_reduces_column_steps_on_path() {
        // The wavefront case: a long path where a full sweep visits all
        // chunks every hop (unreached chunks fail the SlimWork test and
        // run their MV), but the worklist keeps only the chunks around
        // the frontier.
        let n = 256u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        let full = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Full),
        );
        let wl = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Worklist),
        );
        assert_eq!(wl.dist, full.dist);
        assert_eq!(wl.stats.num_iterations(), full.stats.num_iterations());
        assert!(
            wl.stats.total_col_steps() < full.stats.total_col_steps(),
            "worklist {} !< full {}",
            wl.stats.total_col_steps(),
            full.stats.total_col_steps()
        );
        assert!(wl.stats.total_not_on_worklist() > 0);
        assert!(wl.stats.total_activations() > 0);
        let nc = slim.structure().num_chunks();
        for it in &wl.stats.iters {
            assert_eq!(it.chunks_processed + it.chunks_skipped, it.worklist_len);
            assert_eq!(it.chunks_not_on_worklist, nc - it.worklist_len);
        }
        for it in &full.stats.iters {
            assert_eq!(it.worklist_len, nc);
            assert_eq!(it.chunks_not_on_worklist, 0);
        }
    }

    #[test]
    fn worklist_iteration_counters_match_full_sweep_work_done() {
        // Processed chunks do identical math in both modes: per
        // iteration, the worklist's column steps can never exceed the
        // full sweep's, and the totals agree with the cells accounting.
        let g = sample();
        let slim = SlimSellMatrix::<4>::build(&g, 11);
        let full = BfsEngine::run::<_, BooleanSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Full),
        );
        let wl = BfsEngine::run::<_, BooleanSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Worklist),
        );
        assert_eq!(wl.stats.num_iterations(), full.stats.num_iterations());
        for (a, b) in wl.stats.iters.iter().zip(&full.stats.iters) {
            assert!(a.col_steps <= b.col_steps);
            assert_eq!(a.cells, a.col_steps * 4);
            assert_eq!(a.changed, b.changed);
        }
    }

    #[test]
    fn adaptive_matches_reference_all_semirings() {
        let g = sample();
        let opts = BfsOptions::default().sweep(SweepMode::Adaptive);
        for sigma in [1, 4, 11] {
            for root in [0u32, 6, 8] {
                check_dist::<TropicalSemiring>(&g, sigma, root, &opts);
                check_dist::<BooleanSemiring>(&g, sigma, root, &opts);
                check_dist::<RealSemiring>(&g, sigma, root, &opts);
                check_dist::<SelMaxSemiring>(&g, sigma, root, &opts);
            }
        }
    }

    #[test]
    fn adaptive_composes_with_slimwork_slimchunk_and_schedules() {
        let g = sample();
        for slimwork in [false, true] {
            for slimchunk in [None, Some(2)] {
                for schedule in [Schedule::Static, Schedule::Dynamic] {
                    let opts = BfsOptions { slimwork, slimchunk, ..Default::default() }
                        .sweep(SweepMode::Adaptive)
                        .schedule(schedule);
                    check_dist::<TropicalSemiring>(&g, 11, 0, &opts);
                    check_dist::<BooleanSemiring>(&g, 11, 0, &opts);
                    check_dist::<SelMaxSemiring>(&g, 11, 0, &opts);
                }
            }
        }
    }

    #[test]
    fn adaptive_switches_to_full_in_a_flood_and_tags_iterations() {
        // A broom: a path feeding a dense blow-up. The wavefront stays
        // on small worklists down the handle, then vertex 32's star
        // floods the dependent set past the exit threshold and the
        // controller must leave worklist mode; the per-iteration
        // sweep_mode tags record the trace and mode_switches counts it.
        let n = 256u32;
        let g = GraphBuilder::new(n as usize)
            .edges((0..32u32).map(|v| (v, v + 1)).chain((33..n).map(|w| (32, w))))
            .build();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        let opts = BfsOptions::default().sweep(SweepMode::Adaptive);
        let out = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &opts);
        let full = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Full),
        );
        assert_eq!(out.dist, full.dist);
        assert_eq!(out.stats.num_iterations(), full.stats.num_iterations());
        assert_eq!(
            out.stats.iters[0].sweep_mode,
            ExecutedSweep::Worklist,
            "adaptive must start in the worklist regime"
        );
        assert!(
            out.stats.full_sweep_iterations() > 0,
            "flood never drove the controller to full sweeps: {:?}",
            out.stats.iters.iter().map(|i| i.sweep_mode).collect::<Vec<_>>()
        );
        assert!(out.stats.mode_switches() >= 1);
        // Pure modes carry a constant tag and no switches.
        assert_eq!(full.stats.mode_switches(), 0);
        assert!(full.stats.iters.iter().all(|i| i.sweep_mode == ExecutedSweep::Full));
        let wl = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Worklist),
        );
        assert_eq!(wl.stats.mode_switches(), 0);
        assert!(wl.stats.iters.iter().all(|i| i.sweep_mode == ExecutedSweep::Worklist));
    }

    #[test]
    fn adaptive_stays_on_worklist_for_a_wavefront() {
        // The path graph never floods: every adaptive iteration should
        // run the worklist dispatcher and match the worklist engine's
        // column steps exactly.
        let n = 256u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        let ad = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Adaptive),
        );
        let wl = BfsEngine::run::<_, TropicalSemiring, 4>(
            &slim,
            0,
            &BfsOptions::default().sweep(SweepMode::Worklist),
        );
        assert_eq!(ad.dist, wl.dist);
        assert_eq!(ad.stats.mode_switches(), 0);
        assert_eq!(ad.stats.full_sweep_iterations(), 0);
        assert_eq!(ad.stats.total_col_steps(), wl.stats.total_col_steps());
        assert_eq!(ad.stats.total_activations(), wl.stats.total_activations());
    }

    #[test]
    fn adaptive_column_steps_never_exceed_the_better_pure_mode() {
        // Per iteration the adaptive engine runs one of the two pure
        // dispatchers, so its total column steps are bounded by the
        // worse pure mode and should track the better one closely.
        let g = sample();
        let slim = SlimSellMatrix::<4>::build(&g, 11);
        for root in [0u32, 6, 8] {
            let run = |sweep| {
                BfsEngine::run::<_, BooleanSemiring, 4>(
                    &slim,
                    root,
                    &BfsOptions::default().sweep(sweep),
                )
                .stats
                .total_col_steps()
            };
            let (full, wl, ad) =
                (run(SweepMode::Full), run(SweepMode::Worklist), run(SweepMode::Adaptive));
            assert!(ad <= full.max(wl), "root {root}: adaptive {ad} > max(full {full}, wl {wl})");
        }
    }

    #[test]
    fn iteration_count_is_eccentricity_plus_one() {
        let g = GraphBuilder::new(6).edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).build();
        let slim = SlimSellMatrix::<4>::build(&g, 6);
        let out = BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 0, &BfsOptions::default());
        // Distances reach 5; one extra iteration detects convergence.
        assert_eq!(out.stats.num_iterations(), 6);
    }

    #[test]
    fn wider_lanes_match() {
        let g = sample();
        let reference = serial_bfs(&g, 0);
        let slim8 = SlimSellMatrix::<8>::build(&g, 11);
        let slim16 = SlimSellMatrix::<16>::build(&g, 11);
        let slim32 = SlimSellMatrix::<32>::build(&g, 11);
        assert_eq!(
            BfsEngine::run::<_, TropicalSemiring, 8>(&slim8, 0, &BfsOptions::default()).dist,
            reference.dist
        );
        assert_eq!(
            BfsEngine::run::<_, BooleanSemiring, 16>(&slim16, 0, &BfsOptions::default()).dist,
            reference.dist
        );
        assert_eq!(
            BfsEngine::run::<_, SelMaxSemiring, 32>(&slim32, 0, &BfsOptions::default()).dist,
            reference.dist
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_root_panics() {
        let g = sample();
        let slim = SlimSellMatrix::<4>::build(&g, 1);
        BfsEngine::run::<_, TropicalSemiring, 4>(&slim, 99, &BfsOptions::default());
    }

    #[test]
    fn single_edge_graph() {
        let g = GraphBuilder::new(2).edges([(0, 1)]).build();
        let slim = SlimSellMatrix::<4>::build(&g, 2);
        let out = BfsEngine::run::<_, SelMaxSemiring, 4>(&slim, 0, &BfsOptions::default());
        assert_eq!(out.dist, vec![0, 1]);
        assert_eq!(out.parent.unwrap(), vec![0, 0]);
    }
}
