//! Multi-source BFS: `B` simultaneous traversals, vectorized over the
//! *source* dimension.
//!
//! The paper's conclusion suggests extending SlimSell to algorithms with
//! richer SIMD structure; multi-source BFS is the canonical one: instead
//! of `C` lanes covering `C` matrix rows, each vertex carries a `B`-lane
//! vector of tentative distances (one lane per source), and a single
//! sweep advances all `B` traversals at once (min-plus over the tropical
//! semiring, exactly Listing 6 with the lane axis transposed). This is
//! the algebraic analogue of MS-BFS and the building block for sampled
//! betweenness/closeness, diameter estimation — and batched query
//! serving ([`slimsell-serve`]'s admission queue coalesces concurrent
//! single-source requests into one `B`-lane sweep).
//!
//! Work per iteration is `O(2m + P)` *regardless of B* on a `B`-wide
//! SIMD unit, so batching amortizes the structure traversal across
//! sources.
//!
//! Like BFS/SSSP/PageRank, the sweeps ride the [`SweepMode`] substrate:
//! full-range sweeps, frontier-proportional worklist sweeps over the
//! chunk dependency graph of [`crate::worklist`], or (the default) the
//! adaptive controller of [`crate::sweep`]. The per-chunk change masks
//! are per *row* lane — bit `l` set iff any of row `l`'s `B` distance
//! lanes changed bit-wise — so the same lane-filtered dependency
//! expansion that gates single-source sweeps gates `B`-wide sweeps: a
//! dependent chunk re-runs only when it gathers a row whose lane group
//! changed, regardless of which of the `B` sources caused it. The
//! SlimWork analogue (skip a chunk when all `C·B` values are finite —
//! hop distances never improve once finite) applies in every mode.
//!
//! Each sweep runs tile-parallel over the
//! [`ChunkSet`](crate::tiling::ChunkSet) the sweep policy picked (`C·B`
//! values per chunk), writing disjoint slabs;
//! outputs are bit-identical at any thread count and in every sweep
//! mode.
//!
//! [`slimsell-serve`]: https://docs.rs/slimsell-serve
//!
//! # Example
//!
//! ```
//! use slimsell_core::{multi_bfs, SlimSellMatrix};
//! use slimsell_graph::GraphBuilder;
//!
//! // Two simultaneous traversals of a path, one from each end.
//! let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
//! let m = SlimSellMatrix::<4>::build(&g, 4);
//! let out = multi_bfs::<_, 4, 2>(&m, &[0, 3]);
//! assert_eq!(out.dist[0], vec![0, 1, 2, 3]);
//! assert_eq!(out.dist[1], vec![3, 2, 1, 0]);
//! assert!(out.completed);
//! ```

use std::sync::Arc;
use std::time::Instant;

use slimsell_graph::{VertexId, UNREACHABLE};
use slimsell_simd::prefetch_read;

use crate::counters::{IterStats, RunStats};
use crate::mask::VertexMask;
use crate::matrix::ChunkMatrix;
use crate::semiring::slice_bits_differ;
use crate::sweep::{resolve_sweep, AdaptiveController, SweepConfig, SweepMode};
use crate::tiling::{ChunkTiling, Schedule};
use crate::worklist::{full_lane_mask, ActivationState};

/// Multi-source BFS options: sweep strategy, scheduling and an
/// optional vertex mask shared by all `B` traversals.
#[derive(Clone, Debug, Default)]
pub struct MsBfsOptions {
    /// Sweep strategy and chunk scheduling policy (defaults to the
    /// `SLIMSELL_SWEEP` env var; adaptive when unset). Distances are
    /// bit-identical in every mode.
    pub config: SweepConfig,
    /// Safety cap on iterations (defaults to `n + 1`, which min-plus
    /// hop relaxation can never exceed). A capped run reports
    /// [`MultiBfsOutput::completed`] `= false`.
    pub max_iterations: Option<usize>,
    /// Optional vertex mask applied to every source lane: all `B`
    /// traversals run in the induced subgraph (every root must be
    /// inside the mask; vertices outside stay [`UNREACHABLE`]).
    pub mask: Option<Arc<VertexMask>>,
}

impl MsBfsOptions {
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

/// Output of a multi-source run: one distance vector per source, in
/// original vertex ids.
#[derive(Clone, Debug)]
pub struct MultiBfsOutput<const B: usize> {
    /// `dist[b][v]` = hop distance from `roots[b]` to `v`.
    pub dist: Vec<Vec<u32>>,
    /// Iterations executed (including the final no-change one).
    pub iterations: usize,
    /// Whether the fixpoint was reached. `false` only when the control
    /// callback of [`multi_bfs_while`] stopped the run early or the
    /// [`MsBfsOptions::max_iterations`] cap fired; distances of an
    /// incomplete run are the tentative state at the stopping point.
    pub completed: bool,
    /// Per-sweep statistics: sweep-mode trace, column steps, worklist
    /// sizes, activation probes, lane-slot utilization. Cells count
    /// `C·B` lane-slots per column step (each structure step feeds `C`
    /// rows × `B` sources); active cells count `B` slots per stored
    /// arc, so [`RunStats::lane_utilization`] measures the same
    /// padding-waste ratio as single-source BFS, per batch.
    pub stats: RunStats,
}

/// How many column steps ahead [`ms_chunk`] prefetches its gathers —
/// far enough to cover DRAM latency on the `B`-wide state, near enough
/// that the lines are still resident when the step arrives.
const MS_PREFETCH_STEPS: usize = 4;

/// One chunk of the `B`-wide min-plus sweep: per row lane, gather the
/// neighbors' `B`-lane distance vectors, fold `min(acc, rhs + 1)`,
/// store the chunk's `C·B` next values into `out`. Returns (changed
/// row-lane mask, column steps, active lane-slots, skipped).
///
/// The SlimWork analogue short-circuits a chunk whose `C·B` values are
/// all finite: hop distances never improve once finite (unlike
/// weighted SSSP labels), so the chunk is converged and its state is
/// forwarded verbatim — which also keeps the worklist invariant (`nxt
/// == cur` bit-for-bit off the worklist) intact when the chunk later
/// leaves the list.
#[inline]
fn ms_chunk<M, const C: usize, const B: usize>(
    matrix: &M,
    cur: &[f32],
    i: usize,
    out: &mut [f32],
    mask: Option<&VertexMask>,
) -> (u32, u64, u64, usize)
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let base = i * C;
    // A fully masked chunk is skipped exactly like a converged one:
    // its C·B state block is forwarded verbatim.
    if mask.is_some_and(|mk| mk.allowed_real(i) == 0)
        || cur[base * B..(base + C) * B].iter().all(|&x| x != f32::INFINITY)
    {
        out.copy_from_slice(&cur[base * B..(base + C) * B]);
        return (0, 0, 0, 1);
    }
    // Step-major walk: the column entries of step `k` are contiguous
    // (`col[cs[i] + k*C ..][..C]`), so the structure streams
    // sequentially and the gathers of a *future* step can be
    // prefetched while the current one computes — the `B`-wide state
    // is `B×` larger than single-source state, so these random reads
    // are the batch kernel's latency wall. Per row the neighbor fold
    // order is unchanged (ascending `k`), keeping outputs bit-identical
    // to the row-major walk.
    // The `B` source lanes of a row are contiguous, so the min-plus
    // fold is a plain fixed-trip lane loop over `B` that the compiler
    // vectorizes directly. (The `SimdF32` primitives are `C`-lane
    // vectors across rows; here the vector axis is the batch.)
    let (cs, cl, col) = (s.cs(), s.cl(), s.col());
    let (start, steps) = (cs[i], cl[i] as usize);
    let mut acc = [[0.0f32; B]; C];
    for (lane, a) in acc.iter_mut().enumerate() {
        a.copy_from_slice(&cur[(base + lane) * B..(base + lane + 1) * B]);
    }
    for k in 0..steps {
        if k + MS_PREFETCH_STEPS < steps {
            for &c in &col[start + (k + MS_PREFETCH_STEPS) * C..][..C] {
                if c >= 0 {
                    prefetch_read(cur, c as usize * B);
                }
            }
        }
        let group = &col[start + k * C..][..C];
        for (lane, a) in acc.iter_mut().enumerate() {
            let c = group[lane];
            if c >= 0 {
                let rhs = &cur[c as usize * B..c as usize * B + B];
                for (av, &rv) in a.iter_mut().zip(rhs) {
                    *av = av.min(rv + 1.0);
                }
            }
        }
    }
    // Under a partial mask, patch each masked-out row's B-lane group
    // back to its previous state before the store/change test, so
    // masked rows stay exactly at rest in every source lane.
    if let Some(mk) = mask {
        let allowed = mk.allowed(i);
        if allowed != full_lane_mask(C) {
            for (lane, a) in acc.iter_mut().enumerate() {
                if allowed & (1 << lane) == 0 {
                    a.copy_from_slice(&cur[(base + lane) * B..(base + lane + 1) * B]);
                }
            }
        }
    }
    let mut changed_mask = 0u32;
    for (lane, a) in acc.iter().enumerate() {
        out[lane * B..(lane + 1) * B].copy_from_slice(a);
        let r = base + lane;
        // Exact bit-wise per-row change detection: the row's mask bit
        // feeds the lane-filtered dependency expansion, so it must
        // match the byte-equality contract of the determinism suite.
        if slice_bits_differ(&cur[r * B..(r + 1) * B], &out[lane * B..(lane + 1) * B]) {
            changed_mask |= 1 << lane;
        }
    }
    (changed_mask, steps as u64, s.chunk_arcs()[i] * B as u64, 0)
}

/// Runs `B` simultaneous BFS traversals over the Sell structure with
/// the default options (env-selected sweep mode, dynamic scheduling).
///
/// # Panics
/// Panics if any root is out of range.
pub fn multi_bfs<M, const C: usize, const B: usize>(
    matrix: &M,
    roots: &[VertexId; B],
) -> MultiBfsOutput<B>
where
    M: ChunkMatrix<C>,
{
    multi_bfs_with(matrix, roots, &MsBfsOptions::default())
}

/// Runs `B` simultaneous BFS traversals under the given sweep policy.
///
/// # Panics
/// Panics if any root is out of range.
pub fn multi_bfs_with<M, const C: usize, const B: usize>(
    matrix: &M,
    roots: &[VertexId; B],
    opts: &MsBfsOptions,
) -> MultiBfsOutput<B>
where
    M: ChunkMatrix<C>,
{
    multi_bfs_while(matrix, roots, opts, |_| true)
}

/// Runs `B` simultaneous BFS traversals with a per-iteration control
/// hook: before each sweep, `keep_going` is called with the 1-based
/// index of the sweep about to execute; returning `false` stops the
/// run gracefully before that sweep ([`MultiBfsOutput::completed`]
/// `= false`, distances reflect the state reached so far). This is the
/// abort point the serving layer uses for per-query iteration budgets
/// and batch-wide cancellation — the check is between sweeps, so a
/// stopped run never leaves a sweep half-executed.
///
/// # Panics
/// Panics if any root is out of range.
pub fn multi_bfs_while<M, const C: usize, const B: usize>(
    matrix: &M,
    roots: &[VertexId; B],
    opts: &MsBfsOptions,
    mut keep_going: impl FnMut(usize) -> bool,
) -> MultiBfsOutput<B>
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let n = s.n();
    let np = s.n_padded();
    let mask = opts.mask.as_deref();
    if let Some(mk) = mask {
        mk.check_layout(s);
    }
    // x[v*B + b] = tentative distance of v from source b.
    let mut cur = vec![f32::INFINITY; np * B];
    // Virtual padding rows look finished so their chunk can be skipped.
    for v in n..np {
        cur[v * B..(v + 1) * B].fill(0.0);
    }
    for (b, &r) in roots.iter().enumerate() {
        assert!((r as usize) < n, "root {r} out of range (n = {n})");
        let rp = s.perm().to_new(r) as usize;
        assert!(
            mask.is_none_or(|mk| mk.contains(rp)),
            "root {r} (source lane {b}) is not in the vertex mask"
        );
        cur[rp * B + b] = 0.0;
    }
    let mut nxt = cur.clone();

    let nc = np / C;
    let tiling = ChunkTiling::new(nc, opts.config.schedule);
    let mut act = ActivationState::new();
    let mut ctl = AdaptiveController::new();
    let mut pending: Vec<(u32, u32)> = Vec::new();
    let mut masks: Vec<u32> = Vec::new();
    // Worklist-capable modes record every sweep's change masks: the
    // harvest seeds the next worklist (see `crate::bfs::step`).
    let record = opts.config.sweep.uses_worklist();
    if record {
        // Only the root rows differ from the all-∞ rest state, so only
        // chunks gathering a root's row lane can produce a different
        // output. Duplicate root chunks merge their lane masks in
        // `ActivationState::seed`.
        for &r in roots.iter() {
            let rp = s.perm().to_new(r) as usize;
            pending.push(((rp / C) as u32, 1u32 << (rp % C)));
        }
    }

    let mut stats = RunStats::default();
    let max_iters = opts.max_iterations.unwrap_or(n + 1);
    let mut iterations = 0usize;
    let mut completed = false;
    loop {
        if !keep_going(iterations + 1) {
            break;
        }
        iterations += 1;
        let t0 = Instant::now();
        let (set, seeded) = resolve_sweep(
            opts.config.sweep,
            &mut ctl,
            &mut act,
            || s.dep_graph(),
            &mut pending,
            nc,
            mask,
        );
        let cur_ref = &cur;
        let (changed, col_steps, active_cells, skipped) = set.sweep(
            &tiling,
            C * B,
            [&mut nxt[..]],
            record.then_some(&mut masks),
            |_, i, [out], flag| {
                let (lanes, steps, arcs, skip) = ms_chunk::<M, C, B>(matrix, cur_ref, i, out, mask);
                if let Some(f) = flag {
                    *f = lanes;
                }
                (lanes != 0, steps, arcs, skip)
            },
            |a, b| (a.0 | b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3),
        );
        let changed_chunks = if record { set.harvest(&masks, &mut pending) } else { 0 };
        stats.iters.push(IterStats {
            elapsed: t0.elapsed(),
            activations: seeded.unwrap_or(0),
            changed_chunks,
            col_steps,
            cells: col_steps * (C * B) as u64,
            active_cells,
            changed,
            ..IterStats::visited(&set, nc, skipped)
        });
        std::mem::swap(&mut cur, &mut nxt);
        if !changed {
            completed = true;
            break;
        }
        if iterations >= max_iters {
            break;
        }
    }

    let perm = s.perm();
    let dist = (0..B)
        .map(|b| {
            (0..n)
                .map(|old| {
                    let v = cur[perm.to_new(old as VertexId) as usize * B + b];
                    if v.is_finite() {
                        v as u32
                    } else {
                        UNREACHABLE
                    }
                })
                .collect()
        })
        .collect();
    MultiBfsOutput { dist, iterations, completed, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SlimSellMatrix;
    use crate::sweep::ExecutedSweep;
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::{serial_bfs, GraphBuilder};

    fn opts(sweep: SweepMode) -> MsBfsOptions {
        MsBfsOptions::default().sweep(sweep)
    }

    #[test]
    fn matches_independent_bfs() {
        let g = kronecker(9, 6.0, KroneckerParams::GRAPH500, 4);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let roots: [u32; 4] = {
            let r = slimsell_graph::stats::sample_roots(&g, 4);
            [r[0], r[1 % r.len()], r[2 % r.len()], r[3 % r.len()]]
        };
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let out = multi_bfs_with::<_, 8, 4>(&m, &roots, &opts(sweep));
            assert!(out.completed, "{sweep:?}");
            for (b, &root) in roots.iter().enumerate() {
                assert_eq!(
                    out.dist[b],
                    serial_bfs(&g, root).dist,
                    "{sweep:?} source {b} (root {root})"
                );
            }
        }
    }

    #[test]
    fn duplicate_roots_allowed() {
        let g = GraphBuilder::new(6).edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 6);
        let out = multi_bfs::<_, 4, 2>(&m, &[0, 0]);
        assert_eq!(out.dist[0], out.dist[1]);
        assert_eq!(out.dist[0], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn iteration_count_is_max_eccentricity_plus_one() {
        let g = GraphBuilder::new(8).edges((0..7u32).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 8);
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            // Sources at positions 3 and 4: max distance 4 (+1 convergence).
            let out = multi_bfs_with::<_, 4, 2>(&m, &[3, 4], &opts(sweep));
            assert_eq!(out.iterations, 5, "{sweep:?}");
            assert_eq!(out.stats.num_iterations(), 5, "{sweep:?}");
        }
    }

    #[test]
    fn disconnected_sources() {
        let g = GraphBuilder::new(6).edges([(0, 1), (3, 4)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 6);
        let out = multi_bfs::<_, 4, 2>(&m, &[0, 3]);
        assert_eq!(out.dist[0][3], UNREACHABLE);
        assert_eq!(out.dist[1][0], UNREACHABLE);
        assert_eq!(out.dist[1][4], 1);
    }

    #[test]
    fn all_sweep_modes_bit_identical() {
        // The worklist/adaptive sweeps must be pure work-avoidance
        // transformations: same distances, same sweep count, never more
        // column steps than the full sweep.
        let g = kronecker(8, 5.0, KroneckerParams::GRAPH500, 11);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let roots: [u32; 8] = core::array::from_fn(|i| (i * 17 % g.num_vertices()) as u32);
        let full = multi_bfs_with::<_, 8, 8>(&m, &roots, &opts(SweepMode::Full));
        for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
            let out = multi_bfs_with::<_, 8, 8>(&m, &roots, &opts(sweep));
            assert_eq!(out.dist, full.dist, "{sweep:?} distances diverged");
            assert_eq!(out.iterations, full.iterations, "{sweep:?} sweep count diverged");
            assert!(
                out.stats.total_col_steps() <= full.stats.total_col_steps(),
                "{sweep:?} did more work than the full sweep"
            );
        }
    }

    #[test]
    fn worklist_reduces_work_on_a_path() {
        // A long path with both sources near one end: the B-wide
        // frontier is a thin wavefront, so worklist sweeps must execute
        // far fewer column steps while agreeing bit-for-bit.
        let n = 512u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 1);
        let full = multi_bfs_with::<_, 4, 2>(&m, &[0, 1], &opts(SweepMode::Full));
        let wl = multi_bfs_with::<_, 4, 2>(&m, &[0, 1], &opts(SweepMode::Worklist));
        assert_eq!(wl.dist, full.dist);
        assert_eq!(wl.iterations, full.iterations);
        assert!(
            wl.stats.total_col_steps() < full.stats.total_col_steps() / 4,
            "worklist {} not ≪ full {}",
            wl.stats.total_col_steps(),
            full.stats.total_col_steps()
        );
        assert!(wl.stats.total_not_on_worklist() > 0);
        assert!(wl.stats.total_activations() > 0);
        // Counter coherence per sweep: C·B lane-slots per column step.
        let nc = m.structure().num_chunks();
        for it in &wl.stats.iters {
            assert_eq!(it.chunks_processed + it.chunks_skipped, it.worklist_len);
            assert_eq!(it.chunks_not_on_worklist, nc - it.worklist_len);
            assert_eq!(it.cells, it.col_steps * 8);
            assert_eq!(it.sweep_mode, ExecutedSweep::Worklist);
        }
        // Adaptive stays in the worklist regime on a wavefront.
        let ad = multi_bfs_with::<_, 4, 2>(&m, &[0, 1], &opts(SweepMode::Adaptive));
        assert_eq!(ad.stats.mode_switches(), 0);
        assert_eq!(ad.stats.total_col_steps(), wl.stats.total_col_steps());
    }

    #[test]
    fn stats_measure_lane_utilization() {
        let g = kronecker(8, 6.0, KroneckerParams::GRAPH500, 5);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let out = multi_bfs::<_, 8, 4>(&m, &[0, 1, 2, 3]);
        assert!(out.completed);
        assert!(out.stats.total_cells() > 0);
        let u = out.stats.lane_utilization();
        assert!(u > 0.0 && u <= 1.0, "lane utilization {u} out of range");
        assert_eq!(out.stats.total_cells(), out.stats.total_col_steps() * 32);
    }

    #[test]
    fn control_hook_stops_runs_gracefully() {
        let g = GraphBuilder::new(64).edges((0..63u32).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 1);
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            // Budget of 2 sweeps: exactly 2 execute, run is incomplete.
            let out = multi_bfs_while::<_, 4, 2>(&m, &[0, 0], &opts(sweep), |it| it <= 2);
            assert_eq!(out.iterations, 2, "{sweep:?}");
            assert!(!out.completed, "{sweep:?}");
            assert_eq!(out.stats.num_iterations(), 2, "{sweep:?}");
            // Two sweeps reach hop distance 2; the rest is tentative ∞.
            assert_eq!(out.dist[0][..3], [0, 1, 2]);
            assert_eq!(out.dist[0][3], UNREACHABLE);

            // Stopping before the first sweep leaves only the roots.
            let out = multi_bfs_while::<_, 4, 2>(&m, &[5, 9], &opts(sweep), |_| false);
            assert_eq!(out.iterations, 0, "{sweep:?}");
            assert!(!out.completed, "{sweep:?}");
            assert_eq!(out.dist[0][5], 0);
            assert_eq!(out.dist[1][9], 0);
            assert_eq!(out.dist[0][6], UNREACHABLE);
        }
    }
}
