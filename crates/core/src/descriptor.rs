//! GraphBLAS-style descriptors and direction-optimized BFS.
//!
//! The paper notes that "the well-known direction-optimization \[3\] and
//! other work-avoidance schemes are orthogonal to our work and can be
//! implemented on top of SlimSell; see Figure 1" (§V). [`run_descriptor`]
//! is that composition, and Figure 1's third curve.
//!
//! A [`Descriptor`] bundles everything that modulates a semiring sweep
//! without changing its algebra: an optional vertex mask (§III of the
//! GraphBLAS spec's descriptor concept, transplanted onto the SlimSell
//! chunk layout), a complement flag, a push/pull [`DirectionPolicy`],
//! and the [`SweepConfig`] policy the engine already understood. Each
//! iteration of [`run_descriptor`] is one of
//!
//! * **push** (top-down) steps expand the frontier, a `(chunk, lane
//!   mask)` list in the worklist's seed format, through the same
//!   column-slab walk the worklist seed takes
//!   ([`ColumnSlab::for_each_neighbor`]), labeling only unvisited
//!   targets inside the user mask;
//! * **pull** (bottom-up) steps run the chunk-parallel SpMV of
//!   [`crate::bfs`] (tropical semiring) under the user mask alone.
//!   Settled vertices need no mask of their own: the tropical `min`
//!   keeps their finite labels, and SlimWork skips chunks whose lanes
//!   are all settled (§III-C).
//!
//! With no user mask, [`DirectionPolicy::Pull`] reproduces
//! [`BfsEngine::run`](crate::BfsEngine::run) with the tropical semiring
//! iteration by iteration, counters included
//! (`tests/cross_validation.rs`), and `tests/counter_golden.rs` pins
//! the per-iteration counters of every policy and sweep mode.

use std::sync::Arc;
use std::time::Instant;

use slimsell_graph::VertexId;

use crate::bfs::{hops, init_run, step, BfsOptions, BfsOutput, Schedule, SemiringKernel};
use crate::counters::{IterStats, RunStats};
use crate::mask::VertexMask;
use crate::matrix::ChunkMatrix;
use crate::semiring::lanes_ne_bits;
use crate::semiring::TropicalSemiring;
use crate::sweep::{SweepConfig, SweepMode};
use crate::worklist::ColumnSlab;

/// Which direction an iteration executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepMode {
    /// Sparse frontier expansion.
    TopDown,
    /// Chunk-parallel SpMV.
    BottomUp,
}

/// Output of a direction-optimized run: distances plus the mode sequence.
#[derive(Clone, Debug)]
pub struct DirOptOutput {
    /// BFS output (distances; parents via [`crate::dp_transform`]).
    pub bfs: BfsOutput,
    /// The direction chosen for each iteration.
    pub modes: Vec<StepMode>,
}

/// Per-iteration push↔pull decision rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DirectionPolicy {
    /// Beamer's α/β heuristic: pull when the frontier's out-edge count
    /// exceeds `m/α`, push again when the frontier shrinks below `n/β`.
    /// The defaults are α = 14, β = 24.
    Auto {
        /// Pull when frontier out-edges > `m / alpha`.
        alpha: f64,
        /// Push again when frontier size < `n / beta`.
        beta: f64,
    },
    /// Always push (sparse top-down expansion).
    Push,
    /// Always pull (chunk-parallel SpMV from the first iteration).
    Pull,
}

impl Default for DirectionPolicy {
    fn default() -> Self {
        Self::Auto { alpha: 14.0, beta: 24.0 }
    }
}

/// A sweep descriptor: (complemented) vertex mask + direction policy +
/// sweep configuration.
///
/// ```
/// use std::sync::Arc;
/// use slimsell_core::{Descriptor, DirectionPolicy, SweepMode};
///
/// let desc = Descriptor::default()
///     .direction(DirectionPolicy::Pull)
///     .sweep(SweepMode::Worklist);
/// assert!(desc.mask.is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Descriptor {
    /// Optional vertex mask: the sweep only updates vertices inside it
    /// and never reads productive contributions out of vertices
    /// outside it (they stay at their initial state, so gathers from
    /// them contribute the semiring identity — "as-if-deleted").
    pub mask: Option<Arc<VertexMask>>,
    /// Complement the mask before use (GraphBLAS `GrB_COMP`). With no
    /// mask set, complementing is a no-op (the implicit mask is full).
    pub complement: bool,
    /// Push↔pull decision rule applied each iteration.
    pub direction: DirectionPolicy,
    /// Sweep configuration for the pull (SpMV) iterations.
    pub config: SweepConfig,
}

impl Descriptor {
    /// Sets the vertex mask (builder).
    #[must_use]
    pub fn mask(mut self, mask: Arc<VertexMask>) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Sets the complement flag (builder).
    #[must_use]
    pub fn complement(mut self, complement: bool) -> Self {
        self.complement = complement;
        self
    }

    /// Sets the direction policy (builder).
    #[must_use]
    pub fn direction(mut self, direction: DirectionPolicy) -> Self {
        self.direction = direction;
        self
    }

    /// Sets the sweep configuration (builder).
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

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

    /// The mask the sweep actually applies: the user mask with the
    /// complement flag resolved. `None` means "all vertices allowed"
    /// (also the result of complementing an absent mask).
    pub fn resolved_mask(&self) -> Option<Arc<VertexMask>> {
        match (&self.mask, self.complement) {
            (None, _) => None,
            (Some(m), false) => Some(Arc::clone(m)),
            (Some(m), true) => Some(Arc::new(m.complement())),
        }
    }
}

/// Runs descriptor-driven BFS (tropical semiring) from `root`.
///
/// Push steps expand the frontier through the structure's rows (targets
/// outside the resolved mask are never labeled); pull steps run the
/// SpMV engine under the resolved mask. Vertices outside the mask keep
/// [`UNREACHABLE`](slimsell_graph::UNREACHABLE) distances.
///
/// Panics if `root` is out of range or outside the resolved mask.
pub fn run_descriptor<M, const C: usize>(
    matrix: &M,
    root: VertexId,
    desc: &Descriptor,
) -> DirOptOutput
where
    M: ChunkMatrix<C>,
{
    type S = TropicalSemiring;
    let s = matrix.structure();
    let slab = s.column_slab();
    let n = s.n();
    let m2 = s.arcs(); // 2m
    let opts =
        BfsOptions { config: desc.config, mask: desc.resolved_mask(), ..BfsOptions::default() };
    let user = opts.mask.as_deref();
    // Worklist invariant for the pull steps (see crate::bfs): outside
    // the worklist, nxt already equals cur. Push steps write cur in
    // place, so every lane they label goes on the pending list and the
    // next pull sweep rewrites its chunk.
    let spec = opts.spec(false);
    let mut kernel = SemiringKernel::<M, S, C>::new(matrix, &opts);
    let mut run = init_run(s, &kernel, &[root], &spec);
    let root_p = s.perm().to_new(root) as usize;
    let track_wl = desc.config.sweep.uses_worklist();

    // The frontier in the worklist's seed-list format: `(chunk, lane
    // mask)` pairs naming the vertices labeled by the last step.
    let mut frontier: Vec<(u32, u32)> = vec![((root_p / C) as u32, 1 << (root_p % C))];
    let mut spare: Vec<(u32, u32)> = Vec::new();
    let mut stats = RunStats::default();
    let mut modes = Vec::new();
    let mut depth = 0u32;
    let mut mode = match desc.direction {
        DirectionPolicy::Pull => StepMode::BottomUp,
        _ => StepMode::TopDown,
    };

    while !frontier.is_empty() {
        depth += 1;
        let t0 = Instant::now();
        if let DirectionPolicy::Auto { alpha, beta } = desc.direction {
            // The frontier's out-edges are read only in push mode, the
            // one place the rule needs them.
            mode = match mode {
                StepMode::TopDown if out_edges_exceed(slab, &frontier, m2 as f64 / alpha) => {
                    StepMode::BottomUp
                }
                StepMode::BottomUp if (vertices(&frontier) as f64) < n as f64 / beta => {
                    StepMode::TopDown
                }
                m => m,
            };
        }
        modes.push(mode);
        let mut it = match mode {
            StepMode::TopDown => {
                let x = &mut run.cur.x;
                let scanned = match user {
                    None => push_step::<C>(slab, &frontier, &mut spare, x, depth, |_| true),
                    Some(u) => {
                        push_step::<C>(slab, &frontier, &mut spare, x, depth, |w| u.contains(w))
                    }
                };
                std::mem::swap(&mut frontier, &mut spare);
                if track_wl {
                    run.pending.extend_from_slice(&frontier);
                }
                // Not an SpMV sweep: the default Full tag with
                // worklist_len == 0 marks it as a top-down step (see
                // IterStats::sweep_mode).
                IterStats { col_steps: scanned, cells: scanned, ..Default::default() }
            }
            StepMode::BottomUp => {
                let mut it = step(s, &mut kernel, &mut run, depth, &spec);
                let harvest = track_wl.then_some(&run.pending[..]);
                bottom_up_frontier::<C>(&mut it, harvest, &run.cur.x, &run.nxt.x, n, &mut frontier);
                std::mem::swap(&mut run.cur, &mut run.nxt);
                it
            }
        };
        it.elapsed = t0.elapsed();
        it.changed = !frontier.is_empty();
        stats.iters.push(it);
    }

    let perm = s.perm();
    let dist: Vec<u32> =
        (0..n).map(|old| hops(run.cur.x[perm.to_new(old as VertexId) as usize])).collect();
    DirOptOutput { bfs: BfsOutput { dist, parent: None, stats }, modes }
}

/// The number of vertices a seed list names (the β rule's input).
fn vertices(list: &[(u32, u32)]) -> u64 {
    list.iter().map(|&(_, lanes)| u64::from(lanes.count_ones())).sum()
}

/// The α rule: whether the frontier's out-edge count exceeds `limit`.
/// The count is at most `Σ cl[j]·popcount(lanes)`, a bound that reads
/// no cell, so only a frontier whose bound exceeds `limit` pays for the
/// exact count ([`out_edges`]). The answer is the exact count's.
fn out_edges_exceed(slab: ColumnSlab<'_>, frontier: &[(u32, u32)], limit: f64) -> bool {
    let bound: u64 = frontier
        .iter()
        .map(|&(j, lanes)| u64::from(slab.cl[j as usize]) * u64::from(lanes.count_ones()))
        .sum();
    bound as f64 > limit && out_edges(slab, frontier) as f64 > limit
}

/// The frontier's out-edge count: its rows' stored columns, counted by
/// the same walk a push step takes.
fn out_edges(slab: ColumnSlab<'_>, frontier: &[(u32, u32)]) -> usize {
    let mut edges = 0;
    for &(j, lanes) in frontier {
        slab.for_each_neighbor(j as usize, lanes, |_| edges += 1);
    }
    edges
}

/// One push step: labels every unvisited neighbor `w` of the frontier
/// with `allowed(w)` at `depth`, in place in `x`, replaces `next` with
/// one `(chunk, lane bit)` entry per labeled vertex (in discovery
/// order; the next frontier and, in worklist modes, the next sweep's
/// seeds) and returns the number of arcs scanned. `allowed` is a type
/// parameter so the unmasked run pays no per-arc mask test.
fn push_step<const C: usize>(
    slab: ColumnSlab<'_>,
    frontier: &[(u32, u32)],
    next: &mut Vec<(u32, u32)>,
    x: &mut [f32],
    depth: u32,
    allowed: impl Fn(usize) -> bool,
) -> u64 {
    next.clear();
    let mut scanned = 0u64;
    for &(j, lanes) in frontier {
        slab.for_each_neighbor(j as usize, lanes, |w| {
            scanned += 1;
            if x[w] == f32::INFINITY && allowed(w) {
                x[w] = depth as f32;
                next.push(((w / C) as u32, 1 << (w % C)));
            }
        });
    }
    scanned
}

/// Recovers the frontier after a bottom-up step into `out`, as the
/// `(chunk, changed-lane mask)` pairs of the chunks whose distances
/// changed, in ascending chunk order, and charges its lane probes to
/// `it.frontier_probes`.
///
/// A recorded step (any step of a run that may sweep a worklist, an
/// adaptive full sweep included) has just harvested exactly that list
/// into `harvest` (tropical change mask ⟺ `nxt_x ≠ cur_x`): one probe
/// per discovered vertex. Only pure full-sweep runs, which record
/// nothing, compare each chunk's lanes, charged as one probe per vertex.
fn bottom_up_frontier<const C: usize>(
    it: &mut IterStats,
    harvest: Option<&[(u32, u32)]>,
    cur_x: &[f32],
    nxt_x: &[f32],
    n: usize,
    out: &mut Vec<(u32, u32)>,
) {
    out.clear();
    if let Some(harvest) = harvest {
        out.extend_from_slice(harvest);
        it.frontier_probes += vertices(out);
        return;
    }
    it.frontier_probes += n as u64;
    out.extend((0..cur_x.len() / C).filter_map(|j| {
        let lanes = lanes_ne_bits::<C>(&cur_x[j * C..], &nxt_x[j * C..]);
        (lanes != 0).then_some((j as u32, lanes))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SlimSellMatrix;
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::{serial_bfs, GraphBuilder, UNREACHABLE};

    #[test]
    fn unmasked_matches_reference() {
        let g = kronecker(9, 12.0, KroneckerParams::GRAPH500, 7);
        let root = (0..512u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<8>::build(&g, 64);
        for sweep in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            let out = run_descriptor(&slim, root, &Descriptor::default().sweep(sweep));
            assert_eq!(out.bfs.dist, serial_bfs(&g, root).dist, "{sweep:?}");
        }
    }

    #[test]
    fn auto_stays_top_down_on_path() {
        let n = 50u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, 50);
        let out = run_descriptor(&slim, 0, &Descriptor::default());
        assert_eq!(out.bfs.dist, serial_bfs(&g, 0).dist);
        // A path frontier never grows: all steps stay top-down.
        assert!(out.modes.iter().all(|&m| m == StepMode::TopDown));
    }

    #[test]
    fn auto_switches_to_bottom_up_on_dense_graph() {
        let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 3);
        let root = (0..1024u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<8>::build(&g, 1024);
        let out = run_descriptor(&slim, root, &Descriptor::default());
        assert_eq!(out.bfs.dist, serial_bfs(&g, root).dist);
        assert!(
            out.modes.contains(&StepMode::BottomUp),
            "dense power-law graph should trigger bottom-up, modes = {:?}",
            out.modes
        );
    }

    #[test]
    fn push_pull_and_auto_agree() {
        let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 3);
        let root = (0..512u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<4>::build(&g, 64);
        let push =
            run_descriptor(&slim, root, &Descriptor::default().direction(DirectionPolicy::Push));
        let pull =
            run_descriptor(&slim, root, &Descriptor::default().direction(DirectionPolicy::Pull));
        let auto = run_descriptor(&slim, root, &Descriptor::default());
        assert_eq!(push.bfs.dist, pull.bfs.dist);
        assert_eq!(push.bfs.dist, auto.bfs.dist);
        assert!(push.modes.iter().all(|&m| m == StepMode::TopDown));
        assert!(pull.modes.iter().all(|&m| m == StepMode::BottomUp));
    }

    #[test]
    fn masked_run_matches_filtered_subgraph() {
        // Path 0-1-…-19 with the upper half masked out: BFS must stop
        // at the mask boundary exactly as if vertices 10.. were deleted.
        let n = 20u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, n as usize);
        let mask = Arc::new(VertexMask::from_original(slim.structure(), 0..10u32));
        for dir in [DirectionPolicy::Push, DirectionPolicy::Pull] {
            let desc = Descriptor::default().mask(Arc::clone(&mask)).direction(dir);
            let out = run_descriptor(&slim, 0, &desc);
            for v in 0..10 {
                assert_eq!(out.bfs.dist[v], v as u32, "{dir:?}");
            }
            for v in 10..20 {
                assert_eq!(out.bfs.dist[v], UNREACHABLE, "{dir:?}");
            }
        }
    }

    #[test]
    fn complement_flag_inverts_the_mask() {
        let n = 8u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, n as usize);
        // Masking OUT {5, 6, 7} via complement: reachable set is 0..=4.
        let blocked = Arc::new(VertexMask::from_original(slim.structure(), 5..8u32));
        let desc = Descriptor::default().mask(blocked).complement(true);
        let out = run_descriptor(&slim, 0, &desc);
        assert_eq!(out.bfs.dist[..5], [0, 1, 2, 3, 4]);
        assert!(out.bfs.dist[5..].iter().all(|&d| d == UNREACHABLE));
    }

    #[test]
    fn bounded_alpha_rule_agrees_with_the_exact_count() {
        // Every single-vertex frontier and every BFS level's frontier of
        // a Kronecker 2^10 graph, at the default threshold 2m/14 and at
        // limits on both sides of the exact count.
        let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 3);
        let slim = SlimSellMatrix::<8>::build(&g, 1024);
        let s = slim.structure();
        let slab = s.column_slab();
        let lane = |v: usize| ((v / 8) as u32, 1u32 << (v % 8));
        let mut frontiers: Vec<Vec<(u32, u32)>> = (0..s.n()).map(|v| vec![lane(v)]).collect();
        let root = (0..1024u32).find(|&v| g.degree(v) > 0).unwrap();
        let dist = serial_bfs(&g, root).dist;
        for level in 0.. {
            let f: Vec<(u32, u32)> = (0..s.n() as u32)
                .filter(|&v| dist[v as usize] == level)
                .map(|v| lane(s.perm().to_new(v) as usize))
                .collect();
            if f.is_empty() {
                break;
            }
            frontiers.push(f);
        }
        let threshold = s.arcs() as f64 / 14.0;
        let mut pulls = 0;
        for f in &frontiers {
            let exact = out_edges(slab, f) as f64;
            for limit in [threshold, exact - 0.5, exact, exact + 0.5] {
                assert_eq!(out_edges_exceed(slab, f, limit), exact > limit, "limit {limit}");
            }
            pulls += usize::from(exact > threshold);
        }
        assert!(pulls > 0, "no frontier crossed 2m/14; the test is vacuous");
    }

    #[test]
    #[should_panic(expected = "resolved vertex mask")]
    fn root_outside_mask_rejected() {
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let slim = SlimSellMatrix::<4>::build(&g, 4);
        let mask = Arc::new(VertexMask::from_original(slim.structure(), [1u32, 2]));
        run_descriptor(&slim, 0, &Descriptor::default().mask(mask));
    }
}
