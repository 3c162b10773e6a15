//! Direction-optimized algebraic BFS — Figure 1's third curve.
//!
//! The paper notes that "the well-known direction-optimization \[3\] and
//! other work-avoidance schemes are orthogonal to our work and can be
//! implemented on top of SlimSell; see Figure 1" (§V). This module is
//! that composition: Beamer-style switching between
//!
//! * **top-down** steps — sparse expansion of an explicit frontier list,
//!   reading rows directly from the SlimSell structure (strided row
//!   access, no extra representation needed), used while the frontier is
//!   small; and
//! * **bottom-up** steps — the chunk-parallel SpMV of [`crate::bfs`]
//!   (tropical semiring), used while the frontier is large, where the
//!   vectorized kernel shines.
//!
//! The switch uses the classic α/β heuristic: go bottom-up when the
//! frontier's out-edge count exceeds `m/α`, return to top-down when the
//! frontier shrinks below `n/β`.

use std::time::Instant;

use slimsell_graph::{VertexId, UNREACHABLE};

use crate::bfs::{step, BfsOptions, BfsOutput, EngineScratch, Schedule};
use crate::counters::{IterStats, RunStats};
use crate::descriptor::bottom_up_frontier;
use crate::matrix::ChunkMatrix;
use crate::semiring::{Semiring, StateVecs, TropicalSemiring};

/// Which direction an iteration executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepMode {
    /// Sparse frontier expansion.
    TopDown,
    /// Chunk-parallel SpMV.
    BottomUp,
}

/// Direction-optimization parameters (Beamer's α/β).
#[derive(Clone, Debug)]
pub struct DirOptOptions {
    /// Switch to bottom-up when frontier out-edges > `m / alpha`.
    pub alpha: f64,
    /// Switch back to top-down when frontier size < `n / beta`.
    pub beta: f64,
    /// Options for the bottom-up SpMV iterations.
    pub spmv: BfsOptions,
}

impl Default for DirOptOptions {
    fn default() -> Self {
        Self { alpha: 14.0, beta: 24.0, spmv: BfsOptions::default() }
    }
}

impl DirOptOptions {
    /// Sets the sweep mode of the bottom-up SpMV iterations (builder).
    #[must_use]
    pub fn sweep(mut self, sweep: crate::sweep::SweepMode) -> Self {
        self.spmv = self.spmv.sweep(sweep);
        self
    }

    /// Sets the schedule of the bottom-up SpMV iterations (builder).
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.spmv = self.spmv.schedule(schedule);
        self
    }

    /// Sets the full sweep configuration of the bottom-up SpMV
    /// iterations (builder).
    #[must_use]
    pub fn config(mut self, config: crate::sweep::SweepConfig) -> Self {
        self.spmv = self.spmv.config(config);
        self
    }
}

/// Output of a direction-optimized run: distances plus the mode sequence.
#[derive(Clone, Debug)]
pub struct DirOptOutput {
    /// BFS output (distances; parents via [`crate::dp_transform`]).
    pub bfs: BfsOutput,
    /// The direction chosen for each iteration.
    pub modes: Vec<StepMode>,
}

/// Runs direction-optimized BFS (tropical semiring) from `root`.
pub fn run_diropt<M, const C: usize>(
    matrix: &M,
    root: VertexId,
    opts: &DirOptOptions,
) -> DirOptOutput
where
    M: ChunkMatrix<C>,
{
    type S = TropicalSemiring;
    assert!(
        opts.spmv.mask.is_none(),
        "run_diropt does not take a vertex mask; use run_descriptor for masked \
         direction-optimized BFS"
    );
    let s = matrix.structure();
    let n = s.n();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let root_p = s.perm().to_new(root) as usize;
    let np = s.n_padded();
    let m2 = s.arcs(); // 2m

    let mut cur = StateVecs::new(np);
    let mut nxt = StateVecs::new(np);
    let mut d = vec![0.0f32; np];
    S::init(&mut cur, &mut d, n, root_p);

    let mut scratch = EngineScratch::new();
    let track_wl = opts.spmv.config.sweep.uses_worklist();
    if track_wl {
        // Worklist invariant for the bottom-up steps (see crate::bfs):
        // outside the worklist, nxt already equals cur. Top-down steps
        // write cur in place, so every chunk they touch goes on the
        // pending list and the next bottom-up sweep (worklist or
        // adaptive) rewrites it.
        S::clone_state(&cur, &mut nxt);
        scratch.pending.push(((root_p / C) as u32, 1u32 << (root_p % C)));
    }

    let mut frontier: Vec<u32> = vec![root_p as u32];
    let mut frontier_edges: u64 = s.row_len(root_p) as u64;
    let mut stats = RunStats::default();
    let mut modes = Vec::new();
    let mut depth = 0u32;
    let mut mode = StepMode::TopDown;

    while !frontier.is_empty() {
        depth += 1;
        // Heuristic switch.
        mode = match mode {
            StepMode::TopDown if frontier_edges as f64 > m2 as f64 / opts.alpha => {
                StepMode::BottomUp
            }
            StepMode::BottomUp if (frontier.len() as f64) < n as f64 / opts.beta => {
                StepMode::TopDown
            }
            m => m,
        };
        modes.push(mode);
        let t0 = Instant::now();
        match mode {
            StepMode::TopDown => {
                let mut next = Vec::new();
                let mut scanned = 0u64;
                for &v in &frontier {
                    for w in s.row_neighbors(v as usize) {
                        scanned += 1;
                        if cur.x[w as usize] == f32::INFINITY {
                            cur.x[w as usize] = depth as f32;
                            if track_wl {
                                scratch.pending.push((w / C as u32, 1u32 << (w as usize % C)));
                            }
                            next.push(w);
                        }
                    }
                }
                frontier_edges = next.iter().map(|&w| s.row_len(w as usize) as u64).sum();
                frontier = next;
                // Not an SpMV sweep: the default Full tag with
                // worklist_len == 0 marks it as a top-down step (see
                // IterStats::sweep_mode).
                stats.iters.push(IterStats {
                    elapsed: t0.elapsed(),
                    col_steps: scanned,
                    cells: scanned,
                    changed: !frontier.is_empty(),
                    ..Default::default()
                });
            }
            StepMode::BottomUp => {
                let mut it = step::<M, S, C>(
                    matrix,
                    &cur,
                    &mut nxt,
                    &mut d,
                    depth as f32,
                    &opts.spmv,
                    &mut scratch,
                    track_wl,
                );
                // Recover the new frontier for the heuristic and a
                // possible switch back to top-down.
                let next = bottom_up_frontier::<C>(&mut it, &scratch.pending, &cur.x, &nxt.x, n);
                std::mem::swap(&mut cur, &mut nxt);
                frontier_edges = next.iter().map(|&w| s.row_len(w as usize) as u64).sum();
                frontier = next;
                it.elapsed = t0.elapsed();
                it.changed = !frontier.is_empty();
                stats.iters.push(it);
            }
        }
    }

    let perm = s.perm();
    let dist: Vec<u32> = (0..n)
        .map(|old| {
            let v = cur.x[perm.to_new(old as VertexId) as usize];
            if v.is_finite() {
                v as u32
            } else {
                UNREACHABLE
            }
        })
        .collect();
    DirOptOutput { bfs: BfsOutput { dist, parent: None, stats }, modes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SlimSellMatrix;
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::{serial_bfs, GraphBuilder};

    #[test]
    fn matches_reference_on_path() {
        let n = 50u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let slim = SlimSellMatrix::<4>::build(&g, 50);
        let out = run_diropt(&slim, 0, &DirOptOptions::default());
        assert_eq!(out.bfs.dist, serial_bfs(&g, 0).dist);
        // A path frontier never grows: all steps stay top-down.
        assert!(out.modes.iter().all(|&m| m == StepMode::TopDown));
    }

    #[test]
    fn switches_to_bottom_up_on_dense_graph() {
        let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 3);
        let root = (0..1024u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<8>::build(&g, 1024);
        let out = run_diropt(&slim, root, &DirOptOptions::default());
        assert_eq!(out.bfs.dist, serial_bfs(&g, root).dist);
        assert!(
            out.modes.contains(&StepMode::BottomUp),
            "dense power-law graph should trigger bottom-up, modes = {:?}",
            out.modes
        );
    }

    #[test]
    fn forced_bottom_up_matches() {
        // alpha = 0 forces bottom-up from the first iteration.
        let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 1);
        let root = (0..512u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<4>::build(&g, 64);
        // alpha = 0 ⇒ threshold m/α = ∞ ⇒ never leaves top-down.
        let opts = DirOptOptions { alpha: 0.0, beta: f64::INFINITY, ..Default::default() };
        let always_td = run_diropt(&slim, root, &opts);
        // alpha = ∞ ⇒ threshold 0 ⇒ immediate bottom-up; beta = ∞ keeps it.
        let opts =
            DirOptOptions { alpha: f64::INFINITY, beta: f64::INFINITY, ..Default::default() };
        let always_bu = run_diropt(&slim, root, &opts);
        assert_eq!(always_td.bfs.dist, always_bu.bfs.dist);
        assert!(always_bu.modes.iter().all(|&m| m == StepMode::BottomUp));
    }
}
