//! Per-iteration and per-run statistics.
//!
//! Every experiment in §IV is either a per-iteration curve (Figs. 1, 5d,
//! 6c/e, 8, 9, 10) or an aggregate over iterations (Figs. 5a-c, 6a/b/d,
//! Table V), so the engine records both wall time and the work measures
//! the complexity analysis of §III uses (processed cells = `C · cl`
//! summed over non-skipped chunks).

use std::time::Duration;

use crate::sweep::ExecutedSweep;
use crate::tiling::ChunkSet;

/// Statistics for one BFS iteration (one frontier expansion).
///
/// Chunk accounting distinguishes three disjoint fates so the analysis
/// layer can attribute savings correctly: `chunks_processed` (MV
/// executed) + `chunks_skipped` (visited, then skipped by the SlimWork
/// test) = `worklist_len` (chunks visited at all), and
/// `chunks_not_on_worklist` counts the rest — excluded by the worklist
/// engine without even a skip test (always 0 in full-sweep iterations,
/// where `worklist_len` is the whole chunk range).
///
/// Every counter is `Option`-free: the [`sweep_mode`](Self::sweep_mode)
/// tag says which dispatcher ran, so "full sweep" (`worklist_len ==
/// n_chunks` *because everything was visited*) can no longer be
/// confused with a worklist iteration whose list happened to span the
/// chunk range — previously the two were indistinguishable in logs.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterStats {
    /// Wall time of the iteration.
    pub elapsed: Duration,
    /// Which dispatcher executed this iteration (full-range sweep or
    /// active-worklist sweep). In pure [`SweepMode::Full`]/
    /// [`SweepMode::Worklist`](crate::SweepMode::Worklist) runs the tag
    /// is constant; [`SweepMode::Adaptive`](crate::SweepMode::Adaptive)
    /// runs interleave both — the per-iteration decision trace.
    ///
    /// Direction-optimized top-down iterations are not SpMV sweeps at
    /// all: they carry the default `Full` tag with `worklist_len == 0`,
    /// which distinguishes them from real full sweeps (whose
    /// `worklist_len` is the whole chunk range) when aggregating the
    /// trace over a [`run_descriptor`](crate::run_descriptor) run.
    ///
    /// [`SweepMode::Full`]: crate::SweepMode::Full
    pub sweep_mode: ExecutedSweep,
    /// Chunks processed (MV executed).
    pub chunks_processed: usize,
    /// Chunks visited but skipped by the SlimWork test (§III-C).
    pub chunks_skipped: usize,
    /// Chunks excluded without any visit because they were not on the
    /// active worklist (0 in full-sweep mode).
    pub chunks_not_on_worklist: usize,
    /// Chunks visited this iteration — the worklist size, or the whole
    /// chunk range in full-sweep mode.
    pub worklist_len: usize,
    /// Activations performed while building the *next* worklist: the
    /// distinct (changed chunk, dependent) pairs reached through the
    /// changed chunk's changed rows — the dependency fan-out actually
    /// paid, after per-lane filtering (a dependency edge only counts
    /// when the seed's changed lane mask intersects the edge's lane
    /// mask, so this is ≤ the chunk-granular `Σ |dependents(j)|`); 0
    /// in full-sweep mode.
    pub activations: u64,
    /// Chunks whose output state changed this iteration under the exact
    /// bit-wise test (tracked in worklist iterations and in adaptive
    /// mode's tracked full sweeps; 0 in pure full-sweep runs, which
    /// never pay for change detection).
    pub changed_chunks: usize,
    /// Column steps executed (Σ `cl[i]` over processed chunks).
    pub col_steps: u64,
    /// Matrix cells touched (= `C ·` col_steps): the work measure `W` of
    /// §III-A.
    pub cells: u64,
    /// Non-padding cells (stored arcs) among the processed chunks — the
    /// numerator of lane utilization: `active_cells / cells` is the
    /// fraction of SIMD lane-slots that carried a real arc rather than
    /// `-1` padding. Measured by the BFS family (BFS, SlimChunk,
    /// bottom-up dir-opt steps); 0 where not measured (SSSP and
    /// PageRank sweeps, top-down steps).
    pub active_cells: u64,
    /// Lane probes paid by the direction-optimized driver to recover
    /// the sparse frontier after a bottom-up step. After a worklist
    /// sweep the recovery walks only the set bits of the harvested
    /// `(chunk, changed-lane mask)` pairs (one probe per discovered
    /// vertex), where it used to rescan every lane of every worklist
    /// chunk (`worklist_len · C` probes); full-sweep recovery still
    /// scans the padded range. 0 outside direction-optimized bottom-up
    /// iterations.
    pub frontier_probes: u64,
    /// Whether any output changed (frontier non-empty).
    pub changed: bool,
}

impl IterStats {
    /// The visit accounting of one sweep over `set` (out of `nc`
    /// chunks) in which `skipped` visited chunks were skipped: sweep
    /// tag, visited/processed/skipped and not-on-worklist counts. The
    /// kernels fill in their work counters on top.
    pub(crate) fn visited(set: &ChunkSet<'_>, nc: usize, skipped: usize) -> Self {
        Self {
            sweep_mode: set.executed(),
            worklist_len: set.len(),
            chunks_processed: set.len() - skipped,
            chunks_skipped: skipped,
            chunks_not_on_worklist: nc - set.len(),
            ..Self::default()
        }
    }
}

/// Statistics for a whole BFS run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// One entry per iteration, in order.
    pub iters: Vec<IterStats>,
}

impl RunStats {
    /// Number of iterations executed (including the final no-change one).
    pub fn num_iterations(&self) -> usize {
        self.iters.len()
    }

    /// Total wall time across iterations.
    pub fn total_time(&self) -> Duration {
        self.iters.iter().map(|i| i.elapsed).sum()
    }

    /// Total cells processed — the measured work `W` compared against the
    /// §III-A bounds.
    pub fn total_cells(&self) -> u64 {
        self.iters.iter().map(|i| i.cells).sum()
    }

    /// Total non-padding cells among processed chunks (lane-utilization
    /// numerator; see [`IterStats::active_cells`]).
    pub fn total_active_cells(&self) -> u64 {
        self.iters.iter().map(|i| i.active_cells).sum()
    }

    /// Measured SIMD lane utilization: the fraction of touched cells
    /// that held a stored arc rather than `-1` padding
    /// (`total_active_cells / total_cells`). Returns 1.0 for runs that
    /// touched no cells, so a degenerate run never reads as wasted
    /// lanes. Comparable to the simt cost model's `simd_efficiency`.
    pub fn lane_utilization(&self) -> f64 {
        let cells = self.total_cells();
        if cells == 0 {
            1.0
        } else {
            self.total_active_cells() as f64 / cells as f64
        }
    }

    /// Total chunks skipped by SlimWork.
    pub fn total_skipped(&self) -> usize {
        self.iters.iter().map(|i| i.chunks_skipped).sum()
    }

    /// Total column steps executed (`total_cells / C`).
    pub fn total_col_steps(&self) -> u64 {
        self.iters.iter().map(|i| i.col_steps).sum()
    }

    /// Total chunks visited across iterations (worklist sizes summed;
    /// `iterations × n_chunks` in full-sweep mode).
    pub fn total_visited(&self) -> u64 {
        self.iters.iter().map(|i| i.worklist_len as u64).sum()
    }

    /// Total chunks excluded by the worklist engine without a visit.
    pub fn total_not_on_worklist(&self) -> u64 {
        self.iters.iter().map(|i| i.chunks_not_on_worklist as u64).sum()
    }

    /// Total activation probes paid building worklists.
    pub fn total_activations(&self) -> u64 {
        self.iters.iter().map(|i| i.activations).sum()
    }

    /// Total lane probes paid recovering sparse frontiers after
    /// bottom-up steps (see [`IterStats::frontier_probes`]).
    pub fn total_frontier_probes(&self) -> u64 {
        self.iters.iter().map(|i| i.frontier_probes).sum()
    }

    /// Per-iteration wall times in seconds (figure series).
    pub fn iter_seconds(&self) -> Vec<f64> {
        self.iters.iter().map(|i| i.elapsed.as_secs_f64()).collect()
    }

    /// How many times consecutive iterations ran under different sweep
    /// dispatchers — the adaptive gate's switching trace (0 in
    /// pure full/worklist runs, and in adaptive runs that never left
    /// their initial regime).
    pub fn mode_switches(&self) -> usize {
        self.iters.windows(2).filter(|w| w[0].sweep_mode != w[1].sweep_mode).count()
    }

    /// Iterations executed as full-range sweeps.
    pub fn full_sweep_iterations(&self) -> usize {
        self.iters.iter().filter(|i| i.sweep_mode == ExecutedSweep::Full).count()
    }

    /// Iterations executed as worklist sweeps.
    pub fn worklist_sweep_iterations(&self) -> usize {
        self.iters.iter().filter(|i| i.sweep_mode == ExecutedSweep::Worklist).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let mut s = RunStats::default();
        s.iters.push(IterStats {
            elapsed: Duration::from_millis(2),
            sweep_mode: ExecutedSweep::Worklist,
            chunks_processed: 4,
            chunks_skipped: 1,
            chunks_not_on_worklist: 3,
            worklist_len: 5,
            activations: 12,
            changed_chunks: 2,
            col_steps: 10,
            cells: 80,
            active_cells: 60,
            frontier_probes: 7,
            changed: true,
        });
        s.iters.push(IterStats {
            elapsed: Duration::from_millis(3),
            sweep_mode: ExecutedSweep::Full,
            chunks_processed: 2,
            chunks_skipped: 3,
            chunks_not_on_worklist: 3,
            worklist_len: 5,
            activations: 4,
            changed_chunks: 0,
            col_steps: 4,
            cells: 32,
            active_cells: 24,
            frontier_probes: 5,
            changed: false,
        });
        assert_eq!(s.num_iterations(), 2);
        assert_eq!(s.total_time(), Duration::from_millis(5));
        assert_eq!(s.total_cells(), 112);
        assert_eq!(s.total_skipped(), 4);
        assert_eq!(s.total_col_steps(), 14);
        assert_eq!(s.total_visited(), 10);
        assert_eq!(s.total_not_on_worklist(), 6);
        assert_eq!(s.total_activations(), 16);
        assert_eq!(s.total_frontier_probes(), 12);
        assert_eq!(s.total_active_cells(), 84);
        assert!((s.lane_utilization() - 84.0 / 112.0).abs() < 1e-12);
        assert_eq!(RunStats::default().lane_utilization(), 1.0);
        assert_eq!(s.iter_seconds().len(), 2);
        assert_eq!(s.mode_switches(), 1);
        assert_eq!(s.full_sweep_iterations(), 1);
        assert_eq!(s.worklist_sweep_iterations(), 1);
    }

    #[test]
    fn mode_switches_counts_transitions_not_iterations() {
        let mut s = RunStats::default();
        assert_eq!(s.mode_switches(), 0);
        let iter = |m| IterStats { sweep_mode: m, ..Default::default() };
        for m in [
            ExecutedSweep::Worklist,
            ExecutedSweep::Worklist,
            ExecutedSweep::Full,
            ExecutedSweep::Full,
            ExecutedSweep::Worklist,
        ] {
            s.iters.push(iter(m));
        }
        assert_eq!(s.mode_switches(), 2);
        assert_eq!(s.full_sweep_iterations(), 2);
        assert_eq!(s.worklist_sweep_iterations(), 3);
    }
}
