//! Full-sweep vs worklist sweep accounting — the analysis behind the
//! `frontier` experiment.
//!
//! SlimWork's full sweep visits every chunk every iteration (the skip
//! test alone costs `O(n_chunks × D)`), while the worklist engine's
//! per-iteration cost follows the active frontier. This module distills
//! two [`RunStats`] of the *same* BFS (one per mode) into one
//! comparison row: column steps executed, chunks visited, the
//! activation probes the worklist paid, and the resulting ratios. The
//! split between [`chunks_skipped`](slimsell_core::IterStats::chunks_skipped)
//! and [`chunks_not_on_worklist`](slimsell_core::IterStats::chunks_not_on_worklist)
//! is what lets the savings be attributed correctly: SlimWork skips are
//! visits that ran a skip test; not-on-worklist chunks were never
//! touched at all. [`AdaptiveComparison`] extends the picture to the
//! adaptive sweep mode, distilling its decision trace (`mode_switches`,
//! worklist-iteration share) and checking it tracks the better pure
//! mode.

use slimsell_core::RunStats;

use crate::report::TextTable;

/// Aggregated comparison of a full-sweep run against a worklist run of
/// the same BFS (same graph, root, semiring — iteration counts and
/// outputs are identical by construction; work differs).
#[derive(Clone, Copy, Debug)]
pub struct WorklistComparison {
    /// Iterations executed (equal in both modes by construction).
    pub iterations: usize,
    /// Total column steps of the full sweep.
    pub full_col_steps: u64,
    /// Total column steps of the worklist run.
    pub worklist_col_steps: u64,
    /// Total chunk visits of the full sweep (`iterations × n_chunks`).
    pub full_visited: u64,
    /// Total chunk visits of the worklist run (worklist sizes summed).
    pub worklist_visited: u64,
    /// Chunks the worklist engine never touched (summed per iteration).
    pub not_on_worklist: u64,
    /// Dependent-expansion probes the worklist engine paid.
    pub activations: u64,
}

impl WorklistComparison {
    /// Builds the comparison from the two runs' statistics.
    ///
    /// # Panics
    /// Panics if the iteration counts differ — that means the two runs
    /// were not the same BFS (the worklist engine never changes the
    /// iteration count).
    pub fn measure(full: &RunStats, worklist: &RunStats) -> Self {
        assert_eq!(
            full.num_iterations(),
            worklist.num_iterations(),
            "full-sweep and worklist runs disagree on iterations — not the same BFS"
        );
        Self {
            iterations: full.num_iterations(),
            full_col_steps: full.total_col_steps(),
            worklist_col_steps: worklist.total_col_steps(),
            full_visited: full.total_visited(),
            worklist_visited: worklist.total_visited(),
            not_on_worklist: worklist.total_not_on_worklist(),
            activations: worklist.total_activations(),
        }
    }

    /// Worklist column steps as a fraction of the full sweep's (< 1
    /// means the worklist saved MV work).
    pub fn col_step_ratio(&self) -> f64 {
        ratio(self.worklist_col_steps, self.full_col_steps)
    }

    /// Worklist chunk visits as a fraction of the full sweep's — the
    /// skip-test traffic avoided.
    pub fn visit_ratio(&self) -> f64 {
        ratio(self.worklist_visited, self.full_visited)
    }

    /// Activation probes per saved chunk visit — the overhead paid for
    /// the avoided traffic (∞-free: 0 when nothing was saved).
    pub fn activation_cost_per_saved_visit(&self) -> f64 {
        let saved = self.full_visited.saturating_sub(self.worklist_visited);
        if saved == 0 {
            0.0
        } else {
            self.activations as f64 / saved as f64
        }
    }

    /// Header of the comparison table [`row`](Self::row)s feed.
    pub const HEADER: [&'static str; 8] = [
        "graph",
        "iters",
        "col steps (full)",
        "col steps (worklist)",
        "step ratio",
        "visit ratio",
        "activations",
        "act/saved visit",
    ];

    /// One table row labeled with the graph/configuration name.
    pub fn row(&self, label: &str) -> [String; 8] {
        [
            label.to_string(),
            self.iterations.to_string(),
            self.full_col_steps.to_string(),
            self.worklist_col_steps.to_string(),
            format!("{:.3}", self.col_step_ratio()),
            format!("{:.3}", self.visit_ratio()),
            self.activations.to_string(),
            format!("{:.2}", self.activation_cost_per_saved_visit()),
        ]
    }

    /// A ready table with this comparison's header.
    pub fn table() -> TextTable {
        TextTable::new(Self::HEADER)
    }
}

/// Aggregated three-way comparison: the adaptive run against both pure
/// sweep modes of the same BFS. The acceptance shape: adaptive's column
/// steps must never exceed the worse pure mode (per iteration it runs
/// one of the two pure dispatchers) and should track the better one
/// closely; `mode_switches`/`worklist_iters` expose the gate's
/// decision trace.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveComparison {
    /// Iterations executed (equal in all three modes by construction).
    pub iterations: usize,
    /// Total column steps of the pure full-sweep run.
    pub full_col_steps: u64,
    /// Total column steps of the pure worklist run.
    pub worklist_col_steps: u64,
    /// Total column steps of the adaptive run.
    pub adaptive_col_steps: u64,
    /// Sweep-mode switches the adaptive gate made.
    pub mode_switches: usize,
    /// Adaptive iterations executed as worklist sweeps.
    pub worklist_iters: usize,
    /// Activation probes the adaptive run paid.
    pub activations: u64,
}

impl AdaptiveComparison {
    /// Builds the comparison from the three runs' statistics.
    ///
    /// # Panics
    /// Panics if the iteration counts differ — the sweep policy must
    /// never change the fixpoint (not the same BFS otherwise).
    pub fn measure(full: &RunStats, worklist: &RunStats, adaptive: &RunStats) -> Self {
        assert_eq!(
            full.num_iterations(),
            adaptive.num_iterations(),
            "full-sweep and adaptive runs disagree on iterations — not the same BFS"
        );
        assert_eq!(
            worklist.num_iterations(),
            adaptive.num_iterations(),
            "worklist and adaptive runs disagree on iterations — not the same BFS"
        );
        Self {
            iterations: adaptive.num_iterations(),
            full_col_steps: full.total_col_steps(),
            worklist_col_steps: worklist.total_col_steps(),
            adaptive_col_steps: adaptive.total_col_steps(),
            mode_switches: adaptive.mode_switches(),
            worklist_iters: adaptive.worklist_sweep_iterations(),
            activations: adaptive.total_activations(),
        }
    }

    /// Adaptive column steps as a fraction of the full sweep's.
    pub fn ratio_vs_full(&self) -> f64 {
        ratio(self.adaptive_col_steps, self.full_col_steps)
    }

    /// Adaptive column steps as a fraction of the *better* pure mode's
    /// (1.0 = matched it exactly; the acceptance criterion asks for
    /// ≤ 1.05 on every generator).
    pub fn ratio_vs_best(&self) -> f64 {
        ratio(self.adaptive_col_steps, self.full_col_steps.min(self.worklist_col_steps))
    }

    /// Whether adaptive stayed within the worse pure mode — the hard
    /// bound (it runs one of the two dispatchers every iteration).
    pub fn bounded_by_worse_mode(&self) -> bool {
        self.adaptive_col_steps <= self.full_col_steps.max(self.worklist_col_steps)
    }

    /// Header of the comparison table [`row`](Self::row)s feed.
    pub const HEADER: [&'static str; 8] = [
        "graph",
        "iters",
        "col steps (full)",
        "col steps (worklist)",
        "col steps (adaptive)",
        "vs best",
        "switches",
        "wl iters",
    ];

    /// One table row labeled with the graph/configuration name.
    pub fn row(&self, label: &str) -> [String; 8] {
        [
            label.to_string(),
            self.iterations.to_string(),
            self.full_col_steps.to_string(),
            self.worklist_col_steps.to_string(),
            self.adaptive_col_steps.to_string(),
            format!("{:.3}", self.ratio_vs_best()),
            self.mode_switches.to_string(),
            format!("{}/{}", self.worklist_iters, self.iterations),
        ]
    }

    /// A ready table with this comparison's header.
    pub fn table() -> TextTable {
        TextTable::new(Self::HEADER)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        if num == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_core::{BfsEngine, BfsOptions, SlimSellMatrix, SweepMode, TropicalSemiring};
    use slimsell_graph::GraphBuilder;

    fn runs() -> (RunStats, RunStats) {
        let n = 128u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 1);
        let full = BfsEngine::run::<_, TropicalSemiring, 4>(
            &m,
            0,
            &BfsOptions::default().sweep(SweepMode::Full),
        );
        let wl = BfsEngine::run::<_, TropicalSemiring, 4>(
            &m,
            0,
            &BfsOptions::default().sweep(SweepMode::Worklist),
        );
        (full.stats, wl.stats)
    }

    #[test]
    fn measures_a_real_path_bfs() {
        let (full, wl) = runs();
        let c = WorklistComparison::measure(&full, &wl);
        assert_eq!(c.iterations, full.num_iterations());
        assert!(c.worklist_col_steps < c.full_col_steps, "no savings on a path?");
        assert!(c.col_step_ratio() < 1.0);
        assert!(c.visit_ratio() < 1.0);
        assert!(c.activations > 0);
        assert!(c.activation_cost_per_saved_visit() >= 0.0);
    }

    #[test]
    fn row_matches_header_width() {
        let (full, wl) = runs();
        let c = WorklistComparison::measure(&full, &wl);
        let mut t = WorklistComparison::table();
        t.row(c.row("path-128"));
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("path-128"));
    }

    #[test]
    #[should_panic(expected = "disagree on iterations")]
    fn mismatched_runs_rejected() {
        let (full, _) = runs();
        WorklistComparison::measure(&full, &RunStats::default());
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(ratio(0, 0), 1.0);
        assert!(ratio(1, 0).is_infinite());
        assert_eq!(ratio(1, 2), 0.5);
    }

    fn adaptive_runs() -> (RunStats, RunStats, RunStats) {
        let n = 128u32;
        let g = GraphBuilder::new(n as usize).edges((0..n - 1).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, 1);
        let run = |sweep| {
            BfsEngine::run::<_, TropicalSemiring, 4>(&m, 0, &BfsOptions::default().sweep(sweep))
                .stats
        };
        (run(SweepMode::Full), run(SweepMode::Worklist), run(SweepMode::Adaptive))
    }

    #[test]
    fn adaptive_comparison_measures_a_real_bfs() {
        let (full, wl, ad) = adaptive_runs();
        let c = AdaptiveComparison::measure(&full, &wl, &ad);
        assert_eq!(c.iterations, full.num_iterations());
        assert!(c.bounded_by_worse_mode());
        // On a path the worklist wins and adaptive should match it.
        assert!(c.ratio_vs_best() <= 1.05, "vs best {}", c.ratio_vs_best());
        assert!(c.ratio_vs_full() < 1.0);
        let mut t = AdaptiveComparison::table();
        t.row(c.row("path-128"));
        assert!(t.render().contains("path-128"));
    }

    #[test]
    #[should_panic(expected = "disagree on iterations")]
    fn adaptive_mismatched_runs_rejected() {
        let (full, wl, _) = adaptive_runs();
        AdaptiveComparison::measure(&full, &wl, &RunStats::default());
    }
}
