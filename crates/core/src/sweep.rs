//! Sweep-mode policy: runtime selection between full sweeps and
//! frontier-proportional worklist sweeps, including the adaptive gate
//! that picks per iteration.
//!
//! A worklist sweep visits only the chunks the last iteration's changes
//! can reach, but first pays for the seed walk that finds them
//! ([`crate::worklist`]); a full sweep visits every chunk and pays
//! nothing up front. Which one wins is a property of the *iteration*,
//! not the run: a Kronecker BFS floods at levels 1–2 and thins to a
//! tail after, while a road-network wavefront never floods. That is
//! the same regime split that motivates push–pull direction heuristics
//! in GraphBLAS-style engines and the paper's own SlimWork/SlimChunk
//! adaptivity (§V).
//!
//! [`SweepMode`] is the policy knob
//! ([`SweepConfig::sweep`], embedded in every kernel's options; the
//! `SLIMSELL_SWEEP` env var):
//!
//! * [`SweepMode::Full`] — every iteration sweeps the whole chunk range
//!   (per-chunk SlimWork skip tests still apply).
//! * [`SweepMode::Worklist`] — every iteration sweeps the active-chunk
//!   worklist only.
//! * [`SweepMode::Adaptive`] — the default: [`adaptive_sweep`] picks
//!   per iteration, and full sweeps record exact per-chunk changes so
//!   the worklist can be re-seeded on every full→worklist transition
//!   without ever touching outputs.
//!
//! The policy's answer is a value: [`resolve_sweep`] returns the
//! [`ChunkSet`] this iteration visits — the whole range or the seeded
//! worklist — and every kernel runs the same loop over it
//! ([`ChunkSet::sweep`]). A full sweep is the worklist that spans the
//! range.
//!
//! # The adaptive gate
//!
//! An adaptive iteration sweeps the worklist iff the seed chunks' slab
//! cells, `Σ_{j ∈ seeds} C·cl[j]`, are below `1/3`
//! ([`WORKLIST_CELL_DEN`]) of the matrix's cells. Seed *cells*, not
//! seed *chunks*, because they are what the worklist pays before its
//! sweep starts: the seed walk reads the changed lanes of exactly those
//! cells, and a σ-sorted hub chunk with a long row fans out to far more
//! dependents than a chunk count shows: a chunk-count gate at `nc/2`
//! keeps Kronecker BFS level 2 (3,223 seed chunks, under half of `nc`
//! but 42% of the cells) on the worklist, where the iteration costs
//! tens of full sweeps.
//!
//! Two measurements place the bound; both are tabulated in
//! `ARCHITECTURE.md`. Per-iteration wall times of the pure modes put
//! the crossover at 0.06–0.12 for single-source kernels and near 0.3
//! for `B = 8` multi-source BFS, whose lanes amortize the walk, while
//! Kronecker's flood levels sit at 0.36–0.99. The column-step contract
//! (adaptive BFS within 5% of the worklist's column steps on the
//! 2^12 geometric and small-world wavefronts of
//! `tests/frontier_worklist.rs`) needs the bound above 0.32, the widest
//! such wavefront. `1/3` is the smallest simple fraction that keeps
//! the contract. It still sends Kronecker levels 1–2 (0.36–0.99 on
//! every measured root) to full sweeps and keeps every wavefront on the
//! worklist. What it gives up is the iterations between 0.1 and 1/3
//! where a full sweep would be faster: label-correcting SSSP on roads
//! (which stays on the worklist, as before) and the odd Kronecker tail
//! level that SlimWork makes nearly free to sweep in full.
//!
//! The gate is a pure function of (seed list, matrix): no latch, no
//! hysteresis. A seed set hovering around the bound just alternates
//! modes, which costs nothing extra because both sides are priced
//! correctly. The sum stops as soon as the bound is crossed, so a
//! flooded iteration pays only for the seeds it reads before the answer
//! is certain, and on the full-sweep side no seed walk is ever paid.
//!
//! Correctness of switching (the **re-seeding invariant**): the
//! worklist engine requires that outside the worklist the next-state
//! buffer already equals the current state bit-for-bit. Adaptive full
//! sweeps therefore *record*, exactly like worklist sweeps: each
//! chunk's freshly written output is compared bit-wise against its
//! previous state, lane by lane
//! ([`state_changed_mask`](crate::semiring::state_changed_mask)), and
//! [`ChunkSet::harvest`] turns the changed chunks into the seed set. A
//! chunk whose mask is clear wrote back exactly its previous state, so
//! after the buffer swap it satisfies the invariant; a chunk whose mask
//! is set is a seed, hence on the next worklist (self edge) and
//! rewritten before anyone reads its stale double-buffered slot.
//! Outputs are bit-identical to both pure modes at any thread count —
//! asserted by
//! `tests/parallel_determinism.rs` and proven on arbitrary graphs by
//! `adaptive_equals_one_thread_full_sweep_oracle` in
//! `tests/proptest_invariants.rs`.

use std::sync::OnceLock;

use crate::mask::VertexMask;
use crate::tiling::{ChunkSet, Schedule};
use crate::worklist::{merge_seeds, ActivationState, ColumnSlab};

/// Sweep strategy for the iterative kernels (BFS, SSSP, PageRank's
/// SpMV pass).
///
/// The default is read from the `SLIMSELL_SWEEP` env var (once per
/// process): `full`, `worklist`, or `adaptive`. Unset or empty means
/// [`SweepMode::Adaptive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Sweep the whole chunk range every iteration.
    Full,
    /// Sweep the active-chunk worklist every iteration.
    Worklist,
    /// Switch per iteration on the seed chunks' cells (see the module
    /// docs).
    #[default]
    Adaptive,
}

impl SweepMode {
    /// Parses the `SLIMSELL_SWEEP` value into a mode (case-insensitive);
    /// absent or empty ⇒ [`SweepMode::Adaptive`].
    ///
    /// # Panics
    /// Panics on an unrecognized value — a misspelled CI matrix leg
    /// must fail loudly, not silently test the default.
    pub fn parse_env(sweep: Option<&str>) -> Self {
        match sweep.map(str::to_ascii_lowercase).as_deref() {
            None | Some("") => SweepMode::Adaptive,
            Some("full") => SweepMode::Full,
            Some("worklist") => SweepMode::Worklist,
            Some("adaptive") => SweepMode::Adaptive,
            Some(other) => panic!(
                "unrecognized SLIMSELL_SWEEP value {other:?} (use full, worklist, or adaptive)"
            ),
        }
    }

    /// The process-wide default: `SLIMSELL_SWEEP`, read once and
    /// cached. Explicit `sweep:` fields in options override this
    /// everywhere it matters; CI runs the whole suite under all three
    /// settings.
    pub fn env_default() -> Self {
        static DEFAULT: OnceLock<SweepMode> = OnceLock::new();
        *DEFAULT.get_or_init(|| Self::parse_env(std::env::var("SLIMSELL_SWEEP").ok().as_deref()))
    }

    /// Whether this mode ever runs worklist sweeps — i.e. whether the
    /// engine must establish the worklist invariant (`nxt == cur`
    /// outside the worklist) up front and maintain the pending
    /// changed-chunk list across iterations.
    #[inline]
    pub fn uses_worklist(self) -> bool {
        !matches!(self, SweepMode::Full)
    }

    /// Display name (matches the `SLIMSELL_SWEEP` spelling and the
    /// bench artifacts' `sweep` field).
    pub fn name(self) -> &'static str {
        match self {
            SweepMode::Full => "full",
            SweepMode::Worklist => "worklist",
            SweepMode::Adaptive => "adaptive",
        }
    }
}

/// Which dispatcher one iteration actually executed — the per-iteration
/// trace of the policy, recorded as
/// [`IterStats::sweep_mode`](crate::IterStats::sweep_mode). In pure
/// [`SweepMode::Full`]/[`SweepMode::Worklist`] runs every iteration
/// carries the corresponding tag; adaptive runs interleave them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecutedSweep {
    /// The iteration swept the whole chunk range.
    #[default]
    Full,
    /// The iteration swept the active worklist only.
    Worklist,
}

impl ExecutedSweep {
    /// Display name used in analysis tables.
    pub fn name(self) -> &'static str {
        match self {
            ExecutedSweep::Full => "full",
            ExecutedSweep::Worklist => "worklist",
        }
    }
}

/// The sweep-policy pair shared by every kernel's options struct: which
/// [`SweepMode`] drives the iteration loop and which tile [`Schedule`]
/// distributes chunks over threads. `BfsOptions`, `SsspOptions`,
/// `PageRankOptions`, `MsBfsOptions`, `BetweennessOptions` and
/// `Descriptor` all embed one `SweepConfig`, which keeps the env-var
/// default logic and the builder surface in exactly one place.
///
/// Construct with [`SweepConfig::default`] (reads `SLIMSELL_SWEEP`,
/// dynamic scheduling) and refine with the consuming builders:
///
/// ```
/// use slimsell_core::{Schedule, SweepConfig, SweepMode};
/// let cfg = SweepConfig::default().sweep(SweepMode::Worklist).schedule(Schedule::Static);
/// assert_eq!(cfg.sweep, SweepMode::Worklist);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Sweep strategy for the iteration loop.
    pub sweep: SweepMode,
    /// Tile schedule for distributing chunk ranges over threads.
    pub schedule: Schedule,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { sweep: SweepMode::env_default(), schedule: Schedule::Dynamic }
    }
}

impl SweepConfig {
    /// A config with both knobs pinned explicitly (no env lookup).
    pub fn new(sweep: SweepMode, schedule: Schedule) -> Self {
        Self { sweep, schedule }
    }

    /// Returns the config with the sweep mode replaced.
    #[must_use]
    pub fn sweep(mut self, sweep: SweepMode) -> Self {
        self.sweep = sweep;
        self
    }

    /// Returns the config with the tile schedule replaced.
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// The adaptive gate's denominator: an adaptive iteration sweeps the
/// worklist iff its seed chunks hold fewer than
/// `1/WORKLIST_CELL_DEN` of the matrix's cells (see the module docs for
/// the calibration).
pub const WORKLIST_CELL_DEN: usize = 3;

/// The adaptive decision, a pure function of the (deduplicated) seed
/// list and the matrix: [`ExecutedSweep::Worklist`] iff the seed
/// chunks' slab cells, `Σ C·cl[j]`, are below `1/WORKLIST_CELL_DEN` of
/// all cells. The sum stops as soon as the bound is crossed, so a
/// flooded iteration (every chunk changed, as in PageRank's early
/// iterations) pays only for the seeds it reads before the answer is
/// certain.
pub fn adaptive_sweep(seeds: &[(u32, u32)], slab: ColumnSlab<'_>) -> ExecutedSweep {
    let total = slab.col.len();
    let mut cells = 0usize;
    for &(j, _) in seeds {
        cells += slab.cl[j as usize] as usize * slab.lanes;
        if cells * WORKLIST_CELL_DEN >= total {
            return ExecutedSweep::Full;
        }
    }
    ExecutedSweep::Worklist
}

/// Resolves the sweep policy for one iteration — the single shared
/// entry point of every sweep kernel, so the policy cannot drift between
/// kernels. Decides which chunks this iteration sweeps and returns them
/// as a [`ChunkSet`]: the whole range, or the worklist seeded from the
/// pending `(chunk, changed-lane mask)` list by a walk over `slab`
/// (clearing `pending` afterwards). The second value is the
/// lane-filtered activations paid (`None` when no seeding happened).
///
/// When a [`VertexMask`] is supplied, dependent chunks with no allowed
/// real lane are dropped *before* their activation is counted — a
/// fully masked chunk can never change state, so it never belongs on a
/// worklist.
///
/// In [`SweepMode::Adaptive`] the pending seed list is deduplicated
/// *before* the decision (duplicate chunks merge their lane masks):
/// callers like the direction-optimized driver push one entry per
/// discovered vertex (up to `C` duplicates per chunk), and the gate
/// prices each changed chunk once. [`ActivationState::seed`] would
/// merge anyway, so this costs nothing extra on the worklist path. When
/// the gate picks a full sweep the stale seeds are left in `pending`:
/// the recording full sweep rebuilds the list itself.
pub fn resolve_sweep<'a>(
    mode: SweepMode,
    act: &'a mut ActivationState,
    slab: ColumnSlab<'_>,
    pending: &mut Vec<(u32, u32)>,
    mask: Option<&VertexMask>,
) -> (ChunkSet<'a>, Option<u64>) {
    let exec = match mode {
        SweepMode::Full => ExecutedSweep::Full,
        SweepMode::Worklist => ExecutedSweep::Worklist,
        SweepMode::Adaptive => {
            merge_seeds(pending);
            adaptive_sweep(pending, slab)
        }
    };
    match exec {
        ExecutedSweep::Full => (ChunkSet::All(slab.num_chunks()), None),
        ExecutedSweep::Worklist => {
            let probes = act.seed(slab, pending, mask);
            pending.clear();
            let act: &'a ActivationState = act;
            (act.chunk_set(), Some(probes))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parse_sweep_values() {
        assert_eq!(SweepMode::parse_env(Some("full")), SweepMode::Full);
        assert_eq!(SweepMode::parse_env(Some("worklist")), SweepMode::Worklist);
        assert_eq!(SweepMode::parse_env(Some("adaptive")), SweepMode::Adaptive);
        assert_eq!(SweepMode::parse_env(Some("Adaptive")), SweepMode::Adaptive);
    }

    #[test]
    fn env_parse_unset_defaults_to_adaptive() {
        assert_eq!(SweepMode::parse_env(None), SweepMode::Adaptive);
        assert_eq!(SweepMode::parse_env(Some("")), SweepMode::Adaptive);
    }

    #[test]
    #[should_panic(expected = "unrecognized SLIMSELL_SWEEP")]
    fn env_parse_rejects_typos() {
        SweepMode::parse_env(Some("worklists"));
    }

    #[test]
    fn names_round_trip() {
        for m in [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive] {
            assert_eq!(SweepMode::parse_env(Some(m.name())), m);
        }
        assert_eq!(ExecutedSweep::Full.name(), "full");
        assert_eq!(ExecutedSweep::Worklist.name(), "worklist");
    }

    #[test]
    fn uses_worklist_partition() {
        assert!(!SweepMode::Full.uses_worklist());
        assert!(SweepMode::Worklist.uses_worklist());
        assert!(SweepMode::Adaptive.uses_worklist());
    }

    #[test]
    fn sweep_config_default_and_builders() {
        let cfg = SweepConfig::default();
        assert_eq!(cfg.sweep, SweepMode::env_default());
        assert_eq!(cfg.schedule, Schedule::Dynamic);
        let cfg = SweepConfig::new(SweepMode::Full, Schedule::Static)
            .sweep(SweepMode::Worklist)
            .schedule(Schedule::Dynamic);
        assert_eq!(cfg, SweepConfig { sweep: SweepMode::Worklist, schedule: Schedule::Dynamic });
    }

    /// A slab of `cl.len()` chunks, C = 4, with the given lengths
    /// (column contents do not matter to the gate).
    fn slab_of(cl: &[u32]) -> (Vec<usize>, Vec<i32>) {
        let mut cs = Vec::new();
        let mut total = 0usize;
        for &l in cl {
            cs.push(total);
            total += l as usize * 4;
        }
        (cs, vec![-1; total])
    }

    #[test]
    fn gate_prices_seed_cells_not_seed_chunks() {
        // One hub chunk holds 64 of the 96 steps: seeding it alone is a
        // flood, while 31 one-step chunks (124 of 384 cells) stay below
        // the 1/3 bound and 32 reach it.
        let mut cl = vec![64u32];
        cl.extend([1; 32]);
        let (cs, col) = slab_of(&cl);
        let slab = ColumnSlab { cs: &cs, cl: &cl, col: &col, lanes: 4 };
        assert_eq!(adaptive_sweep(&[(0, 1)], slab), ExecutedSweep::Full);
        let light: Vec<(u32, u32)> = (1..=31).map(|j| (j, 1)).collect();
        assert_eq!(adaptive_sweep(&light, slab), ExecutedSweep::Worklist);
        let light: Vec<(u32, u32)> = (1..=32).map(|j| (j, 1)).collect();
        assert_eq!(adaptive_sweep(&light, slab), ExecutedSweep::Full);
    }

    #[test]
    fn gate_takes_the_worklist_with_no_seeds() {
        let cl = [3u32, 0, 2];
        let (cs, col) = slab_of(&cl);
        let slab = ColumnSlab { cs: &cs, cl: &cl, col: &col, lanes: 4 };
        assert_eq!(adaptive_sweep(&[], slab), ExecutedSweep::Worklist);
        // Zero-length seed chunks cost nothing to walk.
        assert_eq!(adaptive_sweep(&[(1, 0b1111)], slab), ExecutedSweep::Worklist);
        assert_eq!(adaptive_sweep(&[(0, 1)], slab), ExecutedSweep::Full);
    }

    #[test]
    fn gate_stops_summing_once_the_bound_is_crossed() {
        // The first seed alone crosses the bound; the out-of-range id
        // behind it is never read.
        let cl = [8u32, 1];
        let (cs, col) = slab_of(&cl);
        let slab = ColumnSlab { cs: &cs, cl: &cl, col: &col, lanes: 4 };
        assert_eq!(adaptive_sweep(&[(0, 1), (u32::MAX, 1)], slab), ExecutedSweep::Full);
    }

    #[test]
    fn resolve_sweep_merges_seeds_before_pricing_them() {
        // Chunk 1 pushed 8 times (one entry per lane) is one seed of 4
        // cells out of 72: the worklist.
        let cl = [16u32, 1, 1];
        let (cs, col) = slab_of(&cl);
        let slab = ColumnSlab { cs: &cs, cl: &cl, col: &col, lanes: 4 };
        let mut pending: Vec<(u32, u32)> = (0..8).map(|l| (1, 1 << (l % 4))).collect();
        let mut act = ActivationState::new();
        let (set, seeded) = resolve_sweep(SweepMode::Adaptive, &mut act, slab, &mut pending, None);
        assert_eq!(set.executed(), ExecutedSweep::Worklist);
        assert_eq!(set.len(), 1);
        assert_eq!(seeded, Some(1));
        assert!(pending.is_empty());
        // A full decision leaves the merged seeds in place.
        let mut pending = vec![(0, 1), (0, 2)];
        let (set, seeded) = resolve_sweep(SweepMode::Adaptive, &mut act, slab, &mut pending, None);
        assert_eq!(set.executed(), ExecutedSweep::Full);
        assert_eq!(seeded, None);
        assert_eq!(pending, vec![(0, 3)]);
    }
}
