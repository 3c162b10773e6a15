//! Sweep-mode policy: runtime selection between full sweeps and
//! frontier-proportional worklist sweeps, including the adaptive
//! controller that switches per iteration.
//!
//! Worklist sweeps win decisively on high-diameter graphs (thin wavefront frontiers)
//! but pay ~1.4× wall overhead in the Kronecker flood regime, where
//! nearly every chunk is active every iteration and the activation
//! machinery is pure cost. That is the same regime split that motivates
//! push–pull direction heuristics in GraphBLAS-style engines and the
//! paper's own SlimWork/SlimChunk adaptivity (§V): the right sweep
//! strategy is a property of the *iteration*, not the run.
//!
//! [`SweepMode`] is the policy knob
//! ([`SweepConfig::sweep`], embedded in every kernel's options; the
//! `SLIMSELL_SWEEP` env var):
//!
//! * [`SweepMode::Full`] — every iteration sweeps the whole chunk range
//!   (per-chunk SlimWork skip tests still apply).
//! * [`SweepMode::Worklist`] — every iteration sweeps the active-chunk
//!   worklist only.
//! * [`SweepMode::Adaptive`] — the default: the controller below picks
//!   per iteration, recording exact per-chunk changes through full
//!   sweeps so it can re-seed the worklist on every full→worklist
//!   transition without ever touching outputs.
//!
//! The policy's answer is a value: [`resolve_sweep`] returns the
//! [`ChunkSet`] this iteration visits — the whole range or the seeded
//! worklist — and every kernel runs the same loop over it
//! ([`ChunkSet::sweep`]). A full sweep is the worklist that spans the
//! range.
//!
//! # The adaptive controller
//!
//! The decision variable is the **seed count** — how many chunks
//! changed bit-wise last iteration, i.e. the worklist members that are
//! guaranteed to be listed before any dependency expansion — compared
//! against a crossover calibrated at `nc / 2` (`nc` = chunk count).
//! Two properties make seeds the right variable:
//!
//! * `seeds` lower-bounds the next worklist length (every seed is on
//!   its own worklist via the self edge), so a flooded seed set proves
//!   a flooded worklist without computing it;
//! * the worklist engine's entire per-iteration overhead — dependency
//!   expansion (`Σ |dependents(seed)|` probes), flag harvest, tile
//!   setup — is proportional to the seed set, so seeds directly
//!   measure what a full sweep would *save*. (Column-step-wise the
//!   worklist never loses — processed chunks do identical math and the
//!   full sweep processes a superset — so wall time in the flood
//!   regime is exactly where the policy earns its keep.)
//!
//! Measured on the `repro frontier` generators at scale 12, the two
//! regimes separate by more than 4× around `nc/2`: Kronecker's flood
//! iterations run at 0.67–0.72 `nc` seeds, while the geometric and
//! small-world wavefronts never exceed 0.15 `nc` — even when their
//! *worklists* transiently span 0.8 `nc` and still win, which is why
//! the worklist length itself would be the wrong gate.
//!
//! **Hysteresis.** The controller leaves worklist sweeps only when
//! `seeds ≥ ⌈9·nc/16⌉` and re-enters only when `seeds ≤ ⌊7·nc/16⌋`, so
//! a seed set oscillating around `nc/2` cannot thrash between modes
//! (each transition has a small fixed cost). Deciding on full
//! iterations means the changed-chunk list must stay current through
//! them: adaptive full sweeps *record* change masks (below). Crucially,
//! the decision needs **no activation probes ever** on the full-sweep
//! side — mid-flood the controller reads one length and sweeps the
//! whole range, which is what keeps adaptive at ≈ 1.0× full-sweep wall
//! time on Kronecker.
//!
//! Correctness of switching (the **re-seeding invariant**): the
//! worklist engine requires that outside the worklist the next-state
//! buffer already equals the current state bit-for-bit. Adaptive full
//! sweeps therefore *record*, exactly like worklist sweeps: each
//! chunk's freshly written output is compared bit-wise against its
//! previous state
//! ([`Semiring::state_changed`](crate::Semiring::state_changed)), and
//! [`ChunkSet::harvest`] turns the changed chunks into the seed set. A
//! chunk whose flag is clear
//! wrote back exactly its previous state, so after the buffer swap it
//! satisfies the invariant; a chunk whose flag is set is a seed, hence
//! on the next worklist (self edge) and rewritten before anyone reads
//! its stale double-buffered slot. Outputs are bit-identical to both
//! pure modes at any thread count — asserted by
//! `tests/parallel_determinism.rs` and proven on arbitrary graphs by
//! the `adaptive_equals_full_sweep` side of
//! `tests/proptest_invariants.rs`.

use std::sync::OnceLock;

use crate::mask::VertexMask;
use crate::tiling::{ChunkSet, Schedule};
use crate::worklist::{ActivationState, ChunkDepGraph};

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
    /// Switch per iteration at the calibrated `~nc/2` crossover with
    /// hysteresis (see the module docs).
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

/// Hysteresis band numerators over [`CROSSOVER_DEN`]: worklist sweeps
/// are entered at `seeds ≤ 7/16 · nc` and left at `seeds ≥ 9/16 · nc`,
/// bracketing the `nc/2` crossover.
pub const ENTER_WORKLIST_NUM: usize = 7;
/// See [`ENTER_WORKLIST_NUM`].
pub const EXIT_WORKLIST_NUM: usize = 9;
/// Denominator of the hysteresis fractions.
pub const CROSSOVER_DEN: usize = 16;

/// The per-run adaptive switching state: the currently latched mode
/// plus the hysteresis decision rule. One controller lives in the
/// engine scratch of each run; it is deliberately dumb state — the
/// decision is pure in (seed count, chunk count) so the trace is
/// bit-reproducible at any thread count.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveController {
    mode: ExecutedSweep,
}

impl Default for AdaptiveController {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptiveController {
    /// A fresh controller, latched to worklist sweeps: the iterative
    /// kernels start from a near-empty frontier (BFS/SSSP: one chunk),
    /// exactly the worklist regime.
    pub fn new() -> Self {
        Self { mode: ExecutedSweep::Worklist }
    }

    /// The currently latched mode.
    #[inline]
    pub fn mode(&self) -> ExecutedSweep {
        self.mode
    }

    /// Largest seed count at which the controller switches *into*
    /// worklist sweeps (`⌊7·nc/16⌋`, clamped to at least 1 so trivial
    /// chunk ranges still take the worklist path).
    #[inline]
    pub fn enter_max(nc: usize) -> usize {
        (nc * ENTER_WORKLIST_NUM / CROSSOVER_DEN).max(1)
    }

    /// Smallest seed count at which the controller switches *back* to
    /// full sweeps (`⌈9·nc/16⌉`, at least `enter_max + 1` so the
    /// hysteresis band never inverts).
    #[inline]
    pub fn exit_min(nc: usize) -> usize {
        (nc * EXIT_WORKLIST_NUM).div_ceil(CROSSOVER_DEN).max(Self::enter_max(nc) + 1)
    }

    /// The hysteresis decision, called with the seed count (chunks
    /// whose state changed last iteration) *before* any dependency
    /// expansion. Returns (and latches) the mode this iteration runs
    /// in; when it answers [`ExecutedSweep::Full`] the caller skips
    /// seeding entirely — no activation probes are ever paid on the
    /// full-sweep side.
    pub fn decide(&mut self, seeds: usize, nc: usize) -> ExecutedSweep {
        self.mode = match self.mode {
            ExecutedSweep::Full if seeds <= Self::enter_max(nc) => ExecutedSweep::Worklist,
            ExecutedSweep::Worklist if seeds >= Self::exit_min(nc) => ExecutedSweep::Full,
            latched => latched,
        };
        self.mode
    }
}

/// Resolves the sweep policy for one iteration — the single shared
/// entry point of every sweep kernel, so the controller's contract
/// cannot drift between kernels. Decides which chunks this iteration
/// sweeps and returns them as a [`ChunkSet`]: the whole range, or the
/// worklist seeded from the pending `(chunk, changed-lane mask)` list
/// (clearing `pending` afterwards). The second value is the
/// lane-filtered activations paid (`None` when no seeding happened).
///
/// The dependency graph is taken lazily: `dep` is only called when a
/// worklist is seeded, so a pure [`SweepMode::Full`] run never builds
/// it.
///
/// When a [`VertexMask`] is supplied, dependent chunks with no allowed
/// real lane are dropped *before* the activation probe is paid — a
/// fully masked chunk can never change state, so it never belongs on a
/// worklist and its probes would be pure waste.
///
/// In [`SweepMode::Adaptive`] the pending seed list is deduplicated
/// *before* the decision (duplicate chunks merge their lane masks):
/// callers like the direction-optimized driver push one entry per
/// discovered vertex (up to `C` duplicates per chunk), and the
/// controller's crossover is calibrated on distinct changed chunks.
/// [`ActivationState::seed`] would merge anyway, so this costs nothing
/// extra on the worklist path. When the controller picks a full sweep
/// the stale seeds are left in `pending`: the recording full sweep
/// rebuilds the list itself.
pub fn resolve_sweep<'a, 'd>(
    mode: SweepMode,
    ctl: &mut AdaptiveController,
    act: &'a mut ActivationState,
    dep: impl FnOnce() -> &'d ChunkDepGraph,
    pending: &mut Vec<(u32, u32)>,
    nc: usize,
    mask: Option<&VertexMask>,
) -> (ChunkSet<'a>, Option<u64>) {
    let exec = match mode {
        SweepMode::Full => ExecutedSweep::Full,
        SweepMode::Worklist => ExecutedSweep::Worklist,
        SweepMode::Adaptive => {
            pending.sort_unstable_by_key(|&(j, _)| j);
            pending.dedup_by(|next, prev| {
                if next.0 == prev.0 {
                    prev.1 |= next.1;
                    true
                } else {
                    false
                }
            });
            ctl.decide(pending.len(), nc)
        }
    };
    match exec {
        ExecutedSweep::Full => (ChunkSet::All(nc), None),
        ExecutedSweep::Worklist => {
            let probes = act.seed(dep(), pending, mask);
            pending.clear();
            let act: &'a ActivationState = act;
            (ChunkSet::List(act.worklist()), Some(probes))
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

    #[test]
    fn thresholds_bracket_the_crossover() {
        for nc in [1usize, 2, 3, 16, 17, 100, 1 << 14] {
            let enter = AdaptiveController::enter_max(nc);
            let exit = AdaptiveController::exit_min(nc);
            assert!(enter < exit, "band inverted at nc={nc}: enter {enter} exit {exit}");
            assert!(enter >= 1);
            if nc >= 16 {
                assert!(enter < nc / 2, "enter {enter} not below crossover at nc={nc}");
                assert!(exit > nc / 2, "exit {exit} not above crossover at nc={nc}");
            }
        }
    }

    #[test]
    fn controller_hysteresis_does_not_thrash() {
        let nc = 160; // enter_max = 70, exit_min = 90
        let mut ctl = AdaptiveController::new();
        assert_eq!(ctl.mode(), ExecutedSweep::Worklist);
        // Inside the band nothing changes, from either latched mode.
        assert_eq!(ctl.decide(80, nc), ExecutedSweep::Worklist);
        assert_eq!(ctl.decide(89, nc), ExecutedSweep::Worklist);
        // Crossing the exit threshold flips to full...
        assert_eq!(ctl.decide(90, nc), ExecutedSweep::Full);
        // ...and the band again holds.
        assert_eq!(ctl.decide(80, nc), ExecutedSweep::Full);
        assert_eq!(ctl.decide(71, nc), ExecutedSweep::Full);
        // Crossing the enter threshold flips back.
        assert_eq!(ctl.decide(70, nc), ExecutedSweep::Worklist);
    }

    #[test]
    fn tiny_chunk_ranges_still_take_the_worklist_path() {
        // nc = 1: enter_max clamps to 1, exit_min to 2, and the seed
        // count can never reach 2 on one chunk — so a 1-chunk graph
        // runs worklist sweeps instead of degenerating to full sweeps
        // through a 0-width band.
        let mut ctl = AdaptiveController::new();
        assert_eq!(ctl.decide(1, 1), ExecutedSweep::Worklist);
        assert_eq!(ctl.decide(0, 1), ExecutedSweep::Worklist);
    }
}
