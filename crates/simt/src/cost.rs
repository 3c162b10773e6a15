//! Warp-level cost model.
//!
//! Costs are in abstract cycles per *warp-wide* operation. The defaults
//! are calibrated to the relative latencies that matter for the paper's
//! findings (gathers ≫ coalesced loads ≳ ALU), not to any particular GPU
//! part — the experiments read *shapes* (ratios, crossovers), not
//! absolute times, as befits a simulated stand-in for a real GPU.

use slimsell_core::counters::IterStats;
use slimsell_core::matrix::Representation;

/// Cycle costs for warp-wide operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// One vector ALU op (min/max/add/mul/and/or/cmp/blend).
    pub alu: u64,
    /// One coalesced vector load (col/val streams).
    pub load: u64,
    /// One coalesced vector store.
    pub store: u64,
    /// One gather (`f[col[...]]`): uncoalesced, the expensive one.
    pub gather: u64,
    /// SlimWork skip-criterion check per chunk.
    pub skip_check: u64,
    /// Fixed per-task launch/drain overhead.
    pub launch: u64,
}

impl CostModel {
    /// Default model (Tesla-class ratios: gather ≈ 4× coalesced load,
    /// load ≈ 2× ALU).
    pub const DEFAULT: Self =
        Self { alu: 1, load: 2, store: 2, gather: 8, skip_check: 2, launch: 4 };

    /// Cycles of one inner-loop column step (Listing 5 lines 6–21 /
    /// Listing 6 lines 7–17) for a representation/semiring combination.
    ///
    /// * both: load `col`, gather `rhs`, 2 ALU for `op1(op2(...))`;
    /// * Sell-C-σ: + 1 load for `val`;
    /// * SlimSell: + 2 ALU (compare + blend) to derive `val` — the
    ///   "more computation is required (lines 10–12)" of §III-B, traded
    ///   against the removed load.
    pub fn column_step(&self, rep: Representation) -> u64 {
        let base = self.load + self.gather + 2 * self.alu;
        match rep {
            Representation::SellCSigma => base + self.load,
            Representation::SlimSell => base + 2 * self.alu,
        }
    }

    /// Cycles of the per-chunk post-processing (Listing 5 lines 22–45).
    /// Semirings differ slightly (§IV-A2: tropical has none, boolean/real
    /// ≈ six instructions + two stores, sel-max ≈ four + two stores);
    /// modeled by instruction count.
    pub fn post_chunk(&self, semiring: &str) -> u64 {
        match semiring {
            "tropical" => self.store,
            "boolean" | "real" => 6 * self.alu + 2 * self.store,
            "sel-max" => 4 * self.alu + 2 * self.store,
            _ => 6 * self.alu + 2 * self.store,
        }
    }

    /// Cycles charged to a full chunk task of `cl` column steps.
    pub fn chunk_task(&self, cl: u64, rep: Representation, semiring: &str) -> u64 {
        self.launch + cl * self.column_step(rep) + self.post_chunk(semiring)
    }

    /// Cycles charged to a skipped chunk (criterion check + state copy).
    pub fn skipped_chunk(&self) -> u64 {
        self.skip_check + self.load + self.store
    }

    /// Busy cycles this model predicts for a *measured* CPU iteration:
    /// the launch and post-processing of every processed chunk, the
    /// column steps actually executed, and the skip path of every
    /// SlimWork-skipped chunk. For an untiled full sweep this equals
    /// [`run_simt_bfs`](crate::run_simt_bfs)'s per-iteration
    /// `busy_cycles` exactly — the bridge that lets the CPU engine's
    /// hardware counters validate the simulator (and vice versa).
    pub fn predicted_busy_cycles(
        &self,
        it: &IterStats,
        rep: Representation,
        semiring: &str,
    ) -> u64 {
        (self.launch + self.post_chunk(semiring)) * it.chunks_processed as u64
            + it.col_steps * self.column_step(rep)
            + self.skipped_chunk() * it.chunks_skipped as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slimsell_step_cheaper_when_alu_cheap() {
        // With the default ratios (2 ALU < 1 load) SlimSell's derived
        // vals beat Sell-C-σ's val load — the §IV-A3 result.
        let c = CostModel::DEFAULT;
        assert!(
            c.column_step(Representation::SlimSell) <= c.column_step(Representation::SellCSigma)
        );
    }

    #[test]
    fn tropical_post_is_cheapest() {
        let c = CostModel::DEFAULT;
        assert!(c.post_chunk("tropical") < c.post_chunk("boolean"));
        assert!(c.post_chunk("sel-max") < c.post_chunk("boolean"));
    }

    #[test]
    fn chunk_task_scales_with_cl() {
        let c = CostModel::DEFAULT;
        let t1 = c.chunk_task(1, Representation::SlimSell, "tropical");
        let t10 = c.chunk_task(10, Representation::SlimSell, "tropical");
        assert_eq!(t10 - t1, 9 * c.column_step(Representation::SlimSell));
    }

    #[test]
    fn skip_is_cheaper_than_any_work() {
        let c = CostModel::DEFAULT;
        assert!(c.skipped_chunk() < c.chunk_task(1, Representation::SlimSell, "tropical"));
    }
}
