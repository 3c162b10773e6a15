//! Whole-server counters aggregated across batches.

/// The partition bucket a resolved query falls into. Every ticket is
/// resolved exactly once (first writer wins), and the winning resolver
/// names its bucket — so the counters below are incremented exactly
/// once per query, at resolution time, and the partition invariant
/// `submitted = served + expired + cancelled + rejected + failed +
/// shed` holds structurally rather than by careful bookkeeping at
/// every call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Exact distances delivered.
    Served,
    /// Iteration budget or wall-clock deadline exhausted after the
    /// query had already claimed a batch lane.
    Expired,
    /// Client cancellation won the resolution race.
    Cancelled,
    /// Refused admission: an invalid query, shutdown, degraded mode, or
    /// a full queue.
    Rejected,
    /// A worker panic (or worker-pool death) killed the query's batch.
    Failed,
    /// Load shedding: the wall-clock deadline expired while the query
    /// was still queued, so it was dropped before wasting a batch lane.
    Shed,
}

/// Lifetime counters for one [`BfsServer`](crate::BfsServer).
///
/// Query outcomes partition: once every handle has resolved,
/// `submitted == served + expired + cancelled + rejected + failed +
/// shed` (see [`ServerStats::resolved`]). Work counters aggregate the
/// per-batch [`RunStats`](slimsell_core::RunStats) slices, so
/// `lane_utilization` is comparable with the standalone kernels'
/// accounting. Fault counters (`worker_panics`, `restarts`) and the
/// admission-control counters (`shed`, `queue_full_rejects`) make
/// degradation measurable instead of silent.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Queries accepted by `submit`/`submit_with`/`submit_spec`
    /// (including ones that fail fast).
    pub submitted: u64,
    /// Queries that resolved with exact distances.
    pub served: u64,
    /// Queries that resolved `BudgetExhausted` (zero-budget fast-fails
    /// included) or `DeadlineExceeded` after claiming a batch lane.
    pub expired: u64,
    /// Queries that resolved `Cancelled`.
    pub cancelled: u64,
    /// Queries refused admission: malformed (`InvalidQuery`), submitted
    /// after shutdown (`ShutDown`), while degraded (`Degraded`), or
    /// against a full bounded queue (`QueueFull`).
    pub rejected: u64,
    /// Queries that resolved `Failed`: their batch's worker panicked
    /// mid-batch, or the whole worker pool died with them queued.
    pub failed: u64,
    /// Queries shed from the queue: their wall-clock deadline expired
    /// before they claimed a batch lane.
    pub shed: u64,
    /// Rejections specifically due to the bounded queue being full
    /// (a subset of `rejected`).
    pub queue_full_rejects: u64,
    /// Worker panics caught by supervision (injected faults included).
    pub worker_panics: u64,
    /// Workers respawned by supervision after a panic (bounded by
    /// [`ServeOptions::max_worker_restarts`](crate::ServeOptions)).
    pub restarts: u64,
    /// Batches executed to completion (batches killed by a worker
    /// panic, or whose queries were all cancelled before the sweep,
    /// are not counted).
    pub batches: u64,
    /// Batches that coalesced more than one live query.
    pub multi_root_batches: u64,
    /// Batches that launched while live work stayed queued because its
    /// vertex mask differed from the batch's: masked batching only
    /// coalesces queries whose [`QuerySpec::mask`](crate::QuerySpec)
    /// is the *same* `Arc` (or absent on both sides), so a mask
    /// mismatch splits what the window would otherwise have merged.
    pub mask_splits: u64,
    /// Total live queries over all batches (`Σ batch_size`).
    pub coalesced: u64,
    /// Batches whose sweep the control hook stopped before convergence
    /// (every lane cancelled, over budget, or past deadline).
    pub aborted_sweeps: u64,
    /// Sweeps executed across all batches.
    pub total_iterations: u64,
    /// Column steps across all batches.
    pub total_col_steps: u64,
    /// Lane-slots touched across all batches: `C·W` per column step,
    /// where `W` is the width each batch was swept at
    /// ([`BatchInfo::cells`](crate::BatchInfo::cells)).
    pub total_cells: u64,
    /// Touched lane-slots that carried a stored arc.
    pub total_active_cells: u64,
}

impl ServerStats {
    /// Records one resolved query in its partition bucket.
    pub(crate) fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Served => self.served += 1,
            Outcome::Expired => self.expired += 1,
            Outcome::Cancelled => self.cancelled += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Shed => self.shed += 1,
        }
    }

    /// Sum of all outcome buckets. Once every submitted handle has
    /// resolved, `resolved() == submitted` — the partition invariant
    /// every serve test asserts.
    pub fn resolved(&self) -> u64 {
        self.served + self.expired + self.cancelled + self.rejected + self.failed + self.shed
    }

    /// Mean live queries per executed batch (0.0 before any batch ran).
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.coalesced as f64 / self.batches as f64
        }
    }

    /// Fraction of touched lane-slots that held a stored arc rather
    /// than padding (1.0 when nothing was touched).
    pub fn lane_utilization(&self) -> f64 {
        if self.total_cells == 0 {
            1.0
        } else {
            self.total_active_cells as f64 / self.total_cells as f64
        }
    }
}

/// Outcome of a [`BfsServer::shutdown`](crate::BfsServer::shutdown)
/// drain. Shutdown never panics: workers that died from a panic are
/// recorded here (and in [`ServerStats::worker_panics`]) instead of
/// aborting the caller.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Final lifetime counters.
    pub stats: ServerStats,
    /// Worker threads that exited cleanly and were joined.
    pub workers_joined: usize,
    /// Worker threads whose join returned a panic payload — panics
    /// that escaped the supervised batch region (none in normal
    /// operation; the supervised region converts panics into `Failed`
    /// batches before the thread exits).
    pub unclean_joins: usize,
    /// Whether the server ended degraded: its worker-restart budget
    /// was exhausted by panics and new submissions were being
    /// rejected.
    pub degraded: bool,
}
