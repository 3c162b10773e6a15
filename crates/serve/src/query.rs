//! Per-query state: tickets, handles, results and errors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use slimsell_core::VertexMask;
use slimsell_graph::VertexId;

use crate::stats::{Outcome, ServerStats};
use crate::sync;

/// Why a query did not produce distances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query was cancelled via [`QueryHandle::cancel`] before its
    /// results were extracted. Cancellation never aborts or perturbs
    /// the batch the query rode in — batch-mates are served normally.
    Cancelled,
    /// The query's iteration budget was exhausted: the batch sweep it
    /// rode needed more iterations than the budget allows (a
    /// zero-budget query fails this way at submission, without ever
    /// entering the queue).
    BudgetExhausted,
    /// The query's wall-clock deadline passed before its results could
    /// be delivered — either shed from the queue before claiming a
    /// batch lane, or expired during its batch's sweep.
    DeadlineExceeded,
    /// The query was submitted after the server began shutting down.
    ShutDown,
    /// The bounded admission queue was full
    /// ([`ServeOptions::queue_capacity`](crate::ServeOptions)); the
    /// submission fast-failed without queueing. Retry after a backoff.
    QueueFull,
    /// The server exhausted its worker-restart budget
    /// ([`ServeOptions::max_worker_restarts`](crate::ServeOptions))
    /// and is rejecting new work while draining what it already
    /// admitted.
    Degraded,
    /// The snapshot cannot run the query as submitted: the root is out
    /// of range, the mask was built for another structure, or the root
    /// lies outside its mask. Resolved at submission without entering
    /// the queue, and counted as rejected.
    InvalidQuery {
        /// Which check the query failed.
        reason: String,
    },
    /// A fault killed the query after admission: the worker serving
    /// its batch panicked mid-batch, or the whole worker pool died
    /// while the query was queued. Batch-mates of a panicking worker
    /// fail together; queries in other batches are unaffected.
    Failed {
        /// Human-readable description of the fault (panic payload or
        /// pool state).
        reason: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::BudgetExhausted => write!(f, "iteration budget exhausted"),
            QueryError::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            QueryError::ShutDown => write!(f, "server shutting down"),
            QueryError::QueueFull => write!(f, "admission queue full"),
            QueryError::Degraded => write!(f, "server degraded: worker restart budget exhausted"),
            QueryError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            QueryError::Failed { reason } => write!(f, "query failed: {reason}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-query knobs for [`BfsServer::submit_spec`](crate::BfsServer::submit_spec).
#[derive(Clone, Debug, Default)]
pub struct QuerySpec {
    /// Iteration budget (`None` = unbounded): the query fails with
    /// [`QueryError::BudgetExhausted`] if its batch needs more sweeps.
    pub budget: Option<usize>,
    /// Wall-clock deadline measured from submission (`None` = no
    /// deadline). The admission queue dispatches
    /// earliest-deadline-first, sheds the query if the deadline passes
    /// while it is still queued, and fails it `DeadlineExceeded` if
    /// the deadline passes before extraction.
    pub deadline: Option<Duration>,
    /// Optional subgraph filter: the BFS runs restricted to the masked
    /// vertices (vertices outside the mask are never discovered and
    /// report [`UNREACHABLE`](slimsell_graph::UNREACHABLE)). The root
    /// must be inside the mask. Batching coalesces only queries whose
    /// mask is the *same* `Arc` (or absent on both sides) — share one
    /// `Arc<VertexMask>` across queries to let them ride one batch;
    /// distinct masks split batches
    /// ([`ServerStats::mask_splits`](crate::ServerStats)).
    pub mask: Option<Arc<VertexMask>>,
}

impl QuerySpec {
    /// Sets the iteration budget (builder).
    #[must_use]
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the wall-clock deadline (builder).
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Restricts the query to a vertex mask (builder). Submit the
    /// *same* `Arc` for queries that should coalesce into one batch.
    #[must_use]
    pub fn mask(mut self, mask: Arc<VertexMask>) -> Self {
        self.mask = Some(mask);
        self
    }
}

/// How the batch that served a query ran — the per-batch slice of the
/// kernel's [`RunStats`](slimsell_core::RunStats), shared by every
/// query the batch coalesced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchInfo {
    /// Server-unique batch id (assignment order, not submission order).
    pub batch_id: u64,
    /// Live queries this batch coalesced (1..=B). The batch is swept
    /// `W` lanes wide: the smallest of 1, 2 and 4 that holds them
    /// (capped at `B`), else `B`; the `W − batch_size` padding lanes
    /// repeat the first root and are never extracted.
    pub batch_size: usize,
    /// Sweeps the batch executed.
    pub iterations: usize,
    /// Total column steps across the batch's sweeps. Independent of
    /// `W`: padding lanes repeat a live root, so they add bytes to a
    /// sweep but never a column step.
    pub col_steps: u64,
    /// Total `C·W` lane-slots touched (`col_steps · C · W`).
    pub cells: u64,
    /// Lane-slots that carried a stored arc (`arcs · W` per processed
    /// chunk) — the numerator of [`Self::lane_utilization`].
    pub active_cells: u64,
}

impl BatchInfo {
    /// Fraction of touched lane-slots that held a stored arc rather
    /// than `-1` padding (1.0 when nothing was touched).
    pub fn lane_utilization(&self) -> f64 {
        if self.cells == 0 {
            1.0
        } else {
            self.active_cells as f64 / self.cells as f64
        }
    }
}

/// A served query: the exact single-source BFS distances (bit-identical
/// to a standalone [`BfsEngine`](slimsell_core::BfsEngine) run,
/// whatever batch the admission queue put the query in) plus the
/// batch's work accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutput {
    /// Hop distances in original vertex ids
    /// ([`UNREACHABLE`](slimsell_graph::UNREACHABLE) where unreached).
    pub dist: Vec<u32>,
    /// How the batch that carried this query ran.
    pub batch: BatchInfo,
}

/// The server-side query record: shared between the submitting client
/// (through [`QueryHandle`]) and the worker that serves the batch.
pub(crate) struct Ticket {
    pub(crate) id: u64,
    pub(crate) root: VertexId,
    /// Iteration budget: the query fails with
    /// [`QueryError::BudgetExhausted`] when its batch needs more
    /// sweeps than this. `None` = unbounded.
    pub(crate) budget: Option<usize>,
    /// Absolute wall-clock deadline (submission instant + the spec's
    /// relative deadline). `None` = no deadline.
    pub(crate) deadline: Option<Instant>,
    /// Subgraph filter: only queries carrying the *same* `Arc` (or
    /// none) may share a batch, because the whole batch runs one
    /// masked sweep.
    pub(crate) mask: Option<Arc<VertexMask>>,
    cancelled: AtomicBool,
    slot: Mutex<Option<Result<QueryOutput, QueryError>>>,
    cv: Condvar,
    /// The server's counters: the winning resolver records its
    /// partition bucket here, so stats can never drift from handle
    /// outcomes — not even when a panic interrupts a worker between
    /// resolving a batch's tickets and its (former) end-of-batch
    /// accounting.
    stats: Arc<Mutex<ServerStats>>,
}

impl Ticket {
    pub(crate) fn new(
        id: u64,
        root: VertexId,
        budget: Option<usize>,
        deadline: Option<Instant>,
        mask: Option<Arc<VertexMask>>,
        stats: Arc<Mutex<ServerStats>>,
    ) -> Self {
        Self {
            id,
            root,
            budget,
            deadline,
            mask,
            cancelled: AtomicBool::new(false),
            slot: Mutex::new(None),
            cv: Condvar::new(),
            stats,
        }
    }

    /// Advisory cancellation flag, polled by the batch control hook and
    /// at extraction (the authoritative outcome is whoever resolves the
    /// slot first).
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub(crate) fn mark_cancelled(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the wall-clock deadline has already passed.
    pub(crate) fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// First writer wins: fills the result slot, records `outcome` in
    /// the server's partition counters, and wakes waiters. Returns
    /// whether this call actually resolved the query. Because the
    /// winning resolver is also the (only) accountant, server stats
    /// exactly agree with the outcome each handle observed — under
    /// cancel races and under worker panics alike.
    pub(crate) fn resolve(
        &self,
        result: Result<QueryOutput, QueryError>,
        outcome: Outcome,
    ) -> bool {
        {
            let mut slot = sync::lock(&self.slot);
            if slot.is_some() {
                return false;
            }
            *slot = Some(result);
            self.cv.notify_all();
        }
        sync::lock(&self.stats).count(outcome);
        true
    }

    fn take_result(&self) -> Result<QueryOutput, QueryError> {
        let mut slot = sync::lock(&self.slot);
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = sync::wait(&self.cv, slot);
        }
    }

    pub(crate) fn is_resolved(&self) -> bool {
        sync::lock(&self.slot).is_some()
    }
}

/// Client handle to one submitted query.
pub struct QueryHandle {
    pub(crate) ticket: Arc<Ticket>,
}

impl QueryHandle {
    /// Server-unique query id (submission order).
    pub fn id(&self) -> u64 {
        self.ticket.id
    }

    /// The requested BFS root (original vertex id).
    pub fn root(&self) -> VertexId {
        self.ticket.root
    }

    /// Requests cancellation. If the query has not been resolved yet it
    /// resolves to [`QueryError::Cancelled`] immediately (a queued
    /// query drops out of its batch before the sweep; a query whose
    /// batch is mid-sweep drops out of result extraction without
    /// aborting its batch-mates — and when *every* lane of a batch is
    /// cancelled or expired, the iteration-level control hook stops the
    /// sweep gracefully). Cancelling an already-served query is a
    /// no-op.
    pub fn cancel(&self) {
        self.ticket.mark_cancelled();
        self.ticket.resolve(Err(QueryError::Cancelled), Outcome::Cancelled);
    }

    /// Whether a result (or error) is already available, without
    /// blocking.
    pub fn is_done(&self) -> bool {
        self.ticket.is_resolved()
    }

    /// Blocks until the query resolves and returns its outcome.
    ///
    /// This can never block forever: every admitted ticket is resolved
    /// by its batch's worker, by supervision (a panicking worker fails
    /// its in-flight batch; a dying pool fails the remaining queue),
    /// or by [`shutdown`](crate::BfsServer::shutdown)'s final sweep —
    /// and dropping the server runs shutdown.
    pub fn wait(self) -> Result<QueryOutput, QueryError> {
        self.ticket.take_result()
    }
}
