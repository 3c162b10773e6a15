//! The worker pool, admission queue, batch lifecycle, and supervision.
//!
//! # Fault domains and unwind safety
//!
//! Each worker's batch processing runs inside `catch_unwind`, making
//! one batch the blast radius of one panic: the panicking worker
//! resolves its in-flight batch's queries as
//! [`QueryError::Failed`] and exits; supervision respawns a
//! replacement while the restart budget
//! ([`ServeOptions::max_worker_restarts`]) lasts, after which the
//! server *degrades* — new submissions are rejected
//! ([`QueryError::Degraded`]) while admitted work keeps draining.
//!
//! The `AssertUnwindSafe` is justified, not assumed:
//!
//! * the matrix snapshot is immutable behind an `Arc` — no sweep ever
//!   writes it;
//! * all kernel scratch (`multi_bfs_while`'s state vectors, the roots
//!   array) is batch-local and dropped by the unwind;
//! * shared mutable state is touched only through the poison-
//!   recovering locks in [`crate::sync`], and every critical section
//!   is a single non-panicking write (a counter bump, a queue
//!   push/pop, a result-slot fill), so a panic can never expose a
//!   torn invariant to the next lock holder;
//! * ticket resolution is first-writer-wins and counts its partition
//!   bucket in the same call, so stats agree with handle outcomes
//!   even when a panic lands between a batch's resolutions.
//!
//! Injected faults ([`FaultPlan`]) panic from the iteration callback —
//! between sweeps, on the worker thread, never inside a parallel
//! region — exercising exactly this path deterministically.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use slimsell_core::{
    multi_bfs_while, ChunkMatrix, MsBfsOptions, RunStats, Schedule, SweepConfig, SweepMode,
    VertexMask,
};
use slimsell_graph::VertexId;

use crate::fault::{FaultKind, FaultPlan};
use crate::query::{BatchInfo, QueryError, QueryHandle, QueryOutput, QuerySpec, Ticket};
use crate::stats::{Outcome, ServerStats, ShutdownReport};
use crate::sync;

/// Default admission window when `SLIMSELL_BATCH_WINDOW_US` is unset.
const DEFAULT_BATCH_WINDOW_US: u64 = 200;

/// Default worker-restart budget when `SLIMSELL_MAX_RESTARTS` is unset.
const DEFAULT_MAX_RESTARTS: usize = 8;

fn env_batch_window() -> Duration {
    static WINDOW: OnceLock<Duration> = OnceLock::new();
    *WINDOW.get_or_init(|| {
        let us = std::env::var("SLIMSELL_BATCH_WINDOW_US")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_BATCH_WINDOW_US);
        Duration::from_micros(us)
    })
}

fn env_max_restarts() -> usize {
    static RESTARTS: OnceLock<usize> = OnceLock::new();
    *RESTARTS.get_or_init(|| {
        std::env::var("SLIMSELL_MAX_RESTARTS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_MAX_RESTARTS)
    })
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads pulling batches from the admission queue.
    pub workers: usize,
    /// How long a worker holds a partially filled batch open waiting
    /// for more roots: a batch launches when `B` roots have arrived or
    /// the window expires, whichever comes first. Defaults to
    /// `SLIMSELL_BATCH_WINDOW_US` microseconds (200 µs when unset).
    pub batch_window: Duration,
    /// Iteration budget applied by [`BfsServer::submit`]; `None` =
    /// unbounded. `submit_with`/`submit_spec` override per query.
    pub default_budget: Option<usize>,
    /// Wall-clock deadline applied by [`BfsServer::submit`] and
    /// [`BfsServer::submit_with`], measured from submission; `None` =
    /// no deadline. `submit_spec` overrides per query.
    pub default_deadline: Option<Duration>,
    /// Bound on the admission queue (`None` = unbounded). A submission
    /// against a full queue fast-fails with [`QueryError::QueueFull`]
    /// instead of growing the backlog — the load-shedding fast path.
    pub queue_capacity: Option<usize>,
    /// How many panicked workers supervision may respawn over the
    /// server's lifetime before it degrades to rejecting new
    /// submissions (admitted work still drains). Defaults to
    /// `SLIMSELL_MAX_RESTARTS` (8 when unset).
    pub max_worker_restarts: usize,
    /// Deterministic chaos injection: which workers panic or stall on
    /// which batches. Empty by default (no faults).
    pub fault_plan: FaultPlan,
    /// Sweep policy and tile schedule for the batch kernel (the sweep
    /// defaults to `SLIMSELL_SWEEP`).
    pub config: SweepConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 1,
            batch_window: env_batch_window(),
            default_budget: None,
            default_deadline: None,
            queue_capacity: None,
            max_worker_restarts: env_max_restarts(),
            fault_plan: FaultPlan::new(),
            config: SweepConfig::default(),
        }
    }
}

impl ServeOptions {
    /// Sets the sweep policy of the batch kernel (builder).
    #[must_use]
    pub fn sweep(mut self, sweep: SweepMode) -> Self {
        self.config.sweep = sweep;
        self
    }

    /// Sets the tile schedule of the batch kernel (builder).
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Sets the full sweep configuration of the batch kernel (builder).
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }
}

struct QueueState {
    queue: VecDeque<Arc<Ticket>>,
    shutdown: bool,
    /// Set when the restart budget is exhausted by a panic: new
    /// submissions are rejected, admitted work still drains.
    degraded: bool,
}

struct Shared<M> {
    matrix: Arc<M>,
    opts: ServeOptions,
    queue: Mutex<QueueState>,
    cv: Condvar,
    next_id: AtomicU64,
    next_batch: AtomicU64,
    stats: Arc<Mutex<ServerStats>>,
    /// Worker join handles; respawned replacements register here so
    /// shutdown can join every incarnation.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Workers currently alive (spawned minus exited). When a panic
    /// kills the last worker past the restart budget, the queue is
    /// failed out so no admitted handle can block forever.
    live_workers: AtomicUsize,
    /// Respawns consumed from [`ServeOptions::max_worker_restarts`].
    restarts_used: AtomicUsize,
    /// Fresh ids for respawned workers (per-incarnation, so a
    /// [`FaultPlan`] trigger site fires at most once).
    next_worker_id: AtomicUsize,
}

/// A graph-as-a-service BFS query engine.
///
/// An immutable SlimSell snapshot (`Arc<M>`) is shared across a pool of
/// worker threads. Clients submit single-source BFS queries; the
/// admission queue coalesces concurrent queries into multi-source
/// batches of up to `B` roots that ride the `C·W`-wide
/// [`multi_bfs`](slimsell_core::multi_bfs) kernel — `W` the smallest of
/// 1, 2 and 4 lanes that holds the batch's live queries (capped at
/// `B`), else `B` — and each query's distances are extracted back out
/// of its lane of the batch state.
/// Because each lane computes an exact single-source BFS, served
/// distances are bit-identical to a standalone run no matter how the
/// queue happened to batch them.
///
/// Workers are *supervised*: a panic (real or injected via
/// [`FaultPlan`]) fails only its own batch, and the pool self-heals up
/// to [`ServeOptions::max_worker_restarts`] respawns — see the module
/// docs for the fault-domain contract.
pub struct BfsServer<M, const C: usize, const B: usize>
where
    M: ChunkMatrix<C> + 'static,
{
    shared: Arc<Shared<M>>,
}

impl<M, const C: usize, const B: usize> BfsServer<M, C, B>
where
    M: ChunkMatrix<C> + 'static,
{
    /// Starts the worker pool over a shared immutable snapshot.
    pub fn start(matrix: Arc<M>, opts: ServeOptions) -> Self {
        assert!(opts.workers >= 1, "server needs at least one worker");
        assert!(B >= 1, "batch width B must be at least 1");
        let workers = opts.workers;
        let shared = Arc::new(Shared {
            matrix,
            opts,
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                degraded: false,
            }),
            cv: Condvar::new(),
            next_id: AtomicU64::new(0),
            next_batch: AtomicU64::new(0),
            stats: Arc::new(Mutex::new(ServerStats::default())),
            workers: Mutex::new(Vec::with_capacity(workers)),
            live_workers: AtomicUsize::new(workers),
            restarts_used: AtomicUsize::new(0),
            next_worker_id: AtomicUsize::new(workers),
        });
        for id in 0..workers {
            spawn_worker::<M, C, B>(&shared, id);
        }
        Self { shared }
    }

    /// Source-dimension lanes per batch (`B`).
    pub fn batch_lanes(&self) -> usize {
        B
    }

    /// Submits a single-source BFS query with the server's default
    /// budget and deadline. An out-of-range `root` resolves
    /// [`QueryError::InvalidQuery`].
    pub fn submit(&self, root: VertexId) -> QueryHandle {
        self.submit_spec(
            root,
            QuerySpec {
                budget: self.shared.opts.default_budget,
                deadline: self.shared.opts.default_deadline,
                mask: None,
            },
        )
    }

    /// Submits a query with an explicit iteration budget (`None` =
    /// unbounded) and the server's default deadline: the query fails
    /// with [`QueryError::BudgetExhausted`] if the batch that carries
    /// it needs more than `budget` sweeps. A `Some(0)` budget fails
    /// fast at submission without entering the queue.
    pub fn submit_with(&self, root: VertexId, budget: Option<usize>) -> QueryHandle {
        self.submit_spec(
            root,
            QuerySpec { budget, deadline: self.shared.opts.default_deadline, mask: None },
        )
    }

    /// Submits a query with explicit per-query controls: iteration
    /// budget and wall-clock deadline (see [`QuerySpec`]). Deadlined
    /// queries are dispatched earliest-deadline-first, shed from the
    /// queue if they expire before claiming a batch lane
    /// ([`QueryError::DeadlineExceeded`], counted as
    /// [`ServerStats::shed`]), and fail the same way if the deadline
    /// passes before extraction (counted as [`ServerStats::expired`]).
    /// A query the snapshot cannot run — `root` out of range, a mask
    /// built for another structure, or `root` outside its mask —
    /// resolves [`QueryError::InvalidQuery`] at once (counted as
    /// [`ServerStats::rejected`]) without entering the queue.
    pub fn submit_spec(&self, root: VertexId, spec: QuerySpec) -> QueryHandle {
        // Validated here, on the client's thread: a malformed query is
        // the caller's error, never a batch fault for supervision.
        let invalid = self.invalid_reason(root, spec.mask.as_deref());
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = spec.deadline.map(|d| Instant::now() + d);
        let ticket = Arc::new(Ticket::new(
            id,
            root,
            spec.budget,
            deadline,
            spec.mask,
            Arc::clone(&self.shared.stats),
        ));
        let handle = QueryHandle { ticket: Arc::clone(&ticket) };
        sync::lock(&self.shared.stats).submitted += 1;
        if let Some(reason) = invalid {
            ticket.resolve(Err(QueryError::InvalidQuery { reason }), Outcome::Rejected);
            return handle;
        }
        if spec.budget == Some(0) {
            ticket.resolve(Err(QueryError::BudgetExhausted), Outcome::Expired);
            return handle;
        }
        {
            let mut q = sync::lock(&self.shared.queue);
            if q.shutdown {
                drop(q);
                ticket.resolve(Err(QueryError::ShutDown), Outcome::Rejected);
                return handle;
            }
            if q.degraded {
                drop(q);
                ticket.resolve(Err(QueryError::Degraded), Outcome::Rejected);
                return handle;
            }
            if let Some(cap) = self.shared.opts.queue_capacity {
                if q.queue.len() >= cap {
                    drop(q);
                    ticket.resolve(Err(QueryError::QueueFull), Outcome::Rejected);
                    sync::lock(&self.shared.stats).queue_full_rejects += 1;
                    return handle;
                }
            }
            // Deadline-ordered admission: earliest deadline first,
            // deadline-free queries last, FIFO among equals — so under
            // backlog the work most at risk of expiring ships first.
            let pos = q.queue.iter().position(|t| earlier_deadline(deadline, t.deadline));
            match pos {
                Some(i) => q.queue.insert(i, ticket),
                None => q.queue.push_back(ticket),
            }
        }
        self.shared.cv.notify_all();
        handle
    }

    /// Why the snapshot cannot run a query from `root` under `mask`;
    /// `None` when it can.
    fn invalid_reason(&self, root: VertexId, mask: Option<&VertexMask>) -> Option<String> {
        let s = self.shared.matrix.structure();
        let n = s.n();
        if root as usize >= n {
            return Some(format!("root {root} out of range for snapshot with {n} vertices"));
        }
        let mask = mask?;
        if !mask.fits_layout(s) {
            return Some(format!(
                "mask built for n={} C={} used with a snapshot of n={n} C={C}",
                mask.n(),
                mask.lanes()
            ));
        }
        (!mask.contains(s.perm().to_new(root) as usize))
            .then(|| format!("root {root} is not in the query's vertex mask"))
    }

    /// Snapshot of the server's lifetime counters.
    pub fn stats(&self) -> ServerStats {
        sync::lock(&self.shared.stats).clone()
    }

    /// Whether the server has degraded: its worker-restart budget was
    /// exhausted by panics, so new submissions are being rejected
    /// while already-admitted work drains.
    pub fn degraded(&self) -> bool {
        sync::lock(&self.shared.queue).degraded
    }

    /// Stops admission and drains: already-queued queries are still
    /// served (workers exit only once the queue is empty), then the
    /// pool is joined. Queries submitted after this resolve with
    /// [`QueryError::ShutDown`]. Never panics — workers that died from
    /// a panic are recorded in the report instead of propagating.
    /// Idempotent; returns the final counters and join tally.
    pub fn shutdown(&self) -> ShutdownReport {
        {
            let mut q = sync::lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.cv.notify_all();
        let (mut joined, mut unclean) = (0usize, 0usize);
        // Respawned workers may register while we join their
        // predecessors; keep draining until the registry stays empty.
        loop {
            let handles: Vec<_> = sync::lock(&self.shared.workers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                match h.join() {
                    Ok(()) => joined += 1,
                    Err(_) => {
                        // A panic escaped the supervised region (it
                        // cannot in normal operation): record it, never
                        // propagate it into the caller.
                        unclean += 1;
                        sync::lock(&self.shared.stats).worker_panics += 1;
                    }
                }
            }
        }
        // Safety net: if the pool died past its restart budget with
        // work still queued, resolve the leftovers so no admitted
        // handle blocks forever.
        let (leftovers, degraded) = {
            let mut q = sync::lock(&self.shared.queue);
            (q.queue.drain(..).collect::<Vec<_>>(), q.degraded)
        };
        for t in leftovers {
            t.resolve(
                Err(QueryError::Failed {
                    reason: "server shut down with no live workers".to_string(),
                }),
                Outcome::Failed,
            );
        }
        ShutdownReport {
            stats: self.stats(),
            workers_joined: joined,
            unclean_joins: unclean,
            degraded,
        }
    }
}

impl<M, const C: usize, const B: usize> Drop for BfsServer<M, C, B>
where
    M: ChunkMatrix<C> + 'static,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `a` strictly precedes `b` under earliest-deadline-first order
/// (`None` = no deadline = last; FIFO among equals because the
/// insertion point is the first *strictly later* queue entry).
fn earlier_deadline(a: Option<Instant>, b: Option<Instant>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a < b,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

/// Spawns one supervised worker and registers its handle.
fn spawn_worker<M, const C: usize, const B: usize>(shared: &Arc<Shared<M>>, id: usize)
where
    M: ChunkMatrix<C> + 'static,
{
    let sh = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_loop::<M, C, B>(&sh, id));
    sync::lock(&shared.workers).push(handle);
}

/// The supervised worker loop: batch processing runs inside
/// `catch_unwind` (see the module docs for the unwind-safety
/// argument), so a panic fails one batch, not the pool.
fn worker_loop<M, const C: usize, const B: usize>(shared: &Arc<Shared<M>>, id: usize)
where
    M: ChunkMatrix<C> + 'static,
{
    let mut seq = 0usize;
    loop {
        let Some(batch) = next_batch::<M, B>(shared) else {
            // Clean exit: shutdown requested and the queue is drained.
            shared.live_workers.fetch_sub(1, Ordering::AcqRel);
            return;
        };
        seq += 1;
        let fault = shared.opts.fault_plan.action(id, seq);
        let run = catch_unwind(AssertUnwindSafe(|| run_batch::<M, C, B>(shared, &batch, fault)));
        if let Err(payload) = run {
            supervise_panic::<M, C, B>(shared, id, &batch, payload.as_ref());
            return; // the replacement (if any) was spawned by supervision
        }
    }
}

/// Renders a caught panic payload for [`QueryError::Failed`] reasons.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Supervision: runs on a worker's own thread after `catch_unwind`
/// trapped a panic. Fails the in-flight batch, then either respawns a
/// replacement (restart budget permitting) or degrades the server —
/// and if the pool just died entirely, fails out the queue so every
/// admitted handle still resolves.
fn supervise_panic<M, const C: usize, const B: usize>(
    shared: &Arc<Shared<M>>,
    id: usize,
    batch: &[Arc<Ticket>],
    payload: &(dyn std::any::Any + Send),
) where
    M: ChunkMatrix<C> + 'static,
{
    let reason = payload_string(payload);
    // Tickets already resolved before the panic (served mid-extraction,
    // cancelled) keep their outcome: resolve is first-writer-wins and
    // each winner already counted its bucket.
    for t in batch {
        t.resolve(
            Err(QueryError::Failed { reason: format!("worker {id} panicked mid-batch: {reason}") }),
            Outcome::Failed,
        );
    }
    sync::lock(&shared.stats).worker_panics += 1;

    let budget = shared.opts.max_worker_restarts;
    let respawn = shared
        .restarts_used
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
            (used < budget).then_some(used + 1)
        })
        .is_ok();
    if respawn {
        sync::lock(&shared.stats).restarts += 1;
        let new_id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
        spawn_worker::<M, C, B>(shared, new_id);
        return;
    }

    // Restart budget exhausted: degrade. New submissions are rejected
    // from now on; surviving workers keep draining. If this was the
    // last worker, fail out the queue — nothing is left to drain it.
    let orphans: Vec<Arc<Ticket>> = {
        let mut q = sync::lock(&shared.queue);
        q.degraded = true;
        if shared.live_workers.fetch_sub(1, Ordering::AcqRel) == 1 {
            q.queue.drain(..).collect()
        } else {
            Vec::new()
        }
    };
    for t in orphans {
        t.resolve(
            Err(QueryError::Failed {
                reason: "worker pool died: restart budget exhausted".to_string(),
            }),
            Outcome::Failed,
        );
    }
}

/// Pops the next query that still deserves a batch lane, shedding
/// expired work on the way: queries whose wall-clock deadline passed
/// while queued resolve [`QueryError::DeadlineExceeded`] here (counted
/// as `shed`) instead of wasting a lane; queries cancelled while
/// queued were already resolved by `cancel()` and just drop out.
fn pop_live(q: &mut QueueState) -> Option<Arc<Ticket>> {
    while let Some(t) = q.queue.pop_front() {
        if t.is_resolved() || t.is_cancelled() {
            continue;
        }
        if t.deadline_passed() {
            t.resolve(Err(QueryError::DeadlineExceeded), Outcome::Shed);
            continue;
        }
        return Some(t);
    }
    None
}

/// Two queries may share a batch only when their masks are identical:
/// the *same* `Arc` (pointer equality — cheap, unambiguous, and the
/// API contract clients are told to rely on) or absent on both sides.
fn masks_match(a: Option<&Arc<VertexMask>>, b: Option<&Arc<VertexMask>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// Like [`pop_live`], but claims only queries whose vertex mask
/// matches the forming batch's; live mismatched queries stay queued in
/// EDF order for a later batch. Dead work is still pruned and expired
/// work shed along the scan. The returned flag reports whether any
/// live query was passed over for a mask mismatch — the signal behind
/// [`ServerStats::mask_splits`].
fn pop_live_matching(
    q: &mut QueueState,
    mask: Option<&Arc<VertexMask>>,
) -> (Option<Arc<Ticket>>, bool) {
    let mut passed_live = false;
    let mut i = 0;
    while i < q.queue.len() {
        let t = &q.queue[i];
        if t.is_resolved() || t.is_cancelled() {
            q.queue.remove(i);
            continue;
        }
        if t.deadline_passed() {
            let t = q.queue.remove(i).expect("index checked by the loop condition");
            t.resolve(Err(QueryError::DeadlineExceeded), Outcome::Shed);
            continue;
        }
        if masks_match(t.mask.as_ref(), mask) {
            return (q.queue.remove(i), passed_live);
        }
        passed_live = true;
        i += 1;
    }
    (None, passed_live)
}

/// Blocks for the next admission batch: waits for a first live ticket,
/// then holds the batch open until `B` *mask-compatible* roots arrive,
/// the batch window expires, or shutdown — whichever comes first. The
/// first ticket fixes the batch's mask; live queries with a different
/// mask are passed over (they lead a later batch) and the launch is
/// counted as a mask split. Returns `None` when the server is shut
/// down and the queue fully drained.
fn next_batch<M, const B: usize>(shared: &Shared<M>) -> Option<Vec<Arc<Ticket>>> {
    let mut q = sync::lock(&shared.queue);
    let first = loop {
        if let Some(t) = pop_live(&mut q) {
            break t;
        }
        if q.shutdown {
            return None;
        }
        q = sync::wait(&shared.cv, q);
    };
    let mask = first.mask.clone();
    let mut batch = vec![first];
    let mut split = false;
    let deadline = Instant::now() + shared.opts.batch_window;
    loop {
        while batch.len() < B {
            let (t, passed_live) = pop_live_matching(&mut q, mask.as_ref());
            split |= passed_live;
            match t {
                Some(t) => batch.push(t),
                None => break,
            }
        }
        if batch.len() >= B || q.shutdown {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, _) = sync::wait_timeout(&shared.cv, q, deadline - now);
        q = guard;
    }
    drop(q);
    if split {
        sync::lock(&shared.stats).mask_splits += 1;
    }
    Some(batch)
}

fn run_batch<M, const C: usize, const B: usize>(
    shared: &Shared<M>,
    tickets: &[Arc<Ticket>],
    fault: Option<FaultKind>,
) where
    M: ChunkMatrix<C>,
{
    // Queries cancelled while the batch was forming drop out before
    // the sweep; `cancel()` already resolved and accounted them.
    let live: Vec<&Arc<Ticket>> = tickets.iter().filter(|t| !t.is_cancelled()).collect();
    if live.is_empty() {
        return;
    }

    if let Some(FaultKind::Stall(d)) = fault {
        std::thread::sleep(d);
    }
    let inject_panic = matches!(fault, Some(FaultKind::Panic));

    // Every live ticket in the batch carries the same mask (pointer-
    // identical or absent) by batch-formation contract, so the whole
    // batch rides one masked sweep.
    let opts = MsBfsOptions::default().config(shared.opts.config).mask(live[0].mask.clone());
    // A sweep's cost follows its `n·W·4`-byte state, so the batch is
    // swept only as wide as its live lanes need: under light load a
    // lone query rides one lane instead of `B` padded copies. Padding
    // lanes never change column steps (they repeat a live root), so
    // width moves bytes and time, not the traversal.
    let m = &*shared.matrix;
    let (dist, iterations, completed, run) = match live.len().next_power_of_two().min(B) {
        1 => sweep_at_width::<M, C, 1>(m, &live, &opts, inject_panic),
        2 => sweep_at_width::<M, C, 2>(m, &live, &opts, inject_panic),
        4 => sweep_at_width::<M, C, 4>(m, &live, &opts, inject_panic),
        _ => sweep_at_width::<M, C, B>(m, &live, &opts, inject_panic),
    };

    let info = BatchInfo {
        batch_id: shared.next_batch.fetch_add(1, Ordering::Relaxed),
        batch_size: live.len(),
        iterations,
        col_steps: run.total_col_steps(),
        cells: run.total_cells(),
        active_cells: run.total_active_cells(),
    };

    let mut dists = dist.into_iter();
    for t in &live {
        // One distance vector per lane by construction (live.len() <=
        // W); if this ever breaks, the panic is trapped by supervision
        // and fails this batch alone.
        let dist = dists.next().expect("one distance vector per lane");
        if t.is_cancelled() {
            // Cancelled mid-batch: `cancel()` resolved and accounted
            // it; the query drops out of extraction without touching
            // its batch-mates.
            continue;
        }
        let within = t.budget.is_none_or(|b| iterations <= b);
        if t.deadline_passed() {
            t.resolve(Err(QueryError::DeadlineExceeded), Outcome::Expired);
        } else if completed && within {
            t.resolve(Ok(QueryOutput { dist, batch: info.clone() }), Outcome::Served);
        } else {
            t.resolve(Err(QueryError::BudgetExhausted), Outcome::Expired);
        }
    }

    let mut stats = sync::lock(&shared.stats);
    stats.batches += 1;
    stats.multi_root_batches += (info.batch_size > 1) as u64;
    stats.coalesced += info.batch_size as u64;
    stats.aborted_sweeps += (!completed) as u64;
    stats.total_iterations += info.iterations as u64;
    stats.total_col_steps += info.col_steps;
    stats.total_cells += info.cells;
    stats.total_active_cells += info.active_cells;
}

/// Sweeps one batch `W` lanes wide: lane `i` carries `live[i]`'s root
/// and the `W − live.len()` padding lanes repeat the first root, which
/// `multi_bfs_while` tolerates; padding is never extracted. Returns the
/// per-lane distances, the iterations run, whether the sweep converged,
/// and its work counters.
fn sweep_at_width<M, const C: usize, const W: usize>(
    matrix: &M,
    live: &[&Arc<Ticket>],
    opts: &MsBfsOptions,
    inject_panic: bool,
) -> (Vec<Vec<u32>>, usize, bool, RunStats)
where
    M: ChunkMatrix<C>,
{
    let mut roots = [live[0].root; W];
    for (lane, t) in live.iter().enumerate() {
        roots[lane] = t.root;
    }
    // The iteration-level control hook: keep sweeping only while some
    // lane's query is still live — neither cancelled, past its budget,
    // nor past its wall-clock deadline. When the last live lane drops,
    // the sweep stops gracefully instead of running to convergence.
    // An injected panic fires here, after the batch formed and the
    // sweep state was allocated — genuinely mid-batch, but between
    // sweeps and outside any parallel region.
    let out = multi_bfs_while(matrix, &roots, opts, |iter| {
        if inject_panic {
            panic!("injected fault: panic at sweep {iter}");
        }
        live.iter().any(|t| {
            !t.is_cancelled() && t.budget.is_none_or(|b| iter <= b) && !t.deadline_passed()
        })
    });
    (out.dist, out.iterations, out.completed, out.stats)
}
