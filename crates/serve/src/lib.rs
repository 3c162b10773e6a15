//! Graph-as-a-service: a concurrent batched BFS query engine over a
//! shared SlimSell snapshot.
//!
//! The paper's multi-source BFS extension (§VI) vectorizes `B`
//! independent BFS traversals over the source dimension of one
//! `C·B`-wide SpMV sweep. This crate turns that kernel into a serving
//! layer:
//!
//! * an immutable snapshot (`Arc<M: ChunkMatrix<C>>`) shared across a
//!   pool of worker threads;
//! * an admission queue that **coalesces** concurrent single-source
//!   queries into multi-source batches — a batch launches when `B`
//!   roots have arrived or a batch window expires, whichever first;
//! * **width-sized sweeps**: a batch of `k` live queries is swept
//!   `W` lanes wide, the smallest of 1, 2 and 4 that holds `k` (capped
//!   at `B`), else `B`. A sweep's cost follows its `n·W·4`-byte state,
//!   so a lone query under light load pays for one lane, not `B`
//!   padded copies, while bursts still fill all `B`;
//! * per-query extraction back out of the `W`-lane batch state; each
//!   lane is an exact single-source BFS, so served distances are
//!   **bit-identical** to a standalone [`BfsEngine`](slimsell_core::BfsEngine)
//!   run regardless of how queries were batched;
//! * **typed submission errors**: an out-of-range root, a mask built
//!   for another structure, or a root outside its mask resolves
//!   [`QueryError::InvalidQuery`] on the client's thread — it never
//!   panics the caller or costs a worker;
//! * per-query **cancellation** and **iteration budgets**: a cancelled
//!   or expired query drops out of result extraction without
//!   perturbing its batch-mates, and once every lane of a batch is
//!   dead the iteration-level control hook stops the sweep gracefully
//!   instead of running to convergence;
//! * **fault tolerance**: workers are panic-isolated and supervised —
//!   a panic fails only its own batch, supervision respawns the
//!   worker up to [`ServeOptions::max_worker_restarts`], and past the
//!   budget the server degrades to rejecting new work while draining
//!   what it admitted. [`FaultPlan`] injects panics and stalls
//!   deterministically so the whole path is testable;
//! * **masked (subgraph) queries**: a [`QuerySpec::mask`] restricts a
//!   query's BFS to a vertex subset
//!   ([`VertexMask`](slimsell_core::VertexMask)); queries sharing the
//!   *same* `Arc<VertexMask>` still coalesce into one masked batch,
//!   while mismatched masks split batches — observable as
//!   [`ServerStats::mask_splits`];
//! * **overload control**: per-query wall-clock deadlines
//!   ([`QuerySpec`]) with earliest-deadline-first dispatch, shedding
//!   of already-expired queued work, and a bounded admission queue
//!   ([`ServeOptions::queue_capacity`]) that fast-fails
//!   [`QueryError::QueueFull`] instead of building unbounded backlog.
//!
//! Once every submitted handle has resolved, the outcome counters
//! partition the submissions exactly: `submitted = served + expired +
//! cancelled + rejected + failed + shed`
//! (see [`ServerStats::resolved`]).
//!
//! ```
//! use std::sync::Arc;
//! use slimsell_core::SlimSellMatrix;
//! use slimsell_graph::GraphBuilder;
//! use slimsell_serve::{BfsServer, ServeOptions};
//!
//! let g = GraphBuilder::new(6)
//!     .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
//!     .build();
//! let m = Arc::new(SlimSellMatrix::<4>::build(&g, 6));
//! let server = BfsServer::<_, 4, 2>::start(m, ServeOptions::default());
//! let a = server.submit(0);
//! let b = server.submit(5);
//! assert_eq!(a.wait().unwrap().dist, vec![0, 1, 2, 3, 4, 5]);
//! assert_eq!(b.wait().unwrap().dist, vec![5, 4, 3, 2, 1, 0]);
//! let report = server.shutdown();
//! assert_eq!(report.stats.served, 2);
//! assert_eq!(report.unclean_joins, 0);
//! ```

#![deny(missing_docs)]

mod fault;
mod query;
mod server;
mod stats;
mod sync;

pub use fault::{FaultKind, FaultPlan};
pub use query::{BatchInfo, QueryError, QueryHandle, QueryOutput, QuerySpec};
pub use server::{BfsServer, ServeOptions};
pub use stats::{ServerStats, ShutdownReport};

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_core::{multi_bfs, ChunkMatrix, SlimSellMatrix, VertexMask};
    use slimsell_graph::{serial_bfs, CsrGraph, GraphBuilder, UNREACHABLE};
    use std::sync::Arc;
    use std::time::Duration;

    fn path(n: usize) -> CsrGraph {
        GraphBuilder::new(n).edges((0..n as u32 - 1).map(|v| (v, v + 1))).build()
    }

    fn wide_opts() -> ServeOptions {
        // A generous window so tests control batch composition: every
        // query submitted while the window is open lands in one batch.
        ServeOptions { batch_window: Duration::from_millis(1000), ..ServeOptions::default() }
    }

    fn assert_partition(stats: &ServerStats) {
        assert_eq!(
            stats.submitted,
            stats.resolved(),
            "outcomes must partition submissions: {stats:?}"
        );
    }

    #[test]
    fn serves_exact_distances() {
        let g = path(10);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 2>::start(m, ServeOptions::default());
        let handles: Vec<_> = (0..10).map(|r| server.submit(r)).collect();
        for (r, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("served");
            assert_eq!(out.dist, serial_bfs(&g, r as u32).dist, "root {r}");
            assert!(out.batch.batch_size >= 1);
        }
        let report = server.shutdown();
        assert_eq!(report.stats.submitted, 10);
        assert_eq!(report.stats.served, 10);
        assert_eq!(report.stats.coalesced, 10);
        assert_eq!(report.unclean_joins, 0);
        assert!(!report.degraded);
        assert_partition(&report.stats);
    }

    #[test]
    fn coalesces_into_multi_root_batches() {
        let g = path(12);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 4>::start(m, wide_opts());
        let handles: Vec<_> = (0..4).map(|r| server.submit(r)).collect();
        for h in handles {
            h.wait().expect("served");
        }
        let stats = server.shutdown().stats;
        assert_eq!(stats.served, 4);
        assert_eq!(stats.batches, 1, "window should coalesce all four roots");
        assert_eq!(stats.multi_root_batches, 1);
        assert!((stats.mean_batch_fill() - 4.0).abs() < 1e-9);
        assert!(stats.total_iterations > 0);
        assert!(stats.total_cells >= stats.total_active_cells);
        assert_partition(&stats);
    }

    #[test]
    fn zero_budget_fails_fast_without_entering_queue() {
        let g = path(8);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 2>::start(m, wide_opts());
        let h = server.submit_with(0, Some(0));
        assert!(h.is_done(), "zero budget must fail at submission");
        assert_eq!(h.wait(), Err(QueryError::BudgetExhausted));
        let stats = server.shutdown().stats;
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.batches, 0, "the query never reached a batch");
        assert_partition(&stats);
    }

    #[test]
    fn expired_query_does_not_poison_batch_mates() {
        // A 64-path from root 0 needs 64 sweeps; budget 1 expires while
        // the unbounded batch-mate still converges exactly.
        let g = path(64);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 2>::start(m, wide_opts());
        let ok = server.submit_with(0, None);
        let poor = server.submit_with(0, Some(1));
        assert_eq!(poor.wait(), Err(QueryError::BudgetExhausted));
        let out = ok.wait().expect("unbounded batch-mate served");
        assert_eq!(out.dist, serial_bfs(&g, 0).dist);
        let stats = server.shutdown().stats;
        assert_eq!((stats.served, stats.expired), (1, 1));
        assert_eq!(stats.aborted_sweeps, 0, "a live lane ran to convergence");
        assert_partition(&stats);
    }

    #[test]
    fn all_lanes_over_budget_aborts_the_sweep() {
        let g = path(64);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 2>::start(m, wide_opts());
        let a = server.submit_with(0, Some(3));
        let b = server.submit_with(1, Some(2));
        assert_eq!(a.wait(), Err(QueryError::BudgetExhausted));
        assert_eq!(b.wait(), Err(QueryError::BudgetExhausted));
        let stats = server.shutdown().stats;
        assert_eq!(stats.expired, 2);
        assert_eq!(stats.aborted_sweeps, 1);
        // The sweep stopped right after the longest budget ran out
        // rather than running the path to convergence.
        assert_eq!(stats.total_iterations, 3);
        assert_partition(&stats);
    }

    #[test]
    fn cancelled_query_resolves_immediately() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 2>::start(m, wide_opts());
        let doomed = server.submit(3);
        doomed.cancel();
        assert!(doomed.is_done());
        assert_eq!(doomed.wait(), Err(QueryError::Cancelled));
        // Batch-mates (and later queries) are unaffected.
        let ok = server.submit(5);
        assert_eq!(ok.wait().expect("served").dist, serial_bfs(&g, 5).dist);
        let stats = server.shutdown().stats;
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.served, 1);
        assert_partition(&stats);
    }

    #[test]
    fn shutdown_drains_queue_then_rejects() {
        let g = path(32);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 4>::start(m, ServeOptions::default());
        let handles: Vec<_> = (0..12).map(|r| server.submit(r)).collect();
        let report = server.shutdown();
        for (r, h) in handles.into_iter().enumerate() {
            let out = h.wait().expect("in-flight query drained");
            assert_eq!(out.dist, serial_bfs(&g, r as u32).dist);
        }
        assert_eq!(report.stats.served, 12);
        assert_eq!(report.workers_joined, 1);
        assert_eq!(report.unclean_joins, 0);
        let late = server.submit(0);
        assert_eq!(late.wait(), Err(QueryError::ShutDown));
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_partition(&stats);
    }

    #[test]
    fn bounded_queue_fast_fails_when_full() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        // One worker, B=1, and a long stall on the first batch: the
        // worker is pinned while we overfill the capacity-2 queue.
        let opts = ServeOptions {
            batch_window: Duration::ZERO,
            queue_capacity: Some(2),
            fault_plan: FaultPlan::new().stall_worker(0, 1, Duration::from_millis(150)),
            ..ServeOptions::default()
        };
        let server = BfsServer::<_, 4, 1>::start(m, opts);
        let first = server.submit(0); // claimed by the (stalled) worker
        std::thread::sleep(Duration::from_millis(30));
        let queued: Vec<_> = (1..3).map(|r| server.submit(r)).collect();
        let overflow = server.submit(3);
        assert_eq!(overflow.wait(), Err(QueryError::QueueFull));
        assert_eq!(first.wait().expect("stalled but served").dist, serial_bfs(&g, 0).dist);
        for (i, h) in queued.into_iter().enumerate() {
            assert_eq!(
                h.wait().expect("queued query served").dist,
                serial_bfs(&g, i as u32 + 1).dist
            );
        }
        let stats = server.shutdown().stats;
        assert_eq!(stats.queue_full_rejects, 1);
        assert_eq!(stats.rejected, 1);
        assert_partition(&stats);
    }

    #[test]
    fn expired_queued_work_is_shed() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        // Pin the single worker with a 150 ms stall, then queue a query
        // whose 20 ms deadline expires long before a lane frees up.
        let opts = ServeOptions {
            batch_window: Duration::ZERO,
            fault_plan: FaultPlan::new().stall_worker(0, 1, Duration::from_millis(150)),
            ..ServeOptions::default()
        };
        let server = BfsServer::<_, 4, 1>::start(m, opts);
        let pinned = server.submit(0);
        std::thread::sleep(Duration::from_millis(30));
        let doomed =
            server.submit_spec(1, QuerySpec::default().deadline(Duration::from_millis(20)));
        assert_eq!(doomed.wait(), Err(QueryError::DeadlineExceeded));
        pinned.wait().expect("stalled batch still serves");
        let stats = server.shutdown().stats;
        assert_eq!(stats.shed, 1, "expired queued work must be shed, not served");
        assert_eq!(stats.served, 1);
        assert_partition(&stats);
    }

    #[test]
    fn deadlines_dispatch_earliest_first() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        // Pin the worker, then queue: no-deadline, 10 s, 1 s. EDF order
        // must dispatch them 1 s, 10 s, then no-deadline — observable
        // through strictly increasing batch ids (B=1: one batch each).
        let opts = ServeOptions {
            batch_window: Duration::ZERO,
            fault_plan: FaultPlan::new().stall_worker(0, 1, Duration::from_millis(120)),
            ..ServeOptions::default()
        };
        let server = BfsServer::<_, 4, 1>::start(m, opts);
        let pinned = server.submit(0);
        std::thread::sleep(Duration::from_millis(30));
        let relaxed = server.submit(1);
        let lax = server.submit_spec(2, QuerySpec::default().deadline(Duration::from_secs(10)));
        let urgent = server.submit_spec(3, QuerySpec::default().deadline(Duration::from_secs(1)));
        let b_urgent = urgent.wait().expect("urgent served").batch.batch_id;
        let b_lax = lax.wait().expect("lax served").batch.batch_id;
        let b_relaxed = relaxed.wait().expect("relaxed served").batch.batch_id;
        pinned.wait().expect("pinned served");
        assert!(
            b_urgent < b_lax && b_lax < b_relaxed,
            "EDF order violated: urgent={b_urgent} lax={b_lax} relaxed={b_relaxed}"
        );
        let stats = server.shutdown().stats;
        assert_eq!(stats.served, 4);
        assert_partition(&stats);
    }

    #[test]
    fn identical_masks_coalesce_and_serve_subgraph_distances() {
        let g = path(12);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let mask = Arc::new(VertexMask::from_original(m.structure(), 0..6u32));
        let server = BfsServer::<_, 4, 2>::start(Arc::clone(&m), wide_opts());
        let a = server.submit_spec(0, QuerySpec::default().mask(Arc::clone(&mask)));
        let b = server.submit_spec(5, QuerySpec::default().mask(Arc::clone(&mask)));
        let expect = |root: u32| -> Vec<u32> {
            (0..12u32).map(|v| if v < 6 { v.abs_diff(root) } else { UNREACHABLE }).collect()
        };
        assert_eq!(a.wait().expect("served").dist, expect(0));
        assert_eq!(b.wait().expect("served").dist, expect(5));
        let stats = server.shutdown().stats;
        assert_eq!(stats.served, 2);
        assert_eq!(stats.batches, 1, "one shared Arc<VertexMask> must coalesce");
        assert_eq!(stats.multi_root_batches, 1);
        assert_eq!(stats.mask_splits, 0);
        assert_partition(&stats);
    }

    #[test]
    fn mismatched_masks_split_batches() {
        let g = path(12);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let lower = Arc::new(VertexMask::from_original(m.structure(), 0..6u32));
        let upper = Arc::new(VertexMask::from_original(m.structure(), 6..12u32));
        let server = BfsServer::<_, 4, 2>::start(Arc::clone(&m), wide_opts());
        let a = server.submit_spec(0, QuerySpec::default().mask(lower));
        let b = server.submit_spec(6, QuerySpec::default().mask(upper));
        let da = a.wait().expect("served").dist;
        let db = b.wait().expect("served").dist;
        assert_eq!(&da[..6], &[0, 1, 2, 3, 4, 5]);
        assert!(da[6..].iter().all(|&d| d == UNREACHABLE));
        assert_eq!(&db[6..], &[0, 1, 2, 3, 4, 5]);
        assert!(db[..6].iter().all(|&d| d == UNREACHABLE));
        let stats = server.shutdown().stats;
        assert_eq!(stats.batches, 2, "distinct masks must never share a batch");
        assert_eq!(stats.mask_splits, 1, "the split must be counted");
        assert_partition(&stats);
    }

    #[test]
    fn masked_root_outside_mask_is_rejected_at_submission() {
        let g = path(8);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let mask = Arc::new(VertexMask::from_original(m.structure(), 0..4u32));
        let foreign = Arc::new(VertexMask::full(9, 4));
        let server = BfsServer::<_, 4, 2>::start(m, wide_opts());
        let outside = server.submit_spec(7, QuerySpec::default().mask(mask));
        let mismatched = server.submit_spec(0, QuerySpec::default().mask(foreign));
        for h in [outside, mismatched] {
            assert!(h.is_done(), "an invalid query must resolve at submission");
            assert!(matches!(h.wait(), Err(QueryError::InvalidQuery { .. })));
        }
        let report = server.shutdown();
        assert_eq!(report.stats.rejected, 2);
        assert_eq!(report.stats.batches, 0, "invalid queries never reach a batch");
        assert_eq!(report.stats.restarts, 0);
        assert_partition(&report.stats);
    }

    #[test]
    fn out_of_range_root_is_rejected_at_submission() {
        let g = path(8);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 2>::start(m, ServeOptions::default());
        match server.submit(8).wait() {
            Err(QueryError::InvalidQuery { reason }) => {
                assert!(reason.contains("out of range"), "reason: {reason}")
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        // The server is untouched: the next valid query is served.
        assert_eq!(server.submit(7).wait().expect("served").dist, serial_bfs(&g, 7).dist);
        let report = server.shutdown();
        assert_eq!((report.stats.rejected, report.stats.served), (1, 1));
        assert_eq!(report.stats.restarts, 0);
        assert_partition(&report.stats);
    }

    #[test]
    fn batches_sweep_only_their_live_lanes() {
        // `cells = col_steps · C · W` pins the swept width `W`: a lone
        // query rides one lane, three coalesced queries four, eight all
        // of `B`.
        let g = path(32);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let server = BfsServer::<_, 4, 8>::start(Arc::clone(&m), ServeOptions::default());
        let lone = server.submit(0).wait().expect("served");
        server.shutdown();
        assert_eq!(lone.dist, serial_bfs(&g, 0).dist);
        assert_eq!(lone.batch.batch_size, 1);
        assert_eq!(lone.batch.cells, lone.batch.col_steps * 4);
        // Width changes bytes, not column steps: one lane walks exactly
        // the chunks the padded eight-lane sweep walks.
        let padded = multi_bfs::<_, 4, 8>(&*m, &[0; 8]);
        assert_eq!(lone.batch.col_steps, padded.stats.total_col_steps());

        let server = BfsServer::<_, 4, 8>::start(Arc::clone(&m), wide_opts());
        for (k, w) in [(3u32, 4u64), (8, 8)] {
            let handles: Vec<_> = (0..k).map(|r| server.submit(r)).collect();
            for (r, h) in handles.into_iter().enumerate() {
                let out = h.wait().expect("served");
                assert_eq!(out.dist, serial_bfs(&g, r as u32).dist, "root {r}");
                assert_eq!(out.batch.batch_size, k as usize);
                assert_eq!(out.batch.cells, out.batch.col_steps * 4 * w, "{k} live lanes");
            }
        }
        let stats = server.shutdown().stats;
        assert_eq!(stats.batches, 2);
        assert_partition(&stats);
    }

    #[test]
    fn panicking_worker_fails_batch_and_respawns() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        let opts = ServeOptions {
            batch_window: Duration::from_millis(300),
            fault_plan: FaultPlan::new().panic_worker(0, 1),
            ..ServeOptions::default()
        };
        let server = BfsServer::<_, 4, 2>::start(m, opts);
        // Both queries coalesce into worker 0's first batch → both fail.
        let a = server.submit(0);
        let b = server.submit(1);
        match a.wait() {
            Err(QueryError::Failed { reason }) => {
                assert!(reason.contains("injected fault"), "reason: {reason}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(b.wait(), Err(QueryError::Failed { .. })));
        // The respawned worker serves fresh work: the server healed.
        let healed = server.submit(2);
        assert_eq!(healed.wait().expect("respawned worker serves").dist, serial_bfs(&g, 2).dist);
        assert!(!server.degraded());
        let report = server.shutdown();
        assert_eq!(report.stats.worker_panics, 1);
        assert_eq!(report.stats.restarts, 1);
        assert_eq!(report.stats.failed, 2);
        assert_eq!(report.stats.served, 1);
        assert_eq!(report.unclean_joins, 0, "supervision must trap the panic before join");
        assert!(!report.degraded);
        assert_partition(&report.stats);
    }

    #[test]
    fn exhausted_restart_budget_degrades_but_still_resolves_everything() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        // Zero restarts: the first panic kills the only worker for good.
        let opts = ServeOptions {
            batch_window: Duration::ZERO,
            max_worker_restarts: 0,
            fault_plan: FaultPlan::new().panic_worker(0, 1),
            ..ServeOptions::default()
        };
        let server = BfsServer::<_, 4, 1>::start(m, opts);
        let doomed = server.submit(0);
        assert!(matches!(doomed.wait(), Err(QueryError::Failed { .. })));
        // Wait for supervision to flip the degraded flag (it runs on
        // the dying worker's thread after failing the batch).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !server.degraded() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.degraded(), "restart budget 0 must degrade on first panic");
        let rejected = server.submit(1);
        assert_eq!(rejected.wait(), Err(QueryError::Degraded));
        let report = server.shutdown();
        assert_eq!(report.stats.worker_panics, 1);
        assert_eq!(report.stats.restarts, 0);
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.rejected, 1);
        assert!(report.degraded);
        assert_eq!(report.unclean_joins, 0);
        assert_partition(&report.stats);
    }

    #[test]
    fn queued_work_fails_out_when_the_pool_dies() {
        let g = path(16);
        let m = Arc::new(SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        // Single worker, no restarts, stalled then panicking on its
        // first batch; work queued behind the stall must fail out when
        // the pool dies rather than wait forever.
        let opts = ServeOptions {
            batch_window: Duration::ZERO,
            max_worker_restarts: 0,
            fault_plan: FaultPlan::new()
                .stall_worker(0, 1, Duration::from_millis(80))
                .panic_worker(0, 2),
            ..ServeOptions::default()
        };
        let server = BfsServer::<_, 4, 1>::start(m, opts);
        let stalled = server.submit(0); // batch 1: stalls, then serves
        std::thread::sleep(Duration::from_millis(20));
        let doomed = server.submit(1); // batch 2: panics
        let orphan = server.submit(2); // queued behind the panic
        assert_eq!(stalled.wait().expect("stalled batch serves").dist, serial_bfs(&g, 0).dist);
        assert!(matches!(doomed.wait(), Err(QueryError::Failed { .. })));
        assert!(matches!(orphan.wait(), Err(QueryError::Failed { .. })), "orphan must not hang");
        let report = server.shutdown();
        assert_eq!(report.stats.served, 1);
        assert!(report.stats.failed >= 2);
        assert!(report.degraded);
        assert_partition(&report.stats);
    }
}
