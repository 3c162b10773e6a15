//! Serving-layer equivalence: batching is an *implementation detail*.
//!
//! Property: for arbitrary graphs and arbitrary interleavings of
//! 1..=4·B submitted roots, every query answered by the batched
//! multi-source engine ([`BfsServer`]) returns distances bit-identical
//! to a standalone single-source [`BfsEngine`] run — no matter how the
//! admission queue slices the stream into batches (window 0 ≈ singleton
//! batches, a long window ≈ full B-lane batches), how many lanes wide
//! its batch is swept, which lane a query lands on, or what its
//! batch-mates do (cancel, expire).

use proptest::prelude::*;
use slimsell::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const C: usize = 4;
const B: usize = 4;

/// Strategy: a random undirected simple graph with 1..=60 vertices.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..=60).prop_flat_map(|n| {
        let max_edges = (n * n).min(400);
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_edges)
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

/// The three batching regimes: immediate dispatch (window 0, mostly
/// singleton batches), the default window, and a window long enough to
/// always fill all B lanes when the queue has backlog.
fn window(sel: usize) -> Duration {
    Duration::from_micros([0, 200, 5_000][sel % 3])
}

fn standalone(m: &SlimSellMatrix<C>, root: VertexId) -> Vec<u32> {
    BfsEngine::run::<_, TropicalSemiring, C>(m, root, &BfsOptions::default()).dist
}

/// Submits every root to a fresh `BfsServer<_, C, LANES>` at once, then
/// checks each answer against the standalone run and each batch's
/// exact counters: with `LANES` a power of two, a batch of `k` live
/// queries is swept `k.next_power_of_two()` lanes wide, so it touches
/// exactly `col_steps · C · width` lane-slots.
fn serve_bulk<const LANES: usize>(
    m: &Arc<SlimSellMatrix<C>>,
    roots: &[VertexId],
    window: Duration,
) {
    let opts = ServeOptions { batch_window: window, ..Default::default() };
    let server = BfsServer::<_, C, LANES>::start(Arc::clone(m), opts);
    let handles: Vec<_> = roots.iter().map(|&r| server.submit(r)).collect();
    for (h, &root) in handles.into_iter().zip(roots) {
        let out = h.wait().expect("unbudgeted query failed");
        assert_eq!(out.dist, standalone(m, root), "root {root}");
        let b = &out.batch;
        assert!(b.batch_size >= 1 && b.batch_size <= LANES);
        let width = b.batch_size.next_power_of_two() as u64;
        assert_eq!(b.cells, b.col_steps * (C as u64) * width, "batch of {}", b.batch_size);
    }
    let report = server.shutdown();
    let stats = report.stats;
    assert_eq!(report.unclean_joins, 0);
    assert_eq!(stats.submitted, roots.len() as u64);
    assert_eq!(stats.served, roots.len() as u64);
    assert_eq!(stats.submitted, stats.resolved());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Submit-all-then-wait: the queue backlog produces multi-root
    /// batches (window permitting); every answer must equal the
    /// standalone run for its root. A `B = 4` and a `B = 8` server
    /// between them sweep at every width 1/2/4/8.
    #[test]
    fn served_equals_standalone_bulk(
        g in arb_graph(),
        root_sels in proptest::collection::vec(0usize..60, 1..=4 * B),
        window_sel in 0usize..3,
    ) {
        let n = g.num_vertices();
        let m = Arc::new(SlimSellMatrix::<C>::build(&g, n));
        let roots: Vec<VertexId> = root_sels.iter().map(|&r| (r % n) as VertexId).collect();
        serve_bulk::<B>(&m, &roots, window(window_sel));
        serve_bulk::<8>(&m, &roots, window(window_sel));
    }

    /// Lock-step submission (wait for each answer before submitting the
    /// next) — the degenerate all-singleton-batch interleaving.
    #[test]
    fn served_equals_standalone_lockstep(
        g in arb_graph(),
        root_sels in proptest::collection::vec(0usize..60, 1..=B),
        window_sel in 0usize..3,
    ) {
        let n = g.num_vertices();
        let m = Arc::new(SlimSellMatrix::<C>::build(&g, n));
        let opts = ServeOptions { batch_window: window(window_sel), ..Default::default() };
        let server = BfsServer::<_, C, B>::start(Arc::clone(&m), opts);
        for &sel in &root_sels {
            let root = (sel % n) as VertexId;
            let out = server.submit(root).wait().expect("unbudgeted query failed");
            prop_assert_eq!(&out.dist, &standalone(&m, root), "root {}", root);
        }
        let stats = server.shutdown().stats;
        prop_assert_eq!(stats.served, root_sels.len() as u64);
        prop_assert_eq!(stats.submitted, stats.resolved());
    }

    /// Cancellation and budgets never poison batch-mates: queries that
    /// survive must still be bit-identical to standalone BFS; a
    /// cancelled handle either lost the race (exact answer) or reports
    /// `Cancelled`; `BudgetExhausted` only ever hits budgeted queries.
    #[test]
    fn mates_unaffected_by_cancellation_and_budgets(
        g in arb_graph(),
        plan in proptest::collection::vec((0usize..60, 0usize..4, 0usize..2), 1..=4 * B),
        window_sel in 0usize..3,
    ) {
        let n = g.num_vertices();
        let m = Arc::new(SlimSellMatrix::<C>::build(&g, n));
        let opts = ServeOptions { batch_window: window(window_sel), ..Default::default() };
        let server = BfsServer::<_, C, B>::start(Arc::clone(&m), opts);
        // budget_sel: 0 => unbudgeted, 1 => generous (n + 2, can never
        // expire), 2..=3 => tight (may expire, must never be wrong).
        let queries: Vec<(VertexId, Option<usize>, bool)> = plan
            .iter()
            .map(|&(r, b, cancel)| {
                let budget = match b {
                    0 => None,
                    1 => Some(n + 2),
                    tight => Some(tight - 1), // 1 or 2 sweeps
                };
                ((r % n) as VertexId, budget, cancel == 1)
            })
            .collect();
        let handles: Vec<_> = queries
            .iter()
            .map(|&(root, budget, cancel)| {
                let h = server.submit_with(root, budget);
                if cancel {
                    h.cancel();
                }
                h
            })
            .collect();
        for (h, &(root, budget, cancel)) in handles.into_iter().zip(&queries) {
            match h.wait() {
                Ok(out) => prop_assert_eq!(&out.dist, &standalone(&m, root), "root {}", root),
                Err(QueryError::Cancelled) => prop_assert!(cancel, "spurious cancel"),
                Err(QueryError::BudgetExhausted) => {
                    prop_assert!(budget.is_some(), "unbudgeted query expired");
                    prop_assert!(budget.unwrap() < n + 2, "generous budget expired");
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
        let stats = server.shutdown().stats;
        prop_assert_eq!(stats.submitted, queries.len() as u64);
        prop_assert_eq!(stats.submitted, stats.resolved());
    }
}
