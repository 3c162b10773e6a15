//! `serve`: closed-loop load generation against the batched BFS query
//! engine (`crates/serve`), plus the machine-readable
//! `BENCH_serve.json` and `BENCH_serve_overload.json` artifacts.
//!
//! The serving layer coalesces concurrent single-source queries into
//! `B`-wide multi-source batches on the `msbfs` kernel. This experiment
//! measures the trade it makes: each point runs `--queries` queries
//! (default 64) from `clients ∈ {1, 4, 16}` closed-loop client threads
//! (submit, wait, repeat) against a server with one worker over a
//! shared Kronecker snapshot, sweeping the batch width `B ∈ {1, 4, 8}`.
//! `B = 1` is the unbatched baseline — one sweep per query on the same
//! thread budget — so `speedup_vs_b1` at equal client count isolates
//! the amortization win of riding one `C·B`-wide sweep instead of `B`
//! separate `C`-wide sweeps. A batch of `k < B` queries is swept only
//! as wide as it needs (1, 2 or 4 lanes), so at fill 1 or 4 a wider
//! `B` should cost no more than `B = k`. Latency percentiles (nearest-rank, via
//! `slimsell_analysis::serve`) expose the cost side: the batch window
//! delays lightly loaded queries. Batch-fill and lane-occupancy
//! counters are exact; only the timed fields are host-dependent.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slimsell_analysis::serve::{LatencyProfile, OverloadPoint, ServePoint};
use slimsell_core::SlimSellMatrix;
use slimsell_graph::VertexId;
use slimsell_serve::{BfsServer, QueryError, QuerySpec, ServeOptions, ServerStats};

use super::{kron_graph, roots};
use crate::harness::ExpContext;

/// Batch widths under test; 1 is the unbatched baseline.
const BATCH_WIDTHS: [usize; 3] = [1, 4, 8];
/// Closed-loop client thread counts.
const CLIENTS: [usize; 3] = [1, 4, 16];

/// Runs the sweep and writes `BENCH_serve.json`.
pub fn run(ctx: &ExpContext) -> Result<(), String> {
    let queries = ctx.args.get("queries", 64usize);
    let g = kron_graph(ctx);
    let m = Arc::new(SlimSellMatrix::<8>::build(&g, g.num_vertices()));
    let root_pool = roots(&g, 64);

    let mut table = ServePoint::table();
    let mut points = String::new();
    // qps of the B = 1 baseline at each client count, for the speedup
    // column of same-client-count comparisons.
    let mut base_qps = [0.0f64; CLIENTS.len()];
    for &b in &BATCH_WIDTHS {
        for (ci, &clients) in CLIENTS.iter().enumerate() {
            let (point, stats) = match b {
                1 => run_point::<1>(&m, &root_pool, clients, queries),
                4 => run_point::<4>(&m, &root_pool, clients, queries),
                8 => run_point::<8>(&m, &root_pool, clients, queries),
                _ => unreachable!("batch width {b} not wired"),
            };
            if b == 1 {
                base_qps[ci] = point.qps();
            }
            let speedup = if base_qps[ci] > 0.0 { point.qps() / base_qps[ci] } else { 0.0 };
            table.row(point.row());
            if !points.is_empty() {
                points.push_str(",\n");
            }
            points.push_str(&format!(
                "    {{\"scale_log2\": {}, \"batch_b\": {b}, \"clients\": {clients}, \
                 \"queries\": {}, \"elapsed_s\": {:.6}, \"qps\": {:.2}, \
                 \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_ms\": {:.4}, \
                 \"batches\": {}, \"multi_root_batches\": {}, \"mean_batch_fill\": {:.3}, \
                 \"total_iterations\": {}, \"total_col_steps\": {}, \
                 \"lane_utilization\": {:.4}, \"speedup_vs_b1\": {speedup:.3}}}",
                ctx.scale_log2(),
                point.queries,
                point.elapsed_s,
                point.qps(),
                point.latency.p50_s * 1e3,
                point.latency.p99_s * 1e3,
                point.latency.mean_s * 1e3,
                stats.batches,
                stats.multi_root_batches,
                stats.mean_batch_fill(),
                stats.total_iterations,
                stats.total_col_steps,
                stats.lane_utilization(),
            ));
        }
    }
    ctx.emit("serve", "Batched BFS serving: qps/latency vs batch width B and client count", &table);
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"representation\": \"SlimSell\",\n  \
         \"lanes\": 8,\n  \"workers\": 1,\n  \"rho\": {},\n  \"seed\": {},\n  \
         \"unit\": \"qps = served queries per second; latencies are per-query submit-to-result wall times\",\n  \
         \"note\": \"B=1 is the unbatched baseline on the same thread budget; speedup_vs_b1 compares \
         equal client counts. Batch/fill/iteration/col_step counters are exact, times are host-dependent\",\n  \
         \"points\": [\n{points}\n  ]\n}}\n",
        ctx.rho(),
        ctx.seed(),
    );
    ctx.emit_raw("BENCH_serve.json", &json);
    run_overload(ctx, &m, &root_pool, queries)?;
    Ok(())
}

/// The overload/degradation sweep: the same snapshot behind a
/// deliberately under-provisioned server — one worker, a bounded
/// admission queue, per-query wall-clock deadlines — hammered by an
/// increasing number of clients that retry `QueueFull` rejections with
/// jittered exponential backoff (`--retries`, default 2). The
/// degradation table reports goodput, served-query p99, the shed
/// fraction, and the queue-full reject fraction per offered-load
/// point; graceful overload behavior means goodput holds and the tail
/// stays bounded while shed% absorbs the excess. `--deadline-us`
/// (default 2000) sets the per-query deadline; 0 disables deadlines.
fn run_overload(
    ctx: &ExpContext,
    m: &Arc<SlimSellMatrix<8>>,
    root_pool: &[VertexId],
    queries: usize,
) -> Result<(), String> {
    let deadline_us = ctx.args.get("deadline-us", 2000u64);
    let retries = ctx.args.get("retries", 2usize);

    let mut table = OverloadPoint::table();
    let mut points = String::new();
    for &clients in &CLIENTS {
        let point = run_overload_point(m, root_pool, clients, queries, deadline_us, retries);
        table.row(point.row());
        if !points.is_empty() {
            points.push_str(",\n");
        }
        points.push_str(&format!(
            "    {{\"scale_log2\": {}, \"clients\": {clients}, \"deadline_us\": {deadline_us}, \
             \"retries\": {retries}, \"offered\": {}, \"attempts\": {}, \"served\": {}, \
             \"shed\": {}, \"expired\": {}, \"queue_full_rejects\": {}, \
             \"elapsed_s\": {:.6}, \"goodput_qps\": {:.2}, \"p99_ms\": {:.4}, \
             \"shed_frac\": {:.4}, \"reject_frac\": {:.4}}}",
            ctx.scale_log2(),
            point.offered,
            point.attempts,
            point.served,
            point.shed,
            point.expired,
            point.queue_full_rejects,
            point.elapsed_s,
            point.goodput(),
            point.latency.p99_s * 1e3,
            point.shed_frac(),
            point.reject_frac(),
        ));
    }
    ctx.emit(
        "serve_overload",
        "Degradation under overload: goodput/p99/shed vs offered load (bounded queue, deadlines)",
        &table,
    );
    let json = format!(
        "{{\n  \"bench\": \"serve_overload\",\n  \"representation\": \"SlimSell\",\n  \
         \"lanes\": 8,\n  \"batch_b\": 8,\n  \"workers\": 1,\n  \"queue_capacity\": 16,\n  \
         \"rho\": {},\n  \"seed\": {},\n  \
         \"unit\": \"goodput = served queries per second; p99 over served queries only\",\n  \
         \"note\": \"clients retry QueueFull up to --retries times with jittered exponential backoff; \
         shed_frac counts deadline-expired queries (queued or in-batch), reject_frac counts \
         queue-full bounces per submission attempt\",\n  \"points\": [\n{points}\n  ]\n}}\n",
        ctx.rho(),
        ctx.seed(),
    );
    ctx.emit_raw("BENCH_serve_overload.json", &json);
    Ok(())
}

/// `splitmix64` step for the client-side backoff jitter — deterministic
/// per client, no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one offered-load point against an under-provisioned server
/// (one worker, B = 8, bounded queue of 16), with client-side
/// retry-on-`QueueFull` and jittered exponential backoff.
fn run_overload_point(
    m: &Arc<SlimSellMatrix<8>>,
    root_pool: &[VertexId],
    clients: usize,
    queries: usize,
    deadline_us: u64,
    retries: usize,
) -> OverloadPoint {
    let deadline = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
    let server = BfsServer::<_, 8, 8>::start(
        Arc::clone(m),
        ServeOptions { workers: 1, queue_capacity: Some(16), ..ServeOptions::default() },
    );
    let latencies = Mutex::new(Vec::with_capacity(queries));
    let attempts_total = Mutex::new(0usize);
    let per_client = queries.div_ceil(clients);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let server = &server;
            let latencies = &latencies;
            let attempts_total = &attempts_total;
            s.spawn(move || {
                let mut rng = 0x5eed ^ (c as u64).wrapping_mul(0x9e37_79b9);
                let mut local = Vec::new();
                let mut attempts = 0usize;
                for k in 0..per_client {
                    let root = root_pool[(c + k * clients) % root_pool.len()];
                    let q0 = Instant::now();
                    for attempt in 0..=retries {
                        attempts += 1;
                        let spec = QuerySpec { budget: None, deadline, mask: None };
                        match server.submit_spec(root, spec).wait() {
                            Ok(out) => {
                                local.push(q0.elapsed().as_secs_f64());
                                std::hint::black_box(out.dist.len());
                                break;
                            }
                            Err(QueryError::QueueFull) if attempt < retries => {
                                // Jittered exponential backoff before
                                // the retry: base 100 µs doubling per
                                // attempt, plus up to 100 µs jitter.
                                let base = 100u64 << attempt;
                                let jitter = splitmix64(&mut rng) % 100;
                                std::thread::sleep(Duration::from_micros(base + jitter));
                            }
                            Err(_) => break,
                        }
                    }
                }
                latencies.lock().expect("latency lock").extend(local);
                *attempts_total.lock().expect("attempts lock") += attempts;
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = server.shutdown().stats;
    let samples = latencies.into_inner().expect("latency lock");
    let attempts = attempts_total.into_inner().expect("attempts lock");
    OverloadPoint {
        clients,
        deadline_us,
        offered: per_client * clients,
        attempts,
        served: samples.len(),
        shed: stats.shed,
        expired: stats.expired,
        queue_full_rejects: stats.queue_full_rejects,
        elapsed_s: elapsed,
        latency: LatencyProfile::from_seconds(samples),
    }
}

/// Runs one `(B, clients)` point: closed-loop clients over a
/// single-worker server, returning the distilled point and the
/// server's final counters.
fn run_point<const B: usize>(
    m: &Arc<SlimSellMatrix<8>>,
    root_pool: &[VertexId],
    clients: usize,
    queries: usize,
) -> (ServePoint, ServerStats) {
    let server = BfsServer::<_, 8, B>::start(
        Arc::clone(m),
        ServeOptions { workers: 1, ..ServeOptions::default() },
    );
    let latencies = Mutex::new(Vec::with_capacity(queries));
    let per_client = queries.div_ceil(clients);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let server = &server;
            let latencies = &latencies;
            s.spawn(move || {
                let mut local = Vec::with_capacity(per_client);
                for k in 0..per_client {
                    let root = root_pool[(c + k * clients) % root_pool.len()];
                    let q0 = Instant::now();
                    let out = server.submit(root).wait().expect("serve load query failed");
                    local.push(q0.elapsed().as_secs_f64());
                    std::hint::black_box(out.dist.len());
                }
                latencies.lock().expect("latency lock").extend(local);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = server.shutdown().stats;
    let samples = latencies.into_inner().expect("latency lock");
    let point = ServePoint {
        batch_b: B,
        clients,
        queries: samples.len(),
        elapsed_s: elapsed,
        latency: LatencyProfile::from_seconds(samples),
        batches: stats.batches,
        multi_root_batches: stats.multi_root_batches,
        mean_batch_fill: stats.mean_batch_fill(),
        lane_utilization: stats.lane_utilization(),
        total_iterations: stats.total_iterations,
        total_col_steps: stats.total_col_steps,
    };
    (point, stats)
}
