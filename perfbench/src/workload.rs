//! The workloads and the pipeline each of them runs.
//!
//! Every workload runs the whole pipeline on its graph — set-up, the
//! per-root BFS family with the paper's baselines, PageRank, SSSP,
//! direct msbfs batches and the server under open-loop and burst load —
//! so that every end-to-end metric exists on every workload. What
//! differs is the graph and how the measured seconds are shared out
//! ([`Plan`]):
//!
//! * `kron-g500` — Graph500 Kronecker graph, scale 16, edge factor 16.
//!   Low diameter and power-law degrees: few iterations that touch
//!   almost every chunk, so chunk MV, SIMD gathers and the
//!   dependency-graph fan-out dominate. Most time goes to per-root BFS.
//! * `road-nav` — `road_network(2^16, 2.8)`: high diameter, thin
//!   wavefront, hundreds of iterations; per-iteration fixed cost,
//!   worklist activation and push steps dominate, and label-correcting
//!   SSSP re-lists its own chunks. More time goes to SSSP.
//! * `kron-serve` — the `kron-g500` graph, most time spent behind the
//!   server (admission queue, batch window, msbfs), which bypasses the
//!   single-source BFS engine and the descriptor layer.
//!
//! Roots come from the largest connected component, and the inputs are
//! a function of the seed alone.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimsell_baseline::{dirop_bfs, trad_bfs, DirOptBfsOptions};
use slimsell_core::dirop::StepMode;
use slimsell_core::{
    chunk_mv, graph500_validate, multi_bfs, pagerank, run_descriptor, sssp_with, BfsEngine,
    BfsOptions, ChunkDepGraph, ChunkMatrix, Descriptor, PageRankOptions, RunStats, SelMaxSemiring,
    SellStructure, SlimSellMatrix, SsspOptions, TropicalSemiring, WeightedSellCSigma,
};
use slimsell_gen::geometric::road_network;
use slimsell_gen::{kronecker, KroneckerParams};
use slimsell_graph::stats::sample_roots;
use slimsell_graph::weighted::{dijkstra, synthetic_weighted_twin};
use slimsell_graph::{largest_component, CsrGraph, GraphStats, VertexId, WeightedCsrGraph};
use slimsell_serve::{BfsServer, QueryHandle, ServeOptions, ServerStats};

use crate::openloop;
use crate::oracle::{check_dist, check_pagerank, check_sssp, guarded, Ledger};
use crate::stats::{mean, median, percentile, tail, MIN_BEYOND};
use crate::trace::Tracer;

/// Chunk height: the paper's CPU configuration (8 × 32-bit lanes).
const C: usize = 8;
/// Source lanes per msbfs batch, as in the server's default deployment.
const B: usize = 8;
type Matrix = SlimSellMatrix<C>;
type Server = BfsServer<Matrix, C, B>;

/// Roots sampled per graph; rounds cycle through them, and the oracle is
/// computed for all of them before timing.
const ROOT_POOL: usize = 64;
/// Roots whose Dijkstra labels are precomputed for the SSSP phase.
const SSSP_POOL: usize = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A p90 needs `10 · MIN_BEYOND` samples.
const MIN_TAIL_SAMPLES: usize = 10 * MIN_BEYOND;
/// The sel-max tree, whose only timed metric is a median, runs on every
/// other pool root; the time saved goes to samples of the tail metrics.
const TREE_EVERY: usize = 2;
const MIN_PAGERANK: usize = 3;
const MIN_SSSP: usize = 5;
const MIN_MSBFS: usize = 5;
const BURST: usize = 32;
const MIN_BURSTS: usize = 3;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Graph500 Kronecker graph, per-root BFS family emphasised.
    KronG500,
    /// Road network: high diameter, SSSP emphasised.
    RoadNav,
    /// The Kronecker graph behind the server.
    KronServe,
}

/// How a workload shares its measured seconds among the phases. Each
/// phase also runs a minimum count, so every percentile it reports has
/// enough samples even on a slow host.
struct Plan {
    rounds: f64,
    pagerank: f64,
    sssp: f64,
    msbfs: f64,
    open: f64,
    burst: f64,
    /// Open-loop arrival rate, queries/s: about 40% of the rate one
    /// batch at a time sustains on the workload's graph (a Kronecker
    /// batch takes 12–18 ms, a single-root road batch 30–45 ms, as host
    /// load varies). Nearer saturation, the latency of evenly spaced
    /// arrivals flips between queueing regimes from run to run.
    open_qps: f64,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "kron-g500" => Some(Self::KronG500),
            "road-nav" => Some(Self::RoadNav),
            "kron-serve" => Some(Self::KronServe),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::KronG500 => "kron-g500",
            Self::RoadNav => "road-nav",
            Self::KronServe => "kron-serve",
        }
    }

    fn plan(self) -> Plan {
        match self {
            Self::KronG500 => Plan {
                rounds: 0.50,
                pagerank: 0.10,
                sssp: 0.08,
                msbfs: 0.04,
                open: 0.20,
                burst: 0.08,
                open_qps: 30.0,
            },
            Self::RoadNav => Plan {
                rounds: 0.42,
                pagerank: 0.03,
                sssp: 0.08,
                msbfs: 0.03,
                open: 0.38,
                burst: 0.06,
                open_qps: 12.0,
            },
            Self::KronServe => Plan {
                rounds: 0.30,
                pagerank: 0.04,
                sssp: 0.03,
                msbfs: 0.03,
                open: 0.45,
                burst: 0.15,
                open_qps: 30.0,
            },
        }
    }

    fn graph(self, seed: u64) -> CsrGraph {
        match self {
            Self::KronG500 | Self::KronServe => {
                kronecker(16, 16.0, KroneckerParams::GRAPH500, seed)
            }
            Self::RoadNav => road_network(1 << 16, 2.8, seed),
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or provenance, for the printed table.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric { name, value, unit, note: note.into() }
}

/// Everything a run produced.
pub struct Report {
    /// End-to-end metrics (meaningful from an untraced run only).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (reported from a traced run).
    pub layers: Vec<Metric>,
    /// Input fingerprint lines.
    pub input: Vec<String>,
    /// Per-layer self-time table (traced runs).
    pub layer_table: Vec<String>,
    /// Operation accounting.
    pub ledger: Ledger,
}

/// Inputs generated from the seed, plus the oracle answers computed
/// before anything is timed.
struct Inputs {
    g: CsrGraph,
    wg: WeightedCsrGraph,
    pool: Vec<VertexId>,
    oracle: Vec<Vec<u32>>,
    sssp_oracle: Vec<Vec<f32>>,
    pagerank: PageRankOptions,
}

impl Inputs {
    fn generate(w: Workload, seed: u64) -> Self {
        let g = w.graph(seed);
        let wg = synthetic_weighted_twin(&g);
        // Roots from the largest connected component, where Graph500
        // samples its search keys: a root stranded in a small component
        // would time a trivial traversal.
        let (_, component) = largest_component(&g);
        let mut in_component = vec![false; g.num_vertices()];
        for &v in &component {
            in_component[v as usize] = true;
        }
        let pool: Vec<VertexId> = sample_roots(&g, 4 * ROOT_POOL)
            .into_iter()
            .filter(|&r| in_component[r as usize])
            .take(ROOT_POOL)
            .collect();
        assert!(pool.len() >= B, "only {} roots in the largest component", pool.len());
        let oracle = pool.iter().map(|&r| trad_bfs(&g, r).dist).collect();
        let sssp_oracle = pool.iter().take(SSSP_POOL).map(|&r| dijkstra(&wg, r)).collect();
        Self { g, wg, pool, oracle, sssp_oracle, pagerank: pagerank_options() }
    }

    /// The `k`-th group of `B` roots from the pool, with pool indices.
    fn batch(&self, k: usize) -> ([VertexId; B], [usize; B]) {
        let idx: [usize; B] = std::array::from_fn(|j| (k * B + j) % self.pool.len());
        (idx.map(|i| self.pool[i]), idx)
    }
}

/// The phases of a run; a span's query id is its phase and its index
/// within the phase.
#[derive(Clone, Copy)]
enum Phase {
    Rounds,
    Setup,
    Probe,
    PageRank,
    Sssp,
    Msbfs,
    Open,
    Burst,
}

const PHASES: usize = 8;

fn qid(phase: Phase, k: usize) -> u64 {
    ((phase as u64) << 40) | k as u64
}

/// PageRank options: the defaults except the tolerance. At the default
/// L1 tolerance of 1e-7 the f32 scores sit at their rounding floor, so
/// the iteration count is noise: 21 to 39 iterations across Kronecker
/// seeds, and road graphs stall at ≈1.4e-7 and never converge. At 1e-4
/// every seed converges in the same number of iterations (9 on the
/// Kronecker graphs, 34 or 35 on the road graphs).
fn pagerank_options() -> PageRankOptions {
    PageRankOptions { tolerance: 1e-4, ..PageRankOptions::default() }
}

/// Runs `f` and returns its result with its wall time in ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Records a checked operation: a panic is a failure, otherwise `check`
/// decides.
fn record<T>(
    led: &mut Ledger,
    what: &str,
    out: &Result<T, String>,
    check: impl FnOnce(&T) -> Result<(), String>,
) {
    led.record(
        what,
        match out {
            Ok(v) => check(v),
            Err(e) => Err(format!("panicked: {e}")),
        },
    );
}

/// Counter sums over single-source BFS runs (from `RunStats`).
#[derive(Default)]
struct BfsAcc {
    runs: u64,
    iters: u64,
    col_steps: u64,
    cells: u64,
    active_cells: u64,
    changed: u64,
    processed: u64,
    activations: u64,
    worklist_iters: u64,
    sweep_ms: f64,
    wall_ms: f64,
}

impl BfsAcc {
    fn add(&mut self, s: &RunStats, wall_ms: f64) {
        self.runs += 1;
        self.iters += s.num_iterations() as u64;
        self.col_steps += s.total_col_steps();
        self.cells += s.total_cells();
        self.active_cells += s.total_active_cells();
        self.changed += s.iters.iter().map(|i| i.changed_chunks as u64).sum::<u64>();
        self.processed += s.iters.iter().map(|i| i.chunks_processed as u64).sum::<u64>();
        self.activations += s.total_activations();
        self.worklist_iters += s.worklist_sweep_iterations() as u64;
        self.sweep_ms += s.total_time().as_secs_f64() * 1e3;
        self.wall_ms += wall_ms;
    }

    fn per_run(&self, v: f64) -> f64 {
        v / self.runs.max(1) as f64
    }
}

/// Descriptor (dir-opt) counters, split by push and pull steps.
#[derive(Default)]
struct DescAcc {
    runs: u64,
    push_iters: u64,
    pull_iters: u64,
    push_ms: f64,
    pull_ms: f64,
    probes: u64,
}

/// Kernel counters of the secondary kernels.
#[derive(Default)]
struct KernelAcc {
    runs: u64,
    iters: u64,
    col_steps: u64,
    cells: u64,
    active_cells: u64,
    worklist_iters: u64,
    full_iters: u64,
    stat_iters: u64,
    ms: f64,
}

impl KernelAcc {
    fn add(&mut self, iterations: usize, s: &RunStats, ms: f64) {
        self.runs += 1;
        self.iters += iterations as u64;
        self.col_steps += s.total_col_steps();
        self.cells += s.total_cells();
        self.active_cells += s.total_active_cells();
        self.worklist_iters += s.worklist_sweep_iterations() as u64;
        self.full_iters += s.full_sweep_iterations() as u64;
        self.stat_iters += s.num_iterations() as u64;
        self.ms += ms;
    }

    fn per_run(&self, v: f64) -> f64 {
        v / self.runs.max(1) as f64
    }
}

/// Raw samples and sums gathered across phases.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
    depgraph_ms: Vec<f64>,
    bfs_first_ms: Vec<f64>,
    sssp_first_ms: Vec<f64>,
    bfs_ms: Vec<f64>,
    tree_ms: Vec<f64>,
    diropt_ms: Vec<f64>,
    trad_ms: Vec<f64>,
    beamer_ms: Vec<f64>,
    pagerank_ms: Vec<f64>,
    sssp_ms: Vec<f64>,
    msbfs_ms: Vec<f64>,
    bfs: BfsAcc,
    desc: DescAcc,
    pr: KernelAcc,
    sssp: KernelAcc,
    msbfs: KernelAcc,
    open: openloop::OpenLoop,
    /// Bursts run, queries served in them, and their summed drain time.
    bursts: usize,
    burst_served: usize,
    burst_s: f64,
    serve_delta: ServerStats,
    chunk_mv_ns_per_cell: f64,
    /// Traced runs: per pool index, round wall ms in traced / untraced
    /// passes.
    pass_wall: [Vec<Vec<f64>>; 2],
    /// Traced runs: (query id, wall ns measured outside the tracer).
    query_wall: Vec<(u64, u64)>,
}

/// The matrices and server one set-up produced.
struct Built {
    m: Arc<Matrix>,
    wm: WeightedSellCSigma<C>,
    server: Server,
}

/// Measurement cycles per run. Each cycle runs every phase for its
/// share of the cycle, so every metric samples the whole run rather than
/// one stretch of it, and slow drifts in host load reach all metrics
/// alike.
const CYCLES: usize = 20;

/// Generates the inputs, runs every phase, and reports.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let inp = Inputs::generate(w, seed);
    let plan = w.plan();
    let mut tr = Tracer::new(traced);
    let mut led = Ledger::default();
    let mut acc = Acc::default();
    let built = setup_once(&inp, &mut tr, &mut led, &mut acc, 0);
    tr.set_query(qid(Phase::Probe, 0));
    acc.chunk_mv_ns_per_cell =
        tr.span("simd", "chunk_mv sweep", |_| chunk_mv_ns_per_cell(&built.m));

    let mut r = Runner {
        inp: &inp,
        built: &built,
        tr,
        led,
        acc,
        done: [0; PHASES],
        spent: [0.0; PHASES],
        traced,
    };
    let cycle_s = seconds / CYCLES as f64;
    for c in 0..CYCLES {
        // The other set-ups are spread over the run like the phases.
        if c > 0 && c % (CYCLES / SETUP_REPS) == 0 {
            let extra = setup_once(&inp, &mut r.tr, &mut r.led, &mut r.acc, c);
            shutdown(extra.server, &mut r.led);
        }
        // By the end of cycle `c` a phase has run at least its minimum
        // count × (c + 1) / CYCLES times.
        let quota = |min: usize| (min * (c + 1)).div_ceil(CYCLES);
        let t0 = Instant::now();
        let mut end = 0.0;
        let mut until = |share: f64| {
            end += share * cycle_s;
            t0 + Duration::from_secs_f64(end)
        };
        r.rounds(quota(MIN_TAIL_SAMPLES), until(plan.rounds));
        r.pagerank(quota(MIN_PAGERANK), until(plan.pagerank));
        r.sssp(quota(MIN_SSSP), until(plan.sssp));
        r.msbfs(quota(MIN_MSBFS), until(plan.msbfs));
        let due = (plan.open_qps * plan.open * cycle_s).round() as usize;
        let owed = quota(MIN_TAIL_SAMPLES).saturating_sub(r.done[Phase::Open as usize]);
        r.open(plan.open_qps, due.max(owed));
        until(plan.open);
        r.burst(quota(MIN_BURSTS), until(plan.burst));
    }
    let Runner { tr, mut led, acc, .. } = r;

    let index_bytes = index_bytes(built.m.structure());
    shutdown(built.server, &mut led);

    let stats = GraphStats::compute(&inp.g, 4);
    let input = vec![
        format!("seed={seed}"),
        format!("n={}", stats.n),
        format!("m={}", stats.m),
        format!("diameter_lb={}", stats.diameter_lb),
        format!("mean_bfs_iterations={:.2}", acc.bfs.per_run(acc.bfs.iters as f64)),
        format!("roots={}", inp.pool.len()),
    ];
    let e2e = e2e_metrics(&acc, &index_bytes);
    let mut layers = layer_metrics(&acc, &index_bytes, &e2e);
    let mut layer_table = Vec::new();
    if traced {
        layers.extend(trace_metrics(&tr, &acc));
        layer_table = self_time_table(&tr);
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench-traces/{}-seed{seed}.jsonl",
            w.name()
        ));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    Report { e2e, layers, input, layer_table, ledger: led }
}

fn shutdown(server: Server, led: &mut Ledger) {
    let report = server.shutdown();
    led.record("serve.shutdown", {
        let s = &report.stats;
        if report.unclean_joins == 0 && s.submitted == s.resolved() && s.failed == 0 {
            Ok(())
        } else {
            Err(format!("unclean shutdown: {report:?}"))
        }
    });
}

/// One set-up: from the graph in hand to steady state. Builds every
/// matrix and makes the first call of each timed kernel (which pays the
/// lazy dependency graph, tilings and scratch), then starts the server
/// and serves one query.
fn setup_once(inp: &Inputs, tr: &mut Tracer, led: &mut Ledger, acc: &mut Acc, rep: usize) -> Built {
    tr.set_query(qid(Phase::Setup, rep));
    let g = &inp.g;
    let n = g.num_vertices();
    let (root, want) = (inp.pool[0], &inp.oracle[0]);
    let t0 = Instant::now();
    let (m, m_ms) =
        tr.span("structure", "SlimSellMatrix::build", |_| timed(|| Arc::new(Matrix::build(g, n))));
    let (wm, wm_ms) = tr.span("structure", "WeightedSellCSigma::build", |_| {
        timed(|| WeightedSellCSigma::<C>::build(&inp.wg, n))
    });
    let (bfs, bfs_ms) = tr.span("bfs", "BfsEngine::run<Tropical>#first", |_| {
        timed(|| {
            guarded(|| BfsEngine::run::<_, TropicalSemiring, C>(&*m, root, &BfsOptions::default()))
        })
    });
    let tree = tr.span("bfs", "BfsEngine::run<SelMax>#first", |_| {
        guarded(|| BfsEngine::run::<_, SelMaxSemiring, C>(&*m, root, &BfsOptions::default()))
    });
    let desc = tr.span("descriptor", "run_descriptor#first", |_| {
        guarded(|| run_descriptor(&*m, root, &Descriptor::default()))
    });
    let (sp, sssp_ms) = tr.span("sssp", "sssp_with#first", |_| {
        timed(|| guarded(|| sssp_with(&wm, inp.pool[0], &SsspOptions::default())))
    });
    let pr_opts = &inp.pagerank;
    let pr = tr.span("pagerank", "pagerank#first", |_| guarded(|| pagerank(&*m, pr_opts)));
    let (roots, idx) = inp.batch(0);
    let ms = tr.span("msbfs", "multi_bfs#first", |_| guarded(|| multi_bfs::<_, C, B>(&*m, &roots)));
    let server = tr.span("serve", "BfsServer::start", |_| {
        Server::start(Arc::clone(&m), ServeOptions::default())
    });
    let first = tr.span("serve", "submit+wait#first", |_| server.submit(root).wait());
    acc.setup_s.push(t0.elapsed().as_secs_f64());
    acc.build_ms.push(m_ms + wm_ms);
    acc.bfs_first_ms.push(bfs_ms);
    acc.sssp_first_ms.push(sssp_ms);

    record(led, "setup.bfs", &bfs, |o| check_dist(&o.dist, want));
    record(led, "setup.bfs_tree", &tree, |o| validate_tree(g, root, &o.dist, o.parent.as_deref()));
    record(led, "setup.diropt", &desc, |o| check_dist(&o.bfs.dist, want));
    record(led, "setup.sssp", &sp, |o| check_sssp(&o.dist, &inp.sssp_oracle[0]));
    record(led, "setup.pagerank", &pr, |o| {
        check_pagerank(&o.scores, o.residual, pr_opts.tolerance)
    });
    record(led, "setup.msbfs", &ms, |o| check_batch(&o.dist, &idx, inp));
    led.record(
        "setup.serve",
        first.map_err(|e| format!("{e:?}")).and_then(|o| check_dist(&o.dist, want)),
    );

    // The cold dependency-graph build, timed on its own (the engine's
    // lazy copy was built above, inside the first worklist sweep).
    let s = m.structure();
    let (_, dep_ms) = tr.span("worklist", "ChunkDepGraph::build", |_| {
        timed(|| black_box(ChunkDepGraph::build(s.num_chunks(), s.cs(), s.cl(), s.col(), C)))
    });
    acc.depgraph_ms.push(dep_ms);
    Built { m, wm, server }
}

fn validate_tree(
    g: &CsrGraph,
    root: VertexId,
    dist: &[u32],
    parent: Option<&[VertexId]>,
) -> Result<(), String> {
    if parent.is_none() {
        return Err("sel-max BFS returned no parents".into());
    }
    graph500_validate(g, root, dist, parent)
}

fn check_batch(dist: &[Vec<u32>], idx: &[usize; B], inp: &Inputs) -> Result<(), String> {
    if dist.len() != B {
        return Err(format!("{} lanes, expected {B}", dist.len()));
    }
    dist.iter().zip(idx).try_for_each(|(d, &i)| check_dist(d, &inp.oracle[i]))
}

/// The phases of the measured part of a run, with their state.
struct Runner<'a> {
    inp: &'a Inputs,
    built: &'a Built,
    tr: Tracer,
    led: Ledger,
    acc: Acc,
    /// Iterations each phase has run so far, across cycles, and the
    /// seconds they took.
    done: [usize; PHASES],
    spent: [f64; PHASES],
    traced: bool,
}

impl Runner<'_> {
    /// Runs `body(self, k)`, with `k` counting the phase's iterations
    /// across cycles, until the phase has run `quota` times in all and
    /// the next iteration would, on average, end past `deadline`.
    fn repeat(
        &mut self,
        phase: Phase,
        quota: usize,
        deadline: Instant,
        mut body: impl FnMut(&mut Self, usize),
    ) {
        let p = phase as usize;
        loop {
            let k = self.done[p];
            let mean = Duration::from_secs_f64(self.spent[p] / k.max(1) as f64);
            if k >= quota && Instant::now() + mean / 2 >= deadline {
                break;
            }
            self.tr.set_query(qid(phase, k));
            let t0 = Instant::now();
            body(self, k);
            self.spent[p] += t0.elapsed().as_secs_f64();
            self.done[p] += 1;
        }
    }

    /// The per-root BFS family: tropical BFS, sel-max tree, descriptor
    /// dir-opt, and the Trad-BFS and Beamer baselines on the same root.
    /// In traced runs, passes over the root pool alternate traced and
    /// untraced, so the two are compared on the same roots.
    fn rounds(&mut self, quota: usize, deadline: Instant) {
        let (inp, built) = (self.inp, self.built);
        let pool = inp.pool.len();
        if self.acc.pass_wall[0].is_empty() {
            self.acc.pass_wall = [vec![Vec::new(); pool], vec![Vec::new(); pool]];
        }
        self.repeat(Phase::Rounds, quota, deadline, |r, k| {
            let (i, pass) = (k % pool, (k / pool) % 2);
            r.tr.set_enabled(r.traced && pass == 0);
            let t0 = Instant::now();
            r.tr.span("bench", "round", |tr| round(inp, tr, &mut r.led, &mut r.acc, built, i));
            let wall = t0.elapsed();
            if r.traced {
                r.acc.pass_wall[pass][i].push(wall.as_secs_f64() * 1e3);
                if pass == 0 {
                    r.acc.query_wall.push((qid(Phase::Rounds, k), wall.as_nanos() as u64));
                }
            }
        });
        self.tr.set_enabled(self.traced);
    }

    fn pagerank(&mut self, quota: usize, deadline: Instant) {
        let (m, opts) = (&*self.built.m, &self.inp.pagerank);
        self.repeat(Phase::PageRank, quota, deadline, |r, _| {
            let (pr, ms) =
                r.tr.span("pagerank", "pagerank", |_| timed(|| guarded(|| pagerank(m, opts))));
            r.acc.pagerank_ms.push(ms);
            if let Ok(o) = &pr {
                r.acc.pr.add(o.iterations, &o.stats, ms);
            }
            record(&mut r.led, "pagerank", &pr, |o| {
                check_pagerank(&o.scores, o.residual, opts.tolerance)
            });
        });
    }

    fn sssp(&mut self, quota: usize, deadline: Instant) {
        let (inp, wm) = (self.inp, &self.built.wm);
        let opts = SsspOptions::default();
        self.repeat(Phase::Sssp, quota, deadline, |r, k| {
            let i = k % inp.sssp_oracle.len();
            let (sp, ms) = r.tr.span("sssp", "sssp_with", |_| {
                timed(|| guarded(|| sssp_with(wm, inp.pool[i], &opts)))
            });
            r.acc.sssp_ms.push(ms);
            if let Ok(o) = &sp {
                r.acc.sssp.add(o.iterations, &o.stats, ms);
            }
            record(&mut r.led, "sssp", &sp, |o| check_sssp(&o.dist, &inp.sssp_oracle[i]));
        });
    }

    /// `multi_bfs` called directly on `B` roots, outside the server.
    fn msbfs(&mut self, quota: usize, deadline: Instant) {
        let (inp, m) = (self.inp, &*self.built.m);
        self.repeat(Phase::Msbfs, quota, deadline, |r, k| {
            let (roots, idx) = inp.batch(k);
            let (out, ms) = r.tr.span("msbfs", "multi_bfs", |_| {
                timed(|| guarded(|| multi_bfs::<_, C, B>(m, &roots)))
            });
            r.acc.msbfs_ms.push(ms);
            if let Ok(o) = &out {
                r.acc.msbfs.add(o.iterations, &o.stats, ms);
            }
            record(&mut r.led, "msbfs", &out, |o| check_batch(&o.dist, &idx, inp));
        });
    }

    /// Open loop: one generator thread, `count` queries due every
    /// `1/qps` seconds, each timed from its due time to the moment it is
    /// seen resolved.
    fn open(&mut self, qps: f64, count: usize) {
        let (inp, server) = (self.inp, &self.built.server);
        let pool = inp.pool.len();
        let base = self.done[Phase::Open as usize];
        let (tr, led) = (&mut self.tr, &mut self.led);
        let before = server.stats();
        let res = openloop::run(
            count,
            Duration::from_secs_f64(1.0 / qps),
            |i| {
                tr.set_query(qid(Phase::Open, base + i));
                tr.span("serve", "BfsServer::submit", |_| {
                    server.submit(inp.pool[(base + i) % pool])
                })
            },
            QueryHandle::is_done,
            |i, h| {
                let want = &inp.oracle[(base + i) % pool];
                let out = h.wait().map_err(|e| format!("{e:?}"));
                led.record("serve", out.and_then(|o| check_dist(&o.dist, want)));
            },
        );
        let after = server.stats();
        let d = &mut self.acc.serve_delta;
        d.batches += after.batches - before.batches;
        d.multi_root_batches += after.multi_root_batches - before.multi_root_batches;
        d.coalesced += after.coalesced - before.coalesced;
        self.acc.open.latency_ms.extend(res.latency_ms);
        self.acc.open.lag_ms.extend(res.lag_ms);
        self.done[Phase::Open as usize] += count;
    }

    /// Bursts of `BURST` queries submitted at once and drained;
    /// throughput is served queries over drain time.
    fn burst(&mut self, quota: usize, deadline: Instant) {
        let (inp, server) = (self.inp, &self.built.server);
        let pool = inp.pool.len();
        self.repeat(Phase::Burst, quota, deadline, |r, k| {
            let root = |j: usize| (k * BURST + j) % pool;
            let (outs, ms) = r.tr.span("serve", "burst submit+drain", |_| {
                timed(|| {
                    let hs: Vec<_> = (0..BURST).map(|j| server.submit(inp.pool[root(j)])).collect();
                    hs.into_iter().map(QueryHandle::wait).collect::<Vec<_>>()
                })
            });
            let mut served = 0;
            for (j, out) in outs.into_iter().enumerate() {
                let ok = out
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|o| check_dist(&o.dist, &inp.oracle[root(j)]));
                served += ok.is_ok() as usize;
                r.led.record("serve.burst", ok);
            }
            r.acc.bursts += 1;
            r.acc.burst_served += served;
            r.acc.burst_s += ms / 1e3;
        });
    }
}

fn round(inp: &Inputs, tr: &mut Tracer, led: &mut Ledger, acc: &mut Acc, built: &Built, i: usize) {
    let (g, m, root, want) = (&inp.g, &*built.m, inp.pool[i], &inp.oracle[i]);
    let opts = BfsOptions::default();

    let (bfs, ms) = tr.span("bfs", "BfsEngine::run<Tropical>", |_| {
        timed(|| guarded(|| BfsEngine::run::<_, TropicalSemiring, C>(m, root, &opts)))
    });
    acc.bfs_ms.push(ms);
    if let Ok(o) = &bfs {
        acc.bfs.add(&o.stats, ms);
    }
    tr.span("bench", "check", |_| record(led, "bfs", &bfs, |o| check_dist(&o.dist, want)));

    if i.is_multiple_of(TREE_EVERY) {
        let (tree, ms) = tr.span("bfs", "BfsEngine::run<SelMax>", |_| {
            timed(|| guarded(|| BfsEngine::run::<_, SelMaxSemiring, C>(m, root, &opts)))
        });
        acc.tree_ms.push(ms);
        tr.span("bench", "check", |_| {
            record(led, "bfs_tree", &tree, |o| {
                check_dist(&o.dist, want)?;
                validate_tree(g, root, &o.dist, o.parent.as_deref())
            })
        });
    }

    let (desc, ms) = tr.span("descriptor", "run_descriptor", |_| {
        timed(|| guarded(|| run_descriptor(m, root, &Descriptor::default())))
    });
    acc.diropt_ms.push(ms);
    if let Ok(o) = &desc {
        let d = &mut acc.desc;
        d.runs += 1;
        for (mode, it) in o.modes.iter().zip(&o.bfs.stats.iters) {
            let ms = it.elapsed.as_secs_f64() * 1e3;
            match mode {
                StepMode::TopDown => {
                    d.push_iters += 1;
                    d.push_ms += ms;
                }
                StepMode::BottomUp => {
                    d.pull_iters += 1;
                    d.pull_ms += ms;
                }
            }
        }
        d.probes += o.bfs.stats.total_frontier_probes();
    }
    tr.span("bench", "check", |_| record(led, "diropt", &desc, |o| check_dist(&o.bfs.dist, want)));

    let (trad, ms) = tr.span("baseline", "trad_bfs", |_| timed(|| guarded(|| trad_bfs(g, root))));
    acc.trad_ms.push(ms);
    let (beamer, ms) = tr.span("baseline", "dirop_bfs", |_| {
        timed(|| guarded(|| dirop_bfs(g, root, &DirOptBfsOptions::default())))
    });
    acc.beamer_ms.push(ms);
    tr.span("bench", "check", |_| {
        record(led, "trad", &trad, |o| check_dist(&o.dist, want));
        record(led, "beamer", &beamer, |o| check_dist(&o.dist, want));
    });
}

/// One thread calls the public `chunk_mv` over every chunk: the per-cell
/// cost of the SIMD layer, free of the sweep loops around it.
fn chunk_mv_ns_per_cell(m: &Matrix) -> f64 {
    let s = m.structure();
    let x: Vec<f32> = (0..s.n_padded()).map(|i| (i % 7) as f32).collect();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut sink = 0.0f32;
        for i in 0..s.num_chunks() {
            sink += chunk_mv::<_, TropicalSemiring, C>(m, black_box(&x), i).as_array()[0];
        }
        black_box(sink);
        samples.push(t0.elapsed().as_nanos() as f64 / s.total_cells() as f64);
    }
    median(&samples).expect("five samples")
}

/// Bytes the SlimSell index keeps, computed from public sizes.
struct IndexBytes {
    arcs: f64,
    structure: f64,
    depgraph: f64,
    padding_frac: f64,
}

fn index_bytes(s: &SellStructure<C>) -> IndexBytes {
    use std::mem::{size_of, size_of_val};
    let structure = size_of_val(s.col())
        + size_of_val(s.cs())
        + size_of_val(s.cl())
        + size_of_val(s.chunk_arcs())
        + size_of_val(s.perm().new_to_old())
        + size_of_val(s.perm().old_to_new());
    let d = s.dep_graph();
    // CSR offsets plus one target id and one lane mask per edge.
    let depgraph = (d.num_chunks() + 1) * size_of::<usize>() + d.num_deps() * 2 * size_of::<u32>();
    IndexBytes {
        arcs: s.arcs() as f64,
        structure: structure as f64,
        depgraph: depgraph as f64,
        padding_frac: s.padding_cells() as f64 / s.total_cells() as f64,
    }
}

fn n_note(samples: &[f64]) -> String {
    format!("n={}", samples.len())
}

/// A percentile metric with its sample count. A tail percentile without
/// enough samples beyond it cannot happen (every phase runs its minimum
/// count); if it did, the run would have no honest number to give.
fn pct(name: &'static str, samples: &[f64], p: f64) -> Metric {
    let v = if p > 50.0 { tail(samples, p) } else { percentile(samples, p) };
    let v = v.unwrap_or_else(|| panic!("{name}: {} samples cannot support p{p}", samples.len()));
    metric(name, v, "ms", n_note(samples))
}

fn e2e_metrics(acc: &Acc, ib: &IndexBytes) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&acc.setup_s).unwrap_or(f64::NAN), "s", n_note(&acc.setup_s)),
        metric(
            "index_bytes_per_arc",
            (ib.structure + ib.depgraph) / ib.arcs,
            "B/arc",
            "computed from public sizes",
        ),
        pct("bfs_ms_p50", &acc.bfs_ms, 50.0),
        pct("bfs_ms_p90", &acc.bfs_ms, 90.0),
        pct("bfs_tree_ms_p50", &acc.tree_ms, 50.0),
        pct("diropt_ms_p50", &acc.diropt_ms, 50.0),
        pct("diropt_ms_p90", &acc.diropt_ms, 90.0),
        pct("sssp_ms_p50", &acc.sssp_ms, 50.0),
        pct("pagerank_ms_p50", &acc.pagerank_ms, 50.0),
        metric(
            "serve_qps",
            // A ratio of totals: per-burst rates swing between modes as
            // host load shifts, and their median flips with them.
            acc.burst_served as f64 / acc.burst_s,
            "queries/s",
            format!("{} queries in {} bursts of {BURST}", acc.burst_served, acc.bursts),
        ),
        pct("serve_ms_p50", &acc.open.latency_ms, 50.0),
        pct("serve_ms_p90", &acc.open.latency_ms, 90.0),
    ]
}

fn layer_metrics(acc: &Acc, ib: &IndexBytes, e2e: &[Metric]) -> Vec<Metric> {
    let e = |name: &str| e2e.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
    let med = |s: &[f64]| median(s).unwrap_or(f64::NAN);
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let (b, d) = (&acc.bfs, &acc.desc);
    let per_bfs = |v: f64| b.per_run(v);
    let per_desc = |v: f64| v / d.runs.max(1) as f64;
    let (pr, sp, ms) = (&acc.pr, &acc.sssp, &acc.msbfs);
    let sd = &acc.serve_delta;
    let msbfs_p50 = med(&acc.msbfs_ms);
    let per_q = format!("mean per query, {} queries", b.runs);
    vec![
        metric("structure.build_ms", med(&acc.build_ms), "ms", n_note(&acc.build_ms)),
        metric("structure.bytes_per_arc", ib.structure / ib.arcs, "B/arc", "computed"),
        metric("structure.padding_frac", ib.padding_frac, "ratio", "padding cells / cells"),
        metric("worklist.depgraph_ms", med(&acc.depgraph_ms), "ms", n_note(&acc.depgraph_ms)),
        metric("worklist.depgraph_bytes_per_arc", ib.depgraph / ib.arcs, "B/arc", "computed"),
        metric("worklist.activations", per_bfs(b.activations as f64), "count", per_q.clone()),
        metric("worklist.iter_frac", ratio(b.worklist_iters as f64, b.iters as f64), "ratio", ""),
        metric("bfs.first_ms", med(&acc.bfs_first_ms), "ms", n_note(&acc.bfs_first_ms)),
        metric("bfs.iterations", per_bfs(b.iters as f64), "count", per_q.clone()),
        metric("bfs.col_steps", per_bfs(b.col_steps as f64), "count", per_q.clone()),
        metric("bfs.cells", per_bfs(b.cells as f64), "count", per_q.clone()),
        metric("bfs.lane_util", ratio(b.active_cells as f64, b.cells as f64), "ratio", ""),
        metric("bfs.useful_mv_frac", ratio(b.changed as f64, b.processed as f64), "ratio", ""),
        metric("bfs.sweep_ms", per_bfs(b.sweep_ms), "ms", per_q.clone()),
        metric("bfs.nonsweep_ms", per_bfs(b.wall_ms - b.sweep_ms), "ms", per_q.clone()),
        metric("bfs.us_per_iter", 1e3 * ratio(b.wall_ms, b.iters as f64), "us/iter", ""),
        metric("simd.chunk_mv_ns_per_cell", acc.chunk_mv_ns_per_cell, "ns/cell", "one thread"),
        metric("descriptor.push_iters", per_desc(d.push_iters as f64), "count", ""),
        metric("descriptor.pull_iters", per_desc(d.pull_iters as f64), "count", ""),
        metric("descriptor.push_ms", per_desc(d.push_ms), "ms", ""),
        metric("descriptor.pull_ms", per_desc(d.pull_ms), "ms", ""),
        metric("descriptor.frontier_probes", per_desc(d.probes as f64), "count", ""),
        metric("sssp.first_ms", med(&acc.sssp_first_ms), "ms", n_note(&acc.sssp_first_ms)),
        metric("sssp.iterations", sp.per_run(sp.iters as f64), "count", ""),
        metric("sssp.col_steps", sp.per_run(sp.col_steps as f64), "count", ""),
        metric("sssp.us_per_iter", 1e3 * ratio(sp.ms, sp.iters as f64), "us/iter", ""),
        metric(
            "sssp.worklist_iter_frac",
            ratio(sp.worklist_iters as f64, sp.stat_iters as f64),
            "ratio",
            "",
        ),
        metric("pagerank.iterations", pr.per_run(pr.iters as f64), "count", ""),
        metric("pagerank.ms_per_iter", ratio(pr.ms, pr.iters as f64), "ms/iter", ""),
        metric("pagerank.col_steps", pr.per_run(pr.col_steps as f64), "count", ""),
        metric(
            "pagerank.full_iter_frac",
            ratio(pr.full_iters as f64, pr.stat_iters as f64),
            "ratio",
            "",
        ),
        metric("msbfs.batch_ms_p50", msbfs_p50, "ms", n_note(&acc.msbfs_ms)),
        metric("msbfs.iterations", ms.per_run(ms.iters as f64), "count", ""),
        metric("msbfs.lane_util", ratio(ms.active_cells as f64, ms.cells as f64), "ratio", ""),
        metric("serve.batches", sd.batches as f64, "count", "open-loop phase"),
        metric("serve.mean_batch_fill", sd.mean_batch_fill(), "count", "open-loop phase"),
        metric(
            "serve.multi_root_frac",
            ratio(sd.multi_root_batches as f64, sd.batches as f64),
            "ratio",
            "open-loop phase",
        ),
        metric(
            "serve.overhead_ms",
            e("serve_ms_p50") - msbfs_p50,
            "ms",
            "derived: serve_ms_p50 - msbfs.batch_ms_p50",
        ),
        metric("serve.gen_lag_ms", mean(&acc.open.lag_ms), "ms", n_note(&acc.open.lag_ms)),
        metric("baseline.trad_ms_p50", med(&acc.trad_ms), "ms", n_note(&acc.trad_ms)),
        metric("baseline.beamer_ms_p50", med(&acc.beamer_ms), "ms", n_note(&acc.beamer_ms)),
        metric(
            "baseline.bfs_over_trad",
            e("bfs_ms_p50") / med(&acc.trad_ms),
            "ratio",
            "bfs_ms_p50 / baseline.trad_ms_p50",
        ),
    ]
}

/// Tracing overhead (traced over untraced round wall on the same roots)
/// and the worst gap between a query's summed self times and its wall
/// time measured outside the tracer.
fn trace_metrics(tr: &Tracer, acc: &Acc) -> Vec<Metric> {
    let (mut traced, mut untraced, mut roots) = (0.0, 0.0, 0);
    for (t, u) in acc.pass_wall[0].iter().zip(&acc.pass_wall[1]) {
        if !t.is_empty() && !u.is_empty() {
            traced += mean(t);
            untraced += mean(u);
            roots += 1;
        }
    }
    let overhead = if untraced > 0.0 { traced / untraced - 1.0 } else { f64::NAN };
    let sums = tr.query_sums_ns();
    let gap = acc
        .query_wall
        .iter()
        .filter_map(|(q, wall)| {
            sums.get(q).map(|&(s, _)| (s as f64 - *wall as f64).abs() / *wall as f64)
        })
        .fold(0.0, f64::max);
    vec![
        metric("trace.overhead_frac", overhead, "ratio", format!("paired on {roots} roots")),
        metric(
            "trace.self_gap_frac",
            gap,
            "ratio",
            format!("max over {} queries", acc.query_wall.len()),
        ),
    ]
}

fn self_time_table(tr: &Tracer) -> Vec<String> {
    let layers = tr.layer_self_ns();
    let total: u64 = layers.values().map(|v| v.1).sum();
    let mut rows = vec![format!("{:<12} {:>8} {:>12} {:>7}", "layer", "spans", "self_ms", "share")];
    for (layer, (calls, ns)) in layers {
        rows.push(format!(
            "{layer:<12} {calls:>8} {:>12.3} {:>6.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
    rows
}
