//! SIMT BFS driver: functional execution + cycle accounting.
//!
//! Runs the same per-chunk math as `slimsell_core` (literally calling
//! [`slimsell_core::chunk_mv`] and the semiring's `post_chunk`), but
//! serially, while charging each chunk/tile task to the cost model and
//! scheduling tasks onto warp slots for a per-iteration makespan. The
//! functional output is therefore identical to the CPU engine; only the
//! simulated clock differs — which is all Figs. 6 and 10 need.

use slimsell_core::chunk_mv;
use slimsell_core::matrix::ChunkMatrix;
use slimsell_core::semiring::{copy_forward, Semiring, StateVecs};
use slimsell_graph::{VertexId, UNREACHABLE};

use crate::cost::CostModel;
use crate::machine::{imbalance, makespan, SimtConfig};

/// SIMT run options (the GPU-side SlimWork/SlimChunk switches).
#[derive(Clone, Copy, Debug)]
pub struct SimtOptions {
    /// Enable SlimWork chunk skipping.
    pub slimwork: bool,
    /// SlimChunk tile width in column steps (`None` = whole chunks).
    pub slimchunk: Option<usize>,
}

impl Default for SimtOptions {
    fn default() -> Self {
        Self { slimwork: true, slimchunk: None }
    }
}

/// Simulated statistics of one BFS iteration.
#[derive(Clone, Copy, Debug)]
pub struct SimtIter {
    /// Iteration makespan (simulated cycles until the last warp drains).
    pub cycles: u64,
    /// Total busy cycles across all warp tasks (work, not wall time).
    pub busy_cycles: u64,
    /// max/mean task duration — the load-imbalance gauge.
    pub imbalance: f64,
    /// Chunks that executed the MV.
    pub chunks_processed: usize,
    /// Chunks skipped by SlimWork.
    pub chunks_skipped: usize,
    /// SIMD (lane) efficiency of the processed chunks: fraction of
    /// touched cells that are real edges rather than padding. This is
    /// the utilization measure σ-sorting improves (cf. Cheng et al.
    /// \[11\], "Understanding the SIMD Efficiency of Graph Traversal on
    /// GPU", cited in §I/§V); 1.0 when nothing was processed.
    pub simd_efficiency: f64,
    /// Bytes moved through the simulated memory system this iteration
    /// (col stream + gathers + `val` stream for Sell-C-σ + result
    /// stores). SlimSell's removal of `val` shows up directly here —
    /// the "reduces data transfer" claim of §III-B, measurable.
    pub bytes_transferred: u64,
}

/// Full report of a simulated run.
#[derive(Clone, Debug)]
pub struct SimtBfsReport {
    /// Hop distances in original ids.
    pub dist: Vec<u32>,
    /// Parents if the semiring computes them.
    pub parent: Option<Vec<VertexId>>,
    /// Per-iteration simulated statistics.
    pub iters: Vec<SimtIter>,
}

impl SimtBfsReport {
    /// Total simulated cycles of the run.
    pub fn total_cycles(&self) -> u64 {
        self.iters.iter().map(|i| i.cycles).sum()
    }

    /// Per-iteration cycle series (figure y-axis).
    pub fn cycle_series(&self) -> Vec<u64> {
        self.iters.iter().map(|i| i.cycles).collect()
    }
}

/// Runs BFS on the simulated SIMT machine.
///
/// # Panics
/// Panics if `C != cfg.warp_width` or `root` is out of range.
pub fn run_simt_bfs<M, S, const C: usize>(
    matrix: &M,
    root: VertexId,
    cfg: &SimtConfig,
    opts: &SimtOptions,
) -> SimtBfsReport
where
    M: ChunkMatrix<C>,
    S: Semiring,
{
    assert_eq!(
        C, cfg.warp_width,
        "chunk height C={C} must equal the warp width {}",
        cfg.warp_width
    );
    let s = matrix.structure();
    let n = s.n();
    assert!((root as usize) < n, "root {root} out of range (n = {n})");
    let root_p = s.perm().to_new(root) as usize;
    let np = s.n_padded();
    let nc = s.num_chunks();
    let rep = matrix.representation();
    let cost: &CostModel = &cfg.cost;

    let mut cur = StateVecs::new(np);
    let mut nxt = StateVecs::new(np);
    let mut d = vec![0.0f32; np];
    S::init(&mut cur, &mut d, n, root_p);

    // Per-chunk edge (non-padding) cell counts for the lane-efficiency
    // metric — the same series the CPU engines' `active_cells` counter
    // draws from, so measured and simulated utilization agree exactly.
    let chunk_arcs: &[u64] = s.chunk_arcs();

    let mut iters = Vec::new();
    let mut depth = 0u32;
    loop {
        depth += 1;
        let mut durations: Vec<u64> = Vec::with_capacity(nc);
        let mut changed = false;
        let mut skipped = 0usize;
        let mut active_cells = 0u64;
        let mut touched_cells = 0u64;
        let mut bytes = 0u64;
        // Per column step: the col vector load, the gather, and — for
        // Sell-C-σ only — the val vector load; 4 bytes per lane each.
        let streams_per_step: u64 = match rep {
            slimsell_core::matrix::Representation::SellCSigma => 3,
            slimsell_core::matrix::Representation::SlimSell => 2,
        };
        for (i, &arcs) in chunk_arcs.iter().enumerate() {
            let base = i * C;
            if opts.slimwork && S::should_skip(&cur, base..base + C) {
                let (nx, ng, np_) = three_chunks(&mut nxt, base, C);
                copy_forward::<S>(&cur, base, nx, ng, np_);
                durations.push(cost.skipped_chunk());
                skipped += 1;
                continue;
            }
            let cl = s.cl()[i] as u64;
            active_cells += arcs;
            touched_cells += cl * C as u64;
            bytes += cl * C as u64 * 4 * streams_per_step + 2 * C as u64 * 4;
            match opts.slimchunk {
                None => durations.push(cost.chunk_task(cl, rep, S::NAME)),
                Some(tile_w) => {
                    // Tiles become independent warp tasks; the chunk's
                    // post-processing (+ one ALU merge per tile) rides on
                    // the last tile.
                    let tile_w = tile_w.max(1) as u64;
                    let mut remaining = cl;
                    let tiles = cl.div_ceil(tile_w).max(1);
                    for t in 0..tiles {
                        let cols = remaining.min(tile_w);
                        remaining -= cols;
                        let mut dur = cost.launch + cols * cost.column_step(rep);
                        if t == tiles - 1 {
                            dur += cost.post_chunk(S::NAME) + tiles * cost.alu;
                        }
                        durations.push(dur);
                    }
                }
            }
            // Functional execution (identical math to the CPU engine).
            let acc = chunk_mv::<M, S, C>(matrix, &cur.x, i);
            let (nx, ng, np_) = three_chunks(&mut nxt, base, C);
            let dd = &mut d[base..base + C];
            changed |= S::post_chunk(acc, &cur, base, nx, ng, np_, dd, depth as f32);
        }
        iters.push(SimtIter {
            cycles: makespan(&durations, cfg.warp_slots),
            busy_cycles: durations.iter().sum(),
            imbalance: imbalance(&durations),
            chunks_processed: nc - skipped,
            chunks_skipped: skipped,
            simd_efficiency: if touched_cells == 0 {
                1.0
            } else {
                active_cells as f64 / touched_cells as f64
            },
            bytes_transferred: bytes,
        });
        std::mem::swap(&mut cur, &mut nxt);
        if !changed || depth as usize > n {
            break;
        }
    }

    let perm = s.perm();
    let dist_f = S::distances(&cur, &d);
    let dist: Vec<u32> = (0..n)
        .map(|old| {
            let v = dist_f[perm.to_new(old as VertexId) as usize];
            if v.is_finite() {
                v as u32
            } else {
                UNREACHABLE
            }
        })
        .collect();
    let parent = S::parents(&cur).map(|p| {
        (0..n)
            .map(|old| {
                let pv = p[perm.to_new(old as VertexId) as usize];
                if pv == 0.0 {
                    UNREACHABLE
                } else {
                    perm.to_old(pv as VertexId - 1)
                }
            })
            .collect()
    });
    SimtBfsReport { dist, parent, iters }
}

/// Disjoint mutable chunk views over the three state vectors (distinct
/// struct fields, so plain destructuring borrows suffice).
fn three_chunks(v: &mut StateVecs, base: usize, c: usize) -> (&mut [f32], &mut [f32], &mut [f32]) {
    let StateVecs { x, g, p } = v;
    (&mut x[base..base + c], &mut g[base..base + c], &mut p[base..base + c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_core::matrix::{SellCSigma, SlimSellMatrix};
    use slimsell_core::semiring::{BooleanSemiring, SelMaxSemiring, TropicalSemiring};
    use slimsell_core::{BfsEngine, BfsOptions};
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::{serial_bfs, validate_parents};

    fn cfg() -> SimtConfig {
        SimtConfig::default()
    }

    #[test]
    fn output_matches_reference_and_cpu_engine() {
        let g = kronecker(10, 8.0, KroneckerParams::GRAPH500, 3);
        let root = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<32>::build(&g, g.num_vertices());
        let reference = serial_bfs(&g, root);
        let simt =
            run_simt_bfs::<_, TropicalSemiring, 32>(&slim, root, &cfg(), &SimtOptions::default());
        assert_eq!(simt.dist, reference.dist);
        let cpu = BfsEngine::run::<_, TropicalSemiring, 32>(&slim, root, &BfsOptions::default());
        assert_eq!(simt.dist, cpu.dist);
    }

    #[test]
    fn selmax_parents_valid_on_simt() {
        let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 8);
        let root = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let slim = SlimSellMatrix::<32>::build(&g, 64);
        let r = run_simt_bfs::<_, SelMaxSemiring, 32>(&slim, root, &cfg(), &SimtOptions::default());
        assert_eq!(r.dist, serial_bfs(&g, root).dist);
        validate_parents(&g, root, &r.dist, &r.parent.unwrap()).unwrap();
    }

    #[test]
    fn slimchunk_reduces_makespan_on_sorted_powerlaw() {
        // Full sorting packs the hubs into the first chunks: classic
        // imbalance. Tiling must cut the first iterations' makespan.
        let g = kronecker(11, 16.0, KroneckerParams::GRAPH500, 1);
        let root = (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
        let slim = SlimSellMatrix::<32>::build(&g, g.num_vertices());
        let plain = run_simt_bfs::<_, TropicalSemiring, 32>(
            &slim,
            root,
            &cfg(),
            &SimtOptions { slimchunk: None, slimwork: false },
        );
        let tiled = run_simt_bfs::<_, TropicalSemiring, 32>(
            &slim,
            root,
            &cfg(),
            &SimtOptions { slimchunk: Some(8), slimwork: false },
        );
        assert_eq!(plain.dist, tiled.dist);
        let p: u64 = plain.iters.iter().take(3).map(|i| i.cycles).sum();
        let t: u64 = tiled.iters.iter().take(3).map(|i| i.cycles).sum();
        assert!(t < p, "tiled early iterations {t} !< plain {p}");
        assert!(tiled.iters[1].imbalance <= plain.iters[1].imbalance);
    }

    #[test]
    fn slimsell_saves_cycles_over_sellcs() {
        let g = kronecker(10, 8.0, KroneckerParams::GRAPH500, 5);
        let root = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let n = g.num_vertices();
        let slim = SlimSellMatrix::<32>::build(&g, n);
        let sell = SellCSigma::<32>::build(&g, n, TropicalSemiring::PAD);
        let a =
            run_simt_bfs::<_, TropicalSemiring, 32>(&slim, root, &cfg(), &SimtOptions::default());
        let b =
            run_simt_bfs::<_, TropicalSemiring, 32>(&sell, root, &cfg(), &SimtOptions::default());
        assert_eq!(a.dist, b.dist);
        assert!(
            a.total_cycles() <= b.total_cycles(),
            "slim {} > sell {}",
            a.total_cycles(),
            b.total_cycles()
        );
    }

    #[test]
    fn slimwork_drains_late_iterations() {
        let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 2);
        let root = (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
        let slim = SlimSellMatrix::<32>::build(&g, g.num_vertices());
        let with = run_simt_bfs::<_, BooleanSemiring, 32>(
            &slim,
            root,
            &cfg(),
            &SimtOptions { slimwork: true, slimchunk: None },
        );
        let without = run_simt_bfs::<_, BooleanSemiring, 32>(
            &slim,
            root,
            &cfg(),
            &SimtOptions { slimwork: false, slimchunk: None },
        );
        assert_eq!(with.dist, without.dist);
        let last_with = with.iters.last().unwrap();
        let last_without = without.iters.last().unwrap();
        assert!(last_with.cycles < last_without.cycles, "SlimWork last iteration not cheaper");
        assert!(with.total_cycles() < without.total_cycles());
    }

    #[test]
    fn slimsell_moves_one_third_fewer_bytes() {
        // §III-B: "SlimSell reduces data transfer by removing loads of
        // val" — of the three per-step streams (col, gather, val), one
        // disappears.
        let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 12);
        let root = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0).unwrap();
        let n = g.num_vertices();
        let slim = SlimSellMatrix::<32>::build(&g, n);
        let sell = SellCSigma::<32>::build(&g, n, TropicalSemiring::PAD);
        let opts = SimtOptions { slimwork: false, slimchunk: None };
        let a = run_simt_bfs::<_, TropicalSemiring, 32>(&slim, root, &cfg(), &opts);
        let b = run_simt_bfs::<_, TropicalSemiring, 32>(&sell, root, &cfg(), &opts);
        let ba: u64 = a.iters.iter().map(|i| i.bytes_transferred).sum();
        let bb: u64 = b.iters.iter().map(|i| i.bytes_transferred).sum();
        let ratio = ba as f64 / bb as f64;
        assert!((0.6..0.75).contains(&ratio), "byte ratio {ratio} (expected ≈ 2/3)");
    }

    #[test]
    fn sorting_improves_simd_efficiency() {
        // σ-sorting packs similar-length rows together, cutting padding
        // and therefore raising the lane-utilization metric.
        let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 4);
        let root = (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap();
        let eff = |sigma: usize| {
            let m = SlimSellMatrix::<32>::build(&g, sigma);
            let r = run_simt_bfs::<_, TropicalSemiring, 32>(
                &m,
                root,
                &cfg(),
                &SimtOptions { slimwork: false, slimchunk: None },
            );
            r.iters[0].simd_efficiency
        };
        let unsorted = eff(1);
        let sorted = eff(g.num_vertices());
        assert!(sorted > unsorted, "sorted eff {sorted} !> unsorted {unsorted}");
        assert!((0.0..=1.0).contains(&sorted));
    }

    #[test]
    #[should_panic(expected = "warp width")]
    fn wrong_width_rejected() {
        let g = kronecker(6, 4.0, KroneckerParams::GRAPH500, 0);
        let slim = SlimSellMatrix::<8>::build(&g, 8);
        run_simt_bfs::<_, TropicalSemiring, 8>(&slim, 0, &cfg(), &SimtOptions::default());
    }
}
