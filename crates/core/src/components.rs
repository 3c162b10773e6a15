//! Connected components by algebraic label propagation — another §VI
//! "other graph algorithms" instance on the same chunked substrate.
//!
//! Every vertex starts with its own (1-based) label; each sweep replaces
//! a label by the minimum over the vertex's neighborhood and itself
//! (`x' = MIN(x, A ⊗_min x)` with unit-free `op2 = select-rhs`, i.e. the
//! tropical kernel with zero edge weights). The fixpoint assigns every
//! component the minimum vertex label it contains; the sweep count is
//! bounded by the largest component diameter.
//!
//! The run is the crate's one sweep loop (`bfs::sweep_loop`) with a
//! min-label chunk kernel: this module keeps only the label init, the
//! fold and the un-permute. Every vertex seeds its own label, so the
//! first sweep visits every chunk; after that, worklist
//! and adaptive sweeps revisit only chunks that gather a label that
//! changed, and a component whose labels settled drops off the list.
//! Runs sweep under the process-default [`SweepConfig`]
//! (`SLIMSELL_SWEEP`); labels and iteration counts are bit-identical in
//! every sweep mode and at any thread count.

use slimsell_graph::VertexId;
use slimsell_simd::{SimdF32, SimdI32};

use crate::bfs::{sweep_loop, ChunkKernel, ChunkWork, RunSpec};
use crate::counters::RunStats;
use crate::matrix::ChunkMatrix;
use crate::semiring::lanes_ne_bits;
use crate::sweep::SweepConfig;

/// Connected-components result.
#[derive(Clone, Debug)]
pub struct ComponentsOutput {
    /// `label[v]` = smallest original vertex id in `v`'s component.
    pub label: Vec<VertexId>,
    /// Number of distinct components.
    pub count: usize,
    /// Propagation sweeps executed.
    pub iterations: usize,
    /// Per-sweep statistics: sweep-mode trace, column steps, worklist
    /// sizes, activations.
    pub stats: RunStats,
}

/// The min-label kernel: one flat label vector, `C` values per chunk.
struct MinLabel<'a, M>(&'a M);

impl<M: ChunkMatrix<C>, const C: usize> ChunkKernel<C, 1> for MinLabel<'_, M> {
    type State = Vec<f32>;
    type Kept = ();
    const WIDTH: usize = C;

    /// Labels are 1-based *original* ids so the final minimum is
    /// meaningful before un-permutation; padding rows get +∞ (never the
    /// minimum, never gathered).
    fn init(&self, _: &[usize], _: bool) -> (Vec<f32>, Vec<f32>, ()) {
        let s = self.0.structure();
        let perm = s.perm();
        let mut cur = vec![f32::INFINITY; s.n_padded()];
        for (r, c) in cur.iter_mut().enumerate().take(s.n()) {
            *c = (perm.to_old(r as VertexId) + 1) as f32;
        }
        (cur.clone(), cur, ())
    }

    fn slabs<'b>(nxt: &'b mut Vec<f32>, _: &'b mut ()) -> [&'b mut [f32]; 1] {
        [nxt]
    }

    fn chunk(
        &self,
        cur: &Vec<f32>,
        _: usize,
        i: usize,
        [out]: [&mut [f32]; 1],
        flag: Option<&mut u32>,
        _: f32,
    ) -> ChunkWork {
        let s = self.0.structure();
        let before = SimdF32::<C>::load(&cur[i * C..]);
        let mut acc = before;
        let (col, mut index) = (s.col(), s.cs()[i]);
        for _ in 0..s.cl()[i] {
            let cols = SimdI32::<C>::load(&col[index..]);
            acc = acc.min(SimdF32::gather_or(cur, cols, f32::INFINITY));
            index += C;
        }
        acc.store(out);
        if let Some(f) = flag {
            *f = lanes_ne_bits::<C>(&cur[i * C..], out);
        }
        (acc.any_ne(before), u64::from(s.cl()[i]), s.chunk_arcs()[i], 0)
    }
}

/// Runs min-label propagation over the chunked structure, under the
/// process-default [`SweepConfig`].
///
/// # Panics
/// Panics if `n ≥ 2^24`: labels must be exact in `f32`.
pub fn connected_components<M, const C: usize>(matrix: &M) -> ComponentsOutput
where
    M: ChunkMatrix<C>,
{
    let s = matrix.structure();
    let n = s.n();
    assert!(n < (1 << 24), "labels exceed f32 exact-integer range (n = {n})");
    // Every vertex is the root of its own label.
    let roots: Vec<VertexId> = (0..n as VertexId).collect();
    let spec =
        RunSpec { config: SweepConfig::default(), mask: None, max_iterations: None, record: false };
    let (cur, (), stats, _) =
        sweep_loop(s, &mut MinLabel(matrix), &roots, &spec, |_| true, |_, _, _| {});

    let perm = s.perm();
    let label: Vec<VertexId> =
        (0..n).map(|old| cur[perm.to_new(old as VertexId) as usize] as VertexId - 1).collect();
    let mut distinct: Vec<VertexId> = label.clone();
    distinct.sort_unstable();
    distinct.dedup();
    ComponentsOutput { label, count: distinct.len(), iterations: stats.num_iterations(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SlimSellMatrix;
    use crate::sweep::SweepMode;
    use slimsell_gen::kronecker::{kronecker, KroneckerParams};
    use slimsell_graph::GraphBuilder;

    #[test]
    fn three_components() {
        let g = GraphBuilder::new(8).edges([(0, 1), (1, 2), (4, 5), (6, 7)]).build();
        let m = SlimSellMatrix::<4>::build(&g, 8);
        let out = connected_components(&m);
        assert_eq!(out.count, 4); // {0,1,2}, {3}, {4,5}, {6,7}
        assert_eq!(out.label[0], 0);
        assert_eq!(out.label[2], 0);
        assert_eq!(out.label[3], 3);
        assert_eq!(out.label[5], 4);
        assert_eq!(out.label[7], 6);
    }

    #[test]
    fn matches_union_find_count() {
        for seed in [1, 2, 3] {
            let g = kronecker(10, 2.0, KroneckerParams::GRAPH500, seed);
            let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
            let out = connected_components(&m);
            assert_eq!(out.count, slimsell_graph::stats::connected_components(&g), "seed {seed}");
        }
    }

    #[test]
    fn labels_constant_within_component() {
        let g = kronecker(9, 2.0, KroneckerParams::GRAPH500, 4);
        let m = SlimSellMatrix::<8>::build(&g, g.num_vertices());
        let out = connected_components(&m);
        for (u, v) in g.edges() {
            assert_eq!(out.label[u as usize], out.label[v as usize], "edge ({u},{v})");
        }
        // Each label is the minimum id of its component.
        for (v, &l) in out.label.iter().enumerate() {
            assert!(l as usize <= v);
            assert_eq!(out.label[l as usize], l, "label {l} must label itself");
        }
    }

    #[test]
    fn sigma_invariant() {
        let g = kronecker(9, 2.0, KroneckerParams::GRAPH500, 6);
        let a = connected_components(&SlimSellMatrix::<4>::build(&g, 1));
        let b = connected_components(&SlimSellMatrix::<4>::build(&g, g.num_vertices()));
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn path_takes_length_sweeps() {
        let n = 33;
        let g = GraphBuilder::new(n).edges((0..n as u32 - 1).map(|v| (v, v + 1))).build();
        let m = SlimSellMatrix::<4>::build(&g, n);
        let out = connected_components(&m);
        assert_eq!(out.count, 1);
        // Label 0 must walk the whole path: n-1 productive sweeps (+1),
        // in every sweep mode (CI runs each under `SLIMSELL_SWEEP`).
        assert_eq!(out.iterations, n);
        for it in &out.stats.iters {
            assert_eq!(it.cells, it.col_steps * 4);
        }
        // The settled head of the path drops off the worklist.
        if SweepMode::env_default().uses_worklist() {
            assert!(out.stats.total_not_on_worklist() > 0);
        }
    }
}
