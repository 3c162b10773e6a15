//! The chunked Sell layout shared by Sell-C-σ and SlimSell.
//!
//! Construction (§II-D2): rows are sorted by length in descending order
//! inside windows of σ consecutive rows ("σ ∈ [1, n] controls the sorting
//! scope; a larger σ entails more sorting"), grouped into chunks of `C`
//! rows, and each chunk is stored column-major so that `C` consecutive
//! SIMD lanes process `C` consecutive matrix rows. Rows are padded to the
//! longest row of their chunk; padding entries carry the marker `-1` in
//! `col` (§III-B).
//!
//! The whole matrix is permuted *symmetrically*: the σ-sort relabels
//! rows, and column indices are rewritten into the same permuted id
//! space, so the dense BFS vectors need no per-access translation. The
//! permutation is retained for mapping results back.

use rayon::prelude::*;
use slimsell_graph::{CsrGraph, Permutation, VertexId};

use crate::worklist::{ChunkDepGraph, ColumnSlab};

/// Chunked storage structure: everything except the `val` array.
#[derive(Clone, Debug)]
pub struct SellStructure<const C: usize> {
    n: usize,
    n_padded: usize,
    nc: usize,
    /// Chunk start offsets into `col` (the `cs` array), length `nc`.
    cs: Vec<usize>,
    /// Chunk lengths: the longest row of each chunk (the `cl` array).
    cl: Vec<u32>,
    /// Column indices in chunk-column-major order; `-1` marks padding.
    col: Vec<i32>,
    /// Row permutation produced by the σ-scoped sort.
    perm: Permutation,
    sigma: usize,
    /// Number of padding cells `P` in `col` (Table III).
    padding_cells: usize,
    /// Number of stored arcs (`2m`).
    arcs: usize,
    /// Stored arcs per chunk (non-padding cells), length `nc`; the
    /// per-chunk numerator of measured SIMD lane utilization.
    chunk_arcs: Vec<u64>,
    /// Materialized chunk dependency graph, built only on an explicit
    /// [`dep_graph`](Self::dep_graph) call. No kernel makes one: the
    /// worklist engine seeds from `col` itself.
    dep: std::sync::OnceLock<ChunkDepGraph>,
}

impl<const C: usize> SellStructure<C> {
    /// Builds the structure from an undirected graph with sorting scope
    /// `sigma ∈ [1, n]` (clamped; `sigma ≤ 1` means no sorting, `sigma ≥
    /// n` is the full sort of §IV's "σ = n").
    ///
    /// # Panics
    /// Panics if `C` is not one of [`slimsell_simd::SUPPORTED_LANES`]
    /// (4, 8, 16 or 32: every lane mask is a `u32`) or the graph is
    /// empty.
    pub fn build(g: &CsrGraph, sigma: usize) -> Self {
        assert!(
            slimsell_simd::SUPPORTED_LANES.contains(&C),
            "unsupported chunk height C={C} (supported lane counts: {:?})",
            slimsell_simd::SUPPORTED_LANES
        );
        let n = g.num_vertices();
        assert!(n > 0, "cannot build a Sell structure for an empty graph");
        let sigma = sigma.clamp(1, n);

        // σ-scoped sort: descending degree inside windows of σ original
        // rows; ties broken by original id for determinism.
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        if sigma > 1 {
            for window in order.chunks_mut(sigma) {
                window.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            }
        }
        let perm = Permutation::from_new_to_old(order);
        let pg = perm.apply_to_graph(g);

        let nc = n.div_ceil(C);
        let n_padded = nc * C;
        let mut cl = vec![0u32; nc];
        let mut chunk_arcs = vec![0u64; nc];
        for (i, (c, a)) in cl.iter_mut().zip(chunk_arcs.iter_mut()).enumerate() {
            let hi = ((i + 1) * C).min(n);
            *c = (i * C..hi).map(|r| pg.degree(r as VertexId) as u32).max().unwrap_or(0);
            *a = (i * C..hi).map(|r| pg.degree(r as VertexId) as u64).sum();
        }
        let mut cs = vec![0usize; nc];
        let mut total = 0usize;
        for (s, &l) in cs.iter_mut().zip(&cl) {
            *s = total;
            total += l as usize * C;
        }
        // Fill chunks in parallel: carve `col` into the per-chunk
        // (unequal-length) sub-slices so rayon can own them disjointly.
        // Build time matters (§IV-D amortization), so this pass is
        // parallel like the SpMV itself.
        let mut col = vec![-1i32; total];
        let mut chunk_slices: Vec<&mut [i32]> = Vec::with_capacity(nc);
        let mut rest: &mut [i32] = &mut col;
        for &len in cl.iter() {
            let (head, tail) = rest.split_at_mut(len as usize * C);
            chunk_slices.push(head);
            rest = tail;
        }
        chunk_slices.into_par_iter().enumerate().for_each(|(i, chunk)| {
            for lane in 0..C {
                let r = i * C + lane;
                if r >= n {
                    continue; // virtual padding row of the last chunk
                }
                for (j, &w) in pg.neighbors(r as VertexId).iter().enumerate() {
                    chunk[j * C + lane] = w as i32;
                }
            }
        });
        let arcs = pg.num_arcs();
        let padding_cells = total - arcs;
        let dep = std::sync::OnceLock::new();
        Self { n, n_padded, nc, cs, cl, col, perm, sigma, padding_cells, arcs, chunk_arcs, dep }
    }

    /// Number of (real) rows = vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows rounded up to a multiple of `C` (dense-vector length).
    #[inline]
    pub fn n_padded(&self) -> usize {
        self.n_padded
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.nc
    }

    /// Chunk start offsets (`cs`).
    #[inline]
    pub fn cs(&self) -> &[usize] {
        &self.cs
    }

    /// Chunk lengths (`cl`).
    #[inline]
    pub fn cl(&self) -> &[u32] {
        &self.cl
    }

    /// Column array with `-1` padding markers.
    #[inline]
    pub fn col(&self) -> &[i32] {
        &self.col
    }

    /// The row permutation (new = permuted/sorted ids, old = original).
    #[inline]
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// The sorting scope this structure was built with.
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of padding cells `P` (Table III).
    #[inline]
    pub fn padding_cells(&self) -> usize {
        self.padding_cells
    }

    /// Number of stored arcs (`2m`).
    #[inline]
    pub fn arcs(&self) -> usize {
        self.arcs
    }

    /// Stored arcs (non-padding cells) per chunk; sums to [`arcs`].
    /// Feeds the engines' `active_cells` counter — processing chunk `i`
    /// touches `C · cl[i]` cells of which `chunk_arcs[i]` are real.
    ///
    /// [`arcs`]: Self::arcs
    #[inline]
    pub fn chunk_arcs(&self) -> &[u64] {
        &self.chunk_arcs
    }

    /// The column slab the worklist engine seeds from and the adaptive
    /// gate prices seeds in (see [`crate::worklist`]).
    #[inline]
    pub fn column_slab(&self) -> ColumnSlab<'_> {
        ColumnSlab { cs: &self.cs, cl: &self.cl, col: &self.col, lanes: C }
    }

    /// The materialized chunk dependency graph: for each chunk `j`, the
    /// chunks that gather from `j`'s row range (plus `j` itself).
    /// Computed once per structure on first call and kept. Kernels never
    /// call this — they read the same relation off
    /// [`column_slab`](Self::column_slab) — so it only costs time and
    /// memory when a caller asks to inspect or measure it.
    #[inline]
    pub fn dep_graph(&self) -> &ChunkDepGraph {
        self.dep.get_or_init(|| ChunkDepGraph::build(self.nc, &self.cs, &self.cl, &self.col, C))
    }

    /// Total `col` cells (`2m + P`) — also the per-SpMV work in cells
    /// (§III-B: "the size of val in SlimSell and Sell-C-σ (= 2m + P) is
    /// equal to the amount of work W of a single SpMV product").
    #[inline]
    pub fn total_cells(&self) -> usize {
        self.col.len()
    }

    /// Iterates the stored neighbors of permuted row `r` (strided access
    /// across the chunk; stops at the first padding marker, which is
    /// always at the row's tail). Used by the sparse top-down steps of
    /// the direction-optimized BFS.
    #[inline]
    pub fn row_neighbors(&self, r: usize) -> impl Iterator<Item = u32> + '_ {
        let i = r / C;
        let lane = r % C;
        let base = self.cs[i] + lane;
        (0..self.cl[i] as usize)
            .map(move |j| self.col[base + j * C])
            .take_while(|&c| c >= 0)
            .map(|c| c as u32)
    }

    /// Length (degree) of permuted row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row_neighbors(r).count()
    }

    /// Cross-checks the structure against its source graph; used by
    /// property tests.
    pub fn verify_against(&self, g: &CsrGraph) -> Result<(), String> {
        if g.num_vertices() != self.n {
            return Err("vertex count mismatch".into());
        }
        for old in 0..self.n {
            let new = self.perm.to_new(old as VertexId) as usize;
            let mut stored: Vec<VertexId> =
                self.row_neighbors(new).map(|w| self.perm.to_old(w)).collect();
            stored.sort_unstable();
            if stored != g.neighbors(old as VertexId) {
                return Err(format!(
                    "row {old}: stored {stored:?} != graph {:?}",
                    g.neighbors(old as VertexId)
                ));
            }
        }
        if self.col.len() != self.arcs + self.padding_cells {
            return Err("padding accounting broken".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::GraphBuilder;

    fn star_plus_path() -> CsrGraph {
        // vertex 0 has degree 5; 6-7-8 path; 9 isolated
        GraphBuilder::new(10)
            .edges([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (7, 8)])
            .build()
    }

    #[test]
    fn build_basic_counts() {
        let g = star_plus_path();
        let s = SellStructure::<4>::build(&g, 1);
        assert_eq!(s.n(), 10);
        assert_eq!(s.num_chunks(), 3);
        assert_eq!(s.n_padded(), 12);
        assert_eq!(s.arcs(), 2 * g.num_edges());
        s.verify_against(&g).unwrap();
    }

    #[test]
    fn full_sort_puts_high_degree_first() {
        let g = star_plus_path();
        let s = SellStructure::<4>::build(&g, 10);
        // Row 0 after full sort must be the max-degree vertex (vertex 0).
        assert_eq!(s.perm().to_old(0), 0);
        assert_eq!(s.row_len(0), 5);
        s.verify_against(&g).unwrap();
    }

    #[test]
    fn sorting_reduces_padding() {
        // Degrees alternate high/low: sorting groups them, cutting padding.
        let mut b = GraphBuilder::new(64);
        for v in 0..32u32 {
            // even vertices get high degree
            for k in 1..=8u32 {
                b.edge(2 * v, (2 * v + k) % 64);
            }
        }
        let g = b.build();
        let unsorted = SellStructure::<8>::build(&g, 1);
        let sorted = SellStructure::<8>::build(&g, 64);
        assert!(
            sorted.padding_cells() < unsorted.padding_cells(),
            "sorted P {} !< unsorted P {}",
            sorted.padding_cells(),
            unsorted.padding_cells()
        );
        sorted.verify_against(&g).unwrap();
        unsorted.verify_against(&g).unwrap();
    }

    #[test]
    fn sigma_one_is_identity_permutation() {
        let g = star_plus_path();
        let s = SellStructure::<4>::build(&g, 1);
        assert!(s.perm().is_identity());
    }

    #[test]
    fn cl_is_max_row_in_chunk() {
        let g = star_plus_path();
        let s = SellStructure::<4>::build(&g, 1);
        // chunk 0 holds rows 0..4 (degrees 5,1,1,1) -> cl = 5
        assert_eq!(s.cl()[0], 5);
    }

    #[test]
    fn row_neighbors_match_graph() {
        let g = star_plus_path();
        for sigma in [1, 4, 10] {
            let s = SellStructure::<4>::build(&g, sigma);
            for old in 0..10u32 {
                let new = s.perm().to_new(old) as usize;
                let mut got: Vec<u32> = s.row_neighbors(new).map(|w| s.perm().to_old(w)).collect();
                got.sort_unstable();
                assert_eq!(got, g.neighbors(old), "sigma {sigma} vertex {old}");
            }
        }
    }

    #[test]
    fn n_not_multiple_of_c() {
        let g = GraphBuilder::new(5).edges([(0, 1), (2, 3), (3, 4)]).build();
        let s = SellStructure::<4>::build(&g, 5);
        assert_eq!(s.num_chunks(), 2);
        assert_eq!(s.n_padded(), 8);
        s.verify_against(&g).unwrap();
    }

    #[test]
    fn chunk_arcs_count_non_padding_cells() {
        let g = star_plus_path();
        for sigma in [1, 10] {
            let s = SellStructure::<4>::build(&g, sigma);
            assert_eq!(s.chunk_arcs().iter().sum::<u64>(), s.arcs() as u64);
            for i in 0..s.num_chunks() {
                let lo = s.cs()[i];
                let hi = lo + s.cl()[i] as usize * 4;
                let stored = s.col()[lo..hi].iter().filter(|&&c| c >= 0).count() as u64;
                assert_eq!(s.chunk_arcs()[i], stored, "chunk {i} sigma {sigma}");
            }
        }
    }

    #[test]
    fn total_cells_is_arcs_plus_padding() {
        let g = star_plus_path();
        let s = SellStructure::<8>::build(&g, 10);
        assert_eq!(s.total_cells(), s.arcs() + s.padding_cells());
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_rejected() {
        let g = GraphBuilder::new(0).build();
        SellStructure::<4>::build(&g, 1);
    }

    #[test]
    fn isolated_vertices_have_empty_rows() {
        let g = GraphBuilder::new(8).edges([(0, 1)]).build();
        let s = SellStructure::<4>::build(&g, 1);
        assert_eq!(s.row_len(s.perm().to_new(5) as usize), 0);
    }

    #[test]
    fn no_kernel_builds_the_dependency_graph() {
        // The first-query cliff was the lazy dependency-graph build
        // inside the first worklist sweep. Every kernel now seeds from
        // the column slab, so running all of them, in every sweep mode
        // that seeds, must leave the structure's graph unbuilt. (The
        // weighted matrix used by SSSP has no graph left to build.)
        use crate::matrix::{ChunkMatrix, SlimSellMatrix};
        use crate::sweep::SweepMode;
        use crate::{
            multi_bfs_with, pagerank, run_descriptor, sssp_with, BfsEngine, BfsOptions, Descriptor,
            MsBfsOptions, PageRankOptions, SsspOptions, TropicalSemiring, WeightedSellCSigma,
        };
        use slimsell_graph::weighted::synthetic_weighted_twin;
        // A path feeding a star: wavefront iterations, then a flood.
        let g = GraphBuilder::new(96)
            .edges((0..24u32).map(|v| (v, v + 1)).chain((25..96).map(|w| (24, w))))
            .build();
        let m = SlimSellMatrix::<4>::build(&g, 96);
        let w = WeightedSellCSigma::<4>::build(&synthetic_weighted_twin(&g), 96);
        for sweep in [SweepMode::Worklist, SweepMode::Adaptive] {
            let bfs = BfsOptions::default().sweep(sweep);
            BfsEngine::run::<_, TropicalSemiring, 4>(&m, 0, &bfs);
            sssp_with(&w, 0, &SsspOptions::default().sweep(sweep));
            multi_bfs_with::<_, 4, 2>(&m, &[0, 50], &MsBfsOptions::default().sweep(sweep));
            pagerank(&m, &PageRankOptions::default().sweep(sweep));
            run_descriptor(&m, 0, &Descriptor::default().sweep(sweep));
        }
        assert!(m.structure().dep.get().is_none(), "a kernel built the dependency graph");
        // An explicit request still builds (and keeps) it.
        m.structure().dep_graph();
        assert!(m.structure().dep.get().is_some());
    }
}
