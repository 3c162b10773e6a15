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
    /// (4, 8, 16 or 32: every lane mask is a `u32`), the graph is
    /// empty, or its rows padded to whole chunks exceed `i32::MAX`
    /// (column ids are `i32`).
    pub fn build(g: &CsrGraph, sigma: usize) -> Self {
        Self::build_with_weights(g, sigma, None).0
    }

    /// [`build`](Self::build), plus — when `weights` (one per arc of
    /// `g`, in its CSR order) is given — a `val` slab laid out like
    /// `col`, with `+∞` in padding cells (the weighted Sell-C-σ of
    /// [`mod@crate::sssp`]). Without weights the slab is empty.
    ///
    /// The fill is one sequential transpose pass over `g` in σ-sorted
    /// order: source rows `u'` are visited in ascending new id and `u'`
    /// is appended at the next free step of each neighbour's row. Every
    /// `CsrGraph` is symmetric, so row `r` receives exactly its own
    /// neighbours, in ascending new id — the layout a per-row sort of
    /// the permuted graph would give, without materializing it.
    pub(crate) fn build_with_weights(
        g: &CsrGraph,
        sigma: usize,
        weights: Option<&[f32]>,
    ) -> (Self, Vec<f32>) {
        assert!(
            slimsell_simd::SUPPORTED_LANES.contains(&C),
            "unsupported chunk height C={C} (supported lane counts: {:?})",
            slimsell_simd::SUPPORTED_LANES
        );
        let n = g.num_vertices();
        assert!(n > 0, "cannot build a Sell structure for an empty graph");
        let n_padded = padded_rows(n, C).unwrap_or_else(|| {
            panic!("{n} vertices pad past the i32 column-id limit of {} rows", i32::MAX)
        });
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
        let degree = |r: usize| g.degree(perm.to_old(r as VertexId));

        let nc = n_padded / C;
        let mut cl = vec![0u32; nc];
        let mut chunk_arcs = vec![0u64; nc];
        for (i, (c, a)) in cl.iter_mut().zip(chunk_arcs.iter_mut()).enumerate() {
            let hi = ((i + 1) * C).min(n);
            *c = (i * C..hi).map(|r| degree(r) as u32).max().unwrap_or(0);
            *a = (i * C..hi).map(|r| degree(r) as u64).sum();
        }
        let mut cs = vec![0usize; nc];
        let mut total = 0usize;
        for (s, &l) in cs.iter_mut().zip(&cl) {
            *s = total;
            total += l as usize * C;
        }
        // `next[r]`: the cell of row r's next free step.
        let mut next: Vec<usize> = (0..n).map(|r| cs[r / C] + r % C).collect();
        let mut col = vec![-1i32; total];
        let mut val = if weights.is_some() { vec![f32::INFINITY; total] } else { Vec::new() };
        let row_ptr = g.row_ptr();
        for u_new in 0..n {
            let u = perm.to_old(u_new as VertexId);
            let arc0 = row_ptr[u as usize] as usize;
            for (k, &w) in g.neighbors(u).iter().enumerate() {
                let r = perm.to_new(w) as usize;
                let cell = next[r];
                next[r] += C;
                col[cell] = u_new as i32;
                if let Some(wt) = weights {
                    val[cell] = wt[arc0 + k];
                }
            }
        }
        let arcs = g.num_arcs();
        let padding_cells = total - arcs;
        let dep = std::sync::OnceLock::new();
        let s = Self {
            n,
            n_padded,
            nc,
            cs,
            cl,
            col,
            perm,
            sigma,
            padding_cells,
            arcs,
            chunk_arcs,
            dep,
        };
        (s, val)
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

    /// Cross-checks the structure against its source graph; used by
    /// property tests.
    pub fn verify_against(&self, g: &CsrGraph) -> Result<(), String> {
        if g.num_vertices() != self.n {
            return Err("vertex count mismatch".into());
        }
        for old in 0..self.n {
            let new = self.perm.to_new(old as VertexId) as usize;
            let mut stored: Vec<VertexId> = Vec::new();
            self.column_slab().for_each_neighbor(new / C, 1 << (new % C), |w| {
                stored.push(self.perm.to_old(w as VertexId));
            });
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

/// `n` rows padded to whole chunks of `lanes`, or `None` when the
/// padded row ids do not fit the `i32` column ids of `col` (`-1` marks
/// padding, so ids run `0..=i32::MAX - 1`).
fn padded_rows(n: usize, lanes: usize) -> Option<usize> {
    n.checked_next_multiple_of(lanes).filter(|&p| p <= i32::MAX as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::GraphBuilder;

    #[test]
    fn padded_rows_stop_at_the_i32_column_id_limit() {
        assert_eq!(padded_rows(10, 4), Some(12));
        assert_eq!(padded_rows(8, 8), Some(8));
        let max = i32::MAX as usize;
        // The last whole chunk below 2^31 fits; one more row pads past it.
        assert_eq!(padded_rows(max - 7, 8), Some(max - 7));
        assert_eq!(padded_rows(max - 6, 8), None);
        assert_eq!(padded_rows(max, 4), None);
        assert_eq!(padded_rows(max + 1, 4), None);
        assert_eq!(padded_rows(usize::MAX, 32), None);
    }

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
        assert_eq!(row(&s, 0).len(), 5);
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

    /// The stored columns of permuted row `r`, through the one-lane walk.
    fn row<const C: usize>(s: &SellStructure<C>, r: usize) -> Vec<usize> {
        let mut out = Vec::new();
        s.column_slab().for_each_neighbor(r / C, 1 << (r % C), |w| out.push(w));
        out
    }

    #[test]
    fn column_walk_reads_rows_and_their_unions() {
        let g = star_plus_path();
        for sigma in [1, 4, 10] {
            let s = SellStructure::<4>::build(&g, sigma);
            let to_old = |w: usize| s.perm().to_old(w as VertexId);
            // One lane: exactly the row's adjacency, padding excluded.
            for old in 0..10u32 {
                let mut got: Vec<u32> =
                    row(&s, s.perm().to_new(old) as usize).into_iter().map(to_old).collect();
                got.sort_unstable();
                assert_eq!(got, g.neighbors(old), "sigma {sigma} vertex {old}");
            }
            // Several lanes: the union (as a multiset) of their rows.
            for j in 0..s.num_chunks() {
                for lanes in [0b0011u32, 0b0101, 0b1110, 0b1111] {
                    let mut got = Vec::new();
                    s.column_slab().for_each_neighbor(j, lanes, |w| got.push(w));
                    let mut want: Vec<usize> = (0..4)
                        .filter(|&l| lanes & (1 << l) != 0)
                        .flat_map(|l| row(&s, j * 4 + l))
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "sigma {sigma} chunk {j} lanes {lanes:#b}");
                }
                // Zero lanes visit nothing.
                s.column_slab().for_each_neighbor(j, 0, |_| panic!("zero lanes visited a cell"));
            }
        }
    }

    #[test]
    fn column_walk_drops_a_lane_at_its_first_padding_cell() {
        // Two lanes, three steps: lane 0 is `5, pad, 8`, lane 1 is
        // `6, 7, 9`. The cell after lane 0's padding is never read.
        let (cs, cl, col) = (vec![0], vec![3], vec![5, 6, -1, 7, 8, 9]);
        let slab = ColumnSlab { cs: &cs, cl: &cl, col: &col, lanes: 2 };
        let walk = |lanes: u32| {
            let mut out = Vec::new();
            slab.for_each_neighbor(0, lanes, |w| out.push(w));
            out
        };
        assert_eq!(walk(0b01), [5]);
        assert_eq!(walk(0b10), [6, 7, 9]);
        // Step-major: step k of every live lane before step k + 1.
        assert_eq!(walk(0b11), [5, 6, 7, 9]);
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
        assert!(row(&s, s.perm().to_new(5) as usize).is_empty());
    }

    #[test]
    fn no_kernel_builds_the_dependency_graph() {
        // The first-query cliff was the lazy dependency-graph build
        // inside the first worklist sweep. Every kernel now seeds from
        // the column slab, so running all of them, in every sweep mode
        // that seeds, must leave the structure's graph unbuilt — the
        // weighted matrix SSSP runs on included.
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
        assert!(w.structure().dep.get().is_none(), "SSSP built the dependency graph");
        // An explicit request still builds (and keeps) it.
        m.structure().dep_graph();
        assert!(m.structure().dep.get().is_some());
    }
}
