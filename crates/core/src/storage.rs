//! Storage accounting for Table III and the Figure 7 analyses.
//!
//! All representations are measured in 4-byte *cells*, the unit of the
//! paper's Table III:
//!
//! | representation | cells |
//! |---|---|
//! | Sell-C-σ  | `2(2m + P) + 2⌈n/C⌉` |
//! | CSR (matrix) | `4m + n` |
//! | AL | `2m + n` |
//! | SlimSell | `2m + P + 2⌈n/C⌉` |
//!
//! Note: the paper's table prints Sell-C-σ as `4m + 2n/C + P`, counting
//! the padding once even though padding occupies a cell in *both* `val`
//! and `col`; we report the actual cell counts (`2P`). The SlimSell < AL
//! condition, Eq. (3), is unaffected.

use slimsell_graph::CsrGraph;

use crate::structure::SellStructure;

/// Measured storage (in cells) of every representation for one graph at
/// one (C, σ) configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageComparison {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Chunk height used.
    pub c: usize,
    /// Sorting scope used.
    pub sigma: usize,
    /// Padding cells `P` of the Sell structure.
    pub padding: usize,
    /// Adjacency-list cells (`2m + n`).
    pub al: usize,
    /// CSR adjacency-matrix cells (`4m + n`).
    pub csr: usize,
    /// Sell-C-σ cells.
    pub sell_c_sigma: usize,
    /// SlimSell cells.
    pub slimsell: usize,
}

impl StorageComparison {
    /// Measures all representations for `g` at chunk height `C` and
    /// sorting scope `sigma`.
    pub fn measure<const C: usize>(g: &CsrGraph, sigma: usize) -> Self {
        let s = SellStructure::<C>::build(g, sigma);
        Self::from_structure(g, &s)
    }

    /// Measures using an already-built structure.
    pub fn from_structure<const C: usize>(g: &CsrGraph, s: &SellStructure<C>) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        let nc = s.num_chunks();
        let p = s.padding_cells();
        Self {
            n,
            m,
            c: C,
            sigma: s.sigma(),
            padding: p,
            al: 2 * m + n,
            csr: 4 * m + n,
            sell_c_sigma: 2 * (2 * m + p) + 2 * nc,
            slimsell: 2 * m + p + 2 * nc,
        }
    }

    /// SlimSell size relative to Sell-C-σ (the ≈0.5 of §IV-E).
    pub fn slim_vs_sell(&self) -> f64 {
        self.slimsell as f64 / self.sell_c_sigma as f64
    }

    /// SlimSell size relative to AL (the ≈0.9–1.0 of Fig. 7).
    pub fn slim_vs_al(&self) -> f64 {
        self.slimsell as f64 / self.al as f64
    }

    /// Eq. (3): SlimSell beats AL iff `P < n(1 − 2/C)`.
    pub fn eq3_predicts_slim_smaller_than_al(&self) -> bool {
        // Compare in integer form to avoid float slop: P + 2n/C < n.
        (self.padding as f64) < self.n as f64 * (1.0 - 2.0 / self.c as f64)
    }

    /// Bytes (4 bytes per cell) for absolute-size plots.
    pub fn slimsell_bytes(&self) -> usize {
        self.slimsell * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::GraphBuilder;

    fn skewed() -> CsrGraph {
        let mut b = GraphBuilder::new(32);
        for v in 1..20u32 {
            b.edge(0, v);
        }
        for v in 20..31u32 {
            b.edge(v, v + 1);
        }
        b.build()
    }

    #[test]
    fn measured_matches_actual_structures() {
        use crate::matrix::ChunkMatrix;
        let g = skewed();
        for sigma in [1, 8, 32] {
            let cmp = StorageComparison::measure::<8>(&g, sigma);
            let slim = crate::matrix::SlimSellMatrix::<8>::build(&g, sigma);
            let sell = crate::matrix::SellCSigma::<8>::build(&g, sigma, 0.0);
            assert_eq!(cmp.slimsell, slim.storage_cells());
            assert_eq!(cmp.sell_c_sigma, sell.storage_cells());
        }
    }

    #[test]
    fn slimsell_roughly_halves_sell() {
        let g = skewed();
        let cmp = StorageComparison::measure::<8>(&g, 32);
        assert!(cmp.slim_vs_sell() < 0.6, "ratio {}", cmp.slim_vs_sell());
    }

    #[test]
    fn sorting_improves_slim_vs_al() {
        let g = skewed();
        let unsorted = StorageComparison::measure::<8>(&g, 1);
        let sorted = StorageComparison::measure::<8>(&g, 32);
        assert!(sorted.padding <= unsorted.padding);
        assert!(sorted.slim_vs_al() <= unsorted.slim_vs_al());
    }

    #[test]
    fn eq3_consistency() {
        let g = skewed();
        let cmp = StorageComparison::measure::<8>(&g, 32);
        // Eq. (3) prediction must agree with the direct comparison up to
        // the 2⌈n/C⌉ ≈ 2n/C approximation; verify the exact inequality.
        let exact = cmp.slimsell < cmp.al;
        let predicted = cmp.eq3_predicts_slim_smaller_than_al();
        // With n a multiple of C the two coincide exactly.
        assert_eq!(exact, predicted);
    }

    #[test]
    fn table3_formulas() {
        let g = skewed();
        let (n, m) = (g.num_vertices(), g.num_edges());
        let cmp = StorageComparison::measure::<8>(&g, 32);
        assert_eq!(cmp.al, 2 * m + n);
        assert_eq!(cmp.csr, 4 * m + n);
    }
}
