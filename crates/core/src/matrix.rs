//! The two matrix representations: Sell-C-σ and SlimSell.
//!
//! Both share the chunked [`SellStructure`]; they differ only in where
//! the semiring values come from during the inner loop:
//!
//! * [`SellCSigma`] stores an explicit `val` array (Listing 5, line 7:
//!   `V vals = LOAD(&val[index])`) — `1` for edges, the semiring-specific
//!   padding value (`∞` tropical / `0` others) for padding cells.
//! * [`SlimSellMatrix`] stores no `val` at all and derives it from the
//!   column indices with a compare + blend (Listing 6, lines 10–12),
//!   halving the matrix storage (§III-B).

use slimsell_graph::CsrGraph;
use slimsell_simd::{SimdF32, SimdI32};

use crate::structure::SellStructure;

/// Which representation a matrix is — used in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Representation {
    /// Sell-C-σ with an explicit `val` array.
    SellCSigma,
    /// SlimSell: `val` derived from `col`.
    SlimSell,
}

/// A chunked matrix the BFS-SpMV kernels can run over.
pub trait ChunkMatrix<const C: usize>: Send + Sync {
    /// The underlying chunk structure.
    fn structure(&self) -> &SellStructure<C>;

    /// Produces the `vals` vector for the column step starting at
    /// `index` in the `col` array. `cols` are the already-loaded column
    /// indices of this step; `pad` is the semiring's padding value.
    fn vals(&self, index: usize, cols: SimdI32<C>, pad: f32) -> SimdF32<C>;

    /// Which representation this is.
    fn representation(&self) -> Representation;

    /// Total storage in 4-byte cells (Table III accounting).
    fn storage_cells(&self) -> usize;
}

/// Sell-C-σ (§II-D2): chunked storage with an explicit `val` array.
#[derive(Clone, Debug)]
pub struct SellCSigma<const C: usize> {
    structure: SellStructure<C>,
    /// Semiring values: `1.0` for edges, `pad` for padding cells.
    val: Vec<f32>,
    /// The padding value `val` was built with (must match the semiring
    /// used at run time; checked in debug builds).
    pad: f32,
}

impl<const C: usize> SellCSigma<C> {
    /// Builds Sell-C-σ for a given sorting scope and semiring padding
    /// value (`S::PAD` of the semiring the BFS will run with).
    pub fn build(g: &CsrGraph, sigma: usize, pad: f32) -> Self {
        let structure = SellStructure::build(g, sigma);
        Self::from_structure(structure, pad)
    }

    /// Builds from an existing structure (shared with a SlimSell build).
    pub fn from_structure(structure: SellStructure<C>, pad: f32) -> Self {
        let val = structure.col().iter().map(|&c| if c >= 0 { 1.0 } else { pad }).collect();
        Self { structure, val, pad }
    }

    /// Wraps a structure with a value slab laid out like its `col`
    /// (the weighted build of [`mod@crate::sssp`]).
    pub(crate) fn from_parts(structure: SellStructure<C>, val: Vec<f32>, pad: f32) -> Self {
        debug_assert_eq!(val.len(), structure.total_cells());
        Self { structure, val, pad }
    }

    /// The explicit value array.
    pub fn val(&self) -> &[f32] {
        &self.val
    }

    /// Padding value the `val` array encodes.
    pub fn pad(&self) -> f32 {
        self.pad
    }
}

impl<const C: usize> ChunkMatrix<C> for SellCSigma<C> {
    #[inline]
    fn structure(&self) -> &SellStructure<C> {
        &self.structure
    }

    #[inline(always)]
    fn vals(&self, index: usize, _cols: SimdI32<C>, pad: f32) -> SimdF32<C> {
        debug_assert_eq!(
            pad.to_bits(),
            self.pad.to_bits(),
            "Sell-C-σ built for a different semiring"
        );
        SimdF32::load(&self.val[index..])
    }

    fn representation(&self) -> Representation {
        Representation::SellCSigma
    }

    /// `val + col + cs + cl` = `2(2m + P) + 2⌈n/C⌉` cells.
    fn storage_cells(&self) -> usize {
        self.val.len()
            + self.structure.col().len()
            + self.structure.cs().len()
            + self.structure.cl().len()
    }
}

/// SlimSell (§III-B): no `val` array; values derived from `col`.
#[derive(Clone, Debug)]
pub struct SlimSellMatrix<const C: usize> {
    structure: SellStructure<C>,
}

impl<const C: usize> SlimSellMatrix<C> {
    /// Builds SlimSell for a given sorting scope.
    pub fn build(g: &CsrGraph, sigma: usize) -> Self {
        Self { structure: SellStructure::build(g, sigma) }
    }

    /// Wraps an existing structure.
    pub fn from_structure(structure: SellStructure<C>) -> Self {
        Self { structure }
    }
}

impl<const C: usize> ChunkMatrix<C> for SlimSellMatrix<C> {
    #[inline]
    fn structure(&self) -> &SellStructure<C> {
        &self.structure
    }

    /// Listing 6 lines 10–12: mask = CMP(cols, −1, EQ); vals =
    /// BLEND(ones, pad, mask).
    #[inline(always)]
    fn vals(&self, _index: usize, cols: SimdI32<C>, pad: f32) -> SimdF32<C> {
        let mask = cols.cmp_eq_mask(SimdI32::minus_ones());
        SimdF32::blend(SimdF32::one(), SimdF32::splat(pad), mask)
    }

    fn representation(&self) -> Representation {
        Representation::SlimSell
    }

    /// `col + cs + cl` = `2m + P + 2⌈n/C⌉` cells.
    fn storage_cells(&self) -> usize {
        self.structure.col().len() + self.structure.cs().len() + self.structure.cl().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::GraphBuilder;

    fn g() -> CsrGraph {
        GraphBuilder::new(6).edges([(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]).build()
    }

    #[test]
    fn vals_agree_between_representations() {
        let g = g();
        for pad in [f32::INFINITY, 0.0] {
            let sell = SellCSigma::<4>::build(&g, 6, pad);
            let slim = SlimSellMatrix::<4>::build(&g, 6);
            let s = sell.structure();
            for i in 0..s.num_chunks() {
                let mut index = s.cs()[i];
                for _ in 0..s.cl()[i] {
                    let cols = SimdI32::<4>::load(&s.col()[index..]);
                    let a = sell.vals(index, cols, pad);
                    let b = slim.vals(index, cols, pad);
                    assert_eq!(
                        a.0.map(f32::to_bits),
                        b.0.map(f32::to_bits),
                        "chunk {i} index {index}"
                    );
                    index += 4;
                }
            }
        }
    }

    #[test]
    fn slimsell_is_smaller() {
        let g = g();
        let sell = SellCSigma::<4>::build(&g, 6, 0.0);
        let slim = SlimSellMatrix::<4>::build(&g, 6);
        assert!(slim.storage_cells() < sell.storage_cells());
        // Exactly the val array is saved.
        assert_eq!(sell.storage_cells() - slim.storage_cells(), sell.val().len());
    }

    #[test]
    fn storage_formulas() {
        let g = g();
        let (m, n) = (g.num_edges(), g.num_vertices());
        let slim = SlimSellMatrix::<4>::build(&g, 6);
        let p = slim.structure().padding_cells();
        let nc = n.div_ceil(4);
        assert_eq!(slim.storage_cells(), 2 * m + p + 2 * nc);
        let sell = SellCSigma::<4>::build(&g, 6, 0.0);
        assert_eq!(sell.storage_cells(), 2 * (2 * m + p) + 2 * nc);
    }

    #[test]
    fn val_encodes_edges_as_one() {
        let g = g();
        let sell = SellCSigma::<4>::build(&g, 1, f32::INFINITY);
        for (i, &c) in sell.structure().col().iter().enumerate() {
            if c >= 0 {
                assert_eq!(sell.val()[i], 1.0);
            } else {
                assert!(sell.val()[i].is_infinite());
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported chunk height C=64")]
    fn chunk_height_beyond_lane_mask_width_rejected() {
        // Lane masks are `u32`: C = 64 must fail at build, not at the
        // first worklist sweep.
        SlimSellMatrix::<64>::build(&g(), 6);
    }

    #[test]
    #[should_panic(expected = "unsupported chunk height C=64")]
    fn weighted_chunk_height_beyond_lane_mask_width_rejected() {
        // The weighted matrix is built on the same structure, so it
        // inherits the check instead of wrapping `1u32 << lane`.
        let wg = slimsell_graph::weighted::synthetic_weighted_twin(&g());
        crate::WeightedSellCSigma::<64>::build(&wg, 6);
    }
}
