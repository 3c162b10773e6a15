//! Vertex masks over the C-lane chunk layout — the set type behind
//! masked semiring sweeps and descriptors.
//!
//! GraphBLAS-style engines express every traversal as a matrix–vector
//! product under a (possibly complemented) mask; SlimSell's chunked
//! layout makes the natural mask granularity one `u32` of lane bits
//! per chunk, the same currency as the PR-4/PR-7 worklist machinery
//! (changed-lane masks, per-edge source-lane masks). A [`VertexMask`]
//! is exactly that: a dense bitset with one word per chunk, indexed by
//! *permuted* vertex id, so the kernels can
//!
//! * skip a fully masked chunk with a single `u32` test — before the
//!   SlimWork probe, and (via
//!   [`ActivationState::seed`](crate::worklist::ActivationState::seed))
//!   before any activation probe is paid;
//! * intersect the mask with a chunk's changed-lane word with one AND
//!   ([`VertexMask::and_lanes`]);
//! * blend a partially masked chunk's freshly computed lanes back to
//!   their previous values, which for every shipped semiring is
//!   bit-for-bit "this lane did not run" (see the masked-sweep notes
//!   in ARCHITECTURE.md).
//!
//! Two invariants keep the hot-path tests branch-free:
//!
//! * **Padding lanes are always set.** The virtual rows `n..n_padded`
//!   exist only to square off the last chunk; their semiring state is
//!   initialized "finished" and never changes, so allowing them costs
//!   nothing — and `allowed == full_lane_mask(C)` then means "this
//!   chunk runs the exact unmasked path".
//! * **The selected-vertex count is popcount-tracked.** Every update
//!   maintains [`VertexMask::len`] incrementally, so the push↔pull
//!   style size heuristics read it in O(1).
//!
//! Masks address the permuted id space (the space the dense state
//! vectors live in). Build them from original graph ids with
//! [`VertexMask::from_original`], which routes through the structure's
//! σ-sort [`Permutation`](slimsell_graph::Permutation).

use crate::structure::SellStructure;
use crate::worklist::full_lane_mask;
use slimsell_graph::VertexId;

/// A set of vertices in the permuted id space, stored as one
/// allowed-lane `u32` per chunk (bit `l` of word `i` ⇔ permuted vertex
/// `i·C + l` is in the set). Padding lanes (`n..n_padded`) are always
/// set — see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexMask {
    /// Real vertices covered (the structure's `n`).
    n: usize,
    /// Chunk height `C` (≤ 32, matching the lane-mask width).
    lanes: usize,
    /// Allowed-lane word per chunk, padding bits set.
    allowed: Vec<u32>,
    /// Number of selected *real* vertices, maintained incrementally.
    ones: usize,
}

impl VertexMask {
    fn layout(n: usize, lanes: usize) -> usize {
        assert!(n > 0, "mask over an empty vertex set");
        assert!(
            (1..=32).contains(&lanes),
            "chunk height {lanes} outside the 32-bit lane-mask width"
        );
        n.div_ceil(lanes)
    }

    /// Lane bits of chunk `i` that are real rows (not padding).
    #[inline]
    fn real(&self, i: usize) -> u32 {
        let lo = i * self.lanes;
        let hi = self.n.min(lo + self.lanes);
        if hi <= lo {
            0
        } else {
            full_lane_mask(hi - lo)
        }
    }

    /// Padding lane bits of chunk `i` (complement of [`Self::real`]
    /// within the chunk height).
    #[inline]
    fn pad(&self, i: usize) -> u32 {
        full_lane_mask(self.lanes) & !self.real(i)
    }

    /// The empty set: no real vertex selected (padding lanes set, per
    /// the invariant). `n` is the real vertex count, `lanes` the chunk
    /// height `C`.
    pub fn empty(n: usize, lanes: usize) -> Self {
        let nc = Self::layout(n, lanes);
        let mut m = Self { n, lanes, allowed: vec![0; nc], ones: 0 };
        for i in 0..nc {
            m.allowed[i] = m.pad(i);
        }
        m
    }

    /// The full set: every real vertex selected. A full mask makes
    /// every kernel take its exact unmasked path (each chunk's word is
    /// all-ones), so "full mask ≡ no mask" holds bit-for-bit including
    /// counters.
    pub fn full(n: usize, lanes: usize) -> Self {
        let nc = Self::layout(n, lanes);
        Self { n, lanes, allowed: vec![full_lane_mask(lanes); nc], ones: n }
    }

    /// The structural view of `s`: every real vertex of the structure,
    /// sized to its chunk layout ([`Self::full`] with `s`'s
    /// dimensions).
    pub fn structural<const C: usize>(s: &SellStructure<C>) -> Self {
        Self::full(s.n(), C)
    }

    /// Builds a mask sized for `s` from *original* graph ids, mapping
    /// each through the σ-sort permutation. Out-of-range ids panic;
    /// duplicates are fine.
    pub fn from_original<const C: usize>(
        s: &SellStructure<C>,
        ids: impl IntoIterator<Item = VertexId>,
    ) -> Self {
        let mut m = Self::empty(s.n(), C);
        for v in ids {
            m.insert(s.perm().to_new(v) as usize);
        }
        m
    }

    /// Builds a mask from *permuted* ids. Out-of-range ids panic.
    pub fn from_permuted(n: usize, lanes: usize, ids: impl IntoIterator<Item = usize>) -> Self {
        let mut m = Self::empty(n, lanes);
        for v in ids {
            m.insert(v);
        }
        m
    }

    /// Real vertices covered (dimension, not cardinality).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Chunk height the mask is laid out for.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of chunks (`⌈n / lanes⌉`).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.allowed.len()
    }

    /// Number of selected real vertices — popcount-tracked, O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// Whether no real vertex is selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Whether every real vertex is selected (the kernels' "behave
    /// exactly unmasked" predicate).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ones == self.n
    }

    /// Allowed-lane word of chunk `i` — padding bits always set, so
    /// `allowed(i) == full_lane_mask(C)` ⇔ the chunk runs unmasked.
    #[inline]
    pub fn allowed(&self, i: usize) -> u32 {
        self.allowed[i]
    }

    /// Allowed *real* lanes of chunk `i`; `0` ⇔ the chunk is fully
    /// masked and a kernel may skip it outright.
    #[inline]
    pub fn allowed_real(&self, i: usize) -> u32 {
        self.allowed[i] & self.real(i)
    }

    /// Intersects chunk `i`'s allowed word with an arbitrary lane mask
    /// — a changed-lane mask from the worklist harvest or a dependency
    /// edge's source-lane mask. The surviving bits are the lanes that
    /// are both interesting to the caller and inside the mask.
    #[inline]
    pub fn and_lanes(&self, i: usize, lane_mask: u32) -> u32 {
        self.allowed[i] & lane_mask
    }

    /// Membership test for a permuted vertex id.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        assert!(v < self.n, "vertex {v} out of mask range {}", self.n);
        self.allowed[v / self.lanes] & (1 << (v % self.lanes)) != 0
    }

    /// Inserts a permuted vertex id; returns whether it was newly
    /// inserted. O(1), count-maintaining.
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(v < self.n, "vertex {v} out of mask range {}", self.n);
        let word = &mut self.allowed[v / self.lanes];
        let bit = 1u32 << (v % self.lanes);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.ones += fresh as usize;
        fresh
    }

    /// Removes a permuted vertex id; returns whether it was present.
    /// O(1), count-maintaining.
    pub fn remove(&mut self, v: usize) -> bool {
        assert!(v < self.n, "vertex {v} out of mask range {}", self.n);
        let word = &mut self.allowed[v / self.lanes];
        let bit = 1u32 << (v % self.lanes);
        let present = *word & bit != 0;
        *word &= !bit;
        self.ones -= present as usize;
        present
    }

    /// Inserts every set lane of `lane_mask` in chunk `i` (real lanes
    /// only) and returns how many were newly inserted — the bulk form
    /// for a harvested `(chunk, changed-lane mask)` pair, one popcount
    /// per chunk instead of per-vertex updates.
    pub fn insert_lanes(&mut self, i: usize, lane_mask: u32) -> u32 {
        let add = lane_mask & self.real(i) & !self.allowed[i];
        self.allowed[i] |= add;
        let fresh = add.count_ones();
        self.ones += fresh as usize;
        fresh
    }

    /// The complemented set over the real vertices (padding lanes stay
    /// set). Involutive: `m.complement().complement() == m`.
    #[must_use]
    pub fn complement(&self) -> Self {
        let mut out = self.clone();
        out.complement_in_place();
        out
    }

    /// In-place [`Self::complement`], for per-iteration reuse without
    /// reallocating.
    pub fn complement_in_place(&mut self) {
        for i in 0..self.allowed.len() {
            self.allowed[i] = (!self.allowed[i] & self.real(i)) | self.pad(i);
        }
        self.ones = self.n - self.ones;
    }

    /// Intersection with `other` (same dimensions required).
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// In-place intersection with `other`.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(
            (self.n, self.lanes),
            (other.n, other.lanes),
            "mask dimension mismatch in intersection"
        );
        let mut ones = 0usize;
        for i in 0..self.allowed.len() {
            self.allowed[i] &= other.allowed[i] | self.pad(i);
            ones += (self.allowed[i] & self.real(i)).count_ones() as usize;
        }
        self.ones = ones;
    }

    /// Difference `self \ other` (same dimensions required), computed
    /// without materializing the complement.
    #[must_use]
    pub fn and_not(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_not_assign(other);
        out
    }

    /// In-place [`Self::and_not`].
    pub fn and_not_assign(&mut self, other: &Self) {
        assert_eq!(
            (self.n, self.lanes),
            (other.n, other.lanes),
            "mask dimension mismatch in difference"
        );
        let mut ones = 0usize;
        for i in 0..self.allowed.len() {
            self.allowed[i] = (self.allowed[i] & !other.allowed[i] & self.real(i)) | self.pad(i);
            ones += (self.allowed[i] & self.real(i)).count_ones() as usize;
        }
        self.ones = ones;
    }

    /// Union with `other` (same dimensions required).
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(
            (self.n, self.lanes),
            (other.n, other.lanes),
            "mask dimension mismatch in union"
        );
        let mut out = self.clone();
        let mut ones = 0usize;
        for i in 0..out.allowed.len() {
            out.allowed[i] |= other.allowed[i];
            ones += (out.allowed[i] & out.real(i)).count_ones() as usize;
        }
        out.ones = ones;
        out
    }

    /// Iterates the selected permuted vertex ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.allowed.len()).flat_map(move |i| {
            let mut word = self.allowed_real(i);
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let lane = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(i * self.lanes + lane)
            })
        })
    }

    /// Whether the mask was built for a structure of these dimensions
    /// (same `n`, chunk height `C`): the non-panicking form of
    /// [`Self::check_layout`], for entry points that reject a foreign
    /// mask with an error instead.
    pub fn fits_layout<const C: usize>(&self, s: &SellStructure<C>) -> bool {
        (self.n, self.lanes) == (s.n(), C)
    }

    /// Asserts the mask matches a structure's dimensions — every
    /// masked kernel entry point calls this once up front so a mask
    /// built for a different graph (or chunk height) fails loudly, not
    /// with silently wrong lane math.
    pub fn check_layout<const C: usize>(&self, s: &SellStructure<C>) {
        assert!(
            self.fits_layout(s),
            "mask built for n={} C={} used with a structure of n={} C={C}",
            self.n,
            self.lanes,
            s.n(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::GraphBuilder;

    #[test]
    fn empty_and_full_counts() {
        let e = VertexMask::empty(10, 4);
        assert_eq!((e.len(), e.num_chunks()), (0, 3));
        assert!(e.is_empty() && !e.is_full());
        let f = VertexMask::full(10, 4);
        assert_eq!(f.len(), 10);
        assert!(f.is_full() && !f.is_empty());
        // Full mask: every chunk word is all-ones — the unmasked path.
        for i in 0..3 {
            assert_eq!(f.allowed(i), full_lane_mask(4));
        }
    }

    #[test]
    fn padding_lanes_always_set() {
        // n = 10, C = 4: chunk 2 has real lanes {0, 1}, padding {2, 3}.
        let e = VertexMask::empty(10, 4);
        assert_eq!(e.allowed(2), 0b1100);
        assert_eq!(e.allowed_real(2), 0);
        let f = VertexMask::full(10, 4);
        assert_eq!(f.allowed_real(2), 0b0011);
        // Complement flips real lanes only.
        assert_eq!(e.complement().allowed(2), 0b1111);
        assert_eq!(f.complement().allowed(2), 0b1100);
    }

    #[test]
    fn insert_remove_track_popcount() {
        let mut m = VertexMask::empty(10, 4);
        assert!(m.insert(3));
        assert!(!m.insert(3));
        assert!(m.insert(9));
        assert_eq!(m.len(), 2);
        assert!(m.contains(3) && m.contains(9) && !m.contains(4));
        assert!(m.remove(3));
        assert!(!m.remove(3));
        assert_eq!(m.len(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn insert_lanes_bulk_counts_and_clips_padding() {
        let mut m = VertexMask::empty(10, 4);
        assert_eq!(m.insert_lanes(0, 0b1010), 2);
        assert_eq!(m.insert_lanes(0, 0b1011), 1); // lanes 1,3 already in
                                                  // Chunk 2: only lanes 0,1 are real; padding bits are ignored.
        assert_eq!(m.insert_lanes(2, 0b1111), 2);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn complement_is_involutive() {
        let m = VertexMask::from_permuted(13, 8, [0, 5, 7, 12]);
        assert_eq!(m.complement().complement(), m);
        assert_eq!(m.complement().len(), 13 - m.len());
        // Complement partitions: m ∩ ¬m = ∅, m ∪ ¬m = full.
        assert!(m.and(&m.complement()).is_empty());
        assert!(m.or(&m.complement()).is_full());
    }

    #[test]
    fn set_algebra() {
        let a = VertexMask::from_permuted(10, 4, [0, 1, 2, 8]);
        let b = VertexMask::from_permuted(10, 4, [1, 2, 3, 9]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![0, 8]);
        assert_eq!(a.or(&b).len(), 6);
        // and_not agrees with and-of-complement.
        assert_eq!(a.and_not(&b), a.and(&b.complement()));
    }

    #[test]
    fn and_lanes_intersects_arbitrary_masks() {
        let m = VertexMask::from_permuted(8, 4, [0, 2, 5]);
        assert_eq!(m.and_lanes(0, 0b0111), 0b0101);
        assert_eq!(m.and_lanes(1, 0b1111), 0b0010);
    }

    #[test]
    fn from_original_routes_through_permutation() {
        // Full σ-sort moves the degree-5 hub (vertex 4) to row 0.
        let g =
            GraphBuilder::new(8).edges([(4, 0), (4, 1), (4, 2), (4, 3), (4, 5), (6, 7)]).build();
        let s = crate::structure::SellStructure::<4>::build(&g, 8);
        let m = VertexMask::from_original(&s, [4u32]);
        assert_eq!(m.len(), 1);
        assert!(m.contains(s.perm().to_new(4) as usize));
        VertexMask::structural(&s).check_layout(&s);
    }

    #[test]
    fn fits_layout_compares_n_and_chunk_height() {
        let g = GraphBuilder::new(8).edges([(0, 1)]).build();
        let s = crate::structure::SellStructure::<4>::build(&g, 1);
        assert!(VertexMask::full(8, 4).fits_layout(&s));
        assert!(!VertexMask::full(8, 8).fits_layout(&s));
        assert!(!VertexMask::full(9, 4).fits_layout(&s));
    }

    #[test]
    #[should_panic(expected = "mask built for")]
    fn layout_mismatch_fails_loudly() {
        let g = GraphBuilder::new(8).edges([(0, 1)]).build();
        let s = crate::structure::SellStructure::<4>::build(&g, 1);
        VertexMask::full(9, 4).check_layout(&s);
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn out_of_range_insert_panics() {
        VertexMask::empty(10, 4).insert(10);
    }

    #[test]
    fn lanes_32_masks_do_not_overflow() {
        let mut m = VertexMask::full(64, 32);
        assert_eq!(m.allowed(0), u32::MAX);
        assert!(m.remove(31));
        assert_eq!(m.allowed(0), !(1 << 31));
        assert_eq!(m.len(), 63);
    }
}
