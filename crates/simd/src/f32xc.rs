//! `f32` vectors of `C` lanes: the `V` type of the paper's Listing 1.
//!
//! All BFS semiring values are `f32`, mirroring the paper's use of the
//! `_mm256_*_ps` instruction family (Listing 2). Every operation below is
//! a fixed-trip-count lane loop that inlines into the calling kernel,
//! where the compiler vectorizes it together with its neighbours.
//!
//! The engines rely on three IEEE-754 behaviours, pinned lane by lane by
//! `tests/proptest_ops.rs`: `min` of `-0.0` and `+0.0` matches
//! `f32::min` bit for bit, a `-0.0` `BLEND` mask lane selects `a`, and
//! NaN operands of `min`/`max` behave as in `f32::min`/`f32::max`.

use crate::i32xc::SimdI32;

/// A vector of `C` IEEE-754 single-precision lanes.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(align(64))]
pub struct SimdF32<const C: usize>(pub [f32; C]);

impl<const C: usize> SimdF32<C> {
    /// `set1`: all lanes equal to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; C])
    }

    /// All-zero vector (the `[0,0,...,0]` literal of Listing 5).
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(0.0)
    }

    /// All-one vector.
    #[inline(always)]
    pub fn one() -> Self {
        Self::splat(1.0)
    }

    /// All-∞ vector (`infs` in Listing 6).
    #[inline(always)]
    pub fn inf() -> Self {
        Self::splat(f32::INFINITY)
    }

    /// Builds a vector lane-by-lane (the `set` of Listing 2).
    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> f32) -> Self {
        let mut out = [0.0f32; C];
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(i);
        }
        Self(out)
    }

    /// `LOAD`: reads `C` contiguous lanes from `src`.
    ///
    /// # Panics
    /// Panics if `src.len() < C`.
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let mut out = [0.0f32; C];
        out.copy_from_slice(&src[..C]);
        Self(out)
    }

    /// `STORE`: writes `C` lanes to `dst`.
    ///
    /// # Panics
    /// Panics if `dst.len() < C`.
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..C].copy_from_slice(&self.0);
    }

    /// Gather `out[i] = values[idx[i]]`, with negative indices (SlimSell's
    /// `-1` padding marker) replaced by `default`.
    ///
    /// The paper's Listing 6 gathers `f[col[...]]` even for padding
    /// columns and relies on the subsequent `BLEND`-derived `∞`/`0`
    /// neutralizing the lane; a safe implementation must not read
    /// `f[-1]`, hence the explicit default.
    #[inline(always)]
    pub fn gather_or(values: &[f32], idx: SimdI32<C>, default: f32) -> Self {
        let mut out = [0.0f32; C];
        for i in 0..C {
            let j = idx.0[i];
            out[i] = if j >= 0 { values[j as usize] } else { default };
        }
        Self(out)
    }

    /// `CMP(a, b, EQ)`: numeric mask, `1.0` where equal else `0.0`.
    #[inline(always)]
    pub fn cmp_eq(self, other: Self) -> Self {
        Self::from_fn(|i| if self.0[i] == other.0[i] { 1.0 } else { 0.0 })
    }

    /// `CMP(a, b, NEQ)`: numeric mask, `1.0` where different else `0.0`.
    #[inline(always)]
    pub fn cmp_neq(self, other: Self) -> Self {
        Self::from_fn(|i| if self.0[i] != other.0[i] { 1.0 } else { 0.0 })
    }

    /// `BLEND(a, b, mask)`: `out[i] = mask[i] != 0 ? b[i] : a[i]`.
    #[inline(always)]
    pub fn blend(a: Self, b: Self, mask: Self) -> Self {
        Self::from_fn(|i| if mask.0[i] != 0.0 { b.0[i] } else { a.0[i] })
    }

    /// Element-wise minimum (`MIN`). NaN handling follows `f32::min`.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        Self::from_fn(|i| self.0[i].min(other.0[i]))
    }

    /// Element-wise maximum (`MAX`).
    #[inline(always)]
    pub fn max(self, other: Self) -> Self {
        Self::from_fn(|i| self.0[i].max(other.0[i]))
    }

    /// Element-wise addition (`ADD`).
    #[inline(always)]
    pub fn add(self, other: Self) -> Self {
        Self::from_fn(|i| self.0[i] + other.0[i])
    }

    /// Element-wise multiplication (`MUL`).
    #[inline(always)]
    pub fn mul(self, other: Self) -> Self {
        Self::from_fn(|i| self.0[i] * other.0[i])
    }

    /// Bitwise `AND` on lane bit patterns (`_mm256_and_ps`). For lanes
    /// restricted to {0.0, 1.0} this is logical AND.
    #[inline(always)]
    pub fn and_bits(self, other: Self) -> Self {
        Self::from_fn(|i| f32::from_bits(self.0[i].to_bits() & other.0[i].to_bits()))
    }

    /// Bitwise `OR` on lane bit patterns (`_mm256_or_ps`). For lanes
    /// restricted to {0.0, 1.0} this is logical OR.
    #[inline(always)]
    pub fn or_bits(self, other: Self) -> Self {
        Self::from_fn(|i| f32::from_bits(self.0[i].to_bits() | other.0[i].to_bits()))
    }

    /// Logical NOT of a {0,1} numeric mask (the `NOT` of Listing 5 line
    /// 35): `1.0` where the lane is `0.0`, else `0.0`.
    #[inline(always)]
    pub fn mask_not(self) -> Self {
        Self::from_fn(|i| if self.0[i] == 0.0 { 1.0 } else { 0.0 })
    }

    /// Logical AND of two {0,1} numeric masks.
    #[inline(always)]
    pub fn mask_and(self, other: Self) -> Self {
        Self::from_fn(|i| if self.0[i] != 0.0 && other.0[i] != 0.0 { 1.0 } else { 0.0 })
    }

    /// True if any lane is non-zero.
    #[inline(always)]
    pub fn any_nonzero(self) -> bool {
        let mut acc = false;
        for i in 0..C {
            acc |= self.0[i] != 0.0;
        }
        acc
    }

    /// True if any lane differs from `other` (used for per-chunk change
    /// detection in the tropical semiring).
    #[inline(always)]
    pub fn any_ne(self, other: Self) -> bool {
        let mut acc = false;
        for i in 0..C {
            acc |= self.0[i] != other.0[i];
        }
        acc
    }

    /// Per-lane *bitwise* difference mask: bit `i` is set iff lane `i` of
    /// `self` and `other` have different IEEE-754 bit patterns (so `-0.0`
    /// differs from `+0.0`, matching `to_bits()` comparison). This is the
    /// lane-granular form of chunk change detection
    /// (`slimsell_core::semiring::state_changed_mask`): with `C <= 32`
    /// the mask fits a `u32`, the same shape as `ChunkDepGraph`'s
    /// per-edge source-lane masks that filter worklist activation.
    #[inline(always)]
    pub fn ne_bits(self, other: Self) -> u32 {
        let mut m = 0u32;
        for i in 0..C {
            if self.0[i].to_bits() != other.0[i].to_bits() {
                m |= 1 << (i & 31);
            }
        }
        m
    }

    /// Horizontal sum of all lanes.
    #[inline(always)]
    pub fn reduce_add(self) -> f32 {
        self.0.iter().sum()
    }

    /// Horizontal minimum of all lanes.
    #[inline(always)]
    pub fn reduce_min(self) -> f32 {
        self.0.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Lane slice view.
    #[inline(always)]
    pub fn as_array(&self) -> &[f32; C] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = SimdF32<8>;

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v = V::load(&src);
        let mut dst = [0.0f32; 8];
        v.store(&mut dst);
        assert_eq!(&dst[..], &src[..]);
    }

    #[test]
    #[should_panic]
    fn load_short_slice_panics() {
        V::load(&[1.0; 4]);
    }

    #[test]
    fn min_add_matches_scalar() {
        let a = V::from_fn(|i| i as f32);
        let b = V::from_fn(|i| (8 - i) as f32);
        let m = a.min(b);
        let s = a.add(b);
        for i in 0..8 {
            assert_eq!(m.0[i], (i as f32).min((8 - i) as f32));
            assert_eq!(s.0[i], 8.0);
        }
    }

    #[test]
    fn infinity_is_add_absorbing() {
        // The tropical kernel relies on ∞ + x = ∞ (padding neutrality).
        let v = V::inf().add(V::from_fn(|i| i as f32));
        assert!(v.0.iter().all(|x| x.is_infinite()));
        assert_eq!(V::inf().min(V::splat(3.0)), V::splat(3.0));
    }

    #[test]
    fn blend_selects_on_nonzero() {
        let a = V::splat(1.0);
        let b = V::splat(2.0);
        let mask = V::from_fn(|i| if i % 2 == 0 { 1.0 } else { 0.0 });
        let out = V::blend(a, b, mask);
        for i in 0..8 {
            assert_eq!(out.0[i], if i % 2 == 0 { 2.0 } else { 1.0 });
        }
    }

    #[test]
    fn cmp_masks_are_zero_one() {
        let a = V::from_fn(|i| i as f32);
        let b = V::splat(3.0);
        let eq = a.cmp_eq(b);
        let ne = a.cmp_neq(b);
        for i in 0..8 {
            assert_eq!(eq.0[i], if i == 3 { 1.0 } else { 0.0 });
            assert_eq!(ne.0[i], if i == 3 { 0.0 } else { 1.0 });
            assert_eq!(eq.0[i] + ne.0[i], 1.0);
        }
    }

    #[test]
    fn bitwise_and_or_act_logically_on_01() {
        // The boolean-semiring kernel depends on this property.
        for (x, y) in [(0.0f32, 0.0f32), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let a = V::splat(x);
            let b = V::splat(y);
            let and = a.and_bits(b).0[0];
            let or = a.or_bits(b).0[0];
            assert_eq!(and, if x != 0.0 && y != 0.0 { 1.0 } else { 0.0 });
            assert_eq!(or, if x != 0.0 || y != 0.0 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn mask_not_inverts() {
        let m = V::from_fn(|i| if i < 4 { 0.0 } else { 1.0 });
        let n = m.mask_not();
        for i in 0..8 {
            assert_eq!(n.0[i], if i < 4 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    #[should_panic]
    fn gather_out_of_range_index_panics() {
        let values = [10.0f32, 11.0, 12.0, 13.0];
        SimdF32::<4>::gather_or(&values, SimdI32([0, 4, -1, 1]), 0.0);
    }

    #[test]
    fn gather_with_padding_marker() {
        let values = [10.0f32, 11.0, 12.0, 13.0];
        let idx = SimdI32::<4>([2, -1, 0, -1]);
        let g = SimdF32::<4>::gather_or(&values, idx, f32::INFINITY);
        assert_eq!(g.0, [12.0, f32::INFINITY, 10.0, f32::INFINITY]);
    }

    #[test]
    fn reductions() {
        let v = V::from_fn(|i| i as f32);
        assert_eq!(v.reduce_add(), 28.0);
        assert_eq!(v.reduce_min(), 0.0);
        assert!(v.any_nonzero());
        assert!(!V::zero().any_nonzero());
        assert!(v.any_ne(V::zero()));
        assert!(!v.any_ne(v));
    }

    #[test]
    fn works_at_all_supported_widths() {
        fn probe<const C: usize>() {
            let v = SimdF32::<C>::from_fn(|i| i as f32);
            assert_eq!(v.reduce_add(), (0..C).sum::<usize>() as f32);
        }
        probe::<4>();
        probe::<8>();
        probe::<16>();
        probe::<32>();
    }
}
