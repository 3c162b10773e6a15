//! `i32` vectors of `C` lanes: column-index vectors.
//!
//! SlimSell stores column indices as signed 32-bit integers so that the
//! padding marker `-1` fits in-band (§III-B: "each entry in col … contains
//! either a usual column index … or a special marker (e.g., −1)").

use crate::f32xc::SimdF32;

/// A vector of `C` signed 32-bit integer lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(align(64))]
pub struct SimdI32<const C: usize>(pub [i32; C]);

impl<const C: usize> SimdI32<C> {
    /// All lanes equal to `v`.
    #[inline(always)]
    pub fn splat(v: i32) -> Self {
        Self([v; C])
    }

    /// The SlimSell padding-marker vector `m_ones = [-1, …, -1]`.
    #[inline(always)]
    pub fn minus_ones() -> Self {
        Self::splat(-1)
    }

    /// Builds a vector lane-by-lane.
    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> i32) -> Self {
        let mut out = [0i32; C];
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(i);
        }
        Self(out)
    }

    /// `LOAD`: reads `C` contiguous lanes.
    ///
    /// # Panics
    /// Panics if `src.len() < C`.
    #[inline(always)]
    pub fn load(src: &[i32]) -> Self {
        let mut out = [0i32; C];
        out.copy_from_slice(&src[..C]);
        Self(out)
    }

    /// `STORE`: writes `C` lanes.
    #[inline(always)]
    pub fn store(self, dst: &mut [i32]) {
        dst[..C].copy_from_slice(&self.0);
    }

    /// `CMP(a, b, EQ)` producing a numeric f32 mask (`1.0`/`0.0`), the
    /// form the SlimSell kernel feeds straight into `BLEND` (Listing 6
    /// lines 10–12).
    #[inline(always)]
    pub fn cmp_eq_mask(self, other: Self) -> SimdF32<C> {
        SimdF32::from_fn(|i| if self.0[i] == other.0[i] { 1.0 } else { 0.0 })
    }

    /// Converts lanes to `f32` (`cvtI2f` of Listing 2).
    #[inline(always)]
    pub fn to_f32(self) -> SimdF32<C> {
        SimdF32::from_fn(|i| self.0[i] as f32)
    }

    /// Lane slice view.
    #[inline(always)]
    pub fn as_array(&self) -> &[i32; C] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let src = [-1, 4, 7, -1];
        let v = SimdI32::<4>::load(&src);
        let mut dst = [0i32; 4];
        v.store(&mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn padding_mask_derivation() {
        // Exactly the SlimSell Listing 6 sequence: CMP against -1 then
        // BLEND(ones, infs, mask) must produce 1 for edges, ∞ for pads.
        let cols = SimdI32::<4>([3, -1, 0, -1]);
        let mask = cols.cmp_eq_mask(SimdI32::minus_ones());
        let vals = SimdF32::blend(SimdF32::one(), SimdF32::inf(), mask);
        assert_eq!(vals.0, [1.0, f32::INFINITY, 1.0, f32::INFINITY]);
    }

    #[test]
    fn to_f32_conversion() {
        let v = SimdI32::<4>([0, 1, -1, 100]);
        assert_eq!(v.to_f32().0, [0.0, 1.0, -1.0, 100.0]);
    }

    #[test]
    fn splat_and_minus_ones() {
        assert_eq!(SimdI32::<8>::minus_ones().0, [-1; 8]);
        assert_eq!(SimdI32::<8>::splat(5).0, [5; 8]);
    }
}
