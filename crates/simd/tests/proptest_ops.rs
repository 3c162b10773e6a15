//! Property tests: every vector primitive agrees lane-wise with its
//! scalar definition from the paper's Listing 1.
//!
//! The lane generator includes `-0.0` and NaN, so the properties also pin
//! the IEEE-754 edge cases the engines depend on: signed-zero `min`,
//! a `-0.0` blend mask selecting `a`, and NaN through `min`/`max`.

use proptest::prelude::*;
use slimsell_simd::{SimdF32, SimdI32};

const C: usize = 8;

fn lanes() -> impl Strategy<Value = [f32; C]> {
    prop::array::uniform8(prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.0f32),
        Just(f32::INFINITY),
        Just(f32::NAN),
        -100.0f32..100.0f32,
    ])
}

proptest! {
    #[test]
    fn add_matches_scalar(a in lanes(), b in lanes()) {
        let v = SimdF32::<C>(a).add(SimdF32(b));
        for i in 0..C {
            prop_assert_eq!(v.0[i].to_bits(), (a[i] + b[i]).to_bits());
        }
    }

    #[test]
    fn mul_matches_scalar(a in lanes(), b in lanes()) {
        let v = SimdF32::<C>(a).mul(SimdF32(b));
        for i in 0..C {
            prop_assert_eq!(v.0[i].to_bits(), (a[i] * b[i]).to_bits());
        }
    }

    #[test]
    fn min_max_match_scalar(a in lanes(), b in lanes()) {
        let mn = SimdF32::<C>(a).min(SimdF32(b));
        let mx = SimdF32::<C>(a).max(SimdF32(b));
        for i in 0..C {
            prop_assert_eq!(mn.0[i].to_bits(), a[i].min(b[i]).to_bits());
            prop_assert_eq!(mx.0[i].to_bits(), a[i].max(b[i]).to_bits());
        }
    }

    #[test]
    fn blend_matches_ternary(a in lanes(), b in lanes(), m in lanes()) {
        let v = SimdF32::blend(SimdF32::<C>(a), SimdF32(b), SimdF32(m));
        for i in 0..C {
            let expect = if m[i] != 0.0 { b[i] } else { a[i] };
            prop_assert_eq!(v.0[i].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn cmp_masks_complementary(a in lanes(), b in lanes()) {
        let eq = SimdF32::<C>(a).cmp_eq(SimdF32(b));
        let ne = SimdF32::<C>(a).cmp_neq(SimdF32(b));
        for i in 0..C {
            prop_assert!(eq.0[i] == 0.0 || eq.0[i] == 1.0);
            prop_assert_eq!(eq.0[i] + ne.0[i], 1.0);
        }
    }

    #[test]
    fn bitwise_logical_on_01(a in prop::array::uniform8(0u8..2), b in prop::array::uniform8(0u8..2)) {
        let va = SimdF32::<C>::from_fn(|i| a[i] as f32);
        let vb = SimdF32::<C>::from_fn(|i| b[i] as f32);
        let and = va.and_bits(vb);
        let or = va.or_bits(vb);
        for i in 0..C {
            prop_assert_eq!(and.0[i], (a[i] & b[i]) as f32);
            prop_assert_eq!(or.0[i], (a[i] | b[i]) as f32);
        }
    }

    #[test]
    fn gather_respects_marker(idx in prop::array::uniform8(-1i32..16), values in prop::collection::vec(-10.0f32..10.0, 16)) {
        let g = SimdF32::<C>::gather_or(&values, SimdI32(idx), f32::INFINITY);
        for i in 0..C {
            let expect = if idx[i] >= 0 { values[idx[i] as usize] } else { f32::INFINITY };
            prop_assert_eq!(g.0[i].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn mask_not_is_involution_on_masks(m in prop::array::uniform8(0u8..2)) {
        let v = SimdF32::<C>::from_fn(|i| m[i] as f32);
        prop_assert_eq!(v.mask_not().mask_not().0, v.0);
    }
}
