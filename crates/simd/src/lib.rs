//! Portable SIMD abstraction for the SlimSell kernels.
//!
//! This crate is the Rust counterpart of the paper's Listing 1/2: a small
//! set of vector primitives (`LOAD`, `STORE`, `SET`, `CMP`, `BLEND`,
//! `MIN`, `MAX`, `ADD`, `MUL`, `AND`, `OR`) over vectors of `C` lanes.
//! The lane count `C` is a `const` generic so the same kernels run in the
//! paper's three configurations:
//!
//! | C  | architecture modeled                                    |
//! |----|---------------------------------------------------------|
//! | 8  | AVX2 CPU (256-bit registers, 32-bit elements, §IV-A)    |
//! | 16 | Xeon Phi KNL (512-bit AVX-512 units, §IV-C)             |
//! | 32 | GPU warp (32 SIMT lanes, §IV-B)                         |
//!
//! Implementation note: stable Rust has no `std::simd`, so each primitive
//! is a fixed-trip-count lane loop over a `#[repr(align(64))]` array, and
//! that loop is the **only** implementation. Every primitive is
//! `#[inline(always)]`, so a kernel's whole chunk loop inlines into one
//! function body that the compiler vectorizes as a unit. There is no
//! runtime dispatch and no environment variable; [`active_backend`]
//! always names [`Backend::Scalar`]. Per-op intrinsics selected at run
//! time were tried and removed: each op became a non-inlinable call, and
//! the chunk MV ran 5–8× slower than these loops (ARCHITECTURE.md,
//! "SIMD primitives and lane masks").
//!
//! Mask convention: comparison results are *numeric* masks holding `0.0`
//! or `1.0` per lane, matching the paper's Listing 1 ("return a vector
//! with binary outcome of each comparison (0/1)"); `BLEND` treats any
//! non-zero lane as "take b". The paper's boolean-semiring kernels apply
//! bitwise `AND`/`OR` to such masks; for values restricted to
//! {0.0, 1.0} the IEEE-754 bit patterns make bitwise and/or coincide with
//! logical and/or, a property [`SimdF32::and_bits`] relies on and the
//! unit tests pin down.

// The fixed-trip `for i in 0..C` lane loops ARE the vectorization idiom this
// crate is built around (see module docs above), and `add`/`mul`/`min`/`max`
// deliberately mirror the paper's Listing-1 primitive names rather than the
// `std::ops` traits.
#![allow(clippy::needless_range_loop, clippy::should_implement_trait)]

pub mod f32xc;
pub mod i32xc;

pub use f32xc::SimdF32;
pub use i32xc::SimdI32;

/// Lane counts used by the reproduction (CPU, AVX2, KNL, GPU-warp).
pub const SUPPORTED_LANES: [usize; 4] = [4, 8, 16, 32];

/// The implementation behind the `SimdF32`/`SimdI32` primitives. There is
/// one: the portable lane loops. It is named so that benchmark host
/// fingerprints can record it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable fixed-trip lane loops.
    Scalar,
}

impl Backend {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
        }
    }
}

/// The backend in use: always [`Backend::Scalar`].
#[inline]
pub fn active_backend() -> Backend {
    Backend::Scalar
}

/// Best-effort prefetch of the cache line containing `data[i]` into the
/// whole cache hierarchy (`prefetcht0`). Purely a latency hint for
/// gather-heavy kernels whose future indices are known ahead of time —
/// it never reads or writes architectural state, so results are
/// unaffected. A no-op on non-x86-64 targets and for out-of-range
/// indices.
#[inline(always)]
pub fn prefetch_read(data: &[f32], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < data.len() {
        // SAFETY: the pointer is in bounds of a live slice, and
        // `prefetcht0` has no architectural effect on memory.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                data.as_ptr().add(i).cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, i);
}

/// Error returned by [`dispatch_lanes`] for a lane count outside
/// [`SUPPORTED_LANES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedLanes(pub usize);

impl std::fmt::Display for UnsupportedLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported chunk height C={} (supported lane counts: {:?})",
            self.0, SUPPORTED_LANES
        )
    }
}

impl std::error::Error for UnsupportedLanes {}

/// Dispatches a generic-in-`C` function object over a runtime lane count.
///
/// ```
/// use slimsell_simd::{dispatch_lanes, LaneDispatch};
/// struct WidthOf;
/// impl LaneDispatch for WidthOf {
///     type Output = usize;
///     fn run<const C: usize>(self) -> usize { C }
/// }
/// assert_eq!(dispatch_lanes(16, WidthOf).unwrap(), 16);
/// assert!(dispatch_lanes(5, WidthOf).is_err());
/// ```
///
/// # Errors
/// Returns [`UnsupportedLanes`] (naming the offending count and the
/// supported set) when `c` is not in [`SUPPORTED_LANES`].
pub fn dispatch_lanes<D: LaneDispatch>(c: usize, d: D) -> Result<D::Output, UnsupportedLanes> {
    match c {
        4 => Ok(d.run::<4>()),
        8 => Ok(d.run::<8>()),
        16 => Ok(d.run::<16>()),
        32 => Ok(d.run::<32>()),
        _ => Err(UnsupportedLanes(c)),
    }
}

/// A function object that can run at any supported lane count; used with
/// [`dispatch_lanes`] to turn a runtime `C` into a `const` generic.
pub trait LaneDispatch {
    /// Result type of the dispatched computation.
    type Output;
    /// Runs the computation at lane count `C`.
    fn run<const C: usize>(self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Width;
    impl LaneDispatch for Width {
        type Output = usize;
        fn run<const C: usize>(self) -> usize {
            C
        }
    }

    #[test]
    fn active_backend_is_the_portable_loops() {
        assert_eq!(active_backend(), Backend::Scalar);
        assert_eq!(active_backend().name(), "scalar");
    }

    #[test]
    fn dispatch_supported() {
        for c in SUPPORTED_LANES {
            assert_eq!(dispatch_lanes(c, Width), Ok(c));
        }
    }

    #[test]
    fn dispatch_unsupported() {
        let err = dispatch_lanes(7, Width).unwrap_err();
        assert_eq!(err, UnsupportedLanes(7));
        let msg = err.to_string();
        assert!(msg.contains("C=7"), "{msg}");
        assert!(msg.contains("4, 8, 16, 32"), "{msg}");
    }
}
