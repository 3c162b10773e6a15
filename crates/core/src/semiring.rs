//! BFS semirings (§III-A): tropical, real, boolean, sel-max.
//!
//! Each semiring `S = (X, op1, op2, el1, el2)` instantiates the same
//! chunked SpMV skeleton (`acc = op1(acc, op2(vals, rhs))`, Listing 5
//! lines 6–21) but differs in:
//!
//! * the padding value that neutralizes `op2` (`∞` for tropical, `0`
//!   otherwise),
//! * the per-chunk post-processing that derives the next frontier and
//!   updates distances/parents (Listing 5 lines 22–45),
//! * the SlimWork skip criterion (Listing 7),
//! * which outputs come for free (tropical: distances; sel-max: parents
//!   *and* distances; boolean/real: distances, parents via `DP`).
//!
//! The state layout is uniform across semirings so one generic driver
//! (`bfs.rs`) serves all four:
//!
//! * `x` — the vector the SpMV reads (gathers) and writes: distances for
//!   tropical, the 0/1 frontier for boolean, path counts for real, and
//!   1-based vertex indices for sel-max;
//! * `g` — the unvisited filter of the boolean/real semirings (1 =
//!   not yet visited);
//! * `p` — sel-max's parent vector (1-based permuted ids; 0 = none).
//!
//! A semiring declares which of `g` and `p` it maintains
//! ([`Semiring::USES_G`], [`Semiring::USES_P`]); the engine's state
//! bookkeeping — [`copy_forward`], [`clone_state`], [`state_changed`]
//! and [`state_changed_mask`] — is written once against that
//! declaration, so no semiring implements it.

use std::ops::Range;

use slimsell_simd::SimdF32;

/// Dense per-vertex state vectors (length `n_padded`), double-buffered by
/// the driver.
#[derive(Clone, Debug, Default)]
pub struct StateVecs {
    /// The SpMV input/output vector (meaning depends on the semiring).
    pub x: Vec<f32>,
    /// Unvisited filter (boolean/real semirings).
    pub g: Vec<f32>,
    /// Parent vector (sel-max semiring), 1-based permuted ids.
    pub p: Vec<f32>,
}

impl StateVecs {
    /// Allocates all vectors at `n_padded` lanes, zero-filled.
    pub fn new(n_padded: usize) -> Self {
        Self { x: vec![0.0; n_padded], g: vec![0.0; n_padded], p: vec![0.0; n_padded] }
    }
}

/// Bit-exact slice inequality (`-0.0 != 0.0`, NaN-safe): the comparison
/// the worklist engine's change detection is built on, matching the
/// byte-equality contract of the determinism suite. Public so kernels
/// with non-[`StateVecs`] state (PageRank's pre-scaled vector) run
/// their change detection on the identical rule.
#[inline]
pub fn slice_bits_differ(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Per-lane form of [`slice_bits_differ`] over one chunk's `C` lanes:
/// bit `l` is set iff lane `l` differs bit-wise. Computed with the
/// vector primitive [`SimdF32::ne_bits`], so the mask is exactly the set
/// of lanes a bit-exact change detector would flag.
#[inline]
pub fn lanes_ne_bits<const C: usize>(a: &[f32], b: &[f32]) -> u32 {
    SimdF32::<C>::load(a).ne_bits(SimdF32::load(b))
}

/// A BFS semiring: the pluggable part of the BFS-SpMV engine.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Display name (matches the paper's legends).
    const NAME: &'static str;
    /// Padding value: the `op2` annihilator blended in for `-1` columns.
    const PAD: f32;
    /// `op1` identity: the starting accumulator for SlimChunk tiles.
    const OP1_IDENTITY: f32;
    /// Whether the semiring maintains the unvisited filter
    /// [`StateVecs::g`]. Every semiring maintains `x`; a vector it does
    /// not declare is never read or written by its hooks, so the engine
    /// neither copies nor compares it.
    const USES_G: bool;
    /// Whether the semiring maintains the parent vector [`StateVecs::p`].
    const USES_P: bool;

    /// Element-wise `op1` (used to merge SlimChunk partial results).
    fn op1<const C: usize>(a: SimdF32<C>, b: SimdF32<C>) -> SimdF32<C>;

    /// Inner-loop step: `op1(acc, op2(vals, rhs))`.
    fn combine<const C: usize>(acc: SimdF32<C>, vals: SimdF32<C>, rhs: SimdF32<C>) -> SimdF32<C>;

    /// Initializes state and distance vectors for a run rooted at the
    /// *permuted* vertex `root`. Rows in `n..n_padded` are virtual
    /// padding rows and are initialized to look "finished" so SlimWork
    /// can skip their chunk.
    fn init(state: &mut StateVecs, d: &mut [f32], n: usize, root: usize);

    /// Post-MV chunk processing (Listing 5 lines 22–45): derives the next
    /// frontier, updates distances/parents, reports whether anything in
    /// this chunk changed.
    #[allow(clippy::too_many_arguments)]
    fn post_chunk<const C: usize>(
        acc: SimdF32<C>,
        cur: &StateVecs,
        base: usize,
        nxt_x: &mut [f32],
        nxt_g: &mut [f32],
        nxt_p: &mut [f32],
        d: &mut [f32],
        depth: f32,
    ) -> bool;

    /// SlimWork skip criterion (Listing 7): true if the chunk's outputs
    /// can no longer change and its computation may be skipped.
    fn should_skip(cur: &StateVecs, rows: Range<usize>) -> bool;

    /// Final distances in permuted space (`∞` = unreachable).
    fn distances<'a>(state: &'a StateVecs, d: &'a [f32]) -> &'a [f32];

    /// Final parents in permuted space (1-based; 0 = none), if computed.
    fn parents(state: &StateVecs) -> Option<&[f32]>;
}

/// Carries a skipped chunk's state into the next iteration (Listing 7
/// line 18: `store(&x_k[i*C], load(&x_{k-1}[i*C]))`): copies the chunk's
/// lanes of the vectors `S` declares from `cur` into the next-state
/// slices.
#[inline]
pub fn copy_forward<S: Semiring>(
    cur: &StateVecs,
    base: usize,
    nxt_x: &mut [f32],
    nxt_g: &mut [f32],
    nxt_p: &mut [f32],
) {
    let c = nxt_x.len();
    nxt_x.copy_from_slice(&cur.x[base..base + c]);
    if S::USES_G {
        nxt_g.copy_from_slice(&cur.g[base..base + c]);
    }
    if S::USES_P {
        nxt_p.copy_from_slice(&cur.p[base..base + c]);
    }
}

/// Establishes the worklist invariant once per run: copies the vectors
/// `S` declares from `src` into `dst`, so that outside the worklist the
/// next-state buffer already equals the current state. Undeclared
/// vectors stay untouched — both buffers start zeroed, so they are
/// already equal.
pub fn clone_state<S: Semiring>(src: &StateVecs, dst: &mut StateVecs) {
    dst.x.copy_from_slice(&src.x);
    if S::USES_G {
        dst.g.copy_from_slice(&src.g);
    }
    if S::USES_P {
        dst.p.copy_from_slice(&src.p);
    }
}

/// Exact output-change test: whether a chunk's freshly written
/// next-state differs **bit-wise** from the previous state over the
/// vectors `S` declares. The scalar reference of
/// [`state_changed_mask`], which is what the sweeps record.
///
/// This is deliberately stricter than the `post_chunk` return value
/// (which reports "the frontier advanced here" and may be `false` while
/// e.g. a boolean frontier bit clears): a chunk may safely drop off the
/// worklist only when *nothing* another chunk could gather — or its own
/// post-processing could read — has changed.
pub fn state_changed<S: Semiring>(
    cur: &StateVecs,
    base: usize,
    nxt_x: &[f32],
    nxt_g: &[f32],
    nxt_p: &[f32],
) -> bool {
    let c = nxt_x.len();
    slice_bits_differ(&cur.x[base..base + c], nxt_x)
        || (S::USES_G && slice_bits_differ(&cur.g[base..base + c], nxt_g))
        || (S::USES_P && slice_bits_differ(&cur.p[base..base + c], nxt_p))
}

/// Lane-granular form of [`state_changed`]: bit `l` of the result is set
/// iff lane `l` (row `base + l`) of any vector `S` declares changed
/// bit-wise. Every recording sweep stores this mask per chunk; the
/// worklist engine walks only these lanes of the changed chunk's columns
/// ([`ActivationState::seed`]), so a changed chunk only activates
/// dependents that gather from its *changed rows*.
///
/// Invariants (pinned by the lane-mask property suite):
/// `state_changed_mask != 0` ⟺ [`state_changed`], and each bit equals a
/// per-lane replay of `state_changed` on a one-lane window.
///
/// [`ActivationState::seed`]: crate::worklist::ActivationState::seed
#[inline]
pub fn state_changed_mask<S: Semiring, const C: usize>(
    cur: &StateVecs,
    base: usize,
    nxt_x: &[f32],
    nxt_g: &[f32],
    nxt_p: &[f32],
) -> u32 {
    let mut mask = lanes_ne_bits::<C>(&cur.x[base..], nxt_x);
    if S::USES_G {
        mask |= lanes_ne_bits::<C>(&cur.g[base..], nxt_g);
    }
    if S::USES_P {
        mask |= lanes_ne_bits::<C>(&cur.p[base..], nxt_p);
    }
    mask
}

/// Tropical semiring `T = (ℝ ∪ {∞}, min, +, ∞, 0)` (§III-A1): `x` holds
/// tentative distances; `d = x_D` directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct TropicalSemiring;

impl Semiring for TropicalSemiring {
    const NAME: &'static str = "tropical";
    const PAD: f32 = f32::INFINITY;
    const OP1_IDENTITY: f32 = f32::INFINITY;
    const USES_G: bool = false;
    const USES_P: bool = false;

    #[inline(always)]
    fn op1<const C: usize>(a: SimdF32<C>, b: SimdF32<C>) -> SimdF32<C> {
        a.min(b)
    }

    #[inline(always)]
    fn combine<const C: usize>(acc: SimdF32<C>, vals: SimdF32<C>, rhs: SimdF32<C>) -> SimdF32<C> {
        // x = MIN(ADD(rhs, vals), x)
        rhs.add(vals).min(acc)
    }

    fn init(state: &mut StateVecs, _d: &mut [f32], n: usize, root: usize) {
        state.x[..n].fill(f32::INFINITY);
        state.x[n..].fill(0.0); // virtual padding rows look visited
        state.x[root] = 0.0;
    }

    #[inline(always)]
    fn post_chunk<const C: usize>(
        acc: SimdF32<C>,
        cur: &StateVecs,
        base: usize,
        nxt_x: &mut [f32],
        _nxt_g: &mut [f32],
        _nxt_p: &mut [f32],
        _d: &mut [f32],
        _depth: f32,
    ) -> bool {
        let old = SimdF32::<C>::load(&cur.x[base..]);
        acc.store(nxt_x);
        acc.any_ne(old)
    }

    #[inline]
    fn should_skip(cur: &StateVecs, rows: Range<usize>) -> bool {
        // Listing 7: go on if any distance is still ∞.
        cur.x[rows].iter().all(|&x| x != f32::INFINITY)
    }

    fn distances<'a>(state: &'a StateVecs, _d: &'a [f32]) -> &'a [f32] {
        &state.x
    }

    fn parents(_state: &StateVecs) -> Option<&[f32]> {
        None
    }
}

/// Boolean semiring `B = ({0,1}, |, &, 0, 1)` (§III-A3): `x` is the 0/1
/// frontier, `g` the unvisited filter, distances recorded per iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct BooleanSemiring;

impl Semiring for BooleanSemiring {
    const NAME: &'static str = "boolean";
    const PAD: f32 = 0.0;
    const OP1_IDENTITY: f32 = 0.0;
    const USES_G: bool = true;
    const USES_P: bool = false;

    #[inline(always)]
    fn op1<const C: usize>(a: SimdF32<C>, b: SimdF32<C>) -> SimdF32<C> {
        a.or_bits(b)
    }

    #[inline(always)]
    fn combine<const C: usize>(acc: SimdF32<C>, vals: SimdF32<C>, rhs: SimdF32<C>) -> SimdF32<C> {
        // x = OR(AND(rhs, vals), x); rhs and vals are {0,1} so the f32
        // bitwise ops act logically (see slimsell-simd docs).
        rhs.and_bits(vals).or_bits(acc)
    }

    fn init(state: &mut StateVecs, d: &mut [f32], n: usize, root: usize) {
        state.x.fill(0.0);
        state.g[..n].fill(1.0);
        state.g[n..].fill(0.0); // padding rows: already "visited"
        d.fill(f32::INFINITY);
        state.x[root] = 1.0;
        state.g[root] = 0.0;
        d[root] = 0.0;
    }

    #[inline(always)]
    fn post_chunk<const C: usize>(
        acc: SimdF32<C>,
        cur: &StateVecs,
        base: usize,
        nxt_x: &mut [f32],
        nxt_g: &mut [f32],
        _nxt_p: &mut [f32],
        d: &mut [f32],
        depth: f32,
    ) -> bool {
        let g = SimdF32::<C>::load(&cur.g[base..]);
        // x = CMP(AND(x, g), 0, NEQ) — the new frontier, filtered.
        let newf = acc.mask_and(g);
        newf.store(nxt_x);
        // d = BLEND(d, depth, x_mask)
        let dv = SimdF32::<C>::load(d);
        SimdF32::blend(dv, SimdF32::splat(depth), newf).store(d);
        // g = AND(NOT(x_mask), g)
        g.mask_and(newf.mask_not()).store(nxt_g);
        newf.any_nonzero()
    }

    #[inline]
    fn should_skip(cur: &StateVecs, rows: Range<usize>) -> bool {
        // Listing 7: go on if any filter entry is still non-zero.
        cur.g[rows].iter().all(|&g| g == 0.0)
    }

    fn distances<'a>(_state: &'a StateVecs, d: &'a [f32]) -> &'a [f32] {
        d
    }

    fn parents(_state: &StateVecs) -> Option<&[f32]> {
        None
    }
}

/// Real semiring `R = (ℝ, +, ·, 0, 1)` (§III-A2): like boolean but `x`
/// carries walk counts; the frontier keeps the counts and the filter
/// masks visited vertices. Counts may saturate to `∞` on large dense
/// graphs, which stays non-zero and therefore semantically harmless for
/// BFS (masking is done with blends, never multiplications, to avoid
/// `∞ · 0 = NaN`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RealSemiring;

impl Semiring for RealSemiring {
    const NAME: &'static str = "real";
    const PAD: f32 = 0.0;
    const OP1_IDENTITY: f32 = 0.0;
    const USES_G: bool = true;
    const USES_P: bool = false;

    #[inline(always)]
    fn op1<const C: usize>(a: SimdF32<C>, b: SimdF32<C>) -> SimdF32<C> {
        a.add(b)
    }

    #[inline(always)]
    fn combine<const C: usize>(acc: SimdF32<C>, vals: SimdF32<C>, rhs: SimdF32<C>) -> SimdF32<C> {
        // x = ADD(MUL(rhs, vals), x)
        rhs.mul(vals).add(acc)
    }

    fn init(state: &mut StateVecs, d: &mut [f32], n: usize, root: usize) {
        state.x.fill(0.0);
        state.g[..n].fill(1.0);
        state.g[n..].fill(0.0);
        d.fill(f32::INFINITY);
        state.x[root] = 1.0;
        state.g[root] = 0.0;
        d[root] = 0.0;
    }

    #[inline(always)]
    fn post_chunk<const C: usize>(
        acc: SimdF32<C>,
        cur: &StateVecs,
        base: usize,
        nxt_x: &mut [f32],
        nxt_g: &mut [f32],
        _nxt_p: &mut [f32],
        d: &mut [f32],
        depth: f32,
    ) -> bool {
        let g = SimdF32::<C>::load(&cur.g[base..]);
        let newmask = acc.cmp_neq(SimdF32::zero()).mask_and(g);
        // Frontier keeps the walk counts of newly discovered vertices.
        SimdF32::blend(SimdF32::zero(), acc, newmask).store(nxt_x);
        let dv = SimdF32::<C>::load(d);
        SimdF32::blend(dv, SimdF32::splat(depth), newmask).store(d);
        g.mask_and(newmask.mask_not()).store(nxt_g);
        newmask.any_nonzero()
    }

    #[inline]
    fn should_skip(cur: &StateVecs, rows: Range<usize>) -> bool {
        cur.g[rows].iter().all(|&g| g == 0.0)
    }

    fn distances<'a>(_state: &'a StateVecs, d: &'a [f32]) -> &'a [f32] {
        d
    }

    fn parents(_state: &StateVecs) -> Option<&[f32]> {
        None
    }
}

/// Sel-max semiring `(ℝ, max, ·, −∞, 1)` (§III-A4): `x` carries 1-based
/// vertex indices of visited vertices; the MV propagates the *maximum
/// visited neighbor index*, which becomes the parent of each newly
/// reached vertex — no `DP` transformation needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelMaxSemiring;

impl Semiring for SelMaxSemiring {
    const NAME: &'static str = "sel-max";
    const PAD: f32 = 0.0;
    /// `x` values are ≥ 0, so 0 is an effective `max` identity here (the
    /// true identity −∞ is unnecessary and 0 matches the paper's unused
    /// `x` lanes).
    const OP1_IDENTITY: f32 = 0.0;
    const USES_G: bool = false;
    const USES_P: bool = true;

    #[inline(always)]
    fn op1<const C: usize>(a: SimdF32<C>, b: SimdF32<C>) -> SimdF32<C> {
        a.max(b)
    }

    #[inline(always)]
    fn combine<const C: usize>(acc: SimdF32<C>, vals: SimdF32<C>, rhs: SimdF32<C>) -> SimdF32<C> {
        // x = MAX(MUL(rhs, vals), x)
        rhs.mul(vals).max(acc)
    }

    fn init(state: &mut StateVecs, d: &mut [f32], n: usize, root: usize) {
        // f32 represents integers exactly only up to 2^24; indices are
        // 1-based so n must stay below that.
        assert!(n < (1 << 24), "sel-max indices exceed f32 exact-integer range (n = {n})");
        state.x.fill(0.0);
        state.p[..n].fill(0.0);
        state.p[n..].fill(1.0); // padding rows: pretend they have parents
        d.fill(f32::INFINITY);
        state.x[root] = (root + 1) as f32;
        state.p[root] = (root + 1) as f32;
        d[root] = 0.0;
    }

    #[inline(always)]
    fn post_chunk<const C: usize>(
        acc: SimdF32<C>,
        cur: &StateVecs,
        base: usize,
        nxt_x: &mut [f32],
        _nxt_g: &mut [f32],
        nxt_p: &mut [f32],
        d: &mut [f32],
        depth: f32,
    ) -> bool {
        let old_p = SimdF32::<C>::load(&cur.p[base..]);
        let nzx = acc.cmp_neq(SimdF32::zero());
        // Newly discovered: x became non-zero and no parent recorded yet.
        let newly = nzx.mask_and(old_p.cmp_eq(SimdF32::zero()));
        // p_k = p_{k-1} + p̄_{k-1} ⊙ x_k (blend form).
        SimdF32::blend(old_p, acc, newly).store(nxt_p);
        // x_k = ¬¬x_k ⊙ (1, 2, …, n): visited vertices broadcast their
        // own 1-based index.
        let idx = SimdF32::<C>::from_fn(|l| (base + l + 1) as f32);
        SimdF32::blend(SimdF32::zero(), idx, nzx).store(nxt_x);
        let dv = SimdF32::<C>::load(d);
        SimdF32::blend(dv, SimdF32::splat(depth), newly).store(d);
        newly.any_nonzero()
    }

    #[inline]
    fn should_skip(cur: &StateVecs, rows: Range<usize>) -> bool {
        // Listing 7: go on if any parent entry is still 0.
        cur.p[rows].iter().all(|&p| p != 0.0)
    }

    fn distances<'a>(_state: &'a StateVecs, d: &'a [f32]) -> &'a [f32] {
        d
    }

    fn parents(state: &StateVecs) -> Option<&[f32]> {
        Some(&state.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: usize = 4;

    #[test]
    fn tropical_combine_is_min_plus() {
        let acc = SimdF32::<C>([5.0, f32::INFINITY, 2.0, 0.0]);
        let vals = SimdF32::<C>([1.0, 1.0, f32::INFINITY, 1.0]);
        let rhs = SimdF32::<C>([3.0, 0.0, 7.0, f32::INFINITY]);
        let out = TropicalSemiring::combine(acc, vals, rhs);
        assert_eq!(out.0, [4.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn boolean_combine_is_or_and() {
        let acc = SimdF32::<C>([0.0, 1.0, 0.0, 0.0]);
        let vals = SimdF32::<C>([1.0, 0.0, 1.0, 0.0]);
        let rhs = SimdF32::<C>([1.0, 1.0, 0.0, 1.0]);
        let out = BooleanSemiring::combine(acc, vals, rhs);
        assert_eq!(out.0, [1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn real_combine_counts_walks() {
        let acc = SimdF32::<C>([1.0, 0.0, 0.0, 2.0]);
        let vals = SimdF32::<C>([1.0, 1.0, 0.0, 1.0]);
        let rhs = SimdF32::<C>([2.0, 3.0, 5.0, 1.0]);
        let out = RealSemiring::combine(acc, vals, rhs);
        assert_eq!(out.0, [3.0, 3.0, 0.0, 3.0]);
    }

    #[test]
    fn selmax_combine_keeps_max_index() {
        let acc = SimdF32::<C>([0.0, 4.0, 0.0, 0.0]);
        let vals = SimdF32::<C>([1.0, 1.0, 0.0, 1.0]);
        let rhs = SimdF32::<C>([7.0, 2.0, 9.0, 0.0]);
        let out = SelMaxSemiring::combine(acc, vals, rhs);
        assert_eq!(out.0, [7.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn pads_annihilate() {
        // Padding must never affect the accumulator, whatever rhs is.
        let acc = SimdF32::<C>::splat(3.0);
        for rhs in [0.0f32, 1.0, 42.0] {
            let t = TropicalSemiring::combine(
                acc,
                SimdF32::splat(TropicalSemiring::PAD),
                SimdF32::splat(rhs),
            );
            assert_eq!(t.0, acc.0, "tropical pad leaked for rhs {rhs}");
            let b = BooleanSemiring::combine(
                SimdF32::<C>::splat(1.0),
                SimdF32::splat(BooleanSemiring::PAD),
                SimdF32::splat(if rhs != 0.0 { 1.0 } else { 0.0 }),
            );
            assert_eq!(b.0, [1.0; C]);
            let r =
                RealSemiring::combine(acc, SimdF32::splat(RealSemiring::PAD), SimdF32::splat(rhs));
            assert_eq!(r.0, acc.0, "real pad leaked");
            let s = SelMaxSemiring::combine(
                acc,
                SimdF32::splat(SelMaxSemiring::PAD),
                SimdF32::splat(rhs),
            );
            assert_eq!(s.0, acc.0, "sel-max pad leaked");
        }
    }

    #[test]
    fn tropical_init_and_skip() {
        let mut st = StateVecs::new(8);
        let mut d = vec![0.0; 8];
        TropicalSemiring::init(&mut st, &mut d, 6, 2);
        assert_eq!(st.x[2], 0.0);
        assert!(st.x[0].is_infinite());
        assert_eq!(st.x[7], 0.0); // padding row
        assert!(!TropicalSemiring::should_skip(&st, 0..4)); // has ∞
        st.x[..4].fill(3.0);
        assert!(TropicalSemiring::should_skip(&st, 0..4));
    }

    #[test]
    fn boolean_init_and_skip() {
        let mut st = StateVecs::new(8);
        let mut d = vec![0.0; 8];
        BooleanSemiring::init(&mut st, &mut d, 6, 1);
        assert_eq!(st.x[1], 1.0);
        assert_eq!(st.g[1], 0.0);
        assert_eq!(st.g[0], 1.0);
        assert_eq!(st.g[6], 0.0); // padding
        assert_eq!(d[1], 0.0);
        assert!(d[0].is_infinite());
        assert!(!BooleanSemiring::should_skip(&st, 0..4));
        st.g[..4].fill(0.0);
        assert!(BooleanSemiring::should_skip(&st, 0..4));
    }

    #[test]
    fn selmax_init_and_skip() {
        let mut st = StateVecs::new(8);
        let mut d = vec![0.0; 8];
        SelMaxSemiring::init(&mut st, &mut d, 6, 0);
        assert_eq!(st.x[0], 1.0);
        assert_eq!(st.p[0], 1.0);
        assert_eq!(st.p[7], 1.0); // padding
        assert!(!SelMaxSemiring::should_skip(&st, 0..4));
        st.p[..4].fill(2.0);
        assert!(SelMaxSemiring::should_skip(&st, 0..4));
    }

    #[test]
    fn boolean_post_chunk_updates_all_vectors() {
        let mut cur = StateVecs::new(C);
        cur.g = vec![1.0, 1.0, 0.0, 1.0]; // lane 2 already visited
        let acc = SimdF32::<C>([1.0, 0.0, 1.0, 1.0]); // MV says lanes 0,2,3 reached
        let (mut nx, mut ng, mut np) = (vec![0.0; C], vec![0.0; C], vec![0.0; C]);
        let mut d = vec![f32::INFINITY; C];
        let changed =
            BooleanSemiring::post_chunk(acc, &cur, 0, &mut nx, &mut ng, &mut np, &mut d, 3.0);
        assert!(changed);
        assert_eq!(nx, vec![1.0, 0.0, 0.0, 1.0]); // lane 2 filtered by g
        assert_eq!(ng, vec![0.0, 1.0, 0.0, 0.0]);
        assert_eq!(d[0], 3.0);
        assert!(d[1].is_infinite());
        assert!(d[2].is_infinite()); // visited earlier; not overwritten here
        assert_eq!(d[3], 3.0);
    }

    #[test]
    fn selmax_post_chunk_sets_parent_and_index() {
        let mut cur = StateVecs::new(8); // chunk at base 4
        cur.p[4..8].copy_from_slice(&[0.0, 5.0, 0.0, 0.0]); // lane 1 has a parent already
        let acc = SimdF32::<C>([7.0, 9.0, 0.0, 3.0]);
        let (mut nx, mut ng, mut np) = (vec![0.0; C], vec![0.0; C], vec![0.0; C]);
        let mut d = vec![f32::INFINITY; C];
        let changed =
            SelMaxSemiring::post_chunk(acc, &cur, 4, &mut nx, &mut ng, &mut np, &mut d, 2.0);
        assert!(changed);
        assert_eq!(np, vec![7.0, 5.0, 0.0, 3.0]); // lane 1 keeps old parent
                                                  // Base 4 → lanes are vertices 4..8, 1-based indices 5..9.
        assert_eq!(nx, vec![5.0, 6.0, 0.0, 8.0]);
        assert_eq!(d, vec![2.0, f32::INFINITY, f32::INFINITY, 2.0]);
    }

    #[test]
    fn state_changed_is_exact_where_post_chunk_flag_is_not() {
        // Boolean: an old frontier bit clearing is a real state change
        // (other chunks gather x) even though post_chunk reports no
        // newly discovered vertices. The worklist engine relies on
        // state_changed catching exactly this case.
        let mut cur = StateVecs::new(C);
        cur.x = vec![1.0, 0.0, 0.0, 0.0]; // old frontier
        cur.g = vec![0.0; C]; // everything visited
        let acc = SimdF32::<C>::splat(0.0);
        let (mut nx, mut ng, mut np) = (vec![0.0; C], vec![0.0; C], vec![0.0; C]);
        let mut d = vec![f32::INFINITY; C];
        let advanced =
            BooleanSemiring::post_chunk(acc, &cur, 0, &mut nx, &mut ng, &mut np, &mut d, 2.0);
        assert!(!advanced, "no new frontier");
        assert!(state_changed::<BooleanSemiring>(&cur, 0, &nx, &ng, &np), "x cleared 1 -> 0");
        // Once settled (all-zero frontier in, all-zero out), no change.
        cur.x.fill(0.0);
        let advanced =
            BooleanSemiring::post_chunk(acc, &cur, 0, &mut nx, &mut ng, &mut np, &mut d, 3.0);
        assert!(!advanced);
        assert!(!state_changed::<BooleanSemiring>(&cur, 0, &nx, &ng, &np));
        // Tropical ignores g/p garbage: only x counts.
        let mut tcur = StateVecs::new(C);
        tcur.x = vec![1.0, 2.0, 3.0, 4.0];
        tcur.g = vec![9.0; C];
        assert!(!state_changed::<TropicalSemiring>(&tcur, 0, &tcur.x.clone(), &nx, &np));
        assert!(state_changed::<TropicalSemiring>(&tcur, 0, &[1.0, 2.0, 3.0, 5.0], &nx, &np));
    }

    #[test]
    fn tropical_post_chunk_reports_change() {
        let mut cur = StateVecs::new(C);
        cur.x = vec![f32::INFINITY; C];
        let acc = SimdF32::<C>([1.0, f32::INFINITY, f32::INFINITY, f32::INFINITY]);
        let (mut nx, mut ng, mut np) = (vec![0.0; C], vec![0.0; C], vec![0.0; C]);
        let mut d = vec![0.0; C];
        assert!(TropicalSemiring::post_chunk(acc, &cur, 0, &mut nx, &mut ng, &mut np, &mut d, 1.0));
        assert_eq!(nx[0], 1.0);
        // No change → false.
        cur.x = nx.clone();
        assert!(!TropicalSemiring::post_chunk(
            SimdF32::<C>::load(&cur.x),
            &cur,
            0,
            &mut nx,
            &mut ng,
            &mut np,
            &mut d,
            2.0
        ));
    }
}
