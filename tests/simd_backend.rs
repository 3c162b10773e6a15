//! SIMD primitive and lane-mask invariants at the kernel level.
//!
//! The portable lane loops in `crates/simd` are the only implementation
//! of the vector primitives, so every kernel output must be
//! byte-for-byte equal across sweep dispatchers and thread counts at
//! every lane count. The lane-granular change masks must agree with a
//! per-lane replay of the chunk-granular change test, and filtering
//! worklist activation probes through them must never pay more than the
//! chunk-granular fan-out — and must pay strictly less on a
//! high-diameter graph, where partial-chunk frontiers dominate.

use slimsell::prelude::*;
use slimsell::simd::SimdF32;
use slimsell_bench::dispatch::{prepare, RepKind, SemiringKind};
use slimsell_core::semiring::{
    clone_state, copy_forward, state_changed, state_changed_mask, StateVecs,
};
use slimsell_gen::geometric::road_network;
use slimsell_gen::rng::Xoshiro256pp;

fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// Every kernel configuration must produce the same distances (and
/// parents, where computed) under every sweep × thread-count
/// combination — the full/1-thread run is the reference. (The name
/// dates from when runtime-selected intrinsics backends were a third
/// axis; the portable lane loops are now the only one.)
#[test]
fn kernels_bit_identical_across_backends() {
    let g = kronecker(9, 8.0, KroneckerParams::GRAPH500, 21);
    let n = g.num_vertices();
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let reference = serial_bfs(&g, root);
    let sweeps = [SweepMode::Full, SweepMode::Worklist, SweepMode::Adaptive];
    for c in [4usize, 8, 16, 32] {
        for sem in SemiringKind::ALL {
            let p = prepare(&g, c, n, RepKind::SlimSell, sem);
            let mut baseline: Option<(Vec<u32>, Option<Vec<VertexId>>)> = None;
            for sweep in sweeps {
                for threads in [1usize, 2, 8] {
                    let opts = BfsOptions::default().sweep(sweep);
                    let out = with_threads(threads, || p.run(root, &opts));
                    assert_eq!(
                        out.dist,
                        reference.dist,
                        "C={c} {} {sweep:?} {threads}T",
                        sem.name()
                    );
                    let got = (out.dist, out.parent);
                    match &baseline {
                        None => baseline = Some(got),
                        Some(b) => assert_eq!(
                            *b,
                            got,
                            "C={c} {} {sweep:?} {threads}T differs from full/1T",
                            sem.name()
                        ),
                    }
                }
            }
        }
    }
}

/// `state_changed_mask` must equal a per-lane replay of the
/// chunk-granular `state_changed` test (and be non-zero exactly when it
/// fires), for every semiring and lane count, over randomized state
/// windows that include the engines' sentinel values.
#[test]
fn change_mask_equals_per_lane_replay() {
    fn check<S: Semiring, const C: usize>(rng: &mut Xoshiro256pp) {
        // Values the engines actually store: identities, depths, ±0,
        // and a NaN bit pattern (bit-wise comparison must see through
        // all of them).
        const VALS: [f32; 6] = [0.0, -0.0, 1.0, 2.5, f32::INFINITY, f32::NAN];
        let pick = |r: &mut Xoshiro256pp| VALS[(r.next_u32() as usize) % VALS.len()];
        for _ in 0..200 {
            let mut cur = StateVecs::new(2 * C);
            let (mut nx, mut ng, mut np) = (vec![0.0f32; C], vec![0.0f32; C], vec![0.0f32; C]);
            let base = if rng.next_u32().is_multiple_of(2) { 0 } else { C };
            for l in 0..C {
                cur.x[base + l] = pick(rng);
                cur.g[base + l] = pick(rng);
                cur.p[base + l] = pick(rng);
                // Bias toward equality so unchanged lanes are common.
                nx[l] = if rng.next_u32().is_multiple_of(2) { cur.x[base + l] } else { pick(rng) };
                ng[l] = if rng.next_u32().is_multiple_of(2) { cur.g[base + l] } else { pick(rng) };
                np[l] = if rng.next_u32().is_multiple_of(2) { cur.p[base + l] } else { pick(rng) };
            }
            let mask = state_changed_mask::<S, C>(&cur, base, &nx, &ng, &np);
            assert_eq!(mask & !slimsell_core::worklist::full_lane_mask(C), 0, "stray bits");
            for l in 0..C {
                let lane =
                    state_changed::<S>(&cur, base + l, &nx[l..l + 1], &ng[l..l + 1], &np[l..l + 1]);
                assert_eq!(
                    mask >> l & 1 == 1,
                    lane,
                    "{} C={C} lane {l}: mask {mask:#x} vs replay {lane}",
                    S::NAME
                );
            }
            assert_eq!(mask != 0, state_changed::<S>(&cur, base, &nx, &ng, &np), "{}", S::NAME);
        }
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0xC0FFEE);
    macro_rules! all_c {
        ($sem:ty) => {
            check::<$sem, 4>(&mut rng);
            check::<$sem, 8>(&mut rng);
            check::<$sem, 16>(&mut rng);
            check::<$sem, 32>(&mut rng);
        };
    }
    all_c!(TropicalSemiring);
    all_c!(BooleanSemiring);
    all_c!(RealSemiring);
    all_c!(SelMaxSemiring);
}

/// Each semiring's `USES_G`/`USES_P` declaration is true: `init`,
/// `post_chunk` and the engine's `copy_forward`/`clone_state` leave a
/// NaN sentinel in every undeclared vector bit-for-bit, `post_chunk`'s
/// outputs do not depend on what the undeclared vectors hold, and a
/// change confined to undeclared vectors sets no bit of
/// `state_changed_mask`.
#[test]
fn semiring_state_declarations_hold() {
    fn check<S: Semiring, const C: usize>(rng: &mut Xoshiro256pp) {
        const SENTINEL: u32 = 0x7fc5_a5a5;
        const VALS: [f32; 5] = [0.0, 1.0, 2.5, 7.0, f32::INFINITY];
        let nan = f32::from_bits(SENTINEL);
        let fill_undeclared = |st: &mut StateVecs, v: f32| {
            if !S::USES_G {
                st.g.fill(v);
            }
            if !S::USES_P {
                st.p.fill(v);
            }
        };
        let assert_untouched = |st: &StateVecs, hook: &str| {
            for (name, used, v) in [("g", S::USES_G, &st.g), ("p", S::USES_P, &st.p)] {
                assert!(
                    used || v.iter().all(|x| x.to_bits() == SENTINEL),
                    "{} C={C}: {hook} wrote undeclared {name}",
                    S::NAME
                );
            }
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let np = 2 * C;
        for _ in 0..50 {
            let n = np - rng.next_u32() as usize % C;
            let root = rng.next_u32() as usize % n;
            let mut cur = StateVecs::new(np);
            fill_undeclared(&mut cur, nan);
            let mut d = vec![0.0f32; np];
            S::init(&mut cur, &mut d, n, root);
            assert_untouched(&cur, "init");

            let base = if rng.next_u32().is_multiple_of(2) { 0 } else { C };
            let acc = SimdF32::<C>::from_fn(|_| VALS[rng.next_u32() as usize % VALS.len()]);
            let post = |cur: &StateVecs, rest: f32| {
                let mut out = StateVecs::new(C);
                fill_undeclared(&mut out, rest);
                let mut dd = d[base..base + C].to_vec();
                let adv =
                    S::post_chunk(acc, cur, base, &mut out.x, &mut out.g, &mut out.p, &mut dd, 3.0);
                (out, dd, adv)
            };
            let (out, dd, adv) = post(&cur, nan);
            assert_untouched(&out, "post_chunk");
            let mut zeroed = cur.clone();
            fill_undeclared(&mut zeroed, 0.0);
            let (out0, dd0, adv0) = post(&zeroed, nan);
            assert_eq!(
                (bits(&out.x), bits(&out.g), bits(&out.p), bits(&dd), adv),
                (bits(&out0.x), bits(&out0.g), bits(&out0.p), bits(&dd0), adv0),
                "{} C={C}: post_chunk read an undeclared vector",
                S::NAME
            );

            let mut fwd = StateVecs::new(C);
            fill_undeclared(&mut fwd, nan);
            copy_forward::<S>(&cur, base, &mut fwd.x, &mut fwd.g, &mut fwd.p);
            assert_untouched(&fwd, "copy_forward");
            let mut dst = StateVecs::new(np);
            fill_undeclared(&mut dst, nan);
            clone_state::<S>(&cur, &mut dst);
            assert_untouched(&dst, "clone_state");

            // Declared lanes equal, undeclared lanes all different.
            let same = |used: bool, v: &[f32]| {
                if used {
                    v[base..base + C].to_vec()
                } else {
                    vec![1.0; C]
                }
            };
            let (nx, ng, np_) =
                (same(true, &cur.x), same(S::USES_G, &cur.g), same(S::USES_P, &cur.p));
            let mask = state_changed_mask::<S, C>(&cur, base, &nx, &ng, &np_);
            assert_eq!(mask, 0, "{} C={C}: undeclared change set mask {mask:#x}", S::NAME);
            assert!(!state_changed::<S>(&cur, base, &nx, &ng, &np_), "{} C={C}", S::NAME);
        }
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED);
    macro_rules! all_c {
        ($sem:ty) => {
            check::<$sem, 4>(&mut rng);
            check::<$sem, 8>(&mut rng);
            check::<$sem, 16>(&mut rng);
            check::<$sem, 32>(&mut rng);
        };
    }
    all_c!(TropicalSemiring);
    all_c!(BooleanSemiring);
    all_c!(RealSemiring);
    all_c!(SelMaxSemiring);
}

/// Replays a tropical worklist run's seed stream against the dependency
/// graph and returns (lane-filtered, chunk-granular) activation totals.
/// The iteration-`k` seeds are exactly the lanes finalized at depth `k`
/// (tropical `x` goes ∞ → k there and never changes again), so the
/// whole stream is recoverable from the reference distances.
fn activation_totals<const C: usize>(g: &CsrGraph, root: VertexId) -> (u64, u64, u64) {
    let n = g.num_vertices();
    let m = SlimSellMatrix::<C>::build(g, n);
    let s = m.structure();
    let dep = s.dep_graph();
    let perm = s.perm();
    let reference = serial_bfs(g, root);
    let max_depth = reference.dist.iter().filter(|&&d| d != UNREACHABLE).max().copied().unwrap();
    let nc = s.num_chunks();
    let (mut filtered, mut granular) = (0u64, 0u64);
    for depth in 0..=max_depth {
        // Per-chunk merged lane masks of this depth layer — what the
        // sweep's harvest hands the next worklist build.
        let mut masks = vec![0u32; nc];
        for old in 0..n {
            if reference.dist[old] == depth {
                let v = perm.to_new(old as VertexId) as usize;
                masks[v / C] |= 1u32 << (v % C);
            }
        }
        for (j, &mask) in masks.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            granular += dep.dependents(j).len() as u64;
            filtered += dep.edge_masks(j).iter().filter(|&&em| em & mask != 0).count() as u64;
        }
    }
    // The engine's own total for cross-checking the replay.
    let opts = BfsOptions::default().sweep(SweepMode::Worklist);
    let out = BfsEngine::run::<_, TropicalSemiring, C>(&m, root, &opts);
    assert_eq!(out.dist, reference.dist);
    (filtered, granular, out.stats.total_activations())
}

/// Lane-filtered activation probes are never more than the
/// chunk-granular fan-out, the engine's counter matches an independent
/// replay of its seed stream, and a high-diameter (road-network) graph
/// at scale 13 saves strictly.
#[test]
fn lane_masks_cut_worklist_activations() {
    let g = road_network(1 << 13, 3.0, 7);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let (filtered, granular, engine) = activation_totals::<8>(&g, root);
    assert_eq!(engine, filtered, "engine counter disagrees with seed-stream replay");
    assert!(
        filtered < granular,
        "lane masks saved nothing on a high-diameter graph: {filtered} vs {granular}"
    );
    // Low-diameter sanity: still never more.
    let g = kronecker(10, 16.0, KroneckerParams::GRAPH500, 3);
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];
    let (filtered, granular, engine) = activation_totals::<8>(&g, root);
    assert_eq!(engine, filtered);
    assert!(filtered <= granular);
}
