//! Epoch-stamped activation worklists seeded from the matrix's own
//! columns — the substrate of frontier-proportional sweeps.
//!
//! SlimWork (§III-C) skips *finished* chunks, but a full sweep still
//! visits every chunk every iteration just to run the skip test, so a
//! high-diameter graph pays `O(n_chunks × D)` even when the frontier is
//! a thin wavefront. The worklist engine makes the per-iteration cost
//! proportional to the active frontier instead:
//!
//! 1. **The matrix is its own dependency graph.** Chunk `t` must
//!    re-run after chunk `j` changed in lanes `L` iff one of `t`'s rows
//!    gathers from a row `j·C + l` with `l ∈ L`. Every graph here is
//!    undirected and the σ-sort permutes rows and columns
//!    symmetrically, so that holds iff row `j·C + l` itself stores a
//!    column inside `t`'s row range. Seeding is therefore a push step
//!    over the changed lanes of `j`'s own [`ColumnSlab`]: lane `l`
//!    activates `col[cs[j] + k·C + l] / C` for every step `k < cl[j]`,
//!    plus `j` itself (a chunk whose own state changed must re-run its
//!    post-processing, and its double-buffered slot is stale). Nothing
//!    is built or stored up front, and the walk reads only cells of
//!    chunks the previous sweep just processed.
//! 2. [`ActivationState`] turns "which chunks changed last iteration,
//!    and in which lanes" into the next iteration's sorted,
//!    duplicate-free worklist. One stamp word per chunk, holding the
//!    epoch and the seed that last reached it, folds dependents shared
//!    by several seeds and counts each (seed, dependent) pair once, so
//!    the reported activations are the distinct lane-filtered
//!    dependency edges: no hashing, no atomics,
//!    `O(Σ seed cells)` per iteration, deterministic at any thread
//!    count.
//!
//! [`ChunkDepGraph`] materializes the same relation as a chunk-level
//! CSR with per-edge source-lane masks. No kernel reads it: it is the
//! oracle the column walk is tested against, and benchmark reports
//! still time and size it.
//!
//! Correctness rests on one invariant the engine maintains: outside the
//! worklist, the next-state buffer already equals the current state
//! bit-for-bit (a chunk leaves the worklist only after an iteration in
//! which its output did not change), so untouched chunks need no
//! copy-forward and the swap at the end of the iteration is sound. The
//! lane filter preserves it: a dependent that gathers none of the
//! changed rows would recompute bit-identical output, so skipping its
//! activation changes nothing observable.
//!
//! # Example
//!
//! ```
//! use slimsell_core::worklist::{full_lane_mask, ActivationState};
//! use slimsell_core::SellStructure;
//! use slimsell_graph::GraphBuilder;
//!
//! // A path 0-1-…-7 with C = 4: chunk 0 holds rows 0..4, chunk 1 rows
//! // 4..8, and only the 3-4 edge crosses between them.
//! let g = GraphBuilder::new(8).edges((0..7u32).map(|v| (v, v + 1))).build();
//! let s = SellStructure::<4>::build(&g, 1);
//!
//! // Seeding all lanes of chunk 0 activates both chunks; duplicate
//! // seeds are folded up front, duplicate dependents by the stamps.
//! let mut act = ActivationState::new();
//! let full = full_lane_mask(4);
//! act.seed(s.column_slab(), &mut vec![(0, full), (0, full)], None);
//! assert_eq!(act.worklist(), &[0, 1]);
//!
//! // Only row 3 (lane 3) of chunk 0 stores a column in chunk 1: a
//! // change confined to lane 0 re-activates chunk 0 (self edge, all
//! // lanes) but not chunk 1.
//! act.seed(s.column_slab(), &mut vec![(0, 0b0001)], None);
//! assert_eq!(act.worklist(), &[0]);
//! act.seed(s.column_slab(), &mut vec![(0, 0b1000)], None);
//! assert_eq!(act.worklist(), &[0, 1]);
//! ```

use crate::mask::VertexMask;

/// All-lanes mask for chunk height `lanes` (`lanes ≤ 32`; the engine's
/// `SUPPORTED_LANES` max out at 32, matching the `u32` mask width).
#[inline]
pub fn full_lane_mask(lanes: usize) -> u32 {
    if lanes >= 32 {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

/// Chunk-granularity dependency graph in CSR form: for each chunk `j`,
/// the sorted list of chunks that gather from `j`'s row range (its
/// *dependents*, the chunks that must re-run when `j`'s vertices
/// change), always including `j` itself. Each edge carries the mask of
/// `j`'s lanes the dependent actually reads (the self edge is all
/// lanes: any local change requires re-running post-processing).
///
/// The relation it stores is already in the matrix (see the module
/// docs), so no kernel builds or reads one: [`ActivationState::seed`]
/// walks the column slab instead. It stays as the test oracle for that
/// walk and as the structure benchmark reports time and size.
#[derive(Clone, Debug)]
pub struct ChunkDepGraph {
    /// CSR offsets, length `nc + 1`.
    offsets: Vec<usize>,
    /// Dependent chunk ids, ascending within each chunk's slice.
    targets: Vec<u32>,
    /// Per-edge source-lane masks, parallel to `targets`: bit `l` of
    /// `masks[e]` means "edge `e`'s dependent gathers from source lane
    /// `l`".
    masks: Vec<u32>,
}

impl ChunkDepGraph {
    /// Builds the dependency graph from the raw chunk-structure arrays
    /// (`cs`/`cl` chunk offsets and lengths, `col` column indices with
    /// `-1` padding markers, `lanes` = the chunk height `C`).
    ///
    /// Work is `O(2m + P + nc)`: every cell is visited once per pass
    /// (two passes) and per-reader duplicate targets are folded with a
    /// marker array, so the CSR holds each (reader, target) pair once —
    /// repeat encounters OR their lane bit into the existing edge mask.
    pub fn build(nc: usize, cs: &[usize], cl: &[u32], col: &[i32], lanes: usize) -> Self {
        assert!(nc < (u32::MAX / 2) as usize, "chunk count {nc} exceeds dependency-graph range");
        assert!(lanes <= 32, "chunk height {lanes} exceeds the 32-bit lane-mask width");
        // Pass 1: count dependents per target chunk. `stamp[j] == marker
        // of reader i` means "already counted for i"; markers are unique
        // per reader and per pass, so the array never needs clearing.
        let mut stamp = vec![u32::MAX; nc];
        let mut counts = vec![1usize; nc]; // the self edge
        for i in 0..nc {
            let marker = i as u32;
            stamp[i] = marker;
            for &c in &col[cs[i]..cs[i] + cl[i] as usize * lanes] {
                if c < 0 {
                    continue;
                }
                let j = c as usize / lanes;
                if stamp[j] != marker {
                    stamp[j] = marker;
                    counts[j] += 1;
                }
            }
        }
        let mut offsets = vec![0usize; nc + 1];
        for j in 0..nc {
            offsets[j + 1] = offsets[j] + counts[j];
        }
        // Pass 2: fill. Readers are visited in ascending order and each
        // appends itself to its targets' slices, so every slice comes
        // out sorted. Markers are offset by `nc` to stay distinct from
        // pass 1's leftovers; `entry[j]` remembers where reader i's edge
        // from `j` landed so repeat cells OR in further lane bits.
        let mut cursor: Vec<usize> = offsets[..nc].to_vec();
        let mut entry = vec![0usize; nc];
        let mut targets = vec![0u32; offsets[nc]];
        let mut masks = vec![0u32; offsets[nc]];
        for i in 0..nc {
            let marker = (nc + i) as u32;
            stamp[i] = marker;
            entry[i] = cursor[i];
            targets[cursor[i]] = i as u32;
            masks[cursor[i]] = full_lane_mask(lanes); // self edge: all lanes
            cursor[i] += 1;
            for &c in &col[cs[i]..cs[i] + cl[i] as usize * lanes] {
                if c < 0 {
                    continue;
                }
                let j = c as usize / lanes;
                let bit = 1u32 << (c as usize % lanes);
                if stamp[j] != marker {
                    stamp[j] = marker;
                    entry[j] = cursor[j];
                    targets[cursor[j]] = i as u32;
                    masks[cursor[j]] = bit;
                    cursor[j] += 1;
                } else {
                    masks[entry[j]] |= bit;
                }
            }
        }
        Self { offsets, targets, masks }
    }

    /// Number of chunks the graph covers.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sorted dependents of chunk `j` (always contains `j`).
    #[inline]
    pub fn dependents(&self, j: usize) -> &[u32] {
        &self.targets[self.offsets[j]..self.offsets[j + 1]]
    }

    /// Source-lane masks parallel to [`dependents`](Self::dependents):
    /// `edge_masks(j)[e]` is the set of `j`'s lanes that
    /// `dependents(j)[e]` gathers from (the self edge is all lanes).
    #[inline]
    pub fn edge_masks(&self, j: usize) -> &[u32] {
        &self.masks[self.offsets[j]..self.offsets[j + 1]]
    }

    /// Total number of dependency edges (including the `nc` self edges).
    #[inline]
    pub fn num_deps(&self) -> usize {
        self.targets.len()
    }
}

/// A matrix's column slab as the worklist seed reads it: chunk offsets
/// (`cs`), chunk lengths (`cl`), column ids in chunk-column-major order
/// with `-1` padding (`col`), and the chunk height `C` (`lanes`). Cell
/// `cs[j] + k·C + l` is step `k` of row `j·C + l`. Borrowed from
/// [`SellStructure::column_slab`](crate::SellStructure::column_slab) or
/// the weighted matrix; it is also what the adaptive gate
/// ([`crate::sweep::adaptive_sweep`]) prices seeds in.
#[derive(Clone, Copy, Debug)]
pub struct ColumnSlab<'a> {
    /// Chunk start offsets into `col`, length `nc`.
    pub cs: &'a [usize],
    /// Chunk lengths (column steps), length `nc`.
    pub cl: &'a [u32],
    /// Column ids; `-1` marks padding, always at a row's tail.
    pub col: &'a [i32],
    /// The chunk height `C` (at most 32, the lane-mask width).
    pub lanes: usize,
}

impl ColumnSlab<'_> {
    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.cs.len()
    }
}

/// Epoch-stamped worklist builder: turns a set of changed chunks (with
/// their changed-lane masks) into the next iteration's sorted,
/// deduplicated active-chunk list.
///
/// [`seed`](Self::seed) walks every seed chunk's changed rows in the
/// column slab and lists the chunks they name through a stamp array
/// (a stamp from the current epoch means "already on the next list"),
/// so the union
/// is built without hashing or atomics; the result is sorted once,
/// keeping tile partitions and merges deterministic at any thread
/// count. The sweep over the worklist
/// ([`ChunkSet::List`](crate::tiling::ChunkSet::List)) records
/// per-position changed-lane masks, and
/// [`ChunkSet::harvest`](crate::tiling::ChunkSet::harvest) turns them
/// into the next seeds.
#[derive(Clone, Debug, Default)]
pub struct ActivationState {
    /// Per chunk: the epoch (high half) and the seed position (low
    /// half) that last activated it. A high half equal to the current
    /// epoch means "already on the worklist"; the whole word equal to
    /// the current seed's key means "this seed already reached it",
    /// which keeps each (seed, dependent) pair one activation.
    stamp: Vec<u64>,
    epoch: u32,
    worklist: Vec<u32>,
    activations: u64,
}

impl ActivationState {
    /// Creates an empty state; storage is sized lazily on first
    /// [`seed`](Self::seed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the worklist as the sorted, deduplicated set of chunks
    /// named by the seeds' changed rows in `slab`, plus the seeds
    /// themselves. The seed list is sorted and its masks merged (OR)
    /// per chunk first, so callers may push duplicates freely (the
    /// direction-optimized driver pushes one entry per discovered
    /// *vertex*) without multiplying the walks. Returns the number of
    /// activations performed — distinct (seed, dependent) pairs, i.e.
    /// [`ChunkDepGraph`] edges whose lane mask meets the seed's — the
    /// work measure reported as
    /// [`IterStats::activations`](crate::counters::IterStats::activations).
    /// Seeding every chunk with [`full_lane_mask`] reproduces the
    /// chunk-granular behavior exactly.
    ///
    /// A [`VertexMask`] restricts the expansion: dependents with no
    /// allowed real lane are dropped *before* their activation is
    /// counted (a fully masked chunk can never change state, so listing
    /// it would only waste skip tests). Partially masked dependents are
    /// kept — their allowed lanes still need the sweep. The seed's
    /// *self edge* is exempt from the filter: a chunk that changed
    /// last iteration has a stale double-buffered slot that must be
    /// rewritten (via copy-forward if nothing else) before the next
    /// buffer swap, whatever the mask says about it. The worklist
    /// invariant therefore never depends on the caller passing the
    /// same mask every iteration.
    pub fn seed(
        &mut self,
        slab: ColumnSlab<'_>,
        seeds: &mut Vec<(u32, u32)>,
        mask: Option<&VertexMask>,
    ) -> u64 {
        merge_seeds(seeds);
        let (nc, lanes) = (slab.num_chunks(), slab.lanes);
        // Chunk heights are powers of two: `c >> shift` is `c / C`
        // without a hardware divide per cell.
        let shift = lanes.trailing_zeros();
        if self.stamp.len() < nc {
            self.stamp.resize(nc, 0);
        }
        // Advance the epoch; on wrap, clear the stamps so stale epochs
        // can never collide (once every 2^32 - 1 calls).
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let listed = u64::from(self.epoch) << 32;
        let Self { stamp, worklist, .. } = self;
        worklist.clear();
        let mut activations = 0u64;
        // Activates `t` for the seed whose key is `key`, once per pair;
        // the first activation this epoch lists `t`.
        let mut activate = |t: usize, key: u64| {
            let slot = &mut stamp[t];
            if *slot != key {
                if *slot < listed {
                    worklist.push(t as u32);
                }
                *slot = key;
                activations += 1;
            }
        };
        for (pos, &(j, seed_mask)) in seeds.iter().enumerate() {
            let seed_mask = seed_mask & full_lane_mask(lanes);
            if seed_mask == 0 {
                continue;
            }
            let key = listed | pos as u64;
            let j = j as usize;
            // The self edge: all lanes, exempt from the vertex mask.
            activate(j, key);
            // `live` drops a lane at its first padding cell: padding
            // only ever trails a row.
            let mut live = seed_mask;
            for step in slab.col[slab.cs[j]..].chunks_exact(lanes).take(slab.cl[j] as usize) {
                let mut bits = live;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let c = step[l];
                    if c < 0 {
                        live &= !(1 << l);
                        continue;
                    }
                    let t = c as usize >> shift;
                    // A fully masked dependent is dropped before it counts.
                    if mask.is_none_or(|m| m.allowed_real(t) != 0) {
                        activate(t, key);
                    }
                }
                if live == 0 {
                    break;
                }
            }
        }
        self.worklist.sort_unstable();
        self.activations = activations;
        activations
    }

    /// The current worklist (sorted, duplicate-free chunk ids).
    #[inline]
    pub fn worklist(&self) -> &[u32] {
        &self.worklist
    }

    /// Lane-filtered activations performed by the last
    /// [`seed`](Self::seed).
    #[inline]
    pub fn activations(&self) -> u64 {
        self.activations
    }
}

/// Sorts a `(chunk, lane mask)` seed list by chunk and merges duplicate
/// chunks by OR-ing their lane masks.
pub(crate) fn merge_seeds(seeds: &mut Vec<(u32, u32)>) {
    seeds.sort_unstable_by_key(|&(j, _)| j);
    seeds.dedup_by(|next, prev| {
        if next.0 == prev.0 {
            prev.1 |= next.1;
            true
        } else {
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::SellStructure;
    use slimsell_graph::GraphBuilder;

    const FULL4: u32 = 0b1111;

    fn structure(n: usize, edges: &[(u32, u32)]) -> SellStructure<4> {
        let g = GraphBuilder::new(n).edges(edges.iter().copied()).build();
        SellStructure::<4>::build(&g, 1)
    }

    fn dep_of(n: usize, edges: &[(u32, u32)]) -> ChunkDepGraph {
        structure(n, edges).dep_graph().clone()
    }

    #[test]
    fn isolated_chunks_have_only_self_edges() {
        let dep = dep_of(8, &[]);
        assert_eq!(dep.num_chunks(), 2);
        assert_eq!(dep.dependents(0), &[0]);
        assert_eq!(dep.dependents(1), &[1]);
        assert_eq!(dep.edge_masks(0), &[FULL4]);
        assert_eq!(dep.num_deps(), 2);
    }

    #[test]
    fn cross_chunk_edge_creates_mutual_dependency() {
        // 0-7 edge: chunk 1 gathers row 0 (chunk 0) and vice versa.
        let dep = dep_of(8, &[(0, 7)]);
        assert_eq!(dep.dependents(0), &[0, 1]);
        assert_eq!(dep.dependents(1), &[0, 1]);
        // Chunk 1 reads exactly row 0 of chunk 0 (lane 0); chunk 0 reads
        // exactly row 7 of chunk 1 (lane 3).
        assert_eq!(dep.edge_masks(0), &[FULL4, 0b0001]);
        assert_eq!(dep.edge_masks(1), &[0b1000, FULL4]);
    }

    #[test]
    fn intra_chunk_edges_stay_self_only() {
        let dep = dep_of(8, &[(0, 1), (2, 3), (4, 5)]);
        assert_eq!(dep.dependents(0), &[0]);
        assert_eq!(dep.dependents(1), &[1]);
        assert_eq!(dep.edge_masks(0), &[FULL4]);
    }

    #[test]
    fn duplicate_cells_deduplicated() {
        // A hub in chunk 0 with many neighbors in chunk 1: chunk 0 reads
        // chunk 1 through several cells but appears once.
        let dep = dep_of(12, &[(0, 4), (0, 5), (0, 6), (0, 7), (0, 8)]);
        assert_eq!(dep.dependents(1), &[0, 1]);
        assert_eq!(dep.dependents(2), &[0, 2]);
        // Chunk 0 gathers all four rows of chunk 1 (vertices 4..8) and
        // only row 8 (lane 0) of chunk 2.
        assert_eq!(dep.edge_masks(1)[0], FULL4);
        assert_eq!(dep.edge_masks(2)[0], 0b0001);
    }

    #[test]
    fn dependents_are_sorted_and_contain_self() {
        let g = GraphBuilder::new(40)
            .edges((0..39u32).map(|v| (v, v + 1)).chain([(0, 39), (3, 21), (10, 30)]))
            .build();
        let s = SellStructure::<4>::build(&g, 40);
        let dep = s.dep_graph();
        for j in 0..dep.num_chunks() {
            let d = dep.dependents(j);
            assert!(d.windows(2).all(|w| w[0] < w[1]), "unsorted/dup deps of {j}: {d:?}");
            assert!(d.contains(&(j as u32)), "missing self edge of {j}");
            assert!(dep.edge_masks(j).iter().all(|&m| m != 0), "empty edge mask at {j}");
        }
    }

    #[test]
    fn dep_graph_matches_brute_force() {
        let g = GraphBuilder::new(30)
            .edges([(0, 29), (1, 15), (2, 14), (7, 8), (12, 13), (20, 25), (3, 27), (9, 22)])
            .build();
        for sigma in [1, 8, 30] {
            let s = SellStructure::<4>::build(&g, sigma);
            let dep = s.dep_graph();
            let nc = s.num_chunks();
            // Brute force: chunk i reads chunk j iff any of i's cells
            // names a column in j's row range; the edge mask is the OR
            // of those columns' lane bits (self edge: all lanes).
            for j in 0..nc {
                let mut expect: Vec<(u32, u32)> = (0..nc)
                    .filter_map(|i| {
                        let mut mask = if i == j { FULL4 } else { 0 };
                        for &c in &s.col()[s.cs()[i]..s.cs()[i] + s.cl()[i] as usize * 4] {
                            if c >= 0 && c as usize / 4 == j {
                                mask |= 1 << (c as usize % 4);
                            }
                        }
                        (mask != 0).then_some((i as u32, mask))
                    })
                    .collect();
                expect.sort_unstable();
                let got: Vec<(u32, u32)> = dep
                    .dependents(j)
                    .iter()
                    .zip(dep.edge_masks(j))
                    .map(|(&t, &m)| (t, m))
                    .collect();
                assert_eq!(got, expect, "sigma={sigma} chunk {j}");
            }
        }
    }

    #[test]
    fn seed_dedups_and_merges_masks() {
        let s = structure(16, &[(0, 15), (4, 8)]);
        let dep = s.dep_graph();
        let mut act = ActivationState::new();
        // Duplicate seeds are folded before expansion: chunk 3's
        // dependents are walked once, not twice; full masks pass every
        // edge filter, reproducing chunk-granular probe counts.
        let probes =
            act.seed(s.column_slab(), &mut vec![(3, FULL4), (0, FULL4), (3, 0b0010)], None);
        assert_eq!(probes as usize, dep.dependents(3).len() + dep.dependents(0).len());
        let wl = act.worklist().to_vec();
        assert!(wl.windows(2).all(|w| w[0] < w[1]), "worklist not sorted/dedup: {wl:?}");
        assert!(wl.contains(&0) && wl.contains(&3));
    }

    #[test]
    fn lane_filter_prunes_unread_dependents() {
        // 0-7 edge: chunk 1 gathers only row 0 (lane 0) of chunk 0.
        let s = structure(8, &[(0, 7)]);
        let mut act = ActivationState::new();
        // A change confined to lane 2 of chunk 0: the self edge fires,
        // the cross edge (lane 0) is filtered out.
        act.seed(s.column_slab(), &mut vec![(0, 0b0100)], None);
        assert_eq!(act.worklist(), &[0]);
        assert_eq!(act.activations(), 1);
        // A change on lane 0 activates both.
        act.seed(s.column_slab(), &mut vec![(0, 0b0001)], None);
        assert_eq!(act.worklist(), &[0, 1]);
        assert_eq!(act.activations(), 2);
        // Zero masks seed nothing.
        act.seed(s.column_slab(), &mut vec![(0, 0)], None);
        assert!(act.worklist().is_empty());
        assert_eq!(act.activations(), 0);
    }

    #[test]
    fn repeated_cells_count_one_activation() {
        // Rows 0 and 1 of chunk 0 both reach chunk 1 through several
        // cells; the pair (0, 1) is one activation, as in the oracle.
        let s = structure(8, &[(0, 4), (0, 5), (1, 6), (1, 7), (0, 1)]);
        let mut act = ActivationState::new();
        assert_eq!(act.seed(s.column_slab(), &mut vec![(0, 0b0011)], None), 2);
        assert_eq!(act.worklist(), &[0, 1]);
    }

    #[test]
    fn vertex_mask_drops_masked_dependents_but_not_the_seed() {
        let s = structure(12, &[(0, 4), (0, 8)]);
        let only_chunk_1 = VertexMask::from_permuted(12, 4, 4..8);
        let mut act = ActivationState::new();
        // Chunk 2 is fully masked: dropped before it counts. The seed
        // (chunk 0, also fully masked) keeps its self edge.
        assert_eq!(act.seed(s.column_slab(), &mut vec![(0, 0b0001)], Some(&only_chunk_1)), 2);
        assert_eq!(act.worklist(), &[0, 1]);
    }

    #[test]
    fn reseeding_clears_previous_worklist() {
        let s = structure(16, &[]);
        let mut act = ActivationState::new();
        act.seed(s.column_slab(), &mut vec![(0, FULL4), (1, FULL4), (2, FULL4)], None);
        assert_eq!(act.worklist(), &[0, 1, 2]);
        act.seed(s.column_slab(), &mut vec![(3, FULL4)], None);
        assert_eq!(act.worklist(), &[3]);
        act.seed(s.column_slab(), &mut Vec::new(), None);
        assert!(act.worklist().is_empty());
        assert_eq!(act.activations(), 0);
    }

    #[test]
    fn full_lane_mask_widths() {
        assert_eq!(full_lane_mask(4), 0b1111);
        assert_eq!(full_lane_mask(8), 0xff);
        assert_eq!(full_lane_mask(16), 0xffff);
        assert_eq!(full_lane_mask(32), u32::MAX);
    }
}
