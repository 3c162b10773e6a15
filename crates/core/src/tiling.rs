//! Chunk-set tiling: the shared parallel execution substrate of every
//! sweep kernel in this crate.
//!
//! All SlimSell kernels — BFS ([`crate::bfs`]), SlimChunk
//! ([`crate::slimchunk`]), PageRank ([`mod@crate::pagerank`]), SSSP
//! ([`mod@crate::sssp`]), multi-source BFS ([`mod@crate::msbfs`]) and the
//! betweenness forward sweep ([`mod@crate::betweenness`]) — share one
//! iteration shape: a sweep over a set of chunks where chunk `i` reads
//! the *previous* iteration's vectors anywhere but writes only its own
//! `width`-sized slot of the *next* vectors. Which chunks one sweep
//! visits is a value, [`ChunkSet`]: the whole range `0..nc` (a full
//! sweep) or a sorted worklist of chunk ids (a frontier-proportional
//! sweep). A full sweep is simply the worklist that spans the range, so
//! every kernel writes its sweep loop once, against [`ChunkSet::sweep`].
//! The positional-write discipline is what this module turns into
//! lock-free parallelism:
//!
//! 1. [`ChunkTiling::new`] partitions the *positions* `0..len` of a set
//!    (or any plain index range) into contiguous per-worker tiles (one
//!    per thread under [`Schedule::Static`], an over-partitioned set
//!    under [`Schedule::Dynamic`] so fast threads steal leftovers);
//! 2. [`ChunkSet::sweep`] prices a worklist in cells (its column-step
//!    total times the slot width) and runs one below
//!    [`INLINE_SWEEP_CELLS`] inline; otherwise it carves every output
//!    slab into disjoint `&mut` tile views with `split_at_mut` — each
//!    tile's view spans the contiguous chunk range from its first to its
//!    last chunk, so sorted ids give disjoint views; no locks, no
//!    atomics — plus an optional position-indexed change-mask slab, and
//!    runs the per-chunk body;
//! 3. [`ChunkSet::harvest`] turns the recorded change masks into the
//!    `(chunk, lane mask)` seeds of the next worklist, in ascending
//!    chunk order;
//! 4. [`ChunkTiling::split`] / [`ChunkTiling::map_reduce`] /
//!    [`ChunkTiling::for_each`] serve the loops that are not chunk-set
//!    sweeps (SlimChunk's tile tasks, PageRank's output pass, vertex
//!    rescans), merging tile results **in tile order**.
//!
//! # Determinism contract
//!
//! When the effective thread count is 1 (or there is at most one
//! position) the tiling is a single tile covering everything and the
//! drivers run it inline — a plain sequential loop with zero
//! thread-pool interaction. This is the reference oracle the
//! determinism suite (`tests/parallel_determinism.rs`) compares parallel
//! runs against. A worklist sweep of fewer than [`INLINE_SWEEP_CELLS`]
//! cells takes the same inline path at any thread count, folding the
//! whole set over the unsplit slabs without allocating, since below
//! that the pool's wake-up and join cost more than the sweep (the
//! calibration is in ARCHITECTURE.md). Because every chunk's math is
//! independent, writes are positional, and tile results merge in tile
//! order, kernel outputs are **bit-identical at any thread count**
//! provided the merge operator is associative and per-chunk work does
//! not depend on tile boundaries. The inline rule therefore moves wall
//! time only, never an output or a counter.
//! Kernels that need an ordered floating-point reduction (e.g. the
//! PageRank residual) write per-chunk partials into a `width == 1` slab
//! and sum it sequentially in chunk order afterwards.
//!
//! # Example
//!
//! ```
//! use slimsell_core::tiling::{ChunkSet, ChunkTiling, Schedule};
//!
//! // Double chunks 1 and 3 (width 2) of a 4-chunk slab, recording a
//! // change mask per visited chunk, then harvest the changed ones.
//! let mut data = vec![1.0f32; 8];
//! let set = ChunkSet::List { ids: &[1, 3], steps: 2 };
//! let full = ChunkTiling::new(4, Schedule::Dynamic);
//! let mut masks = Vec::new();
//! let visited = set.sweep(&full, 2, [&mut data], Some(&mut masks), |_, _, [slot], mask| {
//!     slot.iter_mut().for_each(|v| *v *= 2.0);
//!     *mask.unwrap() = 0b11;
//!     1usize
//! }, |a, b| a + b);
//! assert_eq!(visited, 2);
//! assert_eq!(data, [1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
//! let mut pending = Vec::new();
//! assert_eq!(set.harvest(&masks, &mut pending), 2);
//! assert_eq!(pending, [(1, 0b11), (3, 0b11)]);
//! ```

use std::borrow::Cow;

use rayon::prelude::*;

use crate::sweep::ExecutedSweep;

/// Chunk-to-thread scheduling policy (the paper's `omp-s` / `omp-d`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Contiguous equal partitions of chunks per thread (OpenMP static).
    Static,
    /// Fine-grained work stealing (OpenMP dynamic).
    #[default]
    Dynamic,
}

/// How many tiles each thread gets under dynamic scheduling; the
/// over-partitioning that makes work stealing effective on skewed
/// chunk-length distributions.
pub const DYNAMIC_TILES_PER_THREAD: usize = 8;

/// A worklist sweep of fewer cells (column steps times slot width) runs
/// inline on the calling thread: below this, waking the pool and
/// joining it costs more than the sweep saves. Calibrated on a 2-CPU
/// host; ARCHITECTURE.md ("The tiling / determinism contract") has the
/// table.
pub const INLINE_SWEEP_CELLS: u64 = 65_536;

/// Splits `0..n` into `parts` contiguous near-equal ranges (first
/// `n % parts` ranges get the extra element). Deterministic in `n` and
/// `parts`; never returns an empty range (`n == 0` yields no ranges).
pub fn even_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for t in 0..parts {
        let len = base + usize::from(t < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// A tile's exclusive view of one output slab: chunks
/// `c0 .. c0 + data.len() / width` with their `width`-sized slots.
pub struct Tile<'a, T> {
    /// First chunk index covered by this tile.
    pub c0: usize,
    /// The tile's slots, `width` elements per chunk, chunk-major.
    pub data: &'a mut [T],
}

/// A partition of a position range `0..n` into contiguous per-worker
/// tiles, fixed for one parallel region. The positions are chunk ids
/// for a full-range sweep, worklist positions for a [`ChunkSet::List`]
/// sweep, or plain indices (tasks, vertices) for the other loops. See
/// the module docs for the execution model and determinism contract.
#[derive(Clone, Debug)]
pub struct ChunkTiling {
    ranges: Vec<(usize, usize)>,
    schedule: Schedule,
    sequential: bool,
}

impl ChunkTiling {
    /// Tiles `0..n` for the *current* effective thread count
    /// (`rayon::current_num_threads`): one tile per thread under
    /// [`Schedule::Static`], [`DYNAMIC_TILES_PER_THREAD`] per thread
    /// under [`Schedule::Dynamic`]. At one effective thread (or `n <=
    /// 1`) the tiling collapses to the sequential fallback: a single
    /// tile the drivers run inline, with no pool interaction.
    pub fn new(n: usize, schedule: Schedule) -> Self {
        let threads = rayon::current_num_threads().max(1);
        if threads <= 1 || n <= 1 {
            return Self { schedule, ..Self::sequential(n) };
        }
        let parts = match schedule {
            Schedule::Static => threads,
            Schedule::Dynamic => threads * DYNAMIC_TILES_PER_THREAD,
        };
        Self { ranges: even_ranges(n, parts), schedule, sequential: false }
    }

    /// The explicit sequential tiling: one tile covering every position
    /// (none for `n == 0`), run inline by the drivers.
    pub fn sequential(n: usize) -> Self {
        Self { ranges: even_ranges(n, 1), schedule: Schedule::default(), sequential: true }
    }

    /// Tiles `0..n` under the same policy as `self` (schedule, and the
    /// sequential fallback if `self` is sequential).
    pub fn retile(&self, n: usize) -> Self {
        if self.sequential {
            Self::sequential(n)
        } else {
            Self::new(n, self.schedule)
        }
    }

    /// Whether the drivers will run tiles inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.sequential
    }

    /// The tiled position ranges, in order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// The position count this tiling partitions.
    pub fn num_chunks(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.1)
    }

    /// Carves `slab` (`width` elements per chunk, chunk-major) into
    /// disjoint per-tile views via `split_at_mut`.
    ///
    /// # Panics
    /// Panics if `slab.len() != num_chunks() * width`.
    pub fn split<'a, T>(&self, width: usize, slab: &'a mut [T]) -> Vec<Tile<'a, T>> {
        assert_eq!(
            slab.len(),
            self.num_chunks() * width,
            "slab length {} != {} chunks x width {width}",
            slab.len(),
            self.num_chunks(),
        );
        let mut out = Vec::with_capacity(self.ranges.len());
        let mut rest = slab;
        for &(c0, c1) in &self.ranges {
            let (head, tail) = rest.split_at_mut((c1 - c0) * width);
            rest = tail;
            out.push(Tile { c0, data: head });
        }
        out
    }

    /// Runs `map` over every tile and merges the results **in tile
    /// order** with `merge` starting from `identity`. Parallel over the
    /// pool unless the tiling is sequential (or has a lone tile), in
    /// which case the tiles run inline on the calling thread (same merge
    /// order — bit-identical results for associative, identity-lawful
    /// `merge`).
    pub fn map_reduce<T, R, M, ID, MG>(&self, tiles: Vec<T>, map: M, identity: ID, merge: MG) -> R
    where
        T: Send,
        R: Send,
        M: Fn(T) -> R + Sync,
        ID: Fn() -> R + Sync,
        MG: Fn(R, R) -> R + Sync,
    {
        debug_assert_eq!(tiles.len(), self.ranges.len(), "tile list does not match tiling");
        if self.sequential || tiles.len() <= 1 {
            let mut it = tiles.into_iter();
            return match it.next() {
                None => identity(),
                Some(t) => it.map(&map).fold(map(t), merge),
            };
        }
        tiles.into_par_iter().with_min_len(1).map(map).reduce(identity, merge)
    }

    /// Runs `work` over every tile for its side effects (disjoint-slab
    /// writes). Sequential tilings run inline on the calling thread.
    pub fn for_each<T, W>(&self, tiles: Vec<T>, work: W)
    where
        T: Send,
        W: Fn(T) + Sync,
    {
        self.map_reduce(tiles, work, || (), |(), ()| ());
    }
}

/// The chunks one sweep visits. Position `p` of the set names chunk
/// [`chunk(p)`](Self::chunk); tilings, the per-position change masks a
/// sweep records and the [`harvest`](Self::harvest) all work over
/// positions, so the full sweep and the worklist sweep share one loop.
#[derive(Clone, Copy, Debug)]
pub enum ChunkSet<'a> {
    /// Every chunk of `0..nc` (a full sweep): position `p` is chunk `p`,
    /// so the sweep walks the range without reading an id array.
    All(usize),
    /// A strictly increasing worklist of chunk ids: position `p` is
    /// chunk `ids[p]`. `steps` is the listed chunks' column-step total,
    /// `Σ cl[ids[p]]`; it prices the sweep (see [`sweep`](Self::sweep))
    /// and nothing else depends on it.
    List {
        /// The chunk ids, strictly increasing.
        ids: &'a [u32],
        /// The column-step total of the listed chunks.
        steps: u64,
    },
}

impl ChunkSet<'_> {
    /// Number of chunks in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            ChunkSet::All(nc) => nc,
            ChunkSet::List { ids, .. } => ids.len(),
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk at set position `pos`.
    #[inline]
    pub fn chunk(&self, pos: usize) -> usize {
        match *self {
            ChunkSet::All(_) => pos,
            ChunkSet::List { ids, .. } => ids[pos] as usize,
        }
    }

    /// The sweep kind this set executes, as recorded in
    /// [`IterStats::sweep_mode`](crate::IterStats::sweep_mode).
    pub fn executed(&self) -> ExecutedSweep {
        match self {
            ChunkSet::All(_) => ExecutedSweep::Full,
            ChunkSet::List { .. } => ExecutedSweep::Worklist,
        }
    }

    /// One sweep over the set. `full` is the run's tiling of the
    /// whole chunk range; a full sweep uses it as is. A worklist sweep
    /// is priced in cells, its column-step total times `width`: below
    /// [`INLINE_SWEEP_CELLS`] it runs inline on the calling thread, at
    /// or above it re-tiles its positions under `full`'s policy. A
    /// sequential `full` runs every sweep inline. Each of the `N` output
    /// `slabs` holds `width` elements per chunk of the whole range;
    /// `visit(pos, chunk, slots, mask)` gets the chunk's `width`-sized
    /// slot of every slab and, when `masks` is given, the chunk's slot in
    /// a zeroed per-position change-mask slab (resized to the set
    /// length). Per-chunk results are folded with `merge` from
    /// `R::default()` within a tile and merged in tile order across
    /// tiles; an inline sweep is one tile.
    ///
    /// # Panics
    /// Panics if `full` does not tile the whole range of an
    /// [`All`](Self::All) set or a slab is too short for the set's
    /// largest chunk.
    pub fn sweep<T, R, V, MG, const N: usize>(
        &self,
        full: &ChunkTiling,
        width: usize,
        slabs: [&mut [T]; N],
        masks: Option<&mut Vec<u32>>,
        visit: V,
        merge: MG,
    ) -> R
    where
        T: Send,
        R: Default + Send,
        V: Fn(usize, usize, [&mut [T]; N], Option<&mut u32>) -> R + Sync,
        MG: Fn(R, R) -> R + Sync,
    {
        if let ChunkSet::List { ids, .. } = self {
            debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "worklist not sorted/deduped");
        }
        if let Some(last) = self.len().checked_sub(1).map(|p| self.chunk(p)) {
            for s in &slabs {
                assert!(
                    (last + 1) * width <= s.len(),
                    "chunk {last} out of range for {} slots of width {width}",
                    s.len()
                );
            }
        }
        let masks = masks.map(|m| {
            m.clear();
            m.resize(self.len(), 0);
            m.as_mut_slice()
        });
        let run = |tile: SetTile<'_, T, N>| {
            let (p0, p1) = (tile.p0, tile.p1);
            match *self {
                ChunkSet::All(_) => {
                    fold_tile((p0..p1).map(|i| (i, i)), tile, width, &visit, &merge)
                }
                ChunkSet::List { ids, .. } => {
                    let chunks = (p0..p1).zip(ids[p0..p1].iter().map(|&i| i as usize));
                    fold_tile(chunks, tile, width, &visit, &merge)
                }
            }
        };
        match self.tiling(full, width) {
            // One fold over the unsplit slabs: no range or tile vectors.
            None => run(SetTile { p0: 0, p1: self.len(), base: 0, slabs, masks }),
            Some(tiling) => {
                tiling.map_reduce(self.split(&tiling, width, slabs, masks), run, R::default, &merge)
            }
        }
    }

    /// The tiling a sweep over the set runs under, or `None` when it
    /// runs inline: under a sequential `full`, or for a worklist whose
    /// cells (`steps · width`) are below [`INLINE_SWEEP_CELLS`].
    fn tiling<'t>(&self, full: &'t ChunkTiling, width: usize) -> Option<Cow<'t, ChunkTiling>> {
        match *self {
            ChunkSet::All(nc) => {
                assert_eq!(full.num_chunks(), nc, "full tiling does not cover the chunk range");
                (!full.is_sequential()).then_some(Cow::Borrowed(full))
            }
            ChunkSet::List { ids, steps } => {
                let inline =
                    full.is_sequential() || steps.saturating_mul(width as u64) < INLINE_SWEEP_CELLS;
                (!inline).then(|| Cow::Owned(full.retile(ids.len())))
            }
        }
    }

    /// Carves the slabs (and the change-mask slab) into per-tile views:
    /// tile `(p0, p1)` owns chunks `chunk(p0) ..= chunk(p1 - 1)` of every
    /// slab and positions `p0..p1` of the masks.
    fn split<'s, T, const N: usize>(
        &self,
        tiling: &ChunkTiling,
        width: usize,
        mut slabs: [&'s mut [T]; N],
        mut masks: Option<&'s mut [u32]>,
    ) -> Vec<SetTile<'s, T, N>> {
        let mut out = Vec::with_capacity(tiling.ranges().len());
        let mut cursor = 0; // chunks consumed so far
        for &(p0, p1) in tiling.ranges() {
            let (c0, c1) = (self.chunk(p0), self.chunk(p1 - 1) + 1);
            let views = slabs.each_mut().map(|rest| {
                let (_, tail) = std::mem::take(rest).split_at_mut((c0 - cursor) * width);
                let (view, tail) = tail.split_at_mut((c1 - c0) * width);
                *rest = tail;
                view
            });
            let tile_masks = masks.as_mut().map(|rest| {
                let (view, tail) = std::mem::take(rest).split_at_mut(p1 - p0);
                *rest = tail;
                view
            });
            cursor = c1;
            out.push(SetTile { p0, p1, base: c0, slabs: views, masks: tile_masks });
        }
        out
    }

    /// The one harvest: rebuilds `pending` as the `(chunk, change mask)`
    /// pairs of every position whose recorded mask is non-zero, in set
    /// order (ascending chunks), and returns how many there are. These
    /// are the seeds of the next worklist.
    pub fn harvest(&self, masks: &[u32], pending: &mut Vec<(u32, u32)>) -> usize {
        pending.clear();
        pending.extend(
            masks
                .iter()
                .enumerate()
                .filter(|(_, &m)| m != 0)
                .map(|(pos, &m)| (self.chunk(pos) as u32, m)),
        );
        pending.len()
    }
}

/// Runs `visit` over one tile's `(position, chunk)` pairs in order,
/// folding the results with `merge`. Instantiated once per set kind, so
/// a full sweep maps positions to chunks without reading an id array;
/// always inlined so the per-chunk loop sits in the kernel's own sweep.
#[inline(always)]
fn fold_tile<T, R, V, MG, const N: usize>(
    chunks: impl Iterator<Item = (usize, usize)>,
    tile: SetTile<'_, T, N>,
    width: usize,
    visit: &V,
    merge: &MG,
) -> R
where
    R: Default,
    V: Fn(usize, usize, [&mut [T]; N], Option<&mut u32>) -> R,
    MG: Fn(R, R) -> R,
{
    let SetTile { p0, base, mut slabs, mut masks, .. } = tile;
    let mut acc = R::default();
    for (pos, i) in chunks {
        let off = (i - base) * width;
        let slots = slabs.each_mut().map(|s| &mut s[off..off + width]);
        let mask = masks.as_deref_mut().map(|m| &mut m[pos - p0]);
        acc = merge(acc, visit(pos, i, slots, mask));
    }
    acc
}

/// One tile of a [`ChunkSet::sweep`]: positions `p0..p1`, slab views
/// starting at chunk `base`, and the positions' change-mask slots.
struct SetTile<'s, T, const N: usize> {
    p0: usize,
    p1: usize,
    base: usize,
    slabs: [&'s mut [T]; N],
    masks: Option<&'s mut [u32]>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_partition_exactly() {
        for n in [0usize, 1, 5, 64, 65, 1000] {
            for parts in [1usize, 2, 3, 7, 64, 2000] {
                let r = even_ranges(n, parts);
                if n == 0 {
                    assert!(r.is_empty());
                    continue;
                }
                assert_eq!(r.len(), parts.clamp(1, n));
                assert_eq!(r[0].0, 0);
                assert_eq!(r.last().unwrap().1, n);
                assert!(r.windows(2).all(|w| w[0].1 == w[1].0), "gapless");
                assert!(r.iter().all(|&(a, b)| b > a), "no empty range");
                let max = r.iter().map(|&(a, b)| b - a).max().unwrap();
                let min = r.iter().map(|&(a, b)| b - a).min().unwrap();
                assert!(max - min <= 1, "near-equal: {r:?}");
            }
        }
    }

    #[test]
    fn empty_chunk_range_yields_no_tiles() {
        let tiling = ChunkTiling::new(0, Schedule::Dynamic);
        assert_eq!(tiling.num_chunks(), 0);
        assert!(tiling.ranges().is_empty());
        let mut slab: Vec<f32> = Vec::new();
        assert!(tiling.split(4, &mut slab).is_empty());
        // map_reduce over no tiles returns the identity.
        let r = tiling.map_reduce(Vec::<Tile<f32>>::new(), |_| 1usize, || 0usize, |a, b| a + b);
        assert_eq!(r, 0);
    }

    #[test]
    fn more_tiles_than_chunks_clamps() {
        // 3 chunks cannot make more than 3 tiles however many threads
        // the schedule would like to feed.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        pool.install(|| {
            let tiling = ChunkTiling::new(3, Schedule::Dynamic);
            assert!(tiling.ranges().len() <= 3, "ranges: {:?}", tiling.ranges());
            assert_eq!(tiling.num_chunks(), 3);
            let mut slab = vec![0u8; 3 * 2];
            let tiles = tiling.split(2, &mut slab);
            let total: usize = tiles.iter().map(|t| t.data.len()).sum();
            assert_eq!(total, 6);
        });
    }

    #[test]
    fn one_thread_fallback_is_sequential_and_equivalent() {
        let run_at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let tiling = ChunkTiling::new(16, Schedule::Dynamic);
                if threads == 1 {
                    assert!(tiling.is_sequential());
                    assert_eq!(tiling.ranges(), &[(0, 16)]);
                }
                let mut slab = vec![0u32; 16 * 4];
                let tiles = tiling.split(4, &mut slab);
                tiling.for_each(tiles, |t| {
                    for (k, v) in t.data.iter_mut().enumerate() {
                        *v = (t.c0 * 4 + k) as u32;
                    }
                });
                slab
            })
        };
        let seq = run_at(1);
        assert!(seq.iter().enumerate().all(|(i, &v)| v as usize == i));
        for threads in [2, 4, 8] {
            assert_eq!(run_at(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn split_covers_slab_disjointly() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let tiling = ChunkTiling::new(100, Schedule::Static);
            let mut slab = vec![0u32; 800];
            let tiles = tiling.split(8, &mut slab);
            // Tiles are contiguous, ordered, and cover everything once.
            let mut expect_c0 = 0;
            let mut total = 0;
            for t in &tiles {
                assert_eq!(t.c0, expect_c0);
                assert_eq!(t.data.len() % 8, 0);
                expect_c0 += t.data.len() / 8;
                total += t.data.len();
            }
            assert_eq!(total, 800);
            tiling.for_each(tiles, |t| t.data.fill(1));
            assert!(slab.iter().all(|&v| v == 1));
        });
    }

    #[test]
    #[should_panic(expected = "slab length")]
    fn wrong_slab_length_panics() {
        let tiling = ChunkTiling::new(4, Schedule::Static);
        let mut slab = vec![0f32; 7]; // not 4 * 2
        let _ = tiling.split(2, &mut slab);
    }

    #[test]
    fn list_sweep_writes_only_listed_chunks() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            // A sparse worklist over 12 chunks of width 3; non-listed
            // chunks (1, 2, 4, 6, 8..) must never be written.
            let ids: Vec<u32> = vec![0, 3, 5, 7, 11];
            let full = ChunkTiling::new(12, Schedule::Dynamic);
            let mut slab = vec![0u32; 12 * 3];
            let mut aux = vec![0u32; 12 * 3];
            let mut masks = vec![7u32; 2]; // stale contents are reset
            let set = ChunkSet::List { ids: &ids, steps: INLINE_SWEEP_CELLS }; // tiled
            let visited = set.sweep(
                &full,
                3,
                [&mut slab, &mut aux],
                Some(&mut masks),
                |pos, i, [a, b], mask| {
                    assert_eq!(ids[pos] as usize, i);
                    a.fill(i as u32 + 1);
                    b.fill(pos as u32);
                    *mask.unwrap() = u32::from(i % 2 == 1);
                    1usize
                },
                |x, y| x + y,
            );
            assert_eq!(visited, ids.len());
            for c in 0..12u32 {
                let expect = if ids.contains(&c) { c + 1 } else { 0 };
                assert!(
                    slab[c as usize * 3..(c as usize + 1) * 3].iter().all(|&v| v == expect),
                    "chunk {c} corrupted: {slab:?}"
                );
            }
            assert_eq!(masks, [0, 1, 1, 1, 1]);
            let mut pending = vec![(99, 99)];
            assert_eq!(set.harvest(&masks, &mut pending), 4);
            assert_eq!(pending, [(3, 1), (5, 1), (7, 1), (11, 1)]);
        });
    }

    #[test]
    fn full_sweep_matches_plain_split_at_any_thread_count() {
        let run_at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let full = ChunkTiling::new(16, Schedule::Dynamic);
                let mut slab = vec![0u32; 16 * 4];
                let mut masks = Vec::new();
                let order: Vec<usize> = ChunkSet::All(16).sweep(
                    &full,
                    4,
                    [&mut slab],
                    Some(&mut masks),
                    |pos, i, [s], mask| {
                        assert_eq!(pos, i);
                        for (k, v) in s.iter_mut().enumerate() {
                            *v = (i * 4 + k) as u32;
                        }
                        *mask.unwrap() = (i % 3) as u32;
                        vec![i]
                    },
                    |mut a, mut b| {
                        a.append(&mut b);
                        a
                    },
                );
                let mut pending = Vec::new();
                ChunkSet::All(16).harvest(&masks, &mut pending);
                (slab, order, pending)
            })
        };
        let (slab, order, pending) = run_at(1);
        assert!(slab.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert_eq!(order, (0..16).collect::<Vec<_>>(), "tile results merge in chunk order");
        assert!(pending.iter().all(|&(c, m)| m == c % 3 && m != 0));
        assert_eq!(pending.len(), 10);
        for threads in [2, 4, 8] {
            assert_eq!(run_at(threads), (slab.clone(), order.clone(), pending.clone()));
        }
    }

    #[test]
    fn empty_list_sweep_returns_the_identity() {
        let full = ChunkTiling::new(4, Schedule::Static);
        let mut slab = vec![0f32; 8];
        let mut masks = vec![1u32; 3];
        let r = ChunkSet::List { ids: &[], steps: 0 }.sweep(
            &full,
            2,
            [&mut slab],
            Some(&mut masks),
            |_, _, _, _| 1usize,
            |a, b| a + b,
        );
        assert_eq!(r, 0);
        assert!(masks.is_empty());
    }

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
    }

    /// Sweeps `set` (width 2) recording the visiting thread of every
    /// position, merged in tile order.
    fn visit_order(set: ChunkSet<'_>, full: &ChunkTiling) -> Vec<(usize, std::thread::ThreadId)> {
        let mut slab = vec![0u8; full.num_chunks() * 2];
        set.sweep(
            full,
            2,
            [&mut slab],
            None,
            |pos, _, _, _| vec![(pos, std::thread::current().id())],
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        )
    }

    #[test]
    fn small_list_sweep_runs_inline_in_set_order() {
        let ids: Vec<u32> = (0..64).step_by(3).collect();
        with_threads(4, || {
            let caller = std::thread::current().id();
            for schedule in [Schedule::Static, Schedule::Dynamic] {
                let full = ChunkTiling::new(64, schedule);
                assert!(!full.is_sequential());
                // One cell below the bound at width 2.
                let set = ChunkSet::List { ids: &ids, steps: INLINE_SWEEP_CELLS / 2 - 1 };
                assert!(set.tiling(&full, 2).is_none());
                let order = visit_order(set, &full);
                assert_eq!(order.len(), ids.len());
                for (k, &(pos, thread)) in order.iter().enumerate() {
                    assert_eq!(pos, k, "positions out of set order");
                    assert_eq!(thread, caller, "position {pos} left the calling thread");
                }
            }
        });
    }

    #[test]
    fn list_sweep_at_the_bound_uses_the_schedule_tiling() {
        let ids: Vec<u32> = (0..64).step_by(3).collect();
        with_threads(4, || {
            for schedule in [Schedule::Static, Schedule::Dynamic] {
                let full = ChunkTiling::new(64, schedule);
                for width in [1usize, 8, 64] {
                    let steps = INLINE_SWEEP_CELLS.div_ceil(width as u64);
                    let set = ChunkSet::List { ids: &ids, steps };
                    let tiling = set.tiling(&full, width).expect("a priced-in sweep tiles");
                    assert!(!tiling.is_sequential());
                    assert_eq!(tiling.ranges(), ChunkTiling::new(ids.len(), schedule).ranges());
                    // One step fewer falls below the bound (every width
                    // here divides it).
                    let below = ChunkSet::List { ids: &ids, steps: steps - 1 };
                    assert!(below.tiling(&full, width).is_none());
                }
                // Full sweeps keep the cached tiling whatever their size.
                let tiling = ChunkSet::All(64).tiling(&full, 1).expect("full sweeps tile");
                assert_eq!(tiling.ranges(), full.ranges());
            }
            let order = visit_order(
                ChunkSet::List { ids: &ids, steps: u64::MAX },
                &ChunkTiling::new(64, Schedule::Dynamic),
            );
            assert_eq!(
                order.iter().map(|o| o.0).collect::<Vec<_>>(),
                (0..ids.len()).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn one_thread_sweeps_inline_regardless_of_cells() {
        let ids: Vec<u32> = (0..64).collect();
        with_threads(1, || {
            let caller = std::thread::current().id();
            let full = ChunkTiling::new(64, Schedule::Dynamic);
            let huge = ChunkSet::List { ids: &ids, steps: u64::MAX };
            assert!(huge.tiling(&full, 32).is_none());
            assert!(ChunkSet::All(64).tiling(&full, 32).is_none());
            for set in [huge, ChunkSet::All(64)] {
                let order = visit_order(set, &full);
                assert_eq!(order.len(), 64);
                assert!(order.iter().enumerate().all(|(k, &(p, t))| p == k && t == caller));
            }
        });
    }

    #[test]
    fn map_reduce_merges_in_tile_order() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let tiling = ChunkTiling::new(64, Schedule::Dynamic);
            let mut slab = vec![0u8; 64];
            let tiles = tiling.split(1, &mut slab);
            let order: Vec<usize> = tiling.map_reduce(
                tiles,
                |t| vec![t.c0],
                Vec::new,
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            );
            assert!(order.windows(2).all(|w| w[0] < w[1]), "order: {order:?}");
        });
    }
}
