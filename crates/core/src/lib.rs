//! The paper's primary contribution: SlimSell and its BFS-SpMV engine.
//!
//! Module map (paper section in parentheses):
//!
//! * [`structure`] — the chunked Sell layout shared by every matrix:
//!   σ-scoped row sorting, chunk offsets `cs`, chunk lengths `cl`,
//!   column array with `-1` padding markers (§II-D2, §III-B), filled
//!   by one sort-free transpose pass.
//! * [`matrix`] — the two representations: [`SellCSigma`] (explicit `val`
//!   array) and [`SlimSellMatrix`] (`val` derived from `col`, the 50 %
//!   storage saving of §III-B).
//! * [`semiring`] — tropical, real, boolean and sel-max BFS semirings
//!   with their frontier-derivation post-processing and SlimWork skip
//!   criteria (§III-A, Listings 5 & 7).
//! * [`bfs`] — the parallel BFS-SpMV driver: per-chunk kernels, SlimWork
//!   chunk skipping (§III-C), static/dynamic scheduling, per-iteration
//!   statistics.
//! * [`slimchunk`] — 2-D chunk tiling for load balance (§III-D).
//! * [`worklist`] — epoch-stamped activation worklists seeded by
//!   walking the changed chunks' own columns, behind the worklist
//!   sweep modes: frontier-proportional sweeps instead of full sweeps
//!   with per-chunk skip tests.
//! * [`sweep`] — the sweep-mode policy layer ([`SweepConfig`],
//!   `SLIMSELL_SWEEP`): pure full/worklist modes plus the default
//!   adaptive gate, which sweeps the worklist while the changed chunks
//!   hold under 1/3 of the matrix's cells.
//! * [`mask`] — dense vertex masks over the chunk layout: one
//!   allowed-lane word per chunk, padding lanes always set,
//!   popcount-tracked updates. Every semiring sweep accepts one.
//! * [`descriptor`] — GraphBLAS-style descriptors ((complemented)
//!   mask + push/pull policy + [`SweepConfig`]) and direction-optimized
//!   BFS (the third curve of Figure 1): sparse top-down steps on the
//!   SlimSell structure, SpMV bottom-up steps when the frontier is
//!   large.
//! * [`dp`] — the `DP` distance→parent transformation (§II-C).
//! * [`storage`] — Table III storage accounting.
//! * [`counters`] — per-iteration work/time statistics used by every
//!   experiment harness.
//!
//! Extensions beyond the paper's evaluation (its §VI future-work list):
//!
//! * [`mod@betweenness`] — Brandes betweenness centrality on the SlimSell
//!   substrate (real-semiring forward sweeps);
//! * [`mod@msbfs`] — multi-source BFS vectorized over the source dimension;
//! * [`mod@pagerank`] — PageRank as repeated real-semiring SpMV;
//! * [`mod@sssp`] — weighted SSSP: the tropical engine over a Sell-C-σ
//!   whose `val` holds the weights (the case where the explicit `val`
//!   array is mandatory, delimiting SlimSell's scope);
//! * [`validation`] — Graph500-style structural output validation.
//!
//! Every kernel above the engine layer ([`mod@pagerank`],
//! [`mod@msbfs`], [`mod@betweenness`], and the BFS driver itself, which
//! [`mod@sssp`] runs) runs on the shared chunk-tiling substrate in
//! [`tiling`]; see ARCHITECTURE.md at the repository root for the
//! cross-crate picture and the tiling/determinism contract.

#![deny(missing_docs)]

pub mod betweenness;
pub mod bfs;
pub mod components;
pub mod counters;
pub mod descriptor;
/// The former home of [`descriptor::StepMode`], kept as a re-export for
/// callers that still import it from here.
pub mod dirop {
    pub use crate::descriptor::StepMode;
}
pub mod dp;
pub mod mask;
pub mod matrix;
pub mod msbfs;
pub mod pagerank;
pub mod semiring;
pub mod slimchunk;
pub mod sssp;
pub mod storage;
pub mod structure;
pub mod sweep;
pub mod tiling;
pub mod validation;
pub mod worklist;

pub use betweenness::{
    betweenness_exact, betweenness_from_sources, betweenness_from_sources_with, forward_sweep,
    forward_sweep_with, BetweennessOptions, ShortestPathDag,
};
pub use bfs::{chunk_mv, BfsEngine, BfsOptions, BfsOutput, Schedule};
pub use components::connected_components;
pub use counters::{IterStats, RunStats};
pub use descriptor::{run_descriptor, Descriptor, DirectionPolicy};
pub use dp::dp_transform;
pub use mask::VertexMask;
pub use matrix::{ChunkMatrix, SellCSigma, SlimSellMatrix};
pub use msbfs::{multi_bfs, multi_bfs_while, multi_bfs_with, MsBfsOptions, MultiBfsOutput};
pub use pagerank::{pagerank, PageRankOptions};
pub use semiring::{BooleanSemiring, RealSemiring, SelMaxSemiring, Semiring, TropicalSemiring};
pub use sssp::{sssp, sssp_with, SsspOptions, WeightedSellCSigma};
pub use structure::SellStructure;
pub use sweep::{ExecutedSweep, SweepConfig, SweepMode};
pub use validation::graph500_validate;
pub use worklist::{ActivationState, ChunkDepGraph, ColumnSlab};
