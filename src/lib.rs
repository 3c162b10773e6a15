//! # SlimSell
//!
//! A vectorizable graph representation for breadth-first search —
//! a from-scratch Rust reproduction of Besta, Marending, Solomonik &
//! Hoefler, *SlimSell: A Vectorizable Graph Representation for
//! Breadth-First Search*, IEEE IPDPS 2017.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | CSR/adjacency-list substrate, permutations, statistics, reference BFS |
//! | [`gen`] | Kronecker (R-MAT), Erdős–Rényi, and real-world stand-in generators |
//! | [`simd`] | the Listing-1 vector primitives (`C`-lane f32/i32 vectors) |
//! | [`core`] | Sell-C-σ, SlimSell, the four BFS semirings, SlimWork, SlimChunk, DP |
//! | [`baseline`] | Graph500-style Trad-BFS, direction-optimizing BFS, SpMSpV BFS |
//! | [`simt`] | the software GPU (SIMT warp) simulator |
//! | [`analysis`] | Table II/III work & storage models, Eq. (1)/(2) bounds |
//! | [`serve`] | graph-as-a-service: concurrent batched BFS query engine |
//!
//! ## Quickstart
//!
//! ```
//! use slimsell::prelude::*;
//!
//! // An undirected graph: 0-1-2 path plus a 2-3 edge.
//! let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
//!
//! // Build the SlimSell representation (C = 8 lanes, full sorting) and
//! // run algebraic BFS over the tropical semiring.
//! let matrix = SlimSellMatrix::<8>::build(&g, g.num_vertices());
//! let out = BfsEngine::run::<_, TropicalSemiring, 8>(&matrix, 0, &BfsOptions::default());
//! assert_eq!(out.dist, vec![0, 1, 2, 3]);
//! ```
//!
//! Or use the one-call convenience wrapper:
//!
//! ```
//! let g = slimsell::graph::GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
//! let dist = slimsell::bfs_distances(&g, 0);
//! assert_eq!(dist, vec![0, 1, 2]);
//! ```

pub use slimsell_analysis as analysis;
pub use slimsell_baseline as baseline;
pub use slimsell_core as core;
pub use slimsell_gen as gen;
pub use slimsell_graph as graph;
pub use slimsell_serve as serve;
pub use slimsell_simd as simd;
pub use slimsell_simt as simt;

/// The most common imports in one place.
pub mod prelude {
    pub use slimsell_core::matrix::{ChunkMatrix, SellCSigma, SlimSellMatrix};
    pub use slimsell_core::{
        betweenness_exact, betweenness_from_sources, dp_transform, graph500_validate, multi_bfs,
        pagerank, run_descriptor, sssp, sssp_with, BfsEngine, BfsOptions, BooleanSemiring,
        Descriptor, DirectionPolicy, ExecutedSweep, PageRankOptions, RealSemiring, Schedule,
        SelMaxSemiring, Semiring, SsspOptions, SweepConfig, SweepMode, TropicalSemiring,
        VertexMask, WeightedSellCSigma,
    };
    pub use slimsell_gen::{erdos_renyi_gnp, kronecker, standin, KroneckerParams};
    pub use slimsell_graph::{
        largest_component, serial_bfs, validate_parents, AdjacencyList, CsrGraph, GraphBuilder,
        GraphStats, VertexId, WeightedCsrGraph, UNREACHABLE,
    };
    pub use slimsell_serve::{
        BfsServer, FaultKind, FaultPlan, QueryError, QueryHandle, QuerySpec, ServeOptions,
        ServerStats, ShutdownReport,
    };
    pub use slimsell_simt::{run_simt_bfs, SimtConfig, SimtOptions};
}

use graph::{CsrGraph, VertexId};

/// One-call BFS: SlimSell representation (C = 8, full sorting), tropical
/// semiring, SlimWork on. Returns hop distances with
/// [`graph::UNREACHABLE`] for unreached vertices.
///
/// For repeated traversals of the same graph, build the
/// [`core::matrix::SlimSellMatrix`] once and call
/// [`core::BfsEngine::run`] directly — construction is the dominant cost
/// (§IV-D of the paper).
pub fn bfs_distances(g: &CsrGraph, root: VertexId) -> Vec<u32> {
    let m = core::matrix::SlimSellMatrix::<8>::build(g, g.num_vertices());
    core::BfsEngine::run::<_, core::TropicalSemiring, 8>(&m, root, &core::BfsOptions::default())
        .dist
}

/// One-call BFS returning both distances and parents: SlimSell + sel-max
/// (parents come from the semiring, no DP pass).
pub fn bfs_tree(g: &CsrGraph, root: VertexId) -> (Vec<u32>, Vec<VertexId>) {
    let m = core::matrix::SlimSellMatrix::<8>::build(g, g.num_vertices());
    let out =
        core::BfsEngine::run::<_, core::SelMaxSemiring, 8>(&m, root, &core::BfsOptions::default());
    let parent = out.parent.expect("sel-max computes parents");
    (out.dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::GraphBuilder;

    #[test]
    fn bfs_distances_convenience() {
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (3, 4)]).build();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, graph::UNREACHABLE, graph::UNREACHABLE]);
    }

    #[test]
    fn bfs_tree_convenience() {
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let (d, p) = bfs_tree(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
        graph::validate_parents(&g, 0, &d, &p).unwrap();
    }
}
