//! Weighted undirected graphs.
//!
//! SlimSell's storage trick — deriving `val` from `col` — only works for
//! *unweighted* graphs (§III-B). Weighted graphs are where Sell-C-σ's
//! explicit `val` array earns its keep, so the workspace carries a
//! weighted substrate to demonstrate that boundary (see
//! `slimsell_core::sssp`).

use crate::{CsrGraph, VertexId};

/// An undirected graph with non-negative `f32` edge weights, in CSR form
/// parallel to [`CsrGraph`].
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedCsrGraph {
    structure: CsrGraph,
    /// Weight of each stored arc, aligned with the structure's `col`.
    weights: Vec<f32>,
}

impl WeightedCsrGraph {
    /// Builds from weighted edge triples; duplicates keep the *minimum*
    /// weight, self loops are dropped, weights must be non-negative and
    /// finite.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, f32)>,
    ) -> Self {
        let mut map: std::collections::BTreeMap<(VertexId, VertexId), f32> = Default::default();
        for (u, v, w) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range");
            assert!(w >= 0.0 && w.is_finite(), "weight {w} must be non-negative and finite");
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            map.entry(key).and_modify(|x| *x = x.min(w)).or_insert(w);
        }
        let mut b = crate::GraphBuilder::with_capacity(n, map.len());
        for &(u, v) in map.keys() {
            b.edge(u, v);
        }
        let structure = b.build();
        // Align weights with the CSR arc order (rows are sorted).
        let mut weights = vec![0.0f32; structure.num_arcs()];
        for v in 0..n as VertexId {
            let lo = structure.row_ptr()[v as usize] as usize;
            for (i, &w) in structure.neighbors(v).iter().enumerate() {
                let key = if v < w { (v, w) } else { (w, v) };
                weights[lo + i] = map[&key];
            }
        }
        Self { structure, weights }
    }

    /// The unweighted structure.
    pub fn structure(&self) -> &CsrGraph {
        &self.structure
    }

    /// Weight of each stored arc, aligned with the structure's `col`
    /// (both arcs of an edge carry its weight).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.structure.num_vertices()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.structure.num_edges()
    }

    /// Weighted neighbors of `v`: `(neighbor, weight)` pairs.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let lo = self.structure.row_ptr()[v as usize] as usize;
        self.structure.neighbors(v).iter().enumerate().map(move |(i, &w)| (w, self.weights[lo + i]))
    }

    /// Weight of the edge `{u, v}`, if present.
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<f32> {
        let lo = self.structure.row_ptr()[u as usize] as usize;
        self.structure.neighbors(u).binary_search(&v).ok().map(|i| self.weights[lo + i])
    }
}

/// Deterministic weighted twin of an unweighted graph: same edges, with
/// a positive weight in `[0.1, 4.06]` derived purely from the edge's
/// endpoints. Any caller (benches, tests) building a weighted workload
/// from the same unweighted graph gets the *same* weighted graph, on
/// any machine at any thread count.
pub fn synthetic_weighted_twin(g: &CsrGraph) -> WeightedCsrGraph {
    let edges =
        g.edges().map(|(u, v)| (u, v, 0.1 + ((u as u64 * 31 + v as u64 * 17) % 100) as f32 / 25.0));
    WeightedCsrGraph::from_edges(g.num_vertices(), edges)
}

/// Dijkstra's algorithm — the serial reference for weighted SSSP.
pub fn dijkstra(g: &WeightedCsrGraph, root: VertexId) -> Vec<f32> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f32, VertexId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on distance.
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }

    let n = g.num_vertices();
    assert!((root as usize) < n);
    let mut dist = vec![f32::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, root));
    while let Some(Entry(d, v)) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (w, wt) in g.neighbors(v) {
            let nd = d + wt;
            if nd < dist[w as usize] {
                dist[w as usize] = nd;
                heap.push(Entry(nd, w));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WeightedCsrGraph {
        WeightedCsrGraph::from_edges(
            5,
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0), (2, 3, 1.0), (0, 4, 10.0), (3, 4, 1.0)],
        )
    }

    #[test]
    fn weights_aligned_with_structure() {
        let g = sample();
        assert_eq!(g.weight(0, 1), Some(1.0));
        assert_eq!(g.weight(1, 0), Some(1.0));
        assert_eq!(g.weight(0, 3), None);
    }

    #[test]
    fn duplicate_keeps_min_weight() {
        let g = WeightedCsrGraph::from_edges(2, [(0, 1, 5.0), (1, 0, 2.0), (0, 1, 7.0)]);
        assert_eq!(g.weight(0, 1), Some(2.0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn dijkstra_shortest_paths() {
        let g = sample();
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let g = WeightedCsrGraph::from_edges(3, [(0, 1, 1.0)]);
        let d = dijkstra(&g, 0);
        assert!(d[2].is_infinite());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        WeightedCsrGraph::from_edges(2, [(0, 1, -1.0)]);
    }
}
