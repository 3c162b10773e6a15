//! Hop-distance navigation on a road network — the *hard* case for
//! algebraic BFS (§IV-A5: high diameter, ρ̄ ≈ 1.4, "small or no
//! improvement from SlimWork") and exactly where direction optimization
//! keeps the sparse iterations cheap.
//!
//! Uses the `rca` (California road network) stand-in, compares plain
//! SpMV BFS against the direction-optimized hybrid, and reports which
//! direction each iteration chose.
//!
//! ```text
//! cargo run --release --example road_navigation
//! ```

use slimsell::core::descriptor::StepMode;
use slimsell::prelude::*;

fn main() {
    let g = standin("rca", 6, 11);
    let stats = GraphStats::compute(&g, 3);
    println!(
        "road network (rca stand-in): n = {}, m = {}, avg degree = {:.2}, diameter >= {}",
        stats.n, stats.m, stats.avg_degree, stats.diameter_lb
    );

    let matrix = SlimSellMatrix::<8>::build(&g, g.num_vertices());
    let root = slimsell::graph::stats::sample_roots(&g, 1)[0];

    // Plain BFS-SpMV: every iteration sweeps all chunks (minus SlimWork).
    let plain = BfsEngine::run::<_, TropicalSemiring, 8>(&matrix, root, &BfsOptions::default());
    println!(
        "\nplain SpMV BFS:   {} iterations, {:>12} cells, {:.2} ms",
        plain.stats.num_iterations(),
        plain.stats.total_cells(),
        plain.stats.total_time().as_secs_f64() * 1e3
    );

    // Direction-optimized: tiny frontiers run sparse top-down steps.
    let dir = run_descriptor(&matrix, root, &Descriptor::default());
    let td = dir.modes.iter().filter(|&&m| m == StepMode::TopDown).count();
    let bu = dir.modes.len() - td;
    println!(
        "direction-opt BFS: {} iterations ({} top-down, {} bottom-up), {:>12} work units, {:.2} ms",
        dir.modes.len(),
        td,
        bu,
        dir.bfs.stats.total_cells(),
        dir.bfs.stats.total_time().as_secs_f64() * 1e3
    );
    assert_eq!(plain.dist, dir.bfs.dist, "both engines must agree");

    // Route reconstruction: farthest reachable intersection from root.
    let (far, &far_d) = plain
        .dist
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHABLE)
        .max_by_key(|(_, &d)| d)
        .expect("reachable vertex");
    let parents = dp_transform(&g, &plain.dist, root);
    let mut hops = 0;
    let mut v = far as VertexId;
    while v != root {
        v = parents[v as usize];
        hops += 1;
    }
    println!("\nfarthest intersection {far} is {far_d} hops away; DP-reconstructed route has {hops} hops");
    assert_eq!(hops, far_d);
    validate_parents(&g, root, &plain.dist, &parents).unwrap();
    println!("route validated.");
}
