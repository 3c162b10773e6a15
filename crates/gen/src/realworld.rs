//! Deterministic stand-ins for the real-world graphs of Table IV.
//!
//! The paper evaluates ten SNAP graphs. Those datasets cannot be shipped
//! here, so each entry is substituted by a synthetic generator matched on
//! the statistics the paper's experiments actually consume:
//!
//! * `n`, `m`, ρ̄ — drive storage sizes (Fig. 7b/d) and padding `P`;
//! * degree skew — drives Sell-C-σ padding, σ sensitivity, SlimWork;
//! * diameter regime — drives the iteration count and the §IV-A5 finding
//!   that high-D/low-ρ̄ graphs (amz, rca) gain little from SlimWork.
//!
//! Structures used per category:
//! * social networks / community graphs → Kronecker (R-MAT) skew, low D;
//! * web graphs, moderate D (`gog`, `sta`) → erased configuration model
//!   with a truncated power law;
//! * web graphs, extreme D (`brk`, `ndm`) → a *community chain*: a path
//!   of power-law clusters bridged by single edges, giving both skew and
//!   a diameter proportional to the chain length;
//! * purchase network (`amz`) → mild power law;
//! * road network (`rca`) → perturbed grid.
//!
//! Stand-ins are scaled down by `1 / 2^scale_shift` in `n` (default used
//! by the harness: 4, i.e. 1/16) with ρ̄ preserved, so relative storage
//! and behavioural comparisons transfer.

use slimsell_graph::{CsrGraph, GraphBuilder, VertexId};

use crate::ba::barabasi_albert;
use crate::config_model::{configuration_model, powerlaw_degrees};
use crate::geometric::road_network;
use crate::kronecker::{kronecker_edges, KroneckerParams};

/// Structural family of a stand-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandinKind {
    /// R-MAT skew, small diameter (social networks, community graphs).
    SocialRmat,
    /// Truncated power-law configuration model (web graphs, moderate D).
    WebPowerlaw,
    /// Chain of power-law communities (web graphs with extreme D).
    WebChain,
    /// Mild power law (purchase network).
    Purchase,
    /// Perturbed grid (road network).
    Road,
}

/// One Table IV row: paper statistics plus the substitution recipe.
#[derive(Clone, Copy, Debug)]
pub struct StandinSpec {
    /// Paper's graph ID (e.g. `orc`).
    pub id: &'static str,
    /// Human-readable type from Table IV.
    pub family: &'static str,
    /// Generator family used for the stand-in.
    pub kind: StandinKind,
    /// Paper n.
    pub paper_n: usize,
    /// Paper m.
    pub paper_m: usize,
    /// Paper average degree ρ̄.
    pub paper_rho: f64,
    /// Paper diameter D.
    pub paper_d: u32,
}

/// The ten graphs of Table IV.
pub fn standin_catalog() -> &'static [StandinSpec] {
    use StandinKind::*;
    const CATALOG: &[StandinSpec] = &[
        StandinSpec {
            id: "orc",
            family: "Social network",
            kind: SocialRmat,
            paper_n: 3_070_000,
            paper_m: 117_000_000,
            paper_rho: 39.0,
            paper_d: 9,
        },
        StandinSpec {
            id: "pok",
            family: "Social network",
            kind: SocialRmat,
            paper_n: 1_630_000,
            paper_m: 30_600_000,
            paper_rho: 18.75,
            paper_d: 11,
        },
        StandinSpec {
            id: "epi",
            family: "Social network",
            kind: SocialRmat,
            paper_n: 75_000,
            paper_m: 508_000,
            paper_rho: 6.7,
            paper_d: 15,
        },
        StandinSpec {
            id: "ljn",
            family: "Community network",
            kind: SocialRmat,
            paper_n: 3_990_000,
            paper_m: 34_600_000,
            paper_rho: 8.67,
            paper_d: 17,
        },
        StandinSpec {
            id: "brk",
            family: "Web graph",
            kind: WebChain,
            paper_n: 685_000,
            paper_m: 7_600_000,
            paper_rho: 11.09,
            paper_d: 514,
        },
        StandinSpec {
            id: "gog",
            family: "Web graph",
            kind: WebPowerlaw,
            paper_n: 875_000,
            paper_m: 5_100_000,
            paper_rho: 5.82,
            paper_d: 21,
        },
        StandinSpec {
            id: "sta",
            family: "Web graph",
            kind: WebPowerlaw,
            paper_n: 281_000,
            paper_m: 2_310_000,
            paper_rho: 8.2,
            paper_d: 46,
        },
        StandinSpec {
            id: "ndm",
            family: "Web graph",
            kind: WebChain,
            paper_n: 325_000,
            paper_m: 1_490_000,
            paper_rho: 4.59,
            paper_d: 674,
        },
        StandinSpec {
            id: "amz",
            family: "Purchase network",
            kind: Purchase,
            paper_n: 262_000,
            paper_m: 1_230_000,
            paper_rho: 4.71,
            paper_d: 32,
        },
        StandinSpec {
            id: "rca",
            family: "Road network",
            kind: Road,
            paper_n: 1_960_000,
            paper_m: 2_760_000,
            paper_rho: 1.4,
            paper_d: 849,
        },
    ];
    CATALOG
}

/// Looks up a spec by ID.
pub fn standin_spec(id: &str) -> Option<&'static StandinSpec> {
    standin_catalog().iter().find(|s| s.id == id)
}

/// Generates the stand-in for graph `id`, scaled down by `2^scale_shift`
/// in `n` with ρ̄ preserved.
///
/// Table IV's ρ̄ column follows the paper's `m/n` convention (e.g. `orc`:
/// 117 M / 3.07 M ≈ 38 ≈ the quoted 39), so the *average degree* target
/// is `2 ρ̄`.
///
/// # Panics
/// Panics if `id` is not in [`standin_catalog`].
pub fn standin(id: &str, scale_shift: u32, seed: u64) -> CsrGraph {
    let spec = standin_spec(id).unwrap_or_else(|| panic!("unknown stand-in id {id:?}"));
    let n = (spec.paper_n >> scale_shift).max(256);
    let rho = spec.paper_rho; // m/n
    match spec.kind {
        StandinKind::SocialRmat => social_rmat(n, rho, seed),
        StandinKind::WebPowerlaw => web_powerlaw(n, rho, seed),
        StandinKind::WebChain => web_chain(n, rho, spec.paper_d, seed),
        StandinKind::Purchase => {
            let degrees = powerlaw_degrees(n, 2.8, 1, (n as f64).sqrt() as usize + 2, seed);
            with_rho_target(n, rho, configuration_model(&degrees, seed ^ 0x5EED))
        }
        // Average degree 2ρ̄ (≈ 2.8 for rca) keeps the perturbed grid
        // above the bond-percolation threshold, so the giant component
        // spans the grid and the diameter regime matches the paper's.
        StandinKind::Road => road_network(n, (2.0 * rho).min(4.0), seed),
    }
}

/// R-MAT over a non-power-of-two n: generate at the next power of two and
/// fold surplus ids down (keeps the skew; folding only merges rows).
fn social_rmat(n: usize, rho: f64, seed: u64) -> CsrGraph {
    let scale = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let m_target = (rho * n as f64).round() as usize;
    let edges = kronecker_edges(scale, m_target, KroneckerParams::GRAPH500, seed);
    let mut b = GraphBuilder::with_capacity(n, m_target);
    for (u, v) in edges {
        b.edge(u % n as VertexId, v % n as VertexId);
    }
    b.build()
}

fn web_powerlaw(n: usize, rho: f64, seed: u64) -> CsrGraph {
    // Exponent ≈ 2.1 (typical for web graphs); cap at sqrt(n) like real
    // hosts, then rescale degree mass so the stub sum is 2m = 2ρ̄n.
    let mut degrees = powerlaw_degrees(n, 2.1, 1, (n as f64).sqrt() as usize + 2, seed);
    let sum: usize = degrees.iter().sum();
    let target = (2.0 * rho * n as f64) as usize;
    if sum > 0 {
        let scale = target as f64 / sum as f64;
        for d in &mut degrees {
            *d = ((*d as f64 * scale).round() as usize).max(1);
        }
    }
    configuration_model(&degrees, seed ^ 0xC0FFEE)
}

/// Chain of `k` power-law communities bridged consecutively; the chain
/// length sets the diameter regime (paper D in the hundreds).
fn web_chain(n: usize, rho: f64, paper_d: u32, seed: u64) -> CsrGraph {
    // Aim for a diameter on the order of paper_d (scaled graphs keep the
    // paper's D so the per-iteration experiments see many iterations).
    let k = (paper_d as usize / 3).clamp(2, n / 8);
    let comm = n / k;
    let mut b = GraphBuilder::with_capacity(n, (rho * n as f64) as usize + k);
    for ci in 0..k {
        let lo = ci * comm;
        let hi = if ci == k - 1 { n } else { lo + comm };
        let size = hi - lo;
        // BA with `attach` edges per vertex realizes m/n ≈ attach = ρ̄.
        let sub =
            barabasi_albert(size.max(4), (rho.round() as usize).max(1), seed ^ (ci as u64) << 1);
        for (u, v) in sub.edges() {
            if (u as usize) < size && (v as usize) < size {
                b.edge((lo + u as usize) as VertexId, (lo + v as usize) as VertexId);
            }
        }
        if ci + 1 < k {
            // Single bridge edge to the next community.
            b.edge((hi - 1) as VertexId, hi as VertexId);
        }
    }
    b.build()
}

/// Adds uniform random edges if the generated graph fell short of the
/// target ρ̄ = m/n by more than 20 % (erased configuration models lose
/// mass to collisions).
fn with_rho_target(n: usize, rho: f64, g: CsrGraph) -> CsrGraph {
    let have = g.num_edges() as f64 / n as f64;
    if have >= 0.8 * rho {
        return g;
    }
    let missing = ((rho - have) * n as f64) as usize;
    let mut rng = crate::rng::Xoshiro256pp::seed_from_u64(0xF1FE);
    let mut b = GraphBuilder::with_capacity(n, g.num_edges() + missing);
    b.extend(g.edges());
    for _ in 0..missing {
        let u = rng.bounded_usize(n) as VertexId;
        let v = rng.bounded_usize(n) as VertexId;
        if u != v {
            b.edge(u, v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::GraphStats;

    /// Debug builds shrink stand-ins a further 4x (configuration-model
    /// generation dominates this suite unoptimized); release builds keep
    /// the documented scales.
    fn sh(shift: u32) -> u32 {
        if cfg!(debug_assertions) {
            shift + 2
        } else {
            shift
        }
    }

    #[test]
    fn catalog_has_ten_graphs() {
        assert_eq!(standin_catalog().len(), 10);
    }

    #[test]
    fn all_standins_generate_and_validate() {
        for spec in standin_catalog() {
            let g = standin(spec.id, sh(6), 42); // 1/64 scale for test speed
            g.validate();
            assert!(g.num_vertices() >= 256, "{}: n too small", spec.id);
            assert!(g.num_edges() > 0, "{}: no edges", spec.id);
        }
    }

    #[test]
    fn rho_within_factor_two() {
        for spec in standin_catalog() {
            let g = standin(spec.id, sh(6), 42);
            let rho = g.num_edges() as f64 / g.num_vertices() as f64;
            assert!(
                rho > spec.paper_rho / 2.5 && rho < spec.paper_rho * 2.5,
                "{}: rho {} vs paper {}",
                spec.id,
                rho,
                spec.paper_rho
            );
        }
    }

    #[test]
    fn road_standin_high_diameter() {
        let g = standin("rca", sh(6), 1);
        let s = GraphStats::compute(&g, 3);
        assert!(s.diameter_lb > 50, "rca diameter {}", s.diameter_lb);
    }

    #[test]
    fn chain_standin_higher_diameter_than_social() {
        let social = GraphStats::compute(&standin("pok", sh(6), 1), 3).diameter_lb;
        let chain = GraphStats::compute(&standin("ndm", sh(6), 1), 3).diameter_lb;
        assert!(chain > 3 * social, "chain D {chain} vs social D {social}");
    }

    #[test]
    fn social_standin_is_skewed() {
        let g = standin("orc", sh(7), 2);
        let s = GraphStats::compute(&g, 2);
        assert!(s.max_degree as f64 > 5.0 * s.avg_degree);
    }

    #[test]
    fn deterministic() {
        assert_eq!(standin("amz", sh(6), 9), standin("amz", sh(6), 9));
    }

    #[test]
    #[should_panic(expected = "unknown stand-in")]
    fn unknown_id_panics() {
        standin("nope", sh(4), 0);
    }
}
