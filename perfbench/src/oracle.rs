//! Output checks and failure accounting.
//!
//! Every operation the benchmark times is checked against an oracle
//! computed independently of the engine under test: hop distances
//! against Trad-BFS, BFS trees with the Graph500 validator, SSSP labels
//! against Dijkstra, PageRank against its own convergence contract. An
//! operation fails when its output is wrong, when it panics, or when
//! the server answers it with an error.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Relative tolerance of the SSSP check (f32 min-plus sweeps against
/// f32 Dijkstra; the two sum path weights in different orders).
pub const SSSP_REL_TOL: f32 = 1e-3;

/// How far PageRank scores may sum away from 1.
pub const PAGERANK_SUM_TOL: f64 = 1e-3;

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that produced a wrong output, panicked, or errored.
    pub failed: u64,
    /// The first failure messages, for the log.
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Counts one operation; `outcome` is its check result.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Runs `f`, turning a panic into an `Err` carrying its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Hop distances must equal the oracle's exactly.
pub fn check_dist(got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v}: distance {} != oracle {}", got[v], want[v])),
    }
}

/// SSSP labels must match Dijkstra within [`SSSP_REL_TOL`]; unreachable
/// vertices must be unreachable in both.
pub fn check_sssp(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    for (v, (&a, &b)) in got.iter().zip(want).enumerate() {
        let ok =
            if b.is_finite() { (a - b).abs() <= SSSP_REL_TOL * b.abs().max(1.0) } else { a == b };
        if !ok {
            return Err(format!("vertex {v}: label {a} != dijkstra {b}"));
        }
    }
    Ok(())
}

/// PageRank must stop by reaching its tolerance (a run stopped by its
/// iteration cap ends above it) with scores that sum to 1.
pub fn check_pagerank(scores: &[f32], residual: f32, tolerance: f32) -> Result<(), String> {
    if residual > tolerance {
        return Err(format!("not converged: residual {residual} > tolerance {tolerance}"));
    }
    let sum: f64 = scores.iter().map(|&s| s as f64).sum();
    if (sum - 1.0).abs() > PAGERANK_SUM_TOL || scores.iter().any(|s| !s.is_finite()) {
        return Err(format!("scores sum to {sum}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_distances_count_as_a_failure() {
        let oracle = vec![0, 1, 2, 2, u32::MAX];
        let mut corrupted = oracle.clone();
        corrupted[3] = 1;
        let mut ledger = Ledger::default();
        ledger.record("bfs", check_dist(&oracle, &oracle));
        ledger.record("bfs", check_dist(&corrupted, &oracle));
        ledger.record("bfs", check_dist(&oracle[..4], &oracle));
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));
        assert!(ledger.reasons[0].contains("vertex 3"), "{:?}", ledger.reasons);
    }

    #[test]
    fn sssp_check_uses_relative_tolerance() {
        let want = [0.0, 100.0, f32::INFINITY];
        assert!(check_sssp(&[0.0, 100.05, f32::INFINITY], &want).is_ok());
        assert!(check_sssp(&[0.0, 100.2, f32::INFINITY], &want).is_err());
        assert!(check_sssp(&[0.0, 100.0, 5.0], &want).is_err());
    }

    #[test]
    fn pagerank_check_needs_convergence_and_unit_mass() {
        assert!(check_pagerank(&[0.5, 0.5], 1e-8, 1e-7).is_ok());
        assert!(check_pagerank(&[0.5, 0.5], 1e-3, 1e-7).is_err());
        assert!(check_pagerank(&[0.5, 0.6], 1e-8, 1e-7).is_err());
    }

    #[test]
    fn panics_become_failures() {
        let mut ledger = Ledger::default();
        let out = guarded(|| -> u32 { panic!("boom") });
        ledger.record("op", out.map(|_| ()));
        assert_eq!(ledger.failed, 1);
        assert!(ledger.reasons[0].contains("boom"));
        assert_eq!(guarded(|| 7), Ok(7));
    }
}
