//! Runtime → const-generic dispatch.
//!
//! Experiments choose C, σ, representation and semiring at run time; the
//! kernels are generic in `C` (a `const`) and the semiring (a type). This
//! module builds the matrix once and returns boxed closures so a
//! configuration can be run many times (preprocessing amortization, §IV-D)
//! without rebuilding.

use slimsell_core::matrix::{ChunkMatrix, SellCSigma, SlimSellMatrix};
use slimsell_core::semiring::{
    BooleanSemiring, RealSemiring, SelMaxSemiring, Semiring, TropicalSemiring,
};
use slimsell_core::{BfsEngine, BfsOptions, BfsOutput};
use slimsell_graph::{CsrGraph, VertexId};
use slimsell_simd::UnsupportedLanes;
use slimsell_simt::{run_simt_bfs, SimtBfsReport, SimtConfig, SimtOptions};

/// Representation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepKind {
    /// SlimSell (no `val` array).
    SlimSell,
    /// Sell-C-σ (explicit `val`).
    SellCSigma,
}

impl RepKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            RepKind::SlimSell => "SlimSell",
            RepKind::SellCSigma => "Sell-C-sigma",
        }
    }
}

/// Semiring selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemiringKind {
    /// Tropical (min, +).
    Tropical,
    /// Real (+, ·).
    Real,
    /// Boolean (|, &).
    Boolean,
    /// Sel-max (max, ·).
    SelMax,
}

impl SemiringKind {
    /// All four semirings in the paper's listing order.
    pub const ALL: [SemiringKind; 4] =
        [SemiringKind::Tropical, SemiringKind::Real, SemiringKind::Boolean, SemiringKind::SelMax];

    /// Display name used in tables (matches the paper's legends).
    pub fn name(self) -> &'static str {
        match self {
            SemiringKind::Tropical => "tropical",
            SemiringKind::Real => "real",
            SemiringKind::Boolean => "boolean",
            SemiringKind::SelMax => "sel-max",
        }
    }

    /// Whether the semiring produces parents directly.
    pub fn computes_parents(self) -> bool {
        matches!(self, SemiringKind::SelMax)
    }
}

/// Boxed BFS entry point captured over a prepared matrix.
type BfsRunner = Box<dyn Fn(VertexId, &BfsOptions) -> BfsOutput + Send + Sync>;

/// Boxed simulated-BFS entry point captured over a prepared matrix.
type SimtRunner = Box<dyn Fn(VertexId, &SimtOptions) -> SimtBfsReport + Send + Sync>;

/// A built matrix + engine configuration, ready to run from any root.
pub struct Prepared {
    runner: BfsRunner,
    storage_cells: usize,
    padding_cells: usize,
    num_chunks: usize,
}

impl Prepared {
    /// Runs BFS from `root` with the given engine options.
    pub fn run(&self, root: VertexId, opts: &BfsOptions) -> BfsOutput {
        (self.runner)(root, opts)
    }

    /// Total storage cells of the built matrix (Table III accounting).
    pub fn storage_cells(&self) -> usize {
        self.storage_cells
    }

    /// Padding cells `P` of the built structure.
    pub fn padding_cells(&self) -> usize {
        self.padding_cells
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }
}

macro_rules! prep_arm {
    ($g:expr, $sigma:expr, $rep:expr, $c:literal, $sem:ty) => {{
        match $rep {
            RepKind::SlimSell => {
                let m = SlimSellMatrix::<$c>::build($g, $sigma);
                let (cells, pad, nc) =
                    (m.storage_cells(), m.structure().padding_cells(), m.structure().num_chunks());
                Prepared {
                    runner: Box::new(move |root, opts| {
                        BfsEngine::run::<_, $sem, $c>(&m, root, opts)
                    }),
                    storage_cells: cells,
                    padding_cells: pad,
                    num_chunks: nc,
                }
            }
            RepKind::SellCSigma => {
                let m = SellCSigma::<$c>::build($g, $sigma, <$sem>::PAD);
                let (cells, pad, nc) =
                    (m.storage_cells(), m.structure().padding_cells(), m.structure().num_chunks());
                Prepared {
                    runner: Box::new(move |root, opts| {
                        BfsEngine::run::<_, $sem, $c>(&m, root, opts)
                    }),
                    storage_cells: cells,
                    padding_cells: pad,
                    num_chunks: nc,
                }
            }
        }
    }};
}

macro_rules! prep_c {
    ($g:expr, $sigma:expr, $rep:expr, $sem:expr, $c:literal) => {
        match $sem {
            SemiringKind::Tropical => prep_arm!($g, $sigma, $rep, $c, TropicalSemiring),
            SemiringKind::Real => prep_arm!($g, $sigma, $rep, $c, RealSemiring),
            SemiringKind::Boolean => prep_arm!($g, $sigma, $rep, $c, BooleanSemiring),
            SemiringKind::SelMax => prep_arm!($g, $sigma, $rep, $c, SelMaxSemiring),
        }
    };
}

/// Builds a matrix for `(C, σ, representation, semiring)` and returns a
/// reusable runner, or [`UnsupportedLanes`] when `c` is not a supported
/// lane count (4/8/16/32) — the same error the lane dispatcher itself
/// reports, so callers can surface one message for both layers.
pub fn try_prepare(
    g: &CsrGraph,
    c: usize,
    sigma: usize,
    rep: RepKind,
    sem: SemiringKind,
) -> Result<Prepared, UnsupportedLanes> {
    Ok(match c {
        4 => prep_c!(g, sigma, rep, sem, 4),
        8 => prep_c!(g, sigma, rep, sem, 8),
        16 => prep_c!(g, sigma, rep, sem, 16),
        32 => prep_c!(g, sigma, rep, sem, 32),
        _ => return Err(UnsupportedLanes(c)),
    })
}

/// Builds a matrix for `(C, σ, representation, semiring)` and returns a
/// reusable runner.
///
/// # Panics
/// Panics if `c` is not one of 4/8/16/32 (see [`try_prepare`] for the
/// non-panicking form).
pub fn prepare(g: &CsrGraph, c: usize, sigma: usize, rep: RepKind, sem: SemiringKind) -> Prepared {
    match try_prepare(g, c, sigma, rep, sem) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

/// A prepared SIMT (GPU-model) configuration; warp width is fixed at 32.
pub struct PreparedSimt {
    runner: SimtRunner,
}

impl PreparedSimt {
    /// Runs the simulated BFS from `root`.
    pub fn run(&self, root: VertexId, opts: &SimtOptions) -> SimtBfsReport {
        (self.runner)(root, opts)
    }
}

/// Builds a warp-width-32 matrix and binds it to the SIMT engine.
pub fn prepare_simt(
    g: &CsrGraph,
    sigma: usize,
    rep: RepKind,
    sem: SemiringKind,
    cfg: SimtConfig,
) -> PreparedSimt {
    macro_rules! simt_arm {
        ($sem:ty) => {{
            match rep {
                RepKind::SlimSell => {
                    let m = SlimSellMatrix::<32>::build(g, sigma);
                    PreparedSimt {
                        runner: Box::new(move |root, opts| {
                            run_simt_bfs::<_, $sem, 32>(&m, root, &cfg, opts)
                        }),
                    }
                }
                RepKind::SellCSigma => {
                    let m = SellCSigma::<32>::build(g, sigma, <$sem>::PAD);
                    PreparedSimt {
                        runner: Box::new(move |root, opts| {
                            run_simt_bfs::<_, $sem, 32>(&m, root, &cfg, opts)
                        }),
                    }
                }
            }
        }};
    }
    match sem {
        SemiringKind::Tropical => simt_arm!(TropicalSemiring),
        SemiringKind::Real => simt_arm!(RealSemiring),
        SemiringKind::Boolean => simt_arm!(BooleanSemiring),
        SemiringKind::SelMax => simt_arm!(SelMaxSemiring),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimsell_graph::{serial_bfs, GraphBuilder};

    fn g() -> CsrGraph {
        GraphBuilder::new(20)
            .edges((0..19u32).map(|v| (v, v + 1)).chain([(0, 10), (5, 15)]))
            .build()
    }

    #[test]
    fn all_configs_match_reference() {
        let g = g();
        let reference = serial_bfs(&g, 0);
        for c in [4usize, 8, 16, 32] {
            for rep in [RepKind::SlimSell, RepKind::SellCSigma] {
                for sem in SemiringKind::ALL {
                    let p = prepare(&g, c, 20, rep, sem);
                    let out = p.run(0, &BfsOptions::default());
                    assert_eq!(out.dist, reference.dist, "C={c} {:?} {:?}", rep, sem);
                }
            }
        }
    }

    #[test]
    fn simt_configs_match_reference() {
        let g = g();
        let reference = serial_bfs(&g, 0);
        for rep in [RepKind::SlimSell, RepKind::SellCSigma] {
            let p = prepare_simt(&g, 20, rep, SemiringKind::Tropical, SimtConfig::default());
            let out = p.run(0, &SimtOptions::default());
            assert_eq!(out.dist, reference.dist);
        }
    }

    #[test]
    fn storage_metadata_exposed() {
        let g = g();
        let slim = prepare(&g, 8, 20, RepKind::SlimSell, SemiringKind::Tropical);
        let sell = prepare(&g, 8, 20, RepKind::SellCSigma, SemiringKind::Tropical);
        assert!(slim.storage_cells() < sell.storage_cells());
        assert_eq!(slim.num_chunks(), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported chunk height C=5")]
    fn bad_c_panics() {
        prepare(&g(), 5, 1, RepKind::SlimSell, SemiringKind::Tropical);
    }

    #[test]
    fn bad_c_reports_supported_lanes() {
        let err = match try_prepare(&g(), 7, 1, RepKind::SlimSell, SemiringKind::Tropical) {
            Ok(_) => panic!("C=7 must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.0, 7);
        let msg = err.to_string();
        assert!(msg.contains("C=7") && msg.contains("[4, 8, 16, 32]"), "message: {msg}");
    }
}
