//! Reproduction harness for every table and figure of the paper.
//!
//! The `repro` binary (`cargo run --release -p slimsell-bench --bin
//! repro -- <experiment>`) regenerates the rows/series of each
//! experiment; [`experiments`] holds one module per table/figure, named
//! after it (`table3` is Table III, `fig5a` is Fig. 5a). [`dispatch`]
//! turns runtime configuration (C, σ, representation, semiring) into
//! calls of the const-generic engines; [`harness`] provides argument
//! parsing, timing and CSV emission.

pub mod dispatch;
pub mod experiments;
pub mod harness;

pub use dispatch::{prepare, prepare_simt, Prepared, RepKind, SemiringKind};
pub use harness::{Args, ExpContext};
