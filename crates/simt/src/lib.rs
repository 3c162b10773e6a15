//! Software SIMT engine: the GPU substitute of this reproduction.
//!
//! The paper evaluates SlimSell on NVIDIA Tesla GPUs (§IV-B), where a
//! warp of 32 SIMT lanes plays the role of the SIMD unit ("one warp
//! usually counts 32 cores, which constitutes the GPU 'SIMD width'",
//! §II-B) and each Sell chunk of height `C = 32` is processed by one
//! warp. No GPU is available here, so this crate simulates the execution
//! model the GPU results depend on:
//!
//! * **lock-step warps** — a warp's cost per inner-loop column step is
//!   charged for all 32 lanes regardless of padding (that is precisely
//!   why padding hurts and σ-sorting helps on GPUs);
//! * **finite parallelism** — a fixed number of concurrently resident
//!   warp slots (SMs × warps/SM); an iteration's simulated time is the
//!   *makespan* of scheduling all chunk tasks onto those slots, so one
//!   oversized chunk serializes the iteration — the load-imbalance
//!   phenomenon SlimChunk (§III-D) attacks;
//! * **memory-operation costs** — explicit per-load/gather/store charges
//!   so SlimSell's removal of the `val` stream shows up as saved cycles.
//!
//! Functional execution reuses `slimsell_core::chunk_mv` and the semiring
//! post-processing verbatim, so the simulator's BFS *output* is
//! bit-identical to the CPU engine's — the cost model only decides what
//! the simulated clock says. Experiments read its *shapes* (ratios,
//! crossovers), not absolute times.

pub mod bfs;
pub mod cost;
pub mod machine;

pub use bfs::{run_simt_bfs, SimtBfsReport, SimtOptions};
pub use cost::CostModel;
pub use machine::{makespan, SimtConfig};
