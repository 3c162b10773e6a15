//! Workload generators for the SlimSell reproduction.
//!
//! The paper evaluates on three graph classes (§IV, "Selection of
//! Benchmarks and Parameters"):
//!
//! * **Kronecker power-law graphs** [Leskovec et al.] with
//!   `n ∈ {2^20 … 2^28}` and `ρ ∈ {2^1 … 2^10}` — generated here with the
//!   Graph500 R-MAT recursion ([`mod@kronecker`]).
//! * **Erdős–Rényi graphs** — uniform degree distribution ([`erdos`]).
//! * **Real-world graphs** (Table IV: social networks, web graphs, a
//!   purchase network, a road network) — the original SNAP datasets are
//!   not redistributable here, so [`realworld`] provides deterministic
//!   synthetic *stand-ins* matched on (n, m, ρ̄) and qualitative structure
//!   (degree skew, diameter regime) — the two properties that drive
//!   the paper's findings on those datasets.
//!
//! Additional generators ([`ba`], [`geometric`], [`smallworld`],
//! [`config_model`]) are the building blocks of the stand-ins.
//!
//! All generators are deterministic functions of their seed, built on a
//! from-scratch xoshiro256++ PRNG ([`rng`]).

pub mod ba;
pub mod config_model;
pub mod erdos;
pub mod geometric;
pub mod kronecker;
pub mod realworld;
pub mod rng;
pub mod smallworld;

pub use erdos::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use kronecker::{kronecker, KroneckerParams};
pub use realworld::{standin, standin_catalog, StandinSpec};
pub use rng::Xoshiro256pp;
