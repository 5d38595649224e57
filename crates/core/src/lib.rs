//! `log-k-decomp` — fast parallel hypertree decompositions in logarithmic
//! recursion depth (Gottlob, Lanzinger, Okulmus, Pichler — PODS 2022).
//!
//! Engines, in increasing practicality:
//!
//! * [`basic`] — Algorithm 1 verbatim; the trusted reference oracle.
//! * [`engine`] — Algorithm 2 with all Appendix C optimisations, optional
//!   parallel separator search (Appendix D.1) and hybridisation with
//!   `det-k-decomp` (Appendix D.2).
//! * [`solver`] — the configurable [`LogK`] façade used by examples,
//!   benchmarks and the experiment harness. Its `decompose*` and
//!   `decide` calls run the bounds pass ([`settle()`]) first and the search
//!   only when no certified bound decides; `search_with_stats` is the
//!   search alone.

pub mod basic;
pub mod cache;
pub mod engine;
pub mod settle;
pub mod solver;

#[cfg(test)]
mod tests_engine;
#[cfg(test)]
mod tests_theory;

pub use basic::{decompose_basic, SolveResult};
pub use cache::{CacheSnapshot, StripedTable};
pub use engine::{
    EngineConfig, EngineStats, HybridConfig, HybridMetric, LogKEngine, SolveStats,
    DEFAULT_CACHE_BYTES,
};
pub use settle::{settle, Settled, SettledBy};
pub use solver::{shared_pool, width_bounds_with, LogK, SharedTables, Variant, WidthBounds};
