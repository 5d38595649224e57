//! Experiment harness: reproduces every table and figure of the paper's
//! evaluation (Tables 1–5, Figures 1 and 3) on the scaled HyperBench-like
//! corpus.
//!
//! Binaries (`cargo run --release -p harness --bin <name> [-- flags]`):
//!
//! * `repro` — run any subset: `repro table1 fig1 …` or `repro all`;
//! * `table1` … `table5`, `fig1`, `fig3` — one artifact each.
//!
//! Flags: `--scale-div=N --timeout-ms=N --kmax=N --threads=N --seed=N
//! --hb-large=N --quick` (see [`config::ReproConfig`]).

pub mod config;
pub mod paper;
pub mod run;
pub mod stats;
pub mod sweep;
pub mod tables;

pub use config::ReproConfig;
pub use run::{decide_width, find_optimal_width, Method, RunResult, RunStatus};
pub use stats::Stats;
pub use sweep::aggregate_counters;
