//! The shared experiment sweep: every method on every corpus instance,
//! with per-run budgets, progress reporting and loud validation failures.

use std::time::Instant;

use logk::SolveStats;
use workloads::Instance;

use crate::config::ReproConfig;
use crate::run::{find_optimal_width, Method, RunResult, RunStatus};

/// One (instance, method) outcome.
pub struct SweepRow<'a> {
    /// The instance.
    pub inst: &'a Instance,
    /// The method.
    pub method: Method,
    /// What happened.
    pub result: RunResult,
}

/// Runs every method on every instance sequentially (so per-run timings
/// are not distorted by sibling runs competing for cores).
pub fn sweep<'a>(
    corpus: &'a [Instance],
    methods: &[Method],
    cfg: &ReproConfig,
) -> Vec<SweepRow<'a>> {
    let started = Instant::now();
    let total = corpus.len() * methods.len();
    let mut rows = Vec::with_capacity(total);
    let mut done = 0usize;
    for inst in corpus {
        for &method in methods {
            let result = find_optimal_width(method, &inst.hg, cfg.k_max, cfg.timeout);
            if result.status == RunStatus::InvalidWitness {
                eprintln!(
                    "!! INVALID WITNESS: {} on {} (solver bug)",
                    method.name(),
                    inst.name
                );
            }
            // Sanity: certified generator upper bounds must never be
            // undercut by HD methods (ghw-based methods may be lower).
            if let (Some(w), Some(upper), false) = (
                result.width,
                inst.width_upper,
                matches!(method, Method::HtdSat | Method::Ghd),
            ) {
                if w > upper {
                    eprintln!(
                        "!! WIDTH ABOVE CERTIFIED BOUND: {} found {w} > {upper} on {}",
                        method.name(),
                        inst.name
                    );
                }
            }
            rows.push(SweepRow {
                inst,
                method,
                result,
            });
            done += 1;
            if done.is_multiple_of(50) {
                eprintln!(
                    "  [{done}/{total}] {:.1}s elapsed",
                    started.elapsed().as_secs_f64()
                );
            }
        }
    }
    let (solves, totals) = aggregate_counters(&rows);
    if solves > 0 {
        eprintln!("  engine totals over {solves} solves: {totals:?}");
    }
    rows
}

/// Merges the engine counters of every `log-k-decomp` run in the sweep:
/// the number of solves, and their merged counters.
pub fn aggregate_counters(rows: &[SweepRow<'_>]) -> (u64, SolveStats) {
    let mut total = SolveStats::default();
    let mut solves = 0;
    for row in rows {
        total.merge(&row.result.counters);
        solves += row.result.solves;
    }
    (solves, total)
}
