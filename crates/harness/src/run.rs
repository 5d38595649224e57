//! Solver runners with the paper's experimental discipline: per-instance
//! wall-clock timeout, optimal-width search by iterating k, certified
//! (validated) witnesses, and explicit memout reporting.

use std::time::{Duration, Instant};

use decomp::Control;
use hypergraph::Hypergraph;
use logk::{HybridConfig, HybridMetric, SolveStats};
use portfolio::{Engine, EngineKind, Verdict};

/// The competing methods, named as in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// `log-k-decomp` without hybridisation (parallel).
    LogK {
        /// Worker threads.
        threads: usize,
    },
    /// The paper's flagship: hybrid `log-k-decomp` (Appendix D.2).
    LogKHybrid {
        /// Worker threads.
        threads: usize,
    },
    /// Hybrid with an explicit metric/threshold (Table 2).
    LogKHybridWith {
        /// Worker threads.
        threads: usize,
        /// Use `WeightedCount` (true) or `EdgeCount` (false).
        weighted: bool,
        /// Switch threshold.
        threshold: u32,
    },
    /// `det-k-decomp` (stands in for NewDetKDecomp).
    DetK,
    /// SAT-based optimal-width solver (stands in for HtdLEO; exact ghw).
    HtdSat,
    /// BalancedGo-style GHD search (upper bounds).
    Ghd,
}

impl Method {
    /// Display name used in tables.
    pub fn name(self) -> String {
        match self {
            Method::LogK { threads } => format!("log-k-decomp({threads}t)"),
            Method::LogKHybrid { threads } => format!("log-k Hybrid({threads}t)"),
            Method::LogKHybridWith {
                weighted,
                threshold,
                ..
            } => format!(
                "{}({threshold})",
                if weighted {
                    "WeightedCount"
                } else {
                    "EdgeCount"
                }
            ),
            Method::DetK => "det-k-decomp".to_string(),
            Method::HtdSat => "htd-sat".to_string(),
            Method::Ghd => "balanced-ghd".to_string(),
        }
    }

    /// The registry engine this method runs.
    pub fn engine(self) -> Engine {
        match self {
            Method::LogK { threads } => Engine::new(EngineKind::LogkPar, threads),
            Method::LogKHybrid { threads } => Engine::new(EngineKind::LogkHybrid, threads),
            Method::LogKHybridWith {
                threads,
                weighted,
                threshold,
            } => Engine::hybrid_with(
                threads,
                HybridConfig {
                    metric: if weighted {
                        HybridMetric::WeightedCount
                    } else {
                        HybridMetric::EdgeCount
                    },
                    threshold: threshold as f64,
                },
            ),
            Method::DetK => Engine::new(EngineKind::Detk, 1),
            Method::HtdSat => Engine::new(EngineKind::HtdSat, 1),
            Method::Ghd => Engine::new(EngineKind::Ghd, 1),
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Optimal width found and certified within the budget.
    Solved,
    /// Wall-clock budget exhausted.
    Timeout,
    /// Encoding exceeded the memory budget (SAT baseline only).
    Memout,
    /// No witness up to `k_max`: proves `width > k_max`, except for the
    /// one-sided GHD search, where it only means none was found.
    WidthExceeded,
    /// A returned witness failed validation (a solver bug — counted
    /// loudly, never silently).
    InvalidWitness,
}

/// Result of one (method, instance) run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Outcome class.
    pub status: RunStatus,
    /// Optimal width, when solved.
    pub width: Option<usize>,
    /// Wall-clock time of the run (whole optimal-width search).
    pub time: Duration,
    /// Engine counters (recursion, memoisation, allocation) merged over
    /// the width search's `log-k-decomp` solves.
    pub counters: SolveStats,
    /// Solves merged into `counters` (0 for the other methods).
    pub solves: u64,
}

impl RunResult {
    /// Whether this run counts as "solved" in the paper's sense.
    pub fn solved(&self) -> bool {
        self.status == RunStatus::Solved
    }

    /// Seconds as f64 (for stats).
    pub fn secs(&self) -> f64 {
        self.time.as_secs_f64()
    }
}

/// Runs `method` on `hg`, searching for the optimal width `≤ k_max` under
/// a single wall-clock `budget` (as in the paper: "running time necessary
/// to compute the optimal width decomposition").
pub fn find_optimal_width(
    method: Method,
    hg: &Hypergraph,
    k_max: usize,
    budget: Duration,
) -> RunResult {
    let start = Instant::now();
    let ctrl = Control::with_timeout(budget);
    let mut counters = SolveStats::default();
    let mut solves = 0;
    let swept = method.engine().sweep(hg, 1..=k_max, &ctrl, |s| {
        counters.merge(s);
        solves += 1;
    });
    let (status, width) = match swept {
        Ok(Some((k, Verdict::Hd(_) | Verdict::Ghd(_)))) => (RunStatus::Solved, Some(k)),
        Ok(Some((_, Verdict::Memout))) => (RunStatus::Memout, None),
        // A sweep stops on nothing else but an invalid witness.
        Ok(Some((k, _))) => (RunStatus::InvalidWitness, Some(k)),
        Ok(None) => (RunStatus::WidthExceeded, None),
        Err(_) => (RunStatus::Timeout, None),
    };
    RunResult {
        status,
        width,
        time: start.elapsed(),
        counters,
        solves,
    }
}

/// Decision run for Table 4: does `hw(H) ≤ w` hold? Returns
/// `Some(true/false)` when the method's answer decides it within the
/// budget, `None` otherwise (timeout, or an answer that proves nothing
/// about `hw`, such as a one-sided GHD-search miss).
pub fn decide_width(method: Method, hg: &Hypergraph, w: usize, budget: Duration) -> Option<bool> {
    let ctrl = Control::with_timeout(budget);
    let (verdict, _) = method.engine().decide(hg, w, &ctrl).ok()?;
    verdict.hw_answer().map(|d| d.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    #[test]
    fn all_methods_solve_the_ten_cycle() {
        let hg = cycle(10);
        let budget = Duration::from_secs(20);
        for m in [
            Method::LogK { threads: 1 },
            Method::LogKHybrid { threads: 1 },
            Method::DetK,
            Method::HtdSat,
            Method::Ghd,
        ] {
            let r = find_optimal_width(m, &hg, 4, budget);
            assert_eq!(r.status, RunStatus::Solved, "{}", m.name());
            assert_eq!(r.width, Some(2), "{}", m.name());
        }
    }

    #[test]
    fn zero_budget_times_out() {
        let hg = cycle(30);
        let r = find_optimal_width(Method::DetK, &hg, 6, Duration::from_millis(0));
        assert!(matches!(r.status, RunStatus::Timeout | RunStatus::Solved));
    }

    #[test]
    fn width_exceeded_reported() {
        // K7 has hw 4 > k_max = 2.
        let mut edges = Vec::new();
        for a in 0..7u32 {
            for b in a + 1..7 {
                edges.push(vec![a, b]);
            }
        }
        let hg = Hypergraph::from_edge_lists(&edges);
        let r = find_optimal_width(
            Method::LogKHybrid { threads: 1 },
            &hg,
            2,
            Duration::from_secs(30),
        );
        assert_eq!(r.status, RunStatus::WidthExceeded);
    }

    #[test]
    fn decide_width_agrees_with_optimum() {
        let hg = cycle(8);
        let budget = Duration::from_secs(10);
        assert_eq!(
            decide_width(Method::LogKHybrid { threads: 1 }, &hg, 1, budget),
            Some(false)
        );
        assert_eq!(
            decide_width(Method::LogKHybrid { threads: 1 }, &hg, 2, budget),
            Some(true)
        );
    }

    #[test]
    fn ghd_search_miss_decides_nothing() {
        // The balanced GHD search is one-sided: it misses the 12-cycle
        // at its true width 2, and the miss proves nothing.
        let budget = Duration::from_secs(10);
        assert_eq!(decide_width(Method::Ghd, &cycle(12), 2, budget), None);
        // At w = 1 the bounds pass answers before the search: GYO
        // refutes any cycle.
        assert_eq!(decide_width(Method::Ghd, &cycle(8), 1, budget), Some(false));
    }
}
