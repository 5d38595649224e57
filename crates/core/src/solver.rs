//! High-level façade over the `log-k-decomp` engines.
//!
//! A [`LogK`] value captures *how* to search (sequential / parallel /
//! hybrid, cf. Sections 5.2 and Appendix D of the paper); the width bound
//! `k` is a per-call argument, matching the paper's usage where one
//! instance is solved for `k = 1, 2, …` until the optimum is certified.
//!
//! Two entry points answer one width:
//!
//! * [`LogK::decompose_with_stats`] (and [`LogK::decompose`],
//!   [`LogK::decide`]) is the production call: the bounds pass
//!   ([`crate::settle()`]) first, then the search when no certified bound
//!   decides. GYO settles every `k = 1` call, and the minor-min-width
//!   bound refutes widths below `(tw + 1) / r`.
//! * [`LogK::search_with_stats`] is the search alone. The differential
//!   suites and the search micro-benchmarks call it, so the instances the
//!   pass would settle keep exercising the engine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use decomp::{Control, Decomposition, Interrupted};
use hypergraph::Hypergraph;
use rayon::ThreadPool;

use crate::cache::{CacheSnapshot, SubproblemCache};
use crate::engine::{
    EngineConfig, HybridConfig, HybridMetric, LogKEngine, SolveStats, DEFAULT_CACHE_BYTES,
    DEFAULT_CHILD_SPLIT_MIN_COMPONENTS, DEFAULT_CHILD_SPLIT_MIN_SIZE, DEFAULT_DETK_CACHE_CAP,
    DEFAULT_POS_CACHE_MAX_FRAG,
};
use detk::{MemoSnapshot, SharedMemo};

/// Process-wide cache of work-stealing pools, keyed by worker count.
///
/// Building a pool spawns (and joining it reaps) OS threads — ~0.1 ms on
/// a bench box, which dominates sub-millisecond solves
/// (`micro/par_scaling` t1 measured the tax). Solvers therefore share one
/// long-lived pool per thread count: harness sweeps, benches and repeated
/// [`LogK::decompose`] calls at the same width all reuse the same warm
/// workers. Pools live for the process and are never reaped; idle workers
/// park on a condvar with a 100 ms timeout backstop, so each cached pool
/// keeps a small (~10 wakeups/s per worker) but permanent background
/// cost — negligible for the handful of distinct thread counts real
/// callers use, and the trade the cache makes for spawn-free solves.
static POOL_CACHE: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// Returns the process-wide work-stealing pool for `threads` workers,
/// building (and caching) it on first use.
pub fn shared_pool(threads: usize) -> Arc<ThreadPool> {
    let cache = POOL_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("rayon pool construction cannot fail for sane sizes"),
        )
    }))
}

/// A cross-solve memoisation pair: the engine's [`SubproblemCache`] and
/// the `det-k-decomp` handoff memo, `Arc`-held so repeated solves (and
/// concurrent solves in a server) warm each other.
///
/// # Soundness contract
///
/// Cached verdicts are relative to a hypergraph (its edge numbering) and
/// a width bound `k`. A `SharedTables` value must only be used for solves
/// of *that* instance at *that* `k`; [`LogK`] enforces this by consulting
/// an attached pair only when the solve's `k` matches ([`Self::k`]) and —
/// when the pair was bound to an instance with [`Self::for_instance`] —
/// the solved hypergraph is the bound one (by address; the
/// `htdserve::TableHub` canonicalises content-equal instances to one
/// `Arc`).
#[derive(Clone)]
pub struct SharedTables {
    /// Subproblem verdict cache (positive + negative, byte-budgeted).
    cache: Arc<SubproblemCache>,
    /// `det-k-decomp` handoff memo (entry-capped, width-checked).
    detk_memo: Arc<SharedMemo>,
    /// The instance the verdicts are relative to, when bound.
    hg: Option<Arc<Hypergraph>>,
}

impl SharedTables {
    /// A fresh unbound pair for width bound `k`. The caller takes on the
    /// contract of only using it for one instance (see the type docs).
    pub fn new(k: usize, cache_bytes: usize, detk_cache_cap: usize) -> Self {
        SharedTables {
            cache: Arc::new(SubproblemCache::new(cache_bytes)),
            detk_memo: Arc::new(SharedMemo::new(k, detk_cache_cap)),
            hg: None,
        }
    }

    /// A fresh pair bound to `hg`: solves of any other instance skip it.
    pub fn for_instance(
        hg: Arc<Hypergraph>,
        k: usize,
        cache_bytes: usize,
        detk_cache_cap: usize,
    ) -> Self {
        SharedTables {
            hg: Some(hg),
            ..Self::new(k, cache_bytes, detk_cache_cap)
        }
    }

    /// The width bound the pair's verdicts are relative to.
    pub fn k(&self) -> usize {
        self.detk_memo.k()
    }

    /// Counter snapshot of the subproblem cache.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cache.snapshot()
    }

    /// Counter snapshot of the `det-k-decomp` memo.
    pub fn memo_snapshot(&self) -> MemoSnapshot {
        self.detk_memo.snapshot()
    }

    /// Whether this pair applies to a solve of `hg` at width `k`.
    fn applies_to(&self, hg: &Hypergraph, k: usize) -> bool {
        self.k() == k
            && self
                .hg
                .as_deref()
                .is_none_or(|bound| std::ptr::eq(bound, hg))
    }
}

impl std::fmt::Debug for SharedTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTables")
            .field("k", &self.k())
            .field("bound", &self.hg.is_some())
            .field("cache_entries", &self.cache.len())
            .field("memo_entries", &self.detk_memo.len())
            .finish()
    }
}

/// Search strategy selection.
#[derive(Clone, Copy, Debug)]
pub enum Variant {
    /// Algorithm 1, verbatim (reference oracle; exponentially slower).
    Basic,
    /// Algorithm 2, sequential.
    Optimized,
    /// Algorithm 2 with the separator search raced across a rayon pool.
    Parallel,
}

/// Configurable `log-k-decomp` solver.
#[derive(Clone, Debug)]
pub struct LogK {
    /// Which engine to run.
    pub variant: Variant,
    /// Worker threads for [`Variant::Parallel`]; `None` takes the ambient
    /// worker count (`RAYON_NUM_THREADS`, else all cores). Resolved
    /// through the process-wide pool cache (see [`shared_pool`]) unless
    /// an explicit pool was attached with [`Self::with_pool`].
    pub threads: Option<usize>,
    /// Explicit pool attached by [`Self::with_pool`]; takes precedence
    /// over `threads` for [`Variant::Parallel`] solves.
    pub pool: Option<Arc<ThreadPool>>,
    /// Recursion depths that race their separator search in parallel.
    pub parallel_depth: usize,
    /// Hybrid handoff to `det-k-decomp` (Appendix D.2), if any.
    pub hybrid: Option<HybridConfig>,
    /// See [`EngineConfig::root_fallthrough`].
    pub root_fallthrough: bool,
    /// Byte budget of the subproblem cache; `0` disables it.
    /// See [`EngineConfig::cache_bytes`].
    pub cache_bytes: usize,
    /// Memo-table entry cap for `det-k-decomp` handoffs.
    /// See [`EngineConfig::detk_cache_cap`].
    pub detk_cache_cap: usize,
    /// λp admissibility pre-filter (cheap bitset rejection before the BFS
    /// separation). See [`EngineConfig::lambda_p_prefilter`].
    pub lambda_p_prefilter: bool,
    /// Largest fragment (node count) stored by a positive cache insert.
    /// See [`EngineConfig::pos_cache_max_frag`].
    pub pos_cache_max_frag: usize,
    /// Sibling-children parallelism grain, component-count floor.
    /// See [`EngineConfig::child_split_min_components`]; `usize::MAX`
    /// disables below-children parallelism without touching the λc race.
    pub child_split_min_components: usize,
    /// Sibling-children parallelism grain, aggregate-work floor.
    /// See [`EngineConfig::child_split_min_size`].
    pub child_split_min_size: usize,
    /// Cross-solve memo tables attached by [`Self::with_shared_tables`];
    /// consulted only for solves they apply to (matching `k` and, when
    /// instance-bound, matching hypergraph).
    pub shared_tables: Option<SharedTables>,
}

impl LogK {
    /// Sequential Algorithm 2 without hybridisation.
    pub fn sequential() -> Self {
        LogK {
            variant: Variant::Optimized,
            threads: None,
            pool: None,
            parallel_depth: 0,
            hybrid: None,
            root_fallthrough: false,
            cache_bytes: DEFAULT_CACHE_BYTES,
            detk_cache_cap: DEFAULT_DETK_CACHE_CAP,
            lambda_p_prefilter: true,
            pos_cache_max_frag: DEFAULT_POS_CACHE_MAX_FRAG,
            child_split_min_components: DEFAULT_CHILD_SPLIT_MIN_COMPONENTS,
            child_split_min_size: DEFAULT_CHILD_SPLIT_MIN_SIZE,
            shared_tables: None,
        }
    }

    /// Algorithm 1 (reference oracle).
    pub fn basic() -> Self {
        LogK {
            variant: Variant::Basic,
            ..Self::sequential()
        }
    }

    /// Parallel Algorithm 2 on `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        LogK {
            variant: Variant::Parallel,
            threads: Some(threads),
            parallel_depth: 2,
            ..Self::sequential()
        }
    }

    /// The paper's Hybrid configuration: parallel `log-k-decomp` with a
    /// `det-k-decomp` handoff. `WeightedCount` with threshold 400 performed
    /// best in Table 2 of the paper.
    pub fn hybrid(threads: usize) -> Self {
        LogK {
            hybrid: Some(HybridConfig {
                metric: HybridMetric::WeightedCount,
                threshold: 400.0,
            }),
            ..Self::parallel(threads)
        }
    }

    /// Replaces the hybrid policy.
    pub fn with_hybrid(mut self, cfg: Option<HybridConfig>) -> Self {
        self.hybrid = cfg;
        self
    }

    /// Attaches an explicit work-stealing pool: every
    /// [`Variant::Parallel`] solve of this solver runs inside `pool`'s
    /// scope instead of resolving one from the process-wide cache.
    /// Callers that already own a pool (long-running services, tests
    /// pinning worker counts) amortise construction this way; everyone
    /// else gets the same effect automatically via [`shared_pool`].
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Replaces the subproblem-cache budget (`0` disables
    /// memoisation — the differential tests compare both modes).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Replaces the `det-k-decomp` handoff memo cap.
    pub fn with_detk_cache_cap(mut self, cap: usize) -> Self {
        self.detk_cache_cap = cap;
        self
    }

    /// Enables or disables the λp admissibility pre-filter (the
    /// differential tests compare both modes).
    pub fn with_lambda_p_prefilter(mut self, on: bool) -> Self {
        self.lambda_p_prefilter = on;
        self
    }

    /// Replaces the node-count cap for positive cache inserts
    /// (`usize::MAX` stores every found fragment, `0` stores none).
    pub fn with_pos_cache_max_frag(mut self, max: usize) -> Self {
        self.pos_cache_max_frag = max;
        self
    }

    /// Replaces the sibling-children parallelism grain: child loops fan
    /// their component subproblems out on the pool only with at least
    /// `min_components` siblings summing to at least `min_size` members.
    /// `(usize::MAX, _)` pins the child loops sequential without touching
    /// the λc race (the seq≡par differential suite compares both modes).
    pub fn with_child_split(mut self, min_components: usize, min_size: usize) -> Self {
        self.child_split_min_components = min_components;
        self.child_split_min_size = min_size;
        self
    }

    /// Attaches cross-solve memo tables: solves the pair applies to
    /// (matching width and, for instance-bound pairs, matching
    /// hypergraph — see [`SharedTables`]) memoise into it instead of a
    /// fresh per-solve pair, so repeated and concurrent solves of the
    /// same query warm each other. Solves the pair does not apply to
    /// silently build their own tables, keeping width sweeps sound.
    pub fn with_shared_tables(mut self, tables: SharedTables) -> Self {
        self.shared_tables = Some(tables);
        self
    }

    /// The attached table pair, when it applies to this solve.
    fn tables_for(&self, hg: &Hypergraph, k: usize) -> Option<SharedTables> {
        self.shared_tables
            .as_ref()
            .filter(|t| t.applies_to(hg, k))
            .cloned()
    }

    /// Builds the engine for one solve, routing memoisation into the
    /// attached shared tables when they apply.
    fn build_engine<'h>(
        &self,
        hg: &'h Hypergraph,
        ctrl: &'h Control,
        cfg: EngineConfig,
    ) -> LogKEngine<'h> {
        match self.tables_for(hg, cfg.k) {
            Some(t) => LogKEngine::with_tables(hg, ctrl, cfg, t.cache, t.detk_memo),
            None => LogKEngine::new(hg, ctrl, cfg),
        }
    }

    fn engine_config(&self, k: usize) -> EngineConfig {
        EngineConfig {
            parallel_depth: if matches!(self.variant, Variant::Parallel) {
                self.parallel_depth
            } else {
                0
            },
            hybrid: self.hybrid,
            root_fallthrough: self.root_fallthrough,
            cache_bytes: self.cache_bytes,
            detk_cache_cap: self.detk_cache_cap,
            lambda_p_prefilter: self.lambda_p_prefilter,
            pos_cache_max_frag: self.pos_cache_max_frag,
            child_split_min_components: self.child_split_min_components,
            child_split_min_size: self.child_split_min_size,
            ..EngineConfig::sequential(k)
        }
    }

    /// The pool a [`Variant::Parallel`] solve runs on: the explicitly
    /// attached one, else the process-wide cached pool for the configured
    /// (or ambient) thread count.
    fn solve_pool(&self) -> Arc<ThreadPool> {
        match &self.pool {
            Some(pool) => Arc::clone(pool),
            None => shared_pool(self.threads.unwrap_or_else(rayon::current_num_threads)),
        }
    }

    /// Decides `hw(H) ≤ k`, returning a validated-by-construction witness.
    /// [`Self::decompose_with_stats`] without the statistics.
    pub fn decompose(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
    ) -> Result<Option<Decomposition>, Interrupted> {
        self.decompose_with_stats(hg, k, ctrl).map(|(d, _)| d)
    }

    /// Decision-only variant of [`Self::decompose`].
    pub fn decide(&self, hg: &Hypergraph, k: usize, ctrl: &Control) -> Result<bool, Interrupted> {
        Ok(self.decompose(hg, k, ctrl)?.is_some())
    }

    /// Like [`Self::decompose`], additionally returning search statistics.
    ///
    /// The Algorithm 2 variants first run the bounds pass
    /// ([`crate::settle()`]): GYO answers `k = 1` either way, and the
    /// minor-min-width bound refutes some larger widths, each with a
    /// checkable certificate. A call the pass settles reports which bound
    /// did in [`SolveStats::settled_by`] and zero search counters; every
    /// other call is [`Self::search_with_stats`]. [`Variant::Basic`]
    /// stays the raw Algorithm 1 oracle, without the pass.
    pub fn decompose_with_stats(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
    ) -> Result<(Option<Decomposition>, SolveStats), Interrupted> {
        decomp::faults::hit_ctrl("logk/solve", ctrl);
        if !matches!(self.variant, Variant::Basic) {
            // A fired control is honoured before the pass as well. One
            // poll per solve: the coarse form always reads the clock.
            ctrl.checkpoint_coarse()?;
            if let Some(settled) = crate::settle::settle(hg, k) {
                let stats = SolveStats {
                    settled_by: settled.by(),
                    ..SolveStats::default()
                };
                return Ok((settled.into_witness(), stats));
            }
        }
        self.search(hg, k, ctrl)
    }

    /// The search alone: [`Self::decompose_with_stats`] without the
    /// bounds pass, for callers that mean to exercise the search itself
    /// (the differential suites and the search micro-benchmarks).
    /// Statistics are only meaningful for the Algorithm 2 engines;
    /// [`Variant::Basic`] reports zeros.
    pub fn search_with_stats(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
    ) -> Result<(Option<Decomposition>, SolveStats), Interrupted> {
        decomp::faults::hit_ctrl("logk/solve", ctrl);
        self.search(hg, k, ctrl)
    }

    fn search(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
    ) -> Result<(Option<Decomposition>, SolveStats), Interrupted> {
        match self.variant {
            Variant::Basic => {
                let d = crate::basic::decompose_basic(hg, k, ctrl)?;
                Ok((d, SolveStats::default()))
            }
            Variant::Optimized | Variant::Parallel => {
                let cfg = self.engine_config(k);
                let run = |engine: &LogKEngine<'_>| -> Result<
                    (Option<Decomposition>, SolveStats),
                    Interrupted,
                > {
                    let d = engine.decompose()?;
                    // Scheduler activity is attributed by the caller
                    // (the pool's delta around the solve).
                    let stats = SolveStats {
                        detk_memo: engine.detk_memo_snapshot(),
                        cache: engine.cache_snapshot(),
                        ..engine.stats().snapshot()
                    };
                    Ok((d, stats))
                };
                // Resolve a pool only for the parallel variant —
                // `solve_pool` spawns (and caches) threads as a side
                // effect, which a sequential solve must not trigger.
                if !matches!(self.variant, Variant::Parallel) {
                    return run(&self.build_engine(hg, ctrl, cfg));
                }
                // The whole solve — λc join-races, hybrid det-k handoffs
                // included — runs inside the pool's scope, i.e. on its
                // worker threads: the bound is the worker count, exactly,
                // however the search nests. The pool itself is long-lived
                // (cached or caller-owned), so no per-solve spawn/join
                // tax. Its counters are therefore cumulative: attribute
                // the delta around this solve (advisory — concurrent
                // solves sharing the pool blur into each other's deltas).
                let pool = self.solve_pool();
                let before = pool.scheduler_stats();
                let engine = self.build_engine(hg, ctrl, cfg);
                let out = pool.scope(|_| run(&engine));
                let after = pool.scheduler_stats();
                out.map(|(d, mut stats)| {
                    stats.sched_steals = after.steals.saturating_sub(before.steals);
                    stats.sched_parks = after.parks.saturating_sub(before.parks);
                    (d, stats)
                })
            }
        }
    }

    /// Computes the exact hypertree width by solving `k = 1, 2, …, k_max`.
    ///
    /// Returns the optimal width with its witness, or `None` if
    /// `hw(H) > k_max`. Failing runs for `k < hw(H)` are what certifies
    /// optimality, exactly as in the paper's experiments.
    pub fn minimal_width(
        &self,
        hg: &Hypergraph,
        k_max: usize,
        ctrl: &Control,
    ) -> Result<Option<(usize, Decomposition)>, Interrupted> {
        for k in 1..=k_max {
            if let Some(d) = self.decompose(hg, k, ctrl)? {
                return Ok(Some((k, d)));
            }
        }
        Ok(None)
    }

    /// Anytime variant of [`Self::minimal_width`]: instead of discarding
    /// completed `k`-runs on interruption, returns the [`WidthBounds`]
    /// the sweep *did* prove. See [`width_bounds_with`] for the sweep
    /// discipline (`per_k_budget` gives each width its own sub-deadline,
    /// so one hard width cannot starve the rest of the sweep).
    pub fn width_bounds(
        &self,
        hg: &Hypergraph,
        k_max: usize,
        ctrl: &Arc<Control>,
        per_k_budget: Option<Duration>,
    ) -> WidthBounds {
        width_bounds_with(hg, k_max, ctrl, per_k_budget, |_| self.clone())
    }
}

impl Default for LogK {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Partial verdict of an interrupted width search — what the sweep
/// proved before (or despite) running out of budget.
///
/// Invariants: every `k < proven_lower` was *refuted* (exhaustive search,
/// no HD of width `≤ k`), so `hw(H) ≥ proven_lower`; `best_upper` (when
/// present) was *witnessed*, so `hw(H) ≤ best_upper` and `witness` holds
/// the validated-by-construction decomposition. When the two meet
/// ([`Self::exact`]) the width is certified optimal, exactly as in
/// [`LogK::minimal_width`].
#[derive(Clone, Debug)]
pub struct WidthBounds {
    /// `hw(H) ≥ proven_lower`: all smaller widths exhaustively refuted.
    pub proven_lower: usize,
    /// `hw(H) ≤ best_upper`, when some width was witnessed.
    pub best_upper: Option<usize>,
    /// The witness decomposition behind `best_upper`.
    pub witness: Option<Decomposition>,
    /// Why the sweep ended early, if it did: the last interruption
    /// observed (a per-`k` sub-deadline or the overall control firing).
    /// `None` for a completed sweep.
    pub interrupted: Option<Interrupted>,
}

impl WidthBounds {
    /// Whether the bounds meet: the width is certified optimal.
    pub fn exact(&self) -> bool {
        self.best_upper == Some(self.proven_lower)
    }
}

impl std::fmt::Display for WidthBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.best_upper, self.exact()) {
            (Some(u), true) => write!(f, "hw = {u}"),
            (Some(u), false) => write!(f, "{} ≤ hw ≤ {u}", self.proven_lower),
            (None, _) => write!(f, "hw ≥ {}", self.proven_lower),
        }
    }
}

/// Anytime minimal-width sweep with per-width solver selection: runs
/// `k = 1, 2, …, k_max` and accumulates [`WidthBounds`] instead of
/// discarding completed runs on interruption.
///
/// Each width runs under a [`Control::child`] of `ctrl` — capped at
/// `per_k_budget` when given — so a single intractable width times out
/// *locally* and the sweep moves on: a larger width may still be
/// witnessed quickly (solvers are typically faster at larger `k` on
/// positive instances), yielding a genuine `lower ≤ hw ≤ upper` window.
/// Only when `ctrl` itself fires does the sweep stop. `solver_for(k)`
/// picks the solver per width — the `htdserve` server uses it to route
/// each width to its width-matched shared table pair.
pub fn width_bounds_with(
    hg: &Hypergraph,
    k_max: usize,
    ctrl: &Arc<Control>,
    per_k_budget: Option<Duration>,
    solver_for: impl Fn(usize) -> LogK,
) -> WidthBounds {
    let mut out = WidthBounds {
        proven_lower: 1,
        best_upper: None,
        witness: None,
        interrupted: None,
    };
    for k in 1..=k_max {
        if let Err(e) = ctrl.checkpoint() {
            out.interrupted = Some(e);
            break;
        }
        let child = match per_k_budget {
            Some(budget) => ctrl.child_with_timeout(budget),
            None => ctrl.child(),
        };
        match solver_for(k).decompose(hg, k, &child) {
            Ok(Some(d)) => {
                out.best_upper = Some(k);
                out.witness = Some(d);
                break;
            }
            // The lower bound only advances through a contiguous refuted
            // prefix: past a skipped (locally timed-out) width it stays
            // put, keeping the invariant exact.
            Ok(None) => {
                if out.proven_lower == k {
                    out.proven_lower = k + 1;
                }
            }
            Err(e) => {
                out.interrupted = Some(e);
                // The overall control fired: stop. A merely-local
                // interruption (this width's sub-deadline) skips ahead.
                if ctrl.checkpoint().is_err() {
                    break;
                }
            }
        }
    }
    out
}
