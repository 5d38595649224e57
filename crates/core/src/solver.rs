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

use crate::cache::{CacheSnapshot, StripedTable};
use crate::engine::{
    EngineConfig, HybridConfig, HybridMetric, LogKEngine, SolveStats, DEFAULT_CACHE_BYTES,
    DEFAULT_POS_CACHE_MAX_FRAG, INLINE_SEPARATIONS,
};

/// Process-wide cache of work-stealing pools, keyed by worker count.
///
/// Building a pool spawns (and joining it reaps) OS threads — ~0.1 ms on
/// a bench box, which dominates sub-millisecond solves
/// (`micro/par_scaling` once measured the tax). Solvers therefore share one
/// long-lived pool per thread count: harness sweeps, benches and repeated
/// [`LogK::decompose`] calls at the same width all reuse the same warm
/// workers. Pools live for the process and are never reaped; idle workers
/// park on a condvar with a 100 ms timeout backstop, so each cached pool
/// keeps a small (~10 wakeups/s per worker) but permanent background
/// cost — negligible for the handful of distinct thread counts real
/// callers use, and the trade the cache makes for spawn-free solves.
static POOL_CACHE: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// Returns the process-wide work-stealing pool for `threads` workers,
/// building (and caching) it on first use. [`LogK::parallel`] and
/// [`LogK::hybrid`] take theirs from here when `threads ≥ 2`, and a solve
/// enters it only past its inline separation budget
/// ([`INLINE_SEPARATIONS`]). A solve on a 1-worker pool runs inline on
/// the caller's thread, so `shared_pool(1)` only spawns an idle worker.
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

/// A cross-solve subproblem cache, `Arc`-held so repeated solves (and
/// concurrent solves in a server) warm each other. The `det-k-decomp`
/// handoff memo is not shared: each hybrid engine builds its own at its
/// first handoff.
///
/// # Soundness contract
///
/// Cached verdicts are relative to a hypergraph (its edge numbering) and
/// a width bound `k`. A `SharedTables` value must only be used for solves
/// of *that* instance at *that* `k`; [`LogK`] enforces this by consulting
/// an attached table only when the solve's `k` matches ([`Self::k`]) and —
/// when the table was bound to an instance with [`Self::for_instance`] —
/// the solved hypergraph is the bound one (by address; the
/// `htdserve::TableHub` canonicalises content-equal instances to one
/// `Arc`).
#[derive(Clone)]
pub struct SharedTables {
    /// Subproblem verdict cache (positive + negative, byte-budgeted,
    /// width-checked).
    cache: Arc<StripedTable>,
    /// The instance the verdicts are relative to, when bound.
    hg: Option<Arc<Hypergraph>>,
}

impl SharedTables {
    /// A fresh unbound table for width bound `k`. The caller takes on the
    /// contract of only using it for one instance (see the type docs).
    pub fn new(k: usize, cache_bytes: usize) -> Self {
        SharedTables {
            cache: Arc::new(StripedTable::new(k, cache_bytes)),
            hg: None,
        }
    }

    /// A fresh table bound to `hg`: solves of any other instance skip it.
    pub fn for_instance(hg: Arc<Hypergraph>, k: usize, cache_bytes: usize) -> Self {
        SharedTables {
            hg: Some(hg),
            ..Self::new(k, cache_bytes)
        }
    }

    /// The width bound the table's verdicts are relative to.
    pub fn k(&self) -> usize {
        self.cache.k()
    }

    /// Counter snapshot of the subproblem cache.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cache.snapshot()
    }

    /// Whether this table applies to a solve of `hg` at width `k`.
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
            .finish()
    }
}

/// Search strategy selection.
#[derive(Clone, Copy, Debug)]
pub enum Variant {
    /// Algorithm 1, verbatim (reference oracle; exponentially slower).
    Basic,
    /// Algorithm 2; parallel past its inline separation budget when the
    /// solver has a pool of two or more workers ([`LogK::pool`]).
    Optimized,
}

/// Configurable `log-k-decomp` solver.
#[derive(Clone, Debug)]
pub struct LogK {
    /// Which engine to run.
    pub variant: Variant,
    /// The work-stealing pool an Algorithm 2 solve may race on. With two
    /// or more workers the solve runs work-first: inline on the caller's
    /// thread, as the sequential search, for up to
    /// [`INLINE_SEPARATIONS`] `separate_into` calls; a solve still
    /// unanswered then restarts on the pool and races its λc leads across
    /// the workers at recursion depths below
    /// [`PARALLEL_DEPTH`](crate::engine::PARALLEL_DEPTH)
    /// ([`SolveStats::pool_handoffs`]). With `None` or a 1-worker pool it
    /// runs inline throughout.
    pub pool: Option<Arc<ThreadPool>>,
    /// Hybrid handoff to `det-k-decomp` (Appendix D.2), if any.
    pub hybrid: Option<HybridConfig>,
    /// Byte budget of the subproblem cache and of the `det-k-decomp`
    /// handoff memo; `0` disables both. See [`EngineConfig::cache_bytes`].
    pub cache_bytes: usize,
    /// λp admissibility pre-filter (cheap bitset rejection before the BFS
    /// separation). See [`EngineConfig::lambda_p_prefilter`].
    pub lambda_p_prefilter: bool,
    /// Largest fragment (node count) stored by a positive cache insert.
    /// See [`EngineConfig::pos_cache_max_frag`].
    pub pos_cache_max_frag: usize,
    /// Cross-solve subproblem cache attached by [`Self::with_shared_tables`];
    /// consulted only for solves they apply to (matching `k` and, when
    /// instance-bound, matching hypergraph).
    pub shared_tables: Option<SharedTables>,
}

impl LogK {
    /// Sequential Algorithm 2 without hybridisation.
    pub fn sequential() -> Self {
        LogK {
            variant: Variant::Optimized,
            pool: None,
            hybrid: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
            lambda_p_prefilter: true,
            pos_cache_max_frag: DEFAULT_POS_CACHE_MAX_FRAG,
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

    /// Parallel Algorithm 2 on `threads` workers of the process-wide
    /// pool ([`shared_pool`]). Each solve starts inline and enters the
    /// pool only past its separation budget ([`Self::pool`]). With
    /// `threads ≤ 1` there is no second worker to race on, so the solver
    /// is [`Self::sequential`] and every solve runs inline on the caller's
    /// thread.
    pub fn parallel(threads: usize) -> Self {
        LogK {
            pool: (threads >= 2).then(|| shared_pool(threads)),
            ..Self::sequential()
        }
    }

    /// The paper's Hybrid configuration: [`Self::parallel`]`(threads)`
    /// `log-k-decomp` with a `det-k-decomp` handoff (inline on the
    /// caller's thread when `threads ≤ 1`). `WeightedCount` with
    /// threshold 400 performed best in Table 2 of the paper.
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

    /// Replaces the solver's pool ([`Self::pool`]): with two or more
    /// workers an Algorithm 2 solve that spends its inline separation
    /// budget unanswered restarts on `pool` and races its λc leads there;
    /// with one worker it runs inline on the caller's thread, and `pool`
    /// is never entered.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Replaces the memo-table budget (`0` disables memoisation, det-k
    /// handoffs included — the differential tests compare both modes).
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
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

    /// Attaches a cross-solve subproblem cache: solves it applies to
    /// (matching width and, for an instance-bound table, matching
    /// hypergraph — see [`SharedTables`]) memoise into it instead of a
    /// fresh per-solve cache, so repeated and concurrent solves of the
    /// same query warm each other. Solves it does not apply to silently
    /// build their own, keeping width sweeps sound.
    pub fn with_shared_tables(mut self, tables: SharedTables) -> Self {
        self.shared_tables = Some(tables);
        self
    }

    /// The attached table, when it applies to this solve.
    fn tables_for(&self, hg: &Hypergraph, k: usize) -> Option<SharedTables> {
        self.shared_tables
            .as_ref()
            .filter(|t| t.applies_to(hg, k))
            .cloned()
    }

    /// Builds the engine for one solve, routing memoisation into the
    /// attached shared cache when it applies.
    fn build_engine<'h>(
        &self,
        hg: &'h Hypergraph,
        ctrl: &'h Control,
        cfg: EngineConfig,
    ) -> LogKEngine<'h> {
        match self.tables_for(hg, cfg.k) {
            Some(t) => LogKEngine::with_tables(hg, ctrl, cfg, t.cache),
            None => LogKEngine::new(hg, ctrl, cfg),
        }
    }

    fn engine_config(&self, k: usize) -> EngineConfig {
        EngineConfig {
            parallel: self.race_pool().is_some(),
            hybrid: self.hybrid,
            cache_bytes: self.cache_bytes,
            lambda_p_prefilter: self.lambda_p_prefilter,
            pos_cache_max_frag: self.pos_cache_max_frag,
            ..EngineConfig::sequential(k)
        }
    }

    /// The pool a solve races on past its inline budget, when it has a
    /// second worker.
    fn race_pool(&self) -> Option<&ThreadPool> {
        self.pool.as_deref().filter(|p| p.current_num_threads() > 1)
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
            Variant::Optimized => self.search_within(hg, k, ctrl, INLINE_SEPARATIONS),
        }
    }

    /// The Algorithm 2 search, work-first: a solve with a second worker
    /// runs inline on the caller's thread under a budget of
    /// `inline_separations` `separate_into` calls, and only a solve that
    /// spends it unanswered enters the pool. [`Self::search`] passes
    /// [`INLINE_SEPARATIONS`]; the unit tests sweep the budget.
    pub(crate) fn search_within(
        &self,
        hg: &Hypergraph,
        k: usize,
        ctrl: &Control,
        inline_separations: u64,
    ) -> Result<(Option<Decomposition>, SolveStats), Interrupted> {
        let stats_of = |engine: &LogKEngine<'_>| SolveStats {
            detk_memo: engine.detk_memo_snapshot(),
            cache: engine.cache_snapshot(),
            ..engine.stats().snapshot()
        };
        let mut engine = self.build_engine(hg, ctrl, self.engine_config(k));
        // Without a second worker the solve runs inline on the caller's
        // thread: no pool, no budget, no scheduler counters.
        let Some(pool) = self.race_pool() else {
            let d = engine.decompose()?;
            return Ok((d, stats_of(&engine)));
        };
        // Work-first: a yes, no or interruption within the budget is
        // the answer, and the pool is never touched.
        if let Some(out) = engine.decompose_within(inline_separations) {
            return out.map(|d| (d, stats_of(&engine)));
        }
        // Past the budget the solve restarts from the root on the pool,
        // racing its λc leads, on the same engine: its cache keeps the
        // inline phase's exhaustive verdicts and its counters add up.
        // The whole pool phase — λc join-races, hybrid det-k handoffs
        // included — runs on the pool's workers, so the bound is the
        // worker count, exactly, however the search nests. The pool is
        // long-lived (cached or caller-owned), so its counters are
        // cumulative: attribute the delta around this phase (advisory —
        // concurrent solves sharing the pool blur into each other's
        // deltas).
        let before = pool.scheduler_stats();
        let d = pool.install(|| engine.decompose());
        let after = pool.scheduler_stats();
        Ok((
            d?,
            SolveStats {
                pool_handoffs: 1,
                sched_steals: after.steals.saturating_sub(before.steals),
                sched_parks: after.parks.saturating_sub(before.parks),
                ..stats_of(&engine)
            },
        ))
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
/// each width to its width-matched shared cache.
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
