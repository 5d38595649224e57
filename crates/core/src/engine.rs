//! The optimised `log-k-decomp` engine — Algorithm 2 of the paper with all
//! Appendix C optimisations, optional hybridisation (Appendix D.2) and
//! parallel separator search (Appendix D.1).
//!
//! Optimisations implemented (names from Appendix C):
//!
//! * **Extension of the base case** — `|E'| = 0 ∧ |Sp| > 1` fails fast.
//! * **Searching for child nodes first** — the outer loop guesses λc and
//!   rejects unbalanced candidates before any parent is considered.
//! * **Root of the HD-fragment** — if `Conn ⊆ ⋃λc`, the candidate is the
//!   root of the current fragment and no parent is needed.
//! * **Allowed edges** — the recursion for the part *above* the child may
//!   not use edges from components below it (`A_up = A \ comp_down.E`).
//! * **Speeding up the parent search** — λp is drawn only from edges that
//!   intersect `⋃λc` (Theorem C.1 shows completeness is preserved).
//!
//! Beyond the paper's optimisations, this engine adds two memory
//! disciplines (mirroring the caching the paper's experiments rely on):
//!
//! * **Scratch workspaces.** Every recursion level owns a `LevelScratch`
//!   bundle of reusable bitset/`Vec` buffers, so the per-candidate hot
//!   path (`⋃λ` computation, `[U]`-component splitting, balance and
//!   cover checks) performs **zero heap allocations** in the steady
//!   state. Allocation only happens when a fragment is actually built.
//! * **Subproblem memoisation.** A sharded, lock-striped
//!   [`SubproblemCache`] records `Decomp` verdicts by resolved content:
//!   exhaustive failures as negative entries, found fragments as
//!   arena-independent positives re-interned on reuse — so the recursion
//!   neither re-explores a refuted subproblem nor re-derives a fragment
//!   any branch has already built. See [`crate::cache`] for the
//!   soundness argument. The `det-k-decomp` handoffs of the hybrid mode
//!   share one lock-striped memo table ([`detk::SharedMemo`]) the same
//!   way, instead of rebuilding a private table per handoff.
//!
//! The λc search space is partitioned by lead edge, as in Appendix D.1,
//! and walked lead by lead at every depth and in every variant: the leads
//! of one `ChildLoop` run in order on the level's own arena and scratch,
//! or — inside the racing depths, on a pool with more than one worker —
//! race across the work-stealing pool by recursive [`rayon::join`]
//! splitting of the lead range. Idle workers steal the published halves,
//! so the wildly uneven per-lead subtree costs balance themselves, and
//! sibling branches are pruned (early-cancelled at every split and poll
//! point) as soon as one candidate succeeds. So `LogK::sequential()` and
//! a 1-worker `LogK::parallel(1)` run the same search. Special
//! edges are arena-allocated with
//! stack discipline: a `Decomp` call restores the arena to its entry length
//! before returning, so a returned fragment only ever references special
//! edges of its own subproblem. Before branching, the arena is *sealed*
//! ([`SpecialArena::seal`]): the shared prefix moves behind an `Arc` and
//! each branch's "clone" is a reference-count bump instead of a deep copy.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use decomp::{rebase_fragment, Control, Decomposition, Fragment, Interrupted};
use detk::{DetKDecomp, DetkScratch, MemoSnapshot, SharedMemo};
use hypergraph::subsets::{for_each_subset_in, for_each_subset_with_lead_in, subset_space_size};
use hypergraph::{
    separate_into, Component, Edge, EdgeSet, Hypergraph, LevelStack, Scratch, Separation,
    SpecialArena, Subproblem, VertexSet,
};

use crate::cache::{CacheSnapshot, Probe, SubproblemCache};
use crate::settle::SettledBy;

/// Default byte budget for the subproblem cache (32 MiB),
/// mirroring the memory-limit discipline of the paper's experiments.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

/// Default entry cap for the `det-k-decomp` handoff memo table.
pub const DEFAULT_DETK_CACHE_CAP: usize = DetKDecomp::DEFAULT_CACHE_CAP;

/// Default node-count cap for *positive* cache inserts: a found fragment
/// is stored only when it has at most this many nodes. The cost of an
/// insert (portable-fragment conversion + key build) scales with the
/// fragment, while measured re-use concentrates on 1–2-node fragments
/// (every positive hit of `micro/pos_cache` survives this cap) — larger
/// fragments sit on the unique success path of a solve and are rarely
/// re-derived. Capping the stored size keeps the `micro/pos_cache` wins
/// intact and erases the insert tax on trivial instances
/// (`bounded40_k2`, previously ~40% over the uncached engine).
pub const DEFAULT_POS_CACHE_MAX_FRAG: usize = 2;

/// Byte budget of the node-local λp split memo (`⋃λp → comp_down`). An
/// entry's footprint scales with the instance (a vertex-set key plus a
/// component's subproblem/vertex bitsets), so the entry cap is derived
/// from the hypergraph's bitset sizes at engine construction
/// ([`LogKEngine::lp_memo_cap`]) — a flat entry count would balloon to
/// hundreds of megabytes per level on large instances. Candidates past
/// the cap simply run the BFS. Entries are freed when their node's
/// `ChildLoop` ends ([`LevelScratch::retire_lp_memo`]), so the live
/// aggregate is bounded by the *active* recursion path (O(log n) levels
/// by Theorem 4.2) per branch, not by every idle pooled scratch.
const LP_MEMO_BYTES: usize = 4 << 20;

/// Default component-count floor for sibling-children parallelism
/// ([`EngineConfig::child_split_min_components`]): with fewer than two
/// siblings there is nothing to overlap.
pub const DEFAULT_CHILD_SPLIT_MIN_COMPONENTS: usize = 2;

/// Default work floor for sibling-children parallelism
/// ([`EngineConfig::child_split_min_size`]): sibling subproblems summing
/// to fewer members than this are solved inline — near the leaves the
/// per-branch tax (arena fork, scratch checkout, scope job) exceeds the
/// work it would overlap.
pub const DEFAULT_CHILD_SPLIT_MIN_SIZE: usize = 8;

/// Complexity metric steering the hybrid handoff to `det-k-decomp`
/// (Appendix D.2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum HybridMetric {
    /// `|E(H')|` (special edges counted like edges).
    EdgeCount,
    /// `|E(H')| · k / avg_{e ∈ E(H')} |e|`.
    WeightedCount,
}

impl HybridMetric {
    /// Evaluates the metric on a subproblem.
    pub fn evaluate(
        self,
        hg: &Hypergraph,
        arena: &SpecialArena,
        sub: &Subproblem,
        k: usize,
    ) -> f64 {
        let m = sub.size();
        match self {
            HybridMetric::EdgeCount => m as f64,
            HybridMetric::WeightedCount => {
                if m == 0 {
                    return 0.0;
                }
                let total: usize = sub.edges.iter().map(|e| hg.edge(e).len()).sum::<usize>()
                    + sub
                        .specials
                        .iter()
                        .map(|&s| arena.get(s).len())
                        .sum::<usize>();
                let avg = total as f64 / m as f64;
                if avg == 0.0 {
                    return 0.0;
                }
                m as f64 * k as f64 / avg
            }
        }
    }
}

/// Hybridisation policy: below `threshold` the engine switches to
/// `det-k-decomp` on the subproblem.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Which complexity metric to use.
    pub metric: HybridMetric,
    /// Switch threshold `T`: handoff when `metric(H') < T`.
    pub threshold: f64,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Width bound `k ≥ 1`.
    pub k: usize,
    /// Recursion depths `< parallel_depth` race the λc leads across the
    /// current rayon pool when it has more than one worker; `0` disables
    /// parallelism.
    pub parallel_depth: usize,
    /// Hybrid handoff policy, if any.
    pub hybrid: Option<HybridConfig>,
    /// Also try the parent/child pair search for a λc whose `⋃λc` covers
    /// `Conn` after its root-mode attempt failed. Algorithm 2 as printed
    /// does not (`continue ChildLoop`); differential testing against
    /// Algorithm 1 backs the printed behaviour, and this flag exists to
    /// keep that claim continuously tested.
    pub root_fallthrough: bool,
    /// Ablation: restrict the λp search space to edges intersecting `⋃λc`
    /// (the "speeding up the parent search" optimisation, Theorem C.1).
    /// On by default; turning it off only enlarges the search space.
    pub restrict_parent_search: bool,
    /// Ablation: shrink the allowed-edge set for the fragment above the
    /// child (`A_up = A \ comp_down.E`, the "allowed edges" optimisation).
    /// On by default.
    pub use_allowed_edges: bool,
    /// Byte budget for the subproblem cache (both verdicts); `0` disables
    /// memoisation entirely.
    pub cache_bytes: usize,
    /// Entry cap for the memo table of `det-k-decomp` handoffs
    /// (Appendix D.2); was previously hard-coded inside `detk`.
    pub detk_cache_cap: usize,
    /// Ablation: reject λp candidates with cheap coverage-bitmask tests
    /// before running the BFS separation (see `PreFilter` in the module
    /// source). On by
    /// default; turning it off only adds `separate_into` calls — the
    /// differential suite pins that verdicts are identical either way.
    pub lambda_p_prefilter: bool,
    /// Largest fragment (node count) stored by a positive cache insert;
    /// `usize::MAX` stores every found fragment, `0` disables positive
    /// inserts. See [`DEFAULT_POS_CACHE_MAX_FRAG`].
    pub pos_cache_max_frag: usize,
    /// Sibling-children parallelism grain, component-count floor: the
    /// `try_as_root`/`finish_pair` child loops probe their sibling
    /// subproblems concurrently only when there are at least this many of
    /// them (and `depth < parallel_depth`, and the pool has > 1 worker).
    /// `usize::MAX` disables below-children parallelism without touching
    /// the λc race.
    pub child_split_min_components: usize,
    /// Sibling-children parallelism grain, work floor: child loops whose
    /// sibling subproblems sum to fewer than this many members
    /// (`|E'| + |Sp|`) stay sequential — spawning scope jobs for trivial
    /// children costs more than solving them inline.
    pub child_split_min_size: usize,
}

impl EngineConfig {
    /// Sequential Algorithm 2 with width bound `k` and no hybridisation.
    pub fn sequential(k: usize) -> Self {
        EngineConfig {
            k,
            parallel_depth: 0,
            hybrid: None,
            root_fallthrough: false,
            restrict_parent_search: true,
            use_allowed_edges: true,
            cache_bytes: DEFAULT_CACHE_BYTES,
            detk_cache_cap: DEFAULT_DETK_CACHE_CAP,
            lambda_p_prefilter: true,
            pos_cache_max_frag: DEFAULT_POS_CACHE_MAX_FRAG,
            child_split_min_components: DEFAULT_CHILD_SPLIT_MIN_COMPONENTS,
            child_split_min_size: DEFAULT_CHILD_SPLIT_MIN_SIZE,
        }
    }
}

/// Internal stop reasons: external interruption or sibling-branch pruning.
#[derive(Clone, Copy, Debug)]
enum Stop {
    External(Interrupted),
    Pruned,
}

/// Chain of prune flags for nested parallel races: a branch is dead if any
/// enclosing race has already found a winner.
#[derive(Clone, Copy)]
struct Prune<'a> {
    flag: &'a AtomicBool,
    parent: Option<&'a Prune<'a>>,
}

impl Prune<'_> {
    fn is_set(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.parent {
            Some(p) => p.is_set(),
            None => false,
        }
    }
}

/// Read-only inputs of one `ChildLoop`: the subproblem, its connector,
/// allowed edges and depth, `V(H')`, and the λc candidates in lead
/// order. Every lead walk of the loop reads them, inline or raced.
#[derive(Clone, Copy)]
struct LevelInputs<'a> {
    sub: &'a Subproblem,
    conn: &'a VertexSet,
    allowed: &'a Arc<EdgeSet>,
    depth: usize,
    vsub: &'a VertexSet,
    cands: &'a [Edge],
}

/// Shared, read-only context of one parallel λc race (see
/// [`LogKEngine::child_loop_parallel`]): the sealed arena and level
/// inputs every branch starts from, plus the race's cancellation flag and
/// first-winner result slot. Borrowed by every `join` branch of the
/// recursive lead split.
struct LeadRace<'a> {
    arena: &'a SpecialArena,
    level: LevelInputs<'a>,
    race: &'a Prune<'a>,
    won: &'a AtomicBool,
    slot: &'a std::sync::Mutex<Option<Result<Fragment, Stop>>>,
}

fn poll(ctrl: &Control, prune: Option<&Prune<'_>>) -> Result<(), Stop> {
    decomp::faults::hit_ctrl("logk/engine/poll", ctrl);
    ctrl.checkpoint().map_err(Stop::External)?;
    if prune.is_some_and(|p| p.is_set()) {
        return Err(Stop::Pruned);
    }
    Ok(())
}

decomp::counters! {
    /// Search statistics returned by
    /// [`LogK::decompose_with_stats`](crate::LogK::decompose_with_stats)
    /// and [`LogK::search_with_stats`](crate::LogK::search_with_stats):
    /// the [`EngineStats`] counters, plus what the solver fills in around
    /// the search.
    pub struct SolveStats {
        /// Jobs the pool's workers stole from a sibling's deque during the
        /// solve — the work-stealing runtime actually redistributing load
        /// (0 for sequential engines and degenerate 1-worker pools).
        sched_steals: u64 = sum,
        /// Times a pool worker parked for lack of work during the solve —
        /// idle capacity the λc race did not fill.
        sched_parks: u64 = sum,
        /// Counters of the `det-k-decomp` memo table shared across handoffs.
        detk_memo: MemoSnapshot = merge,
        /// Unified subproblem-cache counters (positive + negative verdicts,
        /// eviction, id rewrites).
        cache: CacheSnapshot = merge,
        /// The certified bound that answered before the search, if any.
        settled_by: SettledBy = keep,
    }

    /// Search counters, bumped during a solve; `snapshot()` reads them
    /// into a [`SolveStats`].
    pub atomic EngineStats {
        /// Deepest `Decomp` recursion level — `O(log |E(H)|)` by Theorem 4.1,
        /// which the test suite checks on scalable families.
        max_depth: usize = max,
        /// Total `Decomp` invocations.
        decomp_calls: u64 = sum,
        /// Scratch-workspace bundles allocated (one per recursion level per
        /// search context; constant in the steady state — the hot path
        /// itself allocates nothing).
        scratch_allocs: u64 = sum,
        /// Buffer growth events *inside* the scratch workspaces (a warm
        /// buffer needing to reallocate, e.g. after a larger hypergraph) —
        /// the fine-grained allocation meter behind the zero-steady-state
        /// claim. Collected from each scratch stack as it retires.
        scratch_grow_events: u64 = sum,
        /// Arena checkpoints handed to parallel branches. Each is an `Arc`
        /// bump over the sealed prefix, not a deep copy (0 for sequential
        /// engines and 1-worker pools).
        arena_branch_clones: u64 = sum,
        /// Hybrid handoffs to `det-k-decomp`.
        detk_handoffs: u64 = sum,
        /// Largest memo-table size observed across `det-k-decomp` handoffs.
        detk_cache_peak: usize = max,
        /// λc candidates enumerated but rejected (no progress, unbalanced,
        /// or no completable parent/child pair).
        lambda_c_rejected: u64 = sum,
        /// λp candidates enumerated but rejected.
        lambda_p_rejected: u64 = sum,
        /// λp candidate sets discarded by the admissibility pre-filter
        /// before the BFS stage. An *upper bound* on separations avoided:
        /// whole parent loops skipped by the per-λc test count their full
        /// subset space, parts of which the cheap pre-BFS checks (new-edge,
        /// k-bound) would also have rejected — `separations` is the exact
        /// complementary count of BFS calls that did run.
        lambda_p_prefiltered: u64 = sum,
        /// `separate_into` calls performed (λc splits, λp splits and
        /// `[χc]`-splits of `comp_down`) — the denominator the pre-filter
        /// exists to shrink.
        separations: u64 = sum,
        /// Sibling-child loops (`try_as_root`/`finish_pair`) that fanned
        /// their components out on the pool instead of recursing
        /// sequentially — 0 for sequential engines, 1-worker pools, and
        /// loops below the
        /// [`LogK::with_child_split`](crate::LogK::with_child_split) grain
        /// floors.
        child_splits: u64 = sum,
        /// Sibling child recursions cancelled by a fail-fast join: a
        /// sibling's definitive rejection (or an interruption, or an outer
        /// race win) pruned them before they produced a verdict.
        child_cancels: u64 = sum,
        /// Child-branch fragments folded back under the parent arena at a
        /// fork/merge join (each is one `decomp::rebase_fragment` pass;
        /// under the engines' stack discipline the pass rewrites no ids —
        /// it is the soundness backstop of the fork/merge protocol).
        arena_rebases: u64 = sum,
    }
}

/// Per-level meters, shared by the split borrows of a [`LevelScratch`]
/// through interior mutability (one level is always single-threaded, so
/// `Cell` suffices). Folded into [`EngineStats`] when the level retires.
#[derive(Debug, Default)]
struct LevelMeters {
    /// Buffer growths in this level's non-BFS scratch: the vertex-set
    /// buffers (`⋃λ`, `χ`, connector) and the candidate/enumeration
    /// `Vec`s — every `_into` sink and `copy_from` threads its grow flag
    /// here, completing the regrowth meter's coverage.
    grow: Cell<u64>,
    /// λc candidates rejected at this level.
    rejected_c: Cell<u64>,
    /// λp candidates rejected at this level.
    rejected_p: Cell<u64>,
    /// λp candidate sets cut by the admissibility pre-filter at this
    /// level (BFS separations avoided).
    prefiltered_p: Cell<u64>,
    /// `separate_into` calls at this level.
    separations: Cell<u64>,
}

impl LevelMeters {
    #[inline]
    fn bump_grow(&self, grew: bool) {
        if grew {
            self.grow.set(self.grow.get() + 1);
        }
    }

    #[inline]
    fn reject_c(&self) {
        self.rejected_c.set(self.rejected_c.get() + 1);
    }

    #[inline]
    fn reject_p(&self) {
        self.rejected_p.set(self.rejected_p.get() + 1);
    }

    #[inline]
    fn prefilter_p(&self, n: u64) {
        self.prefiltered_p
            .set(self.prefiltered_p.get().saturating_add(n));
    }

    #[inline]
    fn bump_separation(&self) {
        self.separations.set(self.separations.get() + 1);
    }
}

/// Totals of the per-level meters, for delta reporting when a pooled
/// scratch bundle retires.
#[derive(Clone, Copy, Debug, Default)]
struct MeterTotals {
    grow: u64,
    rejected_c: u64,
    rejected_p: u64,
    prefiltered_p: u64,
    separations: u64,
}

impl std::ops::Add for MeterTotals {
    type Output = MeterTotals;
    fn add(self, rhs: MeterTotals) -> MeterTotals {
        MeterTotals {
            grow: self.grow + rhs.grow,
            rejected_c: self.rejected_c + rhs.rejected_c,
            rejected_p: self.rejected_p + rhs.rejected_p,
            prefiltered_p: self.prefiltered_p + rhs.prefiltered_p,
            separations: self.separations + rhs.separations,
        }
    }
}

impl std::ops::Sub for MeterTotals {
    type Output = MeterTotals;
    fn sub(self, rhs: MeterTotals) -> MeterTotals {
        MeterTotals {
            grow: self.grow - rhs.grow,
            rejected_c: self.rejected_c - rhs.rejected_c,
            rejected_p: self.rejected_p - rhs.rejected_p,
            prefiltered_p: self.prefiltered_p - rhs.prefiltered_p,
            separations: self.separations - rhs.separations,
        }
    }
}

/// Per-recursion-level scratch buffers. Everything the child/parent loops
/// touch per candidate lives here, so candidate evaluation never allocates
/// once a level is warm.
#[derive(Default)]
struct LevelScratch {
    /// Growth and rejection meters for this level.
    meters: LevelMeters,
    /// BFS buffers for `separate_into`.
    bfs: Scratch,
    /// `[⋃λc]`-components of the subproblem.
    seps_c: Separation,
    /// `[⋃λp]`-components of the subproblem.
    seps_p: Separation,
    /// `[χc]`-components of `comp_down`.
    seps_down: Separation,
    /// `V(H')` of the current subproblem.
    vsub: VertexSet,
    /// `⋃λc` of the current child candidate.
    union_c: VertexSet,
    /// `⋃λp` of the current parent candidate.
    union_p: VertexSet,
    /// `χc` in root mode (`⋃λc ∩ V(H')`).
    chi_root: VertexSet,
    /// `χc` in pair mode (`⋃λc ∩ V(comp_down)`).
    chi_pair: VertexSet,
    /// Connector handed to child recursions.
    conn_child: VertexSet,
    /// λc candidate edges.
    cands: Vec<Edge>,
    /// λp candidate edges.
    cands_p: Vec<Edge>,
    /// Enumeration buffer for the λc subset walk.
    lam_buf: Vec<Edge>,
    /// Enumeration buffer for the λp subset walk.
    lam_buf_p: Vec<Edge>,
    /// Coverage mask of ⋃λc: edges touching it (λp alphabet test).
    touch_uc: EdgeSet,
    /// `X = (Conn \ ⋃λc) ∩ V(H')` — connector vertices λp can never
    /// admit into `comp_down` (per λc).
    x_conn: VertexSet,
    /// `Conn ∩ ⋃λc ∩ V(H')` (per λc): the connector part whose
    /// `comp_down` membership hinges on ⋃λp coverage.
    conn_uc: VertexSet,
    /// Members of the subproblem touching `X` (per λc).
    touch_x: EdgeSet,
    /// Per-λp inadmissible-vertex set (⋃λp spill ∪ uncovered connector).
    bad: VertexSet,
    /// Members touching `bad ∪ X` (per λp).
    touch_bad: EdgeSet,
    /// Node-local λp split memo: `⋃λp → comp_down` (`None` = no
    /// oversized component). The `[⋃λp]`-separation depends only on the
    /// subproblem and the separator vertex set — not on λc — and the
    /// same λp sets recur across every λc's parent loop of one `Decomp`
    /// node, so repeat candidates skip the BFS entirely. Cleared on
    /// `child_loop` entry (keys are only meaningful per subproblem).
    lp_memo: HashMap<VertexSet, Option<Component>>,
}

/// Stack of per-level scratch bundles, indexed by recursion depth — the
/// engine's instantiation of the generic [`LevelStack`] take/put
/// discipline. Levels are created lazily (base-case calls never allocate
/// one) and taken out while a level is active, so recursion borrows the
/// stack freely.
type ScratchStack = LevelStack<LevelScratch>;

/// Meter totals (growth + rejections) across a stack's parked levels.
fn stack_totals(stack: &ScratchStack) -> MeterTotals {
    stack
        .warm()
        .fold(MeterTotals::default(), |t, l| t + l.totals())
}

impl LevelScratch {
    /// This level's meter totals: the BFS scratch's growth counter plus
    /// the level's own (vertex-set / `Vec`) meters.
    fn totals(&self) -> MeterTotals {
        MeterTotals {
            grow: self.bfs.grow_events + self.meters.grow.get(),
            rejected_c: self.meters.rejected_c.get(),
            rejected_p: self.meters.rejected_p.get(),
            prefiltered_p: self.meters.prefiltered_p.get(),
            separations: self.meters.separations.get(),
        }
    }

    /// Drops the node's λp memo entries — keys and components are
    /// instance-sized, and this level (or its pooled branch) may sit
    /// idle arbitrarily long before the next `ChildLoop` re-clears it —
    /// along with any oversized bucket array a memo-heavy node left
    /// behind.
    fn retire_lp_memo(&mut self) {
        self.lp_memo.clear();
        if self.lp_memo.capacity() > 1 << 12 {
            self.lp_memo.shrink_to(1 << 12);
        }
    }
}

/// Warm scratch state for one parallel branch: the branch's level-0
/// bundle plus its stack for deeper levels. Pooled on the engine so that
/// racing many leads (and many parallel subproblems) reuses warm buffers
/// instead of re-allocating per branch.
#[derive(Default)]
struct BranchScratch {
    stack: ScratchStack,
    lvl: LevelScratch,
    /// Meter totals already folded into `EngineStats`, so re-pooled
    /// bundles only report the delta since their last retirement.
    reported: MeterTotals,
}

impl BranchScratch {
    fn totals(&self) -> MeterTotals {
        self.lvl.totals() + stack_totals(&self.stack)
    }
}

/// Mutable context threaded through one `ChildLoop` invocation: the
/// current level's buffers (minus the ones the caller is enumerating
/// over), nested to mirror the recursion — `ChildCtx` ⊃ [`PairCtx`]
/// (λp search) ⊃ [`DownCtx`] (recursing below/above a fixed pair).
struct ChildCtx<'a> {
    meters: &'a LevelMeters,
    seps_c: &'a mut Separation,
    union_c: &'a mut VertexSet,
    chi_root: &'a mut VertexSet,
    cands_p: &'a mut Vec<Edge>,
    lam_buf_p: &'a mut Vec<Edge>,
    touch_uc: &'a mut EdgeSet,
    x_conn: &'a mut VertexSet,
    conn_uc: &'a mut VertexSet,
    touch_x: &'a mut EdgeSet,
    pair: PairCtx<'a>,
}

/// Buffers for one `ParentLoop` iteration (`try_parent`).
struct PairCtx<'a> {
    seps_p: &'a mut Separation,
    union_p: &'a mut VertexSet,
    chi_pair: &'a mut VertexSet,
    bad: &'a mut VertexSet,
    touch_bad: &'a mut EdgeSet,
    lp_memo: &'a mut HashMap<VertexSet, Option<Component>>,
    down: DownCtx<'a>,
}

/// Per-λc inputs of the λp admissibility pre-filter, borrowed by every
/// `try_parent` call of one `ParentLoop`. The underlying sets live in the
/// level's [`ChildCtx`] buffers; this view freezes them for the loop.
/// Per λp, `try_parent` assembles `bad` (below) and walks its set bits
/// into a touching-members mask, so the per-pair cost follows `|bad|`.
/// `try_parent` receives `None` instead when the filter is off
/// (`lambda_p_prefilter: false`).
///
/// Soundness argument (why a hit can skip the BFS separation): a vertex
/// `v ∈ ⋃λp ∩ V(comp_down)` must lie in `χc ⊆ ⋃λc` (lines 31–32), and a
/// vertex `v ∈ Conn ∩ V(comp_down)` must lie in ⋃λp (lines 29–30) and
/// hence also in ⋃λc. So no vertex of
/// `bad = ((⋃λp \ ⋃λc) ∪ (Conn \ (⋃λc ∩ ⋃λp))) ∩ V(H')`
/// can appear in `V(comp_down)` — any member edge or special touching
/// `bad` is excluded from `comp_down`. If the members left over number at
/// most `|H'|/2`, no oversized component can exist (lines 24–27) and the
/// candidate is rejected exactly as the full separation would reject it.
struct PreFilter<'a> {
    /// `(Conn \ ⋃λc) ∩ V(H')` — λp-independent part of `bad`.
    x_conn: &'a VertexSet,
    /// `Conn ∩ ⋃λc ∩ V(H')` — per-λp, the part of it outside ⋃λp joins
    /// `bad`.
    conn_uc: &'a VertexSet,
    /// Members of the subproblem touching `x_conn`.
    touch_x: &'a EdgeSet,
}

/// Buffers that survive into the child recursions (`try_as_root`,
/// `finish_pair`): the BFS workspace, the `[χc]`-split of `comp_down`,
/// the per-child connector, and the scratch stack for deeper levels.
struct DownCtx<'a> {
    meters: &'a LevelMeters,
    bfs: &'a mut Scratch,
    seps_down: &'a mut Separation,
    conn_child: &'a mut VertexSet,
    stack: &'a mut ScratchStack,
}

/// Buffers the `ChildLoop` caller itself enumerates with while a
/// [`ChildCtx`] over the same level is live.
struct EnumBufs<'a> {
    vsub: &'a mut VertexSet,
    cands: &'a mut Vec<Edge>,
    lam_buf: &'a mut Vec<Edge>,
}

impl LevelScratch {
    /// Splits the level into the per-candidate context handed to
    /// `try_child` plus the enumeration buffers the caller keeps. The
    /// single place where scratch buffers are wired to their roles.
    fn split<'a>(&'a mut self, stack: &'a mut ScratchStack) -> (ChildCtx<'a>, EnumBufs<'a>) {
        let LevelScratch {
            meters,
            bfs,
            seps_c,
            seps_p,
            seps_down,
            vsub,
            union_c,
            union_p,
            chi_root,
            chi_pair,
            conn_child,
            cands,
            cands_p,
            lam_buf,
            lam_buf_p,
            touch_uc,
            x_conn,
            conn_uc,
            touch_x,
            bad,
            touch_bad,
            lp_memo,
        } = self;
        let meters = &*meters;
        (
            ChildCtx {
                meters,
                seps_c,
                union_c,
                chi_root,
                cands_p,
                lam_buf_p,
                touch_uc,
                x_conn,
                conn_uc,
                touch_x,
                pair: PairCtx {
                    seps_p,
                    union_p,
                    chi_pair,
                    bad,
                    touch_bad,
                    lp_memo,
                    down: DownCtx {
                        meters,
                        bfs,
                        seps_down,
                        conn_child,
                        stack,
                    },
                },
            },
            EnumBufs {
                vsub,
                cands,
                lam_buf,
            },
        )
    }
}

/// The Algorithm 2 engine. Immutable once built; all mutable search state
/// (the special-edge arena, the scratch stack) is threaded through the
/// recursion explicitly, and cross-branch state (the negative cache) is
/// internally synchronised.
pub struct LogKEngine<'h> {
    hg: &'h Hypergraph,
    ctrl: &'h Control,
    cfg: EngineConfig,
    stats: EngineStats,
    /// Candidate-enumeration rank per edge id: position in the
    /// (descending arity, ascending id) order — the balance-likelihood
    /// heuristic, since larger edges are likelier to cover `Conn` and to
    /// balance-separate. Computed once; candidate buffers are built by
    /// walking the (word-skipping) `allowed` bitset and rank-sorting the
    /// small result, so the per-candidate cost stays proportional to the
    /// allowed set, not to `|E(H)|`.
    edge_rank: Vec<u32>,
    /// Subproblem verdict cache. `Arc`-held so a long-running caller
    /// ([`Self::with_tables`]) can share one table across solves of the
    /// same instance at the same width.
    cache: Arc<SubproblemCache>,
    /// One `det-k-decomp` memo table shared by every hybrid handoff and
    /// rayon branch (previously each handoff rebuilt a private table);
    /// `Arc`-held for the same cross-solve sharing as `cache`.
    detk_memo: Arc<SharedMemo>,
    /// Warm scratch bundles recycled across parallel branches.
    branch_pool: std::sync::Mutex<Vec<BranchScratch>>,
    /// Warm `det-k-decomp` scratch stacks recycled across hybrid
    /// handoffs (and rayon branches), so handoffs stop paying cold
    /// buffer allocations per call.
    detk_pool: std::sync::Mutex<Vec<DetkScratch>>,
    /// Entry cap of each node-local λp split memo, derived from
    /// [`LP_MEMO_BYTES`] and this instance's per-entry bitset footprint.
    lp_memo_cap: usize,
}

type FragResult = Result<Option<Fragment>, Stop>;
type Found = ControlFlow<Result<Fragment, Stop>>;
/// Outcome slot of one parallel sibling branch: the child fragment paired
/// with the branch arena it references (kept alive for the merge/rebase
/// pass at the join), or the branch's stop.
type SiblingResult = Result<Option<(Fragment, SpecialArena)>, Stop>;

impl<'h> LogKEngine<'h> {
    /// Creates an engine over `hg` with the given configuration.
    pub fn new(hg: &'h Hypergraph, ctrl: &'h Control, cfg: EngineConfig) -> Self {
        assert!(cfg.k >= 1, "width parameter k must be at least 1");
        let mut order: Vec<Edge> = hg.edge_ids().collect();
        order.sort_unstable_by_key(|&e| (std::cmp::Reverse(hg.edge(e).len()), e.0));
        let mut edge_rank = vec![0u32; hg.num_edges()];
        for (rank, e) in order.into_iter().enumerate() {
            edge_rank[e.0 as usize] = rank as u32;
        }
        // One λp memo entry ≈ the ⋃λp key (one vertex bitset) plus the
        // memoised component (vertex bitset + subproblem edge/special
        // bitsets) plus map overhead.
        let vs_bytes = hg.num_vertices().div_ceil(64) * 8;
        let es_bytes = hg.num_edges().div_ceil(64) * 8;
        let entry_bytes = 2 * vs_bytes + 2 * es_bytes + 96;
        let lp_memo_cap = (LP_MEMO_BYTES / entry_bytes).clamp(16, 1 << 15);
        LogKEngine {
            hg,
            ctrl,
            cfg,
            stats: EngineStats::default(),
            edge_rank,
            cache: Arc::new(SubproblemCache::new(cfg.cache_bytes)),
            detk_memo: Arc::new(SharedMemo::new(cfg.k, cfg.detk_cache_cap)),
            branch_pool: std::sync::Mutex::new(Vec::new()),
            detk_pool: std::sync::Mutex::new(Vec::new()),
            lp_memo_cap,
        }
    }

    /// Like [`Self::new`], but memoising into caller-owned tables, so
    /// verdicts survive the solve and are shared across solves (the
    /// `htdserve` server hands repeated queries the same pair).
    ///
    /// # Soundness contract
    ///
    /// Cached verdicts are relative to a hypergraph and a width bound:
    /// `cache` must only ever be shared between engines over the **same
    /// hypergraph** (same edge numbering) at the **same `k`**, and
    /// `detk_memo.k()` must equal `cfg.k` (asserted). The
    /// `htdserve::TableHub` enforces this by keying table pairs by
    /// instance content and width.
    pub fn with_tables(
        hg: &'h Hypergraph,
        ctrl: &'h Control,
        cfg: EngineConfig,
        cache: Arc<SubproblemCache>,
        detk_memo: Arc<SharedMemo>,
    ) -> Self {
        assert_eq!(
            detk_memo.k(),
            cfg.k,
            "shared det-k memo must match the engine's width bound"
        );
        LogKEngine {
            cache,
            detk_memo,
            ..Self::new(hg, ctrl, cfg)
        }
    }

    /// Search statistics of the last [`Self::decompose`] call.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Snapshot of the subproblem-cache counters.
    pub fn cache_snapshot(&self) -> CacheSnapshot {
        self.cache.snapshot()
    }

    /// Snapshot of the shared `det-k-decomp` memo-table counters.
    pub fn detk_memo_snapshot(&self) -> MemoSnapshot {
        self.detk_memo.snapshot()
    }

    /// Decides `hw(H) ≤ k`, materialising a witness HD on success.
    ///
    /// Per the "no special treatment of the root" optimisation, this is a
    /// single call `Decomp(⟨E(H), ∅⟩, ∅, E(H))`: the search starts with a
    /// balanced separator right away.
    pub fn decompose(&self) -> Result<Option<Decomposition>, Interrupted> {
        if self.hg.num_edges() == 0 {
            return Ok(Some(Decomposition::singleton(vec![], self.hg.vertex_set())));
        }
        let mut arena = SpecialArena::new();
        let mut stack = ScratchStack::new();
        let sub = Subproblem::whole(self.hg);
        let conn = self.hg.vertex_set();
        let allowed = Arc::new(self.hg.all_edges());
        let result = self.decomp(&mut arena, &sub, &conn, &allowed, 0, None, &mut stack);
        self.fold_meters(stack_totals(&stack));
        match result {
            Ok(Some(frag)) => Ok(Some(
                frag.into_decomposition()
                    .expect("whole-graph fragments have no special leaves"),
            )),
            Ok(None) => Ok(None),
            Err(Stop::External(e)) => Err(e),
            Err(Stop::Pruned) => unreachable!("no enclosing race at the top level"),
        }
    }

    /// Folds retired scratch meters into the engine statistics.
    fn fold_meters(&self, t: MeterTotals) {
        self.stats
            .scratch_grow_events
            .fetch_add(t.grow, Ordering::Relaxed);
        self.stats
            .lambda_c_rejected
            .fetch_add(t.rejected_c, Ordering::Relaxed);
        self.stats
            .lambda_p_rejected
            .fetch_add(t.rejected_p, Ordering::Relaxed);
        self.stats
            .lambda_p_prefiltered
            .fetch_add(t.prefiltered_p, Ordering::Relaxed);
        self.stats
            .separations
            .fetch_add(t.separations, Ordering::Relaxed);
    }

    /// Function `Decomp(H', Conn, A)` of Algorithm 2, wrapped with the
    /// subproblem memoisation.
    #[allow(clippy::too_many_arguments)]
    fn decomp(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        stack: &mut ScratchStack,
    ) -> FragResult {
        poll(self.ctrl, prune)?;
        self.stats.max_depth.fetch_max(depth + 1, Ordering::Relaxed);
        self.stats.decomp_calls.fetch_add(1, Ordering::Relaxed);

        // Base cases (lines 5–10).
        if sub.edges.len() <= self.cfg.k && sub.specials.is_empty() {
            let lambda: Vec<Edge> = sub.edges.iter().collect();
            let chi = self.hg.union_of(&sub.edges);
            return Ok(Some(Fragment::leaf(lambda, chi)));
        }
        if sub.edges.is_empty() && sub.specials.len() == 1 {
            let s = sub.specials[0];
            return Ok(Some(Fragment::special_leaf(s, arena.get(s).clone())));
        }
        if sub.edges.is_empty() && sub.specials.len() > 1 {
            return Ok(None); // negative base case
        }

        // Memoisation: the borrowed-key probe resolves special-edge ids to
        // vertex sets, so verdicts are meaningful across branches and
        // recursion levels. A negative hit fails immediately; a positive
        // hit returns the stored fragment re-interned into this branch's
        // arena — no re-derivation either way.
        let pending = if self.cache.enabled() {
            match self.cache.probe(arena, sub, conn, allowed) {
                Probe::Negative => return Ok(None),
                Probe::Positive(frag) => return Ok(Some(frag)),
                Probe::Miss(hash) => Some(hash),
            }
        } else {
            None
        };

        let result = self.solve_subproblem(arena, sub, conn, allowed, depth, prune, stack);
        if let Some(hash) = pending {
            match &result {
                // `Ok(None)` is only reachable by exhausting the search
                // space: pruned or interrupted branches propagate `Err`
                // instead, so the negative verdict is safe to share.
                Ok(None) => self.cache.insert_negative(hash, arena, sub, conn, allowed),
                // A found fragment is a complete witness — always safe.
                // Only fragments up to the configured node count are
                // stored: insert cost scales with the fragment while
                // re-use concentrates on small ones, so memoising the
                // big fragments of the (unique) success path would only
                // tax trivial instances — measured by `bounded40_k2`
                // (the low-reuse contrast in `micro/neg_cache`), with
                // the preserved wins on `micro/pos_cache`.
                Ok(Some(frag)) if frag.num_nodes() <= self.cfg.pos_cache_max_frag => self
                    .cache
                    .insert_positive(hash, arena, sub, conn, allowed, frag),
                Ok(Some(_)) | Err(_) => {}
            }
        }
        result
    }

    /// The body of `Decomp` past base cases and memoisation: hybrid
    /// handoff, then the child loop over λc candidates.
    #[allow(clippy::too_many_arguments)]
    fn solve_subproblem(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        stack: &mut ScratchStack,
    ) -> FragResult {
        // Hybrid handoff (Appendix D.2): once the subproblem is simple,
        // delegate to det-k-decomp (extended to special edges). Every
        // handoff shares the engine-wide memo table, so det-k work done by
        // one branch is never repeated by another.
        if let Some(h) = self.cfg.hybrid {
            if h.metric.evaluate(self.hg, arena, sub, self.cfg.k) < h.threshold {
                // Reuse a warm det-k scratch stack from the engine pool;
                // allocate a cold one only when every warm stack is in
                // use by a sibling branch.
                let scratch = self
                    .detk_pool
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop()
                    .unwrap_or_else(|| {
                        self.stats.scratch_allocs.fetch_add(1, Ordering::Relaxed);
                        DetkScratch::new()
                    });
                let grow_before = scratch.grow_events();
                let mut detk = DetKDecomp::new(self.hg, self.cfg.k, self.ctrl)
                    .with_shared_memo(self.detk_memo.as_ref())
                    .with_scratch(scratch);
                let result = detk.decompose(arena, sub, conn).map_err(Stop::External);
                self.stats.detk_handoffs.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .detk_cache_peak
                    .fetch_max(self.detk_memo.len(), Ordering::Relaxed);
                let scratch = detk.take_scratch();
                self.stats
                    .scratch_grow_events
                    .fetch_add(scratch.grow_events() - grow_before, Ordering::Relaxed);
                self.detk_pool
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(scratch);
                return result;
            }
        }

        let mut lvl = stack.take(depth).unwrap_or_else(|| {
            self.stats.scratch_allocs.fetch_add(1, Ordering::Relaxed);
            LevelScratch::default()
        });
        let result = self.child_loop(arena, sub, conn, allowed, depth, prune, stack, &mut lvl);
        stack.put(depth, lvl);
        result
    }

    /// `ChildLoop` (Algorithm 2, lines 11–44): enumerate λc candidates
    /// lead by lead ([`Self::walk_lead`]). Inside the racing depths, with
    /// more than one candidate and more than one pool worker, the leads
    /// race across the pool ([`Self::child_loop_parallel`]) — the same
    /// gate shape as `split_siblings`. Otherwise they run in order on
    /// this level's own arena and scratch: no seal, no branch arena, no
    /// pooled branch scratch, and one λp memo shared by every lead.
    #[allow(clippy::too_many_arguments)]
    fn child_loop(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        stack: &mut ScratchStack,
        lvl: &mut LevelScratch,
    ) -> FragResult {
        // λp memo keys are only meaningful for one subproblem.
        lvl.lp_memo.clear();
        let (mut ctx, bufs) = lvl.split(stack);
        let EnumBufs {
            vsub,
            cands,
            lam_buf,
        } = bufs;

        ctx.meters
            .bump_grow(sub.vertices_into(self.hg, arena, vsub));
        // λc candidates: allowed edges touching the subproblem, in
        // balance-likelihood order. Edges disjoint from V(H') cannot
        // contribute to χc, to balance checks or to Conn coverage, so
        // dropping them preserves completeness.
        let cands_cap = cands.capacity();
        cands.clear();
        cands.extend(allowed.iter().filter(|&e| self.hg.edge(e).intersects(vsub)));
        cands.sort_unstable_by_key(|&e| self.edge_rank[e.0 as usize]);
        ctx.meters.bump_grow(cands.capacity() > cands_cap);

        let level = LevelInputs {
            sub,
            conn,
            allowed,
            depth,
            vsub,
            cands,
        };
        let checkpoint = arena.len();
        let result = if depth < self.cfg.parallel_depth
            && cands.len() > 1
            && rayon::current_num_threads() > 1
        {
            // Seal once so every branch checkpoint is an Arc bump.
            arena.seal();
            self.child_loop_parallel(arena, level, prune)
        } else {
            let found = (0..cands.len())
                .find_map(|lead| self.walk_lead(arena, &level, prune, lead, lam_buf, &mut ctx));
            match found {
                Some(Ok(f)) => Ok(Some(f)),
                Some(Err(e)) => Err(e),
                None => Ok(None), // line 44: exhausted search space
            }
        };
        // Stack discipline: whatever happened below, only specials that
        // existed on entry may be referenced by the returned fragment.
        arena.truncate(checkpoint);
        lvl.retire_lp_memo();
        result
    }

    /// Races the leads of `cands` across the work-stealing pool
    /// ([`Self::race_leads`]), each lead one branch ([`Self::try_lead`])
    /// on a private arena checkpoint and pooled scratch. Only entered on
    /// pools with more than one worker (see [`Self::child_loop`]). The
    /// first success wins; an external interruption is reported unless a
    /// success raced ahead of it.
    ///
    /// The caller has sealed `arena`, so each branch's checkpoint shares
    /// the immutable prefix instead of deep-copying it.
    fn child_loop_parallel(
        &self,
        arena: &SpecialArena,
        level: LevelInputs<'_>,
        prune: Option<&Prune<'_>>,
    ) -> FragResult {
        let won = AtomicBool::new(false);
        let race = Prune {
            flag: &won,
            parent: prune,
        };
        let slot: std::sync::Mutex<Option<Result<Fragment, Stop>>> = std::sync::Mutex::new(None);
        let ctx = LeadRace {
            arena,
            level,
            race: &race,
            won: &won,
            slot: &slot,
        };
        self.race_leads(0, level.cands.len(), &ctx);
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(frag)) => Ok(Some(frag)),
            Some(Err(e)) => Err(e), // external interruption, first reporter wins
            None => {
                // Either exhausted, or pruned by an *outer* race.
                if prune.is_some_and(|p| p.is_set()) {
                    Err(Stop::Pruned)
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Binary [`rayon::join`] split over the lead range `[lo, hi)`,
    /// halved until single leads remain. The left half runs on the current
    /// worker; the right half goes on its deque for thieves (and is popped
    /// back for inline execution when nobody stole it). Balanced splitting
    /// is what lets the pool absorb the wildly uneven per-lead subtree
    /// costs: an early lead can exhaust a huge subset space while a later
    /// one succeeds instantly. Early-cancel: every split and every branch
    /// polls the [`Prune`] chain, so subtrees not yet started are dropped
    /// as soon as a sibling wins.
    fn race_leads(&self, lo: usize, hi: usize, ctx: &LeadRace<'_>) {
        if ctx.race.is_set() {
            return;
        }
        if hi - lo == 1 {
            self.try_lead(lo, ctx);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        rayon::join(
            || self.race_leads(lo, mid, ctx),
            || self.race_leads(mid, hi, ctx),
        );
    }

    /// One branch of the λc race: walks `lead` ([`Self::walk_lead`]) on a
    /// branch-private arena checkpoint and scratch bundle, with its own
    /// λp memo.
    fn try_lead(&self, lead: usize, ctx: &LeadRace<'_>) {
        let mut branch_arena = ctx.arena.clone();
        self.stats
            .arena_branch_clones
            .fetch_add(1, Ordering::Relaxed);
        let found = self.with_branch_scratch(|stack, lvl| {
            // The branch enumerates the caller's (sealed-level) `vsub` and
            // `cands`; its own enumeration buffers serve only the subset
            // walk. Its λp memo is branch-local and keyed per subproblem.
            lvl.lp_memo.clear();
            let (mut cctx, bufs) = lvl.split(stack);
            self.walk_lead(
                &mut branch_arena,
                &ctx.level,
                Some(ctx.race),
                lead,
                bufs.lam_buf,
                &mut cctx,
            )
        });
        match found {
            // A sibling won, an outer race ended, or the lead is exhausted.
            Some(Err(Stop::Pruned)) | None => {}
            // A success or an external interruption ends the race; the
            // first reporter keeps the slot.
            Some(outcome) => {
                let mut slot = ctx.slot.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(outcome);
                }
                drop(slot);
                ctx.won.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Runs `f` on a warm scratch bundle from the engine pool — allocating
    /// one only when every warm bundle is in use by a sibling branch —
    /// then folds the bundle's new meter counts into the statistics and
    /// returns it to the pool.
    fn with_branch_scratch<R>(
        &self,
        f: impl FnOnce(&mut ScratchStack, &mut LevelScratch) -> R,
    ) -> R {
        let recycled = self
            .branch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        let mut branch = recycled.unwrap_or_else(|| {
            self.stats.scratch_allocs.fetch_add(1, Ordering::Relaxed);
            BranchScratch::default()
        });
        let out = f(&mut branch.stack, &mut branch.lvl);
        let totals = branch.totals();
        self.fold_meters(totals - branch.reported);
        branch.reported = totals;
        branch.lvl.retire_lp_memo();
        self.branch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(branch);
        out
    }

    /// The λc walk of one lead: every λc of size `1..=k` whose first
    /// member is `cands[lead]`, in ascending size, each tried by
    /// [`Self::try_child`]. The only λc walk of the engine: both paths of
    /// [`Self::child_loop`] visit the leads `0..cands.len()` through it,
    /// in order inline or raced across the pool, so the λc order is
    /// lead-major everywhere.
    fn walk_lead(
        &self,
        arena: &mut SpecialArena,
        level: &LevelInputs<'_>,
        prune: Option<&Prune<'_>>,
        lead: usize,
        lam_buf: &mut Vec<Edge>,
        ctx: &mut ChildCtx<'_>,
    ) -> Option<Result<Fragment, Stop>> {
        let LevelInputs {
            sub,
            conn,
            allowed,
            depth,
            vsub,
            cands,
        } = *level;
        let lam_cap = lam_buf.capacity();
        let found = for_each_subset_with_lead_in(cands, lead, self.cfg.k, lam_buf, |lam_c| {
            self.try_child(
                arena, sub, conn, allowed, depth, prune, vsub, cands, lam_c, ctx,
            )
        });
        ctx.meters.bump_grow(lam_buf.capacity() > lam_cap);
        found
    }

    /// One iteration of `ChildLoop` (Algorithm 2, lines 11–43).
    ///
    /// A *rejected* candidate — the overwhelmingly common case — runs
    /// entirely inside the level's scratch buffers: no heap allocation.
    #[allow(clippy::too_many_arguments)]
    fn try_child(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        vsub: &VertexSet,
        cands: &[Edge],
        lam_c: &[Edge],
        ctx: &mut ChildCtx<'_>,
    ) -> Found {
        if let Err(e) = poll(self.ctrl, prune) {
            return ControlFlow::Break(Err(e));
        }
        let ChildCtx {
            meters,
            seps_c,
            union_c,
            chi_root,
            cands_p,
            lam_buf_p,
            touch_uc,
            x_conn,
            conn_uc,
            touch_x,
            pair,
        } = ctx;
        // λc must contain a "new" edge (progress, Def. 3.5(2)).
        if !lam_c.iter().any(|e| sub.edges.contains(*e)) {
            meters.reject_c();
            return ControlFlow::Continue(());
        }
        meters.bump_grow(self.hg.union_of_slice_into(lam_c, union_c));
        // Line 12: [λc]-components of H'.
        meters.bump_separation();
        separate_into(self.hg, arena, sub, union_c, pair.down.bfs, seps_c);
        // Line 13: χc must be a balanced separator of H'. (⋃λc
        // over-approximates χc: if ⋃λc is unbalanced, so is χc.)
        if seps_c.components.iter().any(|c| 2 * c.size() > sub.size()) {
            meters.reject_c();
            return ControlFlow::Continue(()); // line 14
        }

        // Lines 15–21: root case — λc covers the interface to the part
        // above, so c is the root of this HD-fragment.
        if conn.is_subset_of(union_c) {
            match self.try_as_root(
                arena,
                allowed,
                depth,
                prune,
                vsub,
                lam_c,
                union_c,
                seps_c,
                chi_root,
                &mut pair.down,
            ) {
                Ok(Some(frag)) => return ControlFlow::Break(Ok(frag)),
                Ok(None) => {
                    if !self.cfg.root_fallthrough {
                        meters.reject_c();
                        return ControlFlow::Continue(()); // line 20
                    }
                    // fall through to the pair search below
                }
                Err(e) => return ControlFlow::Break(Err(e)),
            }
        }

        // Lines 22–43: parent/child pair search.
        // λp candidates: allowed edges intersecting ⋃λc (Theorem C.1) that
        // also touch the subproblem, tried in balance-likelihood order.
        // `cands` is exactly the allowed-∩-touching-V(H') list in rank
        // order, so one coverage-mask membership test per edge filters it
        // — no per-edge vertex-set intersection, no re-sort.
        let cands_p_cap = cands_p.capacity();
        cands_p.clear();
        if self.cfg.restrict_parent_search {
            meters.bump_grow(self.hg.edges_touching_into(union_c, touch_uc));
            cands_p.extend(cands.iter().copied().filter(|&e| touch_uc.contains(e)));
        } else {
            cands_p.extend_from_slice(cands);
        }
        meters.bump_grow(cands_p.capacity() > cands_p_cap);

        // λp admissibility pre-filter, per-λc part (see [`PreFilter`] for
        // the soundness arguments; every test below rejects a candidate
        // only when the full separation would reject it too).
        let prefilter = if self.cfg.lambda_p_prefilter {
            // Exclusion baseline: members touching `X = Conn \ ⋃λc` can
            // never lie in `comp_down`. Both per-λc sets are assembled in
            // one fused pass each.
            meters.bump_grow(x_conn.assign_diff_and(conn, union_c, vsub));
            meters.bump_grow(conn_uc.assign_and3(conn, union_c, vsub));
            meters.bump_grow(self.hg.edges_touching_into(x_conn, touch_x));
            touch_x.intersect_with(&sub.edges);
            let base_excluded = touch_x.len()
                + sub
                    .specials
                    .iter()
                    .filter(|&&s| arena.get(s).intersects(x_conn))
                    .count();
            // If the λp-independent exclusions already claim half the
            // members, no λp can produce an oversized `comp_down`: the
            // whole parent loop is skipped, counted at the size of the
            // subset space it would have enumerated.
            if 2 * base_excluded >= sub.size() {
                let skipped =
                    subset_space_size(cands_p.len(), self.cfg.k).min(u64::MAX as u128) as u64;
                meters.prefilter_p(skipped);
                meters.reject_c();
                return ControlFlow::Continue(());
            }

            Some(PreFilter {
                x_conn,
                conn_uc,
                touch_x,
            })
        } else {
            None
        };
        let lam_p_cap = lam_buf_p.capacity();
        let found = for_each_subset_in(cands_p, self.cfg.k, lam_buf_p, |lam_p| {
            self.try_parent(
                arena,
                sub,
                conn,
                allowed,
                depth,
                prune,
                vsub,
                lam_c,
                union_c,
                lam_p,
                prefilter.as_ref(),
                pair,
            )
        });
        meters.bump_grow(lam_buf_p.capacity() > lam_p_cap);
        match found {
            Some(r) => ControlFlow::Break(r),
            None => {
                meters.reject_c();
                ControlFlow::Continue(())
            }
        }
    }

    /// Lines 15–21: treat `c` as the root of the current HD-fragment.
    #[allow(clippy::too_many_arguments)]
    fn try_as_root(
        &self,
        arena: &mut SpecialArena,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        vsub: &VertexSet,
        lam_c: &[Edge],
        union_c: &VertexSet,
        seps_c: &Separation,
        chi_root: &mut VertexSet,
        down: &mut DownCtx<'_>,
    ) -> FragResult {
        // Line 16: χc = ⋃λc ∩ V(H'), one fused pass.
        down.meters.bump_grow(chi_root.assign_and(union_c, vsub));
        // Lines 17–20: solve the [λc]-components, concurrently when the
        // grain gate passes (see `solve_siblings`).
        let Some(children) = self.solve_siblings(
            arena,
            allowed,
            depth,
            prune,
            chi_root,
            &seps_c.components,
            down.meters,
            down.conn_child,
            down.stack,
        )?
        else {
            return Ok(None); // line 20
        };
        let mut frag = Fragment::leaf(lam_c.to_vec(), chi_root.clone());
        for f in children {
            frag.attach_under(0, f);
        }
        for &s in &seps_c.covered_specials {
            frag.attach_under(0, Fragment::special_leaf(s, arena.get(s).clone()));
        }
        Ok(Some(frag)) // line 21
    }

    /// One iteration of `ParentLoop` (lines 22–43).
    #[allow(clippy::too_many_arguments)]
    fn try_parent(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        vsub: &VertexSet,
        lam_c: &[Edge],
        union_c: &VertexSet,
        lam_p: &[Edge],
        prefilter: Option<&PreFilter<'_>>,
        pair: &mut PairCtx<'_>,
    ) -> Found {
        if let Err(e) = poll(self.ctrl, prune) {
            return ControlFlow::Break(Err(e));
        }
        let PairCtx {
            seps_p,
            union_p,
            chi_pair,
            bad,
            touch_bad,
            lp_memo,
            down,
        } = pair;
        let meters = down.meters;
        // λp must also contain a "new" edge (Appendix C, allowed edges).
        if !lam_p.iter().any(|e| sub.edges.contains(*e)) {
            meters.reject_p();
            return ControlFlow::Continue(());
        }
        meters.bump_grow(self.hg.union_of_slice_into(lam_p, union_p));
        // Admissibility pre-filter (see [`PreFilter`]): members touching
        // `bad = ((⋃λp \ ⋃λc) ∪ (Conn \ (⋃λc ∩ ⋃λp))) ∩ V(H')` are
        // provably outside any admissible `comp_down`; if at most half the
        // members remain, the checks of lines 24–32 cannot all pass and
        // the BFS separation is skipped.
        if let Some(pf) = prefilter {
            // `bad = ((⋃λp \ ⋃λc) ∩ V(H')) ∪ ((Conn ∩ ⋃λc ∩ V(H')) \ ⋃λp)`
            // in one fused pass over the four operands, its emptiness a
            // by-product — previously five chained two-operand passes
            // plus an emptiness scan.
            let (grew, nonempty) = bad.assign_lp_bad(union_p, union_c, vsub, pf.conn_uc);
            meters.bump_grow(grew);
            // With `bad` empty the λp-independent baseline already passed
            // the half-size test in `try_child`, so rejection is
            // impossible — go straight to the separation.
            if nonempty {
                meters.bump_grow(self.hg.edges_touching_into(bad, touch_bad));
                // `|(touch_bad ∩ E') ∪ touch_x|` in one counting pass
                // (`touch_x` is already ⊆ E'), nothing materialised.
                let excluded = touch_bad.count_intersect_union(&sub.edges, pf.touch_x)
                    + sub
                        .specials
                        .iter()
                        .filter(|&&s| {
                            let g = arena.get(s);
                            g.intersects(bad) || g.intersects(pf.x_conn)
                        })
                        .count();
                if 2 * excluded >= sub.size() {
                    meters.prefilter_p(1);
                    return ControlFlow::Continue(());
                }
            }
        }
        // Line 23: [λp]-components of H'. The split depends only on
        // `(H', ⋃λp)` — not on λc — and the same λp sets recur across
        // every λc's parent loop of this `Decomp` node, so the node-local
        // memo serves repeat candidates without re-running the BFS. Only
        // `comp_down` is stored: lines 28–43 never look at the small
        // components of the λp split.
        if self.cfg.lambda_p_prefilter {
            if let Some(cached) = lp_memo.get(union_p) {
                let Some(comp_down) = cached else {
                    meters.reject_p();
                    return ControlFlow::Continue(());
                };
                return self.check_pair(
                    arena, sub, conn, allowed, depth, prune, lam_c, union_c, union_p, comp_down,
                    chi_pair, down,
                );
            }
        }
        meters.bump_separation();
        separate_into(self.hg, arena, sub, union_p, down.bfs, seps_p);
        // Lines 24–27: the oversized component becomes comp_down.
        let over = seps_p.oversized_component(sub.size());
        if self.cfg.lambda_p_prefilter && lp_memo.len() < self.lp_memo_cap {
            lp_memo.insert(union_p.clone(), over.map(|i| seps_p.components[i].clone()));
        }
        let Some(i) = over else {
            meters.reject_p();
            return ControlFlow::Continue(());
        };
        self.check_pair(
            arena,
            sub,
            conn,
            allowed,
            depth,
            prune,
            lam_c,
            union_c,
            union_p,
            &seps_p.components[i],
            chi_pair,
            down,
        )
    }

    /// Lines 28–43 against a fixed `comp_down` (freshly separated or
    /// served from the node-local λp memo): χc, the connectedness and
    /// trace checks, then the below/above recursions.
    #[allow(clippy::too_many_arguments)]
    fn check_pair(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        lam_c: &[Edge],
        union_c: &VertexSet,
        union_p: &VertexSet,
        comp_down: &Component,
        chi_pair: &mut VertexSet,
        down: &mut DownCtx<'_>,
    ) -> Found {
        let meters = down.meters;
        // Line 28: χc = ⋃λc ∩ V(comp_down), one fused pass.
        meters.bump_grow(chi_pair.assign_and(union_c, &comp_down.vertices));
        // Lines 29–30: Conn connectedness against λp —
        // `(V(comp_down) ∩ Conn) ⊆ ⋃λp`, checked word-parallel without
        // materialising the intersection.
        if comp_down.vertices.intersects_outside(conn, union_p) {
            meters.reject_p();
            return ControlFlow::Continue(());
        }
        // Lines 31–32: λp's trace on comp_down must lie inside χc.
        if comp_down.vertices.intersects_outside(union_p, chi_pair) {
            meters.reject_p();
            return ControlFlow::Continue(());
        }

        match self.finish_pair(
            arena, sub, conn, allowed, depth, prune, lam_c, chi_pair, comp_down, down,
        ) {
            Ok(Some(frag)) => ControlFlow::Break(Ok(frag)),
            Ok(None) => {
                meters.reject_p();
                ControlFlow::Continue(()) // lines 37/42: reject parent
            }
            Err(e) => ControlFlow::Break(Err(e)),
        }
    }

    /// Lines 33–43: recurse below `c` and above `c`, then stitch.
    #[allow(clippy::too_many_arguments)]
    fn finish_pair(
        &self,
        arena: &mut SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        lam_c: &[Edge],
        chi_c: &VertexSet,
        comp_down: &Component,
        down: &mut DownCtx<'_>,
    ) -> FragResult {
        let DownCtx {
            meters,
            bfs,
            seps_down,
            conn_child,
            stack,
        } = down;
        // Line 33: [χc]-components of comp_down.
        meters.bump_separation();
        separate_into(
            self.hg,
            arena,
            comp_down.as_subproblem(),
            chi_c,
            bfs,
            seps_down,
        );
        // Balance of these components follows from the line-13 check
        // (they refine the [λc]-components of H' — Corollary 3.8).
        debug_assert!(seps_down
            .components
            .iter()
            .all(|c| 2 * c.size() <= sub.size()));

        // Lines 34–37: recurse below, concurrently when the grain gate
        // passes (see `solve_siblings`).
        let Some(below) = self.solve_siblings(
            arena,
            allowed,
            depth,
            prune,
            chi_c,
            &seps_down.components,
            meters,
            conn_child,
            stack,
        )?
        else {
            return Ok(None);
        };

        // Lines 38–40: comp_up := H' \ comp_down plus the new special χc;
        // the fragment above may not use edges from below (allowed edges).
        // This path runs only for candidates that already survived every
        // rejection check and decomposed below, so allocating here is off
        // the per-candidate hot path.
        let mut comp_up = Subproblem {
            edges: sub.edges.difference(comp_down.edges()),
            specials: sub
                .specials
                .iter()
                .copied()
                .filter(|s| !comp_down.specials().contains(s))
                .collect(),
        };
        let mark = arena.len();
        let sc = arena.push(chi_c.clone());
        comp_up.specials.push(sc);
        // The restricted alphabet gets its own `Arc`: every `Decomp` call
        // in the subtree above (and every cache entry they create) shares
        // this one allocation. The unrestricted branch is a refcount bump.
        let allowed_up = if self.cfg.use_allowed_edges {
            Arc::new(allowed.difference(comp_down.edges()))
        } else {
            Arc::clone(allowed)
        };

        // Lines 41–42: recurse above.
        let up = self.decomp(arena, &comp_up, conn, &allowed_up, depth + 1, prune, stack);
        // The special edge χc is consumed here either way: on success the
        // stitching below replaces its leaf, on failure nothing references
        // it. Popping it keeps the arena from accumulating garbage across
        // the (potentially huge) candidate enumeration.
        arena.truncate(mark);
        let Some(mut up_frag) = up? else {
            return Ok(None);
        };

        // Stitch (soundness proof, Appendix A): replace the special leaf
        // for χc by the real node c, attach the below-fragments and leaves
        // for comp_down's covered specials.
        let c_idx = up_frag.replace_special_leaf(sc, lam_c.to_vec(), chi_c.clone());
        for f in below {
            up_frag.attach_under(c_idx, f);
        }
        for &s in &seps_down.covered_specials {
            up_frag.attach_under(c_idx, Fragment::special_leaf(s, arena.get(s).clone()));
        }
        Ok(Some(up_frag)) // line 43
    }

    /// Shared driver of lines 17–20 (root mode) and 34–37 (pair mode):
    /// solves each component of `comps` as its own subproblem with
    /// connector `V(comp) ∩ chi`, returning the child fragments in
    /// component order — or `None` as soon as any child is unsolvable,
    /// which rejects the enclosing candidate.
    ///
    /// The siblings are independent subproblems (they share no vertices
    /// outside the separator), so when the grain gate passes they fan out
    /// on the pool; otherwise — 1-worker pools, sequential engines, depths
    /// past the racing frontier, or loops below the grain floors — they
    /// recurse in place on the caller's arena and scratch, byte-for-byte
    /// the pre-fork/merge loop.
    #[allow(clippy::too_many_arguments)]
    fn solve_siblings(
        &self,
        arena: &mut SpecialArena,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        chi: &VertexSet,
        comps: &[Component],
        meters: &LevelMeters,
        conn_child: &mut VertexSet,
        stack: &mut ScratchStack,
    ) -> Result<Option<Vec<Fragment>>, Stop> {
        if self.split_siblings(depth, comps) {
            return self.solve_siblings_parallel(arena, allowed, depth, prune, chi, comps);
        }
        let mut children = Vec::with_capacity(comps.len());
        for y in comps {
            // Line 18/35: Conn_y = V(y) ∩ χc.
            meters.bump_grow(conn_child.copy_from(&y.vertices));
            conn_child.intersect_with(chi);
            match self.decomp(
                arena,
                y.as_subproblem(),
                conn_child,
                allowed,
                depth + 1,
                prune,
                stack,
            )? {
                Some(f) => children.push(f),
                None => return Ok(None), // line 20/37
            }
        }
        Ok(Some(children))
    }

    /// The sibling-children grain gate: still inside the racing depths,
    /// enough siblings, enough aggregate work, and a pool that can
    /// actually overlap them.
    fn split_siblings(&self, depth: usize, comps: &[Component]) -> bool {
        depth < self.cfg.parallel_depth
            && comps.len() >= self.cfg.child_split_min_components
            && comps.iter().map(|c| c.size()).sum::<usize>() >= self.cfg.child_split_min_size
            && rayon::current_num_threads() > 1
    }

    /// Probes sibling subproblems concurrently under the pool's scope.
    ///
    /// Each sibling runs on a [`SpecialArena::fork`] of the parent arena
    /// (Arc-shared sealed prefix, private tail) with branch scratch drawn
    /// from the engine pool, under a fail-fast [`Prune`] link: the first
    /// definitive `None` (or external interruption) cancels the remaining
    /// siblings at their next poll. Verdict folding at the join, in
    /// precedence order:
    ///
    /// * any child `Ok(None)` → `Ok(None)` — that child exhaustively
    ///   rejected its own subspace, so the enclosing candidate is rejected
    ///   no matter what the cancelled siblings would have said;
    /// * else any external interruption → propagated;
    /// * else any pruned sibling → `Err(Stop::Pruned)` — only an enclosing
    ///   λc race can have caused it;
    /// * else all succeeded → each branch fragment is folded back under
    ///   the parent arena ([`decomp::rebase_fragment`]) and the fragments
    ///   return in component order.
    fn solve_siblings_parallel(
        &self,
        arena: &mut SpecialArena,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        prune: Option<&Prune<'_>>,
        chi: &VertexSet,
        comps: &[Component],
    ) -> Result<Option<Vec<Fragment>>, Stop> {
        decomp::faults::hit_ctrl("logk/engine/child_split", self.ctrl);
        self.stats.child_splits.fetch_add(1, Ordering::Relaxed);
        let checkpoint = arena.len();
        // One fork per sibling, taken up front: the first seals the
        // parent's tail into the shared prefix, the rest are refcount
        // bumps.
        let forks: Vec<SpecialArena> = comps.iter().map(|_| arena.fork()).collect();
        self.stats
            .arena_branch_clones
            .fetch_add(comps.len() as u64, Ordering::Relaxed);
        let failed = AtomicBool::new(false);
        let join = Prune {
            flag: &failed,
            parent: prune,
        };
        let slots: Vec<std::sync::Mutex<Option<SiblingResult>>> =
            comps.iter().map(|_| std::sync::Mutex::new(None)).collect();
        rayon::scope(|s| {
            for ((slot, comp), barena) in slots.iter().zip(comps).zip(forks) {
                let join = &join;
                s.spawn(move |_| {
                    let res = self.solve_sibling_branch(barena, comp, chi, allowed, depth, join);
                    if matches!(res, Ok(None) | Err(Stop::External(_))) {
                        // Fail-fast: this verdict decides the join — stop
                        // the siblings at their next poll.
                        join.flag.store(true, Ordering::Relaxed);
                    }
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(res);
                });
            }
        });
        decomp::faults::hit_ctrl("logk/engine/child_join", self.ctrl);
        let mut children = Vec::with_capacity(comps.len());
        let mut rejected = false;
        let mut external: Option<Stop> = None;
        let mut cancelled = 0u64;
        for slot in slots {
            match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                Some(Ok(Some(child))) => children.push(child),
                Some(Ok(None)) => rejected = true,
                Some(Err(e @ Stop::External(_))) => external = external.or(Some(e)),
                Some(Err(Stop::Pruned)) | None => cancelled += 1,
            }
        }
        self.stats
            .child_cancels
            .fetch_add(cancelled, Ordering::Relaxed);
        if rejected {
            // Sound despite the cancelled siblings: the rejecting child
            // exhausted its own subspace, and one unsolvable child rejects
            // the enclosing candidate outright.
            return Ok(None);
        }
        if let Some(e) = external {
            return Err(e);
        }
        if cancelled > 0 {
            // No sibling failed locally, so an enclosing race pruned them.
            debug_assert!(prune.is_some_and(|p| p.is_set()));
            return Err(Stop::Pruned);
        }
        // All children succeeded: fold each branch's fragment back under
        // the parent arena before the caller stitches it. Under the stack
        // discipline this is a verification walk (children restore their
        // arenas before returning, so fragments only reference shared
        // pre-fork ids) — see `decomp::rebase_fragment`.
        let mut out = Vec::with_capacity(children.len());
        for (mut frag, barena) in children {
            rebase_fragment(&mut frag, &barena, checkpoint, arena);
            out.push(frag);
        }
        self.stats
            .arena_rebases
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(Some(out))
    }

    /// One parallel sibling: checks out branch scratch from the engine
    /// pool, computes the child connector `V(comp) ∩ chi` and recurses on
    /// the forked arena. A successful child's fragment returns together
    /// with its branch arena so the join can rebase it under the parent.
    fn solve_sibling_branch(
        &self,
        mut barena: SpecialArena,
        comp: &Component,
        chi: &VertexSet,
        allowed: &Arc<EdgeSet>,
        depth: usize,
        join: &Prune<'_>,
    ) -> SiblingResult {
        decomp::faults::hit_ctrl("logk/engine/child_branch", self.ctrl);
        // Fail-fast before any work: a sibling (or an outer race) may have
        // decided the join while this branch sat on a deque.
        poll(self.ctrl, Some(join))?;
        let result = self.with_branch_scratch(|stack, lvl| {
            // Line 18/35 on branch scratch: Conn_y = V(y) ∩ χc.
            lvl.meters
                .bump_grow(lvl.conn_child.copy_from(&comp.vertices));
            lvl.conn_child.intersect_with(chi);
            self.decomp(
                &mut barena,
                comp.as_subproblem(),
                &lvl.conn_child,
                allowed,
                depth + 1,
                Some(join),
                stack,
            )
        });
        result.map(|o| o.map(|frag| (frag, barena)))
    }
}
