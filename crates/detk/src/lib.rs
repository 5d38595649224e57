//! `det-k-decomp` — the backtracking HD algorithm of Gottlob & Samer
//! (ACM JEA 2008), re-implemented from scratch and *extended to handle
//! extended subhypergraphs* (special edges), exactly as the paper's hybrid
//! strategy requires (Section 5.2: "our own implementation of det-k-decomp,
//! extended to handle extended subhypergraphs correctly").
//!
//! The algorithm constructs an HD strictly top-down: for the current
//! component it guesses a λ-label, derives the (minimal) bag
//! `χ(u) = ⋃λ(u) ∩ V(C)`, splits `C` into `[χ(u)]`-components and recurses.
//! λ is drawn from the connector-cover walk
//! ([`hypergraph::subsets::for_each_cover_subset_in`]): only labels with
//! `Conn ⊆ ⋃λ` are enumerated, in the order of the plain subset walk, so
//! the labels that are never tried are exactly the ones the connectedness
//! check would reject.
//! Positive and negative results are memoised per `(component, connector)`
//! — the extensive caching that makes the algorithm strong on small
//! instances but, as the paper argues, inherently hard to parallelise.
//!
//! The memo table lives in [`memo::SharedMemo`]: keys resolve special
//! edges to vertex sets and positive results are stored arena-independent
//! ([`decomp::PortableFragment`]), so one table can be shared across *all*
//! hybrid handoffs and rayon branches of a `log-k-decomp` solve
//! ([`DetKDecomp::with_shared_memo`]) instead of each handoff rebuilding
//! its memoisation from zero.
//!
//! The search itself runs on per-level scratch workspaces
//! ([`DetkScratch`]), mirroring the main engine's `LevelScratch`
//! discipline: candidate evaluation (`⋃λ`, `χ(u)`, the `[χ(u)]`-split,
//! per-child connectors) allocates nothing once a level is warm, and the
//! stack can be moved between engine instances
//! ([`DetKDecomp::with_scratch`] / [`DetKDecomp::take_scratch`]) so the
//! hybrid driver's handoffs reuse warm buffers instead of paying cold
//! allocations per call.

use std::cell::OnceCell;
use std::ops::ControlFlow;

use decomp::{Control, Decomposition, Fragment, Interrupted};
use hypergraph::subsets::{for_each_cover_subset_in, CoverScratch, CoverStep};
use hypergraph::{
    separate_into, Edge, Hypergraph, LevelStack, Scratch, Separation, SpecialArena, Subproblem,
    VertexSet,
};

pub mod memo;

pub use memo::{MemoProbe, MemoSnapshot, SharedMemo};

/// Result of a whole-hypergraph solve.
pub type SolveResult = Result<Option<Decomposition>, Interrupted>;

/// Per-recursion-level scratch buffers of the det-k search: everything
/// `try_label` touches per candidate lives here, so candidate evaluation
/// performs no heap allocation once a level is warm — the same discipline
/// as the main engine's `LevelScratch`.
#[derive(Default)]
struct DetkLevel {
    /// BFS buffers for `separate_into`.
    bfs: Scratch,
    /// `[χ(u)]`-components of the current subproblem.
    seps: Separation,
    /// `V(H')` of the current subproblem.
    vsub: VertexSet,
    /// `⋃λ` of the current candidate.
    union: VertexSet,
    /// `χ(u) = ⋃λ ∩ V(H')`.
    chi: VertexSet,
    /// Connector handed to child recursions.
    conn_c: VertexSet,
    /// λ candidate edges.
    cands: Vec<Edge>,
    /// Cover masks and enumeration buffer of the connector-cover walk.
    cover: CoverScratch,
    /// Child fragments of the current candidate, drained into the
    /// returned fragment on acceptance.
    children: Vec<Fragment>,
    /// Growth events of the other buffers (the BFS and walk scratches
    /// meter their own).
    grow: u64,
}

impl DetkLevel {
    fn grow_events(&self) -> u64 {
        self.bfs.grow_events + self.cover.grow_events + self.grow
    }
}

/// Warm per-level scratch stack for [`DetKDecomp`] — an instantiation of
/// the generic [`LevelStack`] take/put discipline — reusable across
/// engine instances: the hybrid driver of `log-k-decomp` pools these so
/// its (very frequent) det-k handoffs stop allocating fresh buffers per
/// call — move one in with [`DetKDecomp::with_scratch`] and recover it
/// with [`DetKDecomp::take_scratch`] when the engine retires.
#[derive(Default)]
pub struct DetkScratch {
    levels: LevelStack<DetkLevel>,
}

impl DetkScratch {
    /// Creates an empty (cold) scratch stack.
    pub fn new() -> Self {
        Self::default()
    }

    fn take(&mut self, depth: usize) -> DetkLevel {
        self.levels.take_or_default(depth)
    }

    fn put(&mut self, depth: usize, lvl: DetkLevel) {
        self.levels.put(depth, lvl);
    }

    /// Total buffer growth events across all levels — constant once the
    /// stack is warm (the steady-state zero-allocation meter).
    pub fn grow_events(&self) -> u64 {
        self.levels.warm().map(DetkLevel::grow_events).sum()
    }
}

/// The engine's memo table: owned by this engine, or borrowed from the
/// hybrid driver that shares one table across every handoff. The owned
/// table is built on first use, so engines that are immediately handed a
/// shared table (one per hybrid handoff!) never pay for shard
/// construction they will throw away.
enum MemoHandle<'a> {
    Owned {
        cell: OnceCell<Box<SharedMemo>>,
        k: usize,
        cap: usize,
    },
    Shared(&'a SharedMemo),
}

impl MemoHandle<'_> {
    fn get(&self) -> &SharedMemo {
        match self {
            MemoHandle::Owned { cell, k, cap } => {
                cell.get_or_init(|| Box::new(SharedMemo::new(*k, *cap)))
            }
            MemoHandle::Shared(m) => m,
        }
    }
}

/// Reusable `det-k-decomp` engine over a [`SharedMemo`].
///
/// The engine borrows the hypergraph and control; the special-edge arena is
/// passed per call so that `log-k-decomp`'s hybrid driver can hand over
/// subproblems referencing its own arena.
pub struct DetKDecomp<'h> {
    hg: &'h Hypergraph,
    k: usize,
    ctrl: &'h Control,
    memo: MemoHandle<'h>,
    /// Per-level scratch buffers; either fresh or moved in warm by the
    /// hybrid driver ([`Self::with_scratch`]).
    scratch: DetkScratch,
    /// Current recursion depth (diagnostics).
    depth: usize,
    /// Deepest recursion reached — Θ(|E|) on chains, in contrast to
    /// log-k-decomp's logarithmic bound (the paper's core argument).
    max_depth: usize,
}

type Found<T> = ControlFlow<Result<T, Interrupted>>;

impl<'h> DetKDecomp<'h> {
    /// Default soft cap on memoised subproblems.
    pub const DEFAULT_CACHE_CAP: usize = 1 << 20;

    /// Creates an engine for width bound `k` with its own (lazily built)
    /// memo table.
    pub fn new(hg: &'h Hypergraph, k: usize, ctrl: &'h Control) -> Self {
        assert!(k >= 1, "width parameter k must be at least 1");
        DetKDecomp {
            hg,
            k,
            ctrl,
            memo: MemoHandle::Owned {
                cell: OnceCell::new(),
                k,
                cap: Self::DEFAULT_CACHE_CAP,
            },
            scratch: DetkScratch::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    /// Replaces the memo-table entry cap of an engine-owned table.
    /// No-op when the table is shared — the sharer configured its cap.
    pub fn with_cache_cap(mut self, cap: usize) -> Self {
        if matches!(self.memo, MemoHandle::Owned { .. }) {
            self.memo = MemoHandle::Owned {
                cell: OnceCell::new(),
                k: self.k,
                cap,
            };
        }
        self
    }

    /// Replaces the engine-owned memo table with one shared by the caller
    /// — `log-k-decomp`'s hybrid driver threads a single lock-striped
    /// table through every handoff and rayon branch this way.
    ///
    /// # Panics
    ///
    /// If the table was created for a different width bound: its verdicts
    /// ("refuted at k", "witness of width ≤ k") are meaningless at any
    /// other `k`, so sharing across bounds would be unsound.
    pub fn with_shared_memo<'m>(self, memo: &'m SharedMemo) -> DetKDecomp<'m>
    where
        'h: 'm,
    {
        assert_eq!(
            memo.k(),
            self.k,
            "a SharedMemo stores verdicts relative to one width bound"
        );
        DetKDecomp {
            hg: self.hg,
            k: self.k,
            ctrl: self.ctrl,
            memo: MemoHandle::Shared(memo),
            scratch: self.scratch,
            depth: self.depth,
            max_depth: self.max_depth,
        }
    }

    /// Moves a (typically warm) scratch stack into the engine, so this
    /// instance starts with the previous instance's buffers instead of
    /// allocating its own — the hybrid driver pools stacks across its
    /// det-k handoffs this way.
    pub fn with_scratch(mut self, scratch: DetkScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Recovers the scratch stack (leaving this engine a cold one), so
    /// the caller can pool it for the next engine instance.
    pub fn take_scratch(&mut self) -> DetkScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Total scratch buffer growth events so far (constant in the steady
    /// state).
    pub fn scratch_grow_events(&self) -> u64 {
        self.scratch.grow_events()
    }

    /// Number of memoised subproblems (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.memo.get().len()
    }

    /// The configured memo-table entry cap (diagnostics).
    pub fn cache_cap(&self) -> usize {
        self.memo.get().cap()
    }

    /// Deepest recursion level reached so far (diagnostics; the paper's
    /// motivation for log-k-decomp is that this is linear for det-k).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Decomposes the extended subhypergraph `(sub, conn)`, returning an
    /// HD-fragment of width ≤ k or `None` if none exists.
    pub fn decompose(
        &mut self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
    ) -> Result<Option<Fragment>, Interrupted> {
        decomp::faults::hit_ctrl("detk/decomp", self.ctrl);
        self.ctrl.checkpoint()?;
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        let result = self.decompose_inner(arena, sub, conn);
        self.depth -= 1;
        result
    }

    fn decompose_inner(
        &mut self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
    ) -> Result<Option<Fragment>, Interrupted> {
        // Base cases (shared with log-k-decomp).
        if sub.edges.len() <= self.k && sub.specials.is_empty() {
            let lambda: Vec<Edge> = sub.edges.iter().collect();
            let chi = self.hg.union_of(&sub.edges);
            return Ok(Some(Fragment::leaf(lambda, chi)));
        }
        if sub.edges.is_empty() && sub.specials.len() == 1 {
            let s = sub.specials[0];
            return Ok(Some(Fragment::special_leaf(s, arena.get(s).clone())));
        }
        if sub.edges.is_empty() && sub.specials.len() > 1 {
            // Only "old" edges could separate the remaining specials, which
            // the normal form forbids (no progress).
            return Ok(None);
        }

        // Borrowed-key probe: no owned key is built unless the result is
        // actually memoised.
        let hash = match self.memo.get().probe(arena, sub, conn) {
            MemoProbe::Hit(result) => return Ok(result),
            MemoProbe::Miss(h) => h,
        };

        let result = self.search(arena, sub, conn)?;
        self.memo.get().insert(hash, arena, sub, conn, &result);
        Ok(result)
    }

    fn search(
        &mut self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
    ) -> Result<Option<Fragment>, Interrupted> {
        // Take this level's buffers out of the stack so the recursion
        // below (which draws depth + 1) can borrow the stack freely.
        let depth = self.depth;
        let mut lvl = self.scratch.take(depth);
        let result = self.search_in(arena, sub, conn, &mut lvl);
        self.scratch.put(depth, lvl);
        result
    }

    fn search_in(
        &mut self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        lvl: &mut DetkLevel,
    ) -> Result<Option<Fragment>, Interrupted> {
        let DetkLevel {
            bfs,
            seps,
            vsub,
            union,
            chi,
            conn_c,
            cands,
            cover,
            children,
            grow,
        } = lvl;
        *grow += sub.vertices_into(self.hg, arena, vsub) as u64;
        // Candidate λ-edges: only edges touching the component can change
        // χ(u) = ⋃λ ∩ V(C) or cover Conn ⊆ V(C); others are redundant.
        let cands_cap = cands.capacity();
        cands.clear();
        cands.extend(
            self.hg
                .edge_ids()
                .filter(|&e| self.hg.edge(e).intersects(vsub)),
        );
        *grow += (cands.capacity() > cands_cap) as u64;

        // λ is drawn only from labels that cover the connector; the
        // walk skips the rest without building their unions.
        let children_cap = children.capacity();
        let found =
            for_each_cover_subset_in(self.hg, cands, conn, self.k, cover, |step| match step {
                CoverStep::Lead => match self.ctrl.checkpoint() {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(e) => ControlFlow::Break(Err(e)),
                },
                CoverStep::Visit(lambda) => self.try_label(
                    arena, sub, conn, vsub, lambda, bfs, seps, union, chi, conn_c, children, grow,
                ),
            });
        *grow += (children.capacity() > children_cap) as u64;
        match found {
            Some(Ok(f)) => Ok(Some(f)),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }

    /// One λ-label candidate. A *rejected* candidate — the common case —
    /// runs entirely inside the level's scratch buffers: no allocation.
    #[allow(clippy::too_many_arguments)]
    fn try_label(
        &mut self,
        arena: &SpecialArena,
        sub: &Subproblem,
        conn: &VertexSet,
        vsub: &VertexSet,
        lambda: &[Edge],
        bfs: &mut Scratch,
        seps: &mut Separation,
        union: &mut VertexSet,
        chi: &mut VertexSet,
        conn_c: &mut VertexSet,
        children: &mut Vec<Fragment>,
        grow: &mut u64,
    ) -> Found<Fragment> {
        if let Err(e) = self.ctrl.checkpoint() {
            return ControlFlow::Break(Err(e));
        }
        // Progress (normal form, Def. 3.5(2)): λ must pick up an edge of
        // the component itself.
        if !lambda.iter().any(|e| sub.edges.contains(*e)) {
            return ControlFlow::Continue(());
        }
        *grow += self.hg.union_of_slice_into(lambda, union) as u64;
        // Connectedness: Conn ⊆ χ(u); since Conn ⊆ V(C) this reduces to
        // Conn ⊆ ⋃λ, which the connector-cover walk guarantees.
        debug_assert!(conn.is_subset_of(union));
        // Minimal bag (Def. 3.5(3)), one fused pass.
        *grow += chi.assign_and(union, vsub) as u64;

        separate_into(self.hg, arena, sub, chi, bfs, seps);
        children.clear();
        for comp in &seps.components {
            // Conn_C = V(C) ∩ χ(u); the recursion draws its own buffers
            // from the next level of the stack.
            *grow += conn_c.assign_and(&comp.vertices, chi) as u64;
            match self.decompose(arena, comp.as_subproblem(), conn_c) {
                Ok(Some(f)) => children.push(f),
                Ok(None) => return ControlFlow::Continue(()),
                Err(e) => return ControlFlow::Break(Err(e)),
            }
        }

        let mut frag = Fragment::leaf(lambda.to_vec(), chi.clone());
        for f in children.drain(..) {
            frag.attach_under(0, f);
        }
        // Specials fully inside χ(u) still need their dedicated leaves.
        for &s in &seps.covered_specials {
            frag.attach_under(0, Fragment::special_leaf(s, arena.get(s).clone()));
        }
        ControlFlow::Break(Ok(frag))
    }
}

/// Decides `hw(H) ≤ k` and materialises a witness HD (whole hypergraph).
pub fn decompose_detk(hg: &Hypergraph, k: usize, ctrl: &Control) -> SolveResult {
    if hg.num_edges() == 0 {
        return Ok(Some(Decomposition::singleton(vec![], hg.vertex_set())));
    }
    let arena = SpecialArena::new();
    let mut engine = DetKDecomp::new(hg, k, ctrl);
    let sub = Subproblem::whole(hg);
    match engine.decompose(&arena, &sub, &hg.vertex_set())? {
        Some(frag) => {
            let d = frag
                .into_decomposition()
                .expect("whole-graph fragments have no special leaves");
            Ok(Some(d))
        }
        None => Ok(None),
    }
}

/// Decision-only variant of [`decompose_detk`].
pub fn decide_detk(hg: &Hypergraph, k: usize, ctrl: &Control) -> Result<bool, Interrupted> {
    Ok(decompose_detk(hg, k, ctrl)?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate_hd_width;

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    fn clique(q: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..q)
            .flat_map(|a| (a + 1..q).map(move |b| vec![a, b]))
            .collect();
        Hypergraph::from_edge_lists(&edges)
    }

    #[test]
    fn clique8_width_four() {
        // hw(K_q) = ⌈q/2⌉: a refutation that walks the whole pruned space
        // and a witness whose bags must cover every connector.
        let hg = clique(8);
        let ctrl = Control::unlimited();
        assert!(decompose_detk(&hg, 3, &ctrl).unwrap().is_none());
        let d = decompose_detk(&hg, 4, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 4).unwrap();
    }

    #[test]
    fn acyclic_instances_width_one() {
        let path = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let ctrl = Control::unlimited();
        let d = decompose_detk(&path, 1, &ctrl).unwrap().unwrap();
        validate_hd_width(&path, &d, 1).unwrap();

        let star = Hypergraph::from_edge_lists(&[vec![0, 1], vec![0, 2], vec![0, 3]]);
        let d = decompose_detk(&star, 1, &ctrl).unwrap().unwrap();
        validate_hd_width(&star, &d, 1).unwrap();
    }

    #[test]
    fn cycle10_width_two() {
        let hg = cycle(10);
        let ctrl = Control::unlimited();
        assert!(decompose_detk(&hg, 1, &ctrl).unwrap().is_none());
        let d = decompose_detk(&hg, 2, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 2).unwrap();
    }

    #[test]
    fn larger_cycle_width_two() {
        let hg = cycle(20);
        let ctrl = Control::unlimited();
        let d = decompose_detk(&hg, 2, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 2).unwrap();
    }

    #[test]
    fn cache_is_exercised() {
        let hg = cycle(12);
        let ctrl = Control::unlimited();
        let arena = SpecialArena::new();
        let mut engine = DetKDecomp::new(&hg, 2, &ctrl);
        let sub = Subproblem::whole(&hg);
        let f = engine.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        assert!(f.is_some());
        assert!(engine.cache_len() > 0);
    }

    #[test]
    fn extended_subproblem_with_special_edge() {
        // Decompose a path fragment whose interface to the rest is a
        // special edge; detk must give it a dedicated leaf.
        let hg = cycle(10);
        let ctrl = Control::unlimited();
        let mut arena = SpecialArena::new();
        let n = hg.num_vertices();
        let s = arena.push(VertexSet::from_iter(
            n,
            [
                hypergraph::Vertex(0),
                hypergraph::Vertex(5),
                hypergraph::Vertex(6),
            ],
        ));
        let mut sub = Subproblem::empty(&hg);
        for e in [2u32, 3, 4] {
            sub.edges.insert(Edge(e));
        }
        sub.specials.push(s);
        let conn = VertexSet::from_iter(n, [hypergraph::Vertex(0), hypergraph::Vertex(2)]);
        let mut engine = DetKDecomp::new(&hg, 2, &ctrl);
        let frag = engine.decompose(&arena, &sub, &conn).unwrap().unwrap();
        decomp::validate_extended_hd(&hg, &arena, &sub, &conn, &frag).unwrap();
    }

    #[test]
    fn two_specials_no_edges_is_negative() {
        let hg = cycle(6);
        let ctrl = Control::unlimited();
        let mut arena = SpecialArena::new();
        let n = hg.num_vertices();
        let s1 = arena.push(VertexSet::from_iter(n, [hypergraph::Vertex(0)]));
        let s2 = arena.push(VertexSet::from_iter(n, [hypergraph::Vertex(3)]));
        let mut sub = Subproblem::empty(&hg);
        sub.specials = vec![s1, s2];
        let mut engine = DetKDecomp::new(&hg, 2, &ctrl);
        let r = engine.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn shared_memo_carries_results_across_engines() {
        // Two engine instances over one SharedMemo — the shape of the
        // hybrid driver's repeated handoffs. The second engine must answer
        // from the table built by the first.
        let hg = cycle(12);
        let ctrl = Control::unlimited();
        let memo = SharedMemo::new(2, 1 << 16);
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);

        let mut first = DetKDecomp::new(&hg, 2, &ctrl).with_shared_memo(&memo);
        let f = first.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        assert!(f.is_some());
        let after_first = memo.snapshot();
        assert!(after_first.inserts > 0);

        let mut second = DetKDecomp::new(&hg, 2, &ctrl).with_shared_memo(&memo);
        let g = second.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        assert!(g.is_some());
        let after_second = memo.snapshot();
        assert!(
            after_second.hits > after_first.hits,
            "second engine must reuse the shared table"
        );
        // The top-level answer itself is served from the memo: no new
        // entries were needed.
        assert_eq!(after_second.inserts, after_first.inserts);
    }

    #[test]
    fn scratch_reaches_steady_state_and_survives_handoffs() {
        // First solve warms the buffers; a second engine instance fed the
        // same stack (the hybrid-handoff shape) must not regrow any.
        let hg = cycle(14);
        let ctrl = Control::unlimited();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);

        let mut first = DetKDecomp::new(&hg, 2, &ctrl);
        first.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        let warm_events = first.scratch_grow_events();
        assert!(warm_events > 0, "cold buffers must have grown");
        let scratch = first.take_scratch();

        let mut second = DetKDecomp::new(&hg, 2, &ctrl).with_scratch(scratch);
        let f = second.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        assert!(f.is_some());
        assert_eq!(
            second.scratch_grow_events(),
            warm_events,
            "a warm scratch stack must not allocate on reuse"
        );
    }

    #[test]
    fn take_scratch_leaves_a_cold_stack() {
        let hg = cycle(10);
        let ctrl = Control::unlimited();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let mut engine = DetKDecomp::new(&hg, 2, &ctrl);
        engine.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        let warm = engine.take_scratch();
        assert!(warm.grow_events() > 0);
        assert_eq!(engine.scratch_grow_events(), 0, "engine keeps a cold stack");
        // The engine still works after losing its warm buffers.
        let f = engine.decompose(&arena, &sub, &hg.vertex_set()).unwrap();
        assert!(f.is_some());
    }

    #[test]
    fn timeout_propagates() {
        let hg = cycle(30);
        let ctrl = Control::with_timeout(std::time::Duration::from_millis(0));
        let r = decompose_detk(&hg, 3, &ctrl);
        assert!(matches!(r, Err(Interrupted::Timeout)));
    }
}
