//! `[U]`-components of extended subhypergraphs (Definition 3.2).
//!
//! Two (possibly special) edges `f1, f2` are `[U]`-adjacent if
//! `(f1 ∩ f2) \ U ≠ ∅`; `[U]`-connectedness is the transitive closure and
//! a `[U]`-component is a maximal `[U]`-connected subset of `E' ∪ Sp`.
//!
//! The computation is a BFS over vertices outside `U`, using the
//! hypergraph's incidence index for real edges and direct intersection
//! tests for the (few) special edges.
//!
//! Component splitting runs once per candidate separator — it is *the*
//! inner loop of every solver in the workspace. [`separate_into`] therefore
//! writes into caller-owned buffers ([`Scratch`] + a reused
//! [`Separation`]), performing no heap allocation in the steady state;
//! [`separate`] is the allocating convenience wrapper.

use crate::bitset::{EdgeSet, VertexSet};
use crate::extended::{SpecialArena, SpecialId, Subproblem};
use crate::graph::Hypergraph;

/// One `[U]`-component of an extended subhypergraph.
#[derive(Clone, Debug)]
pub struct Component {
    /// Members of the component — real edges and special edges — in the
    /// exact shape the recursion consumes, so recursing on a component
    /// borrows it instead of cloning.
    pub sub: Subproblem,
    /// `V(component)`: union of all member vertex sets (including vertices
    /// that lie inside the separator `U`).
    pub vertices: VertexSet,
}

impl Component {
    /// Real edges in the component.
    #[inline]
    pub fn edges(&self) -> &EdgeSet {
        &self.sub.edges
    }

    /// Special edges in the component.
    #[inline]
    pub fn specials(&self) -> &[SpecialId] {
        &self.sub.specials
    }

    /// `|edges| + |specials|` — the size measure of balancedness checks.
    #[inline]
    pub fn size(&self) -> usize {
        self.sub.size()
    }

    /// The component's members as a borrowed [`Subproblem`].
    #[inline]
    pub fn as_subproblem(&self) -> &Subproblem {
        &self.sub
    }
}

/// Result of splitting a subproblem at a separator `U`.
#[derive(Clone, Debug, Default)]
pub struct Separation {
    /// The `[U]`-components, in deterministic (seed-order) order.
    pub components: Vec<Component>,
    /// Real edges `f` with `f ⊆ U`: they belong to no component.
    pub covered_edges: EdgeSet,
    /// Special edges `s` with `s ⊆ U`.
    pub covered_specials: Vec<SpecialId>,
}

impl Separation {
    /// An empty separation; sized on first use by [`separate_into`].
    pub fn new() -> Self {
        Separation {
            components: Vec::new(),
            covered_edges: EdgeSet::empty(0),
            covered_specials: Vec::new(),
        }
    }

    /// Index of the unique component with `size > half`, if any.
    ///
    /// At most one component can exceed half of the subproblem size, since
    /// components are disjoint.
    pub fn oversized_component(&self, subproblem_size: usize) -> Option<usize> {
        self.components
            .iter()
            .position(|c| 2 * c.size() > subproblem_size)
    }
}

/// Reusable buffers for [`separate_into`] — the scratch workspace that
/// keeps component splitting allocation-free across calls.
///
/// A `Scratch` is cheap to create empty; every buffer is sized lazily on
/// first use and reused afterwards. One `Scratch` serves one thread (or
/// one recursion level): calls may not overlap.
#[derive(Debug, Default)]
pub struct Scratch {
    remaining_edges: EdgeSet,
    visited: VertexSet,
    frontier: VertexSet,
    next: VertexSet,
    remaining_specials: Vec<SpecialId>,
    special_alive: Vec<bool>,
    /// Retired [`Component`] slots recycled across calls.
    pool: Vec<Component>,
    /// Number of buffer growth events (allocations) since creation.
    /// Constant once the scratch reaches steady state — asserted by tests
    /// and tracked by the engine's allocation counters.
    pub grow_events: u64,
}

impl Scratch {
    /// Creates an empty scratch workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn recycled_component(&mut self, hg: &Hypergraph) -> Component {
        let mut c = self.pool.pop().unwrap_or_else(|| {
            self.grow_events += 1;
            Component {
                sub: Subproblem {
                    edges: EdgeSet::empty(0),
                    specials: Vec::new(),
                },
                vertices: VertexSet::empty(0),
            }
        });
        // Count regrowth too: a pooled slot warmed on a smaller hypergraph
        // still reallocates when reused on a larger one. Each buffer is
        // metered individually so two growths report as two events.
        self.grow_events += c.sub.edges.reset(hg.num_edges()) as u64;
        self.grow_events += c.vertices.reset(hg.num_vertices()) as u64;
        c.sub.specials.clear();
        c
    }
}

/// Computes the `[U]`-components of `sub` with separator vertex set `sep`.
///
/// Allocating convenience wrapper around [`separate_into`]; solvers' hot
/// loops should hold a [`Scratch`] and a [`Separation`] and call
/// [`separate_into`] directly.
pub fn separate(
    hg: &Hypergraph,
    arena: &SpecialArena,
    sub: &Subproblem,
    sep: &VertexSet,
) -> Separation {
    let mut scratch = Scratch::new();
    let mut out = Separation::new();
    separate_into(hg, arena, sub, sep, &mut scratch, &mut out);
    out
}

/// Computes the `[U]`-components of `sub` with separator vertex set `sep`,
/// writing the result into `out` and drawing all temporary storage from
/// `scratch`. Performs no heap allocation once both are warm.
pub fn separate_into(
    hg: &Hypergraph,
    arena: &SpecialArena,
    sub: &Subproblem,
    sep: &VertexSet,
    scratch: &mut Scratch,
    out: &mut Separation,
) {
    // Recycle the previous result's component slots.
    scratch.pool.append(&mut out.components);
    scratch.grow_events += out.covered_edges.reset(hg.num_edges()) as u64;
    out.covered_specials.clear();

    // Per-buffer metering: four growing buffers report four events, not
    // one OR-ed event — the meter's resolution matches the allocator's.
    scratch.grow_events += scratch.remaining_edges.reset(hg.num_edges()) as u64;
    scratch.grow_events += scratch.visited.reset(hg.num_vertices()) as u64;
    scratch.grow_events += scratch.frontier.reset(hg.num_vertices()) as u64;
    scratch.grow_events += scratch.next.reset(hg.num_vertices()) as u64;
    scratch.remaining_edges.union_with(&sub.edges);
    scratch.remaining_specials.clear();
    scratch.special_alive.clear();

    // Members fully inside U are "covered": they participate in no component.
    for e in &sub.edges {
        if hg.edge(e).is_subset_of(sep) {
            out.covered_edges.insert(e);
            scratch.remaining_edges.remove(e);
        }
    }
    for &s in &sub.specials {
        if arena.get(s).is_subset_of(sep) {
            out.covered_specials.push(s);
        } else {
            scratch.remaining_specials.push(s);
            scratch.special_alive.push(true);
        }
    }
    let mut alive_specials = scratch.remaining_specials.len();

    loop {
        // Seed: first remaining edge, else first remaining special.
        let mut comp = scratch.recycled_component(hg);
        scratch.frontier.clear();

        if let Some(e) = scratch.remaining_edges.first() {
            scratch.remaining_edges.remove(e);
            comp.sub.edges.insert(e);
            comp.vertices.union_with(hg.edge(e));
            scratch.frontier.union_with(hg.edge(e));
        } else if alive_specials > 0 {
            let idx = scratch
                .special_alive
                .iter()
                .position(|&a| a)
                .expect("counted above");
            scratch.special_alive[idx] = false;
            alive_specials -= 1;
            let s = scratch.remaining_specials[idx];
            comp.sub.specials.push(s);
            comp.vertices.union_with(arena.get(s));
            scratch.frontier.union_with(arena.get(s));
        } else {
            scratch.pool.push(comp);
            break;
        }
        scratch.frontier.difference_with(sep);

        scratch.visited.clear();
        while !scratch.frontier.is_empty() {
            scratch.visited.union_with(&scratch.frontier);
            scratch.next.clear();
            for v in &scratch.frontier {
                // Fused `incident(v) ∩ remaining` walk: one word snapshot
                // per block, no materialised intersection set. Removing a
                // hit from `remaining` only clears bits of the snapshot
                // already taken, so the walk stays exact.
                let incident = hg.incident_edges(v);
                for w in 0..incident.num_blocks() {
                    let mut bits = incident.block(w) & scratch.remaining_edges.block(w);
                    while bits != 0 {
                        let e =
                            crate::bitset::Edge((w * 64 + bits.trailing_zeros() as usize) as u32);
                        bits &= bits - 1;
                        scratch.remaining_edges.remove(e);
                        comp.sub.edges.insert(e);
                        VertexSet::union_into_both(
                            &mut comp.vertices,
                            &mut scratch.next,
                            hg.edge(e),
                        );
                    }
                }
            }
            if alive_specials > 0 {
                for (idx, alive) in scratch.special_alive.iter_mut().enumerate() {
                    let s = scratch.remaining_specials[idx];
                    if *alive && arena.get(s).intersects(&scratch.frontier) {
                        *alive = false;
                        alive_specials -= 1;
                        comp.sub.specials.push(s);
                        VertexSet::union_into_both(
                            &mut comp.vertices,
                            &mut scratch.next,
                            arena.get(s),
                        );
                    }
                }
            }
            scratch.next.difference_with(sep);
            scratch.next.difference_with(&scratch.visited);
            std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        }

        comp.sub.specials.sort_unstable();
        out.components.push(comp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::{Edge, Vertex};

    fn path5() -> Hypergraph {
        // e0={0,1}, e1={1,2}, e2={2,3}, e3={3,4}
        Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]])
    }

    fn vset(hg: &Hypergraph, vs: &[u32]) -> VertexSet {
        VertexSet::from_iter(hg.num_vertices(), vs.iter().map(|&v| Vertex(v)))
    }

    #[test]
    fn empty_separator_single_component() {
        let hg = path5();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let sep = hg.vertex_set();
        let s = separate(&hg, &arena, &sub, &sep);
        assert_eq!(s.components.len(), 1);
        assert_eq!(s.components[0].size(), 4);
        assert!(s.covered_edges.is_empty());
    }

    #[test]
    fn middle_vertex_splits_path() {
        let hg = path5();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let sep = vset(&hg, &[2]);
        let s = separate(&hg, &arena, &sub, &sep);
        assert_eq!(s.components.len(), 2);
        let sizes: Vec<usize> = s.components.iter().map(|c| c.size()).collect();
        assert_eq!(sizes, vec![2, 2]);
        // V(comp) includes separator vertices that members touch.
        assert!(s.components[0].vertices.contains(Vertex(2)));
    }

    #[test]
    fn covered_edges_belong_to_no_component() {
        let hg = path5();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let sep = vset(&hg, &[1, 2]);
        let s = separate(&hg, &arena, &sub, &sep);
        // e1={1,2} ⊆ U is covered.
        assert!(s.covered_edges.contains(Edge(1)));
        assert_eq!(s.components.len(), 2);
        let total: usize = s.components.iter().map(|c| c.size()).sum();
        assert_eq!(total + s.covered_edges.len(), 4);
    }

    #[test]
    fn specials_join_components() {
        let hg = path5();
        let mut arena = SpecialArena::new();
        // A special edge bridging vertices 0 and 4 merges both path halves
        // even across the separator at vertex 2.
        let s_bridge = arena.push(vset(&hg, &[0, 4]));
        let mut sub = Subproblem::whole(&hg);
        sub.specials.push(s_bridge);
        let sep = vset(&hg, &[2]);
        let s = separate(&hg, &arena, &sub, &sep);
        assert_eq!(s.components.len(), 1);
        assert_eq!(s.components[0].size(), 5);
        assert_eq!(s.components[0].specials(), vec![s_bridge]);
    }

    #[test]
    fn covered_special_is_reported() {
        let hg = path5();
        let mut arena = SpecialArena::new();
        let s_cov = arena.push(vset(&hg, &[2, 3]));
        let mut sub = Subproblem::whole(&hg);
        sub.specials.push(s_cov);
        let sep = vset(&hg, &[2, 3]);
        let s = separate(&hg, &arena, &sub, &sep);
        assert_eq!(s.covered_specials, vec![s_cov]);
        assert!(s.components.iter().all(|c| c.specials().is_empty()));
    }

    #[test]
    fn oversized_component_detection() {
        let hg = path5();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        // Separator at vertex 1: components {e0} and {e1,e2,e3}.
        let s = separate(&hg, &arena, &sub, &vset(&hg, &[1]));
        assert_eq!(s.components.len(), 2);
        let over = s.oversized_component(sub.size());
        assert!(over.is_some());
        assert_eq!(s.components[over.unwrap()].size(), 3);
        // Separator at vertex 2: both components have size 2 = |H'|/2.
        let s2 = separate(&hg, &arena, &sub, &vset(&hg, &[2]));
        assert!(s2.oversized_component(sub.size()).is_none());
    }

    #[test]
    fn separation_is_a_partition() {
        let hg = Hypergraph::from_edge_lists(&[
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![5, 6],
            vec![7, 8],
            vec![1, 7],
        ]);
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let sep = vset(&hg, &[2, 7]);
        let s = separate(&hg, &arena, &sub, &sep);
        let mut seen = hg.edge_set();
        for c in &s.components {
            assert!(seen.is_disjoint_from(c.edges()), "components overlap");
            seen.union_with(c.edges());
        }
        seen.union_with(&s.covered_edges);
        assert_eq!(seen, sub.edges);
    }

    #[test]
    fn separate_into_matches_separate_and_stops_allocating() {
        let hg = Hypergraph::from_edge_lists(&[
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![5, 6],
            vec![7, 8],
            vec![1, 7],
        ]);
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let mut scratch = Scratch::new();
        let mut out = Separation::new();
        let seps: Vec<VertexSet> = (0..hg.num_vertices() as u32)
            .map(|v| vset(&hg, &[v, (v + 2) % hg.num_vertices() as u32]))
            .collect();

        // Warm-up pass sizes every buffer.
        for sep in &seps {
            separate_into(&hg, &arena, &sub, sep, &mut scratch, &mut out);
        }
        let warm = scratch.grow_events;

        for sep in &seps {
            separate_into(&hg, &arena, &sub, sep, &mut scratch, &mut out);
            let reference = separate(&hg, &arena, &sub, sep);
            assert_eq!(out.components.len(), reference.components.len());
            for (a, b) in out.components.iter().zip(&reference.components) {
                assert_eq!(a.sub, b.sub);
                assert_eq!(a.vertices, b.vertices);
            }
            assert_eq!(out.covered_edges, reference.covered_edges);
            assert_eq!(out.covered_specials, reference.covered_specials);
        }
        assert_eq!(
            scratch.grow_events, warm,
            "steady-state separate_into must not allocate"
        );
    }

    #[test]
    fn separate_into_reuses_component_slots() {
        let hg = path5();
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let mut scratch = Scratch::new();
        let mut out = Separation::new();
        separate_into(&hg, &arena, &sub, &vset(&hg, &[2]), &mut scratch, &mut out);
        assert_eq!(out.components.len(), 2);
        separate_into(
            &hg,
            &arena,
            &sub,
            &vset(&hg, &[1, 3]),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.components.len(), 3);
        separate_into(&hg, &arena, &sub, &hg.vertex_set(), &mut scratch, &mut out);
        assert_eq!(out.components.len(), 1);
        assert_eq!(out.components[0].size(), 4);
    }
}
