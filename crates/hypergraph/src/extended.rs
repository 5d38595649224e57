//! Extended subhypergraphs (Definition 3.1 of the paper).
//!
//! An extended subhypergraph `⟨E', Sp, Conn⟩` carries, beyond a plain edge
//! subset `E'`, a set of *special edges* `Sp` (vertex sets acting as
//! interfaces to HD fragments constructed elsewhere) and a connector set
//! `Conn` (the interface to the fragment above).
//!
//! Special edges are created dynamically during the recursion (every
//! `χ(c)` of a chosen child node becomes one). Two distinct special edges
//! may have equal vertex sets — identity matters when stitching fragments —
//! so they live in a per-solve [`SpecialArena`] and are referenced by id.

use std::sync::Arc;

use crate::bitset::{EdgeSet, VertexSet};
use crate::graph::Hypergraph;

/// Identifier of a special edge within a [`SpecialArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpecialId(pub u32);

/// Append-only store of special-edge vertex sets for one solver run.
///
/// Internally the arena is a two-part rope: an immutable, `Arc`-shared
/// *prefix* and an owned *tail*. [`Self::seal`] folds the tail into the
/// prefix, after which [`Clone`] is a reference-count bump plus an empty
/// tail — this is what lets the parallel λc race hand every branch its own
/// arena "checkpoint" without deep-copying the shared entries. Branches
/// only ever push/truncate above the sealed prefix, so the sharing is
/// invisible through the `push`/`get`/`truncate` API.
#[derive(Clone, Debug)]
pub struct SpecialArena {
    /// Shared, immutable storage for ids `0..prefix_live`.
    prefix: Arc<Vec<VertexSet>>,
    /// Logical length of the prefix part. Entries `prefix_live..` of
    /// `prefix` are dead (truncated below a seal point) and unreachable.
    prefix_live: usize,
    /// Owned storage for ids `prefix_live..len()`.
    tail: Vec<VertexSet>,
}

impl Default for SpecialArena {
    fn default() -> Self {
        SpecialArena {
            prefix: Arc::new(Vec::new()),
            prefix_live: 0,
            tail: Vec::new(),
        }
    }
}

impl SpecialArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new special edge with the given vertex set.
    pub fn push(&mut self, set: VertexSet) -> SpecialId {
        let id = SpecialId(self.len() as u32);
        self.tail.push(set);
        id
    }

    /// The vertex set of a special edge.
    #[inline]
    pub fn get(&self, id: SpecialId) -> &VertexSet {
        let idx = id.0 as usize;
        if idx < self.prefix_live {
            &self.prefix[idx]
        } else {
            &self.tail[idx - self.prefix_live]
        }
    }

    /// Number of special edges registered.
    pub fn len(&self) -> usize {
        self.prefix_live + self.tail.len()
    }

    /// Rolls the arena back to `len` entries.
    ///
    /// Solvers use stack discipline: special edges pushed during a failed
    /// (or fully stitched) search branch are popped again, which keeps the
    /// arena small and makes per-branch clones cheap. Callers must ensure
    /// no live fragment references a truncated id.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.len());
        if len >= self.prefix_live {
            self.tail.truncate(len - self.prefix_live);
        } else {
            self.tail.clear();
            self.prefix_live = len;
            // Shrinking into the prefix: when we are the sole owner the dead
            // entries can be released right away. With sharers alive the
            // cut-off stays logical — the dead prefix entries remain
            // allocated until the last sharer drops the `Arc` (or until a
            // later sole-owner `truncate`/`seal` compacts them). Subsequent
            // pushes land in the tail either way.
            if let Some(owned) = Arc::get_mut(&mut self.prefix) {
                owned.truncate(len);
            }
        }
    }

    /// Entries physically allocated in the shared prefix, dead or alive.
    ///
    /// Diagnostics for the truncate-into-shared-prefix path: entries
    /// between [`len()`](Self::len) and this value are logically dead but
    /// still allocated because another sharer pins the `Arc`.
    pub fn prefix_allocated(&self) -> usize {
        self.prefix.len()
    }

    /// Folds the owned tail into the shared prefix, so that subsequent
    /// [`Clone`]s are O(1) in the entry contents (an `Arc` bump).
    ///
    /// When this arena is the sole owner of its prefix the fold moves the
    /// tail without copying any vertex set; otherwise the live prefix is
    /// copied once — still at most the cost a single pre-overlay
    /// `SpecialArena::clone()` used to pay, amortised over *all* branches
    /// of the race instead of paid per branch.
    pub fn seal(&mut self) {
        if self.tail.is_empty() && self.prefix_live == self.prefix.len() {
            return;
        }
        match Arc::get_mut(&mut self.prefix) {
            Some(owned) => {
                owned.truncate(self.prefix_live);
                owned.append(&mut self.tail);
            }
            None => {
                let mut merged: Vec<VertexSet> =
                    Vec::with_capacity(self.prefix_live + self.tail.len());
                merged.extend_from_slice(&self.prefix[..self.prefix_live]);
                merged.append(&mut self.tail);
                self.prefix = Arc::new(merged);
            }
        }
        self.prefix_live = self.prefix.len();
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `(E', Sp)` part of an extended subhypergraph — the paper's `Comp`
/// record in Algorithm 1/2. `Conn` travels separately because it changes
/// between recursive calls while `(E', Sp)` is what gets partitioned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Subproblem {
    /// `E'` — subset of the edges of the base hypergraph.
    pub edges: EdgeSet,
    /// `Sp` — special edges by arena id, kept sorted for canonical hashing.
    pub specials: Vec<SpecialId>,
}

impl Subproblem {
    /// The root subproblem `⟨E(H), ∅⟩`.
    pub fn whole(hg: &Hypergraph) -> Self {
        Subproblem {
            edges: hg.all_edges(),
            specials: Vec::new(),
        }
    }

    /// An empty subproblem sized for `hg`.
    pub fn empty(hg: &Hypergraph) -> Self {
        Subproblem {
            edges: hg.edge_set(),
            specials: Vec::new(),
        }
    }

    /// `|E'| + |Sp|` — the size measure used by all balancedness checks.
    #[inline]
    pub fn size(&self) -> usize {
        self.edges.len() + self.specials.len()
    }

    /// Whether there are no edges and no special edges.
    pub fn is_empty(&self) -> bool {
        self.specials.is_empty() && self.edges.is_empty()
    }

    /// `V(H')` — union of all member vertex sets (edges and specials).
    pub fn vertices(&self, hg: &Hypergraph, arena: &SpecialArena) -> VertexSet {
        let mut v = hg.vertex_set();
        self.vertices_into(hg, arena, &mut v);
        v
    }

    /// Like [`Self::vertices`], writing into a caller-owned buffer.
    ///
    /// Returns `true` if `out`'s buffer had to grow (threading the
    /// regrowth flag of [`Hypergraph::union_of_into`] to the caller's
    /// allocation meter).
    pub fn vertices_into(
        &self,
        hg: &Hypergraph,
        arena: &SpecialArena,
        out: &mut VertexSet,
    ) -> bool {
        let grew = hg.union_of_into(&self.edges, out);
        for &s in &self.specials {
            out.union_with(arena.get(s));
        }
        grew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::{Edge, Vertex};

    #[test]
    fn arena_identity_of_equal_sets() {
        let mut arena = SpecialArena::new();
        let s1 = VertexSet::from_iter(10, [Vertex(1), Vertex(2)]);
        let a = arena.push(s1.clone());
        let b = arena.push(s1.clone());
        assert_ne!(a, b);
        assert_eq!(arena.get(a), arena.get(b));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn subproblem_size_and_vertices() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
        let mut arena = SpecialArena::new();
        let sp = arena.push(VertexSet::from_iter(5, [Vertex(4), Vertex(0)]));
        let mut edges = hg.edge_set();
        edges.insert(Edge(0));
        let sub = Subproblem {
            edges,
            specials: vec![sp],
        };
        assert_eq!(sub.size(), 2);
        let v = sub.vertices(&hg, &arena);
        assert_eq!(v.to_vec(), vec![Vertex(0), Vertex(1), Vertex(4)]);
    }

    #[test]
    fn sealed_clones_share_the_prefix_and_diverge_above_it() {
        let mut arena = SpecialArena::new();
        let a = arena.push(VertexSet::from_iter(8, [Vertex(0)]));
        let b = arena.push(VertexSet::from_iter(8, [Vertex(1)]));
        arena.seal();
        let checkpoint = arena.len();

        // Two "branches" from the sealed checkpoint.
        let mut left = arena.clone();
        let mut right = arena.clone();
        let l = left.push(VertexSet::from_iter(8, [Vertex(2)]));
        let r = right.push(VertexSet::from_iter(8, [Vertex(3)]));
        assert_eq!(l, r, "branches allocate ids independently");
        assert_eq!(left.get(l).to_vec(), vec![Vertex(2)]);
        assert_eq!(right.get(r).to_vec(), vec![Vertex(3)]);
        assert_eq!(left.get(a).to_vec(), vec![Vertex(0)]);
        assert_eq!(right.get(b).to_vec(), vec![Vertex(1)]);

        // Stack discipline: branches restore to the checkpoint.
        left.truncate(checkpoint);
        right.truncate(checkpoint);
        assert_eq!(left.len(), 2);
        assert_eq!(right.len(), 2);
    }

    #[test]
    fn truncate_below_seal_then_push_reuses_ids() {
        let mut arena = SpecialArena::new();
        let _a = arena.push(VertexSet::from_iter(8, [Vertex(0)]));
        let _b = arena.push(VertexSet::from_iter(8, [Vertex(1)]));
        arena.seal();
        let _keep_prefix_shared = arena.clone();
        arena.truncate(1);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(SpecialId(0)).to_vec(), vec![Vertex(0)]);
        let c = arena.push(VertexSet::from_iter(8, [Vertex(7)]));
        assert_eq!(c, SpecialId(1));
        assert_eq!(arena.get(c).to_vec(), vec![Vertex(7)]);
        // Re-sealing after a truncation keeps only the live entries.
        arena.seal();
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(SpecialId(0)).to_vec(), vec![Vertex(0)]);
        assert_eq!(arena.get(SpecialId(1)).to_vec(), vec![Vertex(7)]);
    }

    #[test]
    fn truncate_compacts_dead_prefix_when_sole_owner() {
        let mut arena = SpecialArena::new();
        for v in 0..4u32 {
            arena.push(VertexSet::from_iter(8, [Vertex(v)]));
        }
        arena.seal();
        assert_eq!(arena.prefix_allocated(), 4);

        // Sole owner: truncating into the prefix releases the dead entries
        // eagerly instead of leaving them allocated behind the Arc.
        arena.truncate(1);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.prefix_allocated(), 1, "dead prefix not compacted");
        assert_eq!(arena.get(SpecialId(0)).to_vec(), vec![Vertex(0)]);
    }

    #[test]
    fn truncate_keeps_dead_prefix_alive_for_sharers_then_compacts() {
        let mut arena = SpecialArena::new();
        for v in 0..4u32 {
            arena.push(VertexSet::from_iter(8, [Vertex(v)]));
        }
        arena.seal();
        let branch = arena.clone();

        // A sharer pins the Arc: the cut-off must stay logical so the
        // branch keeps seeing all four entries.
        arena.truncate(1);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.prefix_allocated(), 4);
        assert_eq!(branch.get(SpecialId(3)).to_vec(), vec![Vertex(3)]);

        // Once the last sharer is gone, the next truncate-into-prefix
        // compacts what is left.
        drop(branch);
        arena.truncate(0);
        assert_eq!(arena.prefix_allocated(), 0);
        assert!(arena.is_empty());
    }

    #[test]
    fn sealed_clones_share_prefix_and_isolate_tails() {
        let mut parent = SpecialArena::new();
        let a = parent.push(VertexSet::from_iter(8, [Vertex(0)]));
        parent.seal();
        let mut left = parent.clone();
        let mut right = parent.clone();
        let checkpoint = parent.len();
        assert_eq!(checkpoint, 1);

        // Branch pushes are private and id-collide across branches.
        let l = left.push(VertexSet::from_iter(8, [Vertex(2)]));
        let r = right.push(VertexSet::from_iter(8, [Vertex(3)]));
        assert_eq!(l, r);
        assert_eq!(parent.len(), 1, "parent unaffected by branch pushes");
        assert_eq!(left.get(a).to_vec(), vec![Vertex(0)]);
        assert_eq!(right.get(a).to_vec(), vec![Vertex(0)]);

        // The parent can keep pushing after the clones without disturbing
        // the branches (its pushes land in its own tail).
        let p = parent.push(VertexSet::from_iter(8, [Vertex(7)]));
        assert_eq!(p, l);
        assert_eq!(left.get(l).to_vec(), vec![Vertex(2)]);
    }

    #[test]
    fn whole_subproblem_covers_everything() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2]]);
        let sub = Subproblem::whole(&hg);
        assert_eq!(sub.size(), 2);
        assert!(!sub.is_empty());
        assert_eq!(
            sub.vertices(&hg, &SpecialArena::new()).len(),
            hg.num_vertices()
        );
    }
}
