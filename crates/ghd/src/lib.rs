//! Balanced-separator GHD search — the workspace's stand-in for
//! **BalancedGo** (Gottlob, Okulmus, Pichler — IJCAI 2020).
//!
//! Generalized hypertree decompositions drop the special condition, so a
//! node's bag can be derived from its own λ-label alone
//! (`χ(u) = ⋃λ(u) ∩ V(C)`) — no parent/child pair search is needed. This
//! implementation searches top-down for λ-labels that are *balanced
//! separators* of the current component (every `[χ]`-component at most
//! half the size), which is both BalancedGo's signature pruning rule and
//! the termination argument.
//!
//! # Substitution caveat (see `DESIGN.md` §5)
//!
//! Exact GHD computation is NP-hard already for width 2 and BalancedGo
//! pays for exactness with subedge expansion and unrooted reassembly.
//! This crate implements the *sound* balanced rooted search without
//! subedges: every returned decomposition is a valid GHD of width ≤ k
//! (validated in tests), but the search may miss decompositions that need
//! subedge bags or middle-of-fragment separators. The harness therefore
//! treats its results as upper bounds and cross-checks optimality claims
//! against `htdsat`'s exact ghw. The practical effect — solving *fewer*
//! instances than `log-k-decomp` at higher cost — is exactly the
//! comparison shape reported in Section 5.2 of the paper.

use std::ops::ControlFlow;

use decomp::{Control, Decomposition, Fragment, Interrupted};
use hypergraph::subsets::{for_each_cover_subset_in, CoverScratch, CoverStep};
use hypergraph::{
    separate_into, Edge, Hypergraph, LevelStack, Scratch, Separation, SpecialArena, Subproblem,
    VertexSet,
};

/// Result of a solve.
pub type SolveResult = Result<Option<Decomposition>, Interrupted>;

/// Decides (one-sidedly, see crate docs) `ghw(H) ≤ k`; returns a witness
/// GHD of width ≤ k when the balanced rooted search finds one.
pub fn decompose_ghd(hg: &Hypergraph, k: usize, ctrl: &Control) -> SolveResult {
    assert!(k >= 1);
    if hg.num_edges() == 0 {
        return Ok(Some(Decomposition::singleton(vec![], hg.vertex_set())));
    }
    let engine = Ghd {
        hg,
        k,
        ctrl,
        arena: SpecialArena::new(),
    };
    let sub = Subproblem::whole(hg);
    let mut scratch = GhdScratch::default();
    match engine.decompose(&sub, &hg.vertex_set(), 0, &mut scratch)? {
        Some(frag) => Ok(Some(
            frag.into_decomposition()
                .expect("the GHD search creates no special edges"),
        )),
        None => Ok(None),
    }
}

/// Smallest `k ≤ k_max` for which the search succeeds (an upper bound on
/// `ghw`, exact whenever the search is complete on the instance family).
pub fn minimal_width_ghd(
    hg: &Hypergraph,
    k_max: usize,
    ctrl: &Control,
) -> Result<Option<(usize, Decomposition)>, Interrupted> {
    for k in 1..=k_max {
        if let Some(d) = decompose_ghd(hg, k, ctrl)? {
            return Ok(Some((k, d)));
        }
    }
    Ok(None)
}

/// Per-recursion-level scratch of the GHD search: BFS workspace, the
/// `[χ]`-separation, and the per-candidate vertex-set /candidate buffers —
/// the `DetkScratch` discipline, so candidate evaluation allocates nothing
/// once a level is warm.
#[derive(Default)]
struct GhdLevel {
    bfs: Scratch,
    seps: Separation,
    /// `V(H')` of the current subproblem.
    vsub: VertexSet,
    /// `⋃λ` of the current candidate.
    union: VertexSet,
    /// `χ = ⋃λ ∩ V(H')`.
    chi: VertexSet,
    /// Connector handed to child recursions.
    conn_c: VertexSet,
    /// λ candidate edges.
    cands: Vec<Edge>,
    /// Cover masks and enumeration buffer of the connector-cover walk.
    cover: CoverScratch,
}

/// Stack of per-level bundles, taken out while a level is active so the
/// recursion can borrow the stack freely — an instantiation of the
/// generic [`LevelStack`] take/put discipline.
type GhdScratch = LevelStack<GhdLevel>;

struct Ghd<'h> {
    hg: &'h Hypergraph,
    k: usize,
    ctrl: &'h Control,
    /// Always empty (the rooted GHD search creates no special edges);
    /// exists so `separate_into` has an arena to borrow.
    arena: SpecialArena,
}

impl Ghd<'_> {
    fn decompose(
        &self,
        sub: &Subproblem,
        conn: &VertexSet,
        depth: usize,
        scratch: &mut GhdScratch,
    ) -> Result<Option<Fragment>, Interrupted> {
        self.ctrl.checkpoint()?;
        debug_assert!(sub.specials.is_empty(), "rooted GHD search is special-free");

        if sub.edges.len() <= self.k {
            let lambda: Vec<Edge> = sub.edges.iter().collect();
            let chi = self.hg.union_of(&sub.edges);
            return Ok(Some(Fragment::leaf(lambda, chi)));
        }

        let mut lvl = scratch.take_or_default(depth);
        let result = self.decompose_level(sub, conn, depth, &mut lvl, scratch);
        scratch.put(depth, lvl);
        result
    }

    fn decompose_level(
        &self,
        sub: &Subproblem,
        conn: &VertexSet,
        depth: usize,
        lvl: &mut GhdLevel,
        scratch: &mut GhdScratch,
    ) -> Result<Option<Fragment>, Interrupted> {
        let GhdLevel {
            bfs,
            seps,
            vsub,
            union,
            chi,
            conn_c,
            cands,
            cover,
        } = lvl;
        self.hg.union_of_into(&sub.edges, vsub);
        cands.clear();
        cands.extend(
            self.hg
                .edge_ids()
                .filter(|&e| self.hg.edge(e).intersects(vsub)),
        );
        let size = sub.size();

        // The fragment root must cover the interface to its parent: λ is
        // drawn only from labels with `conn ⊆ ⋃λ`.
        let found = for_each_cover_subset_in(self.hg, cands, conn, self.k, cover, |step| {
            if let Err(e) = self.ctrl.checkpoint() {
                return ControlFlow::Break(Err(e));
            }
            let CoverStep::Visit(lambda) = step else {
                return ControlFlow::Continue(());
            };
            self.hg.union_of_slice_into(lambda, union);
            debug_assert!(conn.is_subset_of(union));
            chi.assign_and(union, vsub);
            separate_into(self.hg, &self.arena, sub, chi, bfs, seps);
            // BalancedGo's criterion: χ must be a balanced separator.
            if seps.components.iter().any(|c| 2 * c.size() > size) {
                return ControlFlow::Continue(());
            }
            let mut children = Vec::with_capacity(seps.components.len());
            for comp in &seps.components {
                conn_c.assign_and(&comp.vertices, chi);
                match self.decompose(comp.as_subproblem(), conn_c, depth + 1, scratch) {
                    Ok(Some(f)) => children.push(f),
                    Ok(None) => return ControlFlow::Continue(()),
                    Err(e) => return ControlFlow::Break(Err(e)),
                }
            }
            let mut frag = Fragment::leaf(lambda.to_vec(), chi.clone());
            for f in children {
                frag.attach_under(0, f);
            }
            ControlFlow::Break(Ok(frag))
        });
        match found {
            Some(Ok(f)) => Ok(Some(f)),
            Some(Err(e)) => Err(e),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate_ghd;

    fn ctrl() -> Control {
        Control::unlimited()
    }

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    #[test]
    fn witnesses_are_valid_ghds() {
        for n in [4u32, 6, 10] {
            let hg = cycle(n);
            let d = decompose_ghd(&hg, 2, &ctrl()).unwrap().unwrap();
            assert!(d.width() <= 2);
            validate_ghd(&hg, &d).unwrap();
        }
    }

    #[test]
    fn paths_are_width_one() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let (w, d) = minimal_width_ghd(&hg, 3, &ctrl()).unwrap().unwrap();
        assert_eq!(w, 1);
        validate_ghd(&hg, &d).unwrap();
    }

    #[test]
    fn upper_bound_dominates_exact_ghw() {
        // The balanced rooted search never undercuts the exact ghw.
        for n in [5u32, 7, 9] {
            let hg = cycle(n);
            let exact = htdsat_ghw(&hg);
            let ours = minimal_width_ghd(&hg, 5, &ctrl()).unwrap().map(|(w, _)| w);
            if let Some(w) = ours {
                assert!(w >= exact, "C_{n}: ours {w} < exact {exact}");
            }
        }
    }

    fn htdsat_ghw(hg: &Hypergraph) -> usize {
        htdsat::optimal_ghw(hg, 6, &Control::unlimited())
            .unwrap()
            .unwrap()
            .0
    }

    #[test]
    fn interruption_propagates() {
        let hg = cycle(20);
        let c = Control::unlimited();
        c.cancel();
        assert!(matches!(
            decompose_ghd(&hg, 2, &c),
            Err(Interrupted::Cancelled)
        ));
    }
}
