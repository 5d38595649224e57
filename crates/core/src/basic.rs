//! Algorithm 1 of the paper, implemented verbatim, plus the HD-fragment
//! construction from the soundness proof (Appendix A).
//!
//! This is the *reference* implementation: simple, faithful, and slow
//! (each of `RootLoop`, `ParentLoop`, `ChildLoop` scans all `≤ k`-subsets
//! of `E(H)`). It exists so that the optimised and parallel engines have a
//! trusted oracle to be differentially tested against, and so the paper's
//! pseudo-code can be read side by side with running code.
//!
//! The *control flow* is verbatim Algorithm 1; the *memory discipline* is
//! not: like `detk`'s `DetkScratch`, every recursion level owns a
//! `BasicLevel` bundle (BFS scratch plus the `ParentLoop`/`ChildLoop`
//! separations), so component splitting runs through `separate_into` on
//! warm buffers instead of the allocating `separate` wrapper. The oracle
//! is quadratically slower than the engines by design; it does not also
//! need to hammer the allocator.

use std::ops::ControlFlow;
use std::sync::Arc;

use decomp::{Control, Decomposition, Fragment, Interrupted};
use hypergraph::subsets::for_each_subset;
use hypergraph::{
    separate_into, Edge, Hypergraph, LevelStack, Scratch, Separation, SpecialArena, Subproblem,
    VertexSet,
};

/// Result of a solve: `Ok(Some(hd))` on success, `Ok(None)` when no HD of
/// width ≤ k exists, `Err` when interrupted.
pub type SolveResult = Result<Option<Decomposition>, Interrupted>;

/// Decides `hw(H) ≤ k` with Algorithm 1 and, on success, materialises a
/// witness HD of width ≤ k.
pub fn decompose_basic(hg: &Hypergraph, k: usize, ctrl: &Control) -> SolveResult {
    assert!(k >= 1, "width parameter k must be at least 1");
    if hg.num_edges() == 0 {
        // Degenerate: the empty hypergraph has the empty HD; represent it
        // as a single empty node for uniformity.
        return Ok(Some(Decomposition::singleton(vec![], hg.vertex_set())));
    }
    let mut engine = Basic {
        hg,
        k,
        ctrl,
        arena: SpecialArena::new(),
        all_edges: hg.edge_ids().collect(),
        scratch: BasicScratch::default(),
    };
    engine.run()
}

/// Per-recursion-level scratch of the reference search: the BFS workspace
/// and one [`Separation`] per loop that splits components at this level.
#[derive(Default)]
struct BasicLevel {
    bfs: Scratch,
    /// `[λp]`-components of `H'` (`ParentLoop`, line 17).
    seps_p: Separation,
    /// `[χc]`-components of `comp_down` (`ChildLoop`, line 28).
    seps_c: Separation,
}

/// Stack of per-level bundles, taken out while a level is active so the
/// recursion can borrow the stack freely — an instantiation of the
/// generic [`LevelStack`] take/put discipline.
type BasicScratch = LevelStack<BasicLevel>;

struct Basic<'h> {
    hg: &'h Hypergraph,
    k: usize,
    ctrl: &'h Control,
    arena: SpecialArena,
    /// Shared candidate list (Algorithm 1 scans all of `E(H)` in every
    /// loop); `Arc` so the recursion borrows it without a per-call clone.
    all_edges: Arc<[Edge]>,
    scratch: BasicScratch,
}

/// Inner search outcome: a fragment or an interruption, both of which
/// abort the surrounding enumeration.
type Found<T> = ControlFlow<Result<T, Interrupted>>;

impl Basic<'_> {
    fn run(&mut self) -> SolveResult {
        let whole = Subproblem::whole(self.hg);
        let all = Arc::clone(&self.all_edges);
        // The root loop's own split buffers, warm across candidates.
        let mut root_bfs = Scratch::new();
        let mut root_sep = Separation::new();
        let found = for_each_subset(&all, self.k, |lam_r| {
            self.try_root(lam_r, &whole, &mut root_bfs, &mut root_sep)
        });
        match found {
            Some(Ok(d)) => Ok(Some(d)),
            Some(Err(e)) => Err(e),
            None => Ok(None), // exhausted search space (line 10)
        }
    }

    /// One iteration of `RootLoop` (lines 3–9).
    fn try_root(
        &mut self,
        lam_r: &[Edge],
        whole: &Subproblem,
        bfs: &mut Scratch,
        sep: &mut Separation,
    ) -> Found<Decomposition> {
        if let Err(e) = self.ctrl.checkpoint() {
            return ControlFlow::Break(Err(e));
        }
        // χ(r) = ⋃λ(r) by the special condition, so [λr]-components and
        // [χ(r)]-components coincide (line 4).
        let chi_r = self.hg.union_of_slice(lam_r);
        separate_into(self.hg, &self.arena, whole, &chi_r, bfs, sep);
        let mut child_frags = Vec::with_capacity(sep.components.len());
        for y in &sep.components {
            let conn_y = y.vertices.intersection(&chi_r); // line 6
            match self.decomp(y.as_subproblem(), &conn_y, 0) {
                Ok(Some(frag)) => child_frags.push(frag),
                Ok(None) => return ControlFlow::Continue(()), // line 8: reject root
                Err(e) => return ControlFlow::Break(Err(e)),
            }
        }
        // Assemble: root node r with the fragments' roots as children.
        let mut frag = Fragment::leaf(lam_r.to_vec(), chi_r);
        for f in child_frags {
            frag.attach_under(0, f);
        }
        let d = frag
            .into_decomposition()
            .expect("top-level fragments contain no special leaves");
        ControlFlow::Break(Ok(d))
    }

    /// Function `Decomp` (lines 11–40), returning the HD-fragment of the
    /// extended subhypergraph `(sub, conn)` if one of width ≤ k exists.
    /// `depth` indexes the scratch stack; the level's bundle is taken out
    /// for the duration so deeper calls borrow the stack freely.
    fn decomp(
        &mut self,
        sub: &Subproblem,
        conn: &VertexSet,
        depth: usize,
    ) -> Result<Option<Fragment>, Interrupted> {
        self.ctrl.checkpoint()?;

        // Base cases (lines 12–15).
        if sub.edges.len() <= self.k && sub.specials.is_empty() {
            let lambda: Vec<Edge> = sub.edges.iter().collect();
            let chi = self.hg.union_of(&sub.edges);
            return Ok(Some(Fragment::leaf(lambda, chi)));
        }
        if sub.edges.is_empty() && sub.specials.len() == 1 {
            let s = sub.specials[0];
            return Ok(Some(Fragment::special_leaf(s, self.arena.get(s).clone())));
        }

        let mut lvl = self.scratch.take_or_default(depth);
        let result = self.decomp_level(sub, conn, depth, &mut lvl);
        self.scratch.put(depth, lvl);
        result
    }

    /// The loops of `Decomp`, running on this level's scratch bundle.
    fn decomp_level(
        &mut self,
        sub: &Subproblem,
        conn: &VertexSet,
        depth: usize,
        lvl: &mut BasicLevel,
    ) -> Result<Option<Fragment>, Interrupted> {
        let all = Arc::clone(&self.all_edges);
        let size = sub.size();
        let BasicLevel {
            bfs,
            seps_p,
            seps_c,
        } = lvl;

        // ParentLoop (line 16).
        let found = for_each_subset(&all, self.k, |lam_p| {
            if let Err(e) = self.ctrl.checkpoint() {
                return ControlFlow::Break(Err(e));
            }
            let up = self.hg.union_of_slice(lam_p);
            // Line 17.
            separate_into(self.hg, &self.arena, sub, &up, bfs, seps_p);
            // Line 18: the (unique) oversized component becomes comp_down.
            let Some(i) = seps_p.oversized_component(size) else {
                return ControlFlow::Continue(()); // line 21
            };
            let comp_down = &seps_p.components[i];
            // Line 22: connectedness check for Conn against λp —
            // `(V(comp_down) ∩ Conn) \ ⋃λp = ∅`, one fused pass, nothing
            // materialised.
            if comp_down.vertices.intersects_outside(conn, &up) {
                return ControlFlow::Continue(()); // line 23
            }

            // ChildLoop (line 24).
            let r = for_each_subset(&all, self.k, |lam_c| {
                self.try_child(sub, conn, lam_c, comp_down, &up, size, depth, bfs, seps_c)
            });
            match r {
                Some(res) => ControlFlow::Break(res),
                None => ControlFlow::Continue(()),
            }
        });
        match found {
            Some(Ok(f)) => Ok(Some(f)),
            Some(Err(e)) => Err(e),
            None => Ok(None), // line 40: exhausted search space
        }
    }

    /// One iteration of `ChildLoop` (lines 25–39).
    #[allow(clippy::too_many_arguments)]
    fn try_child(
        &mut self,
        sub: &Subproblem,
        conn: &VertexSet,
        lam_c: &[Edge],
        comp_down: &hypergraph::Component,
        up: &VertexSet, // ⋃λp
        size: usize,
        depth: usize,
        bfs: &mut Scratch,
        seps_c: &mut Separation,
    ) -> Found<Fragment> {
        if let Err(e) = self.ctrl.checkpoint() {
            return ControlFlow::Break(Err(e));
        }
        // Line 25: χc = ⋃λc ∩ V(comp_down) (minimal χ, Definition 3.5(3)).
        let mut chi_c = self.hg.union_of_slice(lam_c);
        chi_c.intersect_with(&comp_down.vertices);
        // Line 26: connectedness check, fused like line 22.
        if comp_down.vertices.intersects_outside(up, &chi_c) {
            return ControlFlow::Continue(()); // line 27
        }
        // Line 28: [χc]-components of comp_down.
        separate_into(
            self.hg,
            &self.arena,
            comp_down.as_subproblem(),
            &chi_c,
            bfs,
            seps_c,
        );
        // Line 29: balancedness of the child.
        if seps_c.components.iter().any(|c| 2 * c.size() > size) {
            return ControlFlow::Continue(()); // line 30
        }

        // Lines 31–34: recurse below the child.
        let mut below = Vec::with_capacity(seps_c.components.len());
        for x in &seps_c.components {
            let conn_x = x.vertices.intersection(&chi_c); // line 32
            match self.decomp(x.as_subproblem(), &conn_x, depth + 1) {
                Ok(Some(f)) => below.push(f),
                Ok(None) => return ControlFlow::Continue(()), // line 34
                Err(e) => return ControlFlow::Break(Err(e)),
            }
        }

        // Lines 35–36: comp_up := H' \ comp_down, plus χc as a new special.
        let mut comp_up = Subproblem {
            edges: sub.edges.difference(comp_down.edges()),
            specials: sub
                .specials
                .iter()
                .copied()
                .filter(|s| !comp_down.specials().contains(s))
                .collect(),
        };
        let sc = self.arena.push(chi_c.clone());
        comp_up.specials.push(sc);

        // Line 37: recurse above the child.
        let mut up_frag = match self.decomp(&comp_up, conn, depth + 1) {
            Ok(Some(f)) => f,
            Ok(None) => return ControlFlow::Continue(()), // line 38
            Err(e) => return ControlFlow::Break(Err(e)),
        };

        // Assembly per the soundness proof: the up-fragment has a leaf for
        // the special edge sc; replace it by the real node c and hang the
        // below-fragments (and leaves for comp_down's covered specials)
        // underneath.
        let c_idx = up_frag.replace_special_leaf(sc, lam_c.to_vec(), chi_c);
        for f in below {
            up_frag.attach_under(c_idx, f);
        }
        for &s in &seps_c.covered_specials {
            up_frag.attach_under(c_idx, Fragment::special_leaf(s, self.arena.get(s).clone()));
        }
        ControlFlow::Break(Ok(up_frag)) // line 39
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate_hd_width;

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    #[test]
    fn single_edge_width_one() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1, 2]]);
        let ctrl = Control::unlimited();
        let d = decompose_basic(&hg, 1, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 1).unwrap();
    }

    #[test]
    fn path_width_one() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let ctrl = Control::unlimited();
        let d = decompose_basic(&hg, 1, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 1).unwrap();
    }

    #[test]
    fn triangle_needs_width_two() {
        let hg = cycle(3);
        let ctrl = Control::unlimited();
        assert!(decompose_basic(&hg, 1, &ctrl).unwrap().is_none());
        let d = decompose_basic(&hg, 2, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 2).unwrap();
    }

    #[test]
    fn appendix_b_cycle10_width_two() {
        // The paper's running example (Appendix B): hw(C10) = 2.
        let hg = cycle(10);
        let ctrl = Control::unlimited();
        assert!(decompose_basic(&hg, 1, &ctrl).unwrap().is_none());
        let d = decompose_basic(&hg, 2, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 2).unwrap();
    }

    #[test]
    fn cancellation_propagates() {
        let hg = cycle(10);
        let ctrl = Control::unlimited();
        ctrl.cancel();
        assert!(matches!(
            decompose_basic(&hg, 2, &ctrl),
            Err(Interrupted::Cancelled)
        ));
    }

    #[test]
    fn cycle6_widths() {
        let hg = cycle(6);
        let ctrl = Control::unlimited();
        assert!(decompose_basic(&hg, 1, &ctrl).unwrap().is_none());
        let d = decompose_basic(&hg, 2, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 2).unwrap();
    }
}
