//! Certified lower bounds on hypertree width, cheap enough to run before
//! every search.
//!
//! Two bounds, each refutation carrying a certificate that
//! [`Refutation::check`] re-verifies without the search:
//!
//! * **GYO (k = 1).** `hw(H) = 1` iff `H` is α-acyclic iff the GYO
//!   reduction eliminates every edge (Gottlob, Leone and Scarcello). A
//!   stuck reduction is the refutation; its certificate is the non-empty
//!   residue.
//! * **Minor-min-width (k ≥ 2).** In an HD of width `k` every bag obeys
//!   `χ(u) ⊆ ⋃λ(u)`, so it holds at most `k · r` vertices, `r` the largest
//!   edge size. The bags form a tree decomposition of the primal graph,
//!   hence `tw + 1 ≤ k · r` (this is `ghw ≥ ⌈(tw + 1) / r⌉`, and every HD
//!   is a GHD). Treewidth is minor-monotone and at least the minimum
//!   degree of any graph, so a minor of the primal graph with minimum
//!   degree `d` refutes width `k` whenever `k · r < d + 1`. The minor
//!   comes from the minor-min-width heuristic (Gogate and Dechter):
//!   contract a minimum-degree vertex into its minimum-degree neighbour,
//!   and keep the largest minimum degree seen. Its certificate is the
//!   contraction sequence up to that minor and the claimed degree.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::bitset::{EdgeSet, Vertex, VertexSet};
use crate::graph::Hypergraph;

/// One step of a contraction sequence on the primal graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Contract the graph edge `{v, into}`: `v` merges into `into`.
    Contract {
        /// The vertex that disappears.
        v: Vertex,
        /// The neighbour that takes over `v`'s adjacencies.
        into: Vertex,
    },
    /// Delete `v` (the heuristic deletes only isolated vertices).
    Delete(Vertex),
}

/// A minor of the primal graph: the steps that reach it and its minimum
/// degree, a lower bound on the primal treewidth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinorBound {
    /// Minimum degree of the minor the steps reach.
    pub min_degree: usize,
    /// Contractions and deletions, applied in order to the primal graph.
    pub steps: Vec<Step>,
}

/// A certificate that `hw(H) > k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refutation {
    /// `H` is not α-acyclic, so `hw(H) > 1`: the GYO reduction gets stuck
    /// on `residue`.
    Cyclic {
        /// The edges still alive when the reduction got stuck.
        residue: EdgeSet,
    },
    /// A minor of the primal graph with minimum degree `d` and
    /// `k · r < d + 1`.
    Minor(MinorBound),
}

/// Why a [`Refutation`] failed [`Refutation::check`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The residue is empty: the reduction got stuck on nothing.
    EmptyResidue,
    /// The residue is not what the reduction gets stuck on.
    ResidueMismatch,
    /// Step `index` names a removed vertex, or contracts a non-edge.
    BadStep {
        /// Position of the step in the sequence.
        index: usize,
    },
    /// The minor keeps no vertex.
    EmptyMinor,
    /// A vertex of the minor has a degree below the claimed minimum.
    DegreeBelowClaim {
        /// The vertex.
        v: Vertex,
        /// Its degree in the minor.
        degree: usize,
    },
    /// The certificate does not refute width `k`: a GYO residue at
    /// `k ≠ 1`, or a minor with `k · r ≥ d + 1`.
    WidthNotExceeded,
}

impl Refutation {
    /// Re-verifies the certificate against `hg` at width `k`, with code
    /// independent of the code that produced it: a plain GYO reduction
    /// over sorted sets for [`Refutation::Cyclic`], and a replay of the
    /// steps on an adjacency-set primal graph for [`Refutation::Minor`].
    pub fn check(&self, hg: &Hypergraph, k: usize) -> Result<(), CheckError> {
        match self {
            Refutation::Cyclic { residue } => check_cyclic(hg, k, residue),
            Refutation::Minor(bound) => check_minor(hg, k, bound),
        }
    }
}

/// Largest vertex count [`minor_refutation`] runs on. The primal graph
/// takes `n²` bits and the heuristic `O(n²)` steps: 0.5 MiB and a few
/// milliseconds at this size, far above every corpus instance and far
/// below what a legal wire request may carry.
pub const MINOR_BOUND_MAX_VERTICES: usize = 2048;

/// The minor-min-width refutation of width `k ≥ 1`, if the heuristic
/// finds a minor with minimum degree at least `k · r`. Stops as soon as
/// it does, or once too few vertices remain to reach it. Hypergraphs
/// with more than [`MINOR_BOUND_MAX_VERTICES`] vertices get `None`.
pub fn minor_refutation(hg: &Hypergraph, k: usize) -> Option<Refutation> {
    let target = k.checked_mul(hg.max_arity())?;
    let n = hg.num_vertices();
    // No minor of an n-vertex graph has minimum degree above n − 1.
    if target == 0 || n <= target || n > MINOR_BOUND_MAX_VERTICES {
        return None;
    }
    let bound = mmw(hg, Some(target));
    (bound.min_degree >= target).then_some(Refutation::Minor(bound))
}

/// The minor-min-width lower bound on the primal treewidth, with the
/// steps to the minor that shows it.
pub fn minor_min_width(hg: &Hypergraph) -> MinorBound {
    mmw(hg, None)
}

/// The primal graph's adjacency rows (no self-loops).
fn primal_rows(hg: &Hypergraph) -> Vec<VertexSet> {
    let n = hg.num_vertices();
    let mut adj = vec![VertexSet::empty(n); n];
    for e in hg.edge_ids() {
        let set = hg.edge(e);
        for v in set {
            adj[v.0 as usize].union_with(set);
        }
    }
    for (v, row) in adj.iter_mut().enumerate() {
        row.remove(Vertex(v as u32));
    }
    adj
}

/// Minor-min-width on bitset rows. With a `target`, returns once the
/// bound reaches it or can no longer reach it; without, once no smaller
/// minor can raise the bound. The minimum-degree vertex (smallest id
/// among ties) comes from a lazy heap: every degree change pushes a
/// fresh entry, and stale ones are skipped when popped.
fn mmw(hg: &Hypergraph, target: Option<usize>) -> MinorBound {
    let n = hg.num_vertices();
    let mut adj = primal_rows(hg);
    let mut deg: Vec<usize> = adj.iter().map(VertexSet::len).collect();
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> =
        (0..n).map(|v| Reverse((deg[v], v as u32))).collect();
    let mut alive = vec![true; n];
    let mut left = n;
    let mut steps = Vec::new();
    let mut best = MinorBound {
        min_degree: 0,
        steps: Vec::new(),
    };
    // A graph on `left` vertices has minimum degree at most `left - 1`.
    while left > best.min_degree + 1 && target.is_none_or(|t| left > t) {
        let Reverse((d, v)) = heap.pop().expect("every live vertex has an entry");
        if !alive[v as usize] || deg[v as usize] != d {
            continue;
        }
        let v = Vertex(v);
        if d > best.min_degree {
            best.min_degree = d;
            best.steps.clone_from(&steps);
            if target.is_some_and(|t| d >= t) {
                break;
            }
        }
        alive[v.0 as usize] = false;
        left -= 1;
        let nv = std::mem::replace(&mut adj[v.0 as usize], VertexSet::empty(0));
        let Some(u) = nv.iter().min_by_key(|w| deg[w.0 as usize]) else {
            steps.push(Step::Delete(v));
            continue;
        };
        // Every neighbour w ≠ u loses v; it gains u unless already
        // adjacent to it, in which case its degree drops by one.
        for w in &nv {
            let row = &mut adj[w.0 as usize];
            row.remove(v);
            if w == u {
                continue;
            }
            if row.insert(u) {
                adj[u.0 as usize].insert(w);
                deg[u.0 as usize] += 1;
            } else {
                deg[w.0 as usize] -= 1;
                heap.push(Reverse((deg[w.0 as usize], w.0)));
            }
        }
        deg[u.0 as usize] -= 1;
        heap.push(Reverse((deg[u.0 as usize], u.0)));
        steps.push(Step::Contract { v, into: u });
    }
    best
}

/// The GYO reduction on sorted vertex sets, written independently of
/// [`crate::gyo`]: the reduced sets of the edges still alive when it gets
/// stuck (empty iff acyclic).
fn naive_gyo_residue(hg: &Hypergraph) -> Vec<Vec<u32>> {
    let mut alive: Vec<BTreeSet<u32>> = hg
        .edge_ids()
        .map(|e| hg.edge(e).iter().map(|v| v.0).collect())
        .collect();
    loop {
        let mut count = vec![0usize; hg.num_vertices()];
        for s in &alive {
            for &v in s {
                count[v as usize] += 1;
            }
        }
        let mut changed = false;
        for s in &mut alive {
            let before = s.len();
            s.retain(|&v| count[v as usize] > 1);
            changed |= s.len() != before;
        }
        // A sole survivor has lost all its vertices as ears.
        if alive.len() == 1 {
            alive.clear();
        }
        let contained = (0..alive.len())
            .find(|&i| (0..alive.len()).any(|j| j != i && alive[i].is_subset(&alive[j])));
        if let Some(i) = contained {
            alive.remove(i);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    alive.into_iter().map(|s| s.into_iter().collect()).collect()
}

fn check_cyclic(hg: &Hypergraph, k: usize, residue: &EdgeSet) -> Result<(), CheckError> {
    if k != 1 {
        return Err(CheckError::WidthNotExceeded);
    }
    if residue.is_empty() {
        return Err(CheckError::EmptyResidue);
    }
    if residue.iter().any(|e| e.0 as usize >= hg.num_edges()) {
        return Err(CheckError::ResidueMismatch);
    }
    // A stuck state keeps exactly the vertices shared by two of its
    // edges, so the residue determines its reduced sets. GYO is
    // Church–Rosser: every stuck state has the same family of sets.
    let mut count = vec![0usize; hg.num_vertices()];
    for e in residue {
        for v in hg.edge(e) {
            count[v.0 as usize] += 1;
        }
    }
    let mut claimed: Vec<Vec<u32>> = residue
        .iter()
        .map(|e| {
            hg.edge(e)
                .iter()
                .filter(|v| count[v.0 as usize] > 1)
                .map(|v| v.0)
                .collect()
        })
        .collect();
    let mut derived = naive_gyo_residue(hg);
    claimed.sort();
    derived.sort();
    if claimed != derived {
        return Err(CheckError::ResidueMismatch);
    }
    Ok(())
}

fn check_minor(hg: &Hypergraph, k: usize, bound: &MinorBound) -> Result<(), CheckError> {
    let d = bound.min_degree;
    if k.saturating_mul(hg.max_arity()) >= d.saturating_add(1) {
        return Err(CheckError::WidthNotExceeded);
    }
    let n = hg.num_vertices();
    let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for e in hg.edge_ids() {
        let vs: Vec<u32> = hg.edge(e).iter().map(|v| v.0).collect();
        for &a in &vs {
            adj[a as usize].extend(vs.iter().copied().filter(|&b| b != a));
        }
    }
    let mut alive = vec![true; n];
    let live = |alive: &[bool], v: Vertex| (v.0 as usize) < n && alive[v.0 as usize];
    for (index, step) in bound.steps.iter().enumerate() {
        let (v, into) = match *step {
            Step::Contract { v, into } => (v, Some(into)),
            Step::Delete(v) => (v, None),
        };
        let ok = live(&alive, v)
            && into.is_none_or(|u| live(&alive, u) && adj[v.0 as usize].contains(&u.0));
        if !ok {
            return Err(CheckError::BadStep { index });
        }
        for w in std::mem::take(&mut adj[v.0 as usize]) {
            adj[w as usize].remove(&v.0);
            if let Some(u) = into.filter(|u| u.0 != w) {
                adj[w as usize].insert(u.0);
                adj[u.0 as usize].insert(w);
            }
        }
        alive[v.0 as usize] = false;
    }
    if !alive.contains(&true) {
        return Err(CheckError::EmptyMinor);
    }
    for v in (0..n).filter(|&v| alive[v]) {
        if adj[v].len() < d {
            return Err(CheckError::DegreeBelowClaim {
                v: Vertex(v as u32),
                degree: adj[v].len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::Edge;

    fn clique(n: u32) -> Hypergraph {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push(vec![a, b]);
            }
        }
        Hypergraph::from_edge_lists(&edges)
    }

    fn grid(rows: u32, cols: u32) -> Hypergraph {
        let id = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push(vec![id(r, c), id(r, c + 1)]);
                }
                if r + 1 < rows {
                    edges.push(vec![id(r, c), id(r + 1, c)]);
                }
            }
        }
        Hypergraph::from_edge_lists(&edges)
    }

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    /// Two K5 cliques glued on two vertices (hw 3: a K5 needs three
    /// binary edges per bag).
    fn twin_k5() -> Hypergraph {
        let mut edges = Vec::new();
        for (lo, hi) in [(0u32, 5u32), (3, 8)] {
            for a in lo..hi {
                for b in a + 1..hi {
                    edges.push(vec![a, b]);
                }
            }
        }
        Hypergraph::from_edge_lists(&edges)
    }

    /// The refutation the bounds give at width `k`: GYO's residue at
    /// `k = 1`, the minor bound above.
    fn refute(hg: &Hypergraph, k: usize) -> Option<Refutation> {
        if k == 1 {
            let g = crate::gyo::gyo(hg);
            return (!g.acyclic).then_some(Refutation::Cyclic { residue: g.residue });
        }
        minor_refutation(hg, k)
    }

    fn minor(r: Option<Refutation>) -> MinorBound {
        match r {
            Some(Refutation::Minor(b)) => b,
            other => panic!("expected a minor refutation, got {other:?}"),
        }
    }

    #[test]
    fn clique_min_degree_is_n_minus_one() {
        for n in 3..9u32 {
            let hg = clique(n);
            let full = minor_min_width(&hg);
            assert_eq!(full.min_degree, n as usize - 1);
            assert!(full.steps.is_empty(), "K_n is its own witness minor");
            // hw(K_n) = ⌈n / 2⌉: refuted below, never at or above.
            let hw = (n as usize).div_ceil(2);
            for k in 2..=n as usize {
                let r = minor_refutation(&hg, k);
                if 2 * k < n as usize {
                    r.expect("k · 2 < n").check(&hg, k).unwrap();
                } else {
                    assert!(r.is_none(), "K{n} at k = {k}");
                    assert!(k >= hw);
                }
            }
        }
    }

    #[test]
    fn twin_k5_is_refuted_at_two_and_tampering_fails() {
        let hg = twin_k5();
        let b = minor(refute(&hg, 2));
        assert_eq!(b.min_degree, 4);
        Refutation::Minor(b.clone()).check(&hg, 2).unwrap();
        assert!(refute(&hg, 3).is_none());

        let inflated = MinorBound {
            min_degree: b.min_degree + 1,
            ..b.clone()
        };
        assert!(matches!(
            Refutation::Minor(inflated).check(&hg, 2),
            Err(CheckError::DegreeBelowClaim { .. })
        ));
        assert_eq!(
            Refutation::Minor(b).check(&hg, 3),
            Err(CheckError::WidthNotExceeded)
        );
    }

    #[test]
    fn grid_bound_replays_and_tampering_fails() {
        let hg = grid(6, 6);
        let full = minor_min_width(&hg);
        assert!(full.min_degree >= 3, "{full:?}");
        assert!(full.min_degree <= 6, "tw(6×6 grid) = 6");
        assert!(!full.steps.is_empty());
        // At k = 1 (k · r = 2) the bound refutes; check the full minor.
        let cert = Refutation::Minor(full.clone());
        cert.check(&hg, 1).unwrap();
        assert_eq!(cert.check(&hg, 3), Err(CheckError::WidthNotExceeded));

        // Dropping the first contraction leaves its degree-2 corner in
        // the minor, or breaks a later step that relied on it.
        let mut dropped = full.clone();
        dropped.steps.remove(0);
        assert!(Refutation::Minor(dropped).check(&hg, 1).is_err());

        let mut redirected = full.clone();
        if let Some(Step::Contract { v, .. }) = redirected.steps.first().copied() {
            redirected.steps[0] = Step::Contract { v, into: v };
        }
        assert_eq!(
            Refutation::Minor(redirected).check(&hg, 1),
            Err(CheckError::BadStep { index: 0 })
        );
    }

    #[test]
    fn cycle_bound_is_two() {
        let hg = cycle(12);
        assert_eq!(minor_min_width(&hg).min_degree, 2);
        assert!(minor_refutation(&hg, 1).is_some());
        assert!(minor_refutation(&hg, 2).is_none());
        let r = refute(&hg, 1).expect("cycles are cyclic");
        assert!(matches!(r, Refutation::Cyclic { .. }));
        r.check(&hg, 1).unwrap();
        assert_eq!(r.check(&hg, 2), Err(CheckError::WidthNotExceeded));
    }

    #[test]
    fn acyclic_families_are_never_refuted_at_one() {
        let path = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let star = Hypergraph::from_edge_lists(&[vec![0, 1], vec![0, 2], vec![0, 3]]);
        let covered =
            Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1, 2]]);
        let forest = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![3, 4], vec![4, 5]]);
        for hg in [path, star, covered, forest] {
            assert!(refute(&hg, 1).is_none(), "{hg:?}");
        }
    }

    #[test]
    fn tampered_residues_fail() {
        // A triangle plus a pendant path: the residue is the triangle.
        let hg = Hypergraph::from_edge_lists(&[
            vec![0, 1],
            vec![1, 2],
            vec![2, 0],
            vec![2, 3],
            vec![3, 4],
        ]);
        let Some(Refutation::Cyclic { residue }) = refute(&hg, 1) else {
            panic!("a triangle is cyclic");
        };
        assert_eq!(residue.len(), 3);
        Refutation::Cyclic {
            residue: residue.clone(),
        }
        .check(&hg, 1)
        .unwrap();

        // An acyclic part of the hypergraph is no residue.
        let acyclic = EdgeSet::from_iter(5, [Edge(0), Edge(1), Edge(3)]);
        assert_eq!(
            Refutation::Cyclic { residue: acyclic }.check(&hg, 1),
            Err(CheckError::ResidueMismatch)
        );
        // Nor is a strict sub-family, or the empty set.
        let mut short = residue.clone();
        short.remove(Edge(0));
        assert!(Refutation::Cyclic { residue: short }.check(&hg, 1).is_err());
        assert_eq!(
            Refutation::Cyclic {
                residue: EdgeSet::empty(5)
            }
            .check(&hg, 1),
            Err(CheckError::EmptyResidue)
        );

        // A stuck sub-family is not enough: the big edge makes this acyclic.
        let covered =
            Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1, 2]]);
        let triangle = EdgeSet::from_iter(4, [Edge(0), Edge(1), Edge(2)]);
        assert_eq!(
            Refutation::Cyclic { residue: triangle }.check(&covered, 1),
            Err(CheckError::ResidueMismatch)
        );
    }

    #[test]
    fn minor_bound_skips_hypergraphs_over_the_vertex_cap() {
        let mut edges: Vec<Vec<u32>> = Vec::new();
        for a in 0..5u32 {
            for b in a + 1..5 {
                edges.push(vec![a, b]);
            }
        }
        assert!(minor_refutation(&Hypergraph::from_edge_lists(&edges), 2).is_some());
        edges.push(vec![5, MINOR_BOUND_MAX_VERTICES as u32]);
        assert!(minor_refutation(&Hypergraph::from_edge_lists(&edges), 2).is_none());
    }

    #[test]
    fn edgeless_and_isolated_vertices_are_never_refuted() {
        let empty = Hypergraph::from_edge_lists(&[]);
        assert!(minor_refutation(&empty, 2).is_none());
        assert_eq!(minor_min_width(&empty).min_degree, 0);
        // Vertex 3 occurs in no edge (from_edge_lists keeps 0..=max): the
        // heuristic deletes it, and the certificate replays the deletion.
        let sparse = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![0, 2], vec![4, 5]]);
        let full = minor_min_width(&sparse);
        assert_eq!(full.min_degree, 2);
        let isolated = sparse.vertex_by_name("v3").expect("interned");
        assert!(full.steps.contains(&Step::Delete(isolated)), "{full:?}");
        let r = minor_refutation(&sparse, 1).expect("a triangle refutes k · r = 2");
        r.check(&sparse, 1).unwrap();
    }
}
