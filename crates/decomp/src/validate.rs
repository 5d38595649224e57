//! Validators for every decomposition notion used in the paper.
//!
//! Every solver in this workspace returns *certified* output: tests (and
//! debug builds) re-check all conditions here rather than trusting the
//! search. The checks mirror the definitions exactly:
//!
//! * GHD — conditions (1)–(3) of Section 2;
//! * HD — conditions (1)–(4) of Section 2 (adds the *special condition*);
//! * HD of an extended subhypergraph — conditions (1)–(6) of
//!   Definition 3.3.

use hypergraph::{Edge, Hypergraph, SpecialArena, SpecialId, Subproblem, Vertex, VertexSet};

use crate::fragment::{FragLabel, Fragment};
use crate::tree::{Decomposition, NodeId};

/// A violated decomposition condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Condition (1): some hypergraph edge is covered by no bag.
    EdgeNotCovered(Edge),
    /// Condition (2): the nodes containing a vertex are not connected.
    Disconnected(Vertex),
    /// Condition (3): a bag contains a vertex outside `⋃λ(u)`.
    BagNotInLambda { node: usize, vertex: Vertex },
    /// Condition (4), the special condition:
    /// `χ(T_u) ∩ ⋃λ(u) ⊈ χ(u)`.
    SpecialCondition { node: usize, vertex: Vertex },
    /// Width exceeds the requested bound.
    WidthExceeded { width: usize, bound: usize },
    /// Extended condition (2b): a special edge has no dedicated leaf.
    SpecialNotCovered(SpecialId),
    /// Extended condition (5): a special-edge node is not a leaf.
    SpecialNotLeaf { node: usize },
    /// Extended condition (1b): a special leaf's bag differs from its set.
    SpecialBagMismatch { node: usize },
    /// Extended condition (6): `Conn ⊈ χ(root)`.
    ConnNotInRoot(Vertex),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::EdgeNotCovered(e) => write!(f, "edge {e:?} not covered by any bag"),
            Violation::Disconnected(v) => {
                write!(f, "nodes containing vertex {v:?} are not connected")
            }
            Violation::BagNotInLambda { node, vertex } => {
                write!(f, "node {node}: bag vertex {vertex:?} outside ⋃λ")
            }
            Violation::SpecialCondition { node, vertex } => {
                write!(f, "node {node}: special condition violated at {vertex:?}")
            }
            Violation::WidthExceeded { width, bound } => {
                write!(f, "width {width} exceeds bound {bound}")
            }
            Violation::SpecialNotCovered(s) => {
                write!(f, "special edge {s:?} has no dedicated leaf")
            }
            Violation::SpecialNotLeaf { node } => {
                write!(f, "special-edge node {node} is not a leaf")
            }
            Violation::SpecialBagMismatch { node } => {
                write!(f, "special leaf {node} has χ ≠ its special edge")
            }
            Violation::ConnNotInRoot(v) => {
                write!(f, "connector vertex {v:?} missing from root bag")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Checks GHD conditions (1)–(3) of a decomposition of `hg`.
pub fn validate_ghd(hg: &Hypergraph, d: &Decomposition) -> Result<(), Violation> {
    check_cover(hg, d)?;
    check_connectedness(hg, d)?;
    check_bags_in_lambda(hg, d)?;
    Ok(())
}

/// Checks HD conditions (1)–(4) of a decomposition of `hg`.
pub fn validate_hd(hg: &Hypergraph, d: &Decomposition) -> Result<(), Violation> {
    validate_ghd(hg, d)?;
    check_special_condition(hg, d)?;
    Ok(())
}

/// Checks HD conditions plus a width bound.
pub fn validate_hd_width(hg: &Hypergraph, d: &Decomposition, k: usize) -> Result<(), Violation> {
    if d.width() > k {
        return Err(Violation::WidthExceeded {
            width: d.width(),
            bound: k,
        });
    }
    validate_hd(hg, d)
}

fn check_cover(hg: &Hypergraph, d: &Decomposition) -> Result<(), Violation> {
    let order = d.preorder();
    'edges: for e in hg.edge_ids() {
        let set = hg.edge(e);
        for &u in &order {
            if set.is_subset_of(&d.node(u).chi) {
                continue 'edges;
            }
        }
        return Err(Violation::EdgeNotCovered(e));
    }
    Ok(())
}

/// Connectedness via the forest identity: the occurrences of `v` form a
/// subtree iff `#nodes(v) − #tree-edges-with-both-endpoints-containing(v)`
/// equals 1 (or 0 when `v` occurs nowhere).
fn check_connectedness(hg: &Hypergraph, d: &Decomposition) -> Result<(), Violation> {
    let n = hg.num_vertices();
    let mut node_count = vec![0u32; n];
    let mut edge_count = vec![0u32; n];
    for u in d.preorder() {
        for v in &d.node(u).chi {
            node_count[v.0 as usize] += 1;
        }
        if let Some(p) = d.node(u).parent {
            let shared = d.node(u).chi.intersection(&d.node(p).chi);
            for v in &shared {
                edge_count[v.0 as usize] += 1;
            }
        }
    }
    for v in 0..n as u32 {
        let (nc, ec) = (node_count[v as usize], edge_count[v as usize]);
        if nc > 0 && nc - ec != 1 {
            return Err(Violation::Disconnected(Vertex(v)));
        }
    }
    Ok(())
}

fn check_bags_in_lambda(hg: &Hypergraph, d: &Decomposition) -> Result<(), Violation> {
    for u in d.preorder() {
        let node = d.node(u);
        let cover = hg.union_of_slice(&node.lambda);
        if !node.chi.is_subset_of(&cover) {
            let vertex = node
                .chi
                .difference(&cover)
                .first()
                .expect("non-subset has a witness");
            return Err(Violation::BagNotInLambda {
                node: u.0 as usize,
                vertex,
            });
        }
    }
    Ok(())
}

fn check_special_condition(hg: &Hypergraph, d: &Decomposition) -> Result<(), Violation> {
    let subtree = d.subtree_chi(hg);
    for u in d.preorder() {
        let node = d.node(u);
        let mut reach = subtree[u.0 as usize].clone();
        reach.intersect_with(&hg.union_of_slice(&node.lambda));
        if !reach.is_subset_of(&node.chi) {
            let vertex = reach
                .difference(&node.chi)
                .first()
                .expect("non-subset has a witness");
            return Err(Violation::SpecialCondition {
                node: u.0 as usize,
                vertex,
            });
        }
    }
    Ok(())
}

/// Checks all six conditions of Definition 3.3: `frag` is an HD of the
/// extended subhypergraph `⟨sub.edges, sub.specials, conn⟩` of `hg`.
pub fn validate_extended_hd(
    hg: &Hypergraph,
    arena: &SpecialArena,
    sub: &Subproblem,
    conn: &VertexSet,
    frag: &Fragment,
) -> Result<(), Violation> {
    // Condition (1) + (5): node labels well-formed, special nodes are leaves.
    for (i, n) in frag.iter() {
        match &n.label {
            FragLabel::Edges(l) => {
                let cover = hg.union_of_slice(l);
                if !n.chi.is_subset_of(&cover) {
                    let vertex = n.chi.difference(&cover).first().expect("witness");
                    return Err(Violation::BagNotInLambda { node: i, vertex });
                }
            }
            FragLabel::Special(s) => {
                if !n.children.is_empty() {
                    return Err(Violation::SpecialNotLeaf { node: i });
                }
                if &n.chi != arena.get(*s) {
                    return Err(Violation::SpecialBagMismatch { node: i });
                }
            }
        }
    }

    // Condition (2a): every real edge of the subproblem covered by some bag.
    'edges: for e in &sub.edges {
        let set = hg.edge(e);
        for (_, n) in frag.iter() {
            if set.is_subset_of(&n.chi) {
                continue 'edges;
            }
        }
        return Err(Violation::EdgeNotCovered(e));
    }

    // Condition (2b): every special edge has its dedicated leaf.
    for &s in &sub.specials {
        if frag.find_special_leaf(s).is_none() {
            return Err(Violation::SpecialNotCovered(s));
        }
    }

    // Condition (3): connectedness for all vertices of the subproblem.
    let relevant = sub.vertices(hg, arena);
    let nverts = hg.num_vertices();
    let mut node_count = vec![0u32; nverts];
    let mut edge_count = vec![0u32; nverts];
    let mut stack = vec![frag.root];
    while let Some(u) = stack.pop() {
        for v in &frag.nodes[u].chi {
            node_count[v.0 as usize] += 1;
        }
        for &c in &frag.nodes[u].children {
            let shared = frag.nodes[u].chi.intersection(&frag.nodes[c].chi);
            for v in &shared {
                edge_count[v.0 as usize] += 1;
            }
            stack.push(c);
        }
    }
    for v in &relevant {
        let (nc, ec) = (node_count[v.0 as usize], edge_count[v.0 as usize]);
        if nc > 0 && nc - ec != 1 {
            return Err(Violation::Disconnected(v));
        }
    }

    // Condition (4): special condition over the fragment tree.
    let subtree = fragment_subtree_chi(hg, frag);
    for (i, n) in frag.iter() {
        let lam_union = match &n.label {
            FragLabel::Edges(l) => hg.union_of_slice(l),
            FragLabel::Special(s) => arena.get(*s).clone(),
        };
        let mut reach = subtree[i].clone();
        reach.intersect_with(&lam_union);
        if !reach.is_subset_of(&n.chi) {
            let vertex = reach.difference(&n.chi).first().expect("witness");
            return Err(Violation::SpecialCondition { node: i, vertex });
        }
    }

    // Condition (6): Conn ⊆ χ(root).
    if !conn.is_subset_of(&frag.nodes[frag.root].chi) {
        let v = conn
            .difference(&frag.nodes[frag.root].chi)
            .first()
            .expect("witness");
        return Err(Violation::ConnNotInRoot(v));
    }

    Ok(())
}

fn fragment_subtree_chi(hg: &Hypergraph, frag: &Fragment) -> Vec<VertexSet> {
    let mut acc = vec![hg.vertex_set(); frag.nodes.len()];
    // Postorder via explicit stack.
    let mut order = Vec::with_capacity(frag.nodes.len());
    let mut stack = vec![frag.root];
    while let Some(u) = stack.pop() {
        order.push(u);
        for &c in &frag.nodes[u].children {
            stack.push(c);
        }
    }
    for &u in order.iter().rev() {
        let mut s = frag.nodes[u].chi.clone();
        for &c in &frag.nodes[u].children {
            s.union_with(&acc[c]);
        }
        acc[u] = s;
    }
    acc
}

/// Checks the normal-form properties of Definition 3.5 for a *plain* HD
/// (E' = E(H), Sp = ∅): for every parent/child pair, the child subtree
/// covers exactly one `[χ(p)]`-component, makes progress, and uses the
/// minimal χ. Used by tests on solver output where normal form is expected.
pub fn is_normal_form(hg: &Hypergraph, d: &Decomposition) -> bool {
    use hypergraph::separate;
    let arena = SpecialArena::new();
    let sub = Subproblem::whole(hg);
    for p in d.preorder() {
        let sep = &d.node(p).chi;
        let separation = separate(hg, &arena, &sub, sep);
        for &c in &d.node(p).children {
            // cov(T_c): edges covered for the first time in T_c.
            let cov = first_covered_in_subtree(hg, d, c);
            // Exactly one [χ(p)]-component must equal cov(T_c).
            let matching = separation
                .components
                .iter()
                .filter(|comp| *comp.edges() == cov)
                .count();
            if matching != 1 {
                return false;
            }
            // Progress: some edge of that component is fully inside χ(c).
            let comp = separation
                .components
                .iter()
                .find(|comp| *comp.edges() == cov)
                .expect("counted above");
            if !comp
                .edges()
                .iter()
                .any(|e| hg.edge(e).is_subset_of(&d.node(c).chi))
            {
                return false;
            }
        }
    }
    true
}

/// Edges covered for the first time within the subtree rooted at `c`
/// (no ancestor bag covers them) — `cov(T_c)` of Definition 3.4.
fn first_covered_in_subtree(hg: &Hypergraph, d: &Decomposition, c: NodeId) -> hypergraph::EdgeSet {
    // Ancestor bags of c (strict).
    let mut ancestors = Vec::new();
    let mut cur = d.node(c).parent;
    while let Some(p) = cur {
        ancestors.push(p);
        cur = d.node(p).parent;
    }
    let mut cov = hg.edge_set();
    let mut stack = vec![c];
    let mut subtree_nodes = Vec::new();
    while let Some(u) = stack.pop() {
        subtree_nodes.push(u);
        for &ch in &d.node(u).children {
            stack.push(ch);
        }
    }
    'edges: for e in hg.edge_ids() {
        let set = hg.edge(e);
        for &a in &ancestors {
            if set.is_subset_of(&d.node(a).chi) {
                continue 'edges;
            }
        }
        for &u in &subtree_nodes {
            if set.is_subset_of(&d.node(u).chi) {
                cov.insert(e);
                continue 'edges;
            }
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vset(n: usize, vs: &[u32]) -> VertexSet {
        VertexSet::from_iter(n, vs.iter().map(|&v| Vertex(v)))
    }

    /// The width-2 HD of the 10-cycle from Figure 2a of the paper.
    fn cycle10() -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..10).map(|i| vec![i, (i + 1) % 10]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    fn figure2a(hg: &Hypergraph) -> Decomposition {
        // u1..u8 top-down; node ui has λ = {R1, Ri+1}, χ = {x1, xi+1, xi+2}
        // with paper vertices xj ↔ our vertex j-1 and Rj ↔ edge j-1.
        let n = hg.num_vertices();
        let mut d = Decomposition::singleton(vec![Edge(0), Edge(1)], vset(n, &[0, 1, 2]));
        let mut parent = d.root();
        for i in 2..=8u32 {
            parent = d.add_child(parent, vec![Edge(0), Edge(i)], vset(n, &[0, i, i + 1]));
        }
        d
    }

    #[test]
    fn figure2a_is_a_valid_width2_hd() {
        let hg = cycle10();
        let d = figure2a(&hg);
        assert_eq!(d.width(), 2);
        validate_hd_width(&hg, &d, 2).unwrap();
    }

    #[test]
    fn detects_uncovered_edge() {
        let hg = cycle10();
        let mut d = figure2a(&hg);
        // Shrink a bag so edge e9 = {9, 0} loses its cover.
        let last = NodeId((d.num_nodes() - 1) as u32);
        let n = hg.num_vertices();
        d = {
            let mut labels = Vec::new();
            let mut children = Vec::new();
            for u in 0..d.num_nodes() as u32 {
                let node = d.node(NodeId(u));
                let chi = if NodeId(u) == last {
                    vset(n, &[0, 8])
                } else {
                    node.chi.clone()
                };
                labels.push((node.lambda.clone(), chi));
                children.push(node.children.iter().map(|c| c.0).collect());
            }
            Decomposition::from_parts(labels, children, 0)
        };
        assert!(matches!(
            validate_hd(&hg, &d),
            Err(Violation::EdgeNotCovered(_))
        ));
    }

    #[test]
    fn detects_disconnected_vertex() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![0, 2]]);
        // Chain where vertex 0 appears at both ends but not in the middle.
        let d = Decomposition::from_parts(
            vec![
                (vec![Edge(0)], vset(3, &[0, 1])),
                (vec![Edge(1)], vset(3, &[1, 2])),
                (vec![Edge(2)], vset(3, &[0, 2])),
            ],
            vec![vec![1], vec![2], vec![]],
            0,
        );
        assert_eq!(
            validate_hd(&hg, &d),
            Err(Violation::Disconnected(Vertex(0)))
        );
    }

    #[test]
    fn detects_bag_outside_lambda() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![2, 3]]);
        let d = Decomposition::from_parts(
            vec![
                (vec![Edge(0)], vset(4, &[0, 1, 2])),
                (vec![Edge(1)], vset(4, &[2, 3])),
            ],
            vec![vec![1], vec![]],
            0,
        );
        assert!(matches!(
            validate_ghd(&hg, &d),
            Err(Violation::BagNotInLambda { .. })
        ));
    }

    #[test]
    fn detects_special_condition_violation() {
        // Vertex 0 occurs in ⋃λ(node 1) via e0 but not in χ(node 1), yet
        // reappears in the subtree below: χ(T_1) ∩ ⋃λ(1) ⊈ χ(1).
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 0]]);
        let n = 3;
        let d = Decomposition::from_parts(
            vec![
                (vec![Edge(0)], vset(n, &[0, 1])),
                (vec![Edge(1), Edge(0)], vset(n, &[1, 2])),
                (vec![Edge(2)], vset(n, &[2, 0])),
            ],
            vec![vec![1], vec![2], vec![]],
            0,
        );
        // χ(T_1) = {0,1,2}; ⋃λ(1) = {0,1,2}; intersection ⊈ {1,2}.
        assert!(matches!(
            check_special_condition(&hg, &d),
            Err(Violation::SpecialCondition { node: 1, .. })
        ));
    }

    #[test]
    fn extended_validator_accepts_fragment_with_special_leaf() {
        // Figure 2c: fragment D1.2 for E' = {R3,R4,R5}, Sp = {s1}, Conn = {x1,x3}.
        let hg = cycle10();
        let n = hg.num_vertices();
        let mut arena = SpecialArena::new();
        let s1 = arena.push(vset(n, &[0, 5, 6])); // {x1, x6, x7}
        let mut sub = Subproblem::empty(&hg);
        sub.edges.insert(Edge(2)); // R3
        sub.edges.insert(Edge(3)); // R4
        sub.edges.insert(Edge(4)); // R5
        sub.specials.push(s1);
        let conn = vset(n, &[0, 2]); // {x1, x3}

        let mut frag = Fragment::leaf(vec![Edge(0), Edge(2)], vset(n, &[0, 2, 3]));
        let c1 = frag.absorb(Fragment::leaf(vec![Edge(0), Edge(3)], vset(n, &[0, 3, 4])));
        frag.nodes[0].children.push(c1);
        let c2 = frag.absorb(Fragment::leaf(vec![Edge(0), Edge(4)], vset(n, &[0, 4, 5])));
        frag.nodes[c1].children.push(c2);
        let c3 = frag.absorb(Fragment::special_leaf(s1, arena.get(s1).clone()));
        frag.nodes[c2].children.push(c3);

        validate_extended_hd(&hg, &arena, &sub, &conn, &frag).unwrap();
    }

    #[test]
    fn extended_validator_rejects_missing_special_leaf() {
        let hg = cycle10();
        let n = hg.num_vertices();
        let mut arena = SpecialArena::new();
        let s1 = arena.push(vset(n, &[0, 5, 6]));
        let mut sub = Subproblem::empty(&hg);
        sub.edges.insert(Edge(2));
        sub.specials.push(s1);
        let frag = Fragment::leaf(vec![Edge(0), Edge(2)], vset(n, &[0, 2, 3]));
        assert_eq!(
            validate_extended_hd(&hg, &arena, &sub, &hg.vertex_set(), &frag),
            Err(Violation::SpecialNotCovered(s1))
        );
    }

    #[test]
    fn extended_validator_checks_conn_in_root() {
        let hg = cycle10();
        let n = hg.num_vertices();
        let arena = SpecialArena::new();
        let mut sub = Subproblem::empty(&hg);
        sub.edges.insert(Edge(2));
        let conn = vset(n, &[7]);
        let frag = Fragment::leaf(vec![Edge(2)], vset(n, &[2, 3]));
        assert_eq!(
            validate_extended_hd(&hg, &arena, &sub, &conn, &frag),
            Err(Violation::ConnNotInRoot(Vertex(7)))
        );
    }

    #[test]
    fn figure2a_is_normal_form() {
        let hg = cycle10();
        let d = figure2a(&hg);
        assert!(is_normal_form(&hg, &d));
    }
}
