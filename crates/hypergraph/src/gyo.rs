//! GYO (Graham / Yu–Özsoyoğlu) reduction and α-acyclicity.
//!
//! A hypergraph has hypertree width 1 iff it is α-acyclic iff the GYO
//! reduction eliminates all of its edges. The reduction repeatedly
//! 1. removes *ear vertices* — vertices occurring in exactly one edge, and
//! 2. removes an edge contained in another (surviving) edge, recording the
//!    container as its *witness* (which yields a join tree).

use crate::bitset::{Edge, EdgeSet, Vertex, VertexSet};
use crate::graph::Hypergraph;

/// Outcome of running the GYO reduction.
#[derive(Clone, Debug)]
pub struct GyoResult {
    /// Whether the hypergraph is α-acyclic (equivalently, hw ≤ 1).
    pub acyclic: bool,
    /// For each eliminated edge, the surviving edge it was folded into.
    /// Together these parent links form a join tree when `acyclic`: an
    /// emptied edge folds into any alive one, so the last survivor is the
    /// only edge without a parent.
    pub witness: Vec<Option<Edge>>,
    /// Edges still alive when the reduction got stuck (empty iff acyclic).
    pub residue: EdgeSet,
}

/// Runs the GYO reduction on `hg`.
///
/// Work-list driven, so the cost is near-linear in the input: an ear's
/// holder is its one alive incident edge, and only an edge whose set just
/// shrank is re-tested for containment (sets only shrink, so no other
/// edge can newly fit inside another).
pub fn gyo(hg: &Hypergraph) -> GyoResult {
    let m = hg.num_edges();
    let mut sets: Vec<VertexSet> = hg.edge_ids().map(|e| hg.edge(e).clone()).collect();
    let mut alive = EdgeSet::full(m);
    let mut witness: Vec<Option<Edge>> = vec![None; m];

    // degree[v] = number of alive edges whose *current* set contains v.
    // A vertex leaves a set only as an ear (and its degree drops to 0),
    // so while degree[v] > 0 every alive edge incident to v holds it.
    let mut degree: Vec<usize> = hg
        .vertex_ids()
        .map(|v| hg.incident_edges(v).len())
        .collect();
    let mut ears: Vec<Vertex> = hg
        .vertex_ids()
        .filter(|v| degree[v.0 as usize] == 1)
        .collect();
    let mut dirty: Vec<Edge> = hg.edge_ids().collect();
    let mut queued = EdgeSet::full(m);

    loop {
        // Rule 1: drop vertices of degree 1 from their unique edge.
        while let Some(v) = ears.pop() {
            if degree[v.0 as usize] != 1 {
                continue; // its holder was removed since it was queued
            }
            let e = hg
                .incident_edges(v)
                .iter()
                .find(|&e| alive.contains(e))
                .expect("degree 1 means one alive holder");
            sets[e.0 as usize].remove(v);
            degree[v.0 as usize] = 0;
            if queued.insert(e) {
                dirty.push(e);
            }
        }

        // Rule 2: remove a shrunk edge contained in another alive edge
        // (an empty edge is contained in anything alive). A container
        // must hold e's rarest vertex, so only its holders are tried.
        let Some(e) = dirty.pop() else { break };
        queued.remove(e);
        if !alive.contains(e) {
            continue;
        }
        let set = &sets[e.0 as usize];
        let container = match set.iter().min_by_key(|v| degree[v.0 as usize]) {
            Some(v) => hg
                .incident_edges(v)
                .iter()
                .find(|&f| f != e && alive.contains(f) && set.is_subset_of(&sets[f.0 as usize])),
            None => alive.iter().find(|&f| f != e),
        };
        if let Some(f) = container {
            alive.remove(e);
            witness[e.0 as usize] = Some(f);
            for v in &sets[e.0 as usize] {
                degree[v.0 as usize] -= 1;
                if degree[v.0 as usize] == 1 {
                    ears.push(v);
                }
            }
        }
    }

    // A sole survivor's vertices are all ears: the last edge reduces away.
    if alive.len() == 1 {
        alive.clear();
    }

    GyoResult {
        acyclic: alive.is_empty(),
        witness,
        residue: alive,
    }
}

/// Convenience: is `hg` α-acyclic (hw ≤ 1)?
pub fn is_acyclic(hg: &Hypergraph) -> bool {
    gyo(hg).acyclic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_is_acyclic() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn star_is_acyclic() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![0, 2], vec![0, 3]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn triangle_of_binary_edges_is_cyclic() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 0]]);
        let r = gyo(&h);
        assert!(!r.acyclic);
        assert_eq!(r.residue.len(), 3);
    }

    #[test]
    fn triangle_covered_by_big_edge_is_acyclic() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 0], vec![0, 1, 2]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn cycle_ten_is_cyclic() {
        let edges: Vec<Vec<u32>> = (0..10).map(|i| vec![i, (i + 1) % 10]).collect();
        let h = Hypergraph::from_edge_lists(&edges);
        assert!(!is_acyclic(&h));
    }

    #[test]
    fn single_edge_is_acyclic() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1, 2]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn disconnected_acyclic_components() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![3, 4], vec![4, 5]]);
        assert!(is_acyclic(&h));
    }

    #[test]
    fn witness_forms_join_forest_on_acyclic_input() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![1, 2, 3]]);
        let r = gyo(&h);
        assert!(r.acyclic);
        // At least one edge must have been folded into another.
        assert!(r.witness.iter().any(|w| w.is_some()));
    }
}
