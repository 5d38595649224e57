//! The hypergraph type and its builder.

use std::collections::HashMap;
use std::fmt;

use crate::bitset::{Edge, EdgeSet, Vertex, VertexSet};
use crate::matrix::MaskMatrix;

/// A hypergraph `H = (V(H), E(H))`.
///
/// Vertices and edges are interned: externally they have string names
/// (as in HyperBench's `atom(var1,var2)` syntax), internally they are dense
/// `u32` indices so that all set operations are bitset operations.
///
/// Per the paper's convention (Section 2) there are no isolated vertices:
/// every vertex occurs in at least one edge, so a hypergraph is identified
/// with its edge set.
#[derive(Clone)]
pub struct Hypergraph {
    vertex_names: Vec<String>,
    edge_names: Vec<String>,
    /// `edges[e]` is the vertex set of edge `e`.
    edges: Vec<VertexSet>,
    /// `incidence[v]` is the set of edges containing vertex `v`.
    incidence: Vec<EdgeSet>,
    /// SoA mirror of `edges`: row `e` is edge `e`'s vertex blocks, all
    /// rows in one contiguous allocation. The union folds
    /// ([`Self::union_of_into`] and friends) stream these rows instead
    /// of chasing per-edge heap pointers.
    edge_rows: MaskMatrix<Vertex>,
    /// SoA mirror of `incidence`, streamed by the
    /// [`Self::edges_touching_into`] folds.
    incidence_rows: MaskMatrix<Edge>,
}

impl Hypergraph {
    /// Number of vertices `|V(H)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_names.len()
    }

    /// Number of edges `|E(H)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The vertex set of edge `e`.
    #[inline]
    pub fn edge(&self, e: Edge) -> &VertexSet {
        &self.edges[e.0 as usize]
    }

    /// The set of edges containing vertex `v`.
    #[inline]
    pub fn incident_edges(&self, v: Vertex) -> &EdgeSet {
        &self.incidence[v.0 as usize]
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.edges.len() as u32).map(Edge)
    }

    /// Iterates over all vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = Vertex> + '_ {
        (0..self.vertex_names.len() as u32).map(Vertex)
    }

    /// The full edge set `E(H)`.
    pub fn all_edges(&self) -> EdgeSet {
        EdgeSet::full(self.num_edges())
    }

    /// The full vertex set `V(H)`.
    pub fn all_vertices(&self) -> VertexSet {
        VertexSet::full(self.num_vertices())
    }

    /// An empty vertex set sized for this hypergraph.
    #[inline]
    pub fn vertex_set(&self) -> VertexSet {
        VertexSet::empty(self.num_vertices())
    }

    /// An empty edge set sized for this hypergraph.
    #[inline]
    pub fn edge_set(&self) -> EdgeSet {
        EdgeSet::empty(self.num_edges())
    }

    /// Union of the vertex sets of the given edges — `⋃S` in the paper.
    pub fn union_of(&self, edges: &EdgeSet) -> VertexSet {
        let mut s = self.vertex_set();
        for e in edges {
            s.union_with(self.edge(e));
        }
        s
    }

    /// Union of the vertex sets of edges given as a slice of ids.
    pub fn union_of_slice(&self, edges: &[Edge]) -> VertexSet {
        let mut s = self.vertex_set();
        self.union_of_slice_into(edges, &mut s);
        s
    }

    /// Like [`Self::union_of`], writing into a caller-owned buffer instead
    /// of allocating. `out` is reset to this hypergraph's vertex universe.
    ///
    /// Returns `true` if `out`'s buffer had to grow, so scratch-workspace
    /// callers can meter steady-state reallocation.
    pub fn union_of_into(&self, edges: &EdgeSet, out: &mut VertexSet) -> bool {
        let grew = out.reset(self.num_vertices());
        for e in edges {
            self.edge_rows.or_row_into(e.0 as usize, out);
        }
        grew
    }

    /// Like [`Self::union_of_slice`], writing into a caller-owned buffer
    /// instead of allocating. `out` is reset to this hypergraph's vertex
    /// universe.
    ///
    /// Returns `true` if `out`'s buffer had to grow (see
    /// [`Self::union_of_into`]).
    pub fn union_of_slice_into(&self, edges: &[Edge], out: &mut VertexSet) -> bool {
        let grew = out.reset(self.num_vertices());
        for &e in edges {
            self.edge_rows.or_row_into(e.0 as usize, out);
        }
        grew
    }

    /// The set of edges touching any vertex of `vs` — the union of the
    /// incidence rows of `vs`, i.e. `{e ∈ E(H) : e ∩ vs ≠ ∅}` as one
    /// word-parallel coverage bitmask.
    ///
    /// This is the "per-candidate-set union summary" behind the engine's
    /// λp admissibility pre-filter: membership of an edge in the mask
    /// replaces a per-edge vertex-set intersection test.
    pub fn edges_touching(&self, vs: &VertexSet) -> EdgeSet {
        let mut out = self.edge_set();
        self.edges_touching_into(vs, &mut out);
        out
    }

    /// Like [`Self::edges_touching`], writing into a caller-owned buffer
    /// instead of allocating. `out` is reset to this hypergraph's edge
    /// universe.
    ///
    /// Returns `true` if `out`'s buffer had to grow, so scratch-workspace
    /// callers can meter steady-state reallocation.
    pub fn edges_touching_into(&self, vs: &VertexSet, out: &mut EdgeSet) -> bool {
        let grew = out.reset(self.num_edges());
        for v in vs {
            self.incidence_rows.or_row_into(v.0 as usize, out);
        }
        grew
    }

    /// Name of vertex `v`.
    pub fn vertex_name(&self, v: Vertex) -> &str {
        &self.vertex_names[v.0 as usize]
    }

    /// Name of edge `e`.
    pub fn edge_name(&self, e: Edge) -> &str {
        &self.edge_names[e.0 as usize]
    }

    /// Looks up a vertex by name (linear scan; intended for tests/UX).
    pub fn vertex_by_name(&self, name: &str) -> Option<Vertex> {
        self.vertex_names
            .iter()
            .position(|n| n == name)
            .map(|i| Vertex(i as u32))
    }

    /// Looks up an edge by name (linear scan; intended for tests/UX).
    pub fn edge_by_name(&self, name: &str) -> Option<Edge> {
        self.edge_names
            .iter()
            .position(|n| n == name)
            .map(|i| Edge(i as u32))
    }

    /// Largest edge cardinality (maximum arity).
    pub fn max_arity(&self) -> usize {
        self.edges.iter().map(|e| e.len()).max().unwrap_or(0)
    }

    /// Mean edge cardinality; 0.0 for the empty hypergraph.
    pub fn avg_arity(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        self.edges.iter().map(|e| e.len()).sum::<usize>() as f64 / self.edges.len() as f64
    }

    /// Largest vertex degree.
    pub fn max_degree(&self) -> usize {
        self.incidence.iter().map(|i| i.len()).max().unwrap_or(0)
    }

    /// Builds a hypergraph from plain vertex-index edge lists.
    ///
    /// Vertex index `i` is named `v{i}`, edge `j` is named `e{j}`. Intended
    /// for generators and tests. Vertices get ids in order of first
    /// occurrence in the edge lists, and the indices in `0..=max` that
    /// occur in no edge are appended after them as isolated vertices
    /// (ignored by all algorithms, which operate on edges). So `Vertex(i)`
    /// is `v{i}` only when the indices first occur in ascending order
    /// without gaps; [`Self::vertex_by_name`]`("v{i}")` is the stable
    /// lookup.
    pub fn from_edge_lists(edge_lists: &[Vec<u32>]) -> Self {
        let n = edge_lists
            .iter()
            .flat_map(|e| e.iter())
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut b = HypergraphBuilder::new();
        for (i, list) in edge_lists.iter().enumerate() {
            let names: Vec<String> = list.iter().map(|v| format!("v{v}")).collect();
            let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            b.add_edge(&format!("e{i}"), &name_refs);
        }
        // Every index in 0..n becomes a vertex, the ones no edge named
        // last: ids follow first occurrence, so look vertices up by name.
        for v in 0..n {
            b.intern_vertex(&format!("v{v}"));
        }
        b.build()
    }

    /// Removes duplicate edges and edges contained in another edge.
    ///
    /// Both reductions preserve hypertree width: an edge `e ⊆ f` is covered
    /// by any node covering `f`, and using `f` in a λ-label is never worse
    /// than using `e`. Returns the reduced hypergraph and, for each retained
    /// edge, its original id.
    pub fn reduced(&self) -> (Hypergraph, Vec<Edge>) {
        let m = self.num_edges();
        let mut keep = vec![true; m];
        // Sort edge ids by descending cardinality; an edge can only be
        // subsumed by an edge at least as large that is kept.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.edges[i].len()));
        for (pos, &i) in order.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            for &j in &order[pos + 1..] {
                if keep[j] && self.edges[j].is_subset_of(&self.edges[i]) {
                    keep[j] = false;
                }
            }
        }
        let kept: Vec<Edge> = (0..m as u32)
            .map(Edge)
            .filter(|e| keep[e.0 as usize])
            .collect();
        let mut b = HypergraphBuilder::new();
        for &e in &kept {
            let names: Vec<&str> = self.edge(e).iter().map(|v| self.vertex_name(v)).collect();
            b.add_edge(self.edge_name(e), &names);
        }
        (b.build(), kept)
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Hypergraph(|V|={}, |E|={})",
            self.num_vertices(),
            self.num_edges()
        )?;
        for e in self.edge_ids() {
            let vs: Vec<&str> = self.edge(e).iter().map(|v| self.vertex_name(v)).collect();
            writeln!(f, "  {}({})", self.edge_name(e), vs.join(","))?;
        }
        Ok(())
    }
}

/// Incremental construction of a [`Hypergraph`] with name interning.
#[derive(Default)]
pub struct HypergraphBuilder {
    vertex_ids: HashMap<String, u32>,
    vertex_names: Vec<String>,
    edge_names: Vec<String>,
    edge_lists: Vec<Vec<u32>>,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a vertex name, returning its id.
    pub fn intern_vertex(&mut self, name: &str) -> Vertex {
        if let Some(&id) = self.vertex_ids.get(name) {
            return Vertex(id);
        }
        let id = self.vertex_names.len() as u32;
        self.vertex_ids.insert(name.to_owned(), id);
        self.vertex_names.push(name.to_owned());
        Vertex(id)
    }

    /// Adds an edge with the given name over the given vertex names.
    /// Returns the new edge's id.
    pub fn add_edge(&mut self, edge_name: &str, vertices: &[&str]) -> Edge {
        let list: Vec<u32> = vertices.iter().map(|v| self.intern_vertex(v).0).collect();
        let id = Edge(self.edge_lists.len() as u32);
        self.edge_names.push(edge_name.to_owned());
        self.edge_lists.push(list);
        id
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edge_lists.len()
    }

    /// Finalises the hypergraph, computing the incidence index.
    pub fn build(self) -> Hypergraph {
        let n = self.vertex_names.len();
        let m = self.edge_lists.len();
        let mut edges = Vec::with_capacity(m);
        let mut incidence = vec![EdgeSet::empty(m); n];
        for (ei, list) in self.edge_lists.iter().enumerate() {
            let mut set = VertexSet::empty(n);
            for &v in list {
                set.insert(Vertex(v));
                incidence[v as usize].insert(Edge(ei as u32));
            }
            edges.push(set);
        }
        let mut edge_rows = MaskMatrix::new();
        edge_rows.reset(m, n);
        for (ei, set) in edges.iter().enumerate() {
            edge_rows.set_row(ei, set);
        }
        let mut incidence_rows = MaskMatrix::new();
        incidence_rows.reset(n, m);
        for (vi, set) in incidence.iter().enumerate() {
            incidence_rows.set_row(vi, set);
        }
        Hypergraph {
            vertex_names: self.vertex_names,
            edge_names: self.edge_names,
            edges,
            incidence,
            edge_rows,
            incidence_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        // Three edges pairwise sharing a vertex.
        Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 0]])
    }

    #[test]
    fn builder_interns_and_indexes() {
        let mut b = HypergraphBuilder::new();
        b.add_edge("R1", &["x", "y"]);
        b.add_edge("R2", &["y", "z"]);
        let h = b.build();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        let y = h.vertex_by_name("y").unwrap();
        assert_eq!(h.incident_edges(y).len(), 2);
        assert_eq!(h.edge_name(Edge(0)), "R1");
        assert_eq!(h.vertex_name(Vertex(0)), "x");
    }

    #[test]
    fn union_of_edges() {
        let h = triangle();
        let mut es = h.edge_set();
        es.insert(Edge(0));
        es.insert(Edge(1));
        let u = h.union_of(&es);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn edges_touching_matches_per_edge_intersection() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![5, 6]]);
        for vs in [
            VertexSet::empty(h.num_vertices()),
            VertexSet::from_iter(h.num_vertices(), [Vertex(2)]),
            VertexSet::from_iter(h.num_vertices(), [Vertex(0), Vertex(4)]),
            h.all_vertices(),
        ] {
            let mask = h.edges_touching(&vs);
            for e in h.edge_ids() {
                assert_eq!(
                    mask.contains(e),
                    h.edge(e).intersects(&vs),
                    "edge {e:?} vs {vs:?}"
                );
            }
            // The _into variant agrees and stops growing once warm.
            let mut out = h.edge_set();
            assert!(!h.edges_touching_into(&vs, &mut out));
            assert_eq!(out, mask);
        }
    }

    #[test]
    fn matrix_backed_folds_agree_with_per_set_loops() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![5, 6]]);
        // union_of_into streams edge_rows; compare against a naive fold
        // over the per-edge bitsets.
        let mut es = h.edge_set();
        es.insert(Edge(0));
        es.insert(Edge(2));
        let mut fast = h.vertex_set();
        h.union_of_into(&es, &mut fast);
        let mut naive = h.vertex_set();
        for e in &es {
            naive.union_with(h.edge(e));
        }
        assert_eq!(fast, naive);
        assert!(fast.tail_invariant_ok());
    }

    #[test]
    fn arity_and_degree_stats() {
        let h = Hypergraph::from_edge_lists(&[vec![0, 1, 2, 3], vec![3, 4], vec![3]]);
        assert_eq!(h.max_arity(), 4);
        assert_eq!(h.max_degree(), 3); // vertex 3 in all three edges
        assert!((h.avg_arity() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reduced_removes_subsumed_and_duplicate_edges() {
        let h = Hypergraph::from_edge_lists(&[
            vec![0, 1, 2],
            vec![0, 1],    // subsumed by e0
            vec![0, 1, 2], // duplicate of e0
            vec![2, 3],
        ]);
        let (r, kept) = h.reduced();
        assert_eq!(r.num_edges(), 2);
        assert_eq!(kept.len(), 2);
        // e0 (or its duplicate) and e3 survive.
        assert!(kept.contains(&Edge(0)) || kept.contains(&Edge(2)));
        assert!(kept.contains(&Edge(3)));
    }

    #[test]
    fn from_edge_lists_names_are_stable() {
        let h = triangle();
        assert_eq!(h.vertex_by_name("v1"), Some(Vertex(1)));
        assert_eq!(h.edge_by_name("e2"), Some(Edge(2)));
        // Past a gap, ids follow first occurrence: the isolated `v3` is
        // interned last, so only its name finds it.
        let h = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![0, 2], vec![4, 5]]);
        assert_eq!(h.num_vertices(), 6);
        assert_eq!(h.vertex_by_name("v4"), Some(Vertex(3)));
        let v3 = h
            .vertex_by_name("v3")
            .expect("every index up to the max is a vertex");
        assert_eq!(v3, Vertex(5));
        assert!(h.incident_edges(v3).is_empty());
    }
}
