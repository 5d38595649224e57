//! SAT-based optimal-width decomposition solver — the workspace's
//! substitute for **HtdLEO** (Schidler & Szeider, IJCAI 2021).
//!
//! # Substitution caveat (see also `DESIGN.md` §5)
//!
//! HtdLEO decides *hypertree width* with an ordering-based SAT encoding
//! that includes special-condition constraints. This crate's encoding
//! ([`encode`](mod@encode)) decides **generalized hypertree width** exactly:
//!
//! * `ghw(H) ≤ k` **iff** some elimination ordering of `H`'s primal graph
//!   yields fill-in bags that are each coverable by ≤ k hyperedges.
//!   (⇐) such a tree decomposition with its covers *is* a GHD;
//!   (⇒) a GHD is a TD with covers, and any TD can be converted to an
//!   elimination-ordering TD whose bags only shrink, preserving covers.
//!
//! The paper observes (Section 5.2) that on every HyperBench instance with
//! known optimum, `ghw = hw`; the harness cross-checks this on our corpus
//! and reports any divergence, keeping the baseline comparison honest.
//!
//! Like HtdLEO, this solver computes the **optimal** width directly
//! (iterating the decision encoding), needs no width parameter from the
//! user, and is memory-hungry: encodings above a clause budget are refused
//! with [`HtdSatError::EncodingTooLarge`], mirroring HtdLEO's memouts.

pub mod encode;

use decomp::{validate_ghd, Control, Decomposition, Interrupted};
use hypergraph::{Edge, Hypergraph, VertexSet};
use satsolver::{LBool, Solver, Status};

pub use encode::{encode, estimate_clauses, Encoding};

/// Failure modes of the SAT baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HtdSatError {
    /// Cancelled or timed out.
    Interrupted(Interrupted),
    /// The encoding would exceed the clause budget (a memout, in the
    /// paper's terms).
    EncodingTooLarge {
        /// The estimate that tripped the budget.
        estimated_clauses: u64,
    },
}

impl std::fmt::Display for HtdSatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HtdSatError::Interrupted(i) => write!(f, "{i}"),
            HtdSatError::EncodingTooLarge { estimated_clauses } => {
                write!(f, "encoding too large ({estimated_clauses} clauses)")
            }
        }
    }
}

impl std::error::Error for HtdSatError {}

/// Default clause budget (≈ a few hundred MB of clause storage).
pub const DEFAULT_CLAUSE_BUDGET: u64 = 3_000_000;

/// Decides `ghw(H) ≤ k`; on success returns a witness GHD.
pub fn decide_ghw(
    hg: &Hypergraph,
    k: usize,
    ctrl: &Control,
) -> Result<Option<Decomposition>, HtdSatError> {
    decide_ghw_with_budget(hg, k, ctrl, DEFAULT_CLAUSE_BUDGET)
}

/// [`decide_ghw`] with an explicit clause budget.
pub fn decide_ghw_with_budget(
    hg: &Hypergraph,
    k: usize,
    ctrl: &Control,
    budget: u64,
) -> Result<Option<Decomposition>, HtdSatError> {
    assert!(k >= 1);
    // Bail before paying for an encoding nobody will solve: a portfolio
    // race may have cancelled this engine while it sat queued.
    if let Err(e) = ctrl.checkpoint_coarse() {
        return Err(HtdSatError::Interrupted(e));
    }
    if hg.num_edges() == 0 {
        return Ok(Some(Decomposition::singleton(vec![], hg.vertex_set())));
    }
    let est = estimate_clauses(hg);
    if est > budget {
        return Err(HtdSatError::EncodingTooLarge {
            estimated_clauses: est,
        });
    }
    let mut solver = Solver::new();
    let enc = encode(hg, k, &mut solver);
    // The solver polls once per batch of conflicts — far too sparse for
    // the stride-amortised `checkpoint`, whose deadline consult would
    // then hinge on the control's one-shot first poll (consumed above).
    match solver.solve_with(|| ctrl.checkpoint_coarse().is_err()) {
        Status::Unsat => Ok(None),
        Status::Interrupted => Err(HtdSatError::Interrupted(
            ctrl.checkpoint_coarse()
                .expect_err("solver only interrupts when ctrl fired"),
        )),
        Status::Sat => Ok(Some(decode(hg, &enc, &solver))),
    }
}

/// Computes the optimal generalized hypertree width (≤ `k_max`), like
/// HtdLEO computes optimal hw directly.
pub fn optimal_ghw(
    hg: &Hypergraph,
    k_max: usize,
    ctrl: &Control,
) -> Result<Option<(usize, Decomposition)>, HtdSatError> {
    for k in 1..=k_max {
        if let Some(d) = decide_ghw(hg, k, ctrl)? {
            return Ok(Some((k, d)));
        }
    }
    Ok(None)
}

/// Rebuilds a certified GHD from a model: take the *order* from the model,
/// recompute the fill-in bags from scratch (models may over-approximate
/// `arc`), and use the model's cover choices (valid for any subset of the
/// model's bags).
#[allow(clippy::needless_range_loop)] // parallel arrays indexed by vertex position
fn decode(hg: &Hypergraph, enc: &Encoding, solver: &Solver) -> Decomposition {
    let n = enc.verts.len();
    // Positions from the ord variables: vertex with fewer predecessors
    // comes first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&a| {
        (0..n)
            .filter(|&b| b != a && solver_value(solver, enc.before(b, a)))
            .count()
    });
    let mut rank = vec![0usize; n];
    for (r, &a) in order.iter().enumerate() {
        rank[a] = r;
    }

    // Fill-in simulation over positions in `verts`.
    let mut adj: Vec<Vec<bool>> = vec![vec![false; n]; n];
    let mut pos_of = vec![usize::MAX; hg.num_vertices()];
    for (i, &v) in enc.verts.iter().enumerate() {
        pos_of[v.0 as usize] = i;
    }
    for e in hg.edge_ids() {
        let members: Vec<usize> = hg.edge(e).iter().map(|v| pos_of[v.0 as usize]).collect();
        for (x, &a) in members.iter().enumerate() {
            for &b in &members[x + 1..] {
                adj[a][b] = true;
                adj[b][a] = true;
            }
        }
    }
    let mut bags: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &a in &order {
        let higher: Vec<usize> = (0..n)
            .filter(|&b| b != a && adj[a][b] && rank[b] > rank[a])
            .collect();
        for (x, &b) in higher.iter().enumerate() {
            for &c in &higher[x + 1..] {
                adj[b][c] = true;
                adj[c][b] = true;
            }
        }
        bags[a] = higher;
    }

    // One decomposition node per vertex: χ = {a} ∪ bag, λ = model covers.
    // Parent: the earliest higher member of the bag; vertices with empty
    // bags chain to the last vertex in the order (disconnected parts).
    let nverts = hg.num_vertices();
    let mut labels: Vec<(Vec<Edge>, VertexSet)> = Vec::with_capacity(n);
    for a in 0..n {
        let mut chi = VertexSet::empty(nverts);
        chi.insert(enc.verts[a]);
        for &b in &bags[a] {
            chi.insert(enc.verts[b]);
        }
        let lambda: Vec<Edge> = hg
            .edge_ids()
            .filter(|&e| solver.value(enc.cov(a, e)) == LBool::True)
            .collect();
        labels.push((lambda, chi));
    }
    let root = *order.last().expect("n >= 1");
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for a in 0..n {
        if a == root {
            continue;
        }
        let parent = bags[a]
            .iter()
            .copied()
            .min_by_key(|&b| rank[b])
            .unwrap_or(root);
        children[parent].push(a as u32);
    }
    Decomposition::from_parts(labels, children, root as u32)
}

fn solver_value(solver: &Solver, lit: satsolver::Lit) -> bool {
    match solver.value(lit.var()) {
        LBool::True => !lit.is_neg(),
        LBool::False => lit.is_neg(),
        LBool::Undef => false,
    }
}

/// Validates a returned GHD (used by tests; exposed for the harness).
pub fn check_witness(hg: &Hypergraph, d: &Decomposition, k: usize) -> bool {
    d.width() <= k && validate_ghd(hg, d).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> Control {
        Control::unlimited()
    }

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
        Hypergraph::from_edge_lists(&edges)
    }

    fn clique(q: u32) -> Hypergraph {
        let mut edges = Vec::new();
        for a in 0..q {
            for b in a + 1..q {
                edges.push(vec![a, b]);
            }
        }
        Hypergraph::from_edge_lists(&edges)
    }

    #[test]
    fn paths_have_ghw_one() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
        let (w, d) = optimal_ghw(&hg, 4, &ctrl()).unwrap().unwrap();
        assert_eq!(w, 1);
        assert!(check_witness(&hg, &d, 1));
    }

    #[test]
    fn cycles_have_ghw_two() {
        for n in [4u32, 6, 9] {
            let hg = cycle(n);
            let (w, d) = optimal_ghw(&hg, 4, &ctrl()).unwrap().unwrap();
            assert_eq!(w, 2, "C_{n}");
            assert!(check_witness(&hg, &d, 2));
        }
    }

    #[test]
    fn cliques_have_ghw_half_q() {
        for (q, want) in [(4u32, 2usize), (5, 3), (6, 3)] {
            let hg = clique(q);
            let (w, d) = optimal_ghw(&hg, 5, &ctrl()).unwrap().unwrap();
            assert_eq!(w, want, "K_{q}");
            assert!(check_witness(&hg, &d, want));
        }
    }

    #[test]
    fn hyperedges_cover_in_one_bag() {
        // A single ternary edge plus pendant edges: ghw 1.
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1, 2], vec![2, 3], vec![3, 4]]);
        let (w, d) = optimal_ghw(&hg, 3, &ctrl()).unwrap().unwrap();
        assert_eq!(w, 1);
        assert!(check_witness(&hg, &d, 1));
    }

    #[test]
    fn budget_refusal() {
        let hg = cycle(12);
        let err = decide_ghw_with_budget(&hg, 2, &ctrl(), 10).unwrap_err();
        assert!(matches!(err, HtdSatError::EncodingTooLarge { .. }));
    }

    #[test]
    fn interruption_propagates() {
        let hg = cycle(14);
        let c = Control::with_timeout(std::time::Duration::from_millis(0));
        // Exhaust the deadline detector first.
        while c.checkpoint().is_ok() {}
        let r = decide_ghw(&hg, 2, &c);
        assert!(matches!(
            r,
            Err(HtdSatError::Interrupted(Interrupted::Timeout))
        ));
    }

    #[test]
    fn disconnected_hypergraphs_decompose() {
        let hg = Hypergraph::from_edge_lists(&[vec![0, 1], vec![2, 3], vec![3, 4]]);
        let (w, d) = optimal_ghw(&hg, 3, &ctrl()).unwrap().unwrap();
        assert_eq!(w, 1);
        assert!(check_witness(&hg, &d, 1));
    }
}
