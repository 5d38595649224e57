//! The bounds pass that runs before the search.
//!
//! [`settle()`] answers `hw(H) ≤ k` without the search when a certified
//! bound decides it (see [`hypergraph::bounds`]):
//!
//! * at `k = 1`, GYO decides it either way: an α-acyclic hypergraph gets
//!   its join tree as a width-1 HD, any other a [`Refutation::Cyclic`];
//! * at `k ≥ 2`, the minor-min-width bound may refute it
//!   ([`Refutation::Minor`]); it never proves a "yes".
//!
//! [`LogK::decompose_with_stats`](crate::LogK::decompose_with_stats) runs
//! it before the search for the Algorithm 2 variants,
//! `portfolio::Engine::decide` before every other engine, and
//! `portfolio::Portfolio::race` once before it launches its racers, so
//! one rule settles a call wherever it enters.

use decomp::Decomposition;
use hypergraph::bounds::{minor_refutation, Refutation};
use hypergraph::{gyo, Edge, Hypergraph};

/// Which certified bound settled a call before the search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SettledBy {
    /// None did: the search answered.
    #[default]
    Search,
    /// GYO at `k = 1`, either way.
    Gyo,
    /// The minor-min-width bound refuted, with a minor of minimum
    /// degree `d`.
    Minor {
        /// The minor's minimum degree (a lower bound on the primal
        /// treewidth).
        d: usize,
    },
}

/// An answer the bounds pass gives without the search.
#[derive(Clone, Debug)]
pub enum Settled {
    /// `hw(H) ≤ 1`: the GYO join tree as a width-1 HD.
    Witness(Decomposition),
    /// `hw(H) > k`, with a certificate [`Refutation::check`] re-verifies.
    Refuted(Refutation),
}

impl Settled {
    /// The bound that gave this answer.
    pub fn by(&self) -> SettledBy {
        match self {
            Settled::Witness(_) | Settled::Refuted(Refutation::Cyclic { .. }) => SettledBy::Gyo,
            Settled::Refuted(Refutation::Minor(b)) => SettledBy::Minor { d: b.min_degree },
        }
    }

    /// The answer in the solvers' shape: the witness, or `None` for "no".
    pub fn into_witness(self) -> Option<Decomposition> {
        match self {
            Settled::Witness(d) => Some(d),
            Settled::Refuted(_) => None,
        }
    }
}

/// Runs the bounds pass on `hg` at width `k`; `None` leaves the call to
/// the search. Edgeless hypergraphs and `k = 0` are left to it too.
pub fn settle(hg: &Hypergraph, k: usize) -> Option<Settled> {
    if k == 0 || hg.num_edges() == 0 {
        return None;
    }
    if k == 1 {
        let g = gyo(hg);
        return Some(if g.acyclic {
            Settled::Witness(join_tree_hd(hg, &g.witness))
        } else {
            Settled::Refuted(Refutation::Cyclic { residue: g.residue })
        });
    }
    minor_refutation(hg, k).map(Settled::Refuted)
}

/// Turns a GYO join tree (`parent[e]`: the edge `e` was folded into)
/// into a width-1 HD: one node per edge with `λ = {e}` and `χ = e`, each
/// under its parent's node. An acyclic run folds every edge but the last
/// survivor (an emptied edge folds into any other), so that edge, the
/// only one without a parent, is the root.
fn join_tree_hd(hg: &Hypergraph, parent: &[Option<Edge>]) -> Decomposition {
    let labels = hg
        .edge_ids()
        .map(|e| (vec![e], hg.edge(e).clone()))
        .collect();
    let mut children = vec![Vec::new(); parent.len()];
    let mut root = None;
    for (e, p) in parent.iter().enumerate() {
        match p {
            Some(f) => children[f.0 as usize].push(e as u32),
            None => {
                debug_assert!(root.is_none(), "an acyclic GYO run leaves one root");
                root = Some(e as u32);
            }
        }
    }
    let root = root.expect("an acyclic GYO run leaves one root");
    Decomposition::from_parts(labels, children, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp::validate_hd_width;
    use workloads::families;

    #[test]
    fn acyclic_inputs_get_validated_width_one_witnesses() {
        let forest = Hypergraph::from_edge_lists(&[
            vec![0, 1],
            vec![1, 2],
            vec![1, 2, 3],
            vec![4, 5],
            vec![5, 6],
            vec![7],
            vec![],
        ]);
        for hg in [forest, families::path(9), families::star(6)] {
            let s = settle(&hg, 1).expect("k = 1 is always settled");
            assert_eq!(s.by(), SettledBy::Gyo);
            let d = s.into_witness().expect("acyclic");
            assert_eq!(d.num_nodes(), hg.num_edges());
            validate_hd_width(&hg, &d, 1).unwrap();
        }
    }

    #[test]
    fn cyclic_inputs_are_refuted_with_checked_certificates() {
        for (hg, k) in [
            (families::cycle(10), 1),
            (families::grid(3, 3), 1),
            (families::clique(7), 2),
            (families::clique(7), 3),
        ] {
            match settle(&hg, k) {
                Some(Settled::Refuted(r)) => r.check(&hg, k).unwrap(),
                other => panic!("{hg:?} at {k}: {other:?}"),
            }
        }
        assert!(settle(&families::clique(7), 4).is_none());
        assert!(settle(&families::cycle(10), 2).is_none());
        assert!(settle(&Hypergraph::from_edge_lists(&[]), 1).is_none());
    }
}
