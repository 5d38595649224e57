//! Property-based tests (proptest) for the core invariants:
//! component separation laws, solver agreement, Yannakakis semantics,
//! and parser robustness.

use decomp::{validate_hd_width, Control};
use hypergraph::{separate, Hypergraph, SpecialArena, Subproblem, Vertex, VertexSet};
use logk::{LogK, Settled};
use proptest::prelude::*;

/// Strategy: a random small hypergraph as raw edge lists.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(prop::collection::vec(0u32..10, 2..4), 1..10)
        .prop_map(|edges| Hypergraph::from_edge_lists(&edges))
}

/// Strategy: a denser small hypergraph (up to 16 edges of arity 2–3 on
/// 7 vertices), so the minor bound fires at k = 2 as well as GYO at 1.
fn arb_dense_hypergraph() -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(prop::collection::vec(0u32..7, 2..4), 1..17)
        .prop_map(|edges| Hypergraph::from_edge_lists(&edges))
}

/// Strategy: hypergraph plus a separator vertex set.
fn arb_graph_and_sep() -> impl Strategy<Value = (Hypergraph, Vec<u32>)> {
    (arb_hypergraph(), prop::collection::vec(0u32..10, 0..5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Components partition the subproblem: every edge lands in exactly
    /// one component or in the covered set.
    #[test]
    fn separation_partitions_edges((hg, sep_v) in arb_graph_and_sep()) {
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let sep = VertexSet::from_iter(
            hg.num_vertices(),
            sep_v.iter().filter(|&&v| (v as usize) < hg.num_vertices()).map(|&v| Vertex(v)),
        );
        let s = separate(&hg, &arena, &sub, &sep);
        let mut seen = hg.edge_set();
        for c in &s.components {
            prop_assert!(seen.is_disjoint_from(c.edges()));
            seen.union_with(c.edges());
            prop_assert!(!c.edges().is_empty() || !c.specials().is_empty());
        }
        seen.union_with(&s.covered_edges);
        prop_assert_eq!(seen, sub.edges);
    }

    /// Components are pairwise non-adjacent modulo the separator.
    #[test]
    fn components_are_disconnected((hg, sep_v) in arb_graph_and_sep()) {
        let arena = SpecialArena::new();
        let sub = Subproblem::whole(&hg);
        let sep = VertexSet::from_iter(
            hg.num_vertices(),
            sep_v.iter().filter(|&&v| (v as usize) < hg.num_vertices()).map(|&v| Vertex(v)),
        );
        let s = separate(&hg, &arena, &sub, &sep);
        for (i, a) in s.components.iter().enumerate() {
            for b in s.components.iter().skip(i + 1) {
                for ea in a.edges() {
                    for eb in b.edges() {
                        prop_assert!(
                            !hg.edge(ea).intersects_outside(hg.edge(eb), &sep),
                            "edges {ea:?} and {eb:?} are [U]-adjacent across components"
                        );
                    }
                }
            }
        }
    }

    /// The bounds pass never claims more than the Algorithm 1 oracle
    /// proves: every refutation passes its certificate check and the
    /// oracle refutes too; every GYO witness validates at width 1.
    #[test]
    fn bounds_pass_agrees_with_basic(hg in arb_dense_hypergraph()) {
        let ctrl = Control::unlimited();
        for k in 1..=3usize {
            let Some(settled) = logk::settle(&hg, k) else { continue };
            let oracle = LogK::basic().decide(&hg, k, &ctrl).unwrap();
            match settled {
                Settled::Witness(d) => {
                    prop_assert_eq!(k, 1);
                    prop_assert!(validate_hd_width(&hg, &d, 1).is_ok());
                    prop_assert!(oracle, "GYO witness where basic refutes");
                }
                Settled::Refuted(r) => {
                    prop_assert!(r.check(&hg, k).is_ok(), "k={}: {:?}", k, r);
                    prop_assert!(!oracle, "k={}: refuted where basic decomposes: {:?}", k, r);
                }
            }
        }
    }

    /// The optimised engine's search (without the bounds pass) and
    /// det-k-decomp agree on decidability for every k, and every witness
    /// passes the full validator.
    #[test]
    fn optimized_and_detk_agree(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let solver = LogK::sequential();
        for k in 1..=3usize {
            let (a, _) = solver.search_with_stats(&hg, k, &ctrl).unwrap();
            let b = detk::decide_detk(&hg, k, &ctrl).unwrap();
            prop_assert_eq!(a.is_some(), b, "k={}", k);
            if let Some(d) = a {
                prop_assert!(validate_hd_width(&hg, &d, k).is_ok());
            }
        }
    }

    /// GYO acyclicity coincides with hw ≤ 1 as the search decides it
    /// (through `decide` the bounds pass would answer k = 1 with GYO).
    #[test]
    fn gyo_matches_width_one(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let acyclic = hypergraph::is_acyclic(&hg);
        let (hd1, _) = LogK::sequential().search_with_stats(&hg, 1, &ctrl).unwrap();
        prop_assert_eq!(acyclic, hd1.is_some());
    }

    /// Monotonicity: if hw ≤ k then hw ≤ k+1 (search spaces nest).
    #[test]
    fn width_decisions_are_monotone(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let solver = LogK::sequential();
        let mut prev = false;
        for k in 1..=4usize {
            let now = solver.decide(&hg, k, &ctrl).unwrap();
            prop_assert!(!prev || now, "decision not monotone at k={}", k);
            prev = now;
        }
    }

    /// The HyperBench parser round-trips every hypergraph.
    #[test]
    fn hyperbench_roundtrip(hg in arb_hypergraph()) {
        let text = hypergraph::write_hyperbench(&hg);
        let back = hypergraph::parse_hyperbench(&text).unwrap();
        prop_assert_eq!(hg.num_edges(), back.num_edges());
        for e in hg.edge_ids() {
            prop_assert_eq!(hg.edge(e).len(), back.edge(e).len());
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(s in "\\PC*") {
        let _ = hypergraph::parse_hyperbench(&s);
        let _ = hypergraph::parse_pace(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Yannakakis evaluation agrees with the naive join on random
    /// databases over a cyclic query.
    #[test]
    fn yannakakis_matches_naive(
        tuples in prop::collection::vec(
            prop::collection::vec((0u64..5, 0u64..5), 1..20), 4..=4
        )
    ) {
        use cqeval::{evaluate_naive, evaluate_yannakakis, ConjunctiveQuery, Database};
        let q = ConjunctiveQuery::parse("r0(a,b), r1(b,c), r2(c,d), r3(d,a)").unwrap();
        let mut db = Database::new();
        for (i, rel) in tuples.iter().enumerate() {
            db.insert(
                &format!("r{i}"),
                rel.iter().map(|&(x, y)| vec![x, y]).collect(),
            );
        }
        let hg = q.hypergraph();
        let ctrl = Control::unlimited();
        let hd = LogK::sequential().decompose(&hg, 2, &ctrl).unwrap().unwrap();
        let naive = evaluate_naive(&q, &db).unwrap();
        let yann = evaluate_yannakakis(&q, &db, &hd).unwrap();
        prop_assert_eq!(naive, yann);
    }
}
