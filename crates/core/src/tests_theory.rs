//! Tests for the paper's theoretical claims on the running engine:
//! logarithmic recursion depth (Theorem 4.1) and the completeness of the
//! Appendix C search-space restrictions (Theorem C.1).

use decomp::Control;
use hypergraph::Hypergraph;

use crate::engine::{EngineConfig, LogKEngine};

fn cycle(n: u32) -> Hypergraph {
    let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
    Hypergraph::from_edge_lists(&edges)
}

fn chain(n: u32) -> Hypergraph {
    let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i + 1]).collect();
    Hypergraph::from_edge_lists(&edges)
}

fn solve_depth(hg: &Hypergraph, k: usize) -> usize {
    let ctrl = Control::unlimited();
    let engine = LogKEngine::new(hg, &ctrl, EngineConfig::sequential(k));
    let r = engine.decompose().unwrap();
    assert!(r.is_some(), "instance must be solvable at k={k}");
    engine.stats().snapshot().max_depth
}

#[test]
fn recursion_depth_is_logarithmic_on_cycles() {
    // Theorem 4.1: the Decomp recursion depth is O(log |E(H)|). Balanced
    // separation halves the subproblem per level (plus the special edge),
    // so depth ≤ log2(m) + c for a small constant c.
    for m in [8u32, 16, 32, 64] {
        let depth = solve_depth(&cycle(m), 2);
        let bound = (m as f64).log2().ceil() as usize + 3;
        assert!(
            depth <= bound,
            "C_{m}: recursion depth {depth} exceeds log bound {bound}"
        );
    }
}

#[test]
fn recursion_depth_is_logarithmic_on_chains() {
    // Acyclic chains at k = 1 — the case where det-k-decomp's top-down
    // recursion is Θ(m) deep while log-k-decomp stays logarithmic.
    for m in [8u32, 16, 32, 64, 128] {
        let depth = solve_depth(&chain(m), 1);
        let bound = (m as f64).log2().ceil() as usize + 3;
        assert!(
            depth <= bound,
            "chain {m}: recursion depth {depth} exceeds log bound {bound}"
        );
    }
}

#[test]
fn depth_grows_sublinearly() {
    // Doubling the instance adds O(1) recursion levels.
    let d32 = solve_depth(&cycle(32), 2);
    let d64 = solve_depth(&cycle(64), 2);
    assert!(
        d64 <= d32 + 2,
        "doubling the cycle added {} levels",
        d64 - d32
    );
}

#[test]
fn ablation_restrict_parent_search_preserves_decisions() {
    // Theorem C.1: restricting λp to edges meeting ⋃λc changes no answer.
    let ctrl = Control::unlimited();
    for seed in 0..15u64 {
        let hg = lcg_hypergraph(seed, 9, 8);
        for k in 1..=2usize {
            let with = LogKEngine::new(
                &hg,
                &ctrl,
                EngineConfig {
                    restrict_parent_search: true,
                    ..EngineConfig::sequential(k)
                },
            )
            .decompose()
            .unwrap()
            .is_some();
            let without = LogKEngine::new(
                &hg,
                &ctrl,
                EngineConfig {
                    restrict_parent_search: false,
                    ..EngineConfig::sequential(k)
                },
            )
            .decompose()
            .unwrap()
            .is_some();
            assert_eq!(with, without, "seed={seed} k={k}");
        }
    }
}

#[test]
fn ablation_allowed_edges_preserves_decisions() {
    let ctrl = Control::unlimited();
    for seed in 20..35u64 {
        let hg = lcg_hypergraph(seed, 9, 8);
        for k in 1..=2usize {
            let with = LogKEngine::new(&hg, &ctrl, EngineConfig::sequential(k))
                .decompose()
                .unwrap()
                .is_some();
            let without = LogKEngine::new(
                &hg,
                &ctrl,
                EngineConfig {
                    use_allowed_edges: false,
                    ..EngineConfig::sequential(k)
                },
            )
            .decompose()
            .unwrap()
            .is_some();
            assert_eq!(with, without, "seed={seed} k={k}");
        }
    }
}

#[test]
fn search_effort_shrinks_with_optimisations() {
    // The optimisations must not *increase* the number of Decomp calls on
    // a negative instance (where the space is searched exhaustively).
    let hg = cycle(7);
    let ctrl = Control::unlimited();
    let on = LogKEngine::new(&hg, &ctrl, EngineConfig::sequential(1));
    assert!(on.decompose().unwrap().is_none());
    let calls_on = on.stats().snapshot().decomp_calls;

    let off = LogKEngine::new(
        &hg,
        &ctrl,
        EngineConfig {
            restrict_parent_search: false,
            use_allowed_edges: false,
            ..EngineConfig::sequential(1)
        },
    );
    assert!(off.decompose().unwrap().is_none());
    let calls_off = off.stats().snapshot().decomp_calls;
    assert!(
        calls_on <= calls_off,
        "optimisations increased work: {calls_on} > {calls_off}"
    );
}

/// Small deterministic pseudo-random hypergraph without external deps.
fn lcg_hypergraph(seed: u64, n: u32, m: usize) -> Hypergraph {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
    let mut next = move |bound: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u32) % bound
    };
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let arity = 2 + next(3);
        let mut edge: Vec<u32> = (0..arity).map(|_| next(n)).collect();
        edge.sort_unstable();
        edge.dedup();
        if edge.len() < 2 {
            edge.push((edge[0] + 1) % n);
        }
        edges.push(edge);
    }
    Hypergraph::from_edge_lists(&edges)
}
