//! Unit and differential tests for the optimised / parallel / hybrid
//! engines against the Algorithm 1 oracle.
//!
//! The differentials call the search alone ([`LogK::search_with_stats`]):
//! through `decide`/`decompose` the bounds pass answers every `k = 1` call
//! with GYO, and the engines would never be compared there.

use decomp::{validate_hd_width, Control, Decomposition};
use hypergraph::Hypergraph;

use crate::engine::{HybridConfig, HybridMetric};
use crate::solver::LogK;

/// `solver`'s search alone, without the bounds pass.
fn search(solver: &LogK, hg: &Hypergraph, k: usize, ctrl: &Control) -> Option<Decomposition> {
    solver.search_with_stats(hg, k, ctrl).unwrap().0
}

fn cycle(n: u32) -> Hypergraph {
    let edges: Vec<Vec<u32>> = (0..n).map(|i| vec![i, (i + 1) % n]).collect();
    Hypergraph::from_edge_lists(&edges)
}

fn grid(rows: u32, cols: u32) -> Hypergraph {
    // Binary edges of a rows×cols grid graph.
    let v = |r: u32, c: u32| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(vec![v(r, c), v(r, c + 1)]);
            }
            if r + 1 < rows {
                edges.push(vec![v(r, c), v(r + 1, c)]);
            }
        }
    }
    Hypergraph::from_edge_lists(&edges)
}

/// Small deterministic pseudo-random hypergraphs (LCG; no external deps).
fn random_hypergraph(seed: u64, n: u32, m: usize, max_arity: u32) -> Hypergraph {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move |bound: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u32) % bound
    };
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let arity = 2 + next(max_arity - 1);
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

#[test]
fn optimized_matches_oracle_on_structured_instances() {
    let ctrl = Control::unlimited();
    let oracle = LogK::basic();
    let fast = LogK::sequential();
    for hg in [cycle(4), cycle(7), cycle(10), grid(2, 3), grid(3, 3)] {
        for k in 1..=3usize {
            let want = oracle.decide(&hg, k, &ctrl).unwrap();
            let got = search(&fast, &hg, k, &ctrl);
            assert_eq!(want, got.is_some(), "k={k} |E|={}", hg.num_edges());
            if let Some(d) = got {
                validate_hd_width(&hg, &d, k).unwrap();
            }
        }
    }
}

#[test]
fn optimized_matches_oracle_on_random_instances() {
    let ctrl = Control::unlimited();
    let oracle = LogK::basic();
    let fast = LogK::sequential();
    for seed in 0..20u64 {
        let hg = random_hypergraph(seed, 8, 7, 4);
        for k in 1..=2usize {
            let want = oracle.decide(&hg, k, &ctrl).unwrap();
            let got = search(&fast, &hg, k, &ctrl);
            assert_eq!(want, got.is_some(), "seed={seed} k={k}\n{:?}", hg);
            if let Some(d) = got {
                validate_hd_width(&hg, &d, k).unwrap();
            }
        }
    }
}

#[test]
fn root_fallthrough_agrees_with_printed_algorithm() {
    // Differential evidence for the Algorithm 2 pseudo-code: enabling the
    // extra pair-search after a failed root attempt must not change any
    // decision (it could only mask incompleteness of the printed variant).
    let ctrl = Control::unlimited();
    let printed = LogK::sequential();
    let fallthrough = LogK {
        root_fallthrough: true,
        ..LogK::sequential()
    };
    for seed in 0..25u64 {
        let hg = random_hypergraph(seed.wrapping_add(100), 9, 8, 4);
        for k in 1..=2usize {
            let a = search(&printed, &hg, k, &ctrl).is_some();
            let b = search(&fallthrough, &hg, k, &ctrl).is_some();
            assert_eq!(a, b, "seed={seed} k={k}");
        }
    }
}

#[test]
fn detk_agrees_with_logk() {
    let ctrl = Control::unlimited();
    let fast = LogK::sequential();
    for seed in 0..20u64 {
        let hg = random_hypergraph(seed.wrapping_add(500), 10, 9, 4);
        for k in 1..=3usize {
            let a = search(&fast, &hg, k, &ctrl).is_some();
            let b = detk::decide_detk(&hg, k, &ctrl).unwrap();
            assert_eq!(a, b, "seed={seed} k={k}\n{:?}", hg);
        }
    }
}

#[test]
fn parallel_matches_sequential() {
    let ctrl = Control::unlimited();
    let seq = LogK::sequential();
    let par = LogK::parallel(2);
    for seed in 0..10u64 {
        let hg = random_hypergraph(seed.wrapping_add(900), 10, 10, 4);
        for k in 1..=3usize {
            let a = search(&seq, &hg, k, &ctrl).is_some();
            let got = search(&par, &hg, k, &ctrl);
            assert_eq!(a, got.is_some(), "seed={seed} k={k}");
            if let Some(d) = got {
                validate_hd_width(&hg, &d, k).unwrap();
            }
        }
    }
    // On one worker the λc race never splits, so `parallel(1)` walks the
    // leads inline exactly like `sequential()`: the same witness and the
    // same search counters.
    let par1 = LogK::parallel(1);
    for seed in 0..6u64 {
        let hg = random_hypergraph(seed, 14, 14, 4);
        for k in 1..=3usize {
            let (a, sa) = seq.search_with_stats(&hg, k, &ctrl).unwrap();
            let (b, sb) = par1.search_with_stats(&hg, k, &ctrl).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed={seed} k={k}");
            let counters = |s: &crate::SolveStats| {
                (
                    s.separations,
                    s.lambda_c_rejected,
                    s.lambda_p_rejected,
                    s.decomp_calls,
                )
            };
            assert_eq!(counters(&sa), counters(&sb), "seed={seed} k={k}");
        }
    }
}

#[test]
fn hybrid_matches_sequential() {
    let ctrl = Control::unlimited();
    let seq = LogK::sequential();
    for metric in [HybridMetric::EdgeCount, HybridMetric::WeightedCount] {
        let hybrid = LogK::sequential().with_hybrid(Some(HybridConfig {
            metric,
            threshold: 6.0,
        }));
        for seed in 0..10u64 {
            let hg = random_hypergraph(seed.wrapping_add(1300), 10, 10, 4);
            for k in 1..=3usize {
                let a = search(&seq, &hg, k, &ctrl).is_some();
                let got = search(&hybrid, &hg, k, &ctrl);
                assert_eq!(a, got.is_some(), "seed={seed} k={k} metric={metric:?}");
                if let Some(d) = got {
                    validate_hd_width(&hg, &d, k).unwrap();
                }
            }
        }
    }
}

#[test]
fn minimal_width_certifies_cycles() {
    let ctrl = Control::unlimited();
    let solver = LogK::sequential();
    let (w, d) = solver.minimal_width(&cycle(10), 5, &ctrl).unwrap().unwrap();
    assert_eq!(w, 2);
    validate_hd_width(&cycle(10), &d, 2).unwrap();

    let path = Hypergraph::from_edge_lists(&[vec![0, 1], vec![1, 2], vec![2, 3]]);
    let (w, _) = solver.minimal_width(&path, 5, &ctrl).unwrap().unwrap();
    assert_eq!(w, 1);
}

#[test]
fn grid3x3_width_matches_oracle_upper() {
    // hw of the 3×3 grid (binary edges) is 2.
    let ctrl = Control::unlimited();
    let hg = grid(3, 3);
    let solver = LogK::sequential();
    let (w, d) = solver.minimal_width(&hg, 4, &ctrl).unwrap().unwrap();
    assert_eq!(w, 2);
    validate_hd_width(&hg, &d, w).unwrap();
}

#[test]
fn parallel_solve_is_interruptible() {
    let hg = random_hypergraph(7, 14, 16, 4);
    let ctrl = Control::with_timeout(std::time::Duration::from_millis(0));
    let par = LogK::parallel(2);
    let r = par.decompose(&hg, 3, &ctrl);
    assert!(r.is_err());
}

#[test]
fn logarithmic_recursion_yields_shallow_fragments_on_long_cycles() {
    // Not a direct recursion-depth probe, but the balanced separation shows
    // up as bounded fragment reuse: solving a large cycle must terminate
    // quickly at k=2 where det-k-style top-down would walk the whole cycle.
    let ctrl = Control::unlimited();
    let hg = cycle(40);
    let d = LogK::sequential()
        .decompose(&hg, 2, &ctrl)
        .unwrap()
        .unwrap();
    validate_hd_width(&hg, &d, 2).unwrap();
}

#[test]
fn disconnected_hypergraphs_decompose() {
    // Two disjoint triangles plus an isolated pendant edge: the engine
    // must stitch per-component fragments under one root.
    let hg = Hypergraph::from_edge_lists(&[
        vec![0, 1],
        vec![1, 2],
        vec![2, 0],
        vec![10, 11],
        vec![11, 12],
        vec![12, 10],
        vec![20, 21],
    ]);
    let ctrl = Control::unlimited();
    for solver in [LogK::sequential(), LogK::parallel(2), LogK::hybrid(2)] {
        assert!(solver.decompose(&hg, 1, &ctrl).unwrap().is_none());
        let d = solver.decompose(&hg, 2, &ctrl).unwrap().unwrap();
        validate_hd_width(&hg, &d, 2).unwrap();
    }
}

#[test]
fn duplicate_and_subsumed_edges_are_handled() {
    let hg = Hypergraph::from_edge_lists(&[
        vec![0, 1, 2],
        vec![0, 1, 2], // duplicate
        vec![1, 2],    // subsumed
        vec![2, 3],
        vec![3, 0],
    ]);
    let ctrl = Control::unlimited();
    let (w, d) = LogK::sequential()
        .minimal_width(&hg, 4, &ctrl)
        .unwrap()
        .unwrap();
    validate_hd_width(&hg, &d, w).unwrap();
    // Reduction must not change the width.
    let (reduced, _) = hg.reduced();
    let (w2, _) = LogK::sequential()
        .minimal_width(&reduced, 4, &ctrl)
        .unwrap()
        .unwrap();
    assert_eq!(w, w2);
}

#[test]
fn single_vertex_edges() {
    // Unary edges (constants in CQs) are legal hyperedges.
    let hg = Hypergraph::from_edge_lists(&[vec![0], vec![0, 1], vec![1]]);
    let ctrl = Control::unlimited();
    let (w, d) = LogK::hybrid(1)
        .minimal_width(&hg, 3, &ctrl)
        .unwrap()
        .unwrap();
    assert_eq!(w, 1);
    validate_hd_width(&hg, &d, 1).unwrap();
}

#[test]
fn wide_hyperedges_beat_binary_width() {
    // One big edge covering a clique's vertices lowers the width to 1.
    let mut edges: Vec<Vec<u32>> = Vec::new();
    for a in 0..5u32 {
        for b in a + 1..5 {
            edges.push(vec![a, b]);
        }
    }
    edges.push((0..5).collect());
    let hg = Hypergraph::from_edge_lists(&edges);
    let ctrl = Control::unlimited();
    let (w, d) = LogK::sequential()
        .minimal_width(&hg, 3, &ctrl)
        .unwrap()
        .unwrap();
    assert_eq!(w, 1);
    validate_hd_width(&hg, &d, 1).unwrap();
}

#[test]
fn optimized_matches_oracle_on_larger_random_instances() {
    // Extra differential confidence for the printed Algorithm 2 structure
    // (top-level root-mode-only search): wider random instances.
    let ctrl = Control::unlimited();
    let oracle = LogK::basic();
    let fast = LogK::sequential();
    for seed in 0..12u64 {
        let hg = random_hypergraph(seed.wrapping_add(4000), 10, 9, 3);
        for k in 1..=2usize {
            let want = oracle.decide(&hg, k, &ctrl).unwrap();
            let got = search(&fast, &hg, k, &ctrl);
            assert_eq!(want, got.is_some(), "seed={seed} k={k}\n{hg:?}");
            if let Some(d) = got {
                validate_hd_width(&hg, &d, k).unwrap();
            }
        }
    }
}
