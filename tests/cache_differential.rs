//! Differential tests for the unified subproblem-memoisation layer: the
//! caching engine must be *observationally identical* to the uncached
//! engine — same decidability for every k, and every witness passes the
//! full HD validator — in both the sequential and the parallel
//! (`LogK::parallel`, λc race on) configurations. The cache may only change how
//! fast the answer arrives, never the answer. Since PR 2 the cache stores
//! *positive* fragments too (arena-independent, re-interned on reuse) and
//! evicts under memory pressure, so the suite additionally asserts that
//! positive hits actually occur and that eviction degrades capacity, not
//! correctness. A `parallel(2)` solve runs inline until it has spent
//! `INLINE_SEPARATIONS` separations and races on the pool only past
//! them, restarting from the root with the inline phase's cache, so the
//! parallel arms assert that some of their solves cross the budget.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.

use decomp::{validate_hd_width, Control};
use logk::LogK;
use proptest::prelude::*;
use workloads::{hyperbench_like, wide_corpus, CorpusConfig, WideConfig};

/// Cached and uncached engines across the workloads corpus, sequential
/// and parallel. Also asserts the acceptance criteria that the cache is
/// actually exercised: cyclic corpus instances must produce hits, and the
/// corpus as a whole must produce *positive* (fragment-reuse) hits.
#[test]
fn corpus_cached_matches_uncached_sequential_and_parallel() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 2024,
        scale: 1.0 / 100.0,
    });
    let ctrl = Control::unlimited();
    let k_max = 4usize;

    let configs: [(&str, LogK, LogK); 2] = [
        (
            "sequential",
            LogK::sequential(),
            LogK::sequential().with_cache_bytes(0),
        ),
        (
            "parallel",
            LogK::parallel(2),
            LogK::parallel(2).with_cache_bytes(0),
        ),
    ];

    for (mode, cached, uncached) in configs {
        let mut cyclic_hits = 0u64;
        let mut pos_hits = 0u64;
        let mut pool_handoffs = 0u64;
        let mut checked = 0usize;
        for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 40) {
            for k in 1..=k_max {
                let (dc, sc) = cached.search_with_stats(&inst.hg, k, &ctrl).unwrap();
                let (du, su) = uncached.search_with_stats(&inst.hg, k, &ctrl).unwrap();
                assert_eq!(
                    dc.is_some(),
                    du.is_some(),
                    "{mode}: cached and uncached disagree on {} at k={k}",
                    inst.name
                );
                assert_eq!(
                    su.cache.hits() + su.cache.misses + su.cache.inserts,
                    0,
                    "{mode}: uncached engine must not touch the cache"
                );
                if !hypergraph::is_acyclic(&inst.hg) {
                    cyclic_hits += sc.cache.hits();
                }
                pos_hits += sc.cache.pos_hits;
                pool_handoffs += sc.pool_handoffs + su.pool_handoffs;
                // Every stitched decomposition goes through decomp's full
                // validator — including those assembled from re-interned
                // positive-cache fragments.
                if let Some(d) = &dc {
                    validate_hd_width(&inst.hg, d, k).unwrap_or_else(|e| {
                        panic!(
                            "{mode}: invalid cached witness on {} at k={k}: {e:?}",
                            inst.name
                        )
                    });
                }
                if let Some(d) = &du {
                    validate_hd_width(&inst.hg, d, k).unwrap_or_else(|e| {
                        panic!(
                            "{mode}: invalid uncached witness on {} at k={k}: {e:?}",
                            inst.name
                        )
                    });
                }
                if dc.is_some() {
                    break; // width found; larger k adds nothing new
                }
            }
            checked += 1;
        }
        assert!(checked > 10, "{mode}: corpus slice unexpectedly small");
        assert!(
            cyclic_hits > 0,
            "{mode}: expected cache hits on cyclic corpus instances"
        );
        assert!(
            pos_hits > 0,
            "{mode}: expected positive-fragment reuse across the corpus"
        );
        // The uncached search of `syn_bounded_040e_0003` at k = 1 needs
        // over 5000 separations.
        assert_eq!(
            pool_handoffs > 0,
            mode == "parallel",
            "{mode}: only 2-worker solves past the inline budget race"
        );
    }
}

/// Cached 2-worker solves past the inline budget: `grid(4,4)` at k = 2
/// (a refutation, 1332 separations) and `grid(4,5)` at k = 3 (a witness,
/// 3841). Each restarts on the pool with the verdicts its inline phase
/// cached, and must agree with the uncached engine.
#[test]
fn cached_pool_phase_matches_uncached() {
    let ctrl = Control::unlimited();
    for (hg, k) in [
        (workloads::families::grid(4, 4), 2usize),
        (workloads::families::grid(4, 5), 3),
    ] {
        let (dc, sc) = LogK::parallel(2).search_with_stats(&hg, k, &ctrl).unwrap();
        let du = LogK::sequential()
            .with_cache_bytes(0)
            .search_with_stats(&hg, k, &ctrl)
            .unwrap()
            .0;
        assert_eq!(sc.pool_handoffs, 1, "k={k}: {sc:?}");
        assert!(sc.cache.hits() > 0, "k={k}: {sc:?}");
        assert_eq!(dc.is_some(), du.is_some(), "k={k}");
        assert_eq!(dc.is_some(), k == 3, "hw = 3 for both grids");
        for d in [&dc, &du].into_iter().flatten() {
            validate_hd_width(&hg, d, k).unwrap();
        }
    }
}

/// The positive-memoisation showcase — the 5×6 grid at its true width
/// k = 3 re-derives the same solvable subproblems hundreds of times
/// (`micro/pos_cache` benchmarks the ~40× wall-clock win). The cached
/// engine must reuse fragments, rewrite special-leaf ids while doing so,
/// and still produce a fully valid decomposition.
#[test]
fn grid5x6_positive_search_reuses_fragments() {
    let hg = workloads::families::grid(5, 6);
    let ctrl = Control::unlimited();
    let (d, stats) = LogK::sequential().search_with_stats(&hg, 3, &ctrl).unwrap();
    let d = d.expect("the 5×6 grid has hw = 3");
    validate_hd_width(&hg, &d, 3).unwrap();
    assert!(
        stats.cache.pos_hits > 0,
        "grid search must reuse successful fragments"
    );
    assert!(
        stats.cache.id_rewrites > 0,
        "fragment reuse under specials must rewrite leaf ids"
    );
    assert!(
        stats.cache.neg_hits > 0,
        "grid search must also reuse refutations"
    );
}

/// The negative-memoisation showcase workload — two K5 cliques sharing
/// two vertices, searched at the failing width k = 2 — must agree with
/// the uncached engine, and the cache must actually fire (this is the
/// instance `micro.rs` benchmarks for the wall-clock win).
#[test]
fn twin_k5_negative_search_agrees_and_hits() {
    let mut edges = Vec::new();
    for a in 0..5u32 {
        for b in a + 1..5 {
            edges.push(vec![a, b]);
        }
    }
    for a in 3..8u32 {
        for b in a + 1..8 {
            edges.push(vec![a, b]);
        }
    }
    let hg = hypergraph::Hypergraph::from_edge_lists(&edges);
    assert!(!hypergraph::is_acyclic(&hg));
    let ctrl = Control::unlimited();

    let (d, stats) = LogK::sequential().search_with_stats(&hg, 2, &ctrl).unwrap();
    assert!(d.is_none(), "two glued K5s have hw = 3 > 2");
    assert!(
        stats.cache.neg_hits > 0,
        "negative search must reuse refuted subproblems"
    );
    let uncached = LogK::sequential()
        .with_cache_bytes(0)
        .search_with_stats(&hg, 2, &ctrl)
        .unwrap()
        .0
        .is_some();
    assert!(!uncached);

    // Both engines find and certify the true width 3.
    for solver in [LogK::sequential(), LogK::sequential().with_cache_bytes(0)] {
        let d = solver.search_with_stats(&hg, 3, &ctrl).unwrap().0.unwrap();
        validate_hd_width(&hg, &d, 3).unwrap();
    }
}

/// A tiny cache budget must degrade capacity, never correctness: with a
/// budget that fits only a handful of entries the second-chance sweep
/// churns constantly, and the engine still agrees with the uncached
/// engine everywhere.
#[test]
fn tiny_cache_budget_evicts_but_stays_sound() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 7,
        scale: 1.0 / 150.0,
    });
    let ctrl = Control::unlimited();
    let tiny = LogK::sequential().with_cache_bytes(4096);
    let off = LogK::sequential().with_cache_bytes(0);
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 25) {
        for k in 1..=3 {
            let (da, sa) = tiny.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let b = off
                .search_with_stats(&inst.hg, k, &ctrl)
                .unwrap()
                .0
                .is_some();
            assert_eq!(da.is_some(), b, "{} at k={k}", inst.name);
            assert!(
                sa.cache.bytes <= 4096,
                "{} at k={k}: cache exceeded its byte budget",
                inst.name
            );
            if let Some(d) = &da {
                validate_hd_width(&inst.hg, d, k).unwrap();
            }
        }
    }

    // The 40-cycle at k = 2 floods the cache with ~1 KiB entries, so a
    // 4 KiB budget forces the second-chance sweep to actually evict —
    // while the answer and its witness stay correct. Positive inserts
    // are deliberately ungated here: with the default
    // `pos_cache_max_frag` gate most of this workload's (large,
    // positive) fragments are never stored, which leaves eviction
    // pressure marginal and hash-seed-dependent — the assertion below
    // needs the full PR 2 insert stream to be deterministic.
    let hg = workloads::families::cycle(40);
    let tiny = tiny.with_pos_cache_max_frag(usize::MAX);
    let (d, stats) = tiny.search_with_stats(&hg, 2, &ctrl).unwrap();
    validate_hd_width(&hg, &d.expect("cycles have hw = 2"), 2).unwrap();
    assert!(
        stats.cache.evictions > 0,
        "a 4 KiB budget must force the second-chance sweep to evict"
    );
    assert!(stats.cache.bytes <= 4096);
    assert!(
        off.search_with_stats(&hg, 2, &ctrl).unwrap().0.is_some(),
        "uncached engine agrees on the evicting instance"
    );
}

/// The det-k memo's byte budget, driven by real hybrid solves: a budget
/// small enough to churn the memo's CLOCK sweep must degrade reuse, never
/// correctness, and must hold exactly (admission reserves bytes under the
/// shard lock). Quick tier: instances of at most 20 edges.
#[test]
fn detk_byte_budget_policy_sound() {
    check_detk_byte_budget(20);
}

/// [`detk_byte_budget_policy_sound`] over every instance of at most 30
/// edges; the uncached oracle takes over a minute there in debug builds.
#[test]
#[ignore = "exhaustive tier: CI runs it"]
fn detk_byte_budget_policy_sound_exhaustive() {
    check_detk_byte_budget(30);
}

fn check_detk_byte_budget(max_edges: usize) {
    const TINY: usize = 4096;
    let corpus = hyperbench_like(CorpusConfig {
        seed: 2024,
        scale: 1.0 / 100.0,
    });
    let ctrl = Control::unlimited();
    let tiny = LogK::hybrid(1).with_cache_bytes(TINY);
    let roomy = LogK::hybrid(1);
    let oracle = LogK::sequential().with_cache_bytes(0);
    let mut handoffs = 0u64;
    let mut tiny_inserts = 0u64;
    let mut tiny_evictions = 0u64;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= max_edges) {
        for k in 1..=3usize {
            let (dc, sc) = tiny.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let (dr, _) = roomy.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let b = oracle
                .search_with_stats(&inst.hg, k, &ctrl)
                .unwrap()
                .0
                .is_some();
            assert_eq!(
                dc.is_some(),
                b,
                "tiny-budget hybrid vs oracle: {} k={k}",
                inst.name
            );
            assert_eq!(
                dr.is_some(),
                b,
                "roomy hybrid vs oracle: {} k={k}",
                inst.name
            );
            assert_eq!(sc.detk_memo.byte_budget, TINY);
            assert!(
                sc.detk_memo.bytes <= sc.detk_memo.byte_budget,
                "{} k={k}: det-k memo exceeded its byte budget ({} bytes)",
                inst.name,
                sc.detk_memo.bytes
            );
            handoffs += sc.detk_handoffs;
            tiny_inserts += sc.detk_memo.inserts;
            tiny_evictions += sc.detk_memo.evictions;
            if let Some(d) = &dc {
                validate_hd_width(&inst.hg, d, k).unwrap();
            }
            if dc.is_some() {
                break;
            }
        }
    }
    assert!(handoffs > 0, "the hybrid corpus run must hand off to det-k");
    assert!(tiny_inserts > 0, "the tiny memo must still admit entries");
    assert!(
        tiny_evictions > 0,
        "a {TINY}-byte budget must force the det-k memo to evict"
    );
}

/// Cross-table soundness: both memo tables of a hybrid solve under one
/// tiny budget at once — the engine cache and the det-k memo each
/// churning under a 4 KiB CLOCK budget — against both disabled. Same
/// decisions, validated witnesses, budgets respected.
#[test]
fn cross_policy_tiny_limits_stay_sound() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 7,
        scale: 1.0 / 150.0,
    });
    let ctrl = Control::unlimited();
    let tiny = LogK::hybrid(1)
        .with_cache_bytes(4096)
        .with_pos_cache_max_frag(usize::MAX);
    let off = LogK::hybrid(1).with_cache_bytes(0);
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 25) {
        for k in 1..=3usize {
            let (da, sa) = tiny.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let (db, sb) = off.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            assert_eq!(
                da.is_some(),
                db.is_some(),
                "both-policies-tiny vs both-off disagree on {} at k={k}",
                inst.name
            );
            assert!(sa.cache.bytes <= 4096, "CLOCK budget exceeded");
            assert!(sa.detk_memo.bytes <= 4096, "det-k memo budget exceeded");
            assert_eq!(
                sb.detk_memo.inserts, 0,
                "a zero budget must disable the det-k memo too"
            );
            if let Some(d) = &da {
                validate_hd_width(&inst.hg, d, k).unwrap();
            }
            if da.is_some() {
                break;
            }
        }
    }
}

/// Wide corpus: cached and uncached engines agree at the certified
/// widths on instances whose bitsets span many 64-bit words, where the
/// cache keys hash multi-word masks and positive fragments carry wide
/// bags. The answers must not depend on the lane-chunked substrate.
#[test]
fn wide_corpus_cached_matches_uncached() {
    let ctrl = Control::unlimited();
    let cached = LogK::sequential();
    let uncached = LogK::sequential().with_cache_bytes(0);
    let mut checked = 0usize;
    for inst in wide_corpus(WideConfig::default()) {
        let Some(k) = inst.width_upper else { continue };
        let (dc, _) = cached.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        let b = uncached
            .search_with_stats(&inst.hg, k, &ctrl)
            .unwrap()
            .0
            .is_some();
        assert_eq!(
            dc.is_some(),
            b,
            "cached and uncached disagree on {} at k={k}",
            inst.name
        );
        if let Some(d) = &dc {
            validate_hd_width(&inst.hg, d, k)
                .unwrap_or_else(|e| panic!("invalid witness on {}: {e:?}", inst.name));
        }
        checked += 1;
    }
    assert!(checked >= 5, "wide corpus slice unexpectedly small");
}

fn arb_hypergraph() -> impl Strategy<Value = hypergraph::Hypergraph> {
    prop::collection::vec(prop::collection::vec(0u32..9, 2..4), 1..9)
        .prop_map(|edges| hypergraph::Hypergraph::from_edge_lists(&edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary small hypergraphs: cached (sequential and parallel) and
    /// uncached decisions coincide for every k, witnesses validate.
    #[test]
    fn cached_decisions_match_uncached(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let cached_seq = LogK::sequential();
        let cached_par = LogK::parallel(2);
        let uncached = LogK::sequential().with_cache_bytes(0);
        for k in 1..=3usize {
            let a = cached_seq.search_with_stats(&hg, k, &ctrl).unwrap().0;
            let p = cached_par.search_with_stats(&hg, k, &ctrl).unwrap().0;
            let b = uncached.search_with_stats(&hg, k, &ctrl).unwrap().0.is_some();
            prop_assert_eq!(a.is_some(), b, "sequential vs uncached at k={}", k);
            prop_assert_eq!(p.is_some(), b, "parallel vs uncached at k={}", k);
            if let Some(d) = a {
                prop_assert!(validate_hd_width(&hg, &d, k).is_ok());
            }
            if let Some(d) = p {
                prop_assert!(validate_hd_width(&hg, &d, k).is_ok());
            }
        }
    }

    /// Eviction fuzzing: a minuscule budget (heavy sweep churn) must not
    /// change any decision on arbitrary hypergraphs.
    #[test]
    fn tiny_budget_decisions_match_uncached(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let tiny = LogK::sequential().with_cache_bytes(2048);
        let off = LogK::sequential().with_cache_bytes(0);
        for k in 1..=3usize {
            let a = tiny.search_with_stats(&hg, k, &ctrl).unwrap().0.is_some();
            let b = off.search_with_stats(&hg, k, &ctrl).unwrap().0.is_some();
            prop_assert_eq!(a, b, "tiny-budget vs uncached at k={}", k);
        }
    }

    /// Both memo tables of a hybrid solve fuzzed at once under a 4 KiB
    /// CLOCK budget (ungated positive inserts, maximum eviction churn),
    /// against both disabled. Decisions must coincide and both budgets
    /// must hold on every arbitrary hypergraph.
    #[test]
    fn tiny_budget_hybrid_decisions_match(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let tiny = LogK::hybrid(1)
            .with_cache_bytes(4096)
            .with_pos_cache_max_frag(usize::MAX);
        let off = LogK::hybrid(1).with_cache_bytes(0);
        for k in 1..=3usize {
            let (da, sa) = tiny.search_with_stats(&hg, k, &ctrl).unwrap();
            let b = off.search_with_stats(&hg, k, &ctrl).unwrap().0.is_some();
            prop_assert_eq!(da.is_some(), b, "both-tiny vs both-off at k={}", k);
            prop_assert!(sa.cache.bytes <= 4096, "CLOCK budget exceeded at k={}", k);
            prop_assert!(sa.detk_memo.bytes <= 4096, "det-k memo budget exceeded at k={}", k);
        }
    }
}
