//! Differential tests for sibling-subproblem (below-children)
//! parallelism: fanning the component loops of `try_as_root`/`finish_pair`
//! out on the pool must be *observationally identical* to recursing
//! sequentially — same decidability for every k, and every witness passes
//! the full HD validator. The grain knob (`LogK::with_child_split`) only
//! changes where the work runs, never the answer.
//!
//! The suite compares three engines per instance: sequential, parallel
//! with child splitting pinned off (`with_child_split(usize::MAX, 0)` —
//! the λc race still runs), and parallel with an aggressive grain
//! (`with_child_split(2, 0)`) that splits every multi-component loop. The
//! acceptance test additionally asserts the new counters actually move on
//! a multi-component instance at 2 workers: `child_splits > 0`, every
//! join rebases its fragments, and the pool's steal counter shows the
//! second worker really participating.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.

use decomp::{validate_hd_width, Control};
use logk::LogK;
use proptest::prelude::*;
use workloads::{families, hyperbench_like, wide_corpus, CorpusConfig, WideConfig};

/// Parallel-children engines across the workloads corpus: identical
/// verdicts to the sequential engine and to the λc-race-only parallel
/// engine, valid witnesses, and the children-pinned engine never splits.
#[test]
fn corpus_par_children_matches_seq_children() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 2024,
        scale: 1.0 / 100.0,
    });
    let ctrl = Control::unlimited();
    let seq = LogK::sequential();
    // λc race on, children sequential: the pre-fork/merge parallel engine.
    let par_pinned = LogK::parallel(2).with_child_split(usize::MAX, 0);
    // Aggressive grain: every multi-component child loop splits.
    let par_split = LogK::parallel(2).with_child_split(2, 0);

    let mut checked = 0usize;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 40) {
        for k in 1..=4usize {
            let (ds, _) = seq.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let (dp, sp) = par_pinned.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let (dc, _) = par_split.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            assert_eq!(
                ds.is_some(),
                dp.is_some(),
                "children-pinned parallel disagrees on {} at k={k}",
                inst.name
            );
            assert_eq!(
                ds.is_some(),
                dc.is_some(),
                "children-split parallel disagrees on {} at k={k}",
                inst.name
            );
            assert_eq!(
                sp.child_splits, 0,
                "with_child_split(usize::MAX, _) must pin the child loops sequential"
            );
            for d in [&ds, &dp, &dc].into_iter().flatten() {
                validate_hd_width(&inst.hg, d, k)
                    .unwrap_or_else(|e| panic!("invalid witness on {} at k={k}: {e:?}", inst.name));
            }
            if ds.is_some() {
                break; // width found; larger k adds nothing new
            }
        }
        checked += 1;
    }
    assert!(checked > 10, "corpus slice unexpectedly small");
}

/// The acceptance workload: a disjoint union splits into one
/// `[λc]`-component per part at the root (the root connector is empty),
/// so every root-mode candidate drives the sibling fan-out. At 2 workers
/// with the default grain the engine must actually split
/// (`child_splits > 0`), fold every successful join's fragments back
/// under the parent arena (`arena_rebases > 0`), and move the pool's
/// steal counter — while returning the exact verdict and a valid witness.
/// Pinning the grain to `usize::MAX` on the same instance keeps the
/// verdict and zeroes the splits.
#[test]
fn disconnected_instance_splits_children_and_steals() {
    let hg = families::disjoint_union(&[families::grid(4, 4), families::grid(4, 4)]);
    let ctrl = Control::unlimited();

    let (d, stats) = LogK::parallel(2).search_with_stats(&hg, 3, &ctrl).unwrap();
    let d = d.expect("hw(grid ⊎ grid) = 3");
    validate_hd_width(&hg, &d, 3).unwrap();
    assert!(
        stats.child_splits > 0,
        "multi-component instance at 2 workers must fan its children out"
    );
    assert!(
        stats.arena_rebases > 0,
        "successful parallel joins must fold branch fragments back"
    );
    assert!(
        stats.sched_steals > 0,
        "the second worker must actually steal sibling subproblems"
    );

    let (d_pinned, s_pinned) = LogK::parallel(2)
        .with_child_split(usize::MAX, 0)
        .search_with_stats(&hg, 3, &ctrl)
        .unwrap();
    validate_hd_width(&hg, &d_pinned.expect("verdict is grain-independent"), 3).unwrap();
    assert_eq!(s_pinned.child_splits, 0);
    assert_eq!(s_pinned.arena_rebases, 0);

    // One worker: the split gate (`current_num_threads() > 1`) keeps the
    // sequential fast path even with the default grain.
    let (d1, s1) = LogK::parallel(1).search_with_stats(&hg, 3, &ctrl).unwrap();
    validate_hd_width(&hg, &d1.expect("verdict is worker-independent"), 3).unwrap();
    assert_eq!(s1.child_splits, 0, "1-worker pools must not split children");
}

/// The refutation side: at `k = 1` the union of two cycles is
/// undecomposable, so every parallel join ends in a definitive child
/// rejection — the fail-fast path. Verdicts must agree and the cancel
/// counter may only move when splits happened.
#[test]
fn rejection_verdicts_agree_under_child_parallelism() {
    let hg = families::disjoint_union(&[families::cycle(8), families::cycle(8)]);
    let ctrl = Control::unlimited();
    let (d, stats) = LogK::parallel(2)
        .with_child_split(2, 0)
        .search_with_stats(&hg, 1, &ctrl)
        .unwrap();
    assert!(d.is_none(), "hw(C8 ⊎ C8) = 2, so k = 1 must refute");
    let (ds, _) = LogK::sequential().search_with_stats(&hg, 1, &ctrl).unwrap();
    assert!(ds.is_none());
    if stats.child_splits == 0 {
        assert_eq!(stats.child_cancels, 0, "cancels require splits");
    }
    // And the decomposable width still agrees.
    let dp = LogK::parallel(2)
        .with_child_split(2, 0)
        .search_with_stats(&hg, 2, &ctrl)
        .map(|(d, _)| d.is_some());
    let dq = LogK::sequential()
        .search_with_stats(&hg, 2, &ctrl)
        .map(|(d, _)| d.is_some());
    assert_eq!(dp.unwrap(), dq.unwrap());
}

/// Wide corpus under child parallelism: the fork/merge arena discipline
/// moves multi-word bitsets across branch scratch spaces; verdicts and
/// witnesses must match the sequential engine on every wide instance.
/// A disjoint union of two wide bands additionally forces the sibling
/// fan-out itself to run at many-word widths.
#[test]
fn wide_corpus_par_children_matches_sequential() {
    let ctrl = Control::unlimited();
    let seq = LogK::sequential();
    let par_split = LogK::parallel(2).with_child_split(2, 0);
    let mut checked = 0usize;
    for inst in wide_corpus(WideConfig::default()) {
        let Some(k) = inst.width_upper else { continue };
        let (ds, _) = seq.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        let (dp, _) = par_split.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        assert_eq!(
            ds.is_some(),
            dp.is_some(),
            "children-split parallel disagrees on {} at k={k}",
            inst.name
        );
        for d in [&ds, &dp].into_iter().flatten() {
            validate_hd_width(&inst.hg, d, k)
                .unwrap_or_else(|e| panic!("invalid witness on {}: {e:?}", inst.name));
        }
        checked += 1;
    }
    assert!(checked >= 5, "wide corpus slice unexpectedly small");

    // 524 vertices across two components: the root fan-out itself.
    let hg =
        families::disjoint_union(&[families::band_cq(130, 4, 2), families::band_cq(130, 4, 2)]);
    let (d, stats) = LogK::parallel(2)
        .with_child_split(2, 0)
        .search_with_stats(&hg, 1, &ctrl)
        .unwrap();
    validate_hd_width(&hg, &d.expect("bands are acyclic"), 1).unwrap();
    let ds = seq.search_with_stats(&hg, 1, &ctrl).unwrap().0.is_some();
    assert!(ds);
    if stats.child_splits == 0 {
        assert_eq!(stats.child_cancels, 0, "cancels require splits");
    }
}

fn arb_hypergraph() -> impl Strategy<Value = hypergraph::Hypergraph> {
    prop::collection::vec(prop::collection::vec(0u32..12, 2..4), 1..10)
        .prop_map(|edges| hypergraph::Hypergraph::from_edge_lists(&edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary small hypergraphs (the vertex range leaves room for
    /// disconnected instances): sequential, children-pinned parallel and
    /// aggressively-split parallel decisions coincide for every k, and
    /// all witnesses validate.
    #[test]
    fn child_split_decisions_match_sequential(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let seq = LogK::sequential();
        let par_pinned = LogK::parallel(2).with_child_split(usize::MAX, 0);
        let par_split = LogK::parallel(2).with_child_split(2, 0);
        for k in 1..=3usize {
            let a = seq.search_with_stats(&hg, k, &ctrl).unwrap().0;
            let b = par_pinned.search_with_stats(&hg, k, &ctrl).unwrap().0;
            let c = par_split.search_with_stats(&hg, k, &ctrl).unwrap().0;
            prop_assert_eq!(a.is_some(), b.is_some(), "children-pinned at k={}", k);
            prop_assert_eq!(a.is_some(), c.is_some(), "children-split at k={}", k);
            for d in [&a, &b, &c].into_iter().flatten() {
                prop_assert!(validate_hd_width(&hg, d, k).is_ok());
            }
        }
    }
}
