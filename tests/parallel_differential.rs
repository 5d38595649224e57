//! Differential tests for the parallel engine: racing the λc leads
//! across the pool must be *observationally identical* to the sequential
//! search — same decidability for every k, and every witness passes the
//! full HD validator. The race is the engine's only parallelism; the
//! `[λc]`-components below a candidate always recurse in order.
//!
//! The suite compares `LogK::parallel(2)` with `LogK::sequential()` on
//! the corpus slice, the wide corpus, disjoint unions (whose empty root
//! connector splits every root candidate into one component per part)
//! and arbitrary small hypergraphs. `LogK::parallel(1)` and
//! `LogK::hybrid(1)` have no second worker, so they run inline on the
//! caller's thread: they must return the very witness and the very
//! counters of `sequential()` (with the paper's handoff policy for
//! `hybrid(1)`), scheduler counters 0 included. `LogK::parallel(2)` runs
//! work-first: inline like `sequential()` for its first
//! `INLINE_SEPARATIONS` separations, and on the pool only past them. A
//! search under that budget must print `sequential()`'s witness and
//! counters with no pool handoff; the steal test crosses it.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.

use decomp::{validate_hd_width, Control};
use logk::engine::INLINE_SEPARATIONS;
use logk::{HybridConfig, HybridMetric, LogK};
use proptest::prelude::*;
use workloads::{families, hyperbench_like, wide_corpus, CorpusConfig, WideConfig};

/// The parallel engine across the workloads corpus: verdicts identical
/// to the sequential engine, and valid witnesses.
#[test]
fn corpus_parallel_matches_sequential() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 2024,
        scale: 1.0 / 100.0,
    });
    let ctrl = Control::unlimited();
    let seq = LogK::sequential();
    let par = LogK::parallel(2);

    let mut checked = 0usize;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 40) {
        for k in 1..=4usize {
            let (ds, _) = seq.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            let (dp, _) = par.search_with_stats(&inst.hg, k, &ctrl).unwrap();
            assert_eq!(
                ds.is_some(),
                dp.is_some(),
                "parallel disagrees on {} at k={k}",
                inst.name
            );
            for d in [&ds, &dp].into_iter().flatten() {
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

/// A disjoint union of two grids: every root candidate splits into one
/// `[λc]`-component per grid. Its search needs 1370 separations, past the
/// inline budget, so at 2 workers it is handed to the pool. The λc race
/// must return the exact verdict with a valid witness, and the pool's
/// steal counter must move — the second worker really takes leads. At 1
/// worker the solve runs inline, so nothing is published and nothing is
/// stolen.
#[test]
fn disjoint_grids_match_sequential_and_steal() {
    let hg = families::disjoint_union(&[families::grid(4, 4), families::grid(4, 4)]);
    let ctrl = Control::unlimited();

    let (_, seq) = LogK::sequential().search_with_stats(&hg, 3, &ctrl).unwrap();
    assert!(seq.separations > INLINE_SEPARATIONS, "{seq:?}");
    let (d, stats) = LogK::parallel(2).search_with_stats(&hg, 3, &ctrl).unwrap();
    validate_hd_width(&hg, &d.expect("hw(grid ⊎ grid) = 3"), 3).unwrap();
    assert_eq!(stats.pool_handoffs, 1, "past the budget the solve races");
    assert!(
        stats.sched_steals > 0,
        "the second worker must actually steal λc leads"
    );

    let (d1, s1) = LogK::parallel(1).search_with_stats(&hg, 3, &ctrl).unwrap();
    validate_hd_width(&hg, &d1.expect("verdict is worker-independent"), 3).unwrap();
    assert_eq!(s1.sched_steals, 0, "a 1-worker solve has nobody to steal");
}

/// The refutation side: at `k = 1` the union of two cycles is
/// undecomposable, at `k = 2` it is not. Both verdicts must agree with
/// the sequential engine.
#[test]
fn disjoint_cycles_verdicts_match_sequential() {
    let hg = families::disjoint_union(&[families::cycle(8), families::cycle(8)]);
    let ctrl = Control::unlimited();
    for k in 1..=2usize {
        let (dp, _) = LogK::parallel(2).search_with_stats(&hg, k, &ctrl).unwrap();
        let (ds, _) = LogK::sequential().search_with_stats(&hg, k, &ctrl).unwrap();
        assert_eq!(dp.is_some(), k == 2, "hw(C8 ⊎ C8) = 2, k={k}");
        assert_eq!(ds.is_some(), k == 2, "hw(C8 ⊎ C8) = 2, k={k}");
        for d in [&ds, &dp].into_iter().flatten() {
            validate_hd_width(&hg, d, k).unwrap();
        }
    }
}

/// Wide corpus under the λc race: branch arenas and pooled scratch carry
/// multi-word bitsets; verdicts and witnesses must match the sequential
/// engine on every wide instance. A disjoint union of two wide bands adds
/// a many-word instance whose root splits into two components.
#[test]
fn wide_corpus_parallel_matches_sequential() {
    let ctrl = Control::unlimited();
    let seq = LogK::sequential();
    let par = LogK::parallel(2);
    let mut checked = 0usize;
    for inst in wide_corpus(WideConfig::default()) {
        let Some(k) = inst.width_upper else { continue };
        let (ds, _) = seq.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        let (dp, _) = par.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        assert_eq!(
            ds.is_some(),
            dp.is_some(),
            "parallel disagrees on {} at k={k}",
            inst.name
        );
        for d in [&ds, &dp].into_iter().flatten() {
            validate_hd_width(&inst.hg, d, k)
                .unwrap_or_else(|e| panic!("invalid witness on {}: {e:?}", inst.name));
        }
        checked += 1;
    }
    assert!(checked >= 5, "wide corpus slice unexpectedly small");

    // 524 vertices across two components.
    let hg =
        families::disjoint_union(&[families::band_cq(130, 4, 2), families::band_cq(130, 4, 2)]);
    let (d, _) = par.search_with_stats(&hg, 1, &ctrl).unwrap();
    validate_hd_width(&hg, &d.expect("bands are acyclic"), 1).unwrap();
    assert!(seq.search_with_stats(&hg, 1, &ctrl).unwrap().0.is_some());
}

fn arb_hypergraph() -> impl Strategy<Value = hypergraph::Hypergraph> {
    prop::collection::vec(prop::collection::vec(0u32..12, 2..4), 1..10)
        .prop_map(|edges| hypergraph::Hypergraph::from_edge_lists(&edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary small hypergraphs (the vertex range leaves room for
    /// disconnected instances): sequential and 2-worker parallel
    /// decisions coincide for every k, and all witnesses validate. The
    /// 1-worker engines are the sequential search itself: `parallel(1)`
    /// prints the witness and `SolveStats` of `sequential()`, `hybrid(1)`
    /// those of `sequential()` under the paper's handoff policy, and
    /// neither touches a scheduler. So does `parallel(2)` on every search
    /// within the inline budget: no pool handoff, no steal, no park.
    #[test]
    fn parallel_decisions_match_sequential(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let paper = HybridConfig {
            metric: HybridMetric::WeightedCount,
            threshold: 400.0,
        };
        let one_worker_pairs = [
            ("parallel(1)", LogK::parallel(1), LogK::sequential()),
            ("hybrid(1)", LogK::hybrid(1), LogK::sequential().with_hybrid(Some(paper))),
        ];
        let seq = LogK::sequential();
        let par2 = LogK::parallel(2);
        for k in 1..=3usize {
            for (name, one, reference) in &one_worker_pairs {
                let got = one.search_with_stats(&hg, k, &ctrl).unwrap();
                let want = reference.search_with_stats(&hg, k, &ctrl).unwrap();
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{} at k={}", name, k);
                prop_assert_eq!((got.1.sched_steals, got.1.sched_parks), (0, 0), "{} at k={}", name, k);
            }
            let a = seq.search_with_stats(&hg, k, &ctrl).unwrap();
            let c = par2.search_with_stats(&hg, k, &ctrl).unwrap();
            if a.1.separations <= INLINE_SEPARATIONS {
                prop_assert_eq!(format!("{c:?}"), format!("{a:?}"), "parallel(2) at k={}", k);
                let sched = (c.1.pool_handoffs, c.1.sched_steals, c.1.sched_parks);
                prop_assert_eq!(sched, (0, 0, 0), "parallel(2) at k={}", k);
            }
            prop_assert_eq!(a.0.is_some(), c.0.is_some(), "parallel(2) at k={}", k);
            for d in [&a.0, &c.0].into_iter().flatten() {
                prop_assert!(validate_hd_width(&hg, d, k).is_ok());
            }
        }
    }
}
