//! Differential tests for the λp admissibility pre-filter: rejecting a
//! parent candidate from coverage bitmasks alone (before its `[λp]`-BFS
//! separation runs) must be *observationally identical* to running the
//! full separation — same decidability for every k, and every witness
//! passes the full HD validator — in both the sequential and the
//! parallel (`LogK::parallel`, λc race on) configurations. The pre-filter may
//! only change how many separations run, never the answer. On the grid
//! family (the workload whose `lambda_p_rejected` counter motivated the
//! filter) the suite additionally asserts that the filter actually fires
//! and that it erases the majority of `separate_into` calls. A
//! `parallel(2)` solve runs inline until it has spent
//! `INLINE_SEPARATIONS` separations and races on the pool only past
//! them. The parallel arms assert that some of their solves cross that
//! budget; the unfiltered grid searches always do.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.

use decomp::{validate_hd_width, Control};
use logk::LogK;
use proptest::prelude::*;
use workloads::{families, hyperbench_like, wide_corpus, CorpusConfig, WideConfig};

/// Pre-filtered and unfiltered engines across the workloads corpus,
/// sequential and parallel: identical verdicts, valid witnesses, and the
/// filtered engine never runs *more* separations.
#[test]
fn corpus_prefiltered_matches_unfiltered_sequential_and_parallel() {
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
            LogK::sequential().with_lambda_p_prefilter(false),
        ),
        (
            "parallel",
            LogK::parallel(2),
            LogK::parallel(2).with_lambda_p_prefilter(false),
        ),
    ];

    for (mode, filtered, unfiltered) in configs {
        let mut checked = 0usize;
        let mut pool_handoffs = 0u64;
        for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 40) {
            for k in 1..=k_max {
                let (df, sf) = filtered.search_with_stats(&inst.hg, k, &ctrl).unwrap();
                let (du, su) = unfiltered.search_with_stats(&inst.hg, k, &ctrl).unwrap();
                pool_handoffs += sf.pool_handoffs + su.pool_handoffs;
                assert_eq!(
                    df.is_some(),
                    du.is_some(),
                    "{mode}: filtered and unfiltered disagree on {} at k={k}",
                    inst.name
                );
                assert_eq!(
                    su.lambda_p_prefiltered, 0,
                    "{mode}: unfiltered engine must not pre-filter"
                );
                // Sequential search order is identical modulo the skipped
                // separations, so the filtered engine can only run fewer.
                // (Parallel counts are racy — whichever branch wins the
                // "any" race shapes how much the losers explored.)
                if mode == "sequential" {
                    assert!(
                        sf.separations <= su.separations,
                        "pre-filter added separations on {} at k={k} ({} > {})",
                        inst.name,
                        sf.separations,
                        su.separations
                    );
                }
                if let Some(d) = &df {
                    validate_hd_width(&inst.hg, d, k).unwrap_or_else(|e| {
                        panic!(
                            "{mode}: invalid filtered witness on {} at k={k}: {e:?}",
                            inst.name
                        )
                    });
                }
                if let Some(d) = &du {
                    validate_hd_width(&inst.hg, d, k).unwrap_or_else(|e| {
                        panic!(
                            "{mode}: invalid unfiltered witness on {} at k={k}: {e:?}",
                            inst.name
                        )
                    });
                }
                if df.is_some() {
                    break; // width found; larger k adds nothing new
                }
            }
            checked += 1;
        }
        assert!(checked > 10, "{mode}: corpus slice unexpectedly small");
        assert_eq!(
            pool_handoffs > 0,
            mode == "parallel",
            "{mode}: only 2-worker solves past the inline budget race"
        );
    }
}

/// The motivating workload: grid searches reject millions of λp
/// candidates, and most rejections are decidable from coverage bitmasks
/// alone. The filter must fire (`lambda_p_prefiltered > 0`), cut the
/// `separate_into` call count ≥ 5× (the acceptance bar; measured ~10× on
/// 4×4 and ~22–36× on the larger grids), and leave the verdict and its
/// witness untouched — sequential and parallel.
#[test]
fn grid_prefilter_fires_and_erases_most_separations() {
    let ctrl = Control::unlimited();
    for (name, hg) in [
        ("grid4x4", families::grid(4, 4)),
        ("grid4x5", families::grid(4, 5)),
    ] {
        for (mode, filtered, unfiltered) in [
            (
                "sequential",
                LogK::sequential(),
                LogK::sequential().with_lambda_p_prefilter(false),
            ),
            (
                "parallel",
                LogK::parallel(2),
                LogK::parallel(2).with_lambda_p_prefilter(false),
            ),
        ] {
            let (df, sf) = filtered.search_with_stats(&hg, 3, &ctrl).unwrap();
            let (du, su) = unfiltered.search_with_stats(&hg, 3, &ctrl).unwrap();
            let d = df.unwrap_or_else(|| panic!("{mode}: {name} has hw = 3"));
            validate_hd_width(&hg, &d, 3).unwrap();
            validate_hd_width(&hg, &du.expect("unfiltered agrees"), 3).unwrap();
            assert!(
                sf.lambda_p_prefiltered > 0,
                "{mode}: pre-filter must fire on {name}"
            );
            // Unfiltered, the inline phase spends its whole budget, so
            // the parallel arm races on the pool.
            if mode == "parallel" {
                assert_eq!(su.pool_handoffs, 1, "{name}: {su:?}");
            }
            // The ≥5× acceptance bar is deterministic only sequentially;
            // parallel counts depend on which branch wins the "any" race.
            if mode == "sequential" {
                assert!(
                    su.separations >= 5 * sf.separations,
                    "expected ≥5× fewer separations on {name}, got {} vs {}",
                    sf.separations,
                    su.separations
                );
            }
        }
    }
}

/// Wide corpus (hundreds of vertices, multi-word bitsets): the
/// pre-filtered engine agrees with the unfiltered one at the certified
/// width, never runs more separations, and produces valid witnesses.
/// This is the regime the lane-chunked kernels were built for.
#[test]
fn wide_corpus_prefiltered_matches_unfiltered_at_known_width() {
    let ctrl = Control::unlimited();
    let filtered = LogK::sequential();
    let unfiltered = LogK::sequential().with_lambda_p_prefilter(false);
    let mut checked = 0usize;
    for inst in wide_corpus(WideConfig::default()) {
        let Some(k) = inst.width_upper else { continue };
        let (df, sf) = filtered.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        let (du, su) = unfiltered.search_with_stats(&inst.hg, k, &ctrl).unwrap();
        assert!(
            df.is_some() && du.is_some(),
            "{} must decompose at its certified width {k}",
            inst.name
        );
        assert_eq!(su.lambda_p_prefiltered, 0, "{}", inst.name);
        assert!(
            sf.separations <= su.separations,
            "{}: pre-filter added separations ({} > {})",
            inst.name,
            sf.separations,
            su.separations
        );
        for d in [&df, &du].into_iter().flatten() {
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

    /// Arbitrary small hypergraphs: pre-filtered (sequential and
    /// parallel) and unfiltered decisions coincide for every k, and
    /// witnesses validate.
    #[test]
    fn prefiltered_decisions_match_unfiltered(hg in arb_hypergraph()) {
        let ctrl = Control::unlimited();
        let filtered_seq = LogK::sequential();
        let filtered_par = LogK::parallel(2);
        let unfiltered = LogK::sequential().with_lambda_p_prefilter(false);
        for k in 1..=3usize {
            let a = filtered_seq.search_with_stats(&hg, k, &ctrl).unwrap().0;
            let p = filtered_par.search_with_stats(&hg, k, &ctrl).unwrap().0;
            let b = unfiltered.search_with_stats(&hg, k, &ctrl).unwrap().0.is_some();
            prop_assert_eq!(a.is_some(), b, "sequential vs unfiltered at k={}", k);
            prop_assert_eq!(p.is_some(), b, "parallel vs unfiltered at k={}", k);
            if let Some(d) = a {
                prop_assert!(validate_hd_width(&hg, &d, k).is_ok());
            }
            if let Some(d) = p {
                prop_assert!(validate_hd_width(&hg, &d, k).is_ok());
            }
        }
    }
}
