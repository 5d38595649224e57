//! Differential suite for the racing layer (PR 10): the speculative
//! k-sweep (`logk::width_bounds_racing`) must prove **exactly** the
//! bounds the sequential sweep proves — same `proven_lower`, same
//! `best_upper`, and a witness that passes the full HD validator — on
//! the structured and wide corpora, at every speculation window, and
//! under any ambient pool size (CI runs this at `RAYON_NUM_THREADS`
//! 1/2/4: the probes are plain threads, but the solvers they run draw on
//! the ambient pool when configured parallel).
//!
//! The suite also pins the portfolio's verdict agreement with the
//! engines it races, the loser-cancellation latency through the
//! existing interruption machinery, and — under
//! `--features fault-injection` — the containment story at the race
//! spawn/probe/join sites (a panicking racer is contained; the
//! surviving racers' verdicts still certify the result).

use std::sync::Arc;
use std::time::{Duration, Instant};

use decomp::{validate_hd_width, Control, Interrupted};
use logk::{width_bounds_racing, width_bounds_with, LogK};
use workloads::{families, hyperbench_like, wide_corpus, CorpusConfig, WideConfig};

/// Wall-clock budget before an external interruption in the latency
/// tests (mirrors `tests/interruption.rs`).
const BUDGET: Duration = Duration::from_millis(25);

/// Cooperative-stop latency bound (absorbs debug builds and loaded CI).
const LATENCY: Duration = Duration::from_secs(3);

/// Asserts racing bounds ≡ sequential bounds on one instance, for every
/// speculation window, including the witness's validity. Uninterrupted
/// sweeps only (no budgets): with every probe running to its verdict,
/// the ledger must reconstruct the sequential result exactly, whatever
/// order the verdicts landed in.
fn assert_race_matches_sequential(name: &str, hg: &hypergraph::Hypergraph, k_max: usize) {
    let ctrl = Arc::new(Control::unlimited());
    let seq = width_bounds_with(hg, k_max, &ctrl, None, |_| LogK::sequential());
    assert!(
        seq.interrupted.is_none(),
        "{name}: sequential sweep interrupted"
    );
    for speculation in [2usize, 3] {
        let race = width_bounds_racing(hg, k_max, &ctrl, None, speculation, |_| LogK::sequential());
        assert_eq!(
            race.proven_lower, seq.proven_lower,
            "{name} spec{speculation}: lower bounds disagree"
        );
        assert_eq!(
            race.best_upper, seq.best_upper,
            "{name} spec{speculation}: upper bounds disagree"
        );
        assert_eq!(
            race.exact(),
            seq.exact(),
            "{name} spec{speculation}: exactness"
        );
        assert!(
            race.interrupted.is_none(),
            "{name} spec{speculation}: uninterrupted sweep reported {:?}",
            race.interrupted
        );
        match (&race.witness, race.best_upper) {
            (Some(w), Some(u)) => assert!(
                validate_hd_width(hg, w, u).is_ok(),
                "{name} spec{speculation}: racing witness fails HD validation at {u}"
            ),
            (None, None) => {}
            (w, u) => panic!(
                "{name} spec{speculation}: witness/upper mismatch ({} vs {u:?})",
                w.is_some()
            ),
        }
    }
}

/// Racing ≡ sequential across the structured (HyperBench-shaped)
/// corpus, sequential probe solvers.
#[test]
fn structured_corpus_race_matches_sequential() {
    let corpus = hyperbench_like(CorpusConfig {
        seed: 2024,
        scale: 1.0 / 100.0,
    });
    let mut checked = 0usize;
    for inst in corpus.iter().filter(|i| i.hg.num_edges() <= 36) {
        assert_race_matches_sequential(&inst.name, &inst.hg, 3);
        checked += 1;
    }
    assert!(checked >= 10, "corpus filter too aggressive ({checked})");
}

/// Racing ≡ sequential on the known-width wide instances (hundreds of
/// vertices, multi-word bitsets), probing up to one past the certified
/// width so the sweep both refutes and witnesses.
#[test]
fn wide_corpus_race_matches_sequential() {
    let corpus = wide_corpus(WideConfig::default());
    let mut checked = 0usize;
    for inst in &corpus {
        let Some(upper) = inst.width_upper else {
            continue;
        };
        let k_max = (upper + 1).min(4);
        assert_race_matches_sequential(&inst.name, &inst.hg, k_max);
        checked += 1;
    }
    assert!(checked >= 3, "wide corpus had too few certified instances");
}

/// Racing ≡ sequential when the probe solvers themselves are parallel
/// (concurrent probes share the ambient pool) — the configuration the
/// service runs under `RAYON_NUM_THREADS` 2/4.
#[test]
fn race_with_parallel_probes_matches_sequential() {
    for (name, hg, k_max) in [
        ("grid4x4", families::grid(4, 4), 4usize),
        ("band_cycle80", families::band_cycle(80, 4, 2), 3),
        (
            "multi_component",
            families::disjoint_union(&[families::grid(3, 3), families::cycle(12)]),
            3,
        ),
    ] {
        let ctrl = Arc::new(Control::unlimited());
        let seq = width_bounds_with(&hg, k_max, &ctrl, None, |_| LogK::sequential());
        let race = width_bounds_racing(&hg, k_max, &ctrl, None, 2, |_| LogK::parallel(2));
        assert_eq!(race.proven_lower, seq.proven_lower, "{name}: lower");
        assert_eq!(race.best_upper, seq.best_upper, "{name}: upper");
        if let (Some(w), Some(u)) = (&race.witness, race.best_upper) {
            assert!(validate_hd_width(&hg, w, u).is_ok(), "{name}: witness");
        }
    }
}

/// The satellite regression: a probe that hits its per-width slice
/// budget (or is cancelled by the race) is **undecided** — it must
/// never be recorded as a refutation, in the racing sweep or the
/// sequential one. On the 6×6 grid with a slice budget that k = 3
/// cannot meet, both sweeps must report `hw ∈ [3, 4]` — conflating the
/// timeout with a refutation would certify the false bound
/// `proven_lower = 4` (and `exact`ness that was never proven).
#[test]
fn timed_out_slice_is_never_a_refutation() {
    let hg = families::grid(6, 6);
    // k ≤ 2 resolve well inside the slice in any build; k = 3 blows it
    // in every build (~1.6 s even in release). Whether k = 4 witnesses
    // inside its own slice is build-speed-dependent (≈300 ms release,
    // seconds in debug), so the build-invariant regression assert is on
    // the lower bound: the k = 3 (and possibly k = 4) timeouts must
    // leave it at exactly 3.
    let budget = Some(Duration::from_millis(400));
    for speculation in [1usize, 2] {
        let ctrl = Arc::new(Control::unlimited());
        let b = width_bounds_racing(&hg, 4, &ctrl, budget, speculation, |_| LogK::sequential());
        assert_eq!(
            b.proven_lower, 3,
            "spec{speculation}: an undecided width moved the lower bound \
             (a timeout or cancellation was recorded as a refutation)"
        );
        assert!(
            !b.exact(),
            "spec{speculation}: exactness certified across an undecided width"
        );
        assert_eq!(
            b.interrupted,
            Some(Interrupted::Timeout),
            "spec{speculation}: the slice expiry must be recorded"
        );
        if let Some(u) = b.best_upper {
            assert_eq!(u, 4, "spec{speculation}: upper");
            let w = b.witness.expect("witness accompanies the upper bound");
            assert!(validate_hd_width(&hg, &w, 4).is_ok());
        }
    }
}

/// Portfolio race verdict ≡ the sequential engine's verdict, with the
/// winner's witness HD-validated, across widths spanning refutations
/// and witnesses.
#[test]
fn portfolio_verdict_matches_sequential_engine() {
    let port = portfolio::Portfolio::full(1);
    for (name, hg, ks) in [
        ("grid4x4", families::grid(4, 4), [2usize, 3]),
        ("band_cycle80", families::band_cycle(80, 4, 2), [1, 2]),
        ("cycle12", families::cycle(12), [1, 2]),
    ] {
        for k in ks {
            let ctrl = Arc::new(Control::unlimited());
            let expected = LogK::sequential()
                .decide(&hg, k, &ctrl)
                .expect("reference decision");
            let out = port.race(&hg, k, &ctrl);
            match out.verdict {
                Ok(Some(w)) => {
                    assert!(expected, "{name} k={k}: race witnessed a refuted width");
                    assert!(
                        validate_hd_width(&hg, &w, k).is_ok(),
                        "{name} k={k}: winning witness invalid"
                    );
                    assert!(out.winner.is_some());
                }
                Ok(None) => {
                    assert!(!expected, "{name} k={k}: race refuted a witnessed width");
                    assert!(out.winner.is_some());
                }
                Err(e) => panic!("{name} k={k}: unlimited race interrupted: {e:?}"),
            }
        }
    }
}

/// Loser cancellation, fast-winner side: on an instance where `logk`
/// refutes quickly but the SAT racer alone runs far longer, the race
/// must return as soon as the first definitive verdict lands and the
/// cancelled losers must show up in the counters — the whole race
/// bounded by the winner's time plus the cooperative-stop latency, not
/// by the slowest racer.
#[test]
fn portfolio_cancels_losers_within_latency() {
    // grid7x7 at k = 2: logk refutes in milliseconds; the SAT encoding
    // alone solves for ~800 ms release, far past LATENCY in debug builds.
    // The race's bounds pass refutes the bare grid before any racer
    // starts (minor-min-width 4 = k · r), leaving no loser to cancel; a
    // disjoint 3-vertex edge lifts r to 3, so the pass leaves this copy
    // to the racers without changing its width.
    let wide = hypergraph::Hypergraph::from_edge_lists(&[vec![0, 1, 2]]);
    let hg = families::disjoint_union(&[families::grid(7, 7), wide]);
    assert!(logk::settle(&hg, 2).is_none());
    let port = portfolio::Portfolio::full(1);
    let ctrl = Arc::new(Control::unlimited());
    let t0 = Instant::now();
    let out = port.race(&hg, 2, &ctrl);
    let elapsed = t0.elapsed();
    assert!(matches!(out.verdict, Ok(None)), "k = 2 must be refuted");
    assert!(
        out.stats.race_cancels >= 1,
        "no loser was cancelled mid-flight: {:?}",
        out.stats
    );
    // The bound is deliberately loose (debug builds, loaded CI): the
    // claim is "winner + stop latency", not "slowest racer".
    assert!(
        elapsed < Duration::from_secs(30),
        "race gated on a loser: {elapsed:?}"
    );
}

/// Loser cancellation, external-interrupt side (the interruption-suite
/// idiom): cancelling the caller's control mid-race on an instance
/// where *every* racer runs ≫ LATENCY must interrupt the whole race
/// within the cooperative-stop latency.
#[test]
fn portfolio_race_cancels_externally_within_latency() {
    let hg = families::chorded_cycle(96, 48, 3);
    let port = portfolio::Portfolio::full(1);
    let ctrl = Arc::new(Control::unlimited());
    let killer = {
        let ctrl = Arc::clone(&ctrl);
        std::thread::spawn(move || {
            std::thread::sleep(BUDGET);
            ctrl.cancel();
        })
    };
    let t0 = Instant::now();
    // k = 4: at k = 3 the bounds pass refutes this instance at once
    // (minor-min-width 6 ≥ k · r), before any racer's search starts.
    let out = port.race(&hg, 4, &ctrl);
    let elapsed = t0.elapsed();
    killer.join().expect("killer thread");
    assert_eq!(
        out.verdict.err(),
        Some(Interrupted::Cancelled),
        "external cancellation must surface as Cancelled"
    );
    assert!(
        elapsed < BUDGET + LATENCY,
        "cancellation honoured only after {elapsed:?}"
    );
}

/// Same for the racing sweep: a deadline on the overall control stops
/// every in-flight probe within the cooperative-stop latency.
#[test]
fn racing_sweep_times_out_within_latency() {
    let hg = families::chorded_cycle(96, 48, 3);
    let ctrl = Arc::new(Control::with_timeout(BUDGET));
    let t0 = Instant::now();
    let b = width_bounds_racing(&hg, 4, &ctrl, None, 2, |_| LogK::sequential());
    let elapsed = t0.elapsed();
    assert_eq!(b.interrupted, Some(Interrupted::Timeout));
    assert!(
        elapsed < BUDGET + LATENCY,
        "sweep timeout honoured only after {elapsed:?}"
    );
}

/// Fault-injection half: the race spawn/probe/join sites, and the
/// containment claims. Serialised via the same global-registry
/// discipline as `tests/child_join_faults.rs`.
#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use decomp::faults::{self, Fault};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn armed() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        let g = GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        faults::reset();
        g
    }

    /// A probe thread that panics is contained: the width goes
    /// undecided, the surviving probes' verdicts still certify a
    /// validated witness, and the sweep returns normally.
    #[test]
    fn panicking_probe_is_contained_and_survivors_win() {
        let _g = armed();
        let hg = families::band_cycle(80, 4, 2); // hw = 2
        faults::arm("logk/race/probe", 1, Fault::Panic);
        let ctrl = Arc::new(Control::unlimited());
        let b = width_bounds_racing(&hg, 3, &ctrl, None, 2, |_| LogK::sequential());
        assert!(faults::hits("logk/race/probe") >= 1, "site never reached");
        // Whichever probe died, the survivors must still have produced
        // a coherent, validated result: the witness stands, the lower
        // bound never claims more than the definitive refutations.
        let u = b.best_upper.expect("a surviving probe must witness");
        assert!(u <= 3);
        assert!(b.proven_lower <= u);
        let w = b.witness.expect("witness accompanies the upper bound");
        assert!(validate_hd_width(&hg, &w, u).is_ok());
        faults::reset();
    }

    /// A spurious cancellation at the spawn site interrupts the sweep
    /// like any external cancellation — degraded bounds, never wrong
    /// ones.
    #[test]
    fn cancel_at_race_spawn_interrupts_the_sweep() {
        let _g = armed();
        let hg = families::grid(4, 4);
        faults::arm("logk/race/spawn", 1, Fault::Cancel);
        let ctrl = Arc::new(Control::unlimited());
        let b = width_bounds_racing(&hg, 4, &ctrl, None, 2, |_| LogK::sequential());
        assert!(faults::hits("logk/race/spawn") >= 1);
        assert_eq!(b.interrupted, Some(Interrupted::Cancelled));
        // No probe ran to a definitive verdict before the cancellation
        // propagated — whatever bounds survive must stay conservative.
        assert!(b.proven_lower <= 4);
        faults::reset();
    }

    /// A panic at the coordinator's join site unwinds out of the sweep
    /// (the coordinator has no containment boundary of its own — that
    /// is the caller's job, exactly like the engine's child-join
    /// sites), and the drop guard cancels every in-flight probe so
    /// nothing leaks; the racing layer stays healthy afterwards.
    #[test]
    fn panic_at_race_join_unwinds_and_leaves_the_layer_healthy() {
        let _g = armed();
        let hg = families::band_cycle(80, 4, 2);
        faults::arm("logk/race/join", 1, Fault::Panic);
        let ctrl = Arc::new(Control::unlimited());
        let result = catch_unwind(AssertUnwindSafe(|| {
            width_bounds_racing(&hg, 3, &ctrl, None, 2, |_| LogK::sequential())
        }));
        let payload = result.expect_err("armed join panic must unwind");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("logk/race/join"),
            "unexpected panic payload: {message}"
        );
        faults::reset();
        // The layer is reusable immediately after the unwind.
        let b = width_bounds_racing(&hg, 3, &ctrl, None, 2, |_| LogK::sequential());
        assert_eq!(b.best_upper, Some(2));
        faults::reset();
    }

    /// A panicking portfolio racer is contained on its thread; the
    /// surviving racers' verdict wins and still validates.
    #[test]
    fn panicking_portfolio_racer_is_contained() {
        let _g = armed();
        let hg = families::grid(4, 4);
        faults::arm("portfolio/engine", 1, Fault::Panic);
        let port = portfolio::Portfolio::full(1);
        let ctrl = Arc::new(Control::unlimited());
        let out = port.race(&hg, 3, &ctrl);
        assert!(faults::hits("portfolio/engine") >= 1, "site never reached");
        match out.verdict {
            Ok(Some(w)) => {
                assert!(validate_hd_width(&hg, &w, 3).is_ok());
                assert!(out.winner.is_some());
            }
            other => panic!("survivors must still witness grid4x4 at 3: {other:?}"),
        }
        faults::reset();
    }

    /// A spurious cancellation at the portfolio join site surfaces as
    /// an interrupted race, not a wrong verdict.
    #[test]
    fn cancel_at_portfolio_join_interrupts_the_race() {
        let _g = armed();
        let hg = families::grid(4, 4);
        faults::arm("portfolio/join", 1, Fault::Cancel);
        let port = portfolio::Portfolio::full(1);
        let ctrl = Arc::new(Control::unlimited());
        let out = port.race(&hg, 3, &ctrl);
        assert!(faults::hits("portfolio/join") >= 1);
        // The first join hit fires before any verdict is accepted, so
        // the cancellation wins the race — and must be typed as such.
        assert!(
            matches!(out.verdict, Err(Interrupted::Cancelled)) || out.winner.is_some(),
            "cancelled race produced an untyped result"
        );
        faults::reset();
    }
}
