//! Differential suite for the racing layer: the portfolio's verdict
//! agrees with the sequential engine and names a racer of its field
//! (`logk-seq` or `detk`), the loser is cancelled within the
//! cooperative-stop latency, and the anytime width sweep never counts
//! a width that ran out of its slice as refuted. CI runs it at
//! `RAYON_NUM_THREADS` 1/2/4.
//!
//! Under `--features fault-injection` the suite also pins the
//! containment story at the portfolio's engine and join sites (a
//! panicking racer is contained; the surviving racer's verdict still
//! certifies the result).

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use decomp::{validate_hd_width, Control, Interrupted};
use logk::{width_bounds_with, LogK};
use portfolio::{EngineKind, Portfolio};
use workloads::families;

/// Wall-clock budget before an external interruption in the latency
/// tests (mirrors `tests/interruption.rs`).
const BUDGET: Duration = Duration::from_millis(25);

/// Cooperative-stop latency bound (absorbs debug builds and loaded CI).
const LATENCY: Duration = Duration::from_secs(3);

/// Serialises the tests that race. The fault tests below arm
/// process-global sites in the portfolio, which a race running
/// concurrently in this binary would trip in their place.
fn exclusive() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A width that hits its per-width slice budget is **undecided**: it
/// must never be recorded as a refutation. On the 6×6 grid with a slice
/// budget that k = 3 cannot meet, the sweep must report `hw ∈ [3, 4]`;
/// conflating the timeout with a refutation would certify the false
/// bound `proven_lower = 4` (and an exactness that was never proven).
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
    let ctrl = Arc::new(Control::unlimited());
    let b = width_bounds_with(&hg, 4, &ctrl, budget, |_| LogK::sequential());
    assert_eq!(
        b.proven_lower, 3,
        "an undecided width moved the lower bound \
         (a timeout was recorded as a refutation)"
    );
    assert!(!b.exact(), "exactness certified across an undecided width");
    assert_eq!(
        b.interrupted,
        Some(Interrupted::Timeout),
        "the slice expiry must be recorded"
    );
    if let Some(u) = b.best_upper {
        assert_eq!(u, 4, "upper");
        let w = b.witness.expect("witness accompanies the upper bound");
        assert!(validate_hd_width(&hg, &w, 4).is_ok());
    }
}

/// Whether `winner` is a racer of the field.
fn in_field(winner: Option<EngineKind>) -> bool {
    matches!(winner, Some(EngineKind::LogkSeq | EngineKind::Detk))
}

/// Portfolio race verdict ≡ the sequential engine's verdict, with the
/// winner's witness HD-validated, across widths spanning refutations
/// and witnesses.
#[test]
fn portfolio_verdict_matches_sequential_engine() {
    let _g = exclusive();
    let port = Portfolio::default();
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
                    assert!(in_field(out.winner), "{name} k={k}: {:?}", out.winner);
                }
                Ok(None) => {
                    assert!(!expected, "{name} k={k}: race refuted a witnessed width");
                    assert!(in_field(out.winner), "{name} k={k}: {:?}", out.winner);
                }
                Err(e) => panic!("{name} k={k}: unlimited race interrupted: {e:?}"),
            }
        }
    }
}

/// Loser cancellation, fast-winner side: on an instance where `logk`
/// refutes about ten times faster than `detk`, the race must return as
/// soon as the first definitive verdict lands and the cancelled loser
/// must show up in the counters — the whole race bounded by the
/// winner's time plus the cooperative-stop latency, not by the slower
/// racer.
#[test]
fn portfolio_cancels_losers_within_latency() {
    let _g = exclusive();
    // grid7x7 at k = 2: `logk-seq` refutes in ~10 ms release (~0.3 s
    // debug), `detk` takes ~100 ms release (~2 s debug).
    // The race's bounds pass refutes the bare grid before any racer
    // starts (minor-min-width 4 = k · r), leaving no loser to cancel; a
    // disjoint 3-vertex edge lifts r to 3, so the pass leaves this copy
    // to the racers without changing its width.
    let wide = hypergraph::Hypergraph::from_edge_lists(&[vec![0, 1, 2]]);
    let hg = families::disjoint_union(&[families::grid(7, 7), wide]);
    assert!(logk::settle(&hg, 2).is_none());
    let port = Portfolio::default();
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
    let _g = exclusive();
    let hg = families::chorded_cycle(96, 48, 3);
    let port = Portfolio::default();
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

/// Fault-injection half: the portfolio's engine and join sites, and the
/// containment claims. Serialised via the same global-registry
/// discipline as `tests/child_join_faults.rs`.
#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use decomp::faults::{self, Fault};

    fn armed() -> MutexGuard<'static, ()> {
        let g = exclusive();
        faults::reset();
        g
    }

    /// A panicking portfolio racer is contained on its thread; the
    /// surviving racers' verdict wins and still validates.
    #[test]
    fn panicking_portfolio_racer_is_contained() {
        let _g = armed();
        let hg = families::grid(4, 4);
        faults::arm("portfolio/engine", 1, Fault::Panic);
        let port = Portfolio::default();
        let ctrl = Arc::new(Control::unlimited());
        let out = port.race(&hg, 3, &ctrl);
        assert!(faults::hits("portfolio/engine") >= 1, "site never reached");
        match out.verdict {
            Ok(Some(w)) => {
                assert!(validate_hd_width(&hg, &w, 3).is_ok());
                assert!(in_field(out.winner), "{:?}", out.winner);
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
        let port = Portfolio::default();
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
