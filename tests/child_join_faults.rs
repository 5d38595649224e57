//! Fault injection at the sibling fan-out's new join points
//! (`logk/engine/child_split`, `logk/engine/child_branch`,
//! `logk/engine/child_join`): deterministic panics, stalls and spurious
//! cancellations at each site must surface exactly like any other
//! engine interruption — `Timeout`/`Cancelled` verdicts within the
//! cooperative-stop latency, panics unwinding with the site's message —
//! and at 1 worker the sites must never even be reached, because the
//! split gate keeps the child loops on the sequential fast path.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.
#![cfg(feature = "fault-injection")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use decomp::faults::{self, Fault};
use decomp::{Control, Interrupted};
use hypergraph::Hypergraph;
use logk::LogK;
use workloads::families;

/// The fault registry is process-global: serialise the tests and leave
/// the registry clean on both entry and exit (even after a failure).
fn armed() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let g = GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    faults::reset();
    g
}

/// A multi-component instance whose root candidates all fan their
/// sibling components out (empty root connector), guaranteeing every
/// child site is hit early at 2 workers with the default grain.
fn multi_component() -> Hypergraph {
    families::disjoint_union(&[families::grid(4, 4), families::grid(4, 4)])
}

/// A panic injected into a sibling branch job unwinds out of the pool
/// scope with the site's message (the containment boundary is the
/// caller's — here there is none, so the solve itself unwinds).
#[test]
fn panic_at_child_branch_unwinds_with_site_message() {
    let _g = armed();
    let hg = multi_component();
    faults::arm("logk/engine/child_branch", 1, Fault::Panic);
    let ctrl = Control::unlimited();
    let result = catch_unwind(AssertUnwindSafe(|| {
        LogK::parallel(2)
            .search_with_stats(&hg, 3, &ctrl)
            .map(|(d, _)| d.is_some())
    }));
    let payload = result.expect_err("armed branch panic must unwind");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("logk/engine/child_branch"),
        "unexpected panic payload: {message}"
    );
    faults::reset();
    // The engine (and its pool) stay healthy for the next solve.
    assert!(LogK::parallel(2)
        .search_with_stats(&hg, 3, &ctrl)
        .unwrap()
        .0
        .is_some());
}

/// A spurious cancellation fired at a child join point surfaces as a
/// `Cancelled` verdict, not a wrong answer.
#[test]
fn cancel_at_child_join_interrupts_the_solve() {
    let _g = armed();
    let hg = multi_component();
    faults::arm("logk/engine/child_join", 1, Fault::Cancel);
    let ctrl = Control::unlimited();
    let got = LogK::parallel(2)
        .search_with_stats(&hg, 3, &ctrl)
        .map(|(d, _)| d.is_some());
    assert_eq!(got, Err(Interrupted::Cancelled));
    assert!(faults::hits("logk/engine/child_join") >= 1);
    faults::reset();
}

/// A stall injected at the split point pushes the solve past its
/// deadline: the next checkpoint reports `Timeout`.
#[test]
fn delay_at_child_split_hits_the_deadline() {
    let _g = armed();
    let hg = multi_component();
    faults::arm(
        "logk/engine/child_split",
        1,
        Fault::Delay(Duration::from_millis(300)),
    );
    let ctrl = Control::with_timeout(Duration::from_millis(25));
    let got = LogK::parallel(2)
        .search_with_stats(&hg, 3, &ctrl)
        .map(|(d, _)| d.is_some());
    assert_eq!(got, Err(Interrupted::Timeout));
    faults::reset();
}

/// At 1 worker the split gate keeps every child loop sequential: faults
/// armed on all three child sites never fire, and the solve completes.
#[test]
fn child_sites_are_never_reached_at_one_worker() {
    let _g = armed();
    let hg = multi_component();
    faults::arm("logk/engine/child_split", 1, Fault::Panic);
    faults::arm("logk/engine/child_branch", 1, Fault::Panic);
    faults::arm("logk/engine/child_join", 1, Fault::Panic);
    let ctrl = Control::unlimited();
    assert!(LogK::parallel(1)
        .search_with_stats(&hg, 3, &ctrl)
        .unwrap()
        .0
        .is_some());
    for site in [
        "logk/engine/child_split",
        "logk/engine/child_branch",
        "logk/engine/child_join",
    ] {
        assert_eq!(faults::hits(site), 0, "{site} hit on a 1-worker pool");
    }
    faults::reset();
}
