//! Interruption differential suite: **every** solver in the workspace
//! must honour cooperative interruption — returning `Timeout` when its
//! control's deadline fires and `Cancelled` when an external caller
//! cancels mid-search — within a bounded latency of the interruption,
//! on instances each solver would otherwise chew on for orders of
//! magnitude longer.
//!
//! This is the contract the `htdserve` service builds on: a server can
//! only shed load, enforce deadlines and drain gracefully if no engine
//! anywhere in the stack can wedge past its control. Run it with
//! `RAYON_NUM_THREADS=1` and `=2` (CI does both): degenerate pools have
//! historically been where cooperative-stop bugs hide.
//!
//! Every `logk` solve here goes through `LogK::search_with_stats`, the
//! search without the bounds pass, so instances the pass would settle
//! (k = 1, minor-bounded refutations) still exercise the engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use decomp::{Control, Interrupted};
use hypergraph::Hypergraph;
use workloads::families;

/// Wall-clock budget each request gets before its deadline fires.
const BUDGET: Duration = Duration::from_millis(25);

/// How long after the interruption a solver may take to actually
/// return. Checkpoints are hit every few hundred candidate steps, so
/// the true latency is sub-millisecond; the bound absorbs debug builds and
/// loaded CI boxes.
const LATENCY: Duration = Duration::from_secs(3);

/// An instance the `log-k-decomp` family, `det-k-decomp` and the GHD
/// baseline all search for ≫ `LATENCY` at `k = 3` (measured ≥ 0.9 s
/// release, minutes for `det-k`).
fn hard_logk() -> Hypergraph {
    families::chorded_cycle(96, 48, 3)
}

/// Small enough for Algorithm 1's exponential search to start, big
/// enough that it never finishes (measured > 5 s release at `k = 2`).
fn hard_basic() -> Hypergraph {
    families::chorded_cycle(48, 20, 5)
}

/// A hard *multi-component* instance: the root connector is empty, so
/// every root-mode candidate fans its sibling components out on the pool
/// (below-children parallelism) — interruption must propagate through
/// the child-join path, not just the λc race.
fn hard_multi_component() -> Hypergraph {
    families::disjoint_union(&[hard_logk(), families::chorded_cycle(96, 48, 4)])
}

/// Keeps the SAT baseline solving for ~300 ms release at `k = 2`.
fn hard_sat() -> Hypergraph {
    families::grid(7, 7)
}

/// Runs `solve` under a `BUDGET` deadline and asserts it reports
/// `Timeout` within `LATENCY` of the deadline.
fn assert_times_out(name: &str, solve: impl FnOnce(&Control) -> Option<Interrupted>) {
    let ctrl = Control::with_timeout(BUDGET);
    let t0 = Instant::now();
    let got = solve(&ctrl);
    let elapsed = t0.elapsed();
    assert_eq!(
        got,
        Some(Interrupted::Timeout),
        "{name}: expected a timeout verdict (after {elapsed:?})"
    );
    assert!(
        elapsed < BUDGET + LATENCY,
        "{name}: timeout honoured only after {elapsed:?}"
    );
}

/// Runs `solve` under an unlimited control that a second thread cancels
/// after `BUDGET`, and asserts it reports `Cancelled` within `LATENCY`
/// of the cancellation.
fn assert_cancels(name: &str, solve: impl FnOnce(&Control) -> Option<Interrupted>) {
    let ctrl = Arc::new(Control::unlimited());
    let killer = {
        let ctrl = Arc::clone(&ctrl);
        std::thread::spawn(move || {
            std::thread::sleep(BUDGET);
            ctrl.cancel();
        })
    };
    let t0 = Instant::now();
    let got = solve(&ctrl);
    let elapsed = t0.elapsed();
    killer.join().expect("killer thread");
    assert_eq!(
        got,
        Some(Interrupted::Cancelled),
        "{name}: expected a cancellation verdict (after {elapsed:?})"
    );
    assert!(
        elapsed < BUDGET + LATENCY,
        "{name}: cancellation honoured only after {elapsed:?}"
    );
}

// ---- log-k-decomp, sequential ----

#[test]
fn logk_sequential_times_out() {
    let hg = hard_logk();
    assert_times_out("logk/seq", |c| {
        logk::LogK::sequential().search_with_stats(&hg, 3, c).err()
    });
}

#[test]
fn logk_sequential_cancels() {
    let hg = hard_logk();
    assert_cancels("logk/seq", |c| {
        logk::LogK::sequential().search_with_stats(&hg, 3, c).err()
    });
}

// ---- log-k-decomp, parallel (2 workers, explicit pool) ----

#[test]
fn logk_parallel_times_out() {
    let hg = hard_logk();
    assert_times_out("logk/par2", |c| {
        logk::LogK::parallel(2).search_with_stats(&hg, 3, c).err()
    });
}

#[test]
fn logk_parallel_cancels() {
    let hg = hard_logk();
    assert_cancels("logk/par2", |c| {
        logk::LogK::parallel(2).search_with_stats(&hg, 3, c).err()
    });
}

// ---- log-k-decomp, sibling-children fan-out (multi-component) ----

#[test]
fn logk_child_parallel_times_out() {
    let hg = hard_multi_component();
    assert_times_out("logk/children2", |c| {
        logk::LogK::parallel(2).search_with_stats(&hg, 3, c).err()
    });
}

#[test]
fn logk_child_parallel_cancels() {
    let hg = hard_multi_component();
    assert_cancels("logk/children2", |c| {
        logk::LogK::parallel(2).search_with_stats(&hg, 3, c).err()
    });
}

#[test]
fn logk_child_sequential_fallback_times_out() {
    // 1-worker pool: the split gate must keep the child loops on the
    // sequential fast path, and the stop contract must hold regardless.
    let hg = hard_multi_component();
    assert_times_out("logk/children1", |c| {
        logk::LogK::parallel(1).search_with_stats(&hg, 3, c).err()
    });
}

#[test]
fn logk_child_sequential_fallback_cancels() {
    let hg = hard_multi_component();
    assert_cancels("logk/children1", |c| {
        logk::LogK::parallel(1).search_with_stats(&hg, 3, c).err()
    });
}

// ---- log-k-decomp, hybrid (parallel + det-k handoffs) ----

#[test]
fn logk_hybrid_times_out() {
    let hg = hard_logk();
    assert_times_out("logk/hybrid2", |c| {
        logk::LogK::hybrid(2).search_with_stats(&hg, 3, c).err()
    });
}

#[test]
fn logk_hybrid_cancels() {
    let hg = hard_logk();
    assert_cancels("logk/hybrid2", |c| {
        logk::LogK::hybrid(2).search_with_stats(&hg, 3, c).err()
    });
}

// ---- Algorithm 1 (reference oracle) ----

#[test]
fn basic_times_out() {
    let hg = hard_basic();
    assert_times_out("logk/basic", |c| {
        logk::LogK::basic().decide(&hg, 2, c).err()
    });
}

#[test]
fn basic_cancels() {
    let hg = hard_basic();
    assert_cancels("logk/basic", |c| {
        logk::LogK::basic().decide(&hg, 2, c).err()
    });
}

// ---- det-k-decomp ----

#[test]
fn detk_times_out() {
    let hg = hard_logk();
    assert_times_out("detk", |c| detk::decide_detk(&hg, 3, c).err());
}

#[test]
fn detk_cancels() {
    let hg = hard_logk();
    assert_cancels("detk", |c| detk::decide_detk(&hg, 3, c).err());
}

// ---- GHD baseline (BalSep-style) ----

#[test]
fn ghd_times_out() {
    let hg = hard_logk();
    assert_times_out("ghd", |c| ghd::decompose_ghd(&hg, 3, c).err());
}

#[test]
fn ghd_cancels() {
    let hg = hard_logk();
    assert_cancels("ghd", |c| ghd::decompose_ghd(&hg, 3, c).err());
}

// ---- SAT baseline (HtdLEO substitute) ----

#[test]
fn htdsat_times_out() {
    let hg = hard_sat();
    assert_times_out("htdsat", |c| match htdsat::decide_ghw(&hg, 2, c) {
        Err(htdsat::HtdSatError::Interrupted(i)) => Some(i),
        _ => None,
    });
}

#[test]
fn htdsat_cancels() {
    let hg = hard_sat();
    assert_cancels("htdsat", |c| match htdsat::decide_ghw(&hg, 2, c) {
        Err(htdsat::HtdSatError::Interrupted(i)) => Some(i),
        _ => None,
    });
}
