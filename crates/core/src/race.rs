//! Speculative racing width sweep (the parallel sibling of
//! [`width_bounds_with`]).
//!
//! [`width_bounds_with`] probes `k = 1, 2, …` strictly in order: each
//! width waits for its predecessor even when the verdicts are
//! independent. [`width_bounds_racing`] keeps a window of `speculation`
//! widths in flight at once on their own probe threads, each under its
//! own [`Control::child`] of the sweep control, and lets verdicts land
//! **out of order**:
//!
//! * a *witness* at `k` proves `hw(H) ≤ k`, so every in-flight probe at
//!   a width `≥ k` is now redundant and is cancelled immediately;
//! * a *refutation* at `k` proves `hw(H) > k` — and, because a
//!   decomposition of width `≤ j` is also one of width `≤ k` for any
//!   `j ≤ k`, it proves every smaller width refuted too. Probes still
//!   running below `k` are cancelled and the lower bound jumps straight
//!   to `k + 1`, even across widths whose own probes timed out;
//! * a probe that was *cancelled* (by a neighbour's verdict) or that hit
//!   its per-width sub-deadline decides **nothing**: it never advances
//!   the lower bound (the internal `SweepLedger` records it as
//!   undecided — the accounting is unit-tested precisely because conflating
//!   `Timeout`/`Cancelled` with a definitive `false` would corrupt the
//!   certified bounds).
//!
//! The wall-clock win on a sweep is overlap: while one hard width burns
//! its [`per-width slice`](width_bounds_racing#arguments), its
//! neighbours' (often much cheaper) verdicts land concurrently instead
//! of queueing behind it. The final [`WidthBounds`] is exactly as
//! certified as the sequential sweep's — when both run uninterrupted
//! they prove identical bounds (`tests/race_differential.rs` pins this
//! across worker counts).
//!
//! [`width_bounds_with`]: crate::solver::width_bounds_with

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use decomp::{Control, Decomposition, Interrupted};
use hypergraph::Hypergraph;

use crate::solver::{width_bounds_with, LogK, WidthBounds};

decomp::counters! {
    /// Counters of a racing sweep (or an algorithm-portfolio race): how
    /// much speculation happened and how much of it was cut short or
    /// wasted. Zero for the sequential fast path.
    pub struct RaceStats {
        /// Probes (or portfolio racers) launched.
        probes: u64 = sum,
        /// Probes cancelled before producing a verdict because a
        /// neighbour's verdict made them redundant (a witness below their
        /// width, a refutation above it, or the race resolving outright).
        race_cancels: u64 = sum,
        /// Probes that ran to a verdict the race did not use — a witness
        /// at a width the sweep had already beaten, a refutation already
        /// implied by a higher one, or a portfolio racer finishing after
        /// the verdict was in.
        speculative_wasted: u64 = sum,
    }
}

/// What a finished probe reported to the coordinator.
enum ProbeMsg {
    Verdict(Result<Option<Decomposition>, Interrupted>),
    /// The probe panicked; the payload was contained on the probe
    /// thread (the sweep survives and the width stays undecided).
    Panicked,
}

/// Pure accounting core of the racing sweep: verdicts in, certified
/// [`WidthBounds`] out. Kept free of threads so the out-of-order
/// bookkeeping — in particular that cancellations and timeouts are
/// **never** treated as refutations — is directly unit-testable.
#[derive(Debug)]
pub(crate) struct SweepLedger {
    k_max: usize,
    /// Highest width definitively refuted (`0` = none). By width
    /// monotonicity every width `≤ refuted_max` is refuted with it, so
    /// `proven_lower = refuted_max + 1` stays exact even when verdicts
    /// land out of order across undecided (timed-out) widths.
    refuted_max: usize,
    best_upper: Option<usize>,
    witness: Option<Decomposition>,
    interrupted: Option<Interrupted>,
    /// Next width not yet handed to a probe.
    next: usize,
    /// No further probes (overall control fired, or bounds met).
    halted: bool,
    stats: RaceStats,
}

impl SweepLedger {
    pub(crate) fn new(k_max: usize) -> Self {
        SweepLedger {
            k_max,
            refuted_max: 0,
            best_upper: None,
            witness: None,
            interrupted: None,
            next: 1,
            halted: false,
            stats: RaceStats::default(),
        }
    }

    /// `hw(H) ≥ proven_lower` from the definitive refutations so far.
    pub(crate) fn proven_lower(&self) -> usize {
        self.refuted_max + 1
    }

    /// The bounds met: the width is certified optimal.
    pub(crate) fn exact(&self) -> bool {
        self.best_upper == Some(self.proven_lower())
    }

    /// Stop launching probes (the overall control fired, or the caller
    /// decided the race is over).
    pub(crate) fn halt(&mut self) {
        self.halted = true;
    }

    /// Claims the next width worth probing, if any: the lowest width not
    /// yet launched, not already refuted by monotonicity, and strictly
    /// below the best witnessed upper bound.
    pub(crate) fn next_probe(&mut self) -> Option<usize> {
        while !self.halted && self.next <= self.k_max {
            let k = self.next;
            self.next += 1;
            if k <= self.refuted_max {
                continue; // already refuted by a higher verdict
            }
            if self.best_upper.is_some_and(|u| k >= u) {
                self.halt(); // nothing above the witness is worth deciding
                return None;
            }
            self.stats.probes += 1;
            return Some(k);
        }
        None
    }

    /// Definitive witness at `k`. Returns `true` when it tightened the
    /// upper bound (callers cancel in-flight probes at widths `≥ k`).
    pub(crate) fn witnessed(&mut self, k: usize, d: Decomposition) -> bool {
        debug_assert!(k > self.refuted_max, "witness at a refuted width");
        if self.best_upper.is_none_or(|u| k < u) {
            self.best_upper = Some(k);
            self.witness = Some(d);
            true
        } else {
            self.stats.speculative_wasted += 1;
            false
        }
    }

    /// Definitive refutation at `k`: no HD of width `≤ k` exists, hence
    /// none of width `≤ j` for any `j ≤ k`. Returns the new
    /// `proven_lower` when the bound advanced (callers cancel in-flight
    /// probes below it).
    pub(crate) fn refuted(&mut self, k: usize) -> Option<usize> {
        debug_assert!(
            self.best_upper.is_none_or(|u| k < u),
            "refutation at a witnessed width"
        );
        if k <= self.refuted_max {
            self.stats.speculative_wasted += 1;
            return None;
        }
        self.refuted_max = k;
        Some(self.proven_lower())
    }

    /// The probe at `k` was cancelled by the race itself (a neighbour's
    /// verdict). Decides nothing about width `k` — in particular it is
    /// **not** a refutation and never advances the lower bound.
    pub(crate) fn cancelled(&mut self, _k: usize) {
        self.stats.race_cancels += 1;
    }

    /// The probe at `k` was interrupted on its own (per-width
    /// sub-deadline, or the overall control firing). Undecided: the
    /// width is skipped, the interruption recorded, the bounds
    /// untouched.
    pub(crate) fn interrupted(&mut self, _k: usize, e: Interrupted) {
        self.interrupted = Some(e);
    }

    /// The probe at `k` panicked (contained on its thread). Undecided.
    pub(crate) fn panicked(&mut self, _k: usize) {}

    pub(crate) fn finish(self) -> WidthBounds {
        WidthBounds {
            proven_lower: self.proven_lower(),
            best_upper: self.best_upper,
            witness: self.witness,
            interrupted: self.interrupted,
            race: self.stats,
        }
    }
}

/// Speculative racing sibling of [`width_bounds_with`]: same contract,
/// same certified [`WidthBounds`], but up to `speculation` widths probed
/// concurrently with verdict-driven cancellation (see the [module
/// docs](self) for the out-of-order discipline).
///
/// # Arguments
///
/// Mirrors [`width_bounds_with`], plus `speculation` — the window of
/// concurrent width probes. `speculation <= 1` (or `k_max <= 1`) is the
/// **grain gate**: the sweep degenerates to the sequential loop itself,
/// byte-for-byte the same code path, so a 1-worker deployment pays no
/// coordination tax. Each probe runs `solver_for(k)` on its own thread
/// under a [`Control::child`] capped at `per_k_budget`; a parallel
/// solver fans out on its configured pool from there (concurrent probes
/// share the pool's workers).
///
/// A probe that panics is contained on its probe thread: the width goes
/// undecided and the surviving probes' verdicts still certify the
/// bounds.
///
/// [`width_bounds_with`]: crate::solver::width_bounds_with
pub fn width_bounds_racing(
    hg: &Hypergraph,
    k_max: usize,
    ctrl: &Arc<Control>,
    per_k_budget: Option<Duration>,
    speculation: usize,
    solver_for: impl Fn(usize) -> LogK,
) -> WidthBounds {
    if speculation <= 1 || k_max <= 1 {
        return width_bounds_with(hg, k_max, ctrl, per_k_budget, solver_for);
    }

    // All probes hang off one intermediate control: the drop guard
    // cancels it on any unwind out of the coordinator (e.g. an armed
    // `logk/race/join` panic), so the scope join below never waits on a
    // probe nobody will ever cancel.
    let race_root = ctrl.child();
    let _guard = CancelOnDrop(&race_root);

    let mut ledger = SweepLedger::new(k_max);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, ProbeMsg)>();
        // In-flight probes by width, with the control that kills them.
        let mut live: HashMap<usize, Arc<Control>> = HashMap::new();
        // Widths we cancelled ourselves: an `Err` coming back from one
        // of these is a race cancellation, not a sub-deadline verdict.
        let mut killed: HashSet<usize> = HashSet::new();

        loop {
            if !ledger.halted && ctrl.checkpoint().is_err() {
                cancel_all(&mut ledger, &live, &mut killed);
            }
            while live.len() < speculation {
                let Some(k) = ledger.next_probe() else { break };
                decomp::faults::hit_ctrl("logk/race/spawn", ctrl);
                let child = match per_k_budget {
                    Some(budget) => race_root.child_with_timeout(budget),
                    None => race_root.child(),
                };
                let solver = solver_for(k);
                let tx = tx.clone();
                let probe_ctrl = Arc::clone(&child);
                live.insert(k, child);
                scope.spawn(move || {
                    // Everything fallible — the fault site included —
                    // runs inside the containment boundary, so a probe
                    // always reports and the coordinator never hangs.
                    let msg = match panic::catch_unwind(AssertUnwindSafe(|| {
                        decomp::faults::hit_ctrl("logk/race/probe", &probe_ctrl);
                        solver.decompose(hg, k, &probe_ctrl)
                    })) {
                        Ok(verdict) => ProbeMsg::Verdict(verdict),
                        Err(_) => ProbeMsg::Panicked,
                    };
                    let _ = tx.send((k, msg));
                });
            }
            if live.is_empty() {
                break;
            }
            let (k, msg) = rx.recv().expect("probe threads always report");
            decomp::faults::hit_ctrl("logk/race/join", ctrl);
            live.remove(&k);
            let was_killed = killed.remove(&k);
            match msg {
                ProbeMsg::Panicked => ledger.panicked(k),
                ProbeMsg::Verdict(Ok(Some(d))) => {
                    if ledger.witnessed(k, d) {
                        cancel_where(&mut ledger, &live, &mut killed, |k2| k2 >= k);
                    }
                }
                ProbeMsg::Verdict(Ok(None)) => {
                    if let Some(lower) = ledger.refuted(k) {
                        cancel_where(&mut ledger, &live, &mut killed, |k2| k2 < lower);
                    }
                }
                ProbeMsg::Verdict(Err(e)) => {
                    if was_killed {
                        ledger.cancelled(k);
                    } else {
                        ledger.interrupted(k, e);
                        if ctrl.checkpoint().is_err() {
                            cancel_all(&mut ledger, &live, &mut killed);
                        }
                    }
                }
            }
            if ledger.exact() {
                cancel_all(&mut ledger, &live, &mut killed);
            }
        }
    });
    ledger.finish()
}

/// Cancels every in-flight probe matching `pred` (idempotently).
fn cancel_where(
    ledger: &mut SweepLedger,
    live: &HashMap<usize, Arc<Control>>,
    killed: &mut HashSet<usize>,
    pred: impl Fn(usize) -> bool,
) {
    let _ = ledger;
    for (&k, child) in live {
        if pred(k) && killed.insert(k) {
            child.cancel();
        }
    }
}

/// Halts launches and cancels every in-flight probe.
fn cancel_all(
    ledger: &mut SweepLedger,
    live: &HashMap<usize, Arc<Control>>,
    killed: &mut HashSet<usize>,
) {
    ledger.halt();
    cancel_where(ledger, live, killed, |_| true);
}

/// Cancels the race's intermediate control when dropped — the unwind
/// path's guarantee that no probe outlives its coordinator.
struct CancelOnDrop<'a>(&'a Arc<Control>);

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::VertexSet;

    fn dummy_witness() -> Decomposition {
        Decomposition::singleton(vec![], VertexSet::empty(1))
    }

    #[test]
    fn contiguous_refutations_advance_the_lower_bound() {
        let mut l = SweepLedger::new(5);
        assert_eq!(l.next_probe(), Some(1));
        assert_eq!(l.next_probe(), Some(2));
        assert_eq!(l.refuted(1), Some(2));
        assert_eq!(l.refuted(2), Some(3));
        assert_eq!(l.proven_lower(), 3);
        assert!(!l.exact());
    }

    #[test]
    fn out_of_order_refutation_covers_skipped_widths() {
        let mut l = SweepLedger::new(5);
        l.next_probe();
        l.next_probe();
        // k = 1 times out (undecided) …
        l.interrupted(1, Interrupted::Timeout);
        assert_eq!(l.proven_lower(), 1);
        // … but a refutation at k = 2 covers it by monotonicity.
        assert_eq!(l.refuted(2), Some(3));
        assert_eq!(l.proven_lower(), 3);
        let b = l.finish();
        assert_eq!(b.proven_lower, 3);
        assert_eq!(b.interrupted, Some(Interrupted::Timeout));
    }

    /// The regression the per-width slice budget demands: a probe that
    /// was cancelled (or timed out) must never be recorded as a
    /// refutation — conflating them would certify a false lower bound.
    #[test]
    fn cancelled_probe_is_not_a_refutation() {
        let mut l = SweepLedger::new(4);
        l.next_probe();
        l.next_probe();
        // Witness lands at k = 2; the speculative probe at k = 3 gets
        // cancelled as redundant.
        assert!(l.witnessed(2, dummy_witness()));
        l.cancelled(3);
        l.interrupted(1, Interrupted::Timeout);
        // Neither the cancellation nor the timeout advanced the bound:
        // hw ∈ [1, 2], not the corrupt "exactly 2" (or worse, a lower
        // bound past the witness) that refutation-conflation would give.
        assert_eq!(l.proven_lower(), 1);
        assert_eq!(l.finish().best_upper, Some(2));
    }

    #[test]
    fn late_witness_below_the_upper_bound_replaces_it() {
        let mut l = SweepLedger::new(6);
        for _ in 0..4 {
            l.next_probe();
        }
        assert!(l.witnessed(5, dummy_witness()));
        assert!(l.witnessed(3, dummy_witness()));
        // A witness at a width the sweep already beat is wasted work.
        assert!(!l.witnessed(4, dummy_witness()));
        let b = l.finish();
        assert_eq!(b.best_upper, Some(3));
        assert_eq!(b.race.speculative_wasted, 1);
    }

    #[test]
    fn redundant_refutation_is_wasted_not_double_counted() {
        let mut l = SweepLedger::new(5);
        l.next_probe();
        l.next_probe();
        assert_eq!(l.refuted(2), Some(3));
        assert_eq!(l.refuted(1), None);
        let b = l.finish();
        assert_eq!(b.proven_lower, 3);
        assert_eq!(b.race.speculative_wasted, 1);
    }

    #[test]
    fn exactness_and_probe_window() {
        let mut l = SweepLedger::new(5);
        assert_eq!(l.next_probe(), Some(1));
        assert_eq!(l.next_probe(), Some(2));
        l.refuted(1);
        assert!(l.witnessed(2, dummy_witness()));
        assert!(l.exact());
        // Nothing above the witness is worth probing.
        assert_eq!(l.next_probe(), None);
        let b = l.finish();
        assert!(b.exact());
        assert_eq!(b.proven_lower, 2);
    }

    #[test]
    fn halt_stops_launches() {
        let mut l = SweepLedger::new(9);
        assert_eq!(l.next_probe(), Some(1));
        l.halt();
        assert_eq!(l.next_probe(), None);
        assert_eq!(l.finish().race.probes, 1);
    }
}
