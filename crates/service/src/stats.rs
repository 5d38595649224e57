//! Service-level counters.
//!
//! One `ServiceCounters` value lives inside the server and is bumped
//! lock-free from the submit path and the executor threads; callers read
//! consistent-enough [`ServiceStats`] snapshots at any time (each field
//! is individually atomic — a snapshot taken mid-request may be ahead on
//! one counter and behind on another, which is fine for monitoring).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bumps `counter` by `d` (saturating at `u64::MAX` nanoseconds — ~584
/// years of aggregate time, i.e. never in practice).
pub(crate) fn add_duration(counter: &AtomicU64, d: Duration) {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

decomp::counters! {
    /// Point-in-time snapshot of a server's request accounting.
    ///
    /// The request-count invariants (once the server has drained):
    ///
    /// * `submitted = shed_overload + shed_expired + rejected_closed +
    ///   admitted`, and
    /// * `admitted = completed + timed_out + cancelled + failed`.
    ///
    /// [`Self::panicked`] counts *panic events contained* (per attempt), not
    /// requests: a request that panics once and succeeds on retry moves
    /// `panicked`, `retried` *and* `completed`. [`Self::failed`] counts
    /// requests whose final outcome was a panic verdict.
    ///
    /// Deadline expiry is split by *where* it was caught:
    /// [`Self::shed_expired`] counts requests shed **at submit** (they were
    /// never admitted), while [`Self::expired_in_queue`] counts admitted
    /// requests whose deadline passed **while queued** — those are shed at
    /// the executor's pre-flight checkpoint without starting a solve, and
    /// their terminal outcome is `TimedOut`, so `expired_in_queue ≤
    /// timed_out` always (the difference is requests that expired
    /// mid-solve).
    ///
    /// Coalescing does not bend the invariants: a coalesced request is still
    /// an *admitted* request and still lands in exactly one terminal class
    /// (it shares the leader's verdict, so in practice `completed`) —
    /// [`Self::coalesced`] only records that its verdict was computed once
    /// rather than per-copy, hence `coalesced ≤ completed`.
    ///
    /// Race accounting ([`Self::races`], [`Self::races_won_by`],
    /// [`Self::race_cancels`], [`Self::speculative_wasted`]) aggregates over
    /// both racing shapes the server runs: the multi-engine portfolio behind
    /// [`crate::Job::Race`], and the speculative width sweep behind
    /// [`crate::Job::MinimalWidth`] when the configured speculation admits
    /// it (the sweep contributes cancel/waste counts but no `races` /
    /// `races_won_by` entries — its racers are widths, not engines).
    pub struct ServiceStats {}

    /// The live counters a server bumps lock-free from the submit path
    /// and the executor threads (durations as nanoseconds).
    pub(crate) atomic ServiceCounters {
        /// Requests offered to [`crate::Server::submit`].
        submitted: u64 = sum,
        /// Requests shed at admission because the queue was full.
        shed_overload: u64 = sum,
        /// Requests shed at admission because their deadline left less than
        /// the configured headroom (or had already passed).
        shed_expired: u64 = sum,
        /// Requests rejected because the server was shutting down.
        rejected_closed: u64 = sum,
        /// Requests dequeued by an executor (admission succeeded).
        admitted: u64 = sum,
        /// Admitted requests whose deadline had already passed at dequeue;
        /// shed at pre-flight (no solve started). A subset of
        /// [`Self::timed_out`].
        expired_in_queue: u64 = sum,
        /// Requests that ran to a verdict ([`crate::Outcome::Decided`], or a
        /// [`crate::Outcome::Width`] sweep that was not cut short).
        completed: u64 = sum,
        /// Requests whose final outcome was a deadline expiry.
        timed_out: u64 = sum,
        /// Requests whose final outcome was a cancellation (their own
        /// control's, or the server-wide cancel on shutdown).
        cancelled: u64 = sum,
        /// Panic events contained by an executor (per attempt; see type docs).
        panicked: u64 = sum,
        /// Requests whose final outcome was [`crate::Outcome::Panicked`].
        failed: u64 = sum,
        /// Re-executions after a contained panic.
        retried: u64 = sum,
        /// Admitted requests answered from another in-flight request's
        /// verdict (same instance content, same job) instead of their own
        /// solve. See the type docs; always `≤ completed`.
        coalesced: u64 = sum,
        /// Portfolio races run ([`crate::Job::Race`] solves that reached the
        /// racing coordinator; pre-flight sheds don't count).
        races: u64 = sum,
        /// Race wins per engine, indexed by
        /// [`portfolio::EngineKind::index`]. Sums to the number of races
        /// that produced a definitive verdict (`≤ races`).
        races_won_by: [u64; portfolio::EngineKind::COUNT] = sum,
        /// Racers (portfolio engines or speculative sweep probes) cancelled
        /// because a concurrent verdict made them redundant.
        race_cancels: u64 = sum,
        /// Racers that ran to completion only to find their verdict
        /// redundant — the true overhead of speculation (cancelled racers
        /// stop early; wasted ones burned their full slice).
        speculative_wasted: u64 = sum,
        /// Aggregate time requests spent queued between admission and
        /// execution start.
        queue_wait: Duration = sum,
        /// Aggregate wall-clock time executors spent solving (including
        /// retries).
        solve_time: Duration = sum,
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted {} | shed {}+{} | closed {} | admitted {} | \
             completed {} timed-out {} (in-queue {}) cancelled {} failed {} | \
             panics {} retries {} | coalesced {} | races {} (cancels {} wasted {}{}) | \
             queue-wait {:?} solve {:?}",
            self.submitted,
            self.shed_overload,
            self.shed_expired,
            self.rejected_closed,
            self.admitted,
            self.completed,
            self.timed_out,
            self.expired_in_queue,
            self.cancelled,
            self.failed,
            self.panicked,
            self.retried,
            self.coalesced,
            self.races,
            self.race_cancels,
            self.speculative_wasted,
            {
                let mut wins = String::new();
                for (i, &n) in self.races_won_by.iter().enumerate() {
                    if n > 0 {
                        let kind =
                            portfolio::EngineKind::from_index(i).expect("array is sized by COUNT");
                        wins.push_str(&format!("; {} x{}", kind.name(), n));
                    }
                }
                wins
            },
            self.queue_wait,
            self.solve_time,
        )
    }
}
