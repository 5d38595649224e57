//! Memoisation of subproblem verdicts — negative *and* positive.
//!
//! `det-k-decomp` owes much of its practical strength to memoising
//! subproblem results per `(component, connector)` (Gottlob & Samer). The
//! main `log-k-decomp` recursion would otherwise re-explore subproblems
//! from scratch: the same `[U]`-component with the same connector arises
//! under many different λ candidates, and every occurrence would repeat
//! the full child-loop enumeration. The engine therefore memoises each
//! `Decomp(H', Conn, A)` verdict in the workspace's one memo table
//! ([`decomp::StripedTable`], the same type det-k's memo is), keyed by
//! the resolved subproblem *and* the allowed edge set `A`:
//!
//! * **Both verdicts.** A *negative* entry records "no HD-fragment of
//!   width ≤ k exists" for the resolved subproblem. A *positive* entry
//!   stores the found fragment in arena-independent form; on a hit the
//!   fragment is re-interned against the prober's arena, so a success
//!   found in one λc branch is reused verbatim by every other branch and
//!   across recursion levels.
//! * **Exhaustive failures only.** The engine inserts a negative entry
//!   only when a `Decomp` call returns `None` after exhausting its search
//!   space. Branches that were pruned (a sibling won) or interrupted
//!   (timeout / cancellation) propagate errors and are never cached.
//!   Positive entries carry a complete witness and are always safe.
//! * **Bounded.** The table evicts cold entries (CLOCK) under the
//!   engine's `cache_bytes` budget; `0` disables it.

pub use decomp::{CacheSnapshot, Probe, StripedTable};
