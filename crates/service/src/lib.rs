//! `htdserve` — decomposition-as-a-service over the `log-k-decomp`
//! engines.
//!
//! A [`Server`] turns the one-shot solvers of [`logk`] into a
//! long-running, failure-isolated service:
//!
//! * **Bounded admission** — requests enter a bounded queue;
//!   [`Server::submit`] sheds synchronously ([`Rejected::Overloaded`],
//!   [`Rejected::Expired`]) instead of buffering unboundedly.
//! * **Deadline scoping** — each request runs under a child of the
//!   server's root [`decomp::Control`], created at submit so the
//!   deadline covers queue wait; shutdown cancels the root and every
//!   queued/in-flight solve stops cooperatively at its next checkpoint.
//! * **Panic containment** — a panicking solve yields
//!   [`Outcome::Panicked`] for *that* request (after bounded retries);
//!   the executors, the shared pool and every other request keep going.
//! * **Shared warmth** — content-equal instances are canonicalised by
//!   the [`TableHub`] so concurrent and repeated requests share
//!   width-matched subproblem caches, without ever sharing tables across
//!   *different* instances or widths (which would be unsound).
//! * **Anytime answers** — [`Job::MinimalWidth`] returns
//!   [`logk::WidthBounds`]: whatever the sweep proved before the
//!   deadline, not nothing. The sweep ([`logk::width_bounds_with`])
//!   tries `k = 1, 2, …` in order, each width under its own child
//!   control, so a width that times out in its slice
//!   ([`ServerConfig::width_slice`]) is skipped rather than refuted.
//! * **Portfolio racing** — [`Job::Race`] answers `hw(H) ≤ k` by
//!   racing `logk-seq` against `detk` ([`portfolio::Portfolio`]); the
//!   first definitive verdict cancels the loser, and
//!   [`ServiceStats::races_won_by`] records which engine carries which
//!   workload.
//! * **In-flight coalescing** — admitted requests asking the exact
//!   question of the exact instance another executor is *currently*
//!   solving park on that solve and share its verdict (one solve, N
//!   replies; [`ServiceStats::coalesced`]). Only sound, run-independent
//!   verdicts are shared — a leader's timeout promotes a live waiter
//!   instead of condemning it.
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use htdserve::{Request, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! let hg = Arc::new(hypergraph::Hypergraph::from_edge_lists(&[
//!     vec![0, 1, 2],
//!     vec![2, 3],
//!     vec![3, 4, 5],
//!     vec![5, 0],
//! ]));
//! let ticket = server
//!     .submit(Request::decide(hg, 2).with_deadline(Duration::from_secs(5)))
//!     .expect("admitted");
//! let response = ticket.wait();
//! println!("{:?}", response.outcome);
//! server.shutdown();
//! ```
//!
//! With the `fault-injection` feature (see [`decomp::faults`]) the
//! isolation properties above are *tested*, not just claimed: the suite
//! injects deterministic panics, stalls and spurious cancellations at
//! named solver checkpoints and asserts the blast radius stays one
//! request wide.

pub mod queue;
pub mod server;
pub mod stats;
pub mod tables;

pub use server::{Job, Outcome, Rejected, Request, Response, Server, ServerConfig, Ticket};
pub use stats::ServiceStats;
pub use tables::{HubSnapshot, TableHub};
