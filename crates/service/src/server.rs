//! The decomposition server: bounded admission, deadline-scoped
//! execution, panic containment, graceful drain.
//!
//! # Request lifecycle
//!
//! ```text
//! submit ──(closed? headroom? queue full?)──▶ bounded EDF queue
//!                   │ shed                        │
//!                   ▼                             ▼ executor dequeues
//!              Err(Rejected)               pre-flight checkpoint
//!                                                 │
//!                                       catch_unwind(solve) ⟲ retry
//!                                                 │
//!                                          Response { Outcome }
//! ```
//!
//! The queue is **deadline-ordered** (earliest effective deadline first,
//! FIFO among deadline-less requests — see [`crate::queue`]): under
//! backlog, urgent work overtakes patient work, and a request that
//! expired while queued is the first thing an executor sees — it is shed
//! at the pre-flight checkpoint (counted in
//! [`ServiceStats::expired_in_queue`]) before any solve starts.
//!
//! Every request gets a [`decomp::Control`] *child* of the server's root
//! control at submit time, capped at the request's deadline — the
//! deadline therefore spans queue wait, and [`Server::shutdown`]
//! cancelling the root cooperatively stops every queued *and* in-flight
//! solve through the parent link, without tearing down threads.
//!
//! Panics inside a solve (including ones surfacing through the shared
//! rayon pool's scope) are contained per request with
//! [`std::panic::catch_unwind`]: the request gets an
//! [`Outcome::Panicked`] verdict (after up to
//! [`ServerConfig::max_retries`] re-executions) and the executor moves
//! on. A second panic *while containing the first* aborts the process
//! rather than unwinding into unaccounted state.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::process;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decomp::{Control, Decomposition, Interrupted};
use hypergraph::Hypergraph;
use logk::{LogK, SharedTables, WidthBounds, DEFAULT_CACHE_BYTES, DEFAULT_DETK_CACHE_CAP};
use portfolio::{EngineKind, Portfolio};

use crate::queue::{DeadlineQueue, PushError};
use crate::stats::{add_duration, ServiceCounters, ServiceStats};
use crate::tables::{fingerprint, same_instance, HubSnapshot, TableHub};

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Executor threads dequeuing and running requests (≥ 1 enforced).
    /// Each runs one request at a time, so this bounds solve concurrency.
    pub executors: usize,
    /// Worker threads of the work-stealing pool that `Decide` and
    /// `MinimalWidth` solves run on. `0` solves with
    /// [`LogK::sequential`] on the executor thread. `> 0` solves with
    /// [`LogK::parallel`]`(workers)` on the process-wide pool of that
    /// size ([`logk::shared_pool`]), shared by all executors: the top
    /// recursion depths race their λc leads across its workers. `Race`
    /// jobs ignore it; their two racers run on threads of their own.
    pub workers: usize,
    /// Bounded queue capacity (≥ 1 enforced); a full queue sheds with
    /// [`Rejected::Overloaded`] instead of buffering unboundedly.
    pub queue_depth: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Admission headroom: a request whose deadline leaves `≤` this much
    /// time at submit is shed as [`Rejected::Expired`] rather than
    /// queued to die.
    pub min_headroom: Duration,
    /// Re-executions granted after a contained panic (the deadline keeps
    /// running; a retry is only attempted while the request's control is
    /// still live).
    pub max_retries: u32,
    /// Per-pair byte budget of each shared subproblem cache.
    pub cache_bytes: usize,
    /// Per-pair entry cap of each shared `det-k-decomp` memo.
    pub detk_cache_cap: usize,
    /// Distinct instances the table hub keeps warm (LRU beyond this).
    pub max_instances: usize,
    /// Per-width sub-deadline for minimal-width sweeps (see
    /// [`logk::width_bounds_with`]); `None` lets each width run to the
    /// request deadline.
    pub width_slice: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            executors: 2,
            workers: 0,
            queue_depth: 64,
            default_deadline: None,
            min_headroom: Duration::ZERO,
            max_retries: 1,
            cache_bytes: DEFAULT_CACHE_BYTES,
            detk_cache_cap: DEFAULT_DETK_CACHE_CAP,
            max_instances: 4,
            width_slice: None,
        }
    }
}

/// What to compute for one hypergraph.
///
/// `Hash`/`Eq` because `(instance fingerprint, Job)` keys the in-flight
/// coalescing registry: two admitted requests coalesce only when they
/// ask the *same question* of the *same instance*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Job {
    /// Decide `hw(H) ≤ k`, returning a witness when it holds.
    Decide {
        /// Width bound to decide.
        k: usize,
    },
    /// Anytime minimal-width sweep up to `k_max` (see [`WidthBounds`]).
    MinimalWidth {
        /// Largest width the sweep tries.
        k_max: usize,
    },
    /// Decide `hw(H) ≤ k` by racing the algorithm portfolio
    /// ([`portfolio::Portfolio`], `logk-seq` against `detk`): both
    /// engines attack the same question, and the first definitive
    /// verdict cancels the other.
    Race {
        /// Width bound to race.
        k: usize,
    },
}

/// One unit of work offered to [`Server::submit`].
#[derive(Clone, Debug)]
pub struct Request {
    /// The instance. Content-equal submissions share memo tables (the
    /// hub canonicalises them), so resubmitting the same query is cheap.
    pub hg: Arc<Hypergraph>,
    /// What to compute.
    pub job: Job,
    /// Deadline budget, measured from submit (spans queue wait). `None`
    /// falls back to [`ServerConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

impl Request {
    /// A `hw(H) ≤ k` decision request.
    pub fn decide(hg: Arc<Hypergraph>, k: usize) -> Self {
        Request {
            hg,
            job: Job::Decide { k },
            deadline: None,
        }
    }

    /// A minimal-width request sweeping `k = 1..=k_max`.
    pub fn minimal_width(hg: Arc<Hypergraph>, k_max: usize) -> Self {
        Request {
            hg,
            job: Job::MinimalWidth { k_max },
            deadline: None,
        }
    }

    /// A `hw(H) ≤ k` decision raced across the algorithm portfolio.
    pub fn race(hg: Arc<Hypergraph>, k: usize) -> Self {
        Request {
            hg,
            job: Job::Race { k },
            deadline: None,
        }
    }

    /// Caps the request at `budget` from submit time.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// Terminal verdict of an executed request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The decision ran to completion: `witness` is `Some` iff
    /// `hw(H) ≤ k`.
    Decided {
        /// The width bound that was decided.
        k: usize,
        /// Validated-by-construction decomposition, when one exists.
        witness: Option<Decomposition>,
    },
    /// Minimal-width verdict — possibly partial bounds if the sweep was
    /// cut short (check [`WidthBounds::interrupted`]).
    Width(WidthBounds),
    /// A portfolio race reached a definitive verdict: `witness` is
    /// `Some` iff `hw(H) ≤ k`, and `winner` names the engine whose
    /// verdict it is. Races cut short by the deadline report
    /// [`Outcome::TimedOut`] / [`Outcome::Cancelled`] like any solve.
    Raced {
        /// The width bound that was raced.
        k: usize,
        /// The engine that produced the winning verdict.
        winner: EngineKind,
        /// Validated witness decomposition, when one exists.
        witness: Option<Decomposition>,
    },
    /// The deadline expired before a verdict (possibly while queued).
    TimedOut,
    /// The request's control was cancelled (server shutdown, or the
    /// deadline chain's parent firing).
    Cancelled,
    /// Every execution attempt panicked; the panic was contained and the
    /// server kept serving.
    Panicked {
        /// The final attempt's panic payload, when it was a string.
        message: String,
    },
}

impl Outcome {
    /// The witness decomposition, for outcomes that carry one.
    pub fn witness(&self) -> Option<&Decomposition> {
        match self {
            Outcome::Decided { witness, .. } => witness.as_ref(),
            Outcome::Raced { witness, .. } => witness.as_ref(),
            Outcome::Width(b) => b.witness.as_ref(),
            _ => None,
        }
    }
}

/// A finished request: the verdict plus per-request accounting.
#[derive(Clone, Debug)]
pub struct Response {
    /// Server-assigned request id (matches [`Ticket::id`]).
    pub id: u64,
    /// The verdict.
    pub outcome: Outcome,
    /// Time spent queued between admission and execution start.
    pub queue_wait: Duration,
    /// Wall-clock execution time (including retries).
    pub solve_time: Duration,
    /// Contained-panic re-executions this request consumed.
    pub retries: u32,
}

impl Response {
    /// Synthetic response for a request whose executor went away without
    /// replying (only possible after a containment abort).
    fn severed(id: u64) -> Self {
        Response {
            id,
            outcome: Outcome::Cancelled,
            queue_wait: Duration::ZERO,
            solve_time: Duration::ZERO,
            retries: 0,
        }
    }
}

/// Why [`Server::submit`] shed a request at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is full — retry later or against another
    /// server. Load shedding, not failure: nothing was enqueued.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        queue_depth: usize,
    },
    /// The deadline leaves less than the configured admission headroom.
    Expired {
        /// Time the deadline had left at submit.
        remaining: Duration,
    },
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded { queue_depth } => {
                write!(f, "queue full ({queue_depth} slots)")
            }
            Rejected::Expired { remaining } => {
                write!(f, "deadline leaves only {remaining:?} at admission")
            }
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Claim check for an admitted request.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request finishes. Admitted requests always get
    /// a response — shutdown cancels rather than drops them.
    pub fn wait(self) -> Response {
        let id = self.id;
        self.rx.recv().unwrap_or_else(|_| Response::severed(id))
    }
}

/// An admitted request travelling from `submit` to an executor.
struct Queued {
    hg: Arc<Hypergraph>,
    job: Job,
    ctrl: Arc<Control>,
    reply: mpsc::Sender<Response>,
    enqueued: Instant,
    id: u64,
}

/// Coalescing key: instance content fingerprint plus the exact job.
type CoalesceKey = (u64, Job);

/// A request parked on another in-flight request's verdict.
struct Waiter {
    q: Queued,
    /// The waiter's own measured queue wait (for its response).
    queue_wait: Duration,
    /// When it attached — its response's `solve_time` is the span from
    /// here to delivery (time spent waiting on the shared solve).
    attached: Instant,
}

/// Registry slot for one in-flight `(instance, job)` solve.
struct InflightEntry {
    /// The leader's instance, for exact-content confirmation (the
    /// fingerprint alone could collide).
    hg: Arc<Hypergraph>,
    waiters: Vec<Waiter>,
}

/// What [`Inner::coalesce_claim`] decided for a dequeued request.
enum Claim {
    /// First in: registered under the key; caller solves and answers
    /// any waiters that accumulate meanwhile.
    Lead(Queued),
    /// Fingerprint collision with a different in-flight instance: solve
    /// unregistered (correct, just not shared).
    Standalone(Queued),
    /// Parked on the in-flight leader; its executor delivers the reply.
    Attached,
}

/// State shared between the handle, the submit path and the executors.
struct Inner {
    cfg: ServerConfig,
    /// Root of the control chain: every request control is a child, so
    /// cancelling this cooperatively stops the whole server's work.
    root: Arc<Control>,
    counters: ServiceCounters,
    hub: TableHub,
    /// In-flight coalescing registry: `(fingerprint, job)` → the leader
    /// currently solving it plus the requests parked on its verdict.
    /// Entries live exactly as long as their leader is inside
    /// `execute_one`, so a drained server always has an empty registry.
    inflight: Mutex<HashMap<CoalesceKey, InflightEntry>>,
    closed: AtomicBool,
    next_id: AtomicU64,
}

/// Long-running decomposition service.
///
/// Owns the executor threads and the shared memo-table hub. See the
/// [module docs](self) for the request lifecycle; see
/// `crates/harness`'s `serve` binary for a demo driver and the
/// `htdwire` crate for the TCP frontend.
pub struct Server {
    inner: Arc<Inner>,
    /// Deadline-ordered admission queue; closed on stop.
    queue: Arc<DeadlineQueue<Queued>>,
    /// Executor join handles, drained exactly once by whichever stop
    /// path runs first (interior mutability so a frontend holding the
    /// server behind an `Arc` can stop it through `&self`).
    executors: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the executor threads and begins accepting requests.
    pub fn start(cfg: ServerConfig) -> Server {
        let queue = Arc::new(DeadlineQueue::new(cfg.queue_depth));
        let executors = cfg.executors.max(1);
        let inner = Arc::new(Inner {
            root: Arc::new(Control::unlimited()),
            counters: ServiceCounters::default(),
            hub: TableHub::new(cfg.cache_bytes, cfg.detk_cache_cap, cfg.max_instances),
            inflight: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            cfg,
        });
        let executors = (0..executors)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("htdserve-exec-{i}"))
                    .spawn(move || run_executor(&inner, &queue))
                    .expect("executor thread spawn cannot fail under normal limits")
            })
            .collect();
        Server {
            inner,
            queue,
            executors: Mutex::new(executors),
        }
    }

    /// Offers a request. Admission control runs here: a closed server,
    /// an (almost-)spent deadline, or a full queue shed the request
    /// *synchronously* with the reason — nothing is buffered beyond the
    /// bounded queue.
    pub fn submit(&self, req: Request) -> Result<Ticket, Rejected> {
        let inner = &self.inner;
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if inner.closed.load(Ordering::Acquire) {
            inner
                .counters
                .rejected_closed
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ShuttingDown);
        }
        // The control is created at submit so the deadline covers queue
        // wait, and as a child of the root so shutdown reaches it.
        let ctrl = match req.deadline.or(inner.cfg.default_deadline) {
            Some(budget) => inner.root.child_with_timeout(budget),
            None => inner.root.child(),
        };
        if let Some(remaining) = ctrl.remaining() {
            if remaining <= inner.cfg.min_headroom {
                inner.counters.shed_expired.fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::Expired { remaining });
            }
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = mpsc::channel();
        let deadline = ctrl.deadline();
        let queued = Queued {
            hg: req.hg,
            job: req.job,
            ctrl,
            reply,
            enqueued: Instant::now(),
            id,
        };
        match self.queue.try_push(deadline, queued) {
            Ok(()) => Ok(Ticket { id, rx }),
            Err(PushError::Full(_)) => {
                inner.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::Overloaded {
                    queue_depth: inner.cfg.queue_depth.max(1),
                })
            }
            Err(PushError::Closed(_)) => {
                inner
                    .counters
                    .rejected_closed
                    .fetch_add(1, Ordering::Relaxed);
                Err(Rejected::ShuttingDown)
            }
        }
    }

    /// Counter snapshot (cheap; callable at any time).
    pub fn stats(&self) -> ServiceStats {
        self.inner.counters.snapshot()
    }

    /// Shared-table hub counters.
    pub fn hub_snapshot(&self) -> HubSnapshot {
        self.inner.hub.snapshot()
    }

    /// Stops accepting, **cancels** every queued and in-flight request
    /// through the control chain, waits for the executors to finish
    /// delivering (cancellation) responses, and returns the final stats.
    pub fn shutdown(self) -> ServiceStats {
        self.halt(true)
    }

    /// Graceful variant of [`Self::shutdown`]: stops accepting but lets
    /// queued and in-flight requests run to their natural verdicts.
    pub fn drain(self) -> ServiceStats {
        self.halt(false)
    }

    /// Closes admission *without* stopping the executors: subsequent
    /// submits shed with [`Rejected::ShuttingDown`] while queued and
    /// in-flight requests run to their natural verdicts. First phase of
    /// a graceful frontend drain — follow with [`Self::halt`] (or
    /// [`Self::drain`]) once attached clients have been seen off.
    pub fn begin_drain(&self) {
        self.inner.closed.store(true, Ordering::Release);
    }

    /// Closes admission **and** cancels every queued and in-flight
    /// request through the control chain, without stopping the
    /// executors: blocked [`Ticket::wait`]s resolve to
    /// [`Outcome::Cancelled`] promptly. First phase of a frontend
    /// shutdown — follow with [`Self::halt`] (or [`Self::shutdown`]).
    pub fn begin_shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.root.cancel();
    }

    /// Full stop through a shared reference (for frontends holding the
    /// server behind an `Arc`): closes admission, cancels when `cancel`,
    /// closes the queue, joins the executors, and returns the final
    /// stats. Idempotent — later calls (and the drop guard) see the
    /// executor list already drained and return immediately.
    pub fn halt(&self, cancel: bool) -> ServiceStats {
        self.stop(cancel);
        self.inner.counters.snapshot()
    }

    fn stop(&self, cancel: bool) {
        self.inner.closed.store(true, Ordering::Release);
        if cancel {
            self.inner.root.cancel();
        }
        // Closing the queue lets executors drain the backlog, then stop.
        self.queue.close();
        let handles: Vec<_> = {
            let mut ex = self.executors.lock().unwrap_or_else(|e| e.into_inner());
            ex.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    /// Dropping the handle shuts the server down (cancelling, like
    /// [`Self::shutdown`]) — a `Server` never leaks detached executors.
    fn drop(&mut self) {
        self.stop(true);
    }
}

impl Inner {
    /// Runs one request to a verdict (the panic-unsafe part wrapped by
    /// `execute_one`'s `catch_unwind`).
    fn solve(&self, q: &Queued) -> Outcome {
        match q.job {
            Job::Decide { k } => {
                let (hg, tables) = self.hub.checkout(&q.hg, k);
                match solver(self.cfg.workers, tables).decompose(&hg, k, &q.ctrl) {
                    Ok(witness) => Outcome::Decided { k, witness },
                    Err(Interrupted::Timeout) => Outcome::TimedOut,
                    Err(Interrupted::Cancelled) => Outcome::Cancelled,
                }
            }
            Job::MinimalWidth { k_max } => {
                // Canonicalise once so the sweep solves the instance the
                // per-width table pairs are bound to.
                let (hg, _) = self.hub.checkout(&q.hg, 1);
                let bounds =
                    logk::width_bounds_with(&hg, k_max, &q.ctrl, self.cfg.width_slice, |k| {
                        let (_, tables) = self.hub.checkout(&q.hg, k);
                        solver(self.cfg.workers, tables)
                    });
                Outcome::Width(bounds)
            }
            Job::Race { k } => {
                let (hg, tables) = self.hub.checkout(&q.hg, k);
                let registry = Portfolio::default().with_shared_tables(tables);
                let c = &self.counters;
                c.races.fetch_add(1, Ordering::Relaxed);
                let out = registry.race(&hg, k, &q.ctrl);
                c.race_cancels
                    .fetch_add(out.stats.race_cancels, Ordering::Relaxed);
                c.speculative_wasted
                    .fetch_add(out.stats.speculative_wasted, Ordering::Relaxed);
                match out.verdict {
                    Ok(witness) => {
                        let winner = out.winner.expect("definitive verdicts name their engine");
                        c.races_won_by[winner.index()].fetch_add(1, Ordering::Relaxed);
                        Outcome::Raced { k, winner, witness }
                    }
                    Err(Interrupted::Timeout) => Outcome::TimedOut,
                    Err(Interrupted::Cancelled) => Outcome::Cancelled,
                }
            }
        }
    }

    /// Registers a dequeued request in the coalescing registry, or parks
    /// it on the in-flight solve already answering its exact question.
    fn coalesce_claim(&self, key: CoalesceKey, q: Queued, queue_wait: Duration) -> Claim {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(&key) {
            Some(entry) if same_instance(&entry.hg, &q.hg) => {
                entry.waiters.push(Waiter {
                    q,
                    queue_wait,
                    attached: Instant::now(),
                });
                Claim::Attached
            }
            Some(_) => Claim::Standalone(q),
            None => {
                map.insert(
                    key,
                    InflightEntry {
                        hg: Arc::clone(&q.hg),
                        waiters: Vec::new(),
                    },
                );
                Claim::Lead(q)
            }
        }
    }

    /// Unregisters a finished leader, collecting the waiters that
    /// attached while it solved.
    fn coalesce_finish(&self, key: &CoalesceKey) -> Vec<Waiter> {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        map.remove(key).map(|e| e.waiters).unwrap_or_default()
    }
}

/// The solver of a `Decide` or `MinimalWidth` checkout: see
/// [`ServerConfig::workers`].
fn solver(workers: usize, tables: SharedTables) -> LogK {
    match workers {
        0 => LogK::sequential(),
        w => LogK::parallel(w),
    }
    .with_shared_tables(tables)
}

/// Executor main loop: dequeue most-urgent-first, execute, repeat until
/// the queue closes and drains.
fn run_executor(inner: &Arc<Inner>, queue: &Arc<DeadlineQueue<Queued>>) {
    while let Some(q) = queue.pop() {
        execute_one(inner, q);
    }
}

/// Runs one dequeued request: pre-flight deadline check, coalescing
/// claim, panic-contained execution with retries, accounting, reply.
///
/// # Coalescing
///
/// After pre-flight, the request claims its `(fingerprint, job)` slot in
/// the in-flight registry. A request whose exact question is already
/// being solved parks as a *waiter* and this call returns — the leader's
/// executor delivers its reply. The leader solves, unregisters, and:
///
/// * a **shareable** verdict (a definitive decision, race win, or
///   completed sweep — sound facts about the instance, independent of
///   whose deadline computed them) is broadcast to every waiter, each
///   counted in `coalesced` and classified terminally like any request;
/// * a **non-shareable** verdict (timeout, cancellation, panic — those
///   are facts about the *leader's* run, not the instance) is delivered
///   to the leader alone, and the first waiter whose control is still
///   live is promoted to solve under its own deadline; dead waiters are
///   shed terminally along the way. Promoted leaders run unregistered —
///   new duplicates arriving meanwhile simply elect a fresh leader.
///
/// Every waiter is answered before the leader's `execute_one` returns,
/// so draining the queue drains the registry too (the drain invariant:
/// `admitted = completed + timed_out + cancelled + failed` holds with
/// coalescing exactly as without).
fn execute_one(inner: &Arc<Inner>, q: Queued) {
    let c = &inner.counters;
    c.admitted.fetch_add(1, Ordering::Relaxed);
    let queue_wait = q.enqueued.elapsed();
    add_duration(&c.queue_wait, queue_wait);

    // Pre-flight: the deadline may have expired (or shutdown fired)
    // while the request sat queued — don't start a doomed solve. With
    // EDF ordering, expired requests are the most urgent of all, so a
    // backlog of hopeless work is shed here in one cheap pass instead of
    // interleaving with live solves.
    match q.ctrl.checkpoint() {
        Ok(()) => {}
        Err(Interrupted::Timeout) => {
            c.expired_in_queue.fetch_add(1, Ordering::Relaxed);
            deliver(c, q, Outcome::TimedOut, queue_wait, Duration::ZERO, 0);
            return;
        }
        Err(Interrupted::Cancelled) => {
            deliver(c, q, Outcome::Cancelled, queue_wait, Duration::ZERO, 0);
            return;
        }
    }

    let key = (fingerprint(&q.hg), q.job);
    let (mut lead, mut registered) = match inner.coalesce_claim(key, q, queue_wait) {
        Claim::Attached => return,
        Claim::Lead(q) => (q, true),
        Claim::Standalone(q) => (q, false),
    };
    let mut lead_wait = queue_wait;
    let mut waiters: Vec<Waiter> = Vec::new();

    loop {
        let started = Instant::now();
        let (outcome, retries) = solve_contained(inner, &lead);
        let solve_time = started.elapsed();
        add_duration(&c.solve_time, solve_time);
        if registered {
            waiters.extend(inner.coalesce_finish(&key));
            registered = false;
        }
        let share = shareable(&outcome);
        let shared = outcome.clone();
        deliver(c, lead, outcome, lead_wait, solve_time, retries);
        if waiters.is_empty() {
            return;
        }
        if share {
            for w in waiters {
                c.coalesced.fetch_add(1, Ordering::Relaxed);
                deliver(
                    c,
                    w.q,
                    shared.clone(),
                    w.queue_wait,
                    w.attached.elapsed(),
                    0,
                );
            }
            return;
        }
        // Non-shareable: promote the first waiter still worth solving
        // for; shed the ones whose controls already fired.
        loop {
            let w = waiters.remove(0);
            match w.q.ctrl.checkpoint() {
                Ok(()) => {
                    lead = w.q;
                    lead_wait = w.queue_wait;
                    break;
                }
                Err(e) => {
                    let o = match e {
                        Interrupted::Timeout => {
                            c.expired_in_queue.fetch_add(1, Ordering::Relaxed);
                            Outcome::TimedOut
                        }
                        Interrupted::Cancelled => Outcome::Cancelled,
                    };
                    deliver(c, w.q, o, w.queue_wait, w.attached.elapsed(), 0);
                    if waiters.is_empty() {
                        return;
                    }
                }
            }
        }
    }
}

/// Panic-contained execution with retries (the solve loop previously
/// inline in `execute_one`, shared by leaders and promoted waiters).
fn solve_contained(inner: &Arc<Inner>, q: &Queued) -> (Outcome, u32) {
    let c = &inner.counters;
    let mut retries = 0u32;
    loop {
        match panic::catch_unwind(AssertUnwindSafe(|| inner.solve(q))) {
            Ok(outcome) => return (outcome, retries),
            Err(payload) => {
                // A panic *while containing this panic* (exotic payload
                // Drop, poisoned accounting) must abort the process, not
                // unwind the executor into silence.
                let guard = AbortOnPanic;
                let message = panic_message(payload.as_ref());
                drop(payload);
                c.panicked.fetch_add(1, Ordering::Relaxed);
                let retry = retries < inner.cfg.max_retries && q.ctrl.checkpoint().is_ok();
                std::mem::forget(guard);
                if retry {
                    retries += 1;
                    c.retried.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                return (Outcome::Panicked { message }, retries);
            }
        }
    }
}

/// Whether a leader's verdict is a sound answer for *every* request
/// asking the same question — definitive decisions, race wins and
/// completed sweeps are facts about the instance; timeouts,
/// cancellations and panics are facts about one run.
fn shareable(o: &Outcome) -> bool {
    match o {
        Outcome::Decided { .. } | Outcome::Raced { .. } => true,
        Outcome::Width(b) => b.exact() || b.interrupted.is_none(),
        Outcome::TimedOut | Outcome::Cancelled | Outcome::Panicked { .. } => false,
    }
}

/// Classifies `outcome` into its terminal counter and sends the reply.
fn deliver(
    c: &ServiceCounters,
    q: Queued,
    outcome: Outcome,
    queue_wait: Duration,
    solve_time: Duration,
    retries: u32,
) {
    let class = match &outcome {
        Outcome::Decided { .. } | Outcome::Raced { .. } => &c.completed,
        // A sweep counts as completed when it proved what it was asked
        // (exact) or ran out of widths, as timed-out/cancelled when the
        // interruption cut it short of that.
        Outcome::Width(b) => match (b.exact(), b.interrupted) {
            (true, _) | (false, None) => &c.completed,
            (false, Some(Interrupted::Timeout)) => &c.timed_out,
            (false, Some(Interrupted::Cancelled)) => &c.cancelled,
        },
        Outcome::TimedOut => &c.timed_out,
        Outcome::Cancelled => &c.cancelled,
        Outcome::Panicked { .. } => &c.failed,
    };
    class.fetch_add(1, Ordering::Relaxed);

    // A dropped ticket just means nobody is waiting; not an error.
    let _ = q.reply.send(Response {
        id: q.id,
        outcome,
        queue_wait,
        solve_time,
        retries,
    });
}

/// Aborts the process if dropped; disarm with [`std::mem::forget`].
struct AbortOnPanic;

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        eprintln!("htdserve: panic while containing a panic; aborting");
        process::abort();
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
