//! Fault-injection isolation tests (the acceptance suite for the
//! service's robustness claims): deterministic panics, stalls and
//! spurious cancellations injected at named solver checkpoints must
//! stay contained to one request — concurrent and subsequent requests
//! on the *same* server, sharing the same table hub and pool, keep
//! succeeding.
#![cfg(feature = "fault-injection")]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use decomp::faults::{self, Fault};
use htdserve::{Outcome, Request, Server, ServerConfig};
use workloads::families;

/// End-to-end latency bound for cooperative stops (generous for CI).
const STOP_LATENCY: Duration = Duration::from_secs(5);

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

fn cycle(n: u32) -> Arc<hypergraph::Hypergraph> {
    Arc::new(families::cycle(n))
}

/// A panic at the very first solver checkpoint is contained: the victim
/// request reports `Panicked` with the injected message, and subsequent
/// requests on the same server — sharing the same (now exercised) table
/// hub — succeed.
#[test]
fn injected_panic_is_contained_to_one_request() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 1, // deterministic dequeue order: the victim fires
        max_retries: 0,
        ..ServerConfig::default()
    });
    let hg = cycle(12);

    faults::arm("logk/solve", 1, Fault::Panic);
    let victim = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();
    let bystander = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();

    match victim.wait().outcome {
        Outcome::Panicked { message } => {
            assert!(
                message.contains("deliberate panic at `logk/solve`"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("victim should have panicked, got {other:?}"),
    }
    // The fault disarmed itself after firing; the bystander runs clean.
    match bystander.wait().outcome {
        Outcome::Decided {
            witness: Some(_), ..
        } => {}
        other => panic!("bystander must succeed, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.panicked, 1, "{stats}");
    assert_eq!(stats.failed, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    assert_eq!(stats.retried, 0, "{stats}");
    faults::reset();
}

/// Same containment under real concurrency: several executors race on
/// one armed site; exactly one request absorbs the panic, all others
/// succeed, and the server finishes healthy.
#[test]
fn injected_panic_under_concurrency() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 3,
        max_retries: 0,
        ..ServerConfig::default()
    });
    let hg = cycle(16);

    faults::arm("logk/solve", 1, Fault::Panic);
    let tickets: Vec<_> = (0..6)
        .map(|_| server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap())
        .collect();

    let (mut panicked, mut decided) = (0, 0);
    for t in tickets {
        match t.wait().outcome {
            Outcome::Panicked { .. } => panicked += 1,
            Outcome::Decided {
                witness: Some(_), ..
            } => decided += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(
        panicked, 1,
        "exactly one request absorbs the one-shot fault"
    );
    assert_eq!(decided, 5);

    let stats = server.shutdown();
    assert_eq!(stats.failed, 1, "{stats}");
    assert_eq!(stats.completed, 5, "{stats}");
    faults::reset();
}

/// With retries enabled, a transient panic costs one retry and the
/// request still completes — the caller never sees the panic.
#[test]
fn transient_panic_is_retried_to_success() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 1,
        max_retries: 1,
        ..ServerConfig::default()
    });

    faults::arm("logk/solve", 1, Fault::Panic);
    let t = server.submit(Request::decide(cycle(12), 2)).unwrap();
    let resp = t.wait();
    match resp.outcome {
        Outcome::Decided {
            witness: Some(_), ..
        } => {}
        other => panic!("retried request must succeed, got {other:?}"),
    }
    assert_eq!(resp.retries, 1);

    let stats = server.shutdown();
    assert_eq!(stats.panicked, 1, "{stats}");
    assert_eq!(stats.retried, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    assert_eq!(stats.failed, 0, "{stats}");
    faults::reset();
}

/// Poison-recovery regression: a panic injected *inside a shared cache
/// shard's critical section* poisons that mutex mid-insert. The shared
/// pair survives — a subsequent request on the same instance and width
/// checks the *same* tables out of the hub and must solve cleanly
/// through the poisoned-and-recovered lock.
#[test]
fn poisoned_shared_cache_recovers() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 1,
        max_retries: 0,
        ..ServerConfig::default()
    });
    let hg = cycle(14);

    faults::arm("striped/insert_locked", 1, Fault::Panic);
    let victim = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();
    match victim.wait().outcome {
        Outcome::Panicked { message } => {
            assert!(message.contains("striped/insert_locked"), "{message}");
        }
        // The first insert may come late enough that the verdict landed
        // first on some engines; tolerate a success but require the
        // fault to have actually fired below.
        Outcome::Decided { .. } => {}
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(
        faults::hits("striped/insert_locked"),
        1,
        "fault never fired"
    );

    // Same content, same width → the hub hands out the same pair whose
    // shard mutex was poisoned above.
    let again = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();
    match again.wait().outcome {
        Outcome::Decided {
            witness: Some(_), ..
        } => {}
        other => panic!("post-poison request must succeed, got {other:?}"),
    }
    let hub = server.hub_snapshot();
    assert_eq!(
        hub.hits, 1,
        "second request must reuse the poisoned table: {hub:?}"
    );
    server.shutdown();
    faults::reset();
}

/// A stalled solve (injected delay far past the deadline) surfaces as
/// `TimedOut` within the latency bound, and the executor moves on.
#[test]
fn injected_stall_hits_the_deadline() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 1,
        ..ServerConfig::default()
    });

    faults::arm(
        "logk/engine/poll",
        1,
        Fault::Delay(Duration::from_millis(120)),
    );
    // The instance must keep polling after the stall: deadline expiry is
    // noticed at the next clock-stride checkpoint, which a trivial solve
    // would finish (late but correct) before reaching. A refutation
    // search on a chorded cycle polls thousands of times.
    let hard = Arc::new(families::chorded_cycle(64, 24, 7));
    let started = Instant::now();
    let t = server
        .submit(Request::decide(hard, 3).with_deadline(Duration::from_millis(20)))
        .unwrap();
    match t.wait().outcome {
        Outcome::TimedOut => {}
        other => panic!("stalled request must time out, got {other:?}"),
    }
    assert!(
        started.elapsed() < STOP_LATENCY,
        "timeout verdict took {:?}",
        started.elapsed()
    );

    let ok = server.submit(Request::decide(cycle(12), 2)).unwrap();
    assert!(matches!(
        ok.wait().outcome,
        Outcome::Decided {
            witness: Some(_),
            ..
        }
    ));
    let stats = server.shutdown();
    assert_eq!(stats.timed_out, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    faults::reset();
}

/// A spurious cancellation (external kill mid-search) yields a
/// `Cancelled` verdict for that request only.
#[test]
fn injected_cancel_is_request_scoped() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 1,
        ..ServerConfig::default()
    });
    let hg = cycle(12);

    faults::arm("logk/solve", 1, Fault::Cancel);
    let victim = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();
    let bystander = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();

    assert!(matches!(victim.wait().outcome, Outcome::Cancelled));
    assert!(matches!(
        bystander.wait().outcome,
        Outcome::Decided {
            witness: Some(_),
            ..
        }
    ));
    let stats = server.shutdown();
    assert_eq!(stats.cancelled, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    faults::reset();
}

/// Shutdown while an injected stall holds an executor: the cancel
/// reaches the sleeping solve at its next checkpoint and shutdown still
/// completes within the bound, answering every admitted request.
#[test]
fn shutdown_reaches_a_stalled_solve() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });

    faults::arm(
        "logk/engine/poll",
        1,
        Fault::Delay(Duration::from_millis(150)),
    );
    let stalled = server.submit(Request::decide(cycle(12), 2)).unwrap();
    let queued = server.submit(Request::decide(cycle(12), 2)).unwrap();
    // Let the executor enter the stalled solve.
    std::thread::sleep(Duration::from_millis(30));

    let started = Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < STOP_LATENCY,
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.admitted, 2, "{stats}");
    assert_eq!(stats.cancelled, 2, "{stats}");
    assert!(matches!(stalled.wait().outcome, Outcome::Cancelled));
    assert!(matches!(queued.wait().outcome, Outcome::Cancelled));
    faults::reset();
}

/// Deterministic coalescing: a `Delay` at the leader's first solver
/// checkpoint holds it in flight while content-equal duplicates are
/// dequeued by the second executor — all of them must park on the
/// leader and share its verdict, giving exactly one solve for four
/// requests.
#[test]
fn duplicates_coalesce_onto_delayed_leader() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 2,
        ..ServerConfig::default()
    });
    let hg = || Arc::new(families::grid(6, 6));

    faults::arm("logk/solve", 1, Fault::Delay(Duration::from_millis(300)));
    let leader = server.submit(Request::decide(hg(), 2)).unwrap();
    // Let the leader enter the delayed solve before the duplicates
    // arrive (fresh allocations: coalescing keys on content).
    std::thread::sleep(Duration::from_millis(50));
    let dups: Vec<_> = (0..3)
        .map(|_| server.submit(Request::decide(hg(), 2)).unwrap())
        .collect();

    assert!(matches!(
        leader.wait().outcome,
        Outcome::Decided { witness: None, .. }
    ));
    for (i, t) in dups.into_iter().enumerate() {
        let resp = t.wait();
        assert!(
            matches!(resp.outcome, Outcome::Decided { witness: None, .. }),
            "duplicate {i}: {:?}",
            resp.outcome
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.admitted, 4, "{stats}");
    assert_eq!(stats.completed, 4, "{stats}");
    assert_eq!(
        stats.coalesced, 3,
        "one solve, three shared replies: {stats}"
    );
    faults::reset();
}

/// A leader's timeout is a fact about *its* deadline, not the instance:
/// the waiter parked on it must be promoted and solve to its own clean
/// verdict, never inherit the leader's `TimedOut`.
#[test]
fn leader_timeout_promotes_live_waiter() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        executors: 2,
        ..ServerConfig::default()
    });
    let hg = || Arc::new(families::grid(6, 6));

    // The delay outlasts the leader's deadline, so its post-delay
    // checkpoint observes `Timeout` — deterministically non-shareable.
    faults::arm("logk/solve", 1, Fault::Delay(Duration::from_millis(400)));
    let leader = server
        .submit(Request::decide(hg(), 2).with_deadline(Duration::from_millis(100)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let waiter = server.submit(Request::decide(hg(), 2)).unwrap();

    assert!(matches!(leader.wait().outcome, Outcome::TimedOut));
    match waiter.wait().outcome {
        Outcome::Decided { witness: None, .. } => {}
        other => panic!("promoted waiter must reach its own verdict, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.timed_out, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
    assert_eq!(stats.coalesced, 0, "a timeout must not be shared: {stats}");
    assert_eq!(
        stats.admitted,
        stats.completed + stats.timed_out + stats.cancelled + stats.failed,
        "drain invariant: {stats}"
    );
    faults::reset();
}

/// A panicking portfolio racer is contained on its own thread: the
/// surviving engines' verdict wins the race and the request completes.
#[test]
fn panicking_racer_does_not_poison_the_race() {
    let _g = armed();
    let server = Server::start(ServerConfig {
        max_retries: 0,
        ..ServerConfig::default()
    });

    faults::arm("portfolio/engine", 1, Fault::Panic);
    let t = server.submit(Request::race(cycle(12), 2)).unwrap();
    match t.wait().outcome {
        Outcome::Raced {
            witness: Some(_), ..
        } => {}
        other => panic!("survivors' verdict must win, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1, "{stats}");
    assert_eq!(stats.failed, 0, "the panic stays inside the race: {stats}");
    assert_eq!(stats.races, 1, "{stats}");
    faults::reset();
}
