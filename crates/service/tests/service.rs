//! Baseline server behaviour (no fault injection): verdict
//! correctness, deadline scoping, admission control, shutdown/drain
//! semantics, cross-request table sharing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use htdserve::{Job, Outcome, Rejected, Request, Server, ServerConfig};
use workloads::families;

/// How long a cooperative stop may take end-to-end in these tests.
/// Checkpoints fire every few hundred candidate steps, so real latency
/// is microseconds; the bound is generous for loaded CI boxes.
const STOP_LATENCY: Duration = Duration::from_secs(5);

fn cycle(n: u32) -> Arc<hypergraph::Hypergraph> {
    Arc::new(families::cycle(n))
}

/// A cycle hypergraph C_n has hw = 2 for n ≥ 4: k = 1 is refuted,
/// k = 2 is witnessed. The server must reproduce both verdicts.
#[test]
fn decide_round_trip() {
    let server = Server::start(ServerConfig::default());
    let hg = cycle(12);

    let yes = server.submit(Request::decide(Arc::clone(&hg), 2)).unwrap();
    let no = server.submit(Request::decide(Arc::clone(&hg), 1)).unwrap();

    match yes.wait().outcome {
        Outcome::Decided {
            k: 2,
            witness: Some(_),
        } => {}
        other => panic!("expected witnessed k=2 verdict, got {other:?}"),
    }
    match no.wait().outcome {
        Outcome::Decided {
            k: 1,
            witness: None,
        } => {}
        other => panic!("expected refuted k=1 verdict, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed + stats.timed_out + stats.cancelled, 0);
}

/// Minimal-width requests return exact anytime bounds when there is no
/// deadline pressure.
#[test]
fn minimal_width_exact() {
    let server = Server::start(ServerConfig::default());
    let ticket = server.submit(Request::minimal_width(cycle(10), 4)).unwrap();
    match ticket.wait().outcome {
        Outcome::Width(b) => {
            assert!(b.exact(), "unpressured sweep must certify: {b}");
            assert_eq!(b.best_upper, Some(2));
            assert!(b.witness.is_some());
        }
        other => panic!("expected width bounds, got {other:?}"),
    }
    server.shutdown();
}

/// Content-equal instances submitted as *distinct* allocations share
/// one canonical instance and its table pair.
#[test]
fn content_equal_requests_share_tables() {
    let server = Server::start(ServerConfig::default());
    for _ in 0..3 {
        // A fresh allocation each time: sharing must be by content.
        let t = server.submit(Request::decide(cycle(16), 2)).unwrap();
        assert!(matches!(
            t.wait().outcome,
            Outcome::Decided {
                witness: Some(_),
                ..
            }
        ));
    }
    let hub = server.hub_snapshot();
    assert_eq!(hub.instances, 1, "one canonical instance: {hub:?}");
    assert_eq!(hub.misses, 1, "one pair built: {hub:?}");
    assert_eq!(hub.hits, 2, "later requests reuse it: {hub:?}");
    server.shutdown();
}

/// An already-expired deadline is shed at admission, not queued to die.
#[test]
fn expired_deadline_shed_at_admission() {
    let server = Server::start(ServerConfig {
        min_headroom: Duration::from_millis(1),
        ..ServerConfig::default()
    });
    let err = server
        .submit(Request::decide(cycle(8), 2).with_deadline(Duration::ZERO))
        .unwrap_err();
    assert!(matches!(err, Rejected::Expired { .. }), "got {err:?}");
    let stats = server.shutdown();
    assert_eq!(stats.shed_expired, 1);
    assert_eq!(stats.admitted, 0);
}

/// A full queue sheds with `Overloaded`; draining afterwards still
/// answers everything that *was* admitted.
#[test]
fn overload_sheds_then_drains() {
    // One executor, tiny queue, and a big enough instance that the
    // executor stays busy while we stuff the queue.
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    let hg = cycle(40);
    let mut tickets = Vec::new();
    let mut overloaded = 0;
    // 1 in-flight + 2 queued slots; 16 submits must overflow.
    for _ in 0..16 {
        match server.submit(Request::decide(Arc::clone(&hg), 2)) {
            Ok(t) => tickets.push(t),
            Err(Rejected::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 2);
                overloaded += 1;
            }
            Err(other) => panic!("unexpected rejection {other:?}"),
        }
    }
    assert!(
        overloaded > 0,
        "16 rapid submits never overflowed a 2-slot queue"
    );
    let admitted = tickets.len() as u64;
    for t in tickets {
        assert!(matches!(
            t.wait().outcome,
            Outcome::Decided {
                witness: Some(_),
                ..
            }
        ));
    }
    let stats = server.drain();
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.shed_overload, overloaded);
}

/// A request whose deadline expires mid-solve reports `TimedOut` and
/// does not wedge the executor; a subsequent request succeeds.
#[test]
fn deadline_times_out_in_flight() {
    let server = Server::start(ServerConfig::default());
    // Large chorded instance at a width that forces a long refutation
    // search; 5 ms cannot finish it.
    let hard = Arc::new(families::chorded_cycle(64, 24, 7));
    let t = server
        .submit(Request::decide(hard, 3).with_deadline(Duration::from_millis(5)))
        .unwrap();
    let started = Instant::now();
    let resp = t.wait();
    assert!(
        matches!(resp.outcome, Outcome::TimedOut),
        "got {:?}",
        resp.outcome
    );
    assert!(
        started.elapsed() < STOP_LATENCY,
        "timeout not honoured within bound: {:?}",
        started.elapsed()
    );

    // The executor is fine: an easy request still completes.
    let ok = server.submit(Request::decide(cycle(8), 2)).unwrap();
    assert!(matches!(
        ok.wait().outcome,
        Outcome::Decided {
            witness: Some(_),
            ..
        }
    ));
    let stats = server.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 1);
}

/// A deadline-pressured minimal-width sweep still returns the bounds it
/// proved (anytime semantics), not nothing.
#[test]
fn minimal_width_partial_under_pressure() {
    let server = Server::start(ServerConfig {
        // Give each width a tiny slice so the sweep visits several
        // widths instead of burning the whole budget on k = 1.
        width_slice: Some(Duration::from_millis(4)),
        ..ServerConfig::default()
    });
    let hard = Arc::new(families::chorded_cycle(64, 24, 7));
    let t = server
        .submit(Request::minimal_width(hard, 3).with_deadline(Duration::from_millis(30)))
        .unwrap();
    match t.wait().outcome {
        Outcome::Width(b) => {
            // Whatever happened, the invariant must hold: the lower
            // bound only reflects exhaustively refuted widths.
            assert!(b.proven_lower >= 1);
            if let Some(u) = b.best_upper {
                assert!(u >= b.proven_lower);
                assert!(b.witness.is_some());
            }
        }
        other => panic!("expected width bounds, got {other:?}"),
    }
    server.shutdown();
}

/// `shutdown` cancels queued *and* in-flight requests through the
/// control chain within the latency bound, and every admitted request
/// still receives a response.
#[test]
fn shutdown_cancels_in_flight_and_queued() {
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let hard = Arc::new(families::chorded_cycle(72, 28, 11));
    // No deadline: only the shutdown cancel can stop these.
    let tickets: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(Request::decide(Arc::clone(&hard), 3))
                .unwrap()
        })
        .collect();
    // Let the executor actually start solving the first one.
    std::thread::sleep(Duration::from_millis(30));

    let started = Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < STOP_LATENCY,
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(
        stats.admitted, 3,
        "queued requests must be answered, not dropped"
    );
    assert_eq!(stats.cancelled, 3, "{stats}");
    for t in tickets {
        assert!(matches!(t.wait().outcome, Outcome::Cancelled));
    }
}

/// Submitting after shutdown is rejected (via a second handle pattern:
/// drop-based stop also closes admission).
#[test]
fn reject_after_close() {
    let server = Server::start(ServerConfig::default());
    let t = server.submit(Request::decide(cycle(8), 2)).unwrap();
    t.wait();
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    // The handle is consumed by shutdown; nothing further to submit to.
    // (Admission-after-close is covered by the closed flag internally;
    // the type system already prevents use-after-shutdown here.)
}

/// Deadline-ordered admission: with the single executor pinned by a
/// long-running request, a later-submitted request with an *earlier*
/// deadline overtakes an earlier-submitted request with a later
/// deadline.
#[test]
fn queue_is_deadline_ordered_not_fifo() {
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    // Pin the executor: a refutation search that runs out its 300 ms
    // deadline (chorded cycles at low k search exhaustively).
    let hard = Arc::new(families::chorded_cycle(64, 24, 7));
    let blocker = server
        .submit(Request::decide(hard, 3).with_deadline(Duration::from_millis(300)))
        .unwrap();
    // Queue two easy requests while the executor is busy: FIFO would run
    // `patient` first; EDF must run `urgent` first.
    let patient = server
        .submit(Request::decide(cycle(12), 2).with_deadline(Duration::from_secs(60)))
        .unwrap();
    let urgent = server
        .submit(Request::decide(cycle(12), 2).with_deadline(Duration::from_secs(5)))
        .unwrap();

    // Responses arrive in execution order; queue_wait is measured from
    // submit to dequeue, so the overtaking request must show a *smaller*
    // gap between its wait and the blocker's runtime.
    let urgent_resp = urgent.wait();
    let patient_resp = patient.wait();
    assert!(matches!(
        urgent_resp.outcome,
        Outcome::Decided {
            witness: Some(_),
            ..
        }
    ));
    assert!(matches!(
        patient_resp.outcome,
        Outcome::Decided {
            witness: Some(_),
            ..
        }
    ));
    assert!(
        urgent_resp.queue_wait < patient_resp.queue_wait,
        "urgent (submitted later, wait {:?}) must dequeue before patient \
         (wait {:?})",
        urgent_resp.queue_wait,
        patient_resp.queue_wait,
    );
    blocker.wait();
    let stats = server.shutdown();
    assert_eq!(stats.completed + stats.timed_out, 3, "{stats}");
}

/// A request whose deadline passes while it is queued is shed at
/// dequeue — counted in `expired_in_queue` (and in `timed_out`, keeping
/// the admitted-class invariant), with no solve started.
#[test]
fn queued_past_deadline_is_shed_at_dequeue() {
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let hard = Arc::new(families::chorded_cycle(64, 24, 7));
    // Pin the executor for ~150 ms...
    let blocker = server
        .submit(Request::decide(hard, 3).with_deadline(Duration::from_millis(150)))
        .unwrap();
    // Let the executor actually dequeue the blocker — otherwise EDF runs
    // the short-deadline request first, while it is still live.
    std::thread::sleep(Duration::from_millis(40));
    // ...and queue a request that can only expire behind it.
    let doomed = server
        .submit(Request::decide(cycle(12), 2).with_deadline(Duration::from_millis(20)))
        .unwrap();
    assert!(matches!(doomed.wait().outcome, Outcome::TimedOut));
    assert!(matches!(blocker.wait().outcome, Outcome::TimedOut));

    let stats = server.shutdown();
    assert_eq!(stats.expired_in_queue, 1, "{stats}");
    // Both timed out, but only the queued one counts as in-queue expiry;
    // the invariant admitted = completed + timed_out + cancelled + failed
    // still holds with the split counter.
    assert_eq!(stats.timed_out, 2, "{stats}");
    assert_eq!(
        stats.admitted,
        stats.completed + stats.timed_out + stats.cancelled + stats.failed,
        "{stats}"
    );
    assert!(stats.expired_in_queue <= stats.timed_out);
    assert_eq!(stats.shed_expired, 0, "at-submit shedding is separate");
}

/// Deadline-less requests keep FIFO order among themselves and never
/// starve: they run after deadlined work, in submission order.
#[test]
fn deadline_less_requests_fifo_after_deadlined() {
    let server = Server::start(ServerConfig {
        executors: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let hard = Arc::new(families::chorded_cycle(64, 24, 7));
    let blocker = server
        .submit(Request::decide(hard, 3).with_deadline(Duration::from_millis(200)))
        .unwrap();
    let no_deadline = server.submit(Request::decide(cycle(12), 2)).unwrap();
    let deadlined = server
        .submit(Request::decide(cycle(12), 2).with_deadline(Duration::from_secs(60)))
        .unwrap();
    let no_deadline_resp = no_deadline.wait();
    let deadlined_resp = deadlined.wait();
    assert!(
        deadlined_resp.queue_wait < no_deadline_resp.queue_wait,
        "deadlined request (wait {:?}) must overtake the deadline-less \
         one (wait {:?})",
        deadlined_resp.queue_wait,
        no_deadline_resp.queue_wait,
    );
    assert!(matches!(
        no_deadline_resp.outcome,
        Outcome::Decided {
            witness: Some(_),
            ..
        }
    ));
    blocker.wait();
    server.shutdown();
}

/// The parallel configuration (shared pool across executors) produces
/// the same verdicts as sequential.
#[test]
fn parallel_pool_round_trip() {
    let server = Server::start(ServerConfig {
        executors: 2,
        workers: 2,
        ..ServerConfig::default()
    });
    let hg = cycle(20);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            let k = if i % 2 == 0 { 2 } else { 1 };
            server
                .submit(Request {
                    hg: Arc::clone(&hg),
                    job: Job::Decide { k },
                    deadline: None,
                })
                .unwrap()
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait().outcome {
            Outcome::Decided { witness, .. } => {
                assert_eq!(witness.is_some(), i % 2 == 0, "request {i}");
            }
            other => panic!("request {i}: {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 4);
}

/// `Job::Race` races the portfolio's field and reports the winning
/// engine; both polarities come back definitive on an unpressured
/// instance.
#[test]
fn race_round_trip() {
    let server = Server::start(ServerConfig::default());
    let hg = cycle(12);

    let yes = server.submit(Request::race(Arc::clone(&hg), 2)).unwrap();
    let no = server.submit(Request::race(Arc::clone(&hg), 1)).unwrap();

    match yes.wait().outcome {
        Outcome::Raced {
            k: 2,
            winner,
            witness: Some(_),
        } => {
            // Winner is whichever racer got there first: one of the
            // field's two engines.
            assert!(
                matches!(
                    winner,
                    portfolio::EngineKind::LogkSeq | portfolio::EngineKind::Detk
                ),
                "{winner}"
            );
        }
        other => panic!("expected raced k=2 witness, got {other:?}"),
    }
    assert!(matches!(
        no.wait().outcome,
        Outcome::Raced {
            k: 1,
            witness: None,
            ..
        }
    ));

    let stats = server.shutdown();
    assert_eq!(stats.races, 2, "{stats}");
    assert_eq!(stats.completed, 2, "{stats}");
    let wins: u64 = stats.races_won_by.iter().sum();
    assert_eq!(wins, 2, "every definitive race names a winner: {stats}");
}

/// Duplicate in-flight requests coalesce onto one solve: with two
/// executors, the duplicates of a slow refutation park on the leader
/// and share its verdict instead of redoing the search. (The exact
/// count is pinned deterministically in the fault-injection suite; here
/// the leader's multi-millisecond solve dwarfs the attach window.)
#[test]
fn duplicate_requests_coalesce_onto_one_solve() {
    let server = Server::start(ServerConfig {
        executors: 2,
        ..ServerConfig::default()
    });
    // A refutation that no certified bound settles, so the leader runs
    // the full search (the minor bound refutes a 10×10 grid at k = 2 in
    // microseconds, leaving nothing in flight to park on).
    let csp = workloads::hyperbench_like(workloads::CorpusConfig::default())
        .into_iter()
        .find(|inst| inst.name == "syn_csp_074e_0010")
        .expect("the default corpus holds syn_csp_074e_0010")
        .hg;
    // Fresh allocation each submit: coalescing must key on content.
    let hg = || Arc::new(csp.clone());
    let tickets: Vec<_> = (0..4)
        .map(|_| server.submit(Request::decide(hg(), 2)).unwrap())
        .collect();
    for t in tickets {
        match t.wait().outcome {
            Outcome::Decided {
                k: 2,
                witness: None,
            } => {}
            other => panic!("expected refuted k=2, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.admitted, 4, "{stats}");
    assert_eq!(stats.completed, 4, "{stats}");
    assert!(
        stats.coalesced >= 1,
        "duplicates should have parked on the in-flight leader: {stats}"
    );
    assert_eq!(
        stats.admitted,
        stats.completed + stats.timed_out + stats.cancelled + stats.failed,
        "drain invariant: {stats}"
    );
}
