//! Socket-level integration tests for the wire frontend: round trips,
//! malformed-frame isolation, overload backoff, version negotiation,
//! idle reaping, client session reuse, and clean drain/shutdown with
//! clients attached.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use htdwire::codec::{encode_frame, FrameDecoder, FrameKind};
use htdwire::proto::{GoodbyeReason, Message, WireError, WireOutcome};
use htdwire::{ClientConfig, JobSpec, WireClient, WireConfig, WireServer};

use htdserve::ServerConfig;
use workloads::families;

/// The admission invariants the service documents; every report coming
/// off the wire must still satisfy them.
fn assert_invariants(stats: &htdserve::ServiceStats) {
    assert_eq!(
        stats.submitted,
        stats.shed_overload + stats.shed_expired + stats.rejected_closed + stats.admitted,
        "{stats}"
    );
    assert_eq!(
        stats.admitted,
        stats.completed + stats.timed_out + stats.cancelled + stats.failed,
        "{stats}"
    );
    assert!(stats.expired_in_queue <= stats.timed_out, "{stats}");
}

/// `hw = 2` instance used for fast round trips.
fn small_cycle() -> Vec<Vec<u32>> {
    vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![5, 0]]
}

/// An instance that keeps one executor busy for hundreds of
/// milliseconds at `k = 3` (same blocker the service suite uses).
fn slow_edges() -> Vec<Vec<u32>> {
    let hg = families::chorded_cycle(64, 24, 7);
    hg.edge_ids()
        .map(|e| hg.edge(e).iter().map(|v| v.0).collect())
        .collect()
}

fn quick_service(executors: usize, queue_depth: usize) -> ServerConfig {
    ServerConfig {
        executors,
        workers: 1,
        queue_depth,
        ..ServerConfig::default()
    }
}

fn client(addr: SocketAddr) -> WireClient {
    WireClient::new(addr, ClientConfig::default())
}

// ---- raw-socket helpers (protocol-level poking the client won't do) ----

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn send_msg(stream: &mut TcpStream, msg: &Message) {
    stream.write_all(&msg.encode_frame()).expect("send frame");
}

/// Reads whole messages, waiting up to 5 s. Panics on framing errors —
/// these helpers model a *correct* client.
fn read_msg(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Message {
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("well-formed server frame") {
            return Message::decode_payload(frame.kind, &frame.payload)
                .expect("decodable server payload");
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "no frame within 5s"
        );
        match stream.read(&mut buf) {
            Ok(0) => panic!("connection closed while awaiting a frame"),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read error: {e}"),
        }
    }
}

fn handshake(stream: &mut TcpStream, dec: &mut FrameDecoder) {
    send_msg(
        stream,
        &Message::Hello {
            min_version: 1,
            max_version: 1,
        },
    );
    match read_msg(stream, dec) {
        Message::HelloAck { version: 1 } => {}
        other => panic!("expected HelloAck v1, got {other:?}"),
    }
}

/// Reads until EOF, returning any messages seen on the way.
fn drain_to_eof(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Vec<Message> {
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    let mut msgs = Vec::new();
    loop {
        while let Ok(Some(frame)) = dec.next_frame() {
            if let Ok(m) = Message::decode_payload(frame.kind, &frame.payload) {
                msgs.push(m);
            }
        }
        assert!(start.elapsed() < Duration::from_secs(5), "no EOF within 5s");
        match stream.read(&mut buf) {
            Ok(0) => return msgs,
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return msgs,
        }
    }
}

// ---------------------------------------------------------------------

#[test]
fn decide_and_minimal_width_roundtrip_over_socket() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let cl = client(server.local_addr());

    let reply = cl.request(JobSpec::decide(small_cycle(), 2)).unwrap();
    match &reply.outcome {
        WireOutcome::Decided { k: 2, witness } => {
            let wire = witness.clone().expect("hw(cycle) ≤ 2 has a witness");
            // Rebuild and validate the witness client-side: the wire
            // form carries everything needed to check the verdict.
            let hg = hypergraph::Hypergraph::from_edge_lists(&small_cycle());
            let d = wire.into_decomposition(&hg).expect("well-formed witness");
            decomp::validate::validate_hd_width(&hg, &d, 2).expect("witness validates");
        }
        other => panic!("expected Decided{{k=2}}, got {other:?}"),
    }
    assert_eq!(reply.attempts, 1);

    let reply = cl
        .request(JobSpec::minimal_width(small_cycle(), 3))
        .unwrap();
    match &reply.outcome {
        WireOutcome::Width {
            proven_lower,
            best_upper,
            interrupted,
            ..
        } => {
            assert_eq!(*interrupted, None);
            assert_eq!(*best_upper, Some(*proven_lower), "sweep is exact");
        }
        other => panic!("expected Width, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.wire.replies_sent, 2);
    assert_eq!(report.service.completed, 2);
}

#[test]
fn malformed_frames_do_not_disturb_a_concurrent_solve() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let addr = server.local_addr();

    // A real solve in flight on its own connection...
    let solver = std::thread::spawn(move || {
        client(addr)
            .request(JobSpec::decide(small_cycle(), 2).with_deadline(Duration::from_secs(10)))
    });

    // ...while one connection sprays garbage (desync → torn down)...
    let mut garbage = raw_connect(addr);
    garbage
        .write_all(b"this is not an HTDW frame at all....")
        .unwrap();
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    let msgs = drain_to_eof(&mut garbage, &mut dec);
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            Message::Reject {
                error: WireError::Malformed { .. },
                ..
            }
        )),
        "desync earns a typed reject before the close, got {msgs:?}"
    );

    // ...and another sends a checksum-corrupted frame, then recovers on
    // the SAME connection: one bad frame must not kill the stream.
    let mut flaky = raw_connect(addr);
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    handshake(&mut flaky, &mut dec);
    let submit = Message::Submit {
        id: 7,
        job: htdwire::WireJob::Decide { k: 2 },
        deadline_ms: None,
        idempotent: true,
        edges: small_cycle(),
    };
    let mut corrupt = submit.encode_frame();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF; // payload corruption → checksum mismatch
    flaky.write_all(&corrupt).unwrap();
    match read_msg(&mut flaky, &mut dec) {
        Message::Reject {
            error: WireError::Malformed { .. },
            ..
        } => {}
        other => panic!("expected Malformed reject, got {other:?}"),
    }
    send_msg(&mut flaky, &submit);
    match read_msg(&mut flaky, &mut dec) {
        Message::Reply { id: 7, outcome, .. } => {
            assert!(matches!(outcome, WireOutcome::Decided { k: 2, .. }))
        }
        other => panic!("expected Reply after recovery, got {other:?}"),
    }

    // The concurrent solve was never disturbed.
    let reply = solver.join().unwrap().expect("concurrent solve succeeds");
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));

    let report = server.shutdown();
    assert!(report.wire.connections_torn >= 1, "garbage conn was torn");
    assert!(
        report.wire.frames_rejected >= 1,
        "bad checksum was rejected"
    );
    assert_eq!(report.wire.replies_sent, 2);
    assert_invariants(&report.service);
}

#[test]
fn overloaded_server_sheds_with_hints_and_clients_retry_to_success() {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: quick_service(1, 1),
            retry_after_ms: 50,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Pin the lone executor for ~500 ms.
    let blocker = std::thread::spawn(move || {
        client(addr)
            .request(JobSpec::decide(slow_edges(), 3).with_deadline(Duration::from_millis(500)))
    });
    std::thread::sleep(Duration::from_millis(100));

    // Three eager clients contend for a queue of depth 1. At most one
    // fits; the others are shed with a retry-after hint and must back
    // off to eventual success (min time-to-exhaustion 29 × 50 ms far
    // exceeds the blocker's deadline, so retries always outlive it).
    let eager: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let cl = WireClient::new(
                    addr,
                    ClientConfig {
                        max_attempts: 30,
                        base_backoff: Duration::from_millis(10),
                        max_backoff: Duration::from_millis(120),
                        seed: 0xBEEF + i,
                        ..ClientConfig::default()
                    },
                );
                cl.request(JobSpec::decide(small_cycle(), 2))
            })
        })
        .collect();

    let mut total_attempts = 0;
    for h in eager {
        let reply = h.join().unwrap().expect("eager client retried to success");
        assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
        total_attempts += reply.attempts;
    }
    let _ = blocker.join().unwrap(); // TimedOut or Decided — either is fine
    assert!(total_attempts > 3, "at least one client had to retry");

    let report = server.shutdown();
    assert!(report.wire.rejects_sent >= 1, "overload rejects were sent");
    assert!(
        report.service.shed_overload >= 1,
        "service shed at admission"
    );
    assert_invariants(&report.service);
}

#[test]
fn version_negotiation_acks_or_rejects() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let addr = server.local_addr();

    // Overlapping offer → ack at the server's (and range's) best.
    let mut ok = raw_connect(addr);
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    send_msg(
        &mut ok,
        &Message::Hello {
            min_version: 0,
            max_version: 5,
        },
    );
    assert!(matches!(
        read_msg(&mut ok, &mut dec),
        Message::HelloAck {
            version: htdwire::MAX_VERSION
        }
    ));

    // A v1-only client still negotiates: the server downgrades.
    let mut old = raw_connect(addr);
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    send_msg(
        &mut old,
        &Message::Hello {
            min_version: 1,
            max_version: 1,
        },
    );
    assert!(matches!(
        read_msg(&mut old, &mut dec),
        Message::HelloAck { version: 1 }
    ));

    // Disjoint offer → typed Unsupported reject, then close.
    let mut future = raw_connect(addr);
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    send_msg(
        &mut future,
        &Message::Hello {
            min_version: 7,
            max_version: 9,
        },
    );
    let msgs = drain_to_eof(&mut future, &mut dec);
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            Message::Reject {
                error: WireError::Unsupported {
                    server_min: htdwire::MIN_VERSION,
                    server_max: htdwire::MAX_VERSION
                },
                ..
            }
        )),
        "got {msgs:?}"
    );

    // Submitting before any hello is a typed protocol error.
    let mut rude = raw_connect(addr);
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    send_msg(
        &mut rude,
        &Message::Submit {
            id: 1,
            job: htdwire::WireJob::Decide { k: 2 },
            deadline_ms: None,
            idempotent: true,
            edges: small_cycle(),
        },
    );
    assert!(matches!(
        read_msg(&mut rude, &mut dec),
        Message::Reject {
            id: 1,
            error: WireError::Malformed { .. }
        }
    ));

    server.shutdown();
}

#[test]
fn race_roundtrips_on_v2_and_is_rejected_on_v1_sessions() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let addr = server.local_addr();

    // The default client negotiates v2, so a portfolio race runs end to
    // end and the reply names the winning engine.
    let reply = client(addr)
        .request(JobSpec::race(small_cycle(), 2))
        .expect("race round trip");
    match &reply.outcome {
        WireOutcome::Raced { k: 2, witness, .. } => {
            let wire = witness.clone().expect("hw(cycle) ≤ 2 has a witness");
            let hg = hypergraph::Hypergraph::from_edge_lists(&small_cycle());
            let d = wire.into_decomposition(&hg).expect("well-formed witness");
            decomp::validate::validate_hd_width(&hg, &d, 2).expect("witness validates");
        }
        other => panic!("expected Raced{{k=2}}, got {other:?}"),
    }

    // A session that negotiated v1 can frame a Race submit (decoding is
    // version-blind) but the server refuses to run it, pointing at its
    // own version range; the connection survives for supported jobs.
    let mut old = raw_connect(addr);
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    handshake(&mut old, &mut dec); // pins the session at v1
    send_msg(
        &mut old,
        &Message::Submit {
            id: 11,
            job: htdwire::WireJob::Race { k: 2 },
            deadline_ms: None,
            idempotent: true,
            edges: small_cycle(),
        },
    );
    assert!(matches!(
        read_msg(&mut old, &mut dec),
        Message::Reject {
            id: 11,
            error: WireError::Unsupported {
                server_min: htdwire::MIN_VERSION,
                server_max: htdwire::MAX_VERSION,
            },
        }
    ));
    send_msg(
        &mut old,
        &Message::Submit {
            id: 12,
            job: htdwire::WireJob::Decide { k: 2 },
            deadline_ms: None,
            idempotent: true,
            edges: small_cycle(),
        },
    );
    assert!(matches!(
        read_msg(&mut old, &mut dec),
        Message::Reply { id: 12, .. }
    ));

    let report = server.shutdown();
    assert_eq!(report.wire.race_replies_sent, 1);
    assert!(report.wire.rejects_sent >= 1);
    assert_eq!(report.service.races, 1);
    assert_eq!(
        report.service.races_won_by.iter().sum::<u64>(),
        1,
        "exactly one engine won the one race: {:?}",
        report.service.races_won_by
    );
    assert_invariants(&report.service);
}

#[test]
fn oversized_frames_get_typed_rejects() {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            max_payload: 1024,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut stream = raw_connect(server.local_addr());
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    handshake(&mut stream, &mut dec);
    // Hand-build a header declaring a payload far over the server cap.
    let huge = encode_frame(FrameKind::Submit, &vec![0u8; 2048]);
    stream.write_all(&huge).unwrap();
    let msgs = drain_to_eof(&mut stream, &mut dec);
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            Message::Reject {
                error: WireError::TooLarge {
                    declared: 2048,
                    cap: 1024
                },
                ..
            }
        )),
        "got {msgs:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.wire.connections_torn, 1);
}

#[test]
fn idle_connections_are_reaped_politely() {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            idle_timeout: Duration::from_millis(80),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut stream = raw_connect(server.local_addr());
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    handshake(&mut stream, &mut dec);
    // Say nothing; the reaper should send a Goodbye(Idle) and close.
    let msgs = drain_to_eof(&mut stream, &mut dec);
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            Message::Goodbye {
                reason: GoodbyeReason::Idle
            }
        )),
        "got {msgs:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.wire.idle_reaped, 1);
}

#[test]
fn drain_finishes_inflight_work_with_client_attached() {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: quick_service(1, 4),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let inflight = std::thread::spawn(move || {
        client(addr)
            .request(JobSpec::decide(slow_edges(), 3).with_deadline(Duration::from_millis(400)))
    });
    std::thread::sleep(Duration::from_millis(100));

    // Drain with the client still waiting: it must get its verdict (the
    // deadline governs which one), never a severed connection.
    let report = server.drain();
    let reply = inflight
        .join()
        .unwrap()
        .expect("drained client gets a reply");
    assert!(
        matches!(
            reply.outcome,
            WireOutcome::Decided { .. } | WireOutcome::TimedOut
        ),
        "in-flight work ran to its own verdict, got {:?}",
        reply.outcome
    );
    assert_eq!(report.wire.replies_sent, 1);
    assert_invariants(&report.service);
}

#[test]
fn shutdown_cancels_inflight_work_and_answers_the_client() {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: quick_service(1, 4),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let inflight =
        std::thread::spawn(move || client(addr).request(JobSpec::decide(slow_edges(), 3)));
    std::thread::sleep(Duration::from_millis(100));

    let report = server.shutdown();
    let reply = inflight.join().unwrap().expect("client still gets a reply");
    assert!(
        matches!(reply.outcome, WireOutcome::Cancelled),
        "shutdown cancels, got {:?}",
        reply.outcome
    );
    assert_eq!(report.service.cancelled, 1);
    assert_invariants(&report.service);
}

#[test]
fn hedged_requests_return_a_single_verdict() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let cl = WireClient::new(
        server.local_addr(),
        ClientConfig {
            hedge_after: Some(Duration::from_millis(30)),
            ..ClientConfig::default()
        },
    );
    // Slow enough that the hedge usually fires; both verdicts agree, and
    // exactly one comes back.
    let reply = cl
        .request(JobSpec::decide(slow_edges(), 3).with_deadline(Duration::from_millis(300)))
        .expect("hedged request resolves");
    assert!(matches!(
        reply.outcome,
        WireOutcome::Decided { .. } | WireOutcome::TimedOut
    ));
    let report = server.shutdown();
    assert_invariants(&report.service);
}

// ---- session reuse and the blocking accept ----

#[test]
fn sequential_requests_share_one_session() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let cl = client(server.local_addr());
    for _ in 0..20 {
        let reply = cl.request(JobSpec::decide(small_cycle(), 2)).unwrap();
        assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
        assert_eq!(reply.attempts, 1);
    }
    let report = server.shutdown();
    assert_eq!(report.wire.connections_accepted, 1);
    assert_eq!(report.wire.replies_sent, 20);
}

#[test]
fn idle_reaped_session_is_replaced_transparently() {
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            idle_timeout: Duration::from_millis(50),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let cl = client(server.local_addr());
    cl.request(JobSpec::decide(small_cycle(), 2)).unwrap();
    // Wait until the server has reaped the pooled session.
    let start = Instant::now();
    while server.wire_stats().idle_reaped == 0 {
        assert!(start.elapsed() < Duration::from_secs(5), "no idle reap");
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = cl.request(JobSpec::decide(small_cycle(), 2)).unwrap();
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
    assert_eq!(reply.attempts, 1, "the stale session cost no attempt");
    let stats = server.wire_stats();
    assert_eq!(stats.idle_reaped, 1);
    assert_eq!(stats.connections_accepted, 2);
    server.shutdown();
}

#[test]
fn non_idempotent_requests_open_a_session_each() {
    let server = WireServer::start("127.0.0.1:0", WireConfig::default()).unwrap();
    let cl = client(server.local_addr());
    for _ in 0..5 {
        let reply = cl
            .request(JobSpec::decide(small_cycle(), 2).non_idempotent())
            .unwrap();
        assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
    }
    let report = server.shutdown();
    assert_eq!(report.wire.connections_accepted, 5);
}

/// A stand-in server answers the first submit with an `Overloaded`
/// shed carrying the request id and the second with a reply, reading
/// both from its one accepted connection: the client's retry must
/// reuse the pooled session rather than reconnect.
#[test]
fn shed_reply_leaves_the_session_pooled() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stand_in = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
        assert!(matches!(
            read_msg(&mut stream, &mut dec),
            Message::Hello { .. }
        ));
        send_msg(
            &mut stream,
            &Message::HelloAck {
                version: htdwire::MAX_VERSION,
            },
        );
        let Message::Submit { id, .. } = read_msg(&mut stream, &mut dec) else {
            panic!("expected the first submit")
        };
        send_msg(
            &mut stream,
            &Message::Reject {
                id,
                error: WireError::Overloaded {
                    queue_depth: 1,
                    retry_after_ms: 1,
                },
            },
        );
        let Message::Submit { id, .. } = read_msg(&mut stream, &mut dec) else {
            panic!("expected the retried submit on the same session")
        };
        send_msg(
            &mut stream,
            &Message::Reply {
                id,
                outcome: WireOutcome::Decided {
                    k: 2,
                    witness: None,
                },
                queue_wait_ns: 0,
                solve_ns: 0,
                retries: 0,
            },
        );
        listener.set_nonblocking(true).unwrap();
        assert!(
            listener.accept().is_err(),
            "the client opened a second connection"
        );
    });
    let reply = WireClient::new(
        addr,
        ClientConfig {
            max_attempts: 2,
            ..ClientConfig::default()
        },
    )
    .request(JobSpec::decide(small_cycle(), 2))
    .expect("the retry after the shed succeeds");
    assert_eq!(reply.attempts, 2);
    stand_in.join().unwrap();
}

#[test]
fn idle_server_halts_promptly_with_a_pooled_client() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        for drain in [false, true] {
            let server = WireServer::start(bind, WireConfig::default()).unwrap();
            let addr = SocketAddr::from(([127, 0, 0, 1], server.local_addr().port()));
            let cl = client(addr);
            cl.request(JobSpec::decide(small_cycle(), 2)).unwrap();
            let start = Instant::now();
            let report = if drain {
                server.drain()
            } else {
                server.shutdown()
            };
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_millis(500),
                "{bind} {} took {elapsed:?}",
                if drain { "drain" } else { "shutdown" }
            );
            assert_eq!(
                report.wire.connections_accepted, 1,
                "wake-up is not counted"
            );
            drop(cl);
        }
    }
}
