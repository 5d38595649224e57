//! Network-chaos acceptance suite for the wire layer. Deterministic
//! faults armed through `decomp::faults` tear connections mid-frame,
//! dribble bytes slow-loris style, freeze the acceptor and panic the
//! solver — and every test pins the blast radius to exactly one
//! connection while the client's retry/backoff machinery recovers.
#![cfg(feature = "fault-injection")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use decomp::faults::{self, Fault, NetFault};
use htdserve::ServerConfig;
use htdwire::codec::FrameDecoder;
use htdwire::proto::{Message, WireOutcome};
use htdwire::{ClientConfig, JobSpec, WireClient, WireConfig, WireServer};

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

fn small_cycle() -> Vec<Vec<u32>> {
    vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![5, 0]]
}

fn start_server() -> WireServer {
    WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: ServerConfig {
                executors: 2,
                workers: 1,
                ..ServerConfig::default()
            },
            ..WireConfig::default()
        },
    )
    .unwrap()
}

fn patient_client(addr: SocketAddr) -> WireClient {
    WireClient::new(
        addr,
        ClientConfig {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
}

// Minimal raw-socket helpers for the "bystander connection" role.

fn raw_handshake(addr: SocketAddr) -> (TcpStream, FrameDecoder) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut dec = FrameDecoder::new(htdwire::DEFAULT_MAX_PAYLOAD);
    stream
        .write_all(
            &Message::Hello {
                min_version: htdwire::VERSION,
                max_version: htdwire::VERSION,
            }
            .encode_frame(),
        )
        .unwrap();
    match raw_read(&mut stream, &mut dec) {
        Message::HelloAck {
            version: htdwire::VERSION,
        } => (stream, dec),
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

fn raw_read(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Message {
    let start = Instant::now();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("well-formed frame") {
            return Message::decode_payload(frame.kind, &frame.payload).expect("decodable");
        }
        assert!(start.elapsed() < Duration::from_secs(10), "no frame in 10s");
        match stream.read(&mut buf) {
            Ok(0) => panic!("unexpected EOF"),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read error: {e}"),
        }
    }
}

/// A mid-frame disconnect while the server writes one client's
/// `HelloAck` kills exactly that connection: a bystander connection
/// opened earlier keeps working, and the victim's client retries to
/// success on a fresh connection.
#[test]
fn mid_frame_disconnect_has_one_connection_blast_radius() {
    let _g = armed();
    let server = start_server();
    let addr = server.local_addr();

    // Bystander attaches (and consumes its own HelloAck) BEFORE arming,
    // so the armed ordinal deterministically hits the victim.
    let (mut bystander, mut bdec) = raw_handshake(addr);

    faults::arm(
        "wire/server/write",
        1,
        Fault::Net(NetFault::Truncate { keep: 5 }),
    );
    let reply = patient_client(addr)
        .request(JobSpec::decide(small_cycle(), 2))
        .expect("victim retries across the dropped connection");
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
    assert!(
        reply.attempts >= 2,
        "first attempt died mid-frame, got {} attempt(s)",
        reply.attempts
    );

    // The bystander's connection never noticed.
    bystander
        .write_all(
            &Message::Submit {
                id: 11,
                job: htdwire::WireJob::Decide { k: 2 },
                deadline_ms: None,
                idempotent: true,
                edges: small_cycle(),
            }
            .encode_frame(),
        )
        .unwrap();
    match raw_read(&mut bystander, &mut bdec) {
        Message::Reply {
            id: 11, outcome, ..
        } => {
            assert!(matches!(outcome, WireOutcome::Decided { k: 2, .. }))
        }
        other => panic!("bystander must be untouched, got {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.wire.replies_sent, 2);
    faults::reset();
}

/// A reply cut mid-frame after the solve already ran: the client
/// resubmits blindly and succeeds (every job is a pure query, so the
/// server simply runs it again, warm); the service's books stay
/// consistent.
#[test]
fn idempotent_retry_resubmits_after_lost_reply() {
    let _g = armed();
    let server = start_server();
    let addr = server.local_addr();

    // Site hits after arming: 1 = victim's HelloAck, 2 = victim's Reply.
    faults::arm(
        "wire/server/write",
        2,
        Fault::Net(NetFault::Truncate { keep: 9 }),
    );
    let reply = patient_client(addr)
        .request(JobSpec::decide(small_cycle(), 2))
        .expect("idempotent job retries through a lost reply");
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
    assert_eq!(reply.attempts, 2);

    let report = server.shutdown();
    // Both executions really happened — the job was admitted twice.
    assert_eq!(report.service.completed, 2);
    faults::reset();
}

/// A slow-loris submitter (its bytes dribble out in 8-byte chunks) does
/// not stall the server: a concurrent fast request on another
/// connection completes while the dribble is still in progress, and the
/// dribbled request itself eventually gets its verdict.
#[test]
fn slow_loris_write_does_not_stall_other_connections() {
    let _g = armed();
    let server = start_server();
    let addr = server.local_addr();

    // Victim's write hits after arming: 1 = Hello, 2 = Submit (dribbled).
    faults::arm(
        "wire/client/write",
        2,
        Fault::Net(NetFault::Throttle {
            chunk: 8,
            delay: Duration::from_millis(20),
        }),
    );
    let victim = std::thread::spawn(move || {
        let start = Instant::now();
        let reply = patient_client(addr).request(JobSpec::decide(small_cycle(), 2));
        (reply, start.elapsed())
    });
    // Let the victim take the armed fault before the fast client writes.
    std::thread::sleep(Duration::from_millis(40));

    let fast_start = Instant::now();
    let fast = patient_client(addr)
        .request(JobSpec::decide(small_cycle(), 2))
        .expect("fast client is not behind the slow-loris");
    let fast_elapsed = fast_start.elapsed();
    assert!(matches!(fast.outcome, WireOutcome::Decided { k: 2, .. }));

    let (victim_reply, victim_elapsed) = victim.join().unwrap();
    let victim_reply = victim_reply.expect("dribbled request still completes");
    assert!(matches!(
        victim_reply.outcome,
        WireOutcome::Decided { k: 2, .. }
    ));
    // ~98-byte submit frame in 8-byte chunks with 20 ms gaps ≥ 240 ms.
    assert!(
        victim_elapsed >= Duration::from_millis(200),
        "throttle did not engage ({victim_elapsed:?})"
    );
    assert!(
        fast_elapsed < Duration::from_millis(150),
        "fast client was stalled behind the slow-loris ({fast_elapsed:?})"
    );

    server.shutdown();
    faults::reset();
}

/// A stalled accept loop delays — but never loses — incoming
/// connections: the kernel backlog holds them and the request completes
/// once the acceptor thaws.
#[test]
fn stalled_accept_delays_but_serves() {
    let _g = armed();
    let server = start_server();
    let addr = server.local_addr();

    faults::arm(
        "wire/accept",
        1,
        Fault::Net(NetFault::Stall {
            delay: Duration::from_millis(300),
        }),
    );
    let start = Instant::now();
    let reply = patient_client(addr)
        .request(JobSpec::decide(small_cycle(), 2))
        .expect("request survives the frozen acceptor");
    let elapsed = start.elapsed();
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
    assert!(
        elapsed >= Duration::from_millis(250),
        "stall did not engage ({elapsed:?})"
    );

    server.shutdown();
    faults::reset();
}

/// A connection dropped at accept time is invisible to the retry loop:
/// the client's next attempt connects and succeeds.
#[test]
fn dropped_accept_is_retried_to_success() {
    let _g = armed();
    let server = start_server();
    let addr = server.local_addr();

    faults::arm("wire/accept", 1, Fault::Net(NetFault::Disconnect));
    let reply = patient_client(addr)
        .request(JobSpec::decide(small_cycle(), 2))
        .expect("client retries past the dropped accept");
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));
    assert!(reply.attempts >= 2);

    server.shutdown();
    faults::reset();
}

/// A solver panic reaches the client as a typed `Panicked` verdict over
/// the wire — the connection, the executor pool and subsequent requests
/// on the same server are all fine.
#[test]
fn server_panic_is_a_typed_verdict_over_the_wire() {
    let _g = armed();
    let server = WireServer::start(
        "127.0.0.1:0",
        WireConfig {
            service: ServerConfig {
                executors: 1,
                workers: 1,
                max_retries: 0,
                ..ServerConfig::default()
            },
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let cl = patient_client(addr);

    faults::arm("logk/solve", 1, Fault::Panic);
    let reply = cl
        .request(JobSpec::decide(small_cycle(), 2))
        .expect("a contained panic is a verdict, not a transport error");
    match &reply.outcome {
        WireOutcome::Panicked { message } => {
            assert!(message.contains("deliberate panic at `logk/solve`"))
        }
        other => panic!("expected Panicked verdict, got {other:?}"),
    }

    // Same client, same server: next request runs clean.
    let reply = cl.request(JobSpec::decide(small_cycle(), 2)).unwrap();
    assert!(matches!(reply.outcome, WireOutcome::Decided { k: 2, .. }));

    let report = server.shutdown();
    assert_eq!(report.service.panicked, 1);
    assert_eq!(report.service.completed, 1);
    faults::reset();
}
