//! The framed TCP frontend over [`htdserve::Server`].
//!
//! One [`WireServer`] owns a listener, an accept loop and one handler
//! thread per live connection. Handlers are synchronous: a connection
//! carries one request at a time, and the handler blocks on the
//! service ticket while the solve runs. Robustness properties:
//!
//! * **Malformed input never panics and never widens.** Recoverable
//!   frame errors (bad checksum, unknown kind, undecodable payload)
//!   produce a typed [`WireError::Malformed`] reject and the *same*
//!   connection keeps serving; fatal errors (lost sync, oversized
//!   declaration) tear down only that one connection. The service, the
//!   executor pool and every other connection are untouched.
//! * **Deadlines everywhere.** Reads run under a short `SO_RCVTIMEO`
//!   tick so handlers observe shutdown promptly; connections idle past
//!   [`WireConfig::idle_timeout`] are reaped with a polite
//!   [`Message::Goodbye`]. The acceptor blocks in `accept`; a halt
//!   wakes it with one connection to the server's own address.
//! * **Graceful degradation.** Admission failures surface as typed
//!   wire errors — [`WireError::Overloaded`] carries a retry-after
//!   hint, [`WireError::Expired`] the remaining budget,
//!   [`WireError::ShuttingDown`] the drain state — so clients can
//!   distinguish "back off" from "give up".
//! * **Clean endings.** [`WireServer::shutdown`] cancels in-flight
//!   work through the service's root control; [`WireServer::drain`]
//!   lets it finish. Both join every thread and return a final
//!   [`WireReport`] even with clients still attached.

use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decomp::Interrupted;
use htdserve::{Job, Outcome, Rejected, Request, Server, ServerConfig, ServiceStats};
use hypergraph::Hypergraph;

use crate::codec::{FrameDecoder, FrameError};
use crate::net;
use crate::proto::{
    GoodbyeReason, Message, WireDecomp, WireError, WireInterrupt, WireJob, WireOutcome,
    MAX_VERSION, MIN_VERSION, NO_REQUEST, RACE_VERSION,
};

/// Largest vertex id a `Submit` may mention. Edge lists are index-based,
/// so a single absurd id would otherwise make the server allocate a
/// universe-sized bitset. Instances this large are far beyond what the
/// solvers handle anyway.
pub const MAX_VERTEX_ID: u32 = 1 << 20;

/// Largest number of edges a `Submit` may carry (same rationale).
pub const MAX_EDGES: u32 = 1 << 20;

/// Configuration for [`WireServer::start`].
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// The backing decomposition service.
    pub service: ServerConfig,
    /// Live-connection cap; further connects are refused with
    /// [`WireError::Overloaded`].
    pub max_connections: usize,
    /// Connections with no traffic for this long get a
    /// [`GoodbyeReason::Idle`] and are closed.
    pub idle_timeout: Duration,
    /// Granularity of handler reads (`SO_RCVTIMEO`); bounds how fast
    /// handlers notice shutdown and idle expiry.
    pub read_tick: Duration,
    /// Per-frame payload cap enforced by the decoder.
    pub max_payload: u32,
    /// Backoff hint attached to [`WireError::Overloaded`] rejects.
    pub retry_after_ms: u32,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            service: ServerConfig::default(),
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            read_tick: Duration::from_millis(20),
            max_payload: crate::codec::DEFAULT_MAX_PAYLOAD,
            retry_after_ms: 10,
        }
    }
}

decomp::counters! {
    /// Wire-level counters (the service keeps its own [`ServiceStats`]).
    pub struct WireStats {}

    /// The live counters the acceptor and the handlers bump.
    atomic Counters {
        /// Connections accepted and handed to a handler.
        connections_accepted: u64 = sum,
        /// Connections refused at the live-connection cap.
        connections_refused: u64 = sum,
        /// Connections torn down by a fatal framing error.
        connections_torn: u64 = sum,
        /// Connections reaped for idleness.
        idle_reaped: u64 = sum,
        /// Recoverable malformed frames rejected (connection survived).
        frames_rejected: u64 = sum,
        /// Requests answered with a [`Message::Reply`].
        replies_sent: u64 = sum,
        /// Replies carrying a portfolio-race verdict ([`WireOutcome::Raced`]);
        /// a subset of `replies_sent`. Per-engine win counts live in the
        /// service's [`ServiceStats::races_won_by`].
        race_replies_sent: u64 = sum,
        /// Requests answered with a [`Message::Reject`].
        rejects_sent: u64 = sum,
    }
}

/// Final accounting returned by [`WireServer::shutdown`] / [`drain`](WireServer::drain).
#[derive(Clone, Debug)]
pub struct WireReport {
    /// The backing service's counters (admission invariants included).
    pub service: ServiceStats,
    /// The frontend's counters.
    pub wire: WireStats,
}

struct Shared {
    svc: Server,
    stopping: AtomicBool,
    draining: AtomicBool,
    live: AtomicU64,
    idle_timeout: Duration,
    read_tick: Duration,
    max_payload: u32,
    max_connections: usize,
    retry_after_ms: u32,
    counters: Counters,
}

/// The TCP frontend. See the [module docs](self) for the guarantees.
pub struct WireServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// service plus the accept loop.
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: WireConfig) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            svc: Server::start(cfg.service),
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live: AtomicU64::new(0),
            idle_timeout: cfg.idle_timeout,
            read_tick: cfg.read_tick,
            max_payload: cfg.max_payload,
            max_connections: cfg.max_connections,
            retry_after_ms: cfg.retry_after_ms,
            counters: Counters::default(),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("wire-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handlers))
                .expect("spawn accept thread")
        };
        Ok(WireServer {
            shared,
            addr,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (resolved, so tests can connect to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live wire-level counters.
    pub fn wire_stats(&self) -> WireStats {
        self.shared.counters.snapshot()
    }

    /// Live service counters.
    pub fn service_stats(&self) -> ServiceStats {
        self.shared.svc.stats()
    }

    /// Stops accepting, cancels in-flight work, answers attached
    /// clients ([`Outcome::Cancelled`]/[`Outcome::TimedOut`] replies and
    /// a goodbye), joins every thread.
    pub fn shutdown(mut self) -> WireReport {
        self.halt(true)
    }

    /// Stops accepting and lets in-flight and queued work finish;
    /// attached clients get their replies, then a goodbye.
    pub fn drain(mut self) -> WireReport {
        self.halt(false)
    }

    fn halt(&mut self, cancel: bool) -> WireReport {
        self.shared.draining.store(true, Ordering::Release);
        if cancel {
            // Cancel first so handlers blocked in `ticket.wait()` come
            // back promptly with a terminal outcome.
            self.shared.svc.begin_shutdown();
        } else {
            self.shared.svc.begin_drain();
        }
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            wake_acceptor(self.addr, &h);
            let _ = h.join();
        }
        let drained: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handlers.lock().expect("handler registry"));
        for h in drained {
            let _ = h.join();
        }
        let service = self.shared.svc.halt(cancel);
        WireReport {
            service,
            wire: self.shared.counters.snapshot(),
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            let _ = self.halt(true);
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            // Whatever arrives once stopping is set (the halt's
            // wake-up connection included) is dropped unserved.
            Ok(_) if shared.stopping.load(Ordering::Acquire) => return,
            Ok((stream, _peer)) => {
                if net::accept_fault(&stream, "wire/accept") {
                    continue;
                }
                if shared.live.load(Ordering::Acquire) >= shared.max_connections as u64 {
                    shared
                        .counters
                        .connections_refused
                        .fetch_add(1, Ordering::Relaxed);
                    refuse(stream, shared);
                    continue;
                }
                shared.live.fetch_add(1, Ordering::AcqRel);
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let sh = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("wire-conn".into())
                    .spawn(move || {
                        handle_connection(&sh, stream);
                        sh.live.fetch_sub(1, Ordering::AcqRel);
                    })
                    .expect("spawn connection handler");
                let mut reg = handlers.lock().expect("handler registry");
                // Opportunistically reap finished handlers so the
                // registry stays proportional to live connections.
                let mut kept = Vec::with_capacity(reg.len() + 1);
                for h in reg.drain(..) {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        kept.push(h);
                    }
                }
                kept.push(handle);
                *reg = kept;
            }
            Err(_) if shared.stopping.load(Ordering::Acquire) => return,
            // Back off so a persistent error (EMFILE, say) cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Unblocks an acceptor parked in `accept` once `stopping` is set, by
/// connecting to its own address (loopback for an unspecified bind).
/// One connection in the backlog is enough; a failed connect is retried
/// until the acceptor has exited, so `halt` never joins a thread that
/// cannot wake.
fn wake_acceptor(addr: SocketAddr, acceptor: &JoinHandle<()>) {
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    while !acceptor.is_finished() {
        if TcpStream::connect_timeout(&wake, Duration::from_millis(100)).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Over-capacity farewell: a typed overload reject, then close.
fn refuse(mut stream: TcpStream, shared: &Shared) {
    let msg = Message::Reject {
        id: NO_REQUEST,
        error: WireError::Overloaded {
            queue_depth: shared.max_connections as u32,
            retry_after_ms: shared.retry_after_ms,
        },
    };
    let _ = net::write_frame(&mut stream, &msg.encode_frame(), "wire/server/write");
}

fn send(stream: &mut TcpStream, msg: &Message) -> io::Result<()> {
    net::write_frame(stream, &msg.encode_frame(), "wire/server/write")
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.read_tick));
    let mut decoder = FrameDecoder::new(shared.max_payload);
    let mut buf = [0u8; 8192];
    let mut last_activity = Instant::now();
    let mut version: Option<u8> = None;

    loop {
        if shared.stopping.load(Ordering::Acquire) {
            let _ = send(
                &mut stream,
                &Message::Goodbye {
                    reason: GoodbyeReason::ShuttingDown,
                },
            );
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                last_activity = Instant::now();
                decoder.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= shared.idle_timeout {
                    shared.counters.idle_reaped.fetch_add(1, Ordering::Relaxed);
                    let _ = send(
                        &mut stream,
                        &Message::Goodbye {
                            reason: GoodbyeReason::Idle,
                        },
                    );
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => match Message::decode_payload(frame.kind, &frame.payload) {
                    Ok(msg) => {
                        if !dispatch(shared, &mut stream, &mut version, msg) {
                            return;
                        }
                    }
                    Err(e) => {
                        // The frame itself was sound, so the stream is
                        // still in sync: reject just this message.
                        shared
                            .counters
                            .frames_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        let reject = Message::Reject {
                            id: NO_REQUEST,
                            error: WireError::Malformed {
                                detail: e.to_string(),
                            },
                        };
                        if send(&mut stream, &reject).is_err() {
                            return;
                        }
                    }
                },
                Err(e) if !e.is_fatal() => {
                    shared
                        .counters
                        .frames_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    let reject = Message::Reject {
                        id: NO_REQUEST,
                        error: WireError::Malformed {
                            detail: e.to_string(),
                        },
                    };
                    if send(&mut stream, &reject).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    // Desync or oversize: this connection is done, but
                    // only this connection. Best-effort typed farewell.
                    shared
                        .counters
                        .connections_torn
                        .fetch_add(1, Ordering::Relaxed);
                    let error = match e {
                        FrameError::TooLarge { declared, cap } => {
                            WireError::TooLarge { declared, cap }
                        }
                        other => WireError::Malformed {
                            detail: other.to_string(),
                        },
                    };
                    let _ = send(
                        &mut stream,
                        &Message::Reject {
                            id: NO_REQUEST,
                            error,
                        },
                    );
                    return;
                }
            }
        }
    }
}

/// Handles one decoded message. Returns `false` when the connection
/// should close.
fn dispatch(
    shared: &Shared,
    stream: &mut TcpStream,
    version: &mut Option<u8>,
    msg: Message,
) -> bool {
    match msg {
        Message::Hello {
            min_version,
            max_version,
        } => {
            let lo = min_version.max(MIN_VERSION);
            let hi = max_version.min(MAX_VERSION);
            if lo <= hi {
                *version = Some(hi);
                send(stream, &Message::HelloAck { version: hi }).is_ok()
            } else {
                let _ = send(
                    stream,
                    &Message::Reject {
                        id: NO_REQUEST,
                        error: WireError::Unsupported {
                            server_min: MIN_VERSION,
                            server_max: MAX_VERSION,
                        },
                    },
                );
                false
            }
        }
        Message::Submit {
            id,
            job,
            deadline_ms,
            idempotent: _,
            edges,
        } => {
            let reply = serve_submit(shared, *version, id, job, deadline_ms, &edges);
            match &reply {
                Message::Reply { outcome, .. } => {
                    shared.counters.replies_sent.fetch_add(1, Ordering::Relaxed);
                    if matches!(outcome, WireOutcome::Raced { .. }) {
                        shared
                            .counters
                            .race_replies_sent
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    shared.counters.rejects_sent.fetch_add(1, Ordering::Relaxed);
                }
            };
            send(stream, &reply).is_ok()
        }
        Message::Goodbye { .. } => false,
        // A server-role frame arriving at the server is nonsense, but
        // it was well-framed: reject it and keep the connection.
        Message::HelloAck { .. } | Message::Reply { .. } | Message::Reject { .. } => {
            shared
                .counters
                .frames_rejected
                .fetch_add(1, Ordering::Relaxed);
            send(
                stream,
                &Message::Reject {
                    id: NO_REQUEST,
                    error: WireError::Malformed {
                        detail: "unexpected client frame kind".into(),
                    },
                },
            )
            .is_ok()
        }
    }
}

/// Admission + execution for one `Submit`; always returns the message
/// to write back.
fn serve_submit(
    shared: &Shared,
    version: Option<u8>,
    id: u64,
    job: WireJob,
    deadline_ms: Option<u64>,
    edges: &[Vec<u32>],
) -> Message {
    let Some(version) = version else {
        return Message::Reject {
            id,
            error: WireError::Malformed {
                detail: "submit before hello".into(),
            },
        };
    };
    // Race submits decode on any session (decoding is version-blind)
    // but only *run* on sessions that negotiated v2: a v1 peer that
    // sends one is confused, and the reject's version range tells it
    // the fix is renegotiation, not a different request.
    if matches!(job, WireJob::Race { .. }) && version < RACE_VERSION {
        return Message::Reject {
            id,
            error: WireError::Unsupported {
                server_min: MIN_VERSION,
                server_max: MAX_VERSION,
            },
        };
    }
    if shared.draining.load(Ordering::Acquire) {
        return Message::Reject {
            id,
            error: WireError::ShuttingDown,
        };
    }
    if edges.len() as u64 > MAX_EDGES as u64 {
        return Message::Reject {
            id,
            error: WireError::Malformed {
                detail: format!("{} edges exceeds cap {MAX_EDGES}", edges.len()),
            },
        };
    }
    for e in edges {
        if let Some(&v) = e.iter().max() {
            if v > MAX_VERTEX_ID {
                return Message::Reject {
                    id,
                    error: WireError::Malformed {
                        detail: format!("vertex id {v} exceeds cap {MAX_VERTEX_ID}"),
                    },
                };
            }
        }
    }
    let hg = Arc::new(Hypergraph::from_edge_lists(edges));
    let mut req = Request {
        hg,
        job: match job {
            WireJob::Decide { k } => Job::Decide { k: k as usize },
            WireJob::MinimalWidth { k_max } => Job::MinimalWidth {
                k_max: k_max as usize,
            },
            WireJob::Race { k } => Job::Race { k: k as usize },
        },
        deadline: None,
    };
    if let Some(ms) = deadline_ms {
        req = req.with_deadline(Duration::from_millis(ms));
    }
    match shared.svc.submit(req) {
        Ok(ticket) => {
            let resp = ticket.wait();
            Message::Reply {
                id,
                outcome: wire_outcome(resp.outcome),
                queue_wait_ns: resp.queue_wait.as_nanos() as u64,
                solve_ns: resp.solve_time.as_nanos() as u64,
                retries: resp.retries,
            }
        }
        Err(rej) => Message::Reject {
            id,
            error: match rej {
                Rejected::Overloaded { queue_depth } => WireError::Overloaded {
                    queue_depth: queue_depth as u32,
                    retry_after_ms: shared.retry_after_ms,
                },
                Rejected::Expired { remaining } => WireError::Expired {
                    remaining_us: remaining.as_micros() as u64,
                },
                Rejected::ShuttingDown => WireError::ShuttingDown,
            },
        },
    }
}

fn wire_outcome(outcome: Outcome) -> WireOutcome {
    match outcome {
        Outcome::Decided { k, witness } => WireOutcome::Decided {
            k: k as u32,
            witness: witness.as_ref().map(WireDecomp::from_decomposition),
        },
        Outcome::Width(b) => WireOutcome::Width {
            proven_lower: b.proven_lower as u32,
            best_upper: b.best_upper.map(|u| u as u32),
            witness: b.witness.as_ref().map(WireDecomp::from_decomposition),
            interrupted: b.interrupted.map(|i| match i {
                Interrupted::Timeout => WireInterrupt::Timeout,
                Interrupted::Cancelled => WireInterrupt::Cancelled,
            }),
        },
        Outcome::TimedOut => WireOutcome::TimedOut,
        Outcome::Cancelled => WireOutcome::Cancelled,
        Outcome::Panicked { message } => WireOutcome::Panicked { message },
        Outcome::Raced { k, winner, witness } => WireOutcome::Raced {
            k: k as u32,
            winner: winner.index() as u8,
            witness: witness.as_ref().map(WireDecomp::from_decomposition),
        },
    }
}
