//! The retrying wire client.
//!
//! [`WireClient::request`] runs one job to a verdict across connection
//! failures and server backpressure:
//!
//! * **Jittered exponential backoff.** Retryable failures wait
//!   `random(0 ..= base·2^attempt)` (full jitter, capped), never less
//!   than the server's `retry_after_ms` hint when one came with an
//!   [`WireError::Overloaded`] reject.
//! * **Bounded retries.** At most [`ClientConfig::max_attempts`]
//!   attempts; terminal rejections ([`WireError::is_backpressure`]
//!   `== false`) stop immediately. Every job is a pure decomposition
//!   query, so a transport failure after the submit left the client is
//!   retried like any other: the server at worst runs the job twice.
//! * **Session reuse.** A client keeps a pool of idle negotiated
//!   connections, so steady traffic pays one connect and one `Hello`
//!   per connection, not per request. After an exchange the connection
//!   goes back to the pool only if it is in sync: the answer was a
//!   `Reply` or a `Reject` carrying the request's id, and no bytes
//!   beyond it are buffered. A `NO_REQUEST` reject, a `Goodbye`, a
//!   transport error or a protocol error closes it. Before reuse a
//!   non-blocking peek drops a connection the peer has closed or
//!   written to (an idle `Goodbye`, say). If a pooled connection still
//!   fails in transport, the same attempt retries once on a fresh
//!   connection without backoff.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::codec::FrameDecoder;
use crate::net;
use crate::proto::{Message, WireError, WireJob, WireOutcome, NO_REQUEST, VERSION};

/// Configuration for [`WireClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout per new connection.
    pub connect_timeout: Duration,
    /// Read poll granularity while waiting for frames.
    pub read_tick: Duration,
    /// Total attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Base of the exponential backoff.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Decoder payload cap (must be ≥ the server's replies).
    pub max_payload: u32,
    /// Seed for backoff jitter (deterministic per client).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_tick: Duration::from_millis(10),
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            max_payload: crate::codec::DEFAULT_MAX_PAYLOAD,
            seed: 0x5eed_cafe,
        }
    }
}

/// One job to run over the wire.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to compute.
    pub job: WireJob,
    /// The instance as vertex-index edge lists.
    pub edges: Vec<Vec<u32>>,
    /// Deadline budget, measured from server admission.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    fn new(job: WireJob, edges: Vec<Vec<u32>>) -> Self {
        JobSpec {
            job,
            edges,
            deadline: None,
        }
    }

    /// A `hw(H) ≤ k` decision for the instance given as edge lists.
    pub fn decide(edges: Vec<Vec<u32>>, k: u32) -> Self {
        Self::new(WireJob::Decide { k }, edges)
    }

    /// A minimal-width sweep up to `k_max`.
    pub fn minimal_width(edges: Vec<Vec<u32>>, k_max: u32) -> Self {
        Self::new(WireJob::MinimalWidth { k_max }, edges)
    }

    /// A portfolio-race decision of `hw(H) ≤ k`.
    pub fn race(edges: Vec<Vec<u32>>, k: u32) -> Self {
        Self::new(WireJob::Race { k }, edges)
    }

    /// Caps the request at `budget` from server admission.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// A verdict, with both server- and client-side accounting.
#[derive(Clone, Debug)]
pub struct ClientReply {
    /// The verdict.
    pub outcome: WireOutcome,
    /// Server-side queue wait.
    pub queue_wait: Duration,
    /// Server-side solve time.
    pub solve_time: Duration,
    /// Contained-panic re-executions the server consumed.
    pub server_retries: u32,
    /// Submit attempts this client made (1 = first try won). A stale
    /// pooled connection replaced within an attempt does not count.
    pub attempts: u32,
}

/// Why [`WireClient::request`] gave up.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Terminal rejection from the server.
    Rejected(WireError),
    /// The peer broke protocol (bad frame, wrong id, wrong kind).
    Protocol(String),
    /// All attempts failed with retryable errors.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// Description of the final failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected(e) => write!(f, "rejected: {e}"),
            ClientError::Protocol(s) => write!(f, "protocol violation: {s}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// What one attempt produced (internal).
enum AttemptError {
    /// Server said no, typed.
    Reject(WireError),
    /// Transport failed.
    Io(io::Error),
    /// Peer broke protocol — not retryable.
    Protocol(String),
}

/// What one successful exchange returns: verdict, queue wait, solve
/// time and server-side retries.
type Verdict = (WireOutcome, Duration, Duration, u32);

/// The retrying client. Share one across threads by reference or in an
/// `Arc`. Concurrent requests each hold their own connection, so the
/// pool grows to the peak number of requests in flight at once.
pub struct WireClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    rng: Mutex<StdRng>,
    next_id: AtomicU64,
    /// Idle in-sync connections, most recently parked last.
    idle: Mutex<Vec<Conn>>,
}

impl WireClient {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> WireClient {
        WireClient {
            addr,
            rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            cfg: ClientConfig {
                max_attempts: cfg.max_attempts.max(1),
                ..cfg
            },
            next_id: AtomicU64::new(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Runs `spec` to a verdict, retrying retryable failures.
    pub fn request(&self, spec: JobSpec) -> Result<ClientReply, ClientError> {
        let mut last = String::from("no attempt made");
        let mut attempt = 0u32;
        while attempt < self.cfg.max_attempts {
            attempt += 1;
            let hint = match self.attempt(&spec) {
                Ok((outcome, queue_wait, solve_time, server_retries)) => {
                    return Ok(ClientReply {
                        outcome,
                        queue_wait,
                        solve_time,
                        server_retries,
                        attempts: attempt,
                    })
                }
                Err(AttemptError::Reject(e)) if e.is_backpressure() => {
                    last = format!("backpressure: {e}");
                    match e {
                        WireError::Overloaded { retry_after_ms, .. } => {
                            Duration::from_millis(retry_after_ms as u64)
                        }
                        _ => Duration::ZERO,
                    }
                }
                Err(AttemptError::Reject(e)) => return Err(ClientError::Rejected(e)),
                Err(AttemptError::Io(err)) => {
                    last = format!("transport: {err}");
                    Duration::ZERO
                }
                Err(AttemptError::Protocol(s)) => return Err(ClientError::Protocol(s)),
            };
            if attempt < self.cfg.max_attempts {
                std::thread::sleep(self.backoff(attempt, hint));
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: attempt,
            last,
        })
    }

    /// Full-jitter exponential backoff, floored at the server's hint.
    fn backoff(&self, attempt: u32, hint: Duration) -> Duration {
        let exp = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cfg.max_backoff);
        let jittered = {
            let mut rng = self.rng.lock().expect("rng");
            Duration::from_nanos(rng.random_range(0..=exp.as_nanos() as u64))
        };
        jittered.max(hint)
    }

    /// One submit → reply exchange, on an idle pooled connection when
    /// one is left, else on a fresh connection.
    fn attempt(&self, spec: &JobSpec) -> Result<Verdict, AttemptError> {
        if let Some(conn) = self.take_idle() {
            match self.exchange(conn, spec) {
                // The peer dropped the connection after the staleness
                // peek: a fresh connection takes over, no backoff.
                Err(AttemptError::Io(_)) => {}
                done => return done,
            }
        }
        let conn = self.open()?;
        self.exchange(conn, spec)
    }

    /// Pops the most recently parked idle connection that the peer has
    /// left quiet, dropping stale ones on the way.
    fn take_idle(&self) -> Option<Conn> {
        loop {
            let conn = self.idle.lock().expect("connection pool").pop()?;
            if conn.is_quiet() {
                return Some(conn);
            }
        }
    }

    /// Connect → hello: a fresh negotiated connection.
    fn open(&self) -> Result<Conn, AttemptError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
            .map_err(AttemptError::Io)?;
        stream.set_nodelay(true).map_err(AttemptError::Io)?;
        stream
            .set_read_timeout(Some(self.cfg.read_tick))
            .map_err(AttemptError::Io)?;
        let mut conn = Conn {
            stream,
            decoder: FrameDecoder::new(self.cfg.max_payload),
        };
        let hello = Message::Hello {
            min_version: VERSION,
            max_version: VERSION,
        };
        conn.write(&hello).map_err(AttemptError::Io)?;
        match conn.read_message().map_err(AttemptError::Io)? {
            Message::HelloAck { version: VERSION } => Ok(conn),
            Message::HelloAck { version } => Err(AttemptError::Protocol(format!(
                "server acked unoffered version {version}"
            ))),
            Message::Reject { error, .. } => Err(AttemptError::Reject(error)),
            other => Err(AttemptError::Protocol(format!(
                "expected HelloAck, got {:?}",
                other.kind()
            ))),
        }
    }

    /// Submit → reply on `conn`, which is parked again if it ends in
    /// sync and closed otherwise.
    fn exchange(&self, mut conn: Conn, spec: &JobSpec) -> Result<Verdict, AttemptError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let submit = Message::Submit {
            id,
            job: spec.job,
            deadline_ms: spec.deadline.map(|d| d.as_millis().max(1) as u64),
            idempotent: true,
            edges: spec.edges.clone(),
        };
        conn.write(&submit).map_err(AttemptError::Io)?;
        let answer = conn.read_message().map_err(AttemptError::Io)?;

        // Only an answer to this very request, with nothing buffered
        // past it, leaves the connection in sync for the next one.
        let in_sync = conn.decoder.pending() == 0
            && matches!(
                &answer,
                Message::Reply { id: rid, .. } | Message::Reject { id: rid, .. } if *rid == id
            );
        if in_sync {
            self.idle.lock().expect("connection pool").push(conn);
        }
        match answer {
            Message::Reply {
                id: rid,
                outcome,
                queue_wait_ns,
                solve_ns,
                retries,
            } => {
                if rid != id {
                    return Err(AttemptError::Protocol(format!(
                        "reply for id {rid}, expected {id}"
                    )));
                }
                Ok((
                    outcome,
                    Duration::from_nanos(queue_wait_ns),
                    Duration::from_nanos(solve_ns),
                    retries,
                ))
            }
            Message::Reject { id: rid, error } => {
                if rid != id && rid != NO_REQUEST {
                    return Err(AttemptError::Protocol(format!(
                        "reject for id {rid}, expected {id}"
                    )));
                }
                Err(AttemptError::Reject(error))
            }
            // The server is closing without answering: a transport-class
            // failure, retried like a dropped connection.
            Message::Goodbye { .. } => Err(AttemptError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server said goodbye before replying",
            ))),
            other => Err(AttemptError::Protocol(format!(
                "unexpected frame {:?} while awaiting reply",
                other.kind()
            ))),
        }
    }
}

/// One live negotiated connection: a stream plus its frame decoder.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Conn {
    /// Whether the peer has neither closed this idle connection nor
    /// sent anything on it since its last exchange.
    fn is_quiet(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let quiet = matches!(
            self.stream.peek(&mut [0u8; 1]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        );
        quiet && self.stream.set_nonblocking(false).is_ok()
    }

    fn write(&mut self, msg: &Message) -> io::Result<()> {
        net::write_frame(&mut self.stream, &msg.encode_frame(), "wire/client/write")
    }

    /// Blocks (in `read_tick` steps) until one whole message arrives.
    fn read_message(&mut self) -> io::Result<Message> {
        let mut buf = [0u8; 8192];
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    return Message::decode_payload(frame.kind, &frame.payload).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("undecodable frame from server: {e}"),
                        )
                    })
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad frame from server: {e}"),
                    ))
                }
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.decoder.pending() > 0 {
                            "connection closed mid-frame"
                        } else {
                            "connection closed"
                        },
                    ))
                }
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
