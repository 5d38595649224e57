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
//!   `== false`) stop immediately.
//! * **Idempotency honesty.** If a connection dies *after* the submit
//!   frame was (possibly partially) written and the job was marked
//!   non-idempotent, the client refuses to blind-retry and returns
//!   [`ClientError::Ambiguous`] — the server may or may not have run
//!   it. Idempotent jobs (all decomposition queries are) retry freely.
//! * **Hedged resubmission.** With [`ClientConfig::hedge_after`] set,
//!   an idempotent request that hasn't answered within the hedge delay
//!   is raced by a second, independent attempt; first verdict wins.
//!   Non-idempotent jobs are never hedged. (Duplicated work is cheap
//!   server-side: the service canonicalises content-equal instances,
//!   so the loser mostly hits warm tables.)
//! * **Session reuse.** A client keeps a pool of idle negotiated
//!   sessions (a connection plus its protocol version), so steady
//!   traffic pays one connect and one `Hello` per session, not per
//!   request. After an idempotent exchange the session goes back to the
//!   pool only if it is in sync: the answer was a `Reply` or a `Reject`
//!   carrying the request's id, and no bytes beyond it are buffered. A
//!   `NO_REQUEST` reject, a `Goodbye`, a transport error or a protocol
//!   error closes it. Before reuse a non-blocking peek drops a session
//!   the peer has closed or written to (an idle `Goodbye`, say). If a
//!   pooled session still fails in transport, the same attempt retries
//!   once on a fresh session without backoff. Non-idempotent jobs
//!   always run on a fresh session that is closed afterwards, so a
//!   stale session can never turn them [`ClientError::Ambiguous`].

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::codec::FrameDecoder;
use crate::net;
use crate::proto::{
    Message, WireError, WireJob, WireOutcome, MAX_VERSION, MIN_VERSION, RACE_VERSION,
};

/// Configuration for [`WireClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout per new session.
    pub connect_timeout: Duration,
    /// Read poll granularity while waiting for frames.
    pub read_tick: Duration,
    /// Per-attempt cap on waiting for the verdict once submitted.
    /// `None` trusts the server's deadline handling (recommended when
    /// requests carry deadlines).
    pub reply_timeout: Option<Duration>,
    /// Total attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Base of the exponential backoff.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Hedge delay: race a second attempt for idempotent requests that
    /// haven't answered within this long. `None` disables hedging.
    pub hedge_after: Option<Duration>,
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
            reply_timeout: None,
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            hedge_after: None,
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
    /// Whether blind retry/hedging is safe. Decomposition queries are
    /// pure, so this defaults to `true`; flip it to model effectful
    /// requests and exercise the ambiguity path.
    pub idempotent: bool,
}

impl JobSpec {
    /// A `hw(H) ≤ k` decision for the instance given as edge lists.
    pub fn decide(edges: Vec<Vec<u32>>, k: u32) -> Self {
        JobSpec {
            job: WireJob::Decide { k },
            edges,
            deadline: None,
            idempotent: true,
        }
    }

    /// A minimal-width sweep up to `k_max`.
    pub fn minimal_width(edges: Vec<Vec<u32>>, k_max: u32) -> Self {
        JobSpec {
            job: WireJob::MinimalWidth { k_max },
            edges,
            deadline: None,
            idempotent: true,
        }
    }

    /// A portfolio-race decision of `hw(H) ≤ k` (needs a v2 server;
    /// against a v1 server the request fails with a terminal
    /// [`WireError::Unsupported`] rejection instead of being sent).
    /// Races are pure decisions, so blind retry and hedging are safe.
    pub fn race(edges: Vec<Vec<u32>>, k: u32) -> Self {
        JobSpec {
            job: WireJob::Race { k },
            edges,
            deadline: None,
            idempotent: true,
        }
    }

    /// Caps the request at `budget` from server admission.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Marks the job unsafe to blind-retry (see [`ClientError::Ambiguous`]).
    pub fn non_idempotent(mut self) -> Self {
        self.idempotent = false;
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
    /// pooled session replaced within an attempt does not count.
    pub attempts: u32,
    /// Whether the hedge (not the primary) produced this verdict.
    pub hedged: bool,
}

/// Why [`WireClient::request`] gave up.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Terminal rejection from the server.
    Rejected(WireError),
    /// The peer broke protocol (bad frame, wrong id, wrong kind).
    Protocol(String),
    /// A non-idempotent submit may or may not have executed; the
    /// client refuses to guess.
    Ambiguous {
        /// Attempts made before ambiguity stopped the retry loop.
        attempts: u32,
    },
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
            ClientError::Ambiguous { attempts } => write!(
                f,
                "non-idempotent request outcome unknown after {attempts} attempt(s)"
            ),
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
    /// Transport failed; `submitted` = the submit frame had (possibly
    /// partially) left the client.
    Io { submitted: bool, err: io::Error },
    /// Peer broke protocol — not retryable.
    Protocol(String),
}

/// What one successful exchange returns: verdict, queue wait, solve
/// time and server-side retries.
type Verdict = (WireOutcome, Duration, Duration, u32);

struct Inner {
    addr: SocketAddr,
    cfg: ClientConfig,
    rng: Mutex<StdRng>,
    next_id: AtomicU64,
    /// Idle in-sync sessions, most recently parked last.
    idle: Mutex<Vec<Session>>,
}

/// The retrying client. Cheap to clone handles are not provided —
/// wrap in `Arc` to share, or create one per thread. Concurrent
/// requests each hold their own session, so the pool grows to the peak
/// number of requests in flight at once.
pub struct WireClient {
    inner: Arc<Inner>,
}

impl WireClient {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> WireClient {
        WireClient {
            inner: Arc::new(Inner {
                addr,
                cfg: ClientConfig {
                    max_attempts: cfg.max_attempts.max(1),
                    ..cfg
                },
                rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
                next_id: AtomicU64::new(1),
                idle: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Runs `spec` to a verdict, retrying and (if configured) hedging.
    pub fn request(&self, spec: JobSpec) -> Result<ClientReply, ClientError> {
        match self.inner.cfg.hedge_after {
            Some(delay) if spec.idempotent => self.request_hedged(spec, delay),
            _ => self.inner.retry_loop(&spec).map(|mut r| {
                r.hedged = false;
                r
            }),
        }
    }

    /// Races a second attempt after `delay`; first verdict wins. The
    /// loser keeps running detached (its reply is discarded). Hedging
    /// covers *slowness*; outright failures are the retry loop's job —
    /// a primary that fails before the hedge delay elapses just
    /// reports its error.
    fn request_hedged(&self, spec: JobSpec, delay: Duration) -> Result<ClientReply, ClientError> {
        let (tx, rx) = mpsc::channel::<(bool, Result<ClientReply, ClientError>)>();
        let spawn_racer = |hedged: bool| {
            let inner = Arc::clone(&self.inner);
            let spec = spec.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send((hedged, inner.retry_loop(&spec)));
            });
        };
        spawn_racer(false);
        let (first, racers) = match rx.recv_timeout(delay) {
            Ok(res) => (res, 1),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                spawn_racer(true);
                let res = rx.recv().expect("a racer always reports");
                (res, 2)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("tx is still held by this frame")
            }
        };
        match first {
            (who, Ok(mut reply)) => {
                reply.hedged = who;
                Ok(reply)
            }
            (_, Err(first_err)) if racers == 2 => {
                // First finisher failed but a second racer is live: its
                // verdict decides.
                match rx.recv().expect("second racer always reports") {
                    (who, Ok(mut reply)) => {
                        reply.hedged = who;
                        Ok(reply)
                    }
                    (_, Err(_)) => Err(first_err),
                }
            }
            (_, Err(first_err)) => Err(first_err),
        }
    }
}

impl Inner {
    fn retry_loop(&self, spec: &JobSpec) -> Result<ClientReply, ClientError> {
        let mut last = String::from("no attempt made");
        let mut attempt = 0u32;
        while attempt < self.cfg.max_attempts {
            attempt += 1;
            match self.attempt(spec) {
                Ok((outcome, queue_wait, solve_time, server_retries)) => {
                    return Ok(ClientReply {
                        outcome,
                        queue_wait,
                        solve_time,
                        server_retries,
                        attempts: attempt,
                        hedged: false,
                    })
                }
                Err(AttemptError::Reject(e)) if e.is_backpressure() => {
                    let hint = match &e {
                        WireError::Overloaded { retry_after_ms, .. } => {
                            Duration::from_millis(*retry_after_ms as u64)
                        }
                        _ => Duration::ZERO,
                    };
                    last = format!("backpressure: {e}");
                    if attempt < self.cfg.max_attempts {
                        std::thread::sleep(self.backoff(attempt, hint));
                    }
                }
                Err(AttemptError::Reject(e)) => return Err(ClientError::Rejected(e)),
                Err(AttemptError::Io { submitted, err }) => {
                    if submitted && !spec.idempotent {
                        return Err(ClientError::Ambiguous { attempts: attempt });
                    }
                    last = format!("transport: {err}");
                    if attempt < self.cfg.max_attempts {
                        std::thread::sleep(self.backoff(attempt, Duration::ZERO));
                    }
                }
                Err(AttemptError::Protocol(s)) => return Err(ClientError::Protocol(s)),
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

    /// One submit → reply exchange, on an idle pooled session when the
    /// job is idempotent and one is left, else on a fresh session.
    fn attempt(&self, spec: &JobSpec) -> Result<Verdict, AttemptError> {
        if spec.idempotent {
            if let Some(session) = self.take_idle() {
                match self.exchange(session, spec) {
                    // The peer dropped the session after the staleness
                    // peek: a fresh session takes over, no backoff. A
                    // reply timeout is not staleness and is not retried.
                    Err(AttemptError::Io { err, .. }) if err.kind() != io::ErrorKind::TimedOut => {}
                    done => return done,
                }
            }
        }
        let session = self.open()?;
        self.exchange(session, spec)
    }

    /// Pops the most recently parked idle session that the peer has
    /// left quiet, dropping stale ones on the way.
    fn take_idle(&self) -> Option<Session> {
        loop {
            let session = self.idle.lock().expect("session pool").pop()?;
            if session.conn.is_quiet() {
                return Some(session);
            }
        }
    }

    /// Returns an in-sync session to the pool; sessions of
    /// non-idempotent jobs are closed instead (they never take one).
    fn park(&self, session: Session, spec: &JobSpec) {
        if spec.idempotent {
            self.idle.lock().expect("session pool").push(session);
        }
    }

    /// Connect → hello: a fresh negotiated session.
    fn open(&self) -> Result<Session, AttemptError> {
        let io_err = |err: io::Error| AttemptError::Io {
            submitted: false,
            err,
        };
        let stream =
            TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(self.cfg.read_tick))
            .map_err(io_err)?;
        let mut conn = Conn {
            stream,
            decoder: FrameDecoder::new(self.cfg.max_payload),
        };
        let hello = Message::Hello {
            min_version: MIN_VERSION,
            max_version: MAX_VERSION,
        };
        conn.write(&hello).map_err(io_err)?;
        match conn.read_message(None).map_err(io_err)? {
            Message::HelloAck { version } if (MIN_VERSION..=MAX_VERSION).contains(&version) => {
                Ok(Session { conn, version })
            }
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

    /// Submit → reply on `session`, which is parked again if it ends
    /// in sync and closed otherwise.
    fn exchange(&self, mut session: Session, spec: &JobSpec) -> Result<Verdict, AttemptError> {
        // Never send a job the negotiated session can't carry: a v1
        // server would reject a Race submit anyway, so fail it here as
        // the same terminal rejection.
        if matches!(spec.job, WireJob::Race { .. }) && session.version < RACE_VERSION {
            let version = session.version;
            self.park(session, spec);
            return Err(AttemptError::Reject(WireError::Unsupported {
                server_min: version,
                server_max: version,
            }));
        }

        // Submit. From the first byte written, the server may have the
        // request: any later transport failure is ambiguous.
        let io_err = |err: io::Error| AttemptError::Io {
            submitted: true,
            err,
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let submit = Message::Submit {
            id,
            job: spec.job,
            deadline_ms: spec.deadline.map(|d| d.as_millis().max(1) as u64),
            idempotent: spec.idempotent,
            edges: spec.edges.clone(),
        };
        session.conn.write(&submit).map_err(io_err)?;
        let answer = session
            .conn
            .read_message(self.cfg.reply_timeout)
            .map_err(io_err)?;

        // Only an answer to this very request, with nothing buffered
        // past it, leaves the session in sync for the next one.
        let in_sync = session.conn.decoder.pending() == 0
            && matches!(
                &answer,
                Message::Reply { id: rid, .. } | Message::Reject { id: rid, .. } if *rid == id
            );
        if in_sync {
            self.park(session, spec);
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
                if rid != id && rid != crate::proto::NO_REQUEST {
                    return Err(AttemptError::Protocol(format!(
                        "reject for id {rid}, expected {id}"
                    )));
                }
                Err(AttemptError::Reject(error))
            }
            // The server is closing without answering; whether the job
            // ran is unknown → transport-class failure.
            Message::Goodbye { .. } => Err(io_err(io::Error::new(
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

/// A negotiated session: a live connection and the protocol version
/// its `Hello` settled on.
struct Session {
    conn: Conn,
    version: u8,
}

/// One live connection: a stream plus its frame decoder.
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
    /// `cap` bounds the total wait when `Some`.
    fn read_message(&mut self, cap: Option<Duration>) -> io::Result<Message> {
        let start = Instant::now();
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
            if let Some(cap) = cap {
                if start.elapsed() >= cap {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no reply within the per-attempt cap",
                    ));
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
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Tick elapsed; loop re-checks the cap.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
