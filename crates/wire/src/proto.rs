//! Protocol specification and message codecs.
//!
//! # `htdwire` protocol, version 2
//!
//! A connection carries a bidirectional stream of *frames* over TCP.
//! All integers are **little-endian**; there is no padding.
//!
//! Version 2 ([`VERSION`]) is the only session version this build
//! speaks.
//!
//! ## Frame layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     4  magic, ASCII "HTDW"
//!      4     1  frame-layout version (1 for every session version)
//!      5     1  frame kind (table below)
//!      6     2  reserved, must be zero
//!      8     4  payload length N (u32; strict cap, default 16 MiB)
//!     12     4  CRC-32 (IEEE 802.3) of the payload bytes
//!     16     N  payload
//! ```
//!
//! Header byte 4 is the *layout* version ([`crate::codec::FRAME_VERSION`]),
//! not the negotiated session version: it only changes if the header
//! shape itself does, so peers of any session version stay
//! frame-synchronised and version mismatches surface as polite
//! message-level rejects instead of torn connections.
//!
//! | kind | name       | direction | payload |
//! |------|------------|-----------|---------|
//! | 1    | `Hello`    | C → S     | `min_version: u8, max_version: u8` |
//! | 2    | `HelloAck` | S → C     | `version: u8` |
//! | 3    | `Submit`   | C → S     | see *Submit payload* |
//! | 4    | `Reply`    | S → C     | see *Reply payload* |
//! | 5    | `Reject`   | S → C     | `id: u64, error` (see *Error codes*) |
//! | 6    | `Goodbye`  | S → C     | `reason: u8` (0 idle, 1 shutting down) |
//!
//! ## Version negotiation
//!
//! The client's first frame MUST be `Hello` carrying the inclusive
//! range of versions it speaks. The server answers `HelloAck` with
//! version 2 when the range contains it, or `Reject` with error code 6
//! (`Unsupported`, carrying the server's own range, `2..=2`) and
//! closes. A `Submit` before `Hello` is rejected as `Malformed`.
//!
//! ## Submit payload
//!
//! ```text
//! id: u64            client-chosen correlation id, echoed in the reply
//! flags: u8          bit 0: idempotent; other bits must be zero
//! job: u8            0 = Decide, 1 = MinimalWidth, 2 = Race
//! k: u32             width to decide / largest width to sweep
//! deadline_ms: u64   0 = no deadline, else budget from server receipt
//! num_edges: u32     hypergraph as plain vertex-index edge lists
//! repeat num_edges:  { arity: u32, vertices: u32 × arity }
//! ```
//!
//! Every job is a pure query, so the client always sets flags bit 0 and
//! the server ignores it.
//!
//! `Race` decides `hw(H) ≤ k` like `Decide`, but by racing `logk-seq`
//! against `detk` (the server's portfolio); the reply names the
//! winning engine.
//!
//! ## Reply payload
//!
//! ```text
//! id: u64            echoed correlation id
//! queue_wait_ns: u64 server-side queue wait
//! solve_ns: u64      server-side execution time (including retries)
//! retries: u32       contained-panic re-executions consumed
//! outcome: u8        0 Decided / 1 Width / 2 TimedOut / 3 Cancelled
//!                    / 4 Panicked / 5 Raced
//! Decided:  k: u32, has_witness: u8, [decomposition]
//! Width:    proven_lower: u32, has_upper: u8, [best_upper: u32],
//!           has_witness: u8, [decomposition],
//!           interrupted: u8 (0 none / 1 timeout / 2 cancelled)
//! Panicked: msg_len: u32, msg: utf-8 × msg_len
//! Raced:    k: u32, winner: u8, has_witness: u8, [decomposition]
//! ```
//!
//! `Raced.winner` is the portfolio engine index (`portfolio::EngineKind`
//! order: 0 logk-seq, 1 logk-par, 2 logk-hybrid, 3 detk, 4 ghd,
//! 5 htdsat). Servers may add engines over time, so clients MUST
//! tolerate winner values they do not recognise — the verdict
//! (`has_witness`) is authoritative regardless of who produced it.
//!
//! A decomposition is encoded as:
//!
//! ```text
//! num_nodes: u32, root: u32
//! repeat num_nodes: { lambda_len: u32, edge_ids: u32 × lambda_len,
//!                     chi_len: u32, vertex_ids: u32 × chi_len,
//!                     child_count: u32, child_ids: u32 × child_count }
//! ```
//!
//! ## Error codes (`Reject` payload)
//!
//! `id: u64` (the correlation id being rejected, or `u64::MAX` for a
//! connection-level rejection), `code: u8`, then per-code fields:
//!
//! | code | name           | fields | client action |
//! |------|----------------|--------|---------------|
//! | 0    | `Overloaded`   | `queue_depth: u32, retry_after_ms: u32` | back off ≥ hint, retry |
//! | 1    | `Expired`      | `remaining_us: u64` | give up (deadline spent) |
//! | 2    | `ShuttingDown` | —      | reconnect elsewhere / later |
//! | 3    | `Malformed`    | `detail_len: u32, detail: utf-8` | fix the frame; not retryable as-is |
//! | 4    | `TooLarge`     | `declared: u32, cap: u32` | shrink the instance |
//! | 6    | `Unsupported`  | `server_min: u8, server_max: u8` | renegotiate version |
//!
//! Code 5 is unassigned and decodes as an invalid code.
//!
//! `Overloaded` and `ShuttingDown` are *backpressure*: the request was
//! not (and will not be) executed, so retrying is always safe.
//! `Expired`, `Malformed`, `TooLarge` and `Unsupported` are terminal
//! for the request as submitted.
//!
//! ## Framing errors
//!
//! Torn, oversized or desynchronised frames follow the
//! fatal/recoverable split documented in [`crate::codec`]: recoverable
//! errors produce a `Reject(Malformed)` for that frame and the
//! connection continues; fatal errors produce a best-effort
//! `Reject(Malformed)`/`Reject(TooLarge)` and the connection closes.
//! A malformed frame never affects any other connection, and never
//! panics the server.

use decomp::{Decomposition, Interrupted};

use crate::codec::FrameKind;

/// The one session version this build speaks.
pub const VERSION: u8 = 2;

/// Correlation id used by connection-level [`WireError`]s that reject
/// no particular request.
pub const NO_REQUEST: u64 = u64::MAX;

/// What to compute, on the wire (mirrors `htdserve::Job`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireJob {
    /// Decide `hw(H) ≤ k`.
    Decide {
        /// Width bound to decide.
        k: u32,
    },
    /// Anytime minimal-width sweep up to `k_max`.
    MinimalWidth {
        /// Largest width the sweep tries.
        k_max: u32,
    },
    /// Decide `hw(H) ≤ k` by racing the server's algorithm portfolio.
    Race {
        /// Width bound to decide.
        k: u32,
    },
}

/// A decomposition in portable form: plain index arrays, convertible
/// to/from [`decomp::Decomposition`] losslessly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDecomp {
    /// Per node: (λ edge ids, χ vertex ids).
    pub labels: Vec<(Vec<u32>, Vec<u32>)>,
    /// Per node: child node ids.
    pub children: Vec<Vec<u32>>,
    /// Root node id.
    pub root: u32,
}

impl WireDecomp {
    /// Portable form of `d`.
    pub fn from_decomposition(d: &Decomposition) -> Self {
        let n = d.num_nodes();
        let mut labels = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n);
        for i in 0..n {
            let node = d.node(decomp::NodeId(i as u32));
            labels.push((
                node.lambda.iter().map(|e| e.0).collect(),
                node.chi.iter().map(|v| v.0).collect(),
            ));
            children.push(node.children.iter().map(|c| c.0).collect());
        }
        WireDecomp {
            labels,
            children,
            root: d.root().0,
        }
    }

    /// Rebuilds a [`Decomposition`] over `hg`'s universe. Fails (with a
    /// decode error, never a panic) when ids are out of range for the
    /// instance or the tree shape is inconsistent.
    pub fn into_decomposition(
        self,
        hg: &hypergraph::Hypergraph,
    ) -> Result<Decomposition, DecodeError> {
        let n = self.labels.len();
        if self.children.len() != n {
            return Err(DecodeError::invalid(
                "decomp/children",
                self.children.len() as u64,
            ));
        }
        if self.root as usize >= n {
            return Err(DecodeError::invalid("decomp/root", self.root as u64));
        }
        let ne = hg.num_edges() as u32;
        let nv = hg.num_vertices() as u32;
        let mut labels = Vec::with_capacity(n);
        for (lambda, chi) in &self.labels {
            for &e in lambda {
                if e >= ne {
                    return Err(DecodeError::invalid("decomp/edge", e as u64));
                }
            }
            for &v in chi {
                if v >= nv {
                    return Err(DecodeError::invalid("decomp/vertex", v as u64));
                }
            }
            let lam: Vec<hypergraph::Edge> = lambda.iter().map(|&e| hypergraph::Edge(e)).collect();
            let chi_set = hypergraph::VertexSet::from_iter(
                hg.num_vertices(),
                chi.iter().map(|&v| hypergraph::Vertex(v)),
            );
            labels.push((lam, chi_set));
        }
        for ch in &self.children {
            for &c in ch {
                if c as usize >= n {
                    return Err(DecodeError::invalid("decomp/child", c as u64));
                }
            }
        }
        // `from_parts` asserts tree-shape consistency (each node one
        // parent, root unmentioned); pre-validate so garbage input
        // yields a typed error instead of reaching those asserts.
        let mut seen_parent = vec![false; n];
        for ch in &self.children {
            for &c in ch {
                if seen_parent[c as usize] || c == self.root {
                    return Err(DecodeError::invalid("decomp/tree", c as u64));
                }
                seen_parent[c as usize] = true;
            }
        }
        for (i, &has) in seen_parent.iter().enumerate() {
            if !has && i as u32 != self.root {
                return Err(DecodeError::invalid("decomp/orphan", i as u64));
            }
        }
        Ok(Decomposition::from_parts(labels, self.children, self.root))
    }
}

/// Why a sweep stopped early, on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireInterrupt {
    /// Deadline expiry.
    Timeout,
    /// Cancellation (server shutdown or ancestor control).
    Cancelled,
}

impl From<Interrupted> for WireInterrupt {
    fn from(i: Interrupted) -> Self {
        match i {
            Interrupted::Timeout => WireInterrupt::Timeout,
            Interrupted::Cancelled => WireInterrupt::Cancelled,
        }
    }
}

/// Terminal verdict on the wire (mirrors `htdserve::Outcome`, with the
/// witness in portable form).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// Decision verdict; `witness` is `Some` iff `hw(H) ≤ k`.
    Decided {
        /// The width bound that was decided.
        k: u32,
        /// Witness decomposition, when one exists.
        witness: Option<WireDecomp>,
    },
    /// Minimal-width bounds (possibly partial under deadline pressure).
    Width {
        /// All widths `< proven_lower` were exhaustively refuted.
        proven_lower: u32,
        /// Smallest witnessed width, if any.
        best_upper: Option<u32>,
        /// The witness behind `best_upper`.
        witness: Option<WireDecomp>,
        /// Why the sweep ended early, if it did.
        interrupted: Option<WireInterrupt>,
    },
    /// Deadline expired before a verdict.
    TimedOut,
    /// Cancelled (server shutdown).
    Cancelled,
    /// Every attempt panicked; contained server-side.
    Panicked {
        /// Final attempt's panic message.
        message: String,
    },
    /// Portfolio-race decision verdict; `witness` is `Some` iff
    /// `hw(H) ≤ k`.
    Raced {
        /// The width bound that was decided.
        k: u32,
        /// Engine index of the race winner (see the module docs for
        /// the table). Clients must tolerate unknown values.
        winner: u8,
        /// Witness decomposition, when one exists.
        witness: Option<WireDecomp>,
    },
}

/// Typed rejection (see *Error codes* in the [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Admission queue full — back off at least the hint, then retry.
    Overloaded {
        /// Configured queue capacity that was exhausted.
        queue_depth: u32,
        /// Server's suggested minimum backoff.
        retry_after_ms: u32,
    },
    /// Deadline already (nearly) spent at admission; not retryable.
    Expired {
        /// Time that was left at admission.
        remaining_us: u64,
    },
    /// Server is draining/stopping; retry against another server.
    ShuttingDown,
    /// The frame or payload could not be decoded.
    Malformed {
        /// Human-readable diagnostic.
        detail: String,
    },
    /// A frame exceeded the size cap.
    TooLarge {
        /// Length the header declared.
        declared: u32,
        /// The enforced cap.
        cap: u32,
    },
    /// No protocol version in common.
    Unsupported {
        /// Lowest version the server speaks.
        server_min: u8,
        /// Highest version the server speaks.
        server_max: u8,
    },
}

impl WireError {
    /// Whether a client may retry the *same* request verbatim: true for
    /// pure backpressure (nothing was executed), false for terminal
    /// rejections.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, WireError::Overloaded { .. } | WireError::ShuttingDown)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "overloaded (queue {queue_depth} full; retry after {retry_after_ms} ms)"
            ),
            WireError::Expired { remaining_us } => {
                write!(f, "deadline leaves only {remaining_us} µs")
            }
            WireError::ShuttingDown => write!(f, "server shutting down"),
            WireError::Malformed { detail } => write!(f, "malformed: {detail}"),
            WireError::TooLarge { declared, cap } => {
                write!(f, "frame of {declared} B exceeds cap {cap} B")
            }
            WireError::Unsupported {
                server_min,
                server_max,
            } => write!(
                f,
                "no common version (server speaks {server_min}..={server_max})"
            ),
        }
    }
}

/// Why the server said [`Message::Goodbye`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoodbyeReason {
    /// The connection sat idle past the reaper's threshold.
    Idle,
    /// The server is draining or shutting down.
    ShuttingDown,
}

/// A fully decoded protocol message (one per frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client hello: inclusive version range offered.
    Hello {
        /// Lowest version the client speaks.
        min_version: u8,
        /// Highest version the client speaks.
        max_version: u8,
    },
    /// Server acceptance of `version`.
    HelloAck {
        /// The agreed version.
        version: u8,
    },
    /// Job submission.
    Submit {
        /// Client correlation id, echoed in the reply.
        id: u64,
        /// What to compute.
        job: WireJob,
        /// Deadline budget in ms from server receipt; `None` = none.
        deadline_ms: Option<u64>,
        /// Flags bit 0. Clients always set it; the server ignores it.
        idempotent: bool,
        /// The instance as vertex-index edge lists.
        edges: Vec<Vec<u32>>,
    },
    /// Terminal verdict for `id`.
    Reply {
        /// Echoed correlation id.
        id: u64,
        /// The verdict.
        outcome: WireOutcome,
        /// Server-side queue wait in nanoseconds.
        queue_wait_ns: u64,
        /// Server-side solve time in nanoseconds.
        solve_ns: u64,
        /// Contained-panic re-executions consumed.
        retries: u32,
    },
    /// Typed rejection of `id` (or of the connection, id = `u64::MAX`).
    Reject {
        /// Correlation id being rejected ([`NO_REQUEST`] if none).
        id: u64,
        /// Why.
        error: WireError,
    },
    /// Orderly farewell before the server closes the connection.
    Goodbye {
        /// Why the server is closing.
        reason: GoodbyeReason,
    },
}

/// Typed payload-decoding failure. Never a panic: every length is
/// bounds-checked against the remaining bytes before use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Which field failed.
    pub field: &'static str,
    /// The offending value (0 for plain truncation).
    pub value: u64,
    /// Whether the payload simply ended early.
    pub truncated: bool,
}

impl DecodeError {
    fn truncated(field: &'static str) -> Self {
        DecodeError {
            field,
            value: 0,
            truncated: true,
        }
    }

    fn invalid(field: &'static str, value: u64) -> Self {
        DecodeError {
            field,
            value,
            truncated: false,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.truncated {
            write!(f, "payload truncated at field `{}`", self.field)
        } else {
            write!(f, "invalid value {} for field `{}`", self.value, self.field)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian payload writer.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    fn ids(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::truncated(field));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `u32`-counted list of `u32` ids. The count is validated
    /// against the remaining bytes *before* any allocation, so a
    /// declared-huge list in a short payload cannot balloon memory.
    fn ids(&mut self, field: &'static str) -> Result<Vec<u32>, DecodeError> {
        let n = self.u32(field)? as usize;
        if (self.buf.len() - self.pos) / 4 < n {
            return Err(DecodeError::truncated(field));
        }
        (0..n).map(|_| self.u32(field)).collect()
    }

    fn utf8(&mut self, field: &'static str) -> Result<String, DecodeError> {
        let n = self.u32(field)? as usize;
        let bytes = self.take(n, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::invalid(field, n as u64))
    }

    fn finish(self, field: &'static str) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::invalid(
                field,
                (self.buf.len() - self.pos) as u64,
            ));
        }
        Ok(())
    }
}

fn encode_decomp(w: &mut Writer, d: &WireDecomp) {
    w.u32(d.labels.len() as u32);
    w.u32(d.root);
    for ((lambda, chi), children) in d.labels.iter().zip(&d.children) {
        w.ids(lambda);
        w.ids(chi);
        w.ids(children);
    }
}

fn decode_decomp(r: &mut Reader<'_>) -> Result<WireDecomp, DecodeError> {
    let n = r.u32("decomp/num_nodes")? as usize;
    let root = r.u32("decomp/root")?;
    // Each node needs ≥ 12 bytes (three empty lists): cheap plausibility
    // bound before allocating.
    if (r.buf.len() - r.pos) / 12 < n {
        return Err(DecodeError::truncated("decomp/num_nodes"));
    }
    let mut labels = Vec::with_capacity(n);
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        let lambda = r.ids("decomp/lambda")?;
        let chi = r.ids("decomp/chi")?;
        labels.push((lambda, chi));
        children.push(r.ids("decomp/children")?);
    }
    Ok(WireDecomp {
        labels,
        children,
        root,
    })
}

impl Message {
    /// The frame kind this message travels in.
    pub fn kind(&self) -> FrameKind {
        match self {
            Message::Hello { .. } => FrameKind::Hello,
            Message::HelloAck { .. } => FrameKind::HelloAck,
            Message::Submit { .. } => FrameKind::Submit,
            Message::Reply { .. } => FrameKind::Reply,
            Message::Reject { .. } => FrameKind::Reject,
            Message::Goodbye { .. } => FrameKind::Goodbye,
        }
    }

    /// Encodes the payload bytes (frame header excluded — see
    /// [`crate::codec::encode_frame`]).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Message::Hello {
                min_version,
                max_version,
            } => {
                w.u8(*min_version);
                w.u8(*max_version);
            }
            Message::HelloAck { version } => w.u8(*version),
            Message::Submit {
                id,
                job,
                deadline_ms,
                idempotent,
                edges,
            } => {
                w.u64(*id);
                w.u8(u8::from(*idempotent));
                match job {
                    WireJob::Decide { k } => {
                        w.u8(0);
                        w.u32(*k);
                    }
                    WireJob::MinimalWidth { k_max } => {
                        w.u8(1);
                        w.u32(*k_max);
                    }
                    WireJob::Race { k } => {
                        w.u8(2);
                        w.u32(*k);
                    }
                }
                w.u64(deadline_ms.unwrap_or(0));
                w.u32(edges.len() as u32);
                for e in edges {
                    w.ids(e);
                }
            }
            Message::Reply {
                id,
                outcome,
                queue_wait_ns,
                solve_ns,
                retries,
            } => {
                w.u64(*id);
                w.u64(*queue_wait_ns);
                w.u64(*solve_ns);
                w.u32(*retries);
                match outcome {
                    WireOutcome::Decided { k, witness } => {
                        w.u8(0);
                        w.u32(*k);
                        match witness {
                            Some(d) => {
                                w.u8(1);
                                encode_decomp(&mut w, d);
                            }
                            None => w.u8(0),
                        }
                    }
                    WireOutcome::Width {
                        proven_lower,
                        best_upper,
                        witness,
                        interrupted,
                    } => {
                        w.u8(1);
                        w.u32(*proven_lower);
                        match best_upper {
                            Some(u) => {
                                w.u8(1);
                                w.u32(*u);
                            }
                            None => w.u8(0),
                        }
                        match witness {
                            Some(d) => {
                                w.u8(1);
                                encode_decomp(&mut w, d);
                            }
                            None => w.u8(0),
                        }
                        w.u8(match interrupted {
                            None => 0,
                            Some(WireInterrupt::Timeout) => 1,
                            Some(WireInterrupt::Cancelled) => 2,
                        });
                    }
                    WireOutcome::TimedOut => w.u8(2),
                    WireOutcome::Cancelled => w.u8(3),
                    WireOutcome::Panicked { message } => {
                        w.u8(4);
                        w.u32(message.len() as u32);
                        w.bytes(message.as_bytes());
                    }
                    WireOutcome::Raced { k, winner, witness } => {
                        w.u8(5);
                        w.u32(*k);
                        w.u8(*winner);
                        match witness {
                            Some(d) => {
                                w.u8(1);
                                encode_decomp(&mut w, d);
                            }
                            None => w.u8(0),
                        }
                    }
                }
            }
            Message::Reject { id, error } => {
                w.u64(*id);
                match error {
                    WireError::Overloaded {
                        queue_depth,
                        retry_after_ms,
                    } => {
                        w.u8(0);
                        w.u32(*queue_depth);
                        w.u32(*retry_after_ms);
                    }
                    WireError::Expired { remaining_us } => {
                        w.u8(1);
                        w.u64(*remaining_us);
                    }
                    WireError::ShuttingDown => w.u8(2),
                    WireError::Malformed { detail } => {
                        w.u8(3);
                        w.u32(detail.len() as u32);
                        w.bytes(detail.as_bytes());
                    }
                    WireError::TooLarge { declared, cap } => {
                        w.u8(4);
                        w.u32(*declared);
                        w.u32(*cap);
                    }
                    WireError::Unsupported {
                        server_min,
                        server_max,
                    } => {
                        w.u8(6);
                        w.u8(*server_min);
                        w.u8(*server_max);
                    }
                }
            }
            Message::Goodbye { reason } => {
                w.u8(match reason {
                    GoodbyeReason::Idle => 0,
                    GoodbyeReason::ShuttingDown => 1,
                });
            }
        }
        w.buf
    }

    /// Decodes a payload for `kind`. Total: every byte must be consumed
    /// (trailing garbage is a decode error), and no input can panic.
    pub fn decode_payload(kind: FrameKind, payload: &[u8]) -> Result<Message, DecodeError> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            FrameKind::Hello => {
                let min_version = r.u8("hello/min")?;
                let max_version = r.u8("hello/max")?;
                if min_version > max_version {
                    return Err(DecodeError::invalid("hello/range", min_version as u64));
                }
                Message::Hello {
                    min_version,
                    max_version,
                }
            }
            FrameKind::HelloAck => Message::HelloAck {
                version: r.u8("helloack/version")?,
            },
            FrameKind::Submit => {
                let id = r.u64("submit/id")?;
                let flags = r.u8("submit/flags")?;
                if flags & !1 != 0 {
                    return Err(DecodeError::invalid("submit/flags", flags as u64));
                }
                let job_tag = r.u8("submit/job")?;
                let k = r.u32("submit/k")?;
                let job = match job_tag {
                    0 => WireJob::Decide { k },
                    1 => WireJob::MinimalWidth { k_max: k },
                    2 => WireJob::Race { k },
                    other => return Err(DecodeError::invalid("submit/job", other as u64)),
                };
                let deadline_raw = r.u64("submit/deadline")?;
                let num_edges = r.u32("submit/num_edges")? as usize;
                // ≥ 4 bytes per (possibly empty) edge list.
                if (payload.len() - r.pos) / 4 < num_edges {
                    return Err(DecodeError::truncated("submit/num_edges"));
                }
                let mut edges = Vec::with_capacity(num_edges);
                for _ in 0..num_edges {
                    edges.push(r.ids("submit/edge")?);
                }
                Message::Submit {
                    id,
                    job,
                    deadline_ms: (deadline_raw != 0).then_some(deadline_raw),
                    idempotent: flags & 1 != 0,
                    edges,
                }
            }
            FrameKind::Reply => {
                let id = r.u64("reply/id")?;
                let queue_wait_ns = r.u64("reply/queue_wait")?;
                let solve_ns = r.u64("reply/solve")?;
                let retries = r.u32("reply/retries")?;
                let outcome = match r.u8("reply/outcome")? {
                    0 => {
                        let k = r.u32("reply/k")?;
                        let witness = match r.u8("reply/has_witness")? {
                            0 => None,
                            1 => Some(decode_decomp(&mut r)?),
                            other => {
                                return Err(DecodeError::invalid("reply/has_witness", other as u64))
                            }
                        };
                        WireOutcome::Decided { k, witness }
                    }
                    1 => {
                        let proven_lower = r.u32("reply/lower")?;
                        let best_upper = match r.u8("reply/has_upper")? {
                            0 => None,
                            1 => Some(r.u32("reply/upper")?),
                            other => {
                                return Err(DecodeError::invalid("reply/has_upper", other as u64))
                            }
                        };
                        let witness = match r.u8("reply/has_witness")? {
                            0 => None,
                            1 => Some(decode_decomp(&mut r)?),
                            other => {
                                return Err(DecodeError::invalid("reply/has_witness", other as u64))
                            }
                        };
                        let interrupted = match r.u8("reply/interrupted")? {
                            0 => None,
                            1 => Some(WireInterrupt::Timeout),
                            2 => Some(WireInterrupt::Cancelled),
                            other => {
                                return Err(DecodeError::invalid("reply/interrupted", other as u64))
                            }
                        };
                        WireOutcome::Width {
                            proven_lower,
                            best_upper,
                            witness,
                            interrupted,
                        }
                    }
                    2 => WireOutcome::TimedOut,
                    3 => WireOutcome::Cancelled,
                    4 => WireOutcome::Panicked {
                        message: r.utf8("reply/message")?,
                    },
                    5 => {
                        let k = r.u32("reply/k")?;
                        let winner = r.u8("reply/winner")?;
                        let witness = match r.u8("reply/has_witness")? {
                            0 => None,
                            1 => Some(decode_decomp(&mut r)?),
                            other => {
                                return Err(DecodeError::invalid("reply/has_witness", other as u64))
                            }
                        };
                        WireOutcome::Raced { k, winner, witness }
                    }
                    other => return Err(DecodeError::invalid("reply/outcome", other as u64)),
                };
                Message::Reply {
                    id,
                    outcome,
                    queue_wait_ns,
                    solve_ns,
                    retries,
                }
            }
            FrameKind::Reject => {
                let id = r.u64("reject/id")?;
                let error = match r.u8("reject/code")? {
                    0 => WireError::Overloaded {
                        queue_depth: r.u32("reject/queue_depth")?,
                        retry_after_ms: r.u32("reject/retry_after")?,
                    },
                    1 => WireError::Expired {
                        remaining_us: r.u64("reject/remaining")?,
                    },
                    2 => WireError::ShuttingDown,
                    3 => WireError::Malformed {
                        detail: r.utf8("reject/detail")?,
                    },
                    4 => WireError::TooLarge {
                        declared: r.u32("reject/declared")?,
                        cap: r.u32("reject/cap")?,
                    },
                    6 => WireError::Unsupported {
                        server_min: r.u8("reject/server_min")?,
                        server_max: r.u8("reject/server_max")?,
                    },
                    other => return Err(DecodeError::invalid("reject/code", other as u64)),
                };
                Message::Reject { id, error }
            }
            FrameKind::Goodbye => Message::Goodbye {
                reason: match r.u8("goodbye/reason")? {
                    0 => GoodbyeReason::Idle,
                    1 => GoodbyeReason::ShuttingDown,
                    other => return Err(DecodeError::invalid("goodbye/reason", other as u64)),
                },
            },
        };
        r.finish("trailing")?;
        Ok(msg)
    }

    /// Encodes the full frame (header + payload) for this message.
    pub fn encode_frame(&self) -> Vec<u8> {
        crate::codec::encode_frame(self.kind(), &self.encode_payload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let payload = msg.encode_payload();
        let back = Message::decode_payload(msg.kind(), &payload).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn roundtrips_every_variant() {
        roundtrip(Message::Hello {
            min_version: 1,
            max_version: 3,
        });
        roundtrip(Message::HelloAck { version: 1 });
        roundtrip(Message::Submit {
            id: 42,
            job: WireJob::Decide { k: 3 },
            deadline_ms: Some(5000),
            idempotent: true,
            edges: vec![vec![0, 1, 2], vec![2, 3], vec![]],
        });
        roundtrip(Message::Submit {
            id: 7,
            job: WireJob::MinimalWidth { k_max: 4 },
            deadline_ms: None,
            idempotent: false,
            edges: vec![vec![0]],
        });
        roundtrip(Message::Submit {
            id: 8,
            job: WireJob::Race { k: 2 },
            deadline_ms: Some(250),
            idempotent: true,
            edges: vec![vec![0, 1], vec![1, 2]],
        });
        let decomp = WireDecomp {
            labels: vec![(vec![0], vec![0, 1, 2]), (vec![1], vec![2, 3])],
            children: vec![vec![1], vec![]],
            root: 0,
        };
        roundtrip(Message::Reply {
            id: 42,
            outcome: WireOutcome::Decided {
                k: 2,
                witness: Some(decomp.clone()),
            },
            queue_wait_ns: 1234,
            solve_ns: 56789,
            retries: 1,
        });
        roundtrip(Message::Reply {
            id: 1,
            outcome: WireOutcome::Width {
                proven_lower: 2,
                best_upper: Some(3),
                witness: Some(decomp),
                interrupted: Some(WireInterrupt::Timeout),
            },
            queue_wait_ns: 0,
            solve_ns: 0,
            retries: 0,
        });
        roundtrip(Message::Reply {
            id: 2,
            outcome: WireOutcome::Panicked {
                message: "deliberate panic at `logk/solve`".into(),
            },
            queue_wait_ns: 0,
            solve_ns: 9,
            retries: 2,
        });
        roundtrip(Message::Reply {
            id: 5,
            outcome: WireOutcome::Raced {
                k: 3,
                winner: 4,
                witness: Some(WireDecomp {
                    labels: vec![(vec![0], vec![0, 1])],
                    children: vec![vec![]],
                    root: 0,
                }),
            },
            queue_wait_ns: 11,
            solve_ns: 22,
            retries: 0,
        });
        roundtrip(Message::Reply {
            id: 6,
            outcome: WireOutcome::Raced {
                k: 1,
                // An engine index this build doesn't know — must still
                // roundtrip (forward compatibility).
                winner: 250,
                witness: None,
            },
            queue_wait_ns: 0,
            solve_ns: 0,
            retries: 0,
        });
        roundtrip(Message::Reject {
            id: 3,
            error: WireError::Overloaded {
                queue_depth: 64,
                retry_after_ms: 5,
            },
        });
        roundtrip(Message::Reject {
            id: NO_REQUEST,
            error: WireError::Malformed {
                detail: "checksum".into(),
            },
        });
        roundtrip(Message::Goodbye {
            reason: GoodbyeReason::ShuttingDown,
        });
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let msg = Message::Submit {
            id: 9,
            job: WireJob::Decide { k: 2 },
            deadline_ms: None,
            idempotent: true,
            edges: vec![vec![0, 1], vec![1, 2]],
        };
        let payload = msg.encode_payload();
        for cut in 0..payload.len() {
            let err = Message::decode_payload(FrameKind::Submit, &payload[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail, not panic");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(Message::decode_payload(FrameKind::Submit, &long).is_err());
        // A declared-huge edge list in a short payload must not allocate.
        let mut lying = Vec::new();
        lying.extend_from_slice(&9u64.to_le_bytes());
        lying.push(1);
        lying.push(0);
        lying.extend_from_slice(&2u32.to_le_bytes());
        lying.extend_from_slice(&0u64.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes()); // num_edges lie
        let err = Message::decode_payload(FrameKind::Submit, &lying).unwrap_err();
        assert!(err.truncated);

        // The Raced reply follows the same discipline.
        let raced = Message::Reply {
            id: 1,
            outcome: WireOutcome::Raced {
                k: 2,
                winner: 0,
                witness: Some(WireDecomp {
                    labels: vec![(vec![0], vec![0])],
                    children: vec![vec![]],
                    root: 0,
                }),
            },
            queue_wait_ns: 0,
            solve_ns: 0,
            retries: 0,
        };
        let payload = raced.encode_payload();
        for cut in 0..payload.len() {
            assert!(
                Message::decode_payload(FrameKind::Reply, &payload[..cut]).is_err(),
                "cut at {cut} must fail, not panic"
            );
        }

        // Unassigned reject codes are invalid values, not truncation.
        for code in [5u8, 7, u8::MAX] {
            let mut payload = 3u64.to_le_bytes().to_vec();
            payload.push(code);
            assert_eq!(
                Message::decode_payload(FrameKind::Reject, &payload),
                Err(DecodeError::invalid("reject/code", code as u64))
            );
        }
    }

    #[test]
    fn decomposition_roundtrips_through_wire_form() {
        let hg = hypergraph::Hypergraph::from_edge_lists(&[
            vec![0, 1, 2],
            vec![2, 3],
            vec![3, 4, 5],
            vec![5, 0],
        ]);
        let ctrl = decomp::Control::unlimited();
        let d = logk::LogK::sequential()
            .decompose(&hg, 2, &ctrl)
            .unwrap()
            .expect("cycle-ish instance has hw ≤ 2");
        let wire = WireDecomp::from_decomposition(&d);
        let back = wire.clone().into_decomposition(&hg).unwrap();
        assert_eq!(back.num_nodes(), d.num_nodes());
        assert_eq!(back.root(), d.root());
        decomp::validate::validate_hd_width(&hg, &back, 2).expect("rebuilt witness must validate");

        // Out-of-range ids are typed errors, not panics.
        let mut bad = wire.clone();
        bad.labels[0].0.push(99);
        assert!(bad.into_decomposition(&hg).is_err());
        let mut bad = wire.clone();
        bad.root = 99;
        assert!(bad.into_decomposition(&hg).is_err());
        let mut bad = wire;
        // Cycle: make the root a child of another node.
        let root = bad.root;
        for ch in &mut bad.children {
            ch.push(root);
        }
        assert!(bad.into_decomposition(&hg).is_err());
    }
}
