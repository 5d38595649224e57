//! `htdwire` — a hardened TCP wire protocol for the decomposition
//! service.
//!
//! Three layers, bottom-up:
//!
//! * [`codec`] — length-prefixed, versioned, checksummed frames with a
//!   strict size cap and an incremental decoder whose errors split into
//!   *recoverable* (reject the frame, keep the connection) and *fatal*
//!   (close this one connection). No input makes it panic.
//! * [`proto`] — the message layer: job submission, typed verdicts,
//!   typed rejections, version negotiation and farewells, with the full
//!   protocol specification in the module docs.
//! * [`server`] / [`client`] — a [`WireServer`] frontend that puts
//!   [`htdserve::Server`] on a socket (per-connection deadlines, idle
//!   reaping, graceful drain), and a [`WireClient`] that reuses its
//!   negotiated sessions, retries with jittered exponential backoff,
//!   honors server overload hints, and hedges idempotent requests.
//!
//! Under `--features fault-injection`, [`net`] wires the
//! `take_net` chaos plans of [`decomp::faults`] (mid-frame disconnects,
//! slow-loris dribbles, stalled accepts) into every socket operation so
//! the fault suite can prove the blast-radius claims deterministically.

pub mod client;
pub mod codec;
pub mod net;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, ClientError, ClientReply, JobSpec, WireClient};
pub use codec::{Frame, FrameDecoder, FrameError, FrameKind, DEFAULT_MAX_PAYLOAD, FRAME_VERSION};
pub use proto::{
    GoodbyeReason, Message, WireDecomp, WireError, WireInterrupt, WireJob, WireOutcome,
    MAX_VERSION, MIN_VERSION, RACE_VERSION,
};
pub use server::{WireConfig, WireReport, WireServer, WireStats};
