//! Frame codec: length-prefixed, versioned, checksummed framing.
//!
//! See [`crate::proto`] for the byte-exact layout. This module owns the
//! mechanical half: building a frame around a payload and incrementally
//! decoding frames out of an arbitrary byte stream without ever
//! panicking, whatever the bytes.
//!
//! # Error discipline
//!
//! Every way a byte stream can be wrong maps to a typed [`FrameError`],
//! split by whether framing survives:
//!
//! * **Recoverable** (`is_fatal() == false`): the header was valid, so
//!   the decoder knows the frame's extent, consumes it whole, and can
//!   keep decoding the same stream. A checksum mismatch or an unknown
//!   frame kind rejects *one frame*, not the connection.
//! * **Fatal** (`is_fatal() == true`): the stream is desynchronised
//!   (bad magic, unsupported version) or refuses to fit in memory
//!   (declared length above the cap). The decoder leaves the buffer
//!   untouched; the connection must be torn down after the typed error
//!   is reported.

/// Frame magic: `b"HTDW"`.
pub const MAGIC: [u8; 4] = *b"HTDW";

/// Frame-*layout* version, written into header byte 4 of every frame.
///
/// This is deliberately distinct from the negotiated *session* version
/// ([`crate::proto::VERSION`]): the session version governs which
/// messages a peer may send, while this byte only changes if the
/// 16-byte header shape itself ever does. Every session version so far
/// shares frame layout 1, so mixed-version peers still frame-sync.
pub const FRAME_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Default payload cap: strict enough to bound per-connection memory,
/// loose enough for every real instance this service handles.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame kinds on the wire. The numeric values are the protocol —
/// never renumber (see [`crate::proto`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server version negotiation.
    Hello = 1,
    /// Server → client negotiation acceptance.
    HelloAck = 2,
    /// Client → server job submission.
    Submit = 3,
    /// Server → client terminal verdict for a submission.
    Reply = 4,
    /// Server → client typed rejection (admission shed, malformed
    /// frame, unsupported version).
    Reject = 5,
    /// Server → client farewell before an orderly close (idle reap or
    /// drain), so clients can distinguish it from a crash.
    Goodbye = 6,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Submit,
            4 => FrameKind::Reply,
            5 => FrameKind::Reject,
            6 => FrameKind::Goodbye,
            _ => return None,
        })
    }
}

/// One decoded frame: kind plus verified payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload encodes.
    pub kind: FrameKind,
    /// Payload bytes, checksum already verified.
    pub payload: Vec<u8>,
}

/// Why a frame could not be decoded (see the module docs for the
/// fatal/recoverable split).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not start with [`MAGIC`] — desynchronised or not
    /// speaking this protocol at all. Fatal.
    BadMagic {
        /// The four bytes found where the magic should be.
        found: [u8; 4],
    },
    /// A frame-layout version this build does not speak. Fatal (the
    /// header shape may differ, so no resync is possible). Note this is
    /// the *layout* version ([`FRAME_VERSION`]), not the negotiated
    /// session version — session mismatches are handled politely at the
    /// message layer.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// Reserved header bytes were not zero. Fatal: a layout-1 peer never
    /// sends this, so the stream is desynchronised or corrupt.
    BadReserved {
        /// The reserved field's value.
        found: u16,
    },
    /// Declared payload length exceeds the cap. Fatal: honouring it
    /// would buffer unbounded attacker-controlled bytes, and skipping
    /// it cannot be trusted when the header may itself be garbage.
    TooLarge {
        /// Length the header declared.
        declared: u32,
        /// The decoder's configured cap.
        cap: u32,
    },
    /// An unknown frame kind with an otherwise valid header. The frame
    /// is consumed whole; recoverable.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// Payload bytes do not match the header checksum. The frame is
    /// consumed whole; recoverable.
    ChecksumMismatch {
        /// CRC the header declared.
        declared: u32,
        /// CRC of the bytes actually received.
        actual: u32,
    },
}

impl FrameError {
    /// Whether the stream is beyond recovery (see the module docs).
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            FrameError::UnknownKind { .. } | FrameError::ChecksumMismatch { .. }
        )
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            FrameError::BadVersion { found } => write!(f, "unsupported protocol version {found}"),
            FrameError::BadReserved { found } => {
                write!(f, "non-zero reserved header bytes {found:#06x}")
            }
            FrameError::TooLarge { declared, cap } => {
                write!(f, "declared payload {declared} B exceeds cap {cap} B")
            }
            FrameError::UnknownKind { found } => write!(f, "unknown frame kind {found}"),
            FrameError::ChecksumMismatch { declared, actual } => {
                write!(
                    f,
                    "payload checksum {actual:#010x} != declared {declared:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the payload checksum in every frame
/// header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Encodes one frame: header (magic, version, kind, reserved, length,
/// CRC) followed by the payload.
///
/// Panics if `payload` exceeds `u32::MAX` bytes — callers cap payloads
/// far below that (see [`DEFAULT_MAX_PAYLOAD`]).
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("payload length must fit in u32");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame decoder: feed arbitrary bytes, pull verified
/// frames (or typed errors) out.
///
/// Never panics on any input. Recoverable errors consume the offending
/// frame so decoding can continue; fatal errors freeze the buffer (the
/// caller is expected to drop the connection).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes consumed from the front of `buf` (compacted lazily).
    start: usize,
    max_payload: u32,
}

impl FrameDecoder {
    /// A decoder enforcing `max_payload` as its strict size cap.
    pub fn new(max_payload: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_payload,
        }
    }

    /// Appends raw stream bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by
        // HEADER_LEN + max_payload + one read's worth of bytes.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (mid-frame when non-zero
    /// after a `next_frame` returning `Ok(None)` — torn-frame
    /// detection at EOF hinges on this).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to decode the next frame. `Ok(None)` means "need more
    /// bytes"; errors follow the fatal/recoverable discipline in the
    /// module docs.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let header = &avail[..HEADER_LEN];
        if header[0..4] != MAGIC {
            return Err(FrameError::BadMagic {
                found: [header[0], header[1], header[2], header[3]],
            });
        }
        if header[4] != FRAME_VERSION {
            return Err(FrameError::BadVersion { found: header[4] });
        }
        let reserved = u16::from_le_bytes([header[6], header[7]]);
        if reserved != 0 {
            return Err(FrameError::BadReserved { found: reserved });
        }
        let declared = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if declared > self.max_payload {
            return Err(FrameError::TooLarge {
                declared,
                cap: self.max_payload,
            });
        }
        let total = HEADER_LEN + declared as usize;
        if avail.len() < total {
            return Ok(None);
        }
        // The frame's extent is known and buffered: whatever happens
        // below, consume it whole so recoverable errors skip exactly
        // one frame.
        let kind_byte = header[5];
        let crc_declared = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let payload = avail[HEADER_LEN..total].to_vec();
        self.start += total;

        let Some(kind) = FrameKind::from_u8(kind_byte) else {
            return Err(FrameError::UnknownKind { found: kind_byte });
        };
        let actual = crc32(&payload);
        if actual != crc_declared {
            return Err(FrameError::ChecksumMismatch {
                declared: crc_declared,
                actual,
            });
        }
        Ok(Some(Frame { kind, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_single_frame() {
        let bytes = encode_frame(FrameKind::Submit, b"hello world");
        let mut d = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        d.feed(&bytes);
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Submit);
        assert_eq!(f.payload, b"hello world");
        assert_eq!(d.pending(), 0);
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let bytes = encode_frame(FrameKind::Reply, &[0xAB; 300]);
        let mut d = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        for &b in &bytes[..bytes.len() - 1] {
            d.feed(&[b]);
            assert_eq!(d.next_frame().unwrap(), None, "frame complete early");
        }
        d.feed(&bytes[bytes.len() - 1..]);
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.payload.len(), 300);
    }

    #[test]
    fn two_frames_one_feed() {
        let mut bytes = encode_frame(FrameKind::Hello, b"a");
        bytes.extend(encode_frame(FrameKind::Goodbye, b"bb"));
        let mut d = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        d.feed(&bytes);
        assert_eq!(d.next_frame().unwrap().unwrap().kind, FrameKind::Hello);
        assert_eq!(d.next_frame().unwrap().unwrap().kind, FrameKind::Goodbye);
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn checksum_mismatch_is_recoverable() {
        let mut bad = encode_frame(FrameKind::Submit, b"payload");
        let n = bad.len();
        bad[n - 1] ^= 0xFF; // corrupt the payload, not the header
        bad.extend(encode_frame(FrameKind::Submit, b"clean"));
        let mut d = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        d.feed(&bad);
        let err = d.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::ChecksumMismatch { .. }));
        assert!(!err.is_fatal());
        // The stream continues at the next frame.
        assert_eq!(d.next_frame().unwrap().unwrap().payload, b"clean");
    }

    #[test]
    fn unknown_kind_is_recoverable() {
        let mut bytes = encode_frame(FrameKind::Hello, b"x");
        bytes[5] = 0x7F;
        bytes.extend(encode_frame(FrameKind::Hello, b"y"));
        let mut d = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        d.feed(&bytes);
        let err = d.next_frame().unwrap_err();
        assert_eq!(err, FrameError::UnknownKind { found: 0x7F });
        assert!(!err.is_fatal());
        assert_eq!(d.next_frame().unwrap().unwrap().payload, b"y");
    }

    #[test]
    fn oversize_magic_and_version_are_fatal() {
        let mut d = FrameDecoder::new(64);
        let mut big = encode_frame(FrameKind::Submit, &[0u8; 65]);
        d.feed(&big);
        let err = d.next_frame().unwrap_err();
        assert_eq!(
            err,
            FrameError::TooLarge {
                declared: 65,
                cap: 64
            }
        );
        assert!(err.is_fatal());

        let mut d = FrameDecoder::new(64);
        big[0] = b'X';
        d.feed(&big);
        assert!(d.next_frame().unwrap_err().is_fatal());

        let mut d = FrameDecoder::new(64);
        let mut vbad = encode_frame(FrameKind::Submit, b"");
        vbad[4] = 99;
        d.feed(&vbad);
        assert_eq!(
            d.next_frame().unwrap_err(),
            FrameError::BadVersion { found: 99 }
        );
    }

    #[test]
    fn pending_reports_torn_frames() {
        let bytes = encode_frame(FrameKind::Submit, b"torn off mid-flight");
        let mut d = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        d.feed(&bytes[..bytes.len() / 2]);
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(d.pending() > 0, "a torn frame must be visible at EOF");
    }
}
