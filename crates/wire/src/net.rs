//! Chaos-aware socket primitives.
//!
//! Every write the wire layer performs goes through [`write_frame`], and
//! the server's acceptor consults [`accept_fault`] for each connection
//! it accepts. In normal builds these are plain pass-throughs; under
//! `--features fault-injection` they consult
//! [`decomp::faults::take_net`] at named sites so tests can
//! deterministically tear connections mid-frame, dribble bytes
//! slow-loris style, or freeze the acceptor — without any nondeterminism
//! or real packet loss.
//!
//! Chaos sites:
//!
//! | site                | where it fires |
//! |---------------------|----------------|
//! | `wire/client/write` | client → server frame writes |
//! | `wire/server/write` | server → client frame writes |
//! | `wire/accept`       | before each accepted connection is handed off |

use std::io::{self, Write};
use std::net::TcpStream;

#[cfg(feature = "fault-injection")]
use std::net::Shutdown;

#[cfg(feature = "fault-injection")]
use decomp::faults::NetFault;

/// Writes one encoded frame to `stream`, applying any armed network
/// fault at `site` first. A fault that cuts the write returns
/// `BrokenPipe`/`ConnectionAborted` just like a real peer reset would.
pub fn write_frame(stream: &mut TcpStream, bytes: &[u8], site: &'static str) -> io::Result<()> {
    #[cfg(feature = "fault-injection")]
    if let Some(fault) = decomp::faults::take_net(site) {
        return chaos_write(stream, bytes, fault);
    }
    let _ = site;
    stream.write_all(bytes)
}

#[cfg(feature = "fault-injection")]
fn chaos_write(stream: &mut TcpStream, bytes: &[u8], fault: NetFault) -> io::Result<()> {
    match fault {
        NetFault::Disconnect => {
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected disconnect",
            ))
        }
        NetFault::Truncate { keep } => {
            let keep = keep.min(bytes.len());
            stream.write_all(&bytes[..keep])?;
            stream.flush()?;
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected mid-frame disconnect",
            ))
        }
        NetFault::Throttle { chunk, delay } => {
            let chunk = chunk.max(1);
            for piece in bytes.chunks(chunk) {
                stream.write_all(piece)?;
                stream.flush()?;
                std::thread::sleep(delay);
            }
            Ok(())
        }
        NetFault::Stall { delay } => {
            std::thread::sleep(delay);
            stream.write_all(bytes)
        }
    }
}

/// Consulted by the server's accept loop once per accepted connection.
/// Returns `true` when an injected fault already disposed of the
/// connection (the handler must not be spawned).
pub fn accept_fault(stream: &TcpStream, site: &'static str) -> bool {
    #[cfg(feature = "fault-injection")]
    if let Some(fault) = decomp::faults::take_net(site) {
        match fault {
            NetFault::Stall { delay } | NetFault::Throttle { delay, .. } => {
                // Freeze the acceptor: connections queue in the backlog,
                // clients see slow accepts, nothing is lost.
                std::thread::sleep(delay);
                return false;
            }
            NetFault::Disconnect | NetFault::Truncate { .. } => {
                let _ = stream.shutdown(Shutdown::Both);
                return true;
            }
        }
    }
    let _ = (stream, site);
    false
}
