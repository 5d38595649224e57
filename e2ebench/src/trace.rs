//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer name, start, end, parent span and the id of
//! the operation it belongs to. Spans stay in memory and are written as
//! JSON lines when the run ends. A disabled tracer records nothing and
//! costs one branch per call.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation (instance solve or wire request) the span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An open span; pass it back to [`Tracer::close`].
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// The span's id, for use as a child's parent (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span named `name` of operation `op` under `parent`.
    pub fn open(&self, name: &'static str, op: u64, parent: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                op,
                name,
                start: None,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Closes `open`, recording it when tracing is on.
    pub fn close(&self, open: Open) {
        let name = open.name;
        self.close_as(open, name);
    }

    /// Closes `open` under `name`, for spans whose layer outcome (a
    /// "yes" or a "no" verdict) is known only at the end.
    pub fn close_as(&self, open: Open, name: &'static str) {
        let Some(start) = open.start else { return };
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name,
            start: start - self.epoch,
            end: self.epoch.elapsed(),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .sum()
    }

    /// Writes every span as one JSON object per line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
