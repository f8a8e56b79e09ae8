//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start and end on the process clock, the span
//! that contains it, and the request it belongs to. Spans stay in
//! memory until the run ends; then [`SpanLog::write`] saves them and
//! [`SpanLog::self_times`] folds them into the per-layer table.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Keep one request in this many: a run makes millions of requests.
pub const SAMPLE_EVERY: u64 = 16;
const CAPACITY: usize = 400_000;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds from the process clock's epoch to `t`.
pub fn ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index for its children, or `None`
    /// once the log is full.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if self.spans.len() >= CAPACITY {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Per span name: count, total time and self time (the span's
    /// duration minus the time its children cover), in ns.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(children);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows
    }

    /// Writes one tab-separated line per span:
    /// `index name start_ns end_ns parent request`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
