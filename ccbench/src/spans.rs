//! The benchmark's own in-memory spans, recorded around its calls into
//! each layer (spans inside the engine are a later change). A traced run
//! keeps them in a `Vec`, computes self times when the run ends, and
//! writes them out as JSON lines.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index (within the same log) of the span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A caller thread's span buffer; timestamps are nanoseconds since the
/// shared `epoch`, so logs of several callers merge onto one axis.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another caller's log, keeping its parent links valid.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per span: name, request, parent, start, end and
/// self time, all in nanoseconds since the run's epoch.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = self_times_ns(spans);
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, (span, self_ns)) in spans.iter().zip(self_ns).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.request, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("request", None, 0, 100),
            span("client.submit", Some(0), 10, 30),
            span("client.wait_next", Some(0), 30, 90),
            span("decode", Some(2), 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 140, 160), // overlaps a by 10
            span("c", Some(0), 190, 250), // hangs over the end by 50
            span("d", Some(0), 120, 130), // inside a
        ];
        // Covered: [110,160) + [190,200) = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 4);
        let root = a.begin("request", 1, None);
        let child = a.begin("core.call", 1, Some(root));
        a.end(child);
        a.end(root);
        let mut b = SpanLog::new(epoch, 4);
        let root = b.begin("request", 2, None);
        let child = b.begin("core.call", 2, Some(root));
        b.end(child);
        b.end(root);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[spans[3].parent.unwrap()].request, spans[3].request);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
