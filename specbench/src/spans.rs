//! Host-clock spans recorded by the benchmark around every public call it
//! makes into the serving stack, kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::alloc;

/// One timed call: name, host-clock interval, the span that caused it, and
/// the request it served where one applies.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

/// One clock for every span log of the process, so logs written together
/// line up.
fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span log of one phase of a run.  A disabled log times nothing: the
/// call runs bare, so untraced replays pay no span overhead.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span that encloses later ones (e.g. a whole replay); close
    /// it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: None,
            allocs: 0,
            alloc_bytes: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = now_ns();
        }
    }

    /// Runs `call` inside a span that records the allocations it made.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        call: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return call();
        }
        let before = alloc::Counts::now();
        let start_ns = now_ns();
        let result = call();
        let end_ns = now_ns();
        let delta = alloc::Counts::now().since(before);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            allocs: delta.count,
            alloc_bytes: delta.bytes,
        });
        result
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |span| span.name == name)
    }

    /// Per span name: count, total and self microseconds.  Self time is a
    /// span's duration minus the part of it its children cover (children of
    /// one parent never overlap: the replay loop is single-threaded).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut summary: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = summary.entry(span.name).or_default();
            let duration_ns = span.end_ns - span.start_ns;
            entry.0 += 1;
            entry.1 += duration_ns as f64 / 1_000.0;
            entry.2 += duration_ns.saturating_sub(children) as f64 / 1_000.0;
        }
        summary
    }

    /// Every span as one JSON object per line, numbered from `first_id`
    /// (parents likewise), so several logs can share one file.
    pub fn to_jsonl(&self, first_id: usize) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"request\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                first_id + index,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent
                    .map_or_else(|| "null".to_owned(), |p| (first_id + p).to_string()),
                span.request
                    .map_or_else(|| "null".to_owned(), |r| r.to_string()),
                span.allocs,
                span.alloc_bytes,
            );
        }
        out
    }
}
