//! Spans recorded from outside the program: one around each client
//! request of a traced run, and one around each replayed call into a
//! layer's public functions. Spans stay in memory until the run ends,
//! are then written out, and give each layer's self time.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns, parent, request)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Self time of every span in microseconds: its duration minus the
    /// part its children cover (children of one span never overlap).
    pub fn self_us(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                covered[parent] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_us_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (span, us) in self.spans.iter().zip(self.self_us()) {
            out.entry(span.name).or_default().push(us);
        }
        out
    }

    /// One tab-separated line per span: id, name, start, end, parent,
    /// request (times in ns since the run's origin; `-` for no parent).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
