//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into the program's public functions;
//! nothing inside the program is instrumented.  Substep buckets the
//! engine accumulates (`Engine::timings`) are read at each step boundary
//! and recorded as *bucket* children of that step's span: they carry a
//! duration but no position inside the step, so they are laid out back
//! to back from the step's start.  A span's self time is its duration
//! minus the durations of its children.  Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Whether a record is a timed interval or an engine substep bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured around a call, start and end both observed.
    Call,
    /// An engine-accumulated substep duration read at a step boundary.
    Bucket,
}

#[derive(Clone, Debug)]
struct Span {
    parent: Option<usize>,
    step: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    kind: Kind,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// The recorder.  Disabled, every method is a no-op.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    step: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            step: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the step id that spans opened from now on share.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            step: self.step,
            name,
            start_ns: self.now_ns(),
            dur_ns: 0,
            kind: Kind::Call,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Time `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Record engine substep buckets as children of the most recently
    /// closed span named `parent_name` (the step they were read after).
    pub fn buckets(&mut self, parent_name: &'static str, buckets: &[(&'static str, Duration)]) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let (step, mut at) = (self.spans[parent].step, self.spans[parent].start_ns);
        for &(name, d) in buckets {
            let dur_ns = d.as_nanos() as u64;
            self.spans.push(Span {
                parent: Some(parent),
                step,
                name,
                start_ns: at,
                dur_ns,
                kind: Kind::Bucket,
            });
            at += dur_ns;
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Per span name: (count, total duration ms, total self ms).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"step\":{},\"name\":\"{}\",\"kind\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns}}}",
                s.step,
                s.name,
                match s.kind {
                    Kind::Call => "call",
                    Kind::Bucket => "bucket",
                },
                s.start_ns,
                s.dur_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_step(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        t.buckets("inner", &[("a", Duration::from_micros(500))]);
        let sum = t.summary();
        let (_, outer_dur, outer_self) = sum["outer"];
        let (_, inner_dur, inner_self) = sum["inner"];
        assert!((outer_self - (outer_dur - inner_dur)).abs() < 1e-9);
        assert!((inner_self - (inner_dur - 0.5)).abs() < 1e-9);
        assert!(t.spans.iter().all(|s| s.step == 3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x");
        t.end(o);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.summary().is_empty());
    }
}
