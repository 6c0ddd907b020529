//! In-memory spans for the traced run.
//!
//! Spans are recorded only by the benchmark, around its own calls into each
//! layer: name, start, end and the enclosing span.  A layer's self time is
//! its spans' durations minus what their child spans (and charged per-call
//! timings) cover.  The root span's self time is the wall time no layer
//! accounts for.  Everything stays in memory until [`Tracer::write_jsonl`]
//! writes it out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span every traced run opens first.
pub const ROOT: &str = "run";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct Open {
    index: usize,
    child_ns: u64,
}

/// Per-layer totals: self time and how many spans or charged calls made it.
#[derive(Default, Clone, Copy)]
pub struct LayerTotal {
    /// Self time in nanoseconds.
    pub self_ns: u64,
    /// Spans closed plus calls charged.
    pub calls: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    layers: BTreeMap<&'static str, LayerTotal>,
}

impl Tracer {
    /// A tracer with the root span already open.
    pub fn new() -> Self {
        let mut t = Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: BTreeMap::new(),
        };
        t.begin(ROOT);
        t
    }

    /// A tracer that records nothing, for untraced runs of shared code.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map(|o| o.index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(Open {
            index: self.spans.len() - 1,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    fn end(&mut self) {
        if !self.on {
            return;
        }
        let open = self.open.pop().expect("end() matches a begin()");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        let duration = end_ns - span.start_ns;
        let name = span.name;
        let total = self.layers.entry(name).or_default();
        total.self_ns += duration.saturating_sub(open.child_ns);
        total.calls += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Charges `ns` measured by the caller (a per-call timing too fine for
    /// a span of its own) to layer `name`, inside the innermost open span.
    pub fn charge(&mut self, name: &'static str, ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let total = self.layers.entry(name).or_default();
        total.self_ns += ns;
        total.calls += calls;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
    }

    /// Closes the root span; returns its duration in nanoseconds.
    pub fn finish(&mut self) -> u64 {
        while self.open.len() > 1 {
            self.end();
        }
        self.end();
        let root = &self.spans[0];
        root.end_ns - root.start_ns
    }

    /// Self time in seconds of layer `name` (0 if it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9)
    }

    /// Every layer's totals, the root included.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTotal> {
        &self.layers
    }

    /// Writes every span as one JSON object per line, then one line per
    /// layer total.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in &self.layers {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"self_ns\":{},\"calls\":{}}}",
                t.self_ns, t.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_exclude_children_and_add_up_to_the_root() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            spin(2_000_000);
            t.span("inner", |_| spin(3_000_000));
            t.charge("charged", 1_000_000, 10);
        });
        let wall = t.finish();
        let l = t.layers();
        let sum: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, wall, "self times partition the root's wall time");
        assert!(l["inner"].self_ns >= 3_000_000);
        assert!(l["outer"].self_ns >= 1_000_000 && l["outer"].self_ns < 3_000_000);
        assert_eq!(l["charged"].calls, 10);
    }
}
