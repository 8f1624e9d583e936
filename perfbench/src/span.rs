//! The span recorder: wall-clock spans around the benchmark's calls into
//! each layer, kept in memory and written out when the run ends.
//!
//! A span is named `<layer>.<call>`; the metric `<layer>.<call>_s` is the
//! summed duration of that span, and `<layer>.self_s` the layer's self
//! time: its spans' durations minus the parts their child spans cover.
//! Disabled, the recorder reads no clock and stores nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), job: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Index of the next span to be recorded (a round boundary).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span that later spans nest under until [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, job: self.job });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Starts job `job` as a root span. Spans a panicking job left open
    /// are closed first, so the tree stays well formed.
    pub fn begin_job(&mut self, job: u32) {
        self.close_all();
        self.job = job;
        self.enter("job.total");
    }

    pub fn end_job(&mut self) {
        self.close_all();
    }

    fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Per-job, per-name summed durations and per-job, per-layer self
    /// times, in seconds, of the spans recorded since `from`.
    pub fn totals(&self, from: usize) -> BTreeMap<(u32, String), f64> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(from)) {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e9;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry((s.job, format!("{}_s", s.name))).or_insert(0.0) += dur;
            *out.entry((s.job, format!("{layer}.self_s"))).or_insert(0.0) +=
                dur - child as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.job
            )?;
        }
        w.flush()
    }
}
