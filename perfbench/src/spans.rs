//! Benchmark-side spans: one per call into a layer's public function.
//!
//! Spans stay in memory while the benchmark runs and are written out
//! once at the end. Every end-to-end and per-layer host time is derived
//! from them, so the untimed and the traced passes share one timing
//! path.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The called function (or the benchmark phase).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The pass the span belongs to (0 is the reference set-up).
    pub run: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
pub struct Spans {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.secs()
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name` in run `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.of(run, name).map(Span::secs).sum()
    }

    /// Number of spans named `name` in run `run`.
    pub fn count(&self, run: u32, name: &str) -> usize {
        self.of(run, name).count()
    }

    fn of<'a>(&'a self, run: u32, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.run == run && s.name == name)
    }

    /// The spans as a JSON array of
    /// `{id, parent, run, name, start_ns, end_ns}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
