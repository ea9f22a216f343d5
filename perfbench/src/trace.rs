//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Nothing here reaches inside the library: spans start and end in the
//! benchmark's own code, and the per-round spans come from a public
//! [`Observer`] callback. Spans are kept in memory and written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sodiff_core::{Observer, Simulator, Snapshot};

/// One timed call into a layer. `parent` indexes the enclosing span.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// The span store of one traced pass.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one; close it with [`Trace::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        self.exit_at(id, Instant::now());
    }

    /// Closes span `id` at `end`, for a span whose children were recorded
    /// after its work finished.
    pub fn exit_at(&mut self, id: usize, end: Instant) {
        self.spans[id].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Records an already finished span under the innermost open one.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part of
    /// its interval its child spans cover (children never overlap: the
    /// benchmark records them sequentially on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start.max(parent.start);
                let end = span.end.min(parent.end);
                covered[p] += end.saturating_duration_since(start);
            }
        }
        let mut out = BTreeMap::new();
        for (span, cover) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(Duration::ZERO) +=
                span.duration().saturating_sub(cover);
        }
        out
    }

    /// The spans as JSON lines: name, parent index, start and end in
    /// nanoseconds since the trace began.
    pub fn to_json_lines(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name,
                ns(span.start),
                ns(span.end)
            );
        }
        out
    }
}

/// Mid-run state captured for the kernel phase probe.
pub struct Fixture {
    pub loads: Vec<i64>,
    pub prev: Vec<f64>,
    pub snapshot: Snapshot,
}

/// The observer times the public `round_metrics` stop-check snapshot on
/// every this-many-th round only: the snapshot sweeps every edge, so
/// taking it each round would add a sixth to the traced round loop.
pub const STOP_CHECK_EVERY: u64 = 16;

/// Per-round clock on the public observer hook. A round's `engine.step`
/// span runs from the end of the previous callback to the start of this
/// one (it holds everything the run loop does between the callbacks:
/// the round itself, its fused stop check and any checkpoint write);
/// `engine.stop_check` times the public `round_metrics` snapshot on
/// every [`STOP_CHECK_EVERY`]-th round.
pub struct RoundClock {
    last: Instant,
    pub steps: Vec<(Instant, Instant)>,
    pub checks: Vec<(Instant, Instant)>,
    capture_round: u64,
    pub fixture: Option<Fixture>,
}

impl RoundClock {
    /// Starts the clock now; captures a [`Fixture`] after round
    /// `capture_round` (0 for none) when the state is discrete.
    pub fn new(capture_round: u64) -> Self {
        Self {
            last: Instant::now(),
            steps: Vec::new(),
            checks: Vec::new(),
            capture_round,
            fixture: None,
        }
    }
}

impl Observer for RoundClock {
    fn on_round(&mut self, sim: &Simulator<'_>) {
        let now = Instant::now();
        self.steps.push((self.last, now));
        if sim.round() % STOP_CHECK_EVERY == 0 {
            std::hint::black_box(sim.round_metrics());
            self.checks.push((now, Instant::now()));
        }
        if sim.round() == self.capture_round {
            if let Some(loads) = sim.loads_i64() {
                self.fixture = Some(Fixture {
                    loads: loads.to_vec(),
                    prev: sim.previous_flows().to_vec(),
                    snapshot: sim.snapshot(),
                });
            }
        }
        self.last = Instant::now();
    }
}
