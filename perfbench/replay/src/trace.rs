//! In-memory span recorder for the traced replay.
//!
//! Each span has a name (`<layer>.<call>`), a start, an end and the span
//! that was open when it began. Spans are kept in memory and written out
//! once, when the replay ends. A disabled tracer records nothing, so the
//! untraced replay pays only for the closure call.

use std::time::Instant;

use codec::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; returns its index (ignored when disabled).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the span `id`, optionally renaming it (a runner step is only
    /// known to have closed an EM round after it returns).
    pub fn exit(&mut self, id: usize, rename: Option<&'static str>) {
        if !self.enabled {
            return;
        }
        let end = self.origin.elapsed().as_secs_f64();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.end = end;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id, None);
        out
    }

    /// All closed spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// The spans as a JSON array, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("name".into(), Json::string(s.name)),
                        ("start".into(), Json::Number(s.start)),
                        ("end".into(), Json::Number(s.end)),
                        ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Number(p as f64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("a.outer");
        t.span("b.inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.exit(outer, None);
        let own = t.self_times();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[0] >= 0.0 && own[0] < t.spans()[0].seconds());
        assert!((own[0] + own[1] - t.spans()[0].seconds()).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x.y", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
