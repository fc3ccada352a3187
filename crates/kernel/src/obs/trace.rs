//! Per-query trace spans.
//!
//! A [`QueryTrace`] records the wall-clock duration of each pipeline
//! stage (`parse`, `bind`, `plan`, `execute`) for one statement.  Since
//! the flight-recorder work, each [`Span`] is a tree node: the `execute`
//! stage of an EXPLAIN ANALYZE carries one child per plan operator
//! (mirroring the plan shape) and one child per parallel scan worker, so
//! the trace reconciles with the printed per-operator actuals.  The
//! trace rides on `RunStats` so callers — EXPLAIN ANALYZE, benches, the
//! outside-the-server baseline, the flight recorder — can attribute
//! latency to stages, and each stage is also accumulated into the global
//! registry counters.

use std::borrow::Cow;
use std::time::{Duration, Instant};

/// One timed stage of a statement's lifecycle, with optional children
/// (per-operator / per-worker sub-spans nested under their stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`"parse"`, `"bind"`, `"execute"`, `"Seq Scan on t"`, ...).
    pub name: Cow<'static, str>,
    /// Wall-clock duration of the stage (inclusive of children).
    pub duration: Duration,
    /// Nested sub-spans, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span.
    pub fn new(name: impl Into<Cow<'static, str>>, duration: Duration) -> Span {
        Span {
            name: name.into(),
            duration,
            children: Vec::new(),
        }
    }

    /// A span with children attached.
    pub fn with_children(
        name: impl Into<Cow<'static, str>>,
        duration: Duration,
        children: Vec<Span>,
    ) -> Span {
        Span {
            name: name.into(),
            duration,
            children,
        }
    }

    /// Number of spans in this subtree, including `self`.
    pub fn tree_len(&self) -> usize {
        1 + self.children.iter().map(Span::tree_len).sum::<usize>()
    }

    fn render_tree_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{}={:.3}ms\n",
            self.name,
            self.duration.as_secs_f64() * 1e3
        ));
        for c in &self.children {
            c.render_tree_into(out, depth + 1);
        }
    }

    fn json_into(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        json_escape_into(&self.name, out);
        out.push_str(&format!("\",\"us\":{}", self.duration.as_micros()));
        if !self.children.is_empty() {
            out.push_str(",\"children\":[");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.json_into(out);
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// Escape `s` for embedding inside a JSON string literal.
pub(crate) fn json_escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Ordered stage timings for one statement: a forest of [`Span`] trees
/// (one root per pipeline stage) plus the query id that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    query_id: u64,
    spans: Vec<Span>,
}

impl QueryTrace {
    /// An empty trace.
    pub fn new() -> QueryTrace {
        QueryTrace::default()
    }

    /// An empty trace tagged with the engine-wide query id.
    pub fn for_query(query_id: u64) -> QueryTrace {
        QueryTrace {
            query_id,
            ..QueryTrace::default()
        }
    }

    /// The engine-wide id of the statement this trace belongs to
    /// (0 when untagged, e.g. traces built by unit tests).
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Tag the trace with its query id.
    pub fn set_query_id(&mut self, id: u64) {
        self.query_id = id;
    }

    /// Record a completed stage (leaf span).
    pub fn record(&mut self, name: &'static str, duration: Duration) {
        self.spans.push(Span::new(name, duration));
    }

    /// Record a completed stage with its sub-span tree attached.
    pub fn record_span(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Insert a stage before the existing ones (`parse` happens in
    /// `Session::execute`, before `run_select` builds the trace).
    pub fn prepend(&mut self, name: &'static str, duration: Duration) {
        self.spans.insert(0, Span::new(name, duration));
    }

    /// Time `f`, record it under `name`, and return its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// The recorded stage spans, in execution order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the named top-level stage, if recorded (sums repeats).
    pub fn stage(&self, name: &str) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let mut found = false;
        for s in &self.spans {
            if s.name == name {
                total += s.duration;
                found = true;
            }
        }
        found.then_some(total)
    }

    /// Sum of all top-level stage spans.
    pub fn total(&self) -> Duration {
        self.spans.iter().map(|s| s.duration).sum()
    }

    /// Total number of spans across all trees.
    pub fn tree_len(&self) -> usize {
        self.spans.iter().map(Span::tree_len).sum()
    }

    /// One-line rendering of the top-level stages:
    /// `parse=0.012ms bind=0.034ms ...`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!(
                "{}={:.3}ms",
                s.name,
                s.duration.as_secs_f64() * 1e3
            ));
        }
        out
    }

    /// Indented multi-line rendering of the full span tree.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            s.render_tree_into(&mut out, 0);
        }
        out
    }

    /// JSON rendering: `{"query_id":N,"spans":[{name,us,children},...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"query_id\":{},\"spans\":[", self.query_id));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.json_into(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_stages() {
        let mut t = QueryTrace::new();
        t.record("parse", Duration::from_micros(120));
        t.record("bind", Duration::from_micros(30));
        t.record("execute", Duration::from_millis(2));
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.stage("parse"), Some(Duration::from_micros(120)));
        assert_eq!(t.stage("plan"), None);
        assert_eq!(t.total(), Duration::from_micros(2150));
        let line = t.render();
        assert!(line.contains("parse=0.120ms"), "{line}");
        assert!(line.contains("execute=2.000ms"), "{line}");
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = QueryTrace::new();
        let v = t.time("plan", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[0].name, "plan");
    }

    #[test]
    fn repeated_stage_names_sum() {
        let mut t = QueryTrace::new();
        t.record("execute", Duration::from_micros(10));
        t.record("execute", Duration::from_micros(5));
        assert_eq!(t.stage("execute"), Some(Duration::from_micros(15)));
    }

    #[test]
    fn span_tree_nests_and_counts() {
        let mut t = QueryTrace::for_query(7);
        t.record("plan", Duration::from_micros(10));
        t.record_span(Span::with_children(
            "execute",
            Duration::from_micros(100),
            vec![Span::with_children(
                "Seq Scan on t",
                Duration::from_micros(80),
                vec![Span::new("worker 0", Duration::from_micros(40))],
            )],
        ));
        assert_eq!(t.query_id(), 7);
        assert_eq!(t.spans().len(), 2, "two top-level stages");
        assert_eq!(t.tree_len(), 4, "four spans in total");
        // Top-level accessors ignore children.
        assert_eq!(t.stage("execute"), Some(Duration::from_micros(100)));
        assert_eq!(t.total(), Duration::from_micros(110));
        let tree = t.render_tree();
        assert!(tree.contains("\n  Seq Scan on t=0.080ms\n"), "{tree}");
        assert!(tree.contains("\n    worker 0=0.040ms\n"), "{tree}");
    }

    #[test]
    fn json_escapes_and_nests() {
        let mut t = QueryTrace::for_query(3);
        t.record_span(Span::with_children(
            "execute",
            Duration::from_micros(9),
            vec![Span::new(
                Cow::Owned("Filter: a = \"x\"\n".to_string()),
                Duration::from_micros(4),
            )],
        ));
        let json = t.to_json();
        assert!(json.starts_with("{\"query_id\":3,\"spans\":["), "{json}");
        assert!(
            json.contains("\\\"x\\\"\\n"),
            "escaped quote+newline: {json}"
        );
        assert!(json.contains("\"children\":[{\"name\":"), "{json}");
    }
}
