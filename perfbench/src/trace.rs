//! In-memory spans recorded around calls into the engine's layers, their
//! self-time arithmetic, and export as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark itself, around public API calls;
//! nothing inside the engine is instrumented.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval: `[start, end)` relative to the log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `conv` or `session.execute_hit`.
    pub name: String,
    /// Start, relative to the log's origin.
    pub start: Duration,
    /// End, relative to the log's origin.
    pub end: Duration,
    /// The span this one was called from.
    pub parent: Option<SpanId>,
    /// The sampled frame the span belongs to.
    pub frame: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Append-only span store. Spans stay in memory until [`SpanLog::chrome_json`]
/// writes them out.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose time origin is now.
    pub fn new() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, frame: u64) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span { name: name.to_owned(), start: now, end: now, parent, frame });
        self.spans.len() - 1
    }

    /// Closes `id` now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = now;
        span.duration()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        frame: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, frame);
        let r = f();
        self.close(id);
        r
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of `id`.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = (SpanId, &Span)> {
        self.spans.iter().enumerate().filter(move |(_, s)| s.parent == Some(id))
    }

    /// Self time of `id`: its duration minus the part of its interval that
    /// its direct children cover (overlapping children count once).
    pub fn self_time(&self, id: SpanId) -> Duration {
        let span = &self.spans[id];
        let covered: Vec<(Duration, Duration)> =
            self.children(id).map(|(_, c)| (c.start, c.end)).collect();
        span.duration().saturating_sub(covered_within(span.start, span.end, covered))
    }

    /// Sum of self times over every descendant of `id` (not `id` itself).
    pub fn descendant_self_time(&self, id: SpanId) -> Duration {
        self.children(id).map(|(c, _)| self.self_time(c) + self.descendant_self_time(c)).sum()
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph":"X"`) event
    /// per span on a single track, so nesting shows as a flame chart.
    pub fn chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
            json_string(process_name)
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"frame\":{}}}}}",
                json_string(&s.name),
                json_string(s.name.split(['.', ':']).next().unwrap_or("")),
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                s.frame
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_within(
    lo: Duration,
    hi: Duration,
    mut intervals: Vec<(Duration, Duration)>,
) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// A log with hand-placed spans.
    fn log(spans: &[(&str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let mut l = SpanLog::new();
        for &(name, s, e, parent) in spans {
            l.spans.push(Span {
                name: name.to_owned(),
                start: ms(s),
                end: ms(e),
                parent,
                frame: 0,
            });
        }
        l
    }

    #[test]
    fn self_time_subtracts_children() {
        let l = log(&[("frame", 0, 100, None), ("a", 10, 40, Some(0)), ("b", 50, 60, Some(0))]);
        assert_eq!(l.self_time(0), ms(60));
        assert_eq!(l.self_time(1), ms(30));
        assert_eq!(l.descendant_self_time(0), ms(40));
    }

    #[test]
    fn overlapping_children_count_once() {
        let l = log(&[("p", 0, 100, None), ("a", 10, 50, Some(0)), ("b", 30, 70, Some(0))]);
        assert_eq!(l.self_time(0), ms(40));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let l = log(&[("p", 20, 80, None), ("a", 0, 30, Some(0)), ("b", 70, 200, Some(0))]);
        assert_eq!(l.self_time(0), ms(40));
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let l = log(&[
            ("frame", 0, 100, None),
            ("residual", 0, 50, Some(0)),
            ("conv", 10, 30, Some(1)),
            ("relu", 50, 100, Some(0)),
        ]);
        assert_eq!(l.self_time(0), ms(0));
        assert_eq!(l.self_time(1), ms(30));
        assert_eq!(l.self_time(2), ms(20));
        // Every instant of the frame is attributed exactly once.
        assert_eq!(l.descendant_self_time(0), ms(100));
    }

    #[test]
    fn chrome_export_is_complete_events() {
        let l = log(&[("frame", 0, 2, None), ("conv", 1, 2, Some(0))]);
        let json = l.chrome_json("perfbench \"x\"");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"conv\",\"cat\":\"conv\",\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1000.000,\"dur\":1000.000"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("perfbench \\\"x\\\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn recorded_spans_nest_in_time() {
        let mut l = SpanLog::new();
        let outer = l.open("outer", None, 3);
        l.time("inner", Some(outer), 3, || std::thread::sleep(ms(2)));
        l.close(outer);
        let s = l.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(s[1].duration() >= ms(2));
        assert_eq!(s[1].frame, 3);
    }
}
