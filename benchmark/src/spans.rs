//! Benchmark-side spans: wall-clock intervals recorded around the calls
//! into each layer, kept in memory and written as Chrome-trace JSON when
//! the run ends. Spans inside the program under test are a later change.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Module the timed call belongs to (`server::proto`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Free-form qualifier (structure label, request kind).
    pub detail: &'static str,
    /// Request id shared by every span of one request (0 = none).
    pub req: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Track (thread / connection) the span is drawn on.
    pub track: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Self {
        Spans { t0: Instant::now(), spans: Vec::new() }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span on track 0 with no request id.
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        detail: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span { layer, name, detail, req: 0, parent, track: 0, start_ns, end_ns: 0 })
    }

    /// Close a span opened with [`Spans::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a complete span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append another recorder's spans (taken on the same clock), shifting
    /// their parent links.
    pub fn extend(&mut self, other: Vec<Span>) {
        let base = self.spans.len();
        self.spans
            .extend(other.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }

    /// Every recorded span, in record order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// child spans cover (children of one span never overlap here: each
    /// is a sequential call).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome-trace JSON of the first `limit` spans (complete `X` events,
    /// microsecond timestamps; `args` carry layer, request id, parent and
    /// self time).
    pub fn chrome_json(&self, limit: usize) -> String {
        let own = self.self_times_ns();
        let mut out = String::with_capacity(self.spans.len().min(limit) * 160 + 64);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"req\":{},\
                 \"detail\":\"{}\",\"self_us\":{:.3}}}}}",
                s.name,
                s.layer,
                s.track,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.req,
                s.detail,
                own[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { layer: "l", name: "n", detail: "", req: 7, parent, track: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new();
        let root = s.push(span(None, 0, 100));
        let a = s.push(span(Some(root), 10, 40));
        s.push(span(Some(a), 15, 25));
        s.push(span(Some(root), 50, 70));
        assert_eq!(s.self_times_ns(), vec![50, 20, 10, 20]);
    }

    #[test]
    fn chrome_json_reparses_and_honours_the_limit() {
        let mut s = Spans::new();
        let root = s.push(span(None, 0, 2_000));
        s.push(span(Some(root), 500, 1_500));
        s.push(span(None, 3_000, 4_000));
        let v = serde_json::parse_value_str(&s.chrome_json(2)).expect("valid JSON");
        let serde::Value::Array(events) = v.field("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].field("args").unwrap().field("parent").unwrap(),
            &serde::Value::UInt(0)
        );
    }
}
