//! Spans and counts of the traced run, kept in memory and written out as
//! a Chrome trace-event file when the run ends.
//!
//! Spans are recorded here, in the benchmark, around calls into the
//! layers' public functions; spans inside the program are ROADMAP item 2,
//! which must reproduce these names.

use std::collections::BTreeMap;
use std::time::Instant;

use sjc_core::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One caller, one stack: the benchmark is a single closed loop, so the
/// open spans always nest.
pub struct Recorder {
    /// Off for the untraced passes: `span` then only calls its closure.
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing and reads no clock.
    pub fn off() -> Recorder {
        Recorder { on: false, ..Recorder::new() }
    }

    /// Runs `f` inside a span called `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent });
        self.open.push(id);
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        self.spans[id].start_ns = start.as_nanos() as u64;
        self.spans[id].end_ns = end.as_nanos() as u64;
        out
    }

    /// Adds to a count taken at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if !self.on {
            return;
        }
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum::<u64>() as f64 / 1e6
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph": "X"`) event per span, times in microseconds.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let selfs = self_ns(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                let parent = match s.parent {
                    Some(p) => Json::Str(self.spans[p].name.to_string()),
                    None => Json::Null,
                };
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(layer_of(s.name).to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Float(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj(vec![
                            ("workload", Json::Str(workload.to_string())),
                            ("parent", parent),
                            ("start_ns", Json::Int(s.start_ns)),
                            ("end_ns", Json::Int(s.end_ns)),
                            ("self_us", Json::Float(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        let counts =
            self.counts.iter().map(|(k, v)| (k.to_string(), Json::Float(*v))).collect::<Vec<_>>();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("counts", Json::Obj(counts)),
        ])
    }
}

/// The layer (crate) a span or metric belongs to: its name up to the
/// first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover. Children of one parent never overlap (one
/// caller), so the covered part is the sum of their durations.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("core.local_join", 0, 100, None),
            span("index.filter", 10, 30, Some(0)),
            span("geom.refine", 30, 90, Some(0)),
            span("geom.refine.inner", 40, 50, Some(2)),
            span("alone", 200, 260, None),
        ];
        assert_eq!(self_ns(&spans), vec![20, 20, 50, 10, 60]);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut rec = Recorder::new();
        let v = rec.span("outer", |rec| {
            rec.span("inner", |_| std::hint::black_box(7));
            rec.span("inner", |rec| rec.count("things", 2.0));
            rec.count("things", 3.0);
            1
        });
        assert_eq!(v, 1);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[2].end_ns <= rec.spans[0].end_ns);
        assert_eq!(rec.counted("things"), 5.0);
        let selfs = self_ns(&rec.spans);
        assert_eq!(selfs[0], rec.spans[0].dur_ns() - rec.spans[1].dur_ns() - rec.spans[2].dur_ns());
        assert!((rec.total_ms("inner") - (selfs[1] + selfs[2]) as f64 / 1e6).abs() < 1e-9);
        let trace = rec.chrome_trace("w");
        assert_eq!(trace.get("traceEvents").as_array().map(<[Json]>::len), Some(3));
        assert_eq!(layer_of("index.filter"), "index");

        let mut off = Recorder::off();
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 5)), 5);
        off.count("things", 1.0);
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
