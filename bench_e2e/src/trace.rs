//! Spans around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] times nested spans on one thread, aggregates each span
//! name's count, total and self time (duration minus the time its direct
//! children cover), and keeps the individual spans in memory so they can
//! be written as Chrome trace-event JSON when the run ends. A disabled
//! tracer does no timing at all; the traced run uses one to measure what
//! the spans themselves cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the Chrome trace; aggregation continues past it.
const MAX_EVENTS: usize = 200_000;

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Completed spans.
    pub count: u64,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), in nanoseconds.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    depth: usize,
    request: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Open>,
    request: u64,
    aggs: BTreeMap<&'static str, SpanAgg>,
    events: Vec<Event>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            request: 0,
            aggs: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Tags the spans that follow with a request (or circuit) id.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.stack.push(Open {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur_ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += dur_ns.saturating_sub(open.child_ns);
        if self.events.len() < MAX_EVENTS {
            let start_ns = u64::try_from(open.start.duration_since(self.origin).as_nanos())
                .unwrap_or(u64::MAX);
            self.events.push(Event {
                name: open.name,
                start_ns,
                dur_ns,
                depth: self.stack.len(),
                request: self.request,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Per-name aggregates, sorted by name.
    pub fn aggregates(&self) -> &BTreeMap<&'static str, SpanAgg> {
        &self.aggs
    }

    /// Self time of `name` summed over the run, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e6)
    }

    /// The self-time table: one row per span name, heaviest first.
    pub fn self_time_table(&self, per: f64, per_label: &str) -> String {
        let mut rows: Vec<(&str, SpanAgg)> = self.aggs.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let all_self: u64 = rows.iter().map(|r| r.1.self_ns).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>14} {:>14} {:>7}",
            "span",
            "count",
            format!("self ms/{per_label}"),
            format!("total ms/{per_label}"),
            "self %"
        );
        for (name, agg) in rows {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>14.4} {:>14.4} {:>6.1}%",
                name,
                agg.count,
                agg.self_ns as f64 / 1e6 / per,
                agg.total_ns as f64 / 1e6 / per,
                100.0 * agg.self_ns as f64 / all_self.max(1) as f64
            );
        }
        out
    }

    /// The recorded spans as Chrome trace-event JSON (loads in Perfetto
    /// and `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = e.name.split('.').next().unwrap_or(e.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"request\":{},\"depth\":{}}}}}",
                e.name,
                layer,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3,
                e.request,
                e.depth
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.aggregates()["outer"];
        let inner = t.aggregates()["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(t.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", |_| ());
        assert!(t.aggregates().is_empty());
    }
}
