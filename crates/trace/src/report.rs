//! The merged end-of-run artifact and its three exporters.
//!
//! A [`TraceReport`] is a plain value: lane snapshots plus a counter
//! snapshot, tagged with the clock domain. In a virtual domain the
//! whole report — including every exporter's output — is a pure
//! function of the run's input, so golden tests can compare serialized
//! bytes directly.

use crate::json::{escape, us_from_ns};
use crate::metrics::CounterSet;
use crate::tracer::{ClockDomain, EventKind, TraceEvent, NO_LEVEL};

/// One lane's (rank's) recorded events, in claim order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneReport {
    /// Display name (`rank3`, `run`).
    pub name: String,
    /// Published events, in claim order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow on this lane.
    pub dropped: u64,
}

/// The merged trace: every lane plus the counter snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReport {
    /// What the timestamps mean.
    pub domain: ClockDomain,
    /// One entry per lane, in lane order.
    pub lanes: Vec<LaneReport>,
    /// Registry snapshot at report time.
    pub counters: CounterSet,
}

impl TraceReport {
    /// Total events across lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Total overflow drops across lanes.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// The full report as deterministic JSON: domain, lanes with their
    /// events, drop counts, and the counter snapshot. This is the
    /// golden-trace format — byte-identical for identical runs in a
    /// virtual domain.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.total_events() * 96);
        out.push_str("{\n");
        out.push_str(&format!("  \"clock_domain\": \"{}\",\n", self.domain.as_str()));
        out.push_str("  \"lanes\": [\n");
        for (i, lane) in self.lanes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"dropped\": {}, \"events\": [",
                escape(&lane.name),
                lane.dropped
            ));
            for (j, ev) in lane.events.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&event_json(ev));
            }
            out.push_str("]}");
            if i + 1 < self.lanes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": ");
        out.push_str(&indent_object(&self.counters.to_json(), "  "));
        out.push_str("\n}\n");
        out
    }

    /// Chrome `trace_event` JSON: one `pid 0` process, one `tid` per
    /// lane (named via `thread_name` metadata), `ph:"X"` complete
    /// events for spans and `ph:"i"` thread-scoped instants. Times are
    /// microseconds with fixed three-decimal formatting — in virtual
    /// domains 1 µs ≙ 1000 work units, which Perfetto renders fine.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.total_events() * 160);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };
        for (tid, lane) in self.lanes.iter().enumerate() {
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape(&lane.name)
                ),
                &mut out,
            );
        }
        for (tid, lane) in self.lanes.iter().enumerate() {
            for ev in &lane.events {
                let mut args = format!("\"arg\":{}", ev.arg);
                if ev.level != NO_LEVEL {
                    args.push_str(&format!(",\"level\":{}", ev.level));
                }
                let line = match ev.kind {
                    EventKind::Span => format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
                         \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                        escape(ev.name),
                        escape(ev.cat),
                        us_from_ns(ev.ts_ns),
                        us_from_ns(ev.dur_ns),
                    ),
                    EventKind::Instant => format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
                         \"tid\":{tid},\"ts\":{},\"args\":{{{args}}}}}",
                        escape(ev.name),
                        escape(ev.cat),
                        us_from_ns(ev.ts_ns),
                    ),
                };
                emit(line, &mut out);
            }
        }
        out.push_str(&format!(
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock_domain\":\"{}\",\
             \"dropped_events\":{}}}}}\n",
            self.domain.as_str(),
            self.total_dropped()
        ));
        out
    }

    /// Flat metrics snapshot: the counter set plus `trace.events` /
    /// `trace.dropped_events` bookkeeping, as one JSON object.
    pub fn metrics_json(&self) -> String {
        let mut cs = self.counters.clone();
        cs.set("trace.events", self.total_events() as u64);
        cs.set("trace.dropped_events", self.total_dropped());
        let mut s = cs.to_json();
        s.push('\n');
        s
    }
}

fn event_json(ev: &TraceEvent) -> String {
    let kind = match ev.kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
    };
    let mut s = format!(
        "{{\"ts\": {}, \"dur\": {}, \"name\": \"{}\", \"cat\": \"{}\", \"kind\": \"{kind}\"",
        ev.ts_ns,
        ev.dur_ns,
        escape(ev.name),
        escape(ev.cat)
    );
    if ev.level != NO_LEVEL {
        s.push_str(&format!(", \"level\": {}", ev.level));
    }
    s.push_str(&format!(", \"arg\": {}}}", ev.arg));
    s
}

/// Re-indents a `CounterSet::to_json` object so it nests inside an
/// outer object at `pad` depth.
fn indent_object(obj: &str, pad: &str) -> String {
    let mut lines = obj.lines();
    let mut out = String::from(lines.next().unwrap_or("{}"));
    for line in lines {
        out.push('\n');
        out.push_str(pad);
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check_syntax;
    use crate::tracer::{ClockDomain, Tracer};

    fn sample() -> TraceReport {
        let t = Tracer::for_ranks(ClockDomain::VirtualWork, 2, 16);
        t.end(0, "gen", "compute", 0, 0, 10);
        t.end(0, "deliver", "net", 0, 0, 4);
        t.end(1, "gen", "compute", 0, 0, 8);
        t.end(0, "gen", "compute", 1, 0, 3);
        t.instant(t.run_lane(), "retry", "fault", 1, 2);
        t.end(t.run_lane(), "level", "run", 1, 0, 25);
        t.registry().counter("exchange.messages").add(7);
        t.report()
    }

    #[test]
    fn exports_are_valid_json() {
        let rep = sample();
        check_syntax(&rep.to_json()).expect("report json");
        check_syntax(&rep.chrome_trace_json()).expect("chrome json");
        check_syntax(&rep.metrics_json()).expect("metrics json");
    }

    #[test]
    fn chrome_export_names_lanes_and_spans() {
        let chrome = sample().chrome_trace_json();
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("\"rank0\""));
        assert!(chrome.contains("\"run\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"level\":1"));
        assert!(chrome.contains("\"clock_domain\":\"virtual-work\""));
    }

    #[test]
    fn virtual_report_is_byte_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
        assert_eq!(sample().chrome_trace_json(), sample().chrome_trace_json());
    }

    #[test]
    fn metrics_json_includes_bookkeeping() {
        let m = sample().metrics_json();
        assert!(m.contains("\"exchange.messages\": 7"));
        assert!(m.contains("\"trace.events\": 6"));
        assert!(m.contains("\"trace.dropped_events\": 0"));
    }
}
