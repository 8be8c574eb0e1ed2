//! Harness spans: one span around every call from the benchmark into a
//! layer, recorded into the same Wall-domain tracer the program's own
//! spans go to, so one Chrome trace shows both.
//!
//! The tracer's lanes are `rank0..rankN-1` (or `query`, `sweep` for the
//! service), then `harness`, then `run` last — the engine finds its run
//! lane as the last one and its rank lanes by index, so the harness lane
//! in between disturbs neither.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use sw_trace::{ClockDomain, EventKind, TraceEvent, Tracer, NO_LEVEL};

pub const CAT_HARNESS: &str = "harness";

/// The harness's handle on the run's tracer (absent in the untraced pass).
pub struct Harness {
    tracer: Option<Tracer>,
    lane: usize,
    /// Tracer time of [`Harness::mark`]: sums skip earlier spans.
    since: Cell<u64>,
}

impl Harness {
    pub fn untraced() -> Self {
        Self {
            tracer: None,
            lane: 0,
            since: Cell::new(0),
        }
    }

    /// A Wall tracer whose leading lanes are `lanes`, followed by
    /// `harness` and `run`.
    pub fn traced(lanes: &[String], capacity: usize) -> Self {
        let mut names: Vec<&str> = lanes.iter().map(String::as_str).collect();
        names.push("harness");
        names.push("run");
        Self {
            tracer: Some(Tracer::new(ClockDomain::Wall, &names, capacity)),
            lane: lanes.len(),
            since: Cell::new(0),
        }
    }

    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.clone()
    }

    /// Opens a harness span (0 when untraced); close it with [`Self::end`].
    pub fn begin(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::begin)
    }

    pub fn end(&self, name: &'static str, arg: u64, t0: u64) {
        if let Some(t) = &self.tracer {
            t.end(self.lane, name, CAT_HARNESS, NO_LEVEL, t0, arg);
        }
    }

    /// Runs `f` under a harness span; returns its result and seconds.
    pub fn span<R>(&self, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = self.begin();
        let wall = Instant::now();
        let r = f();
        let secs = wall.elapsed().as_secs_f64();
        self.end(name, arg, t0);
        (r, secs)
    }

    /// Starts the measured region: the set-up and warm-up spans before
    /// it stay in the trace file but out of [`Self::sums`].
    pub fn mark(&self) {
        if let Some(t) = &self.tracer {
            self.since.set(t.begin());
        }
    }

    fn measured(&self, ev: &TraceEvent) -> bool {
        ev.kind == EventKind::Span && ev.ts_ns >= self.since.get()
    }

    /// Span durations since the mark, summed by name over every lane:
    /// `(ns, count)`.
    pub fn sums(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        if let Some(t) = &self.tracer {
            for lane in &t.report().lanes {
                for ev in lane.events.iter().filter(|e| self.measured(e)) {
                    let e = out.entry(ev.name).or_default();
                    e.0 += ev.dur_ns;
                    e.1 += 1;
                }
            }
        }
        out
    }

    /// Durations (ns) of every span called `name` since the mark.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let Some(t) = &self.tracer else {
            return Vec::new();
        };
        t.report()
            .lanes
            .iter()
            .flat_map(|l| l.events.iter())
            .filter(|e| self.measured(e) && e.name == name)
            .map(|e| e.dur_ns)
            .collect()
    }

    pub fn dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::dropped_events)
    }

    /// Writes the Chrome `trace_event` file; load it in Perfetto or
    /// `chrome://tracing`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        match &self.tracer {
            Some(t) => std::fs::write(path, t.report().chrome_trace_json()),
            None => Ok(()),
        }
    }
}

/// `ns` summed under `name`, as milliseconds per `per` items.
pub fn ms_per(sums: &BTreeMap<&'static str, (u64, u64)>, name: &str, per: u64) -> f64 {
    sums.get(name)
        .map_or(0.0, |&(ns, _)| ns as f64 / 1e6 / per.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_lane_sits_between_rank_lanes_and_run_lane() {
        let h = Harness::traced(&["rank0".into(), "rank1".into()], 64);
        let t = h.tracer().unwrap();
        assert_eq!(t.lane_name(2), "harness");
        assert_eq!(t.lane_name(t.run_lane()), "run");
        let ((), secs) = h.span("step", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        let sums = h.sums();
        assert_eq!(sums["step"].1, 1);
        assert!(sums["step"].0 >= 2_000_000);
        assert!(ms_per(&sums, "step", 1) >= 2.0);
        assert_eq!(ms_per(&sums, "absent", 1), 0.0);
        assert_eq!(h.durations("step").len(), 1);
        h.mark();
        assert!(
            h.sums().is_empty(),
            "spans before the mark are not measured"
        );
        h.span("step", 0, || ());
        assert_eq!(h.sums()["step"].1, 1);
    }

    #[test]
    fn untraced_harness_still_times() {
        let h = Harness::untraced();
        let (v, secs) = h.span("step", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(h.sums().is_empty() && h.tracer().is_none());
    }
}
