//! The span/event recording front end.
//!
//! A [`Tracer`] owns one [`EventRing`] per *lane* (a rank, plus by
//! convention one trailing `run` lane for cluster-wide phases), a
//! clock-domain tag, and a counter [`Registry`]. It is `Clone` (a
//! cheap `Arc` handle) and `Sync`: rank threads and parallel closures
//! record into their own lanes concurrently, wait-free.
//!
//! ## Clock domains
//!
//! * [`ClockDomain::Wall`] — `begin()` samples a monotonic clock;
//!   `end()` stores real elapsed nanoseconds. For profiling real runs;
//!   timestamps are *not* reproducible.
//! * The virtual domains ([`ClockDomain::VirtualWork`],
//!   [`ClockDomain::CycleSim`], [`ClockDomain::EventSim`]) — each lane
//!   carries a cursor; `end()` *charges* the span's work units to the
//!   cursor (`ts = cursor, dur = work, cursor += work`). Given
//!   deterministic instrumentation (work derived from record/edge
//!   counts, simulator cycles, or model nanoseconds — never from real
//!   time), the whole trace is a pure function of the input: fixed
//!   seed ⇒ byte-identical export. The domain tag records what one
//!   unit means; the mechanics are identical.
//!
//! Instrumentation charging transport-*invariant* work (records
//! generated, records delivered, edges scanned) makes virtual traces
//! comparable — even byte-identical — across message transports that
//! deliver the same records differently.

use crate::metrics::Registry;
use crate::report::{LaneReport, TraceReport};
use crate::ring::EventRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `level` value for events not tied to a BFS level.
pub const NO_LEVEL: u32 = u32::MAX;

/// What timestamps mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Real monotonic nanoseconds (profiling; not reproducible).
    Wall,
    /// Deterministic work units charged by the instrumentation
    /// (records, edges); bit-reproducible.
    VirtualWork,
    /// sw-arch cycle-simulator cycles; bit-reproducible.
    CycleSim,
    /// sw-net event-simulator model nanoseconds; bit-reproducible.
    EventSim,
}

impl ClockDomain {
    /// Stable identifier used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ClockDomain::Wall => "wall",
            ClockDomain::VirtualWork => "virtual-work",
            ClockDomain::CycleSim => "cycle-sim",
            ClockDomain::EventSim => "event-sim",
        }
    }
}

/// Span (duration) vs instant (point) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase with a duration (Chrome `ph:"X"`).
    Span,
    /// A point marker (Chrome `ph:"i"`).
    Instant,
}

/// One recorded event. `name`/`cat` are `'static` so recording never
/// allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start timestamp (ns or virtual units).
    pub ts_ns: u64,
    /// Duration (0 for instants).
    pub dur_ns: u64,
    /// Phase name (e.g. `gen`, `bucket`, `deliver`, `relay`).
    pub name: &'static str,
    /// Category (e.g. `compute`, `net`, `gather`, `fault`).
    pub cat: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// BFS level, or [`NO_LEVEL`].
    pub level: u32,
    /// Free payload: work units, record count, byte count.
    pub arg: u64,
}

struct Lane {
    name: String,
    ring: EventRing,
    /// Virtual-domain clock cursor.
    cursor: AtomicU64,
}

struct Inner {
    domain: ClockDomain,
    epoch: Instant,
    lanes: Vec<Lane>,
    registry: Registry,
}

/// Cheaply clonable recording handle; see the module docs.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// A tracer with one ring of `capacity` events per named lane.
    pub fn new(domain: ClockDomain, lane_names: &[&str], capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                domain,
                epoch: Instant::now(),
                lanes: lane_names
                    .iter()
                    .map(|n| Lane {
                        name: (*n).to_string(),
                        ring: EventRing::new(capacity),
                        cursor: AtomicU64::new(0),
                    })
                    .collect(),
                registry: Registry::new(),
            }),
        }
    }

    /// The conventional cluster layout: lanes `rank0..rankN-1` plus a
    /// trailing `run` lane for cluster-wide phases.
    pub fn for_ranks(domain: ClockDomain, ranks: usize, capacity: usize) -> Self {
        let names: Vec<String> = (0..ranks)
            .map(|r| format!("rank{r}"))
            .chain(std::iter::once("run".to_string()))
            .collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        Self::new(domain, &refs, capacity)
    }

    /// This tracer's clock domain.
    pub fn domain(&self) -> ClockDomain {
        self.inner.domain
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.inner.lanes.len()
    }

    /// Lane `i`'s display name.
    pub fn lane_name(&self, i: usize) -> &str {
        &self.inner.lanes[i].name
    }

    /// The index of the trailing `run` lane under the [`Self::for_ranks`]
    /// convention.
    pub fn run_lane(&self) -> usize {
        self.num_lanes() - 1
    }

    /// The shared counter registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Opens a span: returns the wall timestamp (ns since the tracer's
    /// epoch), or 0 in virtual domains (the close charges the cursor).
    #[inline]
    pub fn begin(&self) -> u64 {
        match self.inner.domain {
            ClockDomain::Wall => self.now_ns(),
            _ => 0,
        }
    }

    /// Closes a span opened with [`Self::begin`] onto `lane`.
    ///
    /// Wall domain: `ts = t0`, `dur = now - t0`. Virtual domains:
    /// `ts = lane cursor`, `dur = work`, cursor advances by `work`.
    /// `work` is always stored in [`TraceEvent::arg`].
    pub fn end(&self, lane: usize, name: &'static str, cat: &'static str, level: u32, t0: u64, work: u64) {
        let l = &self.inner.lanes[lane];
        let (ts, dur) = match self.inner.domain {
            ClockDomain::Wall => (t0, self.now_ns().saturating_sub(t0)),
            _ => (l.cursor.fetch_add(work, Ordering::Relaxed), work),
        };
        l.ring.push(TraceEvent {
            ts_ns: ts,
            dur_ns: dur,
            name,
            cat,
            kind: EventKind::Span,
            level,
            arg: work,
        });
    }

    /// Records a point event at the lane's current time (wall now, or
    /// the virtual cursor without advancing it).
    pub fn instant(&self, lane: usize, name: &'static str, cat: &'static str, level: u32, arg: u64) {
        let l = &self.inner.lanes[lane];
        let ts = match self.inner.domain {
            ClockDomain::Wall => self.now_ns(),
            _ => l.cursor.load(Ordering::Relaxed),
        };
        l.ring.push(TraceEvent {
            ts_ns: ts,
            dur_ns: 0,
            name,
            cat,
            kind: EventKind::Instant,
            level,
            arg,
        });
    }

    /// Records a span with explicit timestamps — for replaying model
    /// time (cycle-sim / event-sim nanoseconds) into a lane. Does not
    /// move the lane cursor.
    #[allow(clippy::too_many_arguments)]
    pub fn span_at(
        &self,
        lane: usize,
        name: &'static str,
        cat: &'static str,
        level: u32,
        ts: u64,
        dur: u64,
        arg: u64,
    ) {
        self.inner.lanes[lane].ring.push(TraceEvent {
            ts_ns: ts,
            dur_ns: dur,
            name,
            cat,
            kind: EventKind::Span,
            level,
            arg,
        });
    }

    /// Advances `lane`'s virtual cursor without recording (idle gaps).
    pub fn advance(&self, lane: usize, units: u64) {
        self.inner.lanes[lane].cursor.fetch_add(units, Ordering::Relaxed);
    }

    /// Total events dropped on ring overflow, across lanes.
    pub fn dropped_events(&self) -> u64 {
        self.inner.lanes.iter().map(|l| l.ring.dropped()).sum()
    }

    /// Events dropped on ring overflow in one lane — the cheap
    /// accessor behind the live exporter's per-rank drop gauges
    /// (unlike [`Tracer::report`], no event cloning).
    pub fn lane_dropped(&self, lane: usize) -> u64 {
        self.inner.lanes[lane].ring.dropped()
    }

    /// Events currently recorded in one lane.
    pub fn lane_recorded(&self, lane: usize) -> usize {
        self.inner.lanes[lane].ring.len()
    }

    /// Total events currently recorded, across lanes.
    pub fn recorded_events(&self) -> usize {
        self.inner.lanes.iter().map(|l| l.ring.len()).sum()
    }

    /// Merges every lane into a [`TraceReport`] (non-destructive):
    /// events in claim order per lane, plus a registry snapshot.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            domain: self.inner.domain,
            lanes: self
                .inner
                .lanes
                .iter()
                .map(|l| LaneReport {
                    name: l.name.clone(),
                    events: l.ring.snapshot(),
                    dropped: l.ring.dropped(),
                })
                .collect(),
            counters: self.inner.registry.snapshot(),
        }
    }

    /// Clears every lane, cursor and registry cell for a fresh run.
    /// Quiescent-only, like [`EventRing::reset`].
    pub fn reset(&self) {
        for l in &self.inner.lanes {
            l.ring.reset();
            l.cursor.store(0, Ordering::Relaxed);
        }
        self.inner.registry.reset();
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("domain", &self.inner.domain)
            .field("lanes", &self.num_lanes())
            .field("recorded", &self.recorded_events())
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_spans_charge_the_lane_cursor() {
        let t = Tracer::new(ClockDomain::VirtualWork, &["a", "b"], 16);
        let t0 = t.begin();
        t.end(0, "gen", "compute", 0, t0, 10);
        let t1 = t.begin();
        t.end(0, "handle", "compute", 0, t1, 5);
        t.end(1, "gen", "compute", 0, 0, 7);
        let rep = t.report();
        let a = &rep.lanes[0].events;
        assert_eq!((a[0].ts_ns, a[0].dur_ns), (0, 10));
        assert_eq!((a[1].ts_ns, a[1].dur_ns), (10, 5));
        assert_eq!(rep.lanes[1].events[0].ts_ns, 0, "lanes have private cursors");
    }

    #[test]
    fn wall_spans_measure_real_time() {
        let t = Tracer::new(ClockDomain::Wall, &["a"], 16);
        let t0 = t.begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(0, "work", "compute", NO_LEVEL, t0, 42);
        let ev = t.report().lanes[0].events[0];
        assert!(ev.dur_ns >= 1_000_000, "slept 2ms, measured {}", ev.dur_ns);
        assert_eq!(ev.arg, 42, "work units still recorded as arg");
    }

    #[test]
    fn for_ranks_layout_and_reset() {
        let t = Tracer::for_ranks(ClockDomain::VirtualWork, 3, 4);
        assert_eq!(t.num_lanes(), 4);
        assert_eq!(t.lane_name(0), "rank0");
        assert_eq!(t.lane_name(t.run_lane()), "run");
        t.end(0, "x", "c", 0, 0, 1);
        t.instant(t.run_lane(), "mark", "fault", 2, 9);
        t.registry().counter("n").incr();
        assert_eq!(t.recorded_events(), 2);
        t.reset();
        assert_eq!(t.recorded_events(), 0);
        assert_eq!(t.report().counters.get("n"), 0);
        let t0 = t.begin();
        t.end(0, "x", "c", 0, t0, 3);
        assert_eq!(t.report().lanes[0].events[0].ts_ns, 0, "cursor reset");
    }

    #[test]
    fn instants_do_not_advance_the_cursor() {
        let t = Tracer::new(ClockDomain::VirtualWork, &["a"], 8);
        t.end(0, "s", "c", 0, 0, 4);
        t.instant(0, "i", "fault", 0, 1);
        t.end(0, "s2", "c", 0, 0, 2);
        let evs = t.report().lanes[0].events.clone();
        assert_eq!(evs[1].ts_ns, 4);
        assert_eq!(evs[2].ts_ns, 4, "instant did not consume time");
    }
}
