//! Multi-writer races against [`EventRing`] at adversarially tiny
//! capacities.
//!
//! The ring's contract under contention is exact, not best-effort:
//!
//! 1. **Conservation** — every push is either recorded or counted as a
//!    drop: `recorded + dropped == total pushes`, at every capacity
//!    including 0 and 1.
//! 2. **No torn events** — each writer encodes every field of its
//!    events as a fixed function of the timestamp; a reader that
//!    observes a published slot must see all fields from the *same*
//!    push (a mix of two writers' fields would break the function).
//! 3. **Well-formed exports** — a tracer whose lanes were hammered
//!    concurrently past overflow still renders a syntactically valid
//!    JSON report with the drop tally surfaced.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use sw_trace::ring::EventRing;
use sw_trace::{check_syntax, ClockDomain, EventKind, TraceEvent, Tracer};

/// Every field derived from `ts`: tearing any one of them breaks the
/// relation the verifier checks.
fn sealed_event(ts: u64) -> TraceEvent {
    TraceEvent {
        ts_ns: ts,
        dur_ns: ts.wrapping_mul(13).wrapping_add(5),
        name: "race",
        cat: "test",
        kind: EventKind::Span,
        level: (ts % 97) as u32,
        arg: ts.wrapping_mul(31).wrapping_add(7),
    }
}

fn assert_sealed(e: &TraceEvent) {
    let ts = e.ts_ns;
    assert_eq!(e.dur_ns, ts.wrapping_mul(13).wrapping_add(5), "torn dur");
    assert_eq!(e.level, (ts % 97) as u32, "torn level");
    assert_eq!(e.arg, ts.wrapping_mul(31).wrapping_add(7), "torn arg");
    assert_eq!(e.name, "race");
    assert_eq!(e.cat, "test");
}

fn hammer(capacity: usize, writers: u64, pushes_per_writer: u64) {
    let ring = Arc::new(EventRing::new(capacity));
    let threads: Vec<_> = (0..writers)
        .map(|w| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let mut accepted = 0u64;
                for i in 0..pushes_per_writer {
                    // Unique ts per (writer, i) so duplicates would be
                    // visible too.
                    if ring.push(sealed_event(w * pushes_per_writer + i + 1)) {
                        accepted += 1;
                    }
                }
                accepted
            })
        })
        .collect();
    let accepted: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();

    let total = writers * pushes_per_writer;
    let snap = ring.snapshot();
    assert_eq!(
        snap.len() as u64 + ring.dropped(),
        total,
        "capacity {capacity}: every push recorded or counted"
    );
    assert_eq!(
        accepted,
        snap.len() as u64,
        "capacity {capacity}: push return values agree with the snapshot"
    );
    assert_eq!(
        snap.len(),
        capacity.min(total as usize),
        "capacity {capacity}: ring fills exactly to capacity"
    );
    let mut seen = std::collections::HashSet::new();
    for e in &snap {
        assert_sealed(e);
        assert!(seen.insert(e.ts_ns), "duplicate event ts {}", e.ts_ns);
    }
}

#[test]
fn tiny_capacities_conserve_events_and_never_tear() {
    for capacity in [0usize, 1, 2, 3, 5, 8] {
        hammer(capacity, 4, 500);
    }
}

#[test]
fn large_overflow_under_heavy_contention() {
    hammer(64, 8, 10_000);
}

#[test]
fn concurrent_reader_sees_only_sealed_events() {
    // A reader snapshotting *while* writers are mid-push must only ever
    // observe fully published events — never a half-written slot.
    //
    // The writers start only after the reader's first snapshot (the
    // barrier), and none finishes before the reader has completed a
    // snapshot that began after every writer had started (the
    // handshake), so the overlap is guaranteed, not left to the
    // scheduler: on one CPU the writers could otherwise finish before
    // the reader ever ran.
    const WRITERS: u64 = 3;
    let ring = Arc::new(EventRing::new(7));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(WRITERS as usize + 1));
    let started = Arc::new(AtomicU64::new(0));
    let overlapped = Arc::new(AtomicU64::new(0));

    let reader = {
        let (ring, stop, start) = (Arc::clone(&ring), Arc::clone(&stop), Arc::clone(&start));
        let (started, overlapped) = (Arc::clone(&started), Arc::clone(&overlapped));
        thread::spawn(move || {
            let mut snapshots = 0u64;
            loop {
                let after_every_start = started.load(Ordering::Acquire) == WRITERS;
                for e in ring.snapshot() {
                    assert_sealed(&e);
                }
                snapshots += 1;
                if snapshots == 1 {
                    start.wait();
                }
                if after_every_start {
                    overlapped.fetch_add(1, Ordering::Release);
                }
                if stop.load(Ordering::Relaxed) {
                    return snapshots;
                }
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
            let (started, overlapped) = (Arc::clone(&started), Arc::clone(&overlapped));
            thread::spawn(move || {
                start.wait();
                started.fetch_add(1, Ordering::Release);
                for i in 0..20_000u64 {
                    ring.push(sealed_event(w * 20_000 + i + 1));
                }
                // Bounded, so a reader that died on an assertion fails
                // the test through its join instead of hanging it.
                let deadline = Instant::now() + Duration::from_secs(60);
                while overlapped.load(Ordering::Acquire) == 0 && Instant::now() < deadline {
                    thread::yield_now();
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "reader actually ran");
    assert!(
        overlapped.load(Ordering::Acquire) > 0,
        "reader completed a snapshot after every writer started"
    );
    assert_eq!(ring.snapshot().len() as u64 + ring.dropped(), WRITERS * 20_000);
}

#[test]
fn reset_between_fill_cycles_keeps_the_contract() {
    let ring = EventRing::new(3);
    for cycle in 0..10u64 {
        for i in 0..6u64 {
            ring.push(sealed_event(cycle * 100 + i + 1));
        }
        assert_eq!(ring.snapshot().len(), 3);
        assert_eq!(ring.dropped(), 3);
        for e in ring.snapshot() {
            assert_sealed(&e);
            assert!(e.ts_ns > cycle * 100, "stale event from a prior cycle");
        }
        ring.reset();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }
}

#[test]
fn overflowed_tracer_still_exports_well_formed_reports() {
    // Tiny per-lane capacity, hammered concurrently from one thread per
    // lane (the tracer's lane discipline), far past overflow.
    let lanes = 4usize;
    let tracer = Tracer::for_ranks(ClockDomain::VirtualWork, lanes, 8);
    let threads: Vec<_> = (0..lanes)
        .map(|lane| {
            let tracer = tracer.clone();
            thread::spawn(move || {
                for i in 0..1_000u64 {
                    let t0 = tracer.begin();
                    tracer.end(lane, "gen", "compute", (i % 11) as u32, t0, i + 1);
                    tracer.instant(lane, "retry", "fault", (i % 11) as u32, i);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    assert!(tracer.dropped_events() > 0, "overflow actually happened");
    assert_eq!(
        tracer.recorded_events() as u64 + tracer.dropped_events(),
        (lanes as u64) * 2_000,
        "tracer-level conservation across all lanes"
    );

    let rep = tracer.report();
    let json = rep.to_json();
    check_syntax(&json).expect("overflowed report still valid JSON");
    assert!(
        json.contains("\"dropped\": 1992"),
        "per-lane drop tally surfaced in the export"
    );
    let chrome = rep.chrome_trace_json();
    check_syntax(&chrome).expect("chrome export still valid JSON");
    assert!(
        chrome.contains(&format!("\"dropped_events\":{}", tracer.dropped_events())),
        "total drop tally surfaced in the chrome export"
    );
}
