//! Property tests for the socket-fabric framing layer: arbitrary record
//! batches must round-trip through the length-prefixed codec under any
//! read splitting, torn final frames must surface as structured errors
//! (which the transport maps to `ExchangeError::Protocol`), and no
//! input — aligned, torn, or pure noise — may panic the decoder or make
//! it deliver a partial frame. Every typed payload of the kind table
//! round-trips, and every malformed one is refused with an error.

use proptest::prelude::*;
use sw_net::framing::{
    BusyFrame, Frame, FrameDecoder, FrameError, PayloadReader, QueryFrame, QueryOp, QueryStatus,
    ResultFrame, StatsFormat, StatsFrame, StatsReqFrame, TelemFrame, FLAG_COMPRESSED,
    FRAME_HEADER_BYTES, FRAME_MAGIC, KINDS, KIND_BUSY, KIND_QUERY, KIND_RESULT, KIND_STATS,
    KIND_STATS_REQ, KIND_TELEM,
};
use sw_trace::live::{HistogramSnapshot, LatencyHistogram};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-driven batch of frames shaped like real exchange traffic:
/// control frames, empty termination indicators, record payloads of
/// assorted sizes (some "compressed"-flagged), spread over ranks and
/// phases.
fn frame_batch(seed: u64) -> Vec<Frame> {
    let mut st = seed;
    let n = 1 + (splitmix(&mut st) % 12) as usize;
    (0..n)
        .map(|_| {
            let len = match splitmix(&mut st) % 4 {
                0 => 0,
                1 => (splitmix(&mut st) % 9) as usize,
                2 => (splitmix(&mut st) % 300) as usize,
                _ => (splitmix(&mut st) % 5000) as usize,
            };
            Frame {
                kind: 1 + (splitmix(&mut st) % 9) as u8,
                flags: if splitmix(&mut st).is_multiple_of(2) { FLAG_COMPRESSED } else { 0 },
                phase: (splitmix(&mut st) % 1000) as u32,
                src: (splitmix(&mut st) % 64) as u32,
                dst: (splitmix(&mut st) % 64) as u32,
                payload: (0..len).map(|_| splitmix(&mut st) as u8).collect(),
            }
        })
        .collect()
}

/// A seed-driven batch of *query-service* frames (QUERY/RESULT/BUSY/
/// STATS_REQ/STATS typed payloads), shaped like a real client session:
/// questions with assorted operations and deadlines interleaved with
/// answers, shed notices, and telemetry polls.
fn service_batch(seed: u64) -> Vec<Frame> {
    let mut st = seed ^ 0x5EED;
    let n = 1 + (splitmix(&mut st) % 10) as usize;
    (0..n)
        .map(|_| match splitmix(&mut st) % 5 {
            3 => StatsReqFrame {
                id: splitmix(&mut st),
                format: if splitmix(&mut st).is_multiple_of(2) {
                    StatsFormat::Json
                } else {
                    StatsFormat::Prometheus
                },
            }
            .into_frame(),
            4 => {
                let len = (splitmix(&mut st) % 2000) as usize;
                StatsFrame {
                    id: splitmix(&mut st),
                    format: if splitmix(&mut st).is_multiple_of(2) {
                        StatsFormat::Json
                    } else {
                        StatsFormat::Prometheus
                    },
                    body: (0..len).map(|_| splitmix(&mut st) as u8).collect(),
                }
                .into_frame()
            }
            0 => QueryFrame {
                id: splitmix(&mut st),
                op: match splitmix(&mut st) % 3 {
                    0 => QueryOp::Distance,
                    1 => QueryOp::Reachable,
                    _ => QueryOp::KHop,
                },
                root: splitmix(&mut st),
                target: splitmix(&mut st),
                hops: (splitmix(&mut st) % 32) as u32,
                deadline_ms: (splitmix(&mut st) % 10_000) as u32,
            }
            .into_frame(),
            1 => ResultFrame {
                id: splitmix(&mut st),
                status: match splitmix(&mut st) % 3 {
                    0 => QueryStatus::Ok,
                    1 => QueryStatus::Timeout,
                    _ => QueryStatus::BadQuery,
                },
                value: splitmix(&mut st),
                batch_roots: (splitmix(&mut st) % 65) as u32,
                micros: splitmix(&mut st) % 1_000_000_000,
            }
            .into_frame(),
            _ => BusyFrame {
                id: splitmix(&mut st),
                queue_depth: (splitmix(&mut st) % 4096) as u32,
                queue_limit: (splitmix(&mut st) % 4096) as u32,
            }
            .into_frame(),
        })
        .collect()
}

/// A seed-driven frame of `kind` built by its typed encoder, for the
/// six kinds that have one (the five service payloads and the rank
/// daemon's report).
fn typed_sample(kind: u8, seed: u64) -> Option<Frame> {
    let mut st = seed ^ u64::from(kind);
    let mut next = || splitmix(&mut st);
    let format = if next().is_multiple_of(2) {
        StatsFormat::Json
    } else {
        StatsFormat::Prometheus
    };
    Some(match kind {
        KIND_TELEM => {
            let mut hist = HistogramSnapshot::default();
            for b in hist.buckets.iter_mut() {
                *b = next() % 1000;
            }
            hist.sum = next();
            hist.max = next();
            TelemFrame {
                torn: next() as u32,
                resets: next() as u32,
                deferred: next() as u32,
                hist,
                frames: next(),
                bytes: next(),
            }
            .into_frame()
        }
        KIND_QUERY => QueryFrame {
            id: next(),
            op: [QueryOp::Distance, QueryOp::Reachable, QueryOp::KHop][(next() % 3) as usize],
            root: next(),
            target: next(),
            hops: next() as u32,
            deadline_ms: next() as u32,
        }
        .into_frame(),
        KIND_RESULT => ResultFrame {
            id: next(),
            status: [QueryStatus::Ok, QueryStatus::Timeout, QueryStatus::BadQuery]
                [(next() % 3) as usize],
            value: next(),
            batch_roots: next() as u32,
            micros: next(),
        }
        .into_frame(),
        KIND_BUSY => BusyFrame {
            id: next(),
            queue_depth: next() as u32,
            queue_limit: next() as u32,
        }
        .into_frame(),
        KIND_STATS_REQ => StatsReqFrame { id: next(), format }.into_frame(),
        KIND_STATS => {
            let len = (next() % 64) as usize;
            StatsFrame {
                id: next(),
                format,
                body: (0..len).map(|_| next() as u8).collect(),
            }
            .into_frame()
        }
        _ => return None,
    })
}

/// `f` through the typed decoder of `kind`, re-encoded so the result
/// compares as a frame.
fn typed_decode(kind: u8, f: &Frame) -> Result<Frame, &'static str> {
    match kind {
        KIND_TELEM => TelemFrame::from_frame(f).map(TelemFrame::into_frame),
        KIND_QUERY => QueryFrame::from_frame(f).map(QueryFrame::into_frame),
        KIND_RESULT => ResultFrame::from_frame(f).map(ResultFrame::into_frame),
        KIND_BUSY => BusyFrame::from_frame(f).map(BusyFrame::into_frame),
        KIND_STATS_REQ => StatsReqFrame::from_frame(f).map(StatsReqFrame::into_frame),
        KIND_STATS => StatsFrame::from_frame(f).map(StatsFrame::into_frame),
        other => panic!("kind {other} has no typed decoder"),
    }
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        f.encode_into(&mut wire);
    }
    wire
}

/// Decodes an already-fed decoder to exhaustion.
fn drain(d: &mut FrameDecoder) -> Vec<Frame> {
    let mut got = Vec::new();
    while let Some(f) = d.next_frame().expect("well-formed stream") {
        got.push(f);
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip under seed-driven chunked delivery: however the wire
    /// bytes are split into reads, the same frames come out in order
    /// and the stream finishes clean.
    #[test]
    fn round_trip_survives_arbitrary_read_chunking(seed in 0u64..u64::MAX) {
        let frames = frame_batch(seed);
        let wire = encode_all(&frames);
        let mut st = seed ^ 0xC0_FFEE;
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        while pos < wire.len() {
            let take = 1 + (splitmix(&mut st) as usize) % 97;
            let end = (pos + take).min(wire.len());
            d.extend(&wire[pos..end]);
            got.extend(drain(&mut d));
            pos = end;
        }
        prop_assert_eq!(got, frames);
        prop_assert!(d.finish().is_ok());
    }

    /// A stream cut at *every* byte boundary: the complete prefix of
    /// frames is delivered, no partial frame ever escapes, and a cut
    /// that is not a frame boundary reports `Truncated` on EOF.
    #[test]
    fn every_cut_point_yields_prefix_or_structured_truncation(seed in 0u64..u64::MAX) {
        // Small batch so the per-byte scan stays cheap.
        let frames: Vec<Frame> = frame_batch(seed)
            .into_iter()
            .take(3)
            .map(|mut f| { f.payload.truncate(40); f })
            .collect();
        let wire = encode_all(&frames);
        // Frame boundary offsets.
        let mut bounds = vec![0usize];
        for f in &frames {
            bounds.push(bounds.last().unwrap() + f.wire_len());
        }
        for cut in 0..=wire.len() {
            let mut d = FrameDecoder::new();
            d.extend(&wire[..cut]);
            let got = drain(&mut d);
            // Delivered frames are exactly the fully-contained prefix.
            let complete = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(got.len(), complete);
            prop_assert_eq!(&got[..], &frames[..complete]);
            if bounds.contains(&cut) {
                prop_assert!(d.finish().is_ok(), "cut {} is a boundary", cut);
            } else {
                let fin = d.finish();
                prop_assert!(
                    matches!(fin, Err(FrameError::Truncated { .. })),
                    "cut {} must be a torn frame, got {:?}", cut, fin
                );
            }
        }
    }

    /// Arbitrary noise never panics: the decoder either parses frames
    /// (only possible if the noise happens to start with the magic) or
    /// returns a structured error, and `finish` is always callable.
    #[test]
    fn noise_never_panics_and_never_delivers_partial_frames(seed in 0u64..u64::MAX) {
        let mut st = seed;
        let len = (splitmix(&mut st) % 4096) as usize;
        let noise: Vec<u8> = (0..len).map(|_| splitmix(&mut st) as u8).collect();
        let mut d = FrameDecoder::new();
        d.extend(&noise);
        loop {
            match d.next_frame() {
                Ok(Some(f)) => {
                    // Anything parsed must have had a full header + payload.
                    prop_assert!(f.wire_len() >= FRAME_HEADER_BYTES);
                }
                Ok(None) => break,
                Err(_) => break, // structured corruption verdict
            }
        }
        let _ = d.finish();
    }

    /// QUERY/RESULT/BUSY frames round-trip *typed* under arbitrary read
    /// chunking: whatever splits the socket produces, every frame comes
    /// back with its kind intact and its payload decoding to the exact
    /// typed value that was sent.
    #[test]
    fn service_frames_round_trip_typed_under_chunking(seed in 0u64..u64::MAX) {
        let frames = service_batch(seed);
        let wire = encode_all(&frames);
        let mut st = seed ^ 0xFACE;
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        while pos < wire.len() {
            let take = 1 + (splitmix(&mut st) as usize) % 61;
            let end = (pos + take).min(wire.len());
            d.extend(&wire[pos..end]);
            got.extend(drain(&mut d));
            pos = end;
        }
        prop_assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(&frames) {
            prop_assert_eq!(g.kind, f.kind);
            match f.kind {
                KIND_QUERY => prop_assert_eq!(
                    QueryFrame::from_frame(g).unwrap(),
                    QueryFrame::from_frame(f).unwrap()
                ),
                KIND_RESULT => prop_assert_eq!(
                    ResultFrame::from_frame(g).unwrap(),
                    ResultFrame::from_frame(f).unwrap()
                ),
                KIND_BUSY => prop_assert_eq!(
                    BusyFrame::from_frame(g).unwrap(),
                    BusyFrame::from_frame(f).unwrap()
                ),
                KIND_STATS_REQ => prop_assert_eq!(
                    StatsReqFrame::from_frame(g).unwrap(),
                    StatsReqFrame::from_frame(f).unwrap()
                ),
                KIND_STATS => prop_assert_eq!(
                    StatsFrame::from_frame(g).unwrap(),
                    StatsFrame::from_frame(f).unwrap()
                ),
                other => prop_assert!(false, "unexpected kind {}", other),
            }
        }
        prop_assert!(d.finish().is_ok());
    }

    /// A service stream cut at every byte boundary: complete frames of
    /// the prefix are delivered and typed-decodable, a cut inside a
    /// frame is a structured `Truncated` on EOF, and no partial QUERY/
    /// RESULT/BUSY payload ever reaches a typed decoder.
    #[test]
    fn torn_service_frames_are_structured_not_partial(seed in 0u64..u64::MAX) {
        let frames: Vec<Frame> = service_batch(seed).into_iter().take(3).collect();
        let wire = encode_all(&frames);
        let mut bounds = vec![0usize];
        for f in &frames {
            bounds.push(bounds.last().unwrap() + f.wire_len());
        }
        for cut in 0..=wire.len() {
            let mut d = FrameDecoder::new();
            d.extend(&wire[..cut]);
            let got = drain(&mut d);
            let complete = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            prop_assert_eq!(got.len(), complete);
            for (g, f) in got.iter().zip(&frames) {
                // Whatever arrived complete decodes exactly; a typed
                // decoder never sees a torn payload because the framing
                // layer withholds incomplete frames entirely.
                prop_assert_eq!(g, f);
                match g.kind {
                    KIND_QUERY => prop_assert!(QueryFrame::from_frame(g).is_ok()),
                    KIND_RESULT => prop_assert!(ResultFrame::from_frame(g).is_ok()),
                    KIND_BUSY => prop_assert!(BusyFrame::from_frame(g).is_ok()),
                    KIND_STATS_REQ => prop_assert!(StatsReqFrame::from_frame(g).is_ok()),
                    KIND_STATS => prop_assert!(StatsFrame::from_frame(g).is_ok()),
                    _ => {}
                }
            }
            if bounds.contains(&cut) {
                prop_assert!(d.finish().is_ok());
            } else {
                prop_assert!(matches!(d.finish(), Err(FrameError::Truncated { .. })));
            }
        }
    }

    /// Every typed payload of the kind table round-trips; every strict
    /// prefix, every one-byte extension and every wrong kind is refused
    /// with the table's error — never a panic. A kind with a trailing
    /// body (STATS) takes any length from its prefix on: those cuts and
    /// extensions decode to the shorter or longer body.
    #[test]
    fn every_typed_kind_round_trips_and_refuses_malformed_payloads(seed in 0u64..u64::MAX) {
        let mut typed = 0;
        for k in KINDS {
            let Some(f) = typed_sample(k.kind, seed) else { continue };
            typed += 1;
            prop_assert_eq!(f.kind, k.kind);
            prop_assert!(typed_decode(k.kind, &f) == Ok(f.clone()), "{} round trip", k.wrong_kind);
            let n = f.payload.len();
            prop_assert!(n == k.len || (k.body && n >= k.len), "{} sample length", k.wrong_kind);
            for cut in 0..n {
                let mut short = f.clone();
                short.payload.truncate(cut);
                let got = typed_decode(k.kind, &short);
                if k.body && cut >= k.len {
                    prop_assert!(got == Ok(short), "{} body cut {}", k.wrong_kind, cut);
                } else {
                    prop_assert!(got == Err(k.wrong_len), "{} prefix {}", k.wrong_kind, cut);
                }
            }
            let mut long = f.clone();
            long.payload.push(seed as u8);
            let got = typed_decode(k.kind, &long);
            if k.body {
                prop_assert!(got == Ok(long), "{} extension", k.wrong_kind);
            } else {
                prop_assert!(got == Err(k.wrong_len), "{} extension", k.wrong_kind);
            }
            for other in KINDS.iter().filter(|o| o.kind != k.kind) {
                let mut relabelled = f.clone();
                relabelled.kind = other.kind;
                prop_assert_eq!(typed_decode(k.kind, &relabelled), Err(k.wrong_kind));
            }
        }
        prop_assert_eq!(typed, 6);
    }

    /// The report's histogram survives the wire exactly, so merging the
    /// parent's copies commutes with the codec: decode(encode(a))
    /// merged with b equals a merged with b. Samples are shaped like
    /// phase latencies: mostly small, a heavy tail, rare extremes that
    /// reach the overflow bucket.
    #[test]
    fn telem_histogram_round_trips_and_commutes_with_merge(seed in 0u64..u64::MAX) {
        let mut st = seed;
        let mut sample = || {
            let h = LatencyHistogram::new();
            for _ in 0..splitmix(&mut st) % 200 {
                let v = match splitmix(&mut st) % 10 {
                    0..=6 => splitmix(&mut st) % 10_000,
                    7 | 8 => splitmix(&mut st) % 10_000_000,
                    _ => splitmix(&mut st),
                };
                h.record(v);
            }
            h.snapshot()
        };
        let (a, b) = (sample(), sample());
        let report = TelemFrame { hist: a, ..TelemFrame::default() };
        let a2 = TelemFrame::from_frame(&report.into_frame()).unwrap().hist;
        prop_assert_eq!(a2, a);
        let (mut direct, mut via_wire) = (a, a2);
        direct.merge(&b);
        via_wire.merge(&b);
        prop_assert_eq!(direct, via_wire);
    }

    /// Flipping any single header byte of a lone frame is detected: the
    /// decode either errors (magic/oversize), comes back incomplete
    /// (longer length announced), or yields a frame that differs — it
    /// never silently yields the original frame.
    #[test]
    fn header_corruption_cannot_impersonate_the_original(seed in 0u64..u64::MAX) {
        let f = &frame_batch(seed)[0];
        let wire = f.encode();
        for i in 0..FRAME_HEADER_BYTES {
            let mut bad = wire.clone();
            bad[i] ^= 0x5A;
            let mut d = FrameDecoder::new();
            d.extend(&bad);
            match d.next_frame() {
                Ok(Some(g)) => prop_assert_ne!(&g, f),
                Ok(None) => {
                    // Length grew: EOF must then report the tear.
                    prop_assert!(d.finish().is_err());
                }
                Err(FrameError::BadMagic { found }) => prop_assert_ne!(found, FRAME_MAGIC),
                Err(_) => {}
            }
        }
    }
}

/// Deterministic spot check: the documented header layout is the wire
/// layout (offset-for-offset), so an independent implementation (the
/// rank daemon is a separate OS process) can rely on the table in the
/// module docs.
#[test]
fn header_layout_matches_the_documented_table() {
    let f = Frame {
        kind: 5,
        flags: FLAG_COMPRESSED,
        phase: 0x0A0B_0C0D,
        src: 3,
        dst: 9,
        payload: vec![0xEE; 4],
    };
    let w = f.encode();
    assert_eq!(&w[0..4], &FRAME_MAGIC.to_le_bytes());
    assert_eq!(w[4], 5);
    assert_eq!(w[5], FLAG_COMPRESSED);
    assert_eq!(&w[6..10], &0x0A0B_0C0Du32.to_le_bytes());
    assert_eq!(&w[10..14], &3u32.to_le_bytes());
    assert_eq!(&w[14..18], &9u32.to_le_bytes());
    assert_eq!(&w[18..22], &4u32.to_le_bytes());
    assert_eq!(&w[22..], &[0xEE; 4]);
    assert_eq!(w.len(), f.wire_len());
}

/// The payload reader's one shape check, over every kind of the table:
/// the kind's own length passes, one byte short is refused, one byte
/// long is refused unless a body may follow, and every other kind is
/// refused — with the table's errors.
#[test]
fn payload_reader_checks_every_kind_against_the_table() {
    for k in KINDS {
        let frame = |kind: u8, len: usize| Frame {
            payload: vec![0; len],
            ..Frame::control(kind, 0, 0, 0)
        };
        assert!(
            PayloadReader::typed(&frame(k.kind, k.len), k.kind).is_ok(),
            "{}",
            k.wrong_kind
        );
        if k.len > 0 {
            let short = PayloadReader::typed(&frame(k.kind, k.len - 1), k.kind).map(|_| ());
            assert_eq!(short, Err(k.wrong_len), "{} short", k.wrong_kind);
        }
        let long = PayloadReader::typed(&frame(k.kind, k.len + 1), k.kind).map(|_| ());
        let want = if k.body { Ok(()) } else { Err(k.wrong_len) };
        assert_eq!(long, want, "{}", k.wrong_kind);
        for other in KINDS.iter().filter(|o| o.kind != k.kind) {
            let wrong = PayloadReader::typed(&frame(other.kind, k.len), k.kind).map(|_| ());
            assert_eq!(
                wrong,
                Err(k.wrong_kind),
                "{} as {}",
                other.wrong_kind,
                k.wrong_kind
            );
        }
    }
}
