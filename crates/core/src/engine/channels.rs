//! The channel transport: records genuinely travel between OS threads
//! over crossbeam channels.
//!
//! The SPMD scaffolding a channel backend would duplicate — a per-rank
//! level loop, stat all-reduce broadcasts, hub packet exchange — lives
//! in the engine; this transport does only the fabric's duty: one `Records`
//! message from every rank to every peer per phase (empty ones are the
//! paper's termination indicators), moved over an MPI-like
//! point-to-point mesh by one thread per rank, with the per-rank wire
//! arithmetic the threaded backend's accounting uses, so both fabrics
//! report identical `exchange.*` counters on identical traffic.
//!
//! The mesh is point-to-point regardless of the configured
//! [`Messaging`] mode (there is no relay stage to batch through), so
//! the only in-phase degradation available under faults is disabling
//! compression. Fault schedules are replayed centrally against the
//! engine-owned [`FaultSession`]; injection decisions are pure
//! functions of `(seed, phase, variant, src, dst, attempt)`, so the
//! centralized replay reaches the verdicts the per-rank replay of the
//! old backend reached, message for message.

use super::transport::Transport;
use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{direct_wire_stats, Codec, ExchangeStats};
use crate::faults::{FaultSession, MsgDesc, RetryPolicy};
use crate::instrument as ins;
use crate::messages::EdgeRec;
use crate::modules::Outboxes;
use crossbeam::channel::unbounded;
use sw_net::GroupLayout;
use sw_trace::Tracer;

/// Point-to-point channel fabric with one OS thread per rank per phase.
#[derive(Debug, Default)]
pub struct Channels {
    ranks: usize,
    tracer: Option<Tracer>,
    level: u32,
}

impl Channels {
    /// A transport ready for [`Transport::setup`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the records: one scoped thread per rank sends its boxes to
    /// every peer's channel, then receives exactly `p - 1` packets into
    /// its inbox in arrival order (nondeterministic; the contents are
    /// not — the [`Transport`] contract).
    fn move_records(&self, boxes: Vec<Vec<Vec<EdgeRec>>>) -> Vec<Vec<EdgeRec>> {
        let p = self.ranks;
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded::<Vec<EdgeRec>>();
            txs.push(tx);
            rxs.push(rx);
        }
        let txs = &txs;
        let lvl = self.level;
        std::thread::scope(|scope| {
            let handles: Vec<_> = boxes
                .into_iter()
                .zip(rxs)
                .enumerate()
                .map(|(r, (bs, rx))| {
                    let trace = self.tracer.clone();
                    scope.spawn(move || {
                        for (d, recs) in bs.into_iter().enumerate() {
                            if d != r {
                                // Receivers live until every thread joins,
                                // so the mesh cannot hang up mid-phase.
                                txs[d].send(recs).expect("peer mesh alive inside scope");
                            }
                        }
                        let trace = trace.as_ref();
                        let t0 = ins::span_begin(trace);
                        let mut inbox: Vec<EdgeRec> = Vec::new();
                        for _ in 0..p - 1 {
                            inbox.extend(rx.recv().expect("peer mesh alive inside scope"));
                        }
                        ins::span_end(
                            trace,
                            r,
                            ins::SPAN_DELIVER,
                            ins::CAT_NET,
                            lvl,
                            t0,
                            inbox.len() as u64,
                        );
                        inbox
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

impl Transport for Channels {
    fn name(&self) -> &'static str {
        "channels"
    }

    fn setup(&mut self, num_ranks: usize) {
        assert!(num_ranks > 0, "empty job");
        self.ranks = num_ranks;
    }

    fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        // No buffer pool on this fabric (packets hand their allocation
        // to the receiving thread), so pool counters stay honestly zero.
        (0..self.ranks).map(|_| Outboxes::new(self.ranks)).collect()
    }

    fn exchange(
        &mut self,
        _mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> Result<(Vec<Vec<EdgeRec>>, ExchangeStats), ExchangeError> {
        let boxes: Vec<Vec<Vec<EdgeRec>>> =
            out.into_iter().map(|mut o| o.drain_into_boxes()).collect();
        let stats = direct_wire_stats(&boxes, layout, codec);
        Ok((self.move_records(boxes), stats))
    }

    fn exchange_faulty(
        &mut self,
        _mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        plain: Codec,
        policy: &RetryPolicy,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        let boxes: Vec<Vec<Vec<EdgeRec>>> =
            out.into_iter().map(|mut o| o.drain_into_boxes()).collect();
        // The message set is fixed (point-to-point, every ordered pair,
        // empty boxes still send a termination indicator), in the same
        // deterministic order the arena enumerates Direct transfers.
        let mut msgs = Vec::new();
        for (s, bs) in boxes.iter().enumerate() {
            for (d, recs) in bs.iter().enumerate() {
                if d != s {
                    msgs.push(MsgDesc {
                        src: s as u32,
                        dst: d as u32,
                        records: recs.len() as u64,
                        relay: None,
                    });
                }
            }
        }

        let mut stats = ExchangeStats::default();
        loop {
            let eff_codec = if session.compression_disabled() {
                plain
            } else {
                codec
            };
            let compressed = eff_codec == Codec::Compressed;
            let report = session.deliver_phase(&msgs, policy, compressed);
            if let Some(t) = &self.tracer {
                let lane = t.num_lanes().saturating_sub(1);
                if report.retries > 0 {
                    t.instant(lane, ins::INSTANT_RETRY, ins::CAT_FAULT, self.level, report.retries);
                }
                if report.faults_injected > 0 {
                    t.instant(lane, ins::INSTANT_FAULT, ins::CAT_FAULT, self.level, report.faults_injected);
                }
            }
            stats.retries += report.retries;
            stats.faults_injected += report.faults_injected;
            match report.error {
                None => {
                    let wire = direct_wire_stats(&boxes, layout, eff_codec);
                    stats.absorb(&wire);
                    let inboxes = self.move_records(boxes);
                    session.end_phase();
                    return (Ok(inboxes), stats);
                }
                Some(err) => {
                    // The only repair on a relay-less mesh: a
                    // truncation-dominated failure under compression is
                    // cured by fixed framing (sticky, engages once).
                    if policy.compression_fallback
                        && compressed
                        && report.truncations > 0
                        && !session.compression_disabled()
                    {
                        session.degrade_compression();
                        continue;
                    }
                    session.end_phase();
                    return (Err(err), stats);
                }
            }
        }
    }

    fn recycle_inboxes(&mut self, _inboxes: Vec<Vec<EdgeRec>>) {}

    fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    fn set_trace_level(&mut self, level: u32) {
        self.level = level;
    }
}
