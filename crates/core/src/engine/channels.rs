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
//! [`Messaging`] mode (there is no relay stage to batch through). Under
//! faults the fabric takes the engine-owned [`FaultSession`]'s one
//! `verdict` over Direct traffic — so disabling
//! compression is the only degradation that can engage — and moves the
//! records once, under the winning codec, through the same delivery
//! step as a clean exchange.

use super::transport::Transport;
use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{direct_wire_stats, drain_boxes, Codec, ExchangeStats};
use crate::faults::{FaultSession, RetryPolicy};
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

    /// The one delivery step of both exchange paths: the point-to-point
    /// wire arithmetic, then the records moved under `codec`.
    fn deliver(
        &self,
        boxes: Vec<Vec<Vec<EdgeRec>>>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> (Vec<Vec<EdgeRec>>, ExchangeStats) {
        let stats = direct_wire_stats(&boxes, layout, codec);
        (self.move_records(boxes), stats)
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
        Ok(self.deliver(drain_boxes(out), layout, codec))
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
        let boxes = drain_boxes(out);
        // The mesh has no relay stage to fall back from: the verdict is
        // taken over Direct traffic.
        let (verdict, mut stats) = session.verdict(
            Messaging::Direct,
            layout,
            |s, d| boxes[s][d].len() as u64,
            codec,
            plain,
            policy,
            self.tracer.as_ref(),
            self.level,
        );
        let result = verdict.map(|(_, codec)| {
            let (inboxes, wire) = self.deliver(boxes, layout, codec);
            stats.absorb(&wire);
            inboxes
        });
        session.end_phase();
        (result, stats)
    }

    fn recycle_inboxes(&mut self, _inboxes: Vec<Vec<EdgeRec>>) {}

    fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    fn set_trace_level(&mut self, level: u32) {
        self.level = level;
    }
}
