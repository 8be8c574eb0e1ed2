//! The shared-memory transport: ranks as data, records through the
//! pooled [`ExchangeArena`].
//!
//! Every simulated node is a slot in a rank vector, phases run in
//! parallel under rayon, and records move through the arena's two-pass
//! counting-sort pipeline with slot-stable buffer recycling (zero
//! allocations in steady state). It is the default transport of
//! [`super::ClusterBuilder`] and the ground-truth backend for
//! statistics, tracing, and the chaos harness.

use super::transport::Transport;
use crate::arena::ExchangeArena;
use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{Codec, ExchangeStats};
use crate::faults::FaultSession;
use crate::messages::EdgeRec;
use crate::modules::Outboxes;
use sw_net::GroupLayout;
use sw_trace::Tracer;

/// Shared-memory fabric over the pooled exchange arena.
#[derive(Debug, Default)]
pub struct SharedMem {
    arena: Option<ExchangeArena>,
}

impl SharedMem {
    /// A transport ready for [`Transport::setup`].
    pub fn new() -> Self {
        Self::default()
    }

    fn arena(&mut self) -> &mut ExchangeArena {
        self.arena.as_mut().expect("transport used before setup")
    }
}

impl Transport for SharedMem {
    fn name(&self) -> &'static str {
        "shared-mem"
    }

    fn setup(&mut self, num_ranks: usize) {
        self.arena = Some(ExchangeArena::new(num_ranks));
    }

    fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        self.arena().lend_outboxes()
    }

    fn exchange(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> Result<(Vec<Vec<EdgeRec>>, ExchangeStats), ExchangeError> {
        Ok(self.arena().exchange(mode, out, layout, codec))
    }

    fn exchange_faulty(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        self.arena()
            .exchange_faulty(mode, out, layout, codec, session)
    }

    fn recycle_inboxes(&mut self, inboxes: Vec<Vec<EdgeRec>>) {
        self.arena().recycle_inboxes(inboxes);
    }

    fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.arena().set_tracer(tracer);
    }

    fn set_trace_level(&mut self, level: u32) {
        self.arena().set_trace_level(level);
    }
}
