//! [`Reordering`], a test-only fabric that permutes every inbox a real
//! fabric returns — by a seeded shuffle, or by reversal — before the
//! caller sees it. Shared by the engine's and the analytics kernels'
//! order-freedom batteries (each `mod`s this file).

use sw_net::GroupLayout;
use sw_trace::Tracer;
use swbfs_core::config::Messaging;
use swbfs_core::engine::Transport;
use swbfs_core::error::ExchangeError;
use swbfs_core::exchange::{Codec, ExchangeStats};
use swbfs_core::faults::FaultSession;
use swbfs_core::messages::EdgeRec;
use swbfs_core::modules::Outboxes;

/// How [`Reordering`] permutes an inbox.
#[derive(Clone, Copy, Debug)]
pub enum Permute {
    /// Fisher-Yates from a seeded LCG that advances across exchanges.
    Shuffle(u64),
    Reverse,
}

/// A test-only fabric: `inner` moves the records, then every inbox it
/// returns is permuted.
pub struct Reordering<T> {
    pub inner: T,
    pub permute: Permute,
}

impl<T: Transport> Reordering<T> {
    fn permute(&mut self, inboxes: &mut [Vec<EdgeRec>]) {
        for inbox in inboxes {
            match &mut self.permute {
                Permute::Reverse => inbox.reverse(),
                Permute::Shuffle(x) => {
                    for i in (1..inbox.len()).rev() {
                        *x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        inbox.swap(i, (*x >> 33) as usize % (i + 1));
                    }
                }
            }
        }
    }
}

impl<T: Transport> Transport for Reordering<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, num_ranks: usize) {
        self.inner.setup(num_ranks);
    }

    fn lend_outboxes(&mut self) -> Vec<Outboxes> {
        self.inner.lend_outboxes()
    }

    fn exchange(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> Result<(Vec<Vec<EdgeRec>>, ExchangeStats), ExchangeError> {
        let (mut inboxes, stats) = self.inner.exchange(mode, out, layout, codec)?;
        self.permute(&mut inboxes);
        Ok((inboxes, stats))
    }

    fn exchange_faulty(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats) {
        let (mut result, stats) = self
            .inner
            .exchange_faulty(mode, out, layout, codec, session);
        if let Ok(inboxes) = &mut result {
            self.permute(inboxes);
        }
        (result, stats)
    }

    fn recycle_inboxes(&mut self, inboxes: Vec<Vec<EdgeRec>>) {
        self.inner.recycle_inboxes(inboxes);
    }

    fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.inner.set_tracer(tracer);
    }

    fn set_trace_level(&mut self, level: u32) {
        self.inner.set_trace_level(level);
    }

    fn teardown(&mut self) {
        self.inner.teardown();
    }
}
