//! The pluggable message-fabric seam of the superstep engine.
//!
//! [`Transport`] is the narrow waist between the BFS lifecycle (owned by
//! [`super::SuperstepEngine`]) and the fabric that carries edge records
//! between ranks. The engine drives every transport through the same
//! five-step contract — setup, per-phase exchange, faulty exchange under
//! the fault layer's one verdict, inbox recycling, teardown — so a new fabric
//! (sharded, async, net-model-coupled) plugs in without a third copy of
//! the level loop.

use crate::config::Messaging;
use crate::error::ExchangeError;
use crate::exchange::{Codec, ExchangeStats};
use crate::faults::{FaultSession, RetryPolicy};
use crate::messages::EdgeRec;
use crate::modules::Outboxes;
use sw_net::GroupLayout;
use sw_trace::Tracer;

/// A message fabric the [`super::SuperstepEngine`] can run the BFS over.
///
/// Implementations move one phase's records from per-source outboxes to
/// per-destination inboxes and report the wire traffic the move cost.
/// The engine owns everything else: partitioning, the direction policy,
/// generators/handlers, fault-session lifecycle, span taxonomy, and the
/// single [`crate::instrument::absorb_exchange`] counter-merge path.
///
/// Contract:
///
/// * **Determinism of content, not order** — identical outbox contents
///   must yield inboxes holding identical *multisets* of records and
///   identical [`ExchangeStats`], independent of thread scheduling. The
///   order within an inbox is the fabric's own (arrival order is fine):
///   the engine's handlers are order-free — the Forward Handler claims
///   min-parent, the Backward Handler sorts its replies — so no fabric
///   sorts.
/// * **One verdict, one delivery** — [`Transport::exchange_faulty`]
///   stages the records, takes the armed session's
///   `FaultSession::verdict` (the one place that decides a phase's
///   message set, its order and the sticky degradations — a fabric
///   without a relay stage asks for [`Messaging::Direct`]), delivers
///   once under the winning (mode, codec), and closes the phase with
///   `FaultSession::end_phase` exactly once, on every path. Wire stats
///   count the successful delivery only; fault tallies are reported on
///   success *and* failure.
/// * **Re-delivery without regeneration** — every retry, degradation
///   and re-encode (compressed → fixed) of a phase is served from the
///   records the transport staged once; the BFS generators never run
///   again for the phase (a socket keeps the record batches, not the
///   bytes it wrote). Pinned by `tests/socket_teardown.rs` and the chaos
///   suite: a truncate/drop-heavy survivable run reports per-level
///   `edges_scanned`/`records_generated` identical to the fault-free
///   oracle.
/// * **Pool honesty** — [`ExchangeStats::pool_allocs`] /
///   [`ExchangeStats::pool_reused_bytes`] report real buffer-pool
///   behaviour. A transport without a pool reports zeroes.
pub trait Transport: Send {
    /// Short stable identifier (used in reports and conformance tests).
    fn name(&self) -> &'static str;

    /// Called once by the engine after construction, before any
    /// exchange, with the job size. Implementations size their buffer
    /// pools / meshes here.
    fn setup(&mut self, num_ranks: usize);

    /// Checks out one outbox per source rank for the coming phase.
    /// Pooled transports hand out recycled buffers; pool-less ones
    /// allocate fresh.
    fn lend_outboxes(&mut self) -> Vec<Outboxes>;

    /// Delivers one phase: `out[s]`'s records travel to their
    /// destination ranks. Returns per-destination inboxes (give them
    /// back via [`Transport::recycle_inboxes`]) plus the phase's wire
    /// stats.
    ///
    /// In-process fabrics are infallible here; a fabric backed by real
    /// OS resources (the socket transport) surfaces peer death or wire
    /// corruption as a structured [`ExchangeError`] even with no fault
    /// plan armed — never a hang, never a panic.
    fn exchange(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
    ) -> Result<(Vec<Vec<EdgeRec>>, ExchangeStats), ExchangeError>;

    /// [`Transport::exchange`] under an armed fault session: the
    /// session's `FaultSession::verdict` replays the phase's
    /// deterministic injection/retry schedule first and engages sticky
    /// degradations (compression disable, relay→direct where the fabric
    /// has a relay stage) on terminal failures; only the winning variant
    /// delivers. `plain` is the codec degraded compression falls back
    /// to. Stats carry the fault tallies even when the result is `Err`.
    #[allow(clippy::too_many_arguments)]
    fn exchange_faulty(
        &mut self,
        mode: Messaging,
        out: Vec<Outboxes>,
        layout: &GroupLayout,
        codec: Codec,
        plain: Codec,
        policy: &RetryPolicy,
        session: &mut FaultSession,
    ) -> (Result<Vec<Vec<EdgeRec>>, ExchangeError>, ExchangeStats);

    /// Returns inbox buffers once the handlers are done with them, so a
    /// pooled transport can recycle the capacity. Pool-less transports
    /// drop them.
    fn recycle_inboxes(&mut self, inboxes: Vec<Vec<EdgeRec>>);

    /// Arms (or disarms with `None`) span recording on the transport's
    /// internal passes (bucket/deliver spans on rank lanes, fault
    /// instants on the run lane).
    fn set_tracer(&mut self, tracer: Option<Tracer>);

    /// Tags subsequently recorded spans with BFS level `level`.
    fn set_trace_level(&mut self, level: u32);

    /// Called when the owning engine is dropped or rebuilt. Default:
    /// nothing to tear down.
    fn teardown(&mut self) {}
}
