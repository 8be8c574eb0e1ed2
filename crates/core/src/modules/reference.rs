//! The pre-word-parallel generator kernels, preserved verbatim.
//!
//! These are the per-bit, per-edge scalar loops the engine shipped with
//! before the word-parallel rewrite: the Backward Generator tests one
//! visited bit per vertex, the Forward Generator claims in raw scan
//! order with no target blocking, and neither touches the byte-coded
//! sidecar. They remain wired in as the **differential oracle**:
//! `tests/kernel_parity.rs` runs whole BFS executions through both
//! kernel sets and asserts bit-identical parents, levels, and
//! statistics (word counters normalized), which is the contract the
//! rewrite is held to.
//!
//! Selected at run time via
//! [`BfsConfig::reference_kernels`](crate::config::BfsConfig); never
//! the default. Do not "improve" these — their value is that they stay
//! exactly what the seed shipped.

use super::{ModuleStats, Outboxes};
use crate::hubs::HubState;
use crate::messages::EdgeRec;
use crate::rank::RankState;

/// The seed's Forward Generator: raw scan order, per-edge re-borrow,
/// claims applied inline (under the engine's one claim rule,
/// [`RankState::claim_min`]).
pub fn forward_generator(
    state: &mut RankState,
    hubs: &HubState,
    out: &mut Outboxes,
) -> ModuleStats {
    let mut stats = ModuleStats::default();
    let frontier: Vec<usize> = state.curr.iter().collect();
    for u_local in frontier {
        let u = state.global(u_local);
        // Neighbour list borrowed per edge to keep `claim` callable.
        let deg = state.csr.degree_local(u_local) as usize;
        for e in 0..deg {
            let v = state.csr.neighbors_local(u_local)[e];
            stats.edges_scanned += 1;
            if let Some(idx) = hubs.hub_index(v) {
                if idx < hubs.td_limit && hubs.is_visited(idx) {
                    stats.hub_skips += 1;
                    continue;
                }
            }
            if state.owns(v) {
                let vl = state.local(v);
                if state.claim_min(vl, u) {
                    stats.local_claims += 1;
                }
            } else {
                out.push(state.part.owner(v), EdgeRec { u, v });
                stats.records_out += 1;
            }
        }
    }
    stats
}

/// The seed's Backward Generator: one visited-bit test per vertex, the
/// three resolution tiers inline.
pub fn backward_generator(
    state: &mut RankState,
    hubs: &HubState,
    out: &mut Outboxes,
) -> ModuleStats {
    let mut stats = ModuleStats::default();
    let mut queries: Vec<EdgeRec> = Vec::new();
    for v_local in 0..state.owned() {
        if state.visited(v_local) {
            continue;
        }
        let v = state.global(v_local);
        queries.clear();
        let mut found: Option<sw_graph::Vid> = None;
        let deg = state.csr.degree_local(v_local) as usize;
        for e in 0..deg {
            let u = state.csr.neighbors_local(v_local)[e];
            stats.edges_scanned += 1;
            if state.owns(u) {
                if state.curr.contains(state.local(u)) {
                    found = Some(u);
                    break;
                }
            } else if let Some(idx) = hubs.hub_index(u) {
                if hubs.in_frontier(idx) {
                    found = Some(u);
                    break;
                }
                // Hub not in frontier: authoritative no — skip the query.
                stats.hub_skips += 1;
            } else {
                queries.push(EdgeRec { u, v });
            }
        }
        if let Some(u) = found {
            state.claim(v_local, u);
            stats.local_claims += 1;
        } else {
            for q in &queries {
                out.push(state.part.owner(q.u), *q);
                stats.records_out += 1;
            }
        }
    }
    stats
}
