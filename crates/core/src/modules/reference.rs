//! The pre-word-parallel generator kernels.
//!
//! These are the per-bit, per-edge scalar loops the engine shipped with
//! before the word-parallel rewrite: the Backward Generator tests one
//! visited bit per vertex, the Forward Generator claims in raw scan
//! order with no target blocking. They are the **differential oracle**
//! and compile only in
//! test builds: the engine's `#[cfg(test)]` field `reference_kernels`
//! swaps them in, and [`kernel_parity`] runs whole BFS executions
//! through both kernel sets and asserts bit-identical parents, levels,
//! and statistics (word counters normalized), which is the contract the
//! rewrite is held to. Do not "improve" these — their value is that
//! they stay what the seed shipped. They change only where the engine's
//! *rules* changed on purpose, each applied in its plainest form: the
//! min-parent claim ([`RankState::claim_min`]) and the Forward
//! Generator's one record per target per call (a set of the targets
//! already offered).

use super::{ModuleStats, Outboxes};
use crate::hubs::HubState;
use crate::messages::EdgeRec;
use crate::rank::RankState;
use std::collections::HashSet;
use sw_graph::Vid;

/// The seed's Forward Generator: raw scan order, per-edge re-borrow,
/// claims applied inline (under the engine's one claim rule,
/// [`RankState::claim_min`]), and a remote target's first offer the
/// only one sent.
pub fn forward_generator(
    state: &mut RankState,
    hubs: &HubState,
    out: &mut Outboxes,
) -> ModuleStats {
    let mut stats = ModuleStats::default();
    let mut offered: HashSet<Vid> = HashSet::new();
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
            } else if offered.insert(v) {
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
        let mut found: Option<Vid> = None;
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

/// Differential testing of the word-parallel kernels against the seed
/// kernels above.
///
/// The word-parallel rewrite (word-at-a-time frontier/visited sweeps,
/// cache-blocked forward claims, the head column) promises
/// **bit-identical** BFS trees: parents, level maps, and every
/// traversal statistic except the `kernel.*` observability fields,
/// which only the new kernels report. These tests run whole BFS
/// executions through both kernel sets on the shared-memory fabric —
/// across messaging modes, hub counts, row orders and fault schedules —
/// and hold the rewrite to that contract. (The kernels see the same
/// records on the socket fabric, in another order: `tests/order_free.rs`
/// holds every fabric to order-freedom.)
mod kernel_parity {
    use crate::config::{BfsConfig, Messaging};
    use crate::engine::{ClusterBuilder, SharedMem, SuperstepEngine};
    use crate::faults::FaultPlan;
    use crate::result::{BfsOutput, LevelStats};
    use sw_graph::{generate_kronecker, EdgeList, KroneckerConfig, Vid};

    fn graph(scale: u32, seed: u64) -> EdgeList {
        generate_kronecker(&KroneckerConfig::graph500(scale, seed))
    }

    fn good_root(engine: &SuperstepEngine<SharedMem>) -> Vid {
        (0..512.min(engine.num_vertices()))
            .max_by_key(|&v| engine.degree_of(v))
            .unwrap()
    }

    /// The reference kernels predate the `kernel.*` observability
    /// fields, so those are zeroed on both sides before comparing level
    /// stats.
    fn normalized(levels: &[LevelStats]) -> Vec<LevelStats> {
        levels
            .iter()
            .map(|&ls| LevelStats {
                words_scanned: 0,
                words_skipped: 0,
                ..ls
            })
            .collect()
    }

    fn assert_outputs_match(word: &BfsOutput, reference: &BfsOutput, label: &str) {
        assert_eq!(word.parents, reference.parents, "{label}: parents diverged");
        assert_eq!(
            normalized(&word.levels),
            normalized(&reference.levels),
            "{label}: level statistics diverged"
        );
    }

    /// One word-vs-reference comparison: identical graph, root,
    /// transport, and configuration except the kernel selector.
    fn compare(
        el: &EdgeList,
        ranks: u32,
        cfg: BfsConfig,
        fault_plan: Option<FaultPlan>,
        label: &str,
    ) -> BfsOutput {
        let build = || {
            let mut b = ClusterBuilder::new(el, ranks, cfg);
            if let Some(p) = &fault_plan {
                b = b.fault_plan(p.clone());
            }
            b.build().expect("kernel-parity build")
        };
        let mut word = build();
        let mut reference = build();
        reference.reference_kernels = true;
        let root = good_root(&word);
        let out_w = word.run(root).unwrap();
        let out_r = reference.run(root).unwrap();
        assert_outputs_match(&out_w, &out_r, label);
        if fault_plan.is_some() {
            assert_eq!(
                word.injection_trace(),
                reference.injection_trace(),
                "{label}: identical traffic must draw identical injections"
            );
        }
        assert!(
            out_w.levels.iter().any(|ls| ls.words_scanned > 0),
            "{label}: word sweeps never engaged"
        );
        out_w
    }

    /// Scale 14, both messaging modes × faults on/off.
    #[test]
    fn scale_14_full_matrix_shared_mem() {
        let el = graph(14, 21);
        for messaging in [Messaging::Direct, Messaging::Relay] {
            for faults in [None, Some(FaultPlan::lossy(23))] {
                let cfg = BfsConfig::threaded_small(4).with_messaging(messaging);
                let label = format!("shared_mem/{messaging:?}/faults={}", faults.is_some());
                compare(&el, 8, cfg, faults.clone(), &label);
            }
        }
    }

    /// Scale 16 spot check: the acceptance scale, one heavier run.
    #[test]
    fn scale_16_spot_check() {
        let el = graph(16, 42);
        let cfg = BfsConfig::threaded_small(4);
        compare(&el, 8, cfg, None, "shared_mem/scale16");
    }

    /// The paper-style 2^10 Bottom-Up hubs leave most Bottom-Up
    /// neighbours to a query, so the seed Backward Generator's query path
    /// and the Backward Handler are compared too, faults included.
    #[test]
    fn paper_hub_count_agrees() {
        let el = graph(14, 21);
        let cfg = BfsConfig {
            bottom_up_hubs: 1 << 10,
            ..BfsConfig::threaded_small(4)
        };
        let out = compare(&el, 8, cfg, Some(FaultPlan::lossy(23)), "shared_mem/paper_hubs");
        let queries: u64 = out
            .levels
            .iter()
            .filter(|ls| ls.direction == crate::policy::Direction::BottomUp)
            .map(|ls| ls.records_generated)
            .sum();
        assert!(queries > 0, "no Bottom-Up query was compared");
    }

    /// The degree-ordered adjacency refinement reorders neighbour lists
    /// at build; the two kernel sets must still agree over them.
    #[test]
    fn degree_ordered_adjacency_agrees() {
        let el = graph(13, 7);
        let cfg = BfsConfig {
            degree_ordered_adjacency: true,
            ..BfsConfig::threaded_small(4)
        };
        compare(&el, 8, cfg, None, "shared_mem/degree_ordered");
    }

    /// Forced Top-Down (no Bottom-Up levels at all) exercises the
    /// cache-blocked forward path on every level, dense frontiers
    /// included.
    #[test]
    fn forced_top_down_agrees() {
        let el = graph(13, 11);
        let cfg = BfsConfig {
            force_top_down: true,
            ..BfsConfig::threaded_small(4)
        };
        compare(&el, 8, cfg, None, "shared_mem/force_td");
    }
}
