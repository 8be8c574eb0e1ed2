//! The one place exchange/fault/pool counters are named and merged.
//!
//! Every fabric flattens its per-phase [`ExchangeStats`] through
//! [`absorb_exchange`] into an [`sw_trace::CounterSet`], whose per-key
//! merge rule (`max_*`-named keys by maximum, everything else by sum) is
//! the single source of truth: identical traffic yields identical
//! counter sets on every fabric, which `tests/golden_trace.rs` asserts.
//!
//! The module also fixes the span taxonomy — the `name`/`cat` strings
//! every instrumented phase records — so traces from different
//! backends land in the same lanes with the same labels.

use crate::exchange::ExchangeStats;
use sw_trace::{CounterSet, Tracer};

/// Record deliveries counted per network traversal.
pub const EXCHANGE_RECORD_HOPS: &str = "exchange.record_hops";
/// Discrete messages, termination indicators included.
pub const EXCHANGE_MESSAGES: &str = "exchange.messages";
/// Wire bytes (payload + per-message headers).
pub const EXCHANGE_BYTES: &str = "exchange.bytes";
/// Bytes crossing a group (≙ super-node) boundary.
pub const EXCHANGE_INTER_GROUP_BYTES: &str = "exchange.inter_group_bytes";
/// Largest per-rank outgoing message count of any single phase.
pub const EXCHANGE_MAX_SEND_MSGS: &str = "exchange.max_send_msgs_per_rank";
/// Largest per-rank outgoing byte count of any single phase.
pub const EXCHANGE_MAX_SEND_BYTES: &str = "exchange.max_send_bytes_per_rank";
/// Pooled-buffer acquisitions that had to touch the heap.
pub const POOL_ALLOCS: &str = "pool.allocs";
/// Bytes served from retained pooled capacity.
pub const POOL_REUSED_BYTES: &str = "pool.reused_bytes";
/// Re-sends scheduled by the fault layer.
pub const FAULTS_RETRIES: &str = "faults.retries";
/// Faults injected into deliveries.
pub const FAULTS_INJECTED: &str = "faults.injected";
/// Levels delivered under an engaged degradation.
pub const FAULTS_DEGRADED_LEVELS: &str = "faults.degraded_levels";
/// Bitmap words examined by word-parallel generator sweeps.
pub const KERNEL_WORDS_SCANNED: &str = "kernel.words_scanned";
/// Of those, words dismissed with one all-zero compare.
pub const KERNEL_WORDS_SKIPPED: &str = "kernel.words_skipped";
/// Bytes pulled through byte-coded row decoders.
pub const KERNEL_BYTES_DECODED: &str = "kernel.bytes_decoded";
/// Adjacency rows holding a byte-coded copy (recorded once at
/// construction, not per level).
pub const KERNEL_ROWS_COMPRESSED: &str = "kernel.rows_compressed";
/// Bytes made visible through `mmap(2)` when opening graph-store
/// partitions (0 for engines built from edge lists or heap restores).
pub const STORE_BYTES_MAPPED: &str = "store.bytes_mapped";
/// Bytes copied into heap buffers when opening graph-store partitions
/// (0 on the mmap path — the zero-copy assertion reads this key).
pub const STORE_BYTES_COPIED: &str = "store.bytes_copied";
/// Store sections that passed checksum + coherence verification.
pub const STORE_SECTIONS_VERIFIED: &str = "store.sections_verified";
/// Partition files opened from a store directory.
pub const STORE_PARTITIONS_MAPPED: &str = "store.partitions_mapped";

/// Span: one generator module pass (work = records generated).
pub const SPAN_GEN: &str = "gen";
/// Span: one handler module pass (work = records applied).
pub const SPAN_HANDLE: &str = "handle";
/// Span: destination-bucketing counting sort (work = records sorted).
pub const SPAN_BUCKET: &str = "bucket";
/// Span: inbox assembly/delivery (work = records delivered).
pub const SPAN_DELIVER: &str = "deliver";
/// Span: relay forwarding (wall domain only — a transport artifact).
pub const SPAN_RELAY: &str = "relay";
/// Span: one whole BFS level on the run lane.
pub const SPAN_LEVEL: &str = "level";
/// Span: replicated hub bitmap gather (work = gather bytes).
pub const SPAN_HUB_GATHER: &str = "hub_gather";
/// Instant: the fault layer scheduled re-sends (arg = count).
pub const INSTANT_RETRY: &str = "retry";
/// Instant: the fault layer injected faults (arg = count).
pub const INSTANT_FAULT: &str = "fault";

/// Category for module/compute phases.
pub const CAT_COMPUTE: &str = "compute";
/// Category for transport phases.
pub const CAT_NET: &str = "net";
/// Category for collective gathers.
pub const CAT_GATHER: &str = "gather";
/// Category for fault-layer events.
pub const CAT_FAULT: &str = "fault";
/// Category for run-lane aggregates.
pub const CAT_RUN: &str = "run";

/// Opens a span if a tracer is armed (0 otherwise). The disarmed hot
/// path is a single `Option` discriminant check.
#[inline]
pub fn span_begin(t: Option<&Tracer>) -> u64 {
    t.map_or(0, |t| t.begin())
}

/// Closes a span opened with [`span_begin`], ignoring lanes the tracer
/// does not have (a smaller custom tracer simply records less).
#[inline]
pub fn span_end(
    t: Option<&Tracer>,
    lane: usize,
    name: &'static str,
    cat: &'static str,
    level: u32,
    t0: u64,
    work: u64,
) {
    if let Some(t) = t {
        if lane < t.num_lanes() {
            t.end(lane, name, cat, level, t0, work);
        }
    }
}

/// Records an instant if a tracer is armed, same lane guard as
/// [`span_end`].
#[inline]
pub fn mark(
    t: Option<&Tracer>,
    lane: usize,
    name: &'static str,
    cat: &'static str,
    level: u32,
    arg: u64,
) {
    if let Some(t) = t {
        if lane < t.num_lanes() {
            t.instant(lane, name, cat, level, arg);
        }
    }
}

/// THE exchange-stats merge: flattens one phase's [`ExchangeStats`]
/// into `cs` under the registry merge rule. Every backend routes every
/// phase through here — sum fields accumulate, `max_*` fields keep the
/// largest single-phase-single-rank value.
pub fn absorb_exchange(cs: &mut CounterSet, xs: &ExchangeStats) {
    cs.record(EXCHANGE_RECORD_HOPS, xs.record_hops);
    cs.record(EXCHANGE_MESSAGES, xs.messages);
    cs.record(EXCHANGE_BYTES, xs.bytes);
    cs.record(EXCHANGE_INTER_GROUP_BYTES, xs.inter_group_bytes);
    cs.record(EXCHANGE_MAX_SEND_MSGS, xs.max_send_msgs_per_rank);
    cs.record(EXCHANGE_MAX_SEND_BYTES, xs.max_send_bytes_per_rank);
    cs.record(POOL_ALLOCS, xs.pool_allocs);
    cs.record(POOL_REUSED_BYTES, xs.pool_reused_bytes);
    cs.record(FAULTS_RETRIES, xs.retries);
    cs.record(FAULTS_INJECTED, xs.faults_injected);
    cs.record(FAULTS_DEGRADED_LEVELS, xs.degraded_levels);
}

/// The generator-side companion to [`absorb_exchange`]: flattens one
/// level's kernel counters (word-sweep and decoder work) into `cs`.
/// Called unconditionally — zero-valued levels still create the keys,
/// keeping counter sets transport-symmetric.
pub fn absorb_kernel(cs: &mut CounterSet, ls: &crate::result::LevelStats) {
    cs.record(KERNEL_WORDS_SCANNED, ls.words_scanned);
    cs.record(KERNEL_WORDS_SKIPPED, ls.words_skipped);
    cs.record(KERNEL_BYTES_DECODED, ls.bytes_decoded);
}

/// Construction-time storage accounting: what opening (or not opening)
/// a graph store cost. Zero-valued for engines built from edge lists —
/// recorded anyway so counter key sets stay identical across storage
/// backends, exactly like the kernel counters across transports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes made visible through `mmap(2)`.
    pub bytes_mapped: u64,
    /// Bytes copied into heap buffers.
    pub bytes_copied: u64,
    /// Sections that passed checksum + coherence verification.
    pub sections_verified: u64,
    /// Partition files opened.
    pub partitions_mapped: u64,
}

impl StoreStats {
    /// The accounting of one opened store directory: its summed open
    /// costs over `partitions` partition files.
    pub fn opened(s: sw_graph::store::StoreOpenStats, partitions: usize) -> Self {
        Self {
            bytes_mapped: s.bytes_mapped,
            bytes_copied: s.bytes_copied,
            sections_verified: s.sections_verified,
            partitions_mapped: partitions as u64,
        }
    }
}

/// The storage-side companion to [`absorb_exchange`]: flattens store
/// accounting into `cs`. Called once per run on every engine — zero
/// values still create the keys.
pub fn absorb_store(cs: &mut CounterSet, ss: &StoreStats) {
    cs.record(STORE_BYTES_MAPPED, ss.bytes_mapped);
    cs.record(STORE_BYTES_COPIED, ss.bytes_copied);
    cs.record(STORE_SECTIONS_VERIFIED, ss.sections_verified);
    cs.record(STORE_PARTITIONS_MAPPED, ss.partitions_mapped);
}

/// The inverse view: reads the canonical keys back into an
/// [`ExchangeStats`], for callers that still speak the struct.
pub fn exchange_view(cs: &CounterSet) -> ExchangeStats {
    ExchangeStats {
        record_hops: cs.get(EXCHANGE_RECORD_HOPS),
        messages: cs.get(EXCHANGE_MESSAGES),
        bytes: cs.get(EXCHANGE_BYTES),
        inter_group_bytes: cs.get(EXCHANGE_INTER_GROUP_BYTES),
        max_send_msgs_per_rank: cs.get(EXCHANGE_MAX_SEND_MSGS),
        max_send_bytes_per_rank: cs.get(EXCHANGE_MAX_SEND_BYTES),
        pool_allocs: cs.get(POOL_ALLOCS),
        pool_reused_bytes: cs.get(POOL_REUSED_BYTES),
        retries: cs.get(FAULTS_RETRIES),
        faults_injected: cs.get(FAULTS_INJECTED),
        degraded_levels: cs.get(FAULTS_DEGRADED_LEVELS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_keeps_maxima_and_sums_the_rest() {
        let mut cs = CounterSet::new();
        let a = ExchangeStats {
            record_hops: 10,
            messages: 4,
            bytes: 100,
            max_send_msgs_per_rank: 3,
            max_send_bytes_per_rank: 60,
            ..Default::default()
        };
        let b = ExchangeStats {
            record_hops: 5,
            messages: 2,
            bytes: 50,
            max_send_msgs_per_rank: 2,
            max_send_bytes_per_rank: 80,
            ..Default::default()
        };
        absorb_exchange(&mut cs, &a);
        absorb_exchange(&mut cs, &b);
        let v = exchange_view(&cs);
        assert_eq!(v.record_hops, 15);
        assert_eq!(v.messages, 6);
        assert_eq!(v.bytes, 150);
        assert_eq!(v.max_send_msgs_per_rank, 3, "max, not 5");
        assert_eq!(v.max_send_bytes_per_rank, 80, "max, not 140");
    }

    #[test]
    fn view_round_trips_every_field() {
        let xs = ExchangeStats {
            record_hops: 1,
            messages: 2,
            bytes: 3,
            inter_group_bytes: 4,
            max_send_msgs_per_rank: 5,
            max_send_bytes_per_rank: 6,
            pool_allocs: 7,
            pool_reused_bytes: 8,
            retries: 9,
            faults_injected: 10,
            degraded_levels: 11,
        };
        let mut cs = CounterSet::new();
        absorb_exchange(&mut cs, &xs);
        assert_eq!(exchange_view(&cs), xs);
        assert_eq!(cs.len(), 11, "one key per field");
    }
}
