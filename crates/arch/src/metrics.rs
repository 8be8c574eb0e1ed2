//! Counter exports for the chip simulator under the `arch.` namespace.
//!
//! The simulator's report structs ([`CycleReport`],
//! [`ShuffleReport`], [`Spm`]) stay the
//! public API; this module maps them onto [`sw_trace::CounterSet`] keys
//! so modeled runs land in the same metrics snapshot as the BFS
//! backends' `exchange.*`/`faults.*` counters. Fractional quantities
//! (simulated nanoseconds, GB/s) are scaled to integers losslessly
//! enough for regression tracking: times truncate to whole nanoseconds,
//! rates are published in MB/s.

use crate::config::ChipConfig;
use crate::cyclesim::CycleReport;
use crate::dma::DmaEngine;
use crate::shuffle::ShuffleReport;
use crate::spm::Spm;
use sw_trace::CounterSet;

/// Adds a mesh cycle-sim outcome: cycles and deliveries sum across
/// phases, peak in-flight occupancy merges by maximum.
pub fn publish_cycle_report(cs: &mut CounterSet, rep: &CycleReport) {
    cs.add("arch.mesh.cycles", rep.cycles);
    cs.add("arch.mesh.flits_delivered", rep.delivered);
    cs.record("arch.mesh.max_in_flight", rep.peak_in_flight as u64);
    cs.record(
        "arch.mesh.max_throughput_mbps",
        (rep.throughput_gbps * 1000.0) as u64,
    );
}

/// Derived mesh utilization for bottleneck attribution: achieved
/// throughput as a permille of one register link's line rate, and
/// delivered flits per kilocycle. Both merge by maximum — a run's
/// utilization is its busiest phase, not an average diluted by idle
/// ones.
pub fn publish_mesh_utilization(cs: &mut CounterSet, cfg: &ChipConfig, rep: &CycleReport) {
    let link = cfg.reg_link_gbps();
    if link > 0.0 {
        cs.record(
            "arch.mesh.max_util_permille",
            (rep.throughput_gbps / link * 1000.0) as u64,
        );
    }
    if let Some(per_kcycle) = (rep.delivered * 1000).checked_div(rep.cycles) {
        cs.record("arch.mesh.max_flits_per_kcycle", per_kcycle);
    }
}

/// Adds a shuffle run: moved bytes and simulated time sum, the busiest
/// register link's flit count merges by maximum.
pub fn publish_shuffle_report<T>(cs: &mut CounterSet, rep: &ShuffleReport<T>) {
    cs.add("arch.shuffle.moved_bytes", rep.moved_bytes);
    cs.add("arch.shuffle.elapsed_ns", rep.elapsed_ns as u64);
    cs.add("arch.shuffle.routes_checked", rep.routes_checked as u64);
    cs.record("arch.shuffle.max_link_flits", rep.max_link_flits);
}

/// Records one CPE's scratch-pad pressure: the high-water mark of bytes
/// in use and the allocation count (capacity is a gauge-style set).
pub fn publish_spm(cs: &mut CounterSet, spm: &Spm) {
    cs.record("arch.spm.max_in_use_bytes", spm.in_use() as u64);
    cs.add("arch.spm.allocs", spm.allocations().len() as u64);
    cs.set("arch.spm.capacity_bytes", spm.capacity() as u64);
}

/// Records the DMA model's calibration points (Figure 3/5 anchors):
/// saturated cluster bandwidth and single-CPE streaming rate at the
/// 256 B knee, in MB/s. Constant for a given chip config, so `set`.
pub fn publish_dma(cs: &mut CounterSet, dma: &DmaEngine) {
    cs.set(
        "arch.dma.cluster_peak_mbps",
        (dma.cluster_gbps(256, 64) * 1000.0) as u64,
    );
    cs.set(
        "arch.dma.per_cpe_mbps",
        (dma.per_cpe_gbps(256) * 1000.0) as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::mesh::CpeId;

    #[test]
    fn cycle_reports_sum_and_max_correctly() {
        let mut cs = CounterSet::new();
        let a = CycleReport {
            cycles: 100,
            delivered: 64,
            peak_in_flight: 10,
            throughput_gbps: 2.0,
        };
        let b = CycleReport {
            cycles: 50,
            delivered: 32,
            peak_in_flight: 14,
            throughput_gbps: 1.0,
        };
        publish_cycle_report(&mut cs, &a);
        publish_cycle_report(&mut cs, &b);
        assert_eq!(cs.get("arch.mesh.cycles"), 150);
        assert_eq!(cs.get("arch.mesh.flits_delivered"), 96);
        assert_eq!(cs.get("arch.mesh.max_in_flight"), 14, "max, not sum");
        assert_eq!(cs.get("arch.mesh.max_throughput_mbps"), 2000);
    }

    #[test]
    fn mesh_utilization_is_a_maximum_gauge() {
        let mut cs = CounterSet::new();
        let cfg = ChipConfig::sw26010();
        let link = cfg.reg_link_gbps();
        let busy = CycleReport {
            cycles: 1000,
            delivered: 800,
            peak_in_flight: 20,
            throughput_gbps: link / 2.0,
        };
        let idle = CycleReport {
            cycles: 1000,
            delivered: 10,
            peak_in_flight: 1,
            throughput_gbps: link / 100.0,
        };
        publish_mesh_utilization(&mut cs, &cfg, &busy);
        publish_mesh_utilization(&mut cs, &cfg, &idle);
        assert_eq!(cs.get("arch.mesh.max_util_permille"), 500, "max, not sum");
        assert_eq!(cs.get("arch.mesh.max_flits_per_kcycle"), 800);
    }

    #[test]
    fn spm_pressure_is_a_high_water_mark() {
        let mut cs = CounterSet::new();
        let mut spm = Spm::new(CpeId::new(0, 0), 64 * 1024);
        spm.alloc("big", 48 * 1024).unwrap();
        publish_spm(&mut cs, &spm);
        spm.reset();
        spm.alloc("small", 1024).unwrap();
        publish_spm(&mut cs, &spm);
        assert_eq!(cs.get("arch.spm.max_in_use_bytes"), 48 * 1024);
        assert_eq!(cs.get("arch.spm.allocs"), 2);
        assert_eq!(cs.get("arch.spm.capacity_bytes"), 64 * 1024);
    }

    #[test]
    fn dma_calibration_matches_figure3() {
        let mut cs = CounterSet::new();
        publish_dma(&mut cs, &DmaEngine::new(ChipConfig::sw26010()));
        // 28.9 GB/s controller peak at the 256 B knee (float truncation
        // may land one MB/s either side).
        let peak = cs.get("arch.dma.cluster_peak_mbps");
        assert!((28_899..=28_900).contains(&peak), "peak {peak}");
        assert!(cs.get("arch.dma.per_cpe_mbps") > 1000, "~1.8 GB/s per CPE");
    }
}
