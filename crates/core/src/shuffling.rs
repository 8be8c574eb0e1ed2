//! Bridge between the BFS and the `sw-arch` contention-free shuffle
//! engine: the destination-bucket algebra for each messaging mode and the
//! SPM feasibility check that produces the Direct-CPE crash.
//!
//! A reaction module's shuffle buckets are its distinct *message targets*:
//!
//! * **Direct** — one bucket per peer rank (`P` buckets): every record goes
//!   straight to its destination node's send buffer. This is what blows
//!   past the consumers' SPM capacity as the job grows (§6.1: "it crashes
//!   when the scale increases because of the limitation of SPM size").
//! * **Relay** — one bucket per remote *group* plus one per group-mate
//!   (`N + M - 1` buckets): §4.3's "Section 4.4 explains how to extend it
//!   to 40,000".
//!
//! The BFS-mode shuffle layout reserves extra consumer SPM for the
//! replicated hub bitmaps, which lowers the §4.3 stand-alone figure of
//! 1024 destinations to ~944 in traversal context.

use crate::config::{BfsConfig, Messaging, Processing};
use crate::error::ExecError;
use sw_arch::{ChipConfig, ShuffleEngine, ShuffleLayout};
use sw_net::GroupLayout;

/// The shuffle layout a BFS reaction module runs with: the paper's Figure 6
/// roles, with consumer SPM additionally reserved for the hub bitmaps.
pub fn bfs_shuffle_layout(cfg: &BfsConfig) -> ShuffleLayout {
    let mut layout = ShuffleLayout::paper_default();
    // Checked: a reserve past `u32` saturates (no destination fits)
    // instead of wrapping to a few bytes the gate would wave through.
    layout.consumer_reserved_bytes = cfg
        .top_down_hubs
        .div_ceil(8)
        .checked_add(cfg.bottom_up_hubs.div_ceil(8))
        .and_then(|bytes| u32::try_from(bytes).ok())
        .and_then(|bytes| layout.consumer_reserved_bytes.checked_add(bytes))
        .unwrap_or(u32::MAX);
    layout
}

/// Distinct shuffle destinations a reaction module on `rank` addresses.
pub fn bucket_count(messaging: Messaging, layout: &GroupLayout, rank: u32) -> usize {
    match messaging {
        Messaging::Direct => layout.nodes() as usize,
        Messaging::Relay => {
            // Remote groups + own group-mates + self slot.
            let n = layout.num_groups() as usize;
            let m = layout.group_size_of(layout.group_of(rank)) as usize;
            n + m - 1
        }
    }
}

/// Checks that the configured processing mode can actually shuffle into
/// the required number of destinations — the feasibility gate both
/// backends apply before running.
pub fn check_chip_feasibility(
    cfg: &BfsConfig,
    chip: &ChipConfig,
    layout: &GroupLayout,
) -> Result<(), ExecError> {
    if cfg.processing == Processing::Mpe {
        return Ok(()); // MPE buffers live in main memory.
    }
    let shuffle_layout = bfs_shuffle_layout(cfg);
    let engine = ShuffleEngine::new(*chip, shuffle_layout.clone()).map_err(ExecError::Arch)?;
    engine.verify_deadlock_free().map_err(ExecError::Arch)?;
    let max = shuffle_layout.max_destinations(chip);
    // The worst rank is one in a full group.
    let worst = (0..layout.nodes().min(4096))
        .map(|r| bucket_count(cfg.messaging, layout, r))
        .max()
        .unwrap_or(0)
        .max(match cfg.messaging {
            Messaging::Direct => layout.nodes() as usize,
            Messaging::Relay => {
                (layout.num_groups() + layout.group_size().min(layout.nodes())) as usize - 1
            }
        });
    if worst > max {
        return Err(ExecError::Arch(sw_arch::ArchError::TooManyDestinations {
            requested: worst,
            max,
        }));
    }
    Ok(())
}

/// Effective module-processing throughput, GB/s of input, for the given
/// processing mode: the shuffle pipeline bound on CPE clusters, or the
/// MPE's read+write-shared bandwidth degraded by the same pipeline
/// efficiency. The ratio between the two is the paper's 10×.
pub fn processing_rate_gbps(cfg: &BfsConfig, chip: &ChipConfig) -> f64 {
    match cfg.processing {
        Processing::Cpe => {
            let engine = ShuffleEngine::new(*chip, bfs_shuffle_layout(cfg))
                .expect("paper layout is valid");
            engine.throughput_bound_gbps()
        }
        Processing::Mpe => {
            let mpe = sw_arch::Mpe::new(*chip);
            mpe.bandwidth_gbps(chip.dma_batch_bytes) / 2.0 * chip.shuffle_efficiency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_layout_reserves_hub_bitmaps() {
        let cfg = BfsConfig::paper();
        let l = bfs_shuffle_layout(&cfg);
        assert_eq!(l.consumer_reserved_bytes, 32 * 1024 + 512 + 2048);
        // 944 destinations in traversal context.
        assert_eq!(l.max_destinations(&ChipConfig::sw26010()), 944);
    }

    #[test]
    fn a_hub_reserve_past_the_spm_is_refused_not_wrapped() {
        let chip = ChipConfig::sw26010();
        let cfg = BfsConfig {
            bottom_up_hubs: usize::MAX,
            ..BfsConfig::paper().with_messaging(Messaging::Direct)
        };
        assert_eq!(bfs_shuffle_layout(&cfg).consumer_reserved_bytes, u32::MAX);
        let err = check_chip_feasibility(&cfg, &chip, &GroupLayout::new(256, 256)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Arch(sw_arch::ArchError::TooManyDestinations { max: 0, .. })
        ));
    }

    #[test]
    fn threaded_small_bottom_up_hubs_is_the_largest_the_chip_admits() {
        // The largest power of two of Bottom-Up hubs whose bitmap, with
        // the 2^8 Top-Down bits, still leaves SPM for the paper's 256
        // Direct-CPE destinations.
        let chip = ChipConfig::sw26010();
        let small = BfsConfig::threaded_small(1).with_messaging(Messaging::Direct);
        let with = |bottom_up_hubs| BfsConfig { bottom_up_hubs, ..small };
        let fits = |bottom_up_hubs| {
            check_chip_feasibility(&with(bottom_up_hubs), &chip, &GroupLayout::new(256, 256)).is_ok()
        };
        let largest = (0..40).map(|b| 1usize << b).take_while(|&k| fits(k)).last();
        assert_eq!(largest, Some(small.bottom_up_hubs));
        assert_eq!(small.bottom_up_hubs, 1 << 17);
        assert_eq!(bfs_shuffle_layout(&with(1 << 17)).max_destinations(&chip), 496);
        assert!(fits(1 << 17) && !fits(1 << 18));
    }

    #[test]
    fn bucket_counts_per_mode() {
        let layout = GroupLayout::new(1024, 256);
        assert_eq!(bucket_count(Messaging::Direct, &layout, 0), 1024);
        assert_eq!(bucket_count(Messaging::Relay, &layout, 0), 4 + 256 - 1);
    }

    #[test]
    fn direct_cpe_crashes_past_944_nodes() {
        let chip = ChipConfig::sw26010();
        let cfg = BfsConfig::paper().with_messaging(Messaging::Direct);
        // 256 nodes: fine (the paper's "better performance for up to 256").
        check_chip_feasibility(&cfg, &chip, &GroupLayout::new(256, 256)).unwrap();
        check_chip_feasibility(&cfg, &chip, &GroupLayout::new(512, 256)).unwrap();
        // 1024 nodes: SPM capacity exceeded -> the Figure 11 crash.
        let err = check_chip_feasibility(&cfg, &chip, &GroupLayout::new(1024, 256)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Arch(sw_arch::ArchError::TooManyDestinations { .. })
        ));
    }

    #[test]
    fn relay_cpe_feasible_at_full_machine() {
        let chip = ChipConfig::sw26010();
        let cfg = BfsConfig::paper();
        check_chip_feasibility(&cfg, &chip, &GroupLayout::new(40_960, 256)).unwrap();
    }

    #[test]
    fn mpe_mode_never_spm_limited() {
        let chip = ChipConfig::sw26010();
        let cfg = BfsConfig::paper()
            .with_messaging(Messaging::Direct)
            .with_processing(Processing::Mpe);
        check_chip_feasibility(&cfg, &chip, &GroupLayout::new(40_960, 256)).unwrap();
    }

    #[test]
    fn cpe_rate_is_10x_mpe_rate() {
        let chip = ChipConfig::sw26010();
        let cpe = processing_rate_gbps(&BfsConfig::paper(), &chip);
        let mpe = processing_rate_gbps(
            &BfsConfig::paper().with_processing(Processing::Mpe),
            &chip,
        );
        let ratio = cpe / mpe;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
        assert!((9.0..11.0).contains(&cpe), "cpe rate {cpe}");
    }
}
