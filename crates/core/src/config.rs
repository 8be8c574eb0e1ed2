//! BFS configuration: the axes Figure 11 sweeps plus the paper's tuning
//! constants.

/// How inter-node messages travel (the Figure 11 "Direct" vs "Relay" axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Messaging {
    /// Point-to-point to the destination node — one connection per peer.
    Direct,
    /// Group-based message batching (§4.4): two-stage delivery through the
    /// N×M relay layout, one connection per group + per group-mate.
    Relay,
}

/// Where module processing runs (the Figure 11 "MPE" vs "CPE" axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Processing {
    /// Modules processed on the management core directly.
    Mpe,
    /// Modules processed on CPE clusters with contention-free shuffling
    /// (§4.3).
    Cpe,
}

/// Full configuration of a BFS run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BfsConfig {
    /// Message transport.
    pub messaging: Messaging,
    /// Module processing location.
    pub processing: Processing,
    /// Relay group size (nodes per group; the paper maps groups onto
    /// 256-node super nodes).
    pub group_size: u32,
    /// Direction heuristic: switch Top-Down → Bottom-Up when
    /// `m_frontier > m_unvisited / alpha` (Beamer's α, default 14).
    pub alpha: u64,
    /// Direction heuristic: switch Bottom-Up → Top-Down when
    /// `n_frontier < n / beta` (Beamer's β, default 24).
    pub beta: u64,
    /// Hub vertices replicated during Top-Down levels (2^12, §5).
    pub top_down_hubs: usize,
    /// Hub vertices replicated during Bottom-Up levels (2^14, §5).
    pub bottom_up_hubs: usize,
    /// Inputs smaller than this are processed on the MPE instead of
    /// notifying a CPE cluster (1 KB, §5 "quick processing for small
    /// messages").
    pub small_input_bytes: usize,
    /// Wire size of one edge message, bytes.
    pub edge_msg_bytes: usize,
    /// Disable the direction optimization and traverse Top-Down only — the
    /// conventional-BFS ablation baseline.
    pub force_top_down: bool,
    /// Delta+varint message compression (§7 future-work integration; off in
    /// the paper's configuration).
    pub compress: bool,
    /// Reorder neighbour lists by descending degree (the Yasui-style
    /// Bottom-Up refinement, §7 ref \[25\]): the likeliest parents —
    /// hubs — are scanned first, so the Bottom-Up early exit fires
    /// sooner. On by default since PR 25.
    pub degree_ordered_adjacency: bool,
    /// Bounded-retry and degradation policy for injected transport
    /// faults; only consulted when a fault session is armed.
    pub retry: crate::faults::RetryPolicy,
}

impl Default for BfsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl BfsConfig {
    /// The paper's final configuration: Relay messaging, CPE processing,
    /// groups of 256, α=14/β=24, 2^12/2^14 hubs, 1 KB small-input cutoff.
    pub fn paper() -> Self {
        Self {
            messaging: Messaging::Relay,
            processing: Processing::Cpe,
            group_size: 256,
            alpha: 14,
            beta: 24,
            top_down_hubs: 1 << 12,
            bottom_up_hubs: 1 << 14,
            small_input_bytes: 1024,
            edge_msg_bytes: 8,
            force_top_down: false,
            compress: false,
            degree_ordered_adjacency: true,
            retry: crate::faults::RetryPolicy::default(),
        }
    }

    /// A configuration scaled for small threaded runs: groups of
    /// `group_size` ranks, 2^8 Top-Down hubs, and 2^17 Bottom-Up hubs —
    /// every vertex with an edge up to scale 17, so Bottom-Up levels send
    /// no query there.
    ///
    /// 2^17 is the chip model's number, not a benchmark's: the largest
    /// power of two whose replicated bitmap (16 KB, plus the 2^8 Top-Down
    /// bits) still leaves [`crate::shuffling::bfs_shuffle_layout`] room
    /// for the paper's 256 Direct-CPE destinations on
    /// `ChipConfig::sw26010()` (496 of them; 2^18 leaves none).
    /// [`Self::paper`] keeps 2^12/2^14 because its 2^40 vertices never fit.
    pub fn threaded_small(group_size: u32) -> Self {
        Self {
            group_size,
            top_down_hubs: 1 << 8,
            bottom_up_hubs: 1 << 17,
            ..Self::paper()
        }
    }

    /// Returns a copy with the given messaging mode.
    pub fn with_messaging(mut self, m: Messaging) -> Self {
        self.messaging = m;
        self
    }

    /// Returns a copy with the given processing mode.
    pub fn with_processing(mut self, p: Processing) -> Self {
        self.processing = p;
        self
    }

    /// Returns a copy with message compression enabled.
    pub fn with_compression(mut self) -> Self {
        self.compress = true;
        self
    }

    /// Sanity-checks the configuration, returning a description of the
    /// first problem found. Both backends call this at construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.group_size == 0 {
            return Err("group_size must be positive".into());
        }
        if self.alpha == 0 || self.beta == 0 {
            return Err("direction thresholds must be positive".into());
        }
        if self.top_down_hubs > self.bottom_up_hubs {
            return Err(format!(
                "top_down_hubs ({}) must not exceed bottom_up_hubs ({}): the \
                 Top-Down set is a prefix of the Bottom-Up set",
                self.top_down_hubs, self.bottom_up_hubs
            ));
        }
        if self.edge_msg_bytes == 0 {
            return Err("edge_msg_bytes must be positive".into());
        }
        self.retry.validate()?;
        Ok(())
    }

    /// The wire codec this configuration implies.
    pub fn codec(&self) -> crate::exchange::Codec {
        if self.compress {
            crate::exchange::Codec::Compressed
        } else {
            crate::exchange::Codec::Fixed(self.edge_msg_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_spec() {
        let c = BfsConfig::paper();
        assert_eq!(c.group_size, 256);
        assert_eq!(c.top_down_hubs, 4096);
        assert_eq!(c.bottom_up_hubs, 16384);
        assert_eq!(c.small_input_bytes, 1024);
        assert_eq!(c.alpha, 14);
        assert_eq!(c.beta, 24);
        assert_eq!(c.messaging, Messaging::Relay);
        assert_eq!(c.processing, Processing::Cpe);
    }

    #[test]
    fn validate_catches_nonsense() {
        assert!(BfsConfig::paper().validate().is_ok());
        assert!(BfsConfig {
            group_size: 0,
            ..BfsConfig::paper()
        }
        .validate()
        .is_err());
        assert!(BfsConfig {
            alpha: 0,
            ..BfsConfig::paper()
        }
        .validate()
        .is_err());
        assert!(BfsConfig {
            top_down_hubs: 1 << 15,
            ..BfsConfig::paper()
        }
        .validate()
        .is_err());
        assert!(BfsConfig {
            edge_msg_bytes: 0,
            ..BfsConfig::paper()
        }
        .validate()
        .is_err());
        assert!(BfsConfig {
            retry: crate::faults::RetryPolicy {
                max_attempts: 0,
                ..Default::default()
            },
            ..BfsConfig::paper()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builders_override_axes() {
        let c = BfsConfig::paper()
            .with_messaging(Messaging::Direct)
            .with_processing(Processing::Mpe);
        assert_eq!(c.messaging, Messaging::Direct);
        assert_eq!(c.processing, Processing::Mpe);
    }
}
