//! Property battery for the partition store format: whatever the
//! partition split, an encoded image must round-trip bit-exactly into
//! views; any single flipped byte must be refused at open (checksum,
//! magic, or structural check — never a silently different graph); and
//! a future format version must be refused as unsupported, not
//! misparsed.

use proptest::prelude::*;
use sw_graph::store::format::{self, StoreHeader};
use sw_graph::store::{GraphStore, PartitionMeta};
use sw_graph::{generate_kronecker, Csr, KroneckerConfig, Partition1D};

fn rank_image(seed: u64, scale: u32, ranks: u32, rank: u32) -> (Csr, Vec<u8>) {
    let el = generate_kronecker(&KroneckerConfig::graph500(scale, seed));
    let part = Partition1D::new(el.num_vertices, ranks);
    let (lo, hi) = part.range(rank);
    let csr = Csr::from_edge_list_rows(&el, lo, hi - lo);
    let meta = PartitionMeta {
        rank,
        num_ranks: ranks,
        input_edges: el.len() as u64,
        degree_ordered: false,
    };
    let image = GraphStore::encode(&csr, &meta);
    (csr, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip under every split boundary: each rank of each ranks
    /// count reopens to views content-equal to what was encoded —
    /// including the empty-partition edge.
    #[test]
    fn round_trips_under_every_split(
        seed in 0u64..u64::MAX,
        scale in 7u32..10,
        ranks in 1u32..9,
    ) {
        for rank in 0..ranks {
            let (csr, image) = rank_image(seed, scale, ranks, rank);
            let store = GraphStore::from_bytes(image).unwrap();
            prop_assert_eq!(store.header().rank, rank);
            prop_assert_eq!(store.header().num_ranks, ranks);
            prop_assert_eq!(&store.csr(), &csr);
        }
    }

    /// Single-byte corruption anywhere in the image is refused: either
    /// a checksum mismatch (payload bytes), bad magic / unsupported
    /// version, or a structural error (header and table bytes). The
    /// rare survivable flips are ones that keep the file self-
    /// consistent AND views identical — assert exactly that.
    #[test]
    fn flipped_byte_is_refused_or_harmless(
        seed in 0u64..u64::MAX,
        flip_bit in 0u32..8,
        pos_seed in 0u64..u64::MAX,
    ) {
        let (csr, image) = rank_image(seed, 8, 3, 1);
        let mut corrupt = image.clone();
        let pos = (pos_seed % image.len() as u64) as usize;
        corrupt[pos] ^= 1 << flip_bit;
        match GraphStore::from_bytes(corrupt) {
            Err(_) => {} // refused: the common, required outcome
            Ok(store) => {
                // A flip inside alignment padding parses — but then the
                // graph must be bit-identical to the original.
                prop_assert_eq!(&store.csr(), &csr);
            }
        }
    }

    /// A bumped format version is refused as `Unsupported` before any
    /// section is interpreted.
    #[test]
    fn version_bump_refused(seed in 0u64..u64::MAX, version in 2u32..1000) {
        let (_, mut image) = rank_image(seed, 7, 2, 0);
        image[8..12].copy_from_slice(&version.to_le_bytes());
        let err = GraphStore::from_bytes(image).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }

    /// Every truncated prefix of a valid image is refused.
    #[test]
    fn torn_prefix_refused(seed in 0u64..u64::MAX, cut_seed in 0u64..u64::MAX) {
        let (_, image) = rank_image(seed, 7, 2, 1);
        let cut = (cut_seed % image.len() as u64) as usize;
        prop_assert!(GraphStore::from_bytes(image[..cut].to_vec()).is_err());
    }

    /// Header fields survive the trip exactly (the manifest-level
    /// metadata a restart depends on).
    #[test]
    fn header_metadata_round_trips(seed in 0u64..u64::MAX, ranks in 1u32..5) {
        let (csr, image) = rank_image(seed, 7, ranks, ranks - 1);
        let store = GraphStore::from_bytes(image).unwrap();
        let h: &StoreHeader = store.header();
        prop_assert_eq!(h.version, format::VERSION);
        prop_assert_eq!(h.num_vertices, csr.num_vertices());
        prop_assert_eq!(h.row_base, csr.row_base());
        prop_assert_eq!(h.rows, csr.num_rows());
        prop_assert!(!h.degree_ordered());
    }
}
