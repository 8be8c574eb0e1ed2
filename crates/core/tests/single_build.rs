//! One CSR build, whichever construction path: `build()` (shortcut rows
//! from the full edge list) and `build_distributed()` (rows built from
//! the construction shuffle) both lay their rows out through the one
//! partitioned builder, in the configured order, and hand them to the
//! same assembly — so they must produce identical engines.
//!
//! Before PR 25 the distributed path built every CSR twice and swapped
//! the shuffle's *unprepared* rows in afterwards: with ordering on, the
//! rows lost their degree order (a `debug_assert_eq!` was the only guard,
//! so this test panicked there in debug builds). Comparing the persisted
//! partition files byte for byte catches that: a file holds a rank's
//! CSR rows as prepared.
//!
//! Each rank's first-neighbour column (`RankState::head`, what the
//! Bottom-Up sweep tests before it loads a row) must match its rows as
//! prepared, on every path: a column filled from the rows in another
//! order would point at the wrong first neighbour.

use std::path::Path;
use sw_graph::{generate_kronecker, KroneckerConfig, StorageBackend, Vid};
use swbfs_core::engine::{ClusterBuilder, SharedMem, SuperstepEngine, Transport};
use swbfs_core::{BfsConfig, Messaging};

/// Every non-empty row's head is its first neighbour.
fn assert_heads_match_rows<T: Transport>(engine: &SuperstepEngine<T>, label: &str) {
    for r in engine.rank_states() {
        for i in 0..r.owned() {
            if let Some(&first) = r.csr.neighbors_local(i).first() {
                assert_eq!(r.head(i), first, "{label}: rank {} row {i}", r.rank);
            }
        }
    }
}

fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    out.sort();
    out
}

fn persisted(engine: &SuperstepEngine<SharedMem>, dir: &Path) -> Vec<(String, Vec<u8>)> {
    std::fs::remove_dir_all(dir).ok();
    engine.persist_store(dir).unwrap();
    let f = files(dir);
    std::fs::remove_dir_all(dir).ok();
    f
}

#[test]
fn build_and_build_distributed_prepare_identical_engines() {
    let el = generate_kronecker(&KroneckerConfig::graph500(11, 6));
    let tmp = std::env::temp_dir().join(format!("swbfs_single_build_{}", std::process::id()));
    for degree_ordered_adjacency in [false, true] {
        for messaging in [Messaging::Direct, Messaging::Relay] {
            let cfg = BfsConfig {
                degree_ordered_adjacency,
                ..BfsConfig::threaded_small(2).with_messaging(messaging)
            };
            let label = format!("ordered={degree_ordered_adjacency} {messaging:?}");
            let mut shortcut = ClusterBuilder::new(&el, 6, cfg).build().unwrap();
            let (mut shuffled, traffic) = ClusterBuilder::new(&el, 6, cfg)
                .build_distributed()
                .unwrap();
            assert!(
                traffic.record_hops > 0,
                "{label}: the shuffle moved nothing"
            );

            assert_heads_match_rows(&shortcut, &format!("{label} build"));
            assert_heads_match_rows(&shuffled, &format!("{label} build_distributed"));
            let store = tmp.join("store");
            std::fs::remove_dir_all(&store).ok();
            shortcut.persist_store(&store).unwrap();
            for backend in [StorageBackend::Heap, StorageBackend::Mapped] {
                let restarted = ClusterBuilder::from_store_dir(&store, cfg)
                    .storage(backend)
                    .build()
                    .unwrap();
                assert_heads_match_rows(&restarted, &format!("{label} from_store {backend:?}"));
            }
            std::fs::remove_dir_all(&store).ok();

            let a = persisted(&shortcut, &tmp.join("shortcut"));
            let b = persisted(&shuffled, &tmp.join("shuffled"));
            assert_eq!(a.len(), 7, "{label}: six partitions and a manifest");
            for ((name, x), (_, y)) in a.iter().zip(&b) {
                assert!(x == y, "{label}: {name} differs between the two builds");
            }

            let roots: Vec<Vid> = (0..el.num_vertices)
                .filter(|&v| shortcut.degree_of(v) > 0)
                .step_by(173)
                .take(4)
                .collect();
            for &root in &roots {
                let x = shortcut.run(root).unwrap();
                let y = shuffled.run(root).unwrap();
                assert_eq!(x, y, "{label}: root {root}: parents or LevelStats differ");
            }
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The comparison above holds the two builds to each other; this holds
/// them to constants. The FNV-1a digest folds the name and every byte of
/// every `part-*.swgs` file (header, rows), for a fixed scale-12 graph
/// under both row orders at 1, 3 and 8 ranks — the shuffle's files are
/// asserted equal to the shortcut's first. One manifest is held to its
/// exact text.
#[test]
fn partition_files_match_the_pinned_digests() {
    let el = generate_kronecker(&KroneckerConfig::graph500(12, 27));
    let tmp = std::env::temp_dir().join(format!("swbfs_partition_pin_{}", std::process::id()));
    // (degree order, ranks, digest of the partition files)
    let golden = [
        (true, 1u32, 0x1773_149d_f799_044b_u64),
        (true, 3, 0x0751_e4d2_0555_853d),
        (true, 8, 0xbb79_fb13_2a54_b45c),
        (false, 1, 0xbee7_4d0c_93c7_ed56),
        (false, 3, 0x56db_8a3d_c8e1_dade),
        (false, 8, 0x1a1f_6e47_044e_3a06),
    ];
    let mut got = Vec::new();
    let mut manifest = None;
    for &(degree_ordered_adjacency, ranks, _) in &golden {
        let cfg = BfsConfig {
            degree_ordered_adjacency,
            ..BfsConfig::threaded_small(2)
        };
        let shortcut = ClusterBuilder::new(&el, ranks, cfg).build().unwrap();
        let (shuffled, _) = ClusterBuilder::new(&el, ranks, cfg).build_distributed().unwrap();
        let a = persisted(&shortcut, &tmp.join("shortcut"));
        assert_eq!(a.len(), ranks as usize + 1, "{ranks} partitions and a manifest");
        assert!(a == persisted(&shuffled, &tmp.join("shuffled")), "the two builds differ");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (name, bytes) in a.iter().filter(|(name, _)| name.starts_with("part-")) {
            fnv(&mut h, name.as_bytes());
            fnv(&mut h, bytes);
        }
        got.push(h);
        if degree_ordered_adjacency && ranks == 3 {
            manifest = a.iter().find(|(name, _)| name == "MANIFEST").map(|(_, b)| b.clone());
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
    for (&(ordered, ranks, want), &h) in golden.iter().zip(&got) {
        assert_eq!(
            h, want,
            "ordered={ordered} ranks={ranks}: digest {h:#018x} differs from the pinned \
             {want:#018x} — a row or a header moved (all six: {got:x?})"
        );
    }
    assert_eq!(
        String::from_utf8(manifest.expect("a MANIFEST")).unwrap(),
        "swgs_manifest=1\n\
         num_vertices=4096\n\
         num_ranks=3\n\
         input_edges=65536\n\
         degree_ordered=1\n"
    );
}
