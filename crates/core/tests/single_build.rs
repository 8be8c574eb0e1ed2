//! One CSR build, whichever construction path: `build()` (shortcut rows
//! from the full edge list) and `build_distributed()` (rows built from
//! the construction shuffle) hand their per-rank CSRs to the same
//! preparation — degree reorder, then the coded sidecar, then assembly —
//! so they must produce identical engines.
//!
//! Before PR 25 the distributed path built every CSR twice and swapped
//! the shuffle's *unprepared* rows in afterwards: with ordering on, the
//! rows lost their degree order (a `debug_assert_eq!` was the only guard,
//! so this test panicked there in debug builds), and the coded sidecar
//! had been sealed from rows that were then replaced. Comparing the
//! persisted partition files byte for byte catches both: a file holds a
//! rank's CSR rows *and* its sidecar.
//!
//! Each rank's first-neighbour column (`RankState::head`, what the
//! Bottom-Up sweep tests before it loads a row) must match its rows as
//! prepared, on every path: a column filled before the degree reorder
//! would point at the row's old first neighbour.

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
        for compress_hub_rows in [false, true] {
            for messaging in [Messaging::Direct, Messaging::Relay] {
                let cfg = BfsConfig {
                    degree_ordered_adjacency,
                    compress_hub_rows,
                    hub_compress_min_degree: 16,
                    ..BfsConfig::threaded_small(2).with_messaging(messaging)
                };
                let label = format!(
                    "ordered={degree_ordered_adjacency} coded={compress_hub_rows} {messaging:?}"
                );
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
    }
    std::fs::remove_dir_all(&tmp).ok();
}
