//! Property-based tests (proptest) on the core invariants, spanning
//! crates: traversal correctness against oracles, transport equivalence,
//! mesh routing legality, and validation soundness on arbitrary graphs.

use proptest::prelude::*;
use swbfs::arch::{CpeId, Mesh};
use swbfs::bfs::baseline::sequential_bfs_levels;
use swbfs::bfs::baseline2d::bfs_2d;
use swbfs::bfs::compress::{compressed_size, encode_compressed, try_decode_compressed};
use swbfs::bfs::arena::ExchangeArena;
use swbfs::bfs::exchange::Codec;
use swbfs::bfs::messages::EdgeRec;
use swbfs::bfs::modules::Outboxes;
use swbfs::bfs::{BfsConfig, ClusterBuilder, Messaging};
use swbfs::graph::io::{read_binary, read_text, write_binary, write_text};
use swbfs::graph::{Bitmap, EdgeList, Partition1D};
use swbfs::graph500::validate_bfs;
use swbfs::net::{simulate_phase, GroupLayout, NetworkConfig, SimMessage};

/// An arbitrary small undirected graph: vertex count and edge tuples.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2u64..200).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..400)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The distributed BFS computes exactly the oracle's hop distances on
    /// arbitrary graphs, rank counts, transports, and roots — and always
    /// passes the five Graph500 validation rules.
    #[test]
    fn distributed_bfs_matches_oracle(
        el in arb_graph(),
        ranks in 1u32..9,
        relay in any::<bool>(),
        root_pick in 0u64..1000,
    ) {
        prop_assume!(el.num_vertices >= ranks as u64);
        let root = root_pick % el.num_vertices;
        let cfg = BfsConfig::threaded_small(2).with_messaging(if relay {
            Messaging::Relay
        } else {
            Messaging::Direct
        });
        let mut tc = ClusterBuilder::new(&el, ranks, cfg).build().unwrap();
        let out = tc.run(root).unwrap();
        let oracle = sequential_bfs_levels(&el, root);
        prop_assert_eq!(out.levels_from_parents(), oracle);
        validate_bfs(&el, &out).map_err(|e| {
            TestCaseError::fail(format!("validation: {e}"))
        })?;
    }

    /// Direct and Relay transports deliver identical record multisets per
    /// destination for arbitrary traffic patterns and group shapes.
    #[test]
    fn transports_deliver_identical_multisets(
        ranks in 2u32..17,
        group in 1u32..9,
        traffic in proptest::collection::vec((0u32..17, 0u32..17, 0u64..1000), 0..300),
    ) {
        let layout = GroupLayout::new(ranks, group.min(ranks));
        let mut out: Vec<Outboxes> = (0..ranks).map(|_| Outboxes::new(ranks as usize)).collect();
        for (s, d, payload) in traffic {
            let (s, d) = (s % ranks, d % ranks);
            if s != d {
                out[s as usize].push(d, EdgeRec { u: payload, v: d as u64 });
            }
        }
        let mut arena = ExchangeArena::new(ranks as usize);
        let (mut a, sa) = arena.exchange(Messaging::Direct, out.clone(), &layout, Codec::Fixed(8));
        let (mut b, sb) = arena.exchange(Messaging::Relay, out, &layout, Codec::Compressed);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            x.sort_unstable();
            y.sort_unstable();
        }
        prop_assert_eq!(a, b);
        // Relay never delivers fewer record-hops than records exist.
        prop_assert!(sb.record_hops >= sa.record_hops);
    }

    /// Row-first mesh routing always produces legal hops and at most 2 of
    /// them, for every CPE pair; and the all-pairs schedule is deadlock
    /// free.
    #[test]
    fn mesh_routing_legal_and_bounded(
        fr in 0u8..8, fc in 0u8..8, tr in 0u8..8, tc in 0u8..8,
    ) {
        let mesh = Mesh::new(8);
        let route = mesh
            .plan_row_first(CpeId::new(fr, fc), CpeId::new(tr, tc))
            .unwrap();
        prop_assert!(route.num_hops() <= 2);
        for (a, b) in route.links() {
            prop_assert!(mesh.link_legal(a, b));
        }
    }

    /// 1-D partitions cover every vertex exactly once and round-trip
    /// local/global ids, for arbitrary sizes.
    #[test]
    fn partition_bijective(n in 1u64..100_000, p in 1u32..300, v_pick in 0u64..100_000) {
        let part = Partition1D::new(n, p);
        let mut covered = 0u64;
        for r in 0..p {
            covered += part.owned_count(r);
        }
        prop_assert_eq!(covered, n);
        let v = v_pick % n;
        let r = part.owner(v);
        prop_assert!(r < p);
        prop_assert_eq!(part.to_global(r, part.to_local(v)), v);
        let (s, e) = part.range(r);
        prop_assert!(s <= v && v < e);
    }

    /// Bitmap semantics equal a HashSet under arbitrary operation
    /// sequences.
    #[test]
    fn bitmap_matches_hashset(
        len in 1usize..500,
        ops in proptest::collection::vec((any::<bool>(), 0usize..500), 0..200),
    ) {
        let mut bm = Bitmap::new(len);
        let mut set = std::collections::HashSet::new();
        for (insert, idx) in ops {
            let i = idx % len;
            if insert {
                let was = bm.set(i);
                prop_assert_eq!(was, !set.insert(i));
            } else {
                bm.clear(i);
                set.remove(&i);
            }
        }
        prop_assert_eq!(bm.count_ones(), set.len());
        let ones: Vec<usize> = bm.iter_ones().collect();
        let mut expect: Vec<usize> = set.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(ones, expect);
    }

    /// The event-driven network simulator is monotone: growing any
    /// message's payload never finishes the phase earlier, and the
    /// makespan is at least the busiest sender's serialization time.
    #[test]
    fn eventsim_monotone_and_lower_bounded(
        msgs in proptest::collection::vec((0u32..32, 0u32..32, 1u64..100_000), 1..60),
        grow_idx in 0usize..60,
    ) {
        let mut cfg = NetworkConfig::taihulight(32);
        cfg.supernode_size = 8;
        let messages: Vec<SimMessage> = msgs
            .iter()
            .filter(|(s, d, _)| s != d)
            .map(|&(src, dst, bytes)| SimMessage { src, dst, bytes })
            .collect();
        prop_assume!(!messages.is_empty());
        let base = simulate_phase(&cfg, &messages);

        // Lower bound: busiest sender's bytes over the NIC line rate.
        let mut per_sender = std::collections::HashMap::new();
        for m in &messages {
            *per_sender.entry(m.src).or_insert(0u64) += m.bytes;
        }
        let busiest = *per_sender.values().max().unwrap();
        prop_assert!(base.makespan_ns + 1e-6 >= busiest as f64 / cfg.nic_gbps);

        // Monotonicity under payload growth.
        let mut bigger = messages.clone();
        let i = grow_idx % bigger.len();
        bigger[i].bytes += 50_000;
        let grown = simulate_phase(&cfg, &bigger);
        prop_assert!(grown.makespan_ns + 1e-6 >= base.makespan_ns);
    }

    /// Compression round-trips arbitrary record batches, and the size
    /// predictor is byte-exact.
    #[test]
    fn compression_round_trips(
        recs in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..300),
    ) {
        let records: Vec<EdgeRec> = recs
            .into_iter()
            // Keep within i64 range: delta coding works in signed space.
            .map(|(u, v)| EdgeRec { u: u >> 1, v: v >> 1 })
            .collect();
        let enc = encode_compressed(&records);
        prop_assert_eq!(enc.len() as u64, compressed_size(&records));
        prop_assert_eq!(try_decode_compressed(&enc), Ok(records));
    }

    /// The 2-D-partitioned BFS computes the same hop distances as the
    /// sequential oracle on arbitrary graphs and grid shapes.
    #[test]
    fn bfs_2d_matches_oracle(
        el in arb_graph(),
        r in 1u32..5,
        c in 1u32..5,
        root_pick in 0u64..1000,
    ) {
        prop_assume!(el.num_vertices >= (r * c) as u64);
        let root = root_pick % el.num_vertices;
        let (out, stats) = bfs_2d(&el, r, c, root);
        prop_assert_eq!(out.levels_from_parents(), sequential_bfs_levels(&el, root));
        // The collectives' message count is exactly grid-aligned.
        prop_assert_eq!(
            stats.messages,
            (r * c) as u64 * (r as u64 - 1 + c as u64 - 1) * stats.levels as u64
        );
    }

    /// Graph I/O round-trips arbitrary edge lists in both formats.
    #[test]
    fn graph_io_round_trips(el in arb_graph()) {
        let mut bin = Vec::new();
        write_binary(&el, &mut bin).unwrap();
        prop_assert_eq!(read_binary(&bin[..]).unwrap(), el.clone());

        let mut txt = Vec::new();
        write_text(&el, &mut txt).unwrap();
        prop_assert_eq!(read_text(&txt[..]).unwrap(), el);
    }

    /// The relay address algebra: every (src, dst) pair has a path of at
    /// most 2 network stages whose final hop stays inside dst's group.
    #[test]
    fn relay_paths_well_formed(nodes in 2u32..2000, group in 1u32..300, s in 0u32..2000, d in 0u32..2000) {
        let layout = GroupLayout::new(nodes, group.min(nodes));
        let (s, d) = (s % nodes, d % nodes);
        let path = layout.path(s, d);
        prop_assert!(path.len() <= 3);
        prop_assert_eq!(path[0], s);
        prop_assert_eq!(*path.last().unwrap(), d);
        match path.len() {
            // Single stage: either dst shares src's group, or dst is
            // itself the designated relay for src's column.
            2 => prop_assert!(
                layout.group_of(s) == layout.group_of(d) || layout.relay(s, d) == d
            ),
            // Two stages: the forwarding hop stays inside dst's group.
            3 => prop_assert_eq!(layout.group_of(path[1]), layout.group_of(d)),
            _ => {}
        }
        for w in path.windows(2) {
            prop_assert_ne!(w[0], w[1]);
        }
    }
}
