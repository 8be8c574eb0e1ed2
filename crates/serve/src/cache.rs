//! LRU cache of hot-root level maps.
//!
//! Every service operation is a function of its root's BFS levels, so
//! the unit of caching is one root's whole [`LevelMap`] (`Arc`-shared
//! with in-flight answers). Capacity is small (tens of entries — a
//! scale-20 map of depth ≤ 7 is 512 KB, a bitmap per level bit plus one
//! for reachability), so eviction does a plain O(capacity) scan for the
//! stalest recency stamp instead of carrying an intrusive list.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use sw_algos::msbfs::LevelMap;
use sw_graph::Vid;

/// One root's level map plus what is memoised from it.
#[derive(Debug)]
pub struct RootLevels {
    levels: LevelMap,
    /// `within[h]` = vertices at level <= `h`. Built by the first k-hop
    /// query that finds the root cached, not by the sweep: a root that
    /// is never hit never pays the pass.
    within: OnceLock<Vec<u64>>,
}

impl RootLevels {
    /// Wraps a freshly swept level map.
    pub fn new(levels: LevelMap) -> Self {
        Self {
            levels,
            within: OnceLock::new(),
        }
    }

    /// BFS level of `v` ([`sw_algos::msbfs::UNREACHED`] when no path
    /// exists).
    pub fn level(&self, v: Vid) -> u32 {
        self.levels.level(v)
    }

    /// Vertices within `hops` of the root (the root included).
    pub fn within(&self, hops: u32) -> u64 {
        let within = self.within.get_or_init(|| {
            let mut hist = self.levels.level_counts();
            let mut sum = 0;
            for h in &mut hist {
                sum += *h;
                *h = sum;
            }
            hist
        });
        let last = within.len().saturating_sub(1);
        within.get(last.min(hops as usize)).copied().unwrap_or(0)
    }

    /// [`RootLevels::within`] without the memo, for a root swept this
    /// cycle: most are asked one k-hop or none before they are evicted,
    /// and one bit-sliced compare per 64 vertices costs a fraction of
    /// the histogram build it would leave behind.
    pub fn count_within(&self, hops: u32) -> u64 {
        self.levels.count_within(hops)
    }
}

/// An LRU map from root vertex to its level map.
#[derive(Debug)]
pub struct LevelCache {
    cap: usize,
    tick: u64,
    map: HashMap<Vid, (Arc<RootLevels>, u64)>,
    evictions: u64,
}

impl LevelCache {
    /// An empty cache holding at most `cap` roots (`cap` = 0 disables
    /// caching entirely).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap.saturating_add(1)),
            evictions: 0,
        }
    }

    /// Looks `root` up, refreshing its recency on a hit.
    pub fn get(&mut self, root: Vid) -> Option<Arc<RootLevels>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&root).map(|(levels, used)| {
            *used = tick;
            Arc::clone(levels)
        })
    }

    /// Inserts (or refreshes) `root`'s level array, as a map, evicting
    /// the least recently used entry when over capacity.
    pub fn insert(&mut self, root: Vid, levels: Arc<Vec<u32>>) {
        self.put(
            root,
            Arc::new(RootLevels::new(LevelMap::from_levels(&levels))),
        );
    }

    /// [`LevelCache::insert`] for a caller that keeps the entry too.
    pub fn put(&mut self, root: Vid, entry: Arc<RootLevels>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(root, (entry, self.tick));
        while self.map.len() > self.cap {
            let stalest = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&r, _)| r)
                .expect("non-empty map over capacity");
            self.map.remove(&stalest);
            self.evictions += 1;
        }
    }

    /// Roots currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// The k-hop answer as it was before the memo — one scan of the level
/// array per query. The oracle [`RootLevels::within`] is tested against.
#[cfg(test)]
pub(crate) fn khop_scan(levels: &[u32], hops: u32) -> u64 {
    use sw_algos::msbfs::UNREACHED;
    levels
        .iter()
        .filter(|&&l| l != UNREACHED && l <= hops)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_algos::msbfs::UNREACHED;

    fn arc(v: u32) -> Arc<Vec<u32>> {
        Arc::new(vec![v])
    }

    #[test]
    fn memoised_khop_equals_the_scan() {
        use sw_graph::{generate_kronecker, KroneckerConfig};
        let el = generate_kronecker(&KroneckerConfig::graph500(10, 77));
        let mut arrays: Vec<Vec<u32>> = [1u64, 5, 900]
            .iter()
            .map(|&r| sw_algos::msbfs::bfs_levels_oracle(&el, r))
            .collect();
        assert!(
            arrays[0].contains(&UNREACHED),
            "the graph must have vertices the root cannot reach"
        );
        // Degenerate shapes: nothing reached, only the root, a level gap.
        arrays.push(vec![UNREACHED; 7]);
        arrays.push(vec![0]);
        arrays.push(vec![0, 3, UNREACHED, 3, 1]);
        arrays.push(Vec::new());
        for levels in arrays {
            let max_level = levels.iter().filter(|&&l| l != UNREACHED).max();
            let top = max_level.map_or(0, |&l| l) + 2;
            let entry = RootLevels::new(LevelMap::from_levels(&levels));
            for hops in (0..=top).chain([u32::MAX - 1, u32::MAX]) {
                assert_eq!(
                    entry.count_within(hops),
                    khop_scan(&levels, hops),
                    "hops {hops}"
                );
                assert_eq!(entry.within(hops), khop_scan(&levels, hops), "hops {hops}");
            }
        }
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut c = LevelCache::new(2);
        c.insert(1, arc(1));
        c.insert(2, arc(2));
        assert!(c.get(1).is_some()); // 1 is now fresher than 2
        c.insert(3, arc(3));
        assert!(c.get(2).is_none(), "2 was stalest and must be evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_does_not_grow() {
        let mut c = LevelCache::new(2);
        c.insert(1, arc(1));
        c.insert(1, arc(10));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1).unwrap().level(0), 10);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LevelCache::new(0);
        c.insert(1, arc(1));
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
    }
}
