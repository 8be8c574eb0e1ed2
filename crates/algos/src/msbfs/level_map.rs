//! One source's BFS levels, bit-sliced ([`LevelMap`]), and the planes a
//! sweep keeps every source's levels in until its last round.

use super::UNREACHED;
use sw_graph::Vid;

/// Widest batch whose planes hold a byte per vertex; wider batches hold
/// a `u64`. A byte plane's maps are cut out eight vertices per multiply,
/// a word plane's by 64×64 bit-matrix transposes, which compute all 64
/// rows however few are wanted.
const BYTE_MAX_WIDTH: usize = 8;

/// The BFS levels from one source, as bitmaps over the vertex ids: a
/// `reached` bitmap and `L` level planes, where bit `j` of a reached
/// vertex's level is bit `v` of plane `j`. `L` is the bit length of the
/// source's deepest level (0 when it reaches only itself), so two maps
/// of the same levels are equal whichever sweep produced them. One
/// allocation of `(1 + L)·⌈n/64⌉` words: 16 KB at 32 Ki vertices and
/// `L = 3`, where a `u32` per vertex is 128 KB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelMap {
    n: usize,
    planes: usize,
    /// `reached`, then plane 0, 1, …, each `⌈n/64⌉` words; bits past
    /// `n` are zero.
    words: Box<[u64]>,
}

impl LevelMap {
    /// An all-zero map of `planes` planes over `n` vertices.
    fn zeroed(n: usize, planes: usize) -> Self {
        Self {
            n,
            planes,
            words: vec![0; (1 + planes) * n.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// The map of a level array ([`UNREACHED`] marks a vertex never
    /// reached).
    pub fn from_levels(levels: &[u32]) -> Self {
        let deepest = levels.iter().filter(|&&l| l != UNREACHED).max();
        let planes = deepest.map_or(0, |&l| (u32::BITS - l.leading_zeros()) as usize);
        let mut map = Self::zeroed(levels.len(), planes);
        let stride = map.stride();
        for (v, &l) in levels.iter().enumerate() {
            if l == UNREACHED {
                continue;
            }
            let (w, bit) = (v / 64, 1u64 << (v % 64));
            map.words[w] |= bit;
            for j in 0..planes {
                if l >> j & 1 != 0 {
                    map.words[(1 + j) * stride + w] |= bit;
                }
            }
        }
        map
    }

    /// Words per bitmap.
    fn stride(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// The BFS level of `v` ([`UNREACHED`] when no path exists).
    ///
    /// # Panics
    /// Panics if `v` is outside the id space.
    pub fn level(&self, v: Vid) -> u32 {
        let v = v as usize;
        assert!(
            v < self.n,
            "vertex {v} outside the {}-vertex id space",
            self.n
        );
        let (w, shift, stride) = (v / 64, v % 64, self.stride());
        if self.words[w] >> shift & 1 == 0 {
            return UNREACHED;
        }
        (0..self.planes).fold(0, |l, j| {
            l | ((self.words[(1 + j) * stride + w] >> shift & 1) as u32) << j
        })
    }

    /// Vertices within `hops` of the source, the source included: per
    /// word, one bit-sliced `level ≤ hops` compare over the planes, ANDed
    /// with `reached` and counted.
    pub fn count_within(&self, hops: u32) -> u64 {
        let stride = self.stride();
        let (reached, planes) = self.words.split_at(stride);
        if self.planes == 0 || u64::from(hops) >= (1u64 << self.planes) - 1 {
            return reached.iter().map(|w| u64::from(w.count_ones())).sum();
        }
        let mut count = 0;
        for (w, &r) in reached.iter().enumerate() {
            // Most significant plane first: `lt` holds the vertices
            // already known below `hops`, `eq` those equal so far.
            let (mut lt, mut eq) = (0u64, !0u64);
            for j in (0..self.planes).rev() {
                let p = planes[j * stride + w];
                if hops >> j & 1 != 0 {
                    lt |= eq & !p;
                    eq &= p;
                } else {
                    eq &= !p;
                }
            }
            count += u64::from((r & (lt | eq)).count_ones());
        }
        count
    }

    /// `counts[l]` = vertices at level `l`, for `l` up to the deepest
    /// level (empty when nothing is reached).
    pub fn level_counts(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        if self.planes > 6 {
            // Past 64 levels, decoding each vertex beats a compare per level.
            self.for_each_reached(|_, l| {
                let l = l as usize;
                if l >= counts.len() {
                    counts.resize(l + 1, 0);
                }
                counts[l] += 1;
            });
            return counts;
        }
        counts.resize(1 << self.planes, 0);
        let stride = self.stride();
        let (reached, planes) = self.words.split_at(stride);
        for (w, &r) in reached.iter().enumerate() {
            for (l, count) in counts.iter_mut().enumerate() {
                let eq = (0..self.planes).fold(r, |eq, j| {
                    let p = planes[j * stride + w];
                    eq & if l >> j & 1 != 0 { p } else { !p }
                });
                *count += u64::from(eq.count_ones());
            }
        }
        while counts.last() == Some(&0) {
            counts.pop();
        }
        counts
    }

    /// The level array: `to_vec()[v]` = [`LevelMap::level`]`(v)`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut levels = vec![UNREACHED; self.n];
        self.for_each_reached(|v, l| levels[v] = l);
        levels
    }

    /// Calls `f(v, level)` for every reached vertex, in id order.
    fn for_each_reached(&self, mut f: impl FnMut(usize, u32)) {
        let stride = self.stride();
        let (reached, planes) = self.words.split_at(stride);
        for (w, &r) in reached.iter().enumerate() {
            let mut bits = r;
            while bits != 0 {
                let shift = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let l = (0..self.planes).fold(0, |l, j| {
                    l | ((planes[j * stride + w] >> shift & 1) as u32) << j
                });
                f(w * 64 + shift, l);
            }
        }
    }
}

/// A sweep's levels while it runs, as bit planes: bit `k` of plane `j`'s
/// word for vertex `v` is bit `j` of source `k`'s level at `v`. A round
/// ORs each found mask into the planes its level has bits in, and a
/// plane is added when a level first needs it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct LevelPlanes {
    n: usize,
    kq: usize,
    planes: Planes,
    /// The sources with any bit in each plane.
    in_plane: Vec<u64>,
}

/// The planes' word per vertex: the narrowest of the two that holds the
/// batch.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Planes {
    Bytes(Vec<Vec<u8>>),
    Words(Vec<Vec<u64>>),
}

impl LevelPlanes {
    /// No planes yet, for a batch of `kq` sources over `n` vertices.
    pub(super) fn new(n: usize, kq: usize) -> Self {
        let planes = if kq <= BYTE_MAX_WIDTH {
            Planes::Bytes(Vec::new())
        } else {
            Planes::Words(Vec::new())
        };
        Self {
            n,
            kq,
            planes,
            in_plane: Vec::new(),
        }
    }

    /// Adds the planes that `level` needs: one per bit of its length.
    pub(super) fn grow(&mut self, level: u32) {
        while (self.in_plane.len() as u32) < u32::BITS - level.leading_zeros() {
            match &mut self.planes {
                Planes::Bytes(p) => p.push(vec![0; self.n]),
                Planes::Words(p) => p.push(vec![0; self.n]),
            }
            self.in_plane.push(0);
        }
    }

    /// Records `level` at vertex `v` for every source bit set in `new`.
    #[inline]
    pub(super) fn mark(&mut self, v: usize, new: u64, mut level: u32) {
        while level != 0 {
            let j = level.trailing_zeros() as usize;
            level &= level - 1;
            match &mut self.planes {
                // `new` holds only batch bits, so it fits the byte.
                Planes::Bytes(p) => p[j][v] |= new as u8,
                Planes::Words(p) => p[j][v] |= new,
            }
        }
    }

    /// Records that the sources in `live` found vertices at `level`.
    pub(super) fn settled(&mut self, level: u32, live: u64) {
        for (j, sources) in self.in_plane.iter_mut().enumerate() {
            if level >> j & 1 != 0 {
                *sources |= live;
            }
        }
    }

    /// One [`LevelMap`] per source, sized by the planes it has bits in.
    /// A vertex other than the source is reached at a level of 1 or
    /// more, which has a bit in some plane, so `reached` is the OR of
    /// the planes plus the source.
    pub(super) fn into_maps(self, sources: &[Vid]) -> Vec<LevelMap> {
        let mut maps: Vec<LevelMap> = (0..self.kq)
            .map(|k| {
                let depth = self.in_plane.iter().rposition(|&m| m >> k & 1 != 0);
                LevelMap::zeroed(self.n, depth.map_or(0, |j| j + 1))
            })
            .collect();
        match &self.planes {
            Planes::Bytes(p) => by_bytes(p, &mut maps),
            Planes::Words(p) => by_transpose(p, &mut maps),
        }
        let stride = self.n.div_ceil(64);
        for (map, &s) in maps.iter_mut().zip(sources) {
            let (reached, planes) = map.words.split_at_mut(stride);
            for plane in planes.chunks(stride) {
                for (r, &p) in reached.iter_mut().zip(plane) {
                    *r |= p;
                }
            }
            reached[s as usize / 64] |= 1 << (s % 64);
        }
        maps
    }
}

/// Plane `j` of every map from byte-per-vertex planes, eight vertices at
/// a time: their bytes read as one little-endian word, source `k`'s bit
/// of each shifted to the bottom of its byte, and the eight bits packed
/// into one byte by a multiply (byte `i` lands in bit `56 + i`; no two
/// partial products meet, so nothing carries).
fn by_bytes(planes: &[Vec<u8>], maps: &mut [LevelMap]) {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const PACK: u64 = 0x0102_0408_1020_4080;
    for (j, src) in planes.iter().enumerate() {
        for (k, map) in maps.iter_mut().enumerate() {
            if j >= map.planes {
                continue;
            }
            let stride = map.stride();
            let dst = &mut map.words[(1 + j) * stride..(2 + j) * stride];
            for (d, chunk) in dst.iter_mut().zip(src.chunks(64)) {
                let mut word = 0;
                for (g, bytes) in chunk.chunks(8).enumerate() {
                    let mut eight = [0u8; 8];
                    eight[..bytes.len()].copy_from_slice(bytes);
                    let bits = u64::from_le_bytes(eight) >> k & LOW;
                    word |= (bits.wrapping_mul(PACK) >> 56) << (8 * g);
                }
                *d = word;
            }
        }
    }
}

/// Plane `j` of every map from `u64`-per-vertex planes, 64 vertices at a
/// time: the block is a 64×64 bit matrix (row = vertex, column =
/// source), and its transpose's row `k` is word `b` of source `k`'s
/// plane. All-zero blocks are skipped.
fn by_transpose(planes: &[Vec<u64>], maps: &mut [LevelMap]) {
    let mut block = [0u64; 64];
    for (j, src) in planes.iter().enumerate() {
        for (b, chunk) in src.chunks(64).enumerate() {
            if chunk.iter().all(|&w| w == 0) {
                continue;
            }
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()..].fill(0);
            transpose64(&mut block);
            for (map, &row) in maps.iter_mut().zip(&block) {
                if j < map.planes {
                    let stride = map.stride();
                    map.words[(1 + j) * stride + b] = row;
                }
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place, bit `c` of `a[r]` being
/// entry (r, c): six rounds of block swaps, halving the block each time
/// (Hacker's Delight §7-3).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transpose64_matches_the_definition() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let a: [u64; 64] = std::array::from_fn(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        });
        let mut t = a;
        transpose64(&mut t);
        for (r, &row) in a.iter().enumerate() {
            for (c, &col) in t.iter().enumerate() {
                assert_eq!(col >> r & 1, row >> c & 1, "entry ({r}, {c})");
            }
        }
    }

    #[test]
    fn an_empty_id_space_has_an_empty_map() {
        let map = LevelMap::from_levels(&[]);
        assert_eq!(map.to_vec(), Vec::<u32>::new());
        assert_eq!(map.count_within(u32::MAX), 0);
        assert!(map.level_counts().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `from_levels` → `to_vec` and `level` give the array back;
        /// `count_within` and `level_counts` agree with a scan of it.
        #[test]
        fn from_levels_round_trips(
            raw in proptest::collection::vec(0u32..200, 0..300),
            depth in 1u32..200,
            unreached in 0u32..4,
            huge in any::<bool>(),
        ) {
            let mut levels: Vec<u32> = raw
                .iter()
                .map(|&l| if l % 4 < unreached { UNREACHED } else { l % depth })
                .collect();
            if huge && !levels.is_empty() {
                levels[0] = u32::MAX - 1;
            }
            let map = LevelMap::from_levels(&levels);
            prop_assert_eq!(map.to_vec(), levels.clone());
            for (v, &l) in levels.iter().enumerate() {
                prop_assert_eq!(map.level(v as Vid), l);
            }
            let finite = levels.iter().filter(|&&l| l != UNREACHED);
            let deepest = finite.clone().max().copied().unwrap_or(0);
            if !huge {
                let mut counts = vec![0u64; deepest as usize + 1];
                for &l in finite.clone() {
                    counts[l as usize] += 1;
                }
                if levels.iter().all(|&l| l == UNREACHED) {
                    counts.clear();
                }
                prop_assert_eq!(map.level_counts(), counts);
            }
            let hops = (0..=deepest.min(300) + 2).chain([deepest, u32::MAX - 1, u32::MAX]);
            for h in hops {
                let scan = finite.clone().filter(|&&l| l <= h).count() as u64;
                prop_assert_eq!((h, map.count_within(h)), (h, scan));
            }
            prop_assert_eq!(LevelMap::from_levels(&map.to_vec()), map);
        }

        /// Both plane words — bytes cut by multiplies, `u64`s cut by
        /// transposes — give the maps that `from_levels` makes of the
        /// levels marked into them.
        #[test]
        fn both_routes_give_the_maps_of_the_marked_levels(
            n in 1usize..300,
            kq in 1usize..=64,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let sources: Vec<Vid> = (0..kq).map(|_| rand() % n as u64).collect();
            let levels: Vec<Vec<u32>> = sources
                .iter()
                .map(|&s| {
                    let depth = 1 + (rand() % 40) as u32;
                    (0..n as u64)
                        .map(|v| match rand() % 4 {
                            _ if v == s => 0,
                            0 => UNREACHED,
                            _ => 1 + (rand() % u64::from(depth)) as u32,
                        })
                        .collect()
                })
                .collect();
            let want: Vec<LevelMap> = levels.iter().map(|l| LevelMap::from_levels(l)).collect();
            for width in [kq, BYTE_MAX_WIDTH, BYTE_MAX_WIDTH + 1] {
                let (sources, levels, want) = (&sources[..width.min(kq)], &levels[..width.min(kq)], &want[..width.min(kq)]);
                let mut planes = LevelPlanes::new(n, sources.len());
                let deepest = levels.iter().flatten().filter(|&&l| l != UNREACHED).max();
                for level in 1..=deepest.copied().unwrap_or(0) {
                    planes.grow(level);
                    let mut live = 0;
                    for v in 0..n {
                        let new = levels
                            .iter()
                            .enumerate()
                            .filter(|(_, lv)| lv[v] == level)
                            .fold(0u64, |m, (k, _)| m | 1 << k);
                        if new != 0 {
                            planes.mark(v, new, level);
                        }
                        live |= new;
                    }
                    planes.settled(level, live);
                }
                prop_assert_eq!(planes.into_maps(sources), want.to_vec());
            }
        }
    }
}
