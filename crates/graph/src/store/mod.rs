//! Zero-copy graph storage: partition files, mapped regions, and the
//! [`GraphStore`] that serves [`Csr`] views over them.
//!
//! The store decouples graph lifetime from process lifetime (ROADMAP
//! item 5). A build pays the Kronecker + CSR construction cost once and
//! persists each rank's partition as one file; every later start maps
//! the files read-only and traverses them **in place** — no
//! deserialization, no adjacency copies, restart in milliseconds. The
//! layering:
//!
//! * [`bytes`] — the backing region: aligned heap buffer or `mmap(2)`;
//! * `view` — typed slices over section ranges (crate-internal; they
//!   are what `Csr` is made of);
//! * [`format`](mod@format) — the on-disk layout: header, section table, FNV-1a
//!   checksums, 64-byte-aligned payloads;
//! * [`GraphStore`] — one opened partition; [`StoreManifest`] — the
//!   per-directory metadata that ties partitions into one graph;
//!   [`StoreDir`] — the one reader ([`StoreDir::open`]) and the one
//!   writer ([`StoreDir::persist`]) of a whole directory.
//!
//! A store directory is `MANIFEST` plus one `part-NNNNN.swgs` per rank.

use crate::csr::Csr;
use crate::{Partition1D, Vid};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod bytes;
pub mod format;
pub(crate) mod view;

use bytes::StoreBytes;
use format::{kind, SectionEntry, StoreEncoder, StoreHeader};
use view::U64s;

// Sections are cast to their element types in place; the format is
// little-endian on disk, so a big-endian host would read garbage.
#[cfg(target_endian = "big")]
compile_error!("the graph store maps little-endian sections in place");

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// How to back an opened partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageBackend {
    /// Read the file into an aligned heap buffer (one copy; useful for
    /// differential tests and filesystems where `mmap` is unwelcome).
    Heap,
    /// `mmap(2)` the file read-only — the zero-copy restart path.
    Mapped,
}

/// What opening a store cost, in the units the `store.*` counters
/// report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreOpenStats {
    /// Bytes made visible through `mmap` (0 on the heap backend).
    pub bytes_mapped: u64,
    /// Bytes copied into heap buffers (0 on the mmap backend).
    pub bytes_copied: u64,
    /// Sections that passed checksum + coherence verification.
    pub sections_verified: u64,
}

/// Partition metadata that cannot be derived from the CSR itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionMeta {
    /// This partition's rank.
    pub rank: u32,
    /// Ranks in the store.
    pub num_ranks: u32,
    /// Undirected input-edge count of the whole graph.
    pub input_edges: u64,
    /// Neighbour lists were degree-reordered before persisting.
    pub degree_ordered: bool,
}

/// One opened (or freshly encoded) partition: verified header +
/// section table over a shared backing region, from which [`Csr`]
/// views are cut without copying.
#[derive(Debug)]
pub struct GraphStore {
    bytes: Arc<StoreBytes>,
    header: StoreHeader,
    sections: Vec<SectionEntry>,
    stats: StoreOpenStats,
}

impl GraphStore {
    /// Encodes a partition into its on-disk byte image.
    pub fn encode(csr: &Csr, meta: &PartitionMeta) -> Vec<u8> {
        let header = StoreHeader {
            version: format::VERSION,
            flags: if meta.degree_ordered { format::FLAG_DEGREE_ORDERED } else { 0 },
            num_vertices: csr.num_vertices(),
            row_base: csr.row_base(),
            rows: csr.num_rows(),
            num_ranks: meta.num_ranks,
            rank: meta.rank,
            input_edges: meta.input_edges,
            section_count: 0,
        };
        let mut enc = StoreEncoder::new(header);
        enc.section_u64s(kind::ROW_OFFSETS, csr.offsets());
        enc.section_u64s(kind::ADJ_TARGETS, csr.targets_raw());
        enc.finish()
    }

    /// Encodes and writes a partition file under `dir`, returning its
    /// path. The write goes through a temp file + rename so a crashed
    /// build never leaves a torn partition behind a valid name.
    pub fn persist(dir: &Path, csr: &Csr, meta: &PartitionMeta) -> io::Result<PathBuf> {
        let image = Self::encode(csr, meta);
        let path = partition_path(dir, meta.rank as usize);
        let tmp = path.with_extension("swgs.tmp");
        std::fs::write(&tmp, &image)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Opens an encoded image held in memory (heap backing).
    pub fn from_bytes(image: Vec<u8>) -> io::Result<GraphStore> {
        let copied = image.len() as u64;
        Self::from_region(StoreBytes::from_vec(image), 0, copied)
    }

    /// Opens a partition file with the chosen backend, verifying every
    /// section before any view is handed out.
    pub fn open(path: &Path, backend: StorageBackend) -> io::Result<GraphStore> {
        match backend {
            StorageBackend::Mapped => {
                let region = StoreBytes::map_file(path)?;
                let mapped = region.len() as u64;
                Self::from_region(region, mapped, 0)
            }
            StorageBackend::Heap => Self::from_bytes(std::fs::read(path)?),
        }
    }

    fn from_region(region: StoreBytes, bytes_mapped: u64, bytes_copied: u64) -> io::Result<GraphStore> {
        let (header, sections) = format::parse(region.as_bytes())?;
        let store = GraphStore {
            bytes: Arc::new(region),
            header,
            sections,
            stats: StoreOpenStats {
                bytes_mapped,
                bytes_copied,
                sections_verified: 0,
            },
        };
        store.validate()
    }

    /// Cross-section coherence checks (checksums already passed in
    /// `format::parse`): exactly the two CSR sections, row offsets
    /// monotone and consistent with the target count, row range inside
    /// the vertex space. The header's counts come from the file, so
    /// every size is computed with checked arithmetic: an impossible
    /// value is `InvalidData`, never an overflow.
    fn validate(mut self) -> io::Result<GraphStore> {
        if self.sections.len() != 2 {
            return Err(corrupt(format!(
                "{} sections present, a partition holds 2",
                self.sections.len()
            )));
        }
        let need = |k| {
            self.section(k)
                .ok_or_else(|| corrupt(format!("missing section kind {k}")))
        };
        let offs = need(kind::ROW_OFFSETS)?;
        let tgts = need(kind::ADJ_TARGETS)?;
        let h = self.header;
        if h.rows.checked_add(1).and_then(|n| n.checked_mul(8)) != Some(offs.len) {
            return Err(corrupt(format!(
                "row-offset section holds {} bytes, header promises {} rows",
                offs.len, h.rows
            )));
        }
        let offsets = self.view_u64(offs);
        if offsets[0] != 0 {
            return Err(corrupt("row offsets do not start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("row offsets not monotone".into()));
        }
        let last = *offsets.last().unwrap();
        if last.checked_mul(8) != Some(tgts.len) {
            return Err(corrupt(format!(
                "row offsets end at entry {last} but target section holds {} bytes",
                tgts.len
            )));
        }
        if h.row_base.checked_add(h.rows).is_none_or(|end| end > h.num_vertices) {
            return Err(corrupt("row range exceeds vertex space".into()));
        }
        self.stats.sections_verified = 2;
        Ok(self)
    }

    fn section(&self, kind: u32) -> Option<SectionEntry> {
        self.sections.iter().copied().find(|e| e.kind == kind)
    }

    fn view_u64(&self, e: SectionEntry) -> U64s {
        U64s::mapped(self.bytes.clone(), e.offset as usize, e.len as usize)
    }

    /// The partition's CSR as a zero-copy view. O(1): clones bump the
    /// backing `Arc`, no adjacency bytes move.
    pub fn csr(&self) -> Csr {
        let offs = self.section(kind::ROW_OFFSETS).expect("validated at open");
        let tgts = self.section(kind::ADJ_TARGETS).expect("validated at open");
        Csr::from_parts(
            self.header.row_base,
            self.header.num_vertices,
            self.view_u64(offs),
            self.view_u64(tgts),
        )
    }

    /// The verified header.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Open-cost accounting for the `store.*` counters.
    pub fn stats(&self) -> StoreOpenStats {
        self.stats
    }

    /// True when the backing region is an `mmap`.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Total bytes of the backing image.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Path of rank `rank`'s partition file inside a store directory.
pub fn partition_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("part-{rank:05}.swgs"))
}

/// Directory-level metadata: what one graph's partitions have in
/// common, written once at build and checked against the requested
/// configuration at load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreManifest {
    /// Global vertex-id space size.
    pub num_vertices: Vid,
    /// Partition count (one file per rank).
    pub num_ranks: u32,
    /// Undirected input-edge count of the whole graph.
    pub input_edges: u64,
    /// Neighbour lists were degree-reordered before persisting.
    pub degree_ordered: bool,
}

impl StoreManifest {
    /// Writes the manifest as plain `key=value` lines (temp + rename,
    /// so the manifest appearing means the store directory is whole —
    /// write it last).
    fn write(&self, dir: &Path) -> io::Result<()> {
        let body = format!(
            "swgs_manifest=1\nnum_vertices={}\nnum_ranks={}\ninput_edges={}\ndegree_ordered={}\n",
            self.num_vertices,
            self.num_ranks,
            self.input_edges,
            u8::from(self.degree_ordered),
        );
        let path = dir.join(MANIFEST_FILE);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, &path)
    }

    /// Reads and validates a manifest. Unknown keys are ignored.
    fn read(dir: &Path) -> io::Result<StoreManifest> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let field = |key: &str| -> io::Result<u64> {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| corrupt(format!("manifest missing or malformed key `{key}`")))
        };
        if field("swgs_manifest")? != 1 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unsupported manifest version",
            ));
        }
        Ok(StoreManifest {
            num_vertices: field("num_vertices")?,
            num_ranks: u32::try_from(field("num_ranks")?)
                .map_err(|_| corrupt("num_ranks out of range".into()))?,
            input_edges: field("input_edges")?,
            degree_ordered: field("degree_ordered")? != 0,
        })
    }
}

/// A whole store directory, opened: the manifest and every partition
/// in rank order, each checked against the manifest.
#[derive(Debug)]
pub struct StoreDir {
    /// The directory's manifest.
    pub manifest: StoreManifest,
    /// One opened partition per rank, in rank order.
    pub parts: Vec<GraphStore>,
    /// Open costs summed over the partitions.
    pub stats: StoreOpenStats,
}

impl StoreDir {
    /// The one store-directory reader: reads `MANIFEST`, then opens
    /// every `part-NNNNN.swgs` on `backend`. Refuses, as `InvalidData`,
    /// a manifest with zero ranks or fewer vertices than ranks, and any
    /// partition whose header disagrees with the manifest and the
    /// [`Partition1D`] it implies — rank, rank count, vertex count, row
    /// range, degree-order flag. Errors of the partition
    /// files themselves (checksums, coherence) pass through, prefixed
    /// with the file's path.
    pub fn open(dir: &Path, backend: StorageBackend) -> io::Result<StoreDir> {
        let manifest = StoreManifest::read(dir)?;
        let ranks = manifest.num_ranks;
        if ranks == 0 || manifest.num_vertices < ranks as u64 {
            return Err(corrupt(format!(
                "store {}: {} ranks for {} vertices",
                dir.display(),
                ranks,
                manifest.num_vertices
            )));
        }
        let part = Partition1D::new(manifest.num_vertices, ranks);
        let mut stats = StoreOpenStats::default();
        let mut parts = Vec::with_capacity(ranks as usize);
        for r in 0..ranks {
            let path = partition_path(dir, r as usize);
            let store = GraphStore::open(&path, backend)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            let h = store.header();
            let (lo, hi) = part.range(r);
            if h.rank != r
                || h.num_ranks != ranks
                || h.num_vertices != manifest.num_vertices
                || h.row_base != lo
                || h.rows != hi - lo
                || h.degree_ordered() != manifest.degree_ordered
            {
                return Err(corrupt(format!(
                    "{}: partition header disagrees with the manifest (expected rank {r}, \
                     rows {lo}..{hi} of {manifest:?}): {h:?}",
                    path.display()
                )));
            }
            let o = store.stats();
            stats.bytes_mapped += o.bytes_mapped;
            stats.bytes_copied += o.bytes_copied;
            stats.sections_verified += o.sections_verified;
            parts.push(store);
        }
        Ok(StoreDir {
            manifest,
            parts,
            stats,
        })
    }

    /// The one store-directory writer: persists rank `r`'s CSR — the
    /// `r`-th of `parts` — as `part-NNNNN.swgs` under `dir` (created if
    /// absent), its [`PartitionMeta`] derived from `manifest`, then
    /// writes `MANIFEST` last: a crashed persist never leaves a
    /// directory that opens.
    pub fn persist<'a>(
        dir: &Path,
        manifest: &StoreManifest,
        parts: impl IntoIterator<Item = &'a Csr>,
    ) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (rank, csr) in (0..).zip(parts) {
            let meta = PartitionMeta {
                rank,
                num_ranks: manifest.num_ranks,
                input_edges: manifest.input_edges,
                degree_ordered: manifest.degree_ordered,
            };
            GraphStore::persist(dir, csr, &meta)?;
        }
        manifest.write(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_kronecker, KroneckerConfig};

    fn build_rank(scale: u32, ranks: u32, rank: u32) -> Csr {
        let el = generate_kronecker(&KroneckerConfig::graph500(scale, 7));
        let part = crate::Partition1D::new(el.num_vertices, ranks);
        let (lo, hi) = part.range(rank);
        Csr::from_edge_list_rows(&el, lo, hi - lo)
    }

    fn meta(rank: u32, ranks: u32) -> PartitionMeta {
        PartitionMeta {
            rank,
            num_ranks: ranks,
            input_edges: 12345,
            degree_ordered: false,
        }
    }

    #[test]
    fn encode_open_round_trips() {
        let csr = build_rank(9, 4, 1);
        let image = GraphStore::encode(&csr, &meta(1, 4));
        let store = GraphStore::from_bytes(image).unwrap();
        assert_eq!(store.csr(), csr);
        assert_eq!(store.header().input_edges, 12345);
        let stats = store.stats();
        assert_eq!(stats.sections_verified, 2);
        assert_eq!(stats.bytes_mapped, 0);
        assert!(stats.bytes_copied > 0);
    }

    #[test]
    fn mapped_open_is_zero_copy_and_identical() {
        let dir = std::env::temp_dir().join("swgs_store_test_map");
        std::fs::create_dir_all(&dir).unwrap();
        let csr = build_rank(9, 2, 1);
        let path = GraphStore::persist(&dir, &csr, &meta(1, 2)).unwrap();
        let store = GraphStore::open(&path, StorageBackend::Mapped).unwrap();
        assert!(store.is_mapped());
        let view = store.csr();
        assert!(view.is_mapped());
        assert_eq!(view, csr);
        let stats = store.stats();
        assert_eq!(stats.bytes_copied, 0);
        assert_eq!(stats.bytes_mapped, store.byte_len() as u64);
        // Views outlive the store: the Arc keeps the mapping alive.
        drop(store);
        assert_eq!(view.neighbors_local(0), csr.neighbors_local(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_backend_reports_copies() {
        let dir = std::env::temp_dir().join("swgs_store_test_heap");
        std::fs::create_dir_all(&dir).unwrap();
        let csr = build_rank(8, 2, 0);
        let path = GraphStore::persist(&dir, &csr, &meta(0, 2)).unwrap();
        let store = GraphStore::open(&path, StorageBackend::Heap).unwrap();
        assert!(!store.is_mapped());
        assert!(!store.csr().is_mapped());
        assert_eq!(store.csr(), csr);
        assert_eq!(store.stats().bytes_mapped, 0);
        assert_eq!(store.stats().bytes_copied, store.byte_len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_round_trips() {
        let dir = std::env::temp_dir().join("swgs_store_test_manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).ok();
        let m = StoreManifest {
            num_vertices: 1 << 16,
            num_ranks: 8,
            input_edges: 1 << 20,
            degree_ordered: true,
        };
        m.write(&dir).unwrap();
        assert_eq!(StoreManifest::read(&dir).unwrap(), m);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).ok();
    }

    fn plain_manifest(ranks: u32) -> StoreManifest {
        StoreManifest {
            num_vertices: 1 << 9,
            num_ranks: ranks,
            input_edges: 12345,
            degree_ordered: false,
        }
    }

    #[test]
    fn store_dir_persists_and_opens_every_partition() {
        let dir = std::env::temp_dir().join(format!("swgs_store_dir_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rows: Vec<Csr> = (0..3).map(|r| build_rank(9, 3, r)).collect();
        let m = plain_manifest(3);
        StoreDir::persist(&dir, &m, &rows).unwrap();
        for backend in [StorageBackend::Mapped, StorageBackend::Heap] {
            let opened = StoreDir::open(&dir, backend).unwrap();
            assert_eq!(opened.manifest, m);
            let csrs: Vec<Csr> = opened.parts.iter().map(GraphStore::csr).collect();
            assert_eq!(csrs, rows);
            assert_eq!(opened.stats.sections_verified, 3 * 2);
            let bytes: u64 = opened.parts.iter().map(|p| p.byte_len() as u64).sum();
            let (mapped, copied) = (opened.stats.bytes_mapped, opened.stats.bytes_copied);
            match backend {
                StorageBackend::Mapped => assert_eq!((mapped, copied), (bytes, 0)),
                StorageBackend::Heap => assert_eq!((mapped, copied), (0, bytes)),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_dir_refuses_a_partition_whose_flags_disagree_with_the_manifest() {
        let dir = std::env::temp_dir().join(format!("swgs_store_flags_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rows: Vec<Csr> = (0..2).map(|r| build_rank(9, 2, r)).collect();
        let m = plain_manifest(2);
        StoreDir::persist(&dir, &m, &rows).unwrap();
        assert!(StoreDir::open(&dir, StorageBackend::Heap).is_ok());
        let refused = |what: &str| {
            let err = StoreDir::open(&dir, StorageBackend::Heap).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("disagrees with the manifest"), "{what}: {err}");
        };
        // Rank 1 marked degree-ordered under a manifest that is not.
        let ordered = PartitionMeta { degree_ordered: true, ..meta(1, 2) };
        GraphStore::persist(&dir, &rows[1], &ordered).unwrap();
        refused("degree-order flag");
        // Rank 1's file where rank 0's belongs.
        GraphStore::persist(&dir, &rows[1], &meta(1, 2)).unwrap();
        std::fs::copy(partition_path(&dir, 1), partition_path(&dir, 0)).unwrap();
        refused("rank and row range");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_dir_refuses_impossible_manifests() {
        let dir = std::env::temp_dir().join(format!("swgs_store_bad_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for m in [plain_manifest(0), StoreManifest { num_vertices: 2, ..plain_manifest(3) }] {
            m.write(&dir).unwrap();
            let err = StoreDir::open(&dir, StorageBackend::Mapped).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("ranks for"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A hand-built partition whose sections will checksum fine, whatever
    /// they claim.
    fn crafted(num_vertices: u64, row_base: u64, rows: u64, offsets: &[u64], targets: &[u64]) -> StoreEncoder {
        let header = StoreHeader {
            version: format::VERSION,
            flags: 0,
            num_vertices,
            row_base,
            rows,
            num_ranks: 1,
            rank: 0,
            input_edges: 0,
            section_count: 0,
        };
        let mut enc = StoreEncoder::new(header);
        enc.section_u64s(kind::ROW_OFFSETS, offsets);
        enc.section_u64s(kind::ADJ_TARGETS, targets);
        enc
    }

    fn open_crafted(num_vertices: u64, row_base: u64, rows: u64, offsets: &[u64], targets: &[u64]) -> io::Result<GraphStore> {
        GraphStore::from_bytes(crafted(num_vertices, row_base, rows, offsets, targets).finish())
    }

    #[test]
    fn lying_offsets_rejected_despite_valid_checksums() {
        // Row offsets that overrun the target section.
        let err = open_crafted(4, 0, 2, &[0, 2, 9], &[1, 0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("target section"), "{err}");
    }

    #[test]
    fn crafted_header_sizes_are_invalid_data_not_overflows() {
        // Each size check multiplies or adds values read from the file:
        // a row count whose offset section would span 2^64 bytes, the
        // largest row count, a last offset whose target section would,
        // and a row range that wraps the id space.
        let cases: [(&str, io::Result<GraphStore>); 4] = [
            ("rows = 2^61 - 1", open_crafted(4, 0, (1 << 61) - 1, &[], &[])),
            ("rows = u64::MAX", open_crafted(4, 0, u64::MAX, &[], &[])),
            ("last offset 2^61", open_crafted(4, 0, 1, &[0, 1 << 61], &[])),
            ("row_base = u64::MAX", open_crafted(4, u64::MAX, 1, &[0, 1], &[0])),
        ];
        for (what, opened) in cases {
            let err = opened.err().unwrap_or_else(|| panic!("{what}: opened"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn an_image_with_extra_sections_is_refused() {
        let mut enc = crafted(4, 0, 2, &[0, 1, 2], &[1, 0]);
        assert!(GraphStore::from_bytes(crafted(4, 0, 2, &[0, 1, 2], &[1, 0]).finish()).is_ok());
        enc.section(3, vec![0; 8]);
        let err = GraphStore::from_bytes(enc.finish()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("3 sections"), "{err}");
    }
}
