//! Zero-copy graph storage: partition files, mapped regions, and the
//! [`GraphStore`] that serves [`Csr`]/[`CompressedCsr`] views over
//! them.
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
//!   are what `Csr` and `CompressedCsr` are made of);
//! * [`format`](mod@format) — the on-disk layout: header, section table, FNV-1a
//!   checksums, 64-byte-aligned payloads;
//! * [`GraphStore`] — one opened partition; [`StoreManifest`] — the
//!   per-directory metadata that ties partitions into one graph;
//!   [`StoreDir`] — the one reader ([`StoreDir::open`]) and the one
//!   writer ([`StoreDir::persist`]) of a whole directory.
//!
//! A store directory is `MANIFEST` plus one `part-NNNNN.swgs` per rank.

use crate::compressed::{CompressedCsr, ENTRY_WORDS};
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
use view::{ByteSec, U32s, U64s};

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
    /// Hub threshold the sidecar was built with (0 without sidecar).
    pub hub_min_degree: u64,
}

/// One opened (or freshly encoded) partition: verified header +
/// section table over a shared backing region, from which [`Csr`] and
/// [`CompressedCsr`] views are cut without copying.
#[derive(Debug)]
pub struct GraphStore {
    bytes: Arc<StoreBytes>,
    header: StoreHeader,
    sections: Vec<SectionEntry>,
    stats: StoreOpenStats,
}

impl GraphStore {
    /// Encodes a partition into its on-disk byte image.
    pub fn encode(csr: &Csr, compressed: Option<&CompressedCsr>, meta: &PartitionMeta) -> Vec<u8> {
        let mut flags = 0;
        if meta.degree_ordered {
            flags |= format::FLAG_DEGREE_ORDERED;
        }
        if compressed.is_some() {
            flags |= format::FLAG_HAS_COMPRESSED;
        }
        let header = StoreHeader {
            version: format::VERSION,
            flags,
            num_vertices: csr.num_vertices(),
            row_base: csr.row_base(),
            rows: csr.num_rows(),
            num_ranks: meta.num_ranks,
            rank: meta.rank,
            input_edges: meta.input_edges,
            hub_min_degree: if compressed.is_some() { meta.hub_min_degree } else { 0 },
            plain_bytes_replaced: compressed.map_or(0, |c| c.plain_bytes_replaced() as u64),
            section_count: 0,
        };
        let mut enc = StoreEncoder::new(header);
        enc.section_u64s(kind::ROW_OFFSETS, csr.offsets());
        enc.section_u64s(kind::ADJ_TARGETS, csr.targets_raw());
        if let Some(c) = compressed {
            enc.section_u32s(kind::CMP_ROW_OF, c.row_of_words());
            enc.section_u32s(kind::CMP_ENTRIES, &c.entry_words());
            enc.section(kind::CMP_DATA, c.data_bytes().to_vec());
            enc.section_u64s(kind::CMP_CHUNK_FIRST, c.chunk_first_words());
            enc.section_u32s(kind::CMP_CHUNK_OFFSET, c.chunk_offset_words());
        }
        enc.finish()
    }

    /// Encodes and writes a partition file under `dir`, returning its
    /// path. The write goes through a temp file + rename so a crashed
    /// build never leaves a torn partition behind a valid name.
    pub fn persist(
        dir: &Path,
        csr: &Csr,
        compressed: Option<&CompressedCsr>,
        meta: &PartitionMeta,
    ) -> io::Result<PathBuf> {
        let image = Self::encode(csr, compressed, meta);
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
    /// `format::parse`): required sections present exactly once, row
    /// offsets monotone and consistent with the target count, sidecar
    /// tables mutually consistent.
    fn validate(mut self) -> io::Result<GraphStore> {
        let need = |k| {
            self.section(k)
                .ok_or_else(|| corrupt(format!("missing section kind {k}")))
        };
        for e in &self.sections {
            if self.sections.iter().filter(|o| o.kind == e.kind).count() > 1 {
                return Err(corrupt(format!("duplicate section kind {}", e.kind)));
            }
        }

        let offs = need(kind::ROW_OFFSETS)?;
        let tgts = need(kind::ADJ_TARGETS)?;
        if offs.len != (self.header.rows + 1) * 8 {
            return Err(corrupt(format!(
                "row-offset section holds {} bytes, header promises {} rows",
                offs.len, self.header.rows
            )));
        }
        let offsets = self.view_u64(offs);
        if offsets[0] != 0 {
            return Err(corrupt("row offsets do not start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("row offsets not monotone".into()));
        }
        if *offsets.last().unwrap() * 8 != tgts.len {
            return Err(corrupt(format!(
                "row offsets end at entry {} but target section holds {} bytes",
                offsets.last().unwrap(),
                tgts.len
            )));
        }
        if self.header.row_base + self.header.rows > self.header.num_vertices {
            return Err(corrupt("row range exceeds vertex space".into()));
        }

        let mut verified = 2;
        if self.header.has_compressed() {
            let row_of = need(kind::CMP_ROW_OF)?;
            if row_of.len != self.header.rows * 4 {
                return Err(corrupt("sidecar row index disagrees with row count".into()));
            }
            let entries = need(kind::CMP_ENTRIES)?;
            if entries.len % (ENTRY_WORDS as u64 * 4) != 0 {
                return Err(corrupt("sidecar entry table misshapen".into()));
            }
            need(kind::CMP_DATA)?;
            need(kind::CMP_CHUNK_FIRST)?;
            need(kind::CMP_CHUNK_OFFSET)?;
            // Full cross-table validation happens in the sidecar view
            // constructor; build it once here so a bad file fails the
            // open, not the first traversal.
            self.compressed_views().map_err(corrupt)?;
            verified += 5;
        } else if self.sections.len() != 2 {
            return Err(corrupt(format!(
                "{} sections present but header promises plain CSR only",
                self.sections.len()
            )));
        }
        self.stats.sections_verified = verified;
        Ok(self)
    }

    fn section(&self, kind: u32) -> Option<SectionEntry> {
        self.sections.iter().copied().find(|e| e.kind == kind)
    }

    fn view_u64(&self, e: SectionEntry) -> U64s {
        U64s::mapped(self.bytes.clone(), e.offset as usize, e.len as usize)
    }

    fn view_u32(&self, e: SectionEntry) -> U32s {
        U32s::mapped(self.bytes.clone(), e.offset as usize, e.len as usize)
    }

    fn view_bytes(&self, e: SectionEntry) -> ByteSec {
        ByteSec::mapped(self.bytes.clone(), e.offset as usize, e.len as usize)
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

    fn compressed_views(&self) -> Result<CompressedCsr, String> {
        let row_of = self.section(kind::CMP_ROW_OF).expect("validated at open");
        let entries = self.section(kind::CMP_ENTRIES).expect("validated at open");
        let data = self.section(kind::CMP_DATA).expect("validated at open");
        let first = self.section(kind::CMP_CHUNK_FIRST).expect("validated at open");
        let offset = self.section(kind::CMP_CHUNK_OFFSET).expect("validated at open");
        CompressedCsr::from_parts(
            self.view_u32(row_of),
            self.view_u32(entries),
            self.view_bytes(data),
            self.view_u64(first),
            self.view_u32(offset),
            self.header.plain_bytes_replaced as usize,
        )
    }

    /// The byte-coded hub sidecar, when the partition carries one.
    pub fn compressed(&self) -> Option<CompressedCsr> {
        if !self.header.has_compressed() {
            return None;
        }
        Some(self.compressed_views().expect("validated at open"))
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
    /// Partitions carry the byte-coded hub sidecar.
    pub compressed: bool,
    /// Hub threshold the sidecars were built with (0 without them).
    pub hub_min_degree: u64,
}

impl StoreManifest {
    /// Writes the manifest as plain `key=value` lines (temp + rename,
    /// so the manifest appearing means the store directory is whole —
    /// write it last).
    fn write(&self, dir: &Path) -> io::Result<()> {
        let body = format!(
            "swgs_manifest=1\nnum_vertices={}\nnum_ranks={}\ninput_edges={}\ndegree_ordered={}\ncompressed={}\nhub_min_degree={}\n",
            self.num_vertices,
            self.num_ranks,
            self.input_edges,
            u8::from(self.degree_ordered),
            u8::from(self.compressed),
            self.hub_min_degree,
        );
        let path = dir.join(MANIFEST_FILE);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, &path)
    }

    /// Reads and validates a manifest.
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
            compressed: field("compressed")? != 0,
            hub_min_degree: field("hub_min_degree")?,
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
    /// range, degree-order flag, sidecar flag. Errors of the partition
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
                || h.has_compressed() != manifest.compressed
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

    /// The one store-directory writer: persists rank `r`'s `(CSR,
    /// sidecar)` — the `r`-th of `parts` — as `part-NNNNN.swgs` under
    /// `dir` (created if absent), its [`PartitionMeta`] derived from
    /// `manifest`, then writes `MANIFEST` last: a crashed persist never
    /// leaves a directory that opens.
    pub fn persist<'a>(
        dir: &Path,
        manifest: &StoreManifest,
        parts: impl IntoIterator<Item = (&'a Csr, Option<&'a CompressedCsr>)>,
    ) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (rank, (csr, sidecar)) in (0..).zip(parts) {
            let meta = PartitionMeta {
                rank,
                num_ranks: manifest.num_ranks,
                input_edges: manifest.input_edges,
                degree_ordered: manifest.degree_ordered,
                hub_min_degree: manifest.hub_min_degree,
            };
            GraphStore::persist(dir, csr, sidecar, &meta)?;
        }
        manifest.write(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_kronecker, KroneckerConfig};

    fn build_rank(scale: u32, ranks: u32, rank: u32) -> (Csr, CompressedCsr) {
        let el = generate_kronecker(&KroneckerConfig::graph500(scale, 7));
        let part = crate::Partition1D::new(el.num_vertices, ranks);
        let (lo, hi) = part.range(rank);
        let csr = Csr::from_edge_list_rows(&el, lo, hi - lo);
        let cmp = CompressedCsr::from_csr(&csr, 8);
        (csr, cmp)
    }

    fn meta(rank: u32, ranks: u32) -> PartitionMeta {
        PartitionMeta {
            rank,
            num_ranks: ranks,
            input_edges: 12345,
            degree_ordered: false,
            hub_min_degree: 8,
        }
    }

    #[test]
    fn encode_open_round_trips_csr_and_sidecar() {
        let (csr, cmp) = build_rank(9, 4, 1);
        let image = GraphStore::encode(&csr, Some(&cmp), &meta(1, 4));
        let store = GraphStore::from_bytes(image).unwrap();
        assert_eq!(store.csr(), csr);
        assert_eq!(store.compressed().unwrap(), cmp);
        assert_eq!(store.header().input_edges, 12345);
        assert_eq!(store.header().hub_min_degree, 8);
        assert!(store.header().has_compressed());
        let stats = store.stats();
        assert_eq!(stats.sections_verified, 7);
        assert_eq!(stats.bytes_mapped, 0);
        assert!(stats.bytes_copied > 0);
    }

    #[test]
    fn plain_partition_round_trips() {
        let (csr, _) = build_rank(8, 2, 0);
        let image = GraphStore::encode(&csr, None, &meta(0, 2));
        let store = GraphStore::from_bytes(image).unwrap();
        assert_eq!(store.csr(), csr);
        assert!(store.compressed().is_none());
        assert_eq!(store.stats().sections_verified, 2);
    }

    #[test]
    fn mapped_open_is_zero_copy_and_identical() {
        let dir = std::env::temp_dir().join("swgs_store_test_map");
        std::fs::create_dir_all(&dir).unwrap();
        let (csr, cmp) = build_rank(9, 2, 1);
        let path = GraphStore::persist(&dir, &csr, Some(&cmp), &meta(1, 2)).unwrap();
        let store = GraphStore::open(&path, StorageBackend::Mapped).unwrap();
        assert!(store.is_mapped());
        let view = store.csr();
        assert!(view.is_mapped());
        assert_eq!(view, csr);
        let cview = store.compressed().unwrap();
        assert!(cview.is_mapped());
        assert_eq!(cview, cmp);
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
        let (csr, _) = build_rank(8, 2, 0);
        let path = GraphStore::persist(&dir, &csr, None, &meta(0, 2)).unwrap();
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
            compressed: true,
            hub_min_degree: 64,
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
            compressed: false,
            hub_min_degree: 0,
        }
    }

    #[test]
    fn store_dir_persists_and_opens_every_partition() {
        let dir = std::env::temp_dir().join(format!("swgs_store_dir_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rows: Vec<Csr> = (0..3).map(|r| build_rank(9, 3, r).0).collect();
        let m = plain_manifest(3);
        StoreDir::persist(&dir, &m, rows.iter().map(|c| (c, None))).unwrap();
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
        let rows: Vec<(Csr, CompressedCsr)> = (0..2).map(|r| build_rank(9, 2, r)).collect();
        let m = plain_manifest(2);
        StoreDir::persist(&dir, &m, rows.iter().map(|(c, _)| (c, None))).unwrap();
        assert!(StoreDir::open(&dir, StorageBackend::Heap).is_ok());
        let refused = |what: &str| {
            let err = StoreDir::open(&dir, StorageBackend::Heap).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains("disagrees with the manifest"), "{what}: {err}");
        };
        // Rank 1 grows a sidecar the plain manifest does not announce.
        let (csr, cmp) = &rows[1];
        GraphStore::persist(&dir, csr, Some(cmp), &PartitionMeta { hub_min_degree: 8, ..meta(1, 2) })
            .unwrap();
        refused("sidecar flag");
        // Rank 1 plain again, but marked degree-ordered.
        let ordered = PartitionMeta { degree_ordered: true, hub_min_degree: 0, ..meta(1, 2) };
        GraphStore::persist(&dir, csr, None, &ordered).unwrap();
        refused("degree-order flag");
        // Rank 1's file where rank 0's belongs.
        GraphStore::persist(&dir, csr, None, &PartitionMeta { hub_min_degree: 0, ..meta(1, 2) })
            .unwrap();
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

    #[test]
    fn lying_offsets_rejected_despite_valid_checksums() {
        // Hand-build an image whose sections checksum fine but whose
        // row offsets overrun the target section.
        let header = StoreHeader {
            version: format::VERSION,
            flags: 0,
            num_vertices: 4,
            row_base: 0,
            rows: 2,
            num_ranks: 1,
            rank: 0,
            input_edges: 0,
            hub_min_degree: 0,
            plain_bytes_replaced: 0,
            section_count: 0,
        };
        let mut enc = StoreEncoder::new(header);
        enc.section_u64s(kind::ROW_OFFSETS, &[0, 2, 9]);
        enc.section_u64s(kind::ADJ_TARGETS, &[1, 0]);
        let err = GraphStore::from_bytes(enc.finish()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("target section"), "{err}");
    }
}
