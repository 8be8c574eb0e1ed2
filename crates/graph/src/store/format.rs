//! The on-disk partition format.
//!
//! One file holds one rank's CSR partition in a layout the views can
//! read **in place** after a single `mmap`:
//!
//! ```text
//! offset 0    header (80 B): magic "SWGSTOR1", version, flags,
//!             vertex/row-range/rank metadata, 16 retired bytes
//!             (written as zero, never read), section count
//! offset 80   section table: 32 B per section
//!             { kind u32, pad u32, offset u64, len u64, fnv1a-64 u64 }
//! ...         section payloads, each 64-byte aligned, zero-padded gaps
//! ```
//!
//! All integers are little-endian; payloads are the native in-memory
//! layout of their element type, so a mapped section *is* the slice.
//! Every section carries an FNV-1a 64 checksum verified at open — a
//! flipped byte anywhere in a payload refuses to load rather than
//! traversing garbage.

use std::io;

/// File magic: "SWGSTOR1".
pub const MAGIC: [u8; 8] = *b"SWGSTOR1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_BYTES: usize = 80;
/// Length of one section-table entry.
pub const SECTION_ENTRY_BYTES: usize = 32;
/// Payload alignment: sections start on cache-line boundaries, which
/// also satisfies every element type the views cast to.
pub const SECTION_ALIGN: usize = 64;

/// Header flag: neighbour lists were reordered by descending degree.
/// The only flag; a reader refuses any other bit.
pub const FLAG_DEGREE_ORDERED: u32 = 1 << 0;

/// Section kinds (the `kind` field of a table entry).
pub mod kind {
    /// CSR row offsets (`u64`, `rows + 1` entries).
    pub const ROW_OFFSETS: u32 = 1;
    /// CSR adjacency targets (`u64` global ids).
    pub const ADJ_TARGETS: u32 = 2;
}

/// FNV-1a 64 over a byte slice — the per-section checksum. Chosen for
/// being dependency-free and byte-order independent; this is a
/// corruption tripwire, not a cryptographic seal.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rounds `x` up to the next multiple of [`SECTION_ALIGN`].
pub fn align_up(x: usize) -> usize {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// The fixed-size file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Format version (readers refuse anything but [`VERSION`]).
    pub version: u32,
    /// [`FLAG_DEGREE_ORDERED`] or 0.
    pub flags: u32,
    /// Global vertex-id space size.
    pub num_vertices: u64,
    /// Global id of the partition's first row.
    pub row_base: u64,
    /// Owned row count.
    pub rows: u64,
    /// Ranks in the store this partition belongs to.
    pub num_ranks: u32,
    /// This partition's rank.
    pub rank: u32,
    /// Undirected input-edge count of the whole graph (Graph500 TEPS
    /// denominators survive the restart).
    pub input_edges: u64,
    /// Number of section-table entries that follow.
    pub section_count: u32,
}

impl StoreHeader {
    /// True when [`FLAG_DEGREE_ORDERED`] is set.
    pub fn degree_ordered(&self) -> bool {
        self.flags & FLAG_DEGREE_ORDERED != 0
    }

    /// Appends the 80-byte encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let base = out.len();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.num_vertices.to_le_bytes());
        out.extend_from_slice(&self.row_base.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.num_ranks.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.input_edges.to_le_bytes());
        out.extend_from_slice(&[0u8; 16]); // retired fields, offsets 56..72
        out.extend_from_slice(&self.section_count.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // pad to 80
        debug_assert_eq!(out.len() - base, HEADER_BYTES);
    }

    /// Decodes and validates the header prefix of a store file. A flag
    /// bit other than [`FLAG_DEGREE_ORDERED`] is refused as
    /// `InvalidData`: it names a section layout this reader does not
    /// speak.
    pub fn decode(bytes: &[u8]) -> io::Result<StoreHeader> {
        if bytes.len() < HEADER_BYTES {
            return Err(corrupt(format!(
                "store truncated: {} bytes, header needs {HEADER_BYTES}",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt("not a swgs partition file (bad magic)".into()));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unsupported store version {version} (reader speaks {VERSION})"),
            ));
        }
        let flags = u32_at(12);
        if flags & !FLAG_DEGREE_ORDERED != 0 {
            return Err(corrupt(format!("unknown store header flags {flags:#x}")));
        }
        Ok(StoreHeader {
            version,
            flags,
            num_vertices: u64_at(16),
            row_base: u64_at(24),
            rows: u64_at(32),
            num_ranks: u32_at(40),
            rank: u32_at(44),
            input_edges: u64_at(48),
            section_count: u32_at(72),
        })
    }
}

/// One section-table entry: where a payload lives and what it must
/// hash to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// A [`kind`] constant.
    pub kind: u32,
    /// Payload byte offset from the start of the file (64-aligned).
    pub offset: u64,
    /// Payload byte length.
    pub len: u64,
    /// FNV-1a 64 of the payload.
    pub checksum: u64,
}

impl SectionEntry {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> SectionEntry {
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        SectionEntry {
            kind: u32_at(0),
            offset: u64_at(8),
            len: u64_at(16),
            checksum: u64_at(24),
        }
    }
}

/// Assembles a partition file: sections are appended in call order,
/// then [`StoreEncoder::finish`] lays them out 64-byte aligned behind
/// the header and table.
pub struct StoreEncoder {
    header: StoreHeader,
    sections: Vec<(u32, Vec<u8>)>,
}

impl StoreEncoder {
    /// Starts an encoder; `header.section_count` is filled in by
    /// [`finish`](StoreEncoder::finish).
    pub fn new(header: StoreHeader) -> StoreEncoder {
        StoreEncoder { header, sections: Vec::new() }
    }

    /// Adds a section payload under `kind`.
    pub fn section(&mut self, kind: u32, payload: Vec<u8>) {
        self.sections.push((kind, payload));
    }

    /// Adds a `u64` section in the little-endian on-disk layout.
    pub fn section_u64s(&mut self, kind: u32, words: &[u64]) {
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        self.section(kind, payload);
    }

    /// Produces the complete file image.
    pub fn finish(mut self) -> Vec<u8> {
        self.header.section_count = self.sections.len() as u32;
        let table_end = HEADER_BYTES + self.sections.len() * SECTION_ENTRY_BYTES;

        // Lay out payload offsets first so the table can be written in
        // one pass.
        let mut entries = Vec::with_capacity(self.sections.len());
        let mut cursor = align_up(table_end);
        for (kind, payload) in &self.sections {
            entries.push(SectionEntry {
                kind: *kind,
                offset: cursor as u64,
                len: payload.len() as u64,
                checksum: fnv1a(payload),
            });
            cursor = align_up(cursor + payload.len());
        }

        let mut out = Vec::with_capacity(cursor);
        self.header.encode_into(&mut out);
        for e in &entries {
            e.encode_into(&mut out);
        }
        for (e, (_, payload)) in entries.iter().zip(&self.sections) {
            out.resize(e.offset as usize, 0);
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Parses and fully verifies a file image: magic, version, table
/// bounds, per-section alignment and checksums. Returns the header and
/// the verified table.
pub fn parse(bytes: &[u8]) -> io::Result<(StoreHeader, Vec<SectionEntry>)> {
    let header = StoreHeader::decode(bytes)?;
    let n = header.section_count as usize;
    let table_end = HEADER_BYTES + n * SECTION_ENTRY_BYTES;
    if bytes.len() < table_end {
        return Err(corrupt(format!(
            "store truncated inside section table ({} bytes, table needs {table_end})",
            bytes.len()
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let at = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
        let e = SectionEntry::decode(&bytes[at..at + SECTION_ENTRY_BYTES]);
        let (off, len) = (e.offset as usize, e.len as usize);
        let end = off
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("section {i} range overflows", i = i)))?;
        if end > bytes.len() {
            return Err(corrupt(format!(
                "section {i} [{off}..{end}) exceeds file of {} bytes",
                bytes.len()
            )));
        }
        if off % SECTION_ALIGN != 0 {
            return Err(corrupt(format!("section {i} offset {off} not {SECTION_ALIGN}-aligned")));
        }
        let got = fnv1a(&bytes[off..end]);
        if got != e.checksum {
            return Err(corrupt(format!(
                "section {i} (kind {}) checksum mismatch: stored {:#x}, computed {got:#x}",
                e.kind, e.checksum
            )));
        }
        entries.push(e);
    }
    Ok((header, entries))
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> StoreHeader {
        StoreHeader {
            version: VERSION,
            flags: FLAG_DEGREE_ORDERED,
            num_vertices: 1 << 16,
            row_base: 4096,
            rows: 8192,
            num_ranks: 8,
            rank: 3,
            input_edges: 1 << 20,
            section_count: 0,
        }
    }

    #[test]
    fn header_round_trip() {
        let mut buf = Vec::new();
        let mut h = header();
        h.section_count = 2;
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), HEADER_BYTES);
        assert_eq!(StoreHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn encoder_aligns_and_parses() {
        let mut enc = StoreEncoder::new(header());
        enc.section_u64s(kind::ROW_OFFSETS, &[0, 3, 5]);
        enc.section_u64s(kind::ADJ_TARGETS, &[9, 8, 7, 6, 5]);
        enc.section(7, vec![1, 2, 3]);
        let img = enc.finish();
        let (h, secs) = parse(&img).unwrap();
        assert_eq!(h.section_count, 3);
        assert_eq!(secs.len(), 3);
        for e in &secs {
            assert_eq!(e.offset as usize % SECTION_ALIGN, 0);
        }
        assert_eq!(secs[0].len, 24);
        assert_eq!(secs[2].len, 3);
        let off = secs[1].offset as usize;
        assert_eq!(&img[off..off + 8], &9u64.to_le_bytes());
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let mut enc = StoreEncoder::new(header());
        enc.section_u64s(kind::ROW_OFFSETS, &[0, 1]);
        let mut img = enc.finish();
        let last = img.len() - 1;
        img[last] ^= 0x40;
        let err = parse(&img).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn wrong_version_refused_as_unsupported() {
        let mut buf = Vec::new();
        header().encode_into(&mut buf);
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = StoreHeader::decode(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn retired_and_unknown_flag_bits_refused() {
        // Bit 1 once announced byte-coded hub-row sections: a file that
        // sets it is refused by name instead of opening as plain rows.
        for bit in 1..32 {
            let mut buf = Vec::new();
            StoreHeader { flags: FLAG_DEGREE_ORDERED | 1 << bit, ..header() }.encode_into(&mut buf);
            let err = StoreHeader::decode(&buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
        }
    }

    #[test]
    fn bad_magic_refused() {
        let mut buf = Vec::new();
        header().encode_into(&mut buf);
        buf[0] = b'X';
        assert_eq!(StoreHeader::decode(&buf).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let mut enc = StoreEncoder::new(header());
        enc.section_u64s(kind::ROW_OFFSETS, &[0, 2, 4]);
        let img = enc.finish();
        for cut in 0..img.len() {
            assert!(parse(&img[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        assert!(parse(&img).is_ok());
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
