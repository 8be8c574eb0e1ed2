//! Length-prefixed framing for the socket fabric.
//!
//! Every byte that crosses a kernel boundary in the socket transport is
//! part of a [`Frame`]: a fixed 22-byte little-endian header followed by
//! an opaque payload. The framing layer is deliberately pure — it maps
//! between frames and byte slices and never touches an fd — so it can be
//! property-tested exhaustively (`tests/framing_proptest.rs`: split
//! reads at every byte boundary, torn final frames, arbitrary noise)
//! without any I/O in the loop.
//!
//! Header layout (all fields little-endian):
//!
//! | offset | size | field                                     |
//! |--------|------|-------------------------------------------|
//! | 0      | 4    | magic `0x5357_4652` (`"SWFR"`)            |
//! | 4      | 1    | kind (transport-defined discriminant)     |
//! | 5      | 1    | flags (bit 0 = compressed payload)        |
//! | 6      | 4    | phase (exchange sequence number)          |
//! | 10     | 4    | src rank                                  |
//! | 14     | 4    | dst rank                                  |
//! | 18     | 4    | payload length                            |
//!
//! A stream is a plain concatenation of frames. The decoder is
//! incremental: feed it whatever the socket produced (any split, any
//! coalescing) and it yields exactly the frames whose bytes are
//! complete. A stream that *ends* mid-frame is a torn frame — a
//! structured [`FrameError::Truncated`], never a panic and never a
//! partial frame delivered.
//!
//! Payloads have one codec too: the kind table ([`KINDS`]) numbers every
//! frame of both protocols that ride this framing and fixes each
//! payload's length, and [`PayloadReader`] checks a frame against it
//! once, then reads its little-endian fields in order.

use sw_trace::live::{HistogramSnapshot, HIST_WIRE_BYTES};

/// Frame magic: `"SWFR"` little-endian.
pub const FRAME_MAGIC: u32 = 0x5357_4652;

/// Header bytes preceding every payload.
pub const FRAME_HEADER_BYTES: usize = 22;

/// Largest payload the decoder accepts; bigger length fields are
/// treated as corruption ([`FrameError::Oversize`]), bounding the
/// memory a hostile or scrambled stream can make the decoder commit.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 26;

/// Flag bit 0: the payload is delta+varint compressed.
pub const FLAG_COMPRESSED: u8 = 1;

/// One framed message of the socket fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Discriminant of the message (handshake, records, stats, …) —
    /// the framing layer carries it opaquely.
    pub kind: u8,
    /// Bit flags ([`FLAG_COMPRESSED`]).
    pub flags: u8,
    /// Exchange sequence number the frame belongs to.
    pub phase: u32,
    /// Sending rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-less frame (handshake/control messages, and the start
    /// of every typed payload's frame).
    pub fn control(kind: u8, phase: u32, src: u32, dst: u32) -> Self {
        Self {
            kind,
            flags: 0,
            phase,
            src,
            dst,
            payload: Vec::new(),
        }
    }

    /// Total wire bytes of the encoded frame.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload.len()
    }

    /// Serializes the frame onto `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.wire_len());
        buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        buf.push(self.kind);
        buf.push(self.flags);
        buf.extend_from_slice(&self.phase.to_le_bytes());
        buf.extend_from_slice(&self.src.to_le_bytes());
        buf.extend_from_slice(&self.dst.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.payload);
    }

    /// Serializes the frame into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf
    }
}

/// Why a byte stream failed to parse as frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The next four bytes are not [`FRAME_MAGIC`] — the stream lost
    /// frame alignment (or never had it).
    BadMagic {
        /// The bytes found where the magic belonged.
        found: u32,
    },
    /// The header announces a payload larger than
    /// [`MAX_FRAME_PAYLOAD`].
    Oversize {
        /// Announced payload length.
        len: u64,
    },
    /// The stream ended mid-frame: a torn final frame (short write /
    /// dropped connection on the sender side).
    Truncated {
        /// Bytes of the unfinished frame that did arrive.
        have: usize,
        /// Bytes the frame needed (header + announced payload); zero
        /// when even the header is incomplete.
        need: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (stream out of alignment)")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap")
            }
            FrameError::Truncated { have, need } => {
                write!(f, "torn frame: {have} of {need} bytes before end of stream")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame parser over an arbitrarily-split byte stream.
///
/// Feed socket reads in via [`FrameDecoder::extend`], drain complete
/// frames via [`FrameDecoder::next_frame`], and on EOF call
/// [`FrameDecoder::finish`] to turn any buffered partial frame into a
/// structured [`FrameError::Truncated`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes (any split the socket produced).
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection doesn't
        // accrete its whole history.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Parses the next complete frame, if its bytes have all arrived.
    ///
    /// `Ok(None)` means "need more bytes" — a partial frame is held
    /// back in its entirety, never delivered piecemeal. Errors are
    /// sticky corruption verdicts; the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes"));
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic { found: magic });
        }
        let len = u32::from_le_bytes(avail[18..22].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversize { len: len as u64 });
        }
        if avail.len() < FRAME_HEADER_BYTES + len {
            return Ok(None);
        }
        let frame = Frame {
            kind: avail[4],
            flags: avail[5],
            phase: u32::from_le_bytes(avail[6..10].try_into().expect("4 bytes")),
            src: u32::from_le_bytes(avail[10..14].try_into().expect("4 bytes")),
            dst: u32::from_le_bytes(avail[14..18].try_into().expect("4 bytes")),
            payload: avail[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len].to_vec(),
        };
        self.pos += FRAME_HEADER_BYTES + len;
        Ok(Some(frame))
    }

    /// EOF check: a cleanly-closed stream ends exactly on a frame
    /// boundary; anything buffered past the last complete frame is a
    /// torn final frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        let have = self.pending();
        if have == 0 {
            return Ok(());
        }
        let avail = &self.buf[self.pos..];
        let need = if avail.len() >= FRAME_HEADER_BYTES {
            let len = u32::from_le_bytes(avail[18..22].try_into().expect("4 bytes")) as usize;
            FRAME_HEADER_BYTES + len
        } else {
            0
        };
        Err(FrameError::Truncated { have, need })
    }
}

// ---- the kind table ---------------------------------------------------
//
// Both protocols on this framing share one numbering, so any stream is
// unambiguous: the rank fabric's frames (1–10; 8 unused) and the query
// service's (16–20). Each entry fixes its payload's shape, which
// [`PayloadReader::typed`] checks once, before any field is read.

/// One entry of [`KINDS`]: a frame kind, its payload's shape, and the
/// errors a typed read of it answers a wrong kind or length with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind {
    /// The header's `kind` byte.
    pub kind: u8,
    /// Payload bytes: exact, or the fixed prefix of a variable `body`.
    pub len: usize,
    /// A variable-length body follows the fixed prefix.
    pub body: bool,
    /// `"not a <NAME> frame"`.
    pub wrong_kind: &'static str,
    /// `"<NAME> payload has the wrong length"` (`"… shorter than its
    /// prefix"` when a body follows).
    pub wrong_len: &'static str,
}

macro_rules! kinds {
    ($($(#[$doc:meta])* $konst:ident = $byte:literal, $name:literal, $len:expr, $body:literal;)*) => {
        $($(#[$doc])* pub const $konst: u8 = $byte;)*

        /// Every frame kind of both protocols, in ascending order.
        pub const KINDS: &[Kind] = &[$(Kind {
            kind: $byte,
            len: $len,
            body: $body,
            wrong_kind: concat!("not a ", $name, " frame"),
            wrong_len: if $body {
                concat!($name, " payload shorter than its prefix")
            } else {
                concat!($name, " payload has the wrong length")
            },
        }),*];
    };
}

kinds! {
    /// Rank daemon → parent, first frame on the control connection
    /// (payload = the daemon's mesh listener address).
    KIND_HELLO = 1, "HELLO", 0, true;
    /// Parent → every daemon: the newline-joined mesh addresses.
    KIND_TABLE = 2, "TABLE", 0, true;
    /// Daemon → parent: the mesh is connected.
    KIND_READY = 3, "READY", 0, false;
    /// First frame on every mesh connection: `src` names the sender.
    KIND_PEER = 4, "PEER", 0, false;
    /// Parent → daemon: one destination's records behind a realization
    /// header (fault codes, defer flag; `swbfs-core`'s daemon has it).
    KIND_XMIT = 5, "XMIT", 2, true;
    /// Daemon → daemon across the mesh: the records of one `XMIT`.
    KIND_MSG = 6, "MSG", 0, true;
    /// Daemon → parent: the records one source sent this rank.
    KIND_INBOX = 7, "INBOX", 0, true;
    /// Parent → daemon: tear down.
    KIND_BYE = 9, "BYE", 0, false;
    /// Daemon → parent, its one report per phase ([`TelemFrame`]).
    KIND_TELEM = 10, "TELEM", TELEM_PAYLOAD_BYTES, false;
    /// A client query (payload = [`QueryFrame`]).
    KIND_QUERY = 16, "QUERY", QUERY_PAYLOAD_BYTES, false;
    /// A server answer (payload = [`ResultFrame`]).
    KIND_RESULT = 17, "RESULT", RESULT_PAYLOAD_BYTES, false;
    /// Admission control shed the query (payload = [`BusyFrame`]) — the
    /// client should back off and retry.
    KIND_BUSY = 18, "BUSY", BUSY_PAYLOAD_BYTES, false;
    /// A telemetry snapshot request (payload = [`StatsReqFrame`]),
    /// answered by the server's reader thread: never admitted, shed or
    /// counted in the deterministic `serve.*` plane.
    KIND_STATS_REQ = 19, "STATS_REQ", STATS_REQ_PAYLOAD_BYTES, false;
    /// A telemetry snapshot answer (payload = [`StatsFrame`]).
    KIND_STATS = 20, "STATS", STATS_PREFIX_BYTES, true;
}

/// Little-endian field reader over one payload, the one decoder of
/// every typed frame. A read past the end returns the reader's error.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    rest: &'a [u8],
    short: &'static str,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `bytes` with no shape check; a read past the end
    /// answers `short`.
    pub fn new(bytes: &'a [u8], short: &'static str) -> Self {
        Self { rest: bytes, short }
    }

    /// Checks `f` against `kind`'s [`KINDS`] entry once — the kind
    /// byte, then the payload length — and reads its payload.
    #[inline]
    pub fn typed(f: &'a Frame, kind: u8) -> Result<Self, &'static str> {
        let k = KINDS.iter().find(|k| k.kind == kind);
        let k = k.ok_or("not a frame kind")?;
        if f.kind != kind {
            return Err(k.wrong_kind);
        }
        let n = f.payload.len();
        if n < k.len || (!k.body && n != k.len) {
            return Err(k.wrong_len);
        }
        Ok(Self::new(&f.payload, k.wrong_len))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(self.short)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, &'static str> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, &'static str> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, &'static str> {
        self.array().map(u64::from_le_bytes)
    }
}

/// One field of a typed payload: appended in field order by
/// `into_frame`, read back in the same order by `from_frame`.
trait Field: Sized {
    fn put(&self, p: &mut Vec<u8>);
    fn get(r: &mut PayloadReader<'_>) -> Result<Self, &'static str>;
}

macro_rules! int_fields {
    ($($t:ident),*) => {$(
        impl Field for $t {
            fn put(&self, p: &mut Vec<u8>) {
                p.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut PayloadReader<'_>) -> Result<Self, &'static str> {
                r.$t()
            }
        }
    )*};
}

int_fields!(u8, u32, u64);

/// A one-byte discriminant, refused with `$unknown` when no variant
/// has it.
macro_rules! enum_fields {
    ($($t:ident($($variant:ident),*): $unknown:literal;)*) => {$(
        impl $t {
            /// Decodes the wire discriminant.
            pub fn from_u8(b: u8) -> Option<$t> {
                [$($t::$variant),*].get(usize::from(b)).copied()
            }
        }

        impl Field for $t {
            fn put(&self, p: &mut Vec<u8>) {
                p.push(*self as u8);
            }
            fn get(r: &mut PayloadReader<'_>) -> Result<Self, &'static str> {
                $t::from_u8(r.u8()?).ok_or($unknown)
            }
        }
    )*};
}

/// 66 little-endian words: the buckets, then sum, then max.
impl Field for HistogramSnapshot {
    fn put(&self, p: &mut Vec<u8>) {
        for word in self.buckets.iter().chain([&self.sum, &self.max]) {
            word.put(p);
        }
    }
    fn get(r: &mut PayloadReader<'_>) -> Result<Self, &'static str> {
        let mut h = HistogramSnapshot::default();
        for word in h.buckets.iter_mut().chain([&mut h.sum, &mut h.max]) {
            *word = r.u64()?;
        }
        Ok(h)
    }
}

/// A trailing body: every byte the fixed fields left (last field only).
impl Field for Vec<u8> {
    fn put(&self, p: &mut Vec<u8>) {
        p.extend_from_slice(self);
    }
    fn get(r: &mut PayloadReader<'_>) -> Result<Self, &'static str> {
        Ok(std::mem::take(&mut r.rest).to_vec())
    }
}

/// Declares each typed payload once, as its fields in wire order: the
/// struct, `into_frame` (from `Frame::control`, the fixed bytes
/// reserved) and `from_frame` (through [`PayloadReader::typed`]).
macro_rules! typed_frames {
    ($(
        $(#[$meta:meta])*
        $name:ident = $kind:ident, $bytes:ident {
            $($(#[$field_meta:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $name {
            /// Wraps the payload into a wire [`Frame`].
            pub fn into_frame(self) -> Frame {
                let mut f = Frame::control($kind, 0, 0, 0);
                f.payload.reserve($bytes);
                $(self.$field.put(&mut f.payload);)*
                f
            }

            /// Parses a frame of this kind. A malformed payload is a
            /// static description (the kind table's, or an unknown
            /// discriminant's), never a panic.
            pub fn from_frame(f: &Frame) -> Result<Self, &'static str> {
                let mut r = PayloadReader::typed(f, $kind)?;
                Ok(Self { $($field: Field::get(&mut r)?,)* })
            }
        }
    )*};
}

/// Wire bytes of a [`TelemFrame`] payload.
pub const TELEM_PAYLOAD_BYTES: usize = 12 + HIST_WIRE_BYTES + 16;
/// Wire bytes of a [`QueryFrame`] payload.
pub const QUERY_PAYLOAD_BYTES: usize = 33;
/// Wire bytes of a [`ResultFrame`] payload.
pub const RESULT_PAYLOAD_BYTES: usize = 29;
/// Wire bytes of a [`BusyFrame`] payload.
pub const BUSY_PAYLOAD_BYTES: usize = 16;
/// Wire bytes of a [`StatsReqFrame`] payload.
pub const STATS_REQ_PAYLOAD_BYTES: usize = 9;
/// Fixed prefix bytes of a [`StatsFrame`] payload before the body.
pub const STATS_PREFIX_BYTES: usize = 9;

/// A traversal operation the query service can answer. Every operation
/// is a function of the BFS level array of its root, which is what lets
/// the service batch arbitrary operation mixes into one MS-BFS sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// BFS distance from `root` to `target` (`u64::MAX` = unreachable).
    Distance = 0,
    /// Is `target` reachable from `root`? (value 0 or 1.)
    Reachable = 1,
    /// How many vertices lie within `hops` BFS levels of `root`
    /// (the root itself included)?
    KHop = 2,
}

/// Terminal status of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// Answered; `value` holds the result.
    Ok = 0,
    /// The per-query deadline expired before the answer was ready; the
    /// structured alternative to a client-side hang.
    Timeout = 1,
    /// The query was malformed (root/target outside the vertex space,
    /// unknown operation).
    BadQuery = 2,
}

/// The rendering a [`StatsReqFrame`] asks the stats snapshot to come
/// back in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Flat JSON object of `live.*` + deterministic counter keys.
    Json = 0,
    /// Prometheus text exposition format.
    Prometheus = 1,
}

enum_fields! {
    QueryOp(Distance, Reachable, KHop): "unknown query operation";
    QueryStatus(Ok, Timeout, BadQuery): "unknown result status";
    StatsFormat(Json, Prometheus): "unknown stats format";
}

typed_frames! {
    /// [`KIND_TELEM`] payload — a rank daemon's one report per phase.
    ///
    /// Layout (556 bytes, little-endian, in field order): three `u32`
    /// tallies, the histogram's 66 `u64` words (buckets, sum, max), two
    /// `u64` totals. The tallies are this phase's; the rest is
    /// cumulative over the daemon's life, so the parent replaces its
    /// copy on every report.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    TelemFrame = KIND_TELEM, TELEM_PAYLOAD_BYTES {
        /// Frames this phase short-wrote before closing the connection.
        torn: u32,
        /// Connections this phase closed cold with a message still owed.
        resets: u32,
        /// Sends this phase deferred behind every punctual peer.
        deferred: u32,
        /// Per-phase wall latency (first `XMIT` arrival → results
        /// emitted), microseconds.
        hist: HistogramSnapshot,
        /// Mesh frames queued for send.
        frames: u64,
        /// Mesh payload bytes queued for send.
        bytes: u64,
    }

    // The query service speaks the same framed stream as the rank
    // fabric; these codecs are the single source of truth for both the
    // server and its clients.

    /// [`KIND_QUERY`] payload — one traversal question. When it does not
    /// parse, the server answers [`QueryStatus::BadQuery`] if it can
    /// still recover an id, and drops the connection otherwise.
    ///
    /// Layout (33 bytes, little-endian):
    ///
    /// | offset | size | field        |
    /// |--------|------|--------------|
    /// | 0      | 8    | id           |
    /// | 8      | 1    | op           |
    /// | 9      | 8    | root         |
    /// | 17     | 8    | target       |
    /// | 25     | 4    | hops         |
    /// | 29     | 4    | deadline_ms  |
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    QueryFrame = KIND_QUERY, QUERY_PAYLOAD_BYTES {
        /// Client-chosen correlation id, echoed on the answer.
        id: u64,
        /// The traversal operation.
        op: QueryOp,
        /// Source vertex of the traversal.
        root: u64,
        /// Target vertex ([`QueryOp::Distance`]/[`QueryOp::Reachable`];
        /// ignored for [`QueryOp::KHop`]).
        target: u64,
        /// Neighbourhood radius ([`QueryOp::KHop`]; ignored otherwise).
        hops: u32,
        /// Deadline in milliseconds from arrival; 0 = no deadline.
        deadline_ms: u32,
    }

    /// [`KIND_RESULT`] payload — the answer to one query.
    ///
    /// Layout (29 bytes, little-endian):
    ///
    /// | offset | size | field        |
    /// |--------|------|--------------|
    /// | 0      | 8    | id           |
    /// | 8      | 1    | status       |
    /// | 9      | 8    | value        |
    /// | 17     | 4    | batch_roots  |
    /// | 21     | 8    | micros       |
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    ResultFrame = KIND_RESULT, RESULT_PAYLOAD_BYTES {
        /// The query's correlation id.
        id: u64,
        /// Terminal status.
        status: QueryStatus,
        /// Operation result (distance / 0-1 reachability / k-hop count);
        /// 0 for non-[`QueryStatus::Ok`] answers.
        value: u64,
        /// Roots swept in the batch that served this answer (0 = served
        /// from the hot-root cache) — the per-query batching attribution.
        batch_roots: u32,
        /// Server-side latency, admission to answer, in microseconds.
        micros: u64,
    }

    /// [`KIND_BUSY`] payload — admission control shed the query.
    ///
    /// Layout (16 bytes, little-endian):
    ///
    /// | offset | size | field        |
    /// |--------|------|--------------|
    /// | 0      | 8    | id           |
    /// | 8      | 4    | queue_depth  |
    /// | 12     | 4    | queue_limit  |
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    BusyFrame = KIND_BUSY, BUSY_PAYLOAD_BYTES {
        /// The shed query's correlation id.
        id: u64,
        /// Queued queries at shed time.
        queue_depth: u32,
        /// The admission bound that was hit.
        queue_limit: u32,
    }

    /// [`KIND_STATS_REQ`] payload — ask the server for a telemetry
    /// snapshot.
    ///
    /// Layout (9 bytes, little-endian):
    ///
    /// | offset | size | field  |
    /// |--------|------|--------|
    /// | 0      | 8    | id     |
    /// | 8      | 1    | format |
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    StatsReqFrame = KIND_STATS_REQ, STATS_REQ_PAYLOAD_BYTES {
        /// Client-chosen correlation id, echoed on the answer.
        id: u64,
        /// Rendering the snapshot should come back in.
        format: StatsFormat,
    }

    /// [`KIND_STATS`] payload — a telemetry snapshot, rendered in the
    /// requested format.
    ///
    /// Layout (9 + N bytes, little-endian):
    ///
    /// | offset | size | field  |
    /// |--------|------|--------|
    /// | 0      | 8    | id     |
    /// | 8      | 1    | format |
    /// | 9      | N    | body   |
    ///
    /// The body is the UTF-8 rendering (JSON object or Prometheus text);
    /// its length is the frame payload length minus the 9-byte prefix, so
    /// no separate length field is needed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    StatsFrame = KIND_STATS, STATS_PREFIX_BYTES {
        /// The request's correlation id.
        id: u64,
        /// Rendering of `body`.
        format: StatsFormat,
        /// The rendered snapshot (UTF-8).
        body: Vec<u8>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: u8, n: usize) -> Frame {
        Frame {
            kind,
            flags: FLAG_COMPRESSED,
            phase: 7,
            src: 1,
            dst: 2,
            payload: (0..n).map(|i| i as u8).collect(),
        }
    }

    #[test]
    fn round_trip_single() {
        let f = sample(5, 33);
        let mut d = FrameDecoder::new();
        d.extend(&f.encode());
        assert_eq!(d.next_frame().unwrap(), Some(f));
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(d.finish().is_ok());
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let frames = [sample(1, 0), sample(2, 5), sample(3, 100)];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            d.extend(std::slice::from_ref(b));
            while let Some(f) = d.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert!(d.finish().is_ok());
    }

    #[test]
    fn torn_final_frame_is_structured() {
        let f = sample(6, 64);
        let wire = f.encode();
        let mut d = FrameDecoder::new();
        d.extend(&wire[..wire.len() - 1]);
        assert_eq!(d.next_frame().unwrap(), None);
        match d.finish() {
            Err(FrameError::Truncated { have, need }) => {
                assert_eq!(have, wire.len() - 1);
                assert_eq!(need, wire.len());
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut wire = sample(1, 4).encode();
        wire[0] ^= 0xFF;
        let mut d = FrameDecoder::new();
        d.extend(&wire);
        assert!(matches!(d.next_frame(), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn oversize_is_an_error_not_an_allocation() {
        let mut wire = sample(1, 0).encode();
        wire[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.extend(&wire);
        assert!(matches!(d.next_frame(), Err(FrameError::Oversize { .. })));
    }

    #[test]
    fn query_result_busy_round_trip_typed() {
        let q = QueryFrame {
            id: 77,
            op: QueryOp::KHop,
            root: 1234,
            target: 0,
            hops: 3,
            deadline_ms: 250,
        };
        let r = ResultFrame {
            id: 77,
            status: QueryStatus::Ok,
            value: 512,
            batch_roots: 64,
            micros: 1_999,
        };
        let b = BusyFrame {
            id: 78,
            queue_depth: 256,
            queue_limit: 256,
        };
        let mut d = FrameDecoder::new();
        let mut wire = Vec::new();
        q.into_frame().encode_into(&mut wire);
        r.into_frame().encode_into(&mut wire);
        b.into_frame().encode_into(&mut wire);
        d.extend(&wire);
        let fq = d.next_frame().unwrap().unwrap();
        let fr = d.next_frame().unwrap().unwrap();
        let fb = d.next_frame().unwrap().unwrap();
        assert_eq!(QueryFrame::from_frame(&fq).unwrap(), q);
        assert_eq!(ResultFrame::from_frame(&fr).unwrap(), r);
        assert_eq!(BusyFrame::from_frame(&fb).unwrap(), b);
        assert!(d.finish().is_ok());
    }

    #[test]
    fn typed_decoders_reject_wrong_kind_and_shape() {
        let q = QueryFrame {
            id: 1,
            op: QueryOp::Distance,
            root: 2,
            target: 3,
            hops: 0,
            deadline_ms: 0,
        };
        let f = q.into_frame();
        assert!(ResultFrame::from_frame(&f).is_err(), "kind mismatch");
        assert!(BusyFrame::from_frame(&f).is_err(), "kind mismatch");
        let mut torn = f.clone();
        torn.payload.pop();
        assert!(QueryFrame::from_frame(&torn).is_err(), "short payload");
        let mut bad_op = f.clone();
        bad_op.payload[8] = 200;
        assert!(QueryFrame::from_frame(&bad_op).is_err(), "unknown op");
        let mut r = ResultFrame {
            id: 1,
            status: QueryStatus::Timeout,
            value: 0,
            batch_roots: 0,
            micros: 7,
        }
        .into_frame();
        r.payload[8] = 99;
        assert!(ResultFrame::from_frame(&r).is_err(), "unknown status");
    }

    #[test]
    fn service_kinds_are_disjoint_from_fabric_kinds() {
        // One numbering for both protocols: unique kinds, the fabric's
        // below the service's, so a stream is always unambiguous.
        assert_eq!(KINDS.len(), 14);
        assert!(KINDS.windows(2).all(|w| w[0].kind < w[1].kind));
        let service = [KIND_QUERY, KIND_RESULT, KIND_BUSY, KIND_STATS_REQ, KIND_STATS];
        for k in KINDS {
            assert_eq!(service.contains(&k.kind), k.kind >= 16, "{}", k.wrong_kind);
        }
        assert!(KINDS.iter().all(|k| k.kind != 8), "kind 8 is unused");
    }

    #[test]
    fn telem_round_trip_typed() {
        let h = sw_trace::live::LatencyHistogram::new();
        for v in [0u64, 1, 17, 4096, u64::MAX] {
            h.record(v);
        }
        let hist = h.snapshot();
        let t = TelemFrame {
            torn: 1,
            resets: 2,
            deferred: 3,
            hist,
            frames: 40,
            bytes: 5_000,
        };
        let f = t.into_frame();
        assert_eq!(f.payload.len(), TELEM_PAYLOAD_BYTES);
        assert_eq!(TelemFrame::from_frame(&f), Ok(t));
        let mut short = f.clone();
        short.payload.pop();
        assert_eq!(
            TelemFrame::from_frame(&short),
            Err("TELEM payload has the wrong length")
        );
    }

    #[test]
    fn payload_reader_refuses_reads_past_the_end() {
        let mut r = PayloadReader::new(&[1, 2, 3, 4, 5], "short");
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u32(), Ok(u32::from_le_bytes([2, 3, 4, 5])));
        assert_eq!(r.u8(), Err("short"));
        assert_eq!(PayloadReader::new(&[0; 7], "short").u64(), Err("short"));
    }

    #[test]
    fn payload_fields_append_then_read_in_order() {
        let mut p = Vec::with_capacity(16);
        7u64.put(&mut p);
        0xABu8.put(&mut p);
        assert_eq!(p.len(), 9);
        let mut r = PayloadReader::new(&p, "short");
        assert_eq!(u64::get(&mut r), Ok(7));
        assert_eq!(u8::get(&mut r), Ok(0xAB));
        assert_eq!(r.u8(), Err("short"));
    }

    #[test]
    fn stats_round_trip_typed() {
        let req = StatsReqFrame {
            id: 901,
            format: StatsFormat::Prometheus,
        };
        let resp = StatsFrame {
            id: 901,
            format: StatsFormat::Prometheus,
            body: b"# TYPE live_serve_qps gauge\nlive_serve_qps 42\n".to_vec(),
        };
        let mut d = FrameDecoder::new();
        let mut wire = Vec::new();
        req.into_frame().encode_into(&mut wire);
        resp.clone().into_frame().encode_into(&mut wire);
        d.extend(&wire);
        let fq = d.next_frame().unwrap().unwrap();
        let fr = d.next_frame().unwrap().unwrap();
        assert_eq!(StatsReqFrame::from_frame(&fq).unwrap(), req);
        assert_eq!(StatsFrame::from_frame(&fr).unwrap(), resp);
        assert!(d.finish().is_ok());
        // An empty body is legal — the 9-byte prefix alone.
        let empty = StatsFrame {
            id: 1,
            format: StatsFormat::Json,
            body: Vec::new(),
        };
        let f = empty.clone().into_frame();
        assert_eq!(f.payload.len(), STATS_PREFIX_BYTES);
        assert_eq!(StatsFrame::from_frame(&f).unwrap(), empty);
    }

    #[test]
    fn stats_decoders_reject_wrong_kind_and_shape() {
        let req = StatsReqFrame {
            id: 5,
            format: StatsFormat::Json,
        };
        let f = req.into_frame();
        assert!(StatsFrame::from_frame(&f).is_err(), "kind mismatch");
        let mut torn = f.clone();
        torn.payload.pop();
        assert!(StatsReqFrame::from_frame(&torn).is_err(), "short payload");
        let mut bad_fmt = f.clone();
        bad_fmt.payload[8] = 9;
        assert!(StatsReqFrame::from_frame(&bad_fmt).is_err(), "unknown format");
        let mut short_stats = StatsFrame {
            id: 5,
            format: StatsFormat::Json,
            body: Vec::new(),
        }
        .into_frame();
        short_stats.payload.truncate(8);
        assert!(StatsFrame::from_frame(&short_stats).is_err(), "short prefix");
    }

    #[test]
    fn compaction_keeps_pending_bytes() {
        let mut d = FrameDecoder::new();
        for i in 0..1000 {
            d.extend(&sample((i % 250) as u8, 200).encode());
            assert!(d.next_frame().unwrap().is_some());
        }
        assert_eq!(d.pending(), 0);
        assert!(d.finish().is_ok());
    }
}
