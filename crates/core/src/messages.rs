//! Typed wire messages between ranks.
//!
//! Two record kinds flow during a traversal (Algorithm 2):
//!
//! * a **forward** record `(u, v)` — "u, already settled, claims v";
//! * a **backward** record `(u, v)` — "unvisited v asks u's owner whether
//!   u is in the current frontier".
//!
//! Records are fixed-size and batched; [`encode_batch`]/[`try_decode_batch`]
//! give the byte-level framing the relay stage shuffles.

use sw_graph::Vid;

/// One edge record on the wire. Used for both forward claims and backward
/// queries — the surrounding stage determines the meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeRec {
    /// Source endpoint (settled vertex for forward, queried for backward).
    pub u: Vid,
    /// Destination endpoint (claimed vertex for forward, asker for
    /// backward).
    pub v: Vid,
}

impl EdgeRec {
    /// Wire bytes per record in the serialized framing.
    pub const WIRE_BYTES: usize = 16;
}

/// Appends a batch of records (length-prefixed) to `buf`, so it can
/// follow a header already there (the socket fabric's `XMIT`
/// realization header). Returns the bytes written.
pub fn encode_batch_into(records: &[EdgeRec], buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.reserve(8 + records.len() * EdgeRec::WIRE_BYTES);
    buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        buf.extend_from_slice(&r.u.to_le_bytes());
        buf.extend_from_slice(&r.v.to_le_bytes());
    }
    buf.len() - start
}

/// Serializes a batch of records (length-prefixed) into a fresh buffer.
pub fn encode_batch(records: &[EdgeRec]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + records.len() * EdgeRec::WIRE_BYTES);
    encode_batch_into(records, &mut buf);
    buf
}

/// Deserializes a batch produced by [`encode_batch`] from a borrowed
/// slice. Payloads arrive over real sockets, so malformed framing is a
/// static description (mapped by the transport to
/// `ExchangeError::Protocol`), never a panic and never a partial batch.
pub fn try_decode_batch(buf: &[u8]) -> Result<Vec<EdgeRec>, &'static str> {
    if buf.len() < 8 {
        return Err("record frame shorter than its count header");
    }
    let n = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")) as usize;
    let body = &buf[8..];
    if body.len() != n.checked_mul(EdgeRec::WIRE_BYTES).ok_or("record count overflows")? {
        return Err("record frame length disagrees with its count");
    }
    Ok(body
        .chunks_exact(EdgeRec::WIRE_BYTES)
        .map(|c| EdgeRec {
            u: u64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
            v: u64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let recs = vec![
            EdgeRec { u: 0, v: 1 },
            EdgeRec { u: u64::MAX - 1, v: 42 },
        ];
        let bytes = encode_batch(&recs);
        assert_eq!(bytes.len(), 8 + 2 * 16);
        assert_eq!(try_decode_batch(&bytes).unwrap(), recs);
    }

    #[test]
    fn empty_batch() {
        let bytes = encode_batch(&[]);
        assert_eq!(try_decode_batch(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn checked_decode_matches_and_rejects() {
        let recs = vec![EdgeRec { u: 3, v: 9 }, EdgeRec { u: 0, v: u64::MAX }];
        let bytes = encode_batch(&recs);
        assert_eq!(try_decode_batch(&bytes).unwrap(), recs);
        assert!(try_decode_batch(&bytes[..bytes.len() - 1]).is_err());
        assert!(try_decode_batch(&bytes[..4]).is_err());
        let mut grown = bytes.to_vec();
        grown.push(0);
        assert!(try_decode_batch(&grown).is_err());
        // A count of 5 over one record's worth of body.
        let short = [5u64.to_le_bytes(), 1u64.to_le_bytes()].concat();
        assert_eq!(
            try_decode_batch(&short),
            Err("record frame length disagrees with its count")
        );
    }

    #[test]
    fn appended_encode_round_trips_and_reuses_capacity() {
        let recs = vec![EdgeRec { u: 3, v: 9 }, EdgeRec { u: 0, v: u64::MAX }];
        let mut buf = vec![7, 7];
        let n1 = encode_batch_into(&recs, &mut buf);
        assert_eq!(n1, buf.len() - 2);
        assert_eq!(buf[..2], [7, 7], "the header before the batch stays");
        assert_eq!(buf[2..], encode_batch(&recs)[..]);
        assert_eq!(try_decode_batch(&buf[2..]).unwrap(), recs);
        let cap = buf.capacity();
        buf.clear();
        assert_eq!(encode_batch_into(&recs, &mut buf), n1);
        assert_eq!(buf.capacity(), cap, "the buffer re-grew");
        assert_eq!(try_decode_batch(&buf).unwrap(), recs);
    }

    #[test]
    fn ordering_is_by_u_then_v() {
        let a = EdgeRec { u: 1, v: 9 };
        let b = EdgeRec { u: 2, v: 0 };
        assert!(a < b);
    }
}
