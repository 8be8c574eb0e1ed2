//! Message compression — the paper's §7 "future work" integration
//! ("Message compression is also an important optimization method \[4\],
//! \[27\], \[28\], which is orthogonal to our work. It may be integrated with
//! our work in future.").
//!
//! Edge records travelling to one destination are strongly clustered:
//! forward records carry destination-owned `v`s from one contiguous
//! block, backward queries carry destination-owned `u`s, and generators
//! emit both in ascending scan order. Zig-zag **delta coding of both
//! fields** plus LEB128 varints exploits all of that without the codec
//! needing to know which field is the owned one. On Kronecker BFS traffic
//! this shrinks records from 16 bytes to ~4–6 bytes, in line with the
//! ratios the cited works report.

use crate::messages::EdgeRec;
use sw_graph::Vid;

/// Appends a LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Bytes a varint of `x` occupies.
fn varint_len(x: u64) -> u64 {
    (64 - x.max(1).leading_zeros() as u64).div_ceil(7)
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Compresses a record batch into a caller-owned buffer: count, then per
/// record the zig-zag deltas of `u` and `v` against the previous record
/// (first record deltas against 0).
///
/// Appends to `buf`, so the batch can follow a header already in it (the
/// socket fabric's `XMIT` realization header), and a pooled buffer can be
/// cleared and refilled without reallocating once it has grown to the
/// working size. Returns the bytes written.
pub fn encode_compressed_into(records: &[EdgeRec], buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.reserve(8 + records.len() * 6);
    put_varint(buf, records.len() as u64);
    let (mut pu, mut pv) = (0i64, 0i64);
    for r in records {
        put_varint(buf, zigzag(r.u as i64 - pu));
        put_varint(buf, zigzag(r.v as i64 - pv));
        pu = r.u as i64;
        pv = r.v as i64;
    }
    buf.len() - start
}

/// One-shot [`encode_compressed_into`] allocating a fresh buffer.
pub fn encode_compressed(records: &[EdgeRec]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + records.len() * 6);
    encode_compressed_into(records, &mut buf);
    buf
}

/// Decompresses a batch produced by [`encode_compressed`]. Payloads
/// cross real wires (the socket transport), so malformed frames come
/// back as a static description instead of a panic, and the transport
/// surfaces them as `ExchangeError::Protocol`.
pub fn try_decode_compressed(buf: &[u8]) -> Result<Vec<EdgeRec>, &'static str> {
    let mut pos = 0;
    let n = try_get_varint(buf, &mut pos)? as usize;
    // Every record is two varints, at least two bytes, after a count of
    // at least one: a larger count is corruption, refused before it
    // sizes an allocation.
    if n > buf.len().saturating_sub(1) / 2 {
        return Err("compressed batch count exceeds frame bytes");
    }
    let mut out = Vec::with_capacity(n);
    let (mut pu, mut pv) = (0i64, 0i64);
    for _ in 0..n {
        pu += unzigzag(try_get_varint(buf, &mut pos)?);
        pv += unzigzag(try_get_varint(buf, &mut pos)?);
        out.push(EdgeRec {
            u: pu as Vid,
            v: pv as Vid,
        });
    }
    if pos != buf.len() {
        return Err("trailing bytes in compressed frame");
    }
    Ok(out)
}

/// Reads a LEB128 varint and advances `pos`; truncation and over-long
/// encodings are errors, not panics.
fn try_get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let byte = *buf.get(*pos).ok_or("compressed frame truncated")?;
        *pos += 1;
        x |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift >= 64 {
            return Err("varint too long");
        }
    }
}

/// Size in bytes the compressed encoding of `records` would occupy,
/// without allocating — the exchange's traffic accounting uses this.
pub fn compressed_size(records: &[EdgeRec]) -> u64 {
    let mut bytes = varint_len(records.len() as u64);
    let (mut pu, mut pv) = (0i64, 0i64);
    for r in records {
        bytes += varint_len(zigzag(r.u as i64 - pu));
        bytes += varint_len(zigzag(r.v as i64 - pv));
        pu = r.u as i64;
        pv = r.v as i64;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<EdgeRec> {
        vec![
            EdgeRec { u: 100, v: 1000 },
            EdgeRec { u: 105, v: 1001 },
            EdgeRec { u: 102, v: 1031 },
            EdgeRec { u: 9_000_000_000, v: 1002 },
            EdgeRec { u: 0, v: 1999 },
        ]
    }

    #[test]
    fn round_trip() {
        let r = recs();
        assert_eq!(try_decode_compressed(&encode_compressed(&r)).unwrap(), r);
    }

    #[test]
    fn size_prediction_is_exact() {
        let r = recs();
        assert_eq!(compressed_size(&r), encode_compressed(&r).len() as u64);
    }

    #[test]
    fn empty_batch() {
        let enc = encode_compressed(&[]);
        assert_eq!(enc.len(), 1);
        assert!(try_decode_compressed(&enc).unwrap().is_empty());
        assert_eq!(compressed_size(&[]), 1);
    }

    #[test]
    fn checked_decode_matches_and_rejects() {
        let r = recs();
        let enc = encode_compressed(&r);
        assert_eq!(try_decode_compressed(&enc).unwrap(), r);
        assert!(try_decode_compressed(&enc[..enc.len() - 1]).is_err());
        let mut grown = enc.to_vec();
        grown.push(0);
        assert_eq!(
            try_decode_compressed(&grown),
            Err("trailing bytes in compressed frame")
        );
        // A count announcing far more records than the frame could hold
        // must be rejected before allocating.
        assert!(try_decode_compressed(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]).is_err());
        // A varint with no terminating byte.
        assert_eq!(
            try_decode_compressed(&[0x80]),
            Err("compressed frame truncated")
        );
        assert_eq!(try_decode_compressed(&encode_compressed(&[])).unwrap(), Vec::new());
    }

    /// Every record costs at least two bytes, so a count of len/2 + 1
    /// cannot fit its frame: it is refused as such before it sizes an
    /// allocation, not read until the bytes run out.
    #[test]
    fn count_past_two_bytes_per_record_is_refused() {
        for len in [2usize, 3, 10, 11, 100] {
            let mut frame = vec![0u8; len];
            frame[0] = (len / 2 + 1) as u8;
            assert_eq!(
                try_decode_compressed(&frame),
                Err("compressed batch count exceeds frame bytes"),
                "{len}-byte frame"
            );
        }
        // The densest legal frame, two bytes per record, passes.
        let mut fits = vec![0u8; 11];
        fits[0] = 5;
        assert_eq!(try_decode_compressed(&fits), Ok(vec![EdgeRec { u: 0, v: 0 }; 5]));
    }

    #[test]
    fn compresses_clustered_traffic_hard() {
        // Frontier-ordered u's, block-local v's — the BFS's actual shape.
        let records: Vec<EdgeRec> = (0..10_000u64)
            .map(|i| EdgeRec {
                u: 5_000_000 + i * 3,
                v: 8_000_000 + (i * 17) % 65_536,
            })
            .collect();
        let fixed = records.len() as u64 * EdgeRec::WIRE_BYTES as u64;
        let compressed = compressed_size(&records);
        let ratio = fixed as f64 / compressed as f64;
        assert!(ratio > 3.0, "compression ratio only {ratio:.2}");
        assert_eq!(try_decode_compressed(&encode_compressed(&records)).unwrap(), records);
    }

    #[test]
    fn random_traffic_still_beats_fixed_framing() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let records: Vec<EdgeRec> = (0..5_000)
            .map(|_| EdgeRec {
                u: rng.gen_range(0..1u64 << 26),
                v: rng.gen_range(0..1u64 << 26),
            })
            .collect();
        let fixed = records.len() as u64 * EdgeRec::WIRE_BYTES as u64;
        let compressed = compressed_size(&records);
        assert!(compressed < fixed, "{compressed} !< {fixed}");
        assert_eq!(try_decode_compressed(&encode_compressed(&records)).unwrap(), records);
    }

    #[test]
    fn pooled_encode_round_trips_and_reuses_capacity() {
        let r = recs();
        let mut buf = vec![7, 7];
        let n1 = encode_compressed_into(&r, &mut buf);
        assert_eq!(n1, buf.len() - 2);
        assert_eq!(buf[..2], [7, 7], "the header before the batch stays");
        assert_eq!(buf[2..], encode_compressed(&r)[..]);
        assert_eq!(try_decode_compressed(&buf[2..]).unwrap(), r);
        let cap = buf.capacity();
        buf.clear();
        let n2 = encode_compressed_into(&r, &mut buf);
        assert_eq!(n1, n2);
        assert_eq!(buf.capacity(), cap, "pooled buffer re-grew");
        assert_eq!(try_decode_compressed(&buf).unwrap(), r);
    }

    #[test]
    fn varint_edge_values() {
        for x in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, x);
            assert_eq!(b.len() as u64, varint_len(x), "len for {x}");
            let mut pos = 0;
            assert_eq!(try_get_varint(&b, &mut pos), Ok(x));
            assert_eq!(pos, b.len());
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
