//! Block-compressed sorted-pair lists: varint/delta encoding with
//! block-aligned skip pointers.
//!
//! A *list* is a sequence of `(key, val)` pairs with non-decreasing
//! `u32` keys (the engine stores postings as `(doc_id, freq·8+field)`).
//! The encoder splits it into blocks of [`BLOCK_LEN`] pairs; each block
//! stores the key *gaps* (first gap relative to the previous block's
//! last key, or to 0 for the first block) as LEB128 varints, followed by
//! the values as varints. Sorted keys make gaps small, so a typical
//! posting costs 2–3 bytes instead of the fixed-width 8.
//!
//! One [`skip entry`](skip_entry) per block packs the block's last key
//! and the byte offset one past the block's end (both relative to the
//! list): `last_key | end_off << 32`. [`seek_block`] binary-searches
//! them, so an intersection can jump straight to the first block that
//! can contain a doc id ≥ some bound and decode only from there, and
//! any block can be decoded independently — its starting byte offset
//! and base key are the previous entry's `end_off` and `last_key`.
//!
//! Decoding batches through [`read_varints_u32`], whose fast path
//! notices eight consecutive one-byte varints with a single `u64` load
//! and mask — the common case for gap streams — and decodes them
//! without per-byte branching.

use std::io;
use std::ops::Range;

/// Pairs per block; also the skip-pointer granularity.
pub const BLOCK_LEN: usize = 128;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Varints (LEB128)
// ---------------------------------------------------------------------------

/// Append a `u32` as an LEB128 varint (1–5 bytes).
pub fn write_u32(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append a `u64` as an LEB128 varint (1–10 bytes).
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one `u32` varint at `*at`, advancing it.
pub fn read_u32(bytes: &[u8], at: &mut usize) -> io::Result<u32> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*at)
            .ok_or_else(|| bad(format!("varint truncated at byte {}", *at)))?;
        *at += 1;
        let low = (b & 0x7F) as u32;
        if shift == 28 && (b & 0x7F) > 0x0F {
            return Err(bad(format!("varint overflows u32 at byte {}", *at - 1)));
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 28 {
            return Err(bad(format!("varint longer than 5 bytes at byte {}", *at)));
        }
    }
}

/// Read one `u64` varint at `*at`, advancing it.
pub fn read_u64(bytes: &[u8], at: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*at)
            .ok_or_else(|| bad(format!("varint truncated at byte {}", *at)))?;
        *at += 1;
        let low = (b & 0x7F) as u64;
        if shift == 63 && (b & 0x7F) > 1 {
            return Err(bad(format!("varint overflows u64 at byte {}", *at - 1)));
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad(format!("varint longer than 10 bytes at byte {}", *at)));
        }
    }
}

/// Decode `n` `u32` varints into `out`, advancing `*at`.
///
/// Fast path: when at least eight values remain and the next eight
/// bytes all have the continuation bit clear (one `u64` load + mask),
/// they are eight complete varints — decoded branch-free. Gap streams
/// of dense posting lists hit this almost every iteration.
pub fn read_varints_u32(
    bytes: &[u8],
    at: &mut usize,
    n: usize,
    out: &mut Vec<u32>,
) -> io::Result<()> {
    out.reserve(n);
    let mut i = 0;
    while i < n {
        if i + 8 <= n && *at + 8 <= bytes.len() {
            let w = u64::from_le_bytes(bytes[*at..*at + 8].try_into().unwrap());
            if w & 0x8080_8080_8080_8080 == 0 {
                out.push((w & 0x7F) as u32);
                out.push((w >> 8 & 0x7F) as u32);
                out.push((w >> 16 & 0x7F) as u32);
                out.push((w >> 24 & 0x7F) as u32);
                out.push((w >> 32 & 0x7F) as u32);
                out.push((w >> 40 & 0x7F) as u32);
                out.push((w >> 48 & 0x7F) as u32);
                out.push((w >> 56 & 0x7F) as u32);
                *at += 8;
                i += 8;
                continue;
            }
            // Mixed window: decode the next eight values scalar before
            // probing again, so a stream of multi-byte varints pays one
            // failed probe per eight values, not one per value.
            for _ in 0..8 {
                out.push(read_u32(bytes, at)?);
            }
            i += 8;
            continue;
        }
        out.push(read_u32(bytes, at)?);
        i += 1;
    }
    Ok(())
}

/// Decode `n` `u32` varints one at a time — the reference decoder the
/// unrolled path is benchmarked and property-tested against.
pub fn read_varints_u32_scalar(
    bytes: &[u8],
    at: &mut usize,
    n: usize,
    out: &mut Vec<u32>,
) -> io::Result<()> {
    out.reserve(n);
    for _ in 0..n {
        out.push(read_u32(bytes, at)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Skip entries
// ---------------------------------------------------------------------------

/// Pack a skip entry: the block's last key and the byte offset one past
/// the block's end, both relative to the start of the list.
pub fn skip_entry(last_key: u32, end_off: u32) -> u64 {
    last_key as u64 | (end_off as u64) << 32
}

/// The block's last (maximum) key.
pub fn skip_last_key(entry: u64) -> u32 {
    entry as u32
}

/// Byte offset one past the block's end, relative to the list start.
pub fn skip_end_off(entry: u64) -> u32 {
    (entry >> 32) as u32
}

/// Index of the first block whose last key is ≥ `min_key` — the first
/// block that can contain a pair with `key ≥ min_key`. Returns
/// `skips.len()` when every key in the list is smaller.
pub fn seek_block(skips: &[u64], min_key: u32) -> usize {
    skips.partition_point(|&e| skip_last_key(e) < min_key)
}

// ---------------------------------------------------------------------------
// List encode / decode
// ---------------------------------------------------------------------------

/// Encode `pairs` (keys non-decreasing) onto `out`, appending one skip
/// entry per block to `skips`. Skip offsets are relative to the list
/// start (`out.len()` at entry), so lists can be concatenated.
/// Returns the encoded byte length of this list.
pub fn encode_list(pairs: &[(u32, u32)], out: &mut Vec<u8>, skips: &mut Vec<u64>) -> usize {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 <= w[1].0),
        "keys must be non-decreasing"
    );
    let base = out.len();
    let mut prev = 0u32;
    for block in pairs.chunks(BLOCK_LEN) {
        for &(k, _) in block {
            write_u32(out, k - prev);
            prev = k;
        }
        for &(_, v) in block {
            write_u32(out, v);
        }
        skips.push(skip_entry(prev, (out.len() - base) as u32));
    }
    out.len() - base
}

/// Decode one block of `count` pairs from `bytes[*at..]`, gaps based at
/// `prev_key`, appending to `out`. Advances `*at`.
pub fn decode_block(
    bytes: &[u8],
    at: &mut usize,
    count: usize,
    prev_key: u32,
    out: &mut Vec<(u32, u32)>,
) -> io::Result<()> {
    let mut gaps = Vec::with_capacity(count);
    read_varints_u32(bytes, at, count, &mut gaps)?;
    let mut vals = Vec::with_capacity(count);
    read_varints_u32(bytes, at, count, &mut vals)?;
    let mut key = prev_key;
    for (g, v) in gaps.into_iter().zip(vals) {
        key = key
            .checked_add(g)
            .ok_or_else(|| bad("key gap overflows u32".into()))?;
        out.push((key, v));
    }
    Ok(())
}

/// Decode a whole list of `n` pairs from `bytes`, appending to `out`.
/// Fails (without panicking) on truncated or malformed input; the store
/// CRCs make that unreachable for sections that validated at open.
pub fn decode_list(bytes: &[u8], n: usize, out: &mut Vec<(u32, u32)>) -> io::Result<()> {
    let mut at = 0usize;
    let mut prev = 0u32;
    let mut done = 0usize;
    out.reserve(n);
    while done < n {
        let count = (n - done).min(BLOCK_LEN);
        let before = out.len();
        decode_block(bytes, &mut at, count, prev, out)?;
        prev = out.last().map(|&(k, _)| k).unwrap_or(prev);
        debug_assert_eq!(out.len() - before, count);
        done += count;
    }
    if at != bytes.len() {
        return Err(bad(format!(
            "list has {} trailing bytes after {n} pairs",
            bytes.len() - at
        )));
    }
    Ok(())
}

/// Decode only the pairs with `key ≥ min_key`, using `skips` to jump
/// over whole blocks (`skips` must be the entries [`encode_list`]
/// produced for this list, or empty for a single-block list). Appends
/// to `out`; pairs from the first decoded block with smaller keys are
/// filtered out, so the result is exactly the tail of the full list.
pub fn decode_from(
    bytes: &[u8],
    n: usize,
    skips: &[u64],
    min_key: u32,
    out: &mut Vec<(u32, u32)>,
) -> io::Result<()> {
    decode_bounded(bytes, n, skips, min_key, None, out)
}

/// Decode only the pairs with `keys.start ≤ key < keys.end`: the
/// [`decode_from`] of `keys.start` that stops after the first block
/// reaching `keys.end`, so the result is exactly that slice of the list.
pub fn decode_range(
    bytes: &[u8],
    n: usize,
    skips: &[u64],
    keys: Range<u32>,
    out: &mut Vec<(u32, u32)>,
) -> io::Result<()> {
    decode_bounded(bytes, n, skips, keys.start, Some(keys.end), out)
}

/// [`decode_from`] and [`decode_range`]: the pairs from `min_key`, up to
/// `end_key` (exclusive) when one is given.
fn decode_bounded(
    bytes: &[u8],
    n: usize,
    skips: &[u64],
    min_key: u32,
    end_key: Option<u32>,
    out: &mut Vec<(u32, u32)>,
) -> io::Result<()> {
    let from = out.len();
    if skips.is_empty() {
        // Single block (or the caller stored no skips): decode and trim.
        decode_list(bytes, n, out)?;
    } else {
        debug_assert_eq!(skips.len(), n.div_ceil(BLOCK_LEN));
        let first = seek_block(skips, min_key);
        let mut at = if first == 0 {
            0
        } else {
            skip_end_off(skips[first - 1]) as usize
        };
        let mut prev = if first == 0 {
            0
        } else {
            skip_last_key(skips[first - 1])
        };
        for (b, &entry) in skips.iter().enumerate().skip(first) {
            let count = (n - b * BLOCK_LEN).min(BLOCK_LEN);
            decode_block(bytes, &mut at, count, prev, out)?;
            prev = skip_last_key(entry);
            // Later blocks hold only keys above this block's last.
            if end_key.is_some_and(|end| prev >= end) {
                break;
            }
        }
    }
    retain_from(out, from, min_key);
    if let Some(end) = end_key {
        let keep = out[from..].partition_point(|&(k, _)| k < end);
        out.truncate(from + keep);
    }
    Ok(())
}

/// Drop pairs with `key < min_key` from `v[from..]` — they can only be
/// a prefix of that range because keys are sorted.
fn retain_from(v: &mut Vec<(u32, u32)>, from: usize, min_key: u32) {
    let skip = v[from..].partition_point(|&(k, _)| k < min_key);
    if skip > 0 {
        v.drain(from..from + skip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: usize, gap_stride: u32) -> Vec<(u32, u32)> {
        let mut key = 0u32;
        (0..n)
            .map(|i| {
                key += (i as u32 * 7 + 1) % gap_stride + 1;
                (key, (i as u32 * 13) % 300)
            })
            .collect()
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut buf = Vec::new();
        let vals = [0u32, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1F_FFFF, u32::MAX];
        for &v in &vals {
            write_u32(&mut buf, v);
        }
        let mut at = 0;
        for &v in &vals {
            assert_eq!(read_u32(&buf, &mut at).unwrap(), v);
        }
        assert_eq!(at, buf.len());

        let mut buf = Vec::new();
        let vals64 = [0u64, 0x7F, 0x80, u32::MAX as u64, u64::MAX];
        for &v in &vals64 {
            write_u64(&mut buf, v);
        }
        let mut at = 0;
        for &v in &vals64 {
            assert_eq!(read_u64(&buf, &mut at).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert!(read_u32(&[0x80], &mut 0).is_err());
        assert!(read_u32(&[], &mut 0).is_err());
        // 6-byte varint: too long for u32.
        assert!(read_u32(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut 0).is_err());
        // 5 bytes whose top bits overflow 32.
        assert!(read_u32(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F], &mut 0).is_err());
        // u64: 10 bytes with payload past bit 63.
        assert!(read_u64(
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
            &mut 0
        )
        .is_err());
    }

    #[test]
    fn unrolled_matches_scalar() {
        // Mix of one-byte and multi-byte varints at every phase offset.
        for n in [0usize, 1, 7, 8, 9, 16, 100, 1000] {
            let vals: Vec<u32> = (0..n as u32).map(|i| i * 37 % 50_000).collect();
            let mut buf = Vec::new();
            for &v in &vals {
                write_u32(&mut buf, v);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let (mut at_a, mut at_b) = (0usize, 0usize);
            read_varints_u32(&buf, &mut at_a, n, &mut a).unwrap();
            read_varints_u32_scalar(&buf, &mut at_b, n, &mut b).unwrap();
            assert_eq!(a, vals);
            assert_eq!(b, vals);
            assert_eq!(at_a, at_b);
        }
    }

    #[test]
    fn list_roundtrip_and_blocks() {
        for n in [0usize, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 1000] {
            let want = pairs(n, 9);
            let mut buf = Vec::new();
            let mut skips = Vec::new();
            let len = encode_list(&want, &mut buf, &mut skips);
            assert_eq!(len, buf.len());
            assert_eq!(skips.len(), n.div_ceil(BLOCK_LEN));
            let mut got = Vec::new();
            decode_list(&buf, n, &mut got).unwrap();
            assert_eq!(got, want);
            if let Some(&last) = skips.last() {
                assert_eq!(skip_last_key(last), want.last().unwrap().0);
                assert_eq!(skip_end_off(last) as usize, buf.len());
            }
        }
    }

    #[test]
    fn duplicate_keys_roundtrip() {
        // Postings may repeat a doc id across fields: gap 0 is legal.
        let want = vec![(5, 1), (5, 2), (5, 3), (9, 1), (9, 9)];
        let mut buf = Vec::new();
        let mut skips = Vec::new();
        encode_list(&want, &mut buf, &mut skips);
        let mut got = Vec::new();
        decode_list(&buf, want.len(), &mut got).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn seek_matches_linear_scan() {
        let want = pairs(1000, 5);
        let mut buf = Vec::new();
        let mut skips = Vec::new();
        encode_list(&want, &mut buf, &mut skips);
        for min in [0, 1, 17, 500, want[499].0, want[999].0, u32::MAX] {
            let mut got = Vec::new();
            decode_from(&buf, want.len(), &skips, min, &mut got).unwrap();
            let linear: Vec<_> = want.iter().copied().filter(|&(k, _)| k >= min).collect();
            assert_eq!(got, linear, "min_key {min}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        let want = pairs(300, 9);
        let mut buf = Vec::new();
        let mut skips = Vec::new();
        encode_list(&want, &mut buf, &mut skips);
        let mut out = Vec::new();
        // Truncated.
        assert!(decode_list(&buf[..buf.len() - 1], 300, &mut out).is_err());
        // Trailing bytes.
        let mut extended = buf.clone();
        extended.push(0);
        out.clear();
        assert!(decode_list(&extended, 300, &mut out).is_err());
        // Wrong count: either truncation or trailing bytes.
        out.clear();
        assert!(decode_list(&buf, 301, &mut out).is_err());
        out.clear();
        assert!(decode_list(&buf, 299, &mut out).is_err());
    }
}
