//! Property tests for the block-compressed postings codec and its
//! interaction with the container's CRC protection.
//!
//! Three of the PR's correctness claims live here: encode→decode is
//! bit-identical for arbitrary gap distributions and value ranges
//! (including the 24-bit freq saturation boundary, which packs into the
//! top of the 27-bit value varint), skip-pointer seeks land on exactly
//! the block a linear scan would, and any corruption of a compressed
//! section is still rejected by the store CRCs before a decoder sees it.

use inspire_store::codec::{
    decode_from, decode_list, decode_range, encode_list, read_varints_u32, read_varints_u32_scalar,
    seek_block, skip_last_key, write_u32, BLOCK_LEN,
};
use inspire_store::{SectionKind, Snapshot, SnapshotWriter};
use proptest::prelude::*;

/// Build a sorted key sequence from a base and gaps (gap 0 is legal:
/// one document can repeat a key across fields).
fn keys_from_gaps(base: u32, gaps: &[u32]) -> Vec<u32> {
    let mut keys = Vec::with_capacity(gaps.len());
    let mut k = base;
    for &g in gaps {
        k = k.saturating_add(g);
        keys.push(k);
    }
    keys
}

/// The 27-bit value boundary: a saturated 24-bit freq with the largest
/// field id. Values are folded toward it so every run crosses the
/// boundary region, not just the low varint bytes.
const VAL_CEIL: u32 = (0xFF_FFFF << 3) | 0x7;

proptest! {
    /// Round-trip: decode(encode(pairs)) == pairs, bit for bit, for any
    /// gap distribution (dense, sparse, duplicate) and any value up to
    /// the saturation ceiling.
    #[test]
    fn encode_decode_roundtrip(
        base in 0u32..1_000_000,
        gaps in prop::collection::vec(0u32..200_000, 0..600),
        raw_vals in prop::collection::vec(0u32..=u32::MAX, 0..600),
    ) {
        let keys = keys_from_gaps(base, &gaps);
        let pairs: Vec<(u32, u32)> = keys
            .iter()
            .zip(raw_vals.iter().cycle())
            .map(|(&k, &v)| (k, v % (VAL_CEIL + 1)))
            .collect();
        let mut bytes = Vec::new();
        let mut skips = Vec::new();
        let len = encode_list(&pairs, &mut bytes, &mut skips);
        prop_assert_eq!(len, bytes.len());
        prop_assert_eq!(skips.len(), pairs.len().div_ceil(BLOCK_LEN));
        let mut back = Vec::new();
        decode_list(&bytes, pairs.len(), &mut back).expect("decode");
        prop_assert_eq!(back, pairs);
    }

    /// The saturation boundary exactly: values pinned to the top of the
    /// 24-bit freq budget survive encode→decode unchanged.
    #[test]
    fn saturation_boundary_roundtrip(
        gaps in prop::collection::vec(0u32..50, 1..200),
        off in 0u32..16,
    ) {
        let keys = keys_from_gaps(0, &gaps);
        let pairs: Vec<(u32, u32)> = keys
            .iter()
            .map(|&k| (k, VAL_CEIL - (off.min(VAL_CEIL))))
            .collect();
        let mut bytes = Vec::new();
        let mut skips = Vec::new();
        encode_list(&pairs, &mut bytes, &mut skips);
        let mut back = Vec::new();
        decode_list(&bytes, pairs.len(), &mut back).expect("decode");
        prop_assert_eq!(back, pairs);
    }

    /// The unrolled 8-wide varint decoder reads exactly what the scalar
    /// reference does, byte stream by byte stream.
    #[test]
    fn unrolled_decoder_matches_scalar(
        vals in prop::collection::vec(0u32..=u32::MAX, 0..600),
    ) {
        let mut bytes = Vec::new();
        for &v in &vals {
            write_u32(&mut bytes, v);
        }
        let mut fast = Vec::new();
        let mut fast_at = 0usize;
        read_varints_u32(&bytes, &mut fast_at, vals.len(), &mut fast).expect("fast");
        let mut slow = Vec::new();
        let mut slow_at = 0usize;
        read_varints_u32_scalar(&bytes, &mut slow_at, vals.len(), &mut slow).expect("slow");
        prop_assert_eq!(fast_at, slow_at);
        prop_assert_eq!(&fast, &vals);
        prop_assert_eq!(fast, slow);
    }

    /// Skip-pointer seek lands on the same block a linear scan finds,
    /// and the seeked decode equals the linearly filtered tail.
    #[test]
    fn seek_matches_linear_scan(
        base in 0u32..10_000,
        gaps in prop::collection::vec(0u32..300, 1..900),
        probe in 0u32..400_000,
    ) {
        let keys = keys_from_gaps(base, &gaps);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0x5A)).collect();
        let mut bytes = Vec::new();
        let mut skips = Vec::new();
        encode_list(&pairs, &mut bytes, &mut skips);

        // Block index: binary seek vs. linear scan over skip entries.
        let sought = seek_block(&skips, probe);
        let linear = skips
            .iter()
            .position(|&e| skip_last_key(e) >= probe)
            .unwrap_or(skips.len());
        prop_assert_eq!(sought, linear);

        // Decoded tail: seeked decode vs. full decode + filter.
        let mut tail = Vec::new();
        decode_from(&bytes, pairs.len(), &skips, probe, &mut tail).expect("decode_from");
        let want: Vec<(u32, u32)> = pairs.iter().copied().filter(|&(k, _)| k >= probe).collect();
        prop_assert_eq!(tail, want);
    }

    /// A bounded decode equals the full list filtered to the key range,
    /// whatever blocks the range starts and ends in.
    #[test]
    fn range_decode_matches_filter(
        gaps in prop::collection::vec(0u32..300, 1..900),
        start in 0u32..200_000,
        len in 0u32..200_000,
    ) {
        let keys = keys_from_gaps(0, &gaps);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 0x5A)).collect();
        let mut bytes = Vec::new();
        let mut skips = Vec::new();
        encode_list(&pairs, &mut bytes, &mut skips);
        let keys = start..start + len;
        let mut got = vec![(7, 7)];
        decode_range(&bytes, pairs.len(), &skips, keys.clone(), &mut got).expect("decode_range");
        let want: Vec<(u32, u32)> = std::iter::once((7, 7))
            .chain(pairs.iter().copied().filter(|(k, _)| keys.contains(k)))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Any single bit flip anywhere in a container holding compressed
    /// sections is rejected at open — the decoders never see corrupt
    /// bytes that validated.
    #[test]
    fn corrupted_compressed_sections_rejected(
        gaps in prop::collection::vec(0u32..100, 1..300),
        flip_seed in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let keys = keys_from_gaps(0, &gaps);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k.rotate_left(7))).collect();
        let mut blk = Vec::new();
        let mut skips = Vec::new();
        encode_list(&pairs, &mut blk, &mut skips);

        let path = std::env::temp_dir().join(format!(
            "va-codec-prop-{}-{flip_seed}-{bit}.isnap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut w = SnapshotWriter::create(&path).expect("create");
        w.add_section("postblk", SectionKind::Packed, &blk).expect("postblk");
        w.add_section("postskp", SectionKind::Skip, &skips).expect("postskp");
        w.finish().expect("finish");
        Snapshot::open(&path).expect("pristine file validates");

        let mut bytes = std::fs::read(&path).expect("read back");
        let at = flip_seed % bytes.len();
        bytes[at] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted");
        prop_assert!(
            Snapshot::open(&path).is_err(),
            "bit {bit} at byte {at} accepted"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Truncation at any boundary is likewise rejected.
    #[test]
    fn truncated_compressed_sections_rejected(
        gaps in prop::collection::vec(0u32..100, 1..300),
        cut_seed in 1usize..1_000_000,
    ) {
        let keys = keys_from_gaps(0, &gaps);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k)).collect();
        let mut blk = Vec::new();
        let mut skips = Vec::new();
        encode_list(&pairs, &mut blk, &mut skips);

        let path = std::env::temp_dir().join(format!(
            "va-codec-trunc-{}-{cut_seed}.isnap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut w = SnapshotWriter::create(&path).expect("create");
        w.add_section("postblk", SectionKind::Packed, &blk).expect("postblk");
        w.add_section("postskp", SectionKind::Skip, &skips).expect("postskp");
        w.finish().expect("finish");

        let bytes = std::fs::read(&path).expect("read back");
        let keep = cut_seed % bytes.len();
        std::fs::write(&path, &bytes[..keep]).expect("truncate");
        prop_assert!(Snapshot::open(&path).is_err(), "truncated to {keep} accepted");
        let _ = std::fs::remove_file(&path);
    }
}
