//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Two paths compute the same function. On x86-64 hosts with
//! `pclmulqdq` and `sse4.1`, [`Crc32::update`] sends the 16-byte-multiple
//! bulk of any input of at least 64 bytes to a carry-less-multiply
//! folding kernel ([`clmul`]); slicing-by-8 takes short inputs, the
//! < 16-byte tail and every other host. Nothing selects a path but the
//! input length and the CPU.

// Slicing-by-8 tables: table 0 is the classic Sarwate byte table, table
// j extends it by one byte of zero-padding, so eight lookups advance the
// register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// Advance the (pre-inverted) register `c` over `bytes`, eight at a time.
fn slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Streaming CRC32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            let (bulk, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: `available()` just confirmed `pclmulqdq` and
            // `sse4.1`. `fold` loads only through `&[u8; 16]` lanes cut
            // from `bulk` by `chunks_exact`, so every load is in bounds;
            // `bulk.len() >= 64` holds because `bytes.len() >= 64`.
            let c = unsafe { clmul::fold(self.0, bulk) };
            self.0 = slice8(c, tail);
            return;
        }
        self.0 = slice8(self.0, bytes);
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of a whole byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Carry-less-multiply CRC32 folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009), for the bit-reflected polynomial: four 128-bit lanes
/// fold over 64-byte blocks, fold into one lane, take each remaining
/// 16-byte lane, reduce 128 to 64 bits, and a Barrett reduction gives
/// the 32-bit register.
///
/// Each fold constant is `x^n mod P(x)`, bit-reflected to 32 bits and
/// shifted left by one, for the distance `n` its fold spans; the test
/// `fold_constants_follow_from_the_polynomial` derives them all.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The kernel needs one 64-byte block to seed its four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32) mod P` and `x^(4·128-32) mod P`: fold a lane 512
    /// bits forward.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32) mod P` and `x^(128-32) mod P`: fold a lane 128 bits
    /// forward.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: fold 96 bits down to 64.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` bit-reflected over 33 bits.
    pub(super) const POLY: i64 = 0x1_db71_0641;
    /// Barrett's `μ = ⌊x^64 / P(x)⌋`, bit-reflected over 33 bits.
    pub(super) const MU: i64 = 0x1_f701_1641;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the pre-inverted CRC register `crc` over `data`, whose
    /// length is a multiple of 16 and at least [`MIN_LEN`] (checked).
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` (see
    /// [`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN && data.len().is_multiple_of(16));
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("at least one 64-byte block");
        let mut x = [0, 1, 2, 3].map(|i| load(first, i));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = fold128(*lane, load(block, i), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold128(x[0], x[1], k3k4);
        acc = fold128(acc, x[2], k3k4);
        acc = fold128(acc, x[3], k3k4);
        for lane in blocks.remainder().chunks_exact(16) {
            acc = fold128(acc, load(lane, 0), k3k4);
        }

        // 128 -> 96 bits: the low half times x^(128-32) plus the high
        // half; 96 -> 64 bits: the low word times x^64 plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(r, 4),
        );

        // Barrett reduction, bit-reflected: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the register is the upper word of
        // R xor T2.
        let pu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(r, t2), 1) as u32
    }

    /// `a`'s two halves multiplied by `keys`' and added into `b`: the
    /// lane `a` carried forward over the distance `keys` encodes.
    ///
    /// # Safety
    ///
    /// Safe to call from [`fold`], which enables `pclmulqdq`; any other
    /// caller needs `unsafe` and a CPU with `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold128(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The `i`-th 16-byte lane of `block`.
    fn load(block: &[u8], i: usize) -> __m128i {
        let lane: &[u8; 16] = block[16 * i..16 * i + 16]
            .try_into()
            .expect("a 16-byte range");
        // SAFETY: `lane` is a `&[u8; 16]`, so all 16 bytes read are in
        // bounds (the range above is bounds-checked); `loadu` has no
        // alignment requirement, and SSE2 is part of x86-64.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One byte at a time through the Sarwate table: the reference both
    /// fast paths are held to.
    fn bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// Lengths 0..=1100 cover every 16-byte tail, every fold-by-one lane
    /// count and a dozen 64-byte blocks; `n` seeds a pseudo-random fill.
    fn buffer(len: usize, n: u64) -> Vec<u8> {
        let mut s = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    /// Every path that exists on this host agrees with the reference
    /// from a given starting register.
    fn check(start: u32, bytes: &[u8], what: &str) {
        let want = bytewise(start, bytes);
        assert_eq!(slice8(start, bytes), want, "slicing-by-8, {what}");
        let mut c = Crc32(start);
        c.update(bytes);
        assert_eq!(c.0, want, "Crc32::update, {what}");
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && bytes.len().is_multiple_of(16) && clmul::available() {
            // SAFETY: features detected just above; `fold` checks the
            // length condition the branch just established.
            let got = unsafe { clmul::fold(start, bytes) };
            assert_eq!(got, want, "kernel, {what}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_path_matches_the_bytewise_reference_at_every_length() {
        let data = buffer(1100, 1);
        for len in 0..=data.len() {
            check(0xFFFF_FFFF, &data[..len], &format!("len {len}"));
            check(0x1234_5678, &data[..len], &format!("len {len}, mid-stream"));
        }
    }

    /// `update` is a function of the register and the bytes, so a
    /// stream of one, two or three parts is right exactly when every
    /// `update(register after [..a], [a..b])` lands on the register
    /// after `[..b]`: checking every `a <= b` covers every split.
    #[test]
    fn every_streaming_split_matches_the_whole() {
        let data = buffer(1100, 2);
        let prefix: Vec<u32> = (0..=data.len())
            .map(|i| bytewise(0xFFFF_FFFF, &data[..i]))
            .collect();
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut c = Crc32(prefix[a]);
                c.update(&data[a..b]);
                assert_eq!(c.0, prefix[b], "part [{a}, {b})");
            }
        }
    }

    #[test]
    fn a_large_buffer_matches_the_reference() {
        let data = buffer(4 << 20, 3);
        check(0xFFFF_FFFF, &data, "4 MiB");
        check(0xFFFF_FFFF, &data[..data.len() - 9], "4 MiB less 9 bytes");
    }

    /// `x^n mod P(x)` in the normal (unreflected) bit order, `P` with
    /// its `x^32` term.
    fn x_pow_mod(n: u32) -> u64 {
        const P: u64 = 0x1_04C1_1DB7;
        let mut r = 1u64;
        for _ in 0..n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P;
            }
        }
        r
    }

    fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fold_constants_follow_from_the_polynomial() {
        let k = |n: u32| (reflect(x_pow_mod(n), 32) << 1) as i64;
        assert_eq!(clmul::K1, k(4 * 128 + 32), "K1");
        assert_eq!(clmul::K2, k(4 * 128 - 32), "K2");
        assert_eq!(clmul::K3, k(128 + 32), "K3");
        assert_eq!(clmul::K4, k(128 - 32), "K4");
        assert_eq!(clmul::K5, k(64), "K5");

        const P: u64 = 0x1_04C1_1DB7;
        assert_eq!(clmul::POLY, reflect(P, 33) as i64, "P");
        assert_eq!(reflect(P, 33) >> 1, 0xEDB8_8320, "the table's polynomial");
        // μ = ⌊x^64 / P⌋ by long division over GF(2).
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rem & (1u128 << (32 + shift)) != 0 {
                rem ^= (P as u128) << shift;
                quot |= 1 << shift;
            }
        }
        assert_eq!(clmul::MU, reflect(quot, 33) as i64, "μ");
    }
}
