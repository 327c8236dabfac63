//! The on-disk `ChunkFrame` header and the payload digest.
//!
//! A transformed file is an append-only sequence of frames, each
//! self-describing:
//!
//! ```text
//! ┌──────────────── 40-byte header ────────────────┬─────────────────┐
//! │ magic codec flags format                       │ stored payload  │
//! │       logical_off  logical_len  stored_len     │ (stored_len B)  │
//! │       payload_check  header CRC                │                 │
//! └────────────────────────────────────────────────┴─────────────────┘
//!  byte  0..4  magic "CRFK"      16..20 logical_len
//!        4     codec             20..24 stored_len
//!        5     flags             24..32 payload_check
//!        6     format            32..36 reserved, zero
//!        7     reserved, zero    36..40 CRC-32 of bytes 0..36
//!        8..16 logical_offset
//! ```
//!
//! - `payload_check` is the 64-bit check half of [`payload_digest`]
//!   over the *logical* (decoded) payload — verified after decode on
//!   every read, so corruption anywhere between encode and decode
//!   surfaces as an integrity error.
//! - `format` says how this build reads the frame: [`FRAME_FORMAT`]
//!   (2) is the digest check with keyed REF payloads ([`ChunkRef`]); 1
//!   was the same digest with REF payloads that spelled out a path, 0
//!   the FNV-1a-64 check of stores written before the digest. There is
//!   one reader: a frame of any other format than [`FRAME_FORMAT`]
//!   still scans structurally, but its payload cannot be verified (or
//!   its reference resolved) and is therefore never served — an older
//!   store reads as an integrity error, it is *not* re-read the old
//!   way.
//! - the header carries its own CRC-32, so a corrupted header is
//!   detected as corruption rather than misparsed.
//! - frames appear in the file in *allocation order*; that order is the
//!   newest-wins authority for overlapping logical ranges and lets a
//!   fresh mount rebuild the frame map with a single header scan.
//!
//! All integers are little-endian.
//!
//! ## The payload digest
//!
//! [`payload_digest`] walks a payload **once** and yields both the
//! 128-bit dedup/CAS key and the 64-bit frame check. Eight 64-bit lanes
//! each absorb one little-endian word of every 64-byte stripe with an
//! xxh64 round (`rotl(acc + w·P2, 31)·P1`) and are then xored with the
//! neighbouring lane's word, so every input word lands in two lanes
//! (once through the round, once directly) and a difference confined
//! to one lane position cannot cancel in that lane alone. The lanes do not
//! depend on each other inside a stripe, which is what lets a
//! superscalar core run the sixteen multiplies of a stripe back to
//! back: one multiply per byte (FNV) becomes two per eight bytes. A
//! ragged tail is zero-padded to one last stripe and the length is
//! folded into every finaliser, so a payload and its zero-extension
//! differ. Three finalisers — different seed, lane rotation and lane
//! order, each an xxh64 merge over **all** eight lanes followed by the
//! xxh64 avalanche — produce the key's two halves and the check, so two
//! payloads whose lane states differ collide on the key and on the
//! check independently.

use std::io;

/// Magic word opening every frame header ("CRFK").
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"CRFK");
/// Byte size of a frame header.
pub const FRAME_HEADER_LEN: u64 = 40;
/// The frame format this build writes and reads: `payload_check` is the
/// check half of [`payload_digest`], and a REF payload is a
/// [`ChunkRef`]. Format 1 (REF payloads naming a path and an offset)
/// and format 0 (FNV-1a-64 check) predate it.
pub const FRAME_FORMAT: u8 = 2;

/// Flag bit: the payload is a dedup *reference record* ([`ChunkRef`]),
/// not chunk bytes.
pub const FLAG_REF: u8 = 1 << 0;
/// Flag bit: a truncation marker — no payload; `logical_offset` is the
/// new logical length.
pub const FLAG_TRUNC: u8 = 1 << 1;
/// Flag bit: a padding frame covering stored space whose chunk write
/// failed — carries no logical data; scans skip it, keeping the frame
/// chain walkable past the damage.
pub const FLAG_PAD: u8 = 1 << 2;

/// One decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Stored codec id ([`super::codec::STORED_RAW`] etc.).
    pub codec: u8,
    /// [`FLAG_REF`] / [`FLAG_TRUNC`] bits.
    pub flags: u8,
    /// Which function produced `payload_check` ([`FRAME_FORMAT`]; 0 on
    /// frames written before the digest).
    pub format: u8,
    /// Byte offset of this chunk within the logical file (for `TRUNC`:
    /// the new logical length).
    pub logical_offset: u64,
    /// Decoded payload length in bytes.
    pub logical_len: u32,
    /// Stored payload length in bytes (follows the header).
    pub stored_len: u32,
    /// Check half of [`payload_digest`] over the logical payload.
    pub payload_check: u64,
}

impl FrameHeader {
    /// Serializes the header into its 40-byte form (CRC appended last).
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN as usize] {
        let mut out = [0u8; FRAME_HEADER_LEN as usize];
        out[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        out[4] = self.codec;
        out[5] = self.flags;
        out[6] = self.format;
        // byte 7 reserved, zero.
        out[8..16].copy_from_slice(&self.logical_offset.to_le_bytes());
        out[16..20].copy_from_slice(&self.logical_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.stored_len.to_le_bytes());
        out[24..32].copy_from_slice(&self.payload_check.to_le_bytes());
        // bytes 32..36 reserved, zero.
        let crc = crc32(&out[..36]);
        out[36..40].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// The header of a content-store chunk: one DATA frame of this
    /// build's format, at logical offset 0.
    pub fn chunk(codec: u8, logical_len: u32, stored_len: u32, payload_check: u64) -> FrameHeader {
        FrameHeader {
            codec,
            flags: 0,
            format: FRAME_FORMAT,
            logical_offset: 0,
            logical_len,
            stored_len,
            payload_check,
        }
    }

    /// Parses and validates a header (magic + CRC). An
    /// `InvalidData` error means the bytes are not an intact frame
    /// header — corruption, a torn write, or a raw (unframed) file.
    pub fn decode(buf: &[u8]) -> io::Result<FrameHeader> {
        if buf.len() < FRAME_HEADER_LEN as usize {
            return Err(corrupt("truncated frame header"));
        }
        if u32::from_le_bytes(buf[..4].try_into().unwrap()) != FRAME_MAGIC {
            return Err(corrupt("bad frame magic"));
        }
        let crc = u32::from_le_bytes(buf[36..40].try_into().unwrap());
        if crc32(&buf[..36]) != crc {
            return Err(corrupt("frame header CRC mismatch"));
        }
        Ok(FrameHeader {
            codec: buf[4],
            flags: buf[5],
            format: buf[6],
            logical_offset: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            logical_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
            stored_len: u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            payload_check: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// Byte size of a REF frame's payload, one [`ChunkRef`].
pub const REF_LEN: usize = 24;

/// The payload of a REF frame, `hash u128 | stored_len u32 | codec u8 |
/// reserved [u8; 3]`: the content-store chunk of key `(hash, the
/// header's logical_len)` holds the frame's bytes, stored so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// 128-bit content key half of [`payload_digest`].
    pub hash: u128,
    /// Stored payload length of the chunk's frame.
    pub stored_len: u32,
    /// Stored codec id of the chunk's payload.
    pub codec: u8,
}

impl ChunkRef {
    /// Serializes the record into its 24-byte form.
    pub fn encode(&self) -> [u8; REF_LEN] {
        let mut out = [0u8; REF_LEN];
        out[..16].copy_from_slice(&self.hash.to_le_bytes());
        out[16..20].copy_from_slice(&self.stored_len.to_le_bytes());
        out[20] = self.codec;
        out
    }

    /// Parses a REF payload; `None` unless it is exactly [`REF_LEN`]
    /// bytes.
    pub fn decode(payload: &[u8]) -> Option<ChunkRef> {
        let payload: &[u8; REF_LEN] = payload.try_into().ok()?;
        Some(ChunkRef {
            hash: u128::from_le_bytes(payload[..16].try_into().unwrap()),
            stored_len: u32::from_le_bytes(payload[16..20].try_into().unwrap()),
            codec: payload[20],
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `data` — the check on a frame
/// header and on the snapshot manifest blob. Implemented locally to
/// keep `crfs-core` dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64-bit, for short strings (the flight recorder's path tags).
/// It was the payload check of format-0 frames; no payload is hashed or
/// verified with it any more — one multiply per byte in a serial chain
/// is an order of magnitude slower than [`payload_digest`].
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// The xxh64 primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Lanes of the digest: 64-bit accumulators, one word of a stripe each.
const LANES: usize = 8;
/// Bytes absorbed per step.
const STRIPE: usize = LANES * 8;
/// Distinct non-zero starting values, one per lane.
const LANE_INIT: [u64; LANES] = [
    P1.wrapping_add(P2),
    P2,
    P3,
    P4,
    P5,
    P1.wrapping_neg(),
    P2.wrapping_add(P3),
    P4.wrapping_add(P5),
];

/// Both fingerprints of one payload, from one walk over its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadDigest {
    /// 128-bit content key: the dedup index and CAS file name.
    pub key: u128,
    /// 64-bit frame check (`payload_check`), derived from the same lane
    /// state as `key` by a finaliser of its own.
    pub check: u64,
}

/// The xxh64 round: a bijection of `acc` for a fixed word and of the
/// word for a fixed `acc`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn absorb(acc: &mut [u64; LANES], stripe: &[u8]) {
    let mut w = [0u64; LANES];
    for (w, bytes) in w.iter_mut().zip(stripe.chunks_exact(8)) {
        *w = u64::from_le_bytes(bytes.try_into().unwrap());
    }
    for i in 0..LANES {
        acc[i] = round(acc[i], w[i]) ^ w[i ^ 1];
    }
}

/// One 64-bit result over the whole lane state. `seed`, `rot` and
/// `reverse` make [`finalise`]'s three calls three different functions.
fn finish(acc: &[u64; LANES], len: u64, seed: u64, rot: u32, reverse: bool) -> u64 {
    let mut h = seed;
    for i in 0..LANES {
        let lane = acc[if reverse { LANES - 1 - i } else { i }];
        h = (h ^ round(0, lane.rotate_left(rot)))
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    h = h.wrapping_add(len);
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Fingerprints `data` in one pass: the dedup/CAS key and the frame
/// check (see the module docs for the construction). Corruption
/// *detection* and content addressing are the jobs — the adversary is
/// bit rot and coincidence, not an attacker.
pub fn payload_digest(data: &[u8]) -> PayloadDigest {
    let mut acc = LANE_INIT;
    let mut stripes = data.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        absorb(&mut acc, stripe);
    }
    let tail = stripes.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..tail.len()].copy_from_slice(tail);
        absorb(&mut acc, &last);
    }
    finalise(&acc, data.len() as u64)
}

/// The three results over the final lane state of a `len`-byte payload.
fn finalise(acc: &[u64; LANES], len: u64) -> PayloadDigest {
    let hi = finish(acc, len, P3, 0, false);
    let lo = finish(acc, len, P5, 23, false);
    PayloadDigest {
        key: (u128::from(hi) << 64) | u128::from(lo),
        check: finish(acc, len, P4, 41, true),
    }
}

/// The 128-bit content key of `data` — the key half of
/// [`payload_digest`], for callers that need no frame check.
pub fn content_hash128(data: &[u8]) -> u128 {
    payload_digest(data).key
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader {
            codec: 2,
            flags: FLAG_REF,
            format: FRAME_FORMAT,
            logical_offset: 1 << 40,
            logical_len: 4096,
            stored_len: 123,
            payload_check: 0xDEAD_BEEF_CAFE_F00D,
        };
        assert_eq!(FrameHeader::decode(&h.encode()).unwrap(), h);
        assert_eq!(h.encode()[6], FRAME_FORMAT, "format lives in byte 6");
        // A header written before the format byte existed has zero
        // there and decodes as format 0.
        let old = FrameHeader { format: 0, ..h };
        assert_eq!(old.encode()[6], 0);
        assert_eq!(FrameHeader::decode(&old.encode()).unwrap().format, 0);
    }

    #[test]
    fn header_rejects_corruption() {
        let h = FrameHeader {
            codec: 0,
            flags: 0,
            format: FRAME_FORMAT,
            logical_offset: 0,
            logical_len: 10,
            stored_len: 10,
            payload_check: 1,
        };
        let enc = h.encode();
        for i in 0..enc.len() {
            let mut bad = enc;
            bad[i] ^= 0x10;
            assert!(
                FrameHeader::decode(&bad).is_err(),
                "flip at byte {i} must be detected"
            );
        }
        assert!(FrameHeader::decode(&enc[..20]).is_err(), "short buffer");
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// A fixed byte pattern without zero bytes (so that zero-extending
    /// a prefix never equals a longer prefix).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 131) ^ (i >> 8) ^ (i >> 15)) as u8 | 1)
            .collect()
    }

    /// The digest written the slow way: every word assembled from its
    /// bytes by shifts (no host byte order involved), one stripe at a
    /// time, reading zero past the end.
    fn reference(data: &[u8]) -> PayloadDigest {
        let word = |at: usize| {
            (0..8).fold(0u64, |w, b| {
                w | u64::from(data.get(at + b).copied().unwrap_or(0)) << (8 * b)
            })
        };
        let mut acc = LANE_INIT;
        for stripe in 0..data.len().div_ceil(STRIPE) {
            let w: Vec<u64> = (0..LANES).map(|l| word(stripe * STRIPE + l * 8)).collect();
            for l in 0..LANES {
                acc[l] = round(acc[l], w[l]) ^ w[l ^ 1];
            }
        }
        finalise(&acc, data.len() as u64)
    }

    /// `(length, key, check)` of `pattern(length)`. These pin the
    /// digest of formats 1 and 2: a change here is a format change and
    /// needs a new [`FRAME_FORMAT`].
    const KNOWN: [(usize, u128, u64); 6] = [
        (0, 0x467dceeca03ddc1258f1ccfd821d4aaf, 0x9ea3fc0f26048066),
        (1, 0xb4d47fce3c02e04885f57e07b98ebcab, 0xfca68753a43117ae),
        (63, 0x91cd6fb6d130d6dc000f2f67e1b9dd5a, 0xe58abf734cddf3ab),
        (64, 0x0e517f27a878828700e42e4584222c10, 0xdbcc07214e670a3c),
        (65, 0xce0d4a5b56253c07533874c091b0aa94, 0xbfbdf45a4f95aa96),
        (
            1 << 20,
            0xba61693607523796ec34b82e4a98715f,
            0xb5caaaf4e72421c6,
        ),
    ];

    #[test]
    fn digest_known_answers() {
        for (len, key, check) in KNOWN {
            let d = payload_digest(&pattern(len));
            assert_eq!(
                (d.key, d.check),
                (key, check),
                "{len} bytes: got ({:#034x}, {:#018x})",
                d.key,
                d.check
            );
        }
    }

    #[test]
    fn key_halves_and_check_are_three_different_functions() {
        for (len, _, _) in KNOWN {
            let d = payload_digest(&pattern(len));
            let (hi, lo) = ((d.key >> 64) as u64, d.key as u64);
            assert!(hi != lo && hi != d.check && lo != d.check, "{len} bytes");
        }
    }

    #[test]
    fn digest_matches_the_shift_assembled_reference() {
        let data = pattern(5000);
        for len in (0..=300).chain([511, 512, 513, 4095, 4096, 4097, 5000]) {
            assert_eq!(
                payload_digest(&data[..len]),
                reference(&data[..len]),
                "{len}"
            );
        }
    }

    #[test]
    fn every_length_is_distinct_and_differs_from_its_zero_extension() {
        let data = pattern(300);
        let mut keys = std::collections::HashSet::new();
        let mut checks = std::collections::HashSet::new();
        for len in 0..=300 {
            let d = payload_digest(&data[..len]);
            assert!(keys.insert(d.key), "key of length {len} repeats");
            assert!(checks.insert(d.check), "check of length {len} repeats");
            // The same bytes followed by zeros — one, and up to the end
            // of the tail stripe and one past it — pad to the same
            // stripes; only the folded-in length tells them apart.
            let stripe_end = (len / STRIPE + 1) * STRIPE;
            for ext in [len + 1, stripe_end, stripe_end + 1] {
                let mut z = data[..len].to_vec();
                z.resize(ext, 0);
                let e = payload_digest(&z);
                assert!(e.key != d.key && e.check != d.check, "{len} vs {ext}");
            }
        }
    }

    #[test]
    fn an_unaligned_subslice_equals_its_aligned_copy() {
        let data = pattern(1200);
        for start in 0..9 {
            for len in [0, 1, 63, 64, 65, 1000] {
                let slice = &data[start..start + len];
                let aligned: Vec<u8> = slice.to_vec(); // a fresh allocation
                assert_eq!(payload_digest(slice), payload_digest(&aligned));
            }
        }
    }

    fn assert_flip_changes(data: &mut [u8], base: PayloadDigest, bit: usize) {
        data[bit / 8] ^= 1 << (bit % 8);
        let d = payload_digest(data);
        data[bit / 8] ^= 1 << (bit % 8);
        assert!(
            d.key != base.key && d.check != base.check,
            "flipping bit {bit} went unnoticed"
        );
    }

    #[test]
    fn every_single_bit_flip_of_a_block_changes_key_and_check() {
        let mut data = pattern(4096);
        let base = payload_digest(&data);
        for bit in 0..data.len() * 8 {
            assert_flip_changes(&mut data, base, bit);
        }
        // Flips in a ragged tail and of the bits that pad it.
        let mut data = pattern(4096 + 13);
        let base = payload_digest(&data);
        for bit in 4096 * 8..data.len() * 8 {
            assert_flip_changes(&mut data, base, bit);
        }
    }

    #[test]
    fn seeded_bit_flips_of_a_chunk_change_key_and_check() {
        let mut data = pattern(1 << 20);
        let base = payload_digest(&data);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            assert_flip_changes(&mut data, base, (x % (8 << 20)) as usize);
        }
    }

    #[test]
    fn words_a_stripe_apart_do_not_cancel_in_their_lane() {
        // The shape that defeats a digest of independent lanes: two
        // payloads that differ only in words of one lane (one field of
        // an array of 64-byte records). Every word also lands in the
        // neighbouring lane, so both lanes must collide at once; here
        // sign-bit and low-bit flips of the same field in two and in
        // all records stay distinct.
        let base = pattern(64 * 64);
        let mut seen = std::collections::HashSet::new();
        seen.insert(payload_digest(&base).key);
        for byte in [0usize, 7] {
            for mask in [0x01u8, 0x80] {
                for records in [2usize, 64] {
                    let mut v = base.clone();
                    for r in 0..records {
                        v[r * 64 + 16 + byte] ^= mask;
                    }
                    assert!(seen.insert(payload_digest(&v).key));
                }
            }
        }
    }

    #[test]
    fn hashes_distinguish_and_are_stable() {
        // FNV stays for path tags; its value is part of flight dumps.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(content_hash128(b"aaaa"), content_hash128(b"aaab"));
        assert_eq!(content_hash128(b"same"), content_hash128(b"same"));
        assert_eq!(content_hash128(b"same"), payload_digest(b"same").key);
        // Length is folded in: a zero run differs from a shorter one.
        assert_ne!(content_hash128(&[0; 16]), content_hash128(&[0; 17]));
        assert_ne!(
            payload_digest(&[0; 16]).check,
            payload_digest(&[0; 17]).check
        );
    }
}
