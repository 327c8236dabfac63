//! Native, dependency-free chunk codecs.
//!
//! The transform stage compresses each sealed chunk independently, so a
//! codec here is a pure `encode`/`decode` pair over one payload — no
//! streaming state, no cross-chunk history. Two real codecs are
//! provided, bracketing the effort/ratio space the offline build can
//! reach without crates.io:
//!
//! - [`Rle`] — packbits-style run-length encoding. Near-memcpy speed;
//!   wins only on long byte runs (zero pages, untouched VMAs).
//! - [`Lz`] — a greedy LZ77 with a rolling 4-byte hash-table match
//!   finder (the format every fast LZ family — LZ4, snappy — builds
//!   on). Catches the repeated structure stdchk observed in checkpoint
//!   streams, not just runs.
//!
//! Both decoders write into a destination slice of exactly the
//! payload's logical length and check every bound *before* the copy it
//! guards: corrupted stored bytes must surface as an error, never as a
//! panic or a byte outside the destination — the integrity path depends
//! on it. Because the destination is sized from a frame header, each
//! stored codec also states how far it can expand
//! ([`check_expansion`]); a header whose logical length its stored
//! bytes cannot fill is refused before any buffer is sized for it.
//!
//! Every encoder honours the *store-raw escape hatch*: if the encoded
//! form would not be strictly smaller than the payload, the chunk is
//! stored raw (codec id [`STORED_RAW`]), so incompressible data costs
//! only the frame header, never an inflation.
//!
//! The LZ kernels are word-wide behind a fixed wire format. The token
//! stream and the parse (14-bit hash, one probe per position, greedy,
//! 131-byte token cap, stride-2 seeding inside a match) are those of
//! the first byte-wide implementation, which survives under
//! `#[cfg(test)]` as the oracle the encoder is pinned against: the
//! output is byte-identical for every input, so stores written by
//! either build read on the other.

use std::cell::RefCell;
use std::io;

/// Which codec a mount's transform stage runs.
///
/// `None` disables the transform stage entirely: chunks are written raw
/// at their logical offsets, byte-for-byte the paper's layout (and this
/// repository's layout before the transform pipeline existed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// No transform stage at all (raw layout, no frames, no checksums).
    #[default]
    None,
    /// Framed layout with checksums and dedup support, payloads stored
    /// verbatim — the baseline that isolates framing overhead.
    Identity,
    /// Packbits-style run-length encoding.
    Rle,
    /// Greedy LZ77 with a hash-table match finder.
    Lz,
}

impl CodecKind {
    /// Parses a codec name (`none`, `identity`, `rle`, `lz`) as used by
    /// CLI flags and the `CRFS_TEST_CODEC` environment selector.
    pub fn parse(name: &str) -> Option<CodecKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "none" | "raw" => Some(CodecKind::None),
            "identity" => Some(CodecKind::Identity),
            "rle" => Some(CodecKind::Rle),
            "lz" => Some(CodecKind::Lz),
            _ => None,
        }
    }

    /// Codec name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CodecKind::None => "none",
            CodecKind::Identity => "identity",
            CodecKind::Rle => "rle",
            CodecKind::Lz => "lz",
        }
    }
}

/// On-disk codec ids stamped into frame headers. Distinct from
/// [`CodecKind`]: a mount configured for `Lz` still stores raw frames
/// through the escape hatch, and the reader must decode whatever each
/// frame says it holds.
pub const STORED_RAW: u8 = 0;
/// Frame payload is RLE-encoded.
pub const STORED_RLE: u8 = 1;
/// Frame payload is LZ-encoded.
pub const STORED_LZ: u8 = 2;

/// A per-chunk compressor/decompressor.
///
/// `encode` appends the encoded form of `src` to `dst` and returns
/// `true`, or returns `false` without obligation on `dst`'s tail when
/// the encoding would reach `src.len()` bytes (the caller then stores
/// raw). `decode` fills `dst` — whose length is the payload's logical
/// length — with exactly the original payload or fails with
/// `InvalidData`, never writing outside `dst`.
pub trait Codec {
    /// The id stamped into frames this codec produces.
    fn id(&self) -> u8;
    /// Appends the encoding of `src` to `dst`; `false` if not smaller.
    fn encode(&self, src: &[u8], dst: &mut Vec<u8>) -> bool;
    /// Decodes `src` into the whole of `dst`.
    fn decode(&self, src: &[u8], dst: &mut [u8]) -> io::Result<()>;
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The most bytes `encode_payload(kind, ..)` can append for a payload
/// of `logical_len` bytes, the attempt it abandons for the raw
/// fallback included: a literal run costs one control byte per 128
/// bytes and a match or repeat token never outgrows what it replaces.
/// A frame buffer of this capacity is allocated once.
pub fn max_stored_len(kind: CodecKind, logical_len: usize) -> usize {
    match kind {
        CodecKind::None | CodecKind::Identity => logical_len,
        CodecKind::Rle | CodecKind::Lz => logical_len + logical_len / 128 + 16,
    }
}

/// Encodes `src` with the codec `kind` selects, falling back to raw
/// when the codec declines (escape hatch). Returns the stored codec id;
/// the encoded bytes are appended to `dst`.
pub fn encode_payload(kind: CodecKind, src: &[u8], dst: &mut Vec<u8>) -> u8 {
    let mark = dst.len();
    match kind {
        CodecKind::Rle if Rle.encode(src, dst) => return STORED_RLE,
        CodecKind::Lz if Lz.encode(src, dst) => return STORED_LZ,
        _ => {}
    }
    dst.truncate(mark); // drop any partial attempt
    dst.extend_from_slice(src);
    STORED_RAW
}

/// Refuses a logical length that `stored_len` bytes of `stored_codec`
/// cannot decode to: the densest token of each format bounds its
/// expansion (raw 1, RLE 130 bytes from a 2-byte repeat, LZ 131 bytes
/// from a 3-byte match). Every decode site calls this — directly or
/// through [`decode_to_vec`] / [`decode_payload`] — *before* it sizes a
/// buffer from a header's `logical_len`, so a forged or rotted length
/// costs an error, not a 4 GiB allocation.
pub fn check_expansion(stored_codec: u8, stored_len: usize, logical_len: usize) -> io::Result<()> {
    let (out, stored) = match stored_codec {
        STORED_RAW => (1, 1),
        STORED_RLE => (RLE_MAX_RUN as u64, 2),
        STORED_LZ => (LZ_MAX_MATCH as u64, 3),
        other => return Err(corrupt(&format!("unknown stored codec id {other}"))),
    };
    if logical_len as u64 * stored > stored_len as u64 * out {
        return Err(corrupt(
            "logical length exceeds what the stored bytes can expand to",
        ));
    }
    Ok(())
}

/// Decodes a stored payload into the whole of `dst` — the one body
/// every read path runs. `dst.len()` is the logical length: the decode
/// fails unless the stream produces exactly that many bytes, and never
/// writes outside `dst`. On failure `dst` holds unspecified bytes (a
/// caller that hands out `dst` must clear it).
pub fn decode_into(stored_codec: u8, src: &[u8], dst: &mut [u8]) -> io::Result<()> {
    match stored_codec {
        STORED_RAW => {
            if src.len() != dst.len() {
                return Err(corrupt("raw payload length mismatch"));
            }
            dst.copy_from_slice(src);
            Ok(())
        }
        STORED_RLE => Rle.decode(src, dst),
        STORED_LZ => Lz.decode(src, dst),
        other => Err(corrupt(&format!("unknown stored codec id {other}"))),
    }
}

/// Makes `dst` exactly the decoded payload: bound check, resize to
/// `logical_len` (a reused buffer of that length is not re-zeroed),
/// [`decode_into`].
pub fn decode_to_vec(
    stored_codec: u8,
    src: &[u8],
    logical_len: usize,
    dst: &mut Vec<u8>,
) -> io::Result<()> {
    check_expansion(stored_codec, src.len(), logical_len)?;
    dst.resize(logical_len, 0);
    decode_into(stored_codec, src, dst)
}

/// Decodes a stored payload back to its `logical_len` original bytes,
/// appended to `dst`. Fails with `InvalidData` on any malformed input,
/// leaving `dst` as it was.
pub fn decode_payload(
    stored_codec: u8,
    src: &[u8],
    logical_len: usize,
    dst: &mut Vec<u8>,
) -> io::Result<()> {
    check_expansion(stored_codec, src.len(), logical_len)?;
    let mark = dst.len();
    dst.resize(mark + logical_len, 0);
    let res = decode_into(stored_codec, src, &mut dst[mark..]);
    if res.is_err() {
        dst.truncate(mark);
    }
    res
}

// ---------------------------------------------------------------------
// RLE (packbits)
// ---------------------------------------------------------------------

/// Packbits-style run-length codec: a control byte `c` introduces
/// either a literal run (`c < 128`: the next `c + 1` bytes are
/// verbatim) or a repeat run (`c >= 128`: the next byte repeats
/// `c - 128 + 3` times). Runs shorter than 3 are not worth a control
/// byte and stay literal.
pub struct Rle;

const RLE_MIN_RUN: usize = 3;
const RLE_MAX_LITERAL: usize = 128;
const RLE_MAX_RUN: usize = 127 + RLE_MIN_RUN;

impl Codec for Rle {
    fn id(&self) -> u8 {
        STORED_RLE
    }

    fn encode(&self, src: &[u8], dst: &mut Vec<u8>) -> bool {
        let start = dst.len();
        let budget = src.len(); // must beat raw
        let mut i = 0;
        let mut lit_start = 0;
        let flush_literals = |dst: &mut Vec<u8>, from: usize, to: usize| {
            let mut at = from;
            while at < to {
                let n = (to - at).min(RLE_MAX_LITERAL);
                dst.push((n - 1) as u8);
                dst.extend_from_slice(&src[at..at + n]);
                at += n;
            }
        };
        while i < src.len() {
            let b = src[i];
            let mut run = 1;
            while i + run < src.len() && src[i + run] == b && run < RLE_MAX_RUN {
                run += 1;
            }
            if run >= RLE_MIN_RUN {
                flush_literals(dst, lit_start, i);
                dst.push((128 + (run - RLE_MIN_RUN)) as u8);
                dst.push(b);
                i += run;
                lit_start = i;
            } else {
                i += run;
            }
            if dst.len() - start >= budget {
                return false;
            }
        }
        flush_literals(dst, lit_start, src.len());
        dst.len() - start < budget
    }

    fn decode(&self, src: &[u8], dst: &mut [u8]) -> io::Result<()> {
        let (mut i, mut o) = (0, 0);
        while i < src.len() {
            let c = src[i] as usize;
            i += 1;
            if c < 128 {
                let n = c + 1;
                if n > src.len() - i {
                    return Err(corrupt("RLE literal run overruns input"));
                }
                if n > dst.len() - o {
                    return Err(corrupt("RLE output overruns logical length"));
                }
                dst[o..o + n].copy_from_slice(&src[i..i + n]);
                i += n;
                o += n;
            } else {
                if i >= src.len() {
                    return Err(corrupt("RLE repeat run missing byte"));
                }
                let n = c - 128 + RLE_MIN_RUN;
                if n > dst.len() - o {
                    return Err(corrupt("RLE output overruns logical length"));
                }
                dst[o..o + n].fill(src[i]);
                i += 1;
                o += n;
            }
        }
        if o != dst.len() {
            return Err(corrupt("RLE output shorter than logical length"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// LZ (greedy LZ77, hash-table match finder)
// ---------------------------------------------------------------------

/// Token format: a control byte `c`.
/// - `c < 128`: literal run of `c + 1` bytes follows verbatim.
/// - `c >= 128`: a match of `c - 128 + LZ_MIN_MATCH` bytes at a 2-byte
///   little-endian backward distance (1-based) that follows.
///
/// Matches are found with a 4-byte rolling hash over a power-of-two
/// table of candidate positions — the classic single-probe greedy
/// scheme every fast LZ uses. A table entry is one `u64`: the four
/// source bytes at the candidate in the high half, its position + 1 in
/// the low half (0 = empty). A position that does not match — most of
/// them — is therefore decided from the table line alone; the source
/// at the candidate is touched only to extend a real match, eight bytes
/// at a time. The entry describes the same candidate the position-only
/// table of the first implementation held and is written at the same
/// moments, so the parse, and with it the output, is unchanged.
pub struct Lz;

const LZ_MIN_MATCH: usize = 4;
const LZ_MAX_MATCH: usize = 127 + LZ_MIN_MATCH;
const LZ_MAX_LITERAL: usize = 128;
const LZ_MAX_DIST: usize = u16::MAX as usize;
const LZ_HASH_BITS: u32 = 14;
const LZ_TABLE_LEN: usize = 1 << LZ_HASH_BITS;

thread_local! {
    /// The match finder's table (128 KiB), owned by each thread that
    /// encodes — an IO worker, a probe — and cleared per payload
    /// instead of being allocated per payload.
    static LZ_TABLE: RefCell<Box<[u64; LZ_TABLE_LEN]>> = RefCell::new(
        vec![0u64; LZ_TABLE_LEN]
            .into_boxed_slice()
            .try_into()
            .expect("the vector was built LZ_TABLE_LEN long"),
    );
}

#[inline]
fn lz_hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - LZ_HASH_BITS)) as usize
}

/// The table entry for the four bytes `v` found at `pos`.
#[inline]
fn lz_entry(v: u32, pos: usize) -> u64 {
    u64::from(v) << 32 | (pos as u64 + 1)
}

/// Probes and records every position from `from` on until one finds a
/// usable candidate; returns `(position, candidate)`, or `None` once
/// fewer than four bytes remain. The common case — the slot holds
/// other bytes — is one compare on the entry's high half, and the rare
/// checks stay nested behind it: one `||` over all three measured half
/// the encoder's speed on the benchmark's extents.
fn lz_find(table: &mut [u64; LZ_TABLE_LEN], src: &[u8], from: usize) -> Option<(usize, usize)> {
    for (k, w) in src[from..].windows(LZ_MIN_MATCH).enumerate() {
        let i = from + k;
        let v = u32::from_le_bytes(w.try_into().expect("windows(4) yields 4 bytes"));
        let h = lz_hash(v);
        let e = table[h];
        table[h] = lz_entry(v, i);
        if (e >> 32) as u32 == v {
            // Low half: candidate position + 1, 0 for an empty slot.
            let cand1 = (e as u32) as usize;
            if cand1 != 0 && i + 1 - cand1 <= LZ_MAX_DIST {
                return Some((i, cand1 - 1));
            }
        }
    }
    None
}

/// Records every second position of `from..end` (all of which have
/// four bytes) without probing: the inside of a match just emitted, so
/// that later data can reference it.
fn lz_seed(table: &mut [u64; LZ_TABLE_LEN], src: &[u8], from: usize, end: usize) {
    if from >= end {
        return;
    }
    let inside = &src[from..end - 1 + LZ_MIN_MATCH];
    for (k, w) in inside.windows(LZ_MIN_MATCH).enumerate().step_by(2) {
        let v = u32::from_le_bytes(w.try_into().expect("windows(4) yields 4 bytes"));
        table[lz_hash(v)] = lz_entry(v, from + k);
    }
}

/// Length of the common prefix of two equally long slices, compared a
/// word at a time: the first differing byte of a word is where its xor
/// has its lowest set bit.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunks_exact(8) yields 8 bytes"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks_exact(8) yields 8 bytes"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < a.len() && n < b.len() && a[n] == b[n] {
        n += 1;
    }
    n
}

fn lz_flush_literals(src: &[u8], dst: &mut Vec<u8>) {
    for run in src.chunks(LZ_MAX_LITERAL) {
        dst.push((run.len() - 1) as u8);
        dst.extend_from_slice(run);
    }
}

impl Codec for Lz {
    fn id(&self) -> u8 {
        STORED_LZ
    }

    fn encode(&self, src: &[u8], dst: &mut Vec<u8>) -> bool {
        let start = dst.len();
        let budget = src.len();
        // A table entry holds position + 1 in 32 bits; a payload that
        // does not fit is stored raw (frames carry a `u32` length, so
        // none does).
        if src.len() < LZ_MIN_MATCH || src.len() > u32::MAX as usize {
            return false;
        }
        // The last position that still has four bytes to hash.
        let last = src.len() - LZ_MIN_MATCH;
        LZ_TABLE.with_borrow_mut(|table| {
            table.fill(0);
            let mut lit_start = 0;
            while let Some((i, cand)) = lz_find(table, src, lit_start) {
                let max = (src.len() - i).min(LZ_MAX_MATCH);
                let len = LZ_MIN_MATCH
                    + common_prefix(
                        &src[cand + LZ_MIN_MATCH..cand + max],
                        &src[i + LZ_MIN_MATCH..i + max],
                    );
                lz_flush_literals(&src[lit_start..i], dst);
                dst.push((128 + (len - LZ_MIN_MATCH)) as u8);
                dst.extend_from_slice(&((i - cand) as u16).to_le_bytes());
                // Sparse stride keeps encoding fast.
                lz_seed(table, src, i + 1, (i + len).min(last));
                lit_start = i + len;
                if dst.len() - start >= budget {
                    return false;
                }
            }
            lz_flush_literals(&src[lit_start..], dst);
            dst.len() - start < budget
        })
    }

    fn decode(&self, src: &[u8], dst: &mut [u8]) -> io::Result<()> {
        // `i` bytes of `src` consumed, `o` bytes of `dst` produced.
        let (mut i, mut o) = (0, 0);
        while i < src.len() {
            let c = src[i] as usize;
            i += 1;
            if c < 128 {
                let n = c + 1;
                if n > src.len() - i {
                    return Err(corrupt("LZ literal run overruns input"));
                }
                if n > dst.len() - o {
                    return Err(corrupt("LZ output overruns logical length"));
                }
                dst[o..o + n].copy_from_slice(&src[i..i + n]);
                i += n;
                o += n;
            } else {
                if src.len() - i < 2 {
                    return Err(corrupt("LZ match missing distance"));
                }
                let len = c - 128 + LZ_MIN_MATCH;
                let dist = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
                i += 2;
                if dist == 0 || dist > o {
                    return Err(corrupt("LZ match distance out of range"));
                }
                if len > dst.len() - o {
                    return Err(corrupt("LZ output overruns logical length"));
                }
                let from = o - dist;
                // A match may overlap its own output (`dist < len`
                // encodes a pattern of period `dist`). What has been
                // produced from `from` on is then periodic, so each
                // block copy may take all of it and doubles the run;
                // `done` stays a multiple of `dist` until the last.
                let mut done = 0;
                while done < len {
                    let n = (dist + done).min(len - done);
                    dst.copy_within(from..from + n, o + done);
                    done += n;
                }
                o += len;
            }
        }
        if o != dst.len() {
            return Err(corrupt("LZ output shorter than logical length"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: CodecKind, data: &[u8]) -> (u8, usize) {
        let mut enc = Vec::new();
        let id = encode_payload(kind, data, &mut enc);
        let mut dec = Vec::new();
        decode_payload(id, &enc, data.len(), &mut dec).expect("decode");
        assert_eq!(dec, data, "{kind:?} round trip");
        (id, enc.len())
    }

    /// Deterministic mixed payload: runs, repeated structure, and a
    /// pseudo-random incompressible region.
    fn mixed_payload(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed | 1;
        while out.len() < len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (x >> 60) % 3 {
                0 => out.resize(out.len() + 64, (x >> 8) as u8), // run
                1 => {
                    // repeated 16-byte tile
                    let tile: Vec<u8> = (0..16).map(|i| ((x >> (i % 48)) & 0xFF) as u8).collect();
                    for _ in 0..8 {
                        out.extend_from_slice(&tile);
                    }
                }
                _ => {
                    for _ in 0..32 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(99991);
                        out.push((x >> 33) as u8);
                    }
                }
            }
        }
        out.truncate(len);
        out
    }

    #[test]
    fn codec_kind_parses() {
        assert_eq!(CodecKind::parse("lz"), Some(CodecKind::Lz));
        assert_eq!(CodecKind::parse(" RLE "), Some(CodecKind::Rle));
        assert_eq!(CodecKind::parse("identity"), Some(CodecKind::Identity));
        assert_eq!(CodecKind::parse("none"), Some(CodecKind::None));
        assert_eq!(CodecKind::parse("zstd"), None);
    }

    #[test]
    fn identity_stores_raw() {
        let data = b"hello world, stored verbatim";
        let (id, n) = roundtrip(CodecKind::Identity, data);
        assert_eq!(id, STORED_RAW);
        assert_eq!(n, data.len());
    }

    #[test]
    fn rle_compresses_runs_and_roundtrips() {
        let mut data = vec![0u8; 4096];
        data[100..200].copy_from_slice(&[7; 100]);
        let (id, n) = roundtrip(CodecKind::Rle, &data);
        assert_eq!(id, STORED_RLE);
        assert!(n < data.len() / 10, "runs must compress hard: {n}");
    }

    #[test]
    fn lz_compresses_structure_and_roundtrips() {
        let data = mixed_payload(64 << 10, 42);
        let (id, n) = roundtrip(CodecKind::Lz, &data);
        assert_eq!(id, STORED_LZ);
        assert!(
            (n as f64) < data.len() as f64 / 1.5,
            "mixed payload should compress ≥1.5x under LZ: {} -> {}",
            data.len(),
            n
        );
    }

    #[test]
    fn incompressible_data_escapes_to_raw() {
        // High-entropy bytes: both codecs must decline and store raw.
        let mut data = vec![0u8; 4096];
        let mut x = 0x12345u64;
        for b in data.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 33) as u8;
        }
        for kind in [CodecKind::Rle, CodecKind::Lz] {
            let (id, n) = roundtrip(kind, &data);
            assert_eq!(id, STORED_RAW, "{kind:?} must escape");
            assert_eq!(n, data.len());
        }
    }

    #[test]
    fn empty_and_tiny_payloads_roundtrip() {
        for kind in [CodecKind::Identity, CodecKind::Rle, CodecKind::Lz] {
            roundtrip(kind, b"");
            roundtrip(kind, b"a");
            roundtrip(kind, b"ab");
            roundtrip(kind, b"aaaa");
        }
    }

    #[test]
    fn random_payloads_roundtrip_exhaustively() {
        for seed in 0..20u64 {
            let data = mixed_payload(1 + (seed as usize * 611) % 8192, seed);
            for kind in [CodecKind::Rle, CodecKind::Lz] {
                roundtrip(kind, &data);
            }
        }
    }

    #[test]
    fn decoders_reject_corruption_without_panicking() {
        let data = mixed_payload(4096, 7);
        for kind in [CodecKind::Rle, CodecKind::Lz] {
            let mut enc = Vec::new();
            let id = encode_payload(kind, &data, &mut enc);
            // Flip every byte position once; decode must error or
            // produce output that differs — never panic or overrun.
            for i in 0..enc.len().min(512) {
                let mut bad = enc.clone();
                bad[i] ^= 0xFF;
                let mut dst = Vec::new();
                let _ = decode_payload(id, &bad, data.len(), &mut dst);
            }
            // Truncations likewise.
            for cut in [0, 1, enc.len() / 2, enc.len().saturating_sub(1)] {
                let mut dst = Vec::new();
                assert!(
                    decode_payload(id, &enc[..cut], data.len(), &mut dst).is_err()
                        || dst == data[..],
                    "{kind:?}: truncated input accepted with wrong output"
                );
            }
        }
        // Unknown codec id.
        let mut dst = Vec::new();
        assert!(decode_payload(9, b"xx", 2, &mut dst).is_err());
    }

    #[test]
    fn lz_handles_self_overlapping_matches() {
        // "abcabcabc..." forces dist < len copies.
        let data: Vec<u8> = b"abc".iter().cycle().take(3000).cloned().collect();
        let (id, n) = roundtrip(CodecKind::Lz, &data);
        assert_eq!(id, STORED_LZ);
        assert!(n < 100, "periodic data collapses: {n}");
    }

    // -----------------------------------------------------------------
    // Oracles: the first, byte-wide LZ kernels, verbatim. The encoder
    // is the definition of "the parent's bytes"; the decoder is the
    // reference every overlap and corruption case is judged by.
    // -----------------------------------------------------------------

    fn oracle_hash(bytes: &[u8]) -> usize {
        let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - LZ_HASH_BITS)) as usize
    }

    fn oracle_encode(src: &[u8], dst: &mut Vec<u8>) -> bool {
        let start = dst.len();
        let budget = src.len();
        if src.len() < LZ_MIN_MATCH {
            return false;
        }
        let mut table = vec![usize::MAX; 1 << LZ_HASH_BITS];
        let flush_literals = |dst: &mut Vec<u8>, from: usize, to: usize| {
            let mut at = from;
            while at < to {
                let n = (to - at).min(LZ_MAX_LITERAL);
                dst.push((n - 1) as u8);
                dst.extend_from_slice(&src[at..at + n]);
                at += n;
            }
        };
        let mut i = 0;
        let mut lit_start = 0;
        while i + LZ_MIN_MATCH <= src.len() {
            let h = oracle_hash(&src[i..]);
            let cand = table[h];
            table[h] = i;
            let matched = cand != usize::MAX
                && i - cand <= LZ_MAX_DIST
                && src[cand..cand + LZ_MIN_MATCH] == src[i..i + LZ_MIN_MATCH];
            if matched {
                let mut len = LZ_MIN_MATCH;
                let max = (src.len() - i).min(LZ_MAX_MATCH);
                while len < max && src[cand + len] == src[i + len] {
                    len += 1;
                }
                flush_literals(dst, lit_start, i);
                dst.push((128 + (len - LZ_MIN_MATCH)) as u8);
                dst.extend_from_slice(&((i - cand) as u16).to_le_bytes());
                let mut j = i + 1;
                let seed_end = (i + len).min(src.len() - LZ_MIN_MATCH);
                while j < seed_end {
                    table[oracle_hash(&src[j..])] = j;
                    j += 2;
                }
                i += len;
                lit_start = i;
            } else {
                i += 1;
            }
            if dst.len() - start >= budget {
                return false;
            }
        }
        flush_literals(dst, lit_start, src.len());
        dst.len() - start < budget
    }

    fn oracle_decode(src: &[u8], logical_len: usize, dst: &mut Vec<u8>) -> io::Result<()> {
        let start = dst.len();
        let mut i = 0;
        while i < src.len() {
            let c = src[i] as usize;
            i += 1;
            if c < 128 {
                let n = c + 1;
                if i + n > src.len() {
                    return Err(corrupt("LZ literal run overruns input"));
                }
                dst.extend_from_slice(&src[i..i + n]);
                i += n;
            } else {
                if i + 2 > src.len() {
                    return Err(corrupt("LZ match missing distance"));
                }
                let len = c - 128 + LZ_MIN_MATCH;
                let dist = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
                i += 2;
                let produced = dst.len() - start;
                if dist == 0 || dist > produced {
                    return Err(corrupt("LZ match distance out of range"));
                }
                let from = dst.len() - dist;
                for k in 0..len {
                    let b = dst[from + k];
                    dst.push(b);
                }
            }
            if dst.len() - start > logical_len {
                return Err(corrupt("LZ output overruns logical length"));
            }
        }
        if dst.len() - start != logical_len {
            return Err(corrupt("LZ output shorter than logical length"));
        }
        Ok(())
    }

    /// splitmix64 stream for test data.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut next = rng(seed);
        (0..len).map(|_| (next() >> 32) as u8).collect()
    }

    /// The repository benchmark's extent shape: per 256 bytes, a 32-byte
    /// tile six times over, then 64 pseudo-random bytes.
    fn tile_pattern(len: usize, seed: u64) -> Vec<u8> {
        let tile = random_bytes(32, seed);
        let noise = random_bytes(len, seed ^ 0xabcd);
        (0..len)
            .map(|i| {
                if i % 256 < 192 {
                    tile[i % 32]
                } else {
                    noise[i]
                }
            })
            .collect()
    }

    /// New encoder against the oracle: the same verdict, and when the
    /// verdict is "stored LZ", the same bytes. Returns them.
    fn assert_same_as_oracle(data: &[u8], what: &str) -> Option<Vec<u8>> {
        let (mut new, mut old) = (vec![0xEE; 3], vec![0xEE; 3]);
        let took = Lz.encode(data, &mut new);
        assert_eq!(took, oracle_encode(data, &mut old), "{what}: verdict");
        if !took {
            return None;
        }
        assert!(new == old, "{what}: encoder output differs from the oracle");
        // Each side's stream decodes on the other: the oracle's bytes
        // under the new decoder, the new bytes under the old one.
        let mut dec = vec![0u8; data.len()];
        Lz.decode(&old[3..], &mut dec)
            .expect("new decoder, oracle stream");
        assert!(dec == data, "{what}: new decoder, oracle stream");
        dec.clear();
        oracle_decode(&new[3..], data.len(), &mut dec).expect("old decoder, new stream");
        assert!(dec == data, "{what}: old decoder, new stream");
        Some(new.split_off(3))
    }

    #[test]
    fn lz_encoder_output_is_the_oracles_on_the_whole_battery() {
        for seed in 0..4 {
            let data = tile_pattern(1 << 20, seed);
            let enc = assert_same_as_oracle(&data, "benchmark tiles").expect("compressible");
            assert!(enc.len() * 3 < data.len(), "about 3.6x: {}", enc.len());
        }
        // The tail is where a word-wide kernel breaks: every length.
        for len in 0..=300 {
            assert_same_as_oracle(&mixed_payload(len, len as u64), "mixed, short");
            assert_same_as_oracle(&tile_pattern(len, len as u64), "tiles, short");
            assert_same_as_oracle(&vec![0u8; len], "zeros, short");
        }
        for seed in 0..20 {
            assert_same_as_oracle(&mixed_payload(1 << 20, seed), "mixed, 1 MiB");
        }
        assert_same_as_oracle(&vec![0u8; 1 << 20], "zeros").expect("compressible");
        assert_eq!(
            assert_same_as_oracle(&random_bytes(1 << 20, 3), "incompressible"),
            None
        );
        for period in 1..=40 {
            let data: Vec<u8> = random_bytes(period, period as u64)
                .iter()
                .cycle()
                .take(3000 + period)
                .cloned()
                .collect();
            assert_same_as_oracle(&data, "periodic").expect("compressible");
        }
    }

    #[test]
    fn lz_match_window_ends_at_65535_exactly() {
        // A 16-byte marker, a run of zeros (which never touches the
        // marker's table slots), and the marker again `dist` later.
        let marker: Vec<u8> = random_bytes(16, 9).iter().map(|b| b | 1).collect();
        let encoded_len = |dist: usize| {
            let mut data = vec![0u8; dist + 16];
            data[..16].copy_from_slice(&marker);
            data[dist..].copy_from_slice(&marker);
            let enc = assert_same_as_oracle(&data, "window edge").expect("compressible");
            let mut dec = vec![0u8; data.len()];
            decode_into(STORED_LZ, &enc, &mut dec).expect("decodes");
            assert_eq!(dec, data);
            enc.len()
        };
        let (near, far) = (encoded_len(LZ_MAX_DIST), encoded_len(LZ_MAX_DIST + 1));
        assert!(
            near + 10 < far,
            "a match at 65,535 and literals at 65,536: {near} vs {far}"
        );
    }

    #[test]
    fn lz_encoder_output_known_answers() {
        // The stored format may not drift silently: FNV-1a-64 of the
        // encoder's output on three fixed inputs.
        use crate::transform::frame::fnv1a64;
        let answer = |data: &[u8]| {
            let mut enc = Vec::new();
            assert!(Lz.encode(data, &mut enc));
            (enc.len(), fnv1a64(&enc))
        };
        assert_eq!(
            answer(&tile_pattern(1 << 20, 1)),
            (289_326, 0x67b1_eff0_3913_6666),
            "benchmark tiles"
        );
        assert_eq!(
            answer(&mixed_payload(64 << 10, 42)),
            (15_300, 0x91b3_d3f8_8768_d86c),
            "mixed payload"
        );
        let abc: Vec<u8> = b"abc".iter().cycle().take(3000).cloned().collect();
        assert_eq!(answer(&abc), (73, 0x9005_3e83_4529_1e99), "period 3");
    }

    /// Decodes `src` as LZ into a destination of `logical_len` bytes
    /// fenced by guard bytes, and checks the decoder against the
    /// byte-wise reference: both fail, or both produce the same bytes.
    /// Either way nothing outside the destination changed.
    fn lz_decode_checked(src: &[u8], logical_len: usize) -> Option<Vec<u8>> {
        const GUARD: usize = 64;
        let mut fenced = vec![0xA5u8; GUARD + logical_len + GUARD];
        let got = Lz.decode(src, &mut fenced[GUARD..GUARD + logical_len]);
        assert!(
            fenced[..GUARD].iter().all(|&b| b == 0xA5)
                && fenced[GUARD + logical_len..].iter().all(|&b| b == 0xA5),
            "decoder wrote outside its destination"
        );
        let mut reference = Vec::new();
        let want = oracle_decode(src, logical_len, &mut reference);
        assert_eq!(
            got.is_ok(),
            want.is_ok(),
            "verdict differs from the reference"
        );
        got.ok().map(|()| {
            let out = &fenced[GUARD..GUARD + logical_len];
            assert!(out == &reference[..], "bytes differ from the reference");
            out.to_vec()
        })
    }

    #[test]
    fn lz_decoder_overlap_cases_match_the_bytewise_reference() {
        let history = random_bytes(140, 5);
        for dist in 1..=140usize {
            for len in LZ_MIN_MATCH..=LZ_MAX_MATCH {
                let mut src = vec![127];
                src.extend_from_slice(&history[..128]);
                src.push(11);
                src.extend_from_slice(&history[128..]);
                src.push((128 + len - LZ_MIN_MATCH) as u8);
                src.extend_from_slice(&(dist as u16).to_le_bytes());
                let out = lz_decode_checked(&src, 140 + len).expect("a valid stream");
                assert_eq!(out[140..], out[140 - dist..140 - dist + len]);
                // One byte short or long of the truth is an error.
                assert!(lz_decode_checked(&src, 140 + len - 1).is_none());
                assert!(lz_decode_checked(&src, 140 + len + 1).is_none());
            }
        }
    }

    #[test]
    fn lz_decoder_agrees_with_the_reference_on_random_token_streams() {
        let mut next = rng(0x70ce);
        let mut valid = 0;
        for _ in 0..10_000 {
            // Tokens that are mostly well-formed, so that streams get
            // deep before (if ever) they go wrong.
            let mut src = Vec::new();
            let mut produced = 0usize;
            for _ in 0..(next() % 24) {
                if produced == 0 || next().is_multiple_of(3) {
                    let n = 1 + (next() % 128) as usize;
                    src.push((n - 1) as u8);
                    src.extend((0..n).map(|_| (next() >> 40) as u8));
                    produced += n;
                } else {
                    let len = LZ_MIN_MATCH + (next() % 128) as usize;
                    let dist = match next() % 16 {
                        0 => next() % 70_000, // possibly 0, possibly too far
                        1 => 1,
                        _ => 1 + next() % produced as u64,
                    };
                    src.push((128 + len - LZ_MIN_MATCH) as u8);
                    src.extend_from_slice(&(dist as u16).to_le_bytes());
                    produced += len;
                }
            }
            if next().is_multiple_of(8) && !src.is_empty() {
                src.truncate((next() % src.len() as u64) as usize);
            }
            let logical_len = match next() % 4 {
                0 => produced.saturating_sub(1),
                1 => produced + 1,
                _ => produced,
            };
            valid += usize::from(lz_decode_checked(&src, logical_len).is_some());
        }
        assert!(
            valid > 2_000,
            "the generator must reach valid streams: {valid}"
        );
    }

    #[test]
    fn lz_decoder_survives_every_mutation_and_truncation_of_a_stream() {
        let data = mixed_payload(4096, 7);
        let mut enc = Vec::new();
        assert!(Lz.encode(&data, &mut enc));
        assert_eq!(lz_decode_checked(&enc, data.len()), Some(data.clone()));
        for at in 0..enc.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut bad = enc.clone();
                bad[at] ^= flip;
                lz_decode_checked(&bad, data.len());
            }
            assert!(lz_decode_checked(&enc[..at], data.len()).is_none());
        }
    }

    #[test]
    fn rle_decoder_stays_inside_its_destination() {
        let data = mixed_payload(4096, 7);
        let mut enc = Vec::new();
        assert!(Rle.encode(&data, &mut enc));
        for at in 0..enc.len() {
            for (cut, flip) in [(enc.len(), 0xFF), (enc.len(), 0x01), (at, 0)] {
                let mut bad = enc[..cut].to_vec();
                if let Some(b) = bad.get_mut(at) {
                    *b ^= flip;
                }
                for len in [data.len() - 1, data.len(), data.len() + 1] {
                    let mut fenced = vec![0xA5u8; len + 128];
                    let res = Rle.decode(&bad, &mut fenced[64..64 + len]);
                    assert!(fenced[..64].iter().all(|&b| b == 0xA5));
                    assert!(fenced[64 + len..].iter().all(|&b| b == 0xA5));
                    if bad == enc {
                        assert_eq!(res.is_ok(), len == data.len());
                    }
                }
            }
        }
    }

    #[test]
    fn a_logical_length_the_stored_bytes_cannot_fill_is_refused_unsized() {
        // Each codec's densest token, exactly at and one past its bound.
        for (codec, stored, most) in [
            (STORED_RAW, 10, 10),
            (STORED_RLE, 2, 130),
            (STORED_RLE, 3, 195),
            (STORED_LZ, 3, 131),
            (STORED_LZ, 4, 174),
            (STORED_LZ, 0, 0),
        ] {
            assert!(
                check_expansion(codec, stored, most).is_ok(),
                "{codec} {stored}"
            );
            assert!(
                check_expansion(codec, stored, most + 1).is_err(),
                "{codec} {stored}"
            );
        }
        assert!(check_expansion(9, 100, 1).is_err(), "unknown codec");
        // The bound holds for what the encoders really produce.
        let zeros = vec![0u8; 1 << 20];
        for kind in [CodecKind::Rle, CodecKind::Lz] {
            let mut enc = Vec::new();
            let id = encode_payload(kind, &zeros, &mut enc);
            assert!(
                check_expansion(id, enc.len(), zeros.len()).is_ok(),
                "{kind:?}"
            );
        }
        // A forged length fails before the destination exists.
        let mut dst = Vec::new();
        assert!(decode_payload(STORED_LZ, &[0, 7], u32::MAX as usize, &mut dst).is_err());
        assert!(decode_to_vec(STORED_RLE, &[200, 7], u32::MAX as usize, &mut dst).is_err());
        assert_eq!(dst.capacity(), 0);
    }

    #[test]
    fn a_frame_buffer_sized_once_never_regrows() {
        let worst_lz = {
            // Literal runs cut short by four-byte matches: the most
            // control bytes an LZ attempt emits before it gives up.
            let mut d = random_bytes(64 << 10, 11);
            for at in (200..d.len() - 4).step_by(200) {
                let (head, tail) = d.split_at_mut(at);
                tail[..4].copy_from_slice(&head[at - 100..at - 96]);
            }
            d
        };
        for data in [
            worst_lz,
            random_bytes(64 << 10, 12),
            mixed_payload(64 << 10, 13),
            vec![0u8; 1000],
            b"abc".to_vec(),
            Vec::new(),
        ] {
            for kind in [CodecKind::Identity, CodecKind::Rle, CodecKind::Lz] {
                let mut frame = Vec::with_capacity(40 + max_stored_len(kind, data.len()));
                frame.resize(40, 0);
                let (ptr, cap) = (frame.as_ptr(), frame.capacity());
                encode_payload(kind, &data, &mut frame);
                assert_eq!((frame.as_ptr(), frame.capacity()), (ptr, cap), "{kind:?}");
            }
        }
    }
}
