//! The on-disk epoch manifest: one self-validating binary record of a
//! whole snapshot.
//!
//! A manifest flattens every file's frame history at seal time into an
//! ordered list of records — chunk references into the content-addressed
//! store plus truncation markers — in *authority order* (oldest first,
//! newest wins), exactly the order a frame log would replay them. That
//! makes restart trivial: synthesizing one REF frame per chunk record in
//! manifest order reproduces a frame log whose open scan rebuilds the
//! file byte-exactly (see [`synthesize_log`](super::synthesize_log)).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "CRSM" | version u16 | reserved u16 | epoch u64 | file_count u32
//!   per file: path_len u16 | path | record_count u32
//!     per record: tag u8
//!       0 (chunk): logical_offset u64 | logical_len u32 | check u64 |
//!                  hash u128 | stored_len u32 | codec u8 | format u8
//!       1 (trunc): new_len u64
//! crc32 of everything above, u32
//! ```
//!
//! A chunk record is 43 bytes, tag included, and names no path: its
//! chunk is the content-store file of its key `(hash, logical_len)`
//! ([`cas_path`](super::cas_path)). `format` is the frame format
//! ([`FRAME_FORMAT`](crate::transform::frame::FRAME_FORMAT)) that
//! `check` and `hash` were computed under.
//!
//! This build reads [`MANIFEST_VERSION`] only. A manifest whose CRC
//! holds but whose version differs was sealed by another build: it
//! decodes as [`io::ErrorKind::Unsupported`], not as a torn seal, so
//! nothing takes it for crash debris.
//!
//! The trailing CRC makes torn manifests (a crash mid-seal) detectable:
//! mount-time recovery and `crfs-fsck` alike skip a manifest that fails
//! to decode, falling back to the previous epoch — a snapshot either
//! sealed completely or does not exist.

use std::io;

use crate::transform::frame::crc32;

/// Magic word opening every manifest ("CRSM" — CRfs Snapshot Manifest).
pub const MANIFEST_MAGIC: [u8; 4] = *b"CRSM";
/// The manifest version this build writes and reads.
pub const MANIFEST_VERSION: u16 = 3;

/// One chunk of a snapshotted file: where its logical bytes sit, and
/// how they are stored in the content-store chunk of its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// 128-bit content key of the logical payload (the CAS key): the
    /// key half of [`payload_digest`](crate::transform::frame::payload_digest).
    pub hash: u128,
    /// Byte offset of the chunk within the logical file.
    pub logical_offset: u64,
    /// Decoded payload length in bytes.
    pub logical_len: u32,
    /// Frame format `check` was computed under (see the module docs).
    pub format: u8,
    /// Check half of the payload digest, verified on every read.
    pub check: u64,
    /// Stored (encoded) payload length in bytes.
    pub stored_len: u32,
    /// Codec id the stored payload was encoded with.
    pub codec: u8,
}

impl ChunkRecord {
    /// The content-store key this chunk is refcounted under.
    pub fn key(&self) -> (u128, u32) {
        (self.hash, self.logical_len)
    }
}

/// One entry of a file's flattened frame history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A chunk reference (see [`ChunkRecord`]).
    Chunk(ChunkRecord),
    /// A persistent truncation to `new_len` logical bytes — replayed
    /// exactly like a `FLAG_TRUNC` marker frame.
    Trunc {
        /// The logical length the file was truncated (or extended) to.
        new_len: u64,
    },
}

/// One sealed epoch: every live file's flattened record list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// The epoch this manifest seals.
    pub epoch: u64,
    /// `(path, records)` per file, sorted by path for determinism.
    pub files: Vec<(String, Vec<Record>)>,
}

impl Manifest {
    /// Serializes the manifest, CRC trailer included.
    pub fn encode(&self) -> Vec<u8> {
        let files = self.files.iter().map(|(p, r)| (p.as_str(), r.as_slice()));
        encode(self.epoch, files)
    }

    /// Parses and validates a serialized manifest. An `InvalidData`
    /// error means the bytes are not an intact manifest — a torn seal
    /// or corruption; callers treat the epoch as nonexistent. An
    /// intact manifest of another version is `Unsupported`: it was
    /// sealed by another build, and its error names the version.
    pub fn decode(buf: &[u8]) -> io::Result<Manifest> {
        if buf.len() < 4 + 2 + 2 + 8 + 4 + 4 {
            return Err(corrupt("manifest too short"));
        }
        let (body, trailer) = buf.split_at(buf.len() - 4);
        let crc = u32::from_le_bytes(trailer.try_into().unwrap());
        if crc32(body) != crc {
            return Err(corrupt("manifest CRC mismatch"));
        }
        let mut r = Reader { buf: body, pos: 0 };
        if r.bytes(4)? != MANIFEST_MAGIC {
            return Err(corrupt("bad manifest magic"));
        }
        let version = r.u16()?;
        if version != MANIFEST_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("manifest version {version}; this build reads version {MANIFEST_VERSION}"),
            ));
        }
        r.u16()?; // reserved
        let epoch = r.u64()?;
        let file_count = r.u32()? as usize;
        let mut files = Vec::with_capacity(file_count.min(1024));
        for _ in 0..file_count {
            let path_len = r.u16()? as usize;
            let path = String::from_utf8(r.bytes(path_len)?.to_vec())
                .map_err(|_| corrupt("manifest path is not UTF-8"))?;
            let record_count = r.u32()? as usize;
            let mut records = Vec::with_capacity(record_count.min(4096));
            for _ in 0..record_count {
                match r.u8()? {
                    0 => records.push(Record::Chunk(ChunkRecord {
                        logical_offset: r.u64()?,
                        logical_len: r.u32()?,
                        check: r.u64()?,
                        hash: r.u128()?,
                        stored_len: r.u32()?,
                        codec: r.u8()?,
                        format: r.u8()?,
                    })),
                    1 => records.push(Record::Trunc { new_len: r.u64()? }),
                    _ => return Err(corrupt("unknown manifest record tag")),
                }
            }
            files.push((path, records));
        }
        if r.pos != body.len() {
            return Err(corrupt("trailing bytes after manifest records"));
        }
        Ok(Manifest { epoch, files })
    }
}

/// Serializes the manifest sealing `epoch` over `files` (path, records)
/// in the order given, CRC trailer included — [`Manifest::encode`]
/// without owning the records.
pub fn encode<'a>(
    epoch: u64,
    files: impl ExactSizeIterator<Item = (&'a str, &'a [Record])>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + files.len() * 64);
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(files.len() as u32).to_le_bytes());
    for (path, records) in files {
        out.extend_from_slice(&(path.len() as u16).to_le_bytes());
        out.extend_from_slice(path.as_bytes());
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            match r {
                Record::Chunk(c) => {
                    out.push(0);
                    out.extend_from_slice(&c.logical_offset.to_le_bytes());
                    out.extend_from_slice(&c.logical_len.to_le_bytes());
                    out.extend_from_slice(&c.check.to_le_bytes());
                    out.extend_from_slice(&c.hash.to_le_bytes());
                    out.extend_from_slice(&c.stored_len.to_le_bytes());
                    out.push(c.codec);
                    out.push(c.format);
                }
                Record::Trunc { new_len } => {
                    out.push(1);
                    out.extend_from_slice(&new_len.to_le_bytes());
                }
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Drops records wholly hidden by newer ones, bounding manifest growth
/// for the rewrite-every-epoch checkpoint pattern. Walks newest→oldest
/// keeping a record only if part of its logical range is still visible
/// — the same newest-wins rule the frame map applies at read time, so
/// dropping a fully-covered record can never change what a restart
/// reads. Truncation markers are always kept (they are a few bytes and
/// may both cut older chunks and extend the file with a hole).
pub fn compact(records: Vec<Record>) -> Vec<Record> {
    let mut kept: Vec<Record> = Vec::with_capacity(records.len());
    let mut covered = Coverage::default();
    let mut cut = u64::MAX;
    for r in records.into_iter().rev() {
        match &r {
            Record::Trunc { new_len } => {
                cut = cut.min(*new_len);
                kept.push(r);
            }
            Record::Chunk(c) => {
                let lo = c.logical_offset;
                let hi = (c.logical_offset + u64::from(c.logical_len)).min(cut);
                if lo < hi && !covered.contains(lo, hi) {
                    covered.add(lo, hi);
                    kept.push(r);
                }
            }
        }
    }
    kept.reverse();
    kept
}

/// A sorted, disjoint interval set over logical byte ranges.
#[derive(Default)]
struct Coverage {
    /// Disjoint `[lo, hi)` intervals, sorted ascending.
    spans: Vec<(u64, u64)>,
}

impl Coverage {
    /// Whether `[lo, hi)` is fully inside one covered span.
    fn contains(&self, lo: u64, hi: u64) -> bool {
        let at = self.spans.partition_point(|&(_, e)| e < hi);
        matches!(self.spans.get(at), Some(&(s, e)) if s <= lo && hi <= e)
    }

    /// Adds `[lo, hi)`, merging overlapping/adjacent spans.
    fn add(&mut self, lo: u64, hi: u64) {
        let start = self.spans.partition_point(|&(_, e)| e < lo);
        let mut end = start;
        let (mut lo, mut hi) = (lo, hi);
        while let Some(&(s, e)) = self.spans.get(end) {
            if s > hi {
                break;
            }
            lo = lo.min(s);
            hi = hi.max(e);
            end += 1;
        }
        self.spans.splice(start..end, [(lo, hi)]);
    }
}

/// Bounds-checked little-endian cursor over a manifest body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("manifest record overruns the buffer"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> io::Result<u128> {
        Ok(u128::from_le_bytes(self.bytes(16)?.try_into().unwrap()))
    }
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(off: u64, len: u32, seed: u8) -> Record {
        Record::Chunk(ChunkRecord {
            hash: (seed as u128) << 64 | off as u128,
            logical_offset: off,
            logical_len: len,
            format: crate::transform::frame::FRAME_FORMAT,
            check: seed as u64,
            stored_len: len / 2,
            codec: 2,
        })
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            epoch: 42,
            files: vec![
                (
                    "/ckpt/rank0.img".to_string(),
                    vec![chunk(0, 4096, 1), Record::Trunc { new_len: 3000 }],
                ),
                ("/ckpt/rank1.img".to_string(), vec![chunk(4096, 512, 2)]),
            ],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let m = Manifest {
            epoch: 7,
            files: vec![("/f".to_string(), vec![chunk(0, 100, 3)])],
        };
        let bytes = m.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {i}");
        }
        for cut in [0, 4, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn compact_drops_fully_hidden_records() {
        // Epoch 1 wrote [0,4096) and [4096,8192); epoch 2 rewrote both.
        let records = vec![
            chunk(0, 4096, 1),
            chunk(4096, 4096, 2),
            chunk(0, 4096, 3),
            chunk(4096, 4096, 4),
        ];
        let kept = compact(records);
        assert_eq!(kept, vec![chunk(0, 4096, 3), chunk(4096, 4096, 4)]);
    }

    #[test]
    fn compact_keeps_partially_visible_records_in_order() {
        // The newer chunk covers only the middle of the older one: both
        // survive, still oldest-first so newest-wins replay is intact.
        let records = vec![chunk(0, 4096, 1), chunk(1024, 1024, 2)];
        assert_eq!(compact(records.clone()), records);
    }

    #[test]
    fn compact_respects_truncation_cut() {
        // A truncation to 100 hides the second chunk entirely; a chunk
        // written after the cut survives.
        let records = vec![
            chunk(0, 4096, 1),
            chunk(4096, 4096, 2),
            Record::Trunc { new_len: 100 },
            chunk(100, 50, 3),
        ];
        let kept = compact(records);
        assert_eq!(
            kept,
            vec![
                chunk(0, 4096, 1),
                Record::Trunc { new_len: 100 },
                chunk(100, 50, 3),
            ]
        );
    }
}
