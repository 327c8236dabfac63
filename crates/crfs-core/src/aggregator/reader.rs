//! Reading finalized aggregation containers: restart-time access and
//! materialization back to per-file layout.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use super::format::{
    crc32, Header, RecordHeader, Trailer, HEADER_LEN, RECORD_HEADER_LEN, TRAILER_LEN,
};
use super::index::{ContainerIndex, ReadPiece};
use crate::backend::{normalize_path, parent_of, read_exact_at, Backend, BackendFile, OpenOptions};

/// Read-only view of a finalized container.
///
/// Opens the container on any [`Backend`], validates the trailer and the
/// index CRC, and serves logical-file reads by remapping them through the
/// extent index. For a restart that should not depend on the aggregator at
/// all, [`materialize`](ContainerReader::materialize) rebuilds the
/// original files onto a target backend.
pub struct ContainerReader {
    file: Box<dyn BackendFile>,
    index: ContainerIndex,
    trailer: Trailer,
}

impl ContainerReader {
    /// Opens and validates the container at `path` on `backend`.
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if the container was
    /// never finalized, its index CRC does not match, or any structural
    /// invariant is violated.
    pub fn open(backend: &Arc<dyn Backend>, path: &str) -> io::Result<ContainerReader> {
        let path = normalize_path(path)?;
        let file = backend.open(&path, OpenOptions::read_only())?;
        let total = file.len()?;
        if total < HEADER_LEN + TRAILER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "container too short",
            ));
        }
        let mut hdr = [0u8; HEADER_LEN as usize];
        read_exact_at(&*file, 0, &mut hdr)?;
        Header::decode(&hdr)?;

        let mut tlr = [0u8; TRAILER_LEN as usize];
        read_exact_at(&*file, total - TRAILER_LEN, &mut tlr)?;
        let trailer = Trailer::decode(&tlr)?;
        if trailer.index_offset + trailer.index_len + TRAILER_LEN != total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailer does not describe this container",
            ));
        }

        let mut block = vec![0u8; trailer.index_len as usize];
        read_exact_at(&*file, trailer.index_offset, &mut block)?;
        if crc32(&block) != trailer.index_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "index CRC mismatch — container corrupt",
            ));
        }
        let index = ContainerIndex::decode(&block)?;
        if index.file_count() != trailer.file_count as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "index file count disagrees with trailer",
            ));
        }
        Ok(ContainerReader {
            file,
            index,
            trailer,
        })
    }

    /// Logical file paths stored in the container, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.index.paths()
    }

    /// Number of logical files.
    pub fn file_count(&self) -> usize {
        self.index.file_count()
    }

    /// Length of a logical file, if present.
    pub fn file_len(&self, path: &str) -> Option<u64> {
        let p = normalize_path(path).ok()?;
        self.index.get(&p).map(|fi| fi.len)
    }

    /// Reads up to `buf.len()` bytes of the logical file at `offset`.
    /// Returns the bytes produced (0 at end-of-file).
    pub fn read_at(&self, path: &str, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let p = normalize_path(path)?;
        let fi = self
            .index
            .get(&p)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, p.clone()))?;
        let (pieces, total) = fi.plan_read(offset, buf.len());
        for piece in pieces {
            match piece {
                ReadPiece::Data {
                    dst,
                    container_offset,
                    len,
                } => read_exact_at(&*self.file, container_offset, &mut buf[dst..dst + len])?,
                ReadPiece::Hole { dst, len } => buf[dst..dst + len].fill(0),
            }
        }
        Ok(total)
    }

    /// Reads an entire logical file.
    pub fn read_file(&self, path: &str) -> io::Result<Vec<u8>> {
        let len = self
            .file_len(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        let mut buf = vec![0u8; len as usize];
        let got = self.read_at(path, 0, &mut buf)?;
        debug_assert_eq!(got as u64, len);
        Ok(buf)
    }

    /// Rebuilds every logical file, at its original path, onto `target` —
    /// the restart path that needs neither CRFS nor the aggregator
    /// mounted afterwards. Parent directories are created as needed.
    /// Extents are replayed in append order (so overwrite semantics are
    /// preserved) through a bounded staging buffer.
    ///
    /// Returns the number of files and payload bytes written.
    pub fn materialize(&self, target: &Arc<dyn Backend>) -> io::Result<(usize, u64)> {
        let mut staging = vec![0u8; 1 << 20];
        let mut bytes = 0u64;
        let paths = self.index.paths();
        for path in &paths {
            let fi = self.index.get(path).expect("path from index");
            mkdir_parents(target, path)?;
            let out = target.open(path, OpenOptions::create_truncate())?;
            for e in &fi.extents {
                let mut done = 0u64;
                while done < e.len {
                    let n = ((e.len - done) as usize).min(staging.len());
                    read_exact_at(&*self.file, e.container_offset + done, &mut staging[..n])?;
                    out.write_at(e.logical_offset + done, &staging[..n])?;
                    done += n as u64;
                    bytes += n as u64;
                }
            }
            out.set_len(fi.len)?;
            out.sync()?;
        }
        Ok((paths.len(), bytes))
    }

    /// Rewrites this container at `target_path` on `backend`, dropping
    /// unreferenced payload (bytes shadowed by overwrites, cut by
    /// truncation, or orphaned by unlink) — garbage collection for the
    /// append-only log. Each logical file is written as one contiguous
    /// record per live extent, so the compacted container is also
    /// maximally sequential for later reads.
    ///
    /// Returns the compacted container's summary.
    pub fn compact(
        &self,
        backend: &Arc<dyn Backend>,
        target_path: &str,
    ) -> io::Result<super::ContainerSummary> {
        let out = super::AggregatingBackend::create(backend, target_path)?;
        let mut staging = vec![0u8; 1 << 20];
        for path in self.index.paths() {
            let fi = self.index.get(&path).expect("path from index");
            let dst = out.open(&path, OpenOptions::create_truncate())?;
            // Copy the *visible* bytes (post-overwrite view), hole-aware:
            // plan a full-file read and write only the data pieces.
            let (pieces, _) = fi.plan_read(0, fi.len as usize);
            for piece in pieces {
                if let super::index::ReadPiece::Data {
                    dst: at,
                    container_offset,
                    len,
                } = piece
                {
                    let mut done = 0usize;
                    while done < len {
                        let n = (len - done).min(staging.len());
                        read_exact_at(
                            &*self.file,
                            container_offset + done as u64,
                            &mut staging[..n],
                        )?;
                        dst.write_at((at + done) as u64, &staging[..n])?;
                        done += n;
                    }
                }
            }
            dst.set_len(fi.len)?;
        }
        out.finalize()
    }

    /// Structural check of the record chain (an `fsck` for containers):
    /// walks data records from the header to the index block verifying
    /// markers and bounds, then checks that every index extent points
    /// inside the payload of exactly the record that produced it.
    ///
    /// Records written through the chunk transform pipeline (a CRFS
    /// mount with a codec stacked over this container) hold
    /// [`ChunkFrame`s](crate::transform::frame::FrameHeader); fsck
    /// recognizes them by their magic, validates each frame's header
    /// CRC and bounds, and decodes + checksums every DATA frame payload.
    /// Frame-level damage is *classified, not fatal*: each torn tail,
    /// bad header CRC and failed payload checksum is tallied per class
    /// in the report ([`FsckReport::is_clean`] checks all three), so
    /// one corrupt chunk does not hide the damage census of the rest of
    /// the container. Damage that makes the record chain itself
    /// unwalkable (a corrupt record marker, an extent pointing outside
    /// its record) is still an error — the index, CRC-validated at
    /// open, is the authority those checks defend.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let mut off = HEADER_LEN;
        let mut records = 0u64;
        let mut payload_bytes = 0u64;
        let mut framed_records = 0u64;
        let mut damage = FrameScan::default();
        // payload start → (payload len, file id)
        let mut payloads: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut hdr = [0u8; RECORD_HEADER_LEN as usize];
        while off < self.trailer.index_offset {
            read_exact_at(&*self.file, off, &mut hdr)?;
            let rec = RecordHeader::decode(&hdr)?;
            let payload_at = off + RECORD_HEADER_LEN;
            if payload_at + u64::from(rec.len) > self.trailer.index_offset {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record at {off} overruns the index block"),
                ));
            }
            if let Some(scan) = self.fsck_frames(payload_at, rec.len)? {
                framed_records += 1;
                damage.add(&scan);
            }
            payloads.insert(payload_at, (u64::from(rec.len), rec.file_id));
            records += 1;
            payload_bytes += u64::from(rec.len);
            off = payload_at + u64::from(rec.len);
        }
        if off != self.trailer.index_offset {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record chain does not end at the index block",
            ));
        }
        let mut referenced = 0u64;
        for path in self.index.paths() {
            let fi = self.index.get(&path).expect("path from index");
            for e in &fi.extents {
                match payloads.get(&e.container_offset) {
                    Some(&(plen, fid)) => {
                        if e.len > plen {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("extent of {path:?} exceeds its record payload"),
                            ));
                        }
                        if fid != fi.id {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("extent of {path:?} points into a record of file id {fid}"),
                            ));
                        }
                        referenced += e.len;
                    }
                    None => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("extent of {path:?} does not start a record payload"),
                        ))
                    }
                }
            }
        }
        Ok(FsckReport {
            records,
            payload_bytes,
            referenced_bytes: referenced,
            garbage_bytes: payload_bytes - referenced.min(payload_bytes),
            framed_records,
            frames: damage.frames,
            torn_tails: damage.torn_tails,
            bad_header_crc: damage.bad_header_crc,
            bad_payload_checksum: damage.bad_payload_checksum,
        })
    }

    /// Validates the chunk frames inside one record payload, if it is
    /// framed at all: `None` for raw payloads (no frame magic),
    /// otherwise a per-class damage tally. A bad header CRC or an
    /// overrun ends the walk of *this record's* chain (nothing past it
    /// is trustworthy); a failed payload decode/checksum is counted
    /// and the walk continues — the frame boundaries are still sound.
    fn fsck_frames(&self, payload_at: u64, payload_len: u32) -> io::Result<Option<FrameScan>> {
        use crate::transform::codec::decode_to_vec;
        use crate::transform::frame::{
            payload_digest, FrameHeader, FLAG_REF, FLAG_TRUNC, FRAME_FORMAT, FRAME_HEADER_LEN,
        };

        let flen = u64::from(payload_len);
        if flen < FRAME_HEADER_LEN {
            return Ok(None);
        }
        // Sniff just the first frame header before touching the rest:
        // raw (unframed) records — every record on codec-less mounts —
        // must keep fsck a header walk, not a full-container read.
        // Only a *magic* mismatch means raw; magic with a bad header
        // CRC is a corrupt framed record and must be reported.
        let mut sniff = [0u8; FRAME_HEADER_LEN as usize];
        read_exact_at(&*self.file, payload_at, &mut sniff)?;
        if sniff[..4] != crate::transform::frame::FRAME_MAGIC.to_le_bytes() {
            return Ok(None); // raw (unframed) record
        }
        let mut payload = vec![0u8; payload_len as usize];
        read_exact_at(&*self.file, payload_at, &mut payload)?;
        let mut scan = FrameScan::default();
        let mut out = Vec::new(); // decoded payload, reused per frame
        let mut at = 0usize;
        while at < payload.len() {
            if at + FRAME_HEADER_LEN as usize > payload.len() {
                scan.torn_tails += 1;
                break;
            }
            let h = match FrameHeader::decode(&payload[at..at + FRAME_HEADER_LEN as usize]) {
                Ok(h) => h,
                Err(_) => {
                    scan.bad_header_crc += 1;
                    break;
                }
            };
            let body = at + FRAME_HEADER_LEN as usize;
            let end = body + h.stored_len as usize;
            if end > payload.len() {
                scan.torn_tails += 1;
                break;
            }
            // DATA frames decode and checksum in full; REF and TRUNC
            // frames are header-validated (their targets live in other
            // records/files).
            if h.flags & (FLAG_REF | FLAG_TRUNC) == 0 {
                // A check of another format (0: FNV-1a, before the
                // payload digest) cannot be recomputed, so it fails.
                let ok = h.format == FRAME_FORMAT
                    && decode_to_vec(
                        h.codec,
                        &payload[body..end],
                        h.logical_len as usize,
                        &mut out,
                    )
                    .is_ok()
                    && payload_digest(&out).check == h.payload_check;
                if !ok {
                    scan.bad_payload_checksum += 1;
                }
            }
            scan.frames += 1;
            at = end;
        }
        Ok(Some(scan))
    }
}

impl std::fmt::Debug for ContainerReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContainerReader")
            .field("files", &self.index.file_count())
            .field("extents", &self.index.extent_count())
            .field("index_offset", &self.trailer.index_offset)
            .finish()
    }
}

/// Result of [`ContainerReader::fsck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsckReport {
    /// Data records in the container.
    pub records: u64,
    /// Total payload bytes across records.
    pub payload_bytes: u64,
    /// Payload bytes referenced by live extents.
    pub referenced_bytes: u64,
    /// Payload bytes no longer referenced (overwritten, truncated or
    /// unlinked data still occupying log space).
    pub garbage_bytes: u64,
    /// Records holding chunk-frame chains (transform pipeline output).
    pub framed_records: u64,
    /// Chunk frames walked across framed records (every DATA frame
    /// decoded and checksummed; checksum failures are counted below,
    /// not subtracted here).
    pub frames: u64,
    /// Frame chains that ended in a torn tail: a header or payload cut
    /// short by the end of its record.
    pub torn_tails: u64,
    /// Frame chains ended by a header failing magic/CRC validation.
    pub bad_header_crc: u64,
    /// DATA frames whose payload failed decode or checksum
    /// verification.
    pub bad_payload_checksum: u64,
}

impl FsckReport {
    /// Whether the container's frame content verified with zero damage
    /// in every class.
    pub fn is_clean(&self) -> bool {
        self.torn_tails == 0 && self.bad_header_crc == 0 && self.bad_payload_checksum == 0
    }
}

/// Per-class damage tally for one framed record payload (and the
/// accumulator [`ContainerReader::fsck`] folds them into).
#[derive(Debug, Default, Clone, Copy)]
struct FrameScan {
    frames: u64,
    torn_tails: u64,
    bad_header_crc: u64,
    bad_payload_checksum: u64,
}

impl FrameScan {
    fn add(&mut self, other: &FrameScan) {
        self.frames += other.frames;
        self.torn_tails += other.torn_tails;
        self.bad_header_crc += other.bad_header_crc;
        self.bad_payload_checksum += other.bad_payload_checksum;
    }
}

fn mkdir_parents(backend: &Arc<dyn Backend>, path: &str) -> io::Result<()> {
    let parent = parent_of(path);
    if parent == "/" || backend.exists(parent) {
        return Ok(());
    }
    mkdir_parents(backend, parent)?;
    backend.mkdir(parent)
}

#[cfg(test)]
mod tests {
    use super::super::writer::AggregatingBackend;
    use super::*;
    use crate::backend::MemBackend;

    fn build_container() -> (Arc<dyn Backend>, String) {
        let inner: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let agg = AggregatingBackend::create(&inner, "/node0.agg").unwrap();
        agg.mkdir("/ckpt").unwrap();
        for r in 0..3u8 {
            let f = agg
                .open(
                    &format!("/ckpt/rank{r}.img"),
                    OpenOptions::create_truncate(),
                )
                .unwrap();
            f.write_at(0, &vec![r; 1000]).unwrap();
            f.write_at(1000, &vec![r ^ 0xFF; 500]).unwrap();
        }
        // One file with an overwrite and a truncation, to exercise remap.
        let f = agg
            .open("/ckpt/odd.img", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, &[1; 300]).unwrap();
        f.write_at(100, &[2; 100]).unwrap();
        f.set_len(250).unwrap();
        agg.finalize().unwrap();
        (inner, "/node0.agg".to_string())
    }

    #[test]
    fn open_validates_and_lists() {
        let (inner, path) = build_container();
        let r = ContainerReader::open(&inner, &path).unwrap();
        assert_eq!(r.file_count(), 4);
        assert_eq!(
            r.paths(),
            vec![
                "/ckpt/odd.img",
                "/ckpt/rank0.img",
                "/ckpt/rank1.img",
                "/ckpt/rank2.img"
            ]
        );
        assert_eq!(r.file_len("/ckpt/rank1.img"), Some(1500));
        assert_eq!(r.file_len("/ckpt/odd.img"), Some(250));
        assert_eq!(r.file_len("/missing"), None);
    }

    #[test]
    fn reads_remap_through_index() {
        let (inner, path) = build_container();
        let r = ContainerReader::open(&inner, &path).unwrap();
        for rank in 0..3u8 {
            let data = r.read_file(&format!("/ckpt/rank{rank}.img")).unwrap();
            assert_eq!(data.len(), 1500);
            assert!(data[..1000].iter().all(|&b| b == rank));
            assert!(data[1000..].iter().all(|&b| b == rank ^ 0xFF));
        }
        let odd = r.read_file("/ckpt/odd.img").unwrap();
        assert_eq!(odd.len(), 250);
        assert!(odd[..100].iter().all(|&b| b == 1));
        assert!(odd[100..200].iter().all(|&b| b == 2));
        assert!(odd[200..].iter().all(|&b| b == 1));
    }

    #[test]
    fn partial_reads_and_eof() {
        let (inner, path) = build_container();
        let r = ContainerReader::open(&inner, &path).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(r.read_at("/ckpt/rank0.img", 995, &mut buf).unwrap(), 10);
        assert!(buf[..5].iter().all(|&b| b == 0));
        assert!(buf[5..].iter().all(|&b| b == 0xFF));
        assert_eq!(r.read_at("/ckpt/rank0.img", 1500, &mut buf).unwrap(), 0);
        assert_eq!(r.read_at("/ckpt/rank0.img", 1495, &mut buf).unwrap(), 5);
    }

    #[test]
    fn unfinalized_container_is_rejected() {
        let inner: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let agg = AggregatingBackend::create(&inner, "/open.agg").unwrap();
        let f = agg.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"data").unwrap();
        let err = ContainerReader::open(&inner, "/open.agg").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_index_is_rejected() {
        let (inner, path) = build_container();
        // Flip one byte inside the index block.
        let len = inner.file_len(&path).unwrap();
        let f = inner.open(&path, OpenOptions::read_write()).unwrap();
        let mut b = [0u8; 1];
        f.read_at(len - TRAILER_LEN - 4, &mut b).unwrap();
        f.write_at(len - TRAILER_LEN - 4, &[b[0] ^ 0xFF]).unwrap();
        let err = ContainerReader::open(&inner, &path).unwrap_err();
        assert!(err.to_string().contains("CRC"), "got: {err}");
    }

    #[test]
    fn materialize_rebuilds_original_layout() {
        let (inner, path) = build_container();
        let r = ContainerReader::open(&inner, &path).unwrap();
        let target: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let (files, bytes) = r.materialize(&target).unwrap();
        assert_eq!(files, 4);
        assert!(bytes >= 4 * 1000);
        for rank in 0..3u8 {
            let p = format!("/ckpt/rank{rank}.img");
            assert_eq!(target.file_len(&p).unwrap(), 1500);
            let f = target.open(&p, OpenOptions::read_only()).unwrap();
            let mut data = vec![0u8; 1500];
            assert_eq!(f.read_at(0, &mut data).unwrap(), 1500);
            assert!(data[..1000].iter().all(|&b| b == rank));
        }
        // Truncation carried over.
        assert_eq!(target.file_len("/ckpt/odd.img").unwrap(), 250);
        let f = target
            .open("/ckpt/odd.img", OpenOptions::read_only())
            .unwrap();
        let mut odd = vec![0u8; 250];
        f.read_at(0, &mut odd).unwrap();
        assert!(odd[100..200].iter().all(|&b| b == 2));
    }

    #[test]
    fn fsck_accounts_all_bytes() {
        let (inner, path) = build_container();
        let r = ContainerReader::open(&inner, &path).unwrap();
        let report = r.fsck().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records, 8); // 3 ranks × 2 + odd × 2
        assert_eq!(report.payload_bytes, 3 * 1500 + 400);
        // odd.img: 300-byte extent trimmed to 250 by set_len, 100-byte
        // overwrite referenced in full, 50 bytes of garbage past the cut,
        // plus the 100 overwritten bytes still count as referenced by the
        // older extent (newest-wins happens at read time).
        assert_eq!(report.referenced_bytes, 3 * 1500 + 250 + 100);
        assert_eq!(report.garbage_bytes, 50);
    }

    #[test]
    fn compact_drops_garbage_and_preserves_contents() {
        let inner: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let agg = AggregatingBackend::create(&inner, "/fat.agg").unwrap();
        let f = agg.open("/f", OpenOptions::create_truncate()).unwrap();
        // 3 generations of overwrites + a truncation + an unlinked file:
        // plenty of garbage.
        f.write_at(0, &[1u8; 1000]).unwrap();
        f.write_at(0, &[2u8; 1000]).unwrap();
        f.write_at(500, &[3u8; 1000]).unwrap();
        f.set_len(1200).unwrap();
        let dead = agg.open("/dead", OpenOptions::create_truncate()).unwrap();
        dead.write_at(0, &[9u8; 5000]).unwrap();
        drop(dead);
        agg.unlink("/dead").unwrap();
        agg.finalize().unwrap();

        let fat = ContainerReader::open(&inner, "/fat.agg").unwrap();
        let before = fat.fsck().unwrap();
        assert!(before.garbage_bytes > 0, "setup must create garbage");
        let expect = fat.read_file("/f").unwrap();

        let summary = fat.compact(&inner, "/slim.agg").unwrap();
        assert_eq!(summary.file_count, 1);
        let slim = ContainerReader::open(&inner, "/slim.agg").unwrap();
        let after = slim.fsck().unwrap();
        assert_eq!(after.garbage_bytes, 0, "compaction leaves no garbage");
        assert_eq!(slim.read_file("/f").unwrap(), expect);
        assert_eq!(slim.file_len("/f"), Some(1200));
        assert!(
            inner.file_len("/slim.agg").unwrap() < inner.file_len("/fat.agg").unwrap(),
            "compacted container is smaller"
        );
    }

    #[test]
    fn compact_empty_and_hole_only_files() {
        let inner: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let agg = AggregatingBackend::create(&inner, "/h.agg").unwrap();
        let empty = agg.open("/empty", OpenOptions::create_truncate()).unwrap();
        empty.set_len(0).unwrap();
        let holey = agg.open("/holey", OpenOptions::create_truncate()).unwrap();
        holey.set_len(4096).unwrap(); // pure hole, no data records
        agg.finalize().unwrap();

        let r = ContainerReader::open(&inner, "/h.agg").unwrap();
        r.compact(&inner, "/h2.agg").unwrap();
        let c = ContainerReader::open(&inner, "/h2.agg").unwrap();
        assert_eq!(c.file_len("/empty"), Some(0));
        assert_eq!(c.file_len("/holey"), Some(4096));
        assert_eq!(c.read_file("/holey").unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn fsck_validates_transform_frames_in_records() {
        use crate::transform::frame::FRAME_HEADER_LEN;
        use crate::{Crfs, CrfsConfig};

        let inner: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let agg: Arc<AggregatingBackend> =
            Arc::new(AggregatingBackend::create(&inner, "/node.agg").unwrap());
        let fs = Crfs::mount(
            Arc::clone(&agg) as Arc<dyn Backend>,
            CrfsConfig::default()
                .with_chunk_size(1024)
                .with_pool_size(8192)
                .with_codec(crate::transform::CodecKind::Lz),
        )
        .unwrap();
        let f = fs.create("/rank0.img").unwrap();
        let data: Vec<u8> = (0..5000).map(|i| (i % 13) as u8).collect();
        f.write(&data).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        agg.finalize().unwrap();

        let r = ContainerReader::open(&inner, "/node.agg").unwrap();
        let report = r.fsck().unwrap();
        assert!(report.is_clean());
        assert!(report.framed_records > 0, "transform output not seen");
        assert!(report.frames >= report.framed_records);

        // Corrupt one byte inside the first frame's stored payload
        // (past the record header + frame header): structural fsck
        // still walks, and the damage is classified — one failed
        // payload checksum — without hiding the rest of the census.
        let c = inner.open("/node.agg", OpenOptions::read_write()).unwrap();
        let at = HEADER_LEN + RECORD_HEADER_LEN + FRAME_HEADER_LEN + 3;
        let mut b = [0u8; 1];
        c.read_at(at, &mut b).unwrap();
        c.write_at(at, &[b[0] ^ 0xFF]).unwrap();
        let r = ContainerReader::open(&inner, "/node.agg").unwrap();
        let damaged = r.fsck().unwrap();
        assert!(!damaged.is_clean());
        assert_eq!(damaged.bad_payload_checksum, 1);
        assert_eq!(damaged.torn_tails, 0);
        assert_eq!(damaged.bad_header_crc, 0);
        assert_eq!(
            damaged.frames, report.frames,
            "a checksum failure does not end the walk"
        );
    }

    #[test]
    fn fsck_detects_chain_corruption() {
        let (inner, path) = build_container();
        // Corrupt a record marker (first record right after the header).
        let f = inner.open(&path, OpenOptions::read_write()).unwrap();
        f.write_at(HEADER_LEN, &[0u8; 4]).unwrap();
        let r = ContainerReader::open(&inner, &path).unwrap(); // index still fine
        assert!(r.fsck().is_err());
    }
}
