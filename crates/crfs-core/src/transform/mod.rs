//! The chunk transform pipeline: compression, content-addressed dedup,
//! and end-to-end integrity.
//!
//! This is the fourth pipeline stage, running between chunk seal and
//! backend submission (and, mirrored, between backend read and cache
//! install):
//!
//! ```text
//!  write() ─▶ aggregate ─▶ seal ─▶ TRANSFORM ─▶ IO engine ─▶ backend
//!                                  │ digest   (dedup key + frame check, one pass)
//!                                  │ dedup    (DedupIndex → REF frames)
//!                                  │ compress (Codec, store-raw escape; misses only)
//!  read()  ◀─ cache ◀─ verify+decode ◀─────────── backend
//! ```
//!
//! A transformed file is an append-only log of self-describing
//! [`ChunkFrame`s](frame::FrameHeader): the *stored* layout decouples
//! from the *logical* layout, and the indirection buys compression
//! (stored ≠ logical bytes) and dedup (a frame may be a reference to
//! bytes stored elsewhere).
//! The per-file [`FileTransform`] keeps the frame map in memory while
//! the file is open and rebuilds it with a single header scan at open,
//! so a fresh mount (restart) needs no side index.
//!
//! Where the transform runs: compression is CPU work, so it executes in
//! the IO engine's *worker* context — sealed chunks of different workers
//! compress in parallel, overlapped with backend writes. See
//! [`crate::engine`] for the call site.
//!
//! Fingerprinting: [`frame::payload_digest`] walks each sealed payload
//! **once** and yields the 128-bit dedup/CAS key and the 64-bit frame
//! check together, so a dedup hit costs one word-wide pass and a
//! 64-byte reference frame; the codec only ever sees a miss.
//!
//! Integrity: every frame carries that check of its logical payload,
//! verified after decode on **every** read — direct reads, prefetch
//! fills, and dedup reference resolution alike. A mismatch (or a
//! malformed frame/stored stream, or a frame whose format byte says its
//! check was computed by a function this build does not have — a store
//! written before the digest) surfaces as
//! [`CrfsError::IntegrityError`](crate::CrfsError::IntegrityError)
//! instead of handing corrupt or unverifiable bytes to a restarting
//! process. A reader's buffer receives verified bytes only; a prefetch
//! fill, which owns its cache slot and drops it on error, has whole
//! frames decoded and verified in the slot itself
//! ([`FileTransform::fill_logical`]) and the slot zeroed on failure.
//!
//! Crash recovery (the acked-prefix contract, DESIGN.md §6): the open
//! scan keeps the longest prefix of structurally valid frames and
//! **discards** any torn tail — truncated header, bad header magic/CRC,
//! payload cut short by EOF (see [`walk_frames`] / [`ScanOutcome`]).
//! Frames are append-only, so crash damage is confined to the
//! unsynchronized tail; discarded frames were never acknowledged
//! through a passed barrier. A torn payload that stayed *in bounds*
//! passes the structural scan and is caught by the payload checksum at
//! read time — either way a reader sees acknowledged bytes or an
//! `IntegrityError`, never wrong bytes. The scan never mutates the
//! file; `crfs-fsck --repair` (see [`crate::fsck`]) truncates the torn
//! tail away persistently.
//!
//! Known detection gap: framed-vs-raw is decided by the 4 magic bytes
//! at stored offset 0 (raw pass-through files are a supported layout,
//! so there is no out-of-band record of which files are framed).
//! Corruption of exactly those 4 bytes on a *closed* file makes the
//! next open classify it as raw and serve stored frame bytes verbatim;
//! every other stored byte is covered by a header CRC or payload
//! checksum. (A file shorter than the magic whose bytes match the
//! magic's own prefix is classified as a torn first frame, not raw —
//! the crash case.) Deployments that never mix raw files can close the
//! gap by treating `attach() == None` as an error at a higher layer.

pub mod codec;
pub mod dedup;
pub mod frame;

pub use codec::CodecKind;
pub use dedup::DedupIndex;

use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::Instant;

use crate::backend::{read_exact_at, Backend, BackendFile, OpenOptions};
use crate::config::CrfsConfig;
use crate::snapshot::{cas_path, manifest::ChunkRecord, ChunkKey, InflightGuard, SnapshotStore};
use crate::stats::CrfsStats;
use codec::{check_expansion, decode_into, encode_payload, max_stored_len, STORED_RAW};
use frame::{
    payload_digest, ChunkRef, FrameHeader, FLAG_PAD, FLAG_REF, FLAG_TRUNC, FRAME_FORMAT,
    FRAME_HEADER_LEN, FRAME_MAGIC, REF_LEN,
};

// ---------------------------------------------------------------------
// Integrity error marker
// ---------------------------------------------------------------------

/// Marker payload inside `io::Error` identifying a detected integrity
/// violation (checksum mismatch, malformed frame, undecodable stored
/// bytes) — as opposed to an ordinary backend IO failure.
#[derive(Debug)]
pub struct IntegrityViolation {
    /// Human-readable description of what failed to verify.
    pub detail: String,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "integrity violation: {}", self.detail)
    }
}

impl std::error::Error for IntegrityViolation {}

/// Whether an IO error carries an [`IntegrityViolation`] marker.
pub fn is_integrity_error(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|r| r.is::<IntegrityViolation>())
}

fn integrity(stats: &CrfsStats, detail: String) -> io::Error {
    stats.integrity_failures.fetch_add(1, Relaxed);
    // Integrity violations are exactly what the flight recorder exists
    // for: record the event, then dump the ring so the lead-up survives
    // even if the process dies on the propagated error.
    stats
        .flight
        .record(crate::obs::EventKind::IntegrityError, Some(&detail), 0, 0);
    stats.flight.dump_to_configured_path();
    io::Error::new(io::ErrorKind::InvalidData, IntegrityViolation { detail })
}

// ---------------------------------------------------------------------
// Mount-level context
// ---------------------------------------------------------------------

/// Mount-scoped transform state: the configured codec, the
/// content-addressed store dedup goes through, and the handles the
/// read path needs to resolve dedup references.
pub struct TransformCtx {
    codec: CodecKind,
    /// The content-addressed store and its dedup index, when
    /// `config.dedup` is on: every REF frame this mount writes names
    /// one of its chunk files.
    cas: Option<Arc<SnapshotStore>>,
    backend: Arc<dyn Backend>,
    stats: Arc<CrfsStats>,
}

impl TransformCtx {
    /// Builds the mount's transform context, or `None` when the config
    /// disables the transform stage (`codec == None`). Fallible because
    /// an enabled content store recovers its manifests from the
    /// backend here.
    pub fn from_config(
        config: &CrfsConfig,
        backend: Arc<dyn Backend>,
        stats: Arc<CrfsStats>,
    ) -> io::Result<Option<Arc<TransformCtx>>> {
        if config.codec == CodecKind::None {
            return Ok(None);
        }
        let cas = if config.dedup {
            Some(SnapshotStore::open(
                Arc::clone(&backend),
                Arc::clone(&stats),
                config.snapshot_keep_epochs,
            )?)
        } else {
            None
        };
        Ok(Some(Arc::new(TransformCtx {
            codec: config.codec,
            cas,
            backend,
            stats,
        })))
    }

    /// The configured codec.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// The content-addressed store, when dedup is enabled.
    pub fn cas(&self) -> Option<&Arc<SnapshotStore>> {
        self.cas.as_ref()
    }

    /// Advances the checkpoint epoch: seals the snapshot manifest (the
    /// caller must have flushed open files so every staged record's
    /// frame is durable), then ages the dedup index (see
    /// [`DedupIndex::advance_epoch`]); returns the number of index
    /// entries evicted. A no-op (0) without dedup.
    pub fn advance_epoch(&self) -> io::Result<usize> {
        let Some(cas) = &self.cas else {
            return Ok(0);
        };
        cas.seal()?;
        Ok(cas.index().advance_epoch())
    }
}

impl std::fmt::Debug for TransformCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformCtx")
            .field("codec", &self.codec)
            .field("cas", &self.cas)
            .finish()
    }
}

// ---------------------------------------------------------------------
// Per-file frame map
// ---------------------------------------------------------------------

/// One frame's metadata as the map holds it.
#[derive(Debug, Clone, Copy)]
struct FrameEntry {
    /// Byte offset of the frame header within the stored file.
    stored_off: u64,
    /// Stored payload length (follows the 40-byte header).
    stored_len: u32,
    /// Logical placement of the decoded payload.
    logical_offset: u64,
    /// Decoded payload length.
    logical_len: u32,
    /// Bytes of the payload still visible (reduced by truncation;
    /// decode always produces `logical_len`, visibility clamps it).
    vis_len: u32,
    /// Stored codec id of the payload.
    codec: u8,
    /// `FLAG_REF` when the payload is a dedup reference record.
    flags: u8,
    /// The header's format byte: which function produced `check`.
    format: u8,
    /// Check half of the payload digest over the logical payload.
    check: u64,
}

impl FrameEntry {
    fn vis_end(&self) -> u64 {
        self.logical_offset + self.vis_len as u64
    }
}

/// One planned piece of a logical read.
enum PlanPiece {
    /// Copy `len` decoded bytes starting `within` bytes into `frame`'s
    /// payload, to `dst` bytes into the destination buffer.
    Data {
        dst: usize,
        frame: FrameEntry,
        within: usize,
        len: usize,
    },
    /// Zero-fill (a hole).
    Hole { dst: usize, len: usize },
}

/// The in-memory frame map: frames in allocation (= stored) order,
/// newest-wins for overlapping logical ranges.
#[derive(Default)]
struct FrameMap {
    /// Sorted ascending by `stored_off` (allocation order).
    frames: Vec<FrameEntry>,
    logical_len: u64,
}

impl FrameMap {
    fn insert(&mut self, e: FrameEntry) {
        self.logical_len = self
            .logical_len
            .max(e.logical_offset + e.logical_len as u64);
        // Workers commit in completion order, which can trail allocation
        // order; keep the vec sorted by stored_off so "newest" is
        // well-defined as allocation order.
        match self.frames.last() {
            Some(last) if last.stored_off > e.stored_off => {
                let at = self.frames.partition_point(|f| f.stored_off < e.stored_off);
                self.frames.insert(at, e);
            }
            _ => self.frames.push(e),
        }
    }

    /// Applies `truncate(new_len)`: drops frames fully past the cut,
    /// clamps visibility of straddlers, sets the logical length (which
    /// may also extend — the new range reads as a hole).
    fn truncate(&mut self, new_len: u64) {
        if new_len < self.logical_len {
            self.frames.retain_mut(|f| {
                if f.logical_offset >= new_len {
                    return false;
                }
                if f.vis_end() > new_len {
                    f.vis_len = (new_len - f.logical_offset) as u32;
                }
                true
            });
        }
        self.logical_len = new_len;
    }

    /// Applies one scanned frame header in file (= allocation) order —
    /// the single semantic authority shared by [`FileTransform::attach`]
    /// and [`scan_logical_len`], so the two can never disagree on what
    /// a frame chain means.
    fn apply(&mut self, stored_off: u64, h: &FrameHeader) {
        if h.flags & FLAG_PAD != 0 {
            return; // failed-write filler: no logical content
        }
        if h.flags & FLAG_TRUNC != 0 {
            self.truncate(h.logical_offset);
            return;
        }
        self.insert(FrameEntry {
            stored_off,
            stored_len: h.stored_len,
            logical_offset: h.logical_offset,
            logical_len: h.logical_len,
            vis_len: h.logical_len,
            codec: h.codec,
            flags: h.flags,
            format: h.format,
            check: h.payload_check,
        });
    }

    /// Plans a read of `len` bytes at `offset` (newest frame wins), in
    /// ascending `dst` order, exactly tiling the returned total.
    fn plan(&self, offset: u64, len: usize) -> (Vec<PlanPiece>, usize) {
        if offset >= self.logical_len || len == 0 {
            return (Vec::new(), 0);
        }
        let end = (offset + len as u64).min(self.logical_len);
        let total = (end - offset) as usize;
        let mut uncovered: Vec<(u64, u64)> = vec![(offset, end)];
        let mut pieces: Vec<PlanPiece> = Vec::new();
        for f in self.frames.iter().rev() {
            if uncovered.is_empty() {
                break;
            }
            let mut next = Vec::with_capacity(uncovered.len());
            for &(lo, hi) in &uncovered {
                let cov_lo = lo.max(f.logical_offset);
                let cov_hi = hi.min(f.vis_end());
                if cov_lo >= cov_hi {
                    next.push((lo, hi));
                    continue;
                }
                pieces.push(PlanPiece::Data {
                    dst: (cov_lo - offset) as usize,
                    frame: *f,
                    within: (cov_lo - f.logical_offset) as usize,
                    len: (cov_hi - cov_lo) as usize,
                });
                if lo < cov_lo {
                    next.push((lo, cov_lo));
                }
                if cov_hi < hi {
                    next.push((cov_hi, hi));
                }
            }
            uncovered = next;
        }
        for (lo, hi) in uncovered {
            pieces.push(PlanPiece::Hole {
                dst: (lo - offset) as usize,
                len: (hi - lo) as usize,
            });
        }
        pieces.sort_by_key(|p| match *p {
            PlanPiece::Data { dst, .. } | PlanPiece::Hole { dst, .. } => dst,
        });
        (pieces, total)
    }
}

// ---------------------------------------------------------------------
// Per-file transform state
// ---------------------------------------------------------------------

/// A chunk encoded into its on-disk frame, awaiting its backend write.
/// Produced by [`FileTransform::encode_chunk`] (worker context),
/// committed to the frame map with [`FileTransform::commit`] once the
/// write succeeded.
pub struct EncodedChunk {
    /// Complete frame bytes: 40-byte header + stored payload.
    frame: Vec<u8>,
    entry: FrameEntry, // stored_off filled at commit
    /// Manifest record to stage on commit (dedup mounts): this chunk,
    /// keyed for the next sealed epoch.
    snap_rec: Option<ChunkRecord>,
    /// The chunk's CAS write failed and it landed inline as a DATA
    /// frame: `commit` stages its in-file location with the record.
    degraded: bool,
    /// Holds the chunk key unreclaimable from [`encode_chunk`]'s dedup
    /// lookup until the record is staged in [`FileTransform::commit`]
    /// (the guard drops when the `EncodedChunk` does).
    _inflight: Option<InflightGuard>,
}

impl EncodedChunk {
    /// The frame's total stored size in bytes.
    pub fn stored_bytes(&self) -> usize {
        self.frame.len()
    }

    /// The frame bytes to write at the allocated stored offset.
    pub fn bytes(&self) -> &[u8] {
        &self.frame
    }
}

/// A frame buffer allocated once: the header's 40 bytes (zeroed,
/// stamped when the stored length is known) and room for `payload_cap`
/// stored bytes behind them.
fn new_frame(payload_cap: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload_cap);
    frame.resize(FRAME_HEADER_LEN as usize, 0);
    frame
}

/// A DATA frame of `payload` under `codec` (header still blank) and the
/// stored codec id the encode settled on. Counts `bytes_copied`.
fn data_frame(stats: &CrfsStats, codec: CodecKind, payload: &[u8]) -> (Vec<u8>, u8) {
    let mut frame = new_frame(max_stored_len(codec, payload.len()));
    let stored_codec = encode_payload(codec, payload, &mut frame);
    let stored = frame.len() - FRAME_HEADER_LEN as usize;
    stats.bytes_copied.fetch_add(stored as u64, Relaxed);
    (frame, stored_codec)
}

/// A REF frame (header still blank) naming the chunk of `hash`, stored
/// as `codec` in `stored_len` bytes.
fn ref_frame(hash: u128, (codec, stored_len): (u8, u32)) -> Vec<u8> {
    let mut frame = new_frame(REF_LEN);
    let record = ChunkRef {
        hash,
        stored_len,
        codec,
    };
    frame.extend_from_slice(&record.encode());
    frame
}

/// Encodes `payload` into a standalone single-frame file in the
/// content-addressed store (header `logical_offset` 0 — the chunk's
/// placement lives in the referencing frames, not the CAS file).
/// Returns the codec and stored length of the chunk *as it exists on
/// disk*, which may differ from this encode when an earlier mount
/// already stored the same content under another codec.
fn store_cas(
    stats: &CrfsStats,
    codec: CodecKind,
    snap: &Arc<SnapshotStore>,
    key: ChunkKey,
    payload: &[u8],
    check: u64,
) -> io::Result<(u8, u32)> {
    let (mut cas, cas_codec) = data_frame(stats, codec, payload);
    let stored_len = (cas.len() - FRAME_HEADER_LEN as usize) as u32;
    let header = FrameHeader::chunk(cas_codec, key.1, stored_len, check);
    cas[..FRAME_HEADER_LEN as usize].copy_from_slice(&header.encode());
    snap.store_chunk(key, &cas, check)
}

/// The buffers one frame fetch needs, kept between fetches so that a
/// restart does not allocate (and page-fault in) a fresh chunk-sized
/// `Vec` or two per frame. Capacity grows to the file's largest frame
/// and is dropped with the [`FileTransform`].
#[derive(Default)]
struct Scratch {
    /// The stored bytes: the frame's own payload, or those of the chunk
    /// its reference record names.
    frame: Vec<u8>,
    /// The decoded logical payload.
    out: Vec<u8>,
}

/// Where one frame's stored bytes live: its own payload, or the
/// content-store chunk its dedup reference record names.
struct Extent {
    /// The chunk a REF frame names and its open handle; `None` reads
    /// the frame's own file.
    origin: Option<(ChunkKey, Arc<dyn BackendFile>)>,
    /// Byte offset of the stored bytes in that file.
    off: u64,
    /// Codec of the stored bytes.
    codec: u8,
}

impl Extent {
    /// The file the stored bytes are read from.
    fn source<'a>(&'a self, file: &'a dyn BackendFile) -> &'a dyn BackendFile {
        self.origin.as_ref().map_or(file, |(_, chunk)| &**chunk)
    }
}

/// A prefetch fill of exactly one whole frame, located by
/// [`FileTransform::locate_fill`]: its stored bytes are read into the
/// fill's own scratch — by the backend's asynchronous path when it has
/// one, so no thread waits out the read — and
/// [`FileTransform::finish_fill`] decodes and verifies them.
pub(crate) struct FrameFill {
    frame: FrameEntry,
    extent: Extent,
    scratch: Scratch,
}

impl FrameFill {
    /// Reads the stored bytes as `token` through the backend's
    /// asynchronous path (`None`: the completion brings the result), or
    /// in this thread when it has none. `file` is the frame's own file.
    pub(crate) fn read(
        &mut self,
        file: &dyn BackendFile,
        token: u64,
        sink: &Arc<dyn crate::backend::CompletionSink>,
    ) -> Option<io::Result<()>> {
        let e = &self.extent;
        let (src, buf) = (e.source(file), &mut self.scratch.frame);
        match src.begin_read_at(token, e.off, buf, sink) {
            Ok(true) => None,
            Ok(false) => Some(read_exact_at(src, e.off, buf)),
            Err(err) => Some(Err(err)),
        }
    }
}

/// Per-open-file transform state: the frame map and the stored-space
/// tail allocator. Lives on the [`FileEntry`](crate::file::FileEntry)
/// of every file on a transform-enabled mount whose stored layout is
/// framed (new files always; existing files when the header scan
/// recognizes them).
/// How many content-store chunk handles a [`FileTransform`] caches for
/// reference resolution (a restart read of a file whose chunks repeat
/// resolves the same few chunks thousands of times).
const ORIGIN_CACHE_CAP: usize = 8;

pub struct FileTransform {
    ctx: Arc<TransformCtx>,
    map: Mutex<FrameMap>,
    /// Next free stored byte; frames allocate their extent here.
    stored_tail: AtomicU64,
    /// `Some(clean_len)` when [`attach`](Self::attach) found a torn
    /// tail: the first append truncates the backing file here before
    /// writing, so new frames are never followed by stale torn bytes.
    /// Deferred because attach must not mutate (the handle may be
    /// read-only, and a racing open drops the loser's scan).
    trim: Mutex<Option<u64>>,
    /// Fast-path mirror of `trim.is_some()` so the steady-state cost
    /// of [`prepare_append`](Self::prepare_append) is one atomic load.
    needs_trim: AtomicBool,
    /// Raw on-disk length the attach scan observed — clean prefix
    /// *plus* any torn tail. The open path revalidates an unlocked
    /// scan against the live file length with this (not `stored_tail`,
    /// which already excludes discarded torn bytes and so would never
    /// match a damaged file).
    scan_raw: u64,
    /// Open backend handles of content-store chunks, by key —
    /// resolving N reference records into the same chunk must not cost
    /// N backend opens. Bounded FIFO; dropped with the entry at close.
    origins: Mutex<Vec<(ChunkKey, Arc<dyn BackendFile>)>>,
    /// Idle fetch scratch: a read pops one (or starts an empty one) and
    /// pushes it back, so the list holds as many as reads ever ran at
    /// once on this file.
    scratch: Mutex<Vec<Scratch>>,
}

impl FileTransform {
    /// Fresh state for a new (or truncated-at-open) file.
    pub fn fresh(ctx: Arc<TransformCtx>) -> FileTransform {
        FileTransform {
            ctx,
            map: Mutex::new(FrameMap::default()),
            stored_tail: AtomicU64::new(0),
            trim: Mutex::new(None),
            needs_trim: AtomicBool::new(false),
            scan_raw: 0,
            origins: Mutex::new(Vec::new()),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Attaches to an existing backend file: empty files and files whose
    /// first bytes validate as frame magic are (re)opened framed — the
    /// latter via a full header scan that rebuilds the frame map.
    /// Returns `None` for raw (unframed) files, which keep the paper's
    /// pass-through layout.
    ///
    /// **Recovery contract** (DESIGN.md §6): the scan keeps the clean
    /// prefix of structurally valid frames and *discards* any torn
    /// tail — a crashed append can only damage the tail region, and
    /// the discarded bytes were never acknowledged through a barrier.
    /// The stored tail restarts at the clean-prefix end, so new writes
    /// overwrite the torn bytes. Damage is counted per class in the
    /// mount stats (`torn_tails` / `bad_header_crc`); the file itself
    /// is not modified here (it may be open read-only) — `crfs-fsck
    /// --repair` is the mutating path.
    pub fn attach(
        ctx: Arc<TransformCtx>,
        file: &dyn BackendFile,
    ) -> io::Result<Option<FileTransform>> {
        let head = FileHead::read(file)?;
        if head.stored_len == 0 {
            return Ok(Some(FileTransform::fresh(ctx)));
        }
        let mut map = FrameMap::default();
        let walked = walk_frames(file, &head, |off, h| {
            map.apply(off, h);
            Ok(())
        })?;
        let Some(outcome) = walked else {
            return Ok(None); // raw pass-through file
        };
        if let Some(damage) = outcome.damage {
            match damage {
                TailDamage::BadHeaderCrc => {
                    ctx.stats.bad_header_crc.fetch_add(1, Relaxed);
                }
                TailDamage::TruncatedHeader | TailDamage::TruncatedPayload => {
                    ctx.stats.torn_tails.fetch_add(1, Relaxed);
                }
            }
            // Crash-mode trip: a torn tail is being discarded. Record
            // (clean prefix, raw length) so the dump shows exactly how
            // many bytes recovery dropped.
            ctx.stats.flight.record(
                crate::obs::EventKind::CrashTrip,
                None,
                outcome.clean_len,
                outcome.stored_len,
            );
        }
        Ok(Some(FileTransform {
            ctx,
            map: Mutex::new(map),
            stored_tail: AtomicU64::new(outcome.clean_len),
            trim: Mutex::new(outcome.damage.map(|_| outcome.clean_len)),
            needs_trim: AtomicBool::new(outcome.damage.is_some()),
            scan_raw: outcome.stored_len,
            origins: Mutex::new(Vec::new()),
            scratch: Mutex::new(Vec::new()),
        }))
    }

    /// The mount context this file transforms under.
    pub fn ctx(&self) -> &Arc<TransformCtx> {
        &self.ctx
    }

    /// Current logical file length (frames + truncation markers).
    pub fn logical_len(&self) -> u64 {
        self.map.lock().logical_len
    }

    /// Current stored tail — the bytes of backing file the frame chain
    /// accounts for (torn tail already discarded).
    pub fn stored_len(&self) -> u64 {
        self.stored_tail.load(Relaxed)
    }

    /// Raw on-disk length observed by the attach scan, torn tail
    /// included. Used to revalidate a scan done outside the open-table
    /// lock: a live length differing from this means frames were
    /// appended (or the tail trimmed) after the scan, so the open must
    /// rescan — whereas comparing against [`stored_len`](Self::stored_len)
    /// would spin forever on a damaged file whose discarded tail is
    /// still on disk.
    pub fn scanned_len(&self) -> u64 {
        self.scan_raw
    }

    /// Frames currently mapped (diagnostics).
    pub fn frame_count(&self) -> usize {
        self.map.lock().frames.len()
    }

    /// Encodes one sealed chunk into its frame. Without dedup that is a
    /// DATA frame under the configured codec (with the store-raw
    /// escape). With dedup it is a reference frame into the CAS: a hit
    /// names the chunk file already there, a miss is first encoded into
    /// a new one; only a failed CAS write lands inline as DATA. Runs in
    /// IO-worker context so chunks compress in parallel. Counts
    /// `bytes_logical`, `transform_ns` and `dedup_hits`.
    pub fn encode_chunk(&self, logical_offset: u64, payload: &[u8]) -> EncodedChunk {
        let stats = &self.ctx.stats;
        let t0 = Instant::now();
        stats.bytes_logical.fetch_add(payload.len() as u64, Relaxed);
        // The one walk over the payload before the codec sees it: the
        // dedup key and the frame check come out of the same pass, and
        // `store_cas`, the manifest record and `commit` take the check
        // they are handed.
        let frame::PayloadDigest { key: hash, check } = payload_digest(payload);

        let mut snap_rec = None;
        let mut degraded = false;
        let mut inflight = None;
        let (mut frame, codec, flags) = match &self.ctx.cas {
            None => {
                let (frame, stored_codec) = data_frame(stats, self.ctx.codec, payload);
                (frame, stored_codec, 0)
            }
            Some(cas) => {
                let key = (hash, payload.len() as u32);
                // Register the key as in-flight *before* the lookup: GC
                // marks in-flight keys under the same lock, so the CAS
                // file a hit resolves to cannot be swept between this
                // lookup and the frame's commit.
                inflight = Some(cas.begin_chunk(key));
                let stored = match cas.index().lookup(hash, key.1) {
                    Some(hit) => {
                        stats.dedup_hits.fetch_add(1, Relaxed);
                        Ok((hit.codec, hit.stored_len))
                    }
                    // Fresh content: encode it into its own single-frame
                    // CAS file and register it for dedup.
                    None => store_cas(stats, self.ctx.codec, cas, key, payload, check).inspect(
                        |&(cas_codec, cas_len)| cas.index().add(hash, key.1, cas_len, cas_codec),
                    ),
                };
                let (frame, (codec, stored_len), flags) = match stored {
                    // Either way this file's log gets only a reference
                    // frame naming the chunk by its key.
                    Ok(stored) => (ref_frame(hash, stored), stored, FLAG_REF),
                    // CAS write failed: degrade to an inline DATA frame
                    // so the user's bytes still land through the
                    // ordinary path. `commit` stages it with its
                    // in-file location, and the seal copies it into the
                    // store; it is never a dedup origin before that.
                    Err(_) => {
                        degraded = true;
                        let (frame, codec) = data_frame(stats, self.ctx.codec, payload);
                        let stored_len = (frame.len() - FRAME_HEADER_LEN as usize) as u32;
                        (frame, (codec, stored_len), 0)
                    }
                };
                snap_rec = Some(ChunkRecord {
                    hash,
                    logical_offset,
                    logical_len: key.1,
                    format: FRAME_FORMAT,
                    check,
                    stored_len,
                    codec,
                });
                (frame, if degraded { codec } else { STORED_RAW }, flags)
            }
        };
        let stored_len = (frame.len() - FRAME_HEADER_LEN as usize) as u32;
        let header = FrameHeader {
            codec,
            flags,
            format: FRAME_FORMAT,
            logical_offset,
            logical_len: payload.len() as u32,
            stored_len,
            payload_check: check,
        };
        frame[..FRAME_HEADER_LEN as usize].copy_from_slice(&header.encode());
        let spent = t0.elapsed();
        stats
            .transform_ns
            .fetch_add(spent.as_nanos() as u64, Relaxed);
        if stats.stages.enabled() {
            stats.stages.transform_encode.record_dur(spent);
        }
        EncodedChunk {
            frame,
            entry: FrameEntry {
                stored_off: 0,
                stored_len,
                logical_offset,
                logical_len: payload.len() as u32,
                vis_len: payload.len() as u32,
                codec,
                flags,
                format: FRAME_FORMAT,
                check,
            },
            snap_rec,
            degraded,
            _inflight: inflight,
        }
    }

    /// Allocates `len` bytes of stored space at the file tail.
    pub fn allocate(&self, len: u64) -> u64 {
        self.stored_tail.fetch_add(len, Relaxed)
    }

    /// One-shot deferred repair of a torn tail found by
    /// [`attach`](Self::attach): truncates the backing file to the
    /// clean prefix so the frame about to be appended is not followed
    /// by stale torn bytes (which a later rescan would re-classify as
    /// damage). Writers call this before every backend frame write;
    /// after the first trim (or on an undamaged file) it is a single
    /// relaxed-ish atomic load. The mutex makes concurrent first
    /// writers wait until the trim has landed, so no frame can reach
    /// the backend while torn bytes still follow its extent.
    pub fn prepare_append(&self, file: &dyn BackendFile) -> io::Result<()> {
        if !self.needs_trim.load(Acquire) {
            return Ok(());
        }
        let mut g = self.trim.lock();
        if let Some(clean) = *g {
            file.set_len(clean)?;
            *g = None;
            self.needs_trim.store(false, Release);
        }
        Ok(())
    }

    /// Commits a successfully written frame at `stored_off`: installs it
    /// in the frame map (making it readable) and, on dedup mounts,
    /// stages the chunk's manifest record for the next sealed epoch — a
    /// degraded chunk's with its location here, for the seal to copy.
    /// Counts `bytes_stored`. The in-flight GC guard carried from
    /// [`encode_chunk`](Self::encode_chunk) drops here, *after* the
    /// record is staged.
    pub fn commit(&self, path: &Arc<str>, stored_off: u64, enc: EncodedChunk) {
        let mut e = enc.entry;
        e.stored_off = stored_off;
        self.ctx
            .stats
            .bytes_stored
            .fetch_add(enc.frame.len() as u64, Relaxed);
        self.map.lock().insert(e);
        if let (Some(cas), Some(rec)) = (self.ctx.cas.as_ref(), enc.snap_rec) {
            cas.stage_chunk(path, stored_off, rec, enc.degraded);
        }
    }

    /// Applies `set_len` to a framed file: length 0 resets the stored
    /// log outright; any other length appends a persistent truncation
    /// marker frame (so a restart scan reaches the same logical state)
    /// and clamps the in-memory map. Dedup mounts stage the same
    /// event for the next sealed manifest.
    pub fn truncate(&self, path: &Arc<str>, file: &dyn BackendFile, len: u64) -> io::Result<()> {
        if len == 0 {
            file.set_len(0)?;
            let mut map = self.map.lock();
            map.frames.clear();
            map.logical_len = 0;
            self.stored_tail.store(0, Relaxed);
            // set_len(0) removed any torn tail along with everything
            // else — the deferred trim is moot.
            *self.trim.lock() = None;
            self.needs_trim.store(false, Release);
            if let Some(snap) = self.ctx.cas.as_ref() {
                snap.note_reset(path);
            }
            return Ok(());
        }
        self.prepare_append(file)?;
        let header = FrameHeader {
            codec: STORED_RAW,
            flags: FLAG_TRUNC,
            format: FRAME_FORMAT,
            logical_offset: len,
            logical_len: 0,
            stored_len: 0,
            payload_check: 0,
        };
        let off = self.allocate(FRAME_HEADER_LEN);
        file.write_at(off, &header.encode())?;
        // Not counted in bytes_stored: the marker is metadata written
        // outside the engine, and `bytes_out == bytes_stored` must keep
        // holding for stats consumers (both count chunk traffic only).
        if let Some(snap) = self.ctx.cas.as_ref() {
            snap.stage_trunc(path, off, len);
        }
        self.map.lock().truncate(len);
        Ok(())
    }

    /// Fills an allocated stored extent whose frame write failed with a
    /// padding frame (header only; the payload bytes stay garbage but
    /// the chain skips them), so one failed backend write does not
    /// leave an unscannable hole that makes the *whole* file unopenable
    /// — later successful chunks stay reachable. Best-effort: if this
    /// write fails too (the backend is hard down, not transiently
    /// erroring), the file stays broken past this point, which the
    /// failed close already reports.
    pub(crate) fn write_pad(
        &self,
        file: &dyn BackendFile,
        stored_off: u64,
        total_len: u64,
    ) -> io::Result<()> {
        debug_assert!(total_len >= FRAME_HEADER_LEN);
        let header = FrameHeader {
            codec: STORED_RAW,
            flags: FLAG_PAD,
            format: FRAME_FORMAT,
            logical_offset: 0,
            logical_len: 0,
            stored_len: (total_len - FRAME_HEADER_LEN) as u32,
            payload_check: 0,
        };
        file.write_at(stored_off, &header.encode())
    }

    /// Serves a logical read: plans frame coverage (newest wins, holes
    /// zero-filled), then decodes and **verifies** each touched frame.
    /// Returns the bytes produced (clamped at logical EOF). Any
    /// checksum mismatch or malformed frame fails the read with an
    /// integrity-marked error and counts `integrity_failures`; `buf`
    /// only ever receives verified bytes, so a failed read leaves the
    /// rest of it as the caller had it.
    pub fn read_logical(
        &self,
        file: &dyn BackendFile,
        path: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        self.read_pieces(file, path, offset, buf, false)
    }

    /// [`read_logical`](Self::read_logical) for a caller that owns
    /// `buf` and throws it away on error (the prefetch fill of a cache
    /// slot): a piece that covers its whole frame — a fill of one chunk
    /// is exactly that — is decoded and verified where it is wanted, so
    /// the chunk-sized copy out of the scratch disappears. If such a
    /// piece fails, it is zeroed before the error returns: an unverified
    /// byte never stays in `buf` either way.
    pub fn fill_logical(
        &self,
        file: &dyn BackendFile,
        path: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        self.read_pieces(file, path, offset, buf, true)
    }

    /// Locates a prefetch fill of `len` bytes at `offset` when they are
    /// exactly one whole visible frame — a chunk-aligned fill of a file
    /// written in chunk-sized frames. `None` for anything else (a hole,
    /// several frames, part of one), which
    /// [`fill_logical`](Self::fill_logical) serves.
    pub(crate) fn locate_fill(
        &self,
        file: &dyn BackendFile,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Option<io::Result<FrameFill>> {
        let (pieces, _) = self.map.lock().plan(offset, len);
        let frame = match pieces[..] {
            [PlanPiece::Data {
                frame,
                within: 0,
                len: l,
                ..
            }] if l == len && l == frame.logical_len as usize => frame,
            _ => return None,
        };
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        Some(match self.locate(file, path, &frame, &mut scratch) {
            Ok(extent) => Ok(FrameFill {
                frame,
                extent,
                scratch,
            }),
            Err(e) => {
                self.scratch.lock().push(scratch);
                Err(e)
            }
        })
    }

    /// Decodes and verifies a located fill whose read ended in `read`
    /// into `dst` (the fill's length), returning the bytes produced. On
    /// any failure `dst` is zeroed: an unverified byte never stays in
    /// it.
    pub(crate) fn finish_fill(
        &self,
        path: &str,
        fill: FrameFill,
        read: io::Result<()>,
        dst: &mut [u8],
    ) -> io::Result<usize> {
        let FrameFill {
            frame,
            extent,
            mut scratch,
        } = fill;
        let res = read.and_then(|()| self.finish(path, &frame, &extent, &mut scratch, Some(dst)));
        self.scratch.lock().push(scratch);
        res.map(|()| dst.len()).inspect_err(|_| dst.fill(0))
    }

    fn read_pieces(
        &self,
        file: &dyn BackendFile,
        path: &str,
        offset: u64,
        buf: &mut [u8],
        in_place: bool,
    ) -> io::Result<usize> {
        let (mut pieces, total) = self.map.lock().plan(offset, buf.len());
        // A frame's coverage can split into several pieces with pieces
        // of other frames between them (an overwrite in the middle).
        // The destinations are disjoint, so serve the pieces grouped by
        // frame: each frame is fetched once, into the one scratch.
        pieces.sort_by_key(|p| match p {
            PlanPiece::Data { frame, .. } => frame.stored_off,
            PlanPiece::Hole { .. } => u64::MAX,
        });
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        let mut held = None; // stored_off of the frame decoded in `scratch.out`
        for piece in pieces {
            match piece {
                PlanPiece::Hole { dst, len } => buf[dst..dst + len].fill(0),
                PlanPiece::Data {
                    dst,
                    frame,
                    within,
                    len,
                } => {
                    let piece = &mut buf[dst..dst + len];
                    if in_place && within == 0 && len == frame.logical_len as usize {
                        // The piece is the whole frame: decode and
                        // verify where the bytes are wanted. Until the
                        // digest agrees they are not the caller's to
                        // see.
                        self.fetch_frame(file, path, &frame, &mut scratch, Some(&mut *piece))
                            .inspect_err(|_| piece.fill(0))?;
                        continue;
                    }
                    if held != Some(frame.stored_off) {
                        self.fetch_frame(file, path, &frame, &mut scratch, None)?;
                        held = Some(frame.stored_off);
                    }
                    piece.copy_from_slice(&scratch.out[within..within + len]);
                }
            }
        }
        self.scratch.lock().push(scratch);
        Ok(total)
    }

    /// Reads, decodes and verifies one frame's logical payload: into
    /// `direct` (exactly `logical_len` bytes) when given, else into
    /// `s.out`. Only a verified payload is left in `s.out`; `direct`
    /// holds unspecified bytes on error, for the caller to clear.
    fn fetch_frame(
        &self,
        file: &dyn BackendFile,
        path: &str,
        f: &FrameEntry,
        s: &mut Scratch,
        direct: Option<&mut [u8]>,
    ) -> io::Result<()> {
        let e = self.locate(file, path, f, s)?;
        read_exact_at(e.source(file), e.off, &mut s.frame)?;
        self.finish(path, f, &e, s, direct)
    }

    /// Finds where frame `f`'s stored bytes live and sizes `s.frame`
    /// for them. A DATA frame's are its own payload; a REF
    /// frame's record is read here (it is small) and names the chunk.
    fn locate(
        &self,
        file: &dyn BackendFile,
        path: &str,
        f: &FrameEntry,
        s: &mut Scratch,
    ) -> io::Result<Extent> {
        let stats = &self.ctx.stats;
        if f.format != FRAME_FORMAT {
            // One reader: a check this build cannot recompute, or a
            // reference it cannot resolve, is a payload it cannot vouch
            // for.
            stats.bad_payload_checksum.fetch_add(1, Relaxed);
            return Err(integrity(
                stats,
                format!(
                    "chunk at {} of {path:?} has frame format {} (0: written before the \
                     payload digest; 1: before keyed references); only format \
                     {FRAME_FORMAT} can be read",
                    f.logical_offset, f.format
                ),
            ));
        }
        let own = Extent {
            origin: None,
            off: f.stored_off + FRAME_HEADER_LEN,
            codec: f.codec,
        };
        if f.flags & FLAG_REF == 0 {
            s.frame.resize(f.stored_len as usize, 0);
            return Ok(own);
        }
        let malformed = |what: String| {
            let at = f.logical_offset;
            integrity(
                stats,
                format!("reference record at {at} of {path:?} {what}"),
            )
        };
        let mut record = [0u8; REF_LEN];
        let r = match f.stored_len as usize {
            REF_LEN => {
                read_exact_at(file, own.off, &mut record).map(|()| ChunkRef::decode(&record))?
            }
            _ => None,
        };
        let r = r.ok_or_else(|| malformed(format!("is {} bytes, not {REF_LEN}", f.stored_len)))?;
        // The record's bytes carry no check of their own, and this
        // length sizes a buffer: no encoder stores more than the payload
        // it was given (the store-raw escape).
        if r.stored_len > f.logical_len {
            return Err(malformed(format!(
                "names {} stored bytes for a {}-byte chunk",
                r.stored_len, f.logical_len
            )));
        }
        let key = (r.hash, f.logical_len);
        let chunk = self.origin_handle(key).map_err(|e| {
            let chunk = cas_path(key);
            integrity(
                stats,
                format!("content-store chunk {chunk:?} unavailable: {e}"),
            )
        })?;
        s.frame.resize(r.stored_len as usize, 0);
        Ok(Extent {
            origin: Some((key, chunk)),
            off: FRAME_HEADER_LEN,
            codec: r.codec,
        })
    }

    /// Decodes the stored bytes located by `e` and verifies the result
    /// against frame `f`'s own check — so a stale or mismatched dedup
    /// origin is detected too.
    fn finish(
        &self,
        path: &str,
        f: &FrameEntry,
        e: &Extent,
        s: &mut Scratch,
        direct: Option<&mut [u8]>,
    ) -> io::Result<()> {
        let stats = &self.ctx.stats;
        let t0 = Instant::now();
        let Scratch { frame: stored, out } = s;
        // Stored bytes that do not decode are payload damage wherever
        // they live: inline in this file or in a CAS chunk.
        let undecodable = |err: io::Error| {
            stats.bad_payload_checksum.fetch_add(1, Relaxed);
            let detail = match &e.origin {
                Some((key, _)) => {
                    format!(
                        "content-store chunk {:?} undecodable: {err}",
                        cas_path(*key)
                    )
                }
                None => format!(
                    "chunk at {} of {path:?} undecodable: {err}",
                    f.logical_offset
                ),
            };
            integrity(stats, detail)
        };
        let logical_len = f.logical_len as usize;
        // `logical_len` comes from a header: bound it by what the
        // stored bytes can expand to before it sizes `out`.
        check_expansion(e.codec, stored.len(), logical_len).map_err(undecodable)?;
        let dst = match direct {
            Some(dst) => dst,
            None => {
                out.resize(logical_len, 0);
                &mut out[..]
            }
        };
        debug_assert_eq!(dst.len(), logical_len);
        decode_into(e.codec, stored, dst).map_err(undecodable)?;
        if payload_digest(dst).check != f.check {
            stats.bad_payload_checksum.fetch_add(1, Relaxed);
            return Err(integrity(
                stats,
                format!(
                    "chunk at {} of {path:?} failed its checksum",
                    f.logical_offset
                ),
            ));
        }
        let spent = t0.elapsed();
        stats
            .transform_ns
            .fetch_add(spent.as_nanos() as u64, Relaxed);
        if stats.stages.enabled() {
            stats.stages.transform_decode.record_dur(spent);
        }
        Ok(())
    }

    /// An open handle on the content-store chunk of `key`, served from
    /// the bounded per-file cache — a restart read resolving thousands
    /// of references into the same chunk must pay one backend open, not
    /// one per reference.
    fn origin_handle(&self, key: ChunkKey) -> io::Result<Arc<dyn BackendFile>> {
        if let Some((_, f)) = self.origins.lock().iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(f));
        }
        let opened: Arc<dyn BackendFile> = Arc::from(
            self.ctx
                .backend
                .open(&cas_path(key), OpenOptions::read_only())?,
        );
        let mut origins = self.origins.lock();
        if !origins.iter().any(|(k, _)| *k == key) {
            if origins.len() >= ORIGIN_CACHE_CAP {
                origins.remove(0);
            }
            origins.push((key, Arc::clone(&opened)));
        }
        Ok(opened)
    }
}

impl std::fmt::Debug for FileTransform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileTransform")
            .field("frames", &self.frame_count())
            .field("logical_len", &self.logical_len())
            .field("stored_tail", &self.stored_tail.load(Relaxed))
            .finish()
    }
}

/// Why a frame-chain scan stopped before the stored EOF — the damage
/// classes the recovery contract distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailDamage {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remained past the clean
    /// prefix — the classic torn tail of a crashed append.
    TruncatedHeader,
    /// A full header's worth of bytes was present but failed magic or
    /// CRC validation — a torn header, an unwritten (hole) region left
    /// by out-of-order completion, or bit rot.
    BadHeaderCrc,
    /// The header validated but its payload extends past the stored
    /// EOF — the payload write was cut short.
    TruncatedPayload,
}

/// The result of walking a framed file's chain under the recovery
/// contract: the clean prefix that survives, and the damage (if any)
/// that ended the walk.
#[derive(Debug, Clone, Copy)]
pub struct ScanOutcome {
    /// Stored length of the backing file at scan time.
    pub stored_len: u64,
    /// End of the clean frame prefix — every frame below this offset
    /// validated structurally; everything at or past it is discarded.
    pub clean_len: u64,
    /// Why the scan stopped early; `None` after a complete clean walk.
    pub damage: Option<TailDamage>,
}

/// The leading bytes of a stored file, read **once**: they decide
/// framed-vs-raw and hold the first frame header, so a scan — and fsck,
/// which also sniffs them for the manifest magic — pays one read for
/// both. fsck reads through a window that fetched a small file whole,
/// so there a one-frame CAS chunk costs one backend read in all.
#[derive(Debug, Clone, Copy)]
pub struct FileHead {
    /// Stored length of the backing file when the head was read.
    pub stored_len: u64,
    buf: [u8; FRAME_HEADER_LEN as usize],
}

impl FileHead {
    /// Reads the first `min(len, FRAME_HEADER_LEN)` bytes of `file`.
    pub fn read(file: &dyn BackendFile) -> io::Result<FileHead> {
        let stored_len = file.len()?;
        let mut head = FileHead {
            stored_len,
            buf: [0; FRAME_HEADER_LEN as usize],
        };
        let have = head.bytes().len();
        read_exact_at(file, 0, &mut head.buf[..have])?;
        Ok(head)
    }

    /// The bytes read: all of a file shorter than a frame header.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.stored_len.min(FRAME_HEADER_LEN) as usize]
    }

    /// Framed-vs-raw is decided by the magic prefix: a file shorter
    /// than the magic itself whose bytes match the magic's own prefix
    /// is a first frame torn almost immediately — framed (empty clean
    /// prefix) rather than a fragment to serve as raw bytes.
    pub fn is_framed(&self) -> bool {
        let magic = FRAME_MAGIC.to_le_bytes();
        let probe = self.bytes().len().min(magic.len());
        probe > 0 && self.buf[..probe] == magic[..probe]
    }
}

/// Walks a stored file's frame chain, calling `visit(stored_off,
/// header)` for every frame of the **clean prefix** in file order.
/// Returns `Ok(None)` when the file is raw (no frame magic at offset
/// 0) and `Ok(Some(outcome))` for a framed file. An error from `visit`
/// (fsck's visitor reads payloads) ends the walk and is returned.
///
/// This is the enforcement point of the crash-recovery contract
/// (DESIGN.md §6): frames are append-only and a mid-write crash can
/// only damage the unsynchronized tail region, so the first structural
/// failure — header overrunning EOF, magic/CRC mismatch, payload cut
/// short by EOF — **ends the chain** and everything from there on is
/// discarded rather than surfaced. Discarded bytes are unreachable
/// (the read planner only sees visited frames), so a torn tail can
/// never produce wrong bytes; a torn payload that stayed *in bounds*
/// passes this structural scan and is caught by the per-frame payload
/// checksum at read time instead. The single walker behind
/// [`FileTransform::attach`], [`scan_logical_len`], [`scan_outcome`]
/// and `crfs-fsck` — the only loop that decodes frame headers off a
/// stored file — so the open path, the metadata path and the repair
/// path cannot disagree on what survives.
pub fn walk_frames(
    file: &dyn BackendFile,
    head: &FileHead,
    mut visit: impl FnMut(u64, &FrameHeader) -> io::Result<()>,
) -> io::Result<Option<ScanOutcome>> {
    if !head.is_framed() {
        return Ok(None);
    }
    let stored_len = head.stored_len;
    let stopped = |clean_len, damage| {
        Ok(Some(ScanOutcome {
            stored_len,
            clean_len,
            damage,
        }))
    };
    let mut hdr = head.buf;
    let mut off = 0u64;
    while off < stored_len {
        if off + FRAME_HEADER_LEN > stored_len {
            return stopped(off, Some(TailDamage::TruncatedHeader));
        }
        if off > 0 {
            read_exact_at(file, off, &mut hdr)?;
        }
        let Ok(h) = FrameHeader::decode(&hdr) else {
            return stopped(off, Some(TailDamage::BadHeaderCrc));
        };
        let next = off + FRAME_HEADER_LEN + u64::from(h.stored_len);
        if next > stored_len {
            return stopped(off, Some(TailDamage::TruncatedPayload));
        }
        visit(off, &h)?;
        off = next;
    }
    stopped(stored_len, None)
}

/// Scans a backend file's frame headers under the recovery contract to
/// report its logical length; `None` when the file is raw (unframed).
/// A torn tail is discarded exactly as [`FileTransform::attach`]
/// discards it — the two share [`walk_frames`] and `FrameMap::apply`
/// — so `file_len` always reports the same length a subsequent `open`
/// will serve.
pub fn scan_logical_len(file: &dyn BackendFile) -> io::Result<Option<u64>> {
    let mut map = FrameMap::default();
    let outcome = walk_frames(file, &FileHead::read(file)?, |off, h| {
        map.apply(off, h);
        Ok(())
    })?;
    Ok(outcome.map(|_| map.logical_len))
}

/// Scans a framed file and reports the clean-prefix outcome without
/// building a frame map — the structural half of what `crfs-fsck`
/// checks. Returns `None` for raw files.
pub fn scan_outcome(file: &dyn BackendFile) -> io::Result<Option<ScanOutcome>> {
    walk_frames(file, &FileHead::read(file)?, |_, _| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn ctx(codec: CodecKind, dedup: bool) -> (Arc<TransformCtx>, Arc<CrfsStats>) {
        let stats = Arc::new(CrfsStats::new());
        let config = CrfsConfig::default().with_codec(codec).with_dedup(dedup);
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let ctx = TransformCtx::from_config(&config, backend, Arc::clone(&stats))
            .unwrap()
            .expect("ctx");
        (ctx, stats)
    }

    fn write_all(
        ft: &FileTransform,
        file: &dyn BackendFile,
        path: &Arc<str>,
        offset: u64,
        payload: &[u8],
    ) {
        ft.prepare_append(file).unwrap();
        let enc = ft.encode_chunk(offset, payload);
        let off = ft.allocate(enc.stored_bytes() as u64);
        file.write_at(off, enc.bytes()).unwrap();
        ft.commit(path, off, enc);
    }

    fn compressible(len: usize, seed: u8) -> Vec<u8> {
        let tile: Vec<u8> = (0..32).map(|i| seed.wrapping_add(i)).collect();
        tile.iter().cycle().take(len).cloned().collect()
    }

    #[test]
    fn frame_roundtrip_compresses_and_verifies() {
        let (ctx, stats) = ctx(CodecKind::Lz, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        let path: Arc<str> = "/f".into();
        let data = compressible(8192, 3);
        write_all(&ft, &*file, &path, 0, &data);

        assert_eq!(ft.logical_len(), 8192);
        let mut buf = vec![0u8; 8192];
        assert_eq!(ft.read_logical(&*file, &path, 0, &mut buf).unwrap(), 8192);
        assert_eq!(buf, data);
        let logical = stats.bytes_logical.load(Relaxed);
        let stored = stats.bytes_stored.load(Relaxed);
        assert_eq!(logical, 8192);
        assert!(stored < logical, "compressible data must shrink: {stored}");
        assert_eq!(stats.integrity_failures.load(Relaxed), 0);
    }

    #[test]
    fn scan_rebuilds_map_on_reattach() {
        let (ctx, _stats) = ctx(CodecKind::Rle, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        let path: Arc<str> = "/f".into();
        write_all(&ft, &*file, &path, 0, &compressible(4096, 1));
        write_all(&ft, &*file, &path, 4096, &compressible(1000, 2));
        drop(ft);

        // Fresh attach (a restart) must rebuild the same logical view.
        let ft = FileTransform::attach(Arc::clone(&ctx), &*file)
            .unwrap()
            .expect("framed file recognized");
        assert_eq!(ft.logical_len(), 5096);
        assert_eq!(ft.frame_count(), 2);
        let mut buf = vec![0u8; 5096];
        assert_eq!(ft.read_logical(&*file, &path, 0, &mut buf).unwrap(), 5096);
        assert_eq!(&buf[..4096], &compressible(4096, 1)[..]);
        assert_eq!(&buf[4096..], &compressible(1000, 2)[..]);
        assert_eq!(scan_logical_len(&*file).unwrap(), Some(5096));
    }

    #[test]
    fn pad_frames_keep_the_chain_walkable_past_failed_writes() {
        let (ctx, _stats) = ctx(CodecKind::Identity, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        let path: Arc<str> = "/f".into();
        write_all(&ft, &*file, &path, 0, &compressible(1000, 1));
        // A chunk whose backend write failed: its allocated extent is
        // padded so the chain skips it; later chunks stay reachable.
        let gap = ft.allocate(FRAME_HEADER_LEN + 500);
        ft.write_pad(&*file, gap, FRAME_HEADER_LEN + 500).unwrap();
        write_all(&ft, &*file, &path, 2000, &compressible(800, 2));

        let ft2 = FileTransform::attach(Arc::clone(&ctx), &*file)
            .unwrap()
            .expect("framed");
        assert_eq!(ft2.frame_count(), 2, "pad frame carries no content");
        assert_eq!(ft2.logical_len(), 2800);
        assert_eq!(scan_logical_len(&*file).unwrap(), Some(2800));
        let mut buf = vec![0u8; 1000];
        assert_eq!(ft2.read_logical(&*file, &path, 0, &mut buf).unwrap(), 1000);
        assert_eq!(buf, compressible(1000, 1));
        let mut buf = vec![0u8; 800];
        assert_eq!(
            ft2.read_logical(&*file, &path, 2000, &mut buf).unwrap(),
            800
        );
        assert_eq!(buf, compressible(800, 2));
    }

    #[test]
    fn torn_tail_is_discarded_by_attach_and_scan_alike() {
        let (ctx, stats) = ctx(CodecKind::Identity, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        let path: Arc<str> = "/f".into();
        write_all(&ft, &*file, &path, 0, &compressible(1000, 4));
        let clean = file.len().unwrap();
        write_all(&ft, &*file, &path, 1000, &compressible(1000, 6));
        // Tear the last frame: chop half its stored payload (a crashed
        // write). The recovery contract keeps the clean first frame and
        // discards the torn tail — on the open path and the metadata
        // scan alike.
        let stored = file.len().unwrap();
        file.set_len(stored - 100).unwrap();
        let ft2 = FileTransform::attach(Arc::clone(&ctx), &*file)
            .unwrap()
            .expect("framed");
        assert_eq!(ft2.logical_len(), 1000, "clean prefix survives");
        assert_eq!(ft2.frame_count(), 1);
        assert_eq!(
            ft2.stored_len(),
            clean,
            "stored tail resets to the clean prefix so new writes overwrite the tear"
        );
        assert_eq!(stats.torn_tails.load(Relaxed), 1, "damage is counted");
        let mut buf = vec![0u8; 1000];
        assert_eq!(ft2.read_logical(&*file, &path, 0, &mut buf).unwrap(), 1000);
        assert_eq!(buf, compressible(1000, 4), "surviving bytes are exact");
        assert_eq!(scan_logical_len(&*file).unwrap(), Some(1000));
        let outcome = scan_outcome(&*file).unwrap().expect("framed");
        assert_eq!(outcome.clean_len, clean);
        assert_eq!(outcome.damage, Some(TailDamage::TruncatedPayload));
        // Writing past the recovered tail reuses the torn region and
        // yields a fully clean chain again.
        write_all(&ft2, &*file, &path, 1000, &compressible(200, 7));
        assert!(scan_outcome(&*file).unwrap().unwrap().damage.is_none());

        // Trailing garbage shorter than a header is a truncated-header
        // tear: discarded the same way.
        let g = be.open("/g", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        write_all(&ft, &*g, &"/g".into(), 0, &compressible(500, 5));
        let glen = g.len().unwrap();
        g.write_at(glen, &[0u8; 13]).unwrap();
        assert_eq!(scan_logical_len(&*g).unwrap(), Some(500));
        let outcome = scan_outcome(&*g).unwrap().expect("framed");
        assert_eq!(outcome.clean_len, glen);
        assert_eq!(outcome.damage, Some(TailDamage::TruncatedHeader));

        // A header-sized run of garbage (an out-of-order-completion
        // hole) classifies as a bad header CRC.
        let h = be.open("/h", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        write_all(&ft, &*h, &"/h".into(), 0, &compressible(500, 5));
        let hlen = h.len().unwrap();
        h.write_at(hlen, &[0u8; 96]).unwrap();
        let before = stats.bad_header_crc.load(Relaxed);
        let fth = FileTransform::attach(Arc::clone(&ctx), &*h)
            .unwrap()
            .expect("framed");
        assert_eq!(fth.logical_len(), 500);
        assert_eq!(stats.bad_header_crc.load(Relaxed), before + 1);
    }

    #[test]
    fn first_frame_torn_inside_the_magic_is_framed_and_empty() {
        let (ctx, _stats) = ctx(CodecKind::Identity, false);
        let be = MemBackend::new();
        // A crash 3 bytes into the very first frame write leaves "CRF":
        // a prefix of the frame magic, so the file classifies as framed
        // with an empty clean prefix — never served raw.
        let file = be.open("/t", OpenOptions::create_truncate()).unwrap();
        file.write_at(0, &FRAME_MAGIC.to_le_bytes()[..3]).unwrap();
        let ft = FileTransform::attach(Arc::clone(&ctx), &*file)
            .unwrap()
            .expect("classified framed");
        assert_eq!(ft.logical_len(), 0);
        assert_eq!(ft.stored_len(), 0);
        assert_eq!(scan_logical_len(&*file).unwrap(), Some(0));
        // While a genuinely raw file of the same length is untouched.
        let raw = be.open("/r", OpenOptions::create_truncate()).unwrap();
        raw.write_at(0, b"xyz").unwrap();
        assert!(FileTransform::attach(ctx, &*raw).unwrap().is_none());
    }

    #[test]
    fn raw_files_are_left_alone() {
        let (ctx, _stats) = ctx(CodecKind::Lz, false);
        let be = MemBackend::new();
        let file = be.open("/raw", OpenOptions::create_truncate()).unwrap();
        file.write_at(0, b"plain old bytes, no frames here")
            .unwrap();
        assert!(FileTransform::attach(ctx, &*file).unwrap().is_none());
        assert_eq!(scan_logical_len(&*file).unwrap(), None);
    }

    #[test]
    fn overwrite_newest_wins_and_holes_zero() {
        let (ctx, _stats) = ctx(CodecKind::Identity, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(ctx);
        let path: Arc<str> = "/f".into();
        write_all(&ft, &*file, &path, 0, &[1u8; 100]);
        write_all(&ft, &*file, &path, 25, &[2u8; 50]);
        write_all(&ft, &*file, &path, 200, &[3u8; 10]); // hole at 100..200
        let mut buf = vec![0xFFu8; 210];
        assert_eq!(ft.read_logical(&*file, &path, 0, &mut buf).unwrap(), 210);
        assert!(buf[..25].iter().all(|&b| b == 1));
        assert!(buf[25..75].iter().all(|&b| b == 2));
        assert!(buf[75..100].iter().all(|&b| b == 1));
        assert!(buf[100..200].iter().all(|&b| b == 0), "hole reads zero");
        assert!(buf[200..].iter().all(|&b| b == 3));
        // EOF clamp.
        let mut tail = [0u8; 64];
        assert_eq!(ft.read_logical(&*file, &path, 205, &mut tail).unwrap(), 5);
        assert_eq!(ft.read_logical(&*file, &path, 210, &mut tail).unwrap(), 0);
    }

    #[test]
    fn dedup_emits_and_resolves_reference_frames() {
        let (ctx, stats) = ctx(CodecKind::Lz, true);
        let be: Arc<dyn Backend> = Arc::clone(&ctx.backend);
        let f1 = be.open("/e1", OpenOptions::create_truncate()).unwrap();
        let f2 = be.open("/e2", OpenOptions::create_truncate()).unwrap();
        let p1: Arc<str> = "/e1".into();
        let p2: Arc<str> = "/e2".into();
        let ft1 = FileTransform::fresh(Arc::clone(&ctx));
        let ft2 = FileTransform::fresh(Arc::clone(&ctx));
        let data = compressible(4096, 9);
        write_all(&ft1, &*f1, &p1, 0, &data);
        let before = stats.bytes_stored.load(Relaxed);
        write_all(&ft2, &*f2, &p2, 0, &data); // identical content: REF
        let ref_bytes = stats.bytes_stored.load(Relaxed) - before;
        assert_eq!(stats.dedup_hits.load(Relaxed), 1);
        assert_eq!(
            ref_bytes,
            FRAME_HEADER_LEN + REF_LEN as u64,
            "a 64-byte REF frame"
        );
        // Resolution across files, on a fresh attach (restart path).
        let ft2 = FileTransform::attach(Arc::clone(&ctx), &*f2)
            .unwrap()
            .expect("framed");
        let mut buf = vec![0u8; 4096];
        assert_eq!(ft2.read_logical(&*f2, &p2, 0, &mut buf).unwrap(), 4096);
        assert_eq!(buf, data);
        assert_eq!(stats.integrity_failures.load(Relaxed), 0);
    }

    #[test]
    fn reference_record_cannot_size_its_own_buffer() {
        let (ctx, _stats) = ctx(CodecKind::Lz, true);
        let be: Arc<dyn Backend> = Arc::clone(&ctx.backend);
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        let path: Arc<str> = "/f".into();
        let data = compressible(4096, 9);
        write_all(&ft, &*file, &path, 0, &data);
        let reference = file.len().unwrap();
        write_all(&ft, &*file, &path, 4096, &data); // same content: REF
                                                    // Rot in the record's stored length (bytes 16..20 of the REF
                                                    // payload, which no checksum covers): an error, not a 4 GiB
                                                    // buffer and a short read.
        file.write_at(reference + FRAME_HEADER_LEN + 16, &[0xFF; 4])
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let err = ft.read_logical(&*file, &path, 4096, &mut buf).unwrap_err();
        assert!(is_integrity_error(&err), "got: {err}");
        assert_eq!(ft.read_logical(&*file, &path, 0, &mut buf).unwrap(), 4096);
        assert_eq!(buf, data, "the first reference still reads");
    }

    #[test]
    fn corruption_is_detected_not_returned() {
        let (ctx, stats) = ctx(CodecKind::Rle, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(ctx);
        let path: Arc<str> = "/f".into();
        write_all(&ft, &*file, &path, 0, &compressible(2048, 5));
        // Flip a payload byte behind the map's back.
        let mut b = [0u8; 1];
        file.read_at(FRAME_HEADER_LEN + 2, &mut b).unwrap();
        file.write_at(FRAME_HEADER_LEN + 2, &[b[0] ^ 0xFF]).unwrap();
        let mut buf = vec![0u8; 2048];
        let err = ft.read_logical(&*file, &path, 0, &mut buf).unwrap_err();
        assert!(is_integrity_error(&err), "got: {err}");
        assert!(stats.integrity_failures.load(Relaxed) >= 1);
    }

    #[test]
    fn whole_frame_reads_decode_in_place_and_partial_ones_through_scratch() {
        let (ctx, _stats) = ctx(CodecKind::Lz, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(ctx);
        let path: Arc<str> = "/f".into();
        let (a, b) = (compressible(4096, 1), compressible(4096, 2));
        write_all(&ft, &*file, &path, 0, &a);
        write_all(&ft, &*file, &path, 4096, &b);
        let decoded_in_scratch = |ft: &FileTransform| {
            let idle = ft.scratch.lock();
            idle.iter().map(|s| s.out.len()).sum::<usize>()
        };
        // Two pieces, each a whole frame: straight into `buf`.
        let mut buf = vec![0xAAu8; 8192];
        assert_eq!(ft.fill_logical(&*file, &path, 0, &mut buf).unwrap(), 8192);
        assert_eq!((&buf[..4096], &buf[4096..]), (&a[..], &b[..]));
        assert_eq!(decoded_in_scratch(&ft), 0, "no scratch decode, no copy");
        // A read that covers a frame only partly decodes all of it
        // aside, verifies, and copies the part.
        let mut part = vec![0xAAu8; 1000];
        assert_eq!(
            ft.fill_logical(&*file, &path, 4000, &mut part).unwrap(),
            1000
        );
        assert_eq!((&part[..96], &part[96..]), (&a[4000..], &b[..904]));
        assert_eq!(decoded_in_scratch(&ft), 4096);
    }

    #[test]
    fn a_failed_in_place_decode_leaves_the_callers_piece_zeroed() {
        // Identity: the flipped byte decodes, so only the digest can
        // object — after the bytes are already in the caller's buffer.
        for (codec, flip_at) in [(CodecKind::Identity, 100), (CodecKind::Lz, 30)] {
            let (ctx, stats) = ctx(codec, false);
            let be = MemBackend::new();
            let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
            let ft = FileTransform::fresh(ctx);
            let path: Arc<str> = "/f".into();
            let good = compressible(2048, 3);
            write_all(&ft, &*file, &path, 0, &good);
            let second = file.len().unwrap();
            write_all(&ft, &*file, &path, 2048, &compressible(2048, 4));
            let at = second + FRAME_HEADER_LEN + flip_at;
            let mut b = [0u8; 1];
            file.read_at(at, &mut b).unwrap();
            file.write_at(at, &[b[0] ^ 0x04]).unwrap();

            let mut buf = vec![0xAAu8; 4096];
            let err = ft.fill_logical(&*file, &path, 0, &mut buf).unwrap_err();
            assert!(is_integrity_error(&err), "{codec:?}: {err}");
            assert_eq!(stats.bad_payload_checksum.load(Relaxed), 1, "{codec:?}");
            assert_eq!(&buf[..2048], &good[..], "the verified frame was served");
            assert!(
                buf[2048..].iter().all(|&b| b == 0),
                "{codec:?}: unverified bytes stayed in the filled buffer"
            );
            // A reader's own buffer is never a decode destination.
            let mut buf = vec![0xAAu8; 4096];
            let err = ft.read_logical(&*file, &path, 0, &mut buf).unwrap_err();
            assert!(is_integrity_error(&err), "{codec:?}: {err}");
            assert!(buf[2048..].iter().all(|&b| b == 0xAA), "{codec:?}");
        }
    }

    #[test]
    fn truncate_persists_via_marker_frames() {
        let (ctx, _stats) = ctx(CodecKind::Identity, false);
        let be = MemBackend::new();
        let file = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let ft = FileTransform::fresh(Arc::clone(&ctx));
        let path: Arc<str> = "/f".into();
        write_all(&ft, &*file, &path, 0, &[7u8; 1000]);
        ft.truncate(&path, &*file, 300).unwrap();
        assert_eq!(ft.logical_len(), 300);
        // Extend again: the cut range must stay a hole, per POSIX.
        ft.truncate(&path, &*file, 600).unwrap();
        let mut buf = vec![0xAAu8; 600];
        assert_eq!(ft.read_logical(&*file, &path, 0, &mut buf).unwrap(), 600);
        assert!(buf[..300].iter().all(|&b| b == 7));
        assert!(buf[300..].iter().all(|&b| b == 0));
        // The same state must survive a rescan (restart).
        let ft2 = FileTransform::attach(ctx, &*file).unwrap().expect("framed");
        assert_eq!(ft2.logical_len(), 600);
        let mut buf2 = vec![0xAAu8; 600];
        ft2.read_logical(&*file, &path, 0, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
        // Truncate to zero resets the stored log.
        ft2.truncate(&path, &*file, 0).unwrap();
        assert_eq!(ft2.logical_len(), 0);
        assert_eq!(file.len().unwrap(), 0);
    }
}
