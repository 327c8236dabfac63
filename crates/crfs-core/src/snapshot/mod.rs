//! The versioned snapshot store: durable incremental checkpoints with
//! cross-epoch chunk sharing and garbage collection. It is what
//! [`CrfsConfig::dedup`](crate::CrfsConfig::dedup) turns on.
//!
//! Checkpoint workloads rewrite mostly-unchanged images every epoch
//! (stdchk's observation). This module keeps the chunks behind its
//! [`DedupIndex`] in a *persistent* versioned store:
//!
//! - every unique chunk's encoded bytes live once, in a
//!   **content-addressed store** — one standalone single-frame file per
//!   chunk under [`CAS_DIR`], named by content hash, so sharing works
//!   across files, epochs, and mounts, and the unit of reclamation is a
//!   whole file (no log compaction, no moving stored offsets that
//!   persisted references point at);
//! - user files become logs of tiny *reference* frames into the CAS,
//!   so an epoch that rewrites a 90%-unchanged image stores ~10% of its
//!   bytes (the delta) plus reference records;
//! - [`SnapshotStore::seal`] (driven by
//!   [`Crfs::advance_epoch`](crate::Crfs::advance_epoch)) writes an
//!   **epoch manifest** ([`manifest`]): every file's flattened frame
//!   history, each chunk pinned by hash + CAS location. A manifest
//!   either seals completely (CRC-validated) or does not exist — a
//!   crash mid-epoch loses only the unsealed epoch, never a sealed one;
//! - restart from *any retained epoch*: the manifest's records
//!   synthesize an in-memory frame log of reference frames
//!   ([`synthesize_log`]) that the ordinary transform scanner, read
//!   planner, and prefetcher consume unchanged;
//! - a **mark-and-sweep GC** ([`SnapshotStore::gc`]) reclaims CAS
//!   chunks reachable from no retained manifest, no in-flight write,
//!   and no staged (unsealed) record. Restart views *pin* their epoch,
//!   so retention never retires a manifest a reader still needs.
//!
//! Refcount invariants (checked by `crfs-fsck`, see [`crate::fsck`]):
//! every chunk record of every retained manifest points at an existing
//! origin long enough to hold its frame; every CAS file is referenced
//! by at least one retained manifest (or is in-flight/staged, a state
//! only a live mount can observe). Chunks are only ever freed by GC,
//! and GC marks under the same lock writers register under — a chunk
//! can never be swept between its dedup lookup and its commit.

pub mod manifest;

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::{read_exact_at, Backend, BackendFile, OpenOptions};
use crate::stats::CrfsStats;
use crate::transform::codec::STORED_RAW;
use crate::transform::dedup::{DedupIndex, DEDUP_KEEP_EPOCHS};
use crate::transform::frame::{FrameHeader, FLAG_REF, FLAG_TRUNC, FRAME_FORMAT, FRAME_HEADER_LEN};
use crate::transform::REF_META_LEN;
use manifest::{compact, ChunkRecord, Manifest, Record};

/// Backend directory holding all snapshot state (manifests + CAS).
pub const SNAP_DIR: &str = "/.crfs-snap";
/// Backend directory holding the content-addressed chunk files.
pub const CAS_DIR: &str = "/.crfs-snap/cas";

/// A chunk's content-store identity: (128-bit content hash, exact
/// logical length) — the same key the [`DedupIndex`] uses.
pub type ChunkKey = (u128, u32);

/// The CAS file path storing the chunk with this key.
pub fn cas_path(key: ChunkKey) -> String {
    format!("{CAS_DIR}/{:032x}-{:x}", key.0, key.1)
}

/// Parses a [`CAS_DIR`] entry name back into its chunk key; `None` for
/// foreign files (which GC leaves alone and fsck flags).
pub fn parse_cas_name(name: &str) -> Option<ChunkKey> {
    let (hash, len) = name.split_once('-')?;
    if hash.len() != 32 {
        return None;
    }
    Some((
        u128::from_str_radix(hash, 16).ok()?,
        u32::from_str_radix(len, 16).ok()?,
    ))
}

/// The manifest file path sealing `epoch`.
pub fn manifest_path(epoch: u64) -> String {
    format!("{SNAP_DIR}/manifest-{epoch}.mfst")
}

/// Parses a [`SNAP_DIR`] entry name into its epoch; `None` for
/// non-manifest entries (the `cas` directory itself, foreign files).
pub fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-")?
        .strip_suffix(".mfst")?
        .parse()
        .ok()
}

/// What one [`SnapshotStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// CAS chunk files examined.
    pub scanned_chunks: usize,
    /// Unreachable chunk files unlinked.
    pub reclaimed_chunks: usize,
    /// Stored bytes those files held.
    pub reclaimed_bytes: u64,
    /// Wall time the sweep held the store lock (writers registering new
    /// chunks block for this long — the honest GC pause).
    pub pause: Duration,
}

/// Keeps a chunk key unreclaimable while its write is between dedup
/// lookup and commit. Dropping the guard (after the record is staged,
/// or on the failure path) releases the key to normal GC rules.
pub struct InflightGuard {
    store: Arc<SnapshotStore>,
    key: ChunkKey,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut inner = self.store.inner.lock();
        if let Some(n) = inner.inflight.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                inner.inflight.remove(&self.key);
            }
        }
    }
}

/// Per-file records accumulated since the last seal.
#[derive(Default)]
struct FileStage {
    /// The file's pre-epoch history no longer applies (truncate-to-zero
    /// or re-create): seal starts from the staged records alone.
    reset: bool,
    /// The file was unlinked (or renamed away): seal drops it entirely.
    removed: bool,
    /// Records staged this epoch, keyed by the stored offset their
    /// frame landed at in the user file's log — workers commit out of
    /// completion order, and sorting by stored offset restores
    /// allocation order, the newest-wins authority.
    records: Vec<(u64, Record)>,
}

/// State behind the store lock.
#[derive(Default)]
struct Inner {
    /// Epoch the next [`seal`](SnapshotStore::seal) will write.
    next_epoch: u64,
    /// Flattened per-file records of the newest sealed manifest — the
    /// base the next seal extends.
    carried: HashMap<String, Vec<Record>>,
    /// Per-file records staged since that seal.
    staged: HashMap<String, FileStage>,
    /// Retained manifests: epoch → the distinct chunk keys it references.
    manifests: BTreeMap<u64, Vec<ChunkKey>>,
    /// How many retained manifests reference each chunk key.
    refcounts: HashMap<ChunkKey, u32>,
    /// Chunk keys between dedup lookup and commit (see [`InflightGuard`]).
    inflight: HashMap<ChunkKey, u32>,
    /// Open restart views per epoch: a pinned manifest survives
    /// retention until its last reader closes.
    pins: HashMap<u64, u32>,
}

/// The mount-scoped snapshot store. One per mount when
/// [`CrfsConfig::dedup`](crate::CrfsConfig::dedup) is on; it owns the
/// dedup index and is shared by the transform stage (lookups, chunk
/// storage + staging), `fs.rs`
/// (seal / GC / restart views), and `crfs-fsck` (path helpers).
pub struct SnapshotStore {
    backend: Arc<dyn Backend>,
    stats: Arc<CrfsStats>,
    keep_epochs: usize,
    inner: Mutex<Inner>,
    /// Content key → CAS file, for dedup lookups (see [`DedupIndex`]).
    index: DedupIndex,
}

impl SnapshotStore {
    /// Opens (or initializes) the snapshot state under `backend`,
    /// recovering from whatever a previous mount left behind: every
    /// manifest that decodes intact is adopted (refcounts rebuilt from
    /// scratch), a torn manifest — a crash mid-seal — is skipped, and
    /// the newest intact manifest becomes the base the next epoch
    /// extends. CAS chunks referenced by no adopted manifest are left
    /// for the next [`gc`](Self::gc).
    pub fn open(
        backend: Arc<dyn Backend>,
        stats: Arc<CrfsStats>,
        keep_epochs: usize,
    ) -> io::Result<Arc<SnapshotStore>> {
        if !backend.exists(SNAP_DIR) {
            backend.mkdir(SNAP_DIR)?;
        }
        if !backend.exists(CAS_DIR) {
            backend.mkdir(CAS_DIR)?;
        }
        let store = SnapshotStore {
            backend,
            stats,
            keep_epochs: keep_epochs.max(1),
            inner: Mutex::new(Inner::default()),
            index: DedupIndex::new(DEDUP_KEEP_EPOCHS),
        };
        let mut inner = Inner::default();
        let mut epochs: Vec<u64> = store
            .backend
            .list_dir(SNAP_DIR)?
            .iter()
            .filter_map(|n| parse_manifest_name(n))
            .collect();
        epochs.sort_unstable();
        for &epoch in &epochs {
            // A manifest that fails to decode was torn by a crash
            // mid-seal: that epoch never committed. Skip it (crfs-fsck
            // reports and removes the remains).
            let Ok(m) = store.read_manifest(epoch) else {
                continue;
            };
            inner.manifests.insert(epoch, manifest_keys(&m));
            for key in &inner.manifests[&epoch] {
                *inner.refcounts.entry(*key).or_insert(0) += 1;
            }
            inner.carried = m.files.into_iter().collect();
            inner.next_epoch = epoch + 1;
        }
        // Seed the dedup index with the newest manifest's chunks, so
        // the first epoch after a restart still dedups against
        // everything already in the store. Only a record naming its
        // own CAS file is an origin: a pre-digest record is keyed by
        // another hash, and a degraded inline chunk lives in a user
        // file that its owner may rewrite or unlink.
        for records in inner.carried.values() {
            for r in records {
                match r {
                    Record::Chunk(c)
                        if c.format == FRAME_FORMAT
                            && c.origin_off == 0
                            && c.origin_path == cas_path((c.hash, c.logical_len)) =>
                    {
                        store.index.insert(
                            c.hash,
                            c.logical_len,
                            c.origin_path.as_str().into(),
                            0,
                            c.stored_len,
                            c.codec,
                        )
                    }
                    _ => {}
                }
            }
        }
        *store.inner.lock() = inner;
        Ok(Arc::new(store))
    }

    /// The dedup index over this store's chunks.
    pub fn index(&self) -> &DedupIndex {
        &self.index
    }

    /// Registers `key` as in-flight *before* the dedup lookup that may
    /// resolve to it — from this moment until the returned guard drops,
    /// GC will not reclaim the chunk, closing the lookup→commit race.
    pub fn begin_chunk(self: &Arc<Self>, key: ChunkKey) -> InflightGuard {
        *self.inner.lock().inflight.entry(key).or_insert(0) += 1;
        InflightGuard {
            store: Arc::clone(self),
            key,
        }
    }

    /// Stores one encoded chunk (`frame` = standalone 40-byte header +
    /// stored payload, `check` = the logical payload's digest check,
    /// as the caller computed it for the frame) in the CAS,
    /// deduplicating against a chunk already on disk: an existing file
    /// whose frame validates, is of this build's format and matches
    /// `check` is reused as-is — even
    /// if an earlier mount encoded it with a different codec, since
    /// reference records carry the origin's codec. A file that exists
    /// but does not validate (a torn CAS write of a crashed mount no GC
    /// pass has collected yet) is rewritten in place. A reused file is
    /// synced first: a mount that died between its write and its sync
    /// can leave it whole in the page cache only, and a seal must not
    /// name a chunk this mount never made durable. Returns the
    /// `(codec, stored_len)` reference records must use.
    ///
    /// The caller must hold an [`InflightGuard`] for `key`.
    pub fn store_chunk(&self, key: ChunkKey, frame: &[u8], check: u64) -> io::Result<(u8, u32)> {
        let path = cas_path(key);
        let file = self.backend.open(
            &path,
            OpenOptions {
                create: true,
                ..OpenOptions::read_write()
            },
        )?;
        let len = file.len()?;
        if len >= FRAME_HEADER_LEN {
            let mut hdr = [0u8; FRAME_HEADER_LEN as usize];
            read_exact_at(&*file, 0, &mut hdr)?;
            if let Ok(h) = FrameHeader::decode(&hdr) {
                if h.flags == 0
                    && h.format == FRAME_FORMAT
                    && h.payload_check == check
                    && h.logical_len == key.1
                    && FRAME_HEADER_LEN + u64::from(h.stored_len) == len
                {
                    file.sync()?;
                    return Ok((h.codec, h.stored_len));
                }
            }
        }
        if len > 0 {
            file.set_len(0)?;
        }
        file.write_at(0, frame)?;
        file.sync()?;
        self.stats.snapshot_chunks.fetch_add(1, Relaxed);
        self.stats
            .snapshot_bytes
            .fetch_add(frame.len() as u64, Relaxed);
        let h = FrameHeader::decode(&frame[..FRAME_HEADER_LEN as usize])
            .expect("caller passed a valid frame");
        Ok((h.codec, h.stored_len))
    }

    /// Stages one committed chunk of `path` for the next seal.
    /// `stored_off` is where the chunk's (reference) frame landed in
    /// the user file's log — the seal's ordering key.
    pub fn stage_chunk(&self, path: &str, stored_off: u64, rec: ChunkRecord) {
        let mut inner = self.inner.lock();
        inner
            .staged
            .entry(path.to_string())
            .or_default()
            .records
            .push((stored_off, Record::Chunk(rec)));
    }

    /// Stages a persistent truncation of `path` to `new_len`
    /// (`stored_off` = the marker frame's offset).
    pub fn stage_trunc(&self, path: &str, stored_off: u64, new_len: u64) {
        let mut inner = self.inner.lock();
        inner
            .staged
            .entry(path.to_string())
            .or_default()
            .records
            .push((stored_off, Record::Trunc { new_len }));
    }

    /// Notes that `path`'s stored log was reset (truncate-to-zero or
    /// re-create): the next seal starts the file from this epoch's
    /// records alone.
    pub fn note_reset(&self, path: &str) {
        let mut inner = self.inner.lock();
        let stage = inner.staged.entry(path.to_string()).or_default();
        stage.reset = true;
        stage.removed = false;
        stage.records.clear();
    }

    /// Notes that `path` was unlinked: the next seal drops it.
    pub fn note_unlink(&self, path: &str) {
        let mut inner = self.inner.lock();
        let stage = inner.staged.entry(path.to_string()).or_default();
        stage.reset = true;
        stage.removed = true;
        stage.records.clear();
    }

    /// Notes a rename: `from`'s effective history (carried + staged)
    /// moves to `to`, and `from` is dropped at the next seal. The moved
    /// records keep their CAS origins, which rename does not disturb.
    pub fn note_rename(&self, from: &str, to: &str) {
        let mut inner = self.inner.lock();
        let moved = {
            let stage = inner.staged.remove(from).unwrap_or_default();
            let mut records: Vec<Record> = if stage.reset {
                Vec::new()
            } else {
                inner.carried.get(from).cloned().unwrap_or_default()
            };
            let mut staged = stage.records;
            staged.sort_by_key(|(off, _)| *off);
            records.extend(staged.into_iter().map(|(_, r)| r));
            records
        };
        let gone = inner.staged.entry(from.to_string()).or_default();
        gone.reset = true;
        gone.removed = true;
        gone.records.clear();
        let dst = inner.staged.entry(to.to_string()).or_default();
        dst.reset = true;
        dst.removed = false;
        // Synthetic ascending keys: any frame appended to `to` after
        // the rename allocates past the renamed log's real tail, which
        // is comfortably beyond these indices.
        dst.records = moved
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();
    }

    /// Seals the current epoch: merges every staged file's records onto
    /// its carried history (compacted, see [`manifest::compact`]),
    /// writes + syncs the epoch manifest, bumps refcounts for its
    /// chunks, and retires manifests beyond the retention window (the
    /// newest `keep_epochs`, pinned epochs excluded). Returns the
    /// sealed epoch number.
    pub fn seal(&self) -> io::Result<u64> {
        let t0 = self.stats.stages.timer();
        let mut inner = self.inner.lock();
        let mut files: BTreeMap<String, Vec<Record>> = inner.carried.drain().collect();
        for (path, stage) in std::mem::take(&mut inner.staged) {
            if stage.removed {
                files.remove(&path);
                continue;
            }
            let mut records = if stage.reset {
                Vec::new()
            } else {
                files.remove(&path).unwrap_or_default()
            };
            let mut staged = stage.records;
            staged.sort_by_key(|(off, _)| *off);
            records.extend(staged.into_iter().map(|(_, r)| r));
            files.insert(path, compact(records));
        }
        let epoch = inner.next_epoch;
        let m = Manifest {
            epoch,
            files: files.into_iter().collect(),
        };
        let path = manifest_path(epoch);
        let file = self.backend.open(&path, OpenOptions::create_truncate())?;
        file.write_at(0, &m.encode())?;
        file.sync()?;
        let keys = manifest_keys(&m);
        for key in &keys {
            *inner.refcounts.entry(*key).or_insert(0) += 1;
        }
        inner.manifests.insert(epoch, keys);
        inner.carried = m.files.into_iter().collect();
        inner.next_epoch = epoch + 1;
        self.stats.snapshot_manifests.fetch_add(1, Relaxed);
        self.enforce_retention(&mut inner);
        if let Some(t0) = t0 {
            self.stats.stages.snapshot_seal.record_dur(t0.elapsed());
        }
        self.stats.flight.record(
            crate::obs::EventKind::ManifestSealed,
            None,
            epoch,
            inner.carried.len() as u64,
        );
        Ok(epoch)
    }

    /// Retires manifests beyond the newest `keep_epochs`, skipping
    /// pinned epochs. Best-effort: a manifest whose unlink fails stays
    /// adopted (and retryable) — mount recovery rebuilds from whatever
    /// is actually on disk, so bookkeeping only ever trails the disk,
    /// never leads it.
    fn enforce_retention(&self, inner: &mut Inner) {
        let retire: Vec<u64> = inner
            .manifests
            .keys()
            .rev()
            .skip(self.keep_epochs)
            .filter(|e| !inner.pins.contains_key(e))
            .copied()
            .collect();
        for epoch in retire {
            if self.backend.unlink(&manifest_path(epoch)).is_err() {
                continue;
            }
            let keys = inner.manifests.remove(&epoch).unwrap_or_default();
            for key in keys {
                if let Some(n) = inner.refcounts.get_mut(&key) {
                    *n -= 1;
                    if *n == 0 {
                        inner.refcounts.remove(&key);
                    }
                }
            }
        }
    }

    /// Mark-and-sweep garbage collection: reclaims every CAS chunk
    /// referenced by no retained manifest, no staged record, and no
    /// in-flight write. Runs under the store lock, so writers
    /// registering new chunks wait out the sweep ([`GcReport::pause`])
    /// and the mark set cannot go stale mid-sweep. Reclaimed keys are
    /// also dropped from the dedup index so no later lookup resolves
    /// to freed bytes. Fails fast on an unlink error — already-reclaimed chunks
    /// stay consistently dropped; nothing reachable was touched.
    pub fn gc(&self) -> io::Result<GcReport> {
        let t0 = Instant::now();
        let inner = self.inner.lock();
        let mut mark: HashSet<ChunkKey> = inner.refcounts.keys().copied().collect();
        mark.extend(inner.inflight.keys().copied());
        for records in inner.carried.values() {
            mark.extend(chunk_keys(records));
        }
        for stage in inner.staged.values() {
            mark.extend(chunk_keys(stage.records.iter().map(|(_, r)| r)));
        }
        let names = self.backend.list_dir(CAS_DIR)?;
        self.stats.flight.record(
            crate::obs::EventKind::GcMark,
            None,
            mark.len() as u64,
            names.len() as u64,
        );
        let mut report = GcReport {
            scanned_chunks: names.len(),
            ..GcReport::default()
        };
        for name in names {
            let Some(key) = parse_cas_name(&name) else {
                continue; // foreign file: fsck's department
            };
            if mark.contains(&key) {
                continue;
            }
            let path = cas_path(key);
            let len = self.backend.file_len(&path).unwrap_or(0);
            self.backend.unlink(&path)?;
            self.index.remove(key.0, key.1);
            self.stats
                .flight
                .record(crate::obs::EventKind::GcFree, Some(&path), 0, len);
            report.reclaimed_chunks += 1;
            report.reclaimed_bytes += len;
        }
        report.pause = t0.elapsed();
        if self.stats.stages.enabled() {
            self.stats.stages.gc_pause.record_dur(report.pause);
        }
        self.stats
            .gc_reclaimed_chunks
            .fetch_add(report.reclaimed_chunks as u64, Relaxed);
        self.stats
            .gc_reclaimed_bytes
            .fetch_add(report.reclaimed_bytes, Relaxed);
        Ok(report)
    }

    /// The retained epochs, oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        self.inner.lock().manifests.keys().copied().collect()
    }

    /// Pins `epoch` against retention while a restart view reads it.
    /// Fails with `NotFound` if the epoch is not retained.
    pub fn pin(&self, epoch: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if !inner.manifests.contains_key(&epoch) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("snapshot epoch {epoch} is not retained"),
            ));
        }
        *inner.pins.entry(epoch).or_insert(0) += 1;
        Ok(())
    }

    /// Releases one pin on `epoch`; the last release lets retention
    /// retire the manifest if it has aged out of the window.
    pub fn unpin(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        if let Some(n) = inner.pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                inner.pins.remove(&epoch);
            }
        }
        self.enforce_retention(&mut inner);
    }

    /// Loads `path`'s record list from the sealed manifest of `epoch`;
    /// `Ok(None)` when the file did not exist in that epoch. The caller
    /// should hold a [`pin`](Self::pin) on the epoch.
    pub fn manifest_records(&self, epoch: u64, path: &str) -> io::Result<Option<Vec<Record>>> {
        if !self.inner.lock().manifests.contains_key(&epoch) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("snapshot epoch {epoch} is not retained"),
            ));
        }
        let m = self.read_manifest(epoch)?;
        Ok(m.files
            .into_iter()
            .find(|(p, _)| p == path)
            .map(|(_, records)| records))
    }

    /// The file paths captured by the sealed manifest of `epoch`.
    pub fn manifest_paths(&self, epoch: u64) -> io::Result<Vec<String>> {
        let m = self.read_manifest(epoch)?;
        Ok(m.files.into_iter().map(|(p, _)| p).collect())
    }

    fn read_manifest(&self, epoch: u64) -> io::Result<Manifest> {
        let file = self
            .backend
            .open(&manifest_path(epoch), OpenOptions::read_only())?;
        let len = file.len()?;
        let mut buf = vec![0u8; len as usize];
        read_exact_at(&*file, 0, &mut buf)?;
        Manifest::decode(&buf)
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SnapshotStore")
            .field("next_epoch", &inner.next_epoch)
            .field("retained", &inner.manifests.len())
            .field("refcounted_chunks", &inner.refcounts.len())
            .field("keep_epochs", &self.keep_epochs)
            .field("index", &self.index)
            .finish()
    }
}

/// The distinct chunk keys a manifest references.
fn manifest_keys(m: &Manifest) -> Vec<ChunkKey> {
    let mut keys: HashSet<ChunkKey> = HashSet::new();
    for (_, records) in &m.files {
        keys.extend(chunk_keys(records));
    }
    keys.into_iter().collect()
}

fn chunk_keys<'a, I>(records: I) -> impl Iterator<Item = ChunkKey> + 'a
where
    I: IntoIterator<Item = &'a Record>,
    I::IntoIter: 'a,
{
    records.into_iter().filter_map(|r| match r {
        Record::Chunk(c) => Some(c.key()),
        Record::Trunc { .. } => None,
    })
}

/// Synthesizes an in-memory frame log replaying `records`: one
/// reference frame per chunk record (pointing at its CAS / origin
/// location) and one truncation marker per trunc record, in manifest
/// order. Feeding the result to the ordinary
/// [`FileTransform::attach`](crate::transform::FileTransform::attach)
/// scanner reproduces the file's logical state at seal time byte-exactly
/// — restart needs no special read path.
pub fn synthesize_log(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        match r {
            Record::Chunk(c) => {
                let mut payload = Vec::with_capacity(REF_META_LEN + c.origin_path.len());
                payload.extend_from_slice(&c.origin_off.to_le_bytes());
                payload.extend_from_slice(&c.stored_len.to_le_bytes());
                payload.push(c.codec);
                payload.extend_from_slice(&[0u8; 3]);
                payload.extend_from_slice(c.origin_path.as_bytes());
                let header = FrameHeader {
                    codec: STORED_RAW,
                    flags: FLAG_REF,
                    // The record's own format, so a view of a pre-digest
                    // epoch reads as unverifiable, not as a mismatch.
                    format: c.format,
                    logical_offset: c.logical_offset,
                    logical_len: c.logical_len,
                    stored_len: payload.len() as u32,
                    payload_check: c.check,
                };
                out.extend_from_slice(&header.encode());
                out.extend_from_slice(&payload);
            }
            Record::Trunc { new_len } => {
                let header = FrameHeader {
                    codec: STORED_RAW,
                    flags: FLAG_TRUNC,
                    format: FRAME_FORMAT,
                    logical_offset: *new_len,
                    logical_len: 0,
                    stored_len: 0,
                    payload_check: 0,
                };
                out.extend_from_slice(&header.encode());
            }
        }
    }
    out
}

/// A read-only in-memory [`BackendFile`] over a synthesized frame log —
/// the "backing file" of a restart view. Reads serve from the buffer;
/// writes and truncation are refused (a snapshot is immutable).
pub struct SnapshotLogFile {
    bytes: Vec<u8>,
}

impl SnapshotLogFile {
    /// Wraps a synthesized log (see [`synthesize_log`]).
    pub fn new(bytes: Vec<u8>) -> SnapshotLogFile {
        SnapshotLogFile { bytes }
    }
}

impl BackendFile for SnapshotLogFile {
    fn write_at(&self, _offset: u64, _data: &[u8]) -> io::Result<()> {
        Err(read_only())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let len = self.bytes.len() as u64;
        if offset >= len {
            return Ok(0);
        }
        let n = buf.len().min((len - offset) as usize);
        buf[..n].copy_from_slice(&self.bytes[offset as usize..offset as usize + n]);
        Ok(n)
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }

    fn set_len(&self, _len: u64) -> io::Result<()> {
        Err(read_only())
    }
}

fn read_only() -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        "snapshot views are read-only",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::transform::frame::payload_digest;

    fn store(backend: &Arc<dyn Backend>, keep: usize) -> Arc<SnapshotStore> {
        SnapshotStore::open(Arc::clone(backend), Arc::new(CrfsStats::new()), keep).unwrap()
    }

    fn mem() -> Arc<dyn Backend> {
        Arc::new(MemBackend::new())
    }

    /// Stores `payload` (identity-coded) in the CAS and returns the
    /// staged-ready chunk record placing it at `logical_offset`.
    fn put_chunk(s: &Arc<SnapshotStore>, logical_offset: u64, payload: &[u8]) -> ChunkRecord {
        let digest = payload_digest(payload);
        let key = (digest.key, payload.len() as u32);
        let check = digest.check;
        let header = FrameHeader {
            codec: STORED_RAW,
            flags: 0,
            format: FRAME_FORMAT,
            logical_offset: 0,
            logical_len: payload.len() as u32,
            stored_len: payload.len() as u32,
            payload_check: check,
        };
        let mut frame = header.encode().to_vec();
        frame.extend_from_slice(payload);
        let guard = s.begin_chunk(key);
        let (codec, stored_len) = s.store_chunk(key, &frame, check).unwrap();
        drop(guard);
        ChunkRecord {
            hash: key.0,
            logical_offset,
            logical_len: payload.len() as u32,
            format: FRAME_FORMAT,
            check,
            origin_path: cas_path(key),
            origin_off: 0,
            stored_len,
            codec,
        }
    }

    #[test]
    fn seal_writes_manifest_and_recovery_adopts_it() {
        let be = mem();
        let s = store(&be, 4);
        let rec = put_chunk(&s, 0, b"epoch zero bytes");
        s.stage_chunk("/f", 0, rec.clone());
        s.stage_trunc("/f", 100, 10);
        let epoch = s.seal().unwrap();
        assert_eq!(epoch, 0);
        assert!(be.exists(&manifest_path(0)));

        // A second store over the same backend (a restart) adopts the
        // sealed state: same epochs, same records, next epoch follows.
        let s2 = store(&be, 4);
        assert_eq!(s2.epochs(), vec![0]);
        let records = s2.manifest_records(0, "/f").unwrap().expect("file");
        assert_eq!(
            records,
            vec![Record::Chunk(rec), Record::Trunc { new_len: 10 }]
        );
        assert_eq!(s2.seal().unwrap(), 1, "next epoch continues the line");
    }

    #[test]
    fn unchanged_files_carry_forward_and_share_chunks() {
        let be = mem();
        let s = store(&be, 4);
        s.stage_chunk("/a", 0, put_chunk(&s, 0, b"shared across epochs"));
        s.seal().unwrap();
        // Epoch 1 stages nothing for /a: the manifest still carries it.
        s.stage_chunk("/b", 0, put_chunk(&s, 0, b"fresh in epoch one"));
        s.seal().unwrap();
        assert!(s.manifest_records(1, "/a").unwrap().is_some());
        assert!(s.manifest_records(1, "/b").unwrap().is_some());
        // Both manifests reference the shared chunk; GC reclaims nothing.
        let report = s.gc().unwrap();
        assert_eq!(report.reclaimed_chunks, 0);
        assert_eq!(report.scanned_chunks, 2);
    }

    #[test]
    fn store_chunk_dedups_against_disk() {
        let be = mem();
        let s = store(&be, 4);
        let r1 = put_chunk(&s, 0, b"same payload");
        let r2 = put_chunk(&s, 4096, b"same payload");
        assert_eq!(r1.origin_path, r2.origin_path);
        assert_eq!(
            be.list_dir(CAS_DIR).unwrap().len(),
            1,
            "second store reused the first file"
        );
        // A torn CAS file (crash remnant) is rewritten, not reused.
        let torn = cas_path((r1.hash, r1.logical_len));
        let f = be.open(&torn, OpenOptions::read_write()).unwrap();
        f.set_len(FRAME_HEADER_LEN + 3).unwrap();
        let r3 = put_chunk(&s, 0, b"same payload");
        assert_eq!(r3.stored_len, r1.stored_len);
        assert_eq!(
            be.file_len(&torn).unwrap(),
            FRAME_HEADER_LEN + u64::from(r1.stored_len),
            "torn file rewritten in place"
        );
    }

    /// A CAS file left by a mount that died before its sync passes the
    /// header check; adopting it syncs it once.
    #[test]
    fn an_adopted_cas_file_is_synced() {
        let mem = Arc::new(MemBackend::new());
        let be: Arc<dyn Backend> = Arc::clone(&mem) as Arc<dyn Backend>;
        put_chunk(&store(&be, 4), 0, b"left by an earlier mount");
        let s = store(&be, 4);
        let before = mem.sync_count();
        put_chunk(&s, 0, b"left by an earlier mount");
        assert_eq!(mem.sync_count() - before, 1, "adoption syncs the file");
        assert_eq!(be.list_dir(CAS_DIR).unwrap().len(), 1, "file adopted");
    }

    #[test]
    fn gc_reclaims_only_unreachable_chunks() {
        let be = mem();
        let s = store(&be, 1); // retain one epoch
        let old = put_chunk(&s, 0, &[0xAA; 64]);
        let live = put_chunk(&s, 4096, &[0xBB; 64]);
        s.stage_chunk("/f", 0, old.clone());
        s.stage_chunk("/f", 100, live.clone());
        s.seal().unwrap();
        // Epoch 1 fully rewrites the old region; the old chunk becomes
        // unreachable once epoch 0's manifest ages out.
        let fresh = put_chunk(&s, 0, &[0xCC; 64]);
        s.stage_chunk("/f", 200, fresh.clone());
        s.seal().unwrap();
        assert_eq!(s.epochs(), vec![1], "keep_epochs=1 retired epoch 0");

        for c in [&old, &live] {
            let origin = c.origin_path.as_str().into();
            s.index()
                .insert(c.hash, c.logical_len, origin, 0, c.stored_len, c.codec);
        }
        let report = s.gc().unwrap();
        assert_eq!(report.reclaimed_chunks, 1, "only the orphaned chunk");
        assert!(report.reclaimed_bytes > 0);
        assert!(!be.exists(&old.origin_path), "old chunk unlinked");
        assert!(be.exists(&live.origin_path));
        assert!(be.exists(&fresh.origin_path));
        assert!(
            s.index().lookup(old.hash, old.logical_len).is_none(),
            "reclaimed key dropped from the dedup index"
        );
        assert!(s.index().lookup(live.hash, live.logical_len).is_some());
    }

    #[test]
    fn pins_hold_manifests_and_their_chunks() {
        let be = mem();
        let s = store(&be, 1);
        let old = put_chunk(&s, 0, &[0x11; 64]);
        s.stage_chunk("/f", 0, old.clone());
        s.seal().unwrap();
        s.pin(0).unwrap();
        // A full rewrite of the same region: the old chunk leaves the
        // new epoch's manifest entirely.
        let fresh = put_chunk(&s, 0, &[0x22; 64]);
        s.stage_chunk("/f", 100, fresh);
        s.seal().unwrap();
        // Epoch 0 aged out of the window but is pinned: still retained,
        // still protecting its chunk from GC.
        assert_eq!(s.epochs(), vec![0, 1]);
        assert_eq!(s.gc().unwrap().reclaimed_chunks, 0);
        assert!(be.exists(&old.origin_path));
        // Unpinning retires it; the next GC reclaims the chunk.
        s.unpin(0);
        assert_eq!(s.epochs(), vec![1]);
        assert!(!be.exists(&manifest_path(0)));
        assert_eq!(s.gc().unwrap().reclaimed_chunks, 1);
        assert!(!be.exists(&old.origin_path));
        assert!(s.pin(0).is_err(), "retired epoch cannot be pinned");
    }

    #[test]
    fn inflight_and_staged_chunks_survive_gc() {
        let be = mem();
        let s = store(&be, 2);
        // Staged but not yet sealed: no manifest references it.
        let staged = put_chunk(&s, 0, b"staged, unsealed");
        s.stage_chunk("/f", 0, staged.clone());
        // In-flight: registered, stored, not yet committed/staged.
        let payload = b"in flight right now";
        let digest = payload_digest(payload);
        let key = (digest.key, payload.len() as u32);
        let guard = s.begin_chunk(key);
        let header = FrameHeader {
            codec: STORED_RAW,
            flags: 0,
            format: FRAME_FORMAT,
            logical_offset: 0,
            logical_len: payload.len() as u32,
            stored_len: payload.len() as u32,
            payload_check: digest.check,
        };
        let mut frame = header.encode().to_vec();
        frame.extend_from_slice(payload);
        s.store_chunk(key, &frame, digest.check).unwrap();

        assert_eq!(s.gc().unwrap().reclaimed_chunks, 0);
        assert!(be.exists(&staged.origin_path));
        assert!(be.exists(&cas_path(key)));
        // Guard dropped without staging (a failed write): reclaimable.
        drop(guard);
        let report = s.gc().unwrap();
        assert_eq!(report.reclaimed_chunks, 1);
        assert!(!be.exists(&cas_path(key)));
        assert!(be.exists(&staged.origin_path), "staged chunk still safe");
    }

    #[test]
    fn reset_unlink_and_rename_shape_the_next_seal() {
        let be = mem();
        let s = store(&be, 4);
        s.stage_chunk("/keep", 0, put_chunk(&s, 0, b"keep me"));
        s.stage_chunk("/gone", 0, put_chunk(&s, 0, b"unlink me"));
        s.stage_chunk("/moved", 0, put_chunk(&s, 0, b"rename me"));
        s.stage_chunk("/wiped", 0, put_chunk(&s, 0, b"truncate me"));
        s.seal().unwrap();

        s.note_unlink("/gone");
        s.note_rename("/moved", "/dest");
        s.note_reset("/wiped");
        s.stage_chunk("/wiped", 0, put_chunk(&s, 0, b"rewritten"));
        s.seal().unwrap();

        let mut paths = s.manifest_paths(1).unwrap();
        paths.sort();
        assert_eq!(paths, vec!["/dest", "/keep", "/wiped"]);
        let dest = s.manifest_records(1, "/dest").unwrap().expect("renamed");
        assert_eq!(dest.len(), 1, "rename carried the history");
        let wiped = s.manifest_records(1, "/wiped").unwrap().expect("reset");
        match &wiped[..] {
            [Record::Chunk(c)] => assert_eq!(c.check, payload_digest(b"rewritten").check),
            other => panic!("reset file must hold only the new record: {other:?}"),
        }
    }

    #[test]
    fn torn_manifest_is_skipped_at_recovery() {
        let be = mem();
        let s = store(&be, 4);
        s.stage_chunk("/f", 0, put_chunk(&s, 0, b"epoch zero"));
        s.seal().unwrap();
        s.stage_chunk("/f", 100, put_chunk(&s, 0, b"epoch one"));
        s.seal().unwrap();
        // Tear epoch 1's manifest mid-seal.
        let path = manifest_path(1);
        let len = be.file_len(&path).unwrap();
        let f = be.open(&path, OpenOptions::read_write()).unwrap();
        f.set_len(len - 7).unwrap();

        let s2 = store(&be, 4);
        assert_eq!(s2.epochs(), vec![0], "torn epoch never existed");
        let records = s2.manifest_records(0, "/f").unwrap().expect("file");
        match &records[..] {
            [Record::Chunk(c)] => assert_eq!(c.check, payload_digest(b"epoch zero").check),
            other => panic!("epoch 0's state must survive: {other:?}"),
        }
        // The next seal continues after the highest epoch seen on disk
        // (torn or not, the number is burned).
        assert_eq!(s2.seal().unwrap(), 1, "torn manifest was overwritten");
    }

    #[test]
    fn synthesized_log_scans_back_to_the_same_records() {
        let records = vec![
            Record::Chunk(ChunkRecord {
                hash: 42,
                logical_offset: 4096,
                logical_len: 512,
                format: FRAME_FORMAT,
                check: 7,
                origin_path: cas_path((42, 512)),
                origin_off: 0,
                stored_len: 300,
                codec: 2,
            }),
            Record::Trunc { new_len: 4200 },
        ];
        let log = synthesize_log(&records);
        let file = SnapshotLogFile::new(log);
        // Walk the log manually: one REF frame + one TRUNC marker.
        let mut hdr = [0u8; FRAME_HEADER_LEN as usize];
        read_exact_at(&file, 0, &mut hdr).unwrap();
        let h = FrameHeader::decode(&hdr).unwrap();
        assert_eq!(h.flags, FLAG_REF);
        assert_eq!(h.logical_offset, 4096);
        assert_eq!(h.logical_len, 512);
        assert_eq!(h.payload_check, 7);
        assert_eq!(h.format, FRAME_FORMAT, "the record's format, verbatim");
        let mut payload = vec![0u8; h.stored_len as usize];
        read_exact_at(&file, FRAME_HEADER_LEN, &mut payload).unwrap();
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(payload[8..12].try_into().unwrap()), 300);
        assert_eq!(payload[12], 2);
        assert_eq!(&payload[REF_META_LEN..], cas_path((42, 512)).as_bytes());
        let trunc_off = FRAME_HEADER_LEN + u64::from(h.stored_len);
        read_exact_at(&file, trunc_off, &mut hdr).unwrap();
        let t = FrameHeader::decode(&hdr).unwrap();
        assert_eq!(t.flags, FLAG_TRUNC);
        assert_eq!(t.logical_offset, 4200);
        // The view is immutable.
        assert!(file.write_at(0, b"x").is_err());
        assert!(file.set_len(0).is_err());
    }

    #[test]
    fn cas_names_roundtrip() {
        let key: ChunkKey = (0xDEAD_BEEF_0000_0001, 4096);
        let path = cas_path(key);
        let name = path.rsplit('/').next().unwrap();
        assert_eq!(parse_cas_name(name), Some(key));
        assert_eq!(parse_cas_name("not-a-chunk"), None);
        assert_eq!(parse_manifest_name("manifest-17.mfst"), Some(17));
        assert_eq!(parse_manifest_name("cas"), None);
    }
}
