//! The CRFS filesystem front end: write aggregation, the open-file
//! table, and the POSIX-like public API. Sealed chunks are dispatched
//! through the [`RingEngine`] — see [`crate::engine`].

use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use crate::backend::{normalize_path, parent_of, Backend, OpenOptions};
use crate::chunking::{flush_plan, plan_write, ChunkState, FlushStep, PlanStep};
use crate::config::CrfsConfig;
use crate::engine::{ReadChunk, RingEngine, SealedChunk};
use crate::error::{CrfsError, Result};
use crate::file::{CurrentChunk, FileEntry};
use crate::obs::EventKind;
use crate::pool::BufferPool;
use crate::prefetch::{Consume, ReadState};
use crate::snapshot::{synthesize_log, GcReport, SnapshotLogFile, SnapshotStore, SNAP_DIR};
use crate::stats::{CrfsStats, StatsSnapshot};
use crate::transform::{self, FileTransform, TransformCtx};

/// One shard of the open-file table.
type TableShard = Mutex<HashMap<Arc<str>, Arc<FileEntry>>>;

/// The open-file table (paper §IV-A), hash-sharded by path so concurrent
/// open/write/close on different files never touch the same lock.
///
/// Shard count is fixed at mount (`CrfsConfig::resolved_table_shards`:
/// `next_pow2(io_threads * 4)`). Entries intern their path as an
/// `Arc<str>` once at open; the table keys by that same `Arc`, so lookups
/// and removals never copy the string. Contended shard locks are counted
/// in `CrfsStats::shard_lock_waits`.
struct FileTable {
    shards: Box<[TableShard]>,
    mask: u64,
    stats: Arc<CrfsStats>,
}

impl FileTable {
    /// Creates a table with `shards` shards (must be a power of two).
    fn new(shards: usize, stats: Arc<CrfsStats>) -> FileTable {
        debug_assert!(shards.is_power_of_two());
        FileTable {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: shards as u64 - 1,
            stats,
        }
    }

    /// FNV-1a over the path bytes — cheap, stable, and well-mixed for the
    /// short strings paths are.
    fn shard_index(&self, path: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in path.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h & self.mask) as usize
    }

    /// Locks the shard owning `path`, counting contended acquisitions.
    fn lock_shard(&self, path: &str) -> MutexGuard<'_, HashMap<Arc<str>, Arc<FileEntry>>> {
        let shard = &self.shards[self.shard_index(path)];
        match shard.try_lock() {
            Some(g) => g,
            None => {
                self.stats.shard_lock_waits.fetch_add(1, Relaxed);
                shard.lock()
            }
        }
    }

    /// Looks up an open entry without copying the path.
    fn get(&self, path: &str) -> Option<Arc<FileEntry>> {
        self.lock_shard(path).get(path).map(Arc::clone)
    }

    /// Open files across all shards.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshot of every open entry (unmount, rename sweeps).
    fn entries(&self) -> Vec<Arc<FileEntry>> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().values().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Empties every shard (unmount epilogue).
    fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().clear();
        }
    }
}

/// State shared between the front end and the IO engine.
struct Shared {
    backend: Arc<dyn Backend>,
    config: CrfsConfig,
    pool: Arc<BufferPool>,
    table: FileTable,
    stats: Arc<CrfsStats>,
    /// The IO engine; the per-write path takes no lock to reach it.
    engine: RingEngine,
    /// Chunk transform stage (codec + dedup index + integrity); `None`
    /// when `config.codec` is `None` and chunks ship raw.
    transform: Option<Arc<TransformCtx>>,
}

/// A mounted CRFS filesystem.
///
/// Created with [`Crfs::mount`]; returns an `Arc` because open file handles
/// keep the mount alive. All methods are thread-safe; the write path is
/// designed for many concurrent writer threads (one per checkpointing
/// process in the paper's setting).
pub struct Crfs {
    shared: Arc<Shared>,
    unmounted: AtomicBool,
    /// Held for the whole of the winning `unmount`'s teardown so racing
    /// unmounts (and `Drop`) cannot return before the flush + engine
    /// shutdown completed.
    teardown: Mutex<()>,
}

impl Crfs {
    /// Mounts CRFS over `backend` with the given configuration.
    ///
    /// Allocates the buffer pool and starts the IO engine
    /// (`config.io_threads` worker threads, as the paper does at mount
    /// time).
    pub fn mount(backend: Arc<dyn Backend>, config: CrfsConfig) -> Result<Arc<Crfs>> {
        config.validate()?;
        let pool = Arc::new(BufferPool::new(config.chunk_size, config.pool_chunks()));
        let stats = Arc::new(CrfsStats::new());
        stats.configure_obs(config.obs);
        if let Some(path) = &config.flight_dump {
            stats.flight.set_dump_path(Some(path.clone()));
        }
        // Layers below the engine (tier drains, promotions) record into
        // the same stats block as the filesystem itself.
        backend.attach_stats(&stats);
        let engine = RingEngine::new(
            config.io_threads,
            config.ring_depth,
            Arc::clone(&pool),
            Arc::clone(&stats),
        )?;
        let table = FileTable::new(config.resolved_table_shards(), Arc::clone(&stats));
        let transform =
            TransformCtx::from_config(&config, Arc::clone(&backend), Arc::clone(&stats))
                .map_err(CrfsError::Io)?;
        let shared = Arc::new(Shared {
            backend,
            config,
            pool,
            table,
            stats,
            engine,
            transform,
        });
        Ok(Arc::new(Crfs {
            shared,
            unmounted: AtomicBool::new(false),
            teardown: Mutex::new(()),
        }))
    }

    /// The mount configuration.
    pub fn config(&self) -> &CrfsConfig {
        &self.shared.config
    }

    /// Instrumentation snapshot, including the pool occupancy gauge.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.shared.stats.snapshot();
        snap.pool_free_chunks = self.shared.pool.free_chunks() as u64;
        snap.pool_total_chunks = self.shared.pool.total_chunks() as u64;
        snap
    }

    /// The flight recorder's retained event window as JSONL — the
    /// on-demand dump (DESIGN.md §8). Empty when `config.obs` is off or
    /// nothing has happened yet.
    pub fn flight_record_jsonl(&self) -> String {
        self.shared.stats.flight.dump_jsonl()
    }

    /// Advances the mount's checkpoint epoch — call between checkpoint
    /// rounds. On dedup mounts this first flushes every open file (so
    /// each staged chunk's frame is durable), then seals the epoch's
    /// manifest, making the checkpoint restartable via
    /// [`open_restart`](Self::open_restart), and lets the dedup index
    /// evict entries whose content stopped recurring (see
    /// [`crate::transform::DedupIndex`]). Returns the number of dedup
    /// entries evicted; a no-op (0) on mounts without dedup.
    pub fn advance_epoch(&self) -> Result<usize> {
        self.check_mounted()?;
        let evicted = match self.shared.transform.as_ref() {
            Some(ctx) => {
                if ctx.cas().is_some() {
                    for e in self.shared.table.entries() {
                        self.flush_entry(&e)?;
                    }
                }
                ctx.advance_epoch().map_err(CrfsError::Io)?
            }
            None => 0,
        };
        // Epoch durability gate (DESIGN.md §9): on a tiered backend the
        // seal above landed every chunk its manifest names on the
        // durable tier before writing the manifest, which it only
        // acknowledged on the fast tier. The epoch counts as durable
        // once this barrier confirms the manifest reached the durable
        // tier too; single-tier backends return immediately.
        self.shared.backend.drain_barrier().map_err(CrfsError::Io)?;
        Ok(evicted)
    }

    /// Runs one snapshot mark-and-sweep GC pass, reclaiming
    /// content-store chunks no retained manifest (and no in-flight or
    /// staged write) reaches. A no-op report on mounts without dedup.
    /// See [`SnapshotStore::gc`] for the safety contract.
    pub fn snapshot_gc(&self) -> Result<GcReport> {
        self.check_mounted()?;
        match self.snapshot_store() {
            Some(snap) => snap.gc().map_err(CrfsError::Io),
            None => Ok(GcReport::default()),
        }
    }

    /// The retained snapshot epochs, oldest first; empty on mounts
    /// without dedup.
    pub fn snapshot_epochs(&self) -> Vec<u64> {
        self.snapshot_store().map_or_else(Vec::new, |s| s.epochs())
    }

    fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.shared.transform.as_ref().and_then(|c| c.cas())
    }

    /// The mount's transform context, when a codec is configured.
    pub fn transform(&self) -> Option<&Arc<TransformCtx>> {
        self.shared.transform.as_ref()
    }

    /// The backing filesystem.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.shared.backend
    }

    /// Number of files currently open.
    pub fn open_files(&self) -> usize {
        self.shared.table.len()
    }

    fn check_mounted(&self) -> Result<()> {
        if self.unmounted.load(Relaxed) {
            Err(CrfsError::Unmounted)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // open / create / close
    // ------------------------------------------------------------------

    /// Opens an existing file for reading and writing.
    pub fn open(self: &Arc<Self>, path: &str) -> Result<CrfsFile> {
        self.open_with(path, OpenOptions::read_write())
    }

    /// Creates (or truncates) a file for writing — the checkpoint-file
    /// open mode. A raw mount lets the backend keep a re-created file's
    /// blocks; a frame log is cut eagerly, because recovery scans it and
    /// frame headers carry no generation to tell epochs apart.
    pub fn create(self: &Arc<Self>, path: &str) -> Result<CrfsFile> {
        let opts = match self.shared.transform {
            None => OpenOptions::create_rewrite(),
            Some(_) => OpenOptions::create_truncate(),
        };
        self.open_with(path, opts)
    }

    /// Opens a file with explicit options.
    ///
    /// Mirrors the paper's §IV-A: if the file is already in the open-file
    /// table its reference count is bumped; otherwise the backend open is
    /// performed and a new entry inserted.
    pub fn open_with(self: &Arc<Self>, path: &str, opts: OpenOptions) -> Result<CrfsFile> {
        self.check_mounted()?;
        // Intern the path once; table key and entry share the Arc.
        let path: Arc<str> = if opts.create || opts.truncate {
            user_path(path)?
        } else {
            normalize_path(path).map_err(CrfsError::Io)?
        }
        .into();
        loop {
            let shard = self.shared.table.lock_shard(&path);
            if let Some(entry) = shard.get(&*path) {
                let entry = Arc::clone(entry);
                entry.refcount.fetch_add(1, Relaxed);
                drop(shard);
                if opts.truncate {
                    self.truncate_entry(&entry)?;
                }
                return Ok(CrfsFile::new(Arc::clone(self), entry));
            }
            // Non-truncating opens of framed files pay an O(frames)
            // header scan (FileTransform::attach) — the restart open
            // path. Run it OUTSIDE the shard lock so a many-rank open
            // storm of files hashing to the same shard doesn't
            // serialize behind backend round trips; the lock is
            // retaken below with a re-check + scan revalidation.
            // (Creating/truncating opens mutate the backend, so they
            // keep the original lock-across-open serialization — their
            // attach is a fresh map, O(1).)
            let scan_outside = self.shared.transform.is_some() && !opts.truncate;
            let mut held = if scan_outside {
                drop(shard);
                None
            } else {
                Some(shard)
            };
            let file = self
                .shared
                .backend
                .open(&path, opts)
                .map_err(|e| annotate(e, &path))?;
            let read_state = ReadState::for_config(&self.shared.config);
            // Transform-enabled mounts attach per-file frame state:
            // fresh for new/truncated files, rebuilt by a header scan
            // for re-opened framed files (the restart path), absent for
            // pre-existing raw files (which pass through untransformed).
            let file_transform = match &self.shared.transform {
                Some(ctx) => {
                    if opts.truncate {
                        if let Some(snap) = ctx.cas() {
                            snap.note_reset(&path);
                        }
                        Some(Arc::new(FileTransform::fresh(Arc::clone(ctx))))
                    } else {
                        FileTransform::attach(Arc::clone(ctx), &*file)
                            .map_err(|e| self.read_error(&path, e))?
                            .map(Arc::new)
                    }
                }
                None => None,
            };
            let entry = Arc::new(FileEntry::with_transform(
                Arc::clone(&path),
                file,
                read_state,
                file_transform,
            ));
            let mut shard = match held.take() {
                Some(g) => g,
                None => {
                    let g = self.shared.table.lock_shard(&path);
                    if let Some(existing) = g.get(&*path) {
                        // Lost the race to a concurrent open: adopt the
                        // winning entry (our read-only backend handle
                        // and scanned map are simply dropped — nothing
                        // was mutated).
                        let existing = Arc::clone(existing);
                        existing.refcount.fetch_add(1, Relaxed);
                        drop(g);
                        return Ok(CrfsFile::new(Arc::clone(self), existing));
                    }
                    // Revalidate the unlocked scan: a full concurrent
                    // open/write/close cycle may have appended frames
                    // after it. Writes require a table entry, and close
                    // removes the entry only after its flush barrier,
                    // so under this lock a stored length equal to the
                    // scanned tail proves the scan is current; a
                    // mismatch retries with a fresh scan. (The
                    // same-length-different-bytes corner degrades to a
                    // detected checksum failure, never stale data
                    // overwrites: allocation would resume at the
                    // correct tail.)
                    if let Some(t) = &entry.transform {
                        let live = entry.file.len().map_err(CrfsError::Io)?;
                        if live != t.scanned_len() {
                            drop(g);
                            continue;
                        }
                    }
                    g
                }
            };
            shard.insert(Arc::clone(&entry.path), Arc::clone(&entry));
            drop(shard);
            self.shared.stats.opens.fetch_add(1, Relaxed);
            return Ok(CrfsFile::new(Arc::clone(self), entry));
        }
    }

    /// Opens a **read-only restart view** of `path` as it was sealed in
    /// snapshot `epoch` (see [`crate::snapshot`]). The epoch stays
    /// *pinned* — retention cannot retire its manifest and GC cannot
    /// free its chunks — until the last handle on the view closes.
    ///
    /// The view is an ordinary [`CrfsFile`] for reading (served through
    /// the same frame resolution, integrity verification, read cache
    /// and prefetch as live files); writes and truncation fail with
    /// [`CrfsError::ReadOnlySnapshot`].
    pub fn open_restart(self: &Arc<Self>, path: &str, epoch: u64) -> Result<CrfsFile> {
        self.check_mounted()?;
        let p = normalize_path(path).map_err(CrfsError::Io)?;
        let Some(snap) = self.snapshot_store().map(Arc::clone) else {
            return Err(CrfsError::Config(
                "open_restart requires snapshots (enable a codec and dedup)".into(),
            ));
        };
        let ctx = Arc::clone(
            self.shared
                .transform
                .as_ref()
                .expect("a content store implies a transform"),
        );
        // Restart views share through the open-file table like live
        // files, but under an epoch-qualified key (the NUL separator
        // cannot appear in a normalized path), so views of different
        // epochs — and the live file — coexist.
        let key: Arc<str> = format!("{p}\u{0}snapshot-epoch-{epoch}").into();
        if let Some(existing) = self.shared.table.get(&key) {
            existing.refcount.fetch_add(1, Relaxed);
            return Ok(CrfsFile::new(Arc::clone(self), existing));
        }
        snap.pin(epoch).map_err(|e| annotate(e, &p))?;
        // Every failure path below must release the pin.
        let unpin_err = |e: CrfsError| {
            snap.unpin(epoch);
            e
        };
        let records = snap
            .manifest_records(epoch, &p)
            .map_err(|e| unpin_err(annotate(e, &p)))?
            .ok_or_else(|| {
                unpin_err(CrfsError::NotFound(format!(
                    "{p} in snapshot epoch {epoch}"
                )))
            })?;
        let log: Box<dyn crate::backend::BackendFile> =
            Box::new(SnapshotLogFile::new(synthesize_log(&records)));
        let file_transform = FileTransform::attach(Arc::clone(&ctx), &*log)
            .map_err(|e| unpin_err(self.read_error(&p, e)))?
            .map(Arc::new)
            .expect("synthesized snapshot logs are always framed");
        let read_state = ReadState::for_config(&self.shared.config);
        let mut entry =
            FileEntry::with_transform(Arc::clone(&key), log, read_state, Some(file_transform));
        entry.snapshot_epoch = Some(epoch);
        let entry = Arc::new(entry);
        let mut shard = self.shared.table.lock_shard(&key);
        if let Some(existing) = shard.get(&*key) {
            // Lost the race to a concurrent open of the same view: the
            // winner's entry already holds the pin; drop ours.
            let existing = Arc::clone(existing);
            existing.refcount.fetch_add(1, Relaxed);
            drop(shard);
            snap.unpin(epoch);
            return Ok(CrfsFile::new(Arc::clone(self), existing));
        }
        shard.insert(Arc::clone(&key), Arc::clone(&entry));
        drop(shard);
        self.shared.stats.opens.fetch_add(1, Relaxed);
        Ok(CrfsFile::new(Arc::clone(self), entry))
    }

    /// Truncates an open entry to zero: discards its current chunk, waits
    /// out in-flight chunks, truncates the backend file.
    fn truncate_entry(&self, entry: &Arc<FileEntry>) -> Result<()> {
        {
            let mut slot = entry.chunk.lock();
            if let Some(cur) = slot.take() {
                self.shared.pool.release(cur.buf);
            }
        }
        let (waited, err) = entry.wait_outstanding();
        self.shared
            .stats
            .barrier_wait_ns
            .fetch_add(waited.as_nanos() as u64, Relaxed);
        if !waited.is_zero() && self.shared.stats.stages.enabled() {
            self.shared.stats.stages.barrier_wait.record_dur(waited);
        }
        if let Some(e) = err {
            return Err(CrfsError::DeferredWrite {
                path: entry.path.clone(),
                source: e,
            });
        }
        self.entry_set_len(entry, 0)?;
        entry.max_extent.store(0, Relaxed);
        self.invalidate_reads(entry, 0);
        Ok(())
    }

    /// Applies `set_len` to an entry's backend state: framed entries go
    /// through the transform's truncation (persistent marker frames,
    /// frame-map clamp), raw entries straight to the backend.
    fn entry_set_len(&self, entry: &Arc<FileEntry>, len: u64) -> Result<()> {
        if let Some(epoch) = entry.snapshot_epoch {
            return Err(CrfsError::ReadOnlySnapshot {
                path: entry.path.clone(),
                epoch,
            });
        }
        outside_store(&entry.path)?;
        match &entry.transform {
            Some(t) => t
                .truncate(&entry.path, &*entry.file, len)
                .map_err(CrfsError::Io),
            None => entry.file.set_len(len).map_err(CrfsError::Io),
        }
    }

    /// Classifies a backend read failure: detected integrity violations
    /// surface as [`CrfsError::IntegrityError`], everything else as IO.
    fn read_error(&self, path: &str, e: io::Error) -> CrfsError {
        if transform::is_integrity_error(&e) {
            CrfsError::IntegrityError {
                path: path.into(),
                detail: e
                    .get_ref()
                    .map_or_else(|| e.to_string(), ToString::to_string),
            }
        } else {
            CrfsError::Io(e)
        }
    }

    /// Drops cached/in-flight prefetches at or past `from` — truncation
    /// makes them describe bytes that no longer exist.
    fn invalidate_reads(&self, entry: &Arc<FileEntry>, from: u64) {
        if let Some(rs) = &entry.read_state {
            if rs.is_active() {
                rs.invalidate_range(from, u64::MAX, &self.shared.pool, &self.shared.stats);
            }
        }
    }

    /// Handle close path (paper §IV-C): drop one reference; the last
    /// reference seals the file's remaining chunk, waits until every
    /// outstanding chunk write completed, and retires the table entry.
    fn close_entry(&self, entry: &Arc<FileEntry>) -> Result<()> {
        let last = {
            let mut shard = self.shared.table.lock_shard(&entry.path);
            let prev = entry.refcount.fetch_sub(1, Relaxed);
            debug_assert!(prev >= 1, "refcount underflow on {}", entry.path);
            if prev == 1 {
                shard.remove(&*entry.path);
                true
            } else {
                false
            }
        };
        if !last {
            return Ok(());
        }
        let res = self.flush_entry(entry);
        // Read-side epilogue: wait out in-flight prefetches and hand
        // every cached buffer back before the entry retires.
        if let Some(rs) = &entry.read_state {
            rs.clear(&self.shared.pool, &self.shared.stats);
        }
        // A retiring restart view releases its epoch pin — retention
        // and GC may now retire the epoch it was reading.
        if let Some(epoch) = entry.snapshot_epoch {
            if let Some(snap) = self.snapshot_store() {
                snap.unpin(epoch);
            }
        }
        self.shared.stats.closes.fetch_add(1, Relaxed);
        res
    }

    // ------------------------------------------------------------------
    // write path
    // ------------------------------------------------------------------

    /// Core write-aggregation path (paper §IV-B).
    ///
    /// Chunks the write seals are *collected* and handed to the engine
    /// as one `submit_batch` of up to `config.submit_batch` chunks — one
    /// producer-side queue-lock acquisition instead of one per chunk. A
    /// pending batch is flushed early when the batch limit is reached or
    /// before blocking on an exhausted buffer pool (the blocked-on
    /// buffers come back only after submitted chunks complete, so an
    /// unflushed batch would deadlock the back-pressure loop).
    fn write_entry(&self, entry: &Arc<FileEntry>, offset: u64, data: &[u8]) -> Result<()> {
        self.check_mounted()?;
        if let Some(epoch) = entry.snapshot_epoch {
            return Err(CrfsError::ReadOnlySnapshot {
                path: entry.path.clone(),
                epoch,
            });
        }
        // Mark the range dirty for the read side's overlap check BEFORE
        // buffering anything, so no read can pass the overlap gate while
        // this write is in flight. The cache invalidation happens at the
        // END of the write (after the data is buffered): a prefetch
        // claimed mid-write then either predates the invalidation (its
        // install is killed by the generation bump) or postdates it, in
        // which case its coherence flush sees the buffered data.
        entry.dirty_low.fetch_min(offset, Relaxed);
        let chunk_size = self.shared.config.chunk_size;
        let max_batch = self.shared.config.submit_batch;
        let mut batch: Vec<SealedChunk> = Vec::new();
        let mut slot = entry.chunk.lock();
        let plan = plan_write(
            slot.as_ref().map(|c| c.state),
            offset,
            data.len(),
            chunk_size,
        );
        let mut consumed = 0usize;
        let mut sealed_count = 0u64;
        for step in plan {
            match step {
                PlanStep::Seal => {
                    let cur = slot.take().expect("plan seals existing chunk");
                    if cur.state.fill != chunk_size {
                        // Partial chunk orphaned by a non-sequential write.
                        self.shared.stats.discontinuity_seals.fetch_add(1, Relaxed);
                    }
                    sealed_count += 1;
                    batch.push(self.wrap_sealed(entry, cur));
                    if batch.len() >= max_batch {
                        // Flush the seal count first so the ledger and
                        // the counter cannot diverge on a refused batch.
                        self.shared
                            .stats
                            .chunks_sealed
                            .fetch_add(std::mem::take(&mut sealed_count), Relaxed);
                        self.submit_collected(&mut batch)?;
                    }
                }
                PlanStep::Open { file_offset } => {
                    let got = match self.shared.pool.try_acquire() {
                        Some(buf) => Some((buf, Duration::ZERO)),
                        None => {
                            // Pool empty (or closing): flush our sealed
                            // chunks so the workers can recycle their
                            // buffers, evict idle read-cache buffers
                            // mount-wide, then block.
                            self.shared
                                .stats
                                .chunks_sealed
                                .fetch_add(std::mem::take(&mut sealed_count), Relaxed);
                            self.submit_collected(&mut batch)?;
                            self.reclaim_read_buffers();
                            self.shared.pool.acquire()
                        }
                    };
                    let Some((buf, waited)) = got else {
                        debug_assert!(batch.is_empty(), "refused batch was completed");
                        return Err(CrfsError::Unmounted);
                    };
                    if !waited.is_zero() {
                        self.shared.stats.pool_waits.fetch_add(1, Relaxed);
                        self.shared
                            .stats
                            .pool_wait_ns
                            .fetch_add(waited.as_nanos() as u64, Relaxed);
                        if self.shared.stats.stages.enabled() {
                            self.shared.stats.stages.pool_wait.record_dur(waited);
                        }
                    }
                    *slot = Some(CurrentChunk {
                        buf,
                        state: ChunkState {
                            file_offset,
                            fill: 0,
                        },
                    });
                }
                PlanStep::Append { len } => {
                    let cur = slot.as_mut().expect("plan appends into open chunk");
                    let at = cur.state.fill;
                    cur.buf[at..at + len].copy_from_slice(&data[consumed..consumed + len]);
                    cur.state.fill += len;
                    consumed += len;
                }
            }
        }
        self.shared
            .stats
            .chunks_sealed
            .fetch_add(sealed_count, Relaxed);
        self.submit_collected(&mut batch)?;
        drop(slot);
        // Kill any cached/in-flight prefetch this write supersedes (one
        // relaxed load when no reads are active — the common case).
        if let Some(rs) = &entry.read_state {
            if rs.is_active() {
                rs.invalidate_range(
                    offset,
                    offset + data.len() as u64,
                    &self.shared.pool,
                    &self.shared.stats,
                );
            }
        }
        self.shared.stats.writes.fetch_add(1, Relaxed);
        self.shared
            .stats
            .bytes_in
            .fetch_add(data.len() as u64, Relaxed);
        // The `Append` steps above copied every byte of `data`, once.
        self.shared
            .stats
            .bytes_copied
            .fetch_add(data.len() as u64, Relaxed);
        entry
            .max_extent
            .fetch_max(offset + data.len() as u64, Relaxed);
        Ok(())
    }

    /// Records a chunk on the entry's barrier ledger and wraps it for
    /// the engine — the single place seal bookkeeping happens. The
    /// caller owns the `chunks_sealed` stat (the write path counts a
    /// whole batch at once) and the submission.
    fn wrap_sealed(&self, entry: &Arc<FileEntry>, cur: CurrentChunk) -> SealedChunk {
        entry.note_sealed();
        let stats = &self.shared.stats;
        stats.flight.record_cached(
            EventKind::Sealed,
            &entry.path,
            &entry.flight_tag,
            cur.state.file_offset,
            cur.state.fill as u64,
        );
        SealedChunk {
            entry: Arc::clone(entry),
            len: cur.state.fill,
            offset: cur.state.file_offset,
            buf: cur.buf,
            sealed_at: stats.stages.timer(),
        }
    }

    /// Hands the collected batch to the engine, leaving `batch` empty in
    /// every case (on refusal the engine completes each chunk with an
    /// error and recycles its buffer, so nothing is left to leak).
    fn submit_collected(&self, batch: &mut Vec<SealedChunk>) -> Result<()> {
        if self.shared.stats.flight.enabled() {
            for chunk in batch.iter() {
                self.shared.stats.flight.record_cached(
                    EventKind::Submitted,
                    &chunk.entry.path,
                    &chunk.entry.flight_tag,
                    chunk.offset,
                    chunk.len as u64,
                );
            }
        }
        match batch.len() {
            0 => Ok(()),
            1 => self
                .shared
                .engine
                .submit(batch.pop().expect("one collected chunk")),
            _ => self.shared.engine.submit_batch(std::mem::take(batch)),
        }
    }

    /// Hands a sealed chunk to the IO engine for asynchronous writing
    /// (the close/fsync flush path, which never has more than one).
    fn seal_chunk(&self, entry: &Arc<FileEntry>, cur: CurrentChunk) -> Result<()> {
        let chunk = self.wrap_sealed(entry, cur);
        self.shared.stats.chunks_sealed.fetch_add(1, Relaxed);
        self.shared.stats.flight.record_cached(
            EventKind::Submitted,
            &entry.path,
            &entry.flight_tag,
            chunk.offset,
            chunk.len as u64,
        );
        self.shared.engine.submit(chunk)
    }

    /// Seals the entry's partial chunk (if any) and waits for all
    /// outstanding chunk writes — the close/fsync barrier.
    fn flush_entry(&self, entry: &Arc<FileEntry>) -> Result<()> {
        {
            let mut slot = entry.chunk.lock();
            let step = flush_plan(slot.as_ref().map(|c| c.state));
            match (step, slot.take()) {
                (FlushStep::SealPartial(_), Some(cur)) => {
                    self.shared.stats.partial_seals.fetch_add(1, Relaxed);
                    self.seal_chunk(entry, cur)?;
                }
                (FlushStep::ReleaseEmpty(_), Some(cur)) => {
                    self.shared.pool.release(cur.buf);
                }
                _ => {}
            }
        }
        let (waited, err) = entry.wait_outstanding();
        self.shared
            .stats
            .barrier_wait_ns
            .fetch_add(waited.as_nanos() as u64, Relaxed);
        if !waited.is_zero() && self.shared.stats.stages.enabled() {
            self.shared.stats.stages.barrier_wait.record_dur(waited);
        }
        match err {
            Some(e) => Err(CrfsError::DeferredWrite {
                path: entry.path.clone(),
                source: e,
            }),
            None => Ok(()),
        }
    }

    /// fsync path (paper §IV-D2): flush the current chunk, wait for
    /// outstanding chunk writes, then fsync the backend file.
    fn fsync_entry(&self, entry: &Arc<FileEntry>) -> Result<()> {
        self.flush_entry(entry)?;
        self.shared.stats.fsyncs.fetch_add(1, Relaxed);
        entry.file.sync().map_err(CrfsError::Io)
    }

    // ------------------------------------------------------------------
    // read path (the restart direction)
    // ------------------------------------------------------------------

    /// Read path: flush only when the request overlaps unflushed data
    /// (read-after-write coherence at overlap granularity, not the old
    /// whole-file-flush-per-read), then serve through the per-file read
    /// cache with sequential read-ahead — or pass straight through when
    /// prefetching is disabled (paper §IV-D1).
    fn read_entry(&self, entry: &Arc<FileEntry>, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.check_mounted()?;
        self.shared.stats.reads.fetch_add(1, Relaxed);
        if offset + buf.len() as u64 > entry.dirty_low.load(Relaxed) {
            self.flush_entry(entry)?;
        }
        let n = match entry.read_state.as_ref() {
            Some(rs) => self.read_via_cache(entry, rs, offset, buf)?,
            None => entry
                .read_backend(offset, buf)
                .map_err(|e| self.read_error(&entry.path, e))?,
        };
        self.shared.stats.bytes_read.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    /// Serves a read chunk-granularly from the file's cache: cached
    /// segments copy out (hits), in-flight prefetches are awaited, the
    /// rest reads the backend directly (misses, and the demand reads of
    /// the `prefetch` module's first rule). Afterwards, a read that
    /// continued the sequential stream plans the next read-ahead window.
    fn read_via_cache(
        &self,
        entry: &Arc<FileEntry>,
        rs: &Arc<ReadState>,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        let cs = rs.chunk_size() as u64;
        let stats = &self.shared.stats;
        let pool = &self.shared.pool;
        // A read continuing the sequential stream keeps the window
        // topped up as it advances — large reads (a whole VMA at
        // restart) span many chunks, and the pipeline must stay primed
        // across them, not just between calls.
        let sequential = rs.is_sequential(offset);
        // The lowest chunk this call claimed: a segment at or past it
        // would wait on a fill of its own making, one before it on a
        // fill an earlier call issued.
        let mut fresh = u64::MAX;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = offset + done as u64;
            let idx = pos / cs;
            let within = (pos % cs) as usize;
            let want = (buf.len() - done).min(cs as usize - within);
            if sequential {
                fresh = fresh.min(self.issue_read_ahead(entry, rs, pos)?);
            }
            let seg_timer = stats.stages.timer();
            let n = loop {
                let got = rs.try_consume(idx, within, &mut buf[done..done + want], pool, stats);
                // Demand first: a short raw segment reads its own bytes
                // rather than wait for the whole chunk it just claimed.
                let demand = matches!(got, Consume::Pending)
                    && idx >= fresh
                    && entry.transform.is_none()
                    && want < cs as usize;
                match got {
                    Consume::Hit(n) => {
                        if let Some(t0) = seg_timer {
                            stats.stages.read_hit.record_dur(t0.elapsed());
                        }
                        break n;
                    }
                    // Waiting for an earlier call's fetch IS the prefetch
                    // win. Aborted fetches empty the slot, so this loop
                    // always ends in a hit or a direct read.
                    Consume::Pending if !demand => {
                        if idx < fresh {
                            rs.deepen();
                        }
                        rs.wait_pending(idx)
                    }
                    _ => {
                        let direct = if demand {
                            &stats.read_demand
                        } else {
                            &stats.read_misses
                        };
                        direct.fetch_add(1, Relaxed);
                        let n = entry
                            .read_backend(pos, &mut buf[done..done + want])
                            .map_err(|e| self.read_error(&entry.path, e))?;
                        if let Some(t0) = seg_timer {
                            stats.stages.read_miss.record_dur(t0.elapsed());
                        }
                        break n;
                    }
                }
            };
            done += n;
            if n < want {
                break; // EOF
            }
        }
        if rs.note_read(offset, done as u64) && done == buf.len() {
            // Keep the window primed for the caller's next read.
            self.issue_read_ahead(entry, rs, offset + done as u64)?;
        }
        Ok(done)
    }

    /// Plans and submits the read-ahead window following `from`: claims
    /// cache slots, draws buffers from the pool (non-blocking — an empty
    /// pool simply means no prefetch), and hands the batch to the IO
    /// engine in one submission. When the window overlaps unflushed
    /// writes, the flush barrier runs *after* the slots are claimed:
    /// any write racing the flush invalidates the claims, so a stale
    /// install can never be served (see `prefetch` module docs).
    /// Returns the lowest chunk submitted, `u64::MAX` if none.
    fn issue_read_ahead(
        &self,
        entry: &Arc<FileEntry>,
        rs: &Arc<ReadState>,
        from: u64,
    ) -> Result<u64> {
        let cs = rs.chunk_size() as u64;
        let stats = &self.shared.stats;
        let pool = &self.shared.pool;
        // Cap the window at the known logical length (initialized from
        // the backend at open, raised by writes); only a cap, so a low
        // value merely trims the window.
        let extent = entry.max_extent.load(Relaxed);
        let limit = extent.div_ceil(cs);
        let window = rs.window();
        let start = (from / cs).max(rs.ahead_until());
        let end = (from / cs + 1 + window as u64).min(limit);
        if start >= end {
            return Ok(u64::MAX);
        }
        let mut batch: Vec<ReadChunk> = Vec::with_capacity((end - start) as usize);
        // High-water only up to what is actually covered: chunks skipped
        // by an exhausted pool must be replannable once buffers return.
        let mut covered = start;
        for idx in start..end {
            let Some(gen) = rs.begin(idx, pool, stats) else {
                covered = idx + 1; // already cached or in flight
                continue;
            };
            let Some(buf) = pool.try_acquire() else {
                rs.cancel(idx, gen);
                break; // never compete with writers for the last buffer
            };
            let chunk_off = idx * cs;
            batch.push(ReadChunk {
                entry: Arc::clone(entry),
                buf,
                len: (extent - chunk_off).min(cs) as usize,
                offset: chunk_off,
                idx,
                gen,
                issued_at: stats.stages.timer(),
            });
            covered = idx + 1;
        }
        rs.note_planned(covered);
        let Some(first) = batch.first().map(|c| c.idx) else {
            return Ok(u64::MAX);
        };
        if end * cs > entry.dirty_low.load(Relaxed) {
            // Same coherence barrier a direct read of the window would
            // take. On failure, unwind the claims and surface the error
            // like the direct path would.
            if let Err(e) = self.flush_entry(entry) {
                for chunk in batch {
                    rs.cancel(chunk.idx, chunk.gen);
                    pool.release(chunk.buf);
                }
                return Err(e);
            }
        }
        rs.note_issued(batch.len() as u64);
        stats.prefetch_issued.fetch_add(batch.len() as u64, Relaxed);
        stats.read_window_max.fetch_max(window as u64, Relaxed);
        // A refusal (engine racing unmount) already retired every chunk;
        // prefetch is best-effort, so the read itself still succeeds.
        let _ = self.shared.engine.submit_reads(batch);
        Ok(first)
    }

    /// Evicts idle read-cache buffers on every open file — the pressure
    /// valve a writer pulls before parking on an exhausted pool, so
    /// parked prefetches can never starve the write path.
    fn reclaim_read_buffers(&self) {
        for e in self.shared.table.entries() {
            if let Some(rs) = &e.read_state {
                if rs.is_active() {
                    rs.evict_ready(&self.shared.pool, &self.shared.stats);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // metadata operations (paper §IV-D3: passed straight through)
    // ------------------------------------------------------------------

    /// Creates a directory (parent must exist).
    pub fn mkdir(&self, path: &str) -> Result<()> {
        self.check_mounted()?;
        let p = user_path(path)?;
        self.shared.backend.mkdir(&p).map_err(|e| annotate(e, &p))
    }

    /// Creates a directory and all missing parents.
    pub fn mkdir_all(&self, path: &str) -> Result<()> {
        self.check_mounted()?;
        let p = user_path(path)?;
        if p == "/" {
            return Ok(());
        }
        let mut prefix = String::new();
        for comp in p.trim_start_matches('/').split('/') {
            prefix.push('/');
            prefix.push_str(comp);
            if !self.shared.backend.exists(&prefix) {
                self.shared
                    .backend
                    .mkdir(&prefix)
                    .map_err(|e| annotate(e, &prefix))?;
            }
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        self.check_mounted()?;
        let p = user_path(path)?;
        self.shared.backend.rmdir(&p).map_err(|e| annotate(e, &p))
    }

    /// Removes a file. An open file keeps working on its existing handle
    /// (Unix unlink semantics, to the extent the backend supports it).
    /// No other file depends on it: dedup references only ever point
    /// into the content store, which user calls cannot modify.
    pub fn unlink(&self, path: &str) -> Result<()> {
        self.check_mounted()?;
        let p = user_path(path)?;
        self.shared
            .backend
            .unlink(&p)
            .map_err(|e| annotate(e, &p))?;
        if let Some(snap) = self.snapshot_store() {
            snap.note_unlink(&p);
        }
        Ok(())
    }

    /// Renames a file or directory; open files under the old name are
    /// flushed first so no chunk lands at a stale path.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.check_mounted()?;
        let from = user_path(from)?;
        let to = user_path(to)?;
        let under = format!("{from}/");
        let open_under: Vec<Arc<FileEntry>> = self
            .shared
            .table
            .entries()
            .into_iter()
            .filter(|e| {
                let k: &str = &e.path;
                k == from || k.starts_with(&under) || parent_of(k) == from
            })
            .collect();
        for e in open_under {
            self.flush_entry(&e)?;
        }
        self.shared
            .backend
            .rename(&from, &to)
            .map_err(|e| annotate(e, &from))?;
        if let Some(snap) = self.snapshot_store() {
            snap.note_rename(&from, &to);
        }
        Ok(())
    }

    /// Truncates (or extends) the file at `path` to exactly `len` bytes
    /// (paper §IV-D3 pass-through, made buffering-aware: pending chunks
    /// of an open file are drained first so none lands past the cut
    /// afterwards).
    pub fn truncate(self: &Arc<Self>, path: &str, len: u64) -> Result<()> {
        self.check_mounted()?;
        let p = user_path(path)?;
        let open_entry = self.shared.table.get(&p);
        match open_entry {
            Some(entry) => {
                self.flush_entry(&entry)?;
                self.entry_set_len(&entry, len)?;
                // Clamp-then-raise keeps the pending-extent accounting
                // exact for both shrink and extend.
                entry.max_extent.store(len, Relaxed);
                self.invalidate_reads(&entry, len);
                Ok(())
            }
            None if self.shared.transform.is_some() => {
                // Transformed files must not have their *stored* bytes
                // chopped at the logical length — route through an
                // entry (which attaches the frame map and truncates
                // logically).
                let f = self.open_with(path, crate::backend::OpenOptions::read_write())?;
                f.set_len(len)?;
                f.close()
            }
            None => {
                let file = self
                    .shared
                    .backend
                    .open(&p, crate::backend::OpenOptions::read_write())
                    .map_err(|e| annotate(e, &p))?;
                file.set_len(len).map_err(CrfsError::Io)
            }
        }
    }

    /// Whether the path exists on the backend.
    pub fn exists(&self, path: &str) -> bool {
        normalize_path(path)
            .map(|p| self.shared.backend.exists(&p))
            .unwrap_or(false)
    }

    /// Length of the file at `path`, including data still buffered in CRFS
    /// for open files. On transform-enabled mounts a closed framed
    /// file's *logical* length is recovered by a frame-header scan (its
    /// backend size is the stored length, which compression decouples
    /// from the logical one).
    pub fn file_len(&self, path: &str) -> Result<u64> {
        self.check_mounted()?;
        let p = normalize_path(path).map_err(CrfsError::Io)?;
        if let Some(entry) = self.shared.table.get(&p) {
            return entry.logical_len().map_err(CrfsError::Io);
        }
        if self.shared.transform.is_some() {
            let file = self
                .shared
                .backend
                .open(&p, crate::backend::OpenOptions::read_only())
                .map_err(|e| annotate(e, &p))?;
            if let Some(logical) =
                transform::scan_logical_len(&*file).map_err(|e| self.read_error(&p, e))?
            {
                return Ok(logical);
            }
        }
        self.shared
            .backend
            .file_len(&p)
            .map_err(|e| annotate(e, &p))
    }

    /// Entries directly under a directory.
    pub fn list_dir(&self, path: &str) -> Result<Vec<String>> {
        self.check_mounted()?;
        let p = normalize_path(path).map_err(CrfsError::Io)?;
        self.shared
            .backend
            .list_dir(&p)
            .map_err(|e| annotate(e, &p))
    }

    // ------------------------------------------------------------------
    // unmount
    // ------------------------------------------------------------------

    /// Unmounts the filesystem: flushes every open file, drains and stops
    /// the IO engine, and closes the buffer pool.
    ///
    /// Idempotent and safe to race from multiple threads (including the
    /// implicit unmount in `Drop`): exactly one caller performs the
    /// teardown; every other caller blocks until that teardown has fully
    /// completed (open files flushed, engine stopped) and then returns
    /// [`CrfsError::Unmounted`]. Handles still open become inert (their
    /// operations fail with `Unmounted`).
    pub fn unmount(&self) -> Result<()> {
        // The winner holds `teardown` across the entire flush + shutdown,
        // so losers parked here return only after the mount is quiet.
        let _teardown = self.teardown.lock();
        if self.unmounted.swap(true, Relaxed) {
            return Err(CrfsError::Unmounted);
        }
        let entries = self.shared.table.entries();
        let mut first_err = None;
        for e in entries {
            if let Err(err) = self.flush_entry(&e) {
                first_err.get_or_insert(err);
            }
            // Drain prefetches while the engine workers are still alive,
            // so every cached buffer is back before the pool closes.
            if let Some(rs) = &e.read_state {
                rs.clear(&self.shared.pool, &self.shared.stats);
            }
        }
        self.shared.table.clear();
        // Refuses new chunks, drains accepted ones, joins the workers.
        self.shared.engine.shutdown();
        self.shared.pool.close();
        // The mount is quiet: if it recorded damage, persist the flight
        // record to the configured dump path (best-effort; diagnostics
        // never fail unmount). A clean mount leaves nothing behind.
        if self.shared.stats.snapshot().damage_total() > 0 {
            self.shared.stats.flight.dump_to_configured_path();
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Crfs {
    fn drop(&mut self) {
        if !self.unmounted.load(Relaxed) {
            let _ = self.unmount();
        }
    }
}

impl std::fmt::Debug for Crfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crfs")
            .field("backend", &self.shared.backend.name())
            .field("config", &self.shared.config)
            .field("open_files", &self.open_files())
            .field("unmounted", &self.unmounted.load(Relaxed))
            .finish()
    }
}

/// Refuses a user call that would create, truncate, rename, unlink or
/// make a directory at `path` inside the content store's tree
/// ([`SNAP_DIR`]): its chunk files are the dedup origins, written only
/// by the store and deleted only by its GC.
fn outside_store(path: &str) -> Result<()> {
    match path.strip_prefix(SNAP_DIR) {
        Some(rest) if rest.is_empty() || rest.starts_with('/') => {
            Err(CrfsError::Io(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("{path:?} belongs to the content store"),
            )))
        }
        _ => Ok(()),
    }
}

/// `path` normalized, for a call that mutates it (see [`outside_store`]).
fn user_path(path: &str) -> Result<String> {
    let p = normalize_path(path).map_err(CrfsError::Io)?;
    outside_store(&p)?;
    Ok(p)
}

/// Adds the path to backend error messages that lack one.
fn annotate(e: io::Error, path: &str) -> CrfsError {
    match e.kind() {
        io::ErrorKind::NotFound => CrfsError::NotFound(path.to_string()),
        io::ErrorKind::AlreadyExists => CrfsError::AlreadyExists(path.to_string()),
        _ => CrfsError::Io(e),
    }
}

// ---------------------------------------------------------------------------
// CrfsFile
// ---------------------------------------------------------------------------

/// A handle to an open CRFS file.
///
/// Carries its own sequential position for [`write`](CrfsFile::write) /
/// [`read`](CrfsFile::read); positioned IO is available via
/// [`write_at`](CrfsFile::write_at) / [`read_at`](CrfsFile::read_at).
/// Dropping the handle closes it (blocking until outstanding chunks are
/// written, per the paper's close semantics) but swallows errors — call
/// [`close`](CrfsFile::close) to observe them.
pub struct CrfsFile {
    crfs: Arc<Crfs>,
    entry: Arc<FileEntry>,
    pos: AtomicU64,
    closed: AtomicBool,
}

impl CrfsFile {
    fn new(crfs: Arc<Crfs>, entry: Arc<FileEntry>) -> CrfsFile {
        CrfsFile {
            crfs,
            entry,
            pos: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// The file's normalized path within the mount.
    pub fn path(&self) -> &str {
        &self.entry.path
    }

    /// The filesystem this handle belongs to.
    pub fn mount(&self) -> &Arc<Crfs> {
        &self.crfs
    }

    fn check_open(&self) -> Result<()> {
        if self.closed.load(Relaxed) {
            Err(CrfsError::HandleClosed)
        } else {
            Ok(())
        }
    }

    /// Appends `data` at the current position; returns the bytes accepted
    /// (always all of them — CRFS buffers or blocks, it never short-writes).
    pub fn write(&self, data: &[u8]) -> Result<usize> {
        self.check_open()?;
        let off = self.pos.load(Relaxed);
        self.crfs.write_entry(&self.entry, off, data)?;
        self.pos.store(off + data.len() as u64, Relaxed);
        Ok(data.len())
    }

    /// Writes `data` at an explicit offset (does not move the sequential
    /// position).
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_open()?;
        self.crfs.write_entry(&self.entry, offset, data)
    }

    /// Reads at the current position, advancing it.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        self.check_open()?;
        let off = self.pos.load(Relaxed);
        let n = self.crfs.read_entry(&self.entry, off, buf)?;
        self.pos.store(off + n as u64, Relaxed);
        Ok(n)
    }

    /// Reads at an explicit offset.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.check_open()?;
        self.crfs.read_entry(&self.entry, offset, buf)
    }

    /// Seals and drains this file's pending chunks (no backend fsync).
    pub fn flush(&self) -> Result<()> {
        self.check_open()?;
        self.crfs.flush_entry(&self.entry)
    }

    /// Full fsync: flush pending chunks, wait, then fsync the backend.
    pub fn fsync(&self) -> Result<()> {
        self.check_open()?;
        self.crfs.fsync_entry(&self.entry)
    }

    /// Logical length (includes buffered-but-unflushed data).
    pub fn len(&self) -> Result<u64> {
        self.check_open()?;
        self.entry.logical_len().map_err(CrfsError::Io)
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncates (or extends) this file to exactly `len` bytes, draining
    /// pending chunks first. The sequential position is left unchanged
    /// (as with `ftruncate(2)`).
    pub fn set_len(&self, len: u64) -> Result<()> {
        self.check_open()?;
        self.crfs.flush_entry(&self.entry)?;
        self.crfs.entry_set_len(&self.entry, len)?;
        self.entry.max_extent.store(len, Relaxed);
        self.crfs.invalidate_reads(&self.entry, len);
        Ok(())
    }

    /// Current sequential position.
    pub fn position(&self) -> u64 {
        self.pos.load(Relaxed)
    }

    /// Moves the sequential position.
    pub fn set_position(&self, pos: u64) {
        self.pos.store(pos, Relaxed);
    }

    /// Closes the handle. The last handle on a file blocks until all its
    /// outstanding chunk writes completed and reports any asynchronous
    /// write error (paper §IV-C).
    pub fn close(self) -> Result<()> {
        self.close_inner()
    }

    pub(crate) fn close_inner(&self) -> Result<()> {
        if self.closed.swap(true, Relaxed) {
            return Err(CrfsError::HandleClosed);
        }
        self.crfs.close_entry(&self.entry)
    }
}

impl Drop for CrfsFile {
    fn drop(&mut self) {
        if !self.closed.load(Relaxed) {
            let _ = self.close_inner();
        }
    }
}

impl io::Write for CrfsFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        CrfsFile::write(self, buf).map_err(io::Error::from)
    }

    fn flush(&mut self) -> io::Result<()> {
        CrfsFile::flush(self).map_err(io::Error::from)
    }
}

impl io::Read for CrfsFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        CrfsFile::read(self, buf).map_err(io::Error::from)
    }
}

impl std::fmt::Debug for CrfsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrfsFile")
            .field("path", &self.entry.path)
            .field("pos", &self.position())
            .field("closed", &self.closed.load(Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FailureMode, FaultyBackend, MemBackend};
    use std::thread;

    fn mount_mem(config: CrfsConfig) -> (Arc<Crfs>, Arc<MemBackend>) {
        let be = Arc::new(MemBackend::new());
        let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config).unwrap();
        (fs, be)
    }

    fn small_config() -> CrfsConfig {
        CrfsConfig::default()
            .with_chunk_size(1024)
            .with_pool_size(4096)
            .with_io_threads(2)
    }

    #[test]
    fn write_close_lands_data_in_backend() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/ckpt").unwrap();
        f.write(b"hello ").unwrap();
        f.write(b"world").unwrap();
        f.close().unwrap();
        assert_eq!(be.contents("/ckpt").unwrap(), b"hello world");
        let snap = fs.stats();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.bytes_in, 11);
        assert_eq!(snap.bytes_out, 11);
        assert_eq!(snap.partial_seals, 1); // the close-time partial chunk
    }

    #[test]
    fn small_writes_aggregate_into_chunks() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/agg").unwrap();
        // 100 writes of 100 bytes = 10_000 bytes = 9 full 1024-chunks + tail.
        let payload = [7u8; 100];
        for _ in 0..100 {
            f.write(&payload).unwrap();
        }
        f.close().unwrap();
        assert_eq!(be.contents("/agg").unwrap().len(), 10_000);
        let snap = fs.stats();
        assert_eq!(snap.writes, 100);
        assert_eq!(snap.chunks_sealed, 10);
        assert_eq!(snap.bytes_out, 10_000);
        assert!(snap.aggregation_ratio() >= 10.0);
    }

    #[test]
    fn data_content_survives_chunking_boundaries() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/pattern").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        // Write in awkward sizes straddling chunk boundaries.
        let mut off = 0;
        for size in [1, 1023, 1024, 1025, 7, 2048, 4096, 777].iter().cycle() {
            if off >= data.len() {
                break;
            }
            let end = (off + size).min(data.len());
            f.write(&data[off..end]).unwrap();
            off = end;
        }
        f.close().unwrap();
        assert_eq!(be.contents("/pattern").unwrap(), data);
    }

    #[test]
    fn concurrent_writers_to_separate_files() {
        let (fs, be) = mount_mem(small_config());
        let mut handles = Vec::new();
        for rank in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(thread::spawn(move || {
                let f = fs.create(&format!("/rank{rank}")).unwrap();
                let byte = rank as u8;
                for _ in 0..50 {
                    f.write(&vec![byte; 257]).unwrap();
                }
                f.close().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for rank in 0..8 {
            let data = be.contents(&format!("/rank{rank}")).unwrap();
            assert_eq!(data.len(), 50 * 257);
            assert!(data.iter().all(|&b| b == rank as u8));
        }
        // All pool buffers must be back.
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
    }

    #[test]
    fn shared_entry_refcounting() {
        let (fs, _be) = mount_mem(small_config());
        let a = fs.create("/shared").unwrap();
        let b = fs.open("/shared").unwrap();
        assert_eq!(fs.open_files(), 1, "same file shares one table entry");
        a.write(b"xx").unwrap();
        drop(a);
        assert_eq!(fs.open_files(), 1, "entry survives while handles remain");
        b.close().unwrap();
        assert_eq!(fs.open_files(), 0);
    }

    #[test]
    fn nonsequential_write_seals_and_rewrites_correctly() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/nonseq").unwrap();
        f.write_at(0, b"AAAA").unwrap();
        f.write_at(100, b"BBBB").unwrap(); // discontinuity
        f.write_at(2, b"cc").unwrap(); // overwrite inside first run
        f.close().unwrap();
        let data = be.contents("/nonseq").unwrap();
        assert_eq!(&data[0..2], b"AA");
        assert_eq!(&data[2..4], b"cc");
        assert_eq!(&data[100..104], b"BBBB");
        assert_eq!(data.len(), 104);
        assert!(fs.stats().discontinuity_seals >= 1);
    }

    #[test]
    fn fsync_reaches_backend() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/sync").unwrap();
        f.write(b"data").unwrap();
        f.fsync().unwrap();
        assert_eq!(be.sync_count(), 1);
        assert_eq!(be.contents("/sync").unwrap(), b"data");
        f.close().unwrap();
    }

    #[test]
    fn read_after_write_same_mount_is_coherent() {
        let (fs, _be) = mount_mem(small_config());
        let f = fs.create("/raw").unwrap();
        f.write(b"0123456789").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read_at(3, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"3456");
        f.close().unwrap();
    }

    #[test]
    fn len_includes_buffered_data() {
        let (fs, _be) = mount_mem(small_config());
        let f = fs.create("/len").unwrap();
        f.write(&[0; 100]).unwrap();
        assert_eq!(f.len().unwrap(), 100, "buffered data counts");
        assert_eq!(fs.file_len("/len").unwrap(), 100);
        f.close().unwrap();
        assert_eq!(fs.file_len("/len").unwrap(), 100);
    }

    #[test]
    fn async_write_error_surfaces_at_close() {
        let be = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            FailureMode::FailWritesAfter(0),
        ));
        let fs = Crfs::mount(be as Arc<dyn Backend>, small_config()).unwrap();
        let f = fs.create("/bad").unwrap();
        // Fill more than one chunk so a background write definitely runs.
        f.write(&vec![1u8; 3000]).unwrap();
        let err = f.close().unwrap_err();
        assert!(
            matches!(err, CrfsError::DeferredWrite { .. }),
            "got {err:?}"
        );
        // Pool must not leak buffers even on failure.
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
    }

    #[test]
    fn unmount_flushes_open_files() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/open-at-unmount").unwrap();
        f.write(b"pending!").unwrap();
        fs.unmount().unwrap();
        assert_eq!(be.contents("/open-at-unmount").unwrap(), b"pending!");
        // Handle is now inert.
        assert!(matches!(f.write(b"x"), Err(CrfsError::Unmounted)));
        // Unmount is idempotent-with-error.
        assert!(matches!(fs.unmount(), Err(CrfsError::Unmounted)));
    }

    #[test]
    fn metadata_ops_pass_through() {
        let (fs, be) = mount_mem(small_config());
        fs.mkdir_all("/a/b/c").unwrap();
        assert!(fs.exists("/a/b/c"));
        fs.create("/a/b/c/f").unwrap().close().unwrap();
        assert_eq!(fs.list_dir("/a/b/c").unwrap(), vec!["f"]);
        fs.rename("/a/b/c/f", "/a/b/c/g").unwrap();
        assert!(be.exists("/a/b/c/g"));
        fs.unlink("/a/b/c/g").unwrap();
        fs.rmdir("/a/b/c").unwrap();
        assert!(!fs.exists("/a/b/c"));
    }

    #[test]
    fn reopen_with_truncate_discards_pending_data() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/trunc").unwrap();
        f.write(b"old-old-old").unwrap();
        let g = fs.create("/trunc").unwrap(); // truncating re-open
        g.write(b"new").unwrap();
        drop(f);
        g.close().unwrap();
        assert_eq!(be.contents("/trunc").unwrap(), b"new");
    }

    #[test]
    fn truncate_open_file_drains_pending_chunks_first() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/t").unwrap();
        f.write(&vec![7u8; 3000]).unwrap(); // spans buffered + in-flight
        f.set_len(100).unwrap();
        assert_eq!(f.len().unwrap(), 100);
        f.close().unwrap();
        let data = be.contents("/t").unwrap();
        assert_eq!(data.len(), 100);
        assert!(data.iter().all(|&b| b == 7), "surviving prefix intact");
    }

    #[test]
    fn truncate_by_path_open_and_closed() {
        let (fs, be) = mount_mem(small_config());
        // Open file: buffered data is honoured before the cut.
        let f = fs.create("/open").unwrap();
        f.write(&vec![1u8; 500]).unwrap();
        fs.truncate("/open", 200).unwrap();
        assert_eq!(fs.file_len("/open").unwrap(), 200);
        f.close().unwrap();
        assert_eq!(be.contents("/open").unwrap().len(), 200);
        // Closed file: plain backend pass-through, extend with zeros.
        fs.truncate("/open", 300).unwrap();
        let data = be.contents("/open").unwrap();
        assert_eq!(data.len(), 300);
        assert!(data[200..].iter().all(|&b| b == 0));
        // Missing file: clean error.
        assert!(fs.truncate("/missing", 0).is_err());
    }

    #[test]
    fn write_after_truncate_lands_at_logical_offset() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/wt").unwrap();
        f.write(&[1u8; 100]).unwrap();
        f.set_len(0).unwrap();
        f.write_at(0, b"fresh").unwrap();
        f.close().unwrap();
        assert_eq!(be.contents("/wt").unwrap(), b"fresh");
    }

    #[test]
    fn pool_backpressure_throttles_writers() {
        // 2-chunk pool, writes of 3 chunks each: writers must block and
        // recycle buffers; totals must still be exact.
        let config = CrfsConfig::default()
            .with_chunk_size(1024)
            .with_pool_size(2048)
            .with_io_threads(1);
        let (fs, be) = mount_mem(config);
        let f = fs.create("/bp").unwrap();
        f.write(&vec![9u8; 3 * 1024]).unwrap();
        f.close().unwrap();
        assert_eq!(be.contents("/bp").unwrap().len(), 3 * 1024);
    }

    #[test]
    fn closed_handle_rejects_operations() {
        let (fs, _be) = mount_mem(small_config());
        let f = fs.create("/c").unwrap();
        let entry_ops = f.close();
        entry_ops.unwrap();
        // f is consumed by close; create a fresh handle and close twice via drop + close_inner
        let g = fs.create("/c2").unwrap();
        g.write(b"x").unwrap();
        drop(g);
    }

    // ------------------------------------------------------------------
    // transform pipeline at the mount level
    // ------------------------------------------------------------------

    use crate::transform::CodecKind;

    /// Repetitive (compressible) payload with per-seed variation:
    /// alternating byte runs (RLE-friendly) and a repeating short
    /// pattern (LZ-friendly).
    fn compressible(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| {
                if (i / 64) % 2 == 0 {
                    seed
                } else {
                    seed.wrapping_add((i % 37) as u8)
                }
            })
            .collect()
    }

    #[test]
    fn transform_roundtrip_across_codecs() {
        for codec in [CodecKind::Identity, CodecKind::Rle, CodecKind::Lz] {
            let config = small_config().with_codec(codec);
            let (fs, _be) = mount_mem(config);
            let f = fs.create("/t").unwrap();
            let data = compressible(10_000, 3);
            f.write(&data).unwrap();
            f.flush().unwrap();
            let mut back = vec![0u8; data.len()];
            assert_eq!(f.read_at(0, &mut back).unwrap(), data.len());
            assert_eq!(back, data, "{codec:?}");
            assert_eq!(f.len().unwrap(), data.len() as u64);
            f.close().unwrap();
            assert_eq!(fs.file_len("/t").unwrap(), data.len() as u64);
            let snap = fs.stats();
            assert_eq!(snap.chunks_sealed, snap.chunks_completed);
            assert_eq!(snap.bytes_logical, data.len() as u64, "{codec:?}");
            assert_eq!(snap.integrity_failures, 0, "{codec:?}");
            if codec != CodecKind::Identity {
                assert!(
                    snap.bytes_stored < snap.bytes_logical,
                    "{codec:?}: {} stored for {} logical",
                    snap.bytes_stored,
                    snap.bytes_logical
                );
            }
            fs.unmount().unwrap();
        }
    }

    #[test]
    fn transformed_files_restart_on_a_fresh_mount() {
        let be = Arc::new(MemBackend::new());
        let config = small_config().with_codec(CodecKind::Lz).with_dedup(true);
        let data = compressible(6000, 9);
        let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).unwrap();
        fs.mkdir_all("/ckpt").unwrap();
        let f = fs.create("/ckpt/e1").unwrap();
        f.write(&data).unwrap();
        f.close().unwrap();
        // Second epoch, identical content: dedup emits references.
        fs.advance_epoch().unwrap();
        let g = fs.create("/ckpt/e2").unwrap();
        g.write(&data).unwrap();
        g.close().unwrap();
        assert!(fs.stats().dedup_hits > 0, "identical epoch must dedup");
        fs.unmount().unwrap();

        // A fresh mount (restart): logical lengths and bytes must be
        // recovered from the frame headers alone, including resolving
        // the cross-file dedup references.
        let fs = Crfs::mount(be as Arc<dyn Backend>, config).unwrap();
        for path in ["/ckpt/e1", "/ckpt/e2"] {
            assert_eq!(fs.file_len(path).unwrap(), data.len() as u64, "{path}");
            let f = fs.open(path).unwrap();
            let mut back = vec![0u8; data.len()];
            assert_eq!(f.read_at(0, &mut back).unwrap(), data.len(), "{path}");
            assert_eq!(back, data, "{path}");
            f.close().unwrap();
        }
        let snap = fs.stats();
        assert_eq!(snap.integrity_failures, 0);
        fs.unmount().unwrap();
    }

    #[test]
    fn transform_truncate_and_reopen_semantics() {
        let (fs, _be) = mount_mem(small_config().with_codec(CodecKind::Rle));
        let f = fs.create("/t").unwrap();
        f.write(&compressible(3000, 1)).unwrap();
        f.set_len(100).unwrap();
        assert_eq!(f.len().unwrap(), 100);
        let mut back = vec![0u8; 200];
        assert_eq!(f.read_at(0, &mut back).unwrap(), 100);
        assert_eq!(&back[..100], &compressible(3000, 1)[..100]);
        f.close().unwrap();
        // Truncate by path while closed, then verify on reopen.
        fs.truncate("/t", 40).unwrap();
        assert_eq!(fs.file_len("/t").unwrap(), 40);
        let g = fs.open("/t").unwrap();
        assert_eq!(g.len().unwrap(), 40);
        g.close().unwrap();
    }

    #[test]
    fn corrupted_backend_reads_surface_integrity_errors() {
        use crate::backend::{FailureMode, FaultyBackend};
        let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let fs = Crfs::mount(
            be.clone() as Arc<dyn Backend>,
            small_config().with_codec(CodecKind::Lz),
        )
        .unwrap();
        let f = fs.create("/c").unwrap();
        f.write(&compressible(4000, 7)).unwrap();
        f.flush().unwrap();
        // Start corrupting every backend read payload.
        be.set_mode(FailureMode::CorruptReads(1));
        let mut buf = vec![0u8; 4000];
        let err = f.read_at(0, &mut buf).unwrap_err();
        assert!(
            matches!(err, CrfsError::IntegrityError { .. }),
            "corruption must be detected, got {err:?}"
        );
        assert!(fs.stats().integrity_failures > 0);
        // Stop corrupting: the data is still intact underneath.
        be.set_mode(FailureMode::None);
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 4000);
        assert_eq!(buf, compressible(4000, 7));
        f.close().unwrap();
    }

    #[test]
    fn the_content_store_refuses_user_mutations() {
        use crate::snapshot::{CAS_DIR, SNAP_DIR};
        let (fs, _be) = mount_mem(small_config().with_codec(CodecKind::Lz).with_dedup(true));
        let x = compressible(2000, 1);
        let a = fs.create("/a").unwrap();
        a.write(&x).unwrap();
        a.close().unwrap();
        let names = fs.list_dir(CAS_DIR).unwrap();
        assert!(!names.is_empty(), "listing the store works");
        let chunk = format!("{CAS_DIR}/{}", names[0]);
        let denied = |r: Result<()>, what: &str| match r {
            Err(e) => assert_eq!(e.io_kind(), io::ErrorKind::PermissionDenied, "{what}: {e}"),
            Ok(()) => panic!("{what} went through"),
        };
        denied(fs.unlink(&chunk), "unlink");
        denied(fs.truncate(&chunk, 0), "truncate");
        denied(fs.rename(&chunk, "/stolen"), "rename out");
        denied(fs.rename("/a", &format!("{CAS_DIR}/x")), "rename in");
        denied(fs.rename(SNAP_DIR, "/snap"), "rename the tree");
        denied(fs.mkdir(&format!("{SNAP_DIR}/d")), "mkdir");
        denied(fs.mkdir_all(&format!("{CAS_DIR}/d/e")), "mkdir_all");
        denied(fs.rmdir(CAS_DIR), "rmdir");
        denied(fs.create(&format!("{CAS_DIR}/new")).map(drop), "create");
        denied(fs.create(&chunk).map(drop), "re-create");
        // Reads still work, and the handle cannot truncate either.
        let f = fs.open(&chunk).unwrap();
        assert_eq!(f.len().unwrap(), fs.file_len(&chunk).unwrap());
        denied(f.set_len(0), "set_len");
        f.close().unwrap();
        // The chunk is intact: a duplicate written later reads back.
        let b = fs.create("/b").unwrap();
        b.write(&x).unwrap();
        b.close().unwrap();
        let f = fs.open("/b").unwrap();
        let mut back = vec![0u8; x.len()];
        assert_eq!(f.read_at(0, &mut back).unwrap(), x.len());
        assert_eq!(back, x);
        f.close().unwrap();
        assert_eq!(fs.stats().dedup_hits, names.len() as u64);
    }

    #[test]
    fn raw_files_pass_through_on_transform_mounts() {
        let be = Arc::new(MemBackend::new());
        // Write raw (no codec)...
        let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, small_config()).unwrap();
        let f = fs.create("/raw").unwrap();
        f.write(b"plain bytes, no frames").unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        // ...reopen on a transform-enabled mount: reads pass through.
        let fs = Crfs::mount(
            be as Arc<dyn Backend>,
            small_config().with_codec(CodecKind::Lz),
        )
        .unwrap();
        assert_eq!(fs.file_len("/raw").unwrap(), 22);
        let g = fs.open("/raw").unwrap();
        let mut buf = vec![0u8; 22];
        assert_eq!(g.read_at(0, &mut buf).unwrap(), 22);
        assert_eq!(&buf, b"plain bytes, no frames");
        g.close().unwrap();
        fs.unmount().unwrap();
    }

    // ------------------------------------------------------------------
    // engine semantics as seen through the mount
    // ------------------------------------------------------------------

    use crate::backend::{ThrottleParams, ThrottledBackend};

    #[test]
    fn engine_preserves_write_close_semantics() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/x").unwrap();
        f.write(&vec![3u8; 5000]).unwrap();
        f.close().unwrap();
        let data = be.contents("/x").unwrap();
        assert_eq!(data.len(), 5000);
        assert!(data.iter().all(|&b| b == 3));
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
        assert_eq!(snap.bytes_out, 5000);
        assert_eq!(
            snap.backend_writes, snap.chunks_completed,
            "one backend op per completed chunk"
        );
    }

    #[test]
    fn engine_observes_close_barrier_under_slow_backend() {
        let be = Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            ThrottleParams {
                bandwidth: 512 << 20,
                per_op_latency: std::time::Duration::from_millis(2),
                seek_penalty: std::time::Duration::ZERO,
            },
        ));
        let fs = Crfs::mount(be.clone(), small_config().with_io_threads(1)).unwrap();
        let f = fs.create("/barrier").unwrap();
        f.write(&vec![1u8; 4 * 1024]).unwrap(); // 4 sealed chunks
        f.close().unwrap();
        // close must have waited until every sealed chunk completed.
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
        assert_eq!(snap.bytes_out, 4 * 1024);
        assert_eq!(be.inner().contents("/barrier").unwrap().len(), 4 * 1024);
        fs.unmount().unwrap();
    }

    #[test]
    fn engine_propagates_deferred_write_errors() {
        let be = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            FailureMode::FailWritesAfter(0),
        ));
        let fs = Crfs::mount(be as Arc<dyn Backend>, small_config()).unwrap();
        let f = fs.create("/bad").unwrap();
        f.write(&vec![1u8; 3000]).unwrap();
        // flush_entry (via flush) surfaces the engine's async error.
        let err = f.flush().unwrap_err();
        assert!(
            matches!(err, CrfsError::DeferredWrite { .. }),
            "got {err:?}"
        );
        // The sticky error also re-surfaces at close.
        let err = f.close().unwrap_err();
        assert!(
            matches!(err, CrfsError::DeferredWrite { .. }),
            "got {err:?}"
        );
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
    }

    /// Batched submission is observable: a multi-chunk write makes one
    /// engine submission, and the accounting ledger still balances.
    #[test]
    fn large_write_submits_chunks_as_one_batch() {
        let (fs, be) = mount_mem(
            small_config()
                .with_pool_size(16 << 10)
                .with_submit_batch(16),
        );
        let f = fs.create("/batched").unwrap();
        f.write(&vec![4u8; 8 * 1024]).unwrap(); // seals 8 chunks
        f.close().unwrap();
        assert_eq!(be.contents("/batched").unwrap().len(), 8 * 1024);
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, 8);
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
        // 8 full chunks in one batch + the close-time partial-less
        // flush submits nothing extra (the write ended chunk-aligned).
        assert_eq!(snap.engine_submits, 1);
        assert!(snap.avg_batch_len() >= 8.0);
        assert_eq!(snap.backend_writes, snap.chunks_completed);
    }

    /// With batching disabled (submit_batch = 1) every sealed chunk is
    /// its own submission — the baseline the batch counter is judged
    /// against.
    #[test]
    fn unbatched_submission_costs_one_lock_per_chunk() {
        let (fs, _be) = mount_mem(small_config().with_submit_batch(1));
        let f = fs.create("/solo").unwrap();
        f.write(&vec![1u8; 8 * 1024]).unwrap();
        f.close().unwrap();
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, 8);
        assert_eq!(snap.engine_submits, 8);
        assert_eq!(snap.avg_batch_len(), 1.0);
    }

    /// Unmount racing a storm of multi-chunk (batched) writes: every
    /// sealed chunk must complete exactly once (written or refused), no
    /// barrier may hang, and every pool buffer must come back.
    #[test]
    fn unmount_during_batched_writes_never_leaks_or_hangs() {
        let config = CrfsConfig::default()
            .with_chunk_size(1024)
            .with_pool_size(8 << 10)
            .with_io_threads(2)
            .with_submit_batch(8);
        let (fs, _be) = mount_mem(config);
        let mut writers = Vec::new();
        for w in 0..4 {
            let fs = Arc::clone(&fs);
            writers.push(thread::spawn(move || {
                let Ok(f) = fs.create(&format!("/race{w}")) else {
                    return; // lost the race to unmount entirely
                };
                for _ in 0..50 {
                    // 4-chunk writes so submission is genuinely batched.
                    if f.write(&vec![w as u8; 4 * 1024]).is_err() {
                        break; // unmounted under us — expected
                    }
                }
                let _ = f.close();
            }));
        }
        // Let the writers get going, then pull the rug.
        thread::sleep(std::time::Duration::from_millis(5));
        let _ = fs.unmount();
        for h in writers {
            h.join().unwrap();
        }
        let snap = fs.stats();
        assert_eq!(
            snap.chunks_sealed,
            snap.chunks_completed + snap.chunks_refused,
            "every sealed chunk written or refused exactly once"
        );
        assert_eq!(
            snap.backend_writes, snap.chunks_completed,
            "op accounting balances"
        );
        assert_eq!(
            snap.pool_free_chunks, snap.pool_total_chunks,
            "every buffer returned to the pool"
        );
    }

    // ------------------------------------------------------------------
    // restart read path: prefetch cache, read-ahead, overlap-only flush
    // ------------------------------------------------------------------

    /// The restart workload: write a checkpoint, close, reopen, stream
    /// it back sequentially. The read cache must serve hits, the ledger
    /// must balance, and every buffer must come back.
    #[test]
    fn sequential_reopen_read_hits_prefetch_cache() {
        let (fs, _be) = mount_mem(small_config().with_read_ahead(4));
        let data: Vec<u8> = (0..16 * 1024u32).map(|i| (i % 251) as u8).collect();
        let f = fs.create("/img").unwrap();
        f.write(&data).unwrap();
        f.close().unwrap();

        let g = fs.open("/img").unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            let n = g.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        g.close().unwrap();
        assert_eq!(got, data);

        let snap = fs.stats();
        assert!(snap.read_hits > 0, "cache never hit");
        assert!(snap.prefetch_issued > 0);
        assert_eq!(
            snap.prefetch_issued, snap.prefetch_completed,
            "read ledger balances"
        );
        assert!(snap.prefetch_wasted <= snap.prefetch_issued);
        assert_eq!(
            snap.pool_free_chunks, snap.pool_total_chunks,
            "every cached buffer returned"
        );
        assert_eq!(snap.bytes_read, 16 * 1024);
        fs.unmount().unwrap();
    }

    /// A second sequential pass over an already-streamed file must
    /// prefetch again: the first pass drives the planning high-water to
    /// EOF, and the seek back to 0 must re-base it.
    #[test]
    fn reread_after_full_scan_still_prefetches() {
        let (fs, _be) = mount_mem(small_config().with_read_ahead(4));
        let data: Vec<u8> = (0..8 * 1024u32).map(|i| (i % 251) as u8).collect();
        let f = fs.create("/rescan").unwrap();
        f.write(&data).unwrap();
        f.close().unwrap();

        let g = fs.open("/rescan").unwrap();
        let scan = |g: &CrfsFile| {
            g.set_position(0);
            let mut got = Vec::new();
            let mut buf = [0u8; 512];
            loop {
                let n = g.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, data);
        };
        scan(&g);
        let first_pass = fs.stats().prefetch_issued;
        assert!(first_pass > 0);
        scan(&g);
        let second_pass = fs.stats().prefetch_issued - first_pass;
        assert!(
            second_pass > 0,
            "second pass issued no prefetch — window never re-based"
        );
        assert!(fs.stats().read_hits > 0);
        g.close().unwrap();
    }

    /// `read_ahead_chunks = 0` restores the paper's pass-through reads:
    /// no cache, no prefetch traffic, identical bytes.
    #[test]
    fn disabled_prefetch_passes_reads_through() {
        let (fs, _be) = mount_mem(small_config().with_read_ahead(0));
        let f = fs.create("/plain").unwrap();
        f.write(&vec![3u8; 4096]).unwrap();
        f.close().unwrap();
        let g = fs.open("/plain").unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(g.read_at(0, &mut buf).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 3));
        g.close().unwrap();
        let snap = fs.stats();
        assert_eq!(snap.read_hits, 0);
        assert_eq!(snap.read_misses, 0, "no cache layer at all");
        assert_eq!(snap.prefetch_issued, 0);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.bytes_read, 4096);
    }

    /// The overlap-only flush fix: a read entirely below the dirty range
    /// must not seal the file's partial chunk; a read overlapping it
    /// must (that seal is what makes the data visible).
    #[test]
    fn read_flushes_only_on_overlap_with_dirty_range() {
        let (fs, _be) = mount_mem(small_config());
        let f = fs.create("/tail").unwrap();
        // Dirty range starts at 8192; everything below is clean.
        f.write_at(8192, b"tail-data").unwrap();
        let mut buf = [0u8; 64];
        let _ = f.read_at(0, &mut buf).unwrap();
        assert_eq!(
            fs.stats().partial_seals,
            0,
            "non-overlapping read must not flush the partial chunk"
        );
        let n = f.read_at(8192, &mut buf[..9]).unwrap();
        assert_eq!(&buf[..n], b"tail-data");
        assert_eq!(
            fs.stats().partial_seals,
            1,
            "overlapping read performs the coherence flush"
        );
        f.close().unwrap();
    }

    /// A write over cached chunks invalidates them: the next read sees
    /// the new bytes, never the stale cache.
    #[test]
    fn write_invalidates_overlapping_read_cache() {
        let (fs, _be) = mount_mem(small_config().with_read_ahead(4));
        let f = fs.create("/inv").unwrap();
        f.write(&vec![1u8; 4096]).unwrap();
        f.flush().unwrap();
        // Warm the cache with a sequential read.
        let mut buf = vec![0u8; 2048];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 2048);
        assert!(buf.iter().all(|&b| b == 1));
        // Overwrite the cached range, then re-read it.
        f.write_at(0, &vec![2u8; 2048]).unwrap();
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 2048);
        assert!(
            buf.iter().all(|&b| b == 2),
            "read served stale cached bytes after an overlapping write"
        );
        f.close().unwrap();
        let snap = fs.stats();
        assert_eq!(snap.prefetch_issued, snap.prefetch_completed);
        assert_eq!(snap.pool_free_chunks, snap.pool_total_chunks);
    }

    /// Unmount racing active prefetch: ledgers balance, nothing leaks.
    #[test]
    fn unmount_during_prefetch_reads_never_leaks() {
        let (fs, _be) = mount_mem(small_config().with_read_ahead(8));
        let f = fs.create("/r").unwrap();
        f.write(&vec![5u8; 32 * 1024]).unwrap();
        f.close().unwrap();
        let mut readers = Vec::new();
        for _ in 0..3 {
            let fs = Arc::clone(&fs);
            readers.push(thread::spawn(move || {
                let Ok(g) = fs.open("/r") else { return };
                let mut buf = [0u8; 700];
                while let Ok(n) = g.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                }
                let _ = g.close();
            }));
        }
        thread::sleep(std::time::Duration::from_millis(2));
        let _ = fs.unmount();
        for h in readers {
            h.join().unwrap();
        }
        let snap = fs.stats();
        assert_eq!(
            snap.prefetch_issued, snap.prefetch_completed,
            "every issued prefetch retired"
        );
        assert_eq!(
            snap.pool_free_chunks, snap.pool_total_chunks,
            "every buffer returned"
        );
    }

    // ------------------------------------------------------------------
    // unmount idempotency / Drop safety
    // ------------------------------------------------------------------

    #[test]
    fn concurrent_unmounts_drain_exactly_once() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/pending").unwrap();
        f.write(&vec![5u8; 2500]).unwrap();
        f.close().unwrap();
        // Leave a second file open so unmount itself has flushing to do.
        let g = fs.create("/open").unwrap();
        g.write(&vec![6u8; 1500]).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(thread::spawn(move || fs.unmount()));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let oks = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(oks, 1, "exactly one unmount performs teardown");
        for r in &results {
            if r.is_err() {
                assert!(
                    matches!(r, Err(CrfsError::Unmounted)),
                    "losers report Unmounted, got {r:?}"
                );
            }
        }
        // All data drained exactly once, nothing lost or duplicated.
        assert_eq!(be.contents("/pending").unwrap(), vec![5u8; 2500]);
        assert_eq!(be.contents("/open").unwrap(), vec![6u8; 1500]);
        let snap = fs.stats();
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
        assert_eq!(snap.bytes_out, 4000);
        // A later Drop of `fs` must not attempt a second drain.
        drop(g);
    }

    #[test]
    fn unmounted_fs_drop_is_inert() {
        let (fs, be) = mount_mem(small_config());
        let f = fs.create("/d").unwrap();
        f.write(b"bytes").unwrap();
        drop(f);
        fs.unmount().unwrap();
        let completed_after_unmount = fs.stats().chunks_completed;
        drop(fs); // Drop sees unmounted == true and must not re-drain
        assert_eq!(be.contents("/d").unwrap(), b"bytes");
        let _ = completed_after_unmount;
    }

    #[test]
    fn io_write_trait_works() {
        use std::io::Write;
        let (fs, be) = mount_mem(small_config());
        let mut f = fs.create("/w").unwrap();
        f.write_all(b"via io::Write").unwrap();
        f.flush().unwrap();
        drop(f);
        assert_eq!(be.contents("/w").unwrap(), b"via io::Write");
    }

    // -----------------------------------------------------------------
    // versioned snapshots
    // -----------------------------------------------------------------

    fn snapshot_config() -> CrfsConfig {
        small_config().with_codec(CodecKind::Lz).with_dedup(true)
    }

    #[test]
    fn snapshot_epochs_restart_byte_exact_across_rewrites() {
        let (fs, _be) = mount_mem(snapshot_config());
        let v0 = compressible(6000, 1);
        let f = fs.create("/img").unwrap();
        f.write(&v0).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap(); // seals epoch 0

        // Rewrite with a differing tail — the shared prefix dedups.
        let mut v1 = v0.clone();
        for b in &mut v1[4096..] {
            *b = b.wrapping_add(13);
        }
        let f = fs.create("/img").unwrap();
        f.write(&v1).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap(); // seals epoch 1

        assert_eq!(fs.snapshot_epochs(), vec![0, 1]);
        for (epoch, want) in [(0u64, &v0), (1u64, &v1)] {
            let view = fs.open_restart("/img", epoch).unwrap();
            assert_eq!(view.len().unwrap(), want.len() as u64, "epoch {epoch}");
            let mut back = vec![0u8; want.len()];
            assert_eq!(view.read_at(0, &mut back).unwrap(), want.len());
            assert_eq!(&back, want, "epoch {epoch} bytes");
            view.close().unwrap();
        }
        // The live file still reads the newest content.
        let f = fs.open("/img").unwrap();
        let mut live = vec![0u8; v1.len()];
        f.read_at(0, &mut live).unwrap();
        assert_eq!(live, v1);
        f.close().unwrap();
        assert_eq!(fs.stats().integrity_failures, 0);
        fs.unmount().unwrap();
    }

    #[test]
    fn snapshot_views_are_read_only_and_release_their_pin() {
        let (fs, _be) = mount_mem(snapshot_config().with_snapshot_keep_epochs(1));
        let f = fs.create("/img").unwrap();
        f.write(&compressible(3000, 2)).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap(); // epoch 0
        let view = fs.open_restart("/img", 0).unwrap();
        assert!(matches!(
            view.write(b"nope").unwrap_err(),
            CrfsError::ReadOnlySnapshot { epoch: 0, .. }
        ));
        assert!(matches!(
            view.set_len(1).unwrap_err(),
            CrfsError::ReadOnlySnapshot { epoch: 0, .. }
        ));
        // keep_epochs = 1: sealing epoch 1 would retire epoch 0, but
        // the open view pins it.
        let f = fs.create("/img").unwrap();
        f.write(&compressible(3000, 3)).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap(); // epoch 1
        assert_eq!(fs.snapshot_epochs(), vec![0, 1], "pin holds epoch 0");
        let mut back = vec![0u8; 3000];
        view.read_at(0, &mut back).unwrap();
        assert_eq!(back, compressible(3000, 2));
        view.close().unwrap();
        // Pin released: the next seal retires both old epochs.
        let f = fs.create("/img").unwrap();
        f.write(&compressible(3000, 4)).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap(); // epoch 2
        assert_eq!(fs.snapshot_epochs(), vec![2]);
        fs.unmount().unwrap();
    }

    #[test]
    fn snapshot_gc_reclaims_retired_chunks_and_restart_survives_remount() {
        let be = Arc::new(MemBackend::new());
        let config = snapshot_config().with_snapshot_keep_epochs(2);
        let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).unwrap();
        let gens: Vec<Vec<u8>> = (0..4u8).map(|s| compressible(5000, 100 + s)).collect();
        for g in &gens {
            let f = fs.create("/img").unwrap();
            f.write(g).unwrap();
            f.close().unwrap();
            fs.advance_epoch().unwrap();
        }
        assert_eq!(fs.snapshot_epochs(), vec![2, 3]);
        let report = fs.snapshot_gc().unwrap();
        assert!(
            report.reclaimed_chunks > 0,
            "epochs 0/1 chunks are unreachable: {report:?}"
        );
        // Everything the retained epochs reach still reads back.
        for (epoch, want) in [(2u64, &gens[2]), (3u64, &gens[3])] {
            let view = fs.open_restart("/img", epoch).unwrap();
            let mut back = vec![0u8; want.len()];
            view.read_at(0, &mut back).unwrap();
            assert_eq!(&back, want, "epoch {epoch} after GC");
            view.close().unwrap();
        }
        // A second pass finds nothing further.
        assert_eq!(fs.snapshot_gc().unwrap().reclaimed_chunks, 0);
        fs.unmount().unwrap();

        // Remount: manifests recover, old epochs still restartable.
        let fs = Crfs::mount(be as Arc<dyn Backend>, config).unwrap();
        assert_eq!(fs.snapshot_epochs(), vec![2, 3]);
        let view = fs.open_restart("/img", 2).unwrap();
        let mut back = vec![0u8; gens[2].len()];
        view.read_at(0, &mut back).unwrap();
        assert_eq!(back, gens[2]);
        view.close().unwrap();
        // Unknown epoch and unknown path both fail cleanly.
        assert!(fs.open_restart("/img", 99).is_err());
        assert!(matches!(
            fs.open_restart("/missing", 2).unwrap_err(),
            CrfsError::NotFound(_)
        ));
        assert_eq!(fs.stats().integrity_failures, 0);
        fs.unmount().unwrap();
    }

    #[test]
    fn snapshot_delta_epochs_store_only_dirty_chunks() {
        let (fs, _be) = mount_mem(snapshot_config());
        // Incompressible-ish payload so CAS bytes track dirty bytes.
        let mut img: Vec<u8> = (0..32_768u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let f = fs.create("/img").unwrap();
        f.write(&img).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap();
        let full = fs.stats().snapshot_bytes;
        assert!(full > 0);

        // Dirty ~1/8 of the image (chunk-aligned), rewrite everything.
        for b in &mut img[0..4096] {
            *b = b.wrapping_add(1);
        }
        let f = fs.create("/img").unwrap();
        f.write(&img).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap();
        let delta = fs.stats().snapshot_bytes - full;
        assert!(
            delta * 4 < full,
            "10-ish% dirty epoch must store a small fraction: {delta} vs {full}"
        );
        fs.unmount().unwrap();
    }
}
