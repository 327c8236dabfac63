//! Two-tier backend: fast-tier acknowledgement, asynchronous drain to a
//! durable tier.
//!
//! Multi-level checkpointing (OpenCHK's per-level semantics, CRAFT's
//! node-local → PFS staging) writes every checkpoint byte twice: once to
//! a fast local tier that acknowledges immediately, and once — in the
//! background — to the slow durable tier the job actually survives on.
//! [`TieredBackend`] composes any two [`Backend`]s into that shape:
//!
//! - **Writes** land in the fast tier and ack as soon as it does. Each
//!   acknowledged range becomes a *drain op* in a queue.
//! - **The drain workers** (see below) copy queued ranges to the durable
//!   tier in *device order*: the next op is the one that continues where
//!   the device last wrote — same file, next offset — for up to
//!   [`RUN_BYTES`] at a stretch, and the oldest queued op otherwise, so
//!   a seeking device sees few, long sequential runs however the
//!   writers interleaved their chunks. An op re-reads the fast tier when
//!   it is issued, so re-written ranges always drain the newest bytes,
//!   and two ops with overlapping ranges on one file are never in flight
//!   together (the only order that could leave the durable tier stale).
//!   `drain_window` bounds the copies in flight on a durable tier that
//!   completes asynchronously (`RpcStore`).
//! - **One durable handle per file.** Every durable write, `set_len` and
//!   barrier `sync` of a path goes through one cached handle; unlink,
//!   rename and a truncating open close it first. No durable file ever
//!   has two live write handles, which `LocalFileBackend` requires of
//!   concurrent writers (its handles preallocate and trim on their own)
//!   and which keeps a device's sequentiality detection meaningful.
//! - **Watermark backpressure**: when undrained resident bytes reach
//!   `watermark_hi` the backend degrades to write-through pace — a
//!   write lands in the fast tier, queues its drain op and *waits until
//!   the drain is back under `watermark_hi`*, so every retired copy
//!   admits one more write: writers advance at durable-tier speed, in
//!   step with the device rather than with the fast tier, and resident
//!   bytes stop growing — until the drain catches back down to
//!   `watermark_lo`. Full fast tiers slow down; they never block
//!   indefinitely. The queue stays in device order (a degraded write
//!   does not jump it), and a degraded write returns an error once a
//!   drain copy has failed since the last barrier.
//! - **Durability contract**: acknowledgement means *fast-tier* placement
//!   only, in either mode. Data is durable
//!   once a [`drain_barrier`](Backend::drain_barrier) after it returns
//!   `Ok`: the barrier waits for the queue to empty, syncs every
//!   durable file written since the previous barrier, and fails if any
//!   drain copy failed — which is how a crash mid-drain surfaces. After
//!   such a crash the fast tier holds the acknowledged prefix; the
//!   `crfs-fsck` tier-consistency pass re-drains what the durable tier
//!   is missing (see `fsck::run_tiered`).
//! - **Retention**: by default the fast tier retains everything (a full
//!   mirror, so reads always serve fast bytes). With
//!   [`TieredParams::evict_on_barrier`] the fast copy of fully-drained,
//!   closed files is dropped at the barrier; a later read miss promotes
//!   the file back from the durable tier (`tier_promote`).
//!
//! # Drain worker
//!
//! [`TieredBackend::new`] spawns [`DRAIN_WORKERS`] threads named
//! `crfs-drain<N>`; dropping the backend lets them land everything
//! still queued and joins them. The workers are symmetric. Each takes
//! the next op in device order under the queue lock (with a ticket
//! numbering the picks), re-reads its bytes from the fast tier with the
//! lock released, waits for its ticket's turn, issues the durable write,
//! and passes the turn on. Durable writes therefore reach the device
//! strictly in pick order, while one worker's fast-tier re-read overlaps
//! the device time of the other's write.
//!
//! Nothing polls; every wait is an untimed condvar wait under the queue
//! lock, re-checking its condition on wakeup:
//!
//! - `work` parks the workers — idle, blocked by the window or by an
//!   overlapping copy in flight, or waiting for their turn. Woken by
//!   every enqueue, every retired op, every passed turn, and shutdown.
//! - `retired` parks everyone waiting for copies to finish: the
//!   barrier, a degraded writer waiting for room under the watermark, and
//!   unlink / rename / truncate / `set_len` waiting out copies in
//!   flight on their path. Woken whenever an op leaves the queue or
//!   the in-flight set — completed, failed, or purged.
//!
//! Observability rides the mount's stats block, attached by
//! `Crfs::mount` through [`Backend::attach_stats`]: `drain_copy` (pick
//! to completion), `drain_wait` and `tier_promote` stage histograms,
//! plus `drain_copy` / `tier_promote` / `write_failed` flight-recorder
//! events.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use super::{normalize_path, Backend, BackendFile, CompletionSink, OpenOptions};
use crate::obs::EventKind;
use crate::pool::ChunkBuf;
use crate::stats::CrfsStats;

/// Drain threads per backend. Two, so that the fast-tier re-read of the
/// next op (a real disk read when the fast tier is written `O_DIRECT`)
/// overlaps the device time of the current one; the turn order keeps
/// the device stream single and sequential regardless.
const DRAIN_WORKERS: usize = 2;

/// Longest contiguous run the drain follows on one file before it goes
/// back to the oldest queued op, so a second file waits at most one run
/// while a disk-class seek stays a few percent of a run's device time.
const RUN_BYTES: u64 = 16 << 20;

/// Durable handles kept open between barriers before idle ones are
/// closed, bounding descriptors on stacks that drain many small files.
const MAX_DURABLE_HANDLES: usize = 64;

/// Tuning knobs for [`TieredBackend`]. See
/// [`CrfsConfig`](crate::CrfsConfig) for the mount-level builders that
/// produce one.
#[derive(Debug, Clone, Copy)]
pub struct TieredParams {
    /// Undrained resident bytes at which writes degrade to synchronous
    /// write-through (durable-speed acks).
    pub watermark_hi: u64,
    /// Resident bytes the drain must fall back to before fast-tier
    /// acknowledgement resumes.
    pub watermark_lo: u64,
    /// Maximum drain copies in flight to the durable tier.
    pub drain_window: usize,
    /// Promote whole files from the durable tier back into the fast
    /// tier when a read-only open misses fast (the re-read path after
    /// eviction or a fast-tier loss).
    pub promote_reads: bool,
    /// Drop the fast-tier copy of fully-drained, closed files at each
    /// successful `drain_barrier` (minimal fast-tier retention). Off by
    /// default: the fast tier keeps a full mirror.
    pub evict_on_barrier: bool,
}

impl Default for TieredParams {
    fn default() -> TieredParams {
        TieredParams {
            watermark_hi: 256 << 20,
            watermark_lo: 64 << 20,
            drain_window: 8,
            promote_reads: true,
            evict_on_barrier: false,
        }
    }
}

/// Point-in-time copy of the tier counters (the repository benchmark's
/// `tiered.*` metrics read them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Drain copies that reached the durable tier.
    pub drain_ops: u64,
    /// Payload bytes those copies moved.
    pub drain_bytes: u64,
    /// Drain copies that failed (durable-tier error). A barrier after a
    /// failure reports it instead of claiming durability.
    pub drain_failed: u64,
    /// Drain ops dropped because their fast-tier source vanished first
    /// (unlink/truncate raced the drain) — not an error.
    pub drain_dropped: u64,
    /// Writes that took the degraded write-through path (acked only
    /// once the drain was back under the high watermark).
    pub write_through_ops: u64,
    /// Whole-file promotions from the durable tier into the fast tier.
    pub tier_promotes: u64,
    /// Fast-tier copies evicted at a barrier.
    pub evictions: u64,
    /// `drain_barrier` calls.
    pub barrier_waits: u64,
    /// Undrained bytes resident in the fast tier right now.
    pub resident_bytes: u64,
}

/// One queued fast→durable copy. The payload is *not* captured here:
/// the worker re-reads the fast tier when it issues the op, so the
/// newest bytes for the range always win.
struct DrainOp {
    path: String,
    offset: u64,
    len: u64,
}

fn overlaps(a_off: u64, a_len: u64, b_off: u64, b_len: u64) -> bool {
    a_off < b_off + b_len && b_off < a_off + a_len
}

/// Suffix marker of in-progress promotion staging files. They live in
/// the fast-tier namespace next to their target (`{target}.promote-N`)
/// but never hold user-visible data: `TieredBackend::list_dir` hides
/// them, and the `crfs-fsck` tier pass sweeps leftovers from a crash
/// mid-promotion instead of flagging them stranded and re-draining the
/// partial copy.
pub(crate) const PROMOTE_TMP_MARKER: &str = ".promote-";

/// True for `{target}.promote-N` staging names (path or basename); see
/// [`PROMOTE_TMP_MARKER`].
pub(crate) fn is_promote_tmp(name: &str) -> bool {
    name.rfind(PROMOTE_TMP_MARKER).is_some_and(|i| {
        let digits = &name[i + PROMOTE_TMP_MARKER.len()..];
        !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
    })
}

#[derive(Default)]
struct Queue {
    /// Oldest first.
    ops: VecDeque<DrainOp>,
    /// Ranges currently copying to the durable tier, per path. An op
    /// overlapping an in-flight range on its own file is never issued —
    /// the one ordering that could complete a stale copy last.
    inflight: HashMap<String, Vec<(u64, u64)>>,
    inflight_total: usize,
    /// Where the device stands: the file and end offset of the op
    /// picked last, and the bytes picked since the drain last jumped.
    head: Option<(String, u64)>,
    run: u64,
    /// Tickets number the picks; `turn` is the ticket whose durable
    /// write may be issued next.
    next_ticket: u64,
    turn: u64,
    /// The backend is being dropped: nothing new is accepted, and the
    /// workers exit once the queue is empty.
    closed: bool,
    /// Test hook: no op is picked while set.
    #[cfg(test)]
    held: bool,
}

impl Queue {
    fn issuable(&self, op: &DrainOp) -> bool {
        self.inflight
            .get(&op.path)
            .is_none_or(|rs| !rs.iter().any(|&(o, l)| overlaps(o, l, op.offset, op.len)))
    }

    /// Takes the next op in device order — the one continuing the
    /// current run if it is queued and the run is short of
    /// [`RUN_BYTES`], else the oldest issuable one — and its ticket.
    fn pick(&mut self, window: usize) -> Option<(DrainOp, u64)> {
        #[cfg(test)]
        if self.held {
            return None;
        }
        if self.inflight_total >= window {
            return None;
        }
        let continues = self
            .head
            .as_ref()
            .filter(|_| self.run < RUN_BYTES)
            .and_then(|(path, end)| {
                self.ops
                    .iter()
                    .position(|op| op.offset == *end && op.path == *path && self.issuable(op))
            });
        let idx = match continues {
            Some(i) => i,
            None => {
                self.run = 0;
                self.ops.iter().position(|op| self.issuable(op))?
            }
        };
        let op = self.ops.remove(idx).expect("index in range");
        self.run += op.len;
        match &mut self.head {
            Some((path, end)) if *path == op.path => *end = op.offset + op.len,
            head => *head = Some((op.path.clone(), op.offset + op.len)),
        }
        self.inflight
            .entry(op.path.clone())
            .or_default()
            .push((op.offset, op.len));
        self.inflight_total += 1;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        Some((op, ticket))
    }

    fn retire(&mut self, op: &DrainOp) {
        if let Some(rs) = self.inflight.get_mut(&op.path) {
            if let Some(i) = rs.iter().position(|&r| r == (op.offset, op.len)) {
                rs.swap_remove(i);
            }
            if rs.is_empty() {
                self.inflight.remove(&op.path);
            }
        }
        self.inflight_total -= 1;
    }

    fn drained(&self) -> bool {
        self.ops.is_empty() && self.inflight_total == 0
    }

    fn path_in_flight(&self, path: &str) -> bool {
        self.inflight.contains_key(path)
    }

    fn path_queued(&self, path: &str) -> bool {
        self.ops.iter().any(|op| op.path == path)
    }
}

#[derive(Default)]
struct Counters {
    drain_ops: AtomicU64,
    drain_bytes: AtomicU64,
    drain_failed: AtomicU64,
    drain_dropped: AtomicU64,
    write_through_ops: AtomicU64,
    tier_promotes: AtomicU64,
    evictions: AtomicU64,
    barrier_waits: AtomicU64,
}

/// How one drain op ended.
enum Outcome {
    Copied,
    Dropped,
    Failed,
}

struct Shared {
    fast: Arc<dyn Backend>,
    durable: Arc<dyn Backend>,
    params: TieredParams,
    queue: Mutex<Queue>,
    /// Parks the drain workers; see the module docs for who wakes whom.
    work: Condvar,
    /// Parks everyone waiting for copies to finish.
    retired: Condvar,
    /// Bytes acknowledged fast but not yet copied to the durable tier.
    resident: AtomicU64,
    /// Degraded mode: the fast tier is over `watermark_hi`.
    write_through: AtomicBool,
    /// Drain copies that failed since the last barrier; a non-zero
    /// count fails the barrier instead of claiming durability.
    failed_since_barrier: AtomicU64,
    /// The one live write handle of each durable file touched lately.
    /// Taken after the queue lock where both are held, never before.
    durable_files: Mutex<HashMap<String, Arc<dyn BackendFile>>>,
    /// Durable paths written since the last barrier's sync sweep.
    dirty: Mutex<BTreeSet<String>>,
    /// Open write handles per path — eviction skips files still open.
    writers: Mutex<HashMap<String, usize>>,
    next_token: AtomicU64,
    stats: Mutex<Option<Arc<CrfsStats>>>,
    c: Counters,
}

impl Shared {
    fn stats(&self) -> Option<Arc<CrfsStats>> {
        self.stats.lock().clone()
    }

    fn stage_timer(&self) -> Option<Instant> {
        self.stats().and_then(|s| s.stages.timer())
    }

    /// Queues the copy of an acknowledged range. Fails only once the
    /// backend is shut down: the bytes reached the fast tier, but no
    /// worker is left to carry them further.
    fn enqueue(&self, path: &str, offset: u64, len: usize) -> io::Result<()> {
        let mut q = self.queue.lock();
        if q.closed {
            return Err(io::Error::other(
                "tiered backend is shut down: the write reached the fast tier only",
            ));
        }
        let now = self.resident.fetch_add(len as u64, Relaxed) + len as u64;
        if now >= self.params.watermark_hi {
            self.write_through.store(true, Relaxed);
        }
        q.ops.push_back(DrainOp {
            path: path.to_string(),
            offset,
            len: len as u64,
        });
        self.work.notify_all();
        Ok(())
    }

    /// Takes `bytes` off the resident count (drained, or no longer
    /// owed) and re-arms fast acks at `watermark_lo`.
    fn release(&self, bytes: u64) {
        let now = self.resident.fetch_sub(bytes, Relaxed) - bytes;
        if now <= self.params.watermark_lo && self.write_through.load(Relaxed) {
            self.write_through.store(false, Relaxed);
        }
    }

    /// Body of a `crfs-drain<N>` thread.
    fn drain_loop(self: &Arc<Self>) {
        // This worker's copy buffer: grown to its largest op, never
        // shrunk, aligned so a direct-capable durable tier takes it in place.
        let mut scratch = ChunkBuf::new(0);
        let mut q = self.queue.lock();
        loop {
            if let Some((op, ticket)) = q.pick(self.params.drain_window) {
                drop(q);
                self.copy(op, ticket, &mut scratch);
                q = self.queue.lock();
            } else if q.closed && q.ops.is_empty() {
                return;
            } else {
                self.work.wait(&mut q);
            }
        }
    }

    /// Reads the op's current fast-tier bytes into the front of the
    /// worker's `scratch`, grown first if need be; the returned slice is
    /// exactly the op, fully overwritten. `Ok(None)` means the
    /// source genuinely vanished (unlinked, or truncated below the
    /// range, since the ack) and the op should be dropped. Any other
    /// IO error is *not* a vanished source: it propagates as `Err` so
    /// the copy counts as failed and the next barrier reports the loss
    /// instead of silently claiming durability.
    fn read_fast<'a>(
        &self,
        op: &DrainOp,
        scratch: &'a mut ChunkBuf,
    ) -> io::Result<Option<&'a [u8]>> {
        let f = match self.fast.open(&op.path, OpenOptions::read_only()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let len = op.len as usize;
        if scratch.len() < len {
            *scratch = ChunkBuf::new(len);
        }
        let buf = &mut scratch[..len];
        let mut got = 0usize;
        while got < buf.len() {
            match f.read_at(op.offset + got as u64, &mut buf[got..]) {
                Ok(0) => return Ok(None), // truncated under the op
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(Some(buf))
    }

    /// The one write handle of durable `path`, opened (and with
    /// `create`, created) on first use.
    fn durable_file(&self, path: &str, create: bool) -> io::Result<Arc<dyn BackendFile>> {
        let mut files = self.durable_files.lock();
        if let Some(f) = files.get(path) {
            return Ok(Arc::clone(f));
        }
        if files.len() >= MAX_DURABLE_HANDLES {
            close_idle(&mut files);
        }
        let opts = OpenOptions {
            create,
            ..OpenOptions::read_write()
        };
        let f: Arc<dyn BackendFile> = Arc::from(self.durable.open(path, opts)?);
        files.insert(path.to_string(), Arc::clone(&f));
        Ok(f)
    }

    /// Closes the cached handle of durable `path` ahead of an unlink,
    /// rename or truncating open. The caller has waited out the copies
    /// in flight on the path, so nothing else holds the handle.
    fn forget_durable(&self, path: &str) {
        self.durable_files.lock().remove(path);
    }

    /// One drain copy, on a worker thread: re-read (overlapping the
    /// device time of the previous pick), then — in ticket order — the
    /// durable write.
    fn copy(self: &Arc<Self>, op: DrainOp, ticket: u64, scratch: &mut ChunkBuf) {
        let t0 = self.stage_timer();
        let op = Arc::new(op);
        let source = self.read_fast(&op, scratch).and_then(|data| match data {
            Some(data) => Ok(Some((data, self.durable_file(&op.path, true)?))),
            None => Ok(None),
        });
        // Writes enter the durable tier in ticket order. The turn moves
        // on as soon as this one is about to be issued, not when it
        // returns: a blocking durable tier then always has the next
        // write queued behind the current one, and an asynchronous one
        // takes submissions back to back.
        {
            let mut q = self.queue.lock();
            while q.turn != ticket {
                self.work.wait(&mut q);
            }
            q.turn += 1;
            self.work.notify_all();
        }
        // `None`: the durable tier took the write asynchronously and
        // its completion retires the op.
        let ended = match source {
            Ok(Some((data, file))) => self.write_durable(&op, t0, data, file),
            Ok(None) => Some(Outcome::Dropped),
            Err(_) => Some(Outcome::Failed),
        };
        if let Some(outcome) = ended {
            self.complete_op(&op, t0, outcome);
        }
    }

    /// Issues the durable write of one op; `None` when a [`DrainSink`]
    /// completes it later.
    fn write_durable(
        self: &Arc<Self>,
        op: &Arc<DrainOp>,
        t0: Option<Instant>,
        data: &[u8],
        file: Arc<dyn BackendFile>,
    ) -> Option<Outcome> {
        self.dirty.lock().insert(op.path.clone());
        let token = self.next_token.fetch_add(1, Relaxed);
        let sink: Arc<dyn CompletionSink> = Arc::new(DrainSink {
            shared: Arc::clone(self),
            op: Arc::clone(op),
            t0,
            _file: Arc::clone(&file),
        });
        match file.begin_write_at(token, op.offset, data, &sink) {
            Ok(true) => None,
            Ok(false) if file.write_at(op.offset, data).is_ok() => Some(Outcome::Copied),
            Ok(false) | Err(_) => Some(Outcome::Failed),
        }
    }

    /// Retires one drain op (any outcome) and updates watermark state.
    /// On an async durable tier this runs on its completion thread.
    fn complete_op(&self, op: &DrainOp, t0: Option<Instant>, outcome: Outcome) {
        match outcome {
            Outcome::Copied => {
                self.c.drain_ops.fetch_add(1, Relaxed);
                self.c.drain_bytes.fetch_add(op.len, Relaxed);
                if let Some(s) = self.stats() {
                    if let Some(t0) = t0 {
                        s.stages.drain_copy.record_dur(t0.elapsed());
                    }
                    s.flight
                        .record(EventKind::DrainCopy, Some(&op.path), op.offset, op.len);
                }
            }
            Outcome::Dropped => {
                self.c.drain_dropped.fetch_add(1, Relaxed);
            }
            Outcome::Failed => {
                self.c.drain_failed.fetch_add(1, Relaxed);
                self.failed_since_barrier.fetch_add(1, Relaxed);
                if let Some(s) = self.stats() {
                    s.flight
                        .record(EventKind::WriteFailed, Some(&op.path), op.offset, op.len);
                }
            }
        }
        let mut q = self.queue.lock();
        q.retire(op);
        self.release(op.len);
        self.retired.notify_all();
        self.work.notify_all();
    }

    /// Blocks a degraded writer until the drain is back under the high
    /// watermark — every retired copy admits one more write, so writers
    /// advance at the device's pace — and fails it once a copy has been
    /// lost: nothing it waits for can make its checkpoint durable.
    fn wait_for_room(&self) -> io::Result<()> {
        let mut q = self.queue.lock();
        loop {
            if self.failed_since_barrier.load(Relaxed) > 0 {
                return Err(io::Error::other(
                    "tiered write-through: drain copies are failing to reach the durable tier",
                ));
            }
            if self.resident.load(Relaxed) < self.params.watermark_hi {
                return Ok(());
            }
            self.retired.wait(&mut q);
        }
    }

    /// Waits for the queue to empty, syncs every durable file written
    /// since the last barrier, and reports any drain failure instead of
    /// claiming durability.
    fn barrier(&self) -> io::Result<()> {
        self.c.barrier_waits.fetch_add(1, Relaxed);
        let t0 = self.stage_timer();
        {
            let mut q = self.queue.lock();
            while !q.drained() {
                self.retired.wait(&mut q);
            }
        }
        let dirty: Vec<String> = std::mem::take(&mut *self.dirty.lock())
            .into_iter()
            .collect();
        let mut first_err: Option<io::Error> = None;
        for path in &dirty {
            match self.durable_file(path, false).and_then(|f| f.sync()) {
                Ok(()) => {}
                // Unlinked or renamed since it was drained: nothing left
                // to make durable under this name.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        // Everything synced: a handle nobody is writing through has
        // done its job.
        close_idle(&mut self.durable_files.lock());
        // A lost drain copy is the root-cause diagnosis; sync errors on
        // a dead durable tier are its symptoms, so check it first.
        let lost = self.failed_since_barrier.swap(0, Relaxed);
        if lost > 0 {
            return Err(io::Error::other(format!(
                "tiered drain: {lost} copies failed to reach the durable tier \
                 (fast-tier data retained; run the fsck tier pass to re-drain)"
            )));
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if self.params.evict_on_barrier {
            self.evict(&dirty);
        }
        if let (Some(s), Some(t0)) = (self.stats(), t0) {
            s.stages.drain_wait.record_dur(t0.elapsed());
        }
        Ok(())
    }

    /// Drops the fast-tier copy of fully-drained files that are closed
    /// and have nothing queued or in flight — the only state where the
    /// fast bytes are provably redundant.
    fn evict(&self, paths: &[String]) {
        for path in paths {
            let open_writers = self.writers.lock().get(path).copied().unwrap_or(0);
            if open_writers > 0 {
                continue;
            }
            {
                let q = self.queue.lock();
                if q.path_queued(path) || q.path_in_flight(path) {
                    continue;
                }
            }
            if self.fast.unlink(path).is_ok() {
                self.c.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Waits until no copy is in flight on any of `paths`.
    fn wait_out(&self, q: &mut MutexGuard<'_, Queue>, paths: &[&str]) {
        while paths.iter().any(|p| q.path_in_flight(p)) {
            self.retired.wait(q);
        }
    }

    /// Drops from the queue the part of `path`'s ops at or past
    /// `new_len` (all of them for `new_len == 0`), clamping an op that
    /// straddles it: acknowledged bytes below `new_len` still have to
    /// reach the durable tier, or the next barrier would claim
    /// durability for data it dropped.
    fn cut_queued(&self, q: &mut Queue, path: &str, new_len: u64) {
        let mut cut = 0u64;
        let mut dropped_ops = 0u64;
        q.ops.retain_mut(|op| {
            if op.path != path {
                return true;
            }
            if op.offset >= new_len {
                cut += op.len;
                dropped_ops += 1;
                return false;
            }
            if op.offset + op.len > new_len {
                cut += op.offset + op.len - new_len;
                op.len = new_len - op.offset;
            }
            true
        });
        if cut > 0 {
            self.c.drain_dropped.fetch_add(dropped_ops, Relaxed);
            self.release(cut);
            self.retired.notify_all();
        }
    }

    /// Removes every queued op for `path` and waits out its in-flight
    /// copies — called before unlink and a truncating open so a late
    /// copy cannot resurrect or corrupt the durable file.
    fn flush_path(&self, path: &str) {
        let mut q = self.queue.lock();
        self.cut_queued(&mut q, path, 0);
        self.wait_out(&mut q, &[path]);
    }

    /// Prepares the drain queue for a resize of `path` to `new_len`:
    /// waits out in-flight copies (a late completion could extend the
    /// durable file past the new length), then cuts the queued ops
    /// down to `[0, new_len)`.
    fn truncate_path(&self, path: &str, new_len: u64) {
        let mut q = self.queue.lock();
        self.wait_out(&mut q, &[path]);
        self.cut_queued(&mut q, path, new_len);
    }

    fn register_writer(&self, path: &str) {
        *self.writers.lock().entry(path.to_string()).or_insert(0) += 1;
    }

    fn unregister_writer(&self, path: &str) {
        let mut w = self.writers.lock();
        if let Some(n) = w.get_mut(path) {
            *n -= 1;
            if *n == 0 {
                w.remove(path);
            }
        }
    }
}

/// Closes every cached durable handle no copy is using right now.
fn close_idle(files: &mut HashMap<String, Arc<dyn BackendFile>>) {
    files.retain(|_, f| Arc::strong_count(f) > 1);
}

/// Internal completion sink for one drain copy issued on the durable
/// tier's asynchronous path.
struct DrainSink {
    shared: Arc<Shared>,
    op: Arc<DrainOp>,
    t0: Option<Instant>,
    /// Keeps the durable handle in use (see [`close_idle`]) and alive
    /// until the ack fires.
    _file: Arc<dyn BackendFile>,
}

impl CompletionSink for DrainSink {
    fn complete(&self, _token: u64, result: io::Result<()>) {
        let outcome = if result.is_ok() {
            Outcome::Copied
        } else {
            Outcome::Failed
        };
        self.shared.complete_op(&self.op, self.t0, outcome);
    }
}

/// Wraps the engine's completion sink on an async-capable *fast* tier:
/// the drain op must not enqueue until the fast tier has actually
/// landed the bytes it will re-read.
struct TierWriteSink {
    shared: Arc<Shared>,
    path: String,
    offset: u64,
    len: usize,
    inner: Arc<dyn CompletionSink>,
}

impl CompletionSink for TierWriteSink {
    fn complete(&self, token: u64, result: io::Result<()>) {
        let result = result.and_then(|()| self.shared.enqueue(&self.path, self.offset, self.len));
        self.inner.complete(token, result);
    }
}

/// A two-tier [`Backend`]: fast-tier acks, background drain to the
/// durable tier. See the module docs for the contract.
pub struct TieredBackend {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl TieredBackend {
    /// Stacks `fast` over `durable` with the given knobs and starts the
    /// drain workers.
    pub fn new(
        fast: Arc<dyn Backend>,
        durable: Arc<dyn Backend>,
        params: TieredParams,
    ) -> TieredBackend {
        assert!(
            params.watermark_lo <= params.watermark_hi,
            "watermark_lo must not exceed watermark_hi"
        );
        assert!(params.drain_window >= 1, "drain_window must be >= 1");
        let shared = Arc::new(Shared {
            fast,
            durable,
            params,
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            retired: Condvar::new(),
            resident: AtomicU64::new(0),
            write_through: AtomicBool::new(false),
            failed_since_barrier: AtomicU64::new(0),
            durable_files: Mutex::new(HashMap::new()),
            dirty: Mutex::new(BTreeSet::new()),
            writers: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            stats: Mutex::new(None),
            c: Counters::default(),
        });
        let workers = (0..DRAIN_WORKERS)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("crfs-drain{i}"))
                    .spawn(move || shared.drain_loop())
                    .expect("the OS refused a drain worker thread")
            })
            .collect();
        TieredBackend { shared, workers }
    }

    /// Stacks `fast` over `durable` with the mount config's watermarks
    /// (`tier_watermark_lo/hi`) over [`TieredParams::default`].
    pub fn from_config(
        fast: Arc<dyn Backend>,
        durable: Arc<dyn Backend>,
        config: &crate::CrfsConfig,
    ) -> TieredBackend {
        TieredBackend::new(fast, durable, config.tiered_params())
    }

    /// The fast tier.
    pub fn fast(&self) -> &Arc<dyn Backend> {
        &self.shared.fast
    }

    /// The durable tier.
    pub fn durable(&self) -> &Arc<dyn Backend> {
        &self.shared.durable
    }

    /// The knobs this stack was built with.
    pub fn params(&self) -> &TieredParams {
        &self.shared.params
    }

    /// Undrained bytes resident in the fast tier.
    pub fn resident_bytes(&self) -> u64 {
        self.shared.resident.load(Relaxed)
    }

    /// Whether writes are currently degraded to write-through.
    pub fn write_through_active(&self) -> bool {
        self.shared.write_through.load(Relaxed)
    }

    /// Snapshot of the tier counters.
    pub fn tier_counters(&self) -> TierCounters {
        let c = &self.shared.c;
        TierCounters {
            drain_ops: c.drain_ops.load(Relaxed),
            drain_bytes: c.drain_bytes.load(Relaxed),
            drain_failed: c.drain_failed.load(Relaxed),
            drain_dropped: c.drain_dropped.load(Relaxed),
            write_through_ops: c.write_through_ops.load(Relaxed),
            tier_promotes: c.tier_promotes.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            barrier_waits: c.barrier_waits.load(Relaxed),
            resident_bytes: self.shared.resident.load(Relaxed),
        }
    }

    /// Copies the whole durable file into the fast tier (read-miss
    /// promotion). On any failure the partial fast copy is removed so
    /// the fast tier never holds bytes the drain didn't put there.
    fn promote(&self, path: &str) -> io::Result<()> {
        let t0 = self.shared.stage_timer();
        let src = self.shared.durable.open(path, OpenOptions::read_only())?;
        let total = src.len()?;
        // Stage the copy under a unique temp name and rename it into
        // place: a concurrent reader must only ever observe the final
        // path absent or complete, never a half-promoted prefix, and
        // racing promoters each publish a whole file (last one wins).
        static PROMOTE_NONCE: AtomicU64 = AtomicU64::new(0);
        let tmp = format!(
            "{path}{PROMOTE_TMP_MARKER}{}",
            PROMOTE_NONCE.fetch_add(1, Relaxed)
        );
        let copy = || -> io::Result<()> {
            let dst = self
                .shared
                .fast
                .open(&tmp, OpenOptions::create_truncate())?;
            // Aligned, so full steps reach a direct-capable tier in place.
            let mut buf = ChunkBuf::new(1 << 20);
            let mut off = 0u64;
            while off < total {
                let want = buf.len().min((total - off) as usize);
                let got = src.read_at(off, &mut buf[..want])?;
                if got == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "durable tier shrank mid-promotion",
                    ));
                }
                dst.write_at(off, &buf[..got])?;
                off += got as u64;
            }
            drop(dst);
            self.shared.fast.rename(&tmp, path)
        };
        if let Err(e) = copy() {
            let _ = self.shared.fast.unlink(&tmp);
            return Err(e);
        }
        self.shared.c.tier_promotes.fetch_add(1, Relaxed);
        if let Some(s) = self.shared.stats() {
            if let Some(t0) = t0 {
                s.stages.tier_promote.record_dur(t0.elapsed());
            }
            s.flight
                .record(EventKind::TierPromote, Some(path), total, 0);
        }
        Ok(())
    }
}

impl Backend for TieredBackend {
    fn name(&self) -> &str {
        "tiered"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let path = normalize_path(path)?;
        if opts.write {
            if opts.truncate {
                // Truncation must not race queued or in-flight drains
                // of the old bytes, and the stale durable copy must
                // shrink with the fast one — a durable-only restart may
                // not see bytes the fast tier no longer has.
                self.shared.flush_path(&path);
                if self.shared.durable.exists(&path) {
                    self.shared.forget_durable(&path);
                    drop(
                        self.shared
                            .durable
                            .open(&path, OpenOptions::create_truncate())?,
                    );
                    self.shared.dirty.lock().insert(path.clone());
                }
            } else if !self.shared.fast.exists(&path) && self.shared.durable.exists(&path) {
                // The fast copy was evicted (or lost) but the file
                // exists durable: a non-truncating write open must see
                // those contents. Without promotion, create=false would
                // fail NotFound and create=true would shadow the
                // durable copy with a fresh empty fast file.
                self.promote(&path)?;
            }
            let fast = self.shared.fast.open(&path, opts)?;
            self.shared.register_writer(&path);
            return Ok(self.file(path, fast, true, true));
        }
        // Read-only: serve the fast tier when it has the file (it is a
        // superset of the durable tier for any file it holds), fall back
        // to the durable tier — optionally promoting the file back into
        // fast first.
        match self.shared.fast.open(&path, opts) {
            Ok(fast) => Ok(self.file(path, fast, true, false)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if self.shared.params.promote_reads && self.promote(&path).is_ok() {
                    let fast = self.shared.fast.open(&path, opts)?;
                    return Ok(self.file(path, fast, true, false));
                }
                let durable = self.shared.durable.open(&path, opts)?;
                Ok(self.file(path, durable, false, false))
            }
            Err(e) => Err(e),
        }
    }

    fn mkdir(&self, path: &str) -> io::Result<()> {
        self.shared.fast.mkdir(path)?;
        match self.shared.durable.mkdir(path) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
            other => other,
        }
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        match self.shared.fast.rmdir(path) {
            Ok(()) => match self.shared.durable.rmdir(path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                other => other,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.shared.durable.rmdir(path),
            Err(e) => Err(e),
        }
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        let path = normalize_path(path)?;
        self.shared.flush_path(&path);
        self.shared.forget_durable(&path);
        self.shared.dirty.lock().remove(&path);
        let fast = self.shared.fast.unlink(&path);
        let durable = self.shared.durable.unlink(&path);
        match (fast, durable) {
            (Err(ef), Err(ed))
                if ef.kind() == io::ErrorKind::NotFound && ed.kind() == io::ErrorKind::NotFound =>
            {
                Err(ef)
            }
            (Err(ef), Err(_)) => Err(ef),
            _ => Ok(()),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        // Wait out copies in flight under either name, redirect queued
        // drains to the new one, and rename both tiers before any op
        // can be picked again: the queue lock is held throughout, so no
        // copy lands under a name that is about to move or be replaced.
        // Queued drains and the dirty mark follow the bytes only once the
        // fast rename succeeded: a failed one leaves them under `from`,
        // where the bytes still are.
        let mut q = self.shared.queue.lock();
        self.shared.wait_out(&mut q, &[&from, &to]);
        let fast_had = self.shared.fast.exists(&from);
        if fast_had {
            self.shared.fast.rename(&from, &to)?;
        }
        for op in q.ops.iter_mut() {
            if op.path == from {
                op.path = to.clone();
            }
        }
        self.shared.forget_durable(&from);
        self.shared.forget_durable(&to);
        {
            let mut d = self.shared.dirty.lock();
            if d.remove(&from) {
                d.insert(to.clone());
            }
        }
        let durable_had = self.shared.durable.exists(&from);
        if durable_had {
            self.shared.durable.rename(&from, &to)?;
        } else if fast_had {
            // Nothing of `from` has drained yet, so its redirected ops
            // will build the durable `to` from nothing; an older
            // durable `to` must not keep a tail past the new length.
            match self.shared.durable.unlink(&to) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        if !fast_had && !durable_had {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{from:?} not found in either tier"),
            ));
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.shared.fast.exists(path) || self.shared.durable.exists(path)
    }

    fn file_len(&self, path: &str) -> io::Result<u64> {
        match self.shared.fast.file_len(path) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.shared.durable.file_len(path),
            Err(e) => Err(e),
        }
    }

    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        let fast = self.shared.fast.list_dir(path);
        let durable = self.shared.durable.list_dir(path);
        match (fast, durable) {
            (Ok(mut f), Ok(d)) => {
                f.extend(d);
                f.sort();
                f.dedup();
                // Promotion staging files are backend-internal; a crash
                // mid-promotion may leave one behind, but it is never
                // part of the user-visible namespace.
                f.retain(|n| !is_promote_tmp(n));
                Ok(f)
            }
            (Ok(mut f), Err(_)) => {
                f.retain(|n| !is_promote_tmp(n));
                Ok(f)
            }
            (Err(_), Ok(d)) => Ok(d),
            (Err(e), Err(_)) => Err(e),
        }
    }

    fn drain_barrier(&self) -> io::Result<()> {
        self.shared.barrier()
    }

    fn attach_stats(&self, stats: &Arc<CrfsStats>) {
        *self.shared.stats.lock() = Some(Arc::clone(stats));
        self.shared.fast.attach_stats(stats);
        self.shared.durable.attach_stats(stats);
    }
}

impl TieredBackend {
    fn file(
        &self,
        path: String,
        file: Box<dyn BackendFile>,
        on_fast: bool,
        writer: bool,
    ) -> Box<dyn BackendFile> {
        Box::new(TieredFile {
            path,
            shared: Arc::clone(&self.shared),
            file,
            on_fast,
            writer,
        })
    }
}

impl Drop for TieredBackend {
    /// Lands every queued op, then retires the drain workers. Files
    /// that outlive the backend fail their writes instead of queueing
    /// for a drain that no longer runs.
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.closed = true;
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked has already reported itself.
            let _ = worker.join();
        }
        let mut q = self.shared.queue.lock();
        while q.inflight_total > 0 {
            self.shared.retired.wait(&mut q);
        }
    }
}

/// An open file on the tiered stack: the fast-tier handle (every write
/// handle is one), or the durable-tier handle of a read-only open the
/// fast tier could not serve.
struct TieredFile {
    path: String,
    shared: Arc<Shared>,
    file: Box<dyn BackendFile>,
    on_fast: bool,
    writer: bool,
}

impl TieredFile {
    fn fast_handle(&self) -> io::Result<&dyn BackendFile> {
        if self.on_fast {
            Ok(&*self.file)
        } else {
            Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "tiered file handle is durable-tier read-only",
            ))
        }
    }
}

impl BackendFile for TieredFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let fast = self.fast_handle()?;
        let degraded = self.shared.write_through.load(Relaxed);
        fast.write_at(offset, data)?;
        self.shared.enqueue(&self.path, offset, data.len())?;
        if !degraded {
            return Ok(());
        }
        // Degraded: the drain is behind the high watermark. The fast
        // mirror took the bytes (readers serve from it, and the drain
        // re-reads them), but the ack waits until the drain has made
        // room for them, so resident bytes stop growing.
        self.shared.c.write_through_ops.fetch_add(1, Relaxed);
        self.shared.wait_for_room()
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        if self.shared.write_through.load(Relaxed) {
            // Degraded mode acks at durable speed via the sync path.
            return Ok(false);
        }
        let fast = self.fast_handle()?;
        // Forward the fast tier's async capability; the drain op is
        // enqueued only once the fast tier confirms the bytes landed
        // (the drain re-reads them).
        let wrap: Arc<dyn CompletionSink> = Arc::new(TierWriteSink {
            shared: Arc::clone(&self.shared),
            path: self.path.clone(),
            offset,
            len: data.len(),
            inner: Arc::clone(sink),
        });
        fast.begin_write_at(token, offset, data, &wrap)
    }

    crate::forward_file_ops!(file: read_at, begin_read_at, len);

    fn sync(&self) -> io::Result<()> {
        // Syncs the tier this handle is on. Durable-tier durability for
        // drained writes is the barrier's job, not per-file sync.
        self.file.sync()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let fast = self.fast_handle()?;
        // No in-flight copy may race the resize, and a stale durable
        // tail must not outlive it — but unlike truncate-on-open,
        // queued drains of acked bytes below the new length survive
        // (clamped), so the next barrier still delivers them.
        self.shared.truncate_path(&self.path, len);
        fast.set_len(len)?;
        // Mirror the resize unconditionally (creating the durable file
        // if no drain has reached it yet): a grown file's zero tail is
        // never written, so only set_len can make the durable length
        // match what a durable-only restart expects.
        self.shared.durable_file(&self.path, true)?.set_len(len)?;
        self.shared.dirty.lock().insert(self.path.clone());
        Ok(())
    }
}

impl Drop for TieredFile {
    fn drop(&mut self) {
        if self.writer {
            self.shared.unregister_writer(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FailureMode, FaultyBackend, MemBackend};

    fn mems() -> (Arc<MemBackend>, Arc<MemBackend>) {
        (Arc::new(MemBackend::new()), Arc::new(MemBackend::new()))
    }

    fn tiered(params: TieredParams) -> (TieredBackend, Arc<MemBackend>, Arc<MemBackend>) {
        let (fast, durable) = mems();
        let be = TieredBackend::new(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            params,
        );
        (be, fast, durable)
    }

    /// Stops (or restarts) the drain: while held, enqueued ops stay
    /// queued. Release before dropping the backend.
    fn hold(be: &TieredBackend, held: bool) {
        be.shared.queue.lock().held = held;
        be.shared.work.notify_all();
    }

    /// Spins until `n` ops sit in the queue.
    fn await_queued(shared: &Shared, n: usize) {
        while shared.queue.lock().ops.len() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn writes_ack_fast_and_drain_to_durable() {
        let (be, fast, durable) = tiered(TieredParams::default());
        be.mkdir("/ckpt").unwrap();
        let f = be.open("/ckpt/r0", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"alpha").unwrap();
        f.write_at(5, b"beta").unwrap();
        drop(f);
        // The fast tier has the bytes immediately.
        assert_eq!(fast.contents("/ckpt/r0").unwrap(), b"alphabeta");
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/ckpt/r0").unwrap(), b"alphabeta");
        let c = be.tier_counters();
        assert_eq!(c.drain_ops, 2);
        assert_eq!(c.drain_bytes, 9);
        assert_eq!(c.resident_bytes, 0);
        assert_eq!(c.drain_failed, 0);
    }

    #[test]
    fn rewritten_ranges_converge_to_newest_bytes() {
        let (be, _fast, durable) = tiered(TieredParams {
            drain_window: 1,
            ..TieredParams::default()
        });
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        for round in 0..16u8 {
            f.write_at(0, &[round; 64]).unwrap();
        }
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/f").unwrap(), vec![15u8; 64]);
    }

    /// Each worker drains every op through one reused buffer: a short op
    /// after a long one must carry only its own bytes, and a range
    /// rewritten while queued its newest.
    #[test]
    fn reused_drain_buffer_never_leaks_a_previous_op() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let files = ["/a", "/b"].map(|p| be.open(p, OpenOptions::create_truncate()).unwrap());
        let bytes = |len: usize, seed: usize| -> Vec<u8> {
            (0..len).map(|i| ((i + seed * 31) % 251) as u8).collect()
        };
        hold(&be, true);
        let mut ends = [0u64; 2];
        for i in 0..32 {
            let len = [1 << 20, 4096, (1 << 20) + 7][i % 3];
            files[i % 2].write_at(ends[i % 2], &bytes(len, i)).unwrap();
            ends[i % 2] += len as u64;
        }
        // The head of /a (a 1 MiB op, still queued) gets new bytes.
        files[0].write_at(0, &bytes(1 << 20, 99)).unwrap();
        await_queued(&be.shared, 33);
        hold(&be, false);
        drop(files);
        be.drain_barrier().unwrap();
        for path in ["/a", "/b"] {
            assert!(
                durable.contents(path).unwrap() == fast.contents(path).unwrap(),
                "{path}: tiers differ after the barrier"
            );
        }
        assert!(durable.contents("/a").unwrap()[..1 << 20] == bytes(1 << 20, 99));
        let c = be.tier_counters();
        assert_eq!((c.drain_ops, c.drain_failed), (33, 0));
    }

    #[test]
    fn watermark_degrades_to_write_through_and_recovers() {
        let (be, fast, durable) = tiered(TieredParams {
            watermark_hi: 8,
            watermark_lo: 2,
            ..TieredParams::default()
        });
        let f = be.open("/w", OpenOptions::create_truncate()).unwrap();
        hold(&be, true);
        f.write_at(0, b"first").unwrap();
        assert!(!be.write_through_active(), "5 resident bytes < hi");
        f.write_at(5, b"second").unwrap(); // 11 resident bytes: trips hi
        assert!(be.write_through_active());
        assert!(!durable.exists("/w"), "both acked from the fast tier");
        std::thread::scope(|s| {
            let degraded = s.spawn(|| {
                f.write_at(11, b"third").unwrap();
                // The ack of a degraded write means the drain is back
                // under the high watermark.
                assert!(be.resident_bytes() < 8);
            });
            // Nothing drains while the queue is held, so the fast tier
            // stays over the watermark and the write cannot have acked.
            await_queued(&be.shared, 3);
            assert!(!degraded.is_finished());
            assert_eq!(fast.contents("/w").unwrap(), b"firstsecondthird");
            hold(&be, false);
        });
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/w").unwrap(), b"firstsecondthird");
        let c = be.tier_counters();
        assert_eq!(c.write_through_ops, 1);
        assert_eq!(c.drain_ops, 3, "a degraded write is one more drain op");
        assert_eq!(c.resident_bytes, 0);
        assert!(
            !be.write_through_active(),
            "draining to watermark_lo re-arms fast acks"
        );
        f.write_at(16, b"!").unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/w").unwrap(), b"firstsecondthird!");
        assert_eq!(be.tier_counters().write_through_ops, 1);
    }

    #[test]
    fn rename_redirects_queued_drains() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be
            .open("/tmp.manifest", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, b"epoch-7").unwrap();
        drop(f);
        // Whether or not the op drained yet, the rename must leave the
        // durable tier converging on the new name only.
        be.rename("/tmp.manifest", "/MANIFEST").unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/MANIFEST").unwrap(), b"epoch-7");
        assert!(!durable.exists("/tmp.manifest"));
    }

    #[test]
    fn failed_rename_keeps_queued_drains_under_the_old_name() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        hold(&be, true);
        let f = be.open("/a", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"acked").unwrap();
        drop(f);
        let err = be.rename("/a", "/nodir/b").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        hold(&be, false);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/a").unwrap(), b"acked");
        let c = be.tier_counters();
        assert_eq!((c.drain_ops, c.drain_dropped), (1, 0));
    }

    #[test]
    fn unlink_purges_queue_and_both_tiers() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/gone", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"data").unwrap();
        drop(f);
        be.unlink("/gone").unwrap();
        assert!(!fast.exists("/gone"));
        assert!(!durable.exists("/gone"));
        be.drain_barrier().unwrap();
        assert!(!durable.exists("/gone"), "no late drain resurrects it");
        assert_eq!(be.resident_bytes(), 0);
        assert!(be.unlink("/gone").is_err(), "second unlink is NotFound");
    }

    #[test]
    fn read_only_open_falls_back_to_durable_and_promotes() {
        let (be, fast, durable) = tiered(TieredParams {
            promote_reads: true,
            ..TieredParams::default()
        });
        // Simulate a post-crash fast tier: the file exists only durable.
        let d = durable
            .open("/old", OpenOptions::create_truncate())
            .unwrap();
        d.write_at(0, b"survivor").unwrap();
        drop(d);
        let f = be.open("/old", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"survivor");
        assert_eq!(be.tier_counters().tier_promotes, 1);
        assert_eq!(
            fast.contents("/old").unwrap(),
            b"survivor",
            "promotion left a fast copy"
        );
    }

    #[test]
    fn no_promotion_serves_durable_directly() {
        let (be, fast, durable) = tiered(TieredParams {
            promote_reads: false,
            ..TieredParams::default()
        });
        let d = durable.open("/o", OpenOptions::create_truncate()).unwrap();
        d.write_at(0, b"direct").unwrap();
        drop(d);
        let f = be.open("/o", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"direct");
        assert_eq!(f.len().unwrap(), 6);
        assert!(!fast.exists("/o"));
        assert_eq!(be.tier_counters().tier_promotes, 0);
    }

    #[test]
    fn evict_on_barrier_drops_closed_drained_fast_copies() {
        let (be, fast, durable) = tiered(TieredParams {
            evict_on_barrier: true,
            ..TieredParams::default()
        });
        let f = be.open("/e", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"evictme").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert!(!fast.exists("/e"), "closed + drained: evicted");
        assert_eq!(durable.contents("/e").unwrap(), b"evictme");
        assert_eq!(be.tier_counters().evictions, 1);
        // Still readable — served (and re-promoted) from durable.
        let f = be.open("/e", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 7];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"evictme");

        // A file with an open writer is never evicted.
        let held = be.open("/held", OpenOptions::create_truncate()).unwrap();
        held.write_at(0, b"busy").unwrap();
        be.drain_barrier().unwrap();
        assert!(fast.exists("/held"), "open writer pins the fast copy");
        drop(held);
    }

    #[test]
    fn crash_during_drain_fails_barrier_and_keeps_fast_prefix() {
        let (fast, durable_mem) = mems();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::new(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&faulty) as Arc<dyn Backend>,
            TieredParams::default(),
        );
        let f = be.open("/c", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"acked-early").unwrap();
        be.drain_barrier().unwrap();
        // Power cut: the durable tier dies; further acks still succeed
        // (fast tier) but the drain copies fail.
        faulty.set_mode(FailureMode::PowerCutAfterBytes(0));
        f.write_at(11, b"+stranded").unwrap();
        drop(f);
        let err = be
            .drain_barrier()
            .expect_err("lost copies fail the barrier");
        assert!(err.to_string().contains("re-drain"), "{err}");
        assert!(be.tier_counters().drain_failed >= 1);
        // The fast tier holds the full acknowledged prefix.
        assert_eq!(fast.contents("/c").unwrap(), b"acked-early+stranded");
        // Reboot the durable tier: it has only the pre-crash prefix.
        faulty.revive();
        assert_eq!(durable_mem.contents("/c").unwrap(), b"acked-early");
        // Reads through the stack still serve the fast superset.
        let r = be.open("/c", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 20];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 20);
        assert_eq!(&buf, b"acked-early+stranded");
    }

    #[test]
    fn metadata_ops_union_both_tiers() {
        let (be, fast, durable) = tiered(TieredParams::default());
        be.mkdir("/d").unwrap();
        assert!(fast.exists("/d") && durable.exists("/d"));
        let f = be
            .open("/d/fastonly", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, b"x").unwrap();
        drop(f);
        let d = durable
            .open("/d/duronly", OpenOptions::create_truncate())
            .unwrap();
        d.write_at(0, b"yy").unwrap();
        drop(d);
        assert_eq!(be.list_dir("/d").unwrap(), vec!["duronly", "fastonly"]);
        assert!(be.exists("/d/duronly"));
        assert_eq!(be.file_len("/d/duronly").unwrap(), 2);
        assert_eq!(be.file_len("/d/fastonly").unwrap(), 1);
    }

    #[test]
    fn truncate_open_clears_stale_durable_copy() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"a-long-first-generation").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"short").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(
            durable.contents("/t").unwrap(),
            b"short",
            "no stale tail from the first generation"
        );
    }

    #[test]
    fn set_len_shrinks_both_tiers() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/s", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"0123456789").unwrap();
        be.drain_barrier().unwrap();
        f.set_len(4).unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(fast.contents("/s").unwrap(), b"0123");
        assert_eq!(durable.contents("/s").unwrap(), b"0123");
    }

    #[test]
    fn set_len_preserves_queued_drains_of_surviving_bytes() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/sl", OpenOptions::create_truncate()).unwrap();
        // Stall the drain so the write is still queued when set_len runs.
        hold(&be, true);
        f.write_at(0, b"0123456789").unwrap();
        f.set_len(4).unwrap();
        hold(&be, false);
        drop(f);
        be.drain_barrier().unwrap();
        // The acked prefix below the new length still reached durable.
        assert_eq!(fast.contents("/sl").unwrap(), b"0123");
        assert_eq!(durable.contents("/sl").unwrap(), b"0123");

        // Growing: the queued drain survives whole, and the durable
        // length matches even though the zero tail is never written.
        let f = be.open("/gr", OpenOptions::create_truncate()).unwrap();
        hold(&be, true);
        f.write_at(0, b"abcdef").unwrap();
        f.set_len(9).unwrap();
        hold(&be, false);
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(fast.contents("/gr").unwrap(), b"abcdef\0\0\0");
        assert_eq!(durable.contents("/gr").unwrap(), b"abcdef\0\0\0");
    }

    #[test]
    fn write_through_waits_out_inflight_overlapping_drain() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be.open("/wt", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"stale").unwrap();
        be.drain_barrier().unwrap();
        // Hand-install an in-flight drain op that has already read the
        // "stale" bytes — the state a worker is in when the queue backs
        // up and write-through engages.
        let stale = DrainOp {
            path: "/wt".to_string(),
            offset: 0,
            len: 5,
        };
        be.shared.resident.fetch_add(5, Relaxed);
        {
            let mut q = be.shared.queue.lock();
            q.inflight
                .entry("/wt".to_string())
                .or_default()
                .push((0, 5));
            q.inflight_total += 1;
        }
        be.shared.write_through.store(true, Relaxed);
        let shared = Arc::clone(&be.shared);
        let late = std::thread::spawn(move || {
            // Only once the newer write is in the fast tier and its op
            // queued does the stale copy land on the durable tier...
            await_queued(&shared, 1);
            let d = shared.durable_file("/wt", true).unwrap();
            d.write_at(0, b"stale").unwrap();
            // ...and then the op retires, letting the newer one issue.
            shared.complete_op(&stale, None, Outcome::Copied);
        });
        // Its op cannot issue while the stale copy is in flight: the
        // overlap rule orders it strictly after.
        f.write_at(0, b"newer").unwrap();
        late.join().unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(
            durable.contents("/wt").unwrap(),
            b"newer",
            "write-through bytes must not be overwritten by an older in-flight drain"
        );
    }

    #[test]
    fn fast_tier_read_error_fails_barrier_instead_of_dropping() {
        let (fast_mem, durable) = mems();
        let faulty_fast = Arc::new(FaultyBackend::new(
            Arc::clone(&fast_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::new(
            Arc::clone(&faulty_fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            TieredParams::default(),
        );
        let f = be.open("/r", OpenOptions::create_truncate()).unwrap();
        // Stall the drain so its re-read happens only after the fast
        // tier starts failing.
        hold(&be, true);
        f.write_at(0, b"acked").unwrap();
        faulty_fast.set_mode(FailureMode::FailOpen);
        hold(&be, false);
        let err = be
            .drain_barrier()
            .expect_err("a failed fast-tier re-read is a lost copy, not a vanished source");
        assert!(err.to_string().contains("re-drain"), "{err}");
        let c = be.tier_counters();
        assert!(c.drain_failed >= 1);
        assert_eq!(c.drain_dropped, 0, "must not be miscounted as dropped");
        assert!(!durable.exists("/r"));
    }

    #[test]
    fn write_open_promotes_evicted_durable_copy() {
        let (be, fast, durable) = tiered(TieredParams {
            evict_on_barrier: true,
            ..TieredParams::default()
        });
        let f = be.open("/w", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"payload").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert!(!fast.exists("/w"), "evicted");
        // Reopen read_write (create=false): must promote, not NotFound.
        let f = be.open("/w", OpenOptions::read_write()).unwrap();
        assert_eq!(f.len().unwrap(), 7);
        let mut buf = [0u8; 7];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"payload");
        f.write_at(7, b"+more").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/w").unwrap(), b"payload+more");
        assert!(!fast.exists("/w"), "evicted again");
        // Reopen create=true, truncate=false (the snapshot store_chunk
        // shape): must see the durable bytes, not an empty shadow.
        let f = be
            .open(
                "/w",
                OpenOptions {
                    create: true,
                    ..OpenOptions::read_write()
                },
            )
            .unwrap();
        assert_eq!(f.len().unwrap(), 12, "no empty fast shadow");
        let mut buf = [0u8; 12];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 12);
        assert_eq!(&buf, b"payload+more");
        drop(f);
        assert_eq!(be.tier_counters().tier_promotes, 2);
    }

    #[test]
    fn promote_staging_names_are_recognized_and_hidden() {
        assert!(is_promote_tmp("/data.promote-3"));
        assert!(is_promote_tmp("data.promote-0"));
        assert!(!is_promote_tmp("/data.promote-"));
        assert!(!is_promote_tmp("/data.promote-x"));
        assert!(!is_promote_tmp("/data"));
        let (be, fast, _durable) = tiered(TieredParams::default());
        let f = be.open("/data", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"real").unwrap();
        drop(f);
        // A crash mid-promotion leaves a staging file in the fast tier;
        // the user-visible namespace never shows it.
        let tmp = fast
            .open("/data.promote-7", OpenOptions::create_truncate())
            .unwrap();
        tmp.write_at(0, b"junk").unwrap();
        drop(tmp);
        assert_eq!(be.list_dir("/").unwrap(), vec!["data"]);
    }

    /// Durable tier that logs every write in arrival order and counts
    /// write-mode opens.
    struct Recording {
        inner: MemBackend,
        write_opens: AtomicU64,
        log: Arc<Mutex<Vec<(String, u64, u64)>>>,
    }

    struct RecordingFile {
        inner: Box<dyn BackendFile>,
        path: String,
        log: Arc<Mutex<Vec<(String, u64, u64)>>>,
    }

    impl Backend for Recording {
        fn name(&self) -> &str {
            "recording"
        }

        fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
            let inner = self.inner.open(path, opts)?;
            if opts.write {
                self.write_opens.fetch_add(1, Relaxed);
            }
            Ok(Box::new(RecordingFile {
                inner,
                path: path.to_string(),
                log: Arc::clone(&self.log),
            }))
        }

        crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
            file_len, list_dir);
    }

    impl BackendFile for RecordingFile {
        fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
            self.log
                .lock()
                .push((self.path.clone(), offset, data.len() as u64));
            self.inner.write_at(offset, data)
        }

        crate::forward_file_ops!(inner: read_at, sync, len, set_len, is_empty);
    }

    #[test]
    fn drain_follows_device_order_through_one_handle_per_path() {
        const CHUNK: usize = 1 << 20;
        // More than one run bound per file, so the bound shows.
        let chunks = (RUN_BYTES as usize / CHUNK) + 4;
        // With one copy in flight the arrival order at the durable tier
        // is exactly the pick order; with the default window the two
        // workers overlap and only what they wrote through is exact.
        for drain_window in [1, TieredParams::default().drain_window] {
            let fast = Arc::new(MemBackend::new());
            let durable = Arc::new(Recording {
                inner: MemBackend::new(),
                write_opens: AtomicU64::new(0),
                log: Arc::default(),
            });
            let be = TieredBackend::new(
                Arc::clone(&fast) as Arc<dyn Backend>,
                Arc::clone(&durable) as Arc<dyn Backend>,
                TieredParams {
                    watermark_hi: u64::MAX / 2,
                    watermark_lo: u64::MAX / 4,
                    drain_window,
                    ..TieredParams::default()
                },
            );
            let a = be.open("/a", OpenOptions::create_truncate()).unwrap();
            let b = be.open("/b", OpenOptions::create_truncate()).unwrap();
            hold(&be, true);
            // Two writers' chunks arrive strictly alternating.
            for i in 0..chunks {
                a.write_at((i * CHUNK) as u64, &vec![b'a'; CHUNK]).unwrap();
                b.write_at((i * CHUNK) as u64, &vec![b'b'; CHUNK]).unwrap();
            }
            hold(&be, false);
            be.drain_barrier().unwrap();

            let log = durable.log.lock().clone();
            assert_eq!(log.len(), 2 * chunks, "one durable write per acked chunk");
            assert_eq!(
                durable.write_opens.load(Relaxed),
                2,
                "drain writes and the barrier's syncs share one handle per path"
            );
            let whole = |byte| vec![byte; chunks * CHUNK];
            assert_eq!(durable.inner.contents("/a").unwrap(), whole(b'a'));
            assert_eq!(durable.inner.contents("/b").unwrap(), whole(b'b'));
            if drain_window > 1 {
                continue;
            }
            // Cut the arrival order into runs: same file, next offset.
            let mut runs: Vec<(&str, u64)> = Vec::new();
            let mut head: Option<(&str, u64)> = None;
            for (path, offset, len) in &log {
                match runs.last_mut() {
                    Some((_, bytes)) if head == Some((path, *offset)) => *bytes += len,
                    _ => runs.push((path, *len)),
                }
                head = Some((path, offset + len));
            }
            let tail = (chunks * CHUNK) as u64 - RUN_BYTES;
            assert_eq!(
                runs,
                [
                    ("/a", RUN_BYTES),
                    ("/b", RUN_BYTES),
                    ("/a", tail),
                    ("/b", tail)
                ],
                "full runs per file, oldest file first"
            );
        }
    }

    #[test]
    fn degraded_write_fails_once_a_drain_copy_failed() {
        let (fast, durable_mem) = mems();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::new(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&faulty) as Arc<dyn Backend>,
            TieredParams {
                watermark_hi: 4,
                watermark_lo: 0,
                ..TieredParams::default()
            },
        );
        let f = be.open("/d", OpenOptions::create_truncate()).unwrap();
        hold(&be, true);
        f.write_at(0, b"acked").unwrap(); // trips the watermark
        assert!(be.write_through_active());
        faulty.set_mode(FailureMode::PowerCutAfterBytes(0));
        std::thread::scope(|s| {
            let degraded = s.spawn(|| f.write_at(5, b"+lost"));
            await_queued(&be.shared, 2);
            hold(&be, false);
            let err = degraded
                .join()
                .unwrap()
                .expect_err("a degraded write waits on a drain that is losing copies");
            assert!(err.to_string().contains("durable tier"), "{err}");
        });
        // The fast tier took the bytes all the same.
        assert_eq!(fast.contents("/d").unwrap(), b"acked+lost");
        let err = be
            .drain_barrier()
            .expect_err("the lost copies fail the next barrier too");
        assert!(err.to_string().contains("re-drain"), "{err}");
        let c = be.tier_counters();
        assert_eq!(c.write_through_ops, 1);
        assert_eq!(c.drain_failed, 2);
        assert_eq!(c.resident_bytes, 0);
    }

    #[test]
    fn drop_lands_queued_ops_and_orphaned_files_fail_fast() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/q", OpenOptions::create_truncate()).unwrap();
        hold(&be, true);
        for i in 0..4u64 {
            f.write_at(i * 3, b"abc").unwrap();
        }
        assert_eq!(be.resident_bytes(), 12);
        assert!(!durable.exists("/q"));
        let shared = Arc::clone(&be.shared);
        hold(&be, false);
        drop(be);
        assert_eq!(
            durable.contents("/q").unwrap(),
            b"abcabcabcabc",
            "drop returns only once everything queued has landed"
        );
        assert_eq!(shared.resident.load(Relaxed), 0);
        // The handle outlived its backend: no worker is left to drain
        // for it, so neither a fast-acked nor a degraded write may
        // queue (the latter would park forever).
        for degraded in [false, true] {
            shared.write_through.store(degraded, Relaxed);
            let err = f.write_at(12, b"late").expect_err("backend is gone");
            assert!(err.to_string().contains("shut down"), "{err}");
        }
        assert_eq!(fast.contents("/q").unwrap(), b"abcabcabcabclate");
    }

    #[test]
    fn rename_over_a_longer_durable_file_leaves_no_stale_tail() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be
            .open("/MANIFEST", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, b"a-long-previous-generation").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        // The next generation is renamed into place before any of it
        // has drained.
        hold(&be, true);
        let f = be.open("/tmp", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"short").unwrap();
        drop(f);
        be.rename("/tmp", "/MANIFEST").unwrap();
        hold(&be, false);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/MANIFEST").unwrap(), b"short");
        assert!(!durable.exists("/tmp"));
    }
}
