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
//!   [`DRAIN_WINDOW`] bounds the copies in flight on a durable tier that
//!   completes asynchronously (`RpcStore`).
//! - **One durable handle per file.** Every durable write, `set_len` and
//!   barrier `sync` of a path goes through one cached handle; unlink,
//!   rename and a truncating open close it first. No durable file ever
//!   has two live write handles, which `LocalFileBackend` requires of
//!   concurrent writers (its handles preallocate and trim on their own)
//!   and which keeps a device's sequentiality detection meaningful.
//! - **Watermark backpressure**: when undrained resident bytes reach
//!   `tier_watermark_hi` the backend degrades to write-through pace — a
//!   write lands in the fast tier, queues its drain op and *waits until
//!   the drain is back under the high watermark*, so every retired copy
//!   admits one more write: writers advance at durable-tier speed, in
//!   step with the device rather than with the fast tier, and resident
//!   bytes stop growing — until the drain catches back down to
//!   `tier_watermark_lo`. Full fast tiers slow down; they never block
//!   indefinitely. The queue stays in device order (a degraded write
//!   does not jump it), and a degraded write returns an error while a
//!   lost copy is owed.
//! - **Durability contract**: acknowledgement means *fast-tier* placement
//!   only, in either mode. Data is durable
//!   once a [`drain_barrier`](Backend::drain_barrier) after it returns
//!   `Ok`: the barrier waits for the queue to empty, syncs every
//!   durable file written since the previous barrier, and fails while
//!   any file is *owed* — its drain copy or sync failed, or a rename
//!   or a truncating open reached the fast tier only — which is how a
//!   crash mid-drain surfaces. A file stays owed until a later barrier
//!   has re-drained it whole from the fast tier (each barrier re-drains
//!   the files an earlier one reported) with no new loss, so no barrier
//!   returns `Ok` while a durable file misses bytes the fast tier
//!   acknowledged, even when nothing rewrites them (a deduplicated
//!   chunk is reused, not written). After a crash the fast tier holds
//!   the acknowledged prefix; the `crfs-fsck` tier-consistency pass
//!   re-drains what the durable tier is missing (see
//!   `fsck::run_tiered`).
//! - **Retention**: the fast tier keeps a full mirror, so reads serve
//!   fast bytes. A file only the durable tier holds (the fast tier was
//!   lost) is read straight from the durable tier; a non-truncating
//!   write open first promotes it back into the fast tier
//!   (`tier_promote`), so the write sees the durable bytes.
//!
//! # Drain worker
//!
//! [`TieredBackend::from_config`] spawns [`DRAIN_WORKERS`] threads named
//! `crfs-drain<N>`; dropping the backend lets them land everything
//! still queued and joins them. The workers are symmetric. Each takes
//! the next op in device order (with a ticket numbering the picks),
//! re-reads its bytes from the fast tier with the lock released, waits
//! for its ticket's turn, issues the durable write, and passes the turn
//! on. Durable writes therefore reach the device strictly in pick
//! order, while one worker's fast-tier re-read overlaps the device time
//! of the other's write.
//!
//! Every drain decision — the pick, the turn, retiring an op, cutting
//! or redirecting queued ops, the watermark state, what the next
//! barrier owes — is a method of one plain-data [`Drain`] behind one
//! mutex; the workers, writers and barrier do the IO and the waiting
//! around it. Nothing polls; every wait is an untimed condvar wait under
//! that lock, re-checking its condition on wakeup:
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
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use super::{mkdir_parents, normalize_path, Backend, BackendFile, CompletionSink, OpenOptions};
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

/// Maximum drain copies in flight. Two workers on a synchronous durable
/// tier never reach it; it bounds the copies a durable tier that
/// completes asynchronously holds at once.
const DRAIN_WINDOW: usize = 8;

/// Durable handles kept open between barriers before idle ones are
/// closed, bounding descriptors on stacks that drain many small files.
const MAX_DURABLE_HANDLES: usize = 64;

/// Longest op a barrier's re-drain of an owed file queues: a default
/// chunk, so a worker's copy buffer grows no larger than a chunk's
/// drain grows it.
const REDRAIN_PIECE: u64 = 4 << 20;

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

/// How one drain op ended.
#[derive(Clone, Copy)]
enum Outcome {
    Copied,
    Dropped,
    Failed,
}

/// The drain's whole state, as plain data: what is queued and in
/// flight, where the device stands, whose turn it is, the watermark
/// state, what the next barrier owes and the counters. Every decision
/// is a method here, taken under `Shared::drain`; no method does IO or
/// waits.
#[derive(Default)]
struct Drain {
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
    /// The watermarks, and the bytes acknowledged fast but not yet
    /// copied to the durable tier.
    lo: u64,
    hi: u64,
    resident: u64,
    /// Degraded mode: set when `resident` reaches `hi`, cleared once it
    /// falls back to `lo`.
    degraded: bool,
    /// The owed files (module docs, "Durability contract"): each with
    /// the number of its latest loss — a failed drain copy or sync, or
    /// a rename the fast tier took alone — and whether a barrier has
    /// reported it. While any is owed, barriers fail.
    lost: BTreeMap<String, (u64, bool)>,
    /// Losses so far, which number them.
    losses: u64,
    /// Durable paths written since the last barrier's sync sweep.
    dirty: BTreeSet<String>,
    /// `resident_bytes` is filled in from `resident` on the way out.
    c: TierCounters,
    /// Test hook: no op is picked while set.
    #[cfg(test)]
    held: bool,
}

impl Drain {
    fn new(lo: u64, hi: u64) -> Drain {
        assert!(
            lo <= hi,
            "tier_watermark_lo must not exceed tier_watermark_hi"
        );
        Drain {
            lo,
            hi,
            ..Drain::default()
        }
    }

    /// Queues the copy of an acknowledged range and returns whether the
    /// write must wait for [`room`](Self::room): whether the drain was
    /// degraded before this write added its bytes. Fails only once the
    /// backend is shut down: the bytes reached the fast tier, but no
    /// worker is left to carry them further.
    fn enqueue(&mut self, path: &str, offset: u64, len: u64) -> io::Result<bool> {
        if self.closed {
            return Err(io::Error::other(
                "tiered backend is shut down: the write reached the fast tier only",
            ));
        }
        let degraded = self.degraded;
        if degraded {
            self.c.write_through_ops += 1;
        }
        self.resident += len;
        if self.resident >= self.hi {
            self.degraded = true;
        }
        self.ops.push_back(DrainOp {
            path: path.to_string(),
            offset,
            len,
        });
        Ok(degraded)
    }

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

    /// Whether `ticket`'s durable write may be issued now; if so the
    /// turn passes on to the next ticket.
    fn take_turn(&mut self, ticket: u64) -> bool {
        let mine = self.turn == ticket;
        if mine {
            self.turn += 1;
        }
        mine
    }

    /// Retires a picked op, however it ended.
    fn finish(&mut self, op: &DrainOp, outcome: Outcome) {
        match outcome {
            Outcome::Copied => {
                self.c.drain_ops += 1;
                self.c.drain_bytes += op.len;
                self.touch(&op.path);
            }
            Outcome::Dropped => self.c.drain_dropped += 1,
            Outcome::Failed => {
                self.c.drain_failed += 1;
                self.lose(&op.path, false);
            }
        }
        if let Some(rs) = self.inflight.get_mut(&op.path) {
            if let Some(i) = rs.iter().position(|&r| r == (op.offset, op.len)) {
                rs.swap_remove(i);
            }
            if rs.is_empty() {
                self.inflight.remove(&op.path);
            }
        }
        self.inflight_total -= 1;
        self.release(op.len);
    }

    /// Takes `bytes` off the resident count (drained, or no longer
    /// owed) and re-arms fast acks at the low watermark.
    fn release(&mut self, bytes: u64) {
        self.resident -= bytes;
        if self.resident <= self.lo {
            self.degraded = false;
        }
    }

    /// Drops from the queue the part of `path`'s ops at or past
    /// `new_len` (all of them for `new_len == 0`), clamping an op that
    /// straddles it: acknowledged bytes below `new_len` still have to
    /// reach the durable tier, or the next barrier would claim
    /// durability for data it dropped. Copies in flight are the
    /// caller's to wait out.
    fn cut(&mut self, path: &str, new_len: u64) {
        let mut cut = 0u64;
        let mut dropped_ops = 0u64;
        self.ops.retain_mut(|op| {
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
        self.c.drain_dropped += dropped_ops;
        self.release(cut);
    }

    /// Moves the queued drains and the dirty mark of `from` to `to`, the
    /// fast tier having moved the bytes. No copy of either name may be
    /// in flight.
    fn rename(&mut self, from: &str, to: &str) {
        for op in self.ops.iter_mut().filter(|op| op.path == from) {
            op.path = to.to_string();
        }
        if self.dirty.remove(from) {
            self.dirty.insert(to.to_string());
        }
        // The durable `to` is now what `from` was, owed or not.
        self.lost.remove(to);
        if let Some(loss) = self.lost.remove(from) {
            self.lost.insert(to.to_string(), loss);
        }
    }

    /// Owes `path` (module docs, "Durability contract"): its durable
    /// copy misses bytes the fast tier acknowledged — a drain copy or
    /// sync failed, or a rename or a truncating open reached the fast
    /// tier only. `reported`:
    /// the barrier at hand reports it.
    fn lose(&mut self, path: &str, reported: bool) {
        self.losses += 1;
        self.lost.insert(path.to_string(), (self.losses, reported));
    }

    /// The owed files a barrier has reported: the next barrier
    /// re-drains them.
    fn owed(&self) -> Vec<String> {
        let reported = self.lost.iter().filter(|(_, loss)| loss.1);
        reported.map(|(path, _)| path.clone()).collect()
    }

    /// The number of owed `path`'s latest loss.
    fn loss(&self, path: &str) -> Option<u64> {
        self.lost.get(path).map(|loss| loss.0)
    }

    /// Marks durable `path` for the next barrier's sync sweep.
    fn touch(&mut self, path: &str) {
        if !self.dirty.contains(path) {
            self.dirty.insert(path.to_string());
        }
    }

    /// Unmarks durable `path` (unlinked): nothing is left to sync or
    /// owe under its name.
    fn forget(&mut self, path: &str) {
        self.dirty.remove(path);
        self.lost.remove(path);
    }

    /// Whether a copy of `path` is in flight.
    fn busy(&self, path: &str) -> bool {
        self.inflight.contains_key(path)
    }

    /// Whether a degraded write may ack: once the drain is back under
    /// the high watermark — every retired copy admits one more write,
    /// so writers advance at the device's pace — and never while a file
    /// is owed: nothing it waits for can make its checkpoint durable.
    fn room(&self) -> io::Result<bool> {
        if !self.lost.is_empty() {
            return Err(io::Error::other(
                "tiered write-through: drain copies are failing to reach the durable tier",
            ));
        }
        Ok(self.resident < self.hi)
    }

    fn drained(&self) -> bool {
        self.ops.is_empty() && self.inflight_total == 0
    }

    /// Ends a barrier's epoch, the queue drained: each of `redrained`
    /// (a file and the loss its re-drain answered) is no longer owed
    /// unless lost again since; returns the durable paths to sync and
    /// how many files are still owed, all of them now reported.
    fn seal(&mut self, redrained: &[(String, u64)]) -> (Vec<String>, usize) {
        self.c.barrier_waits += 1;
        for (path, at) in redrained {
            if self.loss(path) == Some(*at) {
                self.lost.remove(path);
            }
        }
        for loss in self.lost.values_mut() {
            loss.1 = true;
        }
        let dirty = std::mem::take(&mut self.dirty).into_iter().collect();
        (dirty, self.lost.len())
    }

    fn promoted(&mut self) {
        self.c.tier_promotes += 1;
    }

    fn close(&mut self) {
        self.closed = true;
    }

    /// Whether a worker may exit: shut down with nothing left to pick.
    fn finished(&self) -> bool {
        self.closed && self.ops.is_empty()
    }

    fn degraded(&self) -> bool {
        self.degraded
    }

    fn counters(&self) -> TierCounters {
        TierCounters {
            resident_bytes: self.resident,
            ..self.c
        }
    }
}

struct Shared {
    fast: Arc<dyn Backend>,
    durable: Arc<dyn Backend>,
    drain: Mutex<Drain>,
    /// Parks the drain workers; see the module docs for who wakes whom.
    work: Condvar,
    /// Parks everyone waiting for copies to finish.
    retired: Condvar,
    /// The one live write handle of each durable file touched lately.
    /// Taken after the drain lock where both are held, never before.
    durable_files: Mutex<HashMap<String, Arc<dyn BackendFile>>>,
    stats: Mutex<Option<Arc<CrfsStats>>>,
}

impl Shared {
    fn stats(&self) -> Option<Arc<CrfsStats>> {
        self.stats.lock().clone()
    }

    fn stage_timer(&self) -> Option<Instant> {
        self.stats().and_then(|s| s.stages.timer())
    }

    /// Body of a `crfs-drain<N>` thread.
    fn drain_loop(self: &Arc<Self>) {
        // This worker's copy buffer: grown to its largest op, never
        // shrunk, aligned so a direct-capable durable tier takes it in place.
        let mut scratch = ChunkBuf::new(0);
        let mut d = self.drain.lock();
        loop {
            if let Some((op, ticket)) = d.pick(DRAIN_WINDOW) {
                drop(d);
                self.copy(op, ticket, &mut scratch);
                d = self.drain.lock();
            } else if d.finished() {
                return;
            } else {
                self.work.wait(&mut d);
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
            let mut d = self.drain.lock();
            while !d.take_turn(ticket) {
                self.work.wait(&mut d);
            }
            self.work.notify_all();
        }
        let outcome = match source {
            Ok(Some((data, file))) => {
                let sink: Arc<dyn CompletionSink> = Arc::new(DrainSink {
                    shared: Arc::clone(self),
                    op: Arc::clone(&op),
                    t0,
                    _file: Arc::clone(&file),
                });
                // The ticket numbers the durable write too. `Ok(true)`:
                // the durable tier took it asynchronously, and the sink
                // retires the op.
                match file.begin_write_at(ticket, op.offset, data, &sink) {
                    Ok(true) => return,
                    Ok(false) if file.write_at(op.offset, data).is_ok() => Outcome::Copied,
                    Ok(false) | Err(_) => Outcome::Failed,
                }
            }
            Ok(None) => Outcome::Dropped,
            Err(_) => Outcome::Failed,
        };
        self.finish(&op, t0, outcome);
    }

    /// Retires one drain op (any outcome). On an asynchronous durable
    /// tier this runs on its completion thread.
    fn finish(&self, op: &DrainOp, t0: Option<Instant>, outcome: Outcome) {
        if let Some(s) = self.stats() {
            match outcome {
                Outcome::Copied => {
                    if let Some(t0) = t0 {
                        s.stages.drain_copy.record_dur(t0.elapsed());
                    }
                    s.flight
                        .record(EventKind::DrainCopy, Some(&op.path), op.offset, op.len);
                }
                Outcome::Dropped => {}
                Outcome::Failed => {
                    s.flight
                        .record(EventKind::WriteFailed, Some(&op.path), op.offset, op.len);
                }
            }
        }
        self.drain.lock().finish(op, outcome);
        self.retired.notify_all();
        self.work.notify_all();
    }

    /// Re-drains the files an earlier barrier reported owed, waits for
    /// the queue to empty, syncs every durable file written since the
    /// last barrier, and fails while any file is owed instead of
    /// claiming durability (module docs, "Durability contract").
    fn barrier(&self) -> io::Result<()> {
        let t0 = self.stage_timer();
        let owed = self.drain.lock().owed();
        let redrained: Vec<(String, u64)> = owed
            .into_iter()
            .filter_map(|path| self.redrain(&path).map(|at| (path, at)))
            .collect();
        let (dirty, lost) = {
            let mut d = self.drain.lock();
            while !d.drained() {
                self.retired.wait(&mut d);
            }
            d.seal(&redrained)
        };
        let mut first_err: Option<io::Error> = None;
        for path in &dirty {
            match self.durable_file(path, false).and_then(|f| f.sync()) {
                Ok(()) => {}
                // Unlinked or renamed since it was drained: nothing left
                // to make durable under this name.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    // Its synced bytes are unknown: owed, as a lost copy.
                    self.drain.lock().lose(path, true);
                    first_err.get_or_insert(e);
                }
            }
        }
        // Everything synced: a handle nobody is writing through has
        // done its job.
        close_idle(&mut self.durable_files.lock());
        // A lost drain copy is the root-cause diagnosis; sync errors on
        // a dead durable tier are its symptoms, so check it first.
        if lost > 0 {
            return Err(io::Error::other(format!(
                "tiered drain: {lost} files lost a copy or rename to the durable tier \
                 (fast-tier data retained; the next barrier re-drains them, as does \
                 the fsck tier pass)"
            )));
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if let (Some(s), Some(t0)) = (self.stats(), t0) {
            s.stages.drain_wait.record_dur(t0.elapsed());
        }
        Ok(())
    }

    /// Re-drains owed `path` whole from the fast tier: waits out its
    /// copies in flight, sizes the durable copy to the fast one —
    /// making the durable directories a refused rename left missing —
    /// and queues the copy. Returns the loss it answers, if `path` is
    /// still owed; a failure to set it up is a new loss.
    fn redrain(&self, path: &str) -> Option<u64> {
        let mut d = self.drain.lock();
        self.wait_out(&mut d, &[path]);
        let at = d.loss(path)?;
        let len = match self.fast.file_len(path) {
            Ok(len) => len,
            // Gone from the fast tier: no acknowledged byte is left to
            // owe.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Some(at),
            Err(_) => {
                d.lose(path, false);
                return None;
            }
        };
        let sized = mkdir_parents(&*self.durable, path)
            .and_then(|()| self.durable_file(path, true)?.set_len(len));
        if sized.is_err() {
            d.lose(path, false);
            return None;
        }
        d.touch(path);
        let mut off = 0;
        while off < len {
            let piece = (len - off).min(REDRAIN_PIECE);
            // Only a dropped backend refuses, and no barrier runs then.
            let _ = d.enqueue(path, off, piece);
            off += piece;
        }
        self.work.notify_all();
        Some(at)
    }

    /// Waits until no copy is in flight on any of `paths`.
    fn wait_out(&self, d: &mut MutexGuard<'_, Drain>, paths: &[&str]) {
        while paths.iter().any(|p| d.busy(p)) {
            self.retired.wait(d);
        }
    }

    /// Removes every queued op for `path` and waits out its in-flight
    /// copies — called before unlink and a truncating open so a late
    /// copy cannot resurrect or corrupt the durable file.
    fn flush_path(&self, path: &str) {
        let mut d = self.drain.lock();
        d.cut(path, 0);
        self.retired.notify_all();
        self.wait_out(&mut d, &[path]);
    }

    /// Prepares the drain for a resize of `path` to `new_len`: waits out
    /// in-flight copies (a late completion could extend the durable file
    /// past the new length), then cuts the queued ops down to
    /// `[0, new_len)`.
    fn truncate_path(&self, path: &str, new_len: u64) {
        let mut d = self.drain.lock();
        self.wait_out(&mut d, &[path]);
        d.cut(path, new_len);
        self.retired.notify_all();
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
        self.shared.finish(&self.op, self.t0, outcome);
    }
}

/// A two-tier [`Backend`]: fast-tier acks, background drain to the
/// durable tier. See the module docs for the contract.
pub struct TieredBackend {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl TieredBackend {
    /// Stacks `fast` over `durable` with the mount config's watermarks
    /// (`tier_watermark_lo/hi`) and starts the drain workers.
    pub fn from_config(
        fast: Arc<dyn Backend>,
        durable: Arc<dyn Backend>,
        config: &crate::CrfsConfig,
    ) -> TieredBackend {
        let drain = Drain::new(config.tier_watermark_lo, config.tier_watermark_hi);
        let shared = Arc::new(Shared {
            fast,
            durable,
            drain: Mutex::new(drain),
            work: Condvar::new(),
            retired: Condvar::new(),
            durable_files: Mutex::new(HashMap::new()),
            stats: Mutex::new(None),
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

    /// Whether writes are currently degraded to write-through.
    pub fn write_through_active(&self) -> bool {
        self.shared.drain.lock().degraded()
    }

    /// Snapshot of the tier counters.
    pub fn tier_counters(&self) -> TierCounters {
        self.shared.drain.lock().counters()
    }

    /// Copies the whole durable file into the fast tier, for a
    /// non-truncating write open of a file only the durable tier holds.
    /// On any failure the partial fast copy is removed so the fast tier
    /// never holds bytes the drain didn't put there.
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
        self.shared.drain.lock().promoted();
        if let Some(s) = self.shared.stats() {
            if let Some(t0) = t0 {
                s.stages.tier_promote.record_dur(t0.elapsed());
            }
            s.flight
                .record(EventKind::TierPromote, Some(path), total, 0);
        }
        Ok(())
    }

    fn file(
        &self,
        path: String,
        file: Box<dyn BackendFile>,
        on_fast: bool,
    ) -> Box<dyn BackendFile> {
        Box::new(TieredFile {
            path,
            shared: Arc::clone(&self.shared),
            file,
            on_fast,
        })
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
                    let durable = &self.shared.durable;
                    let cut = durable.open(&path, OpenOptions::create_truncate()).is_ok();
                    let mut d = self.shared.drain.lock();
                    match cut {
                        true => d.touch(&path),
                        // Acknowledgement needs the fast tier only: owed,
                        // the re-drain sizes the durable copy to the fast
                        // one.
                        false => d.lose(&path, false),
                    }
                }
            } else if !self.shared.fast.exists(&path) && self.shared.durable.exists(&path) {
                // The fast copy was lost but the file exists durable: a
                // non-truncating write open must see those contents.
                // Without promotion, create=false would fail NotFound
                // and create=true would shadow the durable copy with a
                // fresh empty fast file.
                self.promote(&path)?;
            }
            let fast = self.shared.fast.open(&path, opts)?;
            return Ok(self.file(path, fast, true));
        }
        // Read-only: serve the fast tier when it has the file (it is a
        // superset of the durable tier for any file it holds), the
        // durable tier otherwise.
        match self.shared.fast.open(&path, opts) {
            Ok(fast) => Ok(self.file(path, fast, true)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let durable = self.shared.durable.open(&path, opts)?;
                Ok(self.file(path, durable, false))
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
        self.shared.drain.lock().forget(&path);
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
        // Wait out copies in flight under either name, then rename both
        // tiers before any op can be picked again: the drain lock is
        // held throughout, so no copy lands under a name that is about
        // to move or be replaced. Queued drains and the dirty mark
        // follow the bytes only once the fast rename succeeded: a failed
        // one leaves them under `from`, where the bytes still are.
        let mut d = self.shared.drain.lock();
        self.shared.wait_out(&mut d, &[&from, &to]);
        let fast_had = self.shared.fast.exists(&from);
        if fast_had {
            self.shared.fast.rename(&from, &to)?;
        }
        d.rename(&from, &to);
        self.shared.forget_durable(&from);
        self.shared.forget_durable(&to);
        let durable = if self.shared.durable.exists(&from) {
            self.shared.durable.rename(&from, &to)
        } else if fast_had {
            // Nothing of `from` has drained yet, so its redirected ops
            // will build the durable `to` from nothing; an older
            // durable `to` must not keep a tail past the new length.
            match self.shared.durable.unlink(&to) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            }
        } else {
            Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{from:?} not found in either tier"),
            ))
        };
        if durable.is_err() && fast_had {
            // Half done: the fast tier moved, the durable tier did not.
            d.lose(&to, false);
        }
        durable
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

impl Drop for TieredBackend {
    /// Lands every queued op, then retires the drain workers. Files
    /// that outlive the backend fail their writes instead of queueing
    /// for a drain that no longer runs.
    fn drop(&mut self) {
        self.shared.drain.lock().close();
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked has already reported itself.
            let _ = worker.join();
        }
        let mut d = self.shared.drain.lock();
        while !d.drained() {
            self.shared.retired.wait(&mut d);
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
        self.fast_handle()?.write_at(offset, data)?;
        let mut d = self.shared.drain.lock();
        let degraded = d.enqueue(&self.path, offset, data.len() as u64)?;
        self.shared.work.notify_all();
        // Degraded: the drain is behind the high watermark. The fast
        // mirror took the bytes (readers serve from it, and the drain
        // re-reads them), but the ack waits until the drain has made
        // room for them, so resident bytes stop growing.
        while degraded && !d.room()? {
            self.shared.retired.wait(&mut d);
        }
        Ok(())
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
        self.shared.drain.lock().touch(&self.path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FailureMode, FaultyBackend, MemBackend};
    use crate::CrfsConfig;

    fn mems() -> (Arc<MemBackend>, Arc<MemBackend>) {
        (Arc::new(MemBackend::new()), Arc::new(MemBackend::new()))
    }

    fn tiered_with(config: CrfsConfig) -> (TieredBackend, Arc<MemBackend>, Arc<MemBackend>) {
        let (fast, durable) = mems();
        let be = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            &config,
        );
        (be, fast, durable)
    }

    fn tiered() -> (TieredBackend, Arc<MemBackend>, Arc<MemBackend>) {
        tiered_with(CrfsConfig::default())
    }

    /// Stops (or restarts) the drain: while held, enqueued ops stay
    /// queued. Release before dropping the backend.
    fn hold(be: &TieredBackend, held: bool) {
        be.shared.drain.lock().held = held;
        be.shared.work.notify_all();
    }

    /// Spins until `n` ops sit in the queue.
    fn await_queued(shared: &Shared, n: usize) {
        while shared.drain.lock().ops.len() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn writes_ack_fast_and_drain_to_durable() {
        let (be, fast, durable) = tiered();
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
        let (be, _fast, durable) = tiered();
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
        let (be, fast, durable) = tiered();
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
        let (be, fast, durable) = tiered_with(CrfsConfig::default().with_tier_watermarks(2, 8));
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
                assert!(be.tier_counters().resident_bytes < 8);
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
            "draining to the low watermark re-arms fast acks"
        );
        f.write_at(16, b"!").unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/w").unwrap(), b"firstsecondthird!");
        assert_eq!(be.tier_counters().write_through_ops, 1);
    }

    #[test]
    fn rename_redirects_queued_drains() {
        let (be, _fast, durable) = tiered();
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
        let (be, _fast, durable) = tiered();
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

    /// The fast tier takes a rename the durable tier refuses: the tiers
    /// now disagree on where the acked bytes live, and the next barrier
    /// must say so rather than claim durability. The barrier after it
    /// re-drains the renamed file, directory and all.
    #[test]
    fn durable_rename_failure_fails_next_barrier() {
        let (be, fast, durable) = tiered();
        fast.mkdir("/d").unwrap(); // the durable tier has no /d
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"acked").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        let err = be.rename("/f", "/d/g").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(fast.contents("/d/g").unwrap(), b"acked");
        assert_eq!(durable.contents("/f").unwrap(), b"acked");
        assert!(!durable.exists("/d/g"));
        let err = be
            .drain_barrier()
            .expect_err("a half-done rename fails the next barrier");
        assert!(err.to_string().contains("fsck tier pass"), "{err}");
        be.drain_barrier()
            .expect("the barrier after it re-drains the renamed file");
        assert_eq!(durable.contents("/d/g").unwrap(), b"acked");
    }

    /// A lost copy is owed until a barrier re-drains it: every barrier
    /// fails while the durable tier still refuses, though nothing
    /// rewrites the file, and the first one after it recovers lands the
    /// whole file.
    #[test]
    fn a_lost_copy_is_owed_until_a_barrier_redrains_it() {
        let (fast, durable_mem) = mems();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::FailWritesAfter(0),
        ));
        let be = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&faulty) as Arc<dyn Backend>,
            &CrfsConfig::default(),
        );
        let f = be.open("/x", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"never").unwrap();
        f.write_at(5, b"-landed").unwrap();
        drop(f);
        for _ in 0..2 {
            let err = be.drain_barrier().expect_err("a lost copy is owed");
            assert!(err.to_string().contains("re-drain"), "{err}");
        }
        faulty.set_mode(FailureMode::None);
        be.drain_barrier().expect("the re-drain landed");
        assert_eq!(durable_mem.contents("/x").unwrap(), b"never-landed");
        be.drain_barrier().expect("nothing is owed any more");
        let c = be.tier_counters();
        assert_eq!((c.drain_failed, c.resident_bytes), (3, 0));
    }

    #[test]
    fn unlink_purges_queue_and_both_tiers() {
        let (be, fast, durable) = tiered();
        let f = be.open("/gone", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"data").unwrap();
        drop(f);
        be.unlink("/gone").unwrap();
        assert!(!fast.exists("/gone"));
        assert!(!durable.exists("/gone"));
        be.drain_barrier().unwrap();
        assert!(!durable.exists("/gone"), "no late drain resurrects it");
        assert_eq!(be.tier_counters().resident_bytes, 0);
        assert!(be.unlink("/gone").is_err(), "second unlink is NotFound");
    }

    /// A file only the durable tier holds (the fast tier was lost) is
    /// read straight from the durable tier, and stays there.
    #[test]
    fn no_promotion_serves_durable_directly() {
        let (be, fast, durable) = tiered();
        let d = durable
            .open("/old", OpenOptions::create_truncate())
            .unwrap();
        d.write_at(0, b"survivor").unwrap();
        drop(d);
        let f = be.open("/old", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"survivor");
        assert_eq!(f.len().unwrap(), 8);
        assert_eq!(
            f.write_at(0, b"x").unwrap_err().kind(),
            io::ErrorKind::PermissionDenied,
            "a durable-tier handle is read-only"
        );
        drop(f);
        assert!(!fast.exists("/old"));
        assert_eq!(be.tier_counters().tier_promotes, 0);
    }

    #[test]
    fn crash_during_drain_fails_barrier_and_keeps_fast_prefix() {
        let (fast, durable_mem) = mems();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&faulty) as Arc<dyn Backend>,
            &CrfsConfig::default(),
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
        let (be, fast, durable) = tiered();
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

    /// Acknowledgement needs the fast tier only: a truncating open whose
    /// durable cut fails owes the file instead, and the re-drain that
    /// answers it sizes the durable copy to the fast one.
    #[test]
    fn a_truncating_open_owes_a_durable_copy_it_cannot_cut() {
        let (fast, durable_mem) = mems();
        let durable = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            &CrfsConfig::default(),
        );
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"a-long-first-generation").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        // The durable tier refuses every open.
        durable.set_mode(FailureMode::FailOpen);
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"short").unwrap();
        drop(f);
        assert!(be.drain_barrier().is_err(), "the durable cut is owed");
        durable.revive();
        be.drain_barrier().unwrap();
        assert_eq!(durable_mem.contents("/t").unwrap(), b"short");
        assert_eq!(fast.contents("/t").unwrap(), b"short");
    }

    #[test]
    fn truncate_open_clears_stale_durable_copy() {
        let (be, _fast, durable) = tiered();
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
        let (be, fast, durable) = tiered();
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
        let (be, fast, durable) = tiered();
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
        let (be, _fast, durable) = tiered();
        let f = be.open("/wt", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"stale").unwrap();
        be.drain_barrier().unwrap();
        // Pick an op that has already read the "stale" bytes and taken
        // its turn at the device — the state a worker is in when the
        // queue backs up and write-through engages.
        let stale = {
            let mut d = be.shared.drain.lock();
            d.enqueue("/wt", 0, 5).unwrap();
            let (op, ticket) = d.pick(DRAIN_WINDOW).unwrap();
            assert!(d.take_turn(ticket));
            d.degraded = true;
            op
        };
        let shared = Arc::clone(&be.shared);
        let late = std::thread::spawn(move || {
            // Only once the newer write is in the fast tier and its op
            // queued does the stale copy land on the durable tier...
            await_queued(&shared, 1);
            let d = shared.durable_file("/wt", true).unwrap();
            d.write_at(0, b"stale").unwrap();
            // ...and then the op retires, letting the newer one issue.
            shared.finish(&stale, None, Outcome::Copied);
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
        let be = TieredBackend::from_config(
            Arc::clone(&faulty_fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            &CrfsConfig::default(),
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
        let (be, fast, durable) = tiered();
        let f = be.open("/w", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"payload").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        fast.unlink("/w").unwrap(); // the fast copy is lost
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
        fast.unlink("/w").unwrap(); // and lost again
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

    /// A promotion the fast tier cannot take fails the open and leaves
    /// neither the target nor its staging file behind.
    #[test]
    fn failed_write_open_promotion_leaves_nothing_behind() {
        let (fast_mem, durable) = mems();
        let d = durable.open("/p", OpenOptions::create_truncate()).unwrap();
        d.write_at(0, b"durable-only").unwrap();
        drop(d);
        let be = TieredBackend::from_config(
            Arc::new(FaultyBackend::new(
                Arc::clone(&fast_mem) as Arc<dyn Backend>,
                FailureMode::FailWritesAfter(0),
            )),
            Arc::clone(&durable) as Arc<dyn Backend>,
            &CrfsConfig::default(),
        );
        assert!(be.open("/p", OpenOptions::read_write()).is_err());
        let left = fast_mem.list_dir("/").unwrap();
        assert!(
            !left
                .iter()
                .any(|n| n == "p" || n.contains(PROMOTE_TMP_MARKER)),
            "fast tier after a failed promotion: {left:?}"
        );
        assert_eq!(durable.contents("/p").unwrap(), b"durable-only");
        assert_eq!(be.tier_counters().tier_promotes, 0);
    }

    #[test]
    fn promote_staging_names_are_recognized_and_hidden() {
        assert!(is_promote_tmp("/data.promote-3"));
        assert!(is_promote_tmp("data.promote-0"));
        assert!(!is_promote_tmp("/data.promote-"));
        assert!(!is_promote_tmp("/data.promote-x"));
        assert!(!is_promote_tmp("/data"));
        let (be, fast, _durable) = tiered();
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

    /// Durable tier that counts write-mode opens and writes.
    #[derive(Default)]
    struct Recording {
        inner: MemBackend,
        write_opens: AtomicU64,
        writes: Arc<AtomicU64>,
    }

    struct RecordingFile {
        inner: Box<dyn BackendFile>,
        writes: Arc<AtomicU64>,
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
            let writes = Arc::clone(&self.writes);
            Ok(Box::new(RecordingFile { inner, writes }))
        }

        crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
            file_len, list_dir);
    }

    impl BackendFile for RecordingFile {
        fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
            self.writes.fetch_add(1, Relaxed);
            self.inner.write_at(offset, data)
        }

        crate::forward_file_ops!(inner: read_at, sync, len, set_len, is_empty);
    }

    const CHUNK: u64 = 1 << 20;

    /// More than one run bound per file, so the bound shows.
    const CHUNKS: u64 = RUN_BYTES / CHUNK + 4;

    /// Two workers overlap their durable writes, so only what they wrote
    /// through is exact here; the order itself is pinned on [`Drain`]
    /// by `one_copy_in_flight_drains_whole_runs_oldest_file_first`.
    #[test]
    fn drain_follows_device_order_through_one_handle_per_path() {
        let fast = Arc::new(MemBackend::new());
        let durable = Arc::new(Recording::default());
        let be = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            &CrfsConfig::default().with_tier_watermarks(u64::MAX / 4, u64::MAX / 2),
        );
        let a = be.open("/a", OpenOptions::create_truncate()).unwrap();
        let b = be.open("/b", OpenOptions::create_truncate()).unwrap();
        hold(&be, true);
        // Two writers' chunks arrive strictly alternating.
        for i in 0..CHUNKS {
            a.write_at(i * CHUNK, &vec![b'a'; CHUNK as usize]).unwrap();
            b.write_at(i * CHUNK, &vec![b'b'; CHUNK as usize]).unwrap();
        }
        hold(&be, false);
        be.drain_barrier().unwrap();

        let writes = durable.writes.load(Relaxed);
        assert_eq!(writes, 2 * CHUNKS, "one durable write per acked chunk");
        assert_eq!(
            durable.write_opens.load(Relaxed),
            2,
            "drain writes and the barrier's syncs share one handle per path"
        );
        let whole = |byte| vec![byte; (CHUNKS * CHUNK) as usize];
        assert_eq!(durable.inner.contents("/a").unwrap(), whole(b'a'));
        assert_eq!(durable.inner.contents("/b").unwrap(), whole(b'b'));
    }

    #[test]
    fn degraded_write_fails_once_a_drain_copy_failed() {
        let (fast, durable_mem) = mems();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&faulty) as Arc<dyn Backend>,
            &CrfsConfig::default().with_tier_watermarks(0, 4),
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
        let (be, fast, durable) = tiered();
        let f = be.open("/q", OpenOptions::create_truncate()).unwrap();
        hold(&be, true);
        for i in 0..4u64 {
            f.write_at(i * 3, b"abc").unwrap();
        }
        assert_eq!(be.tier_counters().resident_bytes, 12);
        assert!(!durable.exists("/q"));
        let shared = Arc::clone(&be.shared);
        hold(&be, false);
        drop(be);
        assert_eq!(
            durable.contents("/q").unwrap(),
            b"abcabcabcabc",
            "drop returns only once everything queued has landed"
        );
        assert_eq!(shared.drain.lock().resident, 0);
        // The handle outlived its backend: no worker is left to drain
        // for it, so neither a fast-acked nor a degraded write may
        // queue (the latter would park forever).
        for degraded in [false, true] {
            shared.drain.lock().degraded = degraded;
            let err = f.write_at(12, b"late").expect_err("backend is gone");
            assert!(err.to_string().contains("shut down"), "{err}");
        }
        assert_eq!(fast.contents("/q").unwrap(), b"abcabcabcabclate");
    }

    #[test]
    fn rename_over_a_longer_durable_file_leaves_no_stale_tail() {
        let (be, _fast, durable) = tiered();
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

    // -- the drain machine alone: no threads, no backend ---------------

    /// With one copy in flight the durable tier sees exactly the pick
    /// order: two writers' strictly alternating chunks drain as whole
    /// runs per file, the older file first.
    #[test]
    fn one_copy_in_flight_drains_whole_runs_oldest_file_first() {
        let mut d = Drain::new(u64::MAX / 4, u64::MAX / 2);
        for i in 0..CHUNKS {
            for path in ["/a", "/b"] {
                assert!(!d.enqueue(path, i * CHUNK, CHUNK).unwrap());
            }
        }
        // Cut the pick order into runs: same file, next offset.
        let mut runs: Vec<(String, u64)> = Vec::new();
        let mut head: Option<(String, u64)> = None;
        while let Some((op, ticket)) = d.pick(1) {
            assert!(d.pick(1).is_none(), "a second copy in a window of one");
            assert!(d.take_turn(ticket));
            match runs.last_mut() {
                Some((_, bytes)) if head == Some((op.path.clone(), op.offset)) => *bytes += op.len,
                _ => runs.push((op.path.clone(), op.len)),
            }
            head = Some((op.path.clone(), op.offset + op.len));
            d.finish(&op, Outcome::Copied);
        }
        assert!(d.drained());
        let tail = CHUNKS * CHUNK - RUN_BYTES;
        let runs: Vec<(&str, u64)> = runs.iter().map(|(p, n)| (p.as_str(), *n)).collect();
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
        let c = d.counters();
        assert_eq!(
            (c.drain_ops, c.drain_bytes),
            (2 * CHUNKS, 2 * CHUNKS * CHUNK)
        );
        assert_eq!(d.seal(&[]), (vec!["/a".to_string(), "/b".to_string()], 0));
    }

    /// Seeded walk over every `Drain` event a worker, writer, barrier,
    /// unlink, truncate or rename can send, in any order the callers
    /// allow, checking the machine's invariants after each step — the
    /// owed files against a model: a loss stays owed, and reported once
    /// a barrier sealed, until a barrier re-drained it with no loss
    /// since or it was unlinked.
    #[test]
    fn drain_walk_keeps_its_invariants() {
        const SEEDS: u64 = 24;
        const STEPS: usize = 2_500;
        const PATHS: [&str; 3] = ["/a", "/b", "/c"];
        const LO: u64 = 20_000;
        const HI: u64 = 60_000;
        for seed in 0..SEEDS {
            // splitmix64
            let mut state = 0x2545_f491_4f6c_dd1du64 ^ seed.wrapping_mul(0x9e37_79b9);
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut d = Drain::new(LO, HI);
            // Picked ops, each with its ticket and whether it took its turn.
            let mut flying: Vec<(DrainOp, u64, bool)> = Vec::new();
            let mut next_turn = 0u64;
            // The model of the owed files: the number of each one's
            // latest loss, and whether a seal has reported it.
            let mut owed: BTreeMap<String, (u64, bool)> = BTreeMap::new();
            let mut losses = 0u64;
            let mut lose = |owed: &mut BTreeMap<String, (u64, bool)>, path: &str| {
                losses += 1;
                owed.insert(path.to_string(), (losses, false));
            };
            let mut was_degraded = false;
            for step in 0..STEPS {
                let at = format!("seed {seed} step {step}");
                let path = PATHS[next() as usize % PATHS.len()];
                match next() % 16 {
                    0..=4 => {
                        let (offset, len) = (next() % 40_000, 1 + next() % 12_000);
                        let degraded = d.degraded();
                        assert_eq!(d.enqueue(path, offset, len).unwrap(), degraded, "{at}");
                    }
                    5..=7 => {
                        let window = [1, 2, DRAIN_WINDOW][next() as usize % 3];
                        let before = d.inflight_total;
                        match d.pick(window) {
                            Some((op, ticket)) => {
                                assert!(before < window, "{at}: pick past the window");
                                flying.push((op, ticket, false));
                            }
                            None => assert!(
                                before >= window || d.ops.iter().all(|op| !d.issuable(op)),
                                "{at}: nothing picked with an issuable op queued"
                            ),
                        }
                    }
                    8..=9 if !flying.is_empty() => {
                        let i = next() as usize % flying.len();
                        let ticket = flying[i].1;
                        let expect = !flying[i].2 && ticket == next_turn;
                        assert_eq!(d.take_turn(ticket), expect, "{at}: turn {ticket}");
                        if expect {
                            flying[i].2 = true;
                            next_turn += 1;
                        }
                    }
                    10..=11 => {
                        if let Some(i) = flying.iter().position(|f| f.2) {
                            let (op, _, _) = flying.swap_remove(i);
                            let outcome = [Outcome::Copied, Outcome::Dropped, Outcome::Failed]
                                [next() as usize % 3];
                            if matches!(outcome, Outcome::Failed) {
                                lose(&mut owed, &op.path);
                            }
                            d.finish(&op, outcome);
                        }
                    }
                    12 if next() % 4 == 0 => {
                        // An unlink: cut whole, copies waited out.
                        if !d.busy(path) {
                            d.cut(path, 0);
                            d.forget(path);
                            owed.remove(path);
                        }
                    }
                    12 => d.cut(path, next() % 48_000),
                    13 => {
                        let to = PATHS[next() as usize % PATHS.len()];
                        if to != path && !d.busy(path) && !d.busy(to) {
                            d.rename(path, to);
                            owed.remove(to);
                            if let Some(loss) = owed.remove(path) {
                                owed.insert(to.to_string(), loss);
                            }
                            if next() % 2 == 0 {
                                // The durable tier refused the rename.
                                d.lose(to, false);
                                lose(&mut owed, to);
                            }
                        }
                    }
                    14 => {
                        let reported: Vec<String> = owed
                            .iter()
                            .filter(|(_, loss)| loss.1)
                            .map(|(p, _)| p.clone())
                            .collect();
                        assert_eq!(d.owed(), reported, "{at}: re-drained next");
                        // A barrier re-drained some of them; some were
                        // lost again since, which keeps them owed.
                        let redrained: Vec<(String, u64)> = reported
                            .into_iter()
                            .filter_map(|p| match next() % 3 {
                                0 => None,
                                n => Some((owed[&p].0 + 1 - n, p)),
                            })
                            .map(|(at, p)| (p, at))
                            .collect();
                        for (p, at) in &redrained {
                            if owed[p].0 == *at {
                                owed.remove(p);
                            }
                        }
                        let (dirty, still) = d.seal(&redrained);
                        assert_eq!(still, owed.len(), "{at}: owed until re-drained");
                        owed.values_mut().for_each(|loss| loss.1 = true);
                        assert!(dirty.iter().all(|p| PATHS.contains(&p.as_str())), "{at}");
                        assert_eq!(d.seal(&[]).1, still, "{at}: a second seal owes the same");
                    }
                    _ => match d.room() {
                        Err(_) => assert!(!owed.is_empty(), "{at}: room refused, nothing owed"),
                        Ok(room) => {
                            assert!(owed.is_empty(), "{at}: room granted while owed");
                            assert_eq!(room, d.resident < HI, "{at}");
                        }
                    },
                }
                for p in PATHS {
                    assert_eq!(d.loss(p), owed.get(p).map(|l| l.0), "{at}: loss of {p}");
                }

                let queued: u64 = d.ops.iter().map(|op| op.len).sum();
                let copying: u64 = flying.iter().map(|f| f.0.len).sum();
                assert_eq!(d.resident, queued + copying, "{at}: resident bytes");
                assert_eq!(d.inflight_total, flying.len(), "{at}");
                for (i, (a, _, _)) in flying.iter().enumerate() {
                    for (b, _, _) in &flying[i + 1..] {
                        assert!(
                            a.path != b.path || !overlaps(a.offset, a.len, b.offset, b.len),
                            "{at}: overlapping copies of {} in flight",
                            a.path
                        );
                    }
                }
                assert_eq!(
                    d.drained(),
                    d.ops.is_empty() && flying.is_empty(),
                    "{at}: drained"
                );
                // Hysteresis: set at the high watermark, cleared only at the low.
                let (degraded, r) = (d.degraded(), d.resident);
                let flip = degraded == was_degraded || if degraded { r >= HI } else { r <= LO };
                assert!(
                    flip && (r < HI || degraded) && (r > LO || !degraded),
                    "{at}: degraded {degraded} at {r} resident bytes"
                );
                was_degraded = degraded;
            }
            // Whatever is left drains in turn order.
            loop {
                while let Some((op, ticket)) = d.pick(DRAIN_WINDOW) {
                    flying.push((op, ticket, false));
                }
                if flying.is_empty() {
                    break;
                }
                flying.sort_by_key(|f| f.1);
                for (op, ticket, turned) in flying.drain(..) {
                    assert!(
                        turned || d.take_turn(ticket),
                        "seed {seed}: turn order at the end"
                    );
                    d.finish(&op, Outcome::Copied);
                }
            }
            assert!(d.drained(), "seed {seed}");
            assert_eq!(d.resident, 0, "seed {seed}");
            assert!(!d.degraded(), "seed {seed}");
            assert_eq!(d.seal(&[]).1, owed.len(), "seed {seed}");
        }
    }
}
