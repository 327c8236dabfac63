//! Ring engine: submission/completion queues over an in-flight
//! descriptor slab.
//!
//! Per-op state lives in a slab of `ring_depth` descriptors. Submitters
//! post descriptor indices onto a **submission queue**, a pool of
//! `io_threads` issue workers starts the backend ops, and a reaper
//! thread drains a **completion queue**, retiring descriptors in batches.
//! On a backend with an asynchronous write path
//! ([`BackendFile::begin_write_at`](crate::backend::BackendFile::begin_write_at))
//! an issue worker starts an op and immediately moves to the next —
//! in-flight ops scale with `ring_depth`, far past the thread count. On a
//! synchronous backend (`begin_write_at` returns `Ok(false)`) the issue
//! worker blocks in `write_at`, so at most `io_threads` backend writes
//! are in flight: the paper's §IV-B throttle.
//!
//! Prefetch reads take the same two paths. A fill that is one whole
//! frame is *located* (stored extent, dedup origin) and its stored
//! bytes begun with
//! [`begin_read_at`](crate::backend::BackendFile::begin_read_at); the
//! completion puts the descriptor back on the submission queue, and an
//! issue worker decodes, verifies and installs it — reads in flight are
//! bounded by the slab, the pool and the read-ahead window, and decode
//! CPU never runs on the backend's completion thread. Every other fill,
//! and every fill on a backend answering `Ok(false)`, blocks its issue
//! worker as before.
//!
//! ## Descriptor lifecycle
//!
//! ```text
//! Free ──submit──▶ Queued ──issue──▶ Issuing ──┬─(sync / refused)──▶ Done
//!                                              └─(async accepted)─▶ InFlight
//! InFlight ──sink.complete──▶ Done ──reap──▶ Free
//!
//! prefetch reads:
//! Queued ──issue: locate──▶ Issuing ──┬─(sync fill, install)──▶ Free
//!                                     └─(async accepted)─▶ Reading
//! Reading ──sink.complete──▶ Filled ──issue: decode, verify, install──▶ Free
//! ```
//!
//! The issuer calls `begin_write_at` / `begin_read_at` *without*
//! holding the slot lock (the backend may complete inline, re-entering
//! the slot). Whoever finishes second — issuer observing
//! `CompletedEarly`, or sink observing `InFlight` / `Reading` —
//! publishes the result; the handshake makes inline completions (and
//! `FaultyBackend`'s completion-time failures) safe without recursion
//! or deadlock.
//!
//! ## Parking
//!
//! Four positions block: a submitter on a full slab, an issue worker on
//! an empty submission queue, the reaper on an empty completion queue,
//! and `drain` on in-flight ops. Each queue is plain data under one
//! `Mutex` — the free descriptors with `closed` (`Slab`), and the
//! submission and completion queues each with its `stopping`
//! (`IdxQueue`) — and every `Condvar` waits on the mutex of the queue
//! it parks on: submitters on `room` and `drain` on `quiet` (the slab's
//! lock), issue workers and the reaper on their queue's `ready`. A
//! waiter's check and its wait share the lock with the change that
//! would wake it, so no wakeup is lost between them. A waker reads the
//! parked count under the lock and notifies only when someone waits
//! (`quiet` is notified whenever the last descriptor comes free). No
//! wait is timed: an idle mount makes no wakeups.
//!
//! ## Backpressure and shutdown
//!
//! A full slab (no free descriptor) parks the submitter until a reap
//! frees a slot. Batch acceptance is *incremental*: each chunk of a
//! `submit_batch` acquires, fills and posts its own descriptor, so a
//! batch larger than the slab streams through it instead of deadlocking
//! on slots its own head holds. Shutdown sets `closed` under the slab's
//! lock, so a submitter either took its descriptor first — and `drain`
//! waits for it — or sees `closed` and backs out. A shutdown racing
//! mid-batch therefore refuses only the not-yet-posted suffix (every
//! chunk still completes exactly once, and the caller still sees one
//! `Unmounted`).
//!
//! Completions may arrive in any order, but every accepted op calls
//! `note_completed` exactly once after its buffer is back in the pool,
//! so a passed close/fsync barrier implies `pool_free == pool_total` at
//! quiescence.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use super::{
    dispatch_chunk, finish_fill, refuse, refuse_batch, refuse_reads, start_fill, IoItem, ReadChunk,
    SealedChunk,
};
use crate::backend::CompletionSink;
use crate::error::{CrfsError, Result};
use crate::obs::EventKind;
use crate::pool::BufferPool;
use crate::stats::CrfsStats;
use crate::transform::FrameFill;

/// Most descriptors the reaper retires per pass — bounds the latency of
/// one reap batch while still amortizing the pool wakeup.
const REAP_BATCH: usize = 64;

/// Per-descriptor state. The `Issuing`/`CompletedEarly` pair implements
/// the who-finishes-second-publishes handshake for inline completions.
enum DescState {
    /// Available for a submitter.
    Free,
    /// Filled by a submitter, waiting on the submission queue.
    Queued(IoItem),
    /// An issue worker took the op and is calling into the backend.
    Issuing,
    /// The backend completed inline, before the issuer re-locked the
    /// slot; the issuer publishes `Done`.
    CompletedEarly(io::Result<()>),
    /// Asynchronous write accepted by the backend; the sink publishes
    /// `Done` when the completion lands. `issued` stamps the
    /// `begin_write_at` call so the sink can record the full
    /// issue-to-completion latency (`write_issue_to_complete`).
    InFlight {
        chunk: SealedChunk,
        stored: u64,
        issued: Instant,
    },
    /// Completed, waiting on the completion queue for the reaper.
    Done {
        chunk: SealedChunk,
        res: io::Result<()>,
        stored: u64,
    },
    /// Prefetch fill whose stored bytes the backend is reading
    /// asynchronously; the sink publishes `Filled`.
    Reading { chunk: ReadChunk, fill: FrameFill },
    /// Prefetch fill whose read completed, back on the submission queue
    /// for an issue worker to decode, verify and install.
    Filled {
        chunk: ReadChunk,
        fill: FrameFill,
        res: io::Result<()>,
    },
}

/// The free descriptors, under the lock `room` and `quiet` wait on.
/// Descriptors in flight are the slab's depth minus `free`.
struct Slab {
    free: Vec<usize>,
    /// Refuses new submissions (set first by shutdown).
    closed: bool,
    /// Submitters parked on `room`.
    waiters: usize,
}

/// A FIFO of descriptor indices whose consumers park on it.
struct IdxQueue {
    state: Mutex<Pending>,
    ready: Condvar,
}

struct Pending {
    idxs: VecDeque<usize>,
    /// Consumers exit once `idxs` is empty (set by shutdown only after
    /// the slab drained).
    stopping: bool,
    /// Consumers parked on `ready`.
    waiters: usize,
}

impl IdxQueue {
    /// A queue with room for every descriptor of a `depth`-slot slab.
    fn new(depth: usize) -> IdxQueue {
        IdxQueue {
            state: Mutex::new(Pending {
                idxs: VecDeque::with_capacity(depth),
                stopping: false,
                waiters: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, idx: usize) {
        let mut q = self.state.lock();
        q.idxs.push_back(idx);
        let wake = q.waiters > 0;
        drop(q);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Parks until an index is queued, then moves up to `max` of them
    /// into `out`. `false` once stopping with nothing queued.
    fn take(&self, max: usize, out: &mut Vec<usize>) -> bool {
        let mut q = self.state.lock();
        while q.idxs.is_empty() {
            if q.stopping {
                return false;
            }
            q.waiters += 1;
            self.ready.wait(&mut q);
            q.waiters -= 1;
        }
        let n = q.idxs.len().min(max);
        out.extend(q.idxs.drain(..n));
        true
    }

    fn stop(&self) {
        self.state.lock().stopping = true;
        self.ready.notify_all();
    }
}

struct RingInner {
    slots: Box<[Mutex<DescState>]>,
    slab: Mutex<Slab>,
    /// Submitters parked on a full slab.
    room: Condvar,
    /// `drain`, parked until every descriptor is free.
    quiet: Condvar,
    /// Queued descriptors (issue workers take them).
    subq: IdxQueue,
    /// Done descriptors (the reaper takes them).
    compq: IdxQueue,
    pool: Arc<BufferPool>,
    stats: Arc<CrfsStats>,
}

impl RingInner {
    /// Takes a free descriptor, fills it with `item` and posts it on the
    /// submission queue. Returns the item if the engine closed
    /// (including while parked on a full slab).
    fn submit_one(&self, item: IoItem) -> std::result::Result<(), IoItem> {
        let idx = {
            let mut slab = self.slab.lock();
            loop {
                if slab.closed {
                    return Err(item);
                }
                if let Some(idx) = slab.free.pop() {
                    break idx;
                }
                slab.waiters += 1;
                self.room.wait(&mut slab);
                slab.waiters -= 1;
            }
        };
        *self.slots[idx].lock() = DescState::Queued(item);
        self.subq.push(idx);
        Ok(())
    }

    /// Returns retired descriptors to the slab, waking parked submitters
    /// and, once every descriptor is free, `drain`.
    fn free_slots(&self, idxs: &[usize]) {
        let mut slab = self.slab.lock();
        slab.free.extend_from_slice(idxs);
        let room = slab.waiters > 0;
        let quiet = slab.free.len() == self.slots.len();
        drop(slab);
        if room {
            self.room.notify_all();
        }
        if quiet {
            self.quiet.notify_all();
        }
    }

    /// Frees a descriptor that bypassed the completion queue (prefetch
    /// fills retire in an issue worker).
    fn release_slot(&self, idx: usize) {
        *self.slots[idx].lock() = DescState::Free;
        self.free_slots(&[idx]);
    }

    /// Issues one queued op, or finishes a prefetch fill whose read
    /// completed. Raw writes try the backend's asynchronous path first;
    /// transformed writes and the synchronous fallback run
    /// `dispatch_chunk` in this worker, which blocks for the write.
    fn issue_one(self: &Arc<Self>, idx: usize, sink: &Arc<dyn CompletionSink>) {
        let item = {
            let mut slot = self.slots[idx].lock();
            match std::mem::replace(&mut *slot, DescState::Issuing) {
                DescState::Queued(item) => item,
                DescState::Filled { chunk, fill, res } => {
                    drop(slot);
                    finish_fill(&self.stats, &self.pool, chunk, fill, res);
                    self.release_slot(idx);
                    return;
                }
                other => {
                    *slot = other;
                    return;
                }
            }
        };
        match item {
            IoItem::Read(chunk) => {
                match start_fill(&self.stats, &self.pool, chunk, idx as u64, sink) {
                    Some((chunk, fill)) => self.park_fill(idx, chunk, fill),
                    None => self.release_slot(idx),
                }
            }
            IoItem::Write(chunk) => {
                if let Some(sealed) = chunk.sealed_at {
                    self.stats
                        .stages
                        .seal_to_submit
                        .record_dur(sealed.elapsed());
                }
                // One backend op per chunk on either path.
                self.stats.backend_writes.fetch_add(1, Relaxed);
                let chunk = if chunk.entry.transform.is_none() {
                    match self.try_begin_async(idx, chunk, sink) {
                        None => return, // async path owns the op now
                        Some(chunk) => chunk,
                    }
                } else {
                    chunk
                };
                let (res, stored) = dispatch_chunk(&self.stats, &chunk);
                self.finish_issuing(idx, chunk, res, stored);
            }
        }
    }

    /// Attempts `begin_write_at`; returns the chunk back if the backend
    /// has no asynchronous path (`Ok(false)`).
    fn try_begin_async(
        &self,
        idx: usize,
        chunk: SealedChunk,
        sink: &Arc<dyn CompletionSink>,
    ) -> Option<SealedChunk> {
        let stored = chunk.len as u64;
        let t0 = Instant::now();
        let began = chunk.entry.file.begin_write_at(
            idx as u64,
            chunk.offset,
            &chunk.buf[..chunk.len],
            sink,
        );
        match began {
            Ok(true) => {
                self.stats
                    .backend_write_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
                self.stats.flight.record_cached(
                    EventKind::Issued,
                    &chunk.entry.path,
                    &chunk.entry.flight_tag,
                    chunk.offset,
                    chunk.len as u64,
                );
                // Accepted. Publish InFlight — unless the completion
                // already landed inline, in which case we finish.
                let mut slot = self.slots[idx].lock();
                match std::mem::replace(&mut *slot, DescState::Issuing) {
                    DescState::Issuing => {
                        *slot = DescState::InFlight {
                            chunk,
                            stored,
                            issued: t0,
                        };
                    }
                    DescState::CompletedEarly(res) => {
                        if self.stats.stages.enabled() {
                            self.stats
                                .stages
                                .write_issue_to_complete
                                .record_dur(t0.elapsed());
                        }
                        *slot = DescState::Done { chunk, res, stored };
                        drop(slot);
                        self.compq.push(idx);
                    }
                    _ => unreachable!("issuing slot changed to a foreign state"),
                }
                None
            }
            Ok(false) => Some(chunk),
            Err(e) => {
                self.stats
                    .backend_write_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
                self.stats.flight.record_cached(
                    EventKind::Issued,
                    &chunk.entry.path,
                    &chunk.entry.flight_tag,
                    chunk.offset,
                    chunk.len as u64,
                );
                if self.stats.stages.enabled() {
                    self.stats
                        .stages
                        .write_issue_to_complete
                        .record_dur(t0.elapsed());
                }
                // Submission-time failure: complete the op ourselves.
                self.finish_issuing(idx, chunk, Err(e), stored);
                None
            }
        }
    }

    /// Parks a fill whose read the backend accepted — unless the
    /// completion already landed inline, in which case this worker
    /// finishes it.
    fn park_fill(&self, idx: usize, chunk: ReadChunk, fill: FrameFill) {
        let mut slot = self.slots[idx].lock();
        match std::mem::replace(&mut *slot, DescState::Issuing) {
            DescState::Issuing => *slot = DescState::Reading { chunk, fill },
            DescState::CompletedEarly(res) => {
                drop(slot);
                finish_fill(&self.stats, &self.pool, chunk, fill, res);
                self.release_slot(idx);
            }
            _ => unreachable!("issuing slot changed to a foreign state"),
        }
    }

    /// Publishes the result of a synchronously finished write.
    fn finish_issuing(&self, idx: usize, chunk: SealedChunk, res: io::Result<()>, stored: u64) {
        {
            let mut slot = self.slots[idx].lock();
            debug_assert!(matches!(*slot, DescState::Issuing));
            *slot = DescState::Done { chunk, res, stored };
        }
        self.compq.push(idx);
    }

    /// Retires up to [`REAP_BATCH`] completed descriptors — stats, buffer
    /// recycling, ledger completion — then recycles the descriptors.
    fn reap(&self, idxs: &[usize]) {
        let mut bufs = Vec::with_capacity(idxs.len());
        let mut completions = Vec::with_capacity(idxs.len());
        let mut ok_bytes = 0u64;
        for &idx in idxs {
            let state = std::mem::replace(&mut *self.slots[idx].lock(), DescState::Free);
            match state {
                DescState::Done { chunk, res, stored } => {
                    if res.is_ok() {
                        ok_bytes += stored;
                    }
                    self.stats.flight.record_cached(
                        if res.is_ok() {
                            EventKind::Completed
                        } else {
                            EventKind::WriteFailed
                        },
                        &chunk.entry.path,
                        &chunk.entry.flight_tag,
                        chunk.offset,
                        chunk.len as u64,
                    );
                    bufs.push(chunk.buf);
                    completions.push((chunk.entry, res));
                }
                _ => unreachable!("completion queue carried a non-Done descriptor"),
            }
        }
        let n = idxs.len();
        self.stats.bytes_out.fetch_add(ok_bytes, Relaxed);
        self.stats.chunks_completed.fetch_add(n as u64, Relaxed);
        self.stats.completion_reaps.fetch_add(1, Relaxed);
        self.stats.completion_reaped.fetch_add(n as u64, Relaxed);
        self.stats.note_retired(n as u64);
        // Buffers back (one waiter wake for the batch), then
        // note_completed: a passed close/fsync barrier implies the
        // file's buffers are in the pool.
        self.pool.release_many(bufs);
        for (entry, res) in completions {
            entry.note_completed(res);
        }
        self.free_slots(idxs);
    }

    fn issue_loop(self: Arc<Self>, sink: Arc<dyn CompletionSink>) {
        let mut next = Vec::with_capacity(1);
        while self.subq.take(1, &mut next) {
            for idx in next.drain(..) {
                self.issue_one(idx, &sink);
            }
        }
    }

    fn reap_loop(self: Arc<Self>) {
        let mut done = Vec::with_capacity(REAP_BATCH);
        while self.compq.take(REAP_BATCH, &mut done) {
            self.reap(&done);
            done.clear();
        }
    }
}

impl CompletionSink for RingInner {
    fn complete(&self, token: u64, result: io::Result<()>) {
        let idx = token as usize;
        let mut slot = self.slots[idx].lock();
        match std::mem::replace(&mut *slot, DescState::Issuing) {
            DescState::InFlight {
                chunk,
                stored,
                issued,
            } => {
                if self.stats.stages.enabled() {
                    self.stats
                        .stages
                        .write_issue_to_complete
                        .record_dur(issued.elapsed());
                }
                *slot = DescState::Done {
                    chunk,
                    res: result,
                    stored,
                };
                drop(slot);
                self.compq.push(idx);
            }
            DescState::Reading { chunk, fill } => {
                *slot = DescState::Filled {
                    chunk,
                    fill,
                    res: result,
                };
                drop(slot);
                // Decoding is an issue worker's job, not the backend's
                // completion thread's.
                self.subq.push(idx);
            }
            DescState::Issuing => {
                // Inline completion: the issuer is still between its
                // begin_*_at call and its re-lock; leave the result
                // for it to publish.
                *slot = DescState::CompletedEarly(result);
            }
            other => {
                *slot = other;
                debug_assert!(false, "completion for an idle descriptor");
            }
        }
    }
}

/// The ring engine. See the module docs for the architecture.
pub struct RingEngine {
    inner: Arc<RingInner>,
    pool: Arc<BufferPool>,
    stats: Arc<CrfsStats>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl RingEngine {
    /// Spawns `io_threads` issue workers and one completion reaper over
    /// a slab of `ring_depth` descriptors.
    pub fn new(
        io_threads: usize,
        ring_depth: usize,
        pool: Arc<BufferPool>,
        stats: Arc<CrfsStats>,
    ) -> Result<RingEngine> {
        let depth = ring_depth.max(2);
        let slots = (0..depth).map(|_| Mutex::new(DescState::Free)).collect();
        let inner = Arc::new(RingInner {
            slots,
            slab: Mutex::new(Slab {
                free: (0..depth).collect(),
                closed: false,
                waiters: 0,
            }),
            room: Condvar::new(),
            quiet: Condvar::new(),
            subq: IdxQueue::new(depth),
            compq: IdxQueue::new(depth),
            pool: Arc::clone(&pool),
            stats: Arc::clone(&stats),
        });
        let sink: Arc<dyn CompletionSink> = Arc::clone(&inner) as Arc<dyn CompletionSink>;
        let mut handles = Vec::with_capacity(io_threads.max(1) + 1);
        for i in 0..io_threads.max(1) {
            let inner = Arc::clone(&inner);
            let sink = Arc::clone(&sink);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("crfs-ring-io-{i}"))
                    .spawn(move || inner.issue_loop(sink))
                    .map_err(CrfsError::Io)?,
            );
        }
        let reaper = Arc::clone(&inner);
        handles.push(
            std::thread::Builder::new()
                .name("crfs-ring-reap".into())
                .spawn(move || reaper.reap_loop())
                .map_err(CrfsError::Io)?,
        );
        Ok(RingEngine {
            inner,
            pool,
            stats,
            handles: Mutex::new(handles),
        })
    }

    /// Hands a sealed chunk to the engine. The chunk's `note_sealed` has
    /// already been recorded by the caller. Every accepted chunk
    /// eventually calls `note_completed` exactly once on its entry and
    /// returns its buffer to the pool — including on backend failure.
    /// Returns [`CrfsError::Unmounted`] if the engine has shut down (in
    /// which case the chunk is failed and its buffer recycled, so
    /// barriers cannot hang).
    pub fn submit(&self, chunk: SealedChunk) -> Result<()> {
        self.stats.engine_submits.fetch_add(1, Relaxed);
        self.stats.note_inflight(1);
        match self.inner.submit_one(IoItem::Write(chunk)) {
            Ok(()) => Ok(()),
            Err(IoItem::Write(chunk)) => Err(refuse(&self.stats, &self.pool, chunk)),
            Err(IoItem::Read(_)) => unreachable!("posted a write"),
        }
    }

    /// Hands over the chunks one large `write()` sealed, counted as one
    /// submission. Same contract as [`submit`](Self::submit) for every
    /// chunk; on shutdown the not-yet-posted chunks are
    /// failed-and-recycled and `Unmounted` is returned once.
    pub fn submit_batch(&self, chunks: Vec<SealedChunk>) -> Result<()> {
        if chunks.is_empty() {
            return Ok(());
        }
        self.stats.engine_submits.fetch_add(1, Relaxed);
        self.stats.note_inflight(chunks.len() as u64);
        let mut it = chunks.into_iter();
        for chunk in it.by_ref() {
            if let Err(item) = self.inner.submit_one(IoItem::Write(chunk)) {
                // Shutdown race mid-batch: the already-posted prefix
                // completes normally; this chunk and the suffix are
                // refused (every chunk still completes exactly once).
                let chunk = match item {
                    IoItem::Write(chunk) => chunk,
                    IoItem::Read(_) => unreachable!("posted writes"),
                };
                refuse(&self.stats, &self.pool, chunk);
                return Err(refuse_batch(&self.stats, &self.pool, it));
            }
        }
        Ok(())
    }

    /// Hands a batch of prefetch reads to the engine. The caller has
    /// already recorded them on the file's read ledger (`note_issued`);
    /// the engine retires every chunk exactly once — installed into the
    /// read cache, discarded as stale, or (on shutdown) aborted with its
    /// buffer recycled — so the close-time drain can never hang.
    pub fn submit_reads(&self, reads: Vec<ReadChunk>) -> Result<()> {
        if reads.is_empty() {
            return Ok(());
        }
        self.stats.note_inflight(reads.len() as u64);
        let mut it = reads.into_iter();
        for chunk in it.by_ref() {
            if let Err(item) = self.inner.submit_one(IoItem::Read(chunk)) {
                let chunk = match item {
                    IoItem::Read(chunk) => chunk,
                    IoItem::Write(_) => unreachable!("posted reads"),
                };
                refuse_reads(&self.stats, &self.pool, std::iter::once(chunk));
                return Err(refuse_reads(&self.stats, &self.pool, it));
            }
        }
        Ok(())
    }

    /// Blocks until every op accepted so far has completed.
    pub fn drain(&self) {
        let mut slab = self.inner.slab.lock();
        while slab.free.len() < self.inner.slots.len() {
            self.inner.quiet.wait(&mut slab);
        }
    }

    /// Stops the engine: refuses new submissions, waits out everything
    /// accepted (including ops parked in backends' asynchronous paths),
    /// then stops and joins the workers. Idempotent and safe to call
    /// concurrently: a second call finds the flags set and the handle
    /// list empty.
    pub fn shutdown(&self) {
        self.inner.slab.lock().closed = true;
        // A submitter parked on a full slab backs out on `closed`.
        self.inner.room.notify_all();
        self.drain();
        self.inner.subq.stop();
        self.inner.compq.stop();
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RingEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, BackendFile, MemBackend, OpenOptions};
    use crate::file::FileEntry;

    fn fixture(chunks: usize) -> (Arc<BufferPool>, Arc<CrfsStats>, Arc<MemBackend>) {
        (
            Arc::new(BufferPool::new(1024, chunks)),
            Arc::new(CrfsStats::new()),
            Arc::new(MemBackend::new()),
        )
    }

    fn chunk_of(
        pool: &BufferPool,
        entry: &Arc<FileEntry>,
        offset: u64,
        fill: u8,
        len: usize,
    ) -> SealedChunk {
        let (mut buf, _) = pool.acquire().unwrap();
        buf[..len].iter_mut().for_each(|b| *b = fill);
        entry.note_sealed();
        SealedChunk {
            entry: Arc::clone(entry),
            buf,
            len,
            offset,
            sealed_at: None,
        }
    }

    /// A backend file whose writes complete asynchronously on a helper
    /// thread — exercises the genuine `InFlight` path.
    struct DeferredFile {
        inner: Box<dyn BackendFile>,
    }

    impl BackendFile for DeferredFile {
        fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
            self.inner.write_at(offset, data)
        }
        fn begin_write_at(
            &self,
            token: u64,
            offset: u64,
            data: &[u8],
            sink: &Arc<dyn CompletionSink>,
        ) -> io::Result<bool> {
            // Consume the data now (the contract), defer only the
            // completion.
            let res = self.inner.write_at(offset, data);
            let sink = Arc::clone(sink);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                sink.complete(token, res);
            });
            Ok(true)
        }
        crate::forward_file_ops!(inner: read_at, sync, len, set_len);
    }

    fn deferred_entry(be: &MemBackend, path: &str) -> Arc<FileEntry> {
        let inner = be.open(path, OpenOptions::create_truncate()).unwrap();
        Arc::new(FileEntry::new(path, Box::new(DeferredFile { inner })))
    }

    fn plain_entry(be: &MemBackend, path: &str) -> Arc<FileEntry> {
        let f = be.open(path, OpenOptions::create_truncate()).unwrap();
        Arc::new(FileEntry::new(path, f))
    }

    fn engine(pool: &Arc<BufferPool>, stats: &Arc<CrfsStats>) -> Arc<RingEngine> {
        Arc::new(RingEngine::new(2, 8, Arc::clone(pool), Arc::clone(stats)).unwrap())
    }

    #[test]
    fn lands_bytes_and_completes() {
        let (pool, stats, be) = fixture(4);
        let entry = plain_entry(&be, "/e");
        let engine = engine(&pool, &stats);
        engine
            .submit(chunk_of(&pool, &entry, 0, b'a', 1024))
            .unwrap();
        engine
            .submit(chunk_of(&pool, &entry, 1024, b'b', 512))
            .unwrap();
        engine.drain();
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_none(), "{err:?}");
        let data = be.contents("/e").unwrap();
        assert_eq!(data.len(), 1536);
        assert!(data[..1024].iter().all(|&b| b == b'a'));
        assert!(data[1024..].iter().all(|&b| b == b'b'));
        engine.shutdown();
        assert_eq!(pool.free_chunks(), 4, "buffers leaked");
    }

    #[test]
    fn accepts_batches_and_counts_submits() {
        let (pool, stats, be) = fixture(4);
        let entry = plain_entry(&be, "/e");
        let engine = engine(&pool, &stats);
        let batch = vec![
            chunk_of(&pool, &entry, 0, b'a', 1024),
            chunk_of(&pool, &entry, 1024, b'b', 1024),
            chunk_of(&pool, &entry, 2048, b'c', 512),
        ];
        engine.submit_batch(batch).unwrap();
        engine.submit_batch(Vec::new()).unwrap(); // empty batch is a no-op
        engine.drain();
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_none(), "{err:?}");
        assert_eq!(be.contents("/e").unwrap().len(), 2560);
        assert_eq!(
            stats.chunks_completed.load(Relaxed),
            3,
            "every batched chunk completes individually"
        );
        assert_eq!(
            stats.engine_submits.load(Relaxed),
            1,
            "a 3-chunk batch is one submission (empty batches don't count)"
        );
        engine.shutdown();
        assert_eq!(pool.free_chunks(), 4, "buffers leaked");
    }

    #[test]
    fn batch_refused_after_shutdown_fails_every_chunk() {
        let (pool, stats, be) = fixture(4);
        let entry = plain_entry(&be, "/e");
        let engine = engine(&pool, &stats);
        engine.shutdown();
        let batch = vec![
            chunk_of(&pool, &entry, 0, b'x', 100),
            chunk_of(&pool, &entry, 100, b'y', 100),
        ];
        let err = engine.submit_batch(batch).unwrap_err();
        assert!(matches!(err, CrfsError::Unmounted));
        // Both chunks completed (with errors), so barriers cannot hang.
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_some());
        let snap = stats.snapshot();
        assert_eq!(snap.chunks_refused, 2);
        assert_eq!(snap.chunks_completed, 0);
        assert_eq!(snap.ops_inflight, 0);
        assert_eq!(pool.free_chunks(), 4, "buffers leaked");
    }

    #[test]
    fn submit_after_shutdown_fails_chunk_not_barrier() {
        let (pool, stats, be) = fixture(4);
        let entry = plain_entry(&be, "/e");
        let engine = engine(&pool, &stats);
        engine.shutdown();
        let err = engine
            .submit(chunk_of(&pool, &entry, 0, b'x', 100))
            .unwrap_err();
        assert!(matches!(err, CrfsError::Unmounted));
        // The refused chunk still completed (with an error), so a
        // barrier on the entry returns instead of hanging.
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_some());
        assert_eq!(pool.free_chunks(), 4, "buffers leaked");
        // Refused, not completed: never reached the backend.
        assert_eq!(stats.chunks_refused.load(Relaxed), 1);
        assert_eq!(stats.chunks_completed.load(Relaxed), 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_concurrent_safe() {
        let (pool, stats, be) = fixture(4);
        let entry = plain_entry(&be, "/e");
        let engine = engine(&pool, &stats);
        engine
            .submit(chunk_of(&pool, &entry, 0, b'z', 1024))
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let e = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || e.shutdown()));
        }
        for h in handles {
            h.join().unwrap();
        }
        engine.shutdown();
        // The accepted chunk was drained exactly once.
        assert_eq!(be.contents("/e").unwrap().len(), 1024);
        assert_eq!(stats.chunks_completed.load(Relaxed), 1);
    }

    #[test]
    fn async_completions_scale_past_issue_threads() {
        // 1 issue thread, depth 8: with a deferred backend all 8 chunks
        // must be in flight simultaneously (a blocked-thread engine
        // could hold only 1).
        let (pool, stats, be) = fixture(8);
        let engine = RingEngine::new(1, 8, Arc::clone(&pool), Arc::clone(&stats)).unwrap();
        let entry = deferred_entry(&be, "/d");
        let batch: Vec<SealedChunk> = (0..8)
            .map(|i| chunk_of(&pool, &entry, i * 1024, b'a' + i as u8, 1024))
            .collect();
        engine.submit_batch(batch).unwrap();
        engine.drain();
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_none(), "{err:?}");
        assert_eq!(be.contents("/d").unwrap().len(), 8 * 1024);
        let snap = stats.snapshot();
        assert_eq!(snap.chunks_completed, 8);
        assert_eq!(snap.completion_reaped, 8);
        assert!(
            snap.inflight_hwm >= 4,
            "async depth never materialized: hwm {}",
            snap.inflight_hwm
        );
        engine.shutdown();
        assert_eq!(pool.free_chunks(), 8, "buffers leaked");
        assert_eq!(stats.snapshot().ops_inflight, 0);
    }

    #[test]
    fn slab_backpressure_streams_batches_larger_than_depth() {
        // Depth 2, 12 chunks: submitters must park and resume as reaps
        // free descriptors, never deadlock.
        let (pool, stats, be) = fixture(12);
        let engine = RingEngine::new(2, 2, Arc::clone(&pool), Arc::clone(&stats)).unwrap();
        let entry = plain_entry(&be, "/s");
        let batch: Vec<SealedChunk> = (0..12)
            .map(|i| chunk_of(&pool, &entry, i * 1024, b'x', 1024))
            .collect();
        engine.submit_batch(batch).unwrap();
        engine.drain();
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_none(), "{err:?}");
        assert_eq!(be.contents("/s").unwrap().len(), 12 * 1024);
        engine.shutdown();
        assert_eq!(pool.free_chunks(), 12);
        assert_eq!(stats.snapshot().ops_inflight, 0);
    }

    #[test]
    fn many_submitters_share_a_two_slot_slab() {
        // 4 threads × 50 chunks through 2 descriptors; the even threads'
        // completions land on helper threads.
        let (pool, stats, be) = fixture(8);
        let engine = RingEngine::new(2, 2, Arc::clone(&pool), Arc::clone(&stats)).unwrap();
        let entries: Vec<Arc<FileEntry>> = (0..4)
            .map(|t| match t % 2 {
                0 => deferred_entry(&be, &format!("/m{t}")),
                _ => plain_entry(&be, &format!("/m{t}")),
            })
            .collect();
        let fill = |t: usize, i: usize| (t * 50 + i) as u8;
        std::thread::scope(|s| {
            for (t, entry) in entries.iter().enumerate() {
                let (pool, engine) = (&pool, &engine);
                s.spawn(move || {
                    for i in 0..50 {
                        let chunk = chunk_of(pool, entry, i as u64 * 1024, fill(t, i), 1024);
                        engine.submit(chunk).unwrap();
                    }
                });
            }
        });
        engine.drain();
        for (t, entry) in entries.iter().enumerate() {
            let (_, err) = entry.wait_outstanding();
            assert!(err.is_none(), "{err:?}");
            let data = be.contents(&format!("/m{t}")).unwrap();
            assert_eq!(data.len(), 50 * 1024);
            for (i, chunk) in data.chunks(1024).enumerate() {
                assert!(chunk.iter().all(|&b| b == fill(t, i)), "file {t} chunk {i}");
            }
        }
        let snap = stats.snapshot();
        assert_eq!((snap.chunks_completed, snap.completion_reaped), (200, 200));
        assert_eq!(pool.free_chunks(), 8, "buffers leaked");
        assert_eq!(snap.ops_inflight, 0);
        engine.shutdown();
    }

    #[test]
    fn inline_completion_failure_propagates_through_slab() {
        use crate::backend::{FailureMode, FaultyBackend};
        // FaultyBackend's completion-time injection completes inside
        // begin_write_at — the CompletedEarly handshake path.
        let (pool, stats, _) = fixture(4);
        let be = FaultyBackend::new(MemBackend::new(), FailureMode::FailCompletionsAfter(0));
        let engine = RingEngine::new(2, 4, Arc::clone(&pool), Arc::clone(&stats)).unwrap();
        let f = be.open("/bad", OpenOptions::create_truncate()).unwrap();
        let entry = Arc::new(FileEntry::new("/bad", f));
        engine
            .submit(chunk_of(&pool, &entry, 0, b'z', 512))
            .unwrap();
        engine.drain();
        let (_, err) = entry.wait_outstanding();
        assert!(err.is_some(), "completion-time failure must surface");
        engine.shutdown();
        assert_eq!(pool.free_chunks(), 4, "failed op leaked its buffer");
        let snap = stats.snapshot();
        assert_eq!(snap.chunks_completed, 1);
        assert_eq!(snap.ops_inflight, 0);
    }

    // ------------------------------------------------------------------
    // §IV-B throttle: "enough threads to keep the backend busy, few
    // enough to throttle contention"
    // ------------------------------------------------------------------

    use crate::config::CrfsConfig;
    use crate::fs::CrfsFile;
    use crate::stats::StatsSnapshot;
    use crate::Crfs;

    #[derive(Default)]
    struct GateState {
        in_flight: usize,
        hwm: usize,
        open: bool,
        /// Reads pass the gate too (writes always do). Off while a test
        /// opens its file: the open scans the frame headers.
        reads: bool,
        /// Synchronous reads shorter than this skip the gate (0: none
        /// do), so a reader's own small read can pass a held fill.
        gate_reads_from: usize,
        /// Accepted asynchronous ops awaiting their completion.
        held: Vec<(u64, Arc<dyn CompletionSink>)>,
    }

    impl GateState {
        fn enter(&mut self) {
            self.in_flight += 1;
            self.hwm = self.hwm.max(self.in_flight);
        }
    }

    type Gate = Arc<(Mutex<GateState>, Condvar)>;

    /// A backend whose ops stay in flight until the test lets them go,
    /// counting how many are in flight at once. Synchronous (`write_at`
    /// / `read_at` block on the closed gate) or asynchronous
    /// (`begin_*_at` moves the bytes and parks the completion while the
    /// gate is closed, completes inline while it is open).
    struct GatedBackend {
        inner: Arc<MemBackend>,
        gate: Gate,
        asynchronous: bool,
    }

    struct GatedFile {
        inner: Box<dyn BackendFile>,
        gate: Gate,
        asynchronous: bool,
    }

    impl Backend for GatedBackend {
        fn name(&self) -> &str {
            "gated"
        }
        fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
            Ok(Box::new(GatedFile {
                inner: self.inner.open(path, opts)?,
                gate: Arc::clone(&self.gate),
                asynchronous: self.asynchronous,
            }))
        }
        crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists, file_len,
            list_dir, drain_barrier, attach_stats);
    }

    impl GatedFile {
        /// Runs a synchronous op once the gate is open.
        fn pass<T>(&self, op: impl FnOnce() -> T) -> T {
            let (state, changed) = &*self.gate;
            let mut st = state.lock();
            st.enter();
            changed.notify_all();
            while !st.open {
                changed.wait(&mut st);
            }
            drop(st);
            let res = op();
            state.lock().in_flight -= 1;
            res
        }

        /// Completes an accepted asynchronous op: inline while the gate
        /// is open, else when the test releases it.
        fn park(&self, token: u64, sink: &Arc<dyn CompletionSink>) {
            let (state, changed) = &*self.gate;
            let mut st = state.lock();
            if st.open {
                drop(st);
                sink.complete(token, Ok(()));
                return;
            }
            st.enter();
            st.held.push((token, Arc::clone(sink)));
            changed.notify_all();
        }
    }

    impl BackendFile for GatedFile {
        fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
            self.pass(|| self.inner.write_at(offset, data))
        }
        fn begin_write_at(
            &self,
            token: u64,
            offset: u64,
            data: &[u8],
            sink: &Arc<dyn CompletionSink>,
        ) -> io::Result<bool> {
            if !self.asynchronous {
                return Ok(false);
            }
            self.inner.write_at(offset, data)?;
            self.park(token, sink);
            Ok(true)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            let gated = {
                let st = self.gate.0.lock();
                st.reads && buf.len() >= st.gate_reads_from
            };
            if !gated {
                return self.inner.read_at(offset, buf);
            }
            self.pass(|| self.inner.read_at(offset, buf))
        }
        fn begin_read_at(
            &self,
            token: u64,
            offset: u64,
            buf: &mut [u8],
            sink: &Arc<dyn CompletionSink>,
        ) -> io::Result<bool> {
            if !self.asynchronous || !self.gate.0.lock().reads {
                return Ok(false);
            }
            crate::backend::read_exact_at(&*self.inner, offset, buf)?;
            self.park(token, sink);
            Ok(true)
        }
        crate::forward_file_ops!(inner: sync, len, set_len);
    }

    /// Mounts over a [`GatedBackend`] with `io_threads = 3`, depth 64,
    /// queues 12 one-chunk writes from one `write()`, and returns once
    /// `want` of them are in flight at the backend.
    fn mount_gated_and_queue(
        asynchronous: bool,
        want: usize,
    ) -> (Arc<Crfs>, crate::fs::CrfsFile, Gate) {
        let gate: Gate = Arc::default();
        let be = GatedBackend {
            inner: Arc::default(),
            gate: Arc::clone(&gate),
            asynchronous,
        };
        let fs = Crfs::mount(Arc::new(be), gated_config()).unwrap();
        let f = fs.create("/t").unwrap();
        f.write(&[7u8; 12 * 1024]).unwrap(); // seals 12 chunks = 4 x io_threads
        await_in_flight(&gate, want);
        (fs, f, gate)
    }

    /// 1 KiB chunks, a 32-chunk pool, 3 IO threads, depth 64.
    fn gated_config() -> CrfsConfig {
        CrfsConfig::default()
            .with_chunk_size(1024)
            .with_pool_size(32 * 1024)
            .with_io_threads(3)
            .with_ring_depth(64)
    }

    /// Returns once `want` ops are in flight at the gate.
    fn await_in_flight(gate: &Gate, want: usize) {
        let (state, changed) = &**gate;
        let mut st = state.lock();
        while st.in_flight < want {
            assert!(
                !changed.wait_for(&mut st, std::time::Duration::from_secs(10)),
                "only {} of {want} ops reached the backend",
                st.in_flight
            );
        }
    }

    /// Completes every parked asynchronous op.
    fn release_held(gate: &Gate) {
        let held = {
            let mut st = gate.0.lock();
            st.in_flight = 0;
            std::mem::take(&mut st.held)
        };
        for (token, sink) in held {
            sink.complete(token, Ok(()));
        }
    }

    #[test]
    fn sync_backend_sees_exactly_io_threads_writes_in_flight() {
        let (fs, f, gate) = mount_gated_and_queue(false, 3);
        let (state, changed) = &*gate;
        // All three issue workers are now blocked inside `write_at`;
        // nothing else can start a write until one returns.
        state.lock().open = true;
        changed.notify_all();
        f.close().unwrap();
        let st = state.lock();
        assert_eq!(st.hwm, 3, "9 more chunks were queued behind 3 IO threads");
        assert_eq!(st.in_flight, 0);
        drop(st);
        assert_eq!(fs.stats().chunks_completed, 12);
        fs.unmount().unwrap();
    }

    #[test]
    fn async_backend_gets_more_than_io_threads_writes_in_flight() {
        let (fs, f, gate) = mount_gated_and_queue(true, 12);
        assert_eq!(
            gate.0.lock().hwm,
            12,
            "3 issue workers started all 12 writes"
        );
        release_held(&gate);
        f.close().unwrap();
        assert_eq!(fs.stats().chunks_completed, 12);
        fs.unmount().unwrap();
    }

    // ------------------------------------------------------------------
    // The read twins: prefetch fills of a framed file
    // ------------------------------------------------------------------

    /// Twelve distinct 1 KiB chunks.
    fn twelve_chunks() -> Vec<u8> {
        (0..12 * 1024)
            .map(|i| (i / 1024 * 37 + i % 251) as u8)
            .collect()
    }

    /// Writes [`twelve_chunks`] as one framed file, mounts `be` over the
    /// same store with a 12-chunk read-ahead, opens the file and turns
    /// read gating on.
    fn mount_framed<B: Backend>(
        mem: &Arc<MemBackend>,
        be: B,
        gate: &Gate,
    ) -> (Arc<Crfs>, CrfsFile) {
        let config = gated_config()
            .with_read_ahead(12)
            .with_codec(crate::CodecKind::Identity);
        mount_written(mem, be, gate, config, &twelve_chunks())
    }

    /// Writes `data` as `/t` through a mount over `mem`, mounts `be`
    /// over the same store, opens the file and turns read gating on.
    fn mount_written<B: Backend>(
        mem: &Arc<MemBackend>,
        be: B,
        gate: &Gate,
        config: CrfsConfig,
        data: &[u8],
    ) -> (Arc<Crfs>, CrfsFile) {
        let fs = Crfs::mount(Arc::clone(mem) as Arc<dyn Backend>, config.clone()).unwrap();
        let f = fs.create("/t").unwrap();
        f.write(data).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        let fs = Crfs::mount(Arc::new(be), config).unwrap();
        let f = fs.open("/t").unwrap();
        gate.0.lock().reads = true;
        (fs, f)
    }

    /// Reads the whole framed file on a second thread while the gate is
    /// closed, waits for `want` fills in flight, runs `release`, and
    /// checks the bytes. Returns the most fills ever in flight at once.
    fn read_through_gate(asynchronous: bool, want: usize, release: fn(&Gate)) -> usize {
        let (mem, gate) = (Arc::new(MemBackend::new()), Gate::default());
        let be = GatedBackend {
            inner: Arc::clone(&mem),
            gate: Arc::clone(&gate),
            asynchronous,
        };
        let (fs, f) = mount_framed(&mem, be, &gate);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut buf = vec![0u8; 12 * 1024];
                (f.read_at(0, &mut buf).unwrap(), buf)
            });
            await_in_flight(&gate, want);
            release(&gate);
            let (n, buf) = reader.join().unwrap();
            assert_eq!(n, buf.len());
            assert!(buf == twelve_chunks(), "a fill installed the wrong bytes");
        });
        f.close().unwrap();
        let snap = fs.stats();
        assert_eq!((snap.prefetch_issued, snap.prefetch_wasted), (12, 0));
        fs.unmount().unwrap();
        let hwm = gate.0.lock().hwm;
        hwm
    }

    #[test]
    fn sync_backend_sees_exactly_io_threads_reads_in_flight() {
        let open_gate: fn(&Gate) = |gate| {
            gate.0.lock().open = true;
            gate.1.notify_all();
        };
        // All three issue workers block inside `read_at`; 9 more fills
        // wait behind them.
        assert_eq!(read_through_gate(false, 3, open_gate), 3);
    }

    #[test]
    fn async_backend_gets_more_than_io_threads_reads_in_flight() {
        // 3 issue workers started all 12 fills; each completion sends
        // its descriptor back through the submission queue to be decoded.
        assert_eq!(read_through_gate(true, 12, release_held), 12);
    }

    /// An open asynchronous gate under a [`FaultyBackend`] in `mode`
    /// (set after the open's header scan): reads the framed file and
    /// returns the reader's result, its buffer, the mount's stats and
    /// the faulty layer.
    fn read_async_faulty(
        mode: crate::backend::FailureMode,
    ) -> (
        Result<usize>,
        Vec<u8>,
        crate::stats::StatsSnapshot,
        Arc<crate::backend::FaultyBackend<GatedBackend>>,
    ) {
        let (mem, gate) = (Arc::new(MemBackend::new()), Gate::default());
        gate.0.lock().open = true;
        let be = Arc::new(crate::backend::FaultyBackend::new(
            GatedBackend {
                inner: Arc::clone(&mem),
                gate: Arc::clone(&gate),
                asynchronous: true,
            },
            crate::backend::FailureMode::None,
        ));
        let (fs, f) = mount_framed(&mem, Arc::clone(&be), &gate);
        be.set_mode(mode);
        let mut buf = vec![0u8; 12 * 1024];
        let res = f.read_at(0, &mut buf);
        f.close().unwrap();
        let snap = fs.stats();
        assert_eq!(
            snap.pool_free_chunks, snap.pool_total_chunks,
            "a failed fill kept its buffer"
        );
        assert_eq!(snap.prefetch_completed, snap.prefetch_issued);
        fs.unmount().unwrap();
        (res, buf, snap, be)
    }

    #[test]
    fn corrupt_async_fills_surface_integrity_errors_never_bytes() {
        let (res, buf, snap, be) = read_async_faulty(crate::backend::FailureMode::CorruptReads(1));
        assert!(
            matches!(res, Err(CrfsError::IntegrityError { .. })),
            "{res:?}"
        );
        assert!(
            buf.iter().all(|&b| b == 0),
            "unverified bytes reached the reader"
        );
        // Every fill took the async path, was corrupted there, failed
        // verification and was retired as a wasted prefetch.
        assert_eq!(snap.prefetch_issued, 12);
        assert_eq!(snap.prefetch_wasted, 12);
        assert!(
            be.reads_corrupted() >= 13,
            "12 fills + the reader's own read"
        );
    }

    #[test]
    fn a_failed_read_completion_retires_the_fill_and_the_reader_reports_it() {
        let (res, _, snap, _) = read_async_faulty(crate::backend::FailureMode::FailReadsAfter(0));
        let err = res.unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(!matches!(err, CrfsError::IntegrityError { .. }));
        assert_eq!((snap.prefetch_issued, snap.prefetch_wasted), (12, 12));
    }

    // ------------------------------------------------------------------
    // Demand-first reads and the window that follows the store
    // ------------------------------------------------------------------

    /// Reads `len` bytes at 0 of a one-chunk file, framed or raw, over a
    /// synchronous gate that holds whole-chunk reads (the fill) and lets
    /// shorter ones pass. Returns whether that read came back within
    /// `patience` with the fill still held, and the mount's stats once
    /// the gate has opened and the rest of the chunk has been read.
    fn first_read_beside_a_held_fill(
        framed: bool,
        len: usize,
        patience: std::time::Duration,
    ) -> (bool, StatsSnapshot) {
        let (mem, gate) = (Arc::new(MemBackend::new()), Gate::default());
        let be = GatedBackend {
            inner: Arc::clone(&mem),
            gate: Arc::clone(&gate),
            asynchronous: false,
        };
        let codec = if framed {
            crate::CodecKind::Identity
        } else {
            crate::CodecKind::None
        };
        let config = gated_config().with_codec(codec).with_obs(true);
        let chunk = &twelve_chunks()[..1024];
        let (fs, f) = mount_written(&mem, be, &gate, config, chunk);
        gate.0.lock().gate_reads_from = 1024;
        let (tx, rx) = std::sync::mpsc::channel();
        let early = std::thread::scope(|s| {
            s.spawn(|| {
                let mut buf = vec![0u8; len];
                let n = f.read_at(0, &mut buf).unwrap();
                tx.send((n, buf)).unwrap();
            });
            let returned = rx.recv_timeout(patience).ok();
            let held = fs.stats().prefetch_completed == 0;
            gate.0.lock().open = true;
            gate.1.notify_all();
            let early = returned.is_some() && held;
            let (n, buf) = returned.unwrap_or_else(|| {
                rx.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("the read never returned")
            });
            assert_eq!((n, &buf[..]), (len, &chunk[..len]));
            early
        });
        let mut rest = vec![0u8; 1024 - len];
        assert_eq!(f.read_at(len as u64, &mut rest).unwrap(), rest.len());
        assert_eq!(rest, chunk[len..]);
        f.close().unwrap();
        let snap = fs.stats();
        fs.unmount().unwrap();
        (early, snap)
    }

    #[test]
    fn a_short_raw_first_read_returns_beside_its_held_fill() {
        let (early, snap) =
            first_read_beside_a_held_fill(false, 1, std::time::Duration::from_secs(10));
        assert!(early, "the 1-byte read waited for chunk 0's fill");
        // The fill carried on and served the rest of the chunk.
        assert_eq!(
            (snap.read_demand, snap.read_misses, snap.read_hits),
            (1, 0, 1)
        );
        assert_eq!((snap.prefetch_issued, snap.prefetch_wasted), (1, 0));
    }

    #[test]
    fn a_framed_first_read_waits_and_decodes_its_frame_once() {
        let (early, snap) =
            first_read_beside_a_held_fill(true, 1, std::time::Duration::from_millis(100));
        assert!(!early, "a framed read came back before its fill");
        assert_eq!(
            (snap.read_demand, snap.read_misses, snap.read_hits),
            (0, 0, 2)
        );
        assert_eq!(snap.stages.transform_decode.count, 1);
    }

    #[test]
    fn a_whole_chunk_raw_read_waits_for_its_fill() {
        let (early, snap) =
            first_read_beside_a_held_fill(false, 1024, std::time::Duration::from_millis(100));
        assert!(!early, "a whole-chunk read came back before its fill");
        assert_eq!(
            (snap.read_demand, snap.read_misses, snap.read_hits),
            (0, 0, 1)
        );
    }

    /// Streams a 64-chunk framed file through `be` in one-chunk reads
    /// while every held asynchronous fill is released once a
    /// millisecond, checks the bytes, and returns the mount's stats.
    fn stream_64_chunks<B: Backend>(mem: &Arc<MemBackend>, be: B, gate: &Gate) -> StatsSnapshot {
        let data: Vec<u8> = (0..64 * 1024)
            .map(|i| (i / 1024 * 37 + i % 251) as u8)
            .collect();
        let config = gated_config().with_codec(crate::CodecKind::Identity);
        let (fs, f) = mount_written(mem, be, gate, config, &data);
        // The reader's own reads never wait on the gate; fills do.
        gate.0.lock().gate_reads_from = usize::MAX;
        let got = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut got = vec![0u8; data.len()];
                for (k, chunk) in got.chunks_mut(1024).enumerate() {
                    assert_eq!(f.read_at(k as u64 * 1024, chunk).unwrap(), 1024);
                }
                got
            });
            while !reader.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(1));
                release_held(gate);
            }
            reader.join().unwrap()
        });
        assert!(got == data, "a fill installed the wrong bytes");
        release_held(gate);
        f.close().unwrap();
        let snap = fs.stats();
        fs.unmount().unwrap();
        snap
    }

    #[test]
    fn the_window_deepens_to_half_the_pool_only_over_an_async_store() {
        let (mem, gate) = (Arc::new(MemBackend::new()), Gate::default());
        let be = GatedBackend {
            inner: Arc::clone(&mem),
            gate: Arc::clone(&gate),
            asynchronous: true,
        };
        let config = gated_config();
        assert_eq!(config.resolved_read_window_max(), config.pool_chunks() / 2);
        let snap = stream_64_chunks(&mem, be, &gate);
        assert_eq!(snap.read_window_max, 16, "32-chunk pool: window of 16");
        let mem = Arc::new(MemBackend::new());
        let snap = stream_64_chunks(&mem, Arc::clone(&mem), &gate);
        assert_eq!(
            snap.read_window_max, config.read_ahead_chunks as u64,
            "a synchronous store keeps the initial window"
        );
    }
}
