//! Ring engine: submission/completion rings over an in-flight
//! descriptor slab.
//!
//! Per-op state lives in a slab of `ring_depth` descriptors. Submitters
//! post descriptor indices onto a lock-free **submission ring**, a pool
//! of `io_threads` issue workers starts the backend ops, and a reaper
//! thread drains a **completion ring**, retiring descriptors in batches.
//! On a backend with an asynchronous write path
//! ([`BackendFile::begin_write_at`](crate::backend::BackendFile::begin_write_at))
//! an issue worker starts an op and immediately moves to the next —
//! in-flight ops scale with `ring_depth`, far past the thread count. On a
//! synchronous backend (`begin_write_at` returns `Ok(false)`) the issue
//! worker blocks in `write_at`, so at most `io_threads` backend writes
//! are in flight: the paper's §IV-B throttle.
//!
//! ## Descriptor lifecycle
//!
//! ```text
//! Free ──submit──▶ Queued ──issue──▶ Issuing ──┬─(sync / refused)──▶ Done
//!                                              └─(async accepted)─▶ InFlight
//! InFlight ──sink.complete──▶ Done ──reap──▶ Free
//! ```
//!
//! The issuer calls `begin_write_at` *without* holding the slot lock
//! (the backend may complete inline, re-entering the slot). Whoever
//! finishes second — issuer observing `CompletedEarly`, or sink
//! observing `InFlight` — publishes `Done` and pushes the completion;
//! the handshake makes inline completions (and `FaultyBackend`'s
//! completion-time failures) safe without recursion or deadlock.
//!
//! ## Parking
//!
//! Four positions block: a submitter on a full slab, an issue worker on
//! an empty submission ring, the reaper on an empty completion ring, and
//! `drain` on in-flight ops. Each has a gate `Mutex` + `Condvar`. The
//! rings themselves are lock-free, so a waker changes the condition
//! first and then takes and drops the gate before it notifies
//! ([`RingInner::wake`]); a waiter re-checks its condition *under the
//! gate* and only then waits. Either the waiter's check runs after the
//! waker's change and sees it, or the waiter already holds the gate, the
//! waker's lock blocks until the wait releases it, and the notify finds
//! the waiter parked. No wait is timed: an idle mount makes no wakeups.
//!
//! ## Backpressure and shutdown
//!
//! A full slab (no free descriptor) parks the submitter until a reap
//! frees a slot. Batch acceptance is *incremental*: each chunk of a
//! `submit_batch` acquires, fills and posts its own descriptor, so a
//! batch larger than the slab streams through it instead of deadlocking
//! on slots its own head holds. A shutdown racing mid-batch therefore
//! refuses only the not-yet-posted suffix (every chunk still completes
//! exactly once, and the caller still sees one `Unmounted`).
//!
//! Completions may arrive in any order, but every accepted op calls
//! `note_completed` exactly once after its buffer is back in the pool,
//! so a passed close/fsync barrier implies `pool_free == pool_total` at
//! quiescence.

use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use super::{
    dispatch_chunk, read_and_install, refuse, refuse_batch, refuse_reads, IoItem, ReadChunk,
    SealedChunk,
};
use crate::backend::CompletionSink;
use crate::error::{CrfsError, Result};
use crate::obs::EventKind;
use crate::pool::BufferPool;
use crate::ring::Ring;
use crate::stats::CrfsStats;

/// Most descriptors the reaper retires per pass — bounds the latency of
/// one reap batch while still amortizing the pool wakeup.
const REAP_BATCH: usize = 64;

/// Per-descriptor state. The `Issuing`/`CompletedEarly` pair implements
/// the who-finishes-second-publishes handshake for inline completions.
enum DescState {
    /// Available for a submitter.
    Free,
    /// Filled by a submitter, waiting on the submission ring.
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
    /// Completed, waiting on the completion ring for the reaper.
    Done {
        chunk: SealedChunk,
        res: io::Result<()>,
        stored: u64,
    },
}

struct RingInner {
    slots: Box<[Mutex<DescState>]>,
    /// Free descriptor indices (submitters pop). Like the two rings
    /// below, sized at twice the slab so a push can only fail while a
    /// concurrent pop is mid-flight; `push_spin` rides that out.
    free: Ring<usize>,
    /// Queued descriptor indices (issue workers pop).
    subq: Ring<usize>,
    /// Done descriptor indices (the reaper pops).
    compq: Ring<usize>,
    pool: Arc<BufferPool>,
    stats: Arc<CrfsStats>,
    /// Descriptors between submit-accept and slot-free; the drain and
    /// shutdown quiescence condition. SeqCst pairs the submit-side
    /// increment-then-check-closed with the shutdown-side
    /// store-closed-then-drain (a store-buffer race either refuses the
    /// submit or makes the drain wait for it — never neither).
    inflight: AtomicUsize,
    /// Refuses new submissions (set first by shutdown).
    closed: AtomicBool,
    /// Tells issue/reap workers to exit once their ring is empty (set
    /// by shutdown only after the slab drained).
    stopping: AtomicBool,
    submit_gate: Mutex<()>,
    submit_cv: Condvar,
    issue_gate: Mutex<()>,
    issue_cv: Condvar,
    reap_gate: Mutex<()>,
    reap_cv: Condvar,
    quiet_gate: Mutex<()>,
    quiet_cv: Condvar,
}

impl RingInner {
    /// Serialized notify: called after the condition changed; taking and
    /// dropping the gate orders the notify after any waiter that checked
    /// the old condition has parked (see the module docs, "Parking").
    fn wake(gate: &Mutex<()>, cv: &Condvar, all: bool) {
        drop(gate.lock());
        if all {
            cv.notify_all();
        } else {
            cv.notify_one();
        }
    }

    /// Decrements the in-flight descriptor count, waking quiescence
    /// waiters at zero.
    fn retire_inflight(&self, n: usize) {
        if self.inflight.fetch_sub(n, SeqCst) == n {
            Self::wake(&self.quiet_gate, &self.quiet_cv, true);
        }
    }

    /// Acquires a free descriptor, fills it with `item` and posts it on
    /// the submission ring. Returns the item if the engine closed
    /// (including while parked on a full slab).
    fn submit_one(&self, item: IoItem) -> std::result::Result<(), IoItem> {
        // Reserve before the closed check: shutdown stores `closed`
        // (SeqCst) and then reads `inflight` (SeqCst) in its drain, so
        // either we see closed here and back out, or the drain sees our
        // reservation and waits for this op.
        self.inflight.fetch_add(1, SeqCst);
        if self.closed.load(SeqCst) {
            self.retire_inflight(1);
            return Err(item);
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                // Full slab: park until a reap frees a descriptor.
                let mut g = self.submit_gate.lock();
                loop {
                    if let Some(idx) = self.free.pop() {
                        break idx;
                    }
                    if self.closed.load(SeqCst) {
                        drop(g);
                        self.retire_inflight(1);
                        return Err(item);
                    }
                    self.submit_cv.wait(&mut g);
                }
            }
        };
        *self.slots[idx].lock() = DescState::Queued(item);
        self.subq.push_spin(idx);
        Self::wake(&self.issue_gate, &self.issue_cv, false);
        Ok(())
    }

    /// Publishes a finished op on the completion ring and wakes the
    /// reaper.
    fn push_completion(&self, idx: usize) {
        self.compq.push_spin(idx);
        Self::wake(&self.reap_gate, &self.reap_cv, false);
    }

    /// Frees a descriptor that bypassed the completion ring (prefetch
    /// reads retire inline at issue).
    fn release_slot(&self, idx: usize) {
        *self.slots[idx].lock() = DescState::Free;
        self.free.push_spin(idx);
        Self::wake(&self.submit_gate, &self.submit_cv, false);
        self.retire_inflight(1);
    }

    /// Issues one queued op. Raw writes try the backend's asynchronous
    /// path first; transformed writes and the synchronous fallback run
    /// `dispatch_chunk` in this worker, which blocks for the write.
    fn issue_one(self: &Arc<Self>, idx: usize, sink: &Arc<dyn CompletionSink>) {
        let item = {
            let mut slot = self.slots[idx].lock();
            match std::mem::replace(&mut *slot, DescState::Issuing) {
                DescState::Queued(item) => item,
                other => {
                    *slot = other;
                    return;
                }
            }
        };
        match item {
            IoItem::Read(chunk) => {
                read_and_install(&self.stats, &self.pool, chunk);
                self.release_slot(idx);
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
                        self.push_completion(idx);
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

    /// Publishes the result of a synchronously finished write.
    fn finish_issuing(&self, idx: usize, chunk: SealedChunk, res: io::Result<()>, stored: u64) {
        {
            let mut slot = self.slots[idx].lock();
            debug_assert!(matches!(*slot, DescState::Issuing));
            *slot = DescState::Done { chunk, res, stored };
        }
        self.push_completion(idx);
    }

    /// Retires up to [`REAP_BATCH`] completed descriptors — stats, buffer
    /// recycling, ledger completion — then recycles the descriptors.
    fn reap(&self, idxs: Vec<usize>) {
        let mut bufs = Vec::with_capacity(idxs.len());
        let mut completions = Vec::with_capacity(idxs.len());
        let mut ok_bytes = 0u64;
        for &idx in &idxs {
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
                _ => unreachable!("completion ring carried a non-Done descriptor"),
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
        for idx in idxs {
            self.free.push_spin(idx);
        }
        Self::wake(&self.submit_gate, &self.submit_cv, true);
        self.retire_inflight(n);
    }

    /// Pops the next index off `ring`, parking on `gate` while it is
    /// empty. `None` once the engine is stopping and the ring is empty.
    fn pop_or_park(&self, ring: &Ring<usize>, gate: &Mutex<()>, cv: &Condvar) -> Option<usize> {
        if let Some(idx) = ring.pop() {
            return Some(idx);
        }
        let mut g = gate.lock();
        loop {
            if let Some(idx) = ring.pop() {
                return Some(idx);
            }
            if self.stopping.load(SeqCst) {
                return None;
            }
            cv.wait(&mut g);
        }
    }

    fn issue_loop(self: Arc<Self>, sink: Arc<dyn CompletionSink>) {
        while let Some(idx) = self.pop_or_park(&self.subq, &self.issue_gate, &self.issue_cv) {
            self.issue_one(idx, &sink);
        }
    }

    fn reap_loop(self: Arc<Self>) {
        while let Some(first) = self.pop_or_park(&self.compq, &self.reap_gate, &self.reap_cv) {
            let mut idxs = vec![first];
            while idxs.len() < REAP_BATCH {
                match self.compq.pop() {
                    Some(idx) => idxs.push(idx),
                    None => break,
                }
            }
            self.reap(idxs);
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
                self.push_completion(idx);
            }
            DescState::Issuing => {
                // Inline completion: the issuer is still between its
                // begin_write_at call and its re-lock; leave the result
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
            free: Ring::new(depth * 2),
            subq: Ring::new(depth * 2),
            compq: Ring::new(depth * 2),
            pool: Arc::clone(&pool),
            stats: Arc::clone(&stats),
            inflight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            submit_gate: Mutex::new(()),
            submit_cv: Condvar::new(),
            issue_gate: Mutex::new(()),
            issue_cv: Condvar::new(),
            reap_gate: Mutex::new(()),
            reap_cv: Condvar::new(),
            quiet_gate: Mutex::new(()),
            quiet_cv: Condvar::new(),
        });
        for idx in 0..depth {
            inner.free.push_spin(idx);
        }
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
        let mut g = self.inner.quiet_gate.lock();
        while self.inner.inflight.load(SeqCst) != 0 {
            self.inner.quiet_cv.wait(&mut g);
        }
    }

    /// Stops the engine: refuses new submissions, waits out everything
    /// accepted (including ops parked in backends' asynchronous paths),
    /// then stops and joins the workers. Idempotent and safe to call
    /// concurrently: a second call finds the flags set and the handle
    /// list empty.
    pub fn shutdown(&self) {
        self.inner.closed.store(true, SeqCst);
        // A submitter parked on a full slab backs out on `closed`.
        RingInner::wake(&self.inner.submit_gate, &self.inner.submit_cv, true);
        self.drain();
        self.inner.stopping.store(true, SeqCst);
        RingInner::wake(&self.inner.issue_gate, &self.inner.issue_cv, true);
        RingInner::wake(&self.inner.reap_gate, &self.inner.reap_cv, true);
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
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read_at(offset, buf)
        }
        fn sync(&self) -> io::Result<()> {
            self.inner.sync()
        }
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
        fn set_len(&self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }
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
    use crate::Crfs;

    #[derive(Default)]
    struct GateState {
        in_flight: usize,
        hwm: usize,
        open: bool,
        /// Accepted asynchronous writes awaiting their completion.
        held: Vec<(u64, Arc<dyn CompletionSink>)>,
    }

    impl GateState {
        fn enter(&mut self) {
            self.in_flight += 1;
            self.hwm = self.hwm.max(self.in_flight);
        }
    }

    type Gate = Arc<(Mutex<GateState>, Condvar)>;

    /// A backend whose writes stay in flight until the test lets them
    /// go, counting how many are in flight at once. Synchronous
    /// (`write_at` blocks on the gate) or asynchronous (`begin_write_at`
    /// accepts and parks the completion).
    struct GatedBackend {
        inner: MemBackend,
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

    impl BackendFile for GatedFile {
        fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
            let (state, changed) = &*self.gate;
            let mut st = state.lock();
            st.enter();
            changed.notify_all();
            while !st.open {
                changed.wait(&mut st);
            }
            drop(st);
            let res = self.inner.write_at(offset, data);
            state.lock().in_flight -= 1;
            res
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
            let (state, changed) = &*self.gate;
            let mut st = state.lock();
            st.enter();
            st.held.push((token, Arc::clone(sink)));
            changed.notify_all();
            Ok(true)
        }
        crate::forward_file_ops!(inner: read_at, sync, len, set_len);
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
            inner: MemBackend::new(),
            gate: Arc::clone(&gate),
            asynchronous,
        };
        let config = CrfsConfig::default()
            .with_chunk_size(1024)
            .with_pool_size(32 * 1024)
            .with_io_threads(3)
            .with_ring_depth(64);
        let fs = Crfs::mount(Arc::new(be), config).unwrap();
        let f = fs.create("/t").unwrap();
        f.write(&[7u8; 12 * 1024]).unwrap(); // seals 12 chunks = 4 x io_threads
        let (state, changed) = &*gate;
        let mut st = state.lock();
        while st.in_flight < want {
            assert!(
                !changed.wait_for(&mut st, std::time::Duration::from_secs(10)),
                "only {} of {want} writes reached the backend",
                st.in_flight
            );
        }
        drop(st);
        (fs, f, gate)
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
        let (state, _) = &*gate;
        let held = {
            let mut st = state.lock();
            assert_eq!(st.hwm, 12, "3 issue workers started all 12 writes");
            st.in_flight = 0;
            std::mem::take(&mut st.held)
        };
        for (token, sink) in held {
            sink.complete(token, Ok(()));
        }
        f.close().unwrap();
        assert_eq!(fs.stats().chunks_completed, 12);
        fs.unmount().unwrap();
    }
}
