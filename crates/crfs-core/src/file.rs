//! Open-file table entries and per-file chunk accounting.
//!
//! The paper (§IV-A/B/C): CRFS keeps a hash table of opened files; each
//! entry carries a reference count, the file's current buffer chunk, and
//! two counters — the "write chunk count" (chunks enqueued) and the
//! "complete chunk count" (chunks the IO threads finished). `close()` and
//! `fsync()` block until the counters match.
//!
//! The ledger is the pure [`ChunkAccounting`] value the simulator runs,
//! plus a count of parked barrier waiters, both under the mutex the
//! barrier's condvar waits on. A completion notifies only when a waiter
//! is parked and the barrier may pass.

use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backend::BackendFile;
use crate::chunking::ChunkState;
use crate::engine::account::ChunkAccounting;

/// Per-file seal/complete ledger with a blocking barrier on top: the
/// accounting and the number of parked barrier waiters, under the
/// mutex `cv` waits on.
#[derive(Default)]
struct Ledger {
    state: Mutex<(ChunkAccounting, usize)>,
    cv: Condvar,
}

/// A file's current aggregation chunk: a pool buffer plus its placement.
pub struct CurrentChunk {
    /// Buffer borrowed from the [`BufferPool`](crate::pool::BufferPool).
    pub buf: crate::pool::ChunkBuf,
    /// Placement and fill level.
    pub state: ChunkState,
}

/// One open file: shared by every handle opened on the same path.
pub struct FileEntry {
    /// Normalized path within the mount, interned once at open: the
    /// sharded file table keys by the same `Arc<str>`, and deferred-write
    /// errors carry a clone of it, so the hot path never copies the
    /// string.
    pub path: Arc<str>,
    /// The backend file all chunk writes target.
    pub file: Box<dyn BackendFile>,
    /// Number of live handles (paper: "reference counter in its table
    /// entry").
    pub refcount: AtomicUsize,
    /// The file's current (partial) chunk, if any.
    pub chunk: Mutex<Option<CurrentChunk>>,
    /// Highest byte offset written through CRFS (pending or completed),
    /// so `len()` can account for not-yet-flushed data.
    pub max_extent: AtomicU64,
    /// Lowest byte offset written through this entry since it was opened
    /// (`u64::MAX` while untouched). Reads below this point can skip the
    /// read-after-write flush barrier entirely — the overlap check the
    /// read path uses instead of flushing the whole file on every read.
    /// Monotone non-increasing (never reset mid-session, so it can only
    /// be pessimistic, never stale).
    pub dirty_low: AtomicU64,
    /// Read cache + prefetch ledger; present when the mount's
    /// `read_ahead_chunks` is non-zero.
    pub read_state: Option<Arc<crate::prefetch::ReadState>>,
    /// Chunk transform state (frame map + stored-space allocator);
    /// present when the mount runs a codec AND this file's stored
    /// layout is framed (new files always; pre-existing raw files stay
    /// raw and pass through untransformed).
    pub transform: Option<Arc<crate::transform::FileTransform>>,
    /// `Some(epoch)` marks a read-only snapshot restart view (see
    /// `Crfs::open_restart`): writes and truncation are rejected, and
    /// closing the last handle releases the epoch's pin.
    pub snapshot_epoch: Option<u64>,
    /// Flight-recorder name tag, interned lazily on this entry's first
    /// event (0 = not interned yet) so per-chunk events skip the hash
    /// and name-table lock — see `FlightRecorder::record_cached`.
    pub flight_tag: AtomicU64,
    ledger: Ledger,
}

impl FileEntry {
    /// Creates an entry with refcount 1 and no pending chunks.
    pub fn new(path: impl Into<Arc<str>>, file: Box<dyn BackendFile>) -> FileEntry {
        FileEntry::with_transform(path, file, None, None)
    }

    /// Full constructor: an optional read cache/prefetch state (mounts
    /// with `read_ahead_chunks > 0`) and the chunk transform state. A
    /// transformed entry's logical length comes from its frame map, not
    /// the backend file size (stored ≠ logical bytes).
    pub fn with_transform(
        path: impl Into<Arc<str>>,
        file: Box<dyn BackendFile>,
        read_state: Option<Arc<crate::prefetch::ReadState>>,
        transform: Option<Arc<crate::transform::FileTransform>>,
    ) -> FileEntry {
        let initial_len = match &transform {
            Some(t) => t.logical_len(),
            None => file.len().unwrap_or(0),
        };
        FileEntry {
            path: path.into(),
            file,
            refcount: AtomicUsize::new(1),
            chunk: Mutex::new(None),
            max_extent: AtomicU64::new(initial_len),
            dirty_low: AtomicU64::new(u64::MAX),
            read_state,
            transform,
            snapshot_epoch: None,
            flight_tag: AtomicU64::new(0),
            ledger: Ledger::default(),
        }
    }

    /// Reads logical bytes from the backend: through the transform
    /// stage (frame resolution, decode, **integrity verification**) on
    /// transformed entries, straight through otherwise. Every consumer
    /// of backend bytes — direct reads, prefetch fills — goes through
    /// here, so no read path can skip verification.
    pub fn read_backend(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        match &self.transform {
            Some(t) => t.read_logical(&*self.file, &self.path, offset, buf),
            None => self.file.read_at(offset, buf),
        }
    }

    /// [`read_backend`](Self::read_backend) into a buffer the caller owns
    /// and discards on error — a prefetch fill's cache slot — which lets
    /// a transformed entry decode whole frames in place (see
    /// [`FileTransform::fill_logical`](crate::transform::FileTransform::fill_logical)).
    /// Verification is the same.
    pub fn fill_backend(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        match &self.transform {
            Some(t) => t.fill_logical(&*self.file, &self.path, offset, buf),
            None => self.file.read_at(offset, buf),
        }
    }

    /// Registers a chunk as enqueued (bumps the write chunk count).
    pub fn note_sealed(&self) {
        self.ledger.state.lock().0.note_sealed();
    }

    /// Registers a chunk as finished by an IO worker, recording the first
    /// error if the backend write failed, and wakes a parked barrier
    /// waiter once nothing is outstanding.
    pub fn note_completed(&self, result: io::Result<()>) {
        let mut g = self.ledger.state.lock();
        g.0.note_completed(result);
        let wake = g.1 > 0 && g.0.is_quiescent();
        drop(g);
        if wake {
            self.ledger.cv.notify_all();
        }
    }

    /// Blocks until every sealed chunk has completed, then reports the
    /// sticky asynchronous error, if any. Returns the time spent blocked.
    pub fn wait_outstanding(&self) -> (Duration, Option<io::Error>) {
        let mut g = self.ledger.state.lock();
        if g.0.is_quiescent() {
            return (Duration::ZERO, g.0.error());
        }
        let t0 = Instant::now();
        g.1 += 1;
        while !g.0.is_quiescent() {
            self.ledger.cv.wait(&mut g);
        }
        g.1 -= 1;
        (t0.elapsed(), g.0.error())
    }

    /// Logical file length: the larger of the stored length (frame map
    /// for transformed entries, backend length otherwise) and the
    /// highest offset written through CRFS.
    pub fn logical_len(&self) -> io::Result<u64> {
        let stored = match &self.transform {
            Some(t) => t.logical_len(),
            None => self.file.len()?,
        };
        Ok(stored.max(self.max_extent.load(Relaxed)))
    }
}

impl std::fmt::Debug for FileEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.ledger.state.lock();
        f.debug_struct("FileEntry")
            .field("path", &self.path)
            .field("refcount", &self.refcount.load(Relaxed))
            .field("sealed", &g.0.sealed())
            .field("completed", &g.0.completed())
            .field("has_error", &g.0.error().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemBackend, OpenOptions};
    use std::sync::Arc;

    fn entry() -> Arc<FileEntry> {
        let be = MemBackend::new();
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        Arc::new(FileEntry::new("/t", f))
    }

    #[test]
    fn barrier_waits_for_completion() {
        let e = entry();
        e.note_sealed();
        e.note_sealed();
        assert_eq!(e.ledger.state.lock().0.outstanding(), 2);

        let e2 = Arc::clone(&e);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            e2.note_completed(Ok(()));
            std::thread::sleep(Duration::from_millis(20));
            e2.note_completed(Ok(()));
        });
        let (waited, err) = e.wait_outstanding();
        h.join().unwrap();
        assert!(err.is_none());
        assert!(waited >= Duration::from_millis(20));
        assert_eq!(e.ledger.state.lock().0.outstanding(), 0);
    }

    #[test]
    fn first_async_error_is_sticky() {
        let e = entry();
        e.note_sealed();
        e.note_sealed();
        e.note_completed(Err(io::Error::other("first")));
        e.note_completed(Err(io::Error::other("second")));
        let (_, err) = e.wait_outstanding();
        assert!(err.unwrap().to_string().contains("first"));
        // Still reported on the next barrier.
        assert!(e
            .ledger
            .state
            .lock()
            .0
            .error()
            .unwrap()
            .to_string()
            .contains("first"));
    }

    #[test]
    fn wait_with_nothing_outstanding_is_instant() {
        let e = entry();
        let (waited, err) = e.wait_outstanding();
        assert_eq!(waited, Duration::ZERO);
        assert!(err.is_none());
    }

    #[test]
    fn barrier_survives_many_concurrent_completers() {
        // The ledger's parked-waiter protocol under churn: many
        // threads completing while one waits; the barrier must neither
        // hang nor pass early.
        let e = entry();
        const CHUNKS: u64 = 600;
        for _ in 0..CHUNKS {
            e.note_sealed();
        }
        let mut workers = Vec::new();
        for w in 0..3 {
            let e = Arc::clone(&e);
            workers.push(std::thread::spawn(move || {
                for _ in 0..CHUNKS / 3 {
                    e.note_completed(Ok(()));
                    if w == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let (_, err) = e.wait_outstanding();
        assert!(err.is_none());
        assert_eq!(e.ledger.state.lock().0.outstanding(), 0);
        for h in workers {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_parked_barrier_waiter_wakes_on_the_balancing_completion() {
        let e = entry();
        e.note_sealed();
        e.note_sealed();
        let late = Duration::from_secs(10);
        // Whether `parked` waiters are parked within ten seconds.
        let parked = |parked: usize| {
            let deadline = Instant::now() + late;
            while e.ledger.state.lock().1 != parked {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        };
        let (done, passed) = std::sync::mpsc::channel();
        let seen = std::thread::scope(|s| {
            s.spawn(|| done.send(e.wait_outstanding().1.is_none()).unwrap());
            let idle = parked(1);
            // Not the balancing one: the waiter stays parked.
            e.note_completed(Ok(()));
            let early = passed.recv_timeout(Duration::from_millis(50)).is_ok();
            let idle_again = parked(1);
            e.note_completed(Ok(()));
            let woke = passed.recv_timeout(late);
            // Whatever was seen, let a waiter left parked see the end.
            drop(e.ledger.state.lock());
            e.ledger.cv.notify_all();
            (idle, early, idle_again, woke)
        });
        let (idle, early, idle_again, woke) = seen;
        assert!(idle && idle_again, "the waiter never parked");
        assert!(!early, "the barrier passed with a chunk outstanding");
        assert_eq!(woke, Ok(true), "the balancing completion left it parked");
        assert_eq!(e.ledger.state.lock().1, 0);
    }

    #[test]
    fn logical_len_tracks_pending_extent() {
        let e = entry();
        assert_eq!(e.logical_len().unwrap(), 0);
        e.max_extent.fetch_max(4096, Relaxed);
        assert_eq!(e.logical_len().unwrap(), 4096);
    }
}
