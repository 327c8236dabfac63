//! The mount-wide buffer pool.
//!
//! At mount time the pool is carved into `pool_size / chunk_size` equally
//! sized buffers (paper §IV-B). Writers block on [`BufferPool::acquire`]
//! when every chunk is in flight — this back-pressure, together with the
//! bounded IO-thread count, is CRFS's *IO throttling*. IO workers return
//! buffers with [`BufferPool::release`] after writing them out.
//!
//! ## Contention structure
//!
//! The free list is split into power-of-two **shards**, each a bounded
//! lock-free MPMC ring (the crate's `ring` module): the hot
//! acquire/release path is a couple of atomic CAS/stores and never takes
//! a lock, so writer threads and IO workers do not convoy on a free-list
//! `Mutex`. A `Mutex` + `Condvar` pair exists purely as the **empty slow
//! path**: a writer that finds every shard empty parks on it until a
//! release (or `close`) wakes it.
//!
//! ## Parking
//!
//! The protocol is the engine's (`engine/ring.rs`, "Parking"). A waker
//! changes the condition first — pushes the buffer, or stores `closed`
//! — then takes and drops `gate` and notifies, **unconditionally**; a
//! waiter re-checks the condition (`closed`, then every shard) *under
//! the gate* and only then waits. Either the waker's pass through the
//! gate comes first, so its change happens-before the check, which sees
//! it; or the waiter holds the gate, the waker's lock blocks until the
//! wait releases it, and the notify finds the waiter parked. No wait is
//! timed. A notify conditional on a waiter count read *outside* the
//! gate would reopen the race the gate closes (each side could miss the
//! other's store); `waiters` is only the hint
//! [`BufferPool::has_waiters`] gives the read cache. The cost is one
//! uncontended lock and one notify per released chunk.
//!
//! ## Alignment
//!
//! Every buffer is a [`ChunkBuf`]: `chunk_size` bytes starting on a
//! [`CHUNK_ALIGN`] boundary, so a sealed chunk *is* an `O_DIRECT`-capable
//! IO buffer and the local backend writes it in place — the paper's one
//! copy, user bytes → pool chunk. It is a plain `vec![0u8; len + 4095]`
//! plus the offset of the first aligned byte: 4 KiB of slack per chunk
//! buys alignment with no hand-written allocation, and the `Vec` frees
//! itself with the layout it was allocated with. `vec![0u8; n]` is
//! `calloc`: chunk-sized requests map fresh zero pages and touch none, so
//! **mount does not fault the pool in** — a page becomes resident when a
//! writer first fills it (an over-aligned `alloc_zeroed` memsets the
//! whole pool at mount; `raw_aggregate` `recover_s` showed it).

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{
    AtomicBool, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};
use std::time::{Duration, Instant};

use crate::ring::{CachePadded, Ring};

/// Alignment of every [`ChunkBuf`]: one page / logical block, the
/// strictest thing `O_DIRECT` asks of a buffer address here.
pub const CHUNK_ALIGN: usize = 4096;

/// An owned, zeroed byte buffer whose first byte sits on a
/// [`CHUNK_ALIGN`] boundary; derefs to exactly the `len` bytes asked for.
/// See the module docs, "Alignment".
pub struct ChunkBuf {
    /// `len + CHUNK_ALIGN - 1` zero-initialised bytes.
    raw: Vec<u8>,
    /// Offset of the first aligned byte of `raw`.
    start: usize,
    len: usize,
}

impl ChunkBuf {
    /// A zeroed, aligned buffer of `len` bytes.
    pub fn new(len: usize) -> ChunkBuf {
        let raw = vec![0u8; len + CHUNK_ALIGN - 1];
        let start = (raw.as_ptr() as usize).wrapping_neg() % CHUNK_ALIGN;
        ChunkBuf { raw, start, len }
    }
}

impl std::ops::Deref for ChunkBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.raw[self.start..self.start + self.len]
    }
}

impl std::ops::DerefMut for ChunkBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.raw[self.start..self.start + self.len]
    }
}

/// Fixed-size pool of reusable chunk buffers.
pub struct BufferPool {
    /// Free-list shards. Each ring's capacity is twice the pool's buffer
    /// count, so a release fits wherever round-robin points it.
    shards: Box<[Ring<ChunkBuf>]>,
    shard_mask: usize,
    /// Round-robin start points spreading acquires and releases across
    /// shards, each on its own cache line so producers and consumers
    /// don't bounce a shared line on every operation.
    acquire_cursor: CachePadded<AtomicUsize>,
    release_cursor: CachePadded<AtomicUsize>,
    /// Empty-slow-path parking (see the module docs, "Parking"). An
    /// acquire that finds a buffer never touches it.
    gate: Mutex<()>,
    cv: Condvar,
    /// Writers parked on the empty pool — a hint for
    /// [`has_waiters`](Self::has_waiters) only; no wakeup depends on it.
    waiters: AtomicUsize,
    chunk_size: usize,
    total_chunks: usize,
    closed: AtomicBool,
    /// Occupancy gauge (buffers currently free), cache-line padded —
    /// it is touched by every acquire and release. Exact whenever the
    /// pool is quiescent; transiently approximate under concurrent
    /// churn.
    free_count: CachePadded<AtomicUsize>,
}

impl BufferPool {
    /// Creates a pool of `total_chunks` buffers of `chunk_size` bytes
    /// each with an automatically sized shard count. All buffers are
    /// allocated up front, like the paper's mount-time pool — zeroed and
    /// [`CHUNK_ALIGN`]-aligned, their pages untouched until first use.
    pub fn new(chunk_size: usize, total_chunks: usize) -> BufferPool {
        let auto = (total_chunks / 4).max(1).next_power_of_two().min(16);
        BufferPool::with_shards(chunk_size, total_chunks, auto)
    }

    /// Creates a pool with an explicit shard count (rounded up to a
    /// power of two, capped at `total_chunks`).
    pub fn with_shards(chunk_size: usize, total_chunks: usize, shards: usize) -> BufferPool {
        assert!(chunk_size > 0 && total_chunks > 0);
        let n = shards
            .max(1)
            .next_power_of_two()
            .min(total_chunks.next_power_of_two());
        // Capacity = 2x total: every buffer fits in any one shard
        // (wherever round-robin points a release), with headroom for
        // slots transiently unavailable while a concurrent pop is
        // between its head-CAS and its sequence store.
        let rings: Box<[Ring<ChunkBuf>]> = (0..n).map(|_| Ring::new(total_chunks * 2)).collect();
        for i in 0..total_chunks {
            if rings[i & (n - 1)].push(ChunkBuf::new(chunk_size)).is_err() {
                unreachable!("fresh ring has room");
            }
        }
        BufferPool {
            shards: rings,
            shard_mask: n - 1,
            acquire_cursor: CachePadded(AtomicUsize::new(0)),
            release_cursor: CachePadded(AtomicUsize::new(0)),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
            chunk_size,
            total_chunks,
            closed: AtomicBool::new(false),
            free_count: CachePadded(AtomicUsize::new(total_chunks)),
        }
    }

    /// Size of each buffer.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Total buffers owned by the pool.
    pub fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Number of free-list shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Buffers currently free (occupancy gauge; exact at quiescence).
    pub fn free_chunks(&self) -> usize {
        self.free_count.0.load(Relaxed)
    }

    /// Whether any writer is currently parked on the empty pool — the
    /// read cache checks this before parking a prefetched buffer, so
    /// prefetching cannot starve the write side's back-pressure loop.
    pub fn has_waiters(&self) -> bool {
        self.waiters.load(Relaxed) > 0
    }

    /// Lock-free scan over all shards, starting at a rotating cursor.
    fn pop_any(&self) -> Option<ChunkBuf> {
        let start = self.acquire_cursor.0.fetch_add(1, Relaxed);
        for i in 0..self.shards.len() {
            if let Some(buf) = self.shards[(start + i) & self.shard_mask].pop() {
                self.free_count.0.fetch_sub(1, Relaxed);
                return Some(buf);
            }
        }
        None
    }

    /// Checks a returning buffer and pushes it onto the next shard.
    fn push_next(&self, buf: ChunkBuf) {
        assert_eq!(buf.len(), self.chunk_size, "released buffer has wrong size");
        let prev = self.free_count.0.fetch_add(1, Relaxed);
        assert!(
            prev < self.total_chunks,
            "pool over-released: more buffers than capacity"
        );
        let at = self.release_cursor.0.fetch_add(1, Relaxed) & self.shard_mask;
        self.shards[at].push_spin(buf);
    }

    /// Takes a free buffer, blocking until one is available.
    ///
    /// Returns the buffer and the time spent blocked (zero when a buffer
    /// was immediately available). Returns `None` once the pool is
    /// closed (unmount) — including when free buffers remain; a closed
    /// pool hands out nothing.
    pub fn acquire(&self) -> Option<(ChunkBuf, Duration)> {
        // Closed gate first: the fast path must not outrun `close()`.
        if self.closed.load(Acquire) {
            return None;
        }
        if let Some(buf) = self.pop_any() {
            return Some((buf, Duration::ZERO));
        }
        let t0 = Instant::now();
        self.waiters.fetch_add(1, Relaxed);
        let mut g = self.gate.lock();
        let got = loop {
            if self.closed.load(Acquire) {
                break None;
            }
            if let Some(buf) = self.pop_any() {
                break Some((buf, t0.elapsed()));
            }
            self.cv.wait(&mut g);
        };
        drop(g);
        self.waiters.fetch_sub(1, Relaxed);
        got
    }

    /// Non-blocking acquire. Returns `None` when the pool is empty *or*
    /// closed.
    pub fn try_acquire(&self) -> Option<ChunkBuf> {
        if self.closed.load(Acquire) {
            return None;
        }
        self.pop_any()
    }

    /// Returns a buffer to the pool, waking one blocked writer.
    ///
    /// Still accepted after [`close`](Self::close): IO workers recycle
    /// their in-flight buffers during unmount drain.
    ///
    /// # Panics
    /// Panics if the buffer does not have the pool's chunk size (a foreign
    /// or corrupted buffer) or if the pool would exceed its capacity.
    pub fn release(&self, buf: ChunkBuf) {
        self.push_next(buf);
        // Pass the gate so a waiter's check is either after the push or
        // already parked.
        drop(self.gate.lock());
        self.cv.notify_one();
    }

    /// Returns a whole batch of buffers under one pass through the gate
    /// — the IO workers' counterpart to batched submission.
    /// Semantically `release` per buffer; the wake happens once.
    pub fn release_many(&self, bufs: impl IntoIterator<Item = ChunkBuf>) {
        let mut released = 0usize;
        for buf in bufs {
            self.push_next(buf);
            released += 1;
        }
        if released > 0 {
            drop(self.gate.lock());
            self.cv.notify_all();
        }
    }

    /// Closes the pool: blocked and future `acquire`s return `None`.
    pub fn close(&self) {
        self.closed.store(true, Release);
        drop(self.gate.lock());
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("chunk_size", &self.chunk_size)
            .field("total_chunks", &self.total_chunks)
            .field("free_chunks", &self.free_chunks())
            .field("shards", &self.shards())
            .field("closed", &self.closed.load(Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn acquire_release_roundtrip() {
        let pool = BufferPool::new(1024, 2);
        assert_eq!(pool.free_chunks(), 2);
        let (a, w) = pool.acquire().unwrap();
        assert_eq!(a.len(), 1024);
        assert_eq!(w, Duration::ZERO);
        let (_b, _) = pool.acquire().unwrap();
        assert_eq!(pool.free_chunks(), 0);
        assert!(pool.try_acquire().is_none());
        pool.release(a);
        assert_eq!(pool.free_chunks(), 1);
    }

    #[test]
    fn exhausted_pool_blocks_until_release() {
        let pool = Arc::new(BufferPool::new(64, 1));
        let (buf, _) = pool.acquire().unwrap();
        let p2 = Arc::clone(&pool);
        let h = thread::spawn(move || {
            let (b, waited) = p2.acquire().unwrap();
            (b.len(), waited)
        });
        thread::sleep(Duration::from_millis(30));
        pool.release(buf);
        let (len, waited) = h.join().unwrap();
        assert_eq!(len, 64);
        assert!(waited >= Duration::from_millis(15), "waited {waited:?}");
    }

    #[test]
    fn close_unblocks_waiters() {
        let pool = Arc::new(BufferPool::new(64, 1));
        let (_held, _) = pool.acquire().unwrap();
        let p2 = Arc::clone(&pool);
        let h = thread::spawn(move || p2.acquire());
        thread::sleep(Duration::from_millis(20));
        pool.close();
        assert!(h.join().unwrap().is_none());
    }

    /// Regression (hot-path overhaul): the pre-overhaul fast path handed
    /// out buffers from a non-empty free list *after* `close()`, letting
    /// writes racing unmount sneak past the shutdown gate.
    #[test]
    fn closed_pool_refuses_even_with_free_buffers() {
        let pool = BufferPool::new(64, 4);
        assert_eq!(pool.free_chunks(), 4, "free list is non-empty");
        pool.close();
        assert!(pool.acquire().is_none(), "acquire must observe close");
        assert!(
            pool.try_acquire().is_none(),
            "try_acquire must observe close"
        );
        assert_eq!(pool.free_chunks(), 4, "no buffer escaped");
    }

    #[test]
    fn release_after_close_is_accepted() {
        let pool = BufferPool::new(64, 2);
        let (buf, _) = pool.acquire().unwrap();
        pool.close();
        pool.release(buf); // unmount drain returns in-flight buffers
        assert_eq!(pool.free_chunks(), 2);
        assert!(pool.acquire().is_none());
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn release_rejects_foreign_buffer() {
        let pool = BufferPool::new(64, 1);
        pool.release(ChunkBuf::new(65));
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn release_rejects_over_capacity() {
        let pool = BufferPool::new(64, 1);
        pool.release(ChunkBuf::new(64));
    }

    /// Every buffer the pool hands out — fresh, recycled one at a time or
    /// in a batch, or back from a trip through the read cache — starts
    /// on a `CHUNK_ALIGN` boundary and is exactly one chunk long.
    #[test]
    fn every_buffer_is_aligned_and_chunk_sized() {
        use crate::prefetch::{Consume, ReadState};
        use crate::stats::CrfsStats;
        for chunk_size in [64, 5_000, 64 << 10, 1 << 20, 4 << 20] {
            let pool = BufferPool::new(chunk_size, 4);
            let take_all = |blocking: bool| -> Vec<ChunkBuf> {
                let bufs: Vec<ChunkBuf> = (0..4)
                    .map(|i| {
                        if blocking && i % 2 == 0 {
                            pool.acquire().unwrap().0
                        } else {
                            pool.try_acquire().unwrap()
                        }
                    })
                    .collect();
                for b in &bufs {
                    assert_eq!(b.as_ptr() as usize % CHUNK_ALIGN, 0, "{chunk_size}");
                    assert_eq!(b.len(), chunk_size);
                }
                assert!(pool.try_acquire().is_none());
                bufs
            };
            // Fresh, then back one by one, then back as a batch.
            take_all(true).into_iter().for_each(|b| pool.release(b));
            pool.release_many(take_all(false));
            // Through the read cache: install, hit, evict.
            let (stats, rs) = (CrfsStats::new(), ReadState::new(chunk_size, 2, 4));
            for (idx, buf) in take_all(true).into_iter().enumerate() {
                let gen = rs.begin(idx as u64, &pool, &stats).unwrap();
                rs.note_issued(1);
                rs.install(idx as u64, gen, buf, chunk_size, &pool, &stats);
                let hit = rs.try_consume(idx as u64, 0, &mut [0u8; 8], &pool, &stats);
                assert!(matches!(hit, Consume::Hit(8)));
            }
            assert_eq!(pool.free_chunks(), 0, "the cache holds all four");
            rs.evict_ready(&pool, &stats);
            take_all(false).into_iter().for_each(|b| pool.release(b));
            assert_eq!(pool.free_chunks(), 4);
        }
    }

    #[test]
    fn concurrent_churn_conserves_buffers() {
        for shards in [1usize, 2, 8] {
            let pool = Arc::new(BufferPool::with_shards(256, 4, shards));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                handles.push(thread::spawn(move || {
                    for _ in 0..200 {
                        let (buf, _) = pool.acquire().unwrap();
                        pool.release(buf);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(pool.free_chunks(), 4, "{shards} shards");
        }
    }

    #[test]
    fn contended_exhaustion_hands_every_buffer_back() {
        // More writers than buffers: the empty slow path must park and
        // resume without losing or duplicating buffers.
        let pool = Arc::new(BufferPool::with_shards(128, 2, 4));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let pool = Arc::clone(&pool);
            handles.push(thread::spawn(move || {
                for _ in 0..300 {
                    let (buf, _) = pool.acquire().unwrap();
                    pool.release(buf);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.free_chunks(), 2);
    }

    #[test]
    fn shard_count_resolution() {
        assert_eq!(BufferPool::with_shards(64, 4, 0).shards(), 1);
        assert_eq!(BufferPool::with_shards(64, 4, 3).shards(), 4);
        assert_eq!(BufferPool::with_shards(64, 2, 64).shards(), 2);
    }
}
