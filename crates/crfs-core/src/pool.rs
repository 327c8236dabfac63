//! The mount-wide buffer pool.
//!
//! At mount time the pool is carved into `pool_size / chunk_size` equally
//! sized buffers (paper §IV-B). Writers block on [`BufferPool::acquire`]
//! when every chunk is in flight — this back-pressure, together with the
//! bounded IO-thread count, is CRFS's *IO throttling*. IO workers return
//! buffers with [`BufferPool::release`] after writing them out.
//!
//! ## Free list
//!
//! The free buffers are one FIFO queue under a `Mutex`, and the one
//! `Condvar` a writer parks on waits on that same mutex: the check "is
//! a buffer free, or is the pool closed" and the wait share the lock, so
//! a release or `close` can never slip between them. Each of
//! [`acquire`](BufferPool::acquire), [`try_acquire`](BufferPool::try_acquire),
//! [`release`](BufferPool::release), [`release_many`](BufferPool::release_many)
//! and [`close`](BufferPool::close) is one critical section. A release
//! notifies only while a writer is parked (`waiters`, counted under the
//! lock), and no wait is timed. At ~1k chunks/s the lock is a few
//! thousand uncontended passes a second.
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
use std::collections::VecDeque;
use std::time::{Duration, Instant};

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
    free: Mutex<Free>,
    /// Writers parked on an empty pool wait here, on `free`'s lock.
    cv: Condvar,
    chunk_size: usize,
    total_chunks: usize,
}

/// What the pool's lock guards (see the module docs, "Free list").
struct Free {
    /// Free buffers, handed out oldest-released first.
    bufs: VecDeque<ChunkBuf>,
    closed: bool,
    /// Writers parked in [`BufferPool::acquire`].
    waiters: usize,
}

impl BufferPool {
    /// Creates a pool of `total_chunks` buffers of `chunk_size` bytes
    /// each. All buffers are allocated up front, like the paper's
    /// mount-time pool — zeroed and [`CHUNK_ALIGN`]-aligned, their pages
    /// untouched until first use.
    pub fn new(chunk_size: usize, total_chunks: usize) -> BufferPool {
        assert!(chunk_size > 0 && total_chunks > 0);
        let bufs = (0..total_chunks)
            .map(|_| ChunkBuf::new(chunk_size))
            .collect();
        BufferPool {
            free: Mutex::new(Free {
                bufs,
                closed: false,
                waiters: 0,
            }),
            cv: Condvar::new(),
            chunk_size,
            total_chunks,
        }
    }

    /// [`new`](Self::new): the pool has one free list, so `shards` is
    /// unused. Kept for `benchmark/src/probes.rs`, which still passes
    /// [`CrfsConfig::resolved_pool_shards`](crate::CrfsConfig::resolved_pool_shards).
    pub fn with_shards(chunk_size: usize, total_chunks: usize, _shards: usize) -> BufferPool {
        BufferPool::new(chunk_size, total_chunks)
    }

    /// Size of each buffer.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Total buffers owned by the pool.
    pub fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Buffers currently free.
    pub fn free_chunks(&self) -> usize {
        self.free.lock().bufs.len()
    }

    /// Whether any writer is currently parked on the empty pool — the
    /// read cache checks this before parking a prefetched buffer, so
    /// prefetching cannot starve the write side's back-pressure loop.
    pub fn has_waiters(&self) -> bool {
        self.free.lock().waiters > 0
    }

    /// Takes a free buffer, blocking until one is available.
    ///
    /// Returns the buffer and the time spent blocked (zero when a buffer
    /// was immediately available). Returns `None` once the pool is
    /// closed (unmount) — including when free buffers remain; a closed
    /// pool hands out nothing.
    pub fn acquire(&self) -> Option<(ChunkBuf, Duration)> {
        let mut free = self.free.lock();
        let mut waited = Duration::ZERO;
        if free.bufs.is_empty() && !free.closed {
            let t0 = Instant::now();
            free.waiters += 1;
            while free.bufs.is_empty() && !free.closed {
                self.cv.wait(&mut free);
            }
            free.waiters -= 1;
            waited = t0.elapsed();
        }
        if free.closed {
            return None;
        }
        free.bufs.pop_front().map(|buf| (buf, waited))
    }

    /// Non-blocking acquire. Returns `None` when the pool is empty *or*
    /// closed.
    pub fn try_acquire(&self) -> Option<ChunkBuf> {
        let mut free = self.free.lock();
        if free.closed {
            return None;
        }
        free.bufs.pop_front()
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
        let mut free = self.free.lock();
        self.put(&mut free, buf);
        let wake = free.waiters > 0;
        drop(free);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Returns a whole batch of buffers in one critical section — the
    /// IO workers' counterpart to batched submission. Semantically
    /// `release` per buffer; the wake happens once.
    pub fn release_many(&self, bufs: impl IntoIterator<Item = ChunkBuf>) {
        let mut free = self.free.lock();
        for buf in bufs {
            self.put(&mut free, buf);
        }
        let wake = free.waiters > 0;
        drop(free);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Checks a returning buffer and queues it.
    fn put(&self, free: &mut Free, buf: ChunkBuf) {
        assert_eq!(buf.len(), self.chunk_size, "released buffer has wrong size");
        assert!(
            free.bufs.len() < self.total_chunks,
            "pool over-released: more buffers than capacity"
        );
        free.bufs.push_back(buf);
    }

    /// Closes the pool: blocked and future `acquire`s return `None`.
    pub fn close(&self) {
        self.free.lock().closed = true;
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let free = self.free.lock();
        f.debug_struct("BufferPool")
            .field("chunk_size", &self.chunk_size)
            .field("total_chunks", &self.total_chunks)
            .field("free_chunks", &free.bufs.len())
            .field("closed", &free.closed)
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
        while !pool.has_waiters() {
            thread::yield_now();
        }
        pool.release(buf);
        let (len, waited) = h.join().unwrap();
        assert_eq!(len, 64);
        assert!(waited > Duration::ZERO, "a parked acquire reports its wait");
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
            let (stats, rs) = (CrfsStats::new(), ReadState::new(chunk_size, 2, 2, 4));
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
        let pool = Arc::new(BufferPool::new(256, 4));
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
        assert_eq!(pool.free_chunks(), 4);
    }

    #[test]
    fn contended_exhaustion_hands_every_buffer_back() {
        // More writers than buffers: the empty slow path must park and
        // resume without losing or duplicating buffers.
        let pool = Arc::new(BufferPool::new(128, 2));
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
}
