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

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{
    AtomicBool, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};
use std::time::{Duration, Instant};

use crate::ring::{CachePadded, Ring};

/// Fixed-size pool of reusable chunk buffers.
pub struct BufferPool {
    /// Free-list shards. Each ring's capacity is twice the pool's buffer
    /// count, so a release fits wherever round-robin points it.
    shards: Box<[Ring<Vec<u8>>]>,
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
    /// allocated (and zero-initialized) up front, like the paper's
    /// mount-time pool.
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
        let rings: Box<[Ring<Vec<u8>>]> = (0..n).map(|_| Ring::new(total_chunks * 2)).collect();
        for i in 0..total_chunks {
            if rings[i & (n - 1)].push(vec![0u8; chunk_size]).is_err() {
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
    fn pop_any(&self) -> Option<Vec<u8>> {
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
    fn push_next(&self, buf: Vec<u8>) {
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
    pub fn acquire(&self) -> Option<(Vec<u8>, Duration)> {
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
    pub fn try_acquire(&self) -> Option<Vec<u8>> {
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
    pub fn release(&self, buf: Vec<u8>) {
        self.push_next(buf);
        // Pass the gate so a waiter's check is either after the push or
        // already parked.
        drop(self.gate.lock());
        self.cv.notify_one();
    }

    /// Returns a whole batch of buffers under one pass through the gate
    /// — the IO workers' counterpart to batched submission.
    /// Semantically `release` per buffer; the wake happens once.
    pub fn release_many(&self, bufs: impl IntoIterator<Item = Vec<u8>>) {
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
        pool.release(vec![0; 65]);
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn release_rejects_over_capacity() {
        let pool = BufferPool::new(64, 1);
        pool.release(vec![0; 64]);
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
