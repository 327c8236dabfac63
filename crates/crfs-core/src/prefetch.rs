//! The restart read subsystem: per-file sequential-access detection,
//! chunk-granular read-ahead, and a [`BufferPool`]-backed read cache.
//!
//! The paper's read path (§IV-D1) passes every `read()` straight through
//! to the backend — fine while checkpointing, but a restart replays the
//! whole image as a cold sequential stream and pays full backend latency
//! per request. [`ReadState`] is the read-side twin of the write
//! aggregation pipeline:
//!
//! - Reads are served **chunk-granularly** from a small direct-mapped
//!   cache of pool buffers (one [`ReadState`] per open file, sized by
//!   `CrfsConfig::resolved_read_cache_slots`).
//! - When the access pattern is sequential, the next
//!   `read_ahead_chunks` chunks are fetched ahead of the reader through
//!   the mount's [`RingEngine`](crate::engine::RingEngine) — the same worker
//!   pool and batched submission path the write side uses — so backend
//!   read latency overlaps with the application's consumption.
//! - An **atomic issue/complete ledger** mirrors the write path's
//!   seal/complete design: issuing a prefetch bumps `issued`, the engine
//!   retires it exactly once (installed, discarded as stale, or refused
//!   at shutdown) bumping `completed`, and `ReadState::drain` parks on
//!   the pair exactly like the close/fsync barrier does. No prefetch can
//!   leak a pool buffer or wedge unmount.
//!
//! Coherence with the write path has two guards (see
//! [`Crfs`](crate::Crfs) for the orchestration): writes **invalidate**
//! overlapping cache slots (a per-slot generation counter kills
//! in-flight installs), and read-ahead covering a dirty range is
//! preceded by the same flush barrier a direct read would take. Buffers
//! come from the shared pool via `try_acquire` only, and installs are
//! skipped while writers are blocked on an empty pool, so prefetching
//! can never deadlock the write side's back-pressure loop.
//!
//! ## Parking
//!
//! Two positions block: a reader on a chunk whose fetch is in flight
//! (`ReadState::wait_pending`) and the close-time `ReadState::drain`
//! on the ledger. Both follow the file ledger's rule
//! (`file.rs`, "Parking"): the waiter takes `gate`, re-checks its condition *under the gate* (the slot's state, or
//! `quiescent()`) and only then waits, untimed; every transition out of
//! `Pending` and every retirement changes the state first and then
//! takes and drops `gate` before it notifies. Either the waiter's check
//! runs after the change and sees it, or the waiter already holds the
//! gate, the waker's lock blocks until the wait releases it, and the
//! notify finds the waiter parked. The gate pass is unconditional —
//! there is no waiter count to skip it by: a count would have to be
//! read `SeqCst` against the ledger's atomics to close the same
//! store-buffer race the gate already closes, and one uncontended lock
//! per retired chunk is not worth a second protocol. No wait is timed:
//! a reader parked behind a stalled backend makes no wakeups.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{
    AtomicU64, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release},
};

use crate::pool::{BufferPool, ChunkBuf};
use crate::stats::CrfsStats;

/// What a cache lookup produced.
pub(crate) enum Consume {
    /// `n` bytes were copied out of a cached chunk. `n` less than the
    /// request means the cached chunk ends early — end of file.
    Hit(usize),
    /// The chunk is being fetched right now; park and retry.
    Pending,
    /// Not cached; read the backend directly.
    Miss,
}

enum SlotState {
    Empty,
    /// A fetch for `idx` is in flight; `gen` must match at install time
    /// or the result is discarded (an overlapping write invalidated it).
    Pending {
        idx: u64,
        gen: u64,
    },
    /// A parked chunk: `len` valid bytes of chunk `idx`. `hit` records
    /// whether it ever served a reader (for the wasted-prefetch count).
    Ready {
        idx: u64,
        buf: ChunkBuf,
        len: usize,
        hit: bool,
    },
}

struct Slot {
    /// Monotonic per-slot generation; stamped on every transition into
    /// `Pending`, so invalidation makes in-flight installs detectably
    /// stale.
    next_gen: u64,
    state: SlotState,
}

impl Slot {
    /// Empties the slot, returning the previous state for the caller to
    /// dispose of outside the lock. Adjusts `active` for the states that
    /// counted toward it.
    fn take(&mut self, active: &AtomicUsize) -> SlotState {
        let state = std::mem::replace(&mut self.state, SlotState::Empty);
        if !matches!(state, SlotState::Empty) {
            active.fetch_sub(1, Relaxed);
        }
        state
    }
}

/// Per-file read cache + prefetch ledger. Shared between the read path
/// (lookups, read-ahead planning), the write path (invalidation), and
/// the IO engine workers (installs).
pub struct ReadState {
    chunk_size: usize,
    read_ahead: usize,
    mask: usize,
    slots: Box<[Mutex<Slot>]>,
    /// Slots currently `Ready` or `Pending` — one relaxed load lets the
    /// write hot path skip invalidation entirely on write-only files.
    active: AtomicUsize,
    /// Prefetch chunks handed to the engine (the read-side "sealed").
    issued: AtomicU64,
    /// Prefetch chunks retired by the engine (the read-side
    /// "completed"): installed, discarded, failed, or refused.
    completed: AtomicU64,
    /// Waiters re-check under it, wakers pass through it (see the
    /// module docs, "Parking").
    gate: Mutex<()>,
    cv: Condvar,
    /// Next expected sequential read offset (0 at open, so a cold
    /// restart stream prefetches from its very first read).
    next_seq: AtomicU64,
    /// Exclusive chunk index read-ahead has been issued up to — the
    /// window high-water mark that keeps planning from re-issuing.
    ahead_until: AtomicU64,
}

impl ReadState {
    /// Creates a cache of `slots` slots (power of two) for `chunk_size`
    /// chunks with a `read_ahead`-chunk prefetch window.
    pub fn new(chunk_size: usize, read_ahead: usize, slots: usize) -> ReadState {
        debug_assert!(slots.is_power_of_two());
        debug_assert!(read_ahead > 0);
        ReadState {
            chunk_size,
            read_ahead,
            mask: slots - 1,
            slots: (0..slots)
                .map(|_| {
                    Mutex::new(Slot {
                        next_gen: 0,
                        state: SlotState::Empty,
                    })
                })
                .collect(),
            active: AtomicUsize::new(0),
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            next_seq: AtomicU64::new(0),
            ahead_until: AtomicU64::new(0),
        }
    }

    /// The prefetch window in chunks.
    pub fn read_ahead(&self) -> usize {
        self.read_ahead
    }

    /// The chunk size lookups and planning are keyed by.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Whether any slot holds or awaits a buffer (write-path fast gate).
    pub fn is_active(&self) -> bool {
        self.active.load(Relaxed) > 0
    }

    fn slot(&self, idx: u64) -> &Mutex<Slot> {
        &self.slots[(idx as usize) & self.mask]
    }

    /// Disposes of a state removed from a slot: recycles a `Ready`
    /// buffer, counting the wasted-prefetch stat if it never served a
    /// hit. Call with no slot lock held.
    fn dispose(state: SlotState, pool: &BufferPool, stats: &CrfsStats) {
        if let SlotState::Ready { buf, hit, .. } = state {
            if !hit {
                stats.prefetch_wasted.fetch_add(1, Relaxed);
            }
            pool.release(buf);
        }
    }

    /// Looks up chunk `idx` and, on a hit, copies from byte `within` of
    /// the chunk into `dst`. A chunk consumed through to its last valid
    /// byte is evicted immediately (sequential readers never revisit it)
    /// so its buffer goes back to the pool at the earliest moment.
    pub(crate) fn try_consume(
        &self,
        idx: u64,
        within: usize,
        dst: &mut [u8],
        pool: &BufferPool,
        stats: &CrfsStats,
    ) -> Consume {
        let mut slot = self.slot(idx).lock();
        match &mut slot.state {
            SlotState::Ready {
                idx: have,
                buf,
                len,
                hit,
            } if *have == idx => {
                let n = dst.len().min(len.saturating_sub(within));
                dst[..n].copy_from_slice(&buf[within..within + n]);
                *hit = true;
                if n > 0 {
                    stats.read_hits.fetch_add(1, Relaxed);
                }
                if within + n >= *len {
                    let state = slot.take(&self.active);
                    drop(slot);
                    // Consumed to the end — recycle without a waste mark.
                    if let SlotState::Ready { buf, .. } = state {
                        pool.release(buf);
                    }
                }
                Consume::Hit(n)
            }
            SlotState::Pending { idx: have, .. } if *have == idx => Consume::Pending,
            _ => Consume::Miss,
        }
    }

    /// Parks the caller while chunk `idx`'s fetch is in flight — the
    /// wait inside the retry loop around
    /// [`try_consume`](Self::try_consume). Returns once the slot has
    /// left `Pending` for `idx` (installed, aborted, invalidated).
    pub(crate) fn wait_pending(&self, idx: u64) {
        let mut g = self.gate.lock();
        while matches!(self.slot(idx).lock().state, SlotState::Pending { idx: i, .. } if i == idx) {
            self.cv.wait(&mut g);
        }
    }

    /// Wakes every waiter after a state change. Call with no slot lock
    /// held (waiters lock a slot under the gate).
    fn notify(&self) {
        // Serialize with a waiter between its check and its wait.
        drop(self.gate.lock());
        self.cv.notify_all();
    }

    /// Claims chunk `idx`'s slot for a prefetch, returning the
    /// generation to stamp on the
    /// [`ReadChunk`](crate::engine::ReadChunk). `None` when the chunk is
    /// already cached or in flight, or when the slot is busy fetching
    /// another chunk. A `Ready` chunk of another index (behind or
    /// outside the window, by direct mapping) is evicted.
    pub(crate) fn begin(&self, idx: u64, pool: &BufferPool, stats: &CrfsStats) -> Option<u64> {
        let mut slot = self.slot(idx).lock();
        let evicted = match &slot.state {
            SlotState::Empty => None,
            SlotState::Pending { .. } => return None,
            SlotState::Ready { idx: have, .. } if *have == idx => return None,
            SlotState::Ready { .. } => Some(slot.take(&self.active)),
        };
        let gen = slot.next_gen;
        slot.next_gen += 1;
        slot.state = SlotState::Pending { idx, gen };
        self.active.fetch_add(1, Relaxed);
        drop(slot);
        if let Some(state) = evicted {
            Self::dispose(state, pool, stats);
        }
        Some(gen)
    }

    /// Rolls back a [`begin`](Self::begin) whose fetch was never issued
    /// (no pool buffer available). Not a ledger event.
    pub(crate) fn cancel(&self, idx: u64, gen: u64) {
        self.clear_claim(idx, gen);
        // Another reader of the file may have parked on the claim.
        self.notify();
    }

    /// Empties chunk `idx`'s slot if generation `gen`'s claim still
    /// holds it.
    fn clear_claim(&self, idx: u64, gen: u64) {
        let mut slot = self.slot(idx).lock();
        if matches!(slot.state, SlotState::Pending { idx: i, gen: g } if i == idx && g == gen) {
            slot.take(&self.active);
        }
    }

    /// Records `n` prefetch chunks as handed to the engine — the
    /// caller-side half of the ledger, like `note_sealed`.
    pub(crate) fn note_issued(&self, n: u64) {
        self.issued.fetch_add(n, Relaxed);
    }

    /// Engine-side retirement of a successful prefetch read of `len`
    /// bytes: parks the buffer in the chunk's slot unless the slot was
    /// invalidated meanwhile (generation mismatch), the read came back
    /// empty, or writers are currently starved for buffers — in those
    /// cases the buffer is recycled immediately and the fetch counts as
    /// wasted. Exactly one `install`/`abort` per issued chunk.
    pub(crate) fn install(
        &self,
        idx: u64,
        gen: u64,
        buf: ChunkBuf,
        len: usize,
        pool: &BufferPool,
        stats: &CrfsStats,
    ) {
        let mut slot = self.slot(idx).lock();
        let fresh =
            matches!(slot.state, SlotState::Pending { idx: i, gen: g } if i == idx && g == gen);
        if fresh && len > 0 && !pool.has_waiters() {
            slot.state = SlotState::Ready {
                idx,
                buf,
                len,
                hit: false,
            };
            drop(slot);
            self.retire(stats);
            self.notify();
            return;
        }
        if fresh {
            // Our claim survived but the result is unusable (empty read,
            // or writers starving for buffers): clear it.
            slot.take(&self.active);
        }
        drop(slot);
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        pool.release(buf);
        self.retire(stats);
        self.notify();
    }

    /// Engine-side retirement of a failed or refused prefetch: clears
    /// the pending claim, recycles the buffer, counts it wasted.
    pub(crate) fn abort(
        &self,
        idx: u64,
        gen: u64,
        buf: ChunkBuf,
        pool: &BufferPool,
        stats: &CrfsStats,
    ) {
        self.clear_claim(idx, gen);
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        pool.release(buf);
        self.retire(stats);
        self.notify();
    }

    fn retire(&self, stats: &CrfsStats) {
        stats.prefetch_completed.fetch_add(1, Relaxed);
        self.completed.fetch_add(1, Release);
    }

    /// Invalidates every cached or in-flight chunk overlapping the byte
    /// range `[lo, hi)` — called by the write path before buffering an
    /// overlapping write, so no reader can hit data the write
    /// supersedes. In-flight fetches are killed by generation: their
    /// install finds the claim gone and recycles the buffer.
    pub(crate) fn invalidate_range(&self, lo: u64, hi: u64, pool: &BufferPool, stats: &CrfsStats) {
        let cs = self.chunk_size as u64;
        for m in self.slots.iter() {
            let mut slot = m.lock();
            let idx = match slot.state {
                SlotState::Ready { idx, .. } | SlotState::Pending { idx, .. } => idx,
                SlotState::Empty => continue,
            };
            let (start, end) = (idx * cs, idx * cs + cs);
            if start < hi && lo < end {
                let state = slot.take(&self.active);
                drop(slot);
                Self::dispose(state, pool, stats);
            }
        }
        // Let planning re-issue the window from the invalidated point.
        self.ahead_until.fetch_min(lo / cs, Relaxed);
        self.notify();
    }

    /// Whether every issued prefetch has been retired.
    fn quiescent(&self) -> bool {
        // Read `issued` first: completion only grows, so completed >=
        // issued-at-read-time means every fetch issued before the check
        // is retired (the same ordering argument as the write barrier).
        let i = self.issued.load(Acquire);
        self.completed.load(Acquire) >= i
    }

    /// Blocks until every issued prefetch has been retired — the
    /// read-side close barrier.
    pub(crate) fn drain(&self) {
        if self.quiescent() {
            return;
        }
        let mut g = self.gate.lock();
        while !self.quiescent() {
            self.cv.wait(&mut g);
        }
    }

    /// Close/unmount epilogue: invalidate everything, then wait until
    /// in-flight fetches retired, so every pool buffer is provably back.
    pub(crate) fn clear(&self, pool: &BufferPool, stats: &CrfsStats) {
        self.invalidate_range(0, u64::MAX, pool, stats);
        self.drain();
    }

    /// Evicts all parked (Ready) chunks, recycling their buffers — the
    /// pressure valve a blocked writer pulls before parking on an empty
    /// pool.
    pub(crate) fn evict_ready(&self, pool: &BufferPool, stats: &CrfsStats) {
        for m in self.slots.iter() {
            let mut slot = m.lock();
            if matches!(slot.state, SlotState::Ready { .. }) {
                let state = slot.take(&self.active);
                drop(slot);
                Self::dispose(state, pool, stats);
            }
        }
    }

    /// Whether a read starting at `offset` would continue the sequential
    /// stream (without recording anything).
    pub(crate) fn is_sequential(&self, offset: u64) -> bool {
        self.next_seq.load(Relaxed) == offset
    }

    /// Records a completed read of `n` bytes at `offset`; returns
    /// whether it continued the sequential stream. A jump (seek, or a
    /// full re-read from the start) resets the planning high-water to
    /// the new position so the next sequential read re-primes the
    /// window — otherwise a second pass over an already-streamed file
    /// would never prefetch again.
    pub(crate) fn note_read(&self, offset: u64, n: u64) -> bool {
        let sequential = self.next_seq.swap(offset + n, Relaxed) == offset;
        if !sequential {
            self.ahead_until
                .store(offset / self.chunk_size as u64, Relaxed);
        }
        sequential
    }

    /// The chunk index read-ahead was last planned up to (exclusive).
    pub(crate) fn ahead_until(&self) -> u64 {
        self.ahead_until.load(Relaxed)
    }

    /// Raises the planning high-water mark.
    pub(crate) fn note_planned(&self, until: u64) {
        self.ahead_until.fetch_max(until, Relaxed);
    }
}

impl std::fmt::Debug for ReadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadState")
            .field("slots", &self.slots.len())
            .field("read_ahead", &self.read_ahead)
            .field("active", &self.active.load(Relaxed))
            .field("issued", &self.issued.load(Relaxed))
            .field("completed", &self.completed.load(Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn fixture() -> (Arc<BufferPool>, Arc<CrfsStats>, ReadState) {
        (
            Arc::new(BufferPool::new(64, 8)),
            Arc::new(CrfsStats::new()),
            ReadState::new(64, 2, 4),
        )
    }

    /// Simulates the engine completing a prefetch of `len` bytes of
    /// `fill` for chunk `idx`.
    fn complete(
        rs: &ReadState,
        idx: u64,
        gen: u64,
        fill: u8,
        len: usize,
        pool: &BufferPool,
        stats: &CrfsStats,
    ) {
        let mut buf = pool.try_acquire().expect("pool buffer");
        buf[..len].iter_mut().for_each(|b| *b = fill);
        rs.note_issued(1);
        rs.install(idx, gen, buf, len, pool, stats);
    }

    #[test]
    fn prefetch_roundtrip_hit_and_eviction() {
        let (pool, stats, rs) = fixture();
        let gen = rs.begin(3, &pool, &stats).expect("claim");
        assert!(rs.begin(3, &pool, &stats).is_none(), "already pending");
        assert!(matches!(
            rs.try_consume(3, 0, &mut [0u8; 16], &pool, &stats),
            Consume::Pending
        ));
        complete(&rs, 3, gen, 7, 64, &pool, &stats);

        let mut dst = [0u8; 32];
        match rs.try_consume(3, 0, &mut dst, &pool, &stats) {
            Consume::Hit(32) => assert!(dst.iter().all(|&b| b == 7)),
            _ => panic!("expected a 32-byte hit"),
        }
        assert!(rs.is_active(), "half-consumed chunk stays parked");
        match rs.try_consume(3, 32, &mut dst, &pool, &stats) {
            Consume::Hit(32) => {}
            _ => panic!("expected the tail hit"),
        }
        assert!(!rs.is_active(), "fully consumed chunk evicted");
        assert_eq!(pool.free_chunks(), 8, "buffer recycled on consumption");
        assert_eq!(stats.read_hits.load(Relaxed), 2);
        assert_eq!(stats.prefetch_wasted.load(Relaxed), 0);
        rs.drain();
    }

    #[test]
    fn short_chunk_signals_eof() {
        let (pool, stats, rs) = fixture();
        let gen = rs.begin(0, &pool, &stats).unwrap();
        complete(&rs, 0, gen, 9, 10, &pool, &stats); // only 10 valid bytes
        let mut dst = [0u8; 64];
        match rs.try_consume(0, 0, &mut dst, &pool, &stats) {
            Consume::Hit(10) => assert!(dst[..10].iter().all(|&b| b == 9)),
            _ => panic!("expected a short (EOF) hit"),
        }
        assert_eq!(pool.free_chunks(), 8);
    }

    #[test]
    fn invalidation_kills_cached_and_inflight_chunks() {
        let (pool, stats, rs) = fixture();
        let g0 = rs.begin(0, &pool, &stats).unwrap();
        complete(&rs, 0, g0, 1, 64, &pool, &stats); // chunk 0 Ready
        let g1 = rs.begin(1, &pool, &stats).unwrap(); // chunk 1 Pending
        let inflight = pool.try_acquire().unwrap();
        rs.note_issued(1);

        // A write over chunks 0-1 invalidates both.
        rs.invalidate_range(0, 128, &pool, &stats);
        assert!(matches!(
            rs.try_consume(0, 0, &mut [0u8; 8], &pool, &stats),
            Consume::Miss
        ));
        // The in-flight fetch installs into a dead generation: discarded.
        rs.install(1, g1, inflight, 64, &pool, &stats);
        assert!(matches!(
            rs.try_consume(1, 0, &mut [0u8; 8], &pool, &stats),
            Consume::Miss
        ));
        assert_eq!(pool.free_chunks(), 8, "all buffers recycled");
        assert_eq!(stats.prefetch_wasted.load(Relaxed), 2);
        rs.drain();
        assert!(!rs.is_active());
    }

    #[test]
    fn drain_waits_for_inflight_install() {
        let (pool, stats, rs) = fixture();
        let rs = Arc::new(rs);
        let gen = rs.begin(2, &pool, &stats).unwrap();
        rs.note_issued(1);
        let buf = pool.try_acquire().unwrap();
        let (rs2, pool2, stats2) = (Arc::clone(&rs), Arc::clone(&pool), Arc::clone(&stats));
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            rs2.install(2, gen, buf, 64, &pool2, &stats2);
        });
        let t0 = std::time::Instant::now();
        rs.drain();
        assert!(t0.elapsed() >= Duration::from_millis(10), "drain early");
        h.join().unwrap();
        assert_eq!(stats.prefetch_completed.load(Relaxed), 1);
    }

    #[test]
    fn every_exit_from_pending_releases_a_parked_reader() {
        type Exit = fn(&ReadState, u64, u64, &BufferPool, &CrfsStats);
        let exits: [Exit; 4] = [
            |rs, idx, gen, pool, stats| {
                let buf = pool.try_acquire().unwrap();
                rs.install(idx, gen, buf, 64, pool, stats)
            },
            |rs, idx, gen, pool, stats| {
                let buf = pool.try_acquire().unwrap();
                rs.abort(idx, gen, buf, pool, stats)
            },
            |rs, idx, gen, _, _| rs.cancel(idx, gen),
            |rs, idx, _, pool, stats| rs.invalidate_range(idx * 64, idx * 64 + 1, pool, stats),
        ];
        for exit in exits {
            let (pool, stats, rs) = fixture();
            let gen = rs.begin(1, &pool, &stats).unwrap();
            rs.note_issued(1);
            std::thread::scope(|s| {
                // The wait is untimed: a transition that forgot to pass
                // the gate would leave this thread parked for good.
                let reader = s.spawn(|| rs.wait_pending(1));
                exit(&rs, 1, gen, &pool, &stats);
                reader.join().unwrap();
            });
            assert!(!matches!(
                rs.try_consume(1, 0, &mut [0u8; 8], &pool, &stats),
                Consume::Pending
            ));
        }
    }

    #[test]
    fn install_skips_parking_when_writers_starve() {
        let (pool, stats, rs) = fixture();
        let gen = rs.begin(0, &pool, &stats).unwrap();
        rs.note_issued(1);
        let buf = pool.try_acquire().unwrap();
        // Exhaust the pool and park a writer on it.
        let held: Vec<_> = std::iter::from_fn(|| pool.try_acquire()).collect();
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || p2.acquire());
        while !pool.has_waiters() {
            std::thread::yield_now();
        }
        rs.install(0, gen, buf, 64, &pool, &stats);
        assert!(
            matches!(
                rs.try_consume(0, 0, &mut [0u8; 8], &pool, &stats),
                Consume::Miss
            ),
            "buffer must go to the starved writer, not the cache"
        );
        assert_eq!(stats.prefetch_wasted.load(Relaxed), 1);
        let got = waiter.join().unwrap();
        assert!(got.is_some(), "writer got the recycled buffer");
        pool.release(got.unwrap().0);
        drop(held);
    }

    #[test]
    fn sequential_detection_and_window() {
        let (_pool, _stats, rs) = fixture();
        assert!(rs.note_read(0, 100), "cold start at 0 is sequential");
        assert!(rs.note_read(100, 50));
        rs.note_planned(6);
        assert_eq!(rs.ahead_until(), 6);
        rs.note_planned(4);
        assert_eq!(rs.ahead_until(), 6, "high-water is monotone");
        assert!(!rs.note_read(512, 10), "jump breaks the stream");
        assert_eq!(
            rs.ahead_until(),
            512 / 64,
            "a jump re-bases the window at the new position"
        );
        assert!(rs.note_read(522, 10), "stream resumes after the jump");
    }
}
