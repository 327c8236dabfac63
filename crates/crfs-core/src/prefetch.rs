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
//! - When the access pattern is sequential, a window of chunks is
//!   fetched ahead of the reader through the mount's
//!   [`RingEngine`](crate::engine::RingEngine) — the same worker pool and
//!   batched submission path the write side uses — so backend read
//!   latency overlaps with the application's consumption.
//! - An **issue/complete ledger** mirrors the write path's
//!   seal/complete design: issuing a prefetch bumps `issued`, the engine
//!   retires it exactly once (installed, discarded as stale, or refused
//!   at shutdown) bumping `completed`, and `ReadState::drain` parks until
//!   the two meet, like the close/fsync barrier does. No prefetch can
//!   leak a pool buffer or wedge unmount.
//!
//! A read waits only for what it needs:
//!
//! - **Demand first.** A raw file's segment shorter than its chunk,
//!   whose fill the *same* read call just claimed (chunk 0 of a cold
//!   stream, the first chunk after a jump), reads just its bytes
//!   (`read_demand`); the fill serves the reads that follow. A framed
//!   file's smallest read is the fill (whole frame, decode, verify), and
//!   a whole-chunk segment costs the fill anyway: both wait.
//! - **A window that follows the store.** The window starts at
//!   `read_ahead_chunks` and doubles, up to
//!   `CrfsConfig::resolved_read_window_max`, each time a reader parks on
//!   a chunk an *earlier* call issued — once the engine saw the backend
//!   take one of the file's fills asynchronously. On a synchronous store
//!   `io_threads` bound the fills in flight whatever the window, so
//!   there it stays put.
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
//! A reader on an in-flight chunk (`ReadState::wait_pending`) counts
//! itself into its slot's `parked` and waits on the slot's condvar; the
//! close-time `ReadState::drain` does the same on the ledger. Every
//! transition out of `Pending`, and the retirement that balances the
//! ledger, happens under that mutex and notifies only when the count
//! is non-zero. No wait is timed.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use crate::config::CrfsConfig;
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
    /// Readers waiting in `wait_pending` on this slot.
    parked: usize,
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

/// One direct-mapped cache slot and the condvar its parked readers
/// wait on.
struct SlotCell {
    slot: Mutex<Slot>,
    left_pending: Condvar,
}

impl SlotCell {
    /// Releases the slot's lock after a transition out of `Pending`,
    /// waking the readers parked on it.
    fn wake(&self, slot: MutexGuard<'_, Slot>) {
        let parked = slot.parked > 0;
        drop(slot);
        if parked {
            self.left_pending.notify_all();
        }
    }
}

/// The prefetch ledger: chunks handed to the engine (the read-side
/// "sealed"), chunks it retired (installed, discarded, failed, or
/// refused), and the drains parked on them.
#[derive(Default)]
struct Ledger {
    issued: u64,
    completed: u64,
    parked: usize,
}

/// Per-file read cache + prefetch ledger. Shared between the read path
/// (lookups, read-ahead planning), the write path (invalidation), and
/// the IO engine workers (installs).
pub struct ReadState {
    chunk_size: usize,
    /// Chunks of read-ahead planned past the reader's chunk: starts at
    /// `read_ahead_chunks`, deepened by [`deepen`](Self::deepen).
    window: AtomicUsize,
    max_window: usize,
    /// Set once a fill of this file went into flight asynchronously.
    async_fills: AtomicBool,
    mask: usize,
    slots: Box<[SlotCell]>,
    /// Slots currently `Ready` or `Pending` — one relaxed load lets the
    /// write hot path skip invalidation entirely on write-only files.
    active: AtomicUsize,
    ledger: Mutex<Ledger>,
    drained: Condvar,
    /// Next expected sequential read offset (0 at open, so a cold
    /// restart stream prefetches from its very first read).
    next_seq: AtomicU64,
    /// Exclusive chunk index read-ahead has been issued up to — the
    /// window high-water mark that keeps planning from re-issuing.
    ahead_until: AtomicU64,
}

impl ReadState {
    /// Creates a cache of `slots` slots (power of two) for `chunk_size`
    /// chunks with a prefetch window of `read_ahead` chunks that may
    /// deepen to `max_window`.
    pub fn new(chunk_size: usize, read_ahead: usize, max_window: usize, slots: usize) -> ReadState {
        debug_assert!(slots.is_power_of_two());
        debug_assert!(0 < read_ahead && read_ahead <= max_window);
        ReadState {
            chunk_size,
            window: AtomicUsize::new(read_ahead),
            max_window,
            async_fills: AtomicBool::new(false),
            mask: slots - 1,
            slots: (0..slots)
                .map(|_| SlotCell {
                    slot: Mutex::new(Slot {
                        next_gen: 0,
                        state: SlotState::Empty,
                        parked: 0,
                    }),
                    left_pending: Condvar::new(),
                })
                .collect(),
            active: AtomicUsize::new(0),
            ledger: Mutex::default(),
            drained: Condvar::new(),
            next_seq: AtomicU64::new(0),
            ahead_until: AtomicU64::new(0),
        }
    }

    /// The read state of one file opened under `config`; `None` when
    /// prefetching is disabled.
    pub(crate) fn for_config(config: &CrfsConfig) -> Option<Arc<ReadState>> {
        (config.read_ahead_chunks > 0).then(|| {
            Arc::new(ReadState::new(
                config.chunk_size,
                config.read_ahead_chunks,
                config.resolved_read_window_max(),
                config.resolved_read_cache_slots(),
            ))
        })
    }

    /// The prefetch window in chunks.
    pub fn window(&self) -> usize {
        self.window.load(Relaxed)
    }

    /// Notes that the backend took one of this file's fills through its
    /// asynchronous path, so a deeper window can put more reads in
    /// flight.
    pub(crate) fn note_async_fill(&self) {
        self.async_fills.store(true, Relaxed);
    }

    /// Doubles the window up to its cap — called when a reader parks on
    /// a chunk an earlier call issued. Only over an asynchronous store.
    pub(crate) fn deepen(&self) {
        if self.async_fills.load(Relaxed) {
            let deeper = (self.window() * 2).min(self.max_window);
            self.window.fetch_max(deeper, Relaxed);
        }
    }

    /// The chunk size lookups and planning are keyed by.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Whether any slot holds or awaits a buffer (write-path fast gate).
    pub fn is_active(&self) -> bool {
        self.active.load(Relaxed) > 0
    }

    fn slot(&self, idx: u64) -> &SlotCell {
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
        let mut slot = self.slot(idx).slot.lock();
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
        let cell = self.slot(idx);
        let mut slot = cell.slot.lock();
        slot.parked += 1;
        while matches!(slot.state, SlotState::Pending { idx: i, .. } if i == idx) {
            cell.left_pending.wait(&mut slot);
        }
        slot.parked -= 1;
    }

    /// Claims chunk `idx`'s slot for a prefetch, returning the
    /// generation to stamp on the
    /// [`ReadChunk`](crate::engine::ReadChunk). `None` when the chunk is
    /// already cached or in flight, or when the slot is busy fetching
    /// another chunk. A `Ready` chunk of another index (behind or
    /// outside the window, by direct mapping) is evicted.
    pub(crate) fn begin(&self, idx: u64, pool: &BufferPool, stats: &CrfsStats) -> Option<u64> {
        let mut slot = self.slot(idx).slot.lock();
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
        let cell = self.slot(idx);
        let mut slot = cell.slot.lock();
        if matches!(slot.state, SlotState::Pending { idx: i, gen: g } if i == idx && g == gen) {
            slot.take(&self.active);
            // Another reader of the file may have parked on the claim.
            cell.wake(slot);
        }
    }

    /// Records `n` prefetch chunks as handed to the engine — the
    /// caller-side half of the ledger, like `note_sealed`.
    pub(crate) fn note_issued(&self, n: u64) {
        self.ledger.lock().issued += n;
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
        let cell = self.slot(idx);
        let mut slot = cell.slot.lock();
        let fresh =
            matches!(slot.state, SlotState::Pending { idx: i, gen: g } if i == idx && g == gen);
        if fresh && len > 0 && !pool.has_waiters() {
            slot.state = SlotState::Ready {
                idx,
                buf,
                len,
                hit: false,
            };
            cell.wake(slot);
            self.retire(stats);
        } else {
            // Stale, or unusable (an empty read, or writers starving for
            // buffers): clear a surviving claim, recycle the buffer.
            drop(slot);
            self.abort(idx, gen, buf, pool, stats);
        }
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
        self.cancel(idx, gen);
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        pool.release(buf);
        self.retire(stats);
    }

    fn retire(&self, stats: &CrfsStats) {
        stats.prefetch_completed.fetch_add(1, Relaxed);
        let mut ledger = self.ledger.lock();
        ledger.completed += 1;
        let wake = ledger.parked > 0 && ledger.completed >= ledger.issued;
        drop(ledger);
        if wake {
            self.drained.notify_all();
        }
    }

    /// Invalidates every cached or in-flight chunk overlapping the byte
    /// range `[lo, hi)` — called by the write path before buffering an
    /// overlapping write, so no reader can hit data the write
    /// supersedes. In-flight fetches are killed by generation: their
    /// install finds the claim gone and recycles the buffer.
    pub(crate) fn invalidate_range(&self, lo: u64, hi: u64, pool: &BufferPool, stats: &CrfsStats) {
        let cs = self.chunk_size as u64;
        for cell in self.slots.iter() {
            let mut slot = cell.slot.lock();
            let idx = match slot.state {
                SlotState::Ready { idx, .. } | SlotState::Pending { idx, .. } => idx,
                SlotState::Empty => continue,
            };
            let (start, end) = (idx * cs, idx * cs + cs);
            if start < hi && lo < end {
                let state = slot.take(&self.active);
                cell.wake(slot);
                Self::dispose(state, pool, stats);
            }
        }
        // Let planning re-issue the window from the invalidated point.
        self.ahead_until.fetch_min(lo / cs, Relaxed);
    }

    /// Blocks until every issued prefetch has been retired — the
    /// read-side close barrier.
    pub(crate) fn drain(&self) {
        let mut ledger = self.ledger.lock();
        ledger.parked += 1;
        while ledger.completed < ledger.issued {
            self.drained.wait(&mut ledger);
        }
        ledger.parked -= 1;
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
        for cell in self.slots.iter() {
            let mut slot = cell.slot.lock();
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
        let ledger = self.ledger.lock();
        f.debug_struct("ReadState")
            .field("slots", &self.slots.len())
            .field("window", &self.window())
            .field("active", &self.active.load(Relaxed))
            .field("issued", &ledger.issued)
            .field("completed", &ledger.completed)
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
            ReadState::new(64, 2, 2, 4),
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

    /// The same exits, each fired only once the reader is counted into
    /// its slot's `parked`: the wake must reach a reader that is already
    /// waiting on the slot's condvar, not just one that re-checks late.
    #[test]
    fn a_parked_reader_wakes_on_install_abort_and_invalidation() {
        type Exit = fn(&ReadState, u64, u64, &BufferPool, &CrfsStats);
        let exits: [Exit; 3] = [
            |rs, idx, gen, pool, stats| {
                let buf = pool.try_acquire().unwrap();
                rs.install(idx, gen, buf, 64, pool, stats)
            },
            |rs, idx, gen, pool, stats| {
                let buf = pool.try_acquire().unwrap();
                rs.abort(idx, gen, buf, pool, stats)
            },
            |rs, idx, _, pool, stats| rs.invalidate_range(idx * 64, idx * 64 + 1, pool, stats),
        ];
        for exit in exits {
            let (pool, stats, rs) = fixture();
            let gen = rs.begin(1, &pool, &stats).unwrap();
            rs.note_issued(1);
            std::thread::scope(|s| {
                let reader = s.spawn(|| rs.wait_pending(1));
                while rs.slot(1).slot.lock().parked == 0 {
                    std::thread::yield_now();
                }
                exit(&rs, 1, gen, &pool, &stats);
                reader.join().unwrap();
            });
            assert_eq!(rs.slot(1).slot.lock().parked, 0);
        }
    }

    #[test]
    fn the_window_deepens_only_over_async_fills_up_to_its_cap() {
        let rs = ReadState::new(64, 2, 8, 16);
        rs.deepen();
        assert_eq!(rs.window(), 2, "synchronous fills keep the window");
        rs.note_async_fill();
        for want in [4, 8, 8] {
            rs.deepen();
            assert_eq!(rs.window(), want);
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
