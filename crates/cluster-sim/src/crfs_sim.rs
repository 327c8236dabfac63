//! CRFS on virtual time.
//!
//! The same algorithm as `crfs-core` — buffer pool, per-file current
//! chunk, work queue, IO worker pool, close/fsync barriers — expressed as
//! simulation tasks. Chunking decisions are made by the *identical*
//! [`crfs_core::chunking::plan_write`] function, the close/fsync prologue
//! by the shared [`crfs_core::chunking::flush_plan`], and the barrier
//! counters by the shared
//! [`crfs_core::engine::account::ChunkAccounting`] ledger, so the
//! simulated and the real filesystem provably agree on every
//! seal/open/append and on the barrier bookkeeping (a conformance test in
//! `/tests` replays the same stream through both).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::rc::Rc;
use std::time::Duration;

use crfs_core::chunking::{flush_plan, plan_write, ChunkState, FlushStep, PlanStep};
use crfs_core::engine::account::ChunkAccounting;
use crfs_core::CrfsConfig;
use simkit::sync::{unbounded, Notify, Semaphore, Sender, WaitGroup};
use simkit::time::{now, sleep, SimTime};
use storage_model::params::{CrfsCostParams, FuseParams, ReadCostParams};

use crate::fuse::FuseLayer;
use crate::target::Target;

/// One chunk's prefetch status in a file's read window.
struct ChunkFetch {
    ready: Cell<bool>,
    wg: WaitGroup,
}

/// A file's prefetched-chunk window — the simulated counterpart of the
/// real library's per-file `ReadState` cache (chunk-granular, bounded
/// by pool permits, drained at close).
#[derive(Default)]
struct ReadWindow {
    chunks: RefCell<HashMap<u64, Rc<ChunkFetch>>>,
}

impl ReadWindow {
    fn get(&self, idx: u64) -> Option<Rc<ChunkFetch>> {
        self.chunks.borrow().get(&idx).cloned()
    }

    fn contains(&self, idx: u64) -> bool {
        self.chunks.borrow().contains_key(&idx)
    }

    fn insert(&self, idx: u64) -> Rc<ChunkFetch> {
        let wg = WaitGroup::new();
        wg.add(1);
        let fetch = Rc::new(ChunkFetch {
            ready: Cell::new(false),
            wg,
        });
        self.chunks.borrow_mut().insert(idx, Rc::clone(&fetch));
        fetch
    }

    fn remove(&self, idx: u64) -> Option<Rc<ChunkFetch>> {
        self.chunks.borrow_mut().remove(&idx)
    }

    fn drain_list(&self) -> Vec<Rc<ChunkFetch>> {
        let mut chunks = self.chunks.borrow_mut();
        let list = chunks.values().cloned().collect();
        chunks.clear();
        list
    }
}

struct FileState {
    backend_fid: u64,
    chunk: Option<ChunkState>,
    /// Shared sealed/completed ledger (same type the real filesystem's
    /// `FileEntry` uses); the `WaitGroup` supplies the async wakeup the
    /// real side gets from its condvar.
    acct: Rc<RefCell<ChunkAccounting>>,
    outstanding: WaitGroup,
    /// Next expected sequential read offset (restart phase).
    read_next: u64,
    /// Known logical length — raised by writes, or declared by
    /// [`CrfsSim::open_restart`]; caps the read-ahead window like the
    /// real entry's `max_extent`.
    extent: u64,
    /// Prefetched chunks.
    window: Rc<ReadWindow>,
}

/// Virtual-time model of the chunk transform stage (the real library's
/// `crfs_core::transform`): per-chunk compression ratio, dedup hit
/// rate, and digest and codec throughput. CPU time is charged *in
/// IO-worker context* (it parallelizes across workers, exactly like the
/// real engine) and a hit and a miss are priced differently, as they
/// cost differently: every written chunk pays the payload digest
/// (`logical / digest_bandwidth`), which is all a dedup hit costs —
/// it is known by its key before the codec runs and stores only a
/// reference record; a miss pays the codec on top (`logical /
/// compress_bandwidth`) and its backend write shrinks to the stored
/// size. Every chunk read back pays decode plus the digest that
/// verifies it.
#[derive(Debug, Clone, Copy)]
pub struct SimTransform {
    /// Stored/logical reduction for data chunks (≥ 1.0; 1.0 = identity).
    pub compress_ratio: f64,
    /// Fraction of chunks that dedup into reference records (0.0–1.0).
    /// Applied deterministically (every `1/rate`-th chunk), so runs are
    /// reproducible.
    pub dedup_hit_rate: f64,
    /// Payload-digest throughput in bytes per second of worker CPU
    /// time; charged to every chunk, written or read.
    pub digest_bandwidth: u64,
    /// Codec encode throughput in bytes of logical data per second of
    /// worker CPU time; charged to dedup misses only.
    pub compress_bandwidth: u64,
    /// Codec decode throughput in bytes of logical data per second;
    /// charged to every chunk read back.
    pub decompress_bandwidth: u64,
    /// Frame header + record overhead bytes per stored chunk.
    pub frame_overhead: u64,
}

impl SimTransform {
    /// The LZ codec behind the payload digest, calibrated from the
    /// single-thread probes of the traced `full_cycle` benchmark run
    /// (seed 7, this sandbox, MiB/s): `transform.hash_mibs` 4,300,
    /// `transform.lz_encode_mibs` 1,020, `transform.lz_decode_mibs`
    /// 3,540 (307 and 1,400 with the byte-wide kernels they replaced);
    /// ~2.5x codec ratio and 64-byte frames as `exp compress` measures
    /// on checkpoint-like data.
    pub fn lz_like(dedup_hit_rate: f64) -> SimTransform {
        SimTransform {
            compress_ratio: 2.5,
            dedup_hit_rate,
            digest_bandwidth: 4300 << 20,
            compress_bandwidth: 1020 << 20,
            decompress_bandwidth: 3540 << 20,
            frame_overhead: 64,
        }
    }

    /// Worker CPU time to fingerprint — and on a miss, encode — one
    /// sealed chunk of `logical` bytes.
    fn encode_cost(&self, logical: u64, hit: bool) -> Duration {
        let digest = logical as f64 / self.digest_bandwidth.max(1) as f64;
        let codec = if hit {
            0.0
        } else {
            logical as f64 / self.compress_bandwidth.max(1) as f64
        };
        Duration::from_secs_f64(digest + codec)
    }

    /// Worker (or reader) CPU time to decode and verify one chunk of
    /// `logical` bytes read back.
    fn decode_cost(&self, logical: u64) -> Duration {
        Duration::from_secs_f64(
            logical as f64 / self.decompress_bandwidth.max(1) as f64
                + logical as f64 / self.digest_bandwidth.max(1) as f64,
        )
    }
}

/// Virtual-time mirror of the snapshot store (`crfs_core::snapshot`):
/// content-addressed chunks with per-manifest refcounts, epoch sealing,
/// bounded retention, and mark-and-sweep GC. Chunk *identity* is
/// synthetic (the simulator models time and bytes, not contents): a
/// dedup hit re-references an id from the carried/staged pool, a miss
/// stores a fresh id and displaces one carried chunk — the rewrite.
/// The byte accounting and the reclamation invariant (a chunk
/// referenced by a retained manifest, or staged in the unsealed epoch,
/// is never freed) match the real store.
#[derive(Default)]
struct SimSnapState {
    keep_epochs: usize,
    next_epoch: u64,
    next_id: u64,
    /// id → (stored bytes, retained manifests referencing it).
    cas: HashMap<u64, (u64, u64)>,
    /// Ids referenced by chunks written in the unsealed epoch.
    staged: Vec<u64>,
    /// Ids carried from the newest sealed manifest (unmodified chunks).
    carried: Vec<u64>,
    /// Sealed, retained manifests (epoch, referenced ids).
    manifests: VecDeque<(u64, Vec<u64>)>,
    hits_seen: u64,
}

/// Virtual-time mirror of `FaultyBackend`'s power-cut injection
/// (`FailureMode::PowerCutAfterBytes`): a stored-byte budget after
/// which the simulated backend dies mid-write. The write that crosses
/// the budget lands only its in-budget prefix (kill-at-any-byte), the
/// chunk completes with an error, and every later write fails outright
/// until [`CrfsSim::revive`] models the post-reboot remount.
#[derive(Debug, Default)]
struct CrashState {
    /// Stored-byte budget; `None` = no cut armed.
    budget: Cell<Option<u64>>,
    /// Stored bytes already charged against the budget.
    spent: Cell<u64>,
    dead: Cell<bool>,
}

/// One fast-tier chunk awaiting its background copy to the durable
/// tier.
struct SimDrainOp {
    backend_fid: u64,
    offset: u64,
    len: u64,
}

/// Virtual-time mirror of the tiered backend
/// (`crfs_core::backend::TieredBackend`, DESIGN.md §9): chunk writes
/// ack at the fast tier's bandwidth and a single drain pump copies
/// them to the durable tier in the background — so drain bandwidth is
/// the durable backend's own model, serialized through one stream.
/// Watermarks mirror the real backpressure: at `watermark_hi` resident
/// (un-drained) bytes the mount degrades to write-through pace — a
/// write still queues to the pump but acks only once the pump is back
/// under `watermark_hi`, so writers advance one chunk per pumped copy
/// — and re-arms fast acks once the pump drains back under
/// `watermark_lo`. Crash injection moves with the durable
/// write: in tiered mode the power-cut budget is charged by the pump,
/// so a cut mid-drain loses *copies* (surfaced by
/// [`CrfsSim::drain_barrier`]), never the application's ack.
struct SimTierState {
    /// Fast-tier ack bandwidth (bytes of chunk per second).
    fast_bandwidth: u64,
    /// Resident bytes at or below which write-through clears.
    watermark_lo: u64,
    /// Resident bytes at which write-through engages.
    watermark_hi: u64,
    /// Fast-tier bytes acked but not yet drained.
    resident: Cell<u64>,
    /// Degraded mode: writes ack only once the pump has made room.
    write_through: Cell<bool>,
    /// Wakes degraded writes after every pumped copy.
    room: Notify,
    /// Barrier ledger: one `add` per queued drain, one `done` per
    /// pumped copy.
    outstanding: WaitGroup,
    /// Drain copies lost to injected failure since the last barrier.
    failed_since_barrier: Cell<u64>,
    /// Queue into the drain pump task.
    tx: Sender<SimDrainOp>,
}

impl SimTierState {
    fn fast_cost(&self, len: u64) -> Duration {
        Duration::from_secs_f64(len as f64 / self.fast_bandwidth.max(1) as f64)
    }

    /// Queues one acked chunk for background drain, tripping the high
    /// watermark when the resident backlog crosses it.
    async fn enqueue(&self, backend_fid: u64, offset: u64, len: u64) {
        self.outstanding.add(1);
        let resident = self.resident.get() + len;
        self.resident.set(resident);
        if resident >= self.watermark_hi {
            self.write_through.set(true);
        }
        let sent = self
            .tx
            .send(SimDrainOp {
                backend_fid,
                offset,
                len,
            })
            .await;
        assert!(sent.is_ok(), "tier drain pump alive");
    }

    /// Holds a degraded write until the pump is back under the high
    /// watermark; fails it once a drain copy has been lost.
    async fn wait_for_room(&self) -> io::Result<()> {
        loop {
            if self.failed_since_barrier.get() > 0 {
                return Err(io::Error::other("injected power cut: drain copies lost"));
            }
            if self.resident.get() < self.watermark_hi {
                return Ok(());
            }
            self.room.notified().await;
        }
    }
}

/// Shared handle to the optional tier mirror — the IO workers and the
/// drain pump hold clones; [`CrfsSim::enable_tier`] fills it in.
type SimTierCell = Rc<RefCell<Option<Rc<SimTierState>>>>;

/// What one simulated backend write is allowed to do.
enum SimWritePlan {
    Full,
    /// Land `keep` prefix bytes, then die.
    Torn {
        keep: u64,
    },
    /// Backend already dead: fail without touching it.
    Fail,
}

impl CrashState {
    fn plan(&self, len: u64) -> SimWritePlan {
        if self.dead.get() {
            return SimWritePlan::Fail;
        }
        match self.budget.get() {
            None => SimWritePlan::Full,
            Some(budget) => {
                let start = self.spent.get();
                self.spent.set(start + len);
                if start + len <= budget {
                    SimWritePlan::Full
                } else {
                    self.dead.set(true);
                    SimWritePlan::Torn {
                        keep: budget.saturating_sub(start).min(len),
                    }
                }
            }
        }
    }
}

enum WorkItem {
    /// A sealed chunk heading to the backend (`len` is the *stored*
    /// size after the transform stage; `compress` the worker CPU time
    /// the codec costs before the write is issued).
    Write {
        backend_fid: u64,
        offset: u64,
        len: u64,
        compress: Duration,
        /// Virtual seal instant — the worker records the queue latency
        /// (seal → issue) into `stages.seal_to_submit`, like the real
        /// engines consume `SealedChunk::sealed_at`.
        sealed_at: SimTime,
        acct: Rc<RefCell<ChunkAccounting>>,
        wg: WaitGroup,
    },
    /// A restart prefetch: charge the read model, then mark the chunk
    /// ready in its file's window.
    Read {
        len: u64,
        /// Worker CPU time to decode and verify the chunk once read
        /// (zero without a transform model).
        decode: Duration,
        /// Virtual issue instant — `stages.prefetch_fill` records the
        /// issue→ready span, queue wait included, like the real cache's
        /// `ReadChunk::issued_at`.
        issued_at: SimTime,
        fetch: Rc<ChunkFetch>,
    },
}

/// Live counters of the simulated CRFS instance.
#[derive(Debug, Default)]
pub struct CrfsSimStats {
    /// Application-level write requests accepted (post-FUSE-split).
    pub requests: Cell<u64>,
    /// Bytes accepted.
    pub bytes_in: Cell<u64>,
    /// Chunks sealed (enqueued).
    pub chunks_sealed: Cell<u64>,
    /// Chunks completed by IO workers.
    pub chunks_completed: Cell<u64>,
    /// Bytes written to the backend.
    pub bytes_out: Cell<u64>,
    /// Engine submissions — mirrors the real filesystem's
    /// `engine_submits`: a request's sealed chunks are collected and
    /// handed to the work queue as one batch (flushed early only when
    /// the batch limit is hit or the pool forces a blocking acquire).
    pub submit_batches: Cell<u64>,
    /// Restart read requests served.
    pub reads: Cell<u64>,
    /// Read segments served from the prefetch window (no backend charge
    /// beyond the overlapped fetch).
    pub read_hits: Cell<u64>,
    /// Read segments charged to the backend directly.
    pub read_misses: Cell<u64>,
    /// Prefetch chunks handed to the IO workers.
    pub prefetch_issued: Cell<u64>,
    /// Logical chunk bytes entering the transform stage.
    pub bytes_logical: Cell<u64>,
    /// Stored bytes leaving the transform stage (what the backend is
    /// charged for). Equals `bytes_out` whenever a transform is set.
    pub bytes_stored: Cell<u64>,
    /// Chunks deduplicated into reference records.
    pub dedup_hits: Cell<u64>,
    /// Chunks whose backend write failed (power-cut injection): the
    /// torn chunk plus every chunk issued against the dead backend.
    pub failed_chunks: Cell<u64>,
    /// Prefix bytes the torn write landed before the cut — the bytes a
    /// post-reboot scan would find past the last full frame.
    pub torn_bytes: Cell<u64>,
    /// Snapshot epochs sealed.
    pub epochs_sealed: Cell<u64>,
    /// Unique chunks stored into the content store (snapshot mode).
    pub snapshot_chunks: Cell<u64>,
    /// Stored bytes those chunks cost (counted once per unique chunk —
    /// the delta; re-references are free).
    pub snapshot_bytes: Cell<u64>,
    /// Chunks reclaimed by snapshot GC.
    pub gc_reclaimed_chunks: Cell<u64>,
    /// Bytes reclaimed by snapshot GC.
    pub gc_reclaimed_bytes: Cell<u64>,
    /// Drain copies pumped from the fast tier to the durable tier
    /// (tiered mode).
    pub drain_ops: Cell<u64>,
    /// Bytes those copies landed on the durable tier.
    pub drain_bytes: Cell<u64>,
    /// Drain copies lost to injected failure — the crash-during-drain
    /// shape; per-barrier counts come from
    /// [`CrfsSim::drain_barrier`].
    pub drain_failed: Cell<u64>,
    /// Chunks written through both tiers synchronously because the
    /// fast tier sat above its high watermark.
    pub write_through_chunks: Cell<u64>,
    /// Per-stage latency distributions on *virtual* time — the same
    /// [`StageHistograms`](crfs_core::obs::StageHistograms) type (and
    /// percentile schema) the real mount surfaces, so a simulated sweep
    /// and a live BENCH artifact render through the same tooling. The
    /// sim records the stages its model resolves: `pool_wait`,
    /// `seal_to_submit`, `transform_encode` (the modelled codec CPU),
    /// `write_sync`, `read_hit`/`read_miss`, `prefetch_fill`,
    /// `barrier_wait`, and — in tiered mode — `drain_copy` and
    /// `drain_wait`. Deterministic: same seed, same histograms.
    pub stages: crfs_core::obs::StageHistograms,
}

/// A simulated CRFS mount on one node.
pub struct CrfsSim {
    config: CrfsConfig,
    costs: CrfsCostParams,
    fuse: FuseLayer,
    pool: Semaphore,
    tx: Sender<WorkItem>,
    target: Target,
    files: RefCell<HashMap<u64, FileState>>,
    next_fh: Cell<u64>,
    stats: Rc<CrfsSimStats>,
    /// Restart read-path cost model; shared with the IO worker tasks so
    /// [`set_read_costs`](Self::set_read_costs) takes effect
    /// immediately.
    read_costs: Rc<Cell<ReadCostParams>>,
    /// Transform-stage model; `None` ships chunks at their logical size.
    transform: Cell<Option<SimTransform>>,
    /// Deterministic dedup accumulator (error-diffusion of the rate).
    dedup_acc: Cell<f64>,
    /// Power-cut injection state, shared with the IO worker tasks.
    crash: Rc<CrashState>,
    /// Tier mirror; `None` until [`enable_tier`](Self::enable_tier).
    /// Shared with the IO worker tasks (they route chunk writes by it)
    /// and the drain pump.
    tier: SimTierCell,
    /// Snapshot-store mirror; `None` until
    /// [`enable_snapshots`](Self::enable_snapshots).
    snap: RefCell<Option<SimSnapState>>,
    /// Backend file holding the sealed manifests (lazily opened).
    snap_fid: Cell<Option<u64>>,
    snap_tail: Cell<u64>,
}

/// Charges one backend read of `len` bytes against the model (round
/// trip + transfer) in virtual time.
async fn charge_read(costs: ReadCostParams, len: u64) {
    let transfer = Duration::from_secs_f64(len as f64 / costs.bandwidth.max(1) as f64);
    sleep(costs.per_op + transfer).await;
}

impl CrfsSim {
    /// Mounts simulated CRFS over `target`, spawning the IO worker tasks.
    /// Must be called inside a running `Sim`.
    pub fn new(
        target: Target,
        config: CrfsConfig,
        costs: CrfsCostParams,
        fuse: FuseParams,
    ) -> Rc<CrfsSim> {
        config.validate().expect("invalid CRFS config");
        let (tx, rx) = unbounded::<WorkItem>();
        let stats = Rc::new(CrfsSimStats::default());
        // Virtual-time stage histograms are free (no clock syscalls in a
        // simulation), so the sim always records them.
        stats.stages.set_enabled(true);
        let pool = Semaphore::new(config.pool_chunks());
        let read_costs = Rc::new(Cell::new(ReadCostParams::shared_fs()));
        let crash = Rc::new(CrashState::default());
        let tier: SimTierCell = Rc::new(RefCell::new(None));
        // The worker-task count models the engine's in-flight op limit:
        // the simulated storage targets are synchronous, so each op
        // blocks one of the `io_threads` issue workers (the pool
        // semaphore still bounds total buffered chunks).
        for _ in 0..config.io_threads {
            let rx = rx.clone();
            let target = target.clone();
            let stats = Rc::clone(&stats);
            let pool = pool.clone();
            let read_costs = Rc::clone(&read_costs);
            let crash = Rc::clone(&crash);
            let tier = Rc::clone(&tier);
            let _task = simkit::spawn(async move {
                while let Some(item) = rx.recv().await {
                    match item {
                        WorkItem::Write {
                            backend_fid,
                            offset,
                            len,
                            compress,
                            sealed_at,
                            acct,
                            wg,
                        } => {
                            stats
                                .stages
                                .seal_to_submit
                                .record_dur(now().since(sealed_at));
                            if !compress.is_zero() {
                                // Codec CPU in worker context: overlaps
                                // other workers' backend writes, like
                                // the real engine.
                                sleep(compress).await;
                                stats.stages.transform_encode.record_dur(compress);
                            }
                            // Power-cut injection mirrors FaultyBackend:
                            // the crossing write lands its prefix, the
                            // chunk fails, and the ledger stays balanced
                            // (completed counts failures too) so close
                            // barriers still release. In tiered mode the
                            // crash budget moves to the drain pump — it's
                            // the durable tier that dies — so fast-tier
                            // acks never consume it.
                            let routed = tier.borrow().clone();
                            let res = match routed {
                                Some(t) => {
                                    // Charge only the fast tier's
                                    // bandwidth; the durable copy (and
                                    // `bytes_out`) is the pump's.
                                    let t0 = now();
                                    let degraded = t.write_through.get();
                                    sleep(t.fast_cost(len)).await;
                                    t.enqueue(backend_fid, offset, len).await;
                                    let res = if degraded {
                                        // Degraded: the op queues like
                                        // any other, and the ack waits
                                        // for the pump to make room.
                                        stats
                                            .write_through_chunks
                                            .set(stats.write_through_chunks.get() + 1);
                                        t.wait_for_room().await.inspect_err(|_| {
                                            stats.failed_chunks.set(stats.failed_chunks.get() + 1);
                                        })
                                    } else {
                                        Ok(())
                                    };
                                    stats.stages.write_sync.record_dur(now().since(t0));
                                    res
                                }
                                None => match crash.plan(len) {
                                    SimWritePlan::Full => {
                                        let t0 = now();
                                        target.write(backend_fid, offset, len).await;
                                        stats.stages.write_sync.record_dur(now().since(t0));
                                        stats.bytes_out.set(stats.bytes_out.get() + len);
                                        Ok(())
                                    }
                                    SimWritePlan::Torn { keep } => {
                                        if keep > 0 {
                                            target.write(backend_fid, offset, keep).await;
                                            stats.bytes_out.set(stats.bytes_out.get() + keep);
                                        }
                                        stats.torn_bytes.set(stats.torn_bytes.get() + keep);
                                        stats.failed_chunks.set(stats.failed_chunks.get() + 1);
                                        Err(io::Error::other("injected power cut: write torn"))
                                    }
                                    SimWritePlan::Fail => {
                                        stats.failed_chunks.set(stats.failed_chunks.get() + 1);
                                        Err(io::Error::other("injected power cut: backend is dead"))
                                    }
                                },
                            };
                            stats.chunks_completed.set(stats.chunks_completed.get() + 1);
                            acct.borrow_mut().note_completed(res);
                            wg.done();
                            pool.add_permits(1);
                        }
                        WorkItem::Read {
                            len,
                            decode,
                            issued_at,
                            fetch,
                        } => {
                            // The fetched chunk keeps its pool permit
                            // until the reader consumes it (or close
                            // drains the window) — mirroring the real
                            // cache's buffer accounting.
                            charge_read(read_costs.get(), len).await;
                            if !decode.is_zero() {
                                sleep(decode).await;
                                stats.stages.transform_decode.record_dur(decode);
                            }
                            stats
                                .stages
                                .prefetch_fill
                                .record_dur(now().since(issued_at));
                            fetch.ready.set(true);
                            fetch.wg.done();
                        }
                    }
                }
            });
        }
        Rc::new(CrfsSim {
            config,
            costs,
            fuse: FuseLayer::new(fuse),
            pool,
            tx,
            target,
            files: RefCell::new(HashMap::new()),
            next_fh: Cell::new(1),
            stats,
            read_costs,
            transform: Cell::new(None),
            dedup_acc: Cell::new(0.0),
            crash,
            tier,
            snap: RefCell::new(None),
            snap_fid: Cell::new(None),
            snap_tail: Cell::new(0),
        })
    }

    /// Arms a power cut `budget` stored bytes from now: the backend
    /// write that crosses the budget lands only its in-budget prefix
    /// and every later write fails, until [`revive`](Self::revive).
    /// The virtual-time mirror of
    /// `FaultyBackend`'s `FailureMode::PowerCutAfterBytes`.
    pub fn power_cut_after_bytes(&self, budget: u64) {
        self.crash.spent.set(0);
        self.crash.budget.set(Some(budget));
    }

    /// Whether injected failure has killed the simulated backend.
    pub fn is_dead(&self) -> bool {
        self.crash.dead.get()
    }

    /// Clears crash state — models the post-reboot remount.
    pub fn revive(&self) {
        self.crash.budget.set(None);
        self.crash.spent.set(0);
        self.crash.dead.set(false);
    }

    /// Overrides the restart read-cost model (default:
    /// [`ReadCostParams::shared_fs`]).
    pub fn set_read_costs(&self, costs: ReadCostParams) {
        self.read_costs.set(costs);
    }

    /// Enables (or disables) the transform-stage model. Affects chunks
    /// enqueued from this point on.
    pub fn set_transform(&self, model: Option<SimTransform>) {
        self.transform.set(model);
    }

    /// CPU time to decode and verify one chunk read back; zero without
    /// a transform model.
    fn decode_cost(&self, logical: u64) -> Duration {
        self.transform
            .get()
            .map_or(Duration::ZERO, |m| m.decode_cost(logical))
    }

    /// Enables the tiered-backend mirror (DESIGN.md §9): from here on
    /// chunk writes ack at `fast_bandwidth` and a background drain
    /// pump copies them to the durable tier (this mount's `target`,
    /// one serialized stream — drain bandwidth is the durable model's
    /// own). Above `watermark_hi` resident bytes the mount degrades to
    /// write-through; the pump re-arms fast acks at `watermark_lo`.
    /// Must be called inside a running `Sim` (it spawns the pump
    /// task). Affects chunks enqueued from this point on.
    pub fn enable_tier(&self, fast_bandwidth: u64, watermark_lo: u64, watermark_hi: u64) {
        assert!(watermark_lo <= watermark_hi, "tier watermarks inverted");
        let (tx, rx) = unbounded::<SimDrainOp>();
        let state = Rc::new(SimTierState {
            fast_bandwidth,
            watermark_lo,
            watermark_hi,
            resident: Cell::new(0),
            write_through: Cell::new(false),
            room: Notify::new(),
            outstanding: WaitGroup::new(),
            failed_since_barrier: Cell::new(0),
            tx,
        });
        let pump = Rc::clone(&state);
        let target = self.target.clone();
        let stats = Rc::clone(&self.stats);
        let crash = Rc::clone(&self.crash);
        let _task = simkit::spawn(async move {
            while let Some(op) = rx.recv().await {
                // The pump charges the crash budget: in a tiered stack
                // the injected power cut kills the durable tier, and
                // what it tears is a drain *copy* — the application
                // already has its ack.
                let t0 = now();
                let landed = match crash.plan(op.len) {
                    SimWritePlan::Full => {
                        target.write(op.backend_fid, op.offset, op.len).await;
                        op.len
                    }
                    SimWritePlan::Torn { keep } => {
                        if keep > 0 {
                            target.write(op.backend_fid, op.offset, keep).await;
                        }
                        stats.torn_bytes.set(stats.torn_bytes.get() + keep);
                        stats.drain_failed.set(stats.drain_failed.get() + 1);
                        pump.failed_since_barrier
                            .set(pump.failed_since_barrier.get() + 1);
                        keep
                    }
                    SimWritePlan::Fail => {
                        stats.drain_failed.set(stats.drain_failed.get() + 1);
                        pump.failed_since_barrier
                            .set(pump.failed_since_barrier.get() + 1);
                        0
                    }
                };
                stats.stages.drain_copy.record_dur(now().since(t0));
                stats.drain_ops.set(stats.drain_ops.get() + 1);
                stats.drain_bytes.set(stats.drain_bytes.get() + landed);
                stats.bytes_out.set(stats.bytes_out.get() + landed);
                let resident = pump.resident.get().saturating_sub(op.len);
                pump.resident.set(resident);
                if resident <= pump.watermark_lo {
                    pump.write_through.set(false);
                }
                pump.room.notify_all();
                pump.outstanding.done();
            }
        });
        *self.tier.borrow_mut() = Some(state);
    }

    /// Waits until every queued drain copy has been pumped to the
    /// durable tier — the virtual-time mirror of
    /// `TieredBackend::drain_barrier` (the epoch durability gate).
    /// Records the wait into `stages.drain_wait` and returns the
    /// number of drain copies lost to injected failure since the
    /// previous barrier: 0 means every acked byte is durable. No-op
    /// returning 0 when tiering is disabled.
    pub async fn drain_barrier(&self) -> u64 {
        let state = self.tier.borrow().clone();
        let Some(t) = state else {
            return 0;
        };
        let t0 = now();
        t.outstanding.wait().await;
        self.stats.stages.drain_wait.record_dur(now().since(t0));
        t.failed_since_barrier.take()
    }

    /// Fast-tier bytes acked but not yet drained (tiered mode).
    pub fn tier_resident(&self) -> u64 {
        self.tier.borrow().as_ref().map_or(0, |t| t.resident.get())
    }

    /// Whether the mirror is currently degraded to write-through.
    pub fn tier_write_through(&self) -> bool {
        self.tier
            .borrow()
            .as_ref()
            .is_some_and(|t| t.write_through.get())
    }

    /// Enables the snapshot-store mirror, retaining the newest
    /// `keep_epochs` sealed epochs (clamped to ≥ 1, like the real
    /// store). From here on every sealed chunk either stores a fresh
    /// content-addressed id or — on a dedup hit — re-references one,
    /// and [`advance_epoch`](Self::advance_epoch) seals manifests.
    pub fn enable_snapshots(&self, keep_epochs: usize) {
        *self.snap.borrow_mut() = Some(SimSnapState {
            keep_epochs: keep_epochs.max(1),
            ..SimSnapState::default()
        });
    }

    /// Seals the unsealed epoch into a manifest (carried ∪ staged ids,
    /// each taking one manifest reference), charges the manifest append
    /// and sync to the backend, and retires manifests past the
    /// retention bound (dropping their references — reclamation itself
    /// waits for [`gc`](Self::gc)). Returns the sealed epoch, or
    /// `None` when snapshots are disabled.
    pub async fn advance_epoch(&self) -> Option<u64> {
        let (epoch, manifest_bytes) = {
            let mut snap = self.snap.borrow_mut();
            let s = snap.as_mut()?;
            let mut ids: Vec<u64> = s.carried.drain(..).chain(s.staged.drain(..)).collect();
            ids.sort_unstable();
            ids.dedup();
            for id in &ids {
                if let Some(c) = s.cas.get_mut(id) {
                    c.1 += 1;
                }
            }
            let epoch = s.next_epoch;
            s.next_epoch += 1;
            // ~64 bytes per chunk record, like the real manifest.
            let bytes = 64 * ids.len() as u64 + 64;
            s.carried = ids.clone();
            s.manifests.push_back((epoch, ids));
            while s.manifests.len() > s.keep_epochs {
                let (_, old) = s.manifests.pop_front().expect("non-empty");
                for id in old {
                    if let Some(c) = s.cas.get_mut(&id) {
                        c.1 -= 1;
                    }
                }
            }
            (epoch, bytes)
        };
        let fid = match self.snap_fid.get() {
            Some(fid) => fid,
            None => {
                let fid = self.target.open().await;
                self.snap_fid.set(Some(fid));
                fid
            }
        };
        let at = self.snap_tail.get();
        self.snap_tail.set(at + manifest_bytes);
        self.target.write(fid, at, manifest_bytes).await;
        self.target.fsync(fid).await;
        // Epoch durability gate: the sealed manifest is only as durable
        // as the frames it references — mirror `Crfs::advance_epoch`'s
        // `drain_barrier` (DESIGN.md §9).
        self.drain_barrier().await;
        self.stats
            .epochs_sealed
            .set(self.stats.epochs_sealed.get() + 1);
        Some(epoch)
    }

    /// Mark-and-sweep over the content store: frees every chunk no
    /// retained manifest references — except ids staged in the unsealed
    /// epoch, which are protected exactly like the real store's
    /// inflight/staged registrations. Charges one metadata round trip
    /// per reclaimed chunk. Returns `(chunks, bytes)` reclaimed.
    pub async fn gc(&self) -> (u64, u64) {
        let victims: Vec<u64> = {
            let mut snap = self.snap.borrow_mut();
            let Some(s) = snap.as_mut() else {
                return (0, 0);
            };
            let protected: std::collections::HashSet<u64> =
                s.staged.iter().chain(s.carried.iter()).copied().collect();
            let ids: Vec<u64> = s
                .cas
                .iter()
                .filter(|(id, c)| c.1 == 0 && !protected.contains(id))
                .map(|(&id, _)| id)
                .collect();
            ids.iter()
                .map(|id| s.cas.remove(id).expect("collected above").0)
                .collect()
        };
        for _ in &victims {
            sleep(self.costs.per_request).await;
        }
        let bytes: u64 = victims.iter().sum();
        self.stats
            .gc_reclaimed_chunks
            .set(self.stats.gc_reclaimed_chunks.get() + victims.len() as u64);
        self.stats
            .gc_reclaimed_bytes
            .set(self.stats.gc_reclaimed_bytes.get() + bytes);
        (victims.len() as u64, bytes)
    }

    /// Live content-store population `(chunks, bytes)`.
    pub fn snapshot_live(&self) -> (u64, u64) {
        match self.snap.borrow().as_ref() {
            Some(s) => (
                s.cas.len() as u64,
                s.cas.values().map(|&(bytes, _)| bytes).sum(),
            ),
            None => (0, 0),
        }
    }

    /// Epochs whose manifests are retained (restartable-from), oldest
    /// first.
    pub fn retained_epochs(&self) -> Vec<u64> {
        match self.snap.borrow().as_ref() {
            Some(s) => s.manifests.iter().map(|&(e, _)| e).collect(),
            None => Vec::new(),
        }
    }

    /// Whether every chunk referenced by a retained manifest is still
    /// present in the content store — the invariant GC must preserve.
    pub fn retained_chunks_live(&self) -> bool {
        match self.snap.borrow().as_ref() {
            Some(s) => s
                .manifests
                .iter()
                .flat_map(|(_, ids)| ids)
                .all(|id| s.cas.contains_key(id)),
            None => true,
        }
    }

    /// Snapshot accounting for one sealed chunk: a dedup hit
    /// re-references an existing id from the carried (cross-epoch) or
    /// staged (intra-epoch) pool; a miss stores a fresh id and
    /// displaces one carried chunk — modeling the rewrite that made the
    /// content new.
    fn note_snapshot_chunk(&self, hit: bool, stored: u64) {
        let mut snap = self.snap.borrow_mut();
        let Some(s) = snap.as_mut() else {
            return;
        };
        if hit {
            let pool = if s.carried.is_empty() {
                &s.staged
            } else {
                &s.carried
            };
            if !pool.is_empty() {
                let id = pool[(s.hits_seen % pool.len() as u64) as usize];
                s.hits_seen += 1;
                s.staged.push(id);
                return;
            }
        }
        let id = s.next_id;
        s.next_id += 1;
        s.cas.insert(id, (stored, 0));
        if !hit {
            s.carried.pop();
        }
        s.staged.push(id);
        self.stats
            .snapshot_chunks
            .set(self.stats.snapshot_chunks.get() + 1);
        self.stats
            .snapshot_bytes
            .set(self.stats.snapshot_bytes.get() + stored);
    }

    /// The mount's chunking configuration.
    pub fn config(&self) -> &CrfsConfig {
        &self.config
    }

    /// Live statistics.
    pub fn stats(&self) -> &CrfsSimStats {
        &self.stats
    }

    /// open(): FUSE crossing + backend open + table entry (paper §IV-A).
    pub async fn open(&self) -> u64 {
        self.fuse.crossing(0).await;
        let backend_fid = self.target.open().await;
        let fh = self.next_fh.get();
        self.next_fh.set(fh + 1);
        self.files.borrow_mut().insert(
            fh,
            FileState {
                backend_fid,
                chunk: None,
                acct: Rc::new(RefCell::new(ChunkAccounting::new())),
                outstanding: WaitGroup::new(),
                read_next: 0,
                extent: 0,
                window: Rc::new(ReadWindow::default()),
            },
        );
        fh
    }

    /// Opens a checkpoint file for the restart phase, declaring its
    /// length (the real library learns it from the backend at open; the
    /// simulator's backends model time, not contents). The length caps
    /// the read-ahead window.
    pub async fn open_restart(&self, len: u64) -> u64 {
        let fh = self.open().await;
        if let Some(f) = self.files.borrow_mut().get_mut(&fh) {
            f.extent = len;
        }
        fh
    }

    /// An application `write()`: split at `max_write` like FUSE, then run
    /// each request through the aggregation path.
    pub async fn app_write(&self, fh: u64, offset: u64, len: u64) {
        let mut off = offset;
        for piece in self.fuse.split(len) {
            self.request_write(fh, off, piece).await;
            off += piece;
        }
    }

    /// One FUSE-sized request through CRFS (paper §IV-B).
    async fn request_write(&self, fh: u64, offset: u64, len: u64) {
        // Kernel crossing + kernel→user copy.
        self.fuse.crossing(len).await;
        // CRFS bookkeeping + copy into the aggregation chunk.
        let copy = Duration::from_secs_f64(len as f64 / self.costs.copy_bandwidth.max(1) as f64);
        sleep(self.costs.per_request + copy).await;

        let (mut cur, backend_fid, acct, wg) = {
            let files = self.files.borrow();
            let f = files.get(&fh).expect("write to closed CRFS file");
            (
                f.chunk,
                f.backend_fid,
                Rc::clone(&f.acct),
                f.outstanding.clone(),
            )
        };
        // Mirror of the real write path's batched submission: sealed
        // chunks collect in `pending` and go to the work queue together —
        // flushed early when the batch limit is reached or before a
        // blocking pool acquire (the awaited-on buffers only come back
        // once submitted chunks complete).
        let submit_batch = self.config.submit_batch;
        let mut pending: Vec<ChunkState> = Vec::new();
        let plan = plan_write(cur, offset, len as usize, self.config.chunk_size);
        for step in plan {
            match step {
                PlanStep::Seal => {
                    let c = cur.take().expect("plan seals existing chunk");
                    pending.push(c);
                    if pending.len() >= submit_batch {
                        self.enqueue_batch(backend_fid, &mut pending, &acct, &wg)
                            .await;
                    }
                }
                PlanStep::Open { file_offset } => {
                    match self.pool.try_acquire(1) {
                        Some(permit) => permit.forget(),
                        None => {
                            // Flush, then block: CRFS back-pressure.
                            self.enqueue_batch(backend_fid, &mut pending, &acct, &wg)
                                .await;
                            let t0 = now();
                            self.pool.acquire(1).await.forget();
                            self.stats.stages.pool_wait.record_dur(now().since(t0));
                        }
                    }
                    cur = Some(ChunkState {
                        file_offset,
                        fill: 0,
                    });
                }
                PlanStep::Append { len } => {
                    let c = cur.as_mut().expect("plan appends into open chunk");
                    c.fill += len;
                }
            }
        }
        self.enqueue_batch(backend_fid, &mut pending, &acct, &wg)
            .await;
        if let Some(f) = self.files.borrow_mut().get_mut(&fh) {
            f.chunk = cur;
            f.extent = f.extent.max(offset + len);
        }
        self.stats.requests.set(self.stats.requests.get() + 1);
        self.stats.bytes_in.set(self.stats.bytes_in.get() + len);
    }

    /// Sends a collected batch of sealed chunks to the IO workers as one
    /// submission, leaving `pending` empty. No-op on an empty batch.
    async fn enqueue_batch(
        &self,
        backend_fid: u64,
        pending: &mut Vec<ChunkState>,
        acct: &Rc<RefCell<ChunkAccounting>>,
        wg: &WaitGroup,
    ) {
        if pending.is_empty() {
            return;
        }
        self.stats
            .submit_batches
            .set(self.stats.submit_batches.get() + 1);
        for c in pending.drain(..) {
            self.enqueue(backend_fid, c, acct, wg).await;
        }
    }

    async fn enqueue(
        &self,
        backend_fid: u64,
        c: ChunkState,
        acct: &Rc<RefCell<ChunkAccounting>>,
        wg: &WaitGroup,
    ) {
        acct.borrow_mut().note_sealed();
        wg.add(1);
        self.stats
            .chunks_sealed
            .set(self.stats.chunks_sealed.get() + 1);
        // Transform stage: shrink the stored size per the model and
        // charge codec CPU time (spent in worker context, see the
        // worker task). Dedup hits store only a reference record.
        let logical = c.fill as u64;
        let mut hit = false;
        let (stored, compress) = match self.transform.get() {
            None => (logical, Duration::ZERO),
            Some(m) => {
                self.stats
                    .bytes_logical
                    .set(self.stats.bytes_logical.get() + logical);
                let acc = self.dedup_acc.get() + m.dedup_hit_rate.clamp(0.0, 1.0);
                let stored = if acc >= 1.0 {
                    self.dedup_acc.set(acc - 1.0);
                    self.stats.dedup_hits.set(self.stats.dedup_hits.get() + 1);
                    hit = true;
                    m.frame_overhead
                } else {
                    self.dedup_acc.set(acc);
                    (logical as f64 / m.compress_ratio.max(1.0)) as u64 + m.frame_overhead
                };
                self.stats
                    .bytes_stored
                    .set(self.stats.bytes_stored.get() + stored);
                (stored, m.encode_cost(logical, hit))
            }
        };
        self.note_snapshot_chunk(hit, stored);
        let sent = self
            .tx
            .send(WorkItem::Write {
                backend_fid,
                offset: c.file_offset,
                len: stored,
                compress,
                sealed_at: now(),
                acct: Rc::clone(acct),
                wg: wg.clone(),
            })
            .await;
        assert!(sent.is_ok(), "CRFS IO workers alive");
    }

    // ------------------------------------------------------------------
    // restart read phase (mirrors crfs-core's prefetching read engine)
    // ------------------------------------------------------------------

    /// An application `read()` during restart: served chunk-granularly
    /// against the file's prefetch window. Sequential streams keep a
    /// `read_ahead_chunks`-deep window of fetches in flight on the IO
    /// worker tasks (each holding one pool permit, like a cache buffer);
    /// segments whose chunk is fetched — or in flight, in which case
    /// the reader awaits it — count as hits, the rest charge the read
    /// model directly. Semantics mirror `crfs_core`'s `read_via_cache`.
    pub async fn app_read(&self, fh: u64, offset: u64, len: u64) -> u64 {
        self.fuse.crossing(len).await;
        let cs = self.config.chunk_size as u64;
        let (window, extent, sequential) = {
            let files = self.files.borrow();
            let f = files.get(&fh).expect("read of unknown CRFS file");
            (Rc::clone(&f.window), f.extent, f.read_next == offset)
        };
        let end = (offset + len).min(extent.max(offset));
        let mut pos = offset;
        while pos < end {
            let idx = pos / cs;
            let seg_end = ((idx + 1) * cs).min(end);
            if sequential && self.config.read_ahead_chunks > 0 {
                self.plan_read_ahead(&window, pos, extent).await;
            }
            let seg_t0 = now();
            match window.get(idx) {
                Some(fetch) => {
                    if !fetch.ready.get() {
                        // Waiting for the in-flight fetch IS the win:
                        // it started up to a window ago.
                        fetch.wg.wait().await;
                    }
                    self.stats.stages.read_hit.record_dur(now().since(seg_t0));
                    self.stats.read_hits.set(self.stats.read_hits.get() + 1);
                    if seg_end == (idx + 1) * cs || seg_end >= extent {
                        // Chunk fully consumed: permit back to the pool.
                        if window.remove(idx).is_some() {
                            self.pool.add_permits(1);
                        }
                    }
                }
                None => {
                    self.stats.read_misses.set(self.stats.read_misses.get() + 1);
                    charge_read(self.read_costs.get(), seg_end - pos).await;
                    // A miss decodes and verifies its whole frame to
                    // serve the segment.
                    let decode = self.decode_cost((extent - idx * cs).min(cs));
                    if !decode.is_zero() {
                        sleep(decode).await;
                        self.stats.stages.transform_decode.record_dur(decode);
                    }
                    self.stats.stages.read_miss.record_dur(now().since(seg_t0));
                }
            }
            pos = seg_end;
        }
        if let Some(f) = self.files.borrow_mut().get_mut(&fh) {
            f.read_next = pos;
        }
        self.stats.reads.set(self.stats.reads.get() + 1);
        pos - offset
    }

    /// Claims and enqueues the read-ahead window following `pos`:
    /// chunks not yet fetched take a pool permit (non-blocking — an
    /// exhausted pool simply means no prefetch) and go to the worker
    /// queue.
    async fn plan_read_ahead(&self, window: &Rc<ReadWindow>, pos: u64, extent: u64) {
        let cs = self.config.chunk_size as u64;
        let limit = extent.div_ceil(cs);
        let start = pos / cs;
        let end = (start + 1 + self.config.read_ahead_chunks as u64).min(limit);
        for idx in start..end {
            if window.contains(idx) {
                continue;
            }
            let Some(permit) = self.pool.try_acquire(1) else {
                break;
            };
            permit.forget();
            let fetch = window.insert(idx);
            self.stats
                .prefetch_issued
                .set(self.stats.prefetch_issued.get() + 1);
            let sent = self
                .tx
                .send(WorkItem::Read {
                    len: (extent - idx * cs).min(cs),
                    decode: self.decode_cost((extent - idx * cs).min(cs)),
                    issued_at: now(),
                    fetch,
                })
                .await;
            assert!(sent.is_ok(), "CRFS IO workers alive");
        }
    }

    /// close(): seal the partial chunk, wait until the complete-chunk
    /// count matches the write-chunk count, then close on the backend
    /// (paper §IV-C).
    pub async fn close(&self, fh: u64) {
        self.fuse.crossing(0).await;
        let (chunk, backend_fid, acct, wg, window) = {
            let mut files = self.files.borrow_mut();
            let f = files.get_mut(&fh).expect("close of unknown CRFS file");
            (
                f.chunk.take(),
                f.backend_fid,
                Rc::clone(&f.acct),
                f.outstanding.clone(),
                Rc::clone(&f.window),
            )
        };
        match flush_plan(chunk) {
            FlushStep::SealPartial(c) => {
                self.enqueue_batch(backend_fid, &mut vec![c], &acct, &wg)
                    .await
            }
            FlushStep::ReleaseEmpty(_) => self.pool.add_permits(1),
            FlushStep::Nothing => {}
        }
        let t0 = now();
        wg.wait().await;
        let waited = now().since(t0);
        if !waited.is_zero() {
            self.stats.stages.barrier_wait.record_dur(waited);
        }
        debug_assert!(acct.borrow().is_quiescent(), "barrier passed early");
        // Read-side epilogue: wait out in-flight prefetches and hand
        // every window permit back (mirrors the real close's
        // `ReadState::clear`).
        for fetch in window.drain_list() {
            if !fetch.ready.get() {
                fetch.wg.wait().await;
            }
            self.pool.add_permits(1);
        }
        self.target.close(backend_fid).await;
        self.files.borrow_mut().remove(&fh);
    }

    /// fsync(): flush the current chunk, wait out in-flight chunks, then
    /// fsync the backend (paper §IV-D2).
    pub async fn fsync(&self, fh: u64) {
        self.fuse.crossing(0).await;
        let (chunk, backend_fid, acct, wg) = {
            let mut files = self.files.borrow_mut();
            let f = files.get_mut(&fh).expect("fsync of unknown CRFS file");
            (
                f.chunk.take(),
                f.backend_fid,
                Rc::clone(&f.acct),
                f.outstanding.clone(),
            )
        };
        match flush_plan(chunk) {
            FlushStep::SealPartial(c) => {
                self.enqueue_batch(backend_fid, &mut vec![c], &acct, &wg)
                    .await
            }
            FlushStep::ReleaseEmpty(_) => self.pool.add_permits(1),
            FlushStep::Nothing => {}
        }
        let t0 = now();
        wg.wait().await;
        let waited = now().since(t0);
        if !waited.is_zero() {
            self.stats.stages.barrier_wait.record_dur(waited);
        }
        debug_assert!(acct.borrow().is_quiescent(), "barrier passed early");
        self.target.fsync(backend_fid).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;
    use simkit::time::now;
    use simkit::Sim;
    use storage_model::params::{AllocParams, CacheParams, DiskParams, VfsCostParams, GB, KB, MB};
    use storage_model::LocalFs;

    fn mount(seed: u64) -> (Rc<LocalFs>, Rc<CrfsSim>) {
        let fs = LocalFs::new(
            VfsCostParams::ext3_node(),
            AllocParams::ext3(),
            CacheParams::compute_node(),
            DiskParams::node_sata(),
            SimRng::new(seed),
        );
        let crfs = CrfsSim::new(
            Target::Ext3(Rc::clone(&fs)),
            CrfsConfig::default(),
            CrfsCostParams::paper(),
            FuseParams::paper(),
        );
        (fs, crfs)
    }

    #[test]
    fn sequential_stream_aggregates_into_chunks() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            let fh = crfs.open().await;
            // 10 MiB in 8 KiB writes → 2 full 4 MiB chunks + 1 partial.
            let mut off = 0;
            while off < 10 * MB {
                crfs.app_write(fh, off, 8 * KB).await;
                off += 8 * KB;
            }
            crfs.close(fh).await;
            assert_eq!(crfs.stats().chunks_sealed.get(), 3);
            assert_eq!(crfs.stats().chunks_completed.get(), 3);
            assert_eq!(crfs.stats().bytes_out.get(), 10 * MB);
            fs.stop();
        });
    }

    #[test]
    fn power_cut_tears_the_crossing_chunk_and_kills_the_backend() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            let fh = crfs.open().await;
            // Budget lands mid-way through the second 4 MiB chunk: the
            // first chunk writes in full, the second lands only a 1 MiB
            // prefix (kill-at-any-byte on virtual time), and the third
            // meets a dead backend.
            crfs.power_cut_after_bytes(5 * MB);
            crfs.app_write(fh, 0, 12 * MB).await;
            crfs.close(fh).await;
            assert!(crfs.is_dead());
            assert_eq!(crfs.stats().chunks_sealed.get(), 3);
            assert_eq!(
                crfs.stats().chunks_completed.get(),
                3,
                "failed chunks still complete — close barriers release"
            );
            assert_eq!(crfs.stats().failed_chunks.get(), 2);
            assert_eq!(crfs.stats().torn_bytes.get(), MB);
            assert_eq!(
                crfs.stats().bytes_out.get(),
                5 * MB,
                "exactly the byte budget reaches the backend"
            );
            // Post-reboot remount: writes flow again.
            crfs.revive();
            assert!(!crfs.is_dead());
            let fh2 = crfs.open().await;
            crfs.app_write(fh2, 0, 4 * MB).await;
            crfs.close(fh2).await;
            assert_eq!(crfs.stats().bytes_out.get(), 9 * MB);
            assert_eq!(crfs.stats().failed_chunks.get(), 2, "no new failures");
            fs.stop();
        });
    }

    #[test]
    fn close_waits_for_outstanding_chunks() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            let fh = crfs.open().await;
            crfs.app_write(fh, 0, 9 * MB).await;
            let t0 = now();
            crfs.close(fh).await;
            // Close must block while the backend absorbs the chunks.
            assert!(now().since(t0) > Duration::ZERO);
            assert_eq!(
                crfs.stats().chunks_sealed.get(),
                crfs.stats().chunks_completed.get()
            );
            fs.stop();
        });
    }

    #[test]
    fn pool_exhaustion_applies_backpressure() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            let fh = crfs.open().await;
            // Write far more than the 16 MiB pool quickly; the pool
            // semaphore must bound outstanding chunks at 4.
            crfs.app_write(fh, 0, 64 * MB).await;
            assert!(crfs.stats().chunks_sealed.get() >= 16);
            crfs.close(fh).await;
            assert_eq!(crfs.stats().bytes_out.get(), 64 * MB);
            fs.stop();
        });
    }

    /// The restart phase: replaying a checkpoint sequentially with
    /// read-ahead must be much faster than the pass-through baseline —
    /// the simulated counterpart of `exp restart`'s sweep.
    #[test]
    fn restart_prefetch_overlaps_read_latency() {
        fn run(read_ahead: usize) -> (f64, u64, u64) {
            let mut sim = Sim::new(3);
            sim.run(async move {
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams::compute_node(),
                    DiskParams::node_sata(),
                    SimRng::new(3),
                );
                let crfs = CrfsSim::new(
                    Target::Ext3(Rc::clone(&fs)),
                    CrfsConfig::default()
                        .with_chunk_size(256 << 10)
                        .with_pool_size(4 << 20)
                        .with_read_ahead(read_ahead),
                    CrfsCostParams::paper(),
                    FuseParams::paper(),
                );
                let image = 8 * MB;
                let fh = crfs.open_restart(image).await;
                let t0 = now();
                let mut off = 0;
                while off < image {
                    let n = crfs.app_read(fh, off, 64 * KB).await;
                    assert_eq!(n, 64 * KB);
                    off += n;
                }
                crfs.close(fh).await;
                let dt = now().since(t0).as_secs_f64();
                let hits = crfs.stats().read_hits.get();
                let misses = crfs.stats().read_misses.get();
                fs.stop();
                (dt, hits, misses)
            })
        }
        let (base_t, base_hits, base_misses) = run(0);
        let (pf_t, pf_hits, _pf_misses) = run(8);
        assert_eq!(base_hits, 0, "pass-through never hits");
        assert_eq!(base_misses, 128, "one miss per 64 KiB segment");
        assert!(pf_hits > 0, "prefetch window never served a hit");
        assert!(
            pf_t * 2.0 <= base_t,
            "prefetch {pf_t:.3}s must be ≥2x faster than pass-through {base_t:.3}s"
        );
    }

    #[test]
    fn restart_window_drains_cleanly_at_close() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            let fh = crfs.open_restart(4 * MB).await;
            // Read just enough to spin up a window, then close with
            // fetches still in flight: close must drain and return
            // every permit.
            crfs.app_read(fh, 0, 8 * KB).await;
            crfs.close(fh).await;
            assert!(crfs.stats().prefetch_issued.get() > 0);
            // All permits are back: a full-pool acquire succeeds.
            let permit = crfs.pool.try_acquire(crfs.config.pool_chunks());
            assert!(permit.is_some(), "window leaked pool permits");
            fs.stop();
        });
    }

    /// The virtual-time stage histograms mirror the real mount's
    /// observability schema: one `write_sync` sample per completed
    /// backend write, one read sample per counted hit/miss, a
    /// `prefetch_fill` sample per issued fetch — and, because the clock
    /// is simulated, two identical runs produce bit-identical
    /// distributions.
    #[test]
    fn stage_histograms_record_virtual_time_deterministically() {
        fn run(seed: u64) -> crfs_core::obs::StageSnapshots {
            let mut sim = Sim::new(seed);
            sim.run(async move {
                // A starved page cache (1 MiB dirty limit) throttles
                // backend writes to disk speed, so the two-chunk pool
                // genuinely blocks the producer.
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams {
                        dirty_limit: MB,
                        background_limit: MB / 2,
                        writeback_batch: MB,
                    },
                    DiskParams::node_sata(),
                    SimRng::new(seed),
                );
                let crfs = CrfsSim::new(
                    Target::Ext3(Rc::clone(&fs)),
                    CrfsConfig::default()
                        .with_chunk_size(256 << 10)
                        .with_pool_size(512 << 10)
                        .with_read_ahead(4),
                    CrfsCostParams::paper(),
                    FuseParams::paper(),
                );
                // Write phase: a two-chunk pool forces blocking
                // acquires once the disk falls behind; close exercises
                // the barrier.
                let fh = crfs.open().await;
                let mut off = 0;
                while off < 32 * MB {
                    crfs.app_write(fh, off, 64 * KB).await;
                    off += 64 * KB;
                }
                crfs.close(fh).await;
                // Restart phase: sequential reads through the window.
                let fh = crfs.open_restart(4 * MB).await;
                let mut off = 0;
                while off < 4 * MB {
                    crfs.app_read(fh, off, 64 * KB).await;
                    off += 64 * KB;
                }
                crfs.close(fh).await;

                let st = crfs.stats();
                let stages = st.stages.snapshot();
                assert_eq!(
                    stages.write_sync.count,
                    st.chunks_completed.get(),
                    "one write_sync sample per completed chunk"
                );
                assert_eq!(
                    stages.seal_to_submit.count,
                    st.chunks_sealed.get(),
                    "one queue-latency sample per sealed chunk"
                );
                assert_eq!(stages.read_hit.count, st.read_hits.get());
                assert_eq!(stages.read_miss.count, st.read_misses.get());
                assert_eq!(
                    stages.prefetch_fill.count,
                    st.prefetch_issued.get(),
                    "every issued fetch fills"
                );
                assert!(stages.pool_wait.count > 0, "4-chunk pool never blocked");
                assert!(stages.barrier_wait.count > 0, "close barrier never waited");
                assert!(
                    stages.write_sync.sum > 0 && stages.write_sync.p50 > 0,
                    "virtual write time not recorded"
                );
                fs.stop();
                stages
            })
        }
        let a = run(5);
        let b = run(5);
        assert_eq!(a, b, "virtual-time histograms must be deterministic");
    }

    /// The transform model: stored bytes shrink per the configured
    /// ratio + dedup rate, the accounting is exact, and on a
    /// disk-bound node the reduced volume buys virtual checkpoint
    /// time even after paying codec CPU.
    #[test]
    fn transform_model_reduces_stored_bytes_and_time() {
        fn run(model: Option<SimTransform>) -> (f64, u64, u64, u64) {
            let mut sim = Sim::new(7);
            sim.run(async move {
                let (fs, crfs) = mount(7);
                crfs.set_transform(model);
                let fh = crfs.open().await;
                let t0 = now();
                crfs.app_write(fh, 0, 32 * MB).await;
                crfs.close(fh).await;
                let dt = now().since(t0).as_secs_f64();
                let out = crfs.stats().bytes_out.get();
                let stored = crfs.stats().bytes_stored.get();
                let hits = crfs.stats().dedup_hits.get();
                fs.stop();
                (dt, out, stored, hits)
            })
        }
        let (base_t, base_out, _, _) = run(None);
        assert_eq!(base_out, 32 * MB, "no transform: logical bytes out");

        // 2x codec, every second chunk a dedup hit: 8 chunks of 4 MiB
        // → 4 refs + 4 data chunks of 2 MiB (+64B frames each).
        let model = SimTransform {
            compress_ratio: 2.0,
            dedup_hit_rate: 0.5,
            compress_bandwidth: 2 << 30,
            ..SimTransform::lz_like(0.5)
        };
        let (t, out, stored, hits) = run(Some(model));
        assert_eq!(hits, 4);
        assert_eq!(stored, 4 * (2 * MB) + 8 * 64);
        assert_eq!(out, stored, "backend is charged for stored bytes only");
        assert!(
            t < base_t,
            "compression must beat the disk-bound baseline: {t:.3}s vs {base_t:.3}s"
        );
    }

    /// [`SimTransform::lz_like`] at the byte-at-a-time LZ kernels' probe
    /// rates — the "before" of the sim-vs-real comparisons below.
    fn lz_bytewise(dedup_hit_rate: f64) -> SimTransform {
        SimTransform {
            compress_bandwidth: 307 << 20,
            decompress_bandwidth: 1400 << 20,
            ..SimTransform::lz_like(dedup_hit_rate)
        }
    }

    /// The benchmark's `full_cycle` write shape on virtual time — two
    /// ranks of 128 MiB in 128 KiB writes, 1 MiB chunks, a 16 MiB pool,
    /// three chunks in four dedup hits, no FUSE crossing (the harness
    /// calls `Vfs` in process) — priced before and after the payload
    /// digest. Two IO workers stand for the sandbox's two cores: stage
    /// CPU is charged as worker wall time, so the worker count is the
    /// CPU the model has. Prints the predicted `ckpt_ack_mibs` pair
    /// (CHANGES.md sets it beside the measured one).
    #[test]
    fn full_cycle_shape_prices_a_hit_and_a_miss_apart() {
        fn ack_mibs(model: SimTransform) -> (f64, Duration, Duration) {
            let mut sim = Sim::new(7);
            sim.run(async move {
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams::compute_node(),
                    DiskParams::node_sata(),
                    SimRng::new(7),
                );
                let config = CrfsConfig::default()
                    .with_chunk_size(MB as usize)
                    .with_pool_size(16 * MB as usize)
                    .with_io_threads(2);
                let in_process = FuseParams {
                    crossing: Duration::ZERO,
                    copy_bandwidth: u64::MAX,
                    ..FuseParams::paper()
                };
                let crfs = CrfsSim::new(
                    Target::Ext3(Rc::clone(&fs)),
                    config,
                    CrfsCostParams::paper(),
                    in_process,
                );
                crfs.set_transform(Some(model));
                let t0 = now();
                let ranks: Vec<_> = (0..2)
                    .map(|_| {
                        let crfs = Rc::clone(&crfs);
                        simkit::spawn(async move {
                            let fh = crfs.open().await;
                            for i in 0..1024 {
                                crfs.app_write(fh, i * 128 * KB, 128 * KB).await;
                            }
                            crfs.close(fh).await;
                        })
                    })
                    .collect();
                for rank in ranks {
                    rank.await;
                }
                let dt = now().since(t0).as_secs_f64();
                let encode = crfs.stats().stages.transform_encode.snapshot();
                fs.stop();
                // Cheapest and dearest chunk: a hit and a miss.
                let hit = encode.buckets.first().expect("chunks were encoded").0;
                (
                    256.0 / dt,
                    Duration::from_nanos(hit),
                    Duration::from_nanos(encode.max),
                )
            })
        }
        // Before the digest a written chunk was walked by FNV-1a-64
        // twice and by a word-mix lane once: `transform.checksum_mibs`
        // 749 and `transform.hash_mibs` 623 MiB/s at the parent commit,
        // 1 / (1/749 + 1/623) = 340 MiB/s for the pair.
        let fnv = SimTransform {
            digest_bandwidth: 340 << 20,
            ..lz_bytewise(0.75)
        };
        let (before, hit_before, miss_before) = ack_mibs(fnv);
        let (after, hit_after, miss_after) = ack_mibs(lz_bytewise(0.75));
        let (now, _, miss_now) = ack_mibs(SimTransform::lz_like(0.75));
        println!(
            "sim full_cycle ckpt_ack_mibs: {before:.0} (fnv: hit {hit_before:?}, miss \
             {miss_before:?}) -> {after:.0} (digest: hit {hit_after:?}, miss {miss_after:?}) \
             -> {now:.0} (word-wide lz: miss {miss_now:?})"
        );
        // A hit costs the digest alone, a miss the codec on top.
        assert!(hit_after < Duration::from_micros(300), "{hit_after:?}");
        assert!(
            miss_after > 10 * hit_after,
            "{miss_after:?} vs {hit_after:?}"
        );
        assert!(
            hit_before > 10 * hit_after,
            "{hit_before:?} vs {hit_after:?}"
        );
        // Measured on the benchmark: 430 -> 1,300 MiB/s.
        assert!(
            (1.8..4.5).contains(&(after / before)),
            "predicted {before:.0} -> {after:.0} MiB/s"
        );
        // The match finder: a miss is ~3x cheaper, and it is a quarter
        // of the chunks. Measured: 1,061 -> 1,544 MiB/s.
        assert!(miss_now * 2 < miss_after, "{miss_now:?} vs {miss_after:?}");
        assert!(
            (1.1..3.0).contains(&(now / after)),
            "predicted {after:.0} -> {now:.0} MiB/s"
        );
    }

    /// The restart twin of the test above: two readers of 128 MiB each
    /// in 128 KiB reads, 1 MiB chunks, read-ahead on two IO workers,
    /// and — a snapshot mount resolves every chunk to an LZ-encoded CAS
    /// file — every chunk pays decode plus the digest that verifies it.
    /// The backend is the page cache: a chunk's stored third at memcpy
    /// speed, i.e. ~10 GiB/s of logical bytes and a syscall. Prints the
    /// predicted `restart_mibs` pair (CHANGES.md sets it beside the
    /// measured one).
    #[test]
    fn full_cycle_restart_shape_prices_decode_and_digest_per_chunk() {
        fn restart_mibs(model: SimTransform) -> (f64, Duration) {
            let mut sim = Sim::new(7);
            sim.run(async move {
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams::compute_node(),
                    DiskParams::node_sata(),
                    SimRng::new(7),
                );
                let config = CrfsConfig::default()
                    .with_chunk_size(MB as usize)
                    .with_pool_size(16 * MB as usize)
                    .with_io_threads(2);
                let in_process = FuseParams {
                    crossing: Duration::ZERO,
                    copy_bandwidth: u64::MAX,
                    ..FuseParams::paper()
                };
                let crfs = CrfsSim::new(
                    Target::Ext3(Rc::clone(&fs)),
                    config,
                    CrfsCostParams::paper(),
                    in_process,
                );
                crfs.set_transform(Some(model));
                crfs.set_read_costs(ReadCostParams {
                    per_op: Duration::from_micros(10),
                    bandwidth: 10 * GB,
                });
                let t0 = now();
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        let crfs = Rc::clone(&crfs);
                        simkit::spawn(async move {
                            let fh = crfs.open_restart(128 * MB).await;
                            for i in 0..1024 {
                                crfs.app_read(fh, i * 128 * KB, 128 * KB).await;
                            }
                            crfs.close(fh).await;
                        })
                    })
                    .collect();
                for reader in readers {
                    reader.await;
                }
                let dt = now().since(t0).as_secs_f64();
                let decode = crfs.stats().stages.transform_decode.snapshot();
                assert_eq!(
                    decode.count, 256,
                    "every chunk is decoded and verified once"
                );
                fs.stop();
                (256.0 / dt, Duration::from_nanos(decode.max))
            })
        }
        let (before, chunk_before) = restart_mibs(lz_bytewise(0.75));
        let (after, chunk_after) = restart_mibs(SimTransform::lz_like(0.75));
        println!(
            "sim full_cycle restart_mibs: {before:.0} (decode+verify {chunk_before:?} a chunk) \
             -> {after:.0} ({chunk_after:?})"
        );
        // 1 MiB at 1,400 then 3,540 MiB/s, plus 1 MiB at 4,300 to verify.
        assert!(
            chunk_before > Duration::from_micros(900),
            "{chunk_before:?}"
        );
        assert!(chunk_after < Duration::from_micros(560), "{chunk_after:?}");
        // Measured on the benchmark: 1,700 -> 3,900 MiB/s.
        assert!(
            (1.4..3.0).contains(&(after / before)),
            "predicted {before:.0} -> {after:.0} MiB/s"
        );
    }

    /// The snapshot mirror: epochs seal manifests over shared chunks,
    /// retention retires old epochs, and GC reclaims exactly the
    /// unreferenced chunks — never one a retained manifest still needs.
    #[test]
    fn snapshot_epochs_retain_deltas_and_gc_reclaims_retired() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            crfs.set_transform(Some(SimTransform::lz_like(0.5)));
            crfs.enable_snapshots(2);
            for epoch in 0..4u64 {
                let fh = crfs.open().await;
                crfs.app_write(fh, 0, 32 * MB).await;
                crfs.close(fh).await;
                assert_eq!(crfs.advance_epoch().await, Some(epoch));
            }
            assert_eq!(crfs.stats().epochs_sealed.get(), 4);
            assert_eq!(crfs.retained_epochs(), vec![2, 3]);
            assert!(crfs.stats().snapshot_bytes.get() > 0);

            let (live_before, _) = crfs.snapshot_live();
            let t0 = now();
            let (chunks, bytes) = crfs.gc().await;
            assert!(chunks > 0 && bytes > 0, "retired epochs must reclaim");
            assert!(
                now().since(t0) > Duration::ZERO,
                "reclamation charges virtual time"
            );
            assert!(
                crfs.retained_chunks_live(),
                "GC freed a chunk a retained manifest references"
            );
            let (live_after, _) = crfs.snapshot_live();
            assert_eq!(live_after, live_before - chunks);
            assert_eq!(crfs.gc().await, (0, 0), "second sweep finds nothing");
            fs.stop();
        });
    }

    #[test]
    fn crfs_beats_native_for_concurrent_medium_writes() {
        // The headline effect, in miniature: 8 writers × medium writes on
        // one node, native ext3 vs CRFS over the same ext3 model.
        fn run(use_crfs: bool, seed: u64) -> f64 {
            let mut sim = Sim::new(seed);
            sim.run(async move {
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams::compute_node(),
                    DiskParams::node_sata(),
                    SimRng::new(seed),
                );
                let target = Target::Ext3(Rc::clone(&fs));
                let crfs = use_crfs.then(|| {
                    CrfsSim::new(
                        target.clone(),
                        CrfsConfig::default(),
                        CrfsCostParams::paper(),
                        FuseParams::paper(),
                    )
                });
                let t0 = now();
                let mut handles = Vec::new();
                for _ in 0..8 {
                    let target = target.clone();
                    let crfs = crfs.clone();
                    handles.push(simkit::spawn(async move {
                        match &crfs {
                            Some(c) => {
                                let fh = c.open().await;
                                let mut off = 0;
                                for _ in 0..256 {
                                    c.app_write(fh, off, 8 * KB).await;
                                    off += 8 * KB;
                                }
                                c.close(fh).await;
                            }
                            None => {
                                let fid = target.open().await;
                                let mut off = 0;
                                for _ in 0..256 {
                                    target.write(fid, off, 8 * KB).await;
                                    off += 8 * KB;
                                }
                                target.close(fid).await;
                            }
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                let dt = now().since(t0).as_secs_f64();
                fs.stop();
                dt
            })
        }
        let native = run(false, 5);
        let crfs = run(true, 5);
        assert!(
            native > crfs * 2.0,
            "native {native:.3}s should be ≫ CRFS {crfs:.3}s"
        );
    }

    /// The tier mirror's headline: the write phase acks at fast-tier
    /// speed, the drain pump lands every byte on the durable tier in
    /// the background, and the barrier accounts for all of it in the
    /// same stage schema as the real `TieredBackend`.
    #[test]
    fn tiered_mirror_acks_fast_and_drains_in_background() {
        fn run(tiered: bool) -> (f64, f64, u64, u64) {
            let mut sim = Sim::new(11);
            sim.run(async move {
                // Starve the page cache so the durable tier runs at
                // disk speed — the regime where tiering pays.
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams {
                        dirty_limit: MB,
                        background_limit: MB / 2,
                        writeback_batch: MB,
                    },
                    DiskParams::node_sata(),
                    SimRng::new(11),
                );
                let crfs = CrfsSim::new(
                    Target::Ext3(Rc::clone(&fs)),
                    CrfsConfig::default(),
                    CrfsCostParams::paper(),
                    FuseParams::paper(),
                );
                if tiered {
                    // Memory-speed fast tier, watermarks far above the
                    // working set: pure fast-ack mode.
                    crfs.enable_tier(8 << 30, 64 * MB, 256 * MB);
                }
                let fh = crfs.open().await;
                let t0 = now();
                crfs.app_write(fh, 0, 32 * MB).await;
                crfs.close(fh).await;
                let ack_t = now().since(t0).as_secs_f64();
                assert_eq!(crfs.drain_barrier().await, 0, "no injected failure");
                let total_t = now().since(t0).as_secs_f64();
                let st = crfs.stats();
                if tiered {
                    let stages = st.stages.snapshot();
                    assert_eq!(stages.drain_copy.count, st.drain_ops.get());
                    assert_eq!(stages.drain_wait.count, 1, "one barrier, one wait sample");
                    assert_eq!(st.drain_bytes.get(), 32 * MB);
                    assert_eq!(crfs.tier_resident(), 0, "barrier leaves nothing resident");
                }
                let out = (st.bytes_out.get(), st.drain_ops.get());
                fs.stop();
                (ack_t, total_t, out.0, out.1)
            })
        }
        let (base_ack, _, base_out, base_drains) = run(false);
        assert_eq!(base_out, 32 * MB);
        assert_eq!(base_drains, 0, "no tier, no drains");
        let (ack, total, out, drains) = run(true);
        assert_eq!(out, 32 * MB, "every acked byte reaches the durable tier");
        assert_eq!(drains, 8, "one drain copy per sealed 4 MiB chunk");
        assert!(
            ack * 2.0 <= base_ack,
            "fast-tier ack {ack:.3}s must be ≥2x faster than direct {base_ack:.3}s"
        );
        assert!(total > ack, "the drain barrier must cost virtual time");
    }

    /// Watermark backpressure: a tiny fast tier trips write-through
    /// under load, the pump drains it back under the low watermark,
    /// and fast acks re-arm — never an unbounded resident backlog.
    #[test]
    fn tiered_mirror_watermark_degrades_to_write_through() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            crfs.enable_tier(8 << 30, MB, 8 * MB);
            let fh = crfs.open().await;
            crfs.app_write(fh, 0, 64 * MB).await;
            crfs.close(fh).await;
            assert!(
                crfs.stats().write_through_chunks.get() > 0,
                "8 MiB high watermark never tripped under 64 MiB of dirty data"
            );
            assert_eq!(crfs.drain_barrier().await, 0);
            assert_eq!(crfs.tier_resident(), 0);
            assert!(
                !crfs.tier_write_through(),
                "a drained tier must re-arm fast acks"
            );
            assert_eq!(
                crfs.stats().bytes_out.get(),
                64 * MB,
                "write-through and drained bytes together cover the stream"
            );
            fs.stop();
        });
    }

    /// Crash during drain: the application keeps its fast-tier acks
    /// (no failed chunks), the durable tier receives exactly the byte
    /// budget, and the barrier surfaces the lost copies — the
    /// virtual-time twin of `TieredBackend`'s
    /// `crash_during_drain_fails_barrier_and_keeps_fast_prefix`.
    #[test]
    fn tiered_mirror_crash_during_drain_surfaces_lost_copies() {
        let mut sim = Sim::new(0);
        sim.run(async {
            let (fs, crfs) = mount(0);
            crfs.enable_tier(8 << 30, 64 * MB, 256 * MB);
            // Budget lands mid-way through the second of three 4 MiB
            // drain copies; the third meets a dead durable tier.
            crfs.power_cut_after_bytes(5 * MB);
            let fh = crfs.open().await;
            crfs.app_write(fh, 0, 12 * MB).await;
            crfs.close(fh).await;
            assert_eq!(
                crfs.stats().failed_chunks.get(),
                0,
                "the application acked from the fast tier — it saw no failure"
            );
            let lost = crfs.drain_barrier().await;
            assert_eq!(lost, 2, "the torn copy plus the copy against the dead tier");
            assert!(crfs.is_dead());
            assert_eq!(
                crfs.stats().bytes_out.get(),
                5 * MB,
                "exactly the byte budget reached the durable tier"
            );
            assert_eq!(crfs.stats().torn_bytes.get(), MB);
            assert_eq!(crfs.stats().drain_failed.get(), 2);
            // Post-reboot remount: revived, the next barrier is clean.
            crfs.revive();
            assert_eq!(crfs.drain_barrier().await, 0);
            fs.stop();
        });
    }
}
