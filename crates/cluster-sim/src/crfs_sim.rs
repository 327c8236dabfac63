//! CRFS on virtual time.
//!
//! The write path of `crfs-core` — buffer pool, per-file current chunk,
//! work queue, IO worker pool, close barrier — expressed as simulation
//! tasks: exactly what the paper's figures time (ranks stream BLCR
//! writes through the aggregation path, then close). Chunking decisions
//! are made by the *identical* [`crfs_core::chunking::plan_write`]
//! function, the close prologue by the shared
//! [`crfs_core::chunking::flush_plan`], and the barrier counters by the
//! shared [`crfs_core::engine::account::ChunkAccounting`] ledger, so the
//! simulated and the real filesystem provably agree on every
//! seal/open/append and on the barrier bookkeeping (a conformance test in
//! `/tests` replays the same stream through both). Restart reads, the
//! transform stage, snapshots, crash injection and tiering are not
//! modelled; the real library's own tests cover them.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use crfs_core::chunking::{flush_plan, plan_write, ChunkState, FlushStep, PlanStep};
use crfs_core::engine::account::ChunkAccounting;
use crfs_core::CrfsConfig;
use simkit::sync::{unbounded, Semaphore, Sender, WaitGroup};
use simkit::time::{now, sleep, SimTime};
use storage_model::params::{CrfsCostParams, FuseParams};

use crate::fuse::FuseLayer;
use crate::target::Target;

struct FileState {
    backend_fid: u64,
    chunk: Option<ChunkState>,
    /// Shared sealed/completed ledger (same type the real filesystem's
    /// `FileEntry` uses); the `WaitGroup` supplies the async wakeup the
    /// real side gets from its condvar.
    acct: Rc<RefCell<ChunkAccounting>>,
    outstanding: WaitGroup,
}

/// A sealed chunk heading to the backend.
struct WorkItem {
    backend_fid: u64,
    offset: u64,
    len: u64,
    /// Virtual seal instant — the worker records the queue latency
    /// (seal → issue) into `stages.seal_to_submit`, like the real
    /// engines consume `SealedChunk::sealed_at`.
    sealed_at: SimTime,
    acct: Rc<RefCell<ChunkAccounting>>,
    wg: WaitGroup,
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
    /// Per-stage latency distributions on *virtual* time — the same
    /// [`StageHistograms`](crfs_core::obs::StageHistograms) type (and
    /// percentile schema) the real mount surfaces, so a simulated sweep
    /// and a live BENCH artifact render through the same tooling. The
    /// sim records the write stages its model resolves: `pool_wait`,
    /// `seal_to_submit`, `write_sync` and `barrier_wait`.
    /// Deterministic: same seed, same histograms.
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
        // The worker-task count models the engine's in-flight op limit:
        // the simulated storage targets are synchronous, so each op
        // blocks one of the `io_threads` issue workers (the pool
        // semaphore still bounds total buffered chunks).
        for _ in 0..config.io_threads {
            let rx = rx.clone();
            let target = target.clone();
            let stats = Rc::clone(&stats);
            let pool = pool.clone();
            let _task = simkit::spawn(async move {
                while let Some(item) = rx.recv().await {
                    stats
                        .stages
                        .seal_to_submit
                        .record_dur(now().since(item.sealed_at));
                    let t0 = now();
                    target.write(item.backend_fid, item.offset, item.len).await;
                    stats.stages.write_sync.record_dur(now().since(t0));
                    stats.bytes_out.set(stats.bytes_out.get() + item.len);
                    stats.chunks_completed.set(stats.chunks_completed.get() + 1);
                    item.acct.borrow_mut().note_completed(Ok(()));
                    item.wg.done();
                    pool.add_permits(1);
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
        })
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
            },
        );
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
            acct.borrow_mut().note_sealed();
            wg.add(1);
            self.stats
                .chunks_sealed
                .set(self.stats.chunks_sealed.get() + 1);
            let sent = self
                .tx
                .send(WorkItem {
                    backend_fid,
                    offset: c.file_offset,
                    len: c.fill as u64,
                    sealed_at: now(),
                    acct: Rc::clone(acct),
                    wg: wg.clone(),
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
        let (chunk, backend_fid, acct, wg) = {
            let mut files = self.files.borrow_mut();
            let f = files.get_mut(&fh).expect("close of unknown CRFS file");
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
        self.target.close(backend_fid).await;
        self.files.borrow_mut().remove(&fh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;
    use simkit::Sim;
    use storage_model::params::{AllocParams, CacheParams, DiskParams, VfsCostParams, KB, MB};
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

    /// The virtual-time stage histograms mirror the real mount's
    /// observability schema for the write path: one `write_sync` sample
    /// per completed backend write, one `seal_to_submit` sample per
    /// sealed chunk — and, because the clock is simulated, two
    /// identical runs produce bit-identical distributions.
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
                        .with_pool_size(512 << 10),
                    CrfsCostParams::paper(),
                    FuseParams::paper(),
                );
                // A two-chunk pool forces blocking acquires once the
                // disk falls behind; close exercises the barrier.
                let fh = crfs.open().await;
                let mut off = 0;
                while off < 32 * MB {
                    crfs.app_write(fh, off, 64 * KB).await;
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
                assert!(stages.pool_wait.count > 0, "two-chunk pool never blocked");
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
}
