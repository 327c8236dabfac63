//! Mount-wide instrumentation counters.
//!
//! All counters are relaxed atomics — they are monotonic event counts whose
//! exact interleaving does not matter, only their totals. A coherent view
//! is taken with [`CrfsStats::snapshot`].
//!
//! Since the observability layer (DESIGN.md §8) the struct also owns the
//! per-stage latency [`StageHistograms`] and the [`FlightRecorder`]:
//! every instrumentation site already holds an `Arc<CrfsStats>`, so the
//! distributions and the event trace ride along with zero extra
//! plumbing. [`StatsSnapshot::to_value`] serializes the whole snapshot
//! — counters, derived ratios, gauges, stage distributions — to JSON
//! for BENCH artifacts and the `crfs-stat` inspector.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use crate::obs::{FlightRecorder, StageHistograms, StageSnapshots};

/// Live counters updated by the write path and the IO workers.
#[derive(Debug, Default)]
pub struct CrfsStats {
    /// `write()`/`write_at()` calls accepted.
    pub writes: AtomicU64,
    /// Bytes accepted from writers.
    pub bytes_in: AtomicU64,
    /// Bytes crfs-core itself memcpys on the checkpoint path: user bytes
    /// into a pool chunk, plus the codec's output on transformed mounts
    /// (see [`StatsSnapshot::copies_per_byte`]).
    pub bytes_copied: AtomicU64,
    /// Chunks sealed (enqueued to the work queue).
    pub chunks_sealed: AtomicU64,
    /// Chunks sealed while only partially full (close/fsync/discontinuity).
    pub partial_seals: AtomicU64,
    /// Seals forced by non-sequential writes.
    pub discontinuity_seals: AtomicU64,
    /// Chunks fully written to the backend by IO workers.
    pub chunks_completed: AtomicU64,
    /// Backend write operations issued by the IO engine, one per sealed
    /// chunk; equals `chunks_completed` at quiescence.
    pub backend_writes: AtomicU64,
    /// Sealed chunks the engine refused (submit racing shutdown); they
    /// complete with an error and never reach the backend.
    pub chunks_refused: AtomicU64,
    /// Bytes pushed to the backend.
    pub bytes_out: AtomicU64,
    /// Nanoseconds writers spent blocked waiting for a free chunk.
    pub pool_wait_ns: AtomicU64,
    /// Number of pool acquisitions that had to block.
    pub pool_waits: AtomicU64,
    /// Nanoseconds IO workers spent inside backend `write_at`.
    pub backend_write_ns: AtomicU64,
    /// Files opened (new table entries).
    pub opens: AtomicU64,
    /// Files fully closed (table entries retired).
    pub closes: AtomicU64,
    /// fsync() calls served.
    pub fsyncs: AtomicU64,
    /// Nanoseconds callers spent blocked in close/fsync barriers.
    pub barrier_wait_ns: AtomicU64,
    /// Open-file-table shard locks that were contended (a `try_lock`
    /// failed and the caller had to block).
    pub shard_lock_waits: AtomicU64,
    /// Engine submissions (`submit` + `submit_batch` calls) — the
    /// producer-side queue-lock acquisitions. With batching,
    /// `engine_submits < chunks_sealed`; see
    /// [`StatsSnapshot::avg_batch_len`].
    pub engine_submits: AtomicU64,
    /// `read()`/`read_at()` calls served.
    pub reads: AtomicU64,
    /// Bytes returned to readers.
    pub bytes_read: AtomicU64,
    /// Chunk-granular read segments served from the prefetch cache.
    pub read_hits: AtomicU64,
    /// Chunk-granular read segments that went to the backend directly.
    pub read_misses: AtomicU64,
    /// Read segments served from the backend directly while their own
    /// chunk's fill, claimed by the same read, was in flight (the
    /// demand-first rule of [`crate::prefetch`]). Not counted as misses.
    pub read_demand: AtomicU64,
    /// The deepest read-ahead window, in chunks, any file issued with.
    pub read_window_max: AtomicU64,
    /// Prefetch read chunks handed to the IO engine.
    pub prefetch_issued: AtomicU64,
    /// Prefetch read chunks retired by the engine (installed, discarded
    /// as stale, or refused at shutdown). Equals `prefetch_issued` at
    /// quiescence — the read-side twin of sealed == completed.
    pub prefetch_completed: AtomicU64,
    /// Prefetched chunks that never served a hit: evicted unread,
    /// invalidated by an overlapping write, failed, or refused.
    pub prefetch_wasted: AtomicU64,
    /// Logical chunk bytes entering the transform stage (pre-codec,
    /// pre-dedup). Zero on mounts without a codec.
    pub bytes_logical: AtomicU64,
    /// Frame bytes leaving the transform stage (headers + stored
    /// payloads + reference/truncation records) — what the backend
    /// actually receives. Zero on mounts without a codec.
    pub bytes_stored: AtomicU64,
    /// Chunks whose bytes were already stored this mount and were
    /// submitted as reference records instead of payloads.
    pub dedup_hits: AtomicU64,
    /// Reads that failed end-to-end integrity verification (checksum
    /// mismatch, malformed frame, undecodable stored bytes). Every one
    /// of these surfaced an error instead of corrupt bytes.
    pub integrity_failures: AtomicU64,
    /// Torn tails discarded by the open-scan recovery contract: a frame
    /// chain ended in a truncated header or a payload cut short by EOF
    /// (a crashed append), and the tail past the clean prefix was
    /// dropped (DESIGN.md §6).
    pub torn_tails: AtomicU64,
    /// Frame chains ended by a header that failed magic/CRC validation
    /// (torn header bytes, an out-of-order-completion hole, or rot) —
    /// the tail was discarded under the same contract.
    pub bad_header_crc: AtomicU64,
    /// Frame payloads that decoded but failed their checksum (or were
    /// undecodable) at read time — the in-bounds damage class the
    /// structural open scan cannot see. Each surfaced an
    /// `IntegrityError`; a subset of `integrity_failures`.
    pub bad_payload_checksum: AtomicU64,
    /// Nanoseconds spent in the transform stage (hash + encode on the
    /// write side, decode + verify on the read side).
    pub transform_ns: AtomicU64,
    /// Ops (write chunks + prefetch reads) currently inside an engine:
    /// accepted by a submit call but not yet retired. A gauge, not a
    /// monotonic counter — exactly zero at quiescence, so
    /// `chunks_sealed == chunks_completed + chunks_refused` and
    /// `ops_inflight == 0` together are the engine-conservation shape
    /// check at unmount.
    pub ops_inflight: AtomicU64,
    /// High-water mark of `ops_inflight` — the in-flight depth the
    /// engine actually reached. Bounded by `ring_depth` (and by the
    /// pool's chunk count: an op in flight holds a buffer).
    pub inflight_hwm: AtomicU64,
    /// Completion-retirement passes (batched or single). The engine
    /// counts one reap per retirement batch, so
    /// [`StatsSnapshot::avg_reap_len`] measures completion batching the
    /// way `avg_batch_len` measures submission batching.
    pub completion_reaps: AtomicU64,
    /// Write chunks retired across all reaps; equals `chunks_completed`
    /// at quiescence (refused chunks never reap).
    pub completion_reaped: AtomicU64,
    /// Chunks newly written to the content-addressed snapshot store
    /// (chunks whose bytes were already there cost nothing and are not
    /// counted). Zero on mounts without snapshots.
    pub snapshot_chunks: AtomicU64,
    /// Frame bytes those CAS writes stored — the *delta* an epoch
    /// actually cost. Counted separately from `bytes_stored` (which
    /// keeps tracking user-file frame traffic, reference records
    /// included, so `bytes_out == bytes_stored` keeps holding).
    pub snapshot_bytes: AtomicU64,
    /// Epoch manifests sealed (one per `advance_epoch` on a
    /// snapshot-enabled mount).
    pub snapshot_manifests: AtomicU64,
    /// CAS chunks reclaimed by the snapshot garbage collector.
    pub gc_reclaimed_chunks: AtomicU64,
    /// Stored bytes those reclaimed chunks held.
    pub gc_reclaimed_bytes: AtomicU64,
    /// Per-stage latency histograms (DESIGN.md §8). Disabled (a relaxed
    /// load and branch per site) on default-constructed stats; mounts
    /// enable them per `CrfsConfig::obs`.
    pub stages: StageHistograms,
    /// The chunk-lifecycle event trace ring (DESIGN.md §8). Same
    /// enablement story as `stages`.
    pub flight: FlightRecorder,
}

impl CrfsStats {
    /// Creates zeroed counters. Stage histograms and the flight
    /// recorder exist but start disabled —
    /// [`Crfs::mount`](crate::Crfs::mount) enables them per
    /// `CrfsConfig::obs` via
    /// [`configure_obs`](Self::configure_obs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or disarms) both observability pillars.
    pub fn configure_obs(&self, on: bool) {
        self.stages.set_enabled(on);
        self.flight.set_enabled(on);
    }

    /// Records `n` ops entering an engine (gauge up + high-water mark).
    /// Engines call this at submit-accept time, before the op can
    /// possibly retire, so the gauge never transiently underflows.
    pub fn note_inflight(&self, n: u64) {
        let now = self.ops_inflight.fetch_add(n, Relaxed) + n;
        self.inflight_hwm.fetch_max(now, Relaxed);
    }

    /// Records `n` ops leaving an engine (retired, installed, or
    /// refused). Paired with [`note_inflight`](Self::note_inflight) by
    /// the shared retire/refuse helpers in `engine`.
    pub fn note_retired(&self, n: u64) {
        self.ops_inflight.fetch_sub(n, Relaxed);
    }

    /// Takes a coherent-enough copy for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            writes: self.writes.load(Relaxed),
            bytes_in: self.bytes_in.load(Relaxed),
            bytes_copied: self.bytes_copied.load(Relaxed),
            chunks_sealed: self.chunks_sealed.load(Relaxed),
            partial_seals: self.partial_seals.load(Relaxed),
            discontinuity_seals: self.discontinuity_seals.load(Relaxed),
            chunks_completed: self.chunks_completed.load(Relaxed),
            backend_writes: self.backend_writes.load(Relaxed),
            chunks_refused: self.chunks_refused.load(Relaxed),
            bytes_out: self.bytes_out.load(Relaxed),
            pool_wait: Duration::from_nanos(self.pool_wait_ns.load(Relaxed)),
            pool_waits: self.pool_waits.load(Relaxed),
            backend_write: Duration::from_nanos(self.backend_write_ns.load(Relaxed)),
            opens: self.opens.load(Relaxed),
            closes: self.closes.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            barrier_wait: Duration::from_nanos(self.barrier_wait_ns.load(Relaxed)),
            shard_lock_waits: self.shard_lock_waits.load(Relaxed),
            engine_submits: self.engine_submits.load(Relaxed),
            reads: self.reads.load(Relaxed),
            bytes_read: self.bytes_read.load(Relaxed),
            read_hits: self.read_hits.load(Relaxed),
            read_misses: self.read_misses.load(Relaxed),
            read_demand: self.read_demand.load(Relaxed),
            read_window_max: self.read_window_max.load(Relaxed),
            prefetch_issued: self.prefetch_issued.load(Relaxed),
            prefetch_completed: self.prefetch_completed.load(Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Relaxed),
            bytes_logical: self.bytes_logical.load(Relaxed),
            bytes_stored: self.bytes_stored.load(Relaxed),
            dedup_hits: self.dedup_hits.load(Relaxed),
            integrity_failures: self.integrity_failures.load(Relaxed),
            torn_tails: self.torn_tails.load(Relaxed),
            bad_header_crc: self.bad_header_crc.load(Relaxed),
            bad_payload_checksum: self.bad_payload_checksum.load(Relaxed),
            transform: Duration::from_nanos(self.transform_ns.load(Relaxed)),
            ops_inflight: self.ops_inflight.load(Relaxed),
            inflight_hwm: self.inflight_hwm.load(Relaxed),
            completion_reaps: self.completion_reaps.load(Relaxed),
            completion_reaped: self.completion_reaped.load(Relaxed),
            snapshot_chunks: self.snapshot_chunks.load(Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Relaxed),
            snapshot_manifests: self.snapshot_manifests.load(Relaxed),
            gc_reclaimed_chunks: self.gc_reclaimed_chunks.load(Relaxed),
            gc_reclaimed_bytes: self.gc_reclaimed_bytes.load(Relaxed),
            pool_free_chunks: 0,
            pool_total_chunks: 0,
            stages: self.stages.snapshot(),
            flight_events: self.flight.recorded(),
        }
    }
}

/// Point-in-time copy of [`CrfsStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `write()`/`write_at()` calls accepted.
    pub writes: u64,
    /// Bytes accepted from writers.
    pub bytes_in: u64,
    /// Bytes crfs-core memcpyd on the checkpoint path.
    pub bytes_copied: u64,
    /// Chunks sealed (enqueued).
    pub chunks_sealed: u64,
    /// Seals of partially-full chunks.
    pub partial_seals: u64,
    /// Seals forced by non-sequential writes.
    pub discontinuity_seals: u64,
    /// Chunks completed by IO workers.
    pub chunks_completed: u64,
    /// Backend `write_at` operations issued.
    pub backend_writes: u64,
    /// Chunks refused by the engine (submit racing shutdown).
    pub chunks_refused: u64,
    /// Bytes written to the backend.
    pub bytes_out: u64,
    /// Total time writers blocked on the buffer pool.
    pub pool_wait: Duration,
    /// Pool acquisitions that blocked.
    pub pool_waits: u64,
    /// Total time workers spent in backend writes.
    pub backend_write: Duration,
    /// Files opened.
    pub opens: u64,
    /// Files closed.
    pub closes: u64,
    /// fsync calls.
    pub fsyncs: u64,
    /// Total time callers blocked in close/fsync barriers.
    pub barrier_wait: Duration,
    /// Contended open-file-table shard locks.
    pub shard_lock_waits: u64,
    /// Engine submissions (producer-side queue-lock acquisitions).
    pub engine_submits: u64,
    /// Read calls served.
    pub reads: u64,
    /// Bytes returned to readers.
    pub bytes_read: u64,
    /// Read segments served from the prefetch cache.
    pub read_hits: u64,
    /// Read segments that went to the backend directly.
    pub read_misses: u64,
    /// Read segments served directly while their own fill was in flight.
    pub read_demand: u64,
    /// The deepest read-ahead window any file issued with (chunks).
    pub read_window_max: u64,
    /// Prefetch chunks handed to the IO engine.
    pub prefetch_issued: u64,
    /// Prefetch chunks retired by the engine.
    pub prefetch_completed: u64,
    /// Prefetched chunks that never served a hit.
    pub prefetch_wasted: u64,
    /// Logical chunk bytes entering the transform stage.
    pub bytes_logical: u64,
    /// Frame bytes the transform stage handed to the backend.
    pub bytes_stored: u64,
    /// Chunks deduplicated into reference records.
    pub dedup_hits: u64,
    /// Reads that failed integrity verification (surfaced as errors).
    pub integrity_failures: u64,
    /// Torn tails discarded by the open-scan recovery contract
    /// (truncated header or payload cut short by EOF).
    pub torn_tails: u64,
    /// Frame chains ended by a header failing magic/CRC validation.
    pub bad_header_crc: u64,
    /// Payloads that failed checksum/decode at read time (a subset of
    /// `integrity_failures`).
    pub bad_payload_checksum: u64,
    /// Time spent in the transform stage (encode + decode + verify).
    pub transform: Duration,
    /// Ops inside an engine at snapshot time (gauge; zero at quiescence).
    pub ops_inflight: u64,
    /// High-water mark of `ops_inflight` over the mount's lifetime.
    pub inflight_hwm: u64,
    /// Completion-retirement passes executed by the engine.
    pub completion_reaps: u64,
    /// Write chunks retired across all reaps.
    pub completion_reaped: u64,
    /// Chunks newly written to the content-addressed snapshot store.
    pub snapshot_chunks: u64,
    /// Frame bytes those CAS writes stored (the per-epoch delta).
    pub snapshot_bytes: u64,
    /// Epoch manifests sealed.
    pub snapshot_manifests: u64,
    /// CAS chunks reclaimed by the snapshot GC.
    pub gc_reclaimed_chunks: u64,
    /// Stored bytes those reclaimed chunks held.
    pub gc_reclaimed_bytes: u64,
    /// Buffers free in the pool at snapshot time (occupancy gauge;
    /// filled by [`Crfs::stats`](crate::Crfs::stats), zero on raw
    /// [`CrfsStats::snapshot`] calls).
    pub pool_free_chunks: u64,
    /// Total buffers the pool owns (gauge; filled alongside
    /// `pool_free_chunks`).
    pub pool_total_chunks: u64,
    /// Per-stage latency distributions at snapshot time (all counts
    /// zero when the mount ran with `obs` disabled).
    pub stages: StageSnapshots,
    /// Flight-recorder events recorded over the mount's lifetime
    /// (monotonic; the ring itself only retains the most recent window).
    pub flight_events: u64,
}

/// `n / d`, or 0.0 while the denominator is still zero.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl StatsSnapshot {
    /// Mean bytes per sealed chunk — the aggregation factor actually
    /// achieved (ideal: the configured chunk size).
    pub fn mean_chunk_fill(&self) -> f64 {
        ratio(self.bytes_out, self.chunks_sealed)
    }

    /// Mean size of an incoming write.
    pub fn mean_write_size(&self) -> f64 {
        ratio(self.bytes_in, self.writes)
    }

    /// Copies per logical byte, `bytes_copied / bytes_in`. Exactly 1.0
    /// is the paper's data path: the pool chunk is the IO buffer.
    pub fn copies_per_byte(&self) -> f64 {
        ratio(self.bytes_copied, self.bytes_in)
    }

    /// Ratio of backend writes to application writes — how much CRFS
    /// reduced the backend request count (e.g. 7800 application writes to
    /// 6 chunk writes for the paper's LU.C node profile).
    pub fn aggregation_ratio(&self) -> f64 {
        ratio(self.writes, self.chunks_sealed)
    }

    /// Mean bytes per backend write — the transfer size the backend
    /// actually sees.
    pub fn mean_backend_write(&self) -> f64 {
        ratio(self.bytes_out, self.backend_writes)
    }

    /// Mean sealed chunks handed to the engine per submission call —
    /// ≥ 1 whenever anything was sealed; > 1 means batching collapsed
    /// producer-side queue-lock acquisitions.
    pub fn avg_batch_len(&self) -> f64 {
        ratio(self.chunks_sealed, self.engine_submits)
    }

    /// Mean write chunks retired per completion-reap pass — the
    /// completion-side twin of [`avg_batch_len`](Self::avg_batch_len).
    /// 1.0 on the per-chunk engines; > 1 whenever retirement batches.
    pub fn avg_reap_len(&self) -> f64 {
        ratio(self.completion_reaped, self.completion_reaps)
    }

    /// Stored-byte reduction achieved by the transform stage:
    /// `bytes_logical / bytes_stored`. 1.0 means no reduction; 0.0 when
    /// the transform stage never ran. Above 1.0, compression + dedup
    /// are shrinking the checkpoint volume.
    pub fn compress_ratio(&self) -> f64 {
        ratio(self.bytes_logical, self.bytes_stored)
    }

    /// Total damage events across all classes seen by the open scan and
    /// the read path. Zero on a mount that never met a torn or corrupt
    /// frame.
    pub fn damage_total(&self) -> u64 {
        self.torn_tails + self.bad_header_crc + self.bad_payload_checksum
    }

    /// Fraction of chunk-granular read segments served from the prefetch
    /// cache (0.0 when nothing was read).
    pub fn read_hit_rate(&self) -> f64 {
        ratio(self.read_hits, self.read_hits + self.read_misses)
    }

    /// Every monotonic counter of the snapshot, by the name of the
    /// [`CrfsStats`] atomic it was copied from (`Duration` fields under
    /// their original `_ns` names). This is the canonical counter list:
    /// the JSON serializer, the `crfs-stat` renderer, and the
    /// completeness shape-check all iterate it, so a counter added to
    /// [`CrfsStats`] but not here fails the build's shape test.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("writes", self.writes),
            ("bytes_in", self.bytes_in),
            ("bytes_copied", self.bytes_copied),
            ("chunks_sealed", self.chunks_sealed),
            ("partial_seals", self.partial_seals),
            ("discontinuity_seals", self.discontinuity_seals),
            ("chunks_completed", self.chunks_completed),
            ("backend_writes", self.backend_writes),
            ("chunks_refused", self.chunks_refused),
            ("bytes_out", self.bytes_out),
            ("pool_wait_ns", self.pool_wait.as_nanos() as u64),
            ("pool_waits", self.pool_waits),
            ("backend_write_ns", self.backend_write.as_nanos() as u64),
            ("opens", self.opens),
            ("closes", self.closes),
            ("fsyncs", self.fsyncs),
            ("barrier_wait_ns", self.barrier_wait.as_nanos() as u64),
            ("shard_lock_waits", self.shard_lock_waits),
            ("engine_submits", self.engine_submits),
            ("reads", self.reads),
            ("bytes_read", self.bytes_read),
            ("read_hits", self.read_hits),
            ("read_misses", self.read_misses),
            ("read_demand", self.read_demand),
            ("read_window_max", self.read_window_max),
            ("prefetch_issued", self.prefetch_issued),
            ("prefetch_completed", self.prefetch_completed),
            ("prefetch_wasted", self.prefetch_wasted),
            ("bytes_logical", self.bytes_logical),
            ("bytes_stored", self.bytes_stored),
            ("dedup_hits", self.dedup_hits),
            ("integrity_failures", self.integrity_failures),
            ("torn_tails", self.torn_tails),
            ("bad_header_crc", self.bad_header_crc),
            ("bad_payload_checksum", self.bad_payload_checksum),
            ("transform_ns", self.transform.as_nanos() as u64),
            ("ops_inflight", self.ops_inflight),
            ("inflight_hwm", self.inflight_hwm),
            ("completion_reaps", self.completion_reaps),
            ("completion_reaped", self.completion_reaped),
            ("snapshot_chunks", self.snapshot_chunks),
            ("snapshot_bytes", self.snapshot_bytes),
            ("snapshot_manifests", self.snapshot_manifests),
            ("gc_reclaimed_chunks", self.gc_reclaimed_chunks),
            ("gc_reclaimed_bytes", self.gc_reclaimed_bytes),
        ]
    }

    /// Serializes the whole snapshot — counters, gauges, derived
    /// ratios, stage distributions, flight-event total — as JSON. This
    /// is the schema BENCH artifacts embed and `crfs-stat --json`
    /// round-trips.
    pub fn to_value(&self) -> serde_json::Value {
        let counters: Vec<(String, serde_json::Value)> = self
            .counters()
            .into_iter()
            .map(|(name, v)| (name.to_string(), serde_json::json!(v)))
            .collect();
        let stages: Vec<(String, serde_json::Value)> = self
            .stages
            .named()
            .into_iter()
            .map(|(name, h)| (name.to_string(), h.to_value()))
            .collect();
        serde_json::json!({
            "counters": serde_json::Value::Object(counters),
            "gauges": {
                "pool_free_chunks": self.pool_free_chunks,
                "pool_total_chunks": self.pool_total_chunks,
            },
            "derived": {
                "mean_write_size": self.mean_write_size(),
                "copies_per_byte": self.copies_per_byte(),
                "mean_chunk_fill": self.mean_chunk_fill(),
                "aggregation_ratio": self.aggregation_ratio(),
                "mean_backend_write": self.mean_backend_write(),
                "avg_batch_len": self.avg_batch_len(),
                "avg_reap_len": self.avg_reap_len(),
                "compress_ratio": self.compress_ratio(),
                "damage_total": self.damage_total(),
                "read_hit_rate": self.read_hit_rate(),
            },
            "stages": serde_json::Value::Object(stages),
            "flight_events": self.flight_events,
        })
    }

    /// [`to_value`](Self::to_value), pretty-printed.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("infallible")
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "writes in : {:>10}  ({} bytes, mean {:.0} B, {:.2} copies/byte)",
            self.writes,
            self.bytes_in,
            self.mean_write_size(),
            self.copies_per_byte()
        )?;
        writeln!(
            f,
            "chunks out: {:>10}  ({} bytes, mean fill {:.0} B, {} partial, {} disc.)",
            self.chunks_sealed,
            self.bytes_out,
            self.mean_chunk_fill(),
            self.partial_seals,
            self.discontinuity_seals
        )?;
        writeln!(
            f,
            "aggregation ratio: {:.1} writes/chunk",
            self.aggregation_ratio()
        )?;
        writeln!(
            f,
            "backend ops: {:>9}  ({} chunks completed, mean {:.0} B{})",
            self.backend_writes,
            self.chunks_completed,
            self.mean_backend_write(),
            if self.chunks_refused > 0 {
                format!(", {} refused", self.chunks_refused)
            } else {
                String::new()
            }
        )?;
        writeln!(
            f,
            "pool waits: {} ({:?}); backend write time {:?}; barrier wait {:?}",
            self.pool_waits, self.pool_wait, self.backend_write, self.barrier_wait
        )?;
        writeln!(
            f,
            "submits: {} (avg batch {:.1} chunks); table shard waits: {}; pool free {}/{}",
            self.engine_submits,
            self.avg_batch_len(),
            self.shard_lock_waits,
            self.pool_free_chunks,
            self.pool_total_chunks
        )?;
        writeln!(
            f,
            "inflight: {} now / {} peak; reaps: {} (avg reap {:.1} chunks)",
            self.ops_inflight,
            self.inflight_hwm,
            self.completion_reaps,
            self.avg_reap_len()
        )?;
        writeln!(
            f,
            "reads: {} ({} bytes); cache hits {} / misses {} ({:.0}% hit) / demand {}; \
             prefetch {} issued, {} completed, {} wasted; window max {}",
            self.reads,
            self.bytes_read,
            self.read_hits,
            self.read_misses,
            self.read_hit_rate() * 100.0,
            self.read_demand,
            self.prefetch_issued,
            self.prefetch_completed,
            self.prefetch_wasted,
            self.read_window_max
        )?;
        if self.bytes_stored > 0 || self.integrity_failures > 0 {
            writeln!(
                f,
                "transform: {} logical -> {} stored ({:.2}x); {} dedup hits; \
                 {} integrity failures; {:?} in codec",
                self.bytes_logical,
                self.bytes_stored,
                self.compress_ratio(),
                self.dedup_hits,
                self.integrity_failures,
                self.transform
            )?;
        }
        if self.snapshot_manifests > 0 || self.snapshot_chunks > 0 {
            writeln!(
                f,
                "snapshots: {} manifests sealed; {} CAS chunks ({} bytes) stored; \
                 GC reclaimed {} chunks ({} bytes)",
                self.snapshot_manifests,
                self.snapshot_chunks,
                self.snapshot_bytes,
                self.gc_reclaimed_chunks,
                self.gc_reclaimed_bytes
            )?;
        }
        if self.damage_total() > 0 {
            writeln!(
                f,
                "damage: {} torn tails discarded, {} bad header CRCs, \
                 {} bad payload checksums",
                self.torn_tails, self.bad_header_crc, self.bad_payload_checksum
            )?;
        }
        let recorded: Vec<_> = self
            .stages
            .named()
            .into_iter()
            .filter(|(_, h)| h.count > 0)
            .collect();
        if !recorded.is_empty() {
            writeln!(
                f,
                "stage latency (us):      count /      p50 /      p99 /      max"
            )?;
            for (name, h) in recorded {
                writeln!(
                    f,
                    "  {name:<22} {:>8} / {:>8.1} / {:>8.1} / {:>8.1}",
                    h.count,
                    h.p50 as f64 / 1_000.0,
                    h.p99 as f64 / 1_000.0,
                    h.max as f64 / 1_000.0
                )?;
            }
        }
        if self.flight_events > 0 {
            writeln!(f, "flight recorder: {} events recorded", self.flight_events)?;
        }
        write!(
            f,
            "opens {} / closes {} / fsyncs {}",
            self.opens, self.closes, self.fsyncs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let s = CrfsStats::new();
        s.writes.fetch_add(10, Relaxed);
        s.bytes_in.fetch_add(1000, Relaxed);
        s.chunks_sealed.fetch_add(2, Relaxed);
        s.bytes_out.fetch_add(1000, Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 10);
        assert_eq!(snap.mean_write_size(), 100.0);
        assert_eq!(snap.mean_chunk_fill(), 500.0);
        assert_eq!(snap.aggregation_ratio(), 5.0);
    }

    /// Every ratio helper guards its denominator: an all-zero snapshot
    /// returns 0.0 everywhere, never NaN or a panic.
    #[test]
    fn empty_snapshot_ratios_are_zero() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.mean_chunk_fill(), 0.0);
        assert_eq!(snap.mean_write_size(), 0.0);
        assert_eq!(snap.copies_per_byte(), 0.0);
        assert_eq!(snap.aggregation_ratio(), 0.0);
        assert_eq!(snap.avg_batch_len(), 0.0);
        assert_eq!(snap.mean_backend_write(), 0.0);
        assert_eq!(snap.avg_reap_len(), 0.0);
        assert_eq!(snap.compress_ratio(), 0.0);
        assert_eq!(snap.read_hit_rate(), 0.0);
        assert_eq!(snap.damage_total(), 0);
    }

    /// The same guards hold one-sidedly: a numerator with no
    /// denominator (and vice versa) still yields finite values.
    #[test]
    fn one_sided_ratio_denominators_stay_finite() {
        let s = CrfsStats::new();
        // Numerators without their denominators.
        s.bytes_in.fetch_add(4096, Relaxed);
        s.bytes_out.fetch_add(4096, Relaxed);
        s.bytes_logical.fetch_add(4096, Relaxed);
        s.completion_reaped.fetch_add(7, Relaxed);
        s.read_hits.fetch_add(3, Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.mean_write_size(), 0.0, "writes == 0");
        assert_eq!(snap.mean_chunk_fill(), 0.0, "chunks_sealed == 0");
        assert_eq!(snap.mean_backend_write(), 0.0, "backend_writes == 0");
        assert_eq!(snap.avg_reap_len(), 0.0, "completion_reaps == 0");
        assert_eq!(snap.compress_ratio(), 0.0, "bytes_stored == 0");
        assert_eq!(snap.read_hit_rate(), 1.0, "hits with zero misses");
        for v in [
            snap.mean_write_size(),
            snap.mean_chunk_fill(),
            snap.aggregation_ratio(),
            snap.mean_backend_write(),
            snap.avg_batch_len(),
            snap.avg_reap_len(),
            snap.compress_ratio(),
            snap.read_hit_rate(),
        ] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn avg_batch_len_tracks_submission_batching() {
        let s = CrfsStats::new();
        s.chunks_sealed.fetch_add(32, Relaxed);
        s.engine_submits.fetch_add(4, Relaxed);
        assert_eq!(s.snapshot().avg_batch_len(), 8.0);
    }

    #[test]
    fn inflight_gauge_tracks_peak_and_balances() {
        let s = CrfsStats::new();
        s.note_inflight(3);
        s.note_inflight(5);
        assert_eq!(s.snapshot().ops_inflight, 8);
        assert_eq!(s.snapshot().inflight_hwm, 8);
        s.note_retired(6);
        s.note_inflight(1);
        let snap = s.snapshot();
        assert_eq!(snap.ops_inflight, 3);
        assert_eq!(snap.inflight_hwm, 8, "hwm latches the peak");
    }

    #[test]
    fn avg_reap_len_tracks_completion_batching() {
        let s = CrfsStats::new();
        assert_eq!(s.snapshot().avg_reap_len(), 0.0);
        s.completion_reaps.fetch_add(4, Relaxed);
        s.completion_reaped.fetch_add(32, Relaxed);
        assert_eq!(s.snapshot().avg_reap_len(), 8.0);
        let text = s.snapshot().to_string();
        assert!(text.contains("avg reap 8.0"), "{text}");
    }

    #[test]
    fn compress_ratio_tracks_stored_reduction() {
        let s = CrfsStats::new();
        assert_eq!(s.snapshot().compress_ratio(), 0.0, "transform never ran");
        s.bytes_logical.fetch_add(4096, Relaxed);
        s.bytes_stored.fetch_add(1024, Relaxed);
        assert_eq!(s.snapshot().compress_ratio(), 4.0);
        let text = s.snapshot().to_string();
        assert!(text.contains("4.00x"), "{text}");
    }

    #[test]
    fn damage_counters_surface_in_display_only_when_nonzero() {
        let s = CrfsStats::new();
        assert_eq!(s.snapshot().damage_total(), 0);
        assert!(!s.snapshot().to_string().contains("damage:"));
        s.torn_tails.fetch_add(2, Relaxed);
        s.bad_header_crc.fetch_add(1, Relaxed);
        s.bad_payload_checksum.fetch_add(3, Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.torn_tails, 2);
        assert_eq!(snap.bad_header_crc, 1);
        assert_eq!(snap.bad_payload_checksum, 3);
        assert_eq!(snap.damage_total(), 6);
        let text = snap.to_string();
        assert!(text.contains("2 torn tails discarded"), "{text}");
        assert!(text.contains("1 bad header CRCs"), "{text}");
        assert!(text.contains("3 bad payload checksums"), "{text}");
    }

    #[test]
    fn read_hit_rate_tracks_cache_effectiveness() {
        let s = CrfsStats::new();
        assert_eq!(s.snapshot().read_hit_rate(), 0.0);
        s.read_hits.fetch_add(3, Relaxed);
        s.read_misses.fetch_add(1, Relaxed);
        assert_eq!(s.snapshot().read_hit_rate(), 0.75);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = CrfsStats::new();
        s.writes.fetch_add(7800, Relaxed);
        let text = s.snapshot().to_string();
        assert!(text.contains("7800"));
        assert!(text.contains("aggregation ratio"));
    }
}
