//! Mount-time configuration.

use crate::error::{CrfsError, Result};
use crate::transform::CodecKind;

/// The IO engine of a mount. There is one ([`crate::engine::RingEngine`]).
///
/// Kept for `benchmark/src/workload.rs`; goes with the next benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Submission/completion queues over a slab of in-flight descriptors.
    #[default]
    Ring,
}

/// Configuration for a CRFS mount.
///
/// Defaults follow the paper's evaluation (§V-B): a 16 MiB buffer pool
/// split into 4 MiB chunks, drained by 4 IO threads, with FUSE
/// "big writes" (128 KiB request splitting) enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrfsConfig {
    /// Size of each aggregation chunk in bytes. The paper sweeps
    /// 128 KiB–4 MiB (Fig. 5) and settles on 4 MiB.
    pub chunk_size: usize,
    /// Total buffer-pool size in bytes; divided into
    /// `pool_size / chunk_size` chunks at mount time. The paper sweeps
    /// 4–64 MiB and settles on 16 MiB to bound memory stolen from the
    /// application.
    pub pool_size: usize,
    /// Number of IO worker threads draining the submission queue. The paper
    /// finds 4 "generally yields the best throughput" — enough to keep the
    /// backend busy, few enough to throttle backend contention.
    pub io_threads: usize,
    /// Largest single request accepted by the FUSE-like dispatch layer
    /// ([`Vfs`](crate::Vfs)). Linux FUSE with `big_writes` caps requests at
    /// 128 KiB; larger application writes arrive as multiple requests.
    pub max_write: usize,
    /// Maximum sealed chunks a single `write()` collects before handing
    /// them to the engine as one `submit_batch`. `1` disables batching.
    pub submit_batch: usize,
    /// Initial window, in chunks, of the read-ahead the restart read path
    /// issues when it detects sequential access: prefetch reads go through
    /// the IO engine (the same worker pool that drains writes) and park in
    /// the file's read cache. Over a store that takes fills
    /// asynchronously the window deepens up to
    /// [`resolved_read_window_max`](Self::resolved_read_window_max) (see
    /// [`crate::prefetch`]). `0` disables the read subsystem entirely —
    /// reads pass straight through to the backend, the paper's §IV-D1
    /// behavior.
    pub read_ahead_chunks: usize,
    /// Chunk transform codec (see [`crate::transform`]). The default,
    /// [`CodecKind::None`], disables the transform stage entirely —
    /// chunks land raw at their logical offsets, the paper's layout.
    /// Any other codec switches new files to the framed layout with
    /// per-chunk integrity checksums; `Identity` frames without
    /// compressing (the baseline isolating framing overhead).
    pub codec: CodecKind,
    /// Content-addressed chunk dedup (requires a codec, i.e. the framed
    /// layout): chunks whose bytes were already stored this mount emit
    /// a tiny reference record instead of their payload.
    pub dedup: bool,
    /// Versioned snapshot store (requires dedup): chunk payloads land
    /// once in a content-addressed store, every `advance_epoch` seals a
    /// durable manifest restartable via
    /// [`Crfs::open_restart`](crate::Crfs::open_restart), and
    /// [`Crfs::snapshot_gc`](crate::Crfs::snapshot_gc) reclaims unreferenced chunks. See
    /// [`crate::snapshot`].
    pub snapshots: bool,
    /// How many sealed epochs the snapshot store retains (older
    /// manifests are retired at each seal; their exclusive chunks
    /// become GC-reclaimable). Pinned epochs — ones with an open
    /// restart view — survive past the window.
    pub snapshot_keep_epochs: usize,
    /// In-flight descriptor slab size: the maximum ops (write chunks +
    /// prefetch reads) the IO engine keeps in flight at once. The
    /// effective bound is `min(ring_depth, pool_chunks)` — a chunk in
    /// flight holds a pool buffer.
    pub ring_depth: usize,
    /// Observability layer (DESIGN.md §8): per-stage latency histograms
    /// and the flight-recorder event trace. On by default — recording is
    /// wait-free and the `exp obs` sweep gates its overhead at ≤ 5%.
    /// `false` reduces every instrumentation site to a relaxed load and
    /// branch (the overhead-gate baseline).
    pub obs: bool,
    /// Where the flight recorder dumps its JSONL trace when the mount
    /// hits an `IntegrityError` or unmounts with damage recorded.
    /// `None` (default) disables automatic dumps; `crfs-stat` and
    /// [`Crfs::flight_record_jsonl`](crate::Crfs::flight_record_jsonl)
    /// still read the ring on demand.
    pub flight_dump: Option<String>,
    /// High watermark in bytes for
    /// [`TieredBackend`](crate::backend::TieredBackend) stacks built via
    /// [`from_config`](crate::backend::TieredBackend::from_config):
    /// undrained fast-tier bytes at which writes degrade to synchronous
    /// write-through (DESIGN.md §9). Ignored by single-tier mounts.
    pub tier_watermark_hi: u64,
    /// Low watermark in bytes: the drain must fall back to this before
    /// fast-tier acknowledgement resumes after a write-through episode.
    pub tier_watermark_lo: u64,
}

impl Default for CrfsConfig {
    fn default() -> Self {
        CrfsConfig {
            chunk_size: 4 << 20,
            pool_size: 16 << 20,
            io_threads: 4,
            max_write: 128 << 10,
            submit_batch: 16,
            read_ahead_chunks: 4,
            codec: CodecKind::None,
            dedup: false,
            snapshots: false,
            snapshot_keep_epochs: 4,
            ring_depth: 64,
            obs: true,
            flight_dump: None,
            tier_watermark_hi: 256 << 20,
            tier_watermark_lo: 64 << 20,
        }
    }
}

impl CrfsConfig {
    /// Convenience builder: sets the chunk size.
    pub fn with_chunk_size(mut self, bytes: usize) -> Self {
        self.chunk_size = bytes;
        self
    }

    /// Convenience builder: sets the total buffer-pool size.
    pub fn with_pool_size(mut self, bytes: usize) -> Self {
        self.pool_size = bytes;
        self
    }

    /// Convenience builder: sets the IO worker-thread count.
    pub fn with_io_threads(mut self, n: usize) -> Self {
        self.io_threads = n;
        self
    }

    /// Stores nothing: there is one IO engine. Kept for
    /// `benchmark/src/workload.rs`; goes with the next benchmark PR.
    pub fn with_engine(self, _engine: EngineKind) -> Self {
        self
    }

    /// Convenience builder: sets the submission batch limit.
    pub fn with_submit_batch(mut self, n: usize) -> Self {
        self.submit_batch = n;
        self
    }

    /// Convenience builder: sets the sequential read-ahead window in
    /// chunks (`0` disables prefetching).
    pub fn with_read_ahead(mut self, chunks: usize) -> Self {
        self.read_ahead_chunks = chunks;
        self
    }

    /// Convenience builder: selects the chunk transform codec
    /// ([`CodecKind::None`] disables the transform stage).
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Convenience builder: toggles content-addressed chunk dedup.
    pub fn with_dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Convenience builder: toggles the versioned snapshot store.
    pub fn with_snapshots(mut self, on: bool) -> Self {
        self.snapshots = on;
        self
    }

    /// Convenience builder: sets the snapshot-manifest retention window.
    pub fn with_snapshot_keep_epochs(mut self, epochs: usize) -> Self {
        self.snapshot_keep_epochs = epochs;
        self
    }

    /// Convenience builder: sets the IO engine's in-flight descriptor
    /// slab size.
    pub fn with_ring_depth(mut self, depth: usize) -> Self {
        self.ring_depth = depth;
        self
    }

    /// Convenience builder: toggles the observability layer (stage
    /// histograms + flight recorder).
    pub fn with_obs(mut self, on: bool) -> Self {
        self.obs = on;
        self
    }

    /// Convenience builder: sets the automatic flight-dump path.
    pub fn with_flight_dump(mut self, path: impl Into<String>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// Convenience builder: sets the tiered-backend watermarks (bytes).
    pub fn with_tier_watermarks(mut self, lo: u64, hi: u64) -> Self {
        self.tier_watermark_lo = lo;
        self.tier_watermark_hi = hi;
        self
    }

    /// Number of chunks the pool will hold.
    pub fn pool_chunks(&self) -> usize {
        self.pool_size / self.chunk_size.max(1)
    }

    /// Hash shards of the open-file table: `io_threads * 4` rounded up
    /// to a power of two. Concurrent open/write/close on different files
    /// only contend when their paths hash to the same shard.
    pub fn resolved_table_shards(&self) -> usize {
        (self.io_threads.max(1) * 4).next_power_of_two()
    }

    /// `io_threads * 2` rounded up to a power of two and capped at the
    /// pool's chunk count. The pool has one free list and ignores it;
    /// kept for `benchmark/src/probes.rs`, which passes it to
    /// [`BufferPool::with_shards`](crate::pool::BufferPool::with_shards).
    pub fn resolved_pool_shards(&self) -> usize {
        (self.io_threads.max(1) * 2)
            .next_power_of_two()
            .min(self.pool_chunks().max(1).next_power_of_two())
    }

    /// The deepest read-ahead window one file may reach:
    /// `read_ahead_chunks`, or half the pool if that is more, so one
    /// stream never holds more than half the pool in flight.
    pub fn resolved_read_window_max(&self) -> usize {
        self.read_ahead_chunks.max(self.pool_chunks() / 2)
    }

    /// Read-cache slots per open file (each can park one chunk-sized
    /// pool buffer): twice the deepest window
    /// ([`resolved_read_window_max`](Self::resolved_read_window_max)),
    /// rounded up to a power of two. Zero when prefetching is disabled.
    pub fn resolved_read_cache_slots(&self) -> usize {
        match self.read_ahead_chunks {
            0 => 0,
            _ => (self.resolved_read_window_max() * 2).next_power_of_two(),
        }
    }

    /// Validates the configuration, returning a descriptive error for any
    /// inconsistency.
    pub fn validate(&self) -> Result<()> {
        if self.chunk_size == 0 {
            return Err(CrfsError::Config("chunk_size must be non-zero".into()));
        }
        if self.pool_size < self.chunk_size {
            return Err(CrfsError::Config(format!(
                "pool_size ({}) must hold at least one chunk ({})",
                self.pool_size, self.chunk_size
            )));
        }
        if self.pool_chunks() < 2 {
            return Err(CrfsError::Config(format!(
                "pool must hold at least 2 chunks to pipeline (got {}); \
                 grow pool_size or shrink chunk_size",
                self.pool_chunks()
            )));
        }
        if self.io_threads == 0 {
            return Err(CrfsError::Config("io_threads must be at least 1".into()));
        }
        if self.max_write == 0 {
            return Err(CrfsError::Config("max_write must be non-zero".into()));
        }
        if self.submit_batch == 0 {
            return Err(CrfsError::Config(
                "submit_batch must be at least 1 (1 disables batching)".into(),
            ));
        }
        if self.dedup && self.codec == CodecKind::None {
            return Err(CrfsError::Config(
                "dedup requires the framed layout: set codec to identity, rle or lz".into(),
            ));
        }
        if self.snapshots && !self.dedup {
            return Err(CrfsError::Config(
                "snapshots require dedup (the content-addressed store is keyed by \
                 the dedup index's chunk hashes): enable dedup and a codec"
                    .into(),
            ));
        }
        if self.snapshots && self.snapshot_keep_epochs == 0 {
            return Err(CrfsError::Config(
                "snapshot_keep_epochs must be at least 1".into(),
            ));
        }
        if self.ring_depth < 2 {
            return Err(CrfsError::Config(
                "ring_depth must be at least 2 to pipeline".into(),
            ));
        }
        if self.tier_watermark_lo > self.tier_watermark_hi {
            return Err(CrfsError::Config(format!(
                "tier_watermark_lo ({}) must not exceed tier_watermark_hi ({})",
                self.tier_watermark_lo, self.tier_watermark_hi
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = CrfsConfig::default();
        assert_eq!(c.chunk_size, 4 << 20);
        assert_eq!(c.pool_size, 16 << 20);
        assert_eq!(c.io_threads, 4);
        assert_eq!(c.max_write, 128 << 10);
        assert_eq!(c.pool_chunks(), 4);
        c.validate().unwrap();
    }

    #[test]
    fn ring_knobs_default_and_validate() {
        let c = CrfsConfig::default();
        assert_eq!(c.ring_depth, 64);
        let c = c.with_ring_depth(16);
        c.validate().unwrap();
        assert!(c.with_ring_depth(1).validate().is_err());
    }

    /// The knob budget: 15 fields. A new field fails to compile here
    /// until this statement of the budget is edited with it.
    #[test]
    fn config_has_exactly_fifteen_knobs() {
        let CrfsConfig {
            chunk_size: _,
            pool_size: _,
            io_threads: _,
            max_write: _,
            submit_batch: _,
            read_ahead_chunks: _,
            codec: _,
            dedup: _,
            snapshots: _,
            snapshot_keep_epochs: _,
            ring_depth: _,
            obs: _,
            flight_dump: _,
            tier_watermark_hi: _,
            tier_watermark_lo: _,
        } = CrfsConfig::default();
    }

    #[test]
    fn builders_compose() {
        let c = CrfsConfig::default()
            .with_chunk_size(1 << 20)
            .with_pool_size(8 << 20)
            .with_io_threads(2);
        assert_eq!(c.pool_chunks(), 8);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(CrfsConfig::default().with_chunk_size(0).validate().is_err());
        assert!(CrfsConfig::default().with_io_threads(0).validate().is_err());
        assert!(CrfsConfig::default()
            .with_pool_size(1 << 20)
            .validate()
            .is_err());
        // A pool of exactly one chunk cannot pipeline.
        assert!(CrfsConfig::default()
            .with_chunk_size(16 << 20)
            .validate()
            .is_err());
        let c = CrfsConfig {
            max_write: 0,
            ..CrfsConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(CrfsConfig::default()
            .with_submit_batch(0)
            .validate()
            .is_err());
    }

    #[test]
    fn read_cache_slots_resolve() {
        let c = CrfsConfig::default(); // read_ahead 4
        assert_eq!(c.resolved_read_cache_slots(), 8);
        let c = c.with_read_ahead(0);
        assert_eq!(c.resolved_read_cache_slots(), 0, "disabled read path");
        let c = c.with_read_ahead(3);
        assert_eq!(c.resolved_read_cache_slots(), 8); // next_pow2(3 * 2)
        c.validate().unwrap();
        // A 16-chunk pool lets the window deepen to 8 chunks.
        let c = c.with_chunk_size(1 << 20);
        assert_eq!(c.resolved_read_window_max(), 8);
        assert_eq!(c.resolved_read_cache_slots(), 16);
    }

    #[test]
    fn shard_counts_resolve_to_powers_of_two() {
        let c = CrfsConfig::default().with_io_threads(3);
        assert_eq!(c.resolved_table_shards(), 16); // next_pow2(3 * 4)
        assert_eq!(c.resolved_pool_shards(), 4); // next_pow2(3 * 2) capped at 4 chunks
        c.validate().unwrap();
    }

    #[test]
    fn codec_and_dedup_knobs_validate() {
        let c = CrfsConfig::default();
        assert_eq!(c.codec, CodecKind::None);
        assert!(!c.dedup);
        let c = c.with_codec(CodecKind::Lz).with_dedup(true);
        c.validate().unwrap();
        // Dedup without the framed layout is rejected.
        assert!(CrfsConfig::default().with_dedup(true).validate().is_err());
        assert_eq!(CodecKind::parse("lz"), Some(CodecKind::Lz));
    }

    #[test]
    fn snapshot_knobs_validate() {
        let c = CrfsConfig::default();
        assert!(!c.snapshots);
        assert_eq!(c.snapshot_keep_epochs, 4);
        let c = c
            .with_codec(CodecKind::Lz)
            .with_dedup(true)
            .with_snapshots(true);
        c.validate().unwrap();
        // Snapshots without dedup (and hence without a codec) are rejected.
        assert!(CrfsConfig::default()
            .with_snapshots(true)
            .validate()
            .is_err());
        assert!(CrfsConfig::default()
            .with_codec(CodecKind::Lz)
            .with_snapshots(true)
            .validate()
            .is_err());
        assert!(c.with_snapshot_keep_epochs(0).validate().is_err());
    }

    #[test]
    fn obs_knobs_default_on_and_compose() {
        let c = CrfsConfig::default();
        assert!(c.obs, "observability is on by default");
        assert_eq!(c.flight_dump, None);
        let c = c.with_obs(false).with_flight_dump("/tmp/flight.jsonl");
        assert!(!c.obs);
        assert_eq!(c.flight_dump.as_deref(), Some("/tmp/flight.jsonl"));
        c.validate().unwrap();
    }

    #[test]
    fn tier_knobs_default_validate_and_resolve() {
        use crate::backend::{Backend, MemBackend, TieredBackend};
        use std::sync::Arc;
        let c = CrfsConfig::default();
        assert_eq!(c.tier_watermark_hi, 256 << 20);
        assert_eq!(c.tier_watermark_lo, 64 << 20);
        let c = c.with_tier_watermarks(1 << 20, 8 << 20);
        c.validate().unwrap();
        assert_eq!(
            (c.tier_watermark_lo, c.tier_watermark_hi),
            (1 << 20, 8 << 20)
        );
        let mem = || Arc::new(MemBackend::new()) as Arc<dyn Backend>;
        let stack = TieredBackend::from_config(mem(), mem(), &c);
        assert!(!stack.write_through_active());
        drop(stack);
        // Inverted watermarks are rejected, and no stack is built on them.
        let inverted = c.with_tier_watermarks(8 << 20, 1 << 20);
        assert!(inverted.validate().is_err());
        let built =
            std::panic::catch_unwind(|| TieredBackend::from_config(mem(), mem(), &inverted));
        assert!(built.is_err(), "a stack on inverted watermarks");
    }
}
