//! Observability: per-stage latency histograms and the flight recorder.
//!
//! The paper's claims are latency-shaped — write absorption in the
//! buffer pool, aggregation ahead of the backend, drain overlapped with
//! compute — but monotonic totals (sums of nanoseconds) cannot show
//! tail behaviour or reconstruct why one chunk was slow. This module
//! adds the two missing views (DESIGN.md §8):
//!
//! - [`Histogram`] / [`StageHistograms`]: wait-free log-bucketed latency
//!   distributions for every pipeline stage, from pool-acquire wait to
//!   GC pause, surfaced through
//!   [`StatsSnapshot`](crate::stats::StatsSnapshot) with
//!   p50/p90/p99/p999/max and embedded in every BENCH artifact.
//! - [`FlightRecorder`]: a bounded overwriting trace ring of typed
//!   chunk-lifecycle events with a monotonic logical clock, dumped as
//!   JSONL on `IntegrityError`, unmount, or demand, and decoded by the
//!   `crfs-stat` binary.
//!
//! Both are owned by [`CrfsStats`](crate::stats::CrfsStats), so every
//! existing instrumentation site can reach them without extra plumbing,
//! and both compile down to a relaxed load and a branch when disabled
//! (`CrfsConfig::with_obs(false)`), which is what the `exp obs` sweep
//! measures the enabled path against.

mod flight;
mod hist;

pub use flight::{EventKind, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS, SUB_BITS};

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

/// Declares the per-stage histogram set once: the live (atomic) struct,
/// its point-in-time snapshot twin, and the `named()` iteration both
/// render paths and the completeness shape-check drive.
macro_rules! stages {
    ($(($field:ident, $doc:literal)),* $(,)?) => {
        /// Per-stage latency histograms (all in nanoseconds), recorded
        /// wait-free from writers, IO workers and reapers. Owned by
        /// [`CrfsStats`](crate::stats::CrfsStats).
        #[derive(Debug, Default)]
        pub struct StageHistograms {
            enabled: AtomicBool,
            $(#[doc = $doc] pub $field: Histogram,)*
        }

        /// Point-in-time copy of [`StageHistograms`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StageSnapshots {
            $(#[doc = $doc] pub $field: HistogramSnapshot,)*
        }

        impl StageHistograms {
            /// Every stage, by its stable snake_case name (the JSON key
            /// and `crfs-stat` row label).
            pub fn named(&self) -> Vec<(&'static str, &Histogram)> {
                vec![$((stringify!($field), &self.$field),)*]
            }

            /// Snapshots every stage.
            pub fn snapshot(&self) -> StageSnapshots {
                StageSnapshots {
                    $($field: self.$field.snapshot(),)*
                }
            }
        }

        impl StageSnapshots {
            /// Every stage snapshot, by its stable snake_case name —
            /// the same order and names as [`StageHistograms::named`].
            pub fn named(&self) -> Vec<(&'static str, &HistogramSnapshot)> {
                vec![$((stringify!($field), &self.$field),)*]
            }
        }
    };
}

stages! {
    (pool_wait, "Time writers blocked acquiring a pool chunk (only acquisitions that blocked; matches `pool_waits`/`pool_wait_ns`)."),
    (seal_to_submit, "Queue latency from chunk seal to the engine issuing its backend write."),
    (transform_encode, "Write-side transform time per chunk: content hash, dedup lookup, codec, frame header."),
    (transform_decode, "Read-side transform time per frame: decode, reference resolution, checksum verify."),
    (write_sync, "Synchronous backend `write_at` duration per issued op (transformed chunks, and raw chunks on a backend without `begin_write_at`)."),
    (write_issue_to_complete, "Async span from `begin_write_at` issue to completion-sink callback, per op."),
    (read_hit, "Service time of chunk-granular read segments served from the prefetch cache."),
    (read_miss, "Service time of chunk-granular read segments that went to the backend directly."),
    (prefetch_fill, "Backend fetch time of one prefetch read, issue to cache-install."),
    (barrier_wait, "Time callers blocked in a close/fsync completion barrier (only waits that blocked; matches `barrier_wait_ns`)."),
    (snapshot_seal, "Time to seal one epoch manifest (merge, compact, write, sync, refcount)."),
    (gc_pause, "Snapshot GC stop-the-writers pause per collection (matches `GcReport::pause`)."),
    (drain_copy, "Tiered backend: one fast-to-durable drain copy, from a drain worker picking it to completion (fast-tier re-read, the wait for its turn at the device, the durable write and its ack)."),
    (drain_wait, "Tiered backend: time a caller blocked in `drain_barrier` waiting for the drain queue to empty and durable syncs to land."),
    (tier_promote, "Tiered backend: durable-to-fast whole-file promotion on a fast-tier read miss."),
}

impl StageHistograms {
    /// Enables or disables stage recording. When disabled, every
    /// recording site reduces to this one relaxed load and branch, and
    /// sites that would need an extra clock read skip it (see
    /// [`timer`](Self::timer)) — the no-op baseline the `exp obs`
    /// overhead gate compares against.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Whether stages are recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// A stage timer start: `Some(now)` when recording, `None` when
    /// disabled — so disabled instrumentation skips the clock read too.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_snapshot_preserves_order() {
        let stages = StageHistograms::default();
        stages.set_enabled(true);
        let live: Vec<&str> = stages.named().iter().map(|(n, _)| *n).collect();
        let mut dedup = live.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), live.len(), "duplicate stage name");
        stages.pool_wait.record(10);
        let snap = stages.snapshot();
        let snap_names: Vec<&str> = snap.named().iter().map(|(n, _)| *n).collect();
        assert_eq!(live, snap_names);
        assert_eq!(snap.pool_wait.count, 1);
    }

    #[test]
    fn disabled_stages_skip_the_timer() {
        let stages = StageHistograms::default();
        assert!(!stages.enabled(), "default-constructed stages are off");
        assert!(stages.timer().is_none());
        stages.set_enabled(true);
        assert!(stages.timer().is_some());
    }
}
