//! Wall-clock device throttling wrapper.
//!
//! Wraps any [`Backend`] and makes its writes cost real time according to a
//! simple device model: a per-operation latency plus `bytes / bandwidth`,
//! serialized through a single device timeline (like one disk spindle or
//! one NFS server). This lets the *real* CRFS library demonstrate the
//! paper's contention effects — many concurrent writers queueing on a slow
//! device, and CRFS's IO-thread throttling relieving them — without any
//! cluster hardware. The simulator (`cluster-sim`) provides the calibrated
//! virtual-time models; this wrapper provides live, wall-clock intuition
//! for examples and stress tests.

use parking_lot::Mutex;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{Backend, BackendFile, OpenOptions};

/// Device model parameters for [`ThrottledBackend`].
#[derive(Debug, Clone, Copy)]
pub struct ThrottleParams {
    /// Sustained device bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Fixed cost charged to every write operation (seek/RPC overhead).
    pub per_op_latency: Duration,
    /// Extra fixed cost charged when a write is *not* sequential with the
    /// previous write on the device (disk head seek). Set to zero for
    /// seek-free devices.
    pub seek_penalty: Duration,
}

impl ThrottleParams {
    /// Roughly a 2007-era 7200rpm SATA disk: 75 MB/s, 0.1 ms setup,
    /// 8.5 ms seek — the class of disk in the paper's testbed.
    pub fn sata_disk() -> ThrottleParams {
        ThrottleParams {
            bandwidth: 75 * 1024 * 1024,
            per_op_latency: Duration::from_micros(100),
            seek_penalty: Duration::from_micros(8500),
        }
    }
}

struct DeviceTimeline {
    /// When the device becomes free (monotonic deadline).
    busy_until: Instant,
    /// (file identity, next expected offset) of the last write, for
    /// sequentiality detection.
    last: Option<(u64, u64)>,
}

/// A [`Backend`] decorator charging wall-clock time per write.
pub struct ThrottledBackend<B> {
    inner: B,
    params: ThrottleParams,
    timeline: Arc<Mutex<DeviceTimeline>>,
    next_file_id: std::sync::atomic::AtomicU64,
}

impl<B: Backend> ThrottledBackend<B> {
    /// Wraps `inner` with the given device model.
    pub fn new(inner: B, params: ThrottleParams) -> ThrottledBackend<B> {
        ThrottledBackend {
            inner,
            params,
            timeline: Arc::new(Mutex::new(DeviceTimeline {
                busy_until: Instant::now(),
                last: None,
            })),
            next_file_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Backend> Backend for ThrottledBackend<B> {
    fn name(&self) -> &str {
        "throttled"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let file = self.inner.open(path, opts)?;
        let id = self
            .next_file_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Box::new(ThrottledFile {
            inner: file,
            params: self.params,
            timeline: Arc::clone(&self.timeline),
            id,
        }))
    }

    crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
        file_len, list_dir, drain_barrier, attach_stats);
}

struct ThrottledFile {
    inner: Box<dyn BackendFile>,
    params: ThrottleParams,
    timeline: Arc<Mutex<DeviceTimeline>>,
    id: u64,
}

impl ThrottledFile {
    /// Reserves device time for an `len`-byte write at `offset` and sleeps
    /// until the reservation completes. The timeline lock is held only to
    /// compute the reservation, not while sleeping, so concurrent callers
    /// queue naturally.
    fn charge_write(&self, offset: u64, len: usize) {
        let service = {
            let transfer =
                Duration::from_secs_f64(len as f64 / self.params.bandwidth.max(1) as f64);
            let mut tl = self.timeline.lock();
            let sequential = tl.last == Some((self.id, offset));
            let seek = if sequential {
                Duration::ZERO
            } else {
                self.params.seek_penalty
            };
            let now = Instant::now();
            let start = tl.busy_until.max(now);
            let done = start + self.params.per_op_latency + seek + transfer;
            tl.busy_until = done;
            tl.last = Some((self.id, offset + len as u64));
            done
        };
        let now = Instant::now();
        if service > now {
            std::thread::sleep(service - now);
        }
    }
}

impl BackendFile for ThrottledFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.charge_write(offset, data.len());
        self.inner.write_at(offset, data)
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn super::CompletionSink>,
    ) -> io::Result<bool> {
        // The device-time reservation is the submission cost either way;
        // an async-capable inner backend then keeps its completion path
        // instead of the whole stack degrading to the sync shim. A
        // sync-only inner backend gets the write issued here with an
        // inline completion — returning `Ok(false)` after charging would
        // make the engine's `write_at` fallback charge the device twice.
        self.charge_write(offset, data.len());
        if self.inner.begin_write_at(token, offset, data, sink)? {
            return Ok(true);
        }
        sink.complete(token, self.inner.write_at(offset, data));
        Ok(true)
    }

    crate::forward_file_ops!(inner: read_at, sync, len, set_len, is_empty);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn sequential_writes_avoid_seek_penalty() {
        let params = ThrottleParams {
            bandwidth: u64::MAX,
            per_op_latency: Duration::ZERO,
            seek_penalty: Duration::from_millis(5),
        };
        let be = ThrottledBackend::new(MemBackend::new(), params);
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();

        // First write seeks; the next two are sequential.
        let t0 = Instant::now();
        f.write_at(0, &[0; 64]).unwrap();
        f.write_at(64, &[0; 64]).unwrap();
        f.write_at(128, &[0; 64]).unwrap();
        let seq = t0.elapsed();

        // Random writes all seek.
        let t1 = Instant::now();
        f.write_at(1000, &[0; 64]).unwrap();
        f.write_at(0, &[0; 64]).unwrap();
        f.write_at(500, &[0; 64]).unwrap();
        let rnd = t1.elapsed();

        assert!(
            rnd > seq + Duration::from_millis(5),
            "random {rnd:?} should exceed sequential {seq:?}"
        );
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        let params = ThrottleParams {
            bandwidth: 10 * 1024 * 1024, // 10 MiB/s
            per_op_latency: Duration::ZERO,
            seek_penalty: Duration::ZERO,
        };
        let be = ThrottledBackend::new(MemBackend::new(), params);
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let t0 = Instant::now();
        f.write_at(0, &vec![0u8; 1024 * 1024]).unwrap(); // 1 MiB at 10 MiB/s ≈ 100 ms
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(80), "took {dt:?}");
    }

    #[test]
    fn data_still_lands_in_inner_backend() {
        let params = ThrottleParams {
            bandwidth: u64::MAX,
            per_op_latency: Duration::ZERO,
            seek_penalty: Duration::ZERO,
        };
        let be = ThrottledBackend::new(MemBackend::new(), params);
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"payload").unwrap();
        assert_eq!(be.inner().contents("/f").unwrap(), b"payload");
    }
}
