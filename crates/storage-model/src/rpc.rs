//! Wall-clock RPC-store device model for the *real* library.
//!
//! The virtual-time models in this crate drive the cluster simulator;
//! this module is their wall-clock sibling for `crfs-core` itself: a
//! [`Backend`] decorator charging every read **and** write a per-RPC
//! round trip plus transfer time, the service profile of a networked
//! checkpoint store (NFS/Lustre/PVFS client without a local page
//! cache). Unlike `crfs_core::backend::ThrottledBackend` — one disk
//! spindle, one serialized timeline, writes only — RPCs here proceed
//! **concurrently**: a parallel server farm absorbs overlapping
//! requests, so latency hides exactly as far as the caller can keep
//! requests in flight. That is the regime where restart read-ahead pays:
//! a synchronous reader eats one round trip per request, while the
//! prefetching read engine keeps a window of RPCs outstanding. The
//! repository benchmark's `cold_restart` workload restarts through this
//! store.
//!
//! Both directions have an asynchronous path
//! ([`BackendFile::begin_write_at`], [`BackendFile::begin_read_at`]):
//! the bytes move at once, and the acknowledgement arrives through the
//! caller's [`CompletionSink`] from one shared timer thread when the
//! round trip plus transfer time is up. No thread sleeps per RPC, so
//! an async-capable engine keeps as many reads or writes in flight as
//! it has descriptors and buffers for.

use std::collections::BinaryHeap;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crfs_core::backend::{Backend, BackendFile, CompletionSink, OpenOptions};

/// Service-time parameters for [`RpcStore`].
#[derive(Debug, Clone, Copy)]
pub struct RpcStoreParams {
    /// Round-trip latency charged to every read RPC.
    pub read_rtt: Duration,
    /// Round-trip latency charged to every write RPC.
    pub write_rtt: Duration,
    /// Per-client transfer bandwidth in bytes/second (charged on top of
    /// the round trip, also concurrently).
    pub bandwidth: u64,
}

impl RpcStoreParams {
    /// A shared-filesystem restart source in the paper's testbed class:
    /// ~1 ms request round trip over IPoIB-ish fabric, ~1 GiB/s streams.
    pub fn restart_store() -> RpcStoreParams {
        RpcStoreParams {
            read_rtt: Duration::from_micros(1000),
            write_rtt: Duration::from_micros(200),
            bandwidth: 1 << 30,
        }
    }
}

/// A [`Backend`] decorator charging concurrent per-RPC latency on reads
/// and writes — the latency-simulating restart source.
///
/// See the module docs for the asynchronous paths; the `exp engine`
/// depth sweep measures the write side.
pub struct RpcStore<B> {
    inner: B,
    params: RpcStoreParams,
    timer: Arc<TimerSlot>,
}

impl<B: Backend> RpcStore<B> {
    /// Wraps `inner` with the given RPC service model.
    pub fn new(inner: B, params: RpcStoreParams) -> RpcStore<B> {
        RpcStore {
            inner,
            params,
            timer: Arc::new(TimerSlot::default()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B> Drop for RpcStore<B> {
    fn drop(&mut self) {
        // Fire any acks still pending and retire the timer thread.
        // Files may outlive the store; their late `begin_*_at` calls
        // simply spawn a fresh timer through the shared slot.
        self.timer.stop();
    }
}

/// Lazily-spawned shared completion timer: read-only stores never own a
/// thread, and every file of one store shares the one deadline heap.
#[derive(Default)]
struct TimerSlot {
    slot: Mutex<Option<Arc<TimerHandle>>>,
}

impl TimerSlot {
    fn get(&self) -> Arc<TimerHandle> {
        let mut guard = self.slot.lock().unwrap();
        if let Some(t) = guard.as_ref() {
            return Arc::clone(t);
        }
        let t = TimerHandle::spawn();
        *guard = Some(Arc::clone(&t));
        t
    }

    fn stop(&self) {
        if let Some(t) = self.slot.lock().unwrap().take() {
            t.stop_and_join();
        }
    }
}

/// One pending acknowledgement (of a read or a write).
struct Pending {
    due: Instant,
    /// FIFO tiebreak for equal deadlines.
    seq: u64,
    token: u64,
    sink: Arc<dyn CompletionSink>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Pending) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Pending) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Pending) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due
        // (then lowest seq) on top.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct TimerState {
    queue: BinaryHeap<Pending>,
    seq: u64,
    stop: bool,
}

/// A deadline wheel shared by every file of one store: a single thread
/// sleeps until the earliest pending acknowledgement is due and fires
/// it. `register` is O(log n) under a short lock — the submitting IO
/// worker never sleeps.
struct TimerHandle {
    state: Mutex<TimerState>,
    cv: Condvar,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TimerHandle {
    fn spawn() -> Arc<TimerHandle> {
        let handle = Arc::new(TimerHandle {
            state: Mutex::new(TimerState {
                queue: BinaryHeap::new(),
                seq: 0,
                stop: false,
            }),
            cv: Condvar::new(),
            join: Mutex::new(None),
        });
        let worker = Arc::clone(&handle);
        let join = std::thread::Builder::new()
            .name("rpc-store-timer".into())
            .spawn(move || worker.run())
            .expect("spawn rpc-store timer");
        *handle.join.lock().unwrap() = Some(join);
        handle
    }

    fn register(&self, due: Instant, token: u64, sink: Arc<dyn CompletionSink>) {
        let mut st = self.state.lock().unwrap();
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Pending {
            due,
            seq,
            token,
            sink,
        });
        drop(st);
        self.cv.notify_one();
    }

    fn run(&self) {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.stop {
                // Fire everything still queued (the bytes have already
                // moved; only the ack was pending).
                while let Some(p) = st.queue.pop() {
                    drop(st);
                    p.sink.complete(p.token, Ok(()));
                    st = self.state.lock().unwrap();
                }
                return;
            }
            let now = Instant::now();
            match st.queue.peek() {
                Some(p) if p.due <= now => {
                    let p = st.queue.pop().unwrap();
                    drop(st);
                    p.sink.complete(p.token, Ok(()));
                    st = self.state.lock().unwrap();
                }
                Some(p) => {
                    let wait = p.due - now;
                    st = self.cv.wait_timeout(st, wait).unwrap().0;
                }
                None => {
                    st = self.cv.wait(st).unwrap();
                }
            }
        }
    }

    fn stop_and_join(&self) {
        self.state.lock().unwrap().stop = true;
        self.cv.notify_all();
        if let Some(j) = self.join.lock().unwrap().take() {
            let _ = j.join();
        }
    }
}

/// One RPC's service time: the round trip plus `bytes` at `bandwidth`.
/// Deliberately no shared timeline: RPCs overlap freely, so the cost
/// model rewards callers that pipeline.
fn service(rtt: Duration, bytes: usize, bandwidth: u64) -> Duration {
    rtt + Duration::from_secs_f64(bytes as f64 / bandwidth.max(1) as f64)
}

fn charge(rtt: Duration, bytes: usize, bandwidth: u64) {
    std::thread::sleep(service(rtt, bytes, bandwidth));
}

impl<B: Backend> Backend for RpcStore<B> {
    fn name(&self) -> &str {
        "rpc-store"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let file = self.inner.open(path, opts)?;
        Ok(Box::new(RpcFile {
            inner: file,
            params: self.params,
            timer: Arc::clone(&self.timer),
        }))
    }

    crfs_core::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists, file_len,
        list_dir);
}

struct RpcFile {
    inner: Box<dyn BackendFile>,
    params: RpcStoreParams,
    timer: Arc<TimerSlot>,
}

impl RpcFile {
    /// Accepts an op whose bytes have moved: its ack fires from the
    /// timer thread once the RPC's service time is up.
    fn ack_after(
        &self,
        rtt: Duration,
        bytes: usize,
        token: u64,
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        let due = Instant::now() + service(rtt, bytes, self.params.bandwidth);
        self.timer.get().register(due, token, Arc::clone(sink));
        Ok(true)
    }
}

impl BackendFile for RpcFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        charge(self.params.write_rtt, data.len(), self.params.bandwidth);
        self.inner.write_at(offset, data)
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        // The bytes transfer now (consuming `data` within this call,
        // per the contract); the acknowledgement arrives after the
        // modeled service time, from the shared timer thread. A failed
        // transfer is a submission-time error: nothing in flight.
        self.inner.write_at(offset, data)?;
        self.ack_after(self.params.write_rtt, data.len(), token, sink)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        charge(self.params.read_rtt, buf.len(), self.params.bandwidth);
        self.inner.read_at(offset, buf)
    }

    fn begin_read_at(
        &self,
        token: u64,
        offset: u64,
        buf: &mut [u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        // The mirror of `begin_write_at`: the bytes land in `buf` now,
        // the ack after the read's service time. A failed or short
        // transfer is a submission-time error.
        let got = self.inner.read_at(offset, buf)?;
        if got != buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("short read at {offset}: wanted {}, got {got}", buf.len()),
            ));
        }
        self.ack_after(self.params.read_rtt, buf.len(), token, sink)
    }

    fn sync(&self) -> io::Result<()> {
        charge(self.params.write_rtt, 0, self.params.bandwidth);
        self.inner.sync()
    }

    crfs_core::forward_file_ops!(inner: len, set_len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crfs_core::backend::MemBackend;
    use std::time::Instant;

    #[test]
    fn reads_pay_the_round_trip_and_land_bytes() {
        let store = RpcStore::new(
            MemBackend::new(),
            RpcStoreParams {
                read_rtt: Duration::from_millis(5),
                write_rtt: Duration::ZERO,
                bandwidth: u64::MAX,
            },
        );
        let f = store.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"payload").unwrap();
        let mut buf = [0u8; 7];
        let t0 = Instant::now();
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 7);
        assert!(
            t0.elapsed() >= Duration::from_millis(4),
            "read under-charged"
        );
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn async_writes_ack_after_the_service_time_without_blocking() {
        struct Recorder {
            done: Mutex<Vec<u64>>,
            cv: Condvar,
        }
        impl CompletionSink for Recorder {
            fn complete(&self, token: u64, result: io::Result<()>) {
                result.unwrap();
                self.done.lock().unwrap().push(token);
                self.cv.notify_all();
            }
        }

        let store = RpcStore::new(
            MemBackend::new(),
            RpcStoreParams {
                read_rtt: Duration::ZERO,
                write_rtt: Duration::from_millis(20),
                bandwidth: u64::MAX,
            },
        );
        let f = store.open("/f", OpenOptions::create_truncate()).unwrap();
        let rec = Arc::new(Recorder {
            done: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        });
        let sink: Arc<dyn CompletionSink> = Arc::clone(&rec) as Arc<dyn CompletionSink>;
        let t0 = Instant::now();
        // 8 writes of a 20 ms RPC each: submission must not block, and
        // the acks must overlap (well under 8 x 20 ms total).
        for i in 0..8u64 {
            assert!(f.begin_write_at(i, i * 4, b"abcd", &sink).unwrap());
        }
        let submit_time = t0.elapsed();
        assert!(
            submit_time < Duration::from_millis(15),
            "submission blocked: {submit_time:?}"
        );
        let mut done = rec.done.lock().unwrap();
        while done.len() < 8 {
            let (g, timeout) = rec.cv.wait_timeout(done, Duration::from_secs(5)).unwrap();
            done = g;
            assert!(!timeout.timed_out(), "acks never arrived");
        }
        let total = t0.elapsed();
        assert!(
            total >= Duration::from_millis(18),
            "ack under-charged: {total:?}"
        );
        assert!(
            total < Duration::from_millis(100),
            "acks serialized: {total:?}"
        );
        drop(done);
        assert_eq!(store.inner().contents("/f").unwrap().len(), 32);
    }

    #[test]
    fn async_reads_land_at_once_and_ack_after_the_round_trip() {
        struct Recorder(Mutex<Vec<(u64, Instant)>>);
        impl CompletionSink for Recorder {
            fn complete(&self, token: u64, result: io::Result<()>) {
                result.unwrap();
                self.0.lock().unwrap().push((token, Instant::now()));
            }
        }
        let store = RpcStore::new(
            MemBackend::new(),
            RpcStoreParams {
                read_rtt: Duration::from_millis(20),
                write_rtt: Duration::ZERO,
                bandwidth: u64::MAX,
            },
        );
        let f = store.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"abcdefgh").unwrap();
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let sink: Arc<dyn CompletionSink> = Arc::clone(&rec) as Arc<dyn CompletionSink>;
        let t0 = Instant::now();
        let mut bufs = [[0u8; 4]; 2];
        for (i, buf) in bufs.iter_mut().enumerate() {
            assert!(f.begin_read_at(i as u64, i as u64 * 4, buf, &sink).unwrap());
        }
        assert!(
            t0.elapsed() < Duration::from_millis(15),
            "submission blocked"
        );
        assert_eq!(bufs, [*b"abcd", *b"efgh"], "bytes land within the call");
        // Exact-length: a read past the end fails at submission.
        assert!(f.begin_read_at(9, 6, &mut [0u8; 4], &sink).is_err());
        while rec.0.lock().unwrap().len() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for &(_, at) in rec.0.lock().unwrap().iter() {
            let waited = at - t0;
            assert!(waited >= Duration::from_millis(18), "ack early: {waited:?}");
        }
    }

    #[test]
    fn dropping_the_store_fires_pending_acks() {
        struct Counter(Arc<std::sync::atomic::AtomicU64>);
        impl CompletionSink for Counter {
            fn complete(&self, _token: u64, result: io::Result<()>) {
                result.unwrap();
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let n = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let store = RpcStore::new(
            MemBackend::new(),
            RpcStoreParams {
                read_rtt: Duration::ZERO,
                write_rtt: Duration::from_secs(30),
                bandwidth: u64::MAX,
            },
        );
        let f = store.open("/f", OpenOptions::create_truncate()).unwrap();
        let sink: Arc<dyn CompletionSink> = Arc::new(Counter(Arc::clone(&n)));
        assert!(f.begin_write_at(0, 0, b"x", &sink).unwrap());
        assert!(f.begin_write_at(1, 1, b"y", &sink).unwrap());
        drop(f);
        drop(store); // must not wait the 30 s RTT
        assert_eq!(n.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_reads_overlap_instead_of_serializing() {
        let store = Arc::new(RpcStore::new(
            MemBackend::new(),
            RpcStoreParams {
                read_rtt: Duration::from_millis(20),
                write_rtt: Duration::ZERO,
                bandwidth: u64::MAX,
            },
        ));
        let f = store.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &[1u8; 64]).unwrap();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let f = store.open("/f", OpenOptions::read_only()).unwrap();
                    let mut buf = [0u8; 64];
                    f.read_at(0, &mut buf).unwrap();
                });
            }
        });
        let dt = t0.elapsed();
        assert!(
            dt < Duration::from_millis(60),
            "4 x 20 ms RPCs must overlap, took {dt:?}"
        );
    }
}
