//! An idle mount is idle: its engine threads — and a tiered backend's
//! drain workers — park untimed and make no wakeups while nothing is
//! submitted, and a restart reader waiting for a prefetch that a stalled
//! backend has not delivered waits without waking either — nor do a
//! writer parked on an exhausted pool and a `close()` parked on its
//! file's outstanding chunks. Alone in this test binary so no other
//! test's `crfs-*` threads run in the process being measured.
#![cfg(target_os = "linux")]

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crfs_core::backend::{BackendFile, MemBackend, OpenOptions, TieredBackend};
use crfs_core::{Backend, CodecKind, Crfs, CrfsConfig};

/// (threads named `crfs-*`, their summed voluntary context switches).
fn crfs_thread_switches() -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
        };
        if field("Name:").is_some_and(|n| n.starts_with("crfs-")) {
            threads += 1;
            switches += field("voluntary_ctxt_switches:")
                .and_then(|v| v.parse::<u64>().ok())
                .expect("status carries voluntary_ctxt_switches");
        }
    }
    (threads, switches)
}

fn mem() -> Arc<dyn Backend> {
    Arc::new(MemBackend::new())
}

/// Mounts over `backend` (which runs `drain_workers` threads of its
/// own), sends one write through every thread, and asserts that they
/// all then stay asleep for a second.
fn assert_idle(backend: Arc<dyn Backend>, drain_workers: usize) {
    let fs = Crfs::mount(backend, CrfsConfig::default()).unwrap();
    // One write so every engine position (and the drain) has run at
    // least once.
    let f = fs.create("/warm").unwrap();
    f.write(&[1u8; 4096]).unwrap();
    f.close().unwrap();
    fs.advance_epoch().unwrap();

    // A thread names itself when it first runs: wait, boundedly, for
    // the issue workers, the reaper and the drain workers to have run.
    let named = fs.config().io_threads + drain_workers + 1;
    let deadline = Instant::now() + Duration::from_secs(10);
    let (threads, before) = loop {
        let (threads, switches) = crfs_thread_switches();
        if threads >= named || Instant::now() > deadline {
            break (threads, switches);
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        threads >= named,
        "found {threads} crfs-* threads; the engine's issue workers and reaper \
         and the tier's drain workers should be named so"
    );
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = crfs_thread_switches();
    // A 1 ms park-and-recheck on 5 threads scores about 5,000 here.
    assert!(
        after - before < 200,
        "idle crfs-* threads woke {} times in 1 s",
        after - before
    );
    fs.unmount().unwrap();
}

/// `(closed, reads and writes blocked so far)` and the condvar both
/// change under.
type Gate = Arc<(Mutex<(bool, usize)>, Condvar)>;

/// A `MemBackend` whose reads and writes block while the gate is closed.
struct GatedBackend {
    inner: MemBackend,
    gate: Gate,
}

struct GatedFile {
    inner: Box<dyn BackendFile>,
    gate: Gate,
}

impl Backend for GatedBackend {
    fn name(&self) -> &str {
        "gated"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        Ok(Box::new(GatedFile {
            inner: self.inner.open(path, opts)?,
            gate: Arc::clone(&self.gate),
        }))
    }

    crfs_core::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
        file_len, list_dir, drain_barrier, attach_stats);
}

impl GatedFile {
    /// Returns once the gate is open, counting itself blocked if it had
    /// to wait.
    fn pass_gate(&self) {
        let (state, changed) = &*self.gate;
        let mut st = state.lock().unwrap();
        if st.0 {
            st.1 += 1;
            changed.notify_all();
            while st.0 {
                st = changed.wait(st).unwrap();
            }
        }
    }
}

impl BackendFile for GatedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.pass_gate();
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.pass_gate();
        self.inner.write_at(offset, data)
    }

    crfs_core::forward_file_ops!(inner: sync, len, set_len, is_empty);
}

/// A restart view is open and its reader waits for a prefetched chunk
/// the backend has not delivered: the reader (named `crfs-reader` so
/// the census counts it), the issue workers inside the backend and the
/// reaper all sleep through an idle second, and the reader returns as
/// soon as the backend does.
fn assert_parked_reader_is_idle() {
    const CHUNK: usize = 64 << 10;
    let gate: Gate = Arc::default();
    let backend = Arc::new(GatedBackend {
        inner: MemBackend::new(),
        gate: Arc::clone(&gate),
    });
    let config = CrfsConfig::default()
        .with_chunk_size(CHUNK)
        .with_codec(CodecKind::Lz)
        .with_dedup(true)
        .with_snapshots(true);
    let fs = Crfs::mount(backend, config).unwrap();
    let image: Vec<u8> = (0..8 * CHUNK).map(|i| (i / 7 + i / CHUNK) as u8).collect();
    let f = fs.create("/ckpt").unwrap();
    f.write(&image).unwrap();
    f.close().unwrap();
    fs.advance_epoch().unwrap();
    let epoch = *fs.snapshot_epochs().last().unwrap();
    let view = fs.open_restart("/ckpt", epoch).unwrap();

    let (state, changed) = &*gate;
    state.lock().unwrap().0 = true;
    let reader = std::thread::Builder::new()
        .name("crfs-reader".into())
        .spawn(move || {
            let mut buf = vec![0u8; CHUNK];
            let n = view.read_at(0, &mut buf).unwrap();
            view.close().unwrap();
            (n, buf)
        })
        .unwrap();
    // Every issue worker is inside the backend with a prefetch fill:
    // the reader has submitted its window and finds chunk 0 pending.
    let workers = fs.config().io_threads.min(image.len() / CHUNK);
    let mut st = state.lock().unwrap();
    while st.1 < workers {
        st = changed.wait(st).unwrap();
    }
    drop(st);
    std::thread::sleep(Duration::from_millis(50)); // let the reader park

    let (_, before) = crfs_thread_switches();
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = crfs_thread_switches();
    // The 1 ms recheck this wait used to make scores about 1,000.
    assert!(
        after - before < 50,
        "a reader parked on a pending chunk woke {} times in 1 s",
        after - before
    );

    let opened = Instant::now();
    state.lock().unwrap().0 = false;
    changed.notify_all();
    let (n, buf) = reader.join().unwrap();
    assert!(
        opened.elapsed() < Duration::from_millis(500),
        "the reader took {:?} to notice its chunk",
        opened.elapsed()
    );
    assert_eq!((n, &buf[..]), (CHUNK, &image[..CHUNK]));
    fs.unmount().unwrap();
}

/// The backend stalls every write. A writer (`crfs-writer`) has filled
/// the pool with chunks the issue workers cannot land and waits for a
/// buffer; a `close()` (`crfs-closer`) waits for its file's one chunk.
/// Neither wakes — nor do the workers inside the backend or the reaper —
/// until the backend moves, and then both finish and the files read
/// back exactly.
fn assert_blocked_writer_and_closer_are_idle() {
    const CHUNK: usize = 64 << 10;
    const POOL_CHUNKS: usize = 4;
    let gate: Gate = Arc::default();
    let backend = Arc::new(GatedBackend {
        inner: MemBackend::new(),
        gate: Arc::clone(&gate),
    });
    let config = CrfsConfig::default()
        .with_chunk_size(CHUNK)
        .with_pool_size(POOL_CHUNKS * CHUNK)
        .with_io_threads(POOL_CHUNKS); // one stalled write per worker
    let fs = Crfs::mount(backend, config).unwrap();

    // The closer's file holds one pool buffer as its partial chunk.
    let small = vec![7u8; 100];
    let b = fs.create("/b").unwrap();
    b.write(&small).unwrap();
    let (state, changed) = &*gate;
    state.lock().unwrap().0 = true;
    let closer = std::thread::Builder::new()
        .name("crfs-closer".into())
        .spawn(move || b.close().unwrap())
        .unwrap();
    // The writer's first three chunks take the rest of the pool; its
    // fourth write finds the pool empty.
    let image: Vec<u8> = (0..5 * CHUNK).map(|i| (i / 5) as u8).collect();
    let (a, to_write) = (fs.create("/a").unwrap(), image.clone());
    let writer = std::thread::Builder::new()
        .name("crfs-writer".into())
        .spawn(move || {
            for chunk in to_write.chunks(CHUNK) {
                a.write(chunk).unwrap();
            }
            a.close().unwrap();
        })
        .unwrap();
    let mut st = state.lock().unwrap();
    while st.1 < POOL_CHUNKS {
        st = changed.wait(st).unwrap();
    }
    drop(st);
    std::thread::sleep(Duration::from_millis(50)); // let both park

    let (_, before) = crfs_thread_switches();
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = crfs_thread_switches();
    // The 1 ms rechecks these two waits used to make score about 2,000.
    assert!(
        after - before < 50,
        "a writer parked on the pool and a closer parked on its chunks \
         woke {} times in 1 s",
        after - before
    );
    assert!(!writer.is_finished() && !closer.is_finished());

    state.lock().unwrap().0 = false;
    changed.notify_all();
    writer.join().unwrap();
    closer.join().unwrap();
    for (path, want) in [("/a", &image), ("/b", &small)] {
        let f = fs.open(path).unwrap();
        let mut got = vec![0u8; want.len() + 1];
        assert_eq!(f.read_at(0, &mut got).unwrap(), want.len(), "{path}");
        assert_eq!(&got[..want.len()], &want[..], "{path}");
        f.close().unwrap();
    }
    fs.unmount().unwrap();
}

// One test function: two mounts measured at once would count each
// other's threads.
#[test]
fn idle_mount_makes_no_wakeups() {
    assert_idle(mem(), 0);
    // Tiered: the same engine plus the two `crfs-drain*` workers.
    let tiered = TieredBackend::from_config(mem(), mem(), &CrfsConfig::default());
    assert_idle(Arc::new(tiered), 2);
    assert_parked_reader_is_idle();
    assert_blocked_writer_and_closer_are_idle();
}
