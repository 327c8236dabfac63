//! FUSE-like dispatch front end.
//!
//! In the paper, applications reach CRFS through the kernel: `glibc` →
//! VFS → FUSE kernel module → libfuse → CRFS. Two properties of that path
//! matter for performance and are reproduced here:
//!
//! 1. **Request splitting** — FUSE caps a write request at `max_write`
//!    bytes (128 KiB with the paper's `big_writes` option). An
//!    application's 1 MiB `write()` reaches CRFS as eight 128 KiB requests.
//! 2. **Per-request crossing cost** — each request pays a user↔kernel
//!    round trip; the real dispatch cost of this layer stands in for it
//!    (the simulator charges its own `FuseParams::crossing`).
//!
//! [`Vfs`] also provides the file-descriptor table and mount-point routing
//! that the kernel would provide, so applications can be written against
//! plain `(fd, buf)` syscall shapes.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::backend::OpenOptions;
use crate::error::{CrfsError, Result};
use crate::fs::{Crfs, CrfsFile};

/// A file descriptor issued by [`Vfs::open`]/[`Vfs::create`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(u64);

struct MountPoint {
    prefix: String,
    fs: Arc<Crfs>,
}

/// Shards in the descriptor table. Descriptors are a monotonically
/// increasing counter, so sharding by the low bits spreads concurrent
/// handles perfectly — the per-request `with_fd` lookup stops funnelling
/// every writer through one `Mutex` (the FUSE kernel module dispatches
/// requests concurrently; so do we).
const FD_SHARDS: usize = 16;

/// A tiny VFS: mount table + sharded file-descriptor table + request
/// splitting.
pub struct Vfs {
    mounts: RwLock<Vec<MountPoint>>,
    fds: [Mutex<HashMap<u64, Arc<CrfsFile>>>; FD_SHARDS],
    next_fd: AtomicU64,
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs {
            mounts: RwLock::new(Vec::new()),
            fds: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            next_fd: AtomicU64::new(0),
        }
    }
}

impl Vfs {
    /// Creates an empty VFS with no mounts.
    pub fn new() -> Vfs {
        Vfs::default()
    }

    fn fd_shard(&self, fd: u64) -> &Mutex<HashMap<u64, Arc<CrfsFile>>> {
        &self.fds[(fd as usize) % FD_SHARDS]
    }

    /// Mounts `fs` at `prefix` (e.g. `/mnt/crfs`). Longest-prefix wins on
    /// lookup, as in a real mount table.
    pub fn mount(&self, prefix: &str, fs: Arc<Crfs>) -> Result<()> {
        let prefix = crate::backend::normalize_path(prefix).map_err(CrfsError::Io)?;
        let mut mounts = self.mounts.write();
        if mounts.iter().any(|m| m.prefix == prefix) {
            return Err(CrfsError::AlreadyExists(prefix));
        }
        mounts.push(MountPoint { prefix, fs });
        // Longest prefix first.
        mounts.sort_by_key(|m| std::cmp::Reverse(m.prefix.len()));
        Ok(())
    }

    /// Unmounts the filesystem at `prefix` (open fds keep their handles).
    pub fn umount(&self, prefix: &str) -> Result<Arc<Crfs>> {
        let prefix = crate::backend::normalize_path(prefix).map_err(CrfsError::Io)?;
        let mut mounts = self.mounts.write();
        match mounts.iter().position(|m| m.prefix == prefix) {
            Some(i) => Ok(mounts.remove(i).fs),
            None => Err(CrfsError::NotFound(prefix)),
        }
    }

    /// Resolves a path to `(filesystem, path-within-mount)`.
    pub fn resolve(&self, path: &str) -> Result<(Arc<Crfs>, String)> {
        let path = crate::backend::normalize_path(path).map_err(CrfsError::Io)?;
        let mounts = self.mounts.read();
        for m in mounts.iter() {
            if m.prefix == "/" {
                return Ok((Arc::clone(&m.fs), path));
            }
            if let Some(rest) = path.strip_prefix(&m.prefix) {
                if rest.is_empty() {
                    return Ok((Arc::clone(&m.fs), "/".to_string()));
                }
                if rest.starts_with('/') {
                    return Ok((Arc::clone(&m.fs), rest.to_string()));
                }
            }
        }
        Err(CrfsError::NotFound(path))
    }

    fn install(&self, file: CrfsFile) -> Fd {
        let fd = self.next_fd.fetch_add(1, Relaxed);
        self.fd_shard(fd).lock().insert(fd, Arc::new(file));
        Fd(fd)
    }

    /// Looks up the handle and releases the shard lock *before* the
    /// operation runs. Holding the lock across an operation would
    /// serialize the shard's descriptors — and deadlock outright when the
    /// holder blocks on buffer-pool back-pressure that only another
    /// descriptor's progress can relieve.
    fn with_fd<R>(&self, fd: Fd, f: impl FnOnce(&CrfsFile) -> Result<R>) -> Result<R> {
        let file = {
            let fds = self.fd_shard(fd.0).lock();
            Arc::clone(fds.get(&fd.0).ok_or(CrfsError::HandleClosed)?)
        };
        f(&file)
    }

    /// Opens an existing file read-write.
    pub fn open(&self, path: &str) -> Result<Fd> {
        let (fs, rel) = self.resolve(path)?;
        Ok(self.install(fs.open(&rel)?))
    }

    /// Creates (or truncates) a file — the checkpoint open mode.
    pub fn create(&self, path: &str) -> Result<Fd> {
        let (fs, rel) = self.resolve(path)?;
        Ok(self.install(fs.create(&rel)?))
    }

    /// Opens with explicit options.
    pub fn open_with(&self, path: &str, opts: OpenOptions) -> Result<Fd> {
        let (fs, rel) = self.resolve(path)?;
        Ok(self.install(fs.open_with(&rel, opts)?))
    }

    /// Sequential write through the FUSE-like layer: the buffer is split
    /// into `max_write`-sized requests. Returns the number of bytes
    /// written (always `data.len()` on success).
    pub fn write(&self, fd: Fd, data: &[u8]) -> Result<usize> {
        self.with_fd(fd, |file| {
            for req in data.chunks(file.mount_config().max_write) {
                file.write(req)?;
            }
            Ok(data.len())
        })
    }

    /// Positioned write, split at `max_write` like [`write`](Vfs::write).
    pub fn pwrite(&self, fd: Fd, offset: u64, data: &[u8]) -> Result<usize> {
        self.with_fd(fd, |file| {
            let mut off = offset;
            for req in data.chunks(file.mount_config().max_write) {
                file.write_at(off, req)?;
                off += req.len() as u64;
            }
            Ok(data.len())
        })
    }

    /// Sequential read (reads are passed through whole; FUSE read sizes
    /// are governed by the kernel readahead, which CRFS's own
    /// chunk-granular read-ahead stands in for).
    pub fn read(&self, fd: Fd, buf: &mut [u8]) -> Result<usize> {
        self.with_fd(fd, |file| file.read(buf))
    }

    /// Positioned read.
    pub fn pread(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.with_fd(fd, |file| file.read_at(offset, buf))
    }

    /// fsync(2).
    pub fn fsync(&self, fd: Fd) -> Result<()> {
        self.with_fd(fd, |file| file.fsync())
    }

    /// close(2): removes the descriptor and closes the handle, reporting
    /// deferred write errors. Operations already in flight on the same
    /// descriptor (from other threads) finish on their cloned handle, as
    /// with a real file description.
    pub fn close(&self, fd: Fd) -> Result<()> {
        let file = self
            .fd_shard(fd.0)
            .lock()
            .remove(&fd.0)
            .ok_or(CrfsError::HandleClosed)?;
        file.close_inner()
    }

    /// mkdir(2).
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let (fs, rel) = self.resolve(path)?;
        fs.mkdir(&rel)
    }

    /// `mkdir -p`.
    pub fn mkdir_all(&self, path: &str) -> Result<()> {
        let (fs, rel) = self.resolve(path)?;
        fs.mkdir_all(&rel)
    }

    /// unlink(2).
    pub fn unlink(&self, path: &str) -> Result<()> {
        let (fs, rel) = self.resolve(path)?;
        fs.unlink(&rel)
    }

    /// rename(2) — within a single mount only.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let (fs_a, rel_a) = self.resolve(from)?;
        let (fs_b, rel_b) = self.resolve(to)?;
        if !Arc::ptr_eq(&fs_a, &fs_b) {
            return Err(CrfsError::Io(std::io::Error::new(
                std::io::ErrorKind::CrossesDevices,
                "rename across mounts",
            )));
        }
        fs_a.rename(&rel_a, &rel_b)
    }

    /// truncate(2).
    pub fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let (fs, rel) = self.resolve(path)?;
        fs.truncate(&rel, len)
    }

    /// ftruncate(2).
    pub fn ftruncate(&self, fd: Fd, len: u64) -> Result<()> {
        self.with_fd(fd, |file| file.set_len(len))
    }

    /// stat(2)-lite: file length.
    pub fn file_len(&self, path: &str) -> Result<u64> {
        let (fs, rel) = self.resolve(path)?;
        fs.file_len(&rel)
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        match self.resolve(path) {
            Ok((fs, rel)) => fs.exists(&rel),
            Err(_) => false,
        }
    }

    /// Number of open descriptors.
    pub fn open_fds(&self) -> usize {
        self.fds.iter().map(|s| s.lock().len()).sum()
    }
}

impl CrfsFile {
    /// Configuration of the mount this file belongs to (used by the VFS
    /// splitting layer).
    pub fn mount_config(&self) -> &crate::config::CrfsConfig {
        self.mount().config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemBackend};
    use crate::config::CrfsConfig;

    fn vfs_with_mem() -> (Vfs, Arc<MemBackend>) {
        let be = Arc::new(MemBackend::new());
        let fs = Crfs::mount(
            be.clone() as Arc<dyn Backend>,
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(16384),
        )
        .unwrap();
        let vfs = Vfs::new();
        vfs.mount("/mnt/crfs", fs).unwrap();
        (vfs, be)
    }

    #[test]
    fn mount_resolution_longest_prefix() {
        let be1 = Arc::new(MemBackend::new());
        let be2 = Arc::new(MemBackend::new());
        let cfg = CrfsConfig::default()
            .with_chunk_size(4096)
            .with_pool_size(16384);
        let fs1 = Crfs::mount(be1 as Arc<dyn Backend>, cfg.clone()).unwrap();
        let fs2 = Crfs::mount(be2 as Arc<dyn Backend>, cfg).unwrap();
        let vfs = Vfs::new();
        vfs.mount("/mnt", fs1).unwrap();
        vfs.mount("/mnt/inner", fs2).unwrap();
        let (_, rel) = vfs.resolve("/mnt/inner/f").unwrap();
        assert_eq!(rel, "/f");
        let (_, rel) = vfs.resolve("/mnt/other/f").unwrap();
        assert_eq!(rel, "/other/f");
        assert!(vfs.resolve("/elsewhere").is_err());
    }

    #[test]
    fn fd_lifecycle_and_data() {
        let (vfs, be) = vfs_with_mem();
        let fd = vfs.create("/mnt/crfs/f").unwrap();
        assert_eq!(vfs.write(fd, b"abcdef").unwrap(), 6);
        vfs.fsync(fd).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(vfs.pread(fd, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"abcdef");
        vfs.close(fd).unwrap();
        assert!(vfs.write(fd, b"x").is_err(), "fd is gone after close");
        assert_eq!(be.contents("/f").unwrap(), b"abcdef");
        assert_eq!(vfs.open_fds(), 0);
    }

    #[test]
    fn big_write_is_split_into_max_write_requests() {
        let be = Arc::new(MemBackend::new());
        let fs = Crfs::mount(
            be.clone() as Arc<dyn Backend>,
            CrfsConfig {
                chunk_size: 4096,
                pool_size: 16384,
                max_write: 1024,
                ..CrfsConfig::default()
            },
        )
        .unwrap();
        let vfs = Vfs::new();
        vfs.mount("/m", Arc::clone(&fs)).unwrap();
        let fd = vfs.create("/m/big").unwrap();
        vfs.write(fd, &vec![5u8; 10 * 1024]).unwrap();
        vfs.close(fd).unwrap();
        // 10 KiB at max_write=1 KiB → 10 CRFS-level writes.
        assert_eq!(fs.stats().writes, 10);
        assert_eq!(be.contents("/big").unwrap().len(), 10 * 1024);
    }

    #[test]
    fn metadata_through_vfs() {
        let (vfs, _be) = vfs_with_mem();
        vfs.mkdir_all("/mnt/crfs/a/b").unwrap();
        assert!(vfs.exists("/mnt/crfs/a/b"));
        let fd = vfs.create("/mnt/crfs/a/b/f").unwrap();
        vfs.write(fd, b"z").unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(vfs.file_len("/mnt/crfs/a/b/f").unwrap(), 1);
        vfs.rename("/mnt/crfs/a/b/f", "/mnt/crfs/a/b/g").unwrap();
        vfs.unlink("/mnt/crfs/a/b/g").unwrap();
        assert!(!vfs.exists("/mnt/crfs/a/b/g"));
    }

    #[test]
    fn truncate_paths_through_vfs() {
        let (vfs, be) = vfs_with_mem();
        let fd = vfs.create("/mnt/crfs/t").unwrap();
        vfs.write(fd, &vec![5u8; 1000]).unwrap();
        vfs.ftruncate(fd, 10).unwrap();
        assert_eq!(vfs.file_len("/mnt/crfs/t").unwrap(), 10);
        vfs.close(fd).unwrap();
        vfs.truncate("/mnt/crfs/t", 4).unwrap();
        assert_eq!(be.contents("/t").unwrap(), &[5u8; 4]);
        assert!(vfs.truncate("/mnt/crfs/none", 0).is_err());
    }

    /// Regression test: writers through one `Vfs` must not serialize on
    /// the descriptor table. With the table lock held across operations,
    /// a writer blocking on buffer-pool back-pressure (pool smaller than
    /// the writer count) starves the very writers whose progress would
    /// recycle buffers — a deadlock observed in the Fig. 5 sweep at
    /// pool=16 MiB, chunk=4 MiB (4 buffers, 8 writers).
    #[test]
    fn concurrent_writers_with_tiny_pool_do_not_deadlock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let be = Arc::new(MemBackend::new());
        let fs = Crfs::mount(
            be.clone() as Arc<dyn Backend>,
            CrfsConfig::default()
                .with_chunk_size(64 << 10)
                .with_pool_size(128 << 10) // 2 buffers for 8 writers
                .with_io_threads(2),
        )
        .unwrap();
        let vfs = Arc::new(Vfs::new());
        vfs.mount("/m", fs).unwrap();

        let (tx, rx) = mpsc::channel();
        for w in 0..8 {
            let vfs = Arc::clone(&vfs);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let fd = vfs.create(&format!("/m/f{w}")).unwrap();
                // 4 chunks' worth per writer, in max_write-sized requests.
                vfs.write(fd, &vec![w as u8; 256 << 10]).unwrap();
                vfs.close(fd).unwrap();
                tx.send(w).unwrap();
            });
        }
        drop(tx);
        let mut done = 0;
        while done < 8 {
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(_) => done += 1,
                Err(_) => panic!("writers deadlocked ({done}/8 finished)"),
            }
        }
        for w in 0..8u8 {
            let data = be.contents(&format!("/f{w}")).unwrap();
            assert_eq!(data.len(), 256 << 10);
            assert!(data.iter().all(|&b| b == w));
        }
    }

    #[test]
    fn close_while_write_in_flight_is_safe() {
        // A second thread may hold the fd mid-operation when close() runs;
        // the handle must stay usable for that operation and the close must
        // still retire the descriptor.
        let (vfs, be) = vfs_with_mem();
        let vfs = Arc::new(vfs);
        let fd = vfs.create("/mnt/crfs/race").unwrap();
        vfs.write(fd, b"first").unwrap();
        let v2 = Arc::clone(&vfs);
        let h = std::thread::spawn(move || {
            // May observe HandleClosed or succeed, but must not panic/hang.
            let _ = v2.write(fd, b"second");
        });
        vfs.close(fd).unwrap();
        h.join().unwrap();
        assert!(vfs.write(fd, b"x").is_err());
        assert!(be.contents("/race").unwrap().starts_with(b"first"));
    }

    #[test]
    fn duplicate_mount_rejected_and_umount_works() {
        let (vfs, _be) = vfs_with_mem();
        let be2 = Arc::new(MemBackend::new());
        let fs2 = Crfs::mount(
            be2 as Arc<dyn Backend>,
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(16384),
        )
        .unwrap();
        assert!(vfs.mount("/mnt/crfs", fs2).is_err());
        vfs.umount("/mnt/crfs").unwrap();
        assert!(vfs.resolve("/mnt/crfs/x").is_err());
    }
}
