//! Local backend: `O_DIRECT` writes straight from the caller's buffer,
//! with extent preallocation.
//!
//! The paper's node-local configuration writes checkpoint chunks to a
//! local disk partition; at chunk sizes (hundreds of KiB) the page cache
//! costs a copy and doubles memory pressure without helping a
//! write-once stream. This backend keeps [`PassthroughBackend`]'s
//! directory layout but adds two disk-oriented behaviors:
//!
//! 1. **Direct writes, in place.** Each file also holds an `O_DIRECT`
//!    handle, and one rule decides: a write whose buffer address, offset
//!    *and* length are all multiples of [`DEFAULT_ALIGN`] goes out on
//!    that handle **from the caller's buffer** — no copy, no lock across
//!    the `pwrite`, so several IO threads write one file at once;
//!    anything else is buffered. Pool chunks and the copy buffers of the
//!    tiered drain, tier promotion and fsck's re-drain
//!    ([`ChunkBuf`](crate::pool::ChunkBuf)) have that alignment; ragged
//!    tails, framed (transformed) writes, metadata and anything in a
//!    plain `Vec` do not. No padding is ever written, so
//!    out-of-order chunk completion cannot clobber a neighbor. Where
//!    `O_DIRECT` is unavailable (tmpfs, overlayfs, non-Linux) the handle
//!    is absent; where the filesystem took the flag at open but rejects
//!    a write, that write and every later one of the file go buffered
//!    (sticky). Neither is ever an error.
//!    [`LocalFileBackend::write_counts`] says which handle writes took.
//! 2. **Extent preallocation.** Before a write past the allocated
//!    watermark the file grows to the next `extent` boundary
//!    (`set_len`, a cheap sparse extension standing in for
//!    `fallocate`), so concurrent out-of-order chunk writes don't each
//!    extend the inode. The *logical* length — max byte ever written —
//!    is tracked separately; `sync`, `len` and drop all report/restore
//!    it, so readers and the restart path never see preallocated slack.

use parking_lot::Mutex;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use super::layer::{aligned_shape, HostDir};
use super::{Backend, BackendFile, OpenOptions};

/// Direct-write alignment: one page / typical logical block, and the
/// alignment of every pool chunk.
pub const DEFAULT_ALIGN: usize = crate::pool::CHUNK_ALIGN;
/// Default preallocation extent: 4 MiB.
pub const DEFAULT_EXTENT: u64 = 4 << 20;

/// Writes issued per handle, over every file of one backend.
#[derive(Default)]
struct WriteCounts {
    direct: AtomicU64,
    buffered: AtomicU64,
}

/// Directory-rooted backend issuing aligned direct writes with extent
/// preallocation. See the module docs.
pub struct LocalFileBackend {
    dir: HostDir,
    extent: u64,
    counts: Arc<WriteCounts>,
}

impl LocalFileBackend {
    /// Creates a backend rooted at `root` (created if needed) with the
    /// default extent (4 MiB) and `O_DIRECT` enabled where the
    /// filesystem supports it.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<LocalFileBackend> {
        Ok(LocalFileBackend {
            dir: HostDir::new(root.into())?,
            extent: DEFAULT_EXTENT,
            counts: Arc::default(),
        })
    }

    /// Sets the preallocation extent in bytes (0 disables).
    pub fn with_extent(mut self, extent: u64) -> LocalFileBackend {
        self.extent = extent;
        self
    }

    /// `(direct, buffered)`: writes issued on each handle, over every
    /// file this backend has opened.
    pub fn write_counts(&self) -> (u64, u64) {
        (
            self.counts.direct.load(Ordering::Relaxed),
            self.counts.buffered.load(Ordering::Relaxed),
        )
    }

    /// The host directory backing this filesystem.
    pub fn root(&self) -> &Path {
        self.dir.root()
    }
}

impl Backend for LocalFileBackend {
    fn name(&self) -> &str {
        "local"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let host = self.dir.host_path(path)?;
        let file = fs::OpenOptions::new()
            .read(opts.read)
            .write(opts.write)
            .create(opts.create)
            .truncate(opts.truncate)
            .open(&host)?;
        // A second O_DIRECT handle for aligned writes. Open failure
        // (tmpfs and most overlay filesystems reject the flag) simply
        // means every write stays buffered.
        let direct = opts.write.then(|| open_direct(&host).ok()).flatten();
        let logical = file.metadata()?.len();
        Ok(Box::new(LocalFile {
            buffered: file,
            direct,
            direct_failed: AtomicBool::new(false),
            counts: Arc::clone(&self.counts),
            extent: self.extent,
            logical: AtomicU64::new(logical),
            allocated: Mutex::new(logical),
        }))
    }

    // NOTE: while a file is open for writing `file_len` may include
    // preallocated slack; the open handle's `len()` reports the logical
    // length, and `sync`/drop trim the file back.
    crate::forward_backend_ops!(dir: mkdir, rmdir, unlink, rename, exists,
        file_len, list_dir);
}

#[cfg(target_os = "linux")]
fn open_direct(host: &Path) -> io::Result<fs::File> {
    use std::os::unix::fs::OpenOptionsExt;
    // O_DIRECT on Linux; value from <asm-generic/fcntl.h>.
    const O_DIRECT: i32 = 0o40000;
    fs::OpenOptions::new()
        .write(true)
        .custom_flags(O_DIRECT)
        .open(host)
}

#[cfg(all(unix, not(target_os = "linux")))]
fn open_direct(_host: &Path) -> io::Result<fs::File> {
    // No portable O_DIRECT off Linux; stay buffered.
    Err(io::Error::other("O_DIRECT unavailable on this platform"))
}

struct LocalFile {
    buffered: fs::File,
    /// `O_DIRECT` handle; `None` when unsupported. Never locked:
    /// `pwrite` on one descriptor from several threads is safe.
    direct: Option<fs::File>,
    /// Set by the first direct write the filesystem rejects; from then
    /// on every write of this file is buffered. Relaxed: it publishes
    /// nothing — a racing writer that misses it meets the same rejection.
    direct_failed: AtomicBool,
    counts: Arc<WriteCounts>,
    extent: u64,
    /// Max byte ever written: the length readers should see.
    logical: AtomicU64,
    /// Physical size watermark the file has been extended to.
    allocated: Mutex<u64>,
}

impl LocalFile {
    /// Extends the physical file to cover `end`, rounded up to the next
    /// extent boundary, so chunk writes land on preallocated blocks.
    /// Grows only: another handle may have extended the file past this
    /// handle's target, and a `set_len` down to it would cut that
    /// handle's bytes off. The `fstat` runs once per extent, not per
    /// write.
    fn ensure_allocated(&self, end: u64) -> io::Result<()> {
        if self.extent == 0 {
            return Ok(());
        }
        let mut allocated = self.allocated.lock();
        if end <= *allocated {
            return Ok(());
        }
        let target = end.div_ceil(self.extent) * self.extent;
        if self.buffered.metadata()?.len() < target {
            self.buffered.set_len(target)?;
        }
        *allocated = target;
        Ok(())
    }

    /// Cuts this handle's preallocated slack off, so the on-disk length
    /// equals the logical length — but only while the physical length
    /// is still the one this handle set: a file some other handle has
    /// resized since is that handle's to trim.
    fn trim_slack(&self, allocated: &mut u64) -> io::Result<()> {
        let logical = self.logical.load(Ordering::SeqCst);
        if *allocated != logical && self.buffered.metadata()?.len() == *allocated {
            self.buffered.set_len(logical)?;
        }
        *allocated = logical;
        Ok(())
    }

    fn note_written(&self, end: u64) {
        self.logical.fetch_max(end, Ordering::SeqCst);
    }

    /// The direct path: `data` itself goes out on the `O_DIRECT` handle
    /// when its address, `offset` and length are all aligned. `false`
    /// means "take the buffered path" — wrong shape, no direct handle, or
    /// a direct write the filesystem rejected, now or earlier (e.g. its
    /// alignment is stricter than ours): sticky for the file's life.
    fn try_direct(&self, offset: u64, data: &[u8]) -> bool {
        use std::os::unix::fs::FileExt;
        let Some(file) = &self.direct else {
            return false;
        };
        if !aligned_shape(offset, data.len(), DEFAULT_ALIGN)
            || !(data.as_ptr() as usize).is_multiple_of(DEFAULT_ALIGN)
            || self.direct_failed.load(Ordering::Relaxed)
        {
            return false;
        }
        let ok = file.write_all_at(data, offset).is_ok();
        if !ok {
            self.direct_failed.store(true, Ordering::Relaxed);
        }
        ok
    }
}

#[cfg(unix)]
impl BackendFile for LocalFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let end = offset + data.len() as u64;
        self.ensure_allocated(end)?;
        if self.try_direct(offset, data) {
            self.counts.direct.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buffered.write_all_at(data, offset)?;
            self.counts.buffered.fetch_add(1, Ordering::Relaxed);
        }
        self.note_written(end);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        // Cap at the logical length so preallocated slack is invisible;
        // loop-fill because a direct write followed by a buffered read
        // may return short at block boundaries.
        let logical = self.logical.load(Ordering::SeqCst);
        if offset >= logical {
            return Ok(0);
        }
        let want = buf.len().min((logical - offset) as usize);
        let mut got = 0;
        while got < want {
            let n = self
                .buffered
                .read_at(&mut buf[got..want], offset + got as u64)?;
            if n == 0 {
                // Sparse tail inside the logical range reads as zeros.
                buf[got..want].fill(0);
                got = want;
                break;
            }
            got += n;
        }
        Ok(got)
    }

    fn sync(&self) -> io::Result<()> {
        self.trim_slack(&mut self.allocated.lock())?;
        self.buffered.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.logical.load(Ordering::SeqCst))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut allocated = self.allocated.lock();
        self.buffered.set_len(len)?;
        *allocated = len;
        self.logical.store(len, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(not(unix))]
compile_error!("LocalFileBackend currently requires a Unix platform (positioned IO via FileExt)");

impl Drop for LocalFile {
    fn drop(&mut self) {
        // Best-effort: never leave preallocated slack behind a closed
        // file (the restart path reads via plain metadata lengths).
        let _ = self.trim_slack(&mut self.allocated.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ChunkBuf;

    /// An aligned buffer of `len` position-derived bytes.
    fn patterned(len: usize, seed: usize) -> ChunkBuf {
        let mut buf = ChunkBuf::new(len);
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((i + seed) % 251) as u8;
        }
        buf
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let n = UNIQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("crfs-local-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn aligned_and_unaligned_writes_roundtrip() {
        let dir = scratch_dir("rt");
        let be = LocalFileBackend::new(&dir).unwrap();
        be.mkdir("/ckpt").unwrap();
        let f = be
            .open("/ckpt/rank0", OpenOptions::create_truncate())
            .unwrap();
        // Aligned chunk (direct path where supported)...
        let chunk = vec![0xabu8; 8192];
        f.write_at(0, &chunk).unwrap();
        // ...then a ragged tail (buffered path).
        f.write_at(8192, b"tail").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len().unwrap(), 8196);
        let mut buf = vec![0u8; 8196];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 8196);
        assert!(buf[..8192].iter().all(|&b| b == 0xab));
        assert_eq!(&buf[8192..], b"tail");
        drop(f);
        assert_eq!(be.file_len("/ckpt/rank0").unwrap(), 8196);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preallocation_is_invisible_to_readers_and_trimmed_on_sync() {
        let dir = scratch_dir("prealloc");
        let be = LocalFileBackend::new(&dir).unwrap().with_extent(1 << 20);
        let f = be.open("/p", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &[7u8; 4096]).unwrap();
        // Logical length is what was written, not the 1 MiB extent.
        assert_eq!(f.len().unwrap(), 4096);
        // Reads past the logical end see EOF even though the physical
        // file is larger.
        let mut probe = [1u8; 16];
        assert_eq!(f.read_at(4096, &mut probe).unwrap(), 0);
        f.sync().unwrap();
        drop(f);
        // After sync+close the on-disk size equals the logical size.
        assert_eq!(be.file_len("/p").unwrap(), 4096);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Two write handles on one file: neither the late handle's extent
    /// preallocation nor its slack trim may shrink what the other wrote.
    #[test]
    fn second_handle_never_shrinks_what_the_first_wrote() {
        let dir = scratch_dir("twohandles");
        let be = LocalFileBackend::new(&dir).unwrap();
        let a = be.open("/f", OpenOptions::create_truncate()).unwrap();
        let b = be.open("/f", OpenOptions::read_write()).unwrap();
        let far = 64u64 << 20;
        b.write_at(far, &[0xb7; 8192]).unwrap();
        // A still believes the file is empty: its first extent target
        // (4 MiB) lies far below what B allocated.
        a.write_at(0, &[0xa1; 4096]).unwrap();
        drop(a);
        let mut buf = vec![0u8; 8192];
        assert_eq!(b.read_at(far, &mut buf).unwrap(), 8192);
        assert!(buf.iter().all(|&v| v == 0xb7), "B's bytes survive A");
        b.sync().unwrap();
        drop(b);
        assert_eq!(be.file_len("/f").unwrap(), far + 8192, "B's logical length");
        let r = be.open("/f", OpenOptions::read_only()).unwrap();
        let mut head = [0u8; 4096];
        assert_eq!(r.read_at(0, &mut head).unwrap(), 4096);
        assert!(head.iter().all(|&v| v == 0xa1), "A's bytes landed too");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_aligned_chunks_do_not_clobber() {
        let dir = scratch_dir("ooo");
        let be = LocalFileBackend::new(&dir).unwrap();
        let f = be.open("/o", OpenOptions::create_truncate()).unwrap();
        // Write the second chunk first, then the first: completion
        // order on the ring engine.
        f.write_at(4096, &[2u8; 4096]).unwrap();
        f.write_at(0, &[1u8; 4096]).unwrap();
        f.sync().unwrap();
        let mut buf = vec![0u8; 8192];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 8192);
        assert!(buf[..4096].iter().all(|&b| b == 1));
        assert!(buf[4096..].iter().all(|&b| b == 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_logical_range_reads_zeros() {
        let dir = scratch_dir("sparse");
        let be = LocalFileBackend::new(&dir).unwrap();
        let f = be.open("/s", OpenOptions::create_truncate()).unwrap();
        f.write_at(100, b"tail").unwrap();
        assert_eq!(f.len().unwrap(), 104);
        let mut buf = [1u8; 4];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 4);
        assert_eq!(buf, [0u8; 4]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_reads_back_previous_contents() {
        let dir = scratch_dir("reopen");
        let be = LocalFileBackend::new(&dir).unwrap();
        {
            let f = be.open("/r", OpenOptions::create_truncate()).unwrap();
            f.write_at(0, &[9u8; 4096]).unwrap();
            f.sync().unwrap();
        }
        let f = be.open("/r", OpenOptions::read_only()).unwrap();
        assert_eq!(f.len().unwrap(), 4096);
        let mut buf = vec![0u8; 4096];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 9));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The permanent buffered fallback: a direct write the filesystem
    /// rejects must land byte-exact through the buffered handle, the
    /// failure must never surface to the caller, and the direct handle
    /// stays cleared — across further writes, `sync`, and close.
    ///
    /// A real `O_DIRECT` rejection needs a filesystem that accepts the
    /// open but refuses the write (hard to arrange portably), so the
    /// test builds a [`LocalFile`] whose direct handle is a read-only
    /// descriptor: every `pwrite` on it fails exactly like a rejected
    /// direct write, driving the same fallback path.
    #[test]
    fn failed_direct_write_falls_back_buffered_and_stays_buffered() {
        let dir = scratch_dir("fallback");
        fs::create_dir_all(&dir).unwrap();
        let host = dir.join("sticky");
        let buffered = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&host)
            .unwrap();
        let poisoned = fs::OpenOptions::new().read(true).open(&host).unwrap();
        let f = LocalFile {
            buffered,
            direct: Some(poisoned),
            direct_failed: AtomicBool::new(false),
            counts: Arc::default(),
            extent: 1 << 20,
            logical: AtomicU64::new(0),
            allocated: Mutex::new(0),
        };

        // Perfectly aligned — address, offset and length: the only shape
        // that reaches the direct handle — with position-derived bytes so
        // a short or misplaced landing cannot go unnoticed.
        let chunk = patterned(2 * DEFAULT_ALIGN, 0);
        f.write_at(0, &chunk).expect("fallback hides the failure");
        assert!(
            f.direct_failed.load(Ordering::Relaxed),
            "first direct failure must retire the handle for good"
        );

        // Sticky across sync: the trim/flush path must not resurrect it.
        f.sync().unwrap();
        assert!(
            f.direct_failed.load(Ordering::Relaxed),
            "sync kept the fallback"
        );

        // A second aligned write goes straight to the buffered handle.
        f.write_at(chunk.len() as u64, &chunk).unwrap();
        assert!(f.direct_failed.load(Ordering::Relaxed));
        assert_eq!(f.counts.direct.load(Ordering::Relaxed), 0);
        assert_eq!(f.counts.buffered.load(Ordering::Relaxed), 2);

        // Byte-exact through the handle...
        let mut got = vec![0u8; 2 * chunk.len()];
        assert_eq!(f.read_at(0, &mut got).unwrap(), got.len());
        assert_eq!(&got[..chunk.len()], &chunk[..]);
        assert_eq!(&got[chunk.len()..], &chunk[..]);

        // ...and byte-exact on disk after sync + close.
        f.sync().unwrap();
        drop(f);
        let ondisk = fs::read(&host).unwrap();
        assert_eq!(ondisk.len(), 2 * chunk.len());
        assert_eq!(&ondisk[..chunk.len()], &chunk[..]);
        assert_eq!(&ondisk[chunk.len()..], &chunk[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The direct handle takes no lock: four threads write disjoint
    /// aligned blocks of one file from aligned buffers while a fifth
    /// interleaves every shape that must stay buffered. Nothing may be
    /// lost, misplaced, or left as slack.
    #[test]
    fn concurrent_direct_and_ragged_writers_land_byte_exact() {
        const BLOCK: usize = 64 << 10;
        const ROUNDS: usize = 32;
        const DIRECT: usize = 4;
        let dir = scratch_dir("concurrent");
        let be = LocalFileBackend::new(&dir).unwrap();
        let f = be.open("/c", OpenOptions::create_truncate()).unwrap();
        // Round r: slots 5r..5r+3 go to the direct threads, slot 5r+4 to
        // the ragged one — slots are block-aligned, so no page is shared
        // between a direct and a buffered write.
        let slot = |r: usize, t: usize| (r * (DIRECT + 1) + t) * BLOCK;
        let ragged = patterned(5000, 7);
        // (offset within the slot, bytes): ragged offset, ragged length,
        // and an aligned shape read from an unaligned address.
        let ragged_writes = [
            (13, &ragged[..4096]),
            (2 * 4096, &ragged[..5000]),
            (4 * 4096, &ragged[1..4097]),
        ];
        std::thread::scope(|s| {
            for t in 0..DIRECT {
                let f = &f;
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let block = patterned(BLOCK, slot(r, t));
                        f.write_at(slot(r, t) as u64, &block).unwrap();
                    }
                });
            }
            s.spawn(|| {
                for r in 0..ROUNDS {
                    for (at, bytes) in ragged_writes {
                        f.write_at((slot(r, DIRECT) + at) as u64, bytes).unwrap();
                    }
                }
            });
        });
        let logical = slot(ROUNDS - 1, DIRECT) + 4 * 4096 + 4096;
        let mut want = vec![0u8; logical];
        for r in 0..ROUNDS {
            for t in 0..DIRECT {
                let at = slot(r, t);
                want[at..at + BLOCK].copy_from_slice(&patterned(BLOCK, at));
            }
            for (at, bytes) in ragged_writes {
                let at = slot(r, DIRECT) + at;
                want[at..at + bytes.len()].copy_from_slice(bytes);
            }
        }
        f.sync().unwrap();
        assert_eq!(f.len().unwrap(), logical as u64);
        drop(f);
        assert_eq!(be.file_len("/c").unwrap(), logical as u64, "no slack");
        assert!(fs::read(dir.join("c")).unwrap() == want, "byte-exact");
        let (direct, buffered) = be.write_counts();
        assert_eq!(direct + buffered, (ROUNDS * (DIRECT + 3)) as u64);
        assert!(
            direct == 0 || direct == (ROUNDS * DIRECT) as u64,
            "{direct}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The path taken is observable: a raw mount's full chunks leave on
    /// the direct handle straight from their pool buffers, the ragged
    /// tail on the buffered one.
    #[test]
    fn raw_mount_writes_full_chunks_direct_and_the_tail_buffered() {
        let dir = scratch_dir("counts");
        let be = Arc::new(LocalFileBackend::new(&dir).unwrap());
        fs::write(dir.join("probe"), b"").unwrap();
        if open_direct(&dir.join("probe")).is_err() {
            println!("skipped: no O_DIRECT here");
            fs::remove_dir_all(&dir).unwrap();
            return;
        }
        let config = crate::CrfsConfig::default()
            .with_chunk_size(64 << 10)
            .with_pool_size(1 << 20);
        let mount = crate::Crfs::mount(Arc::clone(&be) as Arc<dyn Backend>, config).unwrap();
        let vfs = crate::Vfs::new();
        vfs.mount("/m", Arc::clone(&mount)).unwrap();
        let data: Vec<u8> = (0..(1 << 20) + 100).map(|i| (i % 251) as u8).collect();
        let fd = vfs.create("/m/ckpt").unwrap();
        vfs.write(fd, &data).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(be.write_counts(), (16, 1));
        mount.unmount().unwrap();
        assert!(fs::read(dir.join("ckpt")).unwrap() == data);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_ops_and_path_escape() {
        let dir = scratch_dir("dirs");
        let be = LocalFileBackend::new(&dir).unwrap();
        be.mkdir("/a").unwrap();
        let f = be.open("/a/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"x").unwrap();
        drop(f);
        assert_eq!(be.list_dir("/a").unwrap(), vec!["f"]);
        be.rename("/a/f", "/a/g").unwrap();
        assert!(be.exists("/a/g"));
        be.unlink("/a/g").unwrap();
        be.rmdir("/a").unwrap();
        assert!(be
            .open("/../../etc/passwd", OpenOptions::read_only())
            .is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
