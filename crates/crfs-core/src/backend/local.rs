//! Local backend: O_DIRECT-style aligned writes with extent
//! preallocation.
//!
//! The paper's node-local configuration writes checkpoint chunks to a
//! local disk partition; at chunk sizes (hundreds of KiB) the page cache
//! costs a copy and doubles memory pressure without helping a
//! write-once stream. This backend keeps [`PassthroughBackend`]'s
//! directory layout but adds two disk-oriented behaviors:
//!
//! 1. **Direct writes.** Each file also holds an `O_DIRECT` handle.
//!    A write whose offset *and* length are both multiples of
//!    [`DEFAULT_ALIGN`] is copied into an equally aligned bounce buffer
//!    and issued on that handle, bypassing the page cache. Chunk-sized
//!    writes from the engine hot path are exactly this shape; ragged
//!    tails and metadata writes fall through to the buffered handle.
//!    No padding is ever written, so out-of-order chunk completion
//!    cannot clobber a neighbor. If `O_DIRECT` is unavailable (tmpfs,
//!    overlayfs, non-Linux) the handle is absent and every write is
//!    buffered — behavior identical to passthrough, never an error.
//! 2. **Extent preallocation.** Before a write past the allocated
//!    watermark the file grows to the next `extent` boundary
//!    (`set_len`, a cheap sparse extension standing in for
//!    `fallocate`), so concurrent out-of-order chunk writes don't each
//!    extend the inode. The *logical* length — max byte ever written —
//!    is tracked separately; `sync`, `len` and drop all report/restore
//!    it, so readers and the restart path never see preallocated slack.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::layer::{aligned_shape, HostDir};
use super::{Backend, BackendFile, OpenOptions};

/// Direct-write alignment: one page / typical logical block.
pub const DEFAULT_ALIGN: usize = 4096;
/// Default preallocation extent: 4 MiB.
pub const DEFAULT_EXTENT: u64 = 4 << 20;

/// A heap allocation whose base address and size are multiples of
/// `align` — the bounce buffer `O_DIRECT` requires.
struct AlignedBuf {
    ptr: *mut u8,
    layout: Layout,
}

unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    fn new(len: usize, align: usize) -> io::Result<AlignedBuf> {
        let layout = Layout::from_size_align(len, align)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // SAFETY: layout has non-zero size (callers pass len > 0).
        let ptr = unsafe { alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                "aligned buffer allocation failed",
            ));
        }
        Ok(AlignedBuf { ptr, layout })
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: ptr is a live allocation of layout.size() bytes.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.layout.size()) }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts(self.ptr, self.layout.size()) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: allocated in new() with this exact layout.
        unsafe { dealloc(self.ptr, self.layout) }
    }
}

/// Directory-rooted backend issuing aligned direct writes with extent
/// preallocation. See the module docs.
pub struct LocalFileBackend {
    dir: HostDir,
    extent: u64,
    direct: bool,
}

impl LocalFileBackend {
    /// Creates a backend rooted at `root` (created if needed) with the
    /// default extent (4 MiB) and `O_DIRECT` enabled where the
    /// filesystem supports it.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<LocalFileBackend> {
        Ok(LocalFileBackend {
            dir: HostDir::new(root.into())?,
            extent: DEFAULT_EXTENT,
            direct: true,
        })
    }

    /// Sets the preallocation extent in bytes (0 disables).
    pub fn with_extent(mut self, extent: u64) -> LocalFileBackend {
        self.extent = extent;
        self
    }

    /// Disables `O_DIRECT` entirely (buffered writes only) — for
    /// benchmarking the preallocation effect in isolation.
    pub fn buffered_only(mut self) -> LocalFileBackend {
        self.direct = false;
        self
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
        let direct = if self.direct && opts.write {
            open_direct(&host).ok()
        } else {
            None
        };
        let logical = file.metadata()?.len();
        Ok(Box::new(LocalFile {
            buffered: file,
            direct: Mutex::new(direct),
            align: DEFAULT_ALIGN,
            extent: self.extent,
            logical: AtomicU64::new(logical),
            grow: Mutex::new(Grow { allocated: logical }),
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

struct Grow {
    /// Physical size watermark the file has been extended to.
    allocated: u64,
}

struct LocalFile {
    buffered: fs::File,
    /// `O_DIRECT` handle; `None` when unsupported, cleared permanently
    /// on the first direct-write failure.
    direct: Mutex<Option<fs::File>>,
    align: usize,
    extent: u64,
    /// Max byte ever written: the length readers should see.
    logical: AtomicU64,
    grow: Mutex<Grow>,
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
        let mut grow = self.grow.lock().unwrap();
        if end <= grow.allocated {
            return Ok(());
        }
        let target = end.div_ceil(self.extent) * self.extent;
        if self.buffered.metadata()?.len() < target {
            self.buffered.set_len(target)?;
        }
        grow.allocated = target;
        Ok(())
    }

    /// Cuts this handle's preallocated slack off, so the on-disk length
    /// equals the logical length — but only while the physical length
    /// is still the one this handle set: a file some other handle has
    /// resized since is that handle's to trim.
    fn trim_slack(&self, grow: &mut Grow) -> io::Result<()> {
        let logical = self.logical.load(Ordering::SeqCst);
        if grow.allocated != logical && self.buffered.metadata()?.len() == grow.allocated {
            self.buffered.set_len(logical)?;
        }
        grow.allocated = logical;
        Ok(())
    }

    fn note_written(&self, end: u64) {
        self.logical.fetch_max(end, Ordering::SeqCst);
    }

    /// Attempts the direct path; `Ok(false)` means "take the buffered
    /// path" (wrong shape or no direct handle).
    fn try_direct(&self, offset: u64, data: &[u8]) -> io::Result<bool> {
        if !aligned_shape(offset, data.len(), self.align) {
            return Ok(false);
        }
        let mut guard = self.direct.lock().unwrap();
        let Some(file) = guard.as_ref() else {
            return Ok(false);
        };
        let mut bounce = AlignedBuf::new(data.len(), self.align)?;
        bounce.as_mut_slice().copy_from_slice(data);
        use std::os::unix::fs::FileExt;
        match file.write_all_at(bounce.as_slice(), offset) {
            Ok(()) => Ok(true),
            Err(_) => {
                // The filesystem accepted O_DIRECT at open but rejected
                // the write (e.g. alignment stricter than ours). Fall
                // back to buffered for the rest of this file's life.
                *guard = None;
                Ok(false)
            }
        }
    }
}

#[cfg(unix)]
impl BackendFile for LocalFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let end = offset + data.len() as u64;
        self.ensure_allocated(end)?;
        if !self.try_direct(offset, data)? {
            self.buffered.write_all_at(data, offset)?;
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
                // Sparse tail inside the logical range reads as zeros;
                // the buffer arrived zero-filled from the caller? No —
                // guarantee it ourselves.
                buf[got..want].fill(0);
                got = want;
                break;
            }
            got += n;
        }
        Ok(got)
    }

    fn sync(&self) -> io::Result<()> {
        self.trim_slack(&mut self.grow.lock().unwrap())?;
        self.buffered.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.logical.load(Ordering::SeqCst))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut grow = self.grow.lock().unwrap();
        self.buffered.set_len(len)?;
        grow.allocated = len;
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
        if let Ok(mut grow) = self.grow.lock() {
            let _ = self.trim_slack(&mut grow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
            direct: Mutex::new(Some(poisoned)),
            align: DEFAULT_ALIGN,
            extent: 1 << 20,
            logical: AtomicU64::new(0),
            grow: Mutex::new(Grow { allocated: 0 }),
        };

        // Perfectly aligned (the direct-path shape), position-derived
        // bytes so a short or misplaced landing cannot go unnoticed.
        let chunk: Vec<u8> = (0..2 * DEFAULT_ALIGN).map(|i| (i % 251) as u8).collect();
        f.write_at(0, &chunk).expect("fallback hides the failure");
        assert!(
            f.direct.lock().unwrap().is_none(),
            "first direct failure must clear the handle for good"
        );

        // Sticky across sync: the trim/flush path must not resurrect it.
        f.sync().unwrap();
        assert!(f.direct.lock().unwrap().is_none(), "sync kept the fallback");

        // A second aligned write goes straight to the buffered handle.
        f.write_at(chunk.len() as u64, &chunk).unwrap();
        assert!(f.direct.lock().unwrap().is_none());

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
