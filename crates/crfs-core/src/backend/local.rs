//! Local backend: `O_DIRECT` writes straight from the caller's buffer,
//! extent preallocation, and rewrite-in-place of a re-created file.
//!
//! The paper's node-local configuration writes checkpoint chunks to a
//! local disk partition; at chunk sizes (hundreds of KiB) the page cache
//! costs a copy and doubles memory pressure without helping a
//! write-once stream. This backend maps paths onto a host directory
//! and adds three disk-oriented behaviors:
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
//!    watermark the file grows to the next [`DEFAULT_EXTENT`] boundary
//!    (`set_len`, a cheap sparse extension standing in for
//!    `fallocate`), so concurrent out-of-order chunk writes don't each
//!    extend the inode. The *logical* length — the end of the furthest
//!    write begun — is tracked separately; `sync`, `len` and drop all
//!    report/restore it, so readers and the restart path never see
//!    preallocated slack.
//! 3. **Rewrite in place.** A truncating open with
//!    [`OpenOptions::keep_blocks`] over a non-empty file passes no
//!    `O_TRUNC`: the file is *logically* empty at once and keeps its
//!    blocks, so an image replacing its predecessor overwrites written
//!    extents instead of freeing them and allocating them again one
//!    direct write at a time. A write *claims* its range before it is
//!    issued (a short lock, never held across a data write); a read
//!    zeroes whatever below the old length no write has claimed, as
//!    after a real truncate. `sync` and drop *settle*: zero-fill the
//!    unclaimed gaps below the logical length — under the lock, so no
//!    zero lands on a later claim — and trim the old tail like any
//!    slack; an image the size of its predecessor settles with no
//!    syscall. The handle must be the file's only writer until then. A
//!    crash before the settle leaves the predecessor's bytes, at its
//!    length, where the eager cut leaves zero slack — neither
//!    detectable on a raw file; a file recovered by scanning is opened
//!    without the bit. See [`LocalFileBackend::rewrite_counts`].

use parking_lot::Mutex;
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use super::layer::aligned_shape;
use super::{normalize_path, Backend, BackendFile, OpenOptions};

/// Direct-write alignment: one page / typical logical block, and the
/// alignment of every pool chunk.
pub const DEFAULT_ALIGN: usize = crate::pool::CHUNK_ALIGN;
/// Preallocation extent: 4 MiB.
pub const DEFAULT_EXTENT: u64 = 4 << 20;

/// Path counters, over every file of one backend.
#[derive(Default)]
struct Counts {
    direct: AtomicU64,
    buffered: AtomicU64,
    rewrites: AtomicU64,
    zero_filled: AtomicU64,
}

/// Directory-rooted backend issuing aligned direct writes with extent
/// preallocation. See the module docs.
pub struct LocalFileBackend {
    root: PathBuf,
    counts: Arc<Counts>,
}

impl LocalFileBackend {
    /// Creates a backend rooted at `root` (created if needed), with
    /// `O_DIRECT` enabled where the filesystem supports it.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<LocalFileBackend> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(LocalFileBackend {
            root,
            counts: Arc::default(),
        })
    }

    /// `(direct, buffered)`: writes issued on each handle, over every
    /// file this backend has opened.
    pub fn write_counts(&self) -> (u64, u64) {
        (
            self.counts.direct.load(Ordering::Relaxed),
            self.counts.buffered.load(Ordering::Relaxed),
        )
    }

    /// `(rewrites, zero_filled_bytes)`: opens that kept a file's blocks,
    /// and the unclaimed bytes their settles zeroed (0 for whole images).
    pub fn rewrite_counts(&self) -> (u64, u64) {
        (
            self.counts.rewrites.load(Ordering::Relaxed),
            self.counts.zero_filled.load(Ordering::Relaxed),
        )
    }

    /// The host directory backing this filesystem.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Maps a backend path to its host path, rejecting root escapes.
    fn host_path(&self, path: &str) -> io::Result<PathBuf> {
        let norm = normalize_path(path)?;
        Ok(self.root.join(norm.trim_start_matches('/')))
    }
}

impl Backend for LocalFileBackend {
    fn name(&self) -> &str {
        "local"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let host = self.host_path(path)?;
        let rewrite = opts.truncate && opts.keep_blocks;
        let file = fs::OpenOptions::new()
            .read(opts.read)
            .write(opts.write)
            .create(opts.create)
            .truncate(opts.truncate && !rewrite)
            .open(&host)?;
        // A second O_DIRECT handle for aligned writes. Open failure
        // (tmpfs and most overlay filesystems reject the flag) simply
        // means every write stays buffered.
        let direct = opts.write.then(|| open_direct(&host).ok()).flatten();
        let physical = file.metadata()?.len();
        // An empty or new file has nothing to keep: the plain path.
        let rewrite = rewrite && physical > 0;
        if rewrite {
            self.counts.rewrites.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Box::new(LocalFile {
            buffered: file,
            direct,
            direct_failed: AtomicBool::new(false),
            counts: Arc::clone(&self.counts),
            logical: AtomicU64::new(if rewrite { 0 } else { physical }),
            sizes: Mutex::new(Sizes {
                allocated: physical,
                old_len: if rewrite { physical } else { 0 },
                written: Vec::new(),
            }),
        }))
    }

    fn mkdir(&self, path: &str) -> io::Result<()> {
        fs::create_dir(self.host_path(path)?)
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        fs::remove_dir(self.host_path(path)?)
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        fs::remove_file(self.host_path(path)?)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.host_path(from)?, self.host_path(to)?)
    }

    fn exists(&self, path: &str) -> bool {
        self.host_path(path).map(|p| p.exists()).unwrap_or(false)
    }

    // While a file is open for writing this may include slack
    // (preallocation, a rewrite's old tail); the open handle's `len()`
    // reports the logical length, and `sync`/drop trim the file.
    fn file_len(&self, path: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.host_path(path)?)?.len())
    }

    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(self.host_path(path)?)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
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
    counts: Arc<Counts>,
    /// End of the furthest write begun: the length readers should see.
    logical: AtomicU64,
    /// Held to reserve a write's range and to settle, never across a
    /// data write.
    sizes: Mutex<Sizes>,
}

struct Sizes {
    /// Physical size watermark the file has been extended to.
    allocated: u64,
    /// A rewrite's old bytes lie below this, the physical length at
    /// open; 0 when there are none (left).
    old_len: u64,
    /// Ranges below `old_len` a write has claimed; sorted, disjoint.
    written: Vec<(u64, u64)>,
}

impl Sizes {
    fn claim(&mut self, start: u64, end: u64) {
        let end = end.min(self.old_len);
        if start < end {
            // Replace every range touching the new one by their union.
            let lo = self.written.partition_point(|r| r.1 < start);
            let hi = self.written.partition_point(|r| r.0 <= end);
            let union = self.written[lo..hi]
                .iter()
                .fold((start, end), |u, r| (u.0.min(r.0), u.1.max(r.1)));
            self.written.splice(lo..hi, [union]);
        }
    }

    /// The unclaimed parts of `[start, end)` below `old_len`.
    fn gaps(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let end = end.min(self.old_len);
        let mut gaps = Vec::new();
        let mut at = start;
        for &(s, e) in self.written.iter().take_while(|r| r.0 < end) {
            if s > at {
                gaps.push((at, s));
            }
            at = at.max(e);
        }
        if at < end {
            gaps.push((at, end));
        }
        gaps
    }
}

impl LocalFile {
    /// Before a write of `[offset, end)` is issued: claims it from a
    /// rewrite's old bytes, extends the physical file to the extent
    /// boundary past `end` so chunk writes land on preallocated blocks,
    /// and raises the logical length so no concurrent settle cuts under
    /// the write. Grows only: a `set_len` down to this handle's target
    /// would cut off what another handle wrote past it. The `fstat`
    /// runs once per extent, never below a rewritten file's old length.
    fn reserve(&self, offset: u64, end: u64) -> io::Result<()> {
        let mut sizes = self.sizes.lock();
        sizes.claim(offset, end);
        if end > sizes.allocated {
            let target = end.div_ceil(DEFAULT_EXTENT) * DEFAULT_EXTENT;
            if self.buffered.metadata()?.len() < target {
                self.buffered.set_len(target)?;
            }
            sizes.allocated = target;
        }
        self.logical.fetch_max(end, Ordering::SeqCst);
        Ok(())
    }

    /// Makes the host file what the handle reports: zeroes a rewrite's
    /// unclaimed old bytes below the logical length, then cuts this
    /// handle's slack (preallocation, or a rewrite's old tail) off — but
    /// only while the physical length is still the one this handle set:
    /// a file another handle has resized since is that handle's to trim.
    fn settle(&self) -> io::Result<()> {
        static ZEROS: [u8; 64 << 10] = [0; 64 << 10];
        let mut sizes = self.sizes.lock();
        let logical = self.logical.load(Ordering::SeqCst);
        for (start, end) in sizes.gaps(0, logical) {
            for at in (start..end).step_by(ZEROS.len()) {
                let n = ZEROS.len().min((end - at) as usize);
                self.buffered.write_all_at(&ZEROS[..n], at)?;
            }
            self.counts
                .zero_filled
                .fetch_add(end - start, Ordering::Relaxed);
        }
        (sizes.old_len, sizes.written) = (0, Vec::new());
        if sizes.allocated != logical && self.buffered.metadata()?.len() == sizes.allocated {
            self.buffered.set_len(logical)?;
        }
        sizes.allocated = logical;
        Ok(())
    }

    /// The direct path: `data` itself goes out on the `O_DIRECT` handle
    /// when its address, `offset` and length are all aligned. `false`
    /// means "take the buffered path" — wrong shape, no direct handle, or
    /// a direct write the filesystem rejected, now or earlier (e.g. its
    /// alignment is stricter than ours): sticky for the file's life.
    fn try_direct(&self, offset: u64, data: &[u8]) -> bool {
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

impl BackendFile for LocalFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.reserve(offset, offset + data.len() as u64)?;
        if self.try_direct(offset, data) {
            self.counts.direct.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buffered.write_all_at(data, offset)?;
            self.counts.buffered.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        // Cap at the logical length so preallocated slack is invisible;
        // loop-fill because a direct write followed by a buffered read
        // may return short at block boundaries.
        let logical = self.logical.load(Ordering::SeqCst);
        if offset >= logical {
            return Ok(0);
        }
        let want = buf.len().min((logical - offset) as usize);
        let old = self.sizes.lock().gaps(offset, offset + want as u64);
        let mut got = 0;
        while got < want {
            let n = self
                .buffered
                .read_at(&mut buf[got..want], offset + got as u64)?;
            if n == 0 {
                // Sparse tail inside the logical range reads as zeros.
                buf[got..want].fill(0);
                break;
            }
            got += n;
        }
        // So does whatever a rewrite has not written yet.
        for (s, e) in old {
            buf[(s - offset) as usize..(e - offset) as usize].fill(0);
        }
        Ok(want)
    }

    fn sync(&self) -> io::Result<()> {
        self.settle()?;
        self.buffered.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.logical.load(Ordering::SeqCst))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut sizes = self.sizes.lock();
        self.buffered.set_len(len)?;
        sizes.allocated = len;
        // Physical, so a rewrite's old bytes past `len` are gone for good.
        sizes.old_len = sizes.old_len.min(len);
        sizes.written.retain_mut(|r| {
            r.1 = r.1.min(len);
            r.0 < r.1
        });
        self.logical.store(len, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(not(unix))]
compile_error!("LocalFileBackend currently requires a Unix platform (positioned IO via FileExt)");

impl Drop for LocalFile {
    fn drop(&mut self) {
        // Best-effort: never leave slack or old bytes behind a closed
        // file (the restart path reads via plain metadata lengths).
        let _ = self.settle();
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
        let be = LocalFileBackend::new(&dir).unwrap();
        let f = be.open("/p", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &[7u8; 4096]).unwrap();
        // Logical length is what was written, not the 4 MiB extent.
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
            logical: AtomicU64::new(0),
            sizes: Mutex::new(Sizes {
                allocated: 0,
                old_len: 0,
                written: Vec::new(),
            }),
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
        assert_eq!(be.rewrite_counts(), (0, 0), "a new file: the plain path");
        // The next checkpoint of the same file takes the same writes,
        // keeps the blocks, and has nothing to zero or to trim.
        let next: Vec<u8> = data.iter().map(|b| b ^ 0x5a).collect();
        let fd = vfs.create("/m/ckpt").unwrap();
        vfs.write(fd, &next).unwrap();
        vfs.close(fd).unwrap();
        assert_eq!(be.write_counts(), (32, 2));
        assert_eq!(be.rewrite_counts(), (1, 0));
        mount.unmount().unwrap();
        assert!(fs::read(dir.join("ckpt")).unwrap() == next);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A file of `len` bytes of `0xAA` under `dir`, re-created for rewrite.
    fn rewrite_over_aa(be: &LocalFileBackend, len: usize) -> Box<dyn BackendFile> {
        fs::write(be.root().join("f"), vec![0xaa; len]).unwrap();
        be.open("/f", OpenOptions::create_rewrite()).unwrap()
    }

    fn read_all(f: &dyn BackendFile) -> Vec<u8> {
        let mut buf = vec![0x77; f.len().unwrap() as usize + 9];
        let n = f.read_at(0, &mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    /// A hole in a rewritten file reads zeros at once, is zeros on the
    /// host after `sync` and after drop without `sync`, and the settle
    /// counts exactly the gap.
    #[test]
    fn rewrite_hole_reads_zeros_at_once_and_lands_as_zeros() {
        const AT: usize = 700_000;
        let dir = scratch_dir("hole");
        let be = LocalFileBackend::new(&dir).unwrap();
        let mut want = vec![0u8; AT];
        want.extend_from_slice(b"island");
        for synced in [true, false] {
            let f = rewrite_over_aa(&be, 1 << 20);
            assert_eq!(f.len().unwrap(), 0, "empty at once");
            assert_eq!(read_all(&*f), b"");
            f.write_at(AT as u64, b"island").unwrap();
            assert_eq!(f.len().unwrap(), want.len() as u64);
            assert!(read_all(&*f) == want, "zeros before any sync");
            let mut mid = [1u8; 8];
            assert_eq!(f.read_at(AT as u64 - 4, &mut mid).unwrap(), 8);
            assert_eq!(&mid, b"\0\0\0\0isla");
            if synced {
                f.sync().unwrap();
                assert!(fs::read(dir.join("f")).unwrap() == want, "host after sync");
                assert!(read_all(&*f) == want);
            }
            drop(f);
            assert!(fs::read(dir.join("f")).unwrap() == want, "host after drop");
        }
        assert_eq!(be.rewrite_counts(), (2, 2 * AT as u64));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Four threads rewrite the 16 blocks of a file in shuffled order
    /// while a fifth keeps settling: no zero-fill and no trim may land
    /// on a block a writer has claimed.
    #[test]
    fn shuffled_rewriters_and_a_syncer_land_byte_exact() {
        const BLOCK: usize = 64 << 10;
        let dir = scratch_dir("shuffled");
        let be = LocalFileBackend::new(&dir).unwrap();
        for round in 0..8usize {
            let f = rewrite_over_aa(&be, 16 * BLOCK);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let writers: Vec<_> = (0..4usize)
                    .map(|t| {
                        let f = &f;
                        s.spawn(move || {
                            for i in 0..4 {
                                // A different permutation of 0..16 per round.
                                let block = ((4 * i + t) * (2 * round + 3) + round) % 16;
                                let at = block * BLOCK;
                                f.write_at(at as u64, &patterned(BLOCK, at + round))
                                    .unwrap();
                            }
                        })
                    })
                    .collect();
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        f.sync().unwrap();
                    }
                });
                for w in writers {
                    w.join().unwrap();
                }
                done.store(true, Ordering::Relaxed);
            });
            assert_eq!(f.len().unwrap(), 16 * BLOCK as u64);
            drop(f);
            let host = fs::read(dir.join("f")).unwrap();
            assert_eq!(host.len(), 16 * BLOCK);
            for at in (0..16 * BLOCK).step_by(BLOCK) {
                assert!(
                    host[at..at + BLOCK] == patterned(BLOCK, at + round)[..],
                    "round {round} block {}",
                    at / BLOCK
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn set_len_up_down_and_to_zero_mid_rewrite() {
        let dir = scratch_dir("setlen");
        let be = LocalFileBackend::new(&dir).unwrap();
        let f = rewrite_over_aa(&be, 1 << 20);
        f.write_at(0, &[0x11; 65536]).unwrap();
        // Down, inside the old file: the cut is physical, the rest reads zeros.
        f.set_len(512 << 10).unwrap();
        let mut want = vec![0x11; 65536];
        want.resize(512 << 10, 0);
        assert!(read_all(&*f) == want);
        assert_eq!(fs::metadata(dir.join("f")).unwrap().len(), 512 << 10);
        // Up, past the old file.
        f.set_len(2 << 20).unwrap();
        want.resize(2 << 20, 0);
        assert!(read_all(&*f) == want);
        f.sync().unwrap();
        assert!(fs::read(dir.join("f")).unwrap() == want, "no 0xAA survives");
        // To zero, then a write past a fresh hole.
        let f = rewrite_over_aa(&be, 1 << 20);
        f.write_at(4096, &[0x22; 4096]).unwrap();
        f.set_len(0).unwrap();
        assert_eq!(f.len().unwrap(), 0);
        f.write_at(8192, &[0x33; 100]).unwrap();
        let mut want = vec![0u8; 8192];
        want.extend_from_slice(&[0x33; 100]);
        assert!(read_all(&*f) == want);
        drop(f);
        assert!(fs::read(dir.join("f")).unwrap() == want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_of_an_empty_or_missing_file_takes_the_plain_path() {
        let dir = scratch_dir("plain");
        let be = LocalFileBackend::new(&dir).unwrap();
        for _ in 0..2 {
            // First pass: missing. Second: present and empty.
            let f = be.open("/e", OpenOptions::create_rewrite()).unwrap();
            assert_eq!(f.len().unwrap(), 0);
            drop(f);
        }
        assert_eq!(be.rewrite_counts(), (0, 0));
        // And without the bit a non-empty file is cut at open, as ever.
        fs::write(dir.join("e"), b"old").unwrap();
        let f = be.open("/e", OpenOptions::create_truncate()).unwrap();
        assert_eq!(fs::metadata(dir.join("e")).unwrap().len(), 0);
        drop(f);
        assert_eq!(be.rewrite_counts(), (0, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Seeded differential: the same random create / write / read /
    /// `set_len` / `sync` / reopen sequence on this backend and on
    /// [`MemBackend`](crate::backend::MemBackend), which cuts eagerly —
    /// identical reads and lengths at every step, identical contents at
    /// every reopen and at the end.
    #[test]
    fn rewrite_differential_against_the_eager_mem_backend() {
        const SPAN: u64 = 300 << 10;
        let dir = scratch_dir("diff");
        let be = LocalFileBackend::new(&dir).unwrap();
        let mem = crate::backend::MemBackend::new();
        // splitmix64
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let open = |opts| (be.open("/d", opts).unwrap(), mem.open("/d", opts).unwrap());
        let (mut l, mut m) = open(OpenOptions::create_rewrite());
        for round in 0..200 {
            for _ in 0..12 {
                match next() % 10 {
                    0..=4 => {
                        // Half the writes have the direct shape.
                        let aligned = next() % 2 == 0;
                        let (at, len) = if aligned {
                            (
                                (next() % (SPAN >> 12)) << 12,
                                ((1 + next() % 8) << 12) as usize,
                            )
                        } else {
                            (next() % SPAN, 1 + (next() % 40_000) as usize)
                        };
                        let data = patterned(len, next() as usize % 251);
                        l.write_at(at, &data).unwrap();
                        m.write_at(at, &data).unwrap();
                    }
                    5..=7 => {
                        let (at, len) = (next() % SPAN, (next() % 70_000) as usize);
                        let (mut a, mut b) = (vec![1u8; len], vec![2u8; len]);
                        let (na, nb) = (
                            l.read_at(at, &mut a).unwrap(),
                            m.read_at(at, &mut b).unwrap(),
                        );
                        assert_eq!(na, nb, "round {round}: read length at {at}+{len}");
                        assert!(a[..na] == b[..nb], "round {round}: read at {at}+{len}");
                    }
                    8 => {
                        let len = next() % SPAN;
                        l.set_len(len).unwrap();
                        m.set_len(len).unwrap();
                    }
                    _ => {
                        l.sync().unwrap();
                        m.sync().unwrap();
                    }
                }
                assert_eq!(l.len().unwrap(), m.len().unwrap(), "round {round}");
            }
            // Close (with no sync of its own) and look at the host file.
            drop((l, m));
            assert!(
                fs::read(dir.join("d")).unwrap() == mem.contents("/d").unwrap(),
                "round {round}: contents after close"
            );
            (l, m) = open(if next() % 3 == 0 {
                OpenOptions::read_write()
            } else {
                OpenOptions::create_rewrite()
            });
            assert_eq!(l.len().unwrap(), m.len().unwrap(), "round {round}: reopen");
        }
        assert!(be.rewrite_counts().0 > 50 && be.rewrite_counts().1 > 0);
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
