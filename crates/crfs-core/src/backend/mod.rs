//! Backend filesystems CRFS stacks on.
//!
//! CRFS "relies on other filesystems to store the real file data" (paper
//! §IV). [`Backend`] is that lower layer: a thread-safe, offset-addressed
//! file store. Shipped implementations:
//!
//! - [`LocalFileBackend`]: a directory on the host filesystem (the
//!   production backend — the analogue of mounting CRFS over ext3/NFS/
//!   Lustre), written `O_DIRECT`, re-created files rewritten in place.
//! - [`MemBackend`]: an in-memory tree, used by tests and examples.
//! - [`DiscardBackend`]: a null sink that acknowledges writes instantly —
//!   the paper uses exactly this trick to measure the raw aggregation
//!   pipeline (Fig. 5: "once a filled chunk is picked up by an IO thread it
//!   is discarded").
//! - [`ThrottledBackend`]: wraps any backend with a wall-clock device model
//!   (bandwidth + per-op latency + optional serialization), letting the
//!   real library demonstrate contention relief without cluster hardware.
//! - [`FaultyBackend`]: deterministic failure injection for tests.

mod discard;
mod faulty;
pub mod layer;
mod local;
mod mem;
mod throttled;
mod tiered;

pub use discard::DiscardBackend;
pub use faulty::{FailureMode, FaultyBackend};
pub use layer::{aligned_shape, LayeredBackend};
pub use local::LocalFileBackend;
pub use mem::MemBackend;
pub use throttled::{ThrottleParams, ThrottledBackend};
pub(crate) use tiered::is_promote_tmp;
pub use tiered::{TierCounters, TieredBackend, TieredParams};

use std::io;
use std::sync::Arc;

/// How a file should be opened on the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenOptions {
    /// Allow reads.
    pub read: bool,
    /// Allow writes.
    pub write: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate existing contents to zero length.
    pub truncate: bool,
    /// With `truncate` only: the opener rewrites the file from the start
    /// and nothing scans bytes it has not rewritten, so a backend *may*
    /// keep the blocks — empty the file logically at once, cut it
    /// physically at the first `sync` / close ([`LocalFileBackend`] does).
    /// The handle behaves as after an eager cut; a crash before that
    /// `sync` leaves old bytes. Ignoring the bit is always correct.
    pub keep_blocks: bool,
}

impl OpenOptions {
    /// Read-only open of an existing file.
    pub fn read_only() -> Self {
        OpenOptions {
            read: true,
            write: false,
            create: false,
            truncate: false,
            keep_blocks: false,
        }
    }

    /// Read-write open of an existing file.
    pub fn read_write() -> Self {
        OpenOptions {
            read: true,
            write: true,
            create: false,
            truncate: false,
            keep_blocks: false,
        }
    }

    /// Create-or-truncate for writing (the checkpoint-file open mode).
    pub fn create_truncate() -> Self {
        OpenOptions {
            read: true,
            write: true,
            create: true,
            truncate: true,
            keep_blocks: false,
        }
    }

    /// [`create_truncate`](Self::create_truncate) with `keep_blocks`: a
    /// raw checkpoint image replacing its predecessor. Not for a file
    /// recovered by scanning (a frame log): a crash would leave the
    /// predecessor's valid records behind the new prefix.
    pub fn create_rewrite() -> Self {
        OpenOptions {
            keep_blocks: true,
            ..Self::create_truncate()
        }
    }
}

/// Receives asynchronous write completions from a backend that accepted
/// a [`BackendFile::begin_write_at`]. Implemented by engines that keep
/// per-op state in a descriptor slab (see `engine::RingEngine`) instead
/// of a blocked worker thread.
pub trait CompletionSink: Send + Sync {
    /// Reports the final result of the asynchronous write identified by
    /// `token`. Called exactly once per accepted `begin_write_at`;
    /// calling it from inside `begin_write_at` itself (an inline
    /// completion) is legal and engines must tolerate it.
    fn complete(&self, token: u64, result: io::Result<()>);
}

/// An open file on a backend. All methods are `&self` and thread-safe:
/// CRFS's IO workers call [`write_at`](BackendFile::write_at) concurrently
/// from multiple threads.
pub trait BackendFile: Send + Sync {
    /// Writes all of `data` at byte `offset`, extending the file (with a
    /// zero hole) if the offset is past the end.
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Begins an asynchronous write of all of `data` at `offset`.
    ///
    /// Returns `Ok(true)` if the backend accepted the operation: it has
    /// consumed (copied or durably queued) `data` — the slice is only
    /// valid for the duration of this call — and will invoke
    /// `sink.complete(token, result)` exactly once, possibly before this
    /// call returns. Returns `Ok(false)` if the backend has no
    /// asynchronous path (the default): the caller falls back to the
    /// blocking [`write_at`](BackendFile::write_at) and no completion is
    /// delivered. `Err` is a submission-time failure: nothing was
    /// written and no completion will be delivered.
    ///
    /// The default shim keeps every existing backend (Discard / Mem /
    /// Throttled / Faulty / Local) working unchanged.
    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        let _ = (token, offset, data, sink);
        Ok(false)
    }

    /// Reads up to `buf.len()` bytes from `offset`; returns the number of
    /// bytes read (0 at end-of-file).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Flushes the file's data to stable storage (`fsync`).
    fn sync(&self) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Truncates or extends the file to exactly `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Whether the file is currently empty (`len() == 0`).
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A mountable backend filesystem.
///
/// Paths handed to the backend are normalized, absolute, `/`-separated
/// strings (see [`normalize_path`]); `"/"` is the backend root.
pub trait Backend: Send + Sync + 'static {
    /// Short human-readable name for reports ("ext3", "mem", ...).
    fn name(&self) -> &str;

    /// Opens a file per `opts`.
    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>>;

    /// Creates a directory; the parent must exist.
    fn mkdir(&self, path: &str) -> io::Result<()>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &str) -> io::Result<()>;

    /// Removes a file.
    fn unlink(&self, path: &str) -> io::Result<()>;

    /// Renames a file or directory.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Whether the path exists (file or directory).
    fn exists(&self, path: &str) -> bool;

    /// Length of the file at `path`.
    fn file_len(&self, path: &str) -> io::Result<u64>;

    /// Names (not full paths) of entries directly under the directory.
    fn list_dir(&self, path: &str) -> io::Result<Vec<String>>;

    /// Blocks until every write this backend has already acknowledged
    /// has reached its final (most durable) tier, then returns. For
    /// single-tier backends acknowledgement already implies placement,
    /// so the default is a no-op; [`TieredBackend`] overrides it to
    /// flush its drain queue, and decorators forward it so a barrier
    /// reaches the tiered layer through any stack. This is the
    /// snapshot-durability gate: an epoch is durable only once the
    /// barrier after its manifest seal returns `Ok`.
    fn drain_barrier(&self) -> io::Result<()> {
        Ok(())
    }

    /// Hands the backend the mount's stats block so layers below the
    /// engine (tier drains, promotions) can record stage latencies and
    /// flight-recorder events alongside the filesystem's own. Called
    /// once by `Crfs::mount`; the default keeps plain backends
    /// obs-free, and decorators forward it down the stack.
    fn attach_stats(&self, stats: &Arc<crate::stats::CrfsStats>) {
        let _ = stats;
    }
}

/// A shared backend is itself a backend, so composable layers
/// ([`TieredBackend`], decorators) can hold `Arc<dyn Backend>` tiers
/// while generic wrappers like `FaultyBackend<B>` stack over them
/// without a bespoke adapter.
impl<B: Backend + ?Sized> Backend for Arc<B> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        (**self).open(path, opts)
    }
    fn mkdir(&self, path: &str) -> io::Result<()> {
        (**self).mkdir(path)
    }
    fn rmdir(&self, path: &str) -> io::Result<()> {
        (**self).rmdir(path)
    }
    fn unlink(&self, path: &str) -> io::Result<()> {
        (**self).unlink(path)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        (**self).rename(from, to)
    }
    fn exists(&self, path: &str) -> bool {
        (**self).exists(path)
    }
    fn file_len(&self, path: &str) -> io::Result<u64> {
        (**self).file_len(path)
    }
    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        (**self).list_dir(path)
    }
    fn drain_barrier(&self) -> io::Result<()> {
        (**self).drain_barrier()
    }
    fn attach_stats(&self, stats: &Arc<crate::stats::CrfsStats>) {
        (**self).attach_stats(stats)
    }
}

/// Sequential [`io::Read`] adapter over a positional [`BackendFile`] —
/// the restart path that bypasses CRFS entirely (paper §V-F: "an
/// application can be restarted directly from the back-end filesystem,
/// without the need to mount CRFS").
pub struct ReadCursor {
    file: Box<dyn BackendFile>,
    pos: u64,
}

impl ReadCursor {
    /// Starts reading `file` from offset 0.
    pub fn new(file: Box<dyn BackendFile>) -> ReadCursor {
        ReadCursor { file, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Moves the read offset.
    pub fn seek_to(&mut self, pos: u64) {
        self.pos = pos;
    }
}

impl io::Read for ReadCursor {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read_at(self.pos, buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Reads exactly `buf.len()` bytes at `offset` or fails with
/// `UnexpectedEof` — the strict read used by format readers (chunk
/// frames, manifests) where a short read means a truncated file.
pub(crate) fn read_exact_at(file: &dyn BackendFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    let got = file.read_at(offset, buf)?;
    if got != buf.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("short read at {offset}: wanted {}, got {got}", buf.len()),
        ));
    }
    Ok(())
}

/// Normalizes a user path into the canonical internal form: absolute,
/// `/`-separated, no empty/`.`/`..` components, no trailing slash (except
/// the root itself).
///
/// Rejects paths escaping the root via `..`.
pub fn normalize_path(path: &str) -> io::Result<String> {
    let mut parts: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                if parts.pop().is_none() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("path escapes filesystem root: {path:?}"),
                    ));
                }
            }
            c => parts.push(c),
        }
    }
    if parts.is_empty() {
        Ok("/".to_string())
    } else {
        Ok(format!("/{}", parts.join("/")))
    }
}

/// Parent directory of a normalized path (`"/"` for top-level entries and
/// for the root itself).
pub fn parent_of(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

/// Final component of a normalized path (empty for the root).
pub fn basename_of(path: &str) -> &str {
    match path.rfind('/') {
        Some(i) => &path[i + 1..],
        None => path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_handles_edge_cases() {
        assert_eq!(normalize_path("/a/b").unwrap(), "/a/b");
        assert_eq!(normalize_path("a/b/").unwrap(), "/a/b");
        assert_eq!(normalize_path("//a//./b").unwrap(), "/a/b");
        assert_eq!(normalize_path("/a/x/../b").unwrap(), "/a/b");
        assert_eq!(normalize_path("/").unwrap(), "/");
        assert_eq!(normalize_path("").unwrap(), "/");
        assert!(normalize_path("/../etc").is_err());
    }

    #[test]
    fn parent_and_basename() {
        assert_eq!(parent_of("/a/b/c"), "/a/b");
        assert_eq!(parent_of("/a"), "/");
        assert_eq!(parent_of("/"), "/");
        assert_eq!(basename_of("/a/b/c"), "c");
        assert_eq!(basename_of("/"), "");
    }

    #[test]
    fn open_options_presets() {
        let c = OpenOptions::create_truncate();
        assert!(c.create && c.truncate && c.write && c.read);
        let r = OpenOptions::read_only();
        assert!(r.read && !r.write && !r.create);
        // Only `create_rewrite` sets the hint, and it is a truncating open.
        assert!(!c.keep_blocks && !r.keep_blocks && !OpenOptions::read_write().keep_blocks);
        let w = OpenOptions::create_rewrite();
        assert_eq!(
            w,
            OpenOptions {
                keep_blocks: true,
                ..c
            }
        );
    }

    #[test]
    fn read_cursor_streams_a_backend_file() {
        use std::io::Read;
        let be = MemBackend::new();
        let f = be.open("/img", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &[7u8; 100]).unwrap();
        f.write_at(100, &[9u8; 50]).unwrap();
        let mut cur = ReadCursor::new(be.open("/img", OpenOptions::read_only()).unwrap());
        let mut out = Vec::new();
        cur.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 150);
        assert!(out[..100].iter().all(|&b| b == 7));
        assert!(out[100..].iter().all(|&b| b == 9));
        assert_eq!(cur.position(), 150);
        cur.seek_to(100);
        let mut tail = [0u8; 8];
        assert_eq!(cur.read(&mut tail).unwrap(), 8);
        assert_eq!(tail, [9u8; 8]);
    }
}
