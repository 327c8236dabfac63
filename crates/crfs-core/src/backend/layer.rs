//! Composable backend layering base.
//!
//! Every backend decorator (throttling, failure injection, RPC latency,
//! tiering) intercepts a handful of operations and forwards the rest to
//! the backend it wraps. Before this module each decorator hand-wrote
//! the forwarding methods, so the stack was effectively closed: adding
//! an operation to [`Backend`] meant touching every wrapper, and writing
//! a new wrapper meant copying ~60 lines of boilerplate. This module is
//! the shared base:
//!
//! - [`forward_backend_ops!`](crate::forward_backend_ops) /
//!   [`forward_file_ops!`](crate::forward_file_ops): declarative
//!   per-operation forwarding for [`Backend`] and [`BackendFile`]
//!   impls. A decorator lists exactly the operations it does *not*
//!   intercept; everything else stays an explicit method next to the
//!   interception logic. Because the forwarding is per-op, a wrapper
//!   that intercepts `unlink` (FaultyBackend) and one that intercepts
//!   nothing but `open` (ThrottledBackend) use the same macro.
//! - [`LayeredBackend`]: the transparent identity wrapper — forwards
//!   every operation including `name`/`open` — used as the documented
//!   starting point for new decorators and as the conformance witness
//!   that the forwarding set is complete (a `LayeredBackend<MemBackend>`
//!   must be indistinguishable from a bare `MemBackend`).
//! - [`aligned_shape`]: the offset/length alignment test direct-IO
//!   paths gate on.

use std::io;

use super::{Backend, BackendFile, OpenOptions};

/// Forwards the listed [`Backend`] operations to a field of `self`.
///
/// Usage, inside an `impl Backend for MyWrapper` block:
///
/// ```ignore
/// impl<B: Backend> Backend for MyWrapper<B> {
///     fn name(&self) -> &str { "mine" }
///     fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
///         /* interception */
///     }
///     crfs_core::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename,
///         exists, file_len, list_dir, drain_barrier, attach_stats);
/// }
/// ```
///
/// The field (`inner` above) only needs inherent or trait methods with
/// the same signatures, so it can be a `Backend`, an `Arc<dyn Backend>`,
/// or a plain helper with inherent methods.
#[macro_export]
macro_rules! forward_backend_ops {
    ($inner:ident: $($op:ident),* $(,)?) => {
        $($crate::forward_backend_op!($inner, $op);)*
    };
}

/// Single-operation expansion behind
/// [`forward_backend_ops!`](crate::forward_backend_ops).
#[doc(hidden)]
#[macro_export]
macro_rules! forward_backend_op {
    ($inner:ident, mkdir) => {
        fn mkdir(&self, path: &str) -> ::std::io::Result<()> {
            self.$inner.mkdir(path)
        }
    };
    ($inner:ident, rmdir) => {
        fn rmdir(&self, path: &str) -> ::std::io::Result<()> {
            self.$inner.rmdir(path)
        }
    };
    ($inner:ident, unlink) => {
        fn unlink(&self, path: &str) -> ::std::io::Result<()> {
            self.$inner.unlink(path)
        }
    };
    ($inner:ident, rename) => {
        fn rename(&self, from: &str, to: &str) -> ::std::io::Result<()> {
            self.$inner.rename(from, to)
        }
    };
    ($inner:ident, exists) => {
        fn exists(&self, path: &str) -> bool {
            self.$inner.exists(path)
        }
    };
    ($inner:ident, file_len) => {
        fn file_len(&self, path: &str) -> ::std::io::Result<u64> {
            self.$inner.file_len(path)
        }
    };
    ($inner:ident, list_dir) => {
        fn list_dir(
            &self,
            path: &str,
        ) -> ::std::io::Result<::std::vec::Vec<::std::string::String>> {
            self.$inner.list_dir(path)
        }
    };
    ($inner:ident, drain_barrier) => {
        fn drain_barrier(&self) -> ::std::io::Result<()> {
            self.$inner.drain_barrier()
        }
    };
    ($inner:ident, attach_stats) => {
        fn attach_stats(&self, stats: &::std::sync::Arc<$crate::stats::CrfsStats>) {
            self.$inner.attach_stats(stats)
        }
    };
}

/// Forwards the listed [`BackendFile`] operations to a field of `self`.
///
/// Same shape as [`forward_backend_ops!`](crate::forward_backend_ops);
/// `begin_write_at` forwarding
/// is what propagates an inner backend's asynchronous-completion
/// capability through a wrapper instead of silently degrading the stack
/// to the synchronous shim.
#[macro_export]
macro_rules! forward_file_ops {
    ($inner:ident: $($op:ident),* $(,)?) => {
        $($crate::forward_file_op!($inner, $op);)*
    };
}

/// Single-operation expansion behind
/// [`forward_file_ops!`](crate::forward_file_ops).
#[doc(hidden)]
#[macro_export]
macro_rules! forward_file_op {
    ($inner:ident, write_at) => {
        fn write_at(&self, offset: u64, data: &[u8]) -> ::std::io::Result<()> {
            self.$inner.write_at(offset, data)
        }
    };
    ($inner:ident, begin_write_at) => {
        fn begin_write_at(
            &self,
            token: u64,
            offset: u64,
            data: &[u8],
            sink: &::std::sync::Arc<dyn $crate::backend::CompletionSink>,
        ) -> ::std::io::Result<bool> {
            self.$inner.begin_write_at(token, offset, data, sink)
        }
    };
    ($inner:ident, begin_read_at) => {
        fn begin_read_at(
            &self,
            token: u64,
            offset: u64,
            buf: &mut [u8],
            sink: &::std::sync::Arc<dyn $crate::backend::CompletionSink>,
        ) -> ::std::io::Result<bool> {
            self.$inner.begin_read_at(token, offset, buf, sink)
        }
    };
    ($inner:ident, read_at) => {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> ::std::io::Result<usize> {
            self.$inner.read_at(offset, buf)
        }
    };
    ($inner:ident, sync) => {
        fn sync(&self) -> ::std::io::Result<()> {
            self.$inner.sync()
        }
    };
    ($inner:ident, len) => {
        fn len(&self) -> ::std::io::Result<u64> {
            self.$inner.len()
        }
    };
    ($inner:ident, set_len) => {
        fn set_len(&self, len: u64) -> ::std::io::Result<()> {
            self.$inner.set_len(len)
        }
    };
    ($inner:ident, is_empty) => {
        fn is_empty(&self) -> ::std::io::Result<bool> {
            self.$inner.is_empty()
        }
    };
}

/// Whether a write of `len` bytes at `offset` has the shape a direct-IO
/// path can issue: non-empty and both edges on an `align` boundary.
pub fn aligned_shape(offset: u64, len: usize, align: usize) -> bool {
    let a = align as u64;
    len > 0 && offset.is_multiple_of(a) && (len as u64).is_multiple_of(a)
}

/// The transparent base layer: wraps any [`Backend`] and forwards every
/// operation unchanged. New decorators start from this impl and replace
/// only the operations they intercept; the conformance test below pins
/// the forwarding set as complete.
pub struct LayeredBackend<B> {
    inner: B,
}

impl<B: Backend> LayeredBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> LayeredBackend<B> {
        LayeredBackend { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the layer.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Backend> Backend for LayeredBackend<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        self.inner.open(path, opts)
    }

    crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
        file_len, list_dir, drain_barrier, attach_stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn aligned_shape_edges() {
        assert!(aligned_shape(0, 4096, 4096));
        assert!(aligned_shape(8192, 8192, 4096));
        assert!(!aligned_shape(0, 0, 4096), "empty writes are not direct");
        assert!(!aligned_shape(1, 4096, 4096));
        assert!(!aligned_shape(0, 4097, 4096));
    }

    /// The identity layer is indistinguishable from the bare backend —
    /// the witness that the forwarding macros cover every operation.
    #[test]
    fn layered_backend_is_transparent() {
        let be = LayeredBackend::new(MemBackend::new());
        assert_eq!(be.name(), "mem");
        be.mkdir("/d").unwrap();
        let f = be.open("/d/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"hello").unwrap();
        f.sync().unwrap();
        assert!(!f.is_empty().unwrap());
        assert_eq!(f.len().unwrap(), 5);
        drop(f);
        assert!(be.exists("/d/f"));
        assert_eq!(be.file_len("/d/f").unwrap(), 5);
        assert_eq!(be.list_dir("/d").unwrap(), vec!["f"]);
        be.rename("/d/f", "/d/g").unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(be.inner().contents("/d/g").unwrap(), b"hello");
        be.unlink("/d/g").unwrap();
        be.rmdir("/d").unwrap();
        let inner = be.into_inner();
        assert!(!inner.exists("/d"));
    }
}
