//! # crfs-core — a lightweight user-level filesystem for checkpoint/restart
//!
//! This crate is a faithful Rust implementation of **CRFS** (Ouyang et al.,
//! *CRFS: A Lightweight User-Level Filesystem for Generic
//! Checkpoint/Restart*, ICPP 2011): a stackable, user-level filesystem that
//! sits between checkpoint writers (BLCR-style system-level checkpointers,
//! or any sequential bulk writer) and a backing filesystem, and turns the
//! storm of small and medium `write()` calls that checkpointing produces
//! into a small number of large, asynchronous, mostly-sequential writes.
//!
//! ## Architecture (paper §IV)
//!
//! ```text
//!  application write()                 ┌───────────────────────────────┐
//!  ──────────────▶ Vfs (FUSE-like     │            Crfs               │
//!                  dispatch, splits   │  FileTable (open-file hash    │
//!                  at max_write)      │  table w/ refcounts)          │
//!                        │            │     │                         │
//!                        ▼            │     ▼                         │
//!                   Crfs::write ──────┼─▶ per-file current Chunk      │
//!                                     │     │ full / sealed           │
//!                  BufferPool ◀───────┼─────┤                         │
//!                  (fixed chunks,     │     ▼                         │
//!                   recycled)         │  RingEngine ─▶ IO threads ────┼──▶ Backend
//!                                     └───────────────────────────────┘   (ext3/NFS/
//!                                                                          Lustre/...)
//! ```
//!
//! - **Write aggregation**: every file owns at most one *current chunk*
//!   drawn from a mount-wide [`BufferPool`](pool::BufferPool). Sequential
//!   writes append into the chunk; a full chunk is *sealed* and enqueued.
//! - **Asynchronous draining**: a pool of IO worker threads (default 4, the
//!   paper's best setting) dequeues sealed chunks and issues large
//!   `write_at` calls against the [`Backend`] trait.
//! - **IO throttling**: the worker count bounds backend concurrency; the
//!   buffer pool bounds memory and applies back-pressure to writers.
//! - **close()/fsync() barrier**: both wait until the file's completed
//!   chunk count equals its sealed chunk count, then act on the backend —
//!   exactly the accounting the paper describes.
//! - **Chunk transforms** (optional, [`transform`]): between seal and
//!   submission each chunk can be compressed (native LZ77/RLE codecs
//!   with a store-raw escape), deduplicated against a mount-scoped
//!   content-addressed index, and framed with an end-to-end integrity
//!   checksum the read path verifies on every fill.
//! - **Versioned snapshots** (optional, [`snapshot`]): on snapshot
//!   mounts [`Crfs::advance_epoch`] seals a durable manifest over a
//!   content-addressed chunk store — unchanged chunks are shared across
//!   epochs, so each checkpoint stores only its dirty chunks.
//!   [`Crfs::open_restart`] serves a read-only view of any retained
//!   epoch; [`Crfs::snapshot_gc`] mark-and-sweeps unreferenced chunks.
//! - **Reads (the restart direction)**: served chunk-granularly through a
//!   per-file read cache with sequential read-ahead issued to the same IO
//!   worker pool (see [`prefetch`]), flushing pending chunks first only
//!   when the request actually overlaps them — a strictly-safer, and on
//!   restart streams much faster, refinement of the paper's pass-through
//!   reads. `read_ahead_chunks = 0` restores the paper's §IV-D1 behavior.
//!
//! ## Quick start
//!
//! ```
//! use crfs_core::{Crfs, CrfsConfig, backend::MemBackend};
//! use std::sync::Arc;
//!
//! let fs = Crfs::mount(Arc::new(MemBackend::new()), CrfsConfig::default()).unwrap();
//! fs.mkdir_all("/ckpt").unwrap();
//! let f = fs.create("/ckpt/rank0.img").unwrap();
//! f.write(b"snapshot bytes...").unwrap();
//! f.close().unwrap(); // blocks until the data reached the backend
//!
//! let g = fs.open("/ckpt/rank0.img").unwrap();
//! let mut buf = vec![0; 17];
//! g.read_at(0, &mut buf).unwrap();
//! assert_eq!(&buf, b"snapshot bytes...");
//! fs.unmount().unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod chunking;
pub mod config;
pub mod engine;
pub mod error;
pub mod file;
pub mod fs;
pub mod fsck;
pub mod obs;
pub mod pool;
pub mod prefetch;
pub mod snapshot;
pub mod stats;
pub mod transform;
pub mod vfs;

pub use backend::{Backend, BackendFile, CompletionSink};
pub use config::{CrfsConfig, EngineKind};
pub use error::{CrfsError, Result};
pub use fs::{Crfs, CrfsFile};
pub use obs::{EventKind, FlightEvent, FlightRecorder, Histogram, HistogramSnapshot};
pub use snapshot::{GcReport, SnapshotStore};
pub use stats::StatsSnapshot;
pub use transform::CodecKind;
pub use vfs::{Fd, Vfs};
