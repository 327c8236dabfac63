//! The IO engine: the machinery between sealed chunks and the backend.
//!
//! The paper's §IV decouples checkpoint `write()` streams from backend IO
//! with a queue of sealed chunks drained by a bounded pool of IO threads.
//! [`RingEngine`] is that layer: a submission queue the write path posts
//! sealed chunks (and the restart path posts prefetch reads) onto,
//! `io_threads` issue workers starting one backend op per chunk, and a
//! completion queue a reaper retires in batches. [`Crfs`](crate::Crfs)
//! holds it by its type; this module holds what the engine and the write
//! path share — the chunk types and the dispatch / retire / refuse steps.
//!
//! The engine owns its threads; completion, ordering and error accounting
//! flow through the seal/complete ledger on each [`FileEntry`], which the
//! close/fsync barrier waits on.

pub mod account;
mod ring;

pub use ring::RingEngine;

use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use crate::backend::CompletionSink;
use crate::error::CrfsError;
use crate::file::FileEntry;
use crate::obs::EventKind;
use crate::pool::{BufferPool, ChunkBuf};
use crate::stats::CrfsStats;
use crate::transform::FrameFill;

/// A sealed chunk travelling from the write path to the IO engine.
///
/// Carries exactly the metadata the paper lists: "target file handler,
/// offset into the file, valid data size in the chunk".
pub struct SealedChunk {
    /// The open file this chunk belongs to; completion is reported to its
    /// accounting ledger.
    pub entry: Arc<FileEntry>,
    /// Buffer borrowed from the mount's [`BufferPool`]; the engine
    /// returns it after the write.
    pub buf: ChunkBuf,
    /// Valid bytes at the front of `buf`.
    pub len: usize,
    /// File offset the chunk starts at.
    pub offset: u64,
    /// When the chunk was sealed — `Some` only while stage histograms
    /// are enabled; feeds the `seal_to_submit` queue-latency stage when
    /// the engine issues the chunk's backend write.
    pub sealed_at: Option<Instant>,
}

/// A prefetch read travelling from the restart read path to the IO
/// engine — the read-side twin of [`SealedChunk`], served by the same
/// worker pool. Completion installs the filled buffer into the entry's
/// [`ReadState`](crate::prefetch::ReadState) cache (or recycles it if
/// the claim went stale) and retires the chunk on the read ledger.
pub struct ReadChunk {
    /// The open file; its `read_state` receives the result.
    pub entry: Arc<FileEntry>,
    /// Pool buffer the backend read fills.
    pub buf: ChunkBuf,
    /// Bytes to read (≤ the chunk size; short at the file tail).
    pub len: usize,
    /// File offset the chunk starts at.
    pub offset: u64,
    /// Chunk index (`offset / chunk_size`) keying the cache slot.
    pub idx: u64,
    /// Slot generation stamped at claim time; a mismatch at install
    /// means an overlapping write invalidated the fetch.
    pub gen: u64,
    /// When the prefetch was issued — `Some` only while stage
    /// histograms are enabled; feeds the `prefetch_fill` stage at
    /// cache-install time.
    pub issued_at: Option<Instant>,
}

/// One unit of engine work: the submission queue carries checkpoint
/// writes and restart prefetch reads side by side.
pub enum IoItem {
    /// A sealed aggregation chunk to write out.
    Write(SealedChunk),
    /// A prefetch read to fill and park in the read cache.
    Read(ReadChunk),
}

/// Issues the backend write for one sealed chunk. On a transformed
/// entry the chunk first runs the transform stage — dedup lookup,
/// codec, frame header — *in this (worker) context*, so compression
/// parallelizes across IO workers and overlaps backend writes; the
/// frame then lands at a freshly allocated stored offset. Raw entries
/// write the payload at its logical offset, the paper's layout. Only
/// the backend write is timed (`transform_ns` owns the codec time).
/// Returns the result and the bytes the backend actually received.
fn dispatch_chunk(stats: &CrfsStats, chunk: &SealedChunk) -> (io::Result<()>, u64) {
    stats.flight.record_cached(
        EventKind::Issued,
        &chunk.entry.path,
        &chunk.entry.flight_tag,
        chunk.offset,
        chunk.len as u64,
    );
    match &chunk.entry.transform {
        Some(t) => {
            // Deferred torn-tail trim: the first append after a damaged
            // attach truncates the file to its clean prefix first.
            if let Err(e) = t.prepare_append(&*chunk.entry.file) {
                return (Err(e), 0);
            }
            let enc = t.encode_chunk(chunk.offset, &chunk.buf[..chunk.len]);
            let stored = enc.stored_bytes() as u64;
            let off = t.allocate(stored);
            let t0 = Instant::now();
            let res = chunk.entry.file.write_at(off, enc.bytes());
            let spent = t0.elapsed();
            stats
                .backend_write_ns
                .fetch_add(spent.as_nanos() as u64, Relaxed);
            if stats.stages.enabled() {
                stats.stages.write_sync.record_dur(spent);
            }
            if res.is_ok() {
                // Commit makes the frame readable and registers its
                // content for dedup — strictly before note_completed,
                // so a passed flush barrier implies a consistent map.
                t.commit(&chunk.entry.path, off, enc);
            } else {
                // Contain the damage: pad the allocated extent so the
                // frame chain stays walkable past this failed chunk.
                let _ = t.write_pad(&*chunk.entry.file, off, stored);
            }
            (res, stored)
        }
        None => {
            let t0 = Instant::now();
            let res = chunk
                .entry
                .file
                .write_at(chunk.offset, &chunk.buf[..chunk.len]);
            let spent = t0.elapsed();
            stats
                .backend_write_ns
                .fetch_add(spent.as_nanos() as u64, Relaxed);
            if stats.stages.enabled() {
                stats.stages.write_sync.record_dur(spent);
            }
            (res, chunk.len as u64)
        }
    }
}

/// Starts one prefetch fill. A chunk that is one whole frame of a
/// transformed file is located (see
/// [`FileTransform::locate_fill`](crate::transform::FileTransform::locate_fill))
/// and its stored bytes read through the backend's asynchronous path as
/// `token`: the fill comes back to be parked until the completion
/// brings it to [`finish_fill`]. Without that path the bytes are read
/// here and the fill finished at once. Anything else — a hole, several
/// frames, a raw file — fills through [`FileEntry::fill_backend`] as it
/// always did, and is retired here too.
fn start_fill(
    stats: &CrfsStats,
    pool: &BufferPool,
    mut chunk: ReadChunk,
    token: u64,
    sink: &Arc<dyn CompletionSink>,
) -> Option<(ReadChunk, FrameFill)> {
    let entry = &chunk.entry;
    let located = entry
        .transform
        .as_ref()
        .and_then(|t| t.locate_fill(&*entry.file, &entry.path, chunk.offset, chunk.len));
    let res = match located {
        None => entry.fill_backend(chunk.offset, &mut chunk.buf[..chunk.len]),
        Some(Err(e)) => Err(e),
        Some(Ok(mut fill)) => {
            let Some(read) = fill.read(&*entry.file, token, sink) else {
                return Some((chunk, fill)); // in flight
            };
            finish_fill(stats, pool, chunk, fill, read);
            return None;
        }
    };
    retire_fill(stats, pool, chunk, res);
    None
}

/// Decodes and verifies a located fill whose read ended in `read` into
/// the chunk's buffer, then retires the chunk.
fn finish_fill(
    stats: &CrfsStats,
    pool: &BufferPool,
    mut chunk: ReadChunk,
    fill: FrameFill,
    read: io::Result<()>,
) {
    let t = chunk
        .entry
        .transform
        .as_ref()
        .expect("only framed files locate fills");
    let res = t.finish_fill(&chunk.entry.path, fill, read, &mut chunk.buf[..chunk.len]);
    retire_fill(stats, pool, chunk, res);
}

/// Retires a prefetch fill against the entry's read cache: a
/// successful, non-empty fill is parked in the chunk's slot (unless
/// invalidated meanwhile or writers are starved for buffers); anything
/// else recycles the buffer as a wasted fetch. Every fill of a
/// transformed entry has decoded and **verified** its frames; a chunk
/// failing verification (or its read) is retired as a wasted prefetch
/// (buffer back to the pool, ledger balanced) and the reader's own
/// direct read surfaces the error.
fn retire_fill(stats: &CrfsStats, pool: &BufferPool, chunk: ReadChunk, res: io::Result<usize>) {
    let rs = chunk
        .entry
        .read_state
        .as_ref()
        .expect("prefetch read on a file without read state");
    stats.note_retired(1);
    match res {
        Ok(n) => {
            if let Some(issued) = chunk.issued_at {
                stats.stages.prefetch_fill.record_dur(issued.elapsed());
            }
            rs.install(chunk.idx, chunk.gen, chunk.buf, n, pool, stats)
        }
        // Prefetch failures are soft: the reader falls back to a direct
        // read and surfaces the error on its own call.
        Err(_) => rs.abort(chunk.idx, chunk.gen, chunk.buf, pool, stats),
    }
}

/// Fails a batch of prefetch reads the engine refused (shutdown race):
/// every chunk retires on its read ledger and recycles its buffer, and a
/// single `Unmounted` is returned.
fn refuse_reads(
    stats: &CrfsStats,
    pool: &BufferPool,
    reads: impl IntoIterator<Item = ReadChunk>,
) -> CrfsError {
    for chunk in reads {
        let rs = chunk
            .entry
            .read_state
            .as_ref()
            .expect("prefetch read on a file without read state");
        stats.note_retired(1);
        rs.abort(chunk.idx, chunk.gen, chunk.buf, pool, stats);
    }
    CrfsError::Unmounted
}

/// Fails a chunk that the engine refused (shutdown race): completes it
/// with an error so close/fsync barriers cannot hang, and recycles the
/// buffer. Counted as refused, not completed — the chunk never reached
/// the backend, so it must not count as a completed write.
fn refuse(stats: &CrfsStats, pool: &BufferPool, chunk: SealedChunk) -> CrfsError {
    stats.flight.record_cached(
        EventKind::Refused,
        &chunk.entry.path,
        &chunk.entry.flight_tag,
        chunk.offset,
        chunk.len as u64,
    );
    stats.chunks_refused.fetch_add(1, Relaxed);
    stats.note_retired(1);
    pool.release(chunk.buf);
    chunk.entry.note_completed(Err(io::Error::new(
        io::ErrorKind::NotConnected,
        "CRFS IO engine is shut down",
    )));
    CrfsError::Unmounted
}

/// [`refuse`] over a whole rejected batch; every chunk completes with an
/// error and recycles its buffer, and a single `Unmounted` is returned.
fn refuse_batch(
    stats: &CrfsStats,
    pool: &BufferPool,
    chunks: impl IntoIterator<Item = SealedChunk>,
) -> CrfsError {
    for chunk in chunks {
        refuse(stats, pool, chunk);
    }
    CrfsError::Unmounted
}
