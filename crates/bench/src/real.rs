//! Real (wall-clock) measurements of `crfs-core`: the sweeps the
//! repository benchmark's end-to-end workloads cannot answer.
//!
//! - Fig. 5 ([`fig5_grid`]): the paper measures raw aggregation
//!   throughput by running 8 writer processes against CRFS with the
//!   chunks *discarded* by the IO threads ("Once a filled chunk is
//!   picked up by an IO thread it is discarded without being written to
//!   a back-end filesystem", §V-B). We reproduce that exactly: 8 writer
//!   threads → `Vfs` (FUSE-style 128 KiB request splitting) → `Crfs` →
//!   [`DiscardBackend`].
//! - `exp compress` ([`compress_sweep`]): the codec × dedup matrix.
//! - `exp engine` ([`engine_depth_sweep`]): ring depth at fixed
//!   `io_threads`.
//! - `exp fsck` ([`fsck_thread_sweep`]): checker-thread scaling.
//! - `exp obs` ([`obs_sweep`]): instrumentation overhead.

use std::sync::Arc;
use std::time::Instant;

use crfs_core::backend::{Backend, DiscardBackend, MemBackend, OpenOptions};
use crfs_core::{CodecKind, Crfs, CrfsConfig, Vfs};
use storage_model::{RpcStore, RpcStoreParams};

/// One cell of the Fig. 5 sweep.
#[derive(Debug, Clone, Copy)]
pub struct RawBandwidthPoint {
    /// Buffer-pool size in bytes.
    pub pool: usize,
    /// Chunk size in bytes.
    pub chunk: usize,
    /// Measured aggregate bandwidth, MB/s (MiB/s).
    pub mbs: f64,
}

/// Measures CRFS raw aggregation bandwidth for one (pool, chunk) point:
/// `writers` threads each stream `bytes_per_writer` through the VFS into
/// a discard-backed CRFS mount; returns aggregate MiB/s.
pub fn raw_bandwidth(
    pool: usize,
    chunk: usize,
    writers: usize,
    bytes_per_writer: usize,
) -> RawBandwidthPoint {
    let config = CrfsConfig::default()
        .with_chunk_size(chunk)
        .with_pool_size(pool);
    let fs = Crfs::mount(Arc::new(DiscardBackend::new()), config).expect("mount");
    let vfs = Arc::new(Vfs::new());
    vfs.mount("/mnt", Arc::clone(&fs)).expect("vfs mount");

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..writers {
        let vfs = Arc::clone(&vfs);
        handles.push(std::thread::spawn(move || {
            let fd = vfs.create(&format!("/mnt/stream{w}")).expect("create");
            // 1 MiB application writes, as a checkpointer's large-region
            // dumps would issue; the VFS splits them into 128 KiB FUSE
            // requests.
            let buf = vec![0x5au8; 1 << 20];
            let mut remaining = bytes_per_writer;
            while remaining > 0 {
                let n = remaining.min(buf.len());
                vfs.write(fd, &buf[..n]).expect("write");
                remaining -= n;
            }
            vfs.close(fd).expect("close");
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    let secs = t0.elapsed().as_secs_f64();
    fs.unmount().expect("unmount");

    RawBandwidthPoint {
        pool,
        chunk,
        mbs: (writers * bytes_per_writer) as f64 / secs / (1 << 20) as f64,
    }
}

/// The paper's Fig. 5 grid. `quick` trims the grid and the per-writer
/// volume so the sweep finishes in seconds.
pub fn fig5_grid(quick: bool) -> Vec<RawBandwidthPoint> {
    let pools: &[usize] = if quick {
        &[4 << 20, 16 << 20, 64 << 20]
    } else {
        &[4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20]
    };
    let chunks: &[usize] = if quick {
        &[128 << 10, 1 << 20, 4 << 20]
    } else {
        &[128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20]
    };
    let per_writer = if quick { 32 << 20 } else { 256 << 20 };
    let mut out = Vec::new();
    for &pool in pools {
        for &chunk in chunks {
            if pool / chunk < 2 {
                continue; // cannot pipeline; mount would reject it
            }
            out.push(raw_bandwidth(pool, chunk, 8, per_writer));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Chunk transform sweep (the `exp compress` experiment)
// ---------------------------------------------------------------------

/// One measured cell of the transform sweep: a multi-epoch checkpoint
/// workload written through a given codec/dedup configuration, plus —
/// on the content-storing backend — a full byte-exact restart
/// verification on a fresh mount.
#[derive(Debug, Clone)]
pub struct CompressPoint {
    /// Transform codec the mount ran.
    pub codec: CodecKind,
    /// Whether content-addressed dedup was on.
    pub dedup: bool,
    /// Chunk size in bytes.
    pub chunk: usize,
    /// Fraction of chunks whose content repeats across epochs.
    pub dup_fraction: f64,
    /// `"discard"` or `"rpc"`.
    pub backend: &'static str,
    /// Wall-clock seconds for the checkpoint (write) phase.
    pub secs: f64,
    /// Logical checkpoint throughput, MiB/s.
    pub mibs: f64,
    /// Logical chunk bytes entering the transform stage.
    pub bytes_logical: u64,
    /// Frame bytes the backend received: user-log frames plus
    /// content-store chunk files.
    pub bytes_stored: u64,
    /// `bytes_logical / bytes_stored`.
    pub ratio: f64,
    /// Chunks deduplicated into reference records.
    pub dedup_hits: u64,
    /// Integrity failures observed across write + verify (must be 0).
    pub integrity_failures: u64,
    /// Bytes read back and compared during verification (0 on discard).
    pub verified_bytes: u64,
    /// Whether every verified byte matched the expected content.
    pub verify_ok: bool,
    /// Milliseconds spent in the transform stage (encode + decode).
    pub transform_ms: f64,
    /// Full stats snapshot of the checkpoint-phase mount (stage
    /// histograms included), embedded in `BENCH_compress.json` for the
    /// headline cell.
    pub stats: crfs_core::stats::StatsSnapshot,
}

/// Deterministic checkpoint-like content for chunk `idx` of file
/// `file` in epoch `epoch`: a repeated 32-byte tile (LZ/RLE-friendly,
/// like zeroed or structured pages) with every 8th 64-byte block
/// replaced by pseudo-random bytes (so codecs cannot cheat). Chunks
/// selected by `dup_fraction` are epoch-independent — byte-identical
/// across epochs, the self-similarity stdchk measured in real
/// checkpoint streams.
pub fn epoch_chunk_payload(
    chunk: usize,
    file: usize,
    idx: u64,
    epoch: usize,
    dup_fraction: f64,
) -> Vec<u8> {
    let is_dup = ((idx % 16) as f64) < dup_fraction * 16.0;
    let epoch_salt = if is_dup { 0 } else { epoch as u64 + 1 };
    let mut x = 0x9E37_79B9u64
        .wrapping_mul(file as u64 + 1)
        .wrapping_add(idx.wrapping_mul(0x85EB_CA6B))
        .wrapping_add(epoch_salt.wrapping_mul(0xC2B2_AE35));
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let tile: Vec<u8> = (0..32).map(|_| (next() >> 33) as u8).collect();
    let mut out = Vec::with_capacity(chunk);
    while out.len() < chunk {
        let block = out.len() / 64;
        if block % 8 == 7 {
            for _ in 0..64 {
                out.push((next() >> 33) as u8);
            }
        } else {
            out.extend_from_slice(&tile);
            out.extend_from_slice(&tile);
        }
    }
    out.truncate(chunk);
    out
}

/// Measures one transform cell: writes `images` checkpoint files of
/// `image_bytes` each for two epochs (calling
/// [`Crfs::advance_epoch`] between them), then — on the RPC backend —
/// restarts every file on a fresh mount and verifies byte-exactness.
pub fn compress_cell(
    codec: CodecKind,
    dedup: bool,
    chunk: usize,
    dup_fraction: f64,
    rpc: bool,
    images: usize,
    image_bytes: u64,
) -> CompressPoint {
    const EPOCHS: usize = 2;
    let backend: Arc<dyn Backend> = if rpc {
        Arc::new(RpcStore::new(
            MemBackend::new(),
            RpcStoreParams::restart_store(),
        ))
    } else {
        Arc::new(DiscardBackend::new())
    };
    let config = CrfsConfig::default()
        .with_chunk_size(chunk)
        .with_pool_size(8 * chunk)
        .with_codec(codec)
        .with_dedup(dedup);
    let chunks_per_file = image_bytes / chunk as u64;

    // Checkpoint phase: EPOCHS rounds of `images` files each.
    let fs = Crfs::mount(Arc::clone(&backend), config.clone()).expect("mount");
    fs.mkdir_all("/ckpt").expect("mkdir");
    let t0 = Instant::now();
    for epoch in 0..EPOCHS {
        fs.mkdir_all(&format!("/ckpt/e{epoch}")).expect("mkdir");
        std::thread::scope(|s| {
            for file in 0..images {
                let fs = &fs;
                s.spawn(move || {
                    let f = fs
                        .create(&format!("/ckpt/e{epoch}/rank{file}.img"))
                        .expect("create");
                    for idx in 0..chunks_per_file {
                        let payload = epoch_chunk_payload(chunk, file, idx, epoch, dup_fraction);
                        f.write(&payload).expect("write");
                    }
                    f.close().expect("close");
                });
            }
        });
        fs.advance_epoch().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let write_snap = fs.stats();
    fs.unmount().expect("unmount");

    // Restart verification (content-storing backend only): a fresh
    // mount rebuilds every frame map by scanning and must reproduce
    // each file byte-for-byte, resolving cross-epoch dedup references.
    let (verified_bytes, verify_ok, verify_integrity) = if rpc {
        let fs = Crfs::mount(Arc::clone(&backend), config).expect("remount");
        let mut bytes = 0u64;
        let mut ok = true;
        for epoch in 0..EPOCHS {
            for file in 0..images {
                let f = fs
                    .open(&format!("/ckpt/e{epoch}/rank{file}.img"))
                    .expect("open");
                let mut got = vec![0u8; chunk];
                for idx in 0..chunks_per_file {
                    let n = f
                        .read_at(idx * chunk as u64, &mut got)
                        .expect("verified read");
                    let want = epoch_chunk_payload(chunk, file, idx, epoch, dup_fraction);
                    ok &= n == chunk && got == want;
                    bytes += n as u64;
                }
                f.close().expect("close");
            }
        }
        let snap = fs.stats();
        fs.unmount().expect("unmount");
        (bytes, ok, snap.integrity_failures)
    } else {
        (0, true, 0)
    };

    let logical = EPOCHS as u64 * images as u64 * chunks_per_file * chunk as u64;
    // Everything the store holds: the user logs' frames plus, on dedup
    // mounts, the content-store chunk files those logs reference.
    let stored = if write_snap.bytes_stored > 0 {
        write_snap.bytes_stored + write_snap.snapshot_bytes
    } else {
        write_snap.bytes_out // identity-of-the-identity: raw mounts
    };
    CompressPoint {
        codec,
        dedup,
        chunk,
        dup_fraction,
        backend: if rpc { "rpc" } else { "discard" },
        secs,
        mibs: logical as f64 / secs.max(1e-9) / (1 << 20) as f64,
        bytes_logical: logical,
        bytes_stored: stored,
        ratio: logical as f64 / stored.max(1) as f64,
        dedup_hits: write_snap.dedup_hits,
        integrity_failures: write_snap.integrity_failures + verify_integrity,
        verified_bytes,
        verify_ok,
        transform_ms: write_snap.transform.as_secs_f64() * 1e3,
        stats: write_snap,
    }
}

/// The `exp compress` sweep: codec × chunk size × duplicate-epoch
/// fraction on both the discard backend (pure pipeline cost) and the
/// latency-bound RPC store (with full restart verification). Identity
/// cells run without dedup — they are the stored-volume baseline the
/// acceptance gate compares against.
pub fn compress_sweep(quick: bool) -> Vec<CompressPoint> {
    let (images, image_bytes) = if quick {
        (2, 1u64 << 20)
    } else {
        (2, 8u64 << 20)
    };
    let chunks: &[usize] = if quick {
        &[64 << 10]
    } else {
        &[4 << 10, 64 << 10, 1 << 20]
    };
    let dup_fractions: &[f64] = &[0.0, 0.75];
    let mut out = Vec::new();
    for &chunk in chunks {
        let image_bytes = image_bytes.max(chunk as u64 * 4); // ≥4 chunks/file
        for &dup in dup_fractions {
            for rpc in [false, true] {
                for (codec, dedup) in [
                    (CodecKind::Identity, false),
                    (CodecKind::Rle, true),
                    (CodecKind::Lz, true),
                ] {
                    out.push(compress_cell(
                        codec,
                        dedup,
                        chunk,
                        dup,
                        rpc,
                        images,
                        image_bytes,
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Ring depth sweep (the `exp engine` experiment)
// ---------------------------------------------------------------------

/// One cell of the `exp engine` sweep: a fixed-`io_threads` mount
/// streaming checkpoint chunks into the latency-bound RPC store. The
/// in-flight ceiling is `ring_depth` slab descriptors, not the issue
/// thread count, so throughput should keep climbing with depth at
/// constant thread count.
#[derive(Debug, Clone)]
pub struct EngineSweepPoint {
    /// The mount's `ring_depth`.
    pub depth: usize,
    /// Issue threads (held constant across the whole sweep).
    pub io_threads: usize,
    /// Wall-clock seconds for the checkpoint phase.
    pub secs: f64,
    /// Aggregate checkpoint bandwidth, MiB/s.
    pub mibs: f64,
    /// High-water mark of concurrently in-flight engine ops.
    pub inflight_hwm: u64,
    /// Completion-ring drain passes.
    pub completion_reaps: u64,
    /// Mean completions retired per reap pass.
    pub avg_reap_len: f64,
    /// Bytes read back and compared on a fresh mount (0 if skipped).
    pub verified_bytes: u64,
    /// Whether every verified byte matched the generated payload.
    pub verify_ok: bool,
    /// Full stats snapshot of the checkpoint-phase mount — stage
    /// histograms included — embedded in `BENCH_engine.json` for the
    /// headline cell so `crfs-stat` can decode the artifact.
    pub stats: crfs_core::stats::StatsSnapshot,
}

/// The store profile for the engine sweep: a remote aggregation store
/// where the per-RPC round trip, not the transfer, dominates — 2 ms
/// write RTT at 4 GiB/s link speed. Latency-bound cells keep the
/// depth effect far above CPU and scheduler noise: the ceiling is
/// `ring_depth` RPCs per 2 ms.
fn engine_store_params() -> RpcStoreParams {
    RpcStoreParams {
        read_rtt: std::time::Duration::from_micros(1000),
        write_rtt: std::time::Duration::from_micros(2000),
        bandwidth: 4 << 30,
    }
}

/// Measures one engine cell: `writers` threads each stream
/// `chunks_per_writer` chunk-sized checkpoint payloads into a fresh
/// RPC-store mount, then (when `verify`) a fresh mount reads every
/// chunk back and compares byte-for-byte against the regenerated
/// payload — the restart-correctness proof for the async path.
pub fn engine_cell(
    depth: usize,
    io_threads: usize,
    chunk: usize,
    writers: usize,
    chunks_per_writer: u64,
    verify: bool,
) -> EngineSweepPoint {
    let backend: Arc<dyn Backend> =
        Arc::new(RpcStore::new(MemBackend::new(), engine_store_params()));
    let config = CrfsConfig::default()
        .with_chunk_size(chunk)
        .with_pool_size(128 * chunk)
        .with_io_threads(io_threads)
        .with_ring_depth(depth);

    let fs = Crfs::mount(Arc::clone(&backend), config.clone()).expect("mount");
    fs.mkdir_all("/ckpt").expect("mkdir");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for file in 0..writers {
            let fs = &fs;
            s.spawn(move || {
                let f = fs.create(&format!("/ckpt/rank{file}.img")).expect("create");
                for idx in 0..chunks_per_writer {
                    let payload = epoch_chunk_payload(chunk, file, idx, 0, 0.0);
                    f.write(&payload).expect("write");
                }
                f.close().expect("close");
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let snap = fs.stats();
    fs.unmount().expect("unmount");

    let (verified_bytes, verify_ok) = if verify {
        let fs = Crfs::mount(Arc::clone(&backend), config).expect("remount");
        let mut bytes = 0u64;
        let mut ok = true;
        let mut got = vec![0u8; chunk];
        for file in 0..writers {
            let f = fs.open(&format!("/ckpt/rank{file}.img")).expect("open");
            for idx in 0..chunks_per_writer {
                let n = f.read_at(idx * chunk as u64, &mut got).expect("read back");
                let want = epoch_chunk_payload(chunk, file, idx, 0, 0.0);
                ok &= n == chunk && got == want;
                bytes += n as u64;
            }
            f.close().expect("close");
        }
        fs.unmount().expect("unmount");
        (bytes, ok)
    } else {
        (0, true)
    };

    let logical = writers as u64 * chunks_per_writer * chunk as u64;
    EngineSweepPoint {
        depth,
        io_threads,
        secs,
        mibs: logical as f64 / secs.max(1e-9) / (1 << 20) as f64,
        inflight_hwm: snap.inflight_hwm,
        completion_reaps: snap.completion_reaps,
        avg_reap_len: snap.avg_reap_len(),
        verified_bytes,
        verify_ok,
        stats: snap,
    }
}

/// The `exp engine` sweep: `ring_depth` versus throughput at fixed
/// `io_threads = 4` on the latency-bound RPC store, from depth 4 (as
/// many ops in flight as issue threads) up to 64. The deepest cell runs
/// with full byte-exact restart verification.
pub fn engine_depth_sweep(quick: bool) -> Vec<EngineSweepPoint> {
    const IO_THREADS: usize = 4;
    const CHUNK: usize = 256 << 10;
    const WRITERS: usize = 8;
    let chunks_per_writer: u64 = if quick { 32 } else { 96 };
    let depths: &[usize] = if quick {
        &[4, 16, 64]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let max_depth = *depths.last().expect("non-empty depth list");
    depths
        .iter()
        .map(|&depth| {
            // Median of three runs per cell: the sweep shares a noisy
            // machine with the rest of CI.
            let mut runs: Vec<EngineSweepPoint> = (0..3)
                .map(|_| {
                    engine_cell(
                        depth,
                        IO_THREADS,
                        CHUNK,
                        WRITERS,
                        chunks_per_writer,
                        depth == max_depth, // verify the headline cell byte-exactly
                    )
                })
                .collect();
            runs.sort_by(|a, b| a.mibs.total_cmp(&b.mibs));
            runs.swap_remove(1)
        })
        .collect()
}

// ---------------------------------------------------------------------
// fsck sweep (extension; emits BENCH_fsck.json)
// ---------------------------------------------------------------------

/// One cell of the `exp fsck` checker-thread sweep.
#[derive(Debug, Clone, Copy)]
pub struct FsckSweepPoint {
    /// Volume profile name (`small` / `large`).
    pub profile: &'static str,
    /// Checkpoint files in the volume.
    pub files: usize,
    /// Stored bytes across all frame logs.
    pub stored_bytes: u64,
    /// Frames walked by the sweep.
    pub frames: u64,
    /// Checker threads.
    pub threads: usize,
    /// Median wall-clock seconds of [`FSCK_ROUNDS`] runs.
    pub secs: f64,
    /// Median over the rounds of the 1-thread scan's seconds over this
    /// cell's, each pair run back to back in the same round.
    pub speedup: f64,
    /// Torn tails the sweep found (must equal the tears injected).
    pub torn_found: u64,
}

/// The fsck store profile: a remote checkpoint volume where each read
/// RPC costs a round trip — recovery scans are dominated by per-frame
/// metadata reads, which is exactly the regime pFSCK parallelizes.
/// Writes are free so volume population doesn't bill the model.
fn fsck_store_params() -> RpcStoreParams {
    RpcStoreParams {
        read_rtt: std::time::Duration::from_micros(250),
        write_rtt: std::time::Duration::ZERO,
        bandwidth: 4 << 30,
    }
}

/// Builds a checkpoint volume of `files` frame logs on the latency
/// store, then tears the tail of every `tear_every`-th log (a crash 25
/// bytes short of a full final frame). Returns the backend and the
/// number of tears injected.
pub fn fsck_volume(
    files: usize,
    chunks_per_file: u64,
    chunk: usize,
    tear_every: usize,
) -> (Arc<dyn Backend>, u64) {
    let backend: Arc<dyn Backend> = Arc::new(RpcStore::new(MemBackend::new(), fsck_store_params()));
    let config = CrfsConfig::default()
        .with_chunk_size(chunk)
        .with_pool_size(32 * chunk)
        .with_io_threads(2)
        .with_codec(CodecKind::Lz);
    let fs = Crfs::mount(Arc::clone(&backend), config).expect("mount");
    fs.mkdir_all("/ckpt").expect("mkdir");
    for file in 0..files {
        let f = fs.create(&format!("/ckpt/rank{file}.img")).expect("create");
        for idx in 0..chunks_per_file {
            f.write(&epoch_chunk_payload(chunk, file, idx, 0, 0.0))
                .expect("write");
        }
        f.close().expect("close");
    }
    fs.unmount().expect("unmount");

    let mut torn = 0;
    for file in (0..files).step_by(tear_every.max(1)) {
        let path = format!("/ckpt/rank{file}.img");
        let len = backend.file_len(&path).expect("stored len");
        let f = backend
            .open(&path, OpenOptions::read_write())
            .expect("reopen");
        f.set_len(len - 25).expect("tear tail");
        torn += 1;
    }
    (backend, torn)
}

/// The `exp fsck` thread sweep: recovery scan time versus checker
/// threads on small and large volume profiles over the latency-bound
/// store. Parallel speedup comes from overlapping per-frame read RPCs
/// across per-file checkers — the pFSCK claim, measurable even on one
/// core.
pub fn fsck_thread_sweep(quick: bool) -> Vec<FsckSweepPoint> {
    const CHUNK: usize = 64 << 10;
    let profiles: &[(&'static str, usize, u64)] = if quick {
        &[("small", 6, 4)]
    } else {
        &[("small", 8, 4), ("large", 32, 12)]
    };
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };

    let mut out = Vec::new();
    for &(profile, files, chunks_per_file) in profiles {
        let (backend, torn) = fsck_volume(files, chunks_per_file, CHUNK, 3);
        let stored_bytes: u64 = (0..files)
            .map(|f| backend.file_len(&format!("/ckpt/rank{f}.img")).unwrap())
            .sum();
        // A quick scan takes a millisecond or two, so one scheduling
        // hiccup flips any single comparison. Every round runs each
        // thread count once, back to back, in alternating order; a
        // cell reports its median time and the median of its per-round
        // ratios against the serial scan, as `exp obs` pairs its arms.
        let mut secs = vec![Vec::new(); threads.len()];
        let mut frames = 0;
        for round in 0..FSCK_ROUNDS {
            let mut order: Vec<usize> = (0..threads.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for i in order {
                let t0 = Instant::now();
                let sum = crfs_core::fsck::run(
                    &backend,
                    &["/ckpt".to_string()],
                    &crfs_core::fsck::FsckOptions {
                        repair: false,
                        threads: threads[i],
                        payloads: crfs_core::fsck::Payloads::All,
                    },
                );
                secs[i].push(t0.elapsed().as_secs_f64());
                assert_eq!(sum.damage.torn_tails, torn, "sweep must find every tear");
                frames = sum.frames;
            }
        }
        for (i, &t) in threads.iter().enumerate() {
            let ratios = secs[0].iter().zip(&secs[i]).map(|(s, p)| s / p.max(1e-9));
            out.push(FsckSweepPoint {
                profile,
                files,
                stored_bytes,
                frames,
                threads: t,
                secs: median(secs[i].clone()),
                speedup: median(ratios.collect()),
                torn_found: torn,
            });
        }
    }
    out
}

/// Rounds of the `exp fsck` sweep: each runs every thread count once.
pub const FSCK_ROUNDS: usize = 9;

// ---------------------------------------------------------------------
// observability overhead sweep (extension; emits BENCH_obs.json)
// ---------------------------------------------------------------------

/// Result of the obs-overhead sweep: the same CPU-bound aggregation
/// workload with the observability layer off and on, interleaved.
pub struct ObsSweep {
    /// MiB/s per obs-off rep, in run order.
    pub off_runs: Vec<f64>,
    /// MiB/s per obs-on rep, in run order.
    pub on_runs: Vec<f64>,
    /// Median obs-off throughput (the no-op baseline).
    pub baseline_mibs: f64,
    /// Median obs-on throughput.
    pub obs_mibs: f64,
    /// Overhead in percent: the median over interleaved (off, on)
    /// pairs of `(off - on) / off * 100`. Pairing adjacent cells
    /// cancels slow machine-load drift that arm-vs-arm medians keep;
    /// negative values mean the difference drowned in noise.
    pub overhead_pct: f64,
    /// Writer threads per cell.
    pub writers: usize,
    /// Chunk size in bytes.
    pub chunk: usize,
    /// Logical bytes streamed per cell.
    pub bytes: u64,
    /// Full snapshot of the last obs-on cell: stage histograms over
    /// the synchronous write pipeline (pool wait, seal→submit,
    /// write_sync, barrier).
    pub stats: crfs_core::stats::StatsSnapshot,
    /// Snapshot of the ring-engine leg on the async RPC store —
    /// the only leg that populates `write_issue_to_complete`.
    pub ring_stats: crfs_core::stats::StatsSnapshot,
}

/// One throughput cell: `writers` threads stream `bytes_per_writer`
/// each through the VFS (FUSE-style 128 KiB splits) into a
/// discard-backed mount — the paper's §V-B raw-aggregation setup, the
/// most instrumentation-sensitive workload we have because every cost
/// is CPU: there is no backend latency to hide a clock read behind.
/// Returns (MiB/s, final snapshot).
fn obs_cell(
    obs: bool,
    chunk: usize,
    writers: usize,
    bytes_per_writer: usize,
) -> (f64, crfs_core::stats::StatsSnapshot) {
    let config = CrfsConfig::default()
        .with_chunk_size(chunk)
        .with_pool_size(64 * chunk)
        .with_obs(obs);
    let fs = Crfs::mount(Arc::new(DiscardBackend::new()), config).expect("mount");
    let vfs = Arc::new(Vfs::new());
    vfs.mount("/mnt", Arc::clone(&fs)).expect("vfs mount");

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..writers {
        let vfs = Arc::clone(&vfs);
        handles.push(std::thread::spawn(move || {
            let fd = vfs.create(&format!("/mnt/rank{w}")).expect("create");
            let buf = vec![0xc3u8; 1 << 20];
            let mut remaining = bytes_per_writer;
            while remaining > 0 {
                let n = remaining.min(buf.len());
                vfs.write(fd, &buf[..n]).expect("write");
                remaining -= n;
            }
            vfs.fsync(fd).expect("fsync");
            vfs.close(fd).expect("close");
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    let secs = t0.elapsed().as_secs_f64();
    let snap = fs.stats();
    fs.unmount().expect("unmount");
    let mibs = (writers * bytes_per_writer) as f64 / secs.max(1e-9) / (1 << 20) as f64;
    (mibs, snap)
}

/// The ring-engine leg: the same writer fleet against the async RPC
/// store (2 ms write RTT), obs on — populates the
/// `write_issue_to_complete` issue→completion histogram that the
/// synchronous legs structurally cannot.
fn obs_ring_cell(
    chunk: usize,
    writers: usize,
    chunks_per_writer: u64,
) -> crfs_core::stats::StatsSnapshot {
    let backend: Arc<dyn Backend> =
        Arc::new(RpcStore::new(MemBackend::new(), engine_store_params()));
    let config = CrfsConfig::default()
        .with_chunk_size(chunk)
        .with_pool_size(128 * chunk)
        .with_io_threads(4)
        .with_ring_depth(32)
        .with_obs(true);
    let fs = Crfs::mount(backend, config).expect("mount");
    fs.mkdir_all("/ckpt").expect("mkdir");
    std::thread::scope(|s| {
        for file in 0..writers {
            let fs = &fs;
            s.spawn(move || {
                let f = fs.create(&format!("/ckpt/rank{file}.img")).expect("create");
                for idx in 0..chunks_per_writer {
                    let payload = epoch_chunk_payload(chunk, file, idx, 0, 0.0);
                    f.write(&payload).expect("write");
                }
                f.close().expect("close");
            });
        }
    });
    let snap = fs.stats();
    fs.unmount().expect("unmount");
    snap
}

/// The `exp obs` sweep: obs-off and obs-on cells strictly interleaved
/// in ABBA order (off-on, on-off, off-on, …) so slow drift in machine
/// load hits both arms equally and neither arm always runs second
/// inside its pair (each cell saturates every core, so the second cell
/// of a pair systematically sees a warmer machine — strict off-then-on
/// order was measurably biased against the enabled arm), medians per
/// arm, plus the ring leg for async percentiles.
pub fn obs_sweep(quick: bool) -> ObsSweep {
    const CHUNK: usize = 256 << 10;
    const WRITERS: usize = 8;
    // Many medium cells beat few long ones here: cell-to-cell
    // throughput on a shared machine swings far more than the effect
    // being measured, so the pairwise median needs pair count — but
    // cells shorter than ~75ms land inside single interference bursts
    // and flake the gate, so quick mode keeps the cell size and trims
    // only the ring leg.
    let bytes_per_writer: usize = 48 << 20;
    let reps = 21;

    let mut off_runs = Vec::new();
    let mut on_runs = Vec::new();
    let mut stats = None;
    // One warm-up cell (discarded): first-touch page faults and thread
    // spawn costs land on nobody's arm.
    let _ = obs_cell(false, CHUNK, WRITERS, bytes_per_writer / 4);
    for rep in 0..reps {
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for obs in order {
            let (mibs, snap) = obs_cell(obs, CHUNK, WRITERS, bytes_per_writer);
            if obs {
                on_runs.push(mibs);
                stats = Some(snap);
            } else {
                off_runs.push(mibs);
            }
        }
    }
    let median = |runs: &[f64]| {
        let mut sorted = runs.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    };
    let baseline_mibs = median(&off_runs);
    let obs_mibs = median(&on_runs);
    // Per-pair deltas: the i-th off and on cells ran back to back, so
    // whatever the machine was doing hit both; the median pair is far
    // more stable than comparing arm medians.
    let pair_deltas: Vec<f64> = off_runs
        .iter()
        .zip(&on_runs)
        .map(|(off, on)| (off - on) / off.max(1e-9) * 100.0)
        .collect();
    let overhead_pct = median(&pair_deltas);
    let ring_stats = obs_ring_cell(CHUNK, WRITERS, if quick { 24 } else { 64 });

    ObsSweep {
        baseline_mibs,
        obs_mibs,
        overhead_pct,
        off_runs,
        on_runs,
        writers: WRITERS,
        chunk: CHUNK,
        bytes: (WRITERS * bytes_per_writer) as u64,
        stats: stats.expect("at least one obs-on rep"),
        ring_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_bandwidth_measures_something_fast() {
        let p = raw_bandwidth(16 << 20, 1 << 20, 4, 8 << 20);
        // Modern hardware must clear the paper's 700 MB/s easily.
        assert!(p.mbs > 200.0, "got {} MiB/s", p.mbs);
    }

    #[test]
    fn ring_depth_beats_thread_count_on_latency_bound_store() {
        // Miniature engine cell: 2 issue threads. At depth 2 the mount
        // holds at most 2 RPCs in flight, at depth 16 it holds 16. On a
        // 2 ms/write store the depth advantage must show even at tiny
        // volume (loose bound for CI noise; the real sweep shows far
        // more).
        let shallow = engine_cell(2, 2, 64 << 10, 4, 16, false);
        let deep = engine_cell(16, 2, 64 << 10, 4, 16, true);
        assert!(deep.verify_ok, "restart must be byte-exact");
        assert_eq!(deep.verified_bytes, 4 * 16 * (64 << 10) as u64);
        assert!(deep.completion_reaps > 0, "the reaper must have run");
        assert!(deep.avg_reap_len >= 1.0);
        assert!(
            deep.inflight_hwm > 2,
            "hwm {} must exceed the 2 issue threads",
            deep.inflight_hwm
        );
        assert!(
            deep.mibs > shallow.mibs * 1.2,
            "depth 16 {:.0} MiB/s vs depth 2 {:.0} MiB/s",
            deep.mibs,
            shallow.mibs
        );
    }

    #[test]
    fn compress_cell_dedups_verifies_and_beats_identity() {
        // Duplicate-epoch profile in miniature: every chunk recurs in
        // epoch 2, so dedup + LZ must shrink stored volume hard while
        // restoring byte-exactly.
        let lz = compress_cell(CodecKind::Lz, true, 16 << 10, 1.0, true, 1, 64 << 10);
        assert!(lz.verify_ok, "restart must be byte-exact");
        assert_eq!(lz.integrity_failures, 0, "clean path, no failures");
        assert!(lz.dedup_hits > 0, "epoch 2 must dedup against epoch 1");
        assert!(lz.ratio > 1.5, "got ratio {:.2}", lz.ratio);
        assert_eq!(lz.verified_bytes, lz.bytes_logical);

        let base = compress_cell(CodecKind::Identity, false, 16 << 10, 1.0, true, 1, 64 << 10);
        assert!(base.verify_ok);
        assert!(base.ratio <= 1.0, "identity pays frame headers");
        assert!(
            lz.bytes_stored * 2 < base.bytes_stored,
            "dedup+lz {} vs identity {} stored bytes",
            lz.bytes_stored,
            base.bytes_stored
        );
    }
}
