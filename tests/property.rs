//! Property-based tests over the core invariants.
//!
//! Seeded, self-contained randomized testing: each property runs a fixed
//! number of cases driven by [`SimRng`], so failures reproduce exactly
//! from the printed seed (no external property-test framework, which the
//! offline build cannot fetch).

use std::sync::Arc;

use crfs::blcr::{CheckpointWriter, ProcessImage, RestartReader};
use crfs::core::backend::{Backend, MemBackend};
use crfs::core::chunking::{apply_plan, plan_write, ChunkState, PlanStep};
use crfs::core::{CodecKind, Crfs, CrfsConfig};
use crfs::simkit::rng::SimRng;

/// Runs `case` for `cases` deterministic seeds, labelling failures.
fn for_cases(name: &str, cases: u64, mut case: impl FnMut(&mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::new(seed).stream(name);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property {name:?} failed at seed {seed}");
            std::panic::resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------
// plan_write invariants
// ---------------------------------------------------------------------

fn random_chunk_state(rng: &mut SimRng, chunk_size: usize) -> Option<ChunkState> {
    if rng.chance(0.5) {
        return None;
    }
    Some(ChunkState {
        file_offset: rng.gen_range(0u64..1 << 24),
        // Partial fill: a full chunk would already have been sealed.
        fill: rng.gen_range(1usize..chunk_size),
    })
}

/// Appends cover exactly `len` bytes; chunks never overfill; the plan
/// applies cleanly; a non-sequential start forces a seal first.
#[test]
fn plan_write_invariants() {
    for_cases("plan_write_invariants", 256, |rng| {
        let chunk_size = 4096usize;
        let cur = random_chunk_state(rng, chunk_size);
        let offset = rng.gen_range(0u64..1 << 24);
        let len = rng.gen_range(0usize..64 << 10);
        let plan = plan_write(cur, offset, len, chunk_size);

        // 1. Appended bytes sum to len.
        let appended: usize = plan
            .iter()
            .map(|s| match s {
                PlanStep::Append { len } => *len,
                _ => 0,
            })
            .sum();
        assert_eq!(appended, len);

        // 2. Simulation of the plan never overfills and ends consistent.
        let end = apply_plan(cur, &plan, chunk_size);
        if let Some(c) = end {
            assert!(
                c.fill < chunk_size || len == 0,
                "a full chunk must have been sealed"
            );
        }

        // 3. Non-sequential start forces a seal first.
        if let Some(c) = cur {
            if len > 0 && c.append_offset() != offset {
                assert_eq!(plan.first(), Some(&PlanStep::Seal));
            }
        }
    });
}

// ---------------------------------------------------------------------
// CRFS over MemBackend equals direct writes (data integrity oracle)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Sequential write of n bytes of a given fill byte.
    Write(usize, u8),
    /// Positioned write at offset.
    WriteAt(u64, usize, u8),
    /// Flush pending chunks.
    Flush,
}

/// Generates a random op stream, inserting a `Flush` barrier before any
/// write that overlaps previously written bytes. CRFS (like the paper's
/// design) orders writes of a file only through the close/fsync/flush
/// barriers: two in-flight chunks covering the same bytes may land in
/// either order, so an unbarriered overlap has no deterministic outcome
/// to assert against the byte model.
fn random_ops(rng: &mut SimRng) -> Vec<Op> {
    let count = rng.gen_range(1usize..24);
    let mut ops = Vec::new();
    let mut written: Vec<(u64, u64)> = Vec::new();
    let mut pos: u64 = 0;
    let note = |written: &mut Vec<(u64, u64)>, ops: &mut Vec<Op>, start: u64, len: usize| {
        let end = start + len as u64;
        if written.iter().any(|&(s, e)| start < e && s < end) {
            ops.push(Op::Flush);
        }
        written.push((start, end));
    };
    for _ in 0..count {
        match rng.weighted_index(&[4.0, 2.0, 1.0]) {
            0 => {
                let n = rng.gen_range(1usize..20_000);
                note(&mut written, &mut ops, pos, n);
                ops.push(Op::Write(n, rng.next_u32() as u8));
                pos += n as u64;
            }
            1 => {
                let o = rng.gen_range(0u64..40_000);
                let n = rng.gen_range(1usize..8_000);
                note(&mut written, &mut ops, o, n);
                ops.push(Op::WriteAt(o, n, rng.next_u32() as u8));
            }
            _ => ops.push(Op::Flush),
        }
    }
    ops
}

fn apply_model(model: &mut Vec<u8>, off: u64, data: &[u8]) {
    let end = off as usize + data.len();
    if model.len() < end {
        model.resize(end, 0);
    }
    model[off as usize..end].copy_from_slice(data);
}

fn run_ops(ops: &[Op]) -> (Vec<u8>, crfs::core::StatsSnapshot) {
    run_ops_with(
        CrfsConfig::default()
            .with_chunk_size(4096)
            .with_pool_size(16 << 10)
            .with_io_threads(2),
        ops,
    )
}

fn run_ops_with(config: CrfsConfig, ops: &[Op]) -> (Vec<u8>, crfs::core::StatsSnapshot) {
    let be = Arc::new(MemBackend::new());
    let fs = Crfs::mount(be.clone(), config).expect("mount");
    let f = fs.create("/prop").expect("create");
    let mut model: Vec<u8> = Vec::new();
    let mut pos: u64 = 0;
    for op in ops {
        match *op {
            Op::Write(n, b) => {
                let data = vec![b; n];
                f.write(&data).expect("write");
                apply_model(&mut model, pos, &data);
                pos += n as u64;
            }
            Op::WriteAt(o, n, b) => {
                let data = vec![b; n];
                f.write_at(o, &data).expect("write_at");
                apply_model(&mut model, o, &data);
            }
            Op::Flush => f.flush().expect("flush"),
        }
    }
    f.close().expect("close");
    let contents = be.contents("/prop").expect("backend");
    assert_eq!(contents, model, "diverged from the byte model");
    let stats = fs.stats();
    fs.unmount().expect("unmount");
    (contents, stats)
}

/// Whatever sequence of writes is applied, the bytes visible in the
/// backend after close are identical to a plain Vec<u8> model.
#[test]
fn crfs_matches_reference_buffer() {
    for_cases("crfs_matches_reference_buffer", 48, |rng| {
        let ops = random_ops(rng);
        run_ops(&ops);
    });
}

/// Whatever `submit_batch` is in effect, the file lands byte-identical
/// to the model, every completed chunk is one backend op, and batching
/// never costs more than one submission per sealed chunk.
#[test]
fn random_batch_sizes_keep_bytes_and_accounting() {
    for_cases("random_batch_sizes_keep_bytes_and_accounting", 32, |rng| {
        let ops = random_ops(rng);
        let submit_batch = rng.gen_range(1usize..24);
        let config = CrfsConfig::default()
            .with_chunk_size(4096)
            .with_pool_size(16 << 10)
            .with_io_threads(2)
            .with_submit_batch(submit_batch);
        let (_, stats) = run_ops_with(config, &ops);
        assert_eq!(
            stats.backend_writes, stats.chunks_completed,
            "accounting balances at batch {submit_batch}"
        );
        assert!(
            stats.engine_submits <= stats.chunks_sealed,
            "batching never costs extra submissions ({} submits for {} chunks)",
            stats.engine_submits,
            stats.chunks_sealed
        );
    });
}

/// Unmount racing in-flight batched writes: whatever
/// instant the unmount lands, every sealed chunk is accounted (completed
/// or refused), the in-flight gauge returns to zero, no pool buffer
/// leaks, and writers only ever see clean deferred-write errors. The
/// random jitter makes the race land at a different point each seed —
/// mid-batch acceptance included (the engine accepts a batch chunk by
/// chunk).
#[test]
fn unmount_during_batched_writes_is_always_accounted() {
    for_cases(
        "unmount_during_batched_writes_is_always_accounted",
        12,
        |rng| {
            let config = CrfsConfig::default()
                .with_chunk_size(1024)
                .with_pool_size(16 << 10)
                .with_io_threads(2)
                .with_submit_batch(8)
                .with_ring_depth(4); // small slab: batches outsize it
            let fs = Crfs::mount(Arc::new(MemBackend::new()), config).expect("mount");
            let jitter = rng.gen_range(0u64..400);
            let writers = rng.gen_range(1usize..5);
            std::thread::scope(|s| {
                for w in 0..writers {
                    let fs = &fs;
                    s.spawn(move || {
                        let Ok(f) = fs.create(&format!("/race{w}")) else {
                            return; // unmount won the race with create
                        };
                        for _ in 0..40 {
                            // Multi-chunk writes so submit_batch carries
                            // real batches when the shutdown lands.
                            if f.write(&vec![w as u8; 6 * 1024]).is_err() {
                                break;
                            }
                        }
                        // Close may surface a deferred error: fine.
                        let _ = f.close();
                    });
                }
                std::thread::sleep(std::time::Duration::from_micros(jitter));
                fs.unmount().expect("unmount");
            });
            let snap = fs.stats();
            assert_eq!(
                snap.chunks_sealed,
                snap.chunks_completed + snap.chunks_refused,
                "every sealed chunk accounted at jitter {jitter}"
            );
            assert_eq!(snap.ops_inflight, 0, "gauge quiescent after unmount");
            assert_eq!(
                snap.completion_reaped, snap.chunks_completed,
                "reap ledger covers completions"
            );
            assert_eq!(
                snap.pool_free_chunks, snap.pool_total_chunks,
                "no buffer leaked through the race"
            );
        },
    );
}

/// Buffer pool conservation: after any workload, sealed == completed
/// and bytes in == bytes out.
#[test]
fn pool_and_byte_conservation() {
    for_cases("pool_and_byte_conservation", 48, |rng| {
        let fs = Crfs::mount(
            Arc::new(MemBackend::new()),
            CrfsConfig::default()
                .with_chunk_size(8192)
                .with_pool_size(32 << 10),
        )
        .expect("mount");
        let f = fs.create("/conserve").expect("create");
        let mut total = 0u64;
        for _ in 0..rng.gen_range(1usize..20) {
            let n = rng.gen_range(1usize..50_000);
            f.write(&vec![0xAB; n]).expect("write");
            total += n as u64;
        }
        f.close().expect("close");
        let s = fs.stats();
        assert_eq!(s.bytes_in, total);
        assert_eq!(s.bytes_out, total);
        assert_eq!(s.chunks_sealed, s.chunks_completed);
        fs.unmount().expect("unmount");
    });
}

// ---------------------------------------------------------------------
// Transform pipeline round trip: write → compress → dedup → read,
// across codecs and chunk sizes
// ---------------------------------------------------------------------

/// Compressible checkpoint-like bytes for chunk `idx`: a repeated tile
/// with per-chunk variation plus a run segment, epoch-independent for
/// `dup` chunks (so a second epoch exercises dedup).
fn transform_chunk_payload(chunk: usize, idx: u64, epoch: u64, dup: bool) -> Vec<u8> {
    let salt = if dup { 0 } else { epoch + 1 };
    let seed = (idx.wrapping_mul(0x9E37_79B9) ^ salt.wrapping_mul(0xC2B2_AE35)) as u8;
    (0..chunk)
        .map(|i| {
            if (i / 64) % 4 == 0 {
                seed // runs for RLE
            } else {
                seed.wrapping_add((i % 23) as u8) // structure for LZ
            }
        })
        .collect()
}

/// The codec dimension of the CI matrix (`CRFS_TEST_CODEC`), plus the
/// two real codecs always.
fn test_codecs() -> Vec<CodecKind> {
    let mut codecs = vec![CodecKind::Rle, CodecKind::Lz];
    if let Some(c) = std::env::var("CRFS_TEST_CODEC")
        .ok()
        .and_then(|v| CodecKind::parse(&v))
    {
        if c != CodecKind::None && !codecs.contains(&c) {
            codecs.push(c);
        }
    }
    codecs
}

/// Byte-exact restore through the full transform pipeline: two epochs
/// of checkpoint files written through every codec × chunk size
/// (4K / 64K / 1M), read back both on the writing mount and on a
/// fresh mount (the restart path, which rebuilds frame maps by scanning
/// and resolves cross-epoch dedup references). Stored bytes must never
/// exceed logical bytes on this compressible workload, and the clean
/// path must report zero integrity failures.
#[test]
fn transform_roundtrip_write_compress_dedup_read() {
    let codecs = test_codecs();
    for_cases("transform_roundtrip", 2, |rng| {
        for &codec in &codecs {
            for chunk in [4usize << 10, 64 << 10, 1 << 20] {
                let be = Arc::new(MemBackend::new());
                let config = CrfsConfig::default()
                    .with_chunk_size(chunk)
                    .with_pool_size(4 * chunk)
                    .with_codec(codec)
                    .with_dedup(true);
                let chunks_per_file = rng.gen_range(2u64..5);
                // Tail fraction exercises partial-chunk frames.
                let tail = rng.gen_range(0usize..chunk);
                let file_len = chunks_per_file * chunk as u64 + tail as u64;

                let fs =
                    Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).expect("mount");
                for epoch in 0..2u64 {
                    let f = fs.create(&format!("/e{epoch}.img")).expect("create");
                    for idx in 0..=chunks_per_file {
                        let len = if idx == chunks_per_file { tail } else { chunk };
                        if len == 0 {
                            continue;
                        }
                        let dup = idx % 2 == 0; // half the chunks recur
                        let mut payload = transform_chunk_payload(chunk, idx, epoch, dup);
                        payload.truncate(len);
                        f.write(&payload).expect("write");
                    }
                    f.close().expect("close");
                    fs.advance_epoch().unwrap();
                }
                let verify = |fs: &Arc<Crfs>, label: &str| {
                    for epoch in 0..2u64 {
                        let f = fs.open(&format!("/e{epoch}.img")).expect("open");
                        assert_eq!(f.len().expect("len"), file_len, "{label}");
                        let mut got = vec![0u8; chunk];
                        for idx in 0..=chunks_per_file {
                            let len = if idx == chunks_per_file { tail } else { chunk };
                            if len == 0 {
                                continue;
                            }
                            let n = f
                                .read_at(idx * chunk as u64, &mut got[..len])
                                .expect("read");
                            let dup = idx % 2 == 0;
                            let mut want = transform_chunk_payload(chunk, idx, epoch, dup);
                            want.truncate(len);
                            assert_eq!(n, len, "{label}");
                            assert_eq!(got[..len], want[..], "{label}");
                        }
                        f.close().expect("close");
                    }
                };
                verify(&fs, "same mount");
                let snap = fs.stats();
                assert_eq!(snap.chunks_sealed, snap.chunks_completed);
                assert_eq!(snap.integrity_failures, 0, "{codec:?}/{chunk}: clean path");
                assert!(
                    snap.bytes_stored <= snap.bytes_logical,
                    "{codec:?}/{chunk}: stored {} > logical {}",
                    snap.bytes_stored,
                    snap.bytes_logical
                );
                assert!(
                    snap.dedup_hits > 0,
                    "{codec:?}/{chunk}: duplicate epoch must dedup"
                );
                assert_eq!(snap.bytes_out, snap.bytes_stored);
                fs.unmount().expect("unmount");

                // Restart on a fresh mount: frame maps rebuilt by
                // scanning, dedup references resolved cross-file.
                let fs = Crfs::mount(be as Arc<dyn Backend>, config).expect("remount");
                verify(&fs, "fresh mount");
                assert_eq!(fs.stats().integrity_failures, 0);
                fs.unmount().expect("unmount");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Crash-point sweep: reopen after a power cut serves a subset of the
// writes that were issued — acked prefix always, wrong bytes never
// ---------------------------------------------------------------------

/// Nonzero checkpoint-like payload for logical chunk `idx`: every byte
/// is >= 1, so an all-zero chunk after recovery can only be an
/// unwritten logical hole, never a confusable payload.
fn crash_chunk_payload(chunk: usize, idx: u64) -> Vec<u8> {
    let seed = (idx % 199) as u8 + 1;
    (0..chunk)
        .map(|i| {
            if (i / 64) % 2 == 0 {
                seed // runs for RLE
            } else {
                1 + ((i % 97) as u8) // structure for LZ, never zero
            }
        })
        .collect()
}

/// The crash-recovery contract (DESIGN.md §6), randomized: kill the
/// backend a random number of bytes into the unacked tail of a
/// checkpoint write, for every codec × chunk size. On reopen:
/// the flush-acked prefix is byte-exact, the surviving length is
/// frame-granular and never exceeds what was written, and every
/// surviving unacked chunk is a hole (all zero), byte-exact, or a
/// *detected* integrity error — silently wrong bytes are the one
/// forbidden outcome. `crfs-fsck --repair` then heals the structural
/// tail damage and a rescan must come back structurally clean.
#[test]
fn crash_point_recovery_yields_acked_prefix_and_never_wrong_bytes() {
    use crfs::core::backend::{FailureMode, FaultyBackend};
    use crfs::core::fsck::{self, FsckOptions};

    let codecs = test_codecs();
    for_cases("crash_point_recovery", 4, |rng| {
        for &codec in &codecs {
            let chunk = [1024usize, 4096][rng.gen_range(0usize..2)];
            let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
            let config = CrfsConfig::default()
                .with_chunk_size(chunk)
                .with_pool_size(8 * chunk)
                .with_io_threads(2)
                .with_codec(codec);
            let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).expect("mount");
            let f = fs.create("/crash.img").expect("create");
            let total_chunks = rng.gen_range(4u64..10);
            let acked_chunks = rng.gen_range(1u64..total_chunks);
            for idx in 0..acked_chunks {
                f.write(&crash_chunk_payload(chunk, idx)).expect("acked");
            }
            f.flush().expect("acked flush");

            // Power cut a random number of bytes into the unacked
            // tail: mid-first-frame through almost-everything.
            let tail_budget = (total_chunks - acked_chunks) * chunk as u64 + 64;
            let budget = rng.gen_range(1u64..tail_budget);
            be.set_mode(FailureMode::PowerCutAfterBytes(budget));
            for idx in acked_chunks..total_chunks {
                if f.write(&crash_chunk_payload(chunk, idx)).is_err() {
                    break; // the cut surfaced synchronously
                }
            }
            let _ = f.close(); // may re-surface the deferred crash
            let _ = fs.unmount();

            // Reboot and remount: the open-scan enforces the
            // contract on whatever bytes survived.
            be.revive();
            let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).expect("remount");
            let f = fs.open("/crash.img").expect("reopen");
            let len = f.len().expect("len");
            let acked_bytes = acked_chunks * chunk as u64;
            let label = format!("{codec:?}/{chunk} budget {budget}");
            assert!(len >= acked_bytes, "{label}: flush-acked bytes lost");
            assert!(len <= total_chunks * chunk as u64, "{label}");
            assert_eq!(len % chunk as u64, 0, "{label}: frame-granular");
            for idx in 0..acked_chunks {
                let mut got = vec![0u8; chunk];
                let n = f.read_at(idx * chunk as u64, &mut got).expect("acked read");
                assert_eq!(n, chunk, "{label}");
                assert_eq!(
                    got,
                    crash_chunk_payload(chunk, idx),
                    "{label}: acked chunk {idx}"
                );
            }
            for idx in acked_chunks..(len / chunk as u64) {
                let mut got = vec![0u8; chunk];
                // An Err here is fine: an in-bounds torn payload
                // passes the structural scan and is caught by its
                // checksum at read time — a detected error, not
                // wrong bytes.
                if let Ok(n) = f.read_at(idx * chunk as u64, &mut got) {
                    assert_eq!(n, chunk, "{label}");
                    // Concurrent IO workers can lose a frame
                    // *before* one that survived (stored-space
                    // allocation is not logical order), leaving
                    // a hole the read path zero-fills.
                    let hole = got.iter().all(|&b| b == 0);
                    assert!(
                        hole || got == crash_chunk_payload(chunk, idx),
                        "{label}: unacked chunk {idx} served wrong bytes"
                    );
                }
            }
            f.close().expect("close");
            fs.unmount().expect("unmount");

            // fsck --repair heals the structural tail; the rescan
            // must agree nothing structural is left (mid-chain
            // payload damage is reported, not repaired).
            let backend = be as Arc<dyn Backend>;
            let roots = ["/".to_string()];
            let repair = FsckOptions {
                repair: true,
                threads: 1,
                ..FsckOptions::default()
            };
            let sum = fsck::run(&backend, &roots, &repair);
            let rescan = fsck::run(&backend, &roots, &FsckOptions::default());
            assert_eq!(
                rescan.damage.torn_tails, 0,
                "{label}: torn tail survived repair"
            );
            assert_eq!(
                rescan.damage.bad_header_crc, 0,
                "{label}: bad header survived repair"
            );
            assert!(
                rescan.damage.bad_payload_checksum <= sum.damage.bad_payload_checksum,
                "{label}: repair must never grow payload damage"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Read-after-write coherence under concurrent readers and writers,
// swept across prefetch window sizes
// ---------------------------------------------------------------------

/// Readers racing an appending writer must always see the bytes the
/// flush barriers promised, whatever the prefetch window: the cache may
/// reorder *when* the backend is read, never *what* a read returns.
/// Window 0 is the pass-through control; the larger windows exercise
/// claim/invalidate/install against live writes.
#[test]
fn read_write_coherence_across_prefetch_windows() {
    use std::sync::atomic::{AtomicBool, Ordering};

    for_cases("read_write_coherence_across_prefetch_windows", 6, |rng| {
        for window in [0usize, 1, 4, 8] {
            let config = CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 << 10)
                .with_io_threads(2)
                .with_read_ahead(window);
            let fs = Crfs::mount(Arc::new(MemBackend::new()), config).expect("mount");
            let f = Arc::new(fs.create("/coh").expect("create"));

            // An immutable, flushed prefix with a position-derived
            // pattern: concurrent readers verify against it while the
            // writer appends strictly beyond it.
            let pat = |i: u64| (i % 251) as u8;
            let prefix = rng.gen_range(8_000u64..40_000);
            let data: Vec<u8> = (0..prefix).map(pat).collect();
            f.write(&data).expect("prefix write");
            f.flush().expect("prefix flush");

            // Pre-draw every reader's offsets so the run replays exactly
            // from the printed seed.
            let reader_plans: Vec<Vec<(u64, usize)>> = (0..2)
                .map(|_| {
                    (0..60)
                        .map(|_| {
                            let len = rng.gen_range(1usize..6_000);
                            let off = rng.gen_range(0u64..prefix.saturating_sub(len as u64).max(1));
                            (off, len)
                        })
                        .collect()
                })
                .collect();
            let appends = rng.gen_range(5usize..30);

            let writer_done = Arc::new(AtomicBool::new(false));
            std::thread::scope(|s| {
                for plan in &reader_plans {
                    let f = Arc::clone(&f);
                    let done = Arc::clone(&writer_done);
                    s.spawn(move || {
                        // Cycle the plan until the writer finishes, then
                        // one final pass (so reads genuinely overlap
                        // writes and still run under quiescence).
                        let mut last_round = false;
                        loop {
                            for &(off, len) in plan {
                                let mut buf = vec![0u8; len];
                                let n = f.read_at(off, &mut buf).expect("read");
                                assert_eq!(n, len, "prefix read came up short");
                                for (k, &b) in buf.iter().enumerate() {
                                    assert_eq!(
                                        b,
                                        pat(off + k as u64),
                                        "stale/corrupt byte at {} (window {window})",
                                        off + k as u64
                                    );
                                }
                            }
                            if last_round {
                                break;
                            }
                            last_round = done.load(Ordering::Relaxed);
                        }
                    });
                }
                // The writer appends beyond the prefix while readers run.
                for a in 0..appends {
                    f.write(&vec![(a % 200) as u8 + 1; 1500]).expect("append");
                    if a % 4 == 3 {
                        f.flush().expect("mid flush");
                    }
                }
                writer_done.store(true, Ordering::Relaxed);
            });

            // Quiescent full-file scan: everything (prefix + appends)
            // must match the model, and with a window the scan must
            // actually exercise the cache.
            f.flush().expect("final flush");
            let total = prefix + (appends as u64) * 1500;
            let mut got = vec![0u8; total as usize];
            let mut off = 0usize;
            while off < got.len() {
                let n = f.read_at(off as u64, &mut got[off..]).expect("scan");
                assert!(n > 0, "scan stalled at {off}");
                off += n;
            }
            for (i, &b) in got[..prefix as usize].iter().enumerate() {
                assert_eq!(b, pat(i as u64), "prefix byte {i} (window {window})");
            }
            for a in 0..appends {
                let start = prefix as usize + a * 1500;
                assert!(
                    got[start..start + 1500]
                        .iter()
                        .all(|&b| b == (a % 200) as u8 + 1),
                    "append {a} corrupted (window {window})"
                );
            }
            drop(f);
            let snap = fs.stats();
            if window == 0 {
                assert_eq!(snap.prefetch_issued, 0, "window 0 must not prefetch");
            }
            assert_eq!(
                snap.prefetch_issued, snap.prefetch_completed,
                "read ledger balances (window {window})"
            );
            assert!(snap.prefetch_wasted <= snap.prefetch_issued);
            assert_eq!(
                snap.pool_free_chunks, snap.pool_total_chunks,
                "pool conserved (window {window})"
            );
            fs.unmount().expect("unmount");
        }
    });
}

// ---------------------------------------------------------------------
// BLCR image round-trips
// ---------------------------------------------------------------------

/// restart(checkpoint(image)) == image, for arbitrary sizes/seeds,
/// through an actual CRFS mount.
#[test]
fn blcr_roundtrip_through_crfs() {
    for_cases("blcr_roundtrip_through_crfs", 24, |rng| {
        let kb = rng.gen_range(1u64..2_048);
        let seed = rng.next_u64();
        let fs = Crfs::mount(
            Arc::new(MemBackend::new()),
            CrfsConfig::default()
                .with_chunk_size(64 << 10)
                .with_pool_size(256 << 10),
        )
        .expect("mount");
        let image = ProcessImage::synthetic(1, kb << 10, seed);
        let mut f = fs.create("/img").expect("create");
        CheckpointWriter::new()
            .write_image(&mut f, &image)
            .expect("dump");
        f.close().expect("close");

        let mut g = fs.open("/img").expect("open");
        let restored = RestartReader::new().read_image(&mut g).expect("restore");
        assert_eq!(restored, image);
        fs.unmount().expect("unmount");
    });
}

// ---------------------------------------------------------------------
// Write-trace text format round-trips
// ---------------------------------------------------------------------

#[test]
fn trace_text_roundtrip() {
    use crfs::trace::{TraceEvent, TraceOp, WriteTrace};
    for_cases("trace_text_roundtrip", 64, |rng| {
        let name_chars: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_.".chars().collect();
        let mut trace = WriteTrace::new();
        let mut events: Vec<TraceEvent> = (0..rng.gen_range(0usize..40))
            .map(|_| {
                let name: String = (0..rng.gen_range(1usize..=12))
                    .map(|_| name_chars[rng.gen_range(0usize..name_chars.len())])
                    .collect();
                let path = format!("/{name}");
                TraceEvent {
                    at: std::time::Duration::from_nanos(rng.gen_range(0u64..1 << 40)),
                    op: match rng.gen_range(0usize..4) {
                        0 => TraceOp::Open { path },
                        1 => TraceOp::Write {
                            path,
                            offset: rng.gen_range(0u64..1 << 30),
                            len: rng.gen_range(1u64..1 << 20),
                        },
                        2 => TraceOp::Fsync { path },
                        _ => TraceOp::Close { path },
                    },
                }
            })
            .collect();
        events.sort_by_key(|e| e.at);
        for e in events {
            trace.push(e);
        }
        let parsed = WriteTrace::parse(&trace.to_text()).expect("parse");
        assert_eq!(parsed, trace);
    });
}

// ---------------------------------------------------------------------
// Path normalization never escapes, never panics
// ---------------------------------------------------------------------

#[test]
fn normalize_path_is_total_and_rooted() {
    for_cases("normalize_path_is_total_and_rooted", 256, |rng| {
        let chars: Vec<char> = "abcdefghijklmnopqrstuvwxyz./".chars().collect();
        let path: String = (0..rng.gen_range(0usize..=40))
            .map(|_| chars[rng.gen_range(0usize..chars.len())])
            .collect();
        // Escape attempts are rejected with Err, never a panic.
        if let Ok(p) = crfs::core::backend::normalize_path(&path) {
            assert!(p.starts_with('/'));
            assert!(!p.contains("//"));
            assert!(!p.split('/').any(|c| c == "." || c == ".."));
        }
    });
}

/// MemBackend never allows writes to corrupt other files.
#[test]
fn mem_backend_file_isolation() {
    for_cases("mem_backend_file_isolation", 64, |rng| {
        let mut a = vec![0u8; rng.gen_range(0usize..512)];
        let mut b = vec![0u8; rng.gen_range(0usize..512)];
        rng.fill_bytes(&mut a);
        rng.fill_bytes(&mut b);
        let be = MemBackend::new();
        let fa = be
            .open("/a", crfs::core::backend::OpenOptions::create_truncate())
            .expect("a");
        let fb = be
            .open("/b", crfs::core::backend::OpenOptions::create_truncate())
            .expect("b");
        fa.write_at(0, &a).expect("write a");
        fb.write_at(0, &b).expect("write b");
        assert_eq!(be.contents("/a").expect("a"), a);
        assert_eq!(be.contents("/b").expect("b"), b);
    });
}

// ---------------------------------------------------------------------
// versioned snapshots: epochs × GC × restart
// ---------------------------------------------------------------------

/// Versioned-snapshot invariant: N epochs of full checkpoint rewrites
/// with a randomized per-epoch dirty fraction, a GC pass between
/// epochs (mid-retention, so it must reclaim only retired chunks),
/// then a byte-exact `open_restart` of every retained epoch — first on
/// the writing mount, then on a fresh mount that reloads manifests
/// from the store. Runs across every codec. The model is the
/// literal expected bytes per epoch, so any chunk the GC wrongly
/// freed, any refcount miscount, and any manifest/dedup divergence
/// shows up as a byte mismatch.
#[test]
fn snapshot_restart_is_byte_exact_from_every_retained_epoch() {
    let codecs = test_codecs();
    for_cases("snapshot_restart", 2, |rng| {
        for &codec in &codecs {
            let chunk = 4096usize;
            let keep = rng.gen_range(1usize..4);
            let epochs = keep + rng.gen_range(1usize..4);
            let chunks_per_file = rng.gen_range(3u64..7);
            let be = Arc::new(MemBackend::new());
            let config = CrfsConfig::default()
                .with_chunk_size(chunk)
                .with_pool_size(4 * chunk)
                .with_codec(codec)
                .with_dedup(true)
                .with_snapshot_keep_epochs(keep);

            let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).expect("mount");
            // The model: current per-chunk payloads, and a full
            // copy of the image at every sealed epoch.
            let mut current: Vec<Vec<u8>> = (0..chunks_per_file)
                .map(|idx| {
                    // Compressible structured content, distinct per chunk.
                    let seed = rng.gen_range(1u64..255) as u8;
                    (0..chunk)
                        .map(|j| seed.wrapping_add((j % 23 + idx as usize) as u8))
                        .collect()
                })
                .collect();
            let mut sealed: Vec<Vec<Vec<u8>>> = Vec::new();
            for _epoch in 0..epochs {
                let dirty = rng.gen_range(0.0..1.0f64);
                for payload in &mut current {
                    if rng.chance(dirty) {
                        let seed = rng.gen_range(1u64..255) as u8;
                        for (j, b) in payload.iter_mut().enumerate() {
                            *b = seed.wrapping_add((j % 29) as u8);
                        }
                    }
                }
                let f = fs.create("/rank.img").expect("create");
                for payload in &current {
                    f.write(payload).expect("write");
                }
                f.close().expect("close");
                fs.advance_epoch().expect("advance_epoch");
                sealed.push(current.clone());
                // GC between epochs: with live staging done and the
                // epoch sealed, only retired-epoch chunks may go.
                fs.snapshot_gc().expect("gc");
            }

            let verify = |fs: &Arc<Crfs>, label: &str| {
                let retained = fs.snapshot_epochs();
                assert_eq!(
                    retained.len(),
                    keep.min(epochs),
                    "{label}: retention window"
                );
                for &epoch in &retained {
                    let view = fs
                        .open_restart("/rank.img", epoch)
                        .unwrap_or_else(|e| panic!("{label}: open epoch {epoch}: {e}"));
                    let want = &sealed[epoch as usize];
                    let mut got = vec![0u8; chunk];
                    for (idx, chunk_want) in want.iter().enumerate() {
                        let n = view
                            .read_at(idx as u64 * chunk as u64, &mut got)
                            .unwrap_or_else(|e| {
                                panic!("{label}: read epoch {epoch} chunk {idx}: {e}")
                            });
                        assert_eq!(n, chunk, "{label}: epoch {epoch} chunk {idx}");
                        assert_eq!(&got, chunk_want, "{label}: epoch {epoch} chunk {idx} bytes");
                    }
                    view.close().expect("close view");
                }
            };
            verify(&fs, "writing mount");
            assert_eq!(fs.stats().integrity_failures, 0);
            fs.unmount().expect("unmount");

            // Fresh mount: manifests reload from the store; every
            // retained epoch must still restart byte-exactly, and a
            // final GC pass must find nothing left to reclaim.
            let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config).expect("remount");
            verify(&fs, "fresh mount");
            let report = fs.snapshot_gc().expect("final gc");
            assert_eq!(report.reclaimed_chunks, 0, "reclaim already complete");
            assert_eq!(fs.stats().integrity_failures, 0);
            fs.unmount().expect("unmount");
        }
    });
}

// ---------------------------------------------------------------------
// Tiered backend: restart reads racing an in-progress drain
// ---------------------------------------------------------------------

/// Deterministic per-file payload byte: depends only on the case seed,
/// the file index and the offset, so any racing reader can verify any
/// slice without sharing buffers with the writer.
fn tier_expected_byte(case_seed: u64, file: usize, off: u64) -> u8 {
    (case_seed ^ (file as u64).wrapping_mul(0x9E37_79B9) ^ off.wrapping_mul(0x85EB_CA6B)) as u8
}

fn tier_fill_expected(buf: &mut [u8], case_seed: u64, file: usize, base: u64) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = tier_expected_byte(case_seed, file, base + i as u64);
    }
}

/// DESIGN.md §9's restart contract under the race it allows: reads
/// through a *restarted* tier stack, issued while the original stack's
/// background drain is still copying frames to the durable tier, must
/// always return the acked bytes — the fast tier is authoritative until
/// the barrier — and once the barrier has retired every copy, the
/// durable tier alone must hold the same bytes.
#[test]
fn tiered_restart_reads_race_in_progress_drain() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use crfs::core::backend::{OpenOptions, ThrottleParams, ThrottledBackend, TieredBackend};

    for_cases("tiered_restart_reads_race_in_progress_drain", 6, |rng| {
        let case_seed = rng.next_u64();
        let files = rng.gen_range(1usize..4);
        let file_len = rng.gen_range((64u64 << 10)..(256 << 10));

        let fast: Arc<dyn Backend> = Arc::new(MemBackend::new());
        // Slow durable tier: at 16 MiB/s the drain of a few hundred KiB
        // stays in flight for tens of milliseconds — plenty of room for
        // the racing readers below to land inside it.
        let durable: Arc<dyn Backend> = Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            ThrottleParams {
                bandwidth: 16 << 20,
                per_op_latency: Duration::from_micros(200),
                seek_penalty: Duration::ZERO,
            },
        ));
        // Watermarks far above the working set: never write-through,
        // every byte travels via the background drain.
        let config = CrfsConfig::default().with_tier_watermarks(1 << 29, 1 << 30);
        let stack1 = Arc::new(TieredBackend::from_config(
            Arc::clone(&fast),
            Arc::clone(&durable),
            &config,
        ));

        // Writer: acked entirely by the fast tier; drains now in flight.
        stack1.mkdir("/race").expect("mkdir");
        for file in 0..files {
            let f = stack1
                .open(
                    &format!("/race/f{file}.img"),
                    OpenOptions::create_truncate(),
                )
                .expect("create");
            let mut off = 0u64;
            while off < file_len {
                let len = (rng.gen_range((8u64 << 10)..(32 << 10))).min(file_len - off) as usize;
                let mut buf = vec![0u8; len];
                tier_fill_expected(&mut buf, case_seed, file, off);
                f.write_at(off, &buf).expect("write");
                off += len as u64;
            }
        }

        // Restart: a second stack over the same two tiers, racing both
        // the in-progress drain and stack1's barrier.
        let stack2 = Arc::new(TieredBackend::from_config(
            Arc::clone(&fast),
            Arc::clone(&durable),
            &config,
        ));
        let barrier_done = Arc::new(AtomicBool::new(false));
        let read_plan: Vec<(usize, u64, usize)> = (0..64)
            .map(|_| {
                let file = rng.gen_range(0usize..files);
                let len = rng.gen_range(1u64..(16 << 10)).min(file_len) as usize;
                let off = rng.gen_range(0u64..file_len - len as u64 + 1);
                (file, off, len)
            })
            .collect();

        std::thread::scope(|s| {
            let flag = Arc::clone(&barrier_done);
            let b = Arc::clone(&stack1);
            s.spawn(move || {
                b.drain_barrier().expect("clean drain");
                flag.store(true, Ordering::Release);
            });
            for reader in 0..2 {
                let stack2 = Arc::clone(&stack2);
                let plan = read_plan.clone();
                let barrier_done = Arc::clone(&barrier_done);
                s.spawn(move || {
                    for (i, &(file, off, len)) in plan.iter().enumerate() {
                        if i % 2 != reader {
                            continue;
                        }
                        let in_drain = !barrier_done.load(Ordering::Acquire);
                        let f = stack2
                            .open(&format!("/race/f{file}.img"), OpenOptions::read_only())
                            .expect("restart open");
                        let mut got = vec![0u8; len];
                        let n = f.read_at(off, &mut got).expect("restart read");
                        let mut want = vec![0u8; len];
                        tier_fill_expected(&mut want, case_seed, file, off);
                        assert_eq!(n, len, "short restart read at {off}+{len}");
                        assert_eq!(
                            got, want,
                            "restart read f{file} [{off}, +{len}) saw wrong bytes \
                             (drain in flight: {in_drain})"
                        );
                    }
                });
            }
        });

        // After the barrier every copy is durable; the durable tier
        // alone must serve every byte (the fast tier may be gone).
        stack1.drain_barrier().expect("idempotent barrier");
        let counters = stack1.tier_counters();
        assert_eq!(counters.resident_bytes, 0, "drain left residue");
        assert_eq!(counters.drain_failed, 0, "drain failures");
        assert_eq!(counters.write_through_ops, 0, "unexpected write-through");
        for file in 0..files {
            let path = format!("/race/f{file}.img");
            let f = durable
                .open(&path, OpenOptions::read_only())
                .expect("durable open");
            let mut got = vec![0u8; file_len as usize];
            let n = f.read_at(0, &mut got).expect("durable read");
            assert_eq!(n, file_len as usize, "durable copy short");
            let mut want = vec![0u8; file_len as usize];
            tier_fill_expected(&mut want, case_seed, file, 0);
            assert_eq!(got, want, "durable tier diverged on {path}");
        }
    });
}
