//! Failure-injection tests across the full stack: a misbehaving backend
//! must surface errors at the paper's synchronization points (close,
//! fsync, unmount) without hanging, leaking pool buffers, or losing
//! track of which data made it out.

use std::sync::Arc;

use crfs::core::backend::{Backend, FailureMode, FaultyBackend, MemBackend, OpenOptions};
use crfs::core::{Crfs, CrfsConfig, CrfsError, Vfs};

fn small_config() -> CrfsConfig {
    CrfsConfig::default()
        .with_chunk_size(1024)
        .with_pool_size(8192)
        .with_io_threads(2)
}

fn faulty(mode: FailureMode) -> Arc<dyn Backend> {
    Arc::new(FaultyBackend::new(MemBackend::new(), mode))
}

#[test]
fn async_error_is_sticky_across_barriers() {
    let fs = Crfs::mount(faulty(FailureMode::FailWritesAfter(0)), small_config()).unwrap();
    let f = fs.create("/bad").unwrap();
    f.write(&vec![1u8; 4096]).unwrap(); // chunks fail in the background

    // First barrier reports the failure...
    let err = f.flush().unwrap_err();
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");
    // ...and so does every later one (the paper's close barrier must not
    // silently succeed after an earlier flush observed the error).
    let err = f.close().unwrap_err();
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");
}

/// Completion-time failures (the backend acks the submission, the error
/// arrives through the completion sink) must surface at the same
/// barriers as write-time failures. `FailCompletionsAfter` delivers the
/// completion inline, so this also pins the engine's completed-early
/// handshake under a real mount.
#[test]
fn completion_time_error_is_sticky_across_barriers_on_ring() {
    let fs = Crfs::mount(faulty(FailureMode::FailCompletionsAfter(0)), small_config()).unwrap();
    let f = fs.create("/bad").unwrap();
    f.write(&vec![1u8; 4096]).unwrap(); // completions fail in the background

    let err = f.flush().unwrap_err();
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");
    let err = f.close().unwrap_err();
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");
    let s = fs.stats();
    assert_eq!(s.chunks_sealed, s.chunks_completed);
    assert_eq!(s.pool_free_chunks, s.pool_total_chunks);
    assert_eq!(s.ops_inflight, 0);
    let _ = fs.unmount(); // may re-report the deferred error
}

/// The same concurrency hammer as the write-time version, but with the
/// failures injected at completion time: every close
/// returns, sealed == completed, and no buffer is lost.
#[test]
fn pool_buffers_survive_completion_failures_under_concurrency() {
    let be = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FailureMode::FailCompletionsAfter(5),
    ));
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, small_config()).unwrap();
    let mut handles = Vec::new();
    for w in 0..8 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let f = fs.create(&format!("/w{w}")).unwrap();
            for _ in 0..10 {
                if f.write(&vec![w as u8; 700]).is_err() {
                    break;
                }
            }
            let _ = f.close(); // must not hang
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = fs.stats();
    assert_eq!(
        s.chunks_sealed, s.chunks_completed,
        "every sealed chunk must complete (ok or error) and recycle its buffer"
    );
    assert_eq!(s.completion_reaped, s.chunks_completed);
    assert_eq!(s.ops_inflight, 0);
    assert!(
        be.writes_seen() > 5,
        "the backend did see the failing completions"
    );
    let _ = fs.unmount(); // may re-report the deferred error
}

#[test]
fn fsync_failure_propagates_but_close_succeeds() {
    // Backend accepts data but cannot fsync: fsync() must fail, while
    // close (which does not fsync in the paper's design) succeeds.
    let fs = Crfs::mount(faulty(FailureMode::FailSync), small_config()).unwrap();
    let f = fs.create("/nosync").unwrap();
    f.write(b"data").unwrap();
    assert!(f.fsync().is_err());

    let g = fs.create("/nosync2").unwrap();
    g.write(b"data").unwrap();
    g.close().unwrap();
}

#[test]
fn open_failure_leaves_no_table_entry() {
    let fs = Crfs::mount(faulty(FailureMode::FailOpen), small_config()).unwrap();
    assert!(fs.create("/f").is_err());
    assert_eq!(fs.open_files(), 0, "failed open must not leak an entry");
}

#[test]
fn unmount_reports_pending_write_errors() {
    let fs = Crfs::mount(faulty(FailureMode::FailWritesAfter(0)), small_config()).unwrap();
    let f = fs.create("/pending").unwrap();
    f.write(&vec![9u8; 3000]).unwrap();
    // Unmount flushes open files; the flush failure must be reported.
    let err = fs.unmount().unwrap_err();
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");
    // The mount is down regardless.
    assert!(matches!(f.write(b"x"), Err(CrfsError::Unmounted)));
}

#[test]
fn pool_buffers_survive_backend_failures_under_concurrency() {
    // 8 writers, backend starts failing after 5 writes: every close must
    // return (error or not), and every sealed chunk must be completed —
    // i.e. no buffer is lost to the failure path.
    let be = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FailureMode::FailWritesAfter(5),
    ));
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, small_config()).unwrap();
    let mut handles = Vec::new();
    for w in 0..8 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let f = fs.create(&format!("/w{w}")).unwrap();
            for _ in 0..10 {
                if f.write(&vec![w as u8; 700]).is_err() {
                    break; // write-time flush may already report
                }
            }
            let _ = f.close(); // must not hang
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = fs.stats();
    assert_eq!(
        s.chunks_sealed, s.chunks_completed,
        "every sealed chunk must complete (ok or error) and recycle its buffer"
    );
    assert!(
        be.writes_seen() > 5,
        "the backend did see the failing writes"
    );
}

#[test]
fn writes_after_failure_still_work_on_new_files() {
    // A failure on one file must not poison the mount: FailWritesAfter
    // counts globally here, so use FailSync (per-op) instead and verify
    // data flows despite sync failures.
    let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::FailSync));
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, small_config()).unwrap();
    let f = fs.create("/a").unwrap();
    f.write(b"payload-a").unwrap();
    assert!(f.fsync().is_err());
    f.close().unwrap();
    let g = fs.create("/b").unwrap();
    g.write(b"payload-b").unwrap();
    g.close().unwrap();
    assert_eq!(be.inner().contents("/a").unwrap(), b"payload-a");
    assert_eq!(be.inner().contents("/b").unwrap(), b"payload-b");
    fs.unmount().unwrap();
}

#[test]
fn vfs_propagates_deferred_errors_at_close() {
    let fs = Crfs::mount(faulty(FailureMode::FailWritesAfter(0)), small_config()).unwrap();
    let vfs = Vfs::new();
    vfs.mount("/mnt", fs).unwrap();
    let fd = vfs.create("/mnt/ckpt").unwrap();
    vfs.write(fd, &vec![3u8; 4096]).unwrap();
    assert!(
        vfs.close(fd).is_err(),
        "fd close must report the async error"
    );
    assert_eq!(vfs.open_fds(), 0);
}

// ---------------------------------------------------------------------
// Corrupted reads vs the integrity pipeline
// ---------------------------------------------------------------------

use crfs::core::CodecKind;

/// Compressible payload (runs + structure) for the integrity tests.
fn transform_payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            if (i / 64) % 2 == 0 {
                7u8
            } else {
                (i % 31) as u8
            }
        })
        .collect()
}

/// A backend that silently flips bits in read payloads must never get
/// corrupt bytes past a transform-enabled mount: every read fails with
/// `IntegrityError` instead — on the direct path and through the
/// prefetch cache alike — and the prefetch/pool accounting stays exact
/// (corrupt fills retire as wasted, buffers all return).
#[test]
fn corrupted_chunks_are_detected_not_returned() {
    for window in [0usize, 4] {
        let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let fs = Crfs::mount(
            be.clone() as Arc<dyn Backend>,
            small_config()
                .with_codec(CodecKind::Lz)
                .with_read_ahead(window),
        )
        .unwrap();
        let f = fs.create("/ckpt").unwrap();
        let data = transform_payload(6 * 1024);
        f.write(&data).unwrap();
        f.flush().unwrap();

        // Bit-flip every backend read payload from here on. The
        // guarantee is "never wrong bytes": a read either fails with
        // IntegrityError or returns the exact original data (a flip
        // can be semantically null, and then the checksum legitimately
        // passes) — and with every read corrupted, errors must occur.
        be.set_mode(FailureMode::CorruptReads(1));
        let mut buf = vec![0u8; data.len()];
        let mut saw_error = false;
        for _ in 0..4 {
            match f.read_at(0, &mut buf) {
                Ok(n) => {
                    assert_eq!(n, data.len(), "window {window}");
                    assert_eq!(buf, data, "window {window}: silent corruption");
                }
                Err(err) => {
                    assert!(
                        matches!(err, CrfsError::IntegrityError { .. }),
                        "window {window}: got {err:?}"
                    );
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "window {window}: corruption never detected");
        assert!(be.reads_corrupted() > 0, "the backend did corrupt reads");

        // Clean reads work again once the corruption stops — the
        // stored bytes were never damaged, only the wire.
        be.set_mode(FailureMode::None);
        assert_eq!(f.read_at(0, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data, "window {window}");
        f.close().unwrap();

        let s = fs.stats();
        assert!(
            s.integrity_failures > 0,
            "window {window}: failures counted"
        );
        // The prefetch ledger balances and nothing leaks: corrupt
        // fills retire as wasted prefetches with their buffers back.
        assert_eq!(s.prefetch_issued, s.prefetch_completed, "window {window}");
        assert_eq!(
            s.pool_free_chunks, s.pool_total_chunks,
            "window {window}: corrupt fills must not leak buffers"
        );
        if window > 0 {
            assert!(
                s.prefetch_wasted > 0,
                "window {window}: corrupt prefetch fills retire as wasted"
            );
        }
        fs.unmount().unwrap();
    }
}

/// A store written before the payload digest — frame format 0, whose
/// `payload_check` is an FNV-1a-64 — is a *detected* error: its frames
/// still scan (lengths, listings and fsck walks work), but no payload
/// of it is served, re-verified with FNV, or mistaken for a checksum
/// mismatch. Built by hand here: a frame log with a DATA frame, a
/// content-store chunk file, and a log whose REF frame points at it.
#[test]
fn pre_digest_store_reads_as_integrity_error_never_as_bytes() {
    use crfs::core::fsck::{self, FsckOptions};
    use crfs::core::snapshot::CAS_DIR;
    use crfs::core::transform::codec::STORED_RAW;
    use crfs::core::transform::frame::{fnv1a64, FrameHeader, FLAG_REF, FRAME_FORMAT};

    let payload = transform_payload(1024);
    let frame = |flags: u8, format: u8, body: &[u8]| {
        let header = FrameHeader {
            codec: STORED_RAW,
            flags,
            format,
            logical_offset: 0,
            logical_len: payload.len() as u32,
            stored_len: body.len() as u32,
            payload_check: fnv1a64(&payload),
        };
        let mut bytes = header.encode().to_vec();
        bytes.extend_from_slice(body);
        bytes
    };
    let cas = format!("{CAS_DIR}/{:032x}-{:x}", 0xfeed_u128, payload.len());
    let mut reference = Vec::new();
    reference.extend_from_slice(&0u64.to_le_bytes()); // origin frame offset
    reference.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    reference.extend_from_slice(&[STORED_RAW, 0, 0, 0]);
    reference.extend_from_slice(cas.as_bytes());

    let be: Arc<dyn Backend> = Arc::new(MemBackend::new());
    be.mkdir("/.crfs-snap").unwrap();
    be.mkdir(CAS_DIR).unwrap();
    let put = |path: &str, bytes: &[u8]| {
        let f = be.open(path, OpenOptions::create_truncate()).unwrap();
        f.write_at(0, bytes).unwrap();
    };
    put("/old.log", &frame(0, 0, &payload));
    put(&cas, &frame(0, 0, &payload));
    put("/old-ref.log", &frame(FLAG_REF, 0, &reference));
    // The same bytes under this build's format byte: the FNV value is
    // then simply a wrong check. There is no FNV fallback to pass it.
    put("/relabelled.log", &frame(0, FRAME_FORMAT, &payload));

    for window in [0usize, 4] {
        let fs = Crfs::mount(
            Arc::clone(&be),
            small_config()
                .with_codec(CodecKind::Lz)
                .with_dedup(true)
                .with_read_ahead(window),
        )
        .unwrap();
        for path in ["/old.log", "/old-ref.log", "/relabelled.log"] {
            assert_eq!(
                fs.file_len(path).unwrap(),
                payload.len() as u64,
                "{path}: the frame chain still scans"
            );
            let f = fs.open(path).unwrap();
            let mut buf = vec![0xAAu8; payload.len()];
            let err = f.read_at(0, &mut buf).unwrap_err();
            assert!(
                matches!(err, CrfsError::IntegrityError { .. }),
                "{path}, window {window}: got {err:?}"
            );
            if path != "/relabelled.log" {
                assert!(
                    err.to_string().contains("frame format 0"),
                    "{path}: the error says why: {err}"
                );
            }
            assert!(
                buf.iter().all(|&b| b == 0xAA),
                "{path}, window {window}: bytes were returned"
            );
            f.close().unwrap();
        }
        let s = fs.stats();
        assert!(s.bad_payload_checksum >= 3, "window {window}: counted");
        assert_eq!(s.pool_free_chunks, s.pool_total_chunks, "window {window}");
        fs.unmount().unwrap();
    }

    // fsck names all four files, with or without payload verification:
    // the format is in the header.
    for verify_payloads in [true, false] {
        let sum = fsck::run(
            &be,
            &["/".to_string()],
            &FsckOptions {
                verify_payloads,
                ..FsckOptions::default()
            },
        );
        let pre_digest = 3; // old.log, old-ref.log, the CAS file
        let relabelled = u64::from(verify_payloads);
        assert_eq!(
            sum.damage.bad_payload_checksum,
            pre_digest + relabelled,
            "verify_payloads={verify_payloads}: {:?}",
            sum.reports
        );
        assert_eq!(sum.damage.torn_tails + sum.damage.bad_header_crc, 0);
    }
}

// ---------------------------------------------------------------------
// Crash consistency: torn writes and power cuts (DESIGN.md §6)
// ---------------------------------------------------------------------

/// A power cut mid-checkpoint, then "power back on": the reopened file
/// serves a frame-granular prefix of the written data, byte for byte,
/// with the flush-acked bytes guaranteed present and the torn tail
/// discarded — never a wrong byte.
#[test]
fn power_cut_recovery_serves_acked_prefix_only() {
    let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
    // One io thread keeps frame order equal to logical order, so the
    // surviving frame prefix is a data prefix.
    let config = small_config().with_io_threads(1).with_codec(CodecKind::Lz);
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).unwrap();
    let f = fs.create("/ckpt").unwrap();
    let data = transform_payload(8 * 1024);
    // The first four chunks are flush-acked: the recovery contract says
    // they must survive the crash.
    f.write(&data[..4096]).unwrap();
    f.flush().unwrap();

    // Power cut: the budget dies inside one of the remaining frames.
    be.set_mode(FailureMode::PowerCutAfterBytes(50));
    f.write(&data[4096..]).unwrap();
    let err = f.close().unwrap_err();
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");
    assert!(be.is_dead(), "the crash killed the backend");
    let _ = fs.unmount(); // may re-report the deferred error

    // Remount after the outage: open-scan keeps the clean frame prefix.
    be.revive();
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config).unwrap();
    let f = fs.open("/ckpt").unwrap();
    let len = f.len().unwrap() as usize;
    assert!(len >= 4096, "flush-acked bytes lost: {len}");
    assert!(len <= data.len());
    assert_eq!(len % 1024, 0, "recovery is frame-granular: {len}");
    let mut got = vec![0u8; len];
    assert_eq!(f.read_at(0, &mut got).unwrap(), len);
    assert_eq!(got, data[..len], "restart served wrong bytes");
    f.close().unwrap();
    fs.unmount().unwrap();
}

/// A write torn seven bytes into its frame header leaves stray bytes no
/// scan can mistake for a frame: reopen discards exactly that tail,
/// counts it in the mount stats, and a write on the recovered handle
/// makes the chain permanently clean again (the deferred trim).
#[test]
fn torn_header_is_discarded_counted_and_healed_by_next_write() {
    let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
    let config = small_config().with_io_threads(1).with_codec(CodecKind::Lz);
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).unwrap();
    let f = fs.create("/ckpt").unwrap();
    let data = transform_payload(3 * 1024);
    f.write(&data).unwrap();
    f.flush().unwrap();
    let clean_stored = be.inner().contents("/ckpt").unwrap().len();

    // Tear the very next write 7 bytes in: a torn frame header. `op`
    // is an absolute index into the mount's op stream, so anchor it on
    // the ops already issued.
    be.set_mode(FailureMode::TornWriteAt {
        op: be.writes_seen(),
        byte: 7,
    });
    f.write(&data[..1024]).unwrap();
    assert!(f.close().is_err());
    let _ = fs.unmount();
    assert_eq!(
        be.inner().contents("/ckpt").unwrap().len(),
        clean_stored + 7,
        "exactly the torn prefix landed"
    );

    be.revive();
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config.clone()).unwrap();
    let f = fs.open("/ckpt").unwrap();
    assert_eq!(f.len().unwrap(), data.len() as u64);
    let mut got = vec![0u8; data.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(got, data);
    assert_eq!(
        fs.stats().torn_tails,
        1,
        "the discarded tail is counted in the mount stats"
    );

    // Writing through the recovered handle trims the stale tail before
    // the first new frame, so a rescan finds a clean chain.
    f.write_at(data.len() as u64, &data[..1024]).unwrap();
    f.close().unwrap();
    fs.unmount().unwrap();
    let fs = Crfs::mount(be as Arc<dyn Backend>, config).unwrap();
    assert_eq!(fs.stats().torn_tails, 0, "healed log must rescan clean");
    let f = fs.open("/ckpt").unwrap();
    assert_eq!(f.len().unwrap() as usize, data.len() + 1024);
    f.close().unwrap();
    fs.unmount().unwrap();
}

use crfs::storage::{RpcStore, RpcStoreParams};
use std::time::{Duration, Instant};

/// `set_mode` applies to subsequently *issued* ops only: flipping the
/// backend to a failing mode while acks sit in the RPC store's deadline
/// heap must not retroactively fail them — the in-flight window drains
/// clean, and only ops issued after the flip fail.
#[test]
fn set_mode_mid_flight_spares_in_flight_acks() {
    let store = Arc::new(RpcStore::new(
        FaultyBackend::new(MemBackend::new(), FailureMode::None),
        RpcStoreParams {
            read_rtt: Duration::ZERO,
            // A long ack delay: data lands in the wrapped backend at
            // issue time, acks stay queued in the deadline heap.
            write_rtt: Duration::from_millis(80),
            bandwidth: 4 << 30,
        },
    ));
    let fs = Crfs::mount(store.clone() as Arc<dyn Backend>, small_config()).unwrap();
    let f = fs.create("/inflight").unwrap();
    let data = vec![0xA5u8; 4096];
    f.write(&data).unwrap();

    // Wait until every chunk has been *issued* (landed in the wrapped
    // backend) — the acks are still ~80 ms out.
    let t0 = Instant::now();
    while store.inner().writes_seen() < 4 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "issue never drained"
        );
        std::thread::yield_now();
    }
    // Flip mid-flight: from now on every issued write fails.
    store.inner().set_mode(FailureMode::FailWritesAfter(0));

    // The in-flight window must drain clean at the barrier.
    f.flush()
        .expect("in-flight acks must not be failed retroactively");
    f.close().unwrap();
    assert_eq!(
        store.inner().inner().contents("/inflight").unwrap(),
        data,
        "issued-before-flip data is intact"
    );

    // Ops issued after the flip observe the new mode.
    let g = fs.create("/after").unwrap();
    g.write(&vec![1u8; 2048]).unwrap();
    assert!(g.close().is_err(), "post-flip writes must fail");
    let _ = fs.unmount();
}

/// Crash during GC's reclaim pass: the n-th content-store unlink fails
/// and the backend dies mid-sweep (a power cut halfway through
/// reclamation). The invariant is one-sided — GC may leave garbage
/// behind, but it must NEVER free a chunk reachable from a retained
/// manifest. After revive + remount, every retained epoch must still
/// restart byte-exactly, and a rerun of the (idempotent) GC must
/// finish the interrupted reclaim.
#[test]
fn gc_killed_mid_reclaim_never_frees_reachable_chunks() {
    use crfs::core::CodecKind;

    const CHUNK: usize = 1024;
    const CHUNKS: usize = 4;
    const KEEP: usize = 1;
    const EPOCHS: usize = 3;
    // Chunk contents for `epoch`: chunk 0 is epoch-independent (shared
    // across every manifest via dedup — the chunk a buggy sweep is most
    // tempted to free once its older referents retire), the rest are
    // rewritten fresh each epoch.
    let payload = |epoch: usize, idx: usize| -> Vec<u8> {
        let salt = if idx == 0 { 0 } else { epoch as u8 + 1 };
        (0..CHUNK)
            .map(|j| {
                (idx as u8)
                    .wrapping_mul(31)
                    .wrapping_add(salt.wrapping_mul(97))
                    .wrapping_add((j % 13) as u8)
            })
            .collect()
    };
    let config = || {
        small_config()
            .with_codec(CodecKind::Lz)
            .with_dedup(true)
            .with_snapshots(true)
            .with_snapshot_keep_epochs(KEEP)
    };

    // Kill the first unlink, and one mid-pass: both must uphold the
    // reachability invariant.
    for kill_after in [0u64, 2] {
        let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config()).unwrap();
        for epoch in 0..EPOCHS {
            let f = fs.create("/rank.img").unwrap();
            for idx in 0..CHUNKS {
                f.write(&payload(epoch, idx)).unwrap();
            }
            f.close().unwrap();
            fs.advance_epoch().unwrap();
        }
        // Epochs 0..EPOCHS-KEEP retired at seal; their exclusive chunks
        // are unreferenced now, so the sweep has real victims.
        be.set_mode(FailureMode::FailUnlinksAfter(kill_after));
        let err = fs.snapshot_gc();
        assert!(err.is_err(), "sweep must fail fast when an unlink dies");
        be.revive();
        be.set_mode(FailureMode::None);
        fs.unmount().unwrap();

        // Remount over the half-reclaimed store.
        let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config()).unwrap();
        let retained = fs.snapshot_epochs();
        assert_eq!(retained, vec![(EPOCHS - KEEP) as u64], "retention window");
        for &epoch in &retained {
            let view = fs.open_restart("/rank.img", epoch).unwrap();
            let mut got = vec![0u8; CHUNK];
            for idx in 0..CHUNKS {
                let n = view.read_at(idx as u64 * CHUNK as u64, &mut got).unwrap();
                assert_eq!(
                    n, CHUNK,
                    "kill_after={kill_after} epoch {epoch} chunk {idx}"
                );
                assert_eq!(
                    got,
                    payload(epoch as usize, idx),
                    "kill_after={kill_after} epoch {epoch} chunk {idx} bytes"
                );
            }
            view.close().unwrap();
        }
        // The rerun finishes the interrupted reclaim; a third pass
        // finds nothing — the sweep is idempotent over a torn one.
        fs.snapshot_gc().unwrap();
        let report = fs.snapshot_gc().unwrap();
        assert_eq!(report.reclaimed_chunks, 0, "kill_after={kill_after}");
        assert_eq!(fs.stats().integrity_failures, 0);
        fs.unmount().unwrap();
    }
}
