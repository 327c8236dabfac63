//! Shape acceptance criteria from DESIGN.md §4: the simulated experiments
//! must reproduce the *qualitative* results of the paper — who wins, by
//! roughly what factor, and where the crossovers fall. Absolute seconds
//! are not asserted (our substrate is a calibrated model, not the
//! authors' testbed).
//!
//! Most checks run at reduced node counts / full per-node intensity so
//! the suite stays fast; the `full_scale_*` tests run the paper geometry
//! and are `#[ignore]`d by default (the bench harness exercises them).

use crfs::sim::experiment::{run_checkpoint, CheckpointSpec};
use crfs::sim::{BackendKind, LuClass, MpiStack};

fn spec(
    class: LuClass,
    backend: BackendKind,
    use_crfs: bool,
    nodes: usize,
    ppn: usize,
    scale: f64,
) -> CheckpointSpec {
    let mut s = CheckpointSpec::new(MpiStack::Mvapich2, class, backend, use_crfs);
    s.nodes = nodes;
    s.procs_per_node = ppn;
    s.scale = scale;
    s.seed = 99;
    s
}

/// CRFS must be ≥2x faster than native for small/medium checkpoints on
/// ext3 and Lustre (paper: 3.2–9.3x).
#[test]
fn crfs_wins_big_on_ext3_and_lustre_small_classes() {
    for backend in [BackendKind::Ext3, BackendKind::Lustre] {
        for class in [LuClass::B, LuClass::C] {
            let native = run_checkpoint(&spec(class, backend, false, 4, 8, 0.5));
            let crfs = run_checkpoint(&spec(class, backend, true, 4, 8, 0.5));
            let speedup = native.mean_time / crfs.mean_time;
            assert!(
                speedup >= 2.0,
                "{} {}: speedup {speedup:.2} (native {:.2}s, crfs {:.2}s)",
                backend.name(),
                class.name(),
                native.mean_time,
                crfs.mean_time
            );
        }
    }
}

/// NFS: CRFS clearly helps for small/medium classes (paper: 2.1–3.4x for
/// MVAPICH2).
#[test]
fn crfs_helps_nfs_small_classes() {
    let native = run_checkpoint(&spec(LuClass::B, BackendKind::Nfs, false, 4, 8, 0.4));
    let crfs = run_checkpoint(&spec(LuClass::B, BackendKind::Nfs, true, 4, 8, 0.4));
    let speedup = native.mean_time / crfs.mean_time;
    assert!(
        speedup >= 1.5,
        "nfs B: speedup {speedup:.2} (native {:.2}s, crfs {:.2}s)",
        native.mean_time,
        crfs.mean_time
    );
}

/// The multiplexing effect (Fig. 9): CRFS's benefit grows with
/// processes-per-node, and is small at 1 ppn.
#[test]
fn multiplexing_shape() {
    let reduction = |ppn: usize| {
        let native = run_checkpoint(&spec(LuClass::D, BackendKind::Lustre, false, 4, ppn, 0.12));
        let crfs = run_checkpoint(&spec(LuClass::D, BackendKind::Lustre, true, 4, ppn, 0.12));
        100.0 * (native.mean_time - crfs.mean_time) / native.mean_time
    };
    let r1 = reduction(1);
    let r8 = reduction(8);
    assert!(
        r8 > r1 + 5.0,
        "benefit must grow with multiplexing: 1ppn {r1:.1}% vs 8ppn {r8:.1}%"
    );
    assert!(r1 < 25.0, "little concurrency to remove at 1 ppn: {r1:.1}%");
    assert!(r8 > 15.0, "substantial benefit at 8 ppn: {r8:.1}%");
}

/// Completion-time variance (Figs. 3/11): native spread is wide (the
/// paper shows ~2x slowest/fastest); CRFS collapses it by ≥3x.
#[test]
fn variance_collapse_shape() {
    let mut sn = spec(LuClass::C, BackendKind::Ext3, false, 4, 8, 0.5);
    sn.record_curves = true;
    let mut sc = sn.clone();
    sc.use_crfs = true;
    let native = run_checkpoint(&sn);
    let crfs = run_checkpoint(&sc);
    let shrink = native.spread.spread() / crfs.spread.spread().max(1e-9);
    assert!(
        shrink >= 3.0,
        "spread should collapse ≥3x: native {:.3}s vs crfs {:.3}s",
        native.spread.spread(),
        crfs.spread.spread()
    );
    assert!(
        native.spread.max / native.spread.min > 1.3,
        "native runs must show real dispersion ({:.2}x)",
        native.spread.max / native.spread.min
    );
}

/// Table I shape: the medium band dominates time while carrying little
/// data; large writes carry most data at modest time share.
#[test]
fn table1_shape() {
    let mut s = spec(LuClass::C, BackendKind::Ext3, false, 4, 8, 0.5);
    s.record_profile = true;
    let r = run_checkpoint(&s);
    let profile = r.profile.expect("profile").profile();
    let medium = profile.band("4K-16K").expect("band");
    let huge = profile.band("> 1M").expect("band");
    let tiny = profile.band("0-64").expect("band");

    assert!(
        medium.pct_time > 25.0,
        "medium writes dominate time: {:.1}%",
        medium.pct_time
    );
    assert!(
        medium.pct_data < 20.0,
        "...while carrying little data: {:.1}%",
        medium.pct_data
    );
    assert!(
        huge.pct_data > 45.0,
        "large writes carry the bulk: {:.1}%",
        huge.pct_data
    );
    assert!(
        tiny.pct_time < 5.0,
        "tiny writes are absorbed cheaply: {:.1}%",
        tiny.pct_time
    );
}

/// Fig. 10 shape: CRFS makes node-0 disk traffic dramatically more
/// sequential.
#[test]
fn blocktrace_shape() {
    let mut sn = spec(LuClass::C, BackendKind::Ext3, false, 2, 8, 0.6);
    sn.trace_disk = true;
    let mut sc = sn.clone();
    sc.use_crfs = true;
    let native = run_checkpoint(&sn);
    let crfs = run_checkpoint(&sc);
    let ns = native.node0_trace.expect("trace").summary();
    let cs = crfs.node0_trace.expect("trace").summary();
    assert!(ns.requests > 0 && cs.requests > 0, "traces non-empty");
    assert!(
        cs.sequential_fraction > ns.sequential_fraction + 0.2,
        "CRFS sequentiality {:.2} must beat native {:.2}",
        cs.sequential_fraction,
        ns.sequential_fraction
    );
}

/// Determinism across identical specs (the simulator's core guarantee).
#[test]
fn simulation_is_deterministic() {
    let a = run_checkpoint(&spec(LuClass::B, BackendKind::Lustre, true, 2, 4, 0.3));
    let b = run_checkpoint(&spec(LuClass::B, BackendKind::Lustre, true, 2, 4, 0.3));
    assert_eq!(a.per_process, b.per_process);
}

/// PVFS2 extension shape (`exp pvfs`): CRFS helps, but less than on
/// Lustre — PVFS2's native path already pays a FUSE-like upcall per
/// request, so the win is bounded by the crossing-cost ratio.
#[test]
fn pvfs_speedup_positive_but_modest() {
    let native = run_checkpoint(&spec(LuClass::C, BackendKind::Pvfs, false, 4, 8, 0.5));
    let crfs = run_checkpoint(&spec(LuClass::C, BackendKind::Pvfs, true, 4, 8, 0.5));
    let speedup = native.mean_time / crfs.mean_time;
    assert!(
        (1.05..3.5).contains(&speedup),
        "pvfs speedup should be modest: {speedup:.2}x \
         (native {:.2}s, crfs {:.2}s)",
        native.mean_time,
        crfs.mean_time
    );
}

// ---------------------------------------------------------------------
// Hot-path stats invariants (real library): the hot-path counters must
// balance after any workload.
// ---------------------------------------------------------------------

/// Runs a concurrent multi-file workload on the real library and asserts
/// every invariant of the new instrumentation: submission batching,
/// shard-contention counting, and the pool occupancy gauge.
#[test]
fn hot_path_stats_invariants_hold() {
    use crfs::core::backend::MemBackend;
    use crfs::core::{Crfs, CrfsConfig};
    use std::sync::Arc;

    // Pool sized above peak demand (8 writers x up to 5 buffers
    // each), so batches are never split by early flushes on pool
    // exhaustion and the avg_batch_len assertion below is
    // scheduling-independent.
    let config = CrfsConfig::default()
        .with_chunk_size(1024)
        .with_pool_size(64 << 10)
        .with_io_threads(4)
        .with_submit_batch(8);
    let fs = Crfs::mount(Arc::new(MemBackend::new()), config.clone()).expect("mount");
    std::thread::scope(|s| {
        for w in 0..8 {
            let fs = &fs;
            s.spawn(move || {
                let f = fs.create(&format!("/inv{w}")).expect("create");
                for _ in 0..20 {
                    // 4-chunk writes: submission is genuinely batched.
                    f.write(&vec![w as u8; 4 * 1024]).expect("write");
                }
                f.close().expect("close");
            });
        }
    });
    let snap = fs.stats();

    // Chunk ledger balances.
    assert_eq!(snap.chunks_sealed, snap.chunks_completed);
    assert_eq!(
        snap.backend_writes, snap.chunks_completed,
        "one backend op per completed chunk"
    );
    assert_eq!(
        snap.chunks_sealed,
        snap.chunks_completed + snap.chunks_refused,
        "seal ledger covers completions and refusals"
    );

    // In-flight gauge and completion-reap ledger: quiescent at the
    // barrier, every completed chunk retired through a reap, and
    // the workload genuinely had ops in flight at some point.
    assert_eq!(
        snap.ops_inflight, 0,
        "submitted == completed + inflight at unmount"
    );
    assert_eq!(
        snap.completion_reaped, snap.chunks_completed,
        "every completion passed through a reap"
    );
    assert!(snap.inflight_hwm >= 1, "high-water mark never moved");
    assert!(
        snap.avg_reap_len() >= 1.0,
        "avg reap {:.2}",
        snap.avg_reap_len()
    );

    // Submission batching: at least one call per write-with-seals is
    // unavoidable, but never more than one call per sealed chunk —
    // and with 4-chunk writes batching must actually engage.
    assert!(snap.engine_submits > 0);
    assert!(
        snap.engine_submits <= snap.chunks_sealed,
        "{} submits for {} chunks",
        snap.engine_submits,
        snap.chunks_sealed
    );
    assert!(
        snap.avg_batch_len() >= 1.0,
        "avg batch {:.2}",
        snap.avg_batch_len()
    );
    assert!(
        snap.avg_batch_len() > 1.5,
        "4-chunk writes should batch well above 1 \
         (got {:.2})",
        snap.avg_batch_len()
    );

    // Pool occupancy gauge: quiescent after the barrier, everything
    // free, totals as configured.
    assert_eq!(snap.pool_total_chunks as usize, config.pool_chunks());
    assert_eq!(
        snap.pool_free_chunks, snap.pool_total_chunks,
        "all buffers back after close barriers"
    );

    // Shard-contention counter is sane: it can only count lock
    // acquisitions that actually happened (open/close/lookup paths).
    let lock_touches = 2 * (snap.opens + snap.closes);
    assert!(
        snap.shard_lock_waits <= lock_touches,
        "{} waits for {} table touches",
        snap.shard_lock_waits,
        lock_touches
    );
    fs.unmount().expect("unmount");
}

/// The read-side twin of the invariants above: after a checkpoint +
/// restart workload, the prefetch ledger must balance, hit/miss
/// accounting must cover the bytes served, and no buffer may linger in
/// the cache — for both prefetch-on and -off.
#[test]
fn restart_read_stats_invariants_hold() {
    use crfs::core::backend::MemBackend;
    use crfs::core::{Crfs, CrfsConfig};
    use std::sync::Arc;

    for window in [0usize, 4] {
        let config = CrfsConfig::default()
            .with_chunk_size(2048)
            .with_pool_size(64 << 10)
            .with_io_threads(4)
            .with_read_ahead(window);
        let fs = Crfs::mount(Arc::new(MemBackend::new()), config).expect("mount");
        // Checkpoint...
        let total: usize = 48 << 10;
        let f = fs.create("/ckpt").expect("create");
        f.write(&vec![9u8; total]).expect("write");
        f.close().expect("close");
        // ...and restart, with concurrent readers.
        std::thread::scope(|s| {
            for _ in 0..3 {
                let fs = &fs;
                s.spawn(move || {
                    let g = fs.open("/ckpt").expect("open");
                    let mut buf = [0u8; 900];
                    let mut seen = 0usize;
                    loop {
                        let n = g.read(&mut buf).expect("read");
                        if n == 0 {
                            break;
                        }
                        assert!(buf[..n].iter().all(|&b| b == 9));
                        seen += n;
                    }
                    assert_eq!(seen, total);
                    g.close().expect("close");
                });
            }
        });
        let snap = fs.stats();

        // The read ledger balances and nothing leaks.
        assert_eq!(
            snap.prefetch_issued, snap.prefetch_completed,
            "w{window}: every issued prefetch retired"
        );
        assert!(snap.prefetch_wasted <= snap.prefetch_issued, "w{window}");
        assert_eq!(
            snap.pool_free_chunks, snap.pool_total_chunks,
            "w{window}: cached buffers all returned"
        );

        // Serving accounting: every byte came from a hit, a miss, or
        // the pass-through path; with the window off there is no
        // cache traffic at all, with it on the segment counts must
        // cover the reads.
        assert_eq!(snap.bytes_read, 3 * total as u64, "w{window}");
        assert!(snap.reads > 0, "w{window}");
        if window == 0 {
            assert_eq!(snap.read_hits + snap.read_misses, 0);
            assert_eq!(snap.prefetch_issued, 0);
        } else {
            assert!(
                snap.read_hits + snap.read_misses + snap.read_demand >= snap.reads,
                "chunk segments at least cover read calls \
                 ({} + {} + {} vs {})",
                snap.read_hits,
                snap.read_misses,
                snap.read_demand,
                snap.reads
            );
            assert!(snap.prefetch_issued > 0, "window never engaged");
        }
        // The write-side invariants still hold with reads in the mix.
        assert_eq!(snap.chunks_sealed, snap.chunks_completed);
        assert_eq!(snap.backend_writes, snap.chunks_completed);
        fs.unmount().expect("unmount");
    }
}

/// Transform-stage invariants: the byte ledger
/// (`bytes_out == bytes_stored ≤ bytes_logical` on compressible data),
/// dedup accounting, a clean path with zero integrity failures, and —
/// with injected read corruption — the shape tying `integrity_failures`
/// into the prefetch issued/completed ledger (corrupt fills retire as
/// wasted, never leak buffers, never hang the drain).
#[test]
fn transform_stats_invariants_hold() {
    use crfs::core::backend::{Backend, FailureMode, FaultyBackend, MemBackend};
    use crfs::core::{CodecKind, Crfs, CrfsConfig, CrfsError};
    use std::sync::Arc;

    let payload = |len: usize, idx: u64| -> Vec<u8> {
        (0..len)
            .map(|i| {
                if (i / 64) % 2 == 0 {
                    idx as u8
                } else {
                    (i % 29) as u8
                }
            })
            .collect()
    };

    let be = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
    let config = CrfsConfig::default()
        .with_chunk_size(2048)
        .with_pool_size(64 << 10)
        .with_io_threads(4)
        .with_codec(CodecKind::Lz)
        .with_dedup(true);
    let fs = Crfs::mount(be.clone() as Arc<dyn Backend>, config).expect("mount");
    // Two epochs, half the chunks identical across them.
    for epoch in 0..2u64 {
        let f = fs.create(&format!("/e{epoch}")).expect("create");
        for idx in 0..16u64 {
            let p = if idx % 2 == 0 {
                payload(2048, idx) // epoch-independent: dedups
            } else {
                payload(2048, idx * 100 + epoch + 1)
            };
            f.write(&p).expect("write");
        }
        f.close().expect("close");
        fs.advance_epoch().unwrap();
    }
    let clean = fs.stats();
    assert_eq!(clean.chunks_sealed, clean.chunks_completed);
    assert_eq!(clean.backend_writes, clean.chunks_completed);
    assert_eq!(clean.bytes_logical, 2 * 16 * 2048);
    assert_eq!(clean.bytes_out, clean.bytes_stored);
    assert!(
        clean.bytes_stored <= clean.bytes_logical,
        "compressible data must not inflate ({} > {})",
        clean.bytes_stored,
        clean.bytes_logical
    );
    assert!(clean.dedup_hits >= 8, "{} hits", clean.dedup_hits);
    assert_eq!(clean.integrity_failures, 0, "clean path");
    assert_eq!(
        clean.pool_free_chunks, clean.pool_total_chunks,
        "all buffers back"
    );

    // Corruption shape: flip bits on every backend read. The
    // guarantee is "never wrong bytes": each read either fails
    // with IntegrityError or returns the exact original data (a
    // flipped bit can be semantically null — e.g. an LZ match
    // distance shifting within a byte run — and then the checksum
    // legitimately passes). The prefetch ledger must still
    // balance, and every integrity-failed fill counts as wasted.
    // (Open first: the frame-map scan itself detects corrupt
    // headers.)
    let f = fs.open("/e0").expect("open");
    be.set_mode(FailureMode::CorruptReads(1));
    let mut buf = vec![0u8; 2048];
    let mut saw_error = false;
    for idx in 0..8u64 {
        match f.read_at(idx * 2048, &mut buf) {
            Ok(n) => {
                let want = if idx % 2 == 0 {
                    payload(2048, idx)
                } else {
                    payload(2048, idx * 100 + 1)
                };
                assert_eq!(n, 2048);
                assert_eq!(buf, want, "silent corruption at {idx}");
            }
            Err(err) => {
                assert!(matches!(err, CrfsError::IntegrityError { .. }), "{err:?}");
                saw_error = true;
            }
        }
    }
    assert!(saw_error, "bit flips on every read must trip");
    f.close().expect("close");
    let snap = fs.stats();
    assert!(snap.integrity_failures > 0);
    assert_eq!(
        snap.prefetch_issued, snap.prefetch_completed,
        "corrupt fills still retire on the ledger"
    );
    assert!(
        snap.prefetch_wasted >= snap.prefetch_issued.min(1),
        "integrity-failed fills count as wasted"
    );
    assert_eq!(
        snap.pool_free_chunks, snap.pool_total_chunks,
        "error path leaks no buffers"
    );
    fs.unmount().expect("unmount");
}

// ---------------------------------------------------------------------
// Full paper geometry (slow): run explicitly with `cargo test -- --ignored`
// ---------------------------------------------------------------------

/// Paper configuration for Fig. 6 ext3/Lustre class C: CRFS ≥3x.
#[test]
#[ignore = "full 128-process geometry; run with --ignored"]
fn full_scale_fig6_class_c() {
    for backend in [BackendKind::Ext3, BackendKind::Lustre] {
        let native = run_checkpoint(&spec(LuClass::C, backend, false, 16, 8, 1.0));
        let crfs = run_checkpoint(&spec(LuClass::C, backend, true, 16, 8, 1.0));
        let speedup = native.mean_time / crfs.mean_time;
        assert!(speedup >= 3.0, "{}: speedup {speedup:.2}", backend.name());
    }
}

/// Paper configuration for Fig. 9: reductions small at 1 ppn, ~20-45%
/// at 8 ppn, monotone-ish growth.
#[test]
#[ignore = "full 16-node class-D geometry; run with --ignored"]
fn full_scale_fig9() {
    let mut reds = Vec::new();
    for ppn in [1usize, 2, 4, 8] {
        let native = run_checkpoint(&spec(LuClass::D, BackendKind::Lustre, false, 16, ppn, 1.0));
        let crfs = run_checkpoint(&spec(LuClass::D, BackendKind::Lustre, true, 16, ppn, 1.0));
        reds.push(100.0 * (native.mean_time - crfs.mean_time) / native.mean_time);
    }
    assert!(reds[0] < 20.0, "1ppn: {:.1}%", reds[0]);
    assert!(
        reds[3] > 15.0 && reds[3] < 55.0,
        "8ppn: {:.1}% (paper: 29.6%)",
        reds[3]
    );
    assert!(
        reds[3] > reds[0],
        "benefit grows with multiplexing: {reds:?}"
    );
}
