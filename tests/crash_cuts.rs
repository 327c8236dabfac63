//! One crash oracle, every write cut.
//!
//! A small checkpoint (three files of six chunks) is written once clean
//! to count the write ops that reach the faulty backend, then again once
//! per op with that op torn by `FailureMode::TornWriteAt`: nothing of it
//! lands, part of a frame header, or part of a frame payload. Two stacks:
//!
//! - a framed `lz` mount over `FaultyBackend(Mem)` with one IO thread,
//!   so the frame log is written in logical order;
//! - `Tiered(Mem, FaultyBackend(Mem))`, where the cut hits the drain to
//!   the durable tier.
//!
//! After the power comes back every cut must meet the same oracle:
//!
//! - `fsck --repair` (`run`, or `run_tiered` for the tiered stack)
//!   leaves nothing unrepaired and a second dry run finds nothing;
//! - a fresh mount (of the durable tier alone, for the tiered stack)
//!   serves every byte of each file whose `close` returned `Ok`;
//! - any other file serves a chunk-granular, byte-exact prefix, or a
//!   detected error, never a wrong byte;
//! - on the tiered stack, the epoch barrier succeeds exactly when no cut
//!   fired, and then the two tiers are byte-identical.

use std::sync::Arc;

use crfs::core::backend::{Backend, FailureMode, FaultyBackend, MemBackend, TieredBackend};
use crfs::core::fsck::{self, FsckOptions, FsckSummary};
use crfs::core::transform::frame::FRAME_HEADER_LEN;
use crfs::core::{CodecKind, Crfs, CrfsConfig};

const CHUNK: usize = 4 << 10;
const FILES: usize = 3;
const CHUNKS: u64 = 6;

/// Bytes of the torn op that land: none (the cut falls on the op
/// boundary), half a frame header, and a header plus part of a payload.
/// `TornWriteAt` clamps them to the write's length.
const TORN_BYTES: [u64; 3] = [0, FRAME_HEADER_LEN / 2, FRAME_HEADER_LEN + 100];

fn config() -> CrfsConfig {
    CrfsConfig::default()
        .with_chunk_size(CHUNK)
        .with_pool_size(8 * CHUNK)
        .with_io_threads(1)
        .with_codec(CodecKind::Lz)
}

fn path(file: usize) -> String {
    format!("/ckpt/rank{file}.img")
}

/// Chunk `idx` of `file`: runs the codec can shorten, interleaved with
/// pseudo-random bytes seeded by the chunk's identity, so every chunk
/// of every file differs and a frame still stores thousands of bytes.
fn payload(file: usize, idx: u64) -> Vec<u8> {
    let mut x = ((file as u64) << 32 | idx).wrapping_add(0x9e37_79b9_7f4a_7c15);
    (0..CHUNK)
        .map(|i| {
            if i % 256 < 96 {
                (i / 256 + file) as u8
            } else {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            }
        })
        .collect()
}

/// Writes the checkpoint through `fs`, tolerating a dead backend.
/// Returns, per file, whether its `close` returned `Ok`.
fn checkpoint(fs: &Arc<Crfs>) -> Vec<bool> {
    fs.mkdir_all("/ckpt").expect("mkdir before any write");
    (0..FILES)
        .map(|file| {
            let Ok(f) = fs.create(&path(file)) else {
                return false;
            };
            for idx in 0..CHUNKS {
                let _ = f.write(&payload(file, idx));
            }
            f.close().is_ok()
        })
        .collect()
}

/// A repair sweep leaves nothing unrepaired and a dry run after it
/// finds no damage.
fn assert_repairs_clean(sweep: impl Fn(&FsckOptions) -> FsckSummary, label: &str) {
    let repair = sweep(&FsckOptions {
        repair: true,
        threads: 1,
        ..FsckOptions::default()
    });
    assert!(repair.is_clean(), "{label}: repair {:?}", repair.reports);
    let rescan = sweep(&FsckOptions::default());
    assert!(
        rescan.damage.is_clean(),
        "{label}: after repair {:?}",
        rescan.damage
    );
}

/// A fresh mount of `backend` serves each acked file whole, and every
/// other file as a chunk-granular, byte-exact prefix or an error.
fn assert_restart_exact(backend: Arc<dyn Backend>, acked: &[bool], label: &str) {
    let fs = Crfs::mount(backend, config()).expect("remount");
    for (file, &acked) in acked.iter().enumerate() {
        let label = format!("{label}, file {file}");
        let f = match fs.open(&path(file)) {
            Ok(f) => f,
            Err(e) => {
                assert!(!acked, "{label}: acked file does not open: {e}");
                continue;
            }
        };
        let len = f.len().expect("logical length");
        if acked {
            assert_eq!(len, CHUNKS * CHUNK as u64, "{label}: acked length");
        } else {
            assert!(
                len % CHUNK as u64 == 0 && len <= CHUNKS * CHUNK as u64,
                "{label}: {len} bytes is not a chunk-granular prefix"
            );
        }
        let mut got = vec![0u8; CHUNK];
        for idx in 0..len / CHUNK as u64 {
            match f.read_at(idx * CHUNK as u64, &mut got) {
                Ok(n) => assert!(
                    n == CHUNK && got == payload(file, idx),
                    "{label}: chunk {idx} served wrong bytes"
                ),
                Err(e) => assert!(!acked, "{label}: acked chunk {idx} unreadable: {e}"),
            }
        }
        let _ = f.close();
    }
    fs.unmount().expect("unmount");
}

fn roots() -> [String; 1] {
    ["/ckpt".to_string()]
}

#[test]
fn framed_log_cut_at_every_write_repairs_and_restarts_exact() {
    let ops = {
        let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let fs = Crfs::mount(Arc::clone(&faulty) as Arc<dyn Backend>, config()).unwrap();
        assert_eq!(checkpoint(&fs), [true; FILES]);
        fs.unmount().unwrap();
        faulty.writes_seen()
    };
    assert!(ops >= FILES as u64 * CHUNKS, "{ops} write ops");

    for op in 0..ops {
        for byte in TORN_BYTES {
            let label = format!("framed op {op} byte {byte}");
            let faulty = Arc::new(FaultyBackend::new(
                MemBackend::new(),
                FailureMode::TornWriteAt { op, byte },
            ));
            let backend: Arc<dyn Backend> = Arc::clone(&faulty) as Arc<dyn Backend>;
            let fs = Crfs::mount(Arc::clone(&backend), config()).unwrap();
            let acked = checkpoint(&fs);
            let _ = fs.unmount();
            assert!(faulty.is_dead(), "{label}: the cut never fired");
            faulty.revive();

            assert_repairs_clean(|opts| fsck::run(&backend, &roots(), opts), &label);
            assert_restart_exact(backend, &acked, &label);
        }
    }
}

#[test]
fn tiered_drain_cut_at_every_write_repairs_and_restarts_exact_from_the_durable_tier() {
    type Durable = FaultyBackend<MemBackend>;
    // One checkpoint and its epoch barrier on a fresh stack; the stack
    // is dropped (its drain workers joined) before the tiers come back.
    let run = |mode: FailureMode| -> (Arc<MemBackend>, Arc<Durable>, Vec<bool>, bool) {
        let fast = Arc::new(MemBackend::new());
        let durable = Arc::new(FaultyBackend::new(MemBackend::new(), mode));
        let tiered = TieredBackend::from_config(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            &config(),
        );
        let fs = Crfs::mount(Arc::new(tiered), config()).unwrap();
        let acked = checkpoint(&fs);
        let barrier = fs.advance_epoch().is_ok();
        let _ = fs.unmount();
        (fast, durable, acked, barrier)
    };

    let ops = {
        let (_, durable, acked, barrier) = run(FailureMode::None);
        assert!(barrier && acked == [true; FILES]);
        durable.writes_seen()
    };
    assert!(ops >= FILES as u64, "{ops} drain writes");

    let mut cuts = 0;
    for op in 0..ops {
        for byte in TORN_BYTES {
            let label = format!("tiered op {op} byte {byte}");
            let (fast, durable, acked, barrier) = run(FailureMode::TornWriteAt { op, byte });
            let cut = durable.is_dead();
            assert_eq!(barrier, !cut, "{label}: barrier ok iff nothing was cut");
            durable.revive();
            if !cut {
                // The drain coalesced into fewer writes this time.
                for file in 0..FILES {
                    assert!(
                        fast.contents(&path(file)).unwrap()
                            == durable.inner().contents(&path(file)).unwrap(),
                        "{label}: tiers differ on file {file}"
                    );
                }
            }

            let fast: Arc<dyn Backend> = fast;
            let durable: Arc<dyn Backend> = durable;
            assert_repairs_clean(
                |opts| fsck::run_tiered(&fast, &durable, &roots(), opts),
                &label,
            );
            assert_restart_exact(durable, &acked, &label);
            cuts += usize::from(cut);
        }
    }
    assert!(cuts as u64 >= ops, "{cuts} of {} cuts fired", 3 * ops);
}
