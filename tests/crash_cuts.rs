//! One crash oracle, every write cut.
//!
//! A small checkpoint (three files of six chunks) is written once clean
//! to count the write ops that reach the faulty backend, then again once
//! per op with that op torn by `FailureMode::TornWriteAt`: nothing of it
//! lands, part of a frame header, or part of a frame payload. Three
//! stacks:
//!
//! - a framed `lz` mount over `FaultyBackend(Mem)` with one IO thread,
//!   so the frame log is written in logical order;
//! - `Tiered(Mem, FaultyBackend(Mem))`, where the cut hits the drain to
//!   the durable tier;
//! - the content store: the framed mount with dedup and snapshots, two
//!   checkpoints each sealed as an epoch, the second rewriting every
//!   other chunk — the cut hits a chunk file, a REF frame of a live log
//!   or a manifest;
//! - the content store over `Tiered(Mem, FaultyBackend(Mem))`, where the
//!   cut hits the drain of any of those to the durable tier.
//!
//! After the power comes back every cut must meet the same oracle:
//!
//! - `fsck --repair` (`run`, or `run_tiered` for the tiered stack) with
//!   the default payload checks leaves nothing unrepaired, and a second
//!   dry run finds nothing;
//! - a fresh mount (of the durable tier alone, for the tiered stack)
//!   serves every byte of each file whose last `close` returned `Ok`;
//! - any other file serves a chunk-granular, byte-exact prefix (each
//!   chunk from one of the images written), or a detected error, never
//!   a wrong byte;
//! - on the tiered stack, the epoch barrier succeeds exactly when no cut
//!   fired, and then the two tiers are byte-identical;
//! - on the content store, the sealed epochs are exactly those whose
//!   seal returned `Ok`, and each restarts byte-exact: a cut between the
//!   chunk syncs and the manifest leaves the previous epoch restartable
//!   (on the tiered content store, from the durable tier alone).
//!
//! A prefix cut keeps every write before it. A power cut keeps what was
//! synced and any subset of the rest (`MemBackend::crashing_after`, the
//! first step of a crash model built from what was synced): the tiered
//! content store's durable tier is cut at every step of two seals and
//! rebuilt from several seeded subsets, and every epoch whose barrier
//! returned `Ok` restarts byte-exact from it, while no durable manifest
//! names a missing or short chunk.
//!
//! Two more classes flip a bit in a chunk file's payload, where a crash
//! leaves the frame's structure whole: in a chunk a sealed manifest
//! names, a restart read returns an `IntegrityError` and never the
//! bytes, the default fsck leaves it to the seal (`trusted_payloads`)
//! and `Payloads::All` reports it; in a chunk written since the last
//! seal, the default fsck reports it.

use std::sync::Arc;

use crfs::core::backend::{
    Backend, FailureMode, FaultyBackend, MemBackend, OpenOptions, TieredBackend,
};
use crfs::core::fsck::{self, FsckOptions, FsckSummary, Payloads};
use crfs::core::snapshot::CAS_DIR;
use crfs::core::transform::frame::FRAME_HEADER_LEN;
use crfs::core::{CodecKind, Crfs, CrfsConfig, CrfsError};

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

/// The content-store stack's mount.
fn snap_config() -> CrfsConfig {
    config().with_dedup(true)
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

/// Chunk `idx` of `file` in checkpoint `image` (1 or 2): the second
/// rewrites every other chunk with bytes no other chunk holds.
fn image_payload(image: u64, file: usize, idx: u64) -> Vec<u8> {
    match image == 2 && idx % 2 == 1 {
        true => payload(file + FILES, idx),
        false => payload(file, idx),
    }
}

/// Writes checkpoint `image` through `fs`, tolerating a dead backend.
/// Returns, per file, whether its `close` returned `Ok`.
fn checkpoint(fs: &Arc<Crfs>, image: u64) -> Vec<bool> {
    if image == 1 {
        fs.mkdir_all("/ckpt").expect("mkdir before any write");
    }
    (0..FILES)
        .map(|file| {
            let Ok(f) = fs.create(&path(file)) else {
                return false;
            };
            for idx in 0..CHUNKS {
                let _ = f.write(&image_payload(image, file, idx));
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
    assert_live_files_exact(&fs, acked, &[1], label);
    fs.unmount().expect("unmount");
}

/// `fs` serves each file acked in the last of `images` whole, and every
/// other file as a chunk-granular, byte-exact prefix (each chunk from
/// one of `images`) or an error.
fn assert_live_files_exact(fs: &Arc<Crfs>, acked: &[bool], images: &[u64], label: &str) {
    let last = *images.last().expect("an image");
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
                    n == CHUNK
                        && match acked {
                            true => got == image_payload(last, file, idx),
                            false => images.iter().any(|&i| got == image_payload(i, file, idx)),
                        },
                    "{label}: chunk {idx} served wrong bytes"
                ),
                Err(e) => assert!(!acked, "{label}: acked chunk {idx} unreadable: {e}"),
            }
        }
        let _ = f.close();
    }
}

fn roots() -> [String; 1] {
    ["/ckpt".to_string()]
}

#[test]
fn framed_log_cut_at_every_write_repairs_and_restarts_exact() {
    let ops = {
        let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let fs = Crfs::mount(Arc::clone(&faulty) as Arc<dyn Backend>, config()).unwrap();
        assert_eq!(checkpoint(&fs, 1), [true; FILES]);
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
            let acked = checkpoint(&fs, 1);
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
        let acked = checkpoint(&fs, 1);
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

/// Two checkpoints on the content-store stack, each sealed as an epoch.
/// Returns, per checkpoint, which files were acked and whether the seal
/// returned `Ok`.
fn two_sealed_epochs(backend: &Arc<dyn Backend>) -> (Vec<Vec<bool>>, Vec<bool>) {
    let fs = Crfs::mount(Arc::clone(backend), snap_config()).unwrap();
    let (mut acked, mut sealed) = (Vec::new(), Vec::new());
    for image in 1..=2 {
        acked.push(checkpoint(&fs, image));
        sealed.push(fs.advance_epoch().is_ok());
    }
    let _ = fs.unmount();
    (acked, sealed)
}

/// The sealed epochs on `fs` are exactly those whose seal returned
/// `Ok`, and in epoch `e` each file restarts as the last checkpoint up
/// to `e + 1` that `acked` it, byte for byte.
fn assert_sealed_epochs_exact(fs: &Arc<Crfs>, sealed: &[bool], acked: &[Vec<bool>], label: &str) {
    let epochs: Vec<u64> = (0..sealed.len() as u64)
        .filter(|&e| sealed[e as usize])
        .collect();
    assert_eq!(fs.snapshot_epochs(), epochs, "{label}: sealed epochs");
    for epoch in epochs {
        let image = |file| (1..=epoch + 1).rev().find(|&i| acked[i as usize - 1][file]);
        assert_epoch_exact(
            fs,
            epoch,
            |file| image(file).expect("a sealed file was acked"),
            label,
        );
    }
}

/// Epoch `epoch` on `fs` restarts each file as checkpoint
/// `image(file)`, byte for byte.
fn assert_epoch_exact(fs: &Arc<Crfs>, epoch: u64, image: impl Fn(usize) -> u64, label: &str) {
    for file in 0..FILES {
        let f = fs.open_restart(&path(file), epoch).expect("restart view");
        let mut got = vec![0u8; CHUNK];
        for idx in 0..CHUNKS {
            let at = format!("{label}: epoch {epoch}, file {file}, chunk {idx}");
            let n = f.read_at(idx * CHUNK as u64, &mut got);
            let n = n.unwrap_or_else(|e| panic!("{at}: {e}"));
            assert!(
                n == CHUNK && got == image_payload(image(file), file, idx),
                "{at}: wrong bytes"
            );
        }
        f.close().unwrap();
    }
}

#[test]
fn content_store_cut_at_every_write_repairs_and_restarts_every_sealed_epoch() {
    let ops = {
        let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let (acked, sealed) = two_sealed_epochs(&(Arc::clone(&faulty) as Arc<dyn Backend>));
        assert_eq!((acked, sealed), (vec![vec![true; FILES]; 2], vec![true; 2]));
        faulty.writes_seen()
    };
    assert!(ops >= FILES as u64 * CHUNKS * 3 / 2, "{ops} write ops");

    let all = ["/".to_string()];
    for op in 0..ops {
        for byte in TORN_BYTES {
            let label = format!("content store op {op} byte {byte}");
            let faulty = Arc::new(FaultyBackend::new(
                MemBackend::new(),
                FailureMode::TornWriteAt { op, byte },
            ));
            let backend: Arc<dyn Backend> = Arc::clone(&faulty) as Arc<dyn Backend>;
            let (acked, sealed) = two_sealed_epochs(&backend);
            assert!(faulty.is_dead(), "{label}: the cut never fired");
            let whole = |e: usize| acked[e].iter().all(|&a| a);
            assert!(
                (0..2).all(|e| !sealed[e] || whole(e)),
                "{label}: sealed unacked"
            );
            faulty.revive();

            assert_repairs_clean(|opts| fsck::run(&backend, &all, opts), &label);
            let fs = Crfs::mount(backend, snap_config()).expect("remount");
            assert_live_files_exact(&fs, &acked[1], &[1, 2], &label);
            assert_sealed_epochs_exact(&fs, &sealed, &acked, &label);
            fs.unmount().expect("unmount");
        }
    }
}

/// Two checkpoints on the content store over `Tiered(Mem, durable)`,
/// each sealed as an epoch, then the stack dropped (its drain workers
/// joined). Returns the fast tier, per checkpoint which files were
/// acked and whether the epoch's barrier returned `Ok`, and the epochs
/// the mount sealed.
fn two_tiered_epochs(
    durable: Arc<dyn Backend>,
) -> (Arc<MemBackend>, Vec<Vec<bool>>, Vec<bool>, Vec<u64>) {
    let fast = Arc::new(MemBackend::new());
    let tiered = TieredBackend::from_config(
        Arc::clone(&fast) as Arc<dyn Backend>,
        durable,
        &snap_config(),
    );
    let fs = Crfs::mount(Arc::new(tiered), snap_config()).unwrap();
    let (mut acked, mut barriers) = (Vec::new(), Vec::new());
    for image in 1..=2 {
        acked.push(checkpoint(&fs, image));
        barriers.push(fs.advance_epoch().is_ok());
    }
    let sealed = fs.snapshot_epochs();
    let _ = fs.unmount();
    (fast, acked, barriers, sealed)
}

#[test]
fn tiered_content_store_cut_at_every_durable_write_restarts_every_sealed_epoch_from_the_durable_tier(
) {
    type Durable = FaultyBackend<MemBackend>;
    let faulty = |mode| Arc::new(Durable::new(MemBackend::new(), mode));
    let ops = {
        let durable = faulty(FailureMode::None);
        let (_, acked, barriers, sealed) = two_tiered_epochs(durable.clone());
        assert_eq!(
            (acked, barriers),
            (vec![vec![true; FILES]; 2], vec![true; 2])
        );
        assert_eq!(sealed, [0, 1]);
        durable.writes_seen()
    };
    assert!(ops >= FILES as u64 * CHUNKS * 3 / 2, "{ops} drain writes");

    let all = ["/".to_string()];
    for op in 0..ops {
        for byte in TORN_BYTES {
            let label = format!("tiered content store op {op} byte {byte}");
            let durable = faulty(FailureMode::TornWriteAt { op, byte });
            let (fast, acked, _, sealed) = two_tiered_epochs(durable.clone());
            assert!(durable.is_dead(), "{label}: the cut never fired");
            durable.revive();

            let (fast, durable): (Arc<dyn Backend>, Arc<dyn Backend>) = (fast, durable);
            assert_repairs_clean(|opts| fsck::run_tiered(&fast, &durable, &all, opts), &label);
            let fs = Crfs::mount(durable, snap_config()).expect("remount");
            assert_live_files_exact(&fs, &acked[1], &[1, 2], &label);
            // The epochs the mount sealed, each before the cut or after
            // its seal's barrier landed every chunk; a file whose
            // re-create the dead durable tier refused keeps its first
            // checkpoint.
            let sealed: Vec<bool> = (0..2).map(|e| sealed.contains(&e)).collect();
            assert_sealed_epochs_exact(&fs, &sealed, &acked, &label);
            fs.unmount().expect("unmount");
        }
    }
}

/// Subsets of the unsynced writes each crash state keeps.
const CRASH_SEEDS: u64 = 4;

/// One crash state of the tiered content store: the power fails at
/// durable step `cut`, and a reboot keeps the subset `seed` draws. Every
/// epoch whose barrier returned `Ok` restarts byte-exact from the
/// durable tier, and no durable manifest names a missing or short
/// chunk.
fn assert_crash_state_restarts(cut: u64, seed: u64, durable: &MemBackend, barriers: &[bool]) {
    let label = format!("durable step {cut}, seed {seed}");
    let image: Arc<dyn Backend> = Arc::new(durable.crash_image(seed));
    let sum = fsck::run(&image, &["/".to_string()], &FsckOptions::default());
    assert_eq!(sum.damage.dangling_manifest_refs, 0, "{label}: {sum}");
    let fs = Crfs::mount(image, snap_config()).expect("remount");
    let epochs = fs.snapshot_epochs();
    for epoch in (0..barriers.len() as u64).filter(|&e| barriers[e as usize]) {
        assert!(epochs.contains(&epoch), "{label}: epoch {epoch} is gone");
        assert_epoch_exact(&fs, epoch, |_| epoch + 1, &label);
    }
    fs.unmount().expect("unmount");
}

/// The durable tier of the tiered content store from each step of two
/// seals on, [`CRASH_SEEDS`] subsets each.
#[test]
fn tiered_content_store_crash_states_from_what_was_synced_restart_every_acked_epoch() {
    let run = |cut: u64| {
        let durable = Arc::new(MemBackend::crashing_after(cut));
        let (_, _, barriers, _) = two_tiered_epochs(durable.clone());
        (durable, barriers)
    };
    let (durable, barriers) = run(u64::MAX);
    assert_eq!(barriers, [true, true]);
    let steps = durable.crash_steps();
    assert!(
        steps >= FILES as u64 * CHUNKS * 3 / 2,
        "{steps} durable steps"
    );
    for cut in 0..=steps {
        let (durable, barriers) = run(cut);
        for seed in 0..CRASH_SEEDS {
            assert_crash_state_restarts(cut, seed, &durable, &barriers);
        }
    }
}

/// The first crash state the sweep above found while the drain wrote a
/// manifest's durable copy before the barrier synced its chunks: the
/// power fails at durable step 37, and seed 2 keeps the manifest of
/// epoch 0 but not 7 of the chunk writes it names.
#[test]
fn a_durable_manifest_never_outlives_its_chunks() {
    let (cut, seed) = (37, 2);
    let durable = Arc::new(MemBackend::crashing_after(cut));
    let (_, _, barriers, _) = two_tiered_epochs(durable.clone());
    assert_crash_state_restarts(cut, seed, &durable, &barriers);
}

/// The content store's chunk files.
fn cas_files(backend: &Arc<dyn Backend>) -> Vec<String> {
    let names = backend.list_dir(CAS_DIR).expect("a content store");
    names.iter().map(|n| format!("{CAS_DIR}/{n}")).collect()
}

/// Sets one bit in the middle of a one-frame chunk file's payload.
fn flip_payload_bit(backend: &Arc<dyn Backend>, chunk: &str) {
    let f = backend.open(chunk, OpenOptions::read_write()).unwrap();
    let at = FRAME_HEADER_LEN + (f.len().unwrap() - FRAME_HEADER_LEN) / 2;
    let mut b = [0u8; 1];
    f.read_at(at, &mut b).unwrap();
    f.write_at(at, &[b[0] ^ 0x08]).unwrap();
}

/// Reads chunk `idx` of `f`: `Ok` only with the bytes of `want`, else
/// an `IntegrityError` that handed out none of them.
fn read_verified(f: &crfs::core::CrfsFile, idx: u64, want: &[u8], label: &str) -> bool {
    let mut got = vec![0xAAu8; CHUNK];
    match f.read_at(idx * CHUNK as u64, &mut got) {
        Ok(n) => {
            assert!(
                n == CHUNK && got == want,
                "{label}: chunk {idx} served wrong bytes"
            );
            true
        }
        Err(e) => {
            assert!(
                matches!(e, CrfsError::IntegrityError { .. }),
                "{label}: {e:?}"
            );
            assert!(
                got.iter().all(|&b| b == 0xAA || b == 0),
                "{label}: bytes of an unverified chunk reached the caller"
            );
            false
        }
    }
}

fn sweep(backend: &Arc<dyn Backend>, payloads: Payloads) -> FsckSummary {
    let opts = FsckOptions {
        payloads,
        ..FsckOptions::default()
    };
    fsck::run(backend, &["/".to_string()], &opts)
}

#[test]
fn a_flipped_bit_in_a_sealed_chunk_fails_its_restart_read_and_a_deep_fsck() {
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let (acked, sealed) = two_sealed_epochs(&backend);
    assert_eq!((acked, sealed), (vec![vec![true; FILES]; 2], vec![true; 2]));
    let chunks = cas_files(&backend);
    for (i, victim) in chunks.iter().enumerate().step_by(5) {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        two_sealed_epochs(&backend);
        flip_payload_bit(&backend, victim);
        let label = format!("sealed chunk {i}");

        // Every retained epoch and the live files: each read of the
        // victim fails, every other read is exact.
        let fs = Crfs::mount(Arc::clone(&backend), snap_config()).unwrap();
        let mut failed = 0;
        for epoch in fs.snapshot_epochs() {
            for file in 0..FILES {
                let f = fs.open_restart(&path(file), epoch).unwrap();
                for idx in 0..CHUNKS {
                    let want = image_payload(epoch + 1, file, idx);
                    failed += usize::from(!read_verified(&f, idx, &want, &label));
                }
                f.close().unwrap();
            }
        }
        for file in 0..FILES {
            let f = fs.open(&path(file)).unwrap();
            for idx in 0..CHUNKS {
                let want = image_payload(2, file, idx);
                failed += usize::from(!read_verified(&f, idx, &want, &label));
            }
            f.close().unwrap();
        }
        fs.unmount().unwrap();
        assert!(failed >= 1, "{label}: no read touched the victim");

        // The default pass leaves the sealed chunk to the seal and to
        // the restart read, and says so; a deep pass names it.
        let default = sweep(&backend, Payloads::Unsealed);
        assert!(default.damage.is_clean(), "{label}: {default}");
        assert_eq!(default.trusted_payloads, chunks.len() as u64, "{label}");
        let deep = sweep(&backend, Payloads::All);
        assert_eq!(deep.damage.bad_payload_checksum, 1, "{label}: {deep}");
        let named: Vec<&str> = deep.reports.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(named, [victim.as_str()], "{label}");
    }
}

#[test]
fn a_flipped_bit_in_a_chunk_written_since_the_last_seal_fails_the_default_fsck() {
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let fs = Crfs::mount(Arc::clone(&backend), snap_config()).unwrap();
    assert_eq!(checkpoint(&fs, 1), [true; FILES]);
    fs.advance_epoch().unwrap();
    let sealed = cas_files(&backend);
    assert_eq!(checkpoint(&fs, 2), [true; FILES]);
    fs.unmount().unwrap(); // no second seal: the crashed epoch's shape
    let fresh: Vec<String> = cas_files(&backend)
        .into_iter()
        .filter(|chunk| !sealed.contains(chunk))
        .collect();
    assert_eq!(fresh.len(), FILES * CHUNKS as usize / 2);
    flip_payload_bit(&backend, &fresh[0]);

    let sum = sweep(&backend, Payloads::Unsealed);
    assert_eq!(sum.damage.bad_payload_checksum, 1, "{sum}");
    let named: Vec<&str> = sum.reports.iter().map(|r| r.path.as_str()).collect();
    assert_eq!(named, [fresh[0].as_str()]);
    assert_eq!(sum.trusted_payloads, sealed.len() as u64, "{sum}");

    // The live files read the victim as an error and the rest exactly.
    let fs = Crfs::mount(Arc::clone(&backend), snap_config()).unwrap();
    let mut failed = 0;
    for file in 0..FILES {
        let f = fs.open(&path(file)).unwrap();
        for idx in 0..CHUNKS {
            let want = image_payload(2, file, idx);
            failed += usize::from(!read_verified(&f, idx, &want, "unsealed"));
        }
        f.close().unwrap();
    }
    fs.unmount().unwrap();
    assert_eq!(failed, 1);
}
