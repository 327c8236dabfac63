//! What a power cut leaves behind a re-written checkpoint file, swept
//! over a real directory.
//!
//! A raw mount re-creates a file with `OpenOptions::create_rewrite()`:
//! `LocalFileBackend` keeps the predecessor's blocks and cuts them at
//! the first `sync` / close. A framed mount keeps the eager cut, because
//! recovery scans a frame log and the predecessor's frames behind a new
//! prefix would scan as valid. Both halves are checked here by cutting
//! the second epoch at every chunk boundary and at a byte stride inside
//! the first, middle and last chunk, then looking at the host file
//! **while the crashed handle is still alive** — a power cut runs no
//! destructor — and again after it has dropped.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crfs::core::backend::{Backend, FailureMode, FaultyBackend, LocalFileBackend, OpenOptions};
use crfs::core::fsck::{self, FsckOptions};
use crfs::core::transform::frame::{FrameHeader, FRAME_HEADER_LEN};
use crfs::core::{CodecKind, Crfs, CrfsConfig, Vfs};

const CHUNK: usize = 64 << 10;
const LEN_A: usize = (1 << 20) + 100;
const BLOCK: usize = 4096;

type Faulty = FaultyBackend<Arc<LocalFileBackend>>;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crfs-rewrite-cut-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> CrfsConfig {
    CrfsConfig::default()
        .with_chunk_size(CHUNK)
        .with_pool_size(16 * CHUNK)
        .with_io_threads(2)
}

/// Cut points over a stream of `len` bytes written in `unit`-byte
/// pieces: every piece boundary (0 and `len` included — `len` is "no
/// cut"), plus a byte stride inside the first, middle and last piece.
fn cut_points(len: usize, unit: usize) -> Vec<u64> {
    let pieces = len.div_ceil(unit);
    let mut cuts: Vec<usize> = (0..pieces).map(|p| p * unit).collect();
    for piece in [0, pieces / 2, pieces - 1] {
        cuts.extend((piece * unit + 1..((piece + 1) * unit).min(len)).step_by(unit / 13 + 1));
    }
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.into_iter().map(|c| c as u64).collect()
}

// ---------------------------------------------------------------------
// Raw mount: old bytes may survive an unclosed rewrite, nothing else
// ---------------------------------------------------------------------

/// Position-and-epoch-derived image: no byte is zero and two epochs
/// differ at every position, so each host byte names its origin.
fn raw_image(epoch: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| 1 + ((i * 31 + (i >> 12) * 7 + epoch * 101) % 250) as u8)
        .collect()
}

/// Every 4 KiB block of `host` is a (possibly empty, possibly whole)
/// prefix of `b`'s bytes followed by `a`'s bytes or by zeros — a torn
/// write and `b`'s ragged tail end inside a block — and nothing else.
fn assert_only_b_a_or_zeros(host: &[u8], a: &[u8], b: &[u8], label: &str) {
    for start in (0..host.len()).step_by(BLOCK) {
        let block = &host[start..(start + BLOCK).min(host.len())];
        let from = |img: &[u8], at: usize| img.get(at).copied();
        let new = (0..block.len())
            .take_while(|&i| from(b, start + i) == Some(block[i]))
            .count();
        let rest = &block[new..];
        let old = (new..block.len()).all(|i| from(a, start + i) == Some(block[i]));
        assert!(
            old || rest.iter().all(|&v| v == 0),
            "{label}: block at {start} is {new} bytes of B, then neither A nor zeros"
        );
    }
}

struct RawRig {
    dir: PathBuf,
    local: Arc<LocalFileBackend>,
    faulty: Arc<Faulty>,
    vfs: Vfs,
    mount: Arc<Crfs>,
}

impl RawRig {
    fn new(dir: PathBuf) -> RawRig {
        let local = Arc::new(LocalFileBackend::new(&dir).unwrap());
        let faulty = Arc::new(FaultyBackend::new(Arc::clone(&local), FailureMode::None));
        let mount = Crfs::mount(Arc::clone(&faulty) as Arc<dyn Backend>, config()).unwrap();
        let vfs = Vfs::new();
        vfs.mount("/m", Arc::clone(&mount)).unwrap();
        RawRig {
            dir,
            local,
            faulty,
            vfs,
            mount,
        }
    }

    /// One whole checkpoint of `/m/{name}`, closed and acked.
    fn checkpoint(&self, name: &str, image: &[u8]) {
        let fd = self.vfs.create(&format!("/m/{name}")).unwrap();
        self.vfs.write(fd, image).unwrap();
        self.vfs.close(fd).unwrap();
    }

    fn host(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(name)).unwrap()
    }
}

#[test]
fn raw_rewrite_cut_leaves_new_old_or_zero_bytes_and_close_leaves_exactly_the_new_image() {
    let a = raw_image(1, LEN_A);
    for (tag, len_b) in [
        ("shorter", LEN_A - 300_000),
        ("equal", LEN_A),
        ("longer", LEN_A + 200_000),
    ] {
        let b = raw_image(2, len_b);
        let dir = temp_root(&format!("raw-{tag}"));
        for cut in cut_points(len_b, CHUNK) {
            let label = format!("{tag} cut {cut}");
            let rig = RawRig::new(dir.clone());
            rig.checkpoint("r0", &a);
            rig.checkpoint("r1", &a);
            let (rewrites, zeroed) = rig.local.rewrite_counts();
            // Epoch 2: r0 is closed and acked before the power fails
            // `cut` bytes into r1.
            rig.checkpoint("r0", &b);
            rig.faulty.set_mode(FailureMode::PowerCutAfterBytes(cut));
            let fd = rig.vfs.create("/m/r1").unwrap();
            let _ = rig.vfs.write(fd, &b);
            let synced = rig.vfs.fsync(fd);
            assert_eq!(synced.is_ok(), cut == len_b as u64, "{label}: {synced:?}");

            // The medium at the moment of the cut: r1's handle is alive.
            assert!(rig.host("r0") == b, "{label}: acked r0 is exactly B");
            let host = rig.host("r1");
            assert_only_b_a_or_zeros(&host, &a, &b, &label);
            if rig.faulty.is_dead() {
                let landed = (cut as usize / CHUNK) * CHUNK;
                assert!(host.len() >= LEN_A.max(landed), "{label}: {}", host.len());
            } else {
                // fsync settled it: the cut to len(B) has happened.
                assert!(host == b, "{label}: synced r1 is exactly B");
            }

            // Then the process goes away, destructors and all.
            let closed = rig.vfs.close(fd);
            assert_eq!(closed.is_ok(), !rig.faulty.is_dead(), "{label}: {closed:?}");
            let _ = rig.mount.unmount();
            let host = rig.host("r1");
            assert_only_b_a_or_zeros(&host, &a, &b, &format!("{label}, dropped"));
            // A fresh open serves the same bytes at the same length.
            let f = rig.local.open("/r1", OpenOptions::read_only()).unwrap();
            assert_eq!(f.len().unwrap(), host.len() as u64, "{label}");
            let mut got = vec![0u8; host.len() + 1];
            assert_eq!(f.read_at(0, &mut got).unwrap(), host.len(), "{label}");
            assert!(got[..host.len()] == host[..], "{label}: fresh open");
            if !rig.faulty.is_dead() {
                assert!(host == b, "{label}: closed r1 is exactly B");
                // Two files re-created; written whole, nothing to zero.
                let counts = rig.local.rewrite_counts();
                assert_eq!(counts, (rewrites + 2, zeroed), "{label}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------
// Framed mount: the eager cut stays, so no old frame is ever served
// ---------------------------------------------------------------------

/// Incompressible position-and-epoch-derived bytes (never zero): every
/// chunk's frame stores the same number of bytes in every epoch, so the
/// predecessor's frames would line up behind a cut of this epoch's.
fn framed_image(epoch: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let mut z = (i ^ epoch << 40).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            1 + ((z ^ (z >> 31)) % 255) as u8
        })
        .collect()
}

fn framed_config() -> CrfsConfig {
    // One io thread: log order is logical order, so what survives a cut
    // is a prefix and the repair's verdict is deterministic.
    config().with_io_threads(1).with_codec(CodecKind::Lz)
}

/// Offsets of the frame boundaries of a clean log, its length included.
fn frame_boundaries(log: &[u8]) -> Vec<u64> {
    let mut at = 0u64;
    let mut bounds = vec![0];
    while at < log.len() as u64 {
        let h = FrameHeader::decode(&log[at as usize..(at + FRAME_HEADER_LEN) as usize]).unwrap();
        at += FRAME_HEADER_LEN + u64::from(h.stored_len);
        bounds.push(at);
    }
    assert_eq!(at, log.len() as u64, "a clean chain covers the file");
    bounds
}

/// Reads `/img` through a fresh mount of `dir`: its length is at most
/// B's, and every chunk is B's, a hole, or a detected error — never A's.
/// (`headerless`: the cut fell inside the log's very first header, so
/// the file holds no frame at all and a mount cannot tell it from a raw
/// file; it serves the header fragment and whatever slack follows as
/// such, as it always has. Nothing of A there either.)
fn assert_fresh_mount_serves_only_b(dir: &Path, a: &[u8], b: &[u8], headerless: bool, label: &str) {
    let backend: Arc<dyn Backend> = Arc::new(LocalFileBackend::new(dir).unwrap());
    let fs = Crfs::mount(backend, framed_config()).unwrap();
    if let Ok(f) = fs.open("/img") {
        let len = f.len().unwrap() as usize;
        assert!(headerless || len <= b.len(), "{label}: {len} bytes served");
        for at in (0..len.min(b.len())).step_by(CHUNK) {
            let mut got = vec![0u8; CHUNK.min(len - at).min(b.len() - at)];
            if let Ok(n) = f.read_at(at as u64, &mut got) {
                assert_eq!(n, got.len(), "{label}");
                assert!(
                    got != a[at..at + n],
                    "{label}: chunk at {at} is last epoch's"
                );
                assert!(
                    headerless || got == b[at..at + n] || got.iter().all(|&v| v == 0),
                    "{label}: chunk at {at} is not this epoch's"
                );
            }
        }
        let _ = f.close();
    }
    let _ = fs.unmount();
}

#[test]
fn framed_rewrite_cut_never_serves_a_byte_of_the_previous_epoch() {
    let dir = temp_root("framed");
    let (a, b) = (framed_image(1, LEN_A), framed_image(2, LEN_A));
    let checkpoint = |backend: Arc<dyn Backend>, image: &[u8]| {
        let fs = Crfs::mount(backend, framed_config()).unwrap();
        let f = fs.create("/img").unwrap();
        let _ = f.write(image);
        let _ = f.flush();
        (fs, f)
    };
    // The log's frame layout, from a clean epoch: the sweep cuts at
    // frame boundaries, where an old frame would follow seamlessly.
    let local = Arc::new(LocalFileBackend::new(&dir).unwrap());
    let (fs, f) = checkpoint(Arc::clone(&local) as Arc<dyn Backend>, &a);
    f.close().unwrap();
    fs.unmount().unwrap();
    let bounds = frame_boundaries(&std::fs::read(dir.join("img")).unwrap());
    assert_eq!(bounds.len(), LEN_A.div_ceil(CHUNK) + 1);
    let mut cuts = bounds.clone();
    for frame in [0, bounds.len() / 2, bounds.len() - 2] {
        let (start, end) = (bounds[frame], bounds[frame + 1]);
        cuts.extend((start + 1..end).step_by(((end - start) / 13 + 1) as usize));
    }
    cuts.sort_unstable();

    for cut in cuts {
        let label = format!("framed cut {cut}");
        let headerless = cut < FRAME_HEADER_LEN;
        let (fs, f) = checkpoint(Arc::clone(&local) as Arc<dyn Backend>, &a);
        f.close().unwrap();
        fs.unmount().unwrap();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&local),
            FailureMode::PowerCutAfterBytes(cut),
        ));
        let (fs, f) = checkpoint(Arc::clone(&faulty) as Arc<dyn Backend>, &b);
        assert_eq!(faulty.is_dead(), cut < *bounds.last().unwrap(), "{label}");
        // Rebooted over the medium as the cut left it...
        assert_fresh_mount_serves_only_b(&dir, &a, &b, headerless, &label);
        // ...and once more after the crashed process is gone.
        let _ = f.close();
        let _ = fs.unmount();
        drop(faulty);
        assert_fresh_mount_serves_only_b(&dir, &a, &b, headerless, &format!("{label}, dropped"));

        let backend = Arc::clone(&local) as Arc<dyn Backend>;
        let roots = ["/".to_string()];
        let repair = FsckOptions {
            repair: true,
            threads: 1,
            ..FsckOptions::default()
        };
        fsck::run(&backend, &roots, &repair);
        let rescan = fsck::run(&backend, &roots, &FsckOptions::default());
        assert!(rescan.damage.is_clean(), "{label}: {:?}", rescan.damage);
        assert_fresh_mount_serves_only_b(&dir, &a, &b, headerless, &format!("{label}, repaired"));
    }
    assert_eq!(
        local.rewrite_counts(),
        (0, 0),
        "a framed create cuts eagerly"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
