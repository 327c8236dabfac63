//! End-to-end crash/repair smoke for the `crfs-fsck` binary: crash a
//! checkpoint write at three byte offsets (mid-header, mid-payload,
//! inside the header's checksum field), run `crfs-fsck --repair` on the
//! volume, and gate a byte-exact restart — the reopened file must serve
//! exactly the acked frame prefix and never a wrong byte.
//!
//! This is the CI `fsck-smoke` driver (see `.github/workflows/ci.yml`).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use crfs_core::backend::{Backend, LocalFileBackend};
use crfs_core::transform::frame::{FrameHeader, FRAME_HEADER_LEN};
use crfs_core::{CodecKind, Crfs, CrfsConfig};

const CHUNK: usize = 4096;
const CHUNKS: usize = 5;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crfs-fsck-bin-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> CrfsConfig {
    // One io thread keeps frame-log order equal to logical order, so
    // "the surviving frame prefix" is a logical data prefix and the
    // byte-exact assertion below is deterministic.
    CrfsConfig::default()
        .with_chunk_size(CHUNK)
        .with_pool_size(16 * CHUNK)
        .with_io_threads(1)
        .with_codec(CodecKind::Lz)
}

fn pattern() -> Vec<u8> {
    (0..CHUNK * CHUNKS)
        .map(|i| (i / 7 + i / 4096) as u8)
        .collect()
}

/// Writes one checkpoint file and returns the host path of its frame log.
fn populate(root: &Path) -> PathBuf {
    let backend: Arc<dyn Backend> = Arc::new(LocalFileBackend::new(root).unwrap());
    let fs = Crfs::mount(backend, config()).unwrap();
    let f = fs.create("/rank0.img").unwrap();
    f.write(&pattern()).unwrap();
    f.close().unwrap();
    fs.unmount().unwrap();
    root.join("rank0.img")
}

/// Byte offset (from file start) where the last frame begins.
fn last_frame_start(log: &Path) -> u64 {
    let bytes = std::fs::read(log).unwrap();
    let mut off = 0u64;
    let mut last = 0u64;
    while off + FRAME_HEADER_LEN <= bytes.len() as u64 {
        let h = FrameHeader::decode(&bytes[off as usize..(off + FRAME_HEADER_LEN) as usize])
            .expect("populated log must be a clean chain");
        last = off;
        off += FRAME_HEADER_LEN + u64::from(h.stored_len);
    }
    assert_eq!(off, bytes.len() as u64, "clean chain covers the file");
    last
}

fn run_fsck(root: &Path, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_crfs-fsck"))
        .args(extra)
        .arg(root.to_str().unwrap())
        .output()
        .unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The acked-prefix restart gate: after a crash `cut_into` bytes into
/// the last frame and `crfs-fsck --repair`, the reopened file serves
/// exactly the first four chunks, byte for byte.
fn crash_repair_restart(tag: &str, cut_into: impl Fn(u64, u64) -> u64) {
    let root = temp_root(tag);
    let log = populate(&root);
    let frame_start = last_frame_start(&log);
    let len = std::fs::metadata(&log).unwrap().len();
    let cut = cut_into(frame_start, len);
    assert!(cut > frame_start && cut < len, "cut tears the last frame");

    // Crash: the tail of the final frame never reaches the disk.
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(cut).unwrap();
    drop(f);

    // Dry run first: reports the tear, exits nonzero, mutates nothing.
    let (clean, report) = run_fsck(&root, &["--dry-run", "--quiet"]);
    assert!(!clean, "dry run must report damage: {report}");
    assert_eq!(std::fs::metadata(&log).unwrap().len(), cut);

    // Repair: truncate to the last valid frame.
    let (repaired, report) = run_fsck(&root, &["--repair", "--quiet"]);
    assert!(repaired, "repair must succeed: {report}");
    assert_eq!(std::fs::metadata(&log).unwrap().len(), frame_start);

    // A second sweep sees a clean volume.
    let (clean, report) = run_fsck(&root, &["--quiet"]);
    assert!(clean, "repaired volume must scan clean: {report}");

    // Restart gate: byte-exact acked prefix, no wrong bytes.
    let backend: Arc<dyn Backend> = Arc::new(LocalFileBackend::new(&root).unwrap());
    let fs = Crfs::mount(backend, config()).unwrap();
    let f = fs.open("/rank0.img").unwrap();
    let logical = f.len().unwrap();
    assert_eq!(logical, (CHUNK * (CHUNKS - 1)) as u64, "one chunk lost");
    let mut got = vec![0u8; logical as usize];
    let n = f.read_at(0, &mut got).unwrap();
    assert_eq!(n, got.len());
    assert_eq!(got, pattern()[..logical as usize], "no wrong bytes");
    f.close().unwrap();
    fs.unmount().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_mid_header_repairs_to_byte_exact_restart() {
    crash_repair_restart("mid-header", |frame, _| frame + 10);
}

#[test]
fn crash_mid_checksum_field_repairs_to_byte_exact_restart() {
    // Bytes 26..34 of the header hold the payload checksum; cutting
    // inside them leaves a header that fails CRC/length validation.
    crash_repair_restart("mid-checksum", |frame, _| frame + 30);
}

#[test]
fn crash_mid_payload_repairs_to_byte_exact_restart() {
    crash_repair_restart("mid-payload", |frame, len| {
        frame + FRAME_HEADER_LEN + (len - frame - FRAME_HEADER_LEN) / 2
    });
}

#[test]
fn clean_volume_exits_zero() {
    let root = temp_root("clean");
    populate(&root);
    let (clean, report) = run_fsck(&root, &[]);
    assert!(clean, "{report}");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// snapshot tree: orphaned chunks, dangling manifest refs, torn seals
// ---------------------------------------------------------------------

fn run_fsck_code(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_crfs-fsck"))
        .args(extra)
        .arg(root.to_str().unwrap())
        .output()
        .unwrap();
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Writes one snapshot epoch (manifest + content-store chunks) onto a
/// local volume and returns the host-side snapshot directory.
fn populate_snap(root: &Path) -> PathBuf {
    let backend: Arc<dyn Backend> = Arc::new(LocalFileBackend::new(root).unwrap());
    let fs = Crfs::mount(backend, config().with_dedup(true)).unwrap();
    let f = fs.create("/rank0.img").unwrap();
    f.write(&pattern()).unwrap();
    f.close().unwrap();
    fs.advance_epoch().unwrap();
    fs.unmount().unwrap();
    root.join(".crfs-snap")
}

/// An orphaned content-store chunk (no manifest, no live REF frame) is
/// exit-1 damage on a dry run and unlinked — then clean — under
/// `--repair`.
#[test]
fn snapshot_orphan_chunk_dry_reports_and_repair_unlinks() {
    let root = temp_root("snap-orphan");
    let snap = populate_snap(&root);
    let orphan = snap
        .join("cas")
        .join(format!("{:032x}-{:x}", 0xfeed_faceu64, 0x1000));
    std::fs::write(&orphan, b"junk").unwrap();

    let (code, report) = run_fsck_code(&root, &["--dry-run", "--quiet"]);
    assert_eq!(code, 1, "dry run must flag the orphan: {report}");
    assert!(report.contains("orphaned_chunks=1"), "{report}");
    assert!(orphan.exists(), "dry run must not mutate");

    let (code, report) = run_fsck_code(&root, &["--repair", "--quiet"]);
    assert_eq!(code, 0, "repair must unlink the orphan: {report}");
    assert!(!orphan.exists(), "orphan gone after repair");

    let (code, report) = run_fsck_code(&root, &["--quiet"]);
    assert_eq!(code, 0, "repaired volume must scan clean: {report}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A manifest record whose content-store chunk is missing means a
/// sealed epoch lost bytes — reported (exit 1) so a restart is never
/// attempted, but never "repaired": the manifest stays for forensics.
#[test]
fn snapshot_dangling_manifest_ref_reported_never_repaired() {
    let root = temp_root("snap-dangling");
    let snap = populate_snap(&root);
    let cas = snap.join("cas");
    let victim = std::fs::read_dir(&cas)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    std::fs::remove_file(&victim).unwrap();
    let manifest = snap.join("manifest-0.mfst");
    assert!(manifest.exists());

    let (code, report) = run_fsck_code(&root, &["--repair", "--quiet"]);
    assert_eq!(code, 1, "dangling refs are unrepairable damage: {report}");
    assert!(
        !report.contains("dangling_manifest_refs=0"),
        "must count dangling refs: {report}"
    );
    assert!(
        manifest.exists(),
        "repair must not unlink a decodable manifest"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A manifest that does not decode is a torn seal: per the recovery
/// contract that epoch never existed, so `--repair` unlinks it and the
/// volume scans clean (the live frame log still references the chunks,
/// so nothing cascades into orphan reclaim).
#[test]
fn snapshot_torn_manifest_repairs_by_unlink() {
    let root = temp_root("snap-torn-manifest");
    let snap = populate_snap(&root);
    let manifest = snap.join("manifest-0.mfst");
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes[12] ^= 0xA5;
    std::fs::write(&manifest, bytes).unwrap();

    let (code, report) = run_fsck_code(&root, &["--dry-run", "--quiet"]);
    assert_eq!(code, 1, "torn seal must be flagged: {report}");
    assert!(manifest.exists(), "dry run must not mutate");

    let (code, report) = run_fsck_code(&root, &["--repair", "--quiet"]);
    assert_eq!(code, 0, "torn seal repairs by unlink: {report}");
    assert!(!manifest.exists(), "torn manifest unlinked");

    let (code, report) = run_fsck_code(&root, &["--quiet"]);
    assert_eq!(code, 0, "after repair the volume scans clean: {report}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Every file under `dir`, by path, with its bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        match path.is_dir() {
            true => files.extend(tree(&path)),
            false => files.push((path.clone(), std::fs::read(&path).unwrap())),
        }
    }
    files.sort();
    files
}

/// A manifest another build sealed — its CRC holds, its version is not
/// this build's — is neither adopted nor taken for a torn seal: the
/// mount fails naming the version, and `crfs-fsck --repair` reports it
/// and leaves every file byte-identical, though the store also holds an
/// orphan chunk and a torn log that it would otherwise repair.
#[test]
fn a_manifest_of_another_version_is_refused_not_destroyed() {
    use crfs_core::snapshot::manifest::MANIFEST_VERSION;
    use crfs_core::transform::frame::crc32;
    for version in [MANIFEST_VERSION - 1, MANIFEST_VERSION + 1] {
        let root = temp_root(&format!("snap-version-{version}"));
        let snap = populate_snap(&root);
        let mut other = std::fs::read(snap.join("manifest-0.mfst")).unwrap();
        other.truncate(other.len() - 4);
        other[4..6].copy_from_slice(&version.to_le_bytes());
        other[8..16].copy_from_slice(&1u64.to_le_bytes()); // epoch 1
        let crc = crc32(&other);
        other.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(snap.join("manifest-1.mfst"), other).unwrap();
        let orphan = format!("{:032x}-{:x}", 0xfeed_faceu64, 0x1000);
        std::fs::write(snap.join("cas").join(orphan), b"junk").unwrap();
        let log = std::fs::OpenOptions::new()
            .write(true)
            .open(root.join("rank0.img"))
            .unwrap();
        log.set_len(log.metadata().unwrap().len() - 7).unwrap();
        let before = tree(&root);

        let backend: Arc<dyn Backend> = Arc::new(LocalFileBackend::new(&root).unwrap());
        let err = Crfs::mount(backend, config().with_dedup(true)).unwrap_err();
        assert!(
            err.to_string().contains(&format!("version {version}")),
            "{err}"
        );
        let (code, report) = run_fsck_code(&root, &["--repair"]);
        assert_eq!(code, 1, "version {version}: {report}");
        assert!(report.contains("manifest-1.mfst"), "{report}");
        assert!(tree(&root) == before, "version {version}: {report}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A flipped payload bit in a sealed content-store chunk: the default
/// pass leaves it to the seal and counts it as trusted, `--deep`
/// decodes it and exits 1, `--no-payloads` decodes nothing.
#[test]
fn deep_decodes_the_sealed_chunks_the_default_pass_trusts() {
    let root = temp_root("snap-deep");
    let snap = populate_snap(&root);
    let chunks: Vec<PathBuf> = std::fs::read_dir(snap.join("cas"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let mut bytes = std::fs::read(&chunks[0]).unwrap();
    let mid = (FRAME_HEADER_LEN as usize + bytes.len()) / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&chunks[0], bytes).unwrap();
    let trusted = format!("trusted_payloads={}", chunks.len());

    let (code, report) = run_fsck_code(&root, &["--quiet"]);
    assert_eq!(code, 0, "the seal vouches for the chunk: {report}");
    assert!(report.contains(&trusted), "{report}");
    let (code, report) = run_fsck_code(&root, &["--deep", "--quiet"]);
    assert_eq!(code, 1, "a deep pass decodes it: {report}");
    assert!(report.contains("trusted_payloads=0"), "{report}");
    assert!(report.contains("bad_payload_checksum=1"), "{report}");
    let (code, report) = run_fsck_code(&root, &["--no-payloads", "--quiet"]);
    assert_eq!(code, 0, "{report}");
    assert!(report.contains(&trusted), "{report}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Bad invocations (unknown flag, missing directory) are usage errors:
/// exit 2, distinct from both "clean" and "damage found".
#[test]
fn usage_errors_exit_two() {
    let root = temp_root("usage");
    let (code, _) = run_fsck_code(&root, &["--no-such-flag"]);
    assert_eq!(code, 2, "unknown flag is a usage error");
    let out = Command::new(env!("CARGO_BIN_EXE_crfs-fsck"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing directory is a usage error"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// --json mode
// ---------------------------------------------------------------------

/// `--json` on a torn volume: machine-readable per-file classification,
/// damage classes, repair actions, and per-checker timing — then a
/// repaired sweep flips `clean` to true with zero damage.
#[test]
fn json_mode_reports_damage_classes_timing_and_repair() {
    use serde_json::Value;
    let root = temp_root("json");
    let log = populate(&root);
    let frame_start = last_frame_start(&log);
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(frame_start + 10).unwrap(); // tear the last header
    drop(f);

    let (code, report) = run_fsck_code(&root, &["--dry-run", "--json"]);
    assert_eq!(code, 1, "torn volume must exit 1");
    let v: Value = serde_json::from_str(&report).unwrap();
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("damage")
            .and_then(|d| d.get("torn_tails"))
            .and_then(Value::as_u64),
        Some(1)
    );
    assert!(v.get("damage_total").and_then(Value::as_u64).unwrap() >= 1);

    // Per-file report: classified as a frame log, torn, not repaired.
    let reports = v.get("reports").and_then(Value::as_array).unwrap();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.get("kind").and_then(Value::as_str), Some("frame_log"));
    assert_eq!(r.get("repaired").and_then(Value::as_bool), Some(false));
    assert!(r.get("torn_bytes").and_then(Value::as_u64).unwrap() > 0);
    assert!(r
        .get("path")
        .and_then(Value::as_str)
        .unwrap()
        .contains("rank0.img"));

    // Per-checker timing: the frame-log checker did the work, and the
    // check-latency histogram saw every checked file.
    let files = v.get("files").and_then(Value::as_u64).unwrap();
    assert!(files >= 1);
    assert!(
        v.get("checker_ns")
            .and_then(|c| c.get("frame_log"))
            .and_then(Value::as_u64)
            .unwrap()
            > 0
    );
    assert_eq!(
        v.get("check_times")
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64),
        Some(files)
    );

    // Repair through --json, then a clean verifying sweep.
    let (code, report) = run_fsck_code(&root, &["--repair", "--json"]);
    assert_eq!(code, 0, "repair must succeed: {report}");
    let v: Value = serde_json::from_str(&report).unwrap();
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("repaired_files").and_then(Value::as_u64), Some(1));
    let r = &v.get("reports").and_then(Value::as_array).unwrap()[0];
    assert_eq!(r.get("repaired").and_then(Value::as_bool), Some(true));

    let (code, report) = run_fsck_code(&root, &["--json"]);
    assert_eq!(code, 0);
    let v: Value = serde_json::from_str(&report).unwrap();
    assert_eq!(
        v.get("damage_total").and_then(Value::as_u64),
        Some(0),
        "{report}"
    );
    assert_eq!(v.get("reports").and_then(Value::as_array).unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// A frame log whose durable copy diverged from its fast copy is one
/// `--json` entry, classified as a frame log, before and after repair.
#[test]
fn a_diverged_frame_log_is_one_json_entry() {
    use serde_json::Value;
    let (fast, durable) = (temp_root("tier-fast"), temp_root("tier-durable"));
    let log = populate(&fast);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes[FRAME_HEADER_LEN as usize + 3] ^= 0x10;
    std::fs::write(durable.join("rank0.img"), bytes).unwrap();
    for (mode, code) in [("--dry-run", 1), ("--repair", 0)] {
        let args = ["--fast", fast.to_str().unwrap(), mode, "--json"];
        let (got, report) = run_fsck_code(&durable, &args);
        assert_eq!(got, code, "{mode}: {report}");
        let v: Value = serde_json::from_str(&report).unwrap();
        let reports = v.get("reports").and_then(Value::as_array).unwrap();
        assert_eq!(reports.len(), 1, "{mode}: {report}");
        let r = &reports[0];
        assert_eq!(r.get("path").and_then(Value::as_str), Some("/rank0.img"));
        assert_eq!(r.get("kind").and_then(Value::as_str), Some("frame_log"));
        let diverged = r.get("damage").and_then(|d| d.get("tier_diverged"));
        assert_eq!(diverged.and_then(Value::as_u64), Some(1), "{mode}");
    }
    let healed = std::fs::read(durable.join("rank0.img")).unwrap();
    assert!(healed == std::fs::read(&log).unwrap(), "the fast copy won");
    let _ = std::fs::remove_dir_all(&fast);
    let _ = std::fs::remove_dir_all(&durable);
}

/// `--quiet` and `--json` are mutually exclusive output modes.
#[test]
fn json_conflicts_with_quiet() {
    let root = temp_root("json-quiet");
    let (code, _) = run_fsck_code(&root, &["--json", "--quiet"]);
    assert_eq!(code, 2);
    let _ = std::fs::remove_dir_all(&root);
}
