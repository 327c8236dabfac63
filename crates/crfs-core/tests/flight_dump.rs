//! `CrfsConfig::flight_dump`: a mount that meets damage leaves its
//! flight record at the configured path; a clean mount leaves nothing.

use std::sync::Arc;

use crfs_core::backend::{MemBackend, OpenOptions};
use crfs_core::transform::frame::FRAME_HEADER_LEN;
use crfs_core::{Backend, CodecKind, Crfs, CrfsConfig, CrfsError};

const CHUNK: usize = 4096;

#[test]
fn flight_record_is_dumped_on_damage_and_only_then() {
    let name = format!("crfs-flight-dump-{}.jsonl", std::process::id());
    let dump = std::env::temp_dir().join(name);
    let _ = std::fs::remove_file(&dump);
    let config = CrfsConfig::default()
        .with_chunk_size(CHUNK)
        .with_pool_size(16 * CHUNK)
        // One IO worker: frames land in the log in logical order, so the
        // frame at stored offset 0 is the chunk the read below asks for.
        .with_io_threads(1)
        .with_codec(CodecKind::Lz)
        .with_flight_dump(dump.to_str().unwrap());
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());

    let fs = Crfs::mount(Arc::clone(&backend), config.clone()).unwrap();
    let f = fs.create("/ckpt").unwrap();
    let image: Vec<u8> = (0..4 * CHUNK).map(|i| (i / 16) as u8).collect();
    f.write(&image).unwrap();
    f.close().unwrap();
    fs.unmount().unwrap();
    assert!(!dump.exists(), "a clean unmount left {dump:?} behind");

    // Rot one stored payload byte of the first frame.
    let raw = backend.open("/ckpt", OpenOptions::read_write()).unwrap();
    let at = FRAME_HEADER_LEN + 3;
    let mut b = [0u8; 1];
    raw.read_at(at, &mut b).unwrap();
    raw.write_at(at, &[b[0] ^ 0xFF]).unwrap();
    drop(raw);

    let fs = Crfs::mount(backend, config).unwrap();
    let f = fs.open("/ckpt").unwrap();
    let err = f.read_at(0, &mut vec![0u8; CHUNK]).unwrap_err();
    assert!(matches!(err, CrfsError::IntegrityError { .. }), "{err:?}");
    // The dump is on disk by the time the error reaches the caller: the
    // process may die on it.
    let record = std::fs::read_to_string(&dump).expect("the integrity error dumped the ring");
    let mut kinds = Vec::new();
    for line in record.lines() {
        let event: serde_json::Value = serde_json::from_str(line).expect(line);
        assert!(
            event.get("seq").is_some_and(|v| v.as_u64().is_some()),
            "{line}"
        );
        let kind = event.get("event").and_then(|v| v.as_str()).expect(line);
        kinds.push(kind.to_string());
    }
    assert!(kinds.iter().any(|k| k == "integrity_error"), "{kinds:?}");
    f.close().unwrap();
    fs.unmount().unwrap();
    std::fs::remove_file(&dump).unwrap();
}
