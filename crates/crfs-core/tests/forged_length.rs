//! A frame header may not size a buffer its stored bytes cannot fill.
//!
//! Decoders write into a destination sized from the header's
//! `logical_len`. The header is CRC-protected, but a CRC is not a
//! signature: a forged (or rotted-then-recomputed) length of `u32::MAX`
//! in front of a few stored bytes must cost an integrity error, not a
//! 4 GiB buffer. This test lives in a process of its own so that the
//! peak-memory reading is this test's and nobody else's.

use std::sync::Arc;

use crfs_core::backend::{Backend, MemBackend, OpenOptions};
use crfs_core::fsck::{self, FsckOptions};
use crfs_core::transform::codec::{STORED_LZ, STORED_RAW, STORED_RLE};
use crfs_core::transform::frame::{FrameHeader, FRAME_FORMAT};
use crfs_core::{CodecKind, Crfs, CrfsConfig, CrfsError};

/// `(VmPeak, VmHWM)` of this process in KiB, where `/proc` has them.
fn peak_kib() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
    };
    Some((field("VmPeak:")?, field("VmHWM:")?))
}

#[test]
fn forged_logical_len_is_an_integrity_error_not_an_allocation() {
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    // One frame per stored codec: eight plausible stored bytes, and a
    // header that claims they decode to 4 GiB - 1.
    for (name, codec, stored) in [
        ("/lz", STORED_LZ, [3u8, b'a', b'b', b'c', b'd', 0xFF, 4, 0]),
        ("/rle", STORED_RLE, [0xFF, 7, 0xFF, 7, 0xFF, 7, 0xFF, 7]),
        ("/raw", STORED_RAW, [1, 2, 3, 4, 5, 6, 7, 8]),
    ] {
        let header = FrameHeader {
            codec,
            flags: 0,
            format: FRAME_FORMAT,
            logical_offset: 0,
            logical_len: u32::MAX,
            stored_len: stored.len() as u32,
            payload_check: 0,
        };
        let f = backend.open(name, OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &header.encode()).unwrap();
        f.write_at(header.encode().len() as u64, &stored).unwrap();
    }
    let before = peak_kib();

    let fs = Crfs::mount(
        Arc::clone(&backend),
        CrfsConfig::default()
            .with_chunk_size(4096)
            .with_pool_size(64 * 1024)
            .with_codec(CodecKind::Lz),
    )
    .unwrap();
    for name in ["/lz", "/rle", "/raw"] {
        let file = fs.open(name).unwrap();
        let mut buf = vec![0xAAu8; 4096];
        let err = file.read_at(0, &mut buf).unwrap_err();
        assert!(
            matches!(err, CrfsError::IntegrityError { .. }),
            "{name}: {err:?}"
        );
        file.close().unwrap();
    }
    assert!(fs.stats().bad_payload_checksum >= 3);
    fs.unmount().unwrap();

    let sum = fsck::run(&backend, &["/".to_string()], &FsckOptions::default());
    assert_eq!(sum.damage.bad_payload_checksum, 3, "{sum}");

    if let (Some((peak0, hwm0)), Some((peak1, hwm1))) = (before, peak_kib()) {
        assert!(
            hwm1 - hwm0 < 32 << 10,
            "resident peak grew by {} KiB",
            hwm1 - hwm0
        );
        assert!(
            peak1 - peak0 < 1 << 20,
            "address space peak grew by {} KiB",
            peak1 - peak0
        );
    }
}
