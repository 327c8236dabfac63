//! End-to-end integration tests across crates: the real CRFS filesystem
//! with concurrent checkpoint writers, BLCR images through CRFS, failure
//! injection, and the VFS front end.

use std::sync::Arc;

use crfs::blcr::{CheckpointWriter, ProcessImage, RestartReader};
use crfs::core::backend::{
    DiscardBackend, FailureMode, FaultyBackend, LocalFileBackend, MemBackend,
};
use crfs::core::{Crfs, CrfsConfig, CrfsError, Vfs};

fn small_config() -> CrfsConfig {
    CrfsConfig::default()
        .with_chunk_size(256 << 10)
        .with_pool_size(1 << 20)
}

#[test]
fn concurrent_checkpointers_over_real_filesystem() {
    let root = std::env::temp_dir().join(format!("crfs-it-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let backend = Arc::new(LocalFileBackend::new(&root).expect("backend"));
    let fs = Crfs::mount(backend, small_config()).expect("mount");
    fs.mkdir_all("/ckpt").expect("mkdir");

    let mut handles = Vec::new();
    for rank in 0..8u32 {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let image = ProcessImage::synthetic(rank, 2 << 20, u64::from(rank));
            let mut file = fs.create(&format!("/ckpt/context.{rank}")).expect("create");
            CheckpointWriter::new()
                .write_image(&mut file, &image)
                .expect("dump");
            file.close().expect("close");
            image
        }));
    }
    let images: Vec<ProcessImage> = handles
        .into_iter()
        .map(|h| h.join().expect("rank"))
        .collect();

    // Restart every rank from the real files and verify bit-exactness.
    for (rank, original) in images.iter().enumerate() {
        let mut file = fs.open(&format!("/ckpt/context.{rank}")).expect("open");
        let restored = RestartReader::new().read_image(&mut file).expect("read");
        assert_eq!(&restored, original, "rank {rank}");
        file.close().expect("close");
    }

    // Aggregation actually happened: far fewer chunks than writes.
    let stats = fs.stats();
    assert!(
        stats.aggregation_ratio() > 4.0,
        "ratio {}",
        stats.aggregation_ratio()
    );
    assert_eq!(stats.chunks_sealed, stats.chunks_completed);

    fs.unmount().expect("unmount");
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn restart_works_directly_from_backend_without_crfs() {
    // Paper §V-F: "an application can be restarted directly from the
    // back-end filesystem, without the need to mount CRFS."
    let root = std::env::temp_dir().join(format!("crfs-it-direct-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let backend = Arc::new(LocalFileBackend::new(&root).expect("backend"));
    let fs = Crfs::mount(backend, small_config()).expect("mount");

    let image = ProcessImage::synthetic(77, 1 << 20, 123);
    let mut file = fs.create("/solo.img").expect("create");
    CheckpointWriter::new()
        .write_image(&mut file, &image)
        .expect("dump");
    file.close().expect("close");
    fs.unmount().expect("unmount");

    // Read the raw file straight from the host filesystem.
    let mut raw = std::fs::File::open(root.join("solo.img")).expect("raw open");
    let restored = RestartReader::new().read_image(&mut raw).expect("read");
    assert_eq!(restored, image);
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn vfs_syscall_surface_end_to_end() {
    let be = Arc::new(MemBackend::new());
    let fs = Crfs::mount(be.clone(), small_config()).expect("mount");
    let vfs = Vfs::new();
    vfs.mount("/mnt/crfs", fs).expect("mount point");

    vfs.mkdir_all("/mnt/crfs/a/b").expect("mkdir");
    let fd = vfs.create("/mnt/crfs/a/b/data").expect("create");
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    vfs.write(fd, &payload).expect("write"); // > max_write: split happens
    vfs.fsync(fd).expect("fsync");

    let mut back = vec![0u8; payload.len()];
    assert_eq!(vfs.pread(fd, 0, &mut back).expect("pread"), payload.len());
    assert_eq!(back, payload);
    vfs.close(fd).expect("close");

    assert_eq!(
        vfs.file_len("/mnt/crfs/a/b/data").expect("len"),
        payload.len() as u64
    );
    assert_eq!(be.contents("/a/b/data").expect("backend file"), payload);
}

#[test]
fn backend_failure_surfaces_and_pool_survives() {
    let be = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FailureMode::FailWritesAfter(2),
    ));
    let fs = Crfs::mount(be, small_config()).expect("mount");

    let f = fs.create("/doomed").expect("create");
    // 4 chunks of data: writes 3+ will fail in the background.
    f.write(&vec![1u8; 1 << 20]).expect("buffered write ok");
    let err = f.close().expect_err("close must surface the async error");
    assert!(matches!(err, CrfsError::DeferredWrite { .. }), "{err:?}");

    // The mount is still healthy: pool buffers recycled, new files work
    // until their own writes fail.
    let stats = fs.stats();
    assert_eq!(stats.chunks_sealed, stats.chunks_completed);
    fs.unmount().expect("unmount");
}

#[test]
fn checkpoint_write_pattern_aggregates_like_paper() {
    // A BLCR dump through CRFS should collapse hundreds of writes into a
    // handful of chunk-sized backend writes, like the paper's 7800 -> a
    // few dozen reduction per node.
    let be = Arc::new(DiscardBackend::new());
    let fs = Crfs::mount(be, CrfsConfig::default()).expect("mount");
    let image = ProcessImage::synthetic(1, 23 << 20, 42); // the paper's 23 MB image
    let mut f = fs.create("/rank0").expect("create");
    let wstats = CheckpointWriter::new()
        .write_image(&mut f, &image)
        .expect("dump");
    f.close().expect("close");

    let s = fs.stats();
    assert!(
        wstats.writes > 50,
        "BLCR emits many writes: {}",
        wstats.writes
    );
    // 23 MB / 4 MiB chunks => 6-7 chunk writes.
    assert!(
        s.chunks_sealed <= 8,
        "chunks: {} (writes {})",
        s.chunks_sealed,
        s.writes
    );
    assert_eq!(s.bytes_in, s.bytes_out);
    fs.unmount().expect("unmount");
}

#[test]
fn unmount_is_idempotent_and_flushes() {
    let be = Arc::new(MemBackend::new());
    let fs = Crfs::mount(be.clone(), small_config()).expect("mount");
    let f = fs.create("/late").expect("create");
    f.write(b"last words").expect("write");
    // Unmount with the handle still open: data must land.
    fs.unmount().expect("first unmount");
    assert!(matches!(fs.unmount(), Err(CrfsError::Unmounted)));
    assert_eq!(be.contents("/late").expect("file"), b"last words");
    drop(f); // dropping the stale handle must not panic
}
