//! A full checkpoint/restart cycle for a synthetic MPI-rank-like
//! application, through CRFS, with BLCR-style images.
//!
//! Eight "ranks" (threads) each build a process image, register MPI-style
//! pre/post callbacks, dump their image through a CRFS mount concurrently
//! (the contended scenario CRFS targets), then the example restarts every
//! image and verifies bit-exact state recovery.
//!
//! ```sh
//! cargo run --release --example checkpoint_app
//! ```

use std::sync::Arc;
use std::time::Instant;

use crfs::blcr::{CallbackRegistry, CheckpointWriter, Phase, ProcessImage, RestartReader};
use crfs::core::backend::LocalFileBackend;
use crfs::core::{Crfs, CrfsConfig};

const RANKS: usize = 8;
const IMAGE_MB: u64 = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("crfs-ckpt-app-{}", std::process::id()));
    let backend = Arc::new(LocalFileBackend::new(&root)?);
    let fs = Crfs::mount(backend, CrfsConfig::default())?;
    fs.mkdir_all("/job42")?;

    // Phase 1: quiesce "communication" via BLCR-style callbacks.
    let mut callbacks = CallbackRegistry::new();
    callbacks.register(Phase::PreCheckpoint, |_| {
        println!("[mpi] channels suspended");
        Ok(())
    });
    callbacks.register(Phase::PostCheckpoint, |_| {
        println!("[mpi] channels resumed");
        Ok(())
    });
    callbacks.run(Phase::PreCheckpoint)?;

    // Phase 2: all ranks dump concurrently through the shared mount.
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for rank in 0..RANKS {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let image = ProcessImage::synthetic(1000 + rank as u32, IMAGE_MB << 20, rank as u64);
            let mut file = fs
                .create(&format!("/job42/context.{rank}"))
                .expect("create checkpoint file");
            let stats = CheckpointWriter::new()
                .write_image(&mut file, &image)
                .expect("dump image");
            file.close().expect("close waits for chunk drain");
            (image, stats)
        }));
    }
    let mut images = Vec::new();
    for h in handles {
        let (image, stats) = h.join().expect("rank thread");
        images.push(image);
        println!(
            "[rank] pid {} dumped {} bytes in {} writes ({} tiny, {} medium, {} huge)",
            images.last().expect("just pushed").pid,
            stats.bytes,
            stats.writes,
            stats.tiny_writes,
            stats.medium_writes,
            stats.huge_writes
        );
    }
    let dump = t0.elapsed();
    callbacks.run(Phase::PostCheckpoint)?;

    let s = fs.stats();
    println!("\ncheckpointed {RANKS} ranks x {IMAGE_MB} MiB in {dump:.2?}");
    println!(
        "aggregation: {} writes -> {} chunks ({:.0} writes/chunk, mean fill {:.2} MiB)",
        s.writes,
        s.chunks_sealed,
        s.aggregation_ratio(),
        s.mean_chunk_fill() / (1 << 20) as f64
    );

    // Phase 3: restart — read every image back and verify state.
    let t1 = Instant::now();
    for (rank, original) in images.iter().enumerate() {
        let mut file = fs.open(&format!("/job42/context.{rank}"))?;
        let restored = RestartReader::new().read_image(&mut file)?;
        assert_eq!(&restored, original, "rank {rank} state must match");
        file.close()?;
    }
    callbacks.run(Phase::Restart).ok();
    println!(
        "restarted + verified {RANKS} ranks in {:.2?} (bit-exact, checksums enforced)",
        t1.elapsed()
    );

    fs.unmount()?;
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
