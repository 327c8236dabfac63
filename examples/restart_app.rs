//! Checkpoint/restart round trip, the paper's §V-F restart path: a
//! "solver" checkpoints its process image through CRFS, crashes, and is
//! restarted by reading the image **directly from the backing
//! filesystem, with no CRFS mounted** — possible because CRFS never
//! changes the file layout it writes.
//!
//! ```sh
//! cargo run --release --example restart_app
//! ```

use std::sync::Arc;
use std::time::Instant;

use crfs::blcr::{CallbackRegistry, CheckpointWriter, Phase, ProcessImage, RestartReader};
use crfs::core::backend::{Backend, LocalFileBackend, OpenOptions, ReadCursor};
use crfs::core::{Crfs, CrfsConfig};

/// A toy iterative solver whose whole state lives in one buffer.
struct Solver {
    /// Iteration counter — the state we must not lose.
    step: u64,
    /// "Solution" state, mutated every step.
    state: Vec<u8>,
}

impl Solver {
    fn new() -> Solver {
        Solver {
            step: 0,
            state: vec![0u8; 4 << 20],
        }
    }

    fn advance(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step += 1;
            let touch = (self.step as usize * 8191) % self.state.len();
            self.state[touch] = self.state[touch].wrapping_add(1);
        }
    }

    /// Serializes the solver into a BLCR-style process image.
    fn to_image(&self) -> ProcessImage {
        let mut image = ProcessImage::new(std::process::id());
        image.registers.bytes[..8].copy_from_slice(&self.step.to_le_bytes());
        image.vmas.push(crfs::blcr::Vma::new(
            0x7f00_0000_0000,
            crfs::blcr::VmaKind::Heap,
            self.state.clone(),
        ));
        image
    }

    /// Rebuilds a solver from a restored image.
    fn from_image(image: &ProcessImage) -> Solver {
        let mut step_bytes = [0u8; 8];
        step_bytes.copy_from_slice(&image.registers.bytes[..8]);
        Solver {
            step: u64::from_le_bytes(step_bytes),
            state: image.vmas[0].data.clone(),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("crfs-restart-{}", std::process::id()));
    let backend: Arc<dyn Backend> = Arc::new(LocalFileBackend::new(&root)?);

    // ------------------------------------------------------------------
    // Run + checkpoint through CRFS.
    // ------------------------------------------------------------------
    let mut solver = Solver::new();
    solver.advance(1_000_000);
    let checksum_before = solver.state.iter().map(|&b| b as u64).sum::<u64>();

    // BLCR-style pre/post hooks (paper §II-B: "it provides callbacks to
    // be extended by applications"). An MPI stack would quiesce its
    // channels in the pre-checkpoint hook (phase 1 of the 3-phase
    // protocol) and resume them in the post hook.
    let mut callbacks = CallbackRegistry::new();
    callbacks.register(Phase::PreCheckpoint, |_| Ok(()));
    callbacks.register(Phase::PostCheckpoint, |_| Ok(()));

    let fs = Crfs::mount(Arc::clone(&backend), CrfsConfig::default())?;
    fs.mkdir_all("/ckpt")?;
    callbacks.run(Phase::PreCheckpoint)?;
    let t0 = Instant::now();
    let mut file = fs.create("/ckpt/solver.img")?;
    let stats = CheckpointWriter::new().write_image(&mut file, &solver.to_image())?;
    file.close()?;
    callbacks.run(Phase::PostCheckpoint)?;
    println!(
        "checkpointed step {} ({} writes, {} bytes) through CRFS in {:?}",
        solver.step,
        stats.writes,
        stats.bytes,
        t0.elapsed()
    );
    let snap = fs.stats();
    println!(
        "CRFS aggregated {} app writes into {} backend chunks",
        snap.writes, snap.chunks_sealed
    );
    fs.unmount()?;

    // ------------------------------------------------------------------
    // "Crash": the solver is gone.
    // ------------------------------------------------------------------
    drop(solver);

    // ------------------------------------------------------------------
    // Restart directly from the backend — CRFS is NOT mounted.
    // ------------------------------------------------------------------
    let t1 = Instant::now();
    let img_file = backend.open("/ckpt/solver.img", OpenOptions::read_only())?;
    let mut cursor = ReadCursor::new(img_file);
    let image = RestartReader::new().read_image(&mut cursor)?;
    let mut solver = Solver::from_image(&image);
    println!(
        "\nrestarted from {} (no CRFS mount) in {:?}",
        root.join("ckpt/solver.img").display(),
        t1.elapsed()
    );

    let checksum_after = solver.state.iter().map(|&b| b as u64).sum::<u64>();
    assert_eq!(solver.step, 1_000_000, "iteration counter restored");
    assert_eq!(
        checksum_before, checksum_after,
        "state restored bit-exactly"
    );
    println!(
        "state verified: step={} checksum={checksum_after}",
        solver.step
    );

    // The restarted solver keeps computing.
    solver.advance(1000);
    assert_eq!(solver.step, 1_001_000);
    println!("resumed execution to step {}", solver.step);

    std::fs::remove_dir_all(&root)?;
    Ok(())
}
