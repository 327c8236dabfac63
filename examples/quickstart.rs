//! Quickstart: mount CRFS over a real directory, write a "checkpoint"
//! through the aggregation pipeline, read it back, and print the
//! aggregation statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use crfs::core::backend::LocalFileBackend;
use crfs::core::{Crfs, CrfsConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Back CRFS with a scratch directory on the host filesystem — the
    // equivalent of mounting CRFS over ext3 in the paper.
    let root = std::env::temp_dir().join(format!("crfs-quickstart-{}", std::process::id()));
    let backend = Arc::new(LocalFileBackend::new(&root)?);

    // Paper defaults: 4 MiB chunks, 16 MiB pool, 4 IO threads.
    let fs = Crfs::mount(backend, CrfsConfig::default())?;
    fs.mkdir_all("/ckpt")?;

    // A checkpoint-shaped write stream: many small writes, CRFS turns
    // them into a handful of large backend writes.
    let file = fs.create("/ckpt/rank0.img")?;
    let header = vec![0x42u8; 48];
    let page_cluster = vec![0x17u8; 8 * 1024];
    for _ in 0..64 {
        file.write(&header)?;
        for _ in 0..16 {
            file.write(&page_cluster)?;
        }
    }
    file.close()?; // blocks until every chunk reached the backend

    // Read it back through the same mount.
    let reread = fs.open("/ckpt/rank0.img")?;
    let len = reread.len()?;
    let mut buf = vec![0u8; 64];
    reread.read_at(0, &mut buf)?;
    assert!(buf[..48].iter().all(|&b| b == 0x42));
    reread.close()?;

    let stats = fs.stats();
    println!("wrote {len} bytes into {:?}", root.join("ckpt/rank0.img"));
    println!("--- CRFS aggregation statistics ---");
    println!("{stats}");
    println!(
        "\n{} application writes became {} backend chunk writes ({}x aggregation)",
        stats.writes,
        stats.chunks_sealed,
        stats.aggregation_ratio().round()
    );

    fs.unmount()?;
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
