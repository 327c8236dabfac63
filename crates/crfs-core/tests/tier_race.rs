//! A successful `drain_barrier()` leaves the durable tier byte-equal to
//! the fast tier, on the stack shape the `slow_durable` benchmark
//! mounts: `Tiered(LocalFileBackend, Throttled(LocalFileBackend))` with
//! watermarks an epoch overruns wherever the fast tier outpaces the
//! modelled device, so fast-acked and degraded writes mix. Regression
//! test for a lost-chunk bug: with several write handles live on one
//! durable `LocalFile`, one handle's extent preallocation `set_len`
//! shrank the file under chunks another handle had already written, and
//! the barrier still returned `Ok`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crfs_core::backend::{
    Backend, LocalFileBackend, OpenOptions, ThrottleParams, ThrottledBackend, TieredBackend,
};
use crfs_core::CrfsConfig;

const CHUNK: usize = 1 << 20;
const CHUNKS_PER_FILE: usize = 64;
const FILES: usize = 2;
const WRITERS: usize = 4;
const EPOCHS: u8 = 3;

/// Position- and epoch-derived content, never zero: a chunk that lands
/// next door, comes from another epoch or reads back as a hole is
/// caught. One byte value per chunk keeps the writers faster than the
/// modelled device in unoptimised builds too.
fn chunk_bytes(epoch: u8, file: usize, idx: usize) -> Vec<u8> {
    vec![((epoch as usize * 131 + file * 17 + idx) % 251) as u8 + 1; CHUNK]
}

fn first_difference(fast: &Path, durable: &Path) -> Option<String> {
    let a = std::fs::read(fast).expect("fast copy readable");
    let b = std::fs::read(durable).expect("durable copy readable");
    if a == b {
        return None;
    }
    if a.len() != b.len() {
        return Some(format!(
            "lengths differ: fast {} durable {}",
            a.len(),
            b.len()
        ));
    }
    let at = a.iter().zip(&b).position(|(x, y)| x != y)?;
    let zeros = b[at..(at + CHUNK).min(b.len())].iter().all(|&v| v == 0);
    Some(format!(
        "chunk {} differs from the fast copy (durable side zero-filled: {zeros})",
        at / CHUNK
    ))
}

#[test]
fn barrier_leaves_durable_byte_equal_to_fast() {
    let root: PathBuf = std::env::temp_dir().join(format!("crfs-tier-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (fast_dir, durable_dir) = (root.join("fast"), root.join("durable"));
    // The SATA model ten times faster: same shape (a seek costs two
    // thirds of a chunk's transfer), an epoch takes ~0.2 s.
    let device = ThrottleParams {
        bandwidth: 750 << 20,
        per_op_latency: Duration::from_micros(10),
        seek_penalty: Duration::from_micros(850),
    };
    let be = TieredBackend::from_config(
        Arc::new(LocalFileBackend::new(&fast_dir).unwrap()),
        Arc::new(ThrottledBackend::new(
            LocalFileBackend::new(&durable_dir).unwrap(),
            device,
        )),
        &CrfsConfig::default().with_tier_watermarks(16 << 20, 64 << 20),
    );
    be.mkdir("/ckpt").unwrap();
    let name = |file: usize| format!("/ckpt/rank{file}.img");

    for epoch in 0..EPOCHS {
        let files: Vec<_> = (0..FILES)
            .map(|f| be.open(&name(f), OpenOptions::create_truncate()).unwrap())
            .collect();
        // Writers take chunks off one counter, files interleaved, the
        // way the engine's IO threads take sealed chunks off its ring.
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                s.spawn(|| loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= FILES * CHUNKS_PER_FILE {
                        break;
                    }
                    let (file, idx) = (n % FILES, n / FILES);
                    files[file]
                        .write_at((idx * CHUNK) as u64, &chunk_bytes(epoch, file, idx))
                        .unwrap();
                });
            }
        });
        drop(files);
        be.drain_barrier().unwrap();
        assert_eq!(
            be.tier_counters().resident_bytes,
            0,
            "epoch {epoch}: barrier drained all"
        );
        for f in 0..FILES {
            let rel = format!("ckpt/rank{f}.img");
            let fast = fast_dir.join(&rel);
            assert_eq!(
                std::fs::metadata(&fast).unwrap().len(),
                (CHUNKS_PER_FILE * CHUNK) as u64
            );
            if let Some(diff) = first_difference(&fast, &durable_dir.join(&rel)) {
                panic!("epoch {epoch}, {rel}: durable tier {diff} after a successful barrier");
            }
        }
    }
    assert_eq!(be.tier_counters().drain_failed, 0);
    drop(be);
    std::fs::remove_dir_all(&root).unwrap();
}
