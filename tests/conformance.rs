//! Conformance: the real threaded CRFS (`crfs-core`) and the simulated
//! CRFS (`cluster-sim::crfs_sim`) must make identical chunking decisions
//! for identical write streams — they share `crfs_core::chunking`, and
//! this test proves the integration preserves that.

use std::rc::Rc;
use std::sync::Arc;

use crfs::core::backend::MemBackend;
use crfs::core::chunking::{apply_plan, plan_write, seals_in, ChunkState};
use crfs::core::{Crfs, CrfsConfig};
use crfs::sim::blcr::blcr_write_stream;
use crfs::sim::{CrfsSim, Target};
use crfs::simkit::rng::SimRng;
use crfs::simkit::Sim;
use crfs::storage::params::{
    AllocParams, CacheParams, CrfsCostParams, DiskParams, FuseParams, VfsCostParams,
};
use crfs::storage::LocalFs;

/// Replays a stream through the pure planner, counting sealed chunks and
/// final fill — the reference behaviour.
fn reference_chunks(stream: &[u64], chunk_size: usize, max_write: u64) -> (u64, u64) {
    let mut cur: Option<ChunkState> = None;
    let mut sealed = 0u64;
    let mut off = 0u64;
    for &len in stream {
        let mut remaining = len;
        while remaining > 0 {
            let piece = remaining.min(max_write);
            let plan = plan_write(cur, off, piece as usize, chunk_size);
            sealed += seals_in(&plan) as u64;
            cur = apply_plan(cur, &plan, chunk_size);
            off += piece;
            remaining -= piece;
        }
    }
    let tail = cur.map(|c| c.fill as u64).unwrap_or(0);
    (sealed, tail)
}

fn run_real(stream: &[u64], config: &CrfsConfig) -> (u64, u64) {
    let fs = Crfs::mount(Arc::new(MemBackend::new()), config.clone()).expect("mount");
    let f = fs.create("/conf").expect("create");
    // Reuse one buffer for the largest write.
    let max = *stream.iter().max().expect("non-empty") as usize;
    let buf = vec![7u8; max];
    for &len in stream {
        // Split like the VFS/FUSE layer would.
        for piece in (0..len)
            .step_by(config.max_write)
            .map(|o| (len - o).min(config.max_write as u64))
        {
            f.write(&buf[..piece as usize]).expect("write");
        }
    }
    let full_seals = fs.stats().chunks_sealed;
    f.close().expect("close");
    let s = fs.stats();
    // Chunks sealed before close vs the close-time partial seal.
    let tail_bytes = s.bytes_out - full_seals * config.chunk_size as u64;
    fs.unmount().expect("unmount");
    (full_seals, tail_bytes)
}

fn run_sim(stream: Vec<u64>, config: CrfsConfig) -> (u64, u64) {
    let mut sim = Sim::new(0);
    sim.run(async move {
        let fs = LocalFs::new(
            VfsCostParams::ext3_node(),
            AllocParams::ext3(),
            CacheParams::compute_node(),
            DiskParams::node_sata(),
            SimRng::new(0),
        );
        let chunk_size = config.chunk_size;
        let crfs = CrfsSim::new(
            Target::Ext3(Rc::clone(&fs)),
            config,
            CrfsCostParams::paper(),
            FuseParams::paper(),
        );
        let fh = crfs.open().await;
        let mut off = 0u64;
        for len in stream {
            crfs.app_write(fh, off, len).await;
            off += len;
        }
        let full_seals = crfs.stats().chunks_sealed.get();
        crfs.close(fh).await;
        let tail = crfs.stats().bytes_out.get() - full_seals * chunk_size as u64;
        fs.stop();
        (full_seals, tail)
    })
}

#[test]
fn real_and_sim_agree_on_blcr_streams() {
    let config = CrfsConfig::default()
        .with_chunk_size(1 << 20)
        .with_pool_size(4 << 20);
    for seed in [1u64, 2, 3] {
        let mut rng = SimRng::new(seed);
        let stream = blcr_write_stream(6 << 20, &mut rng);
        let expect = reference_chunks(&stream, config.chunk_size, config.max_write as u64);
        let real = run_real(&stream, &config);
        let sim = run_sim(stream.clone(), config.clone());
        assert_eq!(real, expect, "real vs planner, seed {seed}");
        assert_eq!(sim, expect, "sim vs planner, seed {seed}");
    }
}

/// Batched submission must be invisible to chunking: with batching
/// disabled (`submit_batch = 1`), at the default, and far beyond it, the
/// real filesystem and the simulator replay a stream to byte-identical
/// seal counts and tail bytes.
#[test]
fn real_and_sim_agree_across_submit_batch_sizes() {
    for submit_batch in [1usize, 4, 64] {
        let config = CrfsConfig::default()
            .with_chunk_size(256 << 10)
            .with_pool_size(2 << 20)
            .with_submit_batch(submit_batch);
        let mut rng = SimRng::new(7);
        let stream = blcr_write_stream(4 << 20, &mut rng);
        let expect = reference_chunks(&stream, config.chunk_size, config.max_write as u64);
        assert_eq!(
            run_real(&stream, &config),
            expect,
            "real vs planner, batch {submit_batch}"
        );
        assert_eq!(
            run_sim(stream, config),
            expect,
            "sim vs planner, batch {submit_batch}"
        );
    }
}

#[test]
fn real_and_sim_agree_on_adversarial_sizes() {
    // Sizes straddling every boundary: sub-page, page, max_write,
    // chunk_size, multi-chunk.
    let config = CrfsConfig::default()
        .with_chunk_size(256 << 10)
        .with_pool_size(1 << 20);
    let stream: Vec<u64> = vec![
        1,
        63,
        64,
        4096,
        (128 << 10) - 1,
        128 << 10,
        (128 << 10) + 1,
        (256 << 10) - 4096,
        256 << 10,
        (512 << 10) + 17,
        3,
        1 << 20,
    ];
    let expect = reference_chunks(&stream, config.chunk_size, config.max_write as u64);
    assert_eq!(run_real(&stream, &config), expect, "real");
    assert_eq!(run_sim(stream, config), expect, "sim");
}
