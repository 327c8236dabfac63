//! Criterion micro-benchmarks of crfs-core's hot paths: the chunk
//! planner, buffer-pool churn, and the single-writer aggregation path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use crfs_core::backend::DiscardBackend;
use crfs_core::chunking::{plan_write, ChunkState};
use crfs_core::pool::BufferPool;
use crfs_core::{Crfs, CrfsConfig};

fn bench_plan_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_planner");
    for (label, cur, off, len) in [
        (
            "append_small",
            Some(ChunkState {
                file_offset: 0,
                fill: 100,
            }),
            100u64,
            4096usize,
        ),
        (
            "fill_and_seal",
            Some(ChunkState {
                file_offset: 0,
                fill: 4 << 20,
            })
            .map(|c: ChunkState| ChunkState {
                fill: c.fill - 4096,
                ..c
            }),
            (4 << 20) - 4096,
            8192,
        ),
        ("span_chunks", None, 0, 16 << 20),
        (
            "discontinuity",
            Some(ChunkState {
                file_offset: 0,
                fill: 1000,
            }),
            9_000_000,
            4096,
        ),
    ] {
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| plan_write(std::hint::black_box(cur), off, len, 4 << 20));
        });
    }
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    let pool = BufferPool::new(64 << 10, 8);
    c.bench_function("pool_acquire_release", |b| {
        b.iter(|| {
            let (buf, _) = pool.acquire().expect("open pool");
            pool.release(buf);
        });
    });
}

fn bench_write_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("write_path_single_writer");
    for size in [4096usize, 64 << 10, 1 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let fs =
                Crfs::mount(Arc::new(DiscardBackend::new()), CrfsConfig::default()).expect("mount");
            let f = fs.create("/bench").expect("create");
            let buf = vec![0u8; size];
            b.iter(|| f.write(&buf).expect("write"));
            drop(f);
            fs.unmount().ok();
        });
    }
    g.finish();
}

criterion_group!(benches, bench_plan_write, bench_pool, bench_write_path);
criterion_main!(benches);
