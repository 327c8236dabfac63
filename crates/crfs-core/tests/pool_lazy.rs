//! Mount must not touch the pool's pages: a `ChunkBuf` is `calloc`ed,
//! so a pool far larger than this test's bound costs address space, not
//! resident memory, until writers fill it. A pool that is zero-filled (or
//! otherwise faulted in) at construction shows up in `raw_aggregate`'s
//! `recover_s` and `setup_s`. Alone in its binary so no other test's
//! allocations move the process's resident size.
#![cfg(target_os = "linux")]

use crfs_core::pool::BufferPool;

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn building_a_256_mib_pool_leaves_its_pages_untouched() {
    let before = rss_kib();
    let pool = BufferPool::new(4 << 20, 64);
    let grown = rss_kib().saturating_sub(before);
    assert!(grown < 16 << 10, "VmRSS grew {grown} KiB at construction");
    // Filling one chunk faults in that chunk, and only that chunk.
    let (mut buf, _) = pool.acquire().unwrap();
    buf.fill(1);
    let grown = rss_kib().saturating_sub(before);
    assert!((4 << 10..20 << 10).contains(&grown), "{grown} KiB");
    pool.release(buf);
}
