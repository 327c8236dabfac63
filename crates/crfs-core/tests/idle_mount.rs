//! An idle mount is idle: its engine threads — and a tiered backend's
//! drain workers — park untimed and make no wakeups while nothing is
//! submitted. Alone in this test binary so no other test's `crfs-*`
//! threads run in the process being measured.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use crfs_core::backend::{MemBackend, TieredBackend};
use crfs_core::{Backend, Crfs, CrfsConfig};

/// (threads named `crfs-*`, their summed voluntary context switches).
fn crfs_thread_switches() -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
        };
        if field("Name:").is_some_and(|n| n.starts_with("crfs-")) {
            threads += 1;
            switches += field("voluntary_ctxt_switches:")
                .and_then(|v| v.parse::<u64>().ok())
                .expect("status carries voluntary_ctxt_switches");
        }
    }
    (threads, switches)
}

fn mem() -> Arc<dyn Backend> {
    Arc::new(MemBackend::new())
}

/// Mounts over `backend` (which runs `drain_workers` threads of its
/// own), sends one write through every thread, and asserts that they
/// all then stay asleep for a second.
fn assert_idle(backend: Arc<dyn Backend>, drain_workers: usize) {
    let fs = Crfs::mount(backend, CrfsConfig::default()).unwrap();
    // One write so every engine position (and the drain) has run at
    // least once.
    let f = fs.create("/warm").unwrap();
    f.write(&[1u8; 4096]).unwrap();
    f.close().unwrap();
    fs.advance_epoch().unwrap();

    let (threads, before) = crfs_thread_switches();
    assert!(
        threads > fs.config().io_threads + drain_workers,
        "found {threads} crfs-* threads; the engine's issue workers and reaper \
         and the tier's drain workers should be named so"
    );
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = crfs_thread_switches();
    // A 1 ms park-and-recheck on 5 threads scores about 5,000 here.
    assert!(
        after - before < 200,
        "idle crfs-* threads woke {} times in 1 s",
        after - before
    );
    fs.unmount().unwrap();
}

// One test function: two mounts measured at once would count each
// other's threads.
#[test]
fn idle_mount_makes_no_wakeups() {
    assert_idle(mem(), 0);
    // Tiered: the same engine plus the two `crfs-drain*` workers.
    let tiered = TieredBackend::from_config(mem(), mem(), &CrfsConfig::default());
    assert_idle(Arc::new(tiered), 2);
}
