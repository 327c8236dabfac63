//! IO-throttling ablation on the real library: sweep the IO-thread count
//! over a seek-sensitive throttled backend, reproducing the paper's §V-B
//! finding that ~4 IO threads balance backend utilization against
//! contention ("too many IO threads tend to generate high level of
//! contentions... too few cannot unleash the full potentials").
//!
//! This runs in wall-clock time against a `ThrottledBackend` that charges
//! a device model (bandwidth + seek penalty for non-sequential access),
//! so expect it to take ~10-30 s.
//!
//! ```sh
//! cargo run --release --example tune_io_threads
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crfs::core::backend::{MemBackend, ThrottleParams, ThrottledBackend};
use crfs::core::{Crfs, CrfsConfig};
use crfs::trace::render::bar_chart;

const WRITERS: usize = 8;
const PER_WRITER: usize = 24 << 20; // 24 MiB each
const WRITE_SIZE: usize = 8 << 10;

fn run(io_threads: usize) -> f64 {
    // A fast-ish device where interleaving different files costs seeks:
    // exactly the regime where thread-count throttling matters.
    let params = ThrottleParams {
        bandwidth: 700 << 20,
        per_op_latency: Duration::from_micros(30),
        seek_penalty: Duration::from_micros(900),
    };
    let backend = Arc::new(ThrottledBackend::new(MemBackend::new(), params));
    let fs = Crfs::mount(
        backend,
        CrfsConfig::default()
            .with_io_threads(io_threads)
            .with_pool_size(32 << 20),
    )
    .expect("mount");

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let fs = Arc::clone(&fs);
        handles.push(std::thread::spawn(move || {
            let f = fs.create(&format!("/rank{w}")).expect("create");
            let buf = vec![w as u8; WRITE_SIZE];
            for _ in 0..(PER_WRITER / WRITE_SIZE) {
                f.write(&buf).expect("write");
            }
            f.close().expect("close");
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    fs.unmount().expect("unmount");
    elapsed
}

fn main() {
    println!(
        "sweeping IO threads: {WRITERS} writers x {} MiB, 8 KiB writes, seek-sensitive backend\n",
        PER_WRITER >> 20
    );
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8, 16] {
        let secs = run(threads);
        let bw = (WRITERS * PER_WRITER) as f64 / secs / (1 << 20) as f64;
        println!("  io_threads={threads:<2}  {secs:>6.2} s   {bw:>7.1} MiB/s");
        rows.push((format!("{threads} threads"), bw));
    }
    println!("\naggregate bandwidth by IO thread count (higher is better):");
    print!("{}", bar_chart(&rows, 40, "MiB/s"));
    println!("\nThe paper settles on 4 IO threads (§V-B); the sweet spot here should");
    println!("likewise sit in the low single digits: enough parallelism to cover");
    println!("device latency, not enough to thrash it with interleaved streams.");
}
