//! # simkit — deterministic discrete-event simulation engine
//!
//! A small, dependency-light discrete-event simulation (DES) kernel used by
//! the CRFS reproduction to model cluster storage hardware (disks, page
//! caches, networks, file servers) on a **virtual clock**.
//!
//! Simulated processes are ordinary Rust `async` functions driven by a
//! single-threaded executor ([`Sim`]). Time only advances when every task is
//! blocked; the executor then jumps the clock to the earliest pending timer.
//! Scheduling is strictly FIFO and timers are ordered by `(deadline,
//! registration sequence)`, which makes every simulation **bit-for-bit
//! deterministic** for a given seed — a property the test suite asserts.
//!
//! ## Example
//!
//! ```
//! use simkit::{Sim, time::{sleep, now}, Duration};
//!
//! let mut sim = Sim::new(42);
//! let elapsed = sim.run(async {
//!     let start = now();
//!     sleep(Duration::from_millis(250)).await;
//!     now().since(start)
//! });
//! assert_eq!(elapsed, Duration::from_millis(250));
//! ```
//!
//! ## Modules
//! - [`executor`]: the [`Sim`] event loop, [`Handle`](executor::Handle), task spawning.
//! - [`time`]: [`time::SimTime`], [`time::sleep`], timeouts.
//! - [`sync`]: fair async [`Semaphore`](sync::Semaphore),
//!   [`Notify`](sync::Notify), [`WaitGroup`](sync::WaitGroup) and MPMC
//!   [`channel`](sync::channel).
//! - [`rng`]: seeded, stream-splittable random numbers ([`rng::SimRng`]).
//! - [`stats`]: counters and log-bucketed histograms for measurements.

pub mod executor;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use executor::{spawn, JoinHandle, Sim};
pub use std::time::Duration;
pub use time::{now, sleep, SimTime};
