//! # cluster-sim — the simulated InfiniBand cluster
//!
//! Assembles the `storage-model` devices into the paper's testbed and
//! runs checkpoint experiments on it:
//!
//! - [`blcr`]: the BLCR checkpoint **write-pattern generator**, emitting
//!   the Table-I size distribution (half the writes are ≤ 64 B headers,
//!   a third are 4–16 KiB page clusters, a handful of ≥ 1 MiB region
//!   writes carry 61% of the bytes) scaled to any image size.
//! - [`mpi`]: the three MPI stacks (MVAPICH2, OpenMPI, MPICH2) with
//!   Table II per-process image sizes and the uniform three-phase
//!   checkpoint protocol (§II-C).
//! - [`fuse`]: the FUSE dispatch cost model (request splitting at
//!   `max_write`, crossing + copy cost).
//! - [`crfs_sim`]: **CRFS's write path re-instantiated on virtual time**
//!   — the same chunking policy as `crfs-core` (literally the same
//!   [`crfs_core::chunking`] planner), with a buffer-pool semaphore, a
//!   work queue, and IO worker tasks.
//! - [`target`]: the backend dispatch enum (ext3 / Lustre / NFS clients).
//! - [`experiment`]: drivers that reproduce every figure and table of the
//!   paper's evaluation on this substrate.

pub mod blcr;
pub mod crfs_sim;
pub mod experiment;
pub mod fuse;
pub mod mpi;
pub mod target;

pub use blcr::blcr_write_stream;
pub use crfs_sim::CrfsSim;
pub use experiment::{run_checkpoint, BackendKind, CheckpointResult, CheckpointSpec};
pub use mpi::{LuClass, MpiStack};
pub use target::Target;
