//! # storage-model — calibrated storage performance models
//!
//! Virtual-time models of the storage stack in the CRFS paper's testbed
//! (ICPP 2011, §V-A): 64 nodes with 8-core Xeons, 6 GB RAM and a single
//! 250 GB SATA disk each; Lustre 1.8.3 with 1 MDS + 3 OSS over InfiniBand
//! DDR; an NFSv3 server over IPoIB. All models run on the
//! [`simkit`] discrete-event executor and charge *virtual* time.
//!
//! The models are deliberately mechanistic rather than curve-fitted: the
//! effects the paper measures emerge from first-order mechanics —
//!
//! - **[`disk::DiskModel`]** — a rotational disk whose service time is
//!   seek + rotation + transfer; sequential access is an order of
//!   magnitude faster than fragmented access (Fig. 10's argument).
//! - **[`cache::PageCache`]** — dirty-page accounting with background
//!   write-back and dirty-ratio throttling, which turns large checkpoints
//!   (class D) into write-back-bound workloads while small ones (B/C) stay
//!   CPU/contention-bound (the paper's diminishing-returns effect).
//! - **[`localfs::LocalFs`]** — a VFS+ext3 model: per-write CPU cost that
//!   grows with writer concurrency (the "severe contentions in the VFS
//!   layer" of §III), a block allocator with per-file reservation windows
//!   (fragmentation under concurrency), and the cache+disk pipeline.
//! - **[`net::NetLink`]** — bandwidth/latency pipes with presets for
//!   IB DDR, IPoIB and 1 GigE.
//! - **[`lustre::LustreModel`]** — 1 MDS + N OSS, striped objects, 1 MiB
//!   RPCs, per-RPC server CPU; RPC-count-sensitive, as real Lustre is.
//! - **[`nfs::NfsModel`]** — a single NFSv3 server with `wsize`-limited
//!   write RPCs and one request queue; the paper's pathological backend.
//!
//! One model is the odd one out: **[`rpc::RpcStore`]** charges *wall
//! clock* instead of virtual time — it implements the real library's
//! `Backend` trait so `crfs-core`'s restart read-ahead can be measured
//! live against a latency-bound store (the benchmark's `cold_restart`
//! workload).
//!
//! Every parameter lives in [`params`] with its provenance documented.
//! Calibration tests in `cluster-sim` assert the *shapes* of the paper's
//! results, not absolute seconds.

pub mod cache;
pub mod disk;
pub mod localfs;
pub mod lustre;
pub mod net;
pub mod nfs;
pub mod params;
pub mod pvfs;
pub mod rpc;

pub use disk::DiskModel;
pub use localfs::LocalFs;
pub use lustre::{LustreClient, LustreModel};
pub use net::NetLink;
pub use nfs::{NfsClient, NfsModel};
pub use params::*;
pub use pvfs::{PvfsClient, PvfsModel, PvfsServer};
pub use rpc::{RpcStore, RpcStoreParams};
