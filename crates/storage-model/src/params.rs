//! Model parameters with documented provenance.
//!
//! Absolute values target the paper's 2011 testbed (§V-A): Intel Xeon
//! E5345-class nodes, 6 GB RAM, ST3250620NS 250 GB 7200 rpm SATA disks,
//! Mellanox DDR InfiniBand, Lustre 1.8.3 (1 MDS + 3 OSS), NFSv3 over
//! IPoIB, Linux 2.6.30 with FUSE 2.8.1. Where the paper gives no number,
//! values come from the hardware's public spec sheets or contemporary
//! kernel defaults, and are annotated below. Calibration tests assert
//! result *shapes*, so moderate deviations in these constants do not
//! change conclusions.

use std::time::Duration;

/// Rotational disk parameters.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Sustained sequential bandwidth, bytes/s.
    pub seq_bandwidth: u64,
    /// Minimum (track-to-track) seek time.
    pub min_seek: Duration,
    /// Average seek time (1/3 full stroke).
    pub avg_seek: Duration,
    /// Average rotational latency (half a revolution; 7200 rpm → 4.17 ms).
    pub rotational: Duration,
    /// Fixed per-request controller/queue overhead.
    pub per_request: Duration,
    /// Addressable sectors (512 B units).
    pub capacity_sectors: u64,
}

impl DiskParams {
    /// ST3250620NS-class node-local disk: ~75 MB/s sustained, 8.5 ms avg
    /// seek, 7200 rpm.
    pub fn node_sata() -> DiskParams {
        DiskParams {
            seq_bandwidth: 75 * MB,
            min_seek: Duration::from_micros(800),
            avg_seek: Duration::from_micros(8500),
            rotational: Duration::from_micros(4170),
            per_request: Duration::from_micros(60),
            capacity_sectors: 250 * GB / 512,
        }
    }

    /// An OST volume: Lustre OSS storage is faster than a lone SATA disk
    /// (small RAID / multiple spindles); the paper's class-D rates imply
    /// ~150–200 MB/s per OSS.
    pub fn ost_volume() -> DiskParams {
        DiskParams {
            seq_bandwidth: 200 * MB,
            min_seek: Duration::from_micros(600),
            avg_seek: Duration::from_micros(6000),
            rotational: Duration::from_micros(3000),
            per_request: Duration::from_micros(40),
            capacity_sectors: 2 * TB / 512,
        }
    }

    /// The NFS server's single data disk (same class as the nodes').
    pub fn nfs_server_disk() -> DiskParams {
        DiskParams {
            // Slightly above the node disk: server-class drive + elevator
            // over many streams.
            seq_bandwidth: 90 * MB,
            ..DiskParams::node_sata()
        }
    }
}

/// Page-cache / write-back parameters (Linux 2.6.30-era semantics).
#[derive(Debug, Clone, Copy)]
pub struct CacheParams {
    /// Dirty bytes above which writers are throttled
    /// (`vm.dirty_ratio`-style hard limit).
    pub dirty_limit: u64,
    /// Dirty bytes above which background write-back starts
    /// (`vm.dirty_background_ratio`).
    pub background_limit: u64,
    /// Bytes write-back tries to push per file before rotating to the
    /// next dirty file (`MAX_WRITEBACK_PAGES` ≈ 4 MiB in that era).
    pub writeback_batch: u64,
}

impl CacheParams {
    /// A compute node: 6 GB RAM shared with the application; with the MPI
    /// job resident, ~4 GB is page-cache-eligible. 2.6.30 defaults
    /// (dirty_ratio 10%, background 5%) of *available* memory.
    pub fn compute_node() -> CacheParams {
        CacheParams {
            dirty_limit: 400 * MB,
            background_limit: 150 * MB,
            writeback_batch: 4 * MB,
        }
    }

    /// A dedicated file server (no application pressure): bigger caches.
    pub fn server() -> CacheParams {
        CacheParams {
            dirty_limit: 2 * GB,
            background_limit: 512 * MB,
            writeback_batch: 8 * MB,
        }
    }

    /// The NFS server flushes eagerly (stable-write pressure and commit
    /// traffic keep its dirty window small).
    pub fn nfs_server() -> CacheParams {
        CacheParams {
            dirty_limit: 512 * MB,
            background_limit: 96 * MB,
            writeback_batch: 4 * MB,
        }
    }
}

/// Per-write VFS/filesystem CPU cost model.
///
/// §III of the paper: "each medium request needs new pages to be allocated
/// in page cache. These concurrent write streams cause severe contentions
/// in the VFS layer". Their Table I measures 4–16 KiB writes averaging
/// *milliseconds* under 8-way concurrency on ext3/2.6.30 — orders of
/// magnitude above an uncontended page copy. The model decomposes a write
/// into:
///
/// - a **copy** term: `pages × per_page_copy` (the memcpy into the cache,
///   fractional for sub-page appends);
/// - an **allocation** term: `units × alloc_unit × (1 + coeff·(n−1)^expo)`,
///   where a *unit* is one trip through the page-allocation/VFS-locking
///   path. Sub-page appends allocate fractionally (most land in an
///   already-allocated page); medium writes pay one unit per page; large
///   (≥ `bulk_threshold`) writes allocate in `alloc_batch_pages` batches
///   (ext3 reservation / mballoc), which is why the paper finds "large
///   sequential writes are relatively efficient".
///
/// The contention multiplier applies to the allocation term only: that is
/// the serialized part. `n` is the number of concurrently-writing threads
/// on the filesystem instance.
#[derive(Debug, Clone, Copy)]
pub struct VfsCostParams {
    /// Fixed syscall + VFS entry cost per write.
    pub base: Duration,
    /// Pure copy cost per 4 KiB page.
    pub per_page_copy: Duration,
    /// Cost of one allocation unit, uncontended.
    pub alloc_unit: Duration,
    /// Pages per allocation unit for bulk writes.
    pub alloc_batch_pages: u64,
    /// Concurrency coefficient (see above).
    pub contention_coeff: f64,
    /// Concurrency exponent (see above).
    pub contention_expo: f64,
    /// Writes at or above this size allocate in batches.
    pub bulk_threshold: u64,
    /// Multiplicative jitter: the allocation term is scaled by
    /// `1 + Exp(jitter)` per write.
    pub jitter: f64,
}

impl VfsCostParams {
    /// Calibrated so that 8 concurrent BLCR writers on one node reproduce
    /// the paper's §III profile: medium (4–16 KiB) writes dominate time at
    /// single-digit milliseconds each, tiny writes are nearly free, large
    /// writes amortize, and per-process write time for LU.C.64 lands in
    /// the paper's 4–8 s band.
    pub fn ext3_node() -> VfsCostParams {
        VfsCostParams {
            base: Duration::from_micros(2),
            per_page_copy: Duration::from_nanos(1500),
            alloc_unit: Duration::from_micros(30),
            alloc_batch_pages: 16,
            contention_coeff: 2.0,
            contention_expo: 2.0,
            bulk_threshold: 256 * KB,
            jitter: 0.35,
        }
    }

    /// Server-side ingestion (ldiskfs / exported ext3): requests arrive
    /// pre-batched from the RPC layer; contention is captured by the RPC
    /// CPU queue instead, so this cost is mild.
    pub fn server_store() -> VfsCostParams {
        VfsCostParams {
            base: Duration::from_micros(2),
            per_page_copy: Duration::from_nanos(1200),
            alloc_unit: Duration::from_micros(10),
            alloc_batch_pages: 64,
            contention_coeff: 0.3,
            contention_expo: 1.0,
            bulk_threshold: 256 * KB,
            jitter: 0.10,
        }
    }

    /// Lustre client (`llite`/`osc`) page handling: the intra-node path
    /// the paper's multiplexing experiment (Fig. 9) stresses. The buffered
    /// write path through llite is at least as heavy as ext3's (page
    /// allocation + cl-lock + grant accounting), which is why the paper's
    /// native Lustre times exceed its native ext3 times for identical
    /// data; contention across processes on a node matches ext3's curve.
    pub fn lustre_client() -> VfsCostParams {
        VfsCostParams {
            base: Duration::from_micros(2),
            per_page_copy: Duration::from_nanos(1500),
            alloc_unit: Duration::from_micros(30),
            alloc_batch_pages: 16,
            contention_coeff: 8.0,
            contention_expo: 1.2,
            bulk_threshold: 256 * KB,
            jitter: 0.30,
        }
    }

    /// NFS client page handling: the buffered-write path costs like
    /// ext3's (it is the same VFS front end); contention is milder because
    /// the shared server quickly becomes the real bottleneck.
    pub fn nfs_client() -> VfsCostParams {
        VfsCostParams {
            base: Duration::from_micros(2),
            per_page_copy: Duration::from_nanos(1500),
            alloc_unit: Duration::from_micros(80),
            alloc_batch_pages: 64,
            contention_coeff: 4.0,
            contention_expo: 2.0,
            bulk_threshold: 256 * KB,
            jitter: 0.30,
        }
    }

    /// PVFS2 client (kernel module + `pvfs2-client` daemon): there is no
    /// page cache to allocate into — data is handed straight to the
    /// request state machine — so the allocation term is nearly zero and
    /// contention is the daemon's request queue, mild and linear. The
    /// real cost of small writes is the synchronous server round trip,
    /// charged by the [`PvfsClient`](crate::PvfsClient) itself.
    pub fn pvfs_client() -> VfsCostParams {
        VfsCostParams {
            base: Duration::from_micros(4),
            per_page_copy: Duration::from_nanos(1500),
            alloc_unit: Duration::from_micros(5),
            alloc_batch_pages: 64,
            contention_coeff: 1.0,
            contention_expo: 1.0,
            bulk_threshold: 256 * KB,
            jitter: 0.20,
        }
    }

    /// Concurrency multiplier for `n` active writers.
    pub fn contention_mult(&self, n: usize) -> f64 {
        if n <= 1 {
            1.0
        } else {
            1.0 + self.contention_coeff * ((n - 1) as f64).powf(self.contention_expo)
        }
    }

    /// Allocation units charged for a write of `len` bytes. Sub-page
    /// appends mostly land in an already-allocated page (BLCR streams are
    /// sequential), so they pay a 5% fractional unit — the paper's tiny
    /// writes are "quickly absorbed by the VFS page cache".
    pub fn alloc_units(&self, len: u64) -> f64 {
        let frac_pages = len as f64 / PAGE as f64;
        if len >= self.bulk_threshold {
            (frac_pages / self.alloc_batch_pages as f64).max(1.0)
        } else if len >= PAGE {
            frac_pages.ceil()
        } else {
            frac_pages * 0.05
        }
    }

    /// Full CPU cost of a write of `len` bytes under `writers`-way
    /// concurrency, with a sampled jitter factor (pass 1.0 for the
    /// deterministic cost).
    pub fn write_cost(&self, len: u64, writers: usize, jitter: f64) -> Duration {
        let frac_pages = len as f64 / PAGE as f64;
        let copy = frac_pages * self.per_page_copy.as_secs_f64();
        let alloc = self.alloc_units(len)
            * self.alloc_unit.as_secs_f64()
            * self.contention_mult(writers)
            * jitter;
        Duration::from_secs_f64(self.base.as_secs_f64() + copy + alloc)
    }
}

/// Block-allocator behaviour (ext3 reservation windows / mballoc).
#[derive(Debug, Clone, Copy)]
pub struct AllocParams {
    /// Per-file reservation window: consecutive small writes of one file
    /// get contiguous blocks in runs of this size; different files'
    /// windows interleave on disk (the §V-E fragmentation effect).
    pub window: u64,
    /// A single write of at least this size gets one contiguous extent
    /// regardless of the window (large-request allocation).
    pub large_contig: u64,
}

impl AllocParams {
    /// ext3 with 512 KiB reservation windows.
    pub fn ext3() -> AllocParams {
        AllocParams {
            window: 512 * KB,
            large_contig: 512 * KB,
        }
    }

    /// ldiskfs (Lustre OST) with multi-MB preallocation.
    pub fn ldiskfs() -> AllocParams {
        AllocParams {
            window: 4 * MB,
            large_contig: MB,
        }
    }

    /// The NFS server's exported filesystem: server-side write gathering
    /// plus reservation gives multi-MB contiguity per file.
    pub fn nfs_export() -> AllocParams {
        AllocParams {
            window: 2 * MB,
            large_contig: MB,
        }
    }
}

/// Network link parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Usable bandwidth, bytes/s.
    pub bandwidth: u64,
    /// One-way latency.
    pub latency: Duration,
    /// Sender-side CPU per message.
    pub per_message: Duration,
}

impl NetParams {
    /// Mellanox DDR InfiniBand (~1.5 GB/s usable).
    pub fn ib_ddr() -> NetParams {
        NetParams {
            bandwidth: 1500 * MB,
            latency: Duration::from_micros(3),
            per_message: Duration::from_micros(2),
        }
    }

    /// IPoIB on DDR (~400 MB/s usable, TCP stack latency).
    pub fn ipoib() -> NetParams {
        NetParams {
            bandwidth: 400 * MB,
            latency: Duration::from_micros(25),
            per_message: Duration::from_micros(10),
        }
    }

    /// 1 GigE management network.
    pub fn gige() -> NetParams {
        NetParams {
            bandwidth: 110 * MB,
            latency: Duration::from_micros(50),
            per_message: Duration::from_micros(15),
        }
    }
}

/// Lustre deployment parameters (paper: Lustre 1.8.3, 1 MDS + 3 OSS,
/// InfiniBand transport).
#[derive(Debug, Clone, Copy)]
pub struct LustreParams {
    /// Number of object storage servers.
    pub n_oss: usize,
    /// Stripe unit (Lustre default 1 MiB).
    pub stripe_size: u64,
    /// Maximum bulk RPC payload (1 MiB in 1.8).
    pub rpc_max: u64,
    /// MDS open/create service time per file.
    pub mds_op: Duration,
    /// OSS CPU per bulk write RPC (request parsing, lock, bulk setup).
    pub server_cpu_per_rpc: Duration,
    /// Client-side CPU per RPC (osc/ptlrpc stack).
    pub client_cpu_per_rpc: Duration,
    /// OSS service concurrency (ost_num_threads effective parallelism
    /// for a single client stream mix).
    pub server_threads: usize,
    /// Per-client write-behind window: bytes of un-acknowledged bulk RPC
    /// data a client may have outstanding (the grant the servers extend;
    /// with 128 clients sharing 3 OSS the effective grant is small).
    pub client_grant: u64,
}

impl LustreParams {
    /// The paper's deployment.
    pub fn paper() -> LustreParams {
        LustreParams {
            n_oss: 3,
            stripe_size: MB,
            rpc_max: MB,
            mds_op: Duration::from_micros(300),
            server_cpu_per_rpc: Duration::from_micros(60),
            client_cpu_per_rpc: Duration::from_micros(25),
            server_threads: 8,
            client_grant: 2 * MB,
        }
    }
}

/// NFSv3 server parameters (paper: single server, IPoIB transport).
#[derive(Debug, Clone, Copy)]
pub struct NfsParams {
    /// Maximum write RPC payload (`wsize`; 32 KiB was the common setting).
    pub wsize: u64,
    /// Server CPU per write RPC (nfsd + VFS + reply).
    pub server_cpu_per_rpc: Duration,
    /// Client CPU per RPC.
    pub client_cpu_per_rpc: Duration,
    /// nfsd service concurrency that actually helps one disk (threads
    /// beyond the disk queue just wait).
    pub server_threads: usize,
    /// Per-client cap on in-flight write RPCs (client RPC slot table).
    pub client_inflight: usize,
}

impl NfsParams {
    /// The paper's deployment.
    pub fn paper() -> NfsParams {
        NfsParams {
            wsize: 32 * KB,
            server_cpu_per_rpc: Duration::from_micros(180),
            client_cpu_per_rpc: Duration::from_micros(20),
            server_threads: 4,
            client_inflight: 8,
        }
    }
}

/// PVFS2 deployment parameters.
///
/// The paper lists PVFS2 among the filesystems CRFS can be mounted over
/// (§I) and cites work \[21\] that had to *modify* PVFS to survive
/// checkpoint storms. The architectural trait that matters here is that
/// PVFS2 has **no client-side write-back cache**: every `write()` is a
/// synchronous striped request to the I/O servers (the flow protocol
/// parallelizes strips *within* one request, but the request itself
/// blocks until all servers acknowledge). Small and medium writes each
/// pay a full network round trip plus server service — exactly the
/// traffic BLCR emits — while large writes amortize beautifully. CRFS's
/// 4 MiB chunks are therefore a near-perfect client-side cache retrofit.
#[derive(Debug, Clone, Copy)]
pub struct PvfsParams {
    /// Number of I/O servers (kept equal to the Lustre deployment's 3
    /// OSS so PVFS and Lustre columns are comparable).
    pub n_servers: usize,
    /// Round-robin strip size (PVFS2 default 64 KiB).
    pub strip_size: u64,
    /// Metadata create cost (PVFS2 creates dataspaces on every server).
    pub meta_op: Duration,
    /// Server CPU per strip request (BMI receive, Trove hand-off, ack).
    pub server_cpu_per_req: Duration,
    /// Client CPU per strip request (request state machine).
    pub client_cpu_per_req: Duration,
    /// Server service concurrency per server.
    pub server_threads: usize,
    /// Per-VFS-request upcall round trip through `/dev/pvfs2-req` into
    /// the `pvfs2-client-core` daemon, serialized per node. PVFS2's
    /// kernel path is the same upcall architecture as FUSE (every write
    /// syscall crosses into a user-space daemon) and was measurably
    /// *slower* per small operation in that era — which is precisely why
    /// checkpoint storms hurt stock PVFS (the paper's reference \[21\]
    /// resorted to modifying PVFS server-side).
    pub upcall: Duration,
}

impl PvfsParams {
    /// A 3-server deployment matching the paper's Lustre data-server
    /// count, PVFS 2.8-era defaults.
    pub fn paper_era() -> PvfsParams {
        PvfsParams {
            n_servers: 3,
            strip_size: 64 * KB,
            meta_op: Duration::from_micros(500),
            server_cpu_per_req: Duration::from_micros(90),
            client_cpu_per_req: Duration::from_micros(30),
            server_threads: 8,
            upcall: Duration::from_micros(250),
        }
    }
}

/// FUSE dispatch parameters (paper: FUSE 2.8.1, `big_writes` on).
#[derive(Debug, Clone, Copy)]
pub struct FuseParams {
    /// Maximum write request size with `big_writes` (128 KiB).
    pub max_write: u64,
    /// Effective user↔kernel round trip per request: queueing on the
    /// single /dev/fuse channel, two context switches, and daemon
    /// scheduling under concurrent load. The bare crossing is ~7 µs; the
    /// *effective* per-request cost that reproduces the paper's CRFS-side
    /// absolute times (e.g. 0.5 s for a 7 MB image per process, Fig. 6a)
    /// is a few hundred µs — FUSE 2.8's known limitation.
    pub crossing: Duration,
    /// Bandwidth of the kernel→userspace copy (one memcpy).
    pub copy_bandwidth: u64,
}

impl FuseParams {
    /// FUSE 2.8.1 with `big_writes`, per the paper's setup.
    pub fn paper() -> FuseParams {
        FuseParams {
            max_write: 128 * KB,
            crossing: Duration::from_micros(170),
            copy_bandwidth: 2600 * MB,
        }
    }
}

/// CRFS-side costs for the simulated implementation.
#[derive(Debug, Clone, Copy)]
pub struct CrfsCostParams {
    /// Bandwidth of the user-space copy into the aggregation chunk.
    pub copy_bandwidth: u64,
    /// Fixed cost per intercepted request inside CRFS (hash lookup,
    /// bookkeeping).
    pub per_request: Duration,
}

impl CrfsCostParams {
    /// Single additional memcpy at memory speed plus light bookkeeping.
    pub fn paper() -> CrfsCostParams {
        CrfsCostParams {
            copy_bandwidth: 2600 * MB,
            per_request: Duration::from_micros(2),
        }
    }
}

/// Bytes in a KiB.
pub const KB: u64 = 1 << 10;
/// Bytes in a MiB.
pub const MB: u64 = 1 << 20;
/// Bytes in a GiB.
pub const GB: u64 = 1 << 30;
/// Bytes in a TiB.
pub const TB: u64 = 1 << 40;
/// Bytes in a page (4 KiB).
pub const PAGE: u64 = 4 << 10;

/// Number of 4 KiB pages covering `bytes`.
pub fn pages_of(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_multiplier_shape() {
        let p = VfsCostParams::ext3_node();
        assert_eq!(p.contention_mult(1), 1.0);
        let m2 = p.contention_mult(2);
        let m4 = p.contention_mult(4);
        let m8 = p.contention_mult(8);
        assert!(m2 > 1.0 && m4 > m2 && m8 > m4, "monotone: {m2} {m4} {m8}");
        // Superlinear growth.
        assert!(m8 / m4 > (8.0 / 4.0) * 0.9);
    }

    #[test]
    fn pages_of_rounds_up() {
        assert_eq!(pages_of(0), 0);
        assert_eq!(pages_of(1), 1);
        assert_eq!(pages_of(4096), 1);
        assert_eq!(pages_of(4097), 2);
        assert_eq!(pages_of(MB), 256);
    }

    #[test]
    fn presets_are_internally_consistent() {
        let d = DiskParams::node_sata();
        assert!(d.min_seek < d.avg_seek);
        let c = CacheParams::compute_node();
        assert!(c.background_limit < c.dirty_limit);
        let l = LustreParams::paper();
        assert!(l.rpc_max <= l.stripe_size);
        let f = FuseParams::paper();
        assert_eq!(f.max_write, 128 * KB);
    }
}
