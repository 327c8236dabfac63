//! The four workloads: what each mounts, how big its images are, and
//! how its stack is put together over directories of the data dir.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crfs_core::backend::{
    FailureMode, FaultyBackend, LocalFileBackend, ThrottleParams, ThrottledBackend, TieredBackend,
};
use crfs_core::{Backend, CodecKind, CrfsConfig, EngineKind};
use storage_model::rpc::{RpcStore, RpcStoreParams};

use crate::tap::{TapPoint, Tier};
use crate::trace::Tracer;

/// Writer/reader threads, one per "rank". Fixed: the sandbox has two
/// cores and the results say so.
pub const RANKS: usize = 2;
/// Share of a rank's extents rewritten in every epoch after the first.
pub const DIRTY: f64 = 0.25;
/// Directory inside every mount that holds the checkpoint files.
pub const CKPT_DIR: &str = "/ckpt";

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every layer on, with a power cut.
    FullCycle,
    /// Default mount over one local directory.
    RawAggregate,
    /// Tiered stack over a modelled SATA disk.
    SlowDurable,
    /// Restart from the durable tier alone over a 1 ms-RTT store.
    ColdRestart,
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Its fixed name; later issues cite it.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// Image size per rank.
    pub image_mib: u64,
    /// Restart read request size.
    pub read_size: usize,
    /// Bandwidth of the modelled durable device, if there is one.
    pub device_mibs: Option<f64>,
    /// Shares of `--seconds` for the checkpoint, recover and restart
    /// phases: most where the workload's own question is.
    pub shares: [f64; 3],
}

/// The workloads, in the order they run.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        kind: Kind::FullCycle,
        name: "full_cycle",
        why: "every layer on one timeline: lz+dedup, snapshots, ring engine, tiered drain, power cut, fsck, snapshot restart; CPU-bound",
        image_mib: 128,
        read_size: 1 << 20,
        device_mibs: Some(400.0),
        shares: [0.45, 0.20, 0.35],
    },
    Spec {
        kind: Kind::RawAggregate,
        name: "raw_aggregate",
        why: "default mount over one local directory: vfs, chunking, pool, engine and backend.local do all the work; a transform or tier change must leave it flat",
        image_mib: 256,
        read_size: 128 << 10,
        device_mibs: None,
        shares: [0.50, 0.10, 0.40],
    },
    Spec {
        kind: Kind::SlowDurable,
        name: "slow_durable",
        why: "tiered stack over a modelled 75 MiB/s SATA disk: wall time is device time, so only fewer, larger or more sequential durable writes move it",
        image_mib: 64,
        read_size: 1 << 20,
        device_mibs: Some(75.0),
        shares: [0.70, 0.10, 0.20],
    },
    Spec {
        kind: Kind::ColdRestart,
        name: "cold_restart",
        why: "fast tier lost, restart from the durable tier over a 1 ms-RTT store: latency-bound reads, so prefetch window and per-chunk opens decide it",
        image_mib: 128,
        read_size: 128 << 10,
        device_mibs: None,
        shares: [0.20, 0.25, 0.55],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The mount configuration of the write side.
    pub fn config(&self) -> CrfsConfig {
        const MIB: usize = 1 << 20;
        match self.kind {
            // The paper's mount, untouched.
            Kind::RawAggregate => CrfsConfig::default(),
            Kind::SlowDurable => CrfsConfig::default()
                .with_engine(EngineKind::Ring)
                .with_chunk_size(MIB)
                .with_pool_size(16 * MIB)
                .with_tier_watermarks(16 << 20, 64 << 20),
            Kind::FullCycle | Kind::ColdRestart => CrfsConfig::default()
                .with_codec(CodecKind::Lz)
                .with_dedup(true)
                .with_snapshots(true)
                .with_engine(EngineKind::Ring)
                .with_chunk_size(MIB)
                .with_pool_size(16 * MIB)
                .with_tier_watermarks(16 << 20, 64 << 20),
        }
    }

    /// Whether the stack keeps snapshots (restart goes through
    /// `open_restart`).
    pub fn snapshots(&self) -> bool {
        self.config().snapshots
    }
}

/// The per-tier tap points of a traced pass.
pub struct Taps {
    /// The tracer every tap records into.
    pub tracer: Arc<Tracer>,
    /// Fast tier, or the single tier of `raw_aggregate`.
    pub near: TapPoint,
    /// Durable tier.
    pub durable: TapPoint,
}

impl Taps {
    /// Tap points for `spec`, recording into `tracer`.
    pub fn new(spec: &Spec, tracer: Arc<Tracer>) -> Taps {
        let near = if spec.kind == Kind::RawAggregate {
            Tier::Local
        } else {
            Tier::Fast
        };
        Taps {
            near: TapPoint::new(near, Arc::clone(&tracer)),
            durable: TapPoint::new(Tier::Durable, Arc::clone(&tracer)),
            tracer,
        }
    }
}

type Faulty = Arc<FaultyBackend<Arc<dyn Backend>>>;

/// A backend stack over the directories of one store.
pub struct Stack {
    /// What `Crfs::mount` takes.
    pub backend: Arc<dyn Backend>,
    /// The tiered layer, when the stack has one.
    pub tiered: Option<Arc<TieredBackend>>,
    /// Fast tier as fsck sees it (tiered stacks only).
    pub fast: Option<Arc<dyn Backend>>,
    /// Durable tier as fsck sees it; the only tier of a single-tier stack.
    pub durable: Arc<dyn Backend>,
    /// Fault injectors `[fast, durable]` (`full_cycle` only).
    pub faults: Option<[Faulty; 2]>,
}

/// Host directories of one store.
pub struct StoreDirs {
    root: PathBuf,
}

impl StoreDirs {
    /// The store under `root`.
    pub fn new(root: PathBuf) -> StoreDirs {
        StoreDirs { root }
    }

    /// Fast tier (or the single tier).
    pub fn near(&self) -> PathBuf {
        self.root.join("fast")
    }

    /// Durable tier.
    pub fn durable(&self) -> PathBuf {
        self.root.join("durable")
    }

    /// The store's own root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory whose bytes count as "stored": the durable tier,
    /// or the only tier.
    pub fn stored(&self, spec: &Spec) -> PathBuf {
        if spec.kind == Kind::RawAggregate {
            self.near()
        } else {
            self.durable()
        }
    }
}

fn local(dir: PathBuf) -> Arc<dyn Backend> {
    Arc::new(LocalFileBackend::new(dir).expect("data directory is creatable"))
}

fn tap(point: Option<&TapPoint>, inner: Arc<dyn Backend>) -> Arc<dyn Backend> {
    match point {
        Some(p) => p.wrap(inner),
        None => inner,
    }
}

impl Stack {
    /// Builds the write-side stack of `spec` over `dirs` — everything
    /// fresh, as after a reboot; only the bytes on disk carry over. With
    /// `taps`, each tier's outermost backend is wrapped in its tap.
    pub fn build(spec: &Spec, dirs: &StoreDirs, taps: Option<&Taps>) -> Stack {
        let config = spec.config();
        let near_tap = taps.map(|t| &t.near);
        let durable_tap = taps.map(|t| &t.durable);
        let tiered_over = |fast: Arc<dyn Backend>, durable: Arc<dyn Backend>, faults| {
            let fast = tap(near_tap, fast);
            let durable = tap(durable_tap, durable);
            let tiered = Arc::new(TieredBackend::from_config(
                Arc::clone(&fast),
                Arc::clone(&durable),
                &config,
            ));
            Stack {
                backend: Arc::clone(&tiered) as Arc<dyn Backend>,
                tiered: Some(tiered),
                fast: Some(fast),
                durable,
                faults,
            }
        };
        match spec.kind {
            Kind::RawAggregate => {
                let only = tap(near_tap, local(dirs.near()));
                Stack {
                    backend: Arc::clone(&only),
                    tiered: None,
                    fast: None,
                    durable: only,
                    faults: None,
                }
            }
            Kind::SlowDurable => tiered_over(
                local(dirs.near()),
                Arc::new(ThrottledBackend::new(
                    local(dirs.durable()),
                    ThrottleParams::sata_disk(),
                )),
                None,
            ),
            // The store is built on an unthrottled stack; the slow device
            // of this workload is the restart store.
            Kind::ColdRestart => tiered_over(local(dirs.near()), local(dirs.durable()), None),
            Kind::FullCycle => {
                let device = ThrottleParams {
                    bandwidth: 400 << 20,
                    per_op_latency: Duration::from_micros(100),
                    seek_penalty: Duration::ZERO,
                };
                let fast: Faulty =
                    Arc::new(FaultyBackend::new(local(dirs.near()), FailureMode::None));
                let durable: Faulty = Arc::new(FaultyBackend::new(
                    Arc::new(ThrottledBackend::new(local(dirs.durable()), device))
                        as Arc<dyn Backend>,
                    FailureMode::None,
                ));
                tiered_over(
                    Arc::clone(&fast) as Arc<dyn Backend>,
                    Arc::clone(&durable) as Arc<dyn Backend>,
                    Some([fast, durable]),
                )
            }
        }
    }

    /// The restart-side stack of `spec`: the write-side stack again,
    /// except for `cold_restart`, which mounts the durable directory
    /// alone behind a 1 ms-RTT store (the fast tier is gone).
    pub fn build_restart(spec: &Spec, dirs: &StoreDirs, taps: Option<&Taps>) -> Stack {
        if spec.kind != Kind::ColdRestart {
            return Stack::build(spec, dirs, taps);
        }
        let store: Arc<dyn Backend> = Arc::new(RpcStore::new(
            local(dirs.durable()),
            RpcStoreParams::restart_store(),
        ));
        let only = tap(taps.map(|t| &t.durable), store);
        Stack {
            backend: Arc::clone(&only),
            tiered: None,
            fast: None,
            durable: only,
            faults: None,
        }
    }
}
