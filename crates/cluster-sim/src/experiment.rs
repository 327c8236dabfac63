//! Experiment drivers: everything needed to regenerate the paper's
//! evaluation figures and tables on the simulated cluster.
//!
//! One entry point — [`run_checkpoint`] — runs a full coordinated
//! checkpoint for a [`CheckpointSpec`] and returns per-process write
//! times plus optional instrumentation (write profiles for Table I,
//! cumulative curves for Figs. 3/11, a node-0 block trace for Fig. 10).
//! The figure-specific sweeps (Figs. 6–9) are thin loops over specs in
//! the `bench` crate.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crfs_core::CrfsConfig;
use simkit::rng::SimRng;
use simkit::time::now;
use simkit::Sim;
use storage_model::params::{
    AllocParams, CacheParams, CrfsCostParams, DiskParams, FuseParams, LustreParams, NetParams,
    NfsParams, PvfsParams, VfsCostParams,
};
use storage_model::{
    LocalFs, LustreClient, LustreModel, NetLink, NfsClient, NfsModel, PvfsClient, PvfsModel,
};

use crfs_trace::{BlockTrace, CumulativeCurve, SpreadSummary, WriteProfiler};

use crate::blcr::blcr_write_stream;
use crate::crfs_sim::CrfsSim;
use crate::mpi::{image_bytes, LuClass, MpiStack};
use crate::target::Target;

/// Which backend filesystem the checkpoint targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Node-local ext3.
    Ext3,
    /// Lustre (1 MDS + 3 OSS, InfiniBand).
    Lustre,
    /// NFSv3 single server over IPoIB.
    Nfs,
    /// PVFS2 (3 I/O servers, InfiniBand, no client cache). Not part of
    /// the paper's figures — it is the extra backend the paper's §I
    /// mentions CRFS can be mounted over (regenerated by `exp pvfs`).
    Pvfs,
}

impl BackendKind {
    /// The paper's figure backends, in figure order (PVFS2 is the
    /// extension backend and is swept separately).
    pub const ALL: [BackendKind; 3] = [BackendKind::Ext3, BackendKind::Lustre, BackendKind::Nfs];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ext3 => "ext3",
            BackendKind::Lustre => "lustre",
            BackendKind::Nfs => "nfs",
            BackendKind::Pvfs => "pvfs2",
        }
    }
}

/// Full description of one checkpoint run.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// MPI implementation (sets image sizes; §II-C protocol is uniform).
    pub stack: MpiStack,
    /// NAS LU class (sets the application state size).
    pub class: LuClass,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Processes per node (the paper's multiplexing knob).
    pub procs_per_node: usize,
    /// Target filesystem.
    pub backend: BackendKind,
    /// Checkpoint through CRFS (`true`) or natively (`false`).
    pub use_crfs: bool,
    /// CRFS mount configuration (chunk/pool/io-threads).
    pub crfs_config: CrfsConfig,
    /// Simulation seed.
    pub seed: u64,
    /// Record per-write (size, latency) curves (Figs. 3, 11).
    pub record_curves: bool,
    /// Record the node-0 write profile (Table I).
    pub record_profile: bool,
    /// Record the node-0 disk block trace (Fig. 10; ext3 only).
    pub trace_disk: bool,
    /// Scale image sizes by this factor (1.0 = paper scale). The shape
    /// tests use < 1.0 to keep CI fast; the bench harness uses 1.0.
    pub scale: f64,
}

impl CheckpointSpec {
    /// A paper-configuration spec: 16 nodes × 8 ppn, no instrumentation.
    pub fn new(
        stack: MpiStack,
        class: LuClass,
        backend: BackendKind,
        use_crfs: bool,
    ) -> CheckpointSpec {
        CheckpointSpec {
            stack,
            class,
            nodes: 16,
            procs_per_node: 8,
            backend,
            use_crfs,
            crfs_config: CrfsConfig::default(),
            seed: 42,
            record_curves: false,
            record_profile: false,
            trace_disk: false,
            scale: 1.0,
        }
    }

    /// Total process count.
    pub fn nprocs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Per-process image bytes for this spec.
    pub fn image_bytes(&self) -> u64 {
        (image_bytes(self.stack, self.class, self.nprocs()) as f64 * self.scale) as u64
    }

    /// Short label for reports, e.g. `LU.C.128/MVAPICH2-IB/lustre/crfs`.
    pub fn label(&self) -> String {
        format!(
            "{}.{}/{}/{}/{}",
            self.class.name(),
            self.nprocs(),
            self.stack.name(),
            self.backend.name(),
            if self.use_crfs { "crfs" } else { "native" }
        )
    }
}

/// Outcome of one checkpoint run.
#[derive(Debug)]
pub struct CheckpointResult {
    /// Spec label (see [`CheckpointSpec::label`]).
    pub label: String,
    /// The paper's reported metric: mean, across processes, of each
    /// process's write+close time in seconds ("average local checkpoint
    /// time").
    pub mean_time: f64,
    /// Per-process write+close times.
    pub per_process: Vec<f64>,
    /// Spread statistics over `per_process`.
    pub spread: SpreadSummary,
    /// Total bytes checkpointed.
    pub total_bytes: u64,
    /// Per-write curves, if requested.
    pub curve: Option<CumulativeCurve>,
    /// Node-0 write profile, if requested.
    pub profile: Option<WriteProfiler>,
    /// Node-0 disk block trace, if requested.
    pub node0_trace: Option<BlockTrace>,
}

/// Runs one coordinated checkpoint and gathers the paper's metrics.
pub fn run_checkpoint(spec: &CheckpointSpec) -> CheckpointResult {
    let spec = spec.clone();
    let mut sim = Sim::new(spec.seed);
    sim.run(async move { run_inner(spec).await })
}

async fn run_inner(spec: CheckpointSpec) -> CheckpointResult {
    let rng = SimRng::new(spec.seed);
    let np = spec.nprocs();
    let image = spec.image_bytes();

    // Shared server-side infrastructure.
    let lustre = matches!(spec.backend, BackendKind::Lustre)
        .then(|| LustreModel::new(LustreParams::paper(), &rng));
    let nfs =
        matches!(spec.backend, BackendKind::Nfs).then(|| NfsModel::new(NfsParams::paper(), &rng));
    let pvfs = matches!(spec.backend, BackendKind::Pvfs)
        .then(|| PvfsModel::new(PvfsParams::paper_era(), &rng));

    let curves = Rc::new(RefCell::new(CumulativeCurve::new(np)));
    let profiler = Rc::new(RefCell::new(WriteProfiler::new()));

    let mut node0_fs: Option<Rc<LocalFs>> = None;
    let mut handles = Vec::with_capacity(np);
    let mut node_fses: Vec<Rc<LocalFs>> = Vec::new();

    for node in 0..spec.nodes {
        let target = match spec.backend {
            BackendKind::Ext3 => {
                let fs = LocalFs::new(
                    VfsCostParams::ext3_node(),
                    AllocParams::ext3(),
                    CacheParams::compute_node(),
                    DiskParams::node_sata(),
                    rng.stream(&format!("ext3-{node}")),
                );
                if node == 0 {
                    if spec.trace_disk {
                        fs.disk().set_tracing(true);
                    }
                    node0_fs = Some(Rc::clone(&fs));
                }
                node_fses.push(Rc::clone(&fs));
                Target::Ext3(fs)
            }
            BackendKind::Lustre => {
                let link = NetLink::new(NetParams::ib_ddr());
                Target::Lustre(LustreClient::new(
                    Rc::clone(lustre.as_ref().expect("lustre built")),
                    link,
                    VfsCostParams::lustre_client(),
                    rng.stream(&format!("llite-{node}")),
                ))
            }
            BackendKind::Nfs => Target::Nfs(NfsClient::new(
                Rc::clone(nfs.as_ref().expect("nfs built")),
                VfsCostParams::nfs_client(),
                rng.stream(&format!("nfsc-{node}")),
            )),
            BackendKind::Pvfs => Target::Pvfs(PvfsClient::new(
                Rc::clone(pvfs.as_ref().expect("pvfs built")),
                VfsCostParams::pvfs_client(),
                rng.stream(&format!("pvfsc-{node}")),
            )),
        };
        let crfs = spec.use_crfs.then(|| {
            CrfsSim::new(
                target.clone(),
                spec.crfs_config.clone(),
                CrfsCostParams::paper(),
                FuseParams::paper(),
            )
        });

        for local_rank in 0..spec.procs_per_node {
            let rank = node * spec.procs_per_node + local_rank;
            let mut stream_rng = rng.stream(&format!("blcr-{rank}"));
            let sizes = blcr_write_stream(image, &mut stream_rng);
            let target = target.clone();
            let crfs = crfs.clone();
            let curves = Rc::clone(&curves);
            let profiler = Rc::clone(&profiler);
            let record_curve = spec.record_curves;
            let record_profile = spec.record_profile && node == 0;
            handles.push(simkit::spawn(async move {
                run_process(
                    target,
                    crfs,
                    rank,
                    sizes,
                    curves,
                    profiler,
                    record_curve,
                    record_profile,
                )
                .await
            }));
        }
    }

    let mut per_process = Vec::with_capacity(np);
    for h in handles {
        per_process.push(h.await);
    }

    // Clean shutdown of background tasks (write-back etc.).
    for fs in &node_fses {
        fs.stop();
    }
    if let Some(l) = &lustre {
        l.stop();
    }
    if let Some(n) = &nfs {
        n.stop();
    }
    if let Some(p) = &pvfs {
        p.stop();
    }

    let spread = SpreadSummary::from_values(&per_process);
    CheckpointResult {
        label: spec.label(),
        mean_time: spread.mean,
        per_process,
        spread,
        total_bytes: image * np as u64,
        curve: spec.record_curves.then(|| curves.borrow().clone()),
        profile: spec.record_profile.then(|| profiler.borrow().clone()),
        node0_trace: node0_fs
            .filter(|_| spec.trace_disk)
            .map(|fs| fs.disk().take_trace()),
    }
}

/// One checkpointing process: open, stream the BLCR writes, close.
/// Returns the process's write+close time in seconds — the quantity the
/// paper averages into "average local checkpoint time".
#[allow(clippy::too_many_arguments)]
async fn run_process(
    target: Target,
    crfs: Option<Rc<CrfsSim>>,
    rank: usize,
    sizes: Vec<u64>,
    curves: Rc<RefCell<CumulativeCurve>>,
    profiler: Rc<RefCell<WriteProfiler>>,
    record_curve: bool,
    record_profile: bool,
) -> f64 {
    let record = |len: u64, lat: Duration| {
        if record_curve {
            curves.borrow_mut().record(rank, len, lat);
        }
        if record_profile {
            profiler.borrow_mut().record(len, lat);
        }
    };
    let t_start = now();
    match crfs {
        None => {
            let fid = target.open().await;
            let mut off = 0u64;
            for len in sizes {
                let t0 = now();
                target.write(fid, off, len).await;
                record(len, now().since(t0));
                off += len;
            }
            target.close(fid).await;
        }
        Some(c) => {
            let fh = c.open().await;
            let mut off = 0u64;
            for len in sizes {
                let t0 = now();
                c.app_write(fh, off, len).await;
                record(len, now().since(t0));
                off += len;
            }
            c.close(fh).await;
        }
    }
    now().since(t_start).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(
        backend: BackendKind,
        use_crfs: bool,
        nodes: usize,
        ppn: usize,
        scale: f64,
    ) -> CheckpointResult {
        let mut s = CheckpointSpec::new(MpiStack::Mvapich2, LuClass::C, backend, use_crfs);
        s.nodes = nodes;
        s.procs_per_node = ppn;
        s.scale = scale;
        s.seed = 1234;
        run_checkpoint(&s)
    }

    #[test]
    fn runs_complete_and_totals_are_exact() {
        let r = quick(BackendKind::Ext3, false, 2, 4, 0.25);
        assert_eq!(r.per_process.len(), 8);
        assert!(r.mean_time > 0.0);
        assert!(r.per_process.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn crfs_beats_native_on_small_ext3_checkpoint() {
        let native = quick(BackendKind::Ext3, false, 2, 8, 0.5);
        let crfs = quick(BackendKind::Ext3, true, 2, 8, 0.5);
        assert!(
            native.mean_time > 1.5 * crfs.mean_time,
            "native {:.2}s vs crfs {:.2}s",
            native.mean_time,
            crfs.mean_time
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick(BackendKind::Ext3, true, 2, 2, 0.2);
        let b = quick(BackendKind::Ext3, true, 2, 2, 0.2);
        assert_eq!(a.per_process, b.per_process);
    }

    #[test]
    fn instrumentation_is_collected_when_requested() {
        let mut s = CheckpointSpec::new(MpiStack::Mvapich2, LuClass::B, BackendKind::Ext3, false);
        s.nodes = 1;
        s.procs_per_node = 4;
        s.scale = 0.5;
        s.record_curves = true;
        s.record_profile = true;
        s.trace_disk = true;
        let r = run_checkpoint(&s);
        assert!(r.curve.is_some());
        let prof = r.profile.expect("profile recorded");
        assert!(prof.total_writes() > 0);
        // ext3 under the background limit may or may not write back
        // during the run; the trace must at least exist.
        assert!(r.node0_trace.is_some());
    }

    #[test]
    fn lustre_and_nfs_paths_run() {
        let l = quick(BackendKind::Lustre, true, 2, 2, 0.2);
        assert!(l.mean_time > 0.0);
        let n = quick(BackendKind::Nfs, false, 2, 2, 0.1);
        assert!(n.mean_time > 0.0);
    }

    #[test]
    fn pvfs_gains_from_crfs_but_less_than_lustre() {
        // PVFS2 has no client cache — every write is a synchronous round
        // trip through the node's serialized upcall channel — so CRFS
        // helps by replacing per-write upcalls+round-trips with per-chunk
        // ones. But the FUSE channel CRFS adds is itself serialized, so
        // the model predicts a *modest* win (bounded by the
        // upcall/crossing cost ratio), well below Lustre's, whose native
        // path collapses under page-cache contention.
        let speedup = |backend: BackendKind| {
            let native = quick(backend, false, 2, 4, 0.3);
            let crfs = quick(backend, true, 2, 4, 0.3);
            native.mean_time / crfs.mean_time.max(1e-9)
        };
        let pvfs = speedup(BackendKind::Pvfs);
        let lustre = speedup(BackendKind::Lustre);
        assert!(pvfs > 1.1, "CRFS must help PVFS2, got {pvfs:.2}x");
        assert!(
            pvfs < lustre,
            "PVFS2 speedup {pvfs:.2}x should stay below Lustre's {lustre:.2}x"
        );
    }
}
