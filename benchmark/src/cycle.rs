//! One pass of one workload: set-up, timed checkpoint epochs, the
//! recover step (after a power cut where the workload has one), and
//! timed restart rounds — every restart byte-compared against
//! regenerated content.
//!
//! Everything is measured from outside the product: the harness times
//! its own calls into public functions. In the traced pass it also
//! records a span around each call and snapshots `Crfs::stats` at phase
//! boundaries; in the untraced pass `trace` is `None` and neither
//! happens.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crfs_core::backend::{FailureMode, TierCounters};
use crfs_core::fsck::{self, FsckOptions, FsckSummary};
use crfs_core::snapshot::GcReport;
use crfs_core::{Crfs, CrfsFile, StatsSnapshot, Vfs};

use crate::gen::{Image, EXTENT};
use crate::host::{self, ScratchDir};
use crate::probes::{self, Probes};
use crate::tap::TapCounts;
use crate::trace::{self, Req, Span, SpanId, Tracer};
use crate::workload::{Kind, Spec, Stack, StoreDirs, Taps, CKPT_DIR, DIRTY, RANKS};

/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed checkpoint epochs, whatever `--seconds` says: with the
/// warm-up epoch this fills the snapshot retention window of four.
const MIN_EPOCHS: usize = 3;
/// Fewest recover cycles and restart rounds.
const MIN_ROUNDS: usize = 3;
/// Untimed warm-up before the recover and restart phases: at least one
/// iteration and at least this long. The first iteration fills caches
/// (directly written files are first read from the disk). The rest is
/// for a step nobody has explained yet: the first twenty-odd restart
/// rounds of a process run at half the rate of the later ones on the
/// small workloads (`slow_durable`: 44 ms a round, then 22 ms), with
/// the same backend read time in both. Timing across that step made the
/// median land on either side of it from run to run; README.md records
/// it as an open question.
const WARMUP_S: f64 = 2.0;
/// Power-cut budgets of the crash epoch: small enough that the cut
/// lands mid-epoch on both tiers.
const CUT_FAST: u64 = 9 << 20;
const CUT_DURABLE: u64 = 5 << 20;
/// Where the Vfs mounts the filesystem.
const MOUNT_AT: &str = "/mnt";

/// Harness operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Opens, writes, closes, epochs, reads, fsck passes, verifications.
    pub attempted: u64,
    /// Those that returned an error or failed verification.
    pub failed: u64,
}

impl Ops {
    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed checkpoint epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochSample {
    /// First `create` to last `close` returning.
    pub ack_s: f64,
    /// First `create` to `advance_epoch` returning.
    pub durable_s: f64,
    /// Process user CPU over the epoch.
    pub cpu_user_s: f64,
    /// Process system CPU over the epoch.
    pub cpu_sys_s: f64,
}

impl EpochSample {
    /// Process user+system CPU over the epoch.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_user_s + self.cpu_sys_s
    }
}

/// One recover cycle.
#[derive(Debug, Clone, Copy)]
pub struct RecoverSample {
    /// `fsck` with repair.
    pub repair_s: f64,
    /// The read-only rescan after it (not part of `recover_s`).
    pub rescan_s: f64,
    /// Fresh `Crfs::mount` plus the first restart open returning its
    /// first byte.
    pub mount_open_s: f64,
    /// Files the repair pass inspected.
    pub files: u64,
    /// Damage events the repair pass found.
    pub damage: u64,
    /// Files re-drained from the fast tier.
    pub redrained: u64,
    /// Bytes under the store when the pass ran.
    pub store_bytes: u64,
}

impl RecoverSample {
    /// Power cut to first restart byte.
    pub fn recover_s(&self) -> f64 {
        self.repair_s + self.mount_open_s
    }
}

/// Plain copy of a tap's counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct TapSnap {
    /// Writes.
    pub write_ops: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Writes contiguous with the previous one.
    pub seq_writes: u64,
    /// Reads.
    pub read_ops: u64,
    /// Bytes read.
    pub read_bytes: u64,
}

impl TapSnap {
    fn of(c: &TapCounts) -> TapSnap {
        use std::sync::atomic::Ordering::Relaxed;
        TapSnap {
            write_ops: c.write_ops.load(Relaxed),
            write_bytes: c.write_bytes.load(Relaxed),
            seq_writes: c.seq_writes.load(Relaxed),
            read_ops: c.read_ops.load(Relaxed),
            read_bytes: c.read_bytes.load(Relaxed),
        }
    }

    /// Counts since `before`.
    pub fn since(&self, before: &TapSnap) -> TapSnap {
        TapSnap {
            write_ops: self.write_ops - before.write_ops,
            write_bytes: self.write_bytes - before.write_bytes,
            seq_writes: self.seq_writes - before.seq_writes,
            read_ops: self.read_ops - before.read_ops,
            read_bytes: self.read_bytes - before.read_bytes,
        }
    }
}

/// `[near, durable]` tap counters at one instant.
pub type TapPair = [TapSnap; 2];

/// What only the traced pass collects.
pub struct Traced {
    /// Every span, harness and decorator, by start time.
    pub spans: Vec<Span>,
    /// `Crfs::stats` after the warm-up epoch and after each timed epoch
    /// (so `len == epochs + 1`).
    pub epoch_stats: Vec<StatsSnapshot>,
    /// Tier counters before and after the timed epochs.
    pub tier: Option<[TierCounters; 2]>,
    /// Tap counters before and after the timed epochs.
    pub taps_ckpt: [TapPair; 2],
    /// Tap counters before and after the restart rounds.
    pub taps_restart: [TapPair; 2],
    /// `Crfs::stats` of each restart round's mount, taken before unmount.
    pub restart_stats: Vec<StatsSnapshot>,
    /// Wall of the strided restart pass (`cold_restart`).
    pub strided_s: Option<f64>,
    /// Wall of reading the files straight off the backend
    /// (`raw_aggregate`), one sample per restart round.
    pub direct_s: Vec<f64>,
    /// `orphaned_chunks` a read-only fsck reports on the clean store
    /// before GC runs.
    pub pre_gc_orphans: u64,
    /// Single-thread probes of layer primitives.
    pub probes: Probes,
}

/// Everything one pass measured.
pub struct Pass {
    /// The workload.
    pub spec: &'static Spec,
    /// Logical bytes of one epoch, all ranks.
    pub logical_bytes: u64,
    /// Harness `Vfs::write` calls of one epoch, all ranks.
    pub writes_per_epoch: u64,
    /// BLCR's own accounting of rank 0's write sequence.
    pub blcr: crfs_blcr::WriteStats,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Operations refused inside armed crash epochs (expected).
    pub crash_ops_refused: u64,
    /// Extents of a crashed epoch's file served as neither exact bytes,
    /// a zero-filled hole, nor a detected error.
    pub wrong_byte_restarts: u64,
    /// One sample per set-up.
    pub setup_s: Vec<f64>,
    /// Timed checkpoint epochs.
    pub epochs: Vec<EpochSample>,
    /// Bytes in the durable tier after the last sealed epoch and one GC.
    pub stored_bytes: u64,
    /// Epochs the store retains (1 without snapshots).
    pub retained_epochs: u64,
    /// Content-store files in that tier at that point.
    pub cas_files: u64,
    /// The GC pass after the timed epochs.
    pub gc: GcReport,
    /// Recover cycles.
    pub recovers: Vec<RecoverSample>,
    /// Wall of each sequential restart round.
    pub restart_s: Vec<f64>,
    /// Wall of the whole pass, generator included.
    pub wall_s: f64,
    /// Resident set after image generation.
    pub rss_after_gen_mib: f64,
    /// Peak resident set.
    pub rss_hwm_mib: f64,
    /// Process CPU over the pass.
    pub cpu_user_s: f64,
    /// Process CPU over the pass.
    pub cpu_sys_s: f64,
    /// Traced-pass data.
    pub traced: Option<Traced>,
}

/// Iteration control of a timed phase: warm-up first, then at least
/// `min` timed iterations and at least `budget_s` of them.
struct Phase {
    start: Instant,
    timed_from: Option<Instant>,
    iterations: u32,
}

impl Phase {
    fn start() -> Phase {
        Phase {
            start: Instant::now(),
            timed_from: None,
            iterations: 0,
        }
    }

    /// Whether another iteration is due, given `done` timed ones.
    fn goes_on(&self, done: usize, min: usize, budget_s: f64) -> bool {
        self.timed_from
            .is_none_or(|t| done < min || t.elapsed().as_secs_f64() < budget_s)
    }

    /// Starts an iteration: its number, and whether it is a warm-up one.
    fn next(&mut self) -> (u32, bool) {
        let step = self.iterations;
        self.iterations += 1;
        if self.timed_from.is_none() && step >= 1 && self.start.elapsed().as_secs_f64() >= WARMUP_S
        {
            self.timed_from = Some(Instant::now());
        }
        (step, self.timed_from.is_none())
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn span<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    parent: SpanId,
    req: Req,
    f: impl FnOnce(SpanId) -> T,
) -> T {
    match tracer {
        None => f(0),
        Some(t) => {
            let open = t.begin(name, parent, req);
            let out = f(open.id());
            t.end(open);
            out
        }
    }
}

/// A mounted stack.
struct Mount {
    stack: Stack,
    fs: Arc<Crfs>,
    vfs: Vfs,
}

impl Mount {
    fn over(stack: Stack, fs: Arc<Crfs>) -> Mount {
        let vfs = Vfs::new();
        vfs.mount(MOUNT_AT, Arc::clone(&fs))
            .expect("an empty Vfs accepts its first mount");
        Mount { stack, fs, vfs }
    }
}

pub(crate) fn ckpt_path(rank: usize) -> String {
    format!("{CKPT_DIR}/rank{rank}.img")
}

struct Harness<'a> {
    spec: &'static Spec,
    taps: Option<&'a Taps>,
    images: Vec<Image>,
    ops: Ops,
    root: SpanId,
}

struct EpochOut {
    ack_s: f64,
    durable_s: f64,
    refused: u64,
    sealed: bool,
}

impl<'a> Harness<'a> {
    fn tracer(&self) -> Option<&'a Arc<Tracer>> {
        self.taps.map(|t| &t.tracer)
    }

    /// One checkpoint epoch: every rank creates its file, replays the
    /// BLCR write sequence from its stream and closes; then the epoch
    /// is advanced. In an armed crash epoch errors are expected: a rank
    /// stops at its first refusal, and refusals are counted apart
    /// instead of as failures.
    fn checkpoint_epoch(
        &mut self,
        m: &Mount,
        phase: &'static str,
        step: u32,
        armed: bool,
    ) -> EpochOut {
        let tracer = self.tracer();
        let req = Req::step(step);
        let (images, root) = (&self.images, self.root);
        let (mut out, ops) = span(tracer, phase, root, req, |phase_id| {
            let t0 = Instant::now();
            let per_rank: Vec<Ops> = std::thread::scope(|s| {
                let handles: Vec<_> = images
                    .iter()
                    .enumerate()
                    .map(|(rank, img)| {
                        let vfs = &m.vfs;
                        s.spawn(move || {
                            let req = req.rank(rank);
                            span(tracer, "rank", phase_id, req, |rank_id| {
                                write_image(vfs, img, rank, tracer, rank_id, req)
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a writer thread panicked"))
                    .collect()
            });
            let ack_s = t0.elapsed().as_secs_f64();
            let sealed = span(tracer, "fs.advance_epoch", phase_id, req, |_| {
                m.fs.advance_epoch()
            })
            .is_ok();
            let durable_s = t0.elapsed().as_secs_f64();
            let mut ops = Ops::default();
            per_rank.into_iter().for_each(|o| ops.add(o));
            ops.note(sealed);
            let out = EpochOut {
                ack_s,
                durable_s,
                refused: 0,
                sealed,
            };
            (out, ops)
        });
        if armed {
            out.refused = ops.failed;
        } else {
            self.ops.add(ops);
        }
        out
    }

    /// A fresh write-side stack over `dirs`, mounted.
    fn mount_fresh(&self, dirs: &StoreDirs, parent: SpanId, step: u32) -> Mount {
        let stack = Stack::build(self.spec, dirs, self.taps);
        let fs = span(self.tracer(), "fs.mount", parent, Req::step(step), |_| {
            Crfs::mount(Arc::clone(&stack.backend), self.spec.config())
        })
        .expect("a valid configuration mounts over a clean store");
        Mount::over(stack, fs)
    }

    /// Fresh stack, mount, Vfs, directory and the warm-up epoch (the
    /// epoch-0 image). Returns the mount and the set-up wall.
    fn set_up(&mut self, dirs: &StoreDirs, step: u32) -> (Mount, f64) {
        let t0 = Instant::now();
        let m = span(self.tracer(), "setup", self.root, Req::step(step), |id| {
            let m = self.mount_fresh(dirs, id, step);
            m.vfs
                .mkdir_all(&format!("{MOUNT_AT}{CKPT_DIR}"))
                .expect("mkdir on a fresh store");
            m
        });
        let warm = self.checkpoint_epoch(&m, "warmup", step, false);
        assert!(warm.sealed, "warm-up epoch failed on a fresh store");
        (m, t0.elapsed().as_secs_f64())
    }

    fn unmount(&mut self, m: Mount, step: u32) {
        let ok = span(
            self.tracer(),
            "fs.unmount",
            self.root,
            Req::step(step),
            |_| m.fs.unmount(),
        )
        .is_ok();
        self.ops.note(ok);
    }
}

/// Replays one rank's write sequence, stopping at the first error.
fn write_image(
    vfs: &Vfs,
    img: &Image,
    rank: usize,
    tracer: Option<&Arc<Tracer>>,
    parent: SpanId,
    req: Req,
) -> Ops {
    let mut ops = Ops::default();
    let path = format!("{MOUNT_AT}{}", ckpt_path(rank));
    let fd = span(tracer, "vfs.create", parent, req, |_| vfs.create(&path));
    ops.note(fd.is_ok());
    let Ok(fd) = fd else { return ops };
    let mut off = 0usize;
    for &n in &img.sizes {
        let data = &img.data[off..off + n];
        let ok = span(tracer, "vfs.write", parent, req, |_| vfs.write(fd, data)).is_ok();
        ops.note(ok);
        off += n;
        if !ok {
            break;
        }
    }
    let ok = span(tracer, "vfs.close", parent, req, |_| vfs.close(fd)).is_ok();
    ops.note(ok);
    ops
}

/// How a restart round walks a file.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// Start to end.
    Sequential,
    /// Every fourth MiB first, then the rest: defeats read-ahead.
    Strided,
}

fn walk_offsets(len: usize, read: usize, walk: Walk) -> Vec<usize> {
    let all = (0..len).step_by(read);
    match walk {
        Walk::Sequential => all.collect(),
        Walk::Strided => {
            let first = |off: &usize| (off / EXTENT).is_multiple_of(4);
            all.clone()
                .filter(first)
                .chain(all.filter(|o| !first(o)))
                .collect()
        }
    }
}

/// Reads all of `file` into `buf` with `read`-sized requests. Returns
/// ops made; a short or failed read counts as failed.
fn read_file(
    file: &CrfsFile,
    buf: &mut [u8],
    read: usize,
    walk: Walk,
    tracer: Option<&Arc<Tracer>>,
    parent: SpanId,
    req: Req,
) -> Ops {
    let mut ops = Ops::default();
    let len = buf.len();
    for off in walk_offsets(len, read, walk) {
        let end = (off + read).min(len);
        let got = span(tracer, "file.read_at", parent, req, |_| {
            file.read_at(off as u64, &mut buf[off..end])
        });
        ops.note(matches!(got, Ok(n) if n == end - off));
    }
    ops
}

/// Which stored image a restart round reads.
#[derive(Clone, Copy)]
struct Target {
    /// Snapshot epoch id for `open_restart`; `None` for a plain `open`.
    snapshot: Option<u64>,
    /// Image epoch whose content must come back.
    content: u64,
}

fn open_target(fs: &Arc<Crfs>, rank: usize, target: Target) -> crfs_core::Result<CrfsFile> {
    match target.snapshot {
        Some(epoch) => fs.open_restart(&ckpt_path(rank), epoch),
        None => fs.open(&ckpt_path(rank)),
    }
}

impl Harness<'_> {
    /// One restart round: fresh mount, every rank opens its image, reads
    /// it whole and closes; the byte compare happens after the timed
    /// span. Returns the wall from the first open to the last close and
    /// the mount's stats.
    fn restart_round(
        &mut self,
        dirs: &StoreDirs,
        bufs: &mut [Vec<u8>],
        target: Target,
        walk: Walk,
        step: u32,
    ) -> (f64, StatsSnapshot) {
        let spec = self.spec;
        let (tracer, root) = (self.tracer(), self.root);
        let req = Req::step(step);
        let stack = Stack::build_restart(spec, dirs, self.taps);
        let mut ops = Ops::default();
        let (wall, stats, fs) = span(tracer, "restart", root, req, |phase_id| {
            let fs = span(tracer, "fs.mount", phase_id, req, |_| {
                Crfs::mount(Arc::clone(&stack.backend), spec.config())
            })
            .expect("mount over an existing store");
            let t0 = Instant::now();
            let per_rank: Vec<Ops> = std::thread::scope(|s| {
                let handles: Vec<_> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(rank, buf)| {
                        let fs = &fs;
                        s.spawn(move || {
                            let req = req.rank(rank);
                            span(tracer, "rank", phase_id, req, |rank_id| {
                                let mut ops = Ops::default();
                                let name = if target.snapshot.is_some() {
                                    "fs.open_restart"
                                } else {
                                    "fs.open"
                                };
                                let file = span(tracer, name, rank_id, req, |_| {
                                    open_target(fs, rank, target)
                                });
                                ops.note(file.is_ok());
                                let Ok(file) = file else { return ops };
                                ops.add(read_file(
                                    &file,
                                    buf,
                                    spec.read_size,
                                    walk,
                                    tracer,
                                    rank_id,
                                    req,
                                ));
                                let closed =
                                    span(tracer, "file.close", rank_id, req, |_| file.close());
                                ops.note(closed.is_ok());
                                ops
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a reader thread panicked"))
                    .collect()
            });
            let wall = t0.elapsed().as_secs_f64();
            for o in per_rank {
                ops.add(o);
            }
            (wall, fs.stats(), fs)
        });
        for (img, buf) in self.images.iter().zip(bufs.iter()) {
            ops.note(img.matches(target.content, buf));
        }
        self.ops.add(ops);
        let ok = span(tracer, "fs.unmount", root, req, |_| fs.unmount()).is_ok();
        self.ops.note(ok);
        (wall, stats)
    }
}

impl Harness<'_> {
    /// One recovery, as after a reboot: fresh stack over the same
    /// directories, `fsck` with repair, a read-only rescan that must be
    /// clean, fresh mount, and the first restart open returning its
    /// first byte. Returns the timings and the recovered mount.
    fn recover(&mut self, dirs: &StoreDirs, target: Target, step: u32) -> (RecoverSample, Mount) {
        let spec = self.spec;
        let (tracer, root) = (self.tracer(), self.root);
        let req = Req::step(step);
        let (sample, ops, mount) = span(tracer, "recover", root, req, |id| {
            let stack = Stack::build_restart(spec, dirs, self.taps);
            let store_bytes = host::dir_usage(dirs.root()).0;
            let t0 = Instant::now();
            let repair = span(tracer, "fsck.repair", id, req, |_| run_fsck(&stack, true));
            let repair_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let rescan = span(tracer, "fsck.rescan", id, req, |_| run_fsck(&stack, false));
            let rescan_s = t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            let fs = span(tracer, "fs.mount", id, req, |_| {
                Crfs::mount(Arc::clone(&stack.backend), spec.config())
            })
            .expect("mount over a repaired store");
            let name = if target.snapshot.is_some() {
                "fs.open_restart"
            } else {
                "fs.open"
            };
            let first = span(tracer, name, id, req, |_| {
                open_target(&fs, 0, target).and_then(|f| {
                    let mut byte = [0u8; 1];
                    f.read_at(0, &mut byte).map(|n| (f, n, byte[0]))
                })
            });
            let mount_open_s = t2.elapsed().as_secs_f64();
            let mut ops = Ops::default();
            ops.note(repair.is_clean());
            ops.note(rescan.damage.is_clean() && rescan.reports.is_empty());
            match first {
                Ok((f, n, byte)) => {
                    let exact = self.images[0].check(target.content, &[byte]).exact == 1;
                    ops.note(n == 1 && exact);
                    ops.note(f.close().is_ok());
                }
                Err(_) => ops.note(false),
            }
            let sample = RecoverSample {
                repair_s,
                rescan_s,
                mount_open_s,
                files: repair.files,
                damage: repair.damage.total(),
                redrained: repair.damage.tier_stranded + repair.damage.tier_diverged,
                store_bytes,
            };
            (sample, ops, Mount::over(stack, fs))
        });
        self.ops.add(ops);
        (sample, mount)
    }
}

fn run_fsck(stack: &Stack, repair: bool) -> FsckSummary {
    let roots = ["/".to_string()];
    let opts = FsckOptions {
        repair,
        ..FsckOptions::default()
    };
    match &stack.fast {
        Some(fast) => fsck::run_tiered(fast, &stack.durable, &roots, &opts),
        None => fsck::run(&stack.durable, &roots, &opts),
    }
}

/// Reads a crashed epoch's live file back and counts the extents that
/// break the recovery contract: exact bytes, a zero-filled hole, or a
/// detected error are all within it; anything else served wrong bytes.
fn wrong_extents_of_crash_survivor(fs: &Arc<Crfs>, img: &Image, rank: usize) -> u64 {
    let Ok(file) = fs.open(&ckpt_path(rank)) else {
        // Not even created before the cut: nothing was served.
        return 0;
    };
    let len = file.len().map_or(0, |l| l as usize).min(img.len());
    let mut got = vec![0u8; len];
    for start in (0..len).step_by(EXTENT) {
        let end = (start + EXTENT).min(len);
        match file.read_at(start as u64, &mut got[start..end]) {
            Ok(n) if n == end - start => {}
            // A detected error or a short read serves no bytes; blank
            // the extent so the check below sees a hole.
            _ => got[start..end].fill(0),
        }
    }
    let _ = file.close();
    img.check(img.epoch(), &got).wrong as u64
}

/// Runs one pass of `spec`. `data_parent` must exist; a scratch
/// directory is made inside it and removed on return or panic.
pub fn run_pass(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    data_parent: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Pass {
    let t_pass = Instant::now();
    let images: Vec<Image> = (0..RANKS)
        .map(|r| Image::new(seed, r as u32, spec.image_mib << 20, DIRTY))
        .collect();
    let rss_after_gen_mib = host::status_mib("VmRSS");
    let logical_bytes: u64 = images.iter().map(|i| i.len() as u64).sum();
    let writes_per_epoch: u64 = images.iter().map(|i| i.sizes.len() as u64).sum();
    let blcr = images[0].blcr.clone();
    let taps = tracer.map(|t| Taps::new(spec, t));
    let tap_pair = |taps: &Option<Taps>| -> TapPair {
        taps.as_ref().map_or([TapSnap::default(); 2], |t| {
            [
                TapSnap::of(t.near.counts()),
                TapSnap::of(t.durable.counts()),
            ]
        })
    };
    let scratch = ScratchDir::create(data_parent, spec.name).expect("data directory is writable");
    let root_open = taps
        .as_ref()
        .map(|t| t.tracer.begin("workload", 0, Req::step(0)));
    let mut h = Harness {
        spec,
        taps: taps.as_ref(),
        images,
        ops: Ops::default(),
        root: root_open.as_ref().map_or(0, |o| o.id()),
    };
    let traced = h.taps.is_some();

    // --- set-up, several times; the last store is the one measured on.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Mount, StoreDirs)> = None;
    for i in 0..SETUPS {
        let dirs = StoreDirs::new(scratch.path().join(format!("store{i}")));
        let (m, s) = h.set_up(&dirs, i as u32);
        setup_s.push(s);
        if i + 1 < SETUPS {
            h.unmount(m, i as u32);
            let _ = std::fs::remove_dir_all(dirs.root());
        } else {
            kept = Some((m, dirs));
        }
    }
    let (mount, dirs) = kept.expect("SETUPS >= 1");

    // Every epoch sealed so far: its snapshot id and the image epoch it holds.
    let mut sealed: Vec<Target> = Vec::new();
    let note_sealed = |sealed: &mut Vec<Target>, fs: &Arc<Crfs>, content: u64| {
        let snapshot = fs.snapshot_epochs().last().copied();
        sealed.push(Target { snapshot, content });
    };
    note_sealed(&mut sealed, &mount.fs, 0);

    // --- timed checkpoint epochs.
    let mut epochs = Vec::new();
    let mut epoch_stats = vec![];
    if traced {
        epoch_stats.push(mount.fs.stats());
    }
    let tier_before = mount.stack.tiered.as_ref().map(|t| t.tier_counters());
    let taps_ckpt_before = tap_pair(&taps);
    let phase = Instant::now();
    while epochs.len() < MIN_EPOCHS || phase.elapsed().as_secs_f64() < seconds * spec.shares[0] {
        for img in &mut h.images {
            img.advance();
        }
        let (u0, s0) = host::cpu_seconds();
        let out = h.checkpoint_epoch(&mount, "epoch", epochs.len() as u32 + 1, false);
        let (u1, s1) = host::cpu_seconds();
        if out.sealed {
            note_sealed(&mut sealed, &mount.fs, h.images[0].epoch());
        }
        epochs.push(EpochSample {
            ack_s: out.ack_s,
            durable_s: out.durable_s,
            cpu_user_s: u1 - u0,
            cpu_sys_s: s1 - s0,
        });
        if traced {
            epoch_stats.push(mount.fs.stats());
        }
    }
    let tier = tier_before.zip(mount.stack.tiered.as_ref().map(|t| t.tier_counters()));
    let taps_ckpt = [taps_ckpt_before, tap_pair(&taps)];

    // The clean store as fsck sees it before GC (third recorded anomaly).
    let pre_gc_orphans = if traced && spec.snapshots() {
        run_fsck(&mount.stack, false).damage.orphaned_chunks
    } else {
        0
    };

    // --- one GC, then what the durable tier holds.
    let gc = span(h.tracer(), "fs.snapshot_gc", h.root, Req::step(0), |_| {
        mount.fs.snapshot_gc()
    });
    h.ops.note(gc.is_ok());
    let gc = gc.unwrap_or_default();
    let retained_epochs = if spec.snapshots() {
        mount.fs.snapshot_epochs().len() as u64
    } else {
        1
    };
    // Measured on the unmounted store: a live mount may still hold a
    // file open, and an open `LocalFileBackend` file carries
    // preallocated slack.
    h.unmount(mount, 0);
    let stored_bytes = host::dir_usage(&dirs.stored(spec)).0;
    let cas_files = host::dir_usage(&dirs.stored(spec).join(".crfs-snap").join("cas")).1;

    // --- recover cycles, each from an unmounted store to an unmounted
    // store.
    let mut recovers = Vec::new();
    let mut crash_ops_refused = 0u64;
    let mut wrong_byte_restarts = 0u64;
    let mut phase = Phase::start();
    while phase.goes_on(recovers.len(), MIN_ROUNDS, seconds * spec.shares[1]) {
        let (step, warming) = phase.next();
        let crashed = spec.kind == Kind::FullCycle;
        if crashed {
            // One more epoch, with the power cut armed on both tiers.
            let m = h.mount_fresh(&dirs, h.root, step);
            let [fast, durable] = m.stack.faults.as_ref().expect("full_cycle injects faults");
            fast.set_mode(FailureMode::PowerCutAfterBytes(CUT_FAST));
            durable.set_mode(FailureMode::PowerCutAfterBytes(CUT_DURABLE));
            for img in &mut h.images {
                img.advance();
            }
            let out = h.checkpoint_epoch(&m, "crash", step, true);
            crash_ops_refused += out.refused;
            if out.sealed {
                // The cut never fired: the epoch is a good one.
                note_sealed(&mut sealed, &m.fs, h.images[0].epoch());
            }
            // The power is gone; whatever unmount reports is moot.
            let _ = m.fs.unmount();
        }
        if spec.kind == Kind::ColdRestart {
            // Node loss: the fast tier does not come back.
            let _ = std::fs::remove_dir_all(dirs.near());
        }
        let newest = *sealed.last().expect("the warm-up epoch sealed");
        let (sample, m) = h.recover(&dirs, newest, step);
        if crashed {
            for (rank, img) in h.images.iter().enumerate() {
                let wrong = wrong_extents_of_crash_survivor(&m.fs, img, rank);
                h.ops.note(wrong == 0);
                wrong_byte_restarts += wrong;
            }
        }
        h.unmount(m, step);
        if !warming {
            recovers.push(sample);
        }
    }

    // --- restart rounds. The streams go back to the epoch being
    // restored, so that its compare is a plain one.
    let newest = *sealed.last().expect("the warm-up epoch sealed");
    // The oldest epoch still retained (the newest where only one is).
    let oldest = sealed[sealed.len().saturating_sub(retained_epochs as usize)];
    for img in &mut h.images {
        img.seek(newest.content);
    }
    let mut bufs: Vec<Vec<u8>> = h.images.iter().map(|i| vec![0u8; i.len()]).collect();
    let mut taps_restart_before = tap_pair(&taps);
    let mut restart_s = Vec::new();
    let mut restart_stats = Vec::new();
    let mut direct_s = Vec::new();
    let mut phase = Phase::start();
    while phase.goes_on(restart_s.len(), MIN_ROUNDS, seconds * spec.shares[2]) {
        let (step, warming) = phase.next();
        // cold_restart alternates the newest and the oldest retained epoch.
        let target = if spec.kind == Kind::ColdRestart && step % 2 == 1 {
            oldest
        } else {
            newest
        };
        if !warming && restart_s.is_empty() {
            taps_restart_before = tap_pair(&taps);
        }
        let (wall, stats) = h.restart_round(&dirs, &mut bufs, target, Walk::Sequential, step);
        if warming {
            continue;
        }
        restart_s.push(wall);
        if traced {
            restart_stats.push(stats);
            if spec.kind == Kind::RawAggregate {
                direct_s.push(probes::direct_read(&dirs.near(), spec.read_size, &mut bufs));
            }
        }
    }
    let taps_restart = [taps_restart_before, tap_pair(&taps)];
    let strided_s = (traced && spec.kind == Kind::ColdRestart).then(|| {
        h.restart_round(&dirs, &mut bufs, newest, Walk::Strided, phase.iterations)
            .0
    });
    drop(bufs);

    let probes = if traced {
        probes::run(&h.images[0], &spec.config(), scratch.path())
    } else {
        Probes::default()
    };
    let ops = h.ops;
    drop(h);
    let traced = taps.map(|t| {
        if let Some(open) = root_open {
            t.tracer.end(open);
        }
        let mut spans = t.tracer.spans();
        // Phases are the root's children; decorator spans join the phase
        // whose window holds their start.
        let root = spans
            .iter()
            .find(|s| s.name == "workload")
            .map_or(0, |s| s.id);
        trace::attach_to_phases(&mut spans, |s| s.parent == root && s.parent != 0);
        Traced {
            spans,
            epoch_stats,
            tier: tier.map(|(a, b)| [a, b]),
            taps_ckpt,
            taps_restart,
            restart_stats,
            strided_s,
            direct_s,
            pre_gc_orphans,
            probes,
        }
    });
    drop(scratch);
    let (cpu_user_s, cpu_sys_s) = host::cpu_seconds();
    Pass {
        spec,
        logical_bytes,
        writes_per_epoch,
        blcr,
        ops,
        crash_ops_refused,
        wrong_byte_restarts,
        setup_s,
        epochs,
        stored_bytes,
        cas_files,
        retained_epochs,
        gc,
        recovers,
        restart_s,
        wall_s: t_pass.elapsed().as_secs_f64(),
        rss_after_gen_mib,
        rss_hwm_mib: host::status_mib("VmHWM"),
        cpu_user_s,
        cpu_sys_s,
        traced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_walk_visits_every_offset_once_and_front_loads_every_fourth_mib() {
        let len = 9 * EXTENT + 100;
        let read = 128 << 10;
        let seq = walk_offsets(len, read, Walk::Sequential);
        let strided = walk_offsets(len, read, Walk::Strided);
        let mut sorted = strided.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, seq);
        let per_mib = EXTENT / read;
        // MiB 0, 4 and 8 (plus MiB 9's tail is not a fourth) come first.
        let head = &strided[..3 * per_mib];
        assert!(head.iter().all(|o| (o / EXTENT).is_multiple_of(4)));
        assert_eq!(strided[per_mib], 4 * EXTENT);
        assert_ne!(strided, seq);
    }
}
