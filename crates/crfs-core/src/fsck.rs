//! Offline integrity checking and repair for CRFS stored layouts —
//! the library behind the `crfs-fsck` binary.
//!
//! A checkpoint volume holds three kinds of files: raw pass-through
//! files (the paper's layout, no metadata to check), frame logs (the
//! chunk-transform layout: a chain of [`ChunkFrame`]s, see
//! `transform::frame`; a content-store chunk is a one-frame log), and
//! sealed snapshot manifests. fsck walks a directory tree, classifies
//! every file, and verifies what each kind promises:
//!
//! - **Frame logs** get a full chain walk by the mount's own walker
//!   ([`walk_frames`]: header magic + CRC, payload bounds — the one
//!   place that decides where a log's clean prefix ends), plus, per
//!   frame, frame format, DATA-frame decode + digest check, and
//!   dedup-reference origin resolution. Damage is classified per the
//!   recovery contract (DESIGN.md §6): torn tail, bad header CRC, bad
//!   payload checksum, orphaned dedup reference.
//! - **Manifests** are decoded and every chunk record resolved.
//! - **Raw files** are counted and skipped.
//!
//! **Repair** (`FsckOptions::repair`) applies the torn-tail discard
//! rule persistently: a frame log whose chain walk stopped early is
//! truncated to the end of its last structurally valid frame, exactly
//! the prefix a mount-time open scan serves ([`ScanOutcome::clean_len`]
//! from the same walk). In-bounds damage (a
//! DATA frame that fails its checksum mid-chain) is *reported, not
//! repaired* — truncating would discard good frames past it, and the
//! read path already surfaces it as an `IntegrityError` instead of
//! wrong bytes.
//!
//! **Reads.** A checker reads each file through a read-only window (a
//! 4 MiB + header buffer it reuses from file to file) handed to the
//! unchanged [`FileHead::read`] / [`walk_frames`] as their
//! `BackendFile`. A file that fits is fetched by one read that serves
//! the classification, every header and payload, and the manifest
//! decode; a bigger one reads its 40-byte head (a raw image stops
//! there), then window-sized reads from the first byte the previous
//! window did not hold. Over a store with a round trip per read, that
//! count is the recovery time.
//!
//! **Checkers.** Checking parallelizes pFSCK-style: a work-stealing
//! pool of per-file checkers. Each checker owns a deque seeded
//! round-robin with the roots; directory expansion pushes discovered
//! children onto the checker's own queue (depth-first, cache-warm) and
//! idle checkers steal from the fronts of other queues, or park — so
//! one huge directory or one long log does not serialize the sweep. A
//! default sweep starts one checker per core and adds one, up to 16,
//! each time a checker finishes a job while the outstanding jobs
//! outnumber the live checkers: a read in flight costs no CPU, and a
//! two-file store never grows the pool. [`run_tiered`]'s
//! tier-consistency pass runs on the same pool after the sweep.
//!
//! [`ChunkFrame`]: crate::transform::frame::FrameHeader

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::backend::{read_exact_at, Backend, BackendFile, OpenOptions};
use crate::obs::Histogram;
use crate::snapshot::manifest::{ChunkRecord, Manifest, Record, MANIFEST_MAGIC};
use crate::snapshot::{parse_cas_name, parse_manifest_name, ChunkKey, CAS_DIR, SNAP_DIR};
use crate::transform::codec::decode_to_vec;
use crate::transform::frame::{
    payload_digest, FLAG_PAD, FLAG_REF, FLAG_TRUNC, FRAME_FORMAT, FRAME_HEADER_LEN,
};
use crate::transform::{walk_frames, FileHead, ScanOutcome, TailDamage, REF_META_LEN};

/// Bytes a checker reads at once: a one-frame content-store chunk of
/// the default 4 MiB `chunk_size`, header included, fits.
const WINDOW: usize = (4 << 20) + FRAME_HEADER_LEN as usize;

/// Most checkers a default (`threads: 0`) sweep grows to.
const CHECKER_DEPTH: usize = 16;

/// How a check/repair sweep should run.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Truncate torn frame-log tails to the last valid frame (and sync)
    /// instead of only reporting them.
    pub repair: bool,
    /// Checker threads. 0 = one per core, growing to 16 while queued
    /// work outnumbers the checkers (see the module docs); N = exactly N.
    pub threads: usize,
    /// Decode + checksum every DATA frame payload (the expensive part;
    /// disabling leaves a structural header walk).
    pub verify_payloads: bool,
}

impl Default for FsckOptions {
    fn default() -> Self {
        FsckOptions {
            repair: false,
            threads: 0,
            verify_payloads: true,
        }
    }
}

/// What kind of stored layout a checked file turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Pass-through payload bytes; nothing to verify.
    Raw,
    /// A chunk-transform frame chain.
    FrameLog,
    /// A sealed snapshot epoch manifest (see [`crate::snapshot`]).
    Manifest,
}

/// Per-class damage tally (the classes of the recovery contract, plus
/// dedup-reference orphans that only an offline cross-file sweep can
/// find).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DamageCounts {
    /// Chains ending in a header or payload cut short by EOF.
    pub torn_tails: u64,
    /// Chains ended by a header failing magic/CRC validation.
    pub bad_header_crc: u64,
    /// DATA frames whose payload failed decode or checksum, plus DATA
    /// and REF frames (and manifest chunk records) whose format byte
    /// names a check this build cannot recompute — a store written
    /// before the payload digest, which no mount will serve.
    pub bad_payload_checksum: u64,
    /// REF frames whose dedup origin is missing or too short to hold
    /// the referenced bytes.
    pub orphaned_refs: u64,
    /// Content-store chunk files that neither a sealed manifest nor a
    /// live log's REF frame references — crash remnants the next
    /// online GC would reclaim; `--repair` unlinks them.
    pub orphaned_chunks: u64,
    /// Manifest chunk records whose origin file is missing or too
    /// short to hold the recorded frame. Not repairable: the sealed
    /// epoch has lost bytes (reported so a restart is not attempted).
    pub dangling_manifest_refs: u64,
    /// Tiered stacks only ([`run_tiered`]): files the fast tier holds
    /// that the durable tier is missing entirely or holds short — the
    /// crash-during-drain shape. `--repair` re-drains the fast copy.
    pub tier_stranded: u64,
    /// Tiered stacks only: files present in both tiers whose bytes
    /// differ. The fast tier is authoritative (acknowledgement happened
    /// there); `--repair` re-drains it over the durable copy.
    pub tier_diverged: u64,
}

impl DamageCounts {
    /// No damage in any class.
    pub fn is_clean(&self) -> bool {
        *self == DamageCounts::default()
    }

    /// Events across all classes.
    pub fn total(&self) -> u64 {
        self.torn_tails
            + self.bad_header_crc
            + self.bad_payload_checksum
            + self.orphaned_refs
            + self.orphaned_chunks
            + self.dangling_manifest_refs
            + self.tier_stranded
            + self.tier_diverged
    }

    fn add(&mut self, other: &DamageCounts) {
        self.torn_tails += other.torn_tails;
        self.bad_header_crc += other.bad_header_crc;
        self.bad_payload_checksum += other.bad_payload_checksum;
        self.orphaned_refs += other.orphaned_refs;
        self.orphaned_chunks += other.orphaned_chunks;
        self.dangling_manifest_refs += other.dangling_manifest_refs;
        self.tier_stranded += other.tier_stranded;
        self.tier_diverged += other.tier_diverged;
    }
}

/// The findings for one damaged (or unreadable) file. Clean files are
/// counted in the summary but produce no per-file report.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Backend path of the file.
    pub path: String,
    /// Classified layout.
    pub kind: FileKind,
    /// Frames walked (frame logs) or chunk records resolved (manifests).
    pub frames: u64,
    /// Per-class damage found.
    pub damage: DamageCounts,
    /// Bytes past the last valid frame that repair truncated (or would
    /// truncate, in dry-run mode).
    pub torn_bytes: u64,
    /// Whether repair ran and the file now scans clean.
    pub repaired: bool,
    /// A structural problem that prevented checking or repairing
    /// (unopenable or unreadable file).
    pub error: Option<String>,
}

/// Aggregate result of one sweep.
#[derive(Debug, Default)]
pub struct FsckSummary {
    /// Files inspected (all kinds).
    pub files: u64,
    /// Files per classified kind.
    pub raw_files: u64,
    /// Frame-log files seen.
    pub frame_logs: u64,
    /// Snapshot epoch manifests seen.
    pub manifests: u64,
    /// Frames walked across all files.
    pub frames: u64,
    /// Damage totals across all files.
    pub damage: DamageCounts,
    /// Files repair restored to a clean scan.
    pub repaired_files: u64,
    /// Per-file findings for damaged/errored files only.
    pub reports: Vec<FileReport>,
    /// Wall-clock time of the sweep.
    pub elapsed: Duration,
    /// Per-file check latency distribution (ns) across all checkers —
    /// the fsck analogue of the mount's stage histograms.
    pub check_times: Histogram,
    /// Total check time (ns) by classified kind, indexed raw /
    /// frame-log / manifest — per-checker attribution of where the
    /// sweep's CPU went.
    pub checker_ns: [u64; 3],
    /// Content-store paths referenced by REF frames in swept logs.
    /// Chunks staged in a not-yet-sealed epoch appear in no manifest,
    /// so the orphan pass must honor live references too.
    cas_refs: std::collections::HashSet<String>,
    /// Chunk keys of each manifest the sweep checked (none if it does
    /// not decode): the orphan pass reads only the ones it did not.
    manifest_keys: HashMap<String, Vec<ChunkKey>>,
}

impl FileKind {
    /// Stable lower-case name (JSON field values).
    pub fn name(self) -> &'static str {
        match self {
            FileKind::Raw => "raw",
            FileKind::FrameLog => "frame_log",
            FileKind::Manifest => "manifest",
        }
    }
}

impl DamageCounts {
    fn to_value(self) -> serde_json::Value {
        serde_json::json!({
            "torn_tails": self.torn_tails,
            "bad_header_crc": self.bad_header_crc,
            "bad_payload_checksum": self.bad_payload_checksum,
            "orphaned_refs": self.orphaned_refs,
            "orphaned_chunks": self.orphaned_chunks,
            "dangling_manifest_refs": self.dangling_manifest_refs,
            "tier_stranded": self.tier_stranded,
            "tier_diverged": self.tier_diverged,
        })
    }
}

impl FsckSummary {
    /// Whether every checked file verified clean (after repair, when
    /// repair ran).
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.repaired && r.error.is_none())
    }

    /// The machine-readable form of the sweep: totals, per-class damage
    /// counts, per-file reports (classification, damage, repair
    /// action), per-checker time attribution, and the per-file check
    /// latency histogram.
    pub fn to_value(&self) -> serde_json::Value {
        let reports: Vec<serde_json::Value> = self
            .reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "path": r.path.clone(),
                    "kind": r.kind.name(),
                    "frames": r.frames,
                    "damage": r.damage.to_value(),
                    "torn_bytes": r.torn_bytes,
                    "repaired": r.repaired,
                    "error": match &r.error {
                        Some(e) => serde_json::Value::String(e.clone()),
                        None => serde_json::Value::Null,
                    },
                })
            })
            .collect();
        serde_json::json!({
            "files": self.files,
            "raw_files": self.raw_files,
            "frame_logs": self.frame_logs,
            "manifests": self.manifests,
            "frames": self.frames,
            "damage": self.damage.to_value(),
            "damage_total": self.damage.total(),
            "clean": self.is_clean(),
            "repaired_files": self.repaired_files,
            "elapsed_us": self.elapsed.as_micros() as u64,
            "checker_ns": serde_json::json!({
                "raw": self.checker_ns[FileKind::Raw as usize],
                "frame_log": self.checker_ns[FileKind::FrameLog as usize],
                "manifest": self.checker_ns[FileKind::Manifest as usize],
            }),
            "check_times": self.check_times.snapshot().to_value(),
            "reports": serde_json::Value::Array(reports),
        })
    }

    /// [`to_value`](Self::to_value), pretty-printed.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("infallible")
    }
}

/// Checks (and optionally repairs) every file reachable from `roots` —
/// paths of files or directories on `backend`. Directories expand
/// recursively; the per-file work spreads over a work-stealing pool of
/// checkers sized by `opts.threads` (see [`FsckOptions::threads`]).
pub fn run(backend: &Arc<dyn Backend>, roots: &[String], opts: &FsckOptions) -> FsckSummary {
    let t0 = Instant::now();
    let mut summary = sweep(&**backend, roots, opts.threads, |path, checker| {
        check_file(backend, path, opts, checker)
    });
    check_snapshot_orphans(backend, opts, &mut summary);
    summary.reports.sort_by(|a, b| a.path.cmp(&b.path));
    summary.elapsed = t0.elapsed();
    summary
}

/// Checks a two-tier stack (see [`crate::backend::TieredBackend`]):
/// the structural sweep of [`run`] over the *union* view (fast bytes
/// win, as they do for the mount's reads), followed by a
/// tier-consistency pass comparing every fast-tier file against its
/// durable copy. A file the durable tier is missing or holds short is
/// **stranded** (the crash-during-drain shape: acknowledged fast, never
/// fully drained); matching lengths with differing bytes is
/// **diverged**. Both re-drain under `opts.repair` — the fast tier is
/// authoritative, since acknowledgement happened there. Files only the
/// durable tier holds are legitimate (evicted after a full drain) and
/// are checked structurally but not flagged.
pub fn run_tiered(
    fast: &Arc<dyn Backend>,
    durable: &Arc<dyn Backend>,
    roots: &[String],
    opts: &FsckOptions,
) -> FsckSummary {
    let t0 = Instant::now();
    let union: Arc<dyn Backend> = Arc::new(crate::backend::TieredBackend::new(
        Arc::clone(fast),
        Arc::clone(durable),
        crate::backend::TieredParams {
            promote_reads: false,
            evict_on_barrier: false,
            ..Default::default()
        },
    ));
    let mut summary = run(&union, roots, opts);
    if opts.repair {
        // Structural repairs (torn-tail truncation, orphan unlinks) went
        // through the union view; make sure none of them is still in the
        // drain queue before comparing tiers.
        let _ = union.drain_barrier();
    }
    // The tier-consistency pass, on the same pool: every fast-tier file
    // under `roots` compared byte-for-byte against the durable tier.
    let tiers = sweep(&**fast, roots, opts.threads, |path, checker| {
        // A crash mid-promotion strands its staging file in the fast
        // tier. It is backend-internal partial junk, not user data:
        // never compare (or re-drain) it, and sweep it under `--repair`.
        if crate::backend::is_promote_tmp(path) {
            if opts.repair {
                let _ = fast.unlink(path);
            }
            return;
        }
        compare_tier_file(fast, durable, path, opts, &mut checker.summary);
    });
    merge(&mut summary, tiers);
    summary.reports.sort_by(|a, b| a.path.cmp(&b.path));
    summary.elapsed = t0.elapsed();
    summary
}

fn compare_tier_file(
    fast: &Arc<dyn Backend>,
    durable: &Arc<dyn Backend>,
    path: &str,
    opts: &FsckOptions,
    summary: &mut FsckSummary,
) {
    let Ok(fast_len) = fast.file_len(path) else {
        return; // raced an unlink; nothing to compare
    };
    let mut damage = DamageCounts::default();
    match durable.file_len(path) {
        Err(_) => damage.tier_stranded = 1,
        Ok(durable_len) if durable_len != fast_len => damage.tier_stranded = 1,
        Ok(_) => {
            match tier_bytes_equal(fast, durable, path, fast_len) {
                Ok(true) => {}
                Ok(false) => damage.tier_diverged = 1,
                Err(_) => damage.tier_stranded = 1,
            };
        }
    }
    if damage.is_clean() {
        return;
    }
    summary.damage.add(&damage);
    let mut repaired = false;
    let mut error = None;
    if opts.repair {
        match redrain(fast, durable, path) {
            Ok(()) => repaired = true,
            Err(e) => error = Some(format!("re-drain failed: {e}")),
        }
    }
    if repaired {
        summary.repaired_files += 1;
    }
    summary.reports.push(FileReport {
        path: path.to_string(),
        kind: FileKind::Raw,
        frames: 0,
        damage,
        torn_bytes: 0,
        repaired,
        error,
    });
}

fn tier_bytes_equal(
    fast: &Arc<dyn Backend>,
    durable: &Arc<dyn Backend>,
    path: &str,
    len: u64,
) -> io::Result<bool> {
    let ff = fast.open(path, OpenOptions::read_only())?;
    let df = durable.open(path, OpenOptions::read_only())?;
    let mut fb = vec![0u8; 1 << 20];
    let mut db = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < len {
        let want = fb.len().min((len - off) as usize);
        read_exact_at(&*ff, off, &mut fb[..want])?;
        read_exact_at(&*df, off, &mut db[..want])?;
        if fb[..want] != db[..want] {
            return Ok(false);
        }
        off += want as u64;
    }
    Ok(true)
}

/// Re-drains one fast-tier file over its durable copy: parent dirs,
/// whole-file copy, sync — the offline analogue of the tier drain.
fn redrain(fast: &Arc<dyn Backend>, durable: &Arc<dyn Backend>, path: &str) -> io::Result<()> {
    // Ensure the durable parent chain exists (a crash can strand a file
    // whose directory never drained either).
    let mut prefix = String::new();
    for comp in crate::backend::parent_of(path)
        .split('/')
        .filter(|c| !c.is_empty())
    {
        prefix = format!("{prefix}/{comp}");
        if durable.exists(&prefix) {
            continue;
        }
        match durable.mkdir(&prefix) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
    let src = fast.open(path, OpenOptions::read_only())?;
    let dst = durable.open(path, OpenOptions::create_truncate())?;
    let len = src.len()?;
    // Aligned, so full steps reach a direct-capable tier in place.
    let mut buf = crate::pool::ChunkBuf::new(1 << 20);
    let mut off = 0u64;
    while off < len {
        let want = buf.len().min((len - off) as usize);
        read_exact_at(&*src, off, &mut buf[..want])?;
        dst.write_at(off, &buf[..want])?;
        off += want as u64;
    }
    dst.sync()
}

fn merge(into: &mut FsckSummary, from: FsckSummary) {
    into.files += from.files;
    into.raw_files += from.raw_files;
    into.frame_logs += from.frame_logs;
    into.manifests += from.manifests;
    into.frames += from.frames;
    into.damage.add(&from.damage);
    into.repaired_files += from.repaired_files;
    into.reports.extend(from.reports);
    into.cas_refs.extend(from.cas_refs);
    into.manifest_keys.extend(from.manifest_keys);
    into.check_times.merge(&from.check_times);
    for (mine, theirs) in into.checker_ns.iter_mut().zip(from.checker_ns) {
        *mine += theirs;
    }
}

// ---------------------------------------------------------------------
// Work-stealing pool
// ---------------------------------------------------------------------

/// Per-checker deques with front-stealing. Jobs are backend paths: what
/// `lister` lists expands, anything else goes to `visit`. `outstanding`
/// covers queued *and* in-flight jobs, so a checker only exits when the
/// whole sweep is drained. Every checker the pool may grow to has a
/// queue; `live` of them have a checker. Idle checkers park with the
/// engine's protocol (`engine/ring.rs`, "Parking"): a waker changes the
/// state (pushes jobs, or drops `outstanding` to zero), then takes and
/// drops `gate` and notifies; a waiter re-checks under `gate` and waits
/// untimed. The counters are `Relaxed`: jobs travel under the queue
/// locks, parking orders through `gate`, and each counter publishes
/// nothing but itself.
struct StealPool<'a, F> {
    lister: &'a dyn Backend,
    visit: F,
    queues: Vec<Mutex<VecDeque<String>>>,
    outstanding: AtomicU64,
    live: AtomicUsize,
    gate: Mutex<()>,
    idle: Condvar,
    found: Mutex<FsckSummary>,
}

/// One checker's findings, and the window buffer it reads files through.
#[derive(Default)]
struct Checker {
    summary: FsckSummary,
    window: Vec<u8>,
}

/// Runs `visit` on every file reachable from `roots` on `lister` over a
/// pool sized by `threads` (see [`FsckOptions::threads`]).
fn sweep<F>(lister: &dyn Backend, roots: &[String], threads: usize, visit: F) -> FsckSummary
where
    F: Fn(&str, &mut Checker) + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (first, most) = match threads {
        0 => (cores, cores.max(CHECKER_DEPTH)),
        n => (n, n),
    };
    let pool = StealPool {
        lister,
        visit,
        queues: (0..most).map(|_| Mutex::new(VecDeque::new())).collect(),
        outstanding: AtomicU64::new(0),
        live: AtomicUsize::new(first),
        gate: Mutex::new(()),
        idle: Condvar::new(),
        found: Mutex::new(FsckSummary::default()),
    };
    for (i, root) in roots.iter().enumerate() {
        pool.push(i % first, vec![root.clone()]);
    }
    std::thread::scope(|s| {
        for worker in 0..first {
            let pool = &pool;
            s.spawn(move || pool.checker(s, worker));
        }
    });
    pool.found.into_inner()
}

impl<F: Fn(&str, &mut Checker) + Sync> StealPool<'_, F> {
    /// One checker: jobs until the sweep drains.
    fn checker<'s>(&'s self, s: &'s Scope<'s, '_>, worker: usize) {
        let mut checker = Checker::default();
        while let Some(path) = self.next_job(worker) {
            // A listable path is a directory: expand onto our own queue
            // and let idle checkers steal the siblings.
            match self.lister.list_dir(&path) {
                Ok(names) => {
                    let dir = path.trim_end_matches('/');
                    self.push(worker, names.iter().map(|n| format!("{dir}/{n}")).collect());
                }
                Err(_) => (self.visit)(&path, &mut checker),
            }
            // Done (its children carry their own count); the last job
            // releases every parked checker.
            if self.outstanding.fetch_sub(1, Relaxed) == 1 {
                self.wake();
            }
            // Grow while the outstanding jobs outnumber the checkers.
            let grown = self.live.fetch_update(Relaxed, Relaxed, |live| {
                let behind = self.outstanding.load(Relaxed) > live as u64;
                (behind && live < self.queues.len()).then_some(live + 1)
            });
            if let Ok(next) = grown {
                s.spawn(move || self.checker(s, next));
            }
        }
        merge(&mut self.found.lock(), checker.summary);
    }

    /// Enqueues jobs on `worker`'s own queue (tail — depth-first for
    /// the owner, while thieves take the front, breadth-first).
    fn push(&self, worker: usize, jobs: Vec<String>) {
        self.outstanding.fetch_add(jobs.len() as u64, Relaxed);
        self.queues[worker].lock().extend(jobs);
        self.wake();
    }

    /// Next job for `worker`: own queue first (LIFO), then the front of
    /// the other queues, round-robin from the right neighbor; parked
    /// while other checkers still hold jobs. `None` once the sweep is
    /// fully drained.
    fn next_job(&self, worker: usize) -> Option<String> {
        let n = self.queues.len();
        let take = || {
            let own = self.queues[worker].lock().pop_back();
            own.or_else(|| (1..n).find_map(|k| self.queues[(worker + k) % n].lock().pop_front()))
        };
        if let Some(job) = take() {
            return Some(job);
        }
        let mut gate = self.gate.lock();
        loop {
            if let Some(job) = take() {
                return Some(job);
            }
            if self.outstanding.load(Relaxed) == 0 {
                return None;
            }
            self.idle.wait(&mut gate);
        }
    }

    fn wake(&self) {
        drop(self.gate.lock());
        self.idle.notify_all();
    }
}

// ---------------------------------------------------------------------
// Per-file checks
// ---------------------------------------------------------------------

/// A checker's read-through view of one file, handed to the unchanged
/// [`FileHead::read`] / [`walk_frames`] as their `BackendFile` (module
/// docs, "Reads"). `view` is the checker's buffer, whose first `held`
/// bytes are the file's from `start`: `(start, held, buf)`. A read past
/// the end fails, as `read_exact_at` would.
struct Window<'a> {
    file: &'a dyn BackendFile,
    view: Mutex<(u64, usize, &'a mut Vec<u8>)>,
}

impl BackendFile for Window<'_> {
    fn read_at(&self, offset: u64, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut view = self.view.lock();
        let (start, held, buf) = &mut *view;
        if offset < *start || offset + out.len() as u64 > *start + *held as u64 {
            // A big file's first read is its head, all a raw image is
            // ever read for; any other miss reads a window from here.
            let len = self.file.len()?;
            let next = match len > WINDOW as u64 && *held == 0 {
                true => out.len(),
                false => (len.saturating_sub(offset).min(WINDOW as u64) as usize).max(out.len()),
            };
            if buf.len() < next {
                buf.resize(next, 0);
            }
            *held = 0;
            read_exact_at(self.file, offset, &mut buf[..next])?;
            (*start, *held) = (offset, next);
        }
        let at = (offset - *start) as usize;
        out.copy_from_slice(&buf[at..at + out.len()]);
        Ok(out.len())
    }

    crate::forward_file_ops!(file: write_at, sync, len, set_len);
}

fn check_file(backend: &Arc<dyn Backend>, path: &str, opts: &FsckOptions, checker: &mut Checker) {
    checker.summary.files += 1;
    let t0 = Instant::now();
    let kind = check_file_inner(backend, path, opts, checker);
    let spent = t0.elapsed();
    let local = &mut checker.summary;
    local.check_times.record_dur(spent);
    local.checker_ns[kind as usize] += spent.as_nanos() as u64;
}

/// The report of a file that could not be checked at all.
fn unchecked(path: &str, kind: FileKind, error: String) -> FileReport {
    FileReport {
        path: path.to_string(),
        kind,
        frames: 0,
        damage: DamageCounts::default(),
        torn_bytes: 0,
        repaired: false,
        error: Some(error),
    }
}

/// The untimed body of [`check_file`]; returns the classified kind so
/// the caller can attribute the check time per checker.
fn check_file_inner(
    backend: &Arc<dyn Backend>,
    path: &str,
    opts: &FsckOptions,
    checker: &mut Checker,
) -> FileKind {
    let local = &mut checker.summary;
    let file = backend.open(path, OpenOptions::read_only());
    // The window's first read serves the classification and, for a
    // file that fits, everything after it.
    let opened = match &file {
        Err(e) => Err(format!("unopenable: {e}")),
        Ok(file) => {
            let view = Mutex::new((0, 0, &mut checker.window));
            let window = Window {
                file: &**file,
                view,
            };
            match FileHead::read(&window) {
                Ok(head) => Ok((head, window)),
                Err(e) => Err(format!("unreadable: {e}")),
            }
        }
    };
    let (head, window) = match opened {
        Ok(opened) => opened,
        Err(error) => {
            local.reports.push(unchecked(path, FileKind::Raw, error));
            return FileKind::Raw;
        }
    };
    let kind = classify(&head);
    match kind {
        FileKind::Raw => local.raw_files += 1,
        FileKind::FrameLog => {
            local.frame_logs += 1;
            check_frame_log(backend, path, &window, &head, opts, local);
        }
        FileKind::Manifest => {
            local.manifests += 1;
            check_manifest(backend, path, &window, opts, local);
        }
    }
    kind
}

/// Sniffs the leading magic. Framed-vs-raw is the open scan's own rule
/// ([`FileHead::is_framed`]): a short file whose bytes match a prefix
/// of the frame magic is a torn frame log (the crash case), not raw.
fn classify(head: &FileHead) -> FileKind {
    // Manifests require the full 4-byte magic: "CRSM" and the frame
    // magic share the "CR" prefix, and a sub-4-byte torn tail should
    // keep classifying as a torn frame log (the common crash shape).
    if head.bytes().starts_with(&MANIFEST_MAGIC) {
        FileKind::Manifest
    } else if head.is_framed() {
        FileKind::FrameLog
    } else {
        FileKind::Raw
    }
}

/// Walks a frame log end to end with [`walk_frames`] — the structural
/// validation every open performs — adding per frame the optional
/// payload decode + checksum and the dedup-reference origin
/// resolution, and — under `repair` — truncating a torn tail to the
/// walk's clean prefix.
fn check_frame_log(
    backend: &Arc<dyn Backend>,
    path: &str,
    file: &dyn BackendFile,
    head: &FileHead,
    opts: &FsckOptions,
    local: &mut FsckSummary,
) {
    let stored_len = head.stored_len;
    let mut damage = DamageCounts::default();
    let mut frames = 0u64;
    // One stored and one decoded buffer for the whole log, not a pair
    // per frame.
    let mut payload = Vec::new();
    let mut out = Vec::new();
    let walked = walk_frames(file, head, |off, h| {
        frames += 1;
        if h.flags & (FLAG_PAD | FLAG_TRUNC) != 0 {
            return Ok(());
        }
        payload.resize(h.stored_len as usize, 0);
        read_exact_at(file, off + FRAME_HEADER_LEN, &mut payload)?;
        if h.format != FRAME_FORMAT {
            // Structurally sound, but its check was computed by a
            // function this build does not have (format 0: a store
            // written before the payload digest): no mount will
            // serve it. The header says so, whether or not payloads
            // are verified.
            damage.bad_payload_checksum += 1;
        }
        if h.flags & FLAG_REF != 0 {
            if !ref_resolves(backend, path, stored_len, &payload) {
                damage.orphaned_refs += 1;
            }
            if let Some(meta) = payload.get(REF_META_LEN..) {
                if let Ok(origin) = std::str::from_utf8(meta) {
                    if origin.starts_with(CAS_DIR) {
                        local.cas_refs.insert(origin.to_string());
                    }
                }
            }
        } else if opts.verify_payloads && h.format == FRAME_FORMAT {
            let ok = decode_to_vec(h.codec, &payload, h.logical_len as usize, &mut out).is_ok()
                && payload_digest(&out).check == h.payload_check;
            if !ok {
                damage.bad_payload_checksum += 1;
            }
        }
        Ok(())
    });
    local.frames += frames;
    let outcome: ScanOutcome = match walked {
        Ok(outcome) => outcome.expect("classified framed from the same head"),
        Err(e) => {
            // A backend read failed mid-walk. That is not a torn tail:
            // nothing is known about the bytes past it, so nothing is
            // cut.
            local.damage.add(&damage);
            local.reports.push(FileReport {
                frames,
                damage,
                ..unchecked(path, FileKind::FrameLog, format!("unreadable: {e}"))
            });
            return;
        }
    };
    match outcome.damage {
        Some(TailDamage::TruncatedHeader | TailDamage::TruncatedPayload) => damage.torn_tails += 1,
        Some(TailDamage::BadHeaderCrc) => damage.bad_header_crc += 1,
        None => {}
    }
    local.damage.add(&damage);
    if damage.is_clean() {
        return;
    }
    let mut repaired = false;
    let mut error = None;
    if opts.repair && outcome.damage.is_some() {
        // Persist the discard rule: cut back to the prefix every open
        // already serves. In-bounds damage (checksum/orphan) stays —
        // truncating there would throw away good frames past it.
        match repair_truncate(backend, path, outcome.clean_len) {
            Ok(()) => {
                repaired = damage.bad_payload_checksum == 0 && damage.orphaned_refs == 0;
            }
            Err(e) => error = Some(format!("repair failed: {e}")),
        }
    }
    if repaired {
        local.repaired_files += 1;
    }
    local.reports.push(FileReport {
        path: path.to_string(),
        kind: FileKind::FrameLog,
        frames,
        damage,
        torn_bytes: stored_len - outcome.clean_len,
        repaired,
        error,
    });
}

/// Whether a REF frame's origin exists and is long enough to hold the
/// referenced stored extent.
fn ref_resolves(backend: &Arc<dyn Backend>, path: &str, own_len: u64, payload: &[u8]) -> bool {
    if payload.len() < REF_META_LEN {
        return false;
    }
    let origin_off = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let origin_len = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    let Ok(origin_path) = std::str::from_utf8(&payload[REF_META_LEN..]) else {
        return false;
    };
    let origin_total = if origin_path == path {
        own_len
    } else {
        match backend.file_len(origin_path) {
            Ok(n) => n,
            Err(_) => return false,
        }
    };
    origin_off + FRAME_HEADER_LEN + u64::from(origin_len) <= origin_total
}

fn repair_truncate(backend: &Arc<dyn Backend>, path: &str, clean_len: u64) -> io::Result<()> {
    let rw = backend.open(path, OpenOptions::read_write())?;
    rw.set_len(clean_len)?;
    rw.sync()
}

/// Validates a sealed epoch manifest: structural decode (magic,
/// version, crc trailer) plus per-record origin resolution — every
/// chunk record must point at an existing file long enough to hold the
/// recorded frame. An undecodable manifest is a torn seal; the recovery
/// contract says that epoch never existed, so `--repair` unlinks it.
/// Dangling records are *not* repairable: the sealed epoch has lost
/// bytes, and the only honest outcome is to report it so a restart from
/// that epoch is not attempted.
fn check_manifest(
    backend: &Arc<dyn Backend>,
    path: &str,
    file: &dyn BackendFile,
    opts: &FsckOptions,
    local: &mut FsckSummary,
) {
    let mut damage = DamageCounts::default();
    let mut frames = 0u64;
    let mut repaired = false;
    let mut error = None;
    let keys = local.manifest_keys.entry(path.to_string()).or_default();
    match read_manifest(file) {
        Ok(m) => {
            for (_, records) in &m.files {
                for rec in records {
                    let Record::Chunk(c) = rec else { continue };
                    frames += 1;
                    keys.push((c.hash, c.logical_len));
                    if !manifest_ref_resolves(backend, c) {
                        damage.dangling_manifest_refs += 1;
                    }
                    if c.format != FRAME_FORMAT {
                        damage.bad_payload_checksum += 1;
                    }
                }
            }
        }
        Err(e) => {
            damage.torn_tails += 1;
            if opts.repair {
                match backend.unlink(path) {
                    Ok(()) => repaired = true,
                    Err(e) => error = Some(format!("repair failed: {e}")),
                }
            }
            if error.is_none() && !opts.repair {
                error = Some(format!("manifest does not decode: {e}"));
            }
        }
    }
    local.frames += frames;
    if damage.is_clean() {
        return;
    }
    local.damage.add(&damage);
    if repaired {
        local.repaired_files += 1;
    }
    local.reports.push(FileReport {
        path: path.to_string(),
        kind: FileKind::Manifest,
        frames,
        damage,
        torn_bytes: 0,
        repaired,
        error,
    });
}

fn read_manifest(file: &dyn BackendFile) -> io::Result<Manifest> {
    let len = file.len()?;
    let mut buf = vec![0u8; len as usize];
    read_exact_at(file, 0, &mut buf)?;
    Manifest::decode(&buf)
}

/// Whether a manifest chunk record's origin file exists and is long
/// enough to hold the recorded stored extent.
fn manifest_ref_resolves(backend: &Arc<dyn Backend>, rec: &ChunkRecord) -> bool {
    match backend.file_len(&rec.origin_path) {
        Ok(total) => rec.origin_off + FRAME_HEADER_LEN + u64::from(rec.stored_len) <= total,
        Err(_) => false,
    }
}

/// Post-sweep global pass: any content-store chunk file that no
/// decodable manifest references is an orphan — a remnant of a crash
/// between CAS store and seal, or of a GC interrupted mid-sweep. They
/// waste space but carry no reachable data, so `--repair` unlinks them.
/// This check is only sound offline: a live mount's in-flight chunks
/// are registered in memory, not in a sealed manifest, and would show
/// up here as false orphans.
fn check_snapshot_orphans(
    backend: &Arc<dyn Backend>,
    opts: &FsckOptions,
    summary: &mut FsckSummary,
) {
    let Ok(snap_names) = backend.list_dir(SNAP_DIR) else {
        return; // no snapshot store on this backend
    };
    let mut referenced = std::collections::HashSet::new();
    for name in &snap_names {
        if parse_manifest_name(name).is_none() {
            continue;
        }
        let path = format!("{SNAP_DIR}/{name}");
        // The sweep recorded the keys of every manifest it checked; only
        // one it did not visit (roots that miss `SNAP_DIR`) is read here.
        if let Some(keys) = summary.manifest_keys.get(&path) {
            referenced.extend(keys);
            continue;
        }
        let Ok(file) = backend.open(&path, OpenOptions::read_only()) else {
            continue;
        };
        // An undecodable manifest contributes no references; the main
        // sweep already reported (and possibly repaired) it.
        let Ok(m) = read_manifest(&*file) else {
            continue;
        };
        for (_, records) in &m.files {
            for rec in records {
                if let Record::Chunk(c) = rec {
                    referenced.insert((c.hash, c.logical_len));
                }
            }
        }
    }
    let Ok(cas_names) = backend.list_dir(CAS_DIR) else {
        return;
    };
    for name in cas_names {
        // An unparseable name cannot be referenced by any manifest
        // (references are reconstructed from hash + length), so it is
        // an orphan unless a live log's REF frame still points at it.
        if parse_cas_name(&name).is_some_and(|key| referenced.contains(&key)) {
            continue;
        }
        let path = format!("{CAS_DIR}/{name}");
        if summary.cas_refs.contains(&path) {
            continue;
        }
        let mut repaired = false;
        let mut error = None;
        if opts.repair {
            match backend.unlink(&path) {
                Ok(()) => repaired = true,
                Err(e) => error = Some(format!("repair failed: {e}")),
            }
        }
        summary.damage.orphaned_chunks += 1;
        if repaired {
            summary.repaired_files += 1;
        }
        summary.reports.push(FileReport {
            path,
            kind: FileKind::FrameLog,
            frames: 0,
            damage: DamageCounts {
                orphaned_chunks: 1,
                ..DamageCounts::default()
            },
            torn_bytes: 0,
            repaired,
            error,
        });
    }
}

impl std::fmt::Display for FsckSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "checked {} files in {:?}: {} frame logs, {} manifests, \
             {} raw ({} frames walked)",
            self.files, self.elapsed, self.frame_logs, self.manifests, self.raw_files, self.frames
        )?;
        if self.damage.is_clean() {
            return write!(f, "clean: no damage in any class");
        }
        writeln!(
            f,
            "damage: {} torn tails, {} bad header CRCs, {} bad payload checksums, \
             {} orphaned dedup refs, {} orphaned chunks, {} dangling manifest refs, \
             {} tier-stranded, {} tier-diverged; {} files repaired",
            self.damage.torn_tails,
            self.damage.bad_header_crc,
            self.damage.bad_payload_checksum,
            self.damage.orphaned_refs,
            self.damage.orphaned_chunks,
            self.damage.dangling_manifest_refs,
            self.damage.tier_stranded,
            self.damage.tier_diverged,
            self.repaired_files
        )?;
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "  {} [{:?}] frames={} torn={} crc={} checksum={} orphans={} \
                 chunks={} dangling={} stranded={} diverged={} torn_bytes={}{}{}",
                r.path,
                r.kind,
                r.frames,
                r.damage.torn_tails,
                r.damage.bad_header_crc,
                r.damage.bad_payload_checksum,
                r.damage.orphaned_refs,
                r.damage.orphaned_chunks,
                r.damage.dangling_manifest_refs,
                r.damage.tier_stranded,
                r.damage.tier_diverged,
                r.torn_bytes,
                if r.repaired { " REPAIRED" } else { "" },
                match &r.error {
                    Some(e) => format!(" ERROR: {e}"),
                    None => String::new(),
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::transform::frame::FrameHeader;
    use crate::transform::CodecKind;
    use crate::{Crfs, CrfsConfig};

    fn be() -> Arc<dyn Backend> {
        Arc::new(MemBackend::new())
    }

    /// Writes `files` frame logs of `len` bytes each under `/ckpt`.
    fn populate(backend: &Arc<dyn Backend>, files: usize, len: usize) {
        let fs = Crfs::mount(
            Arc::clone(backend),
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 * 1024)
                .with_codec(CodecKind::Lz),
        )
        .unwrap();
        fs.mkdir("/ckpt").unwrap();
        for i in 0..files {
            let f = fs.create(&format!("/ckpt/rank{i}.img")).unwrap();
            let data: Vec<u8> = (0..len).map(|b| ((b / 64) ^ i) as u8).collect();
            f.write(&data).unwrap();
            f.close().unwrap();
        }
        fs.unmount().unwrap();
    }

    fn opts(threads: usize) -> FsckOptions {
        FsckOptions {
            threads,
            ..FsckOptions::default()
        }
    }

    #[test]
    fn clean_tree_reports_clean_on_any_thread_count() {
        let backend = be();
        populate(&backend, 6, 20_000);
        for threads in [1, 4] {
            let sum = run(&backend, &["/".to_string()], &opts(threads));
            assert!(sum.is_clean(), "{sum}");
            assert_eq!(sum.frame_logs, 6);
            assert!(sum.frames >= 6 * 5, "5 chunks per file: {sum}");
            assert!(sum.reports.is_empty());
        }
    }

    #[test]
    fn torn_tail_is_found_and_repaired_to_a_clean_scan() {
        let backend = be();
        populate(&backend, 3, 20_000);
        // Tear the tail of one log mid-payload.
        let victim = "/ckpt/rank1.img";
        let len = backend.file_len(victim).unwrap();
        let f = backend.open(victim, OpenOptions::read_write()).unwrap();
        f.set_len(len - 50).unwrap();
        drop(f);

        let dry = run(&backend, &["/".to_string()], &opts(2));
        assert_eq!(dry.damage.torn_tails, 1);
        assert_eq!(dry.reports.len(), 1);
        assert_eq!(dry.reports[0].path, victim);
        assert!(!dry.reports[0].repaired, "dry run must not repair");
        assert!(dry.reports[0].torn_bytes > 0);
        assert_eq!(
            backend.file_len(victim).unwrap(),
            len - 50,
            "dry run must not mutate"
        );

        let fixed = run(
            &backend,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                ..opts(2)
            },
        );
        assert_eq!(fixed.repaired_files, 1);
        assert!(fixed.is_clean(), "{fixed}");
        let after = run(&backend, &["/".to_string()], &opts(2));
        assert!(after.damage.is_clean(), "repaired log scans clean");
    }

    #[test]
    fn bad_payload_checksum_is_reported_not_repaired() {
        let backend = be();
        populate(&backend, 1, 20_000);
        let victim = "/ckpt/rank0.img";
        // Flip a byte inside the first frame's payload.
        let f = backend.open(victim, OpenOptions::read_write()).unwrap();
        let at = FRAME_HEADER_LEN + 5;
        let mut b = [0u8; 1];
        f.read_at(at, &mut b).unwrap();
        f.write_at(at, &[b[0] ^ 0xFF]).unwrap();
        drop(f);
        let len = backend.file_len(victim).unwrap();

        let sum = run(
            &backend,
            &["/ckpt".to_string()],
            &FsckOptions {
                repair: true,
                ..opts(1)
            },
        );
        assert_eq!(sum.damage.bad_payload_checksum, 1);
        assert_eq!(sum.repaired_files, 0, "mid-chain damage is not truncated");
        assert_eq!(
            backend.file_len(victim).unwrap(),
            len,
            "no good frames were discarded"
        );
    }

    #[test]
    fn orphaned_dedup_reference_is_detected() {
        let backend = be();
        // Two identical files on a dedup mount: the second becomes a
        // REF chain pointing at the first.
        let fs = Crfs::mount(
            Arc::clone(&backend),
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 * 1024)
                .with_codec(CodecKind::Lz)
                .with_dedup(true),
        )
        .unwrap();
        let data: Vec<u8> = (0..8192).map(|b| (b / 64) as u8).collect();
        for name in ["/a.img", "/b.img"] {
            let f = fs.create(name).unwrap();
            f.write(&data).unwrap();
            f.close().unwrap();
        }
        fs.unmount().unwrap();

        let clean = run(&backend, &["/".to_string()], &opts(1));
        assert!(clean.damage.is_clean(), "{clean}");

        // Cut the origin short: references into it are now orphans.
        let f = backend.open("/a.img", OpenOptions::read_write()).unwrap();
        f.set_len(10).unwrap();
        drop(f);
        let sum = run(&backend, &["/b.img".to_string()], &opts(1));
        assert!(sum.damage.orphaned_refs > 0, "{sum}");
    }

    #[test]
    fn parallel_sweep_matches_serial_results() {
        let backend = be();
        populate(&backend, 8, 30_000);
        // Tear two logs.
        for victim in ["/ckpt/rank2.img", "/ckpt/rank5.img"] {
            let len = backend.file_len(victim).unwrap();
            let f = backend.open(victim, OpenOptions::read_write()).unwrap();
            f.set_len(len - 33).unwrap();
        }
        let serial = run(&backend, &["/".to_string()], &opts(1));
        let parallel = run(&backend, &["/".to_string()], &opts(4));
        assert_eq!(serial.files, parallel.files);
        assert_eq!(serial.frames, parallel.frames);
        assert_eq!(serial.damage, parallel.damage);
        assert_eq!(serial.reports.len(), parallel.reports.len());
        assert_eq!(serial.damage.torn_tails, 2);
    }

    // -- one walker ---------------------------------------------------

    /// Stores `bytes` as `/f` on a fresh backend and checks that the
    /// walker, a fresh attach, the metadata scan and `--repair` all name
    /// the same surviving prefix, and that the repaired store scans
    /// clean.
    fn assert_agreement(config: &CrfsConfig, bytes: &[u8], what: &str) {
        use crate::transform::{scan_logical_len, scan_outcome, FileTransform, TransformCtx};
        let backend = be();
        let f = backend.open("/f", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, bytes).unwrap();
        let walked = scan_outcome(&*f).unwrap();
        let served = scan_logical_len(&*f).unwrap();
        let stats = Arc::new(crate::stats::CrfsStats::new());
        let ctx = TransformCtx::from_config(config, Arc::clone(&backend), stats)
            .unwrap()
            .expect("a codec is configured");
        let attached = FileTransform::attach(ctx, &*f).unwrap();
        drop(f);

        let roots = ["/".to_string()];
        let repair = FsckOptions {
            repair: true,
            ..opts(1)
        };
        let fixed = run(&backend, &roots, &repair);
        assert!(fixed.is_clean(), "{what}: {fixed}");
        let after = backend.file_len("/f").unwrap();
        match walked {
            // Raw to the walker (empty, or the magic itself is gone):
            // raw to the mount and to fsck, which leaves it alone.
            None => {
                assert!(bytes.is_empty() || attached.is_none(), "{what}");
                assert_eq!((fixed.frame_logs, after), (0, bytes.len() as u64), "{what}");
            }
            Some(outcome) => {
                let attached = attached.expect("framed to the walker is framed to attach");
                assert_eq!(attached.stored_len(), outcome.clean_len, "{what}: attach");
                assert_eq!(after, outcome.clean_len, "{what}: repair");
                assert_eq!(Some(attached.logical_len()), served, "{what}: file_len");
            }
        }
        let rescan = run(&backend, &roots, &opts(1));
        assert!(
            rescan.damage.is_clean() && rescan.reports.is_empty(),
            "{what}: {rescan}"
        );
    }

    #[test]
    fn every_cut_and_header_flip_leaves_walker_attach_and_repair_one_answer() {
        // A DATA frame, a REF frame to it and a TRUNC marker: every
        // frame shape a log holds.
        let config = CrfsConfig::default()
            .with_chunk_size(4096)
            .with_pool_size(64 * 1024)
            .with_codec(CodecKind::Lz)
            .with_dedup(true);
        let backend = be();
        let fs = Crfs::mount(Arc::clone(&backend), config.clone()).unwrap();
        let chunk: Vec<u8> = (0..4096).map(|i| (i / 32) as u8).collect();
        let f = fs.create("/f").unwrap();
        for _ in 0..2 {
            f.write(&chunk).unwrap();
            f.fsync().unwrap(); // index the first copy before encoding the second
        }
        f.set_len(4096 + 100).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();

        let file = backend.open("/f", OpenOptions::read_only()).unwrap();
        let head = FileHead::read(&*file).unwrap();
        let mut frames = Vec::new();
        walk_frames(&*file, &head, |off, h| {
            frames.push((off, h.flags));
            Ok(())
        })
        .unwrap();
        let (headers, flags): (Vec<u64>, Vec<u8>) = frames.into_iter().unzip();
        assert_eq!(flags, [0, FLAG_REF, FLAG_TRUNC]);
        let mut log = vec![0u8; head.stored_len as usize];
        read_exact_at(&*file, 0, &mut log).unwrap();

        for cut in 0..=log.len() {
            assert_agreement(&config, &log[..cut], &format!("cut at {cut}"));
        }
        for at in headers {
            for byte in 0..FRAME_HEADER_LEN {
                let mut bad = log.clone();
                bad[(at + byte) as usize] ^= 0xFF;
                assert_agreement(
                    &config,
                    &bad,
                    &format!("header at {at}: byte {byte} flipped"),
                );
            }
        }
    }

    // -- reads and checkers ---------------------------------------------

    /// Every backend read a [`Probe`] saw: path, offset, length.
    type ReadLog = Arc<Mutex<Vec<(String, u64, usize)>>>;

    /// A test decorator: logs every `read_at`, sleeps `delay` in each,
    /// and `hold` more in each read of `slow`.
    struct Probe {
        inner: Arc<dyn Backend>,
        delay: Duration,
        slow: Option<(String, Duration)>,
        reads: ReadLog,
    }

    struct ProbeFile {
        inner: Box<dyn BackendFile>,
        path: String,
        sleep: Duration,
        reads: ReadLog,
    }

    impl Backend for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
            let held = match &self.slow {
                Some((slow, hold)) if slow == path => *hold,
                _ => Duration::ZERO,
            };
            Ok(Box::new(ProbeFile {
                inner: self.inner.open(path, opts)?,
                path: path.to_string(),
                sleep: self.delay + held,
                reads: Arc::clone(&self.reads),
            }))
        }
        crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists, file_len, list_dir);
    }

    impl BackendFile for ProbeFile {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.reads
                .lock()
                .push((self.path.clone(), offset, buf.len()));
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            self.inner.read_at(offset, buf)
        }
        crate::forward_file_ops!(inner: write_at, sync, len, set_len);
    }

    fn probe(inner: &Arc<dyn Backend>, delay: Duration) -> (Arc<dyn Backend>, ReadLog) {
        let reads = ReadLog::default();
        let probe = Probe {
            inner: Arc::clone(inner),
            delay,
            slow: None,
            reads: Arc::clone(&reads),
        };
        (Arc::new(probe), reads)
    }

    /// `cold_restart` pays a round trip per backend read and its
    /// recovery time is fsck's read count: a one-frame content-store
    /// chunk is fetched whole by one read, and the orphan pass reads
    /// only a manifest the sweep did not visit.
    #[test]
    fn a_one_frame_chunk_costs_fsck_exactly_one_read() {
        let store = be();
        populate_snap(&store);
        let (backend, reads) = probe(&store, Duration::ZERO);
        let chunks = backend.list_dir(CAS_DIR).unwrap().len();
        let sum = run(&backend, &[CAS_DIR.to_string()], &opts(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.frame_logs, chunks as u64);
        let seen = reads.lock().len();
        println!("fsck: {seen} reads for {chunks} one-frame chunks and the manifest");
        // One per chunk, plus the orphan pass's read of the manifest the
        // sweep never visited.
        assert_eq!(seen, chunks + 1);

        reads.lock().clear();
        let sum = run(&backend, &["/".to_string()], &opts(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!((sum.manifests, sum.frame_logs), (1, chunks as u64 + 1));
        // Every file once (chunks, the live log, the manifest); the
        // orphan pass reuses the sweep's decode of the manifest.
        assert_eq!(reads.lock().len() as u64, sum.files);
    }

    #[test]
    fn a_ref_only_live_log_costs_one_read() {
        let store = be();
        populate_snap(&store);
        let log = "/ckpt/rank0.img";
        let file = store.open(log, OpenOptions::read_only()).unwrap();
        let mut flags = Vec::new();
        walk_frames(&*file, &FileHead::read(&*file).unwrap(), |_, h| {
            flags.push(h.flags);
            Ok(())
        })
        .unwrap();
        assert!(flags.len() >= 5 && flags.iter().all(|f| f & FLAG_REF != 0));

        let (backend, reads) = probe(&store, Duration::ZERO);
        let sum = run(&backend, &[log.to_string()], &opts(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.frames, flags.len() as u64);
        // The orphan pass then reads the manifest this sweep never saw.
        let reads = reads.lock().clone();
        assert_eq!(reads.iter().filter(|r| r.0 == log).count(), 1, "{reads:?}");
    }

    #[test]
    fn a_frame_log_bigger_than_the_window_costs_a_read_per_window() {
        // Odd-sized verbatim frames, so window edges fall inside frames.
        let chunk = 700 << 10;
        let store = be();
        let fs = Crfs::mount(
            Arc::clone(&store),
            CrfsConfig::default()
                .with_chunk_size(chunk)
                .with_pool_size(4 * chunk)
                .with_codec(CodecKind::Identity),
        )
        .unwrap();
        let f = fs.create("/big.img").unwrap();
        let data: Vec<u8> = (0..12 << 20).map(|b: usize| (b / 4093) as u8).collect();
        f.write(&data).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        let stored = store.file_len("/big.img").unwrap();
        assert!(stored > 2 * WINDOW as u64);
        let file = store.open("/big.img", OpenOptions::read_only()).unwrap();
        let mut extents = Vec::new();
        walk_frames(&*file, &FileHead::read(&*file).unwrap(), |off, h| {
            extents.push((off, off + FRAME_HEADER_LEN + u64::from(h.stored_len)));
            Ok(())
        })
        .unwrap();

        let (backend, reads) = probe(&store, Duration::ZERO);
        let sum = run(&backend, &["/big.img".to_string()], &opts(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.frames, extents.len() as u64);
        let reads = reads.lock().clone();
        let edges: Vec<u64> = reads
            .iter()
            .map(|&(_, off, len)| off + len as u64)
            .collect();
        let crossing = extents
            .iter()
            .filter(|&&(start, end)| edges.iter().any(|&e| start < e && e < end))
            .count();
        let bound = stored.div_ceil(WINDOW as u64) as usize + crossing;
        println!(
            "fsck: {} reads for {stored} stored bytes in {} frames ({crossing} crossing a window edge)",
            reads.len(),
            extents.len()
        );
        assert!(reads.len() <= bound, "{} reads > {bound}", reads.len());
        assert!(reads.iter().all(|&(_, _, len)| len <= WINDOW));
    }

    #[test]
    fn a_big_raw_file_costs_one_read_of_its_head() {
        let dir = std::env::temp_dir().join(format!("crfs-fsck-raw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Sparse: 300 MiB of zeros that occupy no blocks.
        let img = std::fs::File::create(dir.join("rank0.img")).unwrap();
        img.set_len(300 << 20).unwrap();
        drop(img);
        let local: Arc<dyn Backend> =
            Arc::new(crate::backend::LocalFileBackend::new(&dir).unwrap());
        let (backend, reads) = probe(&local, Duration::ZERO);
        let sum = run(&backend, &["/".to_string()], &FsckOptions::default());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.raw_files, 1);
        let reads = reads.lock().clone();
        assert_eq!(
            reads,
            [("/rank0.img".to_string(), 0, FRAME_HEADER_LEN as usize)]
        );
    }

    /// Writes one checkpoint of `chunks` distinct 4 KiB chunks on a
    /// snapshot mount and seals it: `chunks` content-store files.
    fn populate_cas(backend: &Arc<dyn Backend>, chunks: usize) {
        let data: Vec<u8> = (0..chunks * 4096)
            .map(|b| ((b % 4096) / 64) as u8 ^ ((b / 4096) as u8).wrapping_mul(37))
            .collect();
        populate_snap_with(backend, &data);
    }

    #[test]
    fn the_default_pool_keeps_a_slow_stores_reads_in_flight() {
        let store = be();
        populate_cas(&store, 160);
        let (slow, reads) = probe(&store, Duration::from_millis(2));
        let serial = run(&slow, &["/".to_string()], &opts(1));
        let serial_reads = std::mem::take(&mut *reads.lock()).len();
        let t0 = Instant::now();
        let sum = run(&slow, &["/".to_string()], &FsckOptions::default());
        let wall = t0.elapsed();
        assert!(sum.is_clean(), "{sum}");
        assert_eq!((sum.files, sum.frames), (serial.files, serial.frames));
        let seen = reads.lock().len();
        assert!(seen >= 64, "{seen} reads");
        assert_eq!(seen, serial_reads, "the pool changes overlap, not reads");
        let bound = Duration::from_millis(2) * seen as u32 / 6;
        println!("fsck: {seen} reads of 2 ms in {wall:?} (bound {bound:?})");
        assert!(wall < bound, "{wall:?} for {seen} reads of 2 ms");
    }

    /// `(files, frames, damage, report paths)` of a sweep.
    fn findings(sum: &FsckSummary) -> (u64, u64, DamageCounts, Vec<String>) {
        let paths = sum.reports.iter().map(|r| r.path.clone()).collect();
        (sum.files, sum.frames, sum.damage, paths)
    }

    #[test]
    fn sweeps_of_late_found_directories_end_with_the_serial_answer() {
        let backend = be();
        let fs = Crfs::mount(
            Arc::clone(&backend),
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 * 1024)
                .with_codec(CodecKind::Lz),
        )
        .unwrap();
        // Four levels, each holding logs next to the next directory: the
        // deepest work is discovered last.
        let mut dir = String::new();
        for depth in 0..4 {
            dir = format!("{dir}/d{depth}");
            fs.mkdir(&dir).unwrap();
            for i in 0..3 {
                let f = fs.create(&format!("{dir}/rank{i}.img")).unwrap();
                f.write(&vec![(depth * 3 + i) as u8; 9000]).unwrap();
                f.close().unwrap();
            }
        }
        fs.unmount().unwrap();
        let victim = format!("{dir}/rank1.img");
        let len = backend.file_len(&victim).unwrap();
        let f = backend.open(&victim, OpenOptions::read_write()).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let roots = ["/".to_string()];
        let serial = findings(&run(&backend, &roots, &opts(1)));
        assert_eq!((serial.0, serial.2.torn_tails), (12, 1));
        for threads in [1, 2, 16, 0] {
            let (tx, rx) = std::sync::mpsc::channel();
            let backend = Arc::clone(&backend);
            let roots = roots.clone();
            std::thread::spawn(move || {
                let _ = tx.send(findings(&run(&backend, &roots, &opts(threads))));
            });
            let got = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{threads} checkers: the sweep hung"));
            assert_eq!(got, serial, "{threads} checkers");
        }
    }

    #[test]
    fn one_held_read_with_idle_checkers_still_totals_right() {
        let store = be();
        populate(&store, 6, 20_000);
        let reads = ReadLog::default();
        let held: Arc<dyn Backend> = Arc::new(Probe {
            inner: Arc::clone(&store),
            delay: Duration::ZERO,
            slow: Some(("/ckpt/rank3.img".to_string(), Duration::from_millis(200))),
            reads: Arc::clone(&reads),
        });
        let t0 = Instant::now();
        let sum = run(&held, &["/".to_string()], &FsckOptions::default());
        assert!(t0.elapsed() >= Duration::from_millis(200));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!((sum.files, sum.frame_logs), (6, 6));
        assert!(sum.frames >= 6 * 5, "{sum}");
        assert_eq!(reads.lock().len(), 6);
    }

    // -- tier consistency ---------------------------------------------

    use crate::backend::{TieredBackend, TieredParams};

    /// A tiered stack with checkpoints written and drained, then a
    /// stranded suffix: one extra epoch of writes whose drain never
    /// reached the durable tier (simulated by dropping the durable
    /// copy's tail after the fact).
    fn populate_tiered() -> (Arc<dyn Backend>, Arc<dyn Backend>) {
        let fast: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let durable: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let tiered: Arc<dyn Backend> = Arc::new(TieredBackend::new(
            Arc::clone(&fast),
            Arc::clone(&durable),
            TieredParams::default(),
        ));
        let fs = Crfs::mount(
            tiered,
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 * 1024)
                .with_codec(CodecKind::Lz),
        )
        .unwrap();
        fs.mkdir("/ckpt").unwrap();
        for i in 0..3 {
            let f = fs.create(&format!("/ckpt/rank{i}.img")).unwrap();
            let data: Vec<u8> = (0..20_000).map(|b| ((b / 64) ^ i) as u8).collect();
            f.write(&data).unwrap();
            f.close().unwrap();
        }
        fs.advance_epoch().unwrap(); // drain barrier: both tiers agree
        fs.unmount().unwrap();
        (fast, durable)
    }

    #[test]
    fn tier_pass_is_clean_after_a_barrier() {
        let (fast, durable) = populate_tiered();
        let sum = run_tiered(&fast, &durable, &["/".to_string()], &opts(2));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.damage.tier_stranded, 0);
        assert_eq!(sum.damage.tier_diverged, 0);
        assert_eq!(sum.frame_logs, 3);
    }

    #[test]
    fn stranded_file_is_detected_and_redrained() {
        let (fast, durable) = populate_tiered();
        // Crash-during-drain shape: the durable copy of one file lost
        // its tail, another never arrived at all.
        let victim = "/ckpt/rank1.img";
        let dlen = durable.file_len(victim).unwrap();
        let f = durable.open(victim, OpenOptions::read_write()).unwrap();
        f.set_len(dlen - 100).unwrap();
        drop(f);
        durable.unlink("/ckpt/rank2.img").unwrap();

        let dry = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert_eq!(dry.damage.tier_stranded, 2, "{dry}");
        assert!(!dry.is_clean());
        assert!(
            durable.file_len("/ckpt/rank2.img").is_err(),
            "dry run must not re-drain"
        );

        let fixed = run_tiered(
            &fast,
            &durable,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                ..opts(1)
            },
        );
        assert_eq!(fixed.damage.tier_stranded, 2);
        assert_eq!(fixed.repaired_files, 2);
        assert!(fixed.is_clean(), "{fixed}");
        // Both tiers now agree byte-for-byte.
        let after = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert!(after.damage.is_clean(), "{after}");
        assert_eq!(
            durable.file_len(victim).unwrap(),
            fast.file_len(victim).unwrap()
        );
    }

    #[test]
    fn diverged_file_is_detected_and_fast_wins() {
        let (fast, durable) = populate_tiered();
        let victim = "/ckpt/rank0.img";
        // Same length, different bytes: flip one durable byte.
        let f = durable.open(victim, OpenOptions::read_write()).unwrap();
        let mut b = [0u8; 1];
        f.read_at(40, &mut b).unwrap();
        f.write_at(40, &[b[0] ^ 0xFF]).unwrap();
        drop(f);

        let dry = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert_eq!(dry.damage.tier_diverged, 1, "{dry}");

        let fixed = run_tiered(
            &fast,
            &durable,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                ..opts(1)
            },
        );
        assert!(fixed.is_clean(), "{fixed}");
        let mut fb = [0u8; 1];
        let df = durable.open(victim, OpenOptions::read_only()).unwrap();
        df.read_at(40, &mut fb).unwrap();
        assert_eq!(fb, b, "fast tier's byte won");
    }

    #[test]
    fn promotion_staging_files_are_skipped_and_swept() {
        let (fast, durable) = populate_tiered();
        // Crash mid-promotion: a partial staging copy stranded in the
        // fast tier, with no durable counterpart.
        let tmp = "/ckpt/rank0.img.promote-4";
        let f = fast.open(tmp, OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"half-promoted junk").unwrap();
        drop(f);

        let dry = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert!(dry.is_clean(), "staging file must not be flagged: {dry}");
        assert_eq!(dry.damage.tier_stranded, 0);
        assert!(fast.exists(tmp), "dry run must not sweep");

        let fixed = run_tiered(
            &fast,
            &durable,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                ..opts(1)
            },
        );
        assert!(fixed.is_clean(), "{fixed}");
        assert!(!fast.exists(tmp), "repair sweeps the leftover staging file");
        assert!(!durable.exists(tmp), "the junk was never re-drained");
    }

    #[test]
    fn durable_only_files_are_not_flagged() {
        let (fast, durable) = populate_tiered();
        // Evicted shape: fast lost a fully-drained file.
        fast.unlink("/ckpt/rank0.img").unwrap();
        let sum = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.damage.tier_stranded, 0);
        assert_eq!(
            sum.frame_logs, 3,
            "the union sweep still checks the durable-only file"
        );
    }

    // -- snapshot store checks ----------------------------------------

    use crate::snapshot::{cas_path, manifest_path};

    /// Writes one checkpoint file and seals one snapshot epoch, leaving
    /// a manifest plus content-store chunks behind.
    fn populate_snap(backend: &Arc<dyn Backend>) {
        let data: Vec<u8> = (0..20_000).map(|b| (b / 64) as u8).collect();
        populate_snap_with(backend, &data);
    }

    /// [`populate_snap`] with `data` as the checkpoint file.
    fn populate_snap_with(backend: &Arc<dyn Backend>, data: &[u8]) {
        let fs = Crfs::mount(
            Arc::clone(backend),
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 * 1024)
                .with_codec(CodecKind::Lz)
                .with_dedup(true)
                .with_snapshots(true),
        )
        .unwrap();
        fs.mkdir("/ckpt").unwrap();
        let f = fs.create("/ckpt/rank0.img").unwrap();
        f.write(data).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap();
        fs.unmount().unwrap();
    }

    #[test]
    fn snapshot_tree_scans_clean() {
        let backend = be();
        populate_snap(&backend);
        let sum = run(&backend, &["/".to_string()], &opts(2));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.manifests, 1);
        assert!(sum.frame_logs >= 2, "live log + CAS chunks: {sum}");
    }

    #[test]
    fn undecodable_cas_chunk_is_payload_damage_to_restart_and_fsck_alike() {
        use crate::transform::codec::STORED_LZ;
        let backend = be();
        populate_snap(&backend);
        // One content-store chunk whose LZ stream stops decoding: its
        // first token turned from a literal run into a match with no
        // output behind it.
        let victim = backend
            .list_dir(CAS_DIR)
            .unwrap()
            .into_iter()
            .map(|name| format!("{CAS_DIR}/{name}"))
            .find(|path| backend.file_len(path).unwrap() > FRAME_HEADER_LEN + 8)
            .expect("a stored chunk");
        let f = backend.open(&victim, OpenOptions::read_write()).unwrap();
        let mut hdr = [0u8; FRAME_HEADER_LEN as usize];
        f.read_at(0, &mut hdr).unwrap();
        assert_eq!(FrameHeader::decode(&hdr).unwrap().codec, STORED_LZ);
        let mut b = [0u8; 1];
        f.read_at(FRAME_HEADER_LEN, &mut b).unwrap();
        assert!(b[0] < 128, "an LZ stream opens with literals");
        f.write_at(FRAME_HEADER_LEN, &[b[0] ^ 0x80]).unwrap();
        drop(f);

        // Restart: every chunk but the damaged one reads; that one is an
        // integrity error, counted as payload damage, and hands out no
        // byte.
        let fs = Crfs::mount(
            Arc::clone(&backend),
            CrfsConfig::default()
                .with_chunk_size(4096)
                .with_pool_size(64 * 1024)
                .with_codec(CodecKind::Lz)
                .with_dedup(true)
                .with_snapshots(true)
                .with_read_ahead(0),
        )
        .unwrap();
        let file = fs.open("/ckpt/rank0.img").unwrap();
        let mut failed = 0;
        for chunk in 0..5u64 {
            let mut buf = [0xAAu8; 4096];
            match file.read_at(chunk * 4096, &mut buf) {
                Ok(n) => assert!(buf[..n]
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == ((chunk as usize * 4096 + i) / 64) as u8)),
                Err(e) => {
                    assert!(
                        matches!(e, crate::CrfsError::IntegrityError { .. }),
                        "{e:?}"
                    );
                    assert!(
                        buf.iter().all(|&b| b == 0 || b == 0xAA),
                        "bytes of an unverified chunk reached the caller"
                    );
                    failed += 1;
                }
            }
        }
        assert_eq!(failed, 1);
        assert_eq!(fs.stats().bad_payload_checksum, 1);
        file.close().unwrap();
        fs.unmount().unwrap();

        // fsck names the same file for the same reason.
        let sum = run(&backend, &["/".to_string()], &opts(1));
        assert_eq!(sum.damage.bad_payload_checksum, 1, "{sum}");
        assert_eq!(sum.reports.len(), 1, "{sum}");
        assert_eq!(sum.reports[0].path, victim);
    }

    #[test]
    fn orphaned_cas_chunk_is_found_and_repair_unlinks_it() {
        let backend = be();
        populate_snap(&backend);
        let orphan = cas_path((0xfeed_face, 4096));
        let f = backend
            .open(&orphan, OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, b"junk").unwrap();
        drop(f);

        let dry = run(&backend, &["/".to_string()], &opts(1));
        assert_eq!(dry.damage.orphaned_chunks, 1, "{dry}");
        assert_eq!(dry.reports.len(), 1);
        assert_eq!(dry.reports[0].path, orphan);
        assert!(backend.file_len(&orphan).is_ok(), "dry run must not unlink");

        let fixed = run(
            &backend,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                threads: 1,
                ..FsckOptions::default()
            },
        );
        assert_eq!(fixed.damage.orphaned_chunks, 1);
        assert_eq!(fixed.repaired_files, 1);
        assert!(backend.file_len(&orphan).is_err(), "repair unlinks orphans");
        assert!(run(&backend, &["/".to_string()], &opts(1)).is_clean());
    }

    #[test]
    fn dangling_manifest_ref_is_reported_not_repaired() {
        let backend = be();
        populate_snap(&backend);
        let victim = crate::snapshot::CAS_DIR;
        let name = backend
            .list_dir(victim)
            .unwrap()
            .into_iter()
            .next()
            .unwrap();
        backend.unlink(&format!("{victim}/{name}")).unwrap();

        let sum = run(
            &backend,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                threads: 1,
                ..FsckOptions::default()
            },
        );
        assert!(sum.damage.dangling_manifest_refs >= 1, "{sum}");
        let report = sum
            .reports
            .iter()
            .find(|r| r.kind == FileKind::Manifest)
            .expect("manifest report");
        assert!(!report.repaired, "lost sealed bytes are not repairable");
        assert!(backend.file_len(&manifest_path(0)).is_ok());
    }

    #[test]
    fn torn_manifest_is_repaired_by_unlink() {
        let backend = be();
        populate_snap(&backend);
        let path = manifest_path(0);
        let f = backend.open(&path, OpenOptions::read_write()).unwrap();
        let mut b = [0u8; 1];
        f.read_at(12, &mut b).unwrap();
        f.write_at(12, &[b[0] ^ 0xFF]).unwrap();
        drop(f);

        let dry = run(&backend, &["/".to_string()], &opts(1));
        assert_eq!(dry.manifests, 1);
        assert_eq!(
            dry.reports
                .iter()
                .filter(|r| r.kind == FileKind::Manifest)
                .count(),
            1
        );
        assert!(backend.file_len(&path).is_ok(), "dry run must not unlink");
        // The live log's REF frames keep the chunks referenced, so the
        // lost manifest must not cascade into chunk reclamation.
        assert_eq!(dry.damage.orphaned_chunks, 0, "{dry}");

        let fixed = run(
            &backend,
            &["/".to_string()],
            &FsckOptions {
                repair: true,
                threads: 1,
                ..FsckOptions::default()
            },
        );
        assert!(fixed.damage.torn_tails >= 1, "{fixed}");
        assert!(backend.file_len(&path).is_err(), "torn seal is unlinked");
        let after = run(&backend, &["/".to_string()], &opts(1));
        assert!(
            after.is_clean(),
            "manifest gone, live-referenced chunks kept: {after}"
        );
    }
}
