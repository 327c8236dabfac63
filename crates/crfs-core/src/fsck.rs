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
//! Checking parallelizes pFSCK-style: a work-stealing pool of
//! per-file checkers. Each worker owns a deque seeded round-robin with
//! the roots; directory expansion pushes discovered children onto the
//! worker's own queue (depth-first, cache-warm) and idle workers steal
//! from the fronts of other queues — so one huge directory or one
//! long log does not serialize the sweep.
//!
//! [`ChunkFrame`]: crate::transform::frame::FrameHeader

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::backend::{read_exact_at, Backend, BackendFile, OpenOptions};
use crate::obs::Histogram;
use crate::snapshot::manifest::{ChunkRecord, Manifest, Record, MANIFEST_MAGIC};
use crate::snapshot::{parse_cas_name, parse_manifest_name, CAS_DIR, SNAP_DIR};
use crate::transform::codec::decode_to_vec;
use crate::transform::frame::{
    payload_digest, FLAG_PAD, FLAG_REF, FLAG_TRUNC, FRAME_FORMAT, FRAME_HEADER_LEN,
};
use crate::transform::{walk_frames, FileHead, ScanOutcome, TailDamage, REF_META_LEN};

/// How a check/repair sweep should run.
#[derive(Debug, Clone)]
pub struct FsckOptions {
    /// Truncate torn frame-log tails to the last valid frame (and sync)
    /// instead of only reporting them.
    pub repair: bool,
    /// Checker threads. 0 = one per available core.
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
/// `opts.threads` checkers.
pub fn run(backend: &Arc<dyn Backend>, roots: &[String], opts: &FsckOptions) -> FsckSummary {
    let t0 = Instant::now();
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    };
    let pool = StealPool::new(threads);
    for (i, root) in roots.iter().enumerate() {
        pool.push_to(i % threads, root.clone());
    }
    let collector = Mutex::new(FsckSummary::default());
    std::thread::scope(|s| {
        for worker in 0..threads {
            let pool = &pool;
            let collector = &collector;
            s.spawn(move || {
                let mut local = FsckSummary::default();
                while let Some(path) = pool.next_job(worker) {
                    process(backend, &path, opts, pool, worker, &mut local);
                    pool.job_done();
                }
                let mut shared = collector.lock();
                merge(&mut shared, local);
            });
        }
    });
    let mut summary = collector.into_inner();
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
    check_tier_consistency(fast, durable, roots, opts, &mut summary);
    summary.reports.sort_by(|a, b| a.path.cmp(&b.path));
    summary.elapsed = t0.elapsed();
    summary
}

/// The tier-consistency pass of [`run_tiered`]: walks every fast-tier
/// file under `roots` and compares it byte-for-byte against the durable
/// tier.
fn check_tier_consistency(
    fast: &Arc<dyn Backend>,
    durable: &Arc<dyn Backend>,
    roots: &[String],
    opts: &FsckOptions,
    summary: &mut FsckSummary,
) {
    let mut stack: Vec<String> = roots.to_vec();
    while let Some(path) = stack.pop() {
        match fast.list_dir(&path) {
            Ok(names) => {
                for name in names {
                    stack.push(if path == "/" {
                        format!("/{name}")
                    } else {
                        format!("{path}/{name}")
                    });
                }
            }
            Err(_) => {
                // A crash mid-promotion strands its staging file in the
                // fast tier. It is backend-internal partial junk, not
                // user data: never compare (or re-drain) it, and sweep
                // it under `--repair`.
                if crate::backend::is_promote_tmp(&path) {
                    if opts.repair {
                        let _ = fast.unlink(&path);
                    }
                    continue;
                }
                compare_tier_file(fast, durable, &path, opts, summary);
            }
        }
    }
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
    into.check_times.merge(&from.check_times);
    for (mine, theirs) in into.checker_ns.iter_mut().zip(from.checker_ns) {
        *mine += theirs;
    }
}

// ---------------------------------------------------------------------
// Work-stealing pool
// ---------------------------------------------------------------------

/// Per-worker deques with front-stealing. Jobs are backend paths; the
/// `outstanding` count covers queued *and* in-flight jobs, so a worker
/// only exits when the whole sweep is drained (an idle worker may be
/// about to receive work from a directory another worker is still
/// expanding).
struct StealPool {
    queues: Vec<Mutex<VecDeque<String>>>,
    outstanding: AtomicU64,
}

impl StealPool {
    fn new(threads: usize) -> StealPool {
        StealPool {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            outstanding: AtomicU64::new(0),
        }
    }

    /// Enqueues a job on `worker`'s own queue (tail — depth-first for
    /// the owner, while thieves take the front, breadth-first).
    fn push_to(&self, worker: usize, path: String) {
        self.outstanding.fetch_add(1, Relaxed);
        self.queues[worker].lock().push_back(path);
    }

    /// Next job for `worker`: own queue first (LIFO), then steal the
    /// front of the other queues, round-robin from the right neighbor.
    /// Returns `None` only when the sweep is fully drained.
    fn next_job(&self, worker: usize) -> Option<String> {
        loop {
            if let Some(job) = self.queues[worker].lock().pop_back() {
                return Some(job);
            }
            let n = self.queues.len();
            for k in 1..n {
                if let Some(job) = self.queues[(worker + k) % n].lock().pop_front() {
                    return Some(job);
                }
            }
            if self.outstanding.load(Relaxed) == 0 {
                return None;
            }
            // Another worker still holds jobs (or is mid-expansion of a
            // directory): give it the core and re-poll.
            std::thread::yield_now();
        }
    }

    /// Marks one `next_job` result fully processed (including any
    /// children it pushed — those carry their own count).
    fn job_done(&self) {
        self.outstanding.fetch_sub(1, Relaxed);
    }
}

// ---------------------------------------------------------------------
// Per-path processing
// ---------------------------------------------------------------------

fn process(
    backend: &Arc<dyn Backend>,
    path: &str,
    opts: &FsckOptions,
    pool: &StealPool,
    worker: usize,
    local: &mut FsckSummary,
) {
    // A listable path is a directory: expand onto our own queue and let
    // idle workers steal the siblings.
    match backend.list_dir(path) {
        Ok(names) => {
            for name in names {
                let child = if path == "/" {
                    format!("/{name}")
                } else {
                    format!("{path}/{name}")
                };
                pool.push_to(worker, child);
            }
        }
        Err(_) => check_file(backend, path, opts, local),
    }
}

fn check_file(backend: &Arc<dyn Backend>, path: &str, opts: &FsckOptions, local: &mut FsckSummary) {
    local.files += 1;
    let t0 = Instant::now();
    let kind = check_file_inner(backend, path, opts, local);
    let spent = t0.elapsed();
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
    local: &mut FsckSummary,
) -> FileKind {
    // One read serves the classification and, for a frame log, the
    // walker's first header.
    let opened = backend
        .open(path, OpenOptions::read_only())
        .map_err(|e| format!("unopenable: {e}"))
        .and_then(|file| match FileHead::read(&*file) {
            Ok(head) => Ok((file, head)),
            Err(e) => Err(format!("unreadable: {e}")),
        });
    let (file, head) = match opened {
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
            check_frame_log(backend, path, &*file, &head, opts, local);
        }
        FileKind::Manifest => {
            local.manifests += 1;
            check_manifest(backend, path, &*file, opts, local);
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
    match read_manifest(file) {
        Ok(m) => {
            for (_, records) in &m.files {
                for rec in records {
                    let Record::Chunk(c) = rec else { continue };
                    frames += 1;
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

    /// `cold_restart` pays a round trip per backend read and its
    /// recovery time is fsck's read count: a one-frame content-store
    /// chunk costs its head (the classification sniff *is* the walker's
    /// first header) and its payload, and must never cost more than
    /// three reads.
    #[test]
    fn a_one_frame_chunk_costs_fsck_at_most_three_reads() {
        use crate::backend::{FailureMode, FaultyBackend};
        let counting = Arc::new(FaultyBackend::new(MemBackend::new(), FailureMode::None));
        let backend: Arc<dyn Backend> = Arc::clone(&counting) as Arc<dyn Backend>;
        populate_snap(&backend);
        let chunks = backend.list_dir(CAS_DIR).unwrap().len() as u64;
        let before = counting.reads_seen();
        let sum = run(&backend, &[CAS_DIR.to_string()], &opts(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.frame_logs, chunks);
        // The orphan pass reads the one sealed manifest, once.
        let reads = counting.reads_seen() - before - 1;
        println!("fsck: {reads} reads for {chunks} one-frame chunks");
        assert!(reads <= 3 * chunks, "{reads} reads for {chunks} chunks");
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
        let data: Vec<u8> = (0..20_000).map(|b| (b / 64) as u8).collect();
        f.write(&data).unwrap();
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
