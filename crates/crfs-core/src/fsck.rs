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
//!   frame, frame format, DATA-frame decode + digest check (see
//!   "Trust"), and dedup-reference resolution: a REF frame names a
//!   content-store chunk by key, whose file is [`cas_path`] of it. Damage is
//!   classified per the recovery contract (DESIGN.md §6): torn tail,
//!   bad header CRC, bad payload checksum, orphaned dedup reference.
//! - **Manifests** are decoded and every chunk record resolved.
//! - **Raw files** are counted and skipped.
//!
//! **Trust.** A crash can tear only what was written since the last
//! seal: a content-store chunk a sealed manifest names was synced
//! before that manifest was written (by `store_chunk`'s sync, and on
//! two tiers by the seal's drain barrier too), and every restart read
//! decodes and verifies its bytes anyway, so a bad byte there is a
//! detected error, never a served one. Before the sweep, fsck reads the
//! manifests under [`SNAP_DIR`], and [`FsckOptions::payloads`] picks
//! what is checked:
//!
//! - [`Payloads::Unsealed`] (the default): a content-store chunk whose
//!   key a decodable manifest names is counted straight from the
//!   directory listing of the tier that manifest was read from, neither
//!   opened nor read. Its clean length is the one its record names, so
//!   every reference to it resolves, and one missing from that listing
//!   leaves the records that name it dangling. A short or rotted chunk
//!   at rest is left to the restart read and to `--deep`. Every other
//!   frame log — user logs, the chunks of an open or crashed epoch,
//!   chunks only an undecodable manifest names — is walked, decoded and
//!   digested.
//! - [`Payloads::All`] (`crfs-fsck --deep`): every file is walked and
//!   every DATA frame decoded, for offline audits of bytes at rest.
//! - [`Payloads::Skip`] (`--no-payloads`): as the default, but no DATA
//!   frame is decoded.
//!
//! On two tiers ([`run_tiered`]) the trust boundary is the set of
//! manifests that decode **on the durable tier**, and the listing that
//! vouches for a chunk is the durable tier's one listing of
//! [`CAS_DIR`]: a seal writes its manifest only after a drain barrier
//! has landed and synced every chunk it names, and no barrier returns
//! `Ok` while a durable file misses acknowledged bytes
//! (`backend::tiered`, "Durability contract"), so a durable manifest
//! never outlives its chunks. A chunk such a manifest names that the
//! durable tier does not list is walked, decoded and compared like an
//! unsealed file, so it is found stranded and re-drained. A manifest
//! only the fast tier holds (the crash came before it drained) vouches
//! for nothing: its chunks are decoded, compared and re-drained like
//! any unsealed file.
//!
//! [`FsckSummary::trusted_payloads`] counts the DATA frames a sweep did
//! not decode, so a clean default sweep never reads as "every payload
//! decoded".
//!
//! **Repair** checks, then plans, then applies. The sweep is read-only:
//! per file a checker returns its kind, its own damage, its clean length
//! (what a repair leaves: of a frame log the prefix an open scan serves,
//! [`ScanOutcome::clean_len`]) and every REF frame and manifest chunk
//! record it holds. After the sweep each reference resolves against its
//! origin's clean length, and a content-store chunk nothing names is an
//! orphan, so a dry run and a repair report the same damage on any
//! schedule. A sealed chunk's references resolve against the bytes its
//! record names whenever the file holds them: a damaged header alone
//! loses no byte a keyed read serves. [`FsckOptions::repair`] then runs
//! one ordered list, made with no IO: unlink torn manifests and orphan
//! chunks, truncate torn tails, and on two tiers restore, drain, sweep
//! staging files and re-drain. A sealed chunk's fast copy that failed
//! its check is restored from its durable copy when that one decodes to
//! its record's digest, and is never re-drained: that would overwrite
//! the durable copy that may be the only good one. Manifests re-drain
//! last: only once every other re-drain has synced, and none once a
//! fast copy was left out for its digest (it may be a chunk one names).
//! In-bounds damage (a DATA frame failing its checksum, a reference its
//! origin cannot hold) is *reported, not repaired*: truncating would
//! discard good frames past it, and the read path surfaces it as an
//! `IntegrityError`, never as wrong bytes. So is any damage to a chunk a
//! decodable manifest names: no crash tore it (it was synced before its
//! seal). Content of another format (a manifest of another version, a
//! REF frame of another frame format) names chunks this build cannot
//! read: the sweep then counts no orphan chunks, and a store with such
//! a manifest is reported and left exactly as it is.
//!
//! **Reads.** Outside `--deep` a chunk the seal vouches for costs no
//! open and no read. A checker reads every other file through a reused
//! read-only window (4 MiB plus a header) handed to the unchanged
//! [`FileHead::read`] / [`walk_frames`] as their `BackendFile`. A file
//! that fits is fetched by one read; a bigger one reads its 40-byte
//! head (a raw image stops there), then window-sized reads. The
//! manifests are read before the sweep, on one open handle, as a batch
//! of up to 256 in flight over a store that takes asynchronous reads
//! ([`BackendFile::begin_read_at`]); in [`run`] the sweep checks a
//! manifest from those bytes. [`run_tiered`] reads the manifests from
//! the durable tier, and the sweep reads the union view, where the fast
//! copy wins: every file it visits whole, whose durable copy is read
//! right after its check and compared with the fast bytes still in the
//! window. So the durable tier reads the unsealed files once each and
//! the manifests twice (before the sweep and for their compare), and
//! the fast tier every file it visits once. A checker owns every buffer
//! a file needs (the window, a frame's stored and decoded bytes, the
//! durable copy, a re-drain's copy).
//!
//! **Checkers.** A pFSCK-style work-stealing pool: each checker owns a
//! deque seeded round-robin with the roots, pushes a directory's
//! children onto its own queue (depth-first) and, when idle, steals
//! from the fronts of the others or parks. A default sweep starts one
//! checker per core and adds one, up to 16, each time a checker ends
//! its second job in a row that waited on backend IO longer than it
//! checked, while outstanding jobs outnumber the checkers: a checker
//! blocked on a 1 ms read costs no CPU, while a local store's reads are
//! page-cache copies that keep one checker per core. The re-drains run
//! on the same pool after the sweep; a clean pass never starts it.
//!
//! [`ChunkFrame`]: crate::transform::frame::FrameHeader

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::backend::{
    basename_of, mkdir_parents, parent_of, read_batch, read_exact_at, read_whole, Backend,
    BackendFile, OpenOptions,
};
use crate::obs::Histogram;
use crate::pool::ChunkBuf;
use crate::snapshot::manifest::{Manifest, Record, MANIFEST_MAGIC};
use crate::snapshot::{cas_path, parse_cas_name, parse_manifest_name, ChunkKey, CAS_DIR, SNAP_DIR};
use crate::transform::codec::decode_to_vec;
use crate::transform::frame::{
    payload_digest, ChunkRef, FrameHeader, FLAG_PAD, FLAG_REF, FLAG_TRUNC, FRAME_FORMAT,
    FRAME_HEADER_LEN,
};
use crate::transform::{walk_frames, FileHead, ScanOutcome, TailDamage};

/// Bytes a checker reads at once: a one-frame content-store chunk of
/// the default 4 MiB `chunk_size`, header included, fits.
const WINDOW: usize = (4 << 20) + FRAME_HEADER_LEN as usize;

/// Most checkers a default (`threads: 0`) sweep grows to.
const CHECKER_DEPTH: usize = 16;

/// How a check/repair sweep should run.
#[derive(Debug, Clone, Default)]
pub struct FsckOptions {
    /// After the sweep, repair what it found instead of only reporting
    /// it (module docs, "Repair"): unlink torn manifests and orphan
    /// content-store chunks, truncate torn frame-log tails to the last
    /// valid frame (and sync), and on two tiers re-drain stranded and
    /// diverged files and unlink promotion staging files.
    pub repair: bool,
    /// Checker threads. 0 = one per core, growing to 16 while queued
    /// work outnumbers the checkers and backend reads, not checks, take
    /// their time (see the module docs); N = exactly N.
    pub threads: usize,
    /// Which DATA-frame payloads are decoded and digested (the
    /// expensive part; module docs, "Trust").
    pub payloads: Payloads,
}

/// Which DATA-frame payloads a sweep decodes and digests (module docs,
/// "Trust").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Payloads {
    /// None.
    Skip,
    /// All but the content-store chunks a decodable sealed manifest
    /// names.
    #[default]
    Unsealed,
    /// All of them.
    All,
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
    /// REF frames whose dedup origin is missing, or too short once
    /// repaired to hold the referenced bytes.
    pub orphaned_refs: u64,
    /// Content-store chunk files that neither a sealed manifest nor a
    /// live log's REF frame references — crash remnants the next
    /// online GC would reclaim; `--repair` unlinks them. Counted only
    /// by a sweep whose roots cover `/` and that met no content of
    /// another format.
    pub orphaned_chunks: u64,
    /// Manifest chunk records whose origin is missing, or too short once
    /// repaired to hold the recorded frame. Not repairable: the sealed
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
    /// DATA frames whose payloads were neither decoded nor digested
    /// ([`FsckOptions::payloads`]).
    pub trusted_payloads: u64,
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
    /// What the sweep found in each file it checked.
    found: Vec<Finding>,
    /// Directories the sweep expanded.
    dirs: Vec<String>,
}

/// What a checker found in one file, before any question across files
/// is answered (module docs, "Repair").
#[derive(Debug)]
struct Finding {
    /// The file's report, with the damage it shows on its own (and on
    /// two tiers its tier comparison); `resolve` adds the rest.
    report: FileReport,
    /// What a repair leaves of it; `None` for a file that could not be
    /// read, or a torn manifest.
    clean_len: Option<u64>,
    /// Each REF frame's or manifest chunk record's chunk path, and the
    /// end the referenced frame needs there.
    refs: Vec<(String, u64)>,
    /// A content-store chunk a decodable manifest names (on two tiers,
    /// a durable one): never cut, and outside a deep pass counted from
    /// a listing when that lists it.
    sealed: bool,
    /// Two tiers: a sealed chunk whose fast copy failed its check while
    /// its durable copy decodes to its record's digest.
    restorable: bool,
    /// The file names content of another format: a manifest of another
    /// version, or a REF frame of another frame format.
    foreign: bool,
}

impl Finding {
    /// Whether a repair unlinks the file: a torn manifest or an orphan
    /// chunk.
    fn unlinks(&self) -> bool {
        let damage = &self.report.damage;
        damage.orphaned_chunks > 0
            || (self.report.kind == FileKind::Manifest && damage.torn_tails > 0)
    }

    /// Whether the copy checked failed its check in a way a re-drain
    /// would spread: a payload that fails its digest, or a sealed
    /// chunk's damage, which no repair cuts away.
    fn spoilt(&self) -> bool {
        let damage = &self.report.damage;
        let cut = damage.torn_tails + damage.bad_header_crc;
        damage.bad_payload_checksum > 0 || (self.sealed && cut > 0)
    }
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
        let reports = self.reports.iter().map(|r| {
            serde_json::json!({
                "path": r.path.clone(),
                "kind": r.kind.name(),
                "frames": r.frames,
                "damage": r.damage.to_value(),
                "torn_bytes": r.torn_bytes,
                "repaired": r.repaired,
                "error": r.error.clone(),
            })
        });
        serde_json::json!({
            "files": self.files,
            "raw_files": self.raw_files,
            "frame_logs": self.frame_logs,
            "manifests": self.manifests,
            "frames": self.frames,
            "trusted_payloads": self.trusted_payloads,
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
            "reports": reports.collect::<Vec<_>>(),
        })
    }

    /// [`to_value`](Self::to_value), pretty-printed.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("infallible")
    }
}

/// Checks every file reachable from `roots` — paths of files or
/// directories on `backend` — then, under `opts.repair`, repairs what
/// it found. Directories expand recursively; the per-file work spreads
/// over a work-stealing pool of checkers sized by `opts.threads` (see
/// [`FsckOptions::threads`]). Orphan chunks are counted, and unlinked,
/// only when `roots` cover `/`: a narrower sweep misses references.
pub fn run(backend: &Arc<dyn Backend>, roots: &[String], opts: &FsckOptions) -> FsckSummary {
    check(backend, None, roots, opts)
}

/// Checks a two-tier stack (see [`crate::backend::TieredBackend`]) in
/// one sweep: the structural checks of [`run`] over the *union* view
/// (fast bytes win, as they do for the mount's reads), each file the
/// fast tier holds but a chunk a durable manifest vouches for then
/// compared byte-for-byte against its durable copy (module docs,
/// "Trust" and "Reads"). A file the durable tier is missing or holds
/// short is **stranded** (the crash-during-drain shape: acknowledged
/// fast, never fully drained); matching lengths with differing bytes is
/// **diverged**. Both re-drain under `opts.repair` — the fast tier is
/// authoritative, since acknowledgement happened there. Files only the
/// durable tier holds are legitimate (the fast tier was lost after a
/// full drain) and are checked structurally but not flagged. A file the
/// repair unlinks has no tier finding, and one it truncates is compared
/// again once the truncation has drained.
pub fn run_tiered(
    fast: &Arc<dyn Backend>,
    durable: &Arc<dyn Backend>,
    roots: &[String],
    opts: &FsckOptions,
) -> FsckSummary {
    let union: Arc<dyn Backend> = Arc::new(crate::backend::TieredBackend::from_config(
        Arc::clone(fast),
        Arc::clone(durable),
        &crate::CrfsConfig::default(),
    ));
    check(&union, Some(Tiers { fast, durable }), roots, opts)
}

/// A two-tier stack's fast and durable tiers.
#[derive(Clone, Copy)]
struct Tiers<'a> {
    fast: &'a Arc<dyn Backend>,
    durable: &'a Arc<dyn Backend>,
}

/// [`run`] over `store`, or [`run_tiered`] over `store`, the union view
/// of `tiers`: the read-only sweep, the answers across files, and under
/// `opts.repair` the plan and its apply (module docs, "Repair").
fn check(
    store: &Arc<dyn Backend>,
    tiers: Option<Tiers>,
    roots: &[String],
    opts: &FsckOptions,
) -> FsckSummary {
    let t0 = Instant::now();
    // On two tiers the seal vouches for what a durable manifest names
    // (module docs, "Trust").
    let lister = tiers.map_or(store, |tiers| tiers.durable);
    let mut sealed = read_sealed(&**lister);
    // The chunk names that tier lists, which vouch for the chunks a
    // decodable manifest names; none on a deep pass.
    let lists = opts.payloads != Payloads::All && roots.iter().any(|root| covers(root, CAS_DIR));
    let listed: HashSet<String> = match lists {
        true => lister.list_dir(CAS_DIR).into_iter().flatten().collect(),
        false => HashSet::new(),
    };
    if tiers.is_some() {
        // The sweep checks the union view, where a fast copy wins.
        sealed.bytes.clear();
    }
    let mut summary = sweep(&**store, roots, opts.threads, |path, checker| {
        let t0 = Instant::now();
        let vouched = sealed
            .header(path)
            .filter(|_| listed.contains(basename_of(path)));
        let mut found = match vouched {
            Some(h) => listed_chunk(path, h, &mut checker.summary),
            None => check_file(store, path, opts.payloads, &sealed, checker),
        };
        let (spent, local) = (t0.elapsed(), &mut checker.summary);
        local.files += 1;
        local.check_times.record_dur(spent);
        local.checker_ns[found.report.kind as usize] += spent.as_nanos() as u64;
        if let (Some(tiers), None) = (tiers, vouched) {
            if let (true, Some(h)) = (found.spoilt(), sealed.header(path)) {
                found.restorable = tiers.durable_verifies(path, h, checker);
            }
            found.report.damage.add(&tiers.damage(path, checker));
        }
        checker.summary.found.push(found);
    });
    let mut found = std::mem::take(&mut summary.found);
    found.sort_by(|a, b| a.report.path.cmp(&b.report.path));
    let len = |origin: &str| store.file_len(origin).ok();
    resolve(&mut found, roots, len);
    let foreign_manifest = |f: &Finding| f.foreign && f.report.kind == FileKind::Manifest;
    if opts.repair && !found.iter().any(foreign_manifest) {
        let plan = plan(&found, tiers.is_some());
        apply(&plan, &mut found, store, tiers, &summary.dirs, opts.threads);
    }
    let damaged = |r: &FileReport| !r.damage.is_clean() || r.error.is_some();
    let reports = found.into_iter().map(|f| f.report);
    summary.reports = reports.filter(damaged).collect();
    for r in &summary.reports {
        summary.damage.add(&r.damage);
        summary.repaired_files += u64::from(r.repaired);
    }
    summary.elapsed = t0.elapsed();
    summary
}

/// Whether `root` is `path` or one of its ancestors.
fn covers(root: &str, path: &str) -> bool {
    let rest = path.strip_prefix(root.trim_end_matches('/'));
    rest.is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Answers what no one file can (module docs, "Repair"): each reference
/// against its origin's clean length — `outside` gives the store's
/// length of an origin no root covers — and, when the roots cover `/`
/// and no file names content of another format, which content-store
/// chunks nothing names. A file the repair unlinks keeps no tier
/// finding: nothing of it is left to drain.
fn resolve(found: &mut [Finding], roots: &[String], outside: impl Fn(&str) -> Option<u64>) {
    let under = |path: &str| roots.iter().any(|root| covers(root, path));
    let (mut clean, mut named) = (HashMap::new(), HashSet::new());
    for f in found.iter() {
        clean.insert(f.report.path.as_str(), f.clean_len);
        named.extend(f.refs.iter().map(|(origin, _)| origin.as_str()));
    }
    let whole = under("/") && !found.iter().any(|f| f.foreign);
    let answers: Vec<(u64, bool)> = found
        .iter()
        .map(|f| {
            let dangling = f.refs.iter().filter(|(origin, end)| {
                let len = match clean.get(origin.as_str()) {
                    Some(&len) => len,
                    None if under(origin) => None,
                    None => outside(origin),
                };
                len.is_none_or(|len| *end > len)
            });
            let path = f.report.path.as_str();
            let chunk = path.strip_prefix(CAS_DIR).and_then(|n| n.strip_prefix('/'));
            let orphan = whole && chunk.is_some() && !f.sealed && !named.contains(path);
            (dangling.count() as u64, orphan)
        })
        .collect();
    for (f, (dangling, orphan)) in found.iter_mut().zip(answers) {
        let damage = &mut f.report.damage;
        match f.report.kind {
            FileKind::Manifest => damage.dangling_manifest_refs += dangling,
            _ => damage.orphaned_refs += dangling,
        }
        damage.orphaned_chunks = u64::from(orphan);
        if f.unlinks() {
            let damage = &mut f.report.damage;
            (damage.tier_stranded, damage.tier_diverged) = (0, 0);
        }
    }
}

/// One repair of [`plan`]'s list; each names a finding by its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Unlink a torn manifest or an orphan chunk.
    Unlink(usize),
    /// Cut a torn frame log back to this clean length, and sync.
    Truncate(usize, u64),
    /// Two tiers: copy a sealed chunk's verified durable copy over its
    /// spoilt fast one.
    Restore(usize),
    /// Two tiers: land every repair still queued for the durable tier,
    /// then unlink the fast tier's promotion staging files.
    Barrier,
    /// Two tiers: re-drain a file's fast copy over its durable one —
    /// when `true` (a file just truncated) only if the two still differ.
    Redrain(usize, bool),
    /// Two tiers: run the re-drains listed so far, and those after only
    /// if every one returned `Ok`.
    Settle,
    /// Two tiers: withhold a manifest's re-drain, a file it may name
    /// having been left out.
    Withhold(usize),
}

/// The repairs the resolved `found` asks for, in the order they run:
/// torn manifests unlinked, orphan chunks unlinked, torn tails but a
/// sealed chunk's truncated, and on two tiers the restores, the
/// barrier, then the re-drains, manifests last and behind a
/// [`Action::Settle`]: a durable manifest persists after the chunks it
/// names, as a seal's does (DESIGN.md §9). A fast copy that failed its
/// check is never re-drained — the durable copy may be the only good
/// one; a sealed chunk's is restored from a durable copy that verifies
/// — and once one is left out unrestored, no manifest is re-drained: it
/// might name it. No IO.
fn plan(found: &[Finding], tiered: bool) -> Vec<Action> {
    let indexed = || found.iter().enumerate();
    let manifest = |f: &Finding| f.report.kind == FileKind::Manifest;
    let truncate = |f: &Finding| match f.clean_len {
        Some(len) if !f.unlinks() && !f.sealed && f.report.torn_bytes > 0 => Some(len),
        _ => None,
    };
    let unlink = |is_manifest: bool| {
        let unlinked = indexed().filter(move |(_, f)| f.unlinks() && manifest(f) == is_manifest);
        unlinked.map(|(i, _)| Action::Unlink(i))
    };
    let mut actions: Vec<Action> = unlink(true).chain(unlink(false)).collect();
    actions.extend(indexed().filter_map(|(i, f)| Some(Action::Truncate(i, truncate(f)?))));
    if tiered {
        let restores = indexed().filter(|(_, f)| f.restorable);
        actions.extend(restores.map(|(i, _)| Action::Restore(i)));
        actions.push(Action::Barrier);
        let damage = |f: &Finding| f.report.damage;
        let tier = |f: &Finding| damage(f).tier_stranded + damage(f).tier_diverged > 0;
        let drains = indexed()
            .filter(|(_, f)| !f.unlinks() && !f.restorable && (tier(f) || truncate(f).is_some()));
        let (bad, drains): (Vec<_>, Vec<_>) = drains.partition(|(_, f)| f.spoilt());
        let (manifests, others): (Vec<_>, Vec<_>) = drains
            .into_iter()
            .partition(|(_, f)| is_manifest(&f.report.path));
        let redrain = |(i, f): (usize, &Finding)| Action::Redrain(i, truncate(f).is_some());
        actions.extend(others.into_iter().map(redrain));
        if !manifests.is_empty() {
            actions.push(Action::Settle);
            let manifests = manifests.into_iter();
            match bad.is_empty() {
                true => actions.extend(manifests.map(redrain)),
                false => actions.extend(manifests.map(|(i, _)| Action::Withhold(i))),
            }
        }
    }
    actions
}

/// Why [`apply`] left a manifest's re-drain out: a file before it was
/// not re-drained, or its re-drain failed.
const WITHHELD: &str = "re-drain withheld: a file it may name did not re-drain";

/// Runs [`plan`]'s `actions` on `store` (on two tiers, the union view)
/// and fills in each report's `repaired` and `error`. The re-drains go
/// over the fast tier on the checker pool, a batch per
/// [`Action::Settle`].
fn apply(
    actions: &[Action],
    found: &mut [Finding],
    store: &Arc<dyn Backend>,
    tiers: Option<Tiers>,
    dirs: &[String],
    threads: usize,
) {
    let (mut batch, mut settled) = (Vec::new(), true);
    for &action in actions {
        let (i, done) = match action {
            Action::Unlink(i) => (i, store.unlink(&found[i].report.path)),
            Action::Truncate(i, len) => (i, truncate(store, &found[i].report.path, len)),
            Action::Restore(i) => {
                let tiers = tiers.expect("only two tiers restore");
                (i, tiers.restore(&found[i].report.path))
            }
            Action::Barrier => {
                let _ = store.drain_barrier();
                if let Some(tiers) = tiers {
                    tiers.sweep_staging(dirs);
                }
                continue;
            }
            Action::Redrain(i, recompare) => {
                batch.push((i, recompare));
                continue;
            }
            Action::Settle => {
                settled = redrain(&std::mem::take(&mut batch), found, tiers, threads);
                continue;
            }
            Action::Withhold(i) => (i, Err(io::Error::other(WITHHELD))),
        };
        let done = done.map_err(|e| format!("repair failed: {e}"));
        note(&mut found[i].report, done);
    }
    match settled {
        true => _ = redrain(&batch, found, tiers, threads),
        false => {
            for (i, _) in batch {
                note(&mut found[i].report, Err(WITHHELD.to_string()));
            }
        }
    }
    for f in found.iter_mut() {
        let lost = &f.report.damage;
        let lost = lost.bad_payload_checksum + lost.orphaned_refs + lost.dangling_manifest_refs;
        let whole = f.report.error.is_none() && (lost == 0 || f.unlinks() || f.restorable);
        f.report.repaired &= whole;
    }
}

/// Runs `batch`'s re-drains over the fast tier of `tiers` on the
/// checker pool; returns whether every one returned `Ok`.
fn redrain(
    batch: &[(usize, bool)],
    found: &mut [Finding],
    tiers: Option<Tiers>,
    threads: usize,
) -> bool {
    let Some(tiers) = tiers.filter(|_| !batch.is_empty()) else {
        return true;
    };
    let redrains: HashMap<String, (usize, bool)> = batch
        .iter()
        .map(|&(i, recompare)| (found[i].report.path.clone(), (i, recompare)))
        .collect();
    let paths: Vec<String> = redrains.keys().cloned().collect();
    let drained = Mutex::new(Vec::new());
    sweep(&**tiers.fast, &paths, threads, |path, checker| {
        let (i, recompare) = redrains[path];
        let done = match recompare && tiers.damage(path, checker).is_clean() {
            true => Ok(()),
            false => tiers.redrain(path, checker),
        };
        let done = done.map_err(|e| format!("re-drain failed: {e}"));
        drained.lock().push((i, done));
    });
    let mut settled = true;
    for (i, done) in drained.into_inner() {
        settled &= done.is_ok();
        note(&mut found[i].report, done);
    }
    settled
}

/// Records one repair's outcome on its report.
fn note(report: &mut FileReport, done: Result<(), String>) {
    match done {
        Ok(()) => report.repaired = true,
        Err(e) => report.error = Some(e),
    }
}

fn truncate(backend: &Arc<dyn Backend>, path: &str, clean_len: u64) -> io::Result<()> {
    let rw = backend.open(path, OpenOptions::read_write())?;
    rw.set_len(clean_len)?;
    rw.sync()
}

impl Tiers<'_> {
    /// What comparing the fast copy of `path` with its durable copy
    /// finds: nothing when they agree, or when the fast tier does not
    /// hold the file.
    fn damage(&self, path: &str, checker: &mut Checker) -> DamageCounts {
        let mut damage = DamageCounts::default();
        let Ok(fast_len) = self.fast.file_len(path) else {
            return damage;
        };
        match self.durable.file_len(path) {
            Ok(len) if len == fast_len => match self.bytes_equal(path, len, checker) {
                Ok(true) => {}
                Ok(false) => damage.tier_diverged = 1,
                Err(_) => damage.tier_stranded = 1,
            },
            _ => damage.tier_stranded = 1,
        }
        damage
    }

    /// Whether the durable copy of `path` holds the fast copy's `len`
    /// bytes, compared a window at a time. A file the window still
    /// holds whole from its check is not read from the fast tier again.
    fn bytes_equal(&self, path: &str, len: u64, checker: &mut Checker) -> io::Result<bool> {
        let Checker { view, theirs, .. } = checker;
        let ff = match view.holds(0, len as usize) {
            true => None,
            false => Some(self.fast.open(path, OpenOptions::read_only())?),
        };
        let df = self.durable.open(path, OpenOptions::read_only())?;
        let mut off = 0u64;
        while off < len {
            let want = WINDOW.min((len - off) as usize);
            if let Some(ff) = &ff {
                view.fill(&**ff, off, want)?;
            }
            theirs.resize(theirs.len().max(want), 0);
            let t0 = Instant::now();
            read_exact_at(&*df, off, &mut theirs[..want])?;
            view.waited += t0.elapsed();
            let at = (off - view.start) as usize;
            if view.buf[at..at + want] != theirs[..want] {
                return Ok(false);
            }
            off += want as u64;
        }
        Ok(true)
    }

    /// Re-drains one fast-tier file over its durable copy through the
    /// checker's copy buffer: parent dirs, whole-file copy, sync — the
    /// offline analogue of the tier drain.
    fn redrain(&self, path: &str, checker: &mut Checker) -> io::Result<()> {
        let t0 = Instant::now();
        // A crash can strand a file whose directory never drained either.
        mkdir_parents(&**self.durable, path)?;
        let buf = checker.copy.get_or_insert_with(|| ChunkBuf::new(1 << 20));
        let src = self.fast.open(path, OpenOptions::read_only())?;
        let dst = self.durable.open(path, OpenOptions::create_truncate())?;
        let len = src.len()?;
        // Aligned, so full steps reach a direct-capable tier in place.
        let mut off = 0u64;
        while off < len {
            let want = buf.len().min((len - off) as usize);
            read_exact_at(&*src, off, &mut buf[..want])?;
            dst.write_at(off, &buf[..want])?;
            off += want as u64;
        }
        dst.sync()?;
        checker.view.waited += t0.elapsed();
        Ok(())
    }

    /// Whether the durable copy of sealed chunk `path` is the frame its
    /// record names: header `h`, then a payload that decodes to its
    /// digest.
    fn durable_verifies(&self, path: &str, h: &FrameHeader, checker: &mut Checker) -> bool {
        let file = self.durable.open(path, OpenOptions::read_only());
        let Ok(bytes) = file.and_then(|file| read_whole(&*file)) else {
            return false;
        };
        let (head, payload) = bytes.split_at(bytes.len().min(FRAME_HEADER_LEN as usize));
        let out = &mut checker.frame.1;
        FrameHeader::decode(head).is_ok_and(|got| got == *h)
            && payload.len() == h.stored_len as usize
            && decode_to_vec(h.codec, payload, h.logical_len as usize, out).is_ok()
            && payload_digest(out).check == h.payload_check
    }

    /// Copies the durable copy of `path` over its fast copy, and syncs:
    /// the one copy a repair makes toward the fast tier.
    fn restore(&self, path: &str) -> io::Result<()> {
        let bytes = read_whole(&*self.durable.open(path, OpenOptions::read_only())?)?;
        let fast = self.fast.open(path, OpenOptions::create_truncate())?;
        fast.write_at(0, &bytes)?;
        fast.sync()
    }

    /// Unlinks the promotion staging files (`{target}.promote-N`) a
    /// crash mid-promotion left in the fast tier's `dirs`:
    /// backend-internal partial copies that the union view hides and
    /// that are never compared or re-drained.
    fn sweep_staging(&self, dirs: &[String]) {
        for dir in dirs {
            for name in self.fast.list_dir(dir).unwrap_or_default() {
                if crate::backend::is_promote_tmp(&name) {
                    let path = format!("{}/{name}", dir.trim_end_matches('/'));
                    let _ = self.fast.unlink(&path);
                }
            }
        }
    }
}

/// The finding of the sealed chunk at `path`, counted from a listing
/// (module docs, "Trust"): one DATA frame, not decoded, whose clean
/// length its record's header `h` names.
fn listed_chunk(path: &str, h: &FrameHeader, local: &mut FsckSummary) -> Finding {
    let len = FRAME_HEADER_LEN + u64::from(h.stored_len);
    let mut found = finding(path, FileKind::FrameLog, Some(len));
    (found.report.frames, found.sealed) = (1, true);
    local.frame_logs += 1;
    local.frames += 1;
    local.trusted_payloads += 1;
    found
}

fn merge(into: &mut FsckSummary, from: FsckSummary) {
    into.files += from.files;
    into.raw_files += from.raw_files;
    into.frame_logs += from.frame_logs;
    into.manifests += from.manifests;
    into.frames += from.frames;
    into.trusted_payloads += from.trusted_payloads;
    into.found.extend(from.found);
    into.dirs.extend(from.dirs);
    into.check_times.merge(&from.check_times);
    for (mine, theirs) in into.checker_ns.iter_mut().zip(from.checker_ns) {
        *mine += theirs;
    }
}

/// The retained sealed manifests, read before the sweep (module docs,
/// "Trust" and "Reads"); on two tiers, from the durable tier.
#[derive(Default)]
struct Sealed {
    /// Each manifest's bytes, which its check in the sweep reads
    /// instead of the backend (on two tiers, which its fast copy is
    /// compared with).
    bytes: HashMap<String, Vec<u8>>,
    /// The header of every chunk a decodable manifest names, which its
    /// record determines, by key.
    chunks: HashMap<ChunkKey, FrameHeader>,
}

impl Sealed {
    /// The header the record of the chunk at `path` determines, if a
    /// decodable manifest names it.
    fn header(&self, path: &str) -> Option<&FrameHeader> {
        let name = path.strip_prefix(CAS_DIR)?.strip_prefix('/')?;
        self.chunks.get(&parse_cas_name(name)?)
    }
}

/// Reads every manifest under [`SNAP_DIR`] on `lister` as one batch, on
/// the thread that then runs the sweep's first checker.
fn read_sealed(lister: &dyn Backend) -> Sealed {
    let names = lister.list_dir(SNAP_DIR).unwrap_or_default();
    let manifests = names.into_iter().filter_map(|name| {
        parse_manifest_name(&name)?;
        let path = format!("{SNAP_DIR}/{name}");
        let file = lister.open(&path, OpenOptions::read_only()).ok()?;
        Some((path, file))
    });
    let bytes: HashMap<_, _> = read_batch(manifests)
        .into_iter()
        .filter_map(|(path, read)| Some((path, read.ok()?)))
        .collect();
    let mut chunks = HashMap::new();
    for m in bytes.values().filter_map(|b| Manifest::decode(b).ok()) {
        for (_, records) in &m.files {
            for rec in records {
                if let Record::Chunk(c) = rec {
                    let h = FrameHeader::chunk(c.codec, c.logical_len, c.stored_len, c.check);
                    chunks.insert(c.key(), h);
                }
            }
        }
    }
    Sealed { bytes, chunks }
}

// ---------------------------------------------------------------------
// Work-stealing pool
// ---------------------------------------------------------------------

/// Per-checker deques with front-stealing. Jobs are backend paths: what
/// `lister` lists expands, anything else goes to `visit`. Every checker
/// the pool may grow to has a queue; `live` of them have a checker.
/// `waited` says whether the last job a checker finished waited on the
/// backend longer than it checked; both are `Relaxed`, each publishing
/// nothing but itself. Idle checkers park in the shape of
/// `prefetch.rs`'s reads: the counts in `jobs` change only under the
/// mutex `idle` waits on, so a push, and the finish that drains the
/// sweep, notify only when a checker is parked, and a parked checker
/// re-checks the queues and the count under it and waits untimed.
struct StealPool<'a, F> {
    lister: &'a dyn Backend,
    visit: F,
    queues: Vec<Mutex<VecDeque<String>>>,
    jobs: Mutex<Jobs>,
    idle: Condvar,
    live: AtomicUsize,
    waited: AtomicBool,
    found: Mutex<FsckSummary>,
}

/// The pool's counts under its `idle` mutex.
#[derive(Default)]
struct Jobs {
    /// Queued *and* in-flight jobs: a checker only exits when the whole
    /// sweep is drained.
    outstanding: u64,
    /// Checkers waiting on `idle`.
    parked: usize,
}

/// One checker's findings, and the buffers every file it checks reuses
/// (module docs, "Reads").
#[derive(Default)]
struct Checker {
    summary: FsckSummary,
    /// The read window.
    view: View,
    /// A frame's stored payload and its decoded bytes.
    frame: (Vec<u8>, Vec<u8>),
    /// The durable copy of a tier comparison.
    theirs: Vec<u8>,
    /// A re-drain's aligned copy buffer, made by the first re-drain.
    copy: Option<ChunkBuf>,
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
    let pool = StealPool::new(lister, visit, first, most);
    for (i, root) in roots.iter().enumerate() {
        pool.push(i % first, vec![root.clone()]);
    }
    std::thread::scope(|s| {
        for worker in 1..first {
            let pool = &pool;
            s.spawn(move || pool.checker(s, worker));
        }
        pool.checker(s, 0);
    });
    pool.found.into_inner()
}

impl<'a, F: Fn(&str, &mut Checker) + Sync> StealPool<'a, F> {
    /// A pool of `first` checkers that may grow to `most`, with no jobs.
    fn new(lister: &'a dyn Backend, visit: F, first: usize, most: usize) -> Self {
        StealPool {
            lister,
            visit,
            queues: (0..most).map(|_| Mutex::new(VecDeque::new())).collect(),
            jobs: Mutex::new(Jobs::default()),
            idle: Condvar::new(),
            live: AtomicUsize::new(first),
            waited: AtomicBool::new(false),
            found: Mutex::new(FsckSummary::default()),
        }
    }

    /// One checker: jobs until the sweep drains.
    fn checker<'s>(&'s self, s: &'s Scope<'s, '_>, worker: usize) {
        let mut checker = Checker::default();
        while let Some(path) = self.next_job(worker) {
            // Each job starts with an empty window and no wait.
            let t0 = Instant::now();
            (checker.view.held, checker.view.waited) = (0, Duration::ZERO);
            // A listable path is a directory: expand onto our own queue
            // and let idle checkers steal the siblings.
            match self.lister.list_dir(&path) {
                Ok(names) => {
                    let dir = path.trim_end_matches('/');
                    self.push(worker, names.iter().map(|n| format!("{dir}/{n}")).collect());
                    checker.summary.dirs.push(path);
                }
                Err(_) => (self.visit)(&path, &mut checker),
            }
            // Done (its children carry their own count); the last job
            // releases every parked checker.
            let outstanding = {
                let mut jobs = self.jobs.lock();
                jobs.outstanding -= 1;
                if jobs.outstanding == 0 && jobs.parked > 0 {
                    self.idle.notify_all();
                }
                jobs.outstanding
            };
            // Grow while the outstanding jobs outnumber the checkers, and
            // only after two jobs in a row that waited on the backend
            // longer than they checked: another checker overlaps waits,
            // not CPU, and a store's latency slows every read where a
            // preempted checker slows one.
            let waited = checker.view.waited * 2 > t0.elapsed();
            if !(self.waited.swap(waited, Relaxed) && waited) {
                continue;
            }
            let grown = self.live.fetch_update(Relaxed, Relaxed, |live| {
                let behind = outstanding > live as u64;
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
        let mut state = self.jobs.lock();
        state.outstanding += jobs.len() as u64;
        self.queues[worker].lock().extend(jobs);
        if state.parked > 0 {
            self.idle.notify_all();
        }
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
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = take() {
                return Some(job);
            }
            if jobs.outstanding == 0 {
                return None;
            }
            jobs.parked += 1;
            self.idle.wait(&mut jobs);
            jobs.parked -= 1;
        }
    }
}

// ---------------------------------------------------------------------
// Per-file checks
// ---------------------------------------------------------------------

/// A checker's window buffer: `buf[..held]` are the current file's
/// bytes from `start`. `waited` is the wall time the current job spent
/// in backend IO, the pool's growth signal.
#[derive(Default)]
struct View {
    start: u64,
    held: usize,
    buf: Vec<u8>,
    waited: Duration,
}

impl View {
    /// Whether the window holds the file's `len` bytes from `offset`.
    fn holds(&self, offset: u64, len: usize) -> bool {
        offset >= self.start && offset + len as u64 <= self.start + self.held as u64
    }

    /// Holds `bytes` as a file's first bytes, read before its job.
    fn prime(&mut self, bytes: &[u8]) {
        self.buf.resize(self.buf.len().max(bytes.len()), 0);
        self.buf[..bytes.len()].copy_from_slice(bytes);
        (self.start, self.held) = (0, bytes.len());
    }

    /// Reads `len` bytes of `file` from `offset` into the window.
    fn fill(&mut self, file: &dyn BackendFile, offset: u64, len: usize) -> io::Result<()> {
        self.buf.resize(self.buf.len().max(len), 0);
        self.held = 0;
        let t0 = Instant::now();
        read_exact_at(file, offset, &mut self.buf[..len])?;
        self.waited += t0.elapsed();
        (self.start, self.held) = (offset, len);
        Ok(())
    }
}

/// A checker's read-through view of one file, handed to the unchanged
/// [`FileHead::read`] / [`walk_frames`] as their `BackendFile` (module
/// docs, "Reads"). A read past the end fails, as `read_exact_at` would.
struct Window<'a> {
    file: &'a dyn BackendFile,
    view: Mutex<&'a mut View>,
}

impl BackendFile for Window<'_> {
    fn read_at(&self, offset: u64, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut view = self.view.lock();
        if !view.holds(offset, out.len()) {
            // A big file's first read is its head, all a raw image is
            // ever read for; any other miss reads a window from here.
            let len = self.file.len()?;
            let next = match len > WINDOW as u64 && view.held == 0 {
                true => out.len(),
                false => (len.saturating_sub(offset).min(WINDOW as u64) as usize).max(out.len()),
            };
            view.fill(self.file, offset, next)?;
        }
        let at = (offset - view.start) as usize;
        out.copy_from_slice(&view.buf[at..at + out.len()]);
        Ok(out.len())
    }

    crate::forward_file_ops!(file: write_at, sync, len, set_len);
}

/// A finding of `kind` in `path` with no damage yet, whose clean length
/// is `len`.
fn finding(path: &str, kind: FileKind, len: Option<u64>) -> Finding {
    Finding {
        report: FileReport {
            path: path.to_string(),
            kind,
            frames: 0,
            damage: DamageCounts::default(),
            torn_bytes: 0,
            repaired: false,
            error: None,
        },
        clean_len: len,
        refs: Vec::new(),
        sealed: false,
        restorable: false,
        foreign: false,
    }
}

/// Checks one file.
fn check_file(
    backend: &Arc<dyn Backend>,
    path: &str,
    payloads: Payloads,
    sealed: &Sealed,
    checker: &mut Checker,
) -> Finding {
    let Checker {
        summary: local,
        view,
        frame,
        ..
    } = checker;
    // What the seal vouches for, if this is a content-store chunk a
    // decodable manifest names: the header such a chunk must carry.
    let vouched = sealed.header(path);
    let file = backend.open(path, OpenOptions::read_only());
    // The window's first read serves the classification and, for a
    // file that fits, everything after it.
    let opened = match &file {
        Err(e) => Err(format!("unopenable: {e}")),
        Ok(file) => {
            if let Some(bytes) = sealed.bytes.get(path) {
                view.prime(bytes);
            }
            let window = Window {
                file: &**file,
                view: Mutex::new(view),
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
            let mut found = finding(path, FileKind::Raw, None);
            found.report.error = Some(error);
            return found;
        }
    };
    let mut found = finding(path, classify(&head), Some(head.stored_len));
    found.sealed = vouched.is_some();
    match found.report.kind {
        FileKind::Raw => local.raw_files += 1,
        FileKind::FrameLog => {
            local.frame_logs += 1;
            let decode = payloads != Payloads::Skip;
            check_frame_log(&window, &head, decode, local, frame, &mut found);
            // A sealed chunk is never cut, and a keyed read needs only
            // the bytes its record says it stores: a damaged header
            // alone loses none of them.
            if let (Some(h), Some(len)) = (vouched, &mut found.clean_len) {
                let whole = FRAME_HEADER_LEN + u64::from(h.stored_len);
                if head.stored_len >= whole {
                    *len = (*len).max(whole);
                }
            }
        }
        FileKind::Manifest => {
            local.manifests += 1;
            check_manifest(&window, &mut found);
        }
    }
    local.frames += found.report.frames;
    found
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
/// validation every open performs — adding per frame, if `decode`, the
/// payload decode + checksum of each DATA frame, and each REF frame's
/// reference. `payload` and `out` are the checker's stored and decoded
/// frame buffers.
fn check_frame_log(
    file: &dyn BackendFile,
    head: &FileHead,
    decode: bool,
    local: &mut FsckSummary,
    (payload, out): &mut (Vec<u8>, Vec<u8>),
    found: &mut Finding,
) {
    let Finding {
        report,
        refs,
        foreign,
        ..
    } = found;
    let FileReport { frames, damage, .. } = report;
    let walked = walk_frames(file, head, |off, h| {
        *frames += 1;
        if h.flags & (FLAG_PAD | FLAG_TRUNC) != 0 {
            return Ok(());
        }
        let data = h.flags & FLAG_REF == 0;
        if data && h.format == FRAME_FORMAT && !decode {
            local.trusted_payloads += 1;
            return Ok(());
        }
        if h.format != FRAME_FORMAT {
            // Structurally sound, but written by another build (0:
            // before the payload digest, 1: before keyed references):
            // no mount will serve it. The header says so, whether or
            // not payloads are verified.
            damage.bad_payload_checksum += 1;
            *foreign |= !data;
            return Ok(());
        }
        payload.resize(h.stored_len as usize, 0);
        read_exact_at(file, off + FRAME_HEADER_LEN, payload)?;
        if !data {
            match ChunkRef::decode(payload) {
                Some(r) => refs.push(reference((r.hash, h.logical_len), r.stored_len)),
                None => damage.orphaned_refs += 1,
            }
        } else {
            let ok = decode_to_vec(h.codec, payload, h.logical_len as usize, out).is_ok()
                && payload_digest(out).check == h.payload_check;
            if !ok {
                damage.bad_payload_checksum += 1;
            }
        }
        Ok(())
    });
    let outcome: ScanOutcome = match walked {
        Ok(outcome) => outcome.expect("classified framed from the same head"),
        Err(e) => {
            // A backend read failed mid-walk. That is not a torn tail:
            // nothing is known about the bytes past it, so nothing is
            // cut.
            found.report.error = Some(format!("unreadable: {e}"));
            return;
        }
    };
    match outcome.damage {
        Some(TailDamage::TruncatedHeader | TailDamage::TruncatedPayload) => damage.torn_tails += 1,
        Some(TailDamage::BadHeaderCrc) => damage.bad_header_crc += 1,
        None => {}
    }
    found.report.torn_bytes = head.stored_len - outcome.clean_len;
    found.clean_len = Some(outcome.clean_len);
}

/// Whether `path` names a snapshot manifest.
fn is_manifest(path: &str) -> bool {
    parent_of(path) == SNAP_DIR && parse_manifest_name(basename_of(path)).is_some()
}

/// A reference to the chunk of `key` whose frame stores `stored_len`
/// bytes: the chunk's path, and the end the frame needs there.
fn reference(key: ChunkKey, stored_len: u32) -> (String, u64) {
    (cas_path(key), FRAME_HEADER_LEN + u64::from(stored_len))
}

/// Validates a sealed epoch manifest: structural decode (magic,
/// version, crc trailer), each chunk record's format, and each record's
/// reference, which [`resolve`] answers. An undecodable manifest is a
/// torn seal; the recovery contract says that epoch never existed, so
/// `--repair` unlinks it; one of another version is reported. Dangling
/// records are *not* repairable: the sealed epoch has lost bytes, and
/// the only honest outcome is to report it so a restart from that epoch
/// is not attempted.
fn check_manifest(file: &dyn BackendFile, found: &mut Finding) {
    let m = match read_whole(file).and_then(|bytes| Manifest::decode(&bytes)) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            found.report.error = Some(e.to_string());
            found.foreign = true;
            return;
        }
        Err(_) => {
            found.report.damage.torn_tails += 1;
            found.clean_len = None;
            return;
        }
    };
    for (_, records) in &m.files {
        for rec in records {
            let Record::Chunk(c) = rec else { continue };
            found.report.frames += 1;
            found.refs.push(reference(c.key(), c.stored_len));
            if c.format != FRAME_FORMAT {
                found.report.damage.bad_payload_checksum += 1;
            }
        }
    }
}

impl std::fmt::Display for FsckSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "checked {} files in {:?}: {} frame logs, {} manifests, \
             {} raw ({} frames walked, {} payloads trusted without decode)",
            self.files,
            self.elapsed,
            self.frame_logs,
            self.manifests,
            self.raw_files,
            self.frames,
            self.trusted_payloads
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
    use crate::backend::{CompletionSink, READ_BATCH};
    use crate::transform::CodecKind;
    use crate::{Crfs, CrfsConfig};

    fn be() -> Arc<dyn Backend> {
        Arc::new(MemBackend::new())
    }

    /// Writes `files` frame logs of `len` bytes each under `/ckpt`.
    fn populate(backend: &Arc<dyn Backend>, files: usize, len: usize) {
        let fs = Crfs::mount(Arc::clone(backend), lz()).unwrap();
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

    /// A repair on the default checker count.
    fn repair() -> FsckOptions {
        FsckOptions {
            repair: true,
            ..FsckOptions::default()
        }
    }

    /// The framed `lz` mount the fixtures write with.
    fn lz() -> CrfsConfig {
        CrfsConfig::default()
            .with_chunk_size(4096)
            .with_pool_size(64 * 1024)
            .with_codec(CodecKind::Lz)
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
        let kept = backend.file_len(victim).unwrap();
        assert_eq!(kept, len - 50, "dry run must not mutate");

        let fixed = run(&backend, &["/".to_string()], &repair());
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
        flip(&backend, victim, FRAME_HEADER_LEN + 5, 0xFF);
        let len = backend.file_len(victim).unwrap();

        let sum = run(&backend, &["/ckpt".to_string()], &repair());
        assert_eq!(sum.damage.bad_payload_checksum, 1);
        assert_eq!(sum.repaired_files, 0, "mid-chain damage is not truncated");
        let kept = backend.file_len(victim).unwrap();
        assert_eq!(kept, len, "no good frames were discarded");
    }

    #[test]
    fn orphaned_dedup_reference_is_detected() {
        let backend = be();
        // Two identical files on a dedup mount: both become REF chains
        // into the same content-store chunks.
        let fs = Crfs::mount(Arc::clone(&backend), snap_config()).unwrap();
        let data: Vec<u8> = (0..8192).map(|b| (b / 64) as u8).collect();
        for name in ["/a.img", "/b.img"] {
            let f = fs.create(name).unwrap();
            f.write(&data).unwrap();
            f.close().unwrap();
        }
        fs.unmount().unwrap();

        let clean = run(&backend, &["/".to_string()], &opts(1));
        assert!(clean.damage.is_clean(), "{clean}");

        // Cut the chunks short: references into them are now orphans.
        for name in backend.list_dir(CAS_DIR).unwrap() {
            let chunk = format!("{CAS_DIR}/{name}");
            let f = backend.open(&chunk, OpenOptions::read_write()).unwrap();
            f.set_len(10).unwrap();
        }
        let sum = run(&backend, &["/b.img".to_string()], &opts(1));
        assert!(sum.damage.orphaned_refs > 0, "{sum}");
    }

    // -- one walker ---------------------------------------------------

    /// Stores `bytes` as `/f` beside the content-store chunk `origin`
    /// on a fresh backend and checks that the walker, a fresh attach,
    /// the metadata scan and `--repair` all name the same surviving
    /// prefix, and that the repaired store scans clean.
    fn assert_agreement(config: &CrfsConfig, origin: &(String, Vec<u8>), bytes: &[u8], what: &str) {
        use crate::transform::{scan_logical_len, scan_outcome, FileTransform, TransformCtx};
        let backend = be();
        backend.mkdir(SNAP_DIR).unwrap();
        backend.mkdir(CAS_DIR).unwrap();
        let o = backend
            .open(&origin.0, OpenOptions::create_truncate())
            .unwrap();
        o.write_at(0, &origin.1).unwrap();
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
        let fixed = run(&backend, &roots, &repair());
        assert!(fixed.is_clean(), "{what}: {fixed}");
        let after = backend.file_len("/f").unwrap();
        match walked {
            // Raw to the walker (empty, or the magic itself is gone):
            // raw to the mount and to fsck, which leaves it alone (the
            // one frame log is the chunk).
            None => {
                assert!(bytes.is_empty() || attached.is_none(), "{what}");
                assert_eq!((fixed.frame_logs, after), (1, bytes.len() as u64), "{what}");
            }
            Some(outcome) => {
                let attached = attached.expect("framed to the walker is framed to attach");
                assert_eq!(attached.stored_len(), outcome.clean_len, "{what}: attach");
                assert_eq!(after, outcome.clean_len, "{what}: repair");
                assert_eq!(Some(attached.logical_len()), served, "{what}: file_len");
            }
        }
        let rescan = run(&backend, &roots, &opts(1));
        let clean = rescan.damage.is_clean() && rescan.reports.is_empty();
        assert!(clean, "{what}: {rescan}");
    }

    #[test]
    fn every_cut_and_header_flip_leaves_walker_attach_and_repair_one_answer() {
        // A DATA frame written without dedup, then on a dedup mount a
        // REF frame into the content store and a TRUNC marker: every
        // frame shape a log holds.
        let config = snap_config();
        let backend = be();
        let chunk: Vec<u8> = (0..4096).map(|i| (i / 32) as u8).collect();
        let fs = Crfs::mount(Arc::clone(&backend), lz()).unwrap();
        let f = fs.create("/f").unwrap();
        f.write(&chunk).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        let fs = Crfs::mount(Arc::clone(&backend), config.clone()).unwrap();
        let f = fs.open("/f").unwrap();
        f.write_at(4096, &chunk).unwrap();
        f.set_len(4096 + 100).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        let names = backend.list_dir(CAS_DIR).unwrap();
        assert_eq!(names.len(), 1, "one content-store chunk");
        let origin = format!("{CAS_DIR}/{}", names[0]);
        let mut chunk_file = vec![0u8; backend.file_len(&origin).unwrap() as usize];
        let o = backend.open(&origin, OpenOptions::read_only()).unwrap();
        read_exact_at(&*o, 0, &mut chunk_file).unwrap();
        let origin = (origin, chunk_file);

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
            assert_agreement(&config, &origin, &log[..cut], &format!("cut at {cut}"));
        }
        for at in headers {
            for byte in 0..FRAME_HEADER_LEN {
                let mut bad = log.clone();
                bad[(at + byte) as usize] ^= 0xFF;
                assert_agreement(
                    &config,
                    &origin,
                    &bad,
                    &format!("header at {at}: byte {byte} flipped"),
                );
            }
        }
    }

    // -- reads and checkers ---------------------------------------------

    /// Every backend read a [`Probe`] saw: path, offset, length, and the
    /// thread that read.
    type ReadLog = Arc<Mutex<Vec<(String, u64, usize, std::thread::ThreadId)>>>;

    /// A [`Probe`]'s reads in flight, or its open handles: `(now, most
    /// at once)`.
    type InFlight = Arc<Mutex<(usize, usize)>>;

    /// Counts one more in `count`.
    fn up(count: &InFlight) {
        let mut count = count.lock();
        count.0 += 1;
        count.1 = count.1.max(count.0);
    }

    /// Every open, listing, write and sync a [`Probe`] saw: op, path,
    /// and thread.
    type OpLog = Arc<Mutex<Vec<(&'static str, String, std::thread::ThreadId)>>>;

    /// A test decorator: logs every read, open, listing, write and sync, counts open
    /// handles, sleeps `delay` in each `read_at`, and `hold` more in
    /// each read of `slow`. With `held` it takes asynchronous reads too.
    struct Probe {
        inner: Arc<dyn Backend>,
        delay: Duration,
        slow: Option<(String, Duration)>,
        held: Option<Arc<Held>>,
        reads: ReadLog,
        in_flight: InFlight,
        ops: OpLog,
        handles: InFlight,
    }

    /// The completions of a [`Probe`]'s asynchronous reads of paths
    /// under `under`: held until `batch` are pending or the `total`th
    /// has begun, then delivered at once. Any other asynchronous read
    /// completes inside its call.
    struct Held {
        under: &'static str,
        batch: usize,
        total: usize,
        /// Pending completions, and the reads begun since the last
        /// `total`.
        state: Mutex<(Vec<Completion>, usize)>,
    }

    /// A held completion: its token and sink.
    type Completion = (u64, Arc<dyn CompletionSink>);

    fn held(under: &'static str, batch: usize, total: usize) -> Option<Arc<Held>> {
        let state = Mutex::default();
        Some(Arc::new(Held {
            under,
            batch,
            total,
            state,
        }))
    }

    struct ProbeFile {
        inner: Box<dyn BackendFile>,
        path: String,
        sleep: Duration,
        held: Option<Arc<Held>>,
        reads: ReadLog,
        in_flight: InFlight,
        handles: InFlight,
        ops: OpLog,
    }

    impl Drop for ProbeFile {
        fn drop(&mut self) {
            self.handles.lock().0 -= 1;
        }
    }

    impl Probe {
        fn new(inner: &Arc<dyn Backend>, delay: Duration) -> Probe {
            Probe {
                inner: Arc::clone(inner),
                delay,
                slow: None,
                held: None,
                reads: ReadLog::default(),
                in_flight: InFlight::default(),
                ops: OpLog::default(),
                handles: InFlight::default(),
            }
        }

        fn log(&self, op: &'static str, path: &str) {
            let thread = std::thread::current().id();
            self.ops.lock().push((op, path.to_string(), thread));
        }
    }

    impl Backend for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
            self.log("open", path);
            let held = match &self.slow {
                Some((slow, hold)) if slow == path => *hold,
                _ => Duration::ZERO,
            };
            let inner = self.inner.open(path, opts)?;
            up(&self.handles);
            Ok(Box::new(ProbeFile {
                inner,
                path: path.to_string(),
                sleep: self.delay + held,
                held: self.held.clone(),
                reads: Arc::clone(&self.reads),
                in_flight: Arc::clone(&self.in_flight),
                handles: Arc::clone(&self.handles),
                ops: Arc::clone(&self.ops),
            }))
        }
        fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
            self.log("list", path);
            self.inner.list_dir(path)
        }
        crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists, file_len);
    }

    impl ProbeFile {
        /// Logs a read and counts it in flight.
        fn start(&self, offset: u64, len: usize) {
            let thread = std::thread::current().id();
            self.reads
                .lock()
                .push((self.path.clone(), offset, len, thread));
            up(&self.in_flight);
        }

        fn log(&self, op: &'static str) {
            let thread = std::thread::current().id();
            self.ops.lock().push((op, self.path.clone(), thread));
        }
    }

    impl BackendFile for ProbeFile {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.start(offset, buf.len());
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            let read = self.inner.read_at(offset, buf);
            self.in_flight.lock().0 -= 1;
            read
        }
        fn begin_read_at(
            &self,
            token: u64,
            offset: u64,
            buf: &mut [u8],
            sink: &Arc<dyn CompletionSink>,
        ) -> io::Result<bool> {
            let Some(held) = &self.held else {
                return Ok(false);
            };
            self.start(offset, buf.len());
            if let Err(e) = read_exact_at(&*self.inner, offset, buf) {
                self.in_flight.lock().0 -= 1;
                return Err(e);
            }
            let mut done = vec![(token, Arc::clone(sink))];
            if self.path.starts_with(held.under) {
                let mut state = held.state.lock();
                state.0.append(&mut done);
                state.1 += 1;
                if state.1 == held.total {
                    state.1 = 0;
                    done = std::mem::take(&mut state.0);
                } else if state.0.len() == held.batch {
                    done = std::mem::take(&mut state.0);
                }
            }
            for (token, sink) in done {
                self.in_flight.lock().0 -= 1;
                sink.complete(token, Ok(()));
            }
            Ok(true)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
            self.log("write");
            self.inner.write_at(offset, data)
        }
        fn sync(&self) -> io::Result<()> {
            self.log("sync");
            self.inner.sync()
        }
        crate::forward_file_ops!(inner: len, set_len);
    }

    fn probe(inner: &Arc<dyn Backend>, delay: Duration) -> (Arc<dyn Backend>, ReadLog) {
        let (probe, reads, _) = probe_in_flight(inner, delay);
        (probe, reads)
    }

    /// [`probe`], with its count of reads in flight.
    fn probe_in_flight(
        inner: &Arc<dyn Backend>,
        delay: Duration,
    ) -> (Arc<dyn Backend>, ReadLog, InFlight) {
        let probe = Probe::new(inner, delay);
        let (reads, in_flight) = (Arc::clone(&probe.reads), Arc::clone(&probe.in_flight));
        (Arc::new(probe), reads, in_flight)
    }

    /// `cold_restart` pays a round trip per backend read and its
    /// recovery time is fsck's read count: a deep pass fetches a
    /// one-frame content-store chunk by one read, a default pass none,
    /// and a manifest is read once, before the sweep, whether or not the
    /// sweep visits it.
    #[test]
    fn a_one_frame_chunk_costs_fsck_exactly_one_read() {
        let store = be();
        populate_snap(&store);
        let (backend, reads) = probe(&store, Duration::ZERO);
        let chunks = backend.list_dir(CAS_DIR).unwrap().len() as u64;
        let deep = |threads| FsckOptions {
            payloads: Payloads::All,
            ..opts(threads)
        };
        let sum = run(&backend, &[CAS_DIR.to_string()], &deep(1));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.frame_logs, chunks);
        let seen = std::mem::take(&mut *reads.lock()).len() as u64;
        println!("fsck --deep: {seen} reads for {chunks} one-frame chunks and the manifest");
        // One per chunk, plus the read of the manifest before the sweep.
        assert_eq!(seen, chunks + 1);
        let sum = run(&backend, &[CAS_DIR.to_string()], &opts(1));
        assert_eq!((sum.frame_logs, sum.trusted_payloads), (chunks, chunks));
        // The manifest alone: the listing counted every chunk.
        assert_eq!(std::mem::take(&mut *reads.lock()).len(), 1);

        for opts in [opts(1), deep(1)] {
            let sum = run(&backend, &["/".to_string()], &opts);
            assert!(sum.is_clean(), "{sum}");
            assert_eq!((sum.manifests, sum.frame_logs), (1, chunks + 1));
            // Every file once (chunks, the live log, the manifest) but
            // those the listing counted; the manifest's check reuses the
            // bytes read before the sweep.
            let reads = std::mem::take(&mut *reads.lock()).len() as u64;
            assert_eq!(reads, sum.files - sum.trusted_payloads, "{opts:?}");
        }
    }

    /// A chunk the seal vouches for is read only by a deep pass, which
    /// reads it whole, once; any other pass counts it from the listing.
    /// Over a store that takes asynchronous reads too.
    #[test]
    fn a_vouched_chunk_is_read_only_by_a_deep_pass() {
        let store = be();
        populate_snap(&store);
        let chunks = store.list_dir(CAS_DIR).unwrap().len();
        for held in [None, held("/.crfs-snap/manifest-", 1, 1)] {
            let mut probe = Probe::new(&store, Duration::ZERO);
            probe.held = held;
            let (reads, ops) = (Arc::clone(&probe.reads), Arc::clone(&probe.ops));
            let backend: Arc<dyn Backend> = Arc::new(probe);
            let chunk_reads = |root: &str, payloads| {
                reads.lock().clear();
                ops.lock().clear();
                let opts = FsckOptions {
                    payloads,
                    ..opts(1)
                };
                assert!(run(&backend, &[root.to_string()], &opts).is_clean());
                let ops = ops.lock();
                let opens = ops
                    .iter()
                    .filter(|op| op.0 == "open" && op.1.starts_with(CAS_DIR));
                let reads = reads.lock();
                let chunks = reads.iter().filter(|r| r.0.starts_with(CAS_DIR));
                (
                    chunks.map(|r| (r.1, r.2)).collect::<Vec<_>>(),
                    opens.count(),
                )
            };
            for root in [CAS_DIR, "/", "/ckpt"] {
                assert_eq!(chunk_reads(root, Payloads::Unsealed), (vec![], 0));
                assert_eq!(chunk_reads(root, Payloads::Skip), (vec![], 0));
            }
            let (deep, opens) = chunk_reads(CAS_DIR, Payloads::All);
            assert_eq!((deep.len(), opens), (chunks, chunks));
            let header = FRAME_HEADER_LEN as usize;
            assert!(deep.iter().all(|&(off, len)| off == 0 && len > header));
        }
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
        // The manifest this sweep never visits is read before it.
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
            .map(|&(_, off, len, _)| off + len as u64)
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
        assert!(reads.iter().all(|&(_, _, len, _)| len <= WINDOW));
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
        let reads: Vec<_> = reads
            .lock()
            .iter()
            .map(|r| (r.0.clone(), r.1, r.2))
            .collect();
        let head = ("/rank0.img".to_string(), 0, FRAME_HEADER_LEN as usize);
        assert_eq!(reads, [head]);
    }

    /// `n` distinct 4 KiB chunks, the `first`th to the `first + n - 1`th
    /// of up to 256.
    fn distinct(first: usize, n: usize) -> Vec<u8> {
        (first * 4096..(first + n) * 4096)
            .map(|b| ((b % 4096) / 64) as u8 ^ ((b / 4096) as u8).wrapping_mul(37))
            .collect()
    }

    /// Writes one checkpoint of `chunks` distinct 4 KiB chunks on a
    /// dedup mount and seals it: `chunks` content-store files.
    fn populate_cas(backend: &Arc<dyn Backend>, chunks: usize) {
        populate_snap_with(backend, &distinct(0, chunks));
    }

    #[test]
    fn the_default_pool_keeps_a_slow_stores_reads_in_flight() {
        let store = be();
        populate(&store, 160, 4096);
        let (slow, reads, in_flight) = probe_in_flight(&store, Duration::from_millis(2));
        let serial = run(&slow, &["/".to_string()], &opts(1));
        let serial_reads = std::mem::take(&mut *reads.lock()).len();
        assert_eq!(std::mem::take(&mut *in_flight.lock()), (0, 1));
        let sum = run(&slow, &["/".to_string()], &FsckOptions::default());
        assert!(sum.is_clean(), "{sum}");
        assert_eq!((sum.files, sum.frames), (serial.files, serial.frames));
        let seen = reads.lock().len();
        assert!(seen >= 64, "{seen} reads");
        assert_eq!(seen, serial_reads, "the pool changes overlap, not reads");
        let most = in_flight.lock().1;
        println!("fsck: {seen} reads of 2 ms, at most {most} in flight");
        assert!(most >= 6, "at most {most} reads of 2 ms in flight");
    }

    /// Over a store that takes asynchronous reads the manifests go out as
    /// one batch before the sweep, and no sealed chunk is opened, however
    /// many there are: a sweep left no read to wait on keeps one checker
    /// per core and few handles open.
    #[test]
    fn an_async_store_reads_its_manifests_in_one_batch_and_no_chunk() {
        let store = be();
        // Distinct chunks: each opens with its own index.
        let data: Vec<u8> = (0..(READ_BATCH + 40) * 4096)
            .map(|b| match b % 4096 {
                i @ 0..4 => (b / 4096).to_le_bytes()[i],
                i => (i / 64) as u8,
            })
            .collect();
        for _ in 0..3 {
            populate_snap_with(&store, &data);
        }
        let chunks = store.list_dir(CAS_DIR).unwrap().len();
        assert!(chunks > READ_BATCH, "{chunks} chunks");
        let mut probe = Probe::new(&store, Duration::from_millis(2));
        probe.held = held("/.crfs-snap/manifest-", 3, 3);
        let (in_flight, ops) = (Arc::clone(&probe.in_flight), Arc::clone(&probe.ops));
        let (handles, reads) = (Arc::clone(&probe.handles), Arc::clone(&probe.reads));
        let backend: Arc<dyn Backend> = Arc::new(probe);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(run(&backend, &["/".to_string()], &FsckOptions::default()));
        });
        let sum = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the manifests were read one at a time");
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.trusted_payloads, chunks as u64, "{sum}");
        assert_eq!(in_flight.lock().1, 3);
        let read: Vec<String> = reads.lock().iter().map(|r| r.0.clone()).collect();
        assert!(
            read.iter().all(|path| !path.starts_with(CAS_DIR)),
            "{read:?}"
        );
        let most_open = handles.lock().1;
        assert!(most_open <= CHECKER_DEPTH, "{most_open} handles open");
        let ops = ops.lock();
        let opens = ops
            .iter()
            .filter(|op| op.0 == "open" && op.1.starts_with(CAS_DIR));
        assert_eq!(opens.count(), 0);
        let listers = ops.iter().filter(|op| op.0 == "list").map(|op| op.2);
        let checkers: std::collections::HashSet<_> = listers.collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(checkers.len() <= cores, "{} checkers", checkers.len());
    }

    /// A mount reads every retained manifest as one batch.
    #[test]
    fn a_mount_over_an_async_store_reads_its_manifests_in_one_batch() {
        let store = be();
        for _ in 0..3 {
            populate_snap(&store);
        }
        let mut probe = Probe::new(&store, Duration::ZERO);
        probe.held = held("/.crfs-snap/manifest-", 3, 3);
        let in_flight = Arc::clone(&probe.in_flight);
        let backend: Arc<dyn Backend> = Arc::new(probe);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let fs = Crfs::mount(backend, snap_config()).unwrap();
            let _ = tx.send(fs.snapshot_epochs());
            fs.unmount().unwrap();
        });
        let epochs = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the mount read its manifests one at a time");
        assert_eq!(epochs, [0, 1, 2]);
        assert_eq!(in_flight.lock().1, 3);
    }

    /// A checker with nothing to take parks; a push wakes it, and so
    /// does the finish that drains the sweep.
    #[test]
    fn a_parked_checker_wakes_on_a_push_and_on_the_final_drain() {
        let lister = MemBackend::new();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (ran, visited) = std::sync::mpsc::channel::<String>();
        let (held, ran) = (Mutex::new(held), Mutex::new(ran));
        let late = Duration::from_secs(10);
        let visit = |path: &str, _: &mut Checker| {
            if path == "/held" {
                let _ = held.lock().recv_timeout(late);
            }
            ran.lock().send(path.to_string()).unwrap();
        };
        let pool = StealPool::new(&lister, visit, 2, 2);
        // Whether `parked` checkers are parked within ten seconds.
        let parked = |parked: usize| {
            let deadline = Instant::now() + late;
            while pool.jobs.lock().parked != parked {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        };
        pool.push(0, vec!["/held".to_string()]);
        let seen = std::thread::scope(|s| {
            for worker in 0..2 {
                let pool = &pool;
                s.spawn(move || pool.checker(s, worker));
            }
            // One checker holds the only job; the other parks.
            let idle = parked(1);
            pool.push(0, vec!["/pushed".to_string()]);
            let pushed = visited.recv_timeout(late);
            let idle_again = parked(1);
            release.send(()).unwrap();
            let drained = parked(0);
            // Whatever was seen, let a checker left parked see the end.
            drop(pool.jobs.lock());
            pool.idle.notify_all();
            (idle, pushed, idle_again, drained)
        });
        let (idle, pushed, idle_again, drained) = seen;
        assert!(idle && idle_again, "the idle checker never parked");
        assert_eq!(pushed.as_deref(), Ok("/pushed"), "a push left it parked");
        assert!(drained, "the final drain left it parked");
        assert_eq!(pool.jobs.lock().outstanding, 0);
        assert_eq!(visited.try_iter().collect::<Vec<_>>(), ["/held"]);
    }

    /// Reads that cost no wait give another checker nothing to overlap:
    /// a default sweep of a local store stays at one checker per core,
    /// however many files are queued.
    #[test]
    fn a_zero_latency_store_keeps_one_checker_per_core() {
        let store = be();
        populate(&store, 160, 4096);
        let (local, reads) = probe(&store, Duration::ZERO);
        let sum = run(&local, &["/".to_string()], &FsckOptions::default());
        assert!(sum.is_clean(), "{sum}");
        assert_eq!(sum.frame_logs, 160, "{sum}");
        let threads: std::collections::HashSet<_> = reads.lock().iter().map(|r| r.3).collect();
        let (checkers, cores) = (threads.len(), std::thread::available_parallelism());
        let cores = cores.map_or(1, |n| n.get());
        assert!(
            checkers <= cores,
            "{checkers} checkers read on {cores} cores"
        );
    }

    /// `(files, frames, damage, report paths)` of a sweep.
    fn findings(sum: &FsckSummary) -> (u64, u64, DamageCounts, Vec<String>) {
        let paths = sum.reports.iter().map(|r| r.path.clone()).collect();
        (sum.files, sum.frames, sum.damage, paths)
    }

    #[test]
    fn sweeps_of_late_found_directories_end_with_the_serial_answer() {
        let backend = be();
        let fs = Crfs::mount(Arc::clone(&backend), lz()).unwrap();
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
        let mut probe = Probe::new(&store, Duration::ZERO);
        probe.slow = Some(("/ckpt/rank3.img".to_string(), Duration::from_millis(200)));
        let reads = Arc::clone(&probe.reads);
        let held: Arc<dyn Backend> = Arc::new(probe);
        let t0 = Instant::now();
        let sum = run(&held, &["/".to_string()], &FsckOptions::default());
        assert!(t0.elapsed() >= Duration::from_millis(200));
        assert!(sum.is_clean(), "{sum}");
        assert_eq!((sum.files, sum.frame_logs), (6, 6));
        assert!(sum.frames >= 6 * 5, "{sum}");
        assert_eq!(reads.lock().len(), 6);
    }

    // -- tier consistency ---------------------------------------------

    use crate::backend::TieredBackend;

    /// A tiered stack with checkpoints written and drained, then a
    /// stranded suffix: one extra epoch of writes whose drain never
    /// reached the durable tier (simulated by dropping the durable
    /// copy's tail after the fact).
    fn populate_tiered() -> (Arc<dyn Backend>, Arc<dyn Backend>) {
        let fast: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let durable: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let tiered: Arc<dyn Backend> = Arc::new(TieredBackend::from_config(
            Arc::clone(&fast),
            Arc::clone(&durable),
            &CrfsConfig::default(),
        ));
        let fs = Crfs::mount(tiered, lz()).unwrap();
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

    /// A tiered stack whose snapshot store holds `chunks` one-frame
    /// content-store files, sealed, with both tiers drained.
    fn populate_tiered_cas(chunks: usize) -> (Arc<dyn Backend>, Arc<dyn Backend>) {
        let fast: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let durable: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let tiered: Arc<dyn Backend> = Arc::new(TieredBackend::from_config(
            Arc::clone(&fast),
            Arc::clone(&durable),
            &CrfsConfig::default(),
        ));
        populate_cas(&tiered, chunks);
        (fast, durable)
    }

    /// On two tiers the durable tier reads the manifests, before the
    /// sweep, and each file the seal does not vouch for — a manifest's
    /// copy again, for its compare; the fast tier reads each of those
    /// files once, and no tier opens or reads a sealed chunk.
    #[test]
    fn each_tier_copy_is_read_once() {
        let (fast, durable) = populate_tiered_cas(40);
        let (fast, fast_reads) = probe(&fast, Duration::ZERO);
        let (durable, durable_reads) = probe(&durable, Duration::ZERO);
        let sum = run_tiered(&fast, &durable, &["/".to_string()], &repair());
        assert!(sum.is_clean() && sum.damage.is_clean(), "{sum}");
        assert_eq!((sum.frame_logs, sum.trusted_payloads), (41, 40), "{sum}");
        let reads = |log: &ReadLog| -> Vec<String> {
            let mut reads: Vec<_> = log.lock().iter().map(|r| r.0.clone()).collect();
            reads.sort();
            reads
        };
        let (fast, durable) = (reads(&fast_reads), reads(&durable_reads));
        println!(
            "fsck: {} fast and {} durable reads of {} files",
            fast.len(),
            durable.len(),
            sum.files
        );
        let manifest = manifest_path(0);
        assert_eq!(fast, [&*manifest, "/ckpt/rank0.img"]);
        assert_eq!(durable, [&*manifest, &*manifest, "/ckpt/rank0.img"]);
    }

    /// A default pass over one tier or two opens and reads no chunk a
    /// manifest names (on two tiers, a durable one): the listing of the
    /// tier the manifest was read from counts it.
    #[test]
    fn a_default_pass_opens_and_reads_no_chunk_a_manifest_names() {
        let (fast, durable) = populate_tiered_cas(8);
        let chunks = cas_files(&durable);
        let probed = |store: &Arc<dyn Backend>| {
            let probe = Probe::new(store, Duration::ZERO);
            let (reads, ops) = (Arc::clone(&probe.reads), Arc::clone(&probe.ops));
            (Arc::new(probe) as Arc<dyn Backend>, reads, ops)
        };
        // Every open and read of a chunk file the probes saw.
        let touched = |reads: &ReadLog, ops: &OpLog| {
            let opens = ops
                .lock()
                .iter()
                .filter(|op| op.0 == "open")
                .map(|op| op.1.clone())
                .collect::<Vec<_>>();
            let reads = reads.lock().iter().map(|r| r.0.clone()).collect::<Vec<_>>();
            let chunk = |path: &String| chunks.contains(path);
            opens
                .into_iter()
                .chain(reads)
                .filter(chunk)
                .collect::<Vec<_>>()
        };
        let roots = ["/".to_string()];
        let (one, reads, ops) = probed(&durable);
        let sum = run(&one, &roots, &repair());
        assert!(sum.is_clean() && sum.trusted_payloads == 8, "{sum}");
        assert_eq!(touched(&reads, &ops), Vec::<String>::new());
        let (fast, fast_reads, fast_ops) = probed(&fast);
        let (durable, reads, ops) = probed(&durable);
        let sum = run_tiered(&fast, &durable, &roots, &repair());
        assert!(sum.is_clean() && sum.trusted_payloads == 8, "{sum}");
        assert_eq!(touched(&fast_reads, &fast_ops), Vec::<String>::new());
        assert_eq!(touched(&reads, &ops), Vec::<String>::new());
    }

    /// A chunk a durable manifest names has lost its durable copy, its
    /// fast copy kept: the durable listing does not vouch for it, so it
    /// is checked and compared, found stranded and re-drained, and the
    /// durable tier alone then restarts the epoch.
    #[test]
    fn a_sealed_chunk_missing_from_the_durable_tier_is_redrained() {
        let (fast, durable) = populate_tiered_cas(4);
        let victim = cas_files(&durable).remove(1);
        durable.unlink(&victim).unwrap();
        let roots = ["/".to_string()];
        let dry = run_tiered(&fast, &durable, &roots, &opts(1));
        let stranded = DamageCounts {
            tier_stranded: 1,
            ..DamageCounts::default()
        };
        assert_eq!(dry.damage, stranded, "{dry}");
        assert_eq!(dry.reports[0].path, victim, "{dry}");
        assert_eq!(dry.trusted_payloads, 3, "{dry}");
        let fixed = run_tiered(&fast, &durable, &roots, &repair());
        assert!(fixed.is_clean() && fixed.repaired_files == 1, "{fixed}");
        assert!(durable.exists(&victim));
        let after = run_tiered(&fast, &durable, &roots, &opts(1));
        assert!(
            after.damage.is_clean() && after.trusted_payloads == 4,
            "{after}"
        );
        assert_restarts(&durable, &distinct(0, 4));
    }

    /// Mounts `store` (the durable tier alone, or the union view) and
    /// restarts epoch 0's `/ckpt/rank0.img`, which must read `data` byte
    /// for byte.
    fn assert_restarts(store: &Arc<dyn Backend>, data: &[u8]) {
        let fs = Crfs::mount(Arc::clone(store), snap_config()).unwrap();
        let f = fs.open_restart("/ckpt/rank0.img", 0).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(0, &mut back).unwrap(), data.len());
        assert!(back == data && fs.stats().integrity_failures == 0);
        f.close().unwrap();
        fs.unmount().unwrap();
    }

    /// The chunk files of `store`, sorted.
    fn cas_files(store: &Arc<dyn Backend>) -> Vec<String> {
        let names = store.list_dir(CAS_DIR).unwrap();
        names.iter().map(|n| format!("{CAS_DIR}/{n}")).collect()
    }

    /// A manifest whose barrier never finished: the durable tier lacks
    /// it and two of its chunks. It vouches for nothing, so every chunk
    /// is decoded and compared, and the repair re-drains all three.
    #[test]
    fn a_fast_only_manifest_vouches_for_nothing() {
        let (fast, durable) = populate_tiered_cas(4);
        let chunks = cas_files(&fast);
        durable.unlink(&manifest_path(0)).unwrap();
        durable.unlink(&chunks[0]).unwrap();
        let short = durable.open(&chunks[1], OpenOptions::read_write()).unwrap();
        short.set_len(FRAME_HEADER_LEN).unwrap();
        let roots = ["/".to_string()];
        let dry = run_tiered(&fast, &durable, &roots, &opts(1));
        assert_eq!(
            (dry.damage.tier_stranded, dry.trusted_payloads),
            (3, 0),
            "{dry}"
        );
        let fixed = run_tiered(&fast, &durable, &roots, &repair());
        assert!(fixed.is_clean() && fixed.repaired_files == 3, "{fixed}");
        let after = run_tiered(&fast, &durable, &roots, &opts(1));
        assert!(
            after.damage.is_clean() && after.trusted_payloads == 4,
            "{after}"
        );
        assert_restarts(&durable, &distinct(0, 4));
    }

    /// A fast-only manifest names a stranded chunk whose fast copy fails
    /// its digest. The chunk is not re-drained, so neither is the
    /// manifest: the durable tier never vouches for the chunk, and the
    /// next check still reports both.
    #[test]
    fn a_manifest_naming_a_bad_fast_copy_is_not_redrained() {
        let (fast, durable) = populate_tiered_cas(4);
        let victim = cas_files(&fast).remove(0);
        let manifest = manifest_path(0);
        durable.unlink(&manifest).unwrap();
        durable.unlink(&victim).unwrap();
        flip_payload_bit(&fast, &victim);
        let roots = ["/".to_string()];
        let fixed = run_tiered(&fast, &durable, &roots, &repair());
        let report = |sum: &FsckSummary, path: &str| {
            let report = sum.reports.iter().find(|r| r.path == path);
            report
                .unwrap_or_else(|| panic!("{path} unreported: {sum}"))
                .clone()
        };
        let withheld = report(&fixed, &manifest);
        let error = withheld.error.unwrap_or_default();
        assert!(error.contains("withheld") && !withheld.repaired, "{fixed}");
        assert!(!durable.exists(&manifest) && !durable.exists(&victim));
        let after = run_tiered(&fast, &durable, &roots, &opts(1));
        let stranded = DamageCounts {
            tier_stranded: 1,
            ..DamageCounts::default()
        };
        assert_eq!(report(&after, &manifest).damage, stranded, "{after}");
        let bad = DamageCounts {
            bad_payload_checksum: 1,
            ..stranded
        };
        assert_eq!(report(&after, &victim).damage, bad, "{after}");
    }

    /// A stranded manifest is re-drained once every chunk re-drain has
    /// synced, and not at all once one of them failed.
    #[test]
    fn a_repair_redrains_a_manifest_after_the_chunks_it_names() {
        for fail in [false, true] {
            let (fast, durable) = populate_tiered_cas(4);
            let chunks = cas_files(&fast);
            for path in [&manifest_path(0), &chunks[0], &chunks[2]] {
                durable.unlink(path).unwrap();
            }
            let mode = match fail {
                true => crate::backend::FailureMode::FailWritesAfter(1),
                false => crate::backend::FailureMode::None,
            };
            let faulty: Arc<dyn Backend> = Arc::new(crate::backend::FaultyBackend::new(
                Arc::clone(&durable),
                mode,
            ));
            let probe = Probe::new(&faulty, Duration::ZERO);
            let ops = Arc::clone(&probe.ops);
            let logged: Arc<dyn Backend> = Arc::new(probe);
            let fixed = run_tiered(&fast, &logged, &["/".to_string()], &repair());
            let ops: Vec<(&str, String)> =
                ops.lock().iter().map(|op| (op.0, op.1.clone())).collect();
            let manifest = manifest_path(0);
            let written = ops.iter().position(|op| *op == ("write", manifest.clone()));
            let report = fixed.reports.iter().find(|r| r.path == manifest).unwrap();
            if fail {
                assert_eq!(written, None, "{ops:?}");
                let error = report.error.as_deref().unwrap_or_default();
                assert!(error.contains("withheld") && !report.repaired, "{fixed}");
                assert!(!durable.exists(&manifest));
                continue;
            }
            let synced = ops
                .iter()
                .rposition(|op| op.0 == "sync" && op.1 != manifest);
            assert!(synced.is_some() && synced < written, "{ops:?}");
            assert!(fixed.is_clean() && fixed.repaired_files == 3, "{fixed}");
            assert_restarts(&durable, &distinct(0, 4));
        }
    }

    /// A bit flipped in a sealed chunk's fast copy: the default repair
    /// neither opens nor reads it and changes nothing, and a deep one
    /// reports it, leaves the durable copy, the good one, as it was, and
    /// restores the fast copy from it: the union view then restarts
    /// byte-exact and a rescan is clean. With no good copy left on
    /// either tier it only reports.
    #[test]
    fn a_deep_repair_never_spreads_a_bad_fast_copy() {
        let (fast, durable) = populate_tiered_cas(4);
        let victim = cas_files(&fast).remove(0);
        flip_payload_bit(&fast, &victim);
        let before = (tree_of(&fast), tree_of(&durable));
        let (fast_probe, fast_reads) = probe(&fast, Duration::ZERO);
        let (durable_probe, durable_reads) = probe(&durable, Duration::ZERO);
        let roots = ["/".to_string()];
        let sum = run_tiered(&fast_probe, &durable_probe, &roots, &repair());
        assert!(sum.is_clean() && sum.damage.is_clean(), "{sum}");
        let victim_reads = |log: &ReadLog| log.lock().iter().filter(|r| r.0 == victim).count();
        assert_eq!(
            (victim_reads(&fast_reads), victim_reads(&durable_reads)),
            (0, 0)
        );
        assert!((tree_of(&fast), tree_of(&durable)) == before, "{sum}");

        let deep = |repair| FsckOptions {
            payloads: Payloads::All,
            repair,
            ..opts(1)
        };
        let sum = run_tiered(&fast, &durable, &roots, &deep(true));
        let damage = DamageCounts {
            bad_payload_checksum: 1,
            tier_diverged: 1,
            ..DamageCounts::default()
        };
        assert_eq!(sum.damage, damage, "{sum}");
        assert!(
            sum.reports.iter().all(|r| r.path == victim && r.repaired),
            "{sum}"
        );
        assert!(tree_of(&durable) == before.1, "{sum}");
        assert!(tree_of(&fast)[&victim] == before.1[&victim], "{sum}");
        let union: Arc<dyn Backend> = Arc::new(TieredBackend::from_config(
            Arc::clone(&fast),
            Arc::clone(&durable),
            &CrfsConfig::default(),
        ));
        assert_restarts(&union, &distinct(0, 4));
        drop(union);
        for rescan in [opts(1), deep(false)] {
            let sum = run_tiered(&fast, &durable, &roots, &rescan);
            assert!(sum.damage.is_clean() && sum.reports.is_empty(), "{sum}");
        }
        assert_restarts(&durable, &distinct(0, 4));

        // Both copies bad: nothing to restore from, so only reports.
        flip_payload_bit(&fast, &victim);
        flip_payload_bit(&durable, &victim);
        let (fast_was, durable_was) = (tree_of(&fast), tree_of(&durable));
        let sum = run_tiered(&fast, &durable, &roots, &deep(true));
        let bad = DamageCounts {
            tier_diverged: 0,
            ..damage
        };
        assert_eq!(sum.damage, bad, "{sum}");
        assert!(sum.reports.iter().all(|r| !r.repaired), "{sum}");
        assert!((tree_of(&fast), tree_of(&durable)) == (fast_was, durable_was));
    }

    #[test]
    fn the_orphan_pass_wins_over_the_tier_compare() {
        let (fast, durable) = populate_tiered_cas(4);
        // A chunk stored but never sealed nor referenced, caught
        // mid-drain: its durable copy is short.
        let orphan = cas_path((0xfeed_face, 4096));
        for (tier, bytes) in [(&fast, &b"junk-junk"[..]), (&durable, &b"junk"[..])] {
            let f = tier.open(&orphan, OpenOptions::create_truncate()).unwrap();
            f.write_at(0, bytes).unwrap();
        }
        let fixed = run_tiered(&fast, &durable, &["/".to_string()], &repair());
        let orphaned = DamageCounts {
            orphaned_chunks: 1,
            ..DamageCounts::default()
        };
        assert_eq!(fixed.damage, orphaned, "{fixed}");
        assert_eq!(fixed.repaired_files, 1, "the unlink, no re-drain: {fixed}");
        assert_eq!(fixed.reports.len(), 1, "{fixed}");
        assert!(!fast.exists(&orphan) && !durable.exists(&orphan));
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
        let missing = durable.file_len("/ckpt/rank2.img").is_err();
        assert!(missing, "dry run must not re-drain");

        let fixed = run_tiered(&fast, &durable, &["/".to_string()], &repair());
        assert_eq!(fixed.damage.tier_stranded, 2);
        assert_eq!(fixed.repaired_files, 2);
        assert!(fixed.is_clean(), "{fixed}");
        // Both tiers now agree byte-for-byte.
        let after = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert!(after.damage.is_clean(), "{after}");
        let lens = [&durable, &fast].map(|tier| tier.file_len(victim).unwrap());
        assert_eq!(lens[0], lens[1]);
    }

    #[test]
    fn diverged_file_is_detected_and_fast_wins() {
        let (fast, durable) = populate_tiered();
        let victim = "/ckpt/rank0.img";
        // Same length, different bytes: flip one durable byte.
        let b = [flip(&durable, victim, 40, 0xFF)];

        let dry = run_tiered(&fast, &durable, &["/".to_string()], &opts(1));
        assert_eq!(dry.damage.tier_diverged, 1, "{dry}");

        let fixed = run_tiered(&fast, &durable, &["/".to_string()], &repair());
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

        let fixed = run_tiered(&fast, &durable, &["/".to_string()], &repair());
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
        assert_eq!(sum.frame_logs, 3, "the durable-only file is checked");
    }

    // -- snapshot store checks ----------------------------------------

    use crate::snapshot::{cas_path, manifest_path};

    /// Writes one checkpoint file and seals one snapshot epoch, leaving
    /// a manifest plus content-store chunks behind.
    fn populate_snap(backend: &Arc<dyn Backend>) {
        let data: Vec<u8> = (0..20_000).map(|b| (b / 64) as u8).collect();
        populate_snap_with(backend, &data);
    }

    /// The dedup mount of [`populate_snap`].
    fn snap_config() -> CrfsConfig {
        lz().with_dedup(true)
    }

    /// [`populate_snap`] with `data` as the checkpoint file.
    fn populate_snap_with(backend: &Arc<dyn Backend>, data: &[u8]) {
        let fs = Crfs::mount(Arc::clone(backend), snap_config()).unwrap();
        if !backend.exists("/ckpt") {
            fs.mkdir("/ckpt").unwrap();
        }
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
        drop(f);
        let b = flip(&backend, &victim, FRAME_HEADER_LEN, 0x80);
        assert!(b < 128, "an LZ stream opens with literals");

        // Restart: every chunk but the damaged one reads; that one is an
        // integrity error, counted as payload damage, and hands out no
        // byte.
        let fs = Crfs::mount(Arc::clone(&backend), snap_config().with_read_ahead(0)).unwrap();
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
                    let detected = matches!(e, crate::CrfsError::IntegrityError { .. });
                    assert!(detected, "{e:?}");
                    let blank = buf.iter().all(|&b| b == 0 || b == 0xAA);
                    assert!(blank, "bytes of an unverified chunk reached the caller");
                    failed += 1;
                }
            }
        }
        assert_eq!(failed, 1);
        assert_eq!(fs.stats().bad_payload_checksum, 1);
        file.close().unwrap();
        fs.unmount().unwrap();

        // A deep fsck names the same file for the same reason.
        let deep = FsckOptions {
            payloads: Payloads::All,
            ..opts(1)
        };
        let sum = run(&backend, &["/".to_string()], &deep);
        assert_eq!(sum.damage.bad_payload_checksum, 1, "{sum}");
        assert_eq!(sum.reports.len(), 1, "{sum}");
        assert_eq!(sum.reports[0].path, victim);
        // The default pass leaves a sealed chunk's bytes to the seal and
        // to the restart read above, and says so.
        let chunks = backend.list_dir(CAS_DIR).unwrap().len() as u64;
        let sum = run(&backend, &["/".to_string()], &opts(1));
        assert!(sum.is_clean() && sum.damage.is_clean(), "{sum}");
        assert_eq!(sum.trusted_payloads, chunks, "{sum}");
    }

    /// Flips the bits of `mask` in `path`'s byte `at`; returns the byte
    /// it held.
    fn flip(backend: &Arc<dyn Backend>, path: &str, at: u64, mask: u8) -> u8 {
        let f = backend.open(path, OpenOptions::read_write()).unwrap();
        let mut b = [0u8; 1];
        f.read_at(at, &mut b).unwrap();
        f.write_at(at, &[b[0] ^ mask]).unwrap();
        b[0]
    }

    /// Sets one bit in the middle of `path`'s first payload.
    fn flip_payload_bit(backend: &Arc<dyn Backend>, path: &str) {
        let len = backend.file_len(path).unwrap();
        flip(
            backend,
            path,
            FRAME_HEADER_LEN + (len - FRAME_HEADER_LEN) / 2,
            0x10,
        );
    }

    #[test]
    fn only_a_decodable_manifest_vouches_for_a_chunk() {
        let backend = be();
        populate_cas(&backend, 8);
        let chunks: Vec<String> = backend
            .list_dir(CAS_DIR)
            .unwrap()
            .into_iter()
            .map(|name| format!("{CAS_DIR}/{name}"))
            .collect();
        let sweep = |payloads| {
            let sum = run(
                &backend,
                &["/".to_string()],
                &FsckOptions {
                    payloads,
                    ..opts(1)
                },
            );
            (sum.trusted_payloads, sum.damage.bad_payload_checksum)
        };
        let n = chunks.len() as u64;
        // The live log holds REF frames only: every DATA frame is a chunk.
        assert_eq!(sweep(Payloads::Unsealed), (n, 0));
        assert_eq!(sweep(Payloads::All), (0, 0));
        assert_eq!(sweep(Payloads::Skip), (n, 0));

        flip_payload_bit(&backend, &chunks[3]);
        assert_eq!(sweep(Payloads::Unsealed), (n, 0), "sealed: trusted");
        assert_eq!(sweep(Payloads::All), (0, 1));

        // A torn seal vouches for nothing: every chunk is decoded again.
        let f = backend
            .open(&manifest_path(0), OpenOptions::read_write())
            .unwrap();
        f.set_len(f.len().unwrap() - 1).unwrap();
        drop(f);
        let sum = run(&backend, &["/".to_string()], &opts(1));
        assert_eq!(sum.trusted_payloads, 0, "{sum}");
        assert_eq!(sum.damage.bad_payload_checksum, 1, "{sum}");
        assert!(sum.reports.iter().any(|r| r.path == chunks[3]), "{sum}");
    }

    /// Writes a valid frame holding other bytes under `path`: its
    /// header, not the manifest's record, then describes what is stored.
    fn write_other_frame(backend: &Arc<dyn Backend>, path: &str) {
        let other: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let (raw, len) = (crate::transform::codec::STORED_RAW, other.len() as u32);
        let header = FrameHeader::chunk(raw, len, len, payload_digest(&other).check);
        let f = backend.open(path, OpenOptions::create_truncate()).unwrap();
        f.write_at(0, &header.encode()).unwrap();
        f.write_at(FRAME_HEADER_LEN, &other).unwrap();
    }

    /// Every directory (`None`) and file of `store`, by path.
    fn tree_of(store: &Arc<dyn Backend>) -> std::collections::BTreeMap<String, Option<Vec<u8>>> {
        let mut tree = std::collections::BTreeMap::new();
        let mut dirs = vec!["/".to_string()];
        while let Some(dir) = dirs.pop() {
            for name in store.list_dir(&dir).unwrap() {
                let path = format!("{}/{name}", dir.trim_end_matches('/'));
                let bytes = match store.open(&path, OpenOptions::read_only()) {
                    Ok(file) => Some(read_whole(&*file).unwrap()),
                    Err(_) => {
                        dirs.push(path.clone());
                        None
                    }
                };
                tree.insert(path, bytes);
            }
        }
        tree
    }

    /// A copy of every directory and file of `store`.
    fn copy_of(store: &Arc<dyn Backend>) -> Arc<dyn Backend> {
        let copy = be();
        // In path order, so every directory comes before what it holds.
        for (path, bytes) in tree_of(store) {
            match bytes {
                Some(bytes) => {
                    let to = copy.open(&path, OpenOptions::create_truncate()).unwrap();
                    to.write_at(0, &bytes).unwrap();
                }
                None => copy.mkdir(&path).unwrap(),
            }
        }
        copy
    }

    /// Reading the manifests as one batch changes when they are read, not
    /// what a sweep finds or repairs, on a default pass or a deep one.
    #[test]
    fn an_async_store_sweeps_to_the_synchronous_answer() {
        // Two manifests naming the same chunks; then one chunk whose
        // header disagrees with its record, one shorter than a header,
        // one missing, a torn first manifest, an orphan and a torn log.
        let store = be();
        populate_snap(&store);
        populate_snap(&store);
        let mut chunks = store.list_dir(CAS_DIR).unwrap();
        chunks.sort();
        let chunk = |i: usize| format!("{CAS_DIR}/{}", chunks[i]);
        write_other_frame(&store, &chunk(0));
        let short = store.open(&chunk(1), OpenOptions::read_write()).unwrap();
        short.set_len(10).unwrap();
        store.unlink(&chunk(2)).unwrap();
        let torn = store
            .open(&manifest_path(0), OpenOptions::read_write())
            .unwrap();
        torn.write_at(12, &[0xFF]).unwrap();
        let orphan = store.open(
            &cas_path((0xfeed_face, 4096)),
            OpenOptions::create_truncate(),
        );
        orphan.unwrap().write_at(0, b"junk").unwrap();
        let log = store
            .open("/ckpt/rank0.img", OpenOptions::read_write())
            .unwrap();
        log.set_len(log.len().unwrap() - 7).unwrap();
        // A default pass counts the short chunk from the listing; a deep
        // one finds it torn.
        for (payloads, torn) in [(Payloads::Unsealed, 2), (Payloads::All, 3)] {
            for repair in [false, true] {
                let sweep = |is_async: bool| {
                    let mut probe = Probe::new(&copy_of(&store), Duration::ZERO);
                    probe.held = held("/.crfs-snap/manifest-", 2, 2).filter(|_| is_async);
                    let opts = FsckOptions {
                        repair,
                        payloads,
                        ..opts(2)
                    };
                    let backend: Arc<dyn Backend> = Arc::new(probe);
                    let sum = run(&backend, &["/".to_string()], &opts);
                    let totals = (sum.files, sum.frames, sum.trusted_payloads);
                    format!("{totals:?} {:?} {:?}", sum.damage, sum.reports)
                };
                let found = sweep(false);
                assert!(found.contains(&format!("torn_tails: {torn}")), "{found}");
                assert_eq!(sweep(true), found, "{payloads:?}, repair: {repair}");
            }
        }
    }

    #[test]
    fn a_chunk_whose_header_disagrees_with_its_record_is_decoded() {
        let backend = be();
        populate_cas(&backend, 2);
        let victim = backend
            .list_dir(CAS_DIR)
            .unwrap()
            .into_iter()
            .map(|name| format!("{CAS_DIR}/{name}"))
            .next()
            .unwrap();
        write_other_frame(&backend, &victim);
        let deep = FsckOptions {
            payloads: Payloads::All,
            ..opts(1)
        };
        let sum = run(&backend, &["/".to_string()], &deep);
        assert_eq!(sum.trusted_payloads, 0, "{sum}");
        assert!(
            sum.damage.is_clean(),
            "the frame verifies on its own: {sum}"
        );
        // A default pass counts both chunks from the listing.
        let sum = run(&backend, &["/".to_string()], &opts(1));
        assert!(sum.damage.is_clean() && sum.trusted_payloads == 2, "{sum}");
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

        let fixed = run(&backend, &["/".to_string()], &repair());
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

        let sum = run(&backend, &["/".to_string()], &repair());
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
        flip(&backend, &path, 12, 0xFF);

        let dry = run(&backend, &["/".to_string()], &opts(1));
        assert_eq!(dry.manifests, 1);
        let manifests = dry.reports.iter().filter(|r| r.kind == FileKind::Manifest);
        assert_eq!(manifests.count(), 1);
        assert!(backend.file_len(&path).is_ok(), "dry run must not unlink");
        // The live log's REF frames keep the chunks referenced, so the
        // lost manifest must not cascade into chunk reclamation.
        assert_eq!(dry.damage.orphaned_chunks, 0, "{dry}");

        let fixed = run(&backend, &["/".to_string()], &repair());
        assert!(fixed.damage.torn_tails >= 1, "{fixed}");
        assert!(backend.file_len(&path).is_err(), "torn seal is unlinked");
        let after = run(&backend, &["/".to_string()], &opts(1));
        assert!(
            after.is_clean(),
            "manifest gone, referenced chunks kept: {after}"
        );
    }

    /// A sealed chunk was synced before its seal, so no crash tore it:
    /// damage there is damage at rest, which a deep repair reports and
    /// never cuts, and a default one leaves to the restart read. Here a
    /// flipped header byte, on 1 and 4 checkers.
    #[test]
    fn a_repair_never_cuts_a_sealed_chunk() {
        let store = be();
        let data = distinct(0, 5);
        populate_snap_with(&store, &data);
        let victim = format!("{CAS_DIR}/{}", store.list_dir(CAS_DIR).unwrap()[0]);
        flip(&store, &victim, 20, 0xFF);
        let (roots, before) = (["/".to_string()], tree_of(&store));
        let fixed = run(&store, &roots, &repair());
        assert!(
            fixed.damage.is_clean() && tree_of(&store) == before,
            "{fixed}"
        );
        for threads in [1, 4] {
            let deep = |repair| FsckOptions {
                payloads: Payloads::All,
                repair,
                threads,
            };
            let dry = run(&store, &roots, &deep(false));
            assert_eq!(dry.damage.bad_header_crc, 1, "{dry}");
            // The keyed restart read below serves every byte: nothing
            // that names the chunk dangles.
            let refs = (dry.damage.orphaned_refs, dry.damage.dangling_manifest_refs);
            assert_eq!(refs, (0, 0), "{dry}");
            let fixed = run(&store, &roots, &deep(true));
            assert_eq!(fixed.damage, dry.damage, "{threads} checkers");
            let report = fixed.reports.iter().find(|r| r.path == victim);
            assert!(report.is_some_and(|r| !r.repaired), "{fixed}");
            assert!(tree_of(&store) == before, "{threads} checkers: {fixed}");
        }
        // The keyed read takes the chunk's stored length and codec from
        // the reference and checks the digest: the header is not read.
        let fs = Crfs::mount(Arc::clone(&store), snap_config()).unwrap();
        let mut back = vec![0u8; data.len()];
        let f = fs.open("/ckpt/rank0.img").unwrap();
        assert_eq!(f.read_at(0, &mut back).unwrap(), data.len());
        assert!(back == data && fs.stats().integrity_failures == 0);
        f.close().unwrap();
        fs.unmount().unwrap();
    }

    /// A REF frame of another frame format names a chunk by a layout
    /// this build cannot read: it is unverifiable, and the sweep that
    /// meets it counts no orphan chunk and unlinks none.
    #[test]
    fn a_ref_frame_of_another_format_keeps_every_chunk() {
        let store = be();
        populate_snap(&store);
        let orphan = cas_path((0xfeed_face, 4096));
        let f = store.open(&orphan, OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"junk").unwrap();
        // What a format-1 build wrote: the chunk's path in the record.
        let mut record = [0u8; 16].to_vec();
        record.extend_from_slice(orphan.as_bytes());
        let mut header = FrameHeader::chunk(0, 4096, record.len() as u32, 0);
        (header.flags, header.format) = (FLAG_REF, 1);
        let log = store.open("/old.log", OpenOptions::create_truncate());
        let frame = [&header.encode()[..], &record].concat();
        log.unwrap().write_at(0, &frame).unwrap();
        let sum = run(&store, &["/".to_string()], &repair());
        assert_eq!(sum.damage.bad_payload_checksum, 1, "{sum}");
        assert_eq!(sum.damage.orphaned_chunks, 0, "{sum}");
        assert!(store.file_len(&orphan).is_ok(), "{sum}");
    }

    // -- check, then repair -------------------------------------------

    /// A sealed epoch and four live logs of five chunks each, byte 20 of
    /// every chunk header flipped: a repair cuts every unsealed chunk to
    /// nothing, and reports the sealed ones.
    fn populate_flipped() -> Arc<dyn Backend> {
        let store = be();
        populate_snap_with(&store, &distinct(0, 5));
        let fs = Crfs::mount(Arc::clone(&store), snap_config()).unwrap();
        for log in 1..5 {
            let f = fs.create(&format!("/ckpt/live{log}.img")).unwrap();
            f.write(&distinct(log * 5, 5)).unwrap();
            f.close().unwrap();
        }
        fs.unmount().unwrap();
        for name in store.list_dir(CAS_DIR).unwrap() {
            flip(&store, &format!("{CAS_DIR}/{name}"), 20, 0xFF);
        }
        store
    }

    /// What a sweep reports, but for its timings.
    fn report_of(sum: &FsckSummary) -> String {
        let totals = (sum.files, sum.raw_files, sum.frame_logs, sum.manifests);
        let more = (sum.frames, sum.trusted_payloads, sum.repaired_files);
        format!("{totals:?} {more:?} {:?} {:?}", sum.damage, sum.reports)
    }

    /// A default pass finds the 20 unsealed chunks' headers bad, and a
    /// deep one the 5 sealed ones too.
    #[test]
    fn a_repair_reports_and_leaves_the_same_on_any_checker_count() {
        let store = populate_flipped();
        let roots = ["/".to_string()];
        for (payloads, bad_headers) in [(Payloads::Unsealed, 20), (Payloads::All, 25)] {
            let sweep = |repair, threads| FsckOptions {
                repair,
                threads,
                payloads,
            };
            let dry = run(&store, &roots, &sweep(false, 1));
            let refs = |d: DamageCounts| (d.orphaned_refs, d.dangling_manifest_refs);
            // The live logs' 20 REF frames; the sealed chunks, never cut,
            // still hold every byte their records name.
            let found = (refs(dry.damage), dry.damage.bad_header_crc);
            assert_eq!(found, ((20, 0), bad_headers), "{dry}");
            let mut first = None;
            for threads in [1, 2, 4, 16].repeat(3) {
                let copy = copy_of(&store);
                let fixed = run(&copy, &roots, &sweep(true, threads));
                assert_eq!(fixed.damage, dry.damage, "{threads} checkers");
                let rescan = run(&copy, &roots, &sweep(false, threads)).damage;
                assert_eq!(refs(rescan), refs(fixed.damage), "{threads} checkers");
                let got = (report_of(&fixed), tree_of(&copy));
                let first = first.get_or_insert_with(|| got.clone());
                assert!(got == *first, "{threads} checkers: {}", got.0);
            }
        }
    }

    #[test]
    fn a_narrowed_repair_keeps_the_chunks_other_logs_name() {
        let store = be();
        let fs = Crfs::mount(Arc::clone(&store), snap_config()).unwrap();
        fs.mkdir("/ckpt").unwrap();
        for (i, name) in ["/ckpt/a", "/ckpt/b"].into_iter().enumerate() {
            let f = fs.create(name).unwrap();
            f.write(&distinct(i * 5, 5)).unwrap();
            f.close().unwrap();
        }
        fs.unmount().unwrap();
        let chunks = store.list_dir(CAS_DIR).unwrap();
        assert!(run(&store, &["/".to_string()], &opts(1)).damage.is_clean());
        let narrowed = run(&store, &["/ckpt/a".to_string()], &repair());
        assert!(narrowed.damage.is_clean(), "{narrowed}");
        assert_eq!(store.list_dir(CAS_DIR).unwrap(), chunks);
        let fs = Crfs::mount(Arc::clone(&store), snap_config()).unwrap();
        let mut got = vec![0u8; 5 * 4096];
        fs.open("/ckpt/b").unwrap().read_at(0, &mut got).unwrap();
        assert!(got == distinct(5, 5));
        fs.unmount().unwrap();
    }

    #[test]
    fn a_torn_file_stranded_on_two_tiers_gets_one_report() {
        let (fast, durable) = populate_tiered();
        let victim = "/ckpt/rank1.img";
        let len = fast.file_len(victim).unwrap();
        for (tier, keep) in [(&fast, len - 50), (&durable, len / 2)] {
            let f = tier.open(victim, OpenOptions::read_write()).unwrap();
            f.set_len(keep).unwrap();
        }
        let roots = ["/".to_string()];
        for opts in [opts(2), repair()] {
            let sum = run_tiered(&fast, &durable, &roots, &opts);
            assert_eq!(sum.reports.len(), 1, "{sum}");
            let r = &sum.reports[0];
            assert_eq!((r.path.as_str(), r.kind), (victim, FileKind::FrameLog));
            assert_eq!(r.repaired, opts.repair, "{sum}");
            assert_eq!((r.damage.torn_tails, r.damage.tier_stranded), (1, 1));
        }
        let after = run_tiered(&fast, &durable, &roots, &opts(2));
        assert!(after.damage.is_clean() && after.reports.is_empty());
    }

    // -- the plan -----------------------------------------------------

    use Action::{Barrier, Redrain, Restore, Settle, Truncate, Unlink, Withhold};

    /// A resolved finding: `torn` bytes past a clean length of 100.
    fn resolved(kind: FileKind, torn: u64, damaged: fn(&mut DamageCounts)) -> Finding {
        let mut found = finding("/f", kind, Some(100));
        found.report.torn_bytes = torn;
        damaged(&mut found.report.damage);
        found
    }

    /// [`plan`] of one [`resolved`] finding, on one tier and on two.
    fn plans(kind: FileKind, torn: u64, damaged: fn(&mut DamageCounts)) -> [Vec<Action>; 2] {
        let found = [resolved(kind, torn, damaged)];
        [plan(&found, false), plan(&found, true)]
    }

    #[test]
    fn plan_truncates_a_torn_tail_and_compares_it_again_on_two_tiers() {
        let [one, two] = plans(FileKind::FrameLog, 7, |d| d.torn_tails = 1);
        assert_eq!(one, [Truncate(0, 100)]);
        assert_eq!(two, [Truncate(0, 100), Barrier, Redrain(0, true)]);
    }

    #[test]
    fn plan_unlinks_a_torn_manifest() {
        let [one, two] = plans(FileKind::Manifest, 0, |d| d.torn_tails = 1);
        assert_eq!((one, two), (vec![Unlink(0)], vec![Unlink(0), Barrier]));
    }

    #[test]
    fn plan_unlinks_an_orphan_chunk_torn_or_not() {
        let [one, two] = plans(FileKind::FrameLog, 7, |d| d.orphaned_chunks = 1);
        assert_eq!((one, two), (vec![Unlink(0)], vec![Unlink(0), Barrier]));
    }

    #[test]
    fn plan_redrains_a_stranded_file() {
        let [one, two] = plans(FileKind::Raw, 0, |d| d.tier_stranded = 1);
        assert_eq!((one, two), (vec![], vec![Barrier, Redrain(0, false)]));
    }

    #[test]
    fn plan_redrains_a_diverged_file() {
        let [one, two] = plans(FileKind::FrameLog, 0, |d| d.tier_diverged = 1);
        assert_eq!((one, two), (vec![], vec![Barrier, Redrain(0, false)]));
    }

    /// A staging file is no finding (the union view hides it): every
    /// repair of two tiers sweeps for them, a clean one too.
    #[test]
    fn plan_sweeps_staging_files_on_every_repair_of_two_tiers() {
        let [one, two] = plans(FileKind::Raw, 0, |_| {});
        assert!(one.is_empty());
        assert_eq!((two, plan(&[], true)), (vec![Barrier], vec![Barrier]));
    }

    #[test]
    fn plan_unlinks_an_orphan_that_is_also_a_tier_finding_and_drains_nothing() {
        let [one, two] = plans(FileKind::Raw, 0, |d| {
            (d.orphaned_chunks, d.tier_stranded) = (1, 1)
        });
        assert_eq!((one, two), (vec![Unlink(0)], vec![Unlink(0), Barrier]));
    }

    /// A manifest's re-drain runs after every other, and only if they
    /// all returned `Ok`.
    #[test]
    fn plan_redrains_a_manifest_after_every_other_file() {
        let mut found = [
            resolved(FileKind::Manifest, 0, |d| d.tier_stranded = 1),
            resolved(FileKind::FrameLog, 0, |d| d.tier_stranded = 1),
            resolved(FileKind::FrameLog, 7, |d| d.torn_tails = 1),
        ];
        found[0].report.path = manifest_path(3);
        let steps = plan(&found, true);
        assert_eq!(
            steps[1..],
            [
                Barrier,
                Redrain(1, false),
                Redrain(2, true),
                Settle,
                Redrain(0, false)
            ]
        );
        assert_eq!(
            plan(&found[1..], true),
            [
                Truncate(1, 100),
                Barrier,
                Redrain(0, false),
                Redrain(1, true)
            ]
        );
    }

    /// `--deep` fails a fast copy's digest: the durable copy may be the
    /// only good one, so it is not re-drained over.
    #[test]
    fn plan_never_redrains_a_fast_copy_that_failed_its_digest() {
        let [one, two] = plans(FileKind::FrameLog, 0, |d| {
            (d.bad_payload_checksum, d.tier_diverged) = (1, 1)
        });
        assert_eq!((one, two), (vec![], vec![Barrier]));
    }

    /// A fast copy left out for its digest may be a chunk a stranded
    /// manifest names, so that manifest's re-drain is withheld.
    #[test]
    fn plan_withholds_a_manifest_once_a_fast_copy_was_left_out() {
        let mut found = [
            resolved(FileKind::Manifest, 0, |d| d.tier_stranded = 1),
            resolved(FileKind::FrameLog, 0, |d| {
                (d.bad_payload_checksum, d.tier_stranded) = (1, 1)
            }),
            resolved(FileKind::FrameLog, 0, |d| d.tier_stranded = 1),
        ];
        found[0].report.path = manifest_path(3);
        let steps = [Barrier, Redrain(2, false), Settle, Withhold(0)];
        assert_eq!(plan(&found, true), steps);
    }

    #[test]
    fn plan_runs_unlinks_then_truncations_then_the_barrier_and_drains() {
        let found = [
            resolved(FileKind::FrameLog, 0, |d| d.tier_stranded = 1),
            resolved(FileKind::FrameLog, 7, |d| d.torn_tails = 1),
            resolved(FileKind::Raw, 0, |d| d.orphaned_chunks = 1),
            resolved(FileKind::Manifest, 0, |d| d.torn_tails = 1),
        ];
        let steps = plan(&found, true);
        assert_eq!(steps[..3], [Unlink(3), Unlink(2), Truncate(1, 100)]);
        assert_eq!(steps[3..], [Barrier, Redrain(0, false), Redrain(1, true)]);
    }

    /// A sealed chunk's fast copy that failed its check, whose durable
    /// copy verifies, is restored before the barrier and never
    /// re-drained; a manifest that may name it still re-drains.
    #[test]
    fn plan_restores_a_spoilt_sealed_fast_copy_from_its_durable_copy() {
        let mut found = [
            resolved(FileKind::Manifest, 0, |d| d.tier_stranded = 1),
            resolved(FileKind::FrameLog, 0, |d| {
                (d.bad_payload_checksum, d.tier_diverged) = (1, 1)
            }),
        ];
        found[0].report.path = manifest_path(3);
        (found[1].sealed, found[1].restorable) = (true, true);
        let steps = [Restore(1), Barrier, Settle, Redrain(0, false)];
        assert_eq!(plan(&found, true), steps);
        assert_eq!(plan(&found, false), []);
    }

    /// A sealed chunk is never cut, so a torn fast copy of one is not
    /// re-drained either; an unsealed one is cut, then re-drained.
    #[test]
    fn plan_never_redrains_a_torn_sealed_fast_copy() {
        let mut found = [resolved(FileKind::FrameLog, 7, |d| {
            (d.torn_tails, d.tier_stranded) = (1, 1)
        })];
        found[0].sealed = true;
        assert_eq!(plan(&found, true), [Barrier]);
        found[0].sealed = false;
        let steps = [Truncate(0, 100), Barrier, Redrain(0, true)];
        assert_eq!(plan(&found, true), steps);
    }
}
