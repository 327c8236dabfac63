//! `crfs-fsck` — offline check and repair for CRFS stored layouts.
//!
//! Walks a checkpoint directory on the local filesystem, verifies every
//! frame log and snapshot epoch manifest in parallel, classifies damage
//! (torn tail, bad header CRC, bad payload checksum, orphaned dedup
//! reference, orphaned content-store chunk,
//! dangling manifest reference), and — with `--repair`, once the sweep
//! is done — unlinks undecodable (torn-seal) manifests and content-store
//! chunks nothing references, and truncates torn frame-log tails back to
//! the last valid frame. Run it offline only: a live mount's in-flight
//! chunks are registered in memory and would look like orphans.
//!
//! Payloads: by default a content-store chunk a sealed manifest names
//! is counted from the directory listing, neither opened nor read — the
//! seal vouches for its bytes and a restart read verifies them — and
//! every other DATA frame is decoded and digested (`fsck` module docs,
//! "Trust"). `--deep` reads and decodes every one, for an offline audit
//! of bytes at rest; `--no-payloads` decodes none.
//!
//! With `--fast <dir>` the target is a two-tier stack (DESIGN.md §9):
//! `<dir>` is the durable tier, `--fast` the fast tier. The structural
//! sweep runs over the union view and a tier-consistency pass compares
//! every fast-tier file against its durable copy — stranded or diverged
//! files (the crash-during-drain shapes) are reported, and `--repair`
//! re-drains them from the authoritative fast copy and unlinks the
//! promotion staging files a crash left in the fast tier.
//!
//! ```text
//! crfs-fsck [--repair | --dry-run] [--threads N] [--deep | --no-payloads]
//!           [--fast <dir>] [--quiet | --json] <dir>
//! ```
//!
//! Exit status: 0 = clean (or every finding repaired), 1 = damage
//! remains (dry run, unrepairable class, or repair failure), 2 = usage
//! or I/O error.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use crfs_core::backend::{Backend, LocalFileBackend};
use crfs_core::fsck::{run, run_tiered, FsckOptions, Payloads};

struct Args {
    root: String,
    fast: Option<String>,
    opts: FsckOptions,
    quiet: bool,
    json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: crfs-fsck [--repair | --dry-run] [--threads N] [--deep | --no-payloads] \
         [--fast <dir>] [--quiet | --json] <dir>\n\
         \n\
         Checks every CRFS frame log and snapshot manifest under <dir>.\n\
         \n\
           --repair       after the sweep: truncate torn frame-log tails, unlink\n\
                          torn manifests and orphan chunks; with --fast, re-drain\n\
                          stranded/diverged files and unlink staging files\n\
           --dry-run      report only, never mutate (the default)\n\
           --threads N    exactly N checker threads (default: one per core,\n\
                          growing to 16 while queued files outnumber them\n\
                          and their reads, not their checks, take the time)\n\
           --deep         decode + checksum every payload, sealed chunks too\n\
                          (by default a content-store chunk a sealed manifest\n\
                          names is counted from the listing, not read: the\n\
                          seal vouches for it and every restart read verifies it)\n\
           --no-payloads  decode no payload (structural walk only)\n\
           --fast <dir>   treat <dir> as the durable tier of a tiered stack\n\
                          with this fast tier: the same sweep compares each\n\
                          fast copy with its durable copy (stranded/diverged\n\
                          files; --repair re-drains them)\n\
           --quiet        print only the summary line\n\
           --json         emit the machine-readable summary (per-file\n\
                          classification, damage classes, repair actions,\n\
                          per-checker timing)"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        root: String::new(),
        fast: None,
        opts: FsckOptions::default(),
        quiet: false,
        json: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repair" => args.opts.repair = true,
            "--dry-run" => args.opts.repair = false,
            "--deep" => args.opts.payloads = Payloads::All,
            "--no-payloads" => args.opts.payloads = Payloads::Skip,
            "--quiet" => args.quiet = true,
            "--json" => args.json = true,
            "--threads" => args.opts.threads = it.next()?.parse().ok()?,
            "--fast" => args.fast = Some(it.next()?.clone()),
            other if !other.starts_with('-') && args.root.is_empty() => {
                args.root = other.to_string();
            }
            _ => return None,
        }
    }
    if args.root.is_empty() || (args.quiet && args.json) {
        return None;
    }
    Some(args)
}

fn open_dir(path: &str) -> Result<Arc<dyn Backend>, ExitCode> {
    match LocalFileBackend::new(path) {
        Ok(b) => Ok(Arc::new(b)),
        Err(e) => {
            eprintln!("crfs-fsck: cannot open {path}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&argv) else {
        return usage();
    };
    let durable = match open_dir(&args.root) {
        Ok(b) => b,
        Err(code) => return code,
    };
    // Backends are rooted at the target directories; sweep their roots.
    let roots = ["/".to_string()];
    let summary = match &args.fast {
        Some(fast_dir) => {
            let fast = match open_dir(fast_dir) {
                Ok(b) => b,
                Err(code) => return code,
            };
            run_tiered(&fast, &durable, &roots, &args.opts)
        }
        None => run(&durable, &roots, &args.opts),
    };
    if args.json {
        println!("{}", summary.to_json_pretty());
    } else if args.quiet {
        println!(
            "files={} frames={} trusted_payloads={} torn_tails={} bad_header_crc={} bad_payload_checksum={} \
             orphaned_refs={} orphaned_chunks={} dangling_manifest_refs={} \
             tier_stranded={} tier_diverged={} repaired={} elapsed_ms={}",
            summary.files,
            summary.frames,
            summary.trusted_payloads,
            summary.damage.torn_tails,
            summary.damage.bad_header_crc,
            summary.damage.bad_payload_checksum,
            summary.damage.orphaned_refs,
            summary.damage.orphaned_chunks,
            summary.damage.dangling_manifest_refs,
            summary.damage.tier_stranded,
            summary.damage.tier_diverged,
            summary.repaired_files,
            summary.elapsed.as_millis()
        );
    } else {
        println!("{summary}");
    }
    if summary.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
