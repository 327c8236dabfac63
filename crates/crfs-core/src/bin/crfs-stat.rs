//! `crfs-stat` — inspector for CRFS observability artifacts.
//!
//! Renders the two artifact kinds the observability layer produces:
//!
//! * **Stats snapshots** — the JSON emitted by
//!   [`StatsSnapshot::to_json_pretty`](crfs_core::stats::StatsSnapshot),
//!   either standalone or embedded under a `"stats"` key inside a
//!   BENCH artifact. Pretty-prints the counters, derived ratios and the
//!   per-stage latency percentile table — including the tiered-backend
//!   drain stages (`drain_copy`/`drain_wait`/`tier_promote`). `--json`
//!   re-emits the normalized snapshot object.
//! * **Flight records** — the JSONL dumped by the per-mount flight
//!   recorder (on `IntegrityError`, unmount with a configured dump
//!   path, or `Crfs::flight_record_jsonl`). Decodes each event line and
//!   prints a chronological table; `--json` emits the events as one
//!   JSON array.
//!
//! The artifact kind is detected from content, not the file name: a
//! line stream whose objects carry `"seq"`/`"event"` is a flight
//! record, an object carrying `"counters"` (at top level or under
//! `"stats"`) is a snapshot.
//!
//! `--demo` mounts an in-memory CRFS, runs a small mixed workload
//! (framed writes, rewrites, reads, fsync, snapshot seal, unmount) and
//! prints the mount's final snapshot — a hermetic way to see a live
//! snapshot end-to-end and the target the round-trip integration test
//! drives.
//!
//! ```text
//! crfs-stat [--json] <artifact>...
//! crfs-stat [--json] [--flight] --demo
//! ```
//!
//! Exit status: 0 = rendered, 2 = usage or unreadable/unrecognized
//! input.

use std::process::ExitCode;
use std::sync::Arc;

use crfs_core::backend::MemBackend;
use crfs_core::{CodecKind, Crfs, CrfsConfig};
use serde_json::Value;

struct Args {
    json: bool,
    demo: bool,
    flight: bool,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: crfs-stat [--json] <artifact>...\n\
         \x20      crfs-stat [--json] [--flight] --demo\n\
         \n\
         Renders CRFS observability artifacts: stats snapshots (JSON,\n\
         standalone or embedded in a BENCH file under \"stats\") and\n\
         flight-record dumps (JSONL).\n\
         \n\
           --json     emit normalized JSON instead of the human tables\n\
           --demo     mount an in-memory CRFS, run a demo workload and\n\
                      print its final snapshot\n\
           --flight   with --demo: print the flight record instead of\n\
                      the snapshot"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        json: false,
        demo: false,
        flight: false,
        files: Vec::new(),
    };
    for a in argv {
        match a.as_str() {
            "--json" => args.json = true,
            "--demo" => args.demo = true,
            "--flight" => args.flight = true,
            other if !other.starts_with('-') => args.files.push(other.to_string()),
            _ => return None,
        }
    }
    // Exactly one input source: --demo, or at least one artifact file.
    if args.demo != args.files.is_empty() {
        return None;
    }
    if args.flight && !args.demo {
        return None;
    }
    Some(args)
}

// ---------------------------------------------------------------------
// Snapshot rendering (from parsed JSON, so it works on any artifact)
// ---------------------------------------------------------------------

/// Finds the snapshot object: the value itself, or its `"stats"` child
/// (the shape BENCH artifacts embed).
fn find_snapshot(v: &Value) -> Option<&Value> {
    if v.get("counters").is_some() {
        return Some(v);
    }
    let nested = v.get("stats")?;
    nested.get("counters").is_some().then_some(nested)
}

fn fmt_u64(v: &Value) -> String {
    match v.as_u64() {
        Some(n) => n.to_string(),
        None => v
            .as_f64()
            .map(|f| format!("{f:.3}"))
            .unwrap_or_else(|| "?".to_string()),
    }
}

fn render_snapshot(snap: &Value) -> String {
    let mut out = String::new();
    for section in ["counters", "gauges", "derived"] {
        let Some(Value::Object(pairs)) = snap.get(section) else {
            continue;
        };
        out.push_str(section);
        out.push('\n');
        for (k, v) in pairs {
            out.push_str(&format!("  {k:<28} {}\n", fmt_u64(v)));
        }
    }
    if let Some(Value::Object(stages)) = snap.get("stages") {
        let active: Vec<_> = stages
            .iter()
            .filter(|(_, h)| h.get("count").and_then(Value::as_u64).unwrap_or(0) > 0)
            .collect();
        if !active.is_empty() {
            out.push_str(
                "stage latency (us)           count        p50        p90        p99       p999        max\n",
            );
            for (name, h) in active {
                let us = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0) as f64 / 1_000.0;
                out.push_str(&format!(
                    "  {name:<24} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                    h.get("count").and_then(Value::as_u64).unwrap_or(0),
                    us("p50"),
                    us("p90"),
                    us("p99"),
                    us("p999"),
                    us("max"),
                ));
            }
        }
    }
    if let Some(n) = snap.get("flight_events").and_then(Value::as_u64) {
        out.push_str(&format!(
            "flight recorder              {n} events recorded\n"
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Flight-record rendering
// ---------------------------------------------------------------------

/// Parses a flight-record JSONL dump into its event objects. Returns
/// `None` when any non-empty line is not a flight event.
fn parse_flight(content: &str) -> Option<Vec<Value>> {
    let mut events = Vec::new();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).ok()?;
        if v.get("seq").is_none() || v.get("event").is_none() {
            return None;
        }
        events.push(v);
    }
    Some(events)
}

fn render_flight(events: &[Value]) -> String {
    let mut out = String::new();
    out.push_str("     seq       t_us event            file                             detail\n");
    for e in events {
        let seq = e.get("seq").and_then(Value::as_u64).unwrap_or(0);
        let t_us = e.get("t_us").and_then(Value::as_f64).unwrap_or(0.0);
        let kind = e.get("event").and_then(Value::as_str).unwrap_or("?");
        let file = e.get("file").and_then(Value::as_str).unwrap_or("-");
        // The two payload words are self-describing: whatever keys are
        // not seq/t_us/event/file.
        let mut detail = String::new();
        if let Value::Object(pairs) = e {
            for (k, v) in pairs {
                if matches!(k.as_str(), "seq" | "t_us" | "event" | "file") {
                    continue;
                }
                if !detail.is_empty() {
                    detail.push(' ');
                }
                detail.push_str(&format!("{k}={}", fmt_u64(v)));
            }
        }
        out.push_str(&format!(
            "{seq:>8} {t_us:>10.1} {kind:<16} {file:<32} {detail}\n"
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Demo workload
// ---------------------------------------------------------------------

/// Mounts an in-memory CRFS and exercises every major pipeline stage:
/// framed + dedup'd writes (transform encode), a barrier'd fsync,
/// rewinds and reads (decode, hit and miss), a snapshot seal, and an
/// unmount. Returns (snapshot JSON, flight JSONL).
fn demo() -> Result<(String, String), crfs_core::CrfsError> {
    let config = CrfsConfig::default()
        .with_chunk_size(16 * 1024)
        .with_pool_size(64 * 16 * 1024)
        .with_codec(CodecKind::Rle)
        .with_dedup(true)
        .with_snapshots(true)
        .with_read_ahead(2);
    let fs = Crfs::mount(Arc::new(MemBackend::new()), config)?;
    fs.mkdir_all("/ckpt")?;
    let payload: Vec<u8> = (0..48 * 1024).map(|i| (i / 700) as u8).collect();
    for rank in 0..4 {
        let f = fs.create(&format!("/ckpt/rank{rank}.dat"))?;
        f.write(&payload)?;
        f.write(&payload)?; // second lap dedups against the first
        f.fsync()?;
        f.close()?;
    }
    fs.advance_epoch()?;
    for rank in 0..4 {
        let f = fs.open(&format!("/ckpt/rank{rank}.dat"))?;
        let mut buf = vec![0u8; 32 * 1024];
        f.read_at(0, &mut buf)?;
        f.read_at(48 * 1024, &mut buf)?;
        f.close()?;
    }
    let _ = fs.snapshot_gc();
    let flight = fs.flight_record_jsonl();
    fs.unmount()?;
    Ok((fs.stats().to_json_pretty(), flight))
}

// ---------------------------------------------------------------------

fn render_artifact(content: &str, json: bool) -> Option<String> {
    if let Some(events) = parse_flight(content) {
        if !events.is_empty() {
            return Some(if json {
                serde_json::to_string_pretty(&Value::Array(events)).expect("infallible")
            } else {
                render_flight(&events)
            });
        }
    }
    let v: Value = serde_json::from_str(content).ok()?;
    let snap = find_snapshot(&v)?;
    Some(if json {
        serde_json::to_string_pretty(snap).expect("infallible")
    } else {
        render_snapshot(snap)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&argv) else {
        return usage();
    };
    if args.demo {
        match demo() {
            Ok((snap_json, flight_jsonl)) => {
                if args.flight {
                    match render_artifact(&flight_jsonl, args.json) {
                        Some(out) => print!("{out}"),
                        None => println!("(flight record empty)"),
                    }
                } else if args.json {
                    println!("{snap_json}");
                } else {
                    match render_artifact(&snap_json, false) {
                        Some(out) => print!("{out}"),
                        None => {
                            eprintln!("crfs-stat: demo snapshot did not render");
                            return ExitCode::from(2);
                        }
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("crfs-stat: demo workload failed: {e}");
                ExitCode::from(2)
            }
        }
    } else {
        for path in &args.files {
            let content = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("crfs-stat: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match render_artifact(&content, args.json) {
                Some(out) => {
                    if args.files.len() > 1 {
                        println!("== {path}");
                    }
                    print!("{out}");
                }
                None => {
                    eprintln!("crfs-stat: {path}: neither a stats snapshot nor a flight record");
                    return ExitCode::from(2);
                }
            }
        }
        ExitCode::SUCCESS
    }
}
