//! Completeness shape-checks for the observability surface: every
//! `AtomicU64` counter declared on `CrfsStats` must be copied into
//! `StatsSnapshot::snapshot()`, listed in the canonical
//! `StatsSnapshot::counters()` table, emitted by the JSON serializer,
//! and represented in the human `Display` render. The counter names
//! are scraped from the crate source, so adding a counter without
//! threading it through the whole reporting surface fails this test
//! rather than silently dropping the stat.

use crfs_core::backend::{Backend, LocalFileBackend, MemBackend};
use crfs_core::stats::{CrfsStats, StatsSnapshot};
use crfs_core::{Crfs, CrfsConfig};
use serde_json::Value;
use std::sync::Arc;

fn stats_source() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/stats.rs");
    std::fs::read_to_string(path).expect("read src/stats.rs")
}

/// Every `pub name: AtomicU64` field declared on the `CrfsStats`
/// struct, in declaration order.
fn atomic_counter_fields(src: &str) -> Vec<String> {
    let struct_start = src
        .find("pub struct CrfsStats {")
        .expect("CrfsStats struct not found in src/stats.rs");
    let body = &src[struct_start..];
    let mut names = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line == "}" {
            break;
        }
        if let Some(rest) = line.strip_prefix("pub ") {
            if let Some(name) = rest.strip_suffix(": AtomicU64,") {
                names.push(name.to_string());
            }
        }
    }
    assert!(
        names.len() >= 40,
        "scraped only {} atomic counters — parser out of sync with source",
        names.len()
    );
    names
}

/// `snapshot()` must read every atomic: each scraped field name appears
/// in the snapshot constructor as a `.load(` or `Duration::from_nanos`
/// copy. A counter declared but never copied is dead weight that every
/// report would silently miss.
#[test]
fn snapshot_copies_every_atomic() {
    let src = stats_source();
    let fields = atomic_counter_fields(&src);
    let body_start = src.find("pub fn snapshot(").expect("snapshot() not found");
    // The constructor ends at the next `pub fn` or the impl close;
    // taking a generous slice is fine for a containment check.
    let body = &src[body_start..body_start + 4_000.min(src.len() - body_start)];
    for name in &fields {
        let loads = format!("self.{name}.load(");
        assert!(
            body.contains(&loads),
            "CrfsStats::{name} is never read by snapshot() — the stat is lost"
        );
    }
}

/// `counters()` is the canonical list: its names must match the
/// scraped atomic field set exactly, in both directions.
#[test]
fn counters_list_matches_struct_fields() {
    let fields = atomic_counter_fields(&stats_source());
    let snap = CrfsStats::new().snapshot();
    let listed: Vec<&str> = snap.counters().iter().map(|(n, _)| *n).collect();
    for name in &fields {
        assert!(
            listed.contains(&name.as_str()),
            "CrfsStats::{name} missing from StatsSnapshot::counters()"
        );
    }
    for name in &listed {
        assert!(
            fields.iter().any(|f| f == name),
            "counters() lists {name:?} which is not a CrfsStats atomic"
        );
    }
    assert_eq!(listed.len(), fields.len(), "duplicate counter names");
}

/// The JSON serializer must emit every counter under `"counters"`,
/// every stage under `"stages"`, and the gauge/derived/flight sections.
#[test]
fn json_serializer_emits_every_counter_and_stage() {
    let fields = atomic_counter_fields(&stats_source());
    let snap = CrfsStats::new().snapshot();
    let v = snap.to_value();

    let Some(Value::Object(counters)) = v.get("counters") else {
        panic!("to_value() has no counters object");
    };
    let keys: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    for name in &fields {
        assert!(
            keys.contains(&name.as_str()),
            "JSON counters missing {name}"
        );
    }
    assert_eq!(keys.len(), fields.len(), "JSON counters has extra keys");

    let Some(Value::Object(stages)) = v.get("stages") else {
        panic!("to_value() has no stages object");
    };
    for (name, _) in snap.stages.named() {
        assert!(
            stages.iter().any(|(k, _)| k == name),
            "JSON stages missing {name}"
        );
    }
    assert_eq!(stages.len(), snap.stages.named().len());

    for section in ["gauges", "derived"] {
        assert!(
            matches!(v.get(section), Some(Value::Object(_))),
            "to_value() missing {section} object"
        );
    }
    assert!(v.get("flight_events").is_some(), "flight_events missing");
}

/// Maps each counter to the `Display` line that carries it — either
/// its raw value or a derived form (`completion_reaped` surfaces as
/// the avg-reap ratio, `read_hits`/`read_misses` also feed the hit
/// rate). Exhaustive over the scraped field set: a new counter fails
/// here until it is given a witness, which forces the author to also
/// put it somewhere in the human render.
fn display_witness(name: &str) -> &'static str {
    match name {
        "writes" | "bytes_in" => "writes in",
        "bytes_copied" => "copies/byte",
        "chunks_sealed" | "bytes_out" | "partial_seals" | "discontinuity_seals" => "chunks out",
        "backend_writes" | "chunks_refused" => "backend ops",
        "chunks_completed" => "chunks completed",
        "pool_waits" | "pool_wait_ns" => "pool waits",
        "backend_write_ns" => "backend write time",
        "barrier_wait_ns" => "barrier wait",
        "opens" => "opens",
        "closes" => "closes",
        "fsyncs" => "fsyncs",
        "shard_lock_waits" => "shard waits",
        "engine_submits" => "submits:",
        "reads" | "bytes_read" => "reads:",
        "read_hits" => "cache hits",
        "read_misses" => "misses",
        "read_demand" => "demand",
        "read_window_max" => "window max",
        "prefetch_issued" | "prefetch_completed" | "prefetch_wasted" => "prefetch",
        "bytes_logical" | "bytes_stored" => "stored",
        "dedup_hits" => "dedup hits",
        "integrity_failures" => "integrity failures",
        "transform_ns" => "in codec",
        "torn_tails" => "torn tails",
        "bad_header_crc" => "bad header CRC",
        "bad_payload_checksum" => "bad payload checksum",
        "ops_inflight" | "inflight_hwm" => "inflight:",
        "completion_reaps" => "reaps:",
        "completion_reaped" => "avg reap",
        "snapshot_manifests" => "manifests sealed",
        "snapshot_chunks" | "snapshot_bytes" => "CAS chunks",
        "gc_reclaimed_chunks" | "gc_reclaimed_bytes" => "GC reclaimed",
        other => panic!("CrfsStats::{other} has no Display witness — add it to the human render"),
    }
}

/// The human render, with its conditional sections forced on, must
/// contain the witness line for every counter.
#[test]
fn human_render_represents_every_counter() {
    let fields = atomic_counter_fields(&stats_source());
    // Force the conditional transform / snapshot / damage sections.
    let snap = StatsSnapshot {
        bytes_stored: 1,
        snapshot_manifests: 1,
        torn_tails: 1,
        ..Default::default()
    };
    let text = snap.to_string();
    for name in &fields {
        let witness = display_witness(name);
        assert!(
            text.contains(witness),
            "Display render lost the {name} line (expected {witness:?}):\n{text}"
        );
    }
}

/// The conditional sections really are conditional: a zeroed snapshot
/// renders without them, so quiet mounts stay terse.
#[test]
fn human_render_elides_idle_sections() {
    let text = StatsSnapshot::default().to_string();
    assert!(!text.contains("in codec"), "transform line on idle mount");
    assert!(
        !text.contains("manifests sealed"),
        "snapshot line on idle mount"
    );
    assert!(!text.contains("torn tails"), "damage line on idle mount");
    assert!(!text.contains("stage latency"), "stage table on idle mount");
}

/// Every `pub name: u64` count declared on `FsckSummary`.
fn fsck_summary_counts() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/fsck.rs");
    let src = std::fs::read_to_string(path).expect("read src/fsck.rs");
    let start = src
        .find("pub struct FsckSummary {")
        .expect("FsckSummary struct not found in src/fsck.rs");
    let names: Vec<String> = src[start..]
        .lines()
        .take_while(|line| line.trim() != "}")
        .filter_map(|line| line.trim().strip_prefix("pub ")?.strip_suffix(": u64,"))
        .map(str::to_string)
        .collect();
    assert!(names.len() >= 7, "scraped {names:?}: parser out of sync");
    names
}

/// The line of `FsckSummary`'s `Display` that carries each count.
fn fsck_witness(name: &str) -> &'static str {
    match name {
        "files" => "checked",
        "raw_files" => "raw (",
        "frame_logs" => "frame logs",
        "manifests" => "manifests",
        "frames" => "frames walked",
        "trusted_payloads" => "payloads trusted",
        "repaired_files" => "files repaired",
        other => panic!("FsckSummary::{other} has no Display witness — add it to the human render"),
    }
}

/// Every count of an fsck sweep reaches its JSON and its human render,
/// the damage line included: a sweep that trusted sealed payloads says
/// so in both.
#[test]
fn fsck_summary_reports_every_count() {
    use crfs_core::backend::OpenOptions;
    use crfs_core::fsck::{self, FsckOptions};
    use crfs_core::CodecKind;
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let config = CrfsConfig::default()
        .with_chunk_size(4096)
        .with_pool_size(64 << 10)
        .with_codec(CodecKind::Lz)
        .with_dedup(true);
    let fs = Crfs::mount(Arc::clone(&backend), config).unwrap();
    let f = fs.create("/ckpt").unwrap();
    f.write(&(0..5 * 4096).map(|i| (i / 64) as u8).collect::<Vec<_>>())
        .unwrap();
    f.close().unwrap();
    fs.advance_epoch().unwrap();
    fs.unmount().unwrap();
    // A torn live log, so the damage line renders too.
    let log = backend.open("/ckpt", OpenOptions::read_write()).unwrap();
    log.set_len(log.len().unwrap() - 7).unwrap();
    drop(log);

    let sum = fsck::run(&backend, &["/".to_string()], &FsckOptions::default());
    assert!(
        sum.trusted_payloads > 0 && sum.damage.torn_tails == 1,
        "{sum}"
    );
    let (json, text) = (sum.to_value(), sum.to_string());
    for name in fsck_summary_counts() {
        assert!(json.get(&name).is_some(), "JSON lost FsckSummary::{name}");
        let witness = fsck_witness(&name);
        assert!(
            text.contains(witness),
            "Display lost FsckSummary::{name} (expected {witness:?}):\n{text}"
        );
    }
}

/// The paper's data path copies each byte once — user buffer → pool
/// chunk — and the chunk is the IO buffer. On a raw mount `bytes_copied`
/// says so exactly, whatever the write sizes and whichever backend.
#[test]
fn raw_mount_copies_each_logical_byte_exactly_once() {
    let dir = std::env::temp_dir().join(format!("crfs-copies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backends: [Arc<dyn Backend>; 2] = [
        Arc::new(LocalFileBackend::new(&dir).unwrap()),
        Arc::new(MemBackend::new()),
    ];
    for backend in backends {
        let config = CrfsConfig::default()
            .with_chunk_size(64 << 10)
            .with_pool_size(1 << 20);
        let fs = Crfs::mount(backend, config).unwrap();
        let f = fs.create("/ckpt").unwrap();
        for len in [1usize, 4096, 100_000, (64 << 10) + 1, 300_000] {
            f.write(&vec![len as u8; len]).unwrap();
        }
        f.close().unwrap();
        let snap = fs.stats();
        assert_eq!(snap.bytes_copied, snap.bytes_in);
        assert_eq!(snap.copies_per_byte(), 1.0);
        assert_eq!(snap.bytes_out, snap.bytes_in);
        fs.unmount().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
