//! End-to-end round-trip for the `crfs-stat` binary: the `--json`
//! snapshot it emits must be internally consistent — every stage
//! histogram's count/sum must agree with the corresponding monotonic
//! counters recorded at the same instrumentation sites — and both the
//! snapshot and the flight-record JSONL must survive a
//! write-to-file / re-render round trip.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn stat_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crfs-stat"))
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("crfs-stat-bin-{}-{tag}", std::process::id()))
}

fn demo_json() -> Value {
    let out = stat_bin().args(["--demo", "--json"]).output().unwrap();
    assert!(out.status.success(), "crfs-stat --demo --json failed");
    serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap()
}

fn counter(snap: &Value, name: &str) -> u64 {
    snap.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

fn stage(snap: &Value, name: &str, field: &str) -> u64 {
    snap.get("stages")
        .and_then(|s| s.get(name))
        .and_then(|h| h.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stage {name}.{field} missing"))
}

/// The load-bearing identities: histograms record the *exact* value
/// that the summed-ns counters accumulate, at the same sites, so on
/// an obs-enabled mount sum(hist) == counter exactly.
#[test]
fn demo_json_histograms_agree_with_counters() {
    let snap = demo_json();

    // Demo runs clean on the default (threaded) engine.
    assert_eq!(counter(&snap, "chunks_refused"), 0);
    assert_eq!(counter(&snap, "integrity_failures"), 0);

    // pool_wait: counter and histogram live inside the same
    // `!waited.is_zero()` guard — count and sum both match.
    assert_eq!(
        stage(&snap, "pool_wait", "count"),
        counter(&snap, "pool_waits")
    );
    assert_eq!(
        stage(&snap, "pool_wait", "sum"),
        counter(&snap, "pool_wait_ns")
    );

    // barrier_wait: the counter accumulates every barrier (zero waits
    // add zero), the histogram records the non-zero ones — sums match.
    assert_eq!(
        stage(&snap, "barrier_wait", "sum"),
        counter(&snap, "barrier_wait_ns")
    );

    // transform_ns is fed at exactly two sites, encode_chunk and
    // fetch_frame, each of which records the identical span into its
    // stage histogram.
    assert_eq!(
        stage(&snap, "transform_encode", "sum") + stage(&snap, "transform_decode", "sum"),
        counter(&snap, "transform_ns")
    );

    // On the threaded engine every backend write is synchronous and
    // dispatch_chunk times each one into both sinks.
    assert_eq!(
        stage(&snap, "write_sync", "count"),
        counter(&snap, "backend_writes")
    );
    assert_eq!(
        stage(&snap, "write_sync", "sum"),
        counter(&snap, "backend_write_ns")
    );

    // Every sealed chunk passes through dispatch exactly once on a
    // clean threaded run, consuming its seal stamp there.
    assert_eq!(
        stage(&snap, "seal_to_submit", "count"),
        counter(&snap, "chunks_sealed")
    );

    // Read-side service times: one histogram sample per counted hit,
    // and per segment read from the backend directly (a miss or a
    // demand read).
    assert_eq!(
        stage(&snap, "read_hit", "count"),
        counter(&snap, "read_hits")
    );
    assert_eq!(
        stage(&snap, "read_miss", "count"),
        counter(&snap, "read_misses") + counter(&snap, "read_demand")
    );
    // A synchronous store keeps the demo's 2-chunk window.
    assert_eq!(counter(&snap, "read_window_max"), 2);
    assert_eq!(
        stage(&snap, "prefetch_fill", "count"),
        counter(&snap, "prefetch_completed")
    );
    assert_eq!(
        stage(&snap, "snapshot_seal", "count"),
        counter(&snap, "snapshot_manifests")
    );
}

#[test]
fn demo_json_percentiles_are_ordered_and_bounded() {
    let snap = demo_json();
    let stages = match snap.get("stages") {
        Some(Value::Object(pairs)) => pairs.clone(),
        other => panic!("stages not an object: {other:?}"),
    };
    assert!(!stages.is_empty());
    let mut active = 0;
    for (name, h) in &stages {
        let get = |k: &str| {
            h.get(k)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{name}.{k} missing"))
        };
        let (count, sum, max) = (get("count"), get("sum"), get("max"));
        if count == 0 {
            assert_eq!(sum, 0, "{name}: empty histogram with non-zero sum");
            continue;
        }
        active += 1;
        let (p50, p90, p99, p999) = (get("p50"), get("p90"), get("p99"), get("p999"));
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999, "{name} disordered");
        // Bucket-mid estimates sit within the log-bucket error of the
        // exact max; 10% is far looser than the 2^-5 bucket width.
        assert!(
            p999 <= max + max / 10 + 1,
            "{name}: p999 {p999} implausibly above max {max}"
        );
        assert!(sum >= max, "{name}: sum {sum} below max {max}");
        let mean = h
            .get("mean")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name}.mean missing"));
        assert!(mean <= max as f64, "{name}: mean above max");
    }
    assert!(active >= 6, "demo exercised only {active} stages");
}

#[test]
fn snapshot_artifact_file_renders_both_ways() {
    let snap = demo_json();
    let path = temp_file("snap.json");
    std::fs::write(&path, snap.to_string()).unwrap();

    // Pretty mode: human tables with the stage header.
    let out = stat_bin().arg(path.to_str().unwrap()).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("stage latency (us)"),
        "no stage table:\n{text}"
    );
    assert!(text.contains("chunks_sealed"), "no counters:\n{text}");
    assert!(text.contains("flight recorder"), "no flight line:\n{text}");

    // JSON mode re-emits the same snapshot object.
    let out = stat_bin()
        .args(["--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let reparsed: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        reparsed
            .get("counters")
            .and_then(|c| c.get("chunks_sealed")),
        snap.get("counters").and_then(|c| c.get("chunks_sealed"))
    );
    let _ = std::fs::remove_file(&path);
}

/// A BENCH artifact embeds the snapshot under "stats"; crfs-stat finds
/// it there too.
#[test]
fn bench_embedded_snapshot_is_found() {
    let snap = demo_json();
    let path = temp_file("bench.json");
    std::fs::write(
        &path,
        format!("{{\"headline\":{{\"x\":1}},\"stats\":{snap}}}"),
    )
    .unwrap();
    let out = stat_bin().arg(path.to_str().unwrap()).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("stage latency (us)"),
        "embedded snapshot missed:\n{text}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flight_record_decodes_chronologically() {
    let out = stat_bin().args(["--demo", "--flight"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("sealed"), "no sealed events:\n{text}");
    assert!(text.contains("completed"), "no completed events:\n{text}");

    // JSON mode: an array of events with strictly increasing seq.
    let out = stat_bin()
        .args(["--demo", "--flight", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let events = v.as_array().expect("flight json not an array");
    assert!(!events.is_empty());
    let mut last = 0u64;
    for e in events {
        let seq = e.get("seq").and_then(Value::as_u64).unwrap();
        assert!(seq > last, "seq not strictly increasing");
        last = seq;
        assert!(e.get("event").and_then(Value::as_str).is_some());
    }

    // The decoded dump round-trips through a file.
    let path = temp_file("flight.jsonl");
    let raw = stat_bin().args(["--demo", "--flight"]).output().unwrap();
    assert!(raw.status.success());
    // Feed the *JSONL* (regenerate via demo --flight --json is already
    // decoded; use a fresh library dump instead).
    drop(raw);
    let jsonl: String = events.iter().map(|e| e.to_string() + "\n").collect();
    std::fs::write(&path, jsonl).unwrap();
    let out = stat_bin().arg(path.to_str().unwrap()).output().unwrap();
    assert!(out.status.success(), "file-based flight decode failed");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn usage_errors_exit_two() {
    // No input at all.
    let out = stat_bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // --flight without --demo.
    let out = stat_bin().args(["--flight", "x.json"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Unreadable file.
    let out = stat_bin().arg("/nonexistent/x.json").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // A file that is neither artifact kind.
    let path = temp_file("garbage.txt");
    std::fs::write(&path, "not json at all").unwrap();
    let out = stat_bin().arg(path.to_str().unwrap()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(&path);
}
