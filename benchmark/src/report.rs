//! Turns a pass into what gets printed and stored: the human report,
//! the per-workload record (JSON), the span file, and the one-line
//! result the benchmark contract asks for.

use std::path::Path;

use serde_json::{json, Value};

use crate::cycle::Pass;
use crate::host;
use crate::metrics::{self, Budget, Def, Values, END_TO_END, OPS_FAILED_SHARE, PER_LAYER};
use crate::summary::Timing;
use crate::trace;
use crate::workload::RANKS;

/// What identifies a run: commit, inputs and host shape.
pub fn stamp(seed: u64, seconds: f64, data_parent: &Path) -> Value {
    json!({
        "git_rev": host::git_rev(),
        "seed": seed,
        "seconds": seconds,
        "nproc": host::nproc(),
        "ranks": RANKS,
        "data_dir": data_parent.display().to_string(),
        "data_fs": host::fs_type(data_parent),
        "local_direct_available": host::direct_available(data_parent),
        "rustc": host::rustc_version(),
        "caveat": "wall-clock numbers are this sandbox's CPU plus sleep-modelled device time (ThrottledBackend, RpcStore), not a real disk's",
    })
}

fn metric_object(defs: &[Def], values: &Values) -> Value {
    Value::Object(
        defs.iter()
            .map(|d| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not derived", d.name))
                    .1;
                (d.name.to_string(), json!({ "value": v, "unit": d.unit }))
            })
            .collect(),
    )
}

fn timing_value(t: &Timing) -> Value {
    json!({
        "median": t.median,
        "tail_percentile": t.tail.map(|(p, _)| p),
        "tail": t.tail.map(|(_, v)| v),
        "n": t.n,
    })
}

/// The phase timings behind the end-to-end medians, each as median,
/// highest supported percentile and sample count.
fn timings(p: &Pass) -> Vec<(&'static str, &'static str, Timing)> {
    let of = |xs: Vec<f64>| Timing::of(&xs);
    vec![
        ("setup", "s", of(p.setup_s.clone())),
        (
            "epoch_ack",
            "s",
            of(p.epochs.iter().map(|e| e.ack_s).collect()),
        ),
        (
            "epoch_durable",
            "s",
            of(p.epochs.iter().map(|e| e.durable_s).collect()),
        ),
        (
            "recover",
            "s",
            of(p.recovers.iter().map(|r| r.recover_s()).collect()),
        ),
        ("restart_round", "s", of(p.restart_s.clone())),
    ]
}

/// The stored record of one workload pass. `end_to_end` always holds
/// the numbers of an untraced pass: this pass's own, or — for a traced
/// pass — those of `untraced`, the record of the untraced pass that ran
/// just before it.
pub fn record(
    p: &Pass,
    seed: u64,
    seconds: f64,
    data_parent: &Path,
    untraced: Option<&Value>,
) -> Value {
    let e2e = metrics::end_to_end(p);
    let mut all = END_TO_END.to_vec();
    all.push(OPS_FAILED_SHARE);
    let mut rec = vec![
        ("workload".to_string(), json!(p.spec.name)),
        ("why".to_string(), json!(p.spec.why)),
        ("traced".to_string(), json!(p.traced.is_some())),
        ("stamp".to_string(), stamp(seed, seconds, data_parent)),
        ("correct".to_string(), json!(correct(p))),
        ("attempted".to_string(), json!(p.ops.attempted)),
        ("failed".to_string(), json!(p.ops.failed)),
        ("crash_ops_refused".to_string(), json!(p.crash_ops_refused)),
        (
            "wrong_byte_restarts".to_string(),
            json!(p.wrong_byte_restarts),
        ),
        ("wall_s".to_string(), json!(p.wall_s)),
        (
            "counts".to_string(),
            json!({
                "setups": p.setup_s.len(),
                "epochs": p.epochs.len(),
                "recover_cycles": p.recovers.len(),
                "restart_rounds": p.restart_s.len(),
                "logical_mib_per_epoch": p.logical_bytes as f64 / (1u64 << 20) as f64,
                "writes_per_epoch": p.writes_per_epoch,
                "retained_epochs": p.retained_epochs,
                "rank0_blcr_writes": {
                    "tiny_le_64b": p.blcr.tiny_writes,
                    "medium_4k_16k": p.blcr.medium_writes,
                    "huge_gt_1m": p.blcr.huge_writes,
                    "huge_bytes_share": p.blcr.huge_bytes as f64 / p.blcr.bytes.max(1) as f64,
                },
            }),
        ),
        (
            "samples".to_string(),
            json!({
                "setup_s": p.setup_s.clone(),
                "epoch_ack_s": p.epochs.iter().map(|e| e.ack_s).collect::<Vec<_>>(),
                "epoch_durable_s": p.epochs.iter().map(|e| e.durable_s).collect::<Vec<_>>(),
                "epoch_cpu_user_s": p.epochs.iter().map(|e| e.cpu_user_s).collect::<Vec<_>>(),
                "epoch_cpu_sys_s": p.epochs.iter().map(|e| e.cpu_sys_s).collect::<Vec<_>>(),
                "recover_s": p.recovers.iter().map(|r| r.recover_s()).collect::<Vec<_>>(),
                "restart_round_s": p.restart_s.clone(),
            }),
        ),
        (
            "timings".to_string(),
            Value::Object(
                timings(p)
                    .iter()
                    .map(|(name, _, t)| (name.to_string(), timing_value(t)))
                    .collect(),
            ),
        ),
    ];
    match (&p.traced, untraced) {
        (Some(t), Some(u)) => {
            rec.push(("end_to_end".to_string(), u["end_to_end"].clone()));
            let base = u["timings"]["epoch_durable"]["median"]
                .as_f64()
                .unwrap_or(0.0);
            let budget = metrics::budget(t);
            let layers = metrics::per_layer(p, &budget, base, data_parent);
            rec.push(("per_layer".to_string(), metric_object(&PER_LAYER, &layers)));
            rec.push(("budget".to_string(), budget_value(&budget)));
        }
        _ => rec.push(("end_to_end".to_string(), metric_object(&all, &e2e))),
    }
    Value::Object(rec)
}

fn budget_value(b: &Budget) -> Value {
    json!({
        "epoch_wall_ms": b.wall_ms,
        "unaccounted_share": b.unaccounted_share,
        "rows": b.rows.iter().map(|(label, ms, unexplained)| json!({
            "part": *label,
            "ms_per_epoch": *ms,
            "share": if b.wall_ms > 0.0 { ms / b.wall_ms } else { 0.0 },
            "unexplained": *unexplained,
        })).collect::<Vec<_>>(),
    })
}

/// Whether every operation succeeded and every restart verified.
pub fn correct(p: &Pass) -> bool {
    p.ops.failed == 0 && p.wrong_byte_restarts == 0
}

/// The contract's last line: `correct`, `attempted`, `failed` and the
/// metrics of the requested kind, taken from `rec`.
pub fn result_line(rec: &Value, traced: bool) -> String {
    let (key, defs): (&str, &[Def]) = if traced {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    };
    let metrics: Vec<(String, Value)> = defs
        .iter()
        .map(|d| (d.name.to_string(), rec[key][d.name].clone()))
        .collect();
    let line = json!({
        "correct": rec["correct"].clone(),
        "attempted": rec["attempted"].clone(),
        "failed": rec["failed"].clone(),
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).expect("a Value always serializes")
}

/// Prints the human report of a record.
pub fn print(rec: &Value, p: &Pass) {
    let s = &rec["stamp"];
    println!(
        "== {} ({}) ==",
        p.spec.name,
        if p.traced.is_some() {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    println!("   why: {}", p.spec.why);
    println!(
        "   rev {} seed {} nproc {} ranks {} data {} ({}, O_DIRECT {}) {}",
        s["git_rev"].as_str().unwrap_or("?"),
        s["seed"],
        s["nproc"],
        s["ranks"],
        s["data_dir"].as_str().unwrap_or("?"),
        s["data_fs"].as_str().unwrap_or("?"),
        if s["local_direct_available"].as_bool() == Some(true) {
            "yes"
        } else {
            "no"
        },
        s["rustc"].as_str().unwrap_or("?"),
    );
    println!("   note: {}", s["caveat"].as_str().unwrap_or(""));
    let c = &rec["counts"];
    println!(
        "   {} set-ups, {} timed epochs of {:.1} MiB, {} recover cycles, {} restart rounds, {:.1} s wall",
        c["setups"], c["epochs"], c["logical_mib_per_epoch"].as_f64().unwrap_or(0.0),
        c["recover_cycles"], c["restart_rounds"], p.wall_s,
    );
    println!(
        "   end-to-end{}:",
        if p.traced.is_some() {
            " (from the untraced pass)"
        } else {
            ""
        }
    );
    if let Some(obj) = rec["end_to_end"].as_object() {
        for (name, m) in obj {
            println!(
                "     {name:<22} {:>14.6} {}",
                m["value"].as_f64().unwrap_or(0.0),
                m["unit"].as_str().unwrap_or("")
            );
        }
    }
    println!(
        "     attempted {} failed {} crash.ops_refused {} wrong_byte_restarts {}",
        p.ops.attempted, p.ops.failed, p.crash_ops_refused, p.wrong_byte_restarts
    );
    println!("   timings:");
    for (name, unit, t) in timings(p) {
        println!("     {name:<22} {}", t.render(unit));
    }
    if let Some(layers) = rec["per_layer"].as_object() {
        println!("   per-layer:");
        for (name, m) in layers {
            println!(
                "     {name:<40} {:>16.6} {}",
                m["value"].as_f64().unwrap_or(0.0),
                m["unit"].as_str().unwrap_or("")
            );
        }
        let b = &rec["budget"];
        println!(
            "   budget (mean per timed epoch, wall {:.2} ms):",
            b["epoch_wall_ms"].as_f64().unwrap_or(0.0)
        );
        for row in b["rows"].as_array().into_iter().flatten() {
            println!(
                "     {:<42} {:>10.3} ms {:>6.1} %{}",
                row["part"].as_str().unwrap_or(""),
                row["ms_per_epoch"].as_f64().unwrap_or(0.0),
                100.0 * row["share"].as_f64().unwrap_or(0.0),
                if row["unexplained"].as_bool() == Some(true) {
                    "  <- unexplained"
                } else {
                    ""
                }
            );
        }
        println!(
            "     harness.budget_unaccounted_share = {:.4}",
            b["unaccounted_share"].as_f64().unwrap_or(0.0)
        );
    }
}

fn write_text(path: &Path, text: String) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text + "\n")
}

/// Writes `value` pretty-printed to `path`, creating its directory.
pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    write_text(
        path,
        serde_json::to_string_pretty(value).expect("a Value always serializes"),
    )
}

/// Writes the span file of a traced pass (compact: it is large).
pub fn write_spans(path: &Path, p: &Pass) -> std::io::Result<()> {
    let Some(t) = &p.traced else { return Ok(()) };
    write_text(
        path,
        serde_json::to_string(&trace::to_json(p.spec.name, &t.spans))
            .expect("a Value always serializes"),
    )
}
