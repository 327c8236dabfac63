//! End-to-end checkpoint/restart benchmark for the CRFS reproduction.
//!
//! ```text
//! crfs-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!                    [--repeat K] [--data-dir DIR] [--out FILE]
//! crfs-benchmark compare BASE.json NEW.json
//! ```
//!
//! `run` without `--workload` runs the four workloads, each in a child
//! process of its own, and writes `benchmark/out/result.json`. With
//! `--workload` it runs that one in this process and prints, as the last
//! line of standard output, the one-line JSON result the benchmark
//! contract (`../BENCHMARK.json`) asks for. A traced run first runs the
//! untraced pass in a child process, so end-to-end numbers never come
//! from a pass that records spans. See `README.md`.

mod compare;
mod cycle;
mod gen;
mod host;
mod metrics;
mod probes;
mod report;
mod summary;
mod tap;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;

use serde_json::{json, Value};

use workload::{Spec, WORKLOADS};

const USAGE: &str = "usage:
  crfs-benchmark run [--workload full_cycle|raw_aggregate|slow_durable|cold_restart]
                     [--seed N] [--seconds S] [--trace [0|1]] [--repeat K]
                     [--data-dir DIR] [--out FILE]
  crfs-benchmark compare BASE.json NEW.json";

/// Default `--seconds`; `../BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 10.0;

struct RunArgs {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    data_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        data_dir: host::out_dir().join("data"),
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                r.workload = Some(
                    workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                r.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                r.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                r.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&r.repeat) {
                    return Err("--repeat must be in 1..=100".into());
                }
            }
            "--data-dir" => r.data_dir = PathBuf::from(value("a directory")?),
            "--out" => r.out = Some(PathBuf::from(value("a file")?)),
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                r.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(r)
}

/// Where the record of one workload pass is stored.
fn record_path(spec: &Spec, traced: bool) -> PathBuf {
    let suffix = if traced { "-traced" } else { "" };
    host::out_dir().join(format!("{}{suffix}.json", spec.name))
}

/// Re-runs this program on one workload in a child process and returns
/// whether it succeeded. The child writes its record to
/// `record_path(spec, traced)`.
fn spawn_run(spec: &Spec, a: &RunArgs, seed: u64, traced: bool, quiet: bool) -> bool {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(&a.data_dir);
    if quiet {
        cmd.stdout(Stdio::null());
    }
    // `status` waits for the child to end.
    cmd.status().is_ok_and(|s| s.success())
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. Returns whether it was correct.
fn run_one(spec: &'static Spec, a: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&a.data_dir).map_err(|e| format!("{}: {e}", a.data_dir.display()))?;
    let untraced = if a.trace {
        // End-to-end numbers come from a pass without spans or taps, in a
        // process of its own so its memory and CPU are its own.
        if !spawn_run(spec, a, a.seed, false, true) {
            return Err(format!("untraced pass of {} failed", spec.name));
        }
        Some(read_json(&record_path(spec, false))?)
    } else {
        None
    };
    let tracer = a.trace.then(|| Arc::new(trace::Tracer::default()));
    let pass = cycle::run_pass(spec, a.seed, a.seconds, &a.data_dir, tracer);
    let rec = report::record(&pass, a.seed, a.seconds, &a.data_dir, untraced.as_ref());
    let io = |e: std::io::Error| format!("writing results: {e}");
    let path = a.out.clone().unwrap_or_else(|| record_path(spec, a.trace));
    report::write_json(&path, &rec).map_err(io)?;
    if a.trace {
        report::write_spans(
            &host::out_dir().join(format!("trace-{}.json", spec.name)),
            &pass,
        )
        .map_err(io)?;
    }
    report::print(&rec, &pass);
    let ok =
        report::correct(&pass) && untraced.is_none_or(|u| u["correct"].as_bool() == Some(true));
    println!("{}", report::result_line(&rec, a.trace));
    Ok(ok)
}

/// Every workload, each in a child process, `repeat` times over.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut ok = true;
    for i in 0..a.repeat {
        let seed = a.seed + i;
        let mut by_workload = Vec::new();
        for spec in &WORKLOADS {
            ok &= spawn_run(spec, a, seed, a.trace, false);
            // A traced child leaves both records; the traced one carries
            // the untraced end-to-end numbers too.
            let rec = read_json(&record_path(spec, a.trace))?;
            by_workload.push((spec.name.to_string(), rec));
        }
        runs.push(json!({ "seed": seed, "workloads": Value::Object(by_workload) }));
    }
    let result = json!({
        "benchmark": "crfs end-to-end checkpoint/restart",
        "claim": null,
        "stamp": report::stamp(a.seed, a.seconds, &a.data_dir),
        "runs": runs,
    });
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| host::out_dir().join("result.json"));
    report::write_json(&path, &result).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match a.workload {
            Some(spec) => run_one(spec, &a),
            None => run_all(&a),
        }),
        Some("compare") if args.len() == 3 => read_json(Path::new(&args[1]))
            .and_then(|base| Ok((base, read_json(Path::new(&args[2]))?)))
            .map(|(base, new)| compare::run(&base, &new) == 0),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
