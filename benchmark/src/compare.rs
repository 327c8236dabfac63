//! `compare a.json b.json`: one row per end-to-end metric and workload —
//! base, new, their ratio, the bound and a verdict — from two result
//! files written by `run`. Exits non-zero on any `worse`.
//!
//! A result file holds one or more runs (`run --repeat N`). Each side's
//! value is the median over its runs, and its spread the distance
//! between their quartiles over that median. A metric whose spread
//! exceeds its bound on either side is `unresolved` rather than `same`,
//! unless every run of one side beats every run of the other.

use serde_json::Value;

use crate::metrics::{Better, Def, END_TO_END, OPS_FAILED_SHARE};
use crate::summary::{iqr_share, median};
use crate::workload::WORKLOADS;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values of `metric` on `workload` across the runs of a result file.
fn values(result: &Value, workload: &str, metric: &str) -> Vec<f64> {
    result["runs"]
        .as_array()
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r["workloads"][workload]["end_to_end"][metric]["value"].as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// The wider of the two sides' run-to-run spreads; 0 with one run a side.
fn spread(base: &[f64], new: &[f64]) -> f64 {
    iqr_share(base)
        .into_iter()
        .chain(iqr_share(new))
        .fold(0.0, f64::max)
}

/// Judges `new` against `base` for one metric.
pub fn judge(def: &Def, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (median(base), median(new));
    // Relative change in the bad direction, against the base.
    let worsening = match def.better {
        Better::Lower if b == 0.0 => {
            if n > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        }
        Better::Lower => (n - b) / b,
        Better::Higher if b == 0.0 => 0.0,
        Better::Higher => (b - n) / b,
    };
    let better_than = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_beat =
        |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| better_than(x, y)));
    if spread(base, new) > def.bound {
        return if all_beat(new, base) {
            Verdict::Better
        } else if all_beat(base, new) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > def.bound {
        Verdict::Worse
    } else if -worsening > def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the table; returns how many rows are `worse`.
pub fn run(base: &Value, new: &Value) -> usize {
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for def in END_TO_END.iter().chain([&OPS_FAILED_SHARE]) {
            let (a, b) = (
                values(base, w.name, def.name),
                values(new, w.name, def.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = judge(def, &a, &b);
            worse += usize::from(verdict == Verdict::Worse);
            let (ma, mb) = (median(&a), median(&b));
            println!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>7.4} {:>7.2}  {}{}",
                w.name,
                def.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { 1.0 },
                spread(&a, &b),
                def.bound,
                verdict.name(),
                if a.len() < 2 || b.len() < 2 {
                    " (one run a side: spread unknown)"
                } else {
                    ""
                },
            );
        }
    }
    println!("ratios are new/base, base = first file; {worse} worse");
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> Def {
        Def {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let hi = def(Better::Higher, 0.10);
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(judge(&hi, &steady, &[100.0, 100.2, 99.9]), Verdict::Same);
        assert_eq!(judge(&hi, &steady, &[80.0, 81.0, 79.5]), Verdict::Worse);
        assert_eq!(judge(&hi, &steady, &[120.0, 121.0, 119.0]), Verdict::Better);
        let lo = def(Better::Lower, 0.10);
        assert_eq!(judge(&lo, &steady, &[120.0, 121.0, 119.0]), Verdict::Worse);
        assert_eq!(judge(&lo, &steady, &[80.0, 81.0, 79.5]), Verdict::Better);
        // Spread wider than the bound: unresolved, unless fully separated.
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(
            judge(&hi, &noisy, &[95.0, 105.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&hi, &noisy, &[200.0, 210.0, 190.0]), Verdict::Better);
        assert_eq!(judge(&hi, &noisy, &[10.0, 20.0, 15.0]), Verdict::Worse);
        // One run a side has no spread; the ratio alone decides.
        assert_eq!(judge(&hi, &[100.0], &[95.0]), Verdict::Same);
        assert_eq!(judge(&hi, &[100.0], &[85.0]), Verdict::Worse);
    }

    #[test]
    fn any_increase_of_the_failed_share_is_worse() {
        assert_eq!(judge(&OPS_FAILED_SHARE, &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(judge(&OPS_FAILED_SHARE, &[0.0], &[0.001]), Verdict::Worse);
        assert_eq!(judge(&OPS_FAILED_SHARE, &[0.01], &[0.0]), Verdict::Better);
    }

    #[test]
    fn rows_come_from_the_runs_of_a_result_file() {
        let file = |v: f64| {
            serde_json::from_str(&format!(
                r#"{{"runs":[{{"workloads":{{"full_cycle":{{"end_to_end":{{"recover_s":{{"value":{v},"unit":"s"}}}}}}}}}}]}}"#
            ))
            .unwrap()
        };
        assert_eq!(values(&file(1.5), "full_cycle", "recover_s"), vec![1.5]);
        assert!(values(&file(1.5), "raw_aggregate", "recover_s").is_empty());
        assert_eq!(run(&file(1.0), &file(1.05)), 0);
        assert_eq!(run(&file(1.0), &file(1.5)), 1);
    }
}
