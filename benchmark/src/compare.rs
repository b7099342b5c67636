//! `bench compare <setA> <setB>`: two sets of result files, side by side,
//! judged against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use serde::Value;

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};

/// One untraced result file, as far as a comparison needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// What two runs must share for their numbers to compare: smoke scale,
    /// nodes, measured ticks per pass, timed passes and accuracy fleets.
    pub shape: (bool, u64, u64, u64, u64),
    /// Every end-to-end metric, by name.
    pub metrics: BTreeMap<String, f64>,
}

/// `workload -> its runs`.
pub type Set = BTreeMap<String, Vec<Run>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The parent's own runs spread wider than the bound, and the change's
    /// runs are not all better than all of the parent's.
    Unresolved,
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn whole(v: &Value, name: &str) -> Result<u64, String> {
    match field(v, name) {
        Some(&Value::UInt(n)) => Ok(n),
        Some(&Value::Int(n)) if n >= 0 => Ok(n as u64),
        _ => Err(format!("no whole number `{name}`")),
    }
}

/// Reads one result file. `None` for the two kinds a comparison leaves out
/// on purpose: a traced run (per-layer metrics have no bound) and
/// `run.sh`'s `result.json`, a concatenation of the files beside it.
/// Anything else that is not a clean untraced run is an error: a run with
/// failed operations must not contribute values.
pub fn parse_run(text: &str) -> Result<Option<Run>, String> {
    let result: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    if field(&result, "results").is_some() {
        return Ok(None);
    }
    match field(&result, "mode").and_then(Value::as_str) {
        Some("trace") => return Ok(None),
        Some("run") => {}
        _ => return Err("not a result file: no `mode` of `run` or `trace`".into()),
    }
    let workload = field(&result, "workload")
        .and_then(Value::as_str)
        .ok_or("no `workload`")?;
    let failed = whole(&result, "failed")?;
    if field(&result, "correct") != Some(&Value::Bool(true)) || failed > 0 {
        return Err(format!(
            "{workload}: the run is not correct ({failed} failed operations)"
        ));
    }
    let env = field(&result, "env").ok_or("no `env`")?;
    let Some(&Value::Bool(smoke)) = field(env, "smoke") else {
        return Err("no `env.smoke`".into());
    };
    let listed = field(&result, "end_to_end").ok_or("no `end_to_end`")?;
    let mut metrics = BTreeMap::new();
    for spec in &END_TO_END {
        let value = field(listed, spec.name)
            .and_then(|entry| field(entry, "value"))
            .and_then(Value::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{workload}: no finite `{}`", spec.name))?;
        metrics.insert(spec.name.to_string(), value);
    }
    Ok(Some(Run {
        workload: workload.to_string(),
        seed: whole(env, "seed")?,
        shape: (
            smoke,
            whole(env, "nodes")?,
            whole(env, "ticks_per_pass")?,
            whole(env, "untraced_passes")?,
            whole(env, "accuracy_fleets")?,
        ),
        metrics,
    }))
}

fn collect(dir: &Path, set: &mut Set) -> Result<(), String> {
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        entries.push(entry.map_err(|e| format!("{}: {e}", dir.display()))?.path());
    }
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, set)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            let at = |e| format!("{}: {e}", path.display());
            let text = fs::read_to_string(&path).map_err(|e| at(e.to_string()))?;
            if let Some(run) = parse_run(&text).map_err(at)? {
                set.entry(run.workload.clone()).or_default().push(run);
            }
        }
    }
    Ok(())
}

/// Reads every `.json` file under `dir` (any depth) and keeps the untraced
/// runs; a file that is none of the kinds [`parse_run`] knows is an error.
pub fn read_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    collect(dir, &mut set)?;
    if set.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

/// Two sets compare only if they ran the same workloads at the same scale,
/// pass and fleet counts on the same seeds: each timing is a minimum over
/// the passes, and the accuracy metrics are functions of the seeds.
pub fn comparable(a: &Set, b: &Set) -> Result<(), String> {
    for (here, there, missing) in [(a, b, "B"), (b, a, "A")] {
        if let Some(workload) = here.keys().find(|w| !there.contains_key(*w)) {
            return Err(format!("set {missing} has no run of {workload}"));
        }
    }
    for (workload, runs_a) in a {
        let runs_b = &b[workload];
        let shape = runs_a[0].shape;
        if runs_a.iter().chain(runs_b).any(|r| r.shape != shape) {
            return Err(format!(
                "{workload}: runs differ in smoke scale, nodes, ticks per pass, passes or fleets"
            ));
        }
        let seeds = |runs: &[Run]| {
            let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
            seeds.sort_unstable();
            seeds
        };
        let (seeds_a, seeds_b) = (seeds(runs_a), seeds(runs_b));
        if seeds_a != seeds_b {
            return Err(format!(
                "{workload}: set A ran seeds {seeds_a:?}, set B {seeds_b:?}"
            ));
        }
    }
    Ok(())
}

/// Judges the change's runs `b` against the parent's runs `a`. Returns the
/// verdict, the change's median over the parent's, and the parent's
/// inter-quartile spread as a share of its median.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let ratio = mb / ma;
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let spread = quartiles(a).map_or(0.0, |(q1, _, q3)| (q3 - q1) / ma.abs());
    let (best_a, worst_b) = match better {
        Better::Lower => (
            a.iter().copied().fold(f64::INFINITY, f64::min),
            b.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ),
        Better::Higher => (
            -a.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            -b.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    };
    let verdict = if spread > bound {
        if worst_b < best_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, ratio, spread)
}

/// Six significant digits, whatever the magnitude.
fn sig(v: f64) -> String {
    let decimals = if v == 0.0 {
        0
    } else {
        (5 - v.abs().log10().floor() as i32).clamp(0, 9)
    };
    format!("{v:.*}", decimals as usize)
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, _, q3)) => format!("[{} {}]", sig(q1), sig(q3)),
        None => "[- -]".into(),
    }
}

/// Prints the table and returns how many pairs regressed; an error, and
/// no table, when the sets do not compare.
pub fn compare(a: &Set, b: &Set) -> Result<usize, String> {
    comparable(a, b)?;
    let mut regressed = 0;
    println!(
        "{:<14} {:<25} {:>13} {:<25} {:>13} {:<25} {:>12} {:>6} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B/A (base A)",
        "bound",
        "A iqr"
    );
    for (workload, runs_a) in a {
        println!(
            "{workload}: {} runs in A, {} in B",
            runs_a.len(),
            b[workload].len()
        );
        for spec in &END_TO_END {
            let values =
                |runs: &[Run]| -> Vec<f64> { runs.iter().map(|r| r.metrics[spec.name]).collect() };
            let (va, vb) = (values(runs_a), values(&b[workload]));
            let (verdict, ratio, spread) = judge(&va, &vb, spec.better, spec.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<14} {:<25} {:>13} {:<25} {:>13} {:<25} {:>12.4} {:>6.3} {:>7.4}  {}",
                workload,
                format!("{} ({})", spec.name, spec.unit),
                sig(median(&va)),
                quartile_text(&va),
                sig(median(&vb)),
                quartile_text(&vb),
                ratio,
                spec.bound,
                spread,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file as `report.rs` writes it, cut down to what is read.
    fn result_file(workload: &str, seed: u64, failed: u64, passes: u64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|s| format!(r#""{}":{{"value":1.5,"unit":"{}"}}"#, s.name, s.unit))
            .collect();
        format!(
            r#"{{"workload":"{workload}","mode":"run","correct":{},"failed":{failed},
               "env":{{"seed":{seed},"smoke":false,"nodes":100,"ticks_per_pass":50,
               "untraced_passes":{passes},"accuracy_fleets":2}},"end_to_end":{{{}}}}}"#,
            failed == 0,
            metrics.join(",")
        )
    }

    fn set_of(files: &[String]) -> Set {
        let mut set = Set::new();
        for text in files {
            let run = parse_run(text).expect("parses").expect("an untraced run");
            set.entry(run.workload.clone()).or_default().push(run);
        }
        set
    }

    #[test]
    fn result_files_are_read_strictly() {
        let run = parse_run(&result_file("w", 3, 0, 3)).unwrap().unwrap();
        assert_eq!((run.seed, run.shape), (3, (false, 100, 50, 3, 2)));
        assert_eq!(run.metrics.len(), END_TO_END.len());
        // Left out on purpose: traced runs and run.sh's aggregate.
        assert_eq!(parse_run(r#"{"mode":"trace","workload":"w"}"#), Ok(None));
        assert_eq!(parse_run(r#"{"seed":1,"results":[]}"#), Ok(None));
        // Never skipped: broken files, other JSON, failed runs, lost metrics.
        assert!(parse_run("{\"mode\":").is_err());
        assert!(parse_run(r#"{"hello":1}"#).is_err());
        assert!(parse_run(&result_file("w", 3, 2, 3)).is_err());
        let lost = result_file("w", 3, 0, 3).replace("restore_p50_ms", "renamed");
        assert!(parse_run(&lost).unwrap_err().contains("restore_p50_ms"));
    }

    #[test]
    fn sets_must_share_workloads_seeds_and_shape() {
        let a = set_of(&[result_file("v", 1, 0, 3), result_file("w", 1, 0, 3)]);
        assert_eq!(comparable(&a, &a), Ok(()));
        assert_eq!(compare(&a, &a), Ok(0));
        // A workload whose runs all crashed is missing from one side.
        let only_v = set_of(&[result_file("v", 1, 0, 3)]);
        assert!(comparable(&a, &only_v)
            .unwrap_err()
            .contains("B has no run of w"));
        assert!(comparable(&only_v, &a)
            .unwrap_err()
            .contains("A has no run of w"));
        let other_seed = set_of(&[result_file("v", 2, 0, 3), result_file("w", 1, 0, 3)]);
        assert!(comparable(&a, &other_seed).is_err());
        let other_passes = set_of(&[result_file("v", 1, 0, 4), result_file("w", 1, 0, 3)]);
        assert!(compare(&a, &other_passes).is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_parent_spread() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Lower is better, bound 10 %: +5 % ok, +20 % regressed.
        let (v, ratio, spread) = judge(&parent, &[10.5; 5], Better::Lower, 0.10);
        assert_eq!(v, Verdict::Ok);
        assert!((ratio - 1.05).abs() < 1e-12 && spread < 0.02);
        assert_eq!(
            judge(&parent, &[12.0; 5], Better::Lower, 0.10).0,
            Verdict::Regressed
        );
        // Higher is better: the same drop in throughput regresses.
        assert_eq!(
            judge(&parent, &[8.0; 5], Better::Higher, 0.10).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &[12.0; 5], Better::Higher, 0.10).0,
            Verdict::Ok
        );
        // A parent noisier than the bound resolves nothing...
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&noisy, &[10.5; 5], Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[14.0; 5], Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(judge(&noisy, &[7.0; 5], Better::Lower, 0.10).0, Verdict::Ok);
    }
}
