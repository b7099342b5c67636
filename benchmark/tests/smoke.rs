//! Smoke-scale runs of every workload, and the contract between the
//! code's tables and `../BENCHMARK.json`.

use serde::Value;
use utilcast_benchmark::metrics::{Spec, END_TO_END, PER_LAYER, RUN_SECONDS};
use utilcast_benchmark::report::{outcome, Env};
use utilcast_benchmark::run::{self, Kind};
use utilcast_benchmark::workload::WORKLOADS;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {name}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect(path)).expect("valid JSON")
}

fn names(list: &Value) -> Vec<String> {
    list.as_seq()
        .expect("a list")
        .iter()
        .map(|entry| field(entry, "name").as_str().expect("a name").to_string())
        .collect()
}

fn assert_specs_match(listed: &Value, specs: &[Spec], bounded: bool) {
    let listed = listed.as_seq().expect("a list");
    assert_eq!(listed.len(), specs.len());
    for (entry, spec) in listed.iter().zip(specs) {
        assert_eq!(field(entry, "name").as_str(), Some(spec.name));
        assert_eq!(
            field(entry, "unit").as_str(),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            field(entry, "better").as_str(),
            Some(spec.better.as_str()),
            "{}",
            spec.name
        );
        let keys = entry.as_map().expect("a map").len();
        if bounded {
            assert_eq!(
                field(entry, "bound").as_f64(),
                Some(spec.bound),
                "{}",
                spec.name
            );
            assert!(spec.bound > 0.0 && spec.bound <= 0.25, "{}", spec.name);
            assert_eq!(keys, 4, "{}", spec.name);
        } else {
            assert_eq!(keys, 3, "{}", spec.name);
        }
    }
}

#[test]
fn benchmark_json_names_exactly_the_tables_in_the_code() {
    let spec = benchmark_json();
    assert_eq!(
        field(&spec, "run_seconds").as_f64(),
        Some(RUN_SECONDS as f64)
    );
    let paths = field(&spec, "paths").as_seq().expect("paths");
    assert_eq!(paths, [Value::String("benchmark".into())]);
    let listed = field(&spec, "workloads").as_seq().expect("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(field(entry, "name").as_str(), Some(w.name));
        assert_eq!(field(entry, "why").as_str(), Some(w.why), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert_specs_match(field(&spec, "end_to_end"), &END_TO_END, true);
    assert_specs_match(field(&spec, "per_layer"), &PER_LAYER, false);
    let setup = &END_TO_END[0];
    assert_eq!(setup.name, "setup_s");
    assert!(
        END_TO_END.iter().all(|s| s.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

/// Every workload at smoke scale, untraced then traced: all checks pass,
/// and the driver's line carries each metric `BENCHMARK.json` names for
/// that mode exactly once, as a finite number with the listed unit.
#[test]
fn smoke_run_of_each_workload_passes_and_emits_every_metric_once() {
    let spec = benchmark_json();
    for w in WORKLOADS.iter().cloned().map(|w| w.smoke()) {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let output = run::run(&w, 7, traced).expect("run completes");
            assert!(
                output.failures.is_empty(),
                "{}: {:?}",
                w.name,
                output.failures
            );
            let env = Env {
                seed: 7,
                smoke: true,
            };
            let outcome = outcome(&w, &env, &output).expect("metrics assemble");
            assert!(outcome.correct && outcome.failed == 0, "{} {key}", w.name);
            assert!(outcome.attempted >= 1);

            let line = serde_json::to_string(&outcome.last_line).expect("serializes");
            let line: Value = serde_json::from_str(&line).expect("parses back");
            let keys: Vec<_> = line
                .as_map()
                .expect("map")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let emitted = field(&line, "metrics").as_map().expect("metrics map");
            let wanted = names(field(&spec, key));
            let mut got: Vec<_> = emitted.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, wanted, "{} {key}: every metric once, in order", w.name);
            got.dedup();
            assert_eq!(got.len(), wanted.len());
            for (entry, listed) in emitted
                .iter()
                .zip(field(&spec, key).as_seq().expect("list"))
            {
                let value = field(&entry.1, "value").as_f64().expect("a number");
                assert!(value.is_finite(), "{} {}", w.name, entry.0);
                assert_eq!(
                    field(&entry.1, "unit").as_str(),
                    field(listed, "unit").as_str()
                );
            }
            if !traced {
                // End-to-end metrics are never zero, at any scale.
                for (name, entry) in emitted {
                    assert!(
                        field(entry, "value").as_f64() > Some(0.0),
                        "{} {name}",
                        w.name
                    );
                }
            }
            let file = serde_json::to_string(&outcome.file).expect("serializes");
            let file: Value = serde_json::from_str(&file).expect("parses back");
            assert_eq!(field(&file, "claim"), &Value::Null);
            for key in [
                "nproc",
                "resolved_threads",
                "rustc",
                "profile",
                "seed",
                "ticks_per_pass",
                "untraced_passes",
                "accuracy_fleets",
            ] {
                field(field(&file, "env"), key);
            }
            let spans = file
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == "spans"));
            assert_eq!(
                spans.is_some_and(|(_, v)| v.as_seq().is_some_and(|s| !s.is_empty())),
                traced,
                "only a traced run writes spans"
            );
        }
    }
}

#[test]
fn a_second_seed_changes_the_inputs_but_not_the_verdict() {
    let w = WORKLOADS[0].clone().smoke();
    let a = run::run_pass(&w, 1, Kind::Timed).expect("pass");
    let b = run::run_pass(&w, 2, Kind::Timed).expect("pass");
    assert!(a.failures.is_empty() && b.failures.is_empty());
    assert_ne!(a.det.tick_hash, b.det.tick_hash);
    assert_ne!(a.det.staleness_sq, b.det.staleness_sq);
    let again = run::run_pass(&w, 1, Kind::Timed).expect("pass");
    assert_eq!(a.det, again.det, "the same seed replays exactly");
}
