//! Turns the passes of a run into the named metrics, prints them, and
//! writes the result file.

use std::collections::BTreeMap;

use serde::Value;

use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::run::{Deterministic, PassOutput, RunOutput};
use crate::stats::{highest_supported_percentile, median, min_across, percentile};
use crate::sut;
use crate::workload::Workload;

/// One reported number with the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub spec: Spec,
    pub value: f64,
    pub samples: usize,
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        sum(v) / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-index minimum of one span across the untraced passes.
fn de_noised<'a>(
    passes: &'a [PassOutput],
    span: impl Fn(&'a PassOutput) -> &'a [f64],
) -> Result<Vec<f64>, String> {
    let per_pass: Vec<&[f64]> = passes.iter().map(span).collect();
    min_across(&per_pass).ok_or_else(|| "passes disagree on how many samples a span has".into())
}

fn fill(specs: &[Spec], values: BTreeMap<&'static str, (f64, usize)>) -> Vec<Metric> {
    specs
        .iter()
        .map(|&spec| {
            let (value, samples) = values.get(spec.name).copied().unwrap_or((f64::NAN, 0));
            Metric {
                spec,
                value,
                samples,
            }
        })
        .collect()
}

/// The 13 end-to-end metrics, from the untraced passes only: timings from
/// the timed replays, accuracy and wire metrics of the median fleet.
pub fn end_to_end(w: &Workload, run: &RunOutput) -> Result<Vec<Metric>, String> {
    let passes = &run.passes;
    let first = passes.first().ok_or("no untraced pass")?;
    let collect = de_noised(passes, |p| &p.collect)?;
    let refresh = de_noised(passes, |p| p.rec.durations("refresh"))?;
    let reads = de_noised(passes, |p| p.rec.durations("reads"))?;
    let checkpoint = de_noised(passes, |p| &p.checkpoint)?;
    let restore = de_noised(passes, |p| &p.restore)?;
    let setups = &run.setups;
    let node_steps = (w.nodes * w.ticks) as f64;
    // The accuracy and wire metrics are functions of the seed, so they
    // are taken over several fleets: the median fleet, not the pooled sum,
    // because one fleet in ten has an episode of scrambled cluster identity
    // that alone moves a pooled RMSE by 10–20 %.
    let fleets: Vec<&Deterministic> = std::iter::once(&first.det).chain(&run.accuracy).collect();
    let median_fleet = |of: &dyn Fn(&Deterministic) -> f64| {
        median(&fleets.iter().map(|d| of(d)).collect::<Vec<_>>())
    };
    let rmse = |sq: f64, n: f64| ratio(sq, n).sqrt();

    let mut m = BTreeMap::new();
    // The minimum, like every other timing here: the median over passes
    // follows the neighbours' load (on `retrain_heavy` it moved 19 %
    // between two sets of ten runs half an hour apart, the minimum 1 %).
    let setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    m.insert("setup_s", (setup, setups.len()));
    m.insert(
        "node_steps_per_s",
        (
            ratio(node_steps, sum(&collect) + sum(&refresh) + sum(&checkpoint)),
            collect.len(),
        ),
    );
    m.insert("tick_p50_ms", (median(&collect) * 1e3, collect.len()));
    m.insert(
        "tick_p90_ms",
        (percentile(&collect, 90.0) * 1e3, collect.len()),
    );
    m.insert("refresh_p50_ms", (median(&refresh) * 1e3, refresh.len()));
    m.insert(
        "query_reads_per_s",
        (
            ratio((w.reads * reads.len()) as f64, sum(&reads)),
            reads.len(),
        ),
    );
    m.insert(
        "checkpoint_p50_ms",
        (median(&checkpoint) * 1e3, checkpoint.len()),
    );
    m.insert("restore_p50_ms", (median(&restore) * 1e3, restore.len()));
    m.insert(
        "wire_bytes_per_node_step",
        (
            median_fleet(&|d| ratio(d.delivered.wire_bytes as f64, node_steps)),
            fleets.len(),
        ),
    );
    m.insert(
        "staleness_rmse",
        (
            median_fleet(&|d| rmse(d.staleness_sq, node_steps)),
            fleets.len(),
        ),
    );
    for (slot, name) in ["forecast_rmse_h1", "forecast_rmse_h8"]
        .into_iter()
        .enumerate()
    {
        m.insert(
            name,
            (
                median_fleet(&|d| rmse(d.forecast_sq[slot], d.forecast_n[slot] as f64)),
                fleets.len(),
            ),
        );
    }
    m.insert("peak_rss_mb", (run.peak_rss_mb, 1));
    Ok(fill(&END_TO_END, m))
}

/// Fastest and slowest calibration kernel over the run, ms.
fn calib_range(run: &RunOutput) -> (f64, f64) {
    run.calib_ms
        .iter()
        .fold((f64::INFINITY, 0.0), |(lo, hi), &ms| {
            (lo.min(ms), hi.max(ms))
        })
}

/// Slowest ÷ fastest pass of the run by controller-side slot time: how far
/// the host moved while the run was made. Over the timed replays of an
/// end-to-end run; in a traced run the two passes kept are the fastest
/// untraced and the fastest traced one, so it holds the overhead.
fn pass_spread(run: &RunOutput) -> f64 {
    let (fastest, slowest) = run
        .passes
        .iter()
        .chain(&run.traced)
        .map(PassOutput::slot_seconds)
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), s| {
            (lo.min(s), hi.max(s))
        });
    ratio(slowest, fastest)
}

/// The 49 per-layer metrics, from the fastest traced pass (and, for the
/// host block, the fastest untraced pass beside it).
pub fn per_layer(w: &Workload, run: &RunOutput) -> Result<Vec<Metric>, String> {
    let t = run.traced.as_ref().ok_or("no traced pass")?;
    let own = t.rec.self_seconds_by_name();
    let own = |name: &str| own.get(name).map_or(&[][..], Vec::as_slice);
    let dur = |name: &str| t.rec.durations(name);
    let slot = t.slot_seconds();
    let share = |seconds: f64| (ratio(seconds, slot), w.ticks);
    let us_p50 = |v: &[f64]| (median(v) * 1e6, v.len());
    let det = &t.det;
    let c = &det.measured;
    let node_steps = (w.nodes * w.ticks) as f64;
    let probes = |v: &[f64]| {
        (
            ratio(sum(v) * 1e9, (v.len() * crate::run::TRACE_PROBES) as f64),
            v.len(),
        )
    };

    // Forecast self time per tick, split by whether a model retrained.
    let forecast = own("shadow.stage_step");
    let split = |want: bool| -> Vec<f64> {
        forecast
            .iter()
            .zip(&t.retrained)
            .filter(|(_, &retrained)| retrained == want)
            .map(|(&seconds, _)| seconds)
            .collect()
    };
    let (retrain, update) = (split(true), split(false));

    let untraced = run.passes.first().ok_or("no untraced pass")?.slot_seconds();
    let (calib, _) = calib_range(run);

    let mut m = BTreeMap::new();
    m.insert(
        "transmit.decide_ns_per_node",
        (ratio(sum(dur("decide")) * 1e9, node_steps), w.ticks),
    );
    m.insert(
        "transmit.sent_ratio",
        (ratio(c.bank_sent as f64, node_steps), w.ticks),
    );
    m.insert("transmit.share", share(sum(own("decide"))));
    m.insert(
        "transport.frame_build_ns_per_entry",
        (
            ratio(sum(dur("frame")) * 1e9, det.built_entries as f64),
            w.ticks,
        ),
    );
    m.insert(
        "transport.bytes_per_entry",
        (
            ratio(
                det.delivered.wire_bytes as f64,
                det.delivered.entries as f64,
            ),
            w.ticks,
        ),
    );
    m.insert("transport.query_codec_ns", probes(dur("query_codec")));
    m.insert("transport.share", share(sum(own("frame"))));
    m.insert("link.submit_collect_us", us_p50(dur("submit_collect")));
    m.insert("link.ack_us", us_p50(dur("ack")));
    m.insert(
        "link.retransmits_per_frame",
        (
            ratio(c.retransmits as f64, (c.link_sent - c.retransmits) as f64),
            w.ticks,
        ),
    );
    m.insert(
        "link.lost_ratio",
        (ratio(c.link_lost as f64, c.link_sent as f64), w.ticks),
    );
    m.insert(
        "link.duplicate_frame_ratio",
        (
            ratio(c.duplicate_frames as f64, c.link_delivered as f64),
            w.ticks,
        ),
    );
    m.insert("link.abandoned", (c.abandoned as f64, w.ticks));
    m.insert(
        "link.share",
        share(sum(own("submit_collect")) + sum(own("ack"))),
    );
    m.insert("controller.tick_us_p50", us_p50(dur("tick_frames")));
    m.insert("controller.admit_us_p50", us_p50(own("tick_frames")));
    let entries = det.delivered.entries as f64;
    m.insert(
        "controller.quarantined_ratio",
        (ratio(c.quarantined as f64, entries), w.ticks),
    );
    m.insert(
        "controller.duplicate_ratio",
        (ratio(c.duplicates as f64, entries), w.ticks),
    );
    m.insert(
        "controller.masked_ratio",
        (ratio(c.masked_node_steps as f64, node_steps), w.ticks),
    );
    m.insert("controller.mean_age", (c.mean_age, w.warm_ticks + w.ticks));
    m.insert(
        "controller.peak_age",
        (c.peak_age as f64, w.warm_ticks + w.ticks),
    );
    m.insert("controller.share", share(sum(own("tick_frames"))));
    let cluster = dur("shadow.cluster_step");
    m.insert("cluster.step_us_p50", us_p50(cluster));
    m.insert(
        "cluster.step_us_p90",
        (percentile(cluster, 90.0) * 1e6, cluster.len()),
    );
    m.insert(
        "cluster.step_ns_per_node",
        (ratio(sum(cluster) * 1e9, node_steps), cluster.len()),
    );
    m.insert(
        "cluster.intermediate_rmse",
        (ratio(det.intermediate_rmse_sum, w.ticks as f64), w.ticks),
    );
    m.insert("cluster.share", share(sum(own("shadow.cluster_step"))));
    m.insert("forecast.update_us_p50", us_p50(&update));
    m.insert("forecast.retrain_tick_us_p50", us_p50(&retrain));
    let fits = dur("shadow.fit");
    m.insert("forecast.fit_us_per_model", (mean(fits) * 1e6, fits.len()));
    m.insert(
        "forecast.retrain_tick_ratio",
        (ratio(det.retrain_ticks as f64, w.ticks as f64), w.ticks),
    );
    m.insert(
        "forecast.model_fallbacks",
        (c.model_fallbacks as f64, w.ticks),
    );
    m.insert(
        "forecast.fallback_fit_failures",
        (c.fallback_fit_failures as f64, w.ticks),
    );
    m.insert("forecast.share", share(sum(forecast)));
    let build = dur("shadow.build_table");
    m.insert("table.build_us_p50", us_p50(build));
    m.insert(
        "table.build_ns_per_node",
        (ratio(mean(build) * 1e9, w.nodes as f64), build.len()),
    );
    let refreshes = dur("refresh");
    m.insert(
        "table.rebuilds_per_refresh",
        (
            ratio(c.table_rebuilds as f64, refreshes.len() as f64),
            refreshes.len(),
        ),
    );
    m.insert("table.load_ns", probes(dur("table.load")));
    m.insert("table.read_ns", probes(dur("table.read")));
    m.insert("table.share", share(sum(refreshes)));
    m.insert("checkpoint.snapshot_us", us_p50(dur("snapshot")));
    m.insert("checkpoint.serialize_us", us_p50(dur("serialize")));
    m.insert("checkpoint.deserialize_us", us_p50(dur("deserialize")));
    m.insert("checkpoint.restore_us", us_p50(dur("restore")));
    m.insert(
        "checkpoint.bytes_per_node",
        (
            ratio(det.checkpoint_bytes as f64, w.nodes as f64),
            t.checkpoint.len(),
        ),
    );
    m.insert("checkpoint.share", share(sum(&t.checkpoint)));
    m.insert("host.calib_ms", (calib, run.calib_ms.len()));
    m.insert("host.pass_spread", (pass_spread(run), run.passes.len() + 1));
    m.insert("trace.overhead_ratio", (ratio(slot, untraced), 1));
    Ok(fill(&PER_LAYER, m))
}

/// Where and how the run was made; part of every result file.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    pub smoke: bool,
}

fn env_json(w: &Workload, env: &Env, run: &RunOutput) -> Value {
    let (calib_min, calib_max) = calib_range(run);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let text = |s: &str| Value::String(s.into());
    let int = |v: usize| Value::UInt(v as u64);
    Value::Map(vec![
        ("nproc".into(), int(nproc)),
        ("resolved_threads".into(), int(sut::resolved_threads(w))),
        ("rustc".into(), text(env!("BENCH_RUSTC_VERSION"))),
        ("profile".into(), text(env!("BENCH_PROFILE"))),
        ("seed".into(), Value::UInt(env.seed)),
        ("smoke".into(), Value::Bool(env.smoke)),
        ("nodes".into(), int(w.nodes)),
        ("warm_ticks_per_pass".into(), int(w.warm_ticks)),
        ("ticks_per_pass".into(), int(w.ticks)),
        ("untraced_passes".into(), int(run.passes.len())),
        ("accuracy_fleets".into(), int(run.accuracy.len())),
        (
            "traced_passes".into(),
            int(usize::from(run.traced.is_some())),
        ),
        (
            "host.calib_ms".into(),
            Value::Map(vec![
                ("min".into(), Value::Float(calib_min)),
                ("max".into(), Value::Float(calib_max)),
            ]),
        ),
        ("host.pass_spread".into(), Value::Float(pass_spread(run))),
    ])
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::String(m.spec.unit.into())),
                ];
                if with_samples {
                    entry.push(("samples".into(), Value::UInt(m.samples as u64)));
                }
                (m.spec.name.to_string(), Value::Map(entry))
            })
            .collect(),
    )
}

/// The result of one invocation: what is printed, written, and returned
/// to the driver.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// The full result file.
    pub file: Value,
    /// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
    pub last_line: Value,
}

/// Assembles the outcome of a run: the end-to-end metrics of an untraced
/// run, or the per-layer metrics (plus spans) of a traced one.
pub fn outcome(w: &Workload, env: &Env, run: &RunOutput) -> Result<Outcome, String> {
    let traced = run.traced.as_ref();
    let metrics = match traced {
        Some(_) => per_layer(w, run)?,
        None => end_to_end(w, run)?,
    };
    let (attempted, mut failed) = run.ops.totals();
    // A metric that is not a number is a failed check of the benchmark
    // itself; it must not reach a comparison as a value.
    failed += metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
    let correct = failed == 0;
    let ops = Value::Map(
        run.ops
            .0
            .iter()
            .map(|(kind, &(a, f))| {
                let entry = vec![
                    ("attempted".to_string(), Value::UInt(a)),
                    ("failed".to_string(), Value::UInt(f)),
                ];
                (kind.to_string(), Value::Map(entry))
            })
            .collect(),
    );
    let mut file = vec![
        ("workload".to_string(), Value::String(w.name.into())),
        ("why".to_string(), Value::String(w.why.into())),
        (
            "mode".to_string(),
            Value::String(if traced.is_some() { "trace" } else { "run" }.into()),
        ),
        // This benchmark defines the baseline; it claims no gain.
        ("claim".to_string(), Value::Null),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("operations".to_string(), ops),
        (
            "failures".to_string(),
            Value::Seq(
                run.failures
                    .iter()
                    .map(|f| Value::String(f.clone()))
                    .collect(),
            ),
        ),
        ("env".to_string(), env_json(w, env, run)),
        (
            if traced.is_some() {
                "per_layer"
            } else {
                "end_to_end"
            }
            .to_string(),
            metrics_json(&metrics, true),
        ),
    ];
    if let Some(t) = traced {
        file.push(("spans".to_string(), t.rec.spans_json()));
    }
    let last_line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics_json(&metrics, false)),
    ]);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct,
        file: Value::Map(file),
        last_line,
    })
}

/// Every metric by name with its value, unit and sample count.
pub fn print_listing(w: &Workload, run: &RunOutput, outcome: &Outcome) {
    let mode = if run.traced.is_some() { "trace" } else { "run" };
    println!("== {} ({mode}): {}", w.name, w.why);
    for m in &outcome.metrics {
        println!(
            "{:<38} {:>16.6} {:<6} n={}",
            m.spec.name, m.value, m.spec.unit, m.samples
        );
    }
    let tail = highest_supported_percentile(w.ticks);
    println!(
        "ticks per pass: {} (+{} warm); highest tail percentile {} samples support: p{tail}",
        w.ticks, w.warm_ticks, w.ticks
    );
    let (calib_min, calib_max) = calib_range(run);
    println!(
        "host: calibration kernel {calib_min:.3}..{calib_max:.3} ms, slowest / fastest pass {:.4}",
        pass_spread(run)
    );
    for (kind, (attempted, failed)) in &run.ops.0 {
        println!("operations {kind:<14} attempted {attempted:>10} failed {failed}");
    }
    for failure in &run.failures {
        eprintln!("FAILED {failure}");
    }
}
