//! Controller scaling report: wall-clock cost of one pipeline step and one
//! forecast call as the number of nodes grows — the "can one central node
//! keep up with the datacenter per time slot" question behind the paper's
//! scalability claims.
//!
//! A 5-minute sampling interval gives the controller 300 seconds per step;
//! this report shows how many orders of magnitude of headroom the K=3
//! pipeline has.
//!
//! The second section times the `N=1000, K=10, d=2` multi-resource
//! controller tick (warm-start clustering through the vector block scan,
//! threaded k-means/retraining).
//!
//! The third section times the k-means vector scan alone: the warm descent
//! at `N` up to one million nodes, with GFLOP/s and GB/s.
//!
//! The fourth section benchmarks the hierarchical (two-level) controller:
//! the `N=100k, K=10` scalar controller tick flat and sharded, plus the
//! `N=1M` tick that motivates the tier. It is guarded by a single-shard
//! parity check — the hierarchical configuration with `shards <= 1` must
//! reproduce the seed `SimReport` bit-for-bit at several thread counts,
//! and the sharded configuration must be thread-count invariant — which
//! exits nonzero on any bitwise mismatch so CI fails loudly.
//!
//! Everything is written to `BENCH_controller.json` (in
//! `UTILCAST_BENCH_DIR`, default the working directory) so the speedups
//! are tracked in-repo; the per-`N` rows also go to
//! `scaling_report.json` (in `UTILCAST_BENCH_DIR` when it is set, else
//! `results/`). `UTILCAST_NODES` scales the hierarchical tiers
//! down for smoke runs; `UTILCAST_STEPS` scales the timing reps.

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;
use utilcast_bench::report::ResolvedConfig;
use utilcast_bench::{report, Scale};
use utilcast_clustering::kmeans::{KMeans, KMeansConfig};
use utilcast_core::compute::ComputeOptions;
use utilcast_core::multi::{MultiPipeline, MultiPipelineConfig};
use utilcast_core::pipeline::{Pipeline, PipelineConfig, TransmissionMode};
use utilcast_core::stage::{ForecastStage, ForecastStageConfig};
use utilcast_datasets::{presets, Resource};
use utilcast_simnet::sim::{SimConfig, Simulation};

#[derive(Serialize)]
struct Row {
    nodes: usize,
    step_micros: f64,
    forecast_micros: f64,
}

/// The hierarchical controller tick at one scale: the same scalar
/// `ForecastStage` workload timed single-level and sharded. On a single
/// core the ratio is bounded by the shared `O(N)` identity bookkeeping both
/// paths pay per tick.
#[derive(Serialize)]
struct HierarchicalTier {
    nodes: usize,
    k: usize,
    shards: usize,
    reps: usize,
    flat_tick_micros: f64,
    hier_tick_micros: f64,
    speedup_vs_flat: f64,
}

/// The million-node tick: flat vs hierarchical, plus the headroom left in
/// the paper's 300-second sampling slot.
#[derive(Serialize)]
struct MillionNodeTier {
    nodes: usize,
    k: usize,
    shards: usize,
    reps: usize,
    flat_tick_micros: f64,
    hier_tick_micros: f64,
    slot_headroom: f64,
}

/// One measurement of the vector assignment scan: the warm k-means descent
/// (`fit_from_flat`, where the scan dominates at `k = 10`). GFLOP/s counts
/// `n·k·(2d + 2)` assignment flops plus `2·n·d` update flops per Lloyd
/// iteration; GB/s counts the point buffer, centroid buffer, and assignment
/// vector touched per iteration.
#[derive(Serialize)]
struct KMeansScanRow {
    nodes: usize,
    dim: usize,
    k: usize,
    iterations: usize,
    reps: usize,
    micros: f64,
    gflops: f64,
    gbps: f64,
}

/// The tick benchmark's parameters and measurements, serialized to
/// `BENCH_controller.json`. `resolved` records the compute configuration
/// the tick actually ran under (thread auto-detection included).
#[derive(Serialize)]
struct ControllerBench {
    nodes: usize,
    k: usize,
    resources: usize,
    reps: usize,
    resolved: ResolvedConfig,
    tick_micros: f64,
    compute: ComputeOptions,
    kmeans_scan: Vec<KMeansScanRow>,
    hierarchical: HierarchicalTier,
    million_node: MillionNodeTier,
}

/// Deterministic synthetic measurement for node `i`, resource `r`, step
/// `t`: ten utilization bands with slow sinusoidal drift and a small
/// per-node phase offset — the paper's temporal-continuity regime, with no
/// RNG so reruns are exactly reproducible.
fn measurement(i: usize, r: usize, t: usize) -> f64 {
    let band = (i % 10) as f64 / 10.0;
    let drift = ((t as f64 * 0.01) + (r as f64)).sin() * 0.03;
    let jitter = (((i * 31 + r * 7) % 100) as f64 / 100.0 - 0.5) * 0.02;
    (band + 0.05 + drift + jitter).clamp(0.0, 1.0)
}

fn tick_input(n: usize, d: usize, t: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| (0..d).map(|r| measurement(i, r, t)).collect())
        .collect()
}

/// Wall-clock microseconds per controller tick for the given compute
/// options on the `N=1000, K=10, d=2` workload. All tick inputs are
/// generated up front so the timed region contains only pipeline work, and
/// the ticks are timed in batches with the fastest batch reported — the
/// standard minimum-time estimator, which discards scheduler interference
/// on shared machines instead of averaging it in.
fn time_ticks(n: usize, k: usize, d: usize, reps: usize, compute: ComputeOptions) -> f64 {
    let mut mp = MultiPipeline::new(MultiPipelineConfig {
        num_nodes: n,
        num_resources: d,
        k,
        warmup: 8,
        retrain_every: 10_000,
        compute,
        ..Default::default()
    })
    .expect("valid config");
    let batches = 8.min(reps);
    let per_batch = (reps / batches).max(1);
    let timed = batches * per_batch;
    let inputs: Vec<Vec<Vec<f64>>> = (0..8 + timed).map(|t| tick_input(n, d, t)).collect();
    // Warm the pipeline: first ticks include allocation effects and the
    // initial cold seeding.
    for x in &inputs[..8] {
        mp.step(x).expect("step");
    }
    let mut best = f64::INFINITY;
    for batch in inputs[8..].chunks(per_batch) {
        let start = Instant::now();
        for x in batch {
            mp.step(x).expect("step");
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
    }
    best
}

/// Wall-clock microseconds per scalar controller tick
/// ([`ForecastStage::step`] — clustering, identity re-indexing, and
/// forecaster bookkeeping over a flat `N`-value buffer) with the given
/// compute options. Minimum-time estimator over single ticks; ticks at
/// these scales run for milliseconds, so per-tick timer overhead is noise.
fn time_stage_ticks(
    n: usize,
    k: usize,
    reps: usize,
    warmup: usize,
    compute: ComputeOptions,
) -> f64 {
    let mut stage = ForecastStage::new(ForecastStageConfig {
        num_nodes: n,
        k,
        warmup: 4,
        retrain_every: 10_000,
        compute,
        ..Default::default()
    })
    .expect("valid config");
    let inputs: Vec<Vec<f64>> = (0..warmup + reps)
        .map(|t| (0..n).map(|i| measurement(i, 0, t)).collect())
        .collect();
    for x in &inputs[..warmup] {
        stage.step(x).expect("step");
    }
    let mut best = f64::INFINITY;
    for x in &inputs[warmup..] {
        let start = Instant::now();
        stage.step(x).expect("step");
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Minimum wall-clock microseconds of `f` over `reps` runs — the standard
/// minimum-time estimator, discarding scheduler interference instead of
/// averaging it in.
fn min_time_micros(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// The vector scan alone: warm `fit_from_flat` descents (3 Lloyd
/// iterations, sequential, `k = 10`) at `N = 100k` for `d ∈ {2, 8}` and
/// `N = 1M` for `d = 2` (all scaled by `UTILCAST_NODES` in smoke runs).
fn kmeans_scan_bench(scale: &Scale) -> Vec<KMeansScanRow> {
    report::banner("kmeans-scan", "warm k-means descent through the block scan");
    let shapes: Vec<(usize, usize, usize)> = if scale.nodes > 0 {
        let n = scale.nodes.max(64);
        vec![(n, 2, 3), (n, 8, 3)]
    } else {
        vec![(100_000, 2, 6), (100_000, 8, 6), (1_000_000, 2, 2)]
    };
    let mut rows = Vec::new();
    for (n, dim, reps) in shapes {
        let k = 10usize.min(n / 2);
        let flat: Vec<f64> = (0..n)
            .flat_map(|i| (0..dim).map(move |r| measurement(i, r, i % 13)))
            .collect();
        // Warm centroids from strided rows: a near-converged initializer,
        // like the controller's previous-step centroids.
        let init: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let row = j * n / k;
                flat[row * dim..(row + 1) * dim].to_vec()
            })
            .collect();
        let km = KMeans::new(KMeansConfig {
            k,
            max_iters: 3,
            tol: 0.0,
            threads: 1,
            ..Default::default()
        });
        let fit = || km.fit_from_flat(&flat, dim, &init).expect("warm fit");
        let iters = fit().iterations.max(1);
        let micros = min_time_micros(reps, || {
            std::hint::black_box(fit());
        });
        let flops = (iters * (n * k * (2 * dim + 2) + 2 * n * dim)) as f64;
        let bytes = (iters * (n * dim + k * dim + n) * 8) as f64;
        rows.push(KMeansScanRow {
            nodes: n,
            dim,
            k,
            iterations: iters,
            reps,
            micros,
            gflops: flops / (micros.max(1e-9) * 1e3),
            gbps: bytes / (micros.max(1e-9) * 1e3),
        });
    }
    report::table(
        &["nodes", "d", "descent (us)", "GFLOP/s", "GB/s"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.dim.to_string(),
                    format!("{:.0}", r.micros),
                    format!("{:.2}", r.gflops),
                    format!("{:.2}", r.gbps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rows
}

/// Shard count heuristic: ~1.5k nodes per shard (the sweet spot measured
/// on the probe workloads), at least 2 so the hierarchical path actually
/// engages, capped so the merge problem stays small.
fn shards_for(n: usize) -> usize {
    (n / 1500).clamp(2, 256)
}

/// Hard guard for the hierarchical tier (run before anything is timed):
///
/// 1. `shards: 1` is *not* a different algorithm — it must reproduce the
///    seed configuration's `SimReport` bit-for-bit at thread counts 1, 2,
///    and 8.
/// 2. The genuinely sharded configuration must be bit-identical at any
///    thread count (determinism of the fan-out).
///
/// Exits nonzero on any mismatch so the CI bench smoke fails loudly
/// instead of publishing numbers for a divergent code path.
fn single_shard_parity_guard() {
    let trace = presets::google_like()
        .nodes(64)
        .steps(40)
        .seed(7)
        .generate();
    let run = |compute: Option<ComputeOptions>| {
        let mut config = SimConfig {
            k: 3,
            warmup: 10,
            retrain_every: 12,
            ..Default::default()
        };
        if let Some(compute) = compute {
            config.compute = compute;
        }
        Simulation::new(config)
            .expect("valid config")
            .run(&trace, Resource::Cpu)
            .expect("run")
    };
    let seed_report = run(None);
    for threads in [1usize, 2, 8] {
        let single = run(Some(ComputeOptions {
            shards: 1,
            threads,
            ..Default::default()
        }));
        if single != seed_report {
            eprintln!(
                "PARITY FAILURE: single-shard hierarchical (threads = {threads}) \
                 diverged from the seed SimReport"
            );
            std::process::exit(1);
        }
    }
    let sharded = |threads: usize| {
        run(Some(ComputeOptions {
            shards: 4,
            threads,
            ..Default::default()
        }))
    };
    let reference = sharded(1);
    for threads in [2usize, 8] {
        if sharded(threads) != reference {
            eprintln!(
                "PARITY FAILURE: hierarchical (shards = 4) not thread-count \
                 invariant at threads = {threads}"
            );
            std::process::exit(1);
        }
    }
    println!("parity guard: single-shard == seed and shards=4 thread-invariant (bitwise)");
}

/// The hierarchical controller benchmark: the `N=100k` flat-vs-sharded
/// comparison and the `N=1M` tick (both scaled down by `UTILCAST_NODES` in
/// smoke runs).
fn hierarchical_tick_bench(scale: &Scale, reps: usize) -> (HierarchicalTier, MillionNodeTier) {
    let (hier_nodes, million_nodes) = if scale.nodes > 0 {
        (scale.nodes.max(8), scale.nodes.max(8))
    } else {
        (100_000, 1_000_000)
    };
    report::banner(
        "hierarchical-tick",
        "scalar controller tick: flat vs two-level sharded clustering",
    );
    single_shard_parity_guard();

    // (flat, hierarchical) tick times at one scale.
    let time_pair = |nodes: usize, reps: usize, warmup: usize| {
        let k = 10usize.min(nodes);
        let time = |shards: usize| {
            let compute = ComputeOptions {
                threads: 0,
                shards,
                ..Default::default()
            };
            time_stage_ticks(nodes, k, reps, warmup, compute)
        };
        (time(1), time(shards_for(nodes)))
    };
    let hier_reps = reps.min(12);
    let (flat, hier) = time_pair(hier_nodes, hier_reps, 4);
    let tier = HierarchicalTier {
        nodes: hier_nodes,
        k: 10usize.min(hier_nodes),
        shards: shards_for(hier_nodes),
        reps: hier_reps,
        flat_tick_micros: flat,
        hier_tick_micros: hier,
        speedup_vs_flat: flat / hier.max(1e-9),
    };
    report::table(
        &["path", "tick (us)", "vs flat"],
        &[
            vec!["flat".into(), format!("{flat:.0}"), "1.0x".into()],
            vec![
                format!("hier s={}", tier.shards),
                format!("{hier:.0}"),
                format!("{:.2}x", tier.speedup_vs_flat),
            ],
        ],
    );

    let million_reps = reps.min(4);
    let (million_flat, million_hier) = time_pair(million_nodes, million_reps, 3);
    let million = MillionNodeTier {
        nodes: million_nodes,
        k: 10usize.min(million_nodes),
        shards: shards_for(million_nodes),
        reps: million_reps,
        flat_tick_micros: million_flat,
        hier_tick_micros: million_hier,
        slot_headroom: 300e6 / million_hier.max(1.0),
    };
    println!(
        "N={} tick: flat {:.0} us, hier s={} {:.0} us ({:.0}x headroom in a 5-min slot)",
        million.nodes, million_flat, million.shards, million_hier, million.slot_headroom
    );
    (tier, million)
}

fn controller_tick_bench(scale: &Scale, reps: usize) {
    let (n, k, d) = (1000, 10, 2);
    report::banner("controller-tick", "N=1000, K=10, d=2 controller tick");
    let compute = ComputeOptions {
        threads: 0,
        ..Default::default()
    };
    let tick_micros = time_ticks(n, k, d, reps, compute);
    println!("tick: {tick_micros:.0} us");
    let kmeans_scan = kmeans_scan_bench(scale);
    let (hierarchical, million_node) = hierarchical_tick_bench(scale, reps);
    let bench = ControllerBench {
        nodes: n,
        k,
        resources: d,
        reps,
        resolved: ResolvedConfig::capture(&compute),
        tick_micros,
        compute,
        kmeans_scan,
        hierarchical,
        million_node,
    };
    let dir = std::env::var("UTILCAST_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_controller.json");
    match serde_json::to_string_pretty(&bench) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
        Err(e) => eprintln!("warning: could not serialize benchmark: {e}"),
    }
}

fn main() {
    let scale = Scale::from_env(0, 64); // nodes scale the hierarchical tiers; steps = timing reps
    let reps = scale.steps.max(16);
    report::banner("scaling", "per-step controller cost vs N (K = 3)");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for &n in &[100usize, 400, 1000, 4000] {
        let trace = presets::google_like()
            .nodes(n)
            .steps(reps + 8)
            .seed(1)
            .generate();
        let mut pipeline = Pipeline::new(PipelineConfig {
            num_nodes: n,
            k: 3,
            transmission: TransmissionMode::Adaptive,
            warmup: 4,
            retrain_every: 10_000,
            ..Default::default()
        })
        .expect("valid config");
        // Warm the pipeline (first steps include allocation effects).
        for t in 0..8 {
            pipeline
                .step(&trace.snapshot(Resource::Cpu, t).expect("cpu"))
                .expect("step");
        }
        let start = Instant::now();
        for t in 8..8 + reps {
            pipeline
                .step(&trace.snapshot(Resource::Cpu, t).expect("cpu"))
                .expect("step");
        }
        let step_micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            let _ = pipeline.forecast(50).expect("forecast");
        }
        let forecast_micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        rows.push(vec![
            n.to_string(),
            format!("{step_micros:.0}"),
            format!("{forecast_micros:.0}"),
            format!("{:.0}x", 300e6 / step_micros.max(1.0)),
        ]);
        json.push(Row {
            nodes: n,
            step_micros,
            forecast_micros,
        });
    }
    report::table(
        &["nodes", "step (us)", "forecast h=50 (us)", "headroom @5min"],
        &rows,
    );
    // A run that redirects `BENCH_controller.json` (a smoke run) sends this
    // copy along, so the committed `results/scaling_report.json` stays.
    let results = std::env::var("UTILCAST_BENCH_DIR")
        .map_or_else(|_| PathBuf::from("results"), PathBuf::from);
    report::write_json_in(&results, "scaling_report", &json);

    controller_tick_bench(&scale, reps);
}
