//! Forecast-training hot-path report: wall-clock cost of the per-cluster
//! retrain (LSTM fit + auto-ARIMA grid search) and of the steady-state
//! controller tick with synchronized and staggered retraining.
//!
//! The auto-ARIMA search is timed both ways: `ArimaFitOptions::baseline()`
//! with a fresh warm table per retrain (the exhaustive cold grid search)
//! against `auto_arima_warm` with a persistent warm-start table and CSS
//! grid pruning. Results are written to `BENCH_forecast.json` (in
//! `UTILCAST_BENCH_DIR`, default the working directory) so the numbers are
//! tracked in-repo.
//!
//! Scale knobs: `UTILCAST_STEPS` = successive retrains to simulate
//! (default 6), `UTILCAST_NODES` = nodes in the tick section (default
//! 1000). The `scripts/check.sh` smoke mode shrinks both and redirects the
//! output directory so quick runs never clobber the committed numbers.

use std::time::Instant;

use serde::Serialize;
use utilcast_bench::report::ResolvedConfig;
use utilcast_bench::{report, Scale};
use utilcast_core::compute::ComputeOptions;
use utilcast_core::multi::{MultiPipeline, MultiPipelineConfig};
use utilcast_core::pipeline::ModelSpec;
use utilcast_timeseries::arima::{auto_arima_warm, ArimaFitOptions, ArimaGrid, ArimaWarmStart};
use utilcast_timeseries::lstm::{Lstm, LstmConfig};
use utilcast_timeseries::Forecaster;

/// Clusters per resource, matching the paper-scale `K = 10` workload.
const K: usize = 10;
/// Centroid history length at the first retrain.
const BASE_HISTORY: usize = 120;
/// New observations arriving between successive retrains.
const GROWTH_PER_RETRAIN: usize = 6;

/// The grid the retrain benchmarks search: the paper's non-seasonal order
/// ranges (`p, q ∈ [0, 5]`) with `d ∈ [0, 1]` — 72 candidate orders, the
/// paper's selection protocol at a series length where `d = 2` never wins.
/// (The tick benchmark below keeps the pipeline's default quick grid.)
fn bench_grid() -> ArimaGrid {
    ArimaGrid {
        p: (0..=5).collect(),
        d: (0..=1).collect(),
        q: (0..=5).collect(),
        ..ArimaGrid::quick()
    }
}

/// One auto-ARIMA search, cold exhaustive vs warm-started + pruned.
#[derive(Serialize)]
struct ColdWarm {
    cold_micros: f64,
    warm_micros: f64,
    speedup: f64,
}

/// Per-tick latency statistics over a window that includes retrain steps.
#[derive(Serialize)]
struct TickStats {
    mean_micros: f64,
    max_micros: f64,
}

/// One LSTM fit at one hidden width, with a gemv-dominated GFLOP/s
/// estimate.
#[derive(Serialize)]
struct LstmFitRow {
    hidden: usize,
    micros: f64,
    gflops: f64,
}

/// The full report serialized to `BENCH_forecast.json`.
#[derive(Serialize)]
struct ForecastBench {
    nodes: usize,
    k: usize,
    resources: usize,
    retrains: usize,
    history_len: usize,
    /// Compute configuration the benchmark resolved to.
    resolved: ResolvedConfig,
    /// Single LSTM fit per hidden width.
    lstm_fit: Vec<LstmFitRow>,
    /// Single auto-ARIMA grid search: cold exhaustive vs warm-started +
    /// pruned.
    arima_grid: ColdWarm,
    /// Full per-cluster retrain (LSTM fit + warm auto-ARIMA grid) in
    /// microseconds, averaged over `retrains` successive retrains across
    /// `K` clusters.
    cluster_retrain_micros: f64,
    /// N-node, d-resource controller tick with synchronized retraining.
    tick_synchronized: TickStats,
    /// The same workload with `retrain_stagger` enabled: per-cluster
    /// retrains phase-offset across the interval, shrinking the worst tick.
    tick_staggered: TickStats,
}

/// Deterministic utilization-like centroid history for cluster `j`: banded
/// base load, slow seasonality, and small hash jitter — no RNG, so reruns
/// are exactly reproducible.
fn centroid_series(j: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|t| {
            let base = 0.2 + 0.06 * j as f64;
            let wave = ((t as f64) * 0.07 + j as f64).sin() * 0.08;
            let jitter = (((t * 31 + j * 131) % 97) as f64 / 97.0 - 0.5) * 0.04;
            (base + wave + jitter).clamp(0.0, 1.0)
        })
        .collect()
}

/// LSTM sized like a per-centroid forecaster.
fn bench_lstm_config(hidden: usize, seed: u64) -> LstmConfig {
    LstmConfig {
        window: 12,
        hidden,
        layers: 2,
        epochs: 12,
        learning_rate: 0.01,
        grad_clip: 1.0,
        seed,
    }
}

/// Hidden width of the per-cluster retrain benchmark's LSTM.
const RETRAIN_HIDDEN: usize = 12;

/// Minimum wall-clock microseconds of `f` over `passes` runs — the
/// standard minimum-time estimator, discarding scheduler interference
/// instead of averaging it in.
fn min_time_micros(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Gemv-dominated flop estimate for one LSTM fit: per epoch, per sliding
/// window sample, per step, per layer, the forward pass runs two dense
/// `4h x in` / `4h x h` gemvs and the backward pass a matching
/// `gemv_t` + `rank1` pair — ≈ `3 · 2 · 4h(in + h)` flops per step-layer.
fn lstm_fit_flops(c: &LstmConfig, history_len: usize) -> f64 {
    let samples = history_len.saturating_sub(c.window) as f64;
    let h = c.hidden as f64;
    let per_step: f64 = (0..c.layers)
        .map(|l| {
            let input = if l == 0 { 1.0 } else { h };
            3.0 * 2.0 * 4.0 * h * (input + h)
        })
        .sum();
    c.epochs as f64 * samples * c.window as f64 * per_step
}

/// One LSTM fit on a full-length history per hidden width, minimum-time
/// over three passes each.
fn lstm_fit_bench(history: &[f64]) -> Vec<LstmFitRow> {
    [RETRAIN_HIDDEN, 32]
        .iter()
        .map(|&hidden| {
            let config = bench_lstm_config(hidden, 1);
            let micros = min_time_micros(3, || {
                let mut model = Lstm::new(config.clone());
                model.fit(history).expect("lstm fit");
                std::hint::black_box(model.train_mse());
            });
            LstmFitRow {
                hidden,
                micros,
                gflops: lstm_fit_flops(&config, history.len()) / micros.max(1e-9) * 1e-3,
            }
        })
        .collect()
}

/// One auto-ARIMA grid search at retrain time: the cold side re-runs the
/// exhaustive search; the warm side starts from the previous retrain's
/// solutions (seeded here by fitting the history minus the newest
/// observations) and prunes the grid.
fn arima_grid_bench(history: &[f64]) -> ColdWarm {
    let grid = bench_grid();
    let cold = min_time_micros(3, || {
        let mut fresh = ArimaWarmStart::default();
        let model = auto_arima_warm(history, &grid, &ArimaFitOptions::baseline(), &mut fresh);
        std::hint::black_box(model.expect("cold auto_arima").aicc());
    });
    let prev = &history[..history.len() - GROWTH_PER_RETRAIN];
    let mut seeded = ArimaWarmStart::default();
    auto_arima_warm(prev, &grid, &ArimaFitOptions::default(), &mut seeded)
        .expect("warm-table seed fit");
    let warm = min_time_micros(3, || {
        let mut table = seeded.clone();
        let model = auto_arima_warm(history, &grid, &ArimaFitOptions::default(), &mut table);
        std::hint::black_box(model.expect("warm auto_arima").aicc());
    });
    ColdWarm {
        cold_micros: cold,
        warm_micros: warm,
        speedup: cold / warm.max(1e-9),
    }
}

/// `retrains` successive retrain rounds over `K` clusters, each retrain
/// fitting the cluster's LSTM and re-running the warm auto-ARIMA grid on the
/// grown history — exactly the controller's per-cluster retrain work.
/// Returns microseconds per single cluster retrain.
fn cluster_retrain_bench(retrains: usize) -> f64 {
    let grid = bench_grid();
    // One extra untimed round warms the per-cluster tables, so the timed
    // region measures steady-state retrains.
    let rounds = retrains + 1;
    let full_len = BASE_HISTORY + rounds * GROWTH_PER_RETRAIN;
    let histories: Vec<Vec<f64>> = (0..K).map(|j| centroid_series(j, full_len)).collect();
    let mut tables: Vec<ArimaWarmStart> = vec![ArimaWarmStart::default(); K];
    for (j, series) in histories.iter().enumerate() {
        auto_arima_warm(
            &series[..BASE_HISTORY],
            &grid,
            &ArimaFitOptions::default(),
            &mut tables[j],
        )
        .expect("warm-up fit");
    }
    let total = min_time_micros(1, || {
        for r in 1..rounds {
            let len = BASE_HISTORY + r * GROWTH_PER_RETRAIN;
            for (j, series) in histories.iter().enumerate() {
                let history = &series[..len];
                let mut lstm = Lstm::new(bench_lstm_config(RETRAIN_HIDDEN, j as u64));
                lstm.fit(history).expect("lstm fit");
                let arima =
                    auto_arima_warm(history, &grid, &ArimaFitOptions::default(), &mut tables[j]);
                std::hint::black_box((lstm.train_mse(), arima.expect("warm arima").aicc()));
            }
        }
    });
    total / (retrains * K) as f64
}

/// Deterministic synthetic measurement for node `i`, resource `r`, step
/// `t` (same regime as the controller scaling report).
fn measurement(i: usize, r: usize, t: usize) -> f64 {
    let band = (i % 10) as f64 / 10.0;
    let drift = ((t as f64 * 0.01) + (r as f64)).sin() * 0.03;
    let jitter = (((i * 31 + r * 7) % 100) as f64 / 100.0 - 0.5) * 0.02;
    (band + 0.05 + drift + jitter).clamp(0.0, 1.0)
}

/// Per-tick latency of the `N`-node, `d = 2`, `K = 10` controller running
/// the paper's auto-ARIMA protocol, over a window spanning a full retrain
/// cycle so the retrain spikes land inside the measurement.
fn tick_bench(nodes: usize, stagger: bool) -> TickStats {
    let (d, warmup, retrain_every) = (2, 24, 30);
    let mut mp = MultiPipeline::new(MultiPipelineConfig {
        num_nodes: nodes,
        num_resources: d,
        k: K.min(nodes),
        warmup,
        retrain_every,
        model: ModelSpec::AutoArima {
            grid: ArimaGrid::quick(),
            options: ArimaFitOptions::default(),
        },
        compute: ComputeOptions {
            retrain_stagger: stagger,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("valid config");
    let measured = warmup + 2 * retrain_every;
    let inputs: Vec<Vec<Vec<f64>>> = (0..measured)
        .map(|t| {
            (0..nodes)
                .map(|i| (0..d).map(|r| measurement(i, r, t)).collect())
                .collect()
        })
        .collect();
    let mut total = 0.0;
    let mut max = 0.0f64;
    for x in &inputs {
        let start = Instant::now();
        mp.step(x).expect("step");
        let micros = start.elapsed().as_secs_f64() * 1e6;
        total += micros;
        max = max.max(micros);
    }
    TickStats {
        mean_micros: total / measured as f64,
        max_micros: max,
    }
}

fn main() {
    let scale = Scale::from_env(1000, 6);
    let retrains = scale.steps.clamp(2, 32);
    let nodes = scale.nodes.max(K);
    let history_len = BASE_HISTORY + retrains * GROWTH_PER_RETRAIN;
    let history = centroid_series(0, history_len);

    report::banner("forecast-hot-path", "per-cluster retrain + controller tick");

    let lstm_fit = lstm_fit_bench(&history);
    let arima_grid = arima_grid_bench(&history);
    let cluster_retrain_micros = cluster_retrain_bench(retrains);
    let tick_synchronized = tick_bench(nodes, false);
    let tick_staggered = tick_bench(nodes, true);

    report::table(
        &["hidden", "lstm fit (us)", "GFLOP/s"],
        &lstm_fit
            .iter()
            .map(|r| {
                vec![
                    r.hidden.to_string(),
                    format!("{:.0}", r.micros),
                    format!("{:.2}", r.gflops),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "auto-arima grid: cold {:.0} us, warm {:.0} us ({:.1}x); cluster retrain {:.0} us",
        arima_grid.cold_micros, arima_grid.warm_micros, arima_grid.speedup, cluster_retrain_micros
    );
    report::table(
        &["tick schedule", "mean (us)", "max (us)"],
        &[
            vec![
                "synchronized".into(),
                format!("{:.0}", tick_synchronized.mean_micros),
                format!("{:.0}", tick_synchronized.max_micros),
            ],
            vec![
                "staggered".into(),
                format!("{:.0}", tick_staggered.mean_micros),
                format!("{:.0}", tick_staggered.max_micros),
            ],
        ],
    );

    let bench = ForecastBench {
        nodes,
        k: K,
        resources: 2,
        retrains,
        history_len,
        resolved: ResolvedConfig::capture(&ComputeOptions::default()),
        lstm_fit,
        arima_grid,
        cluster_retrain_micros,
        tick_synchronized,
        tick_staggered,
    };
    let dir = std::env::var("UTILCAST_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_forecast.json");
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
