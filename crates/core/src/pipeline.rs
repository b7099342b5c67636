//! The complete online pipeline of Fig. 2, for one resource type.
//!
//! The paper's recommended configuration clusters the *scalar* values of
//! each resource type independently (Sec. VI-C1 shows this beats joint
//! vector clustering), so [`Pipeline`] processes one scalar measurement per
//! node per step; run one pipeline per resource for multi-resource systems.
//! Joint/windowed clustering variants are available by driving
//! [`crate::cluster::DynamicClusterer`] directly.
//!
//! Per step the pipeline:
//!
//! 1. runs the nodes' transmitters to decide which fresh measurements reach
//!    the controller (the rest stay stale),
//! 2. re-clusters the stored values (masking nodes aged past
//!    [`ComputeOptions::staleness_age_limit`]) against history,
//! 3. feeds each cluster's centroid into that cluster's forecasting model
//!    (training after `warmup` observations, retraining periodically), and
//! 4. on demand, forecasts each node's future utilization as its predicted
//!    cluster's centroid forecast plus a clipped per-node offset.

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};
use utilcast_timeseries::arima::{Arima, ArimaFitOptions, ArimaGrid, ArimaOrder, AutoArima};
use utilcast_timeseries::baselines::{LongTermMean, SampleAndHold};
use utilcast_timeseries::ets::{EtsConfig, HoltWinters};
use utilcast_timeseries::lstm::{Lstm, LstmConfig};
use utilcast_timeseries::Forecaster;

use crate::cluster::SimilarityMeasure;
use crate::compute::ComputeOptions;
use crate::multi::{MultiPipeline, MultiPipelineConfig, MultiStepReport};
use crate::CoreError;

/// Which forecasting model each cluster uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum ModelSpec {
    /// Repeat the latest centroid value (the paper's simplest model).
    #[default]
    SampleAndHold,
    /// Forecast the historical mean.
    LongTermMean,
    /// Fixed-order seasonal ARIMA.
    Arima {
        /// Model order.
        order: ArimaOrder,
        /// CSS optimizer options.
        options: ArimaFitOptions,
    },
    /// AICc grid-searched ARIMA (the paper's ARIMA protocol).
    AutoArima {
        /// Candidate orders.
        grid: ArimaGrid,
        /// CSS optimizer options.
        options: ArimaFitOptions,
    },
    /// Stacked LSTM (the paper's neural model).
    Lstm(LstmConfig),
    /// Holt–Winters exponential smoothing (lightweight extension; not in
    /// the paper's evaluation but within its "ARIMA, LSTM, etc." family).
    HoltWinters(EtsConfig),
}

impl ModelSpec {
    /// Writes the spec into a checkpoint container: a variant tag, then the
    /// variant's configuration.
    pub fn encode_into(&self, out: &mut Writer) {
        match self {
            ModelSpec::SampleAndHold => out.tag(0),
            ModelSpec::LongTermMean => out.tag(1),
            ModelSpec::Arima { order, options } => {
                out.tag(2);
                order.encode_into(out);
                options.encode_into(out);
            }
            ModelSpec::AutoArima { grid, options } => {
                out.tag(3);
                grid.encode_into(out);
                options.encode_into(out);
            }
            ModelSpec::Lstm(config) => {
                out.tag(4);
                config.encode_into(out);
            }
            ModelSpec::HoltWinters(config) => {
                out.tag(5);
                config.encode_into(out);
            }
        }
    }

    /// Reads a spec written by [`ModelSpec::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(match input.tag()? {
            0 => ModelSpec::SampleAndHold,
            1 => ModelSpec::LongTermMean,
            2 => ModelSpec::Arima {
                order: ArimaOrder::decode(input)?,
                options: ArimaFitOptions::decode(input)?,
            },
            3 => ModelSpec::AutoArima {
                grid: ArimaGrid::decode(input)?,
                options: ArimaFitOptions::decode(input)?,
            },
            4 => ModelSpec::Lstm(LstmConfig::decode(input)?),
            5 => ModelSpec::HoltWinters(EtsConfig::decode(input)?),
            tag => return Err(DeError::new(format!("model spec: unknown tag {tag}"))),
        })
    }

    /// Instantiates an unfitted forecaster as a trait object.
    pub fn build(&self) -> Box<dyn Forecaster> {
        match self.build_model() {
            ClusterModel::SampleAndHold(m) => Box::new(m),
            ClusterModel::LongTermMean(m) => Box::new(m),
            ClusterModel::Arima(m) => Box::new(m),
            ClusterModel::AutoArima(m) => Box::new(m),
            ClusterModel::Lstm(m) => Box::new(m),
            ClusterModel::HoltWinters(m) => Box::new(m),
        }
    }

    /// Instantiates an unfitted forecaster as a concrete, checkpointable
    /// [`ClusterModel`] (what [`crate::stage::ForecastStage`] holds so its
    /// state can be checkpointed).
    pub fn build_model(&self) -> ClusterModel {
        match self {
            ModelSpec::SampleAndHold => ClusterModel::SampleAndHold(SampleAndHold::new()),
            ModelSpec::LongTermMean => ClusterModel::LongTermMean(LongTermMean::new()),
            ModelSpec::Arima { order, options } => {
                ClusterModel::Arima(Arima::with_options(*order, options.clone()))
            }
            ModelSpec::AutoArima { grid, options } => {
                ClusterModel::AutoArima(AutoArima::new(grid.clone(), options.clone()))
            }
            ModelSpec::Lstm(config) => ClusterModel::Lstm(Lstm::new(config.clone())),
            ModelSpec::HoltWinters(config) => ClusterModel::HoltWinters(HoltWinters::new(*config)),
        }
    }
}

/// A concrete per-cluster forecasting model: the closed sum of every model
/// [`ModelSpec`] can build. Unlike `Box<dyn Forecaster>`, the whole fitted
/// state can be written into a checkpoint container
/// ([`ClusterModel::encode_into`]), which is what makes controller
/// checkpoints possible.
// One instance exists per cluster (K ~ 10), so the size spread between
// variants (AutoArima carries its warm-start table) costs nothing in
// practice, while boxing would cost an indirection on every forecast call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterModel {
    /// Repeat the latest centroid value.
    SampleAndHold(SampleAndHold),
    /// Forecast the historical mean.
    LongTermMean(LongTermMean),
    /// Fixed-order seasonal ARIMA.
    Arima(Arima),
    /// AICc grid-searched ARIMA.
    AutoArima(AutoArima),
    /// Stacked LSTM.
    Lstm(Lstm),
    /// Holt–Winters exponential smoothing.
    HoltWinters(HoltWinters),
}

impl ClusterModel {
    /// Writes the model into a checkpoint container: the tag of the
    /// [`ModelSpec`] variant that builds it, then the fitted model.
    pub fn encode_into(&self, out: &mut Writer) {
        match self {
            ClusterModel::SampleAndHold(m) => {
                out.tag(0);
                m.encode_into(out);
            }
            ClusterModel::LongTermMean(m) => {
                out.tag(1);
                m.encode_into(out);
            }
            ClusterModel::Arima(m) => {
                out.tag(2);
                m.encode_into(out);
            }
            ClusterModel::AutoArima(m) => {
                out.tag(3);
                m.encode_into(out);
            }
            ClusterModel::Lstm(m) => {
                out.tag(4);
                m.encode_into(out);
            }
            ClusterModel::HoltWinters(m) => {
                out.tag(5);
                m.encode_into(out);
            }
        }
    }

    /// Reads a model written by [`ClusterModel::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(match input.tag()? {
            0 => ClusterModel::SampleAndHold(SampleAndHold::decode(input)?),
            1 => ClusterModel::LongTermMean(LongTermMean::decode(input)?),
            2 => ClusterModel::Arima(Arima::decode(input)?),
            3 => ClusterModel::AutoArima(AutoArima::decode(input)?),
            4 => ClusterModel::Lstm(Lstm::decode(input)?),
            5 => ClusterModel::HoltWinters(HoltWinters::decode(input)?),
            tag => return Err(DeError::new(format!("cluster model: unknown tag {tag}"))),
        })
    }
}

impl Forecaster for ClusterModel {
    fn fit(&mut self, history: &[f64]) -> Result<(), utilcast_timeseries::TimeSeriesError> {
        match self {
            ClusterModel::SampleAndHold(m) => m.fit(history),
            ClusterModel::LongTermMean(m) => m.fit(history),
            ClusterModel::Arima(m) => m.fit(history),
            ClusterModel::AutoArima(m) => m.fit(history),
            ClusterModel::Lstm(m) => m.fit(history),
            ClusterModel::HoltWinters(m) => m.fit(history),
        }
    }

    fn refit(&mut self, history: &[f64]) -> Result<(), utilcast_timeseries::TimeSeriesError> {
        match self {
            ClusterModel::SampleAndHold(m) => m.refit(history),
            ClusterModel::LongTermMean(m) => m.refit(history),
            ClusterModel::Arima(m) => m.refit(history),
            ClusterModel::AutoArima(m) => m.refit(history),
            ClusterModel::Lstm(m) => m.refit(history),
            ClusterModel::HoltWinters(m) => m.refit(history),
        }
    }

    fn forecast(
        &self,
        history: &[f64],
        horizon: usize,
    ) -> Result<Vec<f64>, utilcast_timeseries::TimeSeriesError> {
        match self {
            ClusterModel::SampleAndHold(m) => m.forecast(history, horizon),
            ClusterModel::LongTermMean(m) => m.forecast(history, horizon),
            ClusterModel::Arima(m) => m.forecast(history, horizon),
            ClusterModel::AutoArima(m) => m.forecast(history, horizon),
            ClusterModel::Lstm(m) => m.forecast(history, horizon),
            ClusterModel::HoltWinters(m) => m.forecast(history, horizon),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            ClusterModel::SampleAndHold(m) => m.name(),
            ClusterModel::LongTermMean(m) => m.name(),
            ClusterModel::Arima(m) => m.name(),
            ClusterModel::AutoArima(m) => m.name(),
            ClusterModel::Lstm(m) => m.name(),
            ClusterModel::HoltWinters(m) => m.name(),
        }
    }
}

/// How measurements travel from nodes to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TransmissionMode {
    /// The paper's Lyapunov policy (Sec. V-A).
    #[default]
    Adaptive,
    /// Fixed-interval sampling at the same average budget (Fig. 4
    /// baseline); at `budget: 1.0` every measurement is transmitted.
    Uniform,
}

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Number of local nodes `N`.
    pub num_nodes: usize,
    /// Number of clusters / forecasting models `K` (the paper's default 3).
    pub k: usize,
    /// Transmission-frequency budget `B` (the paper's default 0.3), applied
    /// to every node.
    pub budget: f64,
    /// Lyapunov `V_0` (see [`crate::transmit::TransmitConfig`] for the
    /// scaling discussion; paper: 1e-12, effective default here: 1.0).
    pub v0: f64,
    /// Lyapunov `γ` (paper: 0.65).
    pub gamma: f64,
    /// Similarity look-back `M` (paper default: 1).
    pub m: usize,
    /// Membership/offset look-back `M'` (paper default: 5).
    pub m_prime: usize,
    /// Similarity measure for cluster re-indexing.
    pub similarity: SimilarityMeasure,
    /// Transmission mode.
    pub transmission: TransmissionMode,
    /// Observations collected before the first model training
    /// (paper: 1000).
    pub warmup: usize,
    /// Retraining interval in steps (paper: 288).
    pub retrain_every: usize,
    /// Per-cluster forecasting model.
    pub model: ModelSpec,
    /// RNG seed (k-means seeding).
    pub seed: u64,
    /// Threading, warm-start and staleness knobs for the controller-side
    /// compute (see [`ComputeOptions`]); with [`ComputeOptions::shards`]
    /// `> 1` the per-step clustering runs the hierarchical two-level pass.
    pub compute: ComputeOptions,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            num_nodes: 100,
            k: 3,
            budget: 0.3,
            v0: 1.0,
            gamma: 0.65,
            m: 1,
            m_prime: 5,
            similarity: SimilarityMeasure::Intersection,
            transmission: TransmissionMode::Adaptive,
            warmup: 1000,
            retrain_every: 288,
            model: ModelSpec::SampleAndHold,
            seed: 0,
            compute: ComputeOptions::default(),
        }
    }
}

/// Report of one pipeline step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Which nodes transmitted this step.
    pub transmitted: Vec<bool>,
    /// Final cluster assignment of each node.
    pub assignments: Vec<usize>,
    /// Centroid value of each cluster.
    pub centroids: Vec<f64>,
    /// Intermediate RMSE of the stored values against their centroids.
    pub intermediate_rmse: f64,
    /// Whether any cluster model (re)trained this step.
    pub retrained: bool,
}

/// The full single-resource pipeline (see module docs): the multi-resource
/// pipeline at `d = 1`.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    inner: MultiPipeline,
}

impl Pipeline {
    /// Creates a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `num_nodes == 0`,
    /// `k == 0`, `k > num_nodes`, or the budget is outside `(0, 1]`.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        let inner = MultiPipeline::with_mode(
            MultiPipelineConfig {
                num_nodes: config.num_nodes,
                num_resources: 1,
                k: config.k,
                budget: config.budget,
                v0: config.v0,
                gamma: config.gamma,
                m: config.m,
                m_prime: config.m_prime,
                similarity: config.similarity,
                warmup: config.warmup,
                retrain_every: config.retrain_every,
                model: config.model.clone(),
                seed: config.seed,
                compute: config.compute,
            },
            config.transmission,
        )?;
        Ok(Pipeline { config, inner })
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.inner.steps()
    }

    /// The controller's current stored values `z_t`.
    ///
    /// # Panics
    ///
    /// Panics if called before the first [`Pipeline::step`].
    pub fn stored(&self) -> &[f64] {
        assert!(self.steps() > 0, "pipeline has not processed any step");
        &self.inner.stored
    }

    /// Realized average transmission frequency across all nodes so far.
    pub fn transmission_frequency(&self) -> f64 {
        self.inner.transmission_frequency()
    }

    /// Processes one time step of fresh measurements `x_t` (one scalar per
    /// node).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeCountMismatch`] for a wrong measurement
    /// count, and propagates clustering/forecasting errors. Forecaster
    /// training failures are non-fatal for baselines that cannot fail, but
    /// any error from a model's `fit` is surfaced.
    pub fn step(&mut self, x: &[f64]) -> Result<StepReport, CoreError> {
        if x.len() != self.config.num_nodes {
            return Err(CoreError::NodeCountMismatch {
                expected: self.config.num_nodes,
                got: x.len(),
            });
        }
        let MultiStepReport {
            transmitted,
            mut stages,
        } = self.inner.step_flat(x)?;
        // One resource, so one stage report.
        let stage = stages.swap_remove(0);
        Ok(StepReport {
            transmitted,
            assignments: stage.assignments.to_vec(),
            centroids: stage.centroids,
            intermediate_rmse: stage.intermediate_rmse,
            retrained: stage.retrained,
        })
    }

    /// Forecasts every node's utilization for horizons `1..=horizon`.
    /// Returns `out[h - 1][i]` = forecast of node `i` at `t + h`.
    ///
    /// During the warmup phase (before the models first train) the centroid
    /// forecast falls back to sample-and-hold, mirroring the paper's
    /// initial collection phase.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>, CoreError> {
        self.inner.stage(0).forecast(horizon)
    }

    /// The cached forecast read plane: the current-generation
    /// [`ForecastTable`](crate::table::ForecastTable), rebuilt only when
    /// the stage's inputs changed since the last call and published for
    /// concurrent readers (see [`crate::table`]). `table.node_forecast(i,
    /// h)` is bitwise identical to `forecast(H)[h][i]` at the table's
    /// horizon `H`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    // lint:allow(panic-path): fn-scope audit: a pipeline holds exactly one
    // engine (`num_resources: 1`, checked at construction); exemplar chain:
    // core::pipeline::Pipeline::forecast_table
    pub fn forecast_table(
        &mut self,
    ) -> Result<std::sync::Arc<crate::table::ForecastTable>, CoreError> {
        self.inner.engines[0].forecast_table()
    }

    /// A cloneable handle to the forecast-table publication cell for
    /// query-serving threads (see
    /// [`ForecastStage::table_handle`](crate::stage::ForecastStage::table_handle)).
    pub fn table_handle(&self) -> crate::table::TableCell {
        self.inner.stage(0).table_handle()
    }

    /// Convenience: the estimate of the *current* state (`h = 0`), which is
    /// simply the stored values (the paper defines `x̂_{i,t} := z_{i,t}`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    pub fn nowcast(&self) -> Result<Vec<f64>, CoreError> {
        if self.steps() == 0 {
            return Err(CoreError::NotStarted);
        }
        Ok(self.inner.stored.clone())
    }

    /// The centroid history observed by cluster `j`'s model so far.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    pub fn centroid_history(&self, j: usize) -> &[f64] {
        self.inner.stage(0).centroid_history(j)
    }

    /// Forecasts each cluster's centroid for horizons `1..=horizon`
    /// (`out[cluster][h - 1]`), falling back to sample-and-hold during the
    /// warmup phase. This is the raw model output before per-node offsets
    /// are applied (plotted in the paper's Fig. 8).
    pub fn forecast_centroids(&self, horizon: usize) -> Vec<Vec<f64>> {
        self.inner.stage(0).forecast_centroids(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_group_series(t: usize, i: usize, n: usize) -> f64 {
        let base = if i < n / 2 { 0.25 } else { 0.75 };
        base + 0.05 * ((t as f64) * 0.15 + i as f64).sin() * 0.2
    }

    fn quick_config(n: usize, k: usize) -> PipelineConfig {
        PipelineConfig {
            num_nodes: n,
            k,
            warmup: 10,
            retrain_every: 20,
            transmission: TransmissionMode::Uniform,
            budget: 1.0,
            ..Default::default()
        }
    }

    fn run(pipeline: &mut Pipeline, steps: usize, n: usize) {
        for t in 0..steps {
            let x: Vec<f64> = (0..n).map(|i| two_group_series(t, i, n)).collect();
            pipeline.step(&x).unwrap();
        }
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            Pipeline::new(PipelineConfig {
                num_nodes: 0,
                ..Default::default()
            }),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Pipeline::new(PipelineConfig {
                num_nodes: 2,
                k: 3,
                ..Default::default()
            }),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Pipeline::new(PipelineConfig {
                budget: 0.0,
                ..Default::default()
            }),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn node_count_mismatch_detected() {
        let mut p = Pipeline::new(quick_config(4, 2)).unwrap();
        assert!(matches!(
            p.step(&[0.1, 0.2]),
            Err(CoreError::NodeCountMismatch {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn first_step_transmits_everything() {
        let mut p = Pipeline::new(PipelineConfig {
            transmission: TransmissionMode::Adaptive,
            budget: 0.1,
            ..quick_config(6, 2)
        })
        .unwrap();
        let report = p.step(&[0.1, 0.2, 0.3, 0.7, 0.8, 0.9]).unwrap();
        assert!(report.transmitted.iter().all(|&b| b));
        assert_eq!(p.stored(), &[0.1, 0.2, 0.3, 0.7, 0.8, 0.9]);
    }

    #[test]
    fn forecast_before_any_step_errors() {
        let p = Pipeline::new(quick_config(4, 2)).unwrap();
        assert!(matches!(p.forecast(1), Err(CoreError::NotStarted)));
        assert!(matches!(p.nowcast(), Err(CoreError::NotStarted)));
    }

    #[test]
    fn forecast_shape_and_fallback_during_warmup() {
        let mut p = Pipeline::new(quick_config(6, 2)).unwrap();
        run(&mut p, 3, 6); // fewer steps than warmup
        let fc = p.forecast(4).unwrap();
        assert_eq!(fc.len(), 4);
        assert_eq!(fc[0].len(), 6);
        // Sample-and-hold fallback: forecasts are close to current values.
        let now = p.nowcast().unwrap();
        for i in 0..6 {
            assert!((fc[0][i] - now[i]).abs() < 0.2);
        }
    }

    #[test]
    fn two_groups_forecast_reasonably() {
        let n = 10;
        let mut p = Pipeline::new(quick_config(n, 2)).unwrap();
        run(&mut p, 60, n);
        let fc = p.forecast(3).unwrap();
        // Low-group nodes forecast near 0.25, high-group near 0.75.
        for (i, got) in fc[2].iter().enumerate().take(n) {
            let expected = if i < n / 2 { 0.25 } else { 0.75 };
            assert!(
                (got - expected).abs() < 0.15,
                "node {i}: forecast {got} vs expected {expected}"
            );
        }
    }

    #[test]
    fn hierarchical_pipeline_forecasts_like_flat() {
        // End to end: the two-level clustering drops into the pipeline via
        // ComputeOptions and still recovers the two utilization groups.
        let n = 10;
        let mut flat = Pipeline::new(quick_config(n, 2)).unwrap();
        let mut hier = Pipeline::new(PipelineConfig {
            compute: ComputeOptions {
                shards: 4,
                threads: 2,
                ..Default::default()
            },
            ..quick_config(n, 2)
        })
        .unwrap();
        run(&mut flat, 60, n);
        run(&mut hier, 60, n);
        let a = flat.forecast(3).unwrap();
        let b = hier.forecast(3).unwrap();
        for i in 0..n {
            let expected = if i < n / 2 { 0.25 } else { 0.75 };
            assert!(
                (b[2][i] - expected).abs() < 0.15,
                "node {i}: hierarchical forecast {} vs expected {expected}",
                b[2][i]
            );
            assert!(
                (a[2][i] - b[2][i]).abs() < 0.1,
                "node {i}: flat {} vs hierarchical {}",
                a[2][i],
                b[2][i]
            );
        }
    }

    #[test]
    fn models_retrain_on_schedule() {
        let n = 6;
        let mut p = Pipeline::new(quick_config(n, 2)).unwrap();
        let mut retrain_steps = Vec::new();
        for t in 0..55 {
            let x: Vec<f64> = (0..n).map(|i| two_group_series(t, i, n)).collect();
            let report = p.step(&x).unwrap();
            if report.retrained {
                retrain_steps.push(t + 1); // 1-based step count
            }
        }
        // Warmup 10, then every 20: trainings at steps 10, 30, 50.
        assert_eq!(retrain_steps, vec![10, 30, 50]);
    }

    #[test]
    fn budget_is_respected_with_adaptive_transmission() {
        let n = 20;
        let budget = 0.3;
        let mut p = Pipeline::new(PipelineConfig {
            transmission: TransmissionMode::Adaptive,
            budget,
            warmup: 10_000, // never train; we only test transmission
            ..quick_config(n, 3)
        })
        .unwrap();
        // Noisy data so transmission is actually demanded.
        for t in 0..800 {
            let x: Vec<f64> = (0..n)
                .map(|i| 0.5 + 0.3 * ((t * (i + 3)) as f64 * 0.37).sin())
                .collect();
            p.step(&x).unwrap();
        }
        let freq = p.transmission_frequency();
        // Allow the first-step burst plus queue slack.
        assert!(freq <= budget + 0.05, "realized frequency {freq}");
    }

    #[test]
    fn intermediate_rmse_reported_and_small_for_tight_groups() {
        let n = 8;
        let mut p = Pipeline::new(quick_config(n, 2)).unwrap();
        let x: Vec<f64> = (0..n).map(|i| if i < 4 { 0.2 } else { 0.8 }).collect();
        let report = p.step(&x).unwrap();
        assert!(report.intermediate_rmse < 1e-9, "tight groups -> ~0 error");
        assert_eq!(report.centroids.len(), 2);
    }

    #[test]
    fn centroid_history_accumulates() {
        let n = 6;
        let mut p = Pipeline::new(quick_config(n, 2)).unwrap();
        run(&mut p, 12, n);
        assert_eq!(p.centroid_history(0).len(), 12);
        assert_eq!(p.centroid_history(1).len(), 12);
    }

    #[test]
    fn uniform_mode_matches_budget_exactly() {
        let n = 4;
        let mut p = Pipeline::new(PipelineConfig {
            transmission: TransmissionMode::Uniform,
            budget: 0.25,
            warmup: 10_000,
            ..quick_config(n, 2)
        })
        .unwrap();
        for t in 0..400 {
            let x: Vec<f64> = (0..n).map(|i| two_group_series(t, i, n)).collect();
            p.step(&x).unwrap();
        }
        // First step transmits all; afterwards exactly every 4th step.
        let freq = p.transmission_frequency();
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }
}
