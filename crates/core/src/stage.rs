//! The controller-side forecast stage: dynamic clustering + per-cluster
//! models + membership/offset bookkeeping for **one** scalar resource, and
//! the forecast read plane built from them.
//!
//! This is the model half of the central node of Fig. 2. Every driver
//! reaches it through [`crate::central::CentralNode`], the one controller
//! engine, which hands it the stored — possibly masked — values per tick.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize};
use utilcast_clustering::parallel::{chunk_len, resolve_threads};
use utilcast_linalg::container::{Reader, Writer};
use utilcast_linalg::Matrix;
use utilcast_timeseries::baselines::SampleAndHold;
use utilcast_timeseries::harness::{RetrainPolicy, RetrainState, RetrainingForecaster};
use utilcast_timeseries::Forecaster;

use crate::cluster::{
    ClustererSnapshot, DynamicClusterer, DynamicClustererConfig, SimilarityMeasure,
};
use crate::compute::ComputeOptions;
use crate::pipeline::{ClusterModel, ModelSpec};
use crate::table::{
    assemble_forecast, interval_half_widths, resolve_nodes_reusing, ForecastTable, NodeResolution,
    TableCell, TermCache, WindowStep, INTERVAL_WINDOW,
};
use crate::CoreError;

/// Configuration of one forecast stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForecastStageConfig {
    /// Number of local nodes `N`.
    pub num_nodes: usize,
    /// Number of clusters / models `K`.
    pub k: usize,
    /// Similarity look-back `M`.
    pub m: usize,
    /// Membership/offset look-back `M'`.
    pub m_prime: usize,
    /// Similarity measure for re-indexing.
    pub similarity: SimilarityMeasure,
    /// Observations before the first model training.
    pub warmup: usize,
    /// Retraining interval in steps.
    pub retrain_every: usize,
    /// Per-cluster forecasting model.
    pub model: ModelSpec,
    /// K-means seed.
    pub seed: u64,
    /// Threading and warm-start knobs for the per-step clustering and the
    /// per-cluster retraining (see [`ComputeOptions`]); with
    /// [`ComputeOptions::shards`] `> 1` the per-step clustering runs the
    /// hierarchical two-level pass.
    pub compute: ComputeOptions,
}

impl ForecastStageConfig {
    fn encode_into(&self, out: &mut Writer) {
        for v in [self.num_nodes, self.k, self.m, self.m_prime] {
            out.usize(v);
        }
        self.similarity.encode_into(out);
        out.usize(self.warmup);
        out.usize(self.retrain_every);
        self.model.encode_into(out);
        out.u64(self.seed);
        self.compute.encode_into(out);
    }

    fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(ForecastStageConfig {
            num_nodes: input.usize()?,
            k: input.usize()?,
            m: input.usize()?,
            m_prime: input.usize()?,
            similarity: SimilarityMeasure::decode(input)?,
            warmup: input.usize()?,
            retrain_every: input.usize()?,
            model: ModelSpec::decode(input)?,
            seed: input.u64()?,
            compute: ComputeOptions::decode(input)?,
        })
    }
}

impl Default for ForecastStageConfig {
    fn default() -> Self {
        ForecastStageConfig {
            num_nodes: 100,
            k: 3,
            m: 1,
            m_prime: 5,
            similarity: SimilarityMeasure::Intersection,
            warmup: 1000,
            retrain_every: 288,
            model: ModelSpec::SampleAndHold,
            seed: 0,
            compute: ComputeOptions::default(),
        }
    }
}

/// One recorded step of controller state. The per-node values live in one
/// contiguous `n x 1` [`Matrix`] (this stage is scalar) rather than a
/// `Vec<Vec<f64>>`: the buffer is recycled between the snapshot falling
/// out of the look-back window and the next step's clustering input, so
/// the steady state allocates nothing per step.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    values: Matrix,
    centroids: Vec<Vec<f64>>,
    assignments: Vec<usize>,
}

impl Snapshot {
    fn encode_into(&self, out: &mut Writer) {
        self.values.encode_into(out);
        out.seq(&self.centroids, |out, c| out.f64s(c));
        out.labels(&self.assignments);
    }

    fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(Snapshot {
            values: Matrix::decode(input)?,
            centroids: input.seq(Reader::f64s)?,
            assignments: input.labels()?,
        })
    }

    /// Checks a deserialized snapshot against the shape every snapshot
    /// recorded by [`ForecastStage::step`] has — `n` scalar values, `k`
    /// one-value centroids, `n` labels below `k` — which is what
    /// [`crate::table::resolve_nodes`] indexes by. `index` is the
    /// snapshot's position in the checkpoint's history, for the error
    /// message.
    fn validate(&self, index: usize, n: usize, k: usize) -> Result<(), CoreError> {
        let invalid = |what: String| {
            Err(CoreError::InvalidConfig {
                reason: format!("snapshot history[{index}].{what}"),
            })
        };
        let (rows, cols, len) = (
            self.values.nrows(),
            self.values.ncols(),
            self.values.as_slice().len(),
        );
        if rows != n || cols != 1 || len != n {
            return invalid(format!(
                "values is {rows} x {cols} over {len} numbers (expected {n} x 1)"
            ));
        }
        if self.centroids.len() != k {
            return invalid(format!(
                "centroids holds {} centroids for k = {k}",
                self.centroids.len()
            ));
        }
        if let Some((j, c)) = self
            .centroids
            .iter()
            .enumerate()
            .find(|(_, c)| c.len() != 1)
        {
            return invalid(format!(
                "centroids[{j}] has {} values (expected 1)",
                c.len()
            ));
        }
        if self.assignments.len() != n {
            return invalid(format!(
                "assignments holds {} labels for {n} nodes",
                self.assignments.len()
            ));
        }
        if let Some((i, label)) = self.assignments.iter().enumerate().find(|(_, &a)| a >= k) {
            return invalid(format!(
                "assignments[{i}] = {label} is out of range (k = {k})"
            ));
        }
        Ok(())
    }
}

/// One forecaster's checkpoint: the fitted model plus its harness state.
#[derive(Debug, Clone, PartialEq)]
struct ForecasterSnapshot {
    model: ClusterModel,
    state: RetrainState,
}

/// Serializable checkpoint of a whole [`ForecastStage`]: configuration,
/// cluster/membership history, per-cluster centroid histories and fitted
/// models, retrain counters, and degraded-mode bookkeeping. Produced by
/// [`ForecastStage::snapshot`], consumed by [`ForecastStage::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    config: ForecastStageConfig,
    clusterer: ClustererSnapshot,
    forecasters: Vec<ForecasterSnapshot>,
    history: Vec<Snapshot>,
    t: usize,
    degraded: Vec<bool>,
    model_fallbacks: u64,
    fallback_fit_failures: u64,
    /// Read-plane bookkeeping (the table itself is derived state, rebuilt
    /// after a restore).
    generation: u64,
    table_rebuilds: u64,
    reads_served: u64,
}

impl StageSnapshot {
    /// Writes the stage checkpoint into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        self.config.encode_into(out);
        self.clusterer.encode_into(out);
        out.seq(&self.forecasters, |out, f| {
            f.model.encode_into(out);
            f.state.encode_into(out);
        });
        out.seq(&self.history, |out, s| s.encode_into(out));
        out.usize(self.t);
        out.seq(&self.degraded, |out, &d| out.bool(d));
        for v in [
            self.model_fallbacks,
            self.fallback_fit_failures,
            self.generation,
            self.table_rebuilds,
            self.reads_served,
        ] {
            out.u64(v);
        }
    }

    /// Reads a stage checkpoint written by [`StageSnapshot::encode_into`].
    /// Its shapes are checked by [`ForecastStage::restore`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(StageSnapshot {
            config: ForecastStageConfig::decode(input)?,
            clusterer: ClustererSnapshot::decode(input)?,
            forecasters: input.seq(|input| {
                Ok(ForecasterSnapshot {
                    model: ClusterModel::decode(input)?,
                    state: RetrainState::decode(input)?,
                })
            })?,
            history: input.seq(Snapshot::decode)?,
            t: input.usize()?,
            degraded: input.seq(Reader::bool)?,
            model_fallbacks: input.u64()?,
            fallback_fit_failures: input.u64()?,
            generation: input.u64()?,
            table_rebuilds: input.u64()?,
            reads_served: input.u64()?,
        })
    }
}

/// Report of one stage step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Final cluster assignment of each node. Shared with the stage, which
    /// writes the next step's labels into the same buffer once every report
    /// holding it is dropped.
    pub assignments: Arc<[usize]>,
    /// Scalar centroid of each cluster.
    pub centroids: Vec<f64>,
    /// Intermediate RMSE of the stage's input values vs their centroids.
    pub intermediate_rmse: f64,
    /// Whether any cluster model (re)trained this step.
    pub retrained: bool,
    /// Sample-and-hold stand-in fits that failed while degrading clusters
    /// this step (see [`ForecastStage::fallback_fit_failures`]).
    pub fallback_fit_failures: u64,
    /// Cumulative forecast-table rebuilds so far (see
    /// [`ForecastStage::forecast_table_rebuilds`]). Zero in runs that never
    /// query the read plane. Absent from old serialized reports, which
    /// deserialize to zero.
    #[serde(default)]
    pub forecast_table_rebuilds: u64,
    /// Cumulative table reads served so far (see
    /// [`ForecastStage::forecast_reads_served`]). Zero in runs that never
    /// query the read plane. Absent from old serialized reports, which
    /// deserialize to zero.
    #[serde(default)]
    pub forecast_reads_served: u64,
}

/// What happened when one cluster's forecaster observed its centroid.
#[derive(Debug, Clone, Copy)]
enum ObserveOutcome {
    /// `observe` succeeded; `did_train` reports a (re)train and `finite`
    /// whether the freshly trained model produces a finite one-step
    /// forecast (`true` when no training happened).
    Observed { did_train: bool, finite: bool },
    /// `observe` reported a fit failure.
    Failed,
}

/// Observes `values[j]` on forecaster `j`. Each call touches only its own
/// forecaster, so this is a pure per-cluster function safe to run on any
/// thread.
fn observe_one(f: &mut RetrainingForecaster<ClusterModel>, value: f64) -> ObserveOutcome {
    match f.observe(value) {
        Ok(did_train) => {
            let finite = !did_train
                || match f.forecast(1) {
                    Ok(fc) => fc.iter().all(|v| v.is_finite()),
                    // NotFitted/TooShort are handled by forecast_or_hold
                    // at use time; only a produced non-finite value
                    // triggers degradation.
                    Err(_) => true,
                };
            ObserveOutcome::Observed { did_train, finite }
        }
        Err(_) => ObserveOutcome::Failed,
    }
}

/// Whether `f`'s next [`RetrainingForecaster::observe`] (re)trains, by the
/// rule it applies: the first fit once the history reaches the warmup, a
/// refit once `retrain_every` observations followed the last one. A fit
/// may still decline (a model that reports the history too short), so
/// this only schedules the fan-out below, never an outcome.
fn trains_next(f: &RetrainingForecaster<ClusterModel>) -> bool {
    let policy = f.policy();
    if f.is_trained() {
        f.since_train() + 1 >= policy.retrain_every
    } else {
        f.history().len() + 1 >= policy.warmup
    }
}

/// Runs [`observe_one`] for every cluster. The clusters that train this
/// step fan out over scoped threads when `workers > 1` and at least two of
/// them train; every other observation is a push onto a history and runs
/// inline. Outcomes are returned in cluster order regardless of which
/// thread produced them.
fn observe_all(
    forecasters: &mut [RetrainingForecaster<ClusterModel>],
    values: &[f64],
    workers: usize,
) -> Vec<ObserveOutcome> {
    let fan_out = workers > 1 && forecasters.iter().filter(|f| trains_next(f)).count() > 1;
    if !fan_out {
        return forecasters
            .iter_mut()
            .zip(values)
            .map(|(f, &v)| observe_one(f, v))
            .collect();
    }
    let mut outcomes: Vec<Option<ObserveOutcome>> = vec![None; forecasters.len()];
    let mut fits = Vec::new();
    for ((f, &v), out) in forecasters.iter_mut().zip(values).zip(&mut outcomes) {
        if trains_next(f) {
            fits.push((f, v, out));
        } else {
            *out = Some(observe_one(f, v));
        }
    }
    let chunk = chunk_len(fits.len(), workers);
    std::thread::scope(|scope| {
        for fits in fits.chunks_mut(chunk) {
            scope.spawn(move || {
                for (f, v, out) in fits {
                    **out = Some(observe_one(f, *v));
                }
            });
        }
    });
    // Every observation writes its slot, inline or before the scope joins;
    // an unfilled slot is unreachable, and mapping it to `Failed` (which
    // degrades that cluster to sample-and-hold) keeps this path
    // panic-free.
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or(ObserveOutcome::Failed))
        .collect()
}

/// The per-resource controller stage (see module docs).
pub struct ForecastStage {
    config: ForecastStageConfig,
    clusterer: DynamicClusterer,
    forecasters: Vec<RetrainingForecaster<ClusterModel>>,
    history: VecDeque<Snapshot>,
    t: usize,
    /// Clusters currently running on the sample-and-hold stand-in after a
    /// primary-model failure.
    degraded: Vec<bool>,
    /// Total fallback activations (initial degradations plus failed
    /// recovery attempts).
    model_fallbacks: u64,
    /// Times the sample-and-hold stand-in itself failed to fit while
    /// degrading a cluster — the cluster then keeps its broken primary and
    /// forecasts hold the last observation.
    fallback_fit_failures: u64,
    /// Monotone input-version counter for the read plane: bumped whenever
    /// anything a [`ForecastTable`] is derived from changes (every step
    /// slides the membership/offset window; retrains, fallback activations
    /// and recoveries swap models mid-bookkeeping). A published table is
    /// fresh exactly while its generation matches.
    generation: u64,
    /// Times [`ForecastStage::forecast_table`] actually rebuilt (cache
    /// misses; hits serve the published table untouched).
    table_rebuilds: u64,
    /// The publication cell readers clone handles of; also owns the
    /// reads-served counter so detached readers and the stage share one
    /// total.
    cell: TableCell,
    /// Snapshots `history` has received in this instance, the restored
    /// ones included: `history[s]` is number `recorded − s`, the stamp its
    /// cached Eq. 12 terms are keyed by. On a stage built by `new` it is
    /// the stage tick `t` at which the snapshot was recorded, until a step
    /// fails after advancing `t` (a clustering error records no snapshot)
    /// — which is why the stamp counts recordings rather than reading `t`.
    /// Not checkpointed.
    recorded: usize,
    /// The clipped Eq. 12 terms of the last [`ForecastStage::forecast_table`]
    /// rebuild, reused by the next one for the window steps and nodes that
    /// did not change (see [`TermCache`]). Derived state, not checkpointed.
    terms: TermCache,
    /// The labels buffer the last [`StageReport`] shares; the next step
    /// overwrites it in place when that report is gone, so a caller that
    /// drops its reports costs no per-step label allocation.
    report_labels: Arc<[usize]>,
}

impl std::fmt::Debug for ForecastStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForecastStage")
            .field("config", &self.config)
            .field("steps", &self.t)
            .finish_non_exhaustive()
    }
}

impl ForecastStage {
    /// Creates a stage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `num_nodes == 0` or `k` is
    /// outside `[1, num_nodes]`.
    pub fn new(config: ForecastStageConfig) -> Result<Self, CoreError> {
        if config.num_nodes == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "num_nodes must be positive".into(),
            });
        }
        if config.k == 0 || config.k > config.num_nodes {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "k must be within [1, num_nodes]; got k = {}, num_nodes = {}",
                    config.k, config.num_nodes
                ),
            });
        }
        let clusterer = DynamicClusterer::new(DynamicClustererConfig {
            k: config.k,
            m: config.m,
            similarity: config.similarity,
            seed: config.seed,
            compute: config.compute,
            ..Default::default()
        });
        let forecasters = (0..config.k)
            .map(|j| {
                // With staggered retraining, cluster j's first training is
                // delayed by j/K of the retrain interval; the retrain clock
                // starts from the first training, so the phase offset
                // persists and at most ~one model refits per tick. The
                // schedule depends only on the step counter, never on
                // thread timing.
                let offset = if config.compute.retrain_stagger {
                    (j * config.retrain_every) / config.k
                } else {
                    0
                };
                let policy = RetrainPolicy {
                    warmup: config.warmup + offset,
                    retrain_every: config.retrain_every,
                    max_train_window: None,
                };
                RetrainingForecaster::new(config.model.build_model(), policy)
            })
            .collect();
        Ok(ForecastStage {
            degraded: vec![false; config.k],
            model_fallbacks: 0,
            fallback_fit_failures: 0,
            generation: 0,
            table_rebuilds: 0,
            cell: TableCell::new(),
            recorded: 0,
            terms: TermCache::default(),
            report_labels: Arc::from(Vec::new()),
            config,
            clusterer,
            forecasters,
            history: VecDeque::new(),
            t: 0,
        })
    }

    /// Captures the complete stage state for checkpointing.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            config: self.config.clone(),
            clusterer: self.clusterer.snapshot(),
            forecasters: self
                .forecasters
                .iter()
                .map(|f| ForecasterSnapshot {
                    model: f.model().clone(),
                    state: f.state(),
                })
                .collect(),
            history: self.history.iter().cloned().collect(),
            t: self.t,
            degraded: self.degraded.clone(),
            model_fallbacks: self.model_fallbacks,
            fallback_fit_failures: self.fallback_fit_failures,
            generation: self.generation,
            table_rebuilds: self.table_rebuilds,
            reads_served: self.cell.reads_served(),
        }
    }

    /// Rebuilds a stage from a checkpoint. The restored stage replays
    /// bit-identically to the original from the snapshot point on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the embedded configuration
    /// is invalid, the snapshot's per-cluster vectors do not match `k`, or
    /// the look-back history is longer than `m_prime + 1` snapshots or holds
    /// one that [`ForecastStage::step`] could not have recorded (the reason
    /// names the snapshot index and the offending field) — a checkpoint is
    /// outside input, and the per-node resolve indexes by these shapes.
    pub fn restore(snapshot: StageSnapshot) -> Result<Self, CoreError> {
        let mut stage = ForecastStage::new(snapshot.config)?;
        let k = stage.config.k;
        if snapshot.forecasters.len() != k || snapshot.degraded.len() != k {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "snapshot has {} forecasters / {} degraded flags for k = {k}",
                    snapshot.forecasters.len(),
                    snapshot.degraded.len()
                ),
            });
        }
        if snapshot.history.len().saturating_sub(1) > stage.config.m_prime {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "snapshot history holds {} snapshots for m_prime = {} (at most m_prime + 1)",
                    snapshot.history.len(),
                    stage.config.m_prime
                ),
            });
        }
        for (index, recorded) in snapshot.history.iter().enumerate() {
            recorded.validate(index, stage.config.num_nodes, k)?;
        }
        stage.clusterer = DynamicClusterer::restore(snapshot.clusterer);
        stage.forecasters = snapshot
            .forecasters
            .into_iter()
            .map(|fs| RetrainingForecaster::from_state(fs.model, fs.state))
            .collect();
        stage.history = snapshot.history.into();
        stage.recorded = stage.history.len();
        stage.t = snapshot.t;
        stage.degraded = snapshot.degraded;
        stage.model_fallbacks = snapshot.model_fallbacks;
        stage.fallback_fit_failures = snapshot.fallback_fit_failures;
        stage.generation = snapshot.generation;
        stage.table_rebuilds = snapshot.table_rebuilds;
        stage.cell.set_reads_served(snapshot.reads_served);
        Ok(stage)
    }

    /// The configuration.
    pub fn config(&self) -> &ForecastStageConfig {
        &self.config
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Degrades cluster `j` to a sample-and-hold stand-in fitted on the
    /// cluster's centroid history, counting the fallback. Returns whether
    /// the stand-in itself fitted; a failed stand-in fit is counted in
    /// [`ForecastStage::fallback_fit_failures`] and leaves the previous
    /// model installed (forecasts then hold the last observation via
    /// `forecast_or_hold`).
    // lint:allow(panic-path): fn-scope audit: `j` enumerates the outcomes of
    // `observe_all`, one per forecaster, and `degraded` holds one flag per
    // forecaster (both `k` long, checked at construction and by `restore`);
    // exemplar chain: core::stage::ForecastStage::step ->
    // core::stage::ForecastStage::degrade
    fn degrade(&mut self, j: usize) -> bool {
        self.model_fallbacks += 1;
        self.degraded[j] = true;
        // Fallback activation swaps the serving model: retire any table.
        self.generation += 1;
        let mut hold = ClusterModel::SampleAndHold(SampleAndHold::new());
        // Sample-and-hold fits on any non-empty history, and observe()
        // always records before fitting, so failure is unexpected — but it
        // must be surfaced, not discarded: a cluster silently running an
        // unfitted stand-in would be invisible to operators.
        let fit_ok = hold.fit(self.forecasters[j].history()).is_ok();
        if fit_ok {
            self.forecasters[j].install_model(hold);
        } else {
            self.fallback_fit_failures += 1;
        }
        fit_ok
    }

    /// Attempts to swap the primary model back in for a degraded cluster.
    /// Returns `true` on success.
    // lint:allow(panic-path): fn-scope audit: `j` enumerates the outcomes of
    // `observe_all`, one per forecaster, and `degraded` holds one flag per
    // forecaster (both `k` long, checked at construction and by `restore`);
    // exemplar chain: core::stage::ForecastStage::step ->
    // core::stage::ForecastStage::try_recover
    fn try_recover(&mut self, j: usize) -> bool {
        let mut primary = self.config.model.build_model();
        let history = self.forecasters[j].history();
        let recovered = primary.fit(history).is_ok()
            && primary
                .forecast(history, 1)
                .map(|fc| fc.iter().all(|v| v.is_finite()))
                .unwrap_or(false);
        if recovered {
            self.forecasters[j].install_model(primary);
            self.degraded[j] = false;
            // Recovery swaps the serving model: retire any table.
            self.generation += 1;
        }
        recovered
    }

    /// Total fallback activations so far: initial degradations to
    /// sample-and-hold plus failed recovery attempts at later retrains.
    pub fn model_fallbacks(&self) -> u64 {
        self.model_fallbacks
    }

    /// Times the sample-and-hold stand-in itself failed to fit while
    /// degrading a cluster. Nonzero values mean some cluster kept a broken
    /// primary model and is holding its last observation.
    pub fn fallback_fit_failures(&self) -> u64 {
        self.fallback_fit_failures
    }

    /// Which clusters are currently degraded to the sample-and-hold
    /// stand-in.
    pub fn degraded(&self) -> &[bool] {
        &self.degraded
    }

    /// Processes one step of stored scalar values `z` (one per node).
    ///
    /// Model-fit failures do **not** propagate: the affected cluster falls
    /// back to sample-and-hold (see [`ForecastStage::model_fallbacks`]) and
    /// the primary model is retried at the next scheduled retrain.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeCountMismatch`] for a wrong value count and
    /// propagates clustering errors.
    pub fn step(&mut self, z: &[f64]) -> Result<StageReport, CoreError> {
        if z.len() != self.config.num_nodes {
            return Err(CoreError::NodeCountMismatch {
                expected: self.config.num_nodes,
                got: z.len(),
            });
        }
        self.t += 1;
        // Every step slides the membership/offset window and feeds the
        // models, so any published forecast table becomes stale now.
        self.generation += 1;
        // Recycle the history snapshot that is about to fall out of the
        // look-back window: its value, label and centroid buffers take this
        // step's, so the steady state allocates nothing that grows with the
        // node count. The clusterer consumes the value buffer directly
        // through its flat strided-points entry point — no per-tick
        // `Vec<Vec<f64>>` — and leaves its result in place for the copies
        // below.
        let recycled = if self.history.len() > self.config.m_prime {
            self.history.pop_back()
        } else {
            None
        };
        let (mut values_buf, mut labels_buf, mut centroid_rows) = match recycled {
            Some(s) => (s.values.into_vec(), s.assignments, s.centroids),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        values_buf.clear();
        values_buf.extend_from_slice(z);
        self.clusterer.advance_flat(&values_buf, 1)?;
        let assignments = self.clusterer.labels();
        let centroids = self.clusterer.centroids();
        let values: Vec<f64> = (0..self.forecasters.len())
            .map(|j| {
                centroids
                    .get(j)
                    .and_then(|c| c.first())
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        // Intermediate RMSE over the stage's scalar data, computed from the
        // scalar centroids just extracted — same summation order as
        // `metrics::intermediate_rmse_step` on 1-dimensional points, without
        // re-walking the nested point vectors.
        let intermediate_rmse = {
            let sum: f64 = z
                .iter()
                .zip(assignments)
                .map(|(&v, &a)| {
                    let c = values.get(a).copied().unwrap_or(0.0);
                    (v - c) * (v - c)
                })
                .sum();
            (sum / z.len() as f64).sqrt()
        };
        let report_centroids: Vec<f64> = centroids
            .iter()
            .map(|c| c.first().copied().unwrap_or(0.0))
            .collect();
        assignments.clone_into(&mut labels_buf);
        centroids.clone_into(&mut centroid_rows);
        match Arc::get_mut(&mut self.report_labels) {
            Some(buf) if buf.len() == assignments.len() => buf.copy_from_slice(assignments),
            _ => self.report_labels = Arc::from(assignments),
        }
        // Feed each cluster's centroid to its forecaster. The K observe/
        // retrain calls touch disjoint forecasters, so they fan out over
        // scoped threads; the degrade/recover bookkeeping below runs
        // sequentially in cluster order, keeping the outcome bit-identical
        // at any thread count.
        let outcomes = observe_all(
            &mut self.forecasters,
            &values,
            resolve_threads(self.config.compute.threads),
        );
        let fit_failures_before = self.fallback_fit_failures;
        let mut retrained = false;
        for (j, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                ObserveOutcome::Observed { did_train, finite } => {
                    if did_train && self.degraded[j] {
                        // Scheduled retrain while degraded: retry the
                        // primary model on the accumulated history.
                        if !self.try_recover(j) {
                            self.model_fallbacks += 1;
                        }
                    } else if did_train && !finite {
                        // A fit can "succeed" yet still emit NaN/∞; treat
                        // that the same as a fit failure.
                        self.degrade(j);
                    }
                    retrained |= did_train;
                }
                ObserveOutcome::Failed => {
                    // Hard fit failure: degrade this cluster to
                    // sample-and-hold instead of failing the whole stage;
                    // the primary model is retried at the next retrain.
                    self.degrade(j);
                    retrained = true;
                }
            }
        }

        self.history.push_front(Snapshot {
            values: Matrix::from_vec(z.len(), 1, values_buf),
            centroids: centroid_rows,
            assignments: labels_buf,
        });
        self.recorded += 1;
        while self.history.len() > self.config.m_prime + 1 {
            self.history.pop_back();
        }
        Ok(StageReport {
            assignments: Arc::clone(&self.report_labels),
            centroids: report_centroids,
            intermediate_rmse,
            retrained,
            fallback_fit_failures: self.fallback_fit_failures - fit_failures_before,
            forecast_table_rebuilds: self.table_rebuilds,
            forecast_reads_served: self.cell.reads_served(),
        })
    }

    /// Forecasts every node for horizons `1..=horizon`
    /// (`out[h - 1][node]`), with sample-and-hold fallback during warmup.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>, CoreError> {
        let resolution = self.resolve_window(&mut TermCache::default())?;
        let cluster_fc: Vec<Vec<f64>> = self
            .forecasters
            .iter()
            .map(|f| f.forecast_or_hold(horizon))
            .collect();
        Ok(assemble_forecast(&cluster_fc, &resolution, horizon))
    }

    /// Resolves every node's membership and offset over the current
    /// look-back window — the shared per-node preamble of the recompute
    /// path and the table builder — reusing what `terms` holds of it. Only
    /// this stage's own `terms` or an empty cache may be passed: the stamps
    /// are this instance's.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    fn resolve_window(&self, terms: &mut TermCache) -> Result<NodeResolution, CoreError> {
        if self.history.is_empty() {
            return Err(CoreError::NotStarted);
        }
        let window: Vec<WindowStep<'_>> = self
            .history
            .iter()
            .map(|s| WindowStep {
                assignments: &s.assignments,
                values: s.values.as_slice(),
                centroids: &s.centroids,
            })
            .collect();
        Ok(resolve_nodes_reusing(
            &window,
            self.recorded,
            self.config.num_nodes,
            self.config.k,
            terms,
        ))
    }

    /// The read plane's input-version counter: bumped by every step and by
    /// every fallback activation/recovery. A [`ForecastTable`] is fresh
    /// exactly while [`ForecastTable::generation`] matches this.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Builds a fresh [`ForecastTable`] out to
    /// [`ComputeOptions::max_query_horizon`] from current stage state: the
    /// same `forecast_or_hold` trajectories and the same window resolution
    /// as [`ForecastStage::forecast`] (so `node_forecast(i, h)` is bitwise
    /// identical to `forecast(H)[h][i]` at `H = max_query_horizon`), plus
    /// Gaussian interval half-widths fitted on the recent centroid
    /// history.
    ///
    /// Stateless: every Eq. 12 term is computed, none is reused. Does not
    /// publish or count the build; use [`ForecastStage::forecast_table`]
    /// for the cached, published plane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    pub fn build_forecast_table(&self) -> Result<ForecastTable, CoreError> {
        self.build_table(&mut TermCache::default())
    }

    /// [`ForecastStage::build_forecast_table`], resolving the window through
    /// `terms` (this stage's own or an empty cache).
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts (the history tail slice starts at
    // `history.len() - w` with `w` the minimum history length across
    // forecasters, capped at INTERVAL_WINDOW); the overflow-checked
    // debug-assert CI job backstops the proof at runtime; exemplar chain:
    // core::stage::ForecastStage::build_forecast_table
    fn build_table(&self, terms: &mut TermCache) -> Result<ForecastTable, CoreError> {
        let resolution = self.resolve_window(terms)?;
        let horizon = self.config.compute.query_horizon();
        let k = self.config.k;
        let mut cluster_fc = Vec::with_capacity(k * horizon);
        for f in &self.forecasters {
            cluster_fc.extend_from_slice(&f.forecast_or_hold(horizon));
        }
        // Interval model: K rows of the last `w` centroid observations.
        // Bounded by the shortest history so the rows are equally long.
        let w = self
            .forecasters
            .iter()
            .map(|f| f.history().len())
            .min()
            .unwrap_or(0)
            .min(INTERVAL_WINDOW);
        let rows = self.forecasters.iter().map(|f| {
            let history = f.history();
            &history[history.len() - w..]
        });
        let intervals = interval_half_widths(rows, horizon);
        Ok(ForecastTable::from_parts(
            self.generation,
            horizon,
            k,
            cluster_fc,
            intervals,
            resolution,
        ))
    }

    /// The cached forecast table for the current generation: serves the
    /// published table when it is fresh, otherwise rebuilds (counted in
    /// [`ForecastStage::forecast_table_rebuilds`]) and publishes through
    /// the epoch cell so detached [`TableCell`] handles observe the new
    /// table immediately. A rebuild reuses the Eq. 12 terms of the last
    /// one for every window step and node that did not change; the table
    /// is bitwise the one [`ForecastStage::build_forecast_table`] builds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    pub fn forecast_table(&mut self) -> Result<Arc<ForecastTable>, CoreError> {
        if let Some(table) = self.cell.load() {
            if table.generation() == self.generation {
                return Ok(table);
            }
        }
        // Taken out for the build, so a build that panics leaves the stage
        // an empty cache rather than a half-updated one.
        let mut terms = std::mem::take(&mut self.terms);
        let built = self.build_table(&mut terms);
        self.terms = terms;
        let table = Arc::new(built?);
        self.table_rebuilds += 1;
        self.cell.publish(Arc::clone(&table));
        Ok(table)
    }

    /// A cloneable handle to the publication cell — the read side of the
    /// forecast plane, handed to query-serving threads. Handles observe
    /// every future publication without further coordination.
    pub fn table_handle(&self) -> TableCell {
        self.cell.clone()
    }

    /// Records `n` forecast-table reads served (delegates to the shared
    /// cell counter, so reads recorded by detached handles and by the
    /// stage accumulate into one total).
    pub fn record_reads(&self, n: u64) {
        self.cell.record_reads(n);
    }

    /// Total forecast-table reads served so far across the stage and all
    /// detached handles.
    pub fn forecast_reads_served(&self) -> u64 {
        self.cell.reads_served()
    }

    /// Times [`ForecastStage::forecast_table`] rebuilt the table (cache
    /// misses; the published table served everything else).
    pub fn forecast_table_rebuilds(&self) -> u64 {
        self.table_rebuilds
    }

    /// Forecasts each cluster's centroid for horizons `1..=horizon`
    /// (`out[cluster][h - 1]`), with sample-and-hold fallback during
    /// warmup.
    pub fn forecast_centroids(&self, horizon: usize) -> Vec<Vec<f64>> {
        self.forecasters
            .iter()
            .map(|f| f.forecast_or_hold(horizon))
            .collect()
    }

    /// The centroid history observed by cluster `j`'s model so far.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::stage::ForecastStage::centroid_history
    pub fn centroid_history(&self, j: usize) -> &[f64] {
        assert!(j < self.config.k, "cluster {j} out of range");
        self.forecasters[j].history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `snapshot` written into a checkpoint container and read back.
    fn through_container(snapshot: &StageSnapshot) -> StageSnapshot {
        let mut out = Writer::new();
        snapshot.encode_into(&mut out);
        let bytes = out.seal();
        let mut input = Reader::open(&bytes).unwrap();
        let back = StageSnapshot::decode(&mut input).unwrap();
        input.finish().unwrap();
        back
    }

    /// On a healthy fleet — ten well-separated groups, every node near its
    /// group's level — a full rebuild certifies nearly every Eq. 12 term,
    /// and a node whose label at some window step is not its `j*` walks
    /// that step's term.
    #[test]
    fn a_healthy_fleet_certifies_most_terms_and_walks_relabelled_ones() {
        let (n, k) = (400, 10);
        let mut stage = ForecastStage::new(ForecastStageConfig {
            num_nodes: n,
            k,
            ..Default::default()
        })
        .unwrap();
        let mut state = 11u64;
        let mut jitter = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let offsets: Vec<f64> = (0..n).map(|_| 0.05 * jitter()).collect();
        // Node 0 moves from group 0 to group 5 at tick 26, four steps
        // before the window closes: its `j*` is group 5's label, and its
        // two older steps sit in group 0's cell.
        for t in 0..30 {
            let z: Vec<f64> = (0..n)
                .map(|i| {
                    let group = if i == 0 && t >= 26 { 5 } else { i % k };
                    0.1 + 0.09 * group as f64 + offsets[i] + 0.02 * jitter()
                })
                .collect();
            stage.step(&z).unwrap();
        }
        let mut terms = TermCache::default();
        let resolution = stage.resolve_window(&mut terms).unwrap();
        let w = stage.history.len();
        assert_eq!(terms.work.certified + terms.work.walked, n * w);
        assert!(
            terms.work.certified * 10 >= n * w * 9,
            "{:?} of {} terms",
            terms.work,
            n * w
        );

        let j_star = resolution.memberships[0];
        let relabelled = stage
            .history
            .iter()
            .filter(|s| s.assignments[0] != j_star)
            .count();
        assert_eq!(relabelled, 2);
        let window: Vec<WindowStep<'_>> = stage
            .history
            .iter()
            .map(|s| WindowStep {
                assignments: &s.assignments[..1],
                values: &s.values.as_slice()[..1],
                centroids: &s.centroids,
            })
            .collect();
        let mut node_terms = TermCache::default();
        resolve_nodes_reusing(&window, w - 1, 1, k, &mut node_terms);
        assert!(
            node_terms.work.walked >= relabelled,
            "{:?}",
            node_terms.work
        );
    }

    fn quick(n: usize, k: usize) -> ForecastStageConfig {
        ForecastStageConfig {
            num_nodes: n,
            k,
            warmup: 5,
            retrain_every: 10,
            ..Default::default()
        }
    }

    #[test]
    fn validation() {
        assert!(ForecastStage::new(quick(0, 1)).is_err());
        assert!(ForecastStage::new(quick(2, 3)).is_err());
        assert!(ForecastStage::new(quick(3, 3)).is_ok());
    }

    #[test]
    fn step_and_forecast_shapes() {
        let mut stage = ForecastStage::new(quick(6, 2)).unwrap();
        assert!(stage.forecast(1).is_err(), "no step yet");
        for _ in 0..8 {
            let r = stage.step(&[0.1, 0.12, 0.11, 0.9, 0.88, 0.91]).unwrap();
            assert_eq!(r.assignments.len(), 6);
            assert_eq!(r.centroids.len(), 2);
        }
        let fc = stage.forecast(3).unwrap();
        assert_eq!(fc.len(), 3);
        assert_eq!(fc[0].len(), 6);
        assert_eq!(stage.forecast_centroids(2).len(), 2);
        assert_eq!(stage.centroid_history(0).len(), 8);
        assert_eq!(stage.steps(), 8);
    }

    #[test]
    fn hierarchical_stage_is_thread_invariant() {
        // shards > 1 flows from the stage config into the clusterer; the
        // result must be bit-identical across thread counts.
        let config = |threads: usize| ForecastStageConfig {
            compute: ComputeOptions {
                shards: 3,
                threads,
                ..Default::default()
            },
            ..quick(10, 3)
        };
        let mut reference = ForecastStage::new(config(1)).unwrap();
        let mut threaded = ForecastStage::new(config(8)).unwrap();
        for t in 0..20 {
            let z: Vec<f64> = (0..10)
                .map(|i| {
                    let base = (i % 3) as f64 * 0.3 + 0.1;
                    base + ((t * 7 + i * 13) % 17) as f64 / 170.0
                })
                .collect();
            let a = reference.step(&z).unwrap();
            let b = threaded.step(&z).unwrap();
            assert_eq!(a, b, "threads=8 diverged at t = {t}");
        }
        assert_eq!(
            reference.forecast(2).unwrap(),
            threaded.forecast(2).unwrap()
        );
    }

    #[test]
    fn node_count_mismatch() {
        let mut stage = ForecastStage::new(quick(4, 2)).unwrap();
        assert!(matches!(
            stage.step(&[0.1, 0.2]),
            Err(CoreError::NodeCountMismatch {
                expected: 4,
                got: 2
            })
        ));
    }

    /// A model spec that can never fit: an AutoArima grid with no candidate
    /// orders always returns `FitDiverged`.
    fn unfittable_model() -> ModelSpec {
        use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid};
        ModelSpec::AutoArima {
            grid: ArimaGrid {
                p: vec![],
                d: vec![],
                q: vec![],
                sp: vec![],
                sd: vec![],
                sq: vec![],
                s: 0,
            },
            options: ArimaFitOptions::default(),
        }
    }

    #[test]
    fn fit_failure_degrades_to_sample_and_hold() {
        let mut stage = ForecastStage::new(ForecastStageConfig {
            model: unfittable_model(),
            ..quick(4, 2)
        })
        .unwrap();
        // warmup 5, retrain 10: the first fit attempt (step 5) fails for
        // both clusters; the stage must keep running instead of erroring.
        for i in 0..30 {
            let z = [0.1, 0.12, 0.9, 0.88 + 0.001 * i as f64];
            stage.step(&z).unwrap();
        }
        assert_eq!(stage.degraded(), &[true, true]);
        // 2 initial degradations + 2 clusters * 2 failed recoveries
        // (retrains at steps 15 and 25).
        assert_eq!(stage.model_fallbacks(), 6);
        // The sample-and-hold stand-in always fits on the non-empty
        // centroid history, so no stand-in fit failure is counted.
        assert_eq!(stage.fallback_fit_failures(), 0);
        // Degraded clusters forecast via the fitted sample-and-hold
        // stand-in: finite, near the latest values.
        let fc = stage.forecast(2).unwrap();
        for row in &fc {
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn non_finite_centroid_history_degrades_to_sample_and_hold() {
        use utilcast_timeseries::arima::{ArimaFitOptions, ArimaOrder};
        // A restored checkpoint whose centroid history for cluster 1 holds
        // a NaN. ARIMA rejects that history with a typed error before
        // spending any optimizer budget, and the stage degrades the cluster
        // exactly as it does for any other fit failure (the counts below
        // are those of the undiagnosed `FitDiverged` this used to end in);
        // the clean cluster fits.
        let config = ForecastStageConfig {
            model: ModelSpec::Arima {
                order: ArimaOrder::new(1, 0, 0),
                options: ArimaFitOptions::default(),
            },
            warmup: 12,
            ..quick(4, 2)
        };
        let z = |i: usize| {
            let wobble = 0.01 * (i % 5) as f64;
            [0.1 + wobble, 0.12, 0.9, 0.88 - wobble]
        };
        let mut stage = ForecastStage::new(config).unwrap();
        for i in 0..8 {
            stage.step(&z(i)).unwrap();
        }
        let mut snapshot = stage.snapshot();
        snapshot.forecasters[1].state.history[3] = f64::NAN;
        let mut stage = ForecastStage::restore(snapshot).unwrap();
        for i in 8..40 {
            stage.step(&z(i)).unwrap();
        }
        assert_eq!(stage.degraded(), &[false, true]);
        // 1 initial degradation (step 12) + 2 failed recoveries (22, 32).
        assert_eq!(stage.model_fallbacks(), 3);
        assert_eq!(stage.fallback_fit_failures(), 0);
        for row in stage.forecast(2).unwrap() {
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    /// An ARIMA(2,0,1) stage over 24 nodes in 3 groups: first fits at
    /// step 24, the first scheduled retrain — a warm refit — at step 40.
    fn arima_stage(threads: usize) -> ForecastStage {
        use utilcast_timeseries::arima::{ArimaFitOptions, ArimaOrder};
        ForecastStage::new(ForecastStageConfig {
            num_nodes: 24,
            k: 3,
            warmup: 24,
            retrain_every: 16,
            model: ModelSpec::Arima {
                order: ArimaOrder::new(2, 0, 1),
                options: ArimaFitOptions::default(),
            },
            compute: ComputeOptions {
                threads,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap()
    }

    /// Step `t` of a 24-node fleet: three well-separated groups whose
    /// levels swing on different periods, plus per-node pseudo-noise, in
    /// units of `scale` (1 = utilization fractions, 100 = percent).
    fn grouped_fleet(t: usize, scale: f64) -> Vec<f64> {
        (0..24usize)
            .map(|i| {
                let group = i % 3;
                let phase = ((t + 7 * group) % (16 + 5 * group)) as f64 / (16 + 5 * group) as f64;
                let swing = 0.05 * (1.0 - 4.0 * (phase - 0.5).abs());
                let noise = ((t * 31 + i * 17) % 23) as f64 / 23.0 - 0.5;
                scale * (0.2 + 0.3 * group as f64 + swing + 0.02 * noise)
            })
            .collect()
    }

    #[test]
    fn arima_refit_replays_bitwise_from_a_checkpoint_and_at_any_thread_count() {
        use utilcast_timeseries::arima::Arima;
        // A warm refit depends on the outgoing model as well as on the
        // history, so the outgoing model is replay state: it must survive a
        // serialized checkpoint exactly, and stay private to its cluster at
        // any fan-out.
        type Trace = Vec<(StageReport, Vec<Vec<f64>>)>;
        let drive = |stage: &mut ForecastStage, ticks: std::ops::RangeInclusive<usize>| -> Trace {
            ticks
                .map(|t| {
                    let report = stage.step(&grouped_fleet(t, 1.0)).unwrap();
                    (report, stage.forecast(4).unwrap())
                })
                .collect()
        };
        let mut stage = arima_stage(1);
        let mut trace = drive(&mut stage, 1..=30);
        let checkpoint = through_container(&stage.snapshot());
        trace.extend(drive(&mut stage, 31..=44));
        assert!(trace[23].0.retrained && trace[39].0.retrained);
        assert_eq!(stage.model_fallbacks(), 0);

        // The retrain at step 40 continued from the step-24 models: no
        // cluster holds what a cold fit of its history gives.
        for f in &stage.forecasters {
            let ClusterModel::Arima(model) = f.model() else {
                panic!("an ARIMA stage holds ARIMA models");
            };
            let mut cold = Arima::new(model.order());
            cold.fit(&f.history()[..40]).unwrap();
            assert_ne!(model.fitted(), cold.fitted());
        }

        let snapshot = checkpoint;
        let mut restored = ForecastStage::restore(snapshot).unwrap();
        assert_eq!(drive(&mut restored, 31..=44), trace[30..]);
        assert_eq!(restored.snapshot(), stage.snapshot());

        for threads in [2, 8] {
            let mut fanned = arima_stage(threads);
            assert_eq!(
                drive(&mut fanned, 1..=44),
                trace,
                "diverged at {threads} threads"
            );
            assert_eq!(fanned.snapshot().forecasters, stage.snapshot().forecasters);
        }
    }

    #[test]
    fn percent_scale_fleet_fits_without_fallbacks() {
        // Utilization in percent (0-100), as a raw trace loaded through
        // `datasets::csv` may carry it: centroid means far above the ARIMA
        // coefficient bound must not cost a single cluster its model.
        let mut stage = arima_stage(1);
        for t in 1..=44 {
            stage.step(&grouped_fleet(t, 100.0)).unwrap();
        }
        assert_eq!(stage.model_fallbacks(), 0);
        assert_eq!(stage.degraded(), &[false; 3]);
        assert!(stage.forecasters.iter().all(|f| f.retrain_count() == 2));
        let next = grouped_fleet(45, 100.0);
        for (h, row) in stage.forecast(4).unwrap().iter().enumerate() {
            for (forecast, truth) in row.iter().zip(&next) {
                assert!(
                    (forecast - truth).abs() < 12.0,
                    "h = {h}: forecast {forecast} for a node near {truth}"
                );
            }
        }
    }

    #[test]
    fn concurrent_retraining_is_bit_identical_to_sequential() {
        let run = |threads: usize| {
            let mut stage = ForecastStage::new(ForecastStageConfig {
                compute: ComputeOptions {
                    threads,
                    ..Default::default()
                },
                ..quick(6, 3)
            })
            .unwrap();
            let mut reports = Vec::new();
            for i in 0..40 {
                let wobble = 0.01 * (i % 5) as f64;
                let z = [0.1 + wobble, 0.13, 0.5, 0.52 - wobble, 0.9, 0.88];
                reports.push(stage.step(&z).unwrap());
            }
            (reports, stage.snapshot())
        };
        let (seq_reports, seq_snap) = run(1);
        for threads in [2, 8] {
            let (reports, snap) = run(threads);
            assert_eq!(
                reports, seq_reports,
                "reports diverged at {threads} threads"
            );
            // Snapshots differ only in the configured thread count.
            assert_eq!(snap.t, seq_snap.t);
            assert_eq!(snap.history, seq_snap.history);
            assert_eq!(snap.forecasters, seq_snap.forecasters);
            assert_eq!(snap.degraded, seq_snap.degraded);
            assert_eq!(snap.model_fallbacks, seq_snap.model_fallbacks);
        }
    }

    #[test]
    fn concurrent_retraining_preserves_fallback_semantics() {
        // The degrade/recover bookkeeping must count identically whether
        // the observe calls ran inline or on the pool.
        let run = |threads: usize| {
            let mut stage = ForecastStage::new(ForecastStageConfig {
                model: unfittable_model(),
                compute: ComputeOptions {
                    threads,
                    ..Default::default()
                },
                ..quick(4, 2)
            })
            .unwrap();
            for i in 0..30 {
                let z = [0.1, 0.12, 0.9, 0.88 + 0.001 * i as f64];
                stage.step(&z).unwrap();
            }
            (stage.degraded().to_vec(), stage.model_fallbacks())
        };
        assert_eq!(run(1), run(4));
        let (degraded, fallbacks) = run(4);
        assert_eq!(degraded, vec![true, true]);
        assert_eq!(fallbacks, 6);
    }

    #[test]
    fn staggered_schedule_phase_offsets_first_trainings() {
        // warmup 5, retrain 10, k = 3 with stagger: per-cluster offsets are
        // 0, 3, 6 steps, so trainings land on disjoint ticks — 5, 8, 11,
        // then every 10 from each — instead of all three spiking together.
        let mut stage = ForecastStage::new(ForecastStageConfig {
            compute: ComputeOptions {
                retrain_stagger: true,
                ..Default::default()
            },
            ..quick(6, 3)
        })
        .unwrap();
        let mut retrain_steps = Vec::new();
        for i in 1..=40 {
            let wobble = 0.01 * (i % 5) as f64;
            let z = [0.1 + wobble, 0.13, 0.5, 0.52 - wobble, 0.9, 0.88];
            if stage.step(&z).unwrap().retrained {
                retrain_steps.push(i);
            }
        }
        assert_eq!(
            retrain_steps,
            vec![5, 8, 11, 15, 18, 21, 25, 28, 31, 35, 38],
            "staggered trainings must land on phase-offset ticks"
        );
        // Unstaggered reference: all clusters train together at 5, 15, ….
        let mut plain = ForecastStage::new(quick(6, 3)).unwrap();
        let mut plain_steps = Vec::new();
        for i in 1..=40 {
            let wobble = 0.01 * (i % 5) as f64;
            let z = [0.1 + wobble, 0.13, 0.5, 0.52 - wobble, 0.9, 0.88];
            if plain.step(&z).unwrap().retrained {
                plain_steps.push(i);
            }
        }
        assert_eq!(plain_steps, vec![5, 15, 25, 35]);
    }

    #[test]
    fn staggered_retraining_is_bit_identical_across_threads() {
        let run = |threads: usize| {
            let mut stage = ForecastStage::new(ForecastStageConfig {
                compute: ComputeOptions {
                    threads,
                    retrain_stagger: true,
                    ..Default::default()
                },
                ..quick(6, 3)
            })
            .unwrap();
            let mut reports = Vec::new();
            for i in 0..40 {
                let wobble = 0.01 * (i % 5) as f64;
                let z = [0.1 + wobble, 0.13, 0.5, 0.52 - wobble, 0.9, 0.88];
                reports.push(stage.step(&z).unwrap());
            }
            (reports, stage.snapshot())
        };
        let (seq_reports, seq_snap) = run(1);
        for threads in [2, 8] {
            let (reports, snap) = run(threads);
            assert_eq!(
                reports, seq_reports,
                "staggered reports diverged at {threads} threads"
            );
            assert_eq!(snap.forecasters, seq_snap.forecasters);
        }
    }

    #[test]
    fn staggered_policy_survives_snapshot_restore() {
        let mut stage = ForecastStage::new(ForecastStageConfig {
            compute: ComputeOptions {
                retrain_stagger: true,
                ..Default::default()
            },
            ..quick(6, 3)
        })
        .unwrap();
        for i in 0..9 {
            let z = [0.1, 0.13, 0.5, 0.52, 0.9, 0.88 + 0.001 * i as f64];
            stage.step(&z).unwrap();
        }
        let mut restored = ForecastStage::restore(stage.snapshot()).unwrap();
        // Cluster 2's first training is due at step 11 (offset 6); both
        // copies must hit it on the same tick with identical reports.
        for i in 9..20 {
            let z = [0.1, 0.13, 0.5, 0.52, 0.9, 0.88 + 0.001 * i as f64];
            assert_eq!(stage.step(&z).unwrap(), restored.step(&z).unwrap());
        }
        assert_eq!(stage.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let drive = |stage: &mut ForecastStage, from: usize, to: usize| {
            let mut reports = Vec::new();
            for i in from..to {
                let wobble = 0.01 * (i % 7) as f64;
                let z = [0.1 + wobble, 0.13, 0.85, 0.9 - wobble, 0.2, 0.8];
                reports.push(stage.step(&z).unwrap());
            }
            reports
        };
        let mut original = ForecastStage::new(quick(6, 2)).unwrap();
        drive(&mut original, 0, 12);
        let snapshot = original.snapshot();
        let mut restored = ForecastStage::restore(snapshot.clone()).unwrap();
        assert_eq!(restored.steps(), original.steps());
        let a = drive(&mut original, 12, 30);
        let b = drive(&mut restored, 12, 30);
        assert_eq!(a, b, "replay diverged after restore");
        assert_eq!(original.forecast(3).unwrap(), restored.forecast(3).unwrap());
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_survives_a_container_round_trip() {
        let mut stage = ForecastStage::new(quick(4, 2)).unwrap();
        for _ in 0..8 {
            stage.step(&[0.2, 0.21, 0.7, 0.72]).unwrap();
        }
        let snapshot = stage.snapshot();
        let back = through_container(&snapshot);
        assert_eq!(snapshot, back);
        let mut a = ForecastStage::restore(snapshot).unwrap();
        let mut b = ForecastStage::restore(back).unwrap();
        assert_eq!(
            a.step(&[0.2, 0.2, 0.7, 0.7]).unwrap(),
            b.step(&[0.2, 0.2, 0.7, 0.7]).unwrap()
        );
    }

    /// Every model spec's fitted stage, the AutoARIMA warm table, a
    /// degraded cluster and the Jaccard similarity included, goes through
    /// the checkpoint container and back unchanged, and the decoded stage
    /// steps as the original does.
    #[test]
    fn snapshot_survives_the_checkpoint_container_for_every_model() {
        use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid, ArimaOrder};
        use utilcast_timeseries::ets::EtsConfig;
        use utilcast_timeseries::lstm::LstmConfig;
        let models = [
            ModelSpec::SampleAndHold,
            ModelSpec::LongTermMean,
            ModelSpec::Arima {
                order: ArimaOrder::seasonal(1, 0, 1, 1, 0, 0, 4),
                options: ArimaFitOptions::default(),
            },
            ModelSpec::AutoArima {
                grid: ArimaGrid::quick(),
                options: ArimaFitOptions::baseline(),
            },
            ModelSpec::Lstm(LstmConfig {
                window: 3,
                hidden: 2,
                epochs: 1,
                ..Default::default()
            }),
            ModelSpec::HoltWinters(EtsConfig {
                period: 4,
                ..Default::default()
            }),
        ];
        for model in models {
            let mut stage = ForecastStage::new(ForecastStageConfig {
                model: model.clone(),
                similarity: SimilarityMeasure::Jaccard,
                warmup: 12,
                compute: ComputeOptions {
                    shards: 2,
                    ..Default::default()
                },
                ..quick(6, 2)
            })
            .unwrap();
            for t in 0..24 {
                let wave = (t % 4) as f64 * 0.05;
                stage
                    .step(&[0.2, 0.22 + wave, 0.21, 0.7, 0.72 - wave, 0.71])
                    .unwrap();
            }
            stage.degrade(1);
            let snapshot = stage.snapshot();
            let back = through_container(&snapshot);
            assert_eq!(back, snapshot, "{model:?}");
            let mut a = ForecastStage::restore(snapshot).unwrap();
            let mut b = ForecastStage::restore(back).unwrap();
            let z = [0.2, 0.2, 0.2, 0.7, 0.7, 0.7];
            assert_eq!(a.step(&z).unwrap(), b.step(&z).unwrap(), "{model:?}");
            assert_eq!(a.forecast(3).unwrap(), b.forecast(3).unwrap(), "{model:?}");
        }
    }

    #[test]
    fn forecast_table_matches_recompute_bitwise() {
        let mut stage = ForecastStage::new(quick(6, 2)).unwrap();
        assert!(stage.forecast_table().is_err(), "no step yet");
        for t in 0..25 {
            let z: Vec<f64> = (0..6)
                .map(|i| {
                    let base = if i < 3 { 0.2 } else { 0.8 };
                    base + ((t * 7 + i * 13) % 17) as f64 / 170.0
                })
                .collect();
            stage.step(&z).unwrap();
            let table = stage.forecast_table().unwrap();
            let horizon = table.horizon();
            let reference = stage.forecast(horizon).unwrap();
            assert_eq!(
                table.forecast_matrix(),
                reference,
                "table diverged from recompute at t = {t}"
            );
            for (h, row) in reference.iter().enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    assert_eq!(table.node_forecast(i, h).to_bits(), v.to_bits());
                }
            }
        }
    }

    #[test]
    fn forecast_table_is_cached_per_generation() {
        let mut stage = ForecastStage::new(quick(4, 2)).unwrap();
        stage.step(&[0.1, 0.12, 0.9, 0.88]).unwrap();
        let g = stage.generation();
        let a = stage.forecast_table().unwrap();
        let b = stage.forecast_table().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "fresh table must be served from cache");
        assert_eq!(stage.forecast_table_rebuilds(), 1);
        assert_eq!(a.generation(), g);
        stage.step(&[0.1, 0.12, 0.9, 0.88]).unwrap();
        assert!(stage.generation() > g, "a step must retire the table");
        let c = stage.forecast_table().unwrap();
        assert_eq!(stage.forecast_table_rebuilds(), 2);
        assert_eq!(c.generation(), stage.generation());
        // Detached handles observe publications and share the read count.
        let handle = stage.table_handle();
        assert_eq!(handle.load().unwrap().generation(), stage.generation());
        handle.record_reads(5);
        stage.record_reads(2);
        assert_eq!(stage.forecast_reads_served(), 7);
    }

    #[test]
    fn fallback_activation_retires_the_table() {
        let mut stage = ForecastStage::new(ForecastStageConfig {
            model: unfittable_model(),
            ..quick(4, 2)
        })
        .unwrap();
        // Steps 1..=4: no training yet, generation tracks t exactly.
        for i in 0..4 {
            stage
                .step(&[0.1, 0.12, 0.9, 0.88 + 0.001 * i as f64])
                .unwrap();
        }
        assert_eq!(stage.generation(), 4);
        // Step 5 is the first (failing) fit: both clusters degrade, so the
        // generation advances by the step plus two fallback activations.
        stage.step(&[0.1, 0.12, 0.9, 0.884]).unwrap();
        assert_eq!(stage.generation(), 7);
        // The rebuilt table reflects the degraded models bit-identically.
        let table = stage.forecast_table().unwrap();
        assert_eq!(
            table.forecast_matrix(),
            stage.forecast(table.horizon()).unwrap()
        );
    }

    #[test]
    fn table_counters_survive_snapshot_restore() {
        let mut stage = ForecastStage::new(quick(4, 2)).unwrap();
        for _ in 0..6 {
            stage.step(&[0.2, 0.21, 0.7, 0.72]).unwrap();
        }
        stage.forecast_table().unwrap();
        stage.record_reads(11);
        let back = through_container(&stage.snapshot());
        let mut restored = ForecastStage::restore(back).unwrap();
        assert_eq!(restored.generation(), stage.generation());
        assert_eq!(restored.forecast_table_rebuilds(), 1);
        assert_eq!(restored.forecast_reads_served(), 11);
        // The restored stage rebuilds (tables are derived state, not
        // checkpointed) to a bitwise-identical table.
        let a = stage.forecast_table().unwrap();
        let b = restored.forecast_table().unwrap();
        assert_eq!(*a, *b);
        assert_eq!(restored.forecast_table_rebuilds(), 2);
    }

    #[test]
    fn restore_rejects_every_hostile_history_shape() {
        // Each of these restored `Ok` and then panicked (or worse, resolved
        // garbage) in the first `forecast()` / `forecast_table()`.
        let mut stage = ForecastStage::new(quick(4, 2)).unwrap();
        for i in 0..8 {
            let z = [0.2, 0.21 + 0.001 * i as f64, 0.7, 0.72];
            stage.step(&z).unwrap();
        }
        let good = stage.snapshot();
        assert_eq!(good.history.len(), good.config.m_prime + 1);
        assert!(ForecastStage::restore(good.clone()).is_ok());
        type Corrupt = fn(&mut StageSnapshot);
        let cases: [(&str, Corrupt); 8] = [
            (
                "history[0].assignments[2] = 9 is out of range (k = 2)",
                |s| s.history[0].assignments[2] = 9,
            ),
            ("history[3].assignments holds 3 labels for 4 nodes", |s| {
                s.history[3].assignments.truncate(3)
            }),
            (
                "history[1].values is 3 x 1 over 3 numbers (expected 4 x 1)",
                |s| s.history[1].values = Matrix::zeros(3, 1),
            ),
            (
                "history[1].values is 2 x 2 over 4 numbers (expected 4 x 1)",
                |s| s.history[1].values = Matrix::zeros(2, 2),
            ),
            ("history[2].centroids holds 3 centroids for k = 2", |s| {
                s.history[2].centroids.push(vec![0.5])
            }),
            ("history[5].centroids[1] has 2 values (expected 1)", |s| {
                s.history[5].centroids[1].push(0.5)
            }),
            ("history[4].centroids[0] has 0 values (expected 1)", |s| {
                s.history[4].centroids[0].clear()
            }),
            ("history holds 7 snapshots for m_prime = 5", |s| {
                s.history.push(s.history[0].clone())
            }),
        ];
        for (expected, corrupt) in cases {
            let mut snapshot = good.clone();
            corrupt(&mut snapshot);
            match ForecastStage::restore(snapshot) {
                Err(CoreError::InvalidConfig { reason }) => {
                    assert!(reason.contains(expected), "{expected}: got {reason}");
                }
                other => panic!("{expected}: got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let stage = ForecastStage::new(quick(4, 2)).unwrap();
        let mut snapshot = stage.snapshot();
        snapshot.forecasters.pop();
        assert!(matches!(
            ForecastStage::restore(snapshot),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
