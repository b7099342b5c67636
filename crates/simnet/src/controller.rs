//! The central controller: wire admission — per-source frame dedup and
//! report quarantine — around the core engine ([`CentralNode`]: stale
//! store, staleness ages and mask, clustering and per-cluster forecasting),
//! driven by incoming [`ReportFrame`]s through its one entry point,
//! [`Controller::tick_frames`].
//!
//! It is deliberately deterministic. Whether an entry is admitted depends
//! only on the entry and on its node's newest admitted timestamp, and an
//! admitted value writes only its node's slot, all before the clustering
//! step runs. So a tick's outcome depends on the order of each node's
//! entries and on nothing else: any interleaving of different nodes'
//! entries gives the same store, counters and [`TickReport`]. That is what
//! lets the threaded driver's per-shard frames and the fault driver's
//! reordered deliveries reproduce the reference driver bit for bit.

use serde::{Deserialize, Serialize};
use utilcast_core::central::CentralNode;
use utilcast_core::compute::ComputeOptions;
use utilcast_core::metrics::AgeOfInformation;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::stage::{ForecastStage, ForecastStageConfig, StageSnapshot};
use utilcast_core::CoreError;

use crate::transport::ReportFrame;
use crate::SimError;

/// Controller configuration (the central-node subset of the paper's
/// parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Number of local nodes `N`.
    pub num_nodes: usize,
    /// Number of clusters / models `K`.
    pub k: usize,
    /// Similarity look-back `M`.
    pub m: usize,
    /// Membership/offset look-back `M'`.
    pub m_prime: usize,
    /// Warmup observations before first model training.
    pub warmup: usize,
    /// Retraining interval.
    pub retrain_every: usize,
    /// Per-cluster forecasting model.
    pub model: ModelSpec,
    /// K-means seed.
    pub seed: u64,
    /// Accepted payload value range (inclusive); reports outside it are
    /// quarantined. Utilization traces are unit-scaled, so the default is
    /// `(0.0, 1.0)`. Must be finite, ordered, and within
    /// `sqrt(f64::MAX / (4·num_nodes))` in magnitude ([`Controller::new`]).
    pub value_bounds: (f64, f64),
    /// Threading and warm-start knobs for the per-tick clustering and
    /// retraining (see [`ComputeOptions`]).
    pub compute: ComputeOptions,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            num_nodes: 100,
            k: 3,
            m: 1,
            m_prime: 5,
            warmup: 1000,
            retrain_every: 288,
            model: ModelSpec::SampleAndHold,
            seed: 0,
            value_bounds: (0.0, 1.0),
            compute: ComputeOptions::default(),
        }
    }
}

impl ControllerConfig {
    /// The configuration of the engine's forecast stage, once the admission
    /// bound [`Controller::new`] documents holds (the stage checks the rest).
    fn stage_config(&self) -> Result<ForecastStageConfig, SimError> {
        // Admitted values feed k-means, which sums N squared distances
        // between them: beyond this magnitude that sum can overflow. (At
        // zero nodes the bound is infinite; the stage refuses that fleet.)
        let (lo, hi) = self.value_bounds;
        let limit = (f64::MAX / (4.0 * self.num_nodes as f64)).sqrt();
        if !(lo.is_finite() && hi.is_finite() && lo <= hi && lo.abs().max(hi.abs()) <= limit) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "value_bounds must be finite with lo <= hi and |lo|, |hi| <= {limit:e} \
                     for {} nodes; got [{lo}, {hi}]",
                    self.num_nodes
                ),
            });
        }
        Ok(ForecastStageConfig {
            num_nodes: self.num_nodes,
            k: self.k,
            m: self.m,
            m_prime: self.m_prime,
            warmup: self.warmup,
            retrain_every: self.retrain_every,
            model: self.model.clone(),
            seed: self.seed,
            compute: self.compute,
            ..Default::default()
        })
    }
}

/// The engine's configuration and shape errors are the controller's
/// [`SimError::InvalidConfig`].
fn invalid_config(e: CoreError) -> SimError {
    match e {
        CoreError::InvalidConfig { reason } => SimError::InvalidConfig { reason },
        other => SimError::Core(other),
    }
}

/// Why an individual report failed ingress validation. The two classes
/// are counted separately: [`AdmitError::Corrupt`] means the payload
/// itself is unusable (quarantine), while [`AdmitError::Stale`] means a
/// well-formed value arrived late or twice — expected behaviour for an
/// at-least-once delivery layer, tallied as a duplicate rather than
/// lumped in with corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdmitError {
    /// Unknown node, wrong dimensionality, non-finite or out-of-range
    /// value — the report is quarantined.
    Corrupt,
    /// Timestamp not newer than the node's last accepted report — a
    /// duplicate or out-of-order delivery, dropped but not quarantined.
    Stale,
}

/// Per-tick summary from the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Reports accepted and applied this tick.
    pub reports_applied: usize,
    /// Reports rejected by ingress validation this tick (corrupt payload:
    /// unknown node, wrong dims, non-finite or out-of-range value).
    pub quarantined: usize,
    /// Well-formed reports dropped this tick because their timestamp was
    /// not newer than the node's last accepted report — duplicate or
    /// out-of-order deliveries from the link/delivery layer.
    pub duplicates: usize,
    /// Mean staleness age across nodes at this tick: ticks since each
    /// node's freshest admitted measurement (never-seen nodes count as
    /// `t + 1`).
    pub mean_age: f64,
    /// Oldest per-node staleness age at this tick.
    pub peak_age: usize,
    /// Nodes whose stored value was masked (imputed with the fresh-node
    /// mean) this tick because their age exceeded
    /// [`ComputeOptions::staleness_age_limit`].
    pub masked: usize,
    /// Intermediate RMSE of the stored values against their centroids.
    pub intermediate_rmse: f64,
    /// Whether any model (re)trained.
    pub retrained: bool,
    /// Degrade-path sample-and-hold fits that failed this tick (see
    /// [`ForecastStage::fallback_fit_failures`]).
    pub fallback_fit_failures: u64,
    /// Cumulative forecast-table rebuilds so far (see
    /// [`ForecastStage::forecast_table_rebuilds`]); zero in runs that never
    /// query the read plane.
    pub forecast_table_rebuilds: u64,
    /// Cumulative forecast-table reads served so far (see
    /// [`ForecastStage::forecast_reads_served`]); zero in runs that never
    /// query the read plane.
    pub forecast_reads_served: u64,
}

/// One tick's admission outcomes.
#[derive(Default)]
struct Tally {
    applied: usize,
    quarantined: usize,
    duplicates: usize,
}

/// Per-source frame-sequence dedup state: the next sequence number not
/// yet admitted plus the sorted set of admitted numbers ahead of it
/// (frames can arrive out of order, so admission is not contiguous).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct SourceDedup {
    /// Lowest sequence number not yet admitted from this source.
    next: u64,
    /// Admitted sequence numbers above `next`, kept sorted.
    seen_ahead: Vec<u64>,
}

impl SourceDedup {
    /// Admits a sequence number exactly once: `true` the first time it is
    /// seen, `false` for every redelivery.
    fn admit(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        match self.seen_ahead.binary_search(&seq) {
            Ok(_) => false,
            Err(pos) => {
                self.seen_ahead.insert(pos, seq);
                while self.seen_ahead.first() == Some(&self.next) {
                    self.seen_ahead.remove(0);
                    self.next += 1;
                }
                true
            }
        }
    }
}

/// Serializable checkpoint of the full controller state: the stale store,
/// the forecast stage (cluster/membership history, centroid histories and
/// fitted models, retrain counters), and the ingress-validation
/// bookkeeping. Produced by [`Controller::snapshot`], consumed by
/// [`Controller::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    /// The controller configuration.
    pub config: ControllerConfig,
    /// The stored (possibly stale) per-node values.
    #[serde(with = "utilcast_linalg::packed::f64s")]
    pub stored: Vec<f64>,
    /// Ticks processed.
    pub ticks: usize,
    /// Reports quarantined so far.
    pub quarantined: u64,
    /// Duplicate / out-of-order reports dropped so far.
    pub duplicates: u64,
    /// Whole frames rejected by sequence-number dedup so far.
    pub duplicate_frames: u64,
    /// Sequence-numbered frames admitted exactly once so far.
    pub frames_admitted: u64,
    /// Per-source frame-sequence dedup state.
    frame_seen: Vec<SourceDedup>,
    /// Accumulated staleness-age statistics.
    pub age: AgeOfInformation,
    /// Stored-node steps masked by the staleness limit so far.
    pub masked_node_steps: u64,
    /// Newest accepted report timestamp per node.
    #[serde(with = "utilcast_linalg::packed::opt_labels")]
    pub last_seen: Vec<Option<usize>>,
    /// The forecast-stage checkpoint.
    pub stage: StageSnapshot,
}

/// The central node (scalar, single-resource form): wire admission around
/// one [`CentralNode`].
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    central: CentralNode,
    /// Reports rejected at ingress so far (corrupt payloads).
    quarantined: u64,
    /// Duplicate / out-of-order reports dropped so far.
    duplicates: u64,
    /// Whole frames rejected by sequence-number dedup so far.
    duplicate_frames: u64,
    /// Sequence-numbered frames admitted exactly once so far.
    frames_admitted: u64,
    /// Per-source frame-sequence dedup state, grown lazily as sources
    /// appear.
    frame_seen: Vec<SourceDedup>,
}

impl Controller {
    /// Creates a controller with a zeroed store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero nodes, `k` outside
    /// `[1, num_nodes]`, or [`ControllerConfig::value_bounds`] that are not
    /// finite, inverted, or wider than `sqrt(f64::MAX / (4·num_nodes))` in
    /// magnitude (past it, the clustering's sum of N squared distances
    /// between admitted values can overflow).
    pub fn new(config: ControllerConfig) -> Result<Self, SimError> {
        let central = CentralNode::new(config.stage_config()?).map_err(invalid_config)?;
        Ok(Controller {
            config,
            central,
            quarantined: 0,
            duplicates: 0,
            duplicate_frames: 0,
            frames_admitted: 0,
            frame_seen: Vec::new(),
        })
    }

    /// The stored (possibly stale) per-node values.
    pub fn stored(&self) -> &[f64] {
        self.central.stored()
    }

    /// Number of ticks processed.
    pub fn ticks(&self) -> usize {
        self.central.ticks()
    }

    /// Total reports rejected by ingress validation so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Total duplicate / out-of-order reports dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total whole frames rejected by sequence-number dedup so far.
    pub fn duplicate_frames(&self) -> u64 {
        self.duplicate_frames
    }

    /// Total sequence-numbered frames admitted (exactly once each) so far.
    pub fn frames_admitted(&self) -> u64 {
        self.frames_admitted
    }

    /// Accumulated staleness-age statistics over all ticks.
    pub fn age(&self) -> &AgeOfInformation {
        self.central.age()
    }

    /// Total stored-node steps masked by the staleness limit so far.
    pub fn masked_node_steps(&self) -> u64 {
        self.central.masked_node_steps()
    }

    /// Total forecaster fallback activations so far (see
    /// [`ForecastStage::model_fallbacks`]).
    pub fn model_fallbacks(&self) -> u64 {
        self.central.stage().model_fallbacks()
    }

    /// Total degrade-path sample-and-hold fit failures so far (see
    /// [`ForecastStage::fallback_fit_failures`]).
    pub fn fallback_fit_failures(&self) -> u64 {
        self.central.stage().fallback_fit_failures()
    }

    /// Ingress validation of one frame entry: `Ok` with the payload value
    /// for an acceptable report, `Err` with the rejection reason otherwise.
    /// It reads only `node`'s newest admitted timestamp, which is what makes
    /// a tick independent of how different nodes' entries interleave.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // simnet::controller::Controller::tick_frames ->
    // simnet::controller::Controller::ingest_frame ->
    // simnet::controller::Controller::admit ->
    // simnet::controller::Controller::admit_values
    fn admit_values(&self, node: usize, t: usize, values: &[f64]) -> Result<f64, AdmitError> {
        let last_seen = self.central.last_seen();
        if node >= last_seen.len() {
            return Err(AdmitError::Corrupt); // unknown node id
        }
        if values.len() != 1 {
            return Err(AdmitError::Corrupt); // wrong payload dimensionality
        }
        let v = values[0];
        if !v.is_finite() {
            return Err(AdmitError::Corrupt);
        }
        let (lo, hi) = self.config.value_bounds;
        if v < lo || v > hi {
            return Err(AdmitError::Corrupt); // value out of range
        }
        if let Some(latest) = last_seen[node] {
            if t <= latest {
                return Err(AdmitError::Stale); // duplicate or out-of-order
            }
        }
        Ok(v)
    }

    /// Stores the value if admission accepts it, tallying the outcome.
    fn admit(&mut self, node: usize, t: usize, values: &[f64], tally: &mut Tally) {
        match self.admit_values(node, t, values) {
            Ok(v) => {
                self.central.store(node, t, v);
                tally.applied += 1;
            }
            Err(AdmitError::Corrupt) => tally.quarantined += 1,
            Err(AdmitError::Stale) => tally.duplicates += 1,
        }
    }

    /// Counts the tick's rejects and closes the engine's tick.
    fn finish_tick(&mut self, tally: Tally) -> Result<TickReport, SimError> {
        self.quarantined += tally.quarantined as u64;
        self.duplicates += tally.duplicates as u64;
        let tick = self.central.tick()?;
        Ok(TickReport {
            reports_applied: tally.applied,
            quarantined: tally.quarantined,
            duplicates: tally.duplicates,
            mean_age: tick.mean_age,
            peak_age: tick.peak_age,
            masked: tick.masked,
            intermediate_rmse: tick.stage.intermediate_rmse,
            retrained: tick.stage.retrained,
            fallback_fit_failures: tick.stage.fallback_fit_failures,
            forecast_table_rebuilds: tick.stage.forecast_table_rebuilds,
            forecast_reads_served: tick.stage.forecast_reads_served,
        })
    }

    /// Applies one frame's entries into the store (after frame-level
    /// dedup), updating the per-tick counters.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // simnet::controller::Controller::tick_frames ->
    // simnet::controller::Controller::ingest_frame
    fn ingest_frame(&mut self, frame: &ReportFrame, tally: &mut Tally) {
        if let Some(seq) = frame.seq() {
            let source = frame.source();
            if self.frame_seen.len() <= source {
                self.frame_seen
                    .resize_with(source + 1, SourceDedup::default);
            }
            if !self.frame_seen[source].admit(seq) {
                self.duplicate_frames += 1;
                return;
            }
            self.frames_admitted += 1;
        }
        for e in frame.iter() {
            self.admit(e.node, e.t, e.values, tally);
        }
    }

    /// One tick over a batch of [`ReportFrame`]s: each frame passes
    /// sequence dedup and per-entry validation in slice order, then the
    /// clustering + model-update stage runs once. The drivers hand it
    /// either one frame per sending shard (passthrough) or whatever the
    /// delivery plane delivered this tick — zero frames (all in flight or
    /// lost) or several (delayed originals, retransmissions, duplicates).
    ///
    /// Each entry passes ingress validation and, if admitted, is written
    /// straight into the flat stored vector, with no per-report allocation
    /// and no sorting pass. Entries with an unknown node id, a payload that
    /// is not one value, or a non-finite or out-of-range value are
    /// **quarantined**: counted in [`TickReport::quarantined`] (and
    /// [`Controller::quarantined`]) and otherwise ignored, so corrupted
    /// telemetry cannot poison the store. A well-formed entry whose
    /// timestamp is not newer than its node's last admitted one — a
    /// duplicate or out-of-order delivery — is dropped and counted in
    /// [`TickReport::duplicates`].
    ///
    /// The outcome depends only on each node's entries' relative order (see
    /// the module docs): callers that keep every node's entries in `(t,
    /// arrival)` order get the result of applying the batch sorted by
    /// `(node, t)`, whatever the interleaving of nodes and frames.
    ///
    /// Frames carrying a delivery-layer sequence number
    /// ([`ReportFrame::seq`]) are deduplicated per source before any entry
    /// is applied: a redelivered sequence number drops the whole frame
    /// (counted in [`Controller::duplicate_frames`]), giving exactly-once
    /// admission on top of at-least-once delivery.
    ///
    /// # Errors
    ///
    /// Propagates clustering errors.
    pub fn tick_frames(&mut self, frames: &[ReportFrame]) -> Result<TickReport, SimError> {
        let mut tally = Tally::default();
        for frame in frames {
            self.ingest_frame(frame, &mut tally);
        }
        self.finish_tick(tally)
    }

    /// Captures the complete controller state for checkpointing. The
    /// snapshot is serde-serializable, so it can also be persisted.
    pub fn snapshot(&self) -> ControllerSnapshot {
        let central = &self.central;
        ControllerSnapshot {
            config: self.config.clone(),
            stored: central.stored().to_vec(),
            ticks: central.ticks(),
            quarantined: self.quarantined,
            duplicates: self.duplicates,
            duplicate_frames: self.duplicate_frames,
            frames_admitted: self.frames_admitted,
            frame_seen: self.frame_seen.clone(),
            age: *central.age(),
            masked_node_steps: central.masked_node_steps(),
            last_seen: central.last_seen().to_vec(),
            stage: central.stage().snapshot(),
        }
    }

    /// Rebuilds a controller from a checkpoint. The restored controller
    /// replays bit-identically to the original from the snapshot point on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the embedded value bounds
    /// are invalid, the embedded configuration disagrees with the forecast
    /// stage's, the snapshot's per-node vectors do not match it, or it
    /// stores a value admission could not have (non-finite or outside
    /// [`ControllerConfig::value_bounds`], other than the initial zero), and
    /// [`SimError::Core`] when the forecast stage rejects its part of the
    /// checkpoint, its configuration included (see [`ForecastStage::restore`]).
    pub fn restore(snapshot: ControllerSnapshot) -> Result<Self, SimError> {
        let expected = snapshot.config.stage_config()?;
        // Admission stores only in-bounds values over the initial zeros; a
        // decoded store holding anything else would reach the clustering
        // as a value no report could have put there.
        let (lo, hi) = snapshot.config.value_bounds;
        if let Some((node, v)) = snapshot
            .stored
            .iter()
            .enumerate()
            .find(|(_, v)| !(lo..=hi).contains(*v) && v.to_bits() != 0)
        {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "snapshot stores {v} for node {node}, outside the value bounds [{lo}, {hi}]"
                ),
            });
        }
        let stage = ForecastStage::restore(snapshot.stage)?;
        // The stage runs on its own copy of the configuration, the value
        // bounds were checked for the controller's fleet size, and a new
        // checkpoint serializes the controller's copy: they must agree.
        if *stage.config() != expected {
            return Err(SimError::InvalidConfig {
                reason: "snapshot's stage and controller configurations disagree".into(),
            });
        }
        let central = CentralNode::restore(
            stage,
            snapshot.stored,
            snapshot.last_seen,
            snapshot.ticks,
            snapshot.age,
            snapshot.masked_node_steps,
        )
        .map_err(invalid_config)?;
        Ok(Controller {
            config: snapshot.config,
            central,
            quarantined: snapshot.quarantined,
            duplicates: snapshot.duplicates,
            duplicate_frames: snapshot.duplicate_frames,
            frames_admitted: snapshot.frames_admitted,
            frame_seen: snapshot.frame_seen,
        })
    }

    /// Forecasts all nodes for horizons `1..=horizon`
    /// (`out[h - 1][node]`), falling back to sample-and-hold during warmup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTick`] before the first tick.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>, SimError> {
        if self.central.ticks() == 0 {
            return Err(SimError::NoTick);
        }
        Ok(self.central.stage().forecast(horizon)?)
    }

    /// The cached forecast read plane: the current-generation
    /// [`ForecastTable`](utilcast_core::table::ForecastTable), rebuilt
    /// only when the stage's inputs changed since the last call and
    /// published so detached [`table_handle`](Controller::table_handle)
    /// readers observe it (see [`utilcast_core::table`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTick`] before the first tick.
    pub fn forecast_table(
        &mut self,
    ) -> Result<std::sync::Arc<utilcast_core::table::ForecastTable>, SimError> {
        if self.central.ticks() == 0 {
            return Err(SimError::NoTick);
        }
        Ok(self.central.forecast_table()?)
    }

    /// A cloneable handle to the forecast-table publication cell for
    /// query-serving threads (see
    /// [`ForecastStage::table_handle`]).
    pub fn table_handle(&self) -> utilcast_core::table::TableCell {
        self.central.stage().table_handle()
    }

    /// Serves `probes` deterministic point queries against the cached
    /// forecast table — the drivers' stand-in for a network query endpoint
    /// between ticks. The probe pattern (node and horizon derived from the
    /// tick counter) is a pure function of controller state, so replay
    /// from a checkpoint reproduces the same reads and the same counters
    /// bit for bit. With `probes == 0` this is a no-op (the seed path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTick`] when probes are requested before the
    /// first tick.
    pub fn serve_query_probes(&mut self, probes: usize) -> Result<(), SimError> {
        if probes == 0 {
            return Ok(());
        }
        let table = self.forecast_table()?;
        let n = table.num_nodes();
        let horizon = table.horizon();
        let t = self.central.ticks();
        for p in 0..probes {
            let node = t.wrapping_mul(31).wrapping_add(p.wrapping_mul(17)) % n;
            let h = t.wrapping_add(p) % horizon;
            // The value itself is discarded — the probes exist to exercise
            // and count the read path deterministically.
            let _ = table.node_forecast(node, h);
        }
        self.central.stage().record_reads(probes as u64);
        Ok(())
    }

    /// Total forecast-table rebuilds so far (see
    /// [`ForecastStage::forecast_table_rebuilds`]).
    pub fn forecast_table_rebuilds(&self) -> u64 {
        self.central.stage().forecast_table_rebuilds()
    }

    /// Total forecast-table reads served so far (see
    /// [`ForecastStage::forecast_reads_served`]).
    pub fn forecast_reads_served(&self) -> u64 {
        self.central.stage().forecast_reads_served()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scalar frame for tick `t` carrying `entries` in order.
    fn frame(t: usize, entries: &[(usize, f64)]) -> ReportFrame {
        let mut frame = ReportFrame::new(1);
        frame.reset(t);
        for &(node, v) in entries {
            frame.push_scalar(node, v);
        }
        frame
    }

    fn quick_config(n: usize, k: usize) -> ControllerConfig {
        ControllerConfig {
            num_nodes: n,
            k,
            warmup: 5,
            retrain_every: 10,
            ..Default::default()
        }
    }

    #[test]
    fn config_validation() {
        for (n, k) in [(0, 1), (2, 3), (3, 0)] {
            assert!(matches!(
                Controller::new(quick_config(n, k)),
                Err(SimError::InvalidConfig { .. })
            ));
        }
        assert!(Controller::new(quick_config(3, 3)).is_ok());
    }

    #[test]
    fn reports_update_store() {
        let mut c = Controller::new(quick_config(4, 2)).unwrap();
        c.tick_frames(&[frame(0, &[(1, 0.5), (3, 0.9)])]).unwrap();
        assert_eq!(c.stored(), &[0.0, 0.5, 0.0, 0.9]);
        // Nodes without reports keep stale values.
        c.tick_frames(&[frame(1, &[(0, 0.2)])]).unwrap();
        assert_eq!(c.stored(), &[0.2, 0.5, 0.0, 0.9]);
    }

    #[test]
    fn unknown_node_reports_are_quarantined() {
        let mut c = Controller::new(quick_config(2, 1)).unwrap();
        let r = c.tick_frames(&[frame(0, &[(9, 0.5)])]).unwrap();
        assert_eq!(r.reports_applied, 0);
        assert_eq!(r.quarantined, 1);
        assert_eq!(c.quarantined(), 1);
        assert_eq!(c.stored(), &[0.0, 0.0]);
    }

    #[test]
    fn corrupt_payloads_are_quarantined() {
        let mut c = Controller::new(quick_config(3, 1)).unwrap();
        // Wrong dimensionality: a two-value payload sent to the scalar
        // controller. (An empty payload cannot be built at all:
        // `ReportFrame::new(0)` panics.)
        let mut wide = ReportFrame::new(2);
        wide.push(2, &[0.1, 0.2]);
        let bad = [
            frame(0, &[(0, f64::NAN), (1, 7.5)]), // non-finite, out of range
            wide,
        ];
        let r = c.tick_frames(&bad).unwrap();
        assert_eq!(r.reports_applied, 0);
        assert_eq!(r.quarantined, 3);
        assert_eq!(c.stored(), &[0.0, 0.0, 0.0]);
        // A clean report for the same nodes is still accepted afterwards.
        let r = c.tick_frames(&[frame(1, &[(1, 0.4), (2, 0.1)])]).unwrap();
        assert_eq!(r.reports_applied, 2);
        assert_eq!(r.quarantined, 0);
        assert_eq!(c.quarantined(), 3);
    }

    #[test]
    fn duplicate_and_stale_reports_are_dropped_not_quarantined() {
        let mut c = Controller::new(quick_config(2, 1)).unwrap();
        // Two reports for node 0 with the same timestamp: one survives;
        // the redelivery counts as a duplicate, not corruption.
        let r = c.tick_frames(&[frame(0, &[(0, 0.3), (0, 0.3)])]).unwrap();
        assert_eq!((r.reports_applied, r.quarantined, r.duplicates), (1, 0, 1));
        // A replayed older timestamp is rejected, a newer one accepted.
        let r = c.tick_frames(&[frame(0, &[(0, 0.9)])]).unwrap();
        assert_eq!((r.reports_applied, r.quarantined, r.duplicates), (0, 0, 1));
        assert_eq!(c.stored()[0], 0.3);
        let r = c.tick_frames(&[frame(5, &[(0, 0.6)])]).unwrap();
        assert_eq!((r.reports_applied, r.quarantined, r.duplicates), (1, 0, 0));
        assert_eq!(c.stored()[0], 0.6);
        assert_eq!(c.duplicates(), 2);
        assert_eq!(c.quarantined(), 0);
    }

    #[test]
    fn staleness_age_is_tracked_per_tick() {
        let mut c = Controller::new(quick_config(2, 1)).unwrap();
        // Tick 0: both nodes report -> ages 0.
        let r = c.tick_frames(&[frame(0, &[(0, 0.3), (1, 0.4)])]).unwrap();
        assert_eq!((r.mean_age, r.peak_age), (0.0, 0));
        // Tick 1: only node 0 reports -> node 1 is one tick old.
        let r = c.tick_frames(&[frame(1, &[(0, 0.5)])]).unwrap();
        assert_eq!((r.mean_age, r.peak_age), (0.5, 1));
        // Tick 2: silence -> ages 1 and 2.
        let r = c.tick_frames(&[]).unwrap();
        assert_eq!((r.mean_age, r.peak_age), (1.5, 2));
        assert_eq!(c.age().peak(), 2);
        assert!((c.age().mean() - (0.0 + 0.5 + 1.5) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stale_nodes_are_masked_past_the_age_limit() {
        let mut config = quick_config(3, 1);
        config.compute.staleness_age_limit = 2;
        let mut c = Controller::new(config).unwrap();
        // All three report at tick 0, then node 2 goes silent.
        c.tick_frames(&[frame(0, &[(0, 0.2), (1, 0.4), (2, 0.9)])])
            .unwrap();
        let mut masked_ticks = 0usize;
        for t in 1..=4 {
            let r = c.tick_frames(&[frame(t, &[(0, 0.2), (1, 0.4)])]).unwrap();
            if r.masked > 0 {
                masked_ticks += 1;
                assert_eq!(r.masked, 1, "only node 2 is stale");
            }
        }
        // Node 2's age passes the limit of 2 at ticks 3 and 4.
        assert_eq!(masked_ticks, 2);
        assert_eq!(c.masked_node_steps(), 2);
        // Masking feeds the stage an imputed copy; the store itself keeps
        // the stale value for when the node comes back.
        assert_eq!(c.stored()[2], 0.9);
    }

    #[test]
    fn sequence_numbered_frames_are_admitted_exactly_once() {
        let mut c = Controller::new(quick_config(2, 1)).unwrap();
        let mut frame = ReportFrame::new(1);
        frame.reset(0);
        frame.push_scalar(0, 0.3);
        frame.push_scalar(1, 0.7);
        frame.set_source(0);
        frame.set_seq(0);
        // Original plus an immediate redelivery in the same tick.
        let r = c.tick_frames(&[frame.clone(), frame.clone()]).unwrap();
        assert_eq!((r.reports_applied, r.duplicates), (2, 0));
        assert_eq!(c.duplicate_frames(), 1);
        assert_eq!(c.frames_admitted(), 1);
        // A late redelivery on a later tick is also rejected wholesale.
        let r = c.tick_frames(&[frame.clone()]).unwrap();
        assert_eq!((r.reports_applied, r.quarantined, r.duplicates), (0, 0, 0));
        assert_eq!(c.duplicate_frames(), 2);
        // Out-of-order admission: seq 3 before seq 1 and 2, all fresh.
        for (seq, t) in [(3u64, 1usize), (1, 2), (2, 3)] {
            frame.reset(t);
            frame.push_scalar(0, 0.5);
            frame.set_seq(seq);
            let r = c.tick_frames(&[frame.clone()]).unwrap();
            assert_eq!(r.reports_applied, 1, "seq {seq} should admit");
        }
        assert_eq!(c.frames_admitted(), 4);
        // Redelivering any of them after the window compacts still fails.
        frame.reset(9);
        frame.push_scalar(0, 0.5);
        frame.set_seq(2);
        let r = c.tick_frames(&[frame.clone()]).unwrap();
        assert_eq!(r.reports_applied, 0);
        assert_eq!(c.duplicate_frames(), 3);
    }

    #[test]
    fn custom_value_bounds_are_honoured() {
        let mut c = Controller::new(ControllerConfig {
            value_bounds: (-10.0, 10.0),
            ..quick_config(2, 1)
        })
        .unwrap();
        let r = c.tick_frames(&[frame(0, &[(0, 7.5), (1, -11.0)])]).unwrap();
        assert_eq!((r.reports_applied, r.quarantined), (1, 1));
        assert_eq!(c.stored(), &[7.5, 0.0]);
    }

    fn bounds_error(value_bounds: (f64, f64)) -> String {
        match Controller::new(ControllerConfig {
            value_bounds,
            ..quick_config(4, 2)
        }) {
            Err(SimError::InvalidConfig { reason }) => reason,
            other => panic!(
                "{value_bounds:?}: expected InvalidConfig, got {:?}",
                other.map(|_| ())
            ),
        }
    }

    #[test]
    fn non_finite_value_bounds_are_rejected() {
        // NaN bounds used to admit every finite value (`v < NaN` is false).
        for bounds in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::NEG_INFINITY, 1.0),
            (0.0, f64::INFINITY),
        ] {
            assert!(bounds_error(bounds).contains("value_bounds"));
        }
        // A checkpoint carrying such a config is refused the same way.
        let mut snapshot = Controller::new(quick_config(4, 2)).unwrap().snapshot();
        snapshot.config.value_bounds = (f64::NAN, 1.0);
        assert!(matches!(
            Controller::restore(snapshot),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn inverted_value_bounds_are_rejected() {
        // They used to quarantine every report without saying why.
        assert!(bounds_error((1.0, 0.0)).contains("[1, 0]"));
        assert!(Controller::new(ControllerConfig {
            value_bounds: (0.5, 0.5),
            ..quick_config(4, 2)
        })
        .is_ok());
    }

    #[test]
    fn value_bounds_wide_enough_to_overflow_clustering_are_rejected() {
        // ±1.7e308 at N = 4 used to admit reports whose squared distances
        // overflow k-means' sums: a panic on the first tick in a debug
        // build, non-finite centroids in a release one.
        assert!(bounds_error((-1.7e308, 1.7e308)).contains("for 4 nodes"));
        let limit = (f64::MAX / 16.0).sqrt();
        bounds_error((0.0, limit * 1.000_001));
        bounds_error((-limit * 1.000_001, 0.0));
        // At the limit itself, extreme reports cluster to finite centroids.
        let mut c = Controller::new(ControllerConfig {
            value_bounds: (-limit, limit),
            ..quick_config(4, 2)
        })
        .unwrap();
        for t in 0..3 {
            let r = c
                .tick_frames(&[frame(
                    t,
                    &[(0, -limit), (1, limit), (2, -limit), (3, limit)],
                )])
                .unwrap();
            assert_eq!(r.reports_applied, 4);
            assert!(r.intermediate_rmse.is_finite());
        }
        assert!(c
            .forecast(2)
            .unwrap()
            .iter()
            .flatten()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let drive = |c: &mut Controller, from: usize, to: usize| {
            let mut out = Vec::new();
            for t in from..to {
                let entries = (0..4)
                    .map(|i| (i, 0.1 * i as f64 + 0.01 * (t % 5) as f64))
                    .collect::<Vec<_>>();
                out.push(c.tick_frames(&[frame(t, &entries)]).unwrap());
            }
            out
        };
        let mut original = Controller::new(quick_config(4, 2)).unwrap();
        drive(&mut original, 0, 12);
        let snapshot = original.snapshot();
        let mut restored = Controller::restore(snapshot.clone()).unwrap();
        assert_eq!(restored.ticks(), original.ticks());
        assert_eq!(restored.stored(), original.stored());
        let a = drive(&mut original, 12, 30);
        let b = drive(&mut restored, 12, 30);
        assert_eq!(a, b, "replay diverged after restore");
        assert_eq!(original.forecast(3).unwrap(), restored.forecast(3).unwrap());
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn snapshot_survives_json_round_trip() {
        let mut c = Controller::new(quick_config(3, 2)).unwrap();
        for t in 0..8 {
            let entries = (0..3)
                .map(|i| (i, 0.2 + 0.1 * i as f64))
                .collect::<Vec<_>>();
            c.tick_frames(&[frame(t, &entries)]).unwrap();
        }
        let snapshot = c.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: ControllerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot, back);
        assert!(Controller::restore(back).is_ok());
    }

    #[test]
    fn restore_rejects_mismatched_snapshot() {
        let c = Controller::new(quick_config(3, 2)).unwrap();
        let mut snapshot = c.snapshot();
        snapshot.stored.push(0.0);
        assert!(matches!(
            Controller::restore(snapshot),
            Err(SimError::InvalidConfig { .. })
        ));
        // A configuration that disagrees with the stage is refused too: the
        // value bounds are checked against its fleet size, and it is the
        // copy a new checkpoint would serialize.
        let disagreeing: [fn(&mut ControllerConfig); 3] = [
            |config| config.num_nodes = 30,
            |config| config.k = 1,
            |config| config.compute.staleness_age_limit = 2,
        ];
        for disagree in disagreeing {
            let mut snapshot = c.snapshot();
            disagree(&mut snapshot.config);
            match Controller::restore(snapshot) {
                Err(SimError::InvalidConfig { reason }) => {
                    assert!(reason.contains("disagree"), "{reason}")
                }
                other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn restore_rejects_a_store_admission_could_not_have_written() {
        let mut c = Controller::new(quick_config(3, 2)).unwrap();
        c.tick_frames(&[frame(0, &[(0, 0.5), (1, 1.0)])]).unwrap();
        assert!(Controller::restore(c.snapshot()).is_ok());
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5, 1e308] {
            let mut snapshot = c.snapshot();
            snapshot.stored[2] = bad;
            match Controller::restore(snapshot) {
                Err(SimError::InvalidConfig { reason }) => {
                    assert!(reason.contains("for node 2"), "{reason}")
                }
                other => panic!("{bad}: expected a typed error, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn restore_surfaces_a_hostile_stage_history_as_a_core_error() {
        // One digit of a real checkpoint patched — a label >= k in the
        // newest history snapshot. It used to restore `Ok` and panic in the
        // first `forecast_table()`. The packed column is rewritten as the
        // legacy JSON array with its first label patched, so this also
        // holds the reader to both forms.
        let mut c = Controller::new(quick_config(3, 2)).unwrap();
        for t in 0..8 {
            let entries = (0..3)
                .map(|i| (i, 0.2 + 0.1 * i as f64))
                .collect::<Vec<_>>();
            c.tick_frames(&[frame(t, &entries)]).unwrap();
        }
        let json = serde_json::to_string(&c.snapshot()).unwrap();
        let key = "\"assignments\":\"";
        let at = json.find(key).unwrap() + key.len() - 1;
        let end = at + 1 + json[at + 1..].find('"').unwrap();
        let packed: serde::Value = serde_json::from_str(&json[at..=end]).unwrap();
        let labels = utilcast_linalg::packed::labels::from_value(&packed).unwrap();
        let mut legacy = serde_json::to_string(&labels).unwrap();
        legacy.replace_range(1..2, "9");
        let hostile = format!("{}{legacy}{}", &json[..at], &json[end + 1..]);
        let snapshot: ControllerSnapshot = serde_json::from_str(&hostile).unwrap();
        match Controller::restore(snapshot) {
            Err(SimError::Core(utilcast_core::CoreError::InvalidConfig { reason })) => {
                assert!(
                    reason.contains("history[0].assignments[0] = 9 is out of range (k = 2)"),
                    "{reason}"
                );
            }
            other => panic!("expected a typed core error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn forecast_requires_a_tick() {
        let mut c = Controller::new(quick_config(4, 2)).unwrap();
        assert!(matches!(c.forecast(1), Err(SimError::NoTick)));
        assert!(matches!(c.forecast_table(), Err(SimError::NoTick)));
        assert!(matches!(c.serve_query_probes(3), Err(SimError::NoTick)));
        // After the first tick the typed error clears.
        c.tick_frames(&[frame(0, &[(0, 0.5)])]).unwrap();
        assert!(c.forecast(1).is_ok());
        assert!(c.forecast_table().is_ok());
    }

    #[test]
    fn query_probes_count_reads_and_reuse_the_table() {
        let mut c = Controller::new(quick_config(4, 2)).unwrap();
        c.tick_frames(&[frame(0, &[(0, 0.5), (1, 0.2)])]).unwrap();
        c.serve_query_probes(10).unwrap();
        c.serve_query_probes(10).unwrap();
        // Same tick: one rebuild serves both probe batches.
        assert_eq!(c.forecast_table_rebuilds(), 1);
        assert_eq!(c.forecast_reads_served(), 20);
        let r = c.tick_frames(&[frame(1, &[(0, 0.5)])]).unwrap();
        assert_eq!(r.forecast_table_rebuilds, 1);
        assert_eq!(r.forecast_reads_served, 20);
        c.serve_query_probes(5).unwrap();
        assert_eq!(c.forecast_table_rebuilds(), 2);
        assert_eq!(c.forecast_reads_served(), 25);
    }

    #[test]
    fn forecast_table_matches_forecast_bitwise() {
        let mut c = Controller::new(quick_config(6, 2)).unwrap();
        for t in 0..20 {
            let entries = (0..6)
                .map(|i| (i, if i < 3 { 0.2 } else { 0.8 }))
                .collect::<Vec<_>>();
            c.tick_frames(&[frame(t, &entries)]).unwrap();
            let table = c.forecast_table().unwrap();
            let reference = c.forecast(table.horizon()).unwrap();
            assert_eq!(
                table.forecast_matrix(),
                reference,
                "table diverged at t = {t}"
            );
        }
        // The wire codec serves table reads bitwise through encode/decode.
        use crate::transport::{QueryRequest, QueryResponse};
        let table = c.forecast_table().unwrap();
        let request = QueryRequest {
            node: 4,
            horizon: 1,
        };
        let response = QueryResponse::from_table(&table, &request).unwrap();
        assert_eq!(response.generation, table.generation());
        assert_eq!(
            response.value.to_bits(),
            table.node_forecast(4, 1).to_bits()
        );
        let mut buf = Vec::new();
        response.encode_into(&mut buf);
        assert_eq!(QueryResponse::decode(&buf), Some(response));
        // Out-of-range queries are refused, not panicked on.
        assert!(QueryResponse::from_table(
            &table,
            &QueryRequest {
                node: 99,
                horizon: 0
            }
        )
        .is_none());
        assert!(QueryResponse::from_table(
            &table,
            &QueryRequest {
                node: 0,
                horizon: table.horizon()
            }
        )
        .is_none());
    }

    #[test]
    fn forecast_tracks_groups() {
        let mut c = Controller::new(quick_config(6, 2)).unwrap();
        for t in 0..20 {
            let entries = (0..6)
                .map(|i| (i, if i < 3 { 0.2 } else { 0.8 }))
                .collect::<Vec<_>>();
            c.tick_frames(&[frame(t, &entries)]).unwrap();
        }
        let fc = c.forecast(2).unwrap();
        for (i, got) in fc[1].iter().enumerate().take(6) {
            let expected = if i < 3 { 0.2 } else { 0.8 };
            assert!(
                (got - expected).abs() < 0.05,
                "node {i}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn retrain_follows_policy() {
        let mut c = Controller::new(quick_config(4, 2)).unwrap();
        let mut trained_at = Vec::new();
        for t in 0..30 {
            let entries = (0..4).map(|i| (i, 0.1 * i as f64)).collect::<Vec<_>>();
            if c.tick_frames(&[frame(t, &entries)]).unwrap().retrained {
                trained_at.push(t + 1);
            }
        }
        assert_eq!(trained_at, vec![5, 15, 25]);
    }
}
