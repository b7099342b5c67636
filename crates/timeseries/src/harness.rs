//! Online training protocol: initial collection phase + periodic retraining.
//!
//! The paper trains each per-cluster model after an initial data-collection
//! phase (the first 1000 steps in Sec. VI-A3) and then retrains every 288
//! steps (one day at 5-minute sampling), while the transient state follows
//! every new measurement. [`RetrainingForecaster`] packages that protocol
//! around any [`Forecaster`].

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};

use crate::{Forecaster, TimeSeriesError};

/// When to (re)train the wrapped model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrainPolicy {
    /// Number of observations collected before the first training.
    pub warmup: usize,
    /// Retrain every this many observations after warmup.
    pub retrain_every: usize,
    /// Cap on the history length used for training (`None` = use all); the
    /// paper notes models may be retrained on "all (or a subset of)" the
    /// historical centroids.
    pub max_train_window: Option<usize>,
}

impl RetrainPolicy {
    /// Writes the policy into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.usize(self.warmup);
        out.usize(self.retrain_every);
        out.option(self.max_train_window.as_ref(), |out, &w| out.usize(w));
    }

    /// Reads a policy written by [`RetrainPolicy::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(RetrainPolicy {
            warmup: input.usize()?,
            retrain_every: input.usize()?,
            max_train_window: input.option(Reader::usize)?,
        })
    }

    /// The paper's protocol: warmup 1000 steps, retrain every 288.
    pub fn paper() -> Self {
        RetrainPolicy {
            warmup: 1000,
            retrain_every: 288,
            max_train_window: None,
        }
    }
}

impl Default for RetrainPolicy {
    fn default() -> Self {
        RetrainPolicy::paper()
    }
}

/// The model-independent state of a [`RetrainingForecaster`], detachable
/// for checkpointing: pair it with the model's checkpoint (its
/// `encode_into`) to persist a forecaster, and rebuild with [`RetrainingForecaster::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetrainState {
    /// The retraining policy.
    pub policy: RetrainPolicy,
    /// Observation history collected so far.
    pub history: Vec<f64>,
    /// Whether the model has been fitted at least once.
    pub trained: bool,
    /// Observations since the last successful fit.
    pub since_train: usize,
    /// Number of completed (re)trainings.
    pub retrain_count: usize,
}

impl RetrainState {
    /// Writes the state into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        self.policy.encode_into(out);
        out.f64s(&self.history);
        out.bool(self.trained);
        out.usize(self.since_train);
        out.usize(self.retrain_count);
    }

    /// Reads a state written by [`RetrainState::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(RetrainState {
            policy: RetrainPolicy::decode(input)?,
            history: input.f64s()?,
            trained: input.bool()?,
            since_train: input.usize()?,
            retrain_count: input.usize()?,
        })
    }
}

/// Wraps a [`Forecaster`] with the warmup/retrain lifecycle and an owned
/// observation history.
#[derive(Debug, Clone)]
pub struct RetrainingForecaster<F> {
    model: F,
    policy: RetrainPolicy,
    history: Vec<f64>,
    trained: bool,
    since_train: usize,
    retrain_count: usize,
}

impl<F: Forecaster> RetrainingForecaster<F> {
    /// Creates the wrapper around an unfitted model.
    pub fn new(model: F, policy: RetrainPolicy) -> Self {
        RetrainingForecaster {
            model,
            policy,
            history: Vec::new(),
            trained: false,
            since_train: 0,
            retrain_count: 0,
        }
    }

    /// Ingests one observation; trains or retrains the model when the
    /// policy says so. Returns `true` if a (re)training happened this step.
    /// The first training is a [`Forecaster::fit`]; every later one is a
    /// [`Forecaster::refit`], since the harness owns the history and knows
    /// it only grew (or, under `max_train_window`, slid forward). For
    /// [`crate::arima::Arima`] and [`crate::lstm::Lstm`] that later training
    /// continues from the outgoing model; a slid window holds no points the
    /// LSTM counts as new, so its refit there trains on the replay tail
    /// alone.
    ///
    /// A model that reports [`TimeSeriesError::TooShort`] is not yet
    /// trainable on the collected history (e.g. a seasonal model whose
    /// period exceeds the warmup); the harness treats that as "still
    /// warming up" and retries on every subsequent observation until the
    /// history suffices.
    ///
    /// # Errors
    ///
    /// Propagates other training errors from the wrapped model; the
    /// observation is still recorded, and training will be retried at the
    /// next trigger.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // timeseries::harness::RetrainingForecaster::observe
    pub fn observe(&mut self, value: f64) -> Result<bool, TimeSeriesError> {
        self.history.push(value);
        let should_train = if !self.trained {
            self.history.len() >= self.policy.warmup
        } else {
            self.since_train += 1;
            self.since_train >= self.policy.retrain_every
        };
        if !should_train {
            return Ok(false);
        }
        let window = match self.policy.max_train_window {
            Some(w) if self.history.len() > w => &self.history[self.history.len() - w..],
            _ => &self.history[..],
        };
        let fitted = if self.trained {
            self.model.refit(window)
        } else {
            self.model.fit(window)
        };
        match fitted {
            Ok(()) => {}
            Err(TimeSeriesError::TooShort { .. }) => {
                // Not enough history yet: stay in the warmup state (or keep
                // the previous fit) and retry as more data arrives.
                if self.trained {
                    self.since_train = 0;
                }
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
        self.trained = true;
        self.since_train = 0;
        self.retrain_count += 1;
        Ok(true)
    }

    /// Forecasts `horizon` steps ahead from the full observed history.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NotFitted`] during the warmup phase.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        if !self.trained {
            return Err(TimeSeriesError::NotFitted);
        }
        self.model.forecast(&self.history, horizon)
    }

    /// Forecasts, falling back to repeating the latest observation while the
    /// model is still warming up (the paper's "no forecasting model
    /// available" phase behaves like sample-and-hold).
    pub fn forecast_or_hold(&self, horizon: usize) -> Vec<f64> {
        match self.forecast(horizon) {
            Ok(fc) => fc,
            Err(_) => {
                let last = self.history.last().copied().unwrap_or(0.0);
                vec![last; horizon]
            }
        }
    }

    /// `true` once the model has been trained at least once.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Number of completed (re)trainings.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Observations ingested since the last successful fit.
    pub fn since_train(&self) -> usize {
        self.since_train
    }

    /// The retraining policy.
    pub fn policy(&self) -> RetrainPolicy {
        self.policy
    }

    /// Extracts the model-independent state for checkpointing. Pair it
    /// with a snapshot of [`RetrainingForecaster::model`] to persist the
    /// forecaster.
    pub fn state(&self) -> RetrainState {
        RetrainState {
            policy: self.policy,
            history: self.history.clone(),
            trained: self.trained,
            since_train: self.since_train,
            retrain_count: self.retrain_count,
        }
    }

    /// Rebuilds a forecaster from a checkpointed state and the matching
    /// (already fitted, if `state.trained`) model.
    pub fn from_state(model: F, state: RetrainState) -> Self {
        RetrainingForecaster {
            model,
            policy: state.policy,
            history: state.history,
            trained: state.trained,
            since_train: state.since_train,
            retrain_count: state.retrain_count,
        }
    }

    /// Installs an already-fitted replacement model, keeping the history
    /// and resetting the retrain clock (the next retrain happens a full
    /// `retrain_every` observations from now). Used by degraded-mode
    /// fallback chains: when the primary model's fit fails, a stand-in
    /// fitted on the same history takes its place.
    pub fn install_model(&mut self, model: F) {
        self.model = model;
        self.trained = true;
        self.since_train = 0;
    }

    /// The observation history collected so far.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The wrapped model.
    pub fn model(&self) -> &F {
        &self.model
    }

    /// Consumes the wrapper, returning the inner model.
    pub fn into_model(self) -> F {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{LongTermMean, SampleAndHold};

    fn policy(warmup: usize, every: usize) -> RetrainPolicy {
        RetrainPolicy {
            warmup,
            retrain_every: every,
            max_train_window: None,
        }
    }

    #[test]
    fn warmup_blocks_forecasting() {
        let mut rf = RetrainingForecaster::new(SampleAndHold::new(), policy(3, 10));
        rf.observe(1.0).unwrap();
        assert_eq!(rf.forecast(1), Err(TimeSeriesError::NotFitted));
        assert!(!rf.is_trained());
        rf.observe(2.0).unwrap();
        let trained = rf.observe(3.0).unwrap();
        assert!(trained);
        assert_eq!(rf.forecast(2).unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn forecast_or_hold_during_warmup() {
        let mut rf = RetrainingForecaster::new(SampleAndHold::new(), policy(100, 10));
        rf.observe(7.5).unwrap();
        assert_eq!(rf.forecast_or_hold(2), vec![7.5, 7.5]);
    }

    #[test]
    fn retrains_on_schedule() {
        let mut rf = RetrainingForecaster::new(LongTermMean::new(), policy(2, 3));
        for v in [1.0, 1.0] {
            rf.observe(v).unwrap();
        }
        assert_eq!(rf.retrain_count(), 1);
        // Mean is 1.0 now.
        assert_eq!(rf.forecast(1).unwrap(), vec![1.0]);
        // Next retraining after 3 more observations.
        rf.observe(4.0).unwrap();
        rf.observe(4.0).unwrap();
        assert_eq!(rf.retrain_count(), 1);
        // Stale model still predicts the old mean.
        assert_eq!(rf.forecast(1).unwrap(), vec![1.0]);
        rf.observe(4.0).unwrap();
        assert_eq!(rf.retrain_count(), 2);
        // Retrained on [1, 1, 4, 4, 4]: mean 2.8.
        let fc = rf.forecast(1).unwrap();
        assert!((fc[0] - 2.8).abs() < 1e-12);
    }

    #[test]
    fn first_training_fits_and_later_ones_refit() {
        /// Records which training entry point saw how long a history.
        #[derive(Default)]
        struct Recorder(Vec<(&'static str, usize)>);
        impl Forecaster for Recorder {
            fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
                self.0.push(("fit", history.len()));
                Ok(())
            }
            fn refit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
                self.0.push(("refit", history.len()));
                Ok(())
            }
            fn forecast(&self, _: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
                Ok(vec![0.0; horizon])
            }
            fn name(&self) -> &'static str {
                "recorder"
            }
        }
        let mut rf = RetrainingForecaster::new(Recorder::default(), policy(3, 2));
        for t in 0..7 {
            rf.observe(t as f64).unwrap();
        }
        assert_eq!(rf.model().0, [("fit", 3), ("refit", 5), ("refit", 7)]);
        // A stand-in installed after a failure is fitted on this history,
        // so its next training is a refit too.
        rf.install_model(Recorder::default());
        rf.observe(7.0).unwrap();
        rf.observe(8.0).unwrap();
        assert_eq!(rf.model().0, [("refit", 9)]);
    }

    #[test]
    fn train_window_caps_history_used() {
        let mut rf = RetrainingForecaster::new(
            LongTermMean::new(),
            RetrainPolicy {
                warmup: 5,
                retrain_every: 1000,
                max_train_window: Some(2),
            },
        );
        for v in [0.0, 0.0, 0.0, 6.0, 8.0] {
            rf.observe(v).unwrap();
        }
        // Only the last 2 observations are used: mean 7.
        assert_eq!(rf.forecast(1).unwrap(), vec![7.0]);
    }

    #[test]
    fn transient_state_follows_history_between_retrains() {
        // Sample-and-hold forecasts from the *latest* history even without
        // retraining — the "transient state" behaviour.
        let mut rf = RetrainingForecaster::new(SampleAndHold::new(), policy(1, 1000));
        rf.observe(1.0).unwrap();
        rf.observe(9.0).unwrap();
        assert_eq!(rf.forecast(1).unwrap(), vec![9.0]);
    }

    #[test]
    fn too_short_model_keeps_warming_up() {
        use crate::ets::{EtsConfig, HoltWinters};
        // Seasonal model needs period + 2 = 12 points but warmup is 5:
        // training is deferred (not an error) until the history suffices.
        let model = HoltWinters::new(EtsConfig {
            period: 10,
            ..Default::default()
        });
        let mut rf = RetrainingForecaster::new(model, policy(5, 1));
        let mut first_trained_at = None;
        for t in 1..=20 {
            let trained = rf.observe(0.5).unwrap();
            if trained && first_trained_at.is_none() {
                first_trained_at = Some(t);
            }
        }
        assert_eq!(
            first_trained_at,
            Some(12),
            "trains at the first feasible step"
        );
        assert!(rf.is_trained());
    }

    #[test]
    fn state_round_trip_preserves_behaviour() {
        let mut rf = RetrainingForecaster::new(LongTermMean::new(), policy(2, 3));
        for v in [1.0, 3.0, 2.0, 4.0] {
            rf.observe(v).unwrap();
        }
        let state = rf.state();
        assert_eq!(state.since_train, 2);
        assert_eq!(state.retrain_count, 1);
        let mut restored = RetrainingForecaster::from_state(*rf.model(), state);
        // Both copies must evolve identically from here on.
        for v in [5.0, 6.0, 7.0] {
            assert_eq!(rf.observe(v).unwrap(), restored.observe(v).unwrap());
        }
        assert_eq!(rf.forecast(2).unwrap(), restored.forecast(2).unwrap());
        assert_eq!(rf.retrain_count(), restored.retrain_count());
    }

    #[test]
    fn install_model_resets_retrain_clock() {
        let mut rf = RetrainingForecaster::new(SampleAndHold::new(), policy(1, 3));
        rf.observe(2.0).unwrap();
        rf.observe(4.0).unwrap();
        assert_eq!(rf.since_train(), 1);
        let mut stand_in = SampleAndHold::new();
        stand_in.fit(rf.history()).unwrap();
        rf.install_model(stand_in);
        assert!(rf.is_trained());
        assert_eq!(rf.since_train(), 0);
        // The stand-in forecasts from the shared history.
        assert_eq!(rf.forecast(1).unwrap(), vec![4.0]);
        // Next retrain happens a full interval later.
        rf.observe(6.0).unwrap();
        rf.observe(6.0).unwrap();
        assert_eq!(rf.since_train(), 2);
    }

    #[test]
    fn history_accessor() {
        let mut rf = RetrainingForecaster::new(SampleAndHold::new(), policy(1, 1));
        rf.observe(1.0).unwrap();
        rf.observe(2.0).unwrap();
        assert_eq!(rf.history(), &[1.0, 2.0]);
        assert_eq!(rf.model().name(), "sample-and-hold");
    }
}
