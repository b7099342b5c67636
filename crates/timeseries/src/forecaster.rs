use crate::TimeSeriesError;

/// A univariate time-series forecasting model.
///
/// The pipeline trains one forecaster per cluster on the centroid series
/// (Sec. V-C). Models are *fitted* on a training history (learning
/// parameters such as ARMA coefficients or LSTM weights), then *forecast*
/// from the most recent history — passing the up-to-date history to
/// [`Forecaster::forecast`] is how the paper's "transient state gets updated
/// whenever a new measurement is available" is realized without retraining.
///
/// Implementors: [`crate::arima::Arima`], [`crate::lstm::Lstm`],
/// [`crate::baselines::SampleAndHold`], [`crate::baselines::LongTermMean`].
pub trait Forecaster: Send {
    /// Fits model parameters on the training history, from scratch: the
    /// result depends on `history` (and the model's configuration) alone,
    /// never on what the model was fitted on before.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::TooShort`] when the history cannot support
    /// the model order, or [`TimeSeriesError::FitDiverged`] if optimization
    /// fails to find finite parameters. The ARIMA models and the LSTM also
    /// reject a history holding a NaN or an infinity with
    /// [`TimeSeriesError::NonFinite`].
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError>;

    /// Retrains on a `history` that *extends* the series this model was last
    /// fitted on (the retraining protocol of Sec. V-C: the same centroid
    /// series, a few intervals longer). A model may continue from its
    /// current parameters instead of starting over — [`crate::arima::Arima`]
    /// warm-starts its optimizer from the outgoing coefficients, and
    /// [`crate::lstm::Lstm`] trains on from its outgoing weights over the
    /// windows new since its last (re)fit plus a short replay tail — so the
    /// result may depend on the outgoing fit as well as on `history`. The
    /// default is [`Forecaster::fit`], which is also what an unfitted model
    /// does.
    ///
    /// This is a separate method, not a state of `fit`, because only the
    /// caller knows whether the history merely grew: parameters fitted on an
    /// *unrelated* series are a worse starting point than none. For a
    /// from-scratch retrain, call `fit` (or build a fresh model).
    ///
    /// # Errors
    ///
    /// As [`Forecaster::fit`]; a failed refit leaves the previous fit in
    /// place.
    fn refit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        self.fit(history)
    }

    /// Forecasts `horizon` future values given the (possibly longer than the
    /// training set) up-to-date history. Returns forecasts for steps
    /// `t+1 ..= t+horizon` where `t` indexes the last element of `history`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NotFitted`] when called before a
    /// successful [`Forecaster::fit`], or [`TimeSeriesError::TooShort`] when
    /// the history is shorter than the model requires.
    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError>;

    /// Short human-readable model name for reports ("arima", "lstm", ...).
    fn name(&self) -> &'static str;
}

/// Boxed-forecaster convenience: trait objects forward to the inner model,
/// letting the pipeline hold `Box<dyn Forecaster>` per cluster.
impl Forecaster for Box<dyn Forecaster> {
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        (**self).fit(history)
    }

    fn refit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        (**self).refit(history)
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        (**self).forecast(history, horizon)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
