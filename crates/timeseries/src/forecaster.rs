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
    /// Fits (or refits) model parameters on the training history.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::TooShort`] when the history cannot support
    /// the model order, or [`TimeSeriesError::FitDiverged`] if optimization
    /// fails to find finite parameters. The ARIMA models also reject a
    /// history holding a NaN or an infinity with
    /// [`TimeSeriesError::NonFinite`].
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError>;

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

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        (**self).forecast(history, horizon)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}
