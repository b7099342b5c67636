//! Trivial forecasting baselines from the paper's evaluation.
//!
//! * [`SampleAndHold`] — "simply uses the cluster centroid values at time
//!   step `t` as the predicted future values" (Sec. VI-D1). Despite its
//!   simplicity the paper shows it is competitive, and uses it as the
//!   default forecaster when studying the clustering stage (Fig. 10,
//!   Table III).
//! * [`LongTermMean`] — forecasts the historical mean; its RMSE converges to
//!   the standard deviation of the data, which the paper plots as the error
//!   upper bound of any mechanism using only long-term statistics.

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};

use crate::{Forecaster, TimeSeriesError};

/// Repeats the latest observed value for every future step.
///
/// # Example
///
/// ```
/// use utilcast_timeseries::{Forecaster, baselines::SampleAndHold};
///
/// let mut m = SampleAndHold::new();
/// m.fit(&[1.0, 2.0, 3.0])?;
/// assert_eq!(m.forecast(&[1.0, 2.0, 3.0], 3)?, vec![3.0, 3.0, 3.0]);
/// # Ok::<(), utilcast_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleAndHold {
    fitted: bool,
}

impl SampleAndHold {
    /// Writes the model into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.bool(self.fitted);
    }

    /// Reads a model written by [`SampleAndHold::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(SampleAndHold {
            fitted: input.bool()?,
        })
    }

    /// Creates a sample-and-hold forecaster.
    pub fn new() -> Self {
        SampleAndHold { fitted: false }
    }
}

impl Forecaster for SampleAndHold {
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        if history.is_empty() {
            return Err(TimeSeriesError::TooShort { needed: 1, got: 0 });
        }
        self.fitted = true;
        Ok(())
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        if !self.fitted {
            return Err(TimeSeriesError::NotFitted);
        }
        let last = *history
            .last()
            .ok_or(TimeSeriesError::TooShort { needed: 1, got: 0 })?;
        Ok(vec![last; horizon])
    }

    fn name(&self) -> &'static str {
        "sample-and-hold"
    }
}

/// Forecasts the mean of the training history for every future step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LongTermMean {
    mean: Option<f64>,
}

impl LongTermMean {
    /// Writes the model into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.option(self.mean.as_ref(), |out, &mean| out.f64(mean));
    }

    /// Reads a model written by [`LongTermMean::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(LongTermMean {
            mean: input.option(Reader::f64)?,
        })
    }

    /// Creates a long-term-mean forecaster.
    pub fn new() -> Self {
        LongTermMean { mean: None }
    }

    /// Returns the fitted mean, if any.
    pub fn fitted_mean(&self) -> Option<f64> {
        self.mean
    }
}

impl Forecaster for LongTermMean {
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        if history.is_empty() {
            return Err(TimeSeriesError::TooShort { needed: 1, got: 0 });
        }
        self.mean = Some(utilcast_linalg::stats::mean(history));
        Ok(())
    }

    fn forecast(&self, _history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        let m = self.mean.ok_or(TimeSeriesError::NotFitted)?;
        Ok(vec![m; horizon])
    }

    fn name(&self) -> &'static str {
        "long-term-mean"
    }
}

/// Drift forecaster: extrapolates the average slope of the training history
/// (the classic "drift method"). Not in the paper; provided as an extra
/// reference point for the bench ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Drift {
    slope: Option<f64>,
}

impl Drift {
    /// Creates a drift forecaster.
    pub fn new() -> Self {
        Drift { slope: None }
    }
}

impl Forecaster for Drift {
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::baselines::Drift::fit
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        if history.len() < 2 {
            return Err(TimeSeriesError::TooShort {
                needed: 2,
                got: history.len(),
            });
        }
        let n = history.len();
        self.slope = Some((history[n - 1] - history[0]) / (n - 1) as f64);
        Ok(())
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        let slope = self.slope.ok_or(TimeSeriesError::NotFitted)?;
        let last = *history
            .last()
            .ok_or(TimeSeriesError::TooShort { needed: 1, got: 0 })?;
        Ok((1..=horizon).map(|h| last + slope * h as f64).collect())
    }

    fn name(&self) -> &'static str {
        "drift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_and_hold_repeats_last() {
        let mut m = SampleAndHold::new();
        m.fit(&[5.0]).unwrap();
        assert_eq!(m.forecast(&[1.0, 9.0], 4).unwrap(), vec![9.0; 4]);
    }

    #[test]
    fn sample_and_hold_uses_latest_history_not_training() {
        // Fit on one history, forecast from a newer one: the *transient
        // state* follows the history argument.
        let mut m = SampleAndHold::new();
        m.fit(&[1.0, 2.0]).unwrap();
        assert_eq!(m.forecast(&[7.0], 1).unwrap(), vec![7.0]);
    }

    #[test]
    fn sample_and_hold_requires_fit() {
        let m = SampleAndHold::new();
        assert_eq!(m.forecast(&[1.0], 1), Err(TimeSeriesError::NotFitted));
    }

    #[test]
    fn long_term_mean_forecasts_training_mean() {
        let mut m = LongTermMean::new();
        m.fit(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.fitted_mean(), Some(2.0));
        // History at forecast time does not change the prediction.
        assert_eq!(m.forecast(&[100.0], 2).unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn drift_extrapolates_slope() {
        let mut m = Drift::new();
        m.fit(&[0.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(
            m.forecast(&[0.0, 1.0, 2.0, 3.0], 2).unwrap(),
            vec![4.0, 5.0]
        );
    }

    #[test]
    fn empty_fit_errors() {
        assert!(SampleAndHold::new().fit(&[]).is_err());
        assert!(LongTermMean::new().fit(&[]).is_err());
        assert!(Drift::new().fit(&[1.0]).is_err());
    }

    #[test]
    fn zero_horizon_gives_empty_forecast() {
        let mut m = SampleAndHold::new();
        m.fit(&[1.0]).unwrap();
        assert!(m.forecast(&[1.0], 0).unwrap().is_empty());
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(SampleAndHold::new().name(), LongTermMean::new().name());
        assert_ne!(SampleAndHold::new().name(), Drift::new().name());
    }

    #[test]
    fn boxed_forecaster_forwards() {
        let mut b: Box<dyn Forecaster> = Box::new(SampleAndHold::new());
        b.fit(&[2.0]).unwrap();
        assert_eq!(b.forecast(&[3.0], 1).unwrap(), vec![3.0]);
        assert_eq!(b.name(), "sample-and-hold");
    }
}
