use std::error::Error;
use std::fmt;

/// Error type for time-series operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TimeSeriesError {
    /// The series is too short for the requested operation.
    TooShort {
        /// Minimum length required.
        needed: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// `forecast` was called before `fit`.
    NotFitted,
    /// A configuration value is invalid.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The optimizer failed to produce finite parameters.
    FitDiverged,
    /// The series handed to `fit` holds a NaN or an infinity.
    NonFinite {
        /// Index of the first non-finite value.
        index: usize,
    },
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSeriesError::TooShort { needed, got } => {
                write!(
                    f,
                    "series too short: need at least {needed} points, got {got}"
                )
            }
            TimeSeriesError::NotFitted => write!(f, "model has not been fitted"),
            TimeSeriesError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            TimeSeriesError::FitDiverged => write!(f, "model fitting diverged"),
            TimeSeriesError::NonFinite { index } => {
                write!(f, "series value at index {index} is not finite")
            }
        }
    }
}

impl Error for TimeSeriesError {}

/// Rejects a series holding a NaN or an infinity before a fit spends any
/// work on it. Every ARIMA CSS evaluation reads every point, so such a
/// series makes the objective `NaN` everywhere: the optimizer would burn its
/// whole budget (per grid order) and report a
/// [`TimeSeriesError::FitDiverged`] that names no cause. The LSTM normalizes
/// over the whole history, but a refit trains on its tail only, so a NaN
/// outside that tail would otherwise pass unnoticed.
pub(crate) fn require_finite(series: &[f64]) -> Result<(), TimeSeriesError> {
    match series.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(TimeSeriesError::NonFinite { index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            TimeSeriesError::TooShort { needed: 10, got: 3 }.to_string(),
            "series too short: need at least 10 points, got 3"
        );
        assert_eq!(
            TimeSeriesError::NotFitted.to_string(),
            "model has not been fitted"
        );
        assert!(TimeSeriesError::InvalidConfig {
            reason: "window must be positive".into()
        }
        .to_string()
        .contains("window"));
        assert_eq!(
            TimeSeriesError::NonFinite { index: 7 }.to_string(),
            "series value at index 7 is not finite"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimeSeriesError>();
    }
}
