//! Exponential smoothing (ETS) forecasters: simple, Holt (trend), and
//! Holt–Winters (additive seasonality).
//!
//! The paper's Sec. V-C leaves the model family open ("ARIMA, LSTM,
//! etc."); exponential smoothing is the classic lightweight alternative —
//! cheaper than ARIMA (no optimizer in the default configuration, one pass
//! per fit) and a strong baseline on diurnal utilization data thanks to the
//! seasonal component. Used by the bench ablations and available as a
//! [`crate::Forecaster`] for the pipeline.

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};

use crate::{Forecaster, TimeSeriesError};

/// Configuration for [`HoltWinters`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EtsConfig {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Trend smoothing factor `β ∈ [0, 1]`; `0` disables the trend term.
    pub beta: f64,
    /// Seasonal smoothing factor `γ ∈ [0, 1]`; ignored when `period == 0`.
    pub gamma: f64,
    /// Seasonal period in steps; `0` disables seasonality.
    pub period: usize,
    /// Damping factor `φ ∈ (0, 1]` applied to the trend in multi-step
    /// forecasts (`1` = undamped).
    pub damping: f64,
}

impl Default for EtsConfig {
    fn default() -> Self {
        EtsConfig {
            alpha: 0.4,
            beta: 0.05,
            gamma: 0.1,
            period: 0,
            damping: 0.98,
        }
    }
}

impl EtsConfig {
    /// Writes the configuration into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.f64(self.alpha);
        out.f64(self.beta);
        out.f64(self.gamma);
        out.usize(self.period);
        out.f64(self.damping);
    }

    /// Reads a configuration written by [`EtsConfig::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(EtsConfig {
            alpha: input.f64()?,
            beta: input.f64()?,
            gamma: input.f64()?,
            period: input.usize()?,
            damping: input.f64()?,
        })
    }

    /// A daily-seasonal configuration for 5-minute sampling (period 288).
    pub fn daily() -> Self {
        EtsConfig {
            period: 288,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<(), TimeSeriesError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(TimeSeriesError::InvalidConfig {
                reason: format!("alpha must be in (0, 1], got {}", self.alpha),
            });
        }
        for (name, v) in [("beta", self.beta), ("gamma", self.gamma)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(TimeSeriesError::InvalidConfig {
                    reason: format!("{name} must be in [0, 1], got {v}"),
                });
            }
        }
        if !(self.damping > 0.0 && self.damping <= 1.0) {
            return Err(TimeSeriesError::InvalidConfig {
                reason: format!("damping must be in (0, 1], got {}", self.damping),
            });
        }
        Ok(())
    }
}

/// Fitted smoothing state.
#[derive(Debug, Clone, PartialEq)]
struct EtsState {
    level: f64,
    trend: f64,
    /// Seasonal offsets, length `period` (empty when non-seasonal).
    seasonal: Vec<f64>,
    /// Index into `seasonal` for the *next* step.
    phase: usize,
    /// In-sample one-step MSE, for diagnostics.
    mse: f64,
}

/// Holt–Winters exponential smoothing (additive trend + additive
/// seasonality, both optional).
///
/// # Example
///
/// ```
/// use utilcast_timeseries::ets::{EtsConfig, HoltWinters};
/// use utilcast_timeseries::Forecaster;
///
/// // Period-4 sawtooth: the seasonal model should learn the pattern.
/// let series: Vec<f64> = (0..120).map(|t| (t % 4) as f64 * 0.2).collect();
/// let mut model = HoltWinters::new(EtsConfig { period: 4, gamma: 0.5, ..Default::default() });
/// model.fit(&series)?;
/// let fc = model.forecast(&series, 4)?;
/// assert!((fc[0] - 0.0).abs() < 0.05); // t = 120 -> phase 0
/// assert!((fc[3] - 0.6).abs() < 0.05);
/// # Ok::<(), utilcast_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HoltWinters {
    config: EtsConfig,
    state: Option<EtsState>,
}

impl HoltWinters {
    /// Writes the model into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        self.config.encode_into(out);
        out.option(self.state.as_ref(), |out, s| {
            out.f64(s.level);
            out.f64(s.trend);
            out.f64s(&s.seasonal);
            out.usize(s.phase);
            out.f64(s.mse);
        });
    }

    /// Reads a model written by [`HoltWinters::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(HoltWinters {
            config: EtsConfig::decode(input)?,
            state: input.option(|input| {
                Ok(EtsState {
                    level: input.f64()?,
                    trend: input.f64()?,
                    seasonal: input.f64s()?,
                    phase: input.usize()?,
                    mse: input.f64()?,
                })
            })?,
        })
    }

    /// Creates an unfitted model.
    pub fn new(config: EtsConfig) -> Self {
        HoltWinters {
            config,
            state: None,
        }
    }

    /// Creates a non-seasonal simple/Holt smoother.
    pub fn simple(alpha: f64, beta: f64) -> Self {
        HoltWinters::new(EtsConfig {
            alpha,
            beta,
            gamma: 0.0,
            period: 0,
            damping: 1.0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &EtsConfig {
        &self.config
    }

    /// In-sample one-step MSE of the last fit.
    pub fn in_sample_mse(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.mse)
    }

    /// Runs the smoothing recursion over a series, returning the final
    /// state.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::ets::HoltWinters::fit ->
    // timeseries::ets::HoltWinters::smooth
    fn smooth(&self, series: &[f64]) -> EtsState {
        let c = &self.config;
        let p = c.period;
        let seasonal_on = p >= 2 && c.gamma > 0.0;
        // Initialization: level = mean of the first period (or first
        // value), trend from the first two periods, seasonal offsets from
        // deviations within the first period.
        let init_window = if seasonal_on { p.min(series.len()) } else { 1 };
        let level0: f64 = series[..init_window].iter().sum::<f64>() / init_window as f64;
        let mut seasonal = if seasonal_on {
            (0..p)
                .map(|i| series.get(i).map_or(0.0, |v| v - level0))
                .collect()
        } else {
            Vec::new()
        };
        let mut level = level0;
        let mut trend = 0.0;
        let mut sse = 0.0;
        let mut count = 0usize;
        for (t, &x) in series.iter().enumerate() {
            let phase = if seasonal_on { t % p } else { 0 };
            let s = if seasonal_on { seasonal[phase] } else { 0.0 };
            let pred = level + trend + s;
            sse += (x - pred) * (x - pred);
            count += 1;
            let deseason = x - s;
            let new_level = c.alpha * deseason + (1.0 - c.alpha) * (level + trend);
            trend = c.beta * (new_level - level) + (1.0 - c.beta) * c.damping * trend;
            level = new_level;
            if seasonal_on {
                seasonal[phase] = c.gamma * (x - level) + (1.0 - c.gamma) * s;
            }
        }
        EtsState {
            level,
            trend,
            seasonal,
            // lint:allow(panic-path): seasonal_on implies p >= 2, so `% p`
            // cannot trap; chain HoltWinters::fit -> HoltWinters::smooth
            phase: if seasonal_on { series.len() % p } else { 0 },
            mse: sse / count.max(1) as f64,
        }
    }
}

impl Forecaster for HoltWinters {
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        self.config.validate()?;
        let needed = if self.config.period >= 2 && self.config.gamma > 0.0 {
            self.config.period + 2
        } else {
            2
        };
        if history.len() < needed {
            return Err(TimeSeriesError::TooShort {
                needed,
                got: history.len(),
            });
        }
        self.state = Some(self.smooth(history));
        Ok(())
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        if self.state.is_none() {
            return Err(TimeSeriesError::NotFitted);
        }
        if history.is_empty() {
            return Err(TimeSeriesError::TooShort { needed: 1, got: 0 });
        }
        // Re-run the (cheap) recursion over the up-to-date history so the
        // transient state follows every new measurement, per the paper's
        // protocol; smoothing factors stay as fitted.
        let state = self.smooth(history);
        let c = &self.config;
        let seasonal_on = !state.seasonal.is_empty();
        let mut out = Vec::with_capacity(horizon);
        let mut damp_acc = 0.0;
        let mut damp_pow = 1.0;
        for h in 0..horizon {
            damp_pow *= c.damping;
            damp_acc += damp_pow;
            let s = if seasonal_on {
                // lint:allow(panic-path): seasonal_on means the seasonal
                // buffer is non-empty, so `%` by its length cannot trap;
                // chain HoltWinters::forecast
                state.seasonal[(state.phase + h) % state.seasonal.len()]
            } else {
                0.0
            };
            out.push(state.level + damp_acc * state.trend + s);
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "holt-winters"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_forecasts_constant() {
        let series = vec![0.42; 50];
        let mut m = HoltWinters::simple(0.3, 0.0);
        m.fit(&series).unwrap();
        for v in m.forecast(&series, 5).unwrap() {
            assert!((v - 0.42).abs() < 1e-9);
        }
        assert!(m.in_sample_mse().unwrap() < 1e-12);
    }

    #[test]
    fn trend_is_extrapolated_with_damping() {
        let series: Vec<f64> = (0..100).map(|t| t as f64 * 0.01).collect();
        let mut m = HoltWinters::new(EtsConfig {
            alpha: 0.5,
            beta: 0.3,
            gamma: 0.0,
            period: 0,
            damping: 1.0,
        });
        m.fit(&series).unwrap();
        let fc = m.forecast(&series, 3).unwrap();
        assert!((fc[0] - 1.00).abs() < 0.02, "fc[0] = {}", fc[0]);
        assert!(fc[2] > fc[0], "trend must continue upward");
        // With damping < 1, long-horizon growth flattens.
        let mut damped = HoltWinters::new(EtsConfig {
            alpha: 0.5,
            beta: 0.3,
            gamma: 0.0,
            period: 0,
            damping: 0.5,
        });
        damped.fit(&series).unwrap();
        let fd = damped.forecast(&series, 50).unwrap();
        let fu = m.forecast(&series, 50).unwrap();
        assert!(fd[49] < fu[49], "damped forecast must stay below undamped");
    }

    #[test]
    fn seasonal_pattern_is_learned() {
        let pattern = [0.1, 0.6, 0.9, 0.4];
        let series: Vec<f64> = (0..200).map(|t| pattern[t % 4]).collect();
        let mut m = HoltWinters::new(EtsConfig {
            period: 4,
            gamma: 0.5,
            ..Default::default()
        });
        m.fit(&series).unwrap();
        let fc = m.forecast(&series, 8).unwrap();
        for (h, v) in fc.iter().enumerate() {
            let truth = pattern[(200 + h) % 4];
            assert!((v - truth).abs() < 0.05, "h={h}: {v} vs {truth}");
        }
    }

    #[test]
    fn transient_state_follows_new_history() {
        let mut m = HoltWinters::simple(0.9, 0.0);
        m.fit(&[0.5; 30]).unwrap();
        // Forecasting from a shifted history must follow the new level.
        let shifted = vec![0.9; 30];
        let fc = m.forecast(&shifted, 1).unwrap();
        assert!((fc[0] - 0.9).abs() < 0.01, "fc = {}", fc[0]);
    }

    #[test]
    fn invalid_configs_rejected() {
        for cfg in [
            EtsConfig {
                alpha: 0.0,
                ..Default::default()
            },
            EtsConfig {
                beta: 1.5,
                ..Default::default()
            },
            EtsConfig {
                gamma: -0.1,
                ..Default::default()
            },
            EtsConfig {
                damping: 0.0,
                ..Default::default()
            },
        ] {
            let mut m = HoltWinters::new(cfg);
            assert!(matches!(
                m.fit(&[0.0; 50]),
                Err(TimeSeriesError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn short_series_and_unfitted_errors() {
        let mut m = HoltWinters::new(EtsConfig {
            period: 24,
            ..Default::default()
        });
        assert!(matches!(
            m.fit(&[0.0; 10]),
            Err(TimeSeriesError::TooShort { .. })
        ));
        let m = HoltWinters::simple(0.5, 0.0);
        assert_eq!(m.forecast(&[1.0], 1), Err(TimeSeriesError::NotFitted));
    }

    #[test]
    fn daily_preset_has_period_288() {
        assert_eq!(EtsConfig::daily().period, 288);
    }
}
