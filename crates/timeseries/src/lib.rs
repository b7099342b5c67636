//! Time-series forecasting substrate for the utilcast pipeline.
//!
//! The paper's temporal-forecasting stage (Sec. V-C) trains one model per
//! cluster on the evolving centroid series and compares three families in
//! its evaluation (Sec. VI-D1):
//!
//! * **ARIMA** — [`arima`] implements a from-scratch seasonal
//!   ARIMA(p,d,q)(P,D,Q)ₛ fitted by conditional sum of squares (CSS) with
//!   Nelder–Mead, and the AICc grid search the paper uses for model
//!   selection.
//! * **LSTM** — [`lstm`] implements a from-scratch stacked-LSTM regressor
//!   (two LSTM layers plus a ReLU dense head, trained with Adam) matching
//!   the architecture described in Sec. VI-A3.
//! * **Sample-and-hold** — [`baselines::SampleAndHold`] repeats the latest
//!   value; [`baselines::LongTermMean`] forecasts the historical mean, whose
//!   error converges to the standard deviation the paper plots as an upper
//!   bound.
//!
//! All models implement the [`Forecaster`] trait so the pipeline can swap
//! them, and [`harness::RetrainingForecaster`] adds the paper's protocol of
//! an initial collection phase plus periodic retraining.
//!
//! # Example
//!
//! ```
//! use utilcast_timeseries::{Forecaster, baselines::SampleAndHold};
//!
//! let history: Vec<f64> = (0..100).map(|t| (t as f64 * 0.1).sin()).collect();
//! let mut model = SampleAndHold::new();
//! model.fit(&history)?;
//! let fc = model.forecast(&history, 5)?;
//! assert_eq!(fc.len(), 5);
//! assert_eq!(fc[0], *history.last().unwrap());
//! # Ok::<(), utilcast_timeseries::TimeSeriesError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::dbg_macro
)]

pub mod acf;
pub mod arima;
pub mod baselines;
pub mod diff;
mod error;
pub mod ets;
mod forecaster;
pub mod harness;
pub mod lstm;

pub use error::TimeSeriesError;
pub use forecaster::Forecaster;
