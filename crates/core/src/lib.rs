//! The utilcast core mechanism (Tuor et al., ICDCS 2019).
//!
//! This crate implements the paper's contribution end to end:
//!
//! 1. **Adaptive measurement collection** ([`transmit`]) — every node runs a
//!    Lyapunov drift-plus-penalty rule to decide, each time step, whether to
//!    push its latest measurement to the controller, keeping its long-run
//!    transmission frequency below the budget `B_i` (Sec. V-A).
//! 2. **Dynamic cluster construction** ([`cluster`]) — the controller
//!    k-means-clusters the stored (possibly stale) measurements each step
//!    and re-indexes the clusters against recent history by maximum-weight
//!    bipartite matching, so each cluster index denotes a *persistent*
//!    group whose centroid traces out a time series (Sec. V-B).
//! 3. **Temporal forecasting with per-node offsets** ([`offset`],
//!    [`pipeline`]) — one forecasting model per cluster is trained on the
//!    centroid series; a node's forecast is its predicted cluster's centroid
//!    forecast plus a clipped per-node offset (Sec. V-C, Eq. 12).
//!
//! [`metrics`] provides the paper's error definitions (Eqs. 3–5),
//! [`central::CentralNode`] is the controller of Fig. 2, and
//! [`pipeline::Pipeline`] runs it behind the nodes' transmitters.
//!
//! # Example
//!
//! ```
//! use utilcast_core::pipeline::{Pipeline, PipelineConfig};
//!
//! let config = PipelineConfig {
//!     num_nodes: 8,
//!     k: 2,
//!     warmup: 20,
//!     retrain_every: 10,
//!     ..Default::default()
//! };
//! let mut pipeline = Pipeline::new(config)?;
//! // Feed scalar per-node measurements (e.g. CPU utilization).
//! for t in 0..60 {
//!     let x: Vec<f64> = (0..8)
//!         .map(|i| if i < 4 { 0.2 } else { 0.8 } + (t as f64 * 0.1).sin() * 0.01)
//!         .collect();
//!     pipeline.step(&x)?;
//! }
//! let forecasts = pipeline.forecast(3)?; // per-horizon, per-node values
//! assert_eq!(forecasts.len(), 3);
//! assert_eq!(forecasts[0].len(), 8);
//! # Ok::<(), utilcast_core::CoreError>(())
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

pub mod allocate;
pub mod central;
pub mod cluster;
pub mod compute;
pub mod detect;
mod error;
pub mod metrics;
pub mod multi;
pub mod offset;
#[cfg(test)]
mod oracle;
pub mod pipeline;
pub mod stage;
pub mod table;
pub mod transmit;

pub use error::CoreError;
