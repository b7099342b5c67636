//! Gaussian-model monitor-selection baselines and the monitor-based
//! comparison protocol (paper Sec. VI-E; baselines from Silvestri et al.,
//! ICDCS 2015).
//!
//! The setting differs from the main pipeline: there are separate *training*
//! and *testing* phases. During training the controller sees every node's
//! measurements (`B = 1`) and selects `K ≪ N` *monitors*; during testing
//! only the monitors transmit, and the controller infers every other node's
//! value — with a jointly-Gaussian model for the baselines, or with the
//! cluster-representative rule for the adapted proposed approach.
//!
//! Provided selectors ([`selection`]):
//!
//! * **Top-W** — one-shot scoring by total squared correlation; cheapest.
//! * **Top-W-Update** — iterative: re-scores against the *residual*
//!   covariance (Schur complement) after each pick; most expensive, matching
//!   the cost ordering of the paper's Table IV.
//! * **Batch Selection** — greedy variance-reduction with rank-1 residual
//!   updates; between the two in cost.
//! * **Proposed (k-means)** — the paper's method adapted to this protocol:
//!   cluster the training series, pick the node nearest each centroid.
//! * **Random** — the minimum-distance baseline's random monitor choice.
//!
//! # Example
//!
//! ```
//! use utilcast_gaussian::{protocol, selection::TopWUpdate, estimate::GaussianEstimator};
//! use utilcast_linalg::Matrix;
//!
//! // 4 nodes, 60 steps: two correlated pairs.
//! let t = 60;
//! let mut data = Matrix::zeros(4, t);
//! for s in 0..t {
//!     let a = (s as f64 * 0.3).sin();
//!     let b = (s as f64 * 0.7).cos();
//!     data[(0, s)] = a; data[(1, s)] = a + 0.01;
//!     data[(2, s)] = b; data[(3, s)] = b - 0.01;
//! }
//! let (train, test) = protocol::split(&data, 40);
//! // Top-W-Update avoids picking both monitors from the same pair.
//! let report = protocol::run_with_k(
//!     &train, &test, &TopWUpdate, &GaussianEstimator::default(), Some(2))?;
//! assert!(report.rmse < 0.1, "rmse {}", report.rmse);
//! # Ok::<(), utilcast_gaussian::GaussianError>(())
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

mod error;
pub mod estimate;
pub mod model;
pub mod protocol;
pub mod selection;

pub use error::GaussianError;
