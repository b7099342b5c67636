//! Dense linear algebra, numerical optimization, and descriptive statistics.
//!
//! This crate is the numerical substrate for the `utilcast` workspace. It is
//! deliberately small and self-contained: everything the higher layers need
//! (covariance estimation for the Gaussian baselines, Cholesky factorization
//! for conditional-Gaussian inference, Nelder–Mead for ARIMA coefficient
//! fitting, empirical CDFs for the paper's Fig. 1 experiment) is implemented
//! here from scratch, with no external linear-algebra dependencies. Every
//! crate that owns checkpoint state depends on it, so it also carries the
//! checkpoint [`container`] each of them writes its state into.
//!
//! # Example
//!
//! ```
//! use utilcast_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let chol = a.cholesky().expect("positive definite");
//! let x = chol.solve_vec(&[2.0, 1.0]);
//! // Verify A x = b.
//! let b = a.mat_vec(&x);
//! assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
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

mod cholesky;
pub mod container;
mod error;
pub mod kernels;
mod matrix;
pub mod optimize;
pub mod rng;
pub mod simd;
pub mod stats;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
