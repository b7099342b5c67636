//! Clustering algorithms for the utilcast pipeline.
//!
//! Implements the building blocks of the paper's dynamic-clustering stage
//! (Sec. V-B) and the baselines it is evaluated against (Sec. VI-C2):
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding and restarts, the
//!   per-step clustering primitive.
//! * [`hungarian`] — maximum-weight bipartite matching used to re-index the
//!   clusters of step `t` against the clusters of previous steps (Eq. 11).
//! * [`similarity`] — the paper's set-intersection similarity (Eq. 10) and
//!   the Jaccard index it is compared with in Fig. 11.
//! * [`baselines`] — the *static* (offline, whole-series) clustering and the
//!   *minimum-distance* (random centroids) baselines of Fig. 6/7/10.
//!
//! # Example
//!
//! ```
//! use utilcast_clustering::kmeans::{KMeans, KMeansConfig};
//!
//! let points = vec![
//!     vec![0.0], vec![0.1], vec![0.2],  // low group
//!     vec![0.9], vec![1.0], vec![1.1],  // high group
//! ];
//! let result = KMeans::new(KMeansConfig { k: 2, seed: 7, ..Default::default() })
//!     .fit(&points)?;
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[5]);
//! # Ok::<(), utilcast_clustering::ClusteringError>(())
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

pub mod baselines;
mod error;
pub mod hungarian;
pub mod kmeans;
pub mod parallel;
pub mod quality;
pub mod similarity;

pub use error::ClusteringError;
