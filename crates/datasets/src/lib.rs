//! Synthetic datasets for the utilcast pipeline.
//!
//! The paper evaluates on three real computing-cluster traces (Alibaba 2018,
//! GWA-T-12 Bitbrains `Rnd`, Google cluster usage v2) and motivates its
//! design with the Intel Berkeley sensor-lab dataset. None of those can ship
//! with this repository, so this crate generates synthetic traces that
//! reproduce the statistical features the paper's algorithms actually react
//! to (see DESIGN.md §2 for the substitution argument):
//!
//! * **weak long-term spatial correlation** between machines, but **strong
//!   short-term group structure**: nodes follow latent workload groups whose
//!   membership drifts over time (cluster churn);
//! * diurnal cycles, regime shifts, task-burst spikes, heavy tails (for the
//!   VM-like Bitbrains preset), and per-node noise;
//! * for the sensor preset, the opposite regime — a smooth global field with
//!   per-node offsets, giving the high pairwise correlations of Fig. 1.
//!
//! # Example
//!
//! ```
//! use utilcast_datasets::presets;
//!
//! let trace = presets::alibaba_like().nodes(50).steps(500).seed(7).generate();
//! assert_eq!(trace.num_nodes(), 50);
//! assert_eq!(trace.num_steps(), 500);
//! let m = trace.measurement(0, 0);
//! assert_eq!(m.len(), 2); // CPU + memory
//! assert!(m.iter().all(|&v| (0.0..=1.0).contains(&v)));
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

pub mod csv;
pub mod events;
pub mod generator;
pub mod presets;
pub mod sensor;
pub mod stats;
mod trace;

pub use trace::{Resource, Trace, TraceError};
