//! The repo's end-to-end benchmark: one closed-loop client driving the
//! whole controller slot — adaptive transmission, ARQ delivery, admission,
//! clustering, forecasting, the read plane and checkpointing — on four
//! workloads, with a traced run that attributes the slot to its layers.
//! See `README.md` beside this crate's manifest.

pub mod compare;
pub mod fleet;
pub mod metrics;
pub mod report;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
