//! A time-slotted simulation of the paper's distributed system.
//!
//! While `utilcast-core` exposes the algorithms as a single in-process
//! pipeline, this crate deploys them the way the paper's system actually
//! runs (Fig. 2): `N` **local nodes** each own an adaptive transmitter and
//! decide independently when to push their measurement; a **central
//! controller** receives the messages, maintains the stale store, and runs
//! dynamic clustering plus per-cluster forecasting. A [`transport`] layer
//! counts every message and byte so experiments can report communication
//! cost.
//!
//! Three drivers run that time-slotted loop. Each collects its own way and
//! hands the tick's reports, as [`transport::ReportFrame`]s, to one
//! crate-private slot engine, which delivers them, meters them, ticks the
//! controller through its one entry point
//! ([`controller::Controller::tick_frames`]), scores the tick, serves the
//! query probes, checkpoints, and assembles the [`sim::SimReport`]:
//!
//! * [`sim::Simulation`] — the whole fleet as one shard, in-thread;
//! * [`threaded::run_threaded`] — nodes sharded over stateless worker
//!   threads; produces *identical* results to [`sim::Simulation`] for the
//!   same inputs (verified by tests), because a tick's outcome depends only
//!   on the order of each node's own messages, which sharding keeps;
//! * [`faults::run_with_faults`] — per-node collection under a
//!   [`faults::FaultPlan`] of node crashes, message loss, partitions,
//!   corruption and controller crashes, to quantify how gracefully accuracy
//!   degrades.
//!
//! The crate also carries a resilience layer: the controller validates and
//! quarantines malformed reports at ingress, can snapshot/restore its full
//! state for checkpoint recovery ([`controller::ControllerSnapshot`]), and
//! the threaded driver supervises its workers and respawns them after
//! panics ([`threaded::run_threaded_supervised`]). The [`link`] module
//! models degraded channels — loss, latency/jitter, duplication,
//! reordering, bounded capacity — and layers sequence-numbered,
//! ack/retransmit frame delivery on top (at-least-once delivery,
//! exactly-once admission), while the controller tracks per-node
//! staleness age and can mask nodes aged past a configurable limit.
//!
//! # Example
//!
//! ```
//! use utilcast_datasets::presets;
//! use utilcast_datasets::Resource;
//! use utilcast_simnet::sim::{SimConfig, Simulation};
//!
//! let trace = presets::alibaba_like().nodes(20).steps(120).seed(1).generate();
//! let config = SimConfig { k: 2, warmup: 30, retrain_every: 20, ..Default::default() };
//! let report = Simulation::new(config)?.run(&trace, Resource::Cpu)?;
//! assert!(report.realized_frequency <= 0.4);
//! assert_eq!(report.steps, 120);
//! # Ok::<(), utilcast_simnet::SimError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod controller;
mod error;
pub mod faults;
pub mod link;
pub mod sim;
mod slot;
pub mod threaded;
pub mod transport;

pub use error::SimError;
