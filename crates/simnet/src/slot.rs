//! The slot engine the three drivers share: everything that happens to a
//! tick's reports after the nodes have decided.
//!
//! A driver collects — [`collect_shard`] over a [`TransmitterBank`] for the
//! frame drivers, per-node transmitters for the fault driver — and hands
//! the tick's [`ReportFrame`]s to [`Slot::step`], which delivers them
//! (through the optional [`DeliveryPlane`]), meters them, ticks the
//! [`Controller`], scores the tick, serves the query probes and cuts
//! checkpoints. [`Slot::finish`] assembles the [`SimReport`].

use utilcast_core::metrics::{rmse_step_scalar, TimeAveragedRmse};
use utilcast_core::transmit::TransmitterBank;

use crate::controller::{Controller, ControllerSnapshot};
use crate::link::DeliveryPlane;
use crate::sim::{SimConfig, SimReport};
use crate::transport::{Meter, ReportFrame};
use crate::SimError;

/// One shard's collection for tick `t`: the bank decides for nodes
/// `lo..lo + xs.len()` against the controller's copies `zs`, and `frame`
/// is refilled with the reports. At `t == 0` every node reports (the
/// bootstrap that gives the controller a value for everyone), and the bank
/// still consumes its clock, against `z = x`.
pub(crate) fn collect_shard(
    bank: &mut TransmitterBank,
    t: usize,
    lo: usize,
    xs: &[f64],
    zs: &[f64],
    decisions: &mut Vec<bool>,
    frame: &mut ReportFrame,
) {
    let bootstrap = t == 0;
    bank.decide_batch_against(xs, if bootstrap { xs } else { zs }, decisions);
    frame.reset(t);
    for (off, (&x, &send)) in xs.iter().zip(decisions.iter()).enumerate() {
        if bootstrap || send {
            frame.push_scalar(lo + off, x);
        }
    }
}

/// The controller side of a run (see the module docs).
pub(crate) struct Slot {
    controller: Controller,
    /// The delivery layer, `None` when it is passthrough: frames then go
    /// straight to the controller and healthy runs pay nothing for it.
    plane: Option<DeliveryPlane>,
    inbox: Vec<ReportFrame>,
    /// Bandwidth, counted at delivery: lost traffic costs nothing,
    /// duplicates and retransmissions cost again.
    meter: Meter,
    staleness: TimeAveragedRmse,
    intermediate: TimeAveragedRmse,
    /// Reports the nodes decided to send, delivered or not.
    sent: u64,
    steps: usize,
    query_probe: usize,
    /// `None` takes no checkpoints; `Some(every)` takes one before the run
    /// and, if `every > 0`, one after every `every`-th tick.
    checkpoint_every: Option<usize>,
    /// The latest checkpoint as container bytes, so every crash goes
    /// through the checkpoint codec, not an in-memory copy.
    last_checkpoint: Option<Vec<u8>>,
    checkpoints: u64,
}

impl Slot {
    /// Validates `config` and builds the controller for `num_nodes` nodes
    /// and, unless passthrough, a delivery plane with one sending edge per
    /// frame a step will carry (`sources`).
    pub(crate) fn new(
        config: &SimConfig,
        num_nodes: usize,
        sources: usize,
        checkpoint_every: Option<usize>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let controller = Controller::new(config.controller_config(num_nodes))?;
        let last_checkpoint = checkpoint_every.map(|_| controller.snapshot().to_bytes());
        Ok(Slot {
            plane: (!config.delivery.is_passthrough())
                .then(|| DeliveryPlane::new(sources, &config.delivery)),
            inbox: Vec::new(),
            meter: Meter::new(),
            staleness: TimeAveragedRmse::new(),
            intermediate: TimeAveragedRmse::new(),
            sent: 0,
            steps: 0,
            query_probe: config.query_probe,
            checkpoint_every,
            checkpoints: u64::from(last_checkpoint.is_some()),
            last_checkpoint,
            controller,
        })
    }

    /// The controller's stored values — the `z` the nodes decide against.
    pub(crate) fn stored(&self) -> &[f64] {
        self.controller.stored()
    }

    /// Checkpoints taken so far, the pre-run one included.
    pub(crate) fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// A controller crash: the live state is lost and the latest checkpoint
    /// decoded and restored, so stored values regress until fresh reports
    /// land. Returns whether there was a checkpoint to restore.
    pub(crate) fn crash(&mut self) -> Result<bool, SimError> {
        let Some(bytes) = &self.last_checkpoint else {
            return Ok(false);
        };
        let snapshot =
            ControllerSnapshot::from_bytes(bytes).map_err(|e| SimError::InvalidConfig {
                reason: format!("checkpoint does not decode: {e}"),
            })?;
        self.controller = Controller::restore(snapshot)?;
        Ok(true)
    }

    /// One tick over per-source frames (`frames[s]` from sending edge `s`),
    /// for which the nodes decided to send `sent` reports — more than the
    /// frames carry when the driver's own channel lost some before framing.
    pub(crate) fn step(
        &mut self,
        x: &[f64],
        frames: &[ReportFrame],
        sent: u64,
    ) -> Result<(), SimError> {
        let now = self.steps;
        self.sent += sent;
        let tick = match &mut self.plane {
            None => {
                frames.iter().for_each(|f| self.meter.record_frame(f));
                self.controller.tick_frames(frames)?
            }
            Some(plane) => {
                let n = self.controller.stored().len();
                for (source, frame) in frames.iter().enumerate() {
                    plane.submit(source, now, Some(frame), n);
                }
                plane.collect_into(now, &mut self.inbox);
                self.inbox.iter().for_each(|f| self.meter.record_frame(f));
                let tick = self.controller.tick_frames(&self.inbox)?;
                plane.ack_delivered(&self.inbox, now);
                tick
            }
        };
        self.staleness
            .add(rmse_step_scalar(self.controller.stored(), x));
        self.intermediate.add(tick.intermediate_rmse);
        // Probes before the checkpoint cut, so a restored controller carries
        // the same table generation and read counters the original had.
        self.controller.serve_query_probes(self.query_probe)?;
        self.steps += 1;
        if let Some(every) = self.checkpoint_every {
            if every > 0 && self.steps.is_multiple_of(every) {
                self.last_checkpoint = Some(self.controller.snapshot().to_bytes());
                self.checkpoints += 1;
            }
        }
        Ok(())
    }

    /// The run's report.
    pub(crate) fn finish(self) -> SimReport {
        let c = &self.controller;
        SimReport {
            steps: self.steps,
            messages: self.meter.messages(),
            bytes: self.meter.bytes(),
            // A run of zero steps sent nothing out of no opportunities.
            realized_frequency: if self.steps == 0 {
                0.0
            } else {
                self.sent as f64 / (self.steps as f64 * c.stored().len() as f64)
            },
            staleness_rmse: self.staleness.value(),
            intermediate_rmse: self.intermediate.value(),
            quarantined: c.quarantined(),
            model_fallbacks: c.model_fallbacks(),
            fallback_fit_failures: c.fallback_fit_failures(),
            duplicates: c.duplicates(),
            mean_age: c.age().mean(),
            peak_age: c.age().peak(),
            masked_node_steps: c.masked_node_steps(),
            link: self.plane.map(|p| p.summary()).unwrap_or_default(),
            forecast_table_rebuilds: c.forecast_table_rebuilds(),
            forecast_reads_served: c.forecast_reads_served(),
        }
    }
}
