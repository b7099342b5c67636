//! Fault injection: node crashes, restarts, message loss, network
//! partitions, report corruption, and controller crashes.
//!
//! Real monitoring systems lose reports — machines crash, agents hang,
//! packets drop, switches partition racks away, and bit flips corrupt
//! payloads. The paper's controller design is naturally robust to most of
//! this (a missing report just leaves the stored value stale; a corrupt
//! report is quarantined at ingress), and this module lets the simulation
//! quantify that robustness: a [`FaultPlan`] drives which nodes are down
//! at each tick, which reports are dropped, delayed behind a partition, or
//! corrupted in flight, and when the controller itself crashes and must
//! resume from its latest checkpoint. [`run_with_faults`] executes a full
//! simulation under the plan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use utilcast_core::transmit::AdaptiveTransmitter;
use utilcast_datasets::{Resource, Trace};

use crate::link::{LinkModel, LinkPayload, LinkPlan};
use crate::sim::{SimConfig, SimReport};
use crate::slot::Slot;
use crate::transport::ReportFrame;
use crate::SimError;

/// A timed network partition: nodes in `nodes.start..nodes.end` cannot
/// reach the controller during ticks `steps.start..steps.end` (both ranges
/// end-exclusive). Partitioned reports consume the sender's budget but are
/// never delivered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First tick of the partition.
    pub start: usize,
    /// One past the last tick of the partition.
    pub end: usize,
    /// First node cut off.
    pub node_start: usize,
    /// One past the last node cut off.
    pub node_end: usize,
}

impl PartitionWindow {
    fn covers(&self, t: usize, node: usize) -> bool {
        (self.start..self.end).contains(&t) && (self.node_start..self.node_end).contains(&node)
    }
}

/// Stochastic fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-step probability that an up node crashes.
    pub crash_prob: f64,
    /// Per-step probability that a down node restarts.
    pub restart_prob: f64,
    /// Probability that any individual report is lost in flight.
    pub loss_prob: f64,
    /// Per-step probability that the controller crashes, losing its live
    /// state, and resumes from the latest checkpoint.
    pub controller_crash_prob: f64,
    /// Probability that a report that escaped loss and partitions is
    /// corrupted before it is sent, by the link's corruption model
    /// ([`LinkPayload::corrupt_entry`]: NaN, `+1e6`, `-1.0`, or a node id
    /// past the fleet — each width-preserving). Corrupted reports still
    /// consume bandwidth; the controller's ingress validation quarantines
    /// them under the drivers' unit value bounds.
    pub corrupt_prob: f64,
    /// Deterministic network partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Take a controller checkpoint every this many ticks (`0` = only the
    /// initial, pre-run checkpoint).
    pub checkpoint_every: usize,
    /// RNG seed for fault sampling.
    pub seed: u64,
    /// Degraded-link model applied to reports that survive the plan's
    /// loss/partition/corruption stages, each report crossing it as a
    /// one-entry [`ReportFrame`]: latency, jitter, duplication, reordering,
    /// bounded capacity, and its own loss and corruption (see
    /// [`LinkPlan`]). A perfect plan bypasses the link entirely and keeps
    /// the run bit-identical to earlier versions.
    pub link: LinkPlan,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crash_prob: 0.001,
            restart_prob: 0.05,
            loss_prob: 0.01,
            controller_crash_prob: 0.0,
            corrupt_prob: 0.0,
            partitions: Vec::new(),
            checkpoint_every: 0,
            seed: 0,
            link: LinkPlan::perfect(),
        }
    }
}

impl FaultPlan {
    /// A plan with no faults at all (control condition).
    pub fn none() -> Self {
        FaultPlan {
            crash_prob: 0.0,
            restart_prob: 1.0,
            loss_prob: 0.0,
            controller_crash_prob: 0.0,
            corrupt_prob: 0.0,
            partitions: Vec::new(),
            checkpoint_every: 0,
            seed: 0,
            link: LinkPlan::perfect(),
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        self.link.validate()?;
        for (name, v) in [
            ("crash_prob", self.crash_prob),
            ("restart_prob", self.restart_prob),
            ("loss_prob", self.loss_prob),
            ("controller_crash_prob", self.controller_crash_prob),
            ("corrupt_prob", self.corrupt_prob),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SimError::InvalidConfig {
                    reason: format!("{name} must be within [0, 1], got {v}"),
                });
            }
        }
        for (i, w) in self.partitions.iter().enumerate() {
            if w.start >= w.end || w.node_start >= w.node_end {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "partition {i} must have non-empty step and node ranges, \
                         got steps {}..{} nodes {}..{}",
                        w.start, w.end, w.node_start, w.node_end
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Results of a faulty run, extending [`SimReport`] with fault accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// The base simulation metrics.
    pub sim: SimReport,
    /// Node-steps spent crashed.
    pub down_node_steps: u64,
    /// Reports dropped in flight.
    pub lost_reports: u64,
    /// Reports blocked by a partition window.
    pub partitioned_reports: u64,
    /// Reports delivered corrupted (the controller quarantines these).
    pub corrupted_reports: u64,
    /// Controller crash/recovery events.
    pub controller_crashes: u64,
    /// Controller checkpoints taken (including the initial one, when any
    /// checkpointing is enabled).
    pub checkpoints: u64,
}

/// Runs the simulation under a fault plan. Crashed nodes neither measure
/// nor transmit, and they skip their decision, so their transmitter clock
/// stops while they are down and resumes where it stopped on restart; lost
/// and partitioned reports consume the sender's budget but never reach the
/// controller, exactly as a UDP-style telemetry channel behaves; corrupted
/// reports arrive (and cost bandwidth) but are quarantined by the
/// controller's ingress validation; a controller crash discards all live
/// state and restores the latest checkpoint. Collection stays per node —
/// a crashed node's stopped clock is what a lockstep bank cannot express —
/// and everything after it runs on the slot engine the other drivers share,
/// query probes included.
///
/// The reports travel as [`ReportFrame`]s, like every other driver's.
/// Over a perfect [`FaultPlan::link`] a tick's surviving reports go to the
/// controller as one frame, in node order. Over a degraded link each
/// report is sent as a frame of its own, and the tick's deliveries are
/// stably sorted by their measurement tick before admission: every node's
/// reports then arrive in `(t, arrival)` order, which is all the
/// controller's outcome depends on (see [`crate::controller`]).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid probabilities, empty
/// partition windows, or a non-passthrough [`SimConfig::delivery`] (this
/// driver's channel is [`FaultPlan::link`]), and propagates controller
/// errors.
pub fn run_with_faults(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    plan: &FaultPlan,
) -> Result<FaultReport, SimError> {
    plan.validate()?;
    if !config.delivery.is_passthrough() {
        return Err(SimError::InvalidConfig {
            reason: "run_with_faults degrades its channel through FaultPlan::link; \
                     SimConfig::delivery must be passthrough"
                .into(),
        });
    }
    let n = trace.num_nodes();
    let checkpoints = plan.checkpoint_every > 0 || plan.controller_crash_prob > 0.0;
    let mut slot = Slot::new(config, n, 1, checkpoints.then_some(plan.checkpoint_every))?;
    let mut transmitters = vec![AdaptiveTransmitter::new(config.transmit_config()); n];
    let mut rng = StdRng::seed_from_u64(plan.seed);
    // Degraded channel between the nodes and the controller. Reports that
    // survive the plan's loss/partition/corruption stages cross it one
    // frame each; a perfect plan keeps the channel out of the path entirely
    // (and consumes no randomness).
    let mut link: Option<LinkModel<ReportFrame>> =
        (!plan.link.is_perfect()).then(|| LinkModel::new(plan.link, 0));
    let mut frame = ReportFrame::with_capacity(1, n);
    // The one-entry frames the degraded link delivered last tick, refilled
    // as this tick's sends.
    let mut spare: Vec<ReportFrame> = Vec::new();
    let mut up = vec![true; n];
    let mut down_node_steps: u64 = 0;
    let mut lost_reports: u64 = 0;
    let mut partitioned_reports: u64 = 0;
    let mut corrupted_reports: u64 = 0;
    let mut controller_crashes: u64 = 0;

    for t in 0..trace.num_steps() {
        // Controller crash? (Draw gated on the probability so plans without
        // controller faults keep the exact RNG stream of earlier versions.)
        if plan.controller_crash_prob > 0.0
            && rng.gen::<f64>() < plan.controller_crash_prob
            && slot.crash()?
        {
            controller_crashes += 1;
        }
        // Evolve node fault state.
        for flag in up.iter_mut() {
            if *flag {
                if rng.gen::<f64>() < plan.crash_prob {
                    *flag = false;
                }
            } else if rng.gen::<f64>() < plan.restart_prob {
                *flag = true;
            }
        }
        down_node_steps += up.iter().filter(|&&u| !u).count() as u64;

        let x = trace.snapshot(resource, t)?;
        frame.reset(t);
        let mut sent: u64 = 0;
        let stored = slot.stored();
        for i in 0..n {
            if !up[i] {
                continue;
            }
            let send = if t == 0 {
                let _ = transmitters[i].decide(&[x[i]], &[x[i]]);
                true
            } else {
                transmitters[i].decide(&[x[i]], &[stored[i]])
            };
            if send {
                sent += 1;
                if plan.partitions.iter().any(|w| w.covers(t, i)) {
                    partitioned_reports += 1;
                } else if rng.gen::<f64>() < plan.loss_prob {
                    lost_reports += 1;
                } else {
                    frame.push_scalar(i, x[i]);
                    if plan.corrupt_prob > 0.0 && rng.gen::<f64>() < plan.corrupt_prob {
                        let variant = rng.gen_range(0..4usize);
                        frame.corrupt_entry(frame.len() - 1, variant, n);
                        corrupted_reports += 1;
                    }
                }
            }
        }
        match &mut link {
            None => slot.step(&x, std::slice::from_ref(&frame), sent)?,
            Some(link) => {
                // The link keeps its own RNG stream, so sending after the
                // node loop draws exactly what sending inside it would.
                for entry in frame.iter() {
                    let mut single = spare.pop().unwrap_or_else(|| ReportFrame::new(1));
                    single.reset(t);
                    single.push(entry.node, entry.values);
                    link.send(single, t, n);
                }
                // A tick's deliveries mix measurement ticks. The link hands
                // them over in send order; the stable sort by `t` states the
                // per-node `(t, arrival)` order admission needs rather than
                // leaving it to the link's internals.
                let mut delivered = link.collect(t);
                delivered.sort_by_key(ReportFrame::t);
                slot.step(&x, &delivered, sent)?;
                spare.append(&mut delivered);
            }
        }
    }
    let checkpoints = slot.checkpoints();
    let mut sim = slot.finish();
    if let Some(link) = &link {
        sim.link = *link.summary();
    }
    Ok(FaultReport {
        sim,
        down_node_steps,
        lost_reports,
        partitioned_reports,
        corrupted_reports,
        controller_crashes,
        checkpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use utilcast_datasets::presets;

    fn quick_config() -> SimConfig {
        SimConfig {
            k: 3,
            warmup: 50,
            retrain_every: 60,
            ..Default::default()
        }
    }

    #[test]
    fn no_fault_plan_matches_reference_driver() {
        let trace = presets::alibaba_like()
            .nodes(15)
            .steps(150)
            .seed(3)
            .generate();
        let clean =
            run_with_faults(&quick_config(), &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
        let reference = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(clean.sim, reference);
        assert_eq!(clean.down_node_steps, 0);
        assert_eq!(clean.lost_reports, 0);
        assert_eq!(clean.partitioned_reports, 0);
        assert_eq!(clean.corrupted_reports, 0);
        assert_eq!(clean.controller_crashes, 0);
    }

    #[test]
    fn no_fault_plan_serves_query_probes_like_the_reference_driver() {
        let trace = presets::alibaba_like()
            .nodes(15)
            .steps(150)
            .seed(3)
            .generate();
        let probed = SimConfig {
            query_probe: 3,
            ..quick_config()
        };
        let clean = run_with_faults(&probed, &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
        let reference = Simulation::new(probed)
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(reference.forecast_reads_served, 3 * 150);
        assert_eq!(clean.sim, reference);
    }

    #[test]
    fn delivery_options_are_rejected_for_the_fault_link() {
        use crate::link::DeliveryOptions;
        let trace = presets::alibaba_like().nodes(4).steps(10).generate();
        let config = SimConfig {
            delivery: DeliveryOptions {
                link: LinkPlan {
                    loss_prob: 0.2,
                    ..LinkPlan::perfect()
                },
                ..DeliveryOptions::none()
            },
            ..quick_config()
        };
        match run_with_faults(&config, &trace, Resource::Cpu, &FaultPlan::none()) {
            Err(SimError::InvalidConfig { reason }) => {
                assert!(reason.contains("FaultPlan::link"), "reason: {reason}");
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn faults_increase_staleness_but_do_not_crash() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(300)
            .seed(5)
            .generate();
        let clean =
            run_with_faults(&quick_config(), &trace, Resource::Cpu, &FaultPlan::none()).unwrap();
        let faulty = run_with_faults(
            &quick_config(),
            &trace,
            Resource::Cpu,
            &FaultPlan {
                crash_prob: 0.01,
                restart_prob: 0.05,
                loss_prob: 0.1,
                seed: 7,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        assert!(faulty.down_node_steps > 0);
        assert!(faulty.lost_reports > 0);
        assert!(
            faulty.sim.staleness_rmse > clean.sim.staleness_rmse,
            "faults must cost accuracy: {} vs {}",
            faulty.sim.staleness_rmse,
            clean.sim.staleness_rmse
        );
        // The mechanism degrades gracefully: error stays bounded.
        assert!(faulty.sim.staleness_rmse < 0.5);
    }

    #[test]
    fn lost_reports_consume_budget_but_not_bandwidth() {
        let trace = presets::bitbrains_like()
            .nodes(10)
            .steps(200)
            .seed(9)
            .generate();
        let lossy = run_with_faults(
            &quick_config(),
            &trace,
            Resource::Cpu,
            &FaultPlan {
                crash_prob: 0.0,
                restart_prob: 1.0,
                loss_prob: 0.5,
                seed: 11,
                ..FaultPlan::none()
            },
        )
        .unwrap();
        // Roughly half the sent reports are delivered.
        let total_sent = (lossy.sim.realized_frequency * 200.0 * 10.0).round() as u64;
        assert!(lossy.sim.messages < total_sent);
        assert_eq!(lossy.lost_reports + lossy.sim.messages, total_sent);
    }

    #[test]
    fn partition_blocks_reports_deterministically() {
        let trace = presets::alibaba_like()
            .nodes(10)
            .steps(100)
            .seed(2)
            .generate();
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                start: 20,
                end: 40,
                node_start: 0,
                node_end: 5,
            }],
            ..FaultPlan::none()
        };
        let report = run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan).unwrap();
        assert!(report.partitioned_reports > 0);
        assert_eq!(report.lost_reports, 0);
        // Blocked reports consumed budget but not bandwidth.
        let total_sent = (report.sim.realized_frequency * 100.0 * 10.0).round() as u64;
        assert_eq!(report.partitioned_reports + report.sim.messages, total_sent);
    }

    #[test]
    fn corrupted_reports_are_quarantined_not_applied() {
        let trace = presets::google_like()
            .nodes(10)
            .steps(200)
            .seed(8)
            .generate();
        let plan = FaultPlan {
            corrupt_prob: 0.2,
            seed: 13,
            ..FaultPlan::none()
        };
        let report = run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan).unwrap();
        assert!(report.corrupted_reports > 0);
        // Every corrupted report is caught at ingress (all four corruption
        // modes produce invalid reports for in-range [0, 1] traces).
        assert_eq!(report.sim.quarantined, report.corrupted_reports);
        // Stored state never absorbed a corrupt value.
        assert!(report.sim.staleness_rmse < 0.5);
    }

    #[test]
    fn controller_crashes_recover_from_checkpoints() {
        let trace = presets::google_like()
            .nodes(12)
            .steps(200)
            .seed(4)
            .generate();
        let plan = FaultPlan {
            controller_crash_prob: 0.02,
            checkpoint_every: 25,
            seed: 21,
            ..FaultPlan::none()
        };
        let report = run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan).unwrap();
        assert!(report.controller_crashes > 0);
        assert!(report.checkpoints > 200 / 25);
        assert!(report.sim.staleness_rmse.is_finite());
        // Recovery costs some freshness but the run stays bounded.
        assert!(report.sim.staleness_rmse < 0.5);
    }

    #[test]
    fn invalid_probabilities_rejected() {
        let trace = presets::alibaba_like().nodes(4).steps(10).generate();
        for plan in [
            FaultPlan {
                loss_prob: 1.5,
                ..FaultPlan::none()
            },
            FaultPlan {
                controller_crash_prob: -0.1,
                ..FaultPlan::none()
            },
            FaultPlan {
                corrupt_prob: 2.0,
                ..FaultPlan::none()
            },
            FaultPlan {
                partitions: vec![PartitionWindow {
                    start: 10,
                    end: 10,
                    node_start: 0,
                    node_end: 4,
                }],
                ..FaultPlan::none()
            },
        ] {
            assert!(matches!(
                run_with_faults(&quick_config(), &trace, Resource::Cpu, &plan),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }
}
