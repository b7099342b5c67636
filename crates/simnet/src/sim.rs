//! The single-threaded reference simulation driver.

use serde::{Deserialize, Serialize};
use utilcast_core::compute::ComputeOptions;
use utilcast_core::pipeline::ModelSpec;
use utilcast_core::transmit::{TransmitConfig, TransmitterBank};
use utilcast_datasets::{Resource, Trace};

use crate::controller::ControllerConfig;
use crate::link::{DeliveryOptions, LinkSummary};
use crate::slot::{collect_shard, Slot};
use crate::transport::ReportFrame;
use crate::SimError;

/// Full simulation configuration (node side + controller side).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Transmission budget `B`.
    pub budget: f64,
    /// Lyapunov `V_0`.
    pub v0: f64,
    /// Lyapunov `γ`.
    pub gamma: f64,
    /// Number of clusters `K`.
    pub k: usize,
    /// Similarity look-back `M`.
    pub m: usize,
    /// Membership/offset look-back `M'`.
    pub m_prime: usize,
    /// Warmup observations before first model training.
    pub warmup: usize,
    /// Retraining interval.
    pub retrain_every: usize,
    /// Per-cluster forecasting model.
    pub model: ModelSpec,
    /// K-means seed.
    pub seed: u64,
    /// Threading, re-seed cadence and sharding of the controller compute
    /// (see [`ComputeOptions`]).
    pub compute: ComputeOptions,
    /// Link degradation + at-least-once delivery layer between the nodes
    /// and the controller (see [`DeliveryOptions`]). The default is fully
    /// passthrough: the drivers skip the layer entirely and run the seed
    /// fast path bit-identically.
    pub delivery: DeliveryOptions,
    /// Forecast-table point queries served between ticks — the drivers'
    /// stand-in for a live query endpoint (see
    /// [`crate::controller::Controller::serve_query_probes`]). `0`
    /// (default, and absent from old configs) serves nothing and preserves
    /// the seed path bit-identically; the probe pattern is deterministic, so
    /// any fixed count replays identically across drivers and checkpoint
    /// restores.
    #[serde(default)]
    pub query_probe: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            budget: 0.3,
            v0: 1.0,
            gamma: 0.65,
            k: 3,
            m: 1,
            m_prime: 5,
            warmup: 1000,
            retrain_every: 288,
            model: ModelSpec::SampleAndHold,
            seed: 0,
            compute: ComputeOptions::default(),
            delivery: DeliveryOptions::default(),
            query_probe: 0,
        }
    }
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Time steps simulated.
    pub steps: usize,
    /// Total reports delivered to the controller.
    pub messages: u64,
    /// Total modelled bytes on the wire.
    pub bytes: u64,
    /// Realized average transmission frequency.
    pub realized_frequency: f64,
    /// Time-averaged staleness RMSE (`h = 0`, Eq. 4 with x̂ = z).
    pub staleness_rmse: f64,
    /// Time-averaged intermediate RMSE (data vs closest centroid).
    pub intermediate_rmse: f64,
    /// Reports rejected by controller ingress validation.
    pub quarantined: u64,
    /// Forecaster fallback activations (fit failures degraded to
    /// sample-and-hold plus failed recovery attempts).
    pub model_fallbacks: u64,
    /// Degrade-path sample-and-hold fits that themselves failed; nonzero
    /// means some cluster kept a broken primary model and held its last
    /// observation.
    pub fallback_fit_failures: u64,
    /// Well-formed reports dropped as duplicate / out-of-order deliveries
    /// (at-least-once redeliveries caught by per-node timestamps).
    pub duplicates: u64,
    /// Mean over ticks of the mean per-node staleness age (ticks since
    /// each node's freshest admitted measurement).
    pub mean_age: f64,
    /// Oldest per-node staleness age observed on any tick.
    pub peak_age: usize,
    /// Node-steps masked out of clustering/retraining because their age
    /// exceeded the configured staleness limit.
    pub masked_node_steps: u64,
    /// Link-plane accounting (all zeros on the passthrough fast path).
    pub link: LinkSummary,
    /// Forecast-table rebuilds over the run (zero unless
    /// [`SimConfig::query_probe`] serves reads; absent from old serialized
    /// reports, which deserialize to zero).
    #[serde(default)]
    pub forecast_table_rebuilds: u64,
    /// Forecast-table reads served over the run (zero unless
    /// [`SimConfig::query_probe`] is set; absent from old serialized
    /// reports, which deserialize to zero).
    #[serde(default)]
    pub forecast_reads_served: u64,
}

impl SimConfig {
    /// Checks the node-side parameters and the delivery options; the
    /// controller checks its own (`k` against `N`) when it is built.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if !(self.budget > 0.0 && self.budget <= 1.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("budget must be within (0, 1], got {}", self.budget),
            });
        }
        if self.k == 0 {
            return Err(SimError::InvalidConfig {
                reason: "k must be positive".into(),
            });
        }
        self.delivery.validate()
    }

    /// The controller half of the configuration, for `num_nodes` nodes.
    pub(crate) fn controller_config(&self, num_nodes: usize) -> ControllerConfig {
        ControllerConfig {
            num_nodes,
            k: self.k,
            m: self.m,
            m_prime: self.m_prime,
            warmup: self.warmup,
            retrain_every: self.retrain_every,
            model: self.model.clone(),
            seed: self.seed,
            compute: self.compute,
            ..Default::default()
        }
    }

    /// The node half of the configuration.
    pub(crate) fn transmit_config(&self) -> TransmitConfig {
        TransmitConfig {
            budget: self.budget,
            v0: self.v0,
            gamma: self.gamma,
        }
    }
}

/// The deterministic single-threaded driver.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates an (unsized) simulation; node count is taken from the trace
    /// at [`Simulation::run`] time, so this constructor only validates the
    /// scalar parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a budget outside `(0, 1]`,
    /// `k == 0` or invalid delivery options.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Simulation { config })
    }

    /// Runs the simulation over one resource of the trace: the whole fleet
    /// is one shard, collected in-thread.
    ///
    /// # Errors
    ///
    /// Propagates trace access and controller errors; returns
    /// [`SimError::InvalidConfig`] if `k > N`.
    pub fn run(self, trace: &Trace, resource: Resource) -> Result<SimReport, SimError> {
        let n = trace.num_nodes();
        let mut slot = Slot::new(&self.config, n, 1, None)?;
        let mut bank = TransmitterBank::new(self.config.transmit_config(), n);
        let mut decisions = Vec::with_capacity(n);
        let mut frame = ReportFrame::with_capacity(1, n);
        for t in 0..trace.num_steps() {
            let x = trace.snapshot(resource, t)?;
            collect_shard(
                &mut bank,
                t,
                0,
                &x,
                slot.stored(),
                &mut decisions,
                &mut frame,
            );
            slot.step_frames(&x, std::slice::from_ref(&frame))?;
        }
        Ok(slot.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilcast_datasets::presets;

    fn small_trace() -> Trace {
        presets::bitbrains_like()
            .nodes(15)
            .steps(150)
            .seed(4)
            .generate()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            k: 3,
            warmup: 30,
            retrain_every: 50,
            ..Default::default()
        }
    }

    #[test]
    fn run_produces_consistent_report() {
        let trace = small_trace();
        let report = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(report.steps, 150);
        assert!(report.messages >= 15, "at least the bootstrap tick");
        assert_eq!(
            report.bytes,
            report.messages * (crate::transport::HEADER_BYTES + 8)
        );
        assert!(report.staleness_rmse >= 0.0 && report.staleness_rmse < 0.5);
        assert!(report.intermediate_rmse > 0.0);
    }

    #[test]
    fn query_probes_change_only_the_read_plane_counters() {
        let trace = small_trace();
        let seed = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(seed.forecast_table_rebuilds, 0, "no queries, no table");
        assert_eq!(seed.forecast_reads_served, 0);
        let probed = Simulation::new(SimConfig {
            query_probe: 4,
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        // One table per tick (every tick bumps the generation), four
        // deterministic reads each.
        assert_eq!(probed.forecast_table_rebuilds, 150);
        assert_eq!(probed.forecast_reads_served, 4 * 150);
        // Every simulation outcome other than the read-plane accounting is
        // bit-identical: queries never perturb the pipeline.
        let neutral = SimReport {
            forecast_table_rebuilds: 0,
            forecast_reads_served: 0,
            ..probed
        };
        assert_eq!(neutral, seed);
    }

    #[test]
    fn forced_delivery_plane_with_perfect_links_is_bit_identical() {
        // Enabling ARQ forces every frame through the delivery plane
        // (sequence numbers, tracking, acks) even though the links are
        // perfect — the layer must change nothing but its own accounting.
        use crate::link::LinkSummary;
        use utilcast_core::transmit::ArqConfig;
        let trace = small_trace();
        let seed = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        let planed = Simulation::new(SimConfig {
            delivery: crate::link::DeliveryOptions {
                arq: ArqConfig {
                    timeout: 4,
                    backoff_cap: 3,
                    max_retransmits: 8,
                },
                ..crate::link::DeliveryOptions::none()
            },
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        assert_eq!(
            planed.link.sent, 150,
            "one frame per tick crossed the plane"
        );
        assert_eq!(planed.link.delivered, 150);
        assert_eq!(planed.link.retransmits, 0, "perfect links never time out");
        assert_eq!(planed.link.acks_sent, 150);
        // Identical in every field except the plane's own accounting.
        let neutral = SimReport {
            link: LinkSummary::default(),
            ..planed
        };
        assert_eq!(neutral, seed);
    }

    #[test]
    fn lossy_delayed_links_degrade_but_complete() {
        use crate::link::{DeliveryOptions, LinkPlan};
        use utilcast_core::transmit::ArqConfig;
        let trace = small_trace();
        let seed = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        let lossy = Simulation::new(SimConfig {
            delivery: DeliveryOptions {
                link: LinkPlan {
                    loss_prob: 0.3,
                    delay_ticks: 1,
                    jitter_ticks: 2,
                    dup_prob: 0.1,
                    reorder_prob: 0.1,
                    seed: 23,
                    ..LinkPlan::perfect()
                },
                ack_link: LinkPlan {
                    loss_prob: 0.2,
                    seed: 29,
                    ..LinkPlan::perfect()
                },
                arq: ArqConfig {
                    timeout: 3,
                    backoff_cap: 3,
                    max_retransmits: 10,
                },
            },
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        assert_eq!(lossy.steps, 150);
        assert!(lossy.link.lost > 0, "30% loss must drop frames");
        assert!(lossy.link.retransmits > 0, "loss must force retransmits");
        assert!(
            lossy.link.delivered > 0 && lossy.staleness_rmse.is_finite(),
            "run must complete with finite metrics"
        );
        assert!(
            lossy.staleness_rmse > seed.staleness_rmse,
            "degraded links must cost accuracy: {} vs {}",
            lossy.staleness_rmse,
            seed.staleness_rmse
        );
        assert!(lossy.mean_age > seed.mean_age);
    }

    #[test]
    fn frequency_respects_budget() {
        let trace = small_trace();
        let report = Simulation::new(SimConfig {
            budget: 0.2,
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        // Bootstrap adds 1/steps; allow queue slack.
        assert!(
            report.realized_frequency <= 0.2 + 0.06,
            "frequency {}",
            report.realized_frequency
        );
    }

    #[test]
    fn higher_budget_lowers_staleness_error() {
        let trace = small_trace();
        let low = Simulation::new(SimConfig {
            budget: 0.05,
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        let high = Simulation::new(SimConfig {
            budget: 0.8,
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        assert!(
            high.staleness_rmse < low.staleness_rmse,
            "high budget {} should beat low budget {}",
            high.staleness_rmse,
            low.staleness_rmse
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Simulation::new(SimConfig {
            budget: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(Simulation::new(SimConfig {
            k: 0,
            ..Default::default()
        })
        .is_err());
        // k > N surfaces at run time.
        let trace = presets::alibaba_like().nodes(2).steps(10).generate();
        let err = Simulation::new(SimConfig {
            k: 5,
            ..quick_config()
        })
        .unwrap()
        .run(&trace, Resource::Cpu);
        assert!(err.is_err());
    }
}
