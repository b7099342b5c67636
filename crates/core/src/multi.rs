//! Multi-resource pipeline: joint transmission, per-resource forecasting.
//!
//! The paper's Sec. V-A transmission operates on the full `d`-dimensional
//! measurement vector (`F` averages the squared error over resource types,
//! and one decision ships the whole vector), while clustering and
//! forecasting run per resource on scalars (Sec. VI-C1). [`MultiPipeline`]
//! implements exactly that split: one width-`d` [`TransmitterBank`] deciding
//! for every node on the whole vector, one [`CentralNode`] per resource on
//! the controller. [`crate::pipeline::Pipeline`] is this pipeline at `d = 1`.
//!
//! # Example
//!
//! ```
//! use utilcast_core::multi::{MultiPipeline, MultiPipelineConfig};
//!
//! let mut mp = MultiPipeline::new(MultiPipelineConfig {
//!     num_nodes: 4,
//!     num_resources: 2,
//!     k: 2,
//!     warmup: 5,
//!     retrain_every: 5,
//!     ..Default::default()
//! })?;
//! for _ in 0..10 {
//!     // measurements[node] = [cpu, memory]
//!     let x = vec![vec![0.2, 0.3], vec![0.25, 0.33], vec![0.8, 0.7], vec![0.82, 0.69]];
//!     mp.step(&x)?;
//! }
//! let fc = mp.forecast(3)?; // fc[resource][h][node]
//! assert_eq!(fc.len(), 2);
//! assert_eq!(fc[0].len(), 3);
//! assert_eq!(fc[0][0].len(), 4);
//! # Ok::<(), utilcast_core::CoreError>(())
//! ```

use serde::{Deserialize, Serialize};

use crate::central::CentralNode;
use crate::cluster::SimilarityMeasure;
use crate::compute::ComputeOptions;
use crate::pipeline::{ModelSpec, TransmissionMode};
use crate::stage::{ForecastStage, ForecastStageConfig, StageReport};
use crate::transmit::{TransmitConfig, TransmitterBank, UniformTransmitter};
use crate::CoreError;

/// Configuration of the multi-resource pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPipelineConfig {
    /// Number of local nodes `N`.
    pub num_nodes: usize,
    /// Number of resource dimensions `d` (e.g. 2 for CPU + memory).
    pub num_resources: usize,
    /// Number of clusters / models per resource `K`.
    pub k: usize,
    /// Transmission budget `B` (one decision covers the whole vector).
    pub budget: f64,
    /// Lyapunov `V_0`.
    pub v0: f64,
    /// Lyapunov `γ`.
    pub gamma: f64,
    /// Similarity look-back `M`.
    pub m: usize,
    /// Membership/offset look-back `M'`.
    pub m_prime: usize,
    /// Similarity measure for re-indexing.
    pub similarity: SimilarityMeasure,
    /// Observations before the first model training.
    pub warmup: usize,
    /// Retraining interval.
    pub retrain_every: usize,
    /// Per-cluster model (shared across resources).
    pub model: ModelSpec,
    /// Base k-means seed (each resource stage gets `seed + resource`).
    pub seed: u64,
    /// Threading, warm-start and staleness knobs shared by every resource
    /// engine (see [`ComputeOptions`]); with [`ComputeOptions::shards`]
    /// `> 1` every stage clusters through the hierarchical two-level pass.
    pub compute: ComputeOptions,
}

impl Default for MultiPipelineConfig {
    fn default() -> Self {
        MultiPipelineConfig {
            num_nodes: 100,
            num_resources: 2,
            k: 3,
            budget: 0.3,
            v0: 1.0,
            gamma: 0.65,
            m: 1,
            m_prime: 5,
            similarity: SimilarityMeasure::Intersection,
            warmup: 1000,
            retrain_every: 288,
            model: ModelSpec::SampleAndHold,
            seed: 0,
            compute: ComputeOptions::default(),
        }
    }
}

/// Report of one multi-resource step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStepReport {
    /// Which nodes transmitted their vector this step.
    pub transmitted: Vec<bool>,
    /// Per-resource stage reports.
    pub stages: Vec<StageReport>,
}

/// Who decides which nodes send this step.
#[derive(Debug)]
enum Collector {
    /// The Lyapunov rule: one bank, a width-`d` row per node.
    Bank(TransmitterBank),
    /// Uniform sampling (a `Pipeline` option): one clock for the fleet.
    Uniform(UniformTransmitter),
}

/// The multi-resource pipeline (see module docs): the collect → store →
/// tick routine of both pipelines. The nodes decide against the
/// controller's copies, each resource's engine stores what was sent, and
/// every engine ticks (so the engines' `last_seen` columns are identical).
#[derive(Debug)]
pub struct MultiPipeline {
    config: MultiPipelineConfig,
    collector: Collector,
    /// One engine per resource.
    pub(crate) engines: Vec<CentralNode>,
    /// The engines' stored values, row-major (`[node * d + resource]`):
    /// what the nodes decide against.
    pub(crate) stored: Vec<f64>,
    total_transmissions: u64,
    /// Scratch buffer: the step's measurements flattened row-major (no
    /// allocation per step).
    xbuf: Vec<f64>,
}

impl MultiPipeline {
    /// Creates the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero nodes/resources, `k`
    /// outside `[1, num_nodes]`, or a budget outside `(0, 1]`.
    pub fn new(config: MultiPipelineConfig) -> Result<Self, CoreError> {
        MultiPipeline::with_mode(config, TransmissionMode::Adaptive)
    }

    /// [`MultiPipeline::new`] collecting under `mode`. The engines are
    /// built first, so a bad node count is the stage's typed error, not a
    /// bank panic.
    pub(crate) fn with_mode(
        config: MultiPipelineConfig,
        mode: TransmissionMode,
    ) -> Result<Self, CoreError> {
        let (n, d) = (config.num_nodes, config.num_resources);
        if d == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "num_resources must be positive".into(),
            });
        }
        let engines = (0..d as u64)
            .map(|r| {
                CentralNode::new(ForecastStageConfig {
                    num_nodes: n,
                    k: config.k,
                    m: config.m,
                    m_prime: config.m_prime,
                    similarity: config.similarity,
                    warmup: config.warmup,
                    retrain_every: config.retrain_every,
                    model: config.model.clone(),
                    seed: config.seed.wrapping_add(r),
                    compute: config.compute,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if !(config.budget > 0.0 && config.budget <= 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("budget must be within (0, 1], got {}", config.budget),
            });
        }
        let transmit = TransmitConfig {
            budget: config.budget,
            v0: config.v0,
            gamma: config.gamma,
        };
        let collector = match mode {
            TransmissionMode::Adaptive => {
                Collector::Bank(TransmitterBank::with_width(transmit, n, d))
            }
            TransmissionMode::Uniform => Collector::Uniform(UniformTransmitter::new(config.budget)),
        };
        Ok(MultiPipeline {
            collector,
            engines,
            stored: vec![0.0; n * d],
            total_transmissions: 0,
            xbuf: Vec::with_capacity(n * d),
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MultiPipelineConfig {
        &self.config
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.engines.first().map_or(0, CentralNode::ticks)
    }

    /// Realized average transmission frequency.
    pub fn transmission_frequency(&self) -> f64 {
        match self.steps() {
            0 => 0.0,
            t => self.total_transmissions as f64 / (t as f64 * self.config.num_nodes as f64),
        }
    }

    /// The stored (possibly stale) vector of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or no step has been processed.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::multi::MultiPipeline::stored
    pub fn stored(&self, node: usize) -> &[f64] {
        assert!(self.steps() > 0, "pipeline has not processed any step");
        let d = self.config.num_resources;
        &self.stored[node * d..(node + 1) * d]
    }

    /// Processes one step: `x[node]` is the node's `d`-dimensional fresh
    /// measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeCountMismatch`] for a wrong node count or
    /// an inconsistent resource dimension, and propagates stage errors.
    pub fn step(&mut self, x: &[Vec<f64>]) -> Result<MultiStepReport, CoreError> {
        let n = self.config.num_nodes;
        let d = self.config.num_resources;
        if x.len() != n {
            return Err(CoreError::NodeCountMismatch {
                expected: n,
                got: x.len(),
            });
        }
        if let Some(bad) = x.iter().find(|m| m.len() != d) {
            return Err(CoreError::InvalidConfig {
                reason: format!("measurement has {} resources, expected {d}", bad.len()),
            });
        }
        let mut xbuf = std::mem::take(&mut self.xbuf);
        xbuf.clear();
        x.iter().for_each(|m| xbuf.extend_from_slice(m));
        let report = self.step_flat(&xbuf);
        self.xbuf = xbuf;
        report
    }

    /// One step over the fleet's fresh measurements `x`, row-major like
    /// the stored values. On the first step every node transmits (the
    /// controller has no prior values); the collector still consumes its
    /// clock, against `z = x`.
    pub(crate) fn step_flat(&mut self, x: &[f64]) -> Result<MultiStepReport, CoreError> {
        let t = self.steps();
        let bootstrap = t == 0;
        let mut transmitted = Vec::with_capacity(self.config.num_nodes);
        match &mut self.collector {
            Collector::Uniform(clock) => transmitted.resize(self.config.num_nodes, clock.decide()),
            Collector::Bank(bank) => {
                let z = if bootstrap { x } else { &self.stored };
                bank.decide_batch_against(x, z, &mut transmitted)
            }
        }
        if bootstrap {
            transmitted.fill(true);
        }
        let d = self.config.num_resources;
        let rows = x.chunks_exact(d).zip(self.stored.chunks_exact_mut(d));
        for (node, (&sent, (row, z))) in transmitted.iter().zip(rows).enumerate() {
            if sent {
                // Not `copy_from_slice`: a runtime-length row is a `memcpy` call.
                for ((zv, &v), engine) in z.iter_mut().zip(row).zip(&mut self.engines) {
                    *zv = v;
                    engine.store(node, t, v);
                }
                self.total_transmissions += 1;
            }
        }
        let stages = self
            .engines
            .iter_mut()
            .map(|engine| engine.tick().map(|tick| tick.stage))
            .collect::<Result<_, _>>()?;
        Ok(MultiStepReport {
            transmitted,
            stages,
        })
    }

    /// Forecasts every node and resource for horizons `1..=horizon`.
    /// Returns `out[resource][h - 1][node]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first step.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<Vec<Vec<f64>>>, CoreError> {
        self.engines
            .iter()
            .map(|engine| engine.stage().forecast(horizon))
            .collect()
    }

    /// The per-resource controller stages (read access for diagnostics).
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::multi::MultiPipeline::stage
    pub fn stage(&self, resource: usize) -> &ForecastStage {
        self.engines[resource].stage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(n: usize, d: usize, k: usize) -> MultiPipelineConfig {
        MultiPipelineConfig {
            num_nodes: n,
            num_resources: d,
            k,
            warmup: 5,
            retrain_every: 10,
            ..Default::default()
        }
    }

    fn two_group_vec(t: usize, i: usize, n: usize, d: usize) -> Vec<f64> {
        (0..d)
            .map(|r| {
                let base = if i < n / 2 { 0.2 } else { 0.8 };
                base + 0.02 * ((t + r + i) as f64).sin()
            })
            .collect()
    }

    #[test]
    fn validation() {
        assert!(MultiPipeline::new(quick(4, 0, 2)).is_err());
        assert!(MultiPipeline::new(quick(0, 2, 2)).is_err());
        assert!(MultiPipeline::new(quick(2, 2, 3)).is_err());
        assert!(MultiPipeline::new(MultiPipelineConfig {
            budget: 0.0,
            ..quick(4, 2, 2)
        })
        .is_err());
    }

    #[test]
    fn step_validates_shapes() {
        let mut mp = MultiPipeline::new(quick(3, 2, 2)).unwrap();
        assert!(matches!(
            mp.step(&[vec![0.1, 0.2]]),
            Err(CoreError::NodeCountMismatch { .. })
        ));
        assert!(matches!(
            mp.step(&[vec![0.1], vec![0.1], vec![0.1]]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn transmission_is_joint_across_resources() {
        let n = 6;
        let mut mp = MultiPipeline::new(quick(n, 2, 2)).unwrap();
        for t in 0..40 {
            let x: Vec<Vec<f64>> = (0..n).map(|i| two_group_vec(t, i, n, 2)).collect();
            let report = mp.step(&x).unwrap();
            // A transmission refreshes the *whole* stored vector: stored
            // values of transmitting nodes match both fresh resources.
            for (i, &sent) in report.transmitted.iter().enumerate() {
                if sent {
                    assert_eq!(mp.stored(i), x[i].as_slice());
                }
            }
        }
        assert!(mp.transmission_frequency() <= 1.0);
        assert_eq!(mp.steps(), 40);
    }

    #[test]
    fn forecast_covers_all_resources() {
        let n = 6;
        let mut mp = MultiPipeline::new(quick(n, 2, 2)).unwrap();
        for t in 0..20 {
            let x: Vec<Vec<f64>> = (0..n).map(|i| two_group_vec(t, i, n, 2)).collect();
            mp.step(&x).unwrap();
        }
        let fc = mp.forecast(4).unwrap();
        assert_eq!(fc.len(), 2);
        assert_eq!(fc[1].len(), 4);
        assert_eq!(fc[1][3].len(), n);
        // Forecasts land near the group levels.
        for (i, got) in fc[0][0].iter().enumerate().take(n) {
            let expected = if i < n / 2 { 0.2 } else { 0.8 };
            assert!((got - expected).abs() < 0.1, "node {i}: {got}");
        }
        assert_eq!(mp.stage(0).steps(), 20);
    }

    #[test]
    fn forecast_before_step_errors() {
        let mp = MultiPipeline::new(quick(4, 2, 2)).unwrap();
        assert!(matches!(mp.forecast(1), Err(CoreError::NotStarted)));
    }

    #[test]
    fn hierarchical_compute_is_thread_invariant_across_resources() {
        // The shared ComputeOptions reach every per-resource stage; the
        // hierarchical pass must stay bit-identical across thread counts
        // with multiple stages running.
        let config = |threads: usize| MultiPipelineConfig {
            compute: ComputeOptions {
                shards: 3,
                threads,
                ..Default::default()
            },
            ..quick(8, 2, 2)
        };
        let mut seq = MultiPipeline::new(config(1)).unwrap();
        let mut par = MultiPipeline::new(config(8)).unwrap();
        for t in 0..15 {
            let x: Vec<Vec<f64>> = (0..8).map(|i| two_group_vec(t, i, 8, 2)).collect();
            let a = seq.step(&x).unwrap();
            let b = par.step(&x).unwrap();
            assert_eq!(a, b, "diverged at step {t}");
        }
        assert_eq!(seq.forecast(2).unwrap(), par.forecast(2).unwrap());
    }
}
