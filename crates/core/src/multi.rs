//! Multi-resource pipeline: joint transmission, per-resource forecasting.
//!
//! The paper's Sec. V-A transmission operates on the full `d`-dimensional
//! measurement vector (`F` averages the squared error over resource types,
//! and one decision ships the whole vector), while clustering and
//! forecasting run per resource on scalars (Sec. VI-C1). [`MultiPipeline`]
//! implements exactly that split: one width-`d` [`TransmitterBank`] deciding
//! for every node on the whole vector, one [`crate::stage::ForecastStage`]
//! per resource on the controller.
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

use crate::cluster::SimilarityMeasure;
use crate::compute::ComputeOptions;
use crate::pipeline::ModelSpec;
use crate::stage::{ForecastStage, ForecastStageConfig, StageReport};
use crate::transmit::{TransmitConfig, TransmitterBank};
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
    /// Threading and warm-start knobs shared by every resource stage (see
    /// [`ComputeOptions`]); with [`ComputeOptions::shards`] `> 1` every
    /// stage clusters through the hierarchical two-level pass.
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

/// The multi-resource pipeline (see module docs).
pub struct MultiPipeline {
    config: MultiPipelineConfig,
    /// The nodes' transmitters; the bank's row-major stored mirror
    /// (`stored[node * d + resource]`) is the controller's copy.
    bank: TransmitterBank,
    /// Scratch buffers: the step's measurements flattened row-major, and
    /// the per-resource gather (no allocation per step or resource).
    xbuf: Vec<f64>,
    zbuf: Vec<f64>,
    stages: Vec<ForecastStage>,
    t: usize,
    total_transmissions: u64,
}

impl std::fmt::Debug for MultiPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPipeline")
            .field("config", &self.config)
            .field("steps", &self.t)
            .finish_non_exhaustive()
    }
}

impl MultiPipeline {
    /// Creates the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero nodes/resources, `k`
    /// outside `[1, num_nodes]`, or a budget outside `(0, 1]`.
    pub fn new(config: MultiPipelineConfig) -> Result<Self, CoreError> {
        if config.num_resources == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "num_resources must be positive".into(),
            });
        }
        if !(config.budget > 0.0 && config.budget <= 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("budget must be within (0, 1], got {}", config.budget),
            });
        }
        let stages = (0..config.num_resources)
            .map(|r| {
                ForecastStage::new(ForecastStageConfig {
                    num_nodes: config.num_nodes,
                    k: config.k,
                    m: config.m,
                    m_prime: config.m_prime,
                    similarity: config.similarity,
                    warmup: config.warmup,
                    retrain_every: config.retrain_every,
                    model: config.model.clone(),
                    seed: config.seed.wrapping_add(r as u64),
                    compute: config.compute,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let bank = TransmitterBank::with_width(
            TransmitConfig {
                budget: config.budget,
                v0: config.v0,
                gamma: config.gamma,
            },
            config.num_nodes,
            config.num_resources,
        );
        Ok(MultiPipeline {
            bank,
            xbuf: Vec::with_capacity(config.num_nodes * config.num_resources),
            zbuf: vec![0.0; config.num_nodes],
            stages,
            t: 0,
            total_transmissions: 0,
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MultiPipelineConfig {
        &self.config
    }

    /// Number of steps processed.
    pub fn steps(&self) -> usize {
        self.t
    }

    /// Realized average transmission frequency.
    pub fn transmission_frequency(&self) -> f64 {
        if self.t == 0 {
            0.0
        } else {
            self.total_transmissions as f64 / (self.t as f64 * self.config.num_nodes as f64)
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
        assert!(self.t > 0, "pipeline has not processed any step");
        let d = self.config.num_resources;
        &self.bank.stored()[node * d..(node + 1) * d]
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
        self.xbuf.clear();
        x.iter().for_each(|m| self.xbuf.extend_from_slice(m));
        let mut transmitted = Vec::with_capacity(n);
        if self.t == 0 {
            // Bootstrap: everyone transmits; the bank still consumes its
            // clock, against z = x.
            self.bank
                .decide_batch_against(&self.xbuf, &self.xbuf, &mut transmitted);
            self.bank.store_all(&self.xbuf);
            transmitted.fill(true);
            self.total_transmissions += n as u64;
        } else {
            self.bank.decide_batch(&self.xbuf, &mut transmitted);
            self.total_transmissions += transmitted.iter().filter(|&&sent| sent).count() as u64;
        }
        self.t += 1;

        let mut stages = Vec::with_capacity(d);
        let mut z = std::mem::take(&mut self.zbuf);
        // An early `?` return leaves the scratch buffer empty; restore its
        // length before the gather rather than assuming it.
        z.resize(n, 0.0);
        for (r, stage) in self.stages.iter_mut().enumerate() {
            for (zi, row) in z.iter_mut().zip(self.bank.stored().chunks_exact(d)) {
                *zi = row[r];
            }
            stages.push(stage.step(&z)?);
        }
        self.zbuf = z;
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
        self.stages.iter().map(|s| s.forecast(horizon)).collect()
    }

    /// The per-resource controller stages (read access for diagnostics).
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::multi::MultiPipeline::stage
    pub fn stage(&self, resource: usize) -> &ForecastStage {
        &self.stages[resource]
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
