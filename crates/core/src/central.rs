//! The central node of Fig. 2 — the stale copies `z_t` of the nodes'
//! measurements, when each arrived (with the age-of-information statistics
//! of Yeh & Hsu and the optional staleness mask), and the [`ForecastStage`]
//! that re-clusters them and forecasts per cluster — as one engine that
//! every driver runs: [`crate::pipeline::Pipeline`] and
//! [`crate::multi::MultiPipeline`] behind their transmitter bank (one
//! engine per resource), the `utilcast-simnet` controller behind wire
//! admission. A tick is any number of [`CentralNode::store`] calls followed
//! by one [`CentralNode::tick`].

use std::sync::Arc;

use crate::metrics::AgeOfInformation;
use crate::stage::{ForecastStage, ForecastStageConfig, StageReport};
use crate::table::ForecastTable;
use crate::CoreError;

/// What one [`CentralNode::tick`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralTick {
    /// The forecast stage's report.
    pub stage: StageReport,
    /// Mean node staleness age (never-seen nodes count as `t + 1`).
    pub mean_age: f64,
    /// Oldest node staleness age.
    pub peak_age: usize,
    /// Nodes fed to the stage masked (imputed with the fresh-node mean).
    pub masked: usize,
}

/// The controller-side engine (see the module docs).
#[derive(Debug)]
pub struct CentralNode {
    /// The stored (possibly stale) per-node values `z_t`.
    stored: Vec<f64>,
    /// Timestamp of each node's stored value; `None` before its first.
    last_seen: Vec<Option<usize>>,
    /// Ticks processed.
    ticks: usize,
    /// Accumulated staleness-age statistics.
    age: AgeOfInformation,
    /// Stored-node steps masked by the staleness limit so far.
    masked_node_steps: u64,
    /// Recycled buffer for the masked copy of the store fed to the stage
    /// when staleness masking is active.
    stage_input: Vec<f64>,
    stage: ForecastStage,
}

impl CentralNode {
    /// Creates an engine with a zeroed store, masking past the stage's
    /// `compute.staleness_age_limit`.
    ///
    /// # Errors
    ///
    /// As [`ForecastStage::new`].
    pub fn new(config: ForecastStageConfig) -> Result<Self, CoreError> {
        let n = config.num_nodes;
        let stage = ForecastStage::new(config)?;
        CentralNode::restore(
            stage,
            vec![0.0; n],
            vec![None; n],
            0,
            AgeOfInformation::new(),
            0,
        )
    }

    /// Rebuilds an engine from checkpointed parts around a restored stage.
    /// The engine replays bit-identically to the one they were taken from.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `stored` or `last_seen` does
    /// not hold one entry per node of the stage.
    pub fn restore(
        stage: ForecastStage,
        stored: Vec<f64>,
        last_seen: Vec<Option<usize>>,
        ticks: usize,
        age: AgeOfInformation,
        masked_node_steps: u64,
    ) -> Result<Self, CoreError> {
        let n = stage.config().num_nodes;
        if stored.len() != n || last_seen.len() != n {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "snapshot has {} stored values / {} last-seen entries for {n} nodes",
                    stored.len(),
                    last_seen.len()
                ),
            });
        }
        Ok(CentralNode {
            stored,
            last_seen,
            ticks,
            age,
            masked_node_steps,
            stage_input: Vec::new(),
            stage,
        })
    }

    /// Stores an admitted measurement: node `node`'s value `value`, taken at
    /// tick `t`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    // lint:allow(panic-path): fn-scope audit: `node` is checked against the
    // store by every caller (the pipelines enumerate it, the simnet
    // controller's admission rejects unknown ids first); exemplar chain:
    // core::central::CentralNode::store
    pub fn store(&mut self, node: usize, t: usize, value: f64) {
        self.stored[node] = value;
        self.last_seen[node] = Some(t);
    }

    /// The stored (possibly stale) per-node values.
    pub fn stored(&self) -> &[f64] {
        &self.stored
    }

    /// Timestamp of each node's stored value; `None` before its first.
    pub fn last_seen(&self) -> &[Option<usize>] {
        &self.last_seen
    }

    /// Number of ticks processed.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Accumulated staleness-age statistics over all ticks.
    pub fn age(&self) -> &AgeOfInformation {
        &self.age
    }

    /// Total stored-node steps masked by the staleness limit so far.
    pub fn masked_node_steps(&self) -> u64 {
        self.masked_node_steps
    }

    /// The forecast stage: forecasts, the read plane's handle and counters,
    /// and the stage checkpoint.
    pub fn stage(&self) -> &ForecastStage {
        &self.stage
    }

    /// The cached forecast table (see [`ForecastStage::forecast_table`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotStarted`] before the first tick.
    pub fn forecast_table(&mut self) -> Result<Arc<ForecastTable>, CoreError> {
        self.stage.forecast_table()
    }

    /// Per-node staleness age at tick `now`: ticks since the freshest
    /// admitted measurement, with never-seen nodes aged `now + 1`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // core::central::CentralNode::tick ->
    // core::central::CentralNode::node_age
    fn node_age(&self, node: usize, now: usize) -> usize {
        match self.last_seen[node] {
            Some(latest) => now.saturating_sub(latest),
            None => now + 1,
        }
    }

    /// Closes a tick: tracks staleness ages, advances the clock, and runs
    /// the clustering + model-update stage — over the raw store, or over a
    /// masked copy when a staleness limit is configured and some node
    /// exceeds it.
    ///
    /// # Errors
    ///
    /// Propagates clustering errors.
    pub fn tick(&mut self) -> Result<CentralTick, CoreError> {
        let now = self.ticks;
        self.ticks += 1;

        // Staleness-age statistics (AoI): how old each node's stored
        // value is at the moment the stage consumes it.
        let n = self.stored.len();
        let mut age_sum = 0usize;
        let mut peak_age = 0usize;
        for node in 0..n {
            let age = self.node_age(node, now);
            age_sum += age;
            peak_age = peak_age.max(age);
        }
        let mean_age = age_sum as f64 / n as f64;
        self.age.add_tick(mean_age, peak_age);

        // Graceful degradation: when a staleness limit is set, nodes aged
        // past it are masked — their stored value is replaced by the mean
        // of the fresh nodes before clustering/retraining, so stale state
        // cannot drag centroids or model fits. With the limit at 0
        // (default) the stage consumes the raw store, byte-for-byte the
        // seed behaviour.
        let limit = self.stage.config().compute.staleness_age_limit;
        let mut masked = 0usize;
        let stage = if limit > 0 && peak_age > limit {
            let mut fresh_sum = 0.0f64;
            let mut fresh_count = 0usize;
            for node in 0..n {
                if self.node_age(node, now) <= limit {
                    fresh_sum += self.stored[node];
                    fresh_count += 1;
                }
            }
            self.stage_input.clear();
            self.stage_input.extend_from_slice(&self.stored);
            // With every node stale there is nothing to impute from, so
            // the store passes through unmasked.
            if fresh_count > 0 {
                let fresh_mean = fresh_sum / fresh_count as f64;
                for node in 0..n {
                    if self.node_age(node, now) > limit {
                        self.stage_input[node] = fresh_mean;
                        masked += 1;
                    }
                }
            }
            self.masked_node_steps += masked as u64;
            self.stage.step(&self.stage_input)?
        } else {
            self.stage.step(&self.stored)?
        };
        Ok(CentralTick {
            stage,
            mean_age,
            peak_age,
            masked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(n: usize, limit: usize) -> ForecastStageConfig {
        let mut config = ForecastStageConfig {
            num_nodes: n,
            k: 1,
            warmup: 5,
            retrain_every: 10,
            ..Default::default()
        };
        config.compute.staleness_age_limit = limit;
        config
    }

    #[test]
    fn staleness_age_is_tracked_per_tick() {
        let mut central = CentralNode::new(quick(2, 0)).unwrap();
        let ages = |central: &mut CentralNode| {
            let tick = central.tick().unwrap();
            (tick.mean_age, tick.peak_age)
        };
        // Tick 0: both nodes report -> ages 0.
        central.store(0, 0, 0.3);
        central.store(1, 0, 0.4);
        assert_eq!(ages(&mut central), (0.0, 0));
        // Tick 1: only node 0 reports -> node 1 is one tick old.
        central.store(0, 1, 0.5);
        assert_eq!(ages(&mut central), (0.5, 1));
        // Tick 2: silence -> ages 1 and 2.
        assert_eq!(ages(&mut central), (1.5, 2));
        assert_eq!(central.age().peak(), 2);
        assert!((central.age().mean() - (0.0 + 0.5 + 1.5) / 3.0).abs() < 1e-12);
        assert_eq!(central.last_seen(), &[Some(1), Some(0)]);
    }

    #[test]
    fn stale_nodes_are_masked_past_the_age_limit() {
        let mut central = CentralNode::new(quick(3, 2)).unwrap();
        // All three report at tick 0, then node 2 goes silent.
        for (node, v) in [0.2, 0.4, 0.9].into_iter().enumerate() {
            central.store(node, 0, v);
        }
        central.tick().unwrap();
        let mut masked_ticks = Vec::new();
        for t in 1..=4 {
            central.store(0, t, 0.2);
            central.store(1, t, 0.4);
            let tick = central.tick().unwrap();
            // Silent node 2 is the oldest: t ticks since tick 0.
            assert_eq!(tick.peak_age, t);
            if tick.masked > 0 {
                assert_eq!(tick.masked, 1, "only node 2 is stale");
                masked_ticks.push(t);
            }
        }
        // Node 2's age passes the limit of 2 at ticks 3 and 4.
        assert_eq!(masked_ticks, [3, 4]);
        assert_eq!(central.masked_node_steps(), 2);
        // Masking feeds the stage an imputed copy; the store itself keeps
        // the stale value for when the node comes back.
        assert_eq!(central.stored()[2], 0.9);
    }
}
