//! The cluster-trace generator.
//!
//! Generates utilization traces with the structure the paper's algorithms
//! exploit: nodes follow a small number of latent *workload groups*, each
//! group carries its own diurnal + autoregressive signal with occasional
//! regime shifts, nodes occasionally migrate between groups (which is what
//! makes the clustering *dynamic*), and each node adds a persistent offset,
//! task-burst spikes, and measurement noise. The result has weak long-term
//! pairwise correlation but strong short-term group correlation — the
//! regime the paper's Fig. 1 identifies for datacenter traces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use utilcast_linalg::rng::{normal, pareto};

use crate::{Resource, Trace};

/// Configuration of the synthetic cluster-trace generator.
///
/// Construct via a preset in [`crate::presets`] or from
/// [`ClusterTraceConfig::default`], then adjust with the builder methods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTraceConfig {
    /// Number of machines `N`.
    pub num_nodes: usize,
    /// Number of time steps `T`.
    pub num_steps: usize,
    /// Resources to generate (one latent group process per resource).
    pub resources: Vec<Resource>,
    /// Number of latent workload groups.
    pub num_groups: usize,
    /// Diurnal period in steps (e.g. 288 for a day at 5-minute sampling).
    pub diurnal_period: usize,
    /// Diurnal amplitude of each group signal.
    pub diurnal_amplitude: f64,
    /// AR(1) coefficient of the group-level noise.
    pub group_ar: f64,
    /// Standard deviation of the group-level AR(1) innovations.
    pub group_noise: f64,
    /// Per-step probability that a group's base level jumps to a new random
    /// level (regime shift).
    pub regime_shift_prob: f64,
    /// Per-step probability that a node migrates to another group
    /// (membership churn — drives cluster evolution).
    pub churn_prob: f64,
    /// Standard deviation of each node's persistent offset from its group.
    pub node_offset_std: f64,
    /// Standard deviation of per-node, per-step measurement noise.
    pub node_noise: f64,
    /// Per-step probability that a node starts a task burst.
    pub spike_prob: f64,
    /// Pareto shape of burst magnitudes (smaller = heavier tail).
    pub spike_shape: f64,
    /// Mean duration of a burst in steps.
    pub spike_duration: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterTraceConfig {
    fn default() -> Self {
        ClusterTraceConfig {
            num_nodes: 100,
            num_steps: 2000,
            resources: vec![Resource::Cpu, Resource::Memory],
            num_groups: 4,
            diurnal_period: 288,
            diurnal_amplitude: 0.15,
            group_ar: 0.95,
            group_noise: 0.02,
            regime_shift_prob: 0.002,
            churn_prob: 0.002,
            node_offset_std: 0.05,
            node_noise: 0.02,
            spike_prob: 0.01,
            spike_shape: 2.5,
            spike_duration: 6,
            seed: 0,
        }
    }
}

impl ClusterTraceConfig {
    /// Sets the number of nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.num_nodes = n;
        self
    }

    /// Sets the number of time steps.
    pub fn steps(mut self, t: usize) -> Self {
        self.num_steps = t;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of latent workload groups.
    pub fn groups(mut self, g: usize) -> Self {
        self.num_groups = g;
        self
    }

    /// Sets the per-step group-migration probability.
    pub fn churn(mut self, p: f64) -> Self {
        self.churn_prob = p;
        self
    }

    /// Sets the per-step probability of a group-level regime shift (base
    /// level jumping to a new random value) — the nonstationarity knob.
    pub fn regime_shifts(mut self, p: f64) -> Self {
        self.regime_shift_prob = p;
        self
    }

    /// Generates the trace.
    ///
    /// # Panics
    ///
    /// Panics if any of `num_nodes`, `num_steps`, `num_groups`, or
    /// `resources` is zero/empty, or `diurnal_period == 0`.
    // lint:allow(panic-path): fn-scope audit: base/ar/phase are d x g and
    // offsets n x d, r < d and i < n are loop variables, and every group
    // label k = membership[i] is < g (set to i % g, or drawn from 0..g-1 and
    // stepped past the current label), so each [r][k] / [i][r] is in
    // bounds; chain datasets::generator::ClusterTraceConfig::generate
    pub fn generate(&self) -> Trace {
        assert!(self.num_nodes > 0, "num_nodes must be positive");
        assert!(self.num_steps > 0, "num_steps must be positive");
        assert!(self.num_groups > 0, "num_groups must be positive");
        assert!(!self.resources.is_empty(), "resources must be non-empty");
        assert!(self.diurnal_period > 0, "diurnal_period must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let d = self.resources.len();
        let g = self.num_groups;
        let n = self.num_nodes;

        // Latent group state per resource: base level, AR(1) deviation, and
        // a random diurnal phase so groups do not peak simultaneously.
        let mut base = vec![vec![0.0; g]; d];
        let mut ar = vec![vec![0.0; g]; d];
        let mut phase = vec![vec![0.0; g]; d];
        for r in 0..d {
            for k in 0..g {
                base[r][k] = rng.gen_range(0.15..0.75);
                phase[r][k] = rng.gen_range(0.0..std::f64::consts::TAU);
            }
        }

        // Node state: group membership, persistent offset, remaining burst.
        let mut membership: Vec<usize> = (0..n).map(|i| i % g).collect();
        let offsets: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| normal(&mut rng, 0.0, self.node_offset_std))
                    .collect()
            })
            .collect();
        let mut burst_left = vec![0usize; n];
        let mut burst_height = vec![0.0f64; n];

        let mut trace = Trace::zeros(self.resources.clone(), n, self.num_steps);
        let tau = std::f64::consts::TAU;
        for t in 0..self.num_steps {
            // Evolve group signals.
            for r in 0..d {
                for k in 0..g {
                    if rng.gen::<f64>() < self.regime_shift_prob {
                        base[r][k] = rng.gen_range(0.15..0.75);
                    }
                    ar[r][k] = self.group_ar * ar[r][k] + normal(&mut rng, 0.0, self.group_noise);
                }
            }
            // Node churn and bursts.
            for i in 0..n {
                if g > 1 && rng.gen::<f64>() < self.churn_prob {
                    let mut next = rng.gen_range(0..g - 1);
                    if next >= membership[i] {
                        next += 1;
                    }
                    membership[i] = next;
                }
                if burst_left[i] > 0 {
                    burst_left[i] -= 1;
                } else if rng.gen::<f64>() < self.spike_prob {
                    burst_left[i] = 1 + rng.gen_range(0..self.spike_duration.max(1) * 2);
                    // Heavy-tailed burst height, scaled into utilization
                    // units.
                    burst_height[i] = (pareto(&mut rng, 0.05, self.spike_shape)).min(0.6);
                }
            }
            // Emit measurements.
            let day = t as f64 / self.diurnal_period as f64 * tau;
            for i in 0..n {
                let k = membership[i];
                let burst = if burst_left[i] > 0 {
                    burst_height[i]
                } else {
                    0.0
                };
                for r in 0..d {
                    let diurnal = self.diurnal_amplitude * (day + phase[r][k]).sin();
                    let v = base[r][k]
                        + diurnal
                        + ar[r][k]
                        + offsets[i][r]
                        + burst
                        + normal(&mut rng, 0.0, self.node_noise);
                    trace.measurement_mut(i, t)[r] = v.clamp(0.0, 1.0);
                }
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilcast_linalg::stats::{pearson, std_dev};

    fn quick() -> ClusterTraceConfig {
        ClusterTraceConfig {
            num_nodes: 30,
            num_steps: 400,
            diurnal_period: 96,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn shape_and_range() {
        let tr = quick().generate();
        assert_eq!(tr.num_nodes(), 30);
        assert_eq!(tr.num_steps(), 400);
        assert_eq!(tr.dim(), 2);
        assert!(tr.is_unit_range());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick().generate();
        let b = quick().generate();
        assert_eq!(a, b);
        let c = quick().seed(1).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn same_group_nodes_correlate_short_term() {
        // Without churn, nodes 0 and num_groups (same initial group) should
        // be strongly correlated; nodes in different groups much less so.
        let cfg = ClusterTraceConfig {
            churn_prob: 0.0,
            node_noise: 0.01,
            spike_prob: 0.0,
            ..quick()
        };
        let tr = cfg.generate();
        let s0 = tr.series(Resource::Cpu, 0).unwrap();
        let s_same = tr.series(Resource::Cpu, cfg.num_groups).unwrap();
        let s_diff = tr.series(Resource::Cpu, 1).unwrap();
        let same = pearson(&s0, &s_same);
        let diff = pearson(&s0, &s_diff);
        assert!(same > 0.8, "same-group correlation {same}");
        assert!(
            diff < same,
            "cross-group correlation {diff} should be lower"
        );
    }

    #[test]
    fn series_are_not_constant() {
        let tr = quick().generate();
        for i in [0, 7, 29] {
            let s = tr.series(Resource::Memory, i).unwrap();
            assert!(std_dev(&s) > 0.005, "node {i} series is (near-)constant");
        }
    }

    #[test]
    fn churn_changes_group_structure_over_time() {
        // With heavy churn, early-window and late-window correlations to the
        // same partner should differ substantially for at least some nodes.
        let cfg = ClusterTraceConfig {
            churn_prob: 0.02,
            node_noise: 0.01,
            spike_prob: 0.0,
            num_steps: 1200,
            ..quick()
        };
        let tr = cfg.generate();
        let mut max_shift: f64 = 0.0;
        for i in 1..10 {
            let a = tr.series(Resource::Cpu, 0).unwrap();
            let b = tr.series(Resource::Cpu, i).unwrap();
            let early = pearson(&a[..400], &b[..400]);
            let late = pearson(&a[800..], &b[800..]);
            max_shift = max_shift.max((early - late).abs());
        }
        assert!(
            max_shift > 0.3,
            "expected correlation structure to drift, max shift {max_shift}"
        );
    }

    #[test]
    fn builder_methods_apply() {
        let cfg = ClusterTraceConfig::default()
            .nodes(5)
            .steps(10)
            .groups(2)
            .churn(0.5)
            .seed(9);
        assert_eq!(cfg.num_nodes, 5);
        assert_eq!(cfg.num_steps, 10);
        assert_eq!(cfg.num_groups, 2);
        assert_eq!(cfg.churn_prob, 0.5);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    #[should_panic(expected = "num_groups must be positive")]
    fn zero_groups_panics() {
        let _ = ClusterTraceConfig::default().groups(0).generate();
    }
}
