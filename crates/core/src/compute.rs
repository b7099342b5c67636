//! Compute options for the controller hot path.
//!
//! The controller re-runs clustering and per-cluster model retraining every
//! time step (Sec. V-B/V-C); the paper's Table II shows this compute —
//! not message handling — dominates controller wall-clock as `N` and `K`
//! grow. Every plane runs one implementation; [`ComputeOptions`] holds the
//! values a caller actually sets:
//!
//! * `threads` — deterministic parallelism for k-means restarts, the Lloyd
//!   assignment step, and per-cluster retraining. Results are
//!   **bit-identical at any thread count**; threads change wall-clock time
//!   only.
//! * `cold_reseed_every` — each step's k-means starts from the previous
//!   step's matched centroids. The paper's temporal-continuity premise
//!   (clusters persist across steps; that is what makes re-indexing
//!   meaningful at all) makes those near-converged, so a single short Lloyd
//!   descent replaces `n_init` cold restarts. A periodic cold re-seed bounds
//!   how long a poor local optimum can persist.
//! * `shards` — the hierarchical two-level controller: with `shards > 1`
//!   each deterministic contiguous node shard clusters locally (in parallel
//!   across shards), and the count-weighted shard centroids feed a small
//!   global merge that preserves cluster identity through the usual
//!   Hungarian re-indexing. Turns the per-tick clustering cost from one
//!   `O(N·K·d)` descent into `shards` independent `O((N/shards)·K·d)`
//!   descents plus an `O(shards·K²·d)` merge — the scaling lever for `N` in
//!   the millions.
//! * `retrain_stagger`, `staleness_age_limit`, `max_query_horizon` — the
//!   retrain schedule, the staleness mask and the read-plane depth.

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};

/// Knobs for the controller's per-step compute (see module docs).
///
/// Configurations written while the kernel/mode matrix existed carry more
/// keys (`kernel`, `warm_start`, `flat_points`, `shard_kernel`,
/// `bank_kernel`); deserialization ignores them, so such a configuration
/// runs the one path that is left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeOptions {
    /// Worker threads for clustering and retraining: `0` = one per
    /// available CPU, `1` = fully sequential (default). Results are
    /// bit-identical at every setting.
    pub threads: usize,
    /// Force a cold k-means++ re-seed every this many steps; every other
    /// step warm-starts from the previous step's matched centroids. `0` =
    /// never after the first step, `1` = every step (no warm starts); the
    /// default of 288 re-seeds once per day at the paper's 5-minute
    /// cadence.
    pub cold_reseed_every: usize,
    /// Phase-offset each cluster's retraining schedule by
    /// `j · retrain_every / K` steps so at most ~one model refits per tick
    /// instead of all `K` spiking on the same tick (default `false`).
    /// Purely step-counter driven, so results stay bit-identical at any
    /// thread count; it changes *when* each model retrains, so reports
    /// differ from the unstaggered schedule by construction.
    pub retrain_stagger: bool,
    /// Mask nodes whose staleness age (ticks since their freshest stored
    /// measurement) exceeds this limit: before clustering/retraining their
    /// stored value is imputed with the mean of the fresh nodes, so stale
    /// state stops poisoning centroids and model fits when links degrade.
    /// Applied by [`CentralNode`](crate::central::CentralNode), so in every
    /// driver. `0` disables masking (default) — every stored value is used
    /// as-is.
    pub staleness_age_limit: usize,
    /// Shard count for the hierarchical two-level clustering: nodes are
    /// partitioned into this many deterministic contiguous shards, each
    /// shard clusters its own nodes (in parallel across shards, seeded
    /// per shard), and the shard centroids — weighted by member counts —
    /// feed a small global merge whose labels go through the usual
    /// Hungarian re-indexing against node-level history. `<= 1` (default
    /// `1`) runs the single-level clustering; the hierarchical result at
    /// any fixed shard count is itself bit-identical at every thread count.
    #[serde(default)]
    pub shards: usize,
    /// Maximum horizon (steps ahead) precomputed into the cached
    /// [`ForecastTable`](crate::table::ForecastTable) — the read plane
    /// answers point queries for horizon indices `0..max_query_horizon`
    /// in O(1). Affects only the table (build cost is linear in it);
    /// the recompute path and every report stay bit-identical at any
    /// setting. `0` — including configurations written before the read
    /// plane existed, which carry no field — means the default depth of 16 (see
    /// [`ComputeOptions::query_horizon`], the only consumer).
    #[serde(default)]
    pub max_query_horizon: usize,
}

/// Table depth used when [`ComputeOptions::max_query_horizon`] is unset.
pub const DEFAULT_QUERY_HORIZON: usize = 16;

impl Default for ComputeOptions {
    fn default() -> Self {
        ComputeOptions {
            threads: 1,
            cold_reseed_every: 288,
            retrain_stagger: false,
            staleness_age_limit: 0,
            shards: 1,
            max_query_horizon: DEFAULT_QUERY_HORIZON,
        }
    }
}

impl ComputeOptions {
    /// Writes the options into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.usize(self.threads);
        out.usize(self.cold_reseed_every);
        out.bool(self.retrain_stagger);
        out.usize(self.staleness_age_limit);
        out.usize(self.shards);
        out.usize(self.max_query_horizon);
    }

    /// Reads options written by [`ComputeOptions::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(ComputeOptions {
            threads: input.usize()?,
            cold_reseed_every: input.usize()?,
            retrain_stagger: input.bool()?,
            staleness_age_limit: input.usize()?,
            shards: input.usize()?,
            max_query_horizon: input.usize()?,
        })
    }

    /// The effective forecast-table depth: `max_query_horizon`, with `0`
    /// (unset / pre-table configuration) normalized to
    /// [`DEFAULT_QUERY_HORIZON`] — the same convention as `shards == 0`
    /// meaning single-level.
    pub fn query_horizon(&self) -> usize {
        if self.max_query_horizon == 0 {
            DEFAULT_QUERY_HORIZON
        } else {
            self.max_query_horizon
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_single_level() {
        let c = ComputeOptions::default();
        assert_eq!(c.threads, 1);
        assert_eq!(c.cold_reseed_every, 288);
        assert!(!c.retrain_stagger);
        assert_eq!(c.staleness_age_limit, 0, "masking is off by default");
        assert_eq!(c.shards, 1, "single-level clustering by default");
        assert_eq!(c.max_query_horizon, 16);
    }

    #[test]
    fn old_snapshots_deserialize_onto_the_single_path() {
        // A checkpoint written before the hierarchical tier and the read
        // plane existed, under the kernel/mode matrix: the retired keys are
        // ignored, the absent ones take their defaults (`shards == 0` is
        // treated as `<= 1` everywhere).
        let json = r#"{
            "threads": 1, "warm_start": true, "cold_reseed_every": 288,
            "kernel": "CachedNorms", "retrain_stagger": false,
            "flat_points": true, "staleness_age_limit": 0
        }"#;
        let c: ComputeOptions = serde_json::from_str(json).unwrap();
        assert!(c.shards <= 1);
        assert_eq!(c.max_query_horizon, 0, "field absent from old JSON");
        assert_eq!(
            c.query_horizon(),
            16,
            "old checkpoints take the default read-plane depth"
        );
        assert_eq!(
            ComputeOptions {
                shards: 1,
                max_query_horizon: 16,
                ..c
            },
            ComputeOptions::default()
        );
    }
}
