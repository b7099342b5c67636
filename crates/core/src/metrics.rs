//! The paper's error metrics (Eqs. 3–5) and the intermediate RMSE.

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};

/// Instantaneous RMSE across nodes (Eq. 3):
/// `RMSE(t, h) = sqrt( (1/N) Σ_i ‖x̂_i − x_i‖² )`.
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or contain
/// vectors of inconsistent dimension.
pub fn rmse_step(estimates: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
    assert_eq!(estimates.len(), truth.len(), "node count mismatch");
    assert!(
        !estimates.is_empty(),
        "rmse_step requires at least one node"
    );
    let n = estimates.len() as f64;
    let sum: f64 = estimates
        .iter()
        .zip(truth)
        .map(|(e, x)| {
            assert_eq!(e.len(), x.len(), "dimension mismatch");
            e.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
        })
        .sum();
    (sum / n).sqrt()
}

/// Scalar convenience form of [`rmse_step`] for per-resource pipelines.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse_step_scalar(estimates: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimates.len(), truth.len(), "node count mismatch");
    assert!(
        !estimates.is_empty(),
        "rmse_step requires at least one node"
    );
    let n = estimates.len() as f64;
    let sum: f64 = estimates
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    (sum / n).sqrt()
}

/// Intermediate RMSE of one step: the distance of each node's stored value
/// to the centroid of its assigned cluster (Sec. VI-C) — the error a
/// centroid-only representation would incur with no per-node offsets.
///
/// # Panics
///
/// Panics if lengths are inconsistent or an assignment is out of range.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::metrics::intermediate_rmse_step
pub fn intermediate_rmse_step(
    values: &[Vec<f64>],
    assignments: &[usize],
    centroids: &[Vec<f64>],
) -> f64 {
    assert_eq!(values.len(), assignments.len(), "assignment count mismatch");
    assert!(!values.is_empty(), "requires at least one node");
    let n = values.len() as f64;
    let sum: f64 = values
        .iter()
        .zip(assignments)
        .map(|(v, &a)| {
            let c = &centroids[a];
            assert_eq!(v.len(), c.len(), "dimension mismatch");
            v.iter().zip(c).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
        })
        .sum();
    (sum / n).sqrt()
}

/// Accumulator for the time-averaged RMSE (Eq. 4):
/// `RMSE(T, h) = sqrt( (1/T) Σ_t RMSE(t, h)² )` — the time average is over
/// squared errors, with the square root taken at the end.
///
/// # Example
///
/// ```
/// use utilcast_core::metrics::TimeAveragedRmse;
///
/// let mut acc = TimeAveragedRmse::new();
/// acc.add(3.0);
/// acc.add(4.0);
/// // sqrt((9 + 16) / 2)
/// assert!((acc.value() - (12.5f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeAveragedRmse {
    sum_sq: f64,
    count: usize,
}

impl TimeAveragedRmse {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one instantaneous RMSE value.
    pub fn add(&mut self, rmse: f64) {
        self.sum_sq += rmse * rmse;
        self.count += 1;
    }

    /// The time-averaged RMSE so far; `0.0` when empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq / self.count as f64).sqrt()
        }
    }

    /// Number of accumulated steps.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &TimeAveragedRmse) {
        self.sum_sq += other.sum_sq;
        self.count += other.count;
    }
}

/// Accumulator for age-of-information statistics: the per-tick mean and
/// all-time peak of the per-node staleness age (ticks since the
/// measurement timestamp of each node's freshest admitted report).
///
/// AoI is the right lens for what a degraded link costs the forecaster —
/// a lossy link does not just drop samples, it makes the controller act
/// on *old* state, and the mean/peak age quantify exactly how old.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AgeOfInformation {
    sum_of_means: f64,
    peak: usize,
    ticks: usize,
}

impl AgeOfInformation {
    /// Writes the accumulator into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.f64(self.sum_of_means);
        out.usize(self.peak);
        out.usize(self.ticks);
    }

    /// Reads an accumulator written by [`AgeOfInformation::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(AgeOfInformation {
            sum_of_means: input.f64()?,
            peak: input.usize()?,
            ticks: input.usize()?,
        })
    }

    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one tick's mean age across nodes and that tick's oldest
    /// per-node age.
    pub fn add_tick(&mut self, mean_age: f64, peak_age: usize) {
        self.sum_of_means += mean_age;
        self.peak = self.peak.max(peak_age);
        self.ticks += 1;
    }

    /// Mean over ticks of the per-tick mean node age; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.sum_of_means / self.ticks as f64
        }
    }

    /// The oldest per-node age observed on any tick.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of accumulated ticks.
    pub fn ticks(&self) -> usize {
        self.ticks
    }
}

/// The paper's overall objective (Eq. 5): the quadratic mean of the
/// per-horizon time-averaged RMSEs over `h ∈ [0, H]`.
///
/// # Panics
///
/// Panics if `per_horizon` is empty.
pub fn objective(per_horizon: &[f64]) -> f64 {
    assert!(
        !per_horizon.is_empty(),
        "objective requires at least one horizon"
    );
    let sum_sq: f64 = per_horizon.iter().map(|v| v * v).sum();
    (sum_sq / per_horizon.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_step_known_value() {
        let est = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        let truth = vec![vec![0.0, 0.0], vec![0.0, 2.0]];
        // sum of squared norms = 1 + 4 = 5, / 2 nodes -> 2.5
        assert!((rmse_step(&est, &truth) - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_scalar_agrees_with_vector_form() {
        let est = [0.1, 0.4, 0.8];
        let truth = [0.2, 0.4, 0.5];
        let v_est: Vec<Vec<f64>> = est.iter().map(|&v| vec![v]).collect();
        let v_truth: Vec<Vec<f64>> = truth.iter().map(|&v| vec![v]).collect();
        assert!((rmse_step_scalar(&est, &truth) - rmse_step(&v_est, &v_truth)).abs() < 1e-12);
    }

    #[test]
    fn perfect_estimate_is_zero() {
        let x = vec![vec![0.3], vec![0.7]];
        assert_eq!(rmse_step(&x, &x), 0.0);
    }

    #[test]
    fn intermediate_rmse_matches_manual() {
        let values = vec![vec![0.1], vec![0.3], vec![0.9]];
        let assignments = vec![0, 0, 1];
        let centroids = vec![vec![0.2], vec![0.9]];
        // errors: 0.1, 0.1, 0.0 -> sqrt((0.01 + 0.01) / 3)
        let expected = (0.02f64 / 3.0).sqrt();
        assert!(
            (intermediate_rmse_step(&values, &assignments, &centroids) - expected).abs() < 1e-12
        );
    }

    #[test]
    fn time_average_is_quadratic_mean() {
        let mut acc = TimeAveragedRmse::new();
        acc.add(3.0);
        acc.add(4.0);
        assert!((acc.value() - 12.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(acc.count(), 2);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(TimeAveragedRmse::new().value(), 0.0);
    }

    #[test]
    fn merge_combines_accumulators() {
        let mut a = TimeAveragedRmse::new();
        a.add(3.0);
        let mut b = TimeAveragedRmse::new();
        b.add(4.0);
        a.merge(&b);
        assert!((a.value() - 12.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn objective_quadratic_mean() {
        assert!((objective(&[3.0, 4.0]) - 12.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(objective(&[2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn rmse_rejects_mismatched_lengths() {
        let _ = rmse_step_scalar(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn age_of_information_tracks_mean_and_peak() {
        let mut aoi = AgeOfInformation::new();
        assert_eq!(aoi.mean(), 0.0);
        assert_eq!(aoi.peak(), 0);
        aoi.add_tick(1.0, 3);
        aoi.add_tick(2.0, 1);
        assert!((aoi.mean() - 1.5).abs() < 1e-12);
        assert_eq!(aoi.peak(), 3);
        assert_eq!(aoi.ticks(), 2);
    }
}
