//! The jointly-Gaussian node model: sample mean + covariance from a
//! training matrix, with conditional-mean inference given a monitor subset.

use utilcast_linalg::stats::{covariance_matrix, mean_vector};
use utilcast_linalg::{Cholesky, Matrix};

use crate::GaussianError;

/// Multivariate Gaussian model over node measurements.
///
/// Fitted from a `nodes x time` training matrix; inference computes the
/// conditional expectation of unobserved nodes given the monitors'
/// current values — the estimator used by all three baselines of
/// Silvestri et al. \[3\].
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianModel {
    mean: Vec<f64>,
    cov: Matrix,
}

impl GaussianModel {
    /// Estimates the model from a `nodes x time` training matrix.
    ///
    /// A small ridge is added to the covariance diagonal so that the model
    /// stays usable when the sample covariance is rank-deficient (fewer
    /// samples than nodes, duplicated series, ...).
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError::InsufficientTraining`] for fewer than two
    /// time samples.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // gaussian::model::GaussianModel::fit
    pub fn fit(train: &Matrix) -> Result<Self, GaussianError> {
        if train.ncols() < 2 {
            return Err(GaussianError::InsufficientTraining {
                samples: train.ncols(),
            });
        }
        let mean = mean_vector(train);
        let mut cov = covariance_matrix(train);
        let n = cov.nrows();
        // Ridge: 1e-6 times the average variance, at least 1e-9.
        let avg_var = (cov.trace() / n as f64).abs().max(1e-3);
        let ridge = avg_var * 1e-6;
        for i in 0..n {
            cov[(i, i)] += ridge;
        }
        Ok(GaussianModel { mean, cov })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.mean.len()
    }

    /// The mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The (ridged) covariance matrix.
    pub fn cov(&self) -> &Matrix {
        &self.cov
    }

    /// Conditional-mean estimate of **all** nodes given the monitors'
    /// observed values: monitors take their observed value; every other
    /// node `u` takes `μ_u + Σ_um Σ_mm⁻¹ (x_m − μ_m)`.
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError::Linalg`] when the monitor covariance block
    /// cannot be factorized even after regularization.
    ///
    /// # Panics
    ///
    /// Panics if `observed.len() != monitors.len()` or a monitor index is
    /// out of range.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // gaussian::model::GaussianModel::condition
    pub fn condition(
        &self,
        monitors: &[usize],
        observed: &[f64],
    ) -> Result<Vec<f64>, GaussianError> {
        assert_eq!(
            monitors.len(),
            observed.len(),
            "one observation per monitor required"
        );
        let n = self.num_nodes();
        for &m in monitors {
            assert!(m < n, "monitor index {m} out of range");
        }
        let mut out = self.mean.clone();
        if monitors.is_empty() {
            return Ok(out);
        }
        // Σ_mm and the innovation x_m − μ_m.
        let cov_mm = self.cov.select(monitors, monitors);
        let innov: Vec<f64> = monitors
            .iter()
            .zip(observed)
            .map(|(&m, &x)| x - self.mean[m])
            .collect();
        let chol = Cholesky::new_regularized(&cov_mm, 1e-9, 12)?;
        let weights = chol.solve_vec(&innov); // Σ_mm⁻¹ (x_m − μ_m)
        for (u, slot) in out.iter_mut().enumerate().take(n) {
            let cross: f64 = monitors
                .iter()
                .zip(&weights)
                .map(|(&m, w)| self.cov[(u, m)] * w)
                .sum();
            *slot += cross;
        }
        // Monitors are observed exactly.
        for (&m, &x) in monitors.iter().zip(observed) {
            out[m] = x;
        }
        Ok(out)
    }

    /// Per-node conditional variance given the monitor set: the diagonal of
    /// the Schur complement. Monitors have variance `0` (observed exactly).
    /// This is the model's own uncertainty estimate for each inferred node
    /// — useful for confidence-aware consumers and for the selection
    /// diagnostics in the bench crate.
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError::Linalg`] if the monitor block cannot be
    /// factorized.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // gaussian::model::GaussianModel::conditional_variance
    pub fn conditional_variance(&self, monitors: &[usize]) -> Result<Vec<f64>, GaussianError> {
        let residual = self.residual_covariance(monitors)?;
        Ok((0..self.num_nodes())
            .map(|i| residual[(i, i)].max(0.0))
            .collect())
    }

    /// Residual covariance of the non-monitors after conditioning on the
    /// monitor set (the Schur complement), returned over **all** node
    /// indices with monitor rows/columns zeroed. Used by the iterative
    /// selector to re-score candidates.
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError::Linalg`] if the monitor block cannot be
    /// factorized.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // gaussian::model::GaussianModel::residual_covariance
    pub fn residual_covariance(&self, monitors: &[usize]) -> Result<Matrix, GaussianError> {
        let n = self.num_nodes();
        if monitors.is_empty() {
            return Ok(self.cov.clone());
        }
        let cov_mm = self.cov.select(monitors, monitors);
        let all: Vec<usize> = (0..n).collect();
        let cov_am = self.cov.select(&all, monitors); // n x k
        let chol = Cholesky::new_regularized(&cov_mm, 1e-9, 12)?;
        // Solve Σ_mm X = Σ_ma  ->  X = Σ_mm⁻¹ Σ_ma (k x n).
        let x = chol.solve_mat(&cov_am.transpose())?;
        let correction = cov_am.mat_mul(&x)?; // n x n
        let mut residual = self.cov.sub(&correction)?;
        for &m in monitors {
            for i in 0..n {
                residual[(m, i)] = 0.0;
                residual[(i, m)] = 0.0;
            }
        }
        Ok(residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Training data where node 1 = node 0 + noise, node 2 independent.
    fn correlated_train() -> Matrix {
        let t = 200;
        let mut m = Matrix::zeros(3, t);
        for s in 0..t {
            let a = (s as f64 * 0.37).sin();
            let b = ((s * s) as f64 * 0.11).cos();
            m[(0, s)] = a;
            m[(1, s)] = a + 0.05 * ((s as f64 * 1.7).sin());
            m[(2, s)] = b;
        }
        m
    }

    #[test]
    fn fit_recovers_mean() {
        let train = correlated_train();
        let model = GaussianModel::fit(&train).unwrap();
        assert_eq!(model.num_nodes(), 3);
        for i in 0..3 {
            let row_mean = utilcast_linalg::stats::mean(train.row(i));
            assert!((model.mean()[i] - row_mean).abs() < 1e-12);
        }
    }

    #[test]
    fn conditioning_tracks_correlated_node() {
        let train = correlated_train();
        let model = GaussianModel::fit(&train).unwrap();
        // Observe node 0 at a high value; node 1's estimate should move
        // with it, node 2's should stay near its mean.
        let est = model.condition(&[0], &[1.0]).unwrap();
        assert_eq!(est[0], 1.0);
        assert!(
            est[1] > 0.5,
            "correlated node should follow, got {}",
            est[1]
        );
        assert!(
            (est[2] - model.mean()[2]).abs() < 0.2,
            "independent node should stay near its mean"
        );
    }

    #[test]
    fn conditioning_with_no_monitors_returns_mean() {
        let model = GaussianModel::fit(&correlated_train()).unwrap();
        let est = model.condition(&[], &[]).unwrap();
        assert_eq!(est, model.mean().to_vec());
    }

    #[test]
    fn conditioning_on_all_nodes_returns_observations() {
        let model = GaussianModel::fit(&correlated_train()).unwrap();
        let est = model.condition(&[0, 1, 2], &[0.3, 0.4, 0.5]).unwrap();
        for (e, x) in est.iter().zip(&[0.3, 0.4, 0.5]) {
            assert!((e - x).abs() < 1e-9);
        }
    }

    #[test]
    fn residual_variance_shrinks_for_correlated_nodes() {
        let train = correlated_train();
        let model = GaussianModel::fit(&train).unwrap();
        let res = model.residual_covariance(&[0]).unwrap();
        // Node 1 is nearly determined by node 0: residual variance tiny
        // compared to its marginal variance.
        assert!(
            res[(1, 1)] < 0.2 * model.cov()[(1, 1)],
            "residual {} vs marginal {}",
            res[(1, 1)],
            model.cov()[(1, 1)]
        );
        // Node 2 is (nearly) independent: variance barely reduced.
        assert!(res[(2, 2)] > 0.8 * model.cov()[(2, 2)]);
        // Monitor rows/cols are zeroed.
        assert_eq!(res[(0, 0)], 0.0);
        assert_eq!(res[(0, 2)], 0.0);
    }

    #[test]
    fn conditional_variance_diagonal_semantics() {
        let model = GaussianModel::fit(&correlated_train()).unwrap();
        let var = model.conditional_variance(&[0]).unwrap();
        assert_eq!(var.len(), 3);
        assert_eq!(var[0], 0.0, "monitor variance is zero");
        assert!(var[1] < var[2], "correlated node is better determined");
        // No monitors: marginal variances.
        let marginal = model.conditional_variance(&[]).unwrap();
        for (i, m) in marginal.iter().enumerate().take(3) {
            assert!((m - model.cov()[(i, i)]).abs() < 1e-12);
        }
    }

    #[test]
    fn insufficient_training_errors() {
        let m = Matrix::zeros(3, 1);
        assert!(matches!(
            GaussianModel::fit(&m),
            Err(GaussianError::InsufficientTraining { samples: 1 })
        ));
    }

    #[test]
    fn degenerate_duplicate_series_still_works() {
        // Two identical rows make the covariance singular; the ridge and
        // regularized Cholesky must cope.
        let t = 50;
        let mut m = Matrix::zeros(2, t);
        for s in 0..t {
            let v = (s as f64 * 0.2).sin();
            m[(0, s)] = v;
            m[(1, s)] = v;
        }
        let model = GaussianModel::fit(&m).unwrap();
        let est = model.condition(&[0], &[0.8]).unwrap();
        assert!(
            (est[1] - 0.8).abs() < 0.05,
            "duplicate row should track, got {}",
            est[1]
        );
    }
}
