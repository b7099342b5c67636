//! Monitor-selection strategies.
//!
//! All selectors implement [`MonitorSelector`]: given the `nodes x time`
//! training matrix, pick `k` monitor node indices. The three Gaussian
//! selectors follow the descriptions of Silvestri et al. \[3\]; the
//! "proposed" selector is the paper's Sec. VI-E adaptation of its own
//! k-means clustering; `Random` is the minimum-distance baseline's monitor
//! choice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utilcast_clustering::kmeans::{KMeans, KMeansConfig};
use utilcast_linalg::kernels::sq_dist;
use utilcast_linalg::Matrix;

use crate::model::GaussianModel;
use crate::GaussianError;

/// A strategy for choosing `k` monitor nodes from training data.
pub trait MonitorSelector {
    /// Selects `k` distinct node indices.
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError::TooManyMonitors`] when `k` exceeds the node
    /// count, and propagates numerical failures.
    fn select(&self, train: &Matrix, k: usize) -> Result<Vec<usize>, GaussianError>;

    /// Short name for reports ("top-w", "batch", ...).
    fn name(&self) -> &'static str;
}

fn check_k(k: usize, nodes: usize) -> Result<(), GaussianError> {
    if k == 0 || k > nodes {
        return Err(GaussianError::TooManyMonitors { k, nodes });
    }
    Ok(())
}

/// Normalized covariance score of node `i`: Σ_j cov(i,j)² / cov(i,i),
/// i.e. how much total variance observing `i` explains across the system.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: gaussian::model::GaussianModel::condition ->
// gaussian::selection::TopW::select -> gaussian::selection::coverage_score
fn coverage_score(cov: &Matrix, i: usize) -> f64 {
    let var = cov[(i, i)];
    if var <= 1e-15 {
        return 0.0;
    }
    (0..cov.ncols())
        .map(|j| cov[(i, j)] * cov[(i, j)])
        .sum::<f64>()
        / var
}

/// **Top-W**: score every node once against the full covariance and take
/// the `k` best. One covariance estimation, one pass — the cheapest
/// Gaussian selector (paper Table IV).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopW;

impl MonitorSelector for TopW {
    fn select(&self, train: &Matrix, k: usize) -> Result<Vec<usize>, GaussianError> {
        check_k(k, train.nrows())?;
        let model = GaussianModel::fit(train)?;
        let cov = model.cov();
        let mut scored: Vec<(usize, f64)> = (0..train.nrows())
            .map(|i| (i, coverage_score(cov, i)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        Ok(scored.into_iter().take(k).map(|(i, _)| i).collect())
    }

    fn name(&self) -> &'static str {
        "top-w"
    }
}

/// **Top-W-Update**: after each pick, recompute every candidate's score
/// against the *residual* covariance (the Schur complement given the
/// monitors so far). Each iteration refactorizes the monitor block, giving
/// the `O(k · n³)`-ish cost that makes this the slowest selector in the
/// paper's Table IV.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopWUpdate;

impl MonitorSelector for TopWUpdate {
    fn select(&self, train: &Matrix, k: usize) -> Result<Vec<usize>, GaussianError> {
        check_k(k, train.nrows())?;
        let model = GaussianModel::fit(train)?;
        let n = train.nrows();
        let mut monitors: Vec<usize> = Vec::with_capacity(k);
        for _ in 0..k {
            let residual = model.residual_covariance(&monitors)?;
            let best = (0..n)
                .filter(|i| !monitors.contains(i))
                .max_by(|&a, &b| {
                    coverage_score(&residual, a).total_cmp(&coverage_score(&residual, b))
                })
                .ok_or(GaussianError::TooManyMonitors { k, nodes: n })?;
            monitors.push(best);
        }
        Ok(monitors)
    }

    fn name(&self) -> &'static str {
        "top-w-update"
    }
}

/// **Batch Selection**: greedy forward selection maximizing total variance
/// reduction, with rank-1 residual-covariance updates per pick (no
/// refactorization) — cheaper than Top-W-Update, more than Top-W.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSelection;

impl MonitorSelector for BatchSelection {
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // gaussian::model::GaussianModel::condition ->
    // gaussian::selection::BatchSelection::select
    fn select(&self, train: &Matrix, k: usize) -> Result<Vec<usize>, GaussianError> {
        check_k(k, train.nrows())?;
        let model = GaussianModel::fit(train)?;
        let n = train.nrows();
        let mut residual = model.cov().clone();
        let mut monitors = Vec::with_capacity(k);
        for _ in 0..k {
            // Variance reduction of picking i: Σ_j residual(i,j)²/residual(i,i).
            let best = (0..n)
                .filter(|i| !monitors.contains(i))
                .max_by(|&a, &b| {
                    coverage_score(&residual, a).total_cmp(&coverage_score(&residual, b))
                })
                .ok_or(GaussianError::TooManyMonitors { k, nodes: n })?;
            monitors.push(best);
            // Rank-1 Schur update: R <- R − r_b r_bᵀ / R(b,b).
            let var = residual[(best, best)];
            if var > 1e-15 {
                let col: Vec<f64> = (0..n).map(|j| residual[(best, j)]).collect();
                for i in 0..n {
                    for j in 0..n {
                        residual[(i, j)] -= col[i] * col[j] / var;
                    }
                }
            }
            for i in 0..n {
                residual[(best, i)] = 0.0;
                residual[(i, best)] = 0.0;
            }
        }
        Ok(monitors)
    }

    fn name(&self) -> &'static str {
        "batch"
    }
}

/// **Proposed** (paper Sec. VI-E): k-means over the whole training series
/// of each node; the monitor of each cluster is the node whose series is
/// closest to the cluster centroid.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProposedKMeans {
    /// RNG seed for k-means.
    pub seed: u64,
}

impl ProposedKMeans {
    /// Returns both the monitors and the node→cluster assignment (the
    /// protocol needs the assignment to estimate non-monitors).
    ///
    /// # Errors
    ///
    /// Returns [`GaussianError::TooManyMonitors`] or clustering failures.
    pub fn select_with_assignment(
        &self,
        train: &Matrix,
        k: usize,
    ) -> Result<(Vec<usize>, Vec<usize>), GaussianError> {
        check_k(k, train.nrows())?;
        let points: Vec<Vec<f64>> = (0..train.nrows()).map(|i| train.row(i).to_vec()).collect();
        let result = KMeans::new(KMeansConfig {
            k,
            seed: self.seed,
            ..Default::default()
        })
        .fit(&points)?;
        let mut monitors = vec![usize::MAX; k];
        let mut best_dist = vec![f64::INFINITY; k];
        for (i, p) in points.iter().enumerate() {
            let c = result.assignments[i];
            let d = sq_dist(p, &result.centroids[c]);
            if d < best_dist[c] {
                best_dist[c] = d;
                monitors[c] = i;
            }
        }
        // Empty clusters (possible when k-means degenerates) fall back to
        // an arbitrary unused node so we always return k monitors.
        for slot in 0..monitors.len() {
            if monitors[slot] == usize::MAX {
                let unused = (0..train.nrows()).find(|i| !monitors.contains(i)).ok_or(
                    GaussianError::TooManyMonitors {
                        k,
                        nodes: train.nrows(),
                    },
                )?;
                monitors[slot] = unused;
            }
        }
        Ok((monitors, result.assignments))
    }
}

impl MonitorSelector for ProposedKMeans {
    fn select(&self, train: &Matrix, k: usize) -> Result<Vec<usize>, GaussianError> {
        Ok(self.select_with_assignment(train, k)?.0)
    }

    fn name(&self) -> &'static str {
        "proposed"
    }
}

/// **Random** monitors — the minimum-distance baseline's selection step.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomMonitors {
    /// RNG seed.
    pub seed: u64,
}

impl MonitorSelector for RandomMonitors {
    fn select(&self, train: &Matrix, k: usize) -> Result<Vec<usize>, GaussianError> {
        check_k(k, train.nrows())?;
        let n = train.nrows();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        Ok(idx)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 nodes: three correlated pairs with very different variances.
    fn paired_train() -> Matrix {
        let t = 300;
        let mut m = Matrix::zeros(6, t);
        for s in 0..t {
            let a = (s as f64 * 0.21).sin() * 1.0;
            let b = (s as f64 * 0.43).cos() * 0.6;
            let c = (s as f64 * 0.87).sin() * 0.3;
            m[(0, s)] = a;
            m[(1, s)] = a + 0.01;
            m[(2, s)] = b;
            m[(3, s)] = b - 0.01;
            m[(4, s)] = c;
            m[(5, s)] = c + 0.01;
        }
        m
    }

    fn assert_distinct(monitors: &[usize]) {
        let mut sorted = monitors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), monitors.len(), "monitors must be distinct");
    }

    #[test]
    fn top_w_prefers_high_coverage_nodes() {
        let train = paired_train();
        let monitors = TopW.select(&train, 2).unwrap();
        assert_distinct(&monitors);
        // The highest-variance pair is (0, 1); Top-W's one-shot scoring
        // picks both (its known redundancy weakness).
        assert!(monitors.contains(&0) || monitors.contains(&1));
    }

    #[test]
    fn top_w_update_avoids_redundant_picks() {
        let train = paired_train();
        let monitors = TopWUpdate.select(&train, 3).unwrap();
        assert_distinct(&monitors);
        // After picking one of a pair, its twin's residual score collapses,
        // so the three monitors must cover three different pairs.
        let pairs: Vec<usize> = monitors.iter().map(|&m| m / 2).collect();
        let mut unique = pairs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            3,
            "monitors {monitors:?} do not cover all pairs"
        );
    }

    #[test]
    fn batch_selection_also_covers_pairs() {
        let train = paired_train();
        let monitors = BatchSelection.select(&train, 3).unwrap();
        assert_distinct(&monitors);
        let mut pairs: Vec<usize> = monitors.iter().map(|&m| m / 2).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(
            pairs.len(),
            3,
            "monitors {monitors:?} do not cover all pairs"
        );
    }

    #[test]
    fn proposed_selects_one_monitor_per_cluster() {
        let train = paired_train();
        let (monitors, assignment) = ProposedKMeans::default()
            .select_with_assignment(&train, 3)
            .unwrap();
        assert_distinct(&monitors);
        assert_eq!(assignment.len(), 6);
        // Each monitor belongs to the cluster it represents.
        for (slot, &m) in monitors.iter().enumerate() {
            assert_eq!(assignment[m], slot);
        }
    }

    #[test]
    fn random_is_reproducible_and_distinct() {
        let train = paired_train();
        let a = RandomMonitors { seed: 5 }.select(&train, 4).unwrap();
        let b = RandomMonitors { seed: 5 }.select(&train, 4).unwrap();
        assert_eq!(a, b);
        assert_distinct(&a);
    }

    #[test]
    fn k_bounds_checked() {
        let train = paired_train();
        for selector in [&TopW as &dyn MonitorSelector, &TopWUpdate, &BatchSelection] {
            assert!(matches!(
                selector.select(&train, 0),
                Err(GaussianError::TooManyMonitors { .. })
            ));
            assert!(matches!(
                selector.select(&train, 7),
                Err(GaussianError::TooManyMonitors { .. })
            ));
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            TopW.name(),
            TopWUpdate.name(),
            BatchSelection.name(),
            ProposedKMeans::default().name(),
            RandomMonitors::default().name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
