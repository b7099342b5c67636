//! Cluster-membership forecasting and per-node offsets (Sec. V-C, Eq. 12).
//!
//! The forecast for node `i` at horizon `h` is
//! `x̂_{i,t+h} = ĉ_{j*,t+h} + ŝ_i`, where
//!
//! * `j*` is the cluster node `i` belonged to most often within the last
//!   `M' + 1` steps (`[t - M', t]`), and
//! * the offset `ŝ_i` averages the clipped deviations
//!   `α_{t-m}(z_{i,t-m} − c_{j*,t-m})` over the same window, with `α` chosen
//!   as the largest value in `(0, 1]` such that the shifted point
//!   `c_{j*} + α(z − c_{j*})` is still closest to centroid `j*` among all
//!   centroids of that step — the offset must not push the estimate into a
//!   different cluster's territory.

/// The majority vote behind `j*`: the label occurring most often in one
/// node's most-recent-first label sequence, ties going to the label seen
/// most recently. `counts` is the caller's all-zero scratch of length `k`,
/// handed back all-zero, so one scratch serves every node of a table build.
///
/// Integer-exact and equal to the two-array (count, first-seen) argmax it
/// replaced: scanning ages in order, a label's first occurrence carries its
/// full count and wins only on a strictly larger one, so among equal counts
/// the earliest first occurrence — the most recent label — stays.
///
/// # Panics
///
/// Panics if a label is `>= counts.len()`.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::majority_label
pub(crate) fn majority_label(
    labels: impl Iterator<Item = usize> + Clone,
    counts: &mut [usize],
) -> usize {
    let k = counts.len();
    for label in labels.clone() {
        assert!(label < k, "assignment {label} out of range (k = {k})");
        counts[label] += 1;
    }
    let mut best = 0;
    let mut best_count = 0;
    for label in labels {
        // Taking the count zeroes it: a later occurrence of the same label
        // reads 0 and cannot win, and the scratch ends all-zero.
        let count = std::mem::take(&mut counts[label]);
        if count > best_count {
            best = label;
            best_count = count;
        }
    }
    best
}

/// Returns the cluster index node `i` belonged to most frequently in the
/// given assignment window (most recent first). Ties break toward the most
/// recent occurrence, which matches the online intuition of trusting newer
/// information.
///
/// # Panics
///
/// Panics if `window` is empty or `i` is out of range for any entry.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::forecast_membership
pub fn forecast_membership(window: &[&[usize]], i: usize, k: usize) -> usize {
    assert!(!window.is_empty(), "membership window must be non-empty");
    majority_label(window.iter().map(|a| a[i]), &mut vec![0; k])
}

/// Squared distance below which two centroids count as coincident: their
/// bisector is degenerate, so neither bounds the other's `α`.
pub(crate) const COINCIDENT_DIST_SQ: f64 = 1e-24;

/// Computes the largest `α ∈ (0, 1]` such that `c_j + α (z − c_j)` remains
/// closest to `centroids[j]` among all centroids. Returns `1.0` when the
/// full deviation stays inside cluster `j`'s Voronoi cell.
///
/// Derivation: the constraint against centroid `l` is
/// `‖αΔ‖² ≤ ‖c_j + αΔ − c_l‖²` with `Δ = z − c_j`, which reduces to
/// `0 ≤ ‖c_j − c_l‖² + 2α Δ·(c_j − c_l)` — linear in `α`, so each
/// competitor contributes an upper bound when `Δ·(c_j − c_l) < 0`.
///
/// # Panics
///
/// Panics if `j` is out of range or dimensions are inconsistent.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::clip_alpha
pub fn clip_alpha(z: &[f64], j: usize, centroids: &[Vec<f64>]) -> f64 {
    assert!(j < centroids.len(), "cluster {j} out of range");
    let cj = &centroids[j];
    assert_eq!(z.len(), cj.len(), "dimension mismatch");
    let mut alpha: f64 = 1.0;
    for (l, cl) in centroids.iter().enumerate() {
        if l == j || cl.is_empty() {
            continue;
        }
        // ‖c_j − c_l‖² and Δ·(c_j − c_l) in one pass over the coordinates,
        // each sum accumulated in coordinate order — the same additions as
        // summing a collected `Δ` and `c_j − c_l`, without the vectors. (A
        // sum started from +0.0 instead of `Iterator::sum`'s −0.0 can only
        // differ in the sign of a zero, which no comparison below sees.)
        let mut dist_sq = 0.0;
        let mut proj = 0.0;
        for ((zv, a), b) in z.iter().zip(cj).zip(cl) {
            let diff = a - b;
            dist_sq += diff * diff;
            proj += (zv - a) * diff;
        }
        if dist_sq < COINCIDENT_DIST_SQ {
            // Coincident centroids: the bisector is degenerate; skip.
            continue;
        }
        if proj < 0.0 {
            // Upper bound: α ≤ dist_sq / (-2 proj).
            alpha = alpha.min(dist_sq / (-2.0 * proj));
        }
    }
    alpha.clamp(0.0, 1.0)
}

/// One step of history used by the offset estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetSnapshot<'a> {
    /// Stored measurements `z_{i,t-m}` for all nodes.
    pub values: &'a [Vec<f64>],
    /// Centroids `c_{j,t-m}` of that step.
    pub centroids: &'a [Vec<f64>],
}

/// Computes the Eq. 12 offset for node `i` with respect to cluster `j`,
/// averaging clipped deviations over the supplied history window
/// (most recent first, length `M' + 1`).
///
/// # Panics
///
/// Panics if `window` is empty or shapes are inconsistent.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::node_offset
pub fn node_offset(window: &[OffsetSnapshot<'_>], i: usize, j: usize) -> Vec<f64> {
    assert!(!window.is_empty(), "offset window must be non-empty");
    let dim = window[0].values[i].len();
    let mut acc = vec![0.0; dim];
    for snap in window {
        let z = &snap.values[i];
        let cj = &snap.centroids[j];
        assert_eq!(z.len(), dim, "dimension mismatch in offset window");
        let alpha = clip_alpha(z, j, snap.centroids);
        for ((a, zv), cv) in acc.iter_mut().zip(z).zip(cj) {
            *a += alpha * (zv - cv);
        }
    }
    for a in &mut acc {
        *a /= window.len() as f64;
    }
    acc
}

/// Eq. 12 without the `α` clipping (every deviation taken in full) — the
/// ablation counterpart of [`node_offset`], used by the `ablation_offset_alpha`
/// bench to quantify what the clipping buys.
///
/// # Panics
///
/// Panics if `window` is empty or shapes are inconsistent.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: core::offset::node_offset_unclipped
pub fn node_offset_unclipped(window: &[OffsetSnapshot<'_>], i: usize, j: usize) -> Vec<f64> {
    assert!(!window.is_empty(), "offset window must be non-empty");
    let dim = window[0].values[i].len();
    let mut acc = vec![0.0; dim];
    for snap in window {
        let z = &snap.values[i];
        let cj = &snap.centroids[j];
        assert_eq!(z.len(), dim, "dimension mismatch in offset window");
        for ((a, zv), cv) in acc.iter_mut().zip(z).zip(cj) {
            *a += zv - cv;
        }
    }
    for a in &mut acc {
        *a /= window.len() as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{node_offset_flat, OffsetSnapshotFlat};

    #[test]
    fn unclipped_offset_exceeds_clipped_when_outside_cell() {
        let values = vec![vec![0.8]];
        let centroids = vec![vec![0.0], vec![1.0]];
        let window = vec![OffsetSnapshot {
            values: &values,
            centroids: &centroids,
        }];
        let clipped = node_offset(&window, 0, 0)[0];
        let unclipped = node_offset_unclipped(&window, 0, 0)[0];
        assert!((unclipped - 0.8).abs() < 1e-12);
        assert!(clipped < unclipped);
    }

    #[test]
    fn membership_majority_wins() {
        let w1 = [0usize, 1];
        let w2 = [0usize, 1];
        let w3 = [1usize, 1];
        let window: Vec<&[usize]> = vec![&w3, &w1, &w2]; // most recent first
        assert_eq!(forecast_membership(&window, 0, 2), 0); // 0 appears twice
        assert_eq!(forecast_membership(&window, 1, 2), 1);
    }

    #[test]
    fn membership_tie_breaks_to_most_recent() {
        let newer = [1usize];
        let older = [0usize];
        let window: Vec<&[usize]> = vec![&newer, &older];
        assert_eq!(forecast_membership(&window, 0, 2), 1);
    }

    #[test]
    fn membership_single_step_window() {
        let only = [2usize, 0, 1];
        let window: Vec<&[usize]> = vec![&only];
        assert_eq!(forecast_membership(&window, 0, 3), 2);
    }

    #[test]
    fn alpha_is_one_inside_own_cell() {
        let centroids = vec![vec![0.0], vec![1.0]];
        // z = 0.2 is firmly inside cluster 0's cell (boundary at 0.5).
        assert_eq!(clip_alpha(&[0.2], 0, &centroids), 1.0);
    }

    #[test]
    fn alpha_clips_at_voronoi_boundary() {
        let centroids = vec![vec![0.0], vec![1.0]];
        // z = 0.8 belongs to cluster 1; moving from c_0 towards z crosses
        // the bisector at 0.5, so α = 0.5 / 0.8 = 0.625.
        let a = clip_alpha(&[0.8], 0, &centroids);
        assert!((a - 0.625).abs() < 1e-12, "alpha {a}");
        // The clipped point must (weakly) belong to cluster 0.
        let p = 0.0 + a * 0.8;
        assert!((p - 0.0).abs() <= (p - 1.0).abs() + 1e-12);
    }

    #[test]
    fn alpha_exact_boundary_point() {
        let centroids = vec![vec![0.0], vec![1.0]];
        // z = 0.5 is exactly on the bisector: α = 1 keeps the tie.
        let a = clip_alpha(&[0.5], 0, &centroids);
        assert_eq!(a, 1.0);
    }

    #[test]
    fn alpha_multidimensional() {
        let centroids = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]];
        // z pulls towards centroid 1; boundary is x = 1.
        let a = clip_alpha(&[1.6, 0.0], 0, &centroids);
        assert!((a - 1.0 / 1.6).abs() < 1e-12, "alpha {a}");
    }

    #[test]
    fn alpha_ignores_coincident_centroids() {
        let centroids = vec![vec![0.5], vec![0.5]];
        assert_eq!(clip_alpha(&[0.9], 0, &centroids), 1.0);
    }

    #[test]
    fn offset_averages_deviations() {
        let values1 = vec![vec![0.3], vec![0.9]];
        let centroids1 = vec![vec![0.2], vec![0.9]];
        let values2 = vec![vec![0.1], vec![0.9]];
        let centroids2 = vec![vec![0.2], vec![0.9]];
        let window = vec![
            OffsetSnapshot {
                values: &values1,
                centroids: &centroids1,
            },
            OffsetSnapshot {
                values: &values2,
                centroids: &centroids2,
            },
        ];
        // Node 0 vs cluster 0: deviations +0.1 and -0.1, both unclipped.
        let s = node_offset(&window, 0, 0);
        assert!(s[0].abs() < 1e-12, "offset {:?}", s);
    }

    #[test]
    fn flat_offset_is_bit_identical_to_nested() {
        // Multi-node, multi-dimensional window with clipping active for
        // some nodes: the nested path over the fused `clip_alpha` must
        // reproduce the oracle's flat-view arithmetic exactly.
        let values1 = vec![vec![0.3, 0.1], vec![0.9, 0.85], vec![0.55, 0.5]];
        let centroids1 = vec![vec![0.2, 0.15], vec![0.9, 0.9]];
        let values2 = vec![vec![0.1, 0.2], vec![0.95, 0.8], vec![0.45, 0.55]];
        let centroids2 = vec![vec![0.25, 0.2], vec![0.85, 0.88]];
        let flat1: Vec<f64> = values1.iter().flatten().copied().collect();
        let flat2: Vec<f64> = values2.iter().flatten().copied().collect();
        let nested = vec![
            OffsetSnapshot {
                values: &values1,
                centroids: &centroids1,
            },
            OffsetSnapshot {
                values: &values2,
                centroids: &centroids2,
            },
        ];
        let flat = vec![
            OffsetSnapshotFlat {
                values: &flat1,
                dim: 2,
                centroids: &centroids1,
            },
            OffsetSnapshotFlat {
                values: &flat2,
                dim: 2,
                centroids: &centroids2,
            },
        ];
        for i in 0..3 {
            for j in 0..2 {
                let a = node_offset(&nested, i, j);
                let b = node_offset_flat(&flat, i, j);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "node {i} cluster {j}");
                }
            }
        }
    }

    #[test]
    fn offset_clipping_limits_cross_cluster_pull() {
        // Node 0's stored value sits in cluster 1's cell; the offset
        // towards it must be clipped at the bisector.
        let values = vec![vec![0.8]];
        let centroids = vec![vec![0.0], vec![1.0]];
        let window = vec![OffsetSnapshot {
            values: &values,
            centroids: &centroids,
        }];
        let s = node_offset(&window, 0, 0);
        // α = 0.625, offset = 0.625 * 0.8 = 0.5 (the bisector).
        assert!((s[0] - 0.5).abs() < 1e-12, "offset {:?}", s);
    }
}
