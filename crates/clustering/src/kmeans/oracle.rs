//! The assignment row scan and the nested exact-distance Lloyd descent
//! `kmeans` ran before the transposed block scan became the only vector
//! scan, kept verbatim as the oracle `differential` and the unit tests
//! compare the production path against. Test support only: nothing here is
//! reachable from a non-test build, and no option selects it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    flatten, nearest_centroid, plus_plus_seed, restart_seed, sq_dist, unflatten, KMeansConfig,
    KMeansResult,
};

/// Index of and cached-norm score of the centroid minimizing `‖x − c‖²`,
/// ranked as `‖c‖² − 2·x·c` (the `‖x‖²` term is constant per point). Strict
/// `<` keeps the lowest index on ties, matching a naive sequential scan.
/// The `dim == 1` arm is the scalar fast path for the paper's per-resource
/// mode; it computes exactly the same expression as the general arm.
pub(super) fn nearest_by_norms(p: &[f64], centroids: &[f64], norms: &[f64]) -> (usize, f64) {
    let dim = p.len();
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    if dim == 1 {
        let x = p[0];
        for (c, (&cv, &norm)) in centroids.iter().zip(norms).enumerate() {
            let score = norm - 2.0 * (x * cv);
            if score < best_score {
                best = c;
                best_score = score;
            }
        }
    } else {
        for (c, (centroid, &norm)) in centroids.chunks_exact(dim).zip(norms).enumerate() {
            let score = norm - 2.0 * utilcast_linalg::kernels::dot(p, centroid);
            if score < best_score {
                best = c;
                best_score = score;
            }
        }
    }
    (best, best_score)
}

/// The row scan over the flat point buffer: one [`nearest_by_norms`] per
/// point, sequentially.
pub(super) fn assign_step(
    flat: &[f64],
    dim: usize,
    centroids: &[f64],
    norms: &[f64],
    assignments: &mut [usize],
    scores: &mut [f64],
) {
    for ((p, a), s) in flat
        .chunks_exact(dim)
        .zip(assignments.iter_mut())
        .zip(scores.iter_mut())
    {
        (*a, *s) = nearest_by_norms(p, centroids, norms);
    }
}

/// The original Lloyd descent, byte for byte: exact distance scans over
/// the nested representation, fresh accumulators every iteration, always
/// sequential.
pub(super) fn lloyd_exact(
    cfg: &KMeansConfig,
    points: &[Vec<f64>],
    mut centroids: Vec<Vec<f64>>,
) -> KMeansResult {
    let n = points.len();
    let k = cfg.k;
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        // Assignment step.
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest_centroid(p, &centroids).0;
        }
        // Update step.
        let mut sums = vec![vec![0.0; points[0].len()]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, v) in sums[assignments[i]].iter_mut().zip(p) {
                *s += v;
            }
        }
        let mut movement: f64 = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: re-seed at the point farthest from its
                // assigned centroid to keep exactly k non-empty
                // clusters. `total_cmp` keeps the argmax well-defined
                // (and deterministic) even if a distance went NaN.
                let Some(far) = points
                    .iter()
                    .enumerate()
                    .max_by(|(i, a), (j, b)| {
                        let da = sq_dist(a, &centroids[assignments[*i]]);
                        let db = sq_dist(b, &centroids[assignments[*j]]);
                        da.total_cmp(&db)
                    })
                    .map(|(i, _)| i)
                else {
                    continue; // points are validated non-empty
                };
                movement += sq_dist(&centroids[c], &points[far]);
                centroids[c] = points[far].clone();
                continue;
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += sq_dist(&centroids[c], &new);
            centroids[c] = new;
        }
        if movement <= cfg.tol {
            break;
        }
    }
    // Final assignment pass and exact inertia.
    let mut inertia = 0.0;
    for (i, p) in points.iter().enumerate() {
        let (c, d) = nearest_centroid(p, &centroids);
        assignments[i] = c;
        inertia += d;
    }
    KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

/// `n_init` k-means++ restarts of [`lloyd_exact`] on the seeds the
/// production driver derives, reduced the same way (earliest restart wins
/// ties).
pub(super) fn fit_exact(cfg: &KMeansConfig, points: &[Vec<f64>]) -> KMeansResult {
    let (n, dim) = (points.len(), points[0].len());
    let flat = flatten(points, n, dim);
    let mut best: Option<KMeansResult> = None;
    for restart in 0..cfg.n_init.max(1) as u64 {
        let mut rng = StdRng::seed_from_u64(restart_seed(cfg.seed, restart));
        let init = plus_plus_seed(&flat, n, dim, cfg.k, &mut rng);
        let run = lloyd_exact(cfg, points, unflatten(&init, dim));
        match &best {
            Some(b) if b.inertia <= run.inertia => {}
            _ => best = Some(run),
        }
    }
    best.expect("at least one restart runs")
}
