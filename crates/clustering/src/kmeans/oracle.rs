//! The assignment row scan and the nested exact-distance Lloyd descent
//! `kmeans` ran before the transposed block scan became the only vector
//! scan, and the scalar descent it ran before the lean one (per-point
//! midpoint count, `n`-long score, norm and previous-label buffers per
//! fit), kept verbatim as the oracle `differential` and the unit tests
//! compare the production path against. Test support only: nothing here is
//! reachable from a non-test build, and no option selects it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    assign_step_block, flatten, nearest_centroid, plus_plus_seed, refresh_norms, restart_seed,
    sq_dist, unflatten, KMeansConfig, KMeansResult, ScalarIndex,
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

/// The scalar assignment step as it was: one [`ScalarIndex::nearest`] per
/// point, storing the winner's `‖c‖² − 2·x·c`, with the block scan as the
/// non-finite-centroid fallback.
pub(super) fn assign_step_scalar(
    flat: &[f64],
    centroids: &[f64],
    norms: &[f64],
    index: &mut ScalarIndex,
    assignments: &mut [usize],
    scores: &mut [f64],
) {
    if !centroids.iter().all(|v| v.is_finite()) {
        assign_step_block(flat, 1, centroids, norms, assignments, scores, 1);
        return;
    }
    index.build(centroids);
    for ((&x, a), s) in flat
        .iter()
        .zip(assignments.iter_mut())
        .zip(scores.iter_mut())
    {
        let best = index.nearest(x);
        *a = best;
        *s = norms[best] - 2.0 * (x * centroids[best]);
    }
}

/// The scalar (`dim == 1`) Lloyd descent as it was, sequential: a fresh
/// set of `n`-long buffers per fit, `‖x‖²` precomputed per point, a copy
/// of the previous partition per iteration for the fixed-point check, and
/// the inertia read from the final scan's stored scores.
pub(super) fn lloyd_scalar(
    cfg: &KMeansConfig,
    flat: &[f64],
    mut centroids: Vec<f64>,
) -> KMeansResult {
    let (n, k) = (flat.len(), cfg.k);
    let mut assignments = vec![0usize; n];
    let mut prev_assignments = vec![usize::MAX; n];
    let mut scores = vec![0.0; n];
    let mut point_norms = vec![0.0; n];
    let mut sums = vec![0.0; k];
    let mut counts = vec![0usize; k];
    let mut centroid_norms = vec![0.0; k];
    let mut index = ScalarIndex::default();
    for (pn, p) in point_norms.iter_mut().zip(flat.chunks_exact(1)) {
        *pn = utilcast_linalg::kernels::sq_norm(p);
    }
    let mut run_assign = |centroids: &[f64], assignments: &mut [usize], scores: &mut [f64]| {
        refresh_norms(centroids, 1, &mut centroid_norms);
        assign_step_scalar(
            flat,
            centroids,
            &centroid_norms,
            &mut index,
            assignments,
            scores,
        );
    };
    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        run_assign(&centroids, &mut assignments, &mut scores);
        if iter > 0 && assignments == prev_assignments {
            converged = true;
            break;
        }
        prev_assignments.copy_from_slice(&assignments);
        sums.fill(0.0);
        counts.fill(0);
        for (&x, &a) in flat.iter().zip(&assignments) {
            counts[a] += 1;
            sums[a] += x;
        }
        let mut movement: f64 = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                let Some(far) = (0..n).max_by(|&i, &j| {
                    let (ai, aj) = (assignments[i], assignments[j]);
                    let da = sq_dist(&flat[i..i + 1], &centroids[ai..ai + 1]);
                    let db = sq_dist(&flat[j..j + 1], &centroids[aj..aj + 1]);
                    da.total_cmp(&db)
                }) else {
                    continue;
                };
                let far_pt = &flat[far..far + 1];
                movement += sq_dist(&centroids[c..c + 1], far_pt);
                centroids[c..c + 1].copy_from_slice(far_pt);
                continue;
            }
            let count = counts[c] as f64;
            let mut delta = 0.0;
            for (coord, s) in centroids[c..c + 1].iter_mut().zip(&sums[c..c + 1]) {
                let new = s / count;
                delta += (*coord - new) * (*coord - new);
                *coord = new;
            }
            movement += delta;
        }
        if movement <= cfg.tol {
            break;
        }
    }
    if !converged {
        run_assign(&centroids, &mut assignments, &mut scores);
    }
    let mut inertia = 0.0;
    for (&pn, &s) in point_norms.iter().zip(&scores) {
        inertia += (pn + s).max(0.0);
    }
    KMeansResult {
        assignments,
        centroids: unflatten(&centroids, 1),
        inertia,
        iterations,
    }
}
