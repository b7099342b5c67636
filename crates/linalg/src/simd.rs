//! The k-means assignment scan, shaped for LLVM autovectorization.
//!
//! Every kernel here is dependency-free, `forbid(unsafe_code)`-clean safe
//! Rust: unit-stride inner loops over independent accumulators, so the
//! backend can keep SIMD units busy. No intrinsics, no `mul_add`/FMA — the
//! op set is plain `+`/`-`/`*` so results are reproducible across targets.
//!
//! # Reduction-order contract
//!
//! Every kernel is **order-preserving**: it accumulates into each output
//! element in exactly the ascending-index order of the scalar reference
//! ([`crate::kernels::dot`] per point×centroid pair). Lane shaping only
//! changes which *independent outputs* are in flight together, never the op
//! sequence seen by a single accumulator, so the scans are bit-identical to
//! a plain per-point row scan on all inputs — `utilcast-clustering` holds
//! them to that with a differential suite against its row-scan oracle.

/// Transposes a row-major `k x dim` centroid buffer into a `dim x k` layout
/// (`cent_t[d·k + c] = centroids[c·dim + d]`), resizing `cent_t` as needed.
///
/// The transposed layout is what makes the assignment scans below
/// order-preserving: walking `d` outermost streams a *unit-stride* row of
/// `k` centroid components per dimension, so the per-centroid accumulators
/// gain their terms in the same ascending-`d` order as the scalar dot.
#[inline]
pub fn transpose_centroids(centroids: &[f64], k: usize, dim: usize, cent_t: &mut Vec<f64>) {
    debug_assert_eq!(centroids.len(), k * dim);
    cent_t.clear();
    cent_t.resize(k * dim, 0.0);
    for (c, row) in centroids.chunks_exact(dim.max(1)).enumerate() {
        for (d, &v) in row.iter().enumerate() {
            cent_t[d * k + c] = v;
        }
    }
}

/// Cached-norm assignment scores for one point against `k` transposed
/// centroids — **order-preserving (bitwise)** vs the scalar
/// `norm − 2·dot(p, centroid)` scan.
///
/// Computes `scores[c] = norms[c] − 2·Σ_d p[d]·cent_t[d·k + c]` with the
/// per-centroid dot accumulating in ascending `d` order (the same order as
/// [`crate::kernels::dot`] over the row-major centroid), because `d` is the
/// *outer* loop: the inner `c` loop touches `k` independent accumulators
/// through a unit-stride row of `cent_t`, which is exactly the shape LLVM
/// vectorizes. `acc` is scratch of length `k`.
#[inline]
pub fn norm_scores_lanes(
    p: &[f64],
    cent_t: &[f64],
    k: usize,
    norms: &[f64],
    acc: &mut [f64],
    scores: &mut [f64],
) {
    debug_assert_eq!(cent_t.len(), p.len() * k);
    debug_assert_eq!(norms.len(), k);
    debug_assert_eq!(acc.len(), k);
    debug_assert_eq!(scores.len(), k);
    if k == 0 {
        return;
    }
    acc.fill(0.0);
    for (&pv, trow) in p.iter().zip(cent_t.chunks_exact(k)) {
        for (a, &tv) in acc.iter_mut().zip(trow) {
            *a += pv * tv;
        }
    }
    for ((s, &nv), &a) in scores.iter_mut().zip(norms).zip(acc.iter()) {
        *s = nv - 2.0 * a;
    }
}

/// Index of and value of the strictly smallest score, lowest index on ties
/// — the comparison sequence of a scalar running-best scan (`<` against the
/// running best, scanning ascending `c`). Seeded at `+∞`: on an all-NaN or
/// empty input the index stays `0` and the reported score stays `+∞`.
#[inline]
pub fn argmin_score(scores: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_v = f64::INFINITY;
    for (c, &s) in scores.iter().enumerate() {
        if s < best_v {
            best_v = s;
            best = c;
        }
    }
    (best, best_v)
}

/// Points processed together by the block assignment kernels. Eight `f64`
/// columns fill a 512-bit register (or two 256-bit halves), so the
/// point-innermost loops below become full-width packed operations.
pub const POINT_BLOCK: usize = 8;

/// Transposes a row-major `POINT_BLOCK x dim` point block into
/// `dim x POINT_BLOCK` layout (`out[d*POINT_BLOCK + p] = block[p*dim + d]`)
/// so [`norm_scores_block_lanes`] scans points at unit stride.
#[inline]
pub fn transpose_point_block(block: &[f64], dim: usize, out: &mut [f64]) {
    debug_assert_eq!(block.len(), POINT_BLOCK * dim);
    debug_assert_eq!(out.len(), POINT_BLOCK * dim);
    for (p, row) in block.chunks_exact(dim).enumerate() {
        for (d, &v) in row.iter().enumerate() {
            out[d * POINT_BLOCK + p] = v;
        }
    }
}

/// Cached-norm assignment scores for a transposed point block against
/// transposed centroids — **order-preserving (bitwise)** per
/// (point, centroid) pair vs [`norm_scores_lanes`].
///
/// A register-blocked mini-GEMM with the centroid loop outermost: for each
/// centroid `c` an eight-wide accumulator row lives in registers while the
/// dimension loop broadcasts `cent_t[d*k + c]` against the eight point
/// values `pts_t[d*POINT_BLOCK ..]` (unit stride over `p`). Each
/// point×centroid dot still sums in ascending-`d` order — the same
/// reduction sequence as the scalar dot — so the scores `norms[c] − 2·dot`
/// match the per-point path bit for bit.
///
/// `pts_t` is `dim x POINT_BLOCK` (see [`transpose_point_block`]), `cent_t`
/// is `dim x k`, and `scores` is `k x POINT_BLOCK` (row `c` holds that
/// centroid's scores for the eight points).
#[inline]
pub fn norm_scores_block_lanes(
    pts_t: &[f64],
    cent_t: &[f64],
    k: usize,
    norms: &[f64],
    scores: &mut [f64],
) {
    debug_assert!(k > 0);
    debug_assert_eq!(pts_t.len() % POINT_BLOCK, 0);
    debug_assert_eq!(cent_t.len(), (pts_t.len() / POINT_BLOCK) * k);
    debug_assert_eq!(norms.len(), k);
    debug_assert_eq!(scores.len(), k * POINT_BLOCK);
    for ((c, srow), &nv) in scores.chunks_exact_mut(POINT_BLOCK).enumerate().zip(norms) {
        let mut acc = [0.0f64; POINT_BLOCK];
        for (tp, &tv) in pts_t
            .chunks_exact(POINT_BLOCK)
            .zip(cent_t[c..].iter().step_by(k))
        {
            for (a, &pv) in acc.iter_mut().zip(tp) {
                *a += pv * tv;
            }
        }
        for (s, &a) in srow.iter_mut().zip(&acc) {
            *s = nv - 2.0 * a;
        }
    }
}

/// Per-point argmin over a `k x POINT_BLOCK` score block: each point column
/// runs the same `+∞`-seeded strict-`<` ascending-centroid scan as
/// [`argmin_score`], so winners and winning scores are bitwise identical to
/// the per-point path. Writes the winning centroid index and score for each
/// of the eight points.
#[inline]
pub fn argmin_block(scores: &[f64], k: usize, idx: &mut [usize], best: &mut [f64]) {
    debug_assert_eq!(scores.len(), k * POINT_BLOCK);
    debug_assert_eq!(idx.len(), POINT_BLOCK);
    debug_assert_eq!(best.len(), POINT_BLOCK);
    idx.fill(0);
    best.fill(f64::INFINITY);
    for (c, srow) in scores.chunks_exact(POINT_BLOCK).enumerate() {
        for ((&s, i), b) in srow.iter().zip(idx.iter_mut()).zip(best.iter_mut()) {
            if s < *b {
                *b = s;
                *i = c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{self, dot};
    use crate::rng::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| normal(rng, 0.0, 1.0)).collect()
    }

    #[test]
    fn transposed_scans_bitwise_match_scalar_scores() {
        let mut rng = StdRng::seed_from_u64(53);
        for (k, dim) in [(1, 1), (3, 2), (10, 2), (7, 8), (10, 17)] {
            let centroids = random_vec(&mut rng, k * dim);
            let p = random_vec(&mut rng, dim);
            let norms: Vec<f64> = centroids.chunks_exact(dim).map(kernels::sq_norm).collect();
            let mut cent_t = Vec::new();
            transpose_centroids(&centroids, k, dim, &mut cent_t);
            let mut acc = vec![0.0; k];
            let mut scores = vec![0.0; k];
            norm_scores_lanes(&p, &cent_t, k, &norms, &mut acc, &mut scores);
            for c in 0..k {
                let reference = norms[c] - 2.0 * dot(&p, &centroids[c * dim..(c + 1) * dim]);
                assert_eq!(scores[c], reference, "norm score k={k} dim={dim} c={c}");
            }
            // The argmin scan reproduces the scalar running-best comparison.
            let mut best = 0;
            let mut best_v = f64::INFINITY;
            for (c, &s) in scores.iter().enumerate() {
                if s < best_v {
                    best_v = s;
                    best = c;
                }
            }
            assert_eq!(argmin_score(&scores), (best, best_v));
        }
    }

    #[test]
    fn block_scan_bitwise_matches_per_point_scan() {
        let mut rng = StdRng::seed_from_u64(57);
        for (k, dim) in [(1, 1), (3, 2), (10, 2), (7, 8), (10, 17)] {
            let centroids = random_vec(&mut rng, k * dim);
            let block = random_vec(&mut rng, POINT_BLOCK * dim);
            let norms: Vec<f64> = centroids.chunks_exact(dim).map(kernels::sq_norm).collect();
            let mut cent_t = Vec::new();
            transpose_centroids(&centroids, k, dim, &mut cent_t);
            let mut pts_t = vec![0.0; POINT_BLOCK * dim];
            transpose_point_block(&block, dim, &mut pts_t);
            let mut bscores = vec![0.0; k * POINT_BLOCK];
            norm_scores_block_lanes(&pts_t, &cent_t, k, &norms, &mut bscores);
            let mut idx = vec![0usize; POINT_BLOCK];
            let mut best = vec![0.0; POINT_BLOCK];
            argmin_block(&bscores, k, &mut idx, &mut best);
            let mut acc = vec![0.0; k];
            let mut scores = vec![0.0; k];
            for (p, point) in block.chunks_exact(dim).enumerate() {
                norm_scores_lanes(point, &cent_t, k, &norms, &mut acc, &mut scores);
                for c in 0..k {
                    assert_eq!(
                        bscores[c * POINT_BLOCK + p],
                        scores[c],
                        "block score k={k} dim={dim} c={c} p={p}"
                    );
                }
                let (i, s) = argmin_score(&scores);
                assert_eq!(idx[p], i, "block argmin k={k} dim={dim} p={p}");
                assert_eq!(best[p], s, "block best k={k} dim={dim} p={p}");
            }
        }
    }

    #[test]
    fn argmin_prefers_lowest_index_on_ties() {
        assert_eq!(argmin_score(&[2.0, 1.0, 1.0, 3.0]), (1, 1.0));
        assert_eq!(argmin_score(&[]), (0, f64::INFINITY));
        assert_eq!(argmin_score(&[f64::INFINITY, f64::NAN]), (0, f64::INFINITY));
    }
}
