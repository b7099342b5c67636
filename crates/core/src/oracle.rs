//! The allocating Eq. 12 code `offset` and `table` shipped before the
//! resolve kernel — two vote vectors per node, a collected `Δ` and one
//! collected `c_j − c_l` per competitor per window step — and the interval
//! widths as read off a full `K × K` Gaussian fit, kept verbatim as the
//! oracle the `differential` tests below compare the production code
//! against bit for bit. Test support only: nothing here is reachable from a
//! non-test build, and no option selects it.

use utilcast_gaussian::model::GaussianModel;
use utilcast_linalg::Matrix;

use crate::table::NodeResolution;

/// [`crate::offset::forecast_membership`] as shipped: a count and a
/// first-seen vector per call.
pub(crate) fn forecast_membership(window: &[&[usize]], i: usize, k: usize) -> usize {
    assert!(!window.is_empty(), "membership window must be non-empty");
    let mut counts = vec![0usize; k];
    // `window` is most-recent-first; remember first (most recent) position
    // of each label for tie-breaking.
    let mut first_seen = vec![usize::MAX; k];
    for (age, assignment) in window.iter().enumerate() {
        let label = assignment[i];
        assert!(label < k, "assignment {label} out of range (k = {k})");
        counts[label] += 1;
        if first_seen[label] == usize::MAX {
            first_seen[label] = age;
        }
    }
    let mut best = 0usize;
    for cand in 1..k {
        if counts[cand] > counts[best]
            || (counts[cand] == counts[best] && first_seen[cand] < first_seen[best])
        {
            best = cand;
        }
    }
    best
}

/// [`crate::offset::clip_alpha`] as shipped: `Δ` and every `c_j − c_l`
/// collected into vectors, then summed.
pub(crate) fn clip_alpha(z: &[f64], j: usize, centroids: &[Vec<f64>]) -> f64 {
    assert!(j < centroids.len(), "cluster {j} out of range");
    let cj = &centroids[j];
    assert_eq!(z.len(), cj.len(), "dimension mismatch");
    let delta: Vec<f64> = z.iter().zip(cj).map(|(a, b)| a - b).collect();
    let mut alpha: f64 = 1.0;
    for (l, cl) in centroids.iter().enumerate() {
        if l == j || cl.is_empty() {
            continue;
        }
        let diff: Vec<f64> = cj.iter().zip(cl).map(|(a, b)| a - b).collect();
        let dist_sq: f64 = diff.iter().map(|v| v * v).sum();
        if dist_sq < 1e-24 {
            continue;
        }
        let proj: f64 = delta.iter().zip(&diff).map(|(a, b)| a * b).sum();
        if proj < 0.0 {
            let bound = dist_sq / (-2.0 * proj);
            alpha = alpha.min(bound);
        }
    }
    alpha.clamp(0.0, 1.0)
}

/// One step of history with the stored measurements in one contiguous
/// row-major buffer (`n * dim` values) — the view the stage's history
/// snapshots exposed to the per-node resolve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OffsetSnapshotFlat<'a> {
    pub values: &'a [f64],
    pub dim: usize,
    pub centroids: &'a [Vec<f64>],
}

/// The Eq. 12 offset over flat-buffer snapshots as shipped: one `acc`
/// vector per node on top of [`clip_alpha`]'s.
pub(crate) fn node_offset_flat(window: &[OffsetSnapshotFlat<'_>], i: usize, j: usize) -> Vec<f64> {
    assert!(!window.is_empty(), "offset window must be non-empty");
    let dim = window[0].dim;
    let mut acc = vec![0.0; dim];
    for snap in window {
        assert_eq!(snap.dim, dim, "dimension mismatch in offset window");
        let z = &snap.values[i * dim..(i + 1) * dim];
        let cj = &snap.centroids[j];
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

/// [`crate::table::resolve_nodes`] as shipped: per node, one vote and one
/// flat offset, `3 + (M′ + 1)·K` allocations each.
pub(crate) fn resolve_nodes(
    window_assign: &[&[usize]],
    window_snaps: &[OffsetSnapshotFlat<'_>],
    n: usize,
    k: usize,
) -> NodeResolution {
    let mut memberships = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n);
    for i in 0..n {
        let j_star = forecast_membership(window_assign, i, k);
        let offset = node_offset_flat(window_snaps, i, j_star)[0];
        memberships.push(j_star);
        offsets.push(offset);
    }
    NodeResolution {
        memberships,
        offsets,
    }
}

/// `table::interval_half_widths` as shipped: the ridged `K × K` Gaussian
/// fit of the centroid rows, read at its diagonal.
pub(crate) fn full_fit_interval_half_widths(centroid_rows: &Matrix, horizon: usize) -> Vec<f64> {
    let k = centroid_rows.nrows();
    let mut out = vec![0.0; k * horizon];
    let Ok(model) = GaussianModel::fit(centroid_rows) else {
        return out;
    };
    for j in 0..k {
        let sigma = model.cov()[(j, j)].max(0.0).sqrt();
        for (h, slot) in out[j * horizon..(j + 1) * horizon].iter_mut().enumerate() {
            *slot = sigma * ((h + 1) as f64).sqrt();
        }
    }
    out
}

/// Differential tests: the resolve kernel (stateless, and reusing its term
/// cache across a stream of refreshes), the fused `clip_alpha` and the
/// interval widths against the oracle above, memberships by `==` and every
/// float by `f64::to_bits` (NaN for NaN).
mod differential {
    use proptest::prelude::*;
    use utilcast_linalg::Matrix;

    use super::{NodeResolution, OffsetSnapshotFlat};
    use crate::table::{
        interval_half_widths, resolve_nodes, resolve_nodes_reusing, TermCache, WindowStep,
    };

    /// SplitMix64 step.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(state: &mut u64, bound: usize) -> usize {
        (next(state) % bound as u64) as usize
    }

    /// `k` scalar centroids of one step: general position, some exactly 0
    /// (so a stored ±0.0 deviates by a signed zero), some exact copies of a
    /// neighbour and some a hair beside one, on both sides of the
    /// `dist² < 1e-24` cut, and — rarely — one not finite or so large that
    /// its squared distance to the others overflows.
    fn centroids(k: usize, state: &mut u64) -> Vec<f64> {
        let mut c: Vec<f64> = Vec::with_capacity(k);
        for j in 0..k {
            let v = match below(state, 8) {
                0 => 0.0,
                1 | 2 if j > 0 => {
                    let hair = [0.0, 5e-13, 9.9e-13, 1e-12, 1.1e-12, 3e-12][below(state, 6)];
                    c[below(state, j)] + hair
                }
                3 if below(state, 12) == 0 => {
                    [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e200, -1e160][below(state, 5)]
                }
                _ => unit(state),
            };
            c.push(v);
        }
        c
    }

    /// A value deviating from `c[label]` towards a random side by half the
    /// distance to the nearest competitor on that side — the certified
    /// radius, where `α` starts to clip — exactly, ±1 or ±4 ulps off. Exact
    /// when `c[label]` is 0, the nearest representable deviation otherwise;
    /// far out (or not finite) when that side has no competitor.
    fn boundary_value(label: usize, c: &[f64], state: &mut u64) -> f64 {
        let cj = c[label];
        let positive = below(state, 2) == 0;
        let mut nearest = f64::INFINITY;
        for (l, &cl) in c.iter().enumerate() {
            let diff = cj - cl;
            let side = if positive { diff < 0.0 } else { diff > 0.0 };
            if l != label && diff * diff >= 1e-24 && side {
                nearest = nearest.min(diff.abs());
            }
        }
        let sign = if positive { 1.0 } else { -1.0 };
        if !nearest.is_finite() {
            return cj + sign * [0.5, 3.0, 1e300, f64::INFINITY][below(state, 4)];
        }
        let mut target = 0.5 * nearest;
        let ulps = [0, 1, 4][below(state, 3)];
        let wider = below(state, 2) == 0;
        for _ in 0..ulps {
            target = if wider {
                target.next_up()
            } else {
                target.next_down()
            };
        }
        let target = sign * target;
        let mut v = cj + target;
        for _ in 0..4 {
            let delta = v - cj;
            if delta < target {
                v = v.next_up();
            } else if delta > target {
                v = v.next_down();
            }
        }
        v
    }

    /// One stored value for a node labelled `label`: at its centroid (a
    /// +0.0 deviation), −0.0 (a −0.0 deviation from a centroid at 0), a
    /// subnormal (against a centroid at 0 a deviation whose product with any
    /// `c_j − c_l` underflows, to −0.0 on the opposite side), near its
    /// centroid (inside the cell, α = 1), on the edge of the cell
    /// ([`boundary_value`]), anywhere in `[0, 1)` (usually another cell,
    /// α < 1), outside `[0, 1]`, or — rarely — not finite (a checkpoint may
    /// carry anything).
    fn value(label: usize, c: &[f64], state: &mut u64) -> f64 {
        match below(state, 80) {
            0..=7 => c[label],
            8..=12 => -0.0,
            13..=15 => [5e-324, -5e-324, 2e-310, -2e-310][below(state, 4)],
            16..=39 => c[label] + (unit(state) - 0.5) * 0.02,
            40..=54 => unit(state),
            55..=62 => unit(state) * 3.0 - 1.0,
            63 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][below(state, 3)],
            _ => boundary_value(label, c, state),
        }
    }

    struct Window {
        assignments: Vec<Vec<usize>>,
        values: Vec<Vec<f64>>,
        centroids: Vec<Vec<Vec<f64>>>,
    }

    /// A most-recent-first window of `steps` steps. `sticky` in 0..=3 sets
    /// how often a node keeps its previous label: 0 redraws every step
    /// (ties everywhere at small `k`), higher values give clear majorities
    /// with occasional exact ties.
    fn window(n: usize, k: usize, steps: usize, sticky: usize, state: &mut u64) -> Window {
        let mut w = Window {
            assignments: Vec::new(),
            values: Vec::new(),
            centroids: Vec::new(),
        };
        let mut labels: Vec<usize> = (0..n).map(|_| below(state, k)).collect();
        for _ in 0..steps {
            let c = centroids(k, state);
            for label in &mut labels {
                if below(state, 4) >= sticky {
                    *label = below(state, k);
                }
            }
            w.values
                .push(labels.iter().map(|&l| value(l, &c, state)).collect());
            w.assignments.push(labels.clone());
            w.centroids.push(c.into_iter().map(|v| vec![v]).collect());
        }
        w
    }

    /// Steps `e, e − 1, …` of a stream (`stream` is oldest-first), at most
    /// `width` of them: the most-recent-first window a stage holds after
    /// step `e`.
    fn window_at(stream: &Window, e: usize, width: usize) -> Window {
        let steps = (e + 1).min(width);
        Window {
            assignments: (0..steps)
                .map(|s| stream.assignments[e - s].clone())
                .collect(),
            values: (0..steps).map(|s| stream.values[e - s].clone()).collect(),
            centroids: (0..steps)
                .map(|s| stream.centroids[e - s].clone())
                .collect(),
        }
    }

    /// Clears, at random, the centroid of every label that is no node's
    /// `j*` in any window of `width` steps holding that step — the vote
    /// reads labels only, so it is known before the centroids are cut.
    fn empty_unresolved_centroids(
        stream: &mut Window,
        n: usize,
        k: usize,
        width: usize,
        state: &mut u64,
    ) {
        let total = stream.values.len();
        let mut resolved = vec![vec![false; k]; total];
        for e in 0..total {
            let w = window_at(stream, e, width);
            let assign: Vec<&[usize]> = w.assignments.iter().map(Vec::as_slice).collect();
            for i in 0..n {
                let j = super::forecast_membership(&assign, i, k);
                for s in 0..assign.len() {
                    resolved[e - s][j] = true;
                }
            }
        }
        for (step, resolved) in stream.centroids.iter_mut().zip(&resolved) {
            for (c, &resolved) in step.iter_mut().zip(resolved) {
                if !resolved && below(state, 2) == 0 {
                    c.clear();
                }
            }
        }
    }

    fn oracle_resolve(w: &Window, n: usize, k: usize) -> NodeResolution {
        let assign: Vec<&[usize]> = w.assignments.iter().map(Vec::as_slice).collect();
        let snaps: Vec<OffsetSnapshotFlat<'_>> = w
            .values
            .iter()
            .zip(&w.centroids)
            .map(|(values, centroids)| OffsetSnapshotFlat {
                values,
                dim: 1,
                centroids,
            })
            .collect();
        super::resolve_nodes(&assign, &snaps, n, k)
    }

    /// The kernel's view of `w`.
    fn steps(w: &Window) -> Vec<WindowStep<'_>> {
        (0..w.values.len())
            .map(|s| WindowStep {
                assignments: &w.assignments[s],
                values: &w.values[s],
                centroids: &w.centroids[s],
            })
            .collect()
    }

    fn kernel_resolve(w: &Window, n: usize, k: usize) -> NodeResolution {
        resolve_nodes(&steps(w), n, k)
    }

    /// The bits of every value, NaN for NaN: the sign and payload of a NaN
    /// are the code generator's choice (they differ between a debug and a
    /// release build of the *same* function), so no contract rests on them.
    fn bits(values: &[f64]) -> Vec<u64> {
        values
            .iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect()
    }

    proptest! {
        /// Every membership and every offset bit of the kernel equals the
        /// oracle's: `k = 1` (no competitor) to 12, windows of 1 (first
        /// tick) to 8 steps, exact vote ties, α = 1 and α < 1, deviations
        /// at the in-cell certificate's radius and 1 and 4 ulps either
        /// side, values outside `[0, 1]` and non-finite, signed-zero
        /// deviations, coincident, non-finite and overflowing centroids —
        /// and, in a second comparison on the same window, empty centroid
        /// vectors wherever the label is no node's `j*`.
        #[test]
        fn resolve_kernel_matches_oracle_bitwise(
            n in 1usize..=64,
            k in 1usize..=12,
            steps in 1usize..=8,
            sticky in 0usize..=3,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let mut w = window(n, k, steps, sticky, &mut state);
            let want = oracle_resolve(&w, n, k);
            let got = kernel_resolve(&w, n, k);
            prop_assert_eq!(&got.memberships, &want.memberships);
            prop_assert_eq!(bits(&got.offsets), bits(&want.offsets));

            let mut emptied = 0;
            for step in &mut w.centroids {
                for (j, c) in step.iter_mut().enumerate() {
                    if !want.memberships.contains(&j) && below(&mut state, 2) == 0 {
                        c.clear();
                        emptied += 1;
                    }
                }
            }
            if emptied > 0 {
                let want = oracle_resolve(&w, n, k);
                let got = kernel_resolve(&w, n, k);
                prop_assert_eq!(&got.memberships, &want.memberships);
                prop_assert_eq!(bits(&got.offsets), bits(&want.offsets));
            }
        }

        /// One term cache carried across a stream of refreshes gives the
        /// oracle's bits at every refresh: cadences 1, 2, `M′ + 1`, `M′ + 2`
        /// and random gaps (up to `M′ + 3`, so some refreshes find no step
        /// cached), `j*` flipping between refreshes (`sticky` 0 redraws
        /// every label every step), the value mix of the stateless test
        /// (non-finite values, signed-zero and underflowing deviations,
        /// deviations at and beside the certified radius, coincident
        /// centroids on both sides of `1e-24`) and, when `empty`
        /// is 1, no centroid at random steps for labels that are no
        /// node's `j*` in any window holding the step.
        #[test]
        fn cached_kernel_matches_oracle_bitwise_at_every_refresh(
            n in 1usize..=48,
            k in 1usize..=10,
            width in 1usize..=7,
            sticky in 0usize..=3,
            cadence in 0usize..5,
            empty in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let total = 4 * width + 6;
            let mut stream = window(n, k, total, sticky, &mut state);
            if empty == 1 {
                empty_unresolved_centroids(&mut stream, n, k, width, &mut state);
            }
            let mut cache = TermCache::default();
            let mut e = 0;
            let mut refreshes = 0;
            while e < total {
                let w = window_at(&stream, e, width);
                let want = oracle_resolve(&w, n, k);
                let got = resolve_nodes_reusing(&steps(&w), e, n, k, &mut cache);
                prop_assert_eq!(&got.memberships, &want.memberships, "refresh at step {}", e);
                prop_assert_eq!(
                    bits(&got.offsets),
                    bits(&want.offsets),
                    "refresh at step {}",
                    e
                );
                refreshes += 1;
                e += match cadence {
                    0 => 1,
                    1 => 2,
                    2 => width,
                    3 => width + 1,
                    _ => 1 + below(&mut state, width + 3),
                };
            }
            prop_assert!(refreshes >= 3);
        }

        /// The interval widths computed from the `K` diagonal variances
        /// and their trace ridge are the bits the full `K × K` Gaussian fit
        /// gives: windows of 0 to 70 samples, constant rows (the ridge is
        /// the whole variance), values far from `[0, 1]` and, rarely, not
        /// finite.
        #[test]
        fn diagonal_intervals_match_full_fit_bitwise(
            k in 1usize..=12,
            w in 0usize..=70,
            horizon in 1usize..=16,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let mut rows = Vec::with_capacity(k * w);
            for _ in 0..k {
                let level = unit(&mut state);
                let kind = below(&mut state, 8);
                for _ in 0..w {
                    rows.push(match kind {
                        0 => level,
                        1 => (unit(&mut state) - 0.5) * 1e6,
                        2 if below(&mut state, 16) == 0 => {
                            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][below(&mut state, 3)]
                        }
                        _ => level + (unit(&mut state) - 0.5) * 0.1,
                    });
                }
            }
            let matrix = Matrix::from_vec(k, w, rows.clone());
            let want = super::full_fit_interval_half_widths(&matrix, horizon);
            let got = interval_half_widths((0..k).map(|j| &rows[j * w..(j + 1) * w]), horizon);
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// The fused `clip_alpha` returns the oracle's bits at dim 1, 2 and
        /// 3, with coincident, empty and ragged (shorter or longer than
        /// `dim`) competitors and points on, near and far from `c_j`.
        #[test]
        fn fused_clip_alpha_matches_oracle_bitwise(
            dim in 1usize..=3,
            k in 1usize..=8,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let j = below(&mut state, k);
            let mut cs: Vec<Vec<f64>> = Vec::with_capacity(k);
            for l in 0..k {
                let c = match below(&mut state, 6) {
                    0 if l > 0 => {
                        let hair = [0.0, 9.9e-13, 1.1e-12][below(&mut state, 3)];
                        let mut twin = cs[below(&mut state, l)].clone();
                        if let Some(v) = twin.first_mut() {
                            *v += hair;
                        }
                        twin
                    }
                    1 if l != j => {
                        let len = below(&mut state, dim + 2);
                        (0..len).map(|_| unit(&mut state)).collect()
                    }
                    _ => (0..dim).map(|_| unit(&mut state)).collect(),
                };
                cs.push(c);
            }
            // `c_j` must have `dim` coordinates (both versions assert it).
            cs[j].resize(dim, 0.25);
            let z: Vec<f64> = match below(&mut state, 4) {
                0 => cs[j].clone(),
                1 => cs[j].iter().map(|v| v + (unit(&mut state) - 0.5) * 0.02).collect(),
                2 => (0..dim).map(|_| unit(&mut state)).collect(),
                _ => (0..dim).map(|_| unit(&mut state) * 3.0 - 1.0).collect(),
            };
            let want = super::clip_alpha(&z, j, &cs);
            let got = crate::offset::clip_alpha(&z, j, &cs);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "z {:?} j {} centroids {:?}", z, j, cs);
        }
    }

    /// The sign split's edge: a subnormal deviation against a competitor
    /// on the other side gives `proj = Δ·(c_j − c_l)` = −0.0, which is not
    /// negative and bounds nothing — the offset is the full deviation, as
    /// in the oracle.
    #[test]
    fn underflowed_projection_is_minus_zero_and_bounds_nothing() {
        let delta = 5e-324_f64;
        assert_eq!((delta * -0.5).to_bits(), (-0.0_f64).to_bits());
        let centroids = vec![vec![0.0], vec![0.5], vec![-0.5]];
        let w = Window {
            assignments: vec![vec![0, 1]],
            values: vec![vec![delta, -delta]],
            centroids: vec![centroids],
        };
        let got = kernel_resolve(&w, 2, 3);
        let want = oracle_resolve(&w, 2, 3);
        assert_eq!(got.memberships, want.memberships);
        assert_eq!(bits(&got.offsets), bits(&want.offsets));
        assert_eq!(got.offsets[0].to_bits(), delta.to_bits());
    }

    /// What the order-preservation argument rests on: `Iterator::sum` over
    /// one `f64` is that `f64`, down to the sign of a zero, so at `dim = 1`
    /// the oracle's `[d·d].sum()` and `[Δ·d].sum()` are the bare products
    /// the kernel forms.
    #[test]
    fn one_element_float_sum_is_the_element() {
        for v in [-0.0f64, 0.0, 1.5e-300, -7.25, f64::INFINITY] {
            let sum: f64 = [v].iter().sum();
            assert_eq!(sum.to_bits(), v.to_bits());
        }
    }
}
