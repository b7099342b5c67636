//! Differential tests: the production assignment scans against the row
//! scan of [`super::oracle`], and the lean scalar descent against the
//! scalar descent it replaced, compared by `f64::to_bits` (NaN for NaN) on
//! points and centroids that include NaN and ±∞, duplicate centroid
//! values and points on a midpoint.

use proptest::prelude::*;

use super::oracle;
use super::*;

/// SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A coordinate: mostly a uniform in `[-2, 2)`, often an exact repeat of a
/// small grid value (score ties), and with probability `hostile / 16` one
/// of NaN, `+∞`, `−∞`, `±0.0`.
fn coordinate(state: &mut u64, hostile: u64) -> f64 {
    let r = next(state);
    if r % 16 < hostile {
        return [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0][(r >> 8) as usize % 5];
    }
    if (r >> 4).is_multiple_of(4) {
        return ((r >> 8) % 5) as f64 * 0.5 - 1.0;
    }
    (next(state) >> 11) as f64 / (1u64 << 51) as f64 - 2.0
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

const DIMS: [usize; 4] = [1, 2, 3, 8];

type Scan = (Vec<usize>, Vec<f64>);

/// Labels and scores of the row-scan oracle and of the block scan at
/// `workers` threads, for `k` centroids.
fn both_scans(flat: &[f64], dim: usize, centroids: &[f64], workers: usize) -> (Scan, Scan) {
    let (n, k) = (flat.len() / dim, centroids.len() / dim);
    let mut norms = vec![0.0; k];
    refresh_norms(centroids, dim, &mut norms);
    let mut want = (vec![0usize; n], vec![0.0; n]);
    oracle::assign_step(flat, dim, centroids, &norms, &mut want.0, &mut want.1);
    let mut cent_t = Vec::new();
    simd::transpose_centroids(centroids, k, dim, &mut cent_t);
    let mut got = (vec![usize::MAX; n], vec![0.0; n]);
    assign_step_block(flat, dim, &cent_t, &norms, &mut got.0, &mut got.1, workers);
    (want, got)
}

fn same_scores(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| same_bits(x, y))
}

proptest! {
    /// The block scan (whole blocks and the per-point remainder) picks the
    /// row scan's winner with the row scan's score for every point, at
    /// `d = 1` too, where it is the non-finite fallback.
    #[test]
    fn block_scan_matches_the_row_scan(
        seed in 0u64..u64::MAX,
        dim_index in 0usize..4,
        n in 1usize..40,
        k in 1usize..12,
        hostile in 0u64..4,
    ) {
        let dim = DIMS[dim_index];
        let mut state = seed;
        let flat: Vec<f64> = (0..n * dim).map(|_| coordinate(&mut state, hostile)).collect();
        let centroids: Vec<f64> = (0..k * dim).map(|_| coordinate(&mut state, hostile)).collect();
        let (want, got) = both_scans(&flat, dim, &centroids, 1);
        prop_assert_eq!(&got.0, &want.0);
        prop_assert!(same_scores(&got.1, &want.1), "{:?} vs {:?}", got.1, want.1);

        if dim == 1 && centroids.iter().any(|c| !c.is_finite()) {
            // The route the scalar scan takes to the same scan.
            let mut scratch = ScalarScratch { centroids: centroids.clone(), ..Default::default() };
            let mut labels = vec![usize::MAX; n];
            scratch.scan(&flat, &mut labels, 1);
            prop_assert!(scratch.scored);
            prop_assert_eq!(&labels, &want.0);
            prop_assert!(same_scores(&scratch.scores, &want.1));
        }
    }

    /// The blocked midpoint count labels every point as the per-point
    /// count of the old scan did, at any worker count, and reports a
    /// change exactly when a label moved.
    #[test]
    fn blocked_count_matches_the_per_point_scan(
        seed in 0u64..u64::MAX,
        n in 1usize..80,
        k in 1usize..12,
        hostile in 0u64..3,
    ) {
        let mut state = seed;
        let flat: Vec<f64> = (0..n).map(|_| coordinate(&mut state, hostile)).collect();
        let centroids: Vec<f64> = (0..k).map(|_| coordinate(&mut state, 0)).collect();
        let mut norms = vec![0.0; k];
        refresh_norms(&centroids, 1, &mut norms);
        let (mut want, mut scores) = (vec![0usize; n], vec![0.0; n]);
        oracle::assign_step_scalar(
            &flat, &centroids, &norms, &mut ScalarIndex::default(), &mut want, &mut scores,
        );
        for workers in [1, 2, 8] {
            let mut scratch = ScalarScratch { centroids: centroids.clone(), ..Default::default() };
            // Out-of-range guesses, then the right labels, then guesses
            // that are right for some points and wrong for others.
            let mut labels = vec![usize::MAX; n];
            prop_assert!(scratch.scan(&flat, &mut labels, workers));
            prop_assert!(!scratch.scored);
            prop_assert_eq!(&labels, &want);
            prop_assert!(!scratch.scan(&flat, &mut labels, workers));
            prop_assert_eq!(&labels, &want);
            let mut mixed: Vec<usize> = want.iter().enumerate().map(|(i, &l)| if i.is_multiple_of(3) { (l + 1) % k } else { l }).collect();
            scratch.scan(&flat, &mut mixed, workers);
            prop_assert_eq!(&mixed, &want);
        }
    }
}

/// A scalar population for tick `t` of a stream: `k` bands that drift, a
/// third of the points fresh every tick while the rest repeat their last
/// value bit for bit.
fn tick_points(t: usize, n: usize, k: usize, state: &mut u64, prev: &[f64]) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let band = (i % k) as f64 / k as f64 + 0.002 * t as f64;
            let fresh = band + 0.02 * ((next(state) >> 11) as f64 / (1u64 << 53) as f64);
            match prev.get(i) {
                // Two of three points keep last tick's value.
                Some(&p) if !next(state).is_multiple_of(3) => p,
                _ => fresh,
            }
        })
        .collect()
}

/// One tick of the lean refit (from the label guesses in `out`) and of the
/// oracle from the same initializer, compared by bits.
fn refit_both(
    km: &mut KMeans,
    x: &[f64],
    init: &[Vec<f64>],
    out: &mut KMeansResult,
    context: &str,
) {
    let want = oracle::lloyd_scalar(km.config(), x, flatten(init, init.len(), 1));
    km.refit_scalar(x, init, out).unwrap();
    assert_eq!(out.assignments, want.assignments, "{context}: labels");
    assert_eq!(out.iterations, want.iterations, "{context}: iterations");
    assert!(
        same_bits(out.inertia, want.inertia),
        "{context}: inertia {} vs {}",
        out.inertia,
        want.inertia
    );
    for (a, b) in out.centroids.iter().zip(&want.centroids) {
        assert!(
            same_bits(a[0], b[0]),
            "{context}: centroid {} vs {}",
            a[0],
            b[0]
        );
    }
}

/// Relabels `out` by `perm` (label `j` becomes `perm[j]`), the way the
/// dynamic clusterer's matching does, and returns the permuted centroids.
fn relabel(out: &mut KMeansResult, perm: &[usize]) -> Vec<Vec<f64>> {
    for a in &mut out.assignments {
        *a = perm[*a];
    }
    let mut centroids = vec![Vec::new(); perm.len()];
    for (j, c) in out.centroids.iter().enumerate() {
        centroids[perm[j]] = c.clone();
    }
    out.centroids.clone_from(&centroids);
    centroids
}

/// The lean scalar descent against the old one over tick streams, as the
/// dynamic clusterer drives it: each tick refits from the last tick's
/// centroids relabelled by a permutation (identity on most ticks), with
/// its relabelled labels in the output buffer as the guesses, at 1, 2 and
/// 8 threads. Edge ticks: duplicate centroid values in the initializer, a
/// point exactly on a midpoint, a non-finite centroid (the block-scan
/// fallback), a centroid no point is nearest to (the empty-cluster
/// re-seed) and guesses of the wrong length or out of range.
#[test]
fn lean_refit_matches_the_oracle_over_tick_streams() {
    let (n, k) = (300, 5);
    for threads in [1, 2, 8] {
        let mut km = KMeans::new(KMeansConfig {
            k,
            max_iters: 50,
            threads,
            ..Default::default()
        });
        let mut state = 0xC0FFEE_u64;
        let mut x: Vec<f64> = Vec::new();
        let mut init: Vec<Vec<f64>> = (0..k).map(|j| vec![j as f64 / k as f64]).collect();
        let mut out = KMeansResult {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
        for t in 0..40 {
            x = tick_points(t, n, k, &mut state, &x);
            match t {
                // Duplicate values in the initializer: the kept labels
                // must be ignored, and the lowest index wins the tie.
                7 => {
                    init[3] = init[1].clone();
                }
                // A point exactly on the midpoint of two centroids.
                11 => {
                    let mid = 0.5 * (init[0][0] + init[1][0]);
                    x[5] = mid;
                }
                // A non-finite centroid: the block-scan fallback.
                17 => {
                    init[2] = vec![f64::INFINITY];
                }
                // A centroid far from every point: its cluster empties and
                // is re-seeded at the farthest point.
                23 => {
                    init[4] = vec![50.0];
                }
                // Guesses that cannot be labels, then too few of them.
                29 => out.assignments.iter_mut().for_each(|a| *a = usize::MAX),
                31 => out.assignments.truncate(n / 2),
                _ => {}
            }
            let context = format!("threads {threads}, tick {t}");
            refit_both(&mut km, &x, &init, &mut out, &context);
            // A non-identity matching on every fifth tick.
            let perm: Vec<usize> = if t % 5 == 4 {
                (0..k).map(|j| (j + 2) % k).collect()
            } else {
                (0..k).collect()
            };
            init = relabel(&mut out, &perm);
        }
    }
}

/// The allocating entry points run the same lean descent: a cold scalar
/// fit equals the oracle's descent from the same k-means++ seeds, reduced
/// over the restarts the same way.
#[test]
fn cold_scalar_fit_matches_the_oracle() {
    let mut state = 5u64;
    let x = tick_points(0, 257, 6, &mut state, &[]);
    let config = KMeansConfig {
        k: 6,
        n_init: 3,
        seed: 41,
        ..Default::default()
    };
    let mut best: Option<KMeansResult> = None;
    for restart in 0..config.n_init as u64 {
        let mut rng = StdRng::seed_from_u64(restart_seed(config.seed, restart));
        let init = plus_plus_seed(&x, x.len(), 1, config.k, &mut rng);
        let run = oracle::lloyd_scalar(&config, &x, init);
        match &best {
            Some(b) if b.inertia <= run.inertia => {}
            _ => best = Some(run),
        }
    }
    let want = best.unwrap();
    for threads in [1, 2, 8] {
        let got = KMeans::new(KMeansConfig {
            threads,
            ..config.clone()
        })
        .fit_flat(&x, 1)
        .unwrap();
        assert_eq!(got.assignments, want.assignments);
        assert_eq!(got.iterations, want.iterations);
        assert!(same_bits(got.inertia, want.inertia));
        assert_eq!(got.centroids, want.centroids);
    }
}

/// Points enough for three workers of a scan, and no multiple of the
/// block size.
const FANNED_OUT: usize = 3 * MIN_POINTS_PER_WORKER + 601;

/// The thread fan-out cuts the buffer at chunk bounds that are no multiple
/// of the block size, so blocks start elsewhere at every worker count; a
/// point's result must not depend on which block it fell into.
#[test]
fn fan_out_does_not_change_the_block_scan() {
    let mut state = 77u64;
    for dim in [2, 3, 8] {
        let (n, k) = (FANNED_OUT, 7);
        let flat: Vec<f64> = (0..n * dim).map(|_| coordinate(&mut state, 1)).collect();
        let centroids: Vec<f64> = (0..k * dim).map(|_| coordinate(&mut state, 1)).collect();
        for workers in [1, 2, 3, 8] {
            let (want, got) = both_scans(&flat, dim, &centroids, workers);
            assert_eq!(got.0, want.0, "dim {dim}, {workers} workers");
            assert!(same_scores(&got.1, &want.1), "dim {dim}, {workers} workers");
        }
    }
}

/// The scalar scan fanned out over up to three workers labels every point
/// as the per-point scan does, and reports a change exactly when a label
/// moved, wherever the chunks are cut.
#[test]
fn fan_out_does_not_change_the_scalar_scan() {
    let mut state = 78u64;
    let (n, k) = (FANNED_OUT, 7);
    let flat: Vec<f64> = (0..n).map(|_| coordinate(&mut state, 1)).collect();
    let centroids: Vec<f64> = (0..k).map(|_| coordinate(&mut state, 0)).collect();
    let mut norms = vec![0.0; k];
    refresh_norms(&centroids, 1, &mut norms);
    let (mut want, mut scores) = (vec![0usize; n], vec![0.0; n]);
    oracle::assign_step_scalar(
        &flat,
        &centroids,
        &norms,
        &mut ScalarIndex::default(),
        &mut want,
        &mut scores,
    );
    for workers in [1, 2, 3, 8] {
        let mut scratch = ScalarScratch {
            centroids: centroids.clone(),
            ..Default::default()
        };
        let mut labels = vec![usize::MAX; n];
        assert!(scratch.scan(&flat, &mut labels, workers));
        assert_eq!(labels, want, "{workers} workers");
        assert!(!scratch.scan(&flat, &mut labels, workers));
        labels[n - 1] = (want[n - 1] + 1) % k;
        assert!(scratch.scan(&flat, &mut labels, workers));
        assert_eq!(labels, want, "{workers} workers");
    }
}
