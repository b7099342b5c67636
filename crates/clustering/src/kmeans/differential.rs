//! Differential tests: the production assignment scans against the row
//! scan of [`super::oracle`], compared by `f64::to_bits` (NaN for NaN) on
//! points and centroids that include NaN and ±∞.

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
            // The route the scalar path takes to the same scan.
            let mut norms = vec![0.0; k];
            refresh_norms(&centroids, 1, &mut norms);
            let (mut labels, mut scores) = (vec![usize::MAX; n], vec![0.0; n]);
            let mut index = ScalarIndex::default();
            assign_step_scalar(&flat, &centroids, &norms, &mut index, &mut labels, &mut scores, 1);
            prop_assert_eq!(&labels, &want.0);
            prop_assert!(same_scores(&scores, &want.1));
        }
    }
}

/// The thread fan-out cuts the buffer at chunk bounds that are no multiple
/// of the block size, so blocks start elsewhere at every worker count; a
/// point's result must not depend on which block it fell into.
#[test]
fn fan_out_does_not_change_the_block_scan() {
    let mut state = 77u64;
    for dim in [2, 3, 8] {
        let (n, k) = (601, 7);
        let flat: Vec<f64> = (0..n * dim).map(|_| coordinate(&mut state, 1)).collect();
        let centroids: Vec<f64> = (0..k * dim).map(|_| coordinate(&mut state, 1)).collect();
        for workers in [1, 2, 3, 8] {
            let (want, got) = both_scans(&flat, dim, &centroids, workers);
            assert_eq!(got.0, want.0, "dim {dim}, {workers} workers");
            assert!(same_scores(&got.1, &want.1), "dim {dim}, {workers} workers");
        }
    }
}
