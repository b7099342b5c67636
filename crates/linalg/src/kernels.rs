//! Contiguous flat-buffer compute kernels for the forecast-training hot path.
//!
//! These are the primitives the stacked-LSTM trainer (and [`Matrix::mat_mul`])
//! run on: blocked GEMM/GEMV over row-major `&[f64]` buffers, their transposed
//! and rank-1 companions for backpropagation, a fused LSTM gate update, and
//! the one gate nonlinearity that update is built on ([`sigmoid`], with
//! [`tanh`] derived from it).
//!
//! # Determinism contract
//!
//! Every kernel here accumulates into each output element in **exactly the
//! same order** as the naive scalar loop it replaces: per output, terms are
//! added one at a time in ascending reduction index, starting from the
//! output's prior value. Blocking only changes which outputs are *in flight*
//! together (register reuse of the streamed operand), never the op sequence
//! seen by any single accumulator. No FMA/`mul_add` is used. Consequently the
//! fused LSTM path built on these kernels is bit-identical to the scalar
//! reference path, and `Matrix::mat_mul` keeps its historical results.
//!
//! [`Matrix::mat_mul`]: crate::Matrix

/// Row block size: four output rows share one streamed pass over `x`/`b`.
const ROW_BLOCK: usize = 4;

/// Cody–Waite split of `ln 2` (fdlibm's): `LN2_HI` has 32 significant bits,
/// so `k·LN2_HI` is exact for every `|k| < 2^21`; `LN2_LO` is the rest.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `1.5·2^52`: adding it to a `|y| < 2^51` rounds `y` to the nearest integer
/// and leaves that integer in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// Clamp on the argument of the exponential. Down to `-708`, `2^k` stays a
/// normal number (`k ≥ -1021`) and `1 + e^t` is already `1`. Above `709.44`,
/// `k = 1024` and the scale's bits are `+∞`, so the logistic is exactly `0`,
/// as libm's is once its `exp` overflows.
const EXP_ARG_LO: f64 = -708.0;
const EXP_ARG_HI: f64 = 710.0;

/// Taylor coefficients `1/n!`, `n = 2..=13`, of `e^r` on `|r| ≤ ln2/2`
/// (truncation error below `5e-18`).
const EXP_TAYLOR: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `e^t` for `t` in `[EXP_ARG_LO, EXP_ARG_HI]` (or NaN): Cody–Waite
/// reduction `t = k·ln2 + r`, a degree-13 Estrin polynomial in `r`, and the
/// `2^k` scale assembled from bits. Straight-line, no branch, no cast.
#[inline(always)]
fn exp_reduced(t: f64) -> f64 {
    let kf = t * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = kf - ROUND_SHIFT;
    let r = (t - k * LN2_HI) - k * LN2_LO;
    // `kf`'s low mantissa bits hold `k`; the low 12 bits of `k + 1023`,
    // shifted into the exponent field, are the bits of `2^k`.
    let scale = f64::from_bits(kf.to_bits().wrapping_add(1023) << 52);
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let [c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13] = EXP_TAYLOR;
    let q0 = (1.0 + r) + (c2 + c3 * r) * r2;
    let q1 = (c4 + c5 * r) + (c6 + c7 * r) * r2;
    let q2 = (c8 + c9 * r) + (c10 + c11 * r) * r2;
    let q3 = c12 + c13 * r;
    ((q0 + q1 * r4) + (q2 + q3 * r4) * r8) * scale
}

/// Logistic sigmoid `1/(1+e^-x)`, the LSTM gate nonlinearity, computed
/// without libm so the LSTM kernel's results do not depend on the
/// platform's `exp`.
///
/// Branch-free and lane-shaped: a loop of these over a slice vectorises on
/// baseline x86-64 (SSE2).
///
/// Contract:
/// - absolute error against libm's `1/(1+exp(-x))` at most `1e-15` on every
///   finite input (measured maximum `2.2e-16` over a dense sweep of
///   `[-40, 40]` plus the range edges; the kernel's envelope test);
/// - NaN in gives NaN out;
/// - saturation: `+∞` (and every `x > 37`) gives exactly `1`, `-∞` (and
///   every `x < -709.44`) exactly `0`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    // `clamp` keeps a NaN (a `max`/`min` pair would not).
    1.0 / (1.0 + exp_reduced((-x).clamp(EXP_ARG_LO, EXP_ARG_HI)))
}

/// Hyperbolic tangent as `2·sigmoid(2x) − 1`, so the LSTM has one
/// transcendental kernel.
///
/// Contract: absolute error against libm's `tanh` at most `1e-15` on every
/// finite input (measured maximum `4.4e-16`); NaN in gives NaN out; `±∞`
/// and every `|x| > 20` give exactly `±1`. The error is absolute, not relative: near
/// zero the result carries the rounding of `2·sigmoid(2x)` around `1`, so
/// `tanh(x)` for `|x| < 1e-16` is `0`, and `-0.0` comes out as `+0.0`.
#[inline]
pub fn tanh(x: f64) -> f64 {
    2.0 * sigmoid(2.0 * x) - 1.0
}

/// Scalar dot product `Σ_i a[i]·b[i]` in ascending index order.
///
/// This is **the** scalar reference for every dot-product-shaped primitive in
/// the workspace (k-means cached-norm scores, similarity measures, LSTM gemv
/// rows): terms are added one at a time, left to right, starting from `0.0`,
/// with no FMA. The scan kernels in [`crate::simd`] cite this exact reduction
/// order in their bitwise contract.
///
/// Trailing elements of the longer slice are ignored (zip semantics), which
/// lets callers pass a strided row prefix.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Scalar squared Euclidean distance `Σ_i (a[i]−b[i])²` in ascending index
/// order.
///
/// The scalar reference for all distance computations (k-means assignment,
/// empty-cluster reseeding, Gaussian cluster selection, transmitter error
/// norms). Same left-to-right, FMA-free reduction contract as [`dot`].
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Scalar squared norm `Σ_i a[i]²` in ascending index order — [`dot`] of a
/// slice with itself, used for the cached-norm term in k-means scoring.
#[inline]
pub fn sq_norm(a: &[f64]) -> f64 {
    a.iter().map(|&x| x * x).sum()
}

/// `y += A x` for row-major `A` (`rows x cols`): `y[r] += Σ_c A[r,c]·x[c]`.
///
/// Accumulates into each `y[r]` in ascending `c` order starting from the
/// incoming value, so callers can pre-load `y` with a bias vector and get the
/// same bits as the scalar `z[r] += w·x` loop.
#[inline]
pub fn gemv_acc(y: &mut [f64], a: &[f64], rows: usize, cols: usize, x: &[f64]) {
    debug_assert_eq!(y.len(), rows);
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(x.len(), cols);
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let a0 = &a[r * cols..(r + 1) * cols];
        let a1 = &a[(r + 1) * cols..(r + 2) * cols];
        let a2 = &a[(r + 2) * cols..(r + 3) * cols];
        let a3 = &a[(r + 3) * cols..(r + 4) * cols];
        let (mut s0, mut s1, mut s2, mut s3) = (y[r], y[r + 1], y[r + 2], y[r + 3]);
        for (c, &xv) in x.iter().enumerate() {
            s0 += a0[c] * xv;
            s1 += a1[c] * xv;
            s2 += a2[c] * xv;
            s3 += a3[c] * xv;
        }
        y[r] = s0;
        y[r + 1] = s1;
        y[r + 2] = s2;
        y[r + 3] = s3;
        r += ROW_BLOCK;
    }
    for rr in r..rows {
        let row = &a[rr * cols..(rr + 1) * cols];
        let mut s = y[rr];
        for (&av, &xv) in row.iter().zip(x) {
            s += av * xv;
        }
        y[rr] = s;
    }
}

/// `y += Aᵀ x` for row-major `A` (`rows x cols`): `y[c] += Σ_r x[r]·A[r,c]`.
///
/// Terms are added in ascending `r` order per output, matching the scalar
/// backprop loop that walks gradient rows outermost (`dx[c] += dz[r]·W[r,c]`).
#[inline]
pub fn gemv_t_acc(y: &mut [f64], a: &[f64], rows: usize, cols: usize, x: &[f64]) {
    debug_assert_eq!(y.len(), cols);
    debug_assert_eq!(a.len(), rows * cols);
    debug_assert_eq!(x.len(), rows);
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let a0 = &a[r * cols..(r + 1) * cols];
        let a1 = &a[(r + 1) * cols..(r + 2) * cols];
        let a2 = &a[(r + 2) * cols..(r + 3) * cols];
        let a3 = &a[(r + 3) * cols..(r + 4) * cols];
        let (x0, x1, x2, x3) = (x[r], x[r + 1], x[r + 2], x[r + 3]);
        for (c, yv) in y.iter_mut().enumerate() {
            let mut s = *yv;
            s += x0 * a0[c];
            s += x1 * a1[c];
            s += x2 * a2[c];
            s += x3 * a3[c];
            *yv = s;
        }
        r += ROW_BLOCK;
    }
    for rr in r..rows {
        let row = &a[rr * cols..(rr + 1) * cols];
        let xv = x[rr];
        for (yv, &av) in y.iter_mut().zip(row) {
            *yv += xv * av;
        }
    }
}

/// Rank-1 update `A += x yᵀ` for row-major `A` (`x.len() x y.len()`):
/// `A[r,c] += x[r]·y[c]`. Used to accumulate weight gradients `dW += dz xᵀ`.
#[inline]
pub fn rank1_acc(a: &mut [f64], x: &[f64], y: &[f64]) {
    let cols = y.len();
    debug_assert_eq!(a.len(), x.len() * cols);
    for (row, &xv) in a.chunks_exact_mut(cols).zip(x) {
        for (av, &yv) in row.iter_mut().zip(y) {
            *av += xv * yv;
        }
    }
}

/// `C += A B` for row-major buffers: `A` is `m x k`, `B` is `k x n`, `C` is
/// `m x n`. Blocked over output rows; each `C[r,j]` accumulates in ascending
/// `k` order, so results match the classic `ikj` scalar loop bit for bit.
///
/// Exact-zero entries of `A` are skipped — a no-op on every finite
/// accumulation (an accumulator fed only by `+=` can never be `-0.0`, so
/// adding `±0.0` cannot change its bits) that pays off on the sparse-ish
/// matrices the Gaussian baselines produce.
#[inline]
pub fn gemm_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k_dim: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k_dim);
    debug_assert_eq!(b.len(), k_dim * n);
    if m == 0 || k_dim == 0 || n == 0 {
        return;
    }
    for (c_rows, a_rows) in c.chunks_mut(ROW_BLOCK * n).zip(a.chunks(ROW_BLOCK * k_dim)) {
        // lint:allow(panic-path): n == 0 takes the early return above;
        // chain gemm_acc
        let rows_here = c_rows.len() / n;
        for k in 0..k_dim {
            let b_row = &b[k * n..(k + 1) * n];
            for r in 0..rows_here {
                let av = a_rows[r * k_dim + k];
                // lint:allow(float-eq): exact zero skip in the sparse
                // inner product; near-zero values must still multiply
                if av == 0.0 {
                    continue;
                }
                let c_row = &mut c_rows[r * n..(r + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Fused LSTM gate activation and state update for one time step.
///
/// `z` holds the four pre-activation blocks `(i, f, g, o)`, each `hidden`
/// long. Writes the activated gates into `gates` (same `(i, f, g, o)` block
/// layout), the new cell state into `c_out`, its tanh into `tanh_c_out`
/// (backward reuses it instead of recomputing — same input, same function,
/// identical bits), and the new hidden state into `h_out`. Per unit `j`
/// this computes:
///
/// ```text
/// i = σ(z[j])   f = σ(z[h+j])   g = tanh(z[2h+j])   o = σ(z[3h+j])
/// c = f·c_prev[j] + i·g         h = o·tanh(c)
/// ```
///
/// with [`sigmoid`] and [`tanh`], each value by the same IEEE op sequence as
/// the scalar reference. Every gate block, then `tanh(c)`, runs in its own
/// straight loop with no per-element branch, so each loop vectorises.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn lstm_gate_fuse(
    z: &[f64],
    c_prev: &[f64],
    hidden: usize,
    gates: &mut [f64],
    c_out: &mut [f64],
    tanh_c_out: &mut [f64],
    h_out: &mut [f64],
) {
    debug_assert_eq!(z.len(), 4 * hidden);
    debug_assert_eq!(c_prev.len(), hidden);
    debug_assert_eq!(gates.len(), 4 * hidden);
    debug_assert_eq!(c_out.len(), hidden);
    debug_assert_eq!(tanh_c_out.len(), hidden);
    debug_assert_eq!(h_out.len(), hidden);
    let (z_if, z_go) = z.split_at(2 * hidden);
    let (z_g, z_o) = z_go.split_at(hidden);
    let (g_if, g_go) = gates.split_at_mut(2 * hidden);
    let (g_g, g_o) = g_go.split_at_mut(hidden);
    for (g, &v) in g_if.iter_mut().zip(z_if) {
        *g = sigmoid(v);
    }
    for (g, &v) in g_g.iter_mut().zip(z_g) {
        *g = tanh(v);
    }
    for (g, &v) in g_o.iter_mut().zip(z_o) {
        *g = sigmoid(v);
    }
    let (g_i, g_f) = g_if.split_at(hidden);
    for ((((c, &cp), &gi), &gf), &gg) in c_out.iter_mut().zip(c_prev).zip(g_i).zip(g_f).zip(&*g_g) {
        *c = gf * cp + gi * gg;
    }
    for (t, &c) in tanh_c_out.iter_mut().zip(&*c_out) {
        *t = tanh(c);
    }
    for ((h, &go), &t) in h_out.iter_mut().zip(&*g_o).zip(&*tanh_c_out) {
        *h = go * t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| normal(rng, 0.0, 1.0)).collect()
    }

    /// Scalar references: the exact loops the kernels must reproduce.
    fn gemv_ref(y: &mut [f64], a: &[f64], cols: usize, x: &[f64]) {
        for (r, yv) in y.iter_mut().enumerate() {
            for (c, &xv) in x.iter().enumerate() {
                *yv += a[r * cols + c] * xv;
            }
        }
    }

    fn gemv_t_ref(y: &mut [f64], a: &[f64], rows: usize, cols: usize, x: &[f64]) {
        for r in 0..rows {
            for (c, yv) in y.iter_mut().enumerate() {
                *yv += x[r] * a[r * cols + c];
            }
        }
    }

    fn gemm_ref(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k_dim: usize, n: usize) {
        for r in 0..m {
            for k in 0..k_dim {
                let av = a[r * k_dim + k];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[r * n + j] += av * b[k * n + j];
                }
            }
        }
    }

    #[test]
    fn gemv_bitwise_matches_scalar_all_row_remainders() {
        let mut rng = StdRng::seed_from_u64(11);
        for rows in 1..10usize {
            for cols in 1..8usize {
                let a = random_vec(&mut rng, rows * cols);
                let x = random_vec(&mut rng, cols);
                let y0 = random_vec(&mut rng, rows);
                let mut y_kernel = y0.clone();
                let mut y_ref = y0.clone();
                gemv_acc(&mut y_kernel, &a, rows, cols, &x);
                gemv_ref(&mut y_ref, &a, cols, &x);
                assert_eq!(y_kernel, y_ref, "rows={rows} cols={cols}");
            }
        }
    }

    #[test]
    fn gemv_t_bitwise_matches_scalar_all_row_remainders() {
        let mut rng = StdRng::seed_from_u64(13);
        for rows in 1..10usize {
            for cols in 1..8usize {
                let a = random_vec(&mut rng, rows * cols);
                let x = random_vec(&mut rng, rows);
                let y0 = random_vec(&mut rng, cols);
                let mut y_kernel = y0.clone();
                let mut y_ref = y0.clone();
                gemv_t_acc(&mut y_kernel, &a, rows, cols, &x);
                gemv_t_ref(&mut y_ref, &a, rows, cols, &x);
                assert_eq!(y_kernel, y_ref, "rows={rows} cols={cols}");
            }
        }
    }

    #[test]
    fn gemm_bitwise_matches_scalar_with_zeros() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k_dim, n) in &[(1, 1, 1), (3, 4, 5), (4, 4, 4), (7, 3, 6), (9, 5, 2)] {
            let mut a = random_vec(&mut rng, m * k_dim);
            // Sprinkle exact zeros to exercise the skip path.
            for (i, v) in a.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            let b = random_vec(&mut rng, k_dim * n);
            let mut c_kernel = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            gemm_acc(&mut c_kernel, &a, &b, m, k_dim, n);
            gemm_ref(&mut c_ref, &a, &b, m, k_dim, n);
            assert_eq!(c_kernel, c_ref, "m={m} k={k_dim} n={n}");
        }
    }

    #[test]
    fn rank1_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(19);
        let x = random_vec(&mut rng, 5);
        let y = random_vec(&mut rng, 3);
        let a0 = random_vec(&mut rng, 15);
        let mut a_kernel = a0.clone();
        let mut a_ref = a0;
        rank1_acc(&mut a_kernel, &x, &y);
        for r in 0..5 {
            for c in 0..3 {
                a_ref[r * 3 + c] += x[r] * y[c];
            }
        }
        assert_eq!(a_kernel, a_ref);
    }

    #[test]
    fn gate_fuse_matches_split_loops() {
        let mut rng = StdRng::seed_from_u64(23);
        let h = 5;
        let z = random_vec(&mut rng, 4 * h);
        let c_prev = random_vec(&mut rng, h);
        let mut gates = vec![0.0; 4 * h];
        let mut c_out = vec![0.0; h];
        let mut tanh_c_out = vec![0.0; h];
        let mut h_out = vec![0.0; h];
        lstm_gate_fuse(
            &z,
            &c_prev,
            h,
            &mut gates,
            &mut c_out,
            &mut tanh_c_out,
            &mut h_out,
        );
        // Reference: the scalar per-unit sequence.
        for j in 0..h {
            let gi = sigmoid(z[j]);
            let gf = sigmoid(z[h + j]);
            let gg = tanh(z[2 * h + j]);
            let go = sigmoid(z[3 * h + j]);
            assert_eq!(gates[j], gi);
            assert_eq!(gates[h + j], gf);
            assert_eq!(gates[2 * h + j], gg);
            assert_eq!(gates[3 * h + j], go);
            let c = gf * c_prev[j] + gi * gg;
            assert_eq!(c_out[j], c);
            assert_eq!(tanh_c_out[j], tanh(c));
            assert_eq!(h_out[j], go * tanh(c));
        }
    }

    /// libm references the owned activations are held to.
    fn libm_sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Largest absolute error of the owned pair against libm over `xs`.
    fn max_abs_err(xs: impl Iterator<Item = f64>) -> (f64, f64) {
        let (mut es, mut et) = (0.0f64, 0.0f64);
        for x in xs {
            es = es.max((sigmoid(x) - libm_sigmoid(x)).abs());
            et = et.max((tanh(x) - x.tanh()).abs());
        }
        (es, et)
    }

    #[test]
    fn owned_activations_stay_within_the_envelope_of_libm() {
        // Dense sweep of [-40, 40] (past it both functions are saturated to
        // the last bit), then the edges of the range reduction and of the
        // f64 range.
        let n = 1u32 << 21;
        let sweep = (0..=n).map(|i| -40.0 + 80.0 * f64::from(i) / f64::from(n));
        let (es, et) = max_abs_err(sweep);
        let tiny = f64::MIN_POSITIVE;
        let edges = [
            0.0,
            -0.0,
            5e-324,
            tiny / 2.0,
            tiny,
            1e-300,
            1e-17,
            0.5,
            354.0,
            354.5,
            707.9,
            708.0,
            708.5,
            709.0,
            709.78,
            710.0,
            745.2,
            1e4,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let (ee_s, ee_t) = max_abs_err(edges.iter().flat_map(|&x| [x, -x]));
        println!(
            "max |err| vs libm: sigmoid {es:e} (sweep), {ee_s:e} (edges); tanh {et:e}, {ee_t:e}"
        );
        for e in [es, et, ee_s, ee_t] {
            assert!(e <= 1e-15, "absolute error {e:e} above the 1e-15 envelope");
        }
        // Saturation and special values.
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY), 0.0);
        assert_eq!(tanh(f64::INFINITY), 1.0);
        assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(tanh(0.0), 0.0);
        assert!(sigmoid(f64::NAN).is_nan());
        assert!(tanh(f64::NAN).is_nan());
        assert!(sigmoid(-f64::NAN).is_nan());
        assert!(tanh(-f64::NAN).is_nan());
        // The saturated tails, where libm itself reaches 0/1 or overflows
        // `exp`.
        for x in [20.0, 25.0] {
            assert_eq!((tanh(x), tanh(-x)), (1.0, -1.0));
        }
        for x in [37.5, 709.0, 710.0, 745.0, 1e300, f64::MAX] {
            assert_eq!(sigmoid(x), 1.0);
            assert!(sigmoid(-x) < 1e-16);
            if x > 709.5 {
                assert_eq!(sigmoid(-x), 0.0);
            }
            assert_eq!(tanh(x), 1.0);
            assert_eq!(tanh(-x), -1.0);
        }
    }

    #[test]
    fn gate_fuse_propagates_nan() {
        // `Lstm::fit` reports a diverged fit by its non-finite training
        // MSE, so a NaN pre-activation must stay NaN through every gate.
        let h = 3;
        let mut z = vec![0.25; 4 * h];
        for block in 0..4 {
            z[block * h + 1] = f64::NAN;
        }
        let c_prev = vec![0.5; h];
        let (mut gates, mut c_out, mut tanh_c, mut h_out) =
            (vec![0.0; 4 * h], vec![0.0; h], vec![0.0; h], vec![0.0; h]);
        lstm_gate_fuse(
            &z,
            &c_prev,
            h,
            &mut gates,
            &mut c_out,
            &mut tanh_c,
            &mut h_out,
        );
        for block in 0..4 {
            assert!(gates[block * h + 1].is_nan(), "gate block {block}");
            assert!(gates[block * h].is_finite());
        }
        assert!(c_out[1].is_nan() && tanh_c[1].is_nan() && h_out[1].is_nan());
        assert!(h_out[0].is_finite() && h_out[2].is_finite());
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut y: Vec<f64> = vec![1.5];
        gemv_acc(&mut y, &[], 1, 0, &[]);
        assert_eq!(y, vec![1.5]);
        let mut y2: Vec<f64> = Vec::new();
        gemv_t_acc(&mut y2, &[], 0, 0, &[]);
        assert!(y2.is_empty());
        let mut c: Vec<f64> = Vec::new();
        gemm_acc(&mut c, &[], &[], 0, 0, 0);
        assert!(c.is_empty());
    }
}
