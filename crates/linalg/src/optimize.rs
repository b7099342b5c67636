//! Derivative-free numerical optimization.
//!
//! The SARIMA fitter in `utilcast-timeseries` minimizes a conditional
//! sum-of-squares objective whose gradient is awkward to derive for seasonal
//! models; the classic Nelder–Mead simplex method is the standard
//! derivative-free choice and is implemented here.

/// Configuration for [`nelder_mead`].
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations before giving up.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex's coordinate spread.
    pub x_tol: f64,
    /// Initial simplex step added to each coordinate in turn.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 2000,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a Nelder–Mead run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
    /// Whether a convergence tolerance was met (as opposed to running out of
    /// evaluations).
    pub converged: bool,
}

/// Minimizes `f` starting from `x0` with the Nelder–Mead downhill simplex.
///
/// Uses the standard reflection/expansion/contraction/shrink coefficients
/// (1, 2, 0.5, 0.5). Objective values of `NaN` are treated as `+inf`, so the
/// caller can return `f64::NAN` for out-of-domain points (e.g. non-invertible
/// MA coefficients) and the simplex will move away from them.
///
/// The `n + 1` vertices, the centroid and the two trial points are allocated
/// once; an iteration recycles them (a replaced vertex swaps buffers with
/// the trial point that replaces it) and allocates nothing.
///
/// # Example
///
/// ```
/// use utilcast_linalg::optimize::{nelder_mead, NelderMeadOptions};
///
/// // Rosenbrock function, minimum at (1, 1).
/// let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
/// let res = nelder_mead(rosen, &[-1.2, 1.0], &NelderMeadOptions { max_evals: 5000, ..Default::default() });
/// assert!((res.x[0] - 1.0).abs() < 1e-3);
/// assert!((res.x[1] - 1.0).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `x0` is empty.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: linalg::optimize::nelder_mead
pub fn nelder_mead<F>(mut f: F, x0: &[f64], opts: &NelderMeadOptions) -> OptimizeResult
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(
        !x0.is_empty(),
        "nelder_mead requires at least one dimension"
    );
    let n = x0.len();
    let mut evals = 0usize;
    let eval = |f: &mut F, x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Build the initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(&mut f, x0, &mut evals);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        // lint:allow(float-eq): exact zero test picks the absolute-step
        // branch; a relative step off an exactly zero coordinate is zero
        let step = if xi[i] == 0.0 {
            opts.initial_step
        } else {
            opts.initial_step * xi[i].abs().max(1.0)
        };
        xi[i] += step;
        let fi = eval(&mut f, &xi, &mut evals);
        simplex.push((xi, fi));
    }
    // Stable insertion sort of the vertices by objective value. A stable
    // sort under a total order has exactly one result, so this orders the
    // simplex as `sort_by(total_cmp)` does — without a scratch allocation,
    // and in linear time on the nearly sorted simplex an iteration leaves.
    let sort_by_value = |simplex: &mut [(Vec<f64>, f64)]| {
        for i in 1..simplex.len() {
            let mut j = i;
            while j > 0 && simplex[j - 1].1.total_cmp(&simplex[j].1).is_gt() {
                simplex.swap(j - 1, j);
                j -= 1;
            }
        }
    };
    let mut centroid = vec![0.0; n];
    // The reflected point, and the expansion or contraction point tried
    // after it.
    let mut xr = vec![0.0; n];
    let mut xt = vec![0.0; n];

    let mut converged = false;
    while evals < opts.max_evals {
        sort_by_value(&mut simplex);

        // Convergence checks on objective spread and coordinate spread.
        let f_best = simplex[0].1;
        let f_worst = simplex[n].1;
        let f_spread = (f_worst - f_best).abs();
        let x_spread = simplex[1..]
            .iter()
            .flat_map(|(x, _)| x.iter().zip(&simplex[0].0).map(|(a, b)| (a - b).abs()))
            .fold(0.0, f64::max);
        if f_spread < opts.f_tol && x_spread < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all points except the worst.
        centroid.fill(0.0);
        for (x, _) in &simplex[..n] {
            for (c, v) in centroid.iter_mut().zip(x) {
                *c += v / n as f64;
            }
        }

        // Reflection.
        blend_into(&mut xr, &centroid, &simplex[n].0, -1.0);
        let fr = eval(&mut f, &xr, &mut evals);
        if fr < f_best {
            // Expansion.
            blend_into(&mut xt, &centroid, &simplex[n].0, -2.0);
            let fe = eval(&mut f, &xt, &mut evals);
            if fe < fr {
                replace_vertex(&mut simplex[n], &mut xt, fe);
            } else {
                replace_vertex(&mut simplex[n], &mut xr, fr);
            }
            continue;
        }
        if fr < simplex[n - 1].1 {
            replace_vertex(&mut simplex[n], &mut xr, fr);
            continue;
        }
        // Contraction (outside if reflected point improved on the worst,
        // inside otherwise).
        if fr < f_worst {
            blend_into(&mut xt, &centroid, &xr, 0.5);
        } else {
            blend_into(&mut xt, &centroid, &simplex[n].0, 0.5);
        }
        let fc = eval(&mut f, &xt, &mut evals);
        if fc < f_worst.min(fr) {
            replace_vertex(&mut simplex[n], &mut xt, fc);
            continue;
        }
        // Shrink towards the best vertex.
        if let Some((best, rest)) = simplex.split_first_mut() {
            for entry in rest {
                for (v, u) in entry.0.iter_mut().zip(&best.0) {
                    *v = u + 0.5 * (*v - u);
                }
                entry.1 = eval(&mut f, &entry.0, &mut evals);
            }
        }
    }

    sort_by_value(&mut simplex);
    let (x, fx) = simplex.swap_remove(0);
    OptimizeResult {
        x,
        f: fx,
        evals,
        converged,
    }
}

/// Writes `a + t · (b − a)` into `out`.
fn blend_into(out: &mut [f64], a: &[f64], b: &[f64], t: f64) {
    for ((o, u), v) in out.iter_mut().zip(a).zip(b) {
        *o = u + t * (v - u);
    }
}

/// Installs the trial point as the vertex; the trial buffer takes the old
/// vertex's storage and is overwritten by the next blend.
fn replace_vertex(vertex: &mut (Vec<f64>, f64), trial: &mut Vec<f64>, value: f64) {
    std::mem::swap(&mut vertex.0, trial);
    vertex.1 = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating implementation this module shipped before the
    /// vertex/centroid buffers were recycled, kept verbatim as the oracle
    /// the rewrite is compared against bit for bit.
    fn nelder_mead_reference<F>(mut f: F, x0: &[f64], opts: &NelderMeadOptions) -> OptimizeResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(
            !x0.is_empty(),
            "nelder_mead requires at least one dimension"
        );
        let n = x0.len();
        let mut evals = 0usize;
        let eval = |f: &mut F, x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(x);
            if v.is_nan() {
                f64::INFINITY
            } else {
                v
            }
        };

        // Build the initial simplex: x0 plus a step along each axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        let f0 = eval(&mut f, x0, &mut evals);
        simplex.push((x0.to_vec(), f0));
        for i in 0..n {
            let mut xi = x0.to_vec();
            let step = if xi[i] == 0.0 {
                opts.initial_step
            } else {
                opts.initial_step * xi[i].abs().max(1.0)
            };
            xi[i] += step;
            let fi = eval(&mut f, &xi, &mut evals);
            simplex.push((xi, fi));
        }

        let mut converged = false;
        while evals < opts.max_evals {
            simplex.sort_by(|a, b| a.1.total_cmp(&b.1));

            // Convergence checks on objective spread and coordinate spread.
            let f_best = simplex[0].1;
            let f_worst = simplex[n].1;
            let f_spread = (f_worst - f_best).abs();
            let x_spread = simplex[1..]
                .iter()
                .flat_map(|(x, _)| x.iter().zip(&simplex[0].0).map(|(a, b)| (a - b).abs()))
                .fold(0.0, f64::max);
            if f_spread < opts.f_tol && x_spread < opts.x_tol {
                converged = true;
                break;
            }

            // Centroid of all points except the worst.
            let mut centroid = vec![0.0; n];
            for (x, _) in &simplex[..n] {
                for (c, v) in centroid.iter_mut().zip(x) {
                    *c += v / n as f64;
                }
            }
            let worst = simplex[n].clone();

            let blend = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
                a.iter().zip(b).map(|(u, v)| u + t * (v - u)).collect()
            };

            // Reflection.
            let xr = blend(&centroid, &worst.0, -1.0);
            let fr = eval(&mut f, &xr, &mut evals);
            if fr < simplex[0].1 {
                // Expansion.
                let xe = blend(&centroid, &worst.0, -2.0);
                let fe = eval(&mut f, &xe, &mut evals);
                simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
                continue;
            }
            if fr < simplex[n - 1].1 {
                simplex[n] = (xr, fr);
                continue;
            }
            // Contraction (outside if reflected point improved on the worst,
            // inside otherwise).
            let (xc, fc) = if fr < worst.1 {
                let xc = blend(&centroid, &xr, 0.5);
                let fc = eval(&mut f, &xc, &mut evals);
                (xc, fc)
            } else {
                let xc = blend(&centroid, &worst.0, 0.5);
                let fc = eval(&mut f, &xc, &mut evals);
                (xc, fc)
            };
            if fc < worst.1.min(fr) {
                simplex[n] = (xc, fc);
                continue;
            }
            // Shrink towards the best vertex.
            let best = simplex[0].0.clone();
            for entry in simplex.iter_mut().skip(1) {
                entry.0 = blend(&best, &entry.0, 0.5);
                entry.1 = eval(&mut f, &entry.0, &mut evals);
            }
        }

        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (x, fx) = simplex.swap_remove(0);
        OptimizeResult {
            x,
            f: fx,
            evals,
            converged,
        }
    }

    #[test]
    fn minimizes_quadratic() {
        let res = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 2.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        );
        assert!((res.x[0] - 3.0).abs() < 1e-4, "x0 = {}", res.x[0]);
        assert!((res.x[1] + 2.0).abs() < 1e-4, "x1 = {}", res.x[1]);
        assert!(res.converged);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let res = nelder_mead(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            &NelderMeadOptions {
                max_evals: 10_000,
                ..Default::default()
            },
        );
        assert!((res.x[0] - 1.0).abs() < 1e-3);
        assert!((res.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn one_dimensional_works() {
        let res = nelder_mead(
            |x| (x[0] - 7.0).powi(2),
            &[0.0],
            &NelderMeadOptions::default(),
        );
        assert!((res.x[0] - 7.0).abs() < 1e-4);
    }

    #[test]
    fn nan_regions_are_avoided() {
        // Objective is NaN for x < 0; minimum of the valid region at x = 1.
        let res = nelder_mead(
            |x| {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    (x[0] - 1.0).powi(2)
                }
            },
            &[5.0],
            &NelderMeadOptions::default(),
        );
        assert!((res.x[0] - 1.0).abs() < 1e-3);
        assert!(res.f.is_finite());
    }

    #[test]
    fn respects_eval_budget() {
        let budget = 57;
        let res = nelder_mead(
            |x| x.iter().map(|v| v * v).sum(),
            &[10.0, 10.0, 10.0],
            &NelderMeadOptions {
                max_evals: budget,
                f_tol: 0.0,
                x_tol: 0.0,
                ..Default::default()
            },
        );
        // The final iteration may overshoot by at most the simplex size.
        assert!(res.evals <= budget + 4, "used {} evals", res.evals);
        assert!(!res.converged);
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
    }

    /// Runs both implementations on one objective and requires the same
    /// evaluation sequence (every point, bit for bit) and the same result.
    fn assert_matches_reference(
        objective: impl Fn(&[f64]) -> f64,
        x0: &[f64],
        opts: &NelderMeadOptions,
    ) {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut seen = Vec::new();
        let got = nelder_mead(
            |x| {
                seen.push(bits(x));
                objective(x)
            },
            x0,
            opts,
        );
        let mut seen_ref = Vec::new();
        let want = nelder_mead_reference(
            |x| {
                seen_ref.push(bits(x));
                objective(x)
            },
            x0,
            opts,
        );
        assert_eq!(seen, seen_ref, "evaluation sequences differ");
        assert_eq!(bits(&got.x), bits(&want.x));
        assert_eq!(got.f.to_bits(), want.f.to_bits());
        assert_eq!(got.evals, want.evals);
        assert_eq!(got.converged, want.converged);
    }

    #[test]
    fn matches_reference_implementation_bitwise() {
        let quadratic = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 2.0).powi(2);
        assert_matches_reference(quadratic, &[0.0, 0.0], &NelderMeadOptions::default());
        for max_evals in [3, 57, 600, 10_000] {
            let opts = NelderMeadOptions {
                max_evals,
                ..Default::default()
            };
            assert_matches_reference(rosenbrock, &[-1.2, 1.0], &opts);
        }
        // Shrink steps, ties between vertices and a NaN region: a flat
        // plateau around a narrow well, out of domain below zero.
        let plateau = |x: &[f64]| {
            if x.iter().any(|v| *v < 0.0) {
                return f64::NAN;
            }
            let d: f64 = x.iter().map(|v| (v - 1.0).abs()).sum();
            if d < 0.25 {
                d
            } else {
                1.0
            }
        };
        for step in [0.05, 0.4, 1.5] {
            let opts = NelderMeadOptions {
                max_evals: 400,
                initial_step: step,
                ..Default::default()
            };
            assert_matches_reference(plateau, &[1.1, 0.9, 1.2, 0.0, 1.0], &opts);
        }
        assert_matches_reference(
            |x| (x[0] - 7.0).powi(2),
            &[0.0],
            &NelderMeadOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_start_panics() {
        let _ = nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default());
    }
}
