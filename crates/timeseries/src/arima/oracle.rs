//! The allocating CSS evaluator and forecast recursion `arima` shipped
//! before the per-fit workspace, kept verbatim as the oracle that
//! `differential` compares the production evaluator against bit for bit.
//! Test support only: nothing here is reachable from a non-test build, and
//! no option selects it.

use super::{ArimaOrder, FittedArima};
use crate::diff::{difference, integrate};
use crate::TimeSeriesError;

/// Unpacks a flat parameter vector into (φ, θ, Φ, Θ, μ) for `order`.
pub(super) fn unpack_order(
    o: ArimaOrder,
    x: &[f64],
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, f64) {
    let mut i = 0;
    let phi = x[i..i + o.p].to_vec();
    i += o.p;
    let theta = x[i..i + o.q].to_vec();
    i += o.q;
    let sphi = x[i..i + o.sp].to_vec();
    i += o.sp;
    let stheta = x[i..i + o.sq].to_vec();
    i += o.sq;
    let mu = x[i];
    (phi, theta, sphi, stheta, mu)
}

/// Expands `poly(B) * seasonal_poly(B^s)` where both polynomials have the
/// form `1 - c_1 B - c_2 B² - ...`; returns the combined lag coefficients
/// `a` such that the product is `1 - Σ a_i B^i` (index 0 unused).
pub(super) fn expand(coef: &[f64], scoef: &[f64], s: usize) -> Vec<f64> {
    // Represent polynomials with full coefficient vectors (constant term 1).
    let deg = coef.len() + scoef.len() * s;
    let mut a = vec![0.0; deg + 1];
    a[0] = 1.0;
    for (i, &c) in coef.iter().enumerate() {
        a[i + 1] = -c;
    }
    let mut b = vec![0.0; scoef.len() * s + 1];
    b[0] = 1.0;
    for (j, &c) in scoef.iter().enumerate() {
        b[(j + 1) * s] = -c;
    }
    let mut prod = vec![0.0; deg + 1];
    for (i, &ai) in a.iter().enumerate() {
        // Exact zero skip in the sparse polynomial product; small
        // coefficients must still contribute.
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if i + j <= deg {
                prod[i + j] += ai * bj;
            }
        }
    }
    // prod = 1 - Σ a_i B^i  =>  combined a_i = -prod[i].
    prod.iter().skip(1).map(|&v| -v).collect()
}

/// Expands the MA side `θ(B)Θ(B^s)` where both polynomials use the
/// `1 + Σ c_i B^i` convention; returns combined coefficients `b` such that
/// the product is `1 + Σ b_i B^i`.
pub(super) fn expand_ma(theta: &[f64], stheta: &[f64], s: usize) -> Vec<f64> {
    let neg_t: Vec<f64> = theta.iter().map(|v| -v).collect();
    let neg_st: Vec<f64> = stheta.iter().map(|v| -v).collect();
    expand(&neg_t, &neg_st, s).iter().map(|v| -v).collect()
}

/// Checks that the linear recursion `x_t = Σ coefs_i x_{t-1-i}` is stable
/// by bounding its impulse response over `horizon` steps.
///
/// Used to reject non-stationary AR fits (explosive multi-step forecasts)
/// and non-invertible MA fits (the innovation recursion `e_t = ... − Σ b_j
/// e_{t-1-j}` diverges when extended beyond the training window) — CSS is
/// happy to pick either because they can fit one-step residuals in-sample.
pub(super) fn recursion_is_stable(coefs: &[f64], horizon: usize) -> bool {
    if coefs.is_empty() {
        return true;
    }
    let span = coefs.len();
    let mut state = vec![0.0; span];
    state[span - 1] = 1.0; // unit impulse
    for _ in 0..horizon {
        let next: f64 = coefs
            .iter()
            .enumerate()
            .map(|(i, &a)| a * state[state.len() - 1 - i])
            .sum();
        if !next.is_finite() || next.abs() > 50.0 {
            return false;
        }
        state.push(next);
        state.remove(0);
    }
    true
}

/// Computes the CSS innovations of a combined ARMA recursion over the
/// mean-centered differenced series, accumulating the conditional sum of
/// squares as it goes. Returns `None` if the recursion explodes (non-finite
/// or absurdly large residuals) or the partial CSS exceeds `cap` — the
/// partial sum is a monotone lower bound on the final CSS, so any candidate
/// that crosses the cap can be abandoned without finishing the recursion.
///
/// With `cap = f64::INFINITY` the returned CSS is the plain sequential sum
/// `Σ e_t²` over `t ≥ ar.len()`, bit-identical to summing the full
/// innovation vector after the fact.
pub(super) fn innovations_capped(
    wc: &[f64],
    ar: &[f64],
    ma: &[f64],
    cap: f64,
) -> Option<(Vec<f64>, f64)> {
    let n = wc.len();
    let start = ar.len();
    let mut e = vec![0.0; n];
    let mut css = 0.0;
    for t in start..n {
        let mut pred = 0.0;
        for (i, &a) in ar.iter().enumerate() {
            pred += a * wc[t - 1 - i];
        }
        for (j, &b) in ma.iter().enumerate() {
            if t > j {
                pred += b * e[t - 1 - j];
            }
        }
        let resid = wc[t] - pred;
        if !resid.is_finite() || resid.abs() > 1e8 {
            return None;
        }
        e[t] = resid;
        css += resid * resid;
        if css > cap {
            return None;
        }
    }
    Some((e, css))
}

/// Computes the CSS innovations without a pruning cap (forecast path).
fn innovations(wc: &[f64], ar: &[f64], ma: &[f64]) -> Option<Vec<f64>> {
    innovations_capped(wc, ar, ma, f64::INFINITY).map(|(e, _)| e)
}

/// The CSS objective at `x` as `Arima::fit_differenced` evaluated it: `NaN`
/// outside the coefficient bound, outside the stable region, or when the
/// recursion explodes or crosses `cap`. The one departure from the shipped
/// code is the domain itself: the bound once covered the intercept too
/// (which made a series with |mean| > bound unfittable); like production,
/// the oracle now bounds φ, θ, Φ, Θ and asks of μ only that it is finite.
pub(super) fn css_objective(o: ArimaOrder, w: &[f64], x: &[f64], bound: f64, cap: f64) -> f64 {
    let coefs = &x[..x.len() - 1];
    if x.iter().any(|v| !v.is_finite()) || coefs.iter().any(|v| v.abs() > bound) {
        return f64::NAN;
    }
    let (phi, theta, sphi, stheta, mu) = unpack_order(o, x);
    let ar = expand(&phi, &sphi, o.s.max(1));
    let ma = expand_ma(&theta, &stheta, o.s.max(1));
    // Reject non-stationary AR and non-invertible MA parameter
    // regions; the e-recursion coefficients are the negated
    // combined MA coefficients.
    let neg_ma: Vec<f64> = ma.iter().map(|v| -v).collect();
    if !recursion_is_stable(&ar, 500) || !recursion_is_stable(&neg_ma, 500) {
        return f64::NAN;
    }
    let wc: Vec<f64> = w.iter().map(|v| v - mu).collect();
    match innovations_capped(&wc, &ar, &ma, cap) {
        Some((_, css)) => css,
        None => f64::NAN,
    }
}

/// `Arima::forecast` past its length checks, as it ran on the allocating
/// helpers.
pub(super) fn forecast(
    o: ArimaOrder,
    fitted: &FittedArima,
    history: &[f64],
    horizon: usize,
) -> Result<Vec<f64>, TimeSeriesError> {
    let (w, state) = difference(history, o.d, o.sd, o.s)?;
    let ar = expand(&fitted.phi, &fitted.sphi, o.s.max(1));
    let ma = expand_ma(&fitted.theta, &fitted.stheta, o.s.max(1));
    let mut wc: Vec<f64> = w.iter().map(|v| v - fitted.mu).collect();
    let mut e = innovations(&wc, &ar, &ma).ok_or(TimeSeriesError::FitDiverged)?;
    let n = wc.len();
    let mut out = Vec::with_capacity(horizon);
    for h in 0..horizon {
        let t = n + h;
        let mut pred = 0.0;
        for (i, &a) in ar.iter().enumerate() {
            if t > i {
                pred += a * wc[t - 1 - i];
            }
        }
        for (j, &b) in ma.iter().enumerate() {
            if t > j && t - 1 - j < n {
                pred += b * e[t - 1 - j];
            }
        }
        wc.push(pred);
        e.push(0.0);
        out.push(pred + fitted.mu);
    }
    Ok(integrate(&out, &state))
}
