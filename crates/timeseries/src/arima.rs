//! Seasonal ARIMA fitted by conditional sum of squares (CSS).
//!
//! Implements the model family the paper grid-searches in Sec. VI-A3:
//! ARIMA(p,d,q)(P,D,Q)ₛ with orders `p ∈ [0,5]`, `d ∈ [0,2]`, `q ∈ [0,5]`,
//! `P ∈ [0,2]`, `D ∈ [0,1]`, `Q ∈ [0,2]`, selected by the corrected Akaike
//! information criterion (AICc).
//!
//! The estimator minimizes the conditional sum of squares of the one-step
//! innovations with Nelder–Mead — the standard approximation to maximum
//! likelihood for ARMA models. Seasonal and non-seasonal polynomials are
//! expanded into a single combined AR/MA recursion, so forecasting is one
//! linear recurrence regardless of the seasonal structure.

use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};
use utilcast_linalg::optimize::{nelder_mead, NelderMeadOptions};
use utilcast_linalg::stats::mean;

use crate::diff::{difference, integrate, loss};
use crate::error::require_finite;
use crate::{Forecaster, TimeSeriesError};

/// The orders of a seasonal ARIMA model.
///
/// Orders are totally ordered (lexicographic over the fields) so they can
/// key the sorted warm-start table kept across retrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArimaOrder {
    /// Non-seasonal autoregressive order.
    pub p: usize,
    /// Non-seasonal differencing order.
    pub d: usize,
    /// Non-seasonal moving-average order.
    pub q: usize,
    /// Seasonal autoregressive order.
    pub sp: usize,
    /// Seasonal differencing order.
    pub sd: usize,
    /// Seasonal moving-average order.
    pub sq: usize,
    /// Seasonal period (ignored when all seasonal orders are zero).
    pub s: usize,
}

impl ArimaOrder {
    /// Writes the order into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        for v in [self.p, self.d, self.q, self.sp, self.sd, self.sq, self.s] {
            out.usize(v);
        }
    }

    /// Reads an order written by [`ArimaOrder::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(ArimaOrder {
            p: input.usize()?,
            d: input.usize()?,
            q: input.usize()?,
            sp: input.usize()?,
            sd: input.usize()?,
            sq: input.usize()?,
            s: input.usize()?,
        })
    }

    /// Creates a non-seasonal ARIMA(p,d,q) order.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        ArimaOrder {
            p,
            d,
            q,
            sp: 0,
            sd: 0,
            sq: 0,
            s: 0,
        }
    }

    /// Creates a full seasonal order ARIMA(p,d,q)(P,D,Q)ₛ.
    pub fn seasonal(
        p: usize,
        d: usize,
        q: usize,
        sp: usize,
        sd: usize,
        sq: usize,
        s: usize,
    ) -> Self {
        ArimaOrder {
            p,
            d,
            q,
            sp,
            sd,
            sq,
            s,
        }
    }

    /// Number of coefficients estimated by the optimizer (AR + MA + seasonal
    /// AR + seasonal MA + mean).
    pub fn num_coefficients(&self) -> usize {
        self.p + self.q + self.sp + self.sq + 1
    }

    /// Maximum AR-side lag of the combined recursion.
    fn ar_span(&self) -> usize {
        self.p + self.sp * self.s
    }

    /// Maximum MA-side lag of the combined recursion.
    pub fn ma_span(&self) -> usize {
        self.q + self.sq * self.s
    }

    /// Maximum AR-side lag of the combined recursion (public counterpart of
    /// the internal span used to size the innovation recursion).
    pub fn combined_ar_span(&self) -> usize {
        self.ar_span()
    }

    /// Minimum series length required to fit this order: differencing loss
    /// plus the AR span plus a few innovations to score.
    pub fn min_series_len(&self) -> usize {
        loss(self.d, self.sd, self.s) + self.ar_span() + self.num_coefficients().max(4) + 2
    }
}

impl Default for ArimaOrder {
    fn default() -> Self {
        ArimaOrder::new(1, 0, 0)
    }
}

/// Fitted SARIMA coefficients (after polynomial expansion the model is a
/// plain ARMA recursion on the differenced, mean-centered series).
#[derive(Debug, Clone, PartialEq)]
pub struct FittedArima {
    /// Non-seasonal AR coefficients φ.
    pub phi: Vec<f64>,
    /// Non-seasonal MA coefficients θ.
    pub theta: Vec<f64>,
    /// Seasonal AR coefficients Φ.
    pub sphi: Vec<f64>,
    /// Seasonal MA coefficients Θ.
    pub stheta: Vec<f64>,
    /// Mean of the differenced series.
    pub mu: f64,
    /// Innovation variance estimate (CSS / effective n).
    pub sigma2: f64,
    /// Conditional sum of squares at the optimum.
    pub css: f64,
    /// Corrected Akaike information criterion.
    pub aicc: f64,
}

impl FittedArima {
    /// Writes the coefficients into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        for column in [&self.phi, &self.theta, &self.sphi, &self.stheta] {
            out.f64s(column);
        }
        for v in [self.mu, self.sigma2, self.css, self.aicc] {
            out.f64(v);
        }
    }

    /// Reads coefficients written by [`FittedArima::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(FittedArima {
            phi: input.f64s()?,
            theta: input.f64s()?,
            sphi: input.f64s()?,
            stheta: input.f64s()?,
            mu: input.f64()?,
            sigma2: input.f64()?,
            css: input.f64()?,
            aicc: input.f64()?,
        })
    }

    /// The coefficients as the optimizer's flat vector `(φ, θ, Φ, Θ, μ)` —
    /// the warm hint a later fit of the same order starts from.
    fn params(&self) -> Vec<f64> {
        let coefs = [&self.phi, &self.theta, &self.sphi, &self.stheta];
        let mut x = coefs.into_iter().flatten().copied().collect::<Vec<f64>>();
        x.push(self.mu);
        x
    }
}

/// Configuration for the CSS optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaFitOptions {
    /// Maximum objective evaluations for Nelder–Mead.
    pub max_evals: usize,
    /// Magnitude of an AR/MA coefficient (φ, θ, Φ, Θ) above which the
    /// objective is treated as out-of-domain (keeps the simplex inside a
    /// sane region). The intercept μ is not bounded: it lives on the scale
    /// of the series and must merely be finite.
    pub coef_bound: f64,
    /// Maximum objective evaluations when the optimizer is warm-started
    /// from a previous retrain's solution — [`Forecaster::refit`] on an
    /// [`Arima`], every order of an [`AutoArima`] grid after its first fit
    /// (`0` = use `max_evals`). Warm starts begin near the optimum, so a
    /// much smaller budget suffices; divergence falls back to a full cold
    /// start.
    pub warm_max_evals: usize,
    /// Grid-search pruning margin: an order is skipped without running the
    /// optimizer when the CSS of its warm hint (which sits near the
    /// order's optimum) exceeds `margin ×` the CSS the order would need to
    /// beat the incumbent AICc — the partial CSS sum aborts as soon as it
    /// crosses the cap. Only orders with a warm hint are screened; `0.0`
    /// disables pruning and makes the grid search bit-identical to fitting
    /// every order in full.
    pub prune_margin: f64,
}

impl Default for ArimaFitOptions {
    fn default() -> Self {
        ArimaFitOptions {
            max_evals: 600,
            coef_bound: 5.0,
            warm_max_evals: 80,
            prune_margin: 8.0,
        }
    }
}

impl ArimaFitOptions {
    /// Writes the options into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.usize(self.max_evals);
        out.f64(self.coef_bound);
        out.usize(self.warm_max_evals);
        out.f64(self.prune_margin);
    }

    /// Reads options written by [`ArimaFitOptions::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(ArimaFitOptions {
            max_evals: input.usize()?,
            coef_bound: input.f64()?,
            warm_max_evals: input.usize()?,
            prune_margin: input.f64()?,
        })
    }

    /// The seed-exact configuration: full evaluation budget for warm fits
    /// and no grid pruning. `auto_arima` under these options reproduces the
    /// original exhaustive search bit for bit.
    pub fn baseline() -> Self {
        ArimaFitOptions {
            warm_max_evals: 0,
            prune_margin: 0.0,
            ..ArimaFitOptions::default()
        }
    }
}

/// A seasonal ARIMA forecaster.
///
/// # Example
///
/// ```
/// use utilcast_timeseries::arima::{Arima, ArimaOrder};
/// use utilcast_timeseries::Forecaster;
///
/// // AR(1)-ish series.
/// let mut series = vec![0.0f64];
/// for t in 1..200 {
///     series.push(0.8 * series[t - 1] + ((t * 37 % 17) as f64 - 8.0) * 0.01);
/// }
/// let mut model = Arima::new(ArimaOrder::new(1, 0, 0));
/// model.fit(&series)?;
/// let fc = model.forecast(&series, 3)?;
/// assert_eq!(fc.len(), 3);
/// # Ok::<(), utilcast_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Arima {
    order: ArimaOrder,
    options: ArimaFitOptions,
    fitted: Option<FittedArima>,
}

impl Arima {
    /// Writes the model into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        self.order.encode_into(out);
        self.options.encode_into(out);
        out.option(self.fitted.as_ref(), |out, f| f.encode_into(out));
    }

    /// Reads a model written by [`Arima::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(Arima {
            order: ArimaOrder::decode(input)?,
            options: ArimaFitOptions::decode(input)?,
            fitted: input.option(FittedArima::decode)?,
        })
    }

    /// Creates an unfitted model of the given order with default fit
    /// options.
    pub fn new(order: ArimaOrder) -> Self {
        Arima {
            order,
            options: ArimaFitOptions::default(),
            fitted: None,
        }
    }

    /// Creates an unfitted model with explicit fit options.
    pub fn with_options(order: ArimaOrder, options: ArimaFitOptions) -> Self {
        Arima {
            order,
            options,
            fitted: None,
        }
    }

    /// The model order.
    pub fn order(&self) -> ArimaOrder {
        self.order
    }

    /// The fitted coefficients, if the model has been fitted.
    pub fn fitted(&self) -> Option<&FittedArima> {
        self.fitted.as_ref()
    }

    /// AICc of the fitted model, if fitted.
    pub fn aicc(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.aicc)
    }

    /// Checks and differences `history`, then fits on it: cold, or warm
    /// from `hint` (see [`Arima::fit_differenced`]). Never pruned.
    fn fit_history(
        &mut self,
        history: &[f64],
        hint: Option<&[f64]>,
    ) -> Result<(), TimeSeriesError> {
        let o = self.order;
        if history.len() < o.min_series_len() {
            return Err(TimeSeriesError::TooShort {
                needed: o.min_series_len(),
                got: history.len(),
            });
        }
        require_finite(history)?;
        let (w, _state) = difference(history, o.d, o.sd, o.s)?;
        let w_mean = mean(&w);
        self.fit_differenced(&w, w_mean, hint, f64::INFINITY)
    }

    /// Fits on an already-differenced series (the grid search differences
    /// once per `(d, D)` pair and shares the result across orders).
    ///
    /// `warm_x0` seeds the optimizer from a previous retrain's solution
    /// with a reduced evaluation budget and a tighter initial simplex; if
    /// the warm attempt diverges (or the hint is malformed) the fit falls
    /// back to the cold start, which is bit-identical to a fit that never
    /// saw the hint.
    ///
    /// `css_cap` prunes at the *order* level: a valid warm hint sits near
    /// the order's optimum, so when even the hint's CSS cannot come under
    /// the cap the whole order is hopeless and the fit returns
    /// [`TimeSeriesError::FitDiverged`] without running the optimizer at
    /// all. The optimizer itself always evaluates the objective uncapped —
    /// capping mid-search poisons the simplex with non-finite values and
    /// stalls Nelder–Mead's convergence test. `f64::INFINITY` disables the
    /// screen.
    fn fit_differenced(
        &mut self,
        w: &[f64],
        w_mean: f64,
        warm_x0: Option<&[f64]>,
        css_cap: f64,
    ) -> Result<(), TimeSeriesError> {
        let bound = self.options.coef_bound;
        let mut ws = CssWorkspace::new(self.order, w.len());
        self.fit_with_objective(w.len(), w_mean, warm_x0, css_cap, |x, cap| {
            ws.objective(w, x, bound, cap)
        })
    }

    /// The fit driver behind [`Arima::fit_differenced`], over any evaluator
    /// `(x, cap) -> css` of the CSS objective (`NaN` = out of domain). The
    /// seam lets the differential tests drive the same warm/cold logic with
    /// the allocating reference evaluator.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // timeseries::arima::auto_arima_warm ->
    // timeseries::arima::Arima::fit_differenced ->
    // timeseries::arima::Arima::fit_with_objective
    fn fit_with_objective(
        &mut self,
        w_len: usize,
        w_mean: f64,
        warm_x0: Option<&[f64]>,
        css_cap: f64,
        mut css_eval: impl FnMut(&[f64], f64) -> f64,
    ) -> Result<(), TimeSeriesError> {
        let o = self.order;
        let n_params = o.num_coefficients();
        let bound = self.options.coef_bound;

        let result = 'fit: {
            if let Some(hint) = warm_x0 {
                if hint.len() == n_params && in_domain(hint, bound) {
                    if css_cap.is_finite() && !css_eval(hint, css_cap).is_finite() {
                        return Err(TimeSeriesError::FitDiverged);
                    }
                    let warm_evals = if self.options.warm_max_evals == 0 {
                        self.options.max_evals
                    } else {
                        self.options.warm_max_evals
                    };
                    let warm = nelder_mead(
                        |x: &[f64]| css_eval(x, f64::INFINITY),
                        hint,
                        &NelderMeadOptions {
                            max_evals: warm_evals,
                            initial_step: 0.05,
                            ..Default::default()
                        },
                    );
                    if warm.f.is_finite() {
                        break 'fit warm;
                    }
                }
            }
            let mut x0 = vec![0.0; n_params];
            x0[n_params - 1] = w_mean;
            nelder_mead(
                |x: &[f64]| css_eval(x, f64::INFINITY),
                &x0,
                &NelderMeadOptions {
                    max_evals: self.options.max_evals,
                    initial_step: 0.1,
                    ..Default::default()
                },
            )
        };
        if !result.f.is_finite() {
            return Err(TimeSeriesError::FitDiverged);
        }
        let (phi, theta, sphi, stheta, mu) = split_params(o, &result.x);
        let ar_span = o.ar_span();
        let n_eff = (w_len - ar_span).max(1);
        let css = result.f;
        let sigma2 = (css / n_eff as f64).max(1e-300);
        // k counts all estimated parameters including the innovation
        // variance, matching the AICc convention the paper cites.
        let k = (n_params + 1) as f64;
        let n = n_eff as f64;
        let correction = if n - k - 1.0 > 0.0 {
            2.0 * k * (k + 1.0) / (n - k - 1.0)
        } else {
            f64::INFINITY
        };
        let aicc = n * sigma2.ln() + 2.0 * k + correction;
        self.fitted = Some(FittedArima {
            phi: phi.to_vec(),
            theta: theta.to_vec(),
            sphi: sphi.to_vec(),
            stheta: stheta.to_vec(),
            mu,
            sigma2,
            css,
            aicc,
        });
        Ok(())
    }
}

/// Whether the flat parameter vector `x = (φ, θ, Φ, Θ, μ)` lies in the
/// optimizer's domain: every AR/MA coefficient finite and within `bound`,
/// the intercept finite. The bound exists to keep the simplex near the
/// stable region, where coefficients are of order one; μ sits wherever the
/// series does (a percent-scale trace has μ ≈ 50), so bounding it would put
/// the whole start simplex out of domain.
fn in_domain(x: &[f64], bound: f64) -> bool {
    x.split_last().is_some_and(|(mu, coefs)| {
        mu.is_finite() && coefs.iter().all(|v| v.is_finite() && v.abs() <= bound)
    })
}

/// Splits a flat parameter vector into (φ, θ, Φ, Θ, μ) for `order`.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: timeseries::arima::auto_arima_warm ->
// timeseries::arima::Arima::fit_differenced ->
// timeseries::arima::split_params
fn split_params(o: ArimaOrder, x: &[f64]) -> (&[f64], &[f64], &[f64], &[f64], f64) {
    let (phi, rest) = x.split_at(o.p);
    let (theta, rest) = rest.split_at(o.q);
    let (sphi, rest) = rest.split_at(o.sp);
    let (stheta, rest) = rest.split_at(o.sq);
    (phi, theta, sphi, stheta, rest[0])
}

// The stability-screen contract.
//
// CSS scores one-step residuals inside the training window only, so it is
// happy to pick a non-stationary AR polynomial (multi-step forecasts then
// explode) or a non-invertible MA polynomial (the innovation recursion
// `e_t = … − Σ b_j e_{t−1−j}` diverges once extended past the window).
// Both are rejected before the objective is scored, by following the
// impulse response of the linear recursion `x_t = Σ c_i x_{t−1−i}` from a
// unit impulse: the AR screen runs it on the combined AR coefficients, the
// MA screen on the negated combined MA coefficients. A candidate passes
// when all of the first `SCREEN_STEPS` responses are finite and at most
// `SCREEN_LIMIT` in magnitude — for a single lag that is `|c|` up to about
// `SCREEN_LIMIT^(1/SCREEN_STEPS)` ≈ 1.0079, a unit root with a little
// slack. The accept/reject decision is part of the fitted model (it shapes
// the region Nelder–Mead searches), so it is pinned at its boundary by
// `stability_screen_boundary_is_pinned`.
//
// The stability certificate. A recursion of lag span ≤ 2 — every order of
// the quick grid — is first offered to `certified_stable`, an O(1) bound
// that proves the loop above passes without running it; whatever the
// bound does not settle runs the loop. With ρ₁ ≥ ρ₂ upper bounds on the
// root moduli of z² − c₁z − c₂, the exact response h_t = Σₖ r₁ᵏ r₂ᵗ⁻ᵏ
// (h₀ = 1) obeys |h_t| ≤ ρ₁ᵗ · min(t + 1, F) with F = min(1/(1 − ρ₂/ρ₁),
// ρ₁/√|Δ|) — the geometric sum, and |r₁ᵗ⁺¹ − r₂ᵗ⁺¹| / |r₁ − r₂| with
// |r₁ − r₂| = 2√|Δ|, Δ = c₁²/4 + c₂. So over the `SCREEN_STEPS` steps
// H = max |h_t| ≤ B with
//   B = min(max(1, 1/(e·ρ₁(1 − ρ₁))), F)                    when ρ₁ < 1
//       (sup over t of ρᵗ(t + 1) is 1/(eρ·(−ln ρ)) ≤ 1/(eρ(1 − ρ)), or 1),
//   B = ρ₁^SCREEN_STEPS · min(SCREEN_STEPS + 1, F)           otherwise.
// Round-off: each loop step is fl(fl(c₁ĥ) + fl(c₂ĥ)), so the computed
// response is ĥ = h + h ∗ η with |η_t| ≤ γ₂(|c₁||ĥ_{t−1}| + |c₂||ĥ_{t−2}|)
// (plus 2⁻¹⁰⁷⁴ per product for underflow). Every factor of B is ≥ 1, so a
// certified lane has ρ₁^SCREEN_STEPS ≤ 50, i.e. ρ₁ < 1.01, hence
// |c₁| + |c₂| ≤ 2ρ₁ + ρ₁² < 3.1, and induction over the steps gives
// |ĥ_t| ≤ H·(1 + 2·10⁻¹¹). The bound's own arithmetic is made one-sided
// (an absolute slack on the discriminant, relative factors on the rest),
// so B·(1 + `CERTIFICATE_MARGIN`) ≤ `SCREEN_LIMIT` proves every step of
// the floating-point loop finite and within the limit: the decision is
// the loop's, only cheaper. The certificate uses `+ − × ÷ √` only, no libm.
//
// Inside the scored window a residual that is non-finite or larger than
// `RESIDUAL_LIMIT` in magnitude abandons the candidate: the series fitted
// here are utilizations in [0, 1], and a residual of that size has left any
// model worth scoring.

/// Impulse-response steps each stability screen follows.
const SCREEN_STEPS: usize = 500;
/// Largest impulse-response magnitude a stable recursion may show.
const SCREEN_LIMIT: f64 = 50.0;
/// Largest CSS residual magnitude before the recursion counts as exploded.
const RESIDUAL_LIMIT: f64 = 1e8;
/// Widest lag span the register-window screen handles; wider (seasonal)
/// spans take the buffered screen.
const SCREEN_WINDOW: usize = 8;
/// Relative headroom a certified bound keeps below [`SCREEN_LIMIT`]: it
/// covers the loop's round-off (≤ 2·10⁻¹¹) and the bound's own.
const CERTIFICATE_MARGIN: f64 = 1e-6;

/// Scratch for evaluating the CSS objective of one order on one series:
/// the expanded polynomials, the innovations and the wide-span screen
/// buffers. Built once per fit (or forecast), after which an evaluation
/// allocates nothing and performs the floating-point operations of the
/// allocating evaluator it replaced, in the same order (the `oracle`
/// test module keeps that evaluator; `differential` compares the two bit
/// for bit).
struct CssWorkspace {
    order: ArimaOrder,
    /// Seasonal factor and product of the polynomial multiplication.
    seasonal: Vec<f64>,
    product: Vec<f64>,
    /// Combined AR lag coefficients `a`: φ(B)Φ(Bˢ) = 1 − Σ aᵢ Bⁱ.
    ar: Vec<f64>,
    /// Combined MA lag coefficients `b`: θ(B)Θ(Bˢ) = 1 + Σ bᵢ Bⁱ.
    ma: Vec<f64>,
    /// `−b`, the coefficients of the innovation recursion the MA screen
    /// follows.
    neg_ma: Vec<f64>,
    /// Innovations `e[t]`. The first `ar.len()` entries are never written
    /// and stay zero; every later entry is written before it is read, so
    /// nothing of an earlier evaluation survives into the next.
    e: Vec<f64>,
    /// Impulse responses of the AR and MA screens when a span exceeds
    /// [`SCREEN_WINDOW`]; unallocated otherwise.
    impulse: [Vec<f64>; 2],
}

impl CssWorkspace {
    /// Scratch for `order` on a differenced series of `n` points.
    fn new(order: ArimaOrder, n: usize) -> Self {
        // Sized as the expansion sizes them (`s = 0` multiplies as `s = 1`).
        let s = order.s.max(1);
        let (ar_span, ma_span) = (order.p + order.sp * s, order.q + order.sq * s);
        let buffered = ar_span.max(ma_span) > SCREEN_WINDOW;
        let impulse_len = |span: usize| if buffered { span + SCREEN_STEPS } else { 0 };
        CssWorkspace {
            order,
            seasonal: Vec::with_capacity(order.sp.max(order.sq) * s + 1),
            product: Vec::with_capacity(ar_span.max(ma_span) + 1),
            ar: vec![0.0; ar_span],
            ma: vec![0.0; ma_span],
            neg_ma: vec![0.0; ma_span],
            e: vec![0.0; n],
            impulse: [
                Vec::with_capacity(impulse_len(ar_span)),
                Vec::with_capacity(impulse_len(ma_span)),
            ],
        }
    }

    /// Scratch holding the expanded polynomials of a fitted model.
    fn for_model(order: ArimaOrder, fitted: &FittedArima, n: usize) -> Self {
        let mut ws = CssWorkspace::new(order, n);
        ws.load(&fitted.phi, &fitted.theta, &fitted.sphi, &fitted.stheta);
        ws
    }

    /// Expands the seasonal and non-seasonal polynomials of a candidate
    /// into the combined `ar`, `ma` and `neg_ma` lag coefficients.
    fn load(&mut self, phi: &[f64], theta: &[f64], sphi: &[f64], stheta: &[f64]) {
        let s = self.order.s.max(1);
        // AR side, `1 − Σ c B` convention: the factors carry −φ and −Φ,
        // and the combined coefficient is the negated product term.
        lag_product(phi, sphi, s, true, &mut self.seasonal, &mut self.product);
        for (a, &v) in self.ar.iter_mut().zip(self.product.iter().skip(1)) {
            *a = -v;
        }
        // MA side, `1 + Σ c B` convention: factors and product as they are.
        lag_product(
            theta,
            stheta,
            s,
            false,
            &mut self.seasonal,
            &mut self.product,
        );
        for ((b, nb), &v) in self
            .ma
            .iter_mut()
            .zip(self.neg_ma.iter_mut())
            .zip(self.product.iter().skip(1))
        {
            *b = v;
            *nb = -v;
        }
    }

    /// Whether the loaded candidate passes both stability screens (see the
    /// contract above): by certificate when both recursions have one, by
    /// the impulse-response loop otherwise. A debug build runs the loop on
    /// certified candidates too and asserts that it agrees.
    fn screens_pass(&mut self) -> bool {
        if certified_stable(&self.ar) && certified_stable(&self.neg_ma) {
            debug_assert!(
                self.screens_loop(),
                "certified candidate fails the loop: ar {:?}, -ma {:?}",
                self.ar,
                self.neg_ma
            );
            return true;
        }
        self.screens_loop()
    }

    /// Both stability screens by the impulse-response loop alone. The two
    /// responses are independent, so they advance together in one loop:
    /// two dependency chains in flight instead of one after the other.
    fn screens_loop(&mut self) -> bool {
        let (ar, neg_ma) = (self.ar.as_slice(), self.neg_ma.as_slice());
        match ar.len().max(neg_ma.len()) {
            0 => true,
            1 => screen_windows::<1>(ar, neg_ma),
            2 => screen_windows::<2>(ar, neg_ma),
            3 => screen_windows::<3>(ar, neg_ma),
            4 => screen_windows::<4>(ar, neg_ma),
            5 => screen_windows::<5>(ar, neg_ma),
            6 => screen_windows::<6>(ar, neg_ma),
            7 => screen_windows::<7>(ar, neg_ma),
            8 => screen_windows::<8>(ar, neg_ma),
            _ => screen_buffered(ar, neg_ma, &mut self.impulse),
        }
    }

    /// Runs the CSS recursion of the loaded candidate over the differenced
    /// series `w` centred on `mu`, leaving the innovations in `self.e`, and
    /// returns the conditional sum of squares. Returns `None` if the
    /// recursion explodes (a residual that is non-finite or beyond
    /// [`RESIDUAL_LIMIT`]) or the partial CSS exceeds `cap` — the partial
    /// sum is a monotone lower bound on the final CSS, so any candidate
    /// that crosses the cap can be abandoned without finishing.
    ///
    /// With `cap = f64::INFINITY` the returned CSS is the plain sequential
    /// sum `Σ e_t²` over `t ≥ ar.len()`.
    fn css(&mut self, w: &[f64], mu: f64, cap: f64) -> Option<f64> {
        let (ar, ma, e) = (self.ar.as_slice(), self.ma.as_slice(), &mut self.e);
        debug_assert_eq!(e.len(), w.len());
        let start = ar.len();
        let mut css = 0.0;
        for t in start..w.len() {
            let mut pred = 0.0;
            // a_i pairs with the centred w[t-1-i], b_j with e[t-1-j].
            for (&a, &v) in ar.iter().zip(w[t - start..t].iter().rev()) {
                pred += a * (v - mu);
            }
            let lags = ma.len().min(t);
            for (&b, &v) in ma.iter().zip(e[t - lags..t].iter().rev()) {
                pred += b * v;
            }
            let resid = (w[t] - mu) - pred;
            if !resid.is_finite() || resid.abs() > RESIDUAL_LIMIT {
                return None;
            }
            e[t] = resid;
            css += resid * resid;
            if css > cap {
                return None;
            }
        }
        Some(css)
    }

    /// The CSS objective at the flat parameter vector `x`: `NaN` outside
    /// the domain (see [`in_domain`]), outside the stable region, or when
    /// the recursion explodes or crosses `cap`.
    fn objective(&mut self, w: &[f64], x: &[f64], bound: f64, cap: f64) -> f64 {
        if !in_domain(x, bound) {
            return f64::NAN;
        }
        let (phi, theta, sphi, stheta, mu) = split_params(self.order, x);
        self.load(phi, theta, sphi, stheta);
        // Reject non-stationary AR and non-invertible MA parameter regions.
        if !self.screens_pass() {
            return f64::NAN;
        }
        self.css(w, mu, cap).unwrap_or(f64::NAN)
    }
}

/// Multiplies `(1 ± Σ cᵢ Bⁱ)(1 ± Σ Cⱼ Bʲˢ)` — minus signs when `negate`,
/// the AR convention; plus signs otherwise, the MA convention — into
/// `product`, index = lag, constant term included.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain:
// timeseries::arima::Arima::forecast_with_interval ->
// timeseries::arima::CssWorkspace::load -> timeseries::arima::lag_product
fn lag_product(
    coef: &[f64],
    scoef: &[f64],
    s: usize,
    negate: bool,
    seasonal: &mut Vec<f64>,
    product: &mut Vec<f64>,
) {
    let signed = |c: f64| if negate { -c } else { c };
    seasonal.clear();
    seasonal.resize(scoef.len() * s + 1, 0.0);
    seasonal[0] = 1.0;
    for (j, &c) in scoef.iter().enumerate() {
        seasonal[(j + 1) * s] = signed(c);
    }
    product.clear();
    product.resize(coef.len() + scoef.len() * s + 1, 0.0);
    let factor = std::iter::once(1.0).chain(coef.iter().map(|&c| signed(c)));
    for (i, ai) in factor.enumerate() {
        // lint:allow(float-eq): exact zero skip in the sparse polynomial
        // product; small coefficients must still contribute
        if ai == 0.0 {
            continue;
        }
        for (slot, &bj) in product[i..].iter_mut().zip(seasonal.iter()) {
            *slot += ai * bj;
        }
    }
}

/// Whether the stability certificate (see the contract above) proves that
/// the impulse-response loop passes the recursion `x_t = Σ cᵢ x_{t−1−i}`.
/// `false` means "not settled", not "unstable": spans beyond 2, a
/// coefficient too large for any certified root (`|c₁| ≤ 2ρ₁`,
/// `|c₂| ≤ ρ₁²`, so beyond 2.5 or 1.5 the root exceeds 1.2), a non-finite
/// or a nonzero sub-`1e-100` coefficient (where underflow would cost the
/// bound its relative error terms) all go to the loop.
fn certified_stable(coefs: &[f64]) -> bool {
    // Relative factors that turn a value computed with a handful of
    // roundings (each ≤ 2⁻⁵³) into an upper or a lower bound.
    const UP: f64 = 1.0 + 1e-12;
    const DOWN: f64 = 1.0 - 1e-12;
    /// A lower bound on e (the constant is e to within half an ulp).
    const E_LOW: f64 = std::f64::consts::E * DOWN;
    let (c1, c2) = match *coefs {
        [] => return true,
        [c1] => (c1, 0.0),
        [c1, c2] => (c1, c2),
        _ => return false,
    };
    let tiny = |c: f64| c.abs() > 0.0 && c.abs() < 1e-100;
    if !(c1.abs() <= 2.5 && c2.abs() <= 1.5) || tiny(c1) || tiny(c2) {
        return false;
    }
    if c1.abs() + c2.abs() <= 0.0 {
        return true; // x_t = 0 after the impulse
    }
    // ρ₁ = max(a + √max(0, a² + c₂), √max(0, −c₂)) with a = |c₁|/2 is the
    // larger root modulus in both the real and the complex case, and grows
    // with the quarter discriminant a² + c₂. That is computed with an error
    // below 3·2⁻⁵³(a² + |c₂|); `slack` is three times as much, so the
    // discriminant moved by it brackets the exact one, roundings included.
    let a = 0.5 * c1.abs();
    let disc = a * a + c2;
    let slack = 1e-15 * (a * a + c2.abs());
    let rho_max = |disc: f64| (a + disc.max(0.0).sqrt()).max((-c2).max(0.0).sqrt());
    let rho1 = rho_max(disc + slack) * UP;
    let rho1_low = rho_max(disc - slack) * DOWN;
    // ρ₂ = |c₂|/ρ₁ ≤ |c₂|/ρ₁_low; the ratio q = ρ₂/ρ₁ is capped at 1
    // because the true ρ₂ ≤ ρ₁.
    let q = c2.abs() / (rho1_low * rho1) * UP;
    let geometric = if q < 1.0 {
        1.0 / (1.0 - q) * UP
    } else {
        f64::INFINITY
    };
    // h_t = (r₁ᵗ⁺¹ − r₂ᵗ⁺¹)/(r₁ − r₂) with |r₁ − r₂| = 2√|Δ|, Δ the quarter
    // discriminant: |h_t| ≤ ρ₁ᵗ · ρ₁/√|Δ|, the bound that settles complex
    // pairs at a wide angle. `disc_low` is a lower bound on |Δ|.
    let disc_low = disc.abs() - 2.0 * slack;
    let separated = if disc_low > 0.0 {
        rho1 / disc_low.sqrt() * UP
    } else {
        f64::INFINITY
    };
    let factor = geometric.min(separated);
    let bound = if rho1 < 1.0 {
        let peak = (1.0 / (E_LOW * rho1 * (1.0 - rho1))).max(1.0);
        peak.min(factor)
    } else {
        power_of_screen_steps(rho1) * factor.min((SCREEN_STEPS + 1) as f64)
    };
    bound * UP * (1.0 + CERTIFICATE_MARGIN) <= SCREEN_LIMIT
}

/// `x^SCREEN_STEPS` by repeated squaring (relative error below
/// `SCREEN_STEPS · 2⁻⁵²`; no libm).
fn power_of_screen_steps(x: f64) -> f64 {
    let (mut result, mut square, mut n) = (1.0, x, SCREEN_STEPS);
    while n > 0 {
        if n % 2 == 1 {
            result *= square;
        }
        square *= square;
        n /= 2;
    }
    result
}

/// One value per stability screen: the AR recursion and the MA recursion
/// advance side by side.
#[derive(Clone, Copy)]
struct Lanes {
    ar: f64,
    ma: f64,
}

/// Both stability screens over register windows of `N ≥ max(span)` lags,
/// most recent response first. A shorter recursion is padded with zero
/// coefficients at its highest lags; those append `0 · x = ±0` terms to
/// its sum, which can change the sign of a zero response and nothing else,
/// so the decision is that of the unpadded recursion.
fn screen_windows<const N: usize>(ar: &[f64], neg_ma: &[f64]) -> bool {
    let mut coefs = [Lanes { ar: 0.0, ma: 0.0 }; N];
    for (c, &a) in coefs.iter_mut().zip(ar) {
        c.ar = a;
    }
    for (c, &b) in coefs.iter_mut().zip(neg_ma) {
        c.ma = b;
    }
    let mut window = [Lanes { ar: 0.0, ma: 0.0 }; N];
    if let Some(newest) = window.first_mut() {
        *newest = Lanes { ar: 1.0, ma: 1.0 }; // unit impulses
    }
    for _ in 0..SCREEN_STEPS {
        let mut next = Lanes { ar: 0.0, ma: 0.0 };
        for (c, x) in coefs.iter().zip(&window) {
            next.ar += c.ar * x.ar;
            next.ma += c.ma * x.ma;
        }
        // `<=` is false for NaN, so this also rejects non-finite responses.
        let bounded = next.ar.abs() <= SCREEN_LIMIT && next.ma.abs() <= SCREEN_LIMIT;
        if !bounded {
            return false;
        }
        window.rotate_right(1);
        if let Some(newest) = window.first_mut() {
            *newest = next;
        }
    }
    true
}

/// Both stability screens for spans beyond [`SCREEN_WINDOW`]: each impulse
/// response is appended to its own pre-sized buffer (no sliding window to
/// shift), and the two advance together.
// lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
// dimensions validated at the public boundary and restated by debug_assert
// contracts; the overflow-checked debug-assert CI job backstops the proof
// at runtime; exemplar chain: timeseries::arima::auto_arima_warm ->
// timeseries::arima::Arima::fit_differenced ->
// timeseries::arima::screen_buffered
fn screen_buffered(ar: &[f64], neg_ma: &[f64], impulse: &mut [Vec<f64>; 2]) -> bool {
    let [ar_response, ma_response] = impulse;
    let mut chains = [(ar, ar_response), (neg_ma, ma_response)];
    for (coefs, response) in &mut chains {
        response.clear();
        response.resize(coefs.len(), 0.0);
        if let Some(newest) = response.last_mut() {
            *newest = 1.0; // unit impulse
        }
    }
    for _ in 0..SCREEN_STEPS {
        for (coefs, response) in &mut chains {
            if coefs.is_empty() {
                continue;
            }
            let recent = &response[response.len() - coefs.len()..];
            let next: f64 = coefs
                .iter()
                .zip(recent.iter().rev())
                .map(|(&a, &x)| a * x)
                .sum();
            if !next.is_finite() || next.abs() > SCREEN_LIMIT {
                return false;
            }
            response.push(next);
        }
    }
    true
}

impl Forecaster for Arima {
    /// Always cold: Nelder–Mead starts from `(0, …, 0, w̄)` with the full
    /// `max_evals` budget whatever this model held before, so the result
    /// depends on `history` alone.
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        self.fit_history(history, None)
    }

    /// Warm: the optimizer continues from the outgoing coefficients
    /// `(φ, θ, Φ, Θ, μ)` with the `warm_max_evals` budget and a tighter
    /// start simplex. An unfitted model, a hint outside the optimizer's
    /// domain (a hostile checkpoint) and a warm attempt that diverges all
    /// end in the cold fit, bit for bit.
    fn refit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        let hint = self.fitted.as_ref().map(FittedArima::params);
        self.fit_history(history, hint.as_deref())
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        let fitted = self.fitted.as_ref().ok_or(TimeSeriesError::NotFitted)?;
        let o = self.order;
        let min_len = loss(o.d, o.sd, o.s) + o.ar_span() + 1;
        if history.len() < min_len {
            return Err(TimeSeriesError::TooShort {
                needed: min_len,
                got: history.len(),
            });
        }
        if horizon == 0 {
            return Ok(Vec::new());
        }
        let (w, state) = difference(history, o.d, o.sd, o.s)?;
        let n = w.len();
        let mut ws = CssWorkspace::for_model(o, fitted, n);
        ws.css(&w, fitted.mu, f64::INFINITY)
            .ok_or(TimeSeriesError::FitDiverged)?;
        let (ar, ma, e) = (&ws.ar, &ws.ma, &ws.e);
        // The centred series continues past `n` with its own forecasts.
        let mut ahead: Vec<f64> = Vec::with_capacity(horizon);
        let mut out = Vec::with_capacity(horizon);
        for h in 0..horizon {
            let t = n + h;
            let mut pred = 0.0;
            for (i, &a) in ar.iter().enumerate() {
                if t > i {
                    let centred = if t - 1 - i < n {
                        w[t - 1 - i] - fitted.mu
                    } else {
                        ahead[t - 1 - i - n]
                    };
                    pred += a * centred;
                }
            }
            for (j, &b) in ma.iter().enumerate() {
                if t > j && t - 1 - j < n {
                    pred += b * e[t - 1 - j];
                }
            }
            ahead.push(pred);
            out.push(pred + fitted.mu);
        }
        Ok(integrate(&out, &state))
    }

    fn name(&self) -> &'static str {
        "arima"
    }
}

/// A point forecast with a symmetric prediction interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalForecast {
    /// Point forecast.
    pub point: f64,
    /// Lower interval bound.
    pub lower: f64,
    /// Upper interval bound.
    pub upper: f64,
}

impl Arima {
    /// Forecasts with prediction intervals: `point ± z · σ_h`, where the
    /// `h`-step standard error `σ_h` comes from the model's ψ-weights
    /// (the MA(∞) representation including the differencing operators) and
    /// the CSS innovation variance. `z = 1.96` gives the usual 95% band
    /// under Gaussian innovations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Arima::forecast`] (via the `Forecaster` trait).
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // timeseries::arima::Arima::forecast_with_interval
    pub fn forecast_with_interval(
        &self,
        history: &[f64],
        horizon: usize,
        z: f64,
    ) -> Result<Vec<IntervalForecast>, TimeSeriesError> {
        let fitted = self.fitted.as_ref().ok_or(TimeSeriesError::NotFitted)?;
        let points = self.forecast(history, horizon)?;
        let o = self.order;
        // Full (nonstationary) AR operator: φ(B) Φ(B^s) (1-B)^d (1-B^s)^D,
        // in the `1 - Σ a_i B^i` convention.
        let ws = CssWorkspace::for_model(o, fitted, 0);
        let mut full_ar = ws.ar.clone();
        for _ in 0..o.d {
            full_ar = multiply_lag_ops(&full_ar, &[1.0]); // (1 - B)
        }
        for _ in 0..o.sd {
            let mut seasonal = vec![0.0; o.s];
            seasonal[o.s - 1] = 1.0; // (1 - B^s)
            full_ar = multiply_lag_ops(&full_ar, &seasonal);
        }
        let ma = &ws.ma;
        // ψ recursion: ψ_0 = 1, ψ_j = b_j + Σ a_i ψ_{j-i}.
        let mut psi = vec![0.0; horizon];
        let mut var_acc = Vec::with_capacity(horizon);
        let mut cum = 0.0;
        for j in 0..horizon {
            let mut v = if j == 0 {
                1.0
            } else {
                ma.get(j - 1).copied().unwrap_or(0.0)
            };
            if j > 0 {
                for (i, &a) in full_ar.iter().enumerate() {
                    if j > i {
                        let prev = if j - i - 1 == 0 { 1.0 } else { psi[j - i - 1] };
                        v += a * prev;
                    }
                }
            }
            psi[j] = v;
            cum += v * v;
            var_acc.push(cum);
        }
        let sigma = fitted.sigma2.sqrt();
        Ok(points
            .into_iter()
            .zip(var_acc)
            .map(|(point, cum)| {
                let half = z * sigma * cum.sqrt();
                IntervalForecast {
                    point,
                    lower: point - half,
                    upper: point + half,
                }
            })
            .collect())
    }
}

/// Multiplies two lag operators in the `1 - Σ c_i B^i` convention, given by
/// their coefficient vectors `c` (index 0 = lag 1). Returns the product's
/// coefficients in the same convention.
fn multiply_lag_ops(a: &[f64], b: &[f64]) -> Vec<f64> {
    // Full polynomials with constant term 1 and negated lag coefficients.
    let pa: Vec<f64> = std::iter::once(1.0).chain(a.iter().map(|v| -v)).collect();
    let pb: Vec<f64> = std::iter::once(1.0).chain(b.iter().map(|v| -v)).collect();
    let mut prod = vec![0.0; pa.len() + pb.len() - 1];
    for (i, &x) in pa.iter().enumerate() {
        for (j, &y) in pb.iter().enumerate() {
            prod[i + j] += x * y;
        }
    }
    prod.iter().skip(1).map(|v| -v).collect()
}

/// The grid of candidate orders for automatic model selection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArimaGrid {
    /// Candidate values for each order component.
    pub p: Vec<usize>,
    /// Candidate non-seasonal differencing orders.
    pub d: Vec<usize>,
    /// Candidate MA orders.
    pub q: Vec<usize>,
    /// Candidate seasonal AR orders.
    pub sp: Vec<usize>,
    /// Candidate seasonal differencing orders.
    pub sd: Vec<usize>,
    /// Candidate seasonal MA orders.
    pub sq: Vec<usize>,
    /// Seasonal period.
    pub s: usize,
}

impl ArimaGrid {
    /// Writes the grid into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        for column in [&self.p, &self.d, &self.q, &self.sp, &self.sd, &self.sq] {
            out.labels(column);
        }
        out.usize(self.s);
    }

    /// Reads a grid written by [`ArimaGrid::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(ArimaGrid {
            p: input.labels()?,
            d: input.labels()?,
            q: input.labels()?,
            sp: input.labels()?,
            sd: input.labels()?,
            sq: input.labels()?,
            s: input.usize()?,
        })
    }

    /// The paper's full grid (Sec. VI-A3): `p ∈ [0,5]`, `d ∈ [0,2]`,
    /// `q ∈ [0,5]`, `P ∈ [0,2]`, `D ∈ [0,1]`, `Q ∈ [0,2]` with seasonal
    /// period `s`. 1944 candidate orders — expensive; prefer
    /// [`ArimaGrid::quick`] during development.
    pub fn paper(s: usize) -> Self {
        ArimaGrid {
            p: (0..=5).collect(),
            d: (0..=2).collect(),
            q: (0..=5).collect(),
            sp: (0..=2).collect(),
            sd: (0..=1).collect(),
            sq: (0..=2).collect(),
            s,
        }
    }

    /// A small non-seasonal grid (`p, q ∈ [0,2]`, `d ∈ [0,1]`) that captures
    /// most of the benefit at a fraction of the cost. Used as the default by
    /// the pipeline and experiment binaries.
    pub fn quick() -> Self {
        ArimaGrid {
            p: (0..=2).collect(),
            d: (0..=1).collect(),
            q: (0..=2).collect(),
            sp: vec![0],
            sd: vec![0],
            sq: vec![0],
            s: 0,
        }
    }

    /// Enumerates all orders in the grid.
    pub fn orders(&self) -> Vec<ArimaOrder> {
        let mut out = Vec::new();
        for &p in &self.p {
            for &d in &self.d {
                for &q in &self.q {
                    for &sp in &self.sp {
                        for &sd in &self.sd {
                            for &sq in &self.sq {
                                out.push(ArimaOrder::seasonal(p, d, q, sp, sd, sq, self.s));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// An optimizer solution retained for one grid order.
#[derive(Debug, Clone, PartialEq)]
struct WarmEntry {
    order: ArimaOrder,
    x: Vec<f64>,
}

/// Fitted optimizer solutions carried across retrains, keyed by order.
///
/// `auto_arima_warm` seeds each order's Nelder–Mead search from the
/// solution the same order reached on the previous retrain. Centroid
/// histories drift slowly between retrains, so the previous optimum is an
/// excellent starting simplex and converges in a fraction of the cold
/// budget; a diverging warm attempt falls back to the cold start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArimaWarmStart {
    /// Entries kept sorted by order for binary-search lookup.
    entries: Vec<WarmEntry>,
}

impl ArimaWarmStart {
    /// Writes the table into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        out.seq(&self.entries, |out, e| {
            e.order.encode_into(out);
            out.f64s(&e.x);
        });
    }

    /// Reads a table written by [`ArimaWarmStart::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        let entries = input.seq(|input| {
            Ok(WarmEntry {
                order: ArimaOrder::decode(input)?,
                x: input.f64s()?,
            })
        })?;
        Ok(ArimaWarmStart { entries })
    }

    /// The retained solution for `order`, if any.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // timeseries::arima::ArimaWarmStart::get
    pub fn get(&self, order: ArimaOrder) -> Option<&[f64]> {
        self.entries
            .binary_search_by(|e| e.order.cmp(&order))
            .ok()
            .map(|i| self.entries[i].x.as_slice())
    }

    /// Stores (or replaces) the solution for `order`.
    // lint:allow(panic-path): fn-scope audit: index arithmetic is affine in
    // dimensions validated at the public boundary and restated by
    // debug_assert contracts; the overflow-checked debug-assert CI job
    // backstops the proof at runtime; exemplar chain:
    // timeseries::arima::ArimaWarmStart::put
    pub fn put(&mut self, order: ArimaOrder, x: Vec<f64>) {
        match self.entries.binary_search_by(|e| e.order.cmp(&order)) {
            Ok(i) => self.entries[i].x = x,
            Err(i) => self.entries.insert(i, WarmEntry { order, x }),
        }
    }

    /// Number of retained solutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every retained solution (forcing the next search cold).
    pub fn clear(&mut self) {
        self.entries.clear()
    }
}

/// Lag-1 autocorrelation of `w` about the mean `m`; `0.0` for degenerate
/// (constant or near-empty) series.
fn lag1_autocorr(w: &[f64], m: f64) -> f64 {
    if w.len() < 2 {
        return 0.0;
    }
    let mut denom = 0.0;
    let mut num = 0.0;
    for t in 0..w.len() {
        let c = w[t] - m;
        denom += c * c;
        if t > 0 {
            num += c * (w[t - 1] - m);
        }
    }
    if denom > 0.0 {
        num / denom
    } else {
        0.0
    }
}

/// Fits every order in the grid and returns the model with the lowest AICc
/// (the paper's selection rule).
///
/// Orders whose fit fails (series too short for the order, divergence) are
/// skipped; at least one order must succeed. With
/// `options.prune_margin > 0.0` an order whose warm hint's partial CSS
/// proves it cannot beat the incumbent AICc (by the margin) is skipped
/// without running the optimizer; [`ArimaFitOptions::baseline`] disables
/// pruning and reproduces the exhaustive search bit for bit.
///
/// # Errors
///
/// Returns [`TimeSeriesError::NonFinite`] (naming the first offending index)
/// if the series holds a NaN or an infinity, and
/// [`TimeSeriesError::FitDiverged`] if *no* candidate order could be fitted.
pub fn auto_arima(
    series: &[f64],
    grid: &ArimaGrid,
    options: &ArimaFitOptions,
) -> Result<Arima, TimeSeriesError> {
    let mut warm = ArimaWarmStart::default();
    auto_arima_warm(series, grid, options, &mut warm)
}

/// Differenced-series cache entry: the differenced values, their mean, and
/// their lag-1 autocorrelation; `None` when differencing failed.
type DiffEntry = Option<(Vec<f64>, f64, f64)>;

/// [`auto_arima`] with a warm-start table carried across retrains: shares
/// differencing/ACF work across the grid, seeds each order's optimizer from
/// its previous solution, and prunes hopeless candidates on partial-CSS
/// bounds against the incumbent AICc.
///
/// The selected model is independent of the internal visit order: ties on
/// AICc are broken by the original grid position, matching the exhaustive
/// first-wins scan.
///
/// # Errors
///
/// Returns [`TimeSeriesError::NonFinite`] (naming the first offending index)
/// if the series holds a NaN or an infinity, and
/// [`TimeSeriesError::FitDiverged`] if *no* candidate order could be fitted.
pub fn auto_arima_warm(
    series: &[f64],
    grid: &ArimaGrid,
    options: &ArimaFitOptions,
    warm: &mut ArimaWarmStart,
) -> Result<Arima, TimeSeriesError> {
    require_finite(series)?;
    let orders = grid.orders();
    // Difference once per (d, D) pair; every order sharing the pair reuses
    // the differenced series, its mean, and its lag-1 autocorrelation.
    let mut diffs: Vec<((usize, usize), DiffEntry)> = Vec::new();
    for &order in &orders {
        let key = (order.d, order.sd);
        if diffs.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let entry = difference(series, order.d, order.sd, order.s)
            .ok()
            .map(|(w, _)| {
                let m = mean(&w);
                let r1 = lag1_autocorr(&w, m);
                (w, m, r1)
            });
        diffs.push((key, entry));
    }
    // Visit differencing pairs in order of residual structure (|r1|
    // ascending): the pair that leaves the least autocorrelation tends to
    // host the eventual AICc winner, which tightens the pruning cap early.
    // Within a pair, fewer-coefficient orders fit first (cheapest, and
    // low orders usually win AICc on near-white residuals). Ranks rather
    // than raw floats keep the sort total and deterministic.
    let mut ranked: Vec<((usize, usize), f64)> = diffs
        .iter()
        .map(|(k, e)| (*k, e.as_ref().map_or(f64::INFINITY, |(_, _, r1)| r1.abs())))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let rank_of = |key: (usize, usize)| {
        ranked
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or(usize::MAX)
    };
    let mut visit: Vec<(usize, ArimaOrder)> = orders.iter().copied().enumerate().collect();
    visit.sort_by_key(|&(idx, o)| (rank_of((o.d, o.sd)), o.num_coefficients(), idx));

    // (model, aicc, original grid index) of the incumbent.
    let mut best: Option<(Arima, f64, usize)> = None;
    for &(idx, order) in &visit {
        if series.len() < order.min_series_len() {
            continue;
        }
        let Some(entry) = diffs
            .iter()
            .find(|(k, _)| *k == (order.d, order.sd))
            .and_then(|(_, e)| e.as_ref())
        else {
            continue;
        };
        let (w, w_mean, _) = entry;
        let n_eff = (w.len() - order.combined_ar_span()).max(1) as f64;
        let k = (order.num_coefficients() + 1) as f64;
        // Orders whose AICc small-sample correction is infinite can never
        // win the criterion; the exhaustive path fits them and then drops
        // them, so skipping the fit outright preserves behavior.
        if n_eff - k - 1.0 <= 0.0 {
            continue;
        }
        // The CSS a candidate must stay under (times the safety margin) to
        // beat the incumbent AICc; an order whose warm hint cannot come
        // under the cap is skipped without running the optimizer.
        let css_cap = match (&best, options.prune_margin > 0.0) {
            (Some((_, best_aicc, _)), true) => {
                let corr = 2.0 * k * (k + 1.0) / (n_eff - k - 1.0);
                n_eff * ((best_aicc - 2.0 * k - corr) / n_eff).exp() * options.prune_margin
            }
            _ => f64::INFINITY,
        };
        let mut model = Arima::with_options(order, options.clone());
        if model
            .fit_differenced(w, *w_mean, warm.get(order), css_cap)
            .is_err()
        {
            continue;
        }
        let (aicc, x) = match model.fitted() {
            Some(f) if f.aicc.is_finite() => (f.aicc, f.params()),
            _ => continue,
        };
        warm.put(order, x);
        let replace = match &best {
            None => true,
            Some((_, b, bi)) => match aicc.total_cmp(b) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => idx < *bi,
                std::cmp::Ordering::Greater => false,
            },
        };
        if replace {
            best = Some((model, aicc, idx));
        }
    }
    best.map(|(model, _, _)| model)
        .ok_or(TimeSeriesError::FitDiverged)
}

/// A [`Forecaster`] that re-runs the AICc grid search on every (re)fit —
/// the paper's protocol, where each retraining period reselects the best
/// order for the latest centroid history.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoArima {
    grid: ArimaGrid,
    options: ArimaFitOptions,
    inner: Option<Arima>,
    warm: ArimaWarmStart,
}

impl AutoArima {
    /// Writes the model into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        self.grid.encode_into(out);
        self.options.encode_into(out);
        out.option(self.inner.as_ref(), |out, m| m.encode_into(out));
        self.warm.encode_into(out);
    }

    /// Reads a model written by [`AutoArima::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(AutoArima {
            grid: ArimaGrid::decode(input)?,
            options: ArimaFitOptions::decode(input)?,
            inner: input.option(Arima::decode)?,
            warm: ArimaWarmStart::decode(input)?,
        })
    }

    /// Creates an auto-selecting ARIMA forecaster.
    pub fn new(grid: ArimaGrid, options: ArimaFitOptions) -> Self {
        AutoArima {
            grid,
            options,
            inner: None,
            warm: ArimaWarmStart::default(),
        }
    }

    /// Creates an auto-ARIMA over the quick grid with default options.
    pub fn quick() -> Self {
        AutoArima::new(ArimaGrid::quick(), ArimaFitOptions::default())
    }

    /// The currently selected model, if fitted.
    pub fn selected(&self) -> Option<&Arima> {
        self.inner.as_ref()
    }

    /// The warm-start table accumulated across refits.
    pub fn warm(&self) -> &ArimaWarmStart {
        &self.warm
    }
}

impl Forecaster for AutoArima {
    /// Always cold: the grid search starts from an empty warm-start table,
    /// so the result depends on `history` alone; the table it fills
    /// replaces this model's. A failed fit leaves the model as it was.
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        let mut warm = ArimaWarmStart::default();
        self.inner = Some(auto_arima_warm(
            history,
            &self.grid,
            &self.options,
            &mut warm,
        )?);
        self.warm = warm;
        Ok(())
    }

    /// Warm: each grid order continues from the solution it reached on
    /// this model's last (re)fit, and the table keeps the new ones.
    fn refit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        self.inner = Some(auto_arima_warm(
            history,
            &self.grid,
            &self.options,
            &mut self.warm,
        )?);
        Ok(())
    }

    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        self.inner
            .as_ref()
            .ok_or(TimeSeriesError::NotFitted)?
            .forecast(history, horizon)
    }

    fn name(&self) -> &'static str {
        "auto-arima"
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use utilcast_linalg::rng::standard_normal;

    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = phi * x + 0.1 * standard_normal(&mut rng);
            xs.push(x);
        }
        xs
    }

    /// The combined AR lag coefficients of φ(B)Φ(Bˢ).
    fn expand(phi: &[f64], sphi: &[f64], s: usize) -> Vec<f64> {
        let order = ArimaOrder::seasonal(phi.len(), 0, 0, sphi.len(), 0, 0, s);
        let mut ws = CssWorkspace::new(order, 0);
        ws.load(phi, &[], sphi, &[]);
        ws.ar
    }

    #[test]
    fn expand_nonseasonal_is_identity() {
        let a = expand(&[0.5, -0.2], &[], 1);
        assert_eq!(a, vec![0.5, -0.2]);
    }

    #[test]
    fn expand_combines_seasonal_terms() {
        // (1 - 0.5 B)(1 - 0.3 B^4) = 1 - 0.5B - 0.3B^4 + 0.15B^5
        let a = expand(&[0.5], &[0.3], 4);
        assert_eq!(a.len(), 5);
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[1]).abs() < 1e-12);
        assert!((a[3] - 0.3).abs() < 1e-12);
        assert!((a[4] + 0.15).abs() < 1e-12);
    }

    #[test]
    fn ar1_coefficient_recovered() {
        let series = ar1_series(2000, 0.7, 11);
        let mut model = Arima::new(ArimaOrder::new(1, 0, 0));
        model.fit(&series).unwrap();
        let phi = model.fitted().unwrap().phi[0];
        assert!((phi - 0.7).abs() < 0.07, "recovered phi = {phi}");
    }

    #[test]
    fn ma1_coefficient_recovered() {
        // MA(1): x_t = e_t + 0.6 e_{t-1}
        let mut rng = StdRng::seed_from_u64(13);
        let n = 3000;
        let es: Vec<f64> = (0..n + 1).map(|_| standard_normal(&mut rng)).collect();
        let series: Vec<f64> = (1..=n).map(|t| es[t] + 0.6 * es[t - 1]).collect();
        let mut model = Arima::new(ArimaOrder::new(0, 0, 1));
        model.fit(&series).unwrap();
        let theta = model.fitted().unwrap().theta[0];
        assert!((theta - 0.6).abs() < 0.08, "recovered theta = {theta}");
    }

    #[test]
    fn random_walk_with_drift_forecast() {
        // x_t = x_{t-1} + 0.5: ARIMA(0,1,0) should forecast constant drift.
        let series: Vec<f64> = (0..100).map(|t| t as f64 * 0.5).collect();
        let mut model = Arima::new(ArimaOrder::new(0, 1, 0));
        model.fit(&series).unwrap();
        let fc = model.forecast(&series, 3).unwrap();
        let last = series.last().unwrap();
        assert!((fc[0] - (last + 0.5)).abs() < 1e-6, "fc[0] = {}", fc[0]);
        assert!((fc[2] - (last + 1.5)).abs() < 1e-6);
    }

    #[test]
    fn ar1_forecast_decays_towards_mean() {
        let series = ar1_series(2000, 0.8, 17);
        let mut model = Arima::new(ArimaOrder::new(1, 0, 0));
        model.fit(&series).unwrap();
        let fc = model.forecast(&series, 50).unwrap();
        let mu = model.fitted().unwrap().mu;
        // Long-horizon forecast approaches the series mean.
        assert!(
            (fc[49] - mu).abs() < 0.05,
            "fc[49] = {} vs mu = {mu}",
            fc[49]
        );
    }

    #[test]
    fn seasonal_model_tracks_periodic_series() {
        // Strong period-6 pattern plus noise; SARIMA with D=1, s=6 should
        // forecast the next period much better than the long-term mean.
        let mut rng = StdRng::seed_from_u64(23);
        let pattern = [0.0, 0.5, 1.0, 0.8, 0.3, 0.1];
        let series: Vec<f64> = (0..600)
            .map(|t| pattern[t % 6] + 0.02 * standard_normal(&mut rng))
            .collect();
        let mut model = Arima::new(ArimaOrder::seasonal(0, 0, 0, 0, 1, 0, 6));
        model.fit(&series).unwrap();
        let fc = model.forecast(&series, 6).unwrap();
        for (h, f) in fc.iter().enumerate() {
            let truth = pattern[(600 + h) % 6];
            assert!((f - truth).abs() < 0.15, "h={h}: {f} vs {truth}");
        }
    }

    #[test]
    fn forecast_before_fit_errors() {
        let model = Arima::new(ArimaOrder::new(1, 0, 0));
        assert_eq!(
            model.forecast(&[1.0; 50], 1),
            Err(TimeSeriesError::NotFitted)
        );
    }

    #[test]
    fn short_series_errors() {
        let mut model = Arima::new(ArimaOrder::new(2, 1, 2));
        let err = model.fit(&[1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, TimeSeriesError::TooShort { .. }));
    }

    #[test]
    fn non_finite_history_is_rejected_with_its_index() {
        let mut series = ar1_series(120, 0.6, 71);
        series[17] = f64::INFINITY;
        series[40] = f64::NAN;
        let expected = Err(TimeSeriesError::NonFinite { index: 17 });
        let mut model = Arima::new(ArimaOrder::new(2, 0, 1));
        assert_eq!(model.fit(&series), expected);
        assert!(model.fitted().is_none());
        let mut auto = AutoArima::quick();
        assert_eq!(auto.fit(&series), expected);
        assert!(auto.selected().is_none() && auto.warm().is_empty());
        // Length is still checked first: a short series says so.
        assert!(matches!(
            model.fit(&[f64::NAN; 3]),
            Err(TimeSeriesError::TooShort { .. })
        ));
    }

    #[test]
    fn auto_arima_prefers_ar_for_ar_data() {
        let series = ar1_series(600, 0.8, 29);
        let grid = ArimaGrid {
            p: vec![0, 1],
            d: vec![0],
            q: vec![0],
            sp: vec![0],
            sd: vec![0],
            sq: vec![0],
            s: 0,
        };
        let best = auto_arima(&series, &grid, &ArimaFitOptions::default()).unwrap();
        assert_eq!(
            best.order().p,
            1,
            "AICc should prefer AR(1) over white noise"
        );
    }

    #[test]
    fn grid_order_counts() {
        assert_eq!(ArimaGrid::paper(288).orders().len(), 6 * 3 * 6 * 3 * 2 * 3);
        assert_eq!(ArimaGrid::quick().orders().len(), 3 * 2 * 3);
    }

    #[test]
    fn forecast_zero_horizon_is_empty() {
        let series = ar1_series(200, 0.5, 31);
        let mut model = Arima::new(ArimaOrder::new(1, 0, 0));
        model.fit(&series).unwrap();
        assert!(model.forecast(&series, 0).unwrap().is_empty());
    }

    #[test]
    fn fit_is_deterministic() {
        let series = ar1_series(300, 0.6, 37);
        let mut a = Arima::new(ArimaOrder::new(1, 0, 1));
        let mut b = Arima::new(ArimaOrder::new(1, 0, 1));
        a.fit(&series).unwrap();
        b.fit(&series).unwrap();
        assert_eq!(a.fitted(), b.fitted());
    }

    /// `level` plus a slow wave plus AR(1) noise: a centroid-like series
    /// on any scale.
    fn levelled_series(n: usize, level: f64, seed: u64) -> Vec<f64> {
        ar1_series(n, 0.8, seed)
            .iter()
            .enumerate()
            .map(|(t, x)| level + 0.2 * x + 0.05 * (t as f64 / 20.0).sin())
            .collect()
    }

    /// What `fit` (`warm = false`) or `refit` (`warm = true`) does to
    /// `model`, driven through the evaluator seam so the objective
    /// evaluations can be counted. Returns that count.
    fn counted_fit(model: &mut Arima, history: &[f64], warm: bool) -> usize {
        let o = model.order;
        let (w, _) = difference(history, o.d, o.sd, o.s).unwrap();
        let hint = model.fitted.as_ref().filter(|_| warm).map(|f| f.params());
        let bound = model.options.coef_bound;
        let mut ws = CssWorkspace::new(o, w.len());
        let mut evals = 0;
        model
            .fit_with_objective(
                w.len(),
                mean(&w),
                hint.as_deref(),
                f64::INFINITY,
                |x, cap| {
                    evals += 1;
                    ws.objective(&w, x, bound, cap)
                },
            )
            .unwrap();
        evals
    }

    #[test]
    fn refit_spends_the_warm_budget_and_fit_the_cold_one() {
        let series = levelled_series(168, 0.4, 67);
        let (early, grown) = (&series[..120], &series[..]);
        let order = ArimaOrder::new(2, 0, 1);
        let options = ArimaFitOptions::default();
        let n_params = order.num_coefficients();
        let mut outgoing = Arima::new(order);
        outgoing.fit(early).unwrap();

        let mut cold = Arima::new(order);
        let cold_evals = counted_fit(&mut cold, grown, false);
        // Nelder–Mead checks its budget once per iteration, so the last one
        // may overrun it: by one evaluation, or by a shrink's `n`.
        assert!(
            cold_evals > options.max_evals / 2 && cold_evals <= options.max_evals + 1 + n_params,
            "a cold fit works through the cold budget: {cold_evals}"
        );

        // `refit` is the warm drive from the outgoing coefficients, bit for
        // bit, and that drive stays within the warm budget.
        let mut warm = outgoing.clone();
        let warm_evals = counted_fit(&mut warm, grown, true);
        assert!(
            warm_evals <= options.warm_max_evals + 1,
            "a refit spent {warm_evals} evaluations"
        );
        let mut refitted = outgoing.clone();
        refitted.refit(grown).unwrap();
        assert_eq!(refitted.fitted(), warm.fitted());
        assert_ne!(
            refitted.fitted(),
            cold.fitted(),
            "warm and cold must differ"
        );
        let (w, c) = (refitted.fitted().unwrap(), cold.fitted().unwrap());
        assert!((w.css / c.css - 1.0).abs() < 0.05, "{} vs {}", w.css, c.css);

        // `fit` ignores what the model holds; an unfitted model has nothing
        // to continue from.
        let mut fitted_again = outgoing.clone();
        fitted_again.fit(grown).unwrap();
        assert_eq!(fitted_again.fitted(), cold.fitted());
        let mut fresh = Arima::new(order);
        fresh.refit(grown).unwrap();
        assert_eq!(fresh.fitted(), cold.fitted());

        // Outgoing coefficients no fit could have produced (a hostile
        // checkpoint): the hint is dropped before anything is evaluated.
        let poisons: [fn(&mut FittedArima); 4] = [
            |f| f.phi[1] = f64::NAN,
            |f| f.theta[0] = 5.5,
            |f| f.mu = f64::INFINITY,
            |f| f.phi.push(0.1),
        ];
        for poison in poisons {
            let mut poisoned = outgoing.clone();
            poison(poisoned.fitted.as_mut().unwrap());
            let mut counted = poisoned.clone();
            assert_eq!(counted_fit(&mut counted, grown, true), cold_evals);
            poisoned.refit(grown).unwrap();
            assert_eq!(poisoned.fitted(), cold.fitted());
        }

        // In-domain but explosive: the warm attempt finds nothing finite
        // within its budget and the cold fit follows.
        let mut unstable = outgoing.clone();
        unstable.fitted.as_mut().unwrap().phi = vec![1.5, 0.5];
        let mut counted = unstable.clone();
        let evals = counted_fit(&mut counted, grown, true);
        assert!(evals > cold_evals && evals <= cold_evals + options.warm_max_evals + 1 + n_params);
        unstable.refit(grown).unwrap();
        assert_eq!(unstable.fitted(), cold.fitted());
    }

    #[test]
    fn series_far_from_zero_fit() {
        // The coefficient bound once covered the intercept: with |mean|
        // above it every vertex of the start simplex was out of domain and
        // the fit diverged.
        for (level, seed) in [(6.0, 73), (50.0, 79), (-20.0, 83)] {
            let series = levelled_series(300, level, seed);
            for order in [ArimaOrder::new(1, 0, 0), ArimaOrder::new(2, 0, 1)] {
                let mut model = Arima::new(order);
                model
                    .fit(&series[..252])
                    .unwrap_or_else(|e| panic!("level {level} {order:?}: {e}"));
                for refit in [false, true] {
                    if refit {
                        model.refit(&series).unwrap();
                    }
                    let mu = model.fitted().unwrap().mu;
                    assert!((mu - level).abs() < 0.5, "level {level}: mu = {mu}");
                    let fc = model.forecast(&series, 16).unwrap();
                    assert!(
                        fc.iter().all(|v| (v - level).abs() < 1.0),
                        "level {level}: forecast {fc:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_arima_forecaster_adapter_refits() {
        let series = ar1_series(500, 0.8, 41);
        let mut model = AutoArima::quick();
        assert_eq!(
            model.forecast(&series, 1),
            Err(TimeSeriesError::NotFitted),
            "unfitted adapter must refuse to forecast"
        );
        model.fit(&series).unwrap();
        assert!(model.selected().is_some());
        let fc = model.forecast(&series, 3).unwrap();
        assert_eq!(fc.len(), 3);
        assert_eq!(model.name(), "auto-arima");
    }

    #[test]
    fn auto_arima_fit_is_cold_and_refit_warm() {
        let bits = |m: &AutoArima| {
            let f = m.selected().and_then(Arima::fitted).expect("fitted");
            let mut x = f.params();
            x.extend([f.css, f.aicc]);
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let unrelated = ar1_series(200, -0.5, 7);
        let series = ar1_series(248, 0.8, 41);
        let mut fresh = AutoArima::quick();
        fresh.fit(&series[..200]).unwrap();

        // `fit` after a fit on an unrelated series is the fresh model's
        // fit, bit for bit, warm-start table included.
        let mut reused = AutoArima::quick();
        reused.fit(&unrelated).unwrap();
        let mut continued = reused.clone();
        reused.fit(&series[..200]).unwrap();
        assert_eq!(bits(&reused), bits(&fresh));
        assert_eq!(reused, fresh);
        // What `fit` used to do — continue from the unrelated table — is
        // another model.
        continued.refit(&series[..200]).unwrap();
        assert_ne!(bits(&continued), bits(&fresh));

        // `refit` continues from the table of the last fit.
        let mut table = fresh.warm().clone();
        let want =
            auto_arima_warm(&series, &ArimaGrid::quick(), &fresh.options, &mut table).unwrap();
        fresh.refit(&series).unwrap();
        assert_eq!(fresh.selected(), Some(&want));
        assert_eq!(fresh.warm(), &table);
    }

    #[test]
    fn fitted_models_reject_unstable_regions() {
        // A near-random-walk series: CSS may be tempted by phi > 1; the
        // stability check must keep the fitted AR inside the stationary
        // region so multi-step forecasts stay bounded.
        let mut rng = StdRng::seed_from_u64(43);
        let mut series = vec![0.5f64];
        for _ in 1..600 {
            let prev = *series.last().unwrap();
            series.push((prev + 0.03 * standard_normal(&mut rng)).clamp(0.0, 1.0));
        }
        for order in [ArimaOrder::new(2, 0, 2), ArimaOrder::new(1, 1, 2)] {
            let mut model = Arima::new(order);
            model.fit(&series).unwrap();
            let fc = model.forecast(&series, 100).unwrap();
            for (h, v) in fc.iter().enumerate() {
                assert!(
                    v.abs() < 5.0,
                    "{order:?}: forecast at h={h} is {v}, model left the data range"
                );
            }
        }
    }

    #[test]
    fn interval_width_grows_like_ar1_theory() {
        let series = ar1_series(3000, 0.7, 47);
        let mut model = Arima::new(ArimaOrder::new(1, 0, 0));
        model.fit(&series).unwrap();
        let f = model.fitted().unwrap().clone();
        let fc = model.forecast_with_interval(&series, 10, 1.96).unwrap();
        assert_eq!(fc.len(), 10);
        // Theoretical h-step std error of AR(1): sigma * sqrt(sum phi^{2j}).
        let phi = f.phi[0];
        let sigma = f.sigma2.sqrt();
        for (h, iv) in fc.iter().enumerate() {
            let var: f64 = (0..=h).map(|j| phi.powi(2 * j as i32)).sum();
            let expected_half = 1.96 * sigma * var.sqrt();
            let measured_half = (iv.upper - iv.lower) / 2.0;
            assert!(
                (measured_half - expected_half).abs() < 1e-9,
                "h={h}: {measured_half} vs {expected_half}"
            );
            assert!((iv.point - (iv.lower + iv.upper) / 2.0).abs() < 1e-9);
        }
        // Interval widths are non-decreasing in h.
        for w in fc.windows(2) {
            assert!(w[1].upper - w[1].lower >= w[0].upper - w[0].lower - 1e-12);
        }
    }

    #[test]
    fn interval_width_random_walk_grows_sqrt_h() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut series = vec![0.0f64];
        for _ in 1..2000 {
            series.push(series.last().unwrap() + 0.1 * standard_normal(&mut rng));
        }
        let mut model = Arima::new(ArimaOrder::new(0, 1, 0));
        model.fit(&series).unwrap();
        let fc = model.forecast_with_interval(&series, 16, 1.0).unwrap();
        let w1 = fc[0].upper - fc[0].lower;
        let w16 = fc[15].upper - fc[15].lower;
        // Random walk: sigma_h = sigma * sqrt(h), so w16 / w1 = 4.
        assert!(
            (w16 / w1 - 4.0).abs() < 0.01,
            "width ratio {} should be ~4",
            w16 / w1
        );
    }

    #[test]
    fn interval_requires_fit() {
        let model = Arima::new(ArimaOrder::new(1, 0, 0));
        assert!(matches!(
            model.forecast_with_interval(&[0.0; 50], 1, 1.96),
            Err(TimeSeriesError::NotFitted)
        ));
    }

    #[test]
    fn baseline_options_reproduce_exhaustive_search() {
        // With pruning disabled and no warm hints, auto_arima must be
        // bitwise identical to fitting every order in grid order and
        // keeping the first-best AICc.
        let series = ar1_series(400, 0.7, 59);
        let grid = ArimaGrid::quick();
        let options = ArimaFitOptions::baseline();
        let fast = auto_arima(&series, &grid, &options).unwrap();
        let mut best: Option<(Arima, f64)> = None;
        for order in grid.orders() {
            let mut model = Arima::with_options(order, options.clone());
            if model.fit(&series).is_err() {
                continue;
            }
            let Some(aicc) = model.aicc() else { continue };
            if !aicc.is_finite() {
                continue;
            }
            if best.as_ref().is_none_or(|(_, b)| *b > aicc) {
                best = Some((model, aicc));
            }
        }
        let (reference, _) = best.unwrap();
        assert_eq!(fast.order(), reference.order());
        assert_eq!(fast.fitted(), reference.fitted());
    }

    #[test]
    fn pruned_grid_matches_exhaustive_selection() {
        // Default options prune on partial-CSS bounds; the margin is wide
        // enough that the selected order (and its fit) still matches the
        // exhaustive search on well-behaved data.
        let series = ar1_series(400, 0.7, 61);
        let grid = ArimaGrid::quick();
        let pruned = auto_arima(&series, &grid, &ArimaFitOptions::default()).unwrap();
        let exhaustive = auto_arima(&series, &grid, &ArimaFitOptions::baseline()).unwrap();
        assert_eq!(pruned.order(), exhaustive.order());
        let (pa, ea) = (
            pruned.fitted().unwrap().aicc,
            exhaustive.fitted().unwrap().aicc,
        );
        assert!(
            (pa - ea).abs() < 1e-6,
            "pruned aicc {pa} vs exhaustive {ea}"
        );
    }

    #[test]
    fn warm_table_get_put_replace() {
        let mut warm = ArimaWarmStart::default();
        assert!(warm.is_empty());
        let o1 = ArimaOrder::new(1, 0, 0);
        let o2 = ArimaOrder::new(2, 1, 1);
        warm.put(o2, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        warm.put(o1, vec![0.7, 0.0]);
        assert_eq!(warm.len(), 2);
        assert_eq!(warm.get(o1), Some(&[0.7, 0.0][..]));
        warm.put(o1, vec![0.8, 0.1]);
        assert_eq!(warm.len(), 2, "put on an existing order replaces");
        assert_eq!(warm.get(o1), Some(&[0.8, 0.1][..]));
        assert_eq!(warm.get(ArimaOrder::new(0, 0, 0)), None);
        warm.clear();
        assert!(warm.is_empty());
    }
}
