//! Differential tests: the workspace evaluator, the stability screens and
//! the forecast recursion against the allocating [`super::oracle`] they
//! replaced, compared by `f64::to_bits` (NaN for NaN).

use proptest::prelude::*;

use super::oracle;
use super::*;

/// SplitMix64 step mapped to a uniform in `[-1, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A centroid-like series: level, period-12 triangle wave, AR(1) wander
/// and observation noise.
fn centroid_like(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    let level = 0.1 + 0.08 * (seed % 10) as f64;
    let mut wander = 0.0;
    (0..n)
        .map(|t| {
            let phase = (t % 12) as f64 / 12.0;
            let triangle = 1.0 - 4.0 * (phase - 0.5).abs();
            wander = 0.9 * wander + 0.004 * uniform(&mut state);
            level + 0.03 * triangle + wander + 0.002 * uniform(&mut state)
        })
        .collect()
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `c` moved by `ulps` representable values (positive finite `c`).
fn nudge(c: f64, ulps: i64) -> f64 {
    f64::from_bits((c.to_bits() as i64 + ulps) as u64)
}

/// The production screens on raw recursion coefficients.
fn screens(ar: &[f64], neg_ma: &[f64]) -> bool {
    let mut ws = CssWorkspace::new(ArimaOrder::new(ar.len(), 0, neg_ma.len()), 0);
    ws.ar.copy_from_slice(ar);
    ws.neg_ma.copy_from_slice(neg_ma);
    ws.screens_pass()
}

/// One coefficient vector for `order`, of the given kind: 0 in-domain,
/// 1 wild (often unstable or exploding), 2 out of `bound`, 3 non-finite,
/// 4 one coefficient in the ulp-neighbourhood of the span-1 stability
/// boundary.
fn candidate(order: ArimaOrder, kind: usize, bound: f64, mean: f64, state: &mut u64) -> Vec<f64> {
    let n = order.num_coefficients();
    let scale = if kind == 1 { 1.6 } else { 0.5 };
    let mut x: Vec<f64> = (0..n).map(|_| scale * uniform(state)).collect();
    x[n - 1] = mean + 0.05 * uniform(state);
    let pick = |state: &mut u64| ((uniform(state) + 1.0) * 0.5 * n as f64) as usize % n;
    match kind {
        2 => {
            let i = pick(state);
            x[i] = (bound * (1.0 + 0.5 * (uniform(state) + 1.0))).copysign(uniform(state));
        }
        3 => {
            let i = pick(state);
            x[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick(state) % 3];
        }
        4 if n > 1 => {
            for v in &mut x[..n - 1] {
                *v *= 1e-3 * (pick(state) % 2) as f64;
            }
            let i = pick(state) % (n - 1);
            let ulps = (uniform(state) * 64.0) as i64;
            x[i] =
                nudge(SCREEN_LIMIT.powf(1.0 / SCREEN_STEPS as f64), ulps).copysign(uniform(state));
        }
        _ => {}
    }
    x
}

proptest! {
    /// Three candidates evaluated in turn on ONE workspace each score
    /// exactly what the allocating evaluator scores for them alone: every
    /// kind of coefficient vector, register and buffered screens, finite
    /// and infinite caps — and nothing of an earlier evaluation (its
    /// polynomials, its innovations, an aborted recursion) leaks into the
    /// next.
    #[test]
    fn evaluator_matches_oracle_bitwise(
        pq in (0usize..=5, 0usize..=5),
        seasonal in (0usize..3, 0usize..=2, 0usize..=2),
        kinds in (0usize..5, 0usize..5, 0usize..5),
        capped in 0usize..2,
        extra in 0usize..120,
        seed in 0u64..u64::MAX,
    ) {
        let s = [0, 4, 12][seasonal.0];
        let (sp, sq) = if s == 0 { (0, 0) } else { (seasonal.1, seasonal.2) };
        let order = ArimaOrder::seasonal(pq.0, 0, pq.1, sp, 0, sq, s);
        let n = order.combined_ar_span() + 4 + extra;
        let w = centroid_like(seed, n);
        let mean = w.iter().sum::<f64>() / n as f64;
        let bound = 5.0;
        let mut state = seed ^ 0xA5A5_A5A5;
        let mut ws = CssWorkspace::new(order, n);
        for kind in [kinds.0, kinds.1, kinds.2] {
            let x = candidate(order, kind, bound, mean, &mut state);
            let cap = if capped == 0 {
                f64::INFINITY
            } else {
                10f64.powf(-4.0 + 3.0 * (uniform(&mut state) + 1.0))
            };
            let got = ws.objective(&w, &x, bound, cap);
            let want = oracle::css_objective(order, &w, &x, bound, cap);
            prop_assert!(
                same_bits(got, want),
                "{order:?} kind {kind} cap {cap}: {got:?} vs oracle {want:?} at {x:?}"
            );
        }
    }
}

#[test]
fn aborted_recursion_leaves_nothing_behind() {
    // A on a fresh workspace, then a candidate whose innovation recursion
    // passes the screens but explodes half-way through the series, then A
    // again: the third score must be the first, bit for bit.
    let order = ArimaOrder::new(1, 0, 1);
    let mut state = 7;
    let w: Vec<f64> = (0..200)
        .map(|_| 1e6 * (uniform(&mut state) + 1.0))
        .collect();
    let bound = 1e7;
    let a = [0.3, 0.2, 1e6];
    let exploding = [0.0, -1.0078, 0.0];
    let mut ws = CssWorkspace::new(order, w.len());
    let first = ws.objective(&w, &a, bound, f64::INFINITY);
    assert!(first.is_finite());
    let settled = ws.e.clone();

    assert!(ws.objective(&w, &exploding, bound, f64::INFINITY).is_nan());
    assert!(
        oracle::css_objective(order, &w, &exploding, bound, f64::INFINITY).is_nan(),
        "the oracle rejects it too"
    );
    let overwritten = ws.e.iter().zip(&settled).filter(|(x, y)| x != y).count();
    assert!(
        (50..200).contains(&overwritten),
        "the recursion must abort mid-series, leaving stale innovations: {overwritten}"
    );

    let again = ws.objective(&w, &a, bound, f64::INFINITY);
    assert_eq!(again.to_bits(), first.to_bits());
    assert_eq!(
        first.to_bits(),
        oracle::css_objective(order, &w, &a, bound, f64::INFINITY).to_bits()
    );
    assert_eq!(bits(&ws.e), bits(&settled));
}

#[test]
fn fits_and_forecasts_match_oracle_bitwise() {
    let orders = [
        ArimaOrder::new(2, 0, 1),
        ArimaOrder::new(1, 1, 1),
        ArimaOrder::new(1, 0, 0),
        ArimaOrder::new(0, 0, 2),
        ArimaOrder::new(0, 1, 0),
        ArimaOrder::new(3, 0, 2),
        ArimaOrder::seasonal(1, 0, 0, 1, 0, 0, 12),
        ArimaOrder::seasonal(1, 0, 1, 0, 0, 1, 4),
        ArimaOrder::seasonal(0, 0, 1, 1, 1, 0, 4),
    ];
    let options = ArimaFitOptions::default();
    let bound = options.coef_bound;
    let assert_same = |got: &Arima, want: &Arima, history: &[f64], what: &str| {
        let (g, w) = (
            got.fitted().expect("fitted"),
            want.fitted().expect("fitted"),
        );
        assert_eq!(bits(&g.phi), bits(&w.phi), "{what}: phi");
        assert_eq!(bits(&g.theta), bits(&w.theta), "{what}: theta");
        assert_eq!(bits(&g.sphi), bits(&w.sphi), "{what}: sphi");
        assert_eq!(bits(&g.stheta), bits(&w.stheta), "{what}: stheta");
        assert_eq!(
            bits(&[g.mu, g.sigma2, g.css, g.aicc]),
            bits(&[w.mu, w.sigma2, w.css, w.aicc]),
            "{what}: mu/sigma2/css/aicc"
        );
        let forecast = got.forecast(history, 16).expect("forecast");
        let reference = oracle::forecast(want.order(), w, history, 16).expect("oracle forecast");
        assert_eq!(bits(&forecast), bits(&reference), "{what}: forecast");
    };
    for seed in 0..54u64 {
        let order = orders[seed as usize % orders.len()];
        let history = centroid_like(seed, 60 + 10 * (seed as usize % 7));
        let mut model = Arima::with_options(order, options.clone());
        model.fit(&history).expect("fit");

        let (w, _) = difference(&history, order.d, order.sd, order.s).expect("difference");
        let mut reference = Arima::with_options(order, options.clone());
        reference
            .fit_with_objective(w.len(), mean(&w), None, f64::INFINITY, |x, cap| {
                oracle::css_objective(order, &w, x, bound, cap)
            })
            .expect("oracle fit");
        assert_same(&model, &reference, &history, &format!("seed {seed} cold"));

        // A warm refit three points later, screened by a finite cap.
        let f = model.fitted().expect("fitted");
        let (hint, cap) = (f.params(), 4.0 * f.css);
        let later = centroid_like(seed, history.len() + 3);
        let (w, _) = difference(&later, order.d, order.sd, order.s).expect("difference");
        let warm = model.fit_differenced(&w, mean(&w), Some(&hint), cap);
        let warm_reference =
            reference.fit_with_objective(w.len(), mean(&w), Some(&hint), cap, |x, cap| {
                oracle::css_objective(order, &w, x, bound, cap)
            });
        assert_eq!(warm, warm_reference, "seed {seed} warm outcome");
        assert_same(&model, &reference, &later, &format!("seed {seed} warm"));
    }
}

/// Largest single-lag coefficient the screens accept:
/// `SCREEN_STEPS` rounded multiplications by it stay within `SCREEN_LIMIT`.
const SPAN_1_THRESHOLD_BITS: u64 = 0x3ff0_202c_490f_73ad;

#[test]
fn stability_screen_boundary_is_pinned() {
    // Empty recursions are stable; an empty chain beside a live one leaves
    // the decision to the live one.
    assert!(screens(&[], &[]));
    // Known cases: stable and explosive single lags, a complex explosive
    // pair (roots ~1.04 e^{±iθ}) and a stable oscillation — on either
    // chain, and with the other chain live.
    for (coefs, stable) in [
        (&[0.9][..], true),
        (&[1.1][..], false),
        (&[1.6, -1.08][..], false),
        (&[1.2, -0.5][..], true),
    ] {
        assert_eq!(oracle::recursion_is_stable(coefs, SCREEN_STEPS), stable);
        assert_eq!(screens(coefs, &[]), stable, "AR chain {coefs:?}");
        assert_eq!(screens(&[], coefs), stable, "MA chain {coefs:?}");
        assert_eq!(screens(coefs, &[0.5, 0.2, -0.1]), stable);
        assert_eq!(screens(&[0.5, 0.2, -0.1], coefs), stable);
        assert!(!screens(coefs, &[1.1]) && !screens(&[1.1], coefs));
    }

    // Single lag: the accept/reject flip sits at one pinned double, close
    // to SCREEN_LIMIT^(1/SCREEN_STEPS), for either sign and either chain.
    let threshold = f64::from_bits(SPAN_1_THRESHOLD_BITS);
    let analytic = SCREEN_LIMIT.powf(1.0 / SCREEN_STEPS as f64);
    assert!((threshold / analytic - 1.0).abs() < 1e-12);
    for ulps in -64..=64 {
        let c = nudge(threshold, ulps);
        for c in [c, -c] {
            let want = ulps <= 0;
            assert_eq!(oracle::recursion_is_stable(&[c], SCREEN_STEPS), want);
            assert_eq!(screens(&[c], &[]), want, "AR {c:e} ({ulps} ulps)");
            assert_eq!(screens(&[], &[c]), want, "MA {c:e} ({ulps} ulps)");
        }
    }

    // Spans 1..=12 (register windows up to 8, buffered beyond): a pure
    // lag-`span` recursion x_t = c·x_{t-span}. Bisect the oracle's flip,
    // then require the same decision in its ulp-neighbourhood, on either
    // chain, alone and beside a shorter or longer live chain.
    for span in 1..=12usize {
        let lagged = |c: f64| {
            let mut coefs = vec![0.0; span];
            coefs[span - 1] = c;
            coefs
        };
        let (mut lo, mut hi) = (1.0f64, 2.0f64);
        assert!(oracle::recursion_is_stable(&lagged(lo), SCREEN_STEPS));
        assert!(!oracle::recursion_is_stable(&lagged(hi), SCREEN_STEPS));
        while nudge(lo, 1) < hi {
            let mid = f64::from_bits((lo.to_bits() + hi.to_bits()) / 2);
            if oracle::recursion_is_stable(&lagged(mid), SCREEN_STEPS) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        for ulps in -32..=32 {
            for sign in [1.0, -1.0] {
                let coefs = lagged(sign * nudge(lo, ulps));
                let want = oracle::recursion_is_stable(&coefs, SCREEN_STEPS);
                assert_eq!(screens(&coefs, &[]), want, "span {span} AR {ulps} ulps");
                assert_eq!(screens(&[], &coefs), want, "span {span} MA {ulps} ulps");
                assert_eq!(screens(&coefs, &[0.4]), want);
                assert_eq!(screens(&[0.05; 10], &coefs), want);
            }
        }
    }
}
