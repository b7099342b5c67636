//! Differential tests: the workspace evaluator, the stability screens and
//! the forecast recursion against the allocating [`super::oracle`] they
//! replaced, compared by `f64::to_bits` (NaN for NaN); and the stability
//! certificate against the impulse-response loop it stands in for.

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
    centroid_at(0.1 + 0.08 * (seed % 10) as f64, seed, n)
}

/// The centroid-like series of the root `tests/arima_fit_golden.rs`: its
/// level steps by 0.25 a seed.
fn golden_series(seed: u64, n: usize) -> Vec<f64> {
    centroid_at(0.2 + 0.25 * seed as f64, seed, n)
}

/// [`centroid_like`] around a given level.
fn centroid_at(level: f64, seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
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

#[test]
fn certificate_decides_as_the_loop_on_every_golden_fit_candidate() {
    // The golden file's three orders and the quick grid's, each fitted
    // cold on the golden series (120 points) and refitted warm on 168,
    // through the production objective. Every in-domain candidate
    // Nelder–Mead visits is screened twice more on its own workspace: by
    // `screens_pass` (certificate, then loop) and by the loop alone, which
    // must also be the allocating oracle's decision on each chain.
    let options = ArimaFitOptions::default();
    let bound = options.coef_bound;
    let mut orders = vec![
        ArimaOrder::new(2, 0, 1),
        ArimaOrder::new(1, 1, 1),
        ArimaOrder::seasonal(1, 0, 0, 1, 0, 0, 12),
    ];
    orders.extend(ArimaGrid::quick().orders());
    let (mut visited, mut passing, mut certified) = (0usize, 0usize, 0usize);
    for seed in 1..=3u64 {
        let series = golden_series(seed, 168);
        for &order in &orders {
            let mut model = Arima::with_options(order, options.clone());
            for (len, warm) in [(120, false), (168, true)] {
                let (w, _) =
                    difference(&series[..len], order.d, order.sd, order.s).expect("difference");
                let hint = model.fitted().filter(|_| warm).map(FittedArima::params);
                let mut reference = model.clone();
                let (mut ws, mut probe) = (
                    CssWorkspace::new(order, w.len()),
                    CssWorkspace::new(order, 0),
                );
                model
                    .fit_with_objective(
                        w.len(),
                        mean(&w),
                        hint.as_deref(),
                        f64::INFINITY,
                        |x, cap| {
                            if in_domain(x, bound) {
                                let (phi, theta, sphi, stheta, _) = split_params(order, x);
                                probe.load(phi, theta, sphi, stheta);
                                let by_certificate =
                                    certified_stable(&probe.ar) && certified_stable(&probe.neg_ma);
                                let by_loop = probe.screens_loop();
                                assert_eq!(probe.screens_pass(), by_loop, "{order:?} at {x:?}");
                                assert!(!by_certificate || by_loop, "{order:?} at {x:?}");
                                assert_eq!(
                                    by_loop,
                                    oracle::recursion_is_stable(&probe.ar, SCREEN_STEPS)
                                        && oracle::recursion_is_stable(&probe.neg_ma, SCREEN_STEPS),
                                    "{order:?} at {x:?}"
                                );
                                visited += 1;
                                passing += usize::from(by_loop);
                                certified += usize::from(by_certificate);
                            }
                            ws.objective(&w, x, bound, cap)
                        },
                    )
                    .expect("fit");
                // The wrapped objective drove the production trajectory.
                let refit = if warm {
                    reference.refit(&series[..len])
                } else {
                    reference.fit(&series[..len])
                };
                refit.expect("production fit");
                assert_eq!(model.fitted(), reference.fitted(), "{order:?} seed {seed}");
                if (seed, order, warm) == (1, orders[0], false) {
                    // The golden table's first row: these are its series.
                    let mu = model.fitted().expect("fitted").mu;
                    assert_eq!(mu.to_bits(), 0x3fdc_c03b_4c95_07b1);
                }
            }
        }
    }
    assert!(visited > 10_000, "only {visited} candidates");
    assert!(certified > 0);
    println!(
        "{visited} in-domain candidates, {passing} pass the loop, {certified} certified \
         ({:.1} % of the passing)",
        100.0 * certified as f64 / passing as f64
    );
}

/// Runs `lanes` through the certificate and the loop; returns (lanes,
/// certified, violations): a violation is a lane certified that the loop
/// rejects.
fn sweep(lanes: impl Iterator<Item = [f64; 2]>) -> (usize, usize, usize) {
    let (mut total, mut certified, mut violations) = (0, 0, 0);
    for lane in lanes {
        let coefs: &[f64] = if lane[1].abs() > 0.0 {
            &lane
        } else {
            &lane[..1]
        };
        total += 1;
        if certified_stable(coefs) {
            certified += 1;
            if !screen_windows::<2>(coefs, &[]) {
                violations += 1;
                eprintln!("violation: {coefs:?}");
            }
        }
    }
    (total, certified, violations)
}

/// The sweep's lane families at `scale` (1 = the full release sweep):
/// uniform lag-2 and lag-1 boxes around the stable region, then the
/// boundary families — near-double real roots, complex pairs at a small
/// angle, one root just above 1 (within the loop's slack), and the ulp
/// neighbourhood of the single-lag threshold.
fn sweep_families(scale: usize, seed: u64) -> Vec<(&'static str, Vec<[f64; 2]>)> {
    let mut state = seed;
    let mut u = |lo: f64, hi: f64| lo + (hi - lo) * 0.5 * (uniform(&mut state) + 1.0);
    let box2 = (0..scale).map(|_| [u(-2.1, 2.1), u(-1.1, 1.1)]).collect();
    let box1 = (0..scale / 4).map(|_| [u(-1.1, 1.1), 0.0]).collect();
    let double = (0..scale / 8)
        .map(|_| {
            let r = u(0.97, 1.008) * if u(-1.0, 1.0) < 0.0 { -1.0 } else { 1.0 };
            let spread = u(0.0, 1e-3) * u(0.0, 1.0).powi(4);
            [2.0 * r + spread, -(r * r)]
        })
        .collect();
    let complex = (0..scale / 8)
        .map(|_| {
            let (rho, angle) = (u(0.97, 1.008), u(0.0, 0.05));
            [2.0 * rho * angle.cos(), -(rho * rho)]
        })
        .collect();
    let above_one = (0..scale / 8)
        .map(|_| {
            let (r1, r2) = (u(1.0, 1.0079), u(-1.0, 1.0));
            let r1 = if u(-1.0, 1.0) < 0.0 { -r1 } else { r1 };
            [r1 + r2, -(r1 * r2)]
        })
        .collect();
    let threshold = f64::from_bits(SPAN_1_THRESHOLD_BITS);
    let mut edge = Vec::new();
    for ulps in -64..=64 {
        for c in [nudge(threshold, ulps), -nudge(threshold, ulps)] {
            edge.push([c, 0.0]);
            for tail in [1e-300, 1e-120, 1e-90, 1e-6, -1e-6] {
                edge.push([c, tail]);
            }
        }
    }
    vec![
        ("uniform lag-2", box2),
        ("uniform lag-1", box1),
        ("near-double roots", double),
        ("small-angle complex pairs", complex),
        ("one root in (1, 1.0079]", above_one),
        ("single-lag threshold ± 64 ulps", edge),
    ]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: cargo test --release")]
fn certificate_never_passes_what_the_loop_rejects() {
    let mut lanes = 0;
    for (family, family_lanes) in sweep_families(1_000_000, 0x5EED_CE27) {
        let (total, certified, violations) = sweep(family_lanes.into_iter());
        println!(
            "{family}: {total} lanes, certified {certified} ({:.1} %), violations {violations}",
            100.0 * certified as f64 / total as f64
        );
        assert_eq!(violations, 0, "{family}");
        lanes += total;
    }
    assert!(lanes >= 1_000_000);
}

#[test]
fn certificate_sweep_smoke_and_its_reach() {
    for (family, family_lanes) in sweep_families(4_000, 11) {
        let (_, _, violations) = sweep(family_lanes.into_iter());
        assert_eq!(violations, 0, "{family}");
    }
    // Certified: empty and zero recursions, a stable single lag well inside
    // the boundary, a damped oscillation.
    for coefs in [
        &[][..],
        &[0.0],
        &[0.0, 0.0],
        &[0.9],
        &[-1.007],
        &[1.2, -0.5],
    ] {
        assert!(certified_stable(coefs), "{coefs:?}");
    }
    // Not settled: spans beyond 2, non-finite, too large or sub-1e-100
    // coefficients, and the ulp-neighbourhood of the threshold, which the
    // loop alone decides.
    let threshold = f64::from_bits(SPAN_1_THRESHOLD_BITS);
    for coefs in [
        &[0.1, 0.0, 0.0][..],
        &[f64::NAN],
        &[0.5, f64::INFINITY],
        &[2.6, -0.5],
        &[0.5, 1e-200],
        &[threshold],
        &[nudge(threshold, -64)],
        &[1.1],
    ] {
        assert!(!certified_stable(coefs), "{coefs:?}");
    }
    // A seasonal workspace never reaches the certificate's spans.
    let mut ws = CssWorkspace::new(ArimaOrder::seasonal(1, 0, 0, 1, 0, 0, 4), 0);
    ws.load(&[0.2], &[], &[0.3], &[]);
    assert!(ws.ar.len() > 2 && !certified_stable(&ws.ar));
    assert_eq!(ws.screens_pass(), ws.screens_loop());
}
