//! Warm-start ARIMA regression tests (ISSUE 4 satellite): a warm-started
//! retrain must match a cold-start retrain within tolerance on AR(1),
//! MA(1), and drift series, and a poisoned warm hint must fall back to the
//! cold path exactly.
//!
//! The second half gates `Forecaster::refit` on a fixed-order `Arima` — a
//! retrained model continuing from the one it replaces — on the
//! distribution of warm/cold CSS and forecast error over seeded fleet-like
//! centroid series.

use rand::rngs::StdRng;
use rand::SeedableRng;
use utilcast_linalg::rng::standard_normal;
use utilcast_timeseries::arima::{
    auto_arima_warm, Arima, ArimaFitOptions, ArimaGrid, ArimaOrder, ArimaWarmStart,
};
use utilcast_timeseries::Forecaster;

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

fn ma1_series(n: usize, theta: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let es: Vec<f64> = (0..n + 1)
        .map(|_| 0.1 * standard_normal(&mut rng))
        .collect();
    (1..=n).map(|t| es[t] + theta * es[t - 1]).collect()
}

fn drift_series(n: usize, slope: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|t| t as f64 * slope + 0.05 * standard_normal(&mut rng))
        .collect()
}

/// Simulates one retrain cycle: fit on the first `n - extend` points to
/// populate the warm table, then refit on the full series both warm and
/// cold, and compare the selections.
fn assert_warm_matches_cold(series: &[f64], extend: usize, tag: &str) {
    let grid = ArimaGrid::quick();
    let options = ArimaFitOptions::default();
    let initial = &series[..series.len() - extend];

    let mut warm = ArimaWarmStart::default();
    auto_arima_warm(initial, &grid, &options, &mut warm).expect("initial fit");
    assert!(!warm.is_empty(), "{tag}: initial fit must seed the table");

    let warm_model = auto_arima_warm(series, &grid, &options, &mut warm).expect("warm refit");
    let cold_model = auto_arima_warm(series, &grid, &options, &mut ArimaWarmStart::default())
        .expect("cold refit");

    assert_eq!(
        warm_model.order(),
        cold_model.order(),
        "{tag}: warm and cold retrains must select the same order"
    );
    let wa = warm_model.fitted().expect("fitted").aicc;
    let ca = cold_model.fitted().expect("fitted").aicc;
    assert!(
        (wa - ca).abs() < 0.5,
        "{tag}: warm aicc {wa} vs cold aicc {ca}"
    );
    let wf = warm_model.forecast(series, 6).expect("warm forecast");
    let cf = cold_model.forecast(series, 6).expect("cold forecast");
    for (h, (w, c)) in wf.iter().zip(cf.iter()).enumerate() {
        assert!(
            (w - c).abs() < 0.02,
            "{tag}: h={h} warm forecast {w} vs cold {c}"
        );
    }
}

#[test]
fn warm_retrain_matches_cold_on_ar1() {
    assert_warm_matches_cold(&ar1_series(320, 0.7, 101), 20, "ar1");
}

#[test]
fn warm_retrain_matches_cold_on_ma1() {
    assert_warm_matches_cold(&ma1_series(320, 0.6, 103), 20, "ma1");
}

#[test]
fn warm_retrain_matches_cold_on_drift() {
    assert_warm_matches_cold(&drift_series(320, 0.05, 107), 20, "drift");
}

#[test]
fn poisoned_warm_hint_falls_back_to_cold_exactly() {
    // A malformed warm hint (non-finite coefficients) must be rejected
    // before the optimizer runs, so the result is bitwise identical to a
    // cold search.
    let series = ar1_series(300, 0.7, 109);
    let grid = ArimaGrid::quick();
    let options = ArimaFitOptions::default();

    let mut poisoned = ArimaWarmStart::default();
    for order in grid.orders() {
        poisoned.put(order, vec![f64::NAN; order.num_coefficients()]);
    }
    let from_poisoned =
        auto_arima_warm(&series, &grid, &options, &mut poisoned).expect("poisoned fit");
    let cold = auto_arima_warm(&series, &grid, &options, &mut ArimaWarmStart::default())
        .expect("cold fit");
    assert_eq!(from_poisoned.order(), cold.order());
    assert_eq!(
        from_poisoned.fitted(),
        cold.fitted(),
        "fallback must be exact"
    );
}

#[test]
fn out_of_bound_warm_hint_falls_back_to_cold_exactly() {
    // Coefficients outside the optimizer's domain bound are equally
    // rejected up front.
    let series = ar1_series(300, 0.6, 113);
    let grid = ArimaGrid::quick();
    let options = ArimaFitOptions::default();

    let mut poisoned = ArimaWarmStart::default();
    for order in grid.orders() {
        poisoned.put(
            order,
            vec![options.coef_bound * 10.0; order.num_coefficients()],
        );
    }
    let from_poisoned =
        auto_arima_warm(&series, &grid, &options, &mut poisoned).expect("poisoned fit");
    let cold = auto_arima_warm(&series, &grid, &options, &mut ArimaWarmStart::default())
        .expect("cold fit");
    assert_eq!(
        from_poisoned.fitted(),
        cold.fitted(),
        "fallback must be exact"
    );
}

#[test]
fn warm_hint_of_wrong_arity_is_ignored() {
    let series = ar1_series(300, 0.5, 127);
    let grid = ArimaGrid::quick();
    let options = ArimaFitOptions::default();

    let mut poisoned = ArimaWarmStart::default();
    for order in grid.orders() {
        // One coefficient too many: must be skipped, not sliced.
        poisoned.put(order, vec![0.1; order.num_coefficients() + 1]);
    }
    let from_poisoned =
        auto_arima_warm(&series, &grid, &options, &mut poisoned).expect("poisoned fit");
    let cold = auto_arima_warm(&series, &grid, &options, &mut ArimaWarmStart::default())
        .expect("cold fit");
    assert_eq!(from_poisoned.fitted(), cold.fitted());
}

#[test]
fn warm_table_survives_and_updates_across_retrains() {
    let series = ar1_series(400, 0.8, 131);
    let grid = ArimaGrid::quick();
    let options = ArimaFitOptions::default();
    let mut warm = ArimaWarmStart::default();
    auto_arima_warm(&series[..300], &grid, &options, &mut warm).expect("fit 1");
    let after_first = warm.len();
    auto_arima_warm(&series[..350], &grid, &options, &mut warm).expect("fit 2");
    auto_arima_warm(&series, &grid, &options, &mut warm).expect("fit 3");
    assert!(
        warm.len() >= after_first,
        "table never shrinks across retrains"
    );
    assert!(
        warm.len() <= grid.orders().len(),
        "at most one entry per grid order"
    );
    // The retained solution for the selected order is usable as a hint.
    let best = auto_arima_warm(&series, &grid, &options, &mut warm).expect("fit 4");
    let hint = warm.get(best.order()).expect("winner must be cached");
    assert_eq!(hint.len(), best.order().num_coefficients());
    assert!(hint.iter().all(|v| v.is_finite()));
}

/// SplitMix64 step mapped to a uniform in `[-a, a)`.
fn sym(state: &mut u64, a: f64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 52) as f64 - 1.0) * a
}

/// A centroid series shaped like the end-to-end benchmark's fleet
/// (`benchmark/src/fleet.rs`): a group mean in `[0.1, 0.9]`, the shared
/// period-288 diurnal term, an AR(1) level with uniform innovations, and
/// what is left of the per-node noise after averaging ~100 nodes. From
/// `flip_at` on the level's autoregression changes sign — a regime change.
fn fleet_centroid(seed: u64, n: usize, flip_at: Option<usize>) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x5EED;
    let mean = 0.1 + 0.8 * (seed % 10) as f64 / 9.0;
    let mut level = 0.0;
    (0..n)
        .map(|t| {
            let rho = if flip_at.is_some_and(|at| t >= at) {
                -0.9
            } else {
                0.9
            };
            level = rho * level + sym(&mut state, 0.004);
            let diurnal = 0.05 * (std::f64::consts::TAU * t as f64 / 288.0).sin();
            mean + diurnal + level + sym(&mut state, 0.001)
        })
        .collect()
}

const FIRST_FIT: usize = 72;
const RETRAIN_EVERY: usize = 48;
const REFITS: usize = 4;

/// `q`-quantile of `values` (sorts them).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

/// A chain of `refit`s compared with fresh cold fits at the same lengths.
#[derive(Default)]
struct ChainVsCold {
    /// Warm CSS over cold CSS, one per refit.
    css_ratio: Vec<f64>,
    /// Warm over cold h8 forecast RMSE, one per refit.
    h8_ratio: Vec<f64>,
    /// Squared forecast errors pooled over all refits:
    /// `[warm h1, warm h8, cold h1, cold h8]`.
    pooled: [f64; 4],
}

/// Fits at `FIRST_FIT` points, then `refit`s every `RETRAIN_EVERY` points
/// beside a fresh cold fit of the same length; both models forecast from
/// every point until the next retrain, as the harness would have them.
fn refit_chain_vs_cold(series_count: u64, flip_at: Option<usize>) -> ChainVsCold {
    let order = ArimaOrder::new(2, 0, 1);
    let n = FIRST_FIT + (REFITS + 1) * RETRAIN_EVERY + 8;
    let mut out = ChainVsCold::default();
    for seed in 0..series_count {
        let series = fleet_centroid(seed, n, flip_at);
        let mut chain = Arima::new(order);
        chain.fit(&series[..FIRST_FIT]).expect("first fit");
        for r in 1..=REFITS {
            let len = FIRST_FIT + r * RETRAIN_EVERY;
            chain.refit(&series[..len]).expect("warm refit");
            let mut cold = Arima::new(order);
            cold.fit(&series[..len]).expect("cold fit");
            let css = |m: &Arima| m.fitted().expect("fitted").css;
            out.css_ratio.push(css(&chain) / css(&cold));
            let mut sq_err = [0.0f64; 4];
            for t in len..len + RETRAIN_EVERY {
                for (slot, model) in [(0, &chain), (2, &cold)] {
                    let fc = model.forecast(&series[..t], 8).expect("forecast");
                    sq_err[slot] += (fc[0] - series[t]).powi(2);
                    sq_err[slot + 1] += (fc[7] - series[t + 7]).powi(2);
                }
            }
            out.h8_ratio.push((sq_err[1] / sq_err[3]).sqrt());
            for (total, e) in out.pooled.iter_mut().zip(sq_err) {
                *total += e;
            }
        }
    }
    out
}

#[test]
fn refit_chain_tracks_cold_fits_on_fleet_like_centroids() {
    // The CSS surface of an ARMA(2,1) on 100-300 points is multi-modal: an
    // 80-evaluation continuation and a 600-evaluation cold search can end
    // in different basins, and in a quarter of the refits it is the
    // continuation that ends lower — so the gate is on the distribution,
    // not on any one series.
    let mut run = refit_chain_vs_cold(240, None);
    assert_eq!(run.css_ratio.len(), 240 * REFITS);
    let [p01, p50, p90, p99] = [0.01, 0.50, 0.90, 0.99].map(|q| quantile(&mut run.css_ratio, q));
    let wins = run.css_ratio.iter().filter(|r| **r < 1.0).count();
    println!(
        "warm/cold CSS: p1 {p01:.4} p50 {p50:.4} p90 {p90:.4} p99 {p99:.4}, \
         warm below cold in {wins} of {}",
        run.css_ratio.len()
    );
    assert!((p50 - 1.0).abs() <= 0.01, "median CSS ratio {p50}");
    assert!(p90 <= 1.06, "p90 CSS ratio {p90}");
    assert!(p01 < 1.0, "the continuation wins sometimes too: p1 {p01}");

    // Forecast error. The pooled sums are dominated by a few dozen fits
    // that sit on the invertibility boundary (θ ≈ -1.008, the screen's
    // slack), which the cold search reaches more often than the
    // continuation — so pooled, warm may be (and here is) better than cold
    // by more than 2 %; the gate is that it is not worse by more. The
    // typical refit is gated two-sided on the median per-refit ratio.
    let [w1, w8, c1, c8] = run.pooled;
    let (h1, h8) = ((w1 / c1).sqrt(), (w8 / c8).sqrt());
    let h8_median = quantile(&mut run.h8_ratio, 0.50);
    println!("warm/cold forecast RMSE: pooled h1 {h1:.4} h8 {h8:.4}, median h8 {h8_median:.4}");
    assert!(h1 <= 1.02, "pooled h1 RMSE ratio {h1}");
    assert!(h8 <= 1.02, "pooled h8 RMSE ratio {h8}");
    assert!(
        (h8_median - 1.0).abs() <= 0.02,
        "median per-refit h8 RMSE ratio {h8_median}"
    );
}

#[test]
fn refit_after_a_regime_change_is_recorded_not_guaranteed() {
    // The level's autoregression flips sign in the middle of the chain, so
    // the hints of the last two refits come from a process that no longer
    // exists. The continuation then trails the cold search by far more
    // than the steady-state gate allows (this generator: p90 1.60,
    // p99 3.07 — DESIGN.md §8 "Warm refits"); that tail is a documented
    // non-guarantee, and a caller who knows of such a break calls `fit`.
    // What is guaranteed is that every refit still ends in a usable model.
    let flip = FIRST_FIT + 2 * RETRAIN_EVERY + RETRAIN_EVERY / 2;
    let mut run = refit_chain_vs_cold(120, Some(flip));
    let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| quantile(&mut run.css_ratio, q));
    println!("regime change, warm/cold CSS: p50 {p50:.4} p90 {p90:.4} p99 {p99:.4}");
    assert!(run.css_ratio.iter().all(|r| r.is_finite() && *r > 0.0));
    assert!(run.pooled.iter().all(|e| e.is_finite()));
}
