//! Contract tests: every `Forecaster` implementation must satisfy the same
//! behavioural contract the pipeline relies on.

use utilcast_timeseries::arima::{Arima, ArimaOrder, AutoArima};
use utilcast_timeseries::baselines::{Drift, LongTermMean, SampleAndHold};
use utilcast_timeseries::ets::{EtsConfig, HoltWinters};
use utilcast_timeseries::lstm::{Lstm, LstmConfig};
use utilcast_timeseries::{Forecaster, TimeSeriesError};

/// A centroid-like training series: diurnal + AR noise, unit range.
fn series(n: usize) -> Vec<f64> {
    let mut x = 0.4f64;
    (0..n)
        .map(|t| {
            // Deterministic pseudo-noise so the test needs no RNG dep.
            let e = (((t * 2654435761) % 1000) as f64 / 1000.0 - 0.5) * 0.04;
            x = (0.5 + 0.9 * (x - 0.5) + e).clamp(0.0, 1.0);
            (x + 0.1 * (t as f64 / 48.0 * std::f64::consts::TAU).sin()).clamp(0.0, 1.0)
        })
        .collect()
}

fn all_models() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(SampleAndHold::new()),
        Box::new(LongTermMean::new()),
        Box::new(Drift::new()),
        Box::new(Arima::new(ArimaOrder::new(1, 0, 0))),
        Box::new(Arima::new(ArimaOrder::new(1, 1, 1))),
        Box::new(AutoArima::quick()),
        Box::new(HoltWinters::new(EtsConfig::default())),
        Box::new(HoltWinters::new(EtsConfig {
            period: 48,
            ..Default::default()
        })),
        Box::new(Lstm::new(LstmConfig {
            epochs: 5,
            hidden: 8,
            window: 8,
            ..Default::default()
        })),
    ]
}

#[test]
fn unfitted_models_refuse_to_forecast() {
    let hist = series(300);
    for model in all_models() {
        assert!(
            matches!(model.forecast(&hist, 3), Err(TimeSeriesError::NotFitted)),
            "{} must require fit before forecast",
            model.name()
        );
    }
}

#[test]
fn fitted_models_produce_requested_horizon() {
    let hist = series(400);
    for mut model in all_models() {
        model
            .fit(&hist)
            .unwrap_or_else(|e| panic!("{} fit: {e}", model.name()));
        for horizon in [1usize, 7, 50] {
            let fc = model
                .forecast(&hist, horizon)
                .unwrap_or_else(|e| panic!("{} forecast: {e}", model.name()));
            assert_eq!(fc.len(), horizon, "{}", model.name());
            assert!(
                fc.iter().all(|v| v.is_finite()),
                "{} produced non-finite forecasts",
                model.name()
            );
        }
        // Zero horizon is always the empty vector.
        assert!(
            model.forecast(&hist, 0).unwrap().is_empty(),
            "{}",
            model.name()
        );
    }
}

#[test]
fn forecasts_stay_in_a_sane_range() {
    // Unit-range input: no model may forecast wildly outside it, even at
    // long horizons (this is the regression test for the explosive-ARIMA
    // and drifting-LSTM bugs found during development).
    let hist = series(500);
    for mut model in all_models() {
        model.fit(&hist).unwrap();
        let fc = model.forecast(&hist, 100).unwrap();
        for (h, v) in fc.iter().enumerate() {
            assert!(
                (-1.0..=2.0).contains(v),
                "{} forecast at h={h} is {v}",
                model.name()
            );
        }
    }
}

#[test]
fn models_are_refittable_on_grown_history() {
    // The retraining protocol refits the same model object on a longer
    // history; every model must support that.
    let hist = series(600);
    for mut model in all_models() {
        model.fit(&hist[..300]).unwrap();
        let early = model.forecast(&hist[..300], 2).unwrap();
        model.fit(&hist).unwrap();
        let late = model.forecast(&hist, 2).unwrap();
        assert_eq!(early.len(), 2, "{}", model.name());
        assert_eq!(late.len(), 2, "{}", model.name());
    }
}

#[test]
fn refit_is_fit_unless_a_model_says_otherwise() {
    // `Forecaster::refit` defaults to `fit`. On an unfitted model that
    // holds, bit for bit, for every implementation. On a fitted one it holds
    // for every implementation but three that continue from the outgoing fit
    // and must still land next to the cold one: the fixed-order ARIMA (from
    // its coefficients), the auto-ARIMA (each grid order from its
    // warm-start table) and the LSTM (from its weights, on the new windows
    // plus a replay tail). The LSTM's band is looser: its cold fit here is
    // 5 epochs from random weights, its refit 5 more from the outgoing
    // ones, and the two differ by what those epochs learned.
    let hist = series(600);
    let bits = |fc: Vec<f64>| fc.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for (mut fitted, mut refitted) in all_models().into_iter().zip(all_models()) {
        let name = fitted.name();
        fitted.fit(&hist[..300]).unwrap();
        refitted.refit(&hist[..300]).unwrap();
        assert_eq!(
            bits(fitted.forecast(&hist[..300], 8).unwrap()),
            bits(refitted.forecast(&hist[..300], 8).unwrap()),
            "{name}: refit of an unfitted model"
        );
        fitted.fit(&hist).unwrap();
        refitted.refit(&hist).unwrap();
        let (cold, warm) = (
            fitted.forecast(&hist, 8).unwrap(),
            refitted.forecast(&hist, 8).unwrap(),
        );
        let band = match name {
            "arima" | "auto-arima" => Some(0.02),
            "lstm" => Some(0.05),
            _ => None,
        };
        if let Some(band) = band {
            for (h, (c, w)) in cold.iter().zip(&warm).enumerate() {
                assert!((c - w).abs() < band, "{name} h={h}: cold {c} vs warm {w}");
            }
        } else {
            assert_eq!(bits(cold), bits(warm), "{name}: refit of a fitted model");
        }
    }
}

#[test]
fn names_are_stable_and_distinct_enough() {
    let names: Vec<&str> = all_models().iter().map(|m| m.name()).collect();
    // Two Arima orders share a name, and the two HoltWinters configs do;
    // the distinct *families* must have distinct names.
    let mut families = names.clone();
    families.sort_unstable();
    families.dedup();
    assert!(families.len() >= 6, "families: {families:?}");
    assert!(names.iter().all(|n| !n.is_empty()));
}
