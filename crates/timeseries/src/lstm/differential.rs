//! Differential tests: the fused flat-buffer training path and the
//! forecast path (the inference-only forward up to hidden 16, the training
//! forward beyond, both behind the buffer-sliding closed-loop driver)
//! against the scalar [`super::oracle`] they replaced — same training
//! trajectory (per-epoch MSE), same fitted state, same forecasts. Equality
//! is exact floating-point equality, never a tolerance: the oracle runs
//! with [`Activations::OWNED`], the same `utilcast_linalg::kernels`
//! `sigmoid`/`tanh` the fused gate update calls, on the same inputs. What
//! this proves is the loop structure (blocking, fusion, buffer reuse); the
//! activation functions themselves are held to libm by the kernel's
//! envelope test and, at model level, by `libm_gate`.

use proptest::prelude::*;

use super::oracle::Activations;
use super::*;

const OWNED: Activations = Activations::OWNED;

/// A bounded synthetic utilization-like series: deterministic mix of trend,
/// seasonality, and hash noise.
fn series(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let wave = ((t as f64) * 0.35).sin() * 0.2;
            let noise = (((t as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000)
                as f64
                / 10_000.0;
            0.5 + wave + noise
        })
        .collect()
}

/// The same model fitted through the oracle and through the production path.
fn fit_pair(config: &LstmConfig, data: &[f64]) -> (Lstm, Lstm) {
    let mut exact = Lstm::new(config.clone());
    let mut fused = Lstm::new(config.clone());
    exact.fit_exact(data, OWNED).expect("oracle fit");
    fused.fit(data).expect("fused fit");
    (exact, fused)
}

proptest! {
    /// Fused training and forecasting are bitwise equal to the scalar
    /// oracle across window/hidden/layer/epoch/seed shapes.
    #[test]
    fn fused_path_bit_identical_across_shapes(
        window in 2usize..6,
        hidden in 1usize..6,
        layers in 1usize..3,
        epochs in 1usize..4,
        seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let config = LstmConfig {
            window,
            hidden,
            layers,
            epochs,
            learning_rate: 0.02,
            grad_clip: 1.0,
            seed,
        };
        let data = series(window * 4 + 24, data_seed);
        let (exact, fused) = fit_pair(&config, &data);
        // Training trajectory: the last-epoch MSE is an accumulation over
        // every per-sample forward/backward pass, so bitwise equality here
        // certifies the whole trajectory matched.
        prop_assert_eq!(
            exact.train_mse().expect("trained").to_bits(),
            fused.train_mse().expect("trained").to_bits(),
            "train_mse diverged"
        );
        prop_assert_eq!(&exact.state, &fused.state, "fitted state diverged");
        // Closed-loop multi-step forecasts feed predictions back through
        // the network, compounding any kernel difference.
        let ef = exact.forecast_exact(&data, 8, OWNED).expect("oracle forecast");
        let ff = fused.forecast(&data, 8).expect("fused forecast");
        for (h, (e, f)) in ef.iter().zip(ff.iter()).enumerate() {
            prop_assert_eq!(e.to_bits(), f.to_bits(), "forecast h={} diverged", h);
        }
    }

    /// The forecast on both sides of its width dispatch against the
    /// oracle's closed loop, bit for bit. The fitted head bias is shifted
    /// down (every prediction the ReLU's 0, the lower feedback clamp), not
    /// at all, or up (predictions past the upper feedback clamp), and the
    /// history's tail is overwritten with values beyond either input clamp,
    /// NaN and ±inf at random positions.
    #[test]
    fn forecast_bit_identical_to_the_oracle_on_both_sides_of_the_dispatch(
        hidden in 1usize..=20,
        layers in 1usize..=3,
        window in 1usize..=14,
        horizon in 0usize..=24,
        head_shift in 0usize..3,
        tail in proptest::collection::vec(0usize..24, 14),
        seed in 0u64..1000,
    ) {
        let config = LstmConfig {
            window,
            hidden,
            layers,
            epochs: 1,
            learning_rate: 0.02,
            grad_clip: 1.0,
            seed,
        };
        let mut data = series(window + 6, seed);
        let mut model = Lstm::new(config);
        model.fit(&data).expect("fit");
        model.state.as_mut().expect("fitted").head_b += [-8.0, 0.0, 8.0][head_shift];
        let n = data.len();
        for (v, &kind) in data[n - window..].iter_mut().zip(&tail) {
            match kind {
                0 => *v = -3.0,
                1 => *v = 5.0,
                2 => *v = f64::NAN,
                3 => *v = f64::INFINITY,
                4 => *v = f64::NEG_INFINITY,
                _ => {}
            }
        }
        let exact = model.forecast_exact(&data, horizon, OWNED).expect("oracle forecast");
        let fast = model.forecast(&data, horizon).expect("forecast");
        prop_assert_eq!(exact.len(), horizon);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&exact), bits(&fast), "hidden {}", hidden);
    }

    /// Both paths accept the same minimum history and reject the same short
    /// inputs.
    #[test]
    fn fused_path_same_error_surface(
        window in 2usize..6,
        seed in 0u64..100,
    ) {
        let config = LstmConfig {
            window,
            hidden: 3,
            layers: 1,
            epochs: 1,
            learning_rate: 0.02,
            grad_clip: 1.0,
            seed,
        };
        let short = series(window, seed); // too short: needs window + 2
        let mut exact = Lstm::new(config.clone());
        let mut fused = Lstm::new(config);
        prop_assert_eq!(exact.fit_exact(&short, OWNED), fused.fit(&short));
    }
}

/// The headline contract at the benchmark's width (hidden 8) and the
/// default one (16): identical weights, MSE and forecasts, bit for bit.
#[test]
fn fused_path_bit_identical_at_production_widths() {
    let data: Vec<f64> = (0..120)
        .map(|t| 0.4 + 0.3 * (t as f64 * 0.21).sin() + 0.01 * (t % 7) as f64)
        .collect();
    for hidden in [8, 16] {
        let config = LstmConfig {
            window: 8,
            hidden,
            epochs: 3,
            learning_rate: 0.02,
            seed: 3,
            ..Default::default()
        };
        let (exact, fused) = fit_pair(&config, &data);
        assert_eq!(exact.state, fused.state, "hidden {hidden}");
        assert_eq!(
            exact.forecast_exact(&data, 8, OWNED).unwrap(),
            fused.forecast(&data, 8).unwrap(),
            "hidden {hidden}"
        );
    }
}

/// A fit → refit → refit chain through both paths over the one training
/// seam: the warm start, the window rule and the derived shuffle stream are
/// shared, so every link of the chain — weights, training MSE and a 16-step
/// closed-loop forecast — agrees bit for bit. The first refit grows the
/// history by 16 points (the benchmark's cadence), the second by 44, more
/// than the replay tail.
#[test]
fn refit_chain_bit_identical() {
    let data = series(160, 11);
    for hidden in [3, 8] {
        let config = LstmConfig {
            window: 8,
            hidden,
            epochs: 2,
            learning_rate: 0.02,
            seed: 5,
            ..Default::default()
        };
        let (mut exact, mut fused) = fit_pair(&config, &data[..100]);
        for len in [116, 160] {
            exact
                .refit_exact(&data[..len], OWNED)
                .expect("oracle refit");
            fused.refit(&data[..len]).expect("fused refit");
            let tag = format!("hidden {hidden}, refit at {len}");
            assert_eq!(exact.state, fused.state, "{tag}");
            assert_eq!(
                exact.train_mse().expect("trained").to_bits(),
                fused.train_mse().expect("trained").to_bits(),
                "{tag}"
            );
            let ef = exact.forecast_exact(&data[..len], 16, OWNED).unwrap();
            let ff = fused.forecast(&data[..len], 16).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ef), bits(&ff), "{tag}");
        }
    }
}

/// Forecast feedback clamps engage on out-of-range data; the clamp path
/// must also be bit-identical.
#[test]
fn fused_path_bit_identical_with_clamped_feedback() {
    let config = LstmConfig {
        window: 4,
        hidden: 4,
        layers: 2,
        epochs: 3,
        learning_rate: 0.05,
        grad_clip: 0.5,
        seed: 7,
    };
    // Data hugging the range edges so normalized values hit the clamps.
    let data: Vec<f64> = (0..40)
        .map(|t| if t % 7 < 3 { 0.001 } else { 0.999 })
        .collect();
    let (exact, fused) = fit_pair(&config, &data);
    let ef = exact
        .forecast_exact(&data, 12, OWNED)
        .expect("oracle forecast");
    let ff = fused.forecast(&data, 12).expect("fused forecast");
    assert_eq!(ef, ff);
}

/// Numerical gradient check of the oracle's layer backward pass: perturb
/// one weight and compare the finite difference against the analytic
/// gradient.
#[test]
fn gradient_check_oracle_layer() {
    let mut rng = StdRng::seed_from_u64(9);
    let layer = LstmLayer::new(1, 4, &mut rng);
    let seq: Vec<Vec<f64>> = vec![vec![0.3], vec![-0.1], vec![0.5]];
    // Loss = sum of final hidden state.
    let loss = |l: &LstmLayer| -> f64 { l.forward(&seq, OWNED).hs.last().unwrap().iter().sum() };
    let cache = layer.forward(&seq, OWNED);
    let mut dh = vec![vec![0.0; 4]; 3];
    dh[2] = vec![1.0; 4];
    let (grads, _) = layer.backward(&cache, &dh, OWNED);
    // Check a few wx entries and a bias entry.
    let eps = 1e-6;
    let b_offset = layer.b_offset();
    for idx in [0usize, 3, 7, b_offset + 2] {
        let mut lp = layer.clone();
        lp.params[idx] += eps;
        let mut lm = layer.clone();
        lm.params[idx] -= eps;
        let numeric = (loss(&lp) - loss(&lm)) / (2.0 * eps);
        assert!(
            (numeric - grads[idx]).abs() < 1e-5,
            "param[{idx}]: numeric {numeric} vs analytic {}",
            grads[idx]
        );
    }
}
