//! Quality gate at model level: the production LSTM, on the owned
//! `utilcast_linalg::kernels::{sigmoid, tanh}`, against the oracle run on
//! libm's `exp`/`tanh` — what the LSTM computed before it owned its
//! activations.
//!
//! Each call differs from libm's by at most `4.4e-16` (the kernel's
//! envelope test), but training feeds those differences back through
//! hundreds of Adam steps, so fitted weights and forecasts differ too. The
//! gate states the distribution of those differences, both ways, on 64
//! seeded fleet-like series at the benchmark's width (hidden 8, epochs 2,
//! 120 points) and at the default configuration (hidden 16, epochs 40, 48
//! points), and asserts that the pooled forecast RMSE against each series'
//! continuation stays within ±1 % of libm's.
//!
//! Measured on x86-64 Linux (glibc libm), `|Δ|` owned vs libm:
//!
//! | config | train_mse p50 / max | h1 p50 / max | h8 p50 / max | h1, h8 bit-equal |
//! |---|---|---|---|---|
//! | hidden 8, epochs 2 | 6.1e-18 / 2.3e-16 | 0 / 6.7e-16 | 5.6e-17 / 2.4e-15 | 37, 25 of 64 |
//! | default | 7.8e-18 / 2.7e-16 | 5.6e-17 / 1.0e-15 | 3.1e-16 / 1.9e-14 | 21, 7 of 64 |
//!
//! Both ways: the owned forecast ends closer to the continuation than
//! libm's on 16 (h1) and 22 (h8) series at hidden 8 and libm's on 11 and
//! 17 (the rest tie); at the default configuration 21 / 25 against 22 / 32.
//! Pooled RMSE owned/libm reads 1.000000 at h1 and h8 in both.
//!
//! Not guaranteed: any per-series bound, or that these magnitudes hold for
//! longer trainings. A training is a chaotic map of its inputs — `|Δ h8|`
//! already grows tenfold from 2 to 40 epochs above — and a last-bit
//! difference in one gate can grow until the two trainings follow
//! different trajectories, after which one series' forecast may move by far
//! more than the envelope and which side ends closer to the continuation
//! is a coin toss. The pooled accuracy is what the gate holds.
//!
//! The default-configuration half is a few minutes unoptimised, so it runs
//! in release builds only (`cargo test --release -p utilcast-timeseries
//! --lib lstm::`, part of `scripts/check.sh`).

use super::oracle::Activations;
use super::*;

/// SplitMix64 step mapped to a uniform in `[-a, a)`.
fn sym(state: &mut u64, a: f64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 52) as f64 - 1.0) * a
}

/// A centroid series shaped like the end-to-end benchmark's fleet: a group
/// mean in `[0.1, 0.9]`, a diurnal term (period 48 here, so a short history
/// holds whole cycles), an AR(1) level and what is left of the per-node
/// noise after averaging.
fn fleet_centroid(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x5EED;
    let mean = 0.1 + 0.8 * (seed % 10) as f64 / 9.0;
    let mut level = 0.0;
    (0..n)
        .map(|t| {
            level = 0.9 * level + sym(&mut state, 0.004);
            let diurnal = 0.05 * (std::f64::consts::TAU * t as f64 / 48.0).sin();
            mean + diurnal + level + sym(&mut state, 0.001)
        })
        .collect()
}

const SERIES: u64 = 64;
const HORIZON: usize = 8;

/// One configuration's comparison over the seeded series.
#[derive(Default)]
struct Gate {
    /// `|Δ|` owned vs libm, one per series: train MSE, 1- and 8-step
    /// forecasts.
    d_mse: Vec<f64>,
    d_h1: Vec<f64>,
    d_h8: Vec<f64>,
    /// Series on which the owned forecast ends closer to the continuation
    /// than libm's, and the other way round: `[h1, h8]`.
    owned_closer: [usize; 2],
    libm_closer: [usize; 2],
    /// Squared forecast errors pooled over the series:
    /// `[owned h1, owned h8, libm h1, libm h8]`.
    pooled: [f64; 4],
}

fn run(config: &LstmConfig, fit_len: usize) -> Gate {
    let mut gate = Gate::default();
    for seed in 0..SERIES {
        let series = fleet_centroid(seed, fit_len + HORIZON);
        let (train, truth) = series.split_at(fit_len);
        let config = LstmConfig {
            seed,
            ..config.clone()
        };
        let mut owned = Lstm::new(config.clone());
        owned.fit(train).expect("owned fit");
        let mut libm = Lstm::new(config);
        libm.fit_exact(train, Activations::LIBM).expect("libm fit");
        let fo = owned.forecast(train, HORIZON).expect("owned forecast");
        let fl = libm
            .forecast_exact(train, HORIZON, Activations::LIBM)
            .expect("libm forecast");
        let mse = |m: &Lstm| m.train_mse().expect("trained");
        gate.d_mse.push((mse(&owned) - mse(&libm)).abs());
        gate.d_h1.push((fo[0] - fl[0]).abs());
        gate.d_h8.push((fo[HORIZON - 1] - fl[HORIZON - 1]).abs());
        for (i, h) in [0, HORIZON - 1].into_iter().enumerate() {
            let (eo, el) = ((fo[h] - truth[h]).powi(2), (fl[h] - truth[h]).powi(2));
            gate.pooled[i] += eo;
            gate.pooled[i + 2] += el;
            gate.owned_closer[i] += usize::from(eo < el);
            gate.libm_closer[i] += usize::from(el < eo);
        }
    }
    gate
}

/// `q`-quantile of `values` (sorts them).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

/// Prints the distribution and returns the pooled owned/libm RMSE ratios
/// `[h1, h8]`.
fn report(tag: &str, mut gate: Gate) -> [f64; 2] {
    for (name, d) in [
        ("train_mse", &mut gate.d_mse),
        ("h1", &mut gate.d_h1),
        ("h8", &mut gate.d_h8),
    ] {
        let [p50, p90, max] = [0.5, 0.9, 1.0].map(|q| quantile(d, q));
        let exact = d.iter().filter(|v| **v == 0.0).count();
        println!(
            "{tag}: |Δ {name}| p50 {p50:.2e} p90 {p90:.2e} max {max:.2e}, \
             bit-equal on {exact} of {SERIES}"
        );
    }
    let [o1, o8, l1, l8] = gate.pooled;
    let ratio = [(o1 / l1).sqrt(), (o8 / l8).sqrt()];
    println!(
        "{tag}: owned closer to the continuation h1 {} / h8 {}, libm closer h1 {} / h8 {}; \
         pooled RMSE owned/libm h1 {:.6} h8 {:.6}",
        gate.owned_closer[0],
        gate.owned_closer[1],
        gate.libm_closer[0],
        gate.libm_closer[1],
        ratio[0],
        ratio[1]
    );
    assert!(gate.pooled.iter().all(|e| e.is_finite()));
    ratio
}

fn assert_within_one_percent(tag: &str, ratio: [f64; 2]) {
    for (h, r) in ["h1", "h8"].iter().zip(ratio) {
        assert!(
            (r - 1.0).abs() <= 0.01,
            "{tag}: pooled {h} RMSE owned/libm {r} outside ±1 %"
        );
    }
}

#[test]
fn owned_activations_match_libm_accuracy_at_the_benchmark_width() {
    let config = LstmConfig {
        hidden: 8,
        epochs: 2,
        ..Default::default()
    };
    let ratio = report("hidden 8 / epochs 2", run(&config, 120));
    assert_within_one_percent("hidden 8 / epochs 2", ratio);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes unoptimised; runs under `cargo test --release`"
)]
fn owned_activations_match_libm_accuracy_at_the_default_config() {
    let ratio = report("default", run(&LstmConfig::default(), 48));
    assert_within_one_percent("default", ratio);
}
