//! Tier-1 golden for LSTM fit results.
//!
//! The LSTM trains and forecasts through fused kernels whose bitwise
//! contract against the scalar oracle is proven in the `utilcast-timeseries`
//! crate, which the tier-1 command (`cargo test -q`, root package only) does
//! not run. This file pins the hex bits of the training MSE, the dense head
//! (weights and bias) and a 16-step closed-loop forecast of seeded fits at
//! hidden 8 (the benchmark's width) and hidden 16 (the default), so that
//! command fails on any drift of LSTM numerics too.
//!
//! `GOLDEN` was recorded with the gate nonlinearities the LSTM owns
//! (`utilcast_linalg::kernels::{sigmoid, tanh}`). `LIBM` is the same table
//! printed by the commit before them, when the gates called libm's
//! `exp`/`tanh`; `owned_activations_stay_within_the_quality_gate_of_libm`
//! holds the two within the ±1 % the model-level quality gate allows
//! (`lstm/libm_gate.rs`). Measured, in absolute value: the training MSEs
//! differ by at most 1.8e-17, the head weights by 2.6e-14 and the forecasts
//! by 1.5e-14 (relative 3.4e-14), all at hidden 8; at hidden 16 the
//! forecasts differ by one ulp at most.
//!
//! Platform dependence: the series use only `+ - * /`, and the gates no
//! longer call libm, but the weight initialisation still draws Box–Muller
//! normals through libm `ln`/`cos` (`utilcast_linalg::rng::standard_normal`).
//! These bits are therefore pinned to this platform's libm (x86-64 glibc):
//! owning the activations made the LSTM's arithmetic portable, not its
//! initial weights. On an intended change of LSTM numerics, re-record from
//! the table the failing assertion prints.

use utilcast::linalg::container::{Reader, Writer};
use utilcast::timeseries::lstm::{Lstm, LstmConfig};
use utilcast::timeseries::Forecaster;

/// SplitMix64 step mapped to a uniform in `[-1, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A cluster-centroid-like utilization series: a level, a period-12
/// triangle wave, an AR(1) wander and a little observation noise.
fn centroid_like(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    let level = 0.2 + 0.25 * seed as f64;
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

fn hex(values: &[f64]) -> String {
    let words: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    format!("[{}]", words.join(" "))
}

/// The fitted head `(weights, bias)`, read through the model's checkpoint
/// container (the state is private): the config, the fitted flag, the
/// layers — input width, hidden width and parameters each — then the head.
fn head(model: &Lstm) -> (Vec<f64>, f64) {
    let mut out = Writer::new();
    model.encode_into(&mut out);
    let bytes = out.seal();
    let mut input = Reader::open(&bytes).expect("container frame");
    LstmConfig::decode(&mut input).expect("config");
    assert!(input.bool().expect("fitted flag"), "the model is fitted");
    input
        .seq(|layer| {
            layer.usize()?;
            layer.usize()?;
            layer.f64s()
        })
        .expect("layers");
    let w = input.f64s().expect("head weights");
    (w, input.f64().expect("head bias"))
}

/// One table row per width: fitted on 120 points of series 1, forecast 16
/// steps from its end.
fn render() -> String {
    let series = centroid_like(1, 120);
    let mut out = String::new();
    for hidden in [8, 16] {
        let mut model = Lstm::new(LstmConfig {
            hidden,
            epochs: 2,
            seed: 7,
            ..Default::default()
        });
        model.fit(&series).expect("golden series fits");
        let (w, b) = head(&model);
        let forecast = model.forecast(&series, 16).expect("forecast");
        out.push_str(&format!(
            "hidden {hidden} train_mse={} head_w={} head_b={} forecast={}\n",
            hex(&[model.train_mse().expect("fitted")]),
            hex(&w),
            hex(&[b]),
            hex(&forecast),
        ));
    }
    out
}

const GOLDEN: &str = "\
hidden 8 train_mse=[3f9c1aedc1e4f8ad] head_w=[3fc25a37760ba7e8 bfbcf1e58bdb3dff 3fa8b57af7db9332 bfd7e2e88e37f0fd bfc2279799974e24 bfdfc1f193db8364 bfda07864729c63f bfc987a1281cf314] head_b=[3fb0bfba264a8480] forecast=[3fdb33b3ece6d907 3fdb0fad563e8335 3fdb507e2a4b8cb5 3fdc5bc8bd471c89 3fdd2bbc423df3ac 3fdd9be91f162447 3fdde56f458b960d 3fddfcf3baad8c7b 3fddceb5d055deeb 3fdd216ec3f2cb93 3fdc6ece0d522938 3fdbd716f924a1da 3fdb5deb3f54264c 3fdb1706bb6f8774 3fdb2947510e2444 3fdc27bba331f110]\n\
hidden 16 train_mse=[3f8457316f18db27] head_w=[3fde870a7490e1af 3fd542169e3eb0b0 bfa550d8d83b335a 3fda9719536ec271 3fb55b101136ed76 3fb427f3f526c524 3fd6afc13e2d2695 3fcda2a2f334e430 3fd12bf81fed36c7 3fc0a299801af7b6 bfaf2c4b22275dc4 bfd4256290c91ec9 3f9d1620934a4a39 bfd999eebb2e47e4 3fd0fc673bd7012a 3fd40489e05f7c78] head_b=[3fac88dc55272839] forecast=[3fdb180233616a6b 3fdb58bacc47d4c2 3fdbcbd340adaae3 3fdc5d0c65acdc2e 3fdd1aa4e9bb0c08 3fddf413c2427f67 3fde70cf1c3d4a10 3fde5be3942e1c61 3fdddc4b57656a33 3fdd1c6c816bbda4 3fdc66c363c0c2ab 3fdbcb39f88c7d36 3fdb62de8ae4bf9e 3fdb58fad948f4bb 3fdb9c2ba101bf63 3fdc0a2341fd7db3]\n\
";

const LIBM: &str = "\
hidden 8 train_mse=[3f9c1aedc1e4f8b2] head_w=[3fc25a37760ba834 bfbcf1e58bdb40d0 3fa8b57af7db9b38 bfd7e2e88e37f2c4 bfc227979997504e bfdfc1f193db8397 bfda07864729c63e bfc987a1281cefa5] head_b=[3fb0bfba264a8599] forecast=[3fdb33b3ece6d891 3fdb0fad563e828a 3fdb507e2a4b8bb3 3fdc5bc8bd471c65 3fdd2bbc423df311 3fdd9be91f1623bf 3fdde56f458b95a4 3fddfcf3baad8bff 3fddceb5d055dec2 3fdd216ec3f2cb8d 3fdc6ece0d522934 3fdbd716f924a1d6 3fdb5deb3f54262c 3fdb1706bb6f8720 3fdb2947510e2393 3fdc27bba331f0b1]\n\
hidden 16 train_mse=[3f8457316f18db24] head_w=[3fde870a7490e1a7 3fd542169e3eb0ae bfa550d8d83b3348 3fda9719536ec273 3fb55b101136ed6b 3fb427f3f526c522 3fd6afc13e2d269c 3fcda2a2f334e424 3fd12bf81fed36c9 3fc0a299801af7b1 bfaf2c4b22275dba bfd4256290c91ec4 3f9d1620934a4a87 bfd999eebb2e47da 3fd0fc673bd7012b 3fd40489e05f7c79] head_b=[3fac88dc55272839] forecast=[3fdb180233616a6b 3fdb58bacc47d4c2 3fdbcbd340adaae3 3fdc5d0c65acdc2f 3fdd1aa4e9bb0c09 3fddf413c2427f66 3fde70cf1c3d4a0f 3fde5be3942e1c60 3fdddc4b57656a32 3fdd1c6c816bbda4 3fdc66c363c0c2ac 3fdbcb39f88c7d38 3fdb62de8ae4bf9e 3fdb58fad948f4bc 3fdb9c2ba101bf64 3fdc0a2341fd7db4]\n\
";

/// Parses one `name=[hex hex ...]` field of a table row.
fn parse(row: &str, name: &str) -> Vec<f64> {
    let start = row.find(&format!("{name}=[")).expect(name) + name.len() + 2;
    let end = start + row[start..].find(']').expect("closing bracket");
    row[start..end]
        .split_whitespace()
        .map(|w| f64::from_bits(u64::from_str_radix(w, 16).expect("hex word")))
        .collect()
}

#[test]
fn lstm_fit_results_are_bitwise_pinned() {
    let actual = render();
    for (i, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "fit {i} drifted; full table:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "golden table has the wrong number of fits; full table:\n{actual}"
    );
}

#[test]
fn owned_activations_stay_within_the_quality_gate_of_libm() {
    assert_eq!(GOLDEN.lines().count(), LIBM.lines().count());
    for (owned, libm) in GOLDEN.lines().zip(LIBM.lines()) {
        for name in ["train_mse", "head_w", "head_b", "forecast"] {
            let (a, b) = (parse(owned, name), parse(libm, name));
            assert_eq!(a.len(), b.len(), "{name}");
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x - y).abs() <= 0.01 * y.abs(),
                    "{name}: owned {x} vs libm {y} in\n{owned}"
                );
            }
        }
    }
}
