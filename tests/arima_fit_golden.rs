//! Tier-1 golden for ARIMA fit results.
//!
//! The CSS evaluator, the stability screens and Nelder–Mead are rewritten
//! for speed under a *bitwise* contract: same floating-point operations in
//! the same order, so every coefficient, AICc and forecast is unchanged.
//! The differential suites that prove it live in the `utilcast-timeseries`
//! and `utilcast-linalg` crates, which the tier-1 command (`cargo test -q`,
//! root package only) does not run. This file pins the hex bits of nine
//! fits and their 16-step forecasts, recorded at the commit before the
//! rewrite, so that command fails on any drift of fit results too.
//!
//! The series use only `+ - * /` (exactly rounded everywhere), so the only
//! platform-dependent operation behind these bits is the `ln` in the AICc.
//! On an intended change of fit results, re-record from the table the
//! failing assertion prints.
//!
//! `GOLDEN` pins first fits, which are always cold. `GOLDEN_REFITS` pins
//! the other half of the retraining protocol: `Forecaster::refit` on the
//! series grown by 48 points, which continues Nelder–Mead from the
//! outgoing coefficients — a different, shorter trajectory whose result a
//! checkpointed controller must reproduce bit for bit after a restore.

use utilcast::timeseries::arima::{Arima, ArimaOrder};
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

fn orders() -> [(&'static str, ArimaOrder); 3] {
    [
        ("(2,0,1)", ArimaOrder::new(2, 0, 1)),
        ("(1,1,1)", ArimaOrder::new(1, 1, 1)),
        (
            "(1,0,0)(1,0,0)12",
            ArimaOrder::seasonal(1, 0, 0, 1, 0, 0, 12),
        ),
    ]
}

/// One table row: the fitted model and its 16-step forecast from `series`.
fn row(label: &str, model: &Arima, series: &[f64]) -> String {
    let f = model.fitted().expect("fitted after fit");
    let forecast = model.forecast(series, 16).expect("forecast");
    format!(
        "{label} phi={} theta={} sphi={} stheta={} mu={} css={} aicc={} forecast={}\n",
        hex(&f.phi),
        hex(&f.theta),
        hex(&f.sphi),
        hex(&f.stheta),
        hex(&[f.mu]),
        hex(&[f.css]),
        hex(&[f.aicc]),
        hex(&forecast),
    )
}

fn render() -> String {
    let mut out = String::new();
    for seed in 1..=3u64 {
        let series = centroid_like(seed, 120);
        for (name, order) in orders() {
            let mut model = Arima::new(order);
            model.fit(&series).expect("golden series fits");
            out.push_str(&row(&format!("series {seed} {name}"), &model, &series));
        }
    }
    out
}

/// Series `i` under order `i`: fitted on 120 points, then `refit` on 168.
fn render_refits() -> String {
    let mut out = String::new();
    for (seed, (name, order)) in (1..=3u64).zip(orders()) {
        let series = centroid_like(seed, 168);
        let mut model = Arima::new(order);
        model.fit(&series[..120]).expect("golden series fits");
        model.refit(&series).expect("golden series refits");
        out.push_str(&row(
            &format!("series {seed} {name} refit"),
            &model,
            &series,
        ));
    }
    out
}

const GOLDEN: &str = "\
series 1 (2,0,1) phi=[3ffade03f35d9dae bfed74399bd7cb98] theta=[bfe254b7637efd4a] sphi=[] stheta=[] mu=[3fdcc03b4c9507b1] css=[3f70b52efa43c843] aicc=[c092c68399b4a013] forecast=[3fdb2f6fe1f65ad0 3fdb8f7a0b3e9ffb 3fdc3164894aefbe 3fdce8e24c89a976 3fdd87f83050d8a7 3fddea36ce4a8cf7 3fddfcc227e658b1 3fddc178588e134a 3fdd4cd8152189f4 3fdcbf939551855e 3fdc3db4e054bd92 3fdbe5a8128f7bbc 3fdbc95701ec89e7 3fdbead5c2875122 3fdc3d24d262bca8 3fdca886e322b89e]\n\
series 1 (1,1,1) phi=[3fe2f1507f18d90f] theta=[bf773891522fe308] sphi=[] stheta=[] mu=[bf364b87c8be6b1c] css=[3f8069cbcf5a4810] aicc=[c09190780c022b7b] forecast=[3fdad8b07cd27d81 3fdaa2a61888478e 3fda80627f4ba7a6 3fda69d3db2f7269 3fda5a33493e7965 3fda4eace3ed5b84 3fda45942727f772 3fda3deb692a52a8 3fda371c81918c5c 3fda30ce8d4c2412 3fda2accee528d00 3fda24f87ef60308 3fda1f3ecf2211ba 3fda1994f4c0bc1c 3fda13f479d739b8 3fda0e598b4fb078]\n\
series 1 (1,0,0)(1,0,0)12 phi=[3fe4deb161ac1978] theta=[] sphi=[3fedbb036c26140c] stheta=[] mu=[3fdbfdcc6a7c53ee] css=[3f5920d55b3ab127] aicc=[c09283defcc5c442] forecast=[3fda6f8b180bd110 3fdae1de4567a28e 3fdb5177addfb03d 3fdc2d529f3eb5bd 3fdceac721d9b746 3fdd98de0b0d3724 3fde42926a76c2e6 3fdd99a08e7e19e8 3fdd20668a62c52b 3fdc86c29f6538b7 3fdbc442a49347a4 3fdb3e85af2fcf42 3fda8ba7ff10c9ef 3fdaf5eb3fbad8b8 3fdb5da222ce07d8 3fdc29ea6ac7c600]\n\
series 2 (2,0,1) phi=[3ffb25ca94a90b6c bfee667352db3e10] theta=[bfe6d8b30e998b6e] sphi=[] stheta=[] mu=[3fe66477f31e5bce] css=[3f686ed1bcfb5649] aicc=[c0935a4ad9b13e71] forecast=[3fe5ac1e298455ae 3fe5ae80aa856264 3fe5dedb406ab10e 3fe62ea2578cd5aa 3fe6880f018b3028 3fe6d3ff88207a1f 3fe6ffe49cef78d5 3fe7023a3f0aed50 3fe6dc7cf849a39d 3fe69a3cac0356bc 3fe64dadf571abcf 3fe60ab8b13c3d92 3fe5e1d78d235597 3fe5dc176109e860 3fe5f92b7436c5c5 3fe62ff895c85be2]\n\
series 2 (1,1,1) phi=[3fe220a297d6a6e2] theta=[3fbe914eb594ade8] sphi=[] stheta=[] mu=[bf2cba349409659c] css=[3f7db33656468130] aicc=[c091bfb5eefca13f] forecast=[3fe5aeeb4241cd5d 3fe5954e9cafc985 3fe586051e1834c1 3fe57c94ed0a6bdd 3fe57674ee9f889f 3fe572356db8a275 3fe56f061d72e1f6 3fe56c70fe1f6985 3fe56a3337949f4f 3fe56826ec0f4fb5 3fe56636a8338422 3fe56456453d2821 3fe5627ee0f96e33 3fe560ac95269629 3fe55edd2c4591fa 3fe55d0f65fe3164]\n\
series 2 (1,0,0)(1,0,0)12 phi=[3fe3bd286ab6634d] theta=[] sphi=[3fedb2c9b9e68f28] stheta=[] mu=[3fe68a45c8a361f5] css=[3f5d4dcbf3d2670b] aicc=[c092421360bd3592] forecast=[3fe5649050d028d2 3fe5c0f6542cb056 3fe61195c406b363 3fe65f198692aff4 3fe6b5ba221e0aa3 3fe7067b4da2caff 3fe74dd9f4525e42 3fe7178df1e3fbca 3fe6f54358027a69 3fe694b7984f67fb 3fe62cdd0c947f8c 3fe5e767a2798840 3fe579b418e0ea92 3fe5cf735955f43c 3fe61a45667f5f96 3fe6623558270c4b]\n\
series 3 (2,0,1) phi=[3ffaf1193136d56c bfedd7e5b95979b4] theta=[bfe52d1f0e880b04] sphi=[] stheta=[] mu=[3fee601b2dfa4456] css=[3f7033ec63462023] aicc=[c092d4ff8fbae2a9] forecast=[3feda9decc2803af 3feda92cbb66ae5a 3fedd60766bccf4b 3fee2234b20b40d4 3fee78a564243c12 3feec3280fb2f891 3feef001d8e5f92b 3feef60a768cf81a 3feed65f6a72a79b 3fee9b6bc071c141 3fee55b024b63543 3fee173f0e644ce5 3fedef22dea9035f 3fede5d46dad7184 3fedfb90e27c1c3c 3fee28d8895f032d]\n\
series 3 (1,1,1) phi=[3fe12c5053b695ab] theta=[3fb826307e6ffe24] sphi=[] stheta=[] mu=[bf1eea32e172d82f] css=[3f8148e643c6e9d9] aicc=[c091780cbef606a1] forecast=[3fedaea2c4a816f4 3fed9642bdb34e7c 3fed88bb61061318 3fed810623f30698 3fed7c709731e03c 3fed798833861190 3fed77861ffb603b 3fed75ffa5f296d9 3fed74bb80a0266b 3fed739af4299147 3fed728d82335235 3fed718a50c5a58e 3fed708c9fd2fea0 3fed6f91e2c02b7d 3fed6e98bb52fe09 3fed6da06d978ea2]\n\
series 3 (1,0,0)(1,0,0)12 phi=[3fe6f965588cb7ad] theta=[] sphi=[3fee1fdf18864ad8] stheta=[] mu=[3feebe421e0fac2e] css=[3f5afe11f3d20294] aicc=[c092653dc9a1c623] forecast=[3fed91ea7709b417 3fedd35c95d91df3 3fee2a689a994a47 3fee6fb8d055fc8e 3feedcf36a031f0d 3fef406db261619c 3fef86cf7086093d 3fef12b236bf0b36 3feef30f41a15ce0 3fee97b6bc38050d 3fee34130895540e 3fede94bc4b4d952 3feda411e83df2ce 3fede18647a292ef 3fee335babf6296b 3fee748763c72c6c]\n\
";

const GOLDEN_REFITS: &str = "\
series 1 (2,0,1) refit phi=[3ffafa99d567e589 bfedc346bd275d6e] theta=[bfe37b6739c67e46] sphi=[] stheta=[] mu=[3fdcba433a189f89] css=[3f773c0dcd348327] aicc=[c09a83267fbcf898] forecast=[3fdb2ed98de8a84b 3fdb316fd8e2dccf 3fdb93a7ce8ac844 3fdc36dd1aeb7751 3fdceeb5e4405cce 3fdd8ce96b86e6cd 3fddecac9f9d43c5 3fddfb019cb74110 3fddba1ae9555251 3fdd3f57062f16ff 3fdcacb303db5023 3fdc279e6a779dbe 3fdbcf9c0d8895cc 3fdbb6fc8a246484 3fdbdf52e0ab2863 3fdc3a3dc7abb225]\n\
series 2 (1,1,1) refit phi=[3fe104d2ef40622a] theta=[3fc14a59d11aceff] sphi=[] stheta=[] mu=[bf289c92e31c343d] css=[3f864df526e3676f] aicc=[c098da886daa663a] forecast=[3fe5645f960003e9 3fe54f8b4d7b4365 3fe543bf082e0c1a 3fe53cc0611ed7c7 3fe5384faf7da49f 3fe5353acad443dc 3fe532dedf7cc353 3fe530e5547b3748 3fe52f201b7bd798 3fe52d76b5f0c11a 3fe52bdc1ced4bbe 3fe52a4962cd01cf 3fe528bad84524e3 3fe5272e87a7cc93 3fe525a36624f4be 3fe52418e5d5e273]\n\
series 3 (1,0,0)(1,0,0)12 refit phi=[3fe6f64583effffe] theta=[] sphi=[3fed896e8b1d20fd] stheta=[] mu=[3fee5b1fa0ecb7c7] css=[3f63ed4ecc6268ab] aicc=[c09aa9896d1ecc91] forecast=[3fed840d25f39640 3fedcd53eadf4ed0 3fee1657c29e7cee 3fee4fe15cf303d6 3fee9ce6dc071356 3fef09f21eaea753 3fef2a7b27ecdda0 3feece711ed20998 3fee7b8c26a64c77 3fee2751515a2c83 3fedea8d5fb24c62 3fedb5c26395a084 3fed94625118213a 3fedd815389badcc 3fee1b85d01a14db 3fee50a9e5931e24]\n\
";

fn assert_table(actual: &str, golden: &str) {
    for (i, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "fit {i} drifted; full table:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "golden table has the wrong number of fits; full table:\n{actual}"
    );
}

#[test]
fn arima_fit_results_are_bitwise_pinned() {
    assert_table(&render(), GOLDEN);
}

#[test]
fn arima_refit_results_are_bitwise_pinned() {
    assert_table(&render_refits(), GOLDEN_REFITS);
}
