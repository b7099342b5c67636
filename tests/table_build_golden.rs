//! Tier-1 golden for the forecast-table build (Sec. V-C, Eq. 12).
//!
//! The per-node resolve — majority membership over `[t − M′, t]` and the
//! α-clipped offset average — is a scalar kernel written for speed under a
//! *bitwise* contract: same floating-point operations in the same order as
//! the allocating code it replaced. The differential suites that prove it
//! live in `utilcast-core`, which the tier-1 command (`cargo test -q`, root
//! package only) does not run, and every other parity check compares two
//! callers of that one kernel. This file pins the hex bits of every node's
//! membership, offset and first/last-horizon forecast at three ticks of a
//! seeded stage, recorded at the commit before the rewrite, so that command
//! fails on any drift of Eq. 12 results.
//!
//! The fleet uses only `+ - * /` (exactly rounded everywhere). On an
//! intended change of forecast results, re-record from the table the
//! failing assertion prints.
//!
//! The tick-41 block was re-recorded when scheduled retrains became warm
//! refits (`Forecaster::refit`): its models continue from the ones fitted
//! at tick 24, so its two forecast rows moved (by at most 0.012) while its
//! memberships and offsets — which no model enters — and the whole of
//! ticks 3 and 36 kept their recorded bits.

use std::collections::VecDeque;

use utilcast::core::pipeline::ModelSpec;
use utilcast::core::stage::{ForecastStage, ForecastStageConfig};
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};

const NODES: usize = 48;
const K: usize = 4;
const M_PRIME: usize = 5;
const WARMUP: usize = 24;
const RETRAIN_EVERY: usize = 16;

/// Window still shorter than `M′ + 1`; steady state on the first fitted
/// models; the tick after the first scheduled retrain.
const TICKS: [usize; 3] = [3, 36, WARMUP + RETRAIN_EVERY + 1];

/// SplitMix64 step mapped to a uniform in `[-1, 1)`.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A period-`period` triangle wave in `[-1, 1]`.
fn triangle(t: usize, period: usize) -> f64 {
    let phase = (t % period) as f64 / period as f64;
    1.0 - 4.0 * (phase - 0.5).abs()
}

/// Four utilization groups whose levels drift on different periods (so
/// neighbouring centroids approach and recede), per-node noise, and every
/// sixth node a wanderer sweeping across the groups — its stored value
/// regularly sits in another cluster's cell (α < 1) and its majority
/// cluster lags its newest assignment.
fn fleet_step(t: usize, noise: &mut u64) -> Vec<f64> {
    (0..NODES)
        .map(|i| {
            let group = i % K;
            let level = 0.14 + 0.22 * group as f64 + 0.05 * triangle(t + 5 * group, 18 + 4 * group);
            let own = 0.015 * uniform(noise);
            if i % 6 == 5 {
                0.5 + 0.42 * triangle(t + i, 14 + i % 5) + own
            } else {
                level + own
            }
        })
        .collect()
}

fn hex(values: impl Iterator<Item = f64>) -> String {
    let words: Vec<String> = values.map(|v| format!("{:016x}", v.to_bits())).collect();
    format!("[{}]", words.join(" "))
}

fn render() -> String {
    let mut stage = ForecastStage::new(ForecastStageConfig {
        num_nodes: NODES,
        k: K,
        m_prime: M_PRIME,
        warmup: WARMUP,
        retrain_every: RETRAIN_EVERY,
        model: ModelSpec::Arima {
            order: ArimaOrder::new(2, 0, 1),
            options: ArimaFitOptions::default(),
        },
        seed: 7,
        ..Default::default()
    })
    .expect("golden stage config is valid");
    let mut noise = 17u64;
    // The test's own copy of the look-back window, for the two sanity
    // counts below (they guard the fleet, not the kernel).
    let mut window: VecDeque<(Vec<f64>, Vec<f64>)> = VecDeque::new();
    let mut lagging = 0;
    let mut clipped = 0;
    let mut out = String::new();
    for t in 1..=TICKS[2] {
        let z = fleet_step(t, &mut noise);
        let report = stage.step(&z).expect("step");
        window.push_front((z, report.centroids.clone()));
        window.truncate(M_PRIME + 1);
        if t == WARMUP + RETRAIN_EVERY {
            assert!(report.retrained, "tick {t} is the scheduled retrain");
        }
        if !TICKS.contains(&t) {
            continue;
        }
        let table = stage.build_forecast_table().expect("table");
        for i in 0..NODES {
            let j = table.node_membership(i);
            lagging += usize::from(j != report.assignments[i]);
            let full: f64 =
                window.iter().map(|(z, c)| z[i] - c[j]).sum::<f64>() / window.len() as f64;
            clipped += usize::from((full - table.node_offset(i)).abs() > 1e-9);
        }
        out.push_str(&format!(
            "tick {t} window {} membership={:?} offset={} h1={} h16={}\n",
            window.len(),
            (0..NODES)
                .map(|i| table.node_membership(i))
                .collect::<Vec<_>>(),
            hex((0..NODES).map(|i| table.node_offset(i))),
            hex((0..NODES).map(|i| table.node_forecast(i, 0))),
            hex((0..NODES).map(|i| table.node_forecast(i, 15))),
        ));
    }
    assert!(
        lagging >= 3 && clipped >= 3,
        "the golden fleet must exercise the vote and the clipping: \
         {lagging} lagging memberships, {clipped} clipped offsets"
    );
    out
}

const GOLDEN: &str = "\
tick 3 window 3 membership=[1, 3, 2, 0, 1, 0, 2, 0, 1, 3, 2, 3, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 2, 2, 0, 1, 3, 2, 2, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 1] offset=[bf875357a3d82c80 3f7e75a40945dc80 3f7ca23b1457a22b bf5ca30f55ff5200 bf63305c143247e0 3f658a99b6cca100 bf263759da556555 3f5f04e213307e00 bf84890462cfe9b0 3f61da880e00a455 3f78a76429c07f00 bfa8b9ee2b0026e8 bf63fc0a934349cb 3f75a5aa03562c95 3f797b368962f655 bf842cbb44c53895 3f4152aa66867955 3f9554c705625370 3f806dc79cb683eb bf5830f244cce000 bf79d4981fa04d35 bf51f07159845f55 bf709a0dc8388eab 3f80e2009097da40 3f6f11647ccfde2b 3f73c88e8bbda7c0 bf637c44908712ab 3f896be6af988e2b bf808d74cf13cb38 bfac29aa0d9e8830 3f5b3f8c158f7e00 3f4f32ef715f8d55 bf821bf7c3ed589d 3f777abd5c678680 3f85fd01f54f0500 3fa35c9f2ddfd600 bf6ceaa240786520 3f8117e834343515 3f6423ad1278b4ab 3f806a106408902b bf4fe152e2a21580 bfa4dc251e198928 3f64248b61c58e55 bf89b76776937940 bf827323edcd3f68 3f571524ef8df555 3f81a72e356c9e40 3faf072695d579e5] h1=[3fbf552ee901d5c4 3fd88dd4b959f650 3fe3df1febbfe027 3feaa4dab8e1b537 3fc0d30b7e6da48a 3feac8b6da438181 3fe3a477fff98b8d 3feac2aeb1964d1f 3fbfae795122de1e 3fd837b33950e027 3fe3d72a3deab1e1 3fd4fcc063d4da01 3fc0cfdcc4716083 3fd86a94d1423790 3fe3d8d1e2a9f6d0 3fea627953799ffe 3fc1311f9924f423 3fd9694a998b0415 3fe3e792940a0af3 3feaa713c76a4e70 3fc051282dc16b40 3fd8020db7db5a7f 3fe384a75a06bfc6 3feaf6b442cf1449 3fc19c1280b1ad23 3fd863206363d57d 3fe3925f3106a9d0 3feb18dbdb4b1719 3fc016f5a1cd30f6 3fe1e340d4bd4860 3fe3b37b3ba1f8a2 3feabaf8fc690cc3 3fbffc1ae4ff3040 3fd871e91ea67cf8 3fe3fdcf7d6c6cf7 3fe4dba568752e43 3fc0ac2265bc8c16 3fd89cbd6ad68087 3fe3b9ff22a9a998 3feaf4d4821cd721 3fc0ffeb9bdbcb94 3fd578798571adb9 3fe3ba0000f8f671 3fea4c4ea2b266fb 3fbff1355fc33367 3fd82b134e246cd3 3fe3ec782e6ce35c 3fc8e1969433cc23] h16=[3fbf552ee901d5c4 3fd88dd4b959f650 3fe3df1febbfe027 3feaa4dab8e1b537 3fc0d30b7e6da48a 3feac8b6da438181 3fe3a477fff98b8d 3feac2aeb1964d1f 3fbfae795122de1e 3fd837b33950e027 3fe3d72a3deab1e1 3fd4fcc063d4da01 3fc0cfdcc4716083 3fd86a94d1423790 3fe3d8d1e2a9f6d0 3fea627953799ffe 3fc1311f9924f423 3fd9694a998b0415 3fe3e792940a0af3 3feaa713c76a4e70 3fc051282dc16b40 3fd8020db7db5a7f 3fe384a75a06bfc6 3feaf6b442cf1449 3fc19c1280b1ad23 3fd863206363d57d 3fe3925f3106a9d0 3feb18dbdb4b1719 3fc016f5a1cd30f6 3fe1e340d4bd4860 3fe3b37b3ba1f8a2 3feabaf8fc690cc3 3fbffc1ae4ff3040 3fd871e91ea67cf8 3fe3fdcf7d6c6cf7 3fe4dba568752e43 3fc0ac2265bc8c16 3fd89cbd6ad68087 3fe3b9ff22a9a998 3feaf4d4821cd721 3fc0ffeb9bdbcb94 3fd578798571adb9 3fe3ba0000f8f671 3fea4c4ea2b266fb 3fbff1355fc33367 3fd82b134e246cd3 3fe3ec782e6ce35c 3fc8e1969433cc23]\n\
tick 36 window 6 membership=[1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 3, 1, 3, 2, 0, 1, 2, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 0, 2, 0, 1, 3, 2, 1, 1, 3, 2, 0, 1, 3, 2, 0, 1, 3, 2, 3] offset=[bf768838eec4cfbb 3f77323a39f24e0b bf71607c4031faab 3f5909c344b60955 bf848bb629c830af 3fa9a4f66457bb83 3f715282892b8000 3f62d7ccfe8d5b55 bf79ff0d3415007b 3f7aa65674aaffcb bf72137df866f0ab bfb21b438a717445 bf84b810a1068a75 3f51c0fc58e6f82b 3f49f1061b9ad4ab 3f69892995a80355 bf6429973e9fd56b bfb5bf0ca28be4f1 bf7a8f9755a161eb 3f6063c66a595580 bf72df1390a72b8d bf50144a8a3b3eab 3f56ba9792ec4500 bfb270f064733ea9 3f49d4888b9476ab bf635ca79fac4440 bf50aa81697c4955 bf4b635f3a391c00 bf726006082d72b5 bf9e9cf6ef805abb bf6d1d213dcbaf55 3f7291cf9bd97c15 bf867a42439dbe84 3f6699d3124c40ab bf5d18b9fde95b00 3fb54b73a2f4d710 bf84f794f1a38949 bf5f04a34bb5fad5 3f75ee9a4234fe6b 3f39cbec00146000 bf8694eb289596fc bfb2b30696afa679 bf62b11ec84b42ab 3f5fc82ded316c00 bf82da20d380c18b 3f0629b68f718555 3f73bfd1996133ab bfb21b01783df179] h1=[3fbbcdc9d467d464 3fd4fbfddc3da23b 3fe270d872d22a49 3fe9f62fead453cb 3fbaa4d69e1b1b4a 3fd7d3d3bfe0d073 3fe2b63e7064e53e 3fe9fc82d6308621 3fbb965c9012d158 3fd509ce4d288502 3fe26f726f61c05d 3fd0186410b97bf2 3fba9f4b4f335011 3fd4b0f5efaebffb 3fe29a15acd974f3 3fea033432c7a0c9 3fbc9500a95f22b5 3fdfb76fae022340 3fe25e7a3ca74b7a 3fe9fa0ecf9c521c 3fbc085c2a49aea7 3fd48f20a8cb9dc4 3fe29ef6b71c0460 3fe79b8cfca390f1 3fbd69f6746b4a4d 3fd4787ba416807a 3fe28b442a9dd019 3fe9e2d231636a7f 3fbc104d02d14a35 3fe8f4c351b5f5f0 3fe2767c4a14c28f 3fea0ecea869abbe 3fba67051ae06990 3fd4cc68997a7184 3fe2850d0e539990 3fc940e083247c38 3fba975ac51fb037 3fd48030500a2308 3fe2bf769fd6f83b 3fe9ece486b1fb52 3fba63affe416e80 3fcfe4e69b53deca 3fe280e84c8a42fb 3fe9f98f2028917c 3fbadb0948e4092f 3fd49fe6410a548f 3fe2bb190e8550a5 3fd0187495465ca5] h16=[3fc2a94894701af7 3fd601b829875ad3 3fe21475e05b1549 3fe94356096508f0 3fc214cef949be6a 3fd8d98e0d2a890b 3fe259dbddedd03e 3fe949a8f4c13b46 3fc28d91f2459971 3fd60f889a723d9a 3fe2130fdceaab5d 3fd11e1e5e03348a 3fc2120951d5d8ce 3fd5b6b03cf87893 3fe23db31a625ff3 3fe9505a515855ee 3fc30ce3feebc21f 3fdefeaa8913f940 3fe20217aa30367a 3fe94734ee2d0740 3fc2c691bf610819 3fd594daf615565c 3fe2429424a4ef60 3fe6e8b31b344616 3fc3775ee471d5ec 3fd57e35f1603912 3fe22ee19826bb19 3fe92ff84ff41fa4 3fc2ca8a2ba4d5df 3fe841e97046ab15 3fe21a19b79dad8f 3fe95bf4c6fa60e3 3fc1f5e637ac658d 3fd5d222e6c42a1c 3fe228aa7bdc8490 3fce03442d60acfd 3fc20e110ccc08e0 3fd585ea9d53dba0 3fe263140d5fe33b 3fe93a0aa542b077 3fc1f43ba95ce805 3fd0f82d9af3a7fd 3fe22485ba132dfb 3fe946b53eb946a1 3fc22fe84eae355c 3fd5a5a08e540d27 3fe25eb67c0e3ba5 3fd11e2ee290153d]\n\
tick 41 window 6 membership=[1, 3, 2, 0, 1, 1, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 0, 2, 0, 1, 3, 2, 2, 1, 3, 2, 0, 1, 2, 2, 0, 1, 3, 2, 0, 1, 3, 2, 0, 1, 0, 2, 0, 1, 3, 2, 0] offset=[bf72549ffc2f5a58 3f2814cef03e4d55 bf628fa5aecf17d5 bf614be39748eb2b bf862057f7e40187 3fb2bbac364d4dc4 bf1ca97d1b2f1000 bf822cd79784e02b 3f63db557a44c800 bf7904f3e14a75ab bf63324af55a8b80 bfb1e8ef1794c20a bf76c2650cccb575 bf7aaed6793191cb bf231b0a6ada9800 bf7da36b4900e300 bf4f421682dd75ab bf91b029b8f21b86 bf781c4940509240 bf5295e38e44e055 bf654071ca973365 3f616859ac6edb80 3f5d6925def69455 3fb1b4efac6d5fd2 bf3df3462009602b bf7eb181eae531eb 3f71af2a19c7a12b bf4b59642c3b4b55 bf6f6e3440b1fb55 bf98a0b8b7c4e265 bf5742185bc6ed55 bf3b9bfd0ac4bc00 bf68dc4d64282d60 bf644c7617228055 bf7284cd3ab1c72b bfb7f99713512deb bf71f392d9cb6e0b bf655aaa6ef35a15 bf612571f47e43d5 bf4e269bf2d926ab bf51fe8a9077c9ab bfb157fcd346c1af 3f58f57929da5355 bf536642f415e800 bf7aa94866c0e440 bf64dc68e57b3cd5 3f7256eb59db10ab bfa8eed980520500] h1=[3fc2430dd2e3030b 3fd521f195066671 3fe147006d0294a7 3fe9970da2ee8caf 3fc173ad53463dc6 3fcc3388edeb24c0 3fe158aac6c88a46 3fe95fa62827c219 3fc3252028ad90fe 3fd4badb2ba334d0 3fe1465dc7bc0934 3fe76b3ba3933d59 3fc21f9faa5e1832 3fd4b433a1439860 3fe1585e620ab616 3fe96d12aff3d3d4 3fc2b670bc41a068 3fe91ad838be44be 3fe129578030c29a 3fe99f0e94beb32a 3fc280b10b9a2110 3fd541bfae813c5e 3fe16844a5a0df09 3fe3902e083f0fb9 3fc2c6b92fb4792e 3fd4a428f37cc9df 3fe17cee66e4f301 3fe9a1832d7ac6c7 3fc257fa01c1b5f1 3fe0948a4cf33cac 3fe14def06838048 3fe9a4e606e47d02 3fc272419d33dd28 3fd4f6560efa19a6 3fe13486783c0031 3fe6a926a41bafdd 3fc246163bf6226e 3fd4f439a64a77f3 3fe1486aa0bce57b 3fe9a0cfdf891f50 3fc2b1b5bda38e4b 3fe77d59ec1cfd64 3fe1660acf4650e9 3fe99ea6650bcaa6 3fc200688f8e76bc 3fd4f536295d682d 3fe17e3de96519e0 3fe8196bee80b54a] h16=[3fc24deb018584f3 3fd6457b3f25f292 3fe1ce82e8d98b9c 3fe95359a634e2a9 3fc17e8a81e8bfae 3fcc3e661c8da6a8 3fe1e02d429f813c 3fe91bf22b6e1813 3fc32ffd575012e6 3fd5de64d5c2c0f1 3fe1cde043930028 3fe72787a6d99353 3fc22a7cd9009a1a 3fd5d7bd4b632481 3fe1dfe0dde1ad0a 3fe9295eb33a29ce 3fc2c14deae42250 3fe8d7243c049ab8 3fe1b0d9fc07b990 3fe95b5a98050924 3fc28b8e3a3ca2f8 3fd6654958a0c87f 3fe1efc72177d5fe 3fe417b0841606ae 3fc2d1965e56fb16 3fd5c7b29d9c5600 3fe20470e2bbe9f6 3fe95dcf30c11cc1 3fc262d7306437d9 3fe11c0cc8ca33a1 3fe1d571825a773d 3fe961320a2ad2fc 3fc27d1ecbd65f10 3fd619dfb919a5c7 3fe1bc08f412f726 3fe66572a76205d7 3fc250f36a98a456 3fd617c3506a0414 3fe1cfed1c93dc70 3fe95d1be2cf754a 3fc2bc92ec461033 3fe739a5ef63535e 3fe1ed8d4b1d47de 3fe95af2685220a0 3fc20b45be30f8a4 3fd618bfd37cf44e 3fe205c0653c10d5 3fe7d5b7f1c70b44]\n\
";

#[test]
fn forecast_table_results_are_bitwise_pinned() {
    let actual = render();
    for (got, want) in actual.lines().zip(GOLDEN.lines()) {
        let tick = got.split(" membership").next().unwrap_or(got);
        assert_eq!(got, want, "{tick} drifted; full table:\n{actual}");
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "golden table has the wrong number of ticks; full table:\n{actual}"
    );
}
