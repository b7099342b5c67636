//! Tier-1 golden for the forecast-table refresh (Sec. V-C, Eq. 12).
//!
//! [`ForecastStage::forecast_table`] may carry derived state from one
//! refresh to the next; [`ForecastStage::build_forecast_table`] starts from
//! nothing. Whatever a refresh keeps, the table it publishes must be the
//! one a stateless build gives, bit for bit, however the refreshes are
//! spaced and across a checkpoint. This file pins the hex bits of every
//! node's membership, offset, first/last-horizon forecast and interval at
//! four ticks of a seeded K = 4 ARIMA stage, recorded before the refresh
//! kept any state, and reaches those ticks three ways:
//!
//! - a refresh after every tick;
//! - a refresh every third tick (the pinned ticks are all `1 mod 3`);
//! - a refresh after every tick, with the stage checkpointed through the
//!   checkpoint container and restored two ticks before each pinned tick,
//!   mid-window.
//!
//! At each pinned tick every way's table must render to the golden line
//! and equal that stage's stateless build.
//!
//! The fleet uses only `+ - * /` (exactly rounded everywhere). On an
//! intended change of forecast results, re-record from the table the
//! failing assertion prints.

use utilcast::core::pipeline::ModelSpec;
use utilcast::core::stage::{ForecastStage, ForecastStageConfig, StageSnapshot};
use utilcast::core::table::ForecastTable;
use utilcast::linalg::container::{Reader, Writer};
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};

const NODES: usize = 40;
const K: usize = 4;
const M_PRIME: usize = 5;
const WARMUP: usize = 24;
const RETRAIN_EVERY: usize = 12;

/// Window still shorter than `M′ + 1`; full window before the first fit
/// (sample-and-hold trajectories); steady state on the first fitted
/// models; four ticks after the first scheduled retrain.
const TICKS: [usize; 4] = [4, 19, 31, WARMUP + RETRAIN_EVERY + 4];

/// How the refreshes reaching the pinned ticks are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cadence {
    EveryTick,
    EveryThirdTick,
    RestoredMidWindow,
}

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

/// Four utilization groups drifting on different periods, per-node noise,
/// and every fifth node a wanderer crossing the groups fast enough that
/// its majority cluster `j*` changes between refreshes.
fn fleet_step(t: usize, noise: &mut u64) -> Vec<f64> {
    (0..NODES)
        .map(|i| {
            let group = i % K;
            let level = 0.12 + 0.24 * group as f64 + 0.06 * triangle(t + 3 * group, 16 + 5 * group);
            let own = 0.02 * uniform(noise);
            if i % 5 == 4 {
                0.5 + 0.45 * triangle(t + 2 * i, 8 + i % 7) + own
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

fn render_table(t: usize, table: &ForecastTable) -> String {
    let last = table.horizon() - 1;
    format!(
        "tick {t} membership={:?} offset={} h1={} h16={} i1={} i16={}",
        (0..NODES)
            .map(|i| table.node_membership(i))
            .collect::<Vec<_>>(),
        hex((0..NODES).map(|i| table.node_offset(i))),
        hex((0..NODES).map(|i| table.node_forecast(i, 0))),
        hex((0..NODES).map(|i| table.node_forecast(i, last))),
        hex((0..NODES).map(|i| table.node_interval(i, 0))),
        hex((0..NODES).map(|i| table.node_interval(i, last))),
    )
}

fn stage() -> ForecastStage {
    ForecastStage::new(ForecastStageConfig {
        num_nodes: NODES,
        k: K,
        m_prime: M_PRIME,
        warmup: WARMUP,
        retrain_every: RETRAIN_EVERY,
        model: ModelSpec::Arima {
            order: ArimaOrder::new(2, 0, 1),
            options: ArimaFitOptions::default(),
        },
        seed: 11,
        ..Default::default()
    })
    .expect("golden stage config is valid")
}

fn render(cadence: Cadence) -> String {
    let mut stage = stage();
    let mut noise = 29u64;
    let mut previous: Option<Vec<usize>> = None;
    let mut flips = 0;
    let mut out = String::new();
    for t in 1..=TICKS[TICKS.len() - 1] {
        let z = fleet_step(t, &mut noise);
        stage.step(&z).expect("step");
        if cadence == Cadence::RestoredMidWindow && TICKS.contains(&(t + 2)) {
            let mut out = Writer::new();
            stage.snapshot().encode_into(&mut out);
            let bytes = out.seal();
            let mut input = Reader::open(&bytes).expect("container frame");
            let snapshot = StageSnapshot::decode(&mut input).expect("decode");
            input.finish().expect("nothing after the stage");
            stage = ForecastStage::restore(snapshot).expect("restore");
        }
        let due = match cadence {
            Cadence::EveryTick | Cadence::RestoredMidWindow => true,
            Cadence::EveryThirdTick => t % 3 == 1,
        };
        if !due {
            continue;
        }
        let table = stage.forecast_table().expect("table");
        let memberships: Vec<usize> = (0..NODES).map(|i| table.node_membership(i)).collect();
        if let Some(before) = &previous {
            flips += before
                .iter()
                .zip(&memberships)
                .filter(|(a, b)| a != b)
                .count();
        }
        previous = Some(memberships);
        if !TICKS.contains(&t) {
            continue;
        }
        let built = stage.build_forecast_table().expect("stateless build");
        let line = render_table(t, &table);
        assert_eq!(
            line,
            render_table(t, &built),
            "{cadence:?}: tick {t} refresh differs from the stateless build"
        );
        assert_eq!(*table, built, "{cadence:?}: tick {t} table != build");
        out.push_str(&line);
        out.push('\n');
    }
    assert!(
        flips >= 3,
        "the golden fleet must move memberships between refreshes ({cadence:?}: {flips} flips)"
    );
    out
}

const GOLDEN: &str = "\
tick 4 membership=[3, 0, 1, 2, 3, 0, 1, 2, 3, 3, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 3, 0, 1, 2, 1, 0, 1, 2, 3, 0, 1, 2, 3, 0, 3, 2, 3, 0, 1, 1] offset=[bf7a2f5b215289cc 3f76e71cf2615510 3f83f1368b5edab0 bf7dc4f71af217c0 3fb16c2d53625715 bf6d7dea4ba98320 3f79fdcac42779e0 3f61286e5cfde580 bf0f210281dc7c00 3fb3dc385d96fd38 3f8040a87985d660 bf694cfda296ca00 bf6afcf0eb517aa0 3f8663d65c4051d0 bfb0c1da559bb865 3f78ee7a2325dfe0 bf9220029fa28e6d 3f8e97cf73315a28 3f6d42c054dbe300 bfa6d78b91407280 bf28659d43f76380 bf7a19dc9c334050 3f81db67f8556b50 3f59c3431dcee700 3fb1764d87da5b01 bf6977456800dbc0 3f6949e775b3d600 3f7cd87d5957ed60 bf86237e13b526d8 3fae7e7e4abc7afa bf7bfbaad5a34360 bf75eb8faf684f00 bf928c59748aefee 3f720c82a43d3710 3fadd8fe5f082930 3f730ce5a0425a80 bf7b8f4c03d33c74 bf669f91a93e6280 3f71dcbbd05a1be0 bf8f45b3eea806a8] h1=[3fb9683be9e0caf6 3fd82ed76052f9e0 3fe4209ebe34ae7b 3febff4ca8758eb6 3fc63baf77ac2554 3fd7983f17f22186 3fe404d5798f8204 3fec4bff050870cc 3fbb074d7ba5b804 3fc773b4fcc67866 3fe411dc85ed4a6a 3fec21899908dc1c 3fba334a149b67be 3fd886599f6b771a 3fe1b89e9953bc03 3fec6cb38af1bea6 3fb68330f40d4ff8 3fd8c7f96822ff5d 3fe3ee1ca45c0ef3 3fd4f8497a61663c 3fbafefecd53f7e1 3fd76ad37a18a78b 3fe4184783e888bd 3fec47b8383a5a5a 3fe5ffa395027e70 3fd7a04c61b972d4 3fe3ea23cb7ce6e6 3fec7487915e22c1 3fb846c1d97f4eb8 3fdba30ab5e103eb 3fe398e28e5bec89 3fec0eff774ca248 3fb6681b3ed33798 3fd81b6cf71a6968 3fc4fbd865bd0416 3fec60f061ebf79b 3fb9523cdbb8bfcc 3fd7a5fbc936f7c7 3fe3f4935ba7e748 3fe353c3144c92f5] h16=[3fb9683be9e0caf6 3fd82ed76052f9e0 3fe4209ebe34ae7b 3febff4ca8758eb6 3fc63baf77ac2554 3fd7983f17f22186 3fe404d5798f8204 3fec4bff050870cc 3fbb074d7ba5b804 3fc773b4fcc67866 3fe411dc85ed4a6a 3fec21899908dc1c 3fba334a149b67be 3fd886599f6b771a 3fe1b89e9953bc03 3fec6cb38af1bea6 3fb68330f40d4ff8 3fd8c7f96822ff5d 3fe3ee1ca45c0ef3 3fd4f8497a61663c 3fbafefecd53f7e1 3fd76ad37a18a78b 3fe4184783e888bd 3fec47b8383a5a5a 3fe5ffa395027e70 3fd7a04c61b972d4 3fe3ea23cb7ce6e6 3fec7487915e22c1 3fb846c1d97f4eb8 3fdba30ab5e103eb 3fe398e28e5bec89 3fec0eff774ca248 3fb6681b3ed33798 3fd81b6cf71a6968 3fc4fbd865bd0416 3fec60f061ebf79b 3fb9523cdbb8bfcc 3fd7a5fbc936f7c7 3fe3f4935ba7e748 3fe353c3144c92f5] i1=[3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f8a50d117629169 3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f8a50d117629169 3f8ff70fc6f40a1e 3f8ff70fc6f40a1e 3f81106123e6c46c 3f8a50d117629169 3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f8a50d117629169 3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f88937cad396108 3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f8a50d117629169 3f81106123e6c46c 3f88937cad396108 3f81106123e6c46c 3f8a50d117629169 3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f8a50d117629169 3f8ff70fc6f40a1e 3f88937cad396108 3f8ff70fc6f40a1e 3f8a50d117629169 3f8ff70fc6f40a1e 3f88937cad396108 3f81106123e6c46c 3f81106123e6c46c] i16=[3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3faa50d117629169 3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3faa50d117629169 3faff70fc6f40a1e 3faff70fc6f40a1e 3fa1106123e6c46c 3faa50d117629169 3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3faa50d117629169 3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3fa8937cad396108 3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3faa50d117629169 3fa1106123e6c46c 3fa8937cad396108 3fa1106123e6c46c 3faa50d117629169 3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3faa50d117629169 3faff70fc6f40a1e 3fa8937cad396108 3faff70fc6f40a1e 3faa50d117629169 3faff70fc6f40a1e 3fa8937cad396108 3fa1106123e6c46c 3fa1106123e6c46c]\n\
tick 19 membership=[3, 0, 1, 2, 0, 0, 1, 2, 3, 2, 1, 2, 3, 0, 2, 2, 3, 0, 1, 1, 3, 0, 1, 2, 0, 0, 1, 2, 3, 2, 1, 2, 3, 0, 3, 2, 3, 0, 1, 0] offset=[bf8446f88cd6f130 3f75fb6ee9a9818b bf6853fc9638a52b 3f744cd472768d55 bf98dd0adf48a000 3f81f0de482e61e0 3f82551696528760 3f629efbce5e07ab bf820ef8de8e345b bfae11ed3006a617 3f774da75d514d6b 3f6301393084ded5 bf75fb150ede8659 3f733963a9f33ce0 bfb3413de06a82c9 3f7cef92f0118240 bf8026148e8744ba 3f78fec8ce7f5560 3f77cc768ff74c00 bfa8245caa6bb66b 3f625f76e99b3ad8 3f76e063c00efa00 3f79f0b6a4dacc2b 3f63e6223b0fffd5 3f7c2ad0c2f296c5 3f74a58e0e2a2440 bf22ee27d8e15d55 bf26862a86b73000 bf7999d1c0953d99 bfb198b0e8e3d2c1 3f7204946e979ec0 bf108f31033db000 3f616e8a356f9358 3f50f763d67c1b55 3fb55b31c049c235 bf8b285da4451f35 bf710bbfc08b1b70 3f7f9368a26b4db5 3f71e514a840b7c0 3f59210aab63ce95] h1=[3fb6ddd7c36c53bd 3fd2c5519124567e 3fe110068400d36b 3fe9ab6a5a271fbf 3fd0df9327892678 3fd2fceac7bf2387 3fe171aedaf0562e 3fe9956fad1090ac 3fb724d7b9356b58 3fe7a1b1de41c843 3fe156f5cf51aeab 3fe995d1ea72b783 3fb807058419497d 3fd2ba4964257d6c 3fe71aa8f534e24b 3fe9bcafd72255a8 3fb761f44336494c 3fd2d15ef8b7adce 3fe157f36db6faa8 3fdf4c296be0a153 3fb9f9b28c540bba 3fd2c8e5647dec60 3fe15c3bede0c1a8 3fe996b6d37d42a4 3fd2de0f18897ad3 3fd2bffa0db65909 3fe1272b9e197dfa 3fe981684e99c731 3fb7cd19b8fdde09 3fe74fba9425b84c 3fe14c63a9743b4e 3fe9824c37ba18b6 3fb9f22b26b2ae7e 3fd27e5b39542c93 3fc760f44aa87a0c 3fe9162f3ab11e27 3fb855fad8fe802c 3fd2ebb178075daf 3fe14c24a9e78d80 3fd28684e0291447] h16=[3fb6ddd7c36c53bd 3fd2c5519124567e 3fe110068400d36b 3fe9ab6a5a271fbf 3fd0df9327892678 3fd2fceac7bf2387 3fe171aedaf0562e 3fe9956fad1090ac 3fb724d7b9356b58 3fe7a1b1de41c843 3fe156f5cf51aeab 3fe995d1ea72b783 3fb807058419497d 3fd2ba4964257d6c 3fe71aa8f534e24b 3fe9bcafd72255a8 3fb761f44336494c 3fd2d15ef8b7adce 3fe157f36db6faa8 3fdf4c296be0a153 3fb9f9b28c540bba 3fd2c8e5647dec60 3fe15c3bede0c1a8 3fe996b6d37d42a4 3fd2de0f18897ad3 3fd2bffa0db65909 3fe1272b9e197dfa 3fe981684e99c731 3fb7cd19b8fdde09 3fe74fba9425b84c 3fe14c63a9743b4e 3fe9824c37ba18b6 3fb9f22b26b2ae7e 3fd27e5b39542c93 3fc760f44aa87a0c 3fe9162f3ab11e27 3fb855fad8fe802c 3fd2ebb178075daf 3fe14c24a9e78d80 3fd28684e0291447] i1=[3fa16ba372563834 3fa54ff370e48024 3fa33aac4988c0bf 3f9e1ad45276b4de 3fa54ff370e48024 3fa54ff370e48024 3fa33aac4988c0bf 3f9e1ad45276b4de 3fa16ba372563834 3f9e1ad45276b4de 3fa33aac4988c0bf 3f9e1ad45276b4de 3fa16ba372563834 3fa54ff370e48024 3f9e1ad45276b4de 3f9e1ad45276b4de 3fa16ba372563834 3fa54ff370e48024 3fa33aac4988c0bf 3fa33aac4988c0bf 3fa16ba372563834 3fa54ff370e48024 3fa33aac4988c0bf 3f9e1ad45276b4de 3fa54ff370e48024 3fa54ff370e48024 3fa33aac4988c0bf 3f9e1ad45276b4de 3fa16ba372563834 3f9e1ad45276b4de 3fa33aac4988c0bf 3f9e1ad45276b4de 3fa16ba372563834 3fa54ff370e48024 3fa16ba372563834 3f9e1ad45276b4de 3fa16ba372563834 3fa54ff370e48024 3fa33aac4988c0bf 3fa54ff370e48024] i16=[3fc16ba372563834 3fc54ff370e48024 3fc33aac4988c0bf 3fbe1ad45276b4de 3fc54ff370e48024 3fc54ff370e48024 3fc33aac4988c0bf 3fbe1ad45276b4de 3fc16ba372563834 3fbe1ad45276b4de 3fc33aac4988c0bf 3fbe1ad45276b4de 3fc16ba372563834 3fc54ff370e48024 3fbe1ad45276b4de 3fbe1ad45276b4de 3fc16ba372563834 3fc54ff370e48024 3fc33aac4988c0bf 3fc33aac4988c0bf 3fc16ba372563834 3fc54ff370e48024 3fc33aac4988c0bf 3fbe1ad45276b4de 3fc54ff370e48024 3fc54ff370e48024 3fc33aac4988c0bf 3fbe1ad45276b4de 3fc16ba372563834 3fbe1ad45276b4de 3fc33aac4988c0bf 3fbe1ad45276b4de 3fc16ba372563834 3fc54ff370e48024 3fc16ba372563834 3fbe1ad45276b4de 3fc16ba372563834 3fc54ff370e48024 3fc33aac4988c0bf 3fc54ff370e48024]\n\
tick 31 membership=[3, 0, 1, 2, 0, 0, 1, 2, 3, 2, 1, 2, 3, 0, 0, 2, 3, 0, 1, 3, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 1, 2, 3, 0, 3, 2, 3, 0, 1, 3] offset=[bf8c55a69e095b98 bf6a9b4fa2d27f55 bf6e3c528c62a7d5 bf32a36318b5f955 bfb287920cc6e6bf bf6540dd24431e15 bf58971d65441b55 3f760b836871a76b bf87db4d7250a181 bfa9380c1e5ae797 bf7b5a12ff89c080 bf62e0a48a7ba300 bf9041225e139a32 bf604bd5c1b99bc0 bf8e4576c08d108d bf6b17f34ee02055 bf896c28611937e7 bf6fd627586d9eab 3f749853adae7a95 3fb3708127816779 bf8e9aa6cb1b8a21 bf31d39a93c16555 bebd155ae7395555 bf68e79fab3c1680 3fb704482f776631 3f803f47b8a7dd3b bf57908ce9538655 3f76ddad93b37beb bf8ceee20e5bc6d9 3f8b208d1726210c bf547a1ca637b5ab bf6d6b426a29d280 bf93501181741770 3f79142eb18c33eb 3fb43bd2da3e1d51 bf7a466a44b86fab bf8f0a20242921ed bf7059ddd5ccbf6b bf395e9b93bda2ab 3fb4edf5be0433ae] h1=[3fbaa6a8016532e5 3fd9a3169e1ec5fe 3fe4657fc017ca7c 3feb85d727e3c644 3fd53668ba32b14d 3fd9adcb831be4c1 3fe4777083f18b16 3febb4429b17c052 3fbb35f326dc4a28 3fe9f4aad2612e8a 3fe44d07eca519a3 3feb754aefbc6160 3fba21143da177cc 3fd9b7b591e0f7c6 3fd8e62187600279 3feb6d13a0f7fce3 3fbb03d7c903375b 3fd998a0eeb38fc0 3fe4acecb9ff8a19 3fc8d0eefe53e2e8 3fba5e07fbc2ed14 3fd9d3d856bf7aa4 3fe483b86ff8d03d 3feb6f43f49ba0ec 3fca9ad2824ee244 3fda5a477b29a9e7 3fe477f3cc2f8361 3febb5e6ef6e43fb 3fba9380935ae57d 3fe4f03e4700c5a8 3fe4797f04511149 3feb6ac051dcb330 3fb95d5874c9587c 3fda3c9df82a9bcd 3fc93697d7b23dd4 3feb539ebfbd6c24 3fba5018d0a13a1a 3fd996e5c60d37ff 3fe480903f31b570 3fc98fa949954903] h16=[3fc24641bf5437ee 3fd7bed705daa1d5 3fe333f571974bf1 3fea426bdc42b258 3fd3522921ee8d24 3fd7c98bead7c098 3fe345e635710c8b 3fea70d74f76ac66 3fc28de7520fc390 3fe8b13f86c01a9e 3fe31b7d9e249b18 3fea31dfa41b4d74 3fc20377dd725a62 3fd7d375f99cd39c 3fd701e1ef1bde50 3fea29a85556e8f7 3fc274d9a3233a2a 3fd7b461566f6b97 3fe37b626b7f0b8e 3fcdc3dcbcf58164 3fc221f1bc831506 3fd7ef98be7b567b 3fe3522e217851b2 3fea2bd8a8fa8d00 3fcf8dc040f080c0 3fd87607e2e585be 3fe346697daf04d6 3fea727ba3cd300f 3fc23cae084f113a 3fe3beb3f880471d 3fe347f4b5d092be 3fea2755063b9f44 3fc1a199f9064aba 3fd8585e5fe677a4 3fce29859653dc50 3fea1033741c5838 3fc21afa26f23b89 3fd7b2a62dc913d6 3fe34f05f0b136e5 3fce82970836e77f] i1=[3fa0695246812fc2 3fa3ad9cd5269dbe 3fa2bb890a91fd6a 3fa11ed069710f38 3fa3ad9cd5269dbe 3fa3ad9cd5269dbe 3fa2bb890a91fd6a 3fa11ed069710f38 3fa0695246812fc2 3fa11ed069710f38 3fa2bb890a91fd6a 3fa11ed069710f38 3fa0695246812fc2 3fa3ad9cd5269dbe 3fa3ad9cd5269dbe 3fa11ed069710f38 3fa0695246812fc2 3fa3ad9cd5269dbe 3fa2bb890a91fd6a 3fa0695246812fc2 3fa0695246812fc2 3fa3ad9cd5269dbe 3fa2bb890a91fd6a 3fa11ed069710f38 3fa0695246812fc2 3fa3ad9cd5269dbe 3fa2bb890a91fd6a 3fa11ed069710f38 3fa0695246812fc2 3fa2bb890a91fd6a 3fa2bb890a91fd6a 3fa11ed069710f38 3fa0695246812fc2 3fa3ad9cd5269dbe 3fa0695246812fc2 3fa11ed069710f38 3fa0695246812fc2 3fa3ad9cd5269dbe 3fa2bb890a91fd6a 3fa0695246812fc2] i16=[3fc0695246812fc2 3fc3ad9cd5269dbe 3fc2bb890a91fd6a 3fc11ed069710f38 3fc3ad9cd5269dbe 3fc3ad9cd5269dbe 3fc2bb890a91fd6a 3fc11ed069710f38 3fc0695246812fc2 3fc11ed069710f38 3fc2bb890a91fd6a 3fc11ed069710f38 3fc0695246812fc2 3fc3ad9cd5269dbe 3fc3ad9cd5269dbe 3fc11ed069710f38 3fc0695246812fc2 3fc3ad9cd5269dbe 3fc2bb890a91fd6a 3fc0695246812fc2 3fc0695246812fc2 3fc3ad9cd5269dbe 3fc2bb890a91fd6a 3fc11ed069710f38 3fc0695246812fc2 3fc3ad9cd5269dbe 3fc2bb890a91fd6a 3fc11ed069710f38 3fc0695246812fc2 3fc2bb890a91fd6a 3fc2bb890a91fd6a 3fc11ed069710f38 3fc0695246812fc2 3fc3ad9cd5269dbe 3fc0695246812fc2 3fc11ed069710f38 3fc0695246812fc2 3fc3ad9cd5269dbe 3fc2bb890a91fd6a 3fc0695246812fc2]\n\
tick 40 membership=[3, 0, 1, 2, 3, 0, 1, 2, 3, 2, 1, 2, 3, 0, 1, 2, 3, 0, 1, 1, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2] offset=[3f7918395a40cc4d bf7a13563f724f00 3f62fa899d1e78ab 3f8800ca00f4472b 3fab1210676f0033 bf80def1d0ab0815 3f565446e67d5400 3f831ad4fe56f440 3f69694db54fdf4b bfb7690d08504c1c bf5837670de7b400 3f5ece8918f76900 3f7f50677e8947a5 bf5f3a756f7319ab bfa8a40722fe3de0 3f8a91f8c1bf31d5 3f7767853f96a103 bf67d4486e376295 bf108d950ea88555 bfb40ba9614cfd8b 3f59fa5c483ef74b bf45dd65d17222ab 3f617202eb1e6800 3f67f30016f28b55 3faef0e3adedde10 3f57e6f76abfee2b 3f6f8d9b237be5d5 3f66cdd59d2189ab 3f848010bf1a3d55 3fbb2576d228747d bf4055a304f66555 3f70da3bcf6ca955 3f7004177a88b518 bf63efda6a68e0c0 3fb575c8c8c46230 3f7d10f0a6ccd12b 3f8063417b0378b3 bf83958927b66710 3f792d16e046d155 bfb5dd639fbd3193] h1=[3fc38921f19497a3 3fd454d927bc5d15 3fe3365abebe267b 3fec31d96fc82c2e 3fc984e4409e514e 3fd4362ef234ce10 3fe32e8a589446ac 3fec1e419bbdb6e2 3fc326055d97d0be 3fe8e4b4a6ba518e 3fe31744819a1428 3febe13d8c50d6c6 3fc3bae362b6db7e 3fd49dec0b4ab337 3fe1991fc2f12424 3fec3c1e2acb57d8 3fc37b9c50bf4649 3fd48d7defddb78c 3fe322dbc87892be 3fe0a1eb08f76851 3fc2f454df530f30 3fd4b237cdd16d40 3fe334d2380c266a 3febe9c947db4d9c 3fca7c99123e08c5 3fd4d50d7824e63f 3fe342edd04483e8 3febe8a41d617c9b 3fc4086132b43516 3fdb868435444370 3fe31f4acc5fca69 3febf38abf633464 3fc34080e296d6ea 3fd49546cbe55490 3fe5d2194e399448 3fec0bf82911f4b3 3fc3c6943e72c8cc 3fd4207a377c7318 3fe355ba62e195a5 3fe91629d3ccb4df] h16=[3fbfa9e02d9cf738 3fd6b86d44058b08 3fe3bb54251da027 3feb18adf59bfa65 3fc5d0b265d83546 3fd699c30e7dfc03 3fe3b383bef3c058 3feb051621918519 3fbee3a705a3696d 3fe7cb892c8e1fc4 3fe39c3de7f98dd4 3feac8121224a4fc 3fc006b187f0bf77 3fd701802793e12a 3fe21e1929509dd0 3feb22f2b09f260f 3fbf8ed4ebf25483 3fd6f1120c26e57f 3fe3a7d52ed80c6a 3fe126e46f56e1fd 3fbe80460919e650 3fd715cbea1a9b33 3fe3b9cb9e6ba016 3fead09dcdaf1bd3 3fc6c8673777ecbe 3fd738a1946e1432 3fe3c7e736a3fd94 3feacf78a3354ad2 3fc0542f57ee190f 3fddea18518d7163 3fe3a44432bf4415 3feada5f4537029b 3fbf189e0fa175c4 3fd6f8dae82e8282 3fe65712b4990df4 3feaf2ccaee5c2ea 3fc0126263acacc5 3fd6840e53c5a10c 3fe3dab3c9410f51 3fe7fcfe59a08316] i1=[3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa0f36488fce232 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa2865fb6a4d5c6 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232 3fa0ee0b5db6d55d 3fa336fe23b97e2f 3fa2865fb6a4d5c6 3fa0f36488fce232] i16=[3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc0f36488fce232 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc2865fb6a4d5c6 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232 3fc0ee0b5db6d55d 3fc336fe23b97e2f 3fc2865fb6a4d5c6 3fc0f36488fce232]\n\
";

#[test]
fn forecast_table_refreshes_are_bitwise_pinned_at_every_cadence() {
    for cadence in [
        Cadence::EveryTick,
        Cadence::EveryThirdTick,
        Cadence::RestoredMidWindow,
    ] {
        let actual = render(cadence);
        for (got, want) in actual.lines().zip(GOLDEN.lines()) {
            let tick = got.split(" membership").next().unwrap_or(got);
            assert_eq!(
                got, want,
                "{cadence:?}: {tick} drifted; full table:\n{actual}"
            );
        }
        assert_eq!(
            actual.lines().count(),
            GOLDEN.lines().count(),
            "{cadence:?}: golden table has the wrong number of ticks; full table:\n{actual}"
        );
    }
}
