//! Tier-1 view of the checkpoint codec: `ControllerSnapshot` through the
//! vendored `serde_json` with its dense columns packed
//! (`utilcast_linalg::packed`).
//!
//! * A checkpoint written as plain JSON arrays before the columns were
//!   packed — and before the kernel/mode matrix was retired
//!   (`crates/simnet/tests/fixtures/checkpoint_pr18.json`) — restores into
//!   the state of an uninterrupted controller and replays 30 ticks bit for
//!   bit; it decodes to the same snapshot as its own packed re-encoding.
//! * A seeded ARIMA controller cut mid-run, between its first fits and a
//!   warm refit, replays like the run that never stopped, and its
//!   checkpoint re-serializes to identical bytes.
//! * The reader is total over hostile input: a small checkpoint truncated
//!   at every byte, and under seeded byte flips, ends in a typed error or
//!   in a controller that ticks and serves its table — never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use utilcast::core::compute::ComputeOptions;
use utilcast::core::pipeline::ModelSpec;
use utilcast::simnet::controller::{Controller, ControllerConfig, ControllerSnapshot};
use utilcast::simnet::transport::ReportFrame;
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};
use utilcast::timeseries::lstm::LstmConfig;

const FIXTURE: &str = include_str!("../crates/simnet/tests/fixtures/checkpoint_pr18.json");
const FIXTURE_NODES: usize = 24;
/// Ticks the fixture's controller had processed when it was written.
const FIXTURE_CUT: usize = 20;

/// The controller the fixture was cut from, as it is spelled today: the
/// writer's `ComputeOptions` and `LstmConfig` were the defaults of the
/// retired kernel/mode fields.
fn fixture_controller() -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: FIXTURE_NODES,
        k: 3,
        m_prime: 3,
        warmup: 28,
        retrain_every: 12,
        model: ModelSpec::Lstm(LstmConfig {
            window: 4,
            hidden: 3,
            epochs: 1,
            seed: 3,
            ..Default::default()
        }),
        seed: 11,
        compute: ComputeOptions {
            shards: 4,
            retrain_stagger: true,
            staleness_age_limit: 3,
            cold_reseed_every: 9,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

/// Tick `t` of the fixture run (exact arithmetic only): three groups
/// swinging on different periods, every node silent on every third tick.
fn fixture_frame(t: usize, frame: &mut ReportFrame) {
    frame.reset(t);
    for node in 0..FIXTURE_NODES {
        if t > 0 && (t + node).is_multiple_of(3) {
            continue;
        }
        let group = node % 3;
        let period = 10 + 4 * group;
        let phase = ((t + 3 * group) % period) as f64 / period as f64;
        let swing = 0.05 * (1.0 - 4.0 * (phase - 0.5).abs());
        let own = ((t * 31 + node * 17) % 23) as f64 / 23.0 - 0.5;
        frame.push_scalar(node, 0.2 + 0.3 * group as f64 + swing + 0.02 * own);
    }
}

/// The fixture (written under the kernel/mode matrix's defaults, 20 ticks
/// in, models not yet trained — the LSTM fits happen on this side, so the
/// replay does not depend on the writer's libm) carries the retired keys
/// and every column as a plain array. It must restore into exactly the
/// state an uninterrupted controller has at that tick and replay the next
/// 30 ticks — first fits and a staggered retrain included — bit for bit.
#[test]
fn legacy_checkpoint_restores_and_replays_bitwise() {
    for retired in [
        "\"kernel\":\"CachedNorms\"",
        "\"kernel\":\"FusedFlat\"",
        "\"flat_points\":true",
        "\"warm_start\":true",
        "\"shard_kernel\":\"Full\"",
        "\"bank_kernel\":\"PerRow\"",
        "\"shard_assign\":[]",
    ] {
        assert!(FIXTURE.contains(retired), "fixture lost its {retired} key");
    }
    assert!(
        FIXTURE.contains("\"stored\":["),
        "fixture is not legacy JSON"
    );
    let mut frame = ReportFrame::new(1);
    let mut drive = |c: &mut Controller, ticks: std::ops::Range<usize>| {
        ticks
            .map(|t| {
                fixture_frame(t, &mut frame);
                (
                    c.tick_frames(std::slice::from_ref(&frame)).unwrap(),
                    c.forecast(4).unwrap(),
                )
            })
            .collect::<Vec<_>>()
    };
    let mut uninterrupted = fixture_controller();
    drive(&mut uninterrupted, 0..FIXTURE_CUT);
    let mut restored = Controller::restore(serde_json::from_str(FIXTURE).unwrap()).unwrap();
    assert_eq!(
        restored.snapshot(),
        uninterrupted.snapshot(),
        "the unknown keys must be all the restore dropped"
    );
    let replay = drive(&mut restored, FIXTURE_CUT..FIXTURE_CUT + 30);
    assert!(
        replay.iter().filter(|(tick, _)| tick.retrained).count() > 1,
        "the replay must cross the first fits and a staggered retrain"
    );
    assert_eq!(
        replay,
        drive(&mut uninterrupted, FIXTURE_CUT..FIXTURE_CUT + 30)
    );
    assert_eq!(restored.snapshot(), uninterrupted.snapshot());
}

/// The legacy and the packed form of one controller's checkpoint decode to
/// equal snapshots, and the packed form is the smaller.
#[test]
fn legacy_and_packed_forms_decode_to_equal_snapshots() {
    let legacy: ControllerSnapshot = serde_json::from_str(FIXTURE).unwrap();
    let packed = serde_json::to_string(&legacy).unwrap();
    for column in [
        "\"stored\":\"",
        "\"last_seen\":\"u8:",
        "\"assignments\":\"u8:",
    ] {
        assert!(packed.contains(column), "{column} is not packed");
    }
    let back: ControllerSnapshot = serde_json::from_str(&packed).unwrap();
    assert_eq!(back, legacy);
    assert_eq!(serde_json::to_string(&back).unwrap(), packed);
    assert!(packed.len() < FIXTURE.len());
}

const ARIMA_NODES: usize = 12;

fn arima_controller() -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: ARIMA_NODES,
        k: 3,
        warmup: 24,
        retrain_every: 16,
        model: ModelSpec::Arima {
            order: ArimaOrder::new(2, 0, 1),
            options: ArimaFitOptions::default(),
        },
        ..Default::default()
    })
    .unwrap()
}

/// Three groups swinging on different periods; every fourth node skips
/// every third tick, so the stored values carry some staleness.
fn arima_reports(t: usize) -> ReportFrame {
    let mut frame = ReportFrame::new(1);
    frame.reset(t);
    for node in (0..ARIMA_NODES).filter(|i| i % 4 != 3 || !t.is_multiple_of(3)) {
        let group = node % 3;
        let period = 14 + 6 * group;
        let phase = ((t + 5 * group) % period) as f64 / period as f64;
        let swing = 0.06 * (1.0 - 4.0 * (phase - 0.5).abs());
        let noise = ((t * 29 + node * 13) % 19) as f64 / 19.0 - 0.5;
        frame.push_scalar(node, 0.2 + 0.3 * group as f64 + swing + 0.02 * noise);
    }
    frame
}

/// A warm ARIMA refit continues from the outgoing model, so that model is
/// replay state. A controller that crashes between its first fits (tick 24)
/// and the scheduled retrain (tick 40) and restarts from its serialized
/// checkpoint must go through the refit tick exactly as the one that never
/// stopped — same `TickReport`s, same forecasts, same final state — and a
/// restored controller's checkpoint is byte for byte the one it came from.
#[test]
fn arima_checkpoint_round_trips_mid_run_and_reserializes_identically() {
    let drive = |c: &mut Controller, ticks: std::ops::Range<usize>| {
        ticks
            .map(|t| {
                (
                    c.tick_frames(&[arima_reports(t)]).unwrap(),
                    c.forecast(4).unwrap(),
                )
            })
            .collect::<Vec<_>>()
    };
    let mut uninterrupted = arima_controller();
    let mut trace = drive(&mut uninterrupted, 0..30);
    let checkpoint = serde_json::to_string(&uninterrupted.snapshot()).unwrap();
    trace.extend(drive(&mut uninterrupted, 30..46));
    let retrain_ticks: Vec<usize> = (0..46).filter(|&t| trace[t].0.retrained).collect();
    assert_eq!(retrain_ticks, [23, 39], "first fits, then one refit");

    let mut restarted = Controller::restore(serde_json::from_str(&checkpoint).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&restarted.snapshot()).unwrap(),
        checkpoint
    );
    assert_eq!(drive(&mut restarted, 30..46), trace[30..]);
    assert_eq!(restarted.snapshot(), uninterrupted.snapshot());
    assert_eq!(
        serde_json::to_string(&restarted.snapshot()).unwrap(),
        serde_json::to_string(&uninterrupted.snapshot()).unwrap()
    );
}

const FUZZ_NODES: usize = 32;
const FUZZ_CUT: usize = 30;

/// Tick `t` of the hostile-input controller's fleet: after the bootstrap a
/// quarter of the nodes stay silent each tick, so a restored store reaches
/// the stage partly as it was decoded.
fn fuzz_frame(t: usize) -> ReportFrame {
    let mut frame = ReportFrame::new(1);
    frame.reset(t);
    for node in 0..FUZZ_NODES {
        if t > 0 && (t + node).is_multiple_of(4) {
            continue;
        }
        let group = node % 3;
        let swing = ((t * 7 + node * 5) % 11) as f64 / 11.0;
        frame.push_scalar(node, 0.15 + 0.3 * group as f64 + 0.05 * swing);
    }
    frame
}

/// A small controller's packed checkpoint, cut after its first fits: an
/// ARIMA one, and an LSTM one whose weights are packed columns too.
fn fuzz_checkpoint(model: ModelSpec) -> Vec<u8> {
    let mut c = Controller::new(ControllerConfig {
        num_nodes: FUZZ_NODES,
        k: 3,
        warmup: 20,
        retrain_every: 40,
        model,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    for t in 0..FUZZ_CUT {
        c.tick_frames(&[fuzz_frame(t)]).unwrap();
    }
    serde_json::to_vec(&c.snapshot()).unwrap()
}

/// Parse → restore → one tick → the forecast table. `Ok` or a typed error
/// are both fine; the caller catches a panic.
fn feed(bytes: &[u8], next: &ReportFrame) -> Result<(), String> {
    let snapshot: ControllerSnapshot =
        serde_json::from_slice(bytes).map_err(|e| format!("parse: {e}"))?;
    let mut c = Controller::restore(snapshot).map_err(|e| format!("restore: {e}"))?;
    c.tick_frames(std::slice::from_ref(next))
        .map_err(|e| format!("tick: {e}"))?;
    c.forecast_table().map_err(|e| format!("table: {e}"))?;
    Ok(())
}

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Truncation at every byte, seeded bit flips (1–3 per input) and seeded
/// base64-symbol swaps over each small checkpoint. A failure lists the
/// inputs that panicked by model, cut and seed.
#[test]
fn hostile_checkpoints_end_in_a_typed_error_or_ok_never_a_panic() {
    const SYMBOLS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let models = [
        (
            "arima",
            ModelSpec::Arima {
                order: ArimaOrder::new(1, 0, 1),
                options: ArimaFitOptions::default(),
            },
        ),
        (
            "lstm",
            ModelSpec::Lstm(LstmConfig {
                window: 4,
                hidden: 3,
                epochs: 1,
                seed: 3,
                ..Default::default()
            }),
        ),
    ];
    let next_frame = fuzz_frame(FUZZ_CUT);
    let mut panics = Vec::new();
    for (name, model) in models {
        let original = fuzz_checkpoint(model);
        assert!(original.len() < 16_000, "{name}: {} bytes", original.len());
        assert_eq!(feed(&original, &next_frame), Ok(()), "{name}");
        let mut outcomes = [0usize; 2];
        let mut run = |what: String, bytes: &[u8]| match catch_unwind(AssertUnwindSafe(|| {
            feed(bytes, &next_frame)
        })) {
            Ok(result) => outcomes[usize::from(result.is_ok())] += 1,
            Err(_) => panics.push(format!("{name}: {what}")),
        };
        for cut in 0..original.len() {
            run(format!("truncated at byte {cut}"), &original[..cut]);
        }
        // Bit flips anywhere: most break the syntax, a key or a symbol.
        for seed in 0..1_000u64 {
            let mut state = seed;
            let mut bytes = original.clone();
            for _ in 0..1 + next(&mut state) % 3 {
                let at = (next(&mut state) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (next(&mut state) % 8);
            }
            run(format!("flip seed {seed}"), &bytes);
        }
        // Symbol swaps keep a packed column valid base64 but change the
        // values it decodes to (or a digit of a number, or a key).
        for seed in 0..1_000u64 {
            let mut state = seed ^ 0x5EED;
            let mut bytes = original.clone();
            let at = (next(&mut state) % bytes.len() as u64) as usize;
            if bytes[at].is_ascii_alphanumeric() {
                bytes[at] = SYMBOLS[(next(&mut state) % SYMBOLS.len() as u64) as usize];
            }
            run(format!("swap seed {seed}"), &bytes);
        }
        let [errors, ok] = outcomes;
        // Every truncation is a parse error; a good share of the swaps
        // still restores, ticks and serves.
        assert!(errors >= original.len(), "{name}: {errors} errors");
        assert!(ok >= 200, "{name}: only {ok} hostile checkpoints restored");
    }
    assert!(panics.is_empty(), "{} panics: {panics:?}", panics.len());
}
