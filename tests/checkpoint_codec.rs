//! Tier-1 view of the checkpoint codec: `ControllerSnapshot` as one
//! checkpoint container (`utilcast_linalg::container`: magic, version,
//! length, checksum and a binary payload) — its bytes, and those bytes as
//! one base64 string through the vendored `serde_json`. Every checkpoint
//! written before the container was a JSON map; the committed ones are
//! kept twice, as the map (an input that must be refused) and as the
//! container it was converted to once (`.bin` beside each `.json`).
//!
//! * A checkpoint written as plain JSON arrays before the columns were
//!   packed — and before the kernel/mode matrix was retired
//!   (`crates/simnet/tests/fixtures/checkpoint_pr18.json`) — restores from
//!   its converted container into the state of an uninterrupted controller
//!   and replays 30 ticks bit for bit; its packed-column re-encoding
//!   (`tests/fixtures/checkpoint_packed_columns.json`) converted to the
//!   same bytes.
//! * A seeded ARIMA controller cut mid-run, between its first fits and a
//!   warm refit, replays like the run that never stopped, and its
//!   checkpoint re-serializes to identical bytes.
//! * A JSON-map checkpoint is refused with a typed error that names the
//!   pre-container form: two small packed-JSON checkpoints
//!   (`tests/fixtures/checkpoint_hostile_{arima,lstm}.json`) truncated at
//!   every byte, and under seeded bit flips and base64-symbol swaps, all
//!   end in an error — never a panic, never a restore.
//! * The container refuses every corruption outright: truncations, bit
//!   flips and symbol swaps of the same controllers' containers are all
//!   decode errors, so none restores — in the byte form (every truncation,
//!   every single-bit flip) and in the text form.
//! * The wire frame's JSON decoder is total too: a `ReportFrame` truncated
//!   at every byte or under seeded bit flips is a decode error or a frame
//!   the controller admits or quarantines entry by entry.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Value};

use utilcast::core::compute::ComputeOptions;
use utilcast::core::pipeline::ModelSpec;
use utilcast::simnet::controller::{Controller, ControllerConfig, ControllerSnapshot};
use utilcast::simnet::transport::ReportFrame;
use utilcast::timeseries::arima::{ArimaFitOptions, ArimaOrder};
use utilcast::timeseries::lstm::LstmConfig;

/// The PR 18 checkpoint as it was written, a JSON map of plain arrays.
const FIXTURE_JSON: &str = include_str!("../crates/simnet/tests/fixtures/checkpoint_pr18.json");
/// Its container, converted once from the map.
const FIXTURE: &[u8] = include_bytes!("../crates/simnet/tests/fixtures/checkpoint_pr18.bin");
/// The map re-encoded by the packed-column JSON codec, and its container.
const FIXTURE_PACKED_JSON: &str = include_str!("fixtures/checkpoint_packed_columns.json");
const FIXTURE_PACKED: &[u8] = include_bytes!("fixtures/checkpoint_packed_columns.bin");
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
/// and every column as a plain array. Its converted container must restore
/// into exactly the state an uninterrupted controller has at that tick and
/// replay the next 30 ticks — first fits and a staggered retrain included —
/// bit for bit.
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
        assert!(
            FIXTURE_JSON.contains(retired),
            "fixture lost its {retired} key"
        );
    }
    assert!(
        FIXTURE_JSON.contains("\"stored\":["),
        "fixture is not legacy JSON"
    );
    assert_pre_container(FIXTURE_JSON.as_bytes());
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
    let mut restored =
        Controller::restore(ControllerSnapshot::from_bytes(FIXTURE).unwrap()).unwrap();
    assert_eq!(
        restored.snapshot(),
        uninterrupted.snapshot(),
        "the unknown keys must be all the conversion dropped"
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

/// The plain-array and the packed-column form of one controller's
/// checkpoint, the packed form being the smaller, are both refused by name
/// and were converted to the same container, which re-serializes to
/// identical bytes and text.
#[test]
fn legacy_and_packed_forms_decode_to_equal_snapshots() {
    let packed = FIXTURE_PACKED_JSON;
    for column in [
        "\"stored\":\"",
        "\"last_seen\":\"u8:",
        "\"assignments\":\"u8:",
    ] {
        assert!(packed.contains(column), "{column} is not packed");
    }
    assert!(packed.len() < FIXTURE_JSON.len());
    assert_pre_container(packed.as_bytes());
    assert_eq!(FIXTURE_PACKED, FIXTURE, "one checkpoint, one container");
    let back = ControllerSnapshot::from_bytes(FIXTURE_PACKED).unwrap();
    assert_eq!(back.to_bytes(), FIXTURE);
    let container = serde_json::to_string(&back).unwrap();
    assert!(!container.contains('{'), "the container is one JSON string");
    let again: ControllerSnapshot = serde_json::from_str(&container).unwrap();
    assert_eq!(again, back);
    assert_eq!(serde_json::to_string(&again).unwrap(), container);
}

/// Asserts that `text` is refused with the error naming the
/// pre-container form.
fn assert_pre_container(text: &[u8]) {
    match serde_json::from_slice::<ControllerSnapshot>(text) {
        Err(err) => assert!(err.to_string().contains("pre-container"), "{err}"),
        Ok(_) => panic!("a JSON-map checkpoint decoded"),
    }
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

/// The hostile-input models: an ARIMA one, and an LSTM one whose weights
/// are columns too.
fn fuzz_models() -> [(&'static str, ModelSpec); 2] {
    [
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
    ]
}

/// The packed-JSON checkpoint of each [`fuzz_models`] controller, as the
/// codec before the container wrote it, and the container it was
/// converted to.
fn legacy_fuzz_checkpoint(name: &str) -> (&'static [u8], &'static [u8]) {
    match name {
        "arima" => (
            include_bytes!("fixtures/checkpoint_hostile_arima.json"),
            include_bytes!("fixtures/checkpoint_hostile_arima.bin"),
        ),
        _ => (
            include_bytes!("fixtures/checkpoint_hostile_lstm.json"),
            include_bytes!("fixtures/checkpoint_hostile_lstm.bin"),
        ),
    }
}

/// A small controller cut after its first fits.
fn fuzz_controller(model: ModelSpec) -> Controller {
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
    c
}

/// How the text reader ends on `bytes`, taken the way `from_slice` takes
/// them (a parse into a `serde::Value`, then `from_value`): `Ok(true)` for
/// a JSON map refused with the error naming the pre-container form,
/// `Ok(false)` for any other typed error, or what went wrong instead. The
/// caller catches a panic.
fn refusal(bytes: &[u8]) -> Result<bool, String> {
    let Ok(value) = serde_json::from_slice::<Value>(bytes) else {
        return Ok(false);
    };
    match ControllerSnapshot::from_value(&value) {
        Ok(_) => Err("decoded".into()),
        Err(err) if matches!(value, Value::Map(_)) => match err.to_string() {
            named if named.contains("pre-container") => Ok(true),
            other => Err(format!("a JSON map refused as {other:?}")),
        },
        Err(_) => Ok(false),
    }
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
/// base64-symbol swaps over each small packed-JSON checkpoint: every input
/// is a typed error, and every one that is still a JSON map names the
/// pre-container form. A failure lists the inputs that decoded, were
/// refused otherwise, or panicked, by model, cut and seed.
#[test]
fn hostile_checkpoints_end_in_a_typed_error_or_ok_never_a_panic() {
    const SYMBOLS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let mut failures = Vec::new();
    for (name, _) in fuzz_models() {
        let original = legacy_fuzz_checkpoint(name).0.to_vec();
        assert!(original.len() < 16_000, "{name}: {} bytes", original.len());
        assert_pre_container(&original);
        let mut maps = 0usize;
        let mut run =
            |what: String, bytes: &[u8]| match catch_unwind(AssertUnwindSafe(|| refusal(bytes))) {
                Ok(Ok(map)) => maps += usize::from(map),
                Ok(Err(e)) => failures.push(format!("{name}: {what}: {e}")),
                Err(_) => failures.push(format!("{name}: {what} panicked")),
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
        // A good share of the flips and swaps leave a JSON map, which must
        // be refused by name.
        assert!(maps >= 200, "{name}: only {maps} inputs were JSON maps");
    }
    assert!(
        failures.is_empty(),
        "{} failures: {failures:?}",
        failures.len()
    );
}

/// The container twin of the hostile-checkpoint suite, over the same two
/// controllers (whose live containers are the ones their JSON-map fixtures
/// were converted to): truncation at every byte, every single-bit flip of the
/// header's symbols and of the padded tail, seeded bit flips (1–3 per
/// input) anywhere, and seeded swaps of one base64 symbol for another. The base64
/// carriage admits one text per byte string, and the checksum catches any
/// change inside one 8-byte word of the payload, so every input must fail
/// to decode — none may reach `Controller::restore`, none may panic.
#[test]
fn hostile_containers_are_refused_before_restore() {
    const SYMBOLS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let decodes = |bytes: &[u8]| serde_json::from_slice::<ControllerSnapshot>(bytes).is_ok();
    let mut failures = Vec::new();
    for (name, model) in fuzz_models() {
        let live = fuzz_controller(model).snapshot();
        let converted = ControllerSnapshot::from_bytes(legacy_fuzz_checkpoint(name).1);
        assert_eq!(
            converted,
            Ok(live.clone()),
            "{name}: the fixture is this controller's"
        );
        let original = serde_json::to_vec(&live).unwrap();
        assert!(decodes(&original), "{name}");
        let mut inputs = 0usize;
        let mut run = |what: String, bytes: &[u8]| {
            inputs += 1;
            match catch_unwind(AssertUnwindSafe(|| decodes(bytes))) {
                Ok(false) => {}
                Ok(true) => failures.push(format!("{name}: {what} decoded")),
                Err(_) => failures.push(format!("{name}: {what} panicked")),
            }
        };
        for cut in 0..original.len() {
            run(format!("truncated at byte {cut}"), &original[..cut]);
        }
        // Every bit of the header's symbols and of the (padded) tail.
        let ends = (0..48).chain(original.len() - 16..original.len());
        for (at, bit) in ends.flat_map(|at| (0..8).map(move |bit| (at, bit))) {
            let mut bytes = original.clone();
            bytes[at] ^= 1 << bit;
            run(format!("flip of bit {bit} at byte {at}"), &bytes);
        }
        for seed in 0..1_000u64 {
            let mut state = seed;
            let mut bytes = original.clone();
            for _ in 0..1 + next(&mut state) % 3 {
                let at = (next(&mut state) % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (next(&mut state) % 8);
            }
            if bytes != original {
                run(format!("flip seed {seed}"), &bytes);
            }
        }
        // Inside the quotes, every byte is a base64 symbol or padding.
        let symbols = 1..original.len() - 1;
        for seed in 0..1_000u64 {
            let mut state = seed ^ 0x5EED;
            let mut bytes = original.clone();
            let at = symbols.start + (next(&mut state) % symbols.len() as u64) as usize;
            let offset = 1 + next(&mut state) % (SYMBOLS.len() as u64 - 1);
            if let Some(i) = SYMBOLS.iter().position(|&s| s == bytes[at]) {
                bytes[at] = SYMBOLS[(i + offset as usize) % SYMBOLS.len()];
                run(format!("swap seed {seed}"), &bytes);
            }
        }
        assert!(inputs > original.len() + 1_900, "{name}: {inputs} inputs");
    }
    assert!(
        failures.is_empty(),
        "{} failures: {failures:?}",
        failures.len()
    );
}

/// The byte form of the same two controllers' containers (the converted
/// fixtures, byte for byte): truncated at every byte and with every single
/// bit flipped, each is refused by
/// `ControllerSnapshot::from_bytes` — the frame checks catch the header,
/// the checksum every change inside one 8-byte word of the payload — so
/// none reaches `Controller::restore`, and none panics.
#[test]
fn hostile_container_bytes_are_refused_before_restore() {
    let decodes = |bytes: &[u8]| ControllerSnapshot::from_bytes(bytes).is_ok();
    let mut failures = Vec::new();
    for (name, model) in fuzz_models() {
        let live = fuzz_controller(model).snapshot();
        let original = legacy_fuzz_checkpoint(name).1.to_vec();
        assert_eq!(original, live.to_bytes(), "{name}");
        assert_eq!(
            ControllerSnapshot::from_bytes(&original),
            Ok(live),
            "{name}"
        );
        let mut run =
            |what: String, bytes: &[u8]| match catch_unwind(AssertUnwindSafe(|| decodes(bytes))) {
                Ok(false) => {}
                Ok(true) => failures.push(format!("{name}: {what} decoded")),
                Err(_) => failures.push(format!("{name}: {what} panicked")),
            };
        for cut in 0..original.len() {
            run(format!("truncated at byte {cut}"), &original[..cut]);
        }
        let mut bytes = original.clone();
        for at in 0..original.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                run(format!("flip of bit {bit} at byte {at}"), &bytes);
                bytes[at] ^= 1 << bit;
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures: {failures:?}",
        failures.len()
    );
}

/// Truncation at every byte, every single-bit flip and seeded bit flips
/// (1–3 per input) over a sequence-numbered `ReportFrame`'s JSON form. Each input is a decode
/// error, or a frame a fresh controller takes without panicking: admitted
/// with every entry applied, quarantined or dropped as stale, or dropped
/// whole as a redelivery.
#[test]
fn hostile_report_frames_end_in_a_decode_error_or_a_counted_tick() {
    const NODES: usize = 6;
    let mut frame = ReportFrame::new(1);
    frame.reset(7);
    for node in 0..NODES {
        frame.push_scalar(node, 0.125 * node as f64);
    }
    frame.set_source(2);
    frame.set_seq(41);
    let original = serde_json::to_vec(&frame).unwrap();
    let tick = |bytes: &[u8]| -> Result<(), String> {
        let Ok(frame) = serde_json::from_slice::<ReportFrame>(bytes) else {
            return Ok(());
        };
        let mut c = Controller::new(ControllerConfig {
            num_nodes: NODES,
            k: 2,
            ..Default::default()
        })
        .unwrap();
        let r = c
            .tick_frames(std::slice::from_ref(&frame))
            .map_err(|e| e.to_string())?;
        let counted = r.reports_applied + r.quarantined + r.duplicates;
        let whole = c.frames_admitted() + c.duplicate_frames();
        match (c.frames_admitted(), frame.seq().is_some()) {
            (1, true) | (0, false) if counted == frame.len() => Ok(()),
            (0, true) if counted == 0 && whole == 1 => Ok(()),
            _ => Err(format!(
                "{r:?} for {} entries, seq {:?}",
                frame.len(),
                frame.seq()
            )),
        }
    };
    assert_eq!(tick(&original), Ok(()));
    let mut failures = Vec::new();
    let mut run = |what: String, bytes: &[u8]| match catch_unwind(AssertUnwindSafe(|| tick(bytes)))
    {
        Ok(Ok(())) => {}
        Ok(Err(e)) => failures.push(format!("{what}: {e}")),
        Err(_) => failures.push(format!("{what} panicked")),
    };
    for cut in 0..original.len() {
        run(format!("truncated at byte {cut}"), &original[..cut]);
    }
    for at in 0..original.len() {
        for bit in 0..8 {
            let mut bytes = original.clone();
            bytes[at] ^= 1 << bit;
            run(format!("flip of bit {bit} at byte {at}"), &bytes);
        }
    }
    for seed in 0..4_000u64 {
        let mut state = seed ^ 0xF7A3;
        let mut bytes = original.clone();
        for _ in 0..1 + next(&mut state) % 3 {
            let at = (next(&mut state) % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << (next(&mut state) % 8);
        }
        run(format!("flip seed {seed}"), &bytes);
    }
    assert!(
        failures.is_empty(),
        "{} failures: {failures:?}",
        failures.len()
    );
}
