//! Tier-1 view of the warm LSTM refit.
//!
//! A refit continues from the outgoing weights, so those weights — and the
//! history length they were trained to — are replay state. A controller
//! checkpointed between two refits of the same cluster and restored through
//! the JSON codec must go through the following refits exactly as the one
//! that never stopped: the same `TickReport`s, stored values, 16-step
//! forecasts and checkpoint bytes, bit for bit. On the model itself: a
//! refit of an unfitted model is `fit`, bit for bit, and a failed refit
//! leaves the previous fit serving the same forecast bits.

use utilcast::core::compute::ComputeOptions;
use utilcast::core::pipeline::ModelSpec;
use utilcast::simnet::controller::{Controller, ControllerConfig};
use utilcast::simnet::transport::ReportFrame;
use utilcast::timeseries::lstm::{Lstm, LstmConfig};
use utilcast::timeseries::{Forecaster, TimeSeriesError};

const NODES: usize = 24;
const K: usize = 3;
const WARMUP: usize = 16;
const RETRAIN_EVERY: usize = 8;
/// The checkpoint tick: every cluster has fitted and refitted by then.
const CUT: usize = 40;
/// Ticks replayed after the cut: three more refits of every cluster.
const REPLAY: usize = 24;

fn config() -> LstmConfig {
    LstmConfig {
        window: 4,
        hidden: 4,
        epochs: 2,
        seed: 7,
        ..Default::default()
    }
}

fn controller() -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: NODES,
        k: K,
        m_prime: 3,
        warmup: WARMUP,
        retrain_every: RETRAIN_EVERY,
        model: ModelSpec::Lstm(config()),
        seed: 13,
        compute: ComputeOptions {
            retrain_stagger: true,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

/// Tick `t` (exact arithmetic only): three groups swinging on different
/// periods, every node silent on every fifth tick.
fn frame(t: usize) -> ReportFrame {
    let mut frame = ReportFrame::new(1);
    frame.reset(t);
    for node in (0..NODES).filter(|node| t == 0 || !(t + node).is_multiple_of(5)) {
        let group = node % K;
        let period = 9 + 5 * group;
        let phase = ((t + 2 * group) % period) as f64 / period as f64;
        let swing = 0.08 * (1.0 - 4.0 * (phase - 0.5).abs());
        let own = ((t * 37 + node * 11) % 29) as f64 / 29.0 - 0.5;
        frame.push_scalar(node, 0.15 + 0.3 * group as f64 + swing + 0.02 * own);
    }
    frame
}

/// One tick's observable outcome, every float as its bits: the
/// `TickReport` (its `Debug` form prints each f64 in shortest round-trip
/// form, so equal text is equal bits), the stored values and the forecast.
#[derive(Debug, PartialEq)]
struct Observed {
    report: String,
    retrained: bool,
    stored: Vec<u64>,
    forecast: Vec<Vec<u64>>,
}

fn drive(c: &mut Controller, ticks: std::ops::Range<usize>) -> Vec<Observed> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    ticks
        .map(|t| {
            let report = c.tick_frames(&[frame(t)]).unwrap();
            Observed {
                report: format!("{report:?}"),
                retrained: report.retrained,
                stored: bits(c.stored()),
                forecast: c.forecast(16).unwrap().iter().map(|r| bits(r)).collect(),
            }
        })
        .collect()
}

/// Retrain ticks of a trace, grouped by their phase in the retrain cycle:
/// with staggered retraining each cluster keeps its own phase.
fn refits_per_phase(trace: &[Observed], first_tick: usize) -> Vec<usize> {
    let mut per_phase = vec![0; RETRAIN_EVERY];
    for (i, o) in trace.iter().enumerate() {
        if o.retrained {
            per_phase[(first_tick + i) % RETRAIN_EVERY] += 1;
        }
    }
    per_phase.retain(|&n| n > 0);
    per_phase
}

#[test]
fn lstm_controller_restored_between_refits_replays_them_bitwise() {
    let mut uninterrupted = controller();
    let before = drive(&mut uninterrupted, 0..CUT);
    // Every cluster has fitted and refitted before the cut.
    let phases = refits_per_phase(&before, 0);
    assert_eq!(phases.len(), K, "one retrain phase per cluster: {phases:?}");
    assert!(phases.iter().all(|&n| n >= 2), "{phases:?}");

    let checkpoint = serde_json::to_string(&uninterrupted.snapshot()).unwrap();
    let mut restored = Controller::restore(serde_json::from_str(&checkpoint).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).unwrap(),
        checkpoint,
        "a restored checkpoint re-serializes to its own bytes"
    );

    let expected = drive(&mut uninterrupted, CUT..CUT + REPLAY);
    let replay = drive(&mut restored, CUT..CUT + REPLAY);
    let phases = refits_per_phase(&expected, CUT);
    assert_eq!(phases.len(), K, "{phases:?}");
    assert!(
        phases.iter().all(|&n| n >= 2),
        "at least two refits per cluster after the cut: {phases:?}"
    );
    for (i, (r, e)) in replay.iter().zip(&expected).enumerate() {
        assert_eq!(r, e, "tick {}", CUT + i);
    }
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).unwrap(),
        serde_json::to_string(&uninterrupted.snapshot()).unwrap()
    );
}

/// A centroid-like series of `n` points.
fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| 0.4 + 0.2 * ((t % 12) as f64 / 12.0) + 0.01 * ((t * 7) % 5) as f64)
        .collect()
}

fn forecast_bits(m: &Lstm, history: &[f64]) -> Vec<u64> {
    m.forecast(history, 16)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn a_failed_lstm_refit_keeps_the_previous_forecast_bits() {
    let history = series(80);
    let mut m = Lstm::new(config());
    m.fit(&history[..60]).unwrap();
    m.refit(&history[..68]).unwrap();
    let before = m.clone();
    let serving = forecast_bits(&m, &history);

    let mut poisoned = history.clone();
    poisoned[71] = f64::NAN;
    assert_eq!(
        m.refit(&poisoned),
        Err(TimeSeriesError::NonFinite { index: 71 })
    );
    assert_eq!(forecast_bits(&m, &history), serving);

    let needed = config().window + 2;
    assert_eq!(
        m.refit(&history[..needed - 1]),
        Err(TimeSeriesError::TooShort {
            needed,
            got: needed - 1
        })
    );
    assert_eq!(forecast_bits(&m, &history), serving);
    assert_eq!(m, before, "a failed refit writes nothing");
}

#[test]
fn an_lstm_refit_of_an_unfitted_model_is_fit_bitwise() {
    let history = series(90);
    let mut fitted = Lstm::new(config());
    let mut refitted = Lstm::new(config());
    fitted.fit(&history).unwrap();
    refitted.refit(&history).unwrap();
    assert_eq!(refitted, fitted);
    assert_eq!(
        refitted.train_mse().unwrap().to_bits(),
        fitted.train_mse().unwrap().to_bits()
    );
    assert_eq!(
        forecast_bits(&refitted, &history),
        forecast_bits(&fitted, &history)
    );
}
