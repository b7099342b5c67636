//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use utilcast_core::compute::ComputeOptions;
use utilcast_core::pipeline::ModelSpec;
use utilcast_datasets::presets;
use utilcast_datasets::Resource;
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::run_threaded;
use utilcast_simnet::transport::{Meter, ReportFrame, HEADER_BYTES};

const PROP_NODES: usize = 5;

/// An arbitrary per-tick report batch: node ids deliberately range past the
/// controller's node count and values past its bounds, so sequences mix
/// valid, quarantinable, duplicate, and out-of-order reports.
fn arb_tick_reports() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..PROP_NODES + 2, -0.5f64..1.5), 0..8)
}

/// A scalar frame for tick `t` carrying `batch` in order.
fn frame(t: usize, batch: &[(usize, f64)]) -> ReportFrame {
    let mut frame = ReportFrame::new(1);
    frame.reset(t);
    for &(node, v) in batch {
        frame.push_scalar(node, v);
    }
    frame
}

fn prop_controller() -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: PROP_NODES,
        k: 2,
        warmup: 4,
        retrain_every: 5,
        ..Default::default()
    })
    .unwrap()
}

proptest! {
    /// Snapshot → restore → replay equals the uninterrupted run, for any
    /// report sequence (including invalid and out-of-order reports) and any
    /// split point: checkpoint recovery is lossless.
    #[test]
    fn snapshot_restore_replay_matches_uninterrupted_run(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..20),
        split_pct in 0u32..100,
    ) {
        let split = (ticks.len() * split_pct as usize / 100).min(ticks.len() - 1);

        let mut uninterrupted = prop_controller();
        let mut resumed = prop_controller();
        for (t, batch) in ticks[..split].iter().enumerate() {
            let a = uninterrupted.tick_frames(&[frame(t, batch)]).unwrap();
            let b = resumed.tick_frames(&[frame(t, batch)]).unwrap();
            prop_assert_eq!(a, b);
        }

        // Crash: lose `resumed` entirely, recover it from a snapshot that
        // survived a JSON round trip (as an on-disk checkpoint would).
        let checkpoint = resumed.snapshot();
        let json = serde_json::to_string(&checkpoint).unwrap();
        let mut resumed = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        for (t, batch) in ticks.iter().enumerate().skip(split) {
            let a = uninterrupted.tick_frames(&[frame(t, batch)]).unwrap();
            let b = resumed.tick_frames(&[frame(t, batch)]).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(uninterrupted.stored(), resumed.stored());
        prop_assert_eq!(uninterrupted.quarantined(), resumed.quarantined());
        prop_assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }

    /// A frame's wire size is affine in its entry count and payload width.
    #[test]
    fn wire_bytes_affine(t in 0usize..10_000, d in 1usize..16, entries in 0usize..8) {
        let mut frame = ReportFrame::new(d);
        frame.reset(t);
        for node in 0..entries {
            frame.push(node, &vec![0.5; d]);
        }
        prop_assert_eq!(frame.wire_bytes(), entries as u64 * (HEADER_BYTES + 8 * d as u64));
    }

    /// The meter equals the sum of the frames it recorded.
    #[test]
    fn meter_totals_match(
        frames in proptest::collection::vec((1usize..8, 0usize..6), 1..50),
    ) {
        let mut m = Meter::new();
        let (mut messages, mut bytes) = (0u64, 0u64);
        for (t, &(d, entries)) in frames.iter().enumerate() {
            let mut frame = ReportFrame::new(d);
            frame.reset(t);
            for node in 0..entries {
                frame.push(node, &vec![0.1; d]);
            }
            messages += entries as u64;
            bytes += frame.wire_bytes();
            m.record_frame(&frame);
        }
        prop_assert_eq!(m.messages(), messages);
        prop_assert_eq!(m.bytes(), bytes);
    }

    /// The threaded driver is bit-identical to the reference driver for any
    /// shard count, budget, and K (the scheduling-independence property).
    /// Kept small: the property is structural, not statistical.
    #[test]
    fn threaded_always_matches_reference(
        shards in 1usize..6,
        k in 1usize..4,
        budget_pct in 1u32..10,
        seed in 0u64..20,
    ) {
        let budget = budget_pct as f64 / 10.0;
        let trace = presets::alibaba_like().nodes(8).steps(60).seed(seed).generate();
        let config = SimConfig {
            budget,
            k,
            warmup: 20,
            retrain_every: 25,
            model: ModelSpec::SampleAndHold,
            ..Default::default()
        };
        let reference = Simulation::new(config.clone())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        let threaded = run_threaded(&config, &trace, Resource::Cpu, shards).unwrap();
        prop_assert_eq!(reference, threaded);
    }

    /// Splitting any report stream across `S` per-shard frames admits
    /// exactly the same set as handing the controller one merged frame:
    /// same stored values, same quarantine and duplicate counters, same
    /// tick reports, for any batch mix of valid, out-of-range, unknown-node
    /// and duplicate entries. This is the contract that lets the threaded
    /// driver hand its per-shard frames to the controller unmerged.
    #[test]
    fn sharded_frames_admit_same_set_as_merged_frame(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..16),
        shards in 1usize..5,
    ) {
        let mut merged_ctl = prop_controller();
        let mut sharded_ctl = prop_controller();
        let mut merged = ReportFrame::new(1);
        let mut split: Vec<ReportFrame> = (0..shards).map(|_| ReportFrame::new(1)).collect();
        for (t, batch) in ticks.iter().enumerate() {
            let mut sorted = batch.clone();
            sorted.sort_by_key(|&(node, _)| node);
            merged.reset(t);
            for frame in &mut split {
                frame.reset(t);
            }
            // Contiguous chunks of the sorted stream, mirroring how the
            // threaded driver's shards partition the node range.
            for (i, &(node, v)) in sorted.iter().enumerate() {
                merged.push_scalar(node, v);
                split[i * shards / sorted.len().max(1)].push_scalar(node, v);
            }
            let a = merged_ctl.tick_frames(std::slice::from_ref(&merged)).unwrap();
            let b = sharded_ctl.tick_frames(&split).unwrap();
            prop_assert_eq!(a, b, "tick {} diverged", t);
        }
        prop_assert_eq!(merged_ctl.stored(), sharded_ctl.stored());
        prop_assert_eq!(merged_ctl.quarantined(), sharded_ctl.quarantined());
        prop_assert_eq!(merged_ctl.duplicates(), sharded_ctl.duplicates());
        prop_assert_eq!(merged_ctl.snapshot(), sharded_ctl.snapshot());
    }

    /// Realized frequency never exceeds budget by more than the queue
    /// slack, for any budget and trace seed.
    #[test]
    fn frequency_bounded_by_budget_plus_slack(
        budget_pct in 1u32..10,
        seed in 0u64..20,
    ) {
        let budget = budget_pct as f64 / 10.0;
        let trace = presets::google_like().nodes(10).steps(200).seed(seed).generate();
        let report = Simulation::new(SimConfig {
            budget,
            k: 3,
            warmup: 10_000,
            ..Default::default()
        })
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
        // sent = B*T + Q(T) per node; Q is bounded by Vt * max err over the
        // horizon, which stays small on unit-range data at T = 200.
        prop_assert!(
            report.realized_frequency <= budget + 0.15,
            "budget {budget}: frequency {}",
            report.realized_frequency
        );
    }
}

/// An AutoArima spec whose empty grid can never fit: every training attempt
/// diverges, forcing the controller's stage onto the sample-and-hold
/// fallback — the cheapest deterministic way to cross fallback boundaries.
fn unfittable_model() -> ModelSpec {
    use utilcast_timeseries::arima::{ArimaFitOptions, ArimaGrid};
    ModelSpec::AutoArima {
        grid: ArimaGrid {
            p: vec![],
            d: vec![],
            q: vec![],
            sp: vec![],
            sd: vec![],
            sq: vec![],
            s: 0,
        },
        options: ArimaFitOptions::default(),
    }
}

proptest! {
    /// A controller checkpoint that survived a JSON round trip restores a
    /// read plane that serves bit-identical answers: at every tick after
    /// the split, the restored controller's forecast table matches the
    /// uninterrupted one entry for entry (values, intervals, generation),
    /// and the table itself round-trips through serde bitwise — across
    /// retrain and fallback boundaries, for threads in {1, 2, 8} and
    /// clustering shards in {1, 4}.
    #[test]
    fn restored_read_plane_serves_bit_identical_answers(
        seed in 0u64..30,
        threads_idx in 0usize..3,
        shard_idx in 0usize..2,
        fallback_idx in 0usize..2,
        split in 6usize..24,
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let shards = [1usize, 4][shard_idx];
        let model = if fallback_idx == 1 {
            unfittable_model()
        } else {
            ModelSpec::SampleAndHold
        };
        let config = ControllerConfig {
            num_nodes: 8,
            k: 2,
            warmup: 5,
            retrain_every: 10,
            model,
            seed,
            compute: ComputeOptions {
                threads,
                shards,
                max_query_horizon: 3,
                ..ComputeOptions::default()
            },
            ..Default::default()
        };
        let to_frame = |t: usize| -> ReportFrame {
            let batch: Vec<(usize, f64)> = (0..8)
                .map(|node| {
                    let base = (node % 2) as f64 * 0.4 + 0.1;
                    (node, base + ((t * 7 + node * 13 + seed as usize) % 17) as f64 / 100.0)
                })
                .collect();
            frame(t, &batch)
        };

        let mut live = Controller::new(config.clone()).unwrap();
        for t in 0..split {
            live.tick_frames(&[to_frame(t)]).unwrap();
        }
        // Crash: recover a second controller from a checkpoint that
        // survived a JSON round trip, as an on-disk one would.
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let mut restored = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        // 26 ticks cross the warmup fit (tick 5) and two retrains (15, 25);
        // the unfittable model turns those into fallback activations.
        for t in split..26 {
            live.tick_frames(&[to_frame(t)]).unwrap();
            restored.tick_frames(&[to_frame(t)]).unwrap();
            let a = live.forecast_table().unwrap();
            let b = restored.forecast_table().unwrap();
            prop_assert_eq!(a.generation(), b.generation(), "generation diverged at t = {}", t);
            for h in 0..a.horizon() {
                for i in 0..a.num_nodes() {
                    prop_assert_eq!(
                        a.node_forecast(i, h).to_bits(),
                        b.node_forecast(i, h).to_bits(),
                        "forecast for node {} horizon {} diverged at t = {}", i, h, t
                    );
                    prop_assert_eq!(
                        a.node_interval(i, h).to_bits(),
                        b.node_interval(i, h).to_bits(),
                        "interval for node {} horizon {} diverged at t = {}", i, h, t
                    );
                }
            }
        }
        // Neither controller served a table before the split, so the
        // rebuild counters advanced in lockstep after it.
        prop_assert_eq!(
            live.forecast_table_rebuilds(),
            restored.forecast_table_rebuilds()
        );
    }
}
