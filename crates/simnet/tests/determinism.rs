//! Determinism suite for the parallel compute layer: the controller's
//! threaded k-means, warm-start clustering, and concurrent per-cluster
//! retraining must be invisible in the results — bit-identical
//! [`SimReport`]s at any thread count, with and without periodic cold
//! re-seeding, and bit-identical snapshot/restore replay while the
//! concurrent paths are active. The frame drivers are also held, bit for
//! bit, to the seed's per-node collection loop, which lives on here as a
//! test-only reference, and the controller's one entry point is held to the
//! per-node-order contract the drivers rely on. (The checkpoint codec's
//! replay tests — a legacy checkpoint and an ARIMA cut across a refit — are
//! root `tests/checkpoint_codec.rs`.)

use proptest::prelude::*;
use std::collections::VecDeque;
use utilcast_core::compute::ComputeOptions;
use utilcast_core::metrics::{rmse_step_scalar, TimeAveragedRmse};
use utilcast_core::transmit::{AdaptiveTransmitter, TransmitConfig};
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::link::{LinkModel, LinkSummary};
use utilcast_simnet::sim::{SimConfig, SimReport, Simulation};
use utilcast_simnet::threaded::run_threaded;
use utilcast_simnet::transport::{Meter, ReportFrame};

fn trace() -> Trace {
    presets::google_like()
        .nodes(40)
        .steps(200)
        .seed(11)
        .generate()
}

fn run_with(compute: ComputeOptions) -> SimReport {
    Simulation::new(SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        compute,
        ..Default::default()
    })
    .unwrap()
    .run(&trace(), Resource::Cpu)
    .unwrap()
}

/// Threaded k-means + concurrent retraining: the full simulation report is
/// bit-identical to the sequential path at every thread count. `SimReport`
/// derives `PartialEq` over its `f64` metrics, so equality here is exact
/// floating-point equality, not a tolerance.
#[test]
fn sim_report_bit_identical_at_any_thread_count() {
    let sequential = run_with(ComputeOptions {
        threads: 1,
        ..Default::default()
    });
    for threads in [2, 8] {
        let parallel = run_with(ComputeOptions {
            threads,
            ..Default::default()
        });
        assert_eq!(parallel, sequential, "threads = {threads} diverged");
    }
}

/// Warm-start clustering with a short cold re-seed period: many cold
/// re-seeds fire mid-run, and the report stays bit-identical across thread
/// counts (the cold re-seed cadence is driven by the step counter, never by
/// scheduling).
#[test]
fn warm_start_with_cold_reseed_bit_identical_at_any_thread_count() {
    let compute = |threads: usize| ComputeOptions {
        threads,
        cold_reseed_every: 13,
        ..Default::default()
    };
    let sequential = run_with(compute(1));
    for threads in [2, 8] {
        assert_eq!(
            run_with(compute(threads)),
            sequential,
            "threads = {threads} diverged"
        );
    }
}

/// Staggered retraining (phase-offset per cluster) is driven purely by the
/// step counter, so the full simulation report stays bit-identical at any
/// thread count with the stagger enabled.
#[test]
fn staggered_retraining_bit_identical_at_any_thread_count() {
    let compute = |threads: usize| ComputeOptions {
        threads,
        retrain_stagger: true,
        ..Default::default()
    };
    let sequential = run_with(compute(1));
    for threads in [2, 8] {
        assert_eq!(
            run_with(compute(threads)),
            sequential,
            "threads = {threads} diverged"
        );
    }
}

/// The stagger genuinely changes the retrain schedule (otherwise the test
/// above would be vacuous), while leaving the ingest metrics untouched.
#[test]
fn staggered_retraining_is_a_distinct_schedule() {
    let staggered = run_with(ComputeOptions {
        retrain_stagger: true,
        ..Default::default()
    });
    let synchronized = run_with(ComputeOptions::default());
    assert_eq!(staggered.steps, synchronized.steps);
    assert_eq!(staggered.messages, synchronized.messages);
    assert_eq!(staggered.quarantined, synchronized.quarantined);
    assert!(staggered.intermediate_rmse.is_finite());
}

/// The warm-start trajectory genuinely engages: it must match the
/// cold-every-step trajectory on cold-reseed steps only by construction,
/// not produce the identical clustering path. (If the two paths were
/// always equal, the warm-start tests above would be vacuous.)
#[test]
fn warm_start_is_a_distinct_code_path() {
    let warm = run_with(ComputeOptions {
        threads: 1,
        cold_reseed_every: 0,
        ..Default::default()
    });
    let cold = run_with(ComputeOptions {
        threads: 1,
        cold_reseed_every: 1,
        ..Default::default()
    });
    // Same workload, same seed: both must be valid runs with comparable
    // error, but the intermediate RMSE traces need not coincide bitwise.
    assert_eq!(warm.steps, cold.steps);
    assert!(warm.intermediate_rmse.is_finite() && cold.intermediate_rmse.is_finite());
    assert_ne!(
        warm.intermediate_rmse.to_bits(),
        cold.intermediate_rmse.to_bits(),
        "warm starts never engaged"
    );
}

/// A hierarchical (two-level) controller configured with a single shard
/// must reproduce the seed single-level `SimReport` bit-for-bit at any
/// thread count: `shards <= 1` (including the serde-default `0` from old
/// checkpoints) takes the seed code path verbatim.
#[test]
fn single_shard_hierarchical_reproduces_seed_report_at_any_thread_count() {
    let seed_report = run_with(ComputeOptions::default());
    for shards in [0, 1] {
        for threads in [1, 2, 8] {
            let report = run_with(ComputeOptions {
                shards,
                threads,
                ..Default::default()
            });
            assert_eq!(
                report, seed_report,
                "shards = {shards}, threads = {threads} diverged from the seed"
            );
        }
    }
}

/// The genuinely hierarchical configurations (2 and 8 clustering shards)
/// are each bit-identical across thread counts: the shard fan-out changes
/// wall-clock only, never results.
#[test]
fn hierarchical_report_bit_identical_at_any_thread_count() {
    for shards in [2, 8] {
        let sequential = run_with(ComputeOptions {
            shards,
            threads: 1,
            ..Default::default()
        });
        assert_eq!(sequential.steps, 200);
        assert!(sequential.intermediate_rmse.is_finite());
        for threads in [2, 8] {
            let parallel = run_with(ComputeOptions {
                shards,
                threads,
                ..Default::default()
            });
            assert_eq!(
                parallel, sequential,
                "shards = {shards}, threads = {threads} diverged"
            );
        }
    }
}

fn base_config() -> SimConfig {
    SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        ..Default::default()
    }
}

/// The seed's collection loop, kept as the reference the frame drivers are
/// held to: one [`AdaptiveTransmitter`] per node, one `(node, t, value)`
/// record per transmission, the tick's records sorted by `(node, t)`, each
/// then admitted as a frame of its own. With a degraded link each of the
/// `shards` sending edges puts its tick's records on its own link as one
/// frame — the only payload the link plane carries — and what arrives is
/// unpacked into records again.
fn reference_run(config: &SimConfig, trace: &Trace, shards: usize) -> SimReport {
    assert!(
        !config.delivery.arq.is_enabled(),
        "no ARQ edge in the reference"
    );
    let (n, steps) = (trace.num_nodes(), trace.num_steps());
    let mut controller = Controller::new(ControllerConfig {
        num_nodes: n,
        k: config.k,
        m: config.m,
        m_prime: config.m_prime,
        warmup: config.warmup,
        retrain_every: config.retrain_every,
        model: config.model.clone(),
        seed: config.seed,
        compute: config.compute,
        ..Default::default()
    })
    .unwrap();
    let mut transmitters = vec![
        AdaptiveTransmitter::new(TransmitConfig {
            budget: config.budget,
            v0: config.v0,
            gamma: config.gamma,
        });
        n
    ];
    let mut links: Vec<LinkModel<ReportFrame>> = if config.delivery.is_passthrough() {
        Vec::new()
    } else {
        (0..shards)
            .map(|s| LinkModel::new(config.delivery.link, s))
            .collect()
    };
    let mut meter = Meter::new();
    let (mut staleness, mut intermediate) = (TimeAveragedRmse::new(), TimeAveragedRmse::new());
    let mut sent = 0u64;
    for t in 0..steps {
        let x = trace.snapshot(Resource::Cpu, t).unwrap();
        // Bootstrap tick: everyone reports, and the transmitters consume
        // their clock against z = x.
        let zs = if t == 0 {
            x.clone()
        } else {
            controller.stored().to_vec()
        };
        let mut records: Vec<(usize, usize, f64)> = (0..n)
            .filter(|&i| transmitters[i].decide(&[x[i]], &[zs[i]]) || t == 0)
            .map(|i| (i, t, x[i]))
            .collect();
        sent += records.len() as u64;
        if !links.is_empty() {
            let mut arrived = Vec::new();
            for (s, link) in links.iter_mut().enumerate() {
                let mut frame = ReportFrame::new(1);
                frame.reset(t);
                for &(node, _, v) in &records {
                    if (s * n / shards..(s + 1) * n / shards).contains(&node) {
                        frame.push_scalar(node, v);
                    }
                }
                link.send(frame, t, n);
                for delivered in link.collect(t) {
                    arrived.extend(delivered.iter().map(|e| (e.node, e.t, e.values[0])));
                }
            }
            records = arrived;
        }
        records.sort_by_key(|&(node, t, _)| (node, t));
        let frames: Vec<ReportFrame> = records
            .iter()
            .map(|&(node, t, v)| {
                let mut frame = ReportFrame::new(1);
                frame.reset(t);
                frame.push_scalar(node, v);
                frame
            })
            .collect();
        // Bandwidth is counted at delivery.
        frames.iter().for_each(|f| meter.record_frame(f));
        let tick = controller.tick_frames(&frames).unwrap();
        staleness.add(rmse_step_scalar(controller.stored(), &x));
        intermediate.add(tick.intermediate_rmse);
    }
    let mut link = LinkSummary::default();
    links.iter().for_each(|l| link.merge(l.summary()));
    SimReport {
        steps,
        messages: meter.messages(),
        bytes: meter.bytes(),
        realized_frequency: sent as f64 / (steps as f64 * n as f64),
        staleness_rmse: staleness.value(),
        intermediate_rmse: intermediate.value(),
        quarantined: controller.quarantined(),
        model_fallbacks: controller.model_fallbacks(),
        fallback_fit_failures: controller.fallback_fit_failures(),
        duplicates: controller.duplicates(),
        mean_age: controller.age().mean(),
        peak_age: controller.age().peak(),
        masked_node_steps: controller.masked_node_steps(),
        link,
        forecast_table_rebuilds: controller.forecast_table_rebuilds(),
        forecast_reads_served: controller.forecast_reads_served(),
    }
}

/// The frame-based collection plane is bit-identical to the seed
/// per-node loop: same `SimReport` (exact `f64` equality) from the
/// single-threaded driver and from the threaded driver at shard counts
/// 1, 2, and 8.
#[test]
fn frame_drivers_bit_identical_to_the_per_node_reference_at_any_shard_count() {
    let trace = trace();
    let seed_path = reference_run(&base_config(), &trace, 1);
    let frame_path = Simulation::new(base_config())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert_eq!(frame_path, seed_path, "single-threaded frame path diverged");
    for shards in [1, 2, 8] {
        let threaded = run_threaded(&base_config(), &trace, Resource::Cpu, shards).unwrap();
        assert_eq!(
            threaded, seed_path,
            "threaded frame path diverged at {shards} shards"
        );
    }
}

/// With a hierarchical controller, the threaded driver's per-shard frames
/// must give a `SimReport` bit-identical to the single-threaded driver's
/// one frame at every supervisor shard count — supervisor sharding and
/// clustering sharding are independent axes, and neither may leak into
/// results.
#[test]
fn hierarchical_threaded_driver_bit_identical_at_any_supervisor_shard_count() {
    let trace = trace();
    let hier_config = SimConfig {
        compute: ComputeOptions {
            shards: 4,
            ..Default::default()
        },
        ..base_config()
    };
    let reference = Simulation::new(hier_config.clone())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    for supervisor_shards in [1, 2, 8] {
        let threaded =
            run_threaded(&hier_config, &trace, Resource::Cpu, supervisor_shards).unwrap();
        assert_eq!(
            threaded, reference,
            "hierarchical run diverged at {supervisor_shards} supervisor shards"
        );
    }
}

/// Under injected in-flight corruption, the frame drivers and the per-node
/// reference stay bit-identical — same quarantine and duplicate counters,
/// same link accounting — at shard counts 1, 2, and 8: admission of a
/// corrupted entry is the same decision whether it arrives in a shard's
/// frame or, after the reference's sort, in a frame of its own, and each
/// shard's link stream derives from `(plan seed, shard)` alone.
#[test]
fn corrupt_link_frame_drivers_bit_identical_to_the_per_node_reference() {
    use utilcast_simnet::link::{DeliveryOptions, LinkPlan};
    let trace = trace();
    let corrupt_config = SimConfig {
        delivery: DeliveryOptions {
            link: LinkPlan {
                corrupt_prob: 0.25,
                seed: 23,
                ..LinkPlan::perfect()
            },
            ..DeliveryOptions::none()
        },
        ..base_config()
    };
    let seed_path = reference_run(&corrupt_config, &trace, 1);
    let frame_path = Simulation::new(corrupt_config.clone())
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert!(
        seed_path.quarantined > 0,
        "0.25 corruption never fired in 200 ticks"
    );
    assert_eq!(seed_path.link.corrupted, seed_path.quarantined);
    assert_eq!(
        frame_path, seed_path,
        "single-threaded frame path diverged under corruption"
    );
    for shards in [1, 2, 8] {
        let threaded = run_threaded(&corrupt_config, &trace, Resource::Cpu, shards).unwrap();
        assert!(threaded.quarantined > 0);
        assert_eq!(
            threaded,
            reference_run(&corrupt_config, &trace, shards),
            "frame driver vs per-node reference diverged under corruption at {shards} shards"
        );
    }
}

const PROP_NODES: usize = 6;

fn arb_tick_reports() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..PROP_NODES + 2, -0.5f64..1.5), 0..8)
}

fn concurrent_controller() -> Controller {
    Controller::new(ControllerConfig {
        num_nodes: PROP_NODES,
        k: 3,
        warmup: 4,
        retrain_every: 5,
        compute: ComputeOptions {
            threads: 8,
            cold_reseed_every: 7,
            retrain_stagger: true,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

proptest! {
    /// Snapshot → JSON round trip → restore → replay is bit-identical to
    /// the uninterrupted run *with concurrent retraining and threaded
    /// warm-start clustering enabled*, for any report sequence (valid,
    /// quarantinable, duplicate, out-of-order) and any split point.
    #[test]
    fn snapshot_restore_bit_identical_on_frame_path(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..16),
        split_pct in 0u32..100,
    ) {
        let split = (ticks.len() * split_pct as usize / 100).min(ticks.len() - 1);
        let mut frame = ReportFrame::new(1);
        let fill = |frame: &mut ReportFrame, t: usize, batch: &[(usize, f64)]| {
            frame.reset(t);
            let mut sorted = batch.to_vec();
            sorted.sort_by_key(|&(node, _)| node);
            for (node, v) in sorted {
                frame.push_scalar(node, v);
            }
        };

        let mut uninterrupted = concurrent_controller();
        let mut resumed = concurrent_controller();
        for (t, batch) in ticks[..split].iter().enumerate() {
            fill(&mut frame, t, batch);
            let a = uninterrupted.tick_frames(std::slice::from_ref(&frame)).unwrap();
            let b = resumed.tick_frames(std::slice::from_ref(&frame)).unwrap();
            prop_assert_eq!(a, b);
        }

        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        for (t, batch) in ticks.iter().enumerate().skip(split) {
            fill(&mut frame, t, batch);
            let a = uninterrupted.tick_frames(std::slice::from_ref(&frame)).unwrap();
            let b = resumed.tick_frames(std::slice::from_ref(&frame)).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(uninterrupted.stored(), resumed.stored());
        prop_assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }
}

/// One arbitrary entry of a tick: a node id (past the fleet for unknown
/// ids), how many ticks before the current one it was measured, a shuffle
/// key, and a value class — NaN, above or below the unit bounds, or a
/// valid value.
fn arb_entry() -> impl Strategy<Value = ((usize, usize, u32), (u8, f64))> {
    (
        (0usize..PROP_NODES + 2, 0usize..3, 0u32..u32::MAX),
        (0u8..8, 0.0f64..1.0),
    )
}

type Entry = (usize, usize, f64);

/// The tick's entries as `(node, t, value)`, in arrival order.
fn entries(tick: usize, drawn: &[((usize, usize, u32), (u8, f64))]) -> Vec<Entry> {
    drawn
        .iter()
        .map(|&((node, back, _), (class, v))| {
            let value = match class {
                0 => f64::NAN,
                1 => 1.5,
                2 => -0.5,
                _ => v,
            };
            (node, tick.saturating_sub(back), value)
        })
        .collect()
}

/// `batch` reordered by the drawn shuffle keys, except that every node's
/// entries keep their relative order: each position the shuffle gives a
/// node takes that node's next entry.
fn interleave(batch: &[Entry], drawn: &[((usize, usize, u32), (u8, f64))]) -> Vec<Entry> {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by_key(|&i| drawn[i].0 .2);
    let mut queues = vec![VecDeque::new(); PROP_NODES + 2];
    for &entry in batch {
        queues[entry.0].push_back(entry);
    }
    order
        .iter()
        .map(|&i| queues[batch[i].0].pop_front().unwrap())
        .collect()
}

/// `batch` as frames, one per run of entries with the same `t`.
fn pack(batch: &[Entry]) -> Vec<ReportFrame> {
    let mut frames: Vec<ReportFrame> = Vec::new();
    for &(node, t, v) in batch {
        if frames.last().is_none_or(|f| f.t() != t) {
            let mut frame = ReportFrame::new(1);
            frame.reset(t);
            frames.push(frame);
        }
        frames.last_mut().unwrap().push_scalar(node, v);
    }
    frames
}

proptest! {
    /// A tick's outcome depends only on each node's entries' relative
    /// order: any interleaving of different nodes' entries — across
    /// frames of different `t` in one tick, with unknown nodes, NaN and
    /// out-of-range values, and same-`(node, t)` duplicates — gives a
    /// bitwise-equal `TickReport`, store and checkpoint. This is what lets
    /// the fault driver hand its link's deliveries over sorted by `t`
    /// rather than by `(node, t)`.
    #[test]
    fn tick_frames_depends_only_on_each_nodes_entry_order(
        ticks in proptest::collection::vec(
            proptest::collection::vec(arb_entry(), 0..12),
            2..12,
        ),
    ) {
        let mut arrival = concurrent_controller();
        let mut shuffled = concurrent_controller();
        for (tick, drawn) in ticks.iter().enumerate() {
            let batch = entries(tick, drawn);
            let a = arrival.tick_frames(&pack(&batch)).unwrap();
            let b = shuffled.tick_frames(&pack(&interleave(&batch, drawn))).unwrap();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "tick {} diverged", tick);
            let bits = |c: &Controller| c.stored().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&arrival), bits(&shuffled));
        }
        prop_assert_eq!(
            serde_json::to_string(&arrival.snapshot()).unwrap(),
            serde_json::to_string(&shuffled.snapshot()).unwrap()
        );
    }
}
