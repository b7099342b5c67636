//! Determinism suite for the parallel compute layer: the controller's
//! threaded k-means, warm-start clustering, and concurrent per-cluster
//! retraining must be invisible in the results — bit-identical
//! [`SimReport`]s at any thread count, with and without periodic cold
//! re-seeding, and bit-identical snapshot/restore replay while the
//! concurrent paths are active. The ISSUE 9 kernel matrix runs the same
//! stack with each vectorized kernel (`Kernel::SimdNorms`,
//! `BankKernel::Lanes`, `LstmKernel::SimdFlat`) forced.

use proptest::prelude::*;
use utilcast_core::compute::{BankKernel, ComputeOptions, Kernel, ShardKernel};
use utilcast_core::pipeline::ModelSpec;
use utilcast_datasets::{presets, Resource, Trace};
use utilcast_simnet::controller::{Controller, ControllerConfig};
use utilcast_simnet::sim::{SimConfig, Simulation};
use utilcast_simnet::threaded::run_threaded;
use utilcast_simnet::transport::{IngestMode, Report, ReportFrame};
use utilcast_timeseries::lstm::{LstmConfig, LstmKernel};

fn trace() -> Trace {
    presets::google_like()
        .nodes(40)
        .steps(200)
        .seed(11)
        .generate()
}

fn run_with(compute: ComputeOptions) -> utilcast_simnet::sim::SimReport {
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
        warm_start: true,
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
        warm_start: true,
        cold_reseed_every: 0,
        ..Default::default()
    });
    let cold = run_with(ComputeOptions {
        threads: 1,
        warm_start: false,
        cold_reseed_every: 0,
        ..Default::default()
    });
    // Same workload, same seed: both must be valid runs with comparable
    // error, but the intermediate RMSE traces need not coincide bitwise.
    assert_eq!(warm.steps, cold.steps);
    assert!(warm.intermediate_rmse.is_finite() && cold.intermediate_rmse.is_finite());
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

/// The mini-batch shard kernel (one warm Lloyd nudge per shard per tick)
/// is a different schedule from the full kernel but equally deterministic:
/// bit-identical across thread counts, including across cold re-seeds.
#[test]
fn mini_batch_shard_kernel_bit_identical_at_any_thread_count() {
    let compute = |threads: usize| ComputeOptions {
        shards: 4,
        shard_kernel: ShardKernel::MiniBatch,
        cold_reseed_every: 13,
        threads,
        ..Default::default()
    };
    let sequential = run_with(compute(1));
    assert!(sequential.intermediate_rmse.is_finite());
    for threads in [2, 8] {
        assert_eq!(
            run_with(compute(threads)),
            sequential,
            "threads = {threads} diverged"
        );
    }
}

/// The vectorized clustering kernel forced through the full seed stack
/// (ISSUE 9 kernel matrix): `Kernel::SimdNorms` preserves the cached-norm
/// reduction order, so the whole `SimReport` is bit-identical to the
/// default `CachedNorms` stack at every thread count, and the hierarchical
/// mini-batch shard path (which routes its re-assignment scan through the
/// same lane kernel) is kernel-invariant too.
#[test]
fn simd_norms_kernel_bit_identical_through_full_stack() {
    let reference = run_with(ComputeOptions::default());
    for threads in [1, 2, 8] {
        let simd = run_with(ComputeOptions {
            kernel: Kernel::SimdNorms,
            threads,
            ..Default::default()
        });
        assert_eq!(
            simd, reference,
            "SimdNorms diverged from the default stack at {threads} threads"
        );
    }
    let hier = |kernel: Kernel| ComputeOptions {
        shards: 4,
        shard_kernel: ShardKernel::MiniBatch,
        cold_reseed_every: 13,
        kernel,
        ..Default::default()
    };
    assert_eq!(
        run_with(hier(Kernel::SimdNorms)),
        run_with(hier(Kernel::CachedNorms)),
        "SimdNorms diverged on the hierarchical mini-batch path"
    );
}

/// The lane batch-decide kernel forced through the full seed stack:
/// `BankKernel::Lanes` keeps the per-row error sum and threshold compare
/// in scalar order, so the frame-mode `SimReport` is bit-identical to the
/// default per-row kernel, single-threaded and at every supervisor shard
/// count.
#[test]
fn lane_bank_kernel_bit_identical_through_full_stack() {
    let trace = trace();
    let config = |bank_kernel: BankKernel| SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        ingest: IngestMode::Frame,
        compute: ComputeOptions {
            bank_kernel,
            ..Default::default()
        },
        ..Default::default()
    };
    let reference = Simulation::new(config(BankKernel::PerRow))
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    let lanes = Simulation::new(config(BankKernel::Lanes))
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert_eq!(lanes, reference, "lane bank kernel diverged");
    for shards in [1, 2, 8] {
        let threaded =
            run_threaded(&config(BankKernel::Lanes), &trace, Resource::Cpu, shards).unwrap();
        assert_eq!(
            threaded, reference,
            "threaded lane bank kernel diverged at {shards} shards"
        );
    }
}

/// The vectorized LSTM kernel forced through the full stack: below lane
/// width (`hidden < 8`) `LstmKernel::SimdFlat` is bit-identical to the
/// default `FusedFlat`, and at the default hidden width (16, where the
/// lane folds reassociate) the SimdFlat run is still deterministic — the
/// same `SimReport` bit for bit at every thread count.
#[test]
fn simd_flat_lstm_kernel_deterministic_through_full_stack() {
    let trace = trace();
    let config = |kernel: LstmKernel, hidden: usize, threads: usize| SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        model: ModelSpec::Lstm(LstmConfig {
            hidden,
            epochs: 2,
            kernel,
            ..Default::default()
        }),
        compute: ComputeOptions {
            threads,
            ..Default::default()
        },
        ..Default::default()
    };
    let run = |c: SimConfig| {
        Simulation::new(c)
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap()
    };
    // Bitwise parity below lane width: the lane gemv degenerates to the
    // order-preserving scalar tail.
    assert_eq!(
        run(config(LstmKernel::SimdFlat, 4, 1)),
        run(config(LstmKernel::FusedFlat, 4, 1)),
        "SimdFlat diverged from FusedFlat below lane width"
    );
    // Determinism at lane width: thread count must be invisible.
    let sequential = run(config(LstmKernel::SimdFlat, 16, 1));
    for threads in [2, 8] {
        assert_eq!(
            run(config(LstmKernel::SimdFlat, 16, threads)),
            sequential,
            "SimdFlat nondeterministic at {threads} threads"
        );
    }
}

fn config_with_ingest(ingest: IngestMode) -> SimConfig {
    SimConfig {
        k: 4,
        warmup: 30,
        retrain_every: 40,
        ingest,
        ..Default::default()
    }
}

/// The flat frame-based collection plane is bit-identical to the seed
/// per-report path: same `SimReport` (exact `f64` equality) from the
/// single-threaded driver and from the threaded driver at shard counts
/// 1, 2, and 8.
#[test]
fn frame_ingest_bit_identical_to_report_ingest_at_any_shard_count() {
    let trace = trace();
    let seed_path = Simulation::new(config_with_ingest(IngestMode::Reports))
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    let frame_path = Simulation::new(config_with_ingest(IngestMode::Frame))
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert_eq!(frame_path, seed_path, "single-threaded frame path diverged");
    // The full seed stack — per-report ingest plus the nested points path
    // into the clustering stage — must also match the optimized stack.
    let full_seed_stack = Simulation::new(SimConfig {
        compute: ComputeOptions {
            flat_points: false,
            ..Default::default()
        },
        ..config_with_ingest(IngestMode::Reports)
    })
    .unwrap()
    .run(&trace, Resource::Cpu)
    .unwrap();
    assert_eq!(full_seed_stack, seed_path, "nested points path diverged");
    for shards in [1, 2, 8] {
        let threaded_frame = run_threaded(
            &config_with_ingest(IngestMode::Frame),
            &trace,
            Resource::Cpu,
            shards,
        )
        .unwrap();
        assert_eq!(
            threaded_frame, seed_path,
            "threaded frame path diverged at {shards} shards"
        );
        let threaded_reports = run_threaded(
            &config_with_ingest(IngestMode::Reports),
            &trace,
            Resource::Cpu,
            shards,
        )
        .unwrap();
        assert_eq!(
            threaded_reports, seed_path,
            "threaded report path diverged at {shards} shards"
        );
    }
}

/// With a hierarchical controller, the threaded driver routes each
/// supervisor shard's frame straight into `Controller::tick_frames`
/// instead of merging first. The `SimReport` must be bit-identical to the
/// single-threaded driver's merged-frame run at every supervisor shard
/// count — supervisor sharding and clustering sharding are independent
/// axes, and neither may leak into results.
#[test]
fn hierarchical_threaded_driver_bit_identical_at_any_supervisor_shard_count() {
    let trace = trace();
    let hier_config = SimConfig {
        compute: ComputeOptions {
            shards: 4,
            ..Default::default()
        },
        ..config_with_ingest(IngestMode::Frame)
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

/// Under injected in-flight corruption, the frame and per-report ingest
/// paths stay bit-identical — same quarantine and duplicate counters, same
/// link accounting — at shard counts 1, 2, and 8. This holds because the
/// link draws corruption **per payload entry**: a frame with E entries and
/// a report batch with E entries consume the same RNG stream, and each
/// shard's stream derives from `(plan seed, shard)` alone.
#[test]
fn corrupt_link_frame_ingest_bit_identical_to_report_ingest() {
    use utilcast_simnet::link::{DeliveryOptions, LinkPlan};
    let trace = trace();
    let corrupt_config = |ingest: IngestMode| SimConfig {
        delivery: DeliveryOptions {
            link: LinkPlan {
                corrupt_prob: 0.25,
                seed: 23,
                ..LinkPlan::perfect()
            },
            ..DeliveryOptions::none()
        },
        ..config_with_ingest(ingest)
    };
    let report_path = Simulation::new(corrupt_config(IngestMode::Reports))
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    let frame_path = Simulation::new(corrupt_config(IngestMode::Frame))
        .unwrap()
        .run(&trace, Resource::Cpu)
        .unwrap();
    assert!(
        report_path.quarantined > 0,
        "0.25 corruption never fired in 200 ticks"
    );
    assert_eq!(report_path.link.corrupted, report_path.quarantined);
    assert_eq!(
        frame_path, report_path,
        "single-threaded frame path diverged under corruption"
    );
    for shards in [1, 2, 8] {
        let threaded_frame = run_threaded(
            &corrupt_config(IngestMode::Frame),
            &trace,
            Resource::Cpu,
            shards,
        )
        .unwrap();
        let threaded_reports = run_threaded(
            &corrupt_config(IngestMode::Reports),
            &trace,
            Resource::Cpu,
            shards,
        )
        .unwrap();
        assert!(threaded_frame.quarantined > 0);
        assert_eq!(
            threaded_frame, threaded_reports,
            "frame vs report ingest diverged under corruption at {shards} shards"
        );
    }
}

/// A warm ARIMA refit continues from the outgoing model, so that model is
/// replay state. A controller that crashes between its first fits (tick 24)
/// and the scheduled retrain (tick 40) and restarts from a serialized
/// checkpoint must go through the refit tick exactly as the one that never
/// stopped: same `TickReport`s, same forecasts, same final state.
#[test]
fn crash_restore_across_an_arima_refit_tick_replays_identically() {
    use utilcast_timeseries::arima::{ArimaFitOptions, ArimaOrder};
    const NODES: usize = 12;
    let controller = || {
        Controller::new(ControllerConfig {
            num_nodes: NODES,
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
    };
    // Three groups swinging on different periods; every fourth node skips
    // every third tick, so the stored values carry some staleness.
    let reports = |t: usize| -> Vec<Report> {
        (0..NODES)
            .filter(|i| i % 4 != 3 || !t.is_multiple_of(3))
            .map(|node| {
                let group = node % 3;
                let period = 14 + 6 * group;
                let phase = ((t + 5 * group) % period) as f64 / period as f64;
                let swing = 0.06 * (1.0 - 4.0 * (phase - 0.5).abs());
                let noise = ((t * 29 + node * 13) % 19) as f64 / 19.0 - 0.5;
                Report {
                    node,
                    t,
                    values: vec![0.2 + 0.3 * group as f64 + swing + 0.02 * noise],
                }
            })
            .collect()
    };
    let drive = |c: &mut Controller, ticks: std::ops::Range<usize>| {
        ticks
            .map(|t| (c.tick(reports(t)).unwrap(), c.forecast(4).unwrap()))
            .collect::<Vec<_>>()
    };

    let mut uninterrupted = controller();
    let mut trace = drive(&mut uninterrupted, 0..30);
    let checkpoint = serde_json::to_string(&uninterrupted.snapshot()).unwrap();
    trace.extend(drive(&mut uninterrupted, 30..46));
    let retrain_ticks: Vec<usize> = (0..46).filter(|&t| trace[t].0.retrained).collect();
    assert_eq!(retrain_ticks, [23, 39], "first fits, then one refit");

    let mut restarted = Controller::restore(serde_json::from_str(&checkpoint).unwrap()).unwrap();
    assert_eq!(drive(&mut restarted, 30..46), trace[30..]);
    assert_eq!(restarted.snapshot(), uninterrupted.snapshot());
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
            warm_start: true,
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
    fn snapshot_restore_bit_identical_with_concurrent_retraining(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..16),
        split_pct in 0u32..100,
    ) {
        let split = (ticks.len() * split_pct as usize / 100).min(ticks.len() - 1);
        let to_reports = |t: usize, batch: &[(usize, f64)]| -> Vec<Report> {
            batch
                .iter()
                .map(|&(node, v)| Report { node, t, values: vec![v] })
                .collect()
        };

        let mut uninterrupted = concurrent_controller();
        let mut resumed = concurrent_controller();
        for (t, batch) in ticks[..split].iter().enumerate() {
            let a = uninterrupted.tick(to_reports(t, batch)).unwrap();
            let b = resumed.tick(to_reports(t, batch)).unwrap();
            prop_assert_eq!(a, b);
        }

        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        for (t, batch) in ticks.iter().enumerate().skip(split) {
            let a = uninterrupted.tick(to_reports(t, batch)).unwrap();
            let b = resumed.tick(to_reports(t, batch)).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(uninterrupted.stored(), resumed.stored());
        prop_assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }

    /// Frame ingest is bit-identical to per-report ingest at the controller
    /// boundary for any report sequence — including out-of-range values,
    /// unknown nodes, and intra-tick duplicates, all of which must be
    /// quarantined identically on both paths.
    #[test]
    fn tick_frame_bit_identical_to_tick_for_any_batch(
        ticks in proptest::collection::vec(arb_tick_reports(), 2..16),
    ) {
        let mut per_report = concurrent_controller();
        let mut framed = concurrent_controller();
        let mut frame = ReportFrame::new(1);
        for (t, batch) in ticks.iter().enumerate() {
            let reports: Vec<Report> = batch
                .iter()
                .map(|&(node, v)| Report { node, t, values: vec![v] })
                .collect();
            frame.reset(t);
            let mut sorted = batch.clone();
            sorted.sort_by_key(|&(node, _)| node);
            for (node, v) in sorted {
                frame.push_scalar(node, v);
            }
            let a = per_report.tick(reports).unwrap();
            let b = framed.tick_frame(&frame).unwrap();
            prop_assert_eq!(a, b, "tick {} diverged", t);
        }
        prop_assert_eq!(per_report.stored(), framed.stored());
        prop_assert_eq!(per_report.quarantined(), framed.quarantined());
        prop_assert_eq!(per_report.snapshot(), framed.snapshot());
    }

    /// Snapshot → restore → replay over the *frame* ingest path is
    /// bit-identical to the uninterrupted frame-path run for any report
    /// sequence and split point.
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
            let a = uninterrupted.tick_frame(&frame).unwrap();
            let b = resumed.tick_frame(&frame).unwrap();
            prop_assert_eq!(a, b);
        }

        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Controller::restore(serde_json::from_str(&json).unwrap()).unwrap();

        for (t, batch) in ticks.iter().enumerate().skip(split) {
            fill(&mut frame, t, batch);
            let a = uninterrupted.tick_frame(&frame).unwrap();
            let b = resumed.tick_frame(&frame).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(uninterrupted.stored(), resumed.stored());
        prop_assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }
}
