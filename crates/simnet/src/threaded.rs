//! Multi-threaded driver: node shards on worker threads, crossbeam
//! channels to the controller, and a supervisor that survives worker
//! crashes.
//!
//! Nodes are partitioned into `shards` contiguous ranges; each worker
//! thread owns its shard's [`TransmitterBank`] and, for every tick,
//! receives the controller's current stored values for its nodes, runs the
//! transmission decisions, and sends the resulting [`ReportFrame`] back
//! over a channel. The controller waits for all shards each tick (the
//! system is time-slotted), applies the frames in shard — hence node —
//! order, and advances the clustering + forecasting stage.
//!
//! Because decisions only depend on per-node transmitter state and the
//! shared stored values, the run is **deterministic and identical to the
//! single-threaded driver**, regardless of thread scheduling.
//!
//! The driver is *supervised*: when a worker thread panics, the supervisor
//! reaps it, respawns the shard, rebuilds the transmitters' state by
//! replaying the shard's input history (decisions are deterministic, so
//! the rebuilt state is bit-identical), and re-runs the interrupted tick.
//! Only when the respawn budget is exhausted does the run fail, with the
//! worker's panic payload in [`SimError::WorkerFailed`]. The supervisor
//! can also checkpoint the controller periodically and restore it from the
//! latest checkpoint on an (injected) controller crash — see
//! [`SupervisorOptions`].

use crossbeam::channel::{self, Receiver, Sender};
use std::any::Any;
use std::thread::{self, JoinHandle};
use utilcast_core::metrics::{rmse_step_scalar, TimeAveragedRmse};
use utilcast_core::transmit::{TransmitConfig, TransmitterBank};
use utilcast_datasets::{Resource, Trace};

use crate::controller::{Controller, ControllerConfig, ControllerSnapshot};
use crate::link::{DeliveryPlane, LinkSummary};
use crate::sim::{SimConfig, SimReport};
use crate::transport::{Meter, ReportFrame};
use crate::SimError;

/// Per-tick instruction to a worker.
#[derive(Debug, Clone)]
enum WorkerMsg {
    /// Run tick `t`'s transmission decisions and report back. The
    /// supervisor ships the shard's recycled output buffer along with the
    /// inputs (`None` right after a respawn, when the old buffer died with
    /// the previous worker).
    Tick {
        t: usize,
        xs: Vec<f64>,
        zs: Vec<f64>,
        frame: Option<ReportFrame>,
    },
    /// Re-run tick `t`'s decisions to rebuild transmitter state after a
    /// respawn — no reports are emitted and nothing is metered (the
    /// original worker already accounted for this tick).
    Replay {
        t: usize,
        xs: Vec<f64>,
        zs: Vec<f64>,
    },
    /// Shut the worker down.
    Shutdown,
}

/// Supervision parameters for [`run_threaded_supervised`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorOptions {
    /// Total worker respawns allowed across the run before giving up with
    /// [`SimError::WorkerFailed`].
    pub max_respawns: usize,
    /// Take a controller checkpoint every this many ticks (`0` = only the
    /// initial, pre-run checkpoint).
    pub checkpoint_every: usize,
    /// Fault injection for tests and chaos runs: the given `(shard, tick)`
    /// worker panics when it first processes that tick. The respawned
    /// worker does not re-panic.
    pub worker_panic_at: Option<(usize, usize)>,
    /// Fault injection: the controller crashes right before processing the
    /// given tick, losing its live state, and is restored from the latest
    /// checkpoint.
    pub controller_crash_at: Option<usize>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_respawns: 3,
            checkpoint_every: 0,
            worker_panic_at: None,
            controller_crash_at: None,
        }
    }
}

/// One worker's communication endpoints.
struct ShardLink {
    in_tx: Sender<WorkerMsg>,
    out_rx: Receiver<ReportFrame>,
    handle: Option<JoinHandle<()>>,
}

/// One batched decision pass over a shard's bank; results in `out`.
fn decide_bank(bank: &mut TransmitterBank, t: usize, xs: &[f64], zs: &[f64], out: &mut Vec<bool>) {
    // Bootstrap tick: everyone reports regardless of the decision, and the
    // bank consumes its clock against the measurement itself to stay
    // aligned with the reference driver.
    let zref: &[f64] = if t == 0 { xs } else { zs };
    bank.decide_batch_against(xs, zref, out);
}

/// The worker thread body for nodes `lo..hi`.
fn worker_loop(
    lo: usize,
    hi: usize,
    tx_config: TransmitConfig,
    meter: Meter,
    in_rx: Receiver<WorkerMsg>,
    out_tx: Sender<ReportFrame>,
    panic_at: Option<usize>,
) {
    let mut bank = TransmitterBank::new(tx_config, hi - lo);
    let mut decisions = Vec::with_capacity(hi - lo);
    while let Ok(msg) = in_rx.recv() {
        match msg {
            WorkerMsg::Shutdown => break,
            WorkerMsg::Replay { t, xs, zs } => decide_bank(&mut bank, t, &xs, &zs, &mut decisions),
            WorkerMsg::Tick { t, xs, zs, frame } => {
                if panic_at == Some(t) {
                    // lint:allow(panic): injected fault for the chaos suite;
                    // the supervisor must observe a real worker panic
                    panic!("injected fault: worker for nodes {lo}..{hi} at tick {t}");
                }
                decide_bank(&mut bank, t, &xs, &zs, &mut decisions);
                let mut frame = frame.unwrap_or_else(|| ReportFrame::new(1));
                frame.reset(t);
                for (off, &x) in xs.iter().enumerate() {
                    if t == 0 || decisions[off] {
                        frame.push_scalar(lo + off, x);
                    }
                }
                // One metering call for the whole shard, after all
                // decisions succeeded, so a panic mid-tick never leaves
                // partial accounting behind.
                meter.record_frame(&frame);
                if out_tx.send(frame).is_err() {
                    break;
                }
            }
        }
    }
}

/// Renders a worker's panic payload for [`SimError::WorkerFailed`].
fn panic_reason(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Runs the simulation with node decisions distributed over `shards`
/// worker threads. Produces the same [`SimReport`] as
/// [`crate::sim::Simulation::run`] for the same inputs. Equivalent to
/// [`run_threaded_supervised`] with default [`SupervisorOptions`].
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid parameters or
/// `shards == 0`, and [`SimError::WorkerFailed`] if a worker dies more
/// often than the respawn budget allows.
pub fn run_threaded(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    shards: usize,
) -> Result<SimReport, SimError> {
    run_threaded_supervised(
        config,
        trace,
        resource,
        shards,
        &SupervisorOptions::default(),
    )
}

/// The supervised threaded driver: like [`run_threaded`], plus worker
/// respawn with transmitter-state replay, periodic controller
/// checkpointing, and fault injection (see [`SupervisorOptions`]).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid parameters or
/// `shards == 0`, and [`SimError::WorkerFailed`] (carrying the panic
/// payload) once a worker has died more often than `max_respawns` allows.
pub fn run_threaded_supervised(
    config: &SimConfig,
    trace: &Trace,
    resource: Resource,
    shards: usize,
    options: &SupervisorOptions,
) -> Result<SimReport, SimError> {
    if shards == 0 {
        return Err(SimError::InvalidConfig {
            reason: "shards must be positive".into(),
        });
    }
    if !(config.budget > 0.0 && config.budget <= 1.0) {
        return Err(SimError::InvalidConfig {
            reason: format!("budget must be within (0, 1], got {}", config.budget),
        });
    }
    config.delivery.validate()?;
    let n = trace.num_nodes();
    let steps = trace.num_steps();
    let shards = shards.min(n);
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
    })?;
    let meter = Meter::new();
    // When the delivery layer is active, bandwidth is accounted at
    // delivery by the supervisor (lost traffic costs nothing, duplicates
    // cost twice); the workers then meter into a detached scratch meter
    // whose totals are discarded. On the passthrough fast path the
    // workers meter the real counters directly, exactly as before.
    let delivery_active = !config.delivery.is_passthrough();
    let worker_meter = if delivery_active {
        Meter::new()
    } else {
        meter.clone()
    };
    let tx_config = TransmitConfig {
        budget: config.budget,
        v0: config.v0,
        gamma: config.gamma,
    };

    // Shard boundaries: contiguous, near-equal ranges.
    let bounds: Vec<(usize, usize)> = (0..shards)
        .map(|s| (s * n / shards, (s + 1) * n / shards))
        .collect();

    let spawn = |(lo, hi): (usize, usize), panic_at: Option<usize>| -> ShardLink {
        let (in_tx, in_rx) = channel::unbounded::<WorkerMsg>();
        let (out_tx, out_rx) = channel::unbounded::<ReportFrame>();
        let meter = worker_meter.clone();
        let handle =
            thread::spawn(move || worker_loop(lo, hi, tx_config, meter, in_rx, out_tx, panic_at));
        ShardLink {
            in_tx,
            out_rx,
            handle: Some(handle),
        }
    };
    let mut links: Vec<ShardLink> = bounds
        .iter()
        .enumerate()
        .map(|(s, &b)| {
            let panic_at = options
                .worker_panic_at
                .and_then(|(ps, pt)| if ps == s { Some(pt) } else { None });
            spawn(b, panic_at)
        })
        .collect();

    // Per-shard input history, for rebuilding transmitter state on respawn.
    let mut input_log: Vec<Vec<(Vec<f64>, Vec<f64>)>> = vec![Vec::new(); shards];
    let mut respawns_left = options.max_respawns;
    let checkpoints_wanted = options.checkpoint_every > 0 || options.controller_crash_at.is_some();
    let mut last_checkpoint: Option<ControllerSnapshot> =
        checkpoints_wanted.then(|| controller.snapshot());

    // Recycled buffers: one per shard (shipped to the worker each tick and
    // returned with its batch) plus one merge target. Worker death loses
    // the in-flight shard buffer; the respawned worker simply allocates a
    // fresh one.
    let mut shard_bufs: Vec<Option<ReportFrame>> =
        (0..shards).map(|_| Some(ReportFrame::new(1))).collect();
    let mut merged = ReportFrame::with_capacity(1, n);

    // Each shard keeps its own seeded link RNG stream, so results are
    // independent of shard interleaving and match the reference driver.
    let mut plane = delivery_active.then(|| DeliveryPlane::new(shards, &config.delivery));
    let mut inbox: Vec<ReportFrame> = Vec::new();
    // Hierarchical controller without a delivery plane: the workers already
    // produce one frame per supervisor shard, so hand the per-shard frames
    // straight to the controller's multi-frame entry point instead of
    // copying them into one merged frame first. The admitted set is
    // identical (admission is per node/tick and the frames arrive in
    // ascending node order); this only skips the merge copy that the
    // hierarchical tick would immediately re-partition.
    let route_shard_frames = !delivery_active && config.compute.shards > 1;
    let mut shard_frames: Vec<ReportFrame> = Vec::with_capacity(shards);

    let mut staleness = TimeAveragedRmse::new();
    let mut intermediate = TimeAveragedRmse::new();
    let mut sent: u64 = 0;
    for t in 0..steps {
        if options.controller_crash_at == Some(t) {
            if let Some(cp) = &last_checkpoint {
                // The controller's live state is gone; resume from the
                // latest checkpoint. Stored values regress to the
                // checkpoint, so accuracy dips until fresh reports land.
                controller = Controller::restore(cp.clone())?;
            }
        }
        let x = trace.snapshot(resource, t)?;
        let stored = controller.stored().to_vec();
        for (s, &(lo, hi)) in bounds.iter().enumerate() {
            input_log[s].push((x[lo..hi].to_vec(), stored[lo..hi].to_vec()));
        }
        merged.reset(t);
        for (s, &b) in bounds.iter().enumerate() {
            // Same values the loop above logged for this shard, rebuilt
            // from the sources instead of read back out of the log.
            let (lo, hi) = b;
            let (xs, zs) = (x[lo..hi].to_vec(), stored[lo..hi].to_vec());
            loop {
                let delivered = links[s]
                    .in_tx
                    .send(WorkerMsg::Tick {
                        t,
                        xs: xs.clone(),
                        zs: zs.clone(),
                        frame: shard_bufs[s].take(),
                    })
                    .is_ok();
                if delivered {
                    if let Ok(frame) = links[s].out_rx.recv() {
                        sent += frame.len() as u64;
                        if let Some(plane) = &mut plane {
                            plane.submit(s, t, Some(&frame), n);
                        } else if route_shard_frames {
                            // Shard `s`'s frame is `shard_frames[s]` (every
                            // shard yields exactly one frame per tick
                            // here); the buffer returns to `shard_bufs`
                            // after the controller tick.
                            shard_frames.push(frame);
                            break;
                        } else {
                            // Shards merge in ascending shard order, so the
                            // merged frame is in ascending node order — the
                            // order the controller admits in.
                            merged.extend_from(&frame);
                        }
                        shard_bufs[s] = Some(frame);
                        break;
                    }
                }
                // The worker died. Reap it for the panic payload, then
                // respawn the shard, rebuild its transmitters by replaying
                // the input history, and re-run the interrupted tick.
                let reason = match links[s].handle.take() {
                    Some(handle) => match handle.join() {
                        Err(payload) => panic_reason(payload),
                        Ok(()) => "worker exited unexpectedly".to_string(),
                    },
                    None => "worker already reaped".to_string(),
                };
                if respawns_left == 0 {
                    return Err(SimError::WorkerFailed { shard: s, reason });
                }
                respawns_left -= 1;
                links[s] = spawn(b, None);
                let past = input_log[s].len() - 1;
                for (rt, (rxs, rzs)) in input_log[s][..past].iter().enumerate() {
                    let _ = links[s].in_tx.send(WorkerMsg::Replay {
                        t: rt,
                        xs: rxs.clone(),
                        zs: rzs.clone(),
                    });
                }
            }
        }
        let tick = match &mut plane {
            None if route_shard_frames => {
                let tick = controller.tick_frames(&shard_frames)?;
                for (s, frame) in shard_frames.drain(..).enumerate() {
                    shard_bufs[s] = Some(frame);
                }
                tick
            }
            None => controller.tick_frame(&merged)?,
            Some(plane) => {
                plane.collect_into(t, &mut inbox);
                for f in &inbox {
                    meter.record_frame(f);
                }
                let tick = controller.tick_frames(&inbox)?;
                plane.ack_delivered(&inbox, t);
                tick
            }
        };
        staleness.add(rmse_step_scalar(controller.stored(), &x));
        intermediate.add(tick.intermediate_rmse);
        // Query plane: serve the configured probe batch between ticks
        // (no-op at the default of 0). Runs before the checkpoint is cut so
        // a restored controller carries the same generation and read
        // counters the original had.
        controller.serve_query_probes(config.query_probe)?;
        if options.checkpoint_every > 0 && (t + 1) % options.checkpoint_every == 0 {
            last_checkpoint = Some(controller.snapshot());
        }
    }
    // Shut the workers down.
    for link in &links {
        let _ = link.in_tx.send(WorkerMsg::Shutdown);
    }
    for link in &mut links {
        if let Some(handle) = link.handle.take() {
            let _ = handle.join();
        }
    }
    let link_summary: LinkSummary = plane.map(|p| p.summary()).unwrap_or_default();
    Ok(SimReport {
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
        link: link_summary,
        forecast_table_rebuilds: controller.forecast_table_rebuilds(),
        forecast_reads_served: controller.forecast_reads_served(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use utilcast_datasets::presets;

    fn quick_config() -> SimConfig {
        SimConfig {
            k: 3,
            warmup: 30,
            retrain_every: 40,
            ..Default::default()
        }
    }

    #[test]
    fn threaded_matches_reference_driver() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let reference = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        for shards in [1, 3, 7] {
            let threaded = run_threaded(&quick_config(), &trace, Resource::Cpu, shards).unwrap();
            assert_eq!(threaded, reference, "{shards} shards diverged");
        }
    }

    #[test]
    fn query_probes_match_reference_driver_and_survive_crashes() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let probed_config = SimConfig {
            query_probe: 3,
            ..quick_config()
        };
        let reference = Simulation::new(probed_config.clone())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        assert_eq!(reference.forecast_reads_served, 3 * 120);
        assert_eq!(reference.forecast_table_rebuilds, 120);
        for shards in [1, 3] {
            let threaded = run_threaded(&probed_config, &trace, Resource::Cpu, shards).unwrap();
            assert_eq!(threaded, reference, "{shards} shards diverged with probes");
        }
        // A controller crash restored from checkpoint must replay the probe
        // stream (generation + read counters ride in the snapshot).
        let crashed = run_threaded_supervised(
            &probed_config,
            &trace,
            Resource::Cpu,
            3,
            &SupervisorOptions {
                controller_crash_at: Some(60),
                checkpoint_every: 20,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(crashed, reference, "crash recovery diverged with probes");
    }

    #[test]
    fn worker_panic_recovery_is_bit_identical() {
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let reference = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        // The dying worker takes its recycled frame buffer with it; the
        // respawned bank must be rebuilt by replay and stay bit-identical.
        let supervised = run_threaded_supervised(
            &quick_config(),
            &trace,
            Resource::Cpu,
            4,
            &SupervisorOptions {
                worker_panic_at: Some((1, 33)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(supervised, reference);
    }

    #[test]
    fn forced_delivery_plane_matches_seed_across_shards() {
        // Perfect links + ARQ force every frame through the delivery plane
        // in the threaded driver too; the run must stay bit-identical to
        // the plain threaded run (which itself matches the reference) in
        // every field except the plane's own accounting.
        use crate::link::DeliveryOptions;
        use utilcast_core::transmit::ArqConfig;
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let seed = Simulation::new(quick_config())
            .unwrap()
            .run(&trace, Resource::Cpu)
            .unwrap();
        let planed_config = SimConfig {
            delivery: DeliveryOptions {
                arq: ArqConfig {
                    timeout: 4,
                    backoff_cap: 3,
                    max_retransmits: 8,
                },
                ..DeliveryOptions::none()
            },
            ..quick_config()
        };
        for shards in [1, 3, 7] {
            let planed = run_threaded(&planed_config, &trace, Resource::Cpu, shards).unwrap();
            assert_eq!(planed.link.retransmits, 0, "perfect links never time out");
            assert!(planed.link.sent >= 120, "at least one frame per tick");
            assert_eq!(planed.link.sent, planed.link.delivered);
            let neutral = SimReport {
                link: LinkSummary::default(),
                ..planed
            };
            assert_eq!(neutral, seed, "{shards} shards diverged under the plane");
        }
    }

    #[test]
    fn lossy_links_in_threaded_driver_match_reference_driver() {
        // A degraded plan is still fully deterministic: per-shard RNG
        // streams derive from (seed, shard), so the threaded driver with
        // the same shard count as the reference's plane must agree with
        // itself run-to-run and complete with sane metrics.
        use crate::link::{DeliveryOptions, LinkPlan};
        use utilcast_core::transmit::ArqConfig;
        let trace = presets::google_like()
            .nodes(20)
            .steps(120)
            .seed(9)
            .generate();
        let config = SimConfig {
            delivery: DeliveryOptions {
                link: LinkPlan {
                    loss_prob: 0.2,
                    delay_ticks: 1,
                    jitter_ticks: 2,
                    dup_prob: 0.05,
                    reorder_prob: 0.1,
                    seed: 77,
                    ..LinkPlan::perfect()
                },
                arq: ArqConfig {
                    timeout: 6,
                    backoff_cap: 3,
                    max_retransmits: 10,
                },
                ..DeliveryOptions::none()
            },
            ..quick_config()
        };
        let a = run_threaded(&config, &trace, Resource::Cpu, 4).unwrap();
        let b = run_threaded(&config, &trace, Resource::Cpu, 4).unwrap();
        assert_eq!(a, b, "lossy threaded run must be reproducible");
        assert!(a.link.lost > 0, "0.2 loss never fired");
        assert!(a.link.retransmits > 0, "loss must trigger retransmission");
        assert!(a.staleness_rmse.is_finite());
        assert_eq!(a.steps, 120);
    }

    #[test]
    fn more_shards_than_nodes_is_clamped() {
        let trace = presets::alibaba_like()
            .nodes(4)
            .steps(40)
            .seed(2)
            .generate();
        let report = run_threaded(&quick_config(), &trace, Resource::Memory, 16);
        // k=3 <= 4 nodes, so this must succeed.
        assert!(report.is_ok());
    }

    #[test]
    fn zero_shards_rejected() {
        let trace = presets::alibaba_like().nodes(4).steps(10).generate();
        assert!(matches!(
            run_threaded(&quick_config(), &trace, Resource::Cpu, 0),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn exhausted_respawn_budget_surfaces_panic_payload() {
        let trace = presets::alibaba_like()
            .nodes(8)
            .steps(30)
            .seed(1)
            .generate();
        let err = run_threaded_supervised(
            &quick_config(),
            &trace,
            Resource::Cpu,
            2,
            &SupervisorOptions {
                max_respawns: 0,
                worker_panic_at: Some((1, 5)),
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            SimError::WorkerFailed { shard, reason } => {
                assert_eq!(shard, 1);
                assert!(reason.contains("injected fault"), "reason: {reason}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn controller_crash_recovers_from_checkpoint() {
        let trace = presets::google_like()
            .nodes(12)
            .steps(100)
            .seed(6)
            .generate();
        let report = run_threaded_supervised(
            &quick_config(),
            &trace,
            Resource::Cpu,
            3,
            &SupervisorOptions {
                checkpoint_every: 20,
                controller_crash_at: Some(47),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.steps, 100);
        assert!(report.staleness_rmse.is_finite());
        assert!(report.messages > 0);
    }
}
